"""Independent reference implementations used only to check the package.

Everything here is deliberately written against the definitions, not against
the package code: exact rational arithmetic where possible, recursion instead
of tables, and no imports from multisimul internals beyond the 13a tokenizer
contract (re-implemented below).
"""

from __future__ import annotations

import math
import re
import sys
import unicodedata
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import mpmath
import numpy as np


def edit_distance_recursive(gold: Sequence[str], hyp: Sequence[str]) -> int:
    """Plain recursive minimum over delete/insert/(mis)match."""

    @lru_cache(maxsize=None)
    def solve(i: int, j: int) -> int:
        if i == len(gold):
            return len(hyp) - j
        if j == len(hyp):
            return len(gold) - i
        best = solve(i + 1, j + 1) + (gold[i] != hyp[j])
        best = min(best, solve(i + 1, j) + 1)
        best = min(best, solve(i, j + 1) + 1)
        return best

    gold = tuple(gold)
    hyp = tuple(hyp)
    sys.setrecursionlimit(10000)
    return solve(0, 0)


def reference_align_edit(
    gold: Sequence[str], hyp: Sequence[str]
) -> list[tuple[str, str | None, str | None]]:
    """Full (n+1) x (m+1) suffix-distance table, then a left-to-right walk.

    Returns (kind, gold, hyp) triples with the package's kind names. When
    costs tie the walk prefers Copy over Substitute over Delete over Insert.
    """
    g = list(gold)
    h = list(hyp)
    n, m = len(g), len(h)
    # dist[i][j] = edit distance between g[i:] and h[j:]
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for j in range(m + 1):
        dist[n][j] = m - j
    for i in range(n - 1, -1, -1):
        dist[i][m] = n - i
        row, below = dist[i], dist[i + 1]
        for j in range(m - 1, -1, -1):
            diag = below[j + 1] + (g[i] != h[j])
            row[j] = min(diag, below[j] + 1, row[j + 1] + 1)
    ops: list[tuple[str, str | None, str | None]] = []
    i = j = 0
    while i < n or j < m:
        d = dist[i][j]
        if i < n and j < m and g[i] == h[j] and d == dist[i + 1][j + 1]:
            ops.append(("copy", g[i], h[j]))
            i += 1
            j += 1
        elif i < n and j < m and g[i] != h[j] and d == 1 + dist[i + 1][j + 1]:
            ops.append(("sub", g[i], h[j]))
            i += 1
            j += 1
        elif i < n and d == 1 + dist[i + 1][j]:
            ops.append(("del", g[i], None))
            i += 1
        else:
            ops.append(("ins", None, h[j]))
            j += 1
    return ops


def reference_tokenize_13a(line: str) -> list[str]:
    """Second, independently-typed transcription of the mteval-13a rules."""
    text = line.replace("<skipped>", "")
    text = text.replace("-\n", "").replace("\n", " ")
    for entity, char in (("&quot;", '"'), ("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">")):
        text = text.replace(entity, char)
    text = " " + text + " "
    text = re.sub(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])", r" \1 ", text)
    text = re.sub(r"([^0-9])([\.,])", r"\1 \2 ", text)
    text = re.sub(r"([\.,])([^0-9])", r" \1 \2", text)
    text = re.sub(r"([0-9])(-)", r"\1 \2 ", text)
    return text.split()


# every whitespace character of str.isspace (the set re's \s matches), and
# two format characters that look like spaces but are not whitespace
SPLIT_ALPHABET = (
    "ab \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
    + "\u200b\ufeff"
)


def reference_token_offsets(raw: str) -> tuple[str, tuple[str, ...], tuple[int, ...]]:
    """The stripped ``raw``, its tokens and each token's start in it, by regex.

    The package's earlier ``TokenSequence.from_raw``, kept as the oracle for
    the whitespace split and for the token positions that read scheduling
    finds in the raw text.
    """
    raw = raw.strip()
    tokens: list[str] = []
    offsets: list[int] = []
    for match in re.finditer(r"\S+", raw):
        tokens.append(match.group())
        offsets.append(match.start())
    return raw, tuple(tokens), tuple(offsets)


def reference_alignment_line(line: str) -> frozenset[tuple[int, int]] | tuple[str, int]:
    """The links of one Pharaoh-format line, parsed by regex, or its first
    malformed pair and the 1-based column where that pair starts."""
    links = set()
    for field in re.finditer(r"\S+", line):
        match = re.match(r"^(\d+)-(\d+)$", field[0])
        if match is None:
            return field[0], field.start() + 1
        links.add((int(match[1]), int(match[2])))
    return frozenset(links)


def reference_apply_noise(model, tokens: Sequence[str], seed: int, sentence_index: int = 0) -> tuple[str, ...]:
    """The lexical noise sampler with one ``rng.random()`` call per decision
    and a linear scan per table draw: the package's earlier ``apply_noise``.

    ``model`` is read by attribute only (``p_insert``, ``p_delete``,
    ``p_substitute``, ``substitution_table``, ``insertion_table``).
    """
    rng = np.random.default_rng(int(seed) ^ int(sentence_index))
    out: list[str] = []

    def draw(dist) -> str:
        r = rng.random()
        acc = 0.0
        for word, p in dist:
            acc += p
            if r < acc:
                return word
        return dist[-1][0]

    def insertion_run() -> None:
        if model.p_insert <= 0.0:
            return
        while rng.random() < model.p_insert:
            out.append(draw(model.insertion_table))

    insertion_run()
    for token in tokens:
        if rng.random() < model.p_delete:
            insertion_run()
            continue
        dist = model.substitution_table.get(token)
        if rng.random() < model.p_substitute and dist:
            out.append(draw(dist))
        else:
            out.append(token)
        insertion_run()
    return tuple(out)


def _ngrams(tokens: Sequence[str], n: int) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for i in range(len(tokens) - n + 1):
        key = tuple(tokens[i : i + n])
        counts[key] = counts.get(key, 0) + 1
    return counts


def reference_bleu(hyps: Sequence[str], refs: Sequence[Sequence[str]]) -> float:
    """Corpus BLEU with 13a tokens, exact rational clipped counts, exp smoothing."""
    correct = [Fraction(0)] * 4
    total = [Fraction(0)] * 4
    sys_len = 0
    ref_len = 0
    for idx, hyp in enumerate(hyps):
        hyp_tokens = reference_tokenize_13a(hyp)
        ref_token_lists = [reference_tokenize_13a(r[idx]) for r in refs]
        sys_len += len(hyp_tokens)
        # closest reference length, shorter wins ties
        diffs = sorted(
            (abs(len(hyp_tokens) - len(rt)), len(rt)) for rt in ref_token_lists
        )
        ref_len += diffs[0][1]
        for n in range(1, 5):
            hyp_counts = _ngrams(hyp_tokens, n)
            clip: dict[tuple, int] = {}
            for rt in ref_token_lists:
                for gram, count in _ngrams(rt, n).items():
                    clip[gram] = max(clip.get(gram, 0), count)
            total[n - 1] += sum(hyp_counts.values())
            correct[n - 1] += sum(
                min(count, clip.get(gram, 0)) for gram, count in hyp_counts.items()
            )
    smooth = Fraction(1)
    log_sum = 0.0
    for n in range(4):
        if total[n] == 0:
            return 0.0
        if correct[n] == 0:
            smooth *= 2
            precision = Fraction(100, 1) / (smooth * total[n])
        else:
            precision = Fraction(100) * correct[n] / total[n]
        log_sum += math.log(float(precision))
    bp = 1.0 if sys_len >= ref_len else math.exp(1.0 - ref_len / sys_len)
    return bp * math.exp(log_sum / 4.0)


def reference_chrf2(hyps: Sequence[str], refs: Sequence[Sequence[str]]) -> float:
    """Corpus chrF2 (orders 1..6, beta=2, whitespace removed, best ref per segment)."""

    def pair_stats(hyp: str, ref: str) -> list[tuple[int, int, int]]:
        h = re.sub(r"\s+", "", hyp)
        r = re.sub(r"\s+", "", ref)
        stats = []
        for n in range(1, 7):
            hc = _ngrams(tuple(h), n)
            rc = _ngrams(tuple(r), n)
            match = sum(min(c, rc.get(g, 0)) for g, c in hc.items())
            stats.append((sum(hc.values()), sum(rc.values()), match))
        return stats

    def f_score(stats: Sequence[tuple[int, int, int]]) -> float:
        acc = Fraction(0)
        orders = 0
        for n_hyp, n_ref, n_match in stats:
            if n_hyp == 0 and n_ref == 0:
                continue
            prec = Fraction(n_match, n_hyp) if n_hyp else Fraction(0)
            rec = Fraction(n_match, n_ref) if n_ref else Fraction(0)
            if 4 * prec + rec > 0:
                acc += 5 * prec * rec / (4 * prec + rec)
            orders += 1
        if orders == 0:
            return 0.0
        return float(100 * acc / orders)

    totals = [(0, 0, 0)] * 6
    for idx, hyp in enumerate(hyps):
        candidates = [pair_stats(hyp, r[idx]) for r in refs]
        best = max(candidates, key=f_score)
        totals = [
            (a + x, b + y, c + z) for (a, b, c), (x, y, z) in zip(totals, best)
        ]
    return f_score(totals)


# --- per-segment sufficient statistics --------------------------------------
# The package's earlier per-segment Counter path, kept as the oracle for its
# chunked counting kernel: the int64 matrices must agree value for value. Rows:
#   BLEU  (2 * BLEU_ORDER + 2): correct[4], total[4], sys_len, closest_ref_len
#   chrF2 (3 * CHRF_ORDER): (hyp, ref, match) n-gram counts for each order

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2


def _ngram_counts(seq: Sequence, order: int) -> list[Counter]:
    """One Counter per n = 1..order of the n-grams of ``seq``, keyed by item tuples."""
    return [Counter(zip(*[seq[k:] for k in range(n)])) for n in range(1, order + 1)]


def _matches(hyp: Counter, ref: Counter) -> int:
    """Clipped matches: the smaller count of every n-gram the two share."""
    if len(hyp) > len(ref):
        hyp, ref = ref, hyp
    get = ref.get
    total = 0
    for gram, count in hyp.items():
        other = get(gram, 0)
        total += count if count < other else other
    return total


def _bleu_ref_side(refs: Sequence[str]) -> tuple[list[int], list[Counter]]:
    """13a token counts of a segment's references and their max-clipped n-grams."""
    lengths: list[int] = []
    clip: list[Counter] = []
    for ref in refs:
        tokens = reference_tokenize_13a(ref)
        lengths.append(len(tokens))
        counts = _ngram_counts(tokens, BLEU_ORDER)
        if not clip:
            clip = counts
        else:
            for kept, new in zip(clip, counts):
                kept |= new
    return lengths, clip


def _bleu_row(hyp: str, ref_side: tuple[list[int], list[Counter]]) -> list[int]:
    ref_lengths, clip = ref_side
    tokens = reference_tokenize_13a(hyp)
    sys_len = len(tokens)
    # closest reference length; the shorter one wins a tie
    closest = min(ref_lengths, key=lambda r: (abs(sys_len - r), r))
    correct = [_matches(h, r) for h, r in zip(_ngram_counts(tokens, BLEU_ORDER), clip)]
    total = [max(sys_len - k, 0) for k in range(BLEU_ORDER)]
    return [*correct, *total, sys_len, closest]


def _chrf_ref_side(refs: Sequence[str]) -> list[tuple[int, list[Counter]]]:
    """Whitespace-free length and character n-grams of each reference."""
    side = []
    for ref in refs:
        chars = "".join(ref.split())
        side.append((len(chars), _ngram_counts(chars, CHRF_ORDER)))
    return side


def _chrf_row(hyp: str, ref_side: list[tuple[int, list[Counter]]]) -> list[int]:
    """chrF2 row against the best reference; the first wins an exact tie."""
    chars = "".join(hyp.split())
    counts = _ngram_counts(chars, CHRF_ORDER)
    best: list[int] = []
    best_score = Fraction(-1)
    for ref_len, ref_counts in ref_side:
        stats: list[int] = []
        for k, (h, r) in enumerate(zip(counts, ref_counts)):
            stats += (max(len(chars) - k, 0), max(ref_len - k, 0), _matches(h, r))
        if len(ref_side) == 1:
            return stats
        score = _chrf_exact(stats)
        if score > best_score:
            best, best_score = stats, score
    return best


def _chrf_exact(stats: Sequence[int]) -> Fraction:
    """Sentence chrF as an exact fraction of 1, so that equal candidates tie."""
    score = Fraction(0)
    effective_order = 0
    for i in range(CHRF_ORDER):
        n_hyp, n_ref, n_match = stats[3 * i : 3 * i + 3]
        if n_hyp == 0 and n_ref == 0:
            continue
        # (1 + b^2) P R / (b^2 P + R) with P = m / hyp and R = m / ref
        if n_match > 0:
            score += Fraction((1 + CHRF_BETA**2) * n_match, CHRF_BETA**2 * n_ref + n_hyp)
        effective_order += 1
    return score / effective_order if effective_order else score


_STATS_CORES = {
    "bleu": (_bleu_ref_side, _bleu_row, 2 * BLEU_ORDER + 2),
    "chrf2": (_chrf_ref_side, _chrf_row, 3 * CHRF_ORDER),
}


def reference_stats_matrices(
    systems: Sequence[Sequence[str]], refs: Sequence[Sequence[str]], metric: str
) -> list[np.ndarray]:
    """One (segments x stats) int64 matrix per system, one segment at a time.

    A segment's reference side is built once and shared by all systems.
    """
    ref_side, row, width = _STATS_CORES[metric]
    rows: list[list[int]] = [[] for _ in systems]
    for i in range(len(systems[0])):
        side = ref_side([ref_set[i] for ref_set in refs])
        for out, hyps in zip(rows, systems):
            out.extend(row(hyps[i], side))
    return [np.array(out, dtype=np.int64).reshape(-1, width) for out in rows]


def chi_square_statistic_exact(cells: tuple[tuple[int, int], tuple[int, int]]) -> Fraction:
    """Pearson statistic with exact rational arithmetic."""
    (a, b), (c, d) = cells
    n = a + b + c + d
    rows = (a + b, c + d)
    cols = (a + c, b + d)
    observed = ((a, b), (c, d))
    stat = Fraction(0)
    for r in range(2):
        for k in range(2):
            expected = Fraction(rows[r] * cols[k], n)
            diff = observed[r][k] - expected
            stat += diff * diff / expected
    return stat


def chi_square_p_highprec(statistic: float) -> float:
    """Upper tail of chi-square with 1 df via the regularized incomplete gamma."""
    mpmath.mp.dps = 50
    return float(mpmath.gammainc(mpmath.mpf(0.5), mpmath.mpf(statistic) / 2, mpmath.inf,
                                 regularized=True))


def chi_square_quantile_99() -> float:
    """0.99 quantile of chi-square(1) by bisection on the high-precision CDF."""
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if chi_square_p_highprec(mid) > 0.01:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# --- streaming engine -------------------------------------------------------

REFERENCE_EOS = ""  # the end-of-sentence marker of the translator contract


class ReferenceVocabulary:
    """EOS at index 0, the other tokens sorted."""

    def __init__(self, tokens):
        self.tokens = [REFERENCE_EOS] + sorted(set(tokens) - {REFERENCE_EOS})
        self._index = {tok: i for i, tok in enumerate(self.tokens)}

    def index(self, token):
        return self._index[token]


def _reference_joint(translators, prefixes, committed, vocab, final, max_new):
    """Greedy late averaging that queries every member at every target step.

    Each member's vote is spread into a dense score vector of its own, and the
    joint token is the first maximum of the per-column means.
    """
    langs = list(translators)
    if len(langs) == 1:
        result = translators[langs[0]].decode(prefixes[langs[0]], list(committed), vocab, final)
        return list(committed) + list(result.tokens)
    target = list(committed)
    for _ in range(max_new):
        vectors = []
        for lang in langs:
            result = translators[lang].decode(prefixes[lang], list(target), vocab, final)
            index, score = result.step_scores[0]
            vector = [0.0] * len(vocab.tokens)
            vector[index] = float(score)
            vectors.append(vector)
        combined = [sum(column) / len(column) for column in zip(*vectors)]
        best = combined.index(max(combined))  # first maximum: EOS wins ties
        if best == 0:
            break
        target.append(vocab.tokens[best])
    return target


def _reference_common_prefix(seqs):
    prefix = []
    for column in zip(*seqs):
        if len(set(column)) != 1:
            break
        prefix.append(column[0])
    return prefix


def reference_run_simul(translators, sources, n):
    """LA-n streaming from its definition; events as ("read", lang, token),
    ("write", token) and ("flush",) tuples.

    Reads are ordered by the exact character fraction each token completes,
    then by the mapping order of ``sources``, then by token index. Every read
    decodes the joint hypothesis afresh and commits the common prefix of the
    whole ring of the last ``n`` hypotheses.
    """
    order = list(sources)
    tokens = set()
    for lang, translator in translators.items():
        tokens |= translator.output_tokens(sources[lang].tokens)
    vocab = ReferenceVocabulary(tokens)
    slots = []
    for lang, sent in sources.items():
        raw, words, offsets = reference_token_offsets(sent.raw)
        for i, (tok, offset) in enumerate(zip(words, offsets)):
            fraction = Fraction(offset + len(tok), len(raw))
            slots.append((fraction, order.index(lang), i, lang))
    slots.sort()
    max_new = 2 * sum(len(s.tokens) for s in sources.values()) + 8
    lengths = {lang: 0 for lang in sources}
    ring, committed, events, hypothesis = [], [], [], []
    for k, (_, _, i, lang) in enumerate(slots):
        lengths[lang] += 1
        events.append(("read", lang, sources[lang].tokens[i]))
        final = k == len(slots) - 1
        prefixes = {name: sources[name].tokens[:length] for name, length in lengths.items()}
        hypothesis = _reference_joint(translators, prefixes, committed, vocab, final, max_new)
        ring = (ring + [hypothesis])[-n:]
        if len(ring) == n:
            new = _reference_common_prefix(ring)[len(committed):]
            events.extend(("write", token) for token in new)
            committed = committed + new
    events.append(("flush",))
    events.extend(("write", token) for token in hypothesis[len(committed):])
    return committed + hypothesis[len(committed):], events


def reference_decode_full(translators, sources):
    """Offline joint greedy decoding of the complete sources."""
    tokens = set()
    for lang, translator in translators.items():
        tokens |= translator.output_tokens(sources[lang].tokens)
    max_new = 2 * sum(len(s.tokens) for s in sources.values()) + 8
    prefixes = {lang: s.tokens for lang, s in sources.items()}
    return _reference_joint(
        translators, prefixes, [], ReferenceVocabulary(tokens), True, max_new
    )
