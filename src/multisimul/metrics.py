"""Scoring: edit alignment, WER, BLEU, chrF2, latency, erasure, bootstrap, chi-square."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .corpus import TokenSequence, TranscriptPair, tokenize_13a
from .errors import ContractError, DegenerateTableError
from .simul import ReadEvent, SimulEventLog, WriteEvent

__all__ = [
    "EditOp",
    "EditScript",
    "WerBreakdown",
    "Contingency2x2",
    "ChiSquareResult",
    "LatencyReport",
    "ErasureReport",
    "BootstrapResult",
    "align_edit",
    "wer",
    "corpus_wer",
    "token_correctness",
    "chi_square_2x2",
    "bleu",
    "chrf2",
    "average_lagging",
    "normalized_erasure",
    "paired_bootstrap",
]

Tokens = Union[TokenSequence, Sequence[str]]

BLEU_ORDER = 4
CHRF_ORDER = 6
CHRF_BETA = 2

COPY = "copy"
SUBSTITUTE = "sub"
DELETE = "del"
INSERT = "ins"


def _tokens(seq: Tokens) -> list[str]:
    if isinstance(seq, TokenSequence):
        return list(seq.tokens)
    return list(seq)


class EditOp(NamedTuple):
    kind: str
    gold: str | None = None
    hyp: str | None = None


@dataclass(frozen=True)
class EditScript:
    """Minimal-cost alignment of a gold token sequence to a hypothesis."""

    ops: tuple[EditOp, ...]

    @property
    def cost(self) -> int:
        return sum(op.kind != COPY for op in self.ops)

    def gold_side(self) -> list[str]:
        return [op.gold for op in self.ops if op.kind in (COPY, SUBSTITUTE, DELETE)]

    def hyp_side(self) -> list[str]:
        return [op.hyp for op in self.ops if op.kind in (COPY, SUBSTITUTE, INSERT)]

    def counts(self) -> tuple[int, int, int]:
        """(substitutions, deletions, insertions)."""
        subs = sum(op.kind == SUBSTITUTE for op in self.ops)
        dels = sum(op.kind == DELETE for op in self.ops)
        inss = sum(op.kind == INSERT for op in self.ops)
        return subs, dels, inss


def align_edit(gold: Tokens, hyp: Tokens) -> EditScript:
    """Unit-cost Levenshtein alignment with deterministic tie-breaking.

    When costs tie the left-to-right walk prefers Copy over Substitute over
    Delete over Insert.

    The walk reads suffix distances dist(i, j) between g[i:] and h[j:]. They
    are prefix distances of the reversed pair, computed one reversed gold
    token at a time by Myers' bit-vector algorithm (J. ACM 1999) in Hyyrö's
    global edit-distance form (2001): bit r of a column's VP/VN is +1/-1 for
    the step from reversed-hyp prefix length r to r + 1.
    """
    g = _tokens(gold)
    h = _tokens(hyp)
    n, m = len(g), len(h)
    full = (1 << m) - 1
    peq: dict[str, int] = {}
    for r, token in enumerate(reversed(h)):
        peq[token] = peq.get(token, 0) | (1 << r)
    vp, vn = full, 0
    # column c holds the deltas of the reversed gold prefix of length c
    vps, vns = [vp], [vn]
    for token in reversed(g):
        eq = peq.get(token, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ~(xh | vp)
        mh = vp & xh
        ph = (ph << 1) | 1
        mh <<= 1
        vp = (mh | ~(xv | ph)) & full
        vn = ph & xv & full
        vps.append(vp)
        vns.append(vn)

    def dist(i: int, j: int) -> int:
        c, mask = n - i, (1 << (m - j)) - 1
        return c + (vps[c] & mask).bit_count() - (vns[c] & mask).bit_count()

    ops: list[EditOp] = []
    i = j = 0
    d = dist(0, 0)  # carried forward: the distance of the current cell
    while i < n or j < m:
        if i < n and j < m and g[i] == h[j]:
            # adjacent distances differ by at most 1, so a match is always
            # optimal: dist(i + 1, j + 1) == d needs no check
            ops.append(EditOp(COPY, g[i], h[j]))
            i += 1
            j += 1
            continue
        if i < n and j < m and d == 1 + dist(i + 1, j + 1):
            ops.append(EditOp(SUBSTITUTE, g[i], h[j]))
            i += 1
            j += 1
        elif i < n and d == 1 + dist(i + 1, j):
            ops.append(EditOp(DELETE, g[i]))
            i += 1
        else:
            ops.append(EditOp(INSERT, None, h[j]))
            j += 1
        d -= 1
    return EditScript(tuple(ops))


@dataclass(frozen=True)
class WerBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    gold_words: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float | None:
        """None when gold is empty (undefined rate)."""
        if self.gold_words == 0:
            return None
        return self.errors / self.gold_words


def wer(gold: Tokens, hyp: Tokens) -> WerBreakdown:
    script = align_edit(gold, hyp)
    subs, dels, inss = script.counts()
    return WerBreakdown(subs, dels, inss, len(_tokens(gold)))


def corpus_wer(pairs: Iterable[TranscriptPair | tuple[Tokens, Tokens]]) -> float:
    """Corpus WER: total errors over total gold words (gold-word-weighted mean)."""
    errors = 0
    gold_words = 0
    for pair in pairs:
        if isinstance(pair, TranscriptPair):
            g, h = pair.gold, pair.hyp
        else:
            g, h = pair
        breakdown = wer(g, h)
        errors += breakdown.errors
        gold_words += breakdown.gold_words
    if gold_words == 0:
        raise ContractError("corpus_wer needs at least one pair with non-empty gold")
    return errors / gold_words


def token_correctness(script: EditScript) -> list[bool]:
    """Per-gold-token correctness: True iff the token is aligned by Copy."""
    return [op.kind == COPY for op in script.ops if op.kind != INSERT]


@dataclass(frozen=True)
class Contingency2x2:
    """Counts indexed (src correct|incorrect) x (tgt correct|incorrect)."""

    cells: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        for row in self.cells:
            for v in row:
                if v < 0:
                    raise ContractError("contingency counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.cells)

    def row_sums(self) -> tuple[int, int]:
        return (sum(self.cells[0]), sum(self.cells[1]))

    def col_sums(self) -> tuple[int, int]:
        return (
            self.cells[0][0] + self.cells[1][0],
            self.cells[0][1] + self.cells[1][1],
        )

    def transpose(self) -> "Contingency2x2":
        c = self.cells
        return Contingency2x2(((c[0][0], c[1][0]), (c[0][1], c[1][1])))


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    p_value: float
    df: int = 1

    def reject_at(self, alpha: float) -> bool:
        return self.p_value < alpha


def chi_square_2x2(table: Contingency2x2, *, yates: bool = False) -> ChiSquareResult:
    """Pearson chi-square test of independence on a 2x2 table.

    The p-value is the exact chi-square(1) upper tail, erfc(sqrt(x/2)).
    Yates continuity correction is off by default.
    """
    rows = table.row_sums()
    cols = table.col_sums()
    total = table.total
    if min(rows) == 0 or min(cols) == 0:
        raise DegenerateTableError(
            f"degenerate table: row sums {rows}, column sums {cols}"
        )
    statistic = 0.0
    for r in range(2):
        for c in range(2):
            expected = rows[r] * cols[c] / total
            diff = abs(table.cells[r][c] - expected)
            if yates:
                diff = max(diff - 0.5, 0.0)
            statistic += diff * diff / expected
    p_value = math.erfc(math.sqrt(statistic / 2.0))
    return ChiSquareResult(statistic, p_value)


# Per-segment sufficient statistics, one int64 row per (segment, system):
#   BLEU  (2 * BLEU_ORDER + 2): correct[4], total[4], sys_len, closest_ref_len
#   chrF2 (3 * CHRF_ORDER): (hyp, ref, match) n-gram counts for each order
# They are counted a chunk of segments at a time, from the texts' units (13a
# tokens or whitespace-free characters) laid out segment-major with one text
# per tag: the systems first, then the reference sets.


def _segment_sums(values: np.ndarray, seg: np.ndarray, n_segs: int) -> np.ndarray:
    """Column sums of the rows of ``values`` per segment; ``seg`` is ascending."""
    bounds = np.searchsorted(seg, np.arange(n_segs + 1))
    csum = np.zeros((len(values) + 1, values.shape[1]), dtype=np.int64)
    np.cumsum(values, axis=0, out=csum[1:])
    return csum[bounds[1:]] - csum[bounds[:-1]]


def _segment_matches(
    units: np.ndarray,
    lengths: np.ndarray,
    n_tags: int,
    order: int,
    bits: int,
    clip: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Clipped n-gram matches of a chunk for n = 1..order, summed per segment.

    ``units`` holds the chunk's texts back to back, every unit in [1, 2**bits);
    text k has ``lengths[k]`` units and belongs to segment ``k // n_tags`` and
    tag ``k % n_tags``. The order-gram at each position, zero past the end of
    its text, is packed into int64 words of ``63 // bits`` units, and all
    positions are sorted once by (segment, words). The number of leading
    units that adjacent sorted keys share marks the groups of equal n-grams
    for every n at once. ``clip`` maps a (groups x tags) count matrix to the
    matches of each group. Returns an (order x segments x matches) array.
    """
    per_word = 63 // bits
    n_words = -(-order // per_word)
    size, n_segs = len(units), len(lengths) // n_tags
    text = np.repeat(np.arange(len(lengths)), lengths)
    # each text followed by enough zeros that a gram never reads the next text
    pad = n_words * per_word - 1
    pos = np.arange(size) + text * pad
    buf = np.zeros(size + len(lengths) * pad, dtype=np.int64)
    buf[pos] = units
    words = []
    for w in range(n_words):
        word = np.zeros(size, dtype=np.int64)
        for i in range(w * per_word, (w + 1) * per_word):
            word <<= bits
            word |= buf[pos + i]
        words.append(word)
    seg = text // n_tags
    rank = np.lexsort((*words[::-1], seg))
    seg, tag = seg[rank], (text % n_tags)[rank]
    # units from each position to the end of its text: its n-gram exists for n <= left
    left = (np.cumsum(lengths)[text] - np.arange(size))[rank]
    # shared[i]: leading units that sorted keys i - 1 and i have in common
    shared = np.zeros(size, dtype=np.int64)
    equal = seg[1:] == seg[:-1]
    for word in words:
        word = word[rank]
        diff = word[1:] ^ word[:-1]
        for k in range(per_word):
            shared[1:] += equal & (diff < (1 << (k * bits)))
        equal &= diff == 0
    # the groups of every order at once, order-major: in order n's run of
    # positions a group starts wherever fewer than n units are shared
    starts = (shared < np.arange(1, order + 1)[:, None]).ravel()
    heads = np.flatnonzero(starts)
    group = np.cumsum(starts) - 1
    counts = np.bincount(group * n_tags + np.tile(tag, order), minlength=len(heads) * n_tags)
    n_minus_1, head = np.divmod(heads, size)
    kept = left[head] > n_minus_1
    matches = clip(counts.reshape(-1, n_tags)[kept])
    sums = _segment_sums(matches, (n_minus_1 * n_segs + seg[head])[kept], order * n_segs)
    return sums.reshape(order, n_segs, -1)


def _bleu_rows(tokens: list[tuple[str, ...]], n_tags: int, n_sys: int) -> np.ndarray:
    """(segments x systems x BLEU row) of one chunk."""
    flat = list(chain.from_iterable(tokens))
    # dense token ids, one vocabulary per chunk; 0 is padding
    ids = {tok: i for i, tok in enumerate(dict.fromkeys(flat), start=1)}
    units = np.fromiter(map(ids.__getitem__, flat), dtype=np.int64, count=len(flat))
    lengths = np.array([len(t) for t in tokens], dtype=np.int64)
    correct = _segment_matches(
        units, lengths, n_tags, BLEU_ORDER, 31,
        # each hypothesis n-gram is clipped by its largest reference count
        lambda c: np.minimum(c[:, :n_sys], c[:, n_sys:].max(axis=1, keepdims=True)),
    )
    lengths = lengths.reshape(-1, n_tags)
    sys_len, ref_len = lengths[:, :n_sys, None], lengths[:, None, n_sys:]
    # closest reference length, the shorter one winning a tie: the smallest
    # (distance, length) pair, packed into one integer
    base = int(ref_len.max()) + 1
    closest = (np.abs(sys_len - ref_len) * base + ref_len).min(axis=2, keepdims=True) % base
    total = np.maximum(sys_len - np.arange(BLEU_ORDER), 0)
    return np.concatenate([correct.transpose(1, 2, 0), total, sys_len, closest], axis=2)


def _chrf_rows(chars: list[str], n_tags: int, n_sys: int) -> np.ndarray:
    """(segments x systems x chrF2 row) of one chunk, each against its best reference."""
    # code points + 1, so that 0 is padding
    units = np.frombuffer(
        "".join(chars).encode("utf-32-le", "surrogatepass"), dtype="<u4"
    ).astype(np.int64) + 1
    lengths = np.array([len(c) for c in chars], dtype=np.int64)
    n_segs, n_refs = len(chars) // n_tags, n_tags - n_sys
    pairs = n_sys * n_refs
    match = _segment_matches(
        units, lengths, n_tags, CHRF_ORDER, 21,
        # each hypothesis n-gram against each reference on its own
        lambda c: np.minimum(c[:, :n_sys, None], c[:, None, n_sys:]).reshape(len(c), pairs),
    )
    lengths = lengths.reshape(n_segs, n_tags)
    k = np.arange(CHRF_ORDER)
    hyp = np.maximum(lengths[:, :n_sys, None, None] - k, 0)
    ref = np.maximum(lengths[:, None, n_sys:, None] - k, 0)
    match = match.reshape(CHRF_ORDER, n_segs, n_sys, n_refs).transpose(1, 2, 3, 0)
    # (segments x systems x references x 3 * CHRF_ORDER)
    stats = np.stack(np.broadcast_arrays(hyp, ref, match), axis=-1).reshape(
        n_segs, n_sys, n_refs, 3 * CHRF_ORDER
    )
    if n_refs == 1:
        return stats[:, :, 0]
    # the best reference by exact sentence chrF; max keeps the first of a tie
    return np.array(
        [[max(cands, key=_chrf_exact) for cands in seg] for seg in stats.tolist()],
        dtype=np.int64,
    )


def _bleu_from_stats(stats: Sequence[int]) -> float:
    """Corpus BLEU from a summed BLEU row, exponential smoothing, fixed order 4."""
    correct = stats[:BLEU_ORDER]
    total = stats[BLEU_ORDER : 2 * BLEU_ORDER]
    sys_len, ref_len = stats[2 * BLEU_ORDER], stats[2 * BLEU_ORDER + 1]
    log_precisions = 0.0
    smooth = 1.0
    for n in range(1, BLEU_ORDER + 1):
        if total[n - 1] == 0:
            return 0.0
        if correct[n - 1] == 0:
            smooth *= 2.0
            precision = 100.0 / (smooth * total[n - 1])
        else:
            precision = 100.0 * correct[n - 1] / total[n - 1]
        log_precisions += math.log(precision)
    brevity_penalty = 1.0
    if sys_len < ref_len:
        brevity_penalty = math.exp(1 - ref_len / sys_len) if sys_len > 0 else 0.0
    return brevity_penalty * math.exp(log_precisions / BLEU_ORDER)


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


def _chrf_from_stats(stats: Sequence[int]) -> float:
    """chrF with beta=2 from summed per-order statistics, effective-order handling."""
    beta_sq = CHRF_BETA * CHRF_BETA
    score = 0.0
    effective_order = 0
    for i in range(CHRF_ORDER):
        n_hyp, n_ref, n_match = stats[3 * i : 3 * i + 3]
        if n_hyp == 0 and n_ref == 0:
            continue
        precision = n_match / n_hyp if n_hyp > 0 else 0.0
        recall = n_match / n_ref if n_ref > 0 else 0.0
        denom = beta_sq * precision + recall
        if denom > 0:
            score += (1 + beta_sq) * precision * recall / denom
        effective_order += 1
    if effective_order == 0:
        return 0.0
    return 100.0 * score / effective_order


class _StatsCore(NamedTuple):
    units: Callable[[str], Sequence]  # the units one text is counted in
    rows: Callable[[list, int, int], np.ndarray]  # (chunk units, tags, systems)
    width: int
    score: Callable[[Sequence[int]], float]  # corpus score from a summed row


def _bleu_tokens(text: str) -> tuple[str, ...]:
    # tokenize_13a is looked up at each call, so that a wrapper bound to the
    # module's name (as the benchmark's tracer binds one) sees every call
    return tokenize_13a(text)


def _chrf_chars(text: str) -> str:
    return "".join(text.split())


_METRICS = {
    "bleu": _StatsCore(_bleu_tokens, _bleu_rows, 2 * BLEU_ORDER + 2, _bleu_from_stats),
    "chrf2": _StatsCore(_chrf_chars, _chrf_rows, 3 * CHRF_ORDER, _chrf_from_stats),
}


def _check_corpus_args(hyps: Sequence[str], refs: Sequence[Sequence[str]]) -> None:
    if not refs:
        raise ContractError("at least one reference set is required")
    for i, ref_set in enumerate(refs):
        if len(ref_set) != len(hyps):
            raise ContractError(
                f"reference set {i} has {len(ref_set)} segments, expected {len(hyps)}"
            )


# units (13a tokens or characters, of every system and reference set) per
# statistics chunk: a chunk closes at the first segment that reaches it, so the
# counting kernel's working set does not grow with the corpus. Segments are
# independent, so the chunking changes no statistic
_STATS_CHUNK_UNITS = 1 << 12


def _stats_matrices(
    systems: Sequence[Sequence[str]], refs: Sequence[Sequence[str]], metric: str
) -> list[np.ndarray]:
    """One (segments x stats) int64 matrix per system.

    Every system and reference set is counted together, one chunk of
    segments at a time.
    """
    core = _METRICS[metric]
    sides = [*systems, *refs]
    n = len(systems[0])
    out = np.empty((len(systems), n, core.width), dtype=np.int64)
    lo = size = 0
    units = []
    for i in range(n):
        for side in sides:
            units.append(core.units(side[i]))
            size += len(units[-1])
        if size >= _STATS_CHUNK_UNITS or i == n - 1:
            out[:, lo : i + 1] = core.rows(units, len(sides), len(systems)).swapaxes(0, 1)
            lo, size, units = i + 1, 0, []
    return list(out)


def _corpus_score(hyps: Sequence[str], refs: Sequence[Sequence[str]], metric: str) -> float:
    _check_corpus_args(hyps, refs)
    (stats,) = _stats_matrices([hyps], refs, metric)
    return _METRICS[metric].score(stats.sum(axis=0).tolist())


def bleu(hyps: Sequence[str], refs: Sequence[Sequence[str]]) -> float:
    """Corpus-level 4-gram BLEU, 13a tokenization, exponential smoothing.

    ``refs`` is a list of reference sets, each parallel to ``hyps``. Brevity
    penalty uses the closest reference length per segment.
    """
    return _corpus_score(hyps, refs, "bleu")


def chrf2(hyps: Sequence[str], refs: Sequence[Sequence[str]]) -> float:
    """Corpus chrF2: character n-grams to order 6, no word n-grams, beta=2.

    With several references each segment counts against its best one by
    exact sentence chrF; the first reference wins a tie.
    """
    return _corpus_score(hyps, refs, "chrf2")


@dataclass(frozen=True)
class LatencyReport:
    al: float
    g: tuple[int, ...]
    src_len: int
    tgt_len: int
    tau: int


def average_lagging(log: SimulEventLog, primary_language: str) -> LatencyReport:
    """Token-level Average Lagging with the tau cutoff.

    g(t) counts Read events of the primary language before the t-th Write;
    reads of other languages are ignored.
    """
    g: list[int] = []
    reads = 0
    for event in log.events:
        if isinstance(event, ReadEvent):
            if event.language == primary_language:
                reads += 1
        elif isinstance(event, WriteEvent):
            g.append(reads)
    src_len = reads
    tgt_len = len(g)
    if src_len == 0:
        raise ContractError(f"no Read events of primary language {primary_language!r}")
    if tgt_len == 0:
        raise ContractError("log contains no Write events")
    tau = tgt_len
    for t, g_t in enumerate(g, start=1):
        if g_t == src_len:
            tau = t
            break
    rate = tgt_len / src_len
    al = sum(g[t - 1] - (t - 1) / rate for t in range(1, tau + 1)) / tau
    return LatencyReport(al, tuple(g), src_len, tgt_len, tau)


@dataclass(frozen=True)
class ErasureReport:
    erased_tokens: int
    final_length: int

    @property
    def ne(self) -> float:
        return self.erased_tokens / self.final_length


def normalized_erasure(log: SimulEventLog) -> ErasureReport:
    """Erased tokens over the final output length: 0, as the log is append-only."""
    length = sum(isinstance(event, WriteEvent) for event in log.events)
    if length == 0:
        raise ContractError("normalized erasure is undefined for empty final output")
    return ErasureReport(0, length)


@dataclass(frozen=True)
class BootstrapResult:
    p_value: float
    wins_a: int
    wins_b: int
    ties: int
    resamples: int
    seed: int
    score_a: float
    score_b: float


# bootstrap draws per block (resamples x segments): the index and count
# matrices of one block take 2 MiB each, whatever the corpus size
_BOOTSTRAP_BLOCK_DRAWS = 1 << 18


def paired_bootstrap(
    sys_a: Sequence[str],
    sys_b: Sequence[str],
    refs: Sequence[Sequence[str]],
    *,
    metric: str = "bleu",
    resamples: int = 1000,
    seed: int = 0,
) -> BootstrapResult:
    """Paired bootstrap resampling over segments.

    The p-value is the fraction of resamples where system B scores at least
    as high as system A, with exact ties counted as one half so that two
    statistically equivalent systems land near 0.5. ``score_a``/``score_b``
    are the full-corpus scores from the same statistics.

    Resample ``r`` draws its ``n`` segment indices as row ``r`` of
    ``default_rng(seed).integers(0, n, size=(resamples, n))``; draws are made
    in blocks of rows, which gives the same stream.
    """
    if metric not in _METRICS:
        raise ContractError(f"unknown metric {metric!r}; choose from {sorted(_METRICS)}")
    if len(sys_a) != len(sys_b):
        raise ContractError("system outputs must have equal segment counts")
    _check_corpus_args(sys_a, refs)
    if resamples < 100:
        raise ContractError("resamples must be at least 100")
    n = len(sys_a)
    if n == 0:
        raise ContractError("paired bootstrap needs at least one segment")

    stats_a, stats_b = _stats_matrices([sys_a, sys_b], refs, metric)
    score = _METRICS[metric].score
    rng = np.random.default_rng(seed)
    block = max(1, _BOOTSTRAP_BLOCK_DRAWS // n)
    wins_a = wins_b = ties = 0
    for done in range(0, resamples, block):
        rows = min(block, resamples - done)
        idx = rng.integers(0, n, size=(rows, n))
        idx += np.arange(0, rows * n, n)[:, None]
        # counts[r, i]: how often resample r drew segment i
        counts = np.bincount(idx.ravel(), minlength=rows * n).reshape(rows, n)
        for sums_a, sums_b in zip((counts @ stats_a).tolist(), (counts @ stats_b).tolist()):
            score_a = score(sums_a)
            score_b = score(sums_b)
            if score_a > score_b:
                wins_a += 1
            elif score_b > score_a:
                wins_b += 1
            else:
                ties += 1
    p_value = (wins_b + 0.5 * ties) / resamples
    return BootstrapResult(
        p_value, wins_a, wins_b, ties, resamples, seed,
        score(stats_a.sum(axis=0).tolist()), score(stats_b.sum(axis=0).tolist()),
    )
