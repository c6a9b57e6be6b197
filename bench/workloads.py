"""Seeded input generators for the two benchmark workloads.

The generators are the benchmark's own: they use numpy's PCG64 and never
import ``multisimul``, so the package only ever sees the files written here.
Each ``make_*`` function writes a workload's (or a part's) inputs into an
empty directory and returns a ``Workload`` that says which CLI commands to
run on them, which files the package's loaders parse at set-up, which files
the commands write, and how many items one job processes. ``analysis`` joins
two parts, ``score`` and ``noise-independence``, in one directory and job.

Input *shape* (sentence counts and lengths) is fixed per workload and size;
the seed only changes content, so timings of different seeds are comparable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# size -> shape parameters; "tiny" is for the self-test only
SWEEP_SIZES = {"full": 8, "tiny": 3}  # sentences
SCORE_SIZES = {"full": (2000, 1000), "tiny": (60, 100)}  # (segments, resamples)
NOISE_SIZES = {"full": 2000, "tiny": 40}  # gold/ASR pairs

SWEEP_LEXICON_WORDS = 500
SWEEP_MIN_LEN, SWEEP_MAX_LEN = 5, 45
NOISE_TOKENS = 25


@dataclass
class Workload:
    """One generated workload: what to run on its files and what that writes.

    ``commands`` are argv lists for ``multisimul.cli.main``, with paths
    relative to the workload directory. ``loads`` lists (loader, paths) pairs
    parsed at set-up. ``outputs`` are the files the commands write.
    """

    name: str
    item: str
    items: int
    commands: list[list[str]]
    loads: list[tuple[str, list[str]]]
    outputs: list[str]
    shape: dict = field(default_factory=dict)


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _pseudo_words(rng: np.random.Generator, n: int, syllables: list[str]) -> list[str]:
    """``n`` distinct words of 1 to 4 syllables, so character lengths vary."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        k = int(rng.integers(1, 5))
        word = "".join(syllables[int(i)] for i in rng.integers(0, len(syllables), size=k))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_probs(n: int) -> np.ndarray:
    weights = 1.0 / (np.arange(n) + 2.7)
    return weights / weights.sum()


CS_SYLLABLES = ["ka", "po", "ne", "li", "tr", "zd", "vo", "mi", "chy", "sk", "ra", "bu", "do", "pre", "st", "ve"]
EN_SYLLABLES = ["th", "an", "er", "in", "ou", "wa", "sh", "ly", "ow", "ing", "br", "ea", "pl", "ch", "ed", "ro"]
DE_SYLLABLES = ["ei", "sch", "en", "ung", "ge", "ich", "au", "ber", "ta", "zu", "st", "ie", "ha", "ver", "lo", "mu"]
NOISE_SYLLABLES = ["se", "ma", "tu", "or", "ni", "que", "al", "ba", "ri", "el", "co", "di", "na", "pu", "ho", "ve"]
TGT_SYLLABLES = ["kai", "lu", "mo", "ren", "si", "ta", "we", "ob", "ig", "nu", "pa", "ze", "ul", "fa", "dri", "yo"]


def _noise_model_lines(words: list[str], rng: np.random.Generator) -> list[str]:
    """A trained-looking lexical noise model in the package's TSV format.

    Every lexicon word has a sound-alike non-word (copied through untranslated)
    and a real-word confusion (translated wrongly). Probabilities are binary
    fractions so each distribution sums to exactly 1.
    """
    lines = [
        "lexical-noise-model\t1",
        "p_insert\t0.02",
        "p_delete\t0.04",
        "p_substitute\t0.1",
        "scale_c\t1.0",
    ]
    for word in words:
        other = words[int(rng.integers(0, len(words)))]
        if other == word:
            other = words[(words.index(word) + 1) % len(words)]
        lines.append(f"{word}\t{word}h\t0.75")
        lines.append(f"{word}\t{other}\t0.25")
    fillers = [("uh", 0.5), ("um", 0.25), (words[0], 0.25)]
    lines.extend(f"\t{w}\t{p}" for w, p in fillers)
    return lines


def make_sweep(directory: Path, seed: int, size: str = "full") -> Workload:
    """en,de -> cs sweep: the paper's noise x latency grid on one document.

    Sentence lengths are spread evenly over 5..45 tokens; multi-source joint
    decoding costs about O(L^3), so the long sentences dominate the job. The
    sweep's own noise seeds are fixed, as in a real experiment config, so the
    benchmark seed varies the corpus, lexicons and noise tables only.
    """
    rng = np.random.default_rng([seed, 1])
    n_sent = SWEEP_SIZES[size]
    cs = _pseudo_words(rng, SWEEP_LEXICON_WORDS, CS_SYLLABLES)
    en = _pseudo_words(rng, SWEEP_LEXICON_WORDS, EN_SYLLABLES)
    de = _pseudo_words(rng, SWEEP_LEXICON_WORDS, DE_SYLLABLES)
    probs = _zipf_probs(SWEEP_LEXICON_WORDS)
    lengths = np.linspace(SWEEP_MIN_LEN, SWEEP_MAX_LEN, n_sent).round().astype(int)
    en_lines, de_lines, ref_lines = [], [], []
    for length in lengths:
        idx = rng.choice(SWEEP_LEXICON_WORDS, size=int(length), p=probs)
        # names and numbers: out of both lexicons, copied through by the mock
        names = {int(i): f"N{int(rng.integers(100, 999))}" for i in np.flatnonzero(rng.random(length) < 0.05)}
        ref = [names.get(i, cs[k]) for i, k in enumerate(idx)]
        src_en = [names.get(i, en[k]) for i, k in enumerate(idx)]
        src_de = [names.get(i, de[k]) for i, k in enumerate(idx)]
        # German-side local reordering: swap some adjacent pairs
        for i in range(0, length - 1, 2):
            if rng.random() < 0.2:
                src_de[i], src_de[i + 1] = src_de[i + 1], src_de[i]
        en_lines.append(" ".join(src_en))
        de_lines.append(" ".join(src_de))
        ref_lines.append(" ".join(ref))
    _write_lines(directory / "en.txt", en_lines)
    _write_lines(directory / "de.txt", de_lines)
    _write_lines(directory / "ref.txt", ref_lines)
    _write_lines(directory / "lex_en.tsv", [f"{s}\t{t}" for s, t in zip(en, cs)])
    _write_lines(directory / "lex_de.tsv", [f"{s}\t{t}" for s, t in zip(de, cs)])
    _write_lines(directory / "model_en.tsv", _noise_model_lines(en, rng))
    _write_lines(directory / "model_de.tsv", _noise_model_lines(de, rng))
    _write_lines(
        directory / "sweep.cfg",
        [
            "version=1",
            "languages=en,de",
            "primary=en",
            "source.en=en.txt",
            "source.de=de.txt",
            "lexicon.en=lex_en.tsv",
            "lexicon.de=lex_de.tsv",
            "noise_model.en=model_en.tsv",
            "noise_model.de=model_de.tsv",
            "reference=ref.txt",
            "wer_grid=0.1:0.1,0.2:0.2,0.3:0.3",
            "la_grid=2,5,10,15",
            "seeds=1,2",
        ],
    )
    rows = 3 * 2 * 4 * 3  # cells x seeds x LA sizes x systems
    return Workload(
        name="sweep",
        item="sentence-run",
        items=rows * n_sent,
        commands=[["sweep", "--config", "sweep.cfg", "--out-dir", "out"]],
        loads=[
            ("parallel", ["en.txt", "de.txt"]),
            ("lines", ["ref.txt"]),
            ("lexicon", ["lex_en.tsv", "lex_de.tsv"]),
            ("model", ["model_en.tsv", "model_de.tsv"]),
        ],
        outputs=["out/results.tsv", "out/summary.tsv"]
        + [f"out/tradeoff_en{w}_de{w}.tsv" for w in ("0.10", "0.20", "0.30")],
        shape={
            "sentences": n_sent,
            "tokens": f"{SWEEP_MIN_LEN}..{SWEEP_MAX_LEN} evenly spread",
            "lexicon_words": SWEEP_LEXICON_WORDS,
            "rows": rows,
        },
    )


def _fixture_lists(repo: Path) -> dict[str, list[str]]:
    """FIXTURE_* sentence lists of the test suite, read without importing it."""
    tree = ast.parse((repo / "tests" / "conftest.py").read_text(encoding="utf-8"))
    found: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id.startswith("FIXTURE_"):
                found[target.id] = ast.literal_eval(node.value)
    return found


def _perturb(rng: np.random.Generator, words: list[str], rate: float) -> list[str]:
    """Drop, swap or respell words at ``rate``, like a second MT system."""
    out = list(words)
    i = 0
    while i < len(out):
        r = rng.random()
        if r < rate / 3 and len(out) > 1:
            del out[i]
            continue
        if r < 2 * rate / 3 and i + 1 < len(out):
            out[i], out[i + 1] = out[i + 1], out[i]
        elif r < rate:
            out[i] = out[i].lower() if out[i][0].isupper() else out[i] + "s"
        i += 1
    return out


def make_score(directory: Path, seed: int, repo: Path, size: str = "full") -> Workload:
    """Two perturbed systems against one reference, with a paired bootstrap.

    Both systems come from the same process (the alternative reference for
    15% of segments, then 8% word perturbations), so neither is better by
    construction and the bootstrap p-value lies inside (0, 1) and moves with
    the seed, which lets the benchmark check it against a reference bootstrap.
    """
    rng = np.random.default_rng([seed, 2])
    n_seg, resamples = SCORE_SIZES[size]
    fixtures = _fixture_lists(repo)
    hyps, refs = fixtures["FIXTURE_HYPS"], fixtures["FIXTURE_REFS"]
    refs_b = fixtures["FIXTURE_REFS_B"]
    ref_lines, sys_a, sys_b = [], [], []
    for _ in range(n_seg):
        picks = rng.integers(0, len(hyps), size=int(rng.integers(1, 4)))
        ref_lines.append(" ".join(refs[k] for k in picks))
        base = " ".join(hyps[k] for k in picks).split()
        alt = " ".join(refs_b[k] for k in picks).split()
        for out in (sys_a, sys_b):
            out.append(" ".join(_perturb(rng, alt if rng.random() < 0.15 else base, 0.08)))
    _write_lines(directory / "ref.txt", ref_lines)
    _write_lines(directory / "sys_a.txt", sys_a)
    _write_lines(directory / "sys_b.txt", sys_b)
    bootstrap_seed = int(rng.integers(0, 1_000_000))
    return Workload(
        name="score",
        item="token",
        items=sum(len(line.split()) for line in sys_a + sys_b),
        commands=[
            [
                "score", "--hyps", "sys_a.txt", "--refs", "ref.txt",
                "--compare", "sys_b.txt",
                "--resamples", str(resamples), "--seed", str(bootstrap_seed),
            ]
        ],
        loads=[("lines", ["sys_a.txt", "sys_b.txt", "ref.txt"])],
        outputs=[],
        shape={
            "segments": n_seg,
            "fixture_sentences_per_segment": "1..3",
            "systems": "2, equal in expectation",
            "resamples": resamples,
        },
    )


def _corrupt(rng: np.random.Generator, gold: list[str], vocab: list[str], p_err: np.ndarray) -> tuple[list[str], list[bool]]:
    """Hand-rolled ASR errors: per-token error probability ``p_err``.

    An erroneous token is deleted (1/4) or replaced by a sound-alike (3/4);
    a filler or vocabulary word is inserted after 3% of positions. Returns
    the hypothesis and which gold tokens were hit.
    """
    hyp: list[str] = []
    hit = rng.random(len(gold)) < p_err
    for tok, bad in zip(gold, hit):
        if bad:
            if rng.random() >= 0.25:
                hyp.append(tok + "e" if rng.random() < 0.5 else vocab[int(rng.integers(0, len(vocab)))])
        else:
            hyp.append(tok)
        if rng.random() < 0.03:
            hyp.append("uh" if rng.random() < 0.5 else vocab[int(rng.integers(0, len(vocab)))])
    if not hyp:
        hyp = [gold[0]]
    return hyp, list(hit)


def make_noise_independence(directory: Path, seed: int, size: str = "full") -> Workload:
    """noise-train, noise-apply and independence on two aligned ASR streams.

    Target-side errors are likelier where the aligned source token is wrong,
    so errors are correlated across the streams and independence is rejected.
    """
    rng = np.random.default_rng([seed, 3])
    n_pairs = NOISE_SIZES[size]
    src_vocab = _pseudo_words(rng, 1500, NOISE_SYLLABLES)
    tgt_vocab = _pseudo_words(rng, 1500, TGT_SYLLABLES)
    probs = _zipf_probs(len(src_vocab))
    translate = dict(zip(src_vocab, tgt_vocab))
    src_gold, src_asr, tgt_gold, tgt_asr, align = [], [], [], [], []
    gold_tokens = 0
    for _ in range(n_pairs):
        length = int(rng.integers(NOISE_TOKENS - 5, NOISE_TOKENS + 6))
        idx = rng.choice(len(src_vocab), size=length, p=probs)
        gold = [src_vocab[k] for k in idx]
        gold.insert(int(rng.integers(1, length)), ",")
        gold.append(".")
        hyp, src_hit = _corrupt(rng, gold, src_vocab, np.full(len(gold), 0.12))
        # target: translate word by word, drop some words, swap some pairs
        tgt: list[str] = []
        links: list[tuple[int, int]] = []
        for i, tok in enumerate(gold):
            if tok in (",", ".") or rng.random() < 0.9:
                links.append((i, len(tgt)))
                tgt.append(translate.get(tok, tok))
        for j in range(0, len(tgt) - 2, 3):
            if rng.random() < 0.2:
                tgt[j], tgt[j + 1] = tgt[j + 1], tgt[j]
                links = [(i, j + 1 if t == j else j if t == j + 1 else t) for i, t in links]
        linked_src = {t: i for i, t in links}
        p_tgt = np.array([0.3 if t in linked_src and src_hit[linked_src[t]] else 0.08 for t in range(len(tgt))])
        thyp, _ = _corrupt(rng, tgt, tgt_vocab, p_tgt)
        src_gold.append(" ".join(gold))
        src_asr.append(" ".join(hyp))
        tgt_gold.append(" ".join(tgt))
        tgt_asr.append(" ".join(thyp))
        align.append(" ".join(f"{i}-{j}" for i, j in sorted(links)))
        gold_tokens += 3 * len(gold) + len(tgt)  # train, apply, independence src + tgt
    for name, lines in (
        ("src_gold.txt", src_gold), ("src_asr.txt", src_asr),
        ("tgt_gold.txt", tgt_gold), ("tgt_asr.txt", tgt_asr), ("align.txt", align),
    ):
        _write_lines(directory / name, lines)
    apply_seed = int(rng.integers(0, 1_000_000))
    return Workload(
        name="noise-independence",
        item="token",
        items=gold_tokens,
        commands=[
            ["noise-train", "--gold", "src_gold.txt", "--asr", "src_asr.txt", "--out", "model.tsv"],
            [
                "noise-apply", "--model", "model.tsv", "--target-wer", "0.2",
                "--seed", str(apply_seed), "--in", "src_gold.txt", "--out", "noised.txt",
            ],
            [
                "independence", "--src-gold", "src_gold.txt", "--src-asr", "src_asr.txt",
                "--tgt-gold", "tgt_gold.txt", "--tgt-asr", "tgt_asr.txt", "--align", "align.txt",
            ],
        ],
        loads=[
            ("pairs", ["src_gold.txt", "src_asr.txt"]),
            ("pairs", ["tgt_gold.txt", "tgt_asr.txt"]),
            ("alignment", ["align.txt"]),
        ],
        outputs=["model.tsv", "noised.txt"],
        shape={"pairs": n_pairs, "tokens": f"{NOISE_TOKENS - 5}..{NOISE_TOKENS + 5} plus 2 punctuation", "target_wer": 0.2},
    )


def make_analysis(directory: Path, seed: int, repo: Path, size: str = "full") -> Workload:
    """The engine-idle tools in one job: ``score --compare``, then
    ``noise-train``, ``noise-apply`` and ``independence``.

    The two parts keep their own random streams and file names, so each part's
    inputs are the same as when it runs alone. An item is a token: a
    hypothesis token of either system for ``score``, a gold token processed
    by each noise command for the rest.
    """
    score = make_score(directory, seed, repo, size)
    noise = make_noise_independence(directory, seed, size)
    return Workload(
        name="analysis",
        item="token",
        items=score.items + noise.items,
        commands=score.commands + noise.commands,
        loads=score.loads + noise.loads,
        outputs=score.outputs + noise.outputs,
        shape={**score.shape, **noise.shape},
    )


def make(name: str, directory: Path, seed: int, repo: Path, size: str = "full") -> Workload:
    if name == "sweep":
        return make_sweep(directory, seed, size)
    if name == "analysis":
        return make_analysis(directory, seed, repo, size)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep", "analysis")
