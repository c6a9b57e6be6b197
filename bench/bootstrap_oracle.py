"""Reference paired bootstrap for checking ``multisimul score --compare``.

The per-segment statistics are rebuilt from the test suite's independent
13a tokenizer (``tests/oracles.py``) with plain ``Counter`` n-grams, and the
corpus scores follow the oracles' BLEU and chrF2 definitions. The resampling
draws its own indices, many more than the package does, so the check pins the
p-value's distribution without pinning the order of the package's draws.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np

BLEU_ORDER = 4
CHRF_ORDER = 6
RESAMPLES = 20_000
CHUNK = 1_000


def _ngrams(seq, n: int) -> Counter:
    """n-gram counts of a token tuple or a string (character n-grams)."""
    return Counter(seq[i : i + n] for i in range(len(seq) - n + 1))


def _matches(hyp: Counter, ref: Counter) -> int:
    return sum(min(c, ref[g]) for g, c in hyp.items())


def bleu_stats(systems: list[list[str]], refs: list[str], tokenize) -> list[np.ndarray]:
    """Per system and segment: correct[1..4], total[1..4], hyp and reference length."""
    rows: list[list[list[int]]] = [[] for _ in systems]
    for k, ref in enumerate(refs):
        r = tuple(tokenize(ref))
        ref_counts = [_ngrams(r, n) for n in range(1, BLEU_ORDER + 1)]
        for hyps, out in zip(systems, rows):
            h = tuple(tokenize(hyps[k]))
            hyp_counts = [_ngrams(h, n) for n in range(1, BLEU_ORDER + 1)]
            correct = [_matches(hc, rc) for hc, rc in zip(hyp_counts, ref_counts)]
            total = [max(len(h) - n + 1, 0) for n in range(1, BLEU_ORDER + 1)]
            out.append(correct + total + [len(h), len(r)])
    return [np.array(out, dtype=np.float64) for out in rows]


def chrf_stats(systems: list[list[str]], refs: list[str]) -> list[np.ndarray]:
    """Per system, segment and order 1..6: hyp n-grams, reference n-grams, matches."""
    rows: list[list[list[int]]] = [[] for _ in systems]
    for k, ref in enumerate(refs):
        r = re.sub(r"\s+", "", ref)
        ref_counts = [_ngrams(r, n) for n in range(1, CHRF_ORDER + 1)]
        for hyps, out in zip(systems, rows):
            h = re.sub(r"\s+", "", hyps[k])
            row = []
            for n, rc in enumerate(ref_counts, start=1):
                row += [max(len(h) - n + 1, 0), max(len(r) - n + 1, 0), _matches(_ngrams(h, n), rc)]
            out.append(row)
    return [np.array(out, dtype=np.float64) for out in rows]


def bleu_scores(sums: np.ndarray) -> np.ndarray:
    """Corpus BLEU of each row of summed statistics (exponential smoothing)."""
    correct, total = sums[:, :BLEU_ORDER], sums[:, BLEU_ORDER : 2 * BLEU_ORDER]
    sys_len, ref_len = sums[:, -2], sums[:, -1]
    smooth = 2.0 ** np.cumsum(correct == 0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(correct == 0, 100.0 / (smooth * total), 100.0 * correct / total)
        log_mean = np.log(precision).mean(axis=1)
        bp = np.where(sys_len >= ref_len, 1.0, np.exp(1.0 - ref_len / sys_len))
    return np.where((total == 0).any(axis=1), 0.0, bp * np.exp(log_mean))


def chrf_scores(sums: np.ndarray) -> np.ndarray:
    """Corpus chrF2 of each row of summed statistics (effective order)."""
    stats = sums.reshape(len(sums), CHRF_ORDER, 3)
    n_hyp, n_ref, match = stats[..., 0], stats[..., 1], stats[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = np.where(n_hyp > 0, match / n_hyp, 0.0)
        rec = np.where(n_ref > 0, match / n_ref, 0.0)
        denom = 4.0 * prec + rec
        f = np.where(denom > 0, 5.0 * prec * rec / denom, 0.0)
    used = (n_hyp > 0) | (n_ref > 0)
    orders = used.sum(axis=1)
    return np.where(orders > 0, 100.0 * (f * used).sum(axis=1) / np.maximum(orders, 1), 0.0)


def p_values(stats_a: dict[str, np.ndarray], stats_b: dict[str, np.ndarray], seed: int) -> dict[str, float]:
    """Share of resamples in which B scores at least A, ties counted one half."""
    scorers = {"bleu": bleu_scores, "chrf2": chrf_scores}
    n = len(next(iter(stats_a.values())))
    rng = np.random.default_rng(seed)
    wins = dict.fromkeys(stats_a, 0.0)
    offsets = (np.arange(CHUNK) * n)[:, None]
    for _ in range(RESAMPLES // CHUNK):
        idx = rng.integers(0, n, size=(CHUNK, n))
        counts = np.bincount((idx + offsets).ravel(), minlength=CHUNK * n).reshape(CHUNK, n)
        counts = counts.astype(np.float64)
        for metric, scorer in scorers.items():
            score_a = scorer(counts @ stats_a[metric])
            score_b = scorer(counts @ stats_b[metric])
            wins[metric] += float((score_b > score_a).sum() + 0.5 * (score_b == score_a).sum())
    return {metric: w / RESAMPLES for metric, w in wins.items()}


def tolerance(p: float, resamples: int) -> float:
    """Five standard deviations of the difference of two bootstrap estimates.

    The ``1/resamples`` terms keep the bound open when ``p`` is near 0 or 1,
    and cover the four decimals the CLI prints.
    """
    var = (p * (1.0 - p) + 1.0 / resamples) / resamples + p * (1.0 - p) / RESAMPLES
    return 5.0 * math.sqrt(var) + 1.0 / resamples
