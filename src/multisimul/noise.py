"""WER-calibrated lexical noise: training, closed-form rescaling, seeded application."""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import TokenSequence, TranscriptPair, _read_lines
from .errors import ContractError, ModelFormatError, UnattainableWerError
from .metrics import DELETE, INSERT, SUBSTITUTE, align_edit

__all__ = [
    "LexicalNoiseModel",
    "train_noise_model",
    "expected_wer",
    "rescale_to_wer",
    "apply_noise",
    "apply_noise_corpus",
    "save_model",
    "load_model",
]

_FORMAT_VERSION = "1"
_HEADER_FIELDS = {"p_insert", "p_delete", "p_substitute", "scale_c"}

Distribution = tuple[tuple[str, float], ...]


def _as_distribution(counts: Mapping[str, int]) -> Distribution:
    total = sum(counts.values())
    return tuple((word, counts[word] / total) for word in sorted(counts))


def _check_distribution(dist: Distribution, what: str) -> None:
    # the sampler bisects running sums of the rows, which must never decrease
    for word, p in dist:
        if not 0.0 <= p <= 1.0:
            raise ContractError(f"{what} row {word!r} has probability {p} outside [0, 1]")
    if dist and abs(sum(p for _, p in dist) - 1.0) > 1e-9:
        raise ContractError(f"{what} distribution does not sum to 1")


@dataclass(frozen=True)
class LexicalNoiseModel:
    """Unigram insertion/deletion/substitution noise with word-level tables.

    Probabilities are the effective (possibly rescaled) values; ``scale_c``
    records the accumulated rescaling constant, 1.0 for a freshly trained model.
    """

    p_insert: float
    p_delete: float
    p_substitute: float
    substitution_table: Mapping[str, Distribution]
    insertion_table: Distribution
    scale_c: float = 1.0

    def __post_init__(self) -> None:
        # p_insert=1 would mean an infinite insertion run; delete/substitute
        # may reach exactly 1 (e.g. "drop every token").
        if not 0.0 <= self.p_insert < 1.0:
            raise ContractError(f"p_insert={self.p_insert} outside [0, 1)")
        for name, p in (
            ("p_delete", self.p_delete),
            ("p_substitute", self.p_substitute),
        ):
            if not 0.0 <= p <= 1.0:
                raise ContractError(f"{name}={p} outside [0, 1]")
        if not 0.0 <= self.scale_c < math.inf:
            raise ContractError(f"scale_c={self.scale_c} outside [0, inf)")
        for word, dist in self.substitution_table.items():
            _check_distribution(dist, f"substitution[{word}]")
        _check_distribution(self.insertion_table, "insertion")
        # expected_wer counts insertions, so there must be a word to insert
        if self.p_insert > 0.0 and not self.insertion_table:
            raise ContractError(f"p_insert={self.p_insert} needs at least one insertion row")


def train_noise_model(pairs: Iterable[TranscriptPair]) -> LexicalNoiseModel:
    """Estimate the noise model from gold/ASR transcript pairs.

    Rates come from Levenshtein edit scripts: p_delete = deletions over gold
    tokens, p_substitute = substitutions over non-deleted gold tokens, and
    p_insert solves insertions/gold = p/(1-p) so the expected insertion rate
    matches the observed one.
    """
    gold_tokens = 0
    deletions = 0
    substitutions = 0
    insertions = 0
    sub_counts: dict[str, dict[str, int]] = {}
    ins_counts: dict[str, int] = {}
    for pair in pairs:
        gold_tokens += len(pair.gold.tokens)
        for op in align_edit(pair.gold, pair.hyp):
            if op.kind == DELETE:
                deletions += 1
            elif op.kind == SUBSTITUTE:
                substitutions += 1
                sub_counts.setdefault(op.gold, {}).setdefault(op.hyp, 0)
                sub_counts[op.gold][op.hyp] += 1
            elif op.kind == INSERT:
                insertions += 1
                ins_counts.setdefault(op.hyp, 0)
                ins_counts[op.hyp] += 1
    if gold_tokens == 0:
        raise ContractError("training needs at least one pair with non-empty gold")

    p_delete = deletions / gold_tokens
    if gold_tokens == deletions:
        warnings.warn("every gold token was deleted; p_substitute set to 0")
        p_substitute = 0.0
    else:
        p_substitute = substitutions / (gold_tokens - deletions)
    p_insert = insertions / (gold_tokens + insertions)

    substitution_table = {
        word: _as_distribution(counts) for word, counts in sorted(sub_counts.items())
    }
    return LexicalNoiseModel(
        p_insert=p_insert,
        p_delete=p_delete,
        p_substitute=p_substitute,
        substitution_table=substitution_table,
        insertion_table=_as_distribution(ins_counts),
    )


def expected_wer(model: LexicalNoiseModel) -> float:
    """p_I/(1-p_I) + p_D + (1-p_D) p_S for the model's effective probabilities."""
    return (
        model.p_insert / (1.0 - model.p_insert)
        + model.p_delete
        + (1.0 - model.p_delete) * model.p_substitute
    )


def _linearized_wer(model: LexicalNoiseModel, c: float) -> float:
    """The quadratic approximation c*pI + c*pD + (1 - c*pD) c*pS."""
    return (
        c * model.p_insert
        + c * model.p_delete
        + (1.0 - c * model.p_delete) * c * model.p_substitute
    )


def rescale_to_wer(model: LexicalNoiseModel, target: float) -> LexicalNoiseModel:
    """Rescale all probabilities by the constant solving the quadratic WER equation.

    The equation pD*pS*c^2 - (pI+pD+pS)*c + WER = 0 is solved for its smallest
    non-negative root; the degenerate pD*pS = 0 case is linear.
    """
    desired = float(target)
    if desired < 0:
        raise ContractError("desired WER must be non-negative")
    p_sum = model.p_insert + model.p_delete + model.p_substitute
    if p_sum <= 0 < desired:
        raise UnattainableWerError(
            f"target WER {desired} is unattainable: the model has no error mass to rescale"
        )

    quad = model.p_delete * model.p_substitute
    if quad == 0.0:
        c = desired / p_sum if desired else 0.0
    else:
        discriminant = p_sum * p_sum - 4.0 * quad * desired
        if discriminant < 0:
            raise UnattainableWerError(
                f"target WER {desired} exceeds the quadratic maximum "
                f"{p_sum * p_sum / (4.0 * quad):.6f}"
            )
        # smallest non-negative root of the upward parabola
        c = (p_sum - math.sqrt(discriminant)) / (2.0 * quad)

    scaled = {
        "p_insert": c * model.p_insert,
        "p_delete": c * model.p_delete,
        "p_substitute": c * model.p_substitute,
    }
    for name, value in scaled.items():
        if value >= 1.0:
            raise UnattainableWerError(
                f"target WER {desired} needs {name}={value:.4f} >= 1; "
                f"maximum attainable is about {_max_attainable(model):.4f}"
            )
    return replace(model, scale_c=model.scale_c * c, **scaled)


def _max_attainable(model: LexicalNoiseModel) -> float:
    limits = [
        (1.0 - 1e-9) / p
        for p in (model.p_insert, model.p_delete, model.p_substitute)
        if p > 0
    ]
    c_max = min(limits)
    quad = model.p_delete * model.p_substitute
    if quad > 0:
        p_sum = model.p_insert + model.p_delete + model.p_substitute
        c_max = min(c_max, p_sum / (2.0 * quad))
    return _linearized_wer(model, c_max)


# a distribution's words and cumulative probabilities, the last one raised to
# inf: a double past the rounded total falls to the last row
_Cumulative = tuple[tuple[str, ...], list[float]]


def _cumulative(dist: Distribution) -> _Cumulative:
    # accumulate adds in row order, so each bound is the float a running sum
    # over the rows reaches
    bounds = list(accumulate(p for _, p in dist))
    bounds[-1] = math.inf
    return tuple(word for word, _ in dist), bounds


def _draw(r: float, table: _Cumulative) -> str:
    """The first row whose running sum exceeds ``r``."""
    words, bounds = table
    return words[bisect_right(bounds, r)]


def _sentence_rng(seed: int, sentence_index: int) -> np.random.Generator:
    # stream splitting: PCG64 seeded with seed XOR sentence index
    return np.random.default_rng(int(seed) ^ int(sentence_index))


def _uniforms(rng: np.random.Generator, block: int) -> Iterator[float]:
    # rng.random(k) yields the same doubles as k calls of rng.random(); the
    # generator is the sentence's own, so doubles drawn and never read change
    # no other sentence
    while True:
        yield from rng.random(block).tolist()


def _noise_sentence(
    model: LexicalNoiseModel,
    sentence: TokenSequence | Sequence[str],
    rng: np.random.Generator,
    tables: dict[str | None, _Cumulative],
) -> TokenSequence:
    """The noised sentence; ``tables`` caches cumulative tables by gold word,
    with the insertion table under None."""
    tokens = sentence.tokens if isinstance(sentence, TokenSequence) else sentence
    uniform = _uniforms(rng, 3 * len(tokens) + 8).__next__
    p_insert, p_delete, p_substitute = model.p_insert, model.p_delete, model.p_substitute
    substitutions = model.substitution_table
    out: list[str] = []

    def table(key: str | None, dist: Distribution) -> _Cumulative:
        found = tables.get(key)
        if found is None:
            found = tables[key] = _cumulative(dist)
        return found

    def insertion_run() -> None:
        if p_insert <= 0.0:
            return
        while uniform() < p_insert:
            out.append(_draw(uniform(), table(None, model.insertion_table)))

    insertion_run()
    for token in tokens:
        if uniform() < p_delete:
            insertion_run()
            continue
        dist = substitutions.get(token)
        if uniform() < p_substitute and dist:
            out.append(_draw(uniform(), table(token, dist)))
        else:
            out.append(token)
        insertion_run()
    return TokenSequence.from_tokens(out)


def apply_noise(
    model: LexicalNoiseModel,
    sentence: TokenSequence | Sequence[str],
    seed: int,
    sentence_index: int = 0,
) -> TokenSequence:
    """Noise one sentence, deterministically under (seed, sentence_index).

    Per gold token in order: delete with p_delete, else substitute with
    p_substitute; an insertion run (geometric in p_insert) follows every
    position including the sentence start. Words absent from the substitution
    table are kept. Every decision and every table draw reads the next double
    of the sentence's one stream.
    """
    return _noise_sentence(model, sentence, _sentence_rng(seed, sentence_index), {})


def apply_noise_corpus(
    model: LexicalNoiseModel,
    sentences: Sequence[TokenSequence | Sequence[str]],
    seed: int,
) -> list[TokenSequence]:
    """``apply_noise`` of each sentence under its corpus index; the
    cumulative tables are built once per call, for the rows drawn from."""
    tables: dict[str | None, _Cumulative] = {}
    return [
        _noise_sentence(model, sent, _sentence_rng(seed, i), tables)
        for i, sent in enumerate(sentences)
    ]


def save_model(model: LexicalNoiseModel, path: str | Path) -> None:
    lines = [
        f"lexical-noise-model\t{_FORMAT_VERSION}",
        f"p_insert\t{model.p_insert!r}",
        f"p_delete\t{model.p_delete!r}",
        f"p_substitute\t{model.p_substitute!r}",
        f"scale_c\t{model.scale_c!r}",
    ]
    for word, dist in model.substitution_table.items():
        for repl, p in dist:
            lines.append(f"{word}\t{repl}\t{p!r}")
    for word, p in model.insertion_table:
        lines.append(f"\t{word}\t{p!r}")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_model(path: str | Path) -> LexicalNoiseModel:
    lines = _read_lines(path)
    if not lines:
        raise ModelFormatError(f"{path}: empty model file")
    magic = lines[0].split("\t")
    if len(magic) != 2 or magic[0] != "lexical-noise-model":
        raise ModelFormatError(f"{path}: not a lexical noise model file")
    if magic[1] != _FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported model version {magic[1]!r} (expected {_FORMAT_VERSION})"
        )
    header: dict[str, float] = {}
    sub_rows: dict[str, list[tuple[str, float]]] = {}
    ins_rows: list[tuple[str, float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        # every word of a table row must be one token: non-empty, no whitespace
        words = fields[1:-1] if fields[0] == "" else fields[:-1]
        try:
            if len(fields) == 2:
                if fields[0] not in _HEADER_FIELDS:
                    raise ModelFormatError(
                        f"{path}: line {lineno} has unknown header field {fields[0]!r}"
                    )
                if fields[0] in header:
                    raise ModelFormatError(
                        f"{path}: line {lineno} repeats header field {fields[0]!r}"
                    )
                header[fields[0]] = float(fields[1])
            elif len(fields) != 3 or any(word.split() != [word] for word in words):
                raise ValueError("wrong field count or a word that is not one token")
            elif fields[0] == "":
                ins_rows.append((fields[1], float(fields[2])))
            else:
                sub_rows.setdefault(fields[0], []).append((fields[1], float(fields[2])))
        except ValueError as exc:
            raise ModelFormatError(f"{path}: malformed line {lineno}: {line!r}") from exc
    missing = _HEADER_FIELDS - header.keys()
    if missing:
        raise ModelFormatError(f"{path}: missing header fields {sorted(missing)}")
    try:
        return LexicalNoiseModel(
            p_insert=header["p_insert"],
            p_delete=header["p_delete"],
            p_substitute=header["p_substitute"],
            substitution_table={w: tuple(rows) for w, rows in sub_rows.items()},
            insertion_table=tuple(ins_rows),
            scale_c=header["scale_c"],
        )
    except ContractError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
