"""WER-calibrated lexical noise: training, closed-form rescaling, seeded application."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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

Distribution = tuple[tuple[str, float], ...]


def _as_distribution(counts: Mapping[str, int]) -> Distribution:
    total = sum(counts.values())
    return tuple((word, counts[word] / total) for word in sorted(counts))


def _check_distribution(dist: Distribution, what: str) -> None:
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
        for word, dist in self.substitution_table.items():
            _check_distribution(dist, f"substitution[{word}]")
        _check_distribution(self.insertion_table, "insertion")


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
        for op in align_edit(pair.gold, pair.hyp).ops:
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
    if model.p_insert >= 1.0:
        raise ContractError("p_insert must be below 1")
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


def _draw(rng: np.random.Generator, dist: Distribution) -> str:
    r = rng.random()
    acc = 0.0
    for word, p in dist:
        acc += p
        if r < acc:
            return word
    return dist[-1][0]


def _sentence_rng(seed: int, sentence_index: int) -> np.random.Generator:
    # stream splitting: PCG64 seeded with seed XOR sentence index
    return np.random.default_rng(int(seed) ^ int(sentence_index))


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
    table are kept.
    """
    tokens = list(sentence.tokens) if isinstance(sentence, TokenSequence) else list(sentence)
    rng = _sentence_rng(seed, sentence_index)

    out: list[str] = []

    def insertion_run() -> None:
        if model.p_insert <= 0.0 or not model.insertion_table:
            return
        while rng.random() < model.p_insert:
            out.append(_draw(rng, model.insertion_table))

    insertion_run()
    for token in tokens:
        if rng.random() < model.p_delete:
            insertion_run()
            continue
        dist = model.substitution_table.get(token)
        if rng.random() < model.p_substitute and dist:
            out.append(_draw(rng, dist))
        else:
            out.append(token)
        insertion_run()
    return TokenSequence.from_tokens(out)


def apply_noise_corpus(
    model: LexicalNoiseModel,
    sentences: Sequence[TokenSequence | Sequence[str]],
    seed: int,
) -> list[TokenSequence]:
    return [apply_noise(model, sent, seed, i) for i, sent in enumerate(sentences)]


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
                header[fields[0]] = float(fields[1])
            elif len(fields) != 3 or any(word.split() != [word] for word in words):
                raise ValueError("wrong field count or a word that is not one token")
            elif fields[0] == "":
                ins_rows.append((fields[1], float(fields[2])))
            else:
                sub_rows.setdefault(fields[0], []).append((fields[1], float(fields[2])))
        except ValueError as exc:
            raise ModelFormatError(f"{path}: malformed line {lineno}: {line!r}") from exc
    missing = {"p_insert", "p_delete", "p_substitute", "scale_c"} - set(header)
    if missing:
        raise ModelFormatError(f"{path}: missing header fields {sorted(missing)}")
    return LexicalNoiseModel(
        p_insert=header["p_insert"],
        p_delete=header["p_delete"],
        p_substitute=header["p_substitute"],
        substitution_table={w: tuple(rows) for w, rows in sub_rows.items()},
        insertion_table=tuple(ins_rows),
        scale_c=header["scale_c"],
    )
