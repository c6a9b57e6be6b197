"""Cross-lingual ASR-error independence: projection, contingency table, chi-square."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import Alignment, TranscriptPair
from .errors import AlignmentMismatchError, ContractError
from .metrics import (
    ChiSquareResult,
    Contingency2x2,
    align_edit,
    chi_square_2x2,
    token_correctness,
)
from .pool import ordered_map

__all__ = [
    "IndependenceReport",
    "build_contingency",
    "analyze_independence",
]


# sentence pairs per contingency chunk; the chunks run on the process pool,
# and an input of one chunk runs in the calling process. Pairs are
# independent, so the chunking changes no count
_CONTINGENCY_CHUNK_PAIRS = 256


def _chunk_cells(
    inputs: tuple[Sequence[TranscriptPair], Sequence[TranscriptPair], Sequence[Alignment]],
    chunk: range,
) -> list[int]:
    """The contingency counts, row-major, of the sentence pairs in ``chunk``."""
    src_pairs, tgt_pairs, alignments = inputs
    cells = [0, 0, 0, 0]
    for idx in chunk:
        src, tgt = src_pairs[idx], tgt_pairs[idx]
        src_ok = token_correctness(align_edit(src.gold, src.hyp))
        tgt_ok = token_correctness(align_edit(tgt.gold, tgt.hyp))
        for i, j in sorted(alignments[idx]):
            if i >= len(src_ok) or j >= len(tgt_ok):
                raise AlignmentMismatchError(
                    f"sentence {idx}: alignment link ({i},{j}) out of range "
                    f"for gold lengths ({len(src_ok)},{len(tgt_ok)})"
                )
            cells[2 * (not src_ok[i]) + (not tgt_ok[j])] += 1
    return cells


def build_contingency(
    src_pairs: Sequence[TranscriptPair],
    tgt_pairs: Sequence[TranscriptPair],
    alignments: Sequence[Alignment],
) -> Contingency2x2:
    """Cross-tabulate per-link correctness of the two ASR streams.

    Every alignment link contributes one count; correctness attaches to gold
    tokens of each stream. A link out of range raises for the first sentence,
    in input order, that has one.
    """
    if not len(src_pairs) == len(tgt_pairs) == len(alignments):
        raise ContractError(
            f"sentence counts differ: src={len(src_pairs)}, tgt={len(tgt_pairs)}, "
            f"alignments={len(alignments)}"
        )
    n, step = len(alignments), _CONTINGENCY_CHUNK_PAIRS
    chunks = [range(start, min(start + step, n)) for start in range(0, n, step)]
    cells = [0, 0, 0, 0]
    for counts in ordered_map(_chunk_cells, (src_pairs, tgt_pairs, alignments), chunks):
        cells = [total + count for total, count in zip(cells, counts)]
    cc, ci, ic, ii = cells
    return Contingency2x2(((cc, ci), (ic, ii)))


@dataclass(frozen=True)
class IndependenceReport:
    aligned_link_count: int
    unique_src_tokens: int
    unique_tgt_tokens: int
    src_gold_tokens: int
    coverage: float
    table: Contingency2x2
    chi_square: ChiSquareResult
    alpha: float

    @property
    def reject_independence(self) -> bool:
        return self.chi_square.p_value < self.alpha

    def summary(self) -> str:
        decision = "reject" if self.reject_independence else "fail to reject"
        return "\n".join(
            [
                f"aligned links: {self.aligned_link_count}",
                f"unique aligned tokens: src={self.unique_src_tokens} "
                f"tgt={self.unique_tgt_tokens}",
                f"coverage: {self.aligned_link_count}/{self.src_gold_tokens} "
                f"= {100.0 * self.coverage:.2f}%",
                f"contingency: {self.table.cells}",
                f"chi-square statistic: {self.chi_square.statistic:.6f} (df=1)",
                f"p-value: {self.chi_square.p_value:.6g}",
                f"decision at alpha={self.alpha}: {decision} independence",
            ]
        )


def analyze_independence(
    src_pairs: Sequence[TranscriptPair],
    tgt_pairs: Sequence[TranscriptPair],
    alignments: Sequence[Alignment],
    alpha: float = 0.01,
    *,
    yates: bool = False,
) -> IndependenceReport:
    """Full pipeline: correctness, contingency, chi-square decision."""
    src_gold_tokens = sum(len(p.gold.tokens) for p in src_pairs)
    if src_gold_tokens == 0:
        raise ContractError("source gold transcripts are empty")
    table = build_contingency(src_pairs, tgt_pairs, alignments)
    # every link adds exactly one count to the table
    links = table.total
    return IndependenceReport(
        aligned_link_count=links,
        unique_src_tokens=sum(len({i for i, _ in a}) for a in alignments),
        unique_tgt_tokens=sum(len({j for _, j in a}) for a in alignments),
        src_gold_tokens=src_gold_tokens,
        coverage=links / src_gold_tokens,
        table=table,
        chi_square=chi_square_2x2(table, yates=yates),
        alpha=alpha,
    )
