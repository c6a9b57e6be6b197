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

__all__ = [
    "IndependenceReport",
    "build_contingency",
    "analyze_independence",
]


def build_contingency(
    src_pairs: Sequence[TranscriptPair],
    tgt_pairs: Sequence[TranscriptPair],
    alignments: Sequence[Alignment],
) -> Contingency2x2:
    """Cross-tabulate per-link correctness of the two ASR streams.

    Every alignment link contributes one count; correctness attaches to gold
    tokens of each stream.
    """
    if not len(src_pairs) == len(tgt_pairs) == len(alignments):
        raise ContractError(
            f"sentence counts differ: src={len(src_pairs)}, tgt={len(tgt_pairs)}, "
            f"alignments={len(alignments)}"
        )
    cells = [[0, 0], [0, 0]]
    for idx, (src, tgt, links) in enumerate(zip(src_pairs, tgt_pairs, alignments)):
        src_ok = token_correctness(align_edit(src.gold, src.hyp))
        tgt_ok = token_correctness(align_edit(tgt.gold, tgt.hyp))
        for i, j in sorted(links):
            if i >= len(src_ok) or j >= len(tgt_ok):
                raise AlignmentMismatchError(
                    f"sentence {idx}: alignment link ({i},{j}) out of range "
                    f"for gold lengths ({len(src_ok)},{len(tgt_ok)})"
                )
            cells[0 if src_ok[i] else 1][0 if tgt_ok[j] else 1] += 1
    return Contingency2x2(((cells[0][0], cells[0][1]), (cells[1][0], cells[1][1])))


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
