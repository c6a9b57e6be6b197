"""Data model and ingestion: token sequences, line-aligned files, transcripts, alignments."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import AlignmentMismatchError, ContractError, InputError, ParseError

__all__ = [
    "TokenSequence",
    "TranscriptPair",
    "WordAlignment",
    "tokenize_13a",
    "normalize_transcript",
    "check_line_counts",
    "read_aligned",
    "load_parallel",
    "load_transcript_pairs",
    "load_word_alignment",
    "char_fraction",
]


@dataclass(frozen=True)
class TokenSequence:
    """A tokenized sentence together with its raw character form.

    ``raw`` is stripped of leading/trailing whitespace and ``tokens`` is its
    whitespace split, so the last token ends exactly at ``len(raw)``.
    """

    tokens: tuple[str, ...]
    raw: str

    def __post_init__(self) -> None:
        if self.tokens != tuple(self.raw.split()) or self.raw != self.raw.strip():
            raise ContractError(f"{self.tokens!r} is not the split of stripped text {self.raw!r}")

    @classmethod
    def from_raw(cls, raw: str) -> "TokenSequence":
        """Whitespace-split the stripped ``raw``."""
        raw = raw.strip()
        return cls(tuple(raw.split()), raw)

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "TokenSequence":
        """Build a sequence whose raw form is the single-space join of tokens."""
        return cls(tuple(tokens), " ".join(tokens))

    @cached_property
    def char_offsets(self) -> tuple[int, ...]:
        """Start of each token inside ``raw``: only whitespace lies between two
        tokens, so a token starts where its text next occurs after the last."""
        offsets, end = [], 0
        for tok in self.tokens:
            end = self.raw.index(tok, end) + len(tok)
            offsets.append(end - len(tok))
        return tuple(offsets)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class TranscriptPair:
    """A gold transcript and the corresponding ASR hypothesis."""

    gold: TokenSequence
    hyp: TokenSequence


@dataclass(frozen=True)
class WordAlignment:
    """Cross-lingual word alignment links for one sentence pair."""

    links: frozenset[tuple[int, int]] = field(default_factory=frozenset)


# mteval-13a pads every one of these ASCII symbols with spaces; each match is
# a single character, so one translation table does what the regex does
_13A_SYMBOLS = str.maketrans(
    {
        c: f" {c} "
        for c in map(chr, range(128))
        if re.fullmatch(r"[\{-\~\[-\` -\&\(-\+\:-\@\/]", c)
    }
)


def tokenize_13a(raw: str) -> tuple[str, ...]:
    """Tokenize with the mteval-13a scheme used by sacre-style scorers.

    Like mteval-13a itself, the function is not idempotent under re-joining:
    ``'..0'`` gives ``('.', '.0')``, and ``'. .0'`` gives ``('.', '.', '0')``.
    """
    norm = raw
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")
    norm = f" {norm} "
    norm = norm.translate(_13A_SYMBOLS)
    norm = re.sub(r"([^0-9])([\.,])", r"\1 \2 ", norm)
    norm = re.sub(r"([\.,])([^0-9])", r" \1 \2", norm)
    norm = re.sub(r"([0-9])(-)", r"\1 \2 ", norm)
    return tuple(norm.split())


def normalize_transcript(raw: str, *, lowercase: bool = True, strip_punct: bool = False) -> TokenSequence:
    """Whitespace tokenization of a transcript with optional normalization.

    Default keeps punctuation and lowercases, the setting used before
    Levenshtein alignment of gold/ASR transcripts.
    """
    text = raw.lower() if lowercase else raw
    if strip_punct:
        text = "".join(
            " " if unicodedata.category(ch).startswith("P") else ch for ch in text
        )
    return TokenSequence.from_raw(text)


def _read_lines(path: str | Path) -> list[str]:
    """Lines of a UTF-8 text file, CRLF normalized, without the final newline."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise InputError(f"{path}: UTF-8 decoding failed on line {line}") from exc
    text = text.replace("\r\n", "\n")
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n") if text else []


def check_line_counts(counts: Iterable[tuple[str | Path, int]]) -> None:
    """Line-aligned files must have equal line counts.

    ``counts`` holds (path, line count) pairs; each is compared with the
    first, and the first that differs is named with it.
    """
    (first, n), *rest = counts
    for path, count in rest:
        if count != n:
            raise AlignmentMismatchError(
                f"line-count mismatch: {first} has {n} lines but {path} has {count}"
            )


def read_aligned(paths: Sequence[str | Path]) -> list[list[str]]:
    """The lines of each file, which must all have the same line count."""
    columns = [_read_lines(path) for path in paths]
    check_line_counts(zip(paths, map(len, columns)))
    return columns


def load_parallel(paths: Mapping[str, str | Path]) -> dict[str, list[TokenSequence]]:
    """Load one sentence-per-line file per language into its column of sentences."""
    if not paths:
        raise ContractError("at least one language file is required")
    columns = read_aligned(list(paths.values()))
    return {
        lang: [TokenSequence.from_raw(line) for line in lines]
        for lang, lines in zip(paths, columns)
    }


def load_transcript_pairs(
    gold_path: str | Path,
    hyp_path: str | Path,
    *,
    lowercase: bool = True,
    strip_punct: bool = False,
) -> list[TranscriptPair]:
    """Load line-aligned gold and ASR transcripts, applying normalization toggles."""
    gold_lines, hyp_lines = read_aligned([gold_path, hyp_path])
    return [
        TranscriptPair(
            normalize_transcript(g, lowercase=lowercase, strip_punct=strip_punct),
            normalize_transcript(h, lowercase=lowercase, strip_punct=strip_punct),
        )
        for g, h in zip(gold_lines, hyp_lines)
    ]


_PHARAOH_RE = re.compile(r"^(\d+)-(\d+)$")


def load_word_alignment(path: str | Path) -> list[WordAlignment]:
    """Parse Pharaoh-format ("i-j" pairs, one line per sentence pair) alignments."""
    alignments: list[WordAlignment] = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        links: set[tuple[int, int]] = set()
        col = 1
        for field_ in line.split():
            m = _PHARAOH_RE.match(field_)
            if m is None:
                raise ParseError(
                    f"{path}: malformed alignment pair {field_!r} at line {lineno}, "
                    f"column {col}"
                )
            links.add((int(m.group(1)), int(m.group(2))))
            col += len(field_) + 1
        alignments.append(WordAlignment(frozenset(links)))
    return alignments


def char_fraction(sentence: TokenSequence, prefix_len: int) -> float:
    """Fraction of raw characters covered by the first ``prefix_len`` tokens."""
    if not 0 <= prefix_len <= len(sentence.tokens):
        raise ContractError(
            f"prefix_len {prefix_len} out of range 0..{len(sentence.tokens)}"
        )
    if prefix_len == 0:
        return 1.0 if not sentence.raw else 0.0
    covered = sentence.char_offsets[prefix_len - 1] + len(sentence.tokens[prefix_len - 1])
    return covered / len(sentence.raw)
