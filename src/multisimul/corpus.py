"""Data model and ingestion: token sequences, line-aligned files, transcripts, alignments."""

from __future__ import annotations

import codecs
import re
import sys
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import AlignmentMismatchError, ContractError, InputError, ParseError

__all__ = [
    "TokenSequence",
    "TranscriptPair",
    "Alignment",
    "tokenize_13a",
    "normalize_transcript",
    "check_line_counts",
    "read_aligned",
    "load_parallel",
    "load_transcript_pairs",
    "load_word_alignment",
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
        """Whitespace-split the stripped ``raw``.

        The tokens are interned, so every loaded sequence holds one string
        per distinct token, shared across lines and files.
        """
        raw = raw.strip()
        return cls(tuple(map(sys.intern, raw.split())), raw)

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "TokenSequence":
        """Build a sequence whose raw form is the single-space join of tokens."""
        return cls(tuple(tokens), " ".join(tokens))

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class TranscriptPair:
    """A gold transcript and the corresponding ASR hypothesis."""

    gold: TokenSequence
    hyp: TokenSequence


# the (source, target) token index links of one sentence pair
Alignment = frozenset[tuple[int, int]]


# mteval-13a pads each of its ASCII symbols with spaces. The space itself is
# left out: padding it changes neither the final split nor what any later
# rule sees next to a character
_13A_SYMBOL = re.compile(r"[!-&(-+/:-@\[-`{-~]")


# the rules for a period or comma after or before a non-digit, and for a dash
# after a digit; callable replacements, because Python 3.11 expands a template
# replacement in Python code at every match
_13A_NONDIGIT_PUNCT = re.compile(r"([^0-9])([\.,])")
_13A_PUNCT_NONDIGIT = re.compile(r"([\.,])([^0-9])")
# mteval-13a's ([0-9])(-) rule: a dash is never a digit, so no two matches
# overlap and a lookbehind splits at the same places
_13A_DIGIT_DASH = re.compile(r"(?<=[0-9])-")


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
    norm = _13A_SYMBOL.sub(lambda m: f" {m[0]} ", norm)
    norm = _13A_NONDIGIT_PUNCT.sub(lambda m: f"{m[1]} {m[2]} ", norm)
    norm = _13A_PUNCT_NONDIGIT.sub(lambda m: f" {m[1]} {m[2]}", norm)
    norm = _13A_DIGIT_DASH.sub(" - ", norm)
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
    """Lines of a UTF-8 text file, CRLF normalized, without a leading
    byte-order mark or the final newline."""
    # cut from the bytes, so a decoding error's offset indexes data
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise InputError(f"{path}: UTF-8 decoding failed on line {line}") from exc
    text = text.replace("\r\n", "\n")
    # only an empty file has no lines: "\n" is one empty line
    return text.removesuffix("\n").split("\n") if text else []


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


def load_word_alignment(path: str | Path) -> list[Alignment]:
    """Parse Pharaoh-format ("i-j" pairs, one line per sentence pair) alignments."""
    alignments: list[Alignment] = []
    # each distinct pair text is parsed once, and its lines share the tuple
    parsed: dict[str, tuple[int, int]] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        links: set[tuple[int, int]] = set()
        for pair in line.split():
            link = parsed.get(pair)
            if link is None:
                # without a dash, j is empty; isdecimal is Unicode category
                # Nd, the digits that int() reads
                i, _, j = pair.partition("-")
                if not (i.isdecimal() and j.isdecimal()):
                    raise ParseError(
                        f"{path}: malformed alignment pair {pair!r} at line {lineno}, "
                        f"column {_column(line, pair)}"
                    )
                link = parsed[pair] = (int(i), int(j))
            links.add(link)
        alignments.append(frozenset(links))
    return alignments


def _column(line: str, pair: str) -> int:
    """The 1-based column of the first field of ``line`` that equals ``pair``."""
    # only whitespace lies between two fields, so a field starts where its
    # text next occurs after the end of the last one
    end = 0
    for field in line.split():
        start = line.index(field, end)
        end = start + len(field)
        if field == pair:
            break
    return start + 1
