"""Deterministic mock translators implementing the incremental decode contract."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import _read_lines
from .errors import InputError
from .simul import EOS, DecodeResult, Vocabulary

__all__ = ["LexiconTranslator", "load_lexicon"]

KNOWN_MARGIN = 1.0
UNKNOWN_MARGIN = 0.5


def load_lexicon(path: str | Path) -> dict[str, str]:
    """TSV lexicon: one "src<TAB>tgt" entry per line."""
    lexicon: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        # each side must be one token: non-empty, no whitespace
        if len(fields) != 2 or line.split() != fields:
            raise InputError(f"{path}: malformed lexicon entry at line {lineno}: {line!r}")
        # a repeat would silently replace the earlier entry
        if fields[0] in lexicon:
            raise InputError(
                f"{path}: line {lineno} repeats source word {fields[0]!r} "
                f"of line {first_line[fields[0]]}"
            )
        if fields[1] == EOS:
            raise InputError(f"{path}: line {lineno} maps to the reserved token {EOS}")
        lexicon[fields[0]] = fields[1]
        first_line[fields[0]] = lineno
    return lexicon


class LexiconTranslator:
    """Word-for-word translator; one output token per input token.

    Known words translate with full margin; unknown words are copied at a
    reduced margin, so late averaging prefers a confident partner over a
    guess. Forced target tokens produced by other ensemble members are
    skipped by matching the forced prefix against this translator's own
    hypothesis as a subsequence.

    The translator remembers its last query: a source prefix equal to the
    last one is answered from the stored hypothesis, one that extends it only
    translates the new tokens, and a forced target that extends the last one
    only consumes the new tokens.
    Answers share their score vectors, which are read-only. An instance is
    not safe to share between threads.
    """

    def __init__(self, lexicon: Mapping[str, str]):
        self.lexicon = dict(lexicon)
        # hypothesis of the last source prefix under vocab; the scores end
        # with the EOS vector
        self._source: tuple[str, ...] = ()
        self._vocab: Vocabulary | None = None
        self._tokens: tuple[str, ...] = ()
        self._scores: tuple[np.ndarray, ...] = ()
        # the last forced target and where it left the hypothesis pointer
        self._forced: list[str] = []
        self._ptr = 0

    def _translate(self, token: str) -> tuple[str, float]:
        """Hypothesis token and margin for one source token."""
        if token in self.lexicon:
            return self.lexicon[token], KNOWN_MARGIN
        return token, UNKNOWN_MARGIN

    def output_tokens(self, source: tuple[str, ...]) -> set[str]:
        tokens = {self._translate(tok)[0] for tok in source}
        tokens.add(EOS)
        return tokens

    def _update_hypothesis(self, source: tuple[str, ...], vocab: Vocabulary) -> None:
        known = len(self._source)
        if vocab is self._vocab and source[:known] == self._source:
            if len(source) == known:
                return
            tokens, scores = self._tokens, self._scores
        else:
            known, tokens = 0, ()
            scores = (vocab.one_hot(EOS, KNOWN_MARGIN),)
        entries = [self._translate(tok) for tok in source[known:]]
        scores = (
            scores[:-1]
            + tuple(vocab.one_hot(tok, margin) for tok, margin in entries)
            + scores[-1:]
        )
        # stored only now: a token missing from the vocabulary raises above
        # and leaves the remembered query as it was
        self._tokens = tokens + tuple(tok for tok, _ in entries)
        self._scores = scores
        self._source, self._vocab = source, vocab
        # a longer hypothesis may hold a forced token that was missing before
        self._forced, self._ptr = [], 0

    def _consume_forced(self, forced_target: Sequence[str]) -> int:
        forced = list(forced_target)
        done = len(self._forced)
        if forced[:done] == self._forced:
            ptr = self._ptr
        else:
            done, ptr = 0, 0
        hypothesis = self._tokens
        for token in forced[done:]:
            try:
                ptr = hypothesis.index(token, ptr) + 1
            except ValueError:
                pass  # another member's token: skip it
        self._forced, self._ptr = forced, ptr
        return ptr

    def decode(
        self,
        source_prefix: tuple[str, ...],
        forced_target: Sequence[str],
        vocab: Vocabulary,
        final: bool = False,
    ) -> DecodeResult:
        # the word-for-word answer is the same whether or not the input ended
        self._update_hypothesis(source_prefix, vocab)
        ptr = self._consume_forced(forced_target)
        return DecodeResult(self._tokens[ptr:], self._scores[ptr:])
