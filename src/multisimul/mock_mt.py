"""Deterministic mock translators implementing the incremental decode contract."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import _read_lines
from .errors import InputError
from .simul import EOS, DecodeResult, Vocabulary

__all__ = ["LexiconTranslator", "ReorderingTranslator", "load_lexicon"]

KNOWN_MARGIN = 1.0
UNKNOWN_MARGIN = 0.5


def load_lexicon(path: str | Path) -> dict[str, str]:
    """TSV lexicon: one "src<TAB>tgt" entry per line."""
    lexicon: dict[str, str] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        # each side must be one token: non-empty, no whitespace
        if len(fields) != 2 or line.split() != fields:
            raise InputError(f"{path}: malformed lexicon entry at line {lineno}: {line!r}")
        lexicon[fields[0]] = fields[1]
    return lexicon


class LexiconTranslator:
    """Word-for-word translator; one output token per input token.

    Known words translate with full margin; unknown words are copied at a
    reduced margin, so late averaging prefers a confident partner over a
    guess. Forced target tokens produced by other ensemble members are
    skipped by matching the forced prefix against this translator's own
    hypothesis as a subsequence.

    The translator remembers its last query: a source prefix that extends
    the last one only translates the new tokens, and a forced target that
    extends the last one only consumes the new tokens. Answers share their
    score vectors, which are read-only. An instance is not safe to share
    between threads.
    """

    def __init__(self, lexicon: Mapping[str, str]):
        self.lexicon = dict(lexicon)
        # hypothesis of the last source prefix under (final, vocab); the
        # scores end with the EOS vector
        self._source: tuple[str, ...] = ()
        self._final = False
        self._vocab: Vocabulary | None = None
        self._tokens: tuple[str, ...] = ()
        self._scores: tuple[np.ndarray, ...] = ()
        # the last forced target and where it left the hypothesis pointer
        self._forced: list[str] = []
        self._ptr = 0

    def _translate(self, token: str) -> tuple[str, float]:
        if token in self.lexicon:
            return self.lexicon[token], KNOWN_MARGIN
        return token, UNKNOWN_MARGIN

    def _entry(self, token: str, final: bool) -> tuple[str, float]:
        """Hypothesis token and margin for one source token."""
        return self._translate(token)

    def output_tokens(self, source: tuple[str, ...]) -> set[str]:
        tokens = {self._translate(tok)[0] for tok in source}
        tokens.add(EOS)
        return tokens

    def _update_hypothesis(
        self, source: tuple[str, ...], vocab: Vocabulary, final: bool
    ) -> None:
        known = len(self._source)
        if vocab is self._vocab and final == self._final and source[:known] == self._source:
            if len(source) == known:
                return
            tokens, scores = self._tokens, self._scores
        else:
            known = 0
            tokens, scores = (), (_read_only(vocab.one_hot(EOS, KNOWN_MARGIN)),)
        entries = [self._entry(tok, final) for tok in source[known:]]
        self._tokens = tokens + tuple(tok for tok, _ in entries)
        self._scores = (
            scores[:-1]
            + tuple(_read_only(vocab.one_hot(tok, margin)) for tok, margin in entries)
            + scores[-1:]
        )
        self._source, self._vocab, self._final = source, vocab, final
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
        self._update_hypothesis(source_prefix, vocab, final)
        ptr = self._consume_forced(forced_target)
        return DecodeResult(self._tokens[ptr:], self._scores[ptr:], eos=True)


def _read_only(vector: np.ndarray) -> np.ndarray:
    vector.flags.writeable = False
    return vector


class ReorderingTranslator(LexiconTranslator):
    """Lexicon translator that guesses words of a deferred class until input ends.

    Source words in ``deferred`` translate to a provisional guess on partial
    input and to their real lexicon entry once end-of-input is signaled, so
    prefix hypotheses are unstable by construction.
    """

    def __init__(self, lexicon: Mapping[str, str], deferred: set[str]):
        super().__init__(lexicon)
        self.deferred = set(deferred)

    def _guess(self, token: str) -> str:
        return f"<{token}?>"

    def _entry(self, token: str, final: bool) -> tuple[str, float]:
        if token in self.deferred and not final:
            return self._guess(token), UNKNOWN_MARGIN
        return self._translate(token)

    def output_tokens(self, source: tuple[str, ...]) -> set[str]:
        tokens = super().output_tokens(source)
        tokens |= {self._guess(tok) for tok in source if tok in self.deferred}
        return tokens
