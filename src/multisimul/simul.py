"""Streaming decoding: translator contract, Local Agreement, multi-source scheduling."""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

from .corpus import TokenSequence
from .errors import ContractError, EngineError

__all__ = [
    "EOS",
    "Vocabulary",
    "DecodeResult",
    "IncrementalTranslator",
    "ReadEvent",
    "WriteEvent",
    "FlushEvent",
    "SimulEventLog",
    "schedule_reads",
    "run_simul",
]

# no token can equal it: tokens are the non-empty pieces of a whitespace split
EOS = ""


class Vocabulary:
    """Shared target vocabulary: the given tokens and EOS, sorted.

    EOS sorts first, to index 0. Ties in combined scores break toward the
    lowest index, so EOS wins a dead-even tie with any word.
    """

    def __init__(self, tokens: Iterable[str]):
        self._tokens = sorted({EOS, *tokens})
        self._index = {tok: i for i, tok in enumerate(self._tokens)}

    def index(self, token: str) -> int:
        return self._index[token]

    def token(self, index: int) -> str:
        return self._tokens[index]


@dataclass(frozen=True)
class DecodeResult:
    """Greedy continuation beyond the forced prefix plus one vote per step.

    ``step_scores`` holds one vote per continuation token, followed by the
    end-of-sentence vote. A vote is an ``(index, score)`` pair over the run's
    vocabulary; a token without a vote scores 0, so with positive scores the
    joint choice is the argmax of the dense vectors the votes stand for.
    """

    tokens: tuple[str, ...]
    step_scores: tuple[tuple[int, float], ...]


class IncrementalTranslator(Protocol):
    """Deterministic prefix-forced greedy translator.

    ``decode`` answers the same query the same way within a run, and it is
    greedy-consistent: if ``decode(source, forced, vocab, final)`` returns
    continuation ``t`` with votes ``s``, then forcing its own next token,
    ``decode(source, [*forced, t[0]], vocab, final)``, returns ``t[1:]`` and
    ``s[1:]``. The multi-source engine relies on this: a member whose next
    token is the joint choice is not decoded again, only the members that
    dissent are.

    At each step the engine sums the members' scores per vocabulary index.
    The highest sum wins, and an exact tie goes to the lowest index (EOS
    first). Only voted tokens compete: when every score is positive, this is
    the argmax of the members' averaged dense score vectors.
    """

    def decode(
        self,
        source_prefix: tuple[str, ...],
        forced_target: Sequence[str],
        vocab: Vocabulary,
        final: bool = False,
    ) -> DecodeResult: ...

    def output_tokens(self, source: tuple[str, ...]) -> set[str]:
        """Every token the translator could emit for any prefix of ``source``."""
        ...


@dataclass(frozen=True)
class ReadEvent:
    language: str
    token: str


@dataclass(frozen=True)
class WriteEvent:
    token: str


@dataclass(frozen=True)
class FlushEvent:
    pass


Event = ReadEvent | WriteEvent | FlushEvent


@dataclass
class SimulEventLog:
    """Ordered Read/Write/Flush events of one streaming run; the Write tokens,
    in order, are the run's output."""

    events: list[Event] = field(default_factory=list)


def _common_prefix(seqs: Sequence[Sequence[str]]) -> list[str]:
    prefix: list[str] = []
    for position in zip(*seqs):
        if position.count(position[0]) != len(position):
            break
        prefix.append(position[0])
    return prefix


def schedule_reads(sources: Mapping[str, TokenSequence]) -> list[tuple[str, int]]:
    """Interleave per-language reads sorted by character-length fraction.

    A token's fraction is where it ends in its raw text over the text's
    length. Each (language, token index) slot advances one language by one
    token. Ties break by the mapping order of ``sources``, then token index.
    """
    if not sources:
        raise ContractError("at least one source language is required")
    slots = []
    for rank, (lang, sent) in enumerate(sources.items()):
        # only whitespace lies between two tokens, so a token ends where its
        # text next occurs after the end of the last one
        raw, end = sent.raw, 0
        for i, tok in enumerate(sent.tokens):
            end = raw.index(tok, end) + len(tok)
            slots.append((end / len(raw), rank, i, lang))
    slots.sort()
    return [(lang, i) for _, _, i, lang in slots]


def _joint_hypothesis(
    translators: Mapping[str, IncrementalTranslator],
    prefixes: Mapping[str, tuple[str, ...]],
    committed: Sequence[str],
    vocab: Vocabulary,
    final: bool,
    answers: dict[tuple, tuple[str, ...]],
    max_new_tokens: int,
) -> list[str]:
    """One greedy hypothesis from all members via stepwise vote sums.

    ``answers`` holds the run's first answer to each query: a translator that
    answers the same query differently within a run is an ``EngineError``.
    Each member's last answer is read with a cursor. After a joint token, a
    member whose own next token it was moves its cursor on (by greedy
    consistency that is what a new query would answer); the others are
    queried again at the next step. An answer ends with its EOS vote, so a
    cursor on a token always has a vote after it.
    """
    # each member's language, decode method and source prefix with its length,
    # looked up once for all of the call's queries
    members = [
        (lang, translators[lang].decode, prefixes[lang], len(prefixes[lang]))
        for lang in translators
    ]

    def query(m: int, target: Sequence[str]) -> DecodeResult:
        lang, decode, prefix, known = members[m]
        result = decode(prefix, target, vocab, final)
        if len(result.step_scores) != len(result.tokens) + 1:
            raise EngineError(
                f"translator for {lang!r} returned {len(result.step_scores)} scores "
                f"for {len(result.tokens)} tokens, not one per token plus EOS"
            )
        key = (lang, known, tuple(target), final)
        if answers.setdefault(key, result.tokens) != result.tokens:
            raise EngineError(f"translator determinism violation for query {key[:3]}")
        return result

    if len(members) == 1:
        return list(committed) + list(query(0, committed).tokens)

    target = list(committed)
    results: list[DecodeResult | None] = [None] * len(members)
    cursors = [0] * len(members)
    token_at = vocab.token
    for _ in range(max_new_tokens):
        # each index's scores added in member order, starting from 0.0
        totals: dict[int, float] = {}
        for m, result in enumerate(results):
            if result is None:
                result = results[m] = query(m, target)
                cursors[m] = 0
            index, score = result.step_scores[cursors[m]]
            totals[index] = totals.get(index, 0.0) + score
        # the highest sum wins; an exact tie goes to the lowest index (EOS is 0)
        top = max(totals.values())
        token = token_at(min(index for index, total in totals.items() if total == top))
        if token == EOS:
            break
        target.append(token)
        for m, result in enumerate(results):
            c = cursors[m]
            if c < len(result.tokens) and result.tokens[c] == token:
                cursors[m] = c + 1
            else:
                results[m] = None
    return target


def run_simul(
    translators: Mapping[str, IncrementalTranslator],
    sources: Mapping[str, TokenSequence],
    n: int,
) -> tuple[list[str], SimulEventLog]:
    """Stream all sources through a Local-Agreement-n policy.

    Single-source when one translator is given, multi-source late averaging
    (a per-step sum of member votes) otherwise. Every Read pushes one joint hypothesis into a ring of the last
    n; once the ring is full, it commits the prefix that all n hypotheses
    share beyond the committed output. At source exhaustion a Flush commits
    the rest of the latest hypothesis. Committed output is append-only: it is
    the log's Write tokens, in order. Translators are given each source prefix
    as its token tuple. An n above the read count never fills the ring, so
    only the last read's hypothesis is built: ``run_simul(..., sys.maxsize)``
    is offline decoding.
    """
    if n < 1:
        raise ContractError("agreement size must be at least 1")
    if set(translators) != set(sources):
        raise ContractError("translators and sources must cover the same languages")
    vocab = Vocabulary(
        word
        for lang, translator in translators.items()
        for word in translator.output_tokens(sources[lang].tokens)
    )
    max_new_tokens = 2 * sum(len(s.tokens) for s in sources.values()) + 8
    schedule = schedule_reads(sources)
    # a ring longer than the reads never fills: the Flush commits the last
    # read's hypothesis, the offline decode, and no earlier one is built
    offline = n > len(schedule)
    recent: deque[list[str]] = deque(maxlen=min(n, sys.maxsize))
    committed: list[str] = []
    events: list[Event] = []
    answers: dict[tuple, tuple[str, ...]] = {}
    prefixes: dict[str, tuple[str, ...]] = {lang: () for lang in sources}
    hypothesis: list[str] = []

    for k, (lang, i) in enumerate(schedule):
        tokens = sources[lang].tokens
        prefixes[lang] = tokens[: i + 1]
        events.append(ReadEvent(lang, tokens[i]))
        final = k == len(schedule) - 1
        if offline and not final:
            continue
        # every hypothesis is a new list that extends ``committed``
        hypothesis = _joint_hypothesis(
            translators, prefixes, committed, vocab, final, answers, max_new_tokens
        )
        recent.append(hypothesis)
        if len(recent) == n:
            delta = _common_prefix([h[len(committed) :] for h in recent])
            committed += delta
            events += map(WriteEvent, delta)

    events.append(FlushEvent())
    delta = hypothesis[len(committed) :]
    committed += delta
    events += map(WriteEvent, delta)
    return committed, SimulEventLog(events)
