"""Streaming decoding: translator contract, Local Agreement, multi-source scheduling."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

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
    "LocalAgreementState",
    "la_step",
    "schedule_reads",
    "late_average",
    "run_simul",
    "decode_full",
]

EOS = "</s>"


class Vocabulary:
    """Shared target vocabulary; EOS sits at index 0, the rest is sorted.

    Ties in combined scores break toward the lowest index, so EOS wins a
    dead-even tie with any word.
    """

    def __init__(self, tokens: Iterable[str]):
        words = sorted(set(tokens) - {EOS})
        self._tokens = [EOS] + words
        self._index = {tok: i for i, tok in enumerate(self._tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    def index(self, token: str) -> int:
        return self._index[token]

    def token(self, index: int) -> str:
        return self._tokens[index]

    def one_hot(self, token: str, margin: float = 1.0) -> np.ndarray:
        """A read-only score vector: ``margin`` at ``token``, 0 elsewhere."""
        vec = np.zeros(len(self._tokens))
        vec[self._index[token]] = margin
        vec.flags.writeable = False
        return vec


@dataclass(frozen=True)
class DecodeResult:
    """Greedy continuation beyond the forced prefix plus per-step score vectors.

    ``step_scores`` holds one vector per continuation token, followed by the
    end-of-sentence vector.
    """

    tokens: tuple[str, ...]
    step_scores: tuple[np.ndarray, ...]


class IncrementalTranslator(Protocol):
    """Deterministic prefix-forced greedy translator.

    ``decode`` answers the same query the same way within a run, and it is
    greedy-consistent: if ``decode(source, forced, vocab, final)`` returns
    continuation ``t`` with score vectors ``s``, then forcing its own next
    token, ``decode(source, [*forced, t[0]], vocab, final)``, returns
    ``t[1:]`` and ``s[1:]``. The multi-source engine relies
    on this: a member whose next token is the joint choice is not decoded
    again, only the members that dissent are.
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

    def append(self, event: Event) -> None:
        self.events.append(event)


@dataclass
class LocalAgreementState:
    """Ring of the last n hypotheses plus the committed target prefix.

    Every hypothesis in the ring extends ``committed``.
    """

    n: int
    committed: list[str] = field(default_factory=list)
    recent: deque = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ContractError("agreement size must be at least 1")
        self.recent = deque(self.recent, maxlen=self.n)


def _common_prefix(seqs: Sequence[Sequence[str]]) -> list[str]:
    prefix: list[str] = []
    for position in zip(*seqs):
        if position.count(position[0]) != len(position):
            break
        prefix.append(position[0])
    return prefix


def la_step(state: LocalAgreementState, new_hypothesis: Sequence[str]) -> list[str]:
    """Push a hypothesis; commit the prefix all last n hypotheses agree on."""
    hyp = list(new_hypothesis)
    if hyp[: len(state.committed)] != state.committed:
        raise ContractError("hypothesis does not extend the committed prefix")
    state.recent.append(hyp)
    if len(state.recent) < state.n:
        return []
    start = len(state.committed)
    delta = _common_prefix([h[start:] for h in state.recent])
    state.committed.extend(delta)
    return delta


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


def late_average(step_scores: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise arithmetic mean of member score vectors."""
    if not step_scores:
        raise ContractError("late_average needs at least one score vector")
    dim = len(step_scores[0])
    for vector in step_scores:
        if len(vector) != dim:
            dims = sorted({len(v) for v in step_scores})
            raise ContractError(f"score vector dimensions differ: {dims}")
    # np.mean of the stacked vectors, bit for bit: np.add.reduce over axis 0
    # adds the rows one after another to +0.0 (so -0.0 comes out as +0.0),
    # then the sum is divided by the count
    total = np.add(0.0, step_scores[0], dtype=float)
    for vector in step_scores[1:]:
        total += vector
    total /= len(step_scores)
    return total


def _vocab_and_budget(
    translators: Mapping[str, IncrementalTranslator],
    sources: Mapping[str, TokenSequence],
) -> tuple[Vocabulary, int]:
    """The run's shared vocabulary and its cap on new tokens per hypothesis."""
    if set(translators) != set(sources):
        raise ContractError("translators and sources must cover the same languages")
    tokens: set[str] = set()
    for lang, translator in translators.items():
        tokens |= translator.output_tokens(sources[lang].tokens)
    max_new_tokens = 2 * sum(len(s.tokens) for s in sources.values()) + 8
    return Vocabulary(tokens), max_new_tokens


def _joint_hypothesis(
    translators: Mapping[str, IncrementalTranslator],
    prefixes: Mapping[str, tuple[str, ...]],
    committed: Sequence[str],
    vocab: Vocabulary,
    final: bool,
    answers: dict[tuple, tuple[str, ...]],
    max_new_tokens: int,
) -> list[str]:
    """One greedy hypothesis from all members via stepwise late averaging.

    ``answers`` holds the run's first answer to each query: a translator that
    answers the same query differently within a run is an ``EngineError``.
    Each member's last answer is read with a cursor. After a joint token, a
    member whose own next token it was moves its cursor on (by greedy
    consistency that is what a new query would answer); the others are
    queried again at the next step. An answer ends with its EOS vector, so a
    cursor on a token always has a vector after it.
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
        vectors = []
        for m, result in enumerate(results):
            if result is None:
                result = results[m] = query(m, target)
                cursors[m] = 0
                if len(result.step_scores) != len(result.tokens) + 1:
                    raise EngineError(
                        f"translator for {members[m][0]!r} returned "
                        f"{len(result.step_scores)} score vectors for "
                        f"{len(result.tokens)} tokens, not one per token plus EOS"
                    )
            vectors.append(result.step_scores[cursors[m]])
        token = token_at(late_average(vectors).argmax())
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
    otherwise. Every Read is one LA-n update. At source exhaustion a Flush
    commits the rest of the latest hypothesis. Committed output is
    append-only: it is the log's Write tokens, in order. Translators are
    given each source prefix as its token tuple.
    """
    vocab, max_new_tokens = _vocab_and_budget(translators, sources)
    schedule = schedule_reads(sources)
    state = LocalAgreementState(n)
    log = SimulEventLog()
    answers: dict[tuple, tuple[str, ...]] = {}
    prefixes: dict[str, tuple[str, ...]] = {lang: () for lang in sources}
    last_hypothesis: list[str] = []

    for k, (lang, i) in enumerate(schedule):
        tokens = sources[lang].tokens
        prefixes[lang] = tokens[: i + 1]
        log.append(ReadEvent(lang, tokens[i]))
        last_hypothesis = _joint_hypothesis(
            translators, prefixes, state.committed, vocab, k == len(schedule) - 1,
            answers, max_new_tokens,
        )
        for token in la_step(state, last_hypothesis):
            log.append(WriteEvent(token))

    log.append(FlushEvent())
    for token in last_hypothesis[len(state.committed) :]:
        log.append(WriteEvent(token))
    state.committed.extend(last_hypothesis[len(state.committed) :])
    return state.committed, log


def decode_full(
    translators: Mapping[str, IncrementalTranslator],
    sources: Mapping[str, TokenSequence],
) -> list[str]:
    """Offline greedy decoding of complete sources (late-averaged when multi)."""
    vocab, max_new_tokens = _vocab_and_budget(translators, sources)
    return _joint_hypothesis(
        translators, {lang: s.tokens for lang, s in sources.items()}, [], vocab, True,
        {}, max_new_tokens,
    )
