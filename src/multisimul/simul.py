"""Streaming decoding: translator contract, Local Agreement, multi-source scheduling."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .corpus import TokenSequence, char_fraction
from .errors import ContractError, EngineError

__all__ = [
    "EOS",
    "Vocabulary",
    "DecodeResult",
    "IncrementalTranslator",
    "ReadEvent",
    "WriteEvent",
    "ReviseEvent",
    "FlushEvent",
    "SimulEventLog",
    "LocalAgreementState",
    "la_step",
    "ReadSlot",
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
        vec = np.zeros(len(self._tokens))
        vec[self._index[token]] = margin
        return vec


@dataclass(frozen=True)
class DecodeResult:
    """Greedy continuation beyond the forced prefix plus per-step score vectors.

    ``step_scores`` holds one vector per continuation token, followed by the
    end-of-sentence vector when ``eos`` is True.
    """

    tokens: tuple[str, ...]
    step_scores: tuple[np.ndarray, ...]
    eos: bool


class IncrementalTranslator(Protocol):
    """Deterministic prefix-forced greedy translator.

    ``decode`` answers the same query the same way within a run, and it is
    greedy-consistent: if ``decode(source, forced, vocab, final)`` returns
    continuation ``t`` with score vectors ``s``, then forcing its own next
    token, ``decode(source, [*forced, t[0]], vocab, final)``, returns
    ``t[1:]``, ``s[1:]`` and the same ``eos``. The multi-source engine relies
    on this: a member whose next token is the joint choice is not decoded
    again, only the members that dissent are.
    """

    def decode(
        self,
        source_prefix: TokenSequence,
        forced_target: Sequence[str],
        vocab: Vocabulary,
        final: bool = False,
    ) -> DecodeResult: ...

    def output_tokens(self, source: TokenSequence) -> set[str]:
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
class ReviseEvent:
    erased: int
    replacement: tuple[str, ...]


@dataclass(frozen=True)
class FlushEvent:
    pass


Event = ReadEvent | WriteEvent | ReviseEvent | FlushEvent


@dataclass
class SimulEventLog:
    """Ordered Read/Write/Revise/Flush events of one streaming run."""

    events: list[Event] = field(default_factory=list)

    def append(self, event: Event) -> None:
        self.events.append(event)

    def final_output(self) -> list[str]:
        buffer: list[str] = []
        for event in self.events:
            if isinstance(event, WriteEvent):
                buffer.append(event.token)
            elif isinstance(event, ReviseEvent):
                if event.erased > len(buffer):
                    raise ContractError("Revise erases more tokens than present")
                del buffer[len(buffer) - event.erased :]
                buffer.extend(event.replacement)
        return buffer

    def filtered(self, drop_languages: set[str]) -> "SimulEventLog":
        """Copy of the log without Read events of the given languages."""
        kept = [
            e
            for e in self.events
            if not (isinstance(e, ReadEvent) and e.language in drop_languages)
        ]
        return SimulEventLog(kept)

    def to_tsv(self) -> str:
        rows = []
        for i, event in enumerate(self.events):
            if isinstance(event, ReadEvent):
                rows.append(f"{i}\tread\t{event.language}\t{event.token}")
            elif isinstance(event, WriteEvent):
                rows.append(f"{i}\twrite\t\t{event.token}")
            elif isinstance(event, ReviseEvent):
                rows.append(f"{i}\trevise\t{event.erased}\t{' '.join(event.replacement)}")
            else:
                rows.append(f"{i}\tflush\t\t")
        return "".join(row + "\n" for row in rows)


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
        if any(tok != position[0] for tok in position[1:]):
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


@dataclass(frozen=True)
class ReadSlot:
    language: str
    token_index: int
    fraction: float


def schedule_reads(sources: Mapping[str, TokenSequence]) -> list[ReadSlot]:
    """Interleave per-language reads sorted by character-length fraction.

    Each slot advances exactly one language by one token. Ties break by the
    mapping order of ``sources``, then token index.
    """
    if not sources:
        raise ContractError("at least one source language is required")
    rank = {lang: i for i, lang in enumerate(sources)}
    slots = [
        ReadSlot(lang, i, char_fraction(sent, i + 1))
        for lang, sent in sources.items()
        for i in range(len(sent.tokens))
    ]
    slots.sort(key=lambda s: (s.fraction, rank[s.language], s.token_index))
    return slots


def late_average(step_scores: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise arithmetic mean of member score vectors."""
    if not step_scores:
        raise ContractError("late_average needs at least one score vector")
    dims = {len(v) for v in step_scores}
    if len(dims) != 1:
        raise ContractError(f"score vector dimensions differ: {sorted(dims)}")
    arr = np.asarray(step_scores, dtype=float)
    # a sum then a division by the count is what np.mean computes, bit for bit
    return np.add.reduce(arr, axis=0) / len(arr)


def _build_vocab(
    translators: Mapping[str, IncrementalTranslator],
    sources: Mapping[str, TokenSequence],
) -> Vocabulary:
    tokens: set[str] = set()
    for lang, translator in translators.items():
        tokens |= translator.output_tokens(sources[lang])
    return Vocabulary(tokens)


class _DeterminismGuard:
    """Detects a translator answering the same query differently within a run."""

    def __init__(self) -> None:
        self._seen: dict[tuple, tuple] = {}

    def check(self, key: tuple, result: DecodeResult) -> None:
        fingerprint = (result.tokens, result.eos)
        previous = self._seen.setdefault(key, fingerprint)
        if previous != fingerprint:
            raise EngineError(f"translator determinism violation for query {key[:3]}")


def _joint_hypothesis(
    translators: Mapping[str, IncrementalTranslator],
    prefixes: Mapping[str, TokenSequence],
    committed: Sequence[str],
    vocab: Vocabulary,
    final: bool,
    guard: _DeterminismGuard,
    max_new_tokens: int,
) -> list[str]:
    """One greedy hypothesis from all members via stepwise late averaging.

    Each member's last answer is read with a cursor. After a joint token, a
    member whose own next token it was moves its cursor on (by greedy
    consistency that is what a new query would answer); the others, and any
    member without a vector left, are queried again at the next step.
    """
    langs = list(translators)

    def query(lang: str, target: Sequence[str]) -> DecodeResult:
        result = translators[lang].decode(prefixes[lang], target, vocab, final)
        guard.check((lang, len(prefixes[lang]), tuple(target), final), result)
        return result

    if len(langs) == 1:
        return list(committed) + list(query(langs[0], committed).tokens)

    target = list(committed)
    results: list[DecodeResult | None] = [None] * len(langs)
    cursors = [0] * len(langs)
    for _ in range(max_new_tokens):
        vectors = []
        for m, lang in enumerate(langs):
            result = results[m]
            if result is None:
                result = results[m] = query(lang, target)
                cursors[m] = 0
                if not result.step_scores:
                    raise EngineError(f"translator for {lang!r} returned no score vector")
            vectors.append(result.step_scores[cursors[m]])
        combined = late_average(vectors)
        token = vocab.token(int(np.argmax(combined)))
        if token == EOS:
            break
        target.append(token)
        for m, result in enumerate(results):
            c = cursors[m]
            if (
                c < len(result.tokens)
                and result.tokens[c] == token
                and c + 1 < len(result.step_scores)
            ):
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
    append-only, so the log never contains Revise events.
    """
    if set(translators) != set(sources):
        raise ContractError("translators and sources must cover the same languages")
    if sum(len(s.tokens) for s in sources.values()) == 0:
        raise ContractError("all sources are empty")

    vocab = _build_vocab(translators, sources)
    schedule = schedule_reads(sources)

    max_new_tokens = 2 * sum(len(s.tokens) for s in sources.values()) + 8
    state = LocalAgreementState(n)
    log = SimulEventLog()
    guard = _DeterminismGuard()
    prefixes = {lang: source.prefix(0) for lang, source in sources.items()}
    last_hypothesis: list[str] = []

    for k, slot in enumerate(schedule):
        source = sources[slot.language]
        prefixes[slot.language] = source.prefix(slot.token_index + 1)
        log.append(ReadEvent(slot.language, source.tokens[slot.token_index]))
        last_hypothesis = _joint_hypothesis(
            translators, prefixes, state.committed, vocab, k == len(schedule) - 1,
            guard, max_new_tokens,
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
    if set(translators) != set(sources):
        raise ContractError("translators and sources must cover the same languages")
    vocab = _build_vocab(translators, sources)
    max_new_tokens = 2 * sum(len(s.tokens) for s in sources.values()) + 8
    return _joint_hypothesis(
        translators, dict(sources), [], vocab, True, _DeterminismGuard(), max_new_tokens
    )
