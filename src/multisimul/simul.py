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
    "run_retranslation",
    "generate_prefix_pairs",
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

    def __contains__(self, token: str) -> bool:
        return token in self._index

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


def schedule_reads(
    sources: Mapping[str, TokenSequence],
    tie_order: Sequence[str] | None = None,
) -> list[ReadSlot]:
    """Interleave per-language reads sorted by character-length fraction.

    Each slot advances exactly one language by one token. Ties break by
    ``tie_order`` (default: mapping order), then token index.
    """
    if not sources:
        raise ContractError("at least one source language is required")
    order = list(tie_order) if tie_order is not None else list(sources)
    for lang in sources:
        if lang not in order:
            raise ContractError(f"language {lang!r} missing from tie order")
    rank = {lang: i for i, lang in enumerate(order)}
    slots = [
        ReadSlot(lang, i, char_fraction(sent, i + 1))
        for lang, sent in sources.items()
        for i in range(len(sent.tokens))
    ]
    slots.sort(key=lambda s: (s.fraction, rank[s.language], s.token_index))
    return slots


def late_average(
    step_scores: Sequence[np.ndarray], *, log_domain: bool = False
) -> np.ndarray:
    """Element-wise arithmetic mean of member score vectors.

    With ``log_domain=True`` the vectors are averaged in log space (geometric
    mean), for members that expose normalized probabilities instead of raw
    scores; zero entries stay zero.
    """
    if not step_scores:
        raise ContractError("late_average needs at least one score vector")
    dims = {len(v) for v in step_scores}
    if len(dims) != 1:
        raise ContractError(f"score vector dimensions differ: {sorted(dims)}")
    arr = np.asarray(step_scores, dtype=float)
    # a sum then a division by the count is what np.mean computes, bit for bit
    if log_domain:
        with np.errstate(divide="ignore"):
            return np.exp(np.add.reduce(np.log(arr), axis=0) / len(arr))
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
    log_domain: bool = False,
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
        combined = late_average(vectors, log_domain=log_domain)
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
    *,
    tie_order: Sequence[str] | None = None,
    update_languages: Sequence[str] | None = None,
    log_domain: bool = False,
) -> tuple[list[str], SimulEventLog]:
    """Stream all sources through a Local-Agreement-n policy.

    Single-source when one translator is given, multi-source late averaging
    otherwise. Every Read counts one update toward LA-n; pass
    ``update_languages`` to restrict update counting to a subset of languages
    (reads of the others still advance prefixes but trigger no update). At
    source exhaustion a Flush commits the rest of the latest hypothesis.
    Committed output is append-only, so the log never contains Revise events.
    """
    if set(translators) != set(sources):
        raise ContractError("translators and sources must cover the same languages")
    update_langs = set(update_languages) if update_languages is not None else set(sources)
    if not update_langs <= set(sources):
        raise ContractError(
            f"update languages {sorted(update_langs - set(sources))} have no source"
        )
    if sum(len(s.tokens) for s in sources.values()) == 0:
        raise ContractError("all sources are empty")

    vocab = _build_vocab(translators, sources)
    schedule = schedule_reads(sources, tie_order)

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
        final = k == len(schedule) - 1
        if slot.language not in update_langs and not final:
            continue
        last_hypothesis = _joint_hypothesis(
            translators, prefixes, state.committed, vocab, final, guard,
            max_new_tokens, log_domain,
        )
        if slot.language in update_langs:
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
    *,
    log_domain: bool = False,
) -> list[str]:
    """Offline greedy decoding of complete sources (late-averaged when multi)."""
    if set(translators) != set(sources):
        raise ContractError("translators and sources must cover the same languages")
    vocab = _build_vocab(translators, sources)
    max_new_tokens = 2 * sum(len(s.tokens) for s in sources.values()) + 8
    return _joint_hypothesis(
        translators, dict(sources), [], vocab, True, _DeterminismGuard(),
        max_new_tokens, log_domain,
    )


def run_retranslation(
    translator: IncrementalTranslator,
    source: TokenSequence,
    language: str = "src",
) -> tuple[list[str], SimulEventLog]:
    """Re-translate from scratch after every read, logging Revise events.

    This mode exists to measure erasure on translators whose prefix
    hypotheses are unstable; it never forces a target prefix.
    """
    if len(source.tokens) == 0:
        raise ContractError("source is empty")
    vocab = Vocabulary(translator.output_tokens(source))
    log = SimulEventLog()
    buffer: list[str] = []
    for i in range(1, len(source.tokens) + 1):
        log.append(ReadEvent(language, source.tokens[i - 1]))
        final = i == len(source.tokens)
        result = translator.decode(source.prefix(i), [], vocab, final)
        hyp = list(result.tokens)
        common = len(_common_prefix([buffer, hyp]))
        if common < len(buffer):
            log.append(ReviseEvent(len(buffer) - common, tuple(hyp[common:])))
        else:
            for token in hyp[common:]:
                log.append(WriteEvent(token))
        buffer = hyp
    log.append(FlushEvent())
    return buffer, log


def _round_up_to_word(sentence: TokenSequence, char_target: float) -> int:
    """Smallest prefix length whose character coverage reaches ``char_target``."""
    for k in range(1, len(sentence.tokens) + 1):
        covered = sentence.char_offsets[k - 1] + len(sentence.tokens[k - 1])
        if covered >= char_target:
            return k
    return len(sentence.tokens)


def generate_prefix_pairs(
    src: TokenSequence,
    tgt: TokenSequence,
    samples_per_pair: int = 5,
    seed: int = 0,
) -> list[tuple[TokenSequence, TokenSequence]]:
    """Sample prefix pairs plus full pairs in a 1:1 mix.

    Each sample draws one percentage from 1..90, shared by source and target,
    takes that share of characters on both sides and rounds up to whole-word
    boundaries. One full pair accompanies every prefix pair.
    """
    if len(src.tokens) == 0 or len(tgt.tokens) == 0:
        raise ContractError("prefix pairs need non-empty source and target")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[TokenSequence, TokenSequence]] = []
    for _ in range(samples_per_pair):
        percent = int(rng.integers(1, 91))
        src_k = _round_up_to_word(src, percent / 100.0 * len(src.raw))
        tgt_k = _round_up_to_word(tgt, percent / 100.0 * len(tgt.raw))
        pairs.append((src.prefix(src_k), tgt.prefix(tgt_k)))
        pairs.append((src, tgt))
    return pairs
