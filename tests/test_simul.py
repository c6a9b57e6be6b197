from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multisimul.corpus import TokenSequence
from multisimul.errors import ContractError, EngineError
from multisimul.metrics import average_lagging, normalized_erasure
from multisimul.mock_mt import LexiconTranslator
from multisimul.simul import (
    EOS,
    DecodeResult,
    FlushEvent,
    LocalAgreementState,
    ReadEvent,
    Vocabulary,
    WriteEvent,
    _common_prefix,
    decode_full,
    la_step,
    late_average,
    run_simul,
    schedule_reads,
)
from conftest import ReorderingTranslator
from oracles import (
    SPLIT_ALPHABET,
    _reference_common_prefix,
    reference_decode_full,
    reference_run_simul,
    reference_token_offsets,
)


class TestLocalAgreement:
    def test_ring_not_full_commits_nothing(self):
        state = LocalAgreementState(2)
        assert la_step(state, ["a", "b", "c"]) == []
        assert state.committed == []

    def test_common_prefix_committed(self):
        state = LocalAgreementState(2)
        la_step(state, ["a", "b", "c"])
        assert la_step(state, ["a", "b", "d"]) == ["a", "b"]
        assert state.committed == ["a", "b"]

    def test_commit_beyond_committed(self):
        state = LocalAgreementState(2, committed=["a", "b"], recent=[["a", "b", "d", "e"]])
        assert la_step(state, ["a", "b", "d", "f"]) == ["d"]
        assert state.committed == ["a", "b", "d"]

    def test_hypothesis_must_extend_committed(self):
        state = LocalAgreementState(2, committed=["a"], recent=[["a", "b"]])
        with pytest.raises(ContractError):
            la_step(state, ["x", "y"])

    def test_n_must_be_positive(self):
        with pytest.raises(ContractError):
            LocalAgreementState(0)

    @given(st.data(), st.lists(st.sampled_from("abc"), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_common_prefix_matches_oracle(self, data, shared):
        # 1 to 15 hypotheses, each a random cut of one shared prefix plus a
        # random tail, so that rings agree on prefixes of every length
        ring = [
            shared[: data.draw(st.integers(0, len(shared)))]
            + data.draw(st.lists(st.sampled_from("abc"), max_size=4))
            for _ in range(data.draw(st.integers(1, 15)))
        ]
        assert _common_prefix(ring) == _reference_common_prefix(ring)


class TestScheduleReads:
    def test_hand_sorted_fractions(self):
        # En token ends at 4/10 and 10/10; De at 3/10, 6/10, 10/10
        sources = {
            "en": TokenSequence.from_raw("abcd efghi"),
            "de": TokenSequence.from_raw("abc de fgh"),
        }
        assert schedule_reads(sources) == [
            ("de", 0),
            ("en", 0),
            ("de", 1),
            ("en", 1),
            ("de", 2),
        ]

    def test_single_language_natural_order(self):
        sources = {"en": TokenSequence.from_raw("a bb ccc")}
        assert schedule_reads(sources) == [("en", 0), ("en", 1), ("en", 2)]

    def test_identical_fractions_alternate_by_mapping_order(self):
        sources = {
            "b_lang": TokenSequence.from_raw("x y z"),
            "a_lang": TokenSequence.from_raw("x y z"),
        }
        assert [lang for lang, _ in schedule_reads(sources)] == [
            "b_lang", "a_lang", "b_lang", "a_lang", "b_lang", "a_lang",
        ]

    def test_length_equals_total_tokens(self):
        sources = {
            "en": TokenSequence.from_raw("a b c d"),
            "de": TokenSequence.from_raw("ee ff"),
        }
        assert len(schedule_reads(sources)) == 6

    def test_partial_prefix_fraction(self):
        # "ab" ends at character 2 of 5 (0.4): after 2 of 6, before 2 of 4
        en = TokenSequence.from_raw("ab cd")
        de_first = {"en": en, "de": TokenSequence.from_raw("ab cde")}
        en_first = {"en": en, "de": TokenSequence.from_raw("ab c")}
        assert schedule_reads(de_first)[:2] == [("de", 0), ("en", 0)]
        assert schedule_reads(en_first)[:2] == [("en", 0), ("de", 0)]

    def test_full_prefix_fraction(self):
        # both last tokens end at fraction 1, so they tie in either mapping
        # order and the language given first reads its last token first
        de, en = TokenSequence.from_raw("abc d"), TokenSequence.from_raw("a b")
        assert schedule_reads({"de": de, "en": en})[-2:] == [("de", 1), ("en", 1)]
        assert schedule_reads({"en": en, "de": de})[-2:] == [("en", 1), ("de", 1)]

    @given(st.lists(st.text(alphabet=SPLIT_ALPHABET, max_size=20), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_fractions_match_regex_oracle(self, texts):
        # each token's end, found by regex, over the raw length; ordered by
        # the exact fraction, then mapping order, then token index
        sources = {f"l{rank}": TokenSequence.from_raw(text) for rank, text in enumerate(texts)}
        expected = []
        for rank, (lang, sent) in enumerate(sources.items()):
            raw, words, offsets = reference_token_offsets(sent.raw)
            for i, (tok, offset) in enumerate(zip(words, offsets)):
                exact = Fraction(offset + len(tok), len(raw))
                expected.append((exact, rank, i, lang))
        expected.sort()
        assert schedule_reads(sources) == [(lang, i) for _, _, i, lang in expected]

    def test_errors(self):
        with pytest.raises(ContractError):
            schedule_reads({})


class TestLateAverage:
    def test_single_member_identity(self):
        vec = np.array([0.2, 0.8])
        assert np.array_equal(late_average([vec]), vec)

    def test_two_members(self):
        combined = late_average([np.array([2.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0])])
        assert combined.tolist() == [1.0, 0.5, 1.5]
        assert int(np.argmax(combined)) == 2

    def test_identical_members_keep_argmax(self):
        vec = np.array([0.1, 0.7, 0.2])
        combined = late_average([vec, vec, vec])
        assert int(np.argmax(combined)) == int(np.argmax(vec))

    def test_shift_invariance_of_argmax(self):
        members = [np.array([2.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0])]
        shifted = [m + 5.0 for m in members]
        assert int(np.argmax(late_average(members))) == int(
            np.argmax(late_average(shifted))
        )

    def test_errors(self):
        with pytest.raises(ContractError, match=r"^late_average needs at least one score vector$"):
            late_average([])
        with pytest.raises(ContractError, match=r"^score vector dimensions differ: \[2, 3\]$"):
            late_average([np.zeros(3), np.zeros(2), np.zeros(3)])

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([np.float64, np.float32, np.int64]),
                st.lists(
                    st.tuples(st.floats(-1, 1), st.integers(-8, 8)), min_size=4, max_size=4
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    # numpy's sum starts from +0.0, so a column of -0.0 averages to +0.0
    @example([(np.float64, [(-0.0, 0)] * 4)])
    @example([(np.float64, [(-0.0, 0)] * 4)] * 3)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_stacked_mean(self, members):
        # vectors of mixed dtypes whose entries span magnitudes 1e-8 to 1e8
        vectors = [
            np.array([m * 10.0**e for m, e in entries]).astype(dtype)
            for dtype, entries in members
        ]
        expected = np.add.reduce(np.asarray(vectors, dtype=float), axis=0) / len(vectors)
        combined = late_average(vectors)
        assert combined.dtype == expected.dtype
        assert combined.tobytes() == expected.tobytes()
        assert all(not np.shares_memory(combined, v) for v in vectors)


IDENTITY_LEXICON = {"a": "a", "b": "b", "c": "c"}


class TestRunSimul:
    def test_identity_la2_hand_trace(self):
        translator = LexiconTranslator(IDENTITY_LEXICON)
        source = TokenSequence.from_raw("a b c")
        output, log = run_simul({"en": translator}, {"en": source}, 2)
        assert output == ["a", "b", "c"]
        assert log.events == [
            ReadEvent("en", "a"),
            ReadEvent("en", "b"),
            WriteEvent("a"),
            ReadEvent("en", "c"),
            WriteEvent("b"),
            FlushEvent(),
            WriteEvent("c"),
        ]
        assert [e.token for e in log.events if isinstance(e, WriteEvent)] == output

    def test_multi_identical_sources_match_single(self):
        lex = {"a": "A", "b": "B", "c": "C"}
        source = TokenSequence.from_raw("a b c")
        single, _ = run_simul({"en": LexiconTranslator(lex)}, {"en": source}, 2)
        multi, _ = run_simul(
            {"en": LexiconTranslator(lex), "de": LexiconTranslator(lex)},
            {"en": source, "de": source},
            2,
        )
        assert multi == single

    def test_la_infinity_reads_all_then_flushes(self):
        translator = LexiconTranslator(IDENTITY_LEXICON)
        source = TokenSequence.from_raw("a b c")
        output, log = run_simul({"en": translator}, {"en": source}, 50)
        assert output == ["a", "b", "c"]
        report = average_lagging(log, "en")
        assert report.al == pytest.approx(3.0)  # read-all-then-write
        # every Write comes after the Flush
        flush_at = log.events.index(FlushEvent())
        assert all(
            not isinstance(e, WriteEvent) for e in log.events[:flush_at]
        )

    def test_committed_stream_is_append_only(self):
        translator = LexiconTranslator(IDENTITY_LEXICON)
        source = TokenSequence.from_raw("a b c")
        for n in (1, 2, 3):
            _, log = run_simul({"en": translator}, {"en": source}, n)
            assert normalized_erasure(log).ne == 0.0

    def test_online_equals_offline_for_prefix_consistent_mock(self):
        lex = {"a": "A", "b": "B", "c": "C", "d": "D"}
        translator = LexiconTranslator(lex)
        source = TokenSequence.from_raw("a b d c")
        offline = decode_full({"en": translator}, {"en": source})
        for n in (1, 2, 5):
            online, _ = run_simul({"en": translator}, {"en": source}, n)
            assert online == offline

    def test_determinism_guard(self):
        class Flaky:
            def __init__(self):
                self.calls = 0

            def output_tokens(self, source):
                return {"x", "y", EOS}

            def decode(self, source_prefix, forced_target, vocab, final=False):
                self.calls += 1
                token = "x" if self.calls % 2 else "y"
                return DecodeResult((token,), (vocab.one_hot(token), vocab.one_hot(EOS)))

        # in multi mode the engine re-asks the same (prefix, forced) query
        # across rounds, which is where flakiness becomes observable
        source = TokenSequence.from_raw("a b c")
        stable = LexiconTranslator({"a": "x", "b": "x", "c": "x"})
        with pytest.raises(EngineError, match="determinism violation"):
            run_simul(
                {"en": Flaky(), "de": stable}, {"en": source, "de": source}, 5
            )

    @pytest.mark.parametrize("vectors", [0, 1, 3])
    def test_answer_without_one_eos_vector(self, vectors):
        # one token must come with exactly two vectors: its own and EOS
        class Miscounted:
            def output_tokens(self, source):
                return {"x", EOS}

            def decode(self, source_prefix, forced_target, vocab, final=False):
                return DecodeResult(("x",), (vocab.one_hot("x"),) * vectors)

        source = TokenSequence.from_raw("a")
        stable = LexiconTranslator({"a": "x"})
        with pytest.raises(EngineError, match=f"'de' returned {vectors} score vectors for 1 tokens"):
            run_simul({"en": stable, "de": Miscounted()}, {"en": source, "de": source}, 1)

    def test_argument_errors(self):
        translator = LexiconTranslator(IDENTITY_LEXICON)
        with pytest.raises(ContractError):
            run_simul({"en": translator}, {"de": TokenSequence.from_raw("a")}, 2)

    @pytest.mark.parametrize("langs", [["en"], ["en", "de"]])
    def test_all_sources_empty(self, langs):
        translators = {lang: LexiconTranslator(IDENTITY_LEXICON) for lang in langs}
        sources = {lang: TokenSequence.from_raw("") for lang in langs}
        final, log = run_simul(translators, sources, 2)
        assert final == []
        assert log.events == [FlushEvent()]


SOURCE_WORDS = ["a", "bb", "c", "ddd", "e"]
TARGET_WORDS = ["x", "y", "z"]


@st.composite
def _translator_specs(draw):
    """Constructor arguments of one mock member (built fresh for each engine)."""
    lexicon = draw(
        st.dictionaries(st.sampled_from(SOURCE_WORDS), st.sampled_from(TARGET_WORDS))
    )
    if draw(st.booleans()):
        deferred = draw(st.sets(st.sampled_from(SOURCE_WORDS)))
        return ReorderingTranslator, (lexicon, deferred)
    return LexiconTranslator, (lexicon,)


@st.composite
def _streaming_cases(draw):
    langs = [f"l{i}" for i in range(draw(st.integers(1, 3)))]
    # the sources' mapping order breaks ties between reads; the members keep
    # ``langs`` order, so the two orders differ in many cases
    sources = {
        lang: TokenSequence.from_tokens(
            draw(st.lists(st.sampled_from(SOURCE_WORDS), max_size=6))
        )
        for lang in draw(st.permutations(langs))
    }
    if not any(s.tokens for s in sources.values()):
        sources[langs[0]] = TokenSequence.from_tokens(["a"])
    specs = {lang: draw(_translator_specs()) for lang in langs}
    return sources, specs, draw(st.integers(1, 6))


def _build(specs):
    return {lang: cls(*args) for lang, (cls, args) in specs.items()}


class _Fresh:
    """Answers every query with a new translator, so no query memo is involved."""

    def __init__(self, cls, args):
        self.make = lambda: cls(*args)

    def output_tokens(self, source):
        return self.make().output_tokens(source)

    def decode(self, *query):
        return self.make().decode(*query)


def _build_fresh(specs):
    return {lang: _Fresh(*spec) for lang, spec in specs.items()}


def _event_tuples(log):
    tuples = []
    for event in log.events:
        if isinstance(event, ReadEvent):
            tuples.append(("read", event.language, event.token))
        elif isinstance(event, WriteEvent):
            tuples.append(("write", event.token))
        else:
            assert isinstance(event, FlushEvent)
            tuples.append(("flush",))
    return tuples


class TestEngineOracle:
    """The incremental engine against a reference that re-queries every member
    at every target step and compares whole hypotheses in the LA ring."""

    @given(_streaming_cases())
    @settings(max_examples=300, deadline=None)
    def test_run_simul_matches_reference(self, case):
        sources, specs, n = case
        output, log = run_simul(_build(specs), sources, n)
        expected = reference_run_simul(_build_fresh(specs), sources, n)
        assert (output, _event_tuples(log)) == expected

    @given(_streaming_cases())
    @settings(max_examples=100, deadline=None)
    def test_decode_full_matches_reference(self, case):
        sources, specs, _ = case
        expected = reference_decode_full(_build_fresh(specs), sources)
        assert decode_full(_build(specs), sources) == expected


class TestVocabulary:
    def test_eos_at_index_zero(self):
        vocab = Vocabulary(["zebra", "apple", EOS])
        assert vocab.token(0) == EOS
        assert vocab.index(EOS) == 0
        assert vocab.token(1) == "apple"

    def test_one_hot(self):
        vocab = Vocabulary(["b", "a"])
        vec = vocab.one_hot("a", margin=0.5)
        assert vec[vocab.index("a")] == 0.5
        assert vec.sum() == 0.5
        # answers may share a vector, so none can be changed in place
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 1.0

