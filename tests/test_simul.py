import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisimul.corpus import TokenSequence
from multisimul.errors import ContractError, EngineError
from multisimul.metrics import average_lagging, normalized_erasure
from multisimul.mock_mt import KNOWN_MARGIN, UNKNOWN_MARGIN, LexiconTranslator
from multisimul.simul import (
    EOS,
    DecodeResult,
    FlushEvent,
    ReadEvent,
    Vocabulary,
    WriteEvent,
    _common_prefix,
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

IDENTITY_LEXICON = {"a": "a", "b": "b", "c": "c"}


class _Recording:
    """Passes each ``decode`` call on and records its source prefix, forced
    target and end-of-input flag."""

    def __init__(self, translator):
        self.translator = translator
        self.calls = []

    def output_tokens(self, source):
        return self.translator.output_tokens(source)

    def decode(self, source_prefix, forced_target, vocab, final=False):
        self.calls.append((source_prefix, tuple(forced_target), final))
        return self.translator.decode(source_prefix, forced_target, vocab, final)


class TestLocalAgreement:
    def test_common_prefix_committed(self):
        # b reads as the guess <b?> until the last read, so LA-2 commits A
        # after the second read and leaves B C, never the guess, to the Flush
        translator = ReorderingTranslator({"a": "A", "b": "B", "c": "C"}, {"b"})
        source = TokenSequence.from_raw("a b c")
        output, log = run_simul({"en": translator}, {"en": source}, 2)
        assert output == ["A", "B", "C"]
        assert log.events == [
            ReadEvent("en", "a"),
            ReadEvent("en", "b"),
            WriteEvent("A"),
            ReadEvent("en", "c"),
            FlushEvent(),
            WriteEvent("B"),
            WriteEvent("C"),
        ]

    def test_commit_beyond_committed(self):
        # at the fourth read the ring holds only the last three hypotheses,
        # and they are compared beyond the committed "a": b is committed
        translator = LexiconTranslator(IDENTITY_LEXICON | {"d": "d"})
        source = TokenSequence.from_raw("a b c d")
        output, log = run_simul({"en": translator}, {"en": source}, 3)
        assert output == ["a", "b", "c", "d"]
        assert log.events == [
            ReadEvent("en", "a"),
            ReadEvent("en", "b"),
            ReadEvent("en", "c"),
            WriteEvent("a"),
            ReadEvent("en", "d"),
            WriteEvent("b"),
            FlushEvent(),
            WriteEvent("c"),
            WriteEvent("d"),
        ]

    def test_n_must_be_positive(self):
        translator = LexiconTranslator(IDENTITY_LEXICON)
        with pytest.raises(ContractError, match="^agreement size must be at least 1$"):
            run_simul({"en": translator}, {"en": TokenSequence.from_raw("a")}, 0)

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
        source = TokenSequence.from_raw("a b c")
        # the end-of-sentence marker is outside the token alphabet, so a word
        # spelled </s> ends neither a single- nor a multi-source hypothesis
        for lex in ({"a": "A", "b": "B", "c": "C"}, {"a": "A", "b": "</s>", "c": "C"}):
            single, _ = run_simul({"en": LexiconTranslator(lex)}, {"en": source}, 2)
            multi, _ = run_simul(
                {"en": LexiconTranslator(lex), "de": LexiconTranslator(lex)},
                {"en": source, "de": source},
                2,
            )
            assert multi == single == [lex[tok] for tok in source.tokens]

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
        offline, _ = run_simul({"en": translator}, {"en": source}, sys.maxsize)
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
                votes = ((vocab.index(token), 1.0), (vocab.index(EOS), 1.0))
                return DecodeResult((token,), votes)

        # in multi mode the engine re-asks the same (prefix, forced) query
        # across rounds, which is where flakiness becomes observable
        source = TokenSequence.from_raw("a b c")
        stable = LexiconTranslator({"a": "x", "b": "x", "c": "x"})
        with pytest.raises(EngineError, match="determinism violation"):
            run_simul(
                {"en": Flaky(), "de": stable}, {"en": source, "de": source}, 5
            )

    @pytest.mark.parametrize(
        "langs, votes",
        [(["en", "de"], 0), (["en", "de"], 1), (["en", "de"], 3), (["de"], 0)],
        ids=["0", "1", "3", "single_source"],
    )
    def test_answer_without_one_eos_vector(self, langs, votes):
        # one token must come with exactly two votes: its own and EOS, also
        # when a single member's answer is taken without summing votes
        class Miscounted:
            def output_tokens(self, source):
                return {"x", EOS}

            def decode(self, source_prefix, forced_target, vocab, final=False):
                return DecodeResult(("x",), ((vocab.index("x"), 1.0),) * votes)

        source = TokenSequence.from_raw("a")
        translators = {lang: LexiconTranslator({"a": "x"}) for lang in langs}
        translators["de"] = Miscounted()
        with pytest.raises(EngineError, match=f"'de' returned {votes} scores for 1 tokens"):
            run_simul(translators, {lang: source for lang in langs}, 1)

    @pytest.mark.parametrize("n", [6, 2**63])
    def test_above_read_count_decodes_once(self, n):
        # five reads and a ring of more than five: only the last read, the
        # offline query, is decoded
        translator = _Recording(LexiconTranslator({"a": "A", "b": "B"}))
        source = TokenSequence.from_raw("a b a b a")
        output, _ = run_simul({"en": translator}, {"en": source}, n)
        assert output == ["A", "B", "A", "B", "A"]
        assert translator.calls == [(source.tokens, (), True)]

    def test_above_read_count_queries_whole_sources(self):
        # five reads and a ring of six: de dissents from the joint x and is
        # queried again, and every query has the member's whole source
        en = _Recording(LexiconTranslator({"a": "x", "b": "y"}))
        de = _Recording(LexiconTranslator({"c": "y", "d": "x"}))
        sources = {
            "en": TokenSequence.from_raw("a b a"),
            "de": TokenSequence.from_raw("c d"),
        }
        output, _ = run_simul({"en": en, "de": de}, sources, 6)
        assert output == ["x"]
        assert en.calls == [(("a", "b", "a"), (), True)]
        assert de.calls == [(("c", "d"), (), True), (("c", "d"), ("x",), True)]

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


class TestVoteSum:
    @pytest.mark.parametrize(
        "copiers, translation, expected",
        [(2, "a", "a"), (2, "z", "w"), (3, "a", "w"), (3, "z", "w")],
    )
    def test_copies_against_a_translation(self, copiers, translation, expected):
        # each copier votes for the unknown word w at UNKNOWN_MARGIN, the last
        # member for its translation at KNOWN_MARGIN: two copies tie with the
        # translation exactly, and the word that sorts first wins; three
        # copies sum to 1.5 and win even when w sorts last
        assert UNKNOWN_MARGIN + UNKNOWN_MARGIN == KNOWN_MARGIN
        members = {f"copy{i}": LexiconTranslator({}) for i in range(copiers)}
        members["lex"] = LexiconTranslator({"w": translation})
        source = TokenSequence.from_raw("w")
        output, _ = run_simul(members, {lang: source for lang in members}, sys.maxsize)
        assert output == [expected]


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
def _streaming_cases(draw, max_langs=3):
    langs = [f"l{i}" for i in range(draw(st.integers(1, max_langs)))]
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
        assert run_simul(_build(specs), sources, sys.maxsize)[0] == expected


class TestLaAboveReadCount:
    @given(_streaming_cases(max_langs=2), st.data())
    @settings(max_examples=200, deadline=None)
    def test_run_simul_equals_decode_full(self, case, data):
        # the ring never fills before the last read, whose hypothesis is the
        # offline one, so the Flush commits exactly the offline decode; n equal
        # to the read count keeps the ring path, a larger n builds only that
        # last hypothesis
        sources, specs, _ = case
        reads = sum(len(s.tokens) for s in sources.values())
        n = data.draw(st.one_of(st.integers(reads, reads + 3), st.just(2**63)))
        online, _ = run_simul(_build(specs), sources, n)
        assert online == reference_decode_full(_build_fresh(specs), sources)


class TestVocabulary:
    def test_eos_at_index_zero(self):
        # the vocabulary adds EOS itself
        for tokens in (["zebra", "apple", EOS], ["zebra", "apple"]):
            vocab = Vocabulary(tokens)
            assert vocab.token(0) == EOS
            assert vocab.index(EOS) == 0
            assert vocab.token(1) == "apple"
