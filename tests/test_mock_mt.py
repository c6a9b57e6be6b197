import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisimul.corpus import TokenSequence
from multisimul.errors import InputError
from multisimul.mock_mt import (
    KNOWN_MARGIN,
    UNKNOWN_MARGIN,
    LexiconTranslator,
    load_lexicon,
)
from multisimul.simul import EOS, Vocabulary, decode_full, late_average, run_simul

from conftest import ReorderingTranslator


def _vocab_for(translator, source):
    return Vocabulary(translator.output_tokens(source))


class TestLexiconTranslator:
    def test_word_for_word(self):
        translator = LexiconTranslator({"a": "A", "b": "B"})
        source = ("a", "b")
        result = translator.decode(source, [], _vocab_for(translator, source))
        assert result.tokens == ("A", "B")
        # one vector per token, then the EOS vector
        assert len(result.step_scores) == 3
        assert result.step_scores[-1].argmax() == 0  # EOS is index 0

    def test_unknown_copy_policy(self):
        translator = LexiconTranslator({"a": "A"})
        source = ("a", "zzz")
        result = translator.decode(source, [], _vocab_for(translator, source))
        assert result.tokens == ("A", "zzz")

    def test_margins(self):
        translator = LexiconTranslator({"a": "A"})
        source = ("a", "zzz")
        vocab = _vocab_for(translator, source)
        result = translator.decode(source, [], vocab)
        assert result.step_scores[0][vocab.index("A")] == KNOWN_MARGIN
        assert result.step_scores[1][vocab.index("zzz")] == UNKNOWN_MARGIN
        assert result.step_scores[2][vocab.index(EOS)] == KNOWN_MARGIN

    def test_forced_prefix_consumed(self):
        translator = LexiconTranslator({"a": "A", "b": "B"})
        source = ("a", "b")
        result = translator.decode(source, ["A"], _vocab_for(translator, source))
        assert result.tokens == ("B",)

    def test_prefix_consistency(self):
        translator = LexiconTranslator({"a": "A", "b": "B", "c": "C"})
        source = ("a", "b", "c")
        vocab = _vocab_for(translator, source)
        full = translator.decode(source, [], vocab).tokens
        for k in range(1, len(source) + 1):
            partial = translator.decode(source[:k], [], vocab).tokens
            assert full[: len(partial)] == partial

    def test_foreign_forced_tokens_are_skipped(self):
        # forced prefix contains a token produced by another ensemble member;
        # the translator skips it instead of failing
        translator = LexiconTranslator({"a": "A", "b": "B"})
        source = ("a", "b")
        result = translator.decode(
            source, ["A", "OTHER"], _vocab_for(translator, source)
        )
        assert result.tokens == ("B",)

    def test_disagreeing_mocks_tie_breaks_to_lowest_index(self):
        en = LexiconTranslator({"w": "alpha"})
        de = LexiconTranslator({"w": "beta"})
        source = TokenSequence.from_raw("w")
        output = decode_full({"en": en, "de": de}, {"en": source, "de": source})
        # equal margins tie; "alpha" sorts before "beta" in the vocabulary
        assert output == ["alpha"]

    def test_deterministic(self):
        translator = LexiconTranslator({"a": "A"})
        source = ("a", "a", "a")
        vocab = _vocab_for(translator, source)
        first = translator.decode(source, [], vocab)
        second = translator.decode(source, [], vocab)
        assert first.tokens == second.tokens
        assert all(
            np.array_equal(x, y)
            for x, y in zip(first.step_scores, second.step_scores)
        )


class TestReorderingTranslator:
    def test_provisional_guess_until_final(self):
        translator = ReorderingTranslator({"v": "V", "a": "A"}, deferred={"v"})
        source = ("v", "a")
        vocab = Vocabulary(translator.output_tokens(source))
        partial = translator.decode(source, [], vocab, final=False)
        assert partial.tokens == ("<v?>", "A")
        final = translator.decode(source, [], vocab, final=True)
        assert final.tokens == ("V", "A")

    def test_no_deferred_words_is_stable(self):
        translator = ReorderingTranslator({"a": "A"}, deferred={"v"})
        source = ("a", "a")
        vocab = Vocabulary(translator.output_tokens(source))
        assert (
            translator.decode(source, [], vocab, final=False).tokens
            == translator.decode(source, [], vocab, final=True).tokens
        )

    def test_output_tokens_include_guesses(self):
        translator = ReorderingTranslator({"v": "V"}, deferred={"v"})
        source = ("v",)
        assert {"V", "<v?>", EOS} <= translator.output_tokens(source)


def _answer(translator, source, forced, vocab, final):
    """A decode answer as comparable values."""
    result = translator.decode(source, forced, vocab, final)
    return result.tokens, [v.tolist() for v in result.step_scores]


MEMO_LEXICON = {"a": "A", "b": "B", "c": "C", "d": "A"}
MEMO_TARGETS = ["A", "B", "C", "b", "<b?>", "Z"]


class TestQueryMemo:
    """A translator that remembers its last query answers like a fresh one."""

    @given(
        st.data(),
        st.booleans(),
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_interleaved_queries_match_fresh_translator(self, data, reordering, sentence):
        def make():
            if reordering:
                return ReorderingTranslator(MEMO_LEXICON, {"b"})
            return LexiconTranslator(MEMO_LEXICON)

        translator = make()
        full = tuple(sentence)
        # "0" sorts before every word, so the two vocabularies index apart
        tokens = translator.output_tokens(full)
        vocabs = [Vocabulary(tokens), Vocabulary(tokens | {"0"})]
        forced: list[str] = []
        for _ in range(data.draw(st.integers(1, 15))):
            length = data.draw(st.integers(0, len(sentence)))
            action = data.draw(st.sampled_from(["extend", "cut", "replace", "keep"]))
            if action == "extend":
                forced += data.draw(st.lists(st.sampled_from(MEMO_TARGETS), max_size=3))
            elif action == "cut":
                forced = forced[: data.draw(st.integers(0, len(forced)))]
            elif action == "replace":
                forced = data.draw(st.lists(st.sampled_from(MEMO_TARGETS), max_size=6))
            vocab = vocabs[data.draw(st.integers(0, 1))]
            final = data.draw(st.booleans())
            source = full[:length]
            assert _answer(translator, source, forced, vocab, final) == _answer(
                make(), source, forced, vocab, final
            )

    def test_longer_source_finds_missing_forced_token(self):
        translator = LexiconTranslator({"a": "A", "b": "B"})
        source = ("a", "b")
        vocab = _vocab_for(translator, source)
        # "B" is another member's token for the one-word prefix ...
        assert translator.decode(source[:1], ["B"], vocab).tokens == ("A",)
        # ... and this translator's own second word once the source grows
        assert translator.decode(source, ["B"], vocab).tokens == ()

    def test_missing_vocabulary_token_keeps_the_memo(self):
        translator = LexiconTranslator({"a": "A"})
        vocab = Vocabulary({"A", EOS})
        assert translator.decode(("a",), [], vocab).tokens == ("A",)
        with pytest.raises(KeyError):
            translator.decode(("a", "zzz"), [], vocab)  # "zzz" is not in vocab
        assert translator.decode(("a",), [], vocab).tokens == ("A",)

    def test_answers_are_read_only(self):
        translator = LexiconTranslator({"a": "A"})
        source = ("a", "a")
        result = translator.decode(source, [], _vocab_for(translator, source))
        with pytest.raises(ValueError):
            result.step_scores[0][0] = 5.0


class _CountingTranslator:
    """Delegates to a translator and counts its decode calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def output_tokens(self, source):
        return self.inner.output_tokens(source)

    def decode(self, source_prefix, forced_target, vocab, final=False):
        self.calls += 1
        return self.inner.decode(source_prefix, forced_target, vocab, final)


def test_agreeing_members_are_decoded_once_per_update():
    lexicon = {"a": "A", "b": "B", "c": "C", "d": "D"}
    source = TokenSequence.from_raw("a b c d")
    members = {lang: _CountingTranslator(LexiconTranslator(lexicon)) for lang in ("en", "de")}
    output, _ = run_simul(members, {"en": source, "de": source}, 2)
    assert output == ["A", "B", "C", "D"]
    updates = 2 * len(source.tokens)  # every read of either language is an update
    assert [m.calls for m in members.values()] == [updates, updates]


class TestLoadLexicon:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tA\nb\tB\n\n", encoding="utf-8")
        assert load_lexicon(path) == {"a": "A", "b": "B"}

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tA\nbroken line\n", encoding="utf-8")
        with pytest.raises(InputError) as exc:
            load_lexicon(path)
        assert "line 2" in str(exc.value)
