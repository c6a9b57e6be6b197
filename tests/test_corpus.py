import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multisimul.corpus import (
    TokenSequence,
    char_fraction,
    load_parallel,
    load_transcript_pairs,
    load_word_alignment,
    normalize_transcript,
    tokenize_13a,
)
from multisimul.errors import (
    AlignmentMismatchError,
    ContractError,
    InputError,
    ParseError,
)

from oracles import reference_token_offsets, reference_tokenize_13a


class TestTokenize13a:
    def test_punctuation_split(self):
        assert tokenize_13a("Hello, world!") == ("Hello", ",", "world", "!")

    def test_empty(self):
        assert tokenize_13a("") == ()

    def test_already_separated(self):
        assert tokenize_13a("a b") == ("a", "b")

    def test_numbers_keep_decimal_point(self):
        assert tokenize_13a("rose by 4.5 percent") == (
            "rose",
            "by",
            "4.5",
            "percent",
        )

    def test_entities_and_skipped(self):
        assert tokenize_13a("a &amp; b <skipped> c") == ("a", "&", "b", "c")

    def test_matches_reference_tokenizer_on_fixture(self, fixture_corpus):
        hyps, refs, refs_b = fixture_corpus
        for line in hyps + refs + refs_b:
            assert list(tokenize_13a(line)) == reference_tokenize_13a(line)

    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_tokenizer_property(self, text):
        assert list(tokenize_13a(text)) == reference_tokenize_13a(text)

    @given(st.text(max_size=60))
    @example("..0")  # ('.', '.0'), whose re-join re-tokenizes as ('.', '.', '0')
    @settings(max_examples=100, deadline=None)
    def test_rejoin_matches_reference_tokenizer(self, text):
        rejoined = " ".join(tokenize_13a(text))
        assert list(tokenize_13a(rejoined)) == reference_tokenize_13a(rejoined)


# every whitespace character of str.isspace (the set re's \s matches), and
# two format characters that look like spaces but are not whitespace
SPLIT_ALPHABET = (
    "ab \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
    + "\u200b\ufeff"
)


class TestTokenSequence:
    def test_from_raw_offsets(self):
        seq = TokenSequence.from_raw("  ab  cd ")
        assert seq.tokens == ("ab", "cd")
        assert seq.raw == "ab  cd"
        assert seq.char_offsets == (0, 4)

    def test_from_tokens_round_trip(self):
        seq = TokenSequence.from_tokens(["a", "bb", "c"])
        assert seq.raw == "a bb c"
        assert seq.char_offsets == (0, 2, 5)

    def test_invariant_violations(self):
        with pytest.raises(ContractError):
            TokenSequence(("a", ""), "a")  # an empty token
        with pytest.raises(ContractError):
            TokenSequence(("a",), " a")  # raw text not stripped
        with pytest.raises(ContractError):
            TokenSequence(("a",), "b")  # tokens not the split of raw
        # tokens that hold whitespace or are empty are not the split of their join
        for tokens in (["a b"], ["a\xa0b"], [""]):
            with pytest.raises(ContractError):
                TokenSequence.from_tokens(tokens)

    @given(st.text(alphabet=SPLIT_ALPHABET, max_size=40))
    @example(" \ufeffa\x1cb\u200b\u3000c\x85")
    @settings(max_examples=300, deadline=None)
    def test_matches_regex_oracle(self, text):
        raw, tokens, offsets = reference_token_offsets(text)
        seq = TokenSequence.from_raw(text)
        assert (seq.raw, seq.tokens, seq.char_offsets) == (raw, tokens, offsets)


class TestCharFraction:
    def test_zero_prefix(self):
        assert char_fraction(TokenSequence.from_raw("ab cd"), 0) == 0.0

    def test_full_prefix(self):
        assert char_fraction(TokenSequence.from_raw("ab cd"), 2) == 1.0

    def test_partial(self):
        assert char_fraction(TokenSequence.from_raw("ab cd"), 1) == pytest.approx(0.4)

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            char_fraction(TokenSequence.from_raw("ab"), 2)

    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=5), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, tokens):
        seq = TokenSequence.from_tokens(tokens)
        fractions = [char_fraction(seq, k) for k in range(len(tokens) + 1)]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


class TestLoaders:
    def test_load_parallel(self, tmp_path):
        (tmp_path / "en.txt").write_text("a b\nc\nd e f\n", encoding="utf-8")
        (tmp_path / "de.txt").write_text("x\ny z\nw\n", encoding="utf-8")
        columns = load_parallel({"en": tmp_path / "en.txt", "de": tmp_path / "de.txt"})
        assert list(columns) == ["en", "de"]
        assert [len(column) for column in columns.values()] == [3, 3]
        assert columns["en"][2].tokens == ("d", "e", "f")
        assert columns["de"][0].tokens == ("x",)

    def test_line_count_mismatch_names_both_files(self, tmp_path):
        (tmp_path / "a.txt").write_text("1\n2\n3\n", encoding="utf-8")
        (tmp_path / "b.txt").write_text("1\n2\n3\n4\n", encoding="utf-8")
        with pytest.raises(AlignmentMismatchError) as exc:
            load_parallel({"a": tmp_path / "a.txt", "b": tmp_path / "b.txt"})
        assert "a.txt" in str(exc.value) and "b.txt" in str(exc.value)
        assert "3" in str(exc.value) and "4" in str(exc.value)

    def test_empty_files(self, tmp_path):
        (tmp_path / "a.txt").write_text("", encoding="utf-8")
        (tmp_path / "b.txt").write_text("", encoding="utf-8")
        columns = load_parallel({"a": tmp_path / "a.txt", "b": tmp_path / "b.txt"})
        assert columns == {"a": [], "b": []}

    def test_crlf_normalized(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"a b\r\nc d\r\n")
        columns = load_parallel({"a": tmp_path / "a.txt"})
        assert [s.tokens for s in columns["a"]] == [("a", "b"), ("c", "d")]

    def test_bad_utf8_reports_line(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"ok\n\xff\xfe\n")
        with pytest.raises(InputError) as exc:
            load_parallel({"a": tmp_path / "a.txt"})
        assert "line 2" in str(exc.value)

    def test_load_transcript_pairs_lowercases(self, tmp_path):
        (tmp_path / "gold.txt").write_text("Hello There\n", encoding="utf-8")
        (tmp_path / "asr.txt").write_text("HELLO there\n", encoding="utf-8")
        pairs = load_transcript_pairs(tmp_path / "gold.txt", tmp_path / "asr.txt")
        assert pairs[0].gold.tokens == pairs[0].hyp.tokens == ("hello", "there")


class TestNormalizeTranscript:
    def test_default_keeps_punctuation(self):
        assert normalize_transcript("Hello, World!").tokens == ("hello,", "world!")

    def test_strip_punct(self):
        assert normalize_transcript("Hello, World!", strip_punct=True).tokens == (
            "hello",
            "world",
        )

    def test_no_lowercase(self):
        assert normalize_transcript("A b", lowercase=False).tokens == ("A", "b")


class TestWordAlignment:
    def test_parse(self, tmp_path):
        (tmp_path / "al.txt").write_text("0-0 1-2\n\n2-1\n", encoding="utf-8")
        alignments = load_word_alignment(tmp_path / "al.txt")
        assert alignments[0].links == {(0, 0), (1, 2)}
        assert alignments[1].links == frozenset()
        assert alignments[2].links == {(2, 1)}

    def test_malformed_pair_reports_position(self, tmp_path):
        (tmp_path / "al.txt").write_text("0-0\n1-1 a-b\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_word_alignment(tmp_path / "al.txt")
        assert "line 2" in str(exc.value) and "column 5" in str(exc.value)
        assert "a-b" in str(exc.value)
