import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multisimul.corpus import (
    TokenSequence,
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

from oracles import (
    SPLIT_ALPHABET,
    reference_alignment_line,
    reference_token_offsets,
    reference_tokenize_13a,
)


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

    # digits, periods, commas, dashes and padded symbols side by side, which
    # text drawn from all of Unicode rarely puts together
    @given(st.text(alphabet="0123456789.,-ab &;<>\n\t\"'()%$!?/", max_size=40))
    @example("a.,b")
    @example("1--2")
    @example("..0")
    @example("-\n")
    @settings(max_examples=300, deadline=None)
    def test_dense_alphabet_matches_reference_tokenizer(self, text):
        assert list(tokenize_13a(text)) == reference_tokenize_13a(text)

    @given(st.text(max_size=60))
    @example("..0")  # ('.', '.0'), whose re-join re-tokenizes as ('.', '.', '0')
    @settings(max_examples=100, deadline=None)
    def test_rejoin_matches_reference_tokenizer(self, text):
        rejoined = " ".join(tokenize_13a(text))
        assert list(tokenize_13a(rejoined)) == reference_tokenize_13a(rejoined)


class TestTokenSequence:
    def test_from_raw_offsets(self):
        seq = TokenSequence.from_raw("  ab  cd ")
        assert seq.tokens == ("ab", "cd")
        assert seq.raw == "ab  cd"
        assert [seq.raw.index(tok) for tok in seq.tokens] == [0, 4]

    def test_from_tokens_round_trip(self):
        seq = TokenSequence.from_tokens(["a", "bb", "c"])
        assert seq.raw == "a bb c"
        assert TokenSequence.from_raw(seq.raw) == seq

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
        raw, tokens, _ = reference_token_offsets(text)
        seq = TokenSequence.from_raw(text)
        assert (seq.raw, seq.tokens) == (raw, tokens)


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

    def test_one_empty_line_is_one_line(self, tmp_path):
        # only an empty file has no lines; a leading byte-order mark is not text
        for data, lines in (
            (b"", []),
            (b"\n", [""]),
            (b"\r\n", [""]),
            (b"\n\n", ["", ""]),
            (b"\xef\xbb\xbf", []),
            (b"\xef\xbb\xbfa b\n", ["a b"]),
        ):
            (tmp_path / "a.txt").write_bytes(data)
            columns = load_parallel({"a": tmp_path / "a.txt"})
            assert [s.raw for s in columns["a"]] == lines

    def test_crlf_normalized(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"a b\r\nc d\r\n")
        columns = load_parallel({"a": tmp_path / "a.txt"})
        assert [s.tokens for s in columns["a"]] == [("a", "b"), ("c", "d")]

    def test_bad_utf8_reports_line(self, tmp_path):
        # the line is counted over the file's bytes, a byte-order mark included
        for data in (b"ok\n\xff\xfe\n", b"\xef\xbb\xbfok\n\xff\n"):
            (tmp_path / "a.txt").write_bytes(data)
            with pytest.raises(InputError) as exc:
                load_parallel({"a": tmp_path / "a.txt"})
            assert "line 2" in str(exc.value)

    def test_load_transcript_pairs_lowercases(self, tmp_path):
        (tmp_path / "gold.txt").write_text("Hello There\n", encoding="utf-8")
        (tmp_path / "asr.txt").write_text("HELLO there\n", encoding="utf-8")
        pairs = load_transcript_pairs(tmp_path / "gold.txt", tmp_path / "asr.txt")
        assert pairs[0].gold.tokens == pairs[0].hyp.tokens == ("hello", "there")

    def test_transcript_tokens_interned(self, tmp_path):
        # one string object per distinct token, across lines and across sides
        (tmp_path / "gold.txt").write_text("Token word\nword\n", encoding="utf-8")
        (tmp_path / "asr.txt").write_text("word token\nWord\n", encoding="utf-8")
        pairs = load_transcript_pairs(tmp_path / "gold.txt", tmp_path / "asr.txt")
        assert pairs[0].gold.tokens[0] is pairs[0].hyp.tokens[1]
        assert pairs[0].gold.tokens[1] is pairs[1].gold.tokens[0] is pairs[1].hyp.tokens[0]

    def test_transcript_memory_grows_with_vocabulary(self, tmp_path):
        # 2000 pairs of 30 tokens over 50 words: one string per occurrence
        # would take 6.4 MiB by itself (120,000 strings of 56 bytes)
        rng = random.Random(5)
        vocab = [f"word{i:02d}" for i in range(50)]
        for name in ("gold.txt", "asr.txt"):
            lines = (" ".join(rng.choices(vocab, k=30)) for _ in range(2000))
            (tmp_path / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        tracemalloc.start()
        try:
            pairs = load_transcript_pairs(tmp_path / "gold.txt", tmp_path / "asr.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == 2000
        assert peak < 5 * 2**20


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
        assert alignments[0] == {(0, 0), (1, 2)}
        assert alignments[1] == frozenset()
        assert alignments[2] == {(2, 1)}

    def test_malformed_pair_reports_position(self, tmp_path):
        # whitespace of any length or kind counts as it stands; "-1" also
        # occurs inside the valid pair "1-1" before it
        cases = [
            ("0-0\n1-1 a-b", "a-b", 2, 5),
            ("0-0  a-b", "a-b", 1, 6),
            ("  0-0\tx", "x", 1, 7),
            ("1-1 -1", "-1", 1, 5),
        ]
        path = tmp_path / "al.txt"
        for text, pair, lineno, col in cases:
            path.write_text(text + "\n", encoding="utf-8")
            with pytest.raises(ParseError) as exc:
                load_word_alignment(path)
            assert str(exc.value) == (
                f"{path}: malformed alignment pair {pair!r} at line {lineno}, column {col}"
            )

    def test_repeated_pair_shares_one_tuple(self, tmp_path):
        (tmp_path / "al.txt").write_text("3-4 0-0\n3-4\n1-1 3-4\n", encoding="utf-8")
        alignments = load_word_alignment(tmp_path / "al.txt")
        assert alignments == [{(3, 4), (0, 0)}, {(3, 4)}, {(1, 1), (3, 4)}]
        first, second, third = (
            next(link for link in links if link == (3, 4)) for links in alignments
        )
        assert first is second is third

    def test_repeated_malformed_pair_reports_first_line(self, tmp_path):
        (tmp_path / "al.txt").write_text("0-0 1-x\n1-1\n0-0 1-x\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_word_alignment(tmp_path / "al.txt")
        assert str(exc.value) == (
            f"{tmp_path / 'al.txt'}: malformed alignment pair '1-x' at line 1, column 5"
        )

    # ASCII and other Nd digits (Arabic-Indic, fullwidth), a superscript two
    # (a digit but not decimal), dashes, a letter and separators
    @given(st.lists(st.text(alphabet="09-\u0661\uff11\u00b2a \t", max_size=12), min_size=1, max_size=3))
    @example(["0-0 1-\u0661", "2-2-2", "-1 1-"])
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_matches_regex_oracle(self, tmp_path, lines):
        path = tmp_path / "al.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        expected = [reference_alignment_line(line) for line in lines]
        bad = [(lineno, e) for lineno, e in enumerate(expected, start=1) if isinstance(e, tuple)]
        if not bad:
            assert load_word_alignment(path) == expected
            return
        lineno, (pair, col) = bad[0]
        with pytest.raises(ParseError) as exc:
            load_word_alignment(path)
        assert str(exc.value) == (
            f"{path}: malformed alignment pair {pair!r} at line {lineno}, column {col}"
        )
