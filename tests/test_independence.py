import pytest

from multisimul.corpus import TokenSequence, TranscriptPair
from multisimul.errors import AlignmentMismatchError, ContractError, DegenerateTableError
from multisimul.independence import analyze_independence, build_contingency
from multisimul.metrics import chi_square_2x2


def _pair(gold, hyp):
    return TranscriptPair(TokenSequence.from_raw(gold), TokenSequence.from_raw(hyp))


def _align(*links):
    return frozenset(links)


class TestBuildContingency:
    def test_error_free_all_mass_correct_correct(self):
        src = [_pair("a b c", "a b c")]
        tgt = [_pair("x y z", "x y z")]
        alignments = [_align((0, 0), (1, 1), (2, 2))]
        table = build_contingency(src, tgt, alignments)
        assert table.cells == ((3, 0), (0, 0))

    def test_two_sentence_toy_with_one_substitution_each_side(self):
        # sentence 0: src token 1 substituted; its aligned tgt token is correct
        # sentence 1: tgt token 0 substituted; its aligned src token is correct
        src = [_pair("a b", "a X"), _pair("c d", "c d")]
        tgt = [_pair("p q", "p q"), _pair("r s", "Y s")]
        alignments = [_align((0, 0), (1, 1)), _align((0, 0), (1, 1))]
        table = build_contingency(src, tgt, alignments)
        links = 4
        assert table.cells == ((links - 2, 1), (1, 0))

    def test_empty_alignment_degenerate_downstream(self):
        src = [_pair("a", "a")]
        tgt = [_pair("b", "b")]
        table = build_contingency(src, tgt, [_align()])
        assert table.cells == ((0, 0), (0, 0))
        with pytest.raises(DegenerateTableError):
            chi_square_2x2(table)

    def test_cell_totals_equal_link_count(self):
        src = [_pair("a b c", "a q c"), _pair("d e", "d e")]
        tgt = [_pair("u v w", "u v z"), _pair("x y", "q y")]
        alignments = [_align((0, 0), (1, 2), (2, 1)), _align((1, 1))]
        table = build_contingency(src, tgt, alignments)
        assert table.total == 4

    def test_swap_transposes_table(self):
        src = [_pair("a b c", "a q c")]
        tgt = [_pair("u v w", "u v z")]
        alignments = [_align((0, 0), (1, 2), (2, 1))]
        forward = build_contingency(src, tgt, alignments)
        swapped = build_contingency(
            tgt, src, [frozenset((j, i) for i, j in alignments[0])]
        )
        assert swapped.cells == tuple(zip(*forward.cells))

    def test_out_of_range_link_names_sentence(self):
        src = [_pair("a", "a"), _pair("b", "b")]
        tgt = [_pair("x", "x"), _pair("y", "y")]
        alignments = [_align((0, 0)), _align((5, 0))]
        with pytest.raises(AlignmentMismatchError) as exc:
            build_contingency(src, tgt, alignments)
        assert "sentence 1" in str(exc.value)
        assert "(5,0)" in str(exc.value).replace(" ", "")

    def test_count_mismatch(self):
        with pytest.raises(ContractError):
            build_contingency([_pair("a", "a")], [], [_align()])


class TestAnalyzeIndependence:
    def _toy_report(self, alpha=0.01):
        # 4 sentences engineered so every cell is populated
        src = [
            _pair("a b", "a b"),
            _pair("c d", "c X"),
            _pair("e f", "e f"),
            _pair("g h", "Y h"),
        ]
        tgt = [
            _pair("p q", "p Z"),
            _pair("r s", "r s"),
            _pair("t u", "t u"),
            _pair("v w", "W w"),
        ]
        alignments = [_align((0, 0), (1, 1))] * 4
        return analyze_independence(src, tgt, alignments, alpha=alpha)

    def test_report_fields(self):
        report = self._toy_report()
        assert report.aligned_link_count == 8
        assert report.src_gold_tokens == 8
        assert report.coverage == pytest.approx(1.0)
        assert report.table.total == 8

    def test_coverage_formula(self):
        src = [_pair("a b c d", "a b c d"), _pair("e f g h", "X f g h")]
        tgt = [_pair("x y", "x y"), _pair("z w", "Q w")]
        alignments = [_align((0, 0)), _align((0, 0))]
        report = analyze_independence(src, tgt, alignments)
        assert report.coverage == pytest.approx(0.25)
        assert "2/8 = 25.00%" in report.summary()

    def test_published_coverage_arithmetic(self):
        # the reported percentage follows from links / source gold tokens
        assert f"{100.0 * 16962 / 44494:.2f}" == "38.12"

    def test_summary_mentions_decision(self):
        report = self._toy_report(alpha=0.9999)
        assert "reject" in report.summary()

    def test_unique_token_tallies(self):
        src = [_pair("a b", "a X")]
        tgt = [_pair("x y", "x Z")]
        # many-to-many: 3 links over 2 src and 2 tgt tokens
        report = analyze_independence(src, tgt, [_align((0, 0), (0, 1), (1, 1))])
        assert report.aligned_link_count == 3
        assert report.unique_src_tokens == 2
        assert report.unique_tgt_tokens == 2
