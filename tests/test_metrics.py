import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multisimul import metrics
from multisimul.corpus import tokenize_13a
from multisimul.errors import ContractError, DegenerateTableError
from multisimul.metrics import (
    COPY,
    DELETE,
    INSERT,
    SUBSTITUTE,
    Contingency2x2,
    EditOp,
    align_edit,
    average_lagging,
    bleu,
    chi_square_2x2,
    chrf2,
    corpus_wer,
    normalized_erasure,
    paired_bootstrap,
    token_correctness,
    wer,
)
from multisimul.simul import (
    FlushEvent,
    ReadEvent,
    SimulEventLog,
    WriteEvent,
)

from oracles import (
    chi_square_p_highprec,
    chi_square_quantile_99,
    chi_square_statistic_exact,
    edit_distance_recursive,
    reference_align_edit,
    reference_bleu,
    reference_chrf2,
    reference_stats_matrices,
)

# values frozen from the independent reference scorers on the shared fixture
FIXTURE_BLEU_1REF = 57.543877355127805
FIXTURE_BLEU_2REF = 67.72882691139522
FIXTURE_CHRF_1REF = 76.57914939039661
FIXTURE_CHRF_2REF = 81.3328623740612
DEV_TABLE = ((13815, 1497), (1228, 422))
DEV_TABLE_STATISTIC = 370.5517241489325


def _gold_side(ops):
    return [op.gold for op in ops if op.kind in (COPY, SUBSTITUTE, DELETE)]


def _hyp_side(ops):
    return [op.hyp for op in ops if op.kind in (COPY, SUBSTITUTE, INSERT)]


class TestAlignEdit:
    def test_identity(self):
        ops = align_edit(["a", "b"], ["a", "b"])
        assert [op.kind for op in ops] == [COPY, COPY]

    def test_mixed_script(self):
        ops = align_edit(["a", "b", "c", "d"], ["a", "x", "c"])
        assert [(op.kind, op.gold, op.hyp) for op in ops] == [
            (COPY, "a", "a"),
            (SUBSTITUTE, "b", "x"),
            (COPY, "c", "c"),
            (DELETE, "d", None),
        ]

    def test_insert_only(self):
        ops = align_edit([], ["a"])
        assert [(op.kind, op.hyp) for op in ops] == [(INSERT, "a")]

    def test_projections_and_cost(self):
        gold = ["the", "cat", "sat", "down"]
        hyp = ["the", "bat", "down", "now"]
        ops = align_edit(gold, hyp)
        assert _gold_side(ops) == gold
        assert _hyp_side(ops) == hyp
        assert wer(gold, hyp).errors == edit_distance_recursive(gold, hyp)

    def test_cost_matches_recursive_oracle_on_random_pairs(self):
        rng = random.Random(12345)
        alphabet = ["a", "b", "c"]
        for _ in range(300):
            gold = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
            hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
            ops = align_edit(gold, hyp)
            assert wer(gold, hyp).errors == edit_distance_recursive(gold, hyp)
            assert _gold_side(ops) == gold
            assert _hyp_side(ops) == hyp

    def test_tie_break_prefers_copy_then_sub(self):
        # "a" vs "b a": Ins(b) + Copy(a) and Sub(a,b) + Ins(a) both cost 1;
        # the walk must keep the Copy.
        ops = align_edit(["a"], ["b", "a"])
        assert [op.kind for op in ops] == [INSERT, COPY]

    @given(
        st.integers(1, 6).flatmap(
            lambda k: st.tuples(
                st.lists(st.sampled_from("abcdef"[:k]), max_size=20),
                st.lists(st.sampled_from("abcdef"[:k]), max_size=20),
            )
        )
    )
    @settings(max_examples=500, deadline=None)
    @example(([], []))
    @example(([], ["a"]))
    @example((["a"], []))
    def test_ops_match_table_oracle(self, pair):
        gold, hyp = pair
        assert list(align_edit(gold, hyp)) == reference_align_edit(gold, hyp)

    def test_ops_match_table_oracle_beyond_one_word(self):
        # both sides longer than 64 tokens: the bit vectors span several words
        rng = random.Random(2024)
        vocab = [f"w{k}" for k in range(12)]
        for _ in range(20):
            gold = [rng.choice(vocab) for _ in range(rng.randint(65, 170))]
            hyp = []
            for token in gold:
                r = rng.random()
                if r < 0.1:
                    continue  # deletion
                hyp.append(rng.choice(vocab) if r < 0.25 else token)
                if rng.random() < 0.05:
                    hyp.append(rng.choice(vocab))  # insertion
            while len(hyp) < 65:
                hyp.append(rng.choice(vocab))
            assert 65 <= len(hyp) <= 200
            assert list(align_edit(gold, hyp)) == reference_align_edit(gold, hyp)

    def test_edit_op_construction_and_equality(self):
        assert EditOp(COPY, "a", "a") == EditOp(kind=COPY, gold="a", hyp="a")
        assert (EditOp(DELETE, "d").gold, EditOp(DELETE, "d").hyp) == ("d", None)
        assert (EditOp(INSERT, hyp="z").gold, EditOp(INSERT, hyp="z").hyp) == (None, "z")
        assert EditOp(DELETE, "d") != EditOp(INSERT, hyp="d")
        assert hash(EditOp(COPY, "a", "a")) == hash(EditOp(COPY, "a", "a"))
        assert len({EditOp(COPY, "a", "a"), EditOp(COPY, "a", "a")}) == 1
        with pytest.raises(AttributeError):
            EditOp(COPY, "a", "a").kind = SUBSTITUTE


class TestWer:
    def test_identity(self):
        assert wer(["a", "b"], ["a", "b"]).wer == 0.0

    def test_breakdown(self):
        breakdown = wer(["a", "b", "c", "d"], ["a", "x", "c"])
        assert (breakdown.substitutions, breakdown.deletions, breakdown.insertions) == (1, 1, 0)
        assert breakdown.wer == 0.5

    def test_empty_gold_undefined(self):
        breakdown = wer([], ["a"])
        assert breakdown.gold_words == 0
        assert breakdown.wer is None
        assert breakdown.insertions == 1

    def test_corpus_wer(self):
        pairs = [
            (["a", "b", "c", "d"], ["a", "x", "c"]),  # 2 errors / 4 gold
            (["p", "q", "r", "s", "t", "u"], ["p", "q", "r", "s", "t", "u"]),
        ]
        assert corpus_wer(pairs) == pytest.approx(0.2)

    def test_corpus_wer_empty_error(self):
        with pytest.raises(ContractError):
            corpus_wer([([], ["a"])])

    @given(st.lists(st.sampled_from("abcd"), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_self_wer_zero(self, tokens):
        if tokens:
            assert wer(tokens, tokens).wer == 0.0


class TestTokenCorrectness:
    def test_all_copy(self):
        ops = align_edit(["a", "b"], ["a", "b"])
        assert token_correctness(ops) == [True, True]

    def test_mixed(self):
        ops = (
            EditOp(COPY, "a", "a"),
            EditOp(SUBSTITUTE, "b", "x"),
            EditOp(COPY, "c", "c"),
            EditOp(DELETE, "d"),
        )
        assert token_correctness(ops) == [True, False, True, False]

    def test_insert_attaches_to_no_gold_token(self):
        ops = (EditOp(INSERT, hyp="z"), EditOp(COPY, "a", "a"))
        assert token_correctness(ops) == [True]


class TestChiSquare:
    def test_uniform_table(self):
        result = chi_square_2x2(Contingency2x2(((10, 10), (10, 10))))
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_dev_table_matches_exact_oracle(self):
        result = chi_square_2x2(Contingency2x2(DEV_TABLE))
        oracle = float(chi_square_statistic_exact(DEV_TABLE))
        assert oracle == pytest.approx(DEV_TABLE_STATISTIC, abs=1e-9)
        assert abs(result.statistic - oracle) < 1e-6
        assert result.p_value < 0.01
        assert result.p_value == pytest.approx(
            chi_square_p_highprec(result.statistic), rel=1e-6
        )

    def test_rejection_threshold_is_the_99_quantile(self):
        quantile = chi_square_quantile_99()
        assert quantile == pytest.approx(6.635, abs=1e-3)
        just_below = math.erfc(math.sqrt((quantile - 1e-6) / 2.0))
        just_above = math.erfc(math.sqrt((quantile + 1e-6) / 2.0))
        assert just_below > 0.01 > just_above

    def test_transpose_invariance(self):
        table = Contingency2x2(((40, 7), (12, 30)))
        a = chi_square_2x2(table).statistic
        b = chi_square_2x2(Contingency2x2(tuple(zip(*table.cells)))).statistic
        assert a == pytest.approx(b, rel=1e-12)

    def test_label_swap_invariance(self):
        (a, b), (c, d) = (40, 7), (12, 30)
        swapped = Contingency2x2(((d, c), (b, a)))
        assert chi_square_2x2(Contingency2x2(((a, b), (c, d)))).statistic == pytest.approx(
            chi_square_2x2(swapped).statistic, rel=1e-12
        )

    def test_degenerate_marginal(self):
        with pytest.raises(DegenerateTableError):
            chi_square_2x2(Contingency2x2(((5, 5), (0, 0))))
        with pytest.raises(DegenerateTableError):
            chi_square_2x2(Contingency2x2(((0, 0), (0, 0))))

    def test_yates_shrinks_statistic(self):
        table = Contingency2x2(((12, 5), (3, 9)))
        plain = chi_square_2x2(table).statistic
        corrected = chi_square_2x2(table, yates=True).statistic
        assert corrected < plain


class TestBleu:
    def test_identity_corpus(self, fixture_corpus):
        hyps, _, _ = fixture_corpus
        assert bleu(hyps, [hyps]) == pytest.approx(100.0, abs=1e-9)

    def test_zero_when_short_and_disjoint(self):
        # hypotheses shorter than 4 tokens sharing nothing with the reference
        assert bleu(["aa bb", "cc"], [["xx yy", "zz"]]) == 0.0

    def test_fixture_matches_reference_scorer(self, fixture_corpus):
        hyps, refs, refs_b = fixture_corpus
        assert bleu(hyps, [refs]) == pytest.approx(FIXTURE_BLEU_1REF, abs=1e-4)
        assert bleu(hyps, [refs, refs_b]) == pytest.approx(FIXTURE_BLEU_2REF, abs=1e-4)
        # reference implementation agrees with its own frozen value
        assert reference_bleu(hyps, [refs]) == pytest.approx(FIXTURE_BLEU_1REF, abs=1e-9)

    def test_permutation_invariance(self, fixture_corpus):
        hyps, refs, _ = fixture_corpus
        order = list(range(len(hyps)))[::-1]
        assert bleu([hyps[i] for i in order], [[refs[i] for i in order]]) == pytest.approx(
            bleu(hyps, [refs]), rel=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            bleu(["a"], [["a", "b"]])
        with pytest.raises(ContractError):
            bleu(["a"], [])


class TestChrf2:
    def test_identity_corpus(self, fixture_corpus):
        hyps, _, _ = fixture_corpus
        assert chrf2(hyps, [hyps]) == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_characters(self):
        assert chrf2(["aaa bbb"], [["xxx yyy"]]) == 0.0

    def test_fixture_matches_reference_scorer(self, fixture_corpus):
        hyps, refs, refs_b = fixture_corpus
        assert chrf2(hyps, [refs]) == pytest.approx(FIXTURE_CHRF_1REF, abs=1e-4)
        assert chrf2(hyps, [refs, refs_b]) == pytest.approx(FIXTURE_CHRF_2REF, abs=1e-4)
        assert reference_chrf2(hyps, [refs]) == pytest.approx(FIXTURE_CHRF_1REF, abs=1e-9)

    def test_permutation_invariance(self, fixture_corpus):
        hyps, refs, _ = fixture_corpus
        order = list(range(len(hyps)))[::-1]
        assert chrf2([hyps[i] for i in order], [[refs[i] for i in order]]) == pytest.approx(
            chrf2(hyps, [refs]), rel=1e-12
        )


# short lines from a vocabulary with 13a-relevant punctuation, plus empty and
# whitespace-only lines; short lengths make closest-reference-length ties common
_LINE = st.one_of(
    st.sampled_from(["", " ", "\t  "]),
    st.lists(
        st.sampled_from(["a", "b", "ab", "ba", "c.", "d,", "1.5", "x-y", "&amp;"]),
        max_size=7,
    ).map(" ".join),
)


@st.composite
def _corpora(draw):
    n = draw(st.integers(1, 4))
    hyps = draw(st.lists(_LINE, min_size=n, max_size=n))
    refs = [
        draw(st.lists(_LINE, min_size=n, max_size=n))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return hyps, refs


class TestSufficientStatisticsOracle:
    @given(_corpora())
    @example((["a b c d e"], [["a b c d"], ["a b c d e f"]]))  # lengths 4 and 6 tie
    @example((["", " "], [["a", ""], [" ", "b"]]))
    @example((["ab d,", "x y ab"], [["b b ab", "x y ab"], ["b a ", "x y ab"]]))
    @settings(max_examples=200, deadline=None)
    def test_bleu_and_chrf2_match_oracles(self, corpus):
        hyps, refs = corpus
        assert bleu(hyps, refs) == pytest.approx(reference_bleu(hyps, refs), abs=1e-9)
        assert chrf2(hyps, refs) == pytest.approx(reference_chrf2(hyps, refs), abs=1e-9)

    def test_chrf_exact_tie_keeps_first_reference(self):
        # both references give the first segment exactly the same sentence chrF;
        # compared as rounded floats the second one used to win
        hyps = ["ab d,", "x y ab"]
        refs = [["b b ab", "x y ab"], ["b a ", "x y ab"]]
        assert chrf2(hyps, refs) == pytest.approx(60.416666666666664, abs=1e-9)
        assert chrf2(hyps, refs) == pytest.approx(reference_chrf2(hyps, refs), abs=1e-9)


# lines for the counting kernel: empty and whitespace-only lines, NUL (code
# point 0), non-ASCII, a non-BMP character, the last code point (the widest
# key base) and a lone surrogate, mixed with 13a punctuation
_KERNEL_LINE = st.lists(
    st.sampled_from(
        ["", " ", "\t", "a", "b", "ab", "\x00", "é", "漢", "\U0001F600", "\U0010FFFF",
         "\ud800", ".", ",", "1", "-", "&amp;"]
    ),
    max_size=10,
).flatmap(lambda pieces: st.sampled_from(["", " "]).map(lambda sep: sep.join(pieces)))


@st.composite
def _kernel_corpora(draw):
    n = draw(st.integers(1, 5))
    lines = st.lists(_KERNEL_LINE, min_size=n, max_size=n)
    systems = [draw(lines) for _ in range(draw(st.integers(1, 3)))]
    refs = [draw(lines) for _ in range(draw(st.integers(1, 3)))]
    return systems, refs


def _assert_stats_match_oracle(systems, refs):
    for metric in ("bleu", "chrf2"):
        got = metrics._stats_matrices(systems, refs, metric)
        want = reference_stats_matrices(systems, refs, metric)
        assert len(got) == len(want) == len(systems)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w), metric


class TestCountingKernel:
    @given(_kernel_corpora())
    @example(([["a\x00b"]], [["a b"]]))
    @example(([["", "\t "]], [[" ", ""], ["ab", ""]]))
    @settings(max_examples=300, deadline=None)
    def test_matrices_equal_per_segment_counters(self, corpus):
        _assert_stats_match_oracle(*corpus)

    def test_matrices_equal_across_chunks(self):
        # a corpus of several chunk budgets, with one segment longer than the budget
        rng = random.Random(20)
        words = ["a", "ab", "b.", "漢字", "é", "\U0001F600", "1,5", "x-y", "\x00"]

        def line(n_words):
            return " ".join(rng.choice(words) for _ in range(n_words))

        n = 300
        systems = [[line(rng.randint(0, 12)) for _ in range(n)] for _ in range(2)]
        refs = [[line(rng.randint(0, 12)) for _ in range(n)] for _ in range(2)]
        long = n // 2
        systems[0][long] = line(metrics._STATS_CHUNK_UNITS + 100)
        refs[1][long] = line(metrics._STATS_CHUNK_UNITS + 100)
        tokens = sum(len(tokenize_13a(text)) for side in systems + refs for text in side)
        assert tokens > 3 * metrics._STATS_CHUNK_UNITS
        _assert_stats_match_oracle(systems, refs)

    def test_tokenizer_called_once_per_text(self, monkeypatch):
        # looked up at each call, so that a wrapper bound to the module name
        # (the benchmark's tracer binds one) counts every text exactly once
        calls = []
        tokenize = metrics.tokenize_13a
        monkeypatch.setattr(
            metrics, "tokenize_13a", lambda text: calls.append(text) or tokenize(text)
        )
        metrics._stats_matrices([["a b", "c"], ["d", "e"]], [["a", "b"]], "bleu")
        assert sorted(calls) == ["a", "a b", "b", "c", "d", "e"]

    @pytest.mark.parametrize("metric", ["bleu", "chrf2"])
    def test_working_set_does_not_grow_with_corpus(self, fixture_corpus, metric):
        hyps, refs, refs_b = fixture_corpus

        def extra_peak(copies):
            systems = [hyps * copies, refs_b * copies]
            ref_sets = [refs * copies]
            tracemalloc.start()
            try:
                matrices = metrics._stats_matrices(systems, ref_sets, metric)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - sum(m.nbytes for m in matrices)

        # 400 segments already span several chunks for both metrics
        small, large = extra_peak(20), extra_peak(80)
        assert large <= 1.5 * small, (small, large)

    @pytest.mark.parametrize("metric", ["bleu", "chrf2"])
    def test_statistics_peak_is_bounded(self, fixture_corpus, metric):
        # two systems and one reference set of 2000 segments: the kernel
        # peaks at about 1.1 MiB, whatever the metric
        hyps, refs, refs_b = (
            (column * -(-2000 // len(column)))[:2000] for column in fixture_corpus
        )
        metrics._stats_matrices([hyps[:5]], [refs[:5]], metric)  # one-time set-up
        tracemalloc.start()
        try:
            metrics._stats_matrices([hyps, refs_b], [refs], metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


def _log(events):
    return SimulEventLog(list(events))


class TestAverageLagging:
    def test_read_all_then_write(self):
        events = [ReadEvent("en", f"s{i}") for i in range(5)]
        events += [WriteEvent(f"t{i}") for i in range(5)]
        report = average_lagging(_log(events), "en")
        assert report.al == pytest.approx(5.0)
        assert report.g == (5, 5, 5, 5, 5)
        assert report.tau == 1

    def test_perfectly_interleaved(self):
        events = []
        for i in range(4):
            events += [ReadEvent("en", f"s{i}"), WriteEvent(f"t{i}")]
        report = average_lagging(_log(events), "en")
        assert report.al == pytest.approx(1.0)
        assert report.g == (1, 2, 3, 4)
        assert report.tau == 4

    def test_secondary_reads_do_not_count(self):
        events = [
            ReadEvent("de", "d1"),
            ReadEvent("en", "s1"),
            ReadEvent("de", "d2"),
            WriteEvent("t1"),
            ReadEvent("en", "s2"),
            WriteEvent("t2"),
        ]
        without = [e for e in events if not (isinstance(e, ReadEvent) and e.language == "de")]
        assert average_lagging(_log(events), "en") == average_lagging(_log(without), "en")

    def test_requires_primary_reads_and_writes(self):
        with pytest.raises(ContractError):
            average_lagging(_log([WriteEvent("t")]), "en")
        with pytest.raises(ContractError):
            average_lagging(_log([ReadEvent("en", "s")]), "en")


class TestNormalizedErasure:
    def test_append_only(self):
        log = _log([ReadEvent("en", "s"), WriteEvent("a"), FlushEvent()])
        assert normalized_erasure(log).ne == 0.0

    def test_empty_output_error(self):
        with pytest.raises(ContractError):
            normalized_erasure(_log([ReadEvent("en", "s")]))


class TestPairedBootstrap:
    def test_identical_systems_band(self, fixture_corpus):
        hyps, refs, _ = fixture_corpus
        result = paired_bootstrap(hyps, hyps, [refs], resamples=1000, seed=3)
        assert 0.3 <= result.p_value <= 0.7
        assert result.ties == 1000

    def test_dominant_system(self, fixture_corpus):
        hyps, refs, _ = fixture_corpus
        junk = ["qq zz vv kk"] * len(hyps)
        result = paired_bootstrap(refs, junk, [refs], resamples=1000, seed=3)
        assert result.p_value <= 1.0 / 1000
        assert result.wins_a == 1000

    def test_deterministic_under_seed(self, fixture_corpus):
        hyps, refs, _ = fixture_corpus
        a = paired_bootstrap(hyps, refs, [refs], seed=42)
        b = paired_bootstrap(hyps, refs, [refs], seed=42)
        assert a == b

    def test_chrf_metric(self, fixture_corpus):
        hyps, refs, _ = fixture_corpus
        result = paired_bootstrap(hyps, hyps, [refs], metric="chrf2", seed=0)
        assert 0.3 <= result.p_value <= 0.7

    def test_scores_are_the_corpus_scores(self, fixture_corpus):
        hyps, refs, refs_b = fixture_corpus
        for metric, scorer in (("bleu", bleu), ("chrf2", chrf2)):
            result = paired_bootstrap(hyps, refs_b, [refs], metric=metric, resamples=100)
            assert result.score_a == scorer(hyps, [refs])
            assert result.score_b == scorer(refs_b, [refs])

    def test_draw_order_pinned(self, fixture_corpus, monkeypatch):
        # outcomes of the per-resample loop this bootstrap replaced, which drew
        # rng.integers(0, n, size=n) once per resample; any block size must
        # reproduce them, including blocks that do not divide the resamples
        hyps, refs, refs_b = fixture_corpus
        sys_b = [r if i % 2 == 0 else rb for i, (r, rb) in enumerate(zip(refs, refs_b))]
        expected = {"bleu": (146, 154, 0), "chrf2": (100, 200, 0)}
        for block_draws in (metrics._BOOTSTRAP_BLOCK_DRAWS, 7 * len(hyps), 1):
            monkeypatch.setattr(metrics, "_BOOTSTRAP_BLOCK_DRAWS", block_draws)
            for metric, outcome in expected.items():
                result = paired_bootstrap(
                    hyps, sys_b, [refs], metric=metric, resamples=300, seed=11
                )
                assert (result.wins_a, result.wins_b, result.ties) == outcome

    def test_traced_peak_is_bounded(self, fixture_corpus):
        # 2000 segments: a block of 2**18 draws would keep three 2 MiB
        # matrices alive; the statistics themselves peak at about 1.1 MiB
        hyps, refs, refs_b = (
            (column * -(-2000 // len(column)))[:2000] for column in fixture_corpus
        )
        paired_bootstrap(hyps[:5], refs_b[:5], [refs[:5]], resamples=100)  # one-time set-up
        tracemalloc.start()
        try:
            paired_bootstrap(hyps, refs_b, [refs], resamples=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_argument_errors(self, fixture_corpus):
        hyps, refs, _ = fixture_corpus
        with pytest.raises(ContractError):
            paired_bootstrap(hyps[:-1], hyps, [refs])
        with pytest.raises(ContractError):
            paired_bootstrap(hyps, hyps, [refs], resamples=10)
        with pytest.raises(ContractError):
            paired_bootstrap(hyps, hyps, [refs], metric="rouge")
        with pytest.raises(ContractError):
            paired_bootstrap([], [], [[]])
