import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisimul.corpus import TokenSequence, TranscriptPair
from multisimul.errors import ContractError, ModelFormatError, UnattainableWerError
from multisimul.metrics import corpus_wer
from multisimul.noise import (
    LexicalNoiseModel,
    apply_noise,
    apply_noise_corpus,
    expected_wer,
    load_model,
    rescale_to_wer,
    save_model,
    train_noise_model,
)

from conftest import corrupt_for_training, synthetic_corpus
from oracles import reference_apply_noise


def _pairs(raw_pairs):
    return [
        TranscriptPair(TokenSequence.from_raw(g), TokenSequence.from_raw(h))
        for g, h in raw_pairs
    ]


def _model(p_i=0.0, p_d=0.0, p_s=0.0, subs=None, ins=()):
    # a model that inserts needs at least one word to insert
    if p_i > 0 and not ins:
        ins = (("i", 1.0),)
    return LexicalNoiseModel(
        p_insert=p_i,
        p_delete=p_d,
        p_substitute=p_s,
        substitution_table=subs or {},
        insertion_table=tuple(ins),
    )


GOLD_WORDS = [f"g{i}" for i in range(8)]


@st.composite
def distributions(draw, prefix):
    """A table of 1-700 rows over ``prefix``-words, zero rows included."""
    rows = draw(st.integers(1, 700))
    weights = draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
    if not any(weights):
        weights[-1] = 1
    total = sum(weights)
    return tuple((f"{prefix}{k}", w / total) for k, w in enumerate(weights))


@st.composite
def noise_models(draw):
    probability = st.floats(0.0, 1.0)
    subs = draw(st.dictionaries(st.sampled_from(GOLD_WORDS), distributions("s"), max_size=4))
    return LexicalNoiseModel(
        p_insert=draw(st.floats(0.0, 0.9)),
        p_delete=draw(probability),
        p_substitute=draw(probability),
        substitution_table=subs,
        insertion_table=draw(distributions("i")),
    )


class TestTrain:
    def test_hand_counted_example(self):
        model = train_noise_model(_pairs([("a b c", "a x c"), ("a b", "a b")]))
        assert model.p_delete == 0.0
        assert model.p_substitute == pytest.approx(0.2)
        assert model.p_insert == 0.0
        assert model.substitution_table == {"b": (("x", 1.0),)}
        assert model.scale_c == 1.0

    def test_error_free_corpus(self):
        model = train_noise_model(_pairs([("a b", "a b"), ("c", "c")]))
        assert (model.p_insert, model.p_delete, model.p_substitute) == (0.0, 0.0, 0.0)

    def test_insertion_rate_solves_ratio(self):
        # 1 insertion over 4 gold tokens: p/(1-p) = 1/4 -> p = 0.2
        model = train_noise_model(_pairs([("a b c d", "a b z c d")]))
        assert model.p_insert == pytest.approx(0.2)
        assert model.insertion_table == (("z", 1.0),)

    def test_deletion_rate(self):
        model = train_noise_model(_pairs([("a b c d", "a c d")]))
        assert model.p_delete == pytest.approx(0.25)

    def test_empty_gold_error(self):
        with pytest.raises(ContractError):
            train_noise_model(_pairs([("", "a")]))

    def test_all_deleted_warns(self):
        with pytest.warns(UserWarning):
            model = train_noise_model(_pairs([("a b", "")]))
        assert model.p_delete == 1.0
        assert model.p_substitute == 0.0

    def test_substitution_table_frequencies(self):
        model = train_noise_model(
            _pairs([("a x", "b x"), ("a y", "b y"), ("a z", "c z")])
        )
        assert model.substitution_table["a"] == (("b", pytest.approx(2 / 3)), ("c", pytest.approx(1 / 3)))


class TestExpectedWer:
    def test_all_zero(self):
        assert expected_wer(_model()) == 0.0

    def test_insertions_only(self):
        assert expected_wer(_model(p_i=0.5)) == pytest.approx(1.0)

    def test_mixed(self):
        value = expected_wer(_model(p_i=0.02, p_d=0.03, p_s=0.05))
        assert value == pytest.approx(0.02 / 0.98 + 0.03 + 0.97 * 0.05, abs=1e-12)
        assert f"{value:.6f}".startswith("0.098908")


class TestRescale:
    def test_target_zero(self):
        scaled = rescale_to_wer(_model(p_i=0.02, p_d=0.03, p_s=0.05), 0.0)
        assert scaled.scale_c == 0.0
        assert (scaled.p_insert, scaled.p_delete, scaled.p_substitute) == (0.0, 0.0, 0.0)

    def test_linear_case(self):
        scaled = rescale_to_wer(_model(p_d=0.1), 0.2)
        assert scaled.scale_c == pytest.approx(2.0)
        assert scaled.p_delete == pytest.approx(0.2)

    def test_quadratic_residual(self):
        model = _model(p_i=0.02, p_d=0.03, p_s=0.05)
        scaled = rescale_to_wer(model, 0.15)
        c = scaled.scale_c
        # independent root check on the simplified equation
        residual = model.p_delete * model.p_substitute * c * c - (
            model.p_insert + model.p_delete + model.p_substitute
        ) * c + 0.15
        assert abs(residual) < 1e-12
        # and the root is the smaller of the two
        p_sum = 0.1
        other = (p_sum + math.sqrt(p_sum * p_sum - 4 * 0.0015 * 0.15)) / (2 * 0.0015)
        assert 0 <= c < other

    def test_unattainable_target_names_maximum(self):
        with pytest.raises(UnattainableWerError) as exc:
            rescale_to_wer(_model(p_i=0.5), 1.5)
        assert "maximum attainable" in str(exc.value) or "maximum" in str(exc.value)

    def test_no_error_mass(self):
        with pytest.raises(UnattainableWerError, match="target WER 0.1"):
            rescale_to_wer(_model(), 0.1)
        assert rescale_to_wer(_model(), 0.0).scale_c == 0.0

    def test_scale_accumulates(self):
        model = _model(p_d=0.1)
        once = rescale_to_wer(model, 0.2)
        twice = rescale_to_wer(once, 0.1)
        assert twice.scale_c == pytest.approx(1.0)
        assert twice.p_delete == pytest.approx(0.1)


class TestApplyNoise:
    def test_all_zero_model_identity(self):
        sent = TokenSequence.from_raw("a b c")
        assert apply_noise(_model(), sent, seed=5).tokens == ("a", "b", "c")

    def test_delete_everything(self):
        model = _model(p_d=1.0)
        assert apply_noise(model, ["a", "b", "c"], seed=0).tokens == ()

    def test_bit_reproducible(self, toy_noise_model):
        model = rescale_to_wer(toy_noise_model, 0.3)
        corpus = synthetic_corpus(50, seed=21)
        a = apply_noise_corpus(model, corpus, seed=99)
        b = apply_noise_corpus(model, corpus, seed=99)
        assert [s.tokens for s in a] == [s.tokens for s in b]

    def test_sentence_streams_independent_of_corpus_position(self, toy_noise_model):
        model = rescale_to_wer(toy_noise_model, 0.3)
        sent = synthetic_corpus(1, seed=33)[0]
        # the per-sentence stream is a pure function of seed XOR index
        direct = apply_noise(model, sent, seed=4, sentence_index=17)
        assert direct.tokens == apply_noise(model, sent, seed=4 ^ 17, sentence_index=0).tokens

    def test_unknown_words_kept_without_fallback(self):
        model = _model(p_s=0.999, subs={"a": (("z", 1.0),)})
        out = apply_noise(model, ["a", "q"], seed=1)
        assert "q" in out.tokens  # not in the table, kept verbatim

    def test_insertion_can_precede_first_token(self):
        model = _model(p_i=0.9, ins=(("z", 1.0),))
        for seed in range(40):
            out = apply_noise(model, ["a"], seed=seed)
            if out.tokens and out.tokens[0] == "z":
                break
        else:
            pytest.fail("no insertion before the first token in 40 seeds")

    @given(
        noise_models(),
        st.lists(st.lists(st.sampled_from(GOLD_WORDS + ["unk"]), max_size=60), max_size=4),
        st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_sampler(self, model, sentences, seed):
        # p_insert up to 0.9 makes insertion runs long enough to read past a
        # sentence's first block of doubles
        noised = apply_noise_corpus(model, sentences, seed)
        assert [s.tokens for s in noised] == [
            reference_apply_noise(model, sent, seed, i) for i, sent in enumerate(sentences)
        ]

    def test_law_of_large_numbers(self, toy_noise_model):
        # empirical corpus WER converges to the closed-form value (100k tokens)
        model = rescale_to_wer(toy_noise_model, 0.25)
        corpus = synthetic_corpus(10000, seed=3)
        noisy = apply_noise_corpus(model, corpus, seed=1234)
        measured = corpus_wer(list(zip(corpus, noisy)))
        assert measured == pytest.approx(expected_wer(model), abs=0.01)

    def test_calibration_at_twenty_percent(self, toy_noise_model):
        model = rescale_to_wer(toy_noise_model, 0.20)
        corpus = synthetic_corpus(1000, seed=5)
        wers = []
        for seed in (1, 2, 3):
            noisy = apply_noise_corpus(model, corpus, seed=seed)
            wers.append(corpus_wer(list(zip(corpus, noisy))))
        assert sum(wers) / len(wers) == pytest.approx(0.20, abs=0.015)


class TestModelIO:
    def test_round_trip(self, toy_noise_model, tmp_path):
        model = rescale_to_wer(toy_noise_model, 0.15)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model

    def test_truncated_file(self, toy_noise_model, tmp_path):
        path = tmp_path / "model.tsv"
        save_model(toy_noise_model, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2].rsplit("\n", 1)[0] + "\ngarbage line\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_version(self, toy_noise_model, tmp_path):
        path = tmp_path / "model.tsv"
        save_model(toy_noise_model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = "lexical-noise-model\t99"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert "version" in str(exc.value)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.tsv"
        path.write_text("hello\n")
        with pytest.raises(ModelFormatError):
            load_model(path)
        path.write_text("")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_header_field(self, toy_noise_model, tmp_path):
        path = tmp_path / "model.tsv"
        save_model(toy_noise_model, path)
        lines = [
            line
            for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("p_delete\t")
        ]
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        assert "p_delete" in str(exc.value)


class TestModelInvariants:
    def test_probability_bounds(self):
        with pytest.raises(ContractError):
            _model(p_i=1.0)
        with pytest.raises(ContractError):
            _model(p_d=-0.1)
        _model(p_d=1.0)  # deleting every token is a legal degenerate model

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ContractError):
            _model(subs={"a": (("b", 0.5), ("c", 0.4))})

    @pytest.mark.parametrize(
        "rows", [(("x", -0.5), ("y", 1.5)), (("x", math.nan), ("y", 1.0)), (("x", math.inf),)]
    )
    def test_row_probability_bounds(self, rows):
        # rows that sum to 1 (or to nan) are still rejected one by one
        with pytest.raises(ContractError, match="row 'x' has probability"):
            _model(subs={"a": rows})
        with pytest.raises(ContractError, match="insertion row 'x' has probability"):
            _model(p_i=0.1, ins=rows)
