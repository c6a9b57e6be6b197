"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import statistics
import sys
import time

import numpy as np
import pytest

from multisimul.cli import main
from multisimul.corpus import TokenSequence, TranscriptPair
from multisimul.independence import analyze_independence
from multisimul.metrics import (
    Contingency2x2,
    average_lagging,
    bleu,
    chi_square_2x2,
    chrf2,
    corpus_wer,
    normalized_erasure,
    wer,
)
from multisimul.mock_mt import LexiconTranslator
from multisimul.noise import (
    LexicalNoiseModel,
    apply_noise_corpus,
    expected_wer,
    rescale_to_wer,
    save_model,
)
from multisimul.simul import FlushEvent, ReadEvent, WriteEvent, run_simul

import random

from conftest import FIXTURE_HYPS, FIXTURE_REFS, corrupt_for_training, synthetic_corpus
from oracles import (
    chi_square_statistic_exact,
    edit_distance_recursive,
    reference_bleu,
    reference_chrf2,
    reference_decode_full,
)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance criterion {number} ({name}): {status} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_chi_square_reproduction():
    start = time.perf_counter()
    table = ((13815, 1497), (1228, 422))
    result = chi_square_2x2(Contingency2x2(table))
    oracle = float(chi_square_statistic_exact(table))
    stat_ok = abs(result.statistic - oracle) < 1e-6
    p_ok = result.p_value < 0.01
    coverage_ok = f"{100.0 * 16962 / 44494:.2f}" == "38.12"
    elapsed = time.perf_counter() - start
    _report(
        1,
        "chi-square reproduction",
        stat_ok and p_ok and coverage_ok and elapsed < 1.0,
        f"statistic={result.statistic:.6f} oracle={oracle:.6f} "
        f"p={result.p_value:.3g} coverage=38.12% elapsed={elapsed:.3f}s",
    )


def test_criterion_2_wer_calibration(toy_noise_model):
    start = time.perf_counter()
    corpus = synthetic_corpus(1000, seed=5)  # 10k tokens
    targets = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40]
    worst = 0.0
    for target in targets:
        model = rescale_to_wer(toy_noise_model, target)
        measured = statistics.fmean(
            corpus_wer(
                list(zip(corpus, apply_noise_corpus(model, corpus, seed=seed)))
            )
            for seed in (1, 2, 3)
        )
        worst = max(worst, abs(measured - target))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "WER calibration",
        worst <= 0.015 and elapsed < 60.0,
        f"max deviation={worst:.4f} (limit 0.015) elapsed={elapsed:.1f}s",
    )


def test_criterion_3_rescale_exactness(toy_noise_model):
    # a second trained model with a different error profile
    from multisimul.noise import train_noise_model

    gold = synthetic_corpus(300, seed=17)
    other_model = train_noise_model(corrupt_for_training(gold, seed=23))
    worst_residual = 0.0
    worst_gap = 0.0
    for model in (toy_noise_model, other_model):
        for target in [t / 100 for t in range(1, 41)]:
            scaled = rescale_to_wer(model, target)
            c = scaled.scale_c
            residual = (
                model.p_delete * model.p_substitute * c * c
                - (model.p_insert + model.p_delete + model.p_substitute) * c
                + target
            )
            worst_residual = max(worst_residual, abs(residual))
            worst_gap = max(worst_gap, abs(expected_wer(scaled) - target))
    _report(
        3,
        "rescale exactness",
        worst_residual < 1e-12 and worst_gap <= 0.01,
        f"max residual={worst_residual:.2e} (limit 1e-12), "
        f"max closed-form gap={worst_gap:.4f} (limit 0.01)",
    )


def _null_trial(model, corpus, seed_a, seed_b):
    stream_a = apply_noise_corpus(model, corpus, seed=seed_a)
    stream_b = apply_noise_corpus(model, corpus, seed=seed_b)
    src = [TranscriptPair(g, h) for g, h in zip(corpus, stream_a)]
    tgt = [TranscriptPair(g, h) for g, h in zip(corpus, stream_b)]
    alignments = [frozenset((i, i) for i in range(len(g.tokens))) for g in corpus]
    return analyze_independence(src, tgt, alignments, alpha=0.01)


def test_criterion_4_null_calibration(toy_noise_model):
    model = rescale_to_wer(toy_noise_model, 0.20)
    corpus = synthetic_corpus(300, seed=2)
    independent_rejects = sum(
        _null_trial(model, corpus, 1000 + 2 * t, 1001 + 2 * t).reject_independence
        for t in range(20)
    )
    dependent_rejects = sum(
        _null_trial(model, corpus, 5000 + t, 5000 + t).reject_independence
        for t in range(20)
    )
    _report(
        4,
        "independence null calibration",
        independent_rejects <= 2 and dependent_rejects == 20,
        f"independent seeds reject {independent_rejects}/20 (limit 2), "
        f"identical seeds reject {dependent_rejects}/20 (need 20)",
    )


def test_criterion_5_metric_oracle_equivalence():
    hyps, refs = FIXTURE_HYPS, FIXTURE_REFS
    assert len(hyps) == 20
    bleu_gap = abs(bleu(hyps, [refs]) - reference_bleu(hyps, [refs]))
    chrf_gap = abs(chrf2(hyps, [refs]) - reference_chrf2(hyps, [refs]))

    # WER against the exhaustive recursive oracle on the same fixture
    wer_pairs = [
        (h.lower().split(), r.lower().split()) for h, r in zip(refs, hyps)
    ]
    impl_wer = corpus_wer(wer_pairs)
    oracle_wer = sum(
        edit_distance_recursive(g, h) for g, h in wer_pairs
    ) / sum(len(g) for g, _ in wer_pairs)
    wer_gap = abs(impl_wer - oracle_wer)

    # edit-distance equality on random pairs up to length 12
    rng = random.Random(2024)
    alphabet = ["a", "b", "c"]
    mismatches = 0
    for _ in range(400):
        gold = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        if wer(gold, hyp).errors != edit_distance_recursive(gold, hyp):
            mismatches += 1
    _report(
        5,
        "metric oracle equivalence",
        bleu_gap < 1e-4 and chrf_gap < 1e-4 and wer_gap < 1e-4 and mismatches == 0,
        f"bleu gap={bleu_gap:.2e} chrf gap={chrf_gap:.2e} wer gap={wer_gap:.2e} "
        f"edit-distance mismatches={mismatches}/400",
    )


def _mock_corpus(n_sentences=200, vocab_size=60, seed=31):
    rng = np.random.default_rng(seed)
    lexicon = {f"s{i:03d}": f"t{i:03d}" for i in range(vocab_size)}
    words = sorted(lexicon)
    sentences = [
        TokenSequence.from_tokens(
            [words[k] for k in rng.integers(0, vocab_size, size=rng.integers(4, 14))]
        )
        for _ in range(n_sentences)
    ]
    return LexiconTranslator(lexicon), sentences


def test_criterion_6_streaming_properties():
    translator, sentences = _mock_corpus()
    mean_al = []
    offline_matches = True
    ne_zero = True
    append_only = True
    for n in (2, 5, 10, 15):
        als = []
        for sent in sentences:
            online, log = run_simul({"en": translator}, {"en": sent}, n)
            if online != reference_decode_full({"en": translator}, {"en": sent}):
                offline_matches = False
            if normalized_erasure(log).ne != 0.0:
                ne_zero = False
            # an append-only log: only Read/Write/Flush, and the Writes are the output
            if not all(isinstance(e, (ReadEvent, WriteEvent, FlushEvent)) for e in log.events):
                append_only = False
            if [e.token for e in log.events if isinstance(e, WriteEvent)] != online:
                append_only = False
            als.append(average_lagging(log, "en").al)
        mean_al.append(statistics.fmean(als))
    monotone = all(a <= b + 1e-12 for a, b in zip(mean_al, mean_al[1:]))

    # hand-traced fixtures
    five = TokenSequence.from_tokens([f"s{i:03d}" for i in range(5)])
    _, log = run_simul({"en": translator}, {"en": five}, 50)  # LA-inf: read all
    read_all_ok = average_lagging(log, "en").al == pytest.approx(5.0)
    _, log1 = run_simul({"en": translator}, {"en": five}, 1)  # commit every read
    interleaved_ok = average_lagging(log1, "en").al == pytest.approx(1.0)

    _report(
        6,
        "streaming properties",
        offline_matches and ne_zero and append_only and monotone and read_all_ok
        and interleaved_ok,
        f"mean AL over n=(2,5,10,15): {[f'{a:.3f}' for a in mean_al]}, "
        f"offline match={offline_matches}, NE==0={ne_zero}, append-only={append_only}, "
        f"read-all AL=5 ok={read_all_ok}, interleaved AL=1 ok={interleaved_ok}",
    )


def _robustness_setup(vocab_size=120, n_sentences=150, tokens=10, seed=41):
    rng = np.random.default_rng(seed)
    lex_en = {f"en{i:03d}": f"cs{i:03d}" for i in range(vocab_size)}
    lex_de = {f"de{i:03d}": f"cs{i:03d}" for i in range(vocab_size)}
    idx = [rng.integers(0, vocab_size, size=tokens) for _ in range(n_sentences)]
    en = [TokenSequence.from_tokens([f"en{k:03d}" for k in row]) for row in idx]
    de = [TokenSequence.from_tokens([f"de{k:03d}" for k in row]) for row in idx]
    refs = [" ".join(f"cs{k:03d}" for k in row) for row in idx]

    def junk_model(prefix):
        table = {
            f"{prefix}{i:03d}": ((f"x{prefix}{i:03d}", 1.0),) for i in range(vocab_size)
        }
        return LexicalNoiseModel(
            p_insert=0.02,
            p_delete=0.03,
            p_substitute=0.05,
            substitution_table=table,
            insertion_table=((f"x{prefix}fill", 1.0),),
        )

    return (
        {"en": LexiconTranslator(lex_en), "de": LexiconTranslator(lex_de)},
        {"en": en, "de": de},
        refs,
        {"en": junk_model("en"), "de": junk_model("de")},
    )


def test_criterion_7_multi_source_robustness():
    start = time.perf_counter()
    translators, clean, refs, models = _robustness_setup()
    levels = (0.10, 0.20, 0.30)
    seeds = (1, 2, 3)
    margins_ok = True
    strictly_higher = 0
    details = []
    for level in levels:
        scores = {"en": [], "de": [], "multi": []}
        for seed in seeds:
            noised = {
                lang: apply_noise_corpus(
                    rescale_to_wer(models[lang], level),
                    clean[lang],
                    seed=seed * 1_000_003 + li,
                )
                for li, lang in enumerate(("en", "de"))
            }
            outputs = {"en": [], "de": [], "multi": []}
            for i in range(len(refs)):
                for lang in ("en", "de"):
                    offline, _ = run_simul(
                        {lang: translators[lang]}, {lang: noised[lang][i]}, sys.maxsize
                    )
                    outputs[lang].append(" ".join(offline))
                offline, _ = run_simul(
                    translators, {lang: noised[lang][i] for lang in noised}, sys.maxsize
                )
                outputs["multi"].append(" ".join(offline))
            for system, lines in outputs.items():
                scores[system].append(bleu(lines, [refs]))
        avg = {system: statistics.fmean(vals) for system, vals in scores.items()}
        best_single = max(avg["en"], avg["de"])
        if avg["multi"] < best_single - 0.1:
            margins_ok = False
        if avg["multi"] > best_single:
            strictly_higher += 1
        details.append(
            f"{int(level * 100)}%: en={avg['en']:.2f} de={avg['de']:.2f} "
            f"multi={avg['multi']:.2f}"
        )
    elapsed = time.perf_counter() - start
    _report(
        7,
        "multi-source robustness trend",
        margins_ok and strictly_higher >= 2 and elapsed < 300.0,
        "; ".join(details)
        + f"; strictly higher at {strictly_higher}/3 levels, elapsed={elapsed:.1f}s",
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    # build a small sweep workspace and run every command twice
    en_lines = ["e01 e02 e03 e04", "e02 e04 e01", "e03 e01 e02 e04 e02"]
    cs_lines = [line.replace("e", "c") for line in en_lines]

    def write(name, lines):
        p = tmp_path / name
        p.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        return p

    write("en.txt", en_lines)
    write("de.txt", en_lines)
    write("cs.txt", cs_lines)
    write("lex.tsv", [f"e{i:02d}\tc{i:02d}" for i in range(1, 5)])
    model = LexicalNoiseModel(
        p_insert=0.02,
        p_delete=0.03,
        p_substitute=0.05,
        substitution_table={f"e{i:02d}": ((f"q{i:02d}", 1.0),) for i in range(1, 5)},
        insertion_table=(("qq", 1.0),),
    )
    save_model(model, tmp_path / "model.tsv")
    write(
        "sweep.cfg",
        [
            "version=1",
            "languages=en,de",
            "primary=en",
            "source.en=en.txt",
            "source.de=de.txt",
            "lexicon.en=lex.tsv",
            "lexicon.de=lex.tsv",
            "noise_model.en=model.tsv",
            "noise_model.de=model.tsv",
            "reference=cs.txt",
            "wer_grid=0.2:0.2",
            "la_grid=2",
            "seeds=3",
        ],
    )

    identical = True
    # noise-apply twice
    for name in ("n1.txt", "n2.txt"):
        assert (
            main(
                [
                    "noise-apply",
                    "--model", str(tmp_path / "model.tsv"),
                    "--target-wer", "0.2",
                    "--seed", "5",
                    "--in", str(tmp_path / "en.txt"),
                    "--out", str(tmp_path / name),
                ]
            )
            == 0
        )
    identical &= (tmp_path / "n1.txt").read_bytes() == (tmp_path / "n2.txt").read_bytes()

    # sweep twice
    for d in ("out1", "out2"):
        assert (
            main(
                [
                    "sweep",
                    "--config", str(tmp_path / "sweep.cfg"),
                    "--out-dir", str(tmp_path / d),
                ]
            )
            == 0
        )
    names1 = sorted(p.name for p in (tmp_path / "out1").iterdir())
    names2 = sorted(p.name for p in (tmp_path / "out2").iterdir())
    identical &= names1 == names2 and bool(names1)
    for name in names1:
        identical &= (tmp_path / "out1" / name).read_bytes() == (
            tmp_path / "out2" / name
        ).read_bytes()

    # score output twice (captured stdout)
    capsys.readouterr()  # drop output of the commands above
    out = []
    for _ in range(2):
        assert (
            main(
                [
                    "score",
                    "--hyps", str(tmp_path / "cs.txt"),
                    "--refs", str(tmp_path / "cs.txt"),
                    "--compare", str(tmp_path / "cs.txt"),
                    "--seed", "11",
                ]
            )
            == 0
        )
        out.append(capsys.readouterr().out)
    identical &= out[0] == out[1]

    with capsys.disabled():
        _report(8, "CLI determinism", bool(identical), "all reruns byte-identical")
