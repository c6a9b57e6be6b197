import concurrent.futures
import hashlib
import multiprocessing
import os
import random
import statistics

import numpy as np
import pytest

from multisimul import cli, independence, metrics, noise, pool
from multisimul.cli import _run_system, main
from multisimul.corpus import TokenSequence, load_transcript_pairs, load_word_alignment
from multisimul.errors import EngineError
from multisimul.independence import analyze_independence
from multisimul.mock_mt import LexiconTranslator
from multisimul.noise import LexicalNoiseModel, save_model


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


EN_LINES = [
    "e01 e02 e03 e04 e05 e06",
    "e07 e08 e01 e02",
    "e03 e05 e07 e01 e04",
    "e02 e06 e08 e03 e01 e05 e07",
]
CS_LINES = [line.replace("e", "c") for line in EN_LINES]
EN_LEXICON = [f"e{i:02d}\tc{i:02d}" for i in range(1, 9)]


def _noise_model(junk_prefix="q"):
    """Small model whose substitutions produce out-of-lexicon junk."""
    words = [f"e{i:02d}" for i in range(1, 9)]
    table = {w: ((f"{junk_prefix}{w}", 1.0),) for w in words}
    return LexicalNoiseModel(
        p_insert=0.02,
        p_delete=0.03,
        p_substitute=0.05,
        substitution_table=table,
        insertion_table=(("qfill", 1.0),),
    )


@pytest.fixture
def workspace(tmp_path):
    _write(tmp_path / "en.txt", EN_LINES)
    _write(tmp_path / "de.txt", EN_LINES)  # duplicated source, identical mocks
    _write(tmp_path / "cs.txt", CS_LINES)
    _write(tmp_path / "lex_en.tsv", EN_LEXICON)
    _write(tmp_path / "lex_de.tsv", EN_LEXICON)
    save_model(_noise_model(), tmp_path / "noise_en.tsv")
    save_model(_noise_model(), tmp_path / "noise_de.tsv")
    return tmp_path


def _sweep_config(workspace, wer_grid, la_grid="1,2", seeds="1,2"):
    lines = [
        "version=1",
        "languages=en,de",
        "primary=en",
        "source.en=en.txt",
        "source.de=de.txt",
        "lexicon.en=lex_en.tsv",
        "lexicon.de=lex_de.tsv",
        "noise_model.en=noise_en.tsv",
        "noise_model.de=noise_de.tsv",
        "reference=cs.txt",
        f"wer_grid={wer_grid}",
        f"la_grid={la_grid}",
        f"seeds={seeds}",
    ]
    path = workspace / "sweep.cfg"
    _write(path, lines)
    return path


def _read_tsv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return header, [dict(zip(header, line.split("\t"))) for line in lines[1:]]


class TestScore:
    def test_perfect_hypothesis(self, tmp_path, capsys):
        _write(tmp_path / "hyp.txt", CS_LINES)
        _write(tmp_path / "ref.txt", CS_LINES)
        code = main(
            ["score", "--hyps", str(tmp_path / "hyp.txt"), "--refs", str(tmp_path / "ref.txt")]
        )
        assert code == 0
        out = dict(
            line.split("\t")[:2] for line in capsys.readouterr().out.splitlines()
        )
        assert float(out["bleu"]) == pytest.approx(100.0)
        assert float(out["chrf2"]) == pytest.approx(100.0)

    def test_compare_bootstrap_row(self, tmp_path, capsys):
        _write(tmp_path / "hyp.txt", CS_LINES)
        _write(tmp_path / "ref.txt", CS_LINES)
        code = main(
            [
                "score",
                "--hyps", str(tmp_path / "hyp.txt"),
                "--refs", str(tmp_path / "ref.txt"),
                "--compare", str(tmp_path / "hyp.txt"),
                "--seed", "5",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        p_rows = [l for l in lines if l.startswith("bleu_bootstrap_p")]
        assert len(p_rows) == 1
        assert 0.3 <= float(p_rows[0].split("\t")[1]) <= 0.7

    def test_compare_scores_equal_plain_scores(self, tmp_path, capsys):
        _write(tmp_path / "hyp.txt", CS_LINES[:3] + ["c09 c02"])
        _write(tmp_path / "ref.txt", CS_LINES)
        _write(tmp_path / "other.txt", CS_LINES[1:] + ["c01"])
        argv = ["score", "--hyps", str(tmp_path / "hyp.txt"), "--refs", str(tmp_path / "ref.txt")]
        assert main(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(argv + ["--compare", str(tmp_path / "other.txt")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == plain
        assert [line.split("\t")[0] for line in lines[2:]] == [
            "bleu_bootstrap_p", "chrf2_bootstrap_p",
        ]

    def test_repeated_refs_flag(self, tmp_path, capsys):
        # a repeated --refs adds its references to the earlier ones
        _write(tmp_path / "hyp.txt", CS_LINES[:3] + ["c09 c02"])
        _write(tmp_path / "ref.txt", CS_LINES)
        _write(tmp_path / "ref_b.txt", CS_LINES[1:] + ["c09 c02"])
        hyps, ref, ref_b = (str(tmp_path / name) for name in ("hyp.txt", "ref.txt", "ref_b.txt"))
        printed = []
        for refs in (["--refs", ref, ref_b], ["--refs", ref, "--refs", ref_b], ["--refs", ref_b]):
            assert main(["score", "--hyps", hyps, *refs]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] != printed[2]

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(
            ["score", "--hyps", str(tmp_path / "nope.txt"), "--refs", str(tmp_path / "nope.txt")]
        )
        assert code == 2

    def test_length_mismatch_exit_code(self, tmp_path, capsys):
        _write(tmp_path / "hyp.txt", CS_LINES)
        _write(tmp_path / "ref.txt", CS_LINES[:-1])
        code = main(
            ["score", "--hyps", str(tmp_path / "hyp.txt"), "--refs", str(tmp_path / "ref.txt")]
        )
        assert code == 2
        assert "line-count mismatch" in capsys.readouterr().err

    def test_compare_length_mismatch_exit_code(self, tmp_path, capsys):
        _write(tmp_path / "hyp.txt", CS_LINES)
        _write(tmp_path / "ref.txt", CS_LINES)
        _write(tmp_path / "other.txt", CS_LINES[:-1])
        code = main(
            [
                "score",
                "--hyps", str(tmp_path / "hyp.txt"),
                "--refs", str(tmp_path / "ref.txt"),
                "--compare", str(tmp_path / "other.txt"),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "other.txt has 3" in captured.err
        assert captured.out == ""

    def test_bad_utf8_exit_code(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_bytes(b"c01 c02\n\xff\xfe c03\n")
        _write(tmp_path / "ref.txt", CS_LINES[:2])
        code = main(
            ["score", "--hyps", str(tmp_path / "hyp.txt"), "--refs", str(tmp_path / "ref.txt")]
        )
        assert code == 2
        assert "UTF-8 decoding failed on line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("compare", [False, True])
    def test_empty_corpus_exit_code(self, tmp_path, capsys, compare):
        for name in ("hyp.txt", "ref.txt", "other.txt"):
            _write(tmp_path / name, [])
        argv = ["score", "--hyps", str(tmp_path / "hyp.txt"), "--refs", str(tmp_path / "ref.txt")]
        if compare:
            argv += ["--compare", str(tmp_path / "other.txt")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "has no segments" in captured.err
        assert captured.out == ""

    def test_empty_hypothesis_line_scores_zero(self, tmp_path, capsys):
        # a file of one empty line holds one segment, not none
        _write(tmp_path / "hyp.txt", [""])
        _write(tmp_path / "ref.txt", ["x"])
        argv = ["score", "--hyps", str(tmp_path / "hyp.txt"), "--refs", str(tmp_path / "ref.txt")]
        assert main(argv) == 0
        out = dict(line.split("\t")[:2] for line in capsys.readouterr().out.splitlines())
        assert float(out["bleu"]) == float(out["chrf2"]) == 0.0


class TestNoiseCommands:
    def test_train_then_apply(self, tmp_path, capsys):
        _write(tmp_path / "gold.txt", ["a b c d e f g h", "i j k l m n"])
        _write(tmp_path / "asr.txt", ["a b x d e f g h", "i j k l m q"])
        code = main(
            [
                "noise-train",
                "--gold", str(tmp_path / "gold.txt"),
                "--asr", str(tmp_path / "asr.txt"),
                "--out", str(tmp_path / "model.tsv"),
            ]
        )
        assert code == 0
        code = main(
            [
                "noise-apply",
                "--model", str(tmp_path / "model.tsv"),
                "--target-wer", "0.3",
                "--seed", "7",
                "--in", str(tmp_path / "gold.txt"),
                "--out", str(tmp_path / "noisy.txt"),
            ]
        )
        assert code == 0
        assert (tmp_path / "noisy.txt").exists()

    def test_apply_deterministic(self, tmp_path, capsys, workspace):
        for name in ("a.txt", "b.txt"):
            code = main(
                [
                    "noise-apply",
                    "--model", str(workspace / "noise_en.tsv"),
                    "--target-wer", "0.25",
                    "--seed", "3",
                    "--in", str(workspace / "en.txt"),
                    "--out", str(tmp_path / name),
                ]
            )
            assert code == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_unattainable_target_exit_code(self, tmp_path, capsys, workspace):
        code = main(
            [
                "noise-apply",
                "--model", str(workspace / "noise_en.tsv"),
                "--target-wer", "50.0",
                "--seed", "3",
                "--in", str(workspace / "en.txt"),
                "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("target", ["-0.1", "nan", "inf"])
    def test_bad_target_wer_exit_code(self, tmp_path, capsys, workspace, target):
        # a bad command-line value is a configuration error, as in the sweep
        code = main(
            [
                "noise-apply",
                "--model", str(workspace / "noise_en.tsv"),
                "--target-wer", target,
                "--seed", "3",
                "--in", str(workspace / "en.txt"),
                "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert code == 3
        assert "config error: --target-wer" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("row", ["a\t\t1.0", "a\tb c\t1.0", "\t\t1.0", "\tb c\t1.0"])
    def test_model_word_not_one_token_exit_code(self, tmp_path, capsys, row):
        # a substitution or insertion word must stay one token of the output
        header = ["lexical-noise-model\t1", "p_insert\t0.5", "p_delete\t0.0",
                  "p_substitute\t0.999", "scale_c\t1.0"]
        _write(tmp_path / "model.tsv", header + [row])
        _write(tmp_path / "in.txt", ["a a a a"])
        code = main(
            [
                "noise-apply",
                "--model", str(tmp_path / "model.tsv"),
                "--seed", "1",
                "--in", str(tmp_path / "in.txt"),
                "--out", str(tmp_path / "out.txt"),
            ]
        )
        assert code == 2
        assert "malformed line 6" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    def test_bad_utf8_model_exit_code(self, tmp_path, capsys, workspace):
        model = (workspace / "noise_en.tsv").read_bytes()
        (tmp_path / "model.tsv").write_bytes(model + b"\xff\tq\t1.0\n")
        code = main(
            [
                "noise-apply",
                "--model", str(tmp_path / "model.tsv"),
                "--seed", "1",
                "--in", str(workspace / "en.txt"),
                "--out", str(tmp_path / "out.txt"),
            ]
        )
        assert code == 2
        line = model.count(b"\n") + 1
        assert f"UTF-8 decoding failed on line {line}" in capsys.readouterr().err


INDEPENDENCE_FILES = {
    "src_gold": ["a b", "c d", "e f", "g h"],
    "src_asr": ["a b", "c X", "e f", "Y h"],
    "tgt_gold": ["p q", "r s", "t u", "v w"],
    "tgt_asr": ["p Z", "r s", "t u", "W w"],
    "align": ["0-0 1-1"] * 4,
}


def _independence_argv(path, **lines):
    """Write the independence inputs, with ``lines`` replacing some files."""
    argv = ["independence"]
    for name, default in INDEPENDENCE_FILES.items():
        _write(path / f"{name}.txt", lines.get(name, default))
        argv += [f"--{name.replace('_', '-')}", str(path / f"{name}.txt")]
    return argv


class TestIndependenceCommand:
    def test_report_fields(self, tmp_path, capsys):
        code = main(_independence_argv(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        fields = dict(
            line.split("\t") for line in out.splitlines() if "\t" in line
        )
        assert fields["aligned_links"] == "8"
        assert float(fields["coverage"]) == pytest.approx(1.0)
        assert "decision at alpha" in out


# each flag's library parameter; the inputs differ in case and punctuation
TRANSCRIPT_FLAGS = [
    ("noise-train", "--keep-case", {"lowercase": False}),
    ("noise-train", "--strip-punct", {"strip_punct": True}),
    ("independence", "--keep-case", {"lowercase": False}),
    ("independence", "--strip-punct", {"strip_punct": True}),
    ("independence", "--yates", {"yates": True}),
]


@pytest.mark.parametrize(
    "command, flag, kwargs", TRANSCRIPT_FLAGS, ids=[f"{c}{f}" for c, f, _ in TRANSCRIPT_FLAGS]
)
def test_flag_matches_library_parameter(tmp_path, capsys, command, flag, kwargs):
    normalization = {k: v for k, v in kwargs.items() if k != "yates"}
    if command == "noise-train":
        _write(tmp_path / "gold.txt", ["The cat, sat", "a dog ran"])
        _write(tmp_path / "asr.txt", ["the cat sat", "a dog an"])
        outputs = []
        for extra in ([], [flag]):
            out = tmp_path / f"model{len(extra)}.tsv"
            argv = ["noise-train", "--gold", str(tmp_path / "gold.txt"),
                    "--asr", str(tmp_path / "asr.txt"), "--out", str(out), *extra]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        pairs = load_transcript_pairs(
            tmp_path / "gold.txt", tmp_path / "asr.txt", **normalization
        )
        save_model(noise.train_noise_model(pairs), tmp_path / "expected.tsv")
        assert outputs[1] == (tmp_path / "expected.tsv").read_bytes()
    else:
        argv = _independence_argv(
            tmp_path, src_gold=["A b", "c d", "e f.", "g h"],
            src_asr=["a b", "c X", "e f", "Y h"],
        )
        outputs = []
        for extra in ([], [flag]):
            assert main(argv + extra) == 0
            outputs.append(capsys.readouterr().out)
        pairs = [
            load_transcript_pairs(tmp_path / f"{side}_gold.txt", tmp_path / f"{side}_asr.txt",
                                  **normalization)
            for side in ("src", "tgt")
        ]
        report = analyze_independence(
            *pairs, load_word_alignment(tmp_path / "align.txt"),
            yates=kwargs.get("yates", False),
        )
        assert outputs[1].endswith(report.summary() + "\n")
    assert outputs[1] != outputs[0]


class TestSimulateCommand:
    def test_multi_source_run(self, workspace, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--source", f"en={workspace / 'en.txt'}", f"de={workspace / 'de.txt'}",
                "--lexicon", f"en={workspace / 'lex_en.tsv'}", f"de={workspace / 'lex_de.tsv'}",
                "--la-n", "2",
                "--primary", "en",
                "--refs", str(workspace / "cs.txt"),
                "--out", str(tmp_path / "out.txt"),
            ]
        )
        assert code == 0
        rows = dict(
            line.split("\t") for line in capsys.readouterr().out.splitlines()
        )
        assert float(rows["bleu"]) == pytest.approx(100.0)
        assert float(rows["ne"]) == 0.0
        assert (tmp_path / "out.txt").read_text(encoding="utf-8").splitlines() == CS_LINES

    def test_repeated_flags_match_one_flag(self, workspace, tmp_path, capsys):
        # each repeated --source, --lexicon or --refs adds to the earlier values
        _write(workspace / "cs_b.txt", CS_LINES[1:] + CS_LINES[:1])
        src = [f"{lang}={workspace / f'{lang}.txt'}" for lang in ("en", "de")]
        lex = [f"{lang}={workspace / f'lex_{lang}.tsv'}" for lang in ("en", "de")]
        refs = [str(workspace / "cs.txt"), str(workspace / "cs_b.txt")]
        forms = {
            "one": ["--source", *src, "--lexicon", *lex, "--refs", *refs],
            "repeated": [
                "--source", src[0], "--source", src[1],
                "--lexicon", lex[0], "--lexicon", lex[1],
                "--refs", refs[0], "--refs", refs[1],
            ],
        }
        printed, written = [], []
        for name, flags in forms.items():
            out = tmp_path / f"out_{name}.txt"
            assert main(["simulate", *flags, "--primary", "en", "--out", str(out)]) == 0
            printed.append(capsys.readouterr().out)
            written.append(out.read_bytes())
        assert printed[0] == printed[1]
        assert written[0] == written[1]

    def test_language_repeated_across_flags_exit_code(self, workspace, capsys):
        code = main(
            [
                "simulate",
                "--source", f"en={workspace / 'en.txt'}",
                "--source", f"en={workspace / 'de.txt'}",
                "--lexicon", f"en={workspace / 'lex_en.tsv'}",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "--source repeats language 'en'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("empty", ["en", "de"])
    def test_one_empty_source_left_out_of_latency(self, empty, capsys):
        translators = {
            lang: LexiconTranslator({"a": "A"}) for lang in ("en", "de")
        }
        columns = {"en": [TokenSequence.from_raw("a")], "de": [TokenSequence.from_raw("a")]}
        columns[empty] = [TokenSequence.from_raw("")]
        outputs, als = _run_system(translators, columns, 2, "en")
        assert len(outputs) == 1
        assert als == []
        assert "1 of 1 sentences left out of AL (" in capsys.readouterr().err

    @pytest.mark.parametrize("empty", ["en", "de"])
    def test_empty_source_sentence_keeps_the_run(self, workspace, tmp_path, empty, capsys):
        def simulate(en, de):
            _write(tmp_path / "en.txt", en)
            _write(tmp_path / "de.txt", de)
            code = main(
                [
                    "simulate",
                    "--source", f"en={tmp_path / 'en.txt'}", f"de={tmp_path / 'de.txt'}",
                    "--lexicon", f"en={workspace / 'lex_en.tsv'}", f"de={workspace / 'lex_de.tsv'}",
                    "--la-n", "2",
                    "--out", str(tmp_path / "out.txt"),
                ]
            )
            assert code == 0
            captured = capsys.readouterr()
            rows = dict(line.split("\t") for line in captured.out.splitlines())
            return rows, captured.err

        sources = {"en": list(EN_LINES), "de": list(EN_LINES)}
        sources[empty][1] = ""
        rows, err = simulate(sources["en"], sources["de"])
        assert "1 of 4 sentences left out of AL (" in err
        assert len((tmp_path / "out.txt").read_text(encoding="utf-8").splitlines()) == 4
        kept = [line for i, line in enumerate(EN_LINES) if i != 1]
        expected, _ = simulate(kept, kept)
        assert rows == expected

    def test_all_sources_empty_sentence(self, workspace, tmp_path, capsys):
        # no source has a token, so the sentence is not streamed at all
        lines = [EN_LINES[0], "", EN_LINES[2]]
        _write(tmp_path / "en.txt", lines)
        _write(tmp_path / "de.txt", lines)
        code = main(
            [
                "simulate",
                "--source", f"en={tmp_path / 'en.txt'}", f"de={tmp_path / 'de.txt'}",
                "--lexicon", f"en={workspace / 'lex_en.tsv'}", f"de={workspace / 'lex_de.tsv'}",
                "--la-n", "2",
                "--out", str(tmp_path / "out.txt"),
            ]
        )
        assert code == 0
        assert "1 of 3 sentences left out of AL (" in capsys.readouterr().err
        outputs = (tmp_path / "out.txt").read_text(encoding="utf-8").splitlines()
        assert outputs == [CS_LINES[0], "", CS_LINES[2]]

    def test_eos_spelling_is_an_ordinary_word(self, workspace, tmp_path, capsys):
        # a target and a source word spelled </s> stream like any other word
        _write(workspace / "lex_en.tsv", [EN_LEXICON[0], "e02\t</s>", *EN_LEXICON[2:]])
        _write(workspace / "lex_de.tsv", [EN_LEXICON[0], "e02\t</s>", *EN_LEXICON[2:]])
        lines = [EN_LINES[0], "e07 </s> e01 e02"]
        _write(workspace / "en.txt", lines)
        _write(workspace / "de.txt", lines)
        outputs = []
        for langs in (["en"], ["en", "de"]):
            out = tmp_path / f"out_{len(langs)}.txt"
            code = main(
                [
                    "simulate",
                    "--source", *(f"{lang}={workspace / f'{lang}.txt'}" for lang in langs),
                    "--lexicon", *(f"{lang}={workspace / f'lex_{lang}.tsv'}" for lang in langs),
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_text(encoding="utf-8").splitlines())
        assert outputs[0] == outputs[1] == ["c01 </s> c03 c04 c05 c06", "c07 </s> c01 </s>"]

    def test_la_n_above_sys_maxsize(self, workspace, capsys):
        # a ring that no sentence fills commits at the Flush, as --la-n 1000 does
        printed = []
        for la_n in (str(2**63), "1000"):
            code = main(
                [
                    "simulate",
                    "--source", f"en={workspace / 'en.txt'}", f"de={workspace / 'de.txt'}",
                    "--lexicon", f"en={workspace / 'lex_en.tsv'}", f"de={workspace / 'lex_de.tsv'}",
                    "--la-n", la_n,
                    "--refs", str(workspace / "cs.txt"),
                ]
            )
            assert code == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_bad_utf8_lexicon_exit_code(self, workspace, capsys):
        (workspace / "lex_en.tsv").write_bytes(b"e01\tc01\n\xff\tc02\n")
        code = main(
            [
                "simulate",
                "--source", f"en={workspace / 'en.txt'}",
                "--lexicon", f"en={workspace / 'lex_en.tsv'}",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "input error" in captured.err
        assert "UTF-8 decoding failed on line 2" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("row", ["a\tx y", "a b\tx", "a\t"])
    def test_lexicon_field_not_one_token_exit_code(self, tmp_path, capsys, row):
        # one engine token must stay one output word, or AL and BLEU disagree
        _write(tmp_path / "lex.tsv", ["b\tz", row])
        _write(tmp_path / "src.txt", ["a b"])
        code = main(
            [
                "simulate",
                "--source", f"en={tmp_path / 'src.txt'}",
                "--lexicon", f"en={tmp_path / 'lex.tsv'}",
                "--la-n", "1",
                "--out", str(tmp_path / "out.txt"),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "malformed lexicon entry at line 2" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out.txt").exists()

    def test_la_n_below_one_exit_code(self, workspace, capsys):
        code = main(
            [
                "simulate",
                "--source", f"en={workspace / 'en.txt'}",
                "--lexicon", f"en={workspace / 'lex_en.tsv'}",
                "--la-n", "0",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "--la-n must be at least 1" in captured.err
        assert captured.out == ""

    def test_bad_lang_spec_exit_code(self, workspace, capsys):
        code = main(
            [
                "simulate",
                "--source", "en.txt",
                "--lexicon", f"en={workspace / 'lex_en.tsv'}",
            ]
        )
        assert code == 3


class TestSweep:
    def test_degenerate_grid_rows_identical_across_systems(self, workspace, capsys):
        config = _sweep_config(workspace, wer_grid="0:0", la_grid="2", seeds="1")
        out_dir = workspace / "out"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        header, rows = _read_tsv(out_dir / "results.tsv")
        assert len(rows) == 3  # en, de, multi
        metric_cols = ("bleu", "chrf2", "al", "ne")
        values = {row["system"]: tuple(row[c] for c in metric_cols) for row in rows}
        assert values["multi"] == values["en"] == values["de"]
        assert float(values["multi"][0]) == pytest.approx(100.0)

    def test_row_count_invariant(self, workspace, capsys):
        config = _sweep_config(
            workspace, wer_grid="0.1:0.1,0.2:0.2", la_grid="1,2", seeds="1,2"
        )
        out_dir = workspace / "out"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        _, rows = _read_tsv(out_dir / "results.tsv")
        assert len(rows) == 2 * 2 * 3 * 2  # cells x la x systems x seeds

    def test_summary_matches_recomputation(self, workspace, capsys):
        config = _sweep_config(
            workspace, wer_grid="0.15:0.15", la_grid="2", seeds="1,2,3"
        )
        out_dir = workspace / "out"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        _, rows = _read_tsv(out_dir / "results.tsv")
        _, summary = _read_tsv(out_dir / "summary.tsv")
        for srow in summary:
            group = [
                r
                for r in rows
                if r["system"] == srow["system"] and r["la_n"] == srow["la_n"]
            ]
            assert len(group) == 3
            for metric in ("bleu", "chrf2", "al", "ne"):
                values = [float(r[metric]) for r in group]
                assert float(srow[f"{metric}_avg"]) == pytest.approx(
                    statistics.fmean(values), abs=1e-4
                )
                assert float(srow[f"{metric}_std"]) == pytest.approx(
                    statistics.pstdev(values), abs=1e-4
                )

    def test_tradeoff_files_emitted_per_cell(self, workspace, capsys):
        config = _sweep_config(
            workspace, wer_grid="0.1:0.1,0.2:0.2", la_grid="1,2", seeds="1"
        )
        out_dir = workspace / "out"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        tradeoffs = sorted(p.name for p in out_dir.glob("tradeoff_*.tsv"))
        assert tradeoffs == ["tradeoff_en0.10_de0.10.tsv", "tradeoff_en0.20_de0.20.tsv"]
        header, rows = _read_tsv(out_dir / "tradeoff_en0.10_de0.10.tsv")
        assert header == ["system", "la_n", "al", "bleu"]
        assert len(rows) == 6  # 3 systems x 2 la sizes

    def test_rerun_byte_identical(self, workspace, capsys):
        config = _sweep_config(workspace, wer_grid="0.2:0.2", la_grid="2", seeds="4")
        dirs = [workspace / "out1", workspace / "out2"]
        for d in dirs:
            assert main(["sweep", "--config", str(config), "--out-dir", str(d)]) == 0
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_noise_word_spelled_eos(self, workspace, capsys, monkeypatch):
        # the noise model substitutes and inserts an ordinary word spelled </s>
        model = LexicalNoiseModel(
            p_insert=0.02,
            p_delete=0.03,
            p_substitute=0.05,
            substitution_table={f"e{i:02d}": (("</s>", 1.0),) for i in range(1, 9)},
            insertion_table=(("</s>", 1.0),),
        )
        save_model(model, workspace / "noise_en.tsv")
        streamed, engine = [], cli.run_simul

        def run_simul(translators, sources, n):
            streamed.extend(s.tokens for s in sources.values())
            return engine(translators, sources, n)

        monkeypatch.setattr(cli, "run_simul", run_simul)
        # in-process, so that the runs append to this process's list
        monkeypatch.setattr(pool, "worker_count", lambda units: 1)
        config = _sweep_config(workspace, wer_grid="0.3:0.3", la_grid="2", seeds="1")
        assert main(["sweep", "--config", str(config), "--out-dir", str(workspace / "out")]) == 0
        assert any("</s>" in tokens for tokens in streamed)
        _, rows = _read_tsv(workspace / "out" / "results.tsv")
        assert len(rows) == 3

    def test_la_size_above_sys_maxsize(self, workspace, capsys):
        # no sentence fills either ring, so both sizes commit at the Flush
        config = _sweep_config(
            workspace, wer_grid="0.1:0.1", la_grid="2,1000,100000000000000000000", seeds="1"
        )
        assert main(["sweep", "--config", str(config), "--out-dir", str(workspace / "out")]) == 0
        _, rows = _read_tsv(workspace / "out" / "results.tsv")
        scores = {}
        for row in rows:
            scores.setdefault(row["la_n"], []).append((row["bleu"], row["chrf2"], row["al"]))
        assert scores["100000000000000000000"] == scores["1000"]

    def test_config_with_byte_order_mark(self, workspace, capsys):
        # a leading UTF-8 byte-order mark is not part of "version=1"
        config = _sweep_config(workspace, wer_grid="0.1:0.1", la_grid="2", seeds="1")
        plain, marked = workspace / "plain", workspace / "marked"
        assert main(["sweep", "--config", str(config), "--out-dir", str(plain)]) == 0
        config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        assert main(["sweep", "--config", str(config), "--out-dir", str(marked)]) == 0
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in marked.iterdir()) and names
        for name in names:
            assert (marked / name).read_bytes() == (plain / name).read_bytes()

    def test_config_errors(self, workspace, capsys):
        bad = workspace / "bad.cfg"
        bad.write_text("version=1\nlanguages=en,de\n", encoding="utf-8")
        assert main(["sweep", "--config", str(bad), "--out-dir", str(workspace / "out")]) == 3
        assert "missing required key 'wer_grid'" in capsys.readouterr().err

        # (line that replaces the config's line with the same key, text that
        # stderr must name); each is rejected before any work
        rejected_before_any_work = [
            ("version=9", "missing or unsupported config version"),
            ("la_grid 2", "line 12 is not key=value: 'la_grid 2'"),
            ("languages=", "languages must be non-empty"),
            ("languages=en,en", "languages must be distinct: en,en"),
            # would overwrite the multi system's rows
            ("languages=en,multi", "'multi' names the multi-source system"),
            # would run the whole grid, then fail to write tradeoff_e/n0.10_de0.10.tsv
            ("languages=e/n,de", "language 'e/n' needs letters, digits, '_' or '-' only"),
            # the multi system would be the one language's system run again
            ("languages=en", "the 'multi' system needs at least two languages"),
            ("primary=fr", "primary 'fr' not among languages"),
            ("wer_grid=0.1", "wer cell '0.1' needs 2 colon-separated values"),
            ("wer_grid=", "wer cell '' needs 2 colon-separated values"),
            ("wer_grid=0.1:x", "non-numeric wer cell '0.1:x'"),
            # would silently run clean
            ("wer_grid=-0.3:-0.3", "wer cell '-0.3:-0.3' needs finite targets >= 0"),
            ("wer_grid=nan:0.1", "wer cell 'nan:0.1' needs finite targets >= 0"),
            # both write tradeoff_en0.10_de0.10.tsv
            ("wer_grid=0.101:0.101,0.104:0.104", "wer_grid repeats tradeoff_en0.10_de0.10.tsv"),
            ("wer_grid=0.1:0.1,0.1:0.1", "wer_grid repeats tradeoff_en0.10_de0.10.tsv"),
            ("la_grid=0", "la_grid sizes must be at least 1"),
            ("la_grid=2,x", "la_grid must be integers, got '2,x'"),
            ("la_grid=", "la_grid must be integers, got ''"),
            ("la_grid=2,2", "la_grid repeats 2"),
            ("seeds=", "seeds must be integers, got ''"),
            ("seeds=1,1", "seeds repeats 1"),
        ]
        for line, named in rejected_before_any_work:
            config = _sweep_config(workspace, wer_grid="0.1:0.1", la_grid="2", seeds="1")
            key = line.split("=")[0].split()[0]
            lines = config.read_text(encoding="utf-8").splitlines()
            _write(config, [line if old.startswith(key + "=") else old for old in lines])
            out_dir = workspace / "out"
            assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 3, line
            err = capsys.readouterr().err
            assert "config error" in err and named in err, (line, err)
            assert "Traceback" not in err, line
            assert not out_dir.exists(), line

    @pytest.mark.parametrize(
        "edit, named",
        [
            (
                lambda text: text.replace("primary=en", "primray=de"),
                "line 3 has unknown key 'primray'",
            ),
            (lambda text: text + "seeds=2\n", "line 14 repeats key 'seeds'"),
            (lambda text: text + "source.fr=en.txt\n", "line 14 has unknown key 'source.fr'"),
        ],
        ids=["misspelt", "repeated", "unconfigured-language"],
    )
    def test_unknown_or_repeated_key(self, workspace, capsys, edit, named):
        config = _sweep_config(workspace, wer_grid="0.1:0.1", la_grid="2", seeds="1")
        config.write_text(edit(config.read_text(encoding="utf-8")), encoding="utf-8")
        out_dir = workspace / "out"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 3
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("short", ["de.txt", "cs.txt"])
    def test_line_count_mismatch_exit_code(self, workspace, capsys, short):
        _write(workspace / short, (CS_LINES if short == "cs.txt" else EN_LINES)[:-1])
        config = _sweep_config(workspace, wer_grid="0:0", la_grid="2", seeds="1")
        assert main(["sweep", "--config", str(config), "--out-dir", str(workspace / "o")]) == 2
        assert "line-count mismatch" in capsys.readouterr().err

    def test_output_bytes_golden(self, workspace, capsys):
        # the output bytes are fixed for a fixed config; 0.11496 prints as
        # 0.1150, so its trade-off file is named en0.12
        expected = {
            "results.tsv": "ac022fc9f5377b29fa1a9ee10ff84ba1dcf6e7a7ead1d9c4d188b9c89ca36de1",
            "summary.tsv": "f9bb8565c57cd75c5341984a6e308e0cc4ac3c9b9fdf75329508350a79c8b72c",
            "tradeoff_en0.12_de0.10.tsv":
                "3aafd16fd8cf43da42d586634e8d8add0f9b8b7da83af00fede4aa08b797a742",
            "tradeoff_en0.20_de0.25.tsv":
                "d979f7950da10bcef84d86992d97783740696a444195d2920bc956ca94175865",
        }
        config = _sweep_config(
            workspace, wer_grid="0.11496:0.1,0.2:0.25", la_grid="2,10", seeds="1,2"
        )
        out_dir = workspace / "out"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()
        }
        assert digests == expected
        _, summary = _read_tsv(out_dir / "summary.tsv")
        assert [row["la_n"] for row in summary[:2]] == ["10", "2"]  # text order


class TestSweepPool:
    """The sweep's rows run in a process pool; its worker count changes no byte."""

    @staticmethod
    def _sweep(workspace, out_dir):
        config = _sweep_config(workspace, wer_grid="0.1:0.1,0.2:0.3", la_grid="2,5", seeds="1,2")
        return main(["sweep", "--config", str(config), "--out-dir", str(out_dir)])

    def test_worker_count_changes_no_byte(self, workspace, capsys, monkeypatch):
        _write(workspace / "en.txt", [EN_LINES[0], "", *EN_LINES[2:]])
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "worker_count", lambda units, n=workers: n)
            out_dir = workspace / f"out{workers}"
            assert self._sweep(workspace, out_dir) == 0
            assert multiprocessing.active_children() == []
            files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            runs[workers] = files, capsys.readouterr().err
        assert runs[1] == runs[2]
        files, err = runs[1]
        assert len(files) == 4
        assert "left out of AL" in err
        first = err.splitlines()[:2]
        assert first[0] == "cell=(0.1, 0.1) seed=1 la_n=2 system=en"
        assert first[1].endswith("left out of AL (empty primary source or empty output)")

    def test_unit_error_in_worker_exit_code(self, workspace, capsys, monkeypatch):
        def run_simul(translators, sources, n):
            raise EngineError("engine broke")

        monkeypatch.setattr(cli, "run_simul", run_simul)
        monkeypatch.setattr(pool, "worker_count", lambda units: 2)
        assert self._sweep(workspace, workspace / "out") == 4
        err = capsys.readouterr().err
        assert "contract error: engine broke" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_exit_code(self, workspace, capsys, monkeypatch):
        parent, engine = os.getpid(), cli.run_simul

        def run_simul(translators, sources, n):
            if os.getpid() != parent:
                os._exit(3)
            return engine(translators, sources, n)

        monkeypatch.setattr(cli, "run_simul", run_simul)
        monkeypatch.setattr(pool, "worker_count", lambda units: 2)
        out_dir = workspace / "out"
        assert self._sweep(workspace, out_dir) == 1
        err = capsys.readouterr().err
        assert "error: a worker process ended without a result" in err
        assert "Traceback" not in err
        assert list(out_dir.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_one_cpu_runs_in_process(self, workspace, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep on one CPU made a process pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert self._sweep(workspace, workspace / "out") == 0



def _noisy(rng, words, vocab):
    return [word if rng.random() > 0.2 else rng.choice(vocab) for word in words]


def _analysis_argv(path, command, lines=600):
    """``command`` on ``lines`` generated lines with errors in every system and
    ASR stream: more sentence pairs than one contingency chunk holds."""
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(30)]
    files = {name: [] for name in ("ref", "hyp", "other", *INDEPENDENCE_FILES)}
    for _ in range(lines):
        src, tgt = (rng.choices(vocab, k=rng.randint(2, 8)) for _ in range(2))
        for name, words in (
            ("ref", src), ("hyp", _noisy(rng, src, vocab)), ("other", _noisy(rng, src, vocab)),
            ("src_gold", src), ("src_asr", _noisy(rng, src, vocab)),
            ("tgt_gold", tgt), ("tgt_asr", _noisy(rng, tgt, vocab)),
            ("align", [f"{k}-{k}" for k in range(min(len(src), len(tgt)))]),
        ):
            files[name].append(" ".join(words))
    if command == "independence":
        return _independence_argv(path, **{name: files[name] for name in INDEPENDENCE_FILES})
    for name in ("ref", "hyp", "other"):
        _write(path / f"{name}.txt", files[name])
    argv = ["score", "--hyps", str(path / "hyp.txt"), "--refs", str(path / "ref.txt")]
    return argv + (["--compare", str(path / "other.txt")] if command == "score-compare" else [])


class TestAnalysisPool:
    """score runs its metrics, and independence its chunks of sentence pairs,
    in a process pool; its worker count changes no byte."""

    @pytest.mark.parametrize("command", ["score", "score-compare", "independence"])
    def test_worker_count_changes_no_byte(self, tmp_path, capsys, monkeypatch, command):
        argv = _analysis_argv(tmp_path, command)
        pools = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        printed = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "worker_count", lambda units, n=workers: n)
            assert main(argv) == 0
            assert multiprocessing.active_children() == []
            printed[workers] = capsys.readouterr()
            assert len(pools) == workers - 1
        assert printed[1] == printed[2]
        assert printed[1].err == ""
        if command == "independence":  # every chunk's links are counted
            align = (tmp_path / "align.txt").read_text(encoding="utf-8").split()
            assert f"aligned_links\t{len(align)}\n" in printed[1].out

    def test_link_out_of_range_in_second_chunk(self, tmp_path, capsys, monkeypatch):
        argv = _analysis_argv(tmp_path, "independence")
        align = (tmp_path / "align.txt").read_text(encoding="utf-8").splitlines()
        chunk = independence._CONTINGENCY_CHUNK_PAIRS
        for idx in (chunk + 44, 2 * chunk + 38):  # the second and the third chunk
            align[idx] += " 0-99"
        _write(tmp_path / "align.txt", align)
        printed = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "worker_count", lambda units, n=workers: n)
            assert main(argv) == 2
            assert multiprocessing.active_children() == []
            printed[workers] = capsys.readouterr()
        assert printed[1] == printed[2]
        assert printed[1].out == ""
        assert printed[1].err.startswith(
            f"input error: sentence {chunk + 44}: alignment link (0,99) out of range"
        )

    @pytest.mark.parametrize(
        "command, module, name",
        [
            ("score", metrics, "bleu"),
            ("score-compare", metrics, "paired_bootstrap"),
            ("independence", independence, "align_edit"),
        ],
        ids=["score", "score-compare", "independence"],
    )
    def test_worker_that_dies_exit_code(self, tmp_path, capsys, monkeypatch, command, module, name):
        argv = _analysis_argv(tmp_path, command)
        parent, original = os.getpid(), getattr(module, name)

        def dies_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, dies_in_worker)
        monkeypatch.setattr(pool, "worker_count", lambda units: 2)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error: a worker process ended without a result" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert multiprocessing.active_children() == []


def _simulate(path, source=("en.txt",), lexicon=("lex_en.tsv",)):
    """simulate with each file of ``source`` and ``lexicon`` given for en."""
    return [
        "simulate",
        "--source", *(f"en={path / name}" for name in source),
        "--lexicon", *(f"en={path / name}" for name in lexicon),
    ]


def _directory(path):
    (path / "a_dir").mkdir()
    return path / "a_dir"


def _simulate_short_refs(path):
    _write(path / "ref.txt", CS_LINES[:-1])
    return _simulate(path) + ["--refs", str(path / "ref.txt")]


def _noise_train(path, gold):
    _write(path / "gold.txt", gold)
    _write(path / "asr.txt", ["a b"] * len(gold))
    return [
        "noise-train",
        "--gold", str(path / "gold.txt"),
        "--asr", str(path / "asr.txt"),
        "--out", str(path / "model.tsv"),
    ]


def _error_free_model(path):
    """Train a model on transcripts without errors: it has no error mass."""
    _write(path / "gold.txt", ["a b c", "d e"])
    assert main(
        ["noise-train", "--gold", str(path / "gold.txt"), "--asr", str(path / "gold.txt"),
         "--out", str(path / "clean_model.tsv")]
    ) == 0
    return path / "clean_model.tsv"


def _noise_apply_error_free(path):
    return [
        "noise-apply", "--model", str(_error_free_model(path)), "--target-wer", "0.2",
        "--seed", "1", "--in", str(path / "gold.txt"), "--out", str(path / "noisy.txt"),
    ]


def _sweep_error_free(path):
    model = _error_free_model(path).read_bytes()
    (path / "noise_en.tsv").write_bytes(model)
    return [
        "sweep", "--config", str(_sweep_config(path, wer_grid="0.1:0", la_grid="2", seeds="1")),
        "--out-dir", str(path / "out"),
    ]


def _bad_model(path, prefix, line):
    """Rewrite noise_en.tsv with ``line`` (which may hold several lines) in
    place of each line starting with ``prefix``, or without those lines when
    ``line`` is None."""
    model = path / "noise_en.tsv"
    lines = model.read_text(encoding="utf-8").splitlines()
    lines = [line if old.startswith(prefix) else old for old in lines]
    _write(model, [kept for kept in lines if kept is not None])
    return model


def _noise_apply_bad_model(prefix, line):
    def build(path):
        return [
            "noise-apply", "--model", str(_bad_model(path, prefix, line)), "--seed", "1",
            "--in", str(path / "en.txt"), "--out", str(path / "noisy.txt"),
        ]

    return build


def _sweep_bad_model(prefix, line):
    def build(path):
        _bad_model(path, prefix, line)
        return [
            "sweep", "--config", str(_sweep_config(path, "0.1:0.1", la_grid="2", seeds="1")),
            "--out-dir", str(path / "out"),
        ]

    return build


def _repeated_lexicon_entry(path):
    _write(path / "lex_en.tsv", EN_LEXICON + ["e01\tc02"])
    return path


def _independence_alpha(alpha):
    # the files do not exist: the value is rejected before any is read
    def build(path):
        argv = ["independence", "--alpha", alpha]
        for name in INDEPENDENCE_FILES:
            argv += [f"--{name.replace('_', '-')}", str(path / "nope.txt")]
        return argv

    return build


# (case, function that writes the inputs and returns argv, exit code, text that
# stderr must name)
BAD_INPUTS = [
    *(
        (f"independence-alpha-{alpha}", _independence_alpha(alpha), 3,
         f"--alpha needs a value in (0, 1), got {float(alpha)}")
        for alpha in ("0", "2", "nan")
    ),
    ("noise-apply-error-free-model", _noise_apply_error_free, 3, "target WER 0.2 is unattainable"),
    ("sweep-error-free-model", _sweep_error_free, 3, "target WER 0.1 is unattainable"),
    (
        "sweep-negative-seed",
        lambda p: [
            "sweep", "--config", str(_sweep_config(p, "0.1:0.1", la_grid="2", seeds="-1")),
            "--out-dir", str(p / "out"),
        ],
        3,
        "seeds must be at least 0",
    ),
    (
        "noise-apply-negative-seed",
        # the files do not exist: the value is rejected before any is read
        lambda p: [
            "noise-apply", "--model", str(p / "nope.tsv"), "--seed", "-1",
            "--in", str(p / "nope.txt"), "--out", str(p / "noisy.txt"),
        ],
        3,
        "--seed needs a value >= 0, got -1",
    ),
    # values outside a model's ranges are an input error in the model file
    (
        "noise-apply-model-out-of-range",
        _noise_apply_bad_model("p_delete\t", "p_delete\t1.5"),
        2,
        "noise_en.tsv: p_delete=1.5 outside [0, 1]",
    ),
    (
        "noise-apply-model-nan",
        _noise_apply_bad_model("p_insert\t", "p_insert\tnan"),
        2,
        "noise_en.tsv: p_insert=nan outside [0, 1)",
    ),
    (
        "noise-apply-model-distribution-sum",
        _noise_apply_bad_model("e01\t", "e01\tqe01\t0.5"),
        2,
        "noise_en.tsv: substitution[e01] distribution does not sum to 1",
    ),
    # a row's probability is checked by itself: these rows sum to 1, or to nan
    (
        "noise-apply-model-negative-row",
        _noise_apply_bad_model("e01\t", "e01\tqe01\t-0.5\ne01\tqx\t1.5"),
        2,
        "noise_en.tsv: substitution[e01] row 'qe01' has probability -0.5 outside [0, 1]",
    ),
    (
        "noise-apply-model-nan-row",
        _noise_apply_bad_model("e01\t", "e01\tqe01\tnan\ne01\tqx\t1.0"),
        2,
        "noise_en.tsv: substitution[e01] row 'qe01' has probability nan outside [0, 1]",
    ),
    (
        "sweep-model-nan-row",
        _sweep_bad_model("\t", "\tqfill\tnan\n\tqx\t1.0"),
        2,
        "noise_en.tsv: insertion row 'qfill' has probability nan outside [0, 1]",
    ),
    # scale_c only records past rescaling, but noise-apply prints it
    (
        "noise-apply-model-scale-nan",
        _noise_apply_bad_model("scale_c\t", "scale_c\tnan"),
        2,
        "noise_en.tsv: scale_c=nan outside [0, inf)",
    ),
    (
        "noise-apply-model-scale-negative-inf",
        _noise_apply_bad_model("scale_c\t", "scale_c\t-inf"),
        2,
        "noise_en.tsv: scale_c=-inf outside [0, inf)",
    ),
    (
        "sweep-model-scale-nan",
        _sweep_bad_model("scale_c\t", "scale_c\tnan"),
        2,
        "noise_en.tsv: scale_c=nan outside [0, inf)",
    ),
    (
        "sweep-model-scale-negative-inf",
        _sweep_bad_model("scale_c\t", "scale_c\t-inf"),
        2,
        "noise_en.tsv: scale_c=-inf outside [0, inf)",
    ),
    (
        "sweep-model-out-of-range",
        _sweep_bad_model("p_delete\t", "p_delete\t1.5"),
        2,
        "noise_en.tsv: p_delete=1.5 outside [0, 1]",
    ),
    # a header field given twice, or one the format does not have, would be
    # read as the last value given, or ignored
    (
        "noise-apply-model-repeated-field",
        _noise_apply_bad_model("p_delete\t", "p_delete\t0.1\np_delete\t0.9"),
        2,
        "noise_en.tsv: line 4 repeats header field 'p_delete'",
    ),
    (
        "noise-apply-model-unknown-field",
        _noise_apply_bad_model("scale_c\t", "scale_c\t1.0\np_delte\t0.5"),
        2,
        "noise_en.tsv: line 6 has unknown header field 'p_delte'",
    ),
    (
        "sweep-model-repeated-field",
        _sweep_bad_model("scale_c\t", "scale_c\t1.0\nscale_c\t2.0"),
        2,
        "noise_en.tsv: line 6 repeats header field 'scale_c'",
    ),
    (
        "sweep-model-unknown-field",
        _sweep_bad_model("p_insert\t", "p_insert\t0.02\np_delte\t0.5"),
        2,
        "noise_en.tsv: line 3 has unknown header field 'p_delte'",
    ),
    # insertions drawn from no rows never happen, though the expected WER
    # counts them; the insertion rows are the lines with an empty first field
    (
        "noise-apply-model-insertion-without-rows",
        _noise_apply_bad_model("\t", None),
        2,
        "noise_en.tsv: p_insert=0.02 needs at least one insertion row",
    ),
    (
        "sweep-model-insertion-without-rows",
        _sweep_bad_model("\t", None),
        2,
        "noise_en.tsv: p_insert=0.02 needs at least one insertion row",
    ),
    ("simulate-refs-short", _simulate_short_refs, 2, "ref.txt has 3"),
    (
        "independence-target-short",
        lambda p: _independence_argv(
            p, tgt_gold=INDEPENDENCE_FILES["tgt_gold"][:3],
            tgt_asr=INDEPENDENCE_FILES["tgt_asr"][:3],
        ),
        2,
        "tgt_gold.txt has 3",
    ),
    (
        "independence-alignment-short",
        lambda p: _independence_argv(p, align=["0-0 1-1"] * 3),
        2,
        "align.txt has 3",
    ),
    (
        "independence-link-outside-gold",
        lambda p: _independence_argv(p, align=["0-0 5-5"] + ["0-0"] * 3),
        2,
        "sentence 0: alignment link (5,5)",
    ),
    (
        "independence-degenerate-table",
        lambda p: _independence_argv(p, src_asr=INDEPENDENCE_FILES["src_gold"]),
        2,
        "degenerate table",
    ),
    (
        "independence-blank-source-gold",
        lambda p: _independence_argv(p, src_gold=[""] * 4, src_asr=[""] * 4),
        2,
        "src_gold.txt has no gold tokens",
    ),
    (
        "score-resamples-below-100",
        # the files do not exist: the value is rejected before any is read
        lambda p: [
            "score", "--hyps", str(p / "nope.txt"), "--refs", str(p / "nope.txt"),
            "--compare", str(p / "nope.txt"), "--resamples", "50",
        ],
        3,
        "--resamples needs at least 100, got 50",
    ),
    (
        "score-negative-seed",
        lambda p: [
            "score", "--hyps", str(p / "nope.txt"), "--refs", str(p / "nope.txt"),
            "--compare", str(p / "nope.txt"), "--seed", "-1",
        ],
        3,
        "--seed needs a value >= 0, got -1",
    ),
    ("noise-train-empty-gold", lambda p: _noise_train(p, []), 2, "gold.txt has no gold tokens"),
    # paths that cannot be read or written: en.txt is a regular file
    (
        "noise-apply-out-under-file",
        lambda p: [
            "noise-apply", "--model", str(p / "noise_en.tsv"), "--seed", "1",
            "--in", str(p / "en.txt"), "--out", str(p / "en.txt" / "x.txt"),
        ],
        2,
        "/en.txt/x.txt: ",
    ),
    (
        "noise-apply-out-missing-directory",
        lambda p: [
            "noise-apply", "--model", str(p / "noise_en.tsv"), "--seed", "1",
            "--in", str(p / "en.txt"), "--out", str(p / "nope" / "x.txt"),
        ],
        2,
        "/nope/x.txt: directory ",
    ),
    (
        "simulate-out-under-file",
        lambda p: _simulate(p) + ["--out", str(p / "en.txt" / "x.txt")],
        2,
        "/en.txt/x.txt: ",
    ),
    (
        "simulate-out-missing-directory",
        lambda p: _simulate(p) + ["--out", str(p / "nope" / "x.txt")],
        2,
        "/nope/x.txt: directory ",
    ),
    (
        "simulate-out-is-directory",
        lambda p: _simulate(p) + ["--out", str(_directory(p))],
        2,
        "/a_dir: is a directory",
    ),
    (
        "noise-train-out-is-directory",
        lambda p: _noise_train(p, ["a b"])[:-1] + [str(_directory(p))],
        2,
        "/a_dir: is a directory",
    ),
    (
        "noise-train-out-under-file",
        lambda p: _noise_train(p, ["a b"])[:-1] + [str(p / "en.txt" / "model.tsv")],
        2,
        "en.txt is not a directory",
    ),
    # the config does not exist: --out-dir is checked before anything is read
    (
        "sweep-out-dir-is-file",
        lambda p: ["sweep", "--config", str(p / "nope.cfg"), "--out-dir", str(p / "en.txt")],
        2,
        "en.txt is not a directory",
    ),
    (
        "sweep-out-dir-under-file",
        lambda p: [
            "sweep", "--config", str(p / "nope.cfg"), "--out-dir", str(p / "en.txt" / "out"),
        ],
        2,
        "en.txt is not a directory",
    ),
    (
        "score-refs-directory",
        lambda p: ["score", "--hyps", str(p / "cs.txt"), "--refs", str(_directory(p))],
        2,
        "/a_dir'",
    ),
    (
        "simulate-source-directory",
        lambda p: _simulate(p, source=[_directory(p).name]),
        2,
        "/a_dir'",
    ),
    # a language given twice: the second file would silently replace the first
    (
        "simulate-repeated-source",
        lambda p: _simulate(p, source=["en.txt", "de.txt"]),
        3,
        "--source repeats language 'en'",
    ),
    (
        "simulate-repeated-lexicon",
        lambda p: _simulate(p, lexicon=["lex_en.tsv", "lex_de.tsv"]),
        3,
        "--lexicon repeats language 'en'",
    ),
    # a source word given twice: the last entry would silently win
    (
        "simulate-lexicon-repeated-word",
        lambda p: _simulate(_repeated_lexicon_entry(p)),
        2,
        "lex_en.tsv: line 9 repeats source word 'e01' of line 1",
    ),
    (
        "sweep-lexicon-repeated-word",
        lambda p: [
            "sweep",
            "--config", str(_sweep_config(_repeated_lexicon_entry(p), "0.1:0.1", "2", "1")),
            "--out-dir", str(p / "out"),
        ],
        2,
        "lex_en.tsv: line 9 repeats source word 'e01' of line 1",
    ),
    (
        "simulate-source-and-lexicon-languages-differ",
        lambda p: [
            "simulate", "--source", f"en={p / 'en.txt'}", "--lexicon", f"de={p / 'lex_de.tsv'}",
        ],
        3,
        "--source and --lexicon must name the same languages, got en and de",
    ),
    (
        "simulate-primary-without-source",
        lambda p: _simulate(p) + ["--primary", "fr"],
        3,
        "primary language 'fr' has no source",
    ),
    (
        "noise-train-blank-gold",
        lambda p: _noise_train(p, ["", " "]),
        2,
        "gold.txt has no gold tokens",
    ),
]


@pytest.mark.parametrize(
    "build, code, named", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
)
def test_bad_input_exit_code(workspace, capsys, monkeypatch, build, code, named):
    argv = build(workspace)

    def no_work(*args, **kwargs):
        raise AssertionError("a rejected command ran engine or noise work")

    # every case is rejected before a sentence is streamed or noised, or a
    # noise model trained
    monkeypatch.setattr(cli, "_run_system", no_work)
    monkeypatch.setattr(noise, "train_noise_model", no_work)
    monkeypatch.setattr(noise, "apply_noise_corpus", no_work)
    exit_code = main(argv)
    assert exit_code == code
    assert exit_code != 1  # 1 is the catch-all for package errors with no documented code
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not (workspace / "out").exists()  # a rejected sweep leaves no output directory
