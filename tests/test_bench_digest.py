"""The benchmark's fixtures still produce the bytes recorded for them.

Generates a bench workload's input for seed 0 with ``bench/workloads.py``,
runs its commands through ``multisimul.cli.main`` in this process and checks
``bench/run.py``'s output digest against ``bench/digests.json``.
"""

import importlib
import json
from pathlib import Path

from multisimul.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_sweep_seed0_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    wl = workloads.make("sweep", tmp_path, 0, BENCH.parent)
    monkeypatch.chdir(tmp_path)
    stdouts = []
    for argv in wl.commands:
        assert main(argv) == 0
        stdouts.append(capsys.readouterr().out)
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    assert run.output_digest(tmp_path, wl, stdouts) == recorded["sweep"]["0"]


def test_analysis_seed0_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    wl = workloads.make("analysis", tmp_path, 0, BENCH.parent)
    monkeypatch.chdir(tmp_path)
    stdouts = []
    for argv in wl.commands:
        # an undigested command writes no output file and its stdout is not
        # hashed, so it need not run
        if argv[0] in run.UNDIGESTED:
            stdouts.append("")
            continue
        assert main(argv) == 0
        stdouts.append(capsys.readouterr().out)
    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    assert run.output_digest(tmp_path, wl, stdouts) == recorded["analysis"]["0"]


def test_analysis_seed0_score_stdout(tmp_path, monkeypatch, capsys):
    # the output digest leaves out ``score``, so its full-scale paired
    # bootstrap (2000 segments, 1000 resamples, 8 blocks) is pinned here
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    wl = workloads.make("analysis", tmp_path, 0, BENCH.parent)
    monkeypatch.chdir(tmp_path)
    (argv,) = [argv for argv in wl.commands if argv[0] == "score"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "bleu\t45.7856\nchrf2\t70.5261\n"
        "bleu_bootstrap_p\t0.3360\t725154\nchrf2_bootstrap_p\t0.5500\t725154\n"
    )
