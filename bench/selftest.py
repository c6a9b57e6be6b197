"""Fast self-test of the benchmark; not part of the package's test suite.

Usage (from the repository root):

    python3 bench/selftest.py

Checks that BENCHMARK.json is well formed, runs every workload once at the
tiny size with tracing off and on, and checks that each run is correct and
emits every declared metric with its declared unit, and that a traced run's
exact counts repeat in a second run of the same seed. Finally it checks that
the benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and the benchmark's own files. Exits non-zero on failure.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"workloads {names} differ from {workloads.WORKLOADS}")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    seen = names + [m["name"] for m in metrics]
    if len(seen) != len(set(seen)):
        problems.append("a name is used twice")
    for m in metrics:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric entry {m}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end entry {m}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"]):
        problems.append("no setup_s metric")
    return problems


def run_bench(args: list[str], cwd) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout


def _exact_counts(stdout: str) -> str:
    prefix = "# exact counts (repeat across traced jobs): "
    return next((line[len(prefix):] for line in stdout.splitlines() if line.startswith(prefix)), "")


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    args = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    code, stdout = run_bench(args, run.REPO)
    where = f"{workload} trace={trace}"
    if code != 0 or not stdout.strip():
        return [f"{where}: exit {code}"]
    if trace:
        _, again = run_bench(args, run.REPO)
        if not _exact_counts(stdout) or _exact_counts(stdout) != _exact_counts(again):
            return [f"{where}: exact counts differ between runs: {_exact_counts(stdout)} / {_exact_counts(again)}"]
    line = json.loads(stdout.strip().splitlines()[-1])
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
        problems.append(f"{where}: not correct: {stdout[-1500:]}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if [m["name"] for m in declared] != list(line["metrics"]):
        problems.append(f"{where}: emitted {sorted(line['metrics'])}")
    for m in declared:
        entry = line["metrics"].get(m["name"], {})
        if entry.get("unit") != m["unit"] or not math.isfinite(entry.get("value", math.nan)):
            problems.append(f"{where}: metric {m['name']} = {entry}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.REPO / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = run_bench(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or stdout.strip():
        return [f"bare directory: exit {code}, stdout {stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_spec(spec)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
            print(f"ran {workload} trace={trace}", flush=True)
    problems += check_refuses_without_sources()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
