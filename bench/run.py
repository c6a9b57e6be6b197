"""multisimul benchmark: generated workloads driven through ``multisimul.cli.main``.

Usage (from the repository root; the package need not be installed):

    python3 bench/run.py --workload sweep --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, with a table

Closed loop, one client: the benchmark generates the workload's inputs from
``--seed``, then runs one job after another, each in a fresh interpreter
(``worker.py``), until the next job would end after ``--seconds``. With
``--trace 0`` it reports the end-to-end metrics (medians over the jobs); with
``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics of the traced ones. Output correctness is checked outside
the timed region. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``failed`` counts jobs that
exited non-zero or failed a check; ``failed / attempted`` is ``failed_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bootstrap_oracle
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORK = REPO / ".bench_work"
DIGESTS = BENCH / "digests.json"

MIN_JOBS = 3  # untraced jobs per run; a traced run needs 2 of each kind
JOB_TIMEOUT_S = 170
# one thread per job: numpy's BLAS would otherwise start a thread per CPU, and
# a job's time would then depend on whether the machine's other CPU is idle
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _missing_sources() -> list[str]:
    needed = ["BENCHMARK.json", "src/multisimul/cli.py", "tests/oracles.py", "tests/conftest.py"]
    return [p for p in needed if not (REPO / p).is_file()]


# commands whose stdout is left out of the output digest: a faster paired
# bootstrap may draw its resamples differently and so legitimately change the
# printed p-values, which are checked against a reference bootstrap instead
UNDIGESTED = {"score"}


def output_digest(workdir: Path, wl, stdouts: list[str]) -> str:
    """sha256 over every output file (name and bytes) and the stdout of the
    commands not in ``UNDIGESTED``, in command order."""
    h = hashlib.sha256()
    for name in wl.outputs:
        path = workdir / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
        h.update(b"\0")
    for argv, stdout in zip(wl.commands, stdouts):
        if argv[0] not in UNDIGESTED:
            h.update(stdout.encode("utf-8"))
    return h.hexdigest()


def run_job(wl, workdir: Path, traced: bool, index: int) -> dict:
    """Run the workload's commands once in a fresh interpreter."""
    for name in wl.outputs:
        (workdir / name).unlink(missing_ok=True)
    request = workdir / f"job{index}.json"
    result_path = workdir / f"job{index}.result.json"
    spans_path = workdir / f"job{index}.spans.npz"
    request.write_text(
        json.dumps(
            {
                "repo": str(REPO),
                "workdir": str(workdir),
                "loads": wl.loads,
                "commands": wl.commands,
                "trace": traced,
                "result": str(result_path),
                "spans": str(spans_path),
            }
        ),
        encoding="utf-8",
    )
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(request), repr(t0)],
            capture_output=True,
            text=True,
            timeout=JOB_TIMEOUT_S,
            env=WORKER_ENV,
        )
        error = proc.stderr[-2000:] if proc.returncode != 0 else ""
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        error = f"job timed out after {JOB_TIMEOUT_S} s"
    wall = time.monotonic() - t0
    if error or not result_path.is_file():
        return {"codes": [-1], "wall": wall, "traced": traced, "error": error or "worker wrote no result"}
    job = json.loads(result_path.read_text(encoding="utf-8"))
    job.update(wall=wall, traced=traced)
    job["digest"] = output_digest(workdir, wl, job["stdout"])
    if traced:
        job["spans"] = str(spans_path)
    return job


# ---- correctness checks (outside the timed region) --------------------------

def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _stdout_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("\t")
        if sep:
            fields.setdefault(key, value.split("\t")[0])
    return fields


def _oracles():
    """The test suite's independent reference implementations."""
    tests = str(REPO / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles

    return oracles


def expect_score(workdir: Path, wl) -> dict[str, tuple[float, float]]:
    """What ``score`` must print, each as (value, tolerance), from its inputs alone.

    BLEU and chrF2 come from the exact rational oracles (within 1e-4). The
    bootstrap p-values come from ``bootstrap_oracle`` on the same inputs,
    within its Monte-Carlo tolerance for the workload's resample count.
    """
    oracles = _oracles()
    sys_a, sys_b, ref = (_lines(workdir / f) for f in ("sys_a.txt", "sys_b.txt", "ref.txt"))
    expected = {
        "bleu": (oracles.reference_bleu(sys_a, [ref]), 1e-4),
        "chrf2": (oracles.reference_chrf2(sys_a, [ref]), 1e-4),
    }
    bleu_a, bleu_b = bootstrap_oracle.bleu_stats([sys_a, sys_b], ref, oracles.reference_tokenize_13a)
    chrf_a, chrf_b = bootstrap_oracle.chrf_stats([sys_a, sys_b], ref)
    p = bootstrap_oracle.p_values({"bleu": bleu_a, "chrf2": chrf_a}, {"bleu": bleu_b, "chrf2": chrf_b}, seed=0)
    resamples = wl.shape["resamples"]
    for metric, value in p.items():
        expected[f"{metric}_bootstrap_p"] = (value, bootstrap_oracle.tolerance(value, resamples))
    return expected


def check_score(workdir: Path, wl, stdout: str, expected: dict) -> list[str]:
    """Every printed score against its expected value and tolerance."""
    fields = _stdout_fields(stdout)
    problems = []
    for key, (value, tol) in expected.items():
        if key not in fields:
            problems.append(f"score printed no {key}")
        elif abs(float(fields[key]) - value) > tol:
            problems.append(f"{key} {fields[key]} differs from oracle {value:.6f} by more than {tol:.4g}")
    return problems


def check_sweep(workdir: Path, wl, stdout: str, expected: None) -> list[str]:
    expected_rows = wl.shape["rows"]
    rows = _lines(workdir / "out" / "results.tsv")
    if len(rows) != expected_rows + 1:
        return [f"results.tsv has {len(rows) - 1} rows, expected {expected_rows}"]
    return []


def check_noise_apply(workdir: Path, wl, stdout: str, expected: None) -> list[str]:
    if len(_lines(workdir / "noised.txt")) != wl.shape["pairs"]:
        return ["noised corpus has the wrong line count"]
    return []


def check_independence(workdir: Path, wl, stdout: str, expected: None) -> list[str]:
    """The printed chi-square statistic against the exact rational oracle."""
    problems = []
    fields = _stdout_fields(stdout)
    try:
        cells = (
            (int(fields["cell_cc"]), int(fields["cell_ci"])),
            (int(fields["cell_ic"]), int(fields["cell_ii"])),
        )
        printed = float(fields["chi_square"])
    except (KeyError, ValueError):
        return problems + ["independence printed no contingency table"]
    exact = float(_oracles().chi_square_statistic_exact(cells))
    if abs(printed - exact) > 1e-6 * max(1.0, abs(exact)):
        problems.append(f"chi_square {printed} differs from exact {exact:.6f}")
    return problems


# per CLI command: the check of its outputs, and the expectations that
# depend on the inputs only, computed before the timed loop
CHECKS = {
    "sweep": check_sweep,
    "score": check_score,
    "noise-apply": check_noise_apply,
    "independence": check_independence,
}
EXPECT = {"score": expect_score}


def expectations(workdir: Path, wl) -> dict:
    return {argv[0]: EXPECT[argv[0]](workdir, wl) for argv in wl.commands if argv[0] in EXPECT}


def check_job(workdir: Path, wl, stdouts: list[str], expected: dict) -> list[str]:
    problems = []
    for argv, stdout in zip(wl.commands, stdouts):
        if argv[0] in CHECKS:
            problems += CHECKS[argv[0]](workdir, wl, stdout, expected.get(argv[0]))
    return problems


# ---- one workload -----------------------------------------------------------

def _enough(jobs: list[dict], trace: bool) -> bool:
    if trace:
        return sum(j["traced"] for j in jobs) >= 2 and sum(not j["traced"] for j in jobs) >= 2
    return len(jobs) >= MIN_JOBS


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    recorded = None
    if size == "full" and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(name, {}).get(str(seed))
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.make(name, workdir, seed, REPO, size)
        expected = expectations(workdir, wl)
        jobs: list[dict] = []
        checked: dict[tuple, list[str]] = {}  # outputs -> check problems
        begin = time.monotonic()
        while True:
            job = run_job(wl, workdir, trace and len(jobs) % 2 == 1, len(jobs))
            job["problems"] = job_problems(wl, workdir, job, jobs, recorded, expected, checked)
            jobs.append(job)
            elapsed = time.monotonic() - begin
            next_wall = max(j["wall"] for j in jobs[-2:])
            if _enough(jobs, trace) and elapsed + next_wall > seconds:
                break
        return _evaluate(name, seed, wl, jobs, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def job_problems(wl, workdir, job, earlier, recorded, expected, checked) -> list[str]:
    """Why a job failed: exit codes, unstable outputs, or a failed check."""
    if job["codes"] != [0] * len(wl.commands):
        detail = job.get("error") or job.get("stderr_tail", "")
        return [f"exit codes {job['codes']}: {detail[-500:]}"]
    problems = []
    if earlier and job["digest"] != earlier[0].get("digest"):
        problems.append("outputs differ from the first job of this run")
    if recorded is not None and job["digest"] != recorded:
        problems.append("outputs differ from the digest recorded for this seed")
    outputs = (job["digest"], *job["stdout"])
    if outputs not in checked:
        checked[outputs] = check_job(workdir, wl, job["stdout"], expected)
    return problems + checked[outputs]


def _evaluate(name, seed, wl, jobs, trace) -> dict:
    problems = [f"job {k}: {p}" for k, job in enumerate(jobs) for p in job["problems"]]
    failed = sum(bool(job["problems"]) for job in jobs)
    # figures come only from jobs that ran to the end and passed every check
    untraced = [j for j in jobs if not j["traced"] and not j["problems"]]
    traced = [j for j in jobs if j["traced"] and not j["problems"]]
    metrics: dict[str, float] = {}
    counts: set[str] = set()
    if untraced:
        for key in ("setup_s", "job_s", "cpu_s", "peak_rss_mib"):
            metrics[key] = statistics.median(j[key] for j in untraced)
        metrics["items_per_s"] = statistics.median(wl.items / j["job_s"] for j in untraced)
    if trace and traced:
        reports = []
        for job in traced:
            with np.load(job["spans"]) as spans:
                report, exact, nesting = tracing.layer_report(spans)
            reports.append(report)
            counts.add(json.dumps(exact, sort_keys=True))
            problems += [f"traced job: {p}" for p in nesting]
        if len(counts) != 1:
            problems.append(f"exact counts differ between traced jobs: {sorted(counts)}")
        for key in reports[0]:
            metrics[key] = statistics.median(r[key] for r in reports)
        if untraced:
            metrics["trace.overhead_frac"] = metrics["trace.job_s"] / metrics["job_s"] - 1.0
        shutil.copyfile(traced[-1]["spans"], WORK / f"spans-{name}.npz")
    return {
        "workload": name,
        "seed": seed,
        "items": wl.items,
        "item": wl.item,
        "shape": wl.shape,
        "attempted": len(jobs),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "exact_counts": json.loads(next(iter(counts))) if len(counts) == 1 else None,
    }


# ---- reporting --------------------------------------------------------------

def _select(result: dict, trace: bool) -> dict:
    spec = _spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for metric in declared:
        value = result["metrics"].get(metric["name"])
        if value is None or not math.isfinite(value):
            result["problems"].append(f"metric {metric['name']} was not measured")
            value = 0.0
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def _print_table(result: dict, selected: dict, trace: bool) -> None:
    n = result["samples"]["traced" if trace else "untraced"]
    print(f"# {result['workload']} seed={result['seed']} items={result['items']} ({result['item']}s) "
          f"shape={json.dumps(result['shape'])}")
    for metric, entry in selected.items():
        print(f"{result['workload']}\t{metric}\t{entry['value']:.6g}\t{entry['unit']}\tmedian of n={n}")
    attempted = result["attempted"]
    print(f"{result['workload']}\tfailed_frac\t{result['failed'] / attempted:.6g}\tratio\t"
          f"{result['failed']} of {attempted} jobs")
    if n < 11:
        print(f"# n={n}: too few jobs for a tail percentile; the median is reported")
    if trace:
        print(f"# exact counts (repeat across traced jobs): {json.dumps(result['exact_counts'])}")
    for problem in result["problems"]:
        print(f"# FAIL {result['workload']}: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    args = parser.parse_args(argv)

    missing = _missing_sources()
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)} (run from a full checkout)", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    trace = bool(args.trace)

    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, trace, args.size)
        selected = _select(result, trace)
        _print_table(result, selected, trace)
        results.append((result, selected))

    if len(results) == 1:
        result, selected = results[0]
        line = {
            "correct": not result["problems"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": selected,
        }
    else:
        line = {
            "correct": all(not r["problems"] for r, _ in results),
            "attempted": sum(r["attempted"] for r, _ in results),
            "failed": sum(r["failed"] for r, _ in results),
            "metrics": {f"{r['workload']}/{k}": v for r, s in results for k, v in s.items()},
        }
    print(json.dumps(line))
    return 0 if args.workload != "all" or line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
