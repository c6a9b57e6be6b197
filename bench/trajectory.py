"""Run the benchmark over several seeds and record one point of the trajectory.

Usage (from the repository root):

    python3 bench/trajectory.py --seeds 1-10 --out bench/BASELINE.json

For every workload and seed it runs ``bench/run.py`` untraced, then one
traced run per workload (first seed). It prints each end-to-end metric's
median, quartiles and spread (quartile distance over median) next to the
metric's bound, and writes all values with the machine and commit to
``--out``. The spread of every metric but ``setup_s`` should stay under a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.REPO, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.REPO, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or an inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the point as JSON here")
    args = parser.parse_args()

    spec = json.loads((run.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    point = {"commit": _commit(), "machine": _machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    worst = 0.0
    run.WORK.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            wl = workloads.make(name, Path(tmp), seeds[0], run.REPO)
        lines = [_bench(name, seed, seconds, 0) for seed in seeds]
        entry = {
            "why": whys[name],
            "shape": wl.shape,
            "items_per_job": f"{wl.items} {wl.item}s",
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "correct": all(line["correct"] for line in lines),
            "end_to_end": {},
        }
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        for metric in spec["end_to_end"]:
            values = [line["metrics"][metric["name"]]["value"] for line in lines]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values,
            }
            print(f"{name}\t{metric['name']}\tmedian={median:.6g} {metric['unit']}\tq1={q1:.6g}\tq3={q3:.6g}\t"
                  f"spread={spread:.4f}\tbound={metric['bound']}\tn={len(values)}", flush=True)
        print(f"{name}\tfailed_frac={entry['failed_frac']:.4g}\tcorrect={entry['correct']}", flush=True)
        traced = _bench(name, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer_correct"] = traced["correct"]
        point["workloads"][name] = entry
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
