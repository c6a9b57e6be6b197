"""Record the output digests that later runs must reproduce.

Usage (from the repository root):

    python3 bench/record_digests.py FIRST_SEED LAST_SEED

For each seed in the range and each workload, generate the inputs, run one
job and store the sha256 of its outputs in ``bench/digests.json``. Run it only
on a commit whose outputs are known good: ``bench/run.py`` fails every job
whose outputs differ from the recorded digest of its seed. The stdout of
``score`` is not in the digest (see ``run.UNDIGESTED``); it is checked against
the exact oracles and a reference bootstrap instead.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.is_file() else {}
    for name in workloads.WORKLOADS:
        table = digests.setdefault(name, {})
        for seed in range(first, last + 1):
            workdir = run.WORK / f"record-{name}-seed{seed}-{os.getpid()}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                wl = workloads.make(name, workdir, seed, run.REPO)
                job = run.run_job(wl, workdir, False, 0)
                problems = run.job_problems(wl, workdir, job, [], None, run.expectations(workdir, wl), {})
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if problems:
                print(f"{name} seed {seed}: not recorded: {problems}", file=sys.stderr)
                continue
            table[str(seed)] = job["digest"]
            print(f"{name}\t{seed}\t{job['digest']}", flush=True)
        digests[name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    run.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
