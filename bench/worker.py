"""One benchmark job in a fresh interpreter.

Usage: python3 worker.py REQUEST.json T0

The request names the repository, the workload directory, the loaders to run
at set-up, the CLI commands of the job and where to write the result. Set-up
is timed from the parent's spawn time ``T0`` (CLOCK_MONOTONIC, which all
processes share) to the moment ``multisimul.cli`` is imported and every input file
is parsed by the package's own loaders. The job runs the commands through
``multisimul.cli.main`` in this process, one after another.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback


def peak_rss_kib() -> int:
    """High-water resident memory of this process's own address space.

    ``ru_maxrss`` is not used: Linux carries it over from the address space
    the process replaced at ``exec``, which is the parent's.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        req = json.load(fh)
    sys.path.insert(0, os.path.join(req["repo"], "src"))
    from multisimul import cli
    from multisimul.corpus import load_parallel, load_transcript_pairs, load_word_alignment
    from multisimul.mock_mt import load_lexicon
    from multisimul.noise import load_model

    os.chdir(req["workdir"])
    loaders = {
        "parallel": lambda paths: load_parallel({str(i): p for i, p in enumerate(paths)}),
        "lines": lambda paths: [load_parallel({"x": p}) for p in paths],
        "lexicon": lambda paths: [load_lexicon(p) for p in paths],
        "model": lambda paths: [load_model(p) for p in paths],
        "pairs": lambda paths: load_transcript_pairs(*paths),
        "alignment": lambda paths: [load_word_alignment(p) for p in paths],
    }
    for kind, paths in req["loads"]:
        loaders[kind](paths)
    t_ready = time.monotonic()

    tracer = None
    if req["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    outs: list[io.StringIO] = []  # one per command
    err = io.StringIO()
    codes: list[int] = []
    error = ""
    cpu0 = time.process_time()
    w0 = time.perf_counter()
    if tracer is not None:
        tracer.job_start = w0
    with contextlib.redirect_stderr(err):
        for k, argv in enumerate(req["commands"]):
            if tracer is not None:
                tracer.job_index = k
            outs.append(io.StringIO())
            try:
                with contextlib.redirect_stdout(outs[-1]):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an uncaught package error fails the job
                code, error = 1, traceback.format_exc()
            codes.append(code)
            if code != 0:
                break
    w1 = time.perf_counter()
    cpu_s = time.process_time() - cpu0
    job_s = w1 - w0
    peak_kib = peak_rss_kib()

    if tracer is not None:
        tracer.job_end = w1
        tracer.save(req["spans"])
    result = {
        "setup_s": t_ready - float(sys.argv[2]),
        "job_s": job_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_kib / 1024.0,
        "codes": codes,
        "stdout": [out.getvalue() for out in outs],
        "stderr_tail": err.getvalue()[-2000:],
        "error": error,
    }
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
