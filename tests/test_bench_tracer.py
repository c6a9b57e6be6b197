"""The benchmark's tracer still binds to the package.

``bench/tracing.py`` wraps package functions by name and calls them with the
signatures it knows, so a renamed function or a changed signature breaks only
traced benchmark runs. Each workload runs at its tiny size under the tracer,
in a fresh interpreter, because ``install`` patches the package's modules for
the rest of the process.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
from pathlib import Path

root, name, workdir = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import tracing
import workloads
from multisimul import cli

tracing.install(tracing.Tracer())
workload = workloads.make(name, workdir, 0, root, size="tiny")
codes = [cli.main(argv) for argv in workload.commands]
sys.exit(0 if codes == [0] * len(codes) else f"exit codes {codes}")
"""


@pytest.mark.parametrize("name", ["sweep", "analysis"])
def test_traced_workload_runs(tmp_path, name):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), name, str(tmp_path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
