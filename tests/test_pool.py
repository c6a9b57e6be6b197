import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from multisimul import independence, pool
from multisimul.corpus import TokenSequence, TranscriptPair
from multisimul.independence import build_contingency

SRC = Path(__file__).resolve().parent.parent / "src"


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was made")


class TestOrderedMap:
    def test_units_run_in_workers_in_unit_order(self, monkeypatch):
        # neither the lambda nor the lock could be pickled: they reach the
        # workers through the fork
        monkeypatch.setattr(pool, "worker_count", lambda units: 2)
        lock = threading.Lock()
        results = list(
            pool.ordered_map(lambda shared, unit: (unit * unit, os.getpid()), lock, range(6))
        )
        assert [square for square, _ in results] == [0, 1, 4, 9, 16, 25]
        assert os.getpid() not in {pid for _, pid in results}
        assert multiprocessing.active_children() == []

    def test_one_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        results = list(
            pool.ordered_map(lambda shared, unit: (shared + unit, os.getpid()), 10, [1, 2])
        )
        assert results == [(11, os.getpid()), (12, os.getpid())]

    @pytest.mark.parametrize("cpus, units, workers", [(4, 3, 3), (2, 24, 2), (1, 3, 1)])
    def test_one_worker_per_cpu_and_unit(self, monkeypatch, cpus, units, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert pool.worker_count([None] * units) == workers

    def test_one_chunk_contingency_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        pair = TranscriptPair(TokenSequence.from_raw("a b"), TokenSequence.from_raw("a x"))
        chunk = independence._CONTINGENCY_CHUNK_PAIRS
        for n in (0, 1, chunk):
            table = build_contingency([pair] * n, [pair] * n, [frozenset({(0, 0), (1, 1)})] * n)
            assert table.cells == ((n, 0), (0, n))
        # one pair more is two chunks, which go to the pool
        n = chunk + 1
        with pytest.raises(AssertionError, match="a process pool was made"):
            build_contingency([pair] * n, [pair] * n, [frozenset()] * n)

    def test_import_leaves_pool_modules_out(self):
        # the pool's modules are imported only where a pool is made, which
        # keeps them out of every command's start-up
        code = (
            "import sys; import multisimul.cli; "
            "print(sorted({'multisimul.pool', 'multiprocessing', 'concurrent.futures'}"
            " & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "['multisimul.pool']\n"
