"""The benchmark harness's warm-cache guard, on a job whose need is set by
--limit: a residue-multiset count, `count --x 1000 --k 2 --mod 4 --classes
1,3 --limit 500`.

qcbench/test_bench.py::test_warm_job_that_does_not_use_the_setup_cache_fails
checks the same guard on `table --x 1000 --k 2 --disc 5`. That job needs a
table only to isqrt(1000) = 31, since sign and reference counts read the
prime-count oracle, so the 100-entry cache that test writes as "too small"
covers it and is rightly kept. The residue-class counts read the class
oracle, which needs no more; so the job here asks for a 500-entry table
with --limit, the 100-entry cache stops short of it, and every step of the
guard is exercised again.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

_RUN_PY = Path(__file__).resolve().parent.parent / "qcbench" / "run.py"
_spec = importlib.util.spec_from_file_location("qcbench_run", _RUN_PY)
run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = run  # dataclasses resolve annotations through it
_spec.loader.exec_module(run)

TINY = [
    "count", "--x", "1000", "--k", "2", "--mod", "4", "--classes", "1,3",
    "--limit", "500",
]


def _workload(warm: bool):
    return run.Workload("tiny", "a tiny job", lambda d: TINY, lambda out: None, warm)


def _pins(digest: str) -> dict:
    return {"tiny": {str(d): digest for d in run.D_SET}}


def test_warm_job_that_does_not_use_the_setup_cache_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_SAMPLES", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "CALIBRATION_LOOPS", 1000)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_CACHE_ARGS", ["primes", "--limit", "1000"])
    monkeypatch.setattr(run, "CACHE_LIMIT", 1000)
    monkeypatch.setattr(run, "PI_CACHE_LIMIT", 168)
    monkeypatch.setattr(run, "CACHE_FILE_BYTES", 12 + 4 * 999)
    uncached = run.Run(_workload(False), 0, _pins(""))
    with uncached.workspace():
        digest = hashlib.sha256(uncached.job(run.cli_argv(TINY)).stdout).hexdigest()

    bench = run.Run(_workload(True), 0, _pins(digest))
    with bench.workspace():
        assert bench.setup_once(run.cli_argv(run.SETUP_CACHE_ARGS)).problem is None
        assert bench.job(run.cli_argv(TINY)).problem is None
        # a cache the CLI cannot read: it warns, rebuilds and overwrites it,
        # with the same stdout
        bench.cache.write_bytes(b"XXXX" + bench.cache.read_bytes()[4:])
        bench.sealed_cache = run.cache_state(bench.cache)
        rejected = bench.job(run.cli_argv(TINY))
        assert rejected.stdout and hashlib.sha256(rejected.stdout).hexdigest() == digest
        assert rejected.problem == "the job rejected the SPF cache written in setup"
        # a cache below the 500 entries the job needs: rebuilt and rewritten
        assert bench.setup_once(run.cli_argv(["primes", "--limit", "100"])).problem
        bench.sealed_cache = run.cache_state(bench.cache)
        rewritten = bench.job(run.cli_argv(TINY))
        assert rewritten.problem == "the job rewrote or removed the SPF cache written in setup"
