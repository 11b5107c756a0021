"""Self-tests of the benchmark's own logic, on tiny CLI jobs only.

Run from the root of a checkout: python3 -m pytest -q qcbench
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
PRIMES_100 = ["primes", "--limit", "100"]


def _tiny(cli_args: list[str]) -> run.Workload:
    return run.Workload("tiny", "a tiny job", lambda d: cli_args, lambda out: None)


def _pins(digest: str) -> dict:
    return {"tiny": {str(d): digest for d in run.D_SET}}


@pytest.fixture
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_SAMPLES", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "CALIBRATION_LOOPS", 1000)
    monkeypatch.setattr(run, "WORK", tmp_path)


def test_matching_digest_passes(quick):
    result = run.Run(_tiny(PRIMES_100), 0, _pins(hashlib.sha256(b"25\n").hexdigest()))
    outcome = result.execute(0, trace=False)
    assert outcome["attempted"] == 3
    assert outcome["failed"] == 0
    assert outcome["detail"]["error_rate"] == 0.0
    assert all(inv.speed > 0 for inv in result.invocations)


def test_wrong_pinned_digest_counts_as_failure(quick):
    outcome = run.Run(_tiny(PRIMES_100), 0, _pins("0" * 64)).execute(0, trace=False)
    assert outcome["attempted"] == 3
    assert outcome["failed"] == 3
    assert outcome["detail"]["error_rate"] == 1.0


def test_nonzero_exit_counts_as_failure(quick):
    # --limit 1 is a usage error: exit code 2 with empty stdout, so only the
    # exit code can flag it
    bad = run.Run(_tiny(["primes", "--limit", "1"]), 0, _pins(hashlib.sha256(b"").hexdigest()))
    outcome = bad.execute(0, trace=False)
    assert outcome["failed"] == outcome["attempted"] == 3
    assert all(inv.problem == "exit code 2" for inv in bad.invocations)
    assert b"--limit must be >= 2" in bad.invocations[0].stderr


def test_anchor_mismatch_counts_as_failure():
    good = b"x,k,D,constraint,count,reference,empirical,predicted,asymptotic\n"
    rows = [
        "10000000,2,5,eps=++,3,1903878,,,",
        "10000000,2,5,eps=-+,4,1903878,,,",
        "10000000,2,5,sum,7,1903878,,,",
    ]
    anchor = run.table_anchor(run.SQUAREFREE_SEMIPRIMES_1E7)
    assert anchor(good + "\n".join(rows).encode() + b"\n") is None
    assert anchor(good + "\n".join(rows).replace(",7,", ",8,").encode() + b"\n")
    assert anchor(good + "\n".join(rows).replace("1903878", "1903879").encode() + b"\n")
    assert run.verify_anchor(b"PASS x\n109/109 checks passed\n") is None
    assert run.verify_anchor(b"FAIL x\n108/109 checks passed\n")


def test_warm_job_that_does_not_use_the_setup_cache_fails(quick, monkeypatch):
    monkeypatch.setattr(run, "SETUP_CACHE_ARGS", ["primes", "--limit", "1000"])
    monkeypatch.setattr(run, "CACHE_LIMIT", 1000)
    monkeypatch.setattr(run, "PI_CACHE_LIMIT", 168)
    monkeypatch.setattr(run, "CACHE_FILE_BYTES", 12 + 4 * 999)
    args = ["table", "--x", "1000", "--k", "2", "--disc", "5"]
    warm = run.Workload("tiny", "a tiny warm job", lambda d: args, lambda out: None, True)
    uncached = run.Run(_tiny(args), 0, _pins(""))
    with uncached.workspace():
        digest = hashlib.sha256(uncached.job(run.cli_argv(args)).stdout).hexdigest()

    bench = run.Run(warm, 0, _pins(digest))
    with bench.workspace():
        assert bench.setup_once(run.cli_argv(run.SETUP_CACHE_ARGS)).problem is None
        assert bench.job(run.cli_argv(args)).problem is None
        # a cache the CLI cannot read: it warns, rebuilds and overwrites it,
        # with the same stdout
        bench.cache.write_bytes(b"XXXX" + bench.cache.read_bytes()[4:])
        bench.sealed_cache = run.cache_state(bench.cache)
        rejected = bench.job(run.cli_argv(args))
        assert rejected.stdout and hashlib.sha256(rejected.stdout).hexdigest() == digest
        assert rejected.problem == "the job rejected the SPF cache written in setup"
        # a cache too small for the job: it is rebuilt and rewritten silently
        assert bench.setup_once(run.cli_argv(["primes", "--limit", "100"])).problem
        bench.sealed_cache = run.cache_state(bench.cache)
        rewritten = bench.job(run.cli_argv(args))
        assert rewritten.problem == "the job rewrote or removed the SPF cache written in setup"


def test_self_time_subtracts_covered_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],
        ["b", 7.0, 8.0, 0],
        ["d", 2.0, 3.0, 1],
    ]
    own, total, calls = run.self_times(spans)
    assert own == {"a": 4.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert total == {"a": 10.0, "b": 4.0, "c": 3.0, "d": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1, "d": 1}


def test_traced_run_records_layers(tmp_path):
    spans_out = tmp_path / "spans.json"
    inv = run.spawn(
        run.traced_argv(spans_out, ["count", "--x", "1000", "--k", "2", "--disc", "5", "--eps=+-"]),
        run.child_env(None),
        tmp_path,
    )
    assert inv.exit_code == 0
    record, problem = run.read_trace(spans_out)
    assert problem is None
    names = {span[0] for span in record["spans"]}
    assert {"cli.import", "cli.main", "sieve.build", "density.count_sign"} <= names
    figures = run.layer_figures(record)
    assert figures["arith.kronecker_calls"] > 0
    assert figures["sieve.table_entries"] > 0
    assert figures["density.count_sign_calls"] == 1
    for name in figures:
        assert NAME.fullmatch(name), name


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    names = list(run.WORKLOADS) + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert set(run.load_pins()) == set(run.WORKLOADS)
