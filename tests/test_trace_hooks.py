"""The benchmark's per-layer tracing still reaches the package.

qcbench/traced_cli.py wraps named functions of qcdensity from outside the
package (spans for the public counting functions and the class-index
builds, a counter for kronecker). A refactor that renames or stops calling
one of them leaves the traced run silent about that layer. This runs a
small cross-checked table and the sandwich suite (every integer count
reads an oracle; the suite's ordered float sums build a class index)
through it and checks that every layer the benchmark's per-layer metrics
are built from shows up, each run with the same stdout as an untraced
run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qcdensity

_PACKAGE_ROOT = Path(qcdensity.__file__).resolve().parent.parent
_TRACED_CLI = Path(__file__).resolve().parent.parent / "qcbench" / "traced_cli.py"
_ARGVS = (
    ["table", "--x", "1000", "--k", "3", "--disc", "5", "--cross-check"],
    ["verify", "--suite", "sandwich", "--x", "100"],
)


def _run(argv):
    env = os.environ.copy()
    env.pop("QCD_SPF_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, env=env, timeout=240
    )


def test_traced_run_reports_every_counting_layer(tmp_path):
    names, kronecker_calls = set(), 0
    for i, args in enumerate(_ARGVS):
        spans_out = tmp_path / f"spans{i}.json"
        traced = _run([str(_TRACED_CLI), str(spans_out), "--", *args])
        untraced = _run(["-m", "qcdensity", *args])
        assert traced.returncode == 0, traced.stderr
        assert untraced.returncode == 0, untraced.stderr
        assert traced.stdout == untraced.stdout
        record = json.loads(spans_out.read_text())
        assert Path(record["module_file"]).resolve().parent.parent == _PACKAGE_ROOT
        names |= {span[0] for span in record["spans"]}
        kronecker_calls += record["counts"]["arith.kronecker"]
    for name in (
        "density.count_sign",
        "almostprime.count",
        "almostprime.positional",
        "sieve.class_index",
    ):
        assert name in names, name
    assert kronecker_calls > 0
