"""End-to-end CLI behavior through subprocess invocations, and table
acquisition in process."""

import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qcdensity
from qcdensity import cli, density
from qcdensity.residues import residue_classes_direct

from factor_scan import FactorScan

# the CLI under test is the package these tests import
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(qcdensity.__file__))


def run_cli(*args, env_extra=None, command=("-m", "qcdensity")):
    env = os.environ.copy()
    env.pop("QCD_SPF_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")])
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *command, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )


GOLDEN_TABLE_CSV = """\
x,k,D,constraint,count,reference,empirical,predicted,asymptotic
50,2,5,eps=++,0,13,0,0.25,4.35853
50,2,5,eps=+-,0,13,0,0.25,4.35853
50,2,5,eps=-+,3,13,0.230769,0.25,4.35853
50,2,5,eps=--,7,13,0.538462,0.25,4.35853
50,2,5,sum,10,13,0.769231,1,17.4341
"""


def test_primes_plain_count():
    proc = run_cli("primes", "--limit", "100")
    assert proc.returncode == 0
    assert proc.stdout == "25\n"


def test_primes_single_class():
    proc = run_cli("primes", "--limit", "100", "--mod", "4", "--classes", "1")
    assert proc.stdout == "11\n"


def test_primes_multiple_classes():
    proc = run_cli("primes", "--limit", "100", "--mod", "4", "--classes", "1,3")
    assert proc.stdout == "1,11\n3,13\n"


def test_primes_json():
    proc = run_cli(
        "primes", "--limit", "100", "--mod", "4", "--classes", "1,3",
        "--format", "json",
    )
    assert proc.stdout == (
        '{"classes":[{"count":11,"residue":1},{"count":13,"residue":3}],'
        '"limit":100,"mod":4}'
    )


def test_count_residue_classes():
    proc = run_cli(
        "count", "--x", "50", "--k", "2", "--mod", "4", "--classes", "1,3",
        "--mode", "squarefree",
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_count_sign_tuple_all_minus():
    # "--eps=--" must survive option parsing
    proc = run_cli("count", "--x", "50", "--k", "2", "--disc", "5", "--eps=--")
    assert proc.returncode == 0
    assert proc.stdout == "7\n"


def test_count_sign_tuple_json():
    proc = run_cli(
        "count", "--x", "50", "--k", "2", "--disc", "5", "--eps=+-",
        "--format", "json",
    )
    assert proc.stdout == (
        '{"count":0,"disc":5,"eps":"+-","k":2,"mode":"squarefree","x":50}'
    )


def test_residues_text_block():
    proc = run_cli("residues", "--disc", "5", "--eps", "+")
    assert proc.stdout == "1\n9\n11\n19\nQ=20 size=4\n"


def test_residues_json():
    proc = run_cli("residues", "--disc", "5", "--eps=-", "--format", "json")
    assert proc.stdout == (
        '{"classes":[3,7,13,17],"disc":5,"eps":"-","modulus":20,"size":4}'
    )


def test_solve_counts_roots():
    assert run_cli("solve", "--b", "0", "--c", "-5", "--n", "11").stdout == "2\n"
    assert run_cli("solve", "--b", "0", "--c", "-5", "--n", "209").stdout == "4\n"


def test_solve_json():
    proc = run_cli("solve", "--b", "0", "--c", "-5", "--n", "209", "--format", "json")
    assert proc.stdout == '{"b":0,"c":-5,"n":209,"roots":4}'


def test_table_golden_csv():
    proc = run_cli("table", "--x", "50", "--k", "2", "--disc", "5")
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_TABLE_CSV
    assert "elapsed" in proc.stderr


def test_table_deterministic_across_threads():
    base = run_cli("table", "--x", "50", "--k", "2", "--disc", "5")
    threaded = run_cli("table", "--x", "50", "--k", "2", "--disc", "5", "--threads", "4")
    assert threaded.stdout == base.stdout


def test_table_json_roundtrip():
    proc = run_cli("table", "--x", "50,100", "--k", "2", "--disc", "5", "--format", "json")
    parsed = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(parsed, sort_keys=True, separators=(",", ":"))
    assert len(parsed) == 10
    assert parsed[0]["x"] == 50 and parsed[-1]["x"] == 100


def test_table_budget_gives_partial_output_and_exit_one():
    proc = run_cli(
        "table", "--x", "1000,2000,4000", "--k", "2", "--disc", "5",
        "--budget-seconds", "0.000001",
    )
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("x,k,D,")
    assert len(lines) == 6  # header plus the completed x=1000 block only
    assert all(line.startswith("1000,") for line in lines[1:])


def test_table_sets_up_once_for_the_whole_grid(monkeypatch, capsys):
    # the sign constraints, Q and the classes B(+) and B(-) are made once per
    # command, not once per x, and the rows are density_table's
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    calls = []

    def spy(*args):
        calls.append(args)
        return residue_classes_direct(*args)

    monkeypatch.setattr(density, "residue_classes_direct", spy)
    grid = [1000, 10000, 100000]
    argv = ["table", "--x", ",".join(map(str, grid)), "--k", "2", "--disc", "5"]
    assert cli.main([*argv, "--cross-check"]) == 0
    assert sorted(calls) == [(5, -1), (5, 1)]
    rows = density.density_table(qcdensity.build_spf_table(1000), grid, 2, 5, True)
    assert capsys.readouterr().out == density.rows_to_csv(rows)


def test_verify_suite_exit_zero():
    proc = run_cli("verify", "--suite", "sandwich", "--x", "500")
    assert proc.returncode == 0
    assert "18/18 checks passed" in proc.stdout


def test_verify_json_payload():
    proc = run_cli("verify", "--suite", "residues", "--x", "500")
    assert proc.returncode == 0
    proc = run_cli("verify", "--suite", "residues", "--x", "500", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["failed"] == 0
    assert payload["passed"] == 13
    assert all(c["passed"] for c in payload["checks"])


def test_verify_x_past_the_suites_reads_the_same_table(monkeypatch, capsys):
    # no suite reads past 10^5, so --x 10^9 builds no larger table and
    # prints what --x 10^4 prints
    monkeypatch.delenv("QCD_SPF_CACHE", raising=False)
    outputs = []
    for x in ("10000", "1000000000"):
        assert cli.main(["verify", "--suite", "all", "--x", x]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("109/109 checks passed\n")


def test_table_past_the_factor_limit_of_2d(tmp_path):
    # D = 2 * 707099^2 is under the trial-factor limit of 10^12 and 2D is
    # over it: the sign labels need only D's primes
    d = 2 * 707099**2
    cache = tmp_path / "spf.bin"
    proc = run_cli("table", "--x", "1000,100000", "--k", "2", "--disc", str(d),
                   env_extra={"QCD_SPF_CACHE": str(cache)})
    assert proc.returncode == 0, proc.stderr
    table = qcdensity.build_spf_table(10**5)
    scan = FactorScan(table.spf, 2)
    signs = np.zeros(len(table.spf), dtype=np.int8)
    signs[table.primes] = [qcdensity.kronecker(d, p) for p in table.primes_list]
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    counts = {(int(r[0]), r[3]): int(r[4]) for r in rows}
    for x in (1000, 10**5):
        for eps, expected in scan.sign_counts(x, 2, signs).items():
            label = qcdensity.SignConstraint(d, eps).label()
            assert counts[x, label] == expected, (x, label)
    assert len(counts) == 10


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "classes.txt"
    proc = run_cli("residues", "--disc", "5", "--eps", "+", "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert target.read_text() == "1\n9\n11\n19\nQ=20 size=4\n"


# The child runs the package as python -m does, and reports the freeze count
# from an atexit hook, which runs after main has returned.
_FREEZE_PROBE = """
import atexit, gc, runpy, sys

atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
sys.argv = ["qcdensity", *sys.argv[1:]]
runpy.run_module("qcdensity", run_name="__main__", alter_sys=True)
"""


def test_process_entry_freezes_the_loaded_objects():
    args = ("solve", "--b", "0", "--c", "-5", "--n", "209")
    proc = run_cli(*args, command=("-c", _FREEZE_PROBE))
    assert proc.returncode == 0
    assert proc.stdout == "4\n"
    frozen = int(proc.stderr.split("frozen ")[-1])
    assert frozen > 0


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["solve", "--b", "0", "--c", "-5", "--n", "209"]) == 0
    assert capsys.readouterr().out == "4\n"
    assert gc.get_freeze_count() == before


def test_out_file_of_a_fresh_process_matches_stdout(tmp_path):
    """The process entry exits through sys.exit after main has closed the
    --out file, so the file is whole and equals the stdout of the same run."""
    target = tmp_path / "table.csv"
    args = ("table", "--x", "1000,10000", "--k", "2", "--disc", "5", "--cross-check")
    to_file = run_cli(*args, "--out", str(target))
    to_stdout = run_cli(*args)
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_file.stdout == ""
    assert to_stdout.stdout.startswith("x,k,D,constraint,")
    assert target.read_text() == to_stdout.stdout


def test_out_flag_unwritable_path(tmp_path):
    # missing parent directory: runtime failure, not a usage error
    target = tmp_path / "no_such_dir" / "out.txt"
    proc = run_cli("count", "--x", "50", "--k", "2", "--disc", "5", "--eps=--",
                   "--out", str(target))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ("count", "--x", "50", "--k", "2", "--mod", "4", "--classes", "1,3", "--eps=+-"),
    ("count", "--x", "50", "--k", "2", "--eps=+-"),
    ("count", "--x", "50", "--k", "2", "--mod", "4"),
    ("nosuchcommand",),
    ("table", "--x", "100,50", "--k", "1", "--disc", "5"),
    ("table", "--x", "50", "--k", "1", "--disc", "5", "--threads", "0"),
    ("residues", "--disc", "5", "--eps", "x"),
    ("primes", "--limit", "100", "--mod", "100001"),
    # the class modulus is range-checked before the table is acquired, so
    # these exit 2 rather than building (or refusing) a table first
    ("count", "--x", "1000000000", "--k", "1", "--mod", "100001", "--classes", "1"),
    ("primes", "--limit", "200000000", "--mod", "100001"),
    # values the library refuses: main maps its ValueError to a usage error
    ("solve", "--b", "0", "--c", "1", "--n", "0"),
    ("residues", "--disc", "4"),
    ("table", "--x", "100", "--k", "2", "--disc", "4"),
    ("count", "--x", "50", "--k", "2", "--disc", "9", "--eps=++"),
    ("count", "--x", "50", "--k", "2", "--mod", "4", "--classes", "1,2"),
    # an option the count does not use is refused, not ignored
    ("count", "--x", "50", "--k", "2", "--disc", "5"),
    ("count", "--x", "50", "--k", "2", "--disc", "5", "--eps=++", "--mod", "4"),
    ("count", "--x", "50", "--k", "2", "--disc", "5", "--mod", "4", "--classes", "1,3"),
])
def test_usage_errors_exit_two(args):
    proc = run_cli(*args)
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("table", "--x", "100000", "--k", "3", "--disc", "4"),
    ("count", "--x", "100000", "--k", "2", "--disc", "9", "--eps=++"),
    ("count", "--x", "100000", "--k", "2", "--mod", "4", "--classes", "1,2"),
    # the period 400012 is over the class-modulus limit of the cross-check
    ("table", "--x", "1000", "--k", "1", "--disc", "100003", "--cross-check"),
    # the period 4000012 is over the enumeration limit of the sign labels
    ("table", "--x", "50", "--k", "2", "--disc", "1000003"),
    ("count", "--x", "50", "--k", "2", "--disc", "1000003", "--eps=++"),
    # options the count would not use
    ("count", "--x", "100000", "--k", "2", "--disc", "5"),
    ("count", "--x", "100000", "--k", "2", "--disc", "5", "--eps=++", "--mod", "4"),
    ("count", "--x", "100000", "--k", "2", "--disc", "5", "--mod", "4",
     "--classes", "1,3"),
    # only primes takes --limit: the others read what their arguments need
    ("count", "--x", "1000", "--k", "2", "--limit", "500"),
    ("table", "--x", "1000", "--k", "2", "--disc", "5", "--limit", "500"),
    ("verify", "--suite", "residues", "--limit", "500"),
])
def test_usage_error_acquires_no_table(args, tmp_path):
    cache = tmp_path / "spf.bin"
    proc = run_cli(*args, env_extra={"QCD_SPF_CACHE": str(cache)})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert not cache.exists()


@pytest.mark.parametrize("args", [
    # about x^(3/4) = 10^9 updates for the class oracle's prime counts
    ("count", "--x", "1000000000000", "--k", "1", "--mod", "4", "--classes", "1"),
    ("primes", "--limit", "200000000"),
])
def test_table_over_budget_exits_one(args):
    # the sieve or the oracle refuses before it allocates: a runtime limit,
    # not a usage error
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "exceeds the budget" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ("count", "--x", "9999999999999999", "--k", "1"),
    ("count", "--x", "100000000000", "--k", "2", "--disc", "5", "--eps=+-"),
    ("table", "--x", "1000,100000000000", "--k", "2", "--disc", "5"),
])
def test_prime_counts_over_budget_exit_one(args):
    # about x^(3/4) recurrence updates against the entry budget, refused
    # before any table or oracle is built
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: prime counts to x = ")
    assert "exceeds the budget" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    # phi(99956) = 49976 rows of 201 counts
    ("table", "--x", "10000", "--k", "1", "--disc", "24989", "--cross-check"),
    # phi(4036) = 2016 rows of 6325 counts
    ("table", "--x", "1000,10000000", "--k", "2", "--disc", "1009", "--cross-check"),
    # phi(99991) = 99990 rows of 201 counts
    ("count", "--x", "10000", "--k", "1", "--mod", "99991", "--classes", "1"),
])
def test_class_counts_over_budget_exit_one(tmp_path, args):
    # the class oracle of the cross-check rows and of `count --classes` is
    # refused on its rows times x^(3/4) updates, or on the counts it would
    # hold, before any table is acquired
    cache = tmp_path / "spf.bin"
    proc = run_cli(*args, env_extra={"QCD_SPF_CACHE": str(cache)})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: class counts to x = ")
    assert "exceeds the budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not cache.exists()


def test_cross_check_rows_over_budget_exit_one(tmp_path):
    # 2 x values times phi(404)^3 = 8*10^6 residue-class rows, all held in
    # memory before any is written: refused before any table is acquired
    cache = tmp_path / "spf.bin"
    args = ("table", "--x", "100000,1000000", "--k", "3", "--disc", "101",
            "--cross-check")
    proc = run_cli(*args, env_extra={"QCD_SPF_CACHE": str(cache)})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --cross-check at 2 x values mod 404")
    assert "exceeds the budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not cache.exists()


@pytest.mark.parametrize("args", [
    # 2^19 + 1 sign and sum rows at one x; 2^40 + 1 printed nothing in 60 s
    ("table", "--x", "1000", "--k", "19", "--disc", "5"),
    ("table", "--x", "100", "--k", "40", "--disc", "5"),
    # 2 * (2^18 + 1) rows over two x values
    ("table", "--x", "1000,2000", "--k", "18", "--disc", "5"),
    # a huge k is refused without a huge power of 2 or of phi(Q)
    ("table", "--x", "100", "--k", "100000000000", "--disc", "5"),
    ("table", "--x", "100", "--k", "1000000000000", "--disc", "5", "--cross-check"),
])
def test_table_rows_over_budget_exit_one(tmp_path, args):
    # every row of a table is held in memory before any is written: sign,
    # sum and residue-class rows are counted before any table is acquired
    cache = tmp_path / "spf.bin"
    proc = run_cli(*args, env_extra={"QCD_SPF_CACHE": str(cache)})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "rows, which exceeds the budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not cache.exists()


@pytest.mark.parametrize("args", [
    ("primes", "--limit", "200000000"),
    ("count", "--x", "9999999999999999", "--k", "1"),
    ("count", "--x", "10000", "--k", "1", "--mod", "99991", "--classes", "1"),
    ("table", "--x", "100", "--k", "40", "--disc", "5"),
])
def test_budget_refusal_returns_one_in_process(monkeypatch, capsys, args):
    # main alone turns a refusal into an exit code: no SystemExit escapes
    monkeypatch.delenv("QCD_SPF_CACHE", raising=False)
    assert cli.main(list(args)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "exceeds the budget" in err


def test_table_rows_within_budget_run():
    # 2^16 + 1 = 65537 rows at one x, under the row budget
    proc = run_cli("table", "--x", "1000", "--k", "16", "--disc", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 + 2**16 + 1
    assert lines[-1].startswith("1000,16,5,sum,0,0,")


def test_count_at_a_huge_k_is_zero_at_once():
    # 2^k > x: the walk stops before it takes any power with k bits
    proc = run_cli("count", "--x", "1000", "--k", "100000000000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_class_counts_need_only_a_square_root_table(tmp_path):
    # the residue-multiset count reads the class oracle: a table to isqrt(10^8)
    cache = tmp_path / "spf.bin"
    args = ("count", "--x", "100000000", "--k", "2", "--mod", "4", "--classes", "1,3")
    proc = run_cli(*args, env_extra={"QCD_SPF_CACHE": str(cache)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "7212574\n"
    assert qcdensity.sieve.spf_cache_limit(str(cache)) == 10**4


def test_class_count_past_the_table_budget():
    # pi(10^9; 4, 1), where a table to x would be over the entry budget
    proc = run_cli("count", "--x", "1000000000", "--k", "1", "--mod", "4", "--classes", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "25423491\n"


def test_cross_check_needs_only_a_square_root_table(tmp_path):
    # the cross-check rows read the class oracle: a table to isqrt(10^7)
    cache = tmp_path / "spf.bin"
    args = ("table", "--x", "10000000", "--k", "2", "--disc", "5", "--cross-check")
    proc = run_cli(*args, env_extra={"QCD_SPF_CACHE": str(cache)})
    assert proc.returncode == 0, proc.stderr
    assert qcdensity.sieve.spf_cache_limit(str(cache)) == 3162


def test_unconstrained_count_needs_only_a_square_root_table():
    # pi(10^9) from the primes up to 31622, far inside the entry budget
    proc = run_cli("count", "--x", "1000000000", "--k", "1")
    assert proc.returncode == 0
    assert proc.stdout == "50847534\n"


def test_cache_created_and_reused(tmp_path):
    cache = tmp_path / "spf.bin"
    env = {"QCD_SPF_CACHE": str(cache)}
    first = run_cli("primes", "--limit", "2000", env_extra=env)
    assert first.returncode == 0
    assert cache.exists()
    stamp = cache.stat().st_mtime_ns
    second = run_cli("primes", "--limit", "2000", env_extra=env)
    assert second.stdout == first.stdout
    assert "warning" not in second.stderr
    assert cache.stat().st_mtime_ns == stamp  # reused, not rebuilt


def test_unreadable_cache_warns_and_builds(tmp_path):
    # a directory cannot be read as a cache, nor replaced by one
    args = ("table", "--x", "1000", "--k", "2", "--disc", "5")
    proc = run_cli(*args, env_extra={"QCD_SPF_CACHE": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(*args).stdout
    assert f"warning: ignoring SPF cache {tmp_path}" in proc.stderr
    assert f"warning: could not write SPF cache {tmp_path}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert tmp_path.is_dir() and list(tmp_path.iterdir()) == []


def test_corrupt_cache_warns_and_rebuilds(tmp_path):
    cache = tmp_path / "spf.bin"
    cache.write_bytes(b"garbage")
    proc = run_cli("primes", "--limit", "1000", env_extra={"QCD_SPF_CACHE": str(cache)})
    assert proc.returncode == 0
    assert proc.stdout == "168\n"
    assert "ignoring SPF cache" in proc.stderr


@pytest.fixture(scope="module")
def million_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("warm") / "spf.bin"
    proc = run_cli("primes", "--limit", "1000000", env_extra={"QCD_SPF_CACHE": str(cache)})
    assert proc.returncode == 0 and proc.stdout == "78498\n"
    return cache


@pytest.mark.parametrize("args", [
    ("primes", "--limit", "100"),
    ("table", "--x", "1000", "--k", "2", "--disc", "5"),
])
def test_warm_cache_prefix_matches_a_cold_run(million_cache, args):
    # the job needs far fewer entries than the cache holds: it reads a prefix
    before = million_cache.stat()
    warm = run_cli(*args, env_extra={"QCD_SPF_CACHE": str(million_cache)})
    assert warm.returncode == 0
    assert warm.stdout == run_cli(*args).stdout
    assert "warning" not in warm.stderr
    after = million_cache.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)


def test_a_short_cache_payload_is_not_read(tmp_path, monkeypatch, capsys):
    # its header says it stops short of the need: no entry is read, and it
    # is rebuilt with no warning
    cache = tmp_path / "spf.bin"
    qcdensity.save_spf_cache(qcdensity.build_spf_table(1000), str(cache))
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(cache))
    loads = []

    def load(*args, **kwargs):
        loads.append(kwargs.get("limit"))
        return qcdensity.load_spf_cache(*args, **kwargs)

    monkeypatch.setattr(cli, "load_spf_cache", load)
    assert cli._get_table(5000).limit == 5000
    assert loads == []
    assert capsys.readouterr().err == ""
    # the rewritten cache covers the need, and its prefix is read
    assert cli._get_table(3000).limit == 3000
    assert loads == [3000]
    assert qcdensity.load_spf_cache(str(cache)).limit == 5000
