"""Benchmark for the qcdensity CLI: whole invocations, end to end, plus a
traced run that splits one invocation into per-layer self times.

Usage, from the root of a checkout:

    python3 qcbench/run.py --workload cold-k2 --seed 0 --seconds 30 --trace 0
    python3 qcbench/run.py --workload all --seed 0 --seconds 30 --trace 1

One client runs CLI jobs one after another in fresh processes (closed loop,
one job at a time), using the package under ``src/`` of the checkout. Each
job's stdout is checked against a sha256 pinned per (workload, D) and against
independent anchors; a failed check or a non-zero exit counts as a failure.

End-to-end times are scaled to a reference host speed. The speed of a shared
host drifts by tens of percent over minutes, so a fixed pure-Python loop is
timed right before and right after each invocation, and the invocation's wall
and CPU times are multiplied by the square root of REFERENCE_CALIBRATION_S
over the mean of the two loop times. The raw times are in the detail line. With ``--trace 1`` the
benchmark also runs the job under ``traced_cli.py`` and reports per-layer
metrics, in raw seconds, from its spans.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it holds the details: seed, D, argv,
sample counts, the environment and every per-layer figure the trace gave.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR / ".work"
TRACED_CLI = BENCH_DIR / "traced_cli.py"

# Every D here has Kronecker period Q = 20, so the number of cross-check rows
# (and hence the work per job) does not depend on the seed.
D_SET = (5, -5, 45, 125)
GRID = "1000000,10000000"
CACHE_LIMIT = 5_000_000
PI_CACHE_LIMIT = 348_513  # pi(5*10^6)
CACHE_FILE_BYTES = 12 + 4 * (CACHE_LIMIT - 1)  # SPF1 header plus one u32 per n
# squarefree semiprimes <= 10^7: semiprimes (OEIS A066265) minus pi(3162)
SQUAREFREE_SEMIPRIMES_1E7 = 1_904_324 - 446
# squarefree 3-almost-primes <= 10^7, summed as pi(x/pq) - pi(q) over p < q
# with sympy.primepi
SPHENIC_1E7 = 2_086_746
VERIFY_TAIL = b"109/109 checks passed\n"

SETUP_REPEATS = 7
MIN_SAMPLES = 20  # so that two samples lie above the p90 tail
TRACE_REPEATS = 3
INVOCATION_TIMEOUT_S = 120.0

# A fixed pure-Python loop whose time tracks the host's speed. The fastest of
# CALIBRATION_REPEATS runs drops interruptions; it takes about
# REFERENCE_CALIBRATION_S on the reference host (see CHANGES.md).
CALIBRATION_LOOPS = 130_000
CALIBRATION_REPEATS = 3
REFERENCE_CALIBRATION_S = 0.008
# Invocations slow down less than the loop does: over twenty ten-seed runs per
# workload on a shared 2-vCPU host, the slope of log(wall time) on log(loop
# time) was 0.37 to 0.64. Scaling by the full ratio over-corrects, so times
# are scaled by its square root.
SPEED_EXPONENT = 0.5

END_TO_END = (
    ("wall_s", "s"),
    ("wall_s_tail", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

# Per-layer figures reported as metrics on every workload. Each time here is
# non-zero on every workload's traced job; the detail line holds every span's
# self time and calls, and every counter and fact, of the traced job.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.get_table_total_s", "s"),
    ("sieve.class_index_s", "s"),
    ("almostprime.count_s", "s"),
    ("trace.overhead_s", "s"),
    ("sieve.table_entries", "count"),
    ("sieve.table_bytes", "bytes"),
    ("sieve.useful_ratio", "ratio"),
    ("sieve.cache_file_bytes", "bytes"),
    ("sieve.class_index_calls", "count"),
    ("density.count_sign_calls", "count"),
    ("almostprime.count_calls", "count"),
    ("almostprime.positional_calls", "count"),
    ("arith.kronecker_calls", "count"),
    ("quadratic.bruteforce_calls", "count"),
    ("verify.checks", "count"),
)


def _table_rows(stdout: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(stdout.decode("ascii"))))


def table_anchor(reference_at_1e7: int) -> Callable[[bytes], str | None]:
    """Checks on a table report that hold independently of the pinned digest:
    the sign rows add up to the sum row at every x, and the reference column
    at x = 10^7 is the known count of squarefree k-almost-primes."""

    def anchor(stdout: bytes) -> str | None:
        rows = _table_rows(stdout)
        for x in sorted({r["x"] for r in rows}):
            at_x = [r for r in rows if r["x"] == x]
            signs = sum(int(r["count"]) for r in at_x if r["constraint"].startswith("eps="))
            total = [int(r["count"]) for r in at_x if r["constraint"] == "sum"]
            if total != [signs]:
                return f"sign rows at x={x} do not add up to the sum row"
        at_1e7 = [r for r in rows if r["x"] == "10000000"]
        if not at_1e7 or any(int(r["reference"]) != reference_at_1e7 for r in at_1e7):
            return f"reference at x=10^7 is not {reference_at_1e7}"
        return None

    return anchor


def verify_anchor(stdout: bytes) -> str | None:
    if not stdout.endswith(VERIFY_TAIL):
        return "verify report does not end with 109/109 checks passed"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cli_args: Callable[[int], list[str]]
    anchor: Callable[[bytes], str | None]
    warm_cache: bool = False


def _table_args(k: int, cross_check: bool) -> Callable[[int], list[str]]:
    def args(d: int) -> list[str]:
        extra = ["--cross-check"] if cross_check else []
        return ["table", "--x", GRID, "--k", str(k), "--disc", str(d), *extra]

    return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold-k2",
            "k=2 table at x=10^6,10^7 with no cache: the 5*10^6-entry sieve build and "
            "table memory; a sublinear counting backend would show here.",
            _table_args(2, cross_check=False),
            table_anchor(SQUAREFREE_SEMIPRIMES_1E7),
        ),
        Workload(
            "warm-k3-cross",
            "k=3 cross-checked table on a 5*10^6-entry SPF1 cache written in setup, twice "
            "the coverage the job needs: the prime-tuple walker and cache I/O dominate.",
            _table_args(3, cross_check=True),
            table_anchor(SPHENIC_1E7),
            warm_cache=True,
        ),
        Workload(
            "verify-all",
            "verify --suite all at x=10^4 on a 10^5-entry table, no cache: pure-Python "
            "checks and the sorted-tuple walkers; a sieve or cache change costs nothing.",
            lambda d: ["verify", "--suite", "all", "--x", "10000"],
            verify_anchor,
        ),
    )
}

SETUP_CACHE_ARGS = ["primes", "--limit", str(CACHE_LIMIT)]
CACHE_REJECTED = b"ignoring SPF cache"


def load_pins() -> dict[str, dict[str, str]]:
    with open(BENCH_DIR / "pins.json", encoding="utf-8") as fh:
        return json.load(fh)


def _calibration_loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    return min(_calibration_loop() for _ in range(CALIBRATION_REPEATS))


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mib: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    problem: str | None = None
    speed: float = 1.0  # (REFERENCE_CALIBRATION_S / loop time) ** SPEED_EXPONENT

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * self.speed


def child_env(cache_path: Path | None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QCD_SPF_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    if cache_path is not None:
        env["QCD_SPF_CACHE"] = str(cache_path)
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], env: dict[str, str], workdir: Path) -> Invocation:
    """Run argv with stdout and stderr in files; time it from spawn to exit and
    take the child's own CPU time and peak RSS from wait4."""
    out_path = workdir / "stdout"
    opened = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), opened, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(workdir / "stderr"), opened, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, _kill, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,
        exit_code=os.waitstatus_to_exitcode(status),
        stdout=out_path.read_bytes(),
        stderr=(workdir / "stderr").read_bytes(),
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "qcdensity", *args]


def traced_argv(spans_out: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(TRACED_CLI), str(spans_out), "--", *args]


def check(inv: Invocation, workload: Workload, expected_digest: str) -> Invocation:
    if inv.exit_code != 0:
        inv.problem = f"exit code {inv.exit_code}"
        return inv
    digest = hashlib.sha256(inv.stdout).hexdigest()
    if digest != expected_digest:
        inv.problem = f"stdout sha256 {digest} is not the pinned {expected_digest}"
        return inv
    try:
        inv.problem = workload.anchor(inv.stdout)
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        inv.problem = f"unreadable output: {exc!r}"
    return inv


def check_setup(inv: Invocation, cache_path: Path) -> Invocation:
    if inv.exit_code != 0:
        inv.problem = f"exit code {inv.exit_code}"
    elif inv.stdout != f"{PI_CACHE_LIMIT}\n".encode():
        inv.problem = f"pi({CACHE_LIMIT}) printed as {inv.stdout!r}"
    elif not cache_path.is_file() or cache_path.stat().st_size != CACHE_FILE_BYTES:
        inv.problem = "setup did not write a full SPF1 cache"
    return inv


def cache_state(cache_path: Path) -> tuple[int, int] | None:
    try:
        st = cache_path.stat()
    except FileNotFoundError:
        return None
    return st.st_size, st.st_mtime_ns


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1]


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: summed duration minus the part covered by child spans,
    summed duration, and the number of spans."""
    covered = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent].append((start, end))
    own: dict[str, float] = {}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), kids in zip(spans, covered):
        busy, reach = 0.0, start
        for s, e in sorted(kids):
            s, e = max(s, reach), min(e, end)
            if e > s:
                busy += e - s
                reach = e
        own[name] = own.get(name, 0.0) + (end - start) - busy
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    return own, total, calls


def layer_figures(record: dict) -> dict[str, float]:
    """Metric name -> value for one trace record: each span's self time
    (``_s``), summed duration (``_total_s``) and calls (``_calls``), each
    counted function's calls, and the computed facts."""
    own, total, calls = self_times(record["spans"])
    figures: dict[str, float] = {}
    for span in own:
        figures[f"{span}_s"] = own[span]
        figures[f"{span}_total_s"] = total[span]
        figures[f"{span}_calls"] = calls[span]
    for counter, value in record["counts"].items():
        figures[f"{counter}_calls"] = value
    facts = record["facts"]
    figures.update(facts)
    if facts.get("sieve.table_entries"):
        figures["sieve.useful_ratio"] = facts["sieve.need"] / facts["sieve.table_entries"]
    return figures


EMPTY_TRACE = {"spans": [], "counts": {}, "facts": {}}


def read_trace(path: Path) -> tuple[dict, str | None]:
    """The record traced_cli.py wrote, or a problem if it is missing or was
    made by a qcdensity other than the one under src/."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return EMPTY_TRACE, f"no trace written: {exc!r}"
    module = Path(record["module_file"]).resolve()
    if SRC.resolve() not in module.parents:
        return EMPTY_TRACE, f"traced run imported {module}, not {SRC}"
    return record, None


def environment(workload: Workload) -> dict:
    try:
        llc = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        llc = ""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "llc_bytes": int(llc) if llc.isdigit() else None,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "cache_file_bytes": CACHE_FILE_BYTES if workload.warm_cache else 0,
    }


class Run:
    """One workload at one seed: setup, the timed loop and the traced runs.
    Call the steps inside ``workspace()``."""

    def __init__(self, workload: Workload, seed: int, pins: dict):
        self.workload = workload
        self.seed = seed
        self.d = D_SET[seed % len(D_SET)]
        self.args = workload.cli_args(self.d)
        self.digest = pins[workload.name][str(self.d)]
        self.workdir = WORK / workload.name
        self.cache = self.workdir / "spf.bin" if workload.warm_cache else None
        self.sealed_cache: tuple[int, int] | None = None
        self.invocations: list[Invocation] = []
        self.calibrations: list[float] = []

    def _record(self, inv: Invocation) -> Invocation:
        self.invocations.append(inv)
        if inv.problem:
            last = inv.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"FAIL {self.workload.name}: {inv.problem} {last}", file=sys.stderr)
        return inv

    def _spawn(self, argv: list[str]) -> Invocation:
        """Spawn argv between two calibrations and set its speed factor; the
        calibration after one invocation serves as the one before the next."""
        if not self.calibrations:
            calibrate()  # the first run in a process is slower
            self.calibrations.append(calibrate())
        before = self.calibrations[-1]
        inv = spawn(argv, child_env(self.cache), self.workdir)
        self.calibrations.append(calibrate())
        loop_s = (before + self.calibrations[-1]) / 2
        inv.speed = (REFERENCE_CALIBRATION_S / loop_s) ** SPEED_EXPONENT
        return inv

    def job(self, argv: list[str]) -> Invocation:
        inv = check(self._spawn(argv), self.workload, self.digest)
        if self.cache is not None and inv.problem is None:
            if CACHE_REJECTED in inv.stderr:
                inv.problem = "the job rejected the SPF cache written in setup"
            elif cache_state(self.cache) != self.sealed_cache:
                inv.problem = "the job rewrote or removed the SPF cache written in setup"
        return self._record(inv)

    def setup_once(self, argv: list[str]) -> Invocation:
        if self.cache is None:
            return self.job(argv)
        self.cache.unlink(missing_ok=True)
        inv = self._record(check_setup(self._spawn(argv), self.cache))
        self.sealed_cache = cache_state(self.cache)
        return inv

    def traced(self, args: list[str], setup: bool = False) -> tuple[Invocation, dict]:
        spans_out = self.workdir / "spans.json"
        spans_out.unlink(missing_ok=True)
        argv = traced_argv(spans_out, args)
        inv = self.setup_once(argv) if setup else self.job(argv)
        if inv.problem:
            return inv, EMPTY_TRACE
        record, problem = read_trace(spans_out)
        if problem:
            inv.problem = problem
            print(f"FAIL {self.workload.name}: {problem}", file=sys.stderr)
        return inv, record

    @contextlib.contextmanager
    def workspace(self):
        """A fresh work directory, removed again on exit."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        try:
            yield
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def execute(self, seconds: float, trace: bool) -> dict:
        with self.workspace():
            return self._execute(seconds, trace)

    def _execute(self, seconds: float, trace: bool) -> dict:
        setup_args = SETUP_CACHE_ARGS if self.cache else self.args
        setups = [self.setup_once(cli_argv(setup_args)) for _ in range(SETUP_REPEATS)]

        samples: list[Invocation] = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(samples) < MIN_SAMPLES:
            samples.append(self.job(cli_argv(self.args)))
        walls = [s.scaled_wall_s for s in samples]
        e2e = {
            "wall_s": statistics.median(walls),
            "wall_s_tail": p90(walls),
            "cpu_s": statistics.median(s.scaled_cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.rss_mib for s in samples),
            "setup_s": statistics.median(s.scaled_wall_s for s in setups),
        }
        raw = {
            "wall_s": statistics.median(s.wall_s for s in samples),
            "wall_s_tail": p90([s.wall_s for s in samples]),
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "setup_s": statistics.median(s.wall_s for s in setups),
        }
        detail = {
            "workload": self.workload.name,
            "why": self.workload.why,
            "seed": self.seed,
            "D": self.d,
            "argv": ["qcdensity", *self.args],
            "samples": len(samples),
            "wall_samples_s": [s.wall_s for s in samples],
            "speed_samples": [s.speed for s in samples],
            "setup_runs": len(setups),
            "setup_argv": ["qcdensity", *setup_args],
            "env": environment(self.workload),
            "end_to_end": e2e,
            "end_to_end_unscaled": raw,
            "calibration_median_s": statistics.median(self.calibrations),
        }
        if trace:
            detail["layers"] = self.layers()
        attempted = len(self.invocations)
        failed = sum(1 for inv in self.invocations if inv.problem)
        detail["error_rate"] = failed / attempted
        return {"detail": detail, "attempted": attempted, "failed": failed}

    def layers(self) -> dict[str, float]:
        """Per-layer figures, each the median over TRACE_REPEATS traced jobs.
        Each traced job follows an untraced one, and trace.overhead_s is the
        median traced wall minus the median of those untraced walls; both are
        raw seconds, so it can come out negative when the host speeds up. For
        the warm workload, one traced cache-writing setup comes first; its
        figures are reported under a ``setup.`` prefix."""
        layers: dict[str, float] = {}
        if self.cache is not None:
            _, record = self.traced(SETUP_CACHE_ARGS, setup=True)
            layers.update({f"setup.{k}": v for k, v in layer_figures(record).items()})

        untraced, traced, figures = [], [], []
        for _ in range(TRACE_REPEATS):
            untraced.append(self.job(cli_argv(self.args)).wall_s)
            inv, record = self.traced(self.args)
            traced.append(inv.wall_s)
            figures.append(layer_figures(record))
        for name in sorted(set().union(*figures)):
            layers[name] = statistics.median(f.get(name, 0) for f in figures)
        layers["trace.wall_s"] = statistics.median(traced)
        layers["trace.untraced_wall_s"] = statistics.median(untraced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        return layers


def metrics_for(detail: dict, trace: bool) -> dict[str, dict]:
    if trace:
        return {
            name: {"value": detail["layers"].get(name, 0), "unit": unit}
            for name, unit in PER_LAYER
        }
    return {name: {"value": detail["end_to_end"][name], "unit": unit} for name, unit in END_TO_END}


def report(detail: dict, trace: bool) -> None:
    print(
        f"{detail['workload']}: seed {detail['seed']}, D = {detail['D']}, "
        f"{' '.join(detail['argv'])}"
    )
    print(f"  why: {detail['why']}")
    print(
        f"  times scaled to the reference host speed; calibration loop median "
        f"{detail['calibration_median_s']:.4f} s against {REFERENCE_CALIBRATION_S} s"
    )
    e2e, raw = detail["end_to_end"], detail["end_to_end_unscaled"]
    for name, unit in END_TO_END:
        note = ""
        if name == "wall_s":
            note = f"  (median of {detail['samples']})"
        elif name == "wall_s_tail":
            note = f"  (p90 of {detail['samples']})"
        elif name == "setup_s":
            note = f"  (median of {detail['setup_runs']})"
        if name in raw:
            note += f"  unscaled {raw[name]:.4f} {unit}"
        print(f"  {name:<12} {e2e[name]:.4f} {unit}{note}")
    print(f"  {'error_rate':<12} {detail['error_rate']:.4f} failed/attempted")
    if trace:
        for name, value in detail["layers"].items():
            print(f"  {name:<36} {value:.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qcdensity" / "__init__.py").is_file():
        print(f"error: no qcdensity package under {SRC}", file=sys.stderr)
        return 2
    pins = load_pins()
    trace = bool(args.trace)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    results = []
    for name in names:
        result = Run(WORKLOADS[name], args.seed, pins).execute(args.seconds, trace)
        report(result["detail"], trace)
        print(json.dumps(result["detail"], sort_keys=True))
        results.append(result)

    if len(results) == 1:
        metrics = metrics_for(results[0]["detail"], trace)
    else:
        metrics = {
            f"{r['detail']['workload']}.{name}": value
            for r in results
            for name, value in metrics_for(r["detail"], trace).items()
        }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
