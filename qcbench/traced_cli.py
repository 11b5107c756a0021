"""Run one qcdensity CLI invocation in this process with spans around the
calls into each module's public functions.

Usage: python3 qcbench/traced_cli.py SPANS_OUT -- CLI_ARGS...

The wrappers are installed from outside: every binding of a traced function
in a loaded qcdensity module is replaced, so calls made through
``from .x import f`` names are seen too. Spans (name, start, end, parent) and
counters stay in memory and are written to SPANS_OUT once, after the CLI
returns. Stdout is the CLI's own, so the caller checks it like an untraced
run. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute, span name); the function object found there is the one
# replaced everywhere it is bound.
SPANNED = (
    ("qcdensity.cli", "_get_table", "cli.get_table"),
    ("qcdensity.sieve", "build_spf_table", "sieve.build"),
    ("qcdensity.sieve", "load_spf_cache", "sieve.load"),
    ("qcdensity.sieve", "save_spf_cache", "sieve.save"),
    ("qcdensity.density", "density_table", "density.table"),
    ("qcdensity.density", "count_sign_constrained", "density.count_sign"),
    ("qcdensity.density", "rows_to_csv", "density.format"),
    ("qcdensity.density", "rows_to_json", "density.format"),
    ("qcdensity.almostprime", "count_almost_primes", "almostprime.count"),
    ("qcdensity.almostprime", "count_almost_primes_positional", "almostprime.positional"),
    ("qcdensity.verify", "check_orthogonality", "verify.orthogonality"),
    ("qcdensity.verify", "check_recursions", "verify.recursions"),
    ("qcdensity.verify", "check_residues", "verify.residues"),
    ("qcdensity.verify", "check_quadratic", "verify.quadratic"),
    ("qcdensity.verify", "check_sandwich", "verify.sandwich"),
)

# Called too often for a span each; these only count calls.
COUNTED = (
    ("qcdensity.arith", "kronecker", "arith.kronecker"),
    ("qcdensity.quadratic", "count_roots_bruteforce", "quadratic.bruteforce"),
)


class Recorder:
    """Spans as [name, start, end, parent index] plus named counters and facts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.facts: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def counted(self, name: str, fn):
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qcdensity" or mod_name.startswith("qcdensity."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(rec: Recorder) -> None:
    for mod_name, attr, name in SPANNED:
        original = getattr(sys.modules[mod_name], attr)
        _rebind(original, rec.spanned(name, original))
    for mod_name, attr, name in COUNTED:
        original = getattr(sys.modules[mod_name], attr)
        _rebind(original, rec.counted(name, original))

    sieve = sys.modules["qcdensity.sieve"]
    sieve.SpfTable.class_index = rec.spanned(
        "sieve.class_index", sieve.SpfTable.class_index
    )

    cli = sys.modules["qcdensity.cli"]
    get_table = cli._get_table

    def acquire(min_limit):
        table = get_table(min_limit)
        # computed from array sizes, not measured
        rec.facts["sieve.need"] = max(min_limit, 2)
        rec.facts["sieve.table_entries"] = int(table.spf.size)
        rec.facts["sieve.table_bytes"] = int(table.spf.nbytes + table.primes.nbytes)
        return table

    cli._get_table = acquire

    load = sieve.load_spf_cache

    def load_sized(path, *args, **kwargs):
        rec.facts["sieve.cache_file_bytes"] = os.path.getsize(path)
        return load(path, *args, **kwargs)

    _rebind(load, load_sized)

    verify = sys.modules["qcdensity.verify"]
    for suite in verify.SUITES:
        check = getattr(verify, f"check_{suite}")

        def check_counted(*args, _check=check, **kwargs):
            results = _check(*args, **kwargs)
            rec.facts["verify.checks"] = rec.facts.get("verify.checks", 0) + len(results)
            return results

        setattr(verify, f"check_{suite}", check_counted)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_OUT -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    rec = Recorder()
    idx = rec.open("cli.import")
    import qcdensity.cli

    rec.close(idx)
    install(rec)
    idx = rec.open("cli.main")
    try:
        code = qcdensity.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.close(idx)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "module_file": qcdensity.cli.__file__,
                "spans": rec.spans,
                "counts": rec.counts,
                "facts": rec.facts,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
