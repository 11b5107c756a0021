"""Command-line front end.

Subcommands: primes (prime counts, optionally per residue class), count
(one almost-prime count, residue- or sign-constrained), table (density
report over an x grid as CSV/JSON), residues (the B(eps) class sets),
solve (quadratic root count mod n), verify (self-check suites).

Every subcommand works in one order: it checks its arguments (argparse
checks presence and exclusivity, the library's own constructors such as
SignConstraint, ResidueConstraint and residues._enumerable_period check
values), then acquires the prime table with _get_table, computes, and hands
a (payload, text) pair to _render. So a usage error is reported before any
table is built or cached. main is the one place where a refusal becomes an
exit code: a sieve.BudgetError, from a budget check in the library or here,
exits 1, and any other ValueError, raised by an argument check or by the
library, is a usage error.

Output is deterministic: identical argv yields byte-identical output, and
JSON is always canonical (sorted keys, tight separators) so that parsing
and re-serializing reproduces the bytes. Exit codes: 0 success, 1 failed
checks or exceeded budget, 2 usage errors.

The CLI process runs OpenBLAS on one thread: OPENBLAS_NUM_THREADS is set to 1
before numpy is imported, unless the environment already sets it.

run is the process entry (python -m qcdensity, the console script, and this
module run as a script). Once the package is imported it calls gc.freeze(),
so the collections the interpreter runs at shutdown, and any full collection
during the run, skip numpy's and the package's objects, which live as long
as the process anyway; then it exits with main's code. main itself never
freezes, so a process that calls it in-process (the tests) pins no objects.
"""

from __future__ import annotations

import os
import sys
import time

# Set before the package imports below load numpy: an OpenBLAS thread pool started
# at import busy-waits for CPU the single-threaded CLI never uses. A value the
# caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .almostprime import CountMode, ResidueConstraint, count_almost_primes
from .arith import euler_phi
from .density import (
    SignConstraint,
    _density_rows,
    count_sign_constrained,
    rows_to_csv,
    rows_to_json,
)
from .quadratic import QuadraticForm, count_roots_bruteforce
from .residues import _enumerable_period, residue_classes_direct
from .sieve import (
    BudgetError,
    _check_class_modulus,
    _oracle_need,
    build_spf_table,
    load_spf_cache,
    prime_count,
    prime_count_in_class,
    save_spf_cache,
    spf_cache_limit,
)
from .verify import RESIDUE_PRIME_LIMIT, SUITES, format_report, run_suite

# After the package, and so after numpy: loaded first, these modules raise the
# peak RSS of numpy's import.
import argparse
import gc
import json
from dataclasses import asdict

_MODES = {
    "squarefree": CountMode.SQUAREFREE,
    "multiset": CountMode.WITH_MULTIPLICITY,
}

_SIGNS = {"+": 1, "-": -1}

CACHE_ENV_VAR = "QCD_SPF_CACHE"

# table holds every row in memory before it writes any: about 580 bytes a
# row (with CPython 3.11, 800000 rows peaked 330 MiB above 200000), so this
# many rows is about 290 MB
_TABLE_ROW_BUDGET = 5 * 10**5


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(args, payload, text: str) -> None:
    """Write payload as canonical JSON under --format json, text otherwise."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    _emit(text, args.out)


def _get_table(min_limit: int):
    """The SPF table to max(min_limit, 2): built, or, when QCD_SPF_CACHE
    names a cache, loaded from it. A load reads and checks only the entries
    up to that limit, however large the file. A cache that is unreadable,
    corrupt or shorter than the limit is rebuilt and overwritten; a shorter
    one is told by its header, and none of its entries is read."""
    limit = max(min_limit, 2)
    path = os.environ.get(CACHE_ENV_VAR)
    if path and os.path.exists(path):
        try:
            if spf_cache_limit(path) >= limit:
                return load_spf_cache(path, limit=limit)
        except (OSError, ValueError) as exc:
            # unreadable (a directory, no permission) or corrupt: rebuilt
            print(f"warning: ignoring SPF cache {path}: {exc}", file=sys.stderr)
    table = build_spf_table(limit)
    if path:
        try:
            save_spf_cache(table, path)
        except OSError as exc:
            print(f"warning: could not write SPF cache {path}: {exc}", file=sys.stderr)
    return table


def _parse_ints(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ValueError(
            f"bad list {raw!r}; expected comma-separated integers"
        ) from None


def _parse_eps(raw: str) -> tuple[int, ...]:
    try:
        return tuple(_SIGNS[ch] for ch in raw)
    except KeyError:
        raise ValueError(
            f"bad --eps value {raw!r}; expected a string of + and -"
        ) from None


def _cmd_primes(args) -> int:
    if args.limit < 2:
        raise ValueError("--limit must be >= 2")
    if args.mod is not None:
        _check_class_modulus(args.mod, "--mod")
        requested = (
            _parse_ints(args.classes)
            if args.classes is not None
            else tuple(range(args.mod))
        )
    elif args.classes is not None:
        raise ValueError("--classes requires --mod")
    table = _get_table(args.limit)
    if args.mod is None:
        total = prime_count(table, args.limit)
        _render(args, {"count": total, "limit": args.limit}, f"{total}\n")
        return 0
    counts = [
        (a, prime_count_in_class(table, args.limit, a % args.mod, args.mod))
        for a in requested
    ]
    payload = {
        "classes": [{"count": c, "residue": a} for a, c in counts],
        "limit": args.limit,
        "mod": args.mod,
    }
    if len(counts) == 1:
        text = f"{counts[0][1]}\n"
    else:
        text = "".join(f"{a},{c}\n" for a, c in counts)
    _render(args, payload, text)
    return 0


def _cmd_count(args) -> int:
    if args.x < 1 or args.k < 1:
        raise ValueError("--x and --k must be >= 1")
    payload: dict = {"k": args.k, "mode": args.mode, "x": args.x}
    constraint = None
    # a constraint option comes with its partner, and neither is ignored
    pairs = (("eps", "disc"), ("disc", "eps"), ("classes", "mod"), ("mod", "classes"))
    for option, partner in pairs:
        if getattr(args, option) is not None and getattr(args, partner) is None:
            raise ValueError(f"--{option} requires --{partner}")
    if args.eps is not None:
        constraint = SignConstraint(args.disc, _parse_eps(args.eps))
        _enumerable_period(args.disc)
        payload.update(disc=args.disc, eps=args.eps)
    elif args.classes is not None:
        # a usage error here, not _oracle_need's budget error (exit 1)
        _check_class_modulus(args.mod, "--mod")
        constraint = ResidueConstraint(args.mod, _parse_ints(args.classes))
        payload.update(classes=list(constraint.residues), mod=args.mod)
    if constraint is not None and constraint.k != args.k:
        raise ValueError(f"--k {args.k} does not match the constraint's {constraint.k}")
    need = _oracle_need(args.x, args.mod)
    table = _get_table(max(need, args.limit or 2))
    mode = _MODES[args.mode]
    if args.eps is not None:
        value = count_sign_constrained(table, args.x, args.k, constraint, mode)
    else:
        value = count_almost_primes(table, args.x, args.k, constraint, mode)
    payload["count"] = value
    _render(args, payload, f"{value}\n")
    return 0


def _cmd_table(args) -> int:
    grid = _parse_ints(args.x)
    if list(grid) != sorted(grid) or grid[0] < 1:
        raise ValueError("--x must be an ascending list of positive integers")
    if args.k < 1:
        raise ValueError("--k must be >= 1")
    period = _enumerable_period(args.disc)
    if args.cross_check:
        # the residue-class rows count the primes mod the period Q of D
        _check_class_modulus(period, f"under --cross-check, the period Q = {period}")
    need = _oracle_need(max(grid), period if args.cross_check else None)
    # per x, 2^k sign rows, a sum row and, under --cross-check, phi(Q)^k
    # residue-class rows; 2^k alone is over the budget from this k on, so
    # no larger k makes a larger integer
    k = min(args.k, _TABLE_ROW_BUDGET.bit_length())
    boxes = euler_phi(period) ** k if args.cross_check else 0
    rows = len(grid) * (2**k + 1 + boxes)
    if rows > _TABLE_ROW_BUDGET:
        what = f"--cross-check at {len(grid)} x values mod {period}"
        if not args.cross_check:
            what = f"table at {len(grid)} x values with k = {args.k}"
        raise BudgetError(
            f"{what} needs at least {rows} rows, which exceeds the"
            f" budget of {_TABLE_ROW_BUDGET}"
        )
    table = _get_table(max(need, args.limit or 2))
    start = time.monotonic()
    rows = []
    completed = 0
    # one setup for the whole grid; the budget is checked between points
    for x_rows in _density_rows(table, grid, args.k, args.disc, args.cross_check):
        rows.extend(x_rows)
        completed += 1
        if (
            args.budget_seconds is not None
            and completed < len(grid)
            and time.monotonic() - start > args.budget_seconds
        ):
            break
    text = rows_to_json(rows) if args.format == "json" else rows_to_csv(rows)
    _emit(text, args.out)
    print(f"elapsed {time.monotonic() - start:.2f}s", file=sys.stderr)
    if completed < len(grid):
        print(
            f"budget exceeded after {completed}/{len(grid)} grid points",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_residues(args) -> int:
    eps = _parse_eps(args.eps)
    if len(eps) != 1:
        raise ValueError("residues takes a single-sign --eps (+ or -)")
    rcs = residue_classes_direct(args.disc, eps[0])
    payload = {
        "classes": list(rcs.classes),
        "disc": args.disc,
        "eps": args.eps,
        "modulus": rcs.modulus,
        "size": len(rcs.classes),
    }
    lines = [str(a) for a in rcs.classes]
    lines.append(f"Q={rcs.modulus} size={len(rcs.classes)}")
    _render(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_solve(args) -> int:
    form = QuadraticForm(args.b, args.c)
    roots = count_roots_bruteforce(form, args.n)
    payload = {"b": args.b, "c": args.c, "n": args.n, "roots": roots}
    _render(args, payload, f"{roots}\n")
    return 0


def _cmd_verify(args) -> int:
    if args.x < 100:
        raise ValueError("--x must be >= 100")
    # --limit raises the table, never lowers it below what the suites read;
    # each suite's grid stops below RESIDUE_PRIME_LIMIT, whatever --x is
    table = _get_table(max(args.limit or 2, RESIDUE_PRIME_LIMIT))
    start = time.monotonic()
    results = run_suite(table, args.suite, args.x)
    passed = sum(r.passed for r in results)
    payload = {
        "checks": [asdict(r) for r in results],
        "failed": len(results) - passed,
        "passed": passed,
    }
    _render(args, payload, format_report(results))
    print(f"elapsed {time.monotonic() - start:.2f}s", file=sys.stderr)
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcdensity",
        description="Almost-prime counts constrained by residue classes or "
        "Kronecker-symbol signs, with verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for interface stability; execution is single-threaded",
        )

    primes = sub.add_parser("primes", help="count primes, optionally per class")
    primes.add_argument("--limit", type=int, required=True)
    primes.add_argument("--mod", type=int)
    primes.add_argument("--classes", help="comma-separated residues")
    add_common(primes)

    count = sub.add_parser("count", help="one constrained almost-prime count")
    count.add_argument("--x", type=int, required=True)
    count.add_argument("--k", type=int, required=True)
    count.add_argument("--mod", type=int)
    count.add_argument("--disc", type=int)
    constraint = count.add_mutually_exclusive_group()
    constraint.add_argument("--classes", help="residue multiset, e.g. 1,3")
    constraint.add_argument("--eps", help="sign per position, e.g. +- (use --eps=+-)")
    count.add_argument("--mode", choices=sorted(_MODES), default="squarefree")
    count.add_argument("--limit", type=int, help="minimum prime-table limit")
    add_common(count)

    table = sub.add_parser("table", help="density report over an x grid")
    table.add_argument("--x", required=True, help="ascending grid, e.g. 1000,10000")
    table.add_argument("--k", type=int, required=True)
    table.add_argument("--disc", type=int, required=True)
    table.add_argument(
        "--cross-check",
        action="store_true",
        help="append per-residue-class rows under each sign row",
    )
    table.add_argument("--limit", type=int, help="minimum prime-table limit")
    table.add_argument("--budget-seconds", type=float)
    add_common(table)

    residues = sub.add_parser("residues", help="print a B(eps) class set")
    residues.add_argument("--disc", type=int, required=True)
    residues.add_argument("--eps", default="+", help="+ or - (use --eps=-)")
    add_common(residues)

    solve = sub.add_parser("solve", help="count roots of x^2+bx+c mod n")
    solve.add_argument("--b", type=int, required=True)
    solve.add_argument("--c", type=int, required=True)
    solve.add_argument("--n", type=int, required=True)
    add_common(solve)

    verify = sub.add_parser("verify", help="run self-check suites")
    verify.add_argument("--suite", choices=SUITES + ("all",), default="all")
    verify.add_argument("--x", type=int, default=2000, help="scale cap for the grids")
    verify.add_argument("--limit", type=int, help="minimum prime-table limit")
    add_common(verify)

    return parser


_HANDLERS = {
    "primes": _cmd_primes,
    "count": _cmd_count,
    "table": _cmd_table,
    "residues": _cmd_residues,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "eps", None) == []:
        # argparse before 3.13 eats a bare "--" passed as --eps=--
        args.eps = "--"
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        return _HANDLERS[args.command](args)
    except (BudgetError, OSError) as exc:
        # a runtime limit: a request over a budget, or an I/O failure (e.g.
        # --out into a missing directory), not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # an argument check or the library refused a value
        parser.error(str(exc))


def run() -> None:
    """The process entry: freeze the objects loaded so far, then exit with
    main's code."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
