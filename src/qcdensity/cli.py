"""Command-line front end.

Subcommands: primes (prime counts, optionally per residue class), count
(one almost-prime count, residue- or sign-constrained), table (density
report over an x grid as CSV/JSON), residues (the B(eps) class sets),
solve (quadratic root count mod n), verify (self-check suites).

Output is deterministic: identical argv yields byte-identical output, and
JSON is always canonical (sorted keys, tight separators) so that parsing
and re-serializing reproduces the bytes. Exit codes: 0 success, 1 failed
checks or exceeded budget, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .almostprime import (
    CountMode,
    ResidueConstraint,
    _coverage_need,
    count_almost_primes,
)
from .density import (
    SignConstraint,
    count_sign_constrained,
    density_table,
    rows_to_csv,
    rows_to_json,
)
from .quadratic import QuadraticForm, count_roots_bruteforce
from .residues import residue_classes_direct
from .sieve import (
    _CLASS_MODULUS_LIMIT,
    _oracle_need,
    build_spf_table,
    load_spf_cache,
    prime_count,
    prime_count_in_class,
    save_spf_cache,
)
from .verify import SUITES, format_report, run_suite

_MODES = {
    "squarefree": CountMode.SQUAREFREE,
    "multiset": CountMode.WITH_MULTIPLICITY,
}

CACHE_ENV_VAR = "QCD_SPF_CACHE"


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _get_table(min_limit: int):
    """Build the SPF table, or reuse/refresh the cache named by
    QCD_SPF_CACHE when it is set."""
    limit = max(min_limit, 2)
    path = os.environ.get(CACHE_ENV_VAR)
    if path and os.path.exists(path):
        try:
            cached = load_spf_cache(path)
        except (OSError, ValueError) as exc:
            # unreadable (a directory, no permission) or corrupt: rebuilt
            print(f"warning: ignoring SPF cache {path}: {exc}", file=sys.stderr)
        else:
            if cached.limit >= limit:
                return cached
    try:
        table = build_spf_table(limit)
    except ValueError as exc:
        # over the entry budget: a runtime limit (exit 1), not a usage error
        sys.exit(f"error: {exc}")
    if path:
        try:
            save_spf_cache(table, path)
        except OSError as exc:
            print(f"warning: could not write SPF cache {path}: {exc}", file=sys.stderr)
    return table


def _table_need(x: int, k: int, oracle: bool, classes: bool) -> int:
    """The table limit a count at x needs: the prime-count oracle (sign and
    unconstrained counts) reads its primes up to isqrt(x), the residue
    classes its primes up to x / 2^(k-1). An oracle over its work budget is
    a runtime limit (exit 1), as an oversized table is in _get_table."""
    need = _coverage_need(x, k) if classes else 0
    if oracle:
        try:
            need = max(need, _oracle_need(x))
        except ValueError as exc:
            sys.exit(f"error: {exc}")
    return need


def _parse_classes(raw: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(","))
    except ValueError:
        parser.error(f"bad class list {raw!r}; expected comma-separated integers")
    if not values:
        parser.error("empty class list")
    return values


def _parse_eps(raw: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    signs = []
    for ch in raw:
        if ch == "+":
            signs.append(1)
        elif ch == "-":
            signs.append(-1)
        else:
            parser.error(f"bad --eps value {raw!r}; expected a string of + and -")
    if not signs:
        parser.error("empty --eps value")
    return tuple(signs)


def _check_modulus(modulus: int, parser: argparse.ArgumentParser) -> None:
    # checked before the table is acquired, so a bad --mod costs no sieve
    if not 1 <= modulus <= _CLASS_MODULUS_LIMIT:
        parser.error(f"--mod must be in 1..{_CLASS_MODULUS_LIMIT}")


def _cmd_primes(args, parser) -> int:
    if args.limit < 2:
        parser.error("--limit must be >= 2")
    if args.mod is not None:
        _check_modulus(args.mod, parser)
    elif args.classes is not None:
        parser.error("--classes requires --mod")
    table = _get_table(args.limit)
    if args.mod is None:
        total = prime_count(table, args.limit)
        if args.format == "json":
            _emit(_canonical_json({"count": total, "limit": args.limit}), args.out)
        else:
            _emit(f"{total}\n", args.out)
        return 0
    requested = (
        _parse_classes(args.classes, parser)
        if args.classes is not None
        else tuple(range(args.mod))
    )
    try:
        counts = [
            (a, prime_count_in_class(table, args.limit, a % args.mod, args.mod))
            for a in requested
        ]
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        payload = {
            "classes": [{"count": c, "residue": a} for a, c in counts],
            "limit": args.limit,
            "mod": args.mod,
        }
        _emit(_canonical_json(payload), args.out)
    elif len(counts) == 1:
        _emit(f"{counts[0][1]}\n", args.out)
    else:
        _emit("".join(f"{a},{c}\n" for a, c in counts), args.out)
    return 0


def _cmd_count(args, parser) -> int:
    if args.classes is not None and args.eps is not None:
        parser.error("--classes and --eps are mutually exclusive")
    if args.x < 1 or args.k < 1:
        parser.error("--x and --k must be >= 1")
    mode = _MODES[args.mode]
    if args.eps is not None:
        if args.disc is None:
            parser.error("--eps requires --disc")
        eps = _parse_eps(args.eps, parser)
    elif args.classes is not None:
        if args.mod is None:
            parser.error("--classes requires --mod")
        _check_modulus(args.mod, parser)
        residues = _parse_classes(args.classes, parser)
    elif args.mod is not None:
        parser.error("--mod requires --classes")
    classes = args.classes is not None
    need = _table_need(args.x, args.k, not classes, classes)
    table = _get_table(max(need, args.limit or 2))
    payload: dict = {"k": args.k, "mode": args.mode, "x": args.x}
    try:
        if args.eps is not None:
            constraint = SignConstraint(args.disc, eps)
            value = count_sign_constrained(table, args.x, args.k, constraint, mode)
            payload["disc"] = args.disc
            payload["eps"] = args.eps
        elif args.classes is not None:
            constraint = ResidueConstraint(args.mod, residues)
            value = count_almost_primes(table, args.x, args.k, constraint, mode)
            payload["classes"] = list(constraint.residues)
            payload["mod"] = args.mod
        else:
            value = count_almost_primes(table, args.x, args.k, None, mode)
    except ValueError as exc:
        parser.error(str(exc))
    payload["count"] = value
    if args.format == "json":
        _emit(_canonical_json(payload), args.out)
    else:
        _emit(f"{value}\n", args.out)
    return 0


def _cmd_table(args, parser) -> int:
    if args.disc is None:
        parser.error("table requires --disc")
    grid = _parse_classes(args.x, parser)
    if list(grid) != sorted(grid) or grid[0] < 1:
        parser.error("--x must be an ascending list of positive integers")
    if args.k < 1:
        parser.error("--k must be >= 1")
    need = _table_need(max(grid), args.k, True, args.cross_check)
    table = _get_table(max(need, args.limit or 2))
    start = time.monotonic()
    rows = []
    completed = 0
    for x in grid:
        if (
            args.budget_seconds is not None
            and completed > 0
            and time.monotonic() - start > args.budget_seconds
        ):
            break
        try:
            rows.extend(
                density_table(table, [x], args.k, args.disc, args.cross_check)
            )
        except ValueError as exc:
            parser.error(str(exc))
        completed += 1
    payload = rows_to_json(rows) if args.format == "json" else rows_to_csv(rows)
    _emit(payload, args.out)
    print(f"elapsed {time.monotonic() - start:.2f}s", file=sys.stderr)
    if completed < len(grid):
        print(
            f"budget exceeded after {completed}/{len(grid)} grid points",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_residues(args, parser) -> int:
    if args.disc is None:
        parser.error("residues requires --disc")
    eps = _parse_eps(args.eps, parser)
    if len(eps) != 1:
        parser.error("residues takes a single-sign --eps (+ or -)")
    try:
        rcs = residue_classes_direct(args.disc, eps[0])
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        payload = {
            "classes": list(rcs.classes),
            "disc": args.disc,
            "eps": "+" if eps[0] == 1 else "-",
            "modulus": rcs.modulus,
            "size": len(rcs.classes),
        }
        _emit(_canonical_json(payload), args.out)
    else:
        lines = [str(a) for a in rcs.classes]
        lines.append(f"Q={rcs.modulus} size={len(rcs.classes)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_solve(args, parser) -> int:
    try:
        form = QuadraticForm(args.b, args.c)
        roots = count_roots_bruteforce(form, args.n)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        payload = {"b": args.b, "c": args.c, "n": args.n, "roots": roots}
        _emit(_canonical_json(payload), args.out)
    else:
        _emit(f"{roots}\n", args.out)
    return 0


def _cmd_verify(args, parser) -> int:
    if args.x < 100:
        parser.error("--x must be >= 100")
    limit = max(args.limit or 10**5, args.x)
    table = _get_table(limit)
    start = time.monotonic()
    try:
        results = run_suite(table, args.suite, args.x)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        payload = {
            "checks": [
                {
                    "detail": r.detail,
                    "name": r.name,
                    "passed": r.passed,
                    "suite": r.suite,
                }
                for r in results
            ],
            "failed": sum(1 for r in results if not r.passed),
            "passed": sum(1 for r in results if r.passed),
        }
        _emit(_canonical_json(payload), args.out)
    else:
        _emit(format_report(results), args.out)
    print(f"elapsed {time.monotonic() - start:.2f}s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


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
    count.add_argument("--classes", help="residue multiset, e.g. 1,3")
    count.add_argument("--disc", type=int)
    count.add_argument("--eps", help="sign per position, e.g. +- (use --eps=+-)")
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
        return _HANDLERS[args.command](args, parser)
    except OSError as exc:
        # runtime I/O failure (e.g. --out into a missing directory), not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
