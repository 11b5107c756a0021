"""Print the exact sign-density anchors as canonical JSON: the sign rows,
the reference and the sum row of

    table --x 10^8,10^9,10^10 --k K --disc D

for D in 5, -4, 8, 13 and K in 2, 3, 4, keyed by D, then K, then x; and,
in the D = 5 entries at 10^9 for K = 2 and 3, the residue-class box rows
(m=... mod 20, the period of 5) of

    table --x 10^9 --k K --disc 5 --cross-check

Usage, from anywhere:

    python3 tools/anchors.py > tests/data/sign_anchors.json

It runs this checkout's package (its src/ put first on the path) in
process, through density_table, the rows that `table` prints, on one SPF
table of isqrt(10^10) = 10^5 entries, the size the CLI builds for that
grid. Before it prints, it checks that each x's sign rows add up to its
sum row, that every D gives the same reference at each (K, x), and that the
K = 2 references equal the squarefree semiprime counts of criterion 11
(_SQUAREFREE_SEMIPRIMES, read from tests/test_acceptance.py); and, on the
same table, that the boxes of each sign tuple add up to its odd-n sign
count (count_sign_constrained with odd_only), a count on another oracle.
tests/test_anchors.py recomputes every entry and compares it with the
committed file.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qcdensity import (  # noqa: E402
    SignConstraint,
    build_spf_table,
    count_sign_constrained,
    density_table,
    residue_classes_direct,
)

GRID = (10**8, 10**9, 10**10)
DISCRIMINANTS = (5, -4, 8, 13)
KS = (2, 3, 4)
# the --cross-check boxes: D, the K they are taken at, and their one x (at
# 10^10 they would cost about 1 s a K more)
BOX_D, BOX_KS, BOX_X = 5, (2, 3), 10**9


def anchors(table) -> dict:
    """{D: {K: {x: {row label: count, "reference": count}}}}, every key a
    string: the labels are the sign rows' eps=..., "sum" and, at BOX_X, the
    boxes' m=... mod Q."""
    out: dict = {}
    for d in DISCRIMINANTS:
        for k in KS:
            by_x = out.setdefault(str(d), {}).setdefault(str(k), {})
            for x in GRID:
                boxes = (d, x) == (BOX_D, BOX_X) and k in BOX_KS
                entry = by_x[str(x)] = {}
                for row in density_table(table, [x], k, d, cross_check=boxes):
                    entry["reference"] = row.reference_count
                    entry[row.constraint] = row.exact_count
    return out


def _squarefree_semiprimes() -> dict:
    """Criterion 11's {x: squarefree semiprimes up to x}, evaluated from its
    assignment in tests/test_acceptance.py, with no names in scope."""
    module = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    (value,) = [
        node.value
        for node in module.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["_SQUAREFREE_SEMIPRIMES"]
    ]
    return eval(compile(ast.Expression(value), "<test_acceptance>", "eval"), {})


def check(data: dict) -> None:
    """Raise ValueError unless each x's 2^K sign rows add up to its sum row,
    every D gives the same reference at each (K, x), and the K = 2
    references for D = 5 are criterion 11's."""
    for d, by_k in data.items():
        for k, by_x in by_k.items():
            for x, entry in by_x.items():
                signs = [n for label, n in entry.items() if label.startswith("eps=")]
                if len(signs) != 2 ** int(k) or sum(signs) != entry["sum"]:
                    raise ValueError(f"D={d} K={k} x={x}: sign rows do not add up")
    for k in map(str, KS):
        for x in map(str, GRID):
            if len({data[str(d)][k][x]["reference"] for d in DISCRIMINANTS}) != 1:
                raise ValueError(f"K={k} x={x}: the references differ between D")
    references = {int(x): entry["reference"] for x, entry in data["5"]["2"].items()}
    if references != _squarefree_semiprimes():
        raise ValueError(f"K=2 references {references} are not criterion 11's")


def check_boxes(table, data: dict) -> None:
    """Raise ValueError unless, at BOX_X for each of BOX_KS, each sign
    tuple eps has one box per tuple of classes in B(eps_1) x ... x B(eps_K)
    (residue_classes_direct), and its boxes add up to its odd-n sign count,
    counted on table."""
    classes = {eps: residue_classes_direct(BOX_D, eps).classes for eps in (1, -1)}
    sign_of = {a: eps for eps, members in classes.items() for a in members}
    for k in BOX_KS:
        boxes: dict = {}
        for label, n in data[str(BOX_D)][str(k)][str(BOX_X)].items():
            if label.startswith("m="):
                combo = label.removeprefix("m=").split()[0].split(";")
                boxes.setdefault(tuple(sign_of[int(a)] for a in combo), []).append(n)
        for eps in itertools.product((1, -1), repeat=k):
            odd = count_sign_constrained(
                table, BOX_X, k, SignConstraint(BOX_D, eps), odd_only=True
            )
            counts = boxes.pop(eps, [])
            if len(counts) != math.prod(len(classes[e]) for e in eps):
                raise ValueError(f"K={k} eps={eps}: {len(counts)} boxes")
            if sum(counts) != odd:
                raise ValueError(f"K={k} eps={eps}: the boxes do not add up to {odd}")
        if boxes:
            raise ValueError(f"K={k}: boxes of sign tuples {sorted(boxes)}")


def main() -> int:
    table = build_spf_table(math.isqrt(max(GRID)))
    data = anchors(table)
    check(data)
    check_boxes(table, data)
    print(json.dumps(data, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
