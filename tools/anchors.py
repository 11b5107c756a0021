"""Print the exact sign-density anchors as canonical JSON: the sign rows,
the reference and the sum row of

    table --x 10^8,10^9,10^10 --k K --disc D

for D in 5, -4, 8, 13 and K in 2, 3, 4, keyed by D, then K, then x.

Usage, from anywhere:

    python3 tools/anchors.py > tests/data/sign_anchors.json

It runs this checkout's package (its src/ put first on the path) in
process, through density_table, the rows that `table` prints, on one SPF
table of isqrt(10^10) = 10^5 entries, the size the CLI builds for that
grid. Before it prints, it checks that each x's sign rows add up to its
sum row, that every D gives the same reference at each (K, x), and that the
K = 2 references equal the squarefree semiprime counts of criterion 11
(_SQUAREFREE_SEMIPRIMES, read from tests/test_acceptance.py).
tests/test_anchors.py recomputes every entry and compares it with the
committed file.
"""

from __future__ import annotations

import ast
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qcdensity import build_spf_table, density_table  # noqa: E402

GRID = (10**8, 10**9, 10**10)
DISCRIMINANTS = (5, -4, 8, 13)
KS = (2, 3, 4)


def anchors(table) -> dict:
    """{D: {K: {x: {row label: count, "reference": count}}}}, every key a
    string: the labels are the sign rows' eps=... and "sum"."""
    out: dict = {}
    for d in DISCRIMINANTS:
        for k in KS:
            by_x = out.setdefault(str(d), {}).setdefault(str(k), {})
            for row in density_table(table, list(GRID), k, d):
                entry = by_x.setdefault(str(row.x), {"reference": row.reference_count})
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


def main() -> int:
    data = anchors(build_spf_table(math.isqrt(max(GRID))))
    check(data)
    print(json.dumps(data, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
