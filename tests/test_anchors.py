"""The committed exact sign anchors, tests/data/sign_anchors.json: every
entry recomputed in process, on the 10^5-entry table, by tools/anchors.py's
own function, and the file's own checks."""

import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("anchors", _ROOT / "tools" / "anchors.py")
anchors = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(anchors)


def _committed():
    return json.loads((_ROOT / "tests" / "data" / "sign_anchors.json").read_text())


def test_committed_anchors_pass_the_generator_s_checks():
    """Each x's sign rows add up to its sum row, the reference is the same
    for every D, and the k = 2 references are criterion 11's."""
    anchors.check(_committed())


def test_committed_boxes_add_up_to_the_odd_sign_counts(table):
    """The --cross-check boxes of each sign tuple, for D = 5 at 10^9, add up
    to its odd-n sign count on the sign oracle."""
    anchors.check_boxes(table, _committed())


def test_every_anchor_is_recomputed_exactly(table):
    """Every sign row, reference and sum, for each D, k and x, and every
    box equals the committed count: a fault that moves counts between sign
    rows, or between boxes, and keeps their sum fails here, where it passes
    criterion 11 and the box sums."""
    assert anchors.anchors(table) == _committed()
