"""Sign-constrained squarefree counting, density rows, CSV/JSON output."""

import itertools
import json
import math
import sys

import numpy as np
import pytest

import qcdensity as q
from qcdensity import CountMode, SignConstraint, almostprime, arith, cli, density, sieve


def test_sign_constraint_basics():
    c = SignConstraint(5, (1, -1))
    assert c.k == 2
    assert c.label() == "eps=+-"
    assert SignConstraint(-1, (1,)).label() == "eps=+"


def test_sign_constraint_validation():
    with pytest.raises(ValueError):
        SignConstraint(9, (1,))  # perfect square
    with pytest.raises(ValueError):
        SignConstraint(5, (0,))
    with pytest.raises(ValueError):
        SignConstraint(5, ())
    with pytest.raises(ValueError):
        SignConstraint(2**63, (1,))


def _scan_signs(table, x, k, constraint, mode, odd_only=False):
    hits = 0
    for n in range(2, x + 1):
        if odd_only and n % 2 == 0:
            continue
        factors = q.factorize(table, n).factors
        if mode is CountMode.SQUAREFREE:
            if len(factors) != k or any(e > 1 for _, e in factors):
                continue
            slots = [p for p, _ in factors]
        else:
            if sum(e for _, e in factors) != k:
                continue
            slots = [p for p, e in factors for _ in range(e)]
        signs = tuple(q.kronecker(constraint.discriminant, p) for p in slots)
        hits += signs == constraint.epsilons
    return hits


@pytest.mark.parametrize("d", [5, -3, 13, -20, -1])
@pytest.mark.parametrize("k", [1, 2])
def test_count_matches_scan(table, d, k):
    for epsilons in itertools.product((1, -1), repeat=k):
        constraint = SignConstraint(d, epsilons)
        for x in (300, 500):
            expected = _scan_signs(table, x, k, constraint, CountMode.SQUAREFREE)
            assert q.count_sign_constrained(table, x, k, constraint) == expected


def test_count_matches_scan_k3(table):
    for epsilons in ((1, -1, -1), (-1, -1, -1)):
        constraint = SignConstraint(5, epsilons)
        expected = _scan_signs(table, 400, 3, constraint, CountMode.SQUAREFREE)
        assert q.count_sign_constrained(table, 400, 3, constraint) == expected


def test_count_with_multiplicity_matches_scan(table):
    for epsilons in itertools.product((1, -1), repeat=2):
        constraint = SignConstraint(5, epsilons)
        expected = _scan_signs(table, 400, 2, constraint, CountMode.WITH_MULTIPLICITY)
        got = q.count_sign_constrained(
            table, 400, 2, constraint, CountMode.WITH_MULTIPLICITY
        )
        assert got == expected, epsilons


def test_count_odd_only_matches_scan(table):
    for epsilons in itertools.product((1, -1), repeat=2):
        constraint = SignConstraint(5, epsilons)
        expected = _scan_signs(
            table, 500, 2, constraint, CountMode.SQUAREFREE, odd_only=True
        )
        got = q.count_sign_constrained(table, 500, 2, constraint, odd_only=True)
        assert got == expected, epsilons


@pytest.mark.parametrize("d", [45, -9, 18, 20])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_matches_scan_where_primes_divide_2d(small_table, d, k):
    """Primes dividing 2D, whose symbol is not read off their class mod Q:
    3 has even exponent in 45, -9 and 18 (a unit class mod Q, symbol 0),
    and D = 18, 20 are even ((D/2) = 0)."""
    for mode, odd_only in itertools.product(CountMode, (False, True)):
        for epsilons in itertools.product((1, -1), repeat=k):
            constraint = SignConstraint(d, epsilons)
            expected = _scan_signs(small_table, 1500, k, constraint, mode, odd_only)
            got = q.count_sign_constrained(
                small_table, 1500, k, constraint, mode, odd_only
            )
            assert got == expected, (mode, odd_only, epsilons)


def test_count_frozen_values(table):
    assert q.count_sign_constrained(table, 50, 1, SignConstraint(5, (1,))) == 5
    assert q.count_sign_constrained(table, 50, 1, SignConstraint(5, (-1,))) == 9
    counts = {
        eps: q.count_sign_constrained(table, 50, 2, SignConstraint(5, eps))
        for eps in itertools.product((1, -1), repeat=2)
    }
    assert counts == {(1, 1): 0, (1, -1): 0, (-1, 1): 3, (-1, -1): 7}
    # the three smallest primes with symbol +1 for D=5 are 11, 19, 29
    assert q.count_sign_constrained(table, 30, 1, SignConstraint(5, (1,))) == 3
    assert q.count_sign_constrained(table, 30, 1, SignConstraint(5, (-1,))) == 6


def test_sign_counts_include_the_prime_two(table):
    """For odd D the prime 2 carries its own symbol value; D = -1 gives +1."""
    plus = q.count_sign_constrained(table, 30, 1, SignConstraint(-1, (1,)))
    minus = q.count_sign_constrained(table, 30, 1, SignConstraint(-1, (-1,)))
    assert plus == 5  # 2, 5, 13, 17, 29
    assert minus == 5  # 3, 7, 11, 19, 23
    assert plus + minus == q.prime_count(table, 30)


def test_count_requires_prime_coverage(table):
    """A sign count at x needs the primes up to isqrt(x), no further."""
    x, plus = 10**5, SignConstraint(5, (1,))
    for limit in (100, math.isqrt(x) - 1):
        with pytest.raises(ValueError):
            q.count_sign_constrained(q.build_spf_table(limit), x, 1, plus)
    short = q.build_spf_table(math.isqrt(x))
    assert q.count_sign_constrained(
        short, x, 1, plus
    ) == q.count_sign_constrained(table, x, 1, plus)


@pytest.mark.parametrize("odd_only", [False, True])
def test_sign_oracle_matches_class_counts(table, odd_only):
    """The sign oracle for D = 5 counts, over any ranges of bounds in
    {x // m}, the primes of the classes B(+) or B(-) mod 20, plus the prime
    2 with its own symbol (5/2) = -1 unless odd_only drops it."""
    d, x = 5, 10**5
    oracle = density._sign_oracle(table, x, d, odd_only)
    bounds = np.array(sorted({x // m for m in range(1, x + 1)}), dtype=np.int64)
    for eps in (1, -1):
        rcs = q.residue_classes_direct(d, eps)
        # the table's primes in the classes B(eps)
        in_b = table.primes[np.isin(table.primes % rcs.modulus, rcs.classes)]
        for lo in bounds[bounds <= math.isqrt(x)]:
            hi = bounds[bounds >= lo]
            lo_a = np.full_like(hi, lo)
            upto_hi = np.searchsorted(in_b, hi, side="right")
            expected = int((upto_hi - np.searchsorted(in_b, lo_a, side="right")).sum())
            if eps == -1 and not odd_only and lo < 2:
                expected += int((hi >= 2).sum())
            got = oracle.count_ranges(lo_a, hi)[oracle.columns[eps]]
            assert got == expected, (eps, lo)


@pytest.mark.parametrize("odd_only", [False, True])
@pytest.mark.parametrize("d", [5, 45, -20, 18, -1])
def test_sign_oracle_counts_the_sign_labels(d, odd_only):
    """At every bound v in {x // m}, the sign oracle counts the primes up to
    v that _sign labels eps, for odd and even D, a non-fundamental D and
    D = -1; and building it leaves the shared prime-count grid as it was."""
    x = 10**5
    table = q.build_spf_table(x)
    pi = sieve._prime_count_grid(table, x)
    before = pi.copy()
    oracle = density._sign_oracle(table, x, d, odd_only)
    assert sieve._prime_count_grid(table, x) is pi
    assert np.array_equal(pi, before)
    bounds = np.array(sorted({x // m for m in range(1, x + 1)}), dtype=np.int64)
    primes = table.primes
    labels = np.array([density._sign(d, p, odd_only) for p in primes.tolist()])
    one = np.ones(1, dtype=np.int64)
    for eps in (1, -1):
        upto = np.searchsorted(primes[labels == eps], bounds, side="right")
        for v, expected in zip(bounds.tolist(), upto.tolist()):
            got = oracle.count_ranges(one, v * one)[oracle.columns[eps]]
            assert got == expected, (eps, v)


def test_positional_reduction_to_residue_boxes(table):
    """Sign tuples reduce to sums over per-position residue classes, exactly."""
    x, k = 10**4, 2
    for d in (5, -3):
        period = q.kronecker_period(d)
        for epsilons in itertools.product((1, -1), repeat=k):
            classes = [q.residue_classes_direct(d, e).classes for e in epsilons]
            box_sum = sum(
                q.count_almost_primes_positional(table, x, k, combo, period)
                for combo in itertools.product(*classes)
            )
            direct = q.count_sign_constrained(
                table, x, k, SignConstraint(d, epsilons), odd_only=True
            )
            assert direct == box_sum, (d, epsilons)


def test_empirical_density_row(table):
    row = q.empirical_sign_density(table, 30, 1, SignConstraint(-1, (1,)))
    assert row.x == 30 and row.k == 1 and row.discriminant == -1
    assert row.constraint == "eps=+"
    assert row.exact_count == 5
    assert row.reference_count == 10
    assert row.empirical_density == 0.5
    assert row.predicted_density == 0.5
    assert row.asymptotic_value == pytest.approx(q.landau_asymptotic(30, 1) / 2)


def test_empirical_density_empty_reference(table):
    row = q.empirical_sign_density(table, 4, 2, SignConstraint(5, (1, 1)))
    assert row.exact_count == 0
    assert row.reference_count == 0
    assert row.empirical_density is None
    assert row.asymptotic_value is None
    assert row.predicted_density == 0.25


def test_landau_frozen_values():
    assert q.landau_asymptotic(10**6, 1) == pytest.approx(72382.41365054197, rel=1e-12)
    assert q.landau_asymptotic(10**6, 2) == pytest.approx(190061.15651385117, rel=1e-12)
    assert q.class_constrained_asymptotic(10**6, 2, 4) == pytest.approx(
        47515.28912846279, rel=1e-12
    )
    assert q.class_constrained_asymptotic(10**6, 2, 5) == pytest.approx(
        11878.822282115698, rel=1e-12
    )


def test_landau_domain():
    q.landau_asymptotic(16, 1)
    with pytest.raises(ValueError):
        q.landau_asymptotic(15, 1)
    with pytest.raises(ValueError):
        q.landau_asymptotic(100, 0)


def test_trend_ratios_reported(table):
    ratios = q.trend_ratios(table, 1000, 2, q.ResidueConstraint(4, (1, 3)))
    assert ratios == pytest.approx((0.6001778951080886, 0.4490244205692116), rel=1e-9)


def test_density_table_layout(table):
    rows = q.density_table(table, [50, 100], 2, 5)
    labels = [r.constraint for r in rows]
    assert labels == ["eps=++", "eps=+-", "eps=-+", "eps=--", "sum"] * 2
    assert [r.x for r in rows] == [50] * 5 + [100] * 5
    for block_start in (0, 5):
        block = rows[block_start : block_start + 5]
        assert block[4].exact_count == sum(r.exact_count for r in block[:4])
        assert block[4].predicted_density == 1.0


def test_density_table_requires_ascending_grid(table):
    with pytest.raises(ValueError):
        q.density_table(table, [100, 50], 1, 5)
    with pytest.raises(ValueError):
        q.density_table(table, [], 1, 5)


def test_density_table_cross_check_blocks(table):
    rows = q.density_table(table, [500], 2, 5, cross_check=True)
    # per sign row: one box row for each pair in B(e1) x B(e2)
    assert len(rows) == 1 + 4 * (1 + 16)
    eps_rows = [r for r in rows if r.constraint.startswith("eps=")]
    assert len(eps_rows) == 4
    current = None
    box_totals = {}
    for row in rows:
        if row.constraint.startswith("eps="):
            current = row.constraint
            box_totals[current] = 0
        elif row.constraint.startswith("m="):
            assert row.constraint.endswith("mod 20")
            assert row.predicted_density == pytest.approx(1 / 64)
            box_totals[current] += row.exact_count
    for eps_row in eps_rows:
        signs = tuple(1 if ch == "+" else -1 for ch in eps_row.constraint[4:])
        odd_count = q.count_sign_constrained(
            table, 500, 2, SignConstraint(5, signs), odd_only=True
        )
        assert box_totals[eps_row.constraint] == odd_count


class _WalkLog(dict):
    """A table memo that notes the (x, k, strict) of every tuple walk it
    stores; the memo stores each walk as it is made."""

    def __init__(self):
        super().__init__()
        self.walks = []

    def __setitem__(self, key, value):
        if key[0] is almostprime._tuple_rows.__wrapped__:
            self.walks.append(key[1])
        super().__setitem__(key, value)


def _walks(job) -> list:
    """The walks job makes, as the memo stores them. A profile hook notes
    the (x, k, strict) of every run of the walk's code, so a walk made
    outside the memo shows up as one run too many."""
    table = q.build_spf_table(10**5)
    table.memo = log = _WalkLog()
    walk = almostprime._tuple_rows.__wrapped__.__code__
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is walk:
            runs.append(tuple(frame.f_locals[name] for name in ("x", "k", "strict")))

    sys.setprofile(profile)
    try:
        job(table)
    finally:
        sys.setprofile(None)
    assert runs == log.walks
    return log.walks


@pytest.mark.parametrize("cross_check", [False, True])
def test_density_table_walks_each_x_once(cross_check):
    """The sign rows, the reference and every cross-check row at one x read
    one walk."""
    walks = _walks(lambda t: q.density_table(t, [10**4, 10**5], 3, 5, cross_check))
    assert walks == [(10**4, 3, True), (10**5, 3, True)]


def test_verify_walks_no_tuples_twice():
    walks = _walks(lambda t: q.run_suite(t, "all", 10**4))
    assert walks
    assert len(walks) == len(set(walks))


def test_table_factors_the_discriminant_once(monkeypatch, capsys):
    """Every sign constraint, period and oracle of a table reads D's one
    factorization. A profile hook notes each run of the factoring code."""
    monkeypatch.delenv("QCD_SPF_CACHE", raising=False)
    d = 2 * 499979**2
    factorize = arith._trial_factorize
    body = getattr(factorize, "__wrapped__", factorize).__code__
    getattr(factorize, "cache_clear", lambda: None)()
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is body:
            runs.append(frame.f_locals["n"])

    sys.setprofile(profile)
    try:
        code = cli.main(["table", "--x", "1000,10000", "--k", "3", "--disc", str(d)])
    finally:
        sys.setprofile(None)
    assert code == 0
    assert capsys.readouterr().out.count("\n") == 1 + 2 * 9
    assert runs.count(d) == 1


def test_density_table_drops_each_x_from_the_memo():
    """Once an x's rows are made, its oracles, walks and counts are freed:
    the class oracles of a cross-check too, so nothing stays."""
    for cross_check in (False, True):
        table = q.build_spf_table(10**5)
        q.density_table(table, [10**4, 10**5], 3, 5, cross_check)
        assert table.memo == {}, cross_check


def test_csv_output(table):
    rows = q.density_table(table, [50], 2, 5)
    text = q.rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "x,k,D,constraint,count,reference,empirical,predicted,asymptotic"
    assert lines[1] == "50,2,5,eps=++,0,13,0,0.25,4.35853"
    assert lines[4] == "50,2,5,eps=--,7,13,0.538462,0.25,4.35853"
    assert lines[5] == "50,2,5,sum,10,13,0.769231,1,17.4341"
    assert text.endswith("\n")


def test_csv_rows_always_have_nine_fields(table):
    # cross-check labels must not smuggle extra commas into the schema
    rows = q.density_table(table, [200], 2, 5, cross_check=True)
    for line in q.rows_to_csv(rows).splitlines():
        assert line.count(",") == 8, line


def test_csv_renders_missing_values_as_empty(table):
    rows = [q.empirical_sign_density(table, 4, 2, SignConstraint(5, (1, 1)))]
    line = q.rows_to_csv(rows).splitlines()[1]
    assert line == "4,2,5,eps=++,0,0,,0.25,"


def test_json_output_is_canonical(table):
    rows = q.density_table(table, [50], 1, 5)
    text = q.rows_to_json(rows)
    assert not text.endswith("\n")
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, separators=(",", ":"))
    assert parsed[0]["constraint"] == "eps=+"
    assert parsed[0]["count"] == 5
    assert set(parsed[0]) == {
        "x", "k", "D", "constraint", "count",
        "reference", "empirical", "predicted", "asymptotic",
    }


def test_density_partition_identity(table):
    """The 2^k sign counts partition the squarefree k-almost-primes coprime to D."""
    x, k, d = 2000, 2, 5
    total = sum(
        q.count_sign_constrained(table, x, k, SignConstraint(d, eps))
        for eps in itertools.product((1, -1), repeat=k)
    )
    everything = q.count_almost_primes(table, x, k, q.ResidueConstraint(1, (1, 1)))
    fives = q.prime_count(table, x // 5) - 1
    assert total == everything - fives
