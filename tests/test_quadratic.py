"""Root counting for x^2 + bx + c over squarefree odd moduli."""

import math

import pytest
from hypothesis import given, settings, strategies as st

import qcdensity as q
from qcdensity import FactoredInteger, QuadraticForm
from qcdensity import quadratic
from qcdensity.quadratic import _root_count_grid, _root_counts

FORMS = (
    QuadraticForm(1, -1),
    QuadraticForm(1, 1),
    QuadraticForm(1, -3),
    QuadraticForm(0, 5),
    QuadraticForm(1, -5),
    QuadraticForm(1, 2),
)


def _factor(n):
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_discriminants():
    assert [f.discriminant for f in FORMS] == [5, -3, 13, -20, 21, -7]
    assert QuadraticForm(0, -5).discriminant == 20


def test_bruteforce_frozen_values():
    form = QuadraticForm(0, -5)
    assert q.count_roots_bruteforce(form, 11) == 2
    assert q.count_roots_bruteforce(form, 19) == 2
    assert q.count_roots_bruteforce(form, 209) == 4
    assert q.count_roots_bruteforce(form, 3) == 0
    assert q.count_roots_bruteforce(form, 1) == 1


def test_bruteforce_counts_by_enumeration():
    form = QuadraticForm(1, -5)
    for n in (3, 7, 11, 15, 21):
        expected = sum(1 for x in range(n) if (x * x + x - 5) % n == 0)
        assert q.count_roots_bruteforce(form, n) == expected


@pytest.mark.parametrize("form", FORMS, ids=lambda f: f"D={f.discriminant}")
def test_formula_matches_bruteforce(form):
    d = form.discriminant
    for n in range(1, 401, 2):
        factors = _factor(n)
        if any(e > 1 for _, e in factors) or math.gcd(n, d) != 1:
            continue
        fact = FactoredInteger(n, factors)
        assert q.count_roots_formula(form, fact) == q.count_roots_bruteforce(form, n), n


def test_formula_is_one_plus_kronecker_per_prime():
    form = QuadraticForm(0, -5)
    for p in (3, 7, 11, 13, 19, 23, 29):
        expected = 1 + q.kronecker(20, p)
        assert q.count_roots_formula(form, FactoredInteger(p, ((p, 1),))) == expected


def test_formula_multiplicative():
    form = QuadraticForm(0, -5)
    n11 = FactoredInteger(11, ((11, 1),))
    n19 = FactoredInteger(19, ((19, 1),))
    n209 = FactoredInteger(209, ((11, 1), (19, 1)))
    assert (
        q.count_roots_formula(form, n209)
        == q.count_roots_formula(form, n11) * q.count_roots_formula(form, n19)
    )


def test_formula_domain_checks(small_table):
    form = QuadraticForm(0, -5)
    with pytest.raises(ValueError):
        q.count_roots_formula(form, q.factorize(small_table, 22))  # even
    with pytest.raises(ValueError):
        q.count_roots_formula(form, q.factorize(small_table, 45))  # 3^2 divides
    with pytest.raises(ValueError):
        q.count_roots_formula(form, q.factorize(small_table, 15))  # shares 5 with D


def test_max_root_count_iff_all_signs_positive(small_table):
    form = QuadraticForm(0, -5)
    for n in range(1, 2001, 2):
        fact = q.factorize(small_table, n)
        if any(e > 1 for _, e in fact.factors) or math.gcd(n, 20) != 1:
            continue
        brute = q.count_roots_bruteforce(form, n)
        want_max = brute == 2 ** len(fact.factors)
        assert q.has_max_root_count(form, fact) == want_max, n


def test_bruteforce_modulus_cap():
    q.count_roots_bruteforce(QuadraticForm(0, -5), 10**6)
    with pytest.raises(ValueError):
        q.count_roots_bruteforce(QuadraticForm(0, -5), 10**6 + 1)


def _scan(b, c, n):
    return sum(1 for x in range(n) if (x * x + b * x + c) % n == 0)


# the whole range QuadraticForm accepts; small (int32) and middling (int64)
# values are drawn often too
_COEFFICIENT = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2**40), 2**40),
    st.integers(-(2**63 - 1), 2**63 - 1),
)


@settings(max_examples=100, deadline=None)
@given(_COEFFICIENT, _COEFFICIENT, st.integers(1, 2000))
def test_scan_counts_exactly_or_refuses(b, c, n):
    form = QuadraticForm(b, c)
    values = [x * x + b * x + c for x in range(n)]
    want = sum(1 for v in values if v % n == 0)
    assert q.count_roots_bruteforce(form, n) == want
    # unreduced, the kernel counts exactly or refuses: it must refuse values
    # int64 cannot hold, and must count every form whose values are far
    # inside that range
    if max(abs(v) for v in values) >= 2**63:
        with pytest.raises(ValueError):
            _root_counts(form, [n])
    elif n * n * (1 + abs(b) + abs(c)) < 2**63:
        assert _root_counts(form, [n]) == [want]
    else:
        try:
            assert _root_counts(form, [n]) == [want]
        except ValueError:
            pass


def test_scan_batch_matches_each_modulus():
    moduli = [1, 2, 3, 35, 209, 997, 1000, 77]
    for form in (*FORMS, QuadraticForm(-7, 2**40), QuadraticForm(2**20, -(2**30))):
        want = [q.count_roots_bruteforce(form, n) for n in moduli]
        assert _root_counts(form, moduli) == want


def test_scan_near_the_int64_edge():
    # f(2) = 2^62 + 3 is exact in int64; with b = 2^62 it would be 2^63 + 4
    form = QuadraticForm(2**61, -1)
    assert _root_counts(form, [3]) == [_scan(form.b, form.c, 3)]
    with pytest.raises(ValueError):
        _root_counts(QuadraticForm(2**62, 0), [3])
    with pytest.raises(ValueError):
        _root_counts(QuadraticForm(0, -5), [0])


@pytest.mark.parametrize("edge", [2**31, 2**63])
@pytest.mark.parametrize("b", [0, -105])
def test_scan_near_the_edges_for_negative_c(edge, b):
    """c as negative as the int32 guard (edge 2^31) or the int64 guard
    (edge 2^63) lets through. f(x) goes down to about c - b^2 / 4, and q * n
    for q = f(x) // n up to n - 1 below that: inside the m (m - 1) the guard
    keeps spare below a negative f(x), so both stay exact."""
    moduli = [1, 3, 5, 7, 15, 21, 35, 105]
    m = max(moduli)
    # f(x) = x^2 - 1 mod 105, so every modulus n has 2^(primes of n) roots
    c = -((edge - 2 - m * (m - 1 + abs(b))) // 105 * 105 + 1)
    assert _root_counts(QuadraticForm(b, c), moduli) == [_scan(b, c, n) for n in moduli]
    if edge == 2**31:
        # past the guard the scan takes int64, also where int32 would wrap
        for below in (c - 105, c - 105 * 2**23):
            form = QuadraticForm(b, below)
            assert _root_counts(form, moduli) == [_scan(b, below, n) for n in moduli]
    else:
        # past the int64 guard it refuses
        with pytest.raises(ValueError):
            _root_counts(QuadraticForm(b, c - 105), moduli)


# the verify suite's forms, then forms with b < 0 and with f(x) < 0 at small x
GRID_FORMS = (*FORMS, QuadraticForm(-3, 1), QuadraticForm(-1, -5), QuadraticForm(2, -7))


def test_multi_form_scan_matches_each_form():
    """One scan of every form at every odd n <= 600, column by column,
    against count_roots_bruteforce and a plain scan in Python."""
    moduli = list(range(1, 601, 2))
    grid = _root_count_grid(GRID_FORMS, moduli)
    assert grid.shape == (len(moduli), len(GRID_FORMS))
    for column, form in enumerate(GRID_FORMS):
        want = [q.count_roots_bruteforce(form, n) for n in moduli]
        assert grid[:, column].tolist() == want
        assert want == [_scan(form.b, form.c, n) for n in moduli]


def test_multi_form_scan_on_the_int64_path():
    """c = +-2^40 puts every form's values past int32."""
    forms = (QuadraticForm(1, -1), QuadraticForm(-7, 2**40), QuadraticForm(3, -(2**40)))
    moduli = [1, 3, 35, 209, 997, 1000]
    grid = _root_count_grid(forms, moduli)
    for column, form in enumerate(forms):
        assert grid[:, column].tolist() == [_scan(form.b, form.c, n) for n in moduli]


def test_bruteforce_is_the_one_form_scan(monkeypatch):
    calls = []
    grid = quadratic._root_count_grid

    def spy(forms, moduli):
        calls.append((forms, moduli))
        return grid(forms, moduli)

    monkeypatch.setattr(quadratic, "_root_count_grid", spy)
    assert q.count_roots_bruteforce(QuadraticForm(-1, -5), 19) == _scan(-1, -5, 19)
    assert calls == [((QuadraticForm(18, 14),), [19])]
