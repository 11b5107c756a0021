"""Sign-class residue sets B(eps) mod the character period Q."""

import math
import weakref

import pytest

import qcdensity as q
from qcdensity import residues
from qcdensity.verify import RESIDUE_DISCRIMINANTS

DISCRIMINANTS = (2, -2, 3, -3, 5, -5, 6, -7, 10, 13, 15, -20, 21)


def test_period_frozen_values():
    assert q.kronecker_period(5) == 20
    assert q.kronecker_period(-1) == 4
    assert q.kronecker_period(2) == 8
    assert q.kronecker_period(-2) == 8
    assert q.kronecker_period(6) == 24
    assert q.kronecker_period(-7) == 28
    assert q.kronecker_period(21) == 84
    assert q.kronecker_period(-20) == 20


def test_period_rejects_perfect_squares():
    for d in (1, 4, 9, 16, 144):
        with pytest.raises(ValueError):
            q.kronecker_period(d)


@pytest.mark.parametrize("d,plus,minus", [
    (5, (1, 9, 11, 19), (3, 7, 13, 17)),
    (-1, (1,), (3,)),
    (2, (1, 7), (3, 5)),
    (-2, (1, 3), (5, 7)),
    (-20, (1, 3, 7, 9), (11, 13, 17, 19)),
    (6, (1, 5, 19, 23), (7, 11, 13, 17)),
    (-7, (1, 9, 11, 15, 23, 25), (3, 5, 13, 17, 19, 27)),
])
def test_frozen_class_sets(d, plus, minus):
    assert tuple(sorted(q.residue_classes_direct(d, 1).classes)) == plus
    assert tuple(sorted(q.residue_classes_direct(d, -1).classes)) == minus


@pytest.mark.parametrize("d", DISCRIMINANTS + (-1, 12, -11, 33))
@pytest.mark.parametrize("eps", [1, -1])
def test_construction_routes_agree(d, eps):
    direct = q.residue_classes_direct(d, eps)
    constructive = q.residue_classes_constructive(d, eps)
    assert direct.modulus == constructive.modulus == q.kronecker_period(d)
    assert sorted(direct.classes) == sorted(constructive.classes)
    assert direct.epsilon == eps
    assert direct.discriminant == d


@pytest.mark.parametrize("d", DISCRIMINANTS)
def test_classes_split_the_units_in_half(d):
    period = q.kronecker_period(d)
    plus = set(q.residue_classes_direct(d, 1).classes)
    minus = set(q.residue_classes_direct(d, -1).classes)
    units = {a for a in range(period) if math.gcd(a, period) == 1}
    assert len(plus) == len(minus) == q.class_count(d) == q.euler_phi(period) // 2
    assert plus.isdisjoint(minus)
    assert plus | minus == units


@pytest.mark.parametrize("d", DISCRIMINANTS)
def test_membership_tracks_kronecker_for_primes(table, d):
    """Class membership of p mod Q decides the symbol, prime by prime."""
    plus = q.residue_classes_direct(d, 1)
    limit = 2 * 10**4
    for p in table.primes_list:
        if p > limit:
            break
        if p == 2 or d % p == 0:
            continue
        in_plus = p % plus.modulus in set(plus.classes)
        assert (q.kronecker(d, p) == 1) == in_plus, (d, p)


def test_covers_is_class_membership():
    rcs = q.residue_classes_direct(5, 1)
    assert rcs.covers(11)
    assert rcs.covers(29)
    assert not rcs.covers(3)
    # 2 and 5 are not units mod 20, so no sign class covers them
    assert not rcs.covers(2)
    assert not rcs.covers(5)


def test_square_multiples_share_classes():
    """Scaling D by a square leaves the kernel, hence the classes, alone."""
    for d, reduced in ((20, 5), (-4, -1), (45, 5), (8, 2), (-18, -2)):
        for eps in (1, -1):
            a = q.residue_classes_direct(d, eps)
            b = q.residue_classes_direct(reduced, eps)
            assert a.modulus == b.modulus
            assert sorted(a.classes) == sorted(b.classes)


def _unit_scan(d):
    """The symbol of d's squarefree kernel at every unit mod Q, by one
    kronecker call per unit, and 0 elsewhere."""
    period = q.kronecker_period(d)
    kval = q.squarefree_kernel(d).value()
    return [
        q.kronecker(kval, a) if math.gcd(a, period) == 1 else 0
        for a in range(period)
    ]


@pytest.mark.parametrize("d", sorted({*RESIDUE_DISCRIMINANTS, 100003, -4, 8}))
def test_unit_symbols_match_a_scan_of_the_units(d):
    assert residues._unit_symbols(d).tolist() == _unit_scan(d)


def test_symbol_cache_keeps_only_the_last_few_discriminants():
    # an array is about Q bytes: a process reading many D holds only a few
    size = residues._SYMBOL_CACHE_SIZE
    residues._unit_symbols.cache_clear()
    try:
        early = weakref.ref(residues._unit_symbols(5))
        for d in (2, 3, 6, 7, 10, 11, 13, 14, 15)[: size + 1]:
            residues._unit_symbols(d)
        assert early() is None
        assert residues._unit_symbols.cache_info().currsize == size
    finally:
        residues._unit_symbols.cache_clear()


def test_both_signs_share_one_symbol_scan(monkeypatch):
    """B(+) and B(-) are read off one scan per D, which evaluates the
    symbol at the primes below Q that do not divide it; the symbols are
    shared read-only."""
    calls = []
    kronecker = residues.kronecker

    def counted(d, n):
        calls.append(n)
        return kronecker(d, n)

    monkeypatch.setattr(residues, "kronecker", counted)
    residues._unit_symbols.cache_clear()
    try:
        for d in (-20, 45):
            plus = q.residue_classes_direct(d, 1)
            minus = q.residue_classes_direct(d, -1)
            assert len(plus.classes) + len(minus.classes) == 2 * q.class_count(d)
        # Q = 20 for both: the primes 3, 7, 11, 13, 17, 19, once per D
        assert calls == [3, 7, 11, 13, 17, 19] * 2
        with pytest.raises(ValueError):
            residues._unit_symbols(45)[1] = 0
    finally:
        residues._unit_symbols.cache_clear()


def test_rejects_perfect_square_discriminant():
    for d in (0, 1, 4, 49):
        with pytest.raises(ValueError):
            q.residue_classes_direct(d, 1)


def test_rejects_bad_sign():
    with pytest.raises(ValueError):
        q.residue_classes_direct(5, 0)
    with pytest.raises(ValueError):
        q.residue_classes_direct(5, 2)


def test_sign_vectors_enumeration():
    assert q.sign_vectors(2, 1) == [(1, 1), (-1, -1)]
    assert q.sign_vectors(1, -1) == [(-1,)]
    for m in (1, 2, 3, 4):
        for target in (1, -1):
            vectors = q.sign_vectors(m, target)
            assert len(vectors) == 2 ** (m - 1)
            assert len(set(vectors)) == len(vectors)
            for vec in vectors:
                assert math.prod(vec) == target
                assert set(vec) <= {1, -1}
