"""Counting k-almost-primes under residue constraints, and the ordered
tuple sums behind the density estimates.

Every count here, and the sign counts in density.py, rests on one walker:
_walk descends the sorted prime tuples p1 <= ... <= pk with product <= x,
pruning with p^(positions left) <= remaining budget, and answers the last
position with one range query. A caller supplies a step/leaf pair.
step(state, pos, p) returns the state after choosing p at position pos, or
None to skip p. leaf(state, lo, hi) returns the contribution of the last
prime pk in (lo, hi]. The walker sums the leaves. It also enforces the one
coverage rule: the backend's reach, the largest hi it answers, must be at
least _coverage_need(x, k) = x / 2^(k-1), the largest last-position value.
The labelled prime index reaches the table's limit, so it needs every prime
up to x / 2^(k-1). A prime-count oracle for x reaches x, so its walks pass
x as the reach. It is a lookup into counts its caller builds from the
table's primes up to isqrt(x) (sieve._oracle_primes), which bound every
leading prime too: here pi(v) (sieve._prime_count_grid) under the one label
None; in density.py, the Kronecker sign counts.

Integer counts are lookups into one recorded walk per (x, k, labelling,
mode), _leading_ranges: its step appends label(p) and skips nothing, and
its leaf records the range (lo, hi] under the tuple of leading labels. A
count is one count_ranges query: the primes of the last target label, over
the ranges recorded under the leading targets. Labelled by p mod N
(_positional_ranges), the walk serves positional counts, and residue-multiset
counts, which sum over the leading residue tuples inside the multiset,
each with its one leftover class. Labelled by one constant, it serves
unconstrained counts; by Kronecker sign, the sign counts of density.py.

The ordered-tuple float sums keep a step/leaf pair of their own,
_ordered_stats, which sums in enumeration order and weights each sorted
tuple by its number of distinct orderings (k! over the factorials of its
prime multiplicities), carried as run lengths in the step state. Walks and
counts that are asked for again are memoized in the table's own memo dict.
"""

from __future__ import annotations

import enum
import itertools
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .arith import euler_phi
from .characters import build_character_group
from .sieve import (
    SpfTable,
    _PrimeCountOracle,
    _prime_count_grid,
    _table_memo,
    prime_count,
)


class CountMode(enum.Enum):
    SQUAREFREE = "squarefree"
    WITH_MULTIPLICITY = "with_multiplicity"


@dataclass(frozen=True)
class ResidueConstraint:
    """Multiset of unit residue classes mod N, one per prime factor."""

    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not self.residues:
            raise ValueError("constraint needs at least one residue")
        normalized = tuple(r % self.modulus for r in self.residues)
        for r in normalized:
            if math.gcd(r, self.modulus) != 1:
                raise ValueError(f"residue {r} is not a unit mod {self.modulus}")
        object.__setattr__(self, "residues", normalized)

    @property
    def k(self) -> int:
        return len(self.residues)

    def multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.residues))


def distinct_permutation_count(constraint: ResidueConstraint) -> int:
    """M: number of distinct arrangements of the constraint multiset."""
    m = math.factorial(constraint.k)
    for r in set(constraint.residues):
        m //= math.factorial(constraint.residues.count(r))
    return m


def _coverage_need(x: int, k: int) -> int:
    """Largest value the last position of a k-tuple with product <= x can
    take: x over 2^(k-1), the smallest leading product."""
    return x // 2 ** (k - 1)


def _walk(
    table: SpfTable, x: int, k: int, strict: bool, step, leaf, state, reach=None
):
    """Walk the sorted prime tuples p1 <= ... <= pk (p1 < ... < pk when
    strict) with product <= x, and return the sum of the leaf values.

    Positions 0..k-2 are chosen by descent, pruned by p^(positions left) <=
    remaining budget. At each candidate p the walker asks step(state, pos, p)
    for the child state; None skips p. The last position is one range query:
    leaf(state, lo, hi) gets the state after k-1 choices and the range
    lo < pk <= hi, where hi is x over the leading product and lo is the
    previous prime (minus one when repeats are allowed; 1 when k = 1).
    hi never exceeds _coverage_need(x, k), which reach, the largest hi the
    leaf's backend answers, must cover; by default the table's limit. A
    leading prime p has p^2 <= x, so only the primes up to isqrt(x) are
    looped over.
    """
    need = _coverage_need(x, k)
    if need > (table.limit if reach is None else reach):
        raise ValueError(
            f"table limit {table.limit} too small for x = {x}, k = {k} (need {need})"
        )
    bound = min(math.isqrt(x), table.limit)
    primes = table.primes[: prime_count(table, bound)].tolist()

    def descend(budget: int, depth: int, lo_idx: int, lo_val: int, st):
        if depth == 1:
            return leaf(st, lo_val, budget)
        pos = k - depth
        total = 0
        for i in range(lo_idx, len(primes)):
            p = primes[i]
            if p**depth > budget:
                break
            child = step(st, pos, p)
            if child is not None:
                total += descend(
                    budget // p,
                    depth - 1,
                    i + 1 if strict else i,
                    p if strict else p - 1,
                    child,
                )
        return total

    return descend(x, k, 0, 1, state)


def _leading_ranges(
    table: SpfTable, x: int, k: int, strict: bool, label, reach=None
) -> dict[tuple, tuple[np.ndarray, np.ndarray]]:
    """The last-position ranges lo < pk <= hi of every sorted prime tuple
    with product <= x, as (lo, hi) int64 arrays keyed by the labels of its
    k - 1 leading primes. reach is that of the backend the ranges are
    counted on, as in _walk."""
    ranges: dict[tuple, array] = defaultdict(lambda: array("q"))

    def step(leading, pos, p):
        return leading + (label(p),)

    def leaf(leading, lo, hi):
        ranges[leading].extend((lo, hi))
        return 0

    _walk(table, x, k, strict, step, leaf, (), reach)
    return {
        leading: tuple(np.frombuffer(bounds, dtype=np.int64).reshape(-1, 2).T)
        for leading, bounds in ranges.items()
    }


def _count_recorded(ranges: dict, targets: tuple, backend) -> int:
    """The primes labelled targets[-1] on the backend, summed over the ranges
    recorded under the leading targets."""
    bounds = ranges.get(targets[:-1])
    return 0 if bounds is None else backend.count_ranges(targets[-1], *bounds)


@_table_memo
def _unconstrained_count(table: SpfTable, x: int, k: int, strict: bool) -> int:
    """Sorted prime tuples with product <= x, on the prime-count oracle (label
    None), built before the walk so that a short table raises first."""
    oracle = _PrimeCountOracle(x, {None: _prime_count_grid(table, x)})
    ranges = _leading_ranges(table, x, k, strict, lambda p: None, x)
    return _count_recorded(ranges, (None,) * k, oracle)


@_table_memo
def _positional_ranges(table: SpfTable, x: int, k: int, modulus: int, strict: bool):
    """_leading_ranges labelled by the residue mod modulus."""
    return _leading_ranges(table, x, k, strict, lambda p: p % modulus)


def _sorted_count(
    table: SpfTable, x: int, k: int, modulus: int, residues: tuple, strict: bool
) -> int:
    """Sorted prime tuples with product <= x whose residues mod modulus match
    the multiset `residues`; strict means distinct primes. Each leading
    residue tuple inside `residues` adds the primes of the one class left."""
    cidx = table.class_index(modulus)
    want, total = Counter(residues), 0
    for leading, bounds in _positional_ranges(table, x, k, modulus, strict).items():
        left = want - Counter(leading)
        if sum(left.values()) == 1:
            total += cidx.count_ranges(*left, *bounds)
    return total


def count_almost_primes(
    table: SpfTable,
    x: int,
    k: int,
    constraint: ResidueConstraint | None = None,
    mode: CountMode = CountMode.SQUAREFREE,
) -> int:
    """Number of n <= x with exactly k prime factors (distinct in SQUAREFREE
    mode, with multiplicity otherwise), optionally with the multiset of
    prime residues mod N equal to the constraint."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if x < 1:
        raise ValueError("x must be >= 1")
    strict = mode is CountMode.SQUAREFREE
    if constraint is None:
        return _unconstrained_count(table, x, k, strict)
    if constraint.k != k:
        raise ValueError("constraint length must equal k")
    ms = constraint.multiset()
    return _sorted_count(table, x, k, constraint.modulus, ms, strict)


def count_almost_primes_positional(
    table: SpfTable,
    x: int,
    k: int,
    residues: tuple[int, ...],
    modulus: int,
    mode: CountMode = CountMode.SQUAREFREE,
) -> int:
    """Positional variant: the i-th smallest prime of n must lie in class
    residues[i] mod modulus (sorted with multiplicity in that mode).

    The count is a lookup into one walk per (x, k, modulus, mode), which
    records the last-position ranges of every leading residue tuple. So a
    lone call walks every leading tuple, about phi(modulus)^(k-1) times the
    tuples that match; its one caller outside the tests, the cross-check
    rows of density.py, asks for every residue tuple, and then the walk is
    made once for all of them. Residue-multiset counts (count_almost_primes
    with a constraint) read the same walk, so a lone `count --classes` walks
    every leading tuple too.
    """
    if k < 1 or len(residues) != k:
        raise ValueError("need one residue per position")
    if x < 1:
        raise ValueError("x must be >= 1")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    strict = mode is CountMode.SQUAREFREE
    res = tuple(r % modulus for r in residues)
    cidx = table.class_index(modulus)
    return _count_recorded(_positional_ranges(table, x, k, modulus, strict), res, cidx)


def _remove_one(values: tuple[int, ...], v: int) -> tuple[int, ...]:
    i = values.index(v)
    return values[:i] + values[i + 1 :]


@_table_memo
def _ordered_stats(
    table: SpfTable,
    x: int,
    k: int,
    modulus: int,
    residues: tuple[int, ...],
) -> tuple[int, float, float]:
    """(ordered count, sum of log n, sum of 1/n) over ordered prime tuples
    with product <= x whose residue multiset matches `residues`.

    Each sorted tuple counts k! / prod(run length!) times. The step state
    carries (remaining residues, previous prime, its run length, product of
    the factorials of the closed runs, leading product).
    """
    cidx = table.class_index(modulus)
    k_fact = math.factorial(k)
    fact = math.factorial
    # the float sums accumulate here, in enumeration order, so they round
    # as one running total would; per-level subtotals would move the last
    # bits of the residuals that verify prints
    sums = [0.0, 0.0]

    def step(st, pos, p):
        remaining, last_p, run_len, run_denom, prod = st
        r = p % modulus
        if r not in remaining:
            return None
        if p == last_p:
            run_len += 1
        else:
            run_denom, run_len = run_denom * fact(run_len), 1
        return _remove_one(remaining, r), p, run_len, run_denom, prod * p

    def leaf(st, lo, hi):
        remaining, last_p, run_len, run_denom, prod = st
        v = remaining[0]
        count = 0
        # repeating the previous prime extends its run; lo is last_p - 1, so
        # the class range after it starts at last_p
        if last_p is not None and last_p <= hi and last_p % modulus == v:
            w = k_fact // (run_denom * fact(run_len + 1))
            n_val = prod * last_p
            count += w
            sums[0] += w * math.log(n_val)
            sums[1] += w / n_val
            lo = last_p
        weight = k_fact // (run_denom * fact(run_len))
        cnt, logs, recips = cidx.stats(v, lo, hi)
        if cnt:
            count += weight * cnt
            sums[0] += weight * (cnt * math.log(prod) + logs)
            sums[1] += weight * (recips / prod)
        return count

    count = _walk(table, x, k, False, step, leaf, (residues, None, 0, 1, 1))
    return count, sums[0], sums[1]


def ordered_tuple_count(
    table: SpfTable, x: int, k: int, constraint: ResidueConstraint
) -> int:
    """Ordered prime tuples (p1, ..., pk), product <= x, whose residue
    multiset equals the constraint multiset."""
    if k < 1 or constraint.k != k:
        raise ValueError("constraint length must equal k >= 1")
    if x < 1:
        raise ValueError("x must be >= 1")
    return _ordered_stats(table, x, k, constraint.modulus, constraint.multiset())[0]


@dataclass(frozen=True)
class OrderedTupleSums:
    """Sums over the matched ordered tuples at a given x.

    error_term is phi(N)^k * log_sum - x * k * phi(N)^(k-1) * (sum of the
    level-(k-1) reciprocal sums over the distinct one-residue reductions of
    the constraint, the empty reduction contributing 1); its smallness
    against x * (loglog x)^(k-1) is what the identity checks control.
    """

    ordered_count: int
    log_sum: float
    reciprocal_sum: float
    error_term: float
    arrangement_count: int


def _distinct_reductions(multiset: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [_remove_one(multiset, v) for v in sorted(set(multiset))]


def _reduced_reciprocal_sum(
    table: SpfTable, xf: int, k: int, modulus: int, ms: tuple[int, ...]
) -> float:
    """The sum of the level-(k-1) reciprocal sums over the distinct
    one-residue reductions of ms, the empty reduction contributing 1."""
    if k == 1:
        return 1.0
    total = 0.0
    for reduced in _distinct_reductions(ms):
        total += _ordered_stats(table, xf, k - 1, modulus, reduced)[2]
    return total


def tuple_sums(
    table: SpfTable, x: float, k: int, constraint: ResidueConstraint
) -> OrderedTupleSums:
    """Ordered-tuple sums at real x >= 0 (enumeration thresholds use floor(x),
    the error term keeps the exact x)."""
    if k < 1 or constraint.k != k:
        raise ValueError("constraint length must equal k >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    xf = math.floor(x)
    n_mod = constraint.modulus
    ms = constraint.multiset()
    cnt, logs, recips = _ordered_stats(table, xf, k, n_mod, ms)
    phi = euler_phi(n_mod)
    reduced_recips = _reduced_reciprocal_sum(table, xf, k, n_mod, ms)
    error = phi**k * logs - x * k * phi ** (k - 1) * reduced_recips
    return OrderedTupleSums(
        ordered_count=cnt,
        log_sum=logs,
        reciprocal_sum=recips,
        error_term=error,
        arrangement_count=distinct_permutation_count(constraint),
    )


CHARACTER_SUM_X_LIMIT = 2000
CHARACTER_SUM_K_LIMIT = 3
IDENTITY_X_LIMIT = 10**4
IDENTITY_K_LIMIT = 3


def ordered_tuple_count_via_characters(
    table: SpfTable, x: int, k: int, constraint: ResidueConstraint
) -> float:
    """The ordered tuple count recomputed as the literal character sum
    (1/phi(N)^k) * sum over ordered tuples of sum over distinct constraint
    arrangements of prod_i sum_chi conj(chi(m_i)) chi(p_i).

    Kept at small scale; the identity with ordered_tuple_count is the point.
    """
    if not 1 <= x <= CHARACTER_SUM_X_LIMIT:
        raise ValueError(f"x must be in 1..{CHARACTER_SUM_X_LIMIT}")
    if not 1 <= k <= CHARACTER_SUM_K_LIMIT:
        raise ValueError(f"k must be in 1..{CHARACTER_SUM_K_LIMIT}")
    if constraint.k != k:
        raise ValueError("constraint length must equal k")
    n_mod = constraint.modulus
    group = build_character_group(n_mod)
    arrangements = sorted(set(itertools.permutations(constraint.residues)))
    primes = table.primes_list

    # literal inner sums over all characters, memoized per (m, p mod N)
    inner: dict[tuple[int, int], complex] = {}

    def inner_sum(m: int, r: int) -> complex:
        key = (m, r)
        val = inner.get(key)
        if val is None:
            val = 0j
            for idx in range(group.num_characters):
                val += group.value(idx, m).conjugate() * group.value(idx, r)
            inner[key] = val
        return val

    def extend(leading, pos, p):
        return leading + (p,)

    def leaf(leading, lo, hi):
        subtotal = 0j
        for last in primes[prime_count(table, lo) : prime_count(table, hi)]:
            for ordered in set(itertools.permutations(leading + (last,))):
                residues = [p % n_mod for p in ordered]
                for arr in arrangements:
                    prod = 1 + 0j
                    for pos in range(k):
                        prod *= inner_sum(arr[pos], residues[pos])
                        if prod == 0:
                            break
                    subtotal += prod
        return subtotal

    total = _walk(table, x, k, False, extend, leaf, ())
    total /= euler_phi(n_mod) ** k
    if abs(total.imag) > 1e-6:
        raise ArithmeticError(f"character sum came out non-real: {total}")
    return total.real


def _recursion_term(
    table: SpfTable, identity: str, xf: int, k: int, modulus: int, reduced: tuple
):
    """What the identity reads of tuple_sums(table, x/p, ..., reduced) with
    floor(x/p) = xf: log_sum; the level-(k-1) reciprocal_sum (1.0 at k = 1);
    or, for error_term, the (log_sum, reduced reciprocal sum) pair its
    error_term is made of."""
    if identity == "log_sum":
        return _ordered_stats(table, xf, k, modulus, reduced)[1]
    if identity == "reciprocal_sum":
        return 1.0 if k == 1 else _ordered_stats(table, xf, k - 1, modulus, reduced)[2]
    logs = _ordered_stats(table, xf, k, modulus, reduced)[1]
    return logs, _reduced_reciprocal_sum(table, xf, k, modulus, reduced)


def recursion_residual(
    table: SpfTable,
    identity: str,
    x: float,
    k: int,
    constraint: ResidueConstraint,
) -> float:
    """Relative residual |lhs - rhs| / max(1, |lhs|) of one of the three
    exact recursions, both sides evaluated independently.

    identity: "log_sum" (k * theta_{k+1}(x) = (k+1) * sum over p <= x of the
    collapsed-indicator theta_k(x/p) terms), "reciprocal_sum" (the analogous
    L recursion with a 1/p factor, L_0 = 1), or "error_term" (the f
    recursion, which carries a phi(N) factor instead of the indicator's
    normalization). The constraint has k+1 entries for log_sum/error_term
    and k entries for reciprocal_sum.
    """
    if identity not in ("log_sum", "reciprocal_sum", "error_term"):
        raise ValueError(f"unknown identity {identity!r}")
    if not 2 <= x <= IDENTITY_X_LIMIT:
        raise ValueError(f"x must be in 2..{IDENTITY_X_LIMIT}")
    if not 1 <= k <= IDENTITY_K_LIMIT:
        raise ValueError(f"k must be in 1..{IDENTITY_K_LIMIT}")
    size = k if identity == "reciprocal_sum" else k + 1
    if constraint.k != size:
        raise ValueError(f"identity {identity} needs a constraint of length {size}")
    n_mod = constraint.modulus
    phi = euler_phi(n_mod)
    ms = constraint.multiset()
    xf = math.floor(x)
    reductions = {v: _remove_one(ms, v) for v in set(ms)}

    if identity == "log_sum":
        lhs = k * tuple_sums(table, x, k + 1, constraint).log_sum
    elif identity == "reciprocal_sum":
        lhs = tuple_sums(table, x, k, constraint).reciprocal_sum
    else:
        lhs = k * tuple_sums(table, x, k + 1, constraint).error_term

    # the right-hand side at x/p depends on p only through floor(x/p) and
    # the reduced multiset (and, for the error term, the exact x/p, applied
    # here); the same float terms as tuple_sums gives are added in p order
    rhs = 0.0
    terms = {}
    phi_k, phi_k1 = phi**k, phi ** (k - 1)
    upto = int(prime_count(table, xf))
    for p in table.primes_list[:upto]:
        reduced = reductions.get(p % n_mod)
        if reduced is None:
            continue
        xp = x / p
        key = (math.floor(xp), reduced)
        term = terms.get(key)
        if term is None:
            term = _recursion_term(table, identity, key[0], k, n_mod, reduced)
            terms[key] = term
        if identity == "log_sum":
            rhs += term
        elif identity == "reciprocal_sum":
            rhs += term / p
        else:
            logs, reduced_recips = term
            rhs += phi_k * logs - xp * k * phi_k1 * reduced_recips
    if identity == "log_sum":
        rhs *= k + 1
    elif identity == "error_term":
        rhs *= (k + 1) * phi

    return abs(lhs - rhs) / max(1.0, abs(lhs))


def trend_ratios(
    table: SpfTable, x: int, k: int, constraint: ResidueConstraint
) -> tuple[float, float]:
    """(log_sum ratio, reciprocal_sum ratio) against their leading-order
    sizes M/phi^k * k * x * (loglog x)^(k-1) and M/phi^k * (loglog x)^k.
    Reported, not asserted; drift toward 1 is slow."""
    if x < 16:
        raise ValueError("x must be >= 16 for the normalizations")
    sums = tuple_sums(table, x, k, constraint)
    phi = euler_phi(constraint.modulus)
    m_count = sums.arrangement_count
    llx = math.log(math.log(x))
    theta_main = (m_count / phi**k) * k * x * llx ** (k - 1)
    ell_main = (m_count / phi**k) * llx**k
    return sums.log_sum / theta_main, sums.reciprocal_sum / ell_main
