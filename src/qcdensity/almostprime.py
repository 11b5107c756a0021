"""Counting k-almost-primes under residue constraints, and the ordered
tuple sums behind the density estimates.

Every count and sum here, and the sign counts in density.py, reads one
recorded walk per (x, k, mode): _tuple_rows expands the sorted prime
tuples p1 <= ... <= pk with product <= x one position at a time, as numpy
arrays, giving each tuple so far the primes p past its last one with
p^(positions left) <= remaining budget, and records one row per leading
tuple, in enumeration order: its k - 1 leading primes and the range
(lo, hi] of the last prime. The walk is memoised in the table's memo
dict, so every labelling of the same tuples shares it.

Every integer count is a lookup into one count table per key of the rows
(_tuple_counts): sieve._runs, the one grouping by a label, sorts the rows
stably by their keys and cuts them into runs of equal keys, and each run
makes one count_ranges query on a prime-count oracle of sieve.py, which
counts the last prime under every label at once. The table maps each key
to those counts, and a count reads entries of it (_lookup). Keyed by the
residues mod N of the leading primes, position by position
(_residue_counts), the table serves positional counts; keyed by those
residues sorted (_multiset_runs, _multiset_counts), residue-multiset
counts, which read one entry per distinct class v of the multiset: the
multiset less v, with last class v. Both are on the class oracle. Keyed
by Kronecker signs, it serves the sign counts of density.py
(_sign_counts), on its sign oracle. Unconstrained counts are one query
over all the rows on the every-prime oracle. An oracle for x answers
every last position up to x; it is a lookup into counts built from the
table's primes up to isqrt(x) (sieve._oracle_primes), which bound every
leading prime too. So every integer count needs the table only up to
isqrt(x), and is refused by the oracle before the walk when the table
stops short.

The one coverage rule, _check_coverage, guards only the routes that read
the table's primes at the last position: the ordered float sums, on the
labelled prime index (sieve._ClassIndex), and the character-sum route. The
last position reaches _coverage_need(x, k) = x / 2^(k-1), so they need
every prime up to there, and each checks it before it reads the rows.

The ordered-tuple float sums, _ordered_stats, and the character-sum route
loop over the rows in enumeration order. _ordered_stats visits only the
rows whose sorted leading residues fit its multiset, looked up in the one
grouping per (x, k, modulus, mode) that the multiset counts read too
(_multiset_runs), and weights each sorted tuple by its number of distinct
orderings (k! over the factorials of its prime multiplicities), read off
the runs of its leading primes as Python ints, exact at every k. Counts,
sums and groupings that are asked for again are memoised in the table's
memo dict as well.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arith import euler_phi
from .characters import build_character_group, orthogonality_sum
from .sieve import (
    SpfTable,
    _PrimeCountOracle,
    _class_oracle,
    _prime_count_grid,
    _runs,
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


def _check_coverage(table: SpfTable, x: int, k: int) -> None:
    """Refuse a table whose labelled prime index (the table's primes) stops
    short of _coverage_need(x, k); called before the rows are read, so a
    refused call walks nothing."""
    need = _coverage_need(x, k)
    if need > table.limit:
        raise ValueError(
            f"table limit {table.limit} too small for x = {x}, k = {k} (need {need})"
        )


@_table_memo
def _tuple_rows(
    table: SpfTable, x: int, k: int, strict: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted prime tuples p1 <= ... <= pk (p1 < ... < pk when strict)
    with product <= x, as one row per leading tuple, in enumeration order.

    A row is the k - 1 leading primes (a row of the int32 array `leading`)
    and the range lo < pk <= hi of the last prime (int64 arrays lo, hi):
    hi is x over the leading product, lo the previous prime (minus one when
    repeats are allowed; 1 when k = 1). hi never exceeds _coverage_need(x,
    k).

    The rows are built one position at a time. The rows so far (leading
    primes, lo and hi as the budget left) each get as children the primes
    p in (lo, hi] with p^(positions left) <= hi: one searchsorted of the
    budgets against exact integer powers finds them, and np.repeat keeps
    each row's children together and in order, so the rows stay in
    enumeration order. The walk ends at the last position, or when no row
    has a child. So no leading prime exceeds isqrt(x // 2^(k-2)); a table
    that stops short of that is refused, so no truncated walk is memoised.
    """
    top = math.isqrt(x >> (k - 2)) if k > 1 else 1
    # prime_count refuses a top past the table's limit
    primes = table.primes[: prime_count(table, top)].astype(np.int32)
    # the frontier is the rows of the tuples chosen so far: before the
    # first position, one row with no leading prime and the range (1, x]
    leading = np.empty((1, 0), dtype=np.int32)
    lo, hi = np.ones(1, dtype=np.int64), np.array([x], dtype=np.int64)
    for depth in range(k, 1, -1):
        if not len(hi) or depth >= x.bit_length():
            # no row left, or 2^depth > x, so no prime has a child: checked
            # before any power is taken, so no power grows with k
            lo, hi = lo[:0], hi[:0]
            break
        # only primes whose depth-th power is at most x, so their int64
        # powers are exact; the float root plus one is at least the integer
        # root, and is corrected down to it
        root = int(x ** (1 / depth)) + 1
        while root**depth > x:
            root -= 1
        powers = primes[: np.searchsorted(primes, root, side="right")]
        powers = powers.astype(np.int64) ** depth
        # a row's children are its primes p in (lo, hi] with p^depth <= hi,
        # the slice primes[start:end]
        start = np.searchsorted(primes, lo, side="right")
        counts = np.maximum(np.searchsorted(powers, hi, side="right") - start, 0)
        # the j-th child overall, the i-th of its row, is primes[start + i]:
        # j less the children of the rows before, plus start (int32, as the
        # primes it picks)
        index = np.repeat((start - np.cumsum(counts) + counts).astype(np.int32), counts)
        index += np.arange(len(index), dtype=np.int32)
        leading = np.column_stack((np.repeat(leading, counts, axis=0), primes[index]))
        del index  # before hi and lo are made, for a lower peak
        hi = np.repeat(hi, counts)
        hi //= leading[:, -1]
        # strict tuples go on after the chosen prime, others at it
        lo = np.add(leading[:, -1], int(strict) - 1, dtype=np.int64)
    return leading.reshape(len(hi), k - 1), lo, hi


def _tuple_counts(
    table: SpfTable,
    x: int,
    k: int,
    strict: bool,
    runs: tuple[np.ndarray, dict],
    oracle: _PrimeCountOracle,
) -> dict:
    """The rows of _tuple_rows counted in groups: runs, from sieve._runs
    over one key per row, groups them, and each group makes one
    count_ranges query on the oracle; returns {key: counts of the last
    prime by label, in the oracle's column order}."""
    _, lo, hi = _tuple_rows(table, x, k, strict)
    order, groups = runs
    return {
        key: oracle.count_ranges(lo[order[i:j]], hi[order[i:j]])
        for key, (i, j) in groups.items()
    }


def _lookup(counts: dict, oracle: _PrimeCountOracle, targets: tuple) -> int:
    """The entry of counts (from _tuple_counts on oracle) for the leading
    labels targets[:-1] and the last label targets[-1]; 0 when either has
    no entry."""
    row, column = counts.get(targets[:-1]), oracle.columns.get(targets[-1])
    return 0 if row is None or column is None else int(row[column])


@_table_memo
def _unconstrained_count(table: SpfTable, x: int, k: int, strict: bool) -> int:
    """Sorted prime tuples with product <= x, on the prime-count oracle (one
    label, None), built before the walk so that a short table raises
    first."""
    oracle = _PrimeCountOracle(x, [((None,), _prime_count_grid(table, x))])
    _, lo, hi = _tuple_rows(table, x, k, strict)
    return int(oracle.count_ranges(lo, hi)[0])


def _residue_keys(table: SpfTable, x: int, k: int, modulus: int, strict: bool):
    """The residues mod modulus of the leading primes of each row of
    _tuple_rows, in the narrowest type, since numpy radix-sorts 8- and
    16-bit keys."""
    leading, _, _ = _tuple_rows(table, x, k, strict)
    # every leading prime is at most isqrt(x)
    labels = np.arange(math.isqrt(x) + 1) % modulus
    return labels.astype(np.min_scalar_type(modulus - 1))[leading]


@_table_memo
def _residue_counts(table: SpfTable, x: int, k: int, modulus: int, strict: bool):
    """_tuple_counts keyed by the leading residues mod modulus, position by
    position, on the class oracle for (x, modulus), built first so that a
    table short of isqrt(x) raises before the walk."""
    oracle = _class_oracle(table, x, modulus)
    runs = _runs(_residue_keys(table, x, k, modulus, strict))
    return _tuple_counts(table, x, k, strict, runs, oracle)


@_table_memo
def _multiset_runs(table: SpfTable, x: int, k: int, modulus: int, strict: bool):
    """The rows of _tuple_rows grouped by the sorted residues mod modulus
    of their leading primes (sieve._runs): the multiset count table and
    _ordered_stats both read this one grouping."""
    keys = _residue_keys(table, x, k, modulus, strict)
    keys.sort(axis=1)
    return _runs(keys)


@_table_memo
def _multiset_counts(table: SpfTable, x: int, k: int, modulus: int, strict: bool):
    """_tuple_counts keyed by the sorted leading residues mod modulus, on
    the class oracle for (x, modulus), built first as for _residue_counts."""
    oracle = _class_oracle(table, x, modulus)
    runs = _multiset_runs(table, x, k, modulus, strict)
    return _tuple_counts(table, x, k, strict, runs, oracle)


@functools.lru_cache(maxsize=4096)
def _reductions(ms: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(v, the sorted multiset ms less one v) for each distinct class v of
    ms, in ascending v; cached, as every multiset count and sum takes them."""
    return tuple((v, ms[:i] + ms[i + 1 :]) for i, v in enumerate(ms) if ms.index(v) == i)


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
    modulus, ms = constraint.modulus, constraint.multiset()
    counts = _multiset_counts(table, x, k, modulus, strict)
    oracle = _class_oracle(table, x, modulus)
    # a tuple matches when its sorted leading residues are the multiset less
    # one class v, which its last prime then takes
    return sum(
        _lookup(counts, oracle, (*reduced, v)) for v, reduced in _reductions(ms)
    )


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

    The count is one entry of the count table of the walk per (x, k,
    mode), keyed by the leading residues position by position, on the class
    oracle for (x, modulus), so it needs the table only up to isqrt(x), and
    modulus faces the class budget of sieve._oracle_need (a
    sieve.BudgetError over it). A lone call walks every leading tuple and
    makes one query per sequence of leading residues, up to
    phi(modulus)^(k-1) of them; the cross-check rows of density.py read
    every entry of the same table. Residue-multiset counts
    (count_almost_primes with a constraint) read another table of the same
    walk, keyed by the sorted leading residues, so a lone `count --classes`
    makes one query per multiset of leading residues, not per sequence.
    """
    if k < 1 or len(residues) != k:
        raise ValueError("need one residue per position")
    if x < 1:
        raise ValueError("x must be >= 1")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    strict = mode is CountMode.SQUAREFREE
    res = tuple(r % modulus for r in residues)
    counts = _residue_counts(table, x, k, modulus, strict)
    return _lookup(counts, _class_oracle(table, x, modulus), res)


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

    Each sorted tuple counts k! / prod(run length!) times, its runs those
    of the leading primes of its row, and the last prime's. The rows that
    match are the groups of _multiset_runs for the multiset less one class,
    so only they are read.
    """
    _check_coverage(table, x, k)
    cidx = table.class_index(modulus)
    leading, los, his = _tuple_rows(table, x, k, False)
    order, groups = _multiset_runs(table, x, k, modulus, False)
    # a row matches when its sorted leading residues are the multiset less
    # one class v, which the last prime then takes; sorted back into
    # enumeration order
    matched = sorted(
        (i, v)
        for v, reduced in _reductions(residues)
        for i in order[slice(*groups.get(reduced, (0, 0)))].tolist()
    )
    k_fact, fact = math.factorial(k), math.factorial
    count = 0
    # the float sums accumulate here, in enumeration order, so they round
    # as one running total would; per-level subtotals would move the last
    # bits of the residuals that verify prints
    log_sum = recip_sum = 0.0
    for i, v in matched:
        lead = leading[i].tolist()
        lo, hi = int(los[i]), int(his[i])
        prod = math.prod(lead)
        # lead is sorted, so a prime's count in it is the length of its run
        weight = k_fact // math.prod(fact(lead.count(p)) for p in set(lead))
        # repeating the last leading prime extends its run; lo is that
        # prime minus one, so the class range after it starts at the prime
        if lead and lead[-1] <= hi and lead[-1] % modulus == v:
            w = weight // (lead.count(lead[-1]) + 1)
            n_val = prod * lead[-1]
            count += w
            log_sum += w * math.log(n_val)
            recip_sum += w / n_val
            lo = lead[-1]
        cnt, logs, recips = cidx.stats(v, lo, hi)
        if cnt:
            count += weight * cnt
            log_sum += weight * (cnt * math.log(prod) + logs)
            recip_sum += weight * (recips / prod)
    return count, log_sum, recip_sum


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


def _reduced_reciprocal_sum(
    table: SpfTable, xf: int, k: int, modulus: int, ms: tuple[int, ...]
) -> float:
    """The sum of the level-(k-1) reciprocal sums over the distinct
    one-residue reductions of ms (_reductions, in ascending class), the
    empty reduction contributing 1."""
    if k == 1:
        return 1.0
    total = 0.0
    for _, reduced in _reductions(ms):
        total += _ordered_stats(table, xf, k - 1, modulus, reduced)[2]
    return total


def tuple_sums(
    table: SpfTable, x: float, k: int, constraint: ResidueConstraint
) -> OrderedTupleSums:
    """Ordered-tuple sums at real x >= 0 (enumeration thresholds use floor(x),
    the error term keeps the exact x). The error term reads the level-(k-1)
    sums, whose last position reaches further, so that level's coverage is
    checked first."""
    if k < 1 or constraint.k != k:
        raise ValueError("constraint length must equal k >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    xf = math.floor(x)
    _check_coverage(table, xf, max(k - 1, 1))
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
    _check_coverage(table, x, k)
    n_mod = constraint.modulus
    group = build_character_group(n_mod)
    arrangements = sorted(set(itertools.permutations(constraint.residues)))
    primes = table.primes_list

    # the inner sums over all characters, memoised per (m, p mod N)
    inner_sum = functools.cache(functools.partial(orthogonality_sum, group))

    total = 0j
    leading, los, his = _tuple_rows(table, x, k, False)
    for lead, lo, hi in zip(leading.tolist(), los.tolist(), his.tolist()):
        for last in primes[prime_count(table, lo) : prime_count(table, hi)]:
            for ordered in set(itertools.permutations((*lead, last))):
                residues = [p % n_mod for p in ordered]
                for arr in arrangements:
                    prod = 1 + 0j
                    for pos in range(k):
                        prod *= inner_sum(arr[pos], residues[pos])
                        if prod == 0:
                            break
                    total += prod
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


def _recursion_residuals(
    table: SpfTable,
    identity: str,
    x: float,
    k: int,
    modulus: int,
    multisets: list[tuple[int, ...]],
) -> np.ndarray:
    """recursion_residual for each multiset of the list at once, each a
    sorted tuple of units in 0..modulus-1, as ResidueConstraint.multiset
    gives it.

    The right-hand side at x/p depends on p only through floor(x/p) and
    the multiset less the class of p (and, for the error term, the exact
    x/p, applied here): each (floor(x/p), reduced multiset) that some
    multiset reads is evaluated once, for them all. Row by multiset and
    column by prime p <= x, in p order, the parts of tuple_sums make one
    array, 0.0 at a prime whose class is not in the multiset, and one
    left-to-right np.add.accumulate along each row adds them as a loop
    over the multiset's own primes would: adding 0.0 changes no bit, while
    np.add.reduce sums pairwise and builtin sum, from Python 3.12,
    compensated, and either would move the last bits of the residuals that
    verify prints.
    """
    if identity not in ("log_sum", "reciprocal_sum", "error_term"):
        raise ValueError(f"unknown identity {identity!r}")
    if not 2 <= x <= IDENTITY_X_LIMIT:
        raise ValueError(f"x must be in 2..{IDENTITY_X_LIMIT}")
    if not 1 <= k <= IDENTITY_K_LIMIT:
        raise ValueError(f"k must be in 1..{IDENTITY_K_LIMIT}")
    size = k if identity == "reciprocal_sum" else k + 1
    if any(len(ms) != size for ms in multisets):
        raise ValueError(f"identity {identity} needs a constraint of length {size}")
    lhs = np.array([
        getattr(tuple_sums(table, x, size, ResidueConstraint(modulus, ms)), identity)
        for ms in multisets
    ])
    if identity != "reciprocal_sum":
        lhs *= k
    phi = euler_phi(modulus)
    xf = math.floor(x)
    primes = table.primes[: prime_count(table, xf)]
    xp = x / primes
    keys, inverse = np.unique(
        np.floor(xp).astype(np.int64) * modulus + primes % modulus, return_inverse=True
    )
    key_floors, key_classes = divmod(keys, modulus)
    # the reduced multiset each multiset (row) reads at each class (column),
    # by its number in `reduced`; -1 where the class is not in the multiset
    reduced = {}
    slots = np.full((len(multisets), modulus), -1, dtype=np.int32)
    for row, ms in enumerate(multisets):
        for v, rest in _reductions(ms):
            slots[row, v] = reduced.setdefault(rest, len(reduced))
    reads = slots[:, key_classes]
    read = reads >= 0
    pairs, which = np.unique(
        (key_floors * len(reduced) + reads)[read], return_inverse=True
    )
    rests = list(reduced)
    terms = [
        _recursion_term(table, identity, xq, k, modulus, rests[r])
        for xq, r in zip(*(part.tolist() for part in divmod(pairs, len(reduced))))
    ]
    # the term each multiset reads at each prime, by its number in terms;
    # the 0.0 past them where it reads none
    at = np.full(reads.shape, len(terms), dtype=np.int32)
    at[read] = which
    at = at[:, inverse]
    if identity == "error_term":
        logs, reduced_recips = np.array([*terms, (0.0, 0.0)]).T
        # tuple_sums' error term at x/p, each product taken in place
        parts = logs[at]
        parts *= phi**k
        rest = reduced_recips[at]
        rest *= xp * k * phi ** (k - 1)
        parts -= rest
        del rest
    else:
        parts = np.array([*terms, 0.0])[at]
        if identity == "reciprocal_sum":
            parts /= primes
    del at
    rhs = np.add.accumulate(parts, axis=1, out=parts)[:, -1]
    if identity == "log_sum":
        rhs *= k + 1
    elif identity == "error_term":
        rhs *= (k + 1) * phi
    return np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))


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
    and k entries for reciprocal_sum. This is the one-multiset case of
    _recursion_residuals, which verify calls for a whole grid of them.
    """
    ms = constraint.multiset()
    return float(_recursion_residuals(table, identity, x, k, constraint.modulus, [ms])[0])


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
