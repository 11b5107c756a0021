"""Smallest-prime-factor sieve and prime counting.

An SpfTable stores the smallest prime factor of every n in 2..limit and
derives from it: the sorted prime list, prime counts, and factorizations.
build_spf_table makes it with one unmasked strided store per prime up to
isqrt(limit), the largest prime first, and one scan of the entries left
at 0, which marks the primes and is the table's prime list; the primes it
stores are those of the table it builds to isqrt(limit) the same way.
Range counts have one backend, count_ranges(lo, hi) on a _PrimeCountOracle
for one x: for every label at once, the primes with that label over the
ranges lo[i] < p <= hi[i]. It is a plain lookup. It holds its counts as
(labels, counts) blocks, one grid-major column per label: the count of the
primes up to v with that label at every v = x // m, in the layout
_grid_values gives. Queries must have lo and hi on that grid, and hi may be
as large as x; a query finds the grid positions of its bounds once and
reads every column there. The caller builds the counts and decides what a
label means.
Only this module knows that layout. Lucy_Hedgehog's recurrence
(_sieve_rows) runs on one row of sums or on R coupled rows, reading only
the primes up to isqrt(x) (_oracle_primes), and takes each prime's step as
data: an array of signs f(p), and for coupled rows an array of row
permutations, one per prime. One row sums a periodic completely
multiplicative f over the primes up to every grid value (_prime_sums, its
signs f[p % period]): with f = 1 it gives pi(v) (_prime_count_grid), the
counts of the one label None behind almostprime.py's unconstrained counts;
density.py builds its sign labels from pi and one more sum. The phi(Q)
rows of _class_sums count the primes in each unit class mod Q, each prime
p moving class a * p^-1 into class a (its signs the unit mask, its orders
one permutation per distinct residue); _class_oracle keeps them as one
block, labelled by class, and the primes dividing Q as one more block,
one column of its own class each, for the residue-class counts:
positional (the cross-check rows) and multiset (`count --classes`). That
block is _prime_steps, whether v >= p at every grid value for a few given
primes, which density.py also uses to move the primes dividing 2D out of
its sums.
The recurrence makes on the order of x^(3/4) updates per row; the steps of
the primes above x^(1/3) commute, and run as one batch. _oracle_need is the
one cost check of the prime sums, made before any is computed: it refuses
x when the updates of one row are over the prime-count budget (10^8), and,
given a modulus Q, phi(Q) rows whose updates or counts are over the class
budget: 10^9 updates, about 3-4 s (3-4 ns an update for 8 to 24 rows at
x = 10^10 to 4.6*10^10, up to 8 ns for thousands of rows at a small x, on
a shared 2-vCPU VM), and 5*10^6 counts (40 MB of rows; a pass peaks at
about twice that). Every budget refusal, there, in build_spf_table (the
entry budget) and in the CLI, raises BudgetError, a ValueError: the
request is well formed but too large to run.

Grouping by a label is made in one place, _runs: a stable sort of the
rows of a 2-D key array, cut into runs of equal keys, {key: (start,
stop)}. The count tables of almostprime.py and density.py, the rows of
the ordered float sums and _ClassIndex all take their groups from it.

The table's primes up to a bound are read in one place, _primes_to, which
is also the one refusal of a table that stops short of the bound: its
ValueError says "table limit L too small for ... (need bound)", naming
what the caller computes. The oracles (_oracle_primes), the walk of
almostprime.py and its coverage checks all read or check their primes
there. Two readers of the table's primes stay outside the oracle
backend. _ClassIndex groups them by one integer label (class_index(N)
labels by p mod N) and sums log p and 1/p over a range, for the ordered
float sums of almostprime.py; it answers any hi up to the table's limit.
prime_count and prime_count_in_class (`primes`, `primes --mod`) count the
primes _primes_to gives up to a limit, the latter from one bincount of
their residues, so a modulus up to 10^5 costs a pass over the primes
rather than phi(N) oracle rows.

Indexes, oracles, recorded walks and counts are memoised in the table's
memo dict, so they are freed with the table, or earlier by _forget.

Tables round-trip through a small binary cache format: magic "SPF1", the
limit as an 8-byte little-endian integer, then one 4-byte little-endian
entry per n = 2..limit. The cache is written from the table's array,
with no copy, to a temporary file that then replaces the old one, so a
failed write never leaves a torn cache. Loading reads only the entries up
to the limit the caller needs, straight into the table's array, so a warm
cache costs what the command needs rather than what the file holds;
spf_cache_limit reads the header alone, so a caller can pass over a cache
that stops short of its need without reading an entry. Loading rejects a
file whose length does not match its header limit, at any limit, and a
slice whose content fails cheap sieve checks (sampled smallest prime
factors, pinned prime counts), so every load checks what it reads and a
corrupt cache is rebuilt rather than trusted.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from .arith import _units, euler_phi, prime_divisors

DEFAULT_MAX_ENTRIES = 10**8
_MAGIC = b"SPF1"
_CLASS_MODULUS_LIMIT = 10**5
# _sieve_tail gathers its terms about this many entries at a time
_TAIL_TERMS = 1 << 12
# the budgets of _oracle_need: the recurrence updates of one row of prime
# sums; and the class sums' updates, and counts held
_PRIME_COUNT_UPDATE_BUDGET = 10**8
_CLASS_UPDATE_BUDGET = 10**9
_CLASS_COUNT_BUDGET = 5 * 10**6
# the sieve marks, and SpfTable finds, its primes this many entries at a time
_PRIME_SCAN_CHUNK = 1 << 16
# a loaded cache's smallest prime factors are checked at this many points
_CHECK_SAMPLES = 4096
# pi(10^j) for j = 1..8, checked on a loaded cache up to its limit
_PRIME_COUNTS_AT_POWERS_OF_TEN = (4, 25, 168, 1229, 9592, 78498, 664579, 5761455)


class BudgetError(ValueError):
    """A request over a work or memory budget: well formed, but refused
    before it allocates, as too large to run."""


def _check_class_modulus(modulus: int, name: str = "class modulus") -> None:
    """Refuse a class modulus outside 1.._CLASS_MODULUS_LIMIT, naming it
    as name in the message."""
    if not 1 <= modulus <= _CLASS_MODULUS_LIMIT:
        raise ValueError(f"{name} must be in 1..{_CLASS_MODULUS_LIMIT}")


@dataclass(frozen=True)
class FactoredInteger:
    """n together with its prime factorization, ascending (prime, exponent)."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


_MISSING = object()


def _table_memo(fn):
    """Cache fn(table, *args) in table.memo, so results live as long as the
    table and no longer."""

    @wraps(fn)
    def cached(table: SpfTable, *args):
        key = (fn, args)
        # one probe on a hit: a memoised value may be anything, None too
        value = table.memo.get(key, _MISSING)
        if value is _MISSING:
            value = table.memo[key] = fn(table, *args)
        return value

    return cached


def _forget(table: SpfTable, x: int) -> None:
    """Drop the memo entries of the calls whose first argument is x: the
    oracles, recorded walks and counts made for one x all take x first. An
    entry of another call that equals x by chance is only built again."""
    for key in [key for key in table.memo if key[1][:1] == (x,)]:
        del table.memo[key]


def _runs(keys: np.ndarray) -> tuple[np.ndarray, dict]:
    """The rows of the 2-D array keys grouped by equal rows, the one
    grouping by a label: (order, runs), order a stable sort of the row
    indices by key, and runs {key row as a tuple: (start, stop)}, whose
    rows are order[start:stop]."""
    n = len(keys)
    if not keys.shape[1]:
        # keys of no column are all equal, one run
        return np.arange(n), {(): (0, n)} if n else {}
    # lexsort takes its last key first
    order = np.lexsort(keys.T[::-1])
    grouped = keys[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (grouped[1:] != grouped[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    bounds = [*starts.tolist(), n]
    firsts = map(tuple, grouped[starts].tolist())
    return order, dict(zip(firsts, zip(bounds, bounds[1:])))


class _ClassIndex:
    """The primes grouped by an integer label, ascending within each group,
    with their logs and reciprocals, for the float sums of
    almostprime._ordered_stats: count, sum of log p and sum of 1/p over a
    range of one label.

    Range sums are computed by summing the group slice directly; prefix-sum
    differences would carry absolute error on the order of the full prefix
    magnitude, which matters for the identity checks downstream.
    """

    def __init__(self, primes: np.ndarray, labels: np.ndarray):
        order, groups = _runs(labels[:, None])
        # label -> (first, one past last) position of its group
        self._groups = {label: run for (label,), run in groups.items()}
        self._primes = primes[order]
        # one float copy of the primes, which their reciprocals then take
        floats = self._primes.astype(np.float64)
        self._logs = np.log(floats)
        self._recips = np.divide(1.0, floats, out=floats)

    def stats(self, label: int, lo: int, hi: int) -> tuple[int, float, float]:
        """(count, sum of log p, sum of 1/p) over labelled primes in (lo, hi]."""
        i0, i1 = self._groups.get(label, (0, 0))
        j0, j1 = self._primes[i0:i1].searchsorted((lo, hi), side="right").tolist()
        if j1 <= j0:
            return 0, 0.0, 0.0
        j0 += i0
        j1 += i0
        return (
            j1 - j0,
            float(np.add.reduce(self._logs[j0:j1])),
            float(np.add.reduce(self._recips[j0:j1])),
        )


def _grid_values(x: int) -> np.ndarray:
    """The v = x // m at each position of the layout the prime sums and the
    oracle share: position v for v <= r = isqrt(x), then position r + i for
    v = x // i, i = 1..r."""
    r = math.isqrt(x)
    return np.concatenate((np.arange(r + 1), x // np.arange(1, r + 1)))


def _prime_steps(x: int, primes) -> np.ndarray:
    """Whether v >= p, as bool, at every grid position (rows, laid out as
    _grid_values) for each of the given primes (columns): the step each
    prime adds to the count of the primes up to v, so that a caller can
    move a few primes out of a prime sum, or count them on their own."""
    return _grid_values(x)[:, None] >= np.asarray(primes, dtype=np.int64)


def _sieve_rows(
    x: int, primes: np.ndarray, rows: np.ndarray, signs: np.ndarray, orders=None
) -> None:
    """Lucy_Hedgehog's recurrence, in place, on rows of sums laid out as
    _grid_values: one row (shape (n,)) or R coupled rows (shape (n, R),
    grid-major). rows starts as the sums of f(n) over 2 <= n <= v, for f
    completely multiplicative; for each prime p <= isqrt(x) (the given
    primes, ascending) it takes out f(p) (S(v // p) - S(p - 1)) at every
    v >= p^2, S as the smaller primes left it, leaving the sums of f(p) over
    the primes p <= v.

    Each prime's step is data: signs[j] is f(primes[j]), 0 or +-1 for one
    row, 0 or 1 for R rows, and orders[j] (R rows only) is the permutation
    f(primes[j]) makes of the rows: row i takes the term of row
    orders[j][i]. A prime of sign 0 takes no step. One row reads 1-D
    views, with no column gather. The primes with p^3 > x, that is
    p > x // p^2, go in one batch (_sieve_tail).
    """
    r = math.isqrt(x)
    # views: small[v] is the sum at v <= r, large[i] the sum at x // i (i >= 1)
    small, large = rows[: r + 1], rows[r:]
    tops = x // (primes * primes)
    # p^3 <= x exactly when p <= x // p^2: a prefix of the ascending primes
    head = int(np.count_nonzero(primes <= tops))
    for j, (p, sign) in enumerate(zip(primes[:head].tolist(), signs[:head].tolist())):
        if not sign:
            continue
        order = None if orders is None else orders[j]
        below = small[p - 1] if order is None else small[p - 1][order]
        top = min(r, x // (p * p))
        # S(x // (i p)) is large[i p] while i p <= r, and small[...] beyond
        split = min(top, r // p)
        i = np.arange(split + 1, top + 1, dtype=np.int64)
        # each term is made before its update runs, so it reads S as it was
        term = _term(large[p : split * p + 1 : p], below, order)
        _take_out(large[1 : split + 1], term, sign)
        term = _term(small.take(x // (i * p), axis=0), below, order)
        _take_out(large[split + 1 : top + 1], term, sign)
        if p * p <= r:
            # S(v // p) for v = p^2..r is S(w) for w = p..r // p, each p times
            term = _term(small[p : r // p + 1], below, order)
            term = np.repeat(term, p, axis=0)[: r + 1 - p * p]
            _take_out(small[p * p :], term, sign)
    # the primes past the head that take a step
    tail = head + np.flatnonzero(signs[head:])
    if len(tail):
        orders = None if orders is None else orders[tail]
        _sieve_tail(x, rows, primes[tail], tops[tail], signs[tail], orders)


def _sieve_tail(
    x: int, rows: np.ndarray, primes: np.ndarray, tops: np.ndarray, signs, orders
) -> None:
    """The steps of _sieve_rows for the primes p with p^3 > x (ascending,
    with their tops x // p^2, signs and orders), all at once. Such a step
    updates only large[i] for i <= x // p^2 < p. It reads small, which no
    prime above x^(1/4) updates, and large[i p] with i p >= p, which no such
    step updates; so the steps commute, and each reads the rows as the
    primes below x^(1/3) left them. The terms go in chunks of consecutive
    primes of about _TAIL_TERMS entries, ordered by target i, so one
    reduceat sums each target's terms.
    """
    r = math.isqrt(x)
    small, large = rows[: r + 1], rows[r:]
    per_chunk = max(_TAIL_TERMS // (rows.size // len(rows)), 1)
    total = np.cumsum(tops)
    cuts = np.searchsorted(total, np.arange(per_chunk, total[-1], per_chunk), "right")
    bounds = sorted({0, *cuts.tolist(), len(primes)})
    for a, b in zip(bounds, bounds[1:]):
        top = int(tops[a])
        # terms[i - 1]: the primes of the chunk whose step updates large[i]
        terms = np.searchsorted(-tops[a:b], -np.arange(1, top + 1), "right")
        starts = np.concatenate(([0], np.cumsum(terms)[:-1]))
        i = np.repeat(np.arange(1, top + 1), terms)
        j = a + np.arange(len(i)) - np.repeat(starts, terms)
        p = primes[j]
        ip = i * p
        # positions in rows: large[i p] is rows[r + i p]
        at = np.where(ip <= r, r + ip, x // ip)
        if orders is None:
            term = rows.take(at) - small.take(p - 1)
            term *= signs[j]
        else:
            order = orders[j]
            term = np.take_along_axis(rows.take(at, axis=0), order, axis=1)
            term -= np.take_along_axis(small.take(p - 1, axis=0), order, axis=1)
        large[1 : top + 1] -= np.add.reduceat(term, starts, axis=0)


def _term(source, below, order):
    """source - below as a fresh array, its columns in the given order (one
    row: as it is)."""
    if order is not None:
        source = source.take(order, axis=1)
    # a gathered source is a fresh array: below comes off in place
    return np.subtract(source, below, out=source if source.base is None else None)


def _take_out(target, term, sign) -> None:
    """target -= sign * term, in place."""
    (np.subtract if sign == 1 else np.add)(target, term, out=target)


def _prime_sums(x: int, primes: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Sum of f(p) over the primes p <= v at every v in {x // m}, laid out
    as _grid_values, for f completely multiplicative with period len(f)
    (f(n) = f[n % len(f)]), so every f(p) is 0, +1 or -1."""
    period = len(f)
    f = f.astype(np.int64)
    cumulative = np.concatenate(([0], np.cumsum(f[1:])))
    per_period = int(f.sum())
    grid = _grid_values(x)
    # sum of f(n) over 2 <= n <= v
    sums = (grid // period) * per_period + cumulative[grid % period] - f[1 % period]
    sums[:2] = 0
    _sieve_rows(x, primes, sums, f[primes % period])
    return sums


def _class_sums(x: int, primes: np.ndarray, modulus: int) -> tuple[list, np.ndarray]:
    """(units, sums): the units a mod modulus, ascending, and the count of
    the primes p <= v with p = a at every v in {x // m}, one column per unit
    and one row per grid position (_grid_values).

    The recurrence runs on f(n) = e_(n mod modulus) for n prime to modulus,
    and 0 otherwise: the primes dividing modulus take out no term, and each
    other prime p moves the counts of class a * p^-1 to class a."""
    units = _units(modulus)
    column = np.full(modulus, -1, dtype=np.int64)
    column[units] = np.arange(len(units))
    # the steps go before the start sums: made after them, they raised the
    # peak RSS of criterion 12 by 3-5 MiB (heap layout, not data)
    residues = primes % modulus
    unit = column[residues] >= 0
    orders = None
    if len(units) > 1:
        # one permutation per distinct unit residue a: row j takes the term
        # of class units[j] * a^-1
        keys, at = np.unique(residues[unit], return_inverse=True)
        unit_array = np.array(units, dtype=np.int64)
        inverses = [pow(a, -1, modulus) for a in keys.tolist()]
        perms = [column[unit_array * a % modulus] for a in inverses]
        orders = np.zeros((len(primes), len(units)), dtype=np.int64)
        orders[unit] = np.reshape(perms, (-1, len(units)))[at]
    grid = _grid_values(x)
    # the n in 1..v with n = a: a, a + modulus, ... (modulus itself for a = 0)
    first = np.array([a or modulus for a in units], dtype=np.int64)
    sums = grid[:, None] - first
    sums //= modulus
    sums += 1
    # n = 1 is not a prime
    sums[:, column[1 % modulus]] -= grid >= 1
    # one row reads 1-D views; its one order is the identity
    _sieve_rows(x, primes, sums if orders is not None else sums[:, 0], unit, orders)
    return units, sums


class _PrimeCountOracle:
    """Prime counts at every v in {x // m}, the only values the walker's
    last position asks for when the product is at most x: hi is x over the
    leading product, and lo, a leading prime or one less, is at most
    isqrt(x).

    blocks holds (labels, counts) pairs, built by the caller: counts has
    one column per label (a 1-D array is one column), grid-major, each
    column the count of the primes up to v with that label, laid out as
    _grid_values. No block is copied. columns maps each label to its
    position in what count_ranges returns.
    """

    def __init__(self, x: int, blocks: list):
        self._x = x
        self._r = math.isqrt(x)
        # 2-D views: a 1-D block is one column
        self._blocks = [counts.reshape(len(counts), -1) for _, counts in blocks]
        labels = [label for block_labels, _ in blocks for label in block_labels]
        self.columns = {label: j for j, label in enumerate(labels)}

    def count_ranges(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The primes of every label, in column order, summed over the
        ranges lo[i] < p <= hi[i], every bound in {x // m}, so at least 1.
        The grid positions of the bounds are found once for all labels."""
        r, x = self._r, self._x
        at_hi, at_lo = (np.where(v <= r, v, r + x // v) for v in (hi, lo))
        return np.concatenate(
            [
                counts.take(at_hi, axis=0).sum(axis=0)
                - counts.take(at_lo, axis=0).sum(axis=0)
                for counts in self._blocks
            ]
        )


def _oracle_need(x: int, modulus: int | None = None) -> int:
    """The table limit the prime sums for x need: isqrt(x), the one cost
    check before any sum is made.

    Raises ValueError when modulus is outside the class range, then
    BudgetError when r * isqrt(r) (r = isqrt(x)) exceeds
    _PRIME_COUNT_UPDATE_BUDGET: that is about x^(3/4), and about twice the
    updates Lucy_Hedgehog's recurrence makes (measured at x = 10^8 to
    10^11). Given a modulus, the phi(modulus) rows of _class_sums are
    checked too: rows * r * isqrt(r) updates over _CLASS_UPDATE_BUDGET, or
    rows * (2 r + 1) counts held over _CLASS_COUNT_BUDGET.
    """
    if modulus is not None:
        _check_class_modulus(modulus)
    r = math.isqrt(x)
    work = r * math.isqrt(r)
    if work > _PRIME_COUNT_UPDATE_BUDGET:
        raise BudgetError(
            f"prime counts to x = {x} need about x^(3/4) = {work} updates,"
            f" which exceeds the budget of {_PRIME_COUNT_UPDATE_BUDGET}"
        )
    if modulus is not None:
        rows = euler_phi(modulus)
        held = rows * (2 * r + 1)
        if rows * work > _CLASS_UPDATE_BUDGET or held > _CLASS_COUNT_BUDGET:
            raise BudgetError(
                f"class counts to x = {x} mod {modulus} need {rows} rows of"
                f" {2 * r + 1} counts and about {rows * work} updates, which"
                f" exceeds the budget of {_CLASS_COUNT_BUDGET} counts and"
                f" {_CLASS_UPDATE_BUDGET} updates"
            )
    return r


def _primes_to(table: SpfTable, bound: int, what: str) -> np.ndarray:
    """The table's primes up to bound (none when bound < 2): the one reader
    of the table's primes up to a bound, and the one refusal of a table that
    stops short of it, a ValueError naming `what` the caller computes."""
    if bound > table.limit:
        raise ValueError(f"table limit {table.limit} too small for {what} (need {bound})")
    return table.primes[: np.searchsorted(table.primes, bound, side="right")]


def _oracle_primes(
    table: SpfTable, x: int, modulus: int | None = None
) -> np.ndarray:
    """The table's primes up to isqrt(x), all that the prime sums for x
    read (the class sums, given a modulus). Raises what _oracle_need raises,
    then what _primes_to raises."""
    return _primes_to(table, _oracle_need(x, modulus), f"prime counts to x = {x}")


@_table_memo
def _prime_count_grid(table: SpfTable, x: int) -> np.ndarray:
    """pi(v) at every v in {x // m}, laid out as _grid_values. Read-only,
    since the memo hands the one array to every caller."""
    pi = _prime_sums(x, _oracle_primes(table, x), np.ones(1, dtype=np.int64))
    pi.setflags(write=False)
    return pi


@_table_memo
def _class_oracle(table: SpfTable, x: int, modulus: int) -> _PrimeCountOracle:
    """Counts of the primes p = a (mod modulus) at every v in {x // m}, one
    label a per class: the unit classes from _class_sums, and each prime
    dividing modulus under its own class, which holds no other prime: the
    phi(modulus) columns of _class_sums are one block, and the steps of the
    primes dividing modulus (_prime_steps) one more."""
    units, sums = _class_sums(x, _oracle_primes(table, x, modulus), modulus)
    sums.setflags(write=False)
    divisors = prime_divisors(modulus) if modulus > 1 else ()
    labels = [p % modulus for p in divisors]
    return _PrimeCountOracle(x, [(units, sums), (labels, _prime_steps(x, divisors))])


def _mark_primes(spf: np.ndarray) -> np.ndarray:
    """Set spf[n] = n at every n >= 2 that the sieve passes left at 0, the
    primes, and return them ascending as int64. One scan, a chunk at a
    time, so no temporary as long as the table is made."""
    found = []
    for start in range(2, len(spf), _PRIME_SCAN_CHUNK):
        chunk = spf[start : start + _PRIME_SCAN_CHUNK]
        at = np.flatnonzero(chunk == 0)
        primes = (at + start).astype(spf.dtype)
        chunk[at] = primes
        found.append(primes)
    return np.concatenate(found, dtype=np.int64)


def _fixed_points(spf: np.ndarray) -> np.ndarray:
    """The n >= 2 with spf[n] == n, ascending, as int64. The comparison runs
    a chunk at a time, so no temporary as long as the table is made."""
    found = []
    for start in range(2, len(spf), _PRIME_SCAN_CHUNK):
        chunk = spf[start : start + _PRIME_SCAN_CHUNK]
        n = np.arange(start, start + len(chunk), dtype=spf.dtype)
        found.append(np.flatnonzero(chunk == n) + start)
    return np.concatenate(found).astype(np.int64, copy=False)


class SpfTable:
    """Smallest prime factors for 2..limit (spf[0] = spf[1] = 0)."""

    def __init__(self, limit: int, spf: np.ndarray):
        if limit < 2:
            raise ValueError("limit must be >= 2")
        if spf.shape != (limit + 1,):
            raise ValueError("spf array does not match limit")
        self.limit = int(limit)
        self.spf = spf
        self.spf.setflags(write=False)
        # indexes and counts over this table, keyed by the call (_table_memo)
        self.memo: dict = {}

    @cached_property
    def primes(self) -> np.ndarray:
        """The primes up to limit, ascending, as int64: the table's fixed
        points, found on first use, unless build_spf_table has set the
        primes its own scan found."""
        return _fixed_points(self.spf)

    @cached_property
    def primes_list(self) -> list[int]:
        return self.primes.tolist()

    @_table_memo
    def class_index(self, modulus: int) -> _ClassIndex:
        """The primes labelled by their residue mod modulus."""
        _check_class_modulus(modulus)
        # the narrowest label type: numpy radix-sorts 8- and 16-bit keys
        labels = (self.primes % modulus).astype(np.min_scalar_type(modulus - 1))
        return _ClassIndex(self.primes, labels)


def build_spf_table(limit: int, max_entries: int = DEFAULT_MAX_ENTRIES) -> SpfTable:
    """Sieve smallest prime factors for 2..limit.

    Raises BudgetError when limit + 1 exceeds the entry budget; pass a
    larger max_entries to opt in to bigger tables.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit + 1 > max_entries:
        raise BudgetError(
            f"table of {limit + 1} entries exceeds the budget of {max_entries}"
        )
    if limit >= 2**32:
        raise ValueError("limit must fit in 32 bits")
    spf = np.zeros(limit + 1, dtype=np.uint32)
    # every composite n has its smallest prime q at q*q <= n, so storing p
    # at p*p, p*p + p, ... for each p <= isqrt(limit), the largest first,
    # leaves q at n: q's pass is the last that reaches n. An odd p skips
    # its even multiples, which the pass of 2, the last, covers. The p come
    # from the table to isqrt(limit), built the same way.
    root = math.isqrt(limit)
    base = build_spf_table(root).primes.tolist() if root >= 2 else []
    for p in reversed(base):
        spf[p * p :: p if p == 2 else 2 * p] = p
    primes = _mark_primes(spf)
    table = SpfTable(limit, spf)
    table.primes = primes
    return table


def prime_count(table: SpfTable, x: int) -> int:
    """pi(x): number of primes <= x. Requires x <= table.limit."""
    return len(_primes_to(table, x, f"the primes up to x = {x}"))


@_table_memo
def _class_counts(table: SpfTable, x: int, modulus: int) -> np.ndarray:
    """The number of primes p <= x in each class mod modulus, one bincount
    of their residues."""
    residues = _primes_to(table, x, f"the primes up to x = {x}") % modulus
    return np.bincount(residues, minlength=modulus)


def prime_count_in_class(table: SpfTable, x: int, a: int, modulus: int) -> int:
    """Number of primes p <= x with p = a (mod modulus). Requires x <=
    table.limit."""
    _check_class_modulus(modulus)
    if not 0 <= a < modulus:
        raise ValueError("class must satisfy 0 <= a < modulus")
    return int(_class_counts(table, x, modulus)[a])


def factorize(table: SpfTable, n: int) -> FactoredInteger:
    """Factor n by walking the spf table. Requires 1 <= n <= table.limit."""
    if not 1 <= n <= table.limit:
        raise ValueError(f"n = {n} outside 1..{table.limit}")
    factors = []
    m = n
    while m > 1:
        p = int(table.spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    return FactoredInteger(n, tuple(factors))


def save_spf_cache(table: SpfTable, path: str) -> None:
    """Write the table in the binary cache format, atomically: the bytes go
    to a temporary file in the same directory, which then replaces path, so
    a failed write leaves any earlier cache as it was."""
    # one writer per process id, so concurrent writers never share the file
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", table.limit))
            # written from the array itself: a view, not a copy, on a
            # little-endian host
            fh.write(np.ascontiguousarray(table.spf[2:], dtype="<u4"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sample_points(limit: int) -> np.ndarray:
    """The n at which _check_content tests a table: evenly spaced in
    2..limit, ascending, with repeats when the limit is small (a repeat
    only checks the same n twice)."""
    return np.linspace(2, limit, _CHECK_SAMPLES).astype(np.int64)


def _check_content(table: SpfTable) -> None:
    """Raise ValueError unless the table looks like a sieve: at each sampled
    n, spf[n] >= 2 divides n and is its own smallest prime factor, and pi
    matches its known values at every power of ten up to the limit."""
    n = _sample_points(table.limit)
    s = table.spf[n].astype(np.int64)
    # s >= 2 is checked before the division, and s | n before s indexes
    if (s < 2).any() or (n % s).any() or (table.spf[s] != s).any():
        raise ValueError("cache content is not a smallest-prime-factor table")
    for j, expected in enumerate(_PRIME_COUNTS_AT_POWERS_OF_TEN, start=1):
        if 10**j > table.limit:
            break
        got = prime_count(table, 10**j)
        if got != expected:
            raise ValueError(f"cache gives pi(10^{j}) = {got}, not {expected}")


def _read_cache_header(fh, max_entries: int) -> int:
    """The limit in the header of the SPF1 cache open as fh, which is left
    at the first entry. Raises ValueError on a bad magic or header limit,
    or a file whose length does not match its header limit, and BudgetError
    on a header limit over the entry budget."""
    magic = fh.read(4)
    if magic != _MAGIC:
        raise ValueError(f"bad cache magic {magic!r}")
    raw = fh.read(8)
    if len(raw) != 8:
        raise ValueError("truncated cache header")
    (file_limit,) = struct.unpack("<Q", raw)
    if file_limit < 2:
        raise ValueError(f"bad cache limit {file_limit}")
    if file_limit + 1 > max_entries:
        raise BudgetError(
            f"cached table of {file_limit + 1} entries exceeds the budget"
            f" of {max_entries}"
        )
    # the 12-byte header and the whole payload, however much is read
    if os.fstat(fh.fileno()).st_size != 12 + 4 * (file_limit - 1):
        raise ValueError("cache payload length does not match limit")
    return file_limit


def spf_cache_limit(path: str, max_entries: int = DEFAULT_MAX_ENTRIES) -> int:
    """The table limit of the cache at path, from its header alone, checked
    as load_spf_cache checks it; no entry is read."""
    with open(path, "rb") as fh:
        return _read_cache_header(fh, max_entries)


def load_spf_cache(
    path: str, max_entries: int = DEFAULT_MAX_ENTRIES, limit: int | None = None
) -> SpfTable:
    """Load a table written by save_spf_cache, reading only its entries up
    to limit: the table's limit is the smaller of limit and the file's, and
    the whole file when limit is None.

    Raises ValueError on a bad magic or header limit, a file whose length
    does not match its header limit (whatever limit is asked for), or a
    slice that fails _check_content, and BudgetError on a header limit
    over the entry budget.
    """
    if limit is not None and limit < 2:
        raise ValueError("limit must be >= 2")
    with open(path, "rb") as fh:
        file_limit = _read_cache_header(fh, max_entries)
        if limit is None or limit > file_limit:
            limit = file_limit
        spf = np.zeros(limit + 1, dtype="<u4")
        # the slice goes straight into the table's array
        if fh.readinto(spf[2:].view(np.uint8)) != 4 * (limit - 1):
            raise ValueError("cache payload length does not match limit")
    table = SpfTable(int(limit), spf)
    _check_content(table)
    return table
