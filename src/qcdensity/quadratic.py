"""Root counting for monic quadratics x^2 + bx + c modulo n.

Two independent routes: a direct scan over all residues, and the
multiplicative formula prod(1 + (D/p)) over the primes of n, which is valid
exactly when n is odd, squarefree and coprime to the discriminant D. The
scan has one kernel, _root_count_grid, which evaluates f(x) once for many
forms and moduli, x-major, and finds the roots of every form modulo n by
one floor division of one contiguous prefix by n; _root_counts is its
one-form case, which count_roots_bruteforce calls for a single n, and
verify's quadratic suite calls the kernel once for all of its forms and
moduli. The formula has one kernel too, _formula_counts, which forms the
product for many moduli at once and calls kronecker once per distinct
prime; count_roots_formula validates a single n and calls it, and verify's
quadratic suite calls it once per form for all of its moduli.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import _check_magnitude, kronecker
from .sieve import FactoredInteger

BRUTE_FORCE_LIMIT = 10**6


@dataclass(frozen=True)
class QuadraticForm:
    b: int
    c: int

    def __post_init__(self):
        _check_magnitude(self.b, self.c)

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.c


def _root_count_grid(
    forms: tuple[QuadraticForm, ...], moduli: list[int]
) -> np.ndarray:
    """The number of x in 0..n-1 with x^2 + bx + c = 0 (mod n), by full
    scan, for each n in moduli (rows) and each form (columns).

    f(x) is evaluated once, exactly, for 0 <= x < max(moduli) and every
    form, x-major, so the values of every form at x < n are one contiguous
    prefix, and each n scans its prefix: v = f(x) is a root when
    q * n == v for q = v // n, one floor division of the prefix by the
    scalar n, which numpy does by multiplication. The values take int32
    when they fit and int64 otherwise; forms and moduli whose values would
    not fit int64 raise ValueError rather than wrap.
    """
    if not moduli or min(moduli) < 1:
        raise ValueError("moduli must be positive")
    m, width = max(moduli), len(forms)
    # bounds |x + b|, |x + b| * x and |(x + b) * x + c| for every scanned x;
    # below a negative f(x) it leaves m (m - 1) spare, more than the n - 1
    # by which q * n can fall below f(x), so q * n is exact too
    bound = m * (m - 1 + max(abs(f.b) for f in forms)) + max(abs(f.c) for f in forms)
    if bound >= 2**63:
        raise ValueError("f(x) over the scanned range exceeds int64")
    dtype = np.int32 if bound < 2**31 else np.int64
    x = np.arange(m, dtype=dtype)[:, None]
    vals = x + np.array([f.b for f in forms], dtype=dtype)
    vals *= x
    vals += np.array([f.c for f in forms], dtype=dtype)
    vals = vals.ravel()
    quotients = np.empty_like(vals)
    counts = np.empty((len(moduli), width), dtype=np.int64)
    for row, n in enumerate(moduli):
        v, q = vals[: n * width], quotients[: n * width]
        np.floor_divide(v, n, out=q)
        q *= n
        # the roots are few: each one's position, x * width plus its
        # form's column, counts it
        counts[row] = np.bincount((q == v).nonzero()[0] % width, minlength=width)
    return counts


def _root_counts(form: QuadraticForm, moduli: list[int]) -> list[int]:
    """_root_count_grid for the one form: its count at each n in moduli."""
    return _root_count_grid((form,), moduli)[:, 0].tolist()


def count_roots_bruteforce(form: QuadraticForm, n: int) -> int:
    """Number of x in 0..n-1 with x^2 + bx + c = 0 (mod n), by full scan."""
    if not 1 <= n <= BRUTE_FORCE_LIMIT:
        raise ValueError(f"n must be in 1..{BRUTE_FORCE_LIMIT}")
    return _root_counts(QuadraticForm(form.b % n, form.c % n), [n])[0]


def _formula_counts(d: int, primes: np.ndarray) -> np.ndarray:
    """prod(1 + (d/p)) over each modulus's primes: the last axis of the
    integer array primes lists one modulus's primes, padded with 1, which
    adds a factor 1; the product runs over that axis. kronecker gives (d/p)
    once per distinct prime of the array. No modulus is validated here."""
    values, inverse = np.unique(primes, return_inverse=True)
    factors = np.array(
        [1 + kronecker(d, p) if p > 1 else 1 for p in values.tolist()], dtype=np.int64
    )
    return factors[inverse.reshape(primes.shape)].prod(axis=-1)


def count_roots_formula(form: QuadraticForm, n: FactoredInteger) -> int:
    """Root count as prod(1 + (D/p)) over the primes p of n.

    Requires n odd, squarefree, coprime to D = b^2 - 4c; rejects anything
    else rather than guessing (no lifting to prime powers, no special
    handling of shared factors). Every prime of n is checked before the
    product is taken.
    """
    d = form.discriminant
    for p, e in n.factors:
        if p == 2:
            raise ValueError("formula requires odd n")
        if e > 1:
            raise ValueError("formula requires squarefree n")
        if d % p == 0:
            raise ValueError("formula requires gcd(n, discriminant) = 1")
    primes = np.array([p for p, _ in n.factors], dtype=np.int64)
    return int(_formula_counts(d, primes))


def has_max_root_count(form: QuadraticForm, n: FactoredInteger) -> bool:
    """True iff the congruence has the full 2^k roots (k = number of primes).

    Equivalent to (D/p) = +1 for every prime p of n, since each prime adds
    a factor 1 + (D/p) of 0 or 2; vacuously true for n = 1.
    """
    return count_roots_formula(form, n) == 2 ** len(n.factors)
