"""Exact integer/rational combinatorial primitives.

Factorials, binomials, rising/falling factorials, both kinds of Stirling
numbers, second-order Eulerian numbers and the alternating finite-difference
operator.  Everything here is exact: integer tables are filled by their
defining recurrences and rational arithmetic uses ``fractions.Fraction``
(always in lowest terms, positive denominator).

Sign conventions: Stirling cycle numbers are the *unsigned* first kind; signs
are applied at call sites when converting falling factorials to powers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Union

__all__ = [
    "binomial",
    "rising_factorial",
    "falling_factorial",
    "stirling_cycle",
    "stirling_subset",
    "eulerian_second_order",
    "finite_difference",
]

Rational = Union[int, Fraction]


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that it vanishes for k < 0 or k > n.

    Out-of-triangle arguments are routine in the summation identities served
    here, so they return 0 rather than raising.
    """
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def rising_factorial(x: Rational, k: int) -> Rational:
    """x(x+1)...(x+k-1); the empty product (k = 0) is 1.  For a Fraction p/q and k >= 1 it
    is the integer product p(p+q)...(p+(k-1)q) over q^k, reduced once."""
    if k < 0:
        raise ValueError("rising_factorial requires k >= 0")
    if isinstance(x, Fraction) and k:
        p, q = x.numerator, x.denominator
        return Fraction(math.prod(range(p, p + k * q, q)), q**k)
    out: Rational = 1
    for u in range(k):
        out *= x + u
    return out


def falling_factorial(x: Rational, k: int) -> Rational:
    """x(x-1)...(x-k+1); the empty product (k = 0) is 1.  For a Fraction p/q and k >= 1 it
    is the integer product p(p-q)...(p-(k-1)q) over q^k, reduced once."""
    if k < 0:
        raise ValueError("falling_factorial requires k >= 0")
    if isinstance(x, Fraction) and k:
        p, q = x.numerator, x.denominator
        return Fraction(math.prod(range(p, p - k * q, -q)), q**k)
    out: Rational = 1
    for u in range(k):
        out *= x - u
    return out


# --- triangle tables -------------------------------------------------------
#
# Rows are grown on demand and memoized at module level; row n holds entries
# for k = 0..n.  Construction is single-threaded; lookups never mutate
# existing rows.

_cycle_rows: list[list[int]] = [[1]]
_subset_rows: list[list[int]] = [[1]]
_euler2_rows: list[list[int]] = [[1]]

# a row's rule: T(m, k) from m, k, T(m-1, k-1) and T(m-1, k)
_Rule = Callable[[int, int, int, int], int]


def _lookup(rows: list[list[int]], rule: _Rule, n: int, k: int) -> int:
    if n < 0:
        raise ValueError("triangle index requires n >= 0")
    if k < 0 or k > n:
        return 0
    while len(rows) <= n:
        m, prev = len(rows), [0, *rows[-1], 0]  # T(m-1, -1) = T(m-1, m) = 0
        rows.append([rule(m, j, prev[j], prev[j + 1]) for j in range(m + 1)])
    return rows[n][k]


def stirling_cycle(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind (permutations by cycles)."""
    return _lookup(_cycle_rows, lambda m, j, left, up: left + (m - 1) * up, n, k)


def stirling_subset(n: int, k: int) -> int:
    """Stirling number of the second kind (set partitions into k blocks)."""
    return _lookup(_subset_rows, lambda m, j, left, up: left + j * up, n, k)


def eulerian_second_order(n: int, k: int) -> int:
    """Second-order Eulerian number; row n sums to (2n)!/(n! 2^n)."""
    # <<m,j>> = (j+1)<<m-1,j>> + (2m-1-j)<<m-1,j-1>>
    return _lookup(_euler2_rows, lambda m, j, left, up: (j + 1) * up + (2 * m - 1 - j) * left,
                   n, k)


def finite_difference(a: int, f: Callable[[int], Rational]) -> Rational:
    """Alternating binomial difference sum(j=0..a) C(a,j)(-1)^j f(j).

    Annihilates polynomials of degree < a and maps j^a to (-1)^a a!.
    """
    if a < 1:
        raise ValueError("finite_difference requires a >= 1")
    out: Rational = 0
    for j in range(a + 1):
        term = math.comb(a, j) * f(j)
        out = out + term if j % 2 == 0 else out - term
    return out
