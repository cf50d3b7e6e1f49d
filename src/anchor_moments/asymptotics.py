"""Leading-term constants, interior diagnostic sums and remainder fits.

The total expected cost behaves like C(a) * n^(1-a/2) with
C(a) = Gamma(a/2+1) / (2^(a/2) (1+a)); for odd a the error term is
O(n^-((a-1)/2)).  This module gives C(a) exactly (from _expansion, which owns the
expansion's constants), evaluates the interior sums whose vanishing drives that
estimate (the CLI exposes them as diagnostic ids 1, 2 and 4), builds the diagonal
coefficient family whose Beta-weighted sum reproduces C(a) exactly, and fits
empirical remainder exponents on n-grids.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

from ._expansion import leading_constant
from .combinatorics import finite_difference
from .moments import (_ANCHOR_SUM_N_GUARD, EXACT_N_GUARD, MomentQuery, _moment_denominator,
                      _scaled_left_moment, _size_guard, signed_moment_total, total_moment_float)
from .special_functions import HalfIntValue, _beta_tail, beta_exact

__all__ = [
    "AsymptoticReport",
    "CoefficientSet",
    "IdentityCheckResult",
    "leading_constant",
    "vanishing_signed_sum",
    "vanishing_tail_correction_sum",
    "abel_anchor_sum",
    "diagonal_coefficients",
    "verify_diagonal_beta_identity",
    "remainder_diagnostic",
]

_FLOAT_NOISE_FLOOR = 1e-13


class IdentityCheckResult(namedtuple("IdentityCheckResult", "name passed residual detail",
                                     defaults=("",))):
    """Outcome of one verified identity: pass/fail plus a float residual."""

    __slots__ = ()
    name: str
    passed: bool
    residual: float
    detail: str


class CoefficientSet(namedtuple("CoefficientSet", "a entries")):
    """Diagonal coefficients b[(q1, p1)] with q1 + p1 = (a-1)/2, a odd."""

    __slots__ = ()
    a: int
    entries: dict[tuple[int, int], Fraction]


class AsymptoticReport(namedtuple("AsymptoticReport", "a constant constant_float n_grid measured "
                                                      "normalized fitted_exponent degenerate_fit")):
    __slots__ = ()
    a: int
    constant: HalfIntValue
    constant_float: float
    n_grid: tuple[int, ...]
    measured: tuple[float, ...]
    normalized: tuple[float, ...]
    fitted_exponent: float
    degenerate_fit: bool


def vanishing_signed_sum(n: int, a: int) -> Fraction:
    """Diagnostic sum 1 (odd a): the reduced total of the signed parts.

    sum(j=0..a) sum(i=1..n) n^(j-a) C(a,j)(-1)^j (i-1/2)^(a-j)
    * i^rising(j) / (n+1)^rising(j) = sum_i E(t_i - X_i)^a, exact: the closed
    form moments.signed_moment_total.  Equals minus the sum of the
    per-sensor signed parts, which is in fact exactly zero for every odd a:
    the reflection X_i <-> 1 - X_(n+1-i) maps t_i to 1 - t_(n+1-i) and flips
    the sign of the signed integrand, so terms cancel pairwise.  The
    normalized bound n^((a-1)/2)|.| therefore holds trivially; the sum is
    kept as an oracle target for the reduction identity itself.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if a < 1 or a % 2 == 0:
        raise ValueError("a must be an odd natural number")
    return signed_moment_total(MomentQuery(n=n, a=a))


def vanishing_tail_correction_sum(n: int, a: int) -> Fraction:
    """Diagnostic sum 2 (odd a): reduced-coefficient left-tail total, exact.

    sum_i A_i * C(n,i) i * int_0^{t_i} x^(i-1)(1-x)^(n-i) dx with
    A_i = (n^a (n+1)^rising(a))^-1 * sum_j C(a,j)(-1)^j n^j (i-1/2)^(a-j)
    * i^rising(j) (n+a)^falling(a-j).  Since (n+1)^rising(a) / (n+a)^falling(a-j)
    = (n+1)^rising(j) and E X_i^j = i^rising(j) / (n+1)^rising(j),
    A_i = E(t_i - X_i)^a, and the weighted integral is I(t_i; i, n-i+1).  In
    integers, E(t_i - X_i)^a = m_i / ((2n)^a (n+1)^rising(a)) by the Pearson
    recurrence scaled by l_k = L_k (2n)^k (n+1)^rising(k), and the binomial tail
    I(t_i; i, n-i+1) = P(Bin(n, t_i) >= i) = S_i / (2n)^n.  So the sum is
    sum_i m_i S_i / ((2n)^(n+a) (n+1)^rising(a)), exact, reduced once.  Since
    m_(n+1-i) = -m_i and S_(n+1-i) = (2n)^n - S_i, each pair gives
    m_i (2 S_i - (2n)^n), summed over i > n/2 (the middle of odd n has m_i = 0).
    Normalized size n^((a-1)/2)|.| stays bounded.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if a < 1 or a % 2 == 0:
        raise ValueError("a must be an odd natural number")
    _size_guard(n, EXACT_N_GUARD, "tail-correction sum is exact-path only (n <= {limit}, got {n})")
    scale = (2 * n) ** n
    total = sum(_scaled_left_moment(n, a, i, 0, 1)
                * (2 * _beta_tail(2 * i - 1, 2 * n, i, n - i + 1) - scale)  # 2 S_i - (2n)^n
                for i in range(n // 2 + 1, n + 1))
    return Fraction(total, scale * _moment_denominator(n, a))


def abel_anchor_sum(n: int, c: float) -> float:
    """Diagnostic sum 4: sum_i 2i C(n,i) (1-t_i)^(n-i+1) t_i^(i+c), float.

    Grows like n^(3/2) * (2/sqrt(2 pi)) * B(c+3/2, 3/2).  Each term is
    2 f_i(t_i) t_i^(c+1) (1-t_i) with f_i the Beta(i, n-i+1) density; summed exactly in
    passes of sensors and rounded once, from terms good to about 1e-15, up to n = 10^7.
    A sum that would be subnormal or 0, as large c makes it, is refused with ValueError.
    """
    if n < 1:
        raise ValueError("n must lie in [1, 10^7]")
    _size_guard(n, _ANCHOR_SUM_N_GUARD, "n must lie in [1, 10^7]")
    if not 0 <= c < math.inf:  # also refuses NaN
        raise ValueError("c must lie in [0, inf)")
    from ._float_route import anchor_sum  # numpy, on first use
    total = anchor_sum(n, c)
    if total < sys.float_info.min:
        raise ValueError(f"the sum at n = {n}, c = {c:g} is {total:g}, "
                         "outside the range of normal floats")
    return total


def diagonal_coefficients(a: int) -> CoefficientSet:
    """Exact diagonal coefficients b[(q1, p1)], q1 + p1 = (a-1)/2, odd a.

    b = sum(j=0..a) C(a,j)(-1)^(j+1) sum(k=1..j)
        (k^2/2 - (a-j)^2/2)^q1 / q1! * ((j-k)(j-1/2) - (j-k)^2/2)^p1 / p1!
    """
    if a < 1 or a % 2 == 0:
        raise ValueError("a must be an odd natural number")
    if a > 15:
        raise ValueError("diagonal coefficients supported for a <= 15")
    half = (a - 1) // 2
    entries: dict[tuple[int, int], Fraction] = {}
    for q1 in range(half + 1):
        p1 = half - q1

        def inner(j: int) -> Fraction:
            total = Fraction(0)
            for k in range(1, j + 1):
                first = (Fraction(k * k - (a - j) ** 2, 2)) ** q1
                second = ((j - k) * Fraction(2 * j - 1, 2) - Fraction((j - k) ** 2, 2)) ** p1
                total += first * second
            return total

        entries[(q1, p1)] = -finite_difference(a, inner) / math.factorial(q1) / math.factorial(p1)
    return CoefficientSet(a=a, entries=entries)


def verify_diagonal_beta_identity(a: int) -> IdentityCheckResult:
    """Check sum 2/sqrt(2 pi) B(a-p1+1/2, 3/2) b[(q1,p1)] == leading_constant(a).

    Both sides are rational multiples of sqrt(2 pi), so the check passes on
    exact equality only.  The residual is the float difference, which also
    reads 0.0 when the sides differ by less than float resolution.
    """
    coeffs = diagonal_coefficients(a)
    prefactor = HalfIntValue(Fraction(2), -1, -1)  # 2 / sqrt(2 pi)
    lhs = HalfIntValue(Fraction(0))
    for (q1, p1), b in coeffs.entries.items():
        beta = beta_exact(Fraction(2 * (a - p1) + 1, 2), Fraction(3, 2))
        lhs = lhs + prefactor * beta * b
    rhs = leading_constant(a)
    exact = lhs == rhs
    residual = 0.0 if exact else abs(lhs.to_float() - rhs.to_float())
    return IdentityCheckResult(
        name=f"diagonal-beta-identity[a={a}]",
        passed=exact,
        residual=residual,
        detail=f"lhs={lhs} rhs={rhs} exact={exact}",
    )


def remainder_diagnostic(a: int, n_grid: list[int] | tuple[int, ...]) -> AsymptoticReport:
    """Measure the total cost on a grid and fit the remainder exponent.

    measured = total cost by total_moment_float, the route every command uses (the closed
    form for even a; for odd a the expansion from N0(a) on, else the float route, which
    refuses n past its size limit); normalized = measured / n^(1-a/2),
    which approaches leading_constant(a).  The fit regresses
    log|measured - C n^(1-a/2)| on log n: the least-squares slope of those
    float points, computed exactly and rounded once.  Points whose residual is
    below the float noise floor relative to the total are dropped, and a fit
    with fewer than two usable points is reported as degenerate (exponent NaN)
    rather than failed.
    """
    grid = tuple(int(n) for n in n_grid)
    if len(grid) < 2:
        raise ValueError("n_grid needs at least 2 points")
    if any(hi <= lo for lo, hi in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    constant = leading_constant(a)
    try:
        c_float = constant.to_float()
    except OverflowError:
        raise ValueError(f"C({a}) exceeds the float range") from None
    measured = []
    normalized = []
    residuals = []
    for n in grid:
        scale = float(n) ** (1.0 - a / 2.0)
        if scale < sys.float_info.min:  # a subnormal scale loses digits of normalized
            raise ValueError(f"n^(1-a/2) underflows to {scale:g} at n = {n}, a = {a}")
        q = MomentQuery(n=n, a=a)
        s = total_moment_float(q).total
        measured.append(s)
        normalized.append(s / scale)
        residuals.append(s - c_float * scale)
    usable = [(math.log(n), math.log(abs(r))) for n, s, r in zip(grid, measured, residuals)
              if abs(r) > _FLOAT_NOISE_FLOOR * abs(s)]
    if len(usable) >= 2:
        xs, ys = zip(*((Fraction(x), Fraction(y)) for x, y in usable))
        x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = float(sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
                      / sum((x - x_mean) ** 2 for x in xs))
        degenerate = len(usable) < len(grid)
    else:
        slope = float("nan")
        degenerate = True
    return AsymptoticReport(
        a=a,
        constant=constant,
        constant_float=c_float,
        n_grid=grid,
        measured=tuple(measured),
        normalized=tuple(normalized),
        fitted_exponent=slope,
        degenerate_fit=degenerate,
    )
