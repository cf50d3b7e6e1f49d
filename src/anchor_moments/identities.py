"""Named identity checks wiring the exact layers together.

Each check returns an IdentityCheckResult with a pass flag and a residual
(0.0 for exact checks that hold).  Checks are grouped into suites for the
CLI; randomized checks draw from a fixed seed so output is reproducible.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

from .asymptotics import IdentityCheckResult, verify_diagonal_beta_identity
from .combinatorics import (
    binomial,
    eulerian_second_order,
    falling_factorial,
    finite_difference,
    rising_factorial,
    stirling_cycle,
    stirling_subset,
)
from .special_functions import (
    HalfIntValue,
    beta_exact,
    gamma_half_int,
    incomplete_beta_regularized_exact,
    incomplete_beta_step_down,
    stirling_bounds,
)

__all__ = ["SUITES", "run_suite", "suite_names"]

_SEED = 20260809


def _result(name: str, failures: int, residual: float, detail: str = "") -> IdentityCheckResult:
    return IdentityCheckResult(name=name, passed=failures == 0, residual=residual,
                               detail=detail or f"{failures} failing cases")


def _random_rationals(rng: random.Random, count: int, lo: int = -6, hi: int = 6) -> list[Fraction]:
    out = []
    while len(out) < count:
        den = rng.randint(1, 12)
        num = rng.randint(lo * den, hi * den)
        out.append(Fraction(num, den))
    return out


# --- stirling suite --------------------------------------------------------


def check_cycle_recurrence() -> IdentityCheckResult:
    bad = sum(
        1
        for n in range(1, 21)
        for k in range(n + 1)
        if stirling_cycle(n, k) != stirling_cycle(n - 1, k - 1) + (n - 1) * stirling_cycle(n - 1, k)
    )
    return _result("stirling-cycle-recurrence", bad, 0.0 if bad == 0 else 1.0)


def check_subset_recurrence() -> IdentityCheckResult:
    bad = sum(
        1
        for n in range(1, 21)
        for k in range(n + 1)
        if stirling_subset(n, k) != stirling_subset(n - 1, k - 1) + k * stirling_subset(n - 1, k)
    )
    return _result("stirling-subset-recurrence", bad, 0.0 if bad == 0 else 1.0)


def check_rising_to_power() -> IdentityCheckResult:
    rng = random.Random(_SEED)
    xs = _random_rationals(rng, 20)
    bad = 0
    for m in range(11):
        for x in xs:
            direct = rising_factorial(x, m)
            expanded = sum(stirling_cycle(m, l) * x**l for l in range(m + 1))
            bad += direct != expanded
    return _result("rising-factorial-power-expansion", bad, 0.0 if bad == 0 else 1.0)


def check_falling_to_power() -> IdentityCheckResult:
    rng = random.Random(_SEED + 1)
    xs = _random_rationals(rng, 20)
    bad = 0
    for m in range(11):
        for x in xs:
            direct = falling_factorial(x, m)
            expanded = sum(stirling_cycle(m, l) * (-1) ** (m - l) * x**l for l in range(m + 1))
            bad += direct != expanded
    return _result("falling-factorial-power-expansion", bad, 0.0 if bad == 0 else 1.0)


def check_power_to_falling() -> IdentityCheckResult:
    rng = random.Random(_SEED + 2)
    xs = _random_rationals(rng, 20)
    bad = 0
    for m in range(11):
        for x in xs:
            direct = x**m
            expanded = sum(stirling_subset(m, l) * falling_factorial(x, l) for l in range(m + 1))
            bad += direct != expanded
    return _result("power-falling-factorial-expansion", bad, 0.0 if bad == 0 else 1.0)


def check_basis_round_trip() -> IdentityCheckResult:
    # power -> falling basis (subset numbers) -> power basis (signed cycle
    # numbers) must be the identity on coefficients, degree <= 10
    bad = 0
    for m in range(11):
        back = [Fraction(0)] * (m + 1)
        for l in range(m + 1):
            s = stirling_subset(m, l)
            for p in range(l + 1):
                back[p] += s * stirling_cycle(l, p) * (-1) ** (l - p)
        expected = [Fraction(1) if p == m else Fraction(0) for p in range(m + 1)]
        bad += back != expected
    return _result("power-basis-round-trip", bad, 0.0 if bad == 0 else 1.0)


def check_telescoping_product_sum() -> IdentityCheckResult:
    # sum(i=1..n) (i-1)^falling(d) i^rising(f)
    #   = (n-1)^falling(d) n^rising(f+1) / (f+d+1), exact, 0<=d,f<=5, n<=50
    bad = 0
    for d in range(6):
        for f in range(6):
            acc = Fraction(0)
            for n in range(1, 51):
                acc += falling_factorial(n - 1, d) * rising_factorial(n, f)
                rhs = Fraction(falling_factorial(n - 1, d) * rising_factorial(n, f + 1), f + d + 1)
                bad += acc != rhs
    return _result("telescoping-product-sum", bad, 0.0 if bad == 0 else 1.0)


def check_power_sum_degree() -> IdentityCheckResult:
    # sum(k=1..n) k^f - n^(f+1)/(f+1) is a polynomial in n of degree <= f:
    # its (f+1)-th difference vanishes on every window of n = 1..f+6, exactly
    def g(f: int, n: int) -> Fraction:
        return Fraction(sum(k**f for k in range(1, n + 1))) - Fraction(n ** (f + 1), f + 1)

    bad = 0
    for f in range(7):
        ys = [g(f, n) for n in range(1, f + 7)]
        for s in range(5):
            bad += finite_difference(f + 1, lambda j, s=s: ys[s + j]) != 0
    return _result("power-sum-polynomial-degree", bad, 0.0 if bad == 0 else 1.0)


def check_factorial_bounds() -> IdentityCheckResult:
    bad = 0
    worst = 0.0
    for m in range(1, 171):
        lower, upper, exact_log = stirling_bounds(m)
        log_lower = math.log(lower)
        log_upper = math.log(upper)
        if not (log_lower < exact_log < log_upper):
            bad += 1
            worst = max(worst, log_lower - exact_log, exact_log - log_upper)
    return _result("factorial-two-sided-bounds", bad, worst)


# --- eulerian suite --------------------------------------------------------


def check_eulerian_recurrence() -> IdentityCheckResult:
    bad = sum(
        1
        for n in range(1, 21)
        for k in range(n + 1)
        if eulerian_second_order(n, k)
        != (k + 1) * eulerian_second_order(n - 1, k)
        + (2 * n - 1 - k) * eulerian_second_order(n - 1, k - 1)
    )
    return _result("eulerian-recurrence", bad, 0.0 if bad == 0 else 1.0)


def check_eulerian_row_sum() -> IdentityCheckResult:
    bad = 0
    for m in range(21):
        row = sum(eulerian_second_order(m, k) for k in range(m + 1))
        expected = math.factorial(2 * m) // (math.factorial(m) * 2**m)
        bad += row != expected
    return _result("eulerian-row-sum", bad, 0.0 if bad == 0 else 1.0)


def check_subset_near_diagonal() -> IdentityCheckResult:
    bad = 0
    for m in range(1, 16):
        for b in range(6):
            lhs = stirling_subset(m, m - b)
            rhs = sum(eulerian_second_order(b, l) * binomial(m + b - 1 - l, 2 * b)
                      for l in range(b + 1))
            bad += lhs != rhs
    return _result("subset-near-diagonal-expansion", bad, 0.0 if bad == 0 else 1.0)


def check_cycle_near_diagonal() -> IdentityCheckResult:
    bad = 0
    for m in range(1, 16):
        for b in range(6):
            lhs = stirling_cycle(m, m - b)
            rhs = sum(eulerian_second_order(b, l) * binomial(m + l, 2 * b)
                      for l in range(b + 1))
            bad += lhs != rhs
    return _result("cycle-near-diagonal-expansion", bad, 0.0 if bad == 0 else 1.0)


# --- beta suite ------------------------------------------------------------


def check_beta_cdf_range() -> IdentityCheckResult:
    rng = random.Random(_SEED + 3)
    bad = 0
    worst = 0.0
    for _ in range(500):
        den = rng.randint(1, 50)
        z = Fraction(rng.randint(0, den), den)
        c = rng.randint(1, 40)
        d = rng.randint(1, 40)
        v = incomplete_beta_regularized_exact(z, c, d)
        if not 0 <= v <= 1:
            bad += 1
            worst = max(worst, float(abs(v - Fraction(1, 2))) - 0.5)
    return _result("regularized-beta-in-unit-range", bad, worst)


_STEP_DOWN_Z = (Fraction(1, 7), Fraction(1, 3), Fraction(9, 10))
_STEP_DOWN_GRID = [(c, d, z) for c in range(2, 31) for d in range(1, 31) for z in _STEP_DOWN_Z]


def check_step_down_recurrence() -> IdentityCheckResult:
    bad = 0
    for c, d, z in _STEP_DOWN_GRID:
        if incomplete_beta_step_down(z, c, d) != incomplete_beta_regularized_exact(z, c, d):
            bad += 1
    return _result("incomplete-beta-step-down", bad, 0.0 if bad == 0 else 1.0)


def check_complement_symmetry() -> IdentityCheckResult:
    bad = 0
    for c, d, z in _STEP_DOWN_GRID:
        lhs = incomplete_beta_regularized_exact(z, c, d)
        rhs = incomplete_beta_regularized_exact(1 - z, d, c)
        bad += lhs + rhs != 1
    return _result("incomplete-beta-complement", bad, 0.0 if bad == 0 else 1.0)


def check_beta_symmetry() -> IdentityCheckResult:
    args = [Fraction(k, 2) for k in range(1, 13)]
    bad = 0
    for c in args:
        for d in args:
            bad += beta_exact(c, d) != beta_exact(d, c)
    return _result("beta-symmetry", bad, 0.0 if bad == 0 else 1.0)


def check_beta_binomial_form() -> IdentityCheckResult:
    bad = 0
    for c in range(1, 13):
        for d in range(1, 13):
            direct = beta_exact(c, d)
            expected = HalfIntValue(Fraction(1, math.comb(c + d - 1, c) * c))
            bad += direct != expected
    return _result("beta-binomial-reciprocal", bad, 0.0 if bad == 0 else 1.0)


def check_float_beta_accuracy() -> IdentityCheckResult:
    # the float route's binomial tail I(t_i; i, n-i+1) at a sensor of the computed half; with
    # n <= 499 every sensor is a top sensor, whose tail is summed directly, so one suffices
    import numpy as np  # on first use: only this check needs numpy here
    from ._float_route import _left_tail_start, beta_density_at_anchor
    rng = random.Random(_SEED + 4)
    worst = 0.0
    for _ in range(120):
        c = rng.randint(1, 250)
        d = rng.randint(1, min(500 - c, 250))
        n = c + d - 1
        i = max(c, d)  # sensor c, or its mirror image n+1-c = d
        at = np.array([float(i)])
        dens = beta_density_at_anchor(n, at)
        approx = float(_left_tail_start(n, at, (2 * (n - at) + 1) / (2 * n), dens)[0])
        exact = float(incomplete_beta_regularized_exact(Fraction(2 * i - 1, 2 * n), i, n - i + 1))
        worst = max(worst, abs(approx - exact) / exact)
    return _result("float-beta-matches-exact", int(worst > 1e-12), worst,
                   detail=f"max relative error {worst:.3e}")


# --- gould suite -----------------------------------------------------------


def check_alternating_reciprocal_sum() -> IdentityCheckResult:
    # sum(b=0..a) C((a-1)/2, b)(-1)^b/(2b+1)
    #   = sqrt(pi) ((a-1)/2)! / (2 Gamma(a/2+1)) for odd a, exact
    bad = 0
    for a in (1, 3, 5, 7, 9):
        half = (a - 1) // 2
        lhs = Fraction(0)
        for b in range(a + 1):
            term = Fraction(binomial(half, b), 2 * b + 1)
            lhs = lhs + term if b % 2 == 0 else lhs - term
        rhs = (HalfIntValue(Fraction(math.factorial(half)), 0, 1)
               / (2 * gamma_half_int(a + 2)))
        bad += HalfIntValue(lhs) != rhs
    return _result("alternating-odd-reciprocal-sum", bad, 0.0 if bad == 0 else 1.0)


# --- finite difference suite -----------------------------------------------


def check_difference_annihilation() -> IdentityCheckResult:
    bad = 0
    for a in range(1, 13):
        for m in range(a):
            bad += finite_difference(a, lambda j, m=m: Fraction(j**m)) != 0
    return _result("difference-annihilates-low-degree", bad, 0.0 if bad == 0 else 1.0)


def check_difference_top_degree() -> IdentityCheckResult:
    bad = 0
    for a in range(1, 13):
        got = finite_difference(a, lambda j, a_=a: Fraction(j**a_))
        bad += got != Fraction((-1) ** a * math.factorial(a))
    return _result("difference-top-degree-factorial", bad, 0.0 if bad == 0 else 1.0)


# --- technical2b suite -----------------------------------------------------


def check_diagonal_beta_identities() -> list[IdentityCheckResult]:
    return [verify_diagonal_beta_identity(a) for a in (1, 3, 5, 7)]


# --- registry ---------------------------------------------------------------

_Check = Callable[[], IdentityCheckResult]

SUITES: dict[str, list[_Check]] = {
    "stirling": [
        check_cycle_recurrence,
        check_subset_recurrence,
        check_rising_to_power,
        check_falling_to_power,
        check_power_to_falling,
        check_basis_round_trip,
        check_telescoping_product_sum,
        check_power_sum_degree,
        check_factorial_bounds,
    ],
    "eulerian": [
        check_eulerian_recurrence,
        check_eulerian_row_sum,
        check_subset_near_diagonal,
        check_cycle_near_diagonal,
    ],
    "beta": [
        check_beta_cdf_range,
        check_step_down_recurrence,
        check_complement_symmetry,
        check_beta_symmetry,
        check_beta_binomial_form,
        check_float_beta_accuracy,
    ],
    "gould": [check_alternating_reciprocal_sum],
    "finite-diff": [check_difference_annihilation, check_difference_top_degree],
}


def suite_names() -> list[str]:
    return ["all", *SUITES.keys(), "technical2b"]


def run_suite(name: str) -> list[IdentityCheckResult]:
    """Run one named suite (or 'all'); raises KeyError on unknown names."""
    if name == "all":
        results: list[IdentityCheckResult] = []
        for suite in SUITES.values():
            results.extend(check() for check in suite)
        results.extend(check_diagonal_beta_identities())
        return results
    if name == "technical2b":
        return check_diagonal_beta_identities()
    if name not in SUITES:
        raise KeyError(name)
    return [check() for check in SUITES[name]]
