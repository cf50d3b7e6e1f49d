"""Named identity checks wiring the exact layers together.

Each check returns an IdentityCheckResult with a pass flag and a residual
(0.0 for exact checks that hold) and registers itself in its suite with @_check.
Randomized checks draw from a fixed seed so output is reproducible.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterator

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
    _beta_tail,
    beta_exact,
    gamma_half_int,
    stirling_bounds,
)

__all__ = ["SUITES", "run_suite", "suite_names"]

_SEED = 20260809

_Check = Callable[[], "IdentityCheckResult | list[IdentityCheckResult]"]
_Pairs = Iterator[tuple[object, object]]

# suite name -> its checks, in definition order; filled by @_check
SUITES: dict[str, list[_Check]] = {}


def _result(name: str, failures: int, residual: float, detail: str = "") -> IdentityCheckResult:
    return IdentityCheckResult(name=name, passed=failures == 0, residual=residual,
                               detail=detail or f"{failures} failing cases")


def _check(suite: str, row: str | None = None) -> Callable[[Callable], _Check]:
    """Append the decorated check to SUITES[suite].

    With a row name the check is exact: it yields (got, want) pairs, and the check
    registered for it passes, with residual 0.0, only if every pair is equal (else 1.0).
    Without one the check returns its result, or a list of them, itself.
    """
    def register(fn: Callable) -> _Check:
        check = fn
        if row is not None:
            def check() -> IdentityCheckResult:
                bad = sum(got != want for got, want in fn())
                return _result(row, bad, 0.0 if bad == 0 else 1.0)

            check.__name__ = check.__qualname__ = fn.__name__
        SUITES.setdefault(suite, []).append(check)
        return check

    return register


def _random_rationals(rng: random.Random, count: int) -> list[Fraction]:
    """count rationals in [-6, 6] with denominators 1..12."""
    out = []
    while len(out) < count:
        den = rng.randint(1, 12)
        num = rng.randint(-6 * den, 6 * den)
        out.append(Fraction(num, den))
    return out


# --- stirling suite --------------------------------------------------------


@_check("stirling", "rising-factorial-power-expansion")
def check_rising_to_power() -> _Pairs:
    xs = _random_rationals(random.Random(_SEED), 20)
    for m in range(11):
        for x in xs:
            yield rising_factorial(x, m), sum(stirling_cycle(m, l) * x**l for l in range(m + 1))


@_check("stirling", "falling-factorial-power-expansion")
def check_falling_to_power() -> _Pairs:
    xs = _random_rationals(random.Random(_SEED + 1), 20)
    for m in range(11):
        for x in xs:
            yield falling_factorial(x, m), sum(stirling_cycle(m, l) * (-1) ** (m - l) * x**l
                                               for l in range(m + 1))


@_check("stirling", "power-falling-factorial-expansion")
def check_power_to_falling() -> _Pairs:
    xs = _random_rationals(random.Random(_SEED + 2), 20)
    for m in range(11):
        for x in xs:
            yield x**m, sum(stirling_subset(m, l) * falling_factorial(x, l) for l in range(m + 1))


@_check("stirling", "power-basis-round-trip")
def check_basis_round_trip() -> _Pairs:
    # power -> falling basis (subset numbers) -> power basis (signed cycle
    # numbers) must be the identity on coefficients, degree <= 10
    for m in range(11):
        back = [Fraction(0)] * (m + 1)
        for l in range(m + 1):
            s = stirling_subset(m, l)
            for p in range(l + 1):
                back[p] += s * stirling_cycle(l, p) * (-1) ** (l - p)
        yield back, [Fraction(1) if p == m else Fraction(0) for p in range(m + 1)]


@_check("stirling", "telescoping-product-sum")
def check_telescoping_product_sum() -> _Pairs:
    # sum(i=1..n) (i-1)^falling(d) i^rising(f)
    #   = (n-1)^falling(d) n^rising(f+1) / (f+d+1), exact, 0<=d,f<=5, n<=50
    for d in range(6):
        for f in range(6):
            acc = Fraction(0)
            for n in range(1, 51):
                acc += falling_factorial(n - 1, d) * rising_factorial(n, f)
                yield acc, Fraction(falling_factorial(n - 1, d) * rising_factorial(n, f + 1),
                                    f + d + 1)


@_check("stirling", "power-sum-polynomial-degree")
def check_power_sum_degree() -> _Pairs:
    # sum(k=1..n) k^f - n^(f+1)/(f+1) is a polynomial in n of degree <= f:
    # its (f+1)-th difference vanishes on every window of n = 1..f+6, exactly
    def g(f: int, n: int) -> Fraction:
        return Fraction(sum(k**f for k in range(1, n + 1))) - Fraction(n ** (f + 1), f + 1)

    for f in range(7):
        ys = [g(f, n) for n in range(1, f + 7)]
        for s in range(5):
            yield finite_difference(f + 1, lambda j, s=s: ys[s + j]), 0


@_check("stirling")
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


@_check("eulerian", "eulerian-row-sum")
def check_eulerian_row_sum() -> _Pairs:
    for m in range(21):
        yield (sum(eulerian_second_order(m, k) for k in range(m + 1)),
               math.factorial(2 * m) // (math.factorial(m) * 2**m))


@_check("eulerian", "subset-near-diagonal-expansion")
def check_subset_near_diagonal() -> _Pairs:
    for m in range(1, 16):
        for b in range(6):
            yield stirling_subset(m, m - b), sum(
                eulerian_second_order(b, l) * binomial(m + b - 1 - l, 2 * b) for l in range(b + 1))


@_check("eulerian", "cycle-near-diagonal-expansion")
def check_cycle_near_diagonal() -> _Pairs:
    for m in range(1, 16):
        for b in range(6):
            yield stirling_cycle(m, m - b), sum(eulerian_second_order(b, l) * binomial(m + l, 2 * b)
                                                for l in range(b + 1))


# --- beta suite ------------------------------------------------------------
# The first three rows check the binomial tail T(p, q, c, d) = q^m I(p/q; c, d), m = c+d-1,
# that every exact layer uses (_beta_tail), as identities between integers over q^m.


@_check("beta", "regularized-beta-in-unit-range")
def check_beta_cdf_range() -> _Pairs:
    # 0 <= I(z; c, d) <= 1
    rng = random.Random(_SEED + 3)
    for _ in range(500):
        q = rng.randint(1, 50)
        p, c, d = rng.randint(0, q), rng.randint(1, 40), rng.randint(1, 40)
        yield 0 <= _beta_tail(p, q, c, d) <= q ** (c + d - 1), True


_STEP_DOWN_Z = ((1, 7), (1, 3), (9, 10))  # z = p/q
_STEP_DOWN_GRID = [(c, d, p, q) for c in range(2, 31) for d in range(1, 31)
                   for p, q in _STEP_DOWN_Z]


@_check("beta", "incomplete-beta-step-down")
def check_step_down_recurrence() -> _Pairs:
    # I(z; c, d) = I(z; c-1, d) - C(c+d-2, c-1) z^(c-1) (1-z)^d
    for c, d, p, q in _STEP_DOWN_GRID:
        step = math.comb(c + d - 2, c - 1) * p ** (c - 1) * (q - p) ** d
        yield q * _beta_tail(p, q, c - 1, d) - step, _beta_tail(p, q, c, d)


@_check("beta", "incomplete-beta-complement")
def check_complement_symmetry() -> _Pairs:
    # I(z; c, d) + I(1-z; d, c) = 1
    for c, d, p, q in _STEP_DOWN_GRID:
        yield _beta_tail(p, q, c, d) + _beta_tail(q - p, q, d, c), q ** (c + d - 1)


@_check("beta", "beta-binomial-reciprocal")
def check_beta_binomial_form() -> _Pairs:
    for c in range(1, 13):
        for d in range(1, 13):
            yield beta_exact(c, d), HalfIntValue(Fraction(1, math.comb(c + d - 1, c) * c))


@_check("beta")
def check_float_beta_accuracy() -> IdentityCheckResult:
    # the float route's binomial tail I(t_i; i, n-i+1), summed directly, at sensors of the
    # computed half
    import numpy as np  # on first use: only this check needs numpy here
    from ._float_route import _top_tail, beta_density_at_anchor

    rng = random.Random(_SEED + 4)
    cases = []
    for _ in range(120):
        c = rng.randint(1, 250)
        d = rng.randint(1, min(500 - c, 250))
        n = c + d - 1
        i = np.array([float(max(c, d))])  # sensor c, or its mirror image n+1-c = d
        tail = _top_tail(n, i, (2 * (n - i) + 1) / (2 * n), beta_density_at_anchor(n, i))
        cases.append((n, int(i[0]), tail[0]))
    worst = 0.0
    for n, i, approx in cases:
        exact = _beta_tail(2 * i - 1, 2 * n, i, n - i + 1) / (2 * n) ** n  # correctly rounded
        worst = max(worst, abs(float(approx) - exact) / exact)
    return _result("float-beta-matches-exact", int(worst > 1e-12), worst,
                   detail=f"max relative error {worst:.3e}")


# --- gould suite -----------------------------------------------------------


@_check("gould", "alternating-odd-reciprocal-sum")
def check_alternating_reciprocal_sum() -> _Pairs:
    # sum(b=0..a) C((a-1)/2, b)(-1)^b/(2b+1)
    #   = sqrt(pi) ((a-1)/2)! / (2 Gamma(a/2+1)) for odd a, exact
    for a in (1, 3, 5, 7, 9):
        half = (a - 1) // 2
        lhs = Fraction(0)
        for b in range(a + 1):
            term = Fraction(binomial(half, b), 2 * b + 1)
            lhs = lhs + term if b % 2 == 0 else lhs - term
        yield HalfIntValue(lhs), (HalfIntValue(Fraction(math.factorial(half)), 0, 1)
                                  / (2 * gamma_half_int(a + 2)))


# --- finite difference suite -----------------------------------------------


@_check("finite-diff", "difference-annihilates-low-degree")
def check_difference_annihilation() -> _Pairs:
    for a in range(1, 13):
        for m in range(a):
            yield finite_difference(a, lambda j, m=m: Fraction(j**m)), 0


@_check("finite-diff", "difference-top-degree-factorial")
def check_difference_top_degree() -> _Pairs:
    for a in range(1, 13):
        yield (finite_difference(a, lambda j, a_=a: Fraction(j**a_)),
               Fraction((-1) ** a * math.factorial(a)))


# --- technical2b suite -----------------------------------------------------


@_check("technical2b")
def check_diagonal_beta_identities() -> list[IdentityCheckResult]:
    return [verify_diagonal_beta_identity(a) for a in (1, 3, 5, 7)]


def suite_names() -> list[str]:
    return ["all", *SUITES]


def run_suite(name: str) -> list[IdentityCheckResult]:
    """Run one named suite (or 'all'); raises KeyError on unknown names."""
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    results: list[IdentityCheckResult] = []
    for suite in suites:
        for check in suite:
            got = check()
            results.extend(got if isinstance(got, list) else [got])
    return results
