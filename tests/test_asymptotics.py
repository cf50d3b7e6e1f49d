import math
from fractions import Fraction

import pytest

from anchor_moments import asymptotics
from anchor_moments.asymptotics import (
    CoefficientSet,
    abel_anchor_sum,
    diagonal_coefficients,
    leading_constant,
    remainder_diagnostic,
    vanishing_signed_sum,
    vanishing_tail_correction_sum,
    verify_diagonal_beta_identity,
)
from anchor_moments.combinatorics import finite_difference
from anchor_moments.moments import MomentQuery, per_sensor_moment_exact, signed_moment_total
from anchor_moments.special_functions import HalfIntValue

# --- literal transcription oracles (independent nested loops, Fractions) --------


def _rising(x, k):
    out = Fraction(1)
    for u in range(k):
        out *= x + u
    return out


def _falling(x, k):
    out = Fraction(1)
    for u in range(k):
        out *= x - u
    return out


def oracle_diagonal_coefficients(a):
    # the literal j/k double loop, with the (-1)^(j+1) sign written out
    half = (a - 1) // 2
    entries = {}
    for q1 in range(half + 1):
        p1 = half - q1
        total = Fraction(0)
        for j in range(a + 1):
            inner = Fraction(0)
            for k in range(1, j + 1):
                first = (Fraction(k * k - (a - j) ** 2, 2)) ** q1
                second = ((j - k) * Fraction(2 * j - 1, 2) - Fraction((j - k) ** 2, 2)) ** p1
                inner += first * second
            total += math.comb(a, j) * (-1) ** (j + 1) * inner
        entries[(q1, p1)] = total / (math.factorial(q1) * math.factorial(p1))
    return entries


def oracle_signed_sum(n, a):
    total = Fraction(0)
    for j in range(a + 1):
        for i in range(1, n + 1):
            total += (Fraction(1, n**a) * math.comb(a, j) * (-1) ** j * n**j
                      * (i - Fraction(1, 2)) ** (a - j) * _rising(i, j) / _rising(n + 1, j))
    return total


def _left_tail_integral(n, i):
    # int_0^{t_i} x^(i-1)(1-x)^(n-i) dx, termwise binomial integration
    t = Fraction(2 * i - 1, 2 * n)
    acc = Fraction(0)
    for m in range(n - i + 1):
        acc += math.comb(n - i, m) * (-1) ** m * t ** (i + m) / (i + m)
    return acc


def oracle_tail_correction_sum(n, a):
    total = Fraction(0)
    for i in range(1, n + 1):
        coeff = Fraction(0)
        for j in range(a + 1):
            coeff += (math.comb(a, j) * (-1) ** j * n**j
                      * (i - Fraction(1, 2)) ** (a - j) * _rising(i, j)
                      * _falling(n + a, a - j))
        coeff /= n**a * _rising(n + 1, a)
        total += coeff * math.comb(n, i) * i * _left_tail_integral(n, i)
    return total


def oracle_abel_sum(n, c):
    total = Fraction(0)
    for i in range(1, n + 1):
        t = Fraction(2 * i - 1, 2 * n)
        total += 2 * i * math.comb(n, i) * (1 - t) ** (n - i + 1) * t ** (i + c)
    return total


# --- leading constant -------------------------------------------------------------


def test_leading_constant_examples():
    assert leading_constant(2) == HalfIntValue(Fraction(1, 6))
    assert leading_constant(1) == HalfIntValue(Fraction(1, 8), 1, 1)  # sqrt(2 pi)/8
    assert leading_constant(1).to_float() == pytest.approx(0.3133285, abs=5e-8)
    assert leading_constant(3).to_float() == pytest.approx(0.1174982, abs=5e-8)


def test_leading_constant_even_rational():
    # (a/2)! / (2^(a/2) (1+a)) for even a
    for a in (2, 4, 6, 8):
        expected = Fraction(math.factorial(a // 2), 2 ** (a // 2) * (1 + a))
        assert leading_constant(a) == HalfIntValue(expected)


def test_leading_constant_positive_and_decreasing_through_five():
    # the constant decreases up to a = 5 and grows afterwards (Gamma growth
    # overtakes 2^(a/2)(1+a)), so monotonicity is asserted on 1..5 only
    values = [leading_constant(a).to_float() for a in range(1, 10)]
    assert all(v > 0 for v in values)
    assert all(x > y for x, y in zip(values[:5], values[1:5]))
    assert values[5] > values[4]  # documents the turnaround at a = 6


# --- diagnostic sum 1 ---------------------------------------------------------------


def test_signed_sum_matches_literal_oracle():
    for n in range(1, 61):
        for a in (1, 3, 5, 7, 9):
            assert vanishing_signed_sum(n, a) == oracle_signed_sum(n, a)


@pytest.mark.parametrize("a", [a for a in range(2, 21) if a % 2 == 0 or a > 9])
def test_signed_moment_total_matches_literal_oracle(a):
    # odd a <= 9 run in test_signed_sum_matches_literal_oracle
    for n in range(1, 61):
        assert signed_moment_total(MomentQuery(n, a)) == oracle_signed_sum(n, a), n


@pytest.mark.parametrize("a", range(2, 11, 2))
def test_even_total_is_a_polynomial_led_by_the_constant(a):
    # Kapelko and Kranakis's even-order result S(n,a) ~ C(a) n^(1-a/2) holds exactly:
    # n^(a-1) S(n,a) is a polynomial of degree a/2 in n whose leading coefficient is C(a)
    d = a // 2
    p = [n ** (a - 1) * signed_moment_total(MomentQuery(n, a)) for n in range(1, 3 * a + 4)]
    for lo in range(len(p) - d - 1):
        assert finite_difference(d + 1, lambda j: p[lo + j]) == 0, lo
    lead = (-1) ** d * finite_difference(d, lambda j: p[j]) / math.factorial(d)
    assert HalfIntValue(lead) == leading_constant(a)


def test_signed_sum_vanishes_identically():
    # signed parts are antisymmetric under i -> n+1-i for odd a, so the
    # total cancels exactly at every n, not just asymptotically
    for n in (1, 2, 7, 40, 123):
        for a in (1, 3, 5):
            assert vanishing_signed_sum(n, a) == 0


def test_signed_sum_equals_negated_signed_parts():
    for n, a in ((4, 1), (6, 3), (9, 5)):
        q = MomentQuery(n, a)
        total_signed = sum(per_sensor_moment_exact(q, i).e_signed_part
                           for i in range(1, n + 1))
        assert vanishing_signed_sum(n, a) == -total_signed


def test_signed_sum_normalized_bounded():
    for a in (3, 5):
        vals = [abs(float(vanishing_signed_sum(n, a))) * n ** ((a - 1) // 2)
                for n in (10, 50, 200, 1000)]
        assert max(vals) <= 10 * vals[-1] or max(vals) == 0


def test_signed_sum_rejects_even_order():
    with pytest.raises(ValueError):
        vanishing_signed_sum(5, 2)


# --- diagnostic sum 2 ---------------------------------------------------------------


def test_tail_correction_matches_literal_oracle():
    for n in range(1, 61):
        for a in (1, 3, 5):
            assert vanishing_tail_correction_sum(n, a) == oracle_tail_correction_sum(n, a)


def test_tail_correction_is_half_the_base_split_piece():
    # the reduced-coefficient sum equals half the folded base pieces summed;
    # the base piece of sensor i is the folded part with every
    # I(t_i; i+j, n-i+1) replaced by I(t_i; i, n-i+1)
    for n, a in ((5, 1), (8, 3), (12, 5)):
        base_total = Fraction(0)
        for i in range(1, n + 1):
            t = Fraction(2 * i - 1, 2 * n)
            reg = i * math.comb(n, i) * _left_tail_integral(n, i)  # I(t; i, n-i+1)
            for j in range(a + 1):
                beta = Fraction(1, math.comb(n + j, i + j) * (i + j))
                base_total += (2 * i * math.comb(n, i) * math.comb(a, j) * (-1) ** j
                               * t ** (a - j) * beta * reg)
        assert 2 * vanishing_tail_correction_sum(n, a) == base_total


def test_tail_correction_rejects_even_order():
    with pytest.raises(ValueError):
        vanishing_tail_correction_sum(5, 4)


def test_tail_correction_size_guard():
    from anchor_moments.moments import EXACT_N_GUARD, SizeGuardError

    with pytest.raises(SizeGuardError):
        vanishing_tail_correction_sum(EXACT_N_GUARD + 1, 1)


# --- diagnostic sum 4 (Abel-type anchor sum) ------------------------------------------


def test_abel_sum_float_matches_exact_all_small_n():
    for n in range(1, 201):
        for c in (0, 1, 2):
            exact = float(oracle_abel_sum(n, c))
            assert abel_anchor_sum(n, float(c)) == pytest.approx(exact, rel=1e-10)


def test_abel_sum_scaling_constants():
    # value / n^(3/2) approaches (2/sqrt(2 pi)) B(c+3/2, 3/2)
    target0 = 2 / math.sqrt(2 * math.pi) * math.pi / 8
    target1 = 2 / math.sqrt(2 * math.pi) * math.pi / 16
    v0 = abel_anchor_sum(100_000, 0.0) / 100_000**1.5
    v1 = abel_anchor_sum(100_000, 1.0) / 100_000**1.5
    assert v0 == pytest.approx(target0, abs=0.02)
    assert v1 == pytest.approx(target1, abs=0.02)


def test_abel_sum_validates_arguments():
    with pytest.raises(ValueError):
        abel_anchor_sum(0, 0.0)
    with pytest.raises(ValueError):
        abel_anchor_sum(10, -1.0)


# --- diagonal coefficients --------------------------------------------------------------


def test_diagonal_coefficients_first_order():
    cs = diagonal_coefficients(1)
    assert cs.entries == {(0, 0): Fraction(1)}


def test_diagonal_coefficients_third_order():
    # hand evaluation of the double sum: b(1,0) = -9/2 - 9/2 + 7 = -2,
    # b(0,1) = 0 - 3 + 5 = 2
    cs = diagonal_coefficients(3)
    assert cs.entries == {(1, 0): Fraction(-2), (0, 1): Fraction(2)}


def test_diagonal_coefficients_match_literal_double_loop():
    for a in range(1, 16, 2):
        assert diagonal_coefficients(a).entries == oracle_diagonal_coefficients(a)
    for a in (9, 11, 13, 15):
        res = verify_diagonal_beta_identity(a)
        assert res.passed and res.residual == 0.0 and "exact=True" in res.detail


def test_diagonal_coefficients_index_structure():
    for a in (1, 3, 5, 7, 9):
        cs = diagonal_coefficients(a)
        half = (a - 1) // 2
        assert set(cs.entries) == {(q1, half - q1) for q1 in range(half + 1)}
        assert len(cs.entries) == (a + 1) // 2


def test_diagonal_coefficients_reject_bad_order():
    with pytest.raises(ValueError):
        diagonal_coefficients(2)
    with pytest.raises(ValueError):
        diagonal_coefficients(17)


# --- the exact constant decomposition -----------------------------------------------------


def test_diagonal_beta_identity_passes_exactly():
    for a in (1, 3, 5, 7):
        res = verify_diagonal_beta_identity(a)
        assert res.passed
        assert res.residual == 0.0
        assert "exact=True" in res.detail


def test_diagonal_beta_identity_first_order_value():
    # both sides equal sqrt(2 pi)/8 at a = 1
    res = verify_diagonal_beta_identity(1)
    assert res.passed
    assert leading_constant(1) == HalfIntValue(Fraction(1, 8), 1, 1)


def test_diagonal_beta_identity_fails_when_not_exact(monkeypatch):
    # a 10^-30 shift in one coefficient vanishes in the float residual, not in the exact sides
    def perturbed(a):
        entries = dict(diagonal_coefficients(a).entries)
        key = next(iter(entries))
        entries[key] += Fraction(1, 10**30)
        return CoefficientSet(a, entries)

    monkeypatch.setattr(asymptotics, "diagonal_coefficients", perturbed)
    res = verify_diagonal_beta_identity(3)
    assert res.passed is False
    assert "exact=False" in res.detail


# --- remainder diagnostics ------------------------------------------------------------------


def test_remainder_diagnostic_quadratic():
    report = remainder_diagnostic(2, [100, 300, 1000, 3000])
    assert report.constant_float == pytest.approx(1 / 6, rel=1e-12)
    # S(n,2) = 1/6 - 1/(12n): normalized approaches 1/6 from below, and the
    # fitted residual exponent is -1
    devs = [abs(v - 1 / 6) for v in report.normalized]
    assert devs == sorted(devs, reverse=True)
    assert report.fitted_exponent == pytest.approx(-1.0, abs=0.05)
    assert not report.degenerate_fit


def test_remainder_diagnostic_fit_is_least_squares_past_the_float_guard():
    # even orders take the closed form at any n; the slope is the least-squares line through
    # (log n, log|residual|), the one np.polyfit gives
    import numpy as np
    grid = [100, 10**4, 10**8, 10**9]
    report = remainder_diagnostic(2, grid)
    assert not report.degenerate_fit
    xs = [math.log(n) for n in grid]
    ys = [math.log(abs(s - report.constant_float)) for s in report.measured]  # n^0 at a = 2
    assert report.fitted_exponent == pytest.approx(float(np.polyfit(xs, ys, 1)[0]), rel=1e-12)
    assert report.fitted_exponent == pytest.approx(-1.0, abs=1e-6)


def test_remainder_diagnostic_linear():
    report = remainder_diagnostic(1, [100, 1000, 10_000])
    devs = [abs(v - report.constant_float) for v in report.normalized]
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] <= 0.02


def test_remainder_diagnostic_cubic_exponent():
    # the remainder after subtracting C n^(-1/2) decays at least like
    # n^(-1) for a=3; allow the documented half-unit of slack
    report = remainder_diagnostic(3, [100, 1000, 10_000])
    assert report.fitted_exponent <= -0.5


def test_remainder_diagnostic_high_odd_orders():
    # totals of order a ~ n^(1-a/2) are tiny at n = 10^5 and must still be
    # positive, close to the constant, and fit the O(n^-((a-1)/2)) remainder
    for a in (7, 9):
        report = remainder_diagnostic(a, (1000, 10_000, 100_000))
        assert all(m > 0 for m in report.measured)
        assert report.normalized[-1] == pytest.approx(leading_constant(a).to_float(), rel=1e-3)
        assert not report.degenerate_fit
        assert report.fitted_exponent <= -(a - 1) / 2


def test_remainder_diagnostic_refuses_a_subnormal_scale():
    # n^(1-a/2) at n = 1000 is 3.2e-308 for a = 207, a normal float, and 3.2e-311 for a = 209
    assert remainder_diagnostic(207, (100, 1000)).n_grid == (100, 1000)
    with pytest.raises(ValueError, match=r"underflows to 3\.16228e-311 at n = 1000, a = 209"):
        remainder_diagnostic(209, (100, 1000))


def test_remainder_diagnostic_validates_grid():
    with pytest.raises(ValueError):
        remainder_diagnostic(1, [100])
    with pytest.raises(ValueError):
        remainder_diagnostic(1, [100, 100])
    with pytest.raises(ValueError):
        remainder_diagnostic(1, [1000, 100])
