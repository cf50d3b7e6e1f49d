import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from anchor_moments.identities import _STEP_DOWN_GRID
from anchor_moments.special_functions import (
    HalfIntValue,
    _beta_tail,
    beta_exact,
    gamma_half_int,
    stirling_bounds,
)

# --- independent oracle: literal termwise integration in Fractions -------------


def ibeta_literal(z: Fraction, c: int, d: int) -> Fraction:
    """sum-term-by-term transcription of 1/B(c,d) * int_0^z x^(c-1)(1-x)^(d-1)."""
    inv_beta = math.comb(c + d - 1, c) * c
    acc = Fraction(0)
    for m in range(d):
        acc += math.comb(d - 1, m) * (-1) ** m * z ** (c + m) / (c + m)
    return inv_beta * acc


def ibeta_binomial_tail(z: Fraction, c: int, d: int) -> Fraction:
    """Second oracle: I(z;c,d) = P[Binomial(c+d-1, z) >= c]."""
    n = c + d - 1
    return sum(math.comb(n, k) * z**k * (1 - z) ** (n - k) for k in range(c, n + 1))


# --- HalfIntValue ---------------------------------------------------------------


def test_halfint_normalizes_sqrt2():
    v = HalfIntValue(Fraction(3), 4, 1)  # 3 * sqrt(2)^4 * sqrt(pi) = 12 sqrt(pi)
    assert v == HalfIntValue(Fraction(12), 0, 1)
    w = HalfIntValue(Fraction(1), -1, 0)  # 1/sqrt(2) = sqrt(2)/2
    assert w == HalfIntValue(Fraction(1, 2), 1, 0)


def test_halfint_arithmetic():
    a = HalfIntValue(Fraction(1, 2), 1, 1)
    b = HalfIntValue(Fraction(3), 1, 1)
    assert a + b == HalfIntValue(Fraction(7, 2), 1, 1)
    assert (a * b) == HalfIntValue(Fraction(3), 0, 2)  # sqrt2^2 folds into rational -> 3/2*2=3
    assert (b / a) == HalfIntValue(Fraction(6))
    with pytest.raises(ValueError):
        a + HalfIntValue(Fraction(1), 0, 0)
    assert a + HalfIntValue(Fraction(0)) == a


def test_halfint_float():
    assert HalfIntValue(Fraction(1, 8), 1, 1).to_float() == pytest.approx(
        math.sqrt(2 * math.pi) / 8, rel=1e-15)


@settings(max_examples=60)
@given(
    st.fractions(min_value=-8, max_value=8, max_denominator=32),
    st.fractions(min_value=-8, max_value=8, max_denominator=32),
    st.integers(-2, 2),
    st.integers(-2, 2),
)
def test_halfint_multiply_divide_roundtrip(q1, q2, s2, sp):
    if q1 == 0 or q2 == 0:
        return
    x = HalfIntValue(q1, s2, sp)
    y = HalfIntValue(q2, -s2, 1 - sp)
    assert (x * y) / y == x


# --- gamma -----------------------------------------------------------------------


def test_gamma_half_int_examples():
    assert gamma_half_int(2) == HalfIntValue(Fraction(1))  # Gamma(1) = 0!
    assert gamma_half_int(3) == HalfIntValue(Fraction(1, 2), 0, 1)  # Gamma(3/2)
    assert gamma_half_int(5) == HalfIntValue(Fraction(3, 4), 0, 1)  # Gamma(5/2)


def test_gamma_integer_factorials():
    for n in range(1, 12):
        assert gamma_half_int(2 * n) == HalfIntValue(Fraction(math.factorial(n - 1)))


def test_gamma_recurrence_half_arguments():
    # Gamma(z+1) = z Gamma(z) for z = two_z/2
    for two_z in range(1, 20):
        z = Fraction(two_z, 2)
        assert gamma_half_int(two_z + 2) == gamma_half_int(two_z) * HalfIntValue(z)


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_half_int(0)


# --- beta ------------------------------------------------------------------------


def test_beta_exact_examples():
    assert beta_exact(2, 3) == HalfIntValue(Fraction(1, 12))
    assert beta_exact(1, 1) == HalfIntValue(Fraction(1))
    assert beta_exact(Fraction(3, 2), Fraction(3, 2)) == HalfIntValue(Fraction(1, 8), 0, 2)  # pi/8


def test_beta_integer_binomial_form():
    for c in range(1, 10):
        for d in range(1, 10):
            assert beta_exact(c, d) == HalfIntValue(Fraction(1, math.comb(c + d - 1, c) * c))


def test_beta_symmetry_mixed_args():
    args = [Fraction(k, 2) for k in range(1, 11)]
    for c in args:
        for d in args:
            assert beta_exact(c, d) == beta_exact(d, c)


def test_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        beta_exact(Fraction(1, 3), 1)
    with pytest.raises(ValueError):
        beta_exact(0, 1)


# --- exact incomplete beta: the binomial tail in integers ---------------------------


def _ibeta(z: Fraction, c: int, d: int) -> Fraction:
    """I(z; c, d) for z = p/q in lowest terms: _beta_tail over q^(c+d-1), as a Fraction."""
    return Fraction(_beta_tail(z.numerator, z.denominator, c, d), z.denominator ** (c + d - 1))


def test_incomplete_beta_examples():
    assert _ibeta(Fraction(1, 2), 1, 1) == Fraction(1, 2)
    assert _ibeta(Fraction(1, 2), 2, 1) == Fraction(1, 4)
    assert _ibeta(Fraction(1, 4), 2, 2) == Fraction(5, 32)


def test_incomplete_beta_endpoints():
    assert _ibeta(Fraction(0), 3, 2) == 0
    assert _ibeta(Fraction(1), 3, 2) == 1
    # z = 0 and z = 1 go through the binomial tail like any other z
    for c in range(1, 21):
        for d in range(1, 21):
            assert _ibeta(Fraction(0), c, d) == 0
            assert _ibeta(Fraction(1), c, d) == 1


def test_incomplete_beta_matches_literal_oracle():
    zs = [Fraction(1, 7), Fraction(2, 5), Fraction(9, 10), Fraction(1, 2)]
    for z in zs:
        for c in range(1, 12):
            for d in range(1, 12):
                assert _ibeta(z, c, d) == ibeta_literal(z, c, d)


def test_incomplete_beta_matches_binomial_tail_oracle():
    zs = [Fraction(1, 3), Fraction(5, 8)]
    for z in zs:
        for c in range(1, 15):
            for d in range(1, 15):
                assert _ibeta(z, c, d) == ibeta_binomial_tail(z, c, d)
    # the sizes the exact route runs: I(t_i; i, n-i+1), t_i = (2i-1)/(2n)
    for n in (200, 201):
        for i in (1, 2, n // 2, n // 2 + 1, n - 1, n):
            z = Fraction(2 * i - 1, 2 * n)
            assert _ibeta(z, i, n - i + 1) == ibeta_binomial_tail(z, i, n - i + 1)


@settings(max_examples=80)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=40),
    st.integers(1, 25),
    st.integers(1, 25),
)
def test_incomplete_beta_in_unit_interval(z, c, d):
    v = _ibeta(z, c, d)
    assert 0 <= v <= 1


@settings(max_examples=80)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=30),
    st.integers(1, 20),
    st.integers(1, 20),
)
def test_incomplete_beta_complement(z, c, d):
    lhs = _ibeta(z, c, d)
    rhs = _ibeta(1 - z, d, c)
    assert lhs + rhs == 1


# --- step-down recurrence, on the binomial tail in integers -------------------------


def _step_down(p: int, q: int, c: int, d: int) -> int:
    """q^m I(p/q; c, d), m = c+d-1, from one step of the parameter recurrence, as the identity
    suite writes it: q T(p, q, c-1, d) - C(c+d-2, c-1) p^(c-1) (q-p)^d."""
    step = math.comb(c + d - 2, c - 1) * p ** (c - 1) * (q - p) ** d
    return q * _beta_tail(p, q, c - 1, d) - step


def test_step_down_example():
    # I(1/2; 2, 1) = 1/4: q^m = 4
    assert _step_down(1, 2, 2, 1) == _beta_tail(1, 2, 2, 1) == 1


def test_step_down_endpoints():
    # z = 0 and z = 1, as 0/q and q/q: the tail is 0 and q^m
    for q in (1, 7):
        assert _step_down(0, q, 3, 2) == _beta_tail(0, q, 3, 2) == 0
        assert _step_down(q, q, 3, 2) == _beta_tail(q, q, 3, 2) == q**4


def _step_down_in_fractions(z: Fraction, c: int, d: int) -> Fraction:
    """The recurrence as written, term by term in Fraction arithmetic."""
    coeff = math.comb(c + d - 2, c - 1)
    return _ibeta(z, c - 1, d) - coeff * z ** (c - 1) * (1 - z) ** d


def test_step_down_equals_direct_on_grid():
    # the identity suite's grid, and both ends of [0, 1]; the step in integers over q^m must
    # equal the recurrence in Fractions as well as the direct value
    endpoints = [(c, d, p, 1) for c in range(2, 7) for d in range(1, 7) for p in (0, 1)]
    for c, d, p, q in _STEP_DOWN_GRID + endpoints:
        z = Fraction(p, q)
        direct = _ibeta(z, c, d)
        step = Fraction(_step_down(p, q, c, d), q ** (c + d - 1))
        assert step == _step_down_in_fractions(z, c, d) == direct


# --- float incomplete Beta (scipy) against the exact one ----------------------------------------------------------------------


def test_incomplete_beta_float_examples():
    assert betainc(1, 1, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert betainc(2, 2, 0.25) == pytest.approx(0.15625, rel=1e-14)
    exact = _ibeta(Fraction(3, 10), 10, 5)
    assert betainc(10, 5, 0.3) == pytest.approx(float(exact), rel=1e-12)


def test_incomplete_beta_float_matches_exact_large_parameters():
    cases = [(Fraction(1, 2), 250, 250), (Fraction(1, 10), 37, 401),
             (Fraction(7, 8), 420, 13), (Fraction(2, 3), 100, 199)]
    for z, c, d in cases:
        exact = float(_ibeta(z, c, d))
        approx = betainc(c, d, float(z))
        assert approx == pytest.approx(exact, rel=1e-12)


# --- factorial bounds ------------------------------------------------------------------


def test_stirling_bounds_examples():
    lower, upper, _ = stirling_bounds(1)
    assert lower < 1 < upper
    lower, upper, _ = stirling_bounds(10)
    assert lower < 3628800 < upper


def test_stirling_bounds_strict_bracketing_in_logs():
    for m in range(1, 171):
        lower, upper, exact_log = stirling_bounds(m)
        assert math.log(lower) < exact_log < math.log(upper)


def test_stirling_bounds_exact_log_is_big_integer_log():
    _, _, exact_log = stirling_bounds(170)
    assert exact_log == pytest.approx(math.log(math.factorial(170)), rel=1e-15)


def test_stirling_bounds_rejects_zero():
    with pytest.raises(ValueError):
        stirling_bounds(0)


def test_stirling_bounds_rejects_m_beyond_float_range():
    # 171! and its bounds overflow a double
    with pytest.raises(ValueError, match="170"):
        stirling_bounds(171)
