"""The large-n expansion of the odd-order total cost, and the constants it is built from.

For odd a the total cost is

    S(n, a) = C(a) n^(1-a/2) [1 + b_1/n + b_2/n^2 + b_3/n^3 + b_4/n^4] + (boundary part)
              + (omitted terms),

C(a) = Gamma(a/2+1) / (2^(a/2) (1+a)) the paper's constant (leading_constant).  The paper
proves the leading term, with remainder O(n^-((a-1)/2)); the other terms are measured.

b_1..b_4 (_BRACKET) are the even closed form's bracket coefficients, polynomials in a, carried
over to odd a; the boundary part, sum_j B_(a,j) n^-(a+j) (_BOUNDARY), comes from the sensors
near each end, where n X_(i) tends to a Gamma(i, 1) variable.  Their evidence is two tests in
tests/test_moments.py: test_bracket_table_is_the_even_closed_form regenerates _BRACKET exactly
from signed_moment_total, and test_boundary_constants_fit_exact_totals fits _BOUNDARY to
exact odd totals.

ENVELOPE bounds what is left out, relative to the total.  moments serves odd a <= 13 from
the expansion where that bound is below 2^-54, and scripts/expansion_envelope.py measures
it again from exact totals.
"""

from __future__ import annotations

import functools
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from .special_functions import HalfIntValue, gamma_half_int

# Relative size of what the expansion leaves out: at most K n^-p, as (K, p).  The first
# omitted term is the boundary layer's next one for a = 1, 3, 5 and 7 (B_(1,3) n^-4,
# B_(3,2) n^-5, B_(5,1) n^-6 and B_(7,0) n^-7, each n^-9/2 relative), and the bracket's next
# row, b_5(a) n^-5, for a = 9, 11 and 13 (b_5 = -0.02126, -1.032 and -9.903).  Measured as
# r n^p, r the relative residual against exact totals at n = 100..2000
# (scripts/expansion_envelope.py): for a = 1, 3 and 5 it rises in size towards
# k = B/C(a) = -0.00107, -0.00155 and 0.00107; for a = 7, 9, 11 and 13 it falls in size
# towards B_(7,0)/C(7) = -0.00041 and b_5(a), from -0.000477, -0.0215, -1.046 and -10.07 at
# n = 400.  Each K bounds |r| n^p from n = 400 on, |k| included.
ENVELOPE = {1: (Fraction("0.0011"), Fraction(9, 2)), 3: (Fraction("0.0016"), Fraction(9, 2)),
            5: (Fraction("0.0011"), Fraction(9, 2)), 7: (Fraction("0.00048"), Fraction(9, 2)),
            9: (Fraction("0.022"), Fraction(5)), 11: (Fraction("1.1"), Fraction(5)),
            13: (Fraction(11), Fraction(5))}

# The boundary part, sum_j B_(a,j) n^-(a+j), as far as each N0(a) needs it.  The terms left
# out (B_(a,0) for a >= 7, and the next B_(a,j) for a = 1, 3 and 5) are inside ENVELOPE
# from moments._EXPANSION_N0[a] on, by their fit to exact totals.
_BOUNDARY = {1: (Fraction(11, 540), Fraction(1, 315), Fraction(2, 8505)),
             3: (Fraction(-193, 90720), Fraction(-167, 340200)), 5: (Fraction(773, 1632960),)}

# b_1..b_4, row k as (common denominator, coefficients of a^0, a^1, ...).  Rows from 5 on
# change no served total until ENVELOPE and moments._EXPANSION_N0 are measured against them.
_BRACKET = (
    (36, (-2, -6, -1)),
    (12960, (-156, -232, 16, 52, 5)),
    (48988800, (-116280, -78552, -48316, 52512, 5066, -2310, -175)),
    (7054387200, (3147120, 3252288, -2480320, 46560, 887640, -148848, -20880, 2520, 175)),
)

_SQRT_2PI = Decimal("2.506628274631000502415765284811045253006987")


def leading_constant(a: int) -> HalfIntValue:
    """Exact C(a) = Gamma(a/2+1) / (2^(a/2) (1+a)).

    Rational for even a; a rational multiple of sqrt(2 pi) for odd a.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    gamma = gamma_half_int(a + 2)  # Gamma(a/2 + 1)
    half_powers_of_two = HalfIntValue(Fraction(1), a, 0)  # 2^(a/2)
    return gamma / half_powers_of_two / (1 + a)


def _horner(coefficients: tuple, x: int | Fraction) -> int | Fraction:
    """sum_k coefficients[k] x^k, by Horner's rule."""
    return functools.reduce(lambda total, c: total * x + c, reversed(coefficients), 0)


@functools.lru_cache(maxsize=16)
def _constants(a: int) -> tuple[Fraction, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The rational part r of C(a), the bracket 1, b_1(a)..b_4(a) and B_(a,j), formed once."""
    bracket = (Fraction(1),) + tuple(Fraction(_horner(row, a), den) for den, row in _BRACKET)
    return leading_constant(a).rational, bracket, _BOUNDARY.get(a, ())


def expansion_value(n: int, a: int) -> Decimal:
    """The expansion at odd a <= 13, to 40 digits, in O(a) work.

    C(a) n^(1-a/2) = r sqrt(2 pi n) / n^((a-1)/2) with r rational (leading_constant), so
    everything but sqrt(2 pi n) is one exact Fraction; that root and the sum are formed in
    40-digit decimal.
    """
    r, bracket, boundary_terms = _constants(a)
    x = Fraction(1, n)
    scaled = r * _horner(bracket, x) * x ** ((a - 1) // 2)
    boundary = x**a * _horner(boundary_terms, x)
    with localcontext(Context(prec=40)):
        root = _SQRT_2PI * Decimal(n).sqrt()
        return (root * Decimal(scaled.numerator) / scaled.denominator
                + Decimal(boundary.numerator) / boundary.denominator)
