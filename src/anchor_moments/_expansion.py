"""The large-n expansion of the odd-order total cost, and the constants it is built from.

For odd a the total cost is

    S(n, a) = C(a) n^(1-a/2) [1 - c1/n + c2/n^2] + B_a n^-a + (omitted terms),

C(a) = Gamma(a/2+1) / (2^(a/2) (1+a)) the paper's constant (leading_constant).  The paper
proves the leading term, with remainder O(n^-((a-1)/2)); the other terms are measured:

- c1(a) = (a^2+6a+2)/36 is the 1/n coefficient of the even closed form, checked for every
  even a from 2 to 40; for odd a it is checked through the residuals below.
- c2(a) = c1^2/2 - (a+1)(a^2+22a+22)/1620 is fitted for odd a: least-squares fits of
  exact totals at n = 100..1600 give it to 10 digits or more for a = 1, 3, 5, 7 and 9.
  The same polynomial is the even closed form's n^-2 coefficient for every even a from 4
  to 40.  At a = 2 that coefficient is 1/216 larger, as B_2 n^-2 has the same power.
- B_a comes from the boundary layer, the sensors near each end, where n X_(i) tends to a
  Gamma(i, 1) variable (_BOUNDARY).

ENVELOPE bounds what is left out, relative to the total.  moments serves odd a <= 9 from
the expansion where that bound is below 2^-54, and scripts/expansion_envelope.py measures
it again from exact totals.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction

from .special_functions import HalfIntValue, gamma_half_int

# Relative size of what the expansion leaves out: at most K n^-p, as (K, p).  For a = 1 the
# first omitted term is the boundary layer's next one, relative n^-5/2; for a >= 3 it is
# c3/n^3.  Measured as r n^p, r the relative residual against exact totals at n = 100..1600
# (scripts/expansion_envelope.py): for a = 1 and 3 it rises like k - 0.0037 n^-1/2 towards
# k = 0.01013 and 0.00719; for a = 5, 7 and 9 it falls in size like k + k'/n towards
# k = -0.0396, -0.659 and -3.32, from -0.0398, -0.663 and -3.35 at n = 400.  Each K is |k|
# rounded up, and bounds |r| n^p from n = 400 on.
ENVELOPE = {1: (Fraction("0.0102"), Fraction(5, 2)), 3: (Fraction("0.0073"), Fraction(3)),
            5: (Fraction("0.040"), Fraction(3)), 7: (Fraction("0.67"), Fraction(3)),
            9: (Fraction("3.4"), Fraction(3))}

# B_a, fitted: 40-digit sums of the Gamma boundary layer, extrapolated in the number of
# layers, match 11/540 to 15 digits and -193/90720 to 13; B_5 is the fitted value itself.
# B_7 and B_9 are left out.  Stated bound, not proved: |B_a| <= a!, which B_1, B_3 and B_5
# meet by factors of 49, 2800 and 250000; a term that large would show in the exact totals'
# residuals at n = 100 above 1e-5 relative.  It is (B_a/C(a)) n^-(a/2+1) relative, so at
# n >= 2.2e5, where moments takes the expansion for a = 7 and 9, it is below 1e-19 < 2^-56.
_BOUNDARY = {1: Fraction(11, 540), 3: Fraction(-193, 90720), 5: Fraction(4.73373512541918e-4)}

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


def c1(a: int) -> Fraction:
    """The 1/n coefficient: S(n, a) = C(a) n^(1-a/2) (1 - c1/n + ...)."""
    return Fraction(a * a + 6 * a + 2, 36)


def c2(a: int) -> Fraction:
    """The n^-2 coefficient; fitted for odd a (see the module docstring)."""
    return c1(a) ** 2 / 2 - Fraction((a + 1) * (a * a + 22 * a + 22), 1620)


def expansion_value(n: int, a: int) -> Decimal:
    """The expansion at odd a <= 9, to 40 digits, in O(a) work.

    C(a) n^(1-a/2) = r sqrt(2 pi n) / n^((a-1)/2) with r rational (leading_constant), so
    everything but sqrt(2 pi n) is one exact Fraction; that root and the sum are formed in
    40-digit decimal.
    """
    bracket = 1 - c1(a) / n + c2(a) / n**2
    scaled = leading_constant(a).rational * bracket / Fraction(n) ** ((a - 1) // 2)
    boundary = _BOUNDARY.get(a, 0) / Fraction(n) ** a
    with localcontext(Context(prec=40)):
        root = _SQRT_2PI * Decimal(n).sqrt()
        return (root * Decimal(scaled.numerator) / scaled.denominator
                + Decimal(boundary.numerator) / boundary.denominator)
