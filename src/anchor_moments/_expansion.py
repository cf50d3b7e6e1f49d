"""The large-n expansion of the odd-order total cost, and the constants it is built from.

For odd a the total cost is

    S(n, a) = C(a) n^(1-a/2) [1 - c1/n + c2/n^2 + c3/n^3 + c4/n^4] + (boundary part)
              + (omitted terms),

C(a) = Gamma(a/2+1) / (2^(a/2) (1+a)) the paper's constant (leading_constant).  The paper
proves the leading term, with remainder O(n^-((a-1)/2)); the other terms are measured.

c1..c4 are the even closed form's coefficients, carried over to odd a.  For even a,
n^(a-1) S(n, a) is a polynomial in n of degree a/2, so its coefficients are exact: c1..c4
equal its n^-1..n^-4 coefficients for every even a from 8 to 40.  At a = 2, 4 and 6 the
bracket ends at its n^-(a/2) term, as B_a n^-a has the power of the next one: a = 2
differs from the n^-2 coefficient on (there c2 + 1/216 = 0), a = 4 from n^-3 on, and a = 6
at n^-4.  For odd a they are checked through the residuals of exact totals at n = 100..2000:

- c1(a) = (a^2+6a+2)/36 and c2(a) = c1^2/2 - (a+1)(a^2+22a+22)/1620.  Least-squares fits
  give the odd n^-2 coefficient as c2 to 10 digits or more for a = 1, 3, 5, 7 and 9.
- c3 is 0.00720, -0.0396, -0.659 and -3.32 at a = 3, 5, 7 and 9, the limits of r n^3
  against the expansion to c2; c4 + c1 c3 is that residual's n^-4 coefficient to 3 digits
  at a = 5, 7 and 9.  With c3 and c4 in, the residual falls to the orders in ENVELOPE.

The boundary part comes from the sensors near each end, where n X_(i) tends to a
Gamma(i, 1) variable (_BOUNDARY).

ENVELOPE bounds what is left out, relative to the total.  moments serves odd a <= 9 from
the expansion where that bound is below 2^-54, and scripts/expansion_envelope.py measures
it again from exact totals.
"""

from __future__ import annotations

import functools
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from .special_functions import HalfIntValue, gamma_half_int

# Relative size of what the expansion leaves out: at most K n^-p, as (K, p).  The first
# omitted term is the boundary layer's next one for a = 1, 3 and 5 (relative n^-7/2, n^-7/2
# and n^-9/2), B_7 n^-7 for a = 7 (n^-9/2), and c5/n^5 for a = 9.  Measured as r n^p, r the
# relative residual against exact totals at n = 100..2000 (scripts/expansion_envelope.py):
# for a = 1 and 5 it rises in size like k + k' n^-1/2 towards k = 0.000751 and 0.00107; for
# a = 3, 7 and 9 it falls in size towards k = -0.00417, -0.00041 and -0.0212, from -0.00419,
# -0.000476 and -0.0215 at n = 400.  Each K bounds |r| n^p from n = 400 on, |k| included.
ENVELOPE = {1: (Fraction("0.00076"), Fraction(7, 2)), 3: (Fraction("0.0042"), Fraction(7, 2)),
            5: (Fraction("0.0011"), Fraction(9, 2)), 7: (Fraction("0.00048"), Fraction(9, 2)),
            9: (Fraction("0.022"), Fraction(5))}

# The boundary part, sum_j B_(a,j) n^-(a+j), fitted.  40-digit sums of the Gamma boundary
# layer, extrapolated in the number of layers, match B_1 = 11/540 to 15 digits and
# B_3 = -193/90720 to 13; B_5 is the fitted value itself.  B_1's next term: least-squares
# fits of (S - E) n^2 = B + k'/n + k''/n^2 over exact totals at n = 400..2000 give
# B = 0.0031746031798, 1/315 to 2e-9.  B_7 and B_9 are left out.  Stated bound, not proved:
# |B_a| <= a!, which B_1, B_3 and B_5 meet by factors of 49, 2800 and 250000, and B_7, near
# -5e-5 by ENVELOPE's fit, by 10^8.  It is (B_a/C(a)) n^-(a/2+1) relative, so moments takes
# the expansion for a = 7 and 9 only where that bound is below 2^-56.
_BOUNDARY = {1: (Fraction(11, 540), Fraction(1, 315)), 3: (Fraction(-193, 90720),),
             5: (Fraction(4.73373512541918e-4),)}

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
    """The n^-2 coefficient (see the module docstring)."""
    return c1(a) ** 2 / 2 - Fraction((a + 1) * (a * a + 22 * a + 22), 1620)


def c3(a: int) -> Fraction:
    """The n^-3 coefficient (see the module docstring)."""
    return -Fraction(175 * a**6 + 2310 * a**5 - 5066 * a**4 - 52512 * a**3 + 48316 * a**2
                     + 78552 * a + 116280, 48988800)


def c4(a: int) -> Fraction:
    """The n^-4 coefficient (see the module docstring)."""
    return Fraction(175 * a**8 + 2520 * a**7 - 20880 * a**6 - 148848 * a**5 + 887640 * a**4
                    + 46560 * a**3 - 2480320 * a**2 + 3252288 * a + 3147120, 7054387200)


@functools.lru_cache(maxsize=16)
def _constants(a: int) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction,
                                tuple[Fraction, ...]]:
    """The rational part r of C(a), c1..c4 and the boundary terms of order a, formed once."""
    return leading_constant(a).rational, c1(a), c2(a), c3(a), c4(a), _BOUNDARY.get(a, ())


def expansion_value(n: int, a: int) -> Decimal:
    """The expansion at odd a <= 9, to 40 digits, in O(a) work.

    C(a) n^(1-a/2) = r sqrt(2 pi n) / n^((a-1)/2) with r rational (leading_constant), so
    everything but sqrt(2 pi n) is one exact Fraction; that root and the sum are formed in
    40-digit decimal.
    """
    r, k1, k2, k3, k4, boundary_terms = _constants(a)
    x = Fraction(1, n)
    bracket = 1 + x * (-k1 + x * (k2 + x * (k3 + x * k4)))
    scaled = r * bracket * x ** ((a - 1) // 2)
    boundary = sum(b * x ** (a + j) for j, b in enumerate(boundary_terms))
    with localcontext(Context(prec=40)):
        root = _SQRT_2PI * Decimal(n).sqrt()
        return (root * Decimal(scaled.numerator) / scaled.denominator
                + Decimal(boundary.numerator) / boundary.denominator)
