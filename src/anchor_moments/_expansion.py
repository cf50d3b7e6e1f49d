"""The large-n expansion of the odd-order total cost, and the constants it is built from.

For odd a the total cost is

    S(n, a) = C(a) n^(1-a/2) [1 + b_1/n + b_2/n^2 + b_3/n^3 + b_4/n^4] + (boundary part)
              + (omitted terms),

C(a) = Gamma(a/2+1) / (2^(a/2) (1+a)) the paper's constant (leading_constant): for odd
a = 2m-1 it is a! / (m! 2^(3m)) sqrt(2 pi), for even a (a/2)! / (2^(a/2) (1+a)).  The paper
proves the leading term, with remainder O(n^-((a-1)/2)); the other terms are measured.

b_1..b_4 (_BRACKET) are the even closed form's bracket coefficients, polynomials in a, carried
over to odd a; the boundary part, sum_j B_(a,j) n^-(a+j) (_BOUNDARY), comes from the sensors
near each end, where n X_(i) tends to a Gamma(i, 1) variable.  Their evidence is two tests in
tests/test_moments.py: test_bracket_table_is_the_even_closed_form regenerates _BRACKET exactly
from signed_moment_total, and test_boundary_constants_fit_exact_totals fits _BOUNDARY to
exact odd totals.

expansion_value works on integers and caches nothing: what depends on a alone is built once
at import, as a table of constants (_ORDERS); per call it runs _terms, then one integer
square root and one correctly rounded int true division.

ENVELOPE bounds what is left out, relative to the total.  moments serves odd a <= 13 from
the expansion where that bound is below 2^-54, and scripts/expansion_envelope.py measures
it again from exact totals.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .special_functions import HalfIntValue

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

# The boundary part, sum_j B_(a,j) n^-(a+j), as far as each N0(a) needs it, as (lcm of the
# denominators, numerators of B_(a,0), B_(a,1), ...): B_1 = 11/540, 1/315, 2/8505,
# B_3 = -193/90720, -167/340200 and B_5 = 773/1632960.  The terms left out (B_(a,0) for
# a >= 7, and the next B_(a,j) for a = 1, 3 and 5) are inside ENVELOPE from
# moments._EXPANSION_N0[a] on, by their fit to exact totals.
_BOUNDARY = {1: (34020, (693, 108, 8)), 3: (1360800, (-2895, -668)), 5: (1632960, (773,))}

# b_1..b_4, row k as (common denominator, coefficients of a^0, a^1, ...).  Rows from 5 on
# change no served total until ENVELOPE and moments._EXPANSION_N0 are measured against them.
_BRACKET = (
    (36, (-2, -6, -1)),
    (12960, (-156, -232, 16, 52, 5)),
    (48988800, (-116280, -78552, -48316, 52512, 5066, -2310, -175)),
    (7054387200, (3147120, 3252288, -2480320, 46560, 887640, -148848, -20880, 2520, 175)),
)

# _TWO_PI_4K = floor(2 pi 4^_K), so isqrt(_TWO_PI_4K n) is sqrt(2 pi n) 2^_K within
# 2^-(_K+1) relative for n >= 1.
_K = 128
_TWO_PI_4K = 727543153783532648560469885555459725306786754656784859917544302235877788932370

# The bracket over one denominator, _DEN, which every row's denominator divides.
_DEN = _BRACKET[-1][0]


def _rational_part(a: int) -> tuple[int, int]:
    """C(a) as (p, q), not reduced: C(a) = p/q sqrt(2 pi) for odd a = 2m-1, with
    p/q = a! / (m! 2^(3m)), and C(a) = p/q = (a/2)! / (2^(a/2) (1+a)) for even a."""
    if a % 2:
        m = (a + 1) // 2
        return math.factorial(a), math.factorial(m) << 3 * m
    return math.factorial(a // 2), (a + 1) << a // 2


def leading_constant(a: int) -> HalfIntValue:
    """Exact C(a) = Gamma(a/2+1) / (2^(a/2) (1+a)).

    Rational for even a; a rational multiple of sqrt(2 pi) for odd a (_rational_part).
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    p, q = _rational_part(a)
    return HalfIntValue(Fraction(p, q), a % 2, a % 2)


def _horner(coefficients: tuple, x: int | Fraction) -> int | Fraction:
    """sum_k coefficients[k] x^k, by Horner's rule."""
    total = 0
    for c in reversed(coefficients):
        total = total * x + c
    return total


def _order_terms(a: int) -> tuple[tuple[int, ...], int, int, tuple[int, ...], int, int]:
    """What _terms needs of odd order a, from _BRACKET, _BOUNDARY and (p, q) = _rational_part(a):
    the bracket at a times p over _DEN, as coefficients of n^0..n^4, its denominator q _DEN and
    the power of n that divides it; the boundary terms as coefficients of n^0, n^1, ..., their
    lcm and the power of n."""
    p, q = _rational_part(a)
    lcm, terms = _BOUNDARY.get(a, (1, ()))
    bracket = tuple(p * (_DEN // den) * _horner(row, a) for den, row in reversed(_BRACKET))
    return ((*bracket, p * _DEN), q * _DEN, len(_BRACKET) + (a - 1) // 2,
            terms[::-1], lcm, a + len(terms) - 1)


# _order_terms of every order the expansion serves: constants built once at import, no cache.
_ORDERS = {a: _order_terms(a) for a in ENVELOPE}


def _terms(n: int, a: int) -> tuple[int, int, int, int]:
    """The expansion at odd a <= 13 as sqrt(2 pi n) num/den + b_num/b_den, not reduced.

    C(a) n^(1-a/2) = r sqrt(2 pi n) / n^((a-1)/2) with r rational (_rational_part).  The
    bracket times r n^-((a-1)/2) is num/den, and the boundary part is b_num/b_den: each
    numerator is one Horner pass in n over the order's stored integers (_ORDERS).
    """
    bracket, den, power, boundary, lcm, b_power = _ORDERS[a]
    return _horner(bracket, n), den * n**power, _horner(boundary, n), lcm * n**b_power


def expansion_value(n: int, a: int) -> float:
    """The expansion at odd a <= 13 as a float, in O(a) work; inf past the largest float.
    With sqrt(2 pi n) 2^_K truncated to an integer it is one integer quotient, which int
    true division rounds once, correctly, subnormal and 0 included."""
    num, den, b_num, b_den = _terms(n, a)
    root = math.isqrt(_TWO_PI_4K * n)
    try:
        return (root * num * b_den + (b_num * den << _K)) / (den * b_den << _K)
    except OverflowError:
        return math.inf
