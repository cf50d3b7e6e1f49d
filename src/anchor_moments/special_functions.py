"""Gamma/Beta layer: exact values at integer and half-integer arguments.

Half-integer Gamma and Beta values live in the ring of monomials
q * sqrt(2)**s * sqrt(pi)**p with q rational, so identities between them can
be verified exactly instead of to a tolerance.  The regularized incomplete
Beta function at integer parameters and rational z is an exact, positive
binomial tail in integers (_beta_tail), the form the exact route and the identity
checks share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .combinatorics import rising_factorial

__all__ = [
    "HalfIntValue",
    "gamma_half_int",
    "beta_exact",
    "stirling_bounds",
]

Rational = Union[int, Fraction]
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)


class HalfIntValue:
    """Exact scalar of the form rational * sqrt(2)**sqrt2_pow * sqrt(pi)**sqrt_pi_pow.

    Even sqrt(2) powers are folded into the rational part on construction, so
    sqrt2_pow is always 0 or 1; sqrt(pi) powers are kept verbatim (pi is
    transcendental, nothing folds).  Addition is defined only between values
    carrying the same monomial, which is all the verified identities need.
    A value is immutable, hashable and equal only to a HalfIntValue; it has no order.
    """

    __slots__ = ("rational", "sqrt2_pow", "sqrt_pi_pow")
    rational: Fraction
    sqrt2_pow: int
    sqrt_pi_pow: int

    def __init__(self, rational: Rational, sqrt2_pow: int = 0, sqrt_pi_pow: int = 0) -> None:
        q = Fraction(rational)
        s2, sp = sqrt2_pow, sqrt_pi_pow
        if q == 0:
            s2 = sp = 0
        else:
            q *= Fraction(2) ** ((s2 - (s2 % 2)) // 2)
            s2 %= 2
        object.__setattr__(self, "rational", q)
        object.__setattr__(self, "sqrt2_pow", s2)
        object.__setattr__(self, "sqrt_pi_pow", sp)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple[Fraction, int, int]:
        return self.rational, self.sqrt2_pow, self.sqrt_pi_pow

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"HalfIntValue(rational={self.rational!r}, sqrt2_pow={self.sqrt2_pow!r}, "
                f"sqrt_pi_pow={self.sqrt_pi_pow!r})")

    def __reduce__(self):
        return HalfIntValue, self._key()

    # -- arithmetic (exact) --
    def _coerce(self, other) -> "HalfIntValue":
        if isinstance(other, HalfIntValue):
            return other
        if isinstance(other, (int, Fraction)):
            return HalfIntValue(Fraction(other))
        return NotImplemented  # type: ignore[return-value]

    def __mul__(self, other) -> "HalfIntValue":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return HalfIntValue(self.rational * o.rational, self.sqrt2_pow + o.sqrt2_pow,
                            self.sqrt_pi_pow + o.sqrt_pi_pow)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "HalfIntValue":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.rational == 0:
            raise ZeroDivisionError("division by zero HalfIntValue")
        return HalfIntValue(self.rational / o.rational, self.sqrt2_pow - o.sqrt2_pow,
                            self.sqrt_pi_pow - o.sqrt_pi_pow)

    def __add__(self, other) -> "HalfIntValue":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.rational == 0:
            return o
        if o.rational == 0:
            return self
        if (self.sqrt2_pow, self.sqrt_pi_pow) != (o.sqrt2_pow, o.sqrt_pi_pow):
            raise ValueError("cannot add HalfIntValues with different monomials")
        return HalfIntValue(self.rational + o.rational, self.sqrt2_pow, self.sqrt_pi_pow)

    __radd__ = __add__

    def to_float(self) -> float:
        return float(self.rational) * _SQRT_2 ** self.sqrt2_pow * _SQRT_PI ** self.sqrt_pi_pow

    def __str__(self) -> str:
        parts = [str(self.rational)]
        if self.sqrt2_pow:
            parts.append("sqrt(2)")
        if self.sqrt_pi_pow:
            parts.append("sqrt(pi)" if self.sqrt_pi_pow == 1 else f"sqrt(pi)^{self.sqrt_pi_pow}")
        return "*".join(parts)


def gamma_half_int(two_z: int) -> HalfIntValue:
    """Gamma(two_z / 2), exact.

    Integer arguments give (z-1)!; half-integer arguments give a rational
    multiple of sqrt(pi), Gamma(m+1/2) = (1/2)^rising(m) sqrt(pi).
    """
    if two_z < 1:
        raise ValueError("gamma_half_int requires two_z >= 1")
    if two_z % 2 == 0:
        return HalfIntValue(Fraction(math.factorial(two_z // 2 - 1)))
    return HalfIntValue(rising_factorial(Fraction(1, 2), two_z // 2), 0, 1)


def _as_two_z(x: Rational) -> int:
    two = Fraction(x) * 2
    if two.denominator != 1 or two <= 0:
        raise ValueError("argument must be a positive integer or half-integer")
    return int(two)


def beta_exact(c: Rational, d: Rational) -> HalfIntValue:
    """Beta(c, d) = Gamma(c)Gamma(d)/Gamma(c+d) for (half-)integer c, d > 0.

    For positive integers this is 1 / (C(c+d-1, c) * c), the form that
    identities.check_beta_binomial_form compares it with.
    """
    c2, d2 = _as_two_z(c), _as_two_z(d)
    return gamma_half_int(c2) * gamma_half_int(d2) / gamma_half_int(c2 + d2)


def _beta_tail(p: int, q: int, c: int, d: int, p_power: int | None = None) -> int:
    """q^m I(p/q; c, d) = sum_(k>=c) C(m,k) p^k r^(m-k), m = c+d-1, r = q-p, exact.

    I(z; c, d) = P(Bin(m, z) >= c).  The d terms have ratios
    T_(k-1) / T_k = kr / ((m-k+1)p), so the sum times (m-c)! / p^c is
    sum_(j=c..m) prod_(k=j+1..m) kr prod_(k=c+1..j) (m-k+1)p, summed in Horner
    form with small multipliers only and divided once.  Every term is positive.
    A caller that has p^c passes it as p_power.
    """
    r = q - p
    acc = prod = 1
    for k in range(c + 1, c + d):
        prod *= (c + d - k) * p
        acc = acc * (k * r) + prod
    return (p**c if p_power is None else p_power) * acc // math.factorial(d - 1)


def stirling_bounds(m: int) -> tuple[float, float, float]:
    """Two-sided factorial bounds and the exactly-computed log(m!).

    Returns (lower, upper, exact_log) where
    lower = sqrt(2 pi) m^(m+1/2) exp(-m + 1/(12m+1)) and upper uses 1/(12m);
    lower < m! < upper holds strictly for every m >= 1.  The bounds are
    floats, so m is limited to 1..170: 171! and its bounds overflow a double.
    exact_log is log of the big-integer factorial.
    """
    if not 1 <= m <= 170:
        raise ValueError(f"stirling_bounds requires 1 <= m <= 170 (got {m})")
    base = 0.5 * math.log(2 * math.pi) + (m + 0.5) * math.log(m) - m
    log_lower = base + 1.0 / (12 * m + 1)
    log_upper = base + 1.0 / (12 * m)
    exact_log = math.log(math.factorial(m))
    return math.exp(log_lower), math.exp(log_upper), exact_log
