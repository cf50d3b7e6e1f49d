"""Expected a-th power displacement of uniform order statistics to anchors.

The i-th smallest of n uniform points is Beta(i, n-i+1) distributed; moving it
to the anchor t_i = (2i-1)/(2n) costs |X_i - t_i|^a.  The per-sensor
expectation splits at t_i into a signed integral over [0,1] plus a doubled
left-tail integral (for odd a).  Both reduce to Beta values and regularized
incomplete Beta values I(t_i; i+j, n-i+1), j = 0..a, with integer parameters
and rational z = t_i, so the whole computation is exact.

The exact route evaluates one incomplete Beta per sensor, I(t_i; i, n-i+1),
and reaches every j by the parameter recurrence
I(z; c+1, d) = I(z; c, d) - C(c+d-1, c) z^c (1-z)^d.  By reflection,
X_(n+1-i) has the law of 1 - X_i and t_(n+1-i) = 1 - t_i, so E_i = E_(n+1-i)
and, for odd a, the signed part changes sign.  total_moment_exact computes
only the sensors i > n/2, whose incomplete Beta has at most ceil(n/2) terms,
and mirrors the rest.

Two float paths cover large n.  Up to the exact-size guard a cancellation-free
positive series is used (binomial expansion around the anchor on each side of
the split, all terms positive, evaluated in log space); beyond it, per-sensor
terms are assembled from log-space binomial ratios and the float incomplete
Beta.  The latter expansion is alternating, so its relative error grows like
n^(a/2) * 1e-16; it is intended for the small-a, large-n asymptotic runs.

Per-sensor terms are independent and may be evaluated in parallel; this
implementation reduces them serially in index order, so exact results are
reproducible bit-for-bit and float results are run-to-run identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import betainc as _betainc
from scipy.special import gammaln as _gammaln

from .special_functions import beta_exact, incomplete_beta_regularized_exact

__all__ = [
    "EXACT_N_GUARD",
    "SizeGuardError",
    "MomentQuery",
    "SensorMoment",
    "MomentBreakdown",
    "FloatMomentBreakdown",
    "anchor",
    "per_sensor_moment_exact",
    "total_moment_exact",
    "total_moment_float",
]

# Rational bit length grows roughly like n log n; beyond this the float path
# is the supported route.
EXACT_N_GUARD = 2000

# The positive-series float path is O(n^2) terms; past this size the
# log-space expansion takes over.
_SERIES_N_MAX = 2000


class SizeGuardError(ValueError):
    """Exact path rejected because n exceeds EXACT_N_GUARD."""


@dataclass(frozen=True)
class MomentQuery:
    """Problem size: n sensors, moment order a (parity drives the split)."""

    n: int
    a: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.a < 1:
            raise ValueError("a must be >= 1")

    @property
    def odd(self) -> bool:
        return self.a % 2 == 1


@dataclass(frozen=True)
class SensorMoment:
    i: int
    t: Fraction
    e_total: Fraction
    e_signed_part: Fraction
    e_folded_part: Fraction


@dataclass(frozen=True)
class MomentBreakdown:
    per_sensor: tuple[SensorMoment, ...]
    total: Fraction


@dataclass(frozen=True)
class FloatMomentBreakdown:
    """Float analogue of MomentBreakdown; per-sensor columns are arrays."""

    n: int
    a: int
    e_total: np.ndarray
    e_signed_part: np.ndarray
    e_folded_part: np.ndarray
    total: float


def anchor(i: int, n: int) -> Fraction:
    """Anchor t_i = (2i-1)/(2n), the target of the i-th sensor."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= i <= n:
        raise ValueError(f"sensor index {i} outside 1..{n}")
    return Fraction(2 * i - 1, 2 * n)


def per_sensor_moment_exact(q: MomentQuery, i: int) -> SensorMoment:
    """Exact E|X_i - t_i|^a with its signed/folded decomposition.

    The signed part integrates (x - t_i)^a over [0,1]; for odd a the folded
    part adds twice the left-tail integral of (t_i - x)^a, which restores the
    absolute value because (t_i - x)^a = -(x - t_i)^a left of the anchor.
    For even a the signed integral already is the absolute moment and the
    folded part is zero.  The left-tail weights I(t_i; i+j, n-i+1) come from
    one incomplete Beta at j = 0, stepped up one j at a time.
    """
    n, a = q.n, q.a
    d = n - i + 1
    t = anchor(i, n)
    prefactor = i * math.comb(n, i)
    signed = Fraction(0)
    folded = Fraction(0)
    if q.odd:
        reg = incomplete_beta_regularized_exact(t, i, d)
        power = t ** (i - 1) * (1 - t) ** d
    for j in range(a + 1):
        bv = beta_exact(i + j, d).rational
        signed += math.comb(a, j) * (-t) ** (a - j) * bv
        if q.odd:
            if j:
                # I(t; i+j, d) = I(t; i+j-1, d) - C(n+j-1, i+j-1) t^(i+j-1) (1-t)^d
                power *= t
                reg -= math.comb(n + j - 1, i + j - 1) * power
            folded += 2 * math.comb(a, j) * (-1) ** j * t ** (a - j) * bv * reg
    signed *= prefactor
    folded *= prefactor
    return SensorMoment(i=i, t=t, e_total=signed + folded, e_signed_part=signed,
                        e_folded_part=folded)


def total_moment_exact(q: MomentQuery) -> MomentBreakdown:
    """Exact breakdown of the total expected cost; guarded at EXACT_N_GUARD.

    Sensors i > n/2 are computed; each sensor i <= n/2 is the mirror image of
    n+1-i: same total, and for odd a the signed part changes sign.
    """
    n = q.n
    if n > EXACT_N_GUARD:
        raise SizeGuardError(
            f"exact path guarded at n <= {EXACT_N_GUARD} (got n={n}); "
            "use total_moment_float for larger n")
    upper = [per_sensor_moment_exact(q, i) for i in range(n // 2 + 1, n + 1)]
    lower = []
    for i in range(1, n // 2 + 1):
        e = upper[-i]  # sensor n+1-i
        signed = -e.e_signed_part if q.odd else e.e_signed_part
        lower.append(SensorMoment(i=i, t=anchor(i, n), e_total=e.e_total,
                                  e_signed_part=signed, e_folded_part=e.e_total - signed))
    entries = tuple(lower + upper)
    total = Fraction(0)
    for e in entries:
        total += e.e_total
    return MomentBreakdown(per_sensor=entries, total=total)


# --- float paths -----------------------------------------------------------


def _total_moment_float_series(n: int, a: int) -> FloatMomentBreakdown:
    """Cancellation-free positive series, O(n^2) terms, log-space evaluated.

    Substituting x = t(1-y) on [0, t] and x = t + (1-t)y on [t, 1] and
    expanding the shifted power binomially makes every term of both side
    integrals positive, so accuracy is limited only by rounding (~1e-12).
    """
    lgf = _gammaln(np.arange(n + a + 2, dtype=np.float64) + 1.0)  # lgf[k] = log k!
    i = np.arange(1, n + 1)
    log_t = np.log(2.0 * i - 1.0) - math.log(2 * n)
    log_1mt = np.log(2.0 * (n - i) + 1.0) - math.log(2 * n)
    log_pre = np.log(i.astype(np.float64)) + lgf[n] - lgf[i] - lgf[n - i]

    def segment_sums(counts: np.ndarray, left_side: bool) -> np.ndarray:
        starts = np.zeros(n, dtype=np.int64)
        starts[1:] = np.cumsum(counts)[:-1]
        i_f = np.repeat(i, counts)
        m_f = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)
        lt = np.repeat(log_t, counts)
        l1 = np.repeat(log_1mt, counts)
        lp = np.repeat(log_pre, counts)
        if left_side:
            log_c = lgf[n - i_f] - lgf[m_f] - lgf[n - i_f - m_f]
            log_b = lgf[a + m_f] + lgf[i_f - 1] - lgf[a + m_f + i_f]
            lv = lp + (a + i_f + m_f) * lt + log_c + (n - i_f - m_f) * l1 + log_b
        else:
            log_c = lgf[i_f - 1] - lgf[m_f] - lgf[i_f - 1 - m_f]
            log_b = lgf[a + m_f] + lgf[n - i_f] - lgf[a + m_f + n - i_f + 1]
            lv = lp + (n - i_f + a + 1 + m_f) * l1 + log_c + (i_f - 1 - m_f) * lt + log_b
        out = np.add.reduceat(np.exp(lv), starts)
        out[counts == 0] = 0.0
        return out

    left = segment_sums(n - i + 1, left_side=True)     # prefactor * int_0^t (t-x)^a dens
    right = segment_sums(i.copy(), left_side=False)    # prefactor * int_t^1 (x-t)^a dens
    e_total = left + right
    if a % 2 == 1:
        e_folded = 2.0 * left
        e_signed = right - left
    else:
        e_folded = np.zeros_like(e_total)
        e_signed = e_total
    return FloatMomentBreakdown(n=n, a=a, e_total=e_total, e_signed_part=e_signed,
                                e_folded_part=e_folded, total=math.fsum(e_total))


def _total_moment_float_expansion(n: int, a: int) -> FloatMomentBreakdown:
    """Log-space binomial expansion with float incomplete Beta (large n).

    i C(n,i) B(i+j, n-i+1) collapses to the rising-factorial ratio
    i(i+1)..(i+j-1) / ((n+1)..(n+j)), so no large factorials are formed.
    """
    i = np.arange(1, n + 1, dtype=np.float64)
    t = (2.0 * i - 1.0) / (2 * n)
    ratio = np.ones_like(i)
    signed = np.zeros_like(i)
    folded = np.zeros_like(i)
    odd = a % 2 == 1
    for j in range(a + 1):
        if j > 0:
            ratio = ratio * (i + (j - 1)) / (n + j)
        c_j = math.comb(a, j)
        signed += c_j * (-t) ** (a - j) * ratio
        if odd:
            reg = _betainc(i + j, n - i + 1, t)
            folded += 2.0 * c_j * (-1.0) ** j * t ** (a - j) * ratio * reg
    if odd:
        e_total = signed + folded
    else:
        e_total = signed
        folded = np.zeros_like(i)
    return FloatMomentBreakdown(n=n, a=a, e_total=e_total, e_signed_part=signed,
                                e_folded_part=folded, total=math.fsum(e_total))


def total_moment_float(q: MomentQuery) -> FloatMomentBreakdown:
    """Float breakdown of the total expected cost, n up to 10^7.

    Matches the exact path to better than 1e-9 relative throughout the
    positive-series regime (n <= 2000, any a <= 9); beyond that the
    alternating expansion limits useful orders to small a (see module notes).
    """
    if q.n > 10**7:
        raise ValueError("float path supports n <= 10^7")
    if q.n <= _SERIES_N_MAX:
        return _total_moment_float_series(q.n, q.a)
    return _total_moment_float_expansion(q.n, q.a)
