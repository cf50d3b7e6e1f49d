"""Float route of moments.py for odd orders, on numpy arrays.  moments.total_moment_float
at odd a, lemma 4's sum and the float-Beta check load it on first call, so the exact route
and the CLI start without numpy.  moments owns the route's size limit.  This module alone
knows how floats are summed exactly (exact_sum).

An odd total is one uncached pass over the computed sensors: their densities f_i(t_i), the
tails L_0 (_top_tail), then the two recurrences.  At the limit, n = 2 x 10^4, it takes about
60 ms and peaks near 5 MiB under tracemalloc; at n = 2000 about 2 ms, on a 2-core machine."""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np

_CHUNK = 2**14  # values per pass of exact_sum, sensors per pass of anchor_sum


def exact_sum(x: np.ndarray) -> Fraction:
    """Exact sum of a float array, in passes of _CHUNK; float() of it rounds once, to
    math.fsum(x).

    np.frexp gives x = M 2^(e-53), M an integer below 2^53 in size, split as hi 2^26 + lo
    with |hi| <= 2^27 and 0 <= lo < 2^26.  np.bincount over e sums each part exactly in
    floats, for up to 2^26 values a pass; a Python int collects the passes in units of
    2^-1126, the smallest 2^(e-53) of a double.
    """
    total = 0
    for lo in range(0, len(x), _CHUNK):
        m, e = np.frexp(x[lo:lo + _CHUNK])
        if not np.isfinite(m).all():
            raise ValueError("exact sum needs finite values")
        m = np.ldexp(m, 27)
        hi = np.floor(m)
        e += 1073
        hi_sums, lo_sums = np.bincount(e, hi), np.bincount(e, (m - hi) * 2.0**26)
        bins = np.flatnonzero((hi_sums != 0) | (lo_sums != 0))
        for b, hs, ls in zip(bins.tolist(), hi_sums[bins].tolist(), lo_sums[bins].tolist()):
            total += ((int(hs) << 26) + int(ls)) << b
    return Fraction(total, 1 << 1126)


def _anchor_terms(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sensors i = lo..hi-1 as a float array, with t_i and 1 - t_i (formed exactly)."""
    i = np.arange(lo, hi, dtype=np.float64)
    return i, (2.0 * i - 1.0) / (2 * n), (2.0 * (n - i) + 1.0) / (2 * n)


with localcontext(Context(prec=40)):  # log(k!) - log(sqrt(2 pi k) (k/e)^k), k = 1..15
    _STIRLERR_SMALL = np.array([0.0] + [
        float(Decimal(math.factorial(k)).ln() + k - (k + Decimal("0.5")) * Decimal(k).ln()
              - Decimal("0.9189385332046727417803297364056176398614")) for k in range(1, 16)])


def _stirlerr(k: np.ndarray | int) -> np.ndarray:
    """Stirling remainder of integer-valued k; past 15 the sixth series term is below 1e-16."""
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    kk = np.maximum(k, 16.0) ** 2
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk)
    out /= np.sqrt(kk)
    small = k <= 15
    out[small] = _STIRLERR_SMALL[k[small].astype(np.int64)]
    return out


def beta_density_at_anchor(n: int, i: np.ndarray) -> np.ndarray:
    """Density of X_i ~ Beta(i, n-i+1) at t_i, for an array of indices i.

    f(t_i) = n P(Bin(n-1, t_i) = i-1) in Loader's saddle-point form (C. Loader,
    Fast and Accurate Computation of Binomial Probabilities, 2000).  The count
    i-1 misses its mean by d = (2i-n-1)/(2n), formed exactly; |d| < 1/2 keeps
    the log1p form of both deviances accurate.  At i = 1 and i = n it is one power.
    """
    x, y = i - 1.0, n - i
    d = (2.0 * i - n - 1.0) / (2 * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_core = (_stirlerr(n - 1) - _stirlerr(x) - _stirlerr(y)
                    + x * np.log1p(-d / x) + y * np.log1p(d / y))
        dens = n * np.exp(log_core) * np.sqrt((n - 1) / (2 * math.pi * x * y))
    ends = (x == 0) | (y == 0)
    gap = np.minimum(2.0 * i - 1.0, 2.0 * (n - i) + 1.0)[ends] / (2 * n)  # min(t, 1-t)
    dens[ends] = n * np.exp((n - 1) * np.log1p(-gap))
    return dens


def anchor_sum(n: int, c: float) -> float:
    """sum_i 2 f_i(t_i) t_i^(c+1) (1-t_i) over i = 1..n, f_i the Beta(i, n-i+1) density:
    summed exactly in passes of _CHUNK sensors and rounded once."""
    total = Fraction(0)
    for lo in range(1, n + 1, _CHUNK):
        i, t, one_minus_t = _anchor_terms(n, lo, min(lo + _CHUNK, n + 1))
        total += exact_sum(2.0 * beta_density_at_anchor(n, i) * t ** (c + 1) * one_minus_t)
    return float(total)


def _left_moment(n: int, a: int, tq, h, g, start):
    """L_a = E[(t-X)^a; X < t], X ~ Beta(i, n-i+1), by the Pearson recurrence.

    With tq = t(1-t), h = t - 1/2 and g = tq f(t), integrating (t-x)^k d[x(1-x) f(x)]
    by parts, where (x(1-x) f)' = (i - (n+1)x) f and i - (n+1)t = -h, gives
    (n+1) L_1 = g + h L_0 and (n+1+k) L_(k+1) = k tq L_(k-1) + (2k+1) h L_k.
    g = 0 with L_0 = 1 gives E(t-X)^a.  For t >= 1/2 no term is negative.  It
    runs on float arrays; moments._scaled_left_moment is its integer form.
    """
    prev, cur = start, (g + h * start) / (n + 1)
    for k in range(1, a):
        prev, cur = cur, (k * tq * prev + (2 * k + 1) * h * cur) / (n + 1 + k)
    return cur


_TOP_WIDTH_STEP = 16  # see _top_tail
_TOP_ROWS = 256  # sensors per block of _top_tail, which bounds its temporaries


def _top_tail(n: int, i: np.ndarray, q: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """L_0 = T_i = I(t_i; i, n-i+1) = P(Bin(n, t_i) >= i), q = 1 - t, as the positive sum of
    the pmf from k = i: pmf(i) = dens t / i, then pmf(k+1) = pmf(k) (n-k) t / ((k+1) q).  The
    terms stop at k = n; i exceeds the mean n t by 1/2, so by Bernstein's inequality, with
    s^2 = n t(1-t), the terms past ceil(10 s) + 3 of them add less than 1e-17.  Each sensor
    takes that many ratios, or n - i if fewer, rounded up to a multiple of _TOP_WIDTH_STEP so
    that few array widths occur, and no more than the count for the largest s^2, n/4.  The
    count depends on n and i alone.  Each run of one width is taken in blocks of at most
    _TOP_ROWS sensors; rows are independent, so the blocks change no bit."""
    t = (2.0 * i - 1.0) / (2 * n)
    count = np.minimum(np.ceil(10 * np.sqrt(n * t * q)) + 2, n - i)
    width = np.minimum(np.ceil(count / _TOP_WIDTH_STEP) * _TOP_WIDTH_STEP,
                       math.ceil(10 * math.sqrt(n / 4)) + 2).astype(np.int64)
    sums = np.empty_like(i)
    runs = np.flatnonzero(np.diff(width, prepend=-1)).tolist()  # runs of one width
    starts = sorted(set(runs).union(range(0, len(i), _TOP_ROWS)))
    for lo, hi in zip(starts, starts[1:] + [len(i)]):
        k = np.arange(width[lo])
        ratio = (n - i[lo:hi, None] - k) / (i[lo:hi, None] + k + 1) * (t / q)[lo:hi, None]
        sums[lo:hi] = np.cumprod(ratio, axis=1).sum(axis=1)
    return dens * t / i * (1.0 + sums)


def _computed_half(n: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """For odd a, E(t-X)^a and L_a = E[(t-X)^a; X < t] at the computed sensors i > n/2, the
    middle sensor of odd n first.  A sensor's total is 2 L_a - E(t-X)^a.  Even orders take
    the closed form, moments.signed_moment_total.
    """
    i, t, one_minus_t = _anchor_terms(n, n // 2 + 1, n + 1)
    dens = beta_density_at_anchor(n, i)
    start = _top_tail(n, i, one_minus_t, dens)
    h = (2.0 * i - 1.0 - n) / (2 * n)  # t - 1/2
    tq = t * one_minus_t
    return _left_moment(n, a, tq, h, 0.0, 1.0), _left_moment(n, a, tq, h, tq * dens, start)


def odd_total(n: int, a: int) -> float:
    """Float total of the expected cost for odd a.

    By reflection E_i = E_(n+1-i), so the total is twice the exact sum of the computed
    half (_computed_half) less the middle sensor of odd n, rounded once.
    """
    full, left = _computed_half(n, a)
    e_total = 2.0 * left - full
    return float(2 * exact_sum(e_total) - exact_sum(e_total[: n % 2]))
