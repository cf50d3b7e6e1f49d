"""Reference values for the expected total cost, computed apart from the package.

The i-th of n sorted uniform points X_i is Beta(i, n-i+1) distributed and its
anchor is t_i = (2i-1)/(2n).  This module does not import anchor_moments; the
benchmark checks the package's outputs against it.

- Signed moments E(X_i - t_i)^a use E X_i^j = i^(j) / (n+1)^(j) (rising
  factorials), expanded binomially, in exact integers.  For even a this is the
  absolute moment, so even-order totals are exact.  The sum over i is taken
  through exact power sums, so it costs O(a^2) big-integer operations at any n.
- Absolute moments of odd order come from Gauss-Legendre quadrature of
  |x - t_i|^a against the Beta(i, n-i+1) density, split at the anchor.  The
  density is evaluated relative to its value at t_i (log1p of the offset) and
  normalised by the same quadrature, so no Beta function is formed.

Quadrature at n >= 10^5 takes seconds to a minute, so those totals are cached
in reference_cache.json.  Regenerate the cache:

    python3 perfbench/reference.py --write-cache

Show the reference's own error (imports anchor_moments from src/ for the
exact totals at small n):

    python3 perfbench/reference.py --self-test
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

CACHE_PATH = Path(__file__).with_name("reference_cache.json")

# Panels per side of the anchor and Gauss-Legendre nodes per panel.
PANELS = 6
NODES = 20
_CHUNK = 2048  # sensors per vectorised quadrature block

# Large-n odd totals the float-sweep workload needs; everything else is cheap.
CACHED_CASES = [(10**5, a) for a in (1, 3, 5, 7, 9)] + [(10**6, 1)]


# --- exact signed moments --------------------------------------------------


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for k, x in enumerate(p):
        if x:
            for m, y in enumerate(q):
                out[k + m] += x * y
    return out


def _rising(x: int, k: int) -> int:
    out = 1
    for r in range(k):
        out *= x + r
    return out


def _signed_polynomial(n: int, a: int) -> tuple[list[int], int]:
    """Integer coefficients c_m and denominator D with E(X_i - t_i)^a = sum_m c_m i^m / D.

    E(X_i - t_i)^a = sum_j C(a,j) (-t_i)^(a-j) i^(j) / (n+1)^(j); multiplying
    by D = (2n)^a (n+1)^(a) leaves integer polynomials in i.
    """
    coeffs = [0] * (a + 1)
    rising_i = [1]  # i^(j) as a polynomial in i
    for j in range(a + 1):
        k = a - j
        shifted = [math.comb(k, m) * (-2) ** m for m in range(k + 1)]  # (1-2i)^k
        scale = math.comb(a, j) * (2 * n) ** j * _rising(n + 1 + j, k)
        for m, c in enumerate(_poly_mul(shifted, rising_i)):
            coeffs[m] += scale * c
        rising_i = _poly_mul(rising_i, [j, 1])
    return coeffs, (2 * n) ** a * _rising(n + 1, a)


def _power_sums(n: int, top: int) -> list[int]:
    """S_m = sum_{i=1..n} i^m for m = 0..top, exactly."""
    sums: list[int] = []
    for m in range(top + 1):
        acc = (n + 1) ** (m + 1) - 1 - sum(math.comb(m + 1, k) * sums[k] for k in range(m))
        sums.append(acc // (m + 1))
    return sums


def signed_sensor_moments(n: int, a: int) -> list[Fraction]:
    """Exact E(X_i - t_i)^a for i = 1..n (the absolute moment when a is even)."""
    coeffs, denom = _signed_polynomial(n, a)
    out = []
    for i in range(1, n + 1):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * i + c
        out.append(Fraction(acc, denom))
    return out


def signed_total(n: int, a: int) -> Fraction:
    """Exact sum_i E(X_i - t_i)^a; the expected total cost when a is even."""
    coeffs, denom = _signed_polynomial(n, a)
    sums = _power_sums(n, a)
    return Fraction(sum(c * s for c, s in zip(coeffs, sums)), denom)


# --- quadrature of absolute moments -----------------------------------------


def quadrature_totals(n: int, orders: list[int], panels: int = PANELS,
                      nodes: int = NODES) -> dict[int, float]:
    """sum_i E|X_i - t_i|^a for each a in orders, by split Gauss-Legendre."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    u = ((np.arange(panels)[:, None] + (xg[None, :] + 1.0) / 2.0) / panels).ravel()
    wu = np.tile(wg / (2.0 * panels), panels)
    parts: dict[int, list[np.ndarray]] = {a: [] for a in orders}
    for start in range(1, n + 1, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, n + 1), dtype=np.float64)[:, None]
        t = (2.0 * i - 1.0) / (2.0 * n)
        mean = i / (n + 1.0)
        sd = np.sqrt(i * (n - i + 1.0) / ((n + 1.0) ** 2 * (n + 2.0)))
        # Wider windows near the ends, where the density is skewed like a
        # Gamma(i) and its right tail decays slowly in units of sd.
        width = (10.0 + 45.0 / np.sqrt(np.minimum(i, n + 1.0 - i))) * sd
        below = np.minimum(np.maximum(mean - width, 0.0) - t, 0.0)
        above = np.maximum(np.minimum(mean + width, 1.0) - t, 0.0)
        offset = np.concatenate([below * u, above * u], axis=1)
        weight = np.concatenate([-below * wu, above * wu], axis=1)
        log_dens = ((i - 1.0) * np.log1p(offset / t)
                    + (n - i) * np.log1p(-offset / (1.0 - t)))
        dens = weight * np.exp(log_dens)
        norm = dens.sum(axis=1)
        dist = np.abs(offset)
        power = np.ones_like(dist)
        for a in range(1, max(orders) + 1):
            power *= dist
            if a in parts:
                parts[a].append((dens * power).sum(axis=1) / norm)
    return {a: math.fsum(np.concatenate(parts[a])) for a in orders}


# --- the values the benchmark uses ------------------------------------------


def load_cache() -> dict[tuple[int, int], float]:
    """Cached odd totals, keyed by (n, a); empty if the cache does not match."""
    try:
        data = json.loads(CACHE_PATH.read_text())
    except FileNotFoundError:
        return {}
    if (data.get("panels"), data.get("nodes")) != (PANELS, NODES):
        return {}
    return {(row["n"], row["a"]): row["total"] for row in data["totals"]}


def total(n: int, a: int, cache: dict[tuple[int, int], float] | None = None) -> float:
    """Reference expected total cost as a float."""
    if a % 2 == 0:
        return float(signed_total(n, a))
    if cache and (n, a) in cache:
        return cache[(n, a)]
    return quadrature_totals(n, [a])[a]


def _odd_check(n: int, orders: list[int]) -> dict:
    """Quadrature totals at n plus two measures of their own error.

    even_rel_err: the same quadrature on even orders against the exact closed
    form.  refine_rel_diff: odd totals against a run with twice the panels
    and 1.5 times the nodes.
    """
    evens = [2, 4]
    base = quadrature_totals(n, orders + evens)
    fine = quadrature_totals(n, orders, panels=2 * PANELS, nodes=NODES * 3 // 2)
    even_err = max(abs(base[a] / float(signed_total(n, a)) - 1.0) for a in evens)
    refine = max(abs(base[a] / fine[a] - 1.0) for a in orders)
    return {"totals": {a: base[a] for a in orders},
            "even_rel_err": even_err, "refine_rel_diff": refine}


def write_cache() -> None:
    rows, checks = [], []
    for n in sorted({n for n, _ in CACHED_CASES}):
        orders = [a for m, a in CACHED_CASES if m == n]
        res = _odd_check(n, orders)
        checks.append({"n": n, "even_rel_err": res["even_rel_err"],
                       "refine_rel_diff": res["refine_rel_diff"]})
        rows += [{"n": n, "a": a, "total": v} for a, v in res["totals"].items()]
        print(f"n={n}: even_rel_err={res['even_rel_err']:.2e} "
              f"refine_rel_diff={res['refine_rel_diff']:.2e}", flush=True)
    CACHE_PATH.write_text(json.dumps(
        {"regenerate": "python3 perfbench/reference.py --write-cache",
         "panels": PANELS, "nodes": NODES, "checks": checks, "totals": rows},
        indent=1) + "\n")
    print(f"wrote {CACHE_PATH.name}")


def self_test() -> int:
    """Print the reference's error against total_moment_exact and the closed form."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from anchor_moments.moments import MomentQuery, total_moment_exact

    worst = 0.0
    print("odd quadrature vs total_moment_exact")
    for n in (1, 2, 10, 50, 150):
        quad = quadrature_totals(n, [1, 3, 5, 7, 9])
        errs = []
        for a, q in quad.items():
            exact = total_moment_exact(MomentQuery(n=n, a=a)).total
            errs.append(abs(q / float(exact) - 1.0))
            even = total_moment_exact(MomentQuery(n=n, a=a + 1)).total
            if even != signed_total(n, a + 1):
                print(f"  n={n} a={a + 1}: closed form differs from total_moment_exact")
                return 1
        worst = max(worst, *errs)
        print(f"  n={n}: max rel err {max(errs):.2e}; even closed form exact for a=2..10")
    print("quadrature vs closed form (even a) and refinement (odd a)")
    for n in (400, 2000, 10**5):
        res = _odd_check(n, [1, 3, 5, 7, 9])
        worst = max(worst, res["even_rel_err"], res["refine_rel_diff"])
        print(f"  n={n}: even_rel_err {res['even_rel_err']:.2e}, "
              f"refine_rel_diff {res['refine_rel_diff']:.2e}")
    print(f"worst {worst:.2e}")
    return 0 if worst < 1e-10 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write-cache", action="store_true")
    group.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.write_cache:
        write_cache()
        return 0
    return self_test()


if __name__ == "__main__":
    sys.exit(main())
