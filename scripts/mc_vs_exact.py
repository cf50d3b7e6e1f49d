#!/usr/bin/env python3
"""Cross-check Monte Carlo estimates against the exact rational totals.

Prints mean, standard error and the z-score of the deviation from the exact
value for a few (n, a) pairs; |z| should rarely exceed 3.  Even orders take
the closed form, which holds past the per-sensor route's size guard.
"""

import argparse

from anchor_moments.moments import MomentQuery, _exact_total
from anchor_moments.simulation import SimulationConfig, estimate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    pairs = [(2, 1), (5, 1), (10, 3), (50, 2), (200, 1), (5000, 2)]
    print(f"{'n':>5} {'a':>2} {'exact':>14} {'mc mean':>14} {'std err':>10} {'z':>7}")
    for n, a in pairs:
        exact = float(_exact_total(MomentQuery(n, a)))
        res = estimate(SimulationConfig(n=n, a=a, trials=args.trials,
                                        seed=args.seed, workers=args.workers))
        z = (res.mean - exact) / res.std_error
        print(f"{n:>5} {a:>2} {exact:>14.8f} {res.mean:>14.8f} {res.std_error:>10.2e} {z:>+7.2f}")


if __name__ == "__main__":
    main()
