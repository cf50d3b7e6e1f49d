"""Monte Carlo oracle: drop n uniform sensors, move them to the anchors,
measure the summed a-th power displacement.

Trials draw from counter-based Philox substreams: trial block b uses the
stream with key = seed and 256-bit counter b << 128, and each trial owns a
fixed row of its block's draw matrix.  Trial costs therefore depend only on
(seed, trial index), and the final reduction is an exactly-rounded sum over
trial order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = ["SimulationConfig", "SimulationResult", "estimate"]

_BLOCK = 4096  # trials per substream block; fixed so layout never depends on workers


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    a: int
    trials: int
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n < 1 or self.a < 1:
            raise ValueError("n and a must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class SimulationResult:
    mean: float
    std_error: float
    ci95: tuple[float, float]
    trials: int
    seed: int


def _costs_from_uniforms(u: np.ndarray, a: int) -> np.ndarray:
    """Per-trial cost rows: sort each row, sum |X_(i) - (2i-1)/(2n)|^a.

    Works in place: u is overwritten, so a block needs no second copy.
    """
    n = u.shape[1]
    anchors = (2.0 * np.arange(1, n + 1) - 1.0) / (2 * n)
    u.sort(axis=1)
    u -= anchors
    np.abs(u, out=u)
    u **= a
    return u.sum(axis=1)


def _block_costs(seed: int, block: int, rows: int, n: int, a: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed, counter=block << 128))
    u = rng.random((rows, n))
    return _costs_from_uniforms(u, a)


def estimate(config: SimulationConfig) -> SimulationResult:
    """Mean cost over trials with standard error and a 1.96-sigma interval."""
    trials, n, a, seed = config.trials, config.n, config.a, config.seed
    blocks = [(b, min(_BLOCK, trials - b * _BLOCK))
              for b in range((trials + _BLOCK - 1) // _BLOCK)]
    if config.workers == 1 or len(blocks) == 1:
        parts = [_block_costs(seed, b, rows, n, a) for b, rows in blocks]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_block_costs, seed, b, rows, n, a) for b, rows in blocks]
            parts = [f.result() for f in futures]
    costs = np.concatenate(parts)
    mean = math.fsum(costs) / trials
    if trials > 1:
        dev = costs - mean
        var = math.fsum(dev * dev) / (trials - 1)
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    ci = (mean - 1.96 * std_error, mean + 1.96 * std_error)
    return SimulationResult(mean=mean, std_error=std_error, ci95=ci,
                            trials=trials, seed=seed)
