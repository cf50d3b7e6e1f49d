import concurrent.futures
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from anchor_moments import simulation
from anchor_moments.moments import MomentQuery, total_moment_exact
from anchor_moments.simulation import (
    _BLOCK,
    _TILE_BYTES,
    SimulationConfig,
    SimulationResult,
    _block_costs,
    _costs_from_uniforms,
    estimate,
)

# One trial is one row of the uniform matrix that _costs_from_uniforms reduces.


def test_run_trial_zero_displacement():
    assert _costs_from_uniforms(np.array([[0.5]]), 1).tolist() == [0.0]


def test_run_trial_endpoint_configuration():
    # draws {0, 1} at n=2: |0 - 1/4|^a + |1 - 3/4|^a = 2 (1/4)^a
    for a in (1, 2, 3):
        cost = _costs_from_uniforms(np.array([[1.0, 0.0]]), a)[0]
        assert cost == pytest.approx(2 * 0.25**a, rel=1e-15)


def test_run_trial_sorts_draws():
    costs = _costs_from_uniforms(np.array([[0.1, 0.5, 0.9], [0.9, 0.1, 0.5]]), 1)
    assert costs[0] == costs[1]


def test_run_trial_with_real_generator_bounds():
    rng = np.random.Generator(np.random.Philox(key=123))
    for n in (1, 3, 10):
        cost = _costs_from_uniforms(rng.random((1, n)), 2)[0]
        assert 0.0 <= cost <= n


# |d|^a as the plain products the kernel forms, in its order: squarings, and one more
# factor of the base for each set bit of a below the top one
_POWERS = {
    1: lambda d: d,
    2: lambda d: d * d,
    3: lambda d: (d * d) * d,
    4: lambda d: (d * d) * (d * d),
    5: lambda d: ((d * d) * (d * d)) * d,
    9: lambda d: (((d * d) * (d * d)) * ((d * d) * (d * d))) * d,
}


def test_costs_match_out_of_place_formula():
    rng = np.random.Generator(np.random.Philox(key=5))
    for n, a in ((1, 1), (7, 2), (40, 3), (33, 4), (21, 5), (129, 9)):
        u = rng.random((300, n))
        anchors = (2.0 * np.arange(1, n + 1) - 1.0) / (2 * n)
        expected = _POWERS[a](np.abs(np.sort(u, axis=1) - anchors)).sum(axis=1)
        assert np.array_equal(_costs_from_uniforms(u, a), expected)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(n=0, a=1, trials=10)
    with pytest.raises(ValueError):
        SimulationConfig(n=1, a=1, trials=0)
    with pytest.raises(ValueError):
        SimulationConfig(n=1, a=1, trials=10, seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(n=1, a=1, trials=10, workers=0)


def test_estimate_result_structure():
    res = estimate(SimulationConfig(n=3, a=1, trials=5000, seed=11))
    assert isinstance(res, SimulationResult)
    assert res.trials == 5000 and res.seed == 11
    assert res.std_error > 0
    assert res.ci95 == (res.mean - 1.96 * res.std_error, res.mean + 1.96 * res.std_error)


def test_estimate_deterministic_for_fixed_seed():
    config = SimulationConfig(n=7, a=2, trials=20_000, seed=42)
    first = estimate(config)
    second = estimate(config)
    assert first == second


def test_estimate_worker_count_invariant(monkeypatch):
    # 5 blocks split into spans of 2+3 and 1+2+2 blocks
    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    base, *multi = [estimate(SimulationConfig(n=5, a=1, trials=4 * 4096 + 7, seed=9, workers=w))
                    for w in (1, 2, 3)]
    for other in multi:
        assert base.mean == other.mean
        assert base.std_error == other.std_error
        assert base.ci95 == other.ci95


def test_estimate_seed_changes_result():
    a = estimate(SimulationConfig(n=5, a=1, trials=10_000, seed=1))
    b = estimate(SimulationConfig(n=5, a=1, trials=10_000, seed=2))
    assert a.mean != b.mean


def test_estimate_single_trial_has_zero_error():
    res = estimate(SimulationConfig(n=4, a=1, trials=1, seed=0))
    assert res.std_error == 0.0
    assert res.ci95 == (res.mean, res.mean)


def test_estimate_costs_within_bounds():
    # mean of costs in [0, n] stays in [0, n]
    res = estimate(SimulationConfig(n=6, a=3, trials=4000, seed=3))
    assert 0.0 <= res.mean <= 6.0


def test_every_trial_cost_within_bounds():
    rng = np.random.Generator(np.random.Philox(key=77))
    costs = _costs_from_uniforms(rng.random((500, 8)), 3)
    assert np.all((costs >= 0.0) & (costs <= 8.0))


@pytest.mark.parametrize("n,a", [(1, 1), (2, 1), (5, 1), (10, 3), (50, 2)])
def test_estimate_unbiased_against_exact(n, a):
    exact = float(total_moment_exact(MomentQuery(n, a)).total)
    res = estimate(SimulationConfig(n=n, a=a, trials=1_000_000, seed=2026))
    assert abs(res.mean - exact) <= 5 * res.std_error


# --- tiled kernel, block streams and the process pool --------------------------


@pytest.mark.parametrize("rows,n,a", [
    (4096, 50, 1),                  # 4096 rows are not a whole number of 1310-row tiles
    (100, 50, 3),                   # fewer rows than one tile
    (3, _TILE_BYTES // 8 + 3, 2),   # a row longer than a tile: one row per tile
])
def test_block_costs_match_one_untiled_draw(rows, n, a):
    seed, block = 31, 4
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,))))
    expected = _costs_from_uniforms(rng.random((rows, n)), a)
    assert np.array_equal(_block_costs(seed, block, rows, n, a), expected)


def test_block_streams_are_pinned():
    # literal values: a change of the generator, its seeding or the block layout fails here
    assert _block_costs(0, 0, 3, 5, 1).tolist() == [
        0.3578391423344671, 0.667411740408461, 0.6474029010611639]
    assert _block_costs(0, 1, 1, 5, 1).tolist() == [0.4022156107663387]
    assert estimate(SimulationConfig(n=3, a=2, trials=4097, seed=0)).mean == 0.1383484877724045


class _InProcessPool:
    """Stands in for ProcessPoolExecutor, records its size and starts no process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus,trials,sizes", [
    (64, 5 * 4096, [5]),    # capped by the number of blocks
    (2, 300 * 4096, [2]),   # capped by the CPUs this process may use
    (64, 4096, []),         # one block runs in this process
])
def test_pool_size_is_capped(monkeypatch, cpus, trials, sizes):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    result = estimate(SimulationConfig(n=1, a=1, trials=trials, seed=3, workers=100_000))
    assert _InProcessPool.sizes == sizes
    assert result == estimate(SimulationConfig(n=1, a=1, trials=trials, seed=3))


def test_pool_size_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.delattr(simulation.os, "sched_getaffinity")
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 3)
    estimate(SimulationConfig(n=1, a=1, trials=10 * 4096, seed=3, workers=100_000))
    assert _InProcessPool.sizes == [3]


@pytest.mark.parametrize("n,a", [(3, 1), (3, 9), (50, 2)])
def test_span_sums_are_exact(n, a):
    # six blocks fold as 4 + 2, or as 2 + 4 from block 2; a = 9 spreads costs over many binades
    trials, seed = 5 * _BLOCK + 3, 4
    costs = [Fraction(c) for b in range(6)
             for c in _block_costs(seed, b, min(_BLOCK, trials - b * _BLOCK), n, a).tolist()]
    exact = (sum(costs), sum(c * c for c in costs))
    assert simulation._span_sums(seed, range(6), trials, n, a) == exact
    parts = [simulation._span_sums(seed, r, trials, n, a) for r in (range(2), range(2, 6))]
    assert tuple(map(sum, zip(*parts))) == exact


@pytest.mark.parametrize("workers", [1, 3])
def test_variance_is_the_exactly_rounded_sample_variance(monkeypatch, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    # at this seed a two-pass float variance, sum (c - mean)^2 / (N - 1), puts std_error an ulp low
    n, a, trials, seed = 3, 1, 4 * _BLOCK + 7, 3
    costs = [Fraction(c) for b in range(5)
             for c in _block_costs(seed, b, min(_BLOCK, trials - b * _BLOCK), n, a).tolist()]
    total, total_sq = sum(costs), sum(c * c for c in costs)
    var = (trials * total_sq - total * total) / (trials * (trials - 1))
    res = estimate(SimulationConfig(n=n, a=a, trials=trials, seed=seed, workers=workers))
    assert res.mean == float(total) / trials
    assert res.std_error == math.sqrt(float(var) / trials)


def test_estimate_memory_does_not_grow_with_trials():
    # the per-trial cost array this replaced held 32 MB here, and a copy of it
    estimate(SimulationConfig(n=5, a=1, trials=10))  # loads numpy and the float route first
    tracemalloc.start()
    try:
        estimate(SimulationConfig(n=5, a=1, trials=4_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
