"""Exact path simulation for the spiky spot-price model.

Between grid points every transition is sampled from its exact law: the spike
process Z decays geometrically by exp(-beta * mesh) between jumps, the log of
the exp-OU continuous part follows its Gaussian AR(1) transition, and the
two-factor risk-neutral model uses the exact joint Gaussian recursion of
(long factor, short OU factor).  No Euler scheme anywhere, so ensemble
statistics carry Monte Carlo error only.

Each batched leg has one engine, ``spike_values_batch`` for the spikes and
``simulate_two_factor`` for the two-factor spot; a single path is row 0 of a
batch of one, so ``simulate_spot`` and the strip pricer share the arithmetic.

Reproducibility contract: replication r of an experiment derives a child
stream from (master seed, r) through a counter-based generator (Philox), so
results are bit-identical for a fixed master seed at any parallelism degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.signal import lfilter

from .model import ContinuousSpec, ExpOU, Flat, ForwardCurve, GridSpec, ModelSpec, SampledPath
from .model import SpikeParams, TwoFactorDynamics, TwoFactorParams

__all__ = [
    "JumpRecord",
    "SimulatedPath",
    "make_rng",
    "child_seed",
    "interval_index",
    "simulate_spikes",
    "spike_values_batch",
    "simulate_spikes_batch",
    "simulate_exp_ou",
    "simulate_spot",
    "simulate_two_factor",
]


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator from an integer seed or SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def child_seed(master_seed: int, *path: int) -> np.random.SeedSequence:
    """Deterministic child stream key for replication indices under a master seed."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))


@dataclass(frozen=True)
class JumpRecord:
    """One jump of the driving Poisson measure: arrival time and size."""

    time: float
    size: float


@dataclass(frozen=True)
class SimulatedPath:
    """Simulated decomposition X = Xc + Z with the exact jump bookkeeping."""

    observed: SampledPath
    continuous: SampledPath
    spike: SampledPath
    truth: Tuple[JumpRecord, ...]


def interval_index(time, grid: GridSpec):
    """Index i in 1..n with t_{i-1} < time <= t_i on the grid.

    Elementwise for an array of times (returns an integer array); a scalar
    time gives an int.  Robust against floating roundoff in time / mesh near
    grid points.
    """
    mesh, n = grid.mesh, grid.n
    time = np.asarray(time, dtype=float)
    if not np.all(np.isfinite(time)):
        raise ValueError("jump times must be finite")
    i = np.minimum(np.maximum(np.floor(time / mesh).astype(np.int64) + 1, 1), n)
    # settle boundary roundoff by direct comparison with the grid times
    while np.any(low := (i > 1) & ((i - 1) * mesh >= time)):
        i = i - low
    while np.any(high := (i < n) & (i * mesh < time)):
        i = i + high
    return int(i) if i.ndim == 0 else i


def _draw_jumps(
    params: SpikeParams, grid: GridSpec, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """One path's jumps (sorted arrival times, sizes).

    The single place that fixes the order in which a path's jumps are drawn
    from the stream, shared by ``simulate_spikes`` and ``simulate_spikes_batch``.
    """
    horizon = grid.horizon
    count = int(rng.poisson(params.intensity * horizon))
    times = np.sort(rng.uniform(0.0, horizon, count))
    # keep arrivals off grid points and off 0 (both probability-zero events):
    # nudge one ulp toward the interval interior so i(n, q) stays well defined
    times[times == 0.0] = np.nextafter(0.0, 1.0)
    on_grid = (times % grid.mesh) == 0.0
    times[on_grid] = np.nextafter(times[on_grid], 0.0)
    sizes = params.law.sample(rng, count) if count else np.empty(0)
    return times, sizes


def simulate_spikes(
    params: SpikeParams, grid: GridSpec, rng: np.random.Generator
) -> Tuple[SampledPath, Tuple[JumpRecord, ...]]:
    """Simulate the spike process on the grid together with its exact jumps.

    The jump count is Poisson(intensity * horizon), arrival times are uniform
    order statistics on (0, horizon] and sizes are i.i.d. from the law.  Grid
    values are computed without discretization error, as row 0 of
    ``spike_values_batch``.
    """
    times, sizes = _draw_jumps(params, grid, rng)
    truth = tuple(JumpRecord(float(t), float(x)) for t, x in zip(times, sizes))
    values = spike_values_batch([(times, sizes)], grid, params.reversion)[0]
    return SampledPath(grid, values), truth


def spike_values_batch(
    jumps: Sequence[Tuple[np.ndarray, np.ndarray]], grid: GridSpec, reversion: float
) -> np.ndarray:
    """Spike-process values of several paths at once, shape (len(jumps), n + 1).

    Row p is built from jumps[p] = (sorted arrival times, sizes).  Every jump
    is placed in its interval at once and the per-step decay runs as one
    first-order filter along the rows, Z_{t_i} = (new jumps decayed to t_i) +
    d * Z_{t_{i-1}}.  On a jumpless step the filter adds an exact 0.0, so
    Z_{t_i} == d * Z_{t_{i-1}} bit for bit.  The per-step loop form of this
    recursion is the test oracle: rows equal it bit for bit except where two
    jumps share an interval, where the order of the sums moves them a few ulps.
    """
    times = np.concatenate([t for t, _ in jumps])
    sizes = np.concatenate([x for _, x in jumps])
    rows = np.repeat(np.arange(len(jumps)), [t.size for t, _ in jumps])
    idx = interval_index(times, grid)
    mesh = grid.mesh
    kicks = np.zeros((len(jumps), grid.n + 1))
    # unbuffered, so the jumps of one interval are added in time order
    np.add.at(kicks, (rows, idx), sizes * np.exp(-reversion * (idx * mesh - times)))
    return lfilter([1.0], [1.0, -np.exp(-reversion * mesh)], kicks, axis=1)


def simulate_spikes_batch(
    params: SpikeParams, grid: GridSpec, rng: np.random.Generator, paths: int
) -> np.ndarray:
    """Spike-process values of ``paths`` independent paths, shape (paths, n + 1).

    Row p takes its jumps from ``rng`` exactly as the p-th of ``paths``
    consecutive ``simulate_spikes`` calls would, and equals that call's path.
    """
    jumps = [_draw_jumps(params, grid, rng) for _ in range(paths)]
    return spike_values_batch(jumps, grid, params.reversion)


def simulate_exp_ou(
    spec: ExpOU, grid: GridSpec, rng: np.random.Generator
) -> SampledPath:
    """Exponential-OU continuous part via the exact AR(1) log transition.

    log X is Gaussian AR(1): Y_{i} = a Y_{i-1} + s G_i with a = exp(-kappa *
    mesh) and s^2 = vol^2 (1 - a^2) / (2 kappa) (s^2 = vol^2 * mesh in the
    kappa -> 0 limit).
    """
    kappa, vol = spec.reversion, spec.vol
    mesh = grid.mesh
    if kappa == 0.0:
        a, step_var = 1.0, vol * vol * mesh
    else:
        a = np.exp(-kappa * mesh)
        step_var = vol * vol * (-np.expm1(-2.0 * kappa * mesh)) / (2.0 * kappa)
    s = np.sqrt(step_var)
    y0 = np.log(spec.initial)
    shocks = s * rng.standard_normal(grid.n)
    y, _ = lfilter([1.0], [1.0, -a], shocks, zi=[a * y0])
    values = np.exp(np.concatenate([[y0], y]))
    return SampledPath(grid, values)


def _continuous_path(spec: ContinuousSpec, grid: GridSpec, rng: np.random.Generator) -> SampledPath:
    if isinstance(spec, ExpOU):
        return simulate_exp_ou(spec, grid, rng)
    if isinstance(spec, Flat):
        return SampledPath(grid, np.full(grid.n + 1, float(spec.level)))
    if isinstance(spec, TwoFactorDynamics):
        return SampledPath(grid, simulate_two_factor(spec.params, spec.curve, grid, rng, 1)[0])
    raise TypeError(f"unsupported continuous spec {type(spec).__name__}")


def simulate_spot(
    model: ModelSpec, grid: GridSpec, rng: np.random.Generator
) -> SimulatedPath:
    """Simulate X = Xc + Z with independent streams for the two components."""
    rng_cont, rng_jump = rng.spawn(2)
    continuous = _continuous_path(model.continuous, grid, rng_cont)
    spike, truth = simulate_spikes(model.spikes, grid, rng_jump)
    observed = SampledPath(grid, continuous.values + spike.values)
    return SimulatedPath(observed=observed, continuous=continuous, spike=spike, truth=truth)


# ---------------------------------------------------------------------------
# Two-factor forward-model simulation (risk-neutral continuous part)
# ---------------------------------------------------------------------------


def _two_factor_states(params, grid, rng, paths: int):
    """Exact joint simulation of (W_long, Y_short) on the grid for a batch.

    Returns arrays of shape (paths, n + 1).  Per step the pair (long
    increment, OU innovation) is Gaussian with Var1 = mesh, Var2 =
    (1 - exp(-2 alpha mesh)) / (2 alpha) and Cov = rho (1 - exp(-alpha mesh))
    / alpha, obtained by integrating the correlated Brownian drivers.
    """
    alpha, rho = params.alpha, params.rho
    mesh, n = grid.mesh, grid.n
    a = np.exp(-alpha * mesh)
    var1 = mesh
    var2 = -np.expm1(-2.0 * alpha * mesh) / (2.0 * alpha)
    cov = rho * (-np.expm1(-alpha * mesh)) / alpha
    c = cov / np.sqrt(var1)
    d = np.sqrt(max(var2 - c * c, 0.0))

    g1 = rng.standard_normal((paths, n))
    g2 = rng.standard_normal((paths, n))
    # built in place behind a zero first column, which the cumulative sum
    # and the filter carry through unchanged: two large arrays fewer at peak
    wl = np.zeros((paths, n + 1))
    np.multiply(g1, np.sqrt(var1), out=wl[:, 1:])
    np.cumsum(wl, axis=1, out=wl)
    innov = np.zeros((paths, n + 1))
    np.multiply(g1, c, out=innov[:, 1:])
    del g1
    g2 *= d
    innov[:, 1:] += g2
    del g2
    return wl, lfilter([1.0], [1.0, -a], innov, axis=1)


def simulate_two_factor(
    params: TwoFactorParams,
    curve: ForwardCurve,
    grid: GridSpec,
    rng: np.random.Generator,
    paths: int,
    antithetic: bool = False,
) -> np.ndarray:
    """Two-factor spots Xc_t = f(0,t) exp(-v(t)/2 + sl W_t + ss Y_t), shape (paths, n + 1).

    v(t) is the exact log-variance, so the spot is a martingale against the
    initial curve.  With ``antithetic`` the factors of the first paths / 2
    rows are drawn and the last paths / 2 rows mirror them.
    """
    if antithetic and paths % 2:
        raise ValueError(f"antithetic simulation needs an even number of paths, got {paths}")
    wl, ys = _two_factor_states(params, grid, rng, paths // 2 if antithetic else paths)
    if antithetic:
        wl, ys = np.concatenate([wl, -wl]), np.concatenate([ys, -ys])
    t = grid.times()
    return curve(t) * np.exp(-0.5 * params.log_variance(t) + params.sigma_l * wl + params.sigma_s * ys)
