"""Exact path simulation for the spiky spot-price model.

Between grid points every transition is sampled from its exact law: the spike
process Z decays geometrically by exp(-beta * mesh) between jumps, the log of
the exp-OU continuous part follows its Gaussian AR(1) transition, and the
two-factor risk-neutral model uses the exact joint Gaussian recursion of
(long factor, short OU factor).  No Euler scheme anywhere, so ensemble
statistics carry Monte Carlo error only.

A batch of two-factor paths, with or without spikes, is walked along the
grid in chunks of columns by ``spot_chunks``, which carries the factor state
(W, Y) and the spike state Z from one chunk into the next, so a walk needs
memory O(paths x chunk) at any grid length.  ``simulate_two_factor`` and
``spike_values_batch`` concatenate the same blocks, so each leg has one
engine; a single path is row 0 of a batch of one.  No value depends on the
chunk length: the factor normals are drawn per step (the long-factor normals
of every path, then the short-factor ones) and every running sum and filter
continues across chunk boundaries.  While a walk builds one chunk, a helper
thread that lives for that walk draws the next chunk's normals (chunk 0 is
drawn inline, so a one-chunk walk starts no thread).  The generator is never
used by two threads at once, so every seeded value is the one a sequential
walk gives, and memory stays O(paths x chunk) plus one chunk of normals in
flight (512 kB at 512 paths).

Reproducibility contract: replication r of an experiment derives a child
stream from (master seed, r) through a counter-based generator (Philox), so
results are bit-identical for a fixed master seed at any parallelism degree.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

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
    "simulate_exp_ou",
    "simulate_spot",
    "simulate_two_factor",
    "spot_chunks",
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
    from the stream, shared by ``simulate_spikes`` and ``spot_chunks``.
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
    The values are the blocks of ``spot_chunks``' spike leg, concatenated.
    """
    if not jumps:
        raise ValueError("jumps must hold at least one path")
    blocks = _spike_chunks(jumps, grid, reversion, _chunk_columns(len(jumps)))
    return np.concatenate(list(blocks), axis=1)


# Entries (paths x columns) of one chunk of a walk: each block is 256 kB, so
# a chunk's working set stays in cache and a walk's memory does not grow with
# the grid.  No result depends on it (see the module docstring).
_CHUNK_ENTRIES = 32_768


def _chunk_columns(paths: int) -> int:
    return max(1, _CHUNK_ENTRIES // paths)


def _spike_chunks(
    jumps: Sequence[Tuple[np.ndarray, np.ndarray]], grid: GridSpec, reversion: float, width: int
) -> Iterator[np.ndarray]:
    """Spike values of a batch, one (len(jumps), width) block per chunk of grid columns.

    The filter state Z is carried from one chunk into the next, so the blocks
    are the columns of one whole-grid filter, bit for bit.
    """
    times = np.concatenate([t for t, _ in jumps])
    sizes = np.concatenate([x for _, x in jumps])
    rows = np.repeat(np.arange(len(jumps)), [t.size for t, _ in jumps])
    idx = interval_index(times, grid)
    mesh = grid.mesh
    kicks_at = sizes * np.exp(-reversion * (idx * mesh - times))
    # stable, so the jumps of one interval stay in time order
    order = np.argsort(idx, kind="stable")
    idx, rows, kicks_at = idx[order], rows[order], kicks_at[order]
    decay = np.exp(-reversion * mesh)
    state = np.zeros((len(jumps), 1))
    for start in range(0, grid.n + 1, width):
        stop = min(start + width, grid.n + 1)
        lo, hi = np.searchsorted(idx, (start, stop))
        kicks = np.zeros((len(jumps), stop - start))
        # unbuffered, so the jumps of one interval are added in time order
        np.add.at(kicks, (rows[lo:hi], idx[lo:hi] - start), kicks_at[lo:hi])
        values, state = lfilter([1.0], [1.0, -decay], kicks, axis=1, zi=state)
        yield values


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


def _factor_chunks(
    params: TwoFactorParams, grid: GridSpec, rng: np.random.Generator, paths: int, width: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Exact joint simulation of (W_long, Y_short) for a batch, chunk by chunk.

    Yields one pair of (paths, width) blocks per chunk of grid columns,
    starting at column 0 where W = Y = 0.  Per step the pair (long
    increment, OU innovation) is Gaussian with Var1 = mesh, Var2 =
    (1 - exp(-2 alpha mesh)) / (2 alpha) and Cov = rho (1 - exp(-alpha mesh))
    / alpha, obtained by integrating the correlated Brownian drivers.  The
    normals are drawn per step, the long-factor ones of every path first, and
    W and Y carry into each chunk's running sum and filter, so the blocks do
    not depend on ``width``.

    Chunk 0's normals are drawn inline; each later chunk's are drawn by a
    helper thread, which lives only as long as the walk, while this thread
    builds the chunk before.  A draw is submitted only after the previous
    one is taken, so ``rng`` serves one thread at a time, every normal is
    the one a sequential walk draws, and one chunk of normals is in flight
    besides the O(paths x width) blocks.  A failed draw is raised here.
    """
    alpha, rho = params.alpha, params.rho
    mesh = grid.mesh
    a = np.exp(-alpha * mesh)
    var2 = -np.expm1(-2.0 * alpha * mesh) / (2.0 * alpha)
    cov = rho * (-np.expm1(-alpha * mesh)) / alpha
    c = cov / np.sqrt(mesh)
    d = np.sqrt(max(var2 - c * c, 0.0))

    w_last = np.zeros(paths)
    y_state = np.zeros((paths, 1))
    with ThreadPoolExecutor(max_workers=1) as helper:
        for start in range(0, grid.n + 1, width):
            stop = min(start + width, grid.n + 1)
            lead = 1 if start == 0 else 0  # column 0 is the start value, not a step
            g = rng.standard_normal((stop - 1, 2, paths)) if lead else drawn.result()
            if stop <= grid.n:
                drawn = helper.submit(rng.standard_normal, (min(width, grid.n + 1 - stop), 2, paths))
            wl = np.zeros((paths, stop - start))
            np.multiply(g[:, 0].T, np.sqrt(mesh), out=wl[:, lead:])
            wl[:, 0] += w_last
            np.cumsum(wl, axis=1, out=wl)
            innov = np.zeros((paths, stop - start))
            np.multiply(g[:, 0].T, c, out=innov[:, lead:])
            innov[:, lead:] += d * g[:, 1].T
            ys, y_state = lfilter([1.0], [1.0, -a], innov, axis=1, zi=y_state)
            w_last = wl[:, -1]
            yield wl, ys


def spot_chunks(
    params: TwoFactorParams,
    curve: ForwardCurve,
    grid: GridSpec,
    rng: np.random.Generator,
    paths: int,
    antithetic: bool = False,
    spikes: Optional[SpikeParams] = None,
    jump_rng: Optional[np.random.Generator] = None,
) -> Iterator[Tuple[int, np.ndarray, Optional[np.ndarray]]]:
    """Walk a batch of paths along the grid in chunks of columns.

    Yields (start, spot, spike) per chunk: ``spot`` is the (paths, columns)
    block of two-factor spots Xc_t = f(0,t) exp(-v(t)/2 + sl W_t + ss Y_t) on
    grid columns start, start + 1, ..., and ``spike`` the matching block of
    spike values Z_t, or None without ``spikes``.  v(t) is the exact
    log-variance, so the spot is a martingale against the initial curve.  The
    factors come from ``rng``; with ``antithetic`` the factors of the first
    paths / 2 rows are drawn and the last paths / 2 rows mirror them.  The
    jumps of all ``paths`` rows are drawn from ``jump_rng`` before the walk
    starts, each row as one ``simulate_spikes`` call would draw them.  Every
    block is the same at any chunk length; memory is O(paths x chunk).
    """
    if paths < 1:
        raise ValueError(f"paths must be at least 1, got {paths}")
    if spikes is not None and jump_rng is None:
        raise ValueError("spikes need a jump_rng to draw the jumps from")
    if antithetic and paths % 2:
        raise ValueError(f"antithetic simulation needs an even number of paths, got {paths}")
    width = _chunk_columns(paths)
    t = grid.times()
    level, drift = curve(t), -0.5 * params.log_variance(t)
    factors = _factor_chunks(params, grid, rng, paths // 2 if antithetic else paths, width)
    if spikes is None:
        spike_blocks = itertools.repeat(None)
    else:
        jumps = [_draw_jumps(spikes, grid, jump_rng) for _ in range(paths)]
        spike_blocks = _spike_chunks(jumps, grid, spikes.reversion, width)
    start = 0
    for (wl, ys), spike in zip(factors, spike_blocks):
        if antithetic:
            wl, ys = np.concatenate([wl, -wl]), np.concatenate([ys, -ys])
        stop = start + wl.shape[1]
        spot = drift[start:stop] + params.sigma_l * wl
        spot += params.sigma_s * ys
        np.exp(spot, out=spot)
        spot *= level[start:stop]
        yield start, spot, spike
        start = stop


def simulate_two_factor(
    params: TwoFactorParams,
    curve: ForwardCurve,
    grid: GridSpec,
    rng: np.random.Generator,
    paths: int,
    antithetic: bool = False,
) -> np.ndarray:
    """Two-factor spots Xc_t = f(0,t) exp(-v(t)/2 + sl W_t + ss Y_t), shape (paths, n + 1).

    The blocks of ``spot_chunks`` without spikes, concatenated; with
    ``antithetic`` the last paths / 2 rows mirror the factors of the first.
    """
    blocks = spot_chunks(params, curve, grid, rng, paths, antithetic)
    return np.concatenate([spot for _, spot, _ in blocks], axis=1)
