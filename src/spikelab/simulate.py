"""Exact path simulation for the spiky spot-price model.

Between grid points every transition is sampled from its exact law: the spike
process Z decays geometrically by exp(-beta * mesh) between jumps, the log of
the exp-OU continuous part follows its Gaussian AR(1) transition, and the
two-factor risk-neutral model uses the exact joint Gaussian recursion of
(long factor, short OU factor).  No Euler scheme anywhere, so ensemble
statistics carry Monte Carlo error only.

All three legs are one first-order recursion, y_t = x_t + c * y_{t-1}: the
log exp-OU part, the spike filter Z and the short factor Y.  ``_recurse``
runs it in place down a time-major (steps, lanes) block, one lane per path
and leg, and returns the state to carry into the next block.  Its IEEE
operations are those of ``scipy.signal.lfilter([1], [1, -c])``, so every
value equals that filter bit for bit, signed zeros included (the test suite
checks this); the package imports no scipy module but ``scipy.special``.  A
block of fewer than ``_WIDE_LANES`` lanes loops over each lane in Python
floats; a wider one loops over the steps with two numpy calls a step across
all lanes.  On a 2-vCPU host a float step costs 0.12-0.14 us a lane and a
numpy step about 2 us at any width up to a few hundred lanes, so a single
path pays about 0.13 us per step and leg (lfilter paid about 0.01 us), and
ensembles should go through the batched entry points: ``observed_rows``,
``simulate_two_factor``, ``spike_values_batch`` and the studies.

``observed_rows`` simulates X = Xc + Z for a sequence of generators, a block
of paths at a time in one reused buffer of a row a path (8 MB, 104 paths at
n = 10^4); each time chunk runs the log and spike lanes as one recursion and
writes back X.  ``simulate_spot`` is one such path that also keeps Xc and Z.

A batch of two-factor paths, with or without spikes, is walked along the
grid in chunks of columns by ``spot_chunks``, which carries the factor state
(W, Y) and the spike state Z from one chunk into the next, so a walk needs
memory O(paths x chunk) at any grid length.  The chunks are built
time-major, so the recursion runs across all paths of a step at once, and
are handed out as (paths, columns) views.  ``simulate_two_factor`` and
``spike_values_batch`` concatenate the same blocks, so each leg has one
engine; a single path is row 0 of a batch of one.  No value depends on the
chunk length: the factor normals are drawn per step (the long-factor normals
of every path, then the short-factor ones) and every running sum and
recursion continues across chunk boundaries.  While a walk builds one chunk,
a helper thread that lives for that walk draws the next chunk's normals
(chunk 0 is drawn inline, so a one-chunk walk starts no thread).  The
generator is never used by two threads at once, so every seeded value is
the one a sequential walk gives, and memory stays O(paths x chunk) plus one
chunk of normals in flight (512 kB at 512 paths).

Reproducibility contract: replication r of an experiment derives a child
stream from (master seed, r) through a counter-based generator (Philox), so
results are bit-identical for a fixed master seed at any parallelism degree.
"""

from __future__ import annotations

import itertools
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .model import LOG_MAX, ContinuousSpec, ExpOU, Flat, ForwardCurve, GridSpec, ModelSpec, SampledPath
from .model import SpikeParams, TwoFactorDynamics, TwoFactorParams

__all__ = [
    "SimulatedPath",
    "make_rng",
    "child_seed",
    "simulate_spikes",
    "spike_values_batch",
    "simulate_exp_ou",
    "simulate_spot",
    "observed_rows",
    "simulate_two_factor",
    "spot_chunks",
]


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator from an integer seed or SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def child_seed(master_seed: int, *path: int) -> np.random.SeedSequence:
    """Deterministic child stream key for replication indices under a master seed."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))


@dataclass(frozen=True)
class SimulatedPath:
    """Simulated decomposition X = Xc + Z with the exact jumps.

    ``truth`` holds one (arrival time, size) row a jump, in time order: a
    read-only (k, 2) array whose ``len`` is the jump count.
    """

    observed: SampledPath
    continuous: SampledPath
    spike: SampledPath
    truth: np.ndarray


def _draw_jumps(params: SpikeParams, grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    """One path's jumps, a read-only (k, 2) array of (arrival time, size) rows in time order.

    The single place that fixes the order in which a path's jumps are drawn
    from the stream (the count, the sorted times, then the sizes), shared by
    ``simulate_spikes`` and ``spot_chunks``.  A time equal to t_i counts in
    interval i and a time of 0 in interval 1 (see ``GridSpec.interval_index``).
    """
    horizon = grid.horizon
    if not params.intensity * horizon <= 1e18:  # numpy's Poisson sampler stops near 9.2e18
        raise ValueError(f"intensity {params.intensity!r} times horizon {horizon!r} asks for over 1e18 jumps a path")
    count = int(rng.poisson(params.intensity * horizon))
    jumps = np.empty((count, 2))
    jumps[:, 0] = np.sort(rng.uniform(0.0, horizon, count))
    jumps[:, 1] = params.law.sample(rng, count)
    jumps.flags.writeable = False
    return jumps


def simulate_spikes(
    params: SpikeParams, grid: GridSpec, rng: np.random.Generator
) -> Tuple[SampledPath, np.ndarray]:
    """Simulate the spike process on the grid together with its exact jumps.

    The jump count is Poisson(intensity * horizon), arrival times are uniform
    order statistics on [0, horizon) and sizes are i.i.d. from the law; the
    jumps come back as the (k, 2) array of (time, size) rows.  Grid values
    are computed without discretization error, as row 0 of
    ``spike_values_batch``.
    """
    truth = _draw_jumps(params, grid, rng)
    return SampledPath(grid, spike_values_batch([truth], grid, params.reversion)[0]), truth


def spike_values_batch(jumps: Sequence[np.ndarray], grid: GridSpec, reversion: float) -> np.ndarray:
    """Spike-process values of several paths at once, shape (len(jumps), n + 1).

    Row p is built from jumps[p], a (k, 2) array of (arrival time, size) rows
    in time order.  Every jump is placed in its interval at once and the
    per-step decay runs as one first-order recursion down the grid, Z_{t_i} =
    (new jumps decayed to t_i) + d * Z_{t_{i-1}}.  On a jumpless step the
    recursion adds an exact 0.0, so Z_{t_i} == d * Z_{t_{i-1}} bit for bit.
    The per-step loop form of this recursion is the test oracle: rows equal
    it bit for bit except where two jumps share an interval, where the order
    of the sums moves them a few ulps.  The values are the blocks of
    ``spot_chunks``' spike leg, concatenated.
    """
    if not jumps:
        raise ValueError("jumps must hold at least one path")
    blocks = _spike_chunks(jumps, grid, reversion, _chunk_columns(len(jumps)))
    return np.concatenate(list(blocks)).T


# Entries (paths x columns) of one chunk of a walk: each block is 256 kB, so
# a chunk's working set stays in cache and a walk's memory does not grow with
# the grid.  No result depends on it (see the module docstring).
_CHUNK_ENTRIES = 32_768

# Lanes from which _recurse loops over steps in numpy rows rather than over
# lanes in Python floats: on a 2-vCPU host a numpy step costs about 2 us at
# any width up to a few hundred lanes, a float step about 0.13 us a lane, and
# they cross near 16 lanes.
_WIDE_LANES = 16

# Entries (paths x columns) of the buffer of one block of ``_spot_blocks``,
# one row of n + 1 values a path: 8 MB, allocated once per call and reused.
# The more paths a block, the less each path pays for the numpy steps of the
# recursion.  No value depends on it.
_BLOCK_ENTRIES = 1 << 20


def _chunk_columns(paths: int) -> int:
    return max(1, _CHUNK_ENTRIES // paths)


def _recurse(block: np.ndarray, state, coef: np.ndarray) -> np.ndarray:
    """Run y_t = x_t + coef * y_{t-1} down the time-major block (steps, lanes), in place.

    Row 0 becomes x_0 + ``state``; the returned state x_last * 0.0 + coef *
    y_last carries the recursion into the next block, so a block split at
    any row gives the same values.  These are the IEEE operations of
    ``lfilter([1], [1, -coef], block, axis=0, zi=state)`` and its final
    state, bit for bit, signed zeros included: lfilter adds x_{t-1} * 0.0 to
    every carried term, which moves only the sign of a zero sum, and adding
    that signed zero to x_t first gives the same sums.  ``coef`` is one value
    per lane, ``state`` a scalar or one value per lane.  A block of fewer than
    ``_WIDE_LANES`` lanes loops over each lane in Python floats, a wider one
    over its steps with two numpy calls a step across all lanes.
    """
    tail = block[-1] * 0.0
    block[1:] += block[:-1] * 0.0
    block[0] += state
    if block.shape[1] < _WIDE_LANES:
        for lane, c in zip(block.T, coef.tolist()):
            steps = iter(memoryview(lane))
            y = next(steps)
            lane[1:] = np.frombuffer(array("d", [y := x + c * y for x in steps]))
    else:
        carry = block[0] * coef
        for row in block[1:]:
            row += carry
            np.multiply(row, coef, out=carry)
    return tail + coef * block[-1]


def _spike_chunks(
    jumps: Sequence[np.ndarray], grid: GridSpec, reversion: float, width: int, logs=None
) -> Iterator[np.ndarray]:
    """Spike values of a batch, one time-major (width, lanes) block per chunk of grid columns.

    One lane a path; given ``logs = (rows, a, state)`` from ``_log_ar1``,
    the rows' log exp-OU lanes come first, so both legs run as one recursion.
    Jumps are decayed to their interval's end and added by ``np.add.at`` in
    time order; each lane's state carries into the next chunk, so the blocks
    are the rows of one whole-grid recursion, bit for bit.  A spike value
    past the float range carries inf or NaN into its lane's state, so a
    check of the state after each chunk finds it.
    """
    times, sizes = np.concatenate(jumps).T
    idx = grid.interval_index(times)
    kicks_at = sizes * np.exp(-reversion * (idx * grid.mesh - times))
    rows, a, log_state = (np.empty((0, grid.n + 1)), 0.0, 0.0) if logs is None else logs
    lead = len(rows)
    lanes = np.repeat(np.arange(lead, lead + len(jumps)), [len(path) for path in jumps])
    # order the kicks by interval, stably, to slice them per chunk
    order = np.argsort(idx, kind="stable")
    idx, lanes, kicks_at = idx[order], lanes[order], kicks_at[order]
    coef, state = np.full(lead + len(jumps), np.exp(-reversion * grid.mesh)), np.zeros(lead + len(jumps))
    coef[:lead], state[:lead] = a, log_state
    for start in range(0, grid.n + 1, width):
        stop = min(start + width, grid.n + 1)
        lo, hi = np.searchsorted(idx, (start, stop))
        block = np.zeros((stop - start, lead + len(jumps)))
        block[:, :lead] = rows[:, start:stop].T
        first = 1 if start == 0 else 0  # column 0 holds Z_0 = 0 and Y_0
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            np.add.at(block, (idx[lo:hi] - start, lanes[lo:hi]), kicks_at[lo:hi])
            if stop > start + first:
                state = _recurse(block[first:], state, coef)
        if not np.isfinite(state[lead:]).all():
            top = np.abs(sizes).max()
            raise ValueError(f"jump sizes up to {top:.6g} with reversion {reversion!r} make the spike process overflow a float")
        yield block


def _log_ar1(spec: ExpOU, grid: GridSpec, rngs: Sequence[np.random.Generator], rows: np.ndarray):
    """Fill rows (len(rngs), n + 1) with the inputs of the log exp-OU recursion; return (a, a Y_0).

    Column 0 gets Y_0 = log(initial) and columns 1..n the shocks s G_i (see
    ``simulate_exp_ou``), the normals drawn from one generator per row; the
    recursion over columns 1..n starts from the state a Y_0.
    """
    kappa, vol = spec.reversion, spec.vol
    mesh = grid.mesh
    if kappa == 0.0:
        a, step_var = 1.0, vol * vol * mesh
    else:
        a = np.exp(-kappa * mesh)
        step_var = vol * vol * (-np.expm1(-2.0 * kappa * mesh)) / (2.0 * kappa)
    if np.isinf(step_var):
        raise ValueError(f"vol {vol!r} makes the exp-OU log-variance overflow a float")
    y0 = np.log(spec.initial)
    rows[:, 0] = y0
    for row, rng in zip(rows, rngs):
        rng.standard_normal(grid.n, out=row[1:])
    rows[:, 1:] *= np.sqrt(step_var)
    return a, a * y0


def simulate_exp_ou(
    spec: ExpOU, grid: GridSpec, rng: np.random.Generator
) -> SampledPath:
    """Exponential-OU continuous part via the exact AR(1) log transition.

    log X is Gaussian AR(1): Y_{i} = a Y_{i-1} + s G_i with a = exp(-kappa *
    mesh) and s^2 = vol^2 (1 - a^2) / (2 kappa) (s^2 = vol^2 * mesh in the
    kappa -> 0 limit).  The normals come from ``rng``; the path is one lane
    of the recursion that ``observed_rows`` runs for a block of exp-OU paths.
    """
    logs = np.empty(grid.n + 1)
    a, state = _log_ar1(spec, grid, [rng], logs[None])
    width = _chunk_columns(1)  # chunked, so the float loop's list stays small
    for start in range(1, grid.n + 1, width):
        state = _recurse(logs[start : start + width, None], state, np.full(1, a))
    return SampledPath(grid, np.exp(logs))


def _continuous_rows(
    spec: ContinuousSpec, grid: GridSpec, rngs: Sequence[np.random.Generator], rows: np.ndarray
) -> Optional[Tuple[np.ndarray, float, float]]:
    """Fill rows with the continuous leg, one generator a row.

    An exp-OU leg gets the inputs of ``_log_ar1`` and returns (rows, a, a Y_0)
    for ``_spike_chunks``; a flat or two-factor leg gets its values (None).
    """
    if isinstance(spec, ExpOU):
        return (rows, *_log_ar1(spec, grid, rngs, rows))
    if isinstance(spec, Flat):
        rows[:] = float(spec.level)
    elif isinstance(spec, TwoFactorDynamics):
        for row, rng in zip(rows, rngs):
            row[:] = simulate_two_factor(spec.params, spec.curve, grid, rng, 1)[0]
    else:
        raise TypeError(f"unsupported continuous spec {type(spec).__name__}")
    return None


def _spot_blocks(
    model: ModelSpec, grid: GridSpec, rngs: Iterable[np.random.Generator], split: bool
) -> Iterator[Tuple[list, np.ndarray, Optional[np.ndarray]]]:
    """Simulate X = Xc + Z a block of paths at a time; yield (jumps, rows, spikes) per block.

    Path r spawns two child streams of rngs[r], for the continuous leg and
    the jumps.  A block's rows (paths, n + 1) lie in one buffer of at most
    ``_BLOCK_ENTRIES`` entries, reused from block to block, and start out
    holding the continuous leg; each time chunk of ``_spike_chunks`` is
    written back as X, or with ``split`` as Xc and Z into a new ``spikes``.
    """
    rngs = iter(rngs)
    per_block = max(1, _BLOCK_ENTRIES // (grid.n + 1))
    buffer = np.empty(0)
    while streams := [rng.spawn(2) for rng in itertools.islice(rngs, per_block)]:
        paths = len(streams)
        if buffer.size < paths * (grid.n + 1):
            buffer = np.empty(paths * (grid.n + 1))
        rows = buffer[: paths * (grid.n + 1)].reshape(paths, grid.n + 1)
        logs = _continuous_rows(model.continuous, grid, [cont for cont, _ in streams], rows)
        jumps = [_draw_jumps(model.spikes, grid, jump_rng) for _, jump_rng in streams]
        spikes = np.empty_like(rows) if split else None
        width = _chunk_columns(paths if logs is None else 2 * paths)
        blocks = _spike_chunks(jumps, grid, model.spikes.reversion, width, logs)
        for start, block in zip(range(0, grid.n + 1, width), blocks):
            cols = slice(start, start + len(block))
            z = block[:, -paths:]
            if logs is not None and block[:, :paths].max() > LOG_MAX:
                raise ValueError(f"the exp-OU path with vol {model.continuous.vol!r} overflows a float")
            xc = rows[:, cols].T if logs is None else np.exp(block[:, :paths])
            if split:
                spikes[:, cols] = z.T
            rows[:, cols] = (xc if split else xc + z).T  # a no-op for Xc read from rows
        yield jumps, rows, spikes


def observed_rows(
    model: ModelSpec, grid: GridSpec, rngs: Iterable[np.random.Generator]
) -> Iterator[SampledPath]:
    """Simulate X = Xc + Z once per generator in ``rngs``, a block of paths at a time.

    Path r spawns two child streams of rngs[r], as ``simulate_spot`` does:
    the continuous leg draws from the first and the jumps from the second,
    so each path is the observed path ``simulate_spot`` gives on that
    generator, bit for bit, whatever the block.  A block holds a row a path
    in one reused buffer of at most 2^20 entries (8 MB).  A two-factor leg
    is simulated path by path.
    """
    for _, rows, _ in _spot_blocks(model, grid, rngs, split=False):
        yield from (SampledPath(grid, row) for row in rows)


def simulate_spot(
    model: ModelSpec, grid: GridSpec, rng: np.random.Generator
) -> SimulatedPath:
    """Simulate X = Xc + Z with independent streams for the two components.

    The continuous leg draws from the first of two child streams of ``rng``
    and the jumps from the second; the path is the one ``observed_rows``
    gives on that generator, with Xc and Z kept apart.
    """
    (truth,), (xc,), (z,) = next(_spot_blocks(model, grid, (rng,), split=True))
    return SimulatedPath(SampledPath(grid, xc + z), SampledPath(grid, xc), SampledPath(grid, z), truth)


# ---------------------------------------------------------------------------
# Two-factor forward-model simulation (risk-neutral continuous part)
# ---------------------------------------------------------------------------


def _factor_chunks(
    params: TwoFactorParams, grid: GridSpec, rng: np.random.Generator, paths: int, width: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Exact joint simulation of (W_long, Y_short) for a batch, chunk by chunk.

    Yields one pair of time-major (width, paths) blocks per chunk of grid
    columns, starting at column 0 where W = Y = 0.  Per step the pair (long
    increment, OU innovation) is Gaussian with Var1 = mesh, Var2 =
    (1 - exp(-2 alpha mesh)) / (2 alpha) and Cov = rho (1 - exp(-alpha mesh))
    / alpha, obtained by integrating the correlated Brownian drivers.  The
    normals are drawn per step, the long-factor ones of every path first, and
    W and Y carry into each chunk's running sum and recursion, so the blocks do
    not depend on ``width``.  Y is the recursion Y_t = innovation + a Y_{t-1}
    across all paths of a step at once, a = exp(-alpha mesh).

    Chunk 0's normals are drawn inline; each later chunk's are drawn by a
    helper thread, which lives only as long as the walk, while this thread
    builds the chunk before.  A draw is submitted only after the previous
    one is taken, so ``rng`` serves one thread at a time, every normal is
    the one a sequential walk draws, and one chunk of normals is in flight
    besides the O(paths x width) blocks.  A failed draw is raised here.
    """
    alpha, rho = params.alpha, params.rho
    mesh = grid.mesh
    a = np.full(paths, np.exp(-alpha * mesh))  # an array: numpy multiplies it faster than a scalar
    var2 = -np.expm1(-2.0 * alpha * mesh) / (2.0 * alpha)
    cov = rho * (-np.expm1(-alpha * mesh)) / alpha
    c = cov / np.sqrt(mesh)
    d = np.sqrt(max(var2 - c * c, 0.0))

    w_last = y_state = 0.0
    with ThreadPoolExecutor(max_workers=1) as helper:
        for start in range(0, grid.n + 1, width):
            stop = min(start + width, grid.n + 1)
            lead = 1 if start == 0 else 0  # column 0 is the start value, not a step
            g = rng.standard_normal((stop - 1, 2, paths)) if lead else drawn.result()
            if stop <= grid.n:
                drawn = helper.submit(rng.standard_normal, (min(width, grid.n + 1 - stop), 2, paths))
            wl = np.zeros((stop - start, paths))
            np.multiply(g[:, 0], np.sqrt(mesh), out=wl[lead:])
            wl[0] += w_last
            np.cumsum(wl, axis=0, out=wl)
            ys = np.zeros((stop - start, paths))
            np.multiply(g[:, 0], c, out=ys[lead:])
            ys[lead:] += d * g[:, 1]
            y_state = _recurse(ys, y_state, a)
            w_last = wl[-1]
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
    block is the same at any chunk length; memory is O(paths x chunk).  The
    blocks are computed time-major and yielded as their (paths, columns)
    transposes, so the rows of ``spot.T`` (one per grid column) are
    contiguous.
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
            wl, ys = np.concatenate([wl, -wl], axis=1), np.concatenate([ys, -ys], axis=1)
        stop = start + len(wl)
        spot = drift[start:stop, None] + params.sigma_l * wl
        spot += params.sigma_s * ys
        np.exp(spot, out=spot)
        try:
            with np.errstate(over="raise"):
                spot *= level[start:stop, None]
        except FloatingPointError:
            raise ValueError(f"curve level {float(level.max())!r} makes the two-factor spot overflow a float") from None
        yield start, spot.T, None if spike is None else spike.T
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
