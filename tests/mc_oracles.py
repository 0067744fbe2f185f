"""Brute-force oracles used by the tests.

The Monte Carlo oracles sample the spike process terminal value directly from
its definition (Poisson number of jumps, uniform arrival times, decayed sizes)
without going through the closed-form pricing code they are used to check;
adaptive Simpson quadrature checks the closed-form integrals.  The strip
payoff and multipower variation references are the plain forms the package's
faster ones must match bit for bit, and the per-step loop is the oracle for
the batched spike filter, whose whole-grid rows ``spike_values_batch`` gives.
``factor_states`` gives the whole-grid Gaussian factors that the statistical
tests of the two-factor model check, and ``two_factor_forward`` the pathwise
forward they must keep a martingale.
``lfilter_recursion`` is the scipy form of the package's first-order
recursion, which must match it bit for bit.  ``oracle_slope_terms`` is the
per-jump loop the reversion oracle's array code must agree with.
"""

import math
from typing import Callable, Tuple

import numpy as np
from scipy.signal import lfilter

from spikelab.detect import DegeneratePathError, gaussian_abs_moment
from spikelab.model import ForwardCurve, GridSpec, JumpLaw, SignedExponentialMixture, SpikeParams, TwoFactorParams, sign
from spikelab.simulate import _chunk_columns, _factor_chunks, _spike_chunks


def spike_terminal_samples(
    params: SpikeParams, horizon: float, n_paths: int, seed: int
) -> np.ndarray:
    """Samples of Z_horizon started from Z_0 = 0, one per path."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(params.intensity * horizon, n_paths)
    total = int(counts.sum())
    path_idx = np.repeat(np.arange(n_paths), counts)
    times = rng.uniform(0.0, horizon, total)
    sizes = params.law.sample(rng, total) if total else np.empty(0)
    contrib = sizes * np.exp(-params.reversion * (horizon - times))
    return np.bincount(path_idx, weights=contrib, minlength=n_paths)


def spike_values_from_jumps(truth: np.ndarray, grid: GridSpec, reversion: float) -> np.ndarray:
    """Spike-process values Z_{t_i} = sum_{T_q <= t_i} J_q exp(-beta (t_i - T_q)), from (time, size) rows.

    Evaluated by the exact per-step recursion Z_{t_i} = Z_{t_{i-1}} * d + (new
    jumps decayed to t_i) with d = exp(-beta * mesh); on jumpless steps the
    decay identity holds bit-exactly.
    """
    n, mesh = grid.n, grid.mesh
    decay = np.exp(-reversion * mesh)
    z = np.zeros(n + 1)
    if len(truth) == 0:
        return z
    times, sizes = truth.T
    if np.any(np.diff(times) < 0):
        raise ValueError("jump records must be sorted by time")
    idx = grid.interval_index(times)

    cur = 0.0
    pos = 0
    i = 1
    while i <= n:
        if pos < len(idx) and idx[pos] == i:
            cur *= decay
            while pos < len(idx) and idx[pos] == i:
                cur += sizes[pos] * np.exp(-reversion * (i * mesh - times[pos]))
                pos += 1
            z[i] = cur
            i += 1
        else:
            # jumpless run up to the next jump interval: sequential cumprod
            # keeps the per-step decay identity exact in floating point
            stop = idx[pos] if pos < len(idx) else n + 1
            run = stop - i
            seg = np.full(run, decay)
            seg[0] = cur * decay
            seg = np.cumprod(seg)
            z[i : i + run] = seg
            cur = seg[-1]
            i = stop
    return z


def spike_values_batch(jumps, grid: GridSpec, reversion: float) -> np.ndarray:
    """Spike-process values of several paths at once, shape (len(jumps), n + 1): the package's spike leg.

    Row p is built from jumps[p], a (k, 2) array of (arrival time, size) rows
    in time order, by the blocks of ``simulate._spike_chunks`` concatenated:
    every jump placed in its interval at once, then the per-step decay run as
    one first-order recursion down the grid.  On a jumpless step the
    recursion adds an exact 0.0, so Z_{t_i} == d * Z_{t_{i-1}} bit for bit.
    Rows equal ``spike_values_from_jumps`` bit for bit except where two jumps
    share an interval, where the order of the sums moves them a few ulps.
    """
    blocks = _spike_chunks(jumps, grid, reversion, _chunk_columns(len(jumps)))
    return np.concatenate(list(blocks)).T


def spike_values_direct_sum(times, sizes, grid: GridSpec, reversion: float) -> np.ndarray:
    """The paper's Z_{t_i} = sum_{T_q <= t_i} J_q exp(-beta (t_i - T_q)), every term from its own exp.

    Jump times must lie in (0, t_n]; t_i = i * mesh as on the grid.
    """
    lag = grid.times()[:, None] - np.asarray(times, dtype=float)[None, :]
    terms = np.asarray(sizes, dtype=float) * np.exp(-reversion * np.maximum(lag, 0.0))
    return np.where(lag >= 0.0, terms, 0.0).sum(axis=1)


def factor_states(params: TwoFactorParams, grid: GridSpec, rng: np.random.Generator, paths: int):
    """(W_long, Y_short) on the whole grid, shape (paths, n + 1) each: the factor walk in one chunk."""
    ((wl, ys),) = _factor_chunks(params, grid, rng, paths, grid.n + 1)
    return wl.T, ys.T


def two_factor_forward(params: TwoFactorParams, curve: ForwardCurve, t, maturity: float, w_long, y_short):
    """Pathwise forward value f(t, T) of the continuous part, from the factor values at t.

    f(t,T) = f(0,T) exp(-v_f(t,T)/2 + sigma_l W_t + sigma_s e^{-alpha (T-t)} Y_t),
    with v_f the forward log-variance; a martingale in t for each fixed T.
    """
    t = np.asarray(t, dtype=float)
    a, sl, ss = params.alpha, params.sigma_l, params.sigma_s
    decay = np.exp(-a * (maturity - t))
    var = (
        sl**2 * t
        + ss**2 * decay**2 * -np.expm1(-2.0 * a * t) / (2.0 * a)
        + 2.0 * params.rho * sl * ss * decay * -np.expm1(-a * t) / a
    )
    return curve(maturity) * np.exp(
        -0.5 * var + params.sigma_l * np.asarray(w_long) + params.sigma_s * decay * np.asarray(y_short)
    )


def lfilter_recursion(block: np.ndarray, state: np.ndarray, coef: np.ndarray):
    """y_t = x_t + coef * y_{t-1} down axis 0 of a (steps, lanes) block by ``scipy.signal.lfilter``.

    Lane j runs lfilter([1], [1, -coef[j]]) from the initial state state[j];
    returns the filtered block and the final state of every lane.
    """
    values = np.empty_like(block)
    final = np.empty(block.shape[1])
    for j in range(block.shape[1]):
        values[:, j], zf = lfilter([1.0], [1.0, -coef[j]], block[:, j], zi=[state[j]])
        final[j] = zf[0]
    return values, final


def mc_mean_with_se(samples: np.ndarray):
    return samples.mean(), samples.std(ddof=1) / np.sqrt(samples.size)


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_intervals: int = 10_000,
) -> float:
    """Adaptive Simpson quadrature with absolute tolerance and interval cap."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    intervals = 0

    def recurse(x0, x2, f0, f1, f2, whole, tol):
        nonlocal intervals
        intervals += 1
        if intervals > max_intervals:
            raise RuntimeError("adaptive Simpson exceeded the interval cap")
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, xm, f0, fl, f1, left, tol / 2.0) + recurse(
            xm, x2, f1, fr, f2, right, tol / 2.0
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol)


def exp_moment_integral_quadrature(law: JumpLaw, eps: float) -> Tuple[float, float]:
    """int_eps^1 (phi(v) - 1) / v dv by adaptive Simpson, phi the exponential moment.

    The integrand splits into one part per mixture component, s / (b - s v),
    or per sample x, expm1(v x) / v: each keeps one sign and has no
    cancellation, so each is integrated to ~1e-13 relative on its own.
    Returns the integral and the sum of the parts' magnitudes, the scale
    against which the rounding of the summed parts is measured.
    """
    if isinstance(law, SignedExponentialMixture):
        parts = [
            (w, lambda v, b=b, s=s: s / (b - s * v))
            for w, b, s in zip(law.weights, law.rates, law.signs)
        ]
    else:
        parts = [(1.0 / law.samples.size, lambda v, x=x: math.expm1(v * x) / v) for x in law.samples]
    values = []
    for weight, f in parts:
        # (1 - eps) * max|f| bounds the part and is within a factor ~|x| of it
        scale = (1.0 - eps) * max(abs(f(eps)), abs(f(1.0)))
        values.append(weight * adaptive_simpson(f, eps, 1.0, tol=1e-13 * scale, max_intervals=100_000))
    return math.fsum(values), math.fsum(abs(v) for v in values)


def multipower_variation_windows(path, order: int) -> float:
    """``detect.multipower_variation`` computed from an (n, order) window view.

    The straightforward form: each window's product is reduced left to right,
    the order the package's running products use, so the two agree bit for bit.
    """
    incr = np.abs(path.increments())
    if not incr.any():
        raise DegeneratePathError("constant path: all increments are zero")
    r = 2.0 / order
    windows = np.lib.stride_tricks.sliding_window_view(incr**r, order)
    mpv = windows.prod(axis=1).sum() / gaussian_abs_moment(r) ** order
    if not mpv > 0:
        raise DegeneratePathError("multipower variation vanished (too many zero increments)")
    return float(np.sqrt(mpv))


def strip_payoffs_time_ordered(spot: np.ndarray, cols, strikes) -> np.ndarray:
    """sum_t (S_t - K)^+ per path and strike, accumulated one exercise date at a time."""
    pay = np.empty((spot.shape[0], len(strikes)))
    for k, strike in enumerate(strikes):
        acc = np.zeros(spot.shape[0])
        for t in cols:
            acc += np.maximum(spot[:, t] - strike, 0.0)
        pay[:, k] = acc
    return pay


def oracle_slope_terms(path, truth: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The oracle slope ratio's numerator and denominator terms, one per eligible true jump, by a per-jump loop.

    Jump q of the time-sorted (time, size) rows is eligible when its interval
    I(q) is before n, it is the last jump in I(q) and no jump lies in I(q) + 1.
    Its terms are sgn(J_q) (D_{I(q)+1} X + 2 D sum_{j<q} J_j) and sgn(J_q)
    D_{I(q)} X, the prior sum running over every earlier jump, eligible or not.
    """
    n, mesh = path.grid.n, path.grid.mesh
    incr = path.increments()
    times, sizes = truth.T
    order = np.argsort(times, kind="stable")
    times, sizes = times[order], sizes[order]
    idx = path.grid.interval_index(times)
    occupied = set(idx.tolist())
    num, den = [], []
    prev_sizes = 0.0
    for q in range(len(times)):
        if idx[q] < n and (idx[q] + 1) not in occupied and (q == len(times) - 1 or idx[q] < idx[q + 1]):
            s = sign(sizes[q])
            num.append(s * (incr[idx[q]] + 2.0 * mesh * prev_sizes))
            den.append(s * incr[idx[q] - 1])
        prev_sizes += sizes[q]
    return np.array(num), np.array(den)
