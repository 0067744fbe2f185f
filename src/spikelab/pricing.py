"""Forward-price corrections for spikes and Monte Carlo strip-option pricing.

Arithmetic spot model (S = Xc + Z): the forward splits additively,
f(t,T) = fc(t,T) + fb(t,T) with the spike correction

    fb(t,T) = exp(-beta (T - t)) Z_t + (lambda m1 / beta) (1 - exp(-beta (T-t))),

m1 the mean jump size.  Averaging over a delivery period [T, T + theta]
multiplies the decaying part by (1 - exp(-beta theta)) / (beta theta).

Log spot model (log S = Xc + Z): the forward factorizes, f = fc * fb with
the compound-Poisson exponential functional

    fb(t,T) = exp(eps Z_t) * exp((lambda / beta) int_eps^1 (phi(v) - 1) / v dv),
    eps = exp(-beta (T - t)),

phi the exponential moment of the jump law.  The integral is exact for every
law (``JumpLaw.exp_moment_integral``): sum_i w_i ln((b_i - s_i eps) / (b_i -
s_i)) for a mixture of signed exponentials s_i Exp(b_i), which needs s_i < b_i,
and Ein(x) - Ein(eps x) for a point mass at x (averaged over the sample for an
empirical law), with Ein(z) = int_0^z (e^t - 1) / t dt.  Both models are
checked against brute-force Monte Carlo in the test suite.

Strip options are priced under the Merton measure: the Brownian drift is
re-centred so every forward is a martingale while the jump intensity and law
are untouched.  Since fb(T,T) = Z_T, the spot at an exercise date is just the
martingale two-factor value plus the simulated spike process.  The settings
with and without spikes are priced from one ensemble: each batch of paths
has one child stream for its Gaussian factors and one for its jumps, and is
walked along the grid in chunks of columns, every strike's payoffs of both
settings accumulated chunk by chunk, so memory is O(batch x chunk) at any
grid length.  Each path's payoff is summed in exercise-time order, the
running sum carried into each chunk, so no price depends on the chunk length.
While a chunk's payoffs are summed, a helper thread that lives for one walk
draws the next chunk's factor normals (chunk 0 is drawn inline).  The factor
stream is never used by two threads at once, so every seeded price is
unchanged, and memory stays O(batch x chunk) plus one chunk of normals in
flight (512 kB at 512 paths).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import ForwardCurve, GridSpec, SpikeParams, TwoFactorParams
from .simulate import make_rng, spot_chunks

# defined in model; benchmarks/workloads.py still imports it from here
from .model import TwoFactorDynamics  # noqa: F401

# not called here since spike paths are built by the chunk walk;
# benchmarks/spans.py still looks the name up in this module when it wraps the layers
from .simulate import simulate_spikes  # noqa: F401

__all__ = [
    "StripOptionSpec",
    "PriceWithCI",
    "forward_spike_arith",
    "forward_spike_delivery",
    "forward_spike_log",
    "two_factor_forward",
    "strip_payoffs",
    "price_from_payoffs",
    "ci95",
    "price_strip_mc",
]

# largest exponent whose exp is a finite float
_LOG_MAX = math.log(sys.float_info.max)


def _check_strip(exercise_times, num_sims: int) -> np.ndarray:
    times = np.asarray(exercise_times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("exercise times must be a nonempty increasing sequence")
    if times[0] <= 0:
        raise ValueError("exercise times must be positive")
    if num_sims < 2:
        raise ValueError("need at least 2 simulations")
    return times


@dataclass(frozen=True)
class StripOptionSpec:
    """Strip of calls: payoff sum over exercise times of (S_t - K)^+."""

    exercise_times: np.ndarray
    strike: float
    num_sims: int
    seed: int = 0

    def __post_init__(self):
        times = _check_strip(self.exercise_times, self.num_sims)
        object.__setattr__(self, "exercise_times", times)


@dataclass(frozen=True)
class PriceWithCI:
    estimate: float
    ci95: Tuple[float, float]
    num_sims: int
    stderr: float


def forward_spike_arith(z_now: float, params: SpikeParams, t: float, maturity: float) -> float:
    """Spike correction fb(t, T) to the forward price in the arithmetic model."""
    if maturity < t:
        raise ValueError("maturity must not precede the valuation time")
    lam, beta = params.intensity, params.reversion
    mean_jump = params.law.mean()
    decay = math.exp(-beta * (maturity - t))
    return decay * z_now + lam * mean_jump / beta * (1.0 - decay)


def forward_spike_delivery(
    z_now: float, params: SpikeParams, t: float, maturity: float, theta: float
) -> float:
    """Spike correction for a contract delivering continuously on [T, T + theta].

    Equals the average (1/theta) int_T^{T+theta} fb(t, u) du; the decaying
    part picks up the factor (1 - exp(-beta theta)) / (beta theta).
    """
    if maturity < t:
        raise ValueError("maturity must not precede the valuation time")
    if not theta > 0:
        raise ValueError(f"delivery period must be positive, got {theta}")
    lam, beta = params.intensity, params.reversion
    mean_jump = params.law.mean()
    decay = math.exp(-beta * (maturity - t))
    smear = -math.expm1(-beta * theta) / (beta * theta)
    return decay * smear * z_now + lam * mean_jump / beta * (1.0 - decay * smear)


def forward_spike_log(z_now: float, params: SpikeParams, t: float, maturity: float) -> float:
    """Multiplicative spike factor fb(t, T) for the log-price model, in closed form.

    fb = exp(eps z_now + (lambda / beta) law.exp_moment_integral(eps)) with
    eps = exp(-beta (T - t)); see the module docstring for the integral.
    Requires the exponential moment of the jump law to be finite on [eps, 1];
    raises ValueError naming the law when it is not, or when the factor
    overflows a float.
    """
    if maturity < t:
        raise ValueError("maturity must not precede the valuation time")
    law = params.law
    eps = math.exp(-params.reversion * (maturity - t))
    exponent = eps * z_now + params.intensity / params.reversion * law.exp_moment_integral(eps)
    if not exponent <= _LOG_MAX:
        raise ValueError(
            f"log-model spike factor exp({exponent:.6g}) is not representable "
            f"(jump law {type(law).__name__})"
        )
    return math.exp(exponent)


def two_factor_forward(
    params: TwoFactorParams,
    curve: ForwardCurve,
    t,
    maturity: float,
    w_long,
    y_short,
):
    """Pathwise forward value f(t, T) of the continuous part.

    f(t,T) = f(0,T) exp(-v_f(t,T)/2 + sigma_l W_t + sigma_s e^{-alpha (T-t)} Y_t),
    with v_f the forward log-variance; a martingale in t for each fixed T.
    """
    t = np.asarray(t, dtype=float)
    decay = np.exp(-params.alpha * (maturity - t))
    var = params.forward_log_variance(t, maturity)
    return curve(maturity) * np.exp(
        -0.5 * var + params.sigma_l * np.asarray(w_long) + params.sigma_s * decay * np.asarray(y_short)
    )


def _exercise_columns(grid: GridSpec, times: np.ndarray) -> np.ndarray:
    cols = times / grid.mesh
    rounded = np.rint(cols)
    if np.any(np.abs(cols - rounded) > 1e-9 * np.maximum(rounded, 1.0)):
        off = times[np.abs(cols - rounded).argmax()]
        raise ValueError(f"exercise time {off} is not on the simulation grid")
    rounded = rounded.astype(int)
    if np.any(rounded < 1) or np.any(rounded > grid.n):
        raise ValueError("exercise times must lie inside the simulation horizon")
    return rounded


# Paths per batch.  Each batch draws from its own child streams of the
# master, so this constant fixes how the master stream is partitioned (and
# with it every seeded price) as well as the columns one chunk of a walk spans.
_BATCH = 512


def strip_payoffs(
    two_factor: TwoFactorParams,
    curve: ForwardCurve,
    settings: Sequence[Optional[SpikeParams]],
    grid: GridSpec,
    exercise_times,
    strikes: Sequence[float],
    num_sims: int,
    rng: np.random.Generator,
    antithetic: bool = False,
) -> List[np.ndarray]:
    """Strip payoffs of every strike in every spike setting on one ensemble.

    Returns one (units, strikes) matrix per entry of ``settings``, where
    ``None`` means no spikes.  Spot at an exercise date: S_t = f(0,t)
    exp(-v(t)/2 + sigma_l W_t + sigma_s Y_t) + Z_t, the spike process
    simulated with unchanged intensity and law (the Merton change of measure
    only re-centres the Brownian drivers).  Units are i.i.d.: single paths,
    or with ``antithetic`` the averages of path pairs whose Gaussian factors
    are mirrored (spikes are left alone).

    Paths are simulated in batches of 512, each with one child stream of
    ``rng`` for its Gaussian factors and one for its jumps.  Every setting
    shares the batch's factors and only the last may have spikes, so each
    matrix equals what its setting gives alone on the same stream.  A batch
    is walked along the grid in chunks of columns (``spot_chunks``) and the
    payoffs accumulate chunk by chunk, so memory is O(batch x chunk).  Column
    k equals what strike k gives alone; each payoff is summed in
    exercise-time order, whatever the chunk length.
    """
    cols = _exercise_columns(grid, _check_strip(exercise_times, num_sims))
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or strikes.size == 0 or not np.all(np.isfinite(strikes)):
        raise ValueError("strikes must be a nonempty sequence of finite numbers")
    if not settings or any(spikes is not None for spikes in settings[:-1]):
        raise ValueError("only the last of the spike settings may have spikes")
    if antithetic and num_sims % 2:
        raise ValueError("antithetic pricing needs an even number of simulations")
    if antithetic and num_sims < 4:  # one pair is one unit, which has no spread
        raise ValueError(f"antithetic pricing needs at least 4 simulations (2 pairs), got {num_sims}")
    units = [[] for _ in settings]
    remaining = num_sims
    while remaining > 0:
        batch = min(_BATCH, remaining)  # even under antithetic, as _BATCH and num_sims are
        factor_rng, jump_rng = rng.spawn(2)
        pays = [np.zeros((strikes.size, batch)) for _ in settings]
        walk = spot_chunks(two_factor, curve, grid, factor_rng, batch, antithetic, settings[-1], jump_rng)
        for start, spot, spike in walk:
            for pay, spikes in zip(pays, settings):
                _add_payoffs(pay, spot if spikes is None else spot + spike, start, cols, strikes)
        for out, pay in zip(units, pays):
            if antithetic:
                pay = 0.5 * (pay[:, : batch // 2] + pay[:, batch // 2 :])
            out.append(pay.T)
        remaining -= batch
    return [np.concatenate(out) for out in units]


def _add_payoffs(pay: np.ndarray, block: np.ndarray, start: int, cols: np.ndarray, strikes: np.ndarray):
    """Add one chunk's payoffs (S_t - K)^+ to the running sums ``pay``, shape (strikes, paths).

    ``block`` holds the (paths, columns) spots of grid columns start, start +
    1, ...; the exercise dates ``cols`` inside it are added one date at a
    time after the running sum, so that chunk after chunk ``pay`` is bit for
    bit the time-ordered sum over every exercise date.  A date on which no
    spot exceeds a strike only adds zeros, which leave the sums exact, and is
    skipped for that strike.
    """
    lo, hi = np.searchsorted(cols, (start, start + block.shape[1]))
    spot = block.T[cols[lo:hi] - start]  # one row per exercise date
    top = spot.max(axis=1)
    for acc, strike in zip(pay, strikes):
        excess = spot[top > strike] - strike
        np.maximum(excess, 0.0, out=excess)
        for terms in excess:
            acc += terms


def price_from_payoffs(units: np.ndarray, num_sims: int) -> PriceWithCI:
    """Monte Carlo estimate and 95% CI from one strike's i.i.d. payoff units."""
    estimate = float(units.mean())
    stderr = float(units.std(ddof=1) / math.sqrt(units.size))
    return PriceWithCI(estimate=estimate, ci95=ci95(estimate, stderr), num_sims=num_sims, stderr=stderr)


def ci95(centre: float, stderr: float) -> Tuple[float, float]:
    """Normal 95% confidence interval centre -/+ 1.96 stderr."""
    half = 1.96 * stderr
    return (centre - half, centre + half)


def price_strip_mc(
    two_factor: TwoFactorParams,
    curve: ForwardCurve,
    spikes: Optional[SpikeParams],
    grid: GridSpec,
    spec: StripOptionSpec,
    rng: Optional[np.random.Generator] = None,
    antithetic: bool = False,
) -> PriceWithCI:
    """Monte Carlo price of the strip of calls under the Merton measure.

    The risk-free rate is zero; see ``strip_payoffs`` for the simulated spot
    and the antithetic pairing (with ``antithetic`` the CI is computed over
    pair averages).  Without ``rng`` the paths come from ``spec.seed``.
    """
    master = make_rng(spec.seed) if rng is None else rng
    (units,) = strip_payoffs(
        two_factor,
        curve,
        (spikes,),
        grid,
        spec.exercise_times,
        (spec.strike,),
        spec.num_sims,
        master,
        antithetic,
    )
    return price_from_payoffs(units[:, 0], spec.num_sims)
