"""Forward-price corrections for spikes and Monte Carlo strip-option pricing.

Arithmetic spot model (S = Xc + Z): the forward splits additively,
f(t,T) = fc(t,T) + fb(t,T) with the spike correction

    fb(t,T) = exp(-beta (T - t)) Z_t + (lambda m1 / beta) (1 - exp(-beta (T-t))),

m1 the mean jump size.  Averaging over a delivery period [T, T + theta]
multiplies the decaying part by (1 - exp(-beta theta)) / (beta theta).

Log spot model (log S = Xc + Z): the forward factorizes, f = fc * fb with

    fb(t,T) = exp(e^{-beta(T-t)} Z_t)
              * exp( (lambda / beta) * int_0^1 (phi(u) - phi(u e^{-beta(T-t)})) / u du ),

phi(u) the exponential moment of the jump law.  (Equivalently the exponent is
(lambda/beta) int_eps^1 (phi(v) - 1) / v dv with eps = e^{-beta(T-t)}, the
compound-Poisson exponential functional; both forms are verified against
brute-force Monte Carlo in the test suite.)

Strip options are priced under the Merton measure: the Brownian drift is
re-centred so every forward is a martingale while the jump intensity and law
are untouched.  Since fb(T,T) = Z_T, the spot at an exercise date is just the
martingale two-factor value plus the simulated spike process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .model import GridSpec, JumpLaw, SampledPath, SpikeParams, law_exp_moment
from .simulate import make_rng, simulate_spikes_batch, _two_factor_states

# not called here since spike paths are built in batches; benchmarks/spans.py
# still looks the name up in this module when it wraps the layers
from .simulate import simulate_spikes  # noqa: F401

__all__ = [
    "TwoFactorParams",
    "ForwardCurve",
    "TwoFactorDynamics",
    "StripOptionSpec",
    "PriceWithCI",
    "adaptive_simpson",
    "forward_spike_arith",
    "forward_spike_delivery",
    "forward_spike_log",
    "two_factor_forward",
    "strip_payoffs",
    "price_from_payoffs",
    "price_strip_mc",
]


@dataclass(frozen=True)
class TwoFactorParams:
    """Two-factor forward dynamics df/f = sigma_l dW_l + sigma_s e^{-alpha (T-t)} dW_s."""

    alpha: float
    sigma_s: float
    sigma_l: float
    rho: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.sigma_s > 0 and self.sigma_l > 0):
            raise ValueError("alpha, sigma_s and sigma_l must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.rho}")

    def log_variance(self, t):
        """Variance v(t) of sigma_l W_t + sigma_s Y_t (Y the short OU factor)."""
        t = np.asarray(t, dtype=float)
        a = self.alpha
        return (
            self.sigma_l**2 * t
            + self.sigma_s**2 * -np.expm1(-2.0 * a * t) / (2.0 * a)
            + 2.0 * self.rho * self.sigma_l * self.sigma_s * -np.expm1(-a * t) / a
        )

    def forward_log_variance(self, t, maturity):
        """Variance of log f(t, maturity) around log f(0, maturity)."""
        t = np.asarray(t, dtype=float)
        a = self.alpha
        decay = np.exp(-a * (maturity - t))
        return (
            self.sigma_l**2 * t
            + self.sigma_s**2 * decay**2 * -np.expm1(-2.0 * a * t) / (2.0 * a)
            + 2.0 * self.rho * self.sigma_l * self.sigma_s * decay * -np.expm1(-a * t) / a
        )


@dataclass(frozen=True)
class ForwardCurve:
    """Strictly positive piecewise-constant initial forward curve f(0, T).

    Stored as breakpoints 0 = t_0 < ... < t_k and one level per segment
    [t_{j-1}, t_j); evaluation at t_k returns the last level.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        lv = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)
        if bp.ndim != 1 or bp.size < 2 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing, length >= 2")
        if lv.shape != (bp.size - 1,):
            raise ValueError("need one level per segment")
        if not np.all(lv > 0):
            raise ValueError("forward curve must be strictly positive")

    @classmethod
    def flat(cls, level: float, horizon: float = 1.0) -> "ForwardCurve":
        return cls(np.array([0.0, horizon]), np.array([float(level)]))

    @classmethod
    def from_segments(cls, segments: Sequence[Tuple[float, float, float]]) -> "ForwardCurve":
        """Build from (start, end, price) delivery-period quotes; must tile."""
        segs = sorted(segments)
        bp = [segs[0][0]]
        lv = []
        for start, end, price in segs:
            if start != bp[-1]:
                raise ValueError(f"segments must tile without gaps; break at {start}")
            bp.append(end)
            lv.append(price)
        return cls(np.asarray(bp), np.asarray(lv))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.breakpoints[0]) or np.any(t > self.breakpoints[-1]):
            raise ValueError("maturity outside the curve domain")
        idx = np.clip(np.searchsorted(self.breakpoints, t, side="right") - 1, 0, self.levels.size - 1)
        return self.levels[idx][()]


@dataclass(frozen=True)
class TwoFactorDynamics:
    """Continuous-part spec for spot simulation: two-factor model + initial curve."""

    params: TwoFactorParams
    curve: ForwardCurve

    def simulate_spot_path(self, grid: GridSpec, rng: np.random.Generator) -> SampledPath:
        from .simulate import simulate_two_factor

        path, _ = simulate_two_factor(self.params, self.curve, grid, rng)
        return path


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


def _exp_moment_diff(law: JumpLaw, u: float, eps: float) -> float:
    """phi(u) - phi(u * eps), evaluated without cancellation for small u."""
    from .model import Empirical, PointMass, SignedExponentialMixture

    if isinstance(law, SignedExponentialMixture):
        # per component: b/(b - s u) - b/(b - s u eps) = b s u (1-eps) / prod
        total = 0.0
        for w, b, s in zip(law.weights, law.rates, law.signs):
            if s * u >= b:
                raise ValueError(
                    f"exponential moment diverges at u={u} (sign {s:+d}, rate {b})"
                )
            total += w * b * s * u * (1.0 - eps) / ((b - s * u) * (b - s * u * eps))
        return total
    if isinstance(law, PointMass):
        return math.expm1(u * law.size) - math.expm1(u * eps * law.size)
    if isinstance(law, Empirical):
        return float(np.mean(np.expm1(u * law.samples) - np.expm1(u * eps * law.samples)))
    return law.exp_moment(u) - law.exp_moment(u * eps)


def forward_spike_log(
    z_now: float, params: SpikeParams, t: float, maturity: float, quad_tol: float = 1e-10
) -> float:
    """Multiplicative spike factor fb(t, T) for the log-price model.

    Requires the exponential moment of the jump law to be finite on [0, 1].
    The u-integral is evaluated by adaptive Simpson quadrature; the integrand
    (phi(u) - phi(u eps)) / u extends continuously to u = 0 with value
    (1 - eps) * mean jump size.
    """
    if maturity < t:
        raise ValueError("maturity must not precede the valuation time")
    law = params.law
    law_exp_moment(law, 1.0)  # validate the convergence strip up front
    lam, beta = params.intensity, params.reversion
    if maturity == t:
        return math.exp(z_now)
    eps = math.exp(-beta * (maturity - t))
    limit0 = (1.0 - eps) * law.mean()

    def integrand(u: float) -> float:
        if u == 0.0:
            return limit0
        return _exp_moment_diff(law, u, eps) / u

    integral = adaptive_simpson(integrand, 0.0, 1.0, tol=quad_tol)
    return math.exp(eps * z_now) * math.exp(lam / beta * integral)


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


# Paths per batch.  Each batch draws from its own child stream of the
# master, so this constant fixes how the master stream is partitioned (and
# with it every seeded price) as well as the memory one batch needs.
_BATCH = 512


def strip_payoffs(
    two_factor: TwoFactorParams,
    curve: ForwardCurve,
    spikes: Optional[SpikeParams],
    grid: GridSpec,
    exercise_times,
    strikes: Sequence[float],
    num_sims: int,
    rng: np.random.Generator,
    antithetic: bool = False,
) -> np.ndarray:
    """Strip payoffs of every strike on one simulated ensemble, shape (units, strikes).

    Spot at an exercise date: S_t = f(0,t) exp(-v(t)/2 + sigma_l W_t +
    sigma_s Y_t) + Z_t, the spike process simulated with unchanged intensity
    and law (the Merton change of measure only re-centres the Brownian
    drivers).  Units are i.i.d.: single paths, or with ``antithetic`` the
    averages of path pairs whose Gaussian factors are mirrored (spikes are
    left alone).  Paths are simulated in batches of 512, each from its own
    child stream of ``rng``; column k equals what strike k alone gives on the
    same stream.
    """
    cols = _exercise_columns(grid, _check_strip(exercise_times, num_sims))
    if antithetic and num_sims % 2:
        raise ValueError("antithetic pricing needs an even number of simulations")
    units = []
    remaining = num_sims
    while remaining > 0:
        batch = min(_BATCH, remaining)
        if antithetic:
            batch -= batch % 2
        spot = _batch_spot(two_factor, curve, spikes, grid, rng.spawn(1)[0], batch, antithetic)
        pay = _strike_payoffs(spot[:, cols], strikes)
        del spot  # free this batch before the next one is simulated
        if antithetic:
            pay = 0.5 * (pay[: batch // 2] + pay[batch // 2 :])
        units.append(pay)
        remaining -= batch
    return np.concatenate(units)


def _batch_spot(two_factor, curve, spikes, grid, rng, paths, antithetic) -> np.ndarray:
    """Spot on the grid for one batch of paths, shape (paths, n + 1)."""
    t = grid.times()
    if antithetic:
        wl, ys = _two_factor_states(two_factor, grid, rng, paths // 2)
        wl = np.concatenate([wl, -wl], axis=0)
        ys = np.concatenate([ys, -ys], axis=0)
    else:
        wl, ys = _two_factor_states(two_factor, grid, rng, paths)
    spot = curve(t) * np.exp(
        -0.5 * two_factor.log_variance(t) + two_factor.sigma_l * wl + two_factor.sigma_s * ys
    )
    del wl, ys  # free the factors before the spike paths are built
    if spikes is not None:
        spot += simulate_spikes_batch(spikes, grid, rng, paths)
    return spot


def _strike_payoffs(at_exercise: np.ndarray, strikes: Sequence[float]) -> np.ndarray:
    """Strip payoffs sum_t (S_t - K)^+ per path and strike, shape (paths, strikes)."""
    pay = np.empty((at_exercise.shape[0], len(strikes)))
    for k, strike in enumerate(strikes):
        excess = at_exercise - strike
        pay[:, k] = np.maximum(excess, 0.0, out=excess).sum(axis=1)
    return pay


def price_from_payoffs(units: np.ndarray, num_sims: int) -> PriceWithCI:
    """Monte Carlo estimate and 95% CI from one strike's i.i.d. payoff units."""
    estimate = float(units.mean())
    stderr = float(units.std(ddof=1) / math.sqrt(units.size))
    ci_half = 1.96 * stderr
    return PriceWithCI(
        estimate=estimate,
        ci95=(estimate - ci_half, estimate + ci_half),
        num_sims=num_sims,
        stderr=stderr,
    )


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
    units = strip_payoffs(
        two_factor,
        curve,
        spikes,
        grid,
        spec.exercise_times,
        (spec.strike,),
        spec.num_sims,
        master,
        antithetic,
    )
    return price_from_payoffs(units[:, 0], spec.num_sims)
