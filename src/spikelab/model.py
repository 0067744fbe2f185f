"""Domain types for the spiky spot-price model.

The observed price (or log-price) is X_t = Xc_t + Z_t, where Xc is a
continuous Ito semimartingale and Z is a shot-noise spike process

    Z_t = sum_{T_q <= t} J_q * exp(-beta * (t - T_q)),

with jump times T_q arriving at Poisson intensity ``lambda`` and jump sizes
J_q drawn i.i.d. from a law ``nu`` with no atom at zero and finite second
moment.  All rates are per unit of normalized time (the horizon maps to 1).

This module holds the jump-size laws (sampling, polynomial moments, the
exponential-moment integral of the log-model forward), the observation grid,
the spike parameters and the three continuous legs (exp-OU, flat, two-factor
forward dynamics with their initial curve), and ``ci95``, the normal 95%
interval rule of every estimate and price.  It imports no other module of the
package.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from scipy.special import exp1

__all__ = [
    "GridSpec",
    "SampledPath",
    "JumpLaw",
    "SignedExponentialMixture",
    "Empirical",
    "SpikeParams",
    "ExpOU",
    "Flat",
    "TwoFactorParams",
    "ForwardCurve",
    "TwoFactorDynamics",
    "ContinuousSpec",
    "ModelSpec",
    "ci95",
    "finite",
    "positive",
    "integer",
    "sign",
    "LOG_MAX",
]

# largest exponent whose exp is a finite float
LOG_MAX = float(np.log(np.finfo(float).max))


def ci95(centre: float, stderr: float) -> Tuple[float, float]:
    """Normal 95% confidence interval centre -/+ 1.96 stderr."""
    half = 1.96 * stderr
    return (centre - half, centre + half)


def finite(name: str, value: float) -> float:
    """``value`` when it is a finite number; otherwise a ValueError naming it."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def positive(name: str, value: float) -> float:
    """``value`` when it is positive and finite; otherwise a ValueError naming it."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def integer(name: str, value) -> int:
    """``value`` as an int when it is a Python or numpy integer; otherwise a ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def sign(x):
    """Sign convention used by the slope estimator: sign(x) = 1 if x >= 0 else -1."""
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)[()]


@dataclass(frozen=True)
class GridSpec:
    """Regular observation grid: n increments of width mesh = horizon / n."""

    n: int
    horizon: float = 1.0

    def __post_init__(self):
        if integer("grid n", self.n) < 2:
            raise ValueError(f"grid needs n >= 2 increments, got n={self.n}")
        positive("horizon", self.horizon)

    @property
    def mesh(self) -> float:
        return self.horizon / self.n

    def times(self) -> np.ndarray:
        """Observation times t_i = i * mesh, i = 0..n."""
        return np.arange(self.n + 1) * self.mesh

    def interval_index(self, time):
        """Index i in 1..n with t_{i-1} < time <= t_i on the grid.

        Elementwise for an array of times (returns an integer array); a scalar
        time gives an int.  The search compares with the grid times themselves,
        so no roundoff in time / mesh moves a time near a grid point; times at
        or below 0 give 1 and times past the horizon give n.
        """
        time = np.asarray(time, dtype=float)
        if not np.isfinite(time).all():
            raise ValueError("jump times must be finite")
        i = np.clip(np.searchsorted(self.times(), time), 1, self.n)
        return int(i) if i.ndim == 0 else i


@dataclass(frozen=True, eq=False)
class SampledPath:
    """Values of a process on a GridSpec: (n + 1) observations X_0 .. X_T, held read-only.

    An array that owns its data is handed over and made read-only in place;
    a view is copied first, since its base could still be written.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not values.flags.owndata:
            values = values.copy()
        if values.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} observations, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("path contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def increments(self) -> np.ndarray:
        """Increments D_i X = X_{t_i} - X_{t_{i-1}}, i = 1..n (0-based array): read-only, computed once."""
        return self._increments

    @functools.cached_property
    def _increments(self) -> np.ndarray:
        try:
            with np.errstate(over="raise"):
                incr = np.diff(self.values)
        except FloatingPointError:
            low, high = self.values.min(), self.values.max()
            raise ValueError(f"values from {low:.6g} to {high:.6g} make the increments overflow a float") from None
        incr.flags.writeable = False
        return incr


# ---------------------------------------------------------------------------
# Jump-size laws
# ---------------------------------------------------------------------------


class JumpLaw:
    """Base class for jump-size distributions (no atom at zero)."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. jump sizes drawn from ``rng``."""
        raise NotImplementedError

    def moment(self, m: int = 1, kind: str = "signed") -> float:
        raise NotImplementedError

    def exp_moment_integral(self, eps: float) -> float:
        """int_eps^1 (phi(v) - 1) / v dv for 0 <= eps <= 1, phi the exponential moment.

        The exponent of the log-model forward spike factor, in closed form.
        Raises ValueError, naming the law, when phi is not finite (or not
        representable) on [eps, 1].
        """
        raise NotImplementedError

    def mean(self) -> float:
        return self.moment(1, "signed")


# Ein(z) = int_0^z (e^t - 1) / t dt = sum_{k>=1} z^k / (k k!), an entire
# function.  For |z| <= 5, 40 terms reach rounding level (5^40 / (40 * 40!) <
# 1e-21).  For z > 5 the terms z^k / k! are a Poisson weight times e^z, so
# those beyond k = z + 10 sqrt(z) + 30 add less than 1e-20 of the sum.
_EIN_K = np.arange(1, 41)
_EIN_COEF = 1.0 / (_EIN_K * np.cumprod(_EIN_K.astype(float)))
_EIN_SERIES_MAX = 5.0


def _ein(x: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Ein(x) - Ein(eps x) = int_eps^1 (exp(v x) - 1) / v dv, elementwise in x.

    For x >= -5 the series is summed as sum_k x^k (1 - eps^k) / (k k!), which
    keeps full relative accuracy as eps -> 1 (for x > 0 every term is
    positive).  For x = -y < -5 the terms alternate and cancel, and
    E1(eps y) - E1(y) + log(eps) is used instead; the E1 difference is at
    most e^-5 of the log, so its rounding stays below the result's.
    """
    out = np.empty_like(x)
    small, large, negative = np.abs(x) <= _EIN_SERIES_MAX, x > _EIN_SERIES_MAX, x < -_EIN_SERIES_MAX
    log_eps = math.log(eps) if eps > 0.0 else -math.inf
    out[small] = np.power.outer(x[small], _EIN_K) @ (_EIN_COEF * -np.expm1(_EIN_K * log_eps))
    if large.any():
        k = np.arange(1, int(x[large].max() + 10 * math.sqrt(x[large].max())) + 31)
        powers = np.cumprod(x[large, None] / k, axis=1)  # x^k / k!, at most e^x
        out[large] = (powers / k) @ -np.expm1(k * log_eps)
    y = -x[negative]
    if eps > 0.0:
        out[negative] = exp1(eps * y) - exp1(y) + log_eps
    else:
        out[negative] = -(exp1(y) + np.log(y) + np.euler_gamma)
    return out


def _never_zero(draws: np.ndarray, redraw) -> np.ndarray:
    # nu({0}) = 0: a zero draw is an RNG boundary artifact, redraw it.
    bad = draws == 0.0
    while bad.any():
        draws[bad] = redraw(int(bad.sum()))
        bad = draws == 0.0
    return draws


@dataclass(frozen=True)
class SignedExponentialMixture(JumpLaw):
    """Mixture of signed exponential components.

    Component i draws sign_i * E where E ~ Exponential(rate_i) (mean
    1 / rate_i); sign -1 means the law of the negated exponential.  For
    example weights (0.4, 0.6), rates (15, 10), signs (-1, +1) is the
    mixture 0.4 * (-Exp(15)) + 0.6 * Exp(10).
    """

    weights: tuple
    rates: tuple
    signs: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        b = tuple(float(x) for x in self.rates)
        s = tuple(self.signs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", b)
        if not (len(w) == len(b) == len(s)) or len(w) == 0:
            raise ValueError("weights, rates and signs must have equal nonzero length")
        if not (all(x >= 0 for x in w) and abs(sum(w) - 1.0) <= 1e-12):
            raise ValueError(f"weights must be a probability vector, got {w}")
        if not all(0 < x < math.inf for x in b):
            raise ValueError(f"rates must be positive and finite, got {b}")
        # checked before the int conversion, which would truncate -1.7 to -1 and fail on NaN
        if any(x not in (-1, 1) for x in s):
            raise ValueError(f"signs must be +-1, got {s}")
        object.__setattr__(self, "signs", tuple(int(x) for x in s))

    def sample(self, rng, size):
        # the component is drawn as Generator.choice(p=weights) draws it, from
        # the same uniforms, on a CDF computed once per law
        cdf, rates, signs = self._components

        def draw(m):
            comp = cdf.searchsorted(rng.random(m), side="right")
            return signs[comp] * rng.exponential(1.0, m) / rates[comp]

        return _never_zero(draw(size), draw)

    @functools.cached_property
    def _components(self):
        cdf = np.cumsum(self.weights)
        return cdf / cdf[-1], np.asarray(self.rates), np.asarray(self.signs, dtype=float)

    def moment(self, m=1, kind="signed"):
        if m < 0:
            raise ValueError("moment order must be nonnegative")
        # E[(sE)^m] = s^m * m! / rate^m for an Exponential(rate) component.
        total = 0.0
        for w, b, s in zip(self.weights, self.rates, self.signs):
            absolute = math.factorial(m) / b**m
            total += w * (absolute if kind == "absolute" else s**m * absolute)
        if kind not in ("signed", "absolute"):
            raise ValueError(f"unknown moment kind {kind!r}")
        return total

    def exp_moment_integral(self, eps):
        # (phi(v) - 1) / v = sum_i w_i s_i / (b_i - s_i v), so the integral is
        # sum_i w_i ln((b_i - s_i eps) / (b_i - s_i))
        total = 0.0
        for i, (w, b, s) in enumerate(zip(self.weights, self.rates, self.signs)):
            if s >= b:
                raise ValueError(
                    f"exponential moment diverges on [{eps}, 1]: component {i} "
                    f"(sign {s:+d}, rate {b}) requires sign < rate"
                )
            total += w * math.log1p(s * (1.0 - eps) / (b - s))
        return total


@dataclass(frozen=True)
class Empirical(JumpLaw):
    """Resampling law: each stored jump size with equal probability."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("need a nonempty 1-d sample of jump sizes")
        if not np.all(np.isfinite(samples)) or np.any(samples == 0.0):
            raise ValueError("samples must be finite and nonzero")

    def sample(self, rng, size):
        return rng.choice(self.samples, size)

    def moment(self, m=1, kind="signed"):
        if kind == "signed":
            return float(np.mean(self.samples**m))
        if kind == "absolute":
            return float(np.mean(np.abs(self.samples) ** m))
        raise ValueError(f"unknown moment kind {kind!r}")

    def exp_moment_integral(self, eps):
        # phi(1) = mean(exp(x)) needs each exp(x) finite, which keeps every Ein value finite
        with np.errstate(over="ignore"):
            overflows = np.isinf(np.exp(self.samples))
        if overflows.any():
            size = self.samples[overflows][0]
            raise ValueError(f"exponential moment overflows at u=1.0 for empirical law (size {size})")
        return float(np.mean(_ein(self.samples, eps)))


# ---------------------------------------------------------------------------
# Parameter bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpikeParams:
    """Spike process parameters: arrival intensity, reversion speed, size law."""

    intensity: float
    reversion: float
    law: JumpLaw

    def __post_init__(self):
        positive("intensity", self.intensity)
        positive("reversion", self.reversion)


@dataclass(frozen=True)
class ExpOU:
    """Exponential of an Ornstein-Uhlenbeck process.

    The log-price Y = log Xc follows dY = -reversion * Y dt + vol dW, so Xc
    solves dXc = Xc * ((vol^2 / 2 - reversion * log Xc) dt + vol dW).
    """

    reversion: float
    vol: float
    initial: float = 1.0

    def __post_init__(self):
        # a reversion of 0 is the Brownian limit of the log leg
        if not 0 <= self.reversion < math.inf:
            raise ValueError(f"reversion must be nonnegative and finite, got {self.reversion}")
        positive("vol", self.vol)
        positive("initial", self.initial)


@dataclass(frozen=True)
class Flat:
    """Constant continuous part (useful for synthetic tests)."""

    level: float = 0.0

    def __post_init__(self):
        finite("level", self.level)


@dataclass(frozen=True)
class TwoFactorParams:
    """Two-factor forward dynamics df/f = sigma_l dW_l + sigma_s e^{-alpha (T-t)} dW_s."""

    alpha: float
    sigma_s: float
    sigma_l: float
    rho: float

    def __post_init__(self):
        for name in ("alpha", "sigma_s", "sigma_l"):
            positive(name, getattr(self, name))
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"correlation must lie in [-1, 1], got {self.rho}")
        # the log-variance doubles alpha, and per unit of time it is at most (sigma_l + sigma_s)^2
        if math.isinf(2.0 * self.alpha):
            raise ValueError(f"alpha {self.alpha!r} makes the two-factor log-variance overflow a float")
        scale = self.sigma_l + self.sigma_s
        if math.isinf(scale * scale):
            raise ValueError(
                f"sigma_l {self.sigma_l!r} and sigma_s {self.sigma_s!r} make the two-factor log-variance overflow a float"
            )

    def log_variance(self, t):
        """Variance v(t) of sigma_l W_t + sigma_s Y_t (Y the short OU factor), elementwise in t."""
        t = np.asarray(t, dtype=float)
        a, span = self.alpha, float(np.max(t, initial=0.0))
        if math.isinf(2.0 * a * span) or math.isinf((self.sigma_l + self.sigma_s) ** 2 * span):
            raise ValueError(f"horizon {span!r} makes the two-factor log-variance overflow a float")
        return (
            self.sigma_l**2 * t
            + self.sigma_s**2 * -np.expm1(-2.0 * a * t) / (2.0 * a)
            + 2.0 * self.rho * self.sigma_l * self.sigma_s * -np.expm1(-a * t) / a
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
        if not np.all((lv > 0) & (lv < np.inf)):
            raise ValueError(f"forward curve levels must be positive and finite, got {lv}")

    @classmethod
    def flat(cls, level: float, horizon: float = 1.0) -> "ForwardCurve":
        return cls(np.array([0.0, horizon]), np.array([float(level)]))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.breakpoints[0]) or np.any(t > self.breakpoints[-1]):
            raise ValueError("maturity outside the curve domain")
        idx = np.clip(np.searchsorted(self.breakpoints, t, side="right") - 1, 0, self.levels.size - 1)
        return self.levels[idx][()]


@dataclass(frozen=True)
class TwoFactorDynamics:
    """Continuous leg of a ModelSpec: two-factor model + initial curve."""

    params: TwoFactorParams
    curve: ForwardCurve


ContinuousSpec = Union[ExpOU, Flat, TwoFactorDynamics]


@dataclass(frozen=True)
class ModelSpec:
    """Full price model: continuous part plus spike parameters."""

    continuous: ContinuousSpec
    spikes: SpikeParams
