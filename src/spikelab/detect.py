"""Jump detection on discretely sampled paths.

An increment is flagged as a jump when |D_i X| / sqrt(mesh) exceeds the
threshold v = C * sigma_hat * mesh^(-varpi), i.e. |D_i X| > C * sigma_hat *
mesh^(1/2 - varpi), with sigma_hat the square root of the multipower
variation estimate of the integrated variance.  A high multipower order
(20 by default) keeps sigma_hat robust to spikes that bleed across two or
three consecutive increments.

Two modes:

* ``plain``: threshold exceedance only.  Fast mean reversion can push the
  relaxation increments themselves above the threshold, inflating the count.
* ``signfiltered``: additionally require D_i X * D_{i+1} X < 0.  Right after
  a genuine jump the reversion pulls the next increment the opposite way,
  while consecutive relaxation increments share their sign, so the filter
  drops them.

``regime`` names the asymptotic setting of (intensity, reversion) on a grid,
at the threshold exponent varpi: "II", where sign-filtered detection holds,
when reversion * mesh^(1/2 - varpi) >= 1 (the per-step relaxation dominates
the Brownian scale); otherwise "I", where plain detection holds, when
intensity^2 * mesh < 0.1 and reversion * mesh < 1; otherwise "neither".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gamma as gamma_fn

from .model import GridSpec, SampledPath, integer, positive

__all__ = [
    "PLAIN",
    "SIGN_FILTERED",
    "MODES",
    "DetectionConfig",
    "DetectionReport",
    "DegeneratePathError",
    "gaussian_abs_moment",
    "multipower_variation",
    "compute_threshold",
    "detect_jumps",
    "regime",
]

PLAIN = "plain"
SIGN_FILTERED = "signfiltered"
MODES = (PLAIN, SIGN_FILTERED)


class DegeneratePathError(ValueError):
    """Raised when a path carries no usable variation."""


@dataclass(frozen=True)
class DetectionConfig:
    """Threshold rule parameters.

    constant: C in the threshold (3 to 5 is the usual range).
    exponent: varpi in (0, 1/2); close to 0 in practice.
    mpv_order: order of the multipower variation estimator.
    mode: "plain" or "signfiltered".
    """

    constant: float = 5.0
    exponent: float = 0.01
    mpv_order: int = 20
    mode: str = SIGN_FILTERED

    def __post_init__(self):
        positive("threshold constant", self.constant)
        if not (0 <= self.exponent < 0.5):
            raise ValueError(f"exponent must lie in [0, 1/2), got {self.exponent}")
        if integer("multipower order", self.mpv_order) < 2:
            raise ValueError(f"multipower order must be >= 2, got {self.mpv_order}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class DetectionReport:
    """Flagged increments: 1-based indices I(1) < ... < I(count)."""

    indices: np.ndarray
    increments: np.ndarray
    count: int
    sigma_hat: float
    threshold_abs: float
    mode: str


def gaussian_abs_moment(r: float) -> float:
    """E|N(0,1)|^r = 2^(r/2) Gamma((r + 1) / 2) / sqrt(pi)."""
    return 2.0 ** (r / 2.0) * gamma_fn((r + 1.0) / 2.0) / np.sqrt(np.pi)


def multipower_variation(path: SampledPath, order: int = 20) -> float:
    """Jump-robust volatility estimate sigma_hat = sqrt(MPV_m).

    MPV_m = mu_{2/m}^{-m} * sum_{i=m}^{n} prod_{j=0}^{m-1} |D_{i-j} X|^{2/m},
    with mu_r the r-th absolute moment of a standard Gaussian.  The powers in
    each product sum to 2, so the estimator is consistent for the integrated
    variance over the horizon without an extra mesh factor.
    """
    n = path.grid.n
    if integer("multipower order", order) < 2:
        raise ValueError(f"multipower order must be >= 2, got {order}")
    if n <= order:
        raise ValueError(f"need more than {order} increments, got {n}")
    incr = np.abs(path.increments())
    if not incr.any():
        raise DegeneratePathError("constant path: all increments are zero")
    r = 2.0 / order
    powers = incr**r
    # products of every window of `order` consecutive powers, multiplied up
    # left to right: a few passes over n values, no (n, order) window array
    width = n - order + 1
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the float range is named below
        prods = powers[:width] * powers[1 : width + 1]
        for j in range(2, order):
            prods *= powers[j : j + width]
        mpv = prods.sum() / gaussian_abs_moment(r) ** order
    if not np.isfinite(mpv):
        raise ValueError(f"increments up to {incr.max():.6g} make the multipower variation overflow a float")
    if not mpv > 0:
        raise DegeneratePathError("multipower variation vanished (too many zero increments)")
    return float(np.sqrt(mpv))


def compute_threshold(config: DetectionConfig, sigma_hat: float, grid: GridSpec) -> float:
    """Absolute increment cutoff C * sigma_hat * mesh^(1/2 - varpi)."""
    threshold = config.constant * positive("sigma_hat", sigma_hat) * grid.mesh ** (0.5 - config.exponent)
    return positive(f"threshold at C = {config.constant}", threshold)


def detect_jumps(
    path: SampledPath,
    config: DetectionConfig,
    sigma_hat: Optional[float] = None,
) -> DetectionReport:
    """Flag jump increments of a path under the configured threshold rule.

    ``sigma_hat`` overrides the multipower estimate when the caller already
    has one (e.g. a known volatility in synthetic experiments).  Adjacent
    flags are reported as-is, without deduplication; in sign-filtered mode
    the last increment is never flagged (it has no successor).
    """
    if path.grid.n < 3:
        raise ValueError("need at least 3 increments to detect jumps")
    if sigma_hat is None:
        sigma_hat = multipower_variation(path, config.mpv_order)
    threshold = compute_threshold(config, sigma_hat, path.grid)
    incr = path.increments()
    flags = np.abs(incr) > threshold
    if config.mode == SIGN_FILTERED:
        # the sign test runs at the exceedances only, the last increment excluded
        exceed = np.flatnonzero(flags[:-1])
        with np.errstate(over="ignore"):  # an overflow keeps the sign, which is all that is read
            indices = exceed[incr[exceed] * incr[exceed + 1] < 0] + 1
    else:
        indices = np.flatnonzero(flags) + 1
    return DetectionReport(
        indices=indices,
        increments=incr[indices - 1],
        count=int(indices.size),
        sigma_hat=float(sigma_hat),
        threshold_abs=float(threshold),
        mode=config.mode,
    )


# the cutoff standing in for "lambda^2 * mesh small" in regime I
_SMALL = 0.1


def regime(intensity: float, reversion: float, grid: GridSpec, detection: DetectionConfig) -> str:
    """The regime "I", "II" or "neither" of (intensity, reversion) on ``grid``.

    The rule is the module's, at ``detection.exponent``; "II" wins where both hold.
    """
    positive("intensity", intensity)
    positive("reversion", reversion)
    mesh = grid.mesh
    if reversion * mesh ** (0.5 - detection.exponent) >= 1.0:
        return "II"
    if intensity * intensity * mesh < _SMALL and reversion * mesh < 1.0:
        return "I"
    return "neither"
