"""Estimation of spike intensity, reversion speed, and jump-size moments.

With detected jump indices I(1) < ... < I(K) on a grid of mesh D:

* intensity: lambda_hat = K / horizon, with a normal-approximation 95% CI
  (exact Poisson upper bound when K = 0).

* reversion: the slope statistic

      s_hat = - [ sum_q sgn(D_{I(q)} X) (D_{I(q)+1} X
                  + 2 D sum_{j<q} D_{I(j)} X) ] / sum_q |D_{I(q)} X|

  estimates 1 - exp(-beta D), inverted as beta_hat = -log(max(1 - s_hat, D))
  / D.  The 2 D sum_{j<q} term is a bias correction for jumps accumulated
  earlier in the sample; the max(., D) floor keeps the logarithm finite and
  is flagged when it binds.  The raw estimator is reported even when it goes
  negative (fast reversion contaminating plain-threshold detection does
  exactly that), since masking the failure mode would hide it from study
  tables.

* jump moments: m beta D / ((1 - exp(-m beta D)) K) * sum_q (D_{I(q)} X)^m
  corrects the within-interval decay bias of the raw detected increments.

The oracle is this slope statistic fed the true jumps, on the eligible ones
(last in their interval, with no jump in the next); a testing benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .detect import DetectionReport
from .model import GridSpec, SampledPath, ci95, sign

__all__ = [
    "EstimateFlags",
    "SpikeEstimates",
    "AsymptoticDiagnostics",
    "BetaEstimate",
    "estimate_lambda",
    "estimate_beta",
    "oracle_estimate_beta",
    "estimate_jump_moments",
    "asymptotic_diagnostics",
    "estimate_spikes",
]

# -ln(0.025): exact 97.5% Poisson upper bound for a zero count
_POISSON_ZERO_UPPER = 3.6888794541139363


@dataclass(frozen=True)
class EstimateFlags:
    """Degenerate-case markers (flags, not failures)."""

    undefined: bool = False  # no detected jumps: beta_hat reported as 0
    floored: bool = False  # the max(., mesh) floor was binding
    boundary_drops: int = 0  # detected indices at i = n (no successor term)


@dataclass(frozen=True)
class BetaEstimate:
    beta_hat: float
    slope_hat: float
    flags: EstimateFlags


@dataclass(frozen=True)
class AsymptoticDiagnostics:
    """Plug-in evaluation of the reversion estimator's error decomposition.

    bias_term is the deterministic bias M; error_components are the four
    scale factors V1..V4 multiplying standardized (asymptotically Gaussian)
    residuals; relative_error_bound is the leading-order stochastic bound
    lambda * mesh + 1 / (beta sqrt(lambda mesh)) + min(1/sqrt(beta),
    lambda/beta).
    """

    bias_term: float
    error_components: Tuple[float, float, float, float]
    relative_error_bound: float


@dataclass(frozen=True)
class SpikeEstimates:
    """Joint estimation output for one path."""

    lambda_hat: float
    lambda_ci: Tuple[float, float]
    beta_hat: float
    slope_hat: float
    moment_estimates: Dict[int, Optional[float]]
    diagnostics: Optional[AsymptoticDiagnostics]
    flags: EstimateFlags


def estimate_lambda(report: DetectionReport, grid: GridSpec) -> Tuple[float, Tuple[float, float]]:
    """Jump intensity per unit time with a 95% confidence interval.

    The normal interval ``ci95`` around lambda_hat with standard error
    sqrt(lambda_hat / horizon), clamped below at zero; for a zero count the
    upper bound is the exact Poisson one.
    """
    horizon = grid.horizon
    lam = report.count / horizon
    if report.count == 0:
        return 0.0, (0.0, _POISSON_ZERO_UPPER / horizon)
    lo, hi = ci95(lam, math.sqrt(lam / horizon))
    return lam, (max(lo, 0.0), hi)


def _reversion(signs: np.ndarray, succ: np.ndarray, prev_sum: np.ndarray, den: float, mesh: float, drops: int) -> BetaEstimate:
    """Invert ratio = sum(signs (succ + 2 mesh prev_sum)) / den to beta_hat = -log(max(1 + ratio, mesh)) / mesh.

    Undefined when ``den`` is 0, as it is with no jumps; flagged when the floor binds.
    """
    if den == 0.0:
        return BetaEstimate(0.0, 0.0, EstimateFlags(undefined=True, boundary_drops=drops))
    ratio = float(np.sum(signs * (succ + 2.0 * mesh * prev_sum))) / den
    arg = 1.0 + ratio
    beta = -math.log(max(arg, mesh)) / mesh
    return BetaEstimate(beta, -ratio, EstimateFlags(floored=arg < mesh, boundary_drops=drops))


def estimate_beta(path: SampledPath, report: DetectionReport) -> BetaEstimate:
    """Feasible reversion-speed estimator from the report's increments; the path gives their successors."""
    idx = np.asarray(report.indices, dtype=int)
    detected = report.increments
    succ = path.increments().take(idx, mode="wrap")  # an index at n (no successor) reads a value zeroed below
    no_succ = idx >= path.grid.n
    succ[no_succ] = 0.0
    prev_sum = np.zeros(idx.size)
    np.cumsum(detected[:-1], out=prev_sum[1:])
    den = float(np.sum(np.abs(detected)))
    return _reversion(sign(detected), succ, prev_sum, den, path.grid.mesh, int(np.count_nonzero(no_succ)))


def oracle_estimate_beta(path: SampledPath, truth: np.ndarray) -> BetaEstimate:
    """The feasible slope statistic fed the true jumps, a (k, 2) array of (time, size) rows.

    It sums over the jumps that are last in their interval and have none in
    the next, signed by their true sizes; each prior sum runs over every
    earlier jump.  Benchmarks the feasible estimator on the exact-detection event.
    """
    n = path.grid.n
    incr = path.increments()
    times, sizes = truth[np.argsort(truth[:, 0], kind="stable")].T
    idx = path.grid.interval_index(times)
    prev_sum = np.zeros(idx.size)
    np.cumsum(sizes[:-1], out=prev_sum[1:])
    eligible = (idx < n) & ~np.isin(idx + 1, idx) & (np.diff(idx, append=n + 1) > 0)
    at, signs = idx[eligible], sign(sizes[eligible])
    den = float(np.sum(signs * incr[at - 1]))
    return _reversion(signs, incr[at], prev_sum[eligible], den, path.grid.mesh, 0)


def estimate_jump_moments(
    path: SampledPath, report: DetectionReport, beta_hat: float, m: int
) -> Optional[float]:
    """Bias-corrected m-th moment of the jump-size law.

    Applies the factor m beta D / (1 - exp(-m beta D)) to the raw average of
    detected increments raised to the m-th power, with beta_hat plugged in for
    the unknown reversion speed.  Returns None (undefined) when there are no
    detections or beta_hat is not positive.
    """
    if report.count == 0 or not beta_hat > 0:
        return None
    mbd = m * beta_hat * path.grid.mesh
    correction = mbd / (-np.expm1(-mbd))
    return float(correction * np.sum(report.increments**m) / report.count)


def asymptotic_diagnostics(
    lambda_hat: float,
    beta_hat: float,
    grid: GridSpec,
    sigma_sq_integral: float,
    *,
    signed1: float,
    abs1: float,
    abs2: float,
    sign_mass: float,
) -> AsymptoticDiagnostics:
    """Plug-in bias term M and error scales V1..V4 of the reversion estimator.

    The plug-ins are the law's signed first moment ``signed1`` (x integrated
    against the law), its absolute moments ``abs1`` and ``abs2``, and its
    ``sign_mass``.  ``sigma_sq_integral`` is the integrated variance of the
    continuous part (sigma_hat^2 in practice).

    The V1 expression takes the square root of a moment combination that is
    not a variance and can turn negative for legitimate laws; it is clamped
    at zero before the root so the diagnostic stays a finite real.
    """
    lam, beta, mesh = lambda_hat, beta_hat, grid.mesh
    if not (lam > 0 and beta > 0 and sigma_sq_integral >= 0):
        raise ValueError("diagnostics need positive intensity/reversion plug-ins")
    x1, a1, a2, sg = signed1, abs1, abs2, sign_mass
    if not a1 > 0:
        raise ValueError("diagnostics need a positive absolute first moment")

    bd = beta * mesh
    ebd = math.exp(bd)
    growth = math.expm1(bd) / bd  # (e^{bd} - 1) / (bd) -> 1 as bd -> 0
    relax = -math.expm1(-bd)  # 1 - e^{-bd}
    bias = ebd * (lam / beta) * (x1 * sg / a1) * (growth - 1.0)

    bracket = sg * sg * a2 + x1 * x1 - 2.0 * sg * a2
    v1 = ebd * math.sqrt(lam) / (math.sqrt(3.0) * beta * a1) * math.sqrt(max(bracket, 0.0))
    v2 = ebd * min(
        math.sqrt((a2 / a1**2) * (1.0 / (2.0 * beta)) * (-math.expm1(-2.0 * bd)) / (2.0 * bd)),
        lam / beta,
    )
    root_sigma = math.sqrt(sigma_sq_integral)
    v3 = ebd * (bd / relax) * root_sigma / (a1 * math.sqrt(lam) * beta * math.sqrt(mesh))
    v4 = ebd * root_sigma * math.sqrt(mesh) / (a1 * math.sqrt(lam))

    bound = lam * mesh + 1.0 / (beta * math.sqrt(lam * mesh)) + min(
        1.0 / math.sqrt(beta), lam / beta
    )
    return AsymptoticDiagnostics(
        bias_term=bias,
        error_components=(v1, v2, v3, v4),
        relative_error_bound=bound,
    )


def estimate_spikes(path: SampledPath, report: DetectionReport) -> SpikeEstimates:
    """Full estimation pass: intensity, reversion, the first two moments and diagnostics."""
    grid = path.grid
    lam, ci = estimate_lambda(report, grid)
    beta = estimate_beta(path, report)
    moments = {m: estimate_jump_moments(path, report, beta.beta_hat, m) for m in (1, 2)}

    diagnostics = None
    if lam > 0 and beta.beta_hat > 0:
        detected = report.increments
        bd = beta.beta_hat * grid.mesh
        diagnostics = asymptotic_diagnostics(
            lam,
            beta.beta_hat,
            grid,
            report.sigma_hat**2,
            signed1=moments[1],
            # same decay correction applied to the absolute moments
            abs1=float(np.mean(np.abs(detected))) * bd / (-np.expm1(-bd)),
            abs2=float(np.mean(detected**2)) * 2.0 * bd / (-np.expm1(-2.0 * bd)),
            sign_mass=float(np.mean(sign(detected))),
        )

    return SpikeEstimates(
        lambda_hat=lam,
        lambda_ci=ci,
        beta_hat=beta.beta_hat,
        slope_hat=beta.slope_hat,
        moment_estimates=moments,
        diagnostics=diagnostics,
        flags=beta.flags,
    )
