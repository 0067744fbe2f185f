"""Ensemble studies: estimator performance tables and strip-option pricing.

The estimation study mirrors the simulation-table protocol: for each
(intensity, reversion) pair simulate many paths of the exp-OU-plus-spikes
model on a fine grid, run both detection modes on every path, and aggregate
the intensity and reversion estimates into means and empirical 5%-95%
quantile intervals.

Replication r of pair p draws its random stream from the child key
(master_seed, p, r), so a study is bit-reproducible for a fixed master seed
at any parallelism degree; aggregation order is fixed by replication index.
The observed paths are simulated a block at a time
(``simulate.observed_rows``) and then estimated one by one.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .detect import PLAIN, SIGN_FILTERED, DetectionConfig, detect_jumps, multipower_variation
from .estimate import estimate_beta, estimate_lambda
from .model import ContinuousSpec, ForwardCurve, GridSpec, JumpLaw, ModelSpec, SpikeParams
from .model import TwoFactorParams
from .pricing import PriceWithCI, ci95, price_from_payoffs, strip_payoffs

# not called here since every strike is priced from one ensemble and the
# estimation study simulates blocks of paths; benchmarks/spans.py still looks
# these names up in this module
from .pricing import price_strip_mc  # noqa: F401
from .simulate import simulate_spot  # noqa: F401
from .simulate import child_seed, make_rng, observed_rows

__all__ = [
    "StudyConfig",
    "StudyRow",
    "PricingStudyConfig",
    "PricingStudyRow",
    "resolve_workers",
    "run_estimation_study",
    "run_pricing_study",
    "study_rows_to_csv",
    "study_summary",
    "pricing_rows_to_csv",
]


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, else SPIKELAB_THREADS, else 1.

    A count below 1 raises a ValueError naming where it came from.
    """
    source = "workers"
    if workers is None:
        env = os.environ.get("SPIKELAB_THREADS")
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"SPIKELAB_THREADS must be an integer, got {env!r}") from None
        source = "SPIKELAB_THREADS"
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"{source} must be at least 1, got {workers}")
    return workers


@dataclass(frozen=True)
class StudyConfig:
    """Estimation-study protocol over a grid of (intensity, reversion) pairs."""

    pairs: Tuple[Tuple[float, float], ...]
    replications: int
    grid: GridSpec
    detection: DetectionConfig
    law: JumpLaw
    continuous: ContinuousSpec
    master_seed: int = 0
    modes: Tuple[str, ...] = (PLAIN, SIGN_FILTERED)

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("need at least 2 replications")
        object.__setattr__(self, "pairs", tuple((float(a), float(b)) for a, b in self.pairs))
        for lam, beta in self.pairs:
            if not (lam > 0 and beta > 0):
                raise ValueError(f"invalid parameter pair ({lam}, {beta})")


@dataclass(frozen=True)
class StudyRow:
    """Aggregated estimates for one (pair, mode) cell."""

    intensity: float
    reversion: float
    mode: str
    mean_lambda: float
    lambda_q05: float
    lambda_q95: float
    mean_beta: float
    beta_q05: float
    beta_q95: float
    replications: int
    undefined_count: int
    floored_count: int


def _estimation_block(config: StudyConfig, pair_idx: int, lo: int, hi: int) -> List[Dict[str, Tuple]]:
    """Replications lo..hi-1 of one pair: simulate them in blocks, estimate each under every mode."""
    lam, beta = config.pairs[pair_idx]
    model = ModelSpec(config.continuous, SpikeParams(lam, beta, config.law))
    rngs = (make_rng(child_seed(config.master_seed, pair_idx, rep)) for rep in range(lo, hi))
    detections = [(mode, replace(config.detection, mode=mode)) for mode in config.modes]
    results = []
    for path in observed_rows(model, config.grid, rngs):
        sigma_hat = multipower_variation(path, config.detection.mpv_order)
        out = {}
        for mode, detection in detections:
            report = detect_jumps(path, detection, sigma_hat)
            lam_hat, _ = estimate_lambda(report, config.grid)
            est = estimate_beta(path, report)
            out[mode] = (lam_hat, est.beta_hat, est.flags.undefined, est.flags.floored)
        results.append(out)
    return results


def run_estimation_study(config: StudyConfig, workers: Optional[int] = None) -> List[StudyRow]:
    """Run the ensemble for every pair and mode; deterministic per master seed.

    Replication r of pair p simulates one path from the generator of child
    key (master_seed, p, r), whose two child streams (p, r, 0) and (p, r, 1)
    give the continuous leg and the jumps, exactly as ``simulate_spot`` on
    that generator.  Each pair's replications are split into ``workers``
    contiguous ranges, mapped over one process pool (or run in this process
    for one worker).  A range is simulated in blocks of paths by
    ``simulate.observed_rows``: one row of n + 1 values a path, the observed
    path, in one buffer of at most 2^20 entries (8 MB, 104 paths at
    n = 10^4), reused from block to block; detection and estimation then run
    path by path, on increments computed once a path.  Rows depend on
    neither the block nor the worker count.
    """
    workers = resolve_workers(workers)
    reps = config.replications
    bounds = [reps * k // workers for k in range(workers + 1)]
    tasks = [
        (config, pair_idx, lo, hi)
        for pair_idx in range(len(config.pairs))
        for lo, hi in zip(bounds, bounds[1:])
        if lo < hi
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_estimation_block, *zip(*tasks)))
    else:
        blocks = [_estimation_block(*task) for task in tasks]
    replications = [result for block in blocks for result in block]
    rows: List[StudyRow] = []
    for pair_idx, (lam, beta) in enumerate(config.pairs):
        results = replications[pair_idx * reps : (pair_idx + 1) * reps]
        for mode in config.modes:
            lam_hats = np.array([r[mode][0] for r in results])
            beta_hats = np.array([r[mode][1] for r in results])
            undefined = sum(int(r[mode][2]) for r in results)
            floored = sum(int(r[mode][3]) for r in results)
            rows.append(
                StudyRow(
                    intensity=lam,
                    reversion=beta,
                    mode=mode,
                    mean_lambda=float(lam_hats.mean()),
                    lambda_q05=float(np.quantile(lam_hats, 0.05)),
                    lambda_q95=float(np.quantile(lam_hats, 0.95)),
                    mean_beta=float(beta_hats.mean()),
                    beta_q05=float(np.quantile(beta_hats, 0.05)),
                    beta_q95=float(np.quantile(beta_hats, 0.95)),
                    replications=config.replications,
                    undefined_count=undefined,
                    floored_count=floored,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Pricing study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PricingStudyConfig:
    """Strip-option study: price with and without spikes across strikes."""

    two_factor: TwoFactorParams
    curve: ForwardCurve
    spikes: SpikeParams
    grid: GridSpec
    exercise_times: np.ndarray
    strikes: Tuple[float, ...]
    num_sims: int
    master_seed: int = 0
    antithetic: bool = False


@dataclass(frozen=True)
class PricingStudyRow:
    """One strike in both settings; the premium CI comes from the paired units."""

    strike: float
    without_spikes: PriceWithCI
    with_spikes: PriceWithCI
    spike_premium: float
    premium_stderr: float
    premium_ci95: Tuple[float, float]


def run_pricing_study(config: PricingStudyConfig) -> List[PricingStudyRow]:
    """Price every strike in both settings from one path ensemble.

    Both settings (without / with spikes) share the Gaussian factors of the
    ensemble drawn from the child stream (master_seed, 0); each batch of
    paths takes its factors and its jumps from two child streams of it and
    is walked along the grid in chunks, so memory is O(batch x chunk) (see
    ``strip_payoffs``).  Every strike is priced on those same paths, so each
    price is exactly non-increasing in the strike replication by
    replication, and equals ``price_strip_mc`` for that strike and setting
    alone on that stream.  Payoffs are summed in exercise-time order, so no
    row depends on the chunk length.  The premium is the difference
    of the two prices; its stderr and CI come from the per-unit differences,
    which the common factors make far less noisy than either price.
    """
    without_pay, with_pay = strip_payoffs(
        config.two_factor,
        config.curve,
        (None, config.spikes),
        config.grid,
        config.exercise_times,
        config.strikes,
        config.num_sims,
        make_rng(child_seed(config.master_seed, 0)),
        config.antithetic,
    )
    rows = []
    for k, strike in enumerate(config.strikes):
        without = price_from_payoffs(without_pay[:, k], config.num_sims)
        with_spikes = price_from_payoffs(with_pay[:, k], config.num_sims)
        premium = with_spikes.estimate - without.estimate
        paired = price_from_payoffs(with_pay[:, k] - without_pay[:, k], config.num_sims)
        rows.append(
            PricingStudyRow(
                strike=float(strike),
                without_spikes=without,
                with_spikes=with_spikes,
                spike_premium=premium,
                premium_stderr=paired.stderr,
                premium_ci95=ci95(premium, paired.stderr),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def study_rows_to_csv(rows: Sequence[StudyRow], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f.name for f in fields(StudyRow)])
        writer.writerows(map(astuple, rows))


def study_summary(rows: Sequence[StudyRow]) -> dict:
    return {"rows": [asdict(row) for row in rows]}


def pricing_rows_to_csv(rows: Sequence[PricingStudyRow], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "strike",
                "price_without",
                "ci_lo_without",
                "ci_hi_without",
                "price_with",
                "ci_lo_with",
                "ci_hi_with",
                "spike_premium",
                "premium_ci_lo",
                "premium_ci_hi",
            ]
        )
        for row in rows:
            writer.writerow(
                [
                    row.strike,
                    row.without_spikes.estimate,
                    row.without_spikes.ci95[0],
                    row.without_spikes.ci95[1],
                    row.with_spikes.estimate,
                    row.with_spikes.ci95[0],
                    row.with_spikes.ci95[1],
                    row.spike_premium,
                    row.premium_ci95[0],
                    row.premium_ci95[1],
                ]
            )
