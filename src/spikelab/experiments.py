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
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import List, Sequence, Tuple

import numpy as np

from .detect import MODES, DetectionConfig, detect_jumps, multipower_variation
from .estimate import estimate_beta, estimate_lambda
from .model import ContinuousSpec, ForwardCurve, GridSpec, JumpLaw, ModelSpec, SpikeParams, ci95, integer
from .model import TwoFactorParams
from .pricing import PriceWithCI, price_from_payoffs, strip_payoffs

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
    "run_estimation_study",
    "run_pricing_study",
    "study_rows_to_csv",
    "study_summary",
    "pricing_summary",
    "pricing_rows_to_csv",
]


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
    modes: Tuple[str, ...] = MODES

    def __post_init__(self):
        if not self.modes:
            raise ValueError("an estimation study needs at least one detection mode")
        for k, mode in enumerate(self.modes):
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
            if mode in self.modes[:k]:
                raise ValueError(f"mode {mode!r} is repeated")
        if integer("replications", self.replications) < 2:
            raise ValueError("need at least 2 replications")
        object.__setattr__(self, "pairs", tuple((float(a), float(b)) for a, b in self.pairs))
        if not self.pairs:
            raise ValueError("an estimation study needs at least one (intensity, reversion) pair")
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


def _estimation_block(config: StudyConfig, pair_idx: int, lo: int, hi: int) -> np.ndarray:
    """Replications lo..hi-1 of one pair: simulate them in blocks, estimate each under every mode.

    Row r - lo holds, for each mode in order, (lambda_hat, beta_hat, undefined, floored).
    """
    lam, beta = config.pairs[pair_idx]
    model = ModelSpec(config.continuous, SpikeParams(lam, beta, config.law))
    rngs = (make_rng(child_seed(config.master_seed, pair_idx, rep)) for rep in range(lo, hi))
    detections = [replace(config.detection, mode=mode) for mode in config.modes]
    results = np.empty((hi - lo, len(detections), 4))
    for row, path in zip(results, observed_rows(model, config.grid, rngs)):
        sigma_hat = multipower_variation(path, config.detection.mpv_order)
        for cell, detection in zip(row, detections):
            report = detect_jumps(path, detection, sigma_hat)
            lam_hat, _ = estimate_lambda(report, config.grid)
            est = estimate_beta(path, report)
            cell[:] = lam_hat, est.beta_hat, est.flags.undefined, est.flags.floored
    return results


def run_estimation_study(config: StudyConfig, workers: int = 1) -> List[StudyRow]:
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
    neither the block nor the worker count, which is capped at the CPU count:
    the pool starts all its processes at the first submit.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
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
    replications = np.concatenate(blocks)
    rows: List[StudyRow] = []
    for pair_idx, (lam, beta) in enumerate(config.pairs):
        results = replications[pair_idx * reps : (pair_idx + 1) * reps]
        for mode_idx, mode in enumerate(config.modes):
            lam_hats, beta_hats, undefined, floored = results[:, mode_idx].T
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
                    undefined_count=int(undefined.sum()),
                    floored_count=int(floored.sum()),
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

    def __post_init__(self):
        for k, strike in enumerate(self.strikes):
            if strike in self.strikes[:k]:
                raise ValueError(f"strike {strike} is repeated")


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


def pricing_summary(rows: Sequence[PricingStudyRow]) -> List[dict]:
    """One record a strike: both prices with their CIs, the premium and its paired CI."""
    return [
        {
            "strike": row.strike,
            "without": {"estimate": row.without_spikes.estimate, "ci95": list(row.without_spikes.ci95)},
            "with": {"estimate": row.with_spikes.estimate, "ci95": list(row.with_spikes.ci95)},
            "premium": row.spike_premium,
            "premium_ci95": list(row.premium_ci95),
        }
        for row in rows
    ]


def pricing_rows_to_csv(rows: Sequence[PricingStudyRow], path: str) -> None:
    """Each ``pricing_summary`` record as one CSV row, its numbers flattened in key order."""
    # the JSON parser hands each object to the hook innermost first, so a
    # record arrives with its nested objects already flattened to lists
    records = json.loads(
        json.dumps(pricing_summary(rows)), object_hook=lambda record: np.hstack(list(record.values())).tolist()
    )
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
        writer.writerows(records)
