"""The benchmark's three workloads: inputs built from a seed, one timed unit of
work, and the correctness gates its output must pass.

Each workload is a class whose constructor is the set-up (input construction,
and for estimate-cli the CSV generation), whose ``run`` is the unit the
benchmark times, and whose ``check`` returns the list of failed gates.  The
package receives only the generated inputs, never the seed itself.  Every
layer call goes through a module attribute (``experiments.run_...``,
``cli.dispatch``) so that the traced run can wrap it from outside.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import replace

import numpy as np
from scipy.special import ndtr

from spikelab import cli, experiments
from spikelab.detect import PLAIN, SIGN_FILTERED, DetectionConfig, detect_jumps
from spikelab.estimate import estimate_spikes
from spikelab.model import ExpOU, GridSpec, ModelSpec, SampledPath, SignedExponentialMixture, SpikeParams
from spikelab.pricing import ForwardCurve, TwoFactorDynamics, TwoFactorParams
from spikelab.simulate import make_rng, simulate_spot

# the paper's study law 0.4 (-Exp(mean 15)) + 0.6 Exp(mean 10) and market law
# 0.4 (-Exp(mean 30)) + 0.6 Exp(mean 60); components are parameterized by rate
STUDY_LAW = SignedExponentialMixture((0.4, 0.6), (1 / 15, 1 / 10), (-1, 1))
MARKET_LAW = SignedExponentialMixture((0.4, 0.6), (1 / 30, 1 / 60), (-1, 1))
MARKET_TF = TwoFactorParams(alpha=12.56, sigma_s=1.03, sigma_l=0.25, rho=-0.11)
MARKET_SPIKES = SpikeParams(35.0, 21_000.0, MARKET_LAW)
FORWARD_LEVEL = 40.0
HOURS_PER_YEAR = 8_760


class EstimationTable:
    """The estimator table: simulate -> detect -> estimate, both detection modes.

    Nearly all time is in simulation and multipower variation over thousands
    of short single-path calls; beta spans three decades.
    """

    name = "estimation-table"
    item = "replications"
    INTENSITY = 10.0
    REVERSIONS = (20.0, 200.0, 2_000.0, 20_000.0)

    def __init__(self, seed: int, smoke: bool, workdir: str):
        reps = 50 if smoke else 250
        self.config = experiments.StudyConfig(
            pairs=tuple((self.INTENSITY, beta) for beta in self.REVERSIONS),
            replications=reps,
            grid=GridSpec(10_000, 1.0),
            detection=DetectionConfig(constant=5.0, exponent=0.01, mpv_order=20),
            law=STUDY_LAW,
            continuous=ExpOU(reversion=100.0, vol=2.0, initial=1.0),
            master_seed=seed,
        )
        # one replication = one simulated path, estimated in both modes
        self.items = len(self.REVERSIONS) * reps

    def run(self):
        # workers pinned: resolve_workers would otherwise read SPIKELAB_THREADS
        return experiments.run_estimation_study(self.config, workers=1)

    warm_up = run

    def check(self, rows) -> list:
        lam = self.INTENSITY
        cells = {(row.reversion, row.mode): row for row in rows}
        failed = []
        for beta in self.REVERSIONS:
            row = cells[(beta, SIGN_FILTERED)]
            if not row.lambda_q05 <= lam <= row.lambda_q95:
                failed.append(f"signfiltered beta={beta}: true lambda outside [q05, q95] of lambda_hat")
        for beta, mode in ((200.0, SIGN_FILTERED), (2_000.0, SIGN_FILTERED), (20_000.0, SIGN_FILTERED), (20.0, PLAIN)):
            row = cells[(beta, mode)]
            if not row.beta_q05 <= beta <= row.beta_q95:
                failed.append(f"{mode} beta={beta}: true beta outside [q05, q95] of beta_hat")
        if not cells[(2_000.0, PLAIN)].beta_q95 < 0.0:
            failed.append("plain beta=2000: q95 of beta_hat is not negative")
        for beta in (2_000.0, 20_000.0):
            if not cells[(beta, PLAIN)].mean_lambda >= 2.0 * lam:
                failed.append(f"plain beta={beta}: mean lambda_hat below {2.0 * lam}")
        return failed


def black_strip(curve_level: float, strike: float, variances: np.ndarray) -> float:
    """Closed-form strip sum over exercise dates of Black(F, K, v(t)), zero rate."""
    root = np.sqrt(variances)
    d1 = (np.log(curve_level / strike) + 0.5 * variances) / root
    return float(np.sum(curve_level * ndtr(d1) - strike * ndtr(d1 - root)))


class StripPricing:
    """Hourly strip options with and without spikes, strikes 100/200/300.

    Batched Gaussian factor draws, a per-path spike loop and an 8760-column
    payoff with a working set of a few hundred MB: simulation used in a way
    very different from estimation-table, and no detection or ingestion.
    """

    name = "strip-pricing"
    item = "paths"
    STRIKES = (100.0, 200.0, 300.0)
    # 1024 paths keep the with-spike K=300 CI above zero at every seed tried
    # (0-79); at 512 paths it failed at 2 of 21 seeds
    SIMS = 1_024
    WARM_UP_SIMS = 32
    # MC over 1024 paths prices an out-of-the-money strip worth less than this
    # at exactly 0 with zero stderr (Black gives 0.0008 at K=200)
    REFERENCE_FLOOR = 0.01
    # Standard deviation of one no-spike path's strip payoff, measured once
    # over 16384 paths.  At K=100 only 1.6% of paths pay, so in 1024 paths the
    # sample stderr misses the tail: a 4-sample-stderr check failed at 4 of
    # seeds 0-29 (and 9% of bootstrap resamples), while 4 x max(sample, this)
    # failed at none of 200000 resamples.  No path paid at K=200 or K=300.
    PAYOFF_SD = {100.0: 434.0, 200.0: 0.0, 300.0: 0.0}

    def __init__(self, seed: int, smoke: bool, workdir: str):
        # smoke runs keep all 1024 paths: the with-spike K=300 gate needs them
        grid = GridSpec(HOURS_PER_YEAR, 1.0)
        self.config = experiments.PricingStudyConfig(
            two_factor=MARKET_TF,
            curve=ForwardCurve.flat(FORWARD_LEVEL),
            spikes=MARKET_SPIKES,
            grid=grid,
            exercise_times=grid.times()[1:],
            strikes=self.STRIKES,
            num_sims=self.SIMS,
            master_seed=seed,
        )
        # distinct (setting, path) pairs the study needs: with and without spikes
        self.items = 2 * self.SIMS

    def run(self):
        return experiments.run_pricing_study(self.config)

    def warm_up(self):
        # every code path of run() at a fraction of its cost
        return experiments.run_pricing_study(replace(self.config, num_sims=self.WARM_UP_SIMS))

    def check(self, rows) -> list:
        by_strike = {row.strike: row for row in rows}
        failed = []
        row300 = by_strike[300.0]
        if row300.without_spikes.ci95 != (0.0, 0.0):
            failed.append(f"no-spike K=300 CI is {row300.without_spikes.ci95}, not exactly (0, 0)")
        if not row300.with_spikes.ci95[0] > 0.0:
            failed.append(f"with-spike K=300 CI lower bound {row300.with_spikes.ci95[0]} is not above 0")
        for setting in ("without_spikes", "with_spikes"):
            prices = [getattr(by_strike[k], setting).estimate for k in self.STRIKES]
            if not all(a >= b for a, b in zip(prices, prices[1:])):
                failed.append(f"{setting} prices increase with strike: {prices}")
        variances = self.config.two_factor.log_variance(self.config.exercise_times)
        for strike in self.STRIKES:
            price = by_strike[strike].without_spikes
            reference = black_strip(FORWARD_LEVEL, strike, variances)
            stderr = max(price.stderr, self.PAYOFF_SD[strike] / np.sqrt(price.num_sims))
            if abs(price.estimate - reference) > 4.0 * stderr + self.REFERENCE_FLOOR:
                failed.append(
                    f"no-spike K={strike}: MC {price.estimate} vs closed form {reference} "
                    f"beyond 4 stderr ({stderr}) + {self.REFERENCE_FLOOR}"
                )
        return failed


class EstimateCli:
    """`spikelab estimate --json` in-process on a long hourly ISO-8601 CSV.

    Ingestion dominates; detection then runs once on one long path, far from
    the n = 10^4 regime of estimation-table.  No simulation or pricing is timed.
    """

    name = "estimate-cli"
    item = "rows"

    def __init__(self, seed: int, smoke: bool, workdir: str):
        rows = 5_000 if smoke else 200_000
        n = rows - 1
        # a market-like series in year units: hourly steps, two-factor
        # continuous part on a flat curve, market spikes
        grid = GridSpec(n, n / HOURS_PER_YEAR)
        model = ModelSpec(
            TwoFactorDynamics(MARKET_TF, ForwardCurve.flat(FORWARD_LEVEL, grid.horizon)),
            MARKET_SPIKES,
        )
        values = simulate_spot(model, grid, make_rng(seed)).observed.values
        stamps = (np.datetime64("2001-01-01T00:00:00") + np.arange(rows) * np.timedelta64(1, "h")).astype(str)
        self.csv_path = os.path.join(workdir, f"estimate-cli-{seed}.csv")
        with open(self.csv_path, "w", encoding="utf-8", newline="") as handle:
            handle.write("timestamp,price\n")
            # repr floats make the CSV round trip bit-exact
            handle.write("".join(f"{s},{v!r}\n" for s, v in zip(stamps, values.tolist())))
        # ingestion renormalizes the horizon to 1
        self.path = SampledPath(GridSpec(n, 1.0), values)
        self.items = rows
        self.argv = ["estimate", "--in", self.csv_path, "--json"]

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(self.argv)
        return code, out.getvalue(), err.getvalue()

    warm_up = run

    def check(self, output) -> list:
        code, out, err = output
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        payload = json.loads(out)
        report = detect_jumps(self.path, DetectionConfig())
        est = estimate_spikes(self.path, report)
        failed = []
        for key, expected in (("lambda_hat", est.lambda_hat), ("beta_hat", est.beta_hat), ("count", report.count)):
            if payload.get(key) != expected:
                failed.append(f"{key} {payload.get(key)!r} differs from in-memory {expected!r}")
        if "per_year" not in payload:
            failed.append("per_year missing from calendar-timestamped estimate")
        return failed


WORKLOADS = {cls.name: cls for cls in (EstimationTable, StripPricing, EstimateCli)}
