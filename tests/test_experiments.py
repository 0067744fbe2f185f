"""Study harness: determinism, aggregation and output formats."""

import csv
import functools
import json
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from spikelab import experiments, pricing, simulate
from spikelab.detect import PLAIN, SIGN_FILTERED, DetectionConfig
from spikelab.experiments import (
    PricingStudyConfig,
    StudyConfig,
    StudyRow,
    pricing_rows_to_csv,
    run_estimation_study,
    run_pricing_study,
    study_rows_to_csv,
    study_summary,
)
from spikelab.model import ExpOU, GridSpec, SignedExponentialMixture, SpikeParams
from spikelab.pricing import ForwardCurve, TwoFactorParams, price_strip_mc
from spikelab.simulate import child_seed, make_rng

STUDY_LAW = SignedExponentialMixture((0.4, 0.6), (1 / 15, 1 / 10), (-1, 1))


def small_study(reps=3, seed=11, pairs=((10.0, 200.0),)):
    return StudyConfig(
        pairs=pairs,
        replications=reps,
        grid=GridSpec(2_000, 1.0),
        detection=DetectionConfig(),
        law=STUDY_LAW,
        continuous=ExpOU(100.0, 2.0, 1.0),
        master_seed=seed,
    )


class TestEstimationStudy:
    def test_smoke_two_replications(self):
        rows = run_estimation_study(small_study(reps=2))
        assert len(rows) == 2  # one row per mode
        for row in rows:
            assert row.replications == 2
            assert row.mode in (PLAIN, SIGN_FILTERED)
            assert np.isfinite(row.mean_beta)

    def test_deterministic_under_master_seed(self):
        a = run_estimation_study(small_study(seed=5))
        b = run_estimation_study(small_study(seed=5))
        assert a == b
        c = run_estimation_study(small_study(seed=6))
        assert a != c

    def test_parallelism_does_not_change_results(self):
        config = small_study(reps=6, seed=9)
        serial = run_estimation_study(config, workers=1)
        parallel = run_estimation_study(config, workers=3)
        assert serial == parallel

    def test_rows_cover_all_pairs_and_modes(self):
        config = small_study(reps=2, pairs=((10.0, 200.0), (10.0, 2_000.0)))
        rows = run_estimation_study(config)
        cells = {(row.intensity, row.reversion, row.mode) for row in rows}
        assert len(cells) == 4

    def test_csv_and_json_outputs(self, tmp_path):
        rows = run_estimation_study(small_study(reps=2))
        csv_path = tmp_path / "study.csv"
        study_rows_to_csv(rows, str(csv_path))
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(rows)
        assert lines[0].startswith("intensity,reversion,mode")
        summary = study_summary(rows)
        assert json.dumps(summary)  # serializable
        assert summary["rows"][0]["replications"] == 2

    def test_csv_floats_read_back_exactly(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004: 17 significant digits
        row = StudyRow(value, 200.0, PLAIN, value, value, value, value, value, value, 2, 0, 1)
        csv_path = tmp_path / "study.csv"
        study_rows_to_csv([row], str(csv_path))
        with open(csv_path, newline="") as handle:
            header, fields = csv.reader(handle)
        assert header == [
            "intensity", "reversion", "mode", "mean_lambda", "lambda_q05", "lambda_q95",
            "mean_beta", "beta_q05", "beta_q95", "replications", "undefined_count", "floored_count",
        ]
        assert list(study_summary([row])["rows"][0]) == header
        assert fields[:3] == ["0.30000000000000004", "200.0", PLAIN]
        assert [float(x) for x in fields[3:9]] == [value] * 6
        assert fields[9:] == ["2", "0", "1"]

    def test_rejects_single_replication(self):
        with pytest.raises(ValueError):
            small_study(reps=1)

    def test_unknown_mode_rejected_by_the_config(self):
        # raised where the config is built, not inside a worker process of the study
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            replace(small_study(), modes=(PLAIN, "bogus"))

    def test_repeated_mode_rejected_by_the_config(self):
        with pytest.raises(ValueError, match="^mode 'plain' is repeated$"):
            replace(small_study(), modes=(PLAIN, SIGN_FILTERED, PLAIN))

    def test_traced_peak_of_a_study_stays_small(self):
        # n = 10^4: a block of 104 paths and one of 16, each in the one 8 MB
        # buffer of one row a path; two rows a path peaked at 16.7 MB
        config = replace(small_study(reps=120), grid=GridSpec(10_000, 1.0))
        tracemalloc.start()
        try:
            run_estimation_study(config, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20


class InProcessPool:
    """Stands in for the process pool: records each worker count and maps in this process."""

    def __init__(self, counts, max_workers):
        counts.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_argument_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
            run_estimation_study(small_study(reps=2), workers)

    def test_one_pool_per_study(self, monkeypatch):
        pools = []

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountedPool)
        config = small_study(reps=4, pairs=((10.0, 200.0), (10.0, 2_000.0)))
        assert run_estimation_study(config, workers=2) == run_estimation_study(config, workers=1)
        assert pools == [2]

    @pytest.mark.parametrize("cpus", [None, 1, 2, "host"])
    def test_worker_count_capped_at_cpu_count(self, monkeypatch, cpus):
        # a process pool starts all its workers at the first submit, so the count
        # is capped before the ranges are split; this pool maps in this process
        pools = []
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", functools.partial(InProcessPool, pools))
        if cpus != "host":
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        capped = experiments.os.cpu_count() or 1
        config = small_study(reps=4)
        assert run_estimation_study(config, workers=100_000) == run_estimation_study(config, workers=1)
        assert pools == ([capped] if capped > 1 else [])

    def test_environment_leaves_the_study_serial(self, monkeypatch):
        pools = []
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", functools.partial(InProcessPool, pools))
        monkeypatch.setenv("SPIKELAB_THREADS", "100000")
        run_estimation_study(small_study(reps=4))
        assert pools == []


class TestPricingStudy:
    def make_config(self, strikes, sims=600, seed=4):
        grid = GridSpec(40, 1.0)
        return PricingStudyConfig(
            two_factor=TwoFactorParams(alpha=12.56, sigma_s=1.03, sigma_l=0.25, rho=-0.11),
            curve=ForwardCurve.flat(40.0),
            spikes=SpikeParams(35.0, 21_000.0, SignedExponentialMixture((0.4, 0.6), (1 / 30, 1 / 60), (-1, 1))),
            grid=grid,
            exercise_times=grid.times()[1:],
            strikes=strikes,
            num_sims=sims,
            master_seed=seed,
        )

    def test_absurd_strike_has_no_premium(self):
        rows = run_pricing_study(self.make_config((1e6,)))
        row = rows[0]
        assert row.without_spikes.estimate == 0.0
        assert row.with_spikes.estimate == pytest.approx(0.0, abs=1e-9)
        assert row.spike_premium == pytest.approx(0.0, abs=1e-9)

    def test_high_strike_premium_positive(self):
        rows = run_pricing_study(self.make_config((150.0,), sims=2_000))
        row = rows[0]
        assert row.without_spikes.estimate == pytest.approx(0.0, abs=1e-6)
        assert row.with_spikes.estimate > 0.0
        assert row.spike_premium > 0.0

    def test_same_seed_is_reproducible(self):
        config = self.make_config((40.0, 100.0))
        assert run_pricing_study(config) == run_pricing_study(config)

    def test_prices_monotone_across_strikes(self):
        rows = run_pricing_study(self.make_config((20.0, 40.0, 80.0, 160.0)))
        with_prices = [row.with_spikes.estimate for row in rows]
        without_prices = [row.without_spikes.estimate for row in rows]
        assert with_prices == sorted(with_prices, reverse=True)
        assert without_prices == sorted(without_prices, reverse=True)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_rows_equal_pricing_each_strike_alone(self, antithetic):
        # one ensemble per setting is pure reuse: every price is bit for bit
        # what price_strip_mc gives for that strike on the same stream
        # (1100 paths make two full batches and a partial one)
        config = replace(self.make_config((20.0, 40.0, 80.0), sims=1_100), antithetic=antithetic)
        rows = run_pricing_study(config)
        assert [row.strike for row in rows] == [20.0, 40.0, 80.0]
        for row in rows:
            for key, spikes, price in ((0, None, row.without_spikes), (0, config.spikes, row.with_spikes)):
                alone = price_strip_mc(
                    config.two_factor,
                    config.curve,
                    spikes,
                    config.grid,
                    config.exercise_times,
                    row.strike,
                    config.num_sims,
                    make_rng(child_seed(config.master_seed, key)),
                    antithetic=antithetic,
                )
                assert price == alone
            assert row.spike_premium == row.with_spikes.estimate - row.without_spikes.estimate

    def test_repeated_strike_rejected(self):
        with pytest.raises(ValueError, match=r"^strike 40.0 is repeated$"):
            self.make_config((40.0, 60.0, 40.0))

    def test_csv_output(self, tmp_path):
        rows = run_pricing_study(self.make_config((40.0,)))
        out = tmp_path / "pricing.csv"
        pricing_rows_to_csv(rows, str(out))
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("strike,")

    def test_absurd_strike_premium_ci_is_exactly_zero(self):
        row = run_pricing_study(self.make_config((1e6,)))[0]
        assert row.premium_stderr == 0.0
        assert row.premium_ci95 == (0.0, 0.0)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_paired_premium_ci_is_narrower(self, antithetic):
        config = replace(self.make_config((40.0,)), antithetic=antithetic)
        row = run_pricing_study(config)[0]
        # centred on the premium, the price difference, not on the mean difference
        assert row.premium_ci95 == pricing.ci95(row.spike_premium, row.premium_stderr)
        assert 0.0 < row.premium_stderr < np.hypot(row.with_spikes.stderr, row.without_spikes.stderr)

    def test_one_factor_ensemble_serves_both_settings(self, monkeypatch):
        walks = []
        factor_chunks = simulate._factor_chunks

        def counted(params, grid, rng, paths, width):
            walks.append(paths)
            return factor_chunks(params, grid, rng, paths, width)

        monkeypatch.setattr(simulate, "_factor_chunks", counted)
        run_pricing_study(self.make_config((40.0,), sims=1_100))
        # each batch's factors are drawn once and serve both settings
        assert walks == [512, 512, 76]

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_rows_do_not_depend_on_the_chunk_length(self, antithetic, monkeypatch):
        # n = 100 is a multiple of none of the chunk lengths 7, 64 and 1000;
        # 64 paths make one batch, so the chunk length is entries / 64
        grid = GridSpec(100, 1.0)
        config = replace(
            self.make_config((20.0, 40.0, 80.0), sims=64),
            grid=grid,
            exercise_times=grid.times()[1:],
            antithetic=antithetic,
        )
        rows = []
        for length in (1, 7, 64, 1_000):
            monkeypatch.setattr(simulate, "_CHUNK_ENTRIES", 64 * length)
            rows.append(run_pricing_study(config))
        assert rows[0][0].with_spikes.estimate > rows[0][0].without_spikes.estimate > 0.0
        assert all(other == rows[0] for other in rows[1:])

    def test_csv_premium_ci_columns(self, tmp_path):
        rows = run_pricing_study(self.make_config((40.0,)))
        out = tmp_path / "pricing.csv"
        pricing_rows_to_csv(rows, str(out))
        header, line = out.read_text().strip().splitlines()
        assert header.endswith(",spike_premium,premium_ci_lo,premium_ci_hi")
        assert [float(x) for x in line.split(",")[-2:]] == list(rows[0].premium_ci95)
