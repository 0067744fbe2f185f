"""CSV ingestion rules and the command-line surface."""

import contextlib
import csv
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from spikelab import cli, config
from spikelab.cli import (
    GAP_FFILL1,
    DEDUP_KEEP_FIRST,
    IngestError,
    IngestRules,
    build_parser,
    dispatch,
    load_spot_csv,
)
from spikelab.detect import DetectionConfig, detect_jumps
from spikelab.config import load_config, build_model
from spikelab.simulate import make_rng, simulate_spot

MODEL_CFG = """
# estimation study model
lambda = 10
beta = 200
jump.weights = 0.4, 0.6
jump.rates = 0.0666666666666667, 0.1
jump.signs = -1, 1
cont.kind = expou
cont.kappa = 100
cont.vol = 2
cont.initial = 1
grid.n = 10000
grid.horizon = 1
"""

TWO_FACTOR_CFG = """
lambda = 35
beta = 21000
jump.weights = 0.4, 0.6
jump.rates = 0.0333333333333333, 0.0166666666666667
jump.signs = -1, 1
cont.kind = twofactor
cont.alpha = 12.56
cont.sigma_s = 1.03
cont.sigma_l = 0.25
cont.rho = -0.11
cont.curve_level = 40
grid.n = 100
grid.horizon = 1
"""


@pytest.fixture
def model_config(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(MODEL_CFG)
    return str(path)


@pytest.fixture
def two_factor_config(tmp_path):
    path = tmp_path / "tf.cfg"
    path.write_text(TWO_FACTOR_CFG)
    return str(path)


def write_csv(tmp_path, rows, header="t,price"):
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


class TestIngest:
    def test_three_hourly_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            [
                "2016-01-01T00:00:00,30.0",
                "2016-01-01T01:00:00,31.5",
                "2016-01-01T02:00:00,29.0",
            ],
        )
        series, report = load_spot_csv(path, IngestRules())
        assert series.grid.n == 2
        assert series.grid.mesh == 0.5
        assert report.span == pytest.approx(7200.0)
        assert report.calendar_timestamps
        assert np.array_equal(series.values, [30.0, 31.5, 29.0])

    def test_numeric_timestamps(self, tmp_path):
        path = write_csv(tmp_path, ["0,1.0", "3600,1.5", "7200,2.0"])
        series, report = load_spot_csv(path, IngestRules())
        assert not report.calendar_timestamps
        assert report.step == 3600.0

    def test_single_gap_forward_filled(self, tmp_path):
        path = write_csv(tmp_path, ["0,1.0", "1,2.0", "3,4.0"])
        series, report = load_spot_csv(path, IngestRules(gap_policy=GAP_FFILL1))
        assert series.grid.n == 3
        assert np.array_equal(series.values, [1.0, 2.0, 2.0, 4.0])
        assert report.filled_timestamps == (2.0,)

    def test_single_gap_rejected_by_default(self, tmp_path):
        path = write_csv(tmp_path, ["0,1.0", "1,2.0", "3,4.0"])
        with pytest.raises(IngestError, match="missing"):
            load_spot_csv(path, IngestRules())

    def test_double_gap_always_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["0,1.0", "1,2.0", "4,4.0", "5,5.0"])
        with pytest.raises(IngestError, match="gap of 3 steps"):
            load_spot_csv(path, IngestRules(gap_policy=GAP_FFILL1))

    def test_non_monotone_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["0,1.0", "2,2.0", "1,3.0", "3,4.0"])
        with pytest.raises(IngestError, match="non-monotone"):
            load_spot_csv(path, IngestRules())

    def test_duplicates_kept_first(self, tmp_path):
        path = write_csv(tmp_path, ["0,1.0", "1,2.0", "1,99.0", "2,3.0"])
        series, report = load_spot_csv(path, IngestRules(dedup_policy=DEDUP_KEEP_FIRST))
        assert report.duplicates_dropped == 1
        assert np.array_equal(series.values, [1.0, 2.0, 3.0])

    def test_irregular_spacing_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["0,1.0", "1,2.0", "2.5,3.0"])
        with pytest.raises(IngestError, match="irregular"):
            load_spot_csv(path, IngestRules(expected_step=1.0))

    def test_named_columns(self, tmp_path):
        path = write_csv(tmp_path, ["1,0,10.0", "2,3600,11.0", "3,7200,12.0"], header="row,stamp,px")
        series, _ = load_spot_csv(
            path, IngestRules(timestamp_column="stamp", price_column="px")
        )
        assert np.array_equal(series.values, [10.0, 11.0, 12.0])


class TestConfig:
    def test_model_round_trip(self, model_config):
        cfg = load_config(model_config)
        model = build_model(cfg)
        assert model.spikes.intensity == 10.0
        assert model.spikes.reversion == 200.0
        assert model.continuous.reversion == 100.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lambda = 10\nbogus.key = 3\n")
        with pytest.raises(ValueError, match="bogus.key"):
            load_config(str(path))


class TestDispatch:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            dispatch(["--help"])
        assert info.value.code == 0
        assert "spikelab" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            dispatch(["estimate", "--nonsense"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["detect", "estimate"])
    def test_min_gap_is_not_a_flag(self, command, capsys):
        # detection is the two modes alone: there is no post-filter to select
        with pytest.raises(SystemExit) as info:
            dispatch([command, "--in", "x.csv", "--min-gap", "5"])
        assert info.value.code == 2
        assert "unrecognized arguments: --min-gap 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "m.cfg", "--out", "sim.csv"],
            ["detect", "--in", "x.csv"],
            ["estimate", "--in", "x.csv"],
            ["price-forward", "--config", "m.cfg", "--t", "0", "--T", "1"],
            ["price-strip", "--config", "m.cfg", "--strike", "40"],
            ["study-estimation", "--config", "m.cfg", "--out", "out"],
            ["study-pricing", "--config", "m.cfg", "--out", "out"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_subcommand_accepts_json(self, argv):
        assert not build_parser().parse_args(argv).json
        assert build_parser().parse_args([*argv, "--json"]).json

    @pytest.mark.parametrize("command", ["detect", "estimate", "study-estimation"])
    def test_detection_flags_default_to_the_detection_config(self, tmp_path, capsys, monkeypatch, command):
        built = []
        monkeypatch.setattr(cli, "detect_jumps", lambda path, config: built.append(config) or detect_jumps(path, config))
        monkeypatch.setattr(cli, "run_estimation_study", lambda study, workers: built.append(study.detection) or [])
        cfg = tmp_path / "study.cfg"
        cfg.write_text(MODEL_CFG + "study.pairs = 10:200\n")
        path = write_csv(tmp_path, [f"{t},{30.0 + t % 2}" for t in range(30)])
        if command == "study-estimation":
            argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        else:
            argv = [command, "--in", path]
        assert dispatch(argv) == 0
        assert built == [DetectionConfig()]

    def test_study_workers_below_one_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(MODEL_CFG + "study.pairs = 10:200\n")
        status = dispatch(
            ["study-estimation", "--config", str(cfg_path), "--reps", "2", "--workers", "0", "--out", str(tmp_path / "out")]
        )
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert captured.err == "spikelab: workers must be at least 1, got 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("years", ["-1", "nan", "inf", "0"])
    def test_bad_horizon_years_exits_one(self, tmp_path, capsys, years):
        path = write_csv(tmp_path, [f"{t},{30.0 + t % 2}" for t in range(10)])
        status = dispatch(["estimate", "--in", path, f"--horizon-years={years}", "--json"])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert captured.err == f"spikelab: --horizon-years must be positive and finite, got {float(years)!r}\n"

    @pytest.mark.parametrize(
        "config_text, argv, message",
        [
            pytest.param(
                MODEL_CFG.replace("jump.rates = 0.0666666666666667, 0.1", "jump.rates = nan, 10"),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01", "--json"],
                "rates must be positive and finite, got (nan, 10.0)",
                id="nan-rate",
            ),
            pytest.param(
                # 10^15 + 1 float64 values, 7.1 PiB: beyond any user address space, so it fails at once
                MODEL_CFG.replace("grid.n = 10000", "grid.n = 1000000000000000"),
                ["simulate", "--config", "{cfg}", "--out", "{tmp}/sim.csv"],
                "Unable to allocate 7.11 PiB",
                id="grid-too-large-for-memory",
            ),
            pytest.param(
                MODEL_CFG + "study.pairs = 10:200\n",
                ["study-estimation", "--config", "{cfg}", "--reps", "2", "--modes", "plain,bogus", "--out", "{tmp}/out"],
                "unknown mode 'bogus'",
                id="unknown-mode",
            ),
            pytest.param(
                MODEL_CFG.replace("beta = 200\n", ""),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "missing required config key 'beta'",
                id="missing-config-key",
            ),
            pytest.param(
                MODEL_CFG,
                ["estimate", "--in", "{csv}", "--horizon-years", "-1"],
                "--horizon-years must be positive and finite, got -1.0",
                id="negative-horizon-years",
            ),
            pytest.param(
                MODEL_CFG + "lambda 10\n",
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "expected 'key = value', got 'lambda 10'",
                id="line-without-equals",
            ),
            pytest.param(
                MODEL_CFG.replace("jump.weights = 0.4, 0.6\n", ""),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "missing required config key 'jump.weights'",
                id="missing-list-key",
            ),
            pytest.param(
                MODEL_CFG.replace("jump.rates = 0.0666666666666667, 0.1", "jump.rates = a, b"),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "bad numeric list 'a, b'",
                id="bad-numeric-list",
            ),
            pytest.param(
                MODEL_CFG.replace("lambda = 10", "lambda = ten"),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "bad number for 'lambda': 'ten'",
                id="bad-number",
            ),
            pytest.param(
                MODEL_CFG.replace("grid.n = 10000", "grid.n = 1.5"),
                ["simulate", "--config", "{cfg}", "--out", "{tmp}/sim.csv"],
                "bad integer for 'grid.n': '1.5'",
                id="bad-grid-n",
            ),
            pytest.param(
                MODEL_CFG.replace("grid.horizon = 1", "grid.horizon = 0"),
                ["simulate", "--config", "{cfg}", "--out", "{tmp}/sim.csv"],
                "horizon must be positive and finite, got 0.0",
                id="zero-horizon",
            ),
            pytest.param(
                MODEL_CFG + "jump.kind = empirical\n",
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "empirical law needs jump.samples or jump.samples_file",
                id="empirical-without-samples",
            ),
            pytest.param(
                MODEL_CFG + "jump.kind = gamma\n",
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "unknown jump.kind 'gamma'",
                id="unknown-jump-kind",
            ),
            pytest.param(
                MODEL_CFG + "jump.kind = pointmass\njump.size = 0\n",
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "samples must be finite and nonzero",
                id="point-mass-at-zero",
            ),
            pytest.param(
                MODEL_CFG.replace("cont.kind = expou", "cont.kind = heston"),
                ["simulate", "--config", "{cfg}", "--out", "{tmp}/sim.csv"],
                "unknown cont.kind 'heston'",
                id="unknown-cont-kind",
            ),
            pytest.param(
                MODEL_CFG + "study.pairs = 10-200\n",
                ["study-estimation", "--config", "{cfg}", "--reps", "2", "--out", "{tmp}/out"],
                "bad study pair '10-200'; expected 'lambda:beta'",
                id="study-pair-without-colon",
            ),
            pytest.param(
                MODEL_CFG + "study.pairs = 10:x\n",
                ["study-estimation", "--config", "{cfg}", "--reps", "2", "--out", "{tmp}/out"],
                "bad study pair '10:x'",
                id="study-pair-not-a-number",
            ),
            pytest.param(
                MODEL_CFG + "study.pairs = ,\n",
                ["study-estimation", "--config", "{cfg}", "--reps", "2", "--out", "{tmp}/out"],
                "study.pairs is empty",
                id="empty-study-pairs",
            ),
            pytest.param(
                MODEL_CFG.replace("lambda = 10", "lambda = -1"),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "intensity must be positive and finite, got -1.0",
                id="negative-lambda",
            ),
            pytest.param(
                MODEL_CFG.replace("beta = 200", "beta = inf"),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "reversion must be positive and finite, got inf",
                id="infinite-beta",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("cont.rho = -0.11", "cont.rho = 1.5"),
                ["price-strip", "--config", "{cfg}", "--strike", "40", "--sims", "4"],
                "correlation must lie in [-1, 1], got 1.5",
                id="rho-outside-unit-interval",
            ),
            pytest.param(
                MODEL_CFG,
                ["estimate", "--in", "{csv}", "--C", "0"],
                "threshold constant must be positive and finite, got 0.0",
                id="zero-threshold-constant",
            ),
            pytest.param(
                MODEL_CFG,
                ["detect", "--in", "{csv}", "--varpi", "0.6"],
                "exponent must lie in [0, 1/2), got 0.6",
                id="varpi-above-half",
            ),
            pytest.param(
                MODEL_CFG,
                ["detect", "--in", "{csv}", "--mpv-order", "1"],
                "multipower order must be >= 2, got 1",
                id="multipower-order-one",
            ),
            pytest.param(
                MODEL_CFG,
                ["price-forward", "--config", "{cfg}", "--t", "nan", "--T", "0.01", "--json"],
                "valuation time t must be finite, got nan",
                id="nan-valuation-time",
            ),
            pytest.param(
                MODEL_CFG,
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01", "--z-now", "inf", "--json"],
                "spike level z_now must be finite, got inf",
                id="infinite-spike-level",
            ),
            pytest.param(
                MODEL_CFG.replace("jump.rates = 0.0666666666666667, 0.1", "jump.rates = 15, 10"),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "nan", "--log-model"],
                "maturity T must be finite, got nan",
                id="nan-maturity-log-model",
            ),
            pytest.param(
                MODEL_CFG.replace("jump.signs = -1, 1", "jump.signs = -1.7, 1.2"),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "signs must be +-1, got (-1.7, 1.2)",
                id="fractional-signs",
            ),
            pytest.param(
                MODEL_CFG.replace("jump.signs = -1, 1", "jump.signs = nan, 1"),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.01"],
                "signs must be +-1, got (nan, 1.0)",
                id="nan-sign",
            ),
            pytest.param(
                MODEL_CFG,
                ["estimate", "--in", "{csv}", "--step", "inf"],
                "expected_step must be positive and finite, got inf",
                id="infinite-step",
            ),
            pytest.param(
                MODEL_CFG + "study.pairs = 10:200\n",
                ["study-estimation", "--config", "{cfg}", "--reps", "2", "--out", "{tmp}/out", "--modes", "plain,plain"],
                "mode 'plain' is repeated",
                id="repeated-mode",
            ),
            pytest.param(
                TWO_FACTOR_CFG,
                ["study-pricing", "--config", "{cfg}", "--sims", "4", "--out", "{tmp}/out", "--strikes", ""],
                "--strikes must be comma-separated numbers, got ''",
                id="empty-strikes",
            ),
            pytest.param(
                TWO_FACTOR_CFG,
                ["study-pricing", "--config", "{cfg}", "--sims", "4", "--out", "{tmp}/out", "--strikes", "100,,200"],
                "--strikes must be comma-separated numbers, got '100,,200'",
                id="empty-strike-between-commas",
            ),
            pytest.param(
                TWO_FACTOR_CFG,
                ["study-pricing", "--config", "{cfg}", "--sims", "4", "--out", "{tmp}/out", "--strikes", "100,100"],
                "strike 100.0 is repeated",
                id="repeated-strike",
            ),
            pytest.param(
                MODEL_CFG,
                ["estimate", "--in", "{csv}", "--C", "inf", "--json"],
                "threshold constant must be positive and finite, got inf",
                id="infinite-threshold-constant",
            ),
            pytest.param(
                MODEL_CFG,
                ["estimate", "--in", "{csv}", "--C", "1e308", "--json"],
                "threshold at C = 1e+308 must be positive and finite, got inf",
                id="threshold-overflows",
            ),
            pytest.param(
                MODEL_CFG,
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.05", "--theta", "inf", "--json"],
                "delivery period must be positive and finite, got inf",
                id="infinite-delivery-period",
            ),
            pytest.param(
                MODEL_CFG,
                # C = 0.01 flags every increment, so lambda_hat is positive and its per-year rate overflows
                ["estimate", "--in", "{csv}", "--C", "0.01", "--horizon-years", "1e-310", "--json"],
                "per-year lambda_hat over 1e-310 years must be finite, got inf",
                id="per-year-rate-overflows",
            ),
            pytest.param(
                MODEL_CFG + "study.pairs = 10:200\n",
                ["study-estimation", "--config", "{cfg}", "--reps", "2", "--out", "{tmp}/out", "--modes", ""],
                "unknown mode ''",
                id="empty-modes",
            ),
            pytest.param(
                MODEL_CFG,
                ["estimate", "--in", "{csv}", "--step", "1e-320"],
                "irregular spacing 1.0 after row 1 (t=0.0); expected multiples of 1e-320",
                id="subnormal-step",
            ),
            pytest.param(
                TWO_FACTOR_CFG,
                ["price-strip", "--config", "{cfg}", "--sims", "8", "--strike=-1e307"],
                "strike -1e+307 makes the strip payoff sums overflow a float",
                id="strike-overflows-payoff",
            ),
            pytest.param(
                TWO_FACTOR_CFG,
                ["study-pricing", "--config", "{cfg}", "--sims", "8", "--out", "{tmp}/out", "--strikes=-1e307"],
                "strike -1e+307 makes the strip payoff sums overflow a float",
                id="study-strike-overflows-payoff",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("cont.sigma_l = 0.25", "cont.sigma_l = 2e154"),
                ["simulate", "--config", "{cfg}", "--out", "{tmp}/sim.csv"],
                "sigma_l 2e+154 and sigma_s 1.03 make the two-factor log-variance overflow a float",
                id="long-factor-volatility-overflows",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("cont.sigma_s = 1.03", "cont.sigma_s = 2e154"),
                ["price-strip", "--config", "{cfg}", "--sims", "8", "--strike", "40"],
                "sigma_l 0.25 and sigma_s 2e+154 make the two-factor log-variance overflow a float",
                id="short-factor-volatility-overflows",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("cont.sigma_l = 0.25", "cont.sigma_l = 2e154"),
                ["study-pricing", "--config", "{cfg}", "--sims", "8", "--out", "{tmp}/out"],
                "sigma_l 2e+154 and sigma_s 1.03 make the two-factor log-variance overflow a float",
                id="study-factor-volatility-overflows",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("cont.alpha = 12.56", "cont.alpha = 1e308"),
                ["price-strip", "--config", "{cfg}", "--sims", "8", "--strike", "40"],
                "alpha 1e+308 makes the two-factor log-variance overflow a float",
                id="factor-reversion-overflows",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("cont.alpha = 12.56", "cont.alpha = 1e308"),
                ["study-pricing", "--config", "{cfg}", "--sims", "8", "--out", "{tmp}/out"],
                "alpha 1e+308 makes the two-factor log-variance overflow a float",
                id="study-factor-reversion-overflows",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("0.0333333333333333, 0.0166666666666667", "1e-300, 1e-300"),
                ["price-strip", "--config", "{cfg}", "--strike", "40", "--sims", "8"],
                "make the price or its variance overflow a float",
                id="huge-jumps-overflow-payoff-variance",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("cont.curve_level = 40", "cont.curve_level = 1e300"),
                ["price-strip", "--config", "{cfg}", "--strike", "40", "--sims", "8"],
                "make the price or its variance overflow a float",
                id="huge-curve-overflows-payoff-variance",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("grid.horizon = 1", "grid.horizon = 1e308"),
                ["price-strip", "--config", "{cfg}", "--strike", "40", "--sims", "8"],
                "horizon 1e+308 makes the two-factor log-variance overflow a float",
                id="horizon-overflows-log-variance",
            ),
            pytest.param(
                MODEL_CFG.replace("cont.vol = 2", "cont.vol = 1e20"),
                ["simulate", "--config", "{cfg}", "--out", "{tmp}/sim.csv"],
                "the exp-OU path with vol 1e+20 overflows a float",
                id="exp-ou-path-overflows",
            ),
            pytest.param(
                MODEL_CFG.replace("grid.horizon = 1", "grid.horizon = 1e308"),
                ["simulate", "--config", "{cfg}", "--out", "{tmp}/sim.csv"],
                "intensity 10.0 times horizon 1e+308 asks for over 1e18 jumps a path",
                id="jump-count-too-large",
            ),
            pytest.param(
                MODEL_CFG.replace("cont.vol = 2", "cont.vol = 1e308"),
                ["simulate", "--config", "{cfg}", "--out", "{tmp}/sim.csv"],
                "vol 1e+308 makes the exp-OU log-variance overflow a float",
                id="exp-ou-log-variance-overflows",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("cont.curve_level = 40", "cont.curve_level = 1e308"),
                ["price-strip", "--config", "{cfg}", "--strike", "40", "--sims", "8"],
                "curve level 1e+308 makes the two-factor spot overflow a float",
                id="curve-level-overflows-spot",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("cont.curve_level = 40", "cont.curve_level = 1e307"),
                ["price-strip", "--config", "{cfg}", "--strike", "40", "--sims", "8"],
                "payoffs up to inf make the price or its variance overflow a float",
                id="curve-level-overflows-payoff-sums",
            ),
            pytest.param(
                MODEL_CFG.replace("cont.initial = 1", "cont.initial = 1e308") + "study.pairs = 10:200\n",
                ["study-estimation", "--config", "{cfg}", "--reps", "2", "--out", "{tmp}/out"],
                "make the multipower variation overflow a float",
                id="multipower-variation-overflows",
            ),
            pytest.param(
                # every value is parsed at load, so a bad one fails in a key the command does not read
                TWO_FACTOR_CFG + "cont.kappa = abc\n",
                ["price-strip", "--config", "{cfg}", "--strike", "40", "--sims", "8"],
                "model.cfg:15: bad number for 'cont.kappa': 'abc'",
                id="bad-value-in-unread-key",
            ),
            pytest.param(
                # lam m1 / beta is inf and 1 - exp(-beta (T - t)) is 0
                TWO_FACTOR_CFG.replace("beta = 21000", "beta = 1e-310"),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.05"],
                "spike forward correction at reversion 1e-310 must be finite, got nan",
                id="tiny-reversion-instant-forward",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("beta = 21000", "beta = 1e-310"),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.05", "--theta", "0.02"],
                "spike forward correction at reversion 1e-310 must be finite, got nan",
                id="tiny-reversion-delivery-forward",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("beta = 21000", "beta = 1e-310"),
                ["price-forward", "--config", "{cfg}", "--t", "0", "--T", "0.05", "--json"],
                "spike forward correction at reversion 1e-310 must be finite, got nan",
                id="tiny-reversion-forward-json",
            ),
            pytest.param(
                MODEL_CFG.replace("beta = 200", "beta = 0.001").replace("grid.n = 10000", "grid.n = 4")
                + "jump.kind = pointmass\njump.size = 1e308\n",
                ["simulate", "--config", "{cfg}", "--out", "{tmp}/sim.csv"],
                "jump sizes up to 1e+308 with reversion 0.001 make the spike process overflow a float",
                id="spike-process-overflows",
            ),
            pytest.param(
                TWO_FACTOR_CFG.replace("beta = 21000", "beta = 0.001") + "jump.kind = pointmass\njump.size = 1e308\n",
                ["price-strip", "--config", "{cfg}", "--strike", "40", "--sims", "8"],
                "jump sizes up to 1e+308 with reversion 0.001 make the spike process overflow a float",
                id="strip-spike-process-overflows",
            ),
        ],
    )
    def test_bad_input_fails_in_one_line(self, tmp_path, capsys, config_text, argv, message):
        (tmp_path / "model.cfg").write_text(config_text)
        files = {"cfg": tmp_path / "model.cfg", "csv": write_csv(tmp_path, [f"{t},{30.0 + t % 2}" for t in range(30)])}
        status = dispatch([arg.format(tmp=tmp_path, **files) for arg in argv])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert captured.err.startswith("spikelab: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and message in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "expected one number a line and at least one line"),
            ("1.5\nt\n", "could not convert string 't'"),
            ("0.5\nnan\n", "numbers must be finite, got nan"),
            ("0.5\ninf\n", "numbers must be finite, got inf"),
        ],
        ids=["empty", "non-numeric", "nan", "inf"],
    )
    @pytest.mark.parametrize("source", ["exercises", "samples-file"])
    def test_bad_number_file_fails_in_one_line_naming_it(self, tmp_path, capsys, source, text, message):
        numbers = tmp_path / "numbers.txt"
        numbers.write_text(text)
        cfg = tmp_path / "model.cfg"
        if source == "exercises":
            cfg.write_text(TWO_FACTOR_CFG)
            argv = ["price-strip", "--config", str(cfg), "--strike", "40", "--sims", "4", "--exercises", f"csv:{numbers}"]
        else:
            cfg.write_text(MODEL_CFG.replace("jump.weights", f"jump.kind = empirical\njump.samples_file = {numbers}\n#"))
            argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-file warning would reach stderr
            status = dispatch(argv)
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert captured.err.startswith(f"spikelab: {numbers}: {message}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["price-strip", "study-pricing"])
    def test_antithetic_single_pair_exits_one(self, two_factor_config, tmp_path, capsys, command):
        extra = ["--strike", "40"] if command == "price-strip" else ["--out", str(tmp_path / "out")]
        status = dispatch([command, "--config", two_factor_config, "--sims", "2", "--antithetic", *extra])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert captured.err == "spikelab: antithetic pricing needs at least 4 simulations (2 pairs), got 2\n"

    @pytest.mark.parametrize("indent", [None, 2])
    def test_json_refusal_names_the_first_non_finite_key(self, indent):
        # the last resort behind every named check: the line names the key, in nested lists too
        record = [{"sims": 8, "ci95": [0.5, float("-inf")], "stderr": float("nan")}]
        with pytest.raises(ValueError, match=r'^JSON value "ci95" must be finite, got -Infinity$'):
            cli._json(record, indent)

    def test_missing_file_exits_one(self, capsys):
        status = dispatch(["estimate", "--in", "does-not-exist.csv"])
        assert status == 1
        assert "spikelab:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stamps, extra, count",
        [(["5", "5", "5"], [], 1), (["5", "5", "5"], ["--step", "1"], 1), (["5", "5", "6"], [], 2)],
    )
    def test_too_few_distinct_timestamps_exits_one(self, tmp_path, capsys, stamps, extra, count):
        path = write_csv(tmp_path, [f"{t},{i}.0" for i, t in enumerate(stamps)])
        status = dispatch(["estimate", "--in", path, "--dedup-policy", "keep-first", *extra])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert captured.err == f"spikelab: {path}: {count} distinct timestamps make a grid of fewer than 2 steps\n"

    def test_simulate_round_trip_values_bit_identical(self, model_config, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert dispatch(["simulate", "--config", model_config, "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()

        cfg = load_config(model_config)
        sim = simulate_spot(build_model(cfg), __import__("spikelab").GridSpec(10_000, 1.0), make_rng(7))
        series, _ = load_spot_csv(str(out), IngestRules())
        assert np.array_equal(series.values, sim.observed.values)

    def test_estimate_pipeline_recovers_table_ranges(self, model_config, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        dispatch(["simulate", "--config", model_config, "--seed", "2024", "--out", str(out)])
        capsys.readouterr()
        status = dispatch(
            [
                "estimate",
                "--in",
                str(out),
                "--mode",
                "signfiltered",
                "--C",
                "5",
                "--varpi",
                "0.01",
                "--json",
            ]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert 5 <= payload["lambda_hat"] <= 14
        assert 185 <= payload["beta_hat"] <= 225

    def test_detect_json(self, model_config, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        dispatch(["simulate", "--config", model_config, "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        assert dispatch(["detect", "--in", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["indices"])
        assert payload["mode"] == "signfiltered"

    def test_price_forward(self, model_config, capsys):
        status = dispatch(
            ["price-forward", "--config", model_config, "--t", "0", "--T", "0.05", "--json"]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "instant"
        assert payload["value"] == pytest.approx(
            10.0 * (-0.4 * 15 + 0.6 * 10) / 200.0 * (1 - np.exp(-10.0)), rel=1e-9
        )

    @pytest.mark.parametrize(
        "law_lines,name",
        [
            ("jump.kind = pointmass\njump.size = 1000", "empirical law (size 1000.0)"),
            ("jump.kind = pointmass\njump.size = 600", "(jump law Empirical)"),
            ("jump.kind = empirical\njump.samples = 1000, 2", "empirical"),
        ],
    )
    def test_price_forward_log_overflow_fails_in_one_line(self, tmp_path, capsys, law_lines, name):
        path = tmp_path / "law.cfg"
        path.write_text(f"lambda = 10\nbeta = 200\n{law_lines}\n")
        argv = ["price-forward", "--config", str(path), "--t", "0", "--T", "0.05", "--log-model"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would escape to stderr
            status = dispatch(argv)
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("spikelab: ") and captured.err.count("\n") == 1
        assert name in captured.err

    def test_price_strip_outputs_json(self, two_factor_config, capsys):
        status = dispatch(
            [
                "price-strip",
                "--config",
                two_factor_config,
                "--strike",
                "1000000",
                "--sims",
                "200",
                "--seed",
                "1",
            ]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimate"] == 0.0
        assert payload["sims"] == 200

    def test_price_strip_exercises_from_csv(self, two_factor_config, tmp_path, capsys):
        times = tmp_path / "times.txt"
        times.write_text("0.25\n0.5\n0.75\n")
        status = dispatch(
            [
                "price-strip",
                "--config",
                two_factor_config,
                "--strike",
                "20",
                "--exercises",
                f"csv:{times}",
                "--sims",
                "400",
                "--seed",
                "2",
            ]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        # three near-ATM exercises on a level-40 curve: price is near 3 * 20
        assert 40 < payload["estimate"] < 80

    def test_study_pricing_reports_premium_ci(self, two_factor_config, tmp_path, capsys):
        out_dir = tmp_path / "out"
        status = dispatch(
            [
                "study-pricing",
                "--config",
                two_factor_config,
                "--strikes",
                "40,1000000",
                "--sims",
                "200",
                "--seed",
                "3",
                "--out",
                str(out_dir),
                "--json",
            ]
        )
        assert status == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == json.loads((out_dir / "pricing_study.json").read_text())
        lines = list(csv.reader((out_dir / "pricing_study.csv").read_text().splitlines()))
        flattened = [
            [r["strike"], r["without"]["estimate"], *r["without"]["ci95"], r["with"]["estimate"], *r["with"]["ci95"]]
            + [r["premium"], *r["premium_ci95"]]
            for r in rows
        ]
        assert lines[1:] == [[repr(value) for value in record] for record in flattened]
        assert [list(row) for row in rows] == [["strike", "without", "with", "premium", "premium_ci95"]] * 2
        lo, hi = rows[0]["premium_ci95"]
        assert lo < rows[0]["premium"] < hi
        assert rows[1]["premium_ci95"] == [0.0, 0.0]

    def test_study_estimation_writes_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(MODEL_CFG.replace("grid.n = 10000", "grid.n = 2000") + "study.pairs = 10:200\n")
        out_dir = tmp_path / "out"
        status = dispatch(
            [
                "study-estimation",
                "--config",
                str(cfg_path),
                "--reps",
                "2",
                "--seed",
                "5",
                "--out",
                str(out_dir),
            ]
        )
        assert status == 0
        assert (out_dir / "estimation_study.csv").exists()
        assert (out_dir / "estimation_study.json").exists()
        rows = json.loads((out_dir / "estimation_study.json").read_text())["rows"]
        assert len(rows) == 2


def estimate_text(payload):
    """The text form of ``estimate``: the --json values, rates to 6 and diagnostics to 4 significant digits."""
    lo, hi = payload["lambda_ci"]
    lines = [
        f"lambda_hat: {payload['lambda_hat']:.6g}  (95% CI {lo:.6g} .. {hi:.6g})",
        f"beta_hat: {payload['beta_hat']:.6g}",
        f"slope_hat: {payload['slope_hat']:.6g}",
    ]
    lines += [f"moment[{m}]: {'undefined' if v is None else f'{v:.6g}'}" for m, v in payload["moments"].items()]
    if "diagnostics" in payload:
        diag = payload["diagnostics"]
        lines += [
            f"bias_term: {diag['bias_term']:.4g}",
            "error_components: " + " ".join(f"{v:.4g}" for v in diag["error_components"]),
            f"relative_error_bound: {diag['relative_error_bound']:.4g}",
        ]
    flags = payload["flags"]
    named = [name for name in ("undefined", "floored") if flags[name]]
    named += [f"boundary_drops={flags['boundary_drops']}"] if flags["boundary_drops"] else []
    lines.append("flags: " + (", ".join(named) if named else "none"))
    if "per_year" in payload:
        rates = payload["per_year"]
        lines.append(f"per-year: lambda_hat {rates['lambda_hat']:.6g}, beta_hat {rates['beta_hat']:.6g}")
    return "\n".join(lines) + "\n"


class TestTextOutput:
    """Each subcommand's text output carries the values of its --json output."""

    @pytest.fixture
    def simulated(self, model_config, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        self.run(capsys, ["simulate", "--config", model_config, "--seed", "3", "--out", out])
        return out

    def run(self, capsys, argv):
        assert dispatch(argv) == 0
        return capsys.readouterr().out

    def test_simulate(self, model_config, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--config", model_config, "--seed", "3", "--out", str(out)]
        summary = json.loads(self.run(capsys, [*argv, "--json"]))
        assert summary == {"out": str(out), "truth": f"{out}.truth.csv", "n": 10_000, "jumps": summary["jumps"]}
        truth = (tmp_path / "sim.csv.truth.csv").read_text().splitlines()
        assert truth[0] == "t_jump,size" and len(truth) == summary["jumps"] + 1
        assert self.run(capsys, argv) == (
            f"wrote 10001 observations to {out} ({summary['jumps']} jumps, truth in {out}.truth.csv)\n"
        )

    def test_detect(self, simulated, tmp_path, capsys):
        payload = json.loads(self.run(capsys, ["detect", "--in", simulated, "--json"]))
        flagged = tmp_path / "flagged.csv"
        text = self.run(capsys, ["detect", "--in", simulated, "--out", str(flagged)])
        assert payload["count"] > 0
        assert text == (
            f"count: {payload['count']}\nsigma_hat: {payload['sigma_hat']:.6g}\n"
            f"threshold_abs: {payload['threshold_abs']:.6g}\nmode: {payload['mode']}\n"
            "indices: " + " ".join(str(i) for i in payload["indices"]) + "\n"
        )
        rows = list(csv.reader(flagged.read_text().splitlines()))
        series, _ = load_spot_csv(simulated, IngestRules())
        assert rows[0] == ["index", "increment"]
        assert [int(index) for index, _ in rows[1:]] == payload["indices"]
        want = series.increments()[np.asarray(payload["indices"]) - 1]
        assert [float(increment) for _, increment in rows[1:]] == want.tolist()

    def test_estimate_without_calendar(self, simulated, capsys):
        payload = json.loads(self.run(capsys, ["estimate", "--in", simulated, "--json"]))
        assert "per_year" not in payload
        assert self.run(capsys, ["estimate", "--in", simulated]) == estimate_text(payload)

    def test_estimate_per_year_from_horizon_years(self, simulated, capsys):
        payload = json.loads(self.run(capsys, ["estimate", "--in", simulated, "--horizon-years", "2", "--json"]))
        assert payload["per_year"] == {"lambda_hat": payload["lambda_hat"] / 2, "beta_hat": payload["beta_hat"] / 2}
        assert self.run(capsys, ["estimate", "--in", simulated, "--horizon-years", "2"]) == estimate_text(payload)

    def test_estimate_per_year_from_iso_stamps(self, simulated, tmp_path, capsys):
        series, _ = load_spot_csv(simulated, IngestRules())
        stamps = np.datetime64("2016-01-01T00:00:00") + np.arange(series.values.size) * np.timedelta64(1, "h")
        dated = write_csv(tmp_path, [f"{stamp},{value!r}" for stamp, value in zip(stamps, series.values.tolist())])
        payload = json.loads(self.run(capsys, ["estimate", "--in", dated, "--json"]))
        years = 10_000 * 3600 / (365.25 * 24 * 3600)
        assert payload["per_year"] == {
            "lambda_hat": payload["lambda_hat"] / years,
            "beta_hat": payload["beta_hat"] / years,
        }
        assert self.run(capsys, ["estimate", "--in", dated]) == estimate_text(payload)

    @pytest.mark.parametrize(
        "extra, kind",
        [([], "instant"), (["--theta", "0.02"], "delivery"), (["--log-model"], "log")],
    )
    def test_price_forward(self, tmp_path, capsys, extra, kind):
        path = tmp_path / "law.cfg"
        # rates above 1 keep the exponential moment finite for the log model
        path.write_text(MODEL_CFG.replace("jump.rates = 0.0666666666666667, 0.1", "jump.rates = 15, 10"))
        argv = ["price-forward", "--config", str(path), "--t", "0", "--T", "0.01", "--z-now", "0.3", *extra]
        payload = json.loads(self.run(capsys, [*argv, "--json"]))
        theta = 0.02 if kind == "delivery" else None
        assert payload == {"kind": kind, "value": payload["value"], "t": 0.0, "T": 0.01, "theta": theta}
        assert self.run(capsys, argv) == f"spike forward correction ({kind}): {payload['value']!r}\n"

    def test_study_estimation_json_is_the_summary_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(MODEL_CFG.replace("grid.n = 10000", "grid.n = 2000") + "study.pairs = 10:200\n")
        out_dir = tmp_path / "out"
        argv = ["study-estimation", "--config", str(cfg_path), "--reps", "2", "--seed", "5", "--out", str(out_dir)]
        payload = json.loads(self.run(capsys, [*argv, "--json"]))
        assert payload == json.loads((out_dir / "estimation_study.json").read_text())
        assert len(payload["rows"]) == 2

    def test_study_pricing_text_names_its_files(self, two_factor_config, tmp_path, capsys):
        out_dir = tmp_path / "out"
        text = self.run(
            capsys,
            ["study-pricing", "--config", two_factor_config, "--strikes", "40,60", "--sims", "8", "--out", str(out_dir)],
        )
        csv_path, json_path = out_dir / "pricing_study.csv", out_dir / "pricing_study.json"
        assert text == f"wrote {csv_path} and {json_path} (2 strikes)\n"
        assert len(json.loads(json_path.read_text())) == 2


# The CLI contract, generated from the parser and the config key table.
# argv for a subcommand takes every flag of its parser: each numeric flag one
# of the boundary values below, so a new flag is covered without editing this
# test; each text flag a value from the contract_inputs tables, which a new
# text flag must join.  The config it reads has up to two keys of the table
# set, each to a value from its parser's table, so a new key is covered too.
CONTRACT_FLOATS = ["0", "-1", "-0.0", "0.5", "3", "1e-310", "1e308", "-1e308", "inf", "-inf", "nan"]
CONTRACT_INTS = [0, -1, 1, 3, 2**31]
# the draws stay small: few processes, paths, replications and grid steps
CONTRACT_INT_CAPS = {"workers": 2, "sims": 256, "reps": 8, "grid.n": 2_000}


def contract_ints(name):
    cap = CONTRACT_INT_CAPS.get(name)
    return CONTRACT_INTS if cap is None else [v for v in CONTRACT_INTS if v < cap] + [cap]


def contract_config_values(key, text_values):
    """The values drawn for a config key, by the parser the key table gives it."""
    parser = config._KEYS[key]
    if parser in (config._number, config._numbers):
        return CONTRACT_FLOATS
    if parser is config._integer:
        return contract_ints(key)
    if parser is config._pairs:
        return [f"{lam}:{beta}" for lam in CONTRACT_FLOATS for beta in CONTRACT_FLOATS]
    if parser is config._kind:
        return [*config._KINDS[key], "bogus"]
    return text_values[key]


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """Small configs (exp-OU n = 2,000 and a two-factor grid of 48 steps), a simulated series and an exercise file."""
    root = tmp_path_factory.mktemp("contract")
    pairs = "study.pairs = 10:200\n"
    expou, two_factor = root / "expou.cfg", root / "twofactor.cfg"
    expou.write_text(MODEL_CFG.replace("grid.n = 10000", "grid.n = 2000") + pairs)
    two_factor.write_text(TWO_FACTOR_CFG.replace("grid.n = 100", "grid.n = 48") + pairs)
    (root / "exercises.txt").write_text("0.25\n0.5\n")
    series = str(root / "series.csv")
    assert dispatch(["simulate", "--config", str(expou), "--seed", "1", "--out", series]) == 0
    return {
        "config": [str(expou), str(two_factor)],
        "jump.samples_file": [str(root / "exercises.txt"), str(root / "missing.txt")],
        "infile": [series],
        "exercises": ["hourly", f"csv:{root / 'exercises.txt'}", "daily"],
        "strikes": ["30,40", "", "40,40", "-1e307", "nan"],
        "modes": ["plain", "signfiltered,plain", "", "bogus"],
        "time_col": ["t", "X", "missing"],
        "price_col": ["X", "t", "missing"],
    }


@st.composite
def contract_config(draw, base, text_values, out):
    """A copy of the config file ``base`` in ``out`` with up to two keys set, each value from its table."""
    keys = draw(st.lists(st.sampled_from(sorted(config._KEYS)), max_size=2, unique=True))
    with open(base) as handle:
        lines = [line for line in handle if line.split("=")[0].strip() not in keys]
    lines += [f"{key} = {draw(st.sampled_from(contract_config_values(key, text_values)))}\n" for key in keys]
    note(f"config: {base} with {lines[len(lines) - len(keys):]}")
    path = os.path.join(out, "contract.cfg")
    with open(path, "w") as handle:
        handle.writelines(lines)
    return path


@st.composite
def contract_argv(draw, text_values, out):
    """A subcommand's argv under --json: its required flags and up to two others, each value from its table."""
    subcommands = next(action for action in build_parser()._actions if action.dest == "command").choices
    command = draw(st.sampled_from(sorted(subcommands)))
    actions = [action for action in subcommands[command]._actions if action.dest not in ("help", "json")]
    optional = [action for action in actions if not action.required]
    chosen = draw(st.lists(st.sampled_from(optional), max_size=2, unique=True))
    argv = [command, "--json"]  # the text lines are built under --json too, so both outputs are checked
    for action in actions:
        flag = action.option_strings[-1]
        if not (action.required or action in chosen):
            continue
        if action.nargs == 0:
            argv.append(flag)
            continue
        if action.choices:
            values = action.choices
        elif action.type is float:
            values = CONTRACT_FLOATS
        elif action.type is int:
            values = contract_ints(action.dest)
        elif action.dest in ("out", "truth_out"):
            values = [os.path.join(out, action.dest)]
        else:
            values = text_values[action.dest]
        value = draw(st.sampled_from(values))
        if action.dest == "config":
            value = draw(contract_config(value, text_values, out))
        argv.append(f"{flag}={value}")  # '=' keeps a value like -inf from reading as a flag
    return argv


def reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


class TestContract:
    """Every exit 0 under --json prints strict JSON, every exit 1 one ``spikelab:`` line, and nothing warns."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_argv_keeps_the_contract(self, contract_inputs, data):
        with tempfile.TemporaryDirectory() as out:
            argv = data.draw(contract_argv(contract_inputs, out))
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")
                try:
                    status = dispatch(argv)
                except SystemExit as exc:
                    status = exc.code
                    assert status == 2 and "usage:" in stderr.getvalue()  # only argparse exits
        if status == 0:
            json.loads(stdout.getvalue().splitlines()[-1], parse_constant=reject_constant)
            assert stderr.getvalue() == ""
        elif status == 1:
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("spikelab: ") and stderr.getvalue().count("\n") == 1
        else:
            assert status == 2
