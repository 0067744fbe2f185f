"""CSV ingestion rules and the command-line surface."""

import json
import warnings

import numpy as np
import pytest

from spikelab.cli import (
    GAP_FFILL1,
    DEDUP_KEEP_FIRST,
    IngestError,
    IngestRules,
    dispatch,
    load_spot_csv,
)
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

    @pytest.mark.parametrize("command", ["price-strip", "study-pricing"])
    def test_antithetic_single_pair_exits_one(self, two_factor_config, tmp_path, capsys, command):
        extra = ["--strike", "40"] if command == "price-strip" else ["--out", str(tmp_path / "out")]
        status = dispatch([command, "--config", two_factor_config, "--sims", "2", "--antithetic", *extra])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert captured.err == "spikelab: antithetic pricing needs at least 4 simulations (2 pairs), got 2\n"

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

    def test_detect_min_gap_thins_flags(self, model_config, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        dispatch(["simulate", "--config", model_config, "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        dispatch(["detect", "--in", str(out), "--mode", "plain", "--json"])
        plain = json.loads(capsys.readouterr().out)
        dispatch(["detect", "--in", str(out), "--mode", "plain", "--min-gap", "5", "--json"])
        thinned = json.loads(capsys.readouterr().out)
        assert thinned["count"] <= plain["count"]
        assert all(b - a >= 5 for a, b in zip(thinned["indices"], thinned["indices"][1:]))

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
            ("jump.kind = pointmass\njump.size = 1000", "point mass"),
            ("jump.kind = pointmass\njump.size = 600", "PointMass"),
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
