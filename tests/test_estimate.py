"""Intensity, reversion and jump-moment estimators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikelab.detect import PLAIN, SIGN_FILTERED, DetectionConfig, DetectionReport, detect_jumps
from spikelab.estimate import (
    asymptotic_diagnostics,
    estimate_beta,
    estimate_jump_moments,
    estimate_lambda,
    estimate_spikes,
    oracle_estimate_beta,
)
from spikelab.model import GridSpec, SampledPath

from mc_oracles import oracle_slope_terms
from test_detect import decay_spike_path


def report_for(path, indices, mode=PLAIN, sigma=1.0, threshold=0.1):
    indices = np.asarray(indices, dtype=int)
    incr = path.increments()
    return DetectionReport(
        indices=indices,
        increments=incr[indices - 1] if indices.size else np.empty(0),
        count=int(indices.size),
        sigma_hat=sigma,
        threshold_abs=threshold,
        mode=mode,
    )


class TestLambda:
    GRID = GridSpec(100, 1.0)

    def test_zero_count(self):
        path = SampledPath(self.GRID, np.zeros(101))
        lam, ci = estimate_lambda(report_for(path, []), self.GRID)
        assert lam == 0.0
        assert ci[0] == 0.0
        assert ci[1] == pytest.approx(-math.log(0.025), rel=1e-12)

    def test_nine_detections(self):
        path = SampledPath(self.GRID, np.zeros(101))
        lam, ci = estimate_lambda(report_for(path, [5, 10, 15, 20, 25, 30, 35, 40, 45]), self.GRID)
        assert lam == 9.0
        assert ci[0] == pytest.approx(9 - 1.96 * 3, rel=1e-12)
        assert ci[1] == pytest.approx(9 + 1.96 * 3, rel=1e-12)

    def test_horizon_scaling(self):
        grid = GridSpec(100, 2.0)
        path = SampledPath(grid, np.zeros(101))
        lam, _ = estimate_lambda(report_for(path, [1, 2, 3, 4]), grid)
        assert lam == 2.0


class TestBetaNoiseless:
    def test_single_spike_recovers_beta_exactly(self):
        beta = 200.0
        path = decay_spike_path(10_000, jump_at=500, size=1.0, beta=beta)
        est = estimate_beta(path, report_for(path, [500]))
        assert est.beta_hat == pytest.approx(beta, rel=1e-9)
        assert not est.flags.undefined and not est.flags.floored

    def test_detection_pipeline_agrees(self):
        beta = 200.0
        path = decay_spike_path(10_000, jump_at=500, size=1.0, beta=beta)
        sigma = 0.11 / (5.0 * path.grid.mesh ** 0.49)
        report = detect_jumps(path, DetectionConfig(mode=SIGN_FILTERED), sigma_hat=sigma)
        est = estimate_beta(path, report)
        assert est.beta_hat == pytest.approx(beta, rel=1e-9)

    def test_count_zero_flags_undefined(self):
        path = decay_spike_path(100, jump_at=10, size=1.0, beta=20.0)
        est = estimate_beta(path, report_for(path, []))
        assert est.beta_hat == 0.0
        assert est.flags.undefined

    def test_scale_equivariance_on_fixed_indices(self):
        path = decay_spike_path(5_000, jump_at=100, size=1.0, beta=500.0)
        scaled = SampledPath(path.grid, 37.0 * path.values)
        a = estimate_beta(path, report_for(path, [100, 101]))
        b = estimate_beta(scaled, report_for(scaled, [100, 101]))
        assert a.beta_hat == pytest.approx(b.beta_hat, rel=1e-12)

    def test_inversion_identity_when_floor_inactive(self):
        path = decay_spike_path(5_000, jump_at=100, size=1.0, beta=500.0)
        est = estimate_beta(path, report_for(path, [100, 101, 102]))
        assert not est.flags.floored
        assert math.exp(-path.grid.mesh * est.beta_hat) + est.slope_hat == pytest.approx(1.0, abs=1e-12)

    def test_boundary_index_dropped_and_counted(self):
        n = 1_000
        path = decay_spike_path(n, jump_at=n, size=1.0, beta=200.0)
        est = estimate_beta(path, report_for(path, [n]))
        assert est.flags.boundary_drops == 1
        # successor term treated as zero -> slope 0 -> beta 0
        assert est.beta_hat == 0.0

    def test_floor_binds_on_pathological_ratio(self):
        # successor increment opposite and twice as large: ratio = -2 < mesh - 1
        grid = GridSpec(10, 1.0)
        values = np.zeros(11)
        values[3] = 1.0
        values[4:] = -1.0
        path = SampledPath(grid, values)
        est = estimate_beta(path, report_for(path, [3]))
        assert est.flags.floored
        assert est.beta_hat == pytest.approx(-math.log(grid.mesh) / grid.mesh)


class TestOracle:
    def test_noiseless_single_spike_exact(self):
        beta = 200.0
        n = 10_000
        grid = GridSpec(n, 1.0)
        tau = 500 * grid.mesh  # jump exactly at a grid point
        t = grid.times()
        values = np.where(t >= tau, np.exp(-beta * (t - tau)), 0.0)
        path = SampledPath(grid, values)
        est = oracle_estimate_beta(path, np.array([[tau, 1.0]]))
        assert est.beta_hat == pytest.approx(beta, rel=1e-9)

    def test_empty_truth_undefined(self):
        grid = GridSpec(100, 1.0)
        path = SampledPath(grid, np.zeros(101))
        est = oracle_estimate_beta(path, np.empty((0, 2)))
        assert est.flags.undefined

    def test_jump_in_successor_interval_is_excluded(self):
        # two jumps in consecutive intervals: only the second is eligible,
        # and its correction sum still sees the first jump's true size
        beta = 100.0
        grid = GridSpec(1_000, 1.0)
        mesh = grid.mesh
        t = grid.times()
        tau1, tau2 = 100.5 * mesh, 101.5 * mesh
        values = np.where(t >= tau1, np.exp(-beta * (t - tau1)), 0.0)
        values = values + np.where(t >= tau2, np.exp(-beta * (t - tau2)), 0.0)
        path = SampledPath(grid, values)
        est = oracle_estimate_beta(path, np.array([[tau1, 1.0], [tau2, 1.0]]))
        assert not est.flags.undefined
        incr = path.increments()
        expected_ratio = (incr[102] + 2 * mesh * 1.0) / incr[101]
        assert est.beta_hat == pytest.approx(-math.log(1 + expected_ratio) / mesh, rel=1e-12)


@st.composite
def oracle_cases(draw):
    """A path of 2-12 steps with whole-number values and up to 10 true (time, size) rows in drawn order.

    With few intervals, jumps share an interval or sit in adjacent ones often.
    """
    n = draw(st.integers(2, 12))
    values = draw(st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 1))
    interval = st.integers(1, n)
    offset = st.floats(0.0, 1.0, exclude_max=True)  # 0 puts the jump on the grid point t_i
    rows = draw(st.lists(st.tuples(interval, offset, st.floats(-1e3, 1e3)), max_size=10))
    return n, values, [((i - u) / n, size) for i, u, size in rows]


class TestOracleAgainstLoop:
    # whole-number path values make every denominator sum exact in any order, so
    # `undefined` is a property of the eligible set and must agree exactly
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=oracle_cases())
    @example(case=(4, [0, 3, 1, -2, 5], [(0.3, 2.0), (0.4, -1.0)]))  # two jumps in one interval
    @example(case=(4, [0, 3, 1, -2, 5], [(0.2, 1.5), (0.3, -2.5)]))  # adjacent intervals
    @example(case=(4, [0, 3, 1, -2, 5], [(0.1, 1.0), (1.0, 2.0)]))  # a jump in interval n
    @example(case=(4, [0, 3, 1, -2, 5], []))  # no jumps
    @example(case=(6, [0, 3, 1, -2, 5, 4, 9], [(0.8, 1.0), (0.1, -2.0), (0.55, 3.0)]))  # rows out of time order
    def test_array_oracle_equals_the_per_jump_loop(self, case):
        n, values, rows = case
        path = SampledPath(GridSpec(n, 1.0), np.array(values, dtype=float))
        truth = np.array(rows, dtype=float).reshape(-1, 2)
        est = oracle_estimate_beta(path, truth)
        num, den = oracle_slope_terms(path, truth)
        assert est.flags.undefined == (den.size == 0 or math.fsum(den) == 0.0)
        if est.flags.undefined:
            assert (est.beta_hat, est.slope_hat) == (0.0, 0.0)
            return
        slope = -math.fsum(num) / math.fsum(den)
        # the array sum of k numerator terms is within (k - 1) u sum|terms| of the exact one, the
        # denominator is exact, and each division rounds by u: twice that first-order bound
        tol = np.finfo(float).eps * (den.size * np.abs(num).sum() / abs(math.fsum(den)) + abs(slope))
        assert abs(est.slope_hat - slope) <= tol


class TestEnsembles:
    """Seeded ensemble checks against known generating parameters."""

    def _simulated(self, law, seed_base, reps):
        from spikelab.model import ExpOU, ModelSpec, SpikeParams
        from spikelab.simulate import child_seed, make_rng, simulate_spot

        grid = GridSpec(10_000, 1.0)
        model = ModelSpec(ExpOU(100.0, 2.0, 1.0), SpikeParams(10.0, 200.0, law))
        for r in range(reps):
            yield simulate_spot(model, grid, make_rng(child_seed(seed_base, r))), grid

    def test_point_mass_moment_recovery(self):
        from spikelab.model import Empirical

        config = DetectionConfig(constant=5.0, mode=SIGN_FILTERED)
        m1, m2 = [], []
        for sim, grid in self._simulated(Empirical([2.0]), 4040, 500):
            report = detect_jumps(sim.observed, config)
            est = estimate_beta(sim.observed, report)
            if report.count == 0 or est.beta_hat <= 0:
                continue
            m1.append(estimate_jump_moments(sim.observed, report, est.beta_hat, 1))
            m2.append(estimate_jump_moments(sim.observed, report, est.beta_hat, 2))
        assert abs(np.mean(m1) - 2.0) / 2.0 < 0.05
        assert abs(np.mean(m2) - 4.0) / 4.0 < 0.10

    def test_oracle_dominates_feasible_on_matched_seeds(self):
        from spikelab.model import SignedExponentialMixture

        law = SignedExponentialMixture((0.4, 0.6), (1 / 15, 1 / 10), (-1, 1))
        config = DetectionConfig(constant=5.0, mode=SIGN_FILTERED)
        feasible_err, oracle_err = [], []
        for sim, grid in self._simulated(law, 5050, 300):
            report = detect_jumps(sim.observed, config)
            feas = estimate_beta(sim.observed, report)
            orac = oracle_estimate_beta(sim.observed, sim.truth)
            if feas.flags.undefined or orac.flags.undefined:
                continue
            feasible_err.append(abs(feas.beta_hat - 200.0) / 200.0)
            oracle_err.append(abs(orac.beta_hat - 200.0) / 200.0)
        assert np.mean(oracle_err) <= np.mean(feasible_err)


class TestJumpMoments:
    def test_noiseless_first_moment_correction(self):
        beta = 200.0
        path = decay_spike_path(10_000, jump_at=500, size=1.0, beta=beta)
        value = estimate_jump_moments(path, report_for(path, [500]), beta, m=1)
        bd = beta * path.grid.mesh
        assert value == pytest.approx(bd / (1 - math.exp(-bd)), rel=1e-12)
        assert value == pytest.approx(1.0100, abs=5e-4)

    def test_undefined_cases(self):
        path = decay_spike_path(100, jump_at=10, size=1.0, beta=20.0)
        assert estimate_jump_moments(path, report_for(path, []), 20.0, 1) is None
        assert estimate_jump_moments(path, report_for(path, [10]), 0.0, 1) is None


class TestDiagnostics:
    GRID = GridSpec(10_000, 1.0)

    def moments(self, signed1, abs1, abs2, sgn):
        return {"signed1": signed1, "abs1": abs1, "abs2": abs2, "sign_mass": sgn}

    def test_symmetric_law_kills_bias(self):
        diag = asymptotic_diagnostics(10.0, 200.0, self.GRID, 4.0, **self.moments(0.0, 1.0, 2.0, 0.0))
        assert diag.bias_term == 0.0

    def test_bias_vanishes_with_mesh(self):
        vals = []
        for n in (100, 10_000, 1_000_000):
            grid = GridSpec(n, 1.0)
            diag = asymptotic_diagnostics(10.0, 20.0, grid, 4.0, **self.moments(0.5, 1.0, 2.0, 0.3))
            vals.append(abs(diag.bias_term))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-4

    def test_missing_moment_rejected(self):
        with pytest.raises(TypeError, match="sign_mass"):
            asymptotic_diagnostics(10.0, 200.0, self.GRID, 4.0, signed1=0.0, abs1=1.0, abs2=2.0)

    def test_brownian_component_dominates_table_configuration(self):
        # mixture 0.4(-Exp(rate 15)) + 0.6 Exp(rate 10) plug-ins, integrated
        # variance 4: frozen from direct evaluation of the error-scale formulas
        m = self.moments(-0.4 / 15 + 0.6 / 10, 0.4 / 15 + 0.6 / 10, 0.4 * 2 / 225 + 0.6 * 2 / 100, 0.2)
        diag = asymptotic_diagnostics(10.0, 200.0, self.GRID, 4.0, **m)
        v1, v2, v3, v4 = diag.error_components
        assert v3 == max(v1, v2, v3, v4)
        assert v3 == pytest.approx(3.7611, rel=1e-3)
        assert diag.relative_error_bound == pytest.approx(
            10 * 1e-4 + 1 / (200 * math.sqrt(10 * 1e-4)) + min(1 / math.sqrt(200), 0.05),
            rel=1e-12,
        )

    def test_negative_bracket_clamped(self):
        # zero-mean mixture with large second moment drives the first error
        # component's bracket negative; it must clamp to zero, not go complex
        m = self.moments(0.0, 12.0, 300.0, 0.2)
        diag = asymptotic_diagnostics(10.0, 200.0, self.GRID, 4.0, **m)
        assert diag.error_components[0] == 0.0
        assert all(np.isfinite(diag.error_components))


class TestEstimateSpikes:
    def test_full_pass_on_noiseless_spike(self):
        beta = 200.0
        path = decay_spike_path(10_000, jump_at=500, size=1.0, beta=beta)
        report = report_for(path, [500])
        est = estimate_spikes(path, report)
        assert est.lambda_hat == 1.0
        assert est.beta_hat == pytest.approx(beta, rel=1e-9)
        assert est.moment_estimates[1] == pytest.approx(1.0100, abs=5e-4)
        assert est.diagnostics is not None
        assert est.lambda_ci[0] <= est.lambda_hat <= est.lambda_ci[1]
