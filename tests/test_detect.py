"""Multipower variation, thresholds, the two detection modes and the regime rule."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikelab.detect import (
    PLAIN,
    SIGN_FILTERED,
    DegeneratePathError,
    DetectionConfig,
    compute_threshold,
    detect_jumps,
    gaussian_abs_moment,
    multipower_variation,
    regime,
)
from spikelab.model import GridSpec, SampledPath

from mc_oracles import multipower_variation_windows


def brownian_path(sigma, n, seed, horizon=1.0):
    rng = np.random.default_rng(seed)
    mesh = horizon / n
    incr = sigma * math.sqrt(mesh) * rng.standard_normal(n)
    return SampledPath(GridSpec(n, horizon), np.concatenate([[0.0], np.cumsum(incr)]))


def decay_spike_path(n, jump_at, size, beta, horizon=1.0):
    """Flat zero path, jump of `size` exactly at grid index `jump_at`, then decay."""
    grid = GridSpec(n, horizon)
    t = grid.times()
    values = np.zeros(n + 1)
    values[jump_at:] = size * np.exp(-beta * (t[jump_at:] - t[jump_at]))
    return SampledPath(grid, values)


class TestGaussianMoment:
    def test_known_values(self):
        assert gaussian_abs_moment(2.0) == pytest.approx(1.0)
        assert gaussian_abs_moment(1.0) == pytest.approx(math.sqrt(2 / math.pi))
        assert gaussian_abs_moment(4.0) == pytest.approx(3.0)


class TestMultipower:
    def test_brownian_consistency(self):
        path = brownian_path(2.0, 10_000, seed=101)
        assert 1.9 <= multipower_variation(path, 20) <= 2.1

    def test_single_jump_barely_moves_order20(self):
        path = brownian_path(2.0, 10_000, seed=42)
        clean = multipower_variation(path, 20)
        values = path.values.copy()
        values[5_000:] += 1.0  # one huge jump, 50x the increment scale
        jumpy = multipower_variation(SampledPath(path.grid, values), 20)
        assert abs(jumpy - clean) / clean < 0.05

    def test_constant_path_rejected(self):
        path = SampledPath(GridSpec(100, 1.0), np.full(101, 3.0))
        with pytest.raises(DegeneratePathError):
            multipower_variation(path, 20)

    def test_order_must_fit(self):
        path = brownian_path(1.0, 10, seed=1)
        with pytest.raises(ValueError):
            multipower_variation(path, 20)

    @pytest.mark.parametrize("order", [2.5, 20.0, np.float64(20.0), "20"])
    def test_order_must_be_an_integer(self, order):
        # checked before the order reaches range(), which fails on a float with a TypeError
        message = f"^{re.escape(f'multipower order must be an integer, got {order!r}')}$"
        with pytest.raises(ValueError, match=message):
            DetectionConfig(mpv_order=order)
        with pytest.raises(ValueError, match=message):
            multipower_variation(brownian_path(1.0, 100, seed=1), order)

    def test_numpy_integer_orders_are_counts(self):
        path = brownian_path(1.0, 100, seed=1)
        assert multipower_variation(path, np.int64(4)) == multipower_variation(path, 4)
        assert DetectionConfig(mpv_order=np.int32(4)).mpv_order == 4
        with pytest.raises(ValueError, match="^multipower order must be >= 2, got 1$"):
            multipower_variation(path, np.int64(1))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_window_view(self, data):
        order = data.draw(st.integers(2, 25), label="order")
        n = data.draw(st.integers(order + 1, 400), label="n")
        # values drawn from these levels make increments of exactly 0,
        # +-1e-300 and +-1e150 (products near the float range's ends)
        level = st.one_of(st.sampled_from([0.0, 1e-300, -1e-300, 1e150, -1e150]), st.floats(-10.0, 10.0))
        values = data.draw(st.lists(level, min_size=n + 1, max_size=n + 1), label="values")
        path = SampledPath(GridSpec(n, 1.0), values)

        def outcome(estimator):
            try:
                return estimator(path, order)
            except DegeneratePathError as err:
                return str(err)

        assert outcome(multipower_variation) == outcome(multipower_variation_windows)


class TestThreshold:
    GRID = GridSpec(10_000, 1.0)

    def test_hand_value(self):
        config = DetectionConfig(constant=5.0, exponent=0.01)
        thr = compute_threshold(config, 2.0, self.GRID)
        assert thr == pytest.approx(10.0 * 1e-4 ** 0.49, rel=1e-12)
        assert thr == pytest.approx(0.10965, rel=1e-4)

    def test_zero_exponent_boundary(self):
        config = DetectionConfig(constant=5.0, exponent=0.0)
        assert compute_threshold(config, 2.0, self.GRID) == pytest.approx(10.0 * 0.01)

    def test_linear_in_constant(self):
        c1 = compute_threshold(DetectionConfig(constant=2.0), 1.5, self.GRID)
        c2 = compute_threshold(DetectionConfig(constant=4.0), 1.5, self.GRID)
        assert c2 == pytest.approx(2.0 * c1)


class TestDetection:
    def test_jump_free_brownian_has_no_flags(self):
        path = brownian_path(2.0, 10_000, seed=7)
        report = detect_jumps(path, DetectionConfig(constant=5.0, exponent=0.01, mode=PLAIN))
        assert report.count == 0

    def test_slow_reversion_single_flag_both_modes(self):
        # beta * mesh = 0.02: the reversion increment -(1 - e^{-0.02}) ~ -0.0198
        # stays under a 0.11 threshold, so only the jump increment is flagged.
        path = decay_spike_path(10_000, jump_at=500, size=1.0, beta=200.0)
        sigma = 0.11 / (5.0 * path.grid.mesh ** 0.49)  # makes threshold exactly 0.11
        for mode in (PLAIN, SIGN_FILTERED):
            report = detect_jumps(path, DetectionConfig(mode=mode), sigma_hat=sigma)
            assert list(report.indices) == [500]

    def test_fast_reversion_plain_false_positives_sign_filter_clean(self):
        # beta * mesh = 2: reversion increments -(1 - e^{-2}) ~ -0.865 and
        # -0.117 both clear a 0.11 threshold; the sign filter keeps only the
        # jump because consecutive relaxation increments share their sign.
        path = decay_spike_path(10_000, jump_at=500, size=1.0, beta=20_000.0)
        sigma = 0.11 / (5.0 * path.grid.mesh ** 0.49)
        plain = detect_jumps(path, DetectionConfig(mode=PLAIN), sigma_hat=sigma)
        assert list(plain.indices) == [500, 501, 502]
        filtered = detect_jumps(path, DetectionConfig(mode=SIGN_FILTERED), sigma_hat=sigma)
        assert list(filtered.indices) == [500]

    def test_report_invariants(self):
        path = decay_spike_path(1_000, jump_at=30, size=2.0, beta=2_000.0)
        sigma = 0.11 / (5.0 * path.grid.mesh ** 0.49)
        report = detect_jumps(path, DetectionConfig(mode=SIGN_FILTERED), sigma_hat=sigma)
        incr = path.increments()
        assert report.count == len(report.indices)
        assert np.all(np.abs(report.increments) > report.threshold_abs)
        for i in report.indices:
            assert i < path.grid.n
            assert incr[i - 1] * incr[i] < 0

    def test_count_monotone_in_constant(self):
        rng = np.random.default_rng(3)
        grid = GridSpec(5_000, 1.0)
        incr = 0.02 * rng.standard_normal(grid.n)
        incr[::250] += rng.choice([-1.0, 1.0], 20) * rng.exponential(0.5, 20)
        path = SampledPath(grid, np.concatenate([[0.0], np.cumsum(incr)]))
        counts = []
        for constant in (2.0, 3.0, 4.0, 5.0, 8.0):
            report = detect_jumps(path, DetectionConfig(constant=constant, mode=PLAIN), sigma_hat=2.0)
            counts.append(report.count)
        assert counts == sorted(counts, reverse=True)

    def test_pure_function_determinism(self):
        path = brownian_path(1.0, 2_000, seed=5)
        config = DetectionConfig(constant=3.0, mode=SIGN_FILTERED)
        a = detect_jumps(path, config)
        b = detect_jumps(path, config)
        assert np.array_equal(a.indices, b.indices)
        assert a.sigma_hat == b.sigma_hat

    def test_last_increment_never_flagged_in_filtered_mode(self):
        grid = GridSpec(10, 1.0)
        values = np.zeros(11)
        values[10] = 5.0  # huge final increment
        path = SampledPath(grid, values)
        report = detect_jumps(path, DetectionConfig(mode=SIGN_FILTERED), sigma_hat=0.1)
        assert 10 not in report.indices
        plain = detect_jumps(path, DetectionConfig(mode=PLAIN), sigma_hat=0.1)
        assert 10 in plain.indices


class TestRegime:
    GRID = GridSpec(10_000, 1.0)

    @pytest.mark.parametrize(
        "intensity, reversion, grid, exponent, label",
        [
            # the estimation table's four pairs (at (10, 200) both regimes hold and II
            # wins), then a slow pair and a crowded one
            (10, 20, GRID, 0.01, "I"),
            (10, 200, GRID, 0.01, "II"),
            (10, 2000, GRID, 0.01, "II"),
            (10, 20_000, GRID, 0.01, "II"),
            (0.5, 1.0, GRID, 0.01, "I"),
            (1000, 20, GRID, 0.01, "neither"),
            # exponent 0, which DetectionConfig accepts
            (10, 200, GRID, 0.0, "II"),
            (0.5, 1, GRID, 0.0, "I"),
            # meshes that are powers of two put each boundary exactly on a float:
            # reversion * mesh^(1/2 - exponent) = 2 * (1/16)^(1/4) = 1, and 2 * (1/4)^(1/2) = 1
            (0.1, 2.0, GridSpec(16), 0.25, "II"),
            (0.1, math.nextafter(2.0, 0), GridSpec(16), 0.25, "I"),
            (0.1, 2.0, GridSpec(4), 0.0, "II"),
            (0.1, math.nextafter(2.0, 0), GridSpec(4), 0.0, "I"),
            # intensity^2 * mesh = 1.6 / 16 = 0.1
            (math.sqrt(1.6), 1.0, GridSpec(16), 0.01, "neither"),
            (math.nextafter(math.sqrt(1.6), 0), 1.0, GridSpec(16), 0.01, "I"),
            # reversion * mesh = 0.25 * 4 = 1, with the indicator at 0.25 * 4^0.49 < 1
            (0.1, 0.25, GridSpec(2, 8.0), 0.01, "neither"),
            (0.1, math.nextafter(0.25, 0), GridSpec(2, 8.0), 0.01, "I"),
        ],
    )
    def test_label(self, intensity, reversion, grid, exponent, label):
        assert regime(intensity, reversion, grid, DetectionConfig(exponent=exponent)) == label

    def test_boundary_rows_sit_on_the_boundaries(self):
        assert 2.0 * GridSpec(16).mesh ** 0.25 == 1.0 and 2.0 * GridSpec(4).mesh ** 0.5 == 1.0
        assert math.sqrt(1.6) * math.sqrt(1.6) * GridSpec(16).mesh == 0.1
        assert 0.25 * GridSpec(2, 8.0).mesh == 1.0

    def test_exponent_validated(self):
        # the exponent comes from the detection config, which checks its range once
        with pytest.raises(ValueError, match=r"exponent must lie in \[0, 1/2\), got 0.7"):
            regime(10, 200, self.GRID, DetectionConfig(exponent=0.7))

    @pytest.mark.parametrize(
        "intensity, reversion, message",
        [
            (0.0, 200.0, "intensity must be positive and finite, got 0.0"),
            (10.0, float("inf"), "reversion must be positive and finite, got inf"),
            (float("nan"), 200.0, "intensity must be positive and finite, got nan"),
        ],
    )
    def test_rates_must_be_positive_and_finite(self, intensity, reversion, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            regime(intensity, reversion, self.GRID, DetectionConfig())


# increments of exactly 0, products that underflow to -0.0, products near
# the top of the float range and ordinary values
LEVELS = st.one_of(st.sampled_from([0.0, 1e-200, -1e-200, 1e150, -1e150]), st.floats(-3.0, 3.0))


class TestDetectionProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(LEVELS, min_size=4, max_size=60),
        sigma=st.floats(1e-3, 10.0),
        constant=st.floats(0.1, 8.0),
    )
    def test_flag_invariants(self, values, sigma, constant):
        n = len(values) - 1
        path = SampledPath(GridSpec(n, 1.0), values)
        plain = detect_jumps(path, DetectionConfig(constant=constant, mode=PLAIN), sigma_hat=sigma)
        filtered = detect_jumps(path, DetectionConfig(constant=constant, mode=SIGN_FILTERED), sigma_hat=sigma)
        incr = path.increments()
        # the full-mask form: every increment tested, the last one never opposite
        opposite = np.zeros(n, dtype=bool)
        opposite[:-1] = incr[:-1] * incr[1:] < 0
        exceed = np.abs(incr) > plain.threshold_abs
        assert np.array_equal(plain.indices, np.flatnonzero(exceed) + 1)
        assert np.array_equal(filtered.indices, np.flatnonzero(exceed & opposite) + 1)
        assert np.isin(filtered.indices, plain.indices).all()
        assert n not in filtered.indices
        for report in (plain, filtered):
            assert report.count == report.indices.size
            assert np.array_equal(report.increments, incr[report.indices - 1])
