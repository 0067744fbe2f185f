"""Exactness and reproducibility of the path simulators."""

import math
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikelab import simulate
from spikelab.model import Empirical, ExpOU, Flat, GridSpec, ModelSpec, SignedExponentialMixture, SpikeParams
from spikelab.model import SampledPath, TwoFactorDynamics
from spikelab.pricing import ForwardCurve, TwoFactorParams
from spikelab.simulate import (
    SimulatedPath,
    child_seed,
    make_rng,
    observed_rows,
    simulate_exp_ou,
    simulate_spikes,
    simulate_spot,
    simulate_two_factor,
    spot_chunks,
)

from mc_oracles import factor_states, lfilter_recursion, spike_values_batch, spike_values_direct_sum, spike_values_from_jumps

STUDY_LAW = SignedExponentialMixture((0.4, 0.6), (1 / 15, 1 / 10), (-1, 1))


class TestSpikes:
    def test_no_jumps_gives_zero_path(self):
        grid = GridSpec(100, 1.0)
        params = SpikeParams(1e-9, 200.0, Empirical([1.0]))
        path, truth = simulate_spikes(params, grid, make_rng(3))
        assert len(truth) == 0
        assert np.all(path.values == 0.0)

    def test_single_jump_decays_exactly(self):
        grid = GridSpec(10, 1.0)
        tau, size, beta = 0.25, 2.0, 3.0
        z = spike_values_batch([np.array([[tau, size]])], grid, beta)[0]
        i = grid.interval_index(tau)
        assert i == 3
        assert z[2] == 0.0
        assert z[3] == size * np.exp(-beta * (3 * grid.mesh - tau))
        for j in range(4, 11):
            assert z[j] == pytest.approx(z[3] * np.exp(-beta * (j - 3) * grid.mesh), rel=1e-12)

    def test_markov_decay_is_bit_exact(self):
        grid = GridSpec(2_000, 1.0)
        params = SpikeParams(10.0, 200.0, STUDY_LAW)
        path, truth = simulate_spikes(params, grid, make_rng(5))
        decay = np.exp(-params.reversion * grid.mesh)
        jump_intervals = set(grid.interval_index(truth[:, 0]).tolist())
        for i in range(1, grid.n + 1):
            if i not in jump_intervals:
                assert path.values[i] == path.values[i - 1] * decay  # bitwise

    def test_recompute_from_truth_is_bit_identical(self):
        grid = GridSpec(5_000, 1.0)
        params = SpikeParams(25.0, 500.0, STUDY_LAW)
        path, truth = simulate_spikes(params, grid, make_rng(17))
        again = spike_values_batch([truth], grid, params.reversion)[0]
        assert np.array_equal(path.values, again)

    def test_jump_count_is_poissonian(self):
        grid = GridSpec(4, 1.0)
        params = SpikeParams(10.0, 200.0, Empirical([1.0]))
        rng = make_rng(23)
        counts = np.array([len(simulate_spikes(params, grid, rng)[1]) for _ in range(4_000)])
        se = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - 10.0) < 4 * se
        assert abs(counts.var() - 10.0) < 4 * 10.0 * math.sqrt(2 / counts.size) + 1.0


def shares_an_interval(times, grid):
    idx = grid.interval_index(np.asarray(times, dtype=float))
    return bool(np.any(np.diff(idx) == 0))


def agrees_with_reference(row, reference, times, sizes, grid):
    """Bit-identical unless two jumps share an interval, then a few ulps.

    With a shared interval the state and the new jumps are summed in another
    order; each sum's rounding is at most an ulp of the largest magnitude in
    it, which |Z| and the jump sizes bound.
    """
    if not shares_an_interval(times, grid):
        return np.array_equal(row, reference)
    scale = np.abs(reference).max() + np.abs(sizes).sum()
    return np.abs(row - reference).max() <= 4 * len(times) * np.spacing(scale)


class TestSpikeBatch:
    @pytest.mark.parametrize(
        "n,params,paths",
        [
            (8_760, SpikeParams(35.0, 21_000.0, SignedExponentialMixture((0.4, 0.6), (1 / 30, 1 / 60), (-1, 1))), 64),
            (500, SpikeParams(2_000.0, 300.0, STUDY_LAW), 40),  # about 4 jumps per interval
            (200, SpikeParams(1e-9, 50.0, Empirical([1.0])), 5),  # no jumps at all
        ],
    )
    def test_matches_single_path_simulation_on_the_same_stream(self, n, params, paths):
        grid = GridSpec(n, 1.0)
        rng_single, rng_batch = make_rng(41), make_rng(41)
        singles = [simulate_spikes(params, grid, rng_single) for _ in range(paths)]
        curve = ForwardCurve.flat(40.0)
        walk = spot_chunks(MARKET_TF, curve, grid, make_rng(0), paths, spikes=params, jump_rng=rng_batch)
        batch = np.concatenate([spike for _, _, spike in walk], axis=1)
        # the batch consumed the stream exactly as the single-path calls did
        assert np.array_equal(rng_batch.random(8), rng_single.random(8))
        assert batch.shape == (paths, n + 1)
        for row, (path, truth) in zip(batch, singles):
            # a single path is row 0 of a batch of one, so the rows agree exactly
            assert np.array_equal(row, path.values)
            times, sizes = truth.T
            reference = spike_values_from_jumps(truth, grid, params.reversion)
            assert agrees_with_reference(row, reference, times, sizes, grid)
        if params.intensity > 100:
            assert any(shares_an_interval(truth[:, 0], grid) for _, truth in singles)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_property_against_reference(self, data):
        n = data.draw(st.integers(2, 40), label="n")
        horizon = data.draw(st.sampled_from([1.0, 0.3, 7.0]), label="horizon")
        grid = GridSpec(n, horizon)
        reversion = data.draw(st.floats(0.01, 2_000.0), label="reversion")
        grid_times = grid.times()
        on_grid = st.integers(0, n).map(lambda k: float(grid_times[k]))
        near_grid = st.tuples(on_grid, st.sampled_from([-np.inf, np.inf])).map(
            lambda p: min(max(float(np.nextafter(p[0], p[1])), 0.0), horizon)
        )
        anywhere = st.floats(0.0, horizon)
        # a few intervals only, so jumps often share one
        crowded = st.integers(1, n).map(lambda k: float(grid_times[k] - 0.37 * grid.mesh))
        jump_time = st.one_of(on_grid, near_grid, anywhere, crowded)
        size = st.floats(-50.0, 50.0).filter(lambda x: x != 0.0)
        paths = data.draw(
            st.lists(st.lists(st.tuples(jump_time, size), max_size=8), min_size=1, max_size=4),
            label="paths",
        )
        jumps = [np.array(sorted(path), dtype=float).reshape(-1, 2) for path in paths]
        batch = spike_values_batch(jumps, grid, reversion)
        for row, truth in zip(batch, jumps):
            reference = spike_values_from_jumps(truth, grid, reversion)
            assert agrees_with_reference(row, reference, *truth.T, grid)


def direct_sum_bound(grid, sizes):
    """Allowed distance of a batch row from the direct sum: a few ulps of sum |J_q| per step."""
    return 8 * (grid.n + 1) * np.spacing(np.abs(sizes).sum())


@st.composite
def direct_sum_case(draw):
    """A grid, beta * mesh in [1e-4, 1e3] and up to 4 paths of jumps in (0, t_n].

    Jump times fall on grid points, one ulp either side of one, anywhere,
    or crowded into one chosen interval.
    """
    n = draw(st.integers(2, 40), label="n")
    grid = GridSpec(n, draw(st.sampled_from([1.0, 0.3, 7.0]), label="horizon"))
    reversion = 10.0 ** draw(st.floats(-4.0, 3.0), label="log10(beta mesh)") / grid.mesh
    grid_times = grid.times()
    last = float(grid_times[-1])
    on_grid = st.integers(1, n).map(lambda k: float(grid_times[k]))
    near_grid = st.tuples(on_grid, st.sampled_from([-np.inf, np.inf])).map(lambda p: float(np.nextafter(*p)))
    k = draw(st.integers(1, n), label="crowded interval")
    crowded = st.floats(float(grid_times[k - 1]), float(grid_times[k]), exclude_min=True)
    anywhere = st.floats(0.0, last, exclude_min=True)
    jump_time = st.one_of(on_grid, near_grid, anywhere, crowded, crowded).filter(lambda t: 0.0 < t <= last)
    size = st.one_of(st.floats(-50.0, 50.0), st.floats(-1e-3, 1e-3)).filter(lambda x: x != 0.0)
    paths = draw(st.lists(st.lists(st.tuples(jump_time, size), max_size=8), min_size=1, max_size=4), label="paths")
    jumps = [np.array(sorted(path), dtype=float).reshape(-1, 2) for path in paths]
    return grid, reversion, jumps


class TestSpikeDirectSum:
    @settings(max_examples=300, deadline=None)
    @given(case=direct_sum_case())
    def test_rows_equal_the_direct_sum(self, case):
        grid, reversion, jumps = case
        batch = spike_values_batch(jumps, grid, reversion)
        for row, (times, sizes) in zip(batch, (truth.T for truth in jumps)):
            direct = spike_values_direct_sum(times, sizes, grid, reversion)
            assert np.abs(row - direct).max() <= direct_sum_bound(grid, sizes)

    def test_bound_is_tight_enough_to_see_a_misplaced_jump(self):
        # a jump counted one step early is off by far more than the bound
        grid = GridSpec(10, 1.0)
        times, sizes = np.array([0.3]), np.array([1.0])
        row = spike_values_batch([np.column_stack((times, sizes))], grid, 2.0)[0]
        early = spike_values_direct_sum(times - grid.mesh, sizes, grid, 2.0)
        assert np.abs(row - early).max() > 1e6 * direct_sum_bound(grid, sizes)


def run_recursion(block, state, coef, wide_lanes):
    """``simulate._recurse`` on a copy of block, with lanes from wide_lanes up taking the numpy loop."""
    out = block.copy()
    with mock.patch.object(simulate, "_WIDE_LANES", wide_lanes):
        final = simulate._recurse(out, state.copy(), coef)
    return out, final


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


# the market model's short-factor coefficient on the hourly grid
HOURLY_ALPHA_COEF = math.exp(-12.56 / 8_760)
RECURSION_INPUTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
RECURSION_COEFS = st.one_of(
    st.sampled_from([1.0, HOURLY_ALPHA_COEF, math.exp(-2.4), 0.0]),
    st.floats(0.0, 1.0, exclude_min=True),
)


class TestRecurse:
    """The first-order recursion against scipy's lfilter, bit for bit and in both loops."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_both_loops_equal_lfilter_bit_for_bit(self, data):
        lanes = data.draw(st.integers(1, simulate._WIDE_LANES + 2), label="lanes")
        steps = data.draw(st.integers(1, 300), label="steps")
        coef = data.draw(hnp.arrays(np.float64, lanes, elements=RECURSION_COEFS), label="coef")
        state = data.draw(hnp.arrays(np.float64, lanes, elements=RECURSION_INPUTS), label="state")
        block = data.draw(hnp.arrays(np.float64, (steps, lanes), elements=RECURSION_INPUTS, fill=st.nothing()), label="x")
        expected, expected_final = lfilter_recursion(block, state, coef)
        for wide_lanes in (simulate._WIDE_LANES, 1, lanes + 1):  # as chosen, all numpy, all float
            values, final = run_recursion(block, state, coef, wide_lanes)
            assert same_bits(values, expected)
            assert same_bits(final, expected_final)

    @pytest.mark.parametrize("wide_lanes", [1, 2])
    @pytest.mark.parametrize(
        "x, state, coef",
        [
            # c * y_0 is -0.0, and lfilter carries x_0 * 0.0 + c * y_0 = +0.0:
            # y_1 = +0.0, where the plain x_1 + c * y_0 gives -0.0
            ([0.0, -0.0], -1.0, 0.0),
            # the same, with c * y_1 underflowing to -0.0
            ([-1e150, 0.0, -0.0], 0.0, 5e-324),
            # the carried state is +0.0, not c * y_0 = -0.0
            ([0.0], -1.0, 0.0),
        ],
    )
    def test_signed_zeros_follow_lfilter(self, x, state, coef, wide_lanes):
        block = np.array(x)[:, None]
        values, final = run_recursion(block, np.array([state]), np.array([coef]), wide_lanes)
        expected, expected_final = lfilter_recursion(block, np.array([state]), np.array([coef]))
        assert same_bits(values, expected) and same_bits(final, expected_final)

    def test_split_blocks_carry_the_state(self):
        rng = make_rng(12)
        block = rng.standard_normal((50, 20))
        coef = rng.uniform(0.0, 1.0, 20)
        whole, final = run_recursion(block, np.zeros(20), coef, simulate._WIDE_LANES)
        head = block[:17].copy()
        tail = block[17:].copy()
        carry = simulate._recurse(head, 0.0, coef)
        assert same_bits(simulate._recurse(tail, carry, coef), final)
        assert same_bits(np.concatenate([head, tail]), whole)


class TestExpOU:
    def test_zero_vol_limit_is_fixed_point(self):
        grid = GridSpec(50, 1.0)
        path = simulate_exp_ou(ExpOU(100.0, 1e-12, 1.0), grid, make_rng(1))
        assert np.allclose(path.values, 1.0, atol=1e-9)

    def test_noiseless_decay_from_e(self):
        grid = GridSpec(100, 1.0)
        path = simulate_exp_ou(ExpOU(100.0, 1e-14, math.e), grid, make_rng(2))
        t = grid.times()
        assert np.allclose(np.log(path.values), np.exp(-100.0 * t), atol=1e-7)

    def test_terminal_log_variance(self):
        # Var log X_1 = vol^2 (1 - e^{-2 kappa}) / (2 kappa) = 0.02 for (100, 2)
        grid = GridSpec(8, 1.0)
        rng = make_rng(9)
        finals = np.array(
            [np.log(simulate_exp_ou(ExpOU(100.0, 2.0, 1.0), grid, rng).values[-1]) for _ in range(100_000)]
        )
        target = 4.0 * (1 - np.exp(-200.0)) / 200.0
        sample_var = finals.var(ddof=1)
        se = math.sqrt(2.0 / (finals.size - 1)) * sample_var
        assert abs(sample_var - target) < 3 * se

    def test_all_values_positive(self):
        grid = GridSpec(1_000, 1.0)
        path = simulate_exp_ou(ExpOU(100.0, 2.0, 1.0), grid, make_rng(4))
        assert np.all(path.values > 0)


class TestSpot:
    def test_decomposition_is_exact(self):
        grid = GridSpec(2_000, 1.0)
        model = ModelSpec(ExpOU(100.0, 2.0, 1.0), SpikeParams(10.0, 200.0, STUDY_LAW))
        sim = simulate_spot(model, grid, make_rng(12))
        assert np.array_equal(sim.observed.values, sim.continuous.values + sim.spike.values)
        assert sim.spike.values[0] == 0.0

    def test_paths_compare_by_identity(self):
        # a path holds arrays, so == is identity (as for any object) and a path hashes
        grid = GridSpec(4, 1.0)
        path, twin = SampledPath(grid, np.arange(5.0)), SampledPath(grid, np.arange(5.0))
        sim = SimulatedPath(path, path, path, np.empty((0, 2)))
        for a, b in ((path, twin), (sim, SimulatedPath(path, path, path, np.empty((0, 2))))):
            assert a == a and a != b
            assert len({a, b, a}) == 2 and hash(a) == hash(a)

    def test_negligible_intensity_reduces_to_continuous(self):
        grid = GridSpec(500, 1.0)
        model = ModelSpec(ExpOU(100.0, 2.0, 1.0), SpikeParams(1e-9, 200.0, Empirical([1.0])))
        sim = simulate_spot(model, grid, make_rng(8))
        assert np.array_equal(sim.observed.values, sim.continuous.values)

    def test_flat_plus_forced_jump(self):
        grid = GridSpec(100, 1.0)
        model = ModelSpec(Flat(7.0), SpikeParams(5.0, 50.0, Empirical([1.0])))
        sim = simulate_spot(model, grid, make_rng(21))
        assert np.array_equal(sim.observed.values, 7.0 + sim.spike.values)

    def test_two_factor_continuous_leg(self):
        from spikelab.pricing import ForwardCurve, TwoFactorDynamics

        grid = GridSpec(200, 1.0)
        dynamics = TwoFactorDynamics(MARKET_TF, ForwardCurve.flat(40.0))
        model = ModelSpec(dynamics, SpikeParams(10.0, 200.0, STUDY_LAW))
        sim = simulate_spot(model, grid, make_rng(14))
        assert np.all(sim.continuous.values > 0)
        assert np.array_equal(sim.observed.values, sim.continuous.values + sim.spike.values)

    @pytest.mark.parametrize("chunk_entries", [2 * 7, simulate._CHUNK_ENTRIES])
    def test_exp_ou_leg_is_simulate_exp_ou_on_the_first_child_stream(self, chunk_entries, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK_ENTRIES", chunk_entries)  # one path: two lanes
        grid, spec = GridSpec(300, 1.0), ExpOU(100.0, 2.0, 3.0)
        sim = simulate_spot(ModelSpec(spec, SpikeParams(40.0, 50.0, STUDY_LAW)), grid, make_rng(5))
        alone = simulate_exp_ou(spec, grid, make_rng(5).spawn(2)[0])
        assert sim.continuous.values.tobytes() == alone.values.tobytes()

    @pytest.mark.parametrize("n", [300, 40_000])  # 40,000 columns: two chunks of one path
    def test_two_factor_leg_is_simulate_two_factor_on_the_first_child_stream(self, n):
        grid, dynamics = GridSpec(n, 1.0), TwoFactorDynamics(MARKET_TF, ForwardCurve.flat(40.0))
        sim = simulate_spot(ModelSpec(dynamics, SpikeParams(40.0, 50.0, STUDY_LAW)), grid, make_rng(5))
        alone = simulate_two_factor(MARKET_TF, dynamics.curve, grid, make_rng(5).spawn(2)[0], 1)[0]
        assert sim.continuous.values.tobytes() == alone.tobytes()

    def test_fixed_seed_reproducibility(self):
        grid = GridSpec(1_000, 1.0)
        model = ModelSpec(ExpOU(100.0, 2.0, 1.0), SpikeParams(10.0, 200.0, STUDY_LAW))
        a = simulate_spot(model, grid, make_rng(child_seed(99, 0)))
        b = simulate_spot(model, grid, make_rng(child_seed(99, 0)))
        assert np.array_equal(a.observed.values, b.observed.values)
        assert np.array_equal(a.truth, b.truth)


MARKET_TF = TwoFactorParams(alpha=12.56, sigma_s=1.03, sigma_l=0.25, rho=-0.11)


def walked_spots(curve, grid, rng, paths, antithetic):
    """The market two-factor spots of one ``spot_chunks`` walk without spikes, shape (paths, n + 1)."""
    blocks = spot_chunks(MARKET_TF, curve, grid, rng, paths, antithetic)
    return np.concatenate([spot for _, spot, _ in blocks], axis=1)


class TestObservedRows:
    """The study's observed rows are the observed paths of ``simulate_spot``, bit for bit."""

    # log(initial) != 0, so a log recursion run through column 0 would show
    CONTINUOUS = {
        "expou": ExpOU(100.0, 2.0, 3.0),
        "flat": Flat(2.0),
        "twofactor": TwoFactorDynamics(MARKET_TF, ForwardCurve.flat(40.0)),
    }

    def rows_and_singles(self, leg, grid, intensity, seed, count, width, per_block):
        model = ModelSpec(self.CONTINUOUS[leg], SpikeParams(intensity, 50.0, STUDY_LAW))
        streams = [make_rng(child_seed(seed, 0, r)) for r in range(count)]
        # full blocks walk `width` columns a chunk: two lanes a path for an exp-OU leg
        lanes = (2 if leg == "expou" else 1) * per_block
        with mock.patch.object(simulate, "_CHUNK_ENTRIES", width * lanes), mock.patch.object(
            simulate, "_BLOCK_ENTRIES", per_block * (grid.n + 1)
        ):
            rows = list(observed_rows(model, grid, streams))
        singles = [simulate_spot(model, grid, make_rng(child_seed(seed, 0, r))) for r in range(count)]
        return rows, singles

    @settings(max_examples=60, deadline=None)
    @given(
        leg=st.sampled_from(sorted(CONTINUOUS)),
        n=st.integers(2, 40),
        # a jump in nearly every column of every chunk, or nearly no jump at all
        intensity=st.sampled_from([0.05, 3.0, 400.0]),
        seed=st.integers(0, 2**16),
        count=st.integers(0, 9),
        width=st.integers(1, 12),
        per_block=st.integers(1, 4),
    )
    def test_rows_equal_simulate_spot(self, leg, n, intensity, seed, count, width, per_block):
        rows, singles = self.rows_and_singles(leg, GridSpec(n, 1.0), intensity, seed, count, width, per_block)
        assert len(rows) == count
        for row, single in zip(rows, singles):
            assert row.values.tobytes() == single.observed.values.tobytes()

    def test_no_generators_give_no_paths(self):
        model = ModelSpec(ExpOU(100.0, 2.0, 1.0), SpikeParams(10.0, 50.0, STUDY_LAW))
        assert list(observed_rows(model, GridSpec(10, 1.0), [])) == []

    @pytest.mark.parametrize("leg", sorted(CONTINUOUS))
    def test_chunk_edges_and_jumpless_paths(self, leg):
        grid, width = GridSpec(30, 1.0), 4
        rows, singles = self.rows_and_singles(leg, grid, 2.0, 21, 12, width, 3)
        columns = [grid.interval_index(s.truth[:, 0]) for s in singles]
        # jumps on the first and on the last column of some chunk, and paths with no jump
        assert any((cols % width == 0).any() for cols in columns)
        assert any((cols % width == width - 1).any() for cols in columns)
        assert any(cols.size == 0 for cols in columns)
        for row, single in zip(rows, singles):
            assert row.values.tobytes() == single.observed.values.tobytes()

    def test_a_block_holds_104_paths_at_n_1e4(self, monkeypatch):
        sizes = []

        def recorded(jumps, *args):
            sizes.append(len(jumps))
            return spike_chunks(jumps, *args)

        spike_chunks = simulate._spike_chunks
        monkeypatch.setattr(simulate, "_spike_chunks", recorded)
        model = ModelSpec(ExpOU(100.0, 2.0, 1.0), SpikeParams(10.0, 200.0, STUDY_LAW))
        paths = observed_rows(model, GridSpec(10_000, 1.0), (make_rng(r) for r in range(105)))
        assert sum(1 for _ in paths) == 105
        assert sizes == [104, 1]


class TestTwoFactor:
    def test_zero_vol_recovers_curve(self):
        grid = GridSpec(100, 1.0)
        params = TwoFactorParams(alpha=12.56, sigma_s=1e-14, sigma_l=1e-14, rho=-0.11)
        curve = ForwardCurve.flat(40.0)
        spot = simulate_two_factor(params, curve, grid, make_rng(3), 1)
        assert np.allclose(spot, 40.0, rtol=1e-10)

    def test_martingale_property(self):
        grid = GridSpec(50, 1.0)
        curve = ForwardCurve.flat(40.0)
        wl, ys = factor_states(MARKET_TF, grid, make_rng(31), paths=100_000)
        t = grid.times()
        spot = 40.0 * np.exp(-0.5 * MARKET_TF.log_variance(t) + 0.25 * wl + 1.03 * ys)
        for col in (10, 25, 50):
            vals = spot[:, col]
            se = vals.std() / math.sqrt(vals.size)
            assert abs(vals.mean() - 40.0) < 3 * se

    def test_log_spot_is_gaussian_with_stated_variance(self):
        from scipy import stats

        grid = GridSpec(20, 1.0)
        curve = ForwardCurve.flat(1.0)
        wl, ys = factor_states(MARKET_TF, grid, make_rng(77), paths=10_000)
        t = 1.0
        v = MARKET_TF.log_variance(t)
        logs = -0.5 * v + MARKET_TF.sigma_l * wl[:, -1] + MARKET_TF.sigma_s * ys[:, -1]
        pvalue = stats.kstest(logs, "norm", args=(-0.5 * v, math.sqrt(v))).pvalue
        assert pvalue > 0.01

    def test_market_calibration_runs_on_hourly_grid(self):
        grid = GridSpec(8_760, 1.0)
        spot = simulate_two_factor(MARKET_TF, ForwardCurve.flat(40.0), grid, make_rng(1), 1)
        assert np.all(spot > 0)
        assert spot.shape == (1, grid.n + 1)

    def test_batch_rows_are_the_factor_spots(self):
        grid = GridSpec(30, 1.0)
        curve = ForwardCurve.flat(40.0)
        spot = simulate_two_factor(MARKET_TF, curve, grid, make_rng(5), 6)
        wl, ys = factor_states(MARKET_TF, grid, make_rng(5), 6)
        t = grid.times()
        log_spot = np.log(40.0) - 0.5 * MARKET_TF.log_variance(t) + MARKET_TF.sigma_l * wl + MARKET_TF.sigma_s * ys
        assert spot.shape == (6, grid.n + 1)
        assert np.allclose(np.log(spot), log_spot, rtol=0, atol=1e-12)

    def test_antithetic_rows_mirror_the_factors(self):
        grid = GridSpec(30, 1.0)
        curve = ForwardCurve.flat(40.0)
        spot = walked_spots(curve, grid, make_rng(6), 8, antithetic=True)
        drift = 2 * np.log(40.0) - MARKET_TF.log_variance(grid.times())
        # log S+ + log S- = 2 (log f - v/2): the Gaussian parts cancel
        assert np.allclose(np.log(spot[:4]) + np.log(spot[4:]), drift, rtol=0, atol=1e-12)
        assert not np.allclose(spot[:4], spot[4:])
        with pytest.raises(ValueError, match="even number of paths"):
            walked_spots(curve, grid, make_rng(6), 7, antithetic=True)


class TestChunkLength:
    LENGTHS = (1, 7, 64, 1_000)  # n = 100 is a multiple of none but 1

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_two_factor_spots(self, antithetic, monkeypatch):
        grid = GridSpec(100, 1.0)
        spots = []
        for length in self.LENGTHS:
            monkeypatch.setattr(simulate, "_CHUNK_ENTRIES", 6 * length)
            spots.append(walked_spots(ForwardCurve.flat(40.0), grid, make_rng(3), 6, antithetic))
        assert all(other.tobytes() == spots[0].tobytes() for other in spots[1:])

    def test_spike_values(self, monkeypatch):
        grid = GridSpec(100, 1.0)
        params = SpikeParams(300.0, 50.0, STUDY_LAW)  # about 3 jumps per interval
        rng = make_rng(4)
        truths = [simulate_spikes(params, grid, rng)[1] for _ in range(5)]
        values = []
        for length in self.LENGTHS:
            monkeypatch.setattr(simulate, "_CHUNK_ENTRIES", 5 * length)
            values.append(spike_values_batch(truths, grid, params.reversion))
        assert all(other.tobytes() == values[0].tobytes() for other in values[1:])

    def test_long_factor_follows_the_time_major_stream(self):
        # per step the long-factor normals of every path, then the short ones
        grid = GridSpec(30, 1.0)
        wl, _ = factor_states(MARKET_TF, grid, make_rng(5), 6)
        normals = make_rng(5).standard_normal((grid.n, 2, 6))
        increments = np.sqrt(grid.mesh) * normals[:, 0]
        assert np.array_equal(wl[:, 1:], np.cumsum(increments, axis=0).T)
        assert np.all(wl[:, 0] == 0.0)


class TestWalkInputs:
    GRID = GridSpec(30, 1.0)

    def test_two_factor_rejects_zero_paths(self):
        with pytest.raises(ValueError, match="paths"):
            simulate_two_factor(MARKET_TF, ForwardCurve.flat(40.0), self.GRID, make_rng(1), 0)

    def test_spot_chunks_rejects_zero_paths(self):
        with pytest.raises(ValueError, match="paths"):
            next(spot_chunks(MARKET_TF, ForwardCurve.flat(40.0), self.GRID, make_rng(1), 0))

    def test_spikes_without_jump_rng_rejected(self):
        walk = spot_chunks(MARKET_TF, ForwardCurve.flat(40.0), self.GRID, make_rng(1), 4, spikes=SpikeParams(10.0, 50.0, STUDY_LAW))
        with pytest.raises(ValueError, match="jump_rng"):
            next(walk)


class DrawFailed(RuntimeError):
    pass


class FailingNormals:
    """A generator whose standard_normal raises on the given call."""

    def __init__(self, rng, fail_on_call):
        self.rng, self.fail_on_call, self.calls = rng, fail_on_call, 0

    def standard_normal(self, size):
        self.calls += 1
        if self.calls == self.fail_on_call:
            raise DrawFailed(f"call {self.calls}")
        return self.rng.standard_normal(size)


def wait_for_thread_count(count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


class TestDrawHelper:
    GRID = GridSpec(600, 1.0)

    def test_closing_a_walk_stops_its_helper(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK_ENTRIES", 4 * 3)  # 201 chunks
        before = threading.active_count()
        walk = spot_chunks(MARKET_TF, ForwardCurve.flat(40.0), self.GRID, make_rng(2), 4)
        next(walk)
        next(walk)
        walk.close()
        assert wait_for_thread_count(before) == before

    def test_a_failed_draw_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK_ENTRIES", 4 * 3)
        before = threading.active_count()
        rng = FailingNormals(make_rng(2), fail_on_call=3)  # the helper's second draw
        with pytest.raises(DrawFailed) as failure:
            simulate_two_factor(MARKET_TF, ForwardCurve.flat(40.0), self.GRID, rng, 4)
        assert type(failure.value) is DrawFailed
        assert rng.calls == 3
        assert wait_for_thread_count(before) == before

    def test_concurrent_walks_match_the_one_chunk_walk(self, monkeypatch):
        # 4 walk threads and their 4 helpers, more than the cores, switching
        # every microsecond: a draw taken out of turn moves the stream
        curve = ForwardCurve.flat(40.0)
        cases = [(seed, antithetic) for seed in range(4) for antithetic in (False, True)]
        monkeypatch.setattr(simulate, "_CHUNK_ENTRIES", 6 * (self.GRID.n + 1))
        expected = {case: walked_spots(curve, self.GRID, make_rng(case[0]), 6, case[1]) for case in cases}
        # 2 columns a chunk (4 with antithetic), so chunk 0 draws normals too
        monkeypatch.setattr(simulate, "_CHUNK_ENTRIES", 12)
        results = {}

        def walk(seed):
            for antithetic in (False, True):
                results[seed, antithetic] = walked_spots(curve, self.GRID, make_rng(seed), 6, antithetic)

        threads = [threading.Thread(target=walk, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == sorted(cases)
        assert all(results[case].tobytes() == expected[case].tobytes() for case in cases)


class TestIntervalIndex:
    CASES = [(0.05, 1), (0.1, 1), (0.1000001, 2), (0.95, 10), (1.0, 10)]

    @pytest.mark.parametrize("tau,expected", CASES)
    def test_boundaries(self, tau, expected):
        grid = GridSpec(10, 1.0)
        assert grid.interval_index(tau) == expected

    def test_elementwise_on_arrays(self):
        grid = GridSpec(10, 1.0)
        taus, expected = zip(*self.CASES)
        assert grid.interval_index(np.array(taus)).tolist() == list(expected)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 10**6), horizon=st.floats(1e-3, 1e3), data=st.data())
    def test_grid_times_and_their_neighbours(self, n, horizon, data):
        grid = GridSpec(n, horizon)
        mesh, i = grid.mesh, data.draw(st.integers(0, n))
        for time in (np.nextafter(i * mesh, -np.inf), i * mesh, np.nextafter(i * mesh, np.inf)):
            # the index that comparisons with the grid times k * mesh define
            if time <= 0.0:
                expected = 1
            elif time > n * mesh:
                expected = n
            else:
                near = range(max(i - 1, 1), min(i + 2, n) + 1)
                (expected,) = [k for k in near if (k - 1) * mesh < time <= k * mesh]
            assert grid.interval_index(float(time)) == expected
            assert grid.interval_index(np.array([time])).tolist() == [expected]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 1_000), below=st.floats(-1e300, 0.0), above=st.floats(2.0, 1e300))
    def test_times_outside_the_grid_clamp(self, n, below, above):
        grid = GridSpec(n, 1.0)
        assert grid.interval_index(below) == 1
        assert grid.interval_index(np.array([below, above])).tolist() == [1, n]

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, tau):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(10, 1.0).interval_index(np.array([0.5, tau]))
