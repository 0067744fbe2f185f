"""Forward spike corrections and strip-option Monte Carlo."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from spikelab.model import Empirical, GridSpec, PointMass, SignedExponentialMixture, SpikeParams
from spikelab.pricing import (
    ForwardCurve,
    StripOptionSpec,
    TwoFactorParams,
    forward_spike_arith,
    forward_spike_delivery,
    forward_spike_log,
    price_strip_mc,
    strip_payoffs,
    two_factor_forward,
    _add_payoffs,
)
from spikelab.simulate import make_rng

from mc_oracles import (
    adaptive_simpson,
    exp_moment_integral_quadrature,
    factor_states,
    mc_mean_with_se,
    spike_terminal_samples,
    strip_payoffs_time_ordered,
)

MIX = SignedExponentialMixture((0.4, 0.6), (15.0, 10.0), (-1, 1))
ZERO_MEAN = SignedExponentialMixture((0.5, 0.5), (10.0, 10.0), (-1, 1))
MARKET_TF = TwoFactorParams(alpha=12.56, sigma_s=1.03, sigma_l=0.25, rho=-0.11)


class TestSimpson:
    def test_polynomial_exact(self):
        assert adaptive_simpson(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_oscillatory(self):
        value = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12)
        assert value == pytest.approx(2.0, abs=1e-10)


class TestForwardArith:
    PARAMS = SpikeParams(10.0, 200.0, MIX)

    def test_at_valuation_time_returns_state(self):
        for z in (-1.3, 0.0, 2.0):
            assert forward_spike_arith(z, self.PARAMS, 0.4, 0.4) == z

    def test_zero_mean_law_is_pure_decay(self):
        params = SpikeParams(10.0, 200.0, ZERO_MEAN)
        value = forward_spike_arith(1.5, params, 0.0, 0.03)
        assert value == pytest.approx(1.5 * math.exp(-200.0 * 0.03), rel=1e-12)

    def test_long_maturity_limit(self):
        value = forward_spike_arith(5.0, self.PARAMS, 0.0, 10.0)
        expected = 10.0 * MIX.mean() / 200.0
        assert value == pytest.approx(expected, rel=1e-6)

    def test_matches_monte_carlo(self):
        horizon = 0.05
        value = forward_spike_arith(0.0, self.PARAMS, 0.0, horizon)
        samples = spike_terminal_samples(self.PARAMS, horizon, 200_000, seed=5)
        mean, se = mc_mean_with_se(samples)
        assert abs(value - mean) < 3 * se

    def test_rejects_backwards_maturity(self):
        with pytest.raises(ValueError):
            forward_spike_arith(0.0, self.PARAMS, 1.0, 0.5)


class TestForwardDelivery:
    PARAMS = SpikeParams(10.0, 200.0, MIX)

    def test_short_delivery_limit(self):
        instant = forward_spike_arith(0.7, self.PARAMS, 0.0, 0.05)
        smeared = forward_spike_delivery(0.7, self.PARAMS, 0.0, 0.05, theta=1e-8)
        assert smeared == pytest.approx(instant, rel=1e-6)

    def test_zero_state_zero_mean_vanishes(self):
        params = SpikeParams(10.0, 200.0, ZERO_MEAN)
        assert forward_spike_delivery(0.0, params, 0.0, 0.1, 0.2) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("z,t,T,theta", [(0.8, 0.0, 0.02, 0.05), (-0.3, 0.1, 0.3, 1.0), (2.0, 0.0, 0.0, 0.01)])
    def test_matches_quadrature_of_instantaneous(self, z, t, T, theta):
        direct = forward_spike_delivery(z, self.PARAMS, t, T, theta)
        quad = adaptive_simpson(
            lambda u: forward_spike_arith(z, self.PARAMS, t, u), T, T + theta, tol=1e-10
        ) / theta
        assert direct == pytest.approx(quad, rel=1e-8)


class TestForwardLog:
    PARAMS = SpikeParams(10.0, 200.0, MIX)

    def test_at_valuation_time(self):
        assert forward_spike_log(1.2, self.PARAMS, 0.3, 0.3) == pytest.approx(math.exp(1.2), rel=1e-14)

    def test_vanishing_intensity(self):
        params = SpikeParams(1e-12, 200.0, MIX)
        value = forward_spike_log(0.9, params, 0.0, 0.05)
        assert value == pytest.approx(math.exp(0.9 * math.exp(-10.0)), rel=1e-9)

    def test_divergent_exponential_moment_rejected(self):
        bad = SpikeParams(10.0, 200.0, PointMass(1.0))  # fine
        forward_spike_log(0.0, bad, 0.0, 0.01)
        with pytest.raises(ValueError):
            tight = SignedExponentialMixture((1.0,), (0.5,), (1,))  # rate < 1 diverges on [0, 1]
            forward_spike_log(0.0, SpikeParams(10.0, 200.0, tight), 0.0, 0.01)

    @pytest.mark.parametrize(
        "law,seed",
        [
            (MIX, 11),
            (PointMass(0.08), 12),
            (Empirical(np.array([0.05, -0.1, 0.2, 0.12, -0.03])), 13),
        ],
    )
    def test_matches_monte_carlo(self, law, seed):
        params = SpikeParams(10.0, 200.0, law)
        horizon = 0.05
        value = forward_spike_log(0.0, params, 0.0, horizon)
        samples = np.exp(spike_terminal_samples(params, horizon, 400_000, seed=seed))
        mean, se = mc_mean_with_se(samples)
        assert abs(value - mean) < 3 * se

    @pytest.mark.parametrize(
        "params,z,t,maturity",
        [
            # the cases above and acceptance criterion 3's log cases
            (PARAMS, 1.2, 0.3, 0.3),
            (SpikeParams(1e-12, 200.0, MIX), 0.9, 0.0, 0.05),
            (SpikeParams(10.0, 200.0, PointMass(1.0)), 0.0, 0.0, 0.01),
            (PARAMS, 0.0, 0.0, 0.05),
            (PARAMS, 1.0, 0.0, 0.05),
            (SpikeParams(10.0, 200.0, PointMass(0.08)), 0.0, 0.0, 0.05),
            (SpikeParams(20.0, 500.0, PointMass(0.08)), 0.0, 0.0, 0.03),
            (SpikeParams(10.0, 200.0, Empirical(np.array([0.05, -0.1, 0.2, 0.12, -0.03]))), 0.0, 0.0, 0.05),
            (SpikeParams(5.0, 50.0, PointMass(-2.0)), 0.4, 0.1, 0.3),
            (SpikeParams(5.0, 50.0, PointMass(4.0)), -0.2, 0.0, 1e-4),
        ],
    )
    def test_matches_quadrature(self, params, z, t, maturity):
        eps = math.exp(-params.reversion * (maturity - t))
        integral, _ = exp_moment_integral_quadrature(params.law, eps)
        expected = math.exp(eps * z) * math.exp(params.intensity / params.reversion * integral)
        assert forward_spike_log(z, params, t, maturity) == pytest.approx(expected, rel=1e-12)

    def test_state_enters_through_decayed_exponent(self):
        a = forward_spike_log(1.0, self.PARAMS, 0.0, 0.05)
        b = forward_spike_log(0.0, self.PARAMS, 0.0, 0.05)
        assert a / b == pytest.approx(math.exp(math.exp(-10.0)), rel=1e-10)


class TestForwardCurve:
    def test_flat(self):
        curve = ForwardCurve.flat(42.0)
        assert curve(0.0) == 42.0
        assert np.all(curve(np.linspace(0, 1, 5)) == 42.0)

    def test_segments(self):
        curve = ForwardCurve.from_segments([(0.0, 0.5, 30.0), (0.5, 1.0, 50.0)])
        assert curve(0.25) == 30.0
        assert curve(0.5) == 50.0
        assert curve(1.0) == 50.0

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            ForwardCurve.from_segments([(0.0, 0.4, 30.0), (0.5, 1.0, 50.0)])

    def test_domain_checked(self):
        curve = ForwardCurve.flat(42.0, horizon=1.0)
        with pytest.raises(ValueError):
            curve(1.5)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ForwardCurve.flat(0.0)


class TestTwoFactorForward:
    def test_forward_martingale_at_checkpoints(self):
        grid = GridSpec(60, 1.0)
        curve = ForwardCurve.flat(40.0)
        maturity = 1.0
        wl, ys = factor_states(MARKET_TF, grid, make_rng(8), paths=100_000)
        t = grid.times()
        f0 = two_factor_forward(MARKET_TF, curve, 0.0, maturity, 0.0, 0.0)
        assert f0 == pytest.approx(40.0, rel=1e-12)
        for col in (15, 30, 60):
            vals = two_factor_forward(MARKET_TF, curve, t[col], maturity, wl[:, col], ys[:, col])
            se = vals.std() / math.sqrt(vals.size)
            assert abs(vals.mean() - 40.0) < 3 * se

    def test_spike_forward_at_maturity_equals_state(self):
        # the compensator and the decayed state cancel at t = T, so the spot
        # under the pricing measure is the continuous value plus Z itself
        params = SpikeParams(35.0, 21_000.0, MIX)
        for z in (-0.5, 0.0, 1.7):
            assert forward_spike_arith(z, params, 0.6, 0.6) == z

    def test_total_forward_decomposes_against_direct_mc(self):
        # E[Xc_T + Z_T] over a joint ensemble must equal curve(T) plus the
        # closed-form spike correction (additive split of the forward)
        grid = GridSpec(50, 1.0)
        upward = SignedExponentialMixture((0.4, 0.6), (1 / 30, 1 / 60), (-1, 1))
        spikes = SpikeParams(35.0, 100.0, upward)
        paths = 20_000
        wl, ys = factor_states(MARKET_TF, grid, make_rng(21), paths=paths)
        v1 = MARKET_TF.log_variance(1.0)
        cont_terminal = 40.0 * np.exp(
            -0.5 * v1 + MARKET_TF.sigma_l * wl[:, -1] + MARKET_TF.sigma_s * ys[:, -1]
        )
        spike_terminal = spike_terminal_samples(spikes, 1.0, paths, seed=22)
        total = cont_terminal + spike_terminal
        predicted = 40.0 + forward_spike_arith(0.0, spikes, 0.0, 1.0)
        se = total.std(ddof=1) / math.sqrt(paths)
        assert predicted != pytest.approx(40.0, abs=1.0)  # the correction is material here
        assert abs(total.mean() - predicted) < 3 * se


def tiny_strip_spec(strike, sims=2_000, seed=0):
    grid = GridSpec(60, 1.0)
    return grid, StripOptionSpec(
        exercise_times=grid.times()[1:], strike=strike, num_sims=sims, seed=seed
    )


class TestStripPricing:
    CURVE = ForwardCurve.flat(40.0)
    SPIKES = SpikeParams(35.0, 21_000.0, SignedExponentialMixture((0.4, 0.6), (1 / 30, 1 / 60), (-1, 1)))

    def test_unreachable_strike_prices_zero(self):
        grid, spec = tiny_strip_spec(1e6)
        price = price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, grid, spec)
        assert price.estimate == 0.0
        assert price.ci95 == (0.0, 0.0)

    def test_ci_shape_invariants(self):
        grid, spec = tiny_strip_spec(40.0)
        price = price_strip_mc(MARKET_TF, self.CURVE, None, grid, spec)
        lo, hi = price.ci95
        assert lo <= price.estimate <= hi
        assert hi - lo == pytest.approx(2 * 1.96 * price.stderr, rel=1e-12)

    def test_monotone_in_strike_paired_seeds(self):
        grid = GridSpec(60, 1.0)
        prices = []
        for strike in (20.0, 40.0, 60.0, 100.0):
            spec = StripOptionSpec(grid.times()[1:], strike, num_sims=1_000, seed=7)
            prices.append(price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, grid, spec).estimate)
        assert prices == sorted(prices, reverse=True)

    def test_deterministic_for_fixed_seed(self):
        grid, spec = tiny_strip_spec(40.0)
        a = price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, grid, spec)
        b = price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, grid, spec)
        assert a == b

    def test_off_grid_exercise_rejected(self):
        grid = GridSpec(60, 1.0)
        spec = StripOptionSpec(np.array([0.0105]), 40.0, num_sims=100, seed=0)
        with pytest.raises(ValueError, match="not on the simulation grid"):
            price_strip_mc(MARKET_TF, self.CURVE, None, grid, spec)

    def test_upward_spikes_raise_high_strike_price(self):
        grid, spec = tiny_strip_spec(150.0, sims=4_000, seed=3)
        without = price_strip_mc(MARKET_TF, self.CURVE, None, grid, spec)
        with_spikes = price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, grid, spec)
        assert with_spikes.estimate > without.estimate

    def test_antithetic_agrees_with_plain(self):
        grid, spec = tiny_strip_spec(40.0, sims=4_000)
        plain = price_strip_mc(MARKET_TF, self.CURVE, None, grid, spec)
        anti = price_strip_mc(MARKET_TF, self.CURVE, None, grid, spec, antithetic=True)
        # same quantity, independent estimators: agree within joint error bars
        joint = math.hypot(plain.stderr, anti.stderr)
        assert abs(plain.estimate - anti.estimate) < 4 * joint

    def test_antithetic_needs_even_sims(self):
        grid, spec = tiny_strip_spec(40.0, sims=2_001)
        with pytest.raises(ValueError):
            price_strip_mc(MARKET_TF, self.CURVE, None, grid, spec, antithetic=True)

    def test_antithetic_needs_two_pairs(self):
        # one pair is one payoff unit, whose sample deviation is undefined
        grid, spec = tiny_strip_spec(40.0, sims=2)
        with pytest.raises(ValueError, match="at least 4 simulations .*got 2"):
            strip_payoffs(MARKET_TF, self.CURVE, (None,), grid, spec.exercise_times, (40.0,), 2, make_rng(0), True)

    def test_antithetic_two_pairs_give_a_finite_ci(self):
        grid, spec = tiny_strip_spec(40.0, sims=4)
        price = price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, grid, spec, antithetic=True)
        assert np.all(np.isfinite([price.estimate, price.stderr, *price.ci95]))
        assert price.stderr > 0

    def test_reported_stderr_matches_dispersion(self):
        # chi-square check: scatter of repeated estimates vs reported stderr
        grid = GridSpec(30, 1.0)
        estimates, stderrs = [], []
        for seed in range(200):
            spec = StripOptionSpec(grid.times()[1:], 42.0, num_sims=400, seed=seed)
            price = price_strip_mc(MARKET_TF, self.CURVE, None, grid, spec)
            estimates.append(price.estimate)
            stderrs.append(price.stderr)
        estimates = np.asarray(estimates)
        stderrs = np.asarray(stderrs)
        stat = np.sum((estimates - estimates.mean()) ** 2 / stderrs**2)
        dof = estimates.size - 1
        assert stats.chi2.ppf(0.005, dof) < stat < stats.chi2.ppf(0.995, dof)


class TestStrikePayoffs:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_time_ordered_sum(self, data):
        strikes = data.draw(st.lists(st.floats(-50.0, 150.0), min_size=1, max_size=4), label="strikes")
        paths = data.draw(st.integers(1, 100), label="paths")
        n = data.draw(st.integers(1, 120), label="n")
        step = data.draw(st.sampled_from([1, 24, None]), label="step")  # hourly, daily, irregular
        if step is None:
            cols = np.array(sorted(data.draw(st.sets(st.integers(1, n), min_size=1), label="cols")))
        else:
            cols = np.arange(data.draw(st.integers(1, n), label="first"), n + 1, step)
        # spot values below, at and above every strike, negative ones included
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        spot = rng.uniform(-100.0, 300.0, (paths, n + 1))
        at_strike = rng.random(spot.shape) < data.draw(st.floats(0.0, 0.5), label="share at a strike")
        spot[at_strike] = rng.choice(strikes, at_strike.sum())
        # grid columns 0..n split into chunks of random lengths
        cuts = sorted(data.draw(st.sets(st.integers(1, n), max_size=10), label="cuts"))

        pay = np.zeros((len(strikes), paths))
        for start, stop in zip([0] + cuts, cuts + [n + 1]):
            _add_payoffs(pay, spot[:, start:stop].copy(), start, cols, np.asarray(strikes))
        assert pay.T.tobytes() == strip_payoffs_time_ordered(spot, cols, strikes).tobytes()


class TestBoundedMemory:
    def test_quarter_hourly_strip_stays_small(self):
        # one batch of 512 paths on a quarter-hourly year: whole-grid arrays
        # took 549 MB here, a chunked walk needs a few MB
        grid = GridSpec(4 * 8_760, 1.0)
        exercise = grid.times()[1:]
        tracemalloc.start()
        try:
            strip_payoffs(
                MARKET_TF,
                ForwardCurve.flat(40.0),
                (None, TestStripPricing.SPIKES),
                grid,
                exercise,
                (100.0, 200.0, 300.0),
                512,
                make_rng(0),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6
