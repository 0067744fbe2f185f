"""Forward spike corrections and strip-option Monte Carlo."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from spikelab.model import Empirical, GridSpec, SignedExponentialMixture, SpikeParams
from spikelab.pricing import (
    ForwardCurve,
    TwoFactorParams,
    forward_spike_arith,
    forward_spike_delivery,
    forward_spike_log,
    price_strip_mc,
    strip_payoffs,
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
    two_factor_forward,
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
        bad = SpikeParams(10.0, 200.0, Empirical([1.0]))  # fine
        forward_spike_log(0.0, bad, 0.0, 0.01)
        with pytest.raises(ValueError):
            tight = SignedExponentialMixture((1.0,), (0.5,), (1,))  # rate < 1 diverges on [0, 1]
            forward_spike_log(0.0, SpikeParams(10.0, 200.0, tight), 0.0, 0.01)

    @pytest.mark.parametrize(
        "law,seed",
        [
            (MIX, 11),
            (Empirical([0.08]), 12),
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
            (SpikeParams(10.0, 200.0, Empirical([1.0])), 0.0, 0.0, 0.01),
            (PARAMS, 0.0, 0.0, 0.05),
            (PARAMS, 1.0, 0.0, 0.05),
            (SpikeParams(10.0, 200.0, Empirical([0.08])), 0.0, 0.0, 0.05),
            (SpikeParams(20.0, 500.0, Empirical([0.08])), 0.0, 0.0, 0.03),
            (SpikeParams(10.0, 200.0, Empirical(np.array([0.05, -0.1, 0.2, 0.12, -0.03]))), 0.0, 0.0, 0.05),
            (SpikeParams(5.0, 50.0, Empirical([-2.0])), 0.4, 0.1, 0.3),
            (SpikeParams(5.0, 50.0, Empirical([4.0])), -0.2, 0.0, 1e-4),
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

    def test_decay_below_the_smallest_float(self):
        # beta (T - t) = 800 > 745: eps = exp(-800) is 0.0, the eps = 0 branch of Ein
        params = SpikeParams(5.0, 50.0, Empirical([-7.0]))
        assert math.exp(-params.reversion * 16.0) == 0.0
        expected = math.exp(params.intensity / params.reversion * params.law.exp_moment_integral(1e-300))
        assert forward_spike_log(0.3, params, 0.0, 16.0) == pytest.approx(expected, rel=1e-12)


def delivery(z_now, params, t, maturity):
    return forward_spike_delivery(z_now, params, t, maturity, 0.02)


class TestValuationInputs:
    """t, T and z_now must be finite and T must not precede t, for every spike forward."""

    PARAMS = SpikeParams(10.0, 200.0, MIX)

    @pytest.mark.parametrize("pricer", [forward_spike_arith, delivery, forward_spike_log])
    @pytest.mark.parametrize(
        "z_now, t, maturity, name",
        [
            (0.0, math.nan, 0.01, "valuation time t"),
            (0.0, -math.inf, 0.01, "valuation time t"),
            (0.0, 0.0, math.nan, "maturity T"),
            (0.0, 0.0, math.inf, "maturity T"),
            (math.inf, 0.0, 0.01, "spike level z_now"),
            (math.nan, 0.0, 0.01, "spike level z_now"),
        ],
    )
    def test_non_finite_input_is_named(self, pricer, z_now, t, maturity, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got -?(nan|inf)$"):
            pricer(z_now, self.PARAMS, t, maturity)

    @pytest.mark.parametrize("pricer", [forward_spike_arith, delivery, forward_spike_log])
    def test_maturity_before_valuation_time(self, pricer):
        with pytest.raises(ValueError, match="^maturity must not precede the valuation time$"):
            pricer(0.0, self.PARAMS, 0.02, 0.01)


class TestForwardCurve:
    def test_flat(self):
        curve = ForwardCurve.flat(42.0)
        assert curve(0.0) == 42.0
        assert np.all(curve(np.linspace(0, 1, 5)) == 42.0)

    def test_segments(self):
        curve = ForwardCurve([0.0, 0.5, 1.0], [30.0, 50.0])
        assert curve(0.25) == 30.0
        assert curve(0.5) == 50.0
        assert curve(1.0) == 50.0

    def test_gap_rejected(self):
        # quotes on [0, 0.4) and [0.5, 1] leave [0.4, 0.5) without a level
        with pytest.raises(ValueError, match="^need one level per segment$"):
            ForwardCurve([0.0, 0.4, 0.5, 1.0], [30.0, 50.0])

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


def tiny_strip(strike, sims=2_000, seed=0):
    """``price_strip_mc``'s arguments from the grid on: 60 steps, every step exercised, a fresh stream."""
    grid = GridSpec(60, 1.0)
    return grid, grid.times()[1:], strike, sims, make_rng(seed)


class TestStripPricing:
    CURVE = ForwardCurve.flat(40.0)
    SPIKES = SpikeParams(35.0, 21_000.0, SignedExponentialMixture((0.4, 0.6), (1 / 30, 1 / 60), (-1, 1)))

    def test_unreachable_strike_prices_zero(self):
        price = price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, *tiny_strip(1e6))
        assert price.estimate == 0.0
        assert price.ci95 == (0.0, 0.0)

    def test_ci_shape_invariants(self):
        price = price_strip_mc(MARKET_TF, self.CURVE, None, *tiny_strip(40.0))
        lo, hi = price.ci95
        assert lo <= price.estimate <= hi
        assert hi - lo == pytest.approx(2 * 1.96 * price.stderr, rel=1e-12)

    def test_monotone_in_strike_paired_seeds(self):
        grid = GridSpec(60, 1.0)
        prices = []
        for strike in (20.0, 40.0, 60.0, 100.0):
            price = price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, grid, grid.times()[1:], strike, 1_000, make_rng(7))
            prices.append(price.estimate)
        assert prices == sorted(prices, reverse=True)

    def test_deterministic_for_fixed_seed(self):
        a = price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, *tiny_strip(40.0))
        b = price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, *tiny_strip(40.0))
        assert a == b

    def test_off_grid_exercise_rejected(self):
        grid = GridSpec(60, 1.0)
        with pytest.raises(ValueError, match="not on the simulation grid"):
            price_strip_mc(MARKET_TF, self.CURVE, None, grid, np.array([0.0105]), 40.0, 100, make_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_exercise_time_rejected(self, bad):
        grid = GridSpec(60, 1.0)
        times = np.array([grid.times()[1], bad])
        message = f"^exercise times must be finite, got {bad}$"
        with pytest.raises(ValueError, match=message):
            strip_payoffs(MARKET_TF, self.CURVE, (None,), grid, times, (40.0,), 100, make_rng(0))

    def test_upward_spikes_raise_high_strike_price(self):
        without = price_strip_mc(MARKET_TF, self.CURVE, None, *tiny_strip(150.0, sims=4_000, seed=3))
        with_spikes = price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, *tiny_strip(150.0, sims=4_000, seed=3))
        assert with_spikes.estimate > without.estimate

    def test_antithetic_agrees_with_plain(self):
        plain = price_strip_mc(MARKET_TF, self.CURVE, None, *tiny_strip(40.0, sims=4_000))
        anti = price_strip_mc(MARKET_TF, self.CURVE, None, *tiny_strip(40.0, sims=4_000), antithetic=True)
        # same quantity, independent estimators: agree within joint error bars
        joint = math.hypot(plain.stderr, anti.stderr)
        assert abs(plain.estimate - anti.estimate) < 4 * joint

    def test_antithetic_needs_even_sims(self):
        with pytest.raises(ValueError):
            price_strip_mc(MARKET_TF, self.CURVE, None, *tiny_strip(40.0, sims=2_001), antithetic=True)

    def test_antithetic_needs_two_pairs(self):
        # one pair is one payoff unit, whose sample deviation is undefined
        grid, times, _, _, rng = tiny_strip(40.0, sims=2)
        with pytest.raises(ValueError, match="at least 4 simulations .*got 2"):
            strip_payoffs(MARKET_TF, self.CURVE, (None,), grid, times, (40.0,), 2, rng, True)

    def test_antithetic_two_pairs_give_a_finite_ci(self):
        price = price_strip_mc(MARKET_TF, self.CURVE, self.SPIKES, *tiny_strip(40.0, sims=4), antithetic=True)
        assert np.all(np.isfinite([price.estimate, price.stderr, *price.ci95]))
        assert price.stderr > 0

    def test_reported_stderr_matches_dispersion(self):
        # chi-square check: scatter of repeated estimates vs reported stderr
        grid = GridSpec(30, 1.0)
        estimates, stderrs = [], []
        for seed in range(200):
            price = price_strip_mc(MARKET_TF, self.CURVE, None, grid, grid.times()[1:], 42.0, 400, make_rng(seed))
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


def monte_carlo_payoffs(two_factor, curve, settings, grid, exercise_times, strikes, seed, sims=32):
    """The Monte Carlo pricer's payoffs: one (units, strikes) matrix per spike setting, ``sims`` paths from ``seed``."""
    return strip_payoffs(two_factor, curve, settings, grid, exercise_times, strikes, sims, make_rng(seed))


# Each pricer maps (two-factor params, curve, spike settings, grid, exercise
# times, strikes, seed, sims=paths) to one (units, strikes) matrix per setting;
# an exact pricer joins as one more parameter, with a single unit and no use
# for the seed or the paths.
STRIP_PRICERS = [pytest.param(monte_carlo_payoffs, id="monte-carlo")]

# jump laws of c times the sizes: the mixture's rates divided by c, the empirical samples times c
SCALED_LAWS = [
    pytest.param(lambda c: SignedExponentialMixture((0.4, 0.6), (1 / (30 * c), 1 / (60 * c)), (-1, 1)), id="mixture"),
    pytest.param(lambda c: Empirical(c * np.array([-20.0, 35.0, 80.0])), id="empirical"),
]
IDENTITY_GRID = GridSpec(48, 1.0)
STRIKES = st.lists(st.floats(0.0, 150.0), min_size=1, max_size=4)


def scaled_payoffs(pricer, law, c, strikes, seed):
    """Payoffs without and with spikes when the curve level, the jump sizes and every strike are c times 40, law(1) and ``strikes``."""
    spikes = SpikeParams(35.0, 100.0, law(c))
    strikes = tuple(c * k for k in strikes)
    grid = IDENTITY_GRID
    return pricer(MARKET_TF, ForwardCurve.flat(40.0 * c), (None, spikes), grid, grid.times()[1:], strikes, seed)


@pytest.mark.parametrize("law", SCALED_LAWS)
@pytest.mark.parametrize("pricer", STRIP_PRICERS)
class TestStripIdentities:
    """Exact identities of the strip payoffs, on the same paths: homogeneity of degree 1 and convexity in the strike."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(c=st.sampled_from([0.5, 2.0, 4.0]), strikes=STRIKES, seed=st.integers(0, 2**32 - 1))
    def test_homogeneous_bit_for_bit_at_powers_of_two(self, pricer, law, c, strikes, seed):
        # scaling by a power of two is exact in IEEE arithmetic, so every payoff is exactly c times
        base = scaled_payoffs(pricer, law, 1.0, strikes, seed)
        for scaled, pay in zip(scaled_payoffs(pricer, law, c, strikes, seed), base):
            assert scaled.tobytes() == (c * pay).tobytes()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(c=st.floats(0.1, 10.0), strikes=STRIKES, seed=st.integers(0, 2**32 - 1))
    def test_homogeneous_to_rounding(self, pricer, law, c, strikes, seed):
        base = scaled_payoffs(pricer, law, 1.0, strikes, seed)
        for scaled, pay in zip(scaled_payoffs(pricer, law, c, strikes, seed), base):
            assert np.abs(scaled - c * pay).max() <= 1e-13 * c * max(np.abs(pay).max(), 1.0)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(strikes=st.lists(st.floats(0.0, 150.0), min_size=3, max_size=6, unique=True), seed=st.integers(0, 2**32 - 1))
    def test_convex_in_the_strike_unit_by_unit(self, pricer, law, strikes, seed):
        strikes = sorted(strikes)
        cols = IDENTITY_GRID.n
        for pay in scaled_payoffs(pricer, law, 1.0, strikes, seed):
            # each payoff sums cols terms rounded to half an ulp of themselves, so its error is at most cols * eps * it
            tol = 4 * cols * np.finfo(float).eps * pay.max(axis=1)
            for k in range(len(strikes) - 2):
                lo, mid, hi = strikes[k : k + 3]
                weight = (hi - mid) / (hi - lo)
                chord = weight * pay[:, k] + (1.0 - weight) * pay[:, k + 2]
                assert np.all(pay[:, k + 1] <= chord + tol)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("pricer", STRIP_PRICERS)
def test_unclipped_strip_sums_the_forwards(pricer, seed):
    # below every spot no payoff is clipped, so payoff + K dates = sum_t S_t, whose mean is sum_t f(0, t):
    # the factor leg is checked against the curve and the paired spike leg against the spike correction,
    # on the strip-pricing benchmark's hourly year and 1,024 paths
    grid, strike, curve, spikes = GridSpec(8_760, 1.0), -1e6, TestStripPricing.CURVE, TestStripPricing.SPIKES
    times = grid.times()[1:]
    pays = pricer(MARKET_TF, curve, (None, spikes), grid, times, (strike,), seed, sims=1_024)
    plain, spiky = (pay[:, 0] + strike * times.size for pay in pays)
    targets = curve(times).sum(), sum(forward_spike_arith(0.0, spikes, 0.0, t) for t in times.tolist())
    for sums, target in zip((plain, spiky - plain), targets):
        assert abs(sums.mean() - target) <= 4 * sums.std(ddof=1) / math.sqrt(sums.size)


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
