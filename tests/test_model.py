"""Jump-size laws, grids and the continuous legs."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikelab.model import (
    Empirical,
    ExpOU,
    Flat,
    ForwardCurve,
    GridSpec,
    JumpLaw,
    SampledPath,
    SignedExponentialMixture,
    TwoFactorParams,
    sign,
)
from spikelab.simulate import make_rng

from mc_oracles import exp_moment_integral_quadrature

MIX = SignedExponentialMixture((0.4, 0.6), (15.0, 10.0), (-1, 1))


def test_sign_convention_at_zero():
    assert sign(0.0) == 1.0
    assert sign(-0.5) == -1.0
    assert np.array_equal(sign(np.array([-1.0, 0.0, 2.0])), [-1.0, 1.0, 1.0])


class TestGrid:
    def test_mesh_is_exact_ratio(self):
        grid = GridSpec(10_000, 1.0)
        assert grid.mesh == 1.0 / 10_000
        assert grid.times().shape == (10_001,)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            GridSpec(1)

    def test_path_length_checked(self):
        with pytest.raises(ValueError):
            SampledPath(GridSpec(4), np.zeros(4))
        with pytest.raises(ValueError):
            SampledPath(GridSpec(4), np.array([0.0, 1.0, np.inf, 0.0, 0.0]))


class TestMoments:
    def test_point_mass_moments(self):
        law = Empirical([-3.0])
        assert law.moment(1, "signed") == -3.0
        assert law.moment(2, "absolute") == 9.0
        assert law.moment(1, "sign") == -1.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("a", [2.5, -3.0, 0.1])
    def test_point_mass_power_identity(self, a, m):
        assert Empirical([a]).moment(m, "signed") == pytest.approx(a**m)

    def test_mixture_hand_values(self):
        assert MIX.moment(1, "sign") == pytest.approx(0.6 - 0.4)
        assert MIX.moment(1, "absolute") == pytest.approx(0.4 / 15 + 0.6 / 10)
        assert MIX.moment(1, "signed") == pytest.approx(-0.4 / 15 + 0.6 / 10)
        # second moment of Exp(b) is 2 / b^2
        assert MIX.moment(2, "absolute") == pytest.approx(0.4 * 2 / 225 + 0.6 * 2 / 100)

    def test_empirical_moments_are_plain_averages(self):
        law = Empirical(np.array([1.0, -2.0, 3.0]))
        assert law.moment(1, "signed") == (1 - 2 + 3) / 3
        assert law.moment(2, "absolute") == (1 + 4 + 9) / 3
        assert law.moment(1, "sign") == pytest.approx(1 / 3)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            SignedExponentialMixture((0.5, 0.6), (1.0, 1.0), (1, 1))
        with pytest.raises(ValueError):
            SignedExponentialMixture((0.4, 0.6), (-1.0, 1.0), (1, 1))
        with pytest.raises(ValueError):
            SignedExponentialMixture((0.4, 0.6), (1.0, 1.0), (2, 1))


class TestParameterValidation:
    @pytest.mark.parametrize(
        "build, name",
        [
            pytest.param(lambda: SignedExponentialMixture((math.nan, 0.6), (15.0, 10.0), (-1, 1)), "weights", id="nan-weight"),
            pytest.param(lambda: SignedExponentialMixture((0.4, 0.6), (math.nan, 10.0), (-1, 1)), "rates", id="nan-rate"),
            pytest.param(lambda: SignedExponentialMixture((0.4, 0.6), (math.inf, 10.0), (-1, 1)), "rates", id="inf-rate"),
            pytest.param(lambda: SignedExponentialMixture((0.4, 0.6), (15.0, 10.0), (-1.7, 1.2)), "signs", id="fractional-signs"),
            pytest.param(lambda: SignedExponentialMixture((0.4, 0.6), (15.0, 10.0), (math.nan, 1.0)), "signs", id="nan-sign"),
            pytest.param(lambda: ExpOU(-5.0, 2.0), "reversion", id="negative-reversion"),
            pytest.param(lambda: ExpOU(math.nan, 2.0), "reversion", id="nan-reversion"),
            pytest.param(lambda: ExpOU(100.0, math.inf), "vol", id="inf-vol"),
            pytest.param(lambda: ExpOU(100.0, 2.0, math.inf), "initial", id="inf-initial"),
            pytest.param(lambda: Flat(math.nan), "level", id="nan-level"),
            pytest.param(lambda: Flat(-math.inf), "level", id="inf-level"),
            pytest.param(lambda: TwoFactorParams(math.inf, 1.03, 0.25, -0.11), "alpha", id="inf-alpha"),
            pytest.param(lambda: TwoFactorParams(12.56, math.nan, 0.25, -0.11), "sigma_s", id="nan-sigma-s"),
            pytest.param(lambda: TwoFactorParams(12.56, 1.03, math.inf, -0.11), "sigma_l", id="inf-sigma-l"),
            pytest.param(lambda: ForwardCurve.flat(math.inf), "forward curve levels", id="inf-curve-level"),
        ],
    )
    def test_rejected_in_one_line_naming_the_field(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} must be") as info:
            build()
        assert "\n" not in str(info.value)

    def test_float_signs_of_exactly_one_are_ints(self):
        assert SignedExponentialMixture((0.4, 0.6), (15.0, 10.0), (-1.0, 1.0)).signs == (-1, 1)

    def test_zero_reversion_is_the_brownian_limit(self):
        assert ExpOU(0.0, 2.0).reversion == 0.0


class TestExpMoments:
    @pytest.mark.parametrize(
        "law", [MIX, Empirical([0.7]), Empirical(np.array([0.3, -0.2, 1.1]))]
    )
    def test_normalization_at_zero(self, law):
        assert law.exp_moment(0.0) == pytest.approx(1.0)

    def test_point_mass_exponential(self):
        assert Empirical([2.0]).exp_moment(0.3) == pytest.approx(math.exp(0.6))

    def test_mixture_hand_value(self):
        # 0.4 * 15/16 + 0.6 * 10/9
        assert MIX.exp_moment(1.0) == pytest.approx(0.4 * 15 / 16 + 0.6 * 10 / 9)

    def test_divergence_names_component(self):
        with pytest.raises(ValueError, match="rate 10"):
            MIX.exp_moment(10.0)

    @pytest.mark.parametrize(
        "law", [MIX, Empirical([-1.5]), Empirical(np.array([0.5, -0.25, 2.0]))]
    )
    def test_convexity_on_strip(self, law):
        us = np.linspace(-0.9, 0.9, 9)
        vals = [law.exp_moment(u) for u in us]
        mids = [law.exp_moment(0.5 * (a + b)) for a, b in zip(us[:-1], us[1:])]
        for lo, hi, mid in zip(vals[:-1], vals[1:], mids):
            assert mid <= 0.5 * (lo + hi) + 1e-12



# jump sizes of either sign with |x| in [1e-4, 30], across the |x| = 5 switch
# between the short series and the long series or E1 differences
SIZES = st.builds(
    lambda magnitude, sgn: sgn * magnitude,
    st.floats(1e-4, 30.0),
    st.sampled_from((-1.0, 1.0)),
)
# eps on [e^-30, 1 - 1e-9]: drawn directly and log-uniformly, so that both
# ends (tiny eps, eps next to 1) are explored
EPS = st.one_of(
    st.floats(math.exp(-30.0), 1.0 - 1e-9),
    st.floats(-30.0, math.log1p(-1e-9)).map(math.exp),
)


@st.composite
def mixtures(draw):
    k = draw(st.integers(1, 3))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=k, max_size=k))
    # sign < rate keeps phi finite on [0, 1]; 0.05 away from the pole
    rates = [draw(st.floats(max(s, 0) + 0.05, 200.0)) for s in signs]
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    weights = [w / sum(raw) for w in raw]
    return SignedExponentialMixture(tuple(weights), tuple(rates), tuple(signs))


# one entry per law class, each with its strategies; one-atom empirical laws
# (point masses) are a branch of their own, drawn as often as each other branch
LAW_STRATEGIES = {
    SignedExponentialMixture: (mixtures(),),
    Empirical: (
        SIZES.map(lambda x: Empirical([x])),
        st.lists(SIZES, min_size=1, max_size=8).map(lambda xs: Empirical(np.array(xs))),
    ),
}
LAWS = st.one_of(*(strategy for strategies in LAW_STRATEGIES.values() for strategy in strategies))


def test_law_strategies_cover_every_law():
    assert set(LAW_STRATEGIES) == set(JumpLaw.__subclasses__())


class TestExpMomentIntegral:
    @settings(max_examples=200, deadline=None)
    @given(law=LAWS, eps=EPS)
    # eps next to 1 beyond |x| = 5, where differences of two Ein values lost
    # up to 1.7e-7 relative
    @example(law=Empirical([5.0001]), eps=1 - 1e-9)
    @example(law=Empirical([30.0]), eps=1 - 1e-9)
    @example(law=Empirical([-7.0]), eps=1 - 1e-9)
    @example(law=Empirical(np.array([12.0, -30.0])), eps=1 - 1e-7)
    def test_matches_quadrature(self, law, eps):
        got = law.exp_moment_integral(eps)
        want, scale = exp_moment_integral_quadrature(law, eps)
        # scale = |want| unless parts of both signs cancel in the sum
        assert abs(got - want) <= max(1e-10 * scale, 1e-14)

    @pytest.mark.parametrize("law", [MIX, Empirical([-2.0]), Empirical(np.array([0.3, -0.2]))])
    def test_vanishes_at_eps_one(self, law):
        assert law.exp_moment_integral(1.0) == 0.0

    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_mixture_pole_names_component(self, rate):
        law = SignedExponentialMixture((0.5, 0.5), (15.0, rate), (-1, 1))
        with pytest.raises(ValueError, match=f"component 1 \\(sign \\+1, rate {rate}\\)"):
            law.exp_moment_integral(0.2)

    def test_unrepresentable_moment_names_law(self):
        with pytest.raises(ValueError, match=r"empirical law \(size 1000\.0\)"):
            Empirical([1000.0]).exp_moment_integral(0.5)
        with pytest.raises(ValueError, match="empirical"):
            Empirical(np.array([1000.0, 2.0])).exp_moment_integral(0.5)

    @pytest.mark.parametrize("size", [-5.5, -30.0, -700.0])
    def test_eps_zero_is_the_limit_of_tiny_eps(self, size):
        # eps = exp(-beta (T - t)) is 0.0 once beta (T - t) > 745
        law = Empirical([size])
        assert law.exp_moment_integral(0.0) == pytest.approx(law.exp_moment_integral(1e-300), rel=1e-12)


class TestSampling:
    def test_point_mass_constant(self):
        rng = np.random.default_rng(0)
        assert all(Empirical([2.5]).sample(rng, 1)[0] == 2.5 for _ in range(100))

    @pytest.mark.parametrize("k", [0, 1, 5, 1000])
    def test_one_atom_draws_consume_no_stream(self, k):
        # so a one-atom empirical law simulates the same paths as a constant jump size
        rng, fresh = make_rng(3), make_rng(3)
        assert np.all(Empirical([2.5]).sample(rng, k) == 2.5)
        assert rng.random() == fresh.random()

    def test_mixture_mean_matches_analytic(self):
        rng = np.random.default_rng(7)
        draws = MIX.sample(rng, 1_000_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - MIX.moment(1, "signed")) < 4 * se
        assert np.all(draws != 0.0)

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(11)
        law = Empirical(np.array([1.0, -2.0, 3.0]))
        draws = law.sample(rng, 1_000_000)
        for value in (1.0, -2.0, 3.0):
            freq = np.mean(draws == value)
            assert freq == pytest.approx(1 / 3, abs=4 * math.sqrt((1 / 3) * (2 / 3) / draws.size))


def choice_mixture_draws(law, rng, size):
    """Mixture draws with the component from ``Generator.choice(p=weights)``, zero draws redrawn."""

    def draw(m):
        comp = rng.choice(len(law.weights), size=m, p=law.weights)
        return np.asarray(law.signs, dtype=float)[comp] * rng.exponential(1.0, m) / np.asarray(law.rates)[comp]

    draws = draw(size)
    while (zero := draws == 0.0).any():
        draws[zero] = draw(int(zero.sum()))
    return draws


class ZeroedExponentials:
    """A generator whose first ``exponential`` draw is 0.0 at ``positions``, forcing a redraw."""

    def __init__(self, rng, positions):
        self.rng, self.positions = rng, positions

    def exponential(self, *args):
        out = self.rng.exponential(*args)
        if self.positions is not None:
            out[[p for p in self.positions if p < out.size]] = 0.0
            self.positions = None
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestMixtureComponentDraw:
    @settings(max_examples=150, deadline=None)
    @given(
        law=mixtures(),
        size=st.integers(0, 50),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.lists(st.integers(0, 49), max_size=4),
    )
    @example(law=MIX, size=6, seed=3, zeros=[0, 5])
    def test_same_draws_and_stream_as_choice(self, law, size, seed, zeros):
        ours = ZeroedExponentials(np.random.default_rng(seed), zeros)
        theirs = ZeroedExponentials(np.random.default_rng(seed), zeros)
        assert law.sample(ours, size).tobytes() == choice_mixture_draws(law, theirs, size).tobytes()
        assert ours.rng.random() == theirs.rng.random()  # as many doubles consumed

    def test_uniform_on_a_cdf_step_takes_the_next_component(self):
        # as in Generator.choice: component i for cdf[i - 1] <= u < cdf[i]
        law = SignedExponentialMixture((0.5, 0.5), (1.0, 2.0), (1, -1))
        stub = mock.Mock(random=lambda m: np.array([0.5, 0.0])[:m], exponential=lambda scale, m: np.ones(m))
        assert law.sample(stub, 2).tolist() == [-0.5, 1.0]

    def test_forced_zero_is_redrawn(self):
        draws = MIX.sample(ZeroedExponentials(np.random.default_rng(1), [0, 2]), 4)
        assert draws.shape == (4,) and np.all(draws != 0.0)


class TestSampledPath:
    def test_an_owned_array_is_handed_over_read_only(self):
        values = np.array([0.0, 1.0, 3.0, 2.0, 2.5])
        path = SampledPath(GridSpec(4), values)
        assert path.values is values
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 9.0

    def test_a_writable_view_is_copied(self):
        base = np.array([7.0, 0.0, 1.0, 3.0, 2.0, 2.5])
        path = SampledPath(GridSpec(4), base[1:])
        base[1] = 9.0
        assert path.values[0] == 0.0 and base.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            path.values[0] = 1.0

    def test_a_rejected_array_stays_writable(self):
        values = np.array([0.0, np.nan, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            SampledPath(GridSpec(4), values)
        assert values.flags.writeable

    def test_a_read_only_view_of_a_writable_array_is_copied(self):
        base = np.array([0.0, 1.0, 3.0, 2.0, 2.5])
        view = base[:]
        view.flags.writeable = False
        path = SampledPath(GridSpec(4), view)
        path.increments()
        base[0] = 9.0
        assert path.values[0] == 0.0 and path.increments()[0] == 1.0

    def test_increments_are_computed_once_and_read_only(self):
        path = SampledPath(GridSpec(4), np.array([0.0, 1.0, 3.0, 2.0, 2.5]))
        incr = path.increments()
        assert incr is path.increments()
        assert incr.tolist() == [1.0, 2.0, -1.0, 0.5]
        with pytest.raises(ValueError, match="read-only"):
            incr[0] = 0.0
