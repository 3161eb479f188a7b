import dataclasses
import inspect
import math

import numpy as np
import pytest

from qchan import (
    AmplitudeDamping,
    Depolarizing,
    DomainError,
    GeneralKraus,
    MinimaxResult,
    MixedChannelPair,
    binary_entropy,
    capacity_amplitude_damping,
    capacity_depolarizing,
    capacity_two_amplitude_damping,
    capacity_two_depolarizing,
    chi_ad_curve,
    chi_dep_curve,
    dchi_dgamma,
    kraus_amplitude_damping,
    minimax_capacity,
    monotonicity_df_da,
    monotonicity_f,
    separation_pair,
)
from qchan import mixtures
from qchan.mixtures import SEPARATION_GAMMA, SEPARATION_LAMBDA, crossings

LN2 = math.log(2.0)

# Independent high-precision evaluations.
DCHI_DGAMMA_03_04 = -0.60922740237168886438
F_075_05 = 1.1251911220515699223
DF_DA_06_03 = 2.1877150480212720241
# Fixture values from 40-digit root finding on the shipped separation pair.
FIXTURE_SUPMIN = 0.46731180785944239
FIXTURE_A_CROSS = 0.54466474097614514
FIXTURE_GAP = 0.003327326853193246


class TestHomogeneousPairs:
    def test_two_ad_reduces_to_worse(self):
        same = capacity_two_amplitude_damping(0.4, 0.4)
        assert same.capacity_bits == capacity_amplitude_damping(0.4).capacity_bits
        assert capacity_two_amplitude_damping(0.0, 0.4).capacity_bits == same.capacity_bits
        worse = capacity_two_amplitude_damping(0.2, 0.6)
        assert worse.capacity_bits == capacity_amplitude_damping(0.6).capacity_bits

    def test_two_dep_closed_form(self):
        assert capacity_two_depolarizing(0.0, 0.0).capacity_bits == 1.0
        for lam in (0.2, 0.5, 0.9):
            assert capacity_two_depolarizing(lam, lam).capacity_bits == pytest.approx(
                1.0 - binary_entropy(0.5 * lam), abs=1e-15
            )
        assert capacity_two_depolarizing(0.3, 0.7).capacity_bits == pytest.approx(
            1.0 - binary_entropy(0.35), abs=1e-15
        )

    def test_minimax_consistent_with_closed_forms(self, rng):
        for _ in range(20):
            l1, l2 = rng.uniform(size=2)
            pair = MixedChannelPair(Depolarizing(l1), Depolarizing(l2))
            closed = capacity_two_depolarizing(l1, l2).capacity_bits
            assert abs(minimax_capacity(pair).capacity_bits - closed) < 1e-8
        for _ in range(20):
            g1, g2 = rng.uniform(size=2)
            pair = MixedChannelPair(AmplitudeDamping(g1), AmplitudeDamping(g2))
            closed = capacity_two_amplitude_damping(g1, g2).capacity_bits
            assert abs(minimax_capacity(pair).capacity_bits - closed) < 1e-6


class TestMinimax:
    def test_identical_channels(self):
        pair = MixedChannelPair(AmplitudeDamping(0.5), AmplitudeDamping(0.5))
        result = minimax_capacity(pair)
        assert result.capacity_bits == capacity_amplitude_damping(0.5).capacity_bits
        assert result.min_branch == "tie"

    def test_upper_bound_law(self, rng):
        for _ in range(100):
            channels = []
            for _ in range(2):
                if rng.rand() < 0.5:
                    channels.append(AmplitudeDamping(rng.uniform()))
                else:
                    channels.append(Depolarizing(rng.uniform()))
            pair = MixedChannelPair(*channels)
            cap1 = (capacity_amplitude_damping(channels[0].gamma)
                    if isinstance(channels[0], AmplitudeDamping)
                    else capacity_depolarizing(channels[0].lam)).capacity_bits
            cap2 = (capacity_amplitude_damping(channels[1].gamma)
                    if isinstance(channels[1], AmplitudeDamping)
                    else capacity_depolarizing(channels[1].lam)).capacity_bits
            assert minimax_capacity(pair).capacity_bits <= min(cap1, cap2) + 1e-9

    def test_degenerate_weights(self):
        pair = MixedChannelPair(AmplitudeDamping(0.5), Depolarizing(0.9), weight1=1.0)
        assert minimax_capacity(pair).capacity_bits == capacity_amplitude_damping(0.5).capacity_bits
        pair = MixedChannelPair(AmplitudeDamping(0.5), Depolarizing(0.9), weight1=0.0)
        assert minimax_capacity(pair).capacity_bits == capacity_depolarizing(0.9).capacity_bits

    def test_rejects_general_kraus(self):
        channel = GeneralKraus(tuple(kraus_amplitude_damping(0.5)))
        with pytest.raises(DomainError):
            minimax_capacity(MixedChannelPair(channel, Depolarizing(0.5)))

    def test_rejects_general_kraus_dead_branch(self):
        dead = GeneralKraus(tuple(kraus_amplitude_damping(0.5)))
        live = Depolarizing(0.5)
        for pair in (MixedChannelPair(live, dead, 1.0), MixedChannelPair(dead, live, 0.0)):
            with pytest.raises(DomainError):
                minimax_capacity(pair)

    def test_solver_does_not_certify(self):
        # certification runs the oracle beside the solver (the CLI's minimax --certify)
        assert list(inspect.signature(minimax_capacity).parameters) == ["pair", "resolution"]
        assert [f.name for f in dataclasses.fields(MinimaxResult)] == [
            "capacity_bits", "a_star", "min_branch", "branch_capacity_1",
            "branch_capacity_2", "a_cross"]

    @pytest.mark.parametrize("resolution", [0.0, -1e-6, math.nan, math.inf])
    def test_rejects_bad_resolution(self, resolution):
        # an infinite resolution used to skip the crossing bisection altogether
        with pytest.raises(DomainError, match="resolution must be positive and finite"):
            minimax_capacity(separation_pair(), resolution=resolution)

    @pytest.mark.parametrize("other", [Depolarizing(0.5), Depolarizing(0.99), AmplitudeDamping(0.3)],
                             ids=["dep0.5", "dep0.99", "ad0.3"])
    def test_sup_min_is_nonnegative_next_to_gamma_one(self, other):
        # the damping branch's capacity decides, and its curve rounds below 0 there
        pair = MixedChannelPair(AmplitudeDamping(1.0 - 2.0 ** -53), other)
        assert minimax_capacity(pair).capacity_bits >= 0.0

    def test_separation_fixture(self):
        result = minimax_capacity(separation_pair())
        cap_ad = capacity_amplitude_damping(SEPARATION_GAMMA)
        cap_dep = capacity_depolarizing(SEPARATION_LAMBDA)
        min_caps = min(cap_ad.capacity_bits, cap_dep.capacity_bits)
        assert result.capacity_bits == pytest.approx(FIXTURE_SUPMIN, abs=1e-6)
        assert result.a_cross == pytest.approx(FIXTURE_A_CROSS, abs=1e-5)
        gap = min_caps - result.capacity_bits
        assert gap == pytest.approx(FIXTURE_GAP, abs=1e-6)
        assert gap > 1e-3
        assert 0.5 < result.a_cross < cap_ad.a_max


def _band_pairs(rng, count):
    """Damping + depolarizing pairs around the band where the branch curves cross."""
    for _ in range(count):
        gamma = rng.uniform(0.4, 0.6)
        yield gamma, 0.24 + 0.6 * (gamma - 0.5) + rng.uniform(-0.01, 0.01)


class TestCrossingPath:
    def test_maximizers_bracket_the_crossing(self, rng):
        on_path = 0
        for gamma, lam in _band_pairs(rng, 100):
            result = minimax_capacity(MixedChannelPair(AmplitudeDamping(gamma), Depolarizing(lam)))
            if result.a_cross is None:
                continue
            on_path += 1
            a1 = capacity_amplitude_damping(gamma).a_max
            a2 = capacity_depolarizing(lam).a_max
            assert min(a1, a2) <= result.a_cross <= max(a1, a2)
        assert on_path > 50

    def test_value_reaches_dense_grid_maximum(self, rng):
        avals = np.linspace(0.0, 1.0, 200_001)
        on_path = 0
        for gamma, lam in _band_pairs(rng, 40):
            result = minimax_capacity(MixedChannelPair(AmplitudeDamping(gamma), Depolarizing(lam)))
            on_path += result.a_cross is not None
            dense = np.max(np.minimum(chi_ad_curve(gamma, avals), chi_dep_curve(lam, avals)))
            assert result.capacity_bits >= dense - 1e-7
        assert on_path > 20

    def test_resolution_below_float_spacing_terminates(self):
        result = minimax_capacity(separation_pair(), resolution=1e-300)
        assert result.a_cross == pytest.approx(FIXTURE_A_CROSS, abs=1e-12)
        assert result.capacity_bits == pytest.approx(FIXTURE_SUPMIN, abs=1e-14)


def _hex_fields(result):
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(result))


def test_solver_equals_the_bisection_of_the_array_curves(monkeypatch):
    # The sup-min bisects float kernels of the branch curves; it must give the bits of
    # bisecting the public curves on one-element arrays (their scalar calls run the
    # float kernels too) on every path: a crossing, a feasible maximizer, a degenerate
    # weight, and branch parameters at the ends of [0, 1].
    rng = np.random.default_rng(20261020)
    channels = {"ad": AmplitudeDamping, "dep": Depolarizing}
    ends = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53]
    pairs = []
    for i, (gamma, lam) in enumerate(_band_pairs(np.random.RandomState(29), 40)):
        pairs.append(MixedChannelPair(AmplitudeDamping(gamma), Depolarizing(lam))
                     if i % 2 else MixedChannelPair(Depolarizing(lam), AmplitudeDamping(gamma)))
    for kind1, kind2 in (("ad", "ad"), ("ad", "dep"), ("dep", "ad"), ("dep", "dep")):
        for i in range(120):
            p1, p2 = rng.random(2).tolist()
            if i % 10 < 4:
                p1 = ends[i % 10]
            weight = (0.0, 1.0, 0.5, rng.random())[i % 4]
            pairs.append(MixedChannelPair(channels[kind1](p1), channels[kind2](p2), weight))

    def array_curve(channel):
        curve = chi_ad_curve if isinstance(channel, AmplitudeDamping) else chi_dep_curve
        param = channel.gamma if isinstance(channel, AmplitudeDamping) else channel.lam
        return lambda a: float(curve(np.array([param]), np.array([a]))[0])

    resolutions = (1e-6, 1e-12)
    results = [_hex_fields(minimax_capacity(pair, r)) for pair in pairs for r in resolutions]
    monkeypatch.setattr(mixtures, "_branch_curve", array_curve)
    expected = [_hex_fields(minimax_capacity(pair, r)) for pair in pairs for r in resolutions]
    assert sum(e[5] is not None for e in expected) > 60
    assert results == expected


class TestCrossings:
    @pytest.mark.parametrize("gamma", [0.45, 0.48, 0.52, 0.55])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_resolution_below_float_spacing_terminates(self, gamma, sign):
        # Bisection stops at adjacent floats; the counter turns a hang into a failure.
        grid = np.linspace(0.0, 1.0, 101)
        calls = []

        def diff(a):
            calls.append(a)
            assert len(calls) < 10_000, "crossing bisection does not terminate"
            return sign * (chi_ad_curve(gamma, a) - chi_dep_curve(SEPARATION_LAMBDA, a))

        values = sign * (chi_ad_curve(gamma, grid) - chi_dep_curve(SEPARATION_LAMBDA, grid))
        found = crossings(diff, grid.tolist(), values, 1e-300)
        assert found
        for i, a in found:
            assert grid[i] <= a <= grid[i + 1]
            assert abs(diff(a)) < 1e-15

    @pytest.mark.parametrize("root, expected", [(0.25, [(1, 0.25)]), (0.75, [(3, 0.75)]),
                                                (0.0, []), (1.0, [])])
    def test_exact_zeros_count_at_every_grid_point_but_the_ends(self, root, expected):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        values = [root - a for a in grid]
        assert crossings(lambda a: root - a, grid, values, 1e-12) == expected


class TestGammaMonotonicity:
    def test_frozen_value(self):
        assert dchi_dgamma(0.3, 0.4) == pytest.approx(DCHI_DGAMMA_03_04, abs=1e-12)

    def test_nonpositive_on_interior_grid(self):
        gammas = np.linspace(0.01, 0.99, 101)[:, None]
        avals = np.linspace(0.0, 0.99, 100)[None, :]
        assert np.max(dchi_dgamma(gammas, avals)) <= 1e-10

    def test_vanishes_as_a_approaches_one(self):
        assert abs(dchi_dgamma(0.4, 1.0 - 1e-9)) < 1e-6

    def test_matches_finite_differences(self):
        step = 1e-6
        avals = np.linspace(0.0, 0.95, 40)
        for gamma in np.linspace(0.05, 0.95, 25):
            fd = (chi_ad_curve(gamma + step, avals) - chi_ad_curve(gamma - step, avals)) \
                / (2 * step) * LN2
            assert np.max(np.abs(dchi_dgamma(gamma, avals) - fd)) < 1e-5

    def test_pointwise_curve_ordering(self, rng):
        avals = np.linspace(0.0, 1.0, 101)
        for _ in range(50):
            g1, g2 = np.sort(rng.uniform(size=2))
            assert np.all(chi_ad_curve(g1, avals) >= chi_ad_curve(g2, avals) - 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            dchi_dgamma(0.0, 0.5)
        with pytest.raises(DomainError):
            dchi_dgamma(0.5, 1.0)


class TestMonotonicityCertificate:
    def test_vanishes_at_a_zero(self):
        assert monotonicity_f(0.75, 0.0) == 0.0
        for gamma in np.linspace(0.55, 0.95, 9):
            assert abs(monotonicity_f(gamma, 0.0)) < 1e-12

    def test_frozen_value(self):
        assert monotonicity_f(0.75, 0.5) == pytest.approx(F_075_05, abs=1e-12)

    def test_nonnegative_on_grid(self):
        gammas = np.linspace(0.501, 0.999, 80)[:, None]
        avals = np.linspace(0.0, 0.99, 80)[None, :]
        assert np.min(monotonicity_f(gammas, avals)) >= -1e-10

    def test_derivative_frozen_and_positive(self):
        value = monotonicity_df_da(0.6, 0.3)
        assert value > 0.0
        assert value == pytest.approx(DF_DA_06_03, abs=1e-10)

    def test_derivative_matches_finite_differences(self):
        step = 1e-6
        avals = np.linspace(0.01, 0.95, 40)
        for gamma in np.linspace(0.55, 0.95, 20):
            fd = (monotonicity_f(gamma, avals + step) - monotonicity_f(gamma, avals - step)) / (2 * step)
            assert np.max(np.abs(monotonicity_df_da(gamma, avals) - fd)) < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            monotonicity_f(0.5, 0.3)
        with pytest.raises(DomainError):
            monotonicity_df_da(0.4, 0.3)
