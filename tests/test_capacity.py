import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchan import (
    AmplitudeDamping,
    Depolarizing,
    DomainError,
    Ensemble,
    QubitState,
    binary_entropy,
    capacity_amplitude_damping,
    capacity_depolarizing,
    chi_ad_curve,
    chi_ad_derivative,
    chi_dep_curve,
    dchi_dgamma,
    holevo_chi,
    mirror_pair,
    monotonicity_df_da,
    monotonicity_f,
)
from qchan.capacity import bisect_sign_change
from conftest import random_ensemble

LN2 = math.log(2.0)

# High-precision values computed independently (root-finding on the derivative
# at 40 decimal digits, direct entropy evaluation).
AD_HALF_A_MAX = 0.59610522734009859
AD_HALF_CAPACITY = 0.4717293905985839
CHI_AD_HALF_HALF = 0.45669922179386297971
DCHI_AD_HALF_HALF = 0.30446614786257531981
DCHI_AD_03_07 = -0.59505364256090136427
DEP_HALF_CAPACITY = 0.18872187554086713609
CHI_DEP_HALF_075 = 0.14315587846583210063


class TestHolevoChi:
    def test_single_state_vanishes(self, rng):
        from conftest import random_state

        for _ in range(50):
            ens = Ensemble(((1.0, random_state(rng)),))
            assert holevo_chi(AmplitudeDamping(rng.uniform()), ens) == 0.0

    def test_orthogonal_pair_through_identity(self):
        ens = Ensemble(((0.5, QubitState(0.0)), (0.5, QubitState(1.0))))
        assert holevo_chi(AmplitudeDamping(0.0), ens) == 1.0

    def test_depolarizing_two_state_closed_form(self):
        ens = Ensemble(((0.5, QubitState(0.0)), (0.5, QubitState(1.0))))
        for lam in np.linspace(0.0, 1.0, 11):
            expected = 1.0 - binary_entropy(0.5 * lam)
            assert holevo_chi(Depolarizing(lam), ens) == pytest.approx(expected, abs=1e-14)

    def test_bounds(self, rng):
        for _ in range(200):
            channel = AmplitudeDamping(rng.uniform()) if rng.rand() < 0.5 else Depolarizing(rng.uniform())
            value = holevo_chi(channel, random_ensemble(rng))
            assert -1e-12 <= value <= 1.0 + 1e-12


class TestChiAdCurve:
    def test_identity_at_half(self):
        assert chi_ad_curve(0.0, 0.5) == 1.0

    def test_vanishes_at_fixed_point(self):
        for gamma in np.linspace(0.0, 1.0, 11):
            assert chi_ad_curve(gamma, 1.0) == 0.0

    def test_frozen_value(self):
        assert chi_ad_curve(0.5, 0.5) == pytest.approx(CHI_AD_HALF_HALF, abs=1e-14)

    def test_matches_holevo_chi_on_mirror_pairs(self):
        for gamma in np.linspace(0.05, 0.95, 7):
            for a in np.linspace(0.0, 1.0, 21):
                direct = holevo_chi(AmplitudeDamping(gamma), mirror_pair(a))
                assert abs(chi_ad_curve(gamma, a) - direct) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi_ad_curve(-0.1, 0.5)
        with pytest.raises(DomainError):
            chi_ad_curve(0.5, 1.2)


class TestChiAdDerivative:
    def test_positive_at_half_frozen(self):
        value = chi_ad_derivative(0.5, 0.5)
        assert value > 0.0
        assert value == pytest.approx(DCHI_AD_HALF_HALF, abs=1e-13)

    def test_frozen_interior_value(self):
        assert chi_ad_derivative(0.3, 0.7) == pytest.approx(DCHI_AD_03_07, abs=1e-12)

    def test_half_point_formula(self):
        # At a = 1/2 the derivative collapses to an explicit expression in x.
        for gamma in np.linspace(0.01, 0.99, 25):
            x = math.sqrt(1.0 - gamma + gamma * gamma)
            expected = (
                -(1.0 - gamma) * math.log((1.0 + gamma) / (1.0 - gamma))
                + gamma * (1.0 - gamma) / x * math.log((1.0 + x) / (1.0 - x))
            ) / LN2
            assert chi_ad_derivative(gamma, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_matches_central_differences(self):
        step = 1e-6
        gammas = np.linspace(0.05, 0.95, 19)
        avals = np.linspace(0.01, 0.95, 53)
        for gamma in gammas:
            fd = (chi_ad_curve(gamma, avals + step) - chi_ad_curve(gamma, avals - step)) / (2 * step)
            assert np.max(np.abs(chi_ad_derivative(gamma, avals) - fd)) < 1e-5

    def test_domain_errors(self):
        for bad in ((0.0, 0.5), (1.0, 0.5), (0.5, 1.0)):
            with pytest.raises(DomainError):
                chi_ad_derivative(*bad)

    def test_stable_near_singular_corner(self):
        # gamma = 1/2, a = 0 drives x -> 0; the series branch must kick in.
        assert np.isfinite(chi_ad_derivative(0.5, 0.0))
        assert chi_ad_derivative(0.5, 1.0 - 1e-9) < 0.0


class TestCapacityAmplitudeDamping:
    def test_noiseless(self):
        result = capacity_amplitude_damping(0.0)
        assert result.capacity_bits == 1.0
        assert result.method == "closed_form"

    def test_constant_channel(self):
        assert capacity_amplitude_damping(1.0).capacity_bits == 0.0

    def test_frozen_fixture_gamma_half(self):
        result = capacity_amplitude_damping(0.5)
        assert result.capacity_bits == pytest.approx(AD_HALF_CAPACITY, abs=1e-12)
        assert result.a_max == pytest.approx(AD_HALF_A_MAX, abs=1e-8)
        assert result.residual < 1e-8
        assert result.method == "root_bisection"

    def test_grid_oracle_gamma_half(self):
        # independent check: exhaustive curve maximization on a 1e-6 grid
        grid = np.arange(0.5, 1.0, 1e-6)
        grid_max = float(np.max(chi_ad_curve(0.5, grid)))
        solver = capacity_amplitude_damping(0.5).capacity_bits
        assert grid_max - 1e-12 <= solver <= grid_max + 1e-9

    def test_maximizer_properties(self):
        for gamma in np.linspace(0.05, 0.95, 19):
            result = capacity_amplitude_damping(gamma)
            assert result.a_max >= 0.5
            assert 0.0 <= result.capacity_bits <= 1.0
            assert result.residual <= 1e-10
            assert abs(chi_ad_derivative(gamma, result.a_max)) == result.residual

    def test_maximizer_continuity_at_zero(self):
        assert abs(capacity_amplitude_damping(1e-4).a_max - 0.5) < 1e-3

    def test_derivative_positive_at_half_everywhere(self):
        gammas = np.linspace(0.005, 0.995, 100)
        assert np.all(chi_ad_derivative(gammas, 0.5) > 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            capacity_amplitude_damping(1.5)
        with pytest.raises(DomainError):
            capacity_amplitude_damping(0.5, tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
    def test_rejects_bad_tol(self, tol):
        # An infinite tol used to stop the bisection before its first step.
        with pytest.raises(DomainError, match="tol"):
            capacity_amplitude_damping(0.5, tol=tol)


# Bracket ends over the whole finite range, where lo + hi can overflow; subnormal ends
# and widths are drawn too.
BRACKET_ENDS = st.floats(-sys.float_info.max, sys.float_info.max)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(lo=BRACKET_ENDS, hi=BRACKET_ENDS, share=st.floats(0.0, 1.0),
       width=st.floats(5e-324, math.inf), residual=st.sampled_from([math.inf, 0.5, 0.0]))
# 0.5 * (lo + hi) is inf on the first bracket; halving first rounds 0.5 * 5e-324 to 0
@example(lo=1.6e308, hi=1.79e308, share=0.5, width=1.0, residual=math.inf)
@example(lo=5e-324, hi=5e-324, share=0.0, width=5e-324, residual=0.0)
@example(lo=-1.5e-323, hi=-1.5e-323, share=0.0, width=5e-324, residual=0.0)
def test_bisect_sign_change_ends_inside_its_bracket(lo, hi, share, width, residual):
    # f > 0 on lo's side of a root drawn in the bracket, for either orientation; the
    # weighted form cannot overflow, unlike lo + share * (hi - lo)
    root = (1.0 - share) * lo + share * hi
    sign = 1.0 if lo <= hi else -1.0
    calls = []

    def f(x):
        calls.append(x)
        return sign * (root - x)

    mid, f_mid, halvings = bisect_sign_change(f, lo, hi, width, residual)
    assert halvings <= 200 and len(calls) == halvings + 1
    assert min(lo, hi) <= mid <= max(lo, hi)
    assert f_mid == f(mid)


def test_bisect_sign_change_without_a_sign_change_closes_on_an_end():
    # The bracket closes on lo where f <= 0 throughout and on hi where f > 0, and mid
    # is its centre: the oracle's saddle takes both ends of that bracket.
    for value, mid in ((-1.0, 2.0 ** -41), (1.0, 1.0 - 2.0 ** -41)):
        assert bisect_sign_change(lambda x: value, 0.0, 1.0, 2.0 ** -40) == (mid, value, 40)


# Parameter pairs: half of them adjacent floats, half drawn independently.
PARAMS = st.floats(0.0, 1.0)
PARAM_PAIRS = st.one_of(
    PARAMS.map(lambda p: (p, math.nextafter(p, 2.0) if p < 1.0 else p)),
    st.tuples(PARAMS, PARAMS),
)


@pytest.mark.parametrize("capacity", [capacity_amplitude_damping, capacity_depolarizing],
                         ids=["gamma", "lambda"])
@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(pair=PARAM_PAIRS)
def test_capacity_is_non_increasing_in_the_noise(capacity, pair):
    low, high = sorted(pair)
    assert capacity(high).capacity_bits <= capacity(low).capacity_bits + 1e-15


def _kernel_points():
    """Seeded (p, a) in (0, 1) x [0, 1): uniform, a near 1, p below 1e-9, and one
    point where scalar and array chi_ad_curve once disagreed in the last bit."""
    rng = np.random.default_rng(20261018)
    p = np.concatenate([rng.random(9800), rng.random(100), 1e-9 * rng.random(100),
                        [0.6721857253050835, 1e-300, 5e-324, 0.5]])
    a = np.concatenate([rng.random(9800), 1.0 - 1e-6 * rng.random(100), rng.random(100),
                        [0.49646555979497975, 1.0 - 2.0**-53, 0.5, 0.0]])
    return p, a


class TestScalarKernel:
    """Two scalar inputs take the float kernel, arrays the numpy kernel."""

    @pytest.mark.parametrize("curve", [chi_ad_curve, chi_ad_derivative, chi_dep_curve,
                                       dchi_dgamma, monotonicity_f, monotonicity_df_da])
    def test_scalar_calls_equal_array_entries(self, curve):
        p, a = _kernel_points()
        if curve in (monotonicity_f, monotonicity_df_da):  # gamma must lie in (1/2, 1)
            p = 0.5 + 0.5 * p
            inside = (p > 0.5) & (p < 1.0)
            p, a = p[inside], a[inside]
        expected = curve(p, a).tolist()
        scalar = [curve(pi, ai) for pi, ai in zip(p.tolist(), a.tolist())]
        assert all(type(value) is float for value in scalar)
        mismatches = [(pi, ai, s, e) for pi, ai, s, e in zip(p.tolist(), a.tolist(), scalar, expected)
                      if s != e]
        assert mismatches == []

    @pytest.mark.parametrize("curve, p, a", [
        (chi_ad_curve, math.nan, 0.5), (chi_ad_curve, -0.1, 0.5), (chi_ad_curve, 0.5, 1.2),
        (chi_dep_curve, 0.5, math.nan), (chi_dep_curve, math.inf, 0.5),
        (chi_ad_derivative, 0.0, 0.5), (chi_ad_derivative, 1.0, 0.5),
        (chi_ad_derivative, math.nan, 0.5), (chi_ad_derivative, 0.5, 1.0),
        (chi_ad_derivative, 0.5, -1e-300),
        (dchi_dgamma, 0.0, 0.5), (dchi_dgamma, 0.5, 1.0), (monotonicity_f, 0.5, 0.3),
        (monotonicity_df_da, 1.0, 0.3), (monotonicity_f, 0.75, math.nan),
    ])
    def test_scalar_and_array_reject_alike(self, curve, p, a):
        # The scalar message may append the offending value ("..., got nan").
        with pytest.raises(DomainError) as scalar:
            curve(p, a)
        with pytest.raises(DomainError) as array:
            curve(np.array([p]), np.array([a]))
        assert str(scalar.value).startswith(str(array.value))


class TestCapacityDepolarizing:
    def test_endpoints(self):
        assert capacity_depolarizing(0.0).capacity_bits == 1.0
        assert capacity_depolarizing(1.0).capacity_bits == 0.0

    def test_frozen_half(self):
        assert capacity_depolarizing(0.5).capacity_bits == pytest.approx(
            DEP_HALF_CAPACITY, abs=1e-15
        )

    def test_maximizer(self):
        result = capacity_depolarizing(0.3)
        assert result.a_max == 0.5
        assert result.method == "closed_form"


class TestChiDepCurve:
    def test_capacity_point(self):
        for lam in np.linspace(0.0, 1.0, 11):
            expected = 1.0 - binary_entropy(0.5 * lam)
            assert chi_dep_curve(lam, 0.5) == pytest.approx(expected, abs=1e-15)

    def test_identity_gives_binary_entropy(self):
        for a in np.linspace(0.0, 1.0, 11):
            assert chi_dep_curve(0.0, a) == binary_entropy(a)

    def test_frozen_value(self):
        assert chi_dep_curve(0.5, 0.75) == pytest.approx(CHI_DEP_HALF_075, abs=1e-14)

    def test_matches_holevo_chi(self):
        for lam in np.linspace(0.05, 0.95, 7):
            for a in np.linspace(0.0, 1.0, 21):
                direct = holevo_chi(Depolarizing(lam), mirror_pair(a))
                assert abs(chi_dep_curve(lam, a) - direct) < 1e-12


class TestCurveShape:
    def test_output_entropy_is_convex_in_a(self):
        avals = np.linspace(0.0, 1.0, 1001)
        h = avals[1] - avals[0]
        for gamma in np.linspace(0.02, 0.98, 50):
            x = np.sqrt(np.maximum(1.0 - 4.0 * gamma * (1.0 - gamma) * (1.0 - avals) ** 2, 0.0))
            entropy = binary_entropy(0.5 * (1.0 - x))
            second = (entropy[2:] - 2.0 * entropy[1:-1] + entropy[:-2]) / h ** 2
            assert np.min(second) >= -1e-8

    def test_chi_curve_is_concave_in_a(self):
        avals = np.linspace(0.0, 1.0, 1001)
        h = avals[1] - avals[0]
        for gamma in np.linspace(0.02, 0.98, 50):
            chi = chi_ad_curve(gamma, avals)
            second = (chi[2:] - 2.0 * chi[1:-1] + chi[:-2]) / h ** 2
            assert np.max(second) <= 1e-8
