import decimal
import math
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from qchan import capacity
from qchan.capacity import _ad_curve, _dep_curve, _slope, bisect_sign_change
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
        # chi_ad_curve rounds to -5.4e-17 at the maximizer for gamma = 1 - 2**-53
        for gamma in [*np.linspace(0.05, 0.95, 19), 1.0 - 2.0 ** -53]:
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


# 1 - gamma = 10^-U(6, 9): a margin that shrank with 1 - gamma would break the damping
# solver's bits here, where the slope's rounding error near the u = 1e-8 regime switch
# stays about 2e-12 while the slope itself scales with 1 - gamma.
NEAR_ONE_GAMMAS = (1.0 - 10.0 ** -np.random.default_rng(20261021).uniform(6.0, 9.0, 2000)).tolist()


def _lockstep_bisection(gammas, lo, hi, width, residual):
    """bisect_sign_change(a -> chi_ad_derivative(gamma, a), lo, hi, width, residual) for
    every gamma at once: one array call per halving for the gammas still open, with the
    stop rule (width, residual, adjacent ends, 200 halvings) applied entry by entry."""
    g = np.array(gammas)
    lo, hi = np.full(g.size, lo), np.full(g.size, hi)
    mid = 0.5 * (lo + hi)
    f_mid = chi_ad_derivative(g, mid)
    halvings = np.zeros(g.size, dtype=int)
    todo = np.arange(g.size)
    while todo.size:
        todo = todo[(halvings[todo] < 200)
                    & ((np.abs(hi[todo] - lo[todo]) > width) | (np.abs(f_mid[todo]) > residual))]
        rises = f_mid[todo] > 0.0
        lo[todo[rises]], hi[todo[~rises]] = mid[todo[rises]], mid[todo[~rises]]
        new_mid = 0.5 * (lo[todo] + hi[todo])
        inside = (new_mid != lo[todo]) & (new_mid != hi[todo])
        todo = todo[inside]
        mid[todo] = new_mid[inside]
        f_mid[todo] = chi_ad_derivative(g[todo], mid[todo])
        halvings[todo] += 1
    return mid.tolist(), f_mid.tolist(), halvings.tolist()


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
def test_solver_equals_the_bisection_of_the_array_kernel(tol):
    # The solver bisects a float kernel of chi' with gamma's factors computed once, and
    # skips the midpoints whose sign its Newton band proves; it must stop where bisecting
    # the array chi_ad_derivative stops, bit for bit.
    gammas = (np.random.default_rng(20261020).random(2000).tolist() + NEAR_ONE_GAMMAS
              + [5e-324, 1e-300, 1e-17, 1.0 - 2.0 ** -52, 0.5])
    mismatches = []
    for gamma, mid, f_mid, halvings in zip(gammas, *_lockstep_bisection(gammas, 0.5, 1.0 - 1e-9, tol, tol)):
        result = capacity_amplitude_damping(gamma, tol)
        if (result.a_max, result.residual, result.iterations) != (mid, abs(f_mid), halvings):
            mismatches.append(gamma)
    assert mismatches == []


def _band_test_gammas():
    rng = np.random.default_rng(20261022)
    return {
        "uniform": rng.random(2000).tolist(),
        "near_one": NEAR_ONE_GAMMAS,
        "below_one": (1.0 - 10.0 ** -rng.uniform(2.0, 16.0, 1000)).tolist(),
        "small": (10.0 ** -rng.uniform(2.0, 300.0, 1000)).tolist(),
        "edges": [5e-324, 1e-300, 1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53, 0.5],
    }


@pytest.mark.parametrize("tol", [10.0, 1e-3, 1e-6, 1e-10, 1e-13, 1e-15])
def test_solver_equals_the_unbanded_bisection(monkeypatch, tol):
    # The Newton band only skips slope calls: every field equals bisecting _slope
    # without a band. Its own evaluations are capped, so no gamma costs more than the
    # plain bisection's calls plus _NEWTON_STEPS + 2, and typical ones far fewer.
    calls = [0]
    kernel = capacity._slope

    def counted(g, curvature=False):
        evaluate = kernel(g, curvature)

        def count(a):
            calls[0] += 1
            return evaluate(a)

        return count

    monkeypatch.setattr(capacity, "_slope", counted)
    mismatches, over_cap, mean_calls = [], [], {}
    for name, gammas in _band_test_gammas().items():
        counts = []
        for gamma in gammas:
            calls[0] = 0
            result = capacity_amplitude_damping(gamma, tol)
            mid, f_mid, halvings = bisect_sign_change(kernel(gamma), 0.5, 1.0 - 1e-9, tol, tol)
            got = (result.a_max.hex(), result.residual.hex(), result.iterations)
            if got != (mid.hex(), abs(f_mid).hex(), halvings):
                mismatches.append(gamma)
            # two bracket ends, Newton steps and two probes, and halvings + 1 midpoints
            if calls[0] > 2 + capacity._NEWTON_STEPS + 2 + halvings + 1:
                over_cap.append((gamma, calls[0]))
            counts.append(calls[0])
        mean_calls[name] = sum(counts) / len(counts)
    assert mismatches == [] and over_cap == []
    if tol == 1e-10:  # the plain bisection makes 36 calls here
        assert mean_calls["uniform"] <= 14.0


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


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(lo=BRACKET_ENDS, hi=BRACKET_ENDS, share=st.floats(0.0, 1.0),
       band=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       width=st.floats(5e-324, math.inf), residual=st.sampled_from([math.inf, 0.5, 0.0]))
@example(lo=0.5, hi=1.0 - 1e-9, share=0.2, band=(0.9, 0.1), width=1e-10, residual=1e-10)
@example(lo=1.0, hi=-1.0, share=0.5, band=(0.5, 0.5), width=0.0, residual=0.0)
@example(lo=5e-324, hi=1e-323, share=1.0, band=(0.0, 0.0), width=5e-324, residual=0.0)
def test_bisect_sign_change_with_a_known_band_calls_f_only_where_unproven(
        lo, hi, share, band, width, residual):
    # f = sign * (root - x) falls along the bracket, so computed f > 0 from lo through
    # any p before the root and f <= 0 from any q at or past it: those bands are sound.
    root = (1.0 - share) * lo + share * hi
    sign = 1.0 if lo <= hi else -1.0
    p = (1.0 - band[0]) * lo + band[0] * root
    q = (1.0 - band[1]) * root + band[1] * hi
    assume(sign * (root - p) > 0.0 and sign * (root - q) <= 0.0)
    calls = []

    def f(x):
        calls.append(x)
        return sign * (root - x)

    plain = bisect_sign_change(f, lo, hi, width, residual)
    mids, calls[:] = calls[:], []
    assert bisect_sign_change(f, lo, hi, width, residual, known=(lo, hi)) == plain
    assert calls == mids
    calls.clear()
    assert bisect_sign_change(f, lo, hi, width, residual, known=(p, q)) == plain
    # Replay the plain mids' brackets: f is called at a mid inside (p, q) or of a bracket
    # no wider than width, in the plain order, and last at the final mid if it was skipped.
    expected, a, b = [], lo, hi
    for mid in mids:
        if min(p, q) < mid < max(p, q) or not abs(b - a) > width:
            expected.append(mid)
        a, b = (mid, b) if sign * (root - mid) > 0.0 else (a, mid)
    if expected[-1:] != mids[-1:]:
        expected.append(mids[-1])
    assert calls == expected


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
    """Seeded (p, a) in (0, 1) x [0, 1): uniform, a near 1, p below 1e-9, one point
    where scalar and array chi_ad_curve once disagreed in the last bit, u = 1 (p = 1/2,
    a = 0), and the edges of the regimes of O that _float_terms chooses and
    _array_terms selects: u = 4 p (1-p) (1-a)^2 within 5% of 1e-8 on both sides, x =
    sqrt(1 - u) within 5% of 1e-4 on both sides (p near 1/2 with a = 0, and p = 1/2
    with a near 0), and u = 0 (p = 5e-324 with a above 3/4)."""
    rng = np.random.default_rng(20261018)
    p = np.concatenate([rng.random(9800), rng.random(100), 1e-9 * rng.random(100),
                        [0.6721857253050835, 1e-300, 5e-324, 0.5]])
    a = np.concatenate([rng.random(9800), 1.0 - 1e-6 * rng.random(100), rng.random(100),
                        [0.49646555979497975, 1.0 - 2.0**-53, 0.5, 0.0]])
    rng = np.random.default_rng(20261021)
    gamma = rng.uniform(0.01, 0.99, 200)
    u = 1e-8 * np.concatenate([rng.uniform(0.95, 1.0, 100), rng.uniform(1.0, 1.05, 100)])
    x = 1e-4 * np.concatenate([rng.uniform(0.95, 1.0, 50), rng.uniform(1.0, 1.05, 50)])
    side = np.where(rng.random(100) < 0.5, -0.5, 0.5)
    p = np.concatenate([p, gamma, 0.5 + side * x, np.full(100, 0.5), np.full(20, 5e-324)])
    a = np.concatenate([a, 1.0 - np.sqrt(u / (4.0 * gamma * (1.0 - gamma))), np.zeros(100),
                        1.0 - np.sqrt(1.0 - x * x), rng.uniform(0.75, 1.0, 20)])
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

    @pytest.mark.parametrize("kernel, curve", [(_ad_curve, chi_ad_curve),
                                               (_dep_curve, chi_dep_curve)])
    def test_float_kernels_equal_array_entries(self, kernel, curve):
        # The sup-min bisects these kernels, and its degenerate branches reach the
        # parameters 0, 1, 5e-324 and 1 - 2**-53, each here at every kernel point's a.
        p, a = _kernel_points()
        ends = np.array([0.0, 1.0, 5e-324, 1.0 - 2.0**-53])
        p = np.concatenate([p, np.repeat(ends, a.size)])
        a = np.concatenate([a, np.tile(a, ends.size)])
        expected = curve(p, a).tolist()
        mismatches = [(pi, ai) for pi, ai, e in zip(p.tolist(), a.tolist(), expected)
                      if kernel(pi)(ai) != e]
        assert mismatches == []

    def test_curvature_kernel_repeats_the_slope_kernel(self):
        # The damping solver proves slope signs from the (chi', chi'') kernel's chi', so
        # it must be _slope's bits; chi'' < 0 is what makes those proofs sound.
        p, a = _kernel_points()
        a = 0.5 + 0.5 * a
        p, a = p[a < 1.0], a[a < 1.0]  # the kernel's domain [1/2, 1)
        pairs = [(_slope(pi, curvature=True)(ai), _slope(pi)(ai)) for pi, ai in zip(p.tolist(), a.tolist())]
        assert [slope for (slope, _), _ in pairs] == [slope for _, slope in pairs]
        assert all(curvature < 0.0 for (_, curvature), _ in pairs)

    def test_curvature_matches_central_differences(self):
        step = 1e-6
        avals = np.linspace(0.5, 0.95, 46)
        for gamma in np.linspace(0.05, 0.95, 19):
            fd = (chi_ad_derivative(gamma, avals + step) - chi_ad_derivative(gamma, avals - step)) / (2 * step)
            curvature = [_slope(gamma, curvature=True)(a)[1] for a in avals.tolist()]
            assert np.max(np.abs(curvature - fd)) < 1e-5 * np.max(np.abs(fd))

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


def _exact_slope(g, a):
    """chi'(g, a) in bits at 50 digits from the exact values of the floats g and a;
    O = (2 ln(1 + x) - ln u) / x has no cancellation."""
    with decimal.localcontext() as context:
        context.prec = 50
        g, a = Decimal(g), Decimal(a)
        q, d = 1 - g, 1 - a
        u = 4 * g * q * d * d
        x = (1 - u).sqrt()
        over_x = (2 * (1 + x).ln() - u.ln()) / x
        return (-q * ((a + g * d) / (q * d)).ln() + 2 * g * q * d * over_x) / Decimal(2).ln()


def test_slope_is_within_its_rounding_bound():
    # _sign_band proves a slope sign from a computed chi' beyond _MARGIN, which is sound
    # only if computed chi' is within E = 2.5e-12 of the true one on a in [1/2, 1 - 1e-9]
    # (_slope's docstring). Near u = 1e-8 the regime of O changes.
    rng = np.random.default_rng(20261023)
    a_of = lambda n: 0.5 + (0.5 - 1e-9) * rng.random(n)
    gamma = rng.uniform(0.01, 0.99, 500)
    u = 1e-8 * rng.uniform(0.95, 1.05, 500)
    edges = [5e-324, 1e-300, 1e-17, 1.0 - 2.0 ** -52, 1.0 - 2.0 ** -53]
    g = np.concatenate([rng.random(1000), gamma, 1.0 - 10.0 ** -rng.uniform(2.0, 16.0, 500),
                        10.0 ** -rng.uniform(2.0, 300.0, 500), rng.random(200), np.repeat(edges, 22)])
    a = np.concatenate([a_of(1000), 1.0 - np.sqrt(u / (4.0 * gamma * (1.0 - gamma))), a_of(1000),
                        np.full(200, 1.0 - 1e-9), np.tile([0.5, 1.0 - 1e-9, *a_of(20)], len(edges))])
    assert np.all((a >= 0.5) & (a <= 1.0 - 1e-9))
    errors = [abs(_slope(gi)(ai) - float(_exact_slope(gi, ai))) for gi, ai in zip(g.tolist(), a.tolist())]
    assert max(errors) <= 2.5e-12 <= capacity._MARGIN / 4.0


def _assert_curves_run_cleanly(gamma, a):
    """chi_ad_curve, and chi_ad_derivative inside its domain, give finite values on
    floats and on arrays without a warning."""
    g, av = (np.ravel(v) for v in np.broadcast_arrays(np.asarray(gamma, dtype=float), a))
    inside = (g > 0.0) & (g < 1.0) & (av < 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [chi_ad_curve(g, av), chi_ad_derivative(g[inside], av[inside])]
        for gi, ai, interior in zip(g.tolist(), av.tolist(), inside.tolist()):
            values.append(chi_ad_curve(gi, ai))
            if interior:
                values.append(chi_ad_derivative(gi, ai))
    assert all(np.all(np.isfinite(value)) for value in values)


def test_the_root_argument_is_never_negative():
    # The kernels take sqrt(1 - u) unclamped because computed u = 4 g (1-g) (1-a)^2 is
    # at most 1 for g, a in [0, 1] (module docstring). 4 g fl(1-g) comes closest to
    # rounding above 1 where fl(1-g) rounds up, at g = 1/2 - k 2**-54, and d = 1 - a = 1.
    g, d = 0.5 - np.arange(2 ** 20) * 2.0 ** -54, 1.0
    assert np.all(4.0 * g * (1.0 - g) * (d * d) <= 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(np.all(np.isfinite(curve(chunk, 0.0))) for chunk in np.split(g, 16)
                   for curve in (chi_ad_curve, chi_ad_derivative))
    _assert_curves_run_cleanly(np.concatenate([g[:1024], g[::512]]), 0.0)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(gamma=st.floats(0.0, 1.0), a=st.floats(0.0, 1.0))
@example(gamma=0.5 - 2.0 ** -54, a=0.0)
@example(gamma=0.5, a=0.0)
@example(gamma=5e-324, a=0.9)
def test_u_is_at_most_one(gamma, a):
    d = 1.0 - a
    assert 4.0 * gamma * (1.0 - gamma) * (d * d) <= 1.0
    _assert_curves_run_cleanly(gamma, a)


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
