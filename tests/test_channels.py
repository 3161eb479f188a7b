import math

import numpy as np
import pytest

from qchan import (
    AmplitudeDamping,
    Depolarizing,
    DomainError,
    Ensemble,
    GeneralKraus,
    QubitState,
    apply_channel,
    channel_output,
    eigenvalues_herm2,
    holevo_chi,
    kraus_amplitude_damping,
    kraus_depolarizing,
    output_eigenvalues_ad,
    pure_state,
    symmetrize,
    von_neumann_entropy,
)
from conftest import random_ensemble, random_kraus, random_state


class TestKrausOperators:
    def test_gamma_zero(self):
        e0, e1 = kraus_amplitude_damping(0.0)
        assert np.array_equal(e0, np.eye(2))
        assert np.array_equal(e1, np.zeros((2, 2)))

    def test_gamma_one(self):
        e0, e1 = kraus_amplitude_damping(1.0)
        assert np.array_equal(e0, np.diag([1.0, 0.0]))
        assert np.array_equal(e1, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_gamma_half_entries(self):
        e0, e1 = kraus_amplitude_damping(0.5)
        root_half = math.sqrt(0.5)
        assert e0[0, 0] == 1.0 and e0[1, 1] == root_half and e0[0, 1] == 0.0
        assert e1[0, 1] == root_half and e1[0, 0] == e1[1, 0] == e1[1, 1] == 0.0

    @pytest.mark.parametrize("gamma", np.linspace(0.0, 1.0, 21))
    def test_completeness(self, gamma):
        ops = kraus_amplitude_damping(gamma)
        total = sum(op.conj().T @ op for op in ops)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            kraus_amplitude_damping(-0.1)
        with pytest.raises(DomainError):
            kraus_depolarizing(1.5)

    def test_general_kraus_validates_completeness(self):
        with pytest.raises(DomainError):
            GeneralKraus((np.eye(2), np.eye(2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_general_kraus_rejects_non_finite_entries(self, bad):
        op = np.eye(2, dtype=complex)
        op[1, 0] = bad
        with pytest.raises(DomainError):
            GeneralKraus((op,))

    @pytest.mark.parametrize("op", [[["x", 0], [0, 1]], [[None, 0], [0, 1]], [[1, 0], [0]]])
    def test_general_kraus_rejects_non_numeric_entries(self, op):
        with pytest.raises(DomainError):
            GeneralKraus((op,))


class TestApplyChannel:
    def test_ground_state_is_fixed_point(self):
        for gamma in (0.0, 0.3, 1.0):
            out = apply_channel(AmplitudeDamping(gamma), QubitState(1.0))
            assert out.a == 1.0 and out.b == 0j

    def test_full_damping(self, rng):
        for _ in range(20):
            out = apply_channel(AmplitudeDamping(1.0), random_state(rng))
            assert out.a == pytest.approx(1.0, abs=1e-15)
            assert out.b == 0j

    def test_complete_depolarization(self, rng):
        for _ in range(20):
            out = apply_channel(Depolarizing(1.0), random_state(rng))
            assert out.a == 0.5 and out.b == 0j

    def test_kraus_route_matches_closed_form_ad(self, rng):
        for _ in range(1000):
            gamma = rng.uniform()
            s = random_state(rng)
            direct = apply_channel(AmplitudeDamping(gamma), s)
            via_kraus = apply_channel(GeneralKraus(tuple(kraus_amplitude_damping(gamma))), s)
            assert abs(direct.a - via_kraus.a) < 1e-12
            assert abs(direct.b - via_kraus.b) < 1e-12

    def test_kraus_route_matches_closed_form_dep(self, rng):
        for _ in range(1000):
            lam = rng.uniform()
            s = random_state(rng)
            direct = apply_channel(Depolarizing(lam), s)
            via_kraus = apply_channel(GeneralKraus(tuple(kraus_depolarizing(lam))), s)
            assert abs(direct.a - via_kraus.a) < 1e-12
            assert abs(direct.b - via_kraus.b) < 1e-12

    def test_rejects_an_object_that_is_not_a_channel(self):
        with pytest.raises(DomainError):
            apply_channel(object(), QubitState(0.5))
        with pytest.raises(DomainError):
            channel_output(object(), np.array([0.5]), np.array([0j]))

    @pytest.mark.parametrize("seed, n_ops", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 6)])
    def test_kraus_output_matches_matrix_conjugation(self, seed, n_ops, rng):
        # channel_output's real-arithmetic route against sum E rho E^dagger by matrix products
        channel = random_kraus(seed, n_ops)
        states = [random_state(rng) for _ in range(200)]
        a = np.array([s.a for s in states])
        b = np.array([s.b for s in states])
        u, v = channel_output(channel, a, b)
        for j, s in enumerate(states):
            rho = s.to_herm2().to_matrix()
            out = sum(op @ rho @ op.conj().T for op in channel.kraus)
            assert abs(u[j] - out[0, 0]) <= 1e-15
            assert abs(v[j] - out[0, 1]) <= 1e-15
            assert abs(1.0 - u[j] - out[1, 1]) <= 1e-15

    def test_trace_preserved_and_positive(self, rng):
        for _ in range(1000):
            channel = AmplitudeDamping(rng.uniform()) if rng.rand() < 0.5 else Depolarizing(rng.uniform())
            out = apply_channel(channel, random_state(rng)).to_herm2()
            assert abs(out.trace() - 1.0) < 1e-12
            hi, lo = eigenvalues_herm2(out)
            assert lo >= -1e-12


class TestOutputEigenvaluesAD:
    def test_fixed_point(self):
        assert output_eigenvalues_ad(0.7, QubitState(1.0)) == (1.0, 0.0)

    def test_identity_preserves_purity(self, rng):
        for _ in range(20):
            hi, lo = output_eigenvalues_ad(0.0, pure_state(rng.uniform()))
            assert hi == pytest.approx(1.0, abs=1e-12)
            assert lo == pytest.approx(0.0, abs=1e-12)

    def test_half_half_point(self):
        hi, lo = output_eigenvalues_ad(0.5, QubitState(0.5, 0.5))
        assert hi == pytest.approx(0.5 * (1.0 + math.sqrt(0.75)), abs=1e-15)
        assert lo == pytest.approx(0.5 * (1.0 - math.sqrt(0.75)), abs=1e-15)

    def test_matches_generic_eigenvalues_on_grid(self):
        gammas = np.linspace(0.0, 1.0, 11)
        avals = np.linspace(0.0, 1.0, 11)
        fractions = np.linspace(0.0, 1.0, 9)
        checked = 0
        for gamma in gammas:
            for a in avals:
                cap = math.sqrt(max(a * (1.0 - a), 0.0))
                for frac in fractions:
                    s = QubitState(a, frac * cap)
                    closed = output_eigenvalues_ad(gamma, s)
                    generic = eigenvalues_herm2(
                        apply_channel(AmplitudeDamping(gamma), s).to_herm2()
                    )
                    assert abs(closed[0] - generic[0]) < 1e-12
                    assert abs(closed[1] - generic[1]) < 1e-12
                    checked += 1
        assert checked >= 1000

    def test_mirror_invariant_output_entropy(self, rng):
        for _ in range(200):
            gamma = rng.uniform()
            s = random_state(rng)
            chan = AmplitudeDamping(gamma)
            s_out = von_neumann_entropy(apply_channel(chan, s).to_herm2())
            s_mirror = von_neumann_entropy(apply_channel(chan, s.mirror()).to_herm2())
            assert abs(s_out - s_mirror) < 1e-12


class TestSymmetrize:
    def test_real_axis_fixed_point(self):
        ens = Ensemble(((1.0, QubitState(0.3)),))
        assert symmetrize(ens) == ens

    def test_splits_probability(self):
        s = QubitState(0.3, 0.2j)
        result = symmetrize(Ensemble(((1.0, s),)))
        assert len(result) == 2
        (p1, s1), (p2, s2) = result.entries
        assert p1 == p2 == 0.5
        assert s1 == s and s2 == s.mirror()

    def test_idempotent(self, rng):
        for _ in range(100):
            ens = random_ensemble(rng)
            once = symmetrize(ens)
            twice = symmetrize(once)
            assert once == twice

    def test_merges_mirror_duplicates(self):
        s = pure_state(0.4)
        ens = Ensemble(((0.5, s), (0.5, s.mirror())))
        assert len(symmetrize(ens)) == 2

    def test_never_decreases_chi(self, rng):
        for _ in range(200):
            channel = AmplitudeDamping(rng.uniform()) if rng.rand() < 0.5 else Depolarizing(rng.uniform())
            ens = random_ensemble(rng)
            assert holevo_chi(channel, symmetrize(ens)) >= holevo_chi(channel, ens) - 1e-10
