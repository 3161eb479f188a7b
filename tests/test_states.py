import math

import numpy as np
import pytest

from qchan import (
    DomainError,
    Ensemble,
    Herm2,
    QubitState,
    binary_entropy,
    eigenvalues_herm2,
    mirror_pair,
    mix,
    pure_state,
    von_neumann_entropy,
)
from qchan.states import binary_entropy_into
from conftest import random_state

# Direct high-precision evaluation of -sum p log2 p.
H_QUARTER = 0.81127812445913286391


class TestEigenvalues:
    def test_maximally_mixed(self):
        assert eigenvalues_herm2(Herm2(0.5, 0.5)) == (0.5, 0.5)

    def test_projector(self):
        assert eigenvalues_herm2(Herm2(1.0, 0.0)) == (1.0, 0.0)

    def test_plus_state(self):
        hi, lo = eigenvalues_herm2(Herm2(0.5, 0.5, 0.5 + 0j))
        assert hi == pytest.approx(1.0, abs=1e-15)
        assert lo == pytest.approx(0.0, abs=1e-15)

    def test_random_density_matrices(self, rng):
        for _ in range(1000):
            s = random_state(rng)
            m = s.to_herm2()
            hi, lo = eigenvalues_herm2(m)
            assert abs(hi + lo - 1.0) < 1e-12
            # independent route: numpy's Hermitian eigensolver
            ref = np.linalg.eigvalsh(m.to_matrix())
            assert abs(hi - ref[1]) < 1e-12
            assert abs(lo - ref[0]) < 1e-12
            assert 0.0 <= von_neumann_entropy(m) <= 1.0


class TestBinaryEntropy:
    def test_half_is_exactly_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_exactly_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)

    def test_symmetry_on_grid(self):
        p = np.linspace(0.0, 1.0, 10_000)
        assert np.max(np.abs(binary_entropy(p) - binary_entropy(1.0 - p))) < 1e-14

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)

    def test_clamps_tolerance_band(self):
        assert binary_entropy(-1e-12) == 0.0
        assert binary_entropy(1.0 + 1e-12) == 0.0

    def test_array_matches_scalar(self, rng):
        p = rng.uniform(size=64)
        vec = binary_entropy(p)
        for i, q in enumerate(p):
            assert vec[i] == binary_entropy(float(q))

    def test_nan_raises_on_both_paths(self):
        with pytest.raises(DomainError):
            binary_entropy(float("nan"))
        with pytest.raises(DomainError):
            binary_entropy(np.float64("nan"))
        with pytest.raises(DomainError):
            binary_entropy(np.array([float("nan"), 0.3]))


def masked_entropy(q):
    """The masked array formula binary_entropy used before binary_entropy_into."""
    out = np.zeros(q.shape)
    inside = (q > 0.0) & (q < 1.0)
    x = q[inside]
    out[inside] = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return out


class TestBinaryEntropyInto:
    EDGES = [0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0 - 2.0 ** -53, 1.0]
    # Outside [0, 1], including NaN, both give 0.
    OUTSIDE = [-0.0, -1e-12, -1.0, 1.0 + 2.0 ** -52, 2.0, math.inf, -math.inf, math.nan]

    @staticmethod
    def into(q):
        return binary_entropy_into(q, np.empty(q.shape), np.empty(q.shape))

    def test_bit_equal_to_masked_formula_at_edges(self):
        q = np.array(self.EDGES + self.OUTSIDE)
        assert self.into(q).tobytes() == masked_entropy(q).tobytes()

    def test_bit_equal_to_masked_formula_on_seeded_points(self):
        rng = np.random.default_rng(20111)
        q = np.concatenate([rng.uniform(size=50_000), 10.0 ** rng.uniform(-320.0, 0.0, 50_000)])
        assert self.into(q).tobytes() == masked_entropy(q).tobytes()

    def test_reused_buffers(self):
        out, scratch = np.empty((2, 3)), np.empty((2, 3))
        first = np.array([[0.0, 0.1, 0.2], [0.3, 0.4, 0.5]])
        second = np.array([[0.5, 0.0, 1.0], [0.9, math.nan, 1e-300]])
        assert binary_entropy_into(first, out, scratch) is out
        assert out.tobytes() == masked_entropy(first).tobytes()
        binary_entropy_into(second, out, scratch)
        assert out.tobytes() == masked_entropy(second).tobytes()
        # a slice of a larger buffer, as the oracle's last short block uses
        big, work = np.full((4, 3), 7.0), np.empty((4, 3))
        binary_entropy_into(second, big[:2], work[:2])
        assert big[:2].tobytes() == masked_entropy(second).tobytes()
        assert np.all(big[2:] == 7.0)

    def test_binary_entropy_array_path_unchanged(self, rng):
        p = np.concatenate([[0.0, 1.0, -1e-12, 1.0 + 1e-12], rng.uniform(size=1000)])
        assert binary_entropy(p).tobytes() == masked_entropy(np.clip(p, 0.0, 1.0)).tobytes()


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert von_neumann_entropy(Herm2(0.5, 0.5)) == 1.0

    def test_diag_quarter(self):
        assert von_neumann_entropy(Herm2(0.25, 0.75)) == pytest.approx(H_QUARTER, abs=1e-15)

    def test_pure_states_have_zero_entropy(self, rng):
        for _ in range(1000):
            a = rng.uniform()
            s = pure_state(a, np.exp(2j * np.pi * rng.uniform()))
            assert von_neumann_entropy(s.to_herm2()) < 1e-10

    def test_rejects_bad_trace(self):
        with pytest.raises(DomainError):
            von_neumann_entropy(Herm2(0.7, 0.7))
        with pytest.raises(DomainError):
            von_neumann_entropy(Herm2(np.array([0.5, 0.7]), np.array([0.5, 0.7]), np.zeros(2, complex)))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError):
            von_neumann_entropy(Herm2(1.2, -0.2))
        with pytest.raises(DomainError):
            von_neumann_entropy(Herm2(np.array([0.5, 1.2]), np.array([0.5, -0.2]), np.zeros(2, complex)))

    @pytest.mark.filterwarnings("error")
    def test_array_entries_match_float_entries(self, rng):
        # Byte for byte, eigenvalues and entropy, on mixed and pure states and on
        # the edges where the smaller eigenvalue rounds to or below 0.
        states = [random_state(rng) for _ in range(2000)]
        states += [pure_state(a, np.exp(2j * np.pi * rng.uniform())) for a in rng.uniform(size=2000)]
        states += [QubitState(a) for a in (0.0, 1.0, 0.5, 1e-300)] + [pure_state(0.5), pure_state(1e-16)]
        m = Herm2(np.array([s.a for s in states]), np.array([1.0 - s.a for s in states]),
                  np.array([s.b for s in states]))
        scalar = [s.to_herm2() for s in states]
        for got, want in zip(eigenvalues_herm2(m), zip(*map(eigenvalues_herm2, scalar))):
            assert got.tobytes() == np.array(want).tobytes()
        assert von_neumann_entropy(m).tobytes() == np.array(
            [von_neumann_entropy(h) for h in scalar]).tobytes()


class TestQubitState:
    def test_pure_iff_boundary(self):
        assert pure_state(0.3).is_pure
        assert not QubitState(0.5, 0.1).is_pure

    def test_rejects_outside_ball(self):
        with pytest.raises(DomainError):
            QubitState(0.5, 0.6)
        with pytest.raises(DomainError):
            QubitState(1.2, 0.0)

    def test_to_herm2_is_a_density_matrix(self, rng):
        for _ in range(100):
            m = random_state(rng).to_herm2()
            assert m.trace() == pytest.approx(1.0, abs=1e-15)
            hi, lo = eigenvalues_herm2(m)
            assert -1e-12 < lo <= hi < 1.0 + 1e-12


class TestEnsemble:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(DomainError):
            Ensemble(((0.6, QubitState(0.5)), (0.6, QubitState(0.5)),))
        with pytest.raises(DomainError):
            Ensemble(((-0.1, QubitState(0.5)), (1.1, QubitState(0.5)),))

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probabilities(self, p):
        # NaN fails every comparison, so each check is written to fail on it
        with pytest.raises(DomainError):
            Ensemble(((p, QubitState(0.5)), (1.0, QubitState(0.5))))
        with pytest.raises(DomainError):
            Ensemble(((p, QubitState(0.5)),))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Ensemble(())


class TestMix:
    def test_single_state_identity(self, rng):
        s = random_state(rng)
        assert mix(Ensemble(((1.0, s),))) == s

    def test_mirror_pair_cancels_coherence(self):
        avg = mix(mirror_pair(0.3))
        assert avg.a == 0.3
        assert avg.b == 0j

    def test_antipodal_diagonal_pair(self):
        avg = mix(Ensemble(((0.5, QubitState(0.0)), (0.5, QubitState(1.0)))))
        assert avg.a == 0.5
        assert avg.b == 0j

    def test_exact_population_average(self, rng):
        for _ in range(100):
            n = rng.randint(1, 5)
            probs = rng.dirichlet(np.ones(n))
            states = [random_state(rng) for _ in range(n)]
            ens = Ensemble(tuple((float(p), s) for p, s in zip(probs, states)))
            assert mix(ens).a == math.fsum(p * s.a for p, s in zip(probs, states))

    def test_affine_under_refinement(self, rng):
        for _ in range(100):
            s1, s2 = random_state(rng), random_state(rng)
            coarse = mix(Ensemble(((0.5, s1), (0.5, s2))))
            fine = mix(Ensemble(((0.25, s1), (0.25, s1), (0.3, s2), (0.2, s2))))
            assert abs(coarse.a - fine.a) < 1e-14
            assert abs(coarse.b - fine.b) < 1e-14
