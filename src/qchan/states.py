"""2x2 Hermitian algebra, qubit state parameterization, and entropy functions.

States are stored in the (a, b) parameterization

    rho = [[a, b], [conj(b), 1 - a]],

where ``a`` is the ground-component population and ``b`` the coherence. Valid
states lie inside the Poincare ball (a - 1/2)^2 + |b|^2 <= 1/4 and pure states
sit on its boundary, |b|^2 = a(1 - a). All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TOL_STATE = 1e-9
TOL_PROB = 1e-9

# Symmetrizing a 4-state ensemble can need up to 8 entries after merging; the
# Caratheodory cap (4 pure states suffice) is enforced where ensembles are
# searched, not here.
MAX_ENSEMBLE = 8


@dataclass(frozen=True)
class Herm2:
    """Hermitian 2x2 matrix; only the upper triangle is stored, m10 = conj(m01)."""

    m00: float
    m11: float
    m01: complex = 0j

    def trace(self) -> float:
        return self.m00 + self.m11

    def to_matrix(self) -> np.ndarray:
        return np.array(
            [[self.m00, self.m01], [np.conjugate(self.m01), self.m11]],
            dtype=complex,
        )


def is_scalar(value) -> bool:
    """Whether ``value`` has np.ndim 0; a float answers without np.ndim's cost."""
    return isinstance(value, float) or np.ndim(value) == 0


# (x ** 2, abs, sqrt) for float entries, as Python computes them with libm's pow
# and hypot, and the numpy ufuncs that give the same bits on arrays: np.square
# and np.abs of a complex array round otherwise than pow and hypot.
_FLOAT_OPS = (lambda x: x ** 2, abs, math.sqrt)
_ARRAY_OPS = (lambda x: np.float_power(x, 2.0), lambda z: np.hypot(z.real, z.imag), np.sqrt)


def eigenvalues_herm2(m: Herm2):
    """Closed-form eigenvalues of a Herm2, returned as (high, low).

    The pair always sums to the trace. The radicand (m00 - m11)^2 + 4|m01|^2
    equals trace^2 - 4 det and is a sum of squares, so never negative. The
    entries may be arrays of one shape: each matrix then gets the bits its
    float entries would.
    """
    square, modulus, sqrt = _FLOAT_OPS if is_scalar(m.m00) else _ARRAY_OPS
    half_trace = 0.5 * (m.m00 + m.m11)
    radicand = square(m.m00 - m.m11) + 4.0 * square(modulus(m.m01))
    half_gap = 0.5 * sqrt(radicand)
    return half_trace + half_gap, half_trace - half_gap


def binary_entropy(p):
    """Binary entropy H(p) in bits, with the explicit 0*log(0) = 0 convention.

    Accepts a scalar or a numpy array with entries in [0, 1]; values within
    1e-9 outside the interval are clamped, anything further, and NaN, raises.
    """
    if is_scalar(p):
        q = float(p)
        if not -TOL_STATE <= q <= 1.0 + TOL_STATE:
            raise DomainError(f"binary_entropy argument {q} outside [0, 1]")
        if q <= 0.0 or q >= 1.0:
            return 0.0
        # np.log2 keeps the scalar and array paths bit-identical; the rest is float arithmetic
        r = 1.0 - q
        return -q * float(np.log2(q)) - r * float(np.log2(r))
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= -TOL_STATE) & (arr <= 1.0 + TOL_STATE)):
        raise DomainError("binary_entropy argument outside [0, 1]")
    q = np.clip(arr, 0.0, 1.0)
    return binary_entropy_into(q, np.empty(q.shape), np.empty(q.shape))


def binary_entropy_into(q: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Writes H(q) = -q log2(q) - (1-q) log2(1-q) into ``out`` and returns it.

    No range check: every entry outside the open interval (0, 1), NaN included,
    gives 0. ``scratch`` is work space; ``out`` and ``scratch`` have q's shape
    and alias neither q nor each other. Each entry is bit-equal to the formula
    evaluated left to right on fresh arrays.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(1.0, q, out=scratch)
        np.log2(scratch, out=out)
        np.multiply(scratch, out, out=out)
        np.log2(q, out=scratch)
        np.multiply(q, scratch, out=scratch)
        # -(q log2 q) is (-q) log2 q exactly: rounding is symmetric in the sign
        np.negative(scratch, out=scratch)
        np.subtract(scratch, out, out=out)
    # Exactly the entries outside (0, 1) are NaN here: 0 * log2(0), or a log2 of a
    # negative number or of NaN.
    np.copyto(out, 0.0, where=np.isnan(out))
    return out


def von_neumann_entropy(m: Herm2):
    """Entropy of a density matrix in bits: H of the smaller eigenvalue.

    Eigenvalues are clamped to [0, 1] before the logarithm so that roundoff
    from the parameterization cannot poison downstream convexity checks. A Herm2
    of arrays gives the array of entropies, each bit-equal to its float one.
    """
    if is_scalar(m.m00):
        if abs(m.trace() - 1.0) > TOL_STATE:
            raise DomainError(f"trace {m.trace()} deviates from 1 beyond {TOL_STATE}")
        hi, lo = eigenvalues_herm2(m)
        if lo < -TOL_STATE or hi > 1.0 + TOL_STATE:
            raise DomainError(f"eigenvalues ({hi}, {lo}) outside [0, 1]")
        return binary_entropy(min(max(lo, 0.0), 1.0))
    if np.any(np.abs(m.trace() - 1.0) > TOL_STATE):
        raise DomainError(f"a trace deviates from 1 beyond {TOL_STATE}")
    hi, lo = eigenvalues_herm2(m)
    if np.any((lo < -TOL_STATE) | (hi > 1.0 + TOL_STATE)):
        raise DomainError("eigenvalues outside [0, 1]")
    return binary_entropy(np.clip(lo, 0.0, 1.0))


@dataclass(frozen=True)
class QubitState:
    """Qubit density matrix in (a, b) form; must lie in the Poincare ball."""

    a: float
    b: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", complex(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b.real) and math.isfinite(self.b.imag)):
            raise DomainError("state parameters must be finite")
        if self.a < -TOL_STATE or self.a > 1.0 + TOL_STATE:
            raise DomainError(f"population a={self.a} outside [0, 1]")
        if (self.a - 0.5) ** 2 + abs(self.b) ** 2 > 0.25 + TOL_STATE:
            raise DomainError(f"state (a={self.a}, b={self.b}) outside the Poincare ball")

    @property
    def is_pure(self) -> bool:
        return abs(abs(self.b) ** 2 - self.a * (1.0 - self.a)) <= TOL_STATE

    def mirror(self) -> "QubitState":
        """The image under b -> -b (reflection across the real b-axis)."""
        return QubitState(self.a, -self.b)

    def to_herm2(self) -> Herm2:
        return Herm2(self.a, 1.0 - self.a, self.b)


def pure_state(a: float, phase: complex = 1.0) -> QubitState:
    """Pure state on the Poincare boundary: b = phase * sqrt(a(1-a)), |phase| = 1."""
    if abs(abs(complex(phase)) - 1.0) > TOL_STATE:
        raise DomainError(f"phase must have unit modulus, got {phase!r}")
    mag = math.sqrt(max(float(a) * (1.0 - float(a)), 0.0))
    return QubitState(a, complex(phase) * mag)


@dataclass(frozen=True)
class Ensemble:
    """Finite list of (probability, QubitState) pairs summing to one."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((float(p), s) for p, s in self.entries)
        object.__setattr__(self, "entries", entries)
        if not 1 <= len(entries) <= MAX_ENSEMBLE:
            raise DomainError(f"ensemble needs 1..{MAX_ENSEMBLE} entries, got {len(entries)}")
        for p, _ in entries:
            if not p >= -TOL_PROB:
                raise DomainError(f"negative or NaN probability {p}")
        total = math.fsum(p for p, _ in entries)
        if not abs(total - 1.0) <= TOL_PROB:
            raise DomainError(f"probabilities sum to {total}, not 1")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def mirror_pair(a: float) -> Ensemble:
    """Equal-weight pure pair {(a, +sqrt(a(1-a))), (a, -sqrt(a(1-a)))}."""
    return Ensemble(((0.5, pure_state(a)), (0.5, pure_state(a, -1.0))))


def mix(ensemble: Ensemble) -> QubitState:
    """Probability-weighted convex combination of the ensemble states."""
    a = math.fsum(p * s.a for p, s in ensemble)
    b_re = math.fsum(p * s.b.real for p, s in ensemble)
    b_im = math.fsum(p * s.b.imag for p, s in ensemble)
    return QubitState(a, complex(b_re, b_im))
