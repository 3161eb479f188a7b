"""Qubit channels as executable maps on (a, b) states.

Amplitude damping and depolarizing channels carry closed-form actions; an
arbitrary Kraus family acts through its operators alone, which doubles as an
independent code path for cross-checking the closed forms, on floats or arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError
from .states import TOL_STATE, Ensemble, QubitState, is_scalar


def _unit_interval(name: str, value) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class AmplitudeDamping:
    """Energy-loss channel with error parameter gamma in [0, 1]."""

    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _unit_interval("gamma", self.gamma))


@dataclass(frozen=True)
class Depolarizing:
    """Mixes the input toward I/2: rho -> (1 - lam) rho + lam I/2."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _unit_interval("lambda", self.lam))


# The input (a, b) is rho = a B0 + (1 - a) B1 + Re(b) B2 + Im(b) B3
_BASIS = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])


@dataclass(frozen=True, eq=False)
class GeneralKraus:
    """Channel given by explicit 2x2 Kraus operators satisfying sum E*E = I."""

    kraus: tuple

    def __post_init__(self):
        try:
            ops = tuple(np.array(k, dtype=complex) for k in self.kraus)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"Kraus operators must be numeric: {exc}") from None
        if not ops:
            raise DomainError("at least one Kraus operator required")
        for op in ops:
            if op.shape != (2, 2) or not np.all(np.isfinite(op)):
                raise DomainError(f"Kraus operators must be finite 2x2 matrices, got {op!r}")
            op.setflags(write=False)
        total = sum(op.conj().T @ op for op in ops)
        if not np.max(np.abs(total - np.eye(2))) <= 1e-10:
            raise DomainError("Kraus completeness relation violated beyond 1e-10")
        object.__setattr__(self, "kraus", ops)


Channel = Union[AmplitudeDamping, Depolarizing, GeneralKraus]


@dataclass(frozen=True)
class MixedChannelPair:
    """Convex combination of two memoryless channels, chosen once per message.

    The branch weight only matters when it is degenerate (0 or 1): for any
    interior weight the sup-min capacity is weight-independent.
    """

    ch1: Channel
    ch2: Channel
    weight1: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "weight1", _unit_interval("weight1", self.weight1))


def kraus_amplitude_damping(gamma: float) -> list:
    """The two amplitude-damping operation elements for the given gamma."""
    g = _unit_interval("gamma", gamma)
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - g)]], dtype=complex)
    e1 = np.array([[0.0, math.sqrt(g)], [0.0, 0.0]], dtype=complex)
    return [e0, e1]


def kraus_depolarizing(lam: float) -> list:
    """Standard Pauli Kraus set for the depolarizing channel."""
    l = _unit_interval("lambda", lam)
    pauli_i = np.eye(2, dtype=complex)
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    pauli_z = np.array([[1, 0], [0, -1]], dtype=complex)
    return [
        math.sqrt(1.0 - 0.75 * l) * pauli_i,
        math.sqrt(0.25 * l) * pauli_x,
        math.sqrt(0.25 * l) * pauli_y,
        math.sqrt(0.25 * l) * pauli_z,
    ]


def channel_output(channel: Channel, a, b):
    """The output (a, b) of the channel on the input (a, b): floats, or arrays of one
    shape whose every entry gets its float one's bits. The Kraus route takes only float64
    + and * of the inputs, which round alike on floats and arrays; complex products need not.
    """
    if isinstance(channel, AmplitudeDamping):
        g = channel.gamma
        return a + (1.0 - a) * g, b * math.sqrt(1.0 - g)
    if isinstance(channel, Depolarizing):
        l = channel.lam
        return (1.0 - l) * a + 0.5 * l, (1.0 - l) * b
    if not isinstance(channel, GeneralKraus):
        raise DomainError(f"unsupported channel {channel!r}")
    # Each Bi's image sum E Bi E^dagger weighs the input's coordinate i in the output.
    images = sum(op @ _BASIS @ op.conj().T for op in channel.kraus)
    rows = np.stack((images[:, 0, 0].real, images[:, 0, 1].real, images[:, 0, 1].imag)).tolist()
    rest, b_re, b_im = 1.0 - a, b.real, b.imag
    u, v_re, v_im = (k0 * a + k1 * rest + k2 * b_re + k3 * b_im for k0, k1, k2, k3 in rows)
    if is_scalar(v_re):
        return u, complex(v_re, v_im)
    v = np.empty(np.shape(v_re), dtype=complex)
    v.real, v.imag = v_re, v_im
    return u, v


def apply_channel(channel: Channel, state: QubitState) -> QubitState:
    """Image of a state under the channel, back in (a, b) form."""
    return QubitState(*channel_output(channel, state.a, state.b))


def output_eigenvalues_ad(gamma: float, state: QubitState) -> tuple[float, float]:
    """Closed-form eigenvalues (high, low) of the amplitude-damping output."""
    g = _unit_interval("gamma", gamma)
    a = state.a
    b_sq = abs(state.b) ** 2
    radicand = (1.0 + 2.0 * a * (g - 1.0) - 2.0 * g) ** 2 - 4.0 * b_sq * (g - 1.0)
    r = math.sqrt(max(radicand, 0.0))
    r = min(r, 1.0)
    return 0.5 * (1.0 + r), 0.5 * (1.0 - r)


def symmetrize(ensemble: Ensemble) -> Ensemble:
    """Replace every entry by the equal-weight pair mirrored across b -> -b.

    Entries with b = 0 pass through unchanged and coincident states are merged
    by probability addition, which makes the map idempotent.
    """
    expanded = []
    for p, s in ensemble:
        if abs(s.b) <= TOL_STATE:
            expanded.append((p, s))
        else:
            expanded.append((0.5 * p, s))
            expanded.append((0.5 * p, s.mirror()))
    merged = []
    for p, s in expanded:
        for i, (q, t) in enumerate(merged):
            if abs(s.a - t.a) <= TOL_STATE and abs(s.b - t.b) <= TOL_STATE:
                merged[i] = (q + p, t)
                break
        else:
            merged.append((p, s))
    return Ensemble(tuple(merged))
