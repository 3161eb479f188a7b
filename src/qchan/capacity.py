"""Holevo chi evaluation and the one-dimensional capacity solvers.

The amplitude-damping chi(a) curve restricted to mirror pairs has the closed
form

    chi(gamma, a) = H((1-a)(1-gamma)) - H((1-x)/2),
    x = sqrt(1 - 4 gamma (1-gamma) (1-a)^2),

because the averaged mirror-pair output is diagonal and the two branch output
entropies coincide. Its maximizer solves a transcendental equation and is
found by bisection on the derivative; the derivative itself is exposed in
bits per unit a. Curve functions accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import AmplitudeDamping, Channel, Depolarizing, _unit_interval, apply_channel
from .errors import DomainError, SolverError
from .states import Ensemble, binary_entropy, mix, von_neumann_entropy

_LN2 = math.log(2.0)

ROOT_BISECTION = "root_bisection"
CLOSED_FORM = "closed_form"

# Upper bracket endpoint: chi' -> -inf as a -> 1, so a sign change on
# [1/2, 1 - _BRACKET_EPS] is guaranteed for every interior gamma.
_BRACKET_EPS = 1e-9

_MAX_BISECT = 200


@dataclass(frozen=True)
class CapacityResult:
    """Maximizer, capacity in bits, and solver diagnostics."""

    a_max: float
    capacity_bits: float
    residual: float
    iterations: int
    method: str


def holevo_chi(channel: Channel, ensemble: Ensemble) -> float:
    """chi = S(sum_j p_j out_j) - sum_j p_j S(out_j), in bits."""
    outputs = tuple((p, apply_channel(channel, s)) for p, s in ensemble)
    mean_state = mix(Ensemble(outputs))
    mean_term = von_neumann_entropy(mean_state.to_herm2())
    branch_term = math.fsum(p * von_neumann_entropy(s.to_herm2()) for p, s in outputs)
    return mean_term - branch_term


def _unit_array(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


def _u_x(gamma, a):
    """u = 4 gamma (1-gamma) (1-a)^2 and x = sqrt(1 - u) of the closed form."""
    u = 4.0 * gamma * (1.0 - gamma) * (1.0 - a) ** 2
    return u, np.sqrt(np.maximum(1.0 - u, 0.0))


def interior_terms(gamma, a, gamma_low=0.0):
    """Validated (g, a, u, x, ratio) for the derivatives of chi_ad_curve, which are
    singular at a = 1 and g = 1: gamma must lie in (gamma_low, 1) and a in [0, 1).
    """
    g = np.asarray(gamma, dtype=float)
    av = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(g)) or np.any(g <= gamma_low) or np.any(g >= 1.0):
        raise DomainError(f"gamma must lie strictly inside ({gamma_low:g}, 1)")
    if not np.all(np.isfinite(av)) or np.any(av < 0.0) or np.any(av >= 1.0):
        raise DomainError("a must lie in [0, 1)")
    u, x = _u_x(g, av)
    ratio = (av + g * (1.0 - av)) / ((1.0 - g) * (1.0 - av))
    return g, av, u, x, ratio


def _log_ratio_over_x(u, x):
    """ln((1+x)/(1-x)) / x for x = sqrt(1-u), stable as x -> 0 and x -> 1.

    Three regimes: a Taylor series for small x, the direct quotient in the
    bulk, and 2*log1p(x) - log(u) when 1 - x would cancel catastrophically.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    x_safe = np.where(x > 0.0, x, 1.0)
    u_safe = np.where(u > 0.0, u, 1.0)
    direct = np.log((1.0 + x) / np.maximum(1.0 - x, 1e-300)) / x_safe
    robust = (2.0 * np.log1p(x) - np.log(u_safe)) / x_safe
    xx = x * x
    series = 2.0 + xx * (2.0 / 3.0 + xx * (2.0 / 5.0))
    return np.where(x < 1e-4, series, np.where(u < 1e-8, robust, direct))


def chi_ad_curve(gamma, a):
    """Holevo quantity of AmplitudeDamping(gamma) on the mirror pair at a, in bits.

    Equals H((1-a)(1-gamma)) - H((1-x)/2); agrees with holevo_chi on the
    explicit two-state ensemble to roundoff.
    """
    scalar = np.ndim(gamma) == 0 and np.ndim(a) == 0
    g = _unit_array("gamma", gamma)
    av = _unit_array("a", a)
    _, x = _u_x(g, av)
    value = binary_entropy((1.0 - av) * (1.0 - g)) - binary_entropy(0.5 * (1.0 - x))
    return float(value) if scalar else value


def chi_ad_derivative(gamma, a):
    """d chi_ad_curve / da in bits per unit a.

    The natural-log closed form divided by ln 2. Singular at a = 1 and at
    gamma in {0, 1}; those inputs are rejected, the capacity solver handles
    the endpoints separately.
    """
    scalar = np.ndim(gamma) == 0 and np.ndim(a) == 0
    g, av, u, x, ratio = interior_terms(gamma, a)
    value = (
        -(1.0 - g) * np.log(ratio)
        + 2.0 * g * (1.0 - g) * (1.0 - av) * _log_ratio_over_x(u, x)
    ) / _LN2
    return float(value) if scalar else value


def capacity_amplitude_damping(gamma: float, tol: float = 1e-10) -> CapacityResult:
    """Product-state capacity of AmplitudeDamping(gamma) and its maximizer.

    gamma = 0 and gamma = 1 short-circuit to closed forms. Otherwise the
    derivative is bisected on [1/2, 1): the maximizer never sits left of 1/2
    and the derivative diverges to -inf at a = 1, so the bracket always holds
    a sign change. ``tol`` bounds the final bracket width; near the optimum
    the capacity is quadratically flat, so its error is O(tol^2).
    """
    g = _unit_interval("gamma", gamma)
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if g == 0.0:
        return CapacityResult(0.5, 1.0, 0.0, 0, CLOSED_FORM)
    if g == 1.0:
        return CapacityResult(0.5, 0.0, 0.0, 0, CLOSED_FORM)
    lo, hi = 0.5, 1.0 - _BRACKET_EPS
    f_lo = chi_ad_derivative(g, lo)
    f_hi = chi_ad_derivative(g, hi)
    if not (f_lo > 0.0 > f_hi):
        raise SolverError(
            f"chi'(a) does not change sign on [{lo}, {hi}] for gamma={g}: "
            f"({f_lo}, {f_hi}); derivative formula regression"
        )
    iterations = 0
    mid = 0.5 * (lo + hi)
    f_mid = chi_ad_derivative(g, mid)
    # Shrink until both the bracket and the derivative residual are inside tol
    # (the residual trails the width by the local curvature, so a few extra
    # halvings after the width converges bring it down as well).
    while iterations < _MAX_BISECT and (hi - lo > tol or abs(f_mid) > tol):
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
        new_mid = 0.5 * (lo + hi)
        if not lo < new_mid < hi:
            break
        mid = new_mid
        f_mid = chi_ad_derivative(g, mid)
        iterations += 1
    return CapacityResult(
        a_max=mid,
        capacity_bits=chi_ad_curve(g, mid),
        residual=abs(f_mid),
        iterations=iterations,
        method=ROOT_BISECTION,
    )


def capacity_depolarizing(lam: float) -> CapacityResult:
    """Product-state capacity 1 - H(lam/2), maximized by the orthogonal pair at a = 1/2."""
    l = _unit_interval("lambda", lam)
    return CapacityResult(0.5, 1.0 - binary_entropy(0.5 * l), 0.0, 0, CLOSED_FORM)


def chi_dep_curve(lam, a):
    """Holevo quantity of Depolarizing(lam) on the mirror pair at a, in bits.

    Pure-state outputs have a-independent spectrum, so the curve reduces to
    H((1-lam) a + lam/2) - H(lam/2), maximized at a = 1/2.
    """
    scalar = np.ndim(lam) == 0 and np.ndim(a) == 0
    l = _unit_array("lambda", lam)
    av = _unit_array("a", a)
    value = binary_entropy((1.0 - l) * av + 0.5 * l) - binary_entropy(0.5 * l)
    return float(value) if scalar else value


@dataclass(frozen=True)
class Family:
    """A channel family: its kind, its channel class, the name of its parameter
    in reports and on the command line (``param``) and the channel attribute
    that holds it (``attr``), its mirror-pair chi curve ``curve(p, a)`` and its
    capacity solver ``capacity(p, tol)``.
    """

    kind: str
    channel: type
    param: str
    attr: str
    curve: Callable
    capacity: Callable

    def parameter(self, channel: Channel) -> float:
        return getattr(channel, self.attr)


# Entries look the curve and solver functions up by module-level name at call
# time, so code that rebinds those names (as tracing does) sees every call.
FAMILIES = {
    "ad": Family("ad", AmplitudeDamping, "gamma", "gamma",
                 lambda gamma, a: chi_ad_curve(gamma, a),
                 lambda gamma, tol: capacity_amplitude_damping(gamma, tol)),
    "dep": Family("dep", Depolarizing, "lambda", "lam",
                  lambda lam, a: chi_dep_curve(lam, a),
                  lambda lam, tol: capacity_depolarizing(lam)),
}


def family_of(channel: Channel) -> Family:
    """The table entry for an amplitude-damping or depolarizing channel."""
    for family in FAMILIES.values():
        if isinstance(channel, family.channel):
            return family
    raise DomainError(f"{type(channel).__name__} is neither amplitude-damping nor depolarizing")


def channel_capacity(channel: Channel, tol: float = 1e-10) -> CapacityResult:
    """Capacity of an amplitude-damping or depolarizing channel by its family solver."""
    family = family_of(channel)
    return family.capacity(family.parameter(channel), tol)
