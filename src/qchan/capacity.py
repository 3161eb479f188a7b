"""Holevo chi evaluation and the one-dimensional capacity solvers.

The amplitude-damping chi(a) curve restricted to mirror pairs has the closed
form

    chi(gamma, a) = H((1-a)(1-gamma)) - H((1-x)/2),
    x = sqrt(1 - 4 gamma (1-gamma) (1-a)^2),

because the averaged mirror-pair output is diagonal and the two branch output
entropies coincide. Its maximizer solves a transcendental equation and is
found by bisecting the derivative, which is exposed in bits per unit a. That
bisection, ``bisect_sign_change``, is the package's one root finder (it also
finds where two branch curves cross). It halves the bracket while it is wider
than ``width`` or |f(mid)| exceeds ``residual``, and stops early once the ends
are adjacent floats or after 200 halvings. Curve functions accept scalars or
numpy arrays.

When both inputs are scalars (``np.ndim`` 0), ``chi_ad_curve``,
``chi_ad_derivative`` and ``chi_dep_curve`` compute on Python floats and
return a float; the bisection solver calls the derivative this way about 35
times per solve, and numpy's per-call overhead on 0-d arrays would dominate.
This float kernel is bit-equal to the array kernel, entry by entry:

- ``+ - * /`` and the square root are correctly rounded in both;
- (1-a)^2 is written ``d * d``, which is what numpy computes when it squares
  an array (on a 0-d array ``** 2`` calls ``pow``, which can differ in the
  last bit);
- every logarithm is numpy's ufunc applied to the float (``np.log``,
  ``np.log1p``, and ``np.log2`` inside ``binary_entropy``), which runs the
  same loop as on an array; ``math.log`` differs from it in the last bit on
  some inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import AmplitudeDamping, Channel, Depolarizing, _unit_interval, apply_channel
from .errors import DomainError, SolverError
from .states import Ensemble, binary_entropy, is_scalar, mix, von_neumann_entropy

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


def _u(gamma, a):
    """u = 4 gamma (1-gamma) (1-a)^2 of the closed form, on floats or arrays."""
    d = 1.0 - a
    return 4.0 * gamma * (1.0 - gamma) * (d * d)


def _ratio(gamma, a):
    """(a + gamma (1-a)) / ((1-gamma) (1-a)), the argument of the derivative's log."""
    return (a + gamma * (1.0 - a)) / ((1.0 - gamma) * (1.0 - a))


def _u_x(gamma, a):
    """u and x = sqrt(1 - u) of the closed form, on arrays."""
    u = _u(gamma, a)
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
    return g, av, u, x, _ratio(g, av)


def _interior_floats(gamma, a):
    """interior_terms(gamma, a) for two scalars, as Python floats."""
    g, av = float(gamma), float(a)
    if not 0.0 < g < 1.0:
        raise DomainError("gamma must lie strictly inside (0, 1)")
    if not 0.0 <= av < 1.0:
        raise DomainError("a must lie in [0, 1)")
    u = _u(g, av)
    return g, av, u, math.sqrt(max(1.0 - u, 0.0)), _ratio(g, av)


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


def _log_ratio_over_x_float(u, x):
    """_log_ratio_over_x on floats, evaluating only the selected regime."""
    if x < 1e-4:
        xx = x * x
        return 2.0 + xx * (2.0 / 3.0 + xx * (2.0 / 5.0))
    if u < 1e-8:
        return (2.0 * float(np.log1p(x)) - float(np.log(u if u > 0.0 else 1.0))) / x
    return float(np.log((1.0 + x) / max(1.0 - x, 1e-300))) / x


def chi_ad_curve(gamma, a):
    """Holevo quantity of AmplitudeDamping(gamma) on the mirror pair at a, in bits.

    Equals H((1-a)(1-gamma)) - H((1-x)/2); agrees with holevo_chi on the
    explicit two-state ensemble to roundoff.
    """
    if is_scalar(gamma) and is_scalar(a):
        g, av = _unit_interval("gamma", gamma), _unit_interval("a", a)
        x = math.sqrt(max(1.0 - _u(g, av), 0.0))
    else:
        g, av = _unit_array("gamma", gamma), _unit_array("a", a)
        _, x = _u_x(g, av)
    return binary_entropy((1.0 - av) * (1.0 - g)) - binary_entropy(0.5 * (1.0 - x))


def chi_ad_derivative(gamma, a):
    """d chi_ad_curve / da in bits per unit a.

    The natural-log closed form divided by ln 2. Singular at a = 1 and at
    gamma in {0, 1}; those inputs are rejected, the capacity solver handles
    the endpoints separately.
    """
    if is_scalar(gamma) and is_scalar(a):
        g, av, u, x, ratio = _interior_floats(gamma, a)
        log_ratio, log_ratio_over_x = float(np.log(ratio)), _log_ratio_over_x_float(u, x)
    else:
        g, av, u, x, ratio = interior_terms(gamma, a)
        log_ratio, log_ratio_over_x = np.log(ratio), _log_ratio_over_x(u, x)
    return (
        -(1.0 - g) * log_ratio
        + 2.0 * g * (1.0 - g) * (1.0 - av) * log_ratio_over_x
    ) / _LN2


def check_tol(tol, name="tol"):
    """Raise DomainError unless a bisection tolerance, called ``name``, is positive and finite.

    An infinite tol would stop the bisection before its first step. The CLI
    applies the same rule to every command that takes --tol, so a tol that the
    damping solver refuses is refused for the depolarizing family too, which
    ignores it.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {tol}")
    return tol


def _midpoint(lo, hi):
    """Midpoint inside [lo, hi] for all finite ends. Where lo + hi overflows, both ends
    are large and halving each is exact; a halved subnormal end can round out."""
    mid = 0.5 * (lo + hi)
    return 0.5 * lo + 0.5 * hi if math.isinf(mid) else mid


def bisect_sign_change(f, lo, hi, width, residual=math.inf):
    """Bisect from ``lo``, where f > 0, to ``hi``, where f <= 0 (``lo > hi`` works),
    by the stop rule in the module docstring. Returns (mid, f(mid), halvings).
    """
    halvings = 0
    mid = _midpoint(lo, hi)
    f_mid = f(mid)
    while halvings < _MAX_BISECT and (abs(hi - lo) > width or abs(f_mid) > residual):
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
        new_mid = _midpoint(lo, hi)
        if new_mid == lo or new_mid == hi:
            break
        mid = new_mid
        f_mid = f(mid)
        halvings += 1
    return mid, f_mid, halvings


def capacity_amplitude_damping(gamma: float, tol: float = 1e-10) -> CapacityResult:
    """Product-state capacity of AmplitudeDamping(gamma) and its maximizer.

    gamma = 0 and gamma = 1 short-circuit to closed forms. Otherwise the
    derivative is bisected on [1/2, 1): the maximizer never sits left of 1/2
    and the derivative diverges to -inf at a = 1, so the bracket always holds
    a sign change. ``tol`` bounds the final bracket width and the residual
    |chi'|; near the optimum chi is quadratically flat, so its error is O(tol^2).
    """
    g = _unit_interval("gamma", gamma)
    check_tol(tol)
    if g == 0.0:
        return CapacityResult(0.5, 1.0, 0.0, 0, CLOSED_FORM)
    if g == 1.0:
        return CapacityResult(0.5, 0.0, 0.0, 0, CLOSED_FORM)
    derivative = functools.partial(chi_ad_derivative, g)
    lo, hi = 0.5, 1.0 - _BRACKET_EPS
    f_lo, f_hi = derivative(lo), derivative(hi)
    if not (f_lo > 0.0 > f_hi):
        raise SolverError(
            f"chi'(a) does not change sign on [{lo}, {hi}] for gamma={g}: "
            f"({f_lo}, {f_hi}); derivative formula regression"
        )
    mid, f_mid, iterations = bisect_sign_change(derivative, lo, hi, tol, tol)
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
    if is_scalar(lam) and is_scalar(a):
        l, av = _unit_interval("lambda", lam), _unit_interval("a", a)
    else:
        l, av = _unit_array("lambda", lam), _unit_array("a", a)
    return binary_entropy((1.0 - l) * av + 0.5 * l) - binary_entropy(0.5 * l)


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
