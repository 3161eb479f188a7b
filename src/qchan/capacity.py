"""Holevo chi evaluation and the one-dimensional capacity solvers.

The amplitude-damping chi(a) curve restricted to mirror pairs has the closed
form

    chi(gamma, a) = H((1-a)(1-gamma)) - H((1-x)/2),
    x = sqrt(1 - 4 gamma (1-gamma) (1-a)^2),

because the averaged mirror-pair output is diagonal and the two branch output
entropies coincide. Its maximizer solves a transcendental equation and is
found by bisecting the derivative, which is exposed in bits per unit a. That
bisection, ``bisect_sign_change``, is the package's one root finder: it also
finds where two branch curves cross, and qchan.divergence's radius centre and
saddle weight. It halves the bracket while it is wider than ``width`` or
|f(mid)| exceeds ``residual``, and stops early once the ends are adjacent floats
or after 200 halvings. Curve functions accept scalars or numpy arrays.

The gamma-derivative ``dchi_dgamma`` is nonpositive, so chi falls as gamma
grows and the worse damping parameter decides a two-damping mixture. Past
gamma = 1/2 this rests on the monotonicity certificate: dchi_dgamma =
-(1-a) f with ``monotonicity_f`` zero at a = 0 and increasing in a
(``monotonicity_df_da`` > 0).

When both inputs are scalars (``np.ndim`` 0), the six curve functions
``chi_ad_curve``, ``chi_dep_curve``, ``chi_ad_derivative``, ``dchi_dgamma``,
``monotonicity_f`` and ``monotonicity_df_da`` compute on Python floats and
return a float; the bisection solver calls the derivative this way about 35
times per solve, and numpy's per-call overhead on 0-d arrays would dominate.
Each decides once, at entry, through ``_operands`` (the two curves) or
``_interior`` (the four derivatives). This float kernel is bit-equal to the
array kernel, entry by entry:

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


def _float_root(v):
    """sqrt(max(v, 0)) on a float, where v = 1 - u can round below 0."""
    return math.sqrt(max(v, 0.0))


def _array_root(v):
    """_float_root on an array."""
    return np.sqrt(np.maximum(v, 0.0))


def _operands(name, p, a):
    """(p, a) checked to lie in [0, 1], with the clamped square root for them: Python
    floats and _float_root for two scalars, float arrays and _array_root otherwise."""
    if is_scalar(p) and is_scalar(a):
        return _unit_interval(name, p), _unit_interval("a", a), _float_root
    p, a = np.asarray(p, dtype=float), np.asarray(a, dtype=float)
    for label, value in ((name, p), ("a", a)):
        if not np.all((value >= 0.0) & (value <= 1.0)):
            raise DomainError(f"{label} must lie in [0, 1]")
    return p, a, _array_root


def _u(gamma, a):
    """u = 4 gamma (1-gamma) (1-a)^2 of the closed form, on floats or arrays."""
    d = 1.0 - a
    return 4.0 * gamma * (1.0 - gamma) * (d * d)


def _ratio(gamma, a):
    """(a + gamma (1-a)) / ((1-gamma) (1-a)), the argument of the derivative's log."""
    return (a + gamma * (1.0 - a)) / ((1.0 - gamma) * (1.0 - a))


def _interior(gamma, a, gamma_low=0.0):
    """(g, a, x, ln ratio, ln((1+x)/(1-x)) / x) for the derivatives of chi_ad_curve, with
    ratio = (a + g (1-a)) / ((1-g) (1-a)) and x = sqrt(1 - u).

    They are singular at a = 1 and g = 1: gamma must lie in (gamma_low, 1) and a in
    [0, 1). The last term has three regimes: a Taylor series for small x, the direct
    quotient in the bulk, and (2 log1p(x) - log(u)) / x when 1 - x would cancel
    catastrophically. Two scalars give Python floats and evaluate only the selected
    regime; arrays evaluate all three and select entry by entry.
    """
    if is_scalar(gamma) and is_scalar(a):
        g, av = float(gamma), float(a)
        if not gamma_low < g < 1.0:
            raise DomainError(f"gamma must lie strictly inside ({gamma_low:g}, 1)")
        if not 0.0 <= av < 1.0:
            raise DomainError("a must lie in [0, 1)")
        u = _u(g, av)
        x = _float_root(1.0 - u)
        if x < 1e-4:
            xx = x * x
            over_x = 2.0 + xx * (2.0 / 3.0 + xx * (2.0 / 5.0))
        elif u < 1e-8:
            over_x = (2.0 * float(np.log1p(x)) - float(np.log(u if u > 0.0 else 1.0))) / x
        else:
            over_x = float(np.log((1.0 + x) / max(1.0 - x, 1e-300))) / x
        return g, av, x, float(np.log(_ratio(g, av))), over_x
    g, av = np.asarray(gamma, dtype=float), np.asarray(a, dtype=float)
    if not np.all((g > gamma_low) & (g < 1.0)):
        raise DomainError(f"gamma must lie strictly inside ({gamma_low:g}, 1)")
    if not np.all((av >= 0.0) & (av < 1.0)):
        raise DomainError("a must lie in [0, 1)")
    u = _u(g, av)
    x = _array_root(1.0 - u)
    x_safe = np.where(x > 0.0, x, 1.0)
    u_safe = np.where(u > 0.0, u, 1.0)
    direct = np.log((1.0 + x) / np.maximum(1.0 - x, 1e-300)) / x_safe
    robust = (2.0 * np.log1p(x) - np.log(u_safe)) / x_safe
    xx = x * x
    series = 2.0 + xx * (2.0 / 3.0 + xx * (2.0 / 5.0))
    over_x = np.where(x < 1e-4, series, np.where(u < 1e-8, robust, direct))
    return g, av, x, np.log(_ratio(g, av)), over_x


def chi_ad_curve(gamma, a):
    """Holevo quantity of AmplitudeDamping(gamma) on the mirror pair at a, in bits.

    Equals H((1-a)(1-gamma)) - H((1-x)/2); agrees with holevo_chi on the
    explicit two-state ensemble to roundoff.
    """
    g, av, root = _operands("gamma", gamma, a)
    x = root(1.0 - _u(g, av))
    return binary_entropy((1.0 - av) * (1.0 - g)) - binary_entropy(0.5 * (1.0 - x))


def chi_ad_derivative(gamma, a):
    """d chi_ad_curve / da in bits per unit a.

    The natural-log closed form divided by ln 2. Singular at a = 1 and at
    gamma in {0, 1}; those inputs are rejected, the capacity solver handles
    the endpoints separately.
    """
    g, av, _, log_ratio, over_x = _interior(gamma, a)
    return (
        -(1.0 - g) * log_ratio
        + 2.0 * g * (1.0 - g) * (1.0 - av) * over_x
    ) / _LN2


def dchi_dgamma(gamma, a):
    """Partial derivative in gamma of ln2 * chi_ad_curve; nonpositive everywhere.

    Natural-log units so the expression matches finite differences of
    ln(2) * chi_ad_curve directly.
    """
    g, av, _, log_ratio, over_x = _interior(gamma, a)
    d = 1.0 - av
    return -d * log_ratio + (2.0 * g - 1.0) * (d * d) * over_x


def monotonicity_f(gamma, a):
    """Monotonicity certificate for gamma > 1/2: dchi_dgamma = -(1-a) f(a, gamma).

    Vanishes at a = 0 and stays nonnegative, which certifies that the damping
    chi curve decreases with gamma also beyond gamma = 1/2.
    """
    g, av, _, log_ratio, over_x = _interior(gamma, a, gamma_low=0.5)
    return log_ratio - (2.0 * g - 1.0) * (1.0 - av) * over_x


def monotonicity_df_da(gamma, a):
    """Derivative of monotonicity_f in a; positive on its domain."""
    g, av, x, _, over_x = _interior(gamma, a, gamma_low=0.5)
    # x * x is 0 or above 1e-16 here, so adding 1e-300 is max(x * x, 1e-300) on floats and arrays
    x_sq = x * x + 1e-300
    return (
        (1.0 - g) / (av + g * (1.0 - av))
        + 1.0 / (1.0 - av)
        + (2.0 * g - 1.0) * over_x / x_sq
        - 2.0 * (2.0 * g - 1.0) / x_sq
    )


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
    by the stop rule in the module docstring. Returns (mid, f(mid), halvings), mid
    the centre of the final bracket unless its ends are adjacent floats. Where f never
    changes sign, the bracket closes on ``lo`` if f <= 0 throughout and on ``hi`` if
    f > 0: on [0, 1] at width 2**-40, mid is then 2**-41 or 1 - 2**-41.
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
    l, av, _ = _operands("lambda", lam, a)
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
