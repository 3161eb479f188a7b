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

Each quantity is written once, as a factory of the curve parameter that
returns a function of a with the parameter's factors computed once and no
domain checks: ``_ad_curve(gamma)``, ``_dep_curve(lam)`` and ``_slope(gamma)``
(chi', and with ``curvature=True`` the pair (chi', chi'')). A factory built
for a Python float computes on floats, and one built for a numpy array on
arrays. The solvers build the float kernels and evaluate them many times: the
damping solver bisects ``_slope`` and ``qchan.mixtures`` the crossing of two
curve kernels, which ``Family.curve`` builds. The damping bisection calls
``_slope`` only inside the band (p, q) that ``_sign_band``'s Newton steps leave
unproven: computed chi' beyond a margin of 2**-36 proves chi' > 0 up to p and
chi' < 0 from q, as ``_slope`` shows from its error bound. Its midpoints and
every bit of its result are the plain bisection's, at about 9 slope
evaluations a solve instead of 36 (tol 1e-10). The public ``chi_ad_curve``,
``chi_dep_curve`` and ``chi_ad_derivative`` check their inputs and call the
factory: on two floats when both inputs are scalars (``np.ndim`` 0), as
numpy's per-call overhead on 0-d arrays would dominate there, else on two
arrays. ``dchi_dgamma``, ``monotonicity_f`` and ``monotonicity_df_da`` share
``_interior`` alike.

The only type-specific code is ``_float_terms`` / ``_array_terms``, which give
x, ln ratio and O = ln((1+x)/(1-x)) / x (the float one evaluates only the
regime of O that applies, the array one all three and selects per entry), and
the square root in ``_ad_curve``. A float call therefore gives the bits of
its array entry:

- ``+ - * /`` and the square root are correctly rounded on both, and each
  expression is evaluated left to right on both;
- (1-a)^2 is written ``d * d``, which is correctly rounded on both, while
  ``d ** 2`` calls ``pow`` on a float (and on a 0-d array), which can differ
  from numpy's array square in the last bit;
- every logarithm is numpy's ufunc, applied to the float as
  ``float(np.log(...))`` (likewise ``np.log1p``, and ``np.log2`` inside
  ``binary_entropy``), which runs the same loop as on an array; ``math.log``
  differs from it in the last bit on some inputs.

x = sqrt(1 - u) with u = 4 gamma (1-gamma) (1-a)^2 needs no clamp: computed u
is at most 1 for every gamma and a in [0, 1], so 1 - u >= 0. Rounding is
monotone and fl((1-a)^2) <= 1, so computed u is at most fl(4 gamma fl(1-gamma)).
For gamma >= 1/2, 1 - gamma is exact (Sterbenz) and 4 gamma (1-gamma) <= 1. For
gamma < 1/2, fl(1-gamma) exceeds 1 - gamma by at most 2**-54 and 4 gamma < 2,
so 4 gamma fl(1-gamma) < 1 + 2**-53, which rounds to at most 1.
"""

from __future__ import annotations

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

# A computed damping slope beyond +-_MARGIN has a proven sign (see ``_slope``); the
# band search around its root makes at most _NEWTON_STEPS + 2 slope evaluations.
_MARGIN = 2.0 ** -36
_NEWTON_STEPS = 6


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


def _unit_pair(name, p, a):
    """(p, a) checked to lie in [0, 1]: two floats when both are scalars, else two
    float arrays."""
    if is_scalar(p) and is_scalar(a):
        return _unit_interval(name, p), _unit_interval("a", a)
    p, a = np.asarray(p, dtype=float), np.asarray(a, dtype=float)
    for label, value in ((name, p), ("a", a)):
        if not np.all((value >= 0.0) & (value <= 1.0)):
            raise DomainError(f"{label} must lie in [0, 1]")
    return p, a


def _interior_pair(gamma, a, gamma_low=0.0):
    """(gamma, a) checked to lie in (gamma_low, 1) and [0, 1), where the derivatives of
    chi_ad_curve are finite: two floats when both are scalars, else two float arrays."""
    if is_scalar(gamma) and is_scalar(a):
        g, av = float(gamma), float(a)
        g_in, a_in = gamma_low < g < 1.0, 0.0 <= av < 1.0
    else:
        g, av = np.asarray(gamma, dtype=float), np.asarray(a, dtype=float)
        g_in, a_in = np.all((g > gamma_low) & (g < 1.0)), np.all((av >= 0.0) & (av < 1.0))
    if not g_in:
        raise DomainError(f"gamma must lie strictly inside ({gamma_low:g}, 1)")
    if not a_in:
        raise DomainError("a must lie in [0, 1)")
    return g, av


def _float_terms(ratio, u):
    """(x, ln ratio, O) on floats, x = sqrt(1 - u) and O = ln((1+x)/(1-x)) / x, by the
    regime of O that applies; evaluates only that regime (see ``_array_terms``). The
    direct quotient has u >= 1e-8, so 1 - x >= 2**-53 there, which the array floor of
    1e-300 leaves as it is."""
    x = math.sqrt(1.0 - u)
    log_ratio = float(np.log(ratio))
    if x < 1e-4:
        xx = x * x
        return x, log_ratio, 2.0 + xx * (2.0 / 3.0 + xx * (2.0 / 5.0))
    if u < 1e-8:
        return x, log_ratio, (2.0 * float(np.log1p(x)) - float(np.log(u if u > 0.0 else 1.0))) / x
    return x, log_ratio, float(np.log((1.0 + x) / (1.0 - x))) / x


def _array_terms(ratio, u):
    """(x, ln ratio, O) on arrays, as ``_float_terms``. O has three regimes: a Taylor
    series for x < 1e-4, (2 log1p(x) - log(u)) / x for u < 1e-8, where 1 - x would
    cancel catastrophically, and the direct quotient elsewhere. All three are evaluated
    and selected entry by entry; u = 0 is reachable (gamma = 5e-324)."""
    x = np.sqrt(1.0 - u)
    x_safe = np.where(x > 0.0, x, 1.0)
    u_safe = np.where(u > 0.0, u, 1.0)
    direct = np.log((1.0 + x) / np.maximum(1.0 - x, 1e-300)) / x_safe
    robust = (2.0 * np.log1p(x) - np.log(u_safe)) / x_safe
    xx = x * x
    series = 2.0 + xx * (2.0 / 3.0 + xx * (2.0 / 5.0))
    return x, np.log(ratio), np.where(x < 1e-4, series, np.where(u < 1e-8, robust, direct))


def _interior(gamma, a, gamma_low=0.0):
    """(g, a, x, ln ratio, O) for the derivatives of chi_ad_curve, checked by
    ``_interior_pair``, with ratio = (a + g (1-a)) / ((1-g) (1-a)), x = sqrt(1 - u) and
    O = ln((1+x)/(1-x)) / x: floats for two scalars, else arrays."""
    g, av = _interior_pair(gamma, a, gamma_low)
    terms = _float_terms if isinstance(g, float) else _array_terms
    d = 1.0 - av
    return (g, av) + terms((av + g * d) / ((1.0 - g) * d), 4.0 * g * (1.0 - g) * (d * d))


def _slope(g, curvature=False):
    """a -> d chi_ad_curve(g, a) / da in bits, for g in (0, 1) and a in [0, 1); it
    checks neither. With ``curvature``, a -> (chi', chi'') for a in [1/2, 1), whose chi'
    is the same expression and so the same bits. Built for a float g it computes on
    floats, for an array g on arrays (``_float_terms``, ``_array_terms``).

    With q = 1-g, d = 1-a, w = a + g d and O = ln((1+x)/(1-x)) / x >= 2,
    chi'' ln 2 = -q (q/w + 1/d) + 2 g q (2 - O) / (1-u) < 0 (u <= 1/4 on [1/2, 1)), so
    chi' falls strictly: chi is concave in a.

    On a in [1/2, 1 - 1e-9] and g in (0, 1) the computed chi' is within E = 2.5e-12 of
    the true one if np.log and np.log1p are within 4 ulp: E is mostly 2.2e-16 / d from
    1 - x in the direct regime, where u >= 1e-8 keeps d >= 1e-4. A test holds the kernel
    to E against 50-digit decimal arithmetic; with numpy 2.4 on an AVX-512 x86-64 CPU its
    worst point, near u = 1e-8, is 9.8e-13 off. So a computed chi'(p) > _MARGIN >= 4E
    proves computed chi'(m) >= true chi'(m) - E >= true chi'(p) - E >= chi'(p) - 2E > 0
    for every m <= p, and chi'(q) < -_MARGIN proves chi'(m) < 0 for every m >= q alike.
    """
    terms = _float_terms if isinstance(g, float) else _array_terms
    q = 1.0 - g
    minus_q = -q
    c4 = 4.0 * g * q
    c2 = 2.0 * g * q

    def slope(a):
        d = 1.0 - a
        u = c4 * (d * d)
        w = a + g * d
        _, log_ratio, over_x = terms(w / (q * d), u)
        chi_prime = (minus_q * log_ratio + c2 * d * over_x) / _LN2
        if not curvature:
            return chi_prime
        return chi_prime, (minus_q * (q / w + 1.0 / d) + c2 * (2.0 - over_x) / (1.0 - u)) / _LN2

    return slope


def _ad_curve(g):
    """a -> chi_ad_curve(g, a), for g and a in [0, 1]; it checks neither. The factors of
    g are computed once; built for a float g it computes on floats, for an array g on
    arrays, as ``_slope``."""
    sqrt = math.sqrt if isinstance(g, float) else np.sqrt
    q = 1.0 - g
    c4 = 4.0 * g * q

    def chi(a):
        d = 1.0 - a
        x = sqrt(1.0 - c4 * (d * d))
        return binary_entropy(d * q) - binary_entropy(0.5 * (1.0 - x))

    return chi


def chi_ad_curve(gamma, a):
    """Holevo quantity of AmplitudeDamping(gamma) on the mirror pair at a, in bits.

    Equals H((1-a)(1-gamma)) - H((1-x)/2); agrees with holevo_chi on the
    explicit two-state ensemble to roundoff.
    """
    g, av = _unit_pair("gamma", gamma, a)
    return _ad_curve(g)(av)


def chi_ad_derivative(gamma, a):
    """d chi_ad_curve / da in bits per unit a.

    The natural-log closed form divided by ln 2. Singular at a = 1 and at
    gamma in {0, 1}; those inputs are rejected, the capacity solver handles
    the endpoints separately.
    """
    g, av = _interior_pair(gamma, a)
    return _slope(g)(av)


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


def bisect_sign_change(f, lo, hi, width, residual=math.inf, known=None):
    """Bisect from ``lo``, where f > 0, to ``hi``, where f <= 0 (``lo > hi`` works),
    by the stop rule in the module docstring. Returns (mid, f(mid), halvings), mid
    the centre of the final bracket unless its ends are adjacent floats. Where f never
    changes sign, the bracket closes on ``lo`` if f <= 0 throughout and on ``hi`` if
    f > 0: on [0, 1] at width 2**-40, mid is then 2**-41 or 1 - 2**-41.

    ``known = (p, q)`` is a band whose signs the caller guarantees: computed f > 0 at
    every point from ``lo`` through ``p``, and f <= 0 from ``q`` through ``hi``. f is
    then called only at a mid strictly inside (p, q), at a mid whose bracket is no
    wider than ``width`` (the residual test reads it) and at the final mid; other mids
    take their proven sign, so mids, decisions and result are those of ``known=None``.
    """
    banded = known is not None
    if banded:  # the band's ends in increasing order, and the proven signs beside it
        band_lo, band_hi = sorted(known)
        below, above = (1.0, -1.0) if lo <= hi else (-1.0, 1.0)
    halvings = 0
    mid = _midpoint(lo, hi)
    while True:
        wide = abs(hi - lo) > width
        proven = banded and wide and not band_lo < mid < band_hi
        f_mid = (below if mid <= band_lo else above) if proven else f(mid)
        if halvings == _MAX_BISECT or not (wide or abs(f_mid) > residual):
            break
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
        new_mid = 0.5 * (lo + hi)  # _midpoint inlined: a call costs as much as a cheap f
        if math.isinf(new_mid):
            new_mid = _midpoint(lo, hi)
        if new_mid == lo or new_mid == hi:
            break
        mid = new_mid
        halvings += 1
    return mid, f(mid) if proven else f_mid, halvings


def _sign_band(newton, slope, x, q, s, c, tol):
    """The ``known`` band (p, q) for bisecting the damping slope from x, where
    (s, c) = newton(x) and s > 0, to q, where it is negative: at most _NEWTON_STEPS
    Newton steps from x (one that leaves (p, q) takes its midpoint), then a probe at h
    on each side of the last target. A point whose computed chi' is beyond +-_MARGIN
    becomes p or q (``_slope`` shows this sound); else the band stays wide.
    """
    p, last = x, 0.0
    for _ in range(_NEWTON_STEPS):
        step = s / c
        target = x - step
        if not p < target < q:
            target, step, last = 0.5 * (p + q), 0.0, 0.0
        # the slope is about c (a - root) near the root, so |chi'| > _MARGIN h away from it
        h = max(0.25 * tol, -2.0 * _MARGIN / c)
        # Newton's error falls about quadratically: to |step|^3 / last^2 after this step
        if abs(target - x) <= h or abs(step) ** 3 < 0.125 * h * last * last:
            break
        x, last = target, abs(step)
        s, c = newton(x)
        p, q = (x, q) if s > _MARGIN else (p, x) if s < -_MARGIN else (p, q)
    for y in (target - h, target + h):
        if p < y < q:
            s = slope(y)
            p, q = (y, q) if s > _MARGIN else (p, y) if s < -_MARGIN else (p, q)
    return p, q


def capacity_amplitude_damping(gamma: float, tol: float = 1e-10) -> CapacityResult:
    """Product-state capacity of AmplitudeDamping(gamma) and its maximizer.

    gamma = 0 and gamma = 1 short-circuit to closed forms. Otherwise the
    derivative is bisected on [1/2, 1): the maximizer never sits left of 1/2
    and the derivative diverges to -inf at a = 1, so the bracket always holds
    a sign change. The bisection evaluates it only where ``_sign_band`` has not
    proven its sign, which changes no midpoint. ``tol`` bounds the final bracket width and the residual
    |chi'|; near the optimum chi is quadratically flat, so its error is O(tol^2).
    """
    g = _unit_interval("gamma", gamma)
    check_tol(tol)
    if g == 0.0:
        return CapacityResult(0.5, 1.0, 0.0, 0, CLOSED_FORM)
    if g == 1.0:
        return CapacityResult(0.5, 0.0, 0.0, 0, CLOSED_FORM)
    slope, newton = _slope(g), _slope(g, curvature=True)
    lo, hi = 0.5, 1.0 - _BRACKET_EPS
    (f_lo, c_lo), f_hi = newton(lo), slope(hi)
    if not (f_lo > 0.0 > f_hi):
        raise SolverError(
            f"chi'(a) does not change sign on [{lo}, {hi}] for gamma={g}: "
            f"({f_lo}, {f_hi}); derivative formula regression"
        )
    band = _sign_band(newton, slope, lo, hi, f_lo, c_lo, tol)
    mid, f_mid, iterations = bisect_sign_change(slope, lo, hi, tol, tol, band)
    return CapacityResult(
        a_max=mid,
        # chi >= 0 for every ensemble; at gamma = 1 - 2**-53 the curve rounds to -5.4e-17
        capacity_bits=max(chi_ad_curve(g, mid), 0.0),
        residual=abs(f_mid),
        iterations=iterations,
        method=ROOT_BISECTION,
    )


def capacity_depolarizing(lam: float) -> CapacityResult:
    """Product-state capacity 1 - H(lam/2), maximized by the orthogonal pair at a = 1/2."""
    l = _unit_interval("lambda", lam)
    return CapacityResult(0.5, 1.0 - binary_entropy(0.5 * l), 0.0, 0, CLOSED_FORM)


def _dep_curve(l):
    """a -> chi_dep_curve(l, a) on floats or arrays, for l and a in [0, 1]; it checks
    neither. H(l/2) is computed once."""
    q, h = 1.0 - l, 0.5 * l
    base = binary_entropy(h)
    return lambda a: binary_entropy(q * a + h) - base


def chi_dep_curve(lam, a):
    """Holevo quantity of Depolarizing(lam) on the mirror pair at a, in bits.

    Pure-state outputs have a-independent spectrum, so the curve reduces to
    H((1-lam) a + lam/2) - H(lam/2), maximized at a = 1/2.
    """
    l, av = _unit_pair("lambda", lam, a)
    return _dep_curve(l)(av)


@dataclass(frozen=True)
class Family:
    """A channel family: its kind, its channel class, the name of its parameter
    in reports and on the command line (``param``) and the channel attribute
    that holds it (``attr``), its mirror-pair chi curve as a float kernel
    factory ``curve(p)`` (a -> chi, p not checked) and its capacity solver
    ``capacity(p, tol)``.
    """

    kind: str
    channel: type
    param: str
    attr: str
    curve: Callable
    capacity: Callable

    def parameter(self, channel: Channel) -> float:
        return getattr(channel, self.attr)


# Entries look the solvers up by module-level name at call time, so code that
# rebinds those names (as tracing does) sees every call to them. Curve kernel
# evaluations call ``binary_entropy`` by that name but are not calls to
# ``chi_ad_curve`` or ``chi_dep_curve``, as ``_slope``'s are not calls to
# ``chi_ad_derivative`` (the damping solver's ``iterations`` count those).
FAMILIES = {
    "ad": Family("ad", AmplitudeDamping, "gamma", "gamma", _ad_curve,
                 lambda gamma, tol: capacity_amplitude_damping(gamma, tol)),
    "dep": Family("dep", Depolarizing, "lambda", "lam", _dep_curve,
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
