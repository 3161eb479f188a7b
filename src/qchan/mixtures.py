"""Product-state capacity of convex combinations of two memoryless channels.

The sup-min of the two branch Holevo quantities is evaluated over the
mirror-pair family: symmetrizing never lowers either branch chi (both channel
families are covariant under b -> -b) and output-entropy convexity collapses
any symmetric ensemble to a single effective a, so the restriction loses
nothing. The minimum of the two concave branch curves is concave; its maximum
sits either at an unconstrained branch maximizer (when feasible) or at a
crossing of the two curves.

When neither maximizer is feasible, chi1 lies above chi2 at a1 = argmax chi1
and below it at a2 = argmax chi2. Walking from a1 to a2, the concave chi1
only falls and the concave chi2 only rises, so the curves cross exactly once
between the two maximizers, and outside that interval both curves lie below
their values at the nearer maximizer. The sup-min is therefore that single
crossing, found by bisection on [a1, a2] with no scan of the whole a-range.
It evaluates the branch curves' float kernels (``Family.curve``), which give
the bits of ``chi_ad_curve`` and ``chi_dep_curve`` without their checks.
``resolution`` is the final bracket's width; the smaller curve at its centre,
a lower bound on the sup-min labelled a tie, is the value reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .capacity import (
    CapacityResult,
    bisect_sign_change,
    capacity_amplitude_damping,
    capacity_depolarizing,
    channel_capacity,
    check_tol,
    family_of,
)
from .channels import AmplitudeDamping, Channel, Depolarizing, MixedChannelPair, _unit_interval

MIN_BRANCH_CH1 = "channel1"
MIN_BRANCH_CH2 = "channel2"
MIN_BRANCH_TIE = "tie"

# Amplitude-damping + depolarizing pair, located by a dense parameter sweep,
# whose sup-min capacity sits ~3.3e-3 bits below both branch capacities with
# the branch curves crossing strictly between 1/2 and the damping maximizer.
SEPARATION_GAMMA = 0.5
SEPARATION_LAMBDA = 0.24


def separation_pair() -> MixedChannelPair:
    """The shipped mixture exhibiting a strict capacity separation."""
    return MixedChannelPair(
        AmplitudeDamping(SEPARATION_GAMMA), Depolarizing(SEPARATION_LAMBDA)
    )


@dataclass(frozen=True)
class MinimaxResult:
    """Sup-min capacity over the mirror-pair family and where it is attained.

    ``branch_capacity_1`` and ``branch_capacity_2`` are the capacities of the
    two branches on their own; ``a_cross`` is the bisected crossing of the two
    branch curves, None when the sup-min is a branch maximizer.
    """

    capacity_bits: float
    a_star: float
    min_branch: str
    branch_capacity_1: float
    branch_capacity_2: float
    a_cross: Optional[float] = None


def _branch_curve(channel: Channel):
    """The float kernel a -> chi of the channel's mirror-pair curve."""
    family = family_of(channel)
    return family.curve(family.parameter(channel))


def crossings(diff, grid, values, resolution: float):
    """Interior zeros of ``diff`` from its samples ``values`` on the sorted ``grid``.

    Returns (i, a) pairs: a = grid[i] where values[i] is exactly zero, else the
    sign change inside [grid[i], grid[i + 1]] bisected to ``resolution`` (or
    to adjacent floats, whichever comes first). Exact zeros count at every grid
    point but the two ends; sign changes in the first and last cells are skipped.
    """
    found = []
    for i in range(1, len(grid) - 1):
        f_lo = float(values[i])
        if f_lo == 0.0:
            found.append((i, float(grid[i])))
        elif i < len(grid) - 2 and f_lo * float(values[i + 1]) < 0.0:
            lo, hi = float(grid[i]), float(grid[i + 1])
            if f_lo < 0.0:  # bisect_sign_change starts where diff > 0
                lo, hi = hi, lo
            found.append((i, bisect_sign_change(diff, lo, hi, resolution)[0]))
    return found


def minimax_capacity(pair: MixedChannelPair, resolution: float = 1e-6) -> MinimaxResult:
    """Sup over mirror pairs of the minimum branch Holevo quantity, in bits.

    A degenerate branch weight reduces to the live channel's capacity; both
    branches are still solved, so each must be amplitude-damping or
    depolarizing. ``oracle.oracle_minimax`` is the independent check.
    """
    check_tol(resolution, "resolution")
    cap1 = channel_capacity(pair.ch1)
    cap2 = channel_capacity(pair.ch2)

    a_cross = None
    if pair.weight1 == 1.0:
        value, a_star, branch = cap1.capacity_bits, cap1.a_max, MIN_BRANCH_CH1
    elif pair.weight1 == 0.0:
        value, a_star, branch = cap2.capacity_bits, cap2.a_max, MIN_BRANCH_CH2
    else:
        chi1 = _branch_curve(pair.ch1)
        chi2 = _branch_curve(pair.ch2)
        # A branch maximizer is feasible when the other curve dominates there; the
        # sup-min then equals that branch capacity exactly.
        feasible1 = chi2(cap1.a_max) >= cap1.capacity_bits - 1e-12
        feasible2 = chi1(cap2.a_max) >= cap2.capacity_bits - 1e-12
        if feasible1 or feasible2:
            candidates = []
            if feasible1:
                candidates.append((cap1.capacity_bits, cap1.a_max, MIN_BRANCH_CH1))
            if feasible2:
                candidates.append((cap2.capacity_bits, cap2.a_max, MIN_BRANCH_CH2))
            value, a_star, branch = max(candidates, key=lambda c: c[0])
            if abs(chi1(a_star) - chi2(a_star)) <= 1e-9:
                branch = MIN_BRANCH_TIE
        else:
            # chi1 > chi2 at cap1.a_max and chi1 < chi2 at cap2.a_max, and the
            # single crossing between them is the sup-min (module docstring).
            a_star = a_cross = bisect_sign_change(
                lambda a: chi1(a) - chi2(a), cap1.a_max, cap2.a_max, resolution)[0]
            value = min(chi1(a_star), chi2(a_star))
            branch = MIN_BRANCH_TIE

    return MinimaxResult(value, a_star, branch, cap1.capacity_bits, cap2.capacity_bits, a_cross)


def capacity_two_amplitude_damping(gamma1: float, gamma2: float) -> CapacityResult:
    """Mixture of two damping channels: the worse parameter decides."""
    g1 = _unit_interval("gamma1", gamma1)
    g2 = _unit_interval("gamma2", gamma2)
    return capacity_amplitude_damping(max(g1, g2))


def capacity_two_depolarizing(lambda1: float, lambda2: float) -> CapacityResult:
    """Mixture of two depolarizing channels: 1 - H(max(lambda)/2)."""
    l1 = _unit_interval("lambda1", lambda1)
    l2 = _unit_interval("lambda2", lambda2)
    return capacity_depolarizing(max(l1, l2))
