"""Divergence-radius bounds on the Holevo quantity of qubit channels.

For any state sigma, chi(E) = sum_i p_i D(N psi_i || sigma) - D(N rho_bar || sigma), and
the last term is >= 0 (Schumacher-Westmoreland, "Optimal signal ensembles",
2001), so chi(E) <= sum_i p_i D_i. Every sigma here is diagonal, so D depends on
an output's population u and entropy s only: each function takes a channel's
outputs as a (u, s) pair of arrays.

Each channel has a table at its divergence-radius centre (``radius_centre``), the
sigma that minimizes the largest D, where the bound on its chi is tightest. A
centre bounds only its own channel's chi, not the sup-min of a pair, so a pair
also has a weighted table t D_1(. || sigma_1) + (1 - t) D_2(. || sigma_2):
min(chi_1, chi_2) <= t chi_1 + (1 - t) chi_2 for every t in [0, 1], at a saddle
point (t, sigma_1, sigma_2) found on the tables alone (``saddle``). An ensemble's
bound is the smallest over the tables (``bound_tables``). Any t and sigma are
valid; the choice moves only how tight the bound is. Both are bisected by
``capacity.bisect_sign_change``.
"""

from __future__ import annotations

import numpy as np

from .capacity import bisect_sign_change


def divergence(u, s):
    """The function sigma0 -> D(N psi || diag(sigma0, 1 - sigma0)) in bits for every
    output with population u and entropy s, with 1 - u and -s built once.

    A sigma0 of 0 or 1 gives inf or NaN entries, with numpy's warnings unless the
    caller's np.errstate ignores them.
    """
    rest, neg_s = 1.0 - u, -s
    return lambda sigma0: neg_s - (u * np.log2(sigma0) + rest * np.log2(1.0 - sigma0))


def radius_centre(u, s):
    """The diagonal sigma0 in [0, 1] that minimizes max_i D(N psi_i || sigma), the
    divergence-radius centre of the outputs with populations u and entropies s.

    Each D_i is convex in sigma0 with slope (sigma0 - u_i) / (sigma0 (1 - sigma0) ln 2),
    so the largest D_i falls while its u_i is above sigma0: the centre is where
    that sign changes, bisected inside (0, 1), where every D_i is finite. The
    halvings share one ``divergence`` and one np.errstate.
    """
    d = divergence(u, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        return bisect_sign_change(lambda x: u[d(x).argmax()] - x, 0.0, 1.0, 0.0)[0]


def _weight(first, second):
    """The t in [0, 1] that minimizes max_i (t first_i + (1 - t) second_i), and the
    argmax i at each end of the final bracket: the max is convex in t, so t is
    bisected on the sign of first_i - second_i, to a bracket of 2**-40. The
    bisection returns the bracket's centre, so its ends lie 2**-41 either side."""
    gap = first - second

    def top(t):
        return int(np.argmax(second + t * gap))

    mid = bisect_sign_change(lambda t: -gap[top(t)], 0.0, 1.0, 2.0 ** -40)[0]
    lo, hi = mid - 2.0 ** -41, mid + 2.0 ** -41
    i_lo, i_hi = top(lo), top(hi)
    return (hi if gap[i_hi] <= 0.0 else lo), i_lo, i_hi


def saddle(pairs, a):
    """(t, [sigma0_1, sigma0_2]) whose weighted table t D_1 + (1 - t) D_2 bounds the
    sup-min of the two channels of ``pairs`` at the states of populations ``a``.

    The ensemble of every phase at one a, at equal weights, has the mean input
    diag(a, 1 - a), whose output population sigma0_j(a) is affine in a: the mix
    of those of the states at a = 0 and a = 1, the first and last. Each state's
    D_j at sigma0_j of its own a is chi_j of that ensemble, or 0 where its output
    is pure. Where the max over states of t chi_1 + (1 - t) chi_2 is least, two
    such ensembles tie; mixed in the weights that equalize chi_1 and chi_2, their
    a gives sigma0. (At t = 0 or 1 the ensemble at the argmax gives it.) With
    sigma0 fixed, t is then where the largest t D_1 + (1 - t) D_2 over all states
    is least.
    """
    affine = [(u[0], u[-1] - u[0]) for u, _ in pairs]
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = [np.nan_to_num(divergence(u, s)(low + a * rise), nan=0.0, posinf=0.0)
               for (u, s), (low, rise) in zip(pairs, affine)]
        _, i_lo, i_hi = _weight(*chi)
        gap_lo, gap_hi = (chi[0][i] - chi[1][i] for i in (i_lo, i_hi))
        if gap_lo >= 0.0:
            x = a[i_lo]
        elif gap_hi <= 0.0:
            x = a[i_hi]
        else:
            x = a[i_lo] + gap_lo / (gap_lo - gap_hi) * (a[i_hi] - a[i_lo])
        sigma0 = [float(low + x * rise) for low, rise in affine]
        t = _weight(*(divergence(u, s)(y) for (u, s), y in zip(pairs, sigma0)))[0]
    return t, sigma0


def bound_tables(pairs, a):
    """(tables, t, sigma0): each channel's D table at its radius centre, after a
    pair's weighted table at its ``saddle`` (t = 1 at the centre for one channel),
    whose smallest sum_k p_k D_k bounds every ensemble of states at populations ``a``.
    """
    centre = [radius_centre(u, s) for u, s in pairs]
    t, sigma0 = 1.0, centre
    with np.errstate(divide="ignore", invalid="ignore"):
        tables = [divergence(u, s)(x) for (u, s), x in zip(pairs, centre)]
        if len(pairs) == 2:
            t, sigma0 = saddle(pairs, a)
            first, second = (divergence(u, s)(x) for (u, s), x in zip(pairs, sigma0))
            tables.insert(0, t * first + (1.0 - t) * second)
    return tables, t, sigma0
