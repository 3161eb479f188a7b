"""Brute-force lower bounds on capacities by ensemble exhaustion.

The CLI certifies a solver's value against this search; the comparison and its
bound live there. The search space is the product of a pure-state grid (an
a-grid paired with a coherence sign when ``restrict_real_b`` is on, which takes
exactly the ``phase_grid`` of 2 signs +-1, or with a complex phase grid when it
is off) and a probability simplex discretized in steps of 1/prob_grid, for
every ensemble size up to ``n_states``. Per-state channel outputs and output
entropies are precomputed once, so each candidate ensemble costs a handful of
vectorized flops.

The search runs one exhaustive pass per size over every grid state, so its
value is the largest score of the grid ensembles of the sizes it searches. It
stops before a size once the best score so far reaches P* - 1e-9, where P* is
the grid's divergence peak: the smallest over the search's D tables (below) of
the table's largest entry. Every grid ensemble scores at most its bound, which
is at most P*, so the value is within 1e-9 of the grid maximum, plus float error
(~1e-15). A NaN in any table, or +inf in every one, makes P* NaN or +inf, which
no score reaches, so the search runs every size. Every candidate is a genuine
ensemble, so the value is a lower bound on the true capacity. Iteration order
is deterministic and ties keep the first ensemble encountered.

The evaluation budget is one running total, charged before the work it counts:
the grid states tabulated per channel, before any is tabulated; for each size,
the m grid states x P compositions, the most its tables hold at once, before
its compositions are built; and the C(kept, n) P ensembles of the states that
its state bounds keep against its floor, before its pass enumerates them. The
first charge over the budget raises BudgetExceededError, which can come after
smaller sizes have run.

A pass enumerates its combination rows, n increasing states, in
itertools.combinations order and in blocks: numpy completes a run of partial
rows by every later state at once, and splits a partial row with more rows than
a block holds on its next member, so no array grows with the number of rows. It
scores its candidates in blocks of combination rows x probability columns, and
a block in slices of rows, every element of each row it scores. The mean of a
part u, Re v, (Im v,) s over an element is the
sum of the products part[member k] * p_k in k order, each step rounded, with
no BLAS call. A pass tabulates only the last position: per part, one
C-contiguous (m, P) table part[state] * p_{n-1} of the m states it keeps x P
compositions, so a row's last products are a copy of P adjacent floats. Rows
that share their first n - 1 states share their partial sum, built from the
per-state part and the weight rows. The radius, the entropy, chi and the
minimum over channels are computed in place on buffers the size of one slice.
Every score depends on its own element only, so neither the block nor the
slice size moves a bit, and every score is bit-equal to the formula on fresh
arrays that tests/test_oracle.py keeps as its reference.

A pass skips the candidates that provably cannot beat the best so far. For any
state sigma, chi(E) = sum_i p_i D(N psi_i || sigma) - D(N rho_bar || sigma), and
the last term is >= 0 (Schumacher-Westmoreland, "Optimal signal ensembles",
2001), so chi(E) <= sum_i p_i D_i. sigma is diagonal, so D comes from the u and
s columns of the tables. A search computes its D tables once, and every size
uses them. Each channel has one at its divergence-radius centre: the sigma0
that minimizes the largest D over all grid states, where the bound on
that channel's chi is tightest. Each D_i is convex in sigma0, so it is bisected
on the sign of the slope of the largest D_i. A centre bounds only its own
channel's chi, not the sup-min of a pair, so a pair also has a weighted table
t D_1(. || sigma_1) + (1 - t) D_2(. || sigma_2): min(chi_1, chi_2) <= t chi_1 +
(1 - t) chi_2 for every t in [0, 1]. (t, sigma_1, sigma_2) is a saddle point
found on the grid tables alone (_saddle); a single channel is the case t = 1 at
its centre. A candidate's bound is the smallest over the tables. Any t and
sigma are valid; the choice moves only how much gets pruned.

A row of n states on the grid G = prob_grid has p_i in [1/G, (G - n + 1)/G],
so the largest sum_k p_k D_k over its compositions is the row bound ((sum_i
D_i) + (G - n) max_i D_i) / G. A row is skipped only if its bound + 1e-9 is
below the threshold of its slice, the larger of the incumbent as it stands
before the slice and the pass's floor (below): the bound is within ~1e-15 of a
sum that is >= the score of each of the row's elements, so such a row scores
strictly below a genuine score and can neither win nor tie, while a row with
an element that ties or beats the threshold has a bound at most ~1e-15 below
it, far inside the margin, and is scored whole. So the bits, and the first
maximal candidate that wins, are those of the unpruned pass. A NaN bound,
which a degenerate sigma yields, prunes nothing.

A coarser bound drops states before any row is built. It is the row formula,
in the same float steps, with a D replaced by one at least as large: a state's
bound puts the state's D at one position and the largest D of the pass, NaN if
one is, at each other position, and takes the largest over the n positions. D
is finite, +inf or NaN. Order NaN above +inf: each step (a sum, a max, a
product with G - n >= 0, a division by G, a min over tables) is then monotone
in each input, and so is rounding to nearest, so a state's bound is >= the
float bound of every row that holds the state, with no slack, and NaN wherever
one of those is NaN: a state that holds a row a NaN bound keeps is never
dropped. A state whose bound + 1e-9 is below the threshold is dropped with all
its rows, which count as pruned: each of them would have been pruned by its
own row bound against the same threshold or a higher one.

The pass of a size is handed the best so far, of the smaller sizes, as row -1
of each of its blocks: it comes before the pass, so it wins ties, and a larger
size takes over only with a higher score. The pass first drops the states
whose bound cannot reach that best, and tabulates the others. It then scores a
few seed rows of the states it kept as a block of their own, from a threshold
of -inf: for size 2, every mirror pair, the states (a, b) and (a, -b), of
which the damping maximizer is one at equal weights; for a larger size, the
states of the best so far completed by each other state, when the best has
n - 1 states. That block's best is the floor, -inf if it has none. Its row
bounds are held against its own best only, and by the margin argument a row
they skip scores below that best, so the floor is the best score of the seed
elements of the states kept, bit for bit; a NaN score, as in every
block, is passed over for the first maximal score of its slice that is not
NaN. A seed row with a dropped state scores below the best so far, so if it
holds the best seed score, the floor is below the best so far too and prunes
nothing more. The pass then drops the states whose bound cannot reach the
floor, and tabulates again only if one went. Only then is the size charged,
and the rows of the states kept are enumerated in their order, so the winner
and its ties are those of the pass without the state bounds.

Every row and slice is held against the larger of the incumbent and the floor.
The floor is a genuine score of an element of the pass, so it is at most the
pass's maximum, and the margin argument holds for it as for the incumbent: an
element that ties or beats that maximum has a bound within ~1e-15 of its score
and is scored. The floor never becomes the incumbent, so the winner and the
bits stay those of the pass without one. A seed passed in as the incumbent
would not keep them: mirror rows score bit-identically, and the incumbent wins
ties against every later row. A block filters its rows by their bounds as it
starts, and filters the rows left again whenever the threshold rises. Slices
are scored in row order, so the first maximal element wins: a slice takes its
first maximal score in row-major order, and a later slice holds only later
rows, so it takes over only with a higher score.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

from .capacity import bisect_sign_change
from .channels import Channel, MixedChannelPair, _closed_form_output, apply_channel
from .errors import BudgetExceededError, DomainError
# binary_entropy stays bound here: perfbench's tracer test patches qchan.oracle.binary_entropy.
from .states import (  # noqa: F401
    Ensemble,
    Herm2,
    QubitState,
    binary_entropy,
    binary_entropy_into,
    von_neumann_entropy,
)

log = logging.getLogger(__name__)

DEFAULT_BUDGET = 10 ** 8

# Elements per block (combination rows x probability columns): the rows whose
# bounds are computed and pruned together. A block holds at most
# _CHUNK_ELEMENTS // P rows of P compositions, and one row where P is larger.
# So a pass's arrays are bounded by this and by the number of states, not by the
# number of rows. Scores do not depend on it.
_CHUNK_ELEMENTS = 1_000_000

# Elements per row slice of a block, the rows scored together. Scores do not
# depend on it. Its four work arrays take 512 KiB each; on a 2-vCPU x86-64 host
# with 2 MiB of L2 per core, slices of 32,768 to 131,072 elements ran the
# criterion-8 searches equally fast, and smaller ones slower, as more of the
# time goes to per-call overhead.
_SLICE_ELEMENTS = 65_536

@dataclass(frozen=True)
class OracleConfig:
    """Search-space discretization; n_states is the Caratheodory cap.
    ``restrict_real_b`` searches the 2 real signs, so it requires phase_grid == 2.
    No ensemble of more than prob_grid states has every weight a positive multiple
    of 1/prob_grid, so the search skips those sizes: an n_states above prob_grid
    searches the same ensembles as n_states == prob_grid."""

    n_states: int = 2
    a_grid: int = 51
    phase_grid: int = 2
    prob_grid: int = 10
    restrict_real_b: bool = True

    def __post_init__(self):
        for name in ("n_states", "a_grid", "phase_grid", "prob_grid"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {value!r}") from None
        if not 1 <= self.n_states <= 4:
            raise DomainError(f"n_states must lie in [1, 4], got {self.n_states}")
        for name in ("a_grid", "phase_grid", "prob_grid"):
            if getattr(self, name) < 2:
                raise DomainError(f"{name} must be >= 2, got {getattr(self, name)}")
        if self.restrict_real_b and self.phase_grid != 2:
            raise DomainError(f"restrict_real_b needs phase_grid 2, got {self.phase_grid}")


def _grid_states(config: OracleConfig):
    """Pure grid states as parallel arrays (a, b, index into the a-grid): each a
    with a coherence takes every phase in order, a = 0 and a = 1 the first only."""
    avals = np.linspace(0.0, 1.0, config.a_grid)
    if config.restrict_real_b:
        phases = np.array((1.0 + 0j, -1.0 + 0j))
    else:
        phases = np.array(
            [np.exp(2j * np.pi * k / config.phase_grid) for k in range(config.phase_grid)]
        )
    mag = np.sqrt(np.maximum(avals * (1.0 - avals), 0.0))
    counts = np.where(mag > 0.0, phases.shape[0], 1)
    index = np.repeat(np.arange(config.a_grid, dtype=np.int64), counts)
    phase = np.arange(index.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    return avals[index], mag[index] * phases[phase], index


def _channel_table(channel: Channel, a, b):
    """Per-state output population, coherence, and output entropy.

    Damping and depolarizing outputs go through the closed forms and the entropy
    on whole arrays, bit-equal to the per-state loop that a GeneralKraus
    channel still takes.
    """
    closed = _closed_form_output(channel, a, b)
    if closed is not None:
        u, v = closed
        return u, v, von_neumann_entropy(Herm2(u, 1.0 - u, v))
    n = a.shape[0]
    u = np.empty(n)
    v = np.empty(n, dtype=complex)
    s = np.empty(n)
    for j in range(n):
        out = apply_channel(channel, QubitState(a[j], b[j]))
        u[j] = out.a
        v[j] = out.b
        s[j] = von_neumann_entropy(out.to_herm2())
    return u, v, s


def _first_free(rows):
    """The smallest value that can follow each row: its last entry + 1, or 0 for an empty row."""
    if rows.shape[1] == 0:
        return np.zeros(rows.shape[0], dtype=np.int64)
    return rows[:, -1] + 1


def _extend(rows, stop):
    """Each row of ``rows`` followed by every value from its first free value to
    ``stop`` - 1, in row order and then value order."""
    first = _first_free(rows)
    counts = np.maximum(stop - first, 0)
    total = int(counts.sum())
    out = np.empty((total, rows.shape[1] + 1), dtype=np.int64)
    for k, col in enumerate(rows.T):  # column by column, so no temporary is wider
        out[:, k] = np.repeat(col, counts)
    # A row's run starts at out-row cumsum - counts; its j-th new row gets first + j.
    out[:, -1] = np.repeat(first - (np.cumsum(counts) - counts), counts)
    out[:, -1] += np.arange(total)
    return out


def _complete(rows, m, n, width):
    """``rows``, the first members of n-subsets of range(m), extended in every way
    to their first ``width`` members, in itertools.combinations order."""
    for k in range(rows.shape[1], width):
        # Member k stops where the later members still find values below m.
        rows = _extend(rows, m - n + k + 1)
    return rows


def _combinations(m, n):
    """The n-subsets of range(m) as rows, in itertools.combinations order."""
    return _complete(np.zeros((1, 0), dtype=np.int64), m, n, n)


def _compositions(total: int, parts: int) -> np.ndarray:
    """Ordered positive integer compositions of ``total`` into ``parts`` parts."""
    cuts = _combinations(total - 1, parts - 1) + 1  # the (parts - 1)-subsets of range(1, total)
    edges = np.zeros((cuts.shape[0], parts + 1), dtype=np.int64)
    edges[:, 1:-1] = cuts
    edges[:, -1] = total
    return np.diff(edges, axis=1)


def _subsets_below(first, stop, k):
    """C(stop - first, k) for each entry of ``first``: the k-subsets of range(first, stop)."""
    count = np.ones_like(first)
    for i in range(k):
        # C(x, i) (x - i) / (i + 1) = C(x, i + 1), an integer at every step.
        count = count * (stop - first - i) // (i + 1)
    return np.maximum(count, 0)


def _groups(counts, limit):
    """(start, stop) runs of adjacent entries whose counts sum to at most ``limit``, or
    a single entry that alone exceeds it."""
    ends = np.cumsum(counts)
    start = 0
    while start < counts.shape[0]:
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + limit, side="right")))
        yield start, stop
        start = stop


def _row_blocks(m, n, limit, heads=None):
    """The n-subsets of range(m), each once, in itertools.combinations order, in
    blocks of at most ``limit`` rows.

    ``heads`` are partial rows; each block completes a run of them whose rows fit
    the limit, and a head with more is split on its next member.
    """
    if heads is None:
        if m < n:
            return
        heads = np.zeros((1, 0), dtype=np.int64)
    j = heads.shape[1]
    if j == n:
        for start in range(0, heads.shape[0], limit):
            yield heads[start:start + limit]
        return
    counts = _subsets_below(_first_free(heads), m, n - j)
    for start, stop in _groups(counts, limit):
        if stop - start > 1 or counts[start] <= limit:
            yield _complete(heads[start:stop], m, n, n)
        else:
            yield from _row_blocks(m, n, limit, _complete(heads[start:stop], m, n, j + 1))


def _divergences(u, s, sigma0):
    """D(N psi || diag(sigma0, 1 - sigma0)) in bits for every tabulated output.

    An output with population u and entropy s has D = -s - (u log2 sigma0 +
    (1 - u) log2(1 - sigma0)). A sigma0 of 0 or 1 gives inf or NaN entries.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return -s - (u * np.log2(sigma0) + (1.0 - u) * np.log2(1.0 - sigma0))


def _radius_centre(u, s):
    """The diagonal sigma0 in [0, 1] that minimizes max_i D(N psi_i || sigma), the
    divergence-radius centre of the outputs with populations u and entropies s.

    Each D_i is convex in sigma0 with slope (sigma0 - u_i) / (sigma0 (1 - sigma0) ln 2),
    so the largest D_i falls while its u_i is above sigma0: the centre is where
    that sign changes, bisected inside (0, 1), where every D_i is finite.
    """
    def falling(x):
        return u[np.argmax(_divergences(u, s, x))] - x

    return bisect_sign_change(falling, 0.0, 1.0, 0.0)[0]


def _weight(first, second):
    """The t in [0, 1] that minimizes max_i (t first_i + (1 - t) second_i), and the
    argmax i at each end of the final bracket: the max is convex in t, so t is
    bisected on the sign of first_i - second_i."""
    gap = first - second

    def top(t):
        return int(np.argmax(second + t * gap))

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if gap[top(mid)] < 0.0:
            lo = mid
        else:
            hi = mid
    i_lo, i_hi = top(lo), top(hi)
    return (hi if gap[i_hi] <= 0.0 else lo), i_lo, i_hi


def _saddle(tables, a):
    """(t, [sigma0_1, sigma0_2]) whose weighted table t D_1 + (1 - t) D_2 bounds the
    sup-min of a pair of channels with populations u and entropies s in ``tables``
    at the grid states of populations ``a``.

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
    affine = [(u[0], u[-1] - u[0]) for u, _, _, _ in tables]
    with np.errstate(invalid="ignore"):
        chi = [np.nan_to_num(_divergences(u, s, low + a * rise), nan=0.0, posinf=0.0)
               for (u, _, s, _), (low, rise) in zip(tables, affine)]
        _, i_lo, i_hi = _weight(*chi)
        gap_lo, gap_hi = (chi[0][i] - chi[1][i] for i in (i_lo, i_hi))
        if gap_lo >= 0.0:
            x = a[i_lo]
        elif gap_hi <= 0.0:
            x = a[i_hi]
        else:
            x = a[i_lo] + gap_lo / (gap_lo - gap_hi) * (a[i_hi] - a[i_lo])
        sigma0 = [float(low + x * rise) for low, rise in affine]
        t = _weight(*(_divergences(u, s, y) for (u, _, s, _), y in zip(tables, sigma0)))[0]
    return t, sigma0


def _search_divergences(tables, a):
    """The D tables whose smallest sum_k p_k D_k bounds each score of a search over
    the channels of ``tables``: each channel's table at its radius centre, and for
    a pair the weighted table of the _saddle before them."""
    centre = [_radius_centre(u, s) for u, _, s, _ in tables]
    divergences = [_divergences(u, s, x) for (u, _, s, _), x in zip(tables, centre)]
    t, sigma0 = 1.0, centre
    if len(tables) == 2:
        t, sigma0 = _saddle(tables, a)
        first, second = (_divergences(u, s, x) for (u, _, s, _), x in zip(tables, sigma0))
        with np.errstate(invalid="ignore"):
            divergences.insert(0, t * first + (1.0 - t) * second)
    log.debug("oracle bound: t %r, sigma0 %r", t, sigma0)
    return divergences


def _bound(columns, prob_grid):
    """The smallest over D tables of ((sum D_i) + (G - n) max D_i) / G, the largest
    sum_k p_k D_k over the compositions of a row.

    ``columns`` holds, per table, the n (table, index) pairs whose table[index]
    are the columns of D of the rows bounded; they are summed and maxed in
    column order, one column at a time. The bound is NaN where a column is NaN,
    or inf when G == n.
    """
    bound = None
    for (table, index), *later in columns:
        # Column by column: a reduction along rows of n <= 4 entries is 30-100x slower.
        total = table[index]
        top = total.copy()
        for later_table, later_index in later:
            d = later_table[later_index]
            total += d
            np.maximum(top, d, out=top)
        top *= prob_grid - 1 - len(later)
        total += top
        total /= prob_grid
        bound = total if bound is None else np.minimum(bound, total, out=bound)
    return bound


def _row_bounds(divergences, members, prob_grid):
    """Upper bound on the score of every composition of each row of ``members``.

    ``divergences`` holds the D tables of the search (_search_divergences).
    """
    return _bound(
        [[(table, col) for col in members.T] for table in divergences], prob_grid)


def _state_bounds(divergences, n, prob_grid):
    """Upper bound on _row_bounds of every row of n states that holds each state:
    _bound with the state's D at one position and the table's largest D, NaN if
    one is, at the others, the largest over the n positions. Rounding is
    monotone, so this is >= each such row's bound in floats too."""
    m = divergences[0].shape[0]
    states, peak_at = np.arange(m), np.zeros(m, dtype=np.int64)
    peaks = [np.max(d, keepdims=True) for d in divergences]
    bound = None
    for j in range(n):
        at_j = _bound(
            [[(peak, peak_at)] * j + [(d, states)] + [(peak, peak_at)] * (n - 1 - j)
             for d, peak in zip(divergences, peaks)],
            prob_grid,
        )
        bound = at_j if bound is None else np.maximum(bound, at_j, out=bound)
    return bound


def _pass_tables(columns, weights):
    """Each column, a part at the states of a pass, with its C-contiguous (m, P)
    table column[i] * weights[n - 1, c], the last position of every row."""
    return [(column, np.multiply(column[:, None], weights[-1])) for column in columns]


def _runs(members):
    """The first n - 1 members of each run of adjacent rows that share them, and
    the run of each row."""
    first = np.ones(members.shape[0], dtype=bool)
    np.any(members[1:, :-1] != members[:-1, :-1], axis=1, out=first[1:])
    return members[first, :-1], np.cumsum(first) - 1


def _mean_into(table, weights, members, runs, out, scratch):
    """out[r, c] = sum_k column[members[r, k]] * weights[k, c] in k order, for the
    _pass_tables pair (column, last), whose last position is a row copy. Each run
    of ``runs`` sums its first n - 1 products once, in ``out``; adding the last
    after that is the same float sum, as float addition commutes."""
    column, last = table
    n = members.shape[1]
    if n > 1:
        heads, run_of_row = runs
        partial, product = out[:heads.shape[0]], scratch[:heads.shape[0]]
        np.multiply(column[heads[:, 0], None], weights[0], out=partial)
        for k in range(1, n - 1):
            np.multiply(column[heads[:, k], None], weights[k], out=product)
            np.add(partial, product, out=partial)
        np.take(partial, run_of_row, axis=0, out=scratch, mode="clip")
    np.take(last, members[:, n - 1], axis=0, out=out, mode="clip")
    if n > 1:
        np.add(scratch, out, out=out)


def _chi_into(products, weights, members, work, score):
    """Writes into ``score`` the minimum over channels of chi of every element of
    the rows ``members`` x the composition columns of ``weights``, each mean
    summed by _mean_into from a _pass_tables pair of ``products``.

    ``work`` holds three arrays of score's shape: two work arrays and the chi of
    a later channel table.
    """
    t1, t2, chi = work
    runs = _runs(members)
    for index, (mean_u, *mean_v, mean_s) in enumerate(products):
        out = chi if index else score
        # Output Bloch radius r of the mean state, sqrt((2<u> - 1)^2 + 4|<v>|^2)
        _mean_into(mean_u, weights, members, runs, t1, t2)
        np.multiply(t1, 2.0, out=t1)
        np.subtract(t1, 1.0, out=t1)
        np.square(t1, out=t1)
        for part in mean_v:
            _mean_into(part, weights, members, runs, t2, out)
            np.square(t2, out=t2)
            np.multiply(t2, 4.0, out=t2)
            np.add(t1, t2, out=t1)
        np.sqrt(t1, out=t1)
        np.minimum(t1, 1.0, out=t1)
        # chi = H((1 - r)/2) - <s>
        np.subtract(1.0, t1, out=t1)
        np.multiply(t1, 0.5, out=t1)
        binary_entropy_into(t1, out, t2)
        _mean_into(mean_s, weights, members, runs, t1, t2)
        np.subtract(out, t1, out=out)
        if index:
            np.minimum(score, chi, out=score)


def _reaches(bound, threshold):
    """Whether each bound + 1e-9 reaches ``threshold``, written so that a NaN bound
    keeps its state or row."""
    with np.errstate(invalid="ignore"):
        return ~(bound + 1e-9 < threshold)


def _search_pass(tables, state_ids, n, probs, comps, best, divergences, seeds, budget):
    """Exhaustive max over distinct sorted n-subsets of state_ids x compositions.

    ``tables`` holds one (u, v, s) triple per scored channel; an ensemble's
    score is the minimum chi across channels. ``best`` is the running
    (value, state id tuple, composition tuple), the best so far, and ties keep
    it. ``divergences`` holds the _divergences tables that bound a state's and
    a row's score. ``seeds`` holds rows of n increasing positions in
    state_ids. The pass drops the states whose bound cannot reach ``best`` and
    tabulates the others; it scores the seed rows whose states it kept as a
    block that starts from -inf, whose best value is the pass's floor; and it
    drops the states whose bound cannot reach the floor. The floor prunes beside
    ``best`` but never becomes it. The ensembles of the states kept are charged
    against ``budget``, the evaluations left, before their rows are scored,
    block by block of _row_blocks. Returns the new best; an int64 array of three
    counts: the rows skipped by their bounds or with their states, the elements
    scored, and the states kept; and the elements the seed block scored with
    the floor.
    """
    ids = np.asarray(state_ids, dtype=np.int64)
    m = ids.shape[0]
    if m < n:
        return best, np.array([0, 0, m], dtype=np.int64), (0, -math.inf)
    p_count = probs.shape[0]
    prob_grid = int(comps[0].sum())  # every composition sums to prob_grid
    chunk = max(1, _CHUNK_ELEMENTS // p_count)
    weights = np.ascontiguousarray(probs.T)  # weights[k] is p_k of every composition
    parts = [(u, v.real, v.imag, s) if has_imag else (u, v.real, s) for u, v, s, has_imag in tables]
    buffers = np.empty((4, max(1, _SLICE_ELEMENTS // p_count), p_count))
    with np.errstate(invalid="ignore"):
        state_bound = _state_bounds([table[ids] for table in divergences], n, prob_grid)

    def tabulate(at):  # the states at positions ``at``, their pass tables and their D
        kept = ids[at]
        products = [_pass_tables([part[kept] for part in channel], weights) for channel in parts]
        return kept, products, [table[kept] for table in divergences]

    # The states that can reach the incoming best, before anything is tabulated.
    keep = _reaches(state_bound, best[0])
    at = np.flatnonzero(keep)
    kept, products, d_at = tabulate(at)
    # The seed rows whose states were all kept, as positions among those states.
    seeds = np.searchsorted(at, seeds[keep[seeds].all(axis=1)])
    floor, seeded = -math.inf, 0
    if seeds.shape[0]:
        (floor, *_), (_, seeded) = _block_pass(
            products, d_at, weights, seeds, kept, comps, (-math.inf, None, None), -math.inf,
            prob_grid, buffers)
    floored = at[_reaches(state_bound[at], floor)]
    if floored.shape[0] < at.shape[0]:
        at = floored
        kept, products, d_at = tabulate(at)
    rows = math.comb(m, n)
    m = at.shape[0]
    counts = np.array([rows - math.comb(m, n), 0, m], dtype=np.int64)
    _charge(0, math.comb(m, n) * p_count, budget, f"the size-{n} ensembles of {m} states")
    for local in _row_blocks(m, n, chunk):
        best, block_counts = _block_pass(
            products, d_at, weights, local, kept, comps, best, floor, prob_grid, buffers)
        counts[:2] += block_counts
    return best, counts, (seeded, floor)


def _block_pass(products, divergences, weights, local, ids, comps, best, floor, prob_grid, buffers):
    """_search_pass over one block of rows ``local``, positions in ids in row order.

    Row bounds are held against the larger of the incumbent and ``floor``, as
    the block starts and whenever the incumbent rises; the rows left are scored
    in slices, in row order. ``buffers`` holds the score and work arrays of one
    slice. Returns the new best and the block's rows pruned by their bounds and
    elements scored.
    """
    score_buf, *work_buf = buffers
    step, p_count = score_buf.shape
    with np.errstate(invalid="ignore"):
        bound = _row_bounds(divergences, local, prob_grid)
    # Row -1 is the incoming best: it comes before the block, so it wins ties.
    top_value, top_row, top_col = best[0], -1, -1
    rest = np.arange(local.shape[0])
    threshold = None
    rows_scored = 0
    while True:
        if max(top_value, floor) != threshold:
            threshold = max(top_value, floor)
            rest = rest[_reaches(bound[rest], threshold)]
        if rest.shape[0] == 0:
            break
        rows, rest = rest[:step], rest[step:]
        h = rows.shape[0]
        rows_scored += h
        score = score_buf[:h]
        _chi_into(products, weights, np.take(local, rows, axis=0), [w[:h] for w in work_buf], score)
        flat = _first_max(score)
        value = score.flat[flat]
        row, col = divmod(flat, p_count)
        # Slices come in row order, so a later one cannot hold an earlier tie.
        if value > top_value:
            top_value, top_row, top_col = value, int(rows[row]), col
    if top_row >= 0:
        best = (
            float(top_value),
            tuple(int(x) for x in ids[local[top_row]]),
            tuple(int(k) for k in comps[top_col]),
        )
    return best, np.array([local.shape[0] - rows_scored, rows_scored * p_count])


def _first_max(score):
    """The flat index of the first maximal score that is not NaN, or of a NaN if all are."""
    flat = int(np.argmax(score))
    if math.isnan(score.flat[flat]):  # argmax stops at the first NaN
        flat = int(np.argmax(np.where(np.isnan(score), -math.inf, score)))
    return flat


def _seed_rows(n, winner, a_index, phase_grid):
    """Rows of n increasing grid states whose best score is the floor of the pass
    of size n.

    Size 2 takes every mirror pair: the two states at one a whose phases are half
    a turn apart, so their coherences are b and -b. A larger size takes the
    states of ``winner``, the best so far, completed by each other state, if
    the winner has n - 1 states, and no rows otherwise.
    """
    m = a_index.shape[0]
    if n == 2:
        if phase_grid % 2:
            return np.zeros((0, 2), dtype=np.int64)
        half = phase_grid // 2
        first = np.flatnonzero(a_index[:max(m - half, 0)] == a_index[half:])
        return np.column_stack((first, first + half))
    if winner is None or len(winner) != n - 1:
        return np.zeros((0, n), dtype=np.int64)
    others = np.delete(np.arange(m, dtype=np.int64), winner)
    rows = np.column_stack((np.broadcast_to(winner, (others.shape[0], n - 1)), others))
    return np.sort(rows, axis=1)


def _total_states(config: OracleConfig) -> int:
    # The endpoints a = 0 and a = 1 carry a single state each.
    return config.phase_grid * (config.a_grid - 2) + 2


def _sizes(config: OracleConfig):
    # No ensemble of more than prob_grid states has weights in steps of 1/prob_grid.
    return range(1, min(config.n_states, config.prob_grid) + 1)


def _charge(spent, count, budget, what):
    """spent + count, the evaluations charged so far; raises BudgetExceededError
    if that exceeds the budget."""
    if spent + count > budget:
        raise BudgetExceededError(f"{what} bring the evaluations to {spent + count:.3g}, "
                                  f"over the budget {budget:.3g}")
    return spent + count


def plan_search_size(config: OracleConfig, budget: float = DEFAULT_BUDGET) -> int:
    """The ensembles of the full grid, summed over the sizes searched (per channel
    set): the most a search can score, before its bounds prune and its stop skips
    sizes."""
    if math.isnan(budget):
        raise DomainError("budget must be a number, got nan")
    states = _total_states(config)
    return sum(math.comb(states, n) * math.comb(config.prob_grid - 1, n - 1)
               for n in _sizes(config))


def _search(channels, config: OracleConfig, budget: float):
    states = _total_states(config)
    log.info("oracle search: %d grid states, %d ensembles on the full grid",
             states, plan_search_size(config, budget))
    # Charged before the per-state tables are built: on a large grid they take seconds.
    spent = _charge(0, states * len(channels), budget, f"{states} grid states per channel")
    a, b, a_index = _grid_states(config)
    tables = []
    for channel in channels:
        u, v, s = _channel_table(channel, a, b)
        tables.append((u, v, s, bool(np.any(v.imag != 0.0))))

    all_ids = np.arange(a.shape[0], dtype=np.int64)
    best = (-math.inf, None, None)
    divergences = _search_divergences(tables, a)
    # No grid ensemble scores above P*, up to float error. np.min and np.max keep
    # a NaN, where Python's min may drop it.
    peak = float(np.min([np.max(d) for d in divergences]))
    for n in _sizes(config):
        if n > 1 and best[0] >= peak - 1e-9:
            log.debug("oracle stop before size %d: best %r is within 1e-9 of the divergence "
                      "peak %r", n, best[0], peak)
            break
        p_count = math.comb(config.prob_grid - 1, n - 1)
        spent = _charge(spent, states * p_count, budget, f"the size-{n} tables")
        comps = _compositions(config.prob_grid, n)
        probs = comps.astype(float) / config.prob_grid
        seeds = _seed_rows(n, best[1], a_index, config.phase_grid)
        best, counts, (seeded, floor) = _search_pass(
            tables, all_ids, n, probs, comps, best, divergences, seeds, budget - spent)
        # Rows pruned, elements scored, states kept.
        pruned, scored, kept = (int(c) for c in counts)
        spent += math.comb(kept, n) * p_count
        # The state counts are part of the message, so its arguments stay the
        # six that tests/test_oracle.py unpacks.
        log.debug("oracle size %d: %d rows scored, %d rows pruned, %d elements scored, "
                  "%d seed elements scored, floor %r, "
                  f"{kept} of {states} states kept by the state bounds",
                  n, math.comb(states, n) - pruned, pruned, scored, seeded, floor)

    value, state_ids, comp = best
    if state_ids is None:
        raise DomainError("search space is empty for the given configuration")
    entries = tuple(
        (k / config.prob_grid, QubitState(a[sid], b[sid]))
        for sid, k in zip(state_ids, comp)
    )
    return value, Ensemble(entries)


def oracle_capacity(channel: Channel, config: OracleConfig, budget: float = DEFAULT_BUDGET):
    """Maximal Holevo chi over all grid ensembles, within 1e-9 plus float error,
    with the argmax ensemble.

    Always a lower bound on the channel capacity; on nested grids a finer grid
    never returns more than that margin less than a coarser one.
    """
    return _search([channel], config, budget)


def oracle_minimax(pair: MixedChannelPair, config: OracleConfig, budget: float = DEFAULT_BUDGET):
    """Exhaustive sup-min of the two branch Holevo quantities over grid ensembles."""
    if pair.weight1 == 1.0:
        return _search([pair.ch1], config, budget)
    if pair.weight1 == 0.0:
        return _search([pair.ch2], config, budget)
    return _search([pair.ch1, pair.ch2], config, budget)
