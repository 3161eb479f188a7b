"""Brute-force lower bounds on capacities by ensemble exhaustion.

The CLI certifies a solver's value against this search; the comparison and its
bound live there. The search space is the product of a pure-state grid (an
a-grid paired with a coherence sign when ``restrict_real_b`` is on, which takes
exactly the ``phase_grid`` of 2 signs +-1, or with a complex phase grid when it
is off) and a probability simplex discretized in steps of 1/prob_grid, for
every ensemble size up to ``n_states``. Per-state channel outputs and output
entropies are precomputed once, so each candidate ensemble costs a handful of
vectorized flops.

The evaluation budget counts the planned ensemble scores and the grid states
tabulated per channel; a search over it stops before computing either. When
the full product enumeration fits the budget it runs in a single exhaustive
pass. Otherwise the pass runs coarse-to-fine: an exhaustive sweep over a
strided a-subgrid, then exhaustive sweeps over neighborhoods of the incumbent
ensemble while the stride halves down to 1. Every candidate is a genuine
ensemble, so in either mode the returned value is a lower bound on the true
capacity; the refinement rounds contain the incumbent, so the value never
decreases across rounds. Iteration order is deterministic and ties keep
the first ensemble encountered.

A pass enumerates its combination rows by prefix, the first n - 1 states of
a row, in itertools.combinations order: numpy extends a block of prefixes by
every later state at once, and prefixes come in blocks, so no array grows with
the number of prefixes. It scores its candidates in blocks of combination rows
x probability columns, and a block in slices of rows. The mean of a part u, Re
v, (Im v,) s over an element is the sum of the products part[member k] * p_k
in k order, each step rounded, with no BLAS call. A pass tabulates only the
last position: per part, one C-contiguous (m, P) table part[state] * p_{n-1}
of m states x P compositions, so a row's last products are a copy of P
adjacent floats. Rows that share their prefix share its partial sum, built
from the per-state part and the weight rows; an element scored alone
multiplies its members' parts by its weight column. The radius, the entropy,
chi and the minimum over channels are computed in place on buffers the size of
one slice. Every score depends on its own element only, so neither the block
nor the slice size moves a bit, and every score is bit-equal to the formula on
fresh arrays that tests/test_oracle.py keeps as its reference.

A pass skips the candidates that provably cannot beat the incumbent. For any
state sigma, chi(E) = sum_i p_i D(N psi_i || sigma) - D(N rho_bar || sigma), and
the last term is >= 0 (Schumacher-Westmoreland, "Optimal signal ensembles",
2001), so chi(E) <= sum_i p_i D_i; with several channels the score is bounded
by the smallest per-channel bound. sigma is diagonal, so D comes from the u and
s columns of the tables. Sizes 1 and 2 take, per channel, the divergence-radius
centre: the sigma0 that minimizes the largest D over all grid states, where
the bound is tightest. Each D_i is convex in sigma0, so it is bisected on the
sign of the slope of the largest D_i. Later sizes take the mean output of the
best ensemble so far, which prunes more for a pair of channels, where each
channel's centre bounds its own capacity rather than the sup-min (timings at
the branch in _search). Any sigma is valid; the choice moves only how much gets
pruned. A candidate is skipped only if its bound + 1e-9 is below the incumbent
of the current size as it stands before the candidate's slice: the bound is
within ~1e-15 of a sum that is >= the candidate's score, so such a candidate
scores strictly below a genuine score and can neither win nor tie, while one
that ties or beats the incumbent has a bound at most ~1e-15 below it, far
inside the margin, and is scored. So the bits, and the first maximal candidate
that wins, are those of the unpruned pass. A NaN bound, which a degenerate
sigma yields, prunes nothing.

An element's own bound is sum_k p_k D_k, summed like a mean of a part D. A row
of n states on the grid G = prob_grid has p_i in [1/G, (G - n + 1)/G], so the
largest of its elements' bounds is the row bound ((sum_i D_i) + (G - n) max_i
D_i) / G. A row is scored only if its row bound reaches the incumbent, and once
the size has an incumbent or a floor (below), the elements of the rows scored
are bounded one by one. The elements that survive are scored alone, and the
other elements are not computed. Only a slice where too many survive for that
to pay scores every element of its rows instead.

A prefix is bounded before its rows are built: the row formula, in the same
float steps, with the last state's D replaced by the largest D of the states
that can follow the prefix. D is finite, +inf or NaN. Order NaN above +inf:
each step (a sum, a max, a product with G - n >= 0, a division by G, a min over
channels) is then monotone in each input, and so is rounding to nearest, so
the prefix bound is >= the float bound of every row under it, with no slack,
and NaN wherever one of those is NaN: a prefix that holds a row a NaN bound
keeps is never dropped. A prefix whose bound + 1e-9 is below the incumbent is
dropped with all its rows, which counts them as pruned. The surviving prefixes
are built into blocks of rows in order, and each block scores first a probe
slice of its rows with the largest bounds, so that even the first block of a
size, which meets no incumbent, prunes its other rows against genuine scores of
its own. The winner is still the first maximal candidate of the unpruned pass:
each slice is scored in row-major order, and a later slice wins a tie only with
an earlier row.

The first pass of each size from 2 on also starts from a floor. Before its
first block, it scores every weighting of a few seed rows of its own states:
for size 2, every mirror pair, the states (a, b) and (a, -b), of which the
damping maximizer is one at equal weights; for a larger size, the previous
size's best, each state moved to the nearest unused state of the pass with its
phase and completed by each other state. The largest finite seed score is the floor,
and every prefix, row and element bound is held against the larger of the
incumbent and the floor. The floor is a genuine score of an element of the
pass, so it is at most the pass's maximum, and the margin argument above holds
for it as for the incumbent: an element that ties or beats that maximum has a
bound within ~1e-15 of its score and is scored. The floor never becomes the
incumbent, so the winner and the bits stay those of the pass without one. A
seed passed in as the incoming best would not keep them: mirror rows score
bit-identically, and the incoming best wins ties against every later row.
"""

from __future__ import annotations

import bisect
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
# bounds are computed, ordered and pruned together. A block of prefixes holds as
# many prefixes as a block holds rows; a block of rows holds the rows of whole
# prefixes, or of one prefix with more, at most one per state. So a pass's
# arrays are bounded by this and by the number of states, not by the number of
# prefixes or rows. Scores do not depend on it.
_CHUNK_ELEMENTS = 1_000_000

# Elements per row slice of a block, the rows scored together; the probe slice
# is an eighth of it. Scores do not depend on it. Its four work arrays take 512
# KiB each; on a 2-vCPU x86-64 host with 2 MiB of L2 per core, slices of 32,768
# to 131,072 elements ran the criterion-8 searches equally fast, and smaller
# ones slower, as more of the time goes to per-call overhead.
_SLICE_ELEMENTS = 65_536

# A slice where at most this share of the elements survive their bounds gathers
# and scores only those; a slice with more scores every element of its rows from
# row gathers. Scores do not depend on it. Of the shapes measured, the dense side
# serves only AD 0.4 + dep 0.2 at the criterion-8 shape, a CI and test shape,
# where 42% of the n = 3 elements survive; the benchmark's searches keep at most
# 8% and run as fast at any share from 1/16 to 1. In a sweep over 1/16, 1/8,
# 1/4, 1/2 and 1 (every slice gathers) on a 2-vCPU x86-64 host, that pair ran
# fastest at 1/4: 2.20 s, against 2.29 s at 1/8, 2.46 s at 1/2 and 4.73 s at 1.
_GATHER_SHARE = 0.25

# Refinement rounds probe +-2 steps of the halved stride around every
# incumbent state, which spans the previous round's full cell.
_REFINE_SPAN = 2


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


def _prefix_blocks(m, n, limit, heads=None):
    """The first n - 1 members of the n-subsets of range(m), each once, in
    itertools.combinations order, in blocks of at most ``limit`` prefixes.

    ``heads`` are partial prefixes; each block extends a run of them whose
    prefixes fit the limit, and a head with more is split on its next member.
    """
    if heads is None:
        if m < n:
            return
        heads = np.zeros((1, 0), dtype=np.int64)
    j = heads.shape[1]
    if j == n - 1:
        for start in range(0, heads.shape[0], limit):
            yield heads[start:start + limit]
        return
    # A prefix ends below m - 1, so that one member can follow it.
    counts = _subsets_below(_first_free(heads), m - 1, n - 1 - j)
    for start, stop in _groups(counts, limit):
        if stop - start > 1 or counts[start] <= limit:
            yield _complete(heads[start:stop], m, n, n - 1)
        else:
            yield from _prefix_blocks(m, n, limit, _complete(heads[start:stop], m, n, j + 1))


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


def _bound(columns, prob_grid):
    """The smallest over channels of ((sum D_i) + (G - n) max D_i) / G, the largest
    sum_k p_k D_k over the compositions of a row.

    ``columns`` holds, per channel, the n (table, index) pairs whose table[index]
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

    ``divergences`` holds one _divergences table per scored channel.
    """
    return _bound(
        [[(table, col) for col in members.T] for table in divergences], prob_grid)


def _suffix_max(divergences):
    """Per table, the largest D at each position or after it; NaN if one of them is."""
    return [np.maximum.accumulate(d[::-1])[::-1] for d in divergences]


def _prefix_bounds(divergences, suffix_max, prefixes, prob_grid):
    """Upper bound on _row_bounds of every row whose first members are a row of
    ``prefixes``: _bound with the last member's D replaced by ``suffix_max`` at
    its first free position, the largest D the last member can take. Rounding
    is monotone, so this is >= each such row's bound in floats too."""
    last = _first_free(prefixes)
    return _bound(
        [[(table, col) for col in prefixes.T] + [(top, last)]
         for table, top in zip(divergences, suffix_max)],
        prob_grid,
    )


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


def _gather_into(table, members, weight, out, scratch):
    """out[j] = sum_k column[members[k, j]] * weight[k, j] in k order: _mean_into's sum
    of the element whose weight column is weight[:, j], from the pair's column alone."""
    column = table[0]
    np.take(column, members[0], out=out, mode="clip")
    np.multiply(out, weight[0], out=out)
    for k in range(1, members.shape[0]):
        np.take(column, members[k], out=scratch, mode="clip")
        np.multiply(scratch, weight[k], out=scratch)
        np.add(out, scratch, out=out)


def _bound_into(bound_tables, mean_into, out, scratch, other):
    """Writes into ``out`` the smallest over channels of sum_k p_k D_k, each sum
    filled by mean_into(table, out, scratch) from one channel's _pass_tables pair of D."""
    for index, table in enumerate(bound_tables):
        if index:
            mean_into(table, other, scratch)
            np.minimum(out, other, out=out)
        else:
            mean_into(table, out, scratch)


def _chi_into(products, mean_into, work, score):
    """Writes into ``score`` the minimum over channels of chi, each mean filled by
    mean_into(table, out, scratch), for whichever elements those means hold.

    ``work`` holds three arrays of score's shape: two work arrays and the chi of
    a later channel table.
    """
    t1, t2, chi = work
    for index, (mean_u, *mean_v, mean_s) in enumerate(products):
        out = chi if index else score
        # Output Bloch radius r of the mean state, sqrt((2<u> - 1)^2 + 4|<v>|^2)
        mean_into(mean_u, t1, t2)
        np.multiply(t1, 2.0, out=t1)
        np.subtract(t1, 1.0, out=t1)
        np.square(t1, out=t1)
        for part in mean_v:
            mean_into(part, t2, out)
            np.square(t2, out=t2)
            np.multiply(t2, 4.0, out=t2)
            np.add(t1, t2, out=t1)
        np.sqrt(t1, out=t1)
        np.minimum(t1, 1.0, out=t1)
        # chi = H((1 - r)/2) - <s>
        np.subtract(1.0, t1, out=t1)
        np.multiply(t1, 0.5, out=t1)
        binary_entropy_into(t1, out, t2)
        mean_into(mean_s, t1, t2)
        np.subtract(out, t1, out=out)
        if index:
            np.minimum(score, chi, out=score)


def _row_means(members, weights):
    """mean_into for every element of the rows ``members``, through _mean_into."""
    runs = _runs(members)
    return lambda table, out, scratch: _mean_into(table, weights, members, runs, out, scratch)


def _element_means(members, live, weights):
    """mean_into for the elements ``live``, flat indices into the rows ``members`` x
    the composition columns of ``weights`` in row-major order, through _gather_into.
    Their members and weight columns are gathered once for every part, by np.take,
    which unlike fancy indexing is fast here and returns C-contiguous arrays."""
    of_row, col = np.divmod(live, weights.shape[1])
    element_members = np.take(members.T, of_row, axis=1)
    weight = np.take(weights, col, axis=1)
    return lambda table, out, scratch: _gather_into(table, element_members, weight, out, scratch)


def _seed_floor(products, weights, seeds, buffers):
    """The largest finite score of the elements of the rows ``seeds``, or -inf
    if none is finite, scored slice by slice in ``buffers``."""
    score_buf, *work_buf, _ = buffers
    step = score_buf.shape[0]
    floor = -math.inf
    for start in range(0, seeds.shape[0], step):
        members = seeds[start:start + step]
        h = members.shape[0]
        score = score_buf[:h]
        _chi_into(products, _row_means(members, weights), [w[:h] for w in work_buf], score)
        floor = float(np.max(score, where=np.isfinite(score), initial=floor))
    return floor


def _search_pass(tables, state_ids, n, probs, comps, best, divergences, seeds):
    """Exhaustive max over distinct sorted n-subsets of state_ids x compositions.

    ``tables`` holds one (u, v, s) triple per scored channel; an ensemble's
    score is the minimum chi across channels. ``best`` is the running
    (value, state id tuple, composition tuple) and ties keep the incumbent.
    ``divergences`` holds the per-channel _divergences tables that bound a row's
    and an element's score. ``seeds`` holds rows of n increasing positions in
    state_ids: the largest finite score of their elements is the pass's floor,
    which prunes beside the incumbent but never becomes it. Returns the new
    best; an int64 array of three counts: the rows skipped by their bounds, the
    elements scored and the elements of the other rows skipped by theirs; and
    the seed elements scored with the floor.
    """
    counts = np.zeros(3, dtype=np.int64)
    ids = np.asarray(state_ids, dtype=np.int64)
    m = ids.shape[0]
    if m < n:
        return best, counts, (0, -math.inf)
    p_count = probs.shape[0]
    prob_grid = int(comps[0].sum())  # every composition sums to prob_grid
    chunk = max(1, _CHUNK_ELEMENTS // p_count)
    weights = np.ascontiguousarray(probs.T)  # weights[k] is p_k of every composition
    parts = [(u, v.real, v.imag, s) if has_imag else (u, v.real, s) for u, v, s, has_imag in tables]
    products = [_pass_tables([part[ids] for part in channel], weights) for channel in parts]
    shape = (max(1, _SLICE_ELEMENTS // p_count), p_count)
    buffers = [*np.empty((4, *shape)), np.empty(shape, dtype=bool)]
    floor = _seed_floor(products, weights, seeds, buffers)
    d_at = [table[ids] for table in divergences]  # D at each position of ids
    bound_tables = _pass_tables(d_at, weights)
    suffix_max = _suffix_max(d_at)
    for prefixes in _prefix_blocks(m, n, chunk):
        with np.errstate(invalid="ignore"):
            prefix_bound = _prefix_bounds(d_at, suffix_max, prefixes, prob_grid)
        threshold = None
        while prefixes.shape[0]:
            if max(best[0], floor) != threshold:
                threshold = max(best[0], floor)
                with np.errstate(invalid="ignore"):
                    # Written so that a NaN bound keeps its prefix.
                    keep = ~(prefix_bound + 1e-9 < threshold)
                row_counts = m - _first_free(prefixes)
                counts[0] += row_counts.sum() - row_counts[keep].sum()
                prefixes, prefix_bound = prefixes[keep], prefix_bound[keep]
                ends, done = np.cumsum(row_counts[keep]), 0
                continue
            # The next prefixes, in order, whose rows fit a block, or one prefix.
            take = max(1, int(np.searchsorted(ends, done + chunk, side="right")))
            block, done = prefixes[:take], ends[take - 1]
            prefixes, prefix_bound, ends = prefixes[take:], prefix_bound[take:], ends[take:]
            best, block_counts = _block_pass(
                products, d_at, bound_tables, weights, _complete(block, m, n, n), ids, comps,
                best, floor, prob_grid, buffers)
            counts += block_counts
    return best, counts, (seeds.shape[0] * p_count, floor)


def _block_pass(products, divergences, bound_tables, weights, local, ids, comps, best, floor,
                prob_grid, buffers):
    """_search_pass over one block of rows ``local``, positions in ids in row order.

    ``bound_tables`` holds per channel the _pass_tables pair of D, for the element
    bounds; bounds are held against the larger of the incumbent and ``floor``.
    ``buffers`` holds the score and work arrays of one slice and a boolean array
    of its shape. Returns the new best and _search_pass's three counts for the
    block.
    """
    score_buf, *work_buf, dropped_buf = buffers
    step, p_count = score_buf.shape
    probe = max(1, step // 8)
    with np.errstate(invalid="ignore"):
        bound = _row_bounds(divergences, local, prob_grid)
    # First a probe of the rows with the largest bounds (NaN sorts last), then
    # the others. Each slice is sorted, so its first maximal element is in its
    # first maximal row, and adjacent rows share their first members.
    rest = np.argsort(-bound)
    rest[probe:].sort()
    size = probe
    # Row -1 is the incoming best: it comes before the block, so it wins ties.
    top_value, top_row, top_col = best[0], -1, -1
    threshold = None
    rows_scored = elements_scored = 0
    while True:
        if max(top_value, floor) != threshold:
            threshold = max(top_value, floor)
            with np.errstate(invalid="ignore"):
                # Written so that a NaN bound keeps its row.
                rest = rest[~(bound[rest] + 1e-9 < threshold)]
        if rest.shape[0] == 0:
            break
        rows, rest, size = np.sort(rest[:size]), rest[size:], step
        h = rows.shape[0]
        rows_scored += h
        members = np.take(local, rows, axis=0)
        row_means = _row_means(members, weights)
        live = None
        # No element bound falls short of a threshold of -inf.
        if threshold > -math.inf:
            with np.errstate(invalid="ignore"):
                element_bound, dropped = score_buf[:h], dropped_buf[:h]
                _bound_into(bound_tables, row_means, element_bound, work_buf[0][:h], work_buf[1][:h])
                element_bound += 1e-9
                # Written so that a NaN bound keeps its element.
                np.less(element_bound, threshold, out=dropped)
                if dropped.size - np.count_nonzero(dropped) <= _GATHER_SHARE * dropped.size:
                    live = np.flatnonzero(~dropped)
        if live is None:
            # Dense: every element of the rows, from row gathers.
            score = score_buf[:h]
            _chi_into(products, row_means, [w[:h] for w in work_buf], score)
            elements_scored += score.size
            flat = int(np.argmax(score))
            value = score.flat[flat]
        elif live.shape[0]:
            # Sparse: only the elements whose bound can reach the incumbent, one
            # gather per element and position, in row-major order.
            score, *work = (buf.reshape(-1)[:live.shape[0]] for buf in (score_buf, *work_buf))
            _chi_into(products, _element_means(members, live, weights), work, score)
            elements_scored += score.size
            top = int(np.argmax(score))
            flat, value = int(live[top]), score[top]
        else:
            continue
        row, col = divmod(flat, p_count)
        if value > top_value or (value == top_value and rows[row] < top_row):
            top_value, top_row, top_col = value, int(rows[row]), col
    if top_row >= 0:
        best = (
            float(top_value),
            tuple(int(x) for x in ids[local[top_row]]),
            tuple(int(k) for k in comps[top_col]),
        )
    return best, np.array(
        [local.shape[0] - rows_scored, elements_scored, rows_scored * p_count - elements_scored])


def _seed_rows(ids, n, winner, a_index, phase, phase_grid):
    """Rows of n increasing positions in ``ids`` whose best score is the floor of
    the first pass of size n.

    Size 2 takes every mirror pair: the two states at one a whose phases are half
    a turn apart, so their coherences are b and -b. A larger size takes the
    states of ``winner``, the previous size's best, each moved to the nearest
    unused state of ids with its phase, completed by each other state of ids.
    ``phase`` is each grid state's phase index, 0 at a = 0 and a = 1.
    """
    m = ids.shape[0]
    none = np.zeros((0, n), dtype=np.int64)
    if n == 2:
        if phase_grid % 2:
            return none
        half = phase_grid // 2
        first = np.flatnonzero(a_index[ids[:max(m - half, 0)]] == a_index[ids[half:]])
        return np.column_stack((first, first + half))
    if winner is None or m < n:
        return none
    moved = []
    for sid in winner:
        distance = np.abs(a_index[ids] - a_index[sid]).astype(float)
        distance[phase[ids] != phase[sid]] = math.inf
        distance[moved] = math.inf
        j = int(np.argmin(distance))
        if distance[j] == math.inf:
            return none
        moved.append(j)
    others = np.delete(np.arange(m, dtype=np.int64), moved)
    rows = np.column_stack((np.broadcast_to(moved, (others.shape[0], n - 1)), others))
    return np.sort(rows, axis=1)


def _subgrid_indices(a_grid: int, stride: int):
    idx = list(range(0, a_grid, stride))
    if idx[-1] != a_grid - 1:
        idx.append(a_grid - 1)
    return idx


def _total_states(config: OracleConfig) -> int:
    # The endpoints a = 0 and a = 1 carry a single state each.
    return config.phase_grid * (config.a_grid - 2) + 2


def _states_for_points(config: OracleConfig, points: int) -> int:
    """Upper bound on grid states covering ``points`` a-grid points."""
    return min(config.phase_grid * points, _total_states(config))


def _plan(config: OracleConfig, budget: float):
    """Per-size stride schedules and the total planned evaluation count (upper bound).

    A size starts at the smallest a-grid stride whose subgrid pass fits the budget
    slice, stride 1 being the full grid, then halves the stride down to 1. The pass
    cost only falls as the stride grows, so that stride is found by bisection.
    """
    if math.isnan(budget):
        raise DomainError("budget must be a number, got nan")
    slice_budget = budget / 8.0
    plans = []
    total = 0.0
    for n in range(1, min(config.n_states, config.prob_grid) + 1):
        p_count = math.comb(config.prob_grid - 1, n - 1)

        def pass_cost(stride):
            points = (config.a_grid - 2) // stride + 2  # len(_subgrid_indices(...))
            return math.comb(_states_for_points(config, points), n) * p_count

        stride = 1 + bisect.bisect_left(
            range(1, config.a_grid), True, key=lambda s: pass_cost(s) <= slice_budget
        )
        schedule = [stride]
        while schedule[-1] > 1:
            schedule.append((schedule[-1] + 1) // 2)
        refine_states = _states_for_points(config, (2 * _REFINE_SPAN + 1) * n)
        cost = pass_cost(stride) + (len(schedule) - 1) * math.comb(refine_states, n) * p_count
        plans.append((n, schedule))
        total += cost
    return plans, total


def plan_search_size(config: OracleConfig, budget: float = DEFAULT_BUDGET) -> int:
    """Planned evaluation count for the given configuration (per channel set)."""
    _, total = _plan(config, budget)
    return int(total)


def _search(channels, config: OracleConfig, budget: float):
    # Gate before building the per-state tables: every tabulated state counts
    # against the budget beside the planned search.
    plans, total = _plan(config, budget)
    states = _total_states(config)
    if total + states * len(channels) > budget:
        raise BudgetExceededError(f"planned {total + states * len(channels):.3g} "
                                  f"evaluations exceed the budget {budget:.3g}")
    log.info("oracle search: %d grid states, %d planned evaluations", states, int(total))
    a, b, a_index = _grid_states(config)
    tables = []
    for channel in channels:
        u, v, s = _channel_table(channel, a, b)
        tables.append((u, v, s, bool(np.any(v.imag != 0.0))))

    all_ids = np.arange(a.shape[0], dtype=np.int64)
    # The states at one a are adjacent, in phase order.
    phase = all_ids - np.searchsorted(a_index, a_index)
    best = (-math.inf, None, None)
    winner = None  # the states of the previous size's best
    centre = [_radius_centre(u, s) for u, _, s, _ in tables]
    for n, schedule in plans:
        comps = _compositions(config.prob_grid, n)
        probs = comps.astype(float) / config.prob_grid
        if n <= 2 or best[1] is None:
            sigma0 = centre
        else:
            # The diagonal of the best ensemble's mean output. With the centre at
            # every size instead, in 16 alternating in-process pairs on a 2-vCPU
            # x86-64 host, the criterion-4 searches ran x0.98, AD 0.4 + dep 0.2 at
            # the criterion-8 shape x0.84, but the separation pair x1.43 and three
            # AD + dep pairs near the branch crossing x1.15.
            weights = np.array(best[2]) / config.prob_grid
            sigma0 = [float(weights @ u[list(best[1])]) for u, *_ in tables]
        divergences = [_divergences(u, s, x) for (u, _, s, _), x in zip(tables, sigma0)]
        incumbent = (-math.inf, None, None)
        rows = seed_elements = 0
        floor = -math.inf
        # Rows pruned, elements scored, elements pruned.
        counts = np.zeros(3, dtype=np.int64)
        for round_no, stride in enumerate(schedule):
            if round_no == 0:
                keep = set(_subgrid_indices(config.a_grid, stride))
            else:
                keep = set()
                for sid in incumbent[1]:
                    center = int(a_index[sid])
                    for k in range(-_REFINE_SPAN, _REFINE_SPAN + 1):
                        candidate = center + k * stride
                        if 0 <= candidate < config.a_grid:
                            keep.add(candidate)
            ids = all_ids[np.isin(a_index, sorted(keep))]
            if round_no == 0:
                seeds = _seed_rows(ids, n, winner, a_index, phase, config.phase_grid)
            else:
                seeds = np.zeros((0, n), dtype=np.int64)
            incumbent, pass_counts, (seeded, pass_floor) = _search_pass(
                tables, ids, n, probs, comps, incumbent, divergences, seeds)
            seed_elements += seeded
            floor = max(floor, pass_floor)
            rows += math.comb(ids.shape[0], n)
            counts += pass_counts
            if incumbent[1] is None:
                break
        pruned, scored, skipped = (int(c) for c in counts)
        log.debug("oracle size %d: %d rows scored, %d rows pruned, %d elements scored, "
                  "%d elements pruned, %d seed elements scored, floor %r",
                  n, rows - pruned, pruned, scored, skipped, seed_elements, floor)
        winner = incumbent[1]
        if incumbent[0] > best[0]:
            best = incumbent

    value, state_ids, comp = best
    if state_ids is None:
        raise DomainError("search space is empty for the given configuration")
    entries = tuple(
        (k / config.prob_grid, QubitState(a[sid], b[sid]))
        for sid, k in zip(state_ids, comp)
    )
    return value, Ensemble(entries)


def oracle_capacity(channel: Channel, config: OracleConfig, budget: float = DEFAULT_BUDGET):
    """Maximal Holevo chi over all grid ensembles, with the argmax ensemble.

    Always a lower bound on the channel capacity; on nested grids a finer full
    enumeration never returns less than a coarser one.
    """
    return _search([channel], config, budget)


def oracle_minimax(pair: MixedChannelPair, config: OracleConfig, budget: float = DEFAULT_BUDGET):
    """Exhaustive sup-min of the two branch Holevo quantities over grid ensembles."""
    if pair.weight1 == 1.0:
        return _search([pair.ch1], config, budget)
    if pair.weight1 == 0.0:
        return _search([pair.ch2], config, budget)
    return _search([pair.ch1, pair.ch2], config, budget)
