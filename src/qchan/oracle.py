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
x probability columns, and a block in slices of rows. It builds, once per pass,
the tables part[state] * p_k of each part u, Re v, (Im v,) s at each position
k; the mean of a part over a row is then the sum of the row's n table entries
in k order, each step rounded, with no BLAS call, and rows that share their
prefix share that partial sum. The radius, the entropy, chi and the minimum
over channels are computed in place on buffers the size of one slice. Every
score depends on its own row only, so neither the block nor the slice size
moves a bit, and every score is bit-equal to the formula on fresh arrays that
tests/test_oracle.py keeps as its reference.

A pass skips the rows that provably cannot beat the incumbent. For any state
sigma, chi(E) = sum_i p_i D(N psi_i || sigma) - D(N rho_bar || sigma), and the
last term is >= 0 (Schumacher-Westmoreland, "Optimal signal ensembles", 2001),
so chi(E) <= sum_i p_i D_i. Every composition of a row of n states on the grid
G = prob_grid has p_i in [1/G, (G - n + 1)/G], so no column of the row scores
above ((sum_i D_i) + (G - n) max_i D_i) / G; with several channels the score is
bounded by the smallest per-channel bound. sigma is diagonal, the mean output
of the best ensemble of the sizes searched so far (the maximally mixed state
before the first), so D comes from the u and s columns of the tables; any
sigma is valid, and the choice moves only how much gets pruned. A row is
skipped only if its bound + 1e-9 is below the incumbent of the current size as
it stands before the row's slice: such a row scores strictly below a genuine
score, so no tie can change, and the margin is far above the ~1e-15 float error
of either side. A NaN bound, which a degenerate sigma yields, prunes nothing.

A prefix is bounded before its rows are built: the same formula, in the same
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
its own. The winner is still the first maximal row of the unpruned pass: each
slice is scored in row order, and a later slice wins a tie only with an earlier
row.
"""

from __future__ import annotations

import bisect
import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

from .channels import Channel, MixedChannelPair, apply_channel
from .errors import BudgetExceededError, DomainError
# binary_entropy stays bound here: perfbench's tracer test patches qchan.oracle.binary_entropy.
from .states import (  # noqa: F401
    Ensemble,
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
    """Pure grid states as parallel arrays (a, b, index into the a-grid)."""
    avals = np.linspace(0.0, 1.0, config.a_grid)
    if config.restrict_real_b:
        phases = (1.0 + 0j, -1.0 + 0j)
    else:
        phases = tuple(
            np.exp(2j * np.pi * k / config.phase_grid) for k in range(config.phase_grid)
        )
    a_out, b_out, idx_out = [], [], []
    for i, a in enumerate(avals):
        mag = math.sqrt(max(a * (1.0 - a), 0.0))
        for phase in phases if mag > 0.0 else phases[:1]:
            a_out.append(a)
            b_out.append(mag * phase)
            idx_out.append(i)
    return (
        np.array(a_out),
        np.array(b_out, dtype=complex),
        np.array(idx_out, dtype=np.int64),
    )


def _channel_table(channel: Channel, a, b):
    """Per-state output population, coherence, and output entropy."""
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


def _bound(columns, prob_grid):
    """The smallest over channels of ((sum D_i) + (G - n) max D_i) / G.

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
    return _bound([[(table, col) for col in members.T] for table in divergences], prob_grid)


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


def _product_tables(tables, ids, weights):
    """Per channel, the (n, m, P) tables part[ids][i] * weights[k] of u, Re v, (Im v,) s."""
    products = []
    for u, v, s, has_imag in tables:
        parts = (u, v.real, v.imag, s) if has_imag else (u, v.real, s)
        products.append([part[ids][None, :, None] * weights[:, None, :] for part in parts])
    return products


def _runs(members):
    """The first n - 1 members of each run of adjacent rows that share them, and
    the run of each row."""
    first = np.ones(members.shape[0], dtype=bool)
    np.any(members[1:, :-1] != members[:-1, :-1], axis=1, out=first[1:])
    return members[first, :-1], np.cumsum(first) - 1


def _mean_into(table, members, runs, out, scratch):
    """out[r] = table[0][members[r, 0]] + ... + table[n - 1][members[r, n - 1]], in k order.

    Each run of ``runs`` sums its first n - 1 positions once; adding the last
    position after that is the same float sum, as float addition commutes.
    """
    n = members.shape[1]
    np.take(table[n - 1], members[:, n - 1], axis=0, out=out, mode="clip")
    if n == 1:
        return
    heads, run_of_row = runs
    partial = table[0][heads[:, 0]]
    for k in range(1, n - 1):
        partial += table[k][heads[:, k]]
    np.take(partial, run_of_row, axis=0, out=scratch, mode="clip")
    np.add(scratch, out, out=out)


def _score_into(products, members, work, score):
    """Writes the score of every row of ``members`` x composition column into ``score``.

    ``work`` holds three arrays of score's shape: two work arrays and the chi of
    a later channel table.
    """
    runs = _runs(members)
    t1, t2, chi = work
    for index, (mean_u, *mean_v, mean_s) in enumerate(products):
        out = chi if index else score
        # Output Bloch radius r of the mean state, sqrt((2<u> - 1)^2 + 4|<v>|^2)
        _mean_into(mean_u, members, runs, t1, t2)
        np.multiply(t1, 2.0, out=t1)
        np.subtract(t1, 1.0, out=t1)
        np.square(t1, out=t1)
        for part in mean_v:
            _mean_into(part, members, runs, t2, out)
            np.square(t2, out=t2)
            np.multiply(t2, 4.0, out=t2)
            np.add(t1, t2, out=t1)
        np.sqrt(t1, out=t1)
        np.minimum(t1, 1.0, out=t1)
        # chi = H((1 - r)/2) - <s>
        np.subtract(1.0, t1, out=t1)
        np.multiply(t1, 0.5, out=t1)
        binary_entropy_into(t1, out, t2)
        _mean_into(mean_s, members, runs, t1, t2)
        np.subtract(out, t1, out=out)
        if index:
            np.minimum(score, chi, out=score)


def _search_pass(tables, state_ids, n, probs, comps, best, divergences):
    """Exhaustive max over distinct sorted n-subsets of state_ids x compositions.

    ``tables`` holds one (u, v, s) triple per scored channel; an ensemble's
    score is the minimum chi across channels. ``best`` is the running
    (value, state id tuple, composition tuple) and ties keep the incumbent.
    ``divergences`` holds the per-channel _divergences tables that bound a row's
    score. Returns the new best and the number of rows skipped by that bound.
    """
    ids = np.asarray(state_ids, dtype=np.int64)
    m = ids.shape[0]
    if m < n:
        return best, 0
    p_count = probs.shape[0]
    prob_grid = int(comps[0].sum())  # every composition sums to prob_grid
    chunk = max(1, _CHUNK_ELEMENTS // p_count)
    products = _product_tables(tables, ids, probs.T)
    buffers = np.empty((4, max(1, _SLICE_ELEMENTS // p_count), p_count))
    d_at = [table[ids] for table in divergences]  # D at each position of ids
    suffix_max = _suffix_max(d_at)
    pruned = 0
    for prefixes in _prefix_blocks(m, n, chunk):
        with np.errstate(invalid="ignore"):
            prefix_bound = _prefix_bounds(d_at, suffix_max, prefixes, prob_grid)
        threshold = None
        while prefixes.shape[0]:
            if best[0] != threshold:
                threshold = best[0]
                with np.errstate(invalid="ignore"):
                    # Written so that a NaN bound keeps its prefix.
                    keep = ~(prefix_bound + 1e-9 < threshold)
                row_counts = m - _first_free(prefixes)
                pruned += int(row_counts.sum() - row_counts[keep].sum())
                prefixes, prefix_bound = prefixes[keep], prefix_bound[keep]
                ends, done = np.cumsum(row_counts[keep]), 0
                continue
            # The next prefixes, in order, whose rows fit a block, or one prefix.
            take = max(1, int(np.searchsorted(ends, done + chunk, side="right")))
            block, done = prefixes[:take], ends[take - 1]
            prefixes, prefix_bound, ends = prefixes[take:], prefix_bound[take:], ends[take:]
            best, skipped = _block_pass(
                products, d_at, _complete(block, m, n, n), ids, comps, best, prob_grid, buffers)
            pruned += skipped
    return best, pruned


def _block_pass(products, divergences, local, ids, comps, best, prob_grid, buffers):
    """_search_pass over one block of rows ``local``, positions in ids in row order.

    ``buffers`` holds the score and work arrays of one slice. Returns the new
    best and the number of rows skipped by their bounds.
    """
    score_buf, *work_buf = buffers
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
    scored = 0
    while True:
        if top_value != threshold:
            threshold = top_value
            with np.errstate(invalid="ignore"):
                # Written so that a NaN bound keeps its row.
                rest = rest[~(bound[rest] + 1e-9 < threshold)]
        if rest.shape[0] == 0:
            break
        rows, rest, size = np.sort(rest[:size]), rest[size:], step
        h = rows.shape[0]
        scored += h
        score = score_buf[:h]
        _score_into(products, local[rows], [w[:h] for w in work_buf], score)
        row, col = divmod(int(np.argmax(score)), p_count)
        value = score[row, col]
        if value > top_value or (value == top_value and rows[row] < top_row):
            top_value, top_row, top_col = value, int(rows[row]), col
    if top_row >= 0:
        best = (
            float(top_value),
            tuple(int(x) for x in ids[local[top_row]]),
            tuple(int(k) for k in comps[top_col]),
        )
    return best, local.shape[0] - scored


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
    # Gate before building the per-state tables. They are built one state at a time,
    # so every tabulated state counts against the budget beside the planned search.
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
    best = (-math.inf, None, None)
    sigma0 = [0.5] * len(tables)  # the maximally mixed state, until a size has a best
    for n, schedule in plans:
        comps = _compositions(config.prob_grid, n)
        probs = comps.astype(float) / config.prob_grid
        divergences = [_divergences(u, s, x) for (u, _, s, _), x in zip(tables, sigma0)]
        incumbent = (-math.inf, None, None)
        rows = pruned = 0
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
            incumbent, skipped = _search_pass(tables, ids, n, probs, comps, incumbent, divergences)
            rows += math.comb(ids.shape[0], n)
            pruned += skipped
            if incumbent[1] is None:
                break
        log.debug("oracle size %d: %d rows scored, %d rows pruned", n, rows - pruned, pruned)
        if incumbent[0] > best[0]:
            best = incumbent
        if best[1] is not None:
            # The next size's sigma: the diagonal of the best ensemble's mean output.
            weights = np.array(best[2]) / config.prob_grid
            sigma0 = [float(weights @ u[list(best[1])]) for u, *_ in tables]

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
