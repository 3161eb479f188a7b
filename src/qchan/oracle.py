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

A pass scores its candidates in blocks of combination rows x probability
columns. It allocates its work buffers once and every block reuses them: one
matmul per block fills the means, then the radius, the entropy, chi and the
minimum over channels are computed in place on row slices. Every score is
bit-equal to the unfused formula on fresh arrays, which tests/test_oracle.py
keeps as its reference.

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
skipped only if its bound + 1e-9 is below the incumbent of the current size at
the start of its block: such a row scores strictly below the incumbent, so no
tie can change, and the margin is far above the ~1e-15 float error of either
side. A NaN bound, which a degenerate sigma yields, prunes nothing. The bits
cannot move: the matmuls still run on the full blocks of _CHUNK_ELEMENTS rows
(BLAS rounds by block row count), the surviving rows are compacted in order
and the elementwise steps are exact on any row slice, and the winner maps back
through the surviving row indices to the first maximal row of its block.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
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

# Elements per vectorized block (combination rows x probability columns). The
# means <u>, <v>, <s> are one matmul per block: BLAS rounds an element
# differently depending on the block's row count, so this constant is part of
# the bit-level result.
_CHUNK_ELEMENTS = 1_000_000

# Elements per row slice of a block for the elementwise steps, which are exact
# whatever the slicing. Their three work arrays, 512 KiB each, stay in a core's
# L2 cache; on a 2-vCPU x86-64 host with 2 MiB of L2 per core this ran criterion
# 4 about 12% faster than whole-block steps.
_SLICE_ELEMENTS = 65_536

# Refinement rounds probe +-2 steps of the halved stride around every
# incumbent state, which spans the previous round's full cell.
_REFINE_SPAN = 2


@dataclass(frozen=True)
class OracleConfig:
    """Search-space discretization; n_states is the Caratheodory cap.
    ``restrict_real_b`` searches the 2 real signs, so it requires phase_grid == 2."""

    n_states: int = 2
    a_grid: int = 51
    phase_grid: int = 2
    prob_grid: int = 10
    restrict_real_b: bool = True

    def __post_init__(self):
        object.__setattr__(self, "n_states", int(self.n_states))
        if not 1 <= self.n_states <= 4:
            raise DomainError(f"n_states must lie in [1, 4], got {self.n_states}")
        for name in ("a_grid", "phase_grid", "prob_grid"):
            value = int(getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 2:
                raise DomainError(f"{name} must be >= 2, got {value}")
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


def _compositions(total: int, parts: int) -> np.ndarray:
    """Ordered positive integer compositions of ``total`` into ``parts`` parts."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for cuts in itertools.combinations(range(1, total), parts - 1):
        prev = 0
        row = []
        for cut in cuts:
            row.append(cut - prev)
            prev = cut
        row.append(total - prev)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def _divergences(u, s, sigma0):
    """D(N psi || diag(sigma0, 1 - sigma0)) in bits for every tabulated output.

    An output with population u and entropy s has D = -s - (u log2 sigma0 +
    (1 - u) log2(1 - sigma0)). A sigma0 of 0 or 1 gives inf or NaN entries.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return -s - (u * np.log2(sigma0) + (1.0 - u) * np.log2(1.0 - sigma0))


def _row_bounds(divergences, members, prob_grid):
    """Upper bound on the score of every composition of each row of ``members``.

    ``divergences`` holds one _divergences table per scored channel; the bound is
    the smallest per-channel ((sum D_i) + (G - n) max D_i) / G. It is NaN where
    the row meets a NaN entry, or an inf entry when G == n.
    """
    spare = prob_grid - members.shape[1]
    bound = None
    for table in divergences:
        d = table[members]
        rows = (d.sum(axis=1) + spare * d.max(axis=1)) / prob_grid
        bound = rows if bound is None else np.minimum(bound, rows)
    return bound


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
    step = max(1, _SLICE_ELEMENTS // p_count)
    weights = probs.T
    rows = min(chunk, math.comb(m, n))
    # Block buffers: the score, then the means <u>, <s>, <Re v> and <Im v>.
    score, *means = np.empty((5, rows, p_count))
    # Slice buffers: two work arrays and the chi of a later channel table.
    slice_work = np.empty((3, min(step, rows), p_count))
    pruned = 0
    combo_iter = itertools.combinations(range(m), n)
    while True:
        block = itertools.chain.from_iterable(itertools.islice(combo_iter, chunk))
        members = ids[np.fromiter(block, dtype=np.int64).reshape(-1, n)]  # (C, n)
        c = members.shape[0]
        if c == 0:
            break
        with np.errstate(invalid="ignore"):
            bound = _row_bounds(divergences, members, prob_grid)
            # Written so that a NaN bound keeps its row.
            live = np.flatnonzero(~(bound + 1e-9 < best[0]))
        kept = live.shape[0]
        pruned += c - kept
        if kept == 0:
            continue
        for index, (u, v, s, has_imag) in enumerate(tables):
            parts = (u, s, v.real, v.imag) if has_imag else (u, s, v.real)
            for part, mean in zip(parts, means):
                # The full block keeps BLAS's rounding; then the live rows move up in
                # order, which is safe in place because live[j] >= j.
                np.matmul(part[members], weights, out=mean[:c])
                if kept < c:
                    for lo in range(0, kept, step):
                        hi = min(lo + step, kept)
                        mean[lo:hi] = mean[live[lo:hi]]
            mean_u, mean_s, *mean_v = means[: len(parts)]
            for lo in range(0, kept, step):
                hi = min(lo + step, kept)
                t1, t2, chi = slice_work[:, : hi - lo]
                out = chi if index else score[lo:hi]
                # Output Bloch radius r of the mean state, sqrt((2<u> - 1)^2 + 4|<v>|^2)
                np.multiply(mean_u[lo:hi], 2.0, out=t1)
                np.subtract(t1, 1.0, out=t1)
                np.square(t1, out=t1)
                for mean in mean_v:
                    np.square(mean[lo:hi], out=t2)
                    np.multiply(t2, 4.0, out=t2)
                    np.add(t1, t2, out=t1)
                np.sqrt(t1, out=t1)
                np.minimum(t1, 1.0, out=t1)
                # chi = H((1 - r)/2) - <s>
                np.subtract(1.0, t1, out=t1)
                np.multiply(t1, 0.5, out=t1)
                binary_entropy_into(t1, out, t2)
                np.subtract(out, mean_s[lo:hi], out=out)
                if index:
                    np.minimum(score[lo:hi], chi, out=score[lo:hi])
        block_score = score[:kept]
        flat = int(np.argmax(block_score))
        value = float(block_score.flat[flat])
        if value > best[0]:
            row, col = divmod(flat, p_count)
            best = (
                value,
                tuple(int(x) for x in members[live[row]]),
                tuple(int(k) for k in comps[col]),
            )
    return best, pruned


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
    for n in range(1, config.n_states + 1):
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
