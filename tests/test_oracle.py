import functools
import itertools
import json
import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qchan.divergence
import qchan.oracle
from qchan import (
    AmplitudeDamping,
    BudgetExceededError,
    Depolarizing,
    DomainError,
    GeneralKraus,
    MixedChannelPair,
    OracleConfig,
    QubitState,
    apply_channel,
    capacity_amplitude_damping,
    binary_entropy,
    capacity_depolarizing,
    holevo_chi,
    kraus_amplitude_damping,
    kraus_depolarizing,
    minimax_capacity,
    oracle_capacity,
    oracle_minimax,
    separation_pair,
    symmetrize,
    von_neumann_entropy,
)
from qchan.capacity import bisect_sign_change
from qchan.divergence import bound_tables, divergence, radius_centre, saddle
from qchan.oracle import plan_search_size
from conftest import random_kraus


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            OracleConfig(n_states=5)
        with pytest.raises(DomainError):
            OracleConfig(a_grid=1)
        with pytest.raises(DomainError):
            OracleConfig(prob_grid=1)
        # a size that is not an integer is refused, not truncated
        for name in ("n_states", "a_grid", "phase_grid", "prob_grid"):
            for value in (2.7, 1.9, 3.0, math.nan, math.inf, "3", None):
                with pytest.raises(DomainError):
                    OracleConfig(**{name: value}, restrict_real_b=False)
        assert type(OracleConfig(a_grid=np.int64(11)).a_grid) is int

    def test_real_signs_are_a_phase_grid_of_2(self):
        # restrict_real_b searches exactly the signs +-1, so any other phase grid is refused
        with pytest.raises(DomainError, match="phase_grid"):
            OracleConfig(phase_grid=8)
        assert not OracleConfig(phase_grid=8, restrict_real_b=False).restrict_real_b
        assert not OracleConfig(phase_grid=2, restrict_real_b=False).restrict_real_b

    def test_plan_size_reported(self):
        assert plan_search_size(OracleConfig(n_states=2, a_grid=11, prob_grid=4)) == 590

    def test_plan_counts_the_full_grid_in_closed_form(self):
        # C(states, n) x C(prob_grid - 1, n - 1) per size, on a grid whose ensembles
        # could never be listed.
        states = 2 * (10**7 - 2) + 2
        assert plan_search_size(OracleConfig(n_states=4, a_grid=10**7), 1) == sum(
            math.comb(states, n) * math.comb(9, n - 1) for n in (1, 2, 3, 4))


class TestOracleCapacity:
    def test_identity_channel_exact(self):
        config = OracleConfig(n_states=2, a_grid=5, prob_grid=4)
        value, ensemble = oracle_capacity(AmplitudeDamping(0.0), config)
        assert value == 1.0
        populations = sorted(s.a for _, s in ensemble)
        assert populations == [0.0, 1.0]

    def test_depolarizing_exact_on_grid(self):
        # a in {0, 1} and p = 1/2 all sit on the grid, so the oracle nails the
        # closed form instead of merely approaching it.
        closed = capacity_depolarizing(0.5).capacity_bits
        value, _ = oracle_capacity(Depolarizing(0.5), OracleConfig(n_states=2, a_grid=11, prob_grid=4))
        assert value == pytest.approx(closed, abs=1e-15)
        assert value <= closed + 1e-9

    def test_refinement_monotone_on_nested_grids(self):
        channel = AmplitudeDamping(0.4)
        coarse, _ = oracle_capacity(channel, OracleConfig(n_states=2, a_grid=26, prob_grid=8))
        fine, _ = oracle_capacity(channel, OracleConfig(n_states=2, a_grid=51, prob_grid=8))
        assert fine >= coarse - 1e-12
        assert fine <= capacity_amplitude_damping(0.4).capacity_bits + 1e-9

    def test_two_and_four_state_agree(self):
        solver = capacity_amplitude_damping(0.5).capacity_bits
        two, _ = oracle_capacity(AmplitudeDamping(0.5), OracleConfig(n_states=2, a_grid=41, prob_grid=8))
        four, _ = oracle_capacity(AmplitudeDamping(0.5), OracleConfig(n_states=4, a_grid=41, prob_grid=8))
        assert four >= two - 1e-12
        assert four <= solver + 1e-9
        assert two >= solver - 1e-3

    def test_argmax_chi_matches_holevo_chi(self):
        channel = AmplitudeDamping(0.35)
        value, ensemble = oracle_capacity(channel, OracleConfig(n_states=3, a_grid=21, prob_grid=6))
        assert holevo_chi(channel, ensemble) == pytest.approx(value, abs=1e-12)

    def test_symmetrizing_argmax_cannot_help(self):
        channel = AmplitudeDamping(0.35)
        value, ensemble = oracle_capacity(channel, OracleConfig(n_states=3, a_grid=21, prob_grid=6))
        assert holevo_chi(channel, symmetrize(ensemble)) >= value - 1e-10

    def test_complex_phases_do_not_beat_real_signs(self):
        channel = AmplitudeDamping(0.5)
        real, _ = oracle_capacity(channel, OracleConfig(n_states=2, a_grid=21, prob_grid=6))
        phased, _ = oracle_capacity(
            channel,
            OracleConfig(n_states=2, a_grid=21, prob_grid=6, phase_grid=8, restrict_real_b=False),
        )
        assert phased <= real + 1e-12

    def test_budget_exceeded(self, monkeypatch):
        # The states gate runs first: on a large grid the per-state tables take seconds.
        # 400 states fit a budget of 500 for one channel, not for a pair's two.
        def no_tables(*args):
            raise AssertionError("per-state tables built before the budget gate")

        config = OracleConfig(n_states=4, a_grid=201, prob_grid=20)
        with monkeypatch.context() as patch:
            patch.setattr(qchan.oracle, "_channel_table", no_tables)
            with pytest.raises(BudgetExceededError):
                oracle_capacity(AmplitudeDamping(0.5), config, budget=300)
            with pytest.raises(BudgetExceededError):
                oracle_minimax(separation_pair(), config, budget=500)

    def test_budget_refuses_a_size_after_its_state_bounds(self, monkeypatch):
        # Every depolarizing state reaches the size-2 floor, so the state bounds keep
        # all 400, and their C(400, 2) x 19 = 1.5e6 ensembles exceed what is left of
        # 1e6 after size 1 and the size-2 seed block have run.
        passes = []
        search_pass = qchan.oracle._search_pass

        def recording_pass(tables, state_ids, n, *args):
            passes.append(n)
            return search_pass(tables, state_ids, n, *args)

        monkeypatch.setattr(qchan.oracle, "_search_pass", recording_pass)
        config = OracleConfig(n_states=2, a_grid=201, prob_grid=20)
        with pytest.raises(BudgetExceededError, match="size-2 ensembles of 400 states"):
            oracle_capacity(Depolarizing(0.2), config, budget=1e6)
        assert passes == [1, 2]
        # One running total: the 400 tabulated states, then per size m P and the
        # C(kept, n) P ensembles of the kept states.
        total = 400 + (400 + 400) + (400 * 19 + math.comb(400, 2) * 19)
        with pytest.raises(BudgetExceededError):
            oracle_capacity(Depolarizing(0.2), config, budget=total - 1)
        assert oracle_capacity(Depolarizing(0.2), config, budget=total)[0] > 0.53

    def test_budget_charges_the_states_each_size_keeps(self):
        # The criterion-4 shape has 1.0e12 ensembles on the full grid, but its state
        # bounds keep 4 of 400 states from size 2 on, so it fits a budget of 1e6.
        config = OracleConfig(**CRITERION4)
        assert plan_search_size(config) > 1e12
        assert oracle_capacity(AmplitudeDamping(0.5), config, budget=1e6) == oracle_capacity(
            AmplitudeDamping(0.5), config, budget=1e9)

    def test_budget_refuses_a_size_before_its_compositions(self, monkeypatch):
        # C(99999, 2) = 5.0e9 three-state compositions of a 10**5-step simplex would
        # take 120 GB: the size's m x P charge refuses it before they are built.
        built = []
        compositions = qchan.oracle._compositions

        def small_compositions(total, parts):
            assert parts < 3, "compositions built past the budget"
            built.append(parts)
            return compositions(total, parts)

        monkeypatch.setattr(qchan.oracle, "_compositions", small_compositions)
        # On this grid the best pair of size 2 stays below the divergence peak, so
        # the search does not stop before size 3.
        config = OracleConfig(n_states=4, a_grid=12, prob_grid=10**5)
        with pytest.raises(BudgetExceededError, match="size-3 tables"):
            oracle_capacity(AmplitudeDamping(0.5), config)
        assert built == [1, 2]
        # Sizes 1 and 2 ran, so the grid and the index rows they use are cached:
        # the charge still comes first and refuses size 3 the same way.
        hits = [qchan.oracle._grid_states.cache_info().hits,
                qchan.oracle._combinations.cache_info().hits]
        with pytest.raises(BudgetExceededError, match="size-3 tables"):
            oracle_capacity(AmplitudeDamping(0.5), config)
        assert built == [1, 2, 1, 2]
        assert qchan.oracle._grid_states.cache_info().hits > hits[0]
        assert qchan.oracle._combinations.cache_info().hits > hits[1]

    def test_budget_counts_tabulated_states(self, monkeypatch):
        # The tables would hold 2e9 states per channel, over the budget before any size runs.
        def no_tables(*args):
            raise AssertionError("per-state tables built past the budget")

        monkeypatch.setattr(qchan.oracle, "_channel_table", no_tables)
        config = OracleConfig(a_grid=10**9)
        with pytest.raises(BudgetExceededError):
            oracle_capacity(AmplitudeDamping(0.5), config, budget=1e8)
        with pytest.raises(BudgetExceededError):
            oracle_minimax(separation_pair(), config, budget=1e8)

    def test_nan_budget_rejected(self):
        config = OracleConfig(n_states=4, a_grid=201, prob_grid=20)
        with pytest.raises(DomainError):
            plan_search_size(config, float("nan"))
        with pytest.raises(DomainError):
            oracle_capacity(AmplitudeDamping(0.5), config, budget=float("nan"))
        with pytest.raises(DomainError):
            oracle_minimax(separation_pair(), config, budget=float("nan"))

    def test_deterministic(self):
        config = OracleConfig(n_states=2, a_grid=21, prob_grid=6)
        first = oracle_capacity(AmplitudeDamping(0.3), config)
        second = oracle_capacity(AmplitudeDamping(0.3), config)
        assert first == second

    def test_general_kraus_channel(self):
        from qchan import GeneralKraus, kraus_amplitude_damping

        config = OracleConfig(n_states=2, a_grid=21, prob_grid=6)
        direct, _ = oracle_capacity(AmplitudeDamping(0.3), config)
        wrapped, _ = oracle_capacity(
            GeneralKraus(tuple(kraus_amplitude_damping(0.3))), config
        )
        assert wrapped == pytest.approx(direct, abs=1e-12)

    def test_more_states_than_prob_grid_steps(self):
        # No ensemble of 3 or 4 states has weights in steps of 1/2: those sizes are
        # skipped, where they used to raise an IndexError.
        two = OracleConfig(n_states=2, a_grid=11, prob_grid=2)
        for n_states in (3, 4):
            config = OracleConfig(n_states=n_states, a_grid=11, prob_grid=2)
            assert plan_search_size(config) == plan_search_size(two)
            assert oracle_capacity(AmplitudeDamping(0.5), config) == oracle_capacity(
                AmplitudeDamping(0.5), two)
            assert oracle_minimax(separation_pair(), config) == oracle_minimax(
                separation_pair(), two)


class TestOracleMinimax:
    def test_identical_channels_match_single_oracle(self):
        config = OracleConfig(n_states=2, a_grid=21, prob_grid=6)
        pair = MixedChannelPair(AmplitudeDamping(0.4), AmplitudeDamping(0.4))
        paired, _ = oracle_minimax(pair, config)
        single, _ = oracle_capacity(AmplitudeDamping(0.4), config)
        assert paired == pytest.approx(single, abs=1e-14)

    def test_two_depolarizing_from_below(self):
        config = OracleConfig(n_states=2, a_grid=21, prob_grid=6)
        pair = MixedChannelPair(Depolarizing(0.2), Depolarizing(0.6))
        value, _ = oracle_minimax(pair, config)
        closed = capacity_depolarizing(0.6).capacity_bits
        assert value <= closed + 1e-9
        assert value >= closed - 1e-3

    def test_degenerate_weight_reduces_to_single_channel(self):
        config = OracleConfig(n_states=2, a_grid=21, prob_grid=6)
        pair = MixedChannelPair(AmplitudeDamping(0.4), Depolarizing(0.9), weight1=1.0)
        value, _ = oracle_minimax(pair, config)
        single, _ = oracle_capacity(AmplitudeDamping(0.4), config)
        assert value == single

    def test_separation_fixture_certified(self):
        config = OracleConfig(n_states=2, a_grid=101, prob_grid=10)
        value, _ = oracle_minimax(separation_pair(), config)
        solver = minimax_capacity(separation_pair()).capacity_bits
        assert value <= solver + 1e-6
        assert value >= solver - 2e-3


def chain_mean(part, members, probs):
    """Mean of part over each row of members, per column of probs, as the pass sums it:
    part[member 0] * p_0 + part[member 1] * p_1 + ..., in k order, each step rounded."""
    mean = part[members[:, 0], None] * probs[:, 0]
    for k in range(1, members.shape[1]):
        mean = mean + part[members[:, k], None] * probs[:, k]
    return mean


def matmul_mean(part, members, probs):
    """The same mean through BLAS, as the pass computed it before it summed in k order."""
    return part[members] @ probs.T


def reference_scores(tables, members, probs, mean=chain_mean):
    """Scores of every row of members x column of probs, as fresh arrays through binary_entropy."""
    score = None
    for u, v, s, has_imag in tables:
        mean_u = mean(u, members, probs)
        mean_re = mean(v.real, members, probs)
        radicand = (2.0 * mean_u - 1.0) ** 2 + 4.0 * mean_re ** 2
        if has_imag:
            mean_im = mean(v.imag, members, probs)
            radicand += 4.0 * mean_im ** 2
        r = np.minimum(np.sqrt(radicand), 1.0)
        chi = binary_entropy(0.5 * (1.0 - r)) - mean(s, members, probs)
        score = chi if score is None else np.minimum(score, chi)
    return score


# Elements per block of reference_pass. Its result does not depend on it, so it
# ignores the block size a test sets for the pass.
REFERENCE_BLOCK = 1_000_000


def reference_pass(tables, state_ids, n, probs, comps, best, divergences, seeds, budget):
    """The search pass block by block, unpruned: it ignores ``divergences``, ``seeds``
    and ``budget``, and reports every state kept."""
    ids = np.asarray(state_ids, dtype=np.int64)
    m = ids.shape[0]
    counts = np.array([0, 0, m])
    if m < n:
        return best, counts, (0, -math.inf)
    p_count = probs.shape[0]
    chunk = max(1, REFERENCE_BLOCK // p_count)
    combo_iter = itertools.combinations(range(m), n)
    while block := list(itertools.islice(combo_iter, chunk)):
        members = ids[np.array(block, dtype=np.int64)]
        score = reference_scores(tables, members, probs)
        # The first maximal score that is not NaN, as the pass takes it.
        flat = int(np.argmax(np.where(np.isnan(score), -math.inf, score)))
        value = float(score.flat[flat])
        if value > best[0]:
            row, col = divmod(flat, p_count)
            best = (value, tuple(int(x) for x in members[row]), tuple(int(k) for k in comps[col]))
    return best, counts, (0, -math.inf)


def no_seeds(n):
    """An empty seed set for a pass of size n: the pass has no floor."""
    return np.zeros((0, n), dtype=np.int64)


SMALL = dict(a_grid=9, prob_grid=5)
COMPLEX = dict(a_grid=7, prob_grid=4, phase_grid=5, restrict_real_b=False)
MEDIUM = dict(n_states=3, a_grid=31, prob_grid=5)
KRAUS = GeneralKraus(tuple(kraus_amplitude_damping(0.3)))
PAIR = MixedChannelPair(AmplitudeDamping(0.5), Depolarizing(0.24))
# Each size is charged for the ensembles of the states its bounds keep, so the
# damping searches fit budgets below their full enumeration. The pair's bounds
# keep 50 of the 60 states at n = 3, over 1e5.
LARGER = [
    (AmplitudeDamping(0.5), MEDIUM, 1e5),
    (PAIR, MEDIUM, 1e8),
    (AmplitudeDamping(0.5), dict(n_states=4, a_grid=31, prob_grid=5), 1e6),
]
REFERENCE_CASES = [
    *[(AmplitudeDamping(0.3), dict(SMALL, n_states=k), 1e8) for k in (1, 2, 3, 4)],
    *[(AmplitudeDamping(0.6), dict(COMPLEX, n_states=k), 1e8) for k in (1, 2, 3)],
    (PAIR, dict(SMALL, n_states=3), 1e8),
    (PAIR, dict(COMPLEX, n_states=2), 1e8),
    *LARGER,
    (KRAUS, dict(SMALL, n_states=3), 1e8),
    (KRAUS, dict(COMPLEX, n_states=2), 1e8),
    # Channels at or next to the ends of their range. At gamma 0, gamma 1 and
    # lambda 0 the best ensemble's mean output is diagonal and pure, so sigma0 is
    # 0 or 1 and the divergence tables hold inf or NaN entries.
    *[(AmplitudeDamping(g), dict(SMALL, n_states=3), 1e8) for g in (0.0, 1.0, 1e-300, 1 - 1e-16)],
    *[(Depolarizing(lam), dict(SMALL, n_states=3), 1e8) for lam in (0.0, 1.0)],
    # n_states == prob_grid leaves no spare weight, so an inf entry meets 0 * inf.
    (AmplitudeDamping(0.0), dict(SMALL, n_states=2, prob_grid=2), 1e8),
    # The best row is a mirror pair (a, +-b) whose columns (3, 4) and (4, 3) tie
    # exactly: the first composition must win.
    (AmplitudeDamping(0.5), dict(a_grid=9, prob_grid=7, n_states=2), 1e8),
]


@functools.cache
def reference_search(case):
    """The search of REFERENCE_CASES[case] with every pass unpruned. It does not
    depend on the block or slice size a test patches, so it is computed once."""
    channel, grid, _ = REFERENCE_CASES[case]
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qchan.oracle, "_search_pass", reference_pass)
        # The reference keeps every state, which the LARGER budgets do not fit.
        return search(channel, OracleConfig(**grid), math.inf)


# The small sizes put several blocks, several slices and a short last one
# through each pass, so the later blocks are pruned. For n >= 2 a slice of 7
# elements holds at most two rows, so every slice is short and a block's own
# scores prune its later rows.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chunk, slice_", [(None, None), (60, 25), (60, 7)])
@pytest.mark.parametrize("channel, grid, budget", REFERENCE_CASES)
def test_search_equals_unfused_reference(monkeypatch, channel, grid, budget, chunk, slice_):
    if chunk is not None:
        monkeypatch.setattr(qchan.oracle, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(qchan.oracle, "_SLICE_ELEMENTS", slice_)
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    fused = search(channel, OracleConfig(**grid), budget)
    case = next(i for i, (c, g, _) in enumerate(REFERENCE_CASES) if c is channel and g is grid)
    assert fused == reference_search(case)


def nan_divergences(monkeypatch, at=None):
    """Patches the search's D tables with NaN at the state ``at``, or everywhere:
    a NaN prunes nothing and, anywhere, blocks the stop."""
    def patched(pairs, a):
        divergences, t, sigma0 = bound_tables(pairs, a)
        for d in divergences:
            d[slice(None) if at is None else at] = np.nan
        return divergences, t, sigma0

    monkeypatch.setattr(qchan.oracle, "bound_tables", patched)


# Depolarizing outputs all have the same D at sigma = 1/2, so the grid's peak is
# the capacity, which an antipodal pair at equal weights reaches within ulps.
STOPPING = [(Depolarizing(0.2), dict(n_states=k, a_grid=9, prob_grid=4), 1e8) for k in (3, 4)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("channel, grid, budget", REFERENCE_CASES + STOPPING)
def test_stopped_search_is_within_the_margin_of_the_full_enumeration(monkeypatch, channel, grid, budget):
    # The reference is neither pruned nor stopped: the unpruned pass, with NaN
    # tables. The search stops only before sizes that cannot beat its best by more
    # than 1e-9, and the sizes it runs keep their bits.
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    config = OracleConfig(**grid)
    value, _ = search(channel, config, budget)
    nan_divergences(monkeypatch)
    monkeypatch.setattr(qchan.oracle, "_search_pass", reference_pass)
    reference, _ = search(channel, config, math.inf)
    assert reference - 1e-9 <= value <= reference


def logged_stops(caplog, search, *args):
    """The sizes a search logs, and the sizes before which it logs a stop."""
    with caplog.at_level(logging.DEBUG, logger="qchan.oracle"):
        result = search(*args)
    sizes = [r.args[0] for r in caplog.records if r.msg.startswith("oracle size")]
    stops = [r.args[0] for r in caplog.records if r.msg.startswith("oracle stop")]
    caplog.clear()
    return result, sizes, stops


def ensemble_rows(config, ensemble):
    """Each (weight, state) of ``ensemble`` as (a index, phase index, weight numerator)."""
    a, b, a_index = qchan.oracle._grid_states(config)
    first = np.searchsorted(a_index, a_index)  # the first state at each state's a
    rows = []
    for p, state in ensemble:
        sid = int(np.flatnonzero((a == state.a) & (b == state.b))[0])
        rows.append([int(a_index[sid]), int(sid - first[sid]), round(p * config.prob_grid)])
    return rows


@pytest.mark.parametrize("channel, value, rows", [
    # The bits of the search before the stop: an antipodal pair, and the identity
    # channel's basis states.
    (Depolarizing(0.2), "0x1.0fdfcf3f21c1cp-1", [[24, 0, 10], [176, 1, 10]]),
    (AmplitudeDamping(0.0), "0x1.0000000000000p+0", [[0, 0, 10], [200, 0, 10]]),
])
def test_search_stops_at_the_divergence_peak(caplog, channel, value, rows):
    # Nothing prunes on these shapes: every state's bound reaches the size-2
    # floor. The stop skips sizes 3 and 4 of the criterion-4 shape.
    config = OracleConfig(**CRITERION4)
    (found, ensemble), sizes, stops = logged_stops(caplog, oracle_capacity, channel, config)
    assert (sizes, stops) == ([1, 2], [3])
    assert found.hex() == value
    assert ensemble_rows(config, ensemble) == rows


def test_fully_damped_channel_scores_zero(caplog):
    # Every output is |0><0|: a single state reaches the grid's peak of 1.6e-16,
    # where larger ensembles scored float noise up to 6.0e-15.
    (value, ensemble), sizes, stops = logged_stops(
        caplog, oracle_capacity, AmplitudeDamping(1.0), OracleConfig(**CRITERION4))
    assert (sizes, stops) == ([1], [2])
    assert value == 0.0
    assert len(ensemble) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("at", [0, 5, None])
def test_nan_table_entry_blocks_the_stop(monkeypatch, caplog, at):
    channel, grid, _ = STOPPING[0]
    config = OracleConfig(**grid)
    stopped, sizes, stops = logged_stops(caplog, oracle_capacity, channel, config)
    assert (sizes, stops) == ([1, 2], [3])
    nan_divergences(monkeypatch, at)
    (value, _), sizes, stops = logged_stops(caplog, oracle_capacity, channel, config)
    assert (sizes, stops) == ([1, 2, 3], [])
    assert stopped[0] - 1e-9 <= value


# The LARGER cases take seconds at a slice of 7 elements and meet the reference
# at both partitions above.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("channel, grid, budget", [c for c in REFERENCE_CASES if c not in LARGER])
def test_search_does_not_depend_on_block_or_slice_size(monkeypatch, channel, grid, budget):
    # Every score depends on its own row only, so the partition cannot move a bit.
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    results = []
    for chunk, slice_ in ((10**6, 65536), (60, 7)):
        monkeypatch.setattr(qchan.oracle, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(qchan.oracle, "_SLICE_ELEMENTS", slice_)
        results.append(search(channel, OracleConfig(**grid), budget))
    assert results[0] == results[1]


# Searches at the benchmark's shapes, beyond the reach of the unpruned reference:
# criterion 4 at three gammas, the separation pair at the criterion-8 shape and
# the complex-phase shape. Each ensemble row is (a index, phase index, weight
# numerator). The value is compared within 1e-12, not by its bits, which depend
# on the platform's log2.
GOLDEN = json.loads((Path(__file__).parent / "data" / "oracle_golden.json").read_text())


def golden_search(shape):
    """The search of a GOLDEN shape: its value, and its ensemble as ensemble_rows."""
    kinds = {"ad": AmplitudeDamping, "dep": Depolarizing}
    channels = [kinds[kind](float(x)) for kind, x in (c.split(":") for c in shape["channel"].split("+"))]
    config = OracleConfig(**shape["config"])
    if len(channels) == 2:
        value, ensemble = oracle_minimax(MixedChannelPair(*channels), config, GOLDEN["budget"])
    else:
        value, ensemble = oracle_capacity(channels[0], config, GOLDEN["budget"])
    return value, ensemble_rows(config, ensemble)


@pytest.mark.parametrize("shape", GOLDEN["shapes"], ids=lambda shape: shape["channel"])
def test_search_matches_golden_at_benchmark_shapes(shape):
    value, rows = golden_search(shape)
    assert rows == shape["ensemble"]
    assert abs(value - shape["value"]) <= 1e-12


def test_golden_shapes_do_not_depend_on_what_the_caches_hold():
    # Searches share the cached grids and index rows, read-only. Each shape
    # searched with empty caches, then in file order, another grid's search,
    # and in reverse order, gives the golden ensemble and the same bits.
    def clear():
        qchan.oracle._grid_states.cache_clear()
        qchan.oracle._combinations.cache_clear()

    shapes = GOLDEN["shapes"]
    cold = []
    for shape in shapes:
        clear()
        cold.append(golden_search(shape))
    warm = [golden_search(shape) for shape in shapes]
    oracle_minimax(PAIR, OracleConfig(n_states=4, a_grid=31, prob_grid=5))
    warm += [golden_search(shape) for shape in reversed(shapes)][::-1]
    for k, (value, rows) in enumerate(cold + warm):
        shape = shapes[k % len(shapes)]
        assert rows == shape["ensemble"]
        assert abs(value - shape["value"]) <= 1e-12
        assert value.hex() == cold[k % len(shapes)][0].hex()


def grid_tables(channel, config):
    """The search's channels and their (u, v, s, has_imag) tables on the config's grid."""
    channels = [channel.ch1, channel.ch2] if isinstance(channel, MixedChannelPair) else [channel]
    a, b, _ = qchan.oracle._grid_states(config)
    tables = []
    for ch in channels:
        u, v, s = qchan.oracle._channel_table(ch, a, b)
        tables.append((u, v, s, bool(np.any(v.imag != 0.0))))
    return channels, tables


def divergence_pairs(tables):
    """The (u, s) pair of each (u, v, s, has_imag) table, as the search hands them to qchan.divergence."""
    return [(u, s) for u, _, s, _ in tables]


def divergences_at(u, s, sigma0):
    """divergence(u, s) at sigma0, where a sigma0 of 0 or 1 does not warn."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return divergence(u, s)(sigma0)


@pytest.mark.parametrize(
    "channel, grid",
    [(AmplitudeDamping(0.3), SMALL), (AmplitudeDamping(0.6), COMPLEX), (PAIR, SMALL), (PAIR, COMPLEX)],
)
def test_sum_in_k_order_moves_means_by_at_most_2_ulp(channel, grid):
    # The pass used to take its means from BLAS, which rounds a fused multiply-add
    # chain; it now rounds each product and each sum. The means of every row of up
    # to 3 states differ by at most 2 ulp of the sum of the terms' magnitudes
    # (a mean near 0 can come from terms near 1). A score is H(q) - <s>, a
    # difference of terms of up to 1 bit, so it moves by up to ~10 ulp of 1 (seen:
    # 1.05e-15 on the SMALL grid); the best score of a row moves by at most 1e-15.
    config = OracleConfig(n_states=3, **grid)
    _, tables = grid_tables(channel, config)
    for n in (1, 2, 3):
        probs = qchan.oracle._compositions(config.prob_grid, n) / config.prob_grid
        members = np.array(list(itertools.combinations(range(tables[0][0].shape[0]), n)))
        for u, v, s, _ in tables:
            for part in (u, s, v.real, v.imag):
                scale = chain_mean(np.abs(part), members, probs)
                moved = np.abs(chain_mean(part, members, probs) - matmul_mean(part, members, probs))
                assert np.all(moved <= 2 * np.spacing(scale))
        new = reference_scores(tables, members, probs)
        old = reference_scores(tables, members, probs, mean=matmul_mean)
        assert np.max(np.abs(new - old)) <= 2e-15
        assert np.max(np.abs(new.max(axis=1) - old.max(axis=1))) <= 1e-15


def pass_products(tables, ids, weights):
    """Per channel, the _pass_tables pairs of u, Re v, (Im v,) s at ``ids``, as a pass builds them."""
    return [
        qchan.oracle._pass_tables(
            [part[ids] for part in ((u, v.real, v.imag, s) if has_imag else (u, v.real, s))], weights)
        for u, v, s, has_imag in tables
    ]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", ["lexicographic", "shuffled"])
@pytest.mark.parametrize(
    "channel, grid", [(AmplitudeDamping(0.3), SMALL), (KRAUS, COMPLEX), (PAIR, SMALL), (PAIR, COMPLEX)],
)
def test_pass_scores_equal_reference_scores(channel, grid, order):
    # Element by element, for rows in the order the pass takes them and in any other.
    config = OracleConfig(n_states=4, **grid)
    _, tables = grid_tables(channel, config)
    ids = np.arange(tables[0][0].shape[0])
    for n in (1, 2, 3, 4):
        probs = qchan.oracle._compositions(config.prob_grid, n) / config.prob_grid
        members = np.array(list(itertools.combinations(ids, n)))
        if order == "shuffled":
            members = members[np.random.default_rng(n).permutation(members.shape[0])]
        products = pass_products(tables, ids, probs.T)
        score, *work = np.empty((4, members.shape[0], probs.shape[0]))
        qchan.oracle._chi_into(products, probs.T, members, work, score)
        assert score.tobytes() == reference_scores(tables, members, probs).tobytes()


@pytest.mark.parametrize(
    "channel, grid",
    [(AmplitudeDamping(0.3), SMALL), (Depolarizing(0.4), SMALL), (KRAUS, COMPLEX), (PAIR, SMALL)],
)
def test_row_bound_is_above_every_score_in_its_row(channel, grid):
    # Every row of a full search, with sigma the best ensemble's mean output, seeded
    # random diagonals, and the search's own tables.
    config = OracleConfig(n_states=3, **grid)
    channels, tables = grid_tables(channel, config)
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    _, ensemble = search(channel, config)
    sigmas = [[sum(p * apply_channel(ch, state).a for p, state in ensemble) for ch in channels]]
    sigmas += np.random.default_rng(5).uniform(size=(4, len(channels))).tolist()
    table_sets = [[divergences_at(u, s, x) for (u, _, s, _), x in zip(tables, sigma)]
                  for sigma in sigmas]
    # The search's own tables: for a pair, the weighted table of its saddle first.
    table_sets.append(bound_tables(divergence_pairs(tables), qchan.oracle._grid_states(config)[0])[0])
    for n in (1, 2, 3):
        comps = qchan.oracle._compositions(config.prob_grid, n)
        members = np.array(list(itertools.combinations(range(tables[0][0].shape[0]), n)))
        best_in_row = reference_scores(tables, members, comps / config.prob_grid).max(axis=1)
        for divergences in table_sets:
            bound = qchan.oracle._row_bounds(divergences, members, config.prob_grid)
            assert np.all(np.isfinite(bound))
            # Float error on either side is ~1e-15, far inside the pass's 1e-9 margin.
            assert np.all(best_in_row <= bound + 1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nan_at_best", [False, True])
@pytest.mark.parametrize(
    "channel, grid",
    [(AmplitudeDamping(0.3), SMALL), (AmplitudeDamping(0.6), COMPLEX), (PAIR, SMALL), (KRAUS, COMPLEX),
     # The best row's columns (3, 4) and (4, 3) tie exactly: the first must win.
     (AmplitudeDamping(0.5), dict(a_grid=9, prob_grid=7)),
     # The best is a mirror pair of equal weights, whose mean output is diagonal:
     # with sigma that output, its bound is its score.
     (AmplitudeDamping(0.5), dict(a_grid=9, prob_grid=4))],
)
def test_pass_started_near_its_best_finds_it(channel, grid, nan_at_best):
    # A pass of every size from 2 on starts from the best so far, which can sit
    # just below its own best: its state and row bounds must keep that best.
    # With sigma the best ensemble's own mean output, that ensemble's bound is
    # close to its score. A NaN D at one of its states makes its bounds NaN, and
    # a NaN bound must keep its state and row.
    config = OracleConfig(n_states=3, **grid)
    _, tables = grid_tables(channel, config)
    ids = np.arange(tables[0][0].shape[0])
    for n in (2, 3):
        comps = qchan.oracle._compositions(config.prob_grid, n)
        probs = comps / config.prob_grid
        best, *_ = reference_pass(
            tables, ids, n, probs, comps, (-math.inf, None, None), None, no_seeds(n), math.inf)
        weights = np.array(best[2]) / config.prob_grid
        own = [float(weights @ u[list(best[1])]) for u, *_ in tables]
        centre = [radius_centre(u, s) for u, _, s, _ in tables]
        for sigma in (own, centre):
            divergences = [divergences_at(u, s, x) for (u, _, s, _), x in zip(tables, sigma)]
            if nan_at_best:
                for d in divergences:
                    d[best[1][-1]] = np.nan
            for below in (best[0] - 1e-2, best[0] - 1e-6, best[0] - 1e-12, np.nextafter(best[0], 0.0)):
                start = (float(below), None, None)
                assert qchan.oracle._search_pass(
                    tables, ids, n, probs, comps, start, divergences, no_seeds(n), math.inf)[0] == best


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "channel, pair", [(AmplitudeDamping(0.5), [3, 4]), (AmplitudeDamping(0.1), [5, 6]),
                      (Depolarizing(0.2), [3, 4])])
def test_row_whose_bound_rounds_below_its_score_is_scored(channel, pair):
    # An equal-weight mirror pair has a diagonal mean output. With sigma one ulp
    # off it, chi = sum_k p_k D_k to second order, and in floats these pairs'
    # bounds, (D_1 + D_2) / 2 at prob_grid 2, round 1-4 ulp below their scores. A
    # pass started at exactly such a score must still score the row: an element
    # that ties the threshold wins when that threshold is the floor, which never
    # becomes the best. Only the 1e-9 margin keeps it; without it the state
    # bounds drop it.
    config = OracleConfig(n_states=2, a_grid=9, prob_grid=2)
    _, tables = grid_tables(channel, config)
    u, _, s, _ = tables[0]
    comps = qchan.oracle._compositions(config.prob_grid, 2)
    probs = comps / config.prob_grid
    members = np.array([pair])
    score = float(reference_scores(tables, members, probs)[0, 0])
    divergences = [divergences_at(u, s, np.nextafter(u[pair[0]], 1.0))]
    assert qchan.oracle._row_bounds(divergences, members, config.prob_grid)[0] < score
    _, counts, _ = qchan.oracle._search_pass(
        tables, pair, 2, probs, comps, (score, None, None), divergences, no_seeds(2), math.inf)
    # No row pruned, one element scored, both states kept.
    assert counts.tolist() == [0, 1, 2]


def run_pass(tables, ids, n, prob_grid, divergences, seeds):
    """(best, seed elements scored, floor) of a pass from -inf over ``ids`` with ``seeds``."""
    comps = qchan.oracle._compositions(prob_grid, n)
    best, _, (seeded, floor) = qchan.oracle._search_pass(
        tables, ids, n, comps / prob_grid, comps, (-math.inf, None, None), divergences, seeds, math.inf)
    return best, seeded, floor


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chunk, slice_", [(None, None), (60, 7)])
def test_seed_floor_keeps_the_pass_winner(monkeypatch, chunk, slice_):
    # A floor is the best score of genuine elements of the pass: it prunes, but
    # the winner stays the first maximal element of the pass without one.
    if chunk is not None:
        monkeypatch.setattr(qchan.oracle, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(qchan.oracle, "_SLICE_ELEMENTS", slice_)
    config = OracleConfig(n_states=2, **SMALL)
    a, b, a_index = qchan.oracle._grid_states(config)
    _, tables = grid_tables(AmplitudeDamping(0.3), config)
    u, v, s, _ = tables[0]
    ids = np.arange(a.shape[0])
    divergences = [divergences_at(u, s, radius_centre(u, s))]
    p_count = config.prob_grid - 1
    best, *no_floor = run_pass(tables, ids, 2, config.prob_grid, divergences, no_seeds(2))
    assert no_floor == [0, -math.inf]

    # A mirror-twin tie: the twin of the best row, each coherence negated, scores
    # bit-identically and comes later. As the seed it sets the floor, not the winner.
    twin = sorted(int(np.flatnonzero((a_index == a_index[x]) & (b == -b[x]))[0]) for x in best[1])
    assert tuple(twin) > best[1]
    assert run_pass(tables, ids, 2, config.prob_grid, divergences, np.array([twin])) == (
        best, p_count, best[0])

    # A seed row with a state dropped against the incoming best is not scored.
    # Started at the pass's own best, the state bounds drop the end states a = 0
    # and a = 1, so the seed row of both ends, which outscores the seed row (1, 2),
    # leaves the floor at the score of (1, 2).
    comps = qchan.oracle._compositions(config.prob_grid, 2)
    probs = comps / config.prob_grid
    start = (best[0], None, None)
    seeds = np.array([[0, ids[-1]], [1, 2]])
    keep = qchan.oracle._reaches(qchan.oracle._state_bounds(divergences, 2, config.prob_grid), best[0])
    assert keep[seeds].tolist() == [[False, False], [True, True]]
    seed_scores = reference_scores(tables, seeds, probs).max(axis=1)
    assert seed_scores[0] > seed_scores[1]
    found, _, (seeded, floor) = qchan.oracle._search_pass(
        tables, ids, 2, probs, comps, start, divergences, seeds, math.inf)
    assert (found, seeded, floor.hex()) == (start, p_count, float(seed_scores[1]).hex())

    # A NaN seed score leaves the floor at -inf.
    nan_s = s.copy()
    nan_s[best[1][0]] = np.nan
    nan_tables = [(u, v, nan_s, False)]
    seeds = np.array([[best[1][0], x] for x in range(best[1][0] + 1, ids.shape[0])])
    nan_best = run_pass(nan_tables, ids, 2, config.prob_grid, divergences, no_seeds(2))[0]
    assert run_pass(nan_tables, ids, 2, config.prob_grid, divergences, seeds) == (
        nan_best, seeds.shape[0] * p_count, -math.inf)

    # An empty seed set, as in a pass with fewer states than its size. (An odd
    # phase grid has no mirror pair either: test_seed_rows, and the COMPLEX
    # searches of REFERENCE_CASES.)
    assert run_pass(tables, ids[:1], 2, config.prob_grid, divergences, no_seeds(2)) == (
        (-math.inf, None, None), 0, -math.inf)

    # A floor at a score whose row bound rounds below it (the mirror pair of
    # test_row_whose_bound_rounds_below_its_score_is_scored): only the 1e-9
    # margin keeps that row.
    pair_config = OracleConfig(n_states=2, a_grid=9, prob_grid=2)
    _, pair_tables = grid_tables(AmplitudeDamping(0.5), pair_config)
    pair_u, _, pair_s, _ = pair_tables[0]
    pair = np.array([3, 4])
    pair_divergences = [divergences_at(pair_u, pair_s, np.nextafter(pair_u[3], 1.0))]
    score = float(reference_scores(pair_tables, pair[None, :], np.array([[0.5, 0.5]]))[0, 0])
    assert qchan.oracle._row_bounds(pair_divergences, pair[None, :], 2)[0] < score
    assert run_pass(pair_tables, pair, 2, 2, pair_divergences, np.array([[0, 1]])) == (
        (score, (3, 4), (1, 1)), 1, score)


@pytest.mark.filterwarnings("error")
def test_nan_score_hides_no_finite_score_of_its_slice():
    # argmax stops at the first NaN, and a NaN loses every comparison: the pass
    # takes the first maximal score that is not NaN instead. Here the seed rows
    # are one slice, and the NaN scores of row (3, 4) come first.
    config = OracleConfig(n_states=2, **SMALL)
    _, tables = grid_tables(AmplitudeDamping(0.3), config)
    u, v, s, _ = tables[0]
    nan_s = s.copy()
    nan_s[3] = np.nan
    nan_tables = [(u, v, nan_s, False)]
    divergences = [divergences_at(u, s, radius_centre(u, s))]
    seeds = np.array([[3, 4], [5, 6], [1, 2]])
    _, _, floor = run_pass(nan_tables, np.arange(u.shape[0]), 2, config.prob_grid, divergences, seeds)
    comps = qchan.oracle._compositions(config.prob_grid, 2)
    score = reference_scores(nan_tables, seeds, comps / config.prob_grid)
    assert np.isnan(score[0]).all() and np.isfinite(score[1:]).all()
    assert floor == np.max(score[1:])
    assert round(floor, 4) == 0.5326
    for scores, first in (([np.nan, 1.0, 3.0, 3.0], 2), ([2.0, np.nan, 3.0], 2), ([np.nan, np.nan], 0),
                          ([[1.0, 2.0], [2.0, np.nan]], 1)):
        assert qchan.oracle._first_max(np.array(scores)) == first


def test_seed_rows():
    for grid, pairs_per_a in ((dict(a_grid=5), 1),
                              (dict(a_grid=5, phase_grid=8, restrict_real_b=False), 4),
                              (dict(a_grid=5, phase_grid=5, restrict_real_b=False), 0)):
        config = OracleConfig(**grid)
        _, b, a_index = qchan.oracle._grid_states(config)
        rows = qchan.oracle._seed_rows(2, None, a_index, config.phase_grid)
        # Size 2: the mirror pairs of the grid, b and -b at one a; the three a
        # inside (0, 1) carry a coherence.
        assert rows.shape == (3 * pairs_per_a, 2)
        first, second = rows.T
        assert np.all(a_index[first] == a_index[second])
        assert np.all(b[first] != 0.0)
        assert np.allclose(b[first], -b[second], rtol=0.0, atol=1e-15)
        if not config.restrict_real_b:
            continue
        # Size 3 from the previous size's best: its states, completed by every
        # other grid state in order. The grid holds states 0 to 7 (a = 0, 1/4 +-,
        # 1/2 +-, 3/4 +-, 1).
        assert b.shape == (8,)
        for winner in ((1, 2), (3, 6), (0, 7)):
            rows = qchan.oracle._seed_rows(3, winner, a_index, config.phase_grid)
            others = [j for j in range(8) if j not in winner]
            assert rows.dtype == np.int64
            assert rows.tolist() == [sorted([*winner, j]) for j in others]
        assert qchan.oracle._seed_rows(3, None, a_index, 2).shape == (0, 3)
        assert qchan.oracle._seed_rows(4, (0, 1, 2), a_index[:3], 2).shape == (0, 4)


CRITERION4 = dict(n_states=4, a_grid=201, prob_grid=20)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "channel, grid, budget, seeded_sizes, pruned_sizes",
    [(AmplitudeDamping(0.3), dict(SMALL, n_states=2), 1e8, {2}, set()),
     (PAIR, dict(SMALL, n_states=3), 1e8, {2, 3}, set()),
     (AmplitudeDamping(0.5), dict(MEDIUM, n_states=4), 1e6, {2, 3, 4}, set()),
     (PAIR, MEDIUM, 1e8, {2, 3}, set()),
     # An odd phase grid has no mirror pair, so size 2 has no seeds.
     (AmplitudeDamping(0.6), dict(COMPLEX, n_states=4), 1e8, {3, 4}, set()),
     # The seed block's own bounds skip seed elements that cannot reach its best:
     # slices of 1024 elements put the 199 mirror pairs through four slices.
     (AmplitudeDamping(0.5), CRITERION4, 1e9, {2, 3, 4}, {2})],
)
def test_floor_is_the_best_seed_score(monkeypatch, channel, grid, budget, seeded_sizes, pruned_sizes):
    # Mirror pairs seed size 2, the moved previous winner sizes 3 and 4. A pass
    # scores the seed rows whose states its state bounds keep against the best so
    # far, as a pruned block, yet the floor is the best of all their scores, bit
    # for bit.
    monkeypatch.setattr(qchan.oracle, "_SLICE_ELEMENTS", 1024)
    passes = []
    search_pass = qchan.oracle._search_pass

    def recording_pass(tables, state_ids, n, probs, comps, best, divergences, seeds, budget):
        result = search_pass(tables, state_ids, n, probs, comps, best, divergences, seeds, budget)
        ids = np.asarray(state_ids)
        with np.errstate(invalid="ignore"):
            bound = qchan.oracle._state_bounds([d[ids] for d in divergences], n, int(comps[0].sum()))
        kept = qchan.oracle._reaches(bound, best[0])[seeds].all(axis=1)
        passes.append((tables, ids, n, probs, seeds[kept], *result[2]))
        return result

    monkeypatch.setattr(qchan.oracle, "_search_pass", recording_pass)
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    search(channel, OracleConfig(**grid), budget)
    seeded, pruned = set(), set()
    for tables, ids, n, probs, seeds, seed_elements, floor in passes:
        if seeds.shape[0] == 0:
            assert (seed_elements, floor) == (0, -math.inf)
            continue
        seeded.add(n)
        assert seed_elements <= seeds.shape[0] * probs.shape[0]
        if seed_elements < seeds.shape[0] * probs.shape[0]:
            pruned.add(n)
        score = reference_scores(tables, ids[seeds], probs)
        assert floor.hex() == float(np.max(score[np.isfinite(score)])).hex()
    assert seeded == seeded_sizes
    assert pruned >= pruned_sizes


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "channel, grid, budget",
    [c for c in REFERENCE_CASES if not isinstance(c[0], MixedChannelPair)]
    + [(AmplitudeDamping(round(0.1 * k, 1)), CRITERION4, 1e9) for k in range(1, 10)],
)
def test_radius_centre_bounds_every_grid_ensemble(channel, grid, budget):
    # Any sigma bounds every grid ensemble, so the largest D at the centre is at
    # least the search's value; and no sigma0 on a fine grid has a smaller one.
    config = OracleConfig(**grid)
    a, b, _ = qchan.oracle._grid_states(config)
    u, _, s = qchan.oracle._channel_table(channel, a, b)
    centre = radius_centre(u, s)
    assert 0.0 <= centre <= 1.0
    radius = np.max(divergences_at(u, s, centre))
    value, _ = oracle_capacity(channel, config, budget)
    assert radius + 1e-12 >= value
    for x in np.linspace(1e-6, 1 - 1e-6, 1001):
        assert radius <= np.max(divergences_at(u, s, x)) + 1e-12


def fresh_centre(u, s):
    """The radius centre bisected on D built afresh from its formula, in its own
    np.errstate, at every halving."""
    def falling(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            divergences = -s - (u * np.log2(x) + (1.0 - u) * np.log2(1.0 - x))
        return u[np.argmax(divergences)] - x

    return bisect_sign_change(falling, 0.0, 1.0, 0.0)[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "grid", [CRITERION4, dict(a_grid=81, phase_grid=8, restrict_real_b=False), dict(a_grid=31)])
def test_radius_centre_bits_equal_the_fresh_bisection(grid):
    # The halvings share 1 - u, -s and one np.errstate, which moves no bit.
    a, b, _ = qchan.oracle._grid_states(OracleConfig(**grid))
    channels = [AmplitudeDamping(k / 100) for k in range(101)]
    channels += [Depolarizing(k / 20) for k in range(21)] + [KRAUS]
    for channel in channels:
        u, _, s = qchan.oracle._channel_table(channel, a, b)
        assert radius_centre(u, s).hex() == fresh_centre(u, s).hex()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "pair, depolarizing_saddle",
    [(separation_pair(), None),
     (MixedChannelPair(AmplitudeDamping(0.55), Depolarizing(0.27)), None),
     # Pairs whose sup-min is the depolarizing capacity: the saddle puts all the
     # weight on that channel, at its centre 1/2.
     (MixedChannelPair(AmplitudeDamping(0.4), Depolarizing(0.2)), (0.0, 1)),
     (MixedChannelPair(Depolarizing(0.2), AmplitudeDamping(0.4)), (1.0, 0))],
)
def test_saddle_table_bounds_every_grid_ensemble_and_is_tight(pair, depolarizing_saddle):
    # The weighted table bounds the sup-min for any t and sigma, so its largest D is
    # at least the search's value; at the saddle it is within 1e-6 bits of the
    # solver's sup-min, so no table can prune much more.
    config = OracleConfig(n_states=2, a_grid=201, prob_grid=20)
    _, tables = grid_tables(pair, config)
    a = qchan.oracle._grid_states(config)[0]
    t, sigma0 = saddle(divergence_pairs(tables), a)
    weighted, *centres = bound_tables(divergence_pairs(tables), a)[0]
    assert 0.0 <= t <= 1.0 and len(centres) == 2
    value, _ = oracle_minimax(pair, config, 1e9)
    assert value <= np.max(weighted) + 1e-12
    assert np.max(weighted) <= minimax_capacity(pair).capacity_bits + 1e-6
    if depolarizing_saddle is not None:
        weight, channel = depolarizing_saddle
        assert (t, sigma0[channel]) == (weight, 0.5)


def fresh_weight(first, second):
    """The saddle's weight by 40 explicit halvings of [0, 1]: the t of the final
    bracket, and the argmax at each end, which _weight takes from bisect_sign_change."""
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "pair, grid",
    # The pairs of the test above; the crossing pairs of perfbench's extra-0 to
    # extra-4 ops, on the criterion-8 grid; and degenerate pairs, whose tables hold
    # inf or NaN entries.
    [(p, dict(a_grid=201)) for p in (
        separation_pair(), MixedChannelPair(AmplitudeDamping(0.55), Depolarizing(0.27)),
        MixedChannelPair(AmplitudeDamping(0.4), Depolarizing(0.2)),
        MixedChannelPair(Depolarizing(0.2), AmplitudeDamping(0.4)),
        *[MixedChannelPair(AmplitudeDamping(g), Depolarizing(lam)) for g, lam in (
            (0.45490918633827765, 0.21883140315136312), (0.5648800905247165, 0.2811015727523756),
            (0.406280825502865, 0.18293367062543925), (0.4032131205786659, 0.17546362488164888),
            (0.43561919937666077, 0.19844669842177246))])]
    + [(MixedChannelPair(*p), dict(a_grid=11, prob_grid=4)) for p in (
        (AmplitudeDamping(0.0), Depolarizing(0.0)), (AmplitudeDamping(1.0), Depolarizing(1.0)),
        (AmplitudeDamping(1.0), AmplitudeDamping(0.0)))],
)
def test_saddle_bits_equal_the_fresh_halvings(monkeypatch, pair, grid):
    config = OracleConfig(**grid)
    _, tables = grid_tables(pair, config)
    a = qchan.oracle._grid_states(config)[0]
    t, sigma0 = saddle(divergence_pairs(tables), a)
    monkeypatch.setattr(qchan.divergence, "_weight", fresh_weight)
    fresh_t, fresh_sigma0 = saddle(divergence_pairs(tables), a)
    assert [x.hex() for x in (t, *sigma0)] == [x.hex() for x in (fresh_t, *fresh_sigma0)]


def loop_table(channel, a, b):
    """(u, v, s) one state at a time, through apply_channel and the float entropy."""
    u, v, s = np.empty(a.shape[0]), np.empty(a.shape[0], dtype=complex), np.empty(a.shape[0])
    for j in range(a.shape[0]):
        out = apply_channel(channel, QubitState(a[j], b[j]))
        u[j], v[j], s[j] = out.a, out.b, von_neumann_entropy(out.to_herm2())
    return u, v, s


def assert_table_equals_the_loop(channel, a, b):
    # Byte for byte, signed zeros included.
    for new, old in zip(qchan.oracle._channel_table(channel, a, b), loop_table(channel, a, b)):
        assert new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()


TABLE_GRIDS = [dict(a_grid=201), dict(a_grid=81, phase_grid=8, restrict_real_b=False), COMPLEX]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", TABLE_GRIDS)
def test_damping_and_depolarizing_tables_equal_the_loop(grid):
    # At the ends of the parameter range and at seeded points.
    a, b, _ = qchan.oracle._grid_states(OracleConfig(**grid))
    edges = [0.0, 1.0, 1e-300, 1e-16, 1 - 1e-16, 0.5, 0.24]
    for x in edges + np.random.default_rng(13).uniform(size=20).tolist():
        for channel in (AmplitudeDamping(x), Depolarizing(x)):
            assert_table_equals_the_loop(channel, a, b)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", TABLE_GRIDS)
def test_kraus_tables_equal_the_loop(grid):
    # The damping and depolarizing Kraus sets at the ends of their range and at seeded
    # points, and seeded complex families: one unitary, and three and four operators.
    a, b, _ = qchan.oracle._grid_states(OracleConfig(**grid))
    for x in [0.0, 1.0, 0.5, 0.24] + np.random.default_rng(17).uniform(size=6).tolist():
        for ops in (kraus_amplitude_damping(x), kraus_depolarizing(x)):
            assert_table_equals_the_loop(GeneralKraus(tuple(ops)), a, b)
    for seed, n_ops in [(1, 1), (2, 1), (3, 3), (4, 4)]:
        assert_table_equals_the_loop(random_kraus(seed, n_ops), a, b)


def loop_grid_states(config):
    """The grid states one a at a time, as _grid_states listed them before it took whole arrays."""
    if config.restrict_real_b:
        phases = (1.0 + 0j, -1.0 + 0j)
    else:
        phases = tuple(np.exp(2j * np.pi * k / config.phase_grid) for k in range(config.phase_grid))
    a_out, b_out, idx_out = [], [], []
    for i, a in enumerate(np.linspace(0.0, 1.0, config.a_grid)):
        mag = math.sqrt(max(a * (1.0 - a), 0.0))
        for phase in phases if mag > 0.0 else phases[:1]:
            a_out.append(a)
            b_out.append(mag * phase)
            idx_out.append(i)
    return np.array(a_out), np.array(b_out, dtype=complex), np.array(idx_out, dtype=np.int64)


@pytest.mark.parametrize(
    "grid", [dict(a_grid=201), dict(a_grid=201, phase_grid=5, restrict_real_b=False),
             dict(a_grid=201, phase_grid=8, restrict_real_b=False), dict(a_grid=2), dict(a_grid=3)])
def test_grid_states_equal_the_loop(grid):
    config = OracleConfig(**grid)
    for new, old in zip(qchan.oracle._grid_states(config), loop_grid_states(config)):
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_combinations_in_itertools_order(n):
    for m in range(13):
        rows = qchan.oracle._combinations(m, n)
        assert rows.dtype == np.int64
        assert rows.shape == (math.comb(m, n), n)
        assert [tuple(row) for row in rows.tolist()] == list(itertools.combinations(range(m), n))


def test_cached_arrays_are_read_only():
    # Every search that asks for a grid or a row set gets the same arrays.
    config = OracleConfig(**CRITERION4)
    assert qchan.oracle._grid_states(config)[0] is qchan.oracle._grid_states(config)[0]
    assert qchan.oracle._combinations(19, 2) is qchan.oracle._combinations(19, 2)
    (whole,) = qchan.oracle._row_blocks(6, 3, 20)  # all C(6, 3) = 20 rows fit one block
    assert whole is qchan.oracle._combinations(6, 3)
    for array in (*qchan.oracle._grid_states(config), qchan.oracle._combinations(19, 2), whole):
        with pytest.raises(ValueError):
            array[0] = array[-1]


def test_arrays_larger_than_a_block_are_not_kept(monkeypatch):
    # 45 rows of 2 and a 60-state grid fit 100 entries; 66 rows of 2 and a
    # 152-state grid do not, so each call builds them anew, read-only.
    monkeypatch.setattr(qchan.oracle, "_CHUNK_ELEMENTS", 100)
    for cached, small, large in ((qchan.oracle._combinations, (10, 2), (12, 2)),
                                 (qchan.oracle._grid_states, (OracleConfig(a_grid=31),),
                                  (OracleConfig(a_grid=77),))):
        cached.cache_clear()
        assert cached(*small) is cached(*small)
        assert cached.cache_info().currsize == 1
        first, again = (r if isinstance(r, tuple) else (r,) for r in (cached(*large), cached(*large)))
        assert cached.cache_info().currsize == 1
        for new, old in zip(first, again):
            assert new is not old and not new.flags.writeable
            assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("limit", [1, 2, 5, 10**6])
def test_row_blocks_list_each_row_once_in_order(limit):
    for m in range(13):
        for n in (1, 2, 3, 4):
            blocks = list(qchan.oracle._row_blocks(m, n, limit))
            assert all(block.dtype == np.int64 and block.shape[1] == n for block in blocks)
            assert all(0 < block.shape[0] <= limit for block in blocks)
            rows = [tuple(row) for block in blocks for row in block.tolist()]
            assert rows == list(itertools.combinations(range(m), n))


def state_and_row_bounds(divergences, m, n, prob_grid):
    """The bound of each member of every n-subset of range(m), one column per
    member, and the bound of every such row as a column, rows in itertools order."""
    rows = np.array(list(itertools.combinations(range(m), n)), dtype=np.int64)
    with np.errstate(invalid="ignore"):
        state = qchan.oracle._state_bounds(divergences, n, prob_grid)
        row = qchan.oracle._row_bounds(divergences, rows, prob_grid)
    return state[rows], row[:, None]


@pytest.mark.parametrize(
    "channel, grid",
    [(AmplitudeDamping(0.3), SMALL), (AmplitudeDamping(0.6), COMPLEX), (PAIR, SMALL),
     (PAIR, COMPLEX), (KRAUS, SMALL), (KRAUS, COMPLEX)],
)
def test_state_bound_is_above_every_row_bound_holding_it(channel, grid):
    # With no slack: a state's bound takes the same float steps as a row bound,
    # on the state's own D and, for the other members, on the table's largest D.
    config = OracleConfig(n_states=4, **grid)
    channels, tables = grid_tables(channel, config)
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    _, ensemble = search(channel, config)
    sigmas = [[sum(p * apply_channel(ch, state).a for p, state in ensemble) for ch in channels]]
    sigmas += np.random.default_rng(17).uniform(size=(4, len(channels))).tolist()
    table_sets = [[divergences_at(u, s, x) for (u, _, s, _), x in zip(tables, sigma)]
                  for sigma in sigmas]
    table_sets.append(bound_tables(divergence_pairs(tables), qchan.oracle._grid_states(config)[0])[0])
    m = tables[0][0].shape[0]
    for divergences in table_sets:
        for n in (1, 2, 3, 4):
            state, row = state_and_row_bounds(divergences, m, n, config.prob_grid)
            assert np.all(np.isfinite(state))
            assert np.all(row <= state)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "channel, grid, budget",
    [c for c in REFERENCE_CASES if c[0] in (AmplitudeDamping(0.0), AmplitudeDamping(1.0),
                                               Depolarizing(0.0), Depolarizing(1.0))],
)
def test_no_row_with_a_nan_or_inf_bound_loses_a_state(monkeypatch, channel, grid, budget):
    # Every pass of the search, with the divergence tables it used and with those
    # of sigma0 = 0 and sigma0 = 1 fed to it, which hold inf or NaN entries. A
    # state that can be dropped has a finite bound, so it must sit in no row whose
    # bound is NaN or inf; and a pass fed such tables finds the same best.
    passes = []
    search_pass = qchan.oracle._search_pass

    def recording_pass(tables, state_ids, n, probs, comps, best, divergences, seeds, budget):
        ids = np.asarray(state_ids)
        result = search_pass(tables, state_ids, n, probs, comps, best, divergences, seeds, budget)
        passes.append((ids, n, int(comps[0].sum()), divergences))
        for x in (0.0, 1.0):
            fed = [divergences_at(u, s, x) for u, _, s, _ in tables]
            assert search_pass(tables, state_ids, n, probs, comps, best, fed, seeds, budget)[0] == result[0]
            passes.append((ids, n, int(comps[0].sum()), fed))
        return result

    monkeypatch.setattr(qchan.oracle, "_search_pass", recording_pass)
    oracle_capacity(channel, OracleConfig(**grid), budget)
    if channel != Depolarizing(1.0):  # whose every output, and so sigma, is I / 2
        assert not all(np.isfinite(d).all() for *_, divergences in passes for d in divergences)
    for ids, n, prob_grid, divergences in passes:
        state, row = state_and_row_bounds([d[ids] for d in divergences], ids.shape[0], n, prob_grid)
        assert np.all(np.isnan(state) | (state == np.inf) | np.isfinite(row))
        assert np.all(np.isnan(state) | (row <= state))


@pytest.mark.filterwarnings("error")
def test_state_bound_is_nan_or_inf_over_a_row_bound_that_is():
    # One NaN or inf entry among finite ones, in one table of one or two, at
    # either end or inside: every state of a NaN or inf row stays unprunable.
    finite = np.random.default_rng(19).uniform(size=12)
    for bad in (np.nan, np.inf):
        for at in (0, 5, 11):
            table = finite.copy()
            table[at] = bad
            for divergences in ([table], [finite, table]):
                for n in (1, 2, 3, 4):
                    for prob_grid in (n, n + 3):
                        state, row = state_and_row_bounds(divergences, 12, n, prob_grid)
                        assert np.all(np.isnan(state) | (state == np.inf) | np.isfinite(row))
                        assert np.all(np.isnan(state) | (row <= state))


def test_pass_memory_does_not_grow_with_the_prefix_count(monkeypatch):
    # At n = 4 and prob_grid 4 a row has one composition, so a block holds at most
    # _CHUNK_ELEMENTS rows. The larger grid has 8.4x the prefixes (C(60, 3)
    # against C(30, 3)), 17.8x the rows and 2x the states. The pass starts just
    # below the best 3-state value, with that ensemble's sigma, so that about 0.5%
    # of the rows are scored and the others are pruned by their bounds.
    monkeypatch.setattr(qchan.oracle, "_CHUNK_ELEMENTS", 500)
    monkeypatch.setattr(qchan.oracle, "_SLICE_ELEMENTS", 2000)
    peaks = []
    for a_grid in (16, 31):
        config = OracleConfig(n_states=4, a_grid=a_grid, prob_grid=4)
        _, tables = grid_tables(AmplitudeDamping(0.5), config)
        value, ensemble = oracle_capacity(AmplitudeDamping(0.5), OracleConfig(**dict(vars(config), n_states=3)))
        sigma0 = sum(p * apply_channel(AmplitudeDamping(0.5), state).a for p, state in ensemble)
        divergences = [divergences_at(u, s, sigma0) for u, _, s, _ in tables]
        ids = np.arange(tables[0][0].shape[0])
        comps = qchan.oracle._compositions(4, 4)
        tracemalloc.start()
        try:
            _, (pruned, *_), _ = qchan.oracle._search_pass(
                tables, ids, 4, comps / 4, comps, (value - 0.01, None, None), divergences, no_seeds(4),
                math.inf)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert 0 < pruned < math.comb(ids.shape[0], 4)
    assert peaks[1] < 1.5 * peaks[0]


def test_pass_tables_grow_with_states_times_compositions(monkeypatch):
    # The n = 4 pass of criterion 4: all 400 grid states and P = C(19, 3) = 969
    # compositions. A pass tabulates one (m, P) table per part, for the last
    # position of its rows and only at the states its bounds keep, so its peak
    # stays below the 4 (n, m, P) tables of u, Re v, s and D that a table per
    # position of every state would take.
    calls = []
    search_pass = qchan.oracle._search_pass

    def pass_of_four(tables, state_ids, n, *args):
        if n == 4:
            calls.append((tables, state_ids, n, *args))
        return search_pass(tables, state_ids, n, *args)

    monkeypatch.setattr(qchan.oracle, "_search_pass", pass_of_four)
    oracle_capacity(AmplitudeDamping(0.5), OracleConfig(**CRITERION4), 1e9)
    (tables, state_ids, n, probs, *rest), = calls
    m, p_count = len(state_ids), probs.shape[0]
    assert (m, p_count) == (400, 969)
    tracemalloc.start()
    try:
        search_pass(tables, state_ids, n, probs, *rest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * m * p_count * 8


def test_passes_tabulate_only_the_states_their_bounds_keep(monkeypatch):
    # The n = 3 and 4 passes of criterion 4 start from the best so far, against
    # which the state bounds keep 4 of the 400 grid states: neither pass tabulates
    # any other state, not even for its seed rows.
    lengths, size = {}, [None]
    search_pass, pass_tables = qchan.oracle._search_pass, qchan.oracle._pass_tables

    def recording_pass(tables, state_ids, n, *args):
        size[0] = n
        return search_pass(tables, state_ids, n, *args)

    def recording_tables(columns, weights):
        lengths.setdefault(size[0], set()).update(column.shape[0] for column in columns)
        return pass_tables(columns, weights)

    monkeypatch.setattr(qchan.oracle, "_search_pass", recording_pass)
    monkeypatch.setattr(qchan.oracle, "_pass_tables", recording_tables)
    oracle_capacity(AmplitudeDamping(0.5), OracleConfig(**CRITERION4), 1e9)
    assert lengths[3] == lengths[4] == {4}


def logged_sizes(monkeypatch, caplog, channel, config, budget):
    """The logged (n, rows scored, rows pruned, elements scored, seed elements
    scored, floor) of a search; the rows each size's passes hold
    and their composition count; and the elements actually scored, seeds
    included, counted per size."""
    rows, columns, scored = {}, {}, {}
    search_pass, chi_into = qchan.oracle._search_pass, qchan.oracle._chi_into
    size = [None]  # the n of the pass running

    def counting_pass(tables, state_ids, n, probs, *args):
        rows[n] = rows.get(n, 0) + math.comb(len(state_ids), n)
        columns[n] = probs.shape[0]
        size[0] = n
        return search_pass(tables, state_ids, n, probs, *args)

    def counting_chi(products, weights, members, work, score):
        n = size[0]
        scored[n] = scored.get(n, 0) + score.size
        return chi_into(products, weights, members, work, score)

    with monkeypatch.context() as patch, caplog.at_level(logging.DEBUG, logger="qchan.oracle"):
        patch.setattr(qchan.oracle, "_search_pass", counting_pass)
        patch.setattr(qchan.oracle, "_chi_into", counting_chi)
        search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
        search(channel, config, budget)
    sizes = [r.args for r in caplog.records if r.msg.startswith("oracle size")]
    caplog.clear()
    return sizes, rows, columns, scored


def test_search_logs_scored_and_pruned_rows(monkeypatch, caplog):
    config = OracleConfig(n_states=3)
    full = logged_sizes(monkeypatch, caplog, AmplitudeDamping(0.5), config, 1e8)
    sizes = full[0]
    assert [n for n, *_ in sizes] == [1, 2, 3]
    # The default budget enumerates every 3-subset of the grid states in one pass.
    _, scored, pruned, *_ = sizes[-1]
    assert scored + pruned == math.comb(qchan.oracle._total_states(config), 3)
    assert pruned > 0
    # The criterion-4 shape, and the separation pair at the criterion-8 shape.
    criterion4 = logged_sizes(
        monkeypatch, caplog, AmplitudeDamping(0.5), OracleConfig(**CRITERION4), 1e9)
    criterion8 = logged_sizes(
        monkeypatch, caplog, separation_pair(), OracleConfig(**dict(CRITERION4, n_states=3)), 1e9)
    # An exhaustive n = 4 search, whose rows go through the pass in many blocks:
    # the rows of every block, pruned or scored, are counted.
    four = logged_sizes(
        monkeypatch, caplog, AmplitudeDamping(0.5), OracleConfig(**dict(MEDIUM, n_states=4)), 1e8)
    assert [n for n, *_ in four[0]] == [1, 2, 3, 4]
    assert four[0][-1][2] > 0
    for sizes, rows, columns, scored in (full, criterion4, criterion8, four):
        for n, rows_scored, rows_pruned, elements_scored, seeded, floor in sizes:
            # Sizes from 2 on seed their pass with a genuine score.
            assert (seeded > 0 and math.isfinite(floor)) == (n > 1)
            assert elements_scored + seeded == scored[n]
            assert elements_scored == rows_scored * columns[n]
            assert rows_scored + rows_pruned == rows[n]


def test_first_block_of_a_size_prunes_itself(caplog):
    # At n = 2 the default grid is a single block. The best score of its mirror-pair
    # seeds is the floor, and the state bounds held against it drop all but 4 of the
    # 100 states before any row is built; their rows count as pruned too.
    config = OracleConfig(n_states=2)
    states = qchan.oracle._total_states(config)
    assert math.comb(states, 2) * (config.prob_grid - 1) <= qchan.oracle._CHUNK_ELEMENTS
    with caplog.at_level(logging.DEBUG, logger="qchan.oracle"):
        oracle_capacity(AmplitudeDamping(0.5), config)
    sizes = {r.args[0]: r.args[1:] for r in caplog.records if r.msg.startswith("oracle size")}
    scored, pruned, *_ = sizes[2]
    assert scored + pruned == math.comb(100, 2) == math.comb(states, 2)
    assert pruned > 0
