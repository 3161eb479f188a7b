import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest

import qchan.oracle
from qchan import (
    AmplitudeDamping,
    BudgetExceededError,
    Depolarizing,
    DomainError,
    GeneralKraus,
    MixedChannelPair,
    OracleConfig,
    apply_channel,
    capacity_amplitude_damping,
    binary_entropy,
    capacity_depolarizing,
    holevo_chi,
    kraus_amplitude_damping,
    minimax_capacity,
    oracle_capacity,
    oracle_minimax,
    separation_pair,
    symmetrize,
)
from qchan.oracle import plan_search_size


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

    def test_plan_counts_subgrid_points_without_listing_them(self, monkeypatch):
        # An over-budget plan on a huge grid used to build one index list per stride.
        def no_lists(*args):
            raise AssertionError("planner built a subgrid index list")

        monkeypatch.setattr(qchan.oracle, "_subgrid_indices", no_lists)
        assert plan_search_size(OracleConfig(n_states=4, a_grid=10**7), 1) == 187791646


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
        # The gate runs first: on a large grid the per-state tables take seconds.
        def no_tables(*args):
            raise AssertionError("per-state tables built before the budget gate")

        monkeypatch.setattr(qchan.oracle, "_channel_table", no_tables)
        config = OracleConfig(n_states=4, a_grid=201, prob_grid=20)
        with pytest.raises(BudgetExceededError):
            oracle_capacity(AmplitudeDamping(0.5), config, budget=1e6)
        with pytest.raises(BudgetExceededError):
            oracle_minimax(separation_pair(), config, budget=1e6)

    def test_budget_counts_tabulated_states(self, monkeypatch):
        # The plan fits the budget, but the tables would hold 2e9 states per channel.
        def no_tables(*args):
            raise AssertionError("per-state tables built past the budget")

        monkeypatch.setattr(qchan.oracle, "_channel_table", no_tables)
        config = OracleConfig(a_grid=10**9)
        assert plan_search_size(config, 1e8) <= 1e8
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

    def test_zoom_matches_full_enumeration(self):
        channel = AmplitudeDamping(0.5)
        config = OracleConfig(n_states=2, a_grid=101, prob_grid=10)
        full_value, _ = oracle_capacity(channel, config, budget=1e8)
        # a tight budget forces the coarse-to-fine path on the same grid
        zoom_value, _ = oracle_capacity(channel, config, budget=3e5)
        assert zoom_value <= full_value + 1e-12
        assert zoom_value >= full_value - 1e-9


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


def reference_pass(tables, state_ids, n, probs, comps, best, divergences):
    """The search pass block by block, unpruned: it ignores ``divergences``."""
    ids = np.asarray(state_ids, dtype=np.int64)
    m = ids.shape[0]
    if m < n:
        return best, 0
    p_count = probs.shape[0]
    chunk = max(1, qchan.oracle._CHUNK_ELEMENTS // p_count)
    combo_iter = itertools.combinations(range(m), n)
    while block := list(itertools.islice(combo_iter, chunk)):
        members = ids[np.array(block, dtype=np.int64)]
        score = reference_scores(tables, members, probs)
        flat = int(np.argmax(score))
        value = float(score.flat[flat])
        if value > best[0]:
            row, col = divmod(flat, p_count)
            best = (value, tuple(int(x) for x in members[row]), tuple(int(k) for k in comps[col]))
    return best, 0


SMALL = dict(a_grid=9, prob_grid=5)
COMPLEX = dict(a_grid=7, prob_grid=4, phase_grid=5, restrict_real_b=False)
# Budgets below the full enumeration, so the search runs coarse-to-fine rounds.
ZOOM = dict(n_states=3, a_grid=31, prob_grid=5)
KRAUS = GeneralKraus(tuple(kraus_amplitude_damping(0.3)))
PAIR = MixedChannelPair(AmplitudeDamping(0.5), Depolarizing(0.24))
REFERENCE_CASES = [
    *[(AmplitudeDamping(0.3), dict(SMALL, n_states=k), 1e8) for k in (1, 2, 3, 4)],
    *[(AmplitudeDamping(0.6), dict(COMPLEX, n_states=k), 1e8) for k in (1, 2, 3)],
    (PAIR, dict(SMALL, n_states=3), 1e8),
    (PAIR, dict(COMPLEX, n_states=2), 1e8),
    (AmplitudeDamping(0.5), ZOOM, 1e5),
    (PAIR, ZOOM, 1e5),
    (AmplitudeDamping(0.5), dict(n_states=4, a_grid=31, prob_grid=5), 1e6),
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


# The small sizes put several blocks, several slices and a short last one
# through each pass, so the later blocks are pruned. For n >= 2 a slice of 7
# elements holds at most two rows, so the probe and every slice after it are
# short and a block's own scores prune its later rows.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chunk, slice_", [(None, None), (60, 25), (60, 7)])
@pytest.mark.parametrize("channel, grid, budget", REFERENCE_CASES)
def test_search_equals_unfused_reference(monkeypatch, channel, grid, budget, chunk, slice_):
    if chunk is not None:
        monkeypatch.setattr(qchan.oracle, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(qchan.oracle, "_SLICE_ELEMENTS", slice_)
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    config = OracleConfig(**grid)
    fused = search(channel, config, budget)
    monkeypatch.setattr(qchan.oracle, "_search_pass", reference_pass)
    assert fused == search(channel, config, budget)


# The exhaustive cases; the coarse-to-fine ones take seconds at a slice of 7
# elements and meet the reference at both partitions above.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("channel, grid, budget", [c for c in REFERENCE_CASES if c[2] == 1e8])
def test_search_does_not_depend_on_block_or_slice_size(monkeypatch, channel, grid, budget):
    # Every score depends on its own row only, so the partition cannot move a bit.
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    results = []
    for chunk, slice_ in ((10**6, 65536), (60, 7)):
        monkeypatch.setattr(qchan.oracle, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(qchan.oracle, "_SLICE_ELEMENTS", slice_)
        results.append(search(channel, OracleConfig(**grid), budget))
    assert results[0] == results[1]


def grid_tables(channel, config):
    """The search's channels and their (u, v, s, has_imag) tables on the config's grid."""
    channels = [channel.ch1, channel.ch2] if isinstance(channel, MixedChannelPair) else [channel]
    a, b, _ = qchan.oracle._grid_states(config)
    tables = []
    for ch in channels:
        u, v, s = qchan.oracle._channel_table(ch, a, b)
        tables.append((u, v, s, bool(np.any(v.imag != 0.0))))
    return channels, tables


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
        products = qchan.oracle._product_tables(tables, ids, probs.T)
        score, *work = np.empty((4, members.shape[0], probs.shape[0]))
        qchan.oracle._score_into(products, members, work, score)
        assert score.tobytes() == reference_scores(tables, members, probs).tobytes()


@pytest.mark.parametrize(
    "channel, grid",
    [(AmplitudeDamping(0.3), SMALL), (Depolarizing(0.4), SMALL), (KRAUS, COMPLEX), (PAIR, SMALL)],
)
def test_row_bound_is_above_every_score_in_its_row(channel, grid):
    # Every row of a full search, with sigma from the search and from seeded random diagonals.
    config = OracleConfig(n_states=3, **grid)
    channels, tables = grid_tables(channel, config)
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    _, ensemble = search(channel, config)
    sigmas = [[sum(p * apply_channel(ch, state).a for p, state in ensemble) for ch in channels]]
    sigmas += np.random.default_rng(5).uniform(size=(4, len(channels))).tolist()
    for n in (1, 2, 3):
        comps = qchan.oracle._compositions(config.prob_grid, n)
        members = np.array(list(itertools.combinations(range(tables[0][0].shape[0]), n)))
        best_in_row = reference_scores(tables, members, comps / config.prob_grid).max(axis=1)
        for sigma in sigmas:
            divergences = [
                qchan.oracle._divergences(u, s, x) for (u, _, s, _), x in zip(tables, sigma)
            ]
            bound = qchan.oracle._row_bounds(divergences, members, config.prob_grid)
            assert np.all(np.isfinite(bound))
            # Float error on either side is ~1e-15, far inside the pass's 1e-9 margin.
            assert np.all(best_in_row <= bound + 1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_combinations_in_itertools_order(n):
    for m in range(13):
        rows = qchan.oracle._combinations(m, n)
        assert rows.dtype == np.int64
        assert rows.shape == (math.comb(m, n), n)
        assert [tuple(row) for row in rows.tolist()] == list(itertools.combinations(range(m), n))


@pytest.mark.parametrize("limit", [1, 2, 5, 10**6])
def test_prefix_blocks_list_each_prefix_once_in_order(limit):
    for m in range(13):
        for n in (1, 2, 3, 4):
            blocks = list(qchan.oracle._prefix_blocks(m, n, limit))
            assert all(0 < block.shape[0] <= limit for block in blocks)
            prefixes = [tuple(row) for block in blocks for row in block.tolist()]
            assert prefixes == sorted({c[:-1] for c in itertools.combinations(range(m), n)})


def prefix_and_row_bounds(divergences, m, n, prob_grid):
    """The bound of every prefix of the n-subsets of range(m), repeated for each of
    its rows, and the bound of every row, rows in itertools order."""
    rows = np.array(list(itertools.combinations(range(m), n)), dtype=np.int64)
    if n == 1:
        prefixes, of_row = np.zeros((1, 0), dtype=np.int64), np.zeros(m, dtype=np.int64)
    else:
        prefixes, of_row = np.unique(rows[:, :-1], axis=0, return_inverse=True)
    with np.errstate(invalid="ignore"):
        suffix_max = qchan.oracle._suffix_max(divergences)
        prefix = qchan.oracle._prefix_bounds(divergences, suffix_max, prefixes, prob_grid)
        row = qchan.oracle._row_bounds(divergences, rows, prob_grid)
    return prefix[of_row.ravel()], row


@pytest.mark.parametrize(
    "channel, grid",
    [(AmplitudeDamping(0.3), SMALL), (AmplitudeDamping(0.6), COMPLEX), (PAIR, SMALL),
     (PAIR, COMPLEX), (KRAUS, SMALL), (KRAUS, COMPLEX)],
)
def test_prefix_bound_is_above_every_row_bound_under_it(channel, grid):
    # With no slack: the prefix bound takes the same float steps as a row bound on
    # inputs that are >= the row's, and every step rounds monotonically.
    config = OracleConfig(n_states=4, **grid)
    channels, tables = grid_tables(channel, config)
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    _, ensemble = search(channel, config)
    sigmas = [[sum(p * apply_channel(ch, state).a for p, state in ensemble) for ch in channels]]
    sigmas += np.random.default_rng(7).uniform(size=(4, len(channels))).tolist()
    m = tables[0][0].shape[0]
    for sigma in sigmas:
        divergences = [qchan.oracle._divergences(u, s, x) for (u, _, s, _), x in zip(tables, sigma)]
        for n in (1, 2, 3, 4):
            prefix, row = prefix_and_row_bounds(divergences, m, n, config.prob_grid)
            assert np.all(np.isfinite(prefix))
            assert np.all(row <= prefix)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "channel, grid, budget",
    [c for c in REFERENCE_CASES if c[0] in (AmplitudeDamping(0.0), AmplitudeDamping(1.0),
                                               Depolarizing(0.0), Depolarizing(1.0))],
)
def test_no_row_with_a_nan_or_inf_bound_sits_under_a_pruned_prefix(monkeypatch, channel, grid, budget):
    # Every pass of the search, with the divergence tables it used: where sigma0
    # is 0 or 1 they hold inf or NaN entries, and with n == prob_grid an inf
    # entry meets 0 * inf. A prefix that can be pruned has a finite bound, so it
    # must hold no row whose bound is NaN or inf.
    passes = []
    search_pass = qchan.oracle._search_pass

    def recording_pass(tables, state_ids, n, probs, comps, best, divergences):
        passes.append((np.asarray(state_ids), n, int(comps[0].sum()), divergences))
        return search_pass(tables, state_ids, n, probs, comps, best, divergences)

    monkeypatch.setattr(qchan.oracle, "_search_pass", recording_pass)
    oracle_capacity(channel, OracleConfig(**grid), budget)
    if channel != Depolarizing(1.0):  # whose every output, and so sigma, is I / 2
        assert not all(np.isfinite(d).all() for *_, divergences in passes for d in divergences)
    for ids, n, prob_grid, divergences in passes:
        prefix, row = prefix_and_row_bounds([d[ids] for d in divergences], ids.shape[0], n, prob_grid)
        assert np.all(np.isnan(prefix) | (prefix == np.inf) | np.isfinite(row))
        assert np.all(np.isnan(prefix) | (row <= prefix))


@pytest.mark.filterwarnings("error")
def test_prefix_bound_is_nan_or_inf_over_a_row_bound_that_is():
    # One NaN or inf entry among finite ones, in one table of one or two, at
    # either end or inside: every prefix over a NaN or inf row stays unprunable.
    finite = np.random.default_rng(3).uniform(size=12)
    for bad in (np.nan, np.inf):
        for at in (0, 5, 11):
            table = finite.copy()
            table[at] = bad
            for divergences in ([table], [finite, table]):
                for n in (1, 2, 3, 4):
                    for prob_grid in (n, n + 3):
                        prefix, row = prefix_and_row_bounds(divergences, 12, n, prob_grid)
                        assert np.all(np.isnan(prefix) | (prefix == np.inf) | np.isfinite(row))
                        assert np.all(np.isnan(prefix) | (row <= prefix))


def test_pass_memory_does_not_grow_with_the_prefix_count(monkeypatch):
    # At n = 4 and prob_grid 4 a row has one composition, so a block holds at most
    # _CHUNK_ELEMENTS rows and a prefix block as many prefixes. The larger grid has
    # 8.4x the prefixes (C(60, 3) against C(30, 3)) and 2x the states. The pass
    # starts just below the best 3-state value, with that ensemble's sigma, so
    # that about 0.5% of the rows are scored and whole prefixes are pruned.
    monkeypatch.setattr(qchan.oracle, "_CHUNK_ELEMENTS", 500)
    monkeypatch.setattr(qchan.oracle, "_SLICE_ELEMENTS", 2000)
    peaks = []
    for a_grid in (16, 31):
        config = OracleConfig(n_states=4, a_grid=a_grid, prob_grid=4)
        _, tables = grid_tables(AmplitudeDamping(0.5), config)
        value, ensemble = oracle_capacity(AmplitudeDamping(0.5), OracleConfig(**dict(vars(config), n_states=3)))
        sigma0 = sum(p * apply_channel(AmplitudeDamping(0.5), state).a for p, state in ensemble)
        divergences = [qchan.oracle._divergences(u, s, sigma0) for u, _, s, _ in tables]
        ids = np.arange(tables[0][0].shape[0])
        comps = qchan.oracle._compositions(4, 4)
        tracemalloc.start()
        try:
            _, pruned = qchan.oracle._search_pass(
                tables, ids, 4, comps / 4, comps, (value - 0.01, None, None), divergences)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert 0 < pruned < math.comb(ids.shape[0], 4)
    assert peaks[1] < 1.5 * peaks[0]


def logged_sizes(monkeypatch, caplog, channel, config, budget):
    """The logged (n, rows scored, rows pruned) of a search, with the rows each
    size's passes hold and the rows actually scored, counted per size."""
    rows, scored = {}, {}
    search_pass, score_into = qchan.oracle._search_pass, qchan.oracle._score_into

    def counting_pass(tables, state_ids, n, *args):
        rows[n] = rows.get(n, 0) + math.comb(len(state_ids), n)
        return search_pass(tables, state_ids, n, *args)

    def counting_score(products, members, *args):
        n = members.shape[1]
        scored[n] = scored.get(n, 0) + members.shape[0]
        return score_into(products, members, *args)

    with monkeypatch.context() as patch, caplog.at_level(logging.DEBUG, logger="qchan.oracle"):
        patch.setattr(qchan.oracle, "_search_pass", counting_pass)
        patch.setattr(qchan.oracle, "_score_into", counting_score)
        oracle_capacity(channel, config, budget)
    sizes = [r.args for r in caplog.records if r.msg.startswith("oracle size")]
    caplog.clear()
    return sizes, rows, scored


def test_search_logs_scored_and_pruned_rows(monkeypatch, caplog):
    config = OracleConfig(n_states=3)
    full = logged_sizes(monkeypatch, caplog, AmplitudeDamping(0.5), config, 1e8)
    sizes = full[0]
    assert [n for n, _, _ in sizes] == [1, 2, 3]
    # The default budget enumerates every 3-subset of the grid states in one pass.
    _, scored, pruned = sizes[-1]
    assert scored + pruned == math.comb(qchan.oracle._total_states(config), 3)
    assert pruned > 0
    # Coarse-to-fine rounds at n = 4, where whole prefixes are pruned before
    # their rows are built: rows pruned that way still count as pruned.
    zoom = logged_sizes(
        monkeypatch, caplog, AmplitudeDamping(0.5), OracleConfig(**dict(ZOOM, n_states=4)), 1e6)
    assert [n for n, _, _ in zoom[0]] == [1, 2, 3, 4]
    assert zoom[0][-1][2] > 0
    for sizes, rows, scored in (full, zoom):
        for n, scored_n, pruned in sizes:
            assert scored_n == scored[n]
            assert scored_n + pruned == rows[n]


def test_first_block_of_a_size_prunes_itself(caplog):
    # At n = 2 the default grid is a single block, which meets an incumbent of -inf:
    # the scores of its first rows are what prune the rest.
    config = OracleConfig(n_states=2)
    states = qchan.oracle._total_states(config)
    assert math.comb(states, 2) * (config.prob_grid - 1) <= qchan.oracle._CHUNK_ELEMENTS
    with caplog.at_level(logging.DEBUG, logger="qchan.oracle"):
        oracle_capacity(AmplitudeDamping(0.5), config)
    sizes = {r.args[0]: r.args[1:] for r in caplog.records if r.msg.startswith("oracle size")}
    scored, pruned = sizes[2]
    assert scored + pruned == math.comb(100, 2) == math.comb(states, 2)
    assert pruned > 0
