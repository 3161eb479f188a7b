import itertools
import json
import logging
import math
import tracemalloc
from pathlib import Path

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
    QubitState,
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
    von_neumann_entropy,
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


def reference_pass(tables, state_ids, n, probs, comps, best, divergences, seeds):
    """The search pass block by block, unpruned: it ignores ``divergences`` and ``seeds``."""
    ids = np.asarray(state_ids, dtype=np.int64)
    m = ids.shape[0]
    if m < n:
        return best, 0, (0, -math.inf)
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
    return best, 0, (0, -math.inf)


def no_seeds(n):
    """An empty seed set for a pass of size n: the pass has no floor."""
    return np.zeros((0, n), dtype=np.int64)


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


# Searches at the benchmark's shapes, beyond the reach of the unpruned reference:
# criterion 4 at three gammas, the separation pair at the criterion-8 shape and
# the complex-phase shape. Each ensemble row is (a index, phase index, weight
# numerator). The value is compared within 1e-12, not by its bits, which depend
# on the platform's log2.
GOLDEN = json.loads((Path(__file__).parent / "data" / "oracle_golden.json").read_text())


@pytest.mark.parametrize("shape", GOLDEN["shapes"], ids=lambda shape: shape["channel"])
def test_search_matches_golden_at_benchmark_shapes(shape):
    kinds = {"ad": AmplitudeDamping, "dep": Depolarizing}
    channels = [kinds[kind](float(x)) for kind, x in (c.split(":") for c in shape["channel"].split("+"))]
    config = OracleConfig(**shape["config"])
    if len(channels) == 2:
        value, ensemble = oracle_minimax(MixedChannelPair(*channels), config, GOLDEN["budget"])
    else:
        value, ensemble = oracle_capacity(channels[0], config, GOLDEN["budget"])
    a, b, a_index = qchan.oracle._grid_states(config)
    first = np.searchsorted(a_index, a_index)  # the first state at each state's a
    rows = []
    for p, state in ensemble:
        sid = int(np.flatnonzero((a == state.a) & (b == state.b))[0])
        rows.append([int(a_index[sid]), int(sid - first[sid]), round(p * config.prob_grid)])
    assert rows == shape["ensemble"]
    assert abs(value - shape["value"]) <= 1e-12


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
        qchan.oracle._chi_into(products, qchan.oracle._row_means(members, probs.T), work, score)
        reference = reference_scores(tables, members, probs)
        assert score.tobytes() == reference.tobytes()
        # A seeded third of the elements, each gathered on its own.
        live = np.flatnonzero(np.random.default_rng(n + 10).random(score.size) < 1 / 3)
        gathered, *work = np.empty((4, live.shape[0]))
        means = qchan.oracle._element_means(members, live, probs.T)
        qchan.oracle._chi_into(products, means, work, gathered)
        assert gathered.tobytes() == reference.ravel()[live].tobytes()


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


def element_bounds(divergences, members, probs):
    """The bound sum_k p_k D_k of every row of members x column of probs, the
    smallest over the tables, as the pass computes it."""
    bound_tables = qchan.oracle._pass_tables(divergences, probs.T)
    bound, scratch, other = np.empty((3, members.shape[0], probs.shape[0]))
    qchan.oracle._bound_into(bound_tables, qchan.oracle._row_means(members, probs.T), bound, scratch, other)
    return bound


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "channel, grid",
    [(AmplitudeDamping(0.3), SMALL), (AmplitudeDamping(0.6), COMPLEX), (PAIR, SMALL),
     (PAIR, COMPLEX), (KRAUS, SMALL), (KRAUS, COMPLEX)],
)
def test_element_bound_is_above_its_score(channel, grid):
    # Every (row, composition) of a full n = 1..4 search, with sigma the radius
    # centre, the search's own and four seeded random diagonals: chi(E) <= sum_k
    # p_k D(N psi_k || sigma) for any sigma, and float error on either side is
    # ~1e-15, far inside the pass's 1e-9 margin.
    config = OracleConfig(n_states=4, **grid)
    channels, tables = grid_tables(channel, config)
    search = oracle_minimax if isinstance(channel, MixedChannelPair) else oracle_capacity
    _, ensemble = search(channel, config)
    sigmas = [[qchan.oracle._radius_centre(u, s) for u, _, s, _ in tables]]
    sigmas += [[sum(p * apply_channel(ch, state).a for p, state in ensemble) for ch in channels]]
    sigmas += np.random.default_rng(11).uniform(size=(4, len(channels))).tolist()
    for n in (1, 2, 3, 4):
        probs = qchan.oracle._compositions(config.prob_grid, n) / config.prob_grid
        members = np.array(list(itertools.combinations(range(tables[0][0].shape[0]), n)))
        score = reference_scores(tables, members, probs)
        for sigma in sigmas:
            divergences = [
                qchan.oracle._divergences(u, s, x) for (u, _, s, _), x in zip(tables, sigma)
            ]
            bound = element_bounds(divergences, members, probs)
            assert np.all(np.isfinite(bound))
            assert np.all(score <= bound + 1e-12)


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
def test_pass_started_near_its_best_finds_it_among_gathered_elements(monkeypatch, channel, grid, nan_at_best):
    # A pass that starts just below its best bounds the elements of its first
    # slice and gathers those that survive, so its best is found there; on these
    # small grids the row bounds leave few rows, so the share is raised to make
    # every such slice gather. With sigma the best ensemble's own mean output,
    # that ensemble's bound is its score, within float error. A NaN D at one of
    # its states makes its bound NaN, and a NaN bound must keep its element.
    monkeypatch.setattr(qchan.oracle, "_GATHER_SHARE", 1.0)
    config = OracleConfig(n_states=3, **grid)
    _, tables = grid_tables(channel, config)
    ids = np.arange(tables[0][0].shape[0])
    gathers = []
    gather_into = qchan.oracle._gather_into
    monkeypatch.setattr(qchan.oracle, "_gather_into", lambda *args: gathers.append(1) or gather_into(*args))
    for n in (2, 3):
        comps = qchan.oracle._compositions(config.prob_grid, n)
        probs = comps / config.prob_grid
        best, *_ = reference_pass(tables, ids, n, probs, comps, (-math.inf, None, None), None, no_seeds(n))
        weights = np.array(best[2]) / config.prob_grid
        own = [float(weights @ u[list(best[1])]) for u, *_ in tables]
        centre = [qchan.oracle._radius_centre(u, s) for u, _, s, _ in tables]
        for sigma in (own, centre):
            divergences = [qchan.oracle._divergences(u, s, x) for (u, _, s, _), x in zip(tables, sigma)]
            if nan_at_best:
                for d in divergences:
                    d[best[1][-1]] = np.nan
            for below in (best[0] - 1e-2, best[0] - 1e-6, best[0] - 1e-12, np.nextafter(best[0], 0.0)):
                start = (float(below), None, None)
                assert qchan.oracle._search_pass(
                    tables, ids, n, probs, comps, start, divergences, no_seeds(n))[0] == best
    assert gathers


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "channel, pair", [(AmplitudeDamping(0.5), [3, 4]), (AmplitudeDamping(0.1), [5, 6]),
                      (Depolarizing(0.2), [3, 4])])
def test_element_whose_bound_rounds_below_its_score_is_scored(channel, pair):
    # An equal-weight mirror pair has a diagonal mean output. With sigma one ulp
    # off it, chi = sum_k p_k D_k to second order, and in floats these pairs'
    # bounds round 1-4 ulp below their scores. A pass started at exactly such a
    # score must still score the element: a candidate that ties the incumbent
    # wins over a later row that a probe slice scored first. Only the 1e-9
    # margin keeps it; without it the element is pruned.
    config = OracleConfig(n_states=2, a_grid=9, prob_grid=2)
    _, tables = grid_tables(channel, config)
    u, _, s, _ = tables[0]
    comps = qchan.oracle._compositions(config.prob_grid, 2)
    probs = comps / config.prob_grid
    members = np.array([pair])
    score = float(reference_scores(tables, members, probs)[0, 0])
    divergences = [qchan.oracle._divergences(u, s, np.nextafter(u[pair[0]], 1.0))]
    assert element_bounds(divergences, members, probs)[0, 0] < score
    _, counts, _ = qchan.oracle._search_pass(
        tables, pair, 2, probs, comps, (score, None, None), divergences, no_seeds(2))
    # No row pruned, one element scored, none pruned.
    assert counts.tolist() == [0, 1, 0]


def run_pass(tables, ids, n, prob_grid, divergences, seeds):
    """(best, seed elements scored, floor) of a pass from -inf over ``ids`` with ``seeds``."""
    comps = qchan.oracle._compositions(prob_grid, n)
    best, _, (seeded, floor) = qchan.oracle._search_pass(
        tables, ids, n, comps / prob_grid, comps, (-math.inf, None, None), divergences, seeds)
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
    divergences = [qchan.oracle._divergences(u, s, qchan.oracle._radius_centre(u, s))]
    p_count = config.prob_grid - 1
    best, *no_floor = run_pass(tables, ids, 2, config.prob_grid, divergences, no_seeds(2))
    assert no_floor == [0, -math.inf]

    # A mirror-twin tie: the twin of the best row, each coherence negated, scores
    # bit-identically and comes later. As the seed it sets the floor, not the winner.
    twin = sorted(int(np.flatnonzero((a_index == a_index[x]) & (b == -b[x]))[0]) for x in best[1])
    assert tuple(twin) > best[1]
    assert run_pass(tables, ids, 2, config.prob_grid, divergences, np.array([twin])) == (
        best, p_count, best[0])

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

    # A floor at a score whose element bound rounds below it (the mirror pair of
    # test_element_whose_bound_rounds_below_its_score_is_scored): only the 1e-9
    # margin keeps that element.
    pair_config = OracleConfig(n_states=2, a_grid=9, prob_grid=2)
    _, pair_tables = grid_tables(AmplitudeDamping(0.5), pair_config)
    pair_u, _, pair_s, _ = pair_tables[0]
    pair = np.array([3, 4])
    pair_divergences = [qchan.oracle._divergences(pair_u, pair_s, np.nextafter(pair_u[3], 1.0))]
    score = float(reference_scores(pair_tables, pair[None, :], np.array([[0.5, 0.5]]))[0, 0])
    assert element_bounds(pair_divergences, pair[None, :], np.array([[0.5, 0.5]]))[0, 0] < score
    assert run_pass(pair_tables, pair, 2, 2, pair_divergences, np.array([[0, 1]])) == (
        (score, (3, 4), (1, 1)), 1, score)


def test_seed_rows():
    for grid, pairs_per_a in ((dict(a_grid=9), 1),
                              (dict(a_grid=9, phase_grid=8, restrict_real_b=False), 4),
                              (dict(a_grid=9, phase_grid=5, restrict_real_b=False), 0)):
        config = OracleConfig(**grid)
        _, b, a_index = qchan.oracle._grid_states(config)
        all_ids = np.arange(b.shape[0])
        phase = all_ids - np.searchsorted(a_index, a_index)
        # A strided subgrid, with two points that carry a coherence.
        ids = all_ids[np.isin(a_index, [0, 3, 6, 8])]
        rows = qchan.oracle._seed_rows(ids, 2, None, a_index, phase, config.phase_grid)
        # Size 2: the mirror pairs of the subgrid's states, b and -b at one a.
        assert rows.shape == (2 * pairs_per_a, 2)
        first, second = ids[rows.T]
        assert np.all(a_index[first] == a_index[second])
        assert np.all(b[first] != 0.0)
        assert np.allclose(b[first], -b[second], rtol=0.0, atol=1e-15)
        if not config.restrict_real_b:
            continue
        # Size 3 from the previous size's best: each of its states moved to the
        # nearest unused subgrid state of its sign, the lower a on a tie, then
        # every other subgrid state added. The subgrid holds states 0, 5, 6, 11,
        # 12 and 15 (a = 0, 3/8 +-, 6/8 +-, 1).
        assert ids.tolist() == [0, 5, 6, 11, 12, 15]
        for winner, moved in (((5, 6), [1, 2]), ((7, 8), [1, 2]), ((5, 7), [1, 3]),
                              ((3, 15), [1, 5]), ((0, 1), [0, 1])):
            rows = qchan.oracle._seed_rows(ids, 3, winner, a_index, phase, config.phase_grid)
            others = [j for j in range(6) if j not in moved]
            assert rows.tolist() == [sorted(moved + [j]) for j in others]
        assert qchan.oracle._seed_rows(ids, 3, None, a_index, phase, 2).shape == (0, 3)
        assert qchan.oracle._seed_rows(ids[:2], 3, (5, 6), a_index, phase, 2).shape == (0, 3)


CRITERION4 = dict(n_states=4, a_grid=201, prob_grid=20)


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
    centre = qchan.oracle._radius_centre(u, s)
    assert 0.0 <= centre <= 1.0
    radius = np.max(qchan.oracle._divergences(u, s, centre))
    value, _ = oracle_capacity(channel, config, budget)
    assert radius + 1e-12 >= value
    for x in np.linspace(1e-6, 1 - 1e-6, 1001):
        assert radius <= np.max(qchan.oracle._divergences(u, s, x)) + 1e-12


def loop_table(channel, a, b):
    """(u, v, s) one state at a time, as _channel_table still takes a GeneralKraus channel."""
    u, v, s = np.empty(a.shape[0]), np.empty(a.shape[0], dtype=complex), np.empty(a.shape[0])
    for j in range(a.shape[0]):
        out = apply_channel(channel, QubitState(a[j], b[j]))
        u[j], v[j], s[j] = out.a, out.b, von_neumann_entropy(out.to_herm2())
    return u, v, s


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "grid", [dict(a_grid=201), dict(a_grid=81, phase_grid=8, restrict_real_b=False), COMPLEX])
def test_damping_and_depolarizing_tables_equal_the_loop(grid):
    # Byte for byte, signed zeros included, at the ends of the parameter range and
    # at seeded points.
    a, b, _ = qchan.oracle._grid_states(OracleConfig(**grid))
    edges = [0.0, 1.0, 1e-300, 1e-16, 1 - 1e-16, 0.5, 0.24]
    for x in edges + np.random.default_rng(13).uniform(size=20).tolist():
        for channel in (AmplitudeDamping(x), Depolarizing(x)):
            table = qchan.oracle._channel_table(channel, a, b)
            for new, old in zip(table, loop_table(channel, a, b)):
                assert new.dtype == old.dtype
                assert new.tobytes() == old.tobytes()


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
    # Every pass of the search, with the divergence tables it used and with those
    # of sigma0 = 0 and sigma0 = 1 fed to it: where sigma0 is 0 or 1 they hold inf
    # or NaN entries, and with n == prob_grid an inf entry meets 0 * inf. The
    # centre sigma of sizes 1 and 2 lies inside (0, 1), so only gamma = 1 still
    # meets such a table of its own. A prefix that can be pruned has a finite
    # bound, so it must hold no row whose bound is NaN or inf; and a pass fed
    # such tables finds the same best.
    passes = []
    search_pass = qchan.oracle._search_pass

    def recording_pass(tables, state_ids, n, probs, comps, best, divergences, seeds):
        ids = np.asarray(state_ids)
        result = search_pass(tables, state_ids, n, probs, comps, best, divergences, seeds)
        passes.append((ids, n, int(comps[0].sum()), divergences))
        for x in (0.0, 1.0):
            fed = [qchan.oracle._divergences(u, s, x) for u, _, s, _ in tables]
            assert search_pass(tables, state_ids, n, probs, comps, best, fed, seeds)[0] == result[0]
            passes.append((ids, n, int(comps[0].sum()), fed))
        return result

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
            _, (pruned, *_), _ = qchan.oracle._search_pass(
                tables, ids, 4, comps / 4, comps, (value - 0.01, None, None), divergences, no_seeds(4))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert 0 < pruned < math.comb(ids.shape[0], 4)
    assert peaks[1] < 1.5 * peaks[0]


def test_pass_tables_grow_with_states_times_compositions(monkeypatch):
    # The first n = 4 round of criterion 4: 40 states (stride 10 of 201 points)
    # and P = C(19, 3) = 969 compositions. A pass tabulates one (m, P) table per
    # part, for the last position of its rows, so its peak stays below the 4 (n,
    # m, P) tables of u, Re v, s and D that a table per position would take.
    calls = []
    search_pass = qchan.oracle._search_pass

    def first_pass_of_four(tables, state_ids, n, *args):
        if n == 4 and not calls:
            calls.append((tables, state_ids, n, *args))
        return search_pass(tables, state_ids, n, *args)

    monkeypatch.setattr(qchan.oracle, "_search_pass", first_pass_of_four)
    oracle_capacity(AmplitudeDamping(0.5), OracleConfig(**CRITERION4), 1e9)
    (tables, state_ids, n, probs, *rest), = calls
    m, p_count = len(state_ids), probs.shape[0]
    assert (m, p_count) == (40, 969)
    tracemalloc.start()
    try:
        search_pass(tables, state_ids, n, probs, *rest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * m * p_count * 8


def logged_sizes(monkeypatch, caplog, channel, config, budget):
    """The logged (n, rows scored, rows pruned, elements scored, elements pruned,
    seed elements scored, floor) of a search; the rows each size's passes hold
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

    def counting_chi(products, mean_into, work, score):
        n = size[0]
        scored[n] = scored.get(n, 0) + score.size
        return chi_into(products, mean_into, work, score)

    with monkeypatch.context() as patch, caplog.at_level(logging.DEBUG, logger="qchan.oracle"):
        patch.setattr(qchan.oracle, "_search_pass", counting_pass)
        patch.setattr(qchan.oracle, "_chi_into", counting_chi)
        oracle_capacity(channel, config, budget)
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
    # There the seed floor prunes every row before an element bound runs; at the
    # criterion-4 shape the n = 3 element bounds still prune under the floor.
    criterion4 = logged_sizes(
        monkeypatch, caplog, AmplitudeDamping(0.5), OracleConfig(**CRITERION4), 1e9)
    assert criterion4[0][2][4] > 0
    # Coarse-to-fine rounds at n = 4, where whole prefixes are pruned before
    # their rows are built: rows pruned that way still count as pruned.
    zoom = logged_sizes(
        monkeypatch, caplog, AmplitudeDamping(0.5), OracleConfig(**dict(ZOOM, n_states=4)), 1e6)
    assert [n for n, *_ in zoom[0]] == [1, 2, 3, 4]
    assert zoom[0][-1][2] > 0
    for sizes, rows, columns, scored in (full, criterion4, zoom):
        for n, rows_scored, rows_pruned, elements_scored, elements_pruned, seeded, floor in sizes:
            # Sizes from 2 on seed their first pass with a genuine score.
            assert (seeded > 0 and math.isfinite(floor)) == (n > 1)
            assert elements_scored + seeded == scored[n]
            assert elements_scored + elements_pruned == rows_scored * columns[n]
            assert rows_scored + rows_pruned == rows[n]


def test_first_block_of_a_size_prunes_itself(caplog):
    # At n = 2 the default grid is a single block, which meets an incumbent of -inf:
    # the scores of its first rows are what prune the rest.
    config = OracleConfig(n_states=2)
    states = qchan.oracle._total_states(config)
    assert math.comb(states, 2) * (config.prob_grid - 1) <= qchan.oracle._CHUNK_ELEMENTS
    with caplog.at_level(logging.DEBUG, logger="qchan.oracle"):
        oracle_capacity(AmplitudeDamping(0.5), config)
    sizes = {r.args[0]: r.args[1:] for r in caplog.records if r.msg.startswith("oracle size")}
    scored, pruned, *_ = sizes[2]
    assert scored + pruned == math.comb(100, 2) == math.comb(states, 2)
    assert pruned > 0
