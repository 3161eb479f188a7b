"""Tests of the benchmark's own arithmetic: tail rule, reference scaling, self time, ratio bases, seeds.

    python3 -m pytest perfbench -q
"""

import array
import itertools
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import qchan  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


# --- tail percentile -------------------------------------------------------

def test_tail_needs_twenty_samples():
    assert stats.tail(list(range(19))) is None
    assert stats.tail(list(range(20))) == (9, 50.0, 10)


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1000))
    value, percentile, beyond = stats.tail(values[::-1])
    assert (value, percentile, beyond) == (989, 99.0, 10)


def test_tail_skips_ties_at_the_cut():
    # Twelve equal maxima: none of them has ten samples strictly beyond it.
    values = list(range(100)) + [500] * 12
    value, percentile, beyond = stats.tail(values)
    assert value == 99 and beyond == 12
    assert percentile == pytest.approx(100.0 * 100 / 112)


def test_tail_with_ties_at_the_median():
    assert stats.tail([1.0] * 15 + [2.0] * 15) == (1.0, 50.0, 15)
    assert stats.tail([1.0] * 12 + [2.0] * 18) is None
    assert stats.tail([3.0] * 40) is None


def test_reference_scaled_uses_the_references_around_each_cycle():
    latencies = array.array("d", [2.0, 4.0, 6.0, 12.0])
    references = array.array("d", [1.0, 3.0, 1.0])     # around cycles: means 2 and 2
    assert stats.reference_scaled(latencies, references, 2) == pytest.approx([1.0, 2.0, 3.0, 6.0])
    assert stats.reference_scaled([3.0, 3.0], [1.0, 2.0, 4.0], 1) == pytest.approx([2.0, 1.0])


def test_reference_scaled_needs_whole_cycles_and_one_more_reference():
    with pytest.raises(ValueError):
        stats.reference_scaled([1.0, 1.0, 1.0], [1.0, 1.0], 2)
    with pytest.raises(ValueError):
        stats.reference_scaled([1.0, 1.0], [1.0], 2)


# --- self time ---------------------------------------------------------------

def span(name, start, end, parent=-1, op=0, work=0):
    return Span(name, start, end, parent, op, work)


def test_self_time_nested_children():
    spans = [
        span("root", 0.0, 10.0),
        span("child", 1.0, 6.0, parent=0),
        span("grandchild", 2.0, 5.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_back_to_back_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 3.0, 7.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 4.0])


def test_self_time_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 5.0, parent=0),
        span("b", 4.0, 6.0, parent=0),
        span("c", 9.0, 12.0, parent=0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


# --- ratio bases ---------------------------------------------------------------

def test_ratio_with_empty_base_is_zero():
    assert stats.ratio(5, 0) == 0.0
    assert stats.ratio(6, 3) == 2.0


def test_layer_ratios_use_their_bases():
    spans = [
        span(tracing.AD_SOLVE, 0.0, 1.0, work=30),                     # 0
        span(tracing.AD_DERIVATIVE, 0.1, 0.2, parent=0, work=1),      # 1
        span(tracing.AD_DERIVATIVE, 0.2, 0.3, parent=0, work=1),      # 2
        span(tracing.AD_DERIVATIVE, 0.3, 0.4, parent=0, work=1),      # 3
        span(tracing.AD_SOLVE, 1.0, 2.0, work=31),                     # 4
        span(tracing.AD_DERIVATIVE, 1.1, 1.2, parent=4, work=1),      # 5
        span(tracing.MINIMAX, 2.0, 3.0, op=1),                          # 6
        span(tracing.AD_CURVE, 2.1, 2.2, parent=6, op=1, work=1),     # 7
        span(tracing.DEP_CURVE, 2.2, 2.3, parent=6, op=1),             # 8
        span(tracing.AD_SOLVE, 2.3, 2.6, parent=6, op=1, work=33),    # 9
        span(tracing.AD_CURVE, 2.4, 2.5, parent=9, op=1, work=1),     # 10: inside the solver
        span(tracing.ORACLE, 3.0, 5.0, op=2),                           # 11
        span(tracing.ENTROPY, 3.0, 4.0, parent=11, op=2, work=600),    # 12
        span(tracing.VN_ENTROPY, 4.0, 4.5, parent=11, op=2),           # 13
        span(tracing.ENTROPY, 4.1, 4.2, parent=13, op=2, work=1),      # 14: table set-up
    ]
    oracle_ops = {0: None, 1: None, 2: (2, 1200)}
    m = {name: value for name, (value, unit) in tracing.layer_metrics(spans, oracle_ops).items()}
    assert m["capacity.derivative_calls_per_solve"] == pytest.approx(4 / 3)
    assert m["capacity.capacity_amplitude_damping.iterations"] == 94
    # Only curves the minimax itself evaluates, not those inside its solver call.
    assert m["mixtures.curve_calls_per_minimax"] == 2.0
    # Direct oracle elements per scored channel, against the plan.
    assert m["oracle.evals_done"] == 300
    assert m["oracle.evals_planned"] == 1200
    assert m["oracle.done_over_planned"] == pytest.approx(0.25)
    assert m["oracle.evals_per_s"] == pytest.approx(150.0)
    assert m["oracle.entropy_share"] == pytest.approx(1.1 / 2.0)
    assert m["oracle.self_s"] == pytest.approx(0.5)
    assert m["states.binary_entropy.elements"] == 601
    assert m["states.binary_entropy.ns_per_element"] == pytest.approx(1e9 * 1.1 / 601)


def test_layer_metrics_on_empty_trace_are_zero():
    metrics = tracing.layer_metrics([], {})
    assert all(value == 0 for value, _ in metrics.values())


# --- tracer bindings -------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_them():
    originals = (qchan.binary_entropy, qchan.capacity.binary_entropy, qchan.oracle.binary_entropy)
    tracer = tracing.Tracer()
    with tracer:
        assert qchan.capacity.binary_entropy is not originals[1]
        assert qchan.oracle.binary_entropy is qchan.states.binary_entropy
        tracer.op = 7
        qchan.capacity_amplitude_damping(0.5)
    assert (qchan.binary_entropy, qchan.capacity.binary_entropy,
            qchan.oracle.binary_entropy) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == tracing.AD_SOLVE
    assert names.count(tracing.ENTROPY) == 2        # from chi_ad_curve, inside the solver
    assert all(s.op == 7 for s in tracer.spans)
    assert all(s.parent == 0 for s in tracer.spans if s.name == tracing.AD_DERIVATIVE)
    assert tracer.spans[0].work == qchan.capacity_amplitude_damping(0.5).iterations


def test_reference_kernels_call_no_qchan_code_and_repeat(tmp_path):
    for name in sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name](HERE.parent, tmp_path)
        tracer = tracing.Tracer()
        with tracer:
            value = workload.reference()
        assert tracer.spans == []
        assert value == workloads.WORKLOADS[name](HERE.parent, tmp_path).reference()


# --- seeds -> inputs -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name](HERE.parent, tmp_path)
    first = list(itertools.islice(workload.ops(11), 200))
    again = list(itertools.islice(workload.ops(11), 200))
    other = list(itertools.islice(workload.ops(12), 200))
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_cycle_has_the_same_mix(name):
    workload = workloads.WORKLOADS[name](HERE.parent, None)
    ops = list(itertools.islice(workload.ops(3), 40 * workload.cycle))
    mixes = {
        tuple(sorted(op[0] for op in ops[i:i + workload.cycle]))
        for i in range(0, len(ops), workload.cycle)
    }
    assert len(mixes) == 1


def test_solve_mix_and_ranges():
    ops = list(itertools.islice(workloads.Solve(HERE.parent, None).ops(3), 1500))
    kinds = [op[0] for op in ops]
    assert (kinds.count("ad") + kinds.count("cli")) / len(ops) == 0.6
    assert kinds.count("cli") == len(ops) // 15
    assert sum("+" in k for k in kinds) / len(ops) == 0.2
    assert kinds[:15] != kinds[15:30]                    # the order within a cycle is seeded
    assert all(0.0 < x < 1.0 for op in ops for x in op[1:])


def test_certify_stream_spreads_gamma_and_extras_are_seeded():
    certify = workloads.Certify(HERE.parent, None)
    ops = list(itertools.islice(certify.ops(5), 4))
    assert [op[0] for op in ops] == ["ad"] * 4
    gammas = sorted(op[1] for op in ops)
    assert all(0.0 < g < 1.0 for g in gammas)
    gaps = [b - a for a, b in zip(gammas, gammas[1:])] + [1.0 - gammas[-1] + gammas[0]]
    assert max(gaps) < 0.39
    extras = certify.extra_ops(5)
    assert [op[0] for op in extras] == ["mixture", "complex"]
    assert extras == certify.extra_ops(5) != certify.extra_ops(6)
    assert all(math.isfinite(x) and 0.0 < x < 1.0 for op in extras for x in op[1:])
