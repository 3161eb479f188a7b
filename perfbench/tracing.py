"""Spans around calls into qchan's public functions, and per-layer metrics from them.

The library modules bind each other's functions with ``from .x import f``, so a
function is reachable under several module attributes (``qchan.states``,
``qchan.capacity``, ``qchan.oracle`` and the package itself all bind
``binary_entropy``). ``Tracer`` replaces the function under every binding it
finds and restores them all on exit. Spans live in memory while the workload
runs; self time and the per-layer metrics are computed afterwards.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict, namedtuple

import numpy as np

from stats import ratio

# ``work`` is the span's own count: array elements, solver iterations or bytes
# written, depending on the function; 0 where the function has none.
Span = namedtuple("Span", "name start end parent op work")

ENTROPY = "states.binary_entropy"
VN_ENTROPY = "states.von_neumann_entropy"
APPLY = "channels.apply_channel"
AD_SOLVE = "capacity.capacity_amplitude_damping"
AD_DERIVATIVE = "capacity.chi_ad_derivative"
AD_CURVE = "capacity.chi_ad_curve"
DEP_CURVE = "capacity.chi_dep_curve"
MINIMAX = "mixtures.minimax_capacity"
ORACLE = "oracle"
CLI = "cli.main"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _elements(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 0, "p")))


def _pair_elements(args, kwargs, result):
    return int(np.broadcast(_arg(args, kwargs, 0, "gamma"), _arg(args, kwargs, 1, "a")).size)


def _iterations(args, kwargs, result):
    return result.iterations


def _bytes_out(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    if not argv or "--out" not in argv:
        return 0
    path = argv[argv.index("--out") + 1]
    return os.path.getsize(path) if os.path.exists(path) else 0


# (module, function, span name, work counter)
TARGETS = (
    ("qchan.states", "binary_entropy", ENTROPY, _elements),
    ("qchan.states", "von_neumann_entropy", VN_ENTROPY, None),
    ("qchan.channels", "apply_channel", APPLY, None),
    ("qchan.capacity", "capacity_amplitude_damping", AD_SOLVE, _iterations),
    ("qchan.capacity", "chi_ad_derivative", AD_DERIVATIVE, _pair_elements),
    ("qchan.capacity", "chi_ad_curve", AD_CURVE, _pair_elements),
    ("qchan.capacity", "chi_dep_curve", DEP_CURVE, None),
    ("qchan.mixtures", "minimax_capacity", MINIMAX, None),
    ("qchan.oracle", "oracle_capacity", ORACLE, None),
    ("qchan.oracle", "oracle_minimax", ORACLE, None),
    ("qchan.cli", "main", CLI, _bytes_out),
)


class Tracer:
    """Context manager that records a span per call of every TARGETS function.

    Set ``op`` to the current operation's id before each operation; spans
    record it. Not thread-safe: the parent of a span is the innermost span
    open in the process.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._open = []
        self._patched = []

    def _wrap(self, name, fn, work):
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                open_spans.pop()
                spans[index] = Span(name, start, clock(), parent, self.op, 0)
                raise
            end = clock()
            open_spans.pop()
            count = work(args, kwargs, result) if work is not None else 0
            spans[index] = Span(name, start, end, parent, self.op, count)
            return result

        return traced

    def __enter__(self):
        import qchan.cli  # noqa: F401  (every qchan module must be loaded before searching)

        modules = [
            module for name, module in sorted(sys.modules.items())
            if name == "qchan" or name.startswith("qchan.")
        ]
        for module_name, attr, span_name, work in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(span_name, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._patched.append((module, key, original))
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        return False


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.end - span.start - _covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def _under(spans, span, name):
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def layer_metrics(spans, oracle_ops):
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``oracle_ops`` maps an op id to ``(scored_channels, planned_evaluations)``
    for every op that calls the oracle once. ``evals_done`` counts the array
    elements the oracle passes to ``binary_entropy`` directly, divided by the
    number of scored channels, so that it is comparable with the plan, which
    counts candidate ensembles.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    work = defaultdict(int)
    self_s = defaultdict(float)
    busy = defaultdict(float)
    for span, own_s in zip(spans, own):
        calls[span.name] += 1
        work[span.name] += span.work
        self_s[span.name] += own_s
        busy[span.name] += span.end - span.start

    curves_in_minimax = 0
    evals_done = 0.0
    entropy_in_oracle = 0.0
    for span in spans:
        parent = spans[span.parent].name if span.parent >= 0 else None
        if span.name in (AD_CURVE, DEP_CURVE) and parent == MINIMAX:
            curves_in_minimax += 1
        elif span.name == ENTROPY:
            if parent == ORACLE:
                evals_done += span.work / oracle_ops[span.op][0]
            if _under(spans, span, ORACLE):
                entropy_in_oracle += span.end - span.start
    evals_planned = sum(oracle_ops[span.op][1] for span in spans if span.name == ORACLE)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    put(f"{ENTROPY}.calls", calls[ENTROPY], "count")
    put(f"{ENTROPY}.elements", work[ENTROPY], "count")
    put(f"{ENTROPY}.self_s", self_s[ENTROPY], "s")
    put(f"{ENTROPY}.ns_per_element", 1e9 * ratio(self_s[ENTROPY], work[ENTROPY]), "ns")
    for name in (VN_ENTROPY, APPLY):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", self_s[name], "s")
    put(f"{AD_SOLVE}.calls", calls[AD_SOLVE], "count")
    put(f"{AD_SOLVE}.self_s", self_s[AD_SOLVE], "s")
    put(f"{AD_SOLVE}.iterations", work[AD_SOLVE], "count")
    for name in (AD_DERIVATIVE, AD_CURVE):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.elements", work[name], "count")
        put(f"{name}.self_s", self_s[name], "s")
    put(f"{DEP_CURVE}.calls", calls[DEP_CURVE], "count")
    put(f"{DEP_CURVE}.self_s", self_s[DEP_CURVE], "s")
    put("capacity.derivative_calls_per_solve", ratio(calls[AD_DERIVATIVE], calls[AD_SOLVE]), "ratio")
    put(f"{MINIMAX}.calls", calls[MINIMAX], "count")
    put(f"{MINIMAX}.self_s", self_s[MINIMAX], "s")
    put("mixtures.curve_calls_per_minimax", ratio(curves_in_minimax, calls[MINIMAX]), "ratio")
    put("oracle.calls", calls[ORACLE], "count")
    put("oracle.self_s", self_s[ORACLE], "s")
    put("oracle.evals_planned", evals_planned, "count")
    put("oracle.evals_done", evals_done, "count")
    put("oracle.done_over_planned", ratio(evals_done, evals_planned), "ratio")
    put("oracle.evals_per_s", ratio(evals_done, busy[ORACLE]), "1/s")
    put("oracle.entropy_share", ratio(entropy_in_oracle, busy[ORACLE]), "ratio")
    put(f"{CLI}.calls", calls[CLI], "count")
    put(f"{CLI}.self_s", self_s[CLI], "s")
    put(f"{CLI}.bytes_out", work[CLI], "B")
    return metrics


def write_spans(spans, path):
    """One CSV row per span; times are perf_counter seconds."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index,parent,op,name,start_s,end_s,work\n")
        for index, s in enumerate(spans):
            handle.write(f"{index},{s.parent},{s.op},{s.name},{s.start!r},{s.end!r},{s.work}\n")
