"""One benchmark run in a fresh process: set-up, the measured loop, checks, metrics.

run.py starts this script with the BLAS thread count pinned in the
environment. It prints one JSON object as its last line of stdout.

- ``--setup-only``: import qchan, make one warm-up call, report the time.
- ``--trace 0``: call the workload's ops one after another, timing its
  reference kernel once per cycle, until ``--seconds`` of timed work have
  passed, then its once-per-run extra ops; check every output outside the
  timed segments.
- ``--trace 1``: run a fixed, seed-determined list of ops twice, first
  untraced and then under ``tracing.Tracer``; report per-layer metrics and the
  tracing overhead (traced minus untraced wall time). Counts repeat exactly
  for a given seed and ``--seconds``.
"""

from __future__ import annotations

import argparse
import array
import ctypes
import itertools
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
# Limits of one timed segment between two rounds of checks (see _timed_run).
SEGMENT_S = 1.0
SEGMENT_OPS = 1000


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(libs.glob("lib*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in symbols:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def _context(seed):
    import numpy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


def _run_one(workload, op):
    """(result, latency_s, error); an op that raises is a failed op."""
    start = time.perf_counter()
    try:
        result = workload.run(op)
    except Exception:
        return None, time.perf_counter() - start, traceback.format_exc()
    return result, time.perf_counter() - start, None


def _check(workload, records):
    """Failure flag per (op, run record), with the messages printed to stderr."""
    failed = []
    for op, (result, _, error) in records:
        if error is None:
            try:
                messages = workload.check(op, result)
            except Exception:
                messages = [traceback.format_exc()]
        else:
            messages = [error]
        for message in messages:
            print(f"check failed: {op!r}: {message}", file=sys.stderr)
        failed.append(bool(messages))
    return failed


def _finish(workload):
    """Run-level checks; a failure there counts as one more failed op."""
    messages = workload.finish()
    for message in messages:
        print(f"check failed: {message}", file=sys.stderr)
    return 1 if messages else 0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _reference_s(workload):
    start = time.perf_counter()
    workload.reference()
    return time.perf_counter() - start


def _timed_run(workload, seed, seconds):
    """Whole cycles of ops in segments, until ``seconds`` of timed work.

    A segment ends at the first whole cycle after SEGMENT_S or SEGMENT_OPS.
    Each segment's outputs are checked, untimed, before the next segment
    starts, so the outputs held in memory do not grow with the op rate;
    only the latencies (8 bytes per op) are kept for the whole run.

    The reference kernel is timed before the first cycle and after every
    cycle. ``ops_per_ref`` and ``latency_p50_ref`` measure each op in
    units of the reference times around its cycle. On a host that shares
    its cores, speed can alternate between a fast and a slow state that each
    last from tens of milliseconds to minutes; the kernel slows with the
    ops, so the ratio holds where the wall-clock figures (printed beside it)
    do not.
    """
    stream = workload.ops(seed)
    latencies = array.array("d")
    workload.reference()  # warm-up
    references = array.array("d", [_reference_s(workload)])
    failed = 0
    busy = 0.0  # ops and reference kernels
    while busy < seconds:
        segment = []
        deadline = time.perf_counter() + SEGMENT_S
        while not segment or (len(segment) < SEGMENT_OPS and time.perf_counter() < deadline):
            started = time.perf_counter()
            segment += [(op, _run_one(workload, op)) for op in itertools.islice(stream, workload.cycle)]
            references.append(_reference_s(workload))
            busy += time.perf_counter() - started
        latencies.extend(latency for _, (_, latency, _) in segment)
        failed += sum(_check(workload, segment))
    extras = [(op, _run_one(workload, op)) for op in workload.extra_ops(seed)]
    peak_rss_mb = _peak_rss_mb()
    failed += sum(_check(workload, extras)) + _finish(workload)
    attempted = len(latencies) + len(extras)
    failed = min(failed, attempted)

    scaled = stats.reference_scaled(latencies, references, workload.cycle)
    metrics = {
        "ops_per_ref": (len(scaled) / math.fsum(scaled), "1/ref"),
        "latency_p50_ref": (stats.median(scaled), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "fail_frac": failed / attempted,
        "tail": stats.tail(latencies),
        "ops_per_s": len(latencies) / math.fsum(latencies),
        "latency_p50_ms": 1e3 * stats.median(latencies),
        "reference_ms": 1e3 * stats.median(references),
        "references": len(references),
        "timed_ops": len(latencies),
        "extra_ops": [(op[0], latency) for op, (_, latency, _) in extras],
    }
    if hasattr(workload, "certificate_gap"):
        report["certificate_gap_bits"] = workload.certificate_gap()
    return attempted, failed, metrics, report


def _traced_run(workload, seed, seconds):
    import tracing

    count = max(1, math.ceil(workload.trace_ops_per_second * seconds))
    ops = list(itertools.islice(workload.ops(seed), count)) + workload.extra_ops(seed)

    started = time.perf_counter()
    plain = [_run_one(workload, op) for op in ops]
    untraced_s = time.perf_counter() - started

    tracer = tracing.Tracer()
    traced = []
    started = time.perf_counter()
    with tracer:
        for index, op in enumerate(ops):
            tracer.op = index
            traced.append(_run_one(workload, op))
    traced_s = time.perf_counter() - started

    differ = [
        a[2] is None and b[2] is None and workload.fingerprint(a[0]) != workload.fingerprint(b[0])
        for a, b in zip(plain, traced)
    ]
    for op in itertools.compress(ops, differ):
        print(f"check failed: {op!r}: traced output differs from untraced", file=sys.stderr)
    flags = _check(workload, list(zip(ops, plain)) + list(zip(ops, traced)))
    failed = sum(flags[:len(ops)]) + sum(f or d for f, d in zip(flags[len(ops):], differ))
    failed = min(failed + _finish(workload), 2 * len(ops))

    oracle_ops = {index: workload.oracle_work(op) for index, op in enumerate(ops)}
    metrics = tracing.layer_metrics(tracer.spans, oracle_ops)
    gap = workload.certificate_gap() if hasattr(workload, "certificate_gap") else None
    metrics["oracle.certificate_gap_bits"] = (gap if gap is not None else 0.0, "bits")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_frac"] = (stats.ratio(traced_s - untraced_s, untraced_s), "ratio")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.csv"
    tracing.write_spans(tracer.spans, spans_path)
    report = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "ops": len(ops),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }
    return 2 * len(ops), failed, metrics, report


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qchan
    import workloads

    if not Path(qchan.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"qchan was imported from {qchan.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, scratch)
        workload.warm_up()
        setup_s = time.perf_counter() - started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = _traced_run if args.trace else _timed_run
        attempted, failed, metrics, report = run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "context": _context(args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
