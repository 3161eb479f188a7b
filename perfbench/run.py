"""qchan benchmark entry point.

    python3 perfbench/run.py --workload {solve,curve,certify} --seed N --seconds S --trace {0,1}

Run from the root of a qchan checkout. Pins the BLAS thread count for its
worker processes, measures set-up time in fresh processes, runs the workload
in a worker process (worker.py) and prints a readable report. The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("solve", "curve", "certify")
# Fixed so that another machine's default cannot shift the baseline; it must
# not exceed nproc, and 1 holds everywhere.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh set-up processes per run; the worker's own set-up is one more sample.
SETUP_PROBES = 9
# Every run must end within 180 s.
RUN_LIMIT_S = 170.0
REQUIRED = ("src/qchan/__init__.py", "tests/data/curve_ad_golden.csv")


def _git_sha(root: Path) -> str:
    """Commit of the checkout read from .git, or "unknown" outside a git clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(argv, env, deadline):
    """Run worker.py to completion and return its last stdout line as JSON."""
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker {argv} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _line(name, value, unit, note=""):
    print(f"{name:<28} {value:.6g} {unit}{'  (' + note + ')' if note else ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qchan benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
              "run it from the root of a qchan checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, **{name: str(BLAS_THREADS) for name in BLAS_ENV})
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            setups = [_worker(common + ["--setup-only"], env, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
        out = _worker(common, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    context = dict(out["context"], git_sha=_git_sha(ROOT), blas_pin=f"{BLAS_ENV[0]}={BLAS_THREADS}")
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    report = out["report"]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()}
    if args.trace:
        for name, m in metrics.items():
            _line(name, m["value"], m["unit"])
        print(f"traced {report['ops']} ops twice: untraced {report['untraced_s']:.4f} s, "
              f"traced {report['traced_s']:.4f} s; {report['spans']} spans written to "
              f"{report['spans_file']}")
    else:
        setups.append(out["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        _line("setup_s", metrics["setup_s"]["value"], "s", f"median of {len(setups)} fresh processes")
        timed = report["timed_ops"]
        _line("ops_per_ref", metrics["ops_per_ref"]["value"], "1/ref",
              f"{timed} ops; wall clock {report['ops_per_s']:.6g} ops/s")
        _line("latency_p50_ref", metrics["latency_p50_ref"]["value"], "ref",
              f"wall clock {report['latency_p50_ms']:.6g} ms")
        _line("reference kernel", report["reference_ms"], "ms", f"median of {report['references']}")
        if report["tail"] is None:
            print(f"{'latency_tail_ms':<28} omitted ({timed} samples; "
                  "a tail needs at least 20, ten beyond it)")
        else:
            value, percentile, beyond = report["tail"]
            _line("latency_tail_ms", 1e3 * value, "ms",
                  f"p{percentile:.2f}, {beyond} of {timed} samples beyond")
        for kind, latency in report["extra_ops"]:
            _line(f"once per run: {kind}", latency, "s", "checked, not in the timed metrics")
        _line("fail_frac", report["fail_frac"], "ratio", f"{out['failed']} of {out['attempted']} ops failed")
        _line("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB")
        if "certificate_gap_bits" in report:
            gap = report["certificate_gap_bits"]
            if gap is None:
                print(f"{'certificate_gap_bits':<28} omitted (no criterion-4 search completed)")
            else:
                _line("certificate_gap_bits", gap, "bits", "largest solver - oracle deficit")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
