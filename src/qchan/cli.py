"""Command-line surface emitting capacities, curves, and figure datasets.

stdout carries machine-parseable JSON or CSV only; diagnostics go to stderr.
Floats in CSV are printed with 17 significant digits so files round-trip and
stay byte-stable across runs. Every JSON report goes through ``_report``: it
carries a schema_version and, on stdout only, the wall-clock time up to the
write, so that identical runs produce byte-identical files.

``certify`` and ``minimax --certify`` share one oracle step (``_oracle_step``),
which searches, records the oracle inputs and returns the certification fields.
A command returns those fields, or None, and ``main`` gates on them once its
report is written: a solver-oracle difference above the bound exits 6.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import re
import sys
import time

import numpy as np

from .capacity import (
    FAMILIES,
    capacity_amplitude_damping,
    channel_capacity,
    check_tol,
    chi_ad_curve,
    chi_dep_curve,
    family_of,
)
from .channels import AmplitudeDamping, Depolarizing, MixedChannelPair, apply_channel
from .errors import (
    BudgetExceededError,
    CertificationError,
    DomainError,
    SolverError,
)
from .mixtures import crossings, minimax_capacity
from .oracle import (DEFAULT_BUDGET, OracleConfig, oracle_capacity, oracle_minimax,
                     plan_search_size)
from .states import QubitState, pure_state

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_BUDGET = 5
EXIT_CERTIFY = 6

# Most grid intervals (curve, chi-curves) or points (ellipse) one command accepts;
# every row is held in memory before it is written.
MAX_ROWS = 10**6

# The oracle flags' dests: OracleConfig's grid fields, the budget and the bound.
ORACLE_GRID_FLAGS = ("n_states", "a_grid", "phase_grid", "prob_grid")
ORACLE_FLAGS = ORACLE_GRID_FLAGS + ("budget", "bound")


def _load_config_file(path: str) -> dict:
    """Parse simple ``key = value`` lines; '#' starts a comment.

    Values stay text, unquoted; the setting that reads a value converts it.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"config file {path} is not UTF-8: {exc}") from None
    except OSError as exc:
        # Exit 4 is kept for an unwritable --out path; a bad --config is a usage error.
        raise DomainError(f"config file {path} cannot be read: {exc.strerror}") from None
    settings = {}
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line is not 'key = value': {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        settings[key.strip()] = value.strip().strip('"').strip("'")
    return settings


def _resolve_settings(args) -> None:
    """Check the whole config file, whatever the command, then resolve each setting
    the command declares (``args`` has an attribute for exactly those): flag >
    config file > default. Format stays None where the command's default applies.
    """
    args.started = time.perf_counter()
    path = args.config
    if path is None and os.path.exists("qchan.toml"):
        path = "qchan.toml"
    config = _load_config_file(path) if path else {}
    for key in config:
        if key not in ("tol", "format"):
            raise DomainError(f"unknown config key {key!r}; the keys are tol, format")
    if "tol" in config:
        try:
            tol = float(config["tol"])
        except ValueError:
            raise DomainError(f"tol must be a number, got {config['tol']!r}") from None
        config["tol"] = check_tol(tol)
    if config.get("format", "csv") not in ("csv", "json"):
        raise DomainError(f"format must be csv or json, got {config['format']!r}")
    if "tol" in vars(args):
        args.tol = check_tol(config.get("tol", 1e-10) if args.tol is None else args.tol)
    if "format" in vars(args):
        args.format = args.format or config.get("format")


def _write(out, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(out, header, rows):
    """Write tuple rows as CSV: strings as they are, numbers in %.17g form.

    Rows of one shape (the types of their cells) share one %-template.
    """
    templates = {}
    lines = [",".join(header)]
    for row in rows:
        shape = tuple(map(type, row))
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = ",".join(
                "%s" if issubclass(kind, str) else "%.17g" for kind in shape
            )
        lines.append(template % row)
    _write(out, "\n".join(lines) + "\n")


def _report(args, inputs: dict, **sections) -> None:
    """Write a JSON report: schema version, command, inputs, then ``sections`` in order.

    On stdout the report also carries ``wall_time_s``, taken here, after every step
    of the command; a file leaves it out, so that identical runs write identical bytes.
    """
    report = {"schema_version": SCHEMA_VERSION, "command": args.command, "inputs": inputs}
    if not args.out:
        report["wall_time_s"] = time.perf_counter() - args.started
    report.update(sections)
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        # JSON has no NaN or infinity, so a non-finite result cannot be reported.
        raise DomainError(f"report holds a non-finite number: {exc}") from None
    _write(args.out, text)


def _emit_rows(args, header, rows, inputs) -> None:
    """Write curve-style output as CSV (default) or a JSON report."""
    if args.format == "json":
        _report(args, inputs, rows=[dict(zip(header, row)) for row in rows])
    else:
        _write_csv(args.out, header, rows)


def _parse_channel(args):
    """Channel from --channel and its parameter flag, whose dest is ``Family.attr``."""
    family = FAMILIES[args.channel]
    for other in FAMILIES.values():
        if other is not family and getattr(args, other.attr) is not None:
            raise DomainError(f"--channel {family.kind} does not read --{other.param}")
    param = getattr(args, family.attr)
    if param is None:
        raise DomainError(f"--channel {family.kind} requires --{family.param}")
    return family.channel(param)


def _parse_channel_spec(text: str):
    """Compact channel spec: 'ad:<gamma>' or 'dep:<lambda>'."""
    kind, sep, value = text.partition(":")
    if not sep:
        raise DomainError(f"channel spec must look like 'ad:0.5' or 'dep:0.3', got {text!r}")
    try:
        param = float(value)
    except ValueError as exc:
        raise DomainError(f"bad channel parameter in {text!r}") from exc
    if kind not in FAMILIES:
        raise DomainError(f"unknown channel kind {kind!r} in {text!r}")
    return FAMILIES[kind].channel(param)


def _channel_inputs(channel) -> dict:
    family = family_of(channel)
    return {"channel": family.kind, family.param: family.parameter(channel)}


def _grid(start: float, end: float, step: float):
    """Inclusive grid hitting both endpoints exactly."""
    if not (0.0 <= start < end <= 1.0):
        raise DomainError(f"need 0 <= start < end <= 1, got [{start}, {end}]")
    if not step > 0.0:
        raise DomainError(f"step must be positive, got {step}")
    intervals = (end - start) / step
    if intervals >= MAX_ROWS + 0.5:  # round(intervals) > MAX_ROWS; also catches inf
        raise DomainError(f"step {step} makes more than {MAX_ROWS} intervals in [{start}, {end}]")
    count = int(round(intervals))
    if count < 1:
        raise DomainError(f"step {step} does not fit in [{start}, {end}]")
    return [start + (end - start) * i / count for i in range(count + 1)]


def _oracle_config(args) -> OracleConfig:
    """Check the oracle flags before any solve, resolving --budget and --bound on ``args``.
    Grid flags left out take OracleConfig's defaults; a phase grid of 2 is the real signs."""
    for name, default in (("budget", DEFAULT_BUDGET), ("bound", 2e-4)):
        if getattr(args, name) is None:
            setattr(args, name, default)
    # The report records the budget, and JSON has no NaN or infinity.
    if not math.isfinite(args.budget):
        raise DomainError(f"--budget must be finite, got {args.budget}")
    # A NaN bound would pass every difference and a negative one would fail every one.
    if not (math.isfinite(args.bound) and args.bound >= 0.0):
        raise DomainError(f"certification bound must be finite and >= 0, got {args.bound}")
    grid = {name: getattr(args, name) for name in ORACLE_GRID_FLAGS
            if getattr(args, name) is not None}
    return OracleConfig(**grid,
                        restrict_real_b=grid.get("phase_grid", OracleConfig.phase_grid) == 2)


def _oracle_step(args, config: OracleConfig, inputs: dict, solver_bits: float, search, target):
    """Search ``target`` with the oracle, record the search in ``inputs`` and return the
    certification fields, with the oracle's argmax ensemble."""
    oracle_bits, ensemble = search(target, config, args.budget)
    inputs["oracle"] = {**dataclasses.asdict(config), "budget": args.budget}
    certification = {
        "oracle_capacity_bits": oracle_bits,
        "difference": solver_bits - oracle_bits,
        "bound": args.bound,
        "search_size": plan_search_size(config, args.budget),
    }
    return certification, ensemble


def cmd_capacity(args) -> None:
    channel = _parse_channel(args)
    result = channel_capacity(channel, args.tol)
    outputs = {
        "capacity_bits": result.capacity_bits,
        "a_max": result.a_max,
        "residual": result.residual,
        "iterations": result.iterations,
        "method": result.method,
    }
    if args.format == "csv":
        _write_csv(args.out, list(outputs), [tuple(outputs.values())])
    else:
        _report(args, {**_channel_inputs(channel), "tol": args.tol},
                outputs=outputs, tolerances={"tol": args.tol})


def cmd_curve(args) -> None:
    params = _grid(args.start, args.end, args.step)
    family = FAMILIES[args.family]
    rows = []
    for param in params:
        result = family.capacity(param, args.tol)
        rows.append((param, result.capacity_bits, result.a_max))
    _emit_rows(args, ["param", "capacity_bits", "a_max"], rows, {
        "family": args.family, "start": args.start, "end": args.end,
        "step": args.step, "tol": args.tol,
    })


def cmd_chi_curves(args) -> None:
    gamma, lam = args.gamma, args.lam
    grid = _grid(0.0, 1.0, args.a_step)
    arr = np.array(grid)
    ad_vals = chi_ad_curve(gamma, arr)
    dep_vals = chi_dep_curve(lam, arr)
    # the array calls above have checked gamma and lambda for the float kernels
    chi_ad, chi_dep = FAMILIES["ad"].curve(gamma), FAMILIES["dep"].curve(lam)

    def diff(a):
        return chi_ad(a) - chi_dep(a)

    rows = [
        (grid[i], float(ad_vals[i]), float(dep_vals[i]),
         float(min(ad_vals[i], dep_vals[i])), "0")
        for i in range(len(grid))
    ]
    d = ad_vals - dep_vals
    for i, a_c in crossings(diff, grid, d, 1e-12):
        if d[i] == 0.0:
            rows[i] = rows[i][:4] + ("1",)
        else:
            chi_a, chi_d = chi_ad(a_c), chi_dep(a_c)
            rows.append((a_c, chi_a, chi_d, min(chi_a, chi_d), "1"))
    rows.sort(key=lambda r: r[0])
    _emit_rows(args, ["a", "chi_ad", "chi_dep", "min_chi", "crossing"], rows,
               {"gamma": gamma, "lambda": lam, "a_step": args.a_step})


def cmd_ellipse(args) -> None:
    gamma = args.gamma
    if not 3 <= args.n_points <= MAX_ROWS:
        raise DomainError(f"--n-points must lie in [3, {MAX_ROWS}], got {args.n_points}")
    channel = AmplitudeDamping(gamma)

    def row(state, optimal):
        image = apply_channel(channel, state)
        return (state.a, state.b.real, image.a, image.b.real, optimal)

    rows = []
    for k in range(args.n_points):
        theta = 2.0 * math.pi * k / args.n_points
        rows.append(row(QubitState(0.5 * (1.0 + math.cos(theta)), 0.5 * math.sin(theta)), "0"))
    best = capacity_amplitude_damping(gamma, args.tol)
    for sign in (1.0, -1.0):
        rows.append(row(pure_state(best.a_max, sign), "1"))
    _emit_rows(args, ["a_in", "b_in", "a_out", "b_out", "optimal"], rows,
               {"gamma": gamma, "n_points": args.n_points, "tol": args.tol})


def _minimax_pair(args) -> MixedChannelPair:
    if args.ch1 is not None or args.ch2 is not None:
        if args.ch1 is None or args.ch2 is None:
            raise DomainError("--ch1 and --ch2 must be given together")
        for flag, value in (("--gamma", args.gamma), ("--lambda", args.lam)):
            if value is not None:
                raise DomainError(f"{flag} is not read with --ch1 and --ch2")
        return MixedChannelPair(
            _parse_channel_spec(args.ch1), _parse_channel_spec(args.ch2), args.weight1
        )
    if args.gamma is None or args.lam is None:
        raise DomainError("minimax requires --gamma and --lambda (or --ch1/--ch2)")
    return MixedChannelPair(
        AmplitudeDamping(args.gamma), Depolarizing(args.lam), args.weight1
    )


def cmd_minimax(args):
    pair = _minimax_pair(args)
    if args.certify:
        config = _oracle_config(args)
    else:
        for name in ORACLE_FLAGS:
            if getattr(args, name) is not None:
                raise DomainError(f"--{name.replace('_', '-')} is read only with --certify")
    result = minimax_capacity(pair, args.resolution)
    min_cap = min(result.branch_capacity_1, result.branch_capacity_2)
    inputs = {
        "channel1": _channel_inputs(pair.ch1),
        "channel2": _channel_inputs(pair.ch2),
        "weight1": pair.weight1,
        "resolution": args.resolution,
    }
    outputs = {
        "capacity_bits": result.capacity_bits,
        "a_star": result.a_star,
        "min_branch": result.min_branch,
        "a_cross": result.a_cross,
        "branch_capacity_1": result.branch_capacity_1,
        "branch_capacity_2": result.branch_capacity_2,
        "min_branch_capacity": min_cap,
        "separation_gap": min_cap - result.capacity_bits,
    }
    if args.certify:
        outputs["certification"], _ = _oracle_step(
            args, config, inputs, result.capacity_bits, oracle_minimax, pair)
    _report(args, inputs, outputs=outputs, tolerances={"resolution": args.resolution})
    return outputs.get("certification")


def cmd_certify(args):
    channel = _parse_channel(args)
    config = _oracle_config(args)
    solver = channel_capacity(channel, args.tol)
    inputs = {**_channel_inputs(channel), "tol": args.tol}
    certification, ensemble = _oracle_step(
        args, config, inputs, solver.capacity_bits, oracle_capacity, channel)
    outputs = {
        "solver_capacity_bits": solver.capacity_bits,
        "solver_a_max": solver.a_max,
        **certification,
        "oracle_ensemble": [
            {"p": p, "a": s.a, "b_re": s.b.real, "b_im": s.b.imag}
            for p, s in ensemble
        ],
    }
    del outputs["bound"]  # certify reports the bound among its tolerances
    _report(args, inputs, outputs=outputs, tolerances={"bound": args.bound})
    return certification


def _add_common(parser: argparse.ArgumentParser, tol: bool, fmt: bool) -> None:
    """--out and --config, plus --tol and --format where the command reads them."""
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--config", help="key = value config file (default ./qchan.toml)")
    if tol:
        parser.add_argument("--tol", type=float, default=None,
                            help="solver tolerance on the bracket width (default 1e-10)")
    if fmt:
        parser.add_argument("--format", choices=("csv", "json"), default=None,
                            help="output format (default: csv for curves, json for reports)")


def _add_oracle_flags(parser: argparse.ArgumentParser) -> None:
    # None marks a flag left out; _oracle_config fills in the defaults.
    parser.add_argument("--n-states", type=int, dest="n_states")
    parser.add_argument("--a-grid", type=int, dest="a_grid")
    parser.add_argument("--phase-grid", type=int, dest="phase_grid",
                        help="coherence phases per a; 2 (default) searches the real signs")
    parser.add_argument("--prob-grid", type=int, dest="prob_grid")
    parser.add_argument("--budget", type=float,
                        help="maximum oracle evaluations: the grid states tabulated, then per "
                             "size its tables and the ensembles of the states its bounds keep")
    parser.add_argument("--bound", type=float,
                        help="declared grid-resolution bound for certification")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls in the process."""
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Product-state capacities of qubit amplitude-damping and "
                    "depolarizing channels, with brute-force certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="capacity of a single channel")
    p.add_argument("--channel", choices=tuple(FAMILIES), required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--lambda", type=float, dest="lam")
    _add_common(p, tol=True, fmt=True)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("curve", help="capacity curve over a parameter range (CSV)")
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--end", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.01)
    _add_common(p, tol=True, fmt=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("chi-curves", help="branch chi curves versus a (CSV)")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--lambda", type=float, dest="lam", required=True)
    p.add_argument("--a-step", type=float, default=0.01, dest="a_step")
    _add_common(p, tol=False, fmt=True)
    p.set_defaults(func=cmd_chi_curves)

    p = sub.add_parser("ellipse", help="pure input states and their images (CSV)")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n-points", type=int, default=64, dest="n_points")
    _add_common(p, tol=True, fmt=True)
    p.set_defaults(func=cmd_ellipse)

    p = sub.add_parser("minimax", help="sup-min capacity of a channel mixture")
    p.add_argument("--gamma", type=float, help="amplitude-damping branch parameter")
    p.add_argument("--lambda", type=float, dest="lam", help="depolarizing branch parameter")
    p.add_argument("--ch1", help="general branch spec, e.g. ad:0.5 or dep:0.3")
    p.add_argument("--ch2", help="general branch spec, e.g. ad:0.5 or dep:0.3")
    p.add_argument("--weight1", type=float, default=0.5)
    p.add_argument("--resolution", type=float, default=1e-6,
                   help="width of the final crossing bracket; chi at its centre is a lower bound")
    p.add_argument("--certify", action="store_true", help="check the result against the oracle")
    _add_oracle_flags(p)
    _add_common(p, tol=False, fmt=False)
    p.set_defaults(func=cmd_minimax)

    p = sub.add_parser("certify", help="brute-force certification of a capacity")
    p.add_argument("--channel", choices=tuple(FAMILIES), required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--lambda", type=float, dest="lam")
    _add_oracle_flags(p)
    _add_common(p, tol=True, fmt=False)
    p.set_defaults(func=cmd_certify)

    # argparse's private negative-number pattern misses "-1e-3" and "-inf" and reads them
    # as options; this one takes them as values, for the flag's own check to judge.
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its message (or --help)
        return exc.code
    try:
        _resolve_settings(args)
        # A certifying command returns its certification fields, gated once it is written.
        certification = args.func(args)
        if certification and abs(certification["difference"]) > certification["bound"]:
            raise CertificationError(f"oracle difference {certification['difference']} "
                                     f"exceeds the bound {certification['bound']}")
        return EXIT_OK
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except BudgetExceededError as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
