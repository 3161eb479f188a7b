"""The three workloads: seeded operation streams, the calls they make, and their checks.

Every workload is one closed-loop client in one process: the next operation
starts when the previous one has returned. ``ops(seed)`` is an endless,
deterministic stream built with ``random.Random(seed)``; the library only
ever sees the generated inputs. Operations call qchan through module
attributes looked up at call time, so a ``Tracer`` sees them.

Checks run outside the timed segments. Each returns a list of failure
messages, empty when the operation's output is correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import qchan
import qchan.cli

BUDGET = 1e9

# Acceptance criterion 4: four-state ensembles on the 201-point real grid.
CRITERION4 = dict(n_states=4, a_grid=201, prob_grid=20, restrict_real_b=True)
# Acceptance criterion 8: three-state sup-min search on the same grid.
MIXTURE = dict(n_states=3, a_grid=201, prob_grid=20, restrict_real_b=True)
# A small search over complex coherence phases (8 phases per grid point).
COMPLEX = dict(n_states=2, a_grid=81, phase_grid=8, prob_grid=10, restrict_real_b=False)

_CHANNELS = {"ad": qchan.AmplitudeDamping, "dep": qchan.Depolarizing}
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _open_unit(rng: random.Random) -> float:
    """Uniform draw from the open interval (0, 1)."""
    while True:
        x = rng.random()
        if x > 0.0:
            return x


def _crossing_pair(rng: random.Random):
    """Damping + depolarizing parameters near the band where the branch curves cross.

    Around (0.5, 0.24), the shipped separation fixture, the band runs roughly
    along lambda = 0.24 + 0.6 (gamma - 0.5). The jitter puts some pairs inside
    it (crossing search) and some beside it (a feasible branch maximizer).
    """
    gamma = rng.uniform(0.4, 0.6)
    return gamma, 0.24 + 0.6 * (gamma - 0.5) + rng.uniform(-0.01, 0.01)


def _entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def _near(x: float, y: float, tol: float, what: str):
    return [] if abs(x - y) <= tol else [f"{what}: |{x!r} - {y!r}| > {tol:g}"]


class Workload:
    """Shared shape: ``ops``, ``run``, ``check`` and ``fingerprint`` per workload."""

    name = ""
    # Stream ops per requested second in each pass of a traced run (at least one).
    trace_ops_per_second = 0.0
    # Length of the repeating pattern of op kinds in ``ops``; 1 when there is none.
    # The timed loop also runs the reference kernel once per cycle.
    cycle = 1

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.written = 0

    def reference(self):
        """A fixed kernel of the same kind of work as the ops, that calls no qchan code.

        The timed metrics divide op time by this kernel's time, measured
        beside the ops on the same host, so they follow the program and not
        the host's speed of the moment. This one is scalar numpy calls, as
        in the scalar solvers: 0-d arrays through asarray, where, log, sqrt.
        """
        total = 0.0
        for i in range(300):
            x = np.asarray(0.3 + 1e-4 * i, dtype=float)
            total += float(np.where(x > 0.5, np.log(x), np.sqrt(np.maximum(x, 0.0))))
        return total

    def _out(self) -> str:
        """A fresh ``--out`` path for a CLI command."""
        self.written += 1
        return str(self.scratch / f"op-{self.written}.out")

    def extra_ops(self, seed: int):
        """Ops run once per run, after the timed ones; checked and counted, not timed."""
        return []

    def finish(self):
        """Checks on the run as a whole, after every op has been checked."""
        return []

    def oracle_work(self, op):
        """(scored channels, planned evaluations) of the op's oracle call, or None."""
        return None


class Solve(Workload):
    """Single capacity and sup-min queries: library calls, and one CLI query per cycle."""

    name = "solve"
    trace_ops_per_second = 150.0
    # Each cycle of 15 ops, in seeded order: 8 AD, one AD through the CLI
    # ``capacity`` command, 3 dep and one minimax per pair kind.
    KINDS = ("ad",) * 8 + ("cli",) + ("dep",) * 3 + ("ad+dep", "ad+ad", "dep+dep")
    cycle = len(KINDS)

    def warm_up(self):
        qchan.capacity_amplitude_damping(0.5)

    def ops(self, seed: int):
        rng = random.Random(seed)
        while True:
            for kind in rng.sample(self.KINDS, len(self.KINDS)):
                if kind in ("ad", "cli", "dep"):
                    yield (kind, _open_unit(rng))
                elif kind == "ad+dep":
                    yield (kind, *_crossing_pair(rng))
                else:
                    yield (kind, _open_unit(rng), _open_unit(rng))

    def run(self, op):
        kind = op[0]
        if kind == "ad":
            return qchan.capacity_amplitude_damping(op[1])
        if kind == "dep":
            return qchan.capacity_depolarizing(op[1])
        if kind == "cli":
            out = self._out()
            return qchan.cli.main(["capacity", "--channel", "ad", "--gamma", repr(op[1]), "--out", out]), out
        first, second = kind.split("+")
        pair = qchan.MixedChannelPair(_CHANNELS[first](op[1]), _CHANNELS[second](op[2]))
        return qchan.minimax_capacity(pair)

    def check(self, op, result):
        kind = op[0]
        if kind == "ad":
            gamma = op[1]
            residual = abs(qchan.chi_ad_derivative(gamma, result.a_max))
            chi = qchan.holevo_chi(qchan.AmplitudeDamping(gamma), qchan.mirror_pair(result.a_max))
            bad = [] if residual < 1e-8 else [f"residual {residual:.3g} at gamma={gamma!r}"]
            return bad + _near(chi, result.capacity_bits, 1e-12, "holevo_chi vs capacity")
        if kind == "dep":
            return _near(result.capacity_bits, 1.0 - _entropy(0.5 * op[1]), 1e-12, "1 - H(lambda/2)")
        if kind == "cli":
            code, out = result
            if code != 0:
                return [f"exit code {code}"]
            path = Path(out)
            report = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            # The CLI runs the same solver, so the value must be identical.
            library = qchan.capacity_amplitude_damping(op[1]).capacity_bits
            return _near(report["outputs"]["capacity_bits"], library, 0.0, "CLI vs library capacity")
        if kind == "dep+dep":
            closed = 1.0 - _entropy(0.5 * max(op[1], op[2]))
            return _near(result.capacity_bits, closed, 1e-8, "dep+dep closed form")
        if kind == "ad+ad":
            single = qchan.capacity_amplitude_damping(max(op[1], op[2])).capacity_bits
            return _near(result.capacity_bits, single, 1e-6, "ad+ad max-gamma capacity")
        gamma, lam = op[1], op[2]
        caps = min(qchan.capacity_amplitude_damping(gamma).capacity_bits,
                   qchan.capacity_depolarizing(lam).capacity_bits)
        at_star = min(qchan.chi_ad_curve(gamma, result.a_star), qchan.chi_dep_curve(lam, result.a_star))
        bad = [] if result.capacity_bits <= caps + 1e-12 else ["sup-min above a branch capacity"]
        return bad + _near(result.capacity_bits, at_star, 1e-9, "sup-min vs min chi at a_star")

    def fingerprint(self, result):
        if isinstance(result, tuple):
            return result[0], hashlib.sha256(Path(result[1]).read_bytes()).hexdigest()
        return (result.capacity_bits, getattr(result, "a_max", None), getattr(result, "a_star", None))


class Curve(Workload):
    """In-process ``qchan`` CLI commands writing ``--out`` CSV files."""

    name = "curve"
    trace_ops_per_second = 3.0
    # Every 8th command is a chi-curves sweep at --a-step 0.0002 (5001 rows);
    # the rest are AD curves of CURVE_STEPS steps of 0.001 from a seeded start.
    # A cycle of 8 takes about a second here.
    cycle = 8
    CURVE_STEPS = 50

    def __init__(self, root: Path, scratch: Path):
        super().__init__(root, scratch)
        self.first = None  # (op, sha256 of its file) of the first op checked

    def warm_up(self):
        argv = ["curve", "--family", "ad", "--start", "0.5", "--end", "0.51", "--step", "0.001"]
        if qchan.cli.main(argv + ["--out", self._out()]) != 0:
            raise RuntimeError("warm-up curve command failed")

    def ops(self, seed: int):
        rng = random.Random(seed)
        index = 0
        while True:
            index += 1
            if index % self.cycle == 0:
                gamma, lam = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
                yield ("chi-curves", ("chi-curves", "--gamma", repr(gamma), "--lambda", repr(lam),
                                      "--a-step", "0.0002"))
            else:
                start = rng.randint(0, 1000 - self.CURVE_STEPS)
                yield ("curve", ("curve", "--family", "ad", "--start", repr(start / 1000),
                                 "--end", repr((start + self.CURVE_STEPS) / 1000), "--step", "0.001"))

    def run(self, op):
        out = self._out()
        return qchan.cli.main(list(op[1]) + ["--out", out]), out

    def check(self, op, result):
        """Validates the op's file, keeps its digest if it is the first, deletes it."""
        code, out = result
        if code != 0:
            return [f"exit code {code}"]
        path = Path(out)
        data = path.read_bytes()
        path.unlink()
        if self.first is None:
            self.first = (op, hashlib.sha256(data).hexdigest())
        lines = data.decode("utf-8").splitlines()
        rows = len(lines) - 1
        argv = op[1]
        if op[0] == "curve":
            start, end = float(argv[argv.index("--start") + 1]), float(argv[argv.index("--end") + 1])
            header = "param,capacity_bits,a_max"
            rows_ok = rows == round((end - start) / 0.001) + 1
        else:
            # Crossing rows are appended to the 5001 grid rows.
            header = "a,chi_ad,chi_dep,min_chi,crossing"
            rows_ok = rows >= 5001
        bad = [] if lines[0] == header else [f"header {lines[0]!r}"]
        if not rows_ok:
            bad.append(f"{rows} rows")
        for line in lines[1:]:
            values = [float(cell) for cell in line.split(",")[:3]]
            if not all(-1e-12 <= v <= 1.0 + 1e-12 for v in values):
                bad.append(f"value out of [0, 1] in {line!r}")
                break
        return bad

    def fingerprint(self, result):
        return result[0], hashlib.sha256(Path(result[1]).read_bytes()).hexdigest()

    def finish(self):
        """Byte stability of the first command and the golden step-0.01 curve."""
        bad = []
        if self.first is not None:
            op, digest = self.first
            again = {self.fingerprint(self.run(op)) for _ in range(2)}
            if again != {(0, digest)}:
                bad.append(f"{op[1]} is not byte-stable across three runs")
        golden_argv = ("curve", "--family", "ad", "--start", "0", "--end", "1", "--step", "0.01")
        code, out = self.run(("curve", golden_argv))
        golden = (self.root / "tests" / "data" / "curve_ad_golden.csv").read_bytes()
        if code != 0 or Path(out).read_bytes() != golden:
            bad.append("step-0.01 curve differs from tests/data/curve_ad_golden.csv")
        return bad


class Certify(Workload):
    """Brute-force oracle certificates.

    The timed ops are criterion-4 searches on damping channels. Their gammas
    follow a golden-ratio sequence from a seeded offset, so the first few
    already spread over (0, 1): search time depends on gamma, and a run holds
    only a handful of searches. Once per run, after the timed ops, come one
    sup-min search on a damping + depolarizing pair and one small
    complex-phase search.
    """

    name = "certify"
    # Reference kernel: REF_BLOCKS blocks of REF_BLOCK four-subsets of REF_STATES table rows.
    REF_STATES, REF_BLOCK, REF_BLOCKS = 400, 16000, 8

    def __init__(self, root: Path, scratch: Path):
        super().__init__(root, scratch)
        self.gaps = []  # deficits of the criterion-4 searches checked so far
        # Fixed tables, the same in every run whatever the seed.
        rng = np.random.default_rng(0)
        self.ref_tables = rng.random((3, self.REF_STATES)) * [[1.0], [0.3], [0.5]]
        self.ref_probs = rng.dirichlet(np.ones(4), size=60)

    def reference(self):
        """Blocks shaped like the oracle's search pass, on fixed tables.

        Index four-subsets, average with ``@``, then sqrt and an entropy over
        about a million elements per block: the same array work as a search,
        with blocks of the same size, so that the kernel also pays for fresh
        memory as a search does. Smaller blocks followed a search's speed less
        closely. The kernel's memory stays below that of the warm-up search.
        """
        u, v, s = self.ref_tables
        subsets = itertools.combinations(range(self.REF_STATES), 4)
        best = -math.inf
        for _ in range(self.REF_BLOCKS):
            members = np.array(list(itertools.islice(subsets, self.REF_BLOCK)), dtype=np.int64)
            r = np.sqrt((2.0 * (u[members] @ self.ref_probs.T) - 1.0) ** 2
                        + 4.0 * (v[members] @ self.ref_probs.T) ** 2)
            q = 0.5 * (1.0 - np.minimum(r, 1.0))
            entropy = np.zeros(q.shape)
            inside = (q > 0.0) & (q < 1.0)
            x = q[inside]
            entropy[inside] = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
            best = max(best, float(np.max(entropy - s[members] @ self.ref_probs.T)))
        return best

    def warm_up(self):
        # Full 1e6-element blocks, so the allocator has seen the search's sizes.
        config = qchan.OracleConfig(n_states=2, a_grid=201, prob_grid=20)
        qchan.oracle_capacity(qchan.AmplitudeDamping(0.5), config, BUDGET)

    def ops(self, seed: int):
        offset = random.Random(seed).random()
        for index in itertools.count():
            gamma = (offset + index * _GOLDEN) % 1.0
            if gamma > 0.0:
                yield ("ad", gamma)

    def extra_ops(self, seed: int):
        rng = random.Random(f"extra-{seed}")
        return [("mixture", *_crossing_pair(rng)), ("complex", _open_unit(rng))]

    @staticmethod
    def _config(op):
        return qchan.OracleConfig(**{"mixture": MIXTURE, "complex": COMPLEX, "ad": CRITERION4}[op[0]])

    @staticmethod
    def _pair(op):
        return qchan.MixedChannelPair(qchan.AmplitudeDamping(op[1]), qchan.Depolarizing(op[2]))

    def run(self, op):
        if op[0] == "mixture":
            return qchan.oracle_minimax(self._pair(op), self._config(op), BUDGET)
        return qchan.oracle_capacity(qchan.AmplitudeDamping(op[1]), self._config(op), BUDGET)

    def oracle_work(self, op):
        planned = qchan.oracle.plan_search_size(self._config(op), BUDGET)
        return (2 if op[0] == "mixture" else 1), planned

    def check(self, op, result):
        value, ensemble = result
        if op[0] == "mixture":
            pair = self._pair(op)
            deficit = qchan.minimax_capacity(pair).capacity_bits - value
            chi = min(qchan.holevo_chi(pair.ch1, ensemble), qchan.holevo_chi(pair.ch2, ensemble))
            # Criterion 8: the sup-min optimum is a kink, so the grid deficit is first order.
            bad = _near(deficit, 0.0, 1e-3, "sup-min oracle deficit")
        else:
            deficit = qchan.capacity_amplitude_damping(op[1]).capacity_bits - value
            if op[0] == "ad":
                self.gaps.append(deficit)
            chi = qchan.holevo_chi(qchan.AmplitudeDamping(op[1]), ensemble)
            # Criterion 4: the oracle is a lower bound within the grid resolution.
            bad = [] if -1e-9 <= deficit <= 2e-4 else [f"deficit {deficit:.3g} outside [-1e-9, 2e-4]"]
        return bad + _near(chi, value, 1e-9, "oracle ensemble chi vs oracle value")

    def fingerprint(self, result):
        value, ensemble = result
        return value, tuple((p, s.a, s.b) for p, s in ensemble)

    def certificate_gap(self):
        """Largest solver - oracle deficit over the criterion-4 searches checked, or None."""
        return max(self.gaps) if self.gaps else None


WORKLOADS = {cls.name: cls for cls in (Solve, Curve, Certify)}
