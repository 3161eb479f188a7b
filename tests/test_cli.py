import dataclasses
import json
import math
import pathlib
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

import qchan
from qchan import (
    AmplitudeDamping,
    Depolarizing,
    MixedChannelPair,
    OracleConfig,
    QubitState,
    apply_channel,
    binary_entropy,
    capacity_amplitude_damping,
    chi_ad_curve,
    chi_dep_curve,
    minimax_capacity,
    oracle_capacity,
)
from qchan import cli, oracle
from qchan.capacity import channel_capacity
from qchan.cli import main
from qchan.oracle import plan_search_size

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestCapacityCommand:
    def test_noiseless_ad(self, capsys):
        report = run_json(capsys, "capacity", "--channel", "ad", "--gamma", "0")
        assert report["schema_version"] == 1
        assert report["outputs"]["capacity_bits"] == 1.0
        assert "wall_time_s" in report

    def test_dead_depolarizing(self, capsys):
        report = run_json(capsys, "capacity", "--channel", "dep", "--lambda", "1")
        assert report["outputs"]["capacity_bits"] == 0.0

    def test_golden_gamma_half(self, capsys):
        report = run_json(capsys, "capacity", "--channel", "ad", "--gamma", "0.5")
        expected = capacity_amplitude_damping(0.5)
        assert report["outputs"]["capacity_bits"] == expected.capacity_bits
        assert report["outputs"]["a_max"] == expected.a_max
        assert abs(report["outputs"]["capacity_bits"] - 0.4717293905985839) < 1e-9

    def test_capacity_is_nonnegative_next_to_gamma_one(self, capsys):
        report = run_json(capsys, "capacity", "--channel", "ad", "--gamma", "0.9999999999999999")
        assert report["outputs"]["capacity_bits"] >= 0.0

    def test_invalid_parameter_exits_2(self, capsys):
        code, _, err = run(capsys, "capacity", "--channel", "ad", "--gamma", "1.5")
        assert code == 2
        assert "gamma" in err

    def test_missing_parameter_exits_2(self, capsys):
        code, _, _ = run(capsys, "capacity", "--channel", "ad")
        assert code == 2
        code, _, err = run(capsys, "capacity", "--channel", "dep")
        assert code == 2
        assert "--lambda" in err

    def test_non_finite_report_value_exits_2(self, capsys):
        # --tol inf is refused by the tol rule before any report exists;
        # test_nan_result_is_not_written reaches the JSON writer's own refusal
        code, out, _ = run(capsys, "capacity", "--channel", "ad", "--gamma", "0.5",
                           "--tol", "inf")
        assert code == 2
        assert out == ""

    def test_nan_result_is_not_written(self, capsys, monkeypatch, tmp_path):
        # JSON has no NaN, so the writer refuses a report holding one
        def nan_capacity(channel, tol):
            return dataclasses.replace(channel_capacity(channel, tol), capacity_bits=math.nan)

        monkeypatch.setattr(cli, "channel_capacity", nan_capacity)
        out_path = tmp_path / "capacity.json"
        code, out, err = run(capsys, "capacity", "--channel", "ad", "--gamma", "0.5",
                             "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert "non-finite" in err
        assert not out_path.exists()

    def test_stray_channel_parameter_exits_2(self, capsys):
        # the damping channel does not read --lambda, so the flag is refused, not ignored
        code, out, err = run(capsys, "capacity", "--channel", "ad", "--gamma", "0.5",
                             "--lambda", "0.3")
        assert code == 2
        assert out == ""
        assert "--lambda" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "capacity", "--channel", "dep", "--lambda", "0.5",
                           "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["capacity_bits", "a_max", "residual", "iterations", "method"]
        assert rows[0][4] == "closed_form"


class TestCurveCommand:
    def test_ad_endpoints_and_monotone(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "curve", "--family", "ad", "--step", "0.05",
                         "--out", str(out_path))
        assert code == 0
        header, rows = parse_csv(out_path.read_text())
        assert header == ["param", "capacity_bits", "a_max"]
        caps = [float(r[1]) for r in rows]
        assert caps[0] == 1.0 and caps[-1] == 0.0
        assert all(x >= y for x, y in zip(caps, caps[1:]))

    def test_dep_matches_closed_form(self, capsys, tmp_path):
        out_path = tmp_path / "dep.csv"
        run(capsys, "curve", "--family", "dep", "--step", "0.1", "--out", str(out_path))
        _, rows = parse_csv(out_path.read_text())
        for row in rows:
            lam, cap = float(row[0]), float(row[1])
            assert cap == 1.0 - binary_entropy(0.5 * lam)

    def test_byte_stable_and_roundtrip(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = ("curve", "--family", "ad", "--step", "0.02")
        run(capsys, *args, "--out", str(first))
        run(capsys, *args, "--out", str(second))
        assert first.read_bytes() == second.read_bytes()
        _, rows = parse_csv(first.read_text())
        for row in rows:
            # 17 significant digits reproduce the binary doubles exactly
            param = float(row[0])
            result = capacity_amplitude_damping(param)
            assert float(row[1]) == result.capacity_bits
            assert float(row[2]) == result.a_max

    def test_matches_committed_golden(self, capsys, tmp_path):
        out_path = tmp_path / "golden.csv"
        run(capsys, "curve", "--family", "ad", "--start", "0", "--end", "1",
            "--step", "0.01", "--out", str(out_path))
        assert out_path.read_bytes() == (DATA / "curve_ad_golden.csv").read_bytes()

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "curve", "--family", "ad", "--start", "0.8",
                         "--end", "0.2")
        assert code == 2

    def test_unwritable_path_exits_4(self, capsys):
        code, _, _ = run(capsys, "curve", "--family", "ad", "--step", "0.5",
                         "--out", "/nonexistent-dir/out.csv")
        assert code == 4

    def test_json_format(self, capsys):
        report = run_json(capsys, "curve", "--family", "dep", "--step", "0.25",
                          "--format", "json")
        assert report["command"] == "curve"
        assert len(report["rows"]) == 5


class TestChiCurvesCommand:
    def test_columns_and_capacity_row(self, capsys, tmp_path):
        out_path = tmp_path / "chi.csv"
        run(capsys, "chi-curves", "--gamma", "0.5", "--lambda", "0.24",
            "--a-step", "0.05", "--out", str(out_path))
        header, rows = parse_csv(out_path.read_text())
        assert header == ["a", "chi_ad", "chi_dep", "min_chi", "crossing"]
        half = [r for r in rows if float(r[0]) == 0.5][0]
        assert float(half[2]) == 1.0 - binary_entropy(0.12)

    def test_chi_ad_maximized_right_of_half(self, capsys, tmp_path):
        out_path = tmp_path / "chi.csv"
        run(capsys, "chi-curves", "--gamma", "0.5", "--lambda", "0.24",
            "--a-step", "0.01", "--out", str(out_path))
        _, rows = parse_csv(out_path.read_text())
        ad = [float(r[1]) for r in rows]
        a = [float(r[0]) for r in rows]
        assert a[ad.index(max(ad))] >= 0.5

    def test_crossing_flagged_and_minmax_separation(self, capsys, tmp_path):
        out_path = tmp_path / "chi.csv"
        run(capsys, "chi-curves", "--gamma", "0.5", "--lambda", "0.24",
            "--a-step", "0.01", "--out", str(out_path))
        _, rows = parse_csv(out_path.read_text())
        crossings = [r for r in rows if r[4] == "1"]
        assert crossings, "crossing row missing"
        assert any(0.5 < float(r[0]) < 0.6 for r in crossings)
        ad_max = max(float(r[1]) for r in rows)
        dep_max = max(float(r[2]) for r in rows)
        min_max = max(float(r[3]) for r in rows)
        assert min_max < min(ad_max, dep_max)

    def test_values_match_library(self, capsys, tmp_path):
        out_path = tmp_path / "chi.csv"
        run(capsys, "chi-curves", "--gamma", "0.3", "--lambda", "0.4",
            "--a-step", "0.25", "--out", str(out_path))
        _, rows = parse_csv(out_path.read_text())
        for row in rows:
            assert float(row[2]) == chi_dep_curve(0.4, float(row[0]))

    @pytest.mark.parametrize("gamma", ["0.1", "0.5", "0.9"])
    @pytest.mark.parametrize("lam", ["0.05", "0.24", "0.7"])
    def test_crossing_rows_are_zeros(self, capsys, tmp_path, gamma, lam):
        out_path = tmp_path / "chi.csv"
        run(capsys, "chi-curves", "--gamma", gamma, "--lambda", lam,
            "--a-step", "0.001", "--out", str(out_path))
        _, rows = parse_csv(out_path.read_text())
        for row in rows:
            if row[4] == "1":
                a = float(row[0])
                assert float(row[1]) == chi_ad_curve(float(gamma), a)
                assert float(row[2]) == chi_dep_curve(float(lam), a)
                assert abs(float(row[1]) - float(row[2])) <= 1e-12


def per_cell_csv(header, rows):
    """The CSV writer before row templates: each number formatted on its own."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else f"{cell:.17g}" for cell in row))
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    def test_chi_curves_equals_per_cell_writer(self, capsys, tmp_path, monkeypatch):
        written = []
        write_csv = cli._write_csv

        def keep_rows(out, header, rows):
            written.append((header, rows))
            write_csv(out, header, rows)

        monkeypatch.setattr(cli, "_write_csv", keep_rows)
        out_path = tmp_path / "chi.csv"
        code, _, _ = run(capsys, "chi-curves", "--gamma", "0.5", "--lambda", "0.24",
                         "--a-step", "0.0002", "--out", str(out_path))
        assert code == 0
        (header, rows), = written
        assert len(rows) > 5001  # the grid rows and at least one crossing row
        assert out_path.read_bytes() == per_cell_csv(header, rows).encode("utf-8")

    def test_mixed_row_shapes_and_edge_values(self, capsys):
        header = ["x", "y", "z"]
        rows = [
            (0.1, 35, "root_bisection"),
            (-0.0, math.inf, "0"),
            ("1", math.nan, 5e-324),
            (np.float64(1 / 3), np.int64(7), 1e308),
            (True, 2.0**60, 10**20),
            (0.1, 35, "root_bisection"),
        ]
        cli._write_csv(None, header, rows)
        assert capsys.readouterr().out == per_cell_csv(header, rows)


class TestEllipseCommand:
    def test_fixed_point_row(self, capsys, tmp_path):
        out_path = tmp_path / "ellipse.csv"
        run(capsys, "ellipse", "--gamma", "0.5", "--n-points", "8",
            "--out", str(out_path))
        header, rows = parse_csv(out_path.read_text())
        assert header == ["a_in", "b_in", "a_out", "b_out", "optimal"]
        first = rows[0]
        assert float(first[0]) == 1.0 and float(first[2]) == 1.0

    def test_identity_channel_copies_inputs(self, capsys, tmp_path):
        out_path = tmp_path / "ellipse.csv"
        run(capsys, "ellipse", "--gamma", "0", "--n-points", "16",
            "--out", str(out_path))
        _, rows = parse_csv(out_path.read_text())
        for row in rows:
            assert row[0] == row[2] and row[1] == row[3]

    def test_optimal_rows_are_mirror_pair(self, capsys, tmp_path):
        out_path = tmp_path / "ellipse.csv"
        run(capsys, "ellipse", "--gamma", "0.5", "--n-points", "8",
            "--out", str(out_path))
        _, rows = parse_csv(out_path.read_text())
        optimal = [r for r in rows if r[4] == "1"]
        assert len(optimal) == 2
        assert optimal[0][0] == optimal[1][0]
        assert float(optimal[0][1]) == -float(optimal[1][1])
        a_max = capacity_amplitude_damping(0.5).a_max
        assert float(optimal[0][0]) == a_max

    def test_rows_are_channel_images(self, capsys, tmp_path):
        out_path = tmp_path / "ellipse.csv"
        run(capsys, "ellipse", "--gamma", "0.3", "--n-points", "64",
            "--out", str(out_path))
        _, rows = parse_csv(out_path.read_text())
        assert len(rows) == 66
        channel = AmplitudeDamping(0.3)
        for row in rows:
            image = apply_channel(channel, QubitState(float(row[0]), float(row[1])))
            assert float(row[2]) == image.a
            assert float(row[3]) == image.b.real

    def test_too_few_points_exits_2(self, capsys):
        code, _, _ = run(capsys, "ellipse", "--gamma", "0.5", "--n-points", "2")
        assert code == 2


class TestMinimaxCommand:
    def test_identical_channels_zero_gap(self, capsys):
        report = run_json(capsys, "minimax", "--ch1", "ad:0.5", "--ch2", "ad:0.5")
        assert abs(report["outputs"]["separation_gap"]) < 1e-12

    def test_two_depolarizing_closed_form(self, capsys):
        report = run_json(capsys, "minimax", "--ch1", "dep:0.3", "--ch2", "dep:0.7")
        expected = 1.0 - binary_entropy(0.35)
        assert abs(report["outputs"]["capacity_bits"] - expected) < 1e-8

    def test_fixture_gap_strictly_positive(self, capsys):
        report = run_json(capsys, "minimax", "--gamma", "0.5", "--lambda", "0.24")
        assert report["outputs"]["separation_gap"] > 1e-3
        assert report["outputs"]["min_branch_capacity"] == min(
            report["outputs"]["branch_capacity_1"], report["outputs"]["branch_capacity_2"]
        )

    def test_reports_library_result_with_one_solve(self, capsys, monkeypatch):
        pair = MixedChannelPair(AmplitudeDamping(0.5), Depolarizing(0.24))
        expected = minimax_capacity(pair)
        solve = qchan.capacity.capacity_amplitude_damping
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(qchan.capacity, "capacity_amplitude_damping", counted)
        report = run_json(capsys, "minimax", "--gamma", "0.5", "--lambda", "0.24")
        assert len(calls) == 1
        outputs = report["outputs"]
        assert outputs["capacity_bits"] == expected.capacity_bits
        assert outputs["a_cross"] == expected.a_cross
        assert outputs["branch_capacity_1"] == channel_capacity(pair.ch1).capacity_bits
        assert outputs["branch_capacity_2"] == channel_capacity(pair.ch2).capacity_bits

    def test_certify_flag(self, capsys):
        report = run_json(capsys, "minimax", "--gamma", "0.5", "--lambda", "0.24",
                          "--certify", "--a-grid", "101", "--prob-grid", "10",
                          "--bound", "1e-3")
        cert = report["outputs"]["certification"]
        assert abs(cert["difference"]) <= 1e-3
        assert cert["search_size"] > 0

    def test_certify_flag_gate_exits_6(self, capsys):
        code, _, err = run(capsys, "minimax", "--gamma", "0.5", "--lambda", "0.24",
                           "--certify", "--a-grid", "101", "--prob-grid", "10",
                           "--bound", "1e-12")
        assert code == 6
        assert "certification failure" in err

    @pytest.mark.parametrize("weight1", ["0", "1"])
    def test_certify_at_degenerate_weights(self, capsys, weight1):
        # the oracle searches the live branch alone
        report = run_json(capsys, "minimax", "--gamma", "0.5", "--lambda", "0.24",
                          "--weight1", weight1, "--certify", "--a-grid", "11",
                          "--prob-grid", "4")
        live = AmplitudeDamping(0.5) if weight1 == "1" else Depolarizing(0.24)
        config = OracleConfig(n_states=2, a_grid=11, prob_grid=4)
        cert = report["outputs"]["certification"]
        assert cert["oracle_capacity_bits"] == oracle_capacity(live, config)[0]

    def test_certify_gate_holds_at_degenerate_weight(self, capsys):
        # The damping branch sits 2.6e-5 bits above this coarse grid's best ensemble.
        code, _, _ = run(capsys, "minimax", "--gamma", "0.5", "--lambda", "0.24",
                         "--weight1", "1", "--certify", "--a-grid", "11", "--prob-grid", "4",
                         "--bound", "1e-12")
        assert code == 6

    @pytest.mark.parametrize("flag, value", [
        ("--n-states", "3"), ("--a-grid", "101"), ("--phase-grid", "8"),
        ("--prob-grid", "4"), ("--budget", "5"), ("--bound", "1e-12"),
    ])
    def test_oracle_flag_without_certify_exits_2(self, capsys, flag, value):
        # only --certify runs the oracle, so its flags would change nothing
        code, out, err = run(capsys, "minimax", "--gamma", "0.5", "--lambda", "0.24",
                             flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag} is read only with --certify" in err

    def test_mixed_spec_flags_exit_2(self, capsys):
        code, _, _ = run(capsys, "minimax", "--ch1", "ad:0.5")
        assert code == 2
        code, _, err = run(capsys, "minimax", "--ch1", "xx:0.1", "--ch2", "ad:0.2")
        assert code == 2
        assert "xx" in err

    def test_stray_channel_parameter_exits_2(self, capsys):
        # --ch1 and --ch2 give both branches, so --gamma would set nothing
        code, out, err = run(capsys, "minimax", "--ch1", "ad:0.1", "--ch2", "ad:0.2",
                             "--gamma", "0.9")
        assert code == 2
        assert out == ""
        assert "--gamma" in err

    def test_spec_kinds_recorded(self, capsys):
        report = run_json(capsys, "minimax", "--ch1", "dep:0.3", "--ch2", "ad:0.2")
        assert report["inputs"]["channel1"] == {"channel": "dep", "lambda": 0.3}
        assert report["inputs"]["channel2"] == {"channel": "ad", "gamma": 0.2}

    @pytest.mark.parametrize("bound", ["nan", "inf", "-1"])
    def test_certify_non_finite_bound_exits_2(self, capsys, bound):
        code, out, _ = run(capsys, "minimax", "--gamma", "0.5", "--lambda", "0.24",
                           "--certify", "--a-grid", "11", "--prob-grid", "4",
                           "--bound", bound)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("resolution", ["inf", "nan", "0", "-1"])
    def test_bad_resolution_exits_2(self, capsys, resolution):
        code, out, err = run(capsys, "minimax", "--gamma", "0.5", "--lambda", "0.24",
                             "--resolution", resolution)
        assert code == 2
        assert out == ""
        assert "resolution must be positive and finite" in err

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_certify_non_finite_budget_exits_2(self, capsys, budget):
        code, _, _ = run(capsys, "minimax", "--gamma", "0.5", "--lambda", "0.24",
                         "--certify", "--a-grid", "201", "--n-states", "4",
                         "--budget", budget)
        assert code == 2


class TestCertifyCommand:
    def test_noiseless_exact(self, capsys):
        report = run_json(capsys, "certify", "--channel", "ad", "--gamma", "0",
                          "--a-grid", "11", "--prob-grid", "4")
        assert report["outputs"]["difference"] == 0.0

    def test_depolarizing_within_bound(self, capsys):
        report = run_json(capsys, "certify", "--channel", "dep", "--lambda", "0.5",
                          "--a-grid", "21", "--prob-grid", "8")
        assert 0.0 <= report["outputs"]["difference"] <= 2e-4

    def test_budget_exceeded_exits_5(self, capsys):
        code, _, _ = run(capsys, "certify", "--channel", "ad", "--gamma", "0.5",
                         "--a-grid", "201", "--n-states", "4", "--budget", "1000")
        assert code == 5

    @pytest.mark.parametrize("bound", ["nan", "inf", "-1"])
    def test_non_finite_bound_exits_2(self, capsys, tmp_path, bound):
        out_path = tmp_path / "certify.json"
        code, _, _ = run(capsys, "certify", "--channel", "ad", "--gamma", "0.5",
                         "--a-grid", "11", "--prob-grid", "4", "--bound", bound,
                         "--out", str(out_path))
        assert code == 2
        assert not out_path.exists()

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_exits_2(self, capsys, budget):
        code, _, err = run(capsys, "certify", "--channel", "ad", "--gamma", "0.5",
                           "--a-grid", "201", "--n-states", "4", "--budget", budget)
        assert code == 2
        assert "budget" in err

    def test_stray_channel_parameter_exits_2(self, capsys):
        code, out, err = run(capsys, "certify", "--channel", "ad", "--gamma", "0.5",
                             "--lambda", "0.9", "--a-grid", "11", "--prob-grid", "4")
        assert code == 2
        assert out == ""
        assert "--lambda" in err

    def test_failed_bound_exits_6(self, capsys):
        code, _, _ = run(capsys, "certify", "--channel", "ad", "--gamma", "0.5",
                         "--a-grid", "11", "--prob-grid", "4", "--bound", "1e-12")
        assert code == 6

    def test_phase_grid_searches_complex_phases(self, capsys):
        # --phase-grid 8 used to search the real signs unless --complex-b was given too
        report = run_json(capsys, "certify", "--channel", "ad", "--gamma", "0.5",
                          "--a-grid", "11", "--prob-grid", "4", "--phase-grid", "8")
        config = OracleConfig(n_states=2, a_grid=11, phase_grid=8, prob_grid=4,
                              restrict_real_b=False)
        assert report["inputs"]["oracle"]["restrict_real_b"] is False
        assert report["outputs"]["search_size"] == plan_search_size(config) > plan_search_size(
            OracleConfig(n_states=2, a_grid=11, prob_grid=4))
        expected = oracle_capacity(AmplitudeDamping(0.5), config)[0]
        assert report["outputs"]["oracle_capacity_bits"] == expected

    def test_phase_grid_2_is_the_real_signs(self, capsys, tmp_path):
        argv = ["certify", "--channel", "ad", "--gamma", "0.5", "--a-grid", "11",
                "--prob-grid", "4"]
        paths = [tmp_path / "default.json", tmp_path / "two.json"]
        assert main(argv + ["--out", str(paths[0])]) == 0
        assert main(argv + ["--phase-grid", "2", "--out", str(paths[1])]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert json.loads(paths[0].read_text())["inputs"]["oracle"]["restrict_real_b"] is True

    def test_more_states_than_prob_grid_steps(self, capsys, tmp_path):
        # n_states 3 on a prob_grid of 2 used to end in an IndexError traceback. No
        # 3-state ensemble has weights in steps of 1/2, so it searches sizes 1 and 2.
        argv = ["certify", "--channel", "ad", "--gamma", "0.5", "--a-grid", "11",
                "--prob-grid", "2"]
        paths = [tmp_path / "two.json", tmp_path / "three.json"]
        assert main(argv + ["--n-states", "2", "--out", str(paths[0])]) == 0
        assert main(argv + ["--n-states", "3", "--out", str(paths[1])]) == 0
        two, three = (json.loads(path.read_text()) for path in paths)
        assert three["inputs"]["oracle"]["n_states"] == 3
        assert three["outputs"] == two["outputs"]

    def test_complex_b_is_gone(self, capsys):
        code, out, err = run(capsys, "certify", "--channel", "ad", "--gamma", "0.5",
                             "--complex-b", "--phase-grid", "8")
        assert code == 2
        assert out == ""
        assert "--complex-b" in err


# certify and minimax --certify share one oracle step: check the oracle flags, solve,
# search, write the report, then gate the difference on --bound.
CERTIFYING = {
    "certify": ("certify", "--channel", "ad", "--gamma", "0.5"),
    "minimax": ("minimax", "--gamma", "0.5", "--lambda", "0.24", "--certify"),
}


@pytest.mark.parametrize("command", CERTIFYING)
def test_failed_certificate_writes_its_report_then_exits_6(capsys, tmp_path, command):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, *CERTIFYING[command], "--a-grid", "11", "--prob-grid", "4",
                         "--bound", "1e-12", "--out", str(out_path))
    assert code == 6
    assert out == ""
    assert "certification failure" in err
    outputs = json.loads(out_path.read_text())["outputs"]
    certificate = outputs if command == "certify" else outputs["certification"]
    assert abs(certificate["difference"]) > 1e-12


@pytest.mark.parametrize("command", CERTIFYING)
def test_budget_exceeded_writes_no_report(capsys, tmp_path, command):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, *CERTIFYING[command], "--a-grid", "201", "--n-states", "4",
                     "--budget", "1000", "--out", str(out_path))
    assert code == 5
    assert not out_path.exists()


def test_budget_refusing_a_later_size_writes_no_report(capsys, tmp_path):
    # Sizes 1 and 2 start, and the 400 states that size 2's state bounds keep
    # carry C(400, 2) x 19 = 1.5e6 ensembles, which bring the running total over 1e6.
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "certify", "--channel", "dep", "--lambda", "0.2",
                         "--n-states", "2", "--a-grid", "201", "--prob-grid", "20",
                         "--budget", "1e6", "--out", str(out_path))
    assert code == 5
    assert out == ""
    assert "size-2 ensembles" in err
    assert not out_path.exists()


def test_budget_exceeded_reports_the_running_total_and_the_budget(capsys):
    # 1,200 evaluations go to the grid, the size-1 tables and ensembles and the
    # size-2 tables; the 100 states that size 2 keeps add C(100, 2) x 9 = 44,550.
    code, out, err = run(capsys, "certify", "--channel", "dep", "--lambda", "0.2",
                         "--n-states", "2", "--a-grid", "51", "--prob-grid", "10",
                         "--budget", "30000")
    assert code == 5
    assert out == ""
    assert err == ("oracle budget exceeded: the size-2 ensembles of 100 states bring the "
                   "evaluations to 4.58e+04, over the budget 3e+04\n")


def test_budget_refuses_a_size_before_building_its_compositions(capsys, monkeypatch):
    # Three-state compositions of a 10**5-step simplex would take 120 GB.
    built = []
    compositions = oracle._compositions

    def small_compositions(total, parts):
        assert parts < 3, "compositions built past the budget"
        built.append(parts)
        return compositions(total, parts)

    monkeypatch.setattr(oracle, "_compositions", small_compositions)
    # The second run finds the grid and the index rows of sizes 1 and 2 cached by
    # the first; its size-3 charge still comes before any composition is built.
    for runs in (1, 2):
        code, out, err = run(capsys, "certify", "--channel", "ad", "--gamma", "0.5",
                             "--n-states", "4", "--a-grid", "12", "--prob-grid", "100000")
        assert code == 5
        assert out == ""
        assert "size-3 tables" in err
        assert built == [1, 2] * runs


@pytest.mark.parametrize("command", CERTIFYING)
def test_wall_time_covers_the_oracle_search(capsys, monkeypatch, command):
    # wall_time_s is taken as the report is written, so it covers the oracle search.
    name = "oracle_capacity" if command == "certify" else "oracle_minimax"
    search = getattr(cli, name)

    def slow_search(*args):
        time.sleep(0.2)
        return search(*args)

    monkeypatch.setattr(cli, name, slow_search)
    report = run_json(capsys, *CERTIFYING[command], "--a-grid", "11", "--prob-grid", "4",
                      "--bound", "0.05")
    assert report["wall_time_s"] >= 0.2


@pytest.mark.parametrize("command", CERTIFYING)
def test_budget_counts_the_tabulated_states(capsys, monkeypatch, command):
    # A 10**9-point a-grid would tabulate 2e9 states before any size could be refused.
    def no_tables(*args):
        raise AssertionError("per-state tables built past the budget")

    monkeypatch.setattr(oracle, "_channel_table", no_tables)
    code, out, err = run(capsys, *CERTIFYING[command], "--a-grid", "1000000000")
    assert code == 5
    assert out == ""
    assert "budget" in err


# The keys of inputs and outputs, in the order the reports write them.
CERTIFYING_KEYS = {
    "certify": (
        ["channel", "gamma", "tol", "oracle"],
        ["solver_capacity_bits", "solver_a_max", "oracle_capacity_bits", "difference",
         "search_size", "oracle_ensemble"],
    ),
    "minimax": (
        ["channel1", "channel2", "weight1", "resolution", "oracle"],
        ["capacity_bits", "a_star", "min_branch", "a_cross", "branch_capacity_1",
         "branch_capacity_2", "min_branch_capacity", "separation_gap", "certification"],
    ),
}


@pytest.mark.parametrize("command", CERTIFYING)
def test_certifying_report_key_order(capsys, command):
    report = run_json(capsys, *CERTIFYING[command], "--a-grid", "11", "--prob-grid", "4",
                      "--bound", "0.05")
    inputs, outputs = CERTIFYING_KEYS[command]
    assert list(report) == [
        "schema_version", "command", "inputs", "wall_time_s", "outputs", "tolerances"]
    assert list(report["inputs"]) == inputs
    assert list(report["outputs"]) == outputs
    assert list(report["inputs"]["oracle"]) == [
        "n_states", "a_grid", "phase_grid", "prob_grid", "restrict_real_b", "budget"]
    if command == "certify":
        assert list(report["tolerances"]) == ["bound"]
    else:
        assert list(report["outputs"]["certification"]) == [
            "oracle_capacity_bits", "difference", "bound", "search_size"]


# Oracle values depend on the platform's log2, so only solver reports have golden bytes.
@pytest.mark.parametrize("argv, golden", [
    (["capacity", "--channel", "ad", "--gamma", "0.5"], "capacity_ad_golden.json"),
    (["minimax", "--gamma", "0.5", "--lambda", "0.24"], "minimax_golden.json"),
])
def test_report_file_matches_committed_golden(tmp_path, argv, golden):
    out_path = tmp_path / golden
    assert main(argv + ["--out", str(out_path)]) == 0
    assert out_path.read_bytes() == (DATA / golden).read_bytes()


def test_near_one_curve_file_matches_committed_golden(tmp_path):
    # 1,001 damping solves with 1 - gamma in [0, 1e-6], where the slope's rounding error
    # does not shrink with 1 - gamma; the solver's sign band must keep every bit here.
    out_path = tmp_path / "curve_ad_near_one_golden.csv"
    assert main(["curve", "--family", "ad", "--start", "0.999999", "--end", "1",
                 "--step", "1e-9", "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == (DATA / "curve_ad_near_one_golden.csv").read_bytes()


def test_chi_curves_file_matches_committed_golden(tmp_path):
    # The crossing row is bisected to 1e-12 through the float curve kernels.
    out_path = tmp_path / "chi_curves_golden.csv"
    assert main(["chi-curves", "--gamma", "0.5", "--lambda", "0.24", "--a-step", "0.01",
                 "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == (DATA / "chi_curves_golden.csv").read_bytes()


class TestConfigPrecedence:
    def test_config_file_supplies_tol(self, capsys, tmp_path):
        cfg = tmp_path / "qchan.toml"
        cfg.write_text("tol = 1e-6  # loose bracket\n")
        report = run_json(capsys, "capacity", "--channel", "ad", "--gamma", "0.5",
                          "--config", str(cfg))
        assert report["inputs"]["tol"] == 1e-6

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "qchan.toml"
        cfg.write_text("tol = 1e-6\n")
        report = run_json(capsys, "capacity", "--channel", "ad", "--gamma", "0.5",
                          "--config", str(cfg), "--tol", "1e-9")
        assert report["inputs"]["tol"] == 1e-9

    # threads is not a key, so its lines exit 2 as unknown keys
    @pytest.mark.parametrize("line", ["tol = abc", "threads = abc", "threads = 2.5x",
                                      "tol = true", "threads = 4.5", "threads = true"])
    def test_non_numeric_config_exits_2(self, capsys, tmp_path, line):
        cfg = tmp_path / "qchan.toml"
        cfg.write_text(line + "\n")
        code, _, err = run(capsys, "capacity", "--channel", "ad", "--gamma", "0.5",
                           "--config", str(cfg))
        assert code == 2
        assert line.split()[0] in err

    def test_non_utf8_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "qchan.toml"
        cfg.write_bytes(b"tol = \xff\n")
        code, _, err = run(capsys, "capacity", "--channel", "ad", "--gamma", "0.5",
                           "--config", str(cfg))
        assert code == 2
        assert "UTF-8" in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, kind):
        # exit 4 is for an unwritable --out path only
        path = tmp_path / "absent.toml" if kind == "missing" else tmp_path
        code, out, err = run(capsys, "capacity", "--channel", "ad", "--gamma", "0.5",
                             "--config", str(path))
        assert code == 2
        assert out == ""
        assert str(path) in err

    def test_bad_config_value_is_refused_under_a_flag(self, capsys, tmp_path):
        # the whole file is checked, whether or not a flag overrides the setting
        cfg = tmp_path / "qchan.toml"
        cfg.write_text("tol = abc\n")
        code, _, err = run(capsys, "capacity", "--channel", "ad", "--gamma", "0.5",
                           "--config", str(cfg), "--tol", "1e-9")
        assert code == 2
        assert "tol" in err


# Each command declares the settings it reads and refuses the others as unrecognized
# arguments: chi-curves bisects at a fixed 1e-12 and minimax at --resolution, so
# neither takes --tol; minimax and certify always write JSON, so neither takes --format.
DECLARED = {
    "capacity": {"--tol", "--format"},
    "curve": {"--tol", "--format"},
    "chi-curves": {"--format"},
    "ellipse": {"--tol", "--format"},
    "minimax": set(),
    "certify": {"--tol"},
}

COMMANDS = [
    ("capacity", "--channel", "ad", "--gamma", "0.5"),
    ("capacity", "--channel", "dep", "--lambda", "0.5"),
    ("curve", "--family", "ad", "--start", "0.4", "--end", "0.5", "--step", "0.05"),
    ("curve", "--family", "dep", "--start", "0.4", "--end", "0.5", "--step", "0.05"),
    ("chi-curves", "--gamma", "0.5", "--lambda", "0.24", "--a-step", "0.25"),
    ("ellipse", "--gamma", "0.5", "--n-points", "8"),
    ("minimax", "--gamma", "0.5", "--lambda", "0.24"),
    ("certify", "--channel", "dep", "--lambda", "0.5", "--a-grid", "11", "--prob-grid", "4"),
]


def command_id(argv):
    return f"{argv[0]}-{argv[2]}"


def with_format(argv, fmt):
    """``argv`` with ``--format fmt`` if its command declares --format."""
    return [*argv, "--format", fmt] if "--format" in DECLARED[argv[0]] else list(argv)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
@pytest.mark.parametrize("argv", COMMANDS, ids=command_id)
def test_bad_tol_exits_2(capsys, argv, tol, fmt):
    # curve --family ad --tol inf used to stop every bisection at once and exit 0;
    # the depolarizing family, which ignores tol, refuses the same values, and
    # chi-curves and minimax refuse --tol whatever its value
    code, out, err = run(capsys, *with_format(argv, fmt), "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tol" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", COMMANDS, ids=command_id)
def test_zero_threads_exits_2(capsys, argv, fmt):
    # no command reads threads, so every one refuses the flag
    code, out, err = run(capsys, *with_format(argv, fmt), "--threads", "0")
    assert code == 2
    assert out == ""
    assert "threads" in err


# Every pair of a command (one command line each) and a flag it does not declare.
UNDECLARED = [pytest.param(argv, flag, value, id=f"{argv[0]}{flag}")
              for argv in {argv[0]: argv for argv in COMMANDS}.values()
              for flag, value in (("--tol", "1e-9"), ("--format", "json"),
                                  ("--threads", "1"), ("--seed", "0"))
              if flag not in DECLARED[argv[0]]]


@pytest.mark.parametrize("argv, flag, value", UNDECLARED)
def test_undeclared_flag_exits_2(capsys, argv, flag, value):
    # main returns argparse's code instead of raising SystemExit
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv", COMMANDS, ids=command_id)
@pytest.mark.parametrize("line, setting", [("format = xml", "format"),
                                           ("tolerance = 1e-9", "tolerance")])
def test_bad_config_setting_exits_2(capsys, tmp_path, argv, line, setting):
    # capacity used to read an unknown format as JSON, and every command ignored
    # an unknown key
    cfg = tmp_path / "qchan.toml"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert setting in err


@pytest.mark.parametrize("argv, message", [
    (("minimax", "--gamma", "0.5", "--lambda", "0.24", "--weight1", "-1e-3"),
     "weight1 must lie in [0, 1], got -0.001"),
    (("capacity", "--channel", "ad", "--gamma", "-1e-3"), "gamma must lie in [0, 1], got -0.001"),
    (("curve", "--family", "ad", "--start", "-1E-3"), "need 0 <= start < end <= 1, got [-0.001"),
    (("curve", "--family", "ad", "--tol", "-.5"), "tol must be positive and finite, got -0.5"),
    (("capacity", "--channel", "ad", "--gamma", "0.5", "--tol", "-inf"),
     "tol must be positive and finite, got -inf"),
], ids=["minimax-weight1", "capacity-gamma", "curve-start", "curve-tol", "capacity-tol"])
def test_negative_exponent_form_reaches_its_check(capsys, argv, message):
    # argparse's own pattern takes "-1e-3" and "-inf" for options: "expected one argument"
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


class TestRowCaps:
    @pytest.mark.parametrize("argv", [
        ("curve", "--family", "ad", "--step", "1e-12"),
        ("curve", "--family", "dep", "--step", "5e-324"),
        ("chi-curves", "--gamma", "0.5", "--lambda", "0.24", "--a-step", "1e-300"),
        ("ellipse", "--gamma", "0.5", "--n-points", "1000001"),
    ])
    def test_oversized_output_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert str(cli.MAX_ROWS) in err

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ROWS", 10)
        code, out, _ = run(capsys, "curve", "--family", "dep", "--step", "0.1")
        assert code == 0
        assert len(parse_csv(out)[1]) == 11
        code, _, _ = run(capsys, "curve", "--family", "dep", "--step", "0.09")
        assert code == 2
        code, out, _ = run(capsys, "ellipse", "--gamma", "0.5", "--n-points", "10")
        assert code == 0
        assert len(parse_csv(out)[1]) == 12
        code, _, _ = run(capsys, "ellipse", "--gamma", "0.5", "--n-points", "11")
        assert code == 2


def test_readme_command_lines_parse():
    # the README's examples may name only flags that the parser declares
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [line for line in text.replace("\\\n", " ").splitlines() if line.startswith("qchan ")]
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        cli.build_parser().parse_args(argv)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_reports_equal_fresh_process(capsys, monkeypatch, tmp_path):
    root = pathlib.Path(__file__).parent.parent
    monkeypatch.chdir(root)
    minimax = ["minimax", "--gamma", "0.5", "--lambda", "0.24"]
    commands = [
        minimax[:1] + ["--certify"] + minimax[1:] + ["--a-grid", "21", "--prob-grid", "4",
                                                     "--bound", "0.05"],
        minimax,
        ["capacity", "--channel", "dep", "--lambda", "0.2"],
    ]
    reports = []
    for i, argv in enumerate(commands):
        here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
        assert main(argv + ["--out", str(here)]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "qchan", *argv, "--out", str(fresh)],
            capture_output=True, text=True, cwd=str(root),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert here.read_bytes() == fresh.read_bytes()
        reports.append(json.loads(here.read_text()))
    certified, plain, capacity = reports
    assert "certification" in certified["outputs"] and "oracle" in certified["inputs"]
    assert "certification" not in plain["outputs"] and "oracle" not in plain["inputs"]
    assert capacity["command"] == "capacity"
    assert set(capacity["inputs"]) == {"channel", "lambda", "tol"}


class TestJsonFileOutput:
    def test_file_omits_wall_time_and_is_byte_stable(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(capsys, "capacity", "--channel", "ad", "--gamma", "0.5", "--out", str(first))
        run(capsys, "capacity", "--channel", "ad", "--gamma", "0.5", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text())
        assert "wall_time_s" not in report
        assert report["outputs"]["capacity_bits"] == capacity_amplitude_damping(0.5).capacity_bits


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qchan", "capacity", "--channel", "dep", "--lambda", "0.5"],
        capture_output=True, text=True,
        cwd=str(pathlib.Path(__file__).parent.parent),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert abs(report["outputs"]["capacity_bits"] - (1.0 - binary_entropy(0.25))) < 1e-15


@pytest.mark.parametrize("argv, code", [
    ("certify --channel ad --gamma 0.5 --a-grid 21 --prob-grid 4", cli.EXIT_OK),
    ("minimax --ch1 ad:0.4 --ch2 dep:0.2 --certify --n-states 3 --a-grid 51 --prob-grid 10",
     cli.EXIT_OK),
    # On this grid the solver-oracle difference is 8.9e-4, over the default bound.
    ("minimax --gamma 0.5 --lambda 0.24 --certify --a-grid 11 --prob-grid 4", cli.EXIT_CERTIFY),
])
def test_fresh_process_writes_stderr_only_on_failure(argv, code):
    # In a fresh process: under pytest the root logger already has handlers, so
    # a logging set-up in main would not show here.
    proc = subprocess.run(
        [sys.executable, "-m", "qchan", *shlex.split(argv)],
        capture_output=True, text=True,
        cwd=str(pathlib.Path(__file__).parent.parent),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == code, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] in ("certify", "minimax")
    if code == cli.EXIT_OK:
        assert proc.stderr == ""
    else:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("certification failure:")
