"""Property test: whatever the tol, format and config text, every command ends with a
documented exit code and never with a traceback."""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import cli

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_SOLVER, cli.EXIT_IO,
              cli.EXIT_BUDGET, cli.EXIT_CERTIFY}

# Every command at a grid small enough to finish in milliseconds, with the settings it
# declares; it is given only those, so that examples reach the settings resolver.
COMMANDS = [
    (["capacity", "--channel", "ad", "--gamma", "0.5"], {"--tol", "--format"}),
    (["curve", "--family", "ad", "--start", "0.4", "--end", "0.5", "--step", "0.05"],
     {"--tol", "--format"}),
    (["chi-curves", "--gamma", "0.5", "--lambda", "0.24", "--a-step", "0.25"], {"--format"}),
    (["ellipse", "--gamma", "0.5", "--n-points", "4"], {"--tol", "--format"}),
    (["minimax", "--gamma", "0.5", "--lambda", "0.24", "--certify", "--a-grid", "5",
      "--prob-grid", "2"], set()),
    (["certify", "--channel", "dep", "--lambda", "0.5", "--a-grid", "5", "--prob-grid", "2"],
     {"--tol"}),
]

NOTABLE = ["0", "-1", "1", "3", "1e-9", "1e-300", "5e-324", "1e308", "inf", "-inf", "nan",
           "2.5", "true", "csv", "json", "xml", "", " ", "'4'", "\"json\"", "0x10", "1_0"]
VALUES = st.sampled_from(NOTABLE) | st.text(max_size=6)


def flag(parsed):
    """Omitted, or text argparse parses, each twice as likely as arbitrary text, so
    most examples get past argparse to the settings resolver."""
    return st.one_of(st.none(), st.none(), parsed, parsed, VALUES)


TOLS = flag(st.floats().map(repr))
FORMATS = flag(st.sampled_from(["csv", "json"]))
KEYS = st.sampled_from(["tol", "threads", "format", "tolerance", "", "tol tol"])
LINES = st.tuples(KEYS, VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}") | st.text(max_size=12)
CONFIGS = st.none() | st.lists(LINES, max_size=3).map("\n".join)


@pytest.mark.parametrize("argv, declared", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(tol=TOLS, fmt=FORMATS, config=CONFIGS)
def test_any_setting_ends_in_a_documented_exit_code(argv, declared, tol, fmt, config):
    argv = list(argv)
    for flag, value in (("--tol", tol), ("--format", fmt)):
        if value is not None and flag in declared:
            argv += [flag, value]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "qchan.toml")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(config)
            argv += ["--config", path]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)  # argparse's refusals return 2 too
    assert code in EXIT_CODES, (argv, config, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code == cli.EXIT_USAGE:
        assert stdout.getvalue() == ""
