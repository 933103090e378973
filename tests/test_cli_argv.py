"""Property test of the command line: any argv ends with exit code 0, 2, 3 or 4.

Tokens come from small fixed pools, so no example runs a long sweep; file tokens
name files under a temporary directory. ``python -m photonsteer`` is checked in a
subprocess.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

import photonsteer  # noqa: E402
from photonsteer.cli import EXIT_OK, EXIT_PHYSICS, EXIT_USAGE, main  # noqa: E402
from photonsteer.scenarios import FIG1_CIRCUIT  # noqa: E402

# The flags of each subcommand, and values per flag, valid and invalid;
# "@name" tokens stand for the files of the ``files`` fixture.
FLAGS_OF = {
    "run": ["--format", "--out"],
    "steer": ["--preset", "--input", "--settings", "--grid", "--bob-site", "--out"],
    "sweep": ["--range", "--step", "--grid", "--chsh-step", "--format", "--out"],
    "report": ["--preset", "--site", "--basis", "--out"],
}
FLAG_VALUES = {
    "--preset": ["eq1", "twc", "hardy", "hardy:0.6,0.8", "hardy:0,0", "hardy:x", "hardy:nan,nan",
                 "qplate_tripartite", "noisy:0.5", "noisy:2", "noisy:nan", "noisy:", "fig9"],
    "--input": ["@state", "@vacuum", "@fig1", "@bad", "@missing", "@dir"],
    "--settings": ["Z,X", "Z,X,Y", "Z", "Z,Z", "X,Q", ","],
    "--grid": ["6", "10", "0", "-1", "5", "101", "1000000000", "x"],
    "--bob-site": ["NY", "PUE", "b1", "b2", "in", ""],
    "--out": ["@out", "@dir", "@missing/out", "-"],
    "--format": ["json", "csv", "xml"],
    "--range": ["0.5..0.5", "0.6..0.7", "1..1", "1..0", "a..b", "0..2", "..", "nan..1"],
    "--step": ["0.05", "0.5", "0", "-1", "nan", "inf", "1e-9", "1.05e-16"],
    "--chsh-step": ["2", "3", "5", "7", "90", "360", "720", "0.5", "nan", "inf", "-inf", "1e-300",
                    "0.9999999"],
    "--site": ["NY", "PUE", "b1", "in", "zz"],
    "--basis": ["ZHV", "Xdiag", "Ycirc", "OAMpm", "occupation", "Q"],
}
CIRCUITS = ["@fig1", "@bad", "@missing", "@dir"]
STRAYS = ["-h", "--registers", "--seed", "--grid", "--", "7", "@fig1"]


@st.composite
def argvs(draw):
    """A subcommand with up to four of its own flags, sometimes a stray token."""
    command = draw(st.sampled_from(sorted(FLAGS_OF) + ["teleport", "--help", ""]))
    argv = [command]
    if command == "run":
        argv += draw(st.lists(st.sampled_from(CIRCUITS), max_size=1))
    for flag in draw(st.lists(st.sampled_from(FLAGS_OF.get(command, ["--out"])), max_size=4)):
        argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
    stray = draw(st.sampled_from([None] * 4 + STRAYS))
    return argv + ([stray] if stray else [])


def with_vacuum_weight(state, weight, out):
    """The 'run' state file ``state`` rescaled to put ``weight`` on the vacuum, at norm 1."""
    doc = json.loads(state.read_text())
    scale = math.sqrt(1.0 - weight)
    doc["amplitudes"] = [[math.sqrt(weight), 0.0]] + [
        [re * scale, im * scale] for re, im in doc["amplitudes"][1:]]
    out.write_text(json.dumps(doc))
    return out


@pytest.fixture
def files(tmp_path):
    fig1 = tmp_path / "fig1.table"
    fig1.write_text(FIG1_CIRCUIT)
    state = tmp_path / "state.json"
    assert main(["run", str(fig1), "--out", str(state)]) == 0
    # inside the 1e-9 norm tolerance of --input and the 1e-10 vacuum tolerance of pol-path
    vacuum = with_vacuum_weight(state, 5e-11, tmp_path / "vacuum.json")
    bad = tmp_path / "bad.table"
    bad.write_text("hwp ghost 10\n")
    return {"@fig1": fig1, "@state": state, "@vacuum": vacuum, "@bad": bad,
            "@missing": tmp_path / "missing",
            "@missing/out": tmp_path / "missing" / "out", "@dir": tmp_path,
            "@out": tmp_path / "out"}


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tokens=argvs())
def test_any_argv_exits_0_2_3_or_4(files, capsys, tokens):
    argv = [str(files.get(t, t)) for t in tokens]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in capsys.readouterr().err, argv


# An unknown subcommand is a usage error, exit 4 like every argparse error here.
@pytest.mark.parametrize("argv, code", [(["steer", "--preset", "eq1", "--grid", "6"], EXIT_OK),
                                        (["teleport"], EXIT_USAGE)])
def test_python_dash_m_runs_the_command_line(argv, code):
    src = str(Path(photonsteer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "photonsteer", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr


def test_fig1_with_vacuum_weight_inside_tolerance_reads_pol_path(files, tmp_path):
    out = tmp_path / "steer.json"
    assert main(["steer", "--input", str(files["@vacuum"]), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["frame"] == "pol-path(bob=PUE)"


def test_fig1_with_vacuum_weight_past_tolerance_names_the_vacuum(files, tmp_path, capsys):
    state = with_vacuum_weight(files["@state"], 2e-10, tmp_path / "vacuum-2e-10.json")
    assert main(["steer", "--input", str(state)]) == EXIT_PHYSICS
    assert capsys.readouterr().err.startswith("state has vacuum weight")
