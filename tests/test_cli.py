"""Command-line front end: exit codes, JSON/CSV schemas, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import photonsteer
from photonsteer import cli, scenarios, simplex, steering
from photonsteer.cli import main
from photonsteer.circuit import MAX_ELEMENT_KETS
from photonsteer.core import MAX_DIM
from photonsteer.errors import BadParameters
from photonsteer.scenarios import FIG1_CIRCUIT

SQRT_HALF_16_DIGITS = 0.7071067811865476
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.table"
    path.write_text(FIG1_CIRCUIT)
    return path


class TestJsonText:
    """The JSON writer of run, steer, sweep and report against the standard encoder."""

    DOCUMENTS = [
        {}, [], (), {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": ()}}},
        (1, (2.5, ()), [(), {}]),
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e-300, 0.1, 1e16],
        {"t": True, "f": False, "n": None, "big": 10**40, "neg": -(10**25), "zero": 0},
        {"caf\u00e9 \"q\" \\ \n\t\x00\x1f \u2603 \U0001f600": "\u00fc\"\n\x7f\x1b \U0001f600"},
        ["", "\"", "\\", "\u2028"],
        [np.float64(0.1), np.float64(-0.0), np.float64(math.nan), {"x": np.float64(math.inf)}],
        {"nested": [{"k": (np.float64(1.5), [np.float64(2.0)])}]},
        {1: "int key", 2.5: [1], True: None, None: {}},
        [{"deep": {0: [1, 2], "s": "v"}}],
        [1.0, "1.0", 1, True, None, [None], {"": ""}],
    ]

    @pytest.mark.parametrize("doc", DOCUMENTS)
    def test_equals_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        np.int64(3), [1, {"a": np.int64(2)}], {"a": {(1, 2): 3}}, {"a": 1, (1,): 2},
        {"set": {1, 2}}, [object()], [b"bytes"],
    ])
    def test_refuses_what_json_dumps_refuses(self, doc):
        with pytest.raises(Exception) as expected:
            json.dumps(doc, indent=2)
        with pytest.raises(type(expected.value)) as raised:
            cli._json_text(doc)
        assert str(raised.value) == str(expected.value)


class TestRun:
    def test_preparation_circuit_amplitudes(self, fig1_file, tmp_path):
        out = tmp_path / "state.json"
        assert main(["run", str(fig1_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        mags = sorted(abs(complex(re, im)) for re, im in doc["amplitudes"])
        nonzero = [m for m in mags if m > 1e-12]
        assert len(nonzero) == 2
        for mag in nonzero:  # 1/sqrt(2) to 16 digits, one ulp of libm slack
            assert mag == pytest.approx(SQRT_HALF_16_DIGITS, abs=5e-16)
        assert doc["norm"] == pytest.approx(1.0, abs=1e-12)

    def test_parse_error_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.table"
        bad.write_text("hwp ghost 10\n")
        assert main(["run", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_empty_file_gives_vacuum(self, tmp_path, capsys):
        empty = tmp_path / "empty.table"
        empty.write_text("")
        assert main(["run", str(empty)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["basis"] == ["vac"]
        assert doc["amplitudes"] == [[1.0, 0.0]]

    def test_physics_error_exits_3(self, tmp_path, capsys):
        double = tmp_path / "double.table"
        double.write_text("sites a b\nsource a H\nsource b H\n")
        assert main(["run", str(double)]) == 3
        assert "element" in capsys.readouterr().err

    @pytest.mark.parametrize("element", ["phase", "hwp", "qwp"])
    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_non_finite_angle_exits_2_with_line(self, tmp_path, capsys, element, angle):
        table = tmp_path / "nan.table"
        table.write_text(f"sites a b\nsource a H\n{element} a {angle}\n")
        assert main(["run", str(table)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3" in captured.err and captured.err.count("\n") == 1

    def test_missing_file_exits_4(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.table")]) == 4

    def test_non_utf8_file_exits_2_with_line_and_column(self, tmp_path, capsys):
        table = tmp_path / "latin.table"
        table.write_bytes(b"sites a b\nsource a H\n\xff\n")
        assert main(["run", str(table)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3" in captured.err and "col" in captured.err
        assert captured.err.count("\n") == 1

    def test_byte_order_mark_file_runs_like_the_plain_file(self, fig1_file, tmp_path, capsys):
        marked = tmp_path / "fig1-bom.table"
        marked.write_bytes(b"\xef\xbb\xbf" + fig1_file.read_bytes())
        assert main(["run", str(fig1_file)]) == 0
        plain = capsys.readouterr()
        assert main(["run", str(marked)]) == 0
        assert capsys.readouterr() == plain

    # Made before the JSON writer stopped calling json.dumps: these bytes must not move.
    def test_golden_bytes(self, tmp_path):
        out = tmp_path / "state.json"
        assert main(["run", str(GOLDEN / "run_qplate.table"), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "run_qplate.json").read_bytes()

    def test_csv_format(self, fig1_file, tmp_path):
        out = tmp_path / "state.csv"
        assert main(["run", str(fig1_file), "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "ket,re,im"
        amplitudes = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
        assert amplitudes["NY:V:0"] == pytest.approx(SQRT_HALF_16_DIGITS, abs=5e-16)


class TestSteer:
    def test_entangled_preset(self, tmp_path):
        out = tmp_path / "steer.json"
        assert main(["steer", "--preset", "eq1", "--settings", "Z,X",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["cjwr"] == pytest.approx(1.4142136, abs=1e-6)
        assert doc["lhs_verdict"] == "NoLHSFoundAtResolution"
        assert doc["chsh"]["value"] == pytest.approx(2.8284271, abs=1e-6)
        assert doc["no_signaling_residual"] < 1e-9

    def test_low_visibility_certified_with_certificate(self, tmp_path):
        out = tmp_path / "steer.json"
        assert main(["steer", "--preset", "noisy:0.4", "--settings", "Z,X",
                     "--grid", "20", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["lhs_verdict"] == "UnsteerableCertified"
        assert doc["lhs_residual"] < 1e-7
        weights = [entry["weight"] for entry in doc["certificate"]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-8)

    def test_path_only_preset_uses_occupation_registers(self, tmp_path):
        out = tmp_path / "steer.json"
        assert main(["steer", "--preset", "twc", "--settings", "Z,X",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["frame"] == "occ-occ(b1,b2)"

    def test_preset_and_input_mutually_exclusive(self, fig1_file, capsys):
        assert main(["steer", "--preset", "eq1", "--input", str(fig1_file)]) == 4

    def test_single_setting_rejected(self):
        assert main(["steer", "--preset", "eq1", "--settings", "Z"]) == 4

    def test_state_json_round_trip(self, fig1_file, tmp_path):
        state_path = tmp_path / "state.json"
        steer_path = tmp_path / "steer.json"
        assert main(["run", str(fig1_file), "--out", str(state_path)]) == 0
        assert main(["steer", "--input", str(state_path), "--settings", "Z,X",
                     "--out", str(steer_path)]) == 0
        doc = json.loads(steer_path.read_text())
        assert doc["cjwr"] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_bad_preset_exits_3(self, capsys):
        assert main(["steer", "--preset", "noisy:2.0", "--settings", "Z,X"]) == 3

    def test_non_finite_hardy_preset_exits_3(self, capsys):
        assert main(["steer", "--preset", "hardy:nan,nan", "--settings", "Z,X"]) == 3
        assert capsys.readouterr().err.count("\n") == 1

    def test_repeated_setting_exits_4(self, capsys):
        assert main(["steer", "--preset", "eq1", "--settings", "Z,Z"]) == 4
        assert "repeated" in capsys.readouterr().err

    def test_fine_grid_certifies_without_pivot_count_in_output(self, tmp_path):
        out = tmp_path / "steer.json"
        assert main(["steer", "--preset", "noisy:0.65", "--grid", "60",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["lhs_verdict"] == "UnsteerableCertified"
        assert "pivots" not in doc

    @staticmethod
    def assert_golden_steer(tmp_path, spec, settings):
        out = tmp_path / "steer.json"
        assert main(["steer", "--preset", spec, "--settings", settings, "--grid", "20",
                     "--out", str(out)]) == 0
        golden = GOLDEN / f"steer_{spec.replace(':', '_')}_{settings.replace(',', '')}.json"
        assert out.read_bytes() == golden.read_bytes()

    # Z,X made before three- and four-setting verdicts moved off the grid: every two-setting
    # verdict (exact path, margin proof, certificate) must keep these bytes. X,Z made
    # before members and correlators were read from tables over every axis.
    @pytest.mark.parametrize("spec, settings", [
        *[(spec, "Z,X") for spec in ["noisy:0.4", "noisy:0.69", "noisy:0.8", "eq1", "twc",
                                     "hardy", "qplate_tripartite"]],
        ("noisy:0.69", "X,Z"), ("eq1", "X,Z")])
    def test_two_setting_golden_bytes(self, tmp_path, spec, settings):
        self.assert_golden_steer(tmp_path, spec, settings)

    # Column generation's three answers, made before its solver built one column block per
    # solve and the JSON writer stopped calling json.dumps: a certificate (noisy:0.5), a
    # witness found in round 0 (twc) and one found after more rounds (hardy). Y,X,Z made
    # before members and correlators were read from tables over every axis. noisy:0.5 Z,X,Y
    # made again when the solver took a dense A and priced every column in one product:
    # the summation order moved eleven certificate weights in their last 1-3 digits.
    @pytest.mark.parametrize("spec, settings", [
        ("noisy:0.5", "Z,X,Y"), ("twc", "Z,X,Y"), ("hardy", "Z,X,Y"),
        ("noisy:0.5", "Y,X,Z"), ("twc", "Y,X,Z")])
    def test_three_setting_golden_bytes(self, tmp_path, spec, settings):
        self.assert_golden_steer(tmp_path, spec, settings)

    # Z,X is decided by the exact path, Z,X,Y by column generation; neither verdict
    # carries the grid, which steer writes from --grid alone, whatever the integer.
    @pytest.mark.parametrize("settings", ["Z,X", "Z,X,Y"])
    @pytest.mark.parametrize("grid", [-1, 0, 6, 100, 1000])
    def test_grid_n_is_the_grid_requested(self, tmp_path, settings, grid):
        out = tmp_path / "steer.json"
        assert main(["steer", "--preset", "noisy:0.4", "--settings", settings,
                     "--grid", str(grid), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["grid_n"] == grid
        assert list(doc).index("grid_n") == list(doc).index("lhs_verdict") + 1

    def test_grid_changes_only_the_grid_n_line(self, tmp_path):
        paths = {grid: tmp_path / f"steer_{grid}.json" for grid in ("20", "1000")}
        for grid, out in paths.items():
            assert main(["steer", "--preset", "noisy:0.69", "--settings", "Z,X",
                         "--grid", grid, "--out", str(out)]) == 0
        wide = paths["1000"].read_bytes().replace(b'"grid_n": 1000,', b'"grid_n": 20,')
        assert wide == paths["20"].read_bytes()

    @pytest.mark.parametrize("spec", ["twc", "noisy:0.9"])
    def test_witness_replays_from_the_written_file(self, tmp_path, spec):
        out = tmp_path / "steer.json"
        assert main(["steer", "--preset", spec, "--settings", "Z,X,Y", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["lhs_verdict"] == "NoLHSFoundAtResolution" and "certificate" not in doc
        assert list(doc)[-2:] == ["lhs_residual", "witness"] and len(doc["witness"]) == 16
        members = {(x, a): np.array([[complex(*z) for z in row]
                                     for row in doc["assemblage"][scenarios.member_key(x, a)]])
                   for x in doc["settings"] for a in (+1, -1)}
        asm = steering.Assemblage(tuple(doc["settings"]), members)
        verdict = steering.SteeringVerdict(doc["lhs_verdict"], doc["lhs_residual"], None, 0,
                                           tuple(doc["witness"]))
        assert steering.replay_witness(verdict, asm) == doc["lhs_residual"]

    def test_solver_breakdown_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
        # Three settings: a two-setting verdict needs no simplex.
        assert main(["steer", "--preset", "noisy:0.65", "--settings", "Z,X,Y"]) == 3
        err = capsys.readouterr().err
        assert "did not converge" in err
        assert "Traceback" not in err

    def test_a_nearly_product_hardy_state_is_decided(self, tmp_path):
        # Bob's marginal is pure to rounding and the added states crowd round one point,
        # where rounding noise passes an absolute pivot tolerance: a singular basis, exit 3.
        out = tmp_path / "steer.json"
        assert main(["steer", "--preset", "hardy:0.9999999949278624,0.00010071879231448487",
                     "--settings", "X,Y", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["lhs_verdict"] == "UnsteerableCertified" and doc["lhs_residual"] < 1e-7


    def test_missing_input_file_exits_4(self, tmp_path, capsys):
        assert main(["steer", "--input", str(tmp_path / "nope.json")]) == 4
        err = capsys.readouterr().err
        assert "nope.json" in err and "Traceback" not in err

    def test_input_not_json_exits_4(self, fig1_file, capsys):
        assert main(["steer", "--input", str(fig1_file)]) == 4
        assert "JSONDecodeError" in capsys.readouterr().err

    def test_input_missing_key_exits_4(self, fig1_file, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        assert main(["run", str(fig1_file), "--out", str(state_path)]) == 0
        doc = json.loads(state_path.read_text())
        del doc["oam"]
        state_path.write_text(json.dumps(doc))
        assert main(["steer", "--input", str(state_path)]) == 4
        assert "'oam'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, spoil, needle", [
        ("amplitudes", lambda amps: amps[:3], "3 amplitudes"),
        ("amplitudes", lambda amps: [[float("nan"), 0.0]] + amps[1:], "not finite"),
        ("amplitudes", lambda amps: [[2 * re, 2 * im] for re, im in amps], "norm 2.0"),
        # Finite, but its norm overflows; numpy's overflow warning must not reach stderr.
        ("amplitudes", lambda amps: [[1e200, 0.0]] + amps[1:],
         "ValueError: norm inf is not 1 within 1e-09"),
        ("oam", lambda oam: [float("inf")], "OAM value inf is not an integer"),
        ("oam", lambda oam: [0.5], "OAM value 0.5 is not an integer"),
        ("oam", lambda oam: [True], "OAM value True is not an integer"),
        ("basis", lambda basis: basis[:1] + [[site, pol, 0.5] for site, pol, _ in basis[1:]],
         "OAM value 0.5 is not an integer"),
    ], ids=["truncated", "nan", "unnormalised", "overflowing-norm", "infinite-oam", "half-oam",
            "bool-oam", "half-oam-in-basis"])
    def test_input_that_is_not_a_unit_state_exits_4(self, fig1_file, tmp_path, capsys,
                                                    key, spoil, needle):
        state_path = tmp_path / "state.json"
        assert main(["run", str(fig1_file), "--out", str(state_path)]) == 0
        doc = json.loads(state_path.read_text())
        doc[key] = spoil(doc[key])
        state_path.write_text(json.dumps(doc))
        assert main(["steer", "--input", str(state_path)]) == 4
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err
        assert err.count("\n") == 1

    def test_input_amplitude_too_large_for_a_float_exits_4(self, fig1_file, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        assert main(["run", str(fig1_file), "--out", str(state_path)]) == 0
        doc = json.loads(state_path.read_text())
        doc["amplitudes"][0] = [10 ** 400, 0]
        state_path.write_text(json.dumps(doc))
        assert main(["steer", "--input", str(state_path)]) == 4
        err = capsys.readouterr().err
        assert "cannot read a 'run' state" in err and "OverflowError" in err
        assert err.count("\n") == 1

    def test_input_naming_a_ket_twice_exits_4(self, tmp_path, capsys):
        # The written amplitudes have norm² 1.36; keeping only the last of the two
        # H amplitudes at site a would read as a unit state.
        s = 1.0 / np.sqrt(2.0)
        doc = {"sites": ["a", "b"], "oam": [0],
               "basis": ["vac", ["a", "H", 0], ["a", "H", 0], ["b", "H", 0]],
               "amplitudes": [[0.0, 0.0], [0.6, 0.0], [s, 0.0], [s, 0.0]]}
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(doc))
        assert main(["steer", "--input", str(state_path)]) == 4
        err = capsys.readouterr().err
        assert "cannot read a 'run' state" in err and "|a,H,0>" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("entry", [["zz", "H", 0], ["a", "H", 2]],
                             ids=["undeclared-site", "undeclared-oam"])
    def test_input_with_a_basis_entry_outside_its_declaration_exits_4(self, tmp_path, capsys,
                                                                      entry):
        s = 1.0 / np.sqrt(2.0)
        doc = {"sites": ["a", "b"], "oam": [0], "basis": ["vac", ["a", "H", 0], entry],
               "amplitudes": [[0.0, 0.0], [s, 0.0], [s, 0.0]]}
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(doc))
        assert main(["steer", "--input", str(state_path)]) == 4
        err = capsys.readouterr().err
        assert "cannot read a 'run' state" in err
        assert f"basis entry {entry!r} is outside the declared sites and OAM values" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("sites, entry, needle", [
        ("ab", ["b", "H", 0], "sites 'ab' is not a list"),
        (["a", "b"], ["b", "H", 0, "junk"],
         """basis entry ['b', 'H', 0, 'junk'] is not "vac" or [site, pol, oam]"""),
        ([1, 2], [2, "H", 0], "site 1 is not an identifier"),
        (["", "b"], ["b", "H", 0], "site '' is not an identifier"),
        (["a", "b-c"], ["b-c", "H", 0], "site 'b-c' is not an identifier"),
    ], ids=["sites-string", "four-part-entry", "integer-sites", "empty-site", "dashed-site"])
    def test_input_of_a_malformed_declaration_exits_4(self, tmp_path, capsys, sites, entry,
                                                       needle):
        # Each would otherwise read as a unit state, (|a,H,0> + |b,H,0>)/√2 or the like.
        s = 1.0 / np.sqrt(2.0)
        doc = {"sites": sites, "oam": [0], "basis": ["vac", [sites[0], "H", 0], entry],
               "amplitudes": [[0.0, 0.0], [s, 0.0], [s, 0.0]]}
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(doc))
        assert main(["steer", "--input", str(state_path)]) == 4
        err = capsys.readouterr().err
        assert "cannot read a 'run' state" in err and needle in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("amplitudes, needle", [
        ([[0.0, 0.0], [1.0 / np.sqrt(2.0), False], [1.0 / np.sqrt(2.0), 0.0]],
         "[0.7071067811865475, False]"),
        ([[0.0, 0.0], [True, 0.0], [0.0, 0.0]], "[True, 0.0]"),
    ], ids=["false-part", "true-part"])
    def test_input_of_a_boolean_amplitude_part_exits_4(self, tmp_path, capsys, amplitudes,
                                                       needle):
        # JSON true and false would otherwise read as 1 and 0, a unit state either way.
        doc = {"sites": ["a", "b"], "oam": [0],
               "basis": ["vac", ["a", "H", 0], ["b", "H", 0]], "amplitudes": amplitudes}
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(doc))
        assert main(["steer", "--input", str(state_path)]) == 4
        err = capsys.readouterr().err
        assert "cannot read a 'run' state" in err
        assert f"amplitude {needle} has a part that is not a number" in err
        assert err.count("\n") == 1

    def test_deeply_nested_input_exits_4(self, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        state_path.write_text("[" * 200_000)
        assert main(["steer", "--input", str(state_path)]) == 4
        err = capsys.readouterr().err
        assert "cannot read a 'run' state" in err and "RecursionError" in err
        assert err.count("\n") == 1

    def test_registers_flag_is_gone(self):
        with pytest.raises(SystemExit) as err:
            main(["steer", "--preset", "eq1", "--registers", "occ-occ"])
        assert err.value.code == 4

    def test_bob_site_on_two_qubit_preset_exits_3(self, capsys):
        assert main(["steer", "--preset", "noisy:0.5", "--bob-site", "PUE"]) == 3
        err = capsys.readouterr().err
        assert "'PUE'" in err and err.count("\n") == 1


class TestFrameRule:
    """``steer --preset``, ``steer --input`` and ``report`` read one frame rule."""

    def _run_then_steer(self, text, tmp_path, settings="Z,X"):
        table, state, out = tmp_path / "c.table", tmp_path / "s.json", tmp_path / "o.json"
        table.write_text(text)
        assert main(["run", str(table), "--out", str(state)]) == 0
        assert main(["steer", "--input", str(state), "--settings", settings,
                     "--out", str(out)]) == 0
        return json.loads(out.read_text())

    @pytest.mark.parametrize("settings", ["Z,X", "Z,X,Y"])
    def test_split_photon_input_matches_twc_preset(self, tmp_path, settings):
        doc = self._run_then_steer("sites b1 b2\nsource b1 H\nbs b1 b2\n", tmp_path, settings)
        preset_out = tmp_path / "preset.json"
        assert main(["steer", "--preset", "twc", "--settings", settings,
                     "--out", str(preset_out)]) == 0
        want = json.loads(preset_out.read_text())
        assert doc["frame"] == want["frame"] == "occ-occ(b1,b2)"
        assert doc["assemblage"].keys() == want["assemblage"].keys()
        for key, member in want["assemblage"].items():
            np.testing.assert_allclose(doc["assemblage"][key], member, rtol=0, atol=1e-12)
        assert doc["cjwr"] == pytest.approx(want["cjwr"], abs=1e-12)

    def test_diagonal_photon_split_over_two_paths_reads_occ_occ(self, tmp_path):
        doc = self._run_then_steer("sites a b\nsource a H\nhwp a 22.5\nbs a b\n", tmp_path)
        assert doc["frame"] == "occ-occ(a,b)"
        assert doc["cjwr"] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_photon_split_over_two_paths_with_2048_oam_values_reads_occ_occ(self, tmp_path):
        oam = " ".join(str(m) for m in range(-1024, 1024))
        doc = self._run_then_steer(f"sites a b\noam {oam}\nsource a H\nbs a b\n", tmp_path)
        assert doc["frame"] == "occ-occ(a,b)"

    def test_alice_is_the_occupied_site_besides_bob(self, tmp_path):
        # "in" is declared first and ends empty; the photon is H at NY and PUE.
        text = "sites in NY PUE\nsource in H\npbs in -> PUE NY\nbs PUE NY\n"
        doc = self._run_then_steer(text, tmp_path)
        assert doc["frame"] == "occ-occ(NY,PUE)"
        assert doc["cjwr"] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_photon_on_two_sites_besides_bob_exits_3(self, tmp_path, capsys):
        table, state = tmp_path / "c.table", tmp_path / "s.json"
        table.write_text("sites in a b\nsource in H\nbs in a\n")
        assert main(["run", str(table), "--out", str(state)]) == 0
        assert main(["steer", "--input", str(state), "--bob-site", "b"]) == 3
        err = capsys.readouterr().err
        assert "besides Bob's site 'b'" in err and "Traceback" not in err

    def test_default_bob_is_the_later_of_two_occupied_sites(self, tmp_path):
        # "b" is declared last but stays empty; the photon sits at "in" and "a".
        table, state = tmp_path / "c.table", tmp_path / "s.json"
        table.write_text("sites in a b\nsource in H\nbs in a\n")
        assert main(["run", str(table), "--out", str(state)]) == 0
        default, named = tmp_path / "default.json", tmp_path / "named.json"
        assert main(["steer", "--input", str(state), "--out", str(default)]) == 0
        assert main(["steer", "--input", str(state), "--bob-site", "a", "--out", str(named)]) == 0
        assert default.read_bytes() == named.read_bytes()
        assert json.loads(default.read_text())["frame"] == "occ-occ(in,a)"

    def test_fig1_round_trip_reads_pol_path(self, tmp_path):
        doc = self._run_then_steer(FIG1_CIRCUIT, tmp_path)
        assert doc["frame"] == "pol-path(bob=PUE)"

    @pytest.mark.parametrize("text", ["", "sites a\nsource a H\n"], ids=["vacuum", "one-site"])
    def test_input_with_fewer_than_two_sites_exits_3(self, tmp_path, capsys, text):
        table, state = tmp_path / "c.table", tmp_path / "s.json"
        table.write_text(text)
        assert main(["run", str(table), "--out", str(state)]) == 0
        assert main(["steer", "--input", str(state)]) == 3
        err = capsys.readouterr().err
        assert "two sites" in err and "Traceback" not in err


class TestSweep:
    def test_range_that_is_not_numbers_exits_4(self, capsys):
        assert main(["sweep", "--range", "a..b"]) == 4
        assert capsys.readouterr().err == "bad --range 'a..b', expected like 0..1\n"

    def test_eleven_rows_with_linear_cjwr_and_transition(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--range", "0..1", "--step", "0.1",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "v,cjwr,chsh_opt,lhs_verdict"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 11
        verdicts = []
        for v_text, cjwr_text, chsh_text, verdict in rows:
            v = float(v_text)
            assert abs(float(cjwr_text) - v * np.sqrt(2.0)) < 1e-6
            assert float(chsh_text) <= 2.0 * np.sqrt(2.0) + 1e-9
            verdicts.append(verdict)
        assert verdicts[7] == "UnsteerableCertified"  # v = 0.7
        assert verdicts[8] == "NoLHSFoundAtResolution"  # v = 0.8
        # One clean transition only.
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips == 1

    def test_sweep_flag_is_gone(self):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--sweep", "v"])
        assert err.value.code == 4

    def test_zero_step_exits_4(self):
        assert main(["sweep", "--range", "0..1", "--step", "0"]) == 4

    def test_nan_step_exits_4(self, capsys):
        assert main(["sweep", "--step", "nan", "--grid", "6"]) == 4
        assert "finite step" in capsys.readouterr().err

    def test_too_many_points_exits_4_before_sweeping(self, monkeypatch, capsys):
        def no_sweep(v):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(scenarios, "noisy_state", no_sweep)
        # Range 0..1 at this step holds one point more than the cap.
        assert main(["sweep", "--step", repr(1.0 / cli.MAX_SWEEP_POINTS)]) == 4
        assert str(cli.MAX_SWEEP_POINTS) in capsys.readouterr().err

    def test_step_too_small_to_move_v_exits_4(self):
        # 1.0 + 1.05e-16 == 1.0, so the loop makes the same point until the bound stops it;
        # the old estimate (hi - lo + 1e-12) / step = 9524 let it run forever. A subprocess
        # with a timeout, so a regression fails instead of hanging the suite.
        src = str(Path(photonsteer.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run(
            [sys.executable, "-m", "photonsteer", "sweep", "--range", "1..1", "--step", "1.05e-16"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 4
        assert done.stderr == (
            f"bad sweep: step 1.05e-16 gives more than {cli.MAX_SWEEP_POINTS} points\n")

    def test_points_within_the_bound_sweep_though_the_estimate_was_past_it(self, monkeypatch):
        # 0.5 + 1e-16 rounds to the next double, so 0.5..0.5 makes 9008 points, while
        # (hi - lo + 1e-12) / step reads 10 000. The first point stops the sweep here.
        points = []

        def first_point(v):
            points.append(v)
            raise BadParameters("stop after the first point")

        monkeypatch.setattr(scenarios, "noisy_state", first_point)
        assert main(["sweep", "--range", "0.5..0.5", "--step", "1e-16"]) == 3
        assert points == [0.5]

    def test_a_step_too_small_to_round_apart_keeps_one_point(self, tmp_path, monkeypatch):
        # v moves one ulp a step: 9008 steps to hi + 1e-12 round to 0.5 and then to
        # 0.500000000001, above hi. Each rounded point is kept once and none above hi, so
        # one point is solved; the second noisy_state call would exit 3.
        points, noisy_state = [], scenarios.noisy_state

        def once(v):
            if points:
                raise BadParameters(f"a second point {v!r}")
            points.append(v)
            return noisy_state(v)

        monkeypatch.setattr(scenarios, "noisy_state", once)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--range", "0.5..0.5", "--step", "1e-16", "--grid", "6",
                     "--out", str(out)]) == 0
        assert points == [0.5]
        assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["0.5"]

    @pytest.mark.parametrize("sweep_range, step, points", [
        # hi rounds up to 12 digits: its point is kept, as the same rounding of hi.
        (f"{SQRT_HALF_16_DIGITS!r}..{SQRT_HALF_16_DIGITS!r}", "0.1", ["0.707106781187"]),
        ("0..0.6666666666666666", "0.3333333333333333",
         ["0.0", "0.333333333333", "0.666666666667"]),
        # 0.5000000000007 rounds to 0.500000000001, above hi = 0.5 rounded alike.
        ("0..0.5", "0.5000000000007", ["0.0"]),
    ])
    def test_points_are_kept_up_to_hi_rounded_alike(self, tmp_path, sweep_range, step, points):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--range", sweep_range, "--step", step, "--grid", "6",
                     "--out", str(out)]) == 0
        assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == points

    # Made by the exhaustive CHSH search: every later search must give these bytes.
    @pytest.mark.parametrize("chsh_step, fmt", [
        ("1", "csv"), ("1.5", "csv"), ("2", "csv"), ("3", "csv"), ("5", "csv"), ("2", "json")])
    def test_golden_bytes(self, tmp_path, chsh_step, fmt):
        out = tmp_path / f"sweep.{fmt}"
        assert main(["sweep", "--range", "0..1", "--step", "0.05", "--grid", "6",
                     "--chsh-step", chsh_step, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"sweep_chsh_step_{chsh_step}.{fmt}").read_bytes()

    def test_range_outside_unit_interval_exits_4(self):
        assert main(["sweep", "--range", "0..2", "--step", "0.5"]) == 4

    def test_chsh_step_not_dividing_circle_exits_4(self, capsys):
        assert main(["sweep", "--chsh-step", "7"]) == 4
        assert "360" in capsys.readouterr().err

    def test_chsh_step_below_one_degree_exits_4_before_searching(self, monkeypatch, capsys):
        def no_search(*args, **kwargs):
            raise AssertionError("the CHSH search started")

        monkeypatch.setattr(steering, "chsh_optimize", no_search)
        monkeypatch.setattr(scenarios, "noisy_state", no_search)
        assert main(["sweep", "--chsh-step", "0.5"]) == 4
        assert f"at least {steering.MIN_CHSH_STEP:g}" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--range", "0..1", "--step", "0.5", "--grid", "10"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--range", "0..0.4", "--step", "0.2", "--grid", "10",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [row["v"] for row in doc] == [0.0, 0.2, 0.4]
        assert all(row["lhs_verdict"] == "UnsteerableCertified" for row in doc)


class TestReport:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["report", "--preset", "eq1", "--site", "NY", "--basis", "ZHV",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["detector"]["site"] == "NY"
        assert {o["label"] for o in doc["detector"]["outcomes"]} == {
            "H-click", "V-click", "no-click",
        }
        assert doc["assemblage"]["cjwr_zx"] == pytest.approx(np.sqrt(2.0), abs=1e-9)

    # Made before the JSON writer stopped calling json.dumps: these bytes must not move.
    @pytest.mark.parametrize("flags, name", [
        (["--preset", "eq1"], "report_eq1"),
        (["--preset", "qplate_tripartite", "--basis", "OAMpm"], "report_qplate_tripartite_OAMpm"),
    ], ids=["eq1", "qplate_tripartite-OAMpm"])
    def test_golden_bytes(self, tmp_path, flags, name):
        out = tmp_path / "report.json"
        assert main(["report", *flags, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

    def test_unknown_preset_exits_3(self):
        assert main(["report", "--preset", "wormhole"]) == 3

    @pytest.mark.parametrize("flags", [[], ["--site", "u1"]])
    def test_non_finite_hardy_preset_exits_3(self, flags, capsys):
        assert main(["report", "--preset", "hardy:nan,nan"] + flags) == 3
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["eq1:junk", "twc:1,2", "qplate_tripartite:x"])
    def test_parameters_on_a_fixed_preset_exit_3(self, spec, capsys):
        assert main(["report", "--preset", spec]) == 3
        err = capsys.readouterr().err
        assert spec in err and err.count("\n") == 1

    def test_oam_basis_without_oam_register_exits_3(self, capsys):
        assert main(["report", "--preset", "eq1", "--basis", "OAMpm"]) == 3
        assert "OAMpm" in capsys.readouterr().err

    def test_unknown_basis_exits_3(self, capsys):
        assert main(["report", "--preset", "eq1", "--basis", "Q"]) == 3
        assert capsys.readouterr().err == "unknown basis 'Q'\n"

    @pytest.mark.parametrize("flag, message", [
        ("--site", "site '' not declared (have ('NY', 'PUE'))\n"),
        ("--basis", "unknown basis ''\n"),
    ], ids=["site", "basis"])
    def test_empty_site_or_basis_is_given_and_exits_3(self, flag, message, capsys):
        assert main(["report", "--preset", "eq1", flag, ""]) == 3
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("flags", [["--site", "NY"], ["--basis", "ZHV"]])
    def test_detector_flags_on_two_qubit_preset_exit_3(self, flags, capsys):
        assert main(["report", "--preset", "noisy:0.5"] + flags) == 3
        err = capsys.readouterr().err
        assert "noisy:0.5" in err and err.count("\n") == 1


class TestCostBounds:
    """Every library bound leaves ``main`` as exit 4 with one stderr line, before the work
    it bounds starts."""

    @staticmethod
    def exit_4_line(argv, capsys):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        return err

    def test_run_of_an_oversize_basis_exits_4(self, tmp_path, capsys):
        path = tmp_path / "wide.table"
        oam = " ".join(str(m) for m in range((MAX_DIM + 1) // 2))
        path.write_text(f"sites a\noam {oam}\nsource a H\n")
        err = self.exit_4_line(["run", str(path)], capsys)
        assert f"MAX_DIM = {MAX_DIM}" in err
        assert capsys.readouterr().out == ""

    def test_run_of_a_circuit_past_the_element_kets_bound_exits_4(self, tmp_path, capsys):
        path = tmp_path / "long.table"
        oam = " ".join(str(m) for m in range((MAX_DIM - 1) // 2))
        phases = "phase a 1\n" * (MAX_ELEMENT_KETS // MAX_DIM)
        path.write_text(f"sites a\noam {oam}\nsource a H\n{phases}")
        err = self.exit_4_line(["run", str(path)], capsys)
        assert f"MAX_ELEMENT_KETS = {MAX_ELEMENT_KETS}" in err
        assert capsys.readouterr().out == ""

    def test_steer_input_of_an_oversize_basis_exits_4(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"sites": ["a", "b"], "oam": list(range((MAX_DIM + 3) // 4)),
                                    "basis": ["vac"], "amplitudes": [[1.0, 0.0]]}))
        err = self.exit_4_line(["steer", "--input", str(path)], capsys)
        assert f"MAX_DIM = {MAX_DIM}" in err


class TestUsage:
    def test_unknown_command_exits_4(self):
        with pytest.raises(SystemExit) as err:
            main(["teleport"])
        assert err.value.code == 4

    @pytest.mark.parametrize("command", [["steer", "--preset", "eq1"], ["report", "--preset", "twc"],
                                         ["sweep", "--range", "0.5..0.5"]])
    def test_unwritable_out_exits_4(self, tmp_path, capsys, command):
        assert main(command + ["--out", str(tmp_path)]) == 4
        assert main(command + ["--out", str(tmp_path / "missing" / "out")]) == 4
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err

    def test_parser_is_built_once_and_keeps_no_options_between_calls(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        sweep = ["sweep", "--range", "0.5..0.5", "--grid", "6"]
        assert main(sweep + ["--format", "json"]) == 0
        assert capsys.readouterr().out.startswith("[")
        assert main(sweep) == 0
        assert capsys.readouterr().out.startswith("v,cjwr,chsh_opt,lhs_verdict\n")

        out = tmp_path / "steer.json"
        assert main(["steer", "--preset", "eq1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["steer", "--preset", "eq1"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_json_run_output_steer_compatible_without_loss(self, fig1_file, tmp_path):
        state_path = tmp_path / "state.json"
        main(["run", str(fig1_file), "--out", str(state_path)])
        doc = json.loads(state_path.read_text())
        total = sum(complex(re, im).real ** 2 + complex(re, im).imag ** 2
                    for re, im in doc["amplitudes"])
        assert total == pytest.approx(1.0, abs=1e-12)
