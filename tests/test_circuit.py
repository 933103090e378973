"""Parser, formatter and runner tests for the circuit description language."""

import numpy as np
import pytest

from photonsteer.circuit import ElementSpec, format_circuit, parse_circuit, run_circuit
from photonsteer.core import BasisKet, fidelity
from photonsteer.errors import (
    ArityError,
    CircuitSyntaxError,
    DoubleExcitation,
    OamRangeError,
    UndeclaredSite,
    UnknownElement,
)
from photonsteer.scenarios import FIG1_CIRCUIT, QPLATE_CIRCUIT, eq1_state

CORPUS = [
    FIG1_CIRCUIT,
    QPLATE_CIRCUIT,
    "",
    "sites\n",
    "# just a comment\n\n  # and another\n",
    "sites b1 b2\nsource b1 H\nbs b1 b2\n",
    "sites a b\nsource a V\nqwp a 12.5\nphase b -90\n",
    "sites in out1 out2\noam -2 0 2\nsource in H\nqplate in q=-1\npbs in -> out1 out2\n",
    "sites x y # trailing comment\nsource x H\nhwp x 0.1\nhwp x 67.5\nbs x y\nphase y 360\n",
]


class TestParse:
    def test_preparation_chain(self):
        circuit = parse_circuit(FIG1_CIRCUIT)
        assert circuit.sites == ("in", "NY", "PUE")
        assert len(circuit.elements) == 3
        assert circuit.elements[0] == ElementSpec("source", ("in",), pol="H")
        assert circuit.elements[2] == ElementSpec("pbs", ("in", "PUE", "NY"))

    def test_undeclared_site_carries_line(self):
        with pytest.raises(UndeclaredSite) as err:
            parse_circuit("hwp ghost 10")
        assert err.value.line == 1

    def test_empty_text_is_identity_circuit(self):
        circuit = parse_circuit("")
        assert circuit.elements == ()
        assert circuit.sites == ()

    def test_unknown_element(self):
        with pytest.raises(UnknownElement) as err:
            parse_circuit("sites a\nteleport a")
        assert err.value.line == 2

    def test_arity_error(self):
        with pytest.raises(ArityError) as err:
            parse_circuit("sites a b\nbs a")
        assert err.value.line == 2

    def test_bad_angle(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit("sites a\nhwp a fast")
        assert err.value.line == 2
        assert err.value.column == 7

    @pytest.mark.parametrize("element", ["hwp", "qwp", "phase"])
    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_angle(self, element, angle):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(f"sites a\n{element} a {angle}")
        assert err.value.line == 2
        assert err.value.column == len(element) + 4

    def test_pbs_arrow_required(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("sites a b c\npbs a b c")

    def test_qplate_requires_oam_declaration(self):
        with pytest.raises(OamRangeError) as err:
            parse_circuit("sites a\nqplate a q=1")
        assert err.value.line == 2

    def test_oam_must_contain_zero(self):
        with pytest.raises(OamRangeError):
            parse_circuit("sites a\noam -2 2")

    def test_duplicate_site(self):
        with pytest.raises(CircuitSyntaxError, match="duplicate"):
            parse_circuit("sites a a")

    def test_crlf_accepted(self):
        circuit = parse_circuit("sites a b\r\nsource a H\r\n")
        assert circuit.sites == ("a", "b")
        assert len(circuit.elements) == 1

    def test_bytes_accepted(self):
        circuit = parse_circuit(b"sites a\nsource a H\n")
        assert circuit.sites == ("a",)

    def test_one_byte_order_mark_skipped_on_text_and_bytes(self):
        plain = parse_circuit(FIG1_CIRCUIT)
        assert parse_circuit("\ufeff" + FIG1_CIRCUIT) == plain
        assert parse_circuit(b"\xef\xbb\xbf" + FIG1_CIRCUIT.encode()) == plain
        with pytest.raises(UnknownElement, match="column 1"):
            parse_circuit("\ufeff\ufeffsites a\n")

    def test_byte_order_mark_keeps_columns(self):
        with pytest.raises(CircuitSyntaxError) as plain:
            parse_circuit("sites a a\n")
        with pytest.raises(CircuitSyntaxError) as marked:
            parse_circuit(b"\xef\xbb\xbfsites a a\n")
        assert (marked.value.line, marked.value.column) == (plain.value.line, plain.value.column)


class TestFormat:
    @pytest.mark.parametrize("text", CORPUS, ids=range(len(CORPUS)))
    def test_round_trip_structural_equality(self, text):
        once = parse_circuit(text)
        again = parse_circuit(format_circuit(once))
        assert once == again

    def test_angles_survive_at_full_precision(self):
        circuit = parse_circuit("sites a\nhwp a 22.500000123456789")
        again = parse_circuit(format_circuit(circuit))
        assert again.elements[0].angle == circuit.elements[0].angle

    def test_empty_circuit_canonical_form(self):
        assert format_circuit(parse_circuit("")) == "sites\n"

    def test_format_idempotent(self):
        for text in CORPUS:
            canon = format_circuit(parse_circuit(text))
            assert format_circuit(parse_circuit(canon)) == canon


class TestRun:
    def test_fig1_reproduces_entangled_state(self):
        out = run_circuit(parse_circuit(FIG1_CIRCUIT))
        target = eq1_state()
        assert fidelity(out.with_declaration(target.decl), target) >= 1 - 1e-10

    def test_beamsplitter_circuit_gives_path_superposition(self):
        out = run_circuit(parse_circuit("sites b1 b2\nsource b1 H\nbs b1 b2"))
        assert out.amplitude(BasisKet.photon("b1", "H")) == pytest.approx(1 / np.sqrt(2))
        assert out.amplitude(BasisKet.photon("b2", "H")) == pytest.approx(1j / np.sqrt(2))

    def test_empty_circuit_runs_to_vacuum(self):
        out = run_circuit(parse_circuit(""))
        assert out.amplitude(BasisKet.vacuum()) == pytest.approx(1.0)

    def test_element_errors_carry_index(self):
        circuit = parse_circuit("sites a b\nsource a H\nsource b V")
        with pytest.raises(DoubleExcitation, match="element 1"):
            run_circuit(circuit)

    def test_norm_one_for_corpus(self):
        for text in CORPUS:
            out = run_circuit(parse_circuit(text))
            assert abs(out.norm() - 1.0) < 1e-9


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = np.random.default_rng(1234)
        outcomes = {"ok": 0, "syntax": 0}
        for _ in range(10_000):
            length = int(rng.integers(0, 60))
            blob = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
            try:
                parse_circuit(blob)
                outcomes["ok"] += 1
            except CircuitSyntaxError as exc:
                assert exc.line >= 1
                outcomes["syntax"] += 1
        # Random bytes must only ever produce structured diagnostics.
        assert outcomes["ok"] + outcomes["syntax"] == 10_000

    def test_fuzzed_token_soup_never_crashes(self):
        rng = np.random.default_rng(99)
        words = ["sites", "oam", "source", "hwp", "pbs", "->", "bs", "qplate",
                 "phase", "a", "b", "q=1", "H", "V", "22.5", "#", "0", "-2", "\n"]
        for _ in range(2_000):
            text = " ".join(rng.choice(words, size=int(rng.integers(0, 12))))
            try:
                parse_circuit(text)
            except CircuitSyntaxError:
                pass
