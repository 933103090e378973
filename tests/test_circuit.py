"""Parser, formatter and runner tests for the circuit description language."""

import math
import re
import sys
import time

import numpy as np
import pytest

from photonsteer import elements
from photonsteer.circuit import (
    MAX_ELEMENT_KETS,
    Circuit,
    ElementSpec,
    format_circuit,
    parse_circuit,
    run_circuit,
)
from photonsteer.core import MAX_DIM, BasisKet, StateVector, fidelity
from photonsteer.errors import (
    ArityError,
    CircuitSyntaxError,
    DoubleExcitation,
    NonUnitary,
    OamOverflow,
    OamRangeError,
    OutOfRange,
    PhysicsError,
    SiteCollision,
    UndeclaredSite,
    UnknownElement,
    UnknownSite,
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
    # A q-plate needs its oam line even when the set is the default {0}.
    "sites a b\noam 0\nsource a H\nqplate a q=0\n",
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

    def test_second_oam_line_is_refused_at_its_line(self):
        # Kept, the second set would replace the first, and the qplate between them would
        # fail at run time against a set it was not written for.
        with pytest.raises(OamRangeError, match="second oam declaration") as err:
            parse_circuit("sites a b\noam 0 2\nqplate a q=1\noam 0 4\nsource a H\n")
        assert (err.value.line, err.value.column) == (4, 1)

    def test_duplicate_site(self):
        with pytest.raises(CircuitSyntaxError, match="duplicate"):
            parse_circuit("sites a a")

    @pytest.mark.parametrize("text, error, message, line, column", [
        ("sites a b\npbs a -> b b", ArityError, "PBS outputs must be distinct sites", 2, 12),
        ("sites a\nbs a a", ArityError, "beam splitter needs two distinct sites", 2, 6),
        ("oam 0 2 2", OamRangeError, "duplicate OAM value", 1, 5),
    ])
    def test_repeated_operand(self, text, error, message, line, column):
        with pytest.raises(error, match=message) as err:
            parse_circuit(text)
        assert (err.value.line, err.value.column) == (line, column)

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


SCALING_SITES = [f"s{i}" for i in range(32_000)]
SCALING_ELEMENTS = ["source s31999 H"] + [
    ("hwp {} 22.5", "phase {} 30", "qwp {} 10", "bs {} s31990")[k % 4].format(f"s{31_999 - k % 8}")
    for k in range(499)
]


class TestSiteScaling:
    """A 'sites' line of 32 000 names (dim 64 001, under MAX_DIM) parses in linear time:
    each site check is one dict lookup. With list scans the parse was quadratic. Measured
    with ``time.perf_counter`` on a 2-vCPU Xeon, the 500-element table took 8.3 s that way
    and takes 0.02 s now; the trailing duplicate took 6.7 s and takes 0.03 s. The 1 s
    bound sits between the two."""

    def test_declared_sites_and_elements_on_the_last_ones(self):
        text = "sites " + " ".join(SCALING_SITES) + "\n" + "\n".join(SCALING_ELEMENTS) + "\n"
        start = time.perf_counter()
        circuit = parse_circuit(text)
        elapsed = time.perf_counter() - start
        assert circuit.sites == tuple(SCALING_SITES)
        assert len(circuit.elements) == 500
        assert elapsed < 1.0

    def test_duplicate_as_the_last_token(self):
        line = "sites " + " ".join(SCALING_SITES[:-1]) + " s0"
        start = time.perf_counter()
        with pytest.raises(CircuitSyntaxError, match="duplicate site 's0'") as err:
            parse_circuit(line)
        elapsed = time.perf_counter() - start
        assert (err.value.line, err.value.column) == (1, len(line) - 1)
        assert err.value.expected == "unique site identifier"
        assert elapsed < 1.0


# Separators the tokenizer must treat as whitespace, and the statements an
# invalid token is planted in: (line with {} between tokens, token index
# whose column is reported; an index past the last token means "after it").
SEPARATORS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\xa0", "\u2003", "\u3000", " \t\xa0 "]
BAD_LINES = [
    ("sites{}d{}1b", 2),
    ("oam{}0{}x", 2),
    ("source{}a{}D", 2),
    ("hwp{}a{}fast", 2),
    ("pbs{}a{}=>{}b{}c", 2),
    ("qplate{}a{}q=x", 2),
    ("bs{}a", 2),  # arity: reported just past the last token
    ("teleport{}a", 0),
]
GOOD_LINES = ["source{}a{}H", "hwp{}a{}22.5", "pbs{}a{}->{}b{}c", "bs{}b{}c", "qplate{}a{}q=1"]


def regex_column(code: str, token_index: int) -> int:
    """Column of a token by the regex rule: 1 + start of the index-th \\S+ match."""
    matches = list(re.finditer(r"\S+", code))
    if token_index < len(matches):
        return matches[token_index].start() + 1
    return matches[-1].end() + 1


class TestColumns:
    def test_str_split_and_regex_agree_on_every_whitespace_code_point(self):
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(re.findall(r"\s", chars)) == "".join(c for c in chars if c.isspace())

    @pytest.mark.parametrize("sep", SEPARATORS, ids=ascii)
    @pytest.mark.parametrize("template,token_index", BAD_LINES, ids=lambda v: str(v)[:8])
    @pytest.mark.parametrize("comment", ["", "#x{}y"])
    def test_error_column_matches_the_regex_rule(self, sep, template, token_index, comment):
        line = sep + template.format(*[sep] * template.count("{}")) + sep + comment.format(sep)
        header = "sites a b c" + sep + "\noam" + sep + "0 2 -2\n"
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(header + line)
        assert err.value.line == 3
        assert err.value.column == regex_column(line.split("#", 1)[0], token_index)

    @pytest.mark.parametrize("sep", SEPARATORS, ids=ascii)
    def test_error_column_on_a_first_line_after_a_byte_order_mark(self, sep):
        line = f"sites{sep}a{sep}{sep}a"
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit("\ufeff" + line)
        assert (err.value.line, err.value.column) == (1, regex_column(line, 2))

    @pytest.mark.parametrize("sep", SEPARATORS, ids=ascii)
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_parsed_circuit_does_not_depend_on_the_separator(self, sep, bom):
        lines = [t.format(*[sep] * t.count("{}")) for t in GOOD_LINES]
        text = f"sites{sep}a{sep}b c\noam 0{sep}2 -2\n" + "\n".join(
            f"{sep}{line}{sep}#{sep}comment" for line in lines)
        plain = "sites a b c\noam 0 2 -2\n" + "\n".join(t.format(*[" "] * t.count("{}"))
                                                      for t in GOOD_LINES)
        assert parse_circuit(bom + text) == parse_circuit(plain)


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
    @pytest.mark.parametrize("apply", [run_circuit, format_circuit], ids=["run", "format"])
    def test_unknown_element_kind_of_a_hand_built_circuit(self, apply):
        circuit = Circuit(("a",), (0,), (ElementSpec("mirror", ("a",)),))
        with pytest.raises(ValueError, match="unknown element kind 'mirror'"):
            apply(circuit)

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

    def test_basis_above_max_dim_raises_before_the_amplitudes(self, monkeypatch):
        def no_state(*args):
            raise AssertionError("an amplitude vector was built")

        monkeypatch.setattr(StateVector, "vacuum", no_state)
        oversize = Circuit(("a",), tuple(range((MAX_DIM + 1) // 2)), ())
        with pytest.raises(OutOfRange, match=str(MAX_DIM)) as err:
            run_circuit(oversize)
        assert "\n" not in str(err.value)

    def test_element_kets_bound_admits_its_edge_and_raises_past_it(self, monkeypatch):
        oam = tuple(range((MAX_DIM - 1) // 2))  # one site: MAX_DIM kets
        source = (ElementSpec("source", ("a",), pol="H"),)
        phases = (ElementSpec("phase", ("a",), angle=1.0),) * (MAX_ELEMENT_KETS // MAX_DIM - 1)
        assert abs(run_circuit(Circuit(("a",), oam, source + phases)).norm() - 1.0) < 1e-12

        def no_state(*args):
            raise AssertionError("an amplitude vector was built")

        monkeypatch.setattr(StateVector, "vacuum", no_state)
        too_long = Circuit(("a",), oam, source + phases + phases[:1])
        with pytest.raises(OutOfRange, match=f"MAX_ELEMENT_KETS = {MAX_ELEMENT_KETS}") as err:
            run_circuit(too_long)
        assert "\n" not in str(err.value)

    def test_element_kets_bound_sits_far_above_the_corpus(self):
        # The largest generated tables of the optical-table benchmark have dim 673
        # and at most 300 elements.
        assert MAX_ELEMENT_KETS >= 100 * 673 * 300
        for text in CORPUS:
            circuit = parse_circuit(text)
            assert 1000 * len(circuit.elements) * circuit.declaration.dim <= MAX_ELEMENT_KETS


def fold_public(circuit: Circuit) -> StateVector:
    """Reference runner: the public element functions one after another."""
    state = StateVector.vacuum(circuit.declaration)
    for index, el in enumerate(circuit.elements):
        try:
            if el.kind == "source":
                state = elements.apply_source(state, el.operands[0], el.pol)
            elif el.kind in ("hwp", "qwp"):
                state = elements.waveplate(state, el.operands[0], el.kind, el.angle)
            elif el.kind == "pbs":
                state = elements.pbs_route(state, *el.operands)
            elif el.kind == "bs":
                state = elements.beamsplitter_5050(state, *el.operands)
            elif el.kind == "qplate":
                state = elements.qplate(state, el.operands[0], el.q)
            elif el.kind == "phase":
                state = elements.phase_shift(state, el.operands[0], el.angle)
        except PhysicsError as exc:
            raise type(exc)(f"element {index} ({el.kind}): {exc}") from exc
    return state


def random_circuit(rng) -> Circuit:
    """Sites declared out of sorted order, OAM values with gaps, any element mix."""
    sites = tuple(rng.permutation(["m", "b", "x1", "a", "q"])[: int(rng.integers(2, 6))])
    oam = tuple(int(m) for m in rng.permutation([-6, -2, 0, 2, 3, 6]))
    pick = lambda n: tuple(str(s) for s in rng.choice(sites, n, replace=False))  # noqa: E731
    els = [ElementSpec("source", pick(1), pol=str(rng.choice(["H", "V"])))]
    for _ in range(int(rng.integers(1, 14))):
        kind = str(rng.choice(["hwp", "qwp", "phase", "bs", "pbs", "qplate"]))
        if kind in ("hwp", "qwp", "phase"):
            els.append(ElementSpec(kind, pick(1), angle=float(rng.uniform(-400.0, 400.0))))
        elif kind == "bs":
            els.append(ElementSpec("bs", pick(2)))
        elif kind == "pbs":  # the input may be one of the outputs
            els.append(ElementSpec("pbs", pick(1) + pick(2)))
        else:
            els.append(ElementSpec("qplate", pick(1), q=int(rng.choice([-3, -1, 1, 3]))))
    return Circuit(sites, tuple(sorted(oam)), tuple(els))


def outcome(run, circuit):
    try:
        return run(circuit).amps
    except PhysicsError as exc:
        return type(exc), str(exc)


class TestKernelOracle:
    def test_random_circuits_match_the_public_functions(self):
        rng = np.random.default_rng(20261018)
        ran = failed = 0
        for _ in range(400):
            circuit = random_circuit(rng)
            fast, slow = outcome(run_circuit, circuit), outcome(fold_public, circuit)
            if isinstance(slow, tuple):
                assert fast == slow
                failed += 1
            else:
                assert np.array_equal(fast, slow)
                ran += 1
        assert ran >= 100 and failed >= 40, (ran, failed)

    @pytest.mark.parametrize("circuit,error,index", [
        (Circuit(("b", "a"), (0,), (
            ElementSpec("source", ("a",), pol="H"), ElementSpec("hwp", ("a",), angle=10.0),
            ElementSpec("source", ("b",), pol="V"))), DoubleExcitation, 2),
        (Circuit(("c", "a", "b"), (0,), (
            ElementSpec("source", ("a",), pol="H"), ElementSpec("hwp", ("a",), angle=22.5),
            ElementSpec("bs", ("a", "b")), ElementSpec("pbs", ("a", "b", "c")))), SiteCollision, 3),
        (Circuit(("a",), (-2, 0, 2), (
            ElementSpec("source", ("a",), pol="H"), ElementSpec("qplate", ("a",), q=1),
            ElementSpec("hwp", ("a",), angle=30.0), ElementSpec("qplate", ("a",), q=1))),
         OamOverflow, 3),
        (Circuit(("a",), (0,), (
            ElementSpec("source", ("a",), pol="H"), ElementSpec("hwp", ("ghost",), angle=1.0))),
         UnknownSite, 1),
        (Circuit(("b", "a"), (0,), (
            ElementSpec("source", ("a",), pol="H"), ElementSpec("phase", ("a",), angle=math.nan))),
         NonUnitary, 1),
    ], ids=["second-source", "pbs-collision", "oam-overflow", "undeclared-site", "nan-phase"])
    def test_failing_circuits_raise_the_same_error_on_both_paths(self, circuit, error, index):
        with pytest.raises(error) as fast:
            run_circuit(circuit)
        with pytest.raises(error) as slow:
            fold_public(circuit)
        assert str(fast.value) == str(slow.value)
        assert str(fast.value).startswith(f"element {index} ({circuit.elements[index].kind}): ")

    def test_returned_state_is_read_only(self):
        out = run_circuit(parse_circuit(FIG1_CIRCUIT))
        assert not out.amps.flags.writeable
        with pytest.raises(ValueError):
            out.amps[0] = 1.0


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
