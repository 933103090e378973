"""Acceptance suite. One test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion;
each test also prints an ``ACCEPTANCE n: PASS`` line (visible with ``-s``).
"""

import numpy as np
import pytest

from photonsteer.circuit import format_circuit, parse_circuit, run_circuit
from photonsteer.core import BasisDecl, BasisKet, StateVector, fidelity
from photonsteer.errors import CircuitSyntaxError
from photonsteer.measurement import (
    NO_CLICK,
    born_probabilities,
    polarization_setting,
    reduced_state,
    sample_outcomes,
)
from photonsteer.scenarios import (
    FIG1_CIRCUIT,
    QPLATE_CIRCUIT,
    eq1_state,
    hardy_state,
    noisy_state,
    qplate_tripartite_state,
    twc_state,
)
from photonsteer.steering import (
    QUBIT_PAIR_LABELS,
    chsh_optimize,
    chsh_value,
    cjwr_value,
    compute_assemblage,
    lhs_feasibility,
    pol_path_qubits,
    two_qubit_frame,
)
from photonsteer.core import DensityOperator

SQ2 = 1.0 / np.sqrt(2.0)
DECL = BasisDecl(("NY", "PUE"))


def ket(site, pol, oam=0):
    return BasisKet.photon(site, pol, oam)


def product_preset() -> StateVector:
    return StateVector.from_amplitudes(DECL, {ket("NY", "V"): 1.0})


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_01_preparation_fidelity():
    prepared = run_circuit(parse_circuit(FIG1_CIRCUIT))
    target = eq1_state()
    value = fidelity(prepared.with_declaration(target.decl), target)
    assert value >= 1.0 - 1e-10
    report(1, f"preparation chain reaches the entangled state (fidelity {value:.12f})")


def test_criterion_02_scenario_list_one():
    records = {r.label: r for r in born_probabilities(eq1_state(), polarization_setting("NY", "ZHV"))}
    assert records["V-click"].probability == pytest.approx(0.5, abs=1e-12)
    assert records[NO_CLICK].probability == pytest.approx(0.5, abs=1e-12)
    assert records["H-click"].probability == pytest.approx(0.0, abs=1e-12)
    v_target = StateVector.from_amplitudes(DECL, {ket("NY", "V"): 1.0})
    n_target = StateVector.from_amplitudes(DECL, {ket("PUE", "H"): 1.0})
    assert fidelity(records["V-click"].conditional_state, v_target) >= 1.0 - 1e-10
    assert fidelity(records[NO_CLICK].conditional_state, n_target) >= 1.0 - 1e-10
    report(2, "vertical-click and detect-nothing branches match the narrative")


def test_criterion_03_scenario_list_two():
    records = {r.label: r for r in born_probabilities(eq1_state(), polarization_setting("NY", "Xdiag"))}
    for label, sign in (("+", 1.0), ("-", -1.0)):
        assert records[label].probability == pytest.approx(0.5, abs=1e-12)
        conditional = records[label].conditional_state
        # Path marginal by explicit reduction over the constant pol factor.
        path = np.zeros((2, 2), dtype=complex)  # basis (PUE, NY)
        for p in ("H", "V"):
            vec = np.array(
                [conditional.amplitude(ket("PUE", p)), conditional.amplitude(ket("NY", p))]
            )
            path += np.outer(vec, vec.conj())
        projector = 0.5 * np.array([[1.0, sign], [sign, 1.0]])
        np.testing.assert_allclose(path, projector, atol=1e-10)
        bob = reduced_state(conditional, "occupation", "PUE")
        np.testing.assert_allclose(bob.matrix, np.diag([0.5, 0.5]), atol=1e-10)
    report(3, "diagonal-basis outcomes collapse onto balanced path superpositions")


def test_criterion_04_no_signaling_everywhere():
    frames = [
        pol_path_qubits(eq1_state(), "PUE"),
        pol_path_qubits(qplate_tripartite_state(), "PUE"),
        two_qubit_frame(twc_state(), "b2")[0],
        two_qubit_frame(hardy_state(), "u2")[0],
        noisy_state(0.3),
        noisy_state(0.9),
    ]
    pairs = (("Z", "X"), ("Z", "Y"), ("X", "Y"))
    worst = 0.0
    for rho in frames:
        for settings in pairs:
            asm = compute_assemblage(rho, settings)
            worst = max(worst, asm.no_signaling_residual())
    assert worst < 1e-9
    report(4, f"conditional marginals agree across settings (worst residual {worst:.2e})")


def test_criterion_05_chsh():
    exact = chsh_value(two_qubit_frame(eq1_state(), "PUE")[0], 0.0, 90.0, 45.0, 135.0)
    assert exact.value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    grid_entangled = chsh_optimize(two_qubit_frame(eq1_state(), "PUE")[0], 5.0)
    assert grid_entangled.value >= 2.81

    grid_product = chsh_optimize(two_qubit_frame(product_preset(), "PUE")[0], 5.0)
    assert grid_product.value <= 2.0 + 1e-9

    rng = np.random.default_rng(20260809)
    bound = 2.0 * np.sqrt(2.0) + 1e-9
    worst = 0.0
    for trial in range(1000):
        if trial % 2:
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            matrix = np.outer(psi, psi.conj())
        else:
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            matrix = g @ g.conj().T
            matrix /= np.trace(matrix).real
        value = chsh_optimize(DensityOperator(QUBIT_PAIR_LABELS, matrix), 5.0).value
        worst = max(worst, value)
        assert value <= bound
    report(5, f"CHSH: 2√2 at standard angles, grid oracle agrees, Tsirelson holds "
              f"(max over 1000 random states {worst:.6f})")


def test_criterion_06_cjwr():
    value = cjwr_value(two_qubit_frame(eq1_state(), "PUE")[0], ("Z", "X"))
    assert value == pytest.approx(np.sqrt(2.0), abs=1e-9)
    for v in np.arange(0.1, 1.0 + 1e-9, 0.1):
        got = cjwr_value(noisy_state(float(v)), ("Z", "X"))
        assert got == pytest.approx(float(v) * np.sqrt(2.0), abs=1e-9)
    report(6, "steering functional hits √2 and scales linearly with visibility")


def test_criterion_07_lhs_linear_program():
    low = lhs_feasibility(compute_assemblage(noisy_state(0.4), ("Z", "X")), 20)
    assert low.status == "UnsteerableCertified"
    assert low.residual < 1e-7

    high = lhs_feasibility(compute_assemblage(noisy_state(0.9), ("Z", "X")), 20)
    assert high.status == "NoLHSFoundAtResolution"
    assert cjwr_value(noisy_state(0.9), ("Z", "X")) > 1.0

    below = lhs_feasibility(compute_assemblage(noisy_state(0.65), ("Z", "X")), 40)
    above = lhs_feasibility(compute_assemblage(noisy_state(0.75), ("Z", "X")), 40)
    assert below.status == "UnsteerableCertified"
    assert above.status == "NoLHSFoundAtResolution"
    report(7, "LHS search certifies v=0.4, rejects v=0.9, transition inside (0.65, 0.75)")


def test_criterion_08_tripartite_state():
    circuit = parse_circuit(QPLATE_CIRCUIT)
    prepared = run_circuit(circuit)
    target = qplate_tripartite_state()
    value = fidelity(prepared.with_declaration(target.decl), target)
    assert value >= 1.0 - 1e-10

    # Intermediate check: stop before the final routing element. The paper's
    # own H/V expansion of (|L,-2> + |R,+2>)/sqrt(2) is the reference.
    partial = parse_circuit(
        "sites in NY PUE\noam -2 0 2\nsource in H\nqplate in q=1\n"
    )
    mid = run_circuit(partial)
    reference = StateVector.from_amplitudes(
        mid.decl,
        {
            ket("in", "H", 2): 0.5,
            ket("in", "H", -2): 0.5,
            ket("in", "V", 2): 0.5j,
            ket("in", "V", -2): -0.5j,
        },
    )
    assert fidelity(mid, reference) >= 1.0 - 1e-10
    report(8, f"q-plate chain reproduces the three-register state (fidelity {value:.12f})")


def test_criterion_09_parser_round_trip_and_fuzz():
    corpus = [
        FIG1_CIRCUIT,
        QPLATE_CIRCUIT,
        "",
        "sites\n",
        "# comment only\n",
        "sites b1 b2\nsource b1 H\nbs b1 b2\n",
        "sites a b\nsource a V\nqwp a 12.5\nphase b -90\nhwp a 67.5\n",
        "sites in o1 o2\noam -2 0 2\nsource in H\nqplate in q=-1\npbs in -> o1 o2\n",
    ]
    for text in corpus:
        once = parse_circuit(text)
        assert parse_circuit(format_circuit(once)) == once

    rng = np.random.default_rng(424242)
    crashes = 0
    for _ in range(10_000):
        blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 64)), dtype=np.uint8))
        try:
            parse_circuit(blob)
        except CircuitSyntaxError as exc:
            assert exc.line >= 1
        except Exception:  # noqa: BLE001 - the criterion forbids any other escape
            crashes += 1
    assert crashes == 0
    report(9, "round trip exact on the corpus; 10^4 fuzz inputs give structured errors only")


def test_criterion_10_monte_carlo_chi_square():
    labels = sample_outcomes(eq1_state(), polarization_setting("NY", "ZHV"), 100_000, seed=11)
    counts = {"V-click": labels.count("V-click"), NO_CLICK: labels.count(NO_CLICK)}
    assert sum(counts.values()) == 100_000
    chi2 = sum((n - 50_000.0) ** 2 / 50_000.0 for n in counts.values())
    assert chi2 < 6.635  # 99th percentile of chi-square with one degree of freedom
    report(10, f"10^5 seeded samples pass the goodness-of-fit test (chi2 = {chi2:.3f})")
