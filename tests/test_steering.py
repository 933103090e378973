"""Steering and Bell machinery: frames, assemblages, CJWR, CHSH, LHS search."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from conftest import brute_chsh_grid, dense_matrix, horodecki_chsh_bound, lhs_program

from photonsteer import steering
from photonsteer.core import BasisDecl, BasisKet, DensityOperator, StateVector
from photonsteer.errors import (
    BasisMismatch,
    NonDichotomicObservable,
    NonQubitBobMarginal,
    OutOfRange,
    TooManySettings,
    UnknownSite,
)
from photonsteer.scenarios import (
    eq1_state,
    hardy_state,
    noisy_state,
    preset,
    twc_state,
)
from photonsteer.simplex import solve_feasibility
from photonsteer.steering import (
    ALICE_OBSERVABLES,
    BOB_OBSERVABLES,
    QUBIT_PAIR_LABELS,
    Assemblage,
    chsh_optimize,
    chsh_value,
    cjwr_value,
    compute_assemblage,
    fibonacci_bloch_grid,
    lhs_feasibility,
    occupation_qubits,
    pol_path_qubits,
    replay_certificate,
    two_qubit_frame,
)

SQ2 = 1.0 / np.sqrt(2.0)
DECL = BasisDecl(("NY", "PUE"))

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
IDENTITY = np.eye(2)


def product_state_ny_v() -> StateVector:
    return StateVector.from_amplitudes(DECL, {BasisKet.photon("NY", "V"): 1.0})


def random_two_qubit_density(rng, mixed: bool = False) -> DensityOperator:
    if mixed:
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
    else:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
    return DensityOperator(QUBIT_PAIR_LABELS, rho)


def alice_rotated(rho: DensityOperator, phi_deg: float) -> DensityOperator:
    """(R_y(φ) ⊗ I) ρ (R_y(φ) ⊗ I)†: Alice's rows of T turned by φ in the Z-X plane."""
    half = np.deg2rad(phi_deg) / 2.0
    turn = np.kron(np.array([[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]]),
                   np.eye(2))
    return DensityOperator(QUBIT_PAIR_LABELS, turn @ rho.matrix @ turn.T)


class TestTwoQubitFrames:
    def test_entangled_preset_is_triplet_in_pol_occupation(self):
        rho = pol_path_qubits(eq1_state(), "PUE")
        psi = np.zeros(4, dtype=complex)  # (H,0),(H,1),(V,0),(V,1)
        psi[1] = psi[2] = SQ2
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)

    def test_vacuum_weight_rejected(self):
        with pytest.raises(NonQubitBobMarginal):
            pol_path_qubits(hardy_state(), "u2")

    def test_dual_rail_frame_for_path_state(self):
        rho = occupation_qubits(twc_state(), "b1", "b2")
        psi = np.zeros(4, dtype=complex)  # |n_A n_B>: 00, 01, 10, 11
        psi[2] = SQ2  # photon at b1
        psi[1] = 1j * SQ2  # photon at b2
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)

    def test_dual_rail_frame_keeps_vacuum_coherence(self):
        rho = occupation_qubits(hardy_state(0.6, 0.8), "u1", "u2")
        psi = np.zeros(4, dtype=complex)
        psi[0] = 0.6
        psi[2] = 0.8j / np.sqrt(2)
        psi[1] = 0.8 / np.sqrt(2)
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)

    def test_internal_entanglement_rejected_in_dual_rail_frame(self):
        s = StateVector.from_amplitudes(
            DECL,
            {BasisKet.photon("NY", "H"): SQ2, BasisKet.photon("PUE", "V"): SQ2},
        )
        with pytest.raises(NonQubitBobMarginal):
            occupation_qubits(s, "NY", "PUE")

    @pytest.mark.parametrize("alice, bob, error, message", [
        ("b1", "zz", UnknownSite, r"site 'zz' not declared \(have \('b1', 'b2', 'b3'\)\)"),
        ("b1", "b1", NonQubitBobMarginal, "Alice and Bob need distinct sites"),
        ("b1", "b2", NonQubitBobMarginal, "photon amplitude at third site 'b3'"),
    ])
    def test_dual_rail_frame_site_errors(self, alice, bob, error, message):
        decl = BasisDecl(("b1", "b2", "b3"))
        split = StateVector.from_amplitudes(
            decl, {BasisKet.photon(s, "H"): 1.0 / np.sqrt(3.0) for s in decl.sites})
        with pytest.raises(error, match=message):
            occupation_qubits(split, alice, bob)

    def test_analysis_functions_need_a_4x4_frame(self):
        qubit = DensityOperator(("H", "V"), np.eye(2) / 2.0)
        for call in (
            lambda: compute_assemblage(qubit, ("Z", "X")),
            lambda: cjwr_value(qubit, ("Z", "X")),
            lambda: chsh_value(qubit, *steering.STANDARD_CHSH_ANGLES),
            lambda: chsh_optimize(qubit, 15.0),
        ):
            with pytest.raises(NonQubitBobMarginal):
                call()


class TestAssemblage:
    def test_entangled_preset_members(self):
        # Oracle: explicit 4-dim algebra. Alice Z keeps one branch each; the
        # X outcomes leave Bob's dual-rail qubit in (|0> ± |1>)/sqrt(2).
        asm = compute_assemblage(two_qubit_frame(eq1_state(), "PUE")[0], ("Z", "X"))
        np.testing.assert_allclose(
            asm.members[("Z", -1)], [[0.5, 0.0], [0.0, 0.0]], atol=1e-12
        )
        np.testing.assert_allclose(
            asm.members[("Z", +1)], [[0.0, 0.0], [0.0, 0.5]], atol=1e-12
        )
        for a in (+1, -1):
            np.testing.assert_allclose(
                asm.members[("X", a)], 0.25 * (IDENTITY + a * PAULI_X), atol=1e-12
            )

    def test_product_state_members_all_point_the_same_way(self):
        asm = compute_assemblage(two_qubit_frame(product_state_ny_v(), "PUE")[0], ("Z", "X"))
        empty = np.array([[1.0, 0.0], [0.0, 0.0]])
        for (x, a), member in asm.members.items():
            p = float(np.real(np.trace(member)))
            if p > 1e-12:
                np.testing.assert_allclose(member / p, empty, atol=1e-12)

    def test_no_signaling_for_random_inputs(self, rng):
        for mixed in (False, True):
            for _ in range(10):
                rho = random_two_qubit_density(rng, mixed)
                asm = compute_assemblage(rho, ("Z", "X", "Y"))
                assert asm.no_signaling_residual() < 1e-10

    def test_member_traces_are_outcome_probabilities(self, rng):
        for _ in range(10):
            rho = random_two_qubit_density(rng)
            asm = compute_assemblage(rho, ("Z", "X"))
            for x in ("Z", "X"):
                total = sum(np.trace(asm.members[(x, a)]).real for a in (1, -1))
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_repeated_setting_rejected(self):
        # ("Z", "Z") has the key set of ("Z",), so the keys check alone passes it.
        member = np.eye(2) / 4.0
        with pytest.raises(BasisMismatch, match="repeated setting"):
            Assemblage(("Z", "Z"), {("Z", +1): member, ("Z", -1): member})
        with pytest.raises(BasisMismatch, match="repeated setting"):
            compute_assemblage(noisy_state(0.5), ("Z", "X", "Z"))

    def test_no_setting_rejected(self):
        # an empty assemblage used to reach lhs_feasibility and fail there with IndexError
        with pytest.raises(ValueError, match="at least one Alice setting required"):
            Assemblage((), {})
        with pytest.raises(ValueError, match="at least one Alice setting required"):
            compute_assemblage(noisy_state(0.5), ())

    def test_unknown_setting_rejected(self):
        with pytest.raises(NonDichotomicObservable, match="unknown setting 'Q', use Z, X or Y"):
            compute_assemblage(noisy_state(0.5), ("Z", "Q"))

    def test_keys_and_member_shape_checked(self):
        member = np.eye(2) / 4.0
        with pytest.raises(BasisMismatch, match=r"are not \(x, ±1\) for each setting x"):
            Assemblage(("Z",), {("Z", +1): member, ("X", -1): member})
        with pytest.raises(NonQubitBobMarginal, match=r"member \('Z', 1\) has shape \(3, 3\)"):
            Assemblage(("Z",), {("Z", +1): np.eye(3) / 6.0, ("Z", -1): member})

    @staticmethod
    def one_member(matrix) -> Assemblage:
        member = np.asarray(matrix, dtype=complex)
        return Assemblage(("Z",), {("Z", +1): member, ("Z", -1): member})

    @pytest.mark.parametrize("matrix", [
        [[0.5, 0.0], [2e-10, 0.5]],
        [[0.5, 2e-10j], [0.0, 0.5]],
        [[2e-10j, 0.0], [0.0, 0.5]],
        [[np.nan, 0.0], [0.0, 0.5]],
    ])
    def test_member_off_hermitian_by_2e10_or_nan_rejected(self, matrix):
        with pytest.raises(ValueError, match="not Hermitian"):
            self.one_member(matrix)

    @pytest.mark.parametrize("lowest, accepted", [(-2e-10, False), (-5e-11, True)])
    def test_member_psd_bound_at_atol(self, lowest, accepted):
        turn = np.array([[1.0, 1.0], [1.0, -1.0]]) * SQ2
        for matrix in (np.diag([0.5, lowest]), turn @ np.diag([0.5, lowest]) @ turn):
            if accepted:
                self.one_member(matrix)
            else:
                with pytest.raises(ValueError, match="not PSD"):
                    self.one_member(matrix)

    def test_member_checks_equal_allclose_and_eigvalsh(self, rng):
        # Oracle: the numpy checks the closed forms spell out, on members whose lowest
        # eigenvalue and whose skew each lie within a factor 2 of their bound.
        seen = set()
        for _ in range(400):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            unitary = np.linalg.qr(g)[0]
            lowest = -1e-10 * rng.uniform(0.5, 2.0)
            matrix = unitary @ np.diag([rng.uniform(0, 1), lowest]) @ unitary.conj().T
            bound = 1e-10 + 1e-5 * abs(matrix[1, 0])
            matrix[1, 0] += bound * rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
            hermitian = np.allclose(matrix, matrix.conj().T, atol=1e-10)
            psd = np.linalg.eigvalsh(matrix).min() >= -1e-10
            try:
                self.one_member(matrix)
                verdict = "accepted"
            except ValueError as exc:
                verdict = str(exc)
            if not hermitian:
                assert "not Hermitian" in verdict
            elif not psd:
                assert "not PSD" in verdict
            else:
                assert verdict == "accepted"
            seen.add((hermitian, psd))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


def kron_correlation(rho: np.ndarray, x: str, y: str) -> float:
    """Tr[rho (A_x ⊗ B_y)] with the 4x4 product written out."""
    return float(np.trace(rho @ np.kron(ALICE_OBSERVABLES[x], BOB_OBSERVABLES[y])).real)


def eigen_projector(observable: np.ndarray, outcome: int) -> np.ndarray:
    """|e><e| for the eigenvector e of a dichotomic observable with eigenvalue ``outcome``."""
    values, vectors = np.linalg.eigh(observable)
    e = vectors[:, int(np.argmin(np.abs(values - outcome)))]
    return np.outer(e, e.conj())


class TestObservableTableOracle:
    """The einsum contractions against kron products and eigenprojectors, on the
    presets and on 1000 seeded random pure and mixed frames."""

    @pytest.fixture
    def frames(self, rng):
        specs = ("eq1", "twc", "qplate_tripartite", "hardy", "noisy:0.72", "noisy:1")
        frames = [two_qubit_frame(preset(spec))[0] for spec in specs]
        return frames + [random_two_qubit_density(rng, mixed)
                         for mixed in (False, True) for _ in range(500)]

    def test_cjwr_equals_kron_trace_sum(self, frames):
        for rho in frames:
            for axes in (("Z", "X"), ("Z", "X", "Y")):
                want = abs(sum(kron_correlation(rho.matrix, x, x) for x in axes))
                assert abs(cjwr_value(rho, axes) - want / np.sqrt(len(axes))) <= 1e-14

    def test_members_equal_eigenprojector_partial_traces(self, frames):
        keys = list(product(("Z", "X", "Y"), (+1, -1)))
        lifted = {(x, a): np.kron(eigen_projector(ALICE_OBSERVABLES[x], a), IDENTITY)
                  for x, a in keys}
        for rho in frames:
            asm = compute_assemblage(rho, ("Z", "X", "Y"))
            for x, a in keys:
                big = lifted[(x, a)] @ rho.matrix
                want = big.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
                assert np.max(np.abs(asm.members[(x, a)] - want)) <= 1e-14

    def test_chsh_correlators_equal_kron_correlation_matrix(self, frames):
        angles = np.deg2rad(steering.STANDARD_CHSH_ANGLES)
        u = np.stack([np.cos(angles), np.sin(angles)])  # columns u_a0, u_a1, u_b0, u_b1
        for rho in frames:
            T = np.array([[kron_correlation(rho.matrix, i, j) for j in "ZX"] for i in "ZX"])
            want = [u[:, a] @ T @ u[:, b] for a, b in ((0, 2), (0, 3), (1, 2), (1, 3))]
            got = chsh_value(rho, *steering.STANDARD_CHSH_ANGLES).correlators
            assert np.max(np.abs(np.array(got) - want)) <= 1e-14

    @pytest.mark.parametrize("settings", [("Z", "X"), ("Z", "X", "Y"), ("X", "Y"), ("Y", "Z"),
                                          ("X", "Z")])
    def test_no_signaling_is_exact_on_presets(self, settings):
        # Each projector pair (I ± A)/2 sums to I exactly, and these frames' entries
        # leave no rounding in the outcome sums.
        specs = ["eq1", "twc", "qplate_tripartite"]
        specs += [f"noisy:{v}" for v in np.linspace(0.0, 1.0, 201)]
        residuals = {spec: compute_assemblage(two_qubit_frame(preset(spec))[0], settings)
                     .no_signaling_residual() for spec in specs}
        assert {spec: r for spec, r in residuals.items() if r != 0.0} == {}


class TestCjwr:
    def test_entangled_preset_violates(self):
        assert cjwr_value(two_qubit_frame(eq1_state(), "PUE")[0], ("Z", "X")) == pytest.approx(
            np.sqrt(2.0), abs=1e-9
        )

    def test_three_axes(self):
        assert cjwr_value(two_qubit_frame(eq1_state(), "PUE")[0], ("Z", "X", "Y")) == pytest.approx(
            np.sqrt(3.0), abs=1e-9
        )

    def test_product_state_stays_local(self):
        value = cjwr_value(two_qubit_frame(product_state_ny_v(), "PUE")[0], ("Z", "X"))
        assert value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    def test_visibility_scales_linearly(self):
        for v in np.arange(0.1, 1.05, 0.1):
            value = cjwr_value(noisy_state(float(v)), ("Z", "X"))
            assert value == pytest.approx(float(v) * np.sqrt(2.0), abs=1e-9)

    def test_zero_pairs_rejected(self):
        with pytest.raises(ValueError):
            cjwr_value(two_qubit_frame(eq1_state(), "PUE")[0], ())

    def test_unknown_axis_rejected(self):
        with pytest.raises(NonDichotomicObservable):
            cjwr_value(noisy_state(1.0), ("Z", "W"))

    @pytest.mark.parametrize("axes", [("Z", "Z"), ("Z", "Z", "Z"), ("X", "Z", "X")])
    def test_repeated_axis_rejected(self, axes):
        # F_n <= 1 holds for distinct axes only: on this separable frame ("Z", "Z")
        # would read sqrt(2) and ("Z", "Z", "Z") sqrt(3).
        rho = DensityOperator(QUBIT_PAIR_LABELS, np.diag([0.0, 0.5, 0.5, 0.0]))
        assert cjwr_value(rho, ("Z", "X")) == pytest.approx(1.0 / np.sqrt(2.0))
        with pytest.raises(ValueError, match="distinct axes"):
            cjwr_value(rho, axes)


class TestChsh:
    def test_result_bounds_checked(self):
        with pytest.raises(ValueError, match="CHSH value 3.0 exceeds the Tsirelson bound"):
            steering.ChshResult(3.0, steering.STANDARD_CHSH_ANGLES, (0.75,) * 4)
        with pytest.raises(ValueError, match=r"correlator 1.5 outside \[-1, 1\]"):
            steering.ChshResult(1.5, steering.STANDARD_CHSH_ANGLES, (1.5, 0.0, 0.0, 0.0))

    def test_standard_angles_reach_tsirelson(self):
        result = chsh_value(two_qubit_frame(eq1_state(), "PUE")[0], 0.0, 90.0, 45.0, 135.0)
        assert result.value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    def test_correlators_within_unit_interval(self):
        result = chsh_value(two_qubit_frame(eq1_state(), "PUE")[0], 0.0, 90.0, 45.0, 135.0)
        assert all(abs(e) <= 1.0 + 1e-10 for e in result.correlators)

    def test_half_visibility_halves_the_value(self):
        result = chsh_value(noisy_state(0.5), 0.0, 90.0, 45.0, 135.0)
        assert result.value == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_product_state_bounded_by_two(self, rng):
        for _ in range(25):
            angles = rng.uniform(0.0, 360.0, size=4)
            result = chsh_value(two_qubit_frame(product_state_ny_v(), "PUE")[0], *angles)
            assert abs(result.value) <= 2.0 + 1e-9


class TestChshOptimize:
    def test_fine_grid_approaches_tsirelson(self):
        result = chsh_optimize(two_qubit_frame(eq1_state(), "PUE")[0], 5.0)
        assert result.value >= 2.81

    def test_product_state_never_beats_local_bound(self):
        result = chsh_optimize(two_qubit_frame(product_state_ny_v(), "PUE")[0], 5.0)
        assert result.value <= 2.0 + 1e-9

    def test_coarse_axis_grid_tops_out_at_two(self):
        result = chsh_optimize(two_qubit_frame(eq1_state(), "PUE")[0], 90.0)
        assert result.value == pytest.approx(2.0, abs=1e-9)

    def test_optimum_angles_reproduce_reported_value(self):
        best = chsh_optimize(noisy_state(0.85), 15.0)
        redo = chsh_value(noisy_state(0.85), *best.angles)
        assert redo.value == pytest.approx(best.value, abs=1e-12)

    def test_tsirelson_bound_on_random_states(self, rng):
        for _ in range(60):
            rho = random_two_qubit_density(rng, mixed=bool(rng.integers(2)))
            assert chsh_optimize(rho, 15.0).value <= 2.0 * np.sqrt(2.0) + 1e-9

    def test_step_must_divide_circle(self):
        with pytest.raises(ValueError):
            chsh_optimize(noisy_state(1.0), 7.0)


class TestChshGridOracles:
    """``chsh_optimize`` against the brute-force grid scan and the closed form."""

    @staticmethod
    def assert_same_as_brute_force(rho, step):
        fast = chsh_optimize(rho, step)
        slow = brute_chsh_grid(rho, step)
        assert fast.angles == slow.angles and fast.value == slow.value, (step, fast, slow)

    # np.arange gives 360/161 a 162nd point just below 360°.
    @pytest.mark.parametrize("step", [90.0, 45.0, 15.0, 5.0, 3.0, 2.0, 360.0 / 161])
    def test_equals_brute_force_on_random_states(self, rng, step):
        for mixed in (False, True) * 3:
            self.assert_same_as_brute_force(random_two_qubit_density(rng, mixed), step)

    @pytest.mark.parametrize("step", [90.0, 45.0, 15.0, 5.0, 3.0, 2.0])
    def test_equals_brute_force_on_noisy_and_rank_one_states(self, step):
        # v = 0 makes T = 0, so every grid point ties.
        for v in (0.0, 0.3, 0.7071, 1.0):
            self.assert_same_as_brute_force(noisy_state(v), step)
        self.assert_same_as_brute_force(two_qubit_frame(product_state_ny_v(), "PUE")[0], step)

    @pytest.mark.parametrize("step", [1.5, 1.0])
    def test_equals_brute_force_on_fine_grids(self, rng, step):
        for state in (noisy_state(0.0), noisy_state(0.7071), random_two_qubit_density(rng, True)):
            self.assert_same_as_brute_force(state, step)

    # The optimum's Alice angles sit off the grid: exact and near ties between grid pairs.
    @pytest.mark.parametrize("step", [15.0, 5.0, 2.0])
    @pytest.mark.parametrize("phi", [7.3, 41.0, 123.45, 301.9])
    def test_equals_brute_force_on_alice_rotated_noisy_frames(self, step, phi):
        for v in (1.0, 0.63):
            self.assert_same_as_brute_force(alice_rotated(noisy_state(v), phi), step)

    @pytest.mark.parametrize("step", [5.0, 2.0])
    def test_equals_brute_force_when_every_bound_is_below_the_rounding_margin(self, step):
        # T of order 1e-13: every pair bound sits under the margin, so every pair survives.
        for rho in (noisy_state(1e-13), alice_rotated(noisy_state(1e-13), 7.3)):
            assert 0.0 < horodecki_chsh_bound(rho.matrix) < steering._ROUNDING_MARGIN
            self.assert_same_as_brute_force(rho, step)

    @pytest.mark.parametrize("step", [1.5, 1.0])
    def test_equals_brute_force_on_product_and_noisy_frames_at_fine_steps(self, step):
        self.assert_same_as_brute_force(two_qubit_frame(product_state_ny_v(), "PUE")[0], step)
        self.assert_same_as_brute_force(noisy_state(0.63), step)

    def test_never_above_the_closed_form_optimum(self, rng):
        for _ in range(30):
            rho = random_two_qubit_density(rng, mixed=bool(rng.integers(2)))
            for step in (15.0, 5.0):
                assert chsh_optimize(rho, step).value <= horodecki_chsh_bound(rho.matrix) + 1e-9

    @pytest.mark.parametrize("step", [45.0, 15.0, 5.0, 3.0, 1.0])
    def test_noisy_state_reaches_the_closed_form_on_grids_through_45_degrees(self, step):
        for v in (0.0, 0.3, 0.7071, 1.0):
            bound = horodecki_chsh_bound(noisy_state(v).matrix)
            assert bound == pytest.approx(2.0 * np.sqrt(2.0) * v, abs=1e-9)
            assert chsh_optimize(noisy_state(v), step).value == pytest.approx(bound, abs=1e-9)

    @pytest.mark.parametrize("v", [0.7, 0.0])
    def test_one_degree_search_stays_within_64_mib(self, v):
        # v = 0 is the worst case: every Bob pair scans all 360 Alice angles.
        state = noisy_state(v)
        tracemalloc.start()
        try:
            chsh_optimize(state, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


class TestCostBounds:
    """``check_grid`` and ``check_chsh_step`` raise a one-line ``OutOfRange`` before the
    search they size allocates anything."""

    @staticmethod
    def assert_one_line_out_of_range(call, match):
        with pytest.raises(OutOfRange, match=match) as err:
            call()
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("grid_n", [steering.MIN_GRID - 1, steering.MAX_GRID + 1, 6.5, "7"])
    def test_lhs_grid_out_of_range_raises_before_the_grid(self, monkeypatch, grid_n):
        asm = compute_assemblage(noisy_state(0.7), ("Z", "X"))

        def no_grid(count):
            raise AssertionError("the LHS grid was built")

        monkeypatch.setattr(steering, "fibonacci_bloch_grid", no_grid)
        self.assert_one_line_out_of_range(lambda: lhs_feasibility(asm, grid_n),
                                          f"from {steering.MIN_GRID} to {steering.MAX_GRID}")

    @pytest.mark.parametrize(
        "step", [math.inf, -math.inf, math.nan, 0.0, -5.0, 1e-300, 0.9999999, 7.0, 720.0])
    def test_chsh_step_out_of_range_raises_before_the_angles(self, monkeypatch, step):
        rho = noisy_state(0.7)

        def no_angles(*args, **kwargs):
            raise AssertionError("the CHSH angle grid was built")

        monkeypatch.setattr(steering.np, "arange", no_angles)
        self.assert_one_line_out_of_range(lambda: chsh_optimize(rho, step), "divide 360")

    def test_bounds_admit_their_edges(self):
        for n in (steering.MIN_GRID, steering.MAX_GRID, np.int64(10), np.int32(6)):
            assert steering.check_grid(n) == n and type(steering.check_grid(n)) is int
        for step in (steering.MIN_CHSH_STEP, 360.0, 360.0 / 161):
            steering.check_chsh_step(step)

    def test_numpy_integer_grid_gives_the_int_verdict(self):
        asm = compute_assemblage(noisy_state(0.5), ("Z", "X"))
        assert lhs_feasibility(asm, np.int64(10)) == lhs_feasibility(asm, 10)


def solved_program(asm: Assemblage, grid_n: int):
    """The program ``lhs_feasibility`` hands to the solver, as a dense (A, b)."""
    solved, comps, b = lhs_program(asm, grid_n)
    return dense_matrix(solved, comps), b


def column_loop_program(asm: Assemblage, grid_n: int):
    """The full LHS program, one column per (strategy, grid state), grid index fastest:
    rows (setting, outcome, component), 8m of them."""
    columns = []
    for strategy in product((+1, -1), repeat=len(asm.settings)):
        responds = [float(a == b) for a in strategy for b in (+1, -1)]
        for n in fibonacci_bloch_grid(grid_n * grid_n):
            comp = steering._real_components(steering._bloch_state(n))
            columns.append(np.concatenate([r * comp for r in responds]))
    b = np.concatenate([steering._real_components(asm.members[(x, a)])
                        for x in asm.settings for a in (+1, -1)])
    return np.array(columns).T, b


class TestLhsFeasibility:
    def test_low_visibility_certified(self):
        asm = compute_assemblage(noisy_state(0.4), ("Z", "X"))
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "UnsteerableCertified"
        assert verdict.residual < 1e-7
        assert replay_certificate(verdict, asm) < 1e-7

    def test_high_visibility_not_representable(self):
        asm = compute_assemblage(noisy_state(0.9), ("Z", "X"))
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "NoLHSFoundAtResolution"
        assert cjwr_value(noisy_state(0.9), ("Z", "X")) > 1.0

    def test_maximally_mixed_assemblage_certified(self):
        verdict = lhs_feasibility(compute_assemblage(noisy_state(0.0), ("Z", "X")), 20)
        assert verdict.status == "UnsteerableCertified"

    def test_certificate_weights_form_distribution(self):
        asm = compute_assemblage(noisy_state(0.3), ("Z", "X"))
        verdict = lhs_feasibility(asm, 20)
        total = sum(w for _, _, w in verdict.certificate)
        assert total == pytest.approx(1.0, abs=1e-8)
        assert all(w >= 0 for _, _, w in verdict.certificate)

    def test_grid_too_coarse(self):
        asm = compute_assemblage(noisy_state(0.4), ("Z", "X"))
        with pytest.raises(OutOfRange, match="from 6 to 100"):
            lhs_feasibility(asm, 5)

    def test_too_many_settings(self):
        member = np.eye(2) / 4.0
        names = tuple(f"s{i}" for i in range(5))
        asm = Assemblage(names, {(x, a): member for x in names for a in (1, -1)})
        with pytest.raises(TooManySettings):
            lhs_feasibility(asm, 10)

    def test_replay_needs_a_certificate(self):
        asm = compute_assemblage(noisy_state(0.9), ("Z", "X"))
        verdict = lhs_feasibility(asm, 10)
        assert verdict.status == "NoLHSFoundAtResolution"
        with pytest.raises(ValueError, match="verdict carries no certificate"):
            replay_certificate(verdict, asm)

    def test_certification_is_monotone_under_refinement(self):
        for v in (0.0, 0.4, 0.65):
            asm = compute_assemblage(noisy_state(v), ("Z", "X"))
            certified = [
                lhs_feasibility(asm, g).status == "UnsteerableCertified"
                for g in (10, 20, 40)
            ]
            for coarse, fine in zip(certified, certified[1:]):
                assert (not coarse) or fine
        assert lhs_feasibility(
            compute_assemblage(noisy_state(0.4), ("Z", "X")), 10
        ).status == "UnsteerableCertified"

    def test_cjwr_violation_implies_no_lhs(self):
        for v in (0.8, 0.9, 1.0):
            rho = noisy_state(v)
            assert cjwr_value(rho, ("Z", "X")) > 1.0
            for grid in (10, 20):
                verdict = lhs_feasibility(compute_assemblage(rho, ("Z", "X")), grid)
                assert verdict.status == "NoLHSFoundAtResolution"

    def test_three_setting_program(self):
        asm = compute_assemblage(noisy_state(0.4), ("Z", "X", "Y"))
        verdict = lhs_feasibility(asm, 12)
        assert verdict.status == "UnsteerableCertified"

    @pytest.mark.parametrize("settings", [("Z", "X"), ("Z", "X", "Y")])
    def test_constraint_matrix_matches_column_loop(self, settings):
        asm = compute_assemblage(noisy_state(0.5), settings)
        A, b = solved_program(asm, 10)

        # The solved rows: Bob's marginal from the first setting, then sigma(+1|x)
        # for each setting, taken from the full program's rows (x, a, component).
        full_A, full_b = column_loop_program(asm, 10)
        rows = full_A.reshape(len(settings), 2, 4, -1)
        np.testing.assert_array_equal(
            A, np.concatenate([rows[0, 0] + rows[0, 1], *rows[:, 0]]))
        target = full_b.reshape(len(settings), 2, 4)
        np.testing.assert_array_equal(
            b, np.concatenate([target[0, 0] + target[0, 1], *target[:, 0]]))

    @pytest.mark.parametrize("settings", [("Z", "X"), ("Z", "X", "Y")])
    def test_solved_program_has_full_row_rank(self, settings):
        A, _ = solved_program(compute_assemblage(noisy_state(0.5), settings), 10)
        assert A.shape[0] == 4 * len(settings) + 4
        assert np.linalg.matrix_rank(A) == A.shape[0]

    @pytest.mark.parametrize("settings", [("Z", "X"), ("Z", "X", "Y")])
    @pytest.mark.parametrize("grid", [10, 20])
    def test_verdicts_equal_the_full_program(self, settings, grid):
        # The oracle: the 8m-row program of the column loop, solved as it stands.
        visibilities = np.round(np.r_[np.arange(0.30, 1.001, 0.05), 0.56, 0.58, 0.68, 0.72], 2)
        for v in visibilities:
            asm = compute_assemblage(noisy_state(v), settings)
            full_A, full_b = column_loop_program(asm, grid)
            full = solve_feasibility(full_A, [[1.0]], full_b)
            oracle = full.feasible and full.residual < 1e-7
            verdict = lhs_feasibility(asm, grid)
            assert (verdict.status == "UnsteerableCertified") == oracle, v
            if oracle:
                assert verdict.residual < 1e-7
                assert replay_certificate(verdict, asm) < 1e-7

    @pytest.mark.parametrize("signalling", ["Z", "X"])
    def test_signalling_assemblage_finds_no_model(self, signalling):
        members = dict(compute_assemblage(noisy_state(0.4), ("Z", "X")).members)
        members[(signalling, +1)] = members[(signalling, +1)] + 1e-3 * IDENTITY
        asm = Assemblage(("Z", "X"), members)
        assert asm.no_signaling_residual() == pytest.approx(1e-3)
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "NoLHSFoundAtResolution"
        assert verdict.certificate is None
        assert verdict.residual > 1e-7

    @pytest.mark.parametrize(
        "v, settings, grid, bound",
        [(0.65, ("Z", "X"), 40, 200), (0.6, ("Z", "X", "Y"), 20, 400)],
    )
    def test_pivot_count_stays_small_and_repeats(self, v, settings, grid, bound):
        asm = compute_assemblage(noisy_state(v), settings)
        first = lhs_feasibility(asm, grid)
        assert first.pivots <= bound
        assert lhs_feasibility(asm, grid).pivots == first.pivots

    def test_cached_structure_is_read_only_and_bounded(self):
        grid, strategies, *arrays = steering._lhs_structure(10, 2)
        assert steering._lhs_structure.cache_info().maxsize is not None
        assert isinstance(strategies, tuple)
        for array in (grid, *arrays):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0

    @pytest.mark.parametrize("settings", [("Z", "X"), ("Z", "X", "Y")])
    def test_verdict_does_not_depend_on_the_cache(self, settings):
        asm = compute_assemblage(noisy_state(0.5), settings)
        steering._lhs_structure.cache_clear()
        fresh = lhs_feasibility(asm, 10)
        lhs_feasibility(asm, 40)
        lhs_feasibility(asm, 20)
        assert lhs_feasibility(asm, 10) == fresh

    @pytest.mark.parametrize(
        "v, settings, grid", [(0.65, ("Z", "X"), 60), (0.55, ("Z", "X", "Y"), 40)]
    )
    def test_fine_grids_certify(self, v, settings, grid):
        asm = compute_assemblage(noisy_state(v), settings)
        verdict = lhs_feasibility(asm, grid)
        assert verdict.status == "UnsteerableCertified"
        assert replay_certificate(verdict, asm) < 1e-7

    def test_visibility_sweep_switches_once_below_the_threshold(self):
        visibilities = np.round(np.linspace(0.3, 1.0, 36), 10)
        certified = [
            lhs_feasibility(compute_assemblage(noisy_state(v), ("Z", "X")), 20).status
            == "UnsteerableCertified"
            for v in visibilities
        ]
        assert sum(a != b for a, b in zip(certified, certified[1:])) == 1
        assert not any(c for v, c in zip(visibilities, certified) if v > SQ2)
        # The verdicts the lowest-index entering rule gave: certified up to v = 0.70.
        assert certified == [v <= 0.70 for v in visibilities]


class TestFibonacciGrid:
    def test_unit_vectors(self):
        grid = fibonacci_bloch_grid(400)
        np.testing.assert_allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(fibonacci_bloch_grid(100), fibonacci_bloch_grid(100))

    def test_covers_both_hemispheres(self):
        grid = fibonacci_bloch_grid(100)
        assert grid[:, 2].max() > 0.9
        assert grid[:, 2].min() < -0.9
