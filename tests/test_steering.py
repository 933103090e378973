"""Steering and Bell machinery: frames, assemblages, CJWR, CHSH, LHS search."""

import dataclasses
import math
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from conftest import (
    bloch_state,
    brute_chsh_grid,
    fibonacci_bloch_grid,
    grid_verdict,
    horodecki_chsh_bound,
    lhs_program,
    occupation_frame_oracle,
    program_residual,
    real_components,
    witness_oracle,
)

from photonsteer import steering
from photonsteer.circuit import parse_circuit, run_circuit
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
    lhs_feasibility,
    path_amplitudes,
    pol_path_qubits,
    replay_certificate,
    replay_witness,
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


def grid_vectors(step: float) -> np.ndarray:
    radians = np.deg2rad(np.arange(round(360.0 / step)) * step)
    return np.stack([np.cos(radians), np.sin(radians)])


def hypot_pair_bounds(T: np.ndarray, step: float) -> np.ndarray:
    """The pair bounds |T(u_b0 - u_b1)| + |T(u_b0 + u_b1)| in their direct form, over
    2 × k × k arrays, flat (b0 · k + b1)."""
    Tu = T @ grid_vectors(step)
    return (np.hypot(*(Tu[:, :, None] - Tu[:, None, :]))
            + np.hypot(*(Tu[:, :, None] + Tu[:, None, :]))).ravel()


def factored_pair_bounds(rho: DensityOperator, step: float) -> np.ndarray:
    """Every Bob pair's bound from ``steering._pair_bounds`` on all k differences, with
    the norm vectors and tables ``steering._survivors`` hands it, flat (b0 · k + b1).
    It calls ``_survivors`` itself: ``chsh_optimize`` forms no bounds when T is about 0."""
    seen = []

    def capture(a, c, sin2, cos2, rows):
        seen.append((a, c, sin2, cos2))
        return pair_bounds(a, c, sin2, cos2, rows)

    pair_bounds = steering._pair_bounds
    T = steering._correlations(steering._frame_matrix(rho))[:2, :2]
    _, u, means, sin2, cos2 = steering._chsh_tables(float(step))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steering, "_pair_bounds", capture)
        steering._survivors(u.T @ T @ u, T, means, sin2, cos2)
    a, c, sin2, cos2 = seen[0]
    k = sin2.size
    b0, b1, bound = pair_bounds(a, c, sin2, cos2, np.arange(k))
    flat = np.full(k * k, np.nan)
    flat[b0 * k + b1] = bound
    flat[b1 * k + b0] = bound
    return flat


def toward_white_noise(rho: DensityOperator, scale: float) -> DensityOperator:
    """scale · ρ + (1 - scale) · I/4: the correlation block T scaled by ``scale``."""
    return DensityOperator(QUBIT_PAIR_LABELS, scale * rho.matrix + (1.0 - scale) * np.eye(4) / 4)


def exact_pair_totals(T: np.ndarray, step: float) -> np.ndarray:
    """Every Bob pair's grid maximum of the a0 term plus that of the a1 term, flat
    (b0 · k + b1), one b0 row at a time."""
    u = grid_vectors(step)
    E = u.T @ T @ u  # E[i, j] = E(angle_i, angle_j)
    totals = np.empty_like(E)
    for b0 in range(E.shape[0]):
        totals[b0] = (E[:, b0, None] - E).max(axis=0) + (E[:, b0, None] + E).max(axis=0)
    return totals.ravel()


PHOTON_PRESETS = ("eq1", "twc", "hardy", "hardy:0.6,0.8", "qplate_tripartite")


class TestTwoQubitFrames:
    def test_entangled_preset_is_triplet_in_pol_occupation(self):
        rho = pol_path_qubits(eq1_state(), "PUE")
        psi = np.zeros(4, dtype=complex)  # (H,0),(H,1),(V,0),(V,1)
        psi[1] = psi[2] = SQ2
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)

    def test_vacuum_weight_rejected(self):
        with pytest.raises(NonQubitBobMarginal):
            pol_path_qubits(hardy_state(), "u2")

    @pytest.mark.parametrize("spec", PHOTON_PRESETS)
    def test_pol_path_without_a_bob_site_reads_the_frame_bob(self, spec):
        state = preset(spec)
        bob = steering.frame_sites(state)[1]
        if abs(state.amps[0]) > 0:  # hardy: refused for its vacuum weight either way
            for site in (None, bob):
                with pytest.raises(NonQubitBobMarginal, match="vacuum weight"):
                    pol_path_qubits(state, site)
        else:
            np.testing.assert_array_equal(pol_path_qubits(state, None).matrix,
                                          pol_path_qubits(state, bob).matrix)

    def test_frame_sites_weighs_every_site_in_one_norm_call(self, monkeypatch):
        # 32 000 sites (dim 64 001). Best of 3 with time.perf_counter on a 2-vCPU Xeon:
        # frame_sites took 0.07-0.13 s with one norm call per site and takes 0.011-0.014 s
        # with one row-norm call; two_qubit_frame went 0.30-0.38 s -> 0.047-0.059 s.
        text = ("sites " + " ".join(f"s{i}" for i in range(32_000))
                + "\nsource s0 H\nhwp s0 22.5\npbs s0 -> s1 s2\n")
        state = run_circuit(parse_circuit(text))
        calls = []
        norm = np.linalg.norm

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        assert steering.frame_sites(state) == ("s1", "s2")
        assert calls == [(32_000, 2)]

    @pytest.mark.parametrize("spec", PHOTON_PRESETS)
    def test_two_qubit_frame_takes_the_sites_and_the_path_once(self, monkeypatch, spec):
        state = preset(spec)
        alice, bob = steering.frame_sites(state)
        pol_path = path_amplitudes(state) is None
        if pol_path:
            want = pol_path_qubits(state, bob).matrix, f"pol-path(bob={bob})"
        else:
            want = occupation_frame_oracle(state, alice, bob), f"occ-occ({alice},{bob})"
        calls = []
        for name in ("frame_sites", "path_amplitudes"):
            def counted(*args, _original=getattr(steering, name), _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(steering, name, counted)
        rho, label = two_qubit_frame(state)
        assert sorted(calls) == ["frame_sites", "path_amplitudes"]
        assert label == want[1]
        if pol_path:  # the same _pol_path_frame: the same bytes
            assert rho.matrix.tobytes() == want[0].tobytes()
        else:  # the per-ket oracle rounds differently
            np.testing.assert_allclose(rho.matrix, want[0], atol=1e-12)

    def test_frame_sites_of_a_declaration_without_sites(self):
        with pytest.raises(NonQubitBobMarginal, match="needs two sites"):
            steering.frame_sites(StateVector.vacuum(BasisDecl(())))

    def test_dual_rail_frame_for_path_state(self):
        rho = two_qubit_frame(twc_state(), "b2")[0]
        psi = np.zeros(4, dtype=complex)  # |n_A n_B>: 00, 01, 10, 11
        psi[2] = SQ2  # photon at b1
        psi[1] = 1j * SQ2  # photon at b2
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)

    def test_dual_rail_frame_keeps_vacuum_coherence(self):
        rho = two_qubit_frame(hardy_state(0.6, 0.8), "u2")[0]
        psi = np.zeros(4, dtype=complex)
        psi[0] = 0.6
        psi[2] = 0.8j / np.sqrt(2)
        psi[1] = 0.8 / np.sqrt(2)
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)

    def test_internal_entanglement_reads_in_the_pol_path_frame(self):
        s = StateVector.from_amplitudes(
            DECL,
            {BasisKet.photon("NY", "H"): SQ2, BasisKet.photon("PUE", "V"): SQ2},
        )
        assert path_amplitudes(s) is None
        assert two_qubit_frame(s)[1] == "pol-path(bob=PUE)"

    @pytest.mark.parametrize("bob, error, message", [
        ("zz", UnknownSite, r"site 'zz' not declared \(have \('b1', 'b2', 'b3'\)\)"),
        ("b2", NonQubitBobMarginal, r"photon amplitude at \['b1', 'b3'\] besides Bob's site 'b2'"),
    ])
    def test_dual_rail_frame_site_errors(self, bob, error, message):
        decl = BasisDecl(("b1", "b2", "b3"))
        split = StateVector.from_amplitudes(
            decl, {BasisKet.photon(s, "H"): 1.0 / np.sqrt(3.0) for s in decl.sites})
        with pytest.raises(error, match=message):
            two_qubit_frame(split, bob)

    @pytest.mark.parametrize("bob, alice", [("b1", "b2"), ("b2", "b1"), ("b3", "b1")])
    def test_dual_rail_frame_of_a_photon_at_bob_alone(self, bob, alice):
        # Alice is the first other declared site, never Bob's, and holds no photon.
        decl = BasisDecl(("b1", "b2", "b3"))
        state = StateVector.from_amplitudes(
            decl, {BasisKet.vacuum(): 0.6, BasisKet.photon(bob, "V"): 0.8j})
        rho, label = two_qubit_frame(state, bob)
        assert label == f"occ-occ({alice},{bob})"
        psi = np.array([0.6, 0.8j, 0.0, 0.0])  # |n_A n_B>: 00, 01, 10, 11
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)

    @pytest.mark.parametrize("n_sites, n_oam", [(2, 2048), (2048, 1)])
    def test_path_amplitudes_stays_within_4_mib(self, rng, n_sites, n_oam):
        # A full SVD would hold a (2 n_oam)² vh or an n_sites² u: 256 or 64 MiB here.
        decl = BasisDecl(tuple(f"s{i:04d}" for i in range(n_sites)), tuple(range(n_oam)))
        path = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
        internal = rng.normal(size=(2, n_oam)) + 1j * rng.normal(size=(2, n_oam))
        amps = np.zeros(decl.dim, dtype=complex)
        decl.tensor(amps)[...] = path[:, None, None] * internal
        state = StateVector(decl, amps / np.linalg.norm(amps))
        tracemalloc.start()
        try:
            occ = path_amplitudes(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        np.testing.assert_allclose(np.abs(occ), np.abs(path) / np.linalg.norm(path), atol=1e-12)

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

    @pytest.mark.parametrize("settings", [("Z", "X"), ("Y", "X", "Z")])
    def test_members_and_cjwr_are_one_contraction_each(self, monkeypatch, settings):
        calls = []
        einsum = np.einsum

        def counted(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        rho = noisy_state(0.7)
        compute_assemblage(rho, settings)
        assert len(calls) == 1
        cjwr_value(rho, settings)
        assert len(calls) == 2

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

    def test_value_equals_the_per_correlator_formula_bit_for_bit(self, rng):
        # The oracle builds both unit vectors of every correlator afresh, u_a T u_b.
        def correlator(T, a, b):
            ta, tb = np.deg2rad(a), np.deg2rad(b)
            ua = np.array([np.cos(ta), np.sin(ta)])
            ub = np.array([np.cos(tb), np.sin(tb)])
            return float(ua @ T @ ub)

        for rho in ranked_frames(40):
            T = steering._correlations(steering._frame_matrix(rho))[:2, :2]
            for a0, a1, b0, b1 in rng.uniform(-720.0, 720.0, size=(25, 4)):
                want = (correlator(T, a0, b0), correlator(T, a0, b1),
                        correlator(T, a1, b0), correlator(T, a1, b1))
                got = chsh_value(rho, a0, a1, b0, b1)
                assert got.correlators == want
                assert got.value == want[0] - want[1] + want[2] + want[3]


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

    @pytest.mark.parametrize("step", [90.0, 45.0, 15.0, 5.0, 3.0, 2.0, 360.0 / 161])
    def test_equals_brute_force_on_random_states(self, rng, step):
        for mixed in (False, True) * 3:
            self.assert_same_as_brute_force(random_two_qubit_density(rng, mixed), step)

    def test_every_angle_at_a_step_of_360_over_161_is_below_360(self):
        # The grid is the k = 161 angles n · step. np.arange(0, 360, step) had a 162nd,
        # 359.99999999999994, a near-copy of 0° that state 247 of this seed came back with.
        rng = np.random.default_rng(3)
        step = 360.0 / 161
        assert steering._chsh_tables(step)[0].size == 161
        for _ in range(300):
            angles = chsh_optimize(random_two_qubit_density(rng), step).angles
            assert all(0.0 <= angle < 360.0 for angle in angles), angles

    @pytest.mark.parametrize("step", [90.0, 45.0, 15.0, 5.0, 3.0, 2.0])
    def test_equals_brute_force_on_noisy_and_rank_one_states(self, step):
        # v = 0 makes T = 0, so every grid point ties; at v = 1e-13 and 1e-9 every term
        # is too short to bracket at 2°, so every surviving pair is scanned.
        for v in (0.0, 1e-13, 1e-9, 0.3, 0.7071, 1.0):
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
        # T of order 1e-13: every pair bound sits under the margin and no term clears the
        # bracket gate, so every pair is scanned.
        for rho in (noisy_state(1e-13), alice_rotated(noisy_state(1e-13), 7.3)):
            assert 0.0 < horodecki_chsh_bound(rho.matrix) < steering._ROUNDING_MARGIN
            self.assert_same_as_brute_force(rho, step)

    # T scaled from 1e-6 down to 1e-11: a survivor's terms are read from their two bracket
    # angles while |w| · 2 sin²(step/2) clears _BRACKET_GAP, and scanned below it (k = 2
    # always scans: every pair has a zero term).
    @pytest.mark.parametrize("step", [2.0, 1.0, 360.0 / 161, 120.0, 180.0])
    @pytest.mark.parametrize("scale", [1e-6, 1e-8, 1e-9, 1e-10, 1e-11])
    def test_equals_brute_force_near_the_bracket_gate(self, step, scale):
        rho = random_two_qubit_density(np.random.default_rng(11), mixed=True)
        self.assert_same_as_brute_force(toward_white_noise(rho, scale), step)

    # Product frames: T has rank one, so many Bob pairs tie at the maximum, among them
    # pairs 180° apart, whose a1 term is rounding noise (about 1e-17). Only the gate keeps
    # such a term off its two bracket angles.
    @pytest.mark.parametrize("step, alice, bob", [
        (3.0, 0.0, 140.0), (2.0, 0.0, 55.0), (2.0, 17.0, 15.0), (2.0, 33.3, 45.0)])
    def test_equals_brute_force_on_product_frames_with_a_term_of_rounding_noise(
            self, step, alice, bob):
        def pure(deg):  # the pure qubit state of Bloch vector (cos, sin) in the Z-X plane
            t = np.deg2rad(deg)
            return (np.eye(2) + np.cos(t) * np.diag([1.0, -1.0]) + np.sin(t) * PAULI_X) / 2

        rho = DensityOperator(QUBIT_PAIR_LABELS, np.kron(pure(alice), pure(bob)))
        self.assert_same_as_brute_force(rho, step)

    @staticmethod
    def pairs_seen(rho, step):
        """(bracketed, scanned): the Bob pairs one search reads from bracket angles and
        the pairs it scans over every Alice angle."""
        seen = {"bracketed": 0, "scanned": 0}
        bracket, scan = steering._bracket, steering._scan_pairs

        def bracketed(E, b0, b1, w):
            seen["bracketed"] += b0.size
            return bracket(E, b0, b1, w)

        def scanned(E, pairs):
            seen["scanned"] += pairs.size
            return scan(E, pairs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(steering, "_bracket", bracketed)
            patch.setattr(steering, "_scan_pairs", scanned)
            chsh_optimize(rho, step)
        return seen["bracketed"], seen["scanned"]

    @pytest.mark.parametrize("step, scale", [(1.0, 3e-8), (360.0 / 161, 5e-9), (120.0, 1e-11)])
    def test_equals_brute_force_when_one_search_brackets_some_pairs_and_scans_others(
            self, step, scale):
        rho = toward_white_noise(random_two_qubit_density(np.random.default_rng(11), True), scale)
        bracketed, scanned = self.pairs_seen(rho, step)
        assert bracketed > 0 and scanned > 0
        self.assert_same_as_brute_force(rho, step)

    def test_a_noisy_frame_scans_at_most_one_pair_at_one_degree(self):
        bracketed, scanned = self.pairs_seen(noisy_state(0.7), 1.0)
        assert scanned <= 1 and bracketed > 0

    @pytest.mark.parametrize("step", [1.5, 1.0])
    def test_equals_brute_force_on_product_and_noisy_frames_at_fine_steps(self, step):
        self.assert_same_as_brute_force(two_qubit_frame(product_state_ny_v(), "PUE")[0], step)
        self.assert_same_as_brute_force(noisy_state(0.63), step)

    @pytest.mark.parametrize("step", [5.0, 3.0, 2.0])
    @pytest.mark.parametrize("name", PHOTON_PRESETS)
    def test_equals_brute_force_on_photon_preset_frames(self, step, name):
        self.assert_same_as_brute_force(two_qubit_frame(preset(name))[0], step)

    # k = 1, 2 and 3: the bound tables are 1 × 1 to 3 × 3 views of 1 to 5 floats.
    @pytest.mark.parametrize("step", [360.0, 180.0, 120.0])
    def test_equals_brute_force_on_the_coarsest_grids(self, rng, step):
        self.assert_same_as_brute_force(noisy_state(0.7), step)
        self.assert_same_as_brute_force(random_two_qubit_density(rng, mixed=True), step)

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

    def test_one_degree_search_on_a_noisy_frame_stays_within_6_mib(self):
        # E is the one k² array (~1 MiB): the bounds and the survivors are O(k), ~1.2 MiB in
        # all; bounding all k² pairs peaked at 3.5 MiB, their 2 × k × k hypot form at 7.5 MiB.
        state = noisy_state(0.7)
        tracemalloc.start()
        try:
            chsh_optimize(state, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


def bound_states(rng):
    """noisy:v for v = 0 … 1 by 0.05, Alice-rotated noisy frames, the photon-preset
    frames and random pure and mixed states."""
    states = [noisy_state(v) for v in np.linspace(0.0, 1.0, 21)]
    states += [alice_rotated(noisy_state(v), phi) for v in (1.0, 0.63) for phi in (7.3, 123.45)]
    states += [two_qubit_frame(preset(name))[0] for name in PHOTON_PRESETS]
    states += [random_two_qubit_density(rng, mixed) for mixed in (False, True, False, True)]
    return states


class TestChshPairBounds:
    """The factored pair bounds against the direct ``hypot`` form and the exact totals,
    and the per-step tables they read."""

    STEPS = [5.0, 3.0, 2.0, 1.5, 1.0, 360.0 / 161]

    @staticmethod
    def correlations(rho):
        return steering._correlations(steering._frame_matrix(rho))[:2, :2]

    @pytest.mark.parametrize("step", STEPS)
    def test_equal_the_hypot_form_within_1e_12(self, rng, step):
        for rho in bound_states(rng):
            factored = factored_pair_bounds(rho, step)
            assert factored.shape == (grid_vectors(step).shape[1] ** 2,)
            hypot_form = hypot_pair_bounds(self.correlations(rho), step)
            assert np.abs(factored - hypot_form).max() <= 1e-12  # NaN (a pair missed) fails

    @pytest.mark.parametrize("step", STEPS)
    def test_never_below_a_pair_exact_total_less_the_margin(self, rng, step):
        states = bound_states(rng)
        if step < 2.0:  # the k³ exact totals take ~0.2 s a state at 1°
            states = [noisy_state(0.0), noisy_state(0.7), alice_rotated(noisy_state(1.0), 7.3),
                      two_qubit_frame(preset("eq1"))[0], random_two_qubit_density(rng, True)]
        for rho in states:
            exact = exact_pair_totals(self.correlations(rho), step)
            assert (factored_pair_bounds(rho, step) - exact).min() >= -steering._ROUNDING_MARGIN

    def test_every_array_of_an_entry_is_read_only(self):
        for array in steering._chsh_tables(2.0):
            while array is not None:
                assert isinstance(array, np.ndarray) and not array.flags.writeable
                array = array.base
                if array is not None and not isinstance(array, np.ndarray):
                    array = array.base  # the interface object behind a strided view

    def test_cache_is_bounded(self):
        assert steering._chsh_tables.cache_info().maxsize is not None

    def test_one_degree_entry_holds_o_k_bytes(self):
        owners = {}
        for array in steering._chsh_tables(1.0):
            while not (isinstance(array, np.ndarray) and array.flags.owndata):
                array = array.base
            owners[id(array)] = array.nbytes
        # k = 360: the angles, 2k unit vectors, 4(2k - 1) mean vectors, 2(2k - 1) table floats.
        assert sum(owners.values()) < 64 * 2**10


class TestCostBounds:
    """``check_chsh_step`` raises a one-line ``OutOfRange`` before the search it sizes
    allocates anything."""

    @staticmethod
    def assert_one_line_out_of_range(call, match):
        with pytest.raises(OutOfRange, match=match) as err:
            call()
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize(
        "step", [math.inf, -math.inf, math.nan, 0.0, -5.0, 1e-300, 0.9999999, 7.0, 720.0])
    def test_chsh_step_out_of_range_raises_before_the_angles(self, monkeypatch, step):
        rho = noisy_state(0.7)

        def no_angles(*args, **kwargs):
            raise AssertionError("the CHSH angle grid was built")

        monkeypatch.setattr(steering.np, "arange", no_angles)
        self.assert_one_line_out_of_range(lambda: chsh_optimize(rho, step), "divide 360")

    def test_bounds_admit_their_edges(self):
        for step in (steering.MIN_CHSH_STEP, 360.0, 360.0 / 161):
            steering.check_chsh_step(step)


def column_loop_program(asm: Assemblage, grid_n: int):
    """The full LHS program, one column per (strategy, grid state), grid index fastest:
    rows (setting, outcome, component), 8m of them."""
    columns = []
    for strategy in product((+1, -1), repeat=len(asm.settings)):
        responds = [float(a == b) for a in strategy for b in (+1, -1)]
        for n in fibonacci_bloch_grid(grid_n * grid_n):
            comp = real_components(bloch_state(n))
            columns.append(np.concatenate([r * comp for r in responds]))
    b = np.concatenate([real_components(asm.members[(x, a)])
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

    def test_replay_returns_the_reported_residual_bit_for_bit(self):
        # Both paths and replay rebuild a certificate by one rule, over all 8m rows.
        certified = 0
        for spec in ("noisy:0.3", "noisy:0.5", "noisy:0.55", "noisy:0.69", "noisy:0",
                     "qplate_tripartite"):
            rho = two_qubit_frame(preset(spec))[0]
            for settings in (("Z", "X"), ("X", "Y"), ("Z", "Y"), ("Z", "X", "Y")):
                asm = compute_assemblage(rho, settings)
                for grid in (6, 10, 20, 40):
                    verdict = lhs_feasibility(asm, grid)
                    if verdict.certificate is not None:
                        certified += 1
                        assert replay_certificate(verdict, asm) == verdict.residual, (
                            spec, settings, grid)
        # 23 cases a grid_n, qplate_tripartite Z,X,Y among them, whose pole states no grid
        # holds.
        assert certified == 92

    @pytest.mark.parametrize("settings", [("Z", "X"), ("Z", "X", "Y")])
    def test_verdict_does_not_depend_on_grid_n(self, settings):
        for v in (0.0, 0.4, 0.65, 1 / math.sqrt(2), 0.9):
            asm = compute_assemblage(noisy_state(v), settings)
            first = lhs_feasibility(asm, 6)
            for grid in (10, 40, 100):
                assert lhs_feasibility(asm, grid) == first, v

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
        A, b = lhs_program(asm, 10)

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
        A, _ = lhs_program(compute_assemblage(noisy_state(0.5), settings), 10)
        assert A.shape[0] == 4 * len(settings) + 4
        assert np.linalg.matrix_rank(A) == A.shape[0]

    @pytest.mark.parametrize("settings", [("Z", "X"), ("Z", "X", "Y")])
    @pytest.mark.parametrize("grid", [10, 20])
    def test_verdicts_equal_the_full_program(self, settings, grid):
        # The factored 4m + 4-row grid program against the 8m-row program of the column
        # loop, solved as it stands.
        visibilities = np.round(np.r_[np.arange(0.30, 1.001, 0.05), 0.56, 0.58, 0.68, 0.72], 2)
        for v in visibilities:
            asm = compute_assemblage(noisy_state(v), settings)
            full_A, full_b = column_loop_program(asm, grid)
            full = solve_feasibility(full_A, full_b)
            oracle = full.feasible and program_residual(full_A, full_b, full.x) < 1e-7
            verdict = grid_verdict(asm, grid)
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

    def test_cached_strategies_are_read_only_and_bounded(self):
        strategies, solved = steering._strategies(2)
        assert steering._strategies.cache_info().maxsize is not None
        assert isinstance(strategies, tuple)
        with pytest.raises(ValueError, match="read-only"):
            solved.flat[0] = 0.0

    @pytest.mark.parametrize("settings", [("Z", "X"), ("Z", "X", "Y")])
    def test_verdict_does_not_depend_on_the_cache(self, settings, monkeypatch):
        # Both reach the simplex of column generation, the only reader of the cached
        # program factor, once the closed form is bypassed: noisy(1/√2) with Z,X has a
        # margin within the band, and noisy(0.55) with Z,X,Y lies below 1/√3, where the
        # linear witness proves nothing.
        monkeypatch.setattr(steering, "_canonical_parent", lambda *args: None)
        v = 1 / math.sqrt(2) if len(settings) == 2 else 0.55
        asm = compute_assemblage(noisy_state(v), settings)
        assert lhs_feasibility(asm, 10).pivots > 0
        steering._strategies.cache_clear()
        fresh = lhs_feasibility(asm, 10)
        lhs_feasibility(compute_assemblage(noisy_state(0.5), ("Z", "X", "Y")), 10)
        lhs_feasibility(compute_assemblage(noisy_state(0.5), ("Z", "X")), 10)
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


PAULI_VECTOR = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
SETTING_PAIRS = (("Z", "X"), ("X", "Y"), ("Y", "Z"))


def ranked_frames(count: int = 400, seed: int = 7) -> list:
    """Seeded random frames of rank 1, 2, 3 and 4 in turn."""
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(count):
        g = rng.normal(size=(4, 1 + i % 4)) + 1j * rng.normal(size=(4, 1 + i % 4))
        rho = g @ g.conj().T
        frames.append(DensityOperator(QUBIT_PAIR_LABELS, rho / np.trace(rho).real))
    return frames


def steering_equivalent_blochs(asm: Assemblage):
    """(e0, e, f0, f) of B(+1|x) = ρ^(-1/2) σ(+1|x) ρ^(-1/2) = b0·I + b·σ for both
    settings, from matrices and eigh, or None when Bob's marginal is far from full rank."""
    w, q = np.linalg.eigh(asm.bob_marginal(asm.settings[0]))
    if w[0] < 1e-3 * w[1]:
        return None
    root = q @ np.diag(w ** -0.5) @ q.conj().T
    out = []
    for x in asm.settings:
        b = root @ asm.members[(x, +1)] @ root
        out += [np.trace(b).real / 2, np.einsum("ij,kji->k", b, PAULI_VECTOR).real / 2]
    return out


def brute_parent_slack(cases) -> np.ndarray:
    """For each (e0, e, f0, f): the maximum over G(+,+) = g0·I + g·σ, g in span{e, f}, of the
    least eigenvalue of G(+,+), e - G(+,+), f - G(+,+) and I - e - f + G(+,+). The least
    eigenvalue of c0·I + c·σ is c0 - |c|; over g0 the four move as +g0, -g0, -g0, +g0, so
    the best g0 gives the mean of the two pairwise minima. g is taken on a 17 × 17 grid
    over a square around the unit disk, zoomed 9 times by 3 around its best point."""
    e0 = np.array([c[0] for c in cases])[:, None]
    f0 = np.array([c[2] for c in cases])[:, None]
    e = np.array([c[1] for c in cases])[:, None, :]
    f = np.array([c[3] for c in cases])[:, None, :]
    basis = np.linalg.qr(np.concatenate([e, f], axis=1).transpose(0, 2, 1))[0]  # (n, 3, 2)
    side = np.linspace(-1.0, 1.0, 17)
    offsets = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
    centre, radius = np.zeros((len(cases), 1, 2)), 1.05
    for _ in range(9):
        points = centre + radius * offsets
        g = points @ basis.transpose(0, 2, 1)
        low = [-np.linalg.norm(g, axis=-1), e0 - np.linalg.norm(e - g, axis=-1),
               f0 - np.linalg.norm(f - g, axis=-1),
               1 - e0 - f0 - np.linalg.norm(g - e - f, axis=-1)]
        slack = (np.minimum(low[0], low[3]) + np.minimum(low[1], low[2])) / 2
        best = slack.argmax(axis=1)
        centre = np.take_along_axis(points, best[:, None, None], axis=1)
        radius /= 3
    return slack.max(axis=1)


def assert_backed(verdict, asm: Assemblage) -> None:
    """An exact two-setting verdict: a certificate of states that replays within 1e-9, or
    a margin above the band that the members alone give again."""
    assert verdict.pivots == 0
    if verdict.status == "UnsteerableCertified":
        weights = [w for _, _, w in verdict.certificate]
        assert len(weights) <= 4 and min(weights) >= 0
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert all(math.hypot(*bloch) <= 1.0 for _, bloch, _ in verdict.certificate)
        assert verdict.residual <= 1e-9 and replay_certificate(verdict, asm) <= 1e-9
    else:
        assert verdict.certificate is None
        assert verdict.residual == steering.joint_measurability_margin(asm)
        assert verdict.residual > steering._MARGIN_TOL


class TestExactTwoSettingPath:
    """Two-setting verdicts from joint measurability, against a brute-force parent search,
    the grid oracle and the closed forms of the presets."""

    @pytest.fixture(scope="class")
    def cases(self):
        out = []
        for rho in ranked_frames():
            for settings in SETTING_PAIRS:
                asm = compute_assemblage(rho, settings)
                out.append((asm, steering_equivalent_blochs(asm)))
        return out

    def test_margin_sign_matches_the_brute_force_parent(self, cases):
        full = [(asm, blochs) for asm, blochs in cases if blochs is not None]
        assert len(full) == 1200
        brute = brute_parent_slack([blochs for _, blochs in full])
        margins = np.array([steering.joint_measurability_margin(asm) for asm, _ in full])
        decided = np.abs(brute) > 1e-4
        assert decided.sum() > 1100
        np.testing.assert_array_equal((margins <= 0)[decided], (brute > 0)[decided])

    def test_every_verdict_is_exact_and_backed(self, cases):
        statuses = set()
        for asm, _ in cases:
            verdict = lhs_feasibility(asm, 20)
            assert_backed(verdict, asm)
            statuses.add(verdict.status)
        assert statuses == {"UnsteerableCertified", "NoLHSFoundAtResolution"}

    def test_the_grid_never_certifies_what_the_criterion_calls_steerable(self, cases):
        steerable = [asm for asm, _ in cases
                     if steering.joint_measurability_margin(asm) > steering._MARGIN_TOL]
        assert len(steerable) > 300
        for asm in steerable:
            assert grid_verdict(asm, 20).status == "NoLHSFoundAtResolution"

    @pytest.mark.parametrize("spec", ["eq1", "twc", "hardy", "hardy:0.6,0.8"])
    def test_sharp_non_commuting_presets_are_steerable(self, spec):
        asm = compute_assemblage(two_qubit_frame(preset(spec))[0], ("Z", "X"))
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "NoLHSFoundAtResolution"
        assert_backed(verdict, asm)
        # a sharp unbiased pair: the margin is |a × b|², 1 for the orthogonal Z and X
        assert verdict.residual == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("grid", [6, 20, 100])
    def test_qplate_tripartite_is_certified_by_its_commuting_pair(self, grid):
        asm = compute_assemblage(two_qubit_frame(preset("qplate_tripartite"))[0], ("Z", "X"))
        verdict = lhs_feasibility(asm, grid)
        assert verdict.status == "UnsteerableCertified"
        assert_backed(verdict, asm)
        assert sorted(bloch for _, bloch, _ in verdict.certificate) == [
            (0.0, 0.0, -1.0), (0.0, 0.0, -1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)]
        # the grid has no pole, so it never finds the two pole states
        assert grid_verdict(asm, grid).status == "NoLHSFoundAtResolution"

    @pytest.mark.parametrize("offset", [-1e-6, 1e-6])
    def test_noisy_is_decided_on_both_sides_of_the_threshold(self, offset):
        v = 1 / math.sqrt(2) + offset
        asm = compute_assemblage(noisy_state(v), ("Z", "X"))
        margin = steering.joint_measurability_margin(asm)
        assert margin == pytest.approx(2 * v * v - 1, abs=1e-14)
        verdict = lhs_feasibility(asm, 20)
        want = "UnsteerableCertified" if offset < 0 else "NoLHSFoundAtResolution"
        assert verdict.status == want
        assert_backed(verdict, asm)

    def test_noisy_margin_is_two_v_squared_less_one(self):
        for v in np.linspace(0.0, 1.0, 101):
            asm = compute_assemblage(noisy_state(v), ("Z", "X"))
            assert abs(steering.joint_measurability_margin(asm) - (2 * v * v - 1)) < 1e-14

    @pytest.mark.parametrize("offset", [-1e-10, 0.0, 1e-10])
    def test_a_margin_within_the_band_goes_to_column_generation(self, offset):
        # There the canonical parent certifies it before any solve, and the program, with
        # that closed form bypassed, in one round.
        asm = compute_assemblage(noisy_state(1 / math.sqrt(2) + offset), ("Z", "X"))
        assert abs(steering.joint_measurability_margin(asm)) <= steering._MARGIN_TOL
        assert steering._exact_two_setting(steering._View(asm)) is None
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "UnsteerableCertified" and verdict.pivots == 0
        assert verdict.residual <= 1e-9
        assert replay_certificate(verdict, asm) == verdict.residual
        verdict = program_verdict(asm)
        assert verdict.status == "UnsteerableCertified" and verdict.pivots > 0
        assert verdict.residual < 1e-7
        assert replay_certificate(verdict, asm) == verdict.residual

    def test_a_hand_off_reads_bobs_marginal_and_effects_once(self, monkeypatch):
        # noisy(1/√2) with Z,X: the exact path builds Bob's marginal and his effects, through
        # ρ_B^(-1/2), and leaves the assemblage open; the canonical parent certifies it from
        # the same view, adding only ρ_B^(1/2).
        asm = compute_assemblage(noisy_state(1 / math.sqrt(2)), ("Z", "X"))
        calls = []
        marginal, power = Assemblage.bob_marginal, steering._power
        monkeypatch.setattr(Assemblage, "bob_marginal",
                            lambda self, x: calls.append("marginal") or marginal(self, x))
        monkeypatch.setattr(steering, "_power",
                            lambda spectrum, p: calls.append(p) or power(spectrum, p))
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "UnsteerableCertified" and verdict.pivots == 0
        assert calls == ["marginal", -0.5, 0.5]

    @pytest.mark.parametrize("ratio", [1e-7, 1e-8])
    def test_a_nearly_pure_bob_marginal_goes_to_column_generation(self, ratio):
        # cos t|00> + sin t|11>: Bob's marginal has eigenvalue ratio tan² t, below
        # _FULL_RANK, and its one-state certificate misses the exact gate.
        t = math.atan(math.sqrt(ratio))
        psi = np.array([math.cos(t), 0.0, 0.0, math.sin(t)])
        asm = compute_assemblage(DensityOperator(QUBIT_PAIR_LABELS, np.outer(psi, psi)),
                                 ("Z", "X"))
        assert steering._exact_two_setting(steering._View(asm)) is None
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "NoLHSFoundAtResolution" and verdict.pivots > 0
        assert_decided(verdict, asm)

    @pytest.mark.parametrize("settings", [("Z", "X"), ("Z", "X", "Y")])
    def test_a_zero_bob_marginal_is_the_empty_certificate(self, settings):
        # No frame reaches this hand-off: a frame's members of one setting sum to trace 1.
        asm = Assemblage(settings, {(x, a): np.zeros((2, 2)) for x in settings
                                    for a in (+1, -1)})
        if len(settings) == 2:
            assert steering._exact_two_setting(steering._View(asm)) is None
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "UnsteerableCertified"
        assert verdict.certificate == () and verdict.residual == 0.0
        assert replay_certificate(verdict, asm) == 0.0

    @pytest.mark.parametrize("v", [0.0, 0.4, 0.69, 0.9])
    @pytest.mark.parametrize("signalling", ["Z", "X"])
    def test_a_signalling_assemblage_is_never_certified(self, v, signalling):
        members = dict(compute_assemblage(noisy_state(v), ("Z", "X")).members)
        members[(signalling, +1)] = members[(signalling, +1)] + 1e-3 * IDENTITY
        asm = Assemblage(("Z", "X"), members)
        assert steering._exact_two_setting(steering._View(asm)) is None or v > SQ2
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "NoLHSFoundAtResolution" and verdict.certificate is None

    def test_a_pure_bob_marginal_is_one_hidden_state(self):
        # Alice's qubit mixed, Bob's pure along a direction no grid point hits.
        bloch = np.array([0.3, -0.5, 0.6])
        bloch /= np.linalg.norm(bloch)
        alice = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        rho = DensityOperator(QUBIT_PAIR_LABELS, np.kron(alice, bloch_state(bloch)))
        asm = compute_assemblage(rho, ("Z", "X"))
        with pytest.raises(ValueError, match="not of full rank"):
            steering.joint_measurability_margin(asm)
        verdict = lhs_feasibility(asm, 20)
        assert_backed(verdict, asm)
        p = [[np.trace(asm.members[(x, a)]).real for a in (+1, -1)] for x in ("Z", "X")]
        assert [s for s, _, _ in verdict.certificate] == list(product((+1, -1), repeat=2))
        assert [w for _, _, w in verdict.certificate] == pytest.approx(
            [p[0][i] * p[1][j] for i in (0, 1) for j in (0, 1)], abs=1e-15)
        for _, got, _ in verdict.certificate:
            np.testing.assert_allclose(got, bloch, atol=1e-12)
        assert grid_verdict(asm, 20).status == "NoLHSFoundAtResolution"

    def test_margin_needs_two_settings(self):
        asm = compute_assemblage(noisy_state(0.5), ("Z", "X", "Y"))
        with pytest.raises(ValueError, match="two settings"):
            steering.joint_measurability_margin(asm)

    @pytest.mark.parametrize("entry, message", [
        (((1, 1), (0.0, 0.0, 1.0), -1e-9), "weight"),
        (((1, 1), (0.0, 0.6, 0.8 + 2e-12), 0.1), "Bloch vector"),
        (((1, 1), (0.6, 0.8), 0.1), "Bloch vector"),
        (((1,), (0.0, 0.0, 1.0), 0.1), r"entry \(1,\) is not a strategy: need 2 outcomes"),
        (((1, 1, -1), (0.0, 0.0, 1.0), 0.1), "is not a strategy: need 2 outcomes"),
        (((1, 0), (0.0, 0.0, 1.0), 0.1), r"entry \(1, 0\) is not a strategy"),
    ])
    def test_replay_rejects_an_entry_that_is_not_a_state(self, entry, message):
        asm = compute_assemblage(noisy_state(0.4), ("Z", "X"))
        verdict = lhs_feasibility(asm, 20)
        forged = dataclasses.replace(verdict, certificate=verdict.certificate + (entry,))
        with pytest.raises(ValueError, match=message):
            replay_certificate(forged, asm)


DIAGONAL = sum(ALICE_OBSERVABLES[x] for x in ("Z", "X", "Y")) / math.sqrt(3)


def with_diagonal_setting(rho: DensityOperator) -> Assemblage:
    """The Z,X,Y assemblage of a frame and a fourth setting D along (1, 1, 1)/√3, its
    members σ(a|D) = Tr_A[((I + a·D)/2 ⊗ I) ρ] written out as in ``compute_assemblage``."""
    asm = compute_assemblage(rho, ("Z", "X", "Y"))
    frame = np.asarray(rho.matrix).reshape(2, 2, 2, 2)
    members = dict(asm.members)
    for a in (+1, -1):
        members[("D", a)] = np.einsum("ac,cbad->bd", (IDENTITY + a * DIAGONAL) / 2, frame)
    return Assemblage(("Z", "X", "Y", "D"), members)


def assert_decided(verdict, asm: Assemblage) -> None:
    """A column-generation verdict: a certificate that replays below 1e-7, of pure states
    from the program or, with 0 pivots, of states that replay within 1e-9 from the closed
    form; or a witness whose margin replays bit for bit and holds on 20 000 random
    directions."""
    if verdict.status == "UnsteerableCertified":
        assert verdict.witness is None
        assert verdict.residual < 1e-7 and replay_certificate(verdict, asm) == verdict.residual
        if verdict.pivots:
            assert all(abs(math.hypot(*bloch) - 1) < 1e-12
                       for _, bloch, _ in verdict.certificate)
        else:
            assert verdict.residual <= 1e-9
    else:
        assert verdict.certificate is None and verdict.witness is not None
        assert verdict.residual > steering._WITNESS_TOL
        assert replay_witness(verdict, asm) == verdict.residual
        assert witness_oracle(asm, verdict.witness) >= verdict.residual - 1e-12


def program_verdict(asm: Assemblage):
    """``lhs_feasibility`` with the closed form bypassed: column generation's program decides
    what the exact two-setting path and the linear witness leave open."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steering, "_canonical_parent", lambda *args: None)
        return lhs_feasibility(asm, 20)


def assert_decided_or_open(verdict, asm: Assemblage) -> None:
    """``assert_decided``, or a verdict left open: neither certificate nor witness, and a
    finite phase-1 optimum as ``residual``."""
    if verdict.certificate is None and verdict.witness is None:
        assert verdict.status == "NoLHSFoundAtResolution"
        assert 0 <= verdict.residual < 1
    else:
        assert_decided(verdict, asm)


def near_pure_frames(count: int, seed: int):
    """cos t|00> + sin t|11>, Bob's eigenvalue ratio tan² t log-uniform from 1e-16 to 1e-4,
    under random local unitaries but for every fourth frame."""
    rng = np.random.default_rng(seed)

    def haar():
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    frames = []
    for i in range(count):
        t = math.atan(math.sqrt(10 ** rng.uniform(-16, -4)))
        psi = np.array([math.cos(t), 0, 0, math.sin(t)])
        if i % 4:
            psi = np.kron(haar(), haar()) @ psi
        frames.append(DensityOperator(QUBIT_PAIR_LABELS, np.outer(psi, psi.conj())))
    return frames


class TestColumnGeneration:
    """Column-generation verdicts over the whole Bloch sphere, against the exact
    noisy thresholds, the grid oracle and an independent witness oracle."""

    @pytest.fixture(scope="class")
    def random_cases(self):
        """(assemblage, verdict) for 400 random frames of rank 1-4 with Z,X,Y."""
        cases = []
        for rho in ranked_frames():
            asm = compute_assemblage(rho, ("Z", "X", "Y"))
            cases.append((asm, lhs_feasibility(asm, 20)))
        return cases

    @pytest.mark.parametrize("offset, want", [(-1e-6, "UnsteerableCertified"),
                                              (0.0, "UnsteerableCertified"),
                                              (1e-6, "NoLHSFoundAtResolution")])
    def test_noisy_is_decided_on_both_sides_of_one_over_root_three(self, offset, want):
        # The program's verdict: the closed form certifies the lower side before any solve
        # (``TestCanonicalParent``).
        asm = compute_assemblage(noisy_state(1 / math.sqrt(3) + offset), ("Z", "X", "Y"))
        verdict = program_verdict(asm)
        assert verdict.status == want
        assert_decided(verdict, asm)
        # the grid oracle proves neither side
        assert grid_verdict(asm, 20).status == "NoLHSFoundAtResolution"

    def test_noisy_flips_once_at_one_over_root_three(self):
        for v in np.round(np.arange(0.0, 1.001, 0.01), 2):
            asm = compute_assemblage(noisy_state(v), ("Z", "X", "Y"))
            verdict = lhs_feasibility(asm, 10)
            assert (verdict.status == "UnsteerableCertified") == (v <= 1 / math.sqrt(3)), v
            assert verdict.certificate is not None or verdict.witness is not None, v

    @pytest.mark.parametrize("spec", ["eq1", "twc", "hardy", "hardy:0.6,0.8"])
    def test_photon_presets_are_witnessed(self, spec):
        asm = compute_assemblage(two_qubit_frame(preset(spec))[0], ("Z", "X", "Y"))
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "NoLHSFoundAtResolution"
        assert_decided(verdict, asm)

    def test_qplate_tripartite_is_certified_by_the_axis_states(self, monkeypatch):
        # The program's certificate; the closed form gives the eight pole states of its
        # canonical parent before any solve.
        asm = compute_assemblage(two_qubit_frame(preset("qplate_tripartite"))[0],
                                 ("Z", "X", "Y"))
        monkeypatch.setattr(steering, "_canonical_parent", lambda *args: None)
        solves = []
        monkeypatch.setattr(steering, "solve_feasibility",
                            lambda *args: solves.append(args) or solve_feasibility(*args))
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "UnsteerableCertified" and len(solves) == 1
        assert_decided(verdict, asm)
        assert {bloch for _, bloch, _ in verdict.certificate} <= {
            tuple(n) for n in steering._AXIS_STATES.tolist()}

    def test_every_random_frame_is_decided(self, random_cases):
        statuses = [verdict.status for _, verdict in random_cases]
        assert statuses.count("UnsteerableCertified") == 216
        # The program certifies all but the few its closed form certifies before any solve.
        assert sum(verdict.certificate is not None and verdict.pivots > 0
                   for _, verdict in random_cases) == 209
        for asm, verdict in random_cases:
            assert_decided(verdict, asm)

    def test_no_witness_where_the_grid_certifies(self, random_cases):
        certified = 0
        for asm, verdict in random_cases:
            if grid_verdict(asm, 20).status == "UnsteerableCertified":
                certified += 1
                assert verdict.status == "UnsteerableCertified"
        assert certified > 150

    @pytest.mark.parametrize("spec, setting", [("noisy:0.3", "Z"), ("noisy:1", "Z"), ("eq1", "X")])
    def test_one_setting_is_certified(self, spec, setting):
        # The members of one setting are themselves an LHS model: the closed form's, and
        # the program finds one too.
        asm = compute_assemblage(two_qubit_frame(preset(spec))[0], (setting,))
        verdict = program_verdict(asm)
        assert verdict.status == "UnsteerableCertified"
        assert_decided(verdict, asm)

    def test_four_settings_are_decided(self):
        statuses = set()
        for rho in ranked_frames(40, seed=26):
            asm = with_diagonal_setting(rho)
            verdict = lhs_feasibility(asm, 20)
            assert len(verdict.witness or ()) in (0, 20)
            assert_decided(verdict, asm)
            statuses.add(verdict.status)
        assert statuses == {"UnsteerableCertified", "NoLHSFoundAtResolution"}

    def test_no_grid_is_built(self, monkeypatch):
        # Whatever grid_n, the first round solves the six axis states and the linear
        # witness's eight best states (±Z ± X ± Y)/√3 of every strategy, once the closed form
        # is bypassed. v = 0.9 is proved by that witness before any solve.
        monkeypatch.setattr(steering, "_canonical_parent", lambda *args: None)
        programs = []
        monkeypatch.setattr(steering, "solve_feasibility", lambda *args: programs.append(
            args[0].shape) or solve_feasibility(*args))
        for v in (0.4, 0.55):
            asm = compute_assemblage(noisy_state(v), ("Z", "X", "Y"))
            for grid in (6, 100):
                programs.clear()
                lhs_feasibility(asm, grid)
                assert programs[0] == (16, 8 * (6 + 8))

    @pytest.mark.parametrize("case", ["near_pure", "noisy", "one_setting"])
    def test_no_program_holds_two_identical_columns(self, case, monkeypatch):
        # Near-pure Bob marginals: strategies share their best state, up to four a round,
        # a best state may be in the program already, and states that differ only in their
        # last bits have identical rows. The linear witness's best states join the axis
        # states: for noisy(0.5) with Z,X,Y they are (±1, ±1, ±1)/√3, and for one setting
        # along Z they are the poles, axis states already. The closed form, which would
        # certify both before any solve, is bypassed.
        monkeypatch.setattr(steering, "_canonical_parent", lambda *args: None)
        programs = []
        monkeypatch.setattr(steering, "solve_feasibility", lambda *args: programs.append(
            args[0]) or solve_feasibility(*args))
        assemblages = {
            "near_pure": [compute_assemblage(rho, ("Z", "X", "Y"))
                          for rho in near_pure_frames(8, 5)],
            "noisy": [compute_assemblage(noisy_state(0.5), ("Z", "X", "Y"))],
            "one_setting": [compute_assemblage(noisy_state(0.3), ("Z",))],
        }[case]
        for asm in assemblages:
            lhs_feasibility(asm, 20)
        assert len(programs) >= len(assemblages)
        for A in programs:
            assert np.unique(A, axis=1).shape == A.shape

    def test_a_strategy_with_no_bloch_part_adds_no_state(self, monkeypatch):
        # Duals on the marginal's diagonal alone: every strategy prices at 1 everywhere,
        # β = 0 for all of them, the margin is 0, and there is no state to add. noisy(0.5)
        # reaches the solver once the closed form is bypassed: its linear witness proves
        # nothing.
        monkeypatch.setattr(steering, "_canonical_parent", lambda *args: None)
        asm = compute_assemblage(noisy_state(0.5), ("Z", "X", "Y"))
        duals = np.zeros(16)
        duals[:2] = 1.0
        solves = []

        def infeasible(A, b, start=None):
            solves.append(start)
            return dataclasses.replace(solve_feasibility(A, b), feasible=False,
                                       x=None, objective=0.5, duals=duals)

        monkeypatch.setattr(steering, "solve_feasibility", infeasible)
        verdict = lhs_feasibility(asm, 20)  # a RuntimeWarning would fail here
        assert solves == [None]
        assert verdict == steering.SteeringVerdict("NoLHSFoundAtResolution", 0.5, None,
                                                   verdict.pivots)

    def test_past_the_round_cap_the_verdict_is_open(self, monkeypatch):
        # hardy:0.96,0.28 is witnessed in round 6; hardy itself by the linear witness.
        asm = compute_assemblage(two_qubit_frame(preset("hardy:0.96,0.28"))[0], ("Z", "X", "Y"))
        monkeypatch.setattr(steering, "_MAX_ROUNDS", 1)
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "NoLHSFoundAtResolution"
        assert verdict.witness is None and verdict.certificate is None
        assert verdict.residual > 0
        with pytest.raises(ValueError, match="verdict carries no witness"):
            replay_witness(verdict, asm)

    @pytest.mark.parametrize("settings", [("Z", "X"), ("X", "Y")])
    def test_nearly_pure_bob_marginals_do_not_break_the_solver(self, settings):
        # Bob's eigenvalue ratio from 1e-14 to 1e-6: the added states crowd round the pole.
        # With an absolute pivot tolerance alone, ten of these break down (nine with X,Y),
        # on a singular basis or past 20 000 pivots.
        for ratio in np.geomspace(1e-14, 1e-6, 33).tolist():
            t = math.atan(math.sqrt(ratio))
            psi = np.array([math.cos(t), 0.0, 0.0, math.sin(t)])
            asm = compute_assemblage(DensityOperator(QUBIT_PAIR_LABELS, np.outer(psi, psi)),
                                     settings)
            if steering._exact_two_setting(steering._View(asm)) is None:
                assert_decided_or_open(lhs_feasibility(asm, 20), asm)

    def test_hardy_near_a_product_state_does_not_break_the_solver(self):
        # With an absolute pivot tolerance alone, r = 1.007e-4 breaks down with X,Y, and
        # nine of these points with Z,X,Y.
        for r in np.geomspace(1e-5, 0.05, 60).tolist():
            rho = two_qubit_frame(preset(f"hardy:{math.sqrt(1 - r * r)!r},{r!r}"))[0]
            for settings in (("X", "Y"), ("Z", "X", "Y")):
                asm = compute_assemblage(rho, settings)
                if len(settings) == 3 or steering._exact_two_setting(steering._View(asm)) is None:
                    assert_decided_or_open(lhs_feasibility(asm, 20), asm)

    @pytest.mark.parametrize("index", [56, 76, 84])
    def test_a_stalled_warm_start_is_solved_again_cold(self, index, monkeypatch):
        # With X,Y a warm-started round of these frames stalls past 20 000 pivots; the
        # round is solved again from the artificial basis.
        asm = compute_assemblage(near_pure_frames(index + 1, seed=6)[index], ("X", "Y"))
        starts = []

        def spy(A, b, start=None):
            starts.append(start)
            return solve_feasibility(A, b, start)

        monkeypatch.setattr(steering, "solve_feasibility", spy)
        verdict = lhs_feasibility(asm, 20)
        assert_decided_or_open(verdict, asm)
        assert any(a is not None and b is None for a, b in zip(starts, starts[1:]))

    def test_signalling_assemblage_is_never_certified(self):
        members = dict(compute_assemblage(noisy_state(0.4), ("Z", "X", "Y")).members)
        members[("Y", +1)] = members[("Y", +1)] + 1e-3 * IDENTITY
        asm = Assemblage(("Z", "X", "Y"), members)
        verdict = lhs_feasibility(asm, 20)
        assert verdict.status == "NoLHSFoundAtResolution" and verdict.certificate is None
        assert verdict.residual > 1e-7

    def test_replay_refuses_a_witness_that_does_not_hold(self):
        steerable = compute_assemblage(noisy_state(0.9), ("Z", "X", "Y"))
        verdict = lhs_feasibility(steerable, 20)
        assert replay_witness(verdict, steerable) == verdict.residual
        unsteerable = compute_assemblage(noisy_state(0.3), ("Z", "X", "Y"))
        with pytest.raises(ValueError, match="margin .* is not above 1e-09"):
            replay_witness(verdict, unsteerable)
        for forged in (verdict.witness[:-1], (math.nan,) + verdict.witness[1:]):
            with pytest.raises(ValueError, match="is not 16 finite duals"):
                replay_witness(dataclasses.replace(verdict, witness=forged), steerable)
        with pytest.raises(ValueError, match="verdict carries no witness"):
            replay_witness(lhs_feasibility(unsteerable, 20), unsteerable)

    def test_verdicts_repeat_bit_for_bit(self):
        for spec in ("noisy:0.57", "noisy:0.6", "hardy"):
            asm = compute_assemblage(two_qubit_frame(preset(spec))[0], ("Z", "X", "Y"))
            assert lhs_feasibility(asm, 10) == lhs_feasibility(asm, 10)


def linear_witness_directions(asm: Assemblage) -> list:
    """b_x for each setting x, from matrices: the unit Bloch vector of σ(+1|x) − σ(−1|x)."""
    out = []
    for x in asm.settings:
        r = np.einsum("ij,kji->k", asm.members[(x, +1)] - asm.members[(x, -1)],
                      PAULI_VECTOR).real
        out.append(r / np.linalg.norm(r))
    return out


def linear_witness_oracle(asm: Assemblage) -> np.ndarray:
    """The linear steering witness as y over the program's rows: Bob's observable for
    setting x is b_x·σ (``linear_witness_directions``), and a row group prices a member M
    as Tr(b·σ M) = real_components(M)·v(b) with v(b) = (b_z, −b_z, 2b_x, −2b_y). y is
    −Σ v(b_x) on Bob's marginal and 2·v(b_x) on σ(+1|x)."""
    prices = [np.array([bz, -bz, 2 * bx, -2 * by])
              for bx, by, bz in linear_witness_directions(asm)]
    return np.concatenate([-sum(prices)] + [2 * v for v in prices])


def linear_witness_margin(asm: Assemblage) -> float:
    """The whole-sphere margin of the assemblage's linear witness, as the package reads it."""
    m = len(asm.settings)
    target = steering._full_target(asm)
    return steering._witness_bounds(steering._linear_witness(target),
                                    steering._solved_target(target), steering._strategies(m)[1])[0]


def band_assemblages(count: int = 60, seed: int = 34) -> list:
    """The two-setting band: noisy(1/√2 + δ), δ = 0 and ±1e-10, under ``count`` seeded
    random unitaries at Bob, with Z,X, X,Y and Z,Y."""
    rng = np.random.default_rng(seed)
    out = []
    for delta in (0.0, 1e-10, -1e-10):
        rho = noisy_state(1 / math.sqrt(2) + delta).matrix
        for _ in range(count):
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u = np.kron(IDENTITY, q * (np.diag(r) / np.abs(np.diag(r))))
            frame = DensityOperator(QUBIT_PAIR_LABELS, u @ rho @ u.conj().T)
            out += [compute_assemblage(frame, pair) for pair in (("Z", "X"), ("X", "Y"),
                                                                 ("Z", "Y"))]
    return out


def linear_best_state_count(asm: Assemblage) -> int:
    """k, the distinct best states (Σ_x s_x b_x)/|Σ_x s_x b_x| of the linear witness over
    the strategies s that are not axis states, from ``linear_witness_directions``,
    compared to 9 digits."""
    directions = linear_witness_directions(asm)
    seen = {tuple(np.round(n, 9) + 0.0) for n in steering._AXIS_STATES}
    best = set()
    for strategy in product((+1, -1), repeat=len(asm.settings)):
        beta = sum(a * b for a, b in zip(strategy, directions))
        if np.linalg.norm(beta) > 1e-9:
            best.add(tuple(np.round(beta / np.linalg.norm(beta), 9) + 0.0))
    return len(best - seen)


class TestLinearWitness:
    """Column generation starts from the assemblage's own linear steering witness
    (Cavalcanti, Jones, Wiseman & Reid, PRA 80, 032112 (2009)): a proof before any solve,
    else its best states join the first program."""

    @pytest.mark.parametrize("settings", [("Z", "X", "Y"), ("Y", "X", "Z"), ("X", "Z", "Y")])
    def test_noisy_above_one_over_root_three_is_proved_unsolved(self, settings, monkeypatch):
        monkeypatch.setattr(steering, "solve_feasibility", None)  # any solve fails
        for v in np.linspace(1 / math.sqrt(3) + 1e-6, 1.0, 25).tolist():
            asm = compute_assemblage(noisy_state(v), settings)
            verdict = lhs_feasibility(asm, 20)
            assert verdict.status == "NoLHSFoundAtResolution" and verdict.pivots == 0
            assert abs(verdict.residual - (3 * v - math.sqrt(3))) <= 1e-14, v
            np.testing.assert_allclose(verdict.witness, linear_witness_oracle(asm), atol=1e-15)
            assert_decided(verdict, asm)

    def test_it_never_clears_the_gate_where_the_program_certifies(self):
        # Two proofs never disagree: a certified assemblage has no linear witness.
        margins = []
        for rho in ranked_frames():
            for settings in (("Z", "X", "Y"),) + SETTING_PAIRS:
                asm = compute_assemblage(rho, settings)
                if lhs_feasibility(asm, 20).status == "UnsteerableCertified":
                    margins.append(linear_witness_margin(asm))
        assert len(margins) == 1030 and max(margins) < -0.1
        for v in np.linspace(0.0, 1 / math.sqrt(3) - 1e-6, 25).tolist():
            asm = compute_assemblage(noisy_state(v), ("Z", "X", "Y"))
            assert lhs_feasibility(asm, 20).status == "UnsteerableCertified"
            assert linear_witness_margin(asm) <= steering._WITNESS_TOL

    def test_it_proves_nothing_on_the_band(self):
        # The band's margin is 2v - √2, within 2e-10 of 0: column generation certifies it,
        # by the closed form before any solve, and by the program with that bypassed.
        for asm in band_assemblages():
            assert abs(linear_witness_margin(asm)) <= steering._WITNESS_TOL
            verdict = lhs_feasibility(asm, 20)
            assert verdict.status == "UnsteerableCertified" and verdict.pivots == 0
            assert replay_certificate(verdict, asm) == verdict.residual <= 1e-9
            verdict = program_verdict(asm)
            assert verdict.status == "UnsteerableCertified" and verdict.pivots > 0
            assert replay_certificate(verdict, asm) == verdict.residual < 1e-7

    @staticmethod
    def first_program(asm: Assemblage, monkeypatch):
        """The shape of the first program column generation hands the solver, None if it
        solves none; that solve is not run."""

        class Solve(Exception):
            pass

        def stop(A, b, start=None):
            raise Solve(A.shape)

        monkeypatch.setattr(steering, "solve_feasibility", stop)
        try:
            lhs_feasibility(asm, 20)
        except Solve as solve:
            return solve.args[0]
        return None

    def test_a_full_rank_marginal_starts_with_the_best_states(self, monkeypatch):
        cases = [compute_assemblage(rho, ("Z", "X", "Y")) for rho in ranked_frames(40)]
        cases += band_assemblages(2)
        cases.append(compute_assemblage(noisy_state(0.3), ("Z",)))
        solved = 0
        for asm in cases:
            if (shape := self.first_program(asm, monkeypatch)) is not None:
                solved += 1
                k, strategies = linear_best_state_count(asm), 2 ** len(asm.settings)
                assert shape == (4 * len(asm.settings) + 4, strategies * (6 + k))
        assert solved > 20

    def test_a_marginal_below_full_rank_starts_with_the_axis_states(self, monkeypatch):
        solved = 0
        for rho in near_pure_frames(40, 5):
            asm = compute_assemblage(rho, ("Z", "X", "Y"))
            low, high = np.linalg.eigvalsh(asm.bob_marginal("Z"))
            if low < 1e-7 * high and (shape := self.first_program(asm, monkeypatch)) is not None:
                solved += 1
                assert shape == (16, 48)
        assert solved > 20


def canonical_parent_oracle(asm: Assemblage) -> list:
    """(strategy, Bloch vector, weight) of the hidden state ρ^(1/2) G(s) ρ^(1/2) of every
    strategy s, from 2x2 matrices: ρ^(±1/2) from eigh of Bob's marginal ρ, Bob's effects
    E_x = ρ^(-1/2) σ(+1|x) ρ^(-1/2) = ½[(1 + α_x)I + a_x·σ] and
    G(s) = 2⁻ᵐ[I + Σ_x s_x(2E_x − I)]. Entries of weight at most 1e-12 are dropped, and a
    Bloch vector longer than 1 is scaled to length 1."""
    w, q = np.linalg.eigh(asm.bob_marginal(asm.settings[0]))
    root, inverse = (q @ np.diag(w ** p) @ q.conj().T for p in (0.5, -0.5))
    shifted = [2 * inverse @ asm.members[(x, +1)] @ inverse - IDENTITY for x in asm.settings]
    out = []
    for strategy in product((+1, -1), repeat=len(asm.settings)):
        parent = (IDENTITY + sum(s * e for s, e in zip(strategy, shifted))) / 2 ** len(strategy)
        hidden = root @ parent @ root
        weight = np.trace(hidden).real
        if weight > 1e-12:
            bloch = np.einsum("ij,kji->k", hidden, PAULI_VECTOR).real / weight
            out.append((strategy, bloch / max(1.0, np.linalg.norm(bloch)), weight))
    return out


def closed_form_verdict(asm: Assemblage):
    """The verdict ``lhs_feasibility`` takes from the canonical parent, or None where the
    exact path or the linear witness decides first, or where the closed form is not reached
    or leaves the assemblage to the program, whose solves are not run."""
    answers = []
    canonical_parent = steering._canonical_parent

    class Solve(Exception):
        pass

    def stop(A, b, start=None):
        raise Solve

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steering, "_canonical_parent",
                      lambda *args: answers.append(canonical_parent(*args)) or answers[-1])
        patch.setattr(steering, "solve_feasibility", stop)
        try:
            verdict = lhs_feasibility(asm, 20)
        except Solve:
            return None
    if answers and answers[-1] is not None:
        assert verdict is answers[-1]
        return verdict
    return None


def noisy_below_one_over_root_three() -> list:
    """v ≤ 1/√3 from 0 by 0.005, then 1/√3 − 1e-6 and 1/√3 − 1e-10."""
    threshold = 1 / math.sqrt(3)
    return np.arange(0.0, threshold, 0.005).tolist() + [threshold - 1e-6, threshold - 1e-10]


def closed_form_corpus() -> dict:
    """The assemblages the closed form is checked on, by group: the photon presets in every
    order of Z,X,Y and as single settings, hardy:cos θ,sin θ (θ = 0.2 … 1.3) with Z,X,Y,
    ``ranked_frames()`` with Z,X,Y, ``with_diagonal_setting(ranked_frames(40, 26))``,
    ``near_pure_frames(100, seed)`` (seeds 5–8) with Z,X,Y, X,Y and Z,X, and the band."""
    presets = []
    for spec in PHOTON_PRESETS:
        rho = two_qubit_frame(preset(spec))[0]
        presets += [compute_assemblage(rho, order) for order in permutations(("Z", "X", "Y"))]
        presets += [compute_assemblage(rho, (x,)) for x in ("Z", "X", "Y")]
    hardy = [two_qubit_frame(preset(f"hardy:{math.cos(t)!r},{math.sin(t)!r}"))[0]
             for t in np.round(np.arange(0.2, 1.31, 0.1), 1).tolist()]
    return {
        "presets": presets,
        "hardy": [compute_assemblage(rho, ("Z", "X", "Y")) for rho in hardy],
        "ranked": [compute_assemblage(rho, ("Z", "X", "Y")) for rho in ranked_frames()],
        "four_settings": [with_diagonal_setting(rho) for rho in ranked_frames(40, seed=26)],
        "near_pure": [compute_assemblage(rho, settings) for seed in (5, 6, 7, 8)
                      for rho in near_pure_frames(100, seed)
                      for settings in (("Z", "X", "Y"), ("X", "Y"), ("Z", "X"))],
        "band": band_assemblages(),
    }


def agreement_corpus() -> list:
    """The photon presets and hardy:cos θ,sin θ (θ = 0.2 … 1.3) in every order of one to
    three settings, noisy(1/√2 ± 1e-6) with Z,X, noisy(1/√3 ± 1e-6) with Z,X,Y, and the
    band."""
    specs = list(PHOTON_PRESETS) + [f"hardy:{math.cos(t)!r},{math.sin(t)!r}"
                                    for t in np.round(np.arange(0.2, 1.31, 0.1), 1).tolist()]
    orders = [order for n in (1, 2, 3) for order in permutations(("Z", "X", "Y"), n)]
    out = [compute_assemblage(two_qubit_frame(preset(spec))[0], order)
           for spec in specs for order in orders]
    for v, settings in ((1 / math.sqrt(2), ("Z", "X")), (1 / math.sqrt(3), ("Z", "X", "Y"))):
        out += [compute_assemblage(noisy_state(v + offset), settings) for offset in (-1e-6, 1e-6)]
    return out + band_assemblages()


class TestCanonicalParent:
    """Certificates in closed form from the canonical parent POVM of Bob's
    steering-equivalent effects (Busch, PRD 33, 2253 (1986)), before any solve, against an
    oracle from 2x2 matrices and the program's verdicts."""

    @pytest.fixture(scope="class")
    def corpus(self):
        """(group, assemblage, closed-form verdict or None) over ``closed_form_corpus``."""
        return [(group, asm, closed_form_verdict(asm))
                for group, assemblages in closed_form_corpus().items() for asm in assemblages]

    @staticmethod
    def assert_oracle_certificate(verdict, asm: Assemblage) -> None:
        """A closed-form certificate: 0 pivots, every entry the oracle's to 1e-12, and all
        8m rows rebuilt within 1e-9, bit for bit as ``replay_certificate`` rebuilds them."""
        assert verdict.status == "UnsteerableCertified" and verdict.pivots == 0
        assert verdict.witness is None
        oracle = canonical_parent_oracle(asm)
        assert [s for s, _, _ in verdict.certificate] == [s for s, _, _ in oracle]
        for (_, bloch, weight), (_, want, want_weight) in zip(verdict.certificate, oracle):
            assert abs(weight - want_weight) <= 1e-12
            np.testing.assert_allclose(bloch, want, rtol=0, atol=1e-12)
        assert replay_certificate(verdict, asm) == verdict.residual <= 1e-9

    def test_every_certificate_is_the_oracles(self, corpus):
        answered = {}
        for group, asm, verdict in corpus:
            if verdict is not None:
                answered[group] = answered.get(group, 0) + 1
                self.assert_oracle_certificate(verdict, asm)
        # Each photon preset as a single setting, qplate_tripartite in every order; seven
        # biased ranked frames; no near-pure or four-setting case; the whole band.
        assert answered == {"presets": 21, "ranked": 7, "band": 540}

    def test_verdict_kinds_equal_the_programs(self, corpus):
        # Where the closed form does not answer, the verdict is the program's already.
        for group, asm, verdict in corpus:
            if verdict is not None:
                assert program_verdict(asm).status == verdict.status, group

    def test_no_assemblage_has_both_a_certificate_and_a_proof(self):
        # Each try of the ladder alone on each assemblage of ``agreement_corpus``: no
        # certificate that replays meets a proof that replays, a two-setting margin above
        # _MARGIN_TOL or a witness (ROADMAP B, direction 5).
        tries = (steering._exact_two_setting, steering._linear_witness_proof,
                 steering._canonical_parent, steering._column_generation)
        certified = proved = 0
        for asm in agreement_corpus():
            verdicts = [attempt(steering._View(asm)) for attempt in tries]
            certificate = any(v is not None and v.certificate is not None
                              and replay_certificate(v, asm) < 1e-7 for v in verdicts)
            proof = any(v is not None and v.witness is not None
                        and replay_witness(v, asm) == v.residual for v in verdicts)
            if len(asm.settings) == 2 and steering._View(asm).full_rank:
                proof |= steering.joint_measurability_margin(asm) > steering._MARGIN_TOL
            assert not (certificate and proof)
            certified, proved = certified + certificate, proved + proof
        assert (certified, proved) == (605, 194)  # every one of the 799 decided, one way

    @pytest.mark.parametrize("settings", [("Z", "X", "Y"), ("Y", "X", "Z"), ("X", "Z", "Y")])
    def test_noisy_below_one_over_root_three_is_certified_unsolved(self, settings,
                                                                   monkeypatch):
        monkeypatch.setattr(steering, "solve_feasibility", None)  # any solve fails
        for v in noisy_below_one_over_root_three():
            asm = compute_assemblage(noisy_state(v), settings)
            verdict = lhs_feasibility(asm, 20)
            self.assert_oracle_certificate(verdict, asm)
            # eight states v·(±1, ±1, ±1) of weight 1/8
            assert len(verdict.certificate) == 8
            for _, bloch, weight in verdict.certificate:
                assert weight == pytest.approx(1 / 8, abs=1e-15)
                np.testing.assert_allclose(np.abs(bloch), v, rtol=0, atol=1e-15)

    def test_a_marginal_below_full_rank_is_left_to_the_program(self, corpus):
        # The closed form reads Bob's marginal through ρ_B^(-1/2): only a full-rank one.
        below = 0
        for group, asm, verdict in corpus:
            low, high = np.linalg.eigvalsh(asm.bob_marginal(asm.settings[0]))
            if low < 1e-7 * high:
                below += 1
                assert verdict is None, group
        assert below > 500

    def test_a_state_just_past_the_sphere_is_refused(self):
        # A sharp Z with unsharp X and Y of length ε, so every G(s) has Bloch length
        # √(1 + 2ε²) = 1 + 2e-9: past the 1 + 1e-9 a hidden state may reach, though the
        # states scaled onto the sphere would rebuild the rows within 1e-9. A sharp
        # effect that does not commute with the others is steerable, so no closed form
        # may certify it.
        eps = math.sqrt(2e-9)
        members = {}
        for x, r in (("Z", (0.0, 0.0, 1.0)), ("X", (eps, 0.0, 0.0)), ("Y", (0.0, eps, 0.0))):
            for a in (+1, -1):
                members[(x, a)] = bloch_state(a * np.array(r)) / 2
        asm = Assemblage(("Z", "X", "Y"), members)
        lengths = [np.linalg.norm(bloch) for _, bloch, _ in canonical_parent_oracle(asm)]
        assert lengths == pytest.approx([1.0] * 8, abs=1e-15)  # scaled from 1 + 2e-9
        assert linear_witness_margin(asm) < 0
        assert closed_form_verdict(asm) is None


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
