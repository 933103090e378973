"""Unit tests for the state-space and operator algebra."""

import numpy as np
import pytest

from photonsteer import elements
from photonsteer.core import (
    MAX_DIM,
    BasisDecl,
    BasisKet,
    DensityOperator,
    StateVector,
    _is_hermitian,
    apply_local_unitary,
    expectation_value,
    fidelity,
    inner_product,
    normalize,
    to_density,
)
from photonsteer.errors import (
    BasisMismatch,
    DimensionMismatch,
    NonUnitary,
    OutOfRange,
    UnknownSite,
    UnknownSubsystem,
    ZeroState,
)
from photonsteer.measurement import reduced_state
from photonsteer.scenarios import eq1_state, hardy_state, qplate_tripartite_state, twc_state
from photonsteer.elements import waveplate

from conftest import occupation_oracle, random_state, register_oracle

TWO_SITES = BasisDecl(("NY", "PUE"))
DIM_673 = BasisDecl(tuple(f"s{i:02d}" for i in range(16)), oam=tuple(range(-10, 11)))
SQ2 = 1.0 / np.sqrt(2.0)


def ket(site, pol, oam=0):
    return BasisKet.photon(site, pol, oam)


class TestBasisDecl:
    def test_ordering_vacuum_first_then_lexicographic(self):
        decl = BasisDecl(("PUE", "NY"), oam=(2, -2, 0))
        assert decl.kets[0].is_vacuum
        labels = [k.label() for k in decl.kets[1:]]
        assert labels == sorted(labels)
        assert labels[0] == "NY:H:-2"

    def test_kets_are_not_ordered(self):
        # Basis order comes from the declaration, never from comparing kets.
        with pytest.raises(TypeError):
            ket("a", "H") < ket("b", "H")

    def test_dimension(self):
        assert TWO_SITES.dim == 5
        assert BasisDecl(("a", "b", "c"), oam=(-2, 0, 2)).dim == 19

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BasisDecl(("a", "a"))

    def test_empty_oam_set_rejected(self):
        with pytest.raises(ValueError, match=r"OAM set must be non-empty and duplicate-free: \(\)"):
            BasisDecl(("a",), oam=())

    def test_photon_polarization_is_h_or_v(self):
        with pytest.raises(ValueError, match=r"must be one of \('H', 'V'\), got 'D'"):
            BasisKet.photon("a", "D")

    def test_amplitude_vector_length_checked(self):
        with pytest.raises(BasisMismatch, match="amplitude vector has length 6, basis has 5"):
            StateVector(TWO_SITES, np.zeros(6))

    def test_amplitude_of_a_foreign_ket(self):
        with pytest.raises(BasisMismatch, match=r"ket \|a,H,0> not in declared basis"):
            eq1_state().amplitude(ket("a", "H"))

    def test_declaration_order_preserved_for_display(self):
        decl = BasisDecl(("zz", "aa"))
        assert decl.sites == ("zz", "aa")

    def test_dimension_bound_admits_its_edge(self):
        assert BasisDecl(("a",), oam=tuple(range((MAX_DIM - 1) // 2))).dim == MAX_DIM

    def test_dimension_above_bound_raises_before_any_ket(self, monkeypatch):
        def no_ket(*args):
            raise AssertionError("a basis ket was built")

        monkeypatch.setattr(BasisKet, "photon", no_ket)
        with pytest.raises(OutOfRange, match=f"MAX_DIM = {MAX_DIM}") as err:
            BasisDecl(("a",), oam=tuple(range((MAX_DIM + 1) // 2)))
        assert "\n" not in str(err.value)


    def test_site_position_is_the_tensor_axis_position(self):
        decl = BasisDecl(("zz", "aa", "mm"))
        assert [decl.site_position(s) for s in decl.sites] == [2, 0, 1]

    @pytest.mark.parametrize("site", ["qq", None, ["aa"]])
    def test_site_position_of_an_undeclared_site(self, site):
        with pytest.raises(UnknownSite) as err:
            BasisDecl(("zz", "aa")).site_position(site)
        assert str(err.value) == f"site {site!r} not declared (have ('zz', 'aa'))"


class TestRepr:
    def test_vacuum_ket(self):
        assert repr(BasisKet.vacuum()) == "|vac>"

    def test_two_term_state(self):
        assert repr(eq1_state()) == "StateVector(|NY,V,0>: 0.7071+0j, |PUE,H,0>: 0.7071+0j)"

    def test_all_zero_state(self):
        assert repr(StateVector(TWO_SITES, np.zeros(TWO_SITES.dim))) == "StateVector(0)"


class TestNormalize:
    def test_scales_amplitude(self):
        s = StateVector.from_amplitudes(TWO_SITES, {BasisKet.vacuum(): 2.0})
        out = normalize(s)
        assert out.amplitude(BasisKet.vacuum()) == pytest.approx(1.0)

    def test_normalized_input_unchanged(self):
        s = eq1_state()
        np.testing.assert_allclose(normalize(s).amps, s.amps)

    def test_three_four_five(self):
        s = StateVector.from_amplitudes(
            TWO_SITES, {ket("NY", "V"): 3.0, ket("PUE", "H"): 4.0}
        )
        out = normalize(s)
        assert out.amplitude(ket("NY", "V")) == pytest.approx(0.6)
        assert out.amplitude(ket("PUE", "H")) == pytest.approx(0.8)

    def test_phase_untouched(self):
        s = StateVector.from_amplitudes(TWO_SITES, {ket("NY", "V"): 2.0j})
        assert normalize(s).amplitude(ket("NY", "V")) == pytest.approx(1.0j)

    def test_zero_state(self):
        s = StateVector(TWO_SITES, np.zeros(TWO_SITES.dim))
        with pytest.raises(ZeroState):
            normalize(s)

    def test_idempotent_exactly(self):
        s = StateVector.from_amplitudes(
            TWO_SITES, {ket("NY", "V"): 1.0 + 2.0j, ket("PUE", "H"): -0.5}
        )
        once = normalize(s)
        twice = normalize(once)
        assert np.array_equal(once.amps, twice.amps)


class TestInnerProduct:
    def test_self_overlap_of_entangled_state(self):
        s = eq1_state()
        assert inner_product(s, s) == pytest.approx(1.0)

    def test_orthogonal_kets(self):
        a = StateVector.from_amplitudes(TWO_SITES, {ket("PUE", "H"): 1.0})
        b = StateVector.from_amplitudes(TWO_SITES, {ket("NY", "V"): 1.0})
        assert inner_product(a, b) == 0

    def test_single_term_overlap(self):
        b = StateVector.from_amplitudes(TWO_SITES, {ket("NY", "V"): 1.0})
        assert inner_product(eq1_state(), b) == pytest.approx(SQ2)

    def test_conjugate_linear_first_argument(self):
        a = StateVector.from_amplitudes(TWO_SITES, {ket("PUE", "H"): 1.0j})
        b = StateVector.from_amplitudes(TWO_SITES, {ket("PUE", "H"): 1.0})
        assert inner_product(a, b) == pytest.approx(-1.0j)

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatch):
            inner_product(eq1_state(), twc_state())


class TestToDensity:
    def test_basis_state_projector(self):
        s = StateVector.from_amplitudes(TWO_SITES, {ket("NY", "V"): 1.0})
        rho = to_density(s)
        idx = TWO_SITES.index[ket("NY", "V")]
        expected = np.zeros((5, 5))
        expected[idx, idx] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_entangled_state_block(self):
        rho = to_density(eq1_state())
        i = TWO_SITES.index[ket("PUE", "H")]
        j = TWO_SITES.index[ket("NY", "V")]
        for a, b in ((i, i), (i, j), (j, i), (j, j)):
            assert rho.matrix[a, b] == pytest.approx(0.5)
        assert rho.trace_value == pytest.approx(1.0)

    def test_sign_of_coherence(self):
        s = StateVector.from_amplitudes(
            TWO_SITES, {ket("PUE", "H"): SQ2, ket("NY", "V"): -SQ2}
        )
        rho = to_density(s)
        i = TWO_SITES.index[ket("PUE", "H")]
        j = TWO_SITES.index[ket("NY", "V")]
        assert rho.matrix[i, j] == pytest.approx(-0.5)

    def test_requires_normalized(self):
        s = StateVector.from_amplitudes(TWO_SITES, {ket("NY", "V"): 2.0})
        with pytest.raises(ValueError, match="normalized"):
            to_density(s)


class TestPartialTrace:
    def test_entangled_state_occupation_is_balanced(self):
        # Dual-rail expansion: |a>=|0>_A|1>_B, |b>=|1>_A|0>_B; masses 1/2 each.
        rho = reduced_state(eq1_state(), "occupation", "PUE")
        np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_collapsed_state_bob_empty(self):
        # Photon at New York: Alice holds |1>, Bob's box is empty.
        s = StateVector.from_amplitudes(TWO_SITES, {ket("NY", "V"): 1.0})
        rho = reduced_state(s, "occupation", "PUE")
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_product_state_keeps_polarization_factor(self):
        s = StateVector.from_amplitudes(TWO_SITES, {ket("NY", "H"): 1.0})
        rho = reduced_state(s, "pol")
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_unknown_selector(self):
        with pytest.raises(UnknownSubsystem):
            reduced_state(eq1_state(), "spin")

    def test_unknown_site(self):
        with pytest.raises(UnknownSite):
            reduced_state(eq1_state(), "occupation", "Boston")

    def test_polarization_undefined_with_vacuum(self):
        with pytest.raises(UnknownSubsystem):
            reduced_state(hardy_state(), "pol")

    def test_trace_preserved_on_random_states(self, rng):
        decl = BasisDecl(("a", "b"), oam=(-2, 0, 2))
        for _ in range(25):
            state = random_state(decl, rng, photon_only=True)
            for keep, site in (("occupation", "a"), ("pol", None), ("oam", None)):
                reduced = reduced_state(state, keep, site)
                trace = to_density(state).trace_value
                assert reduced.trace_value == pytest.approx(trace, abs=1e-10)

    @pytest.mark.parametrize(
        "state", [eq1_state(), twc_state(), hardy_state(), qplate_tripartite_state()],
        ids=["eq1", "twc", "hardy", "tripartite"],
    )
    def test_occupation_matches_oracle_on_presets(self, state):
        for site in state.decl.sites:
            got = reduced_state(state, "occupation", site)
            np.testing.assert_allclose(got.matrix, occupation_oracle(state, site), atol=1e-12)

    @pytest.mark.parametrize(
        "state", [eq1_state(), twc_state(), qplate_tripartite_state()],
        ids=["eq1", "twc", "tripartite"],
    )
    def test_registers_match_oracle_on_photon_presets(self, state):
        np.testing.assert_allclose(
            reduced_state(state, "pol").matrix, register_oracle(state, "pol"), atol=1e-12
        )
        np.testing.assert_allclose(
            reduced_state(state, "oam").matrix, register_oracle(state, "oam"), atol=1e-12
        )

    def test_occupation_matches_oracle_at_dim_673(self, rng):
        state = random_state(DIM_673, rng)
        for site in DIM_673.sites:
            got = reduced_state(state, "occupation", site).matrix
            np.testing.assert_allclose(got, occupation_oracle(state, site), atol=1e-12)

    def test_registers_match_oracle_on_a_wider_declaration(self, rng):
        # register_oracle loops over amplitude pairs, so dim 85 keeps it quick.
        decl = BasisDecl(("f", "b", "e", "a", "d", "c"), oam=(-6, -3, -1, 0, 2, 5, 9))
        for _ in range(3):
            state = random_state(decl, rng, photon_only=True)
            for register in ("pol", "oam"):
                np.testing.assert_allclose(
                    reduced_state(state, register).matrix, register_oracle(state, register),
                    atol=1e-12,
                )

    @pytest.mark.parametrize("decl", [BasisDecl(("u", "t", "s"), oam=(-2, 0, 2)), DIM_673],
                             ids=["dim19", "dim673"])
    def test_occupation_equals_masked_diagonal_of_the_projector(self, rng, decl):
        # The report prints occupation reductions, so their bits must not depend
        # on whether the d x d projector is formed.
        for _ in range(3):
            state = random_state(decl, rng)
            diag = np.diagonal(to_density(state).matrix)
            for site in decl.sites:
                at_site = np.array([k.site == site for k in decl.kets])
                expected = np.diag([diag[~at_site].sum(), diag[at_site].sum()])
                assert np.array_equal(reduced_state(state, "occupation", site).matrix, expected)

    @pytest.mark.parametrize("keep, site", [("occupation", "PUE"), ("pol", None), ("oam", None)])
    def test_requires_normalized(self, keep, site):
        s = StateVector.from_amplitudes(TWO_SITES, {ket("NY", "V"): 2.0})
        with pytest.raises(ValueError, match="normalized"):
            reduced_state(s, keep, site)

    def test_occupation_without_site(self):
        with pytest.raises(UnknownSubsystem):
            reduced_state(eq1_state(), "occupation")


class TestApplyLocalUnitary:
    def test_identity(self):
        s = eq1_state()
        out = apply_local_unitary(s, np.eye(2), "pol", "NY")
        np.testing.assert_allclose(out.amps, s.amps)

    def test_pauli_x_flips_polarization(self):
        s = StateVector.from_amplitudes(TWO_SITES, {ket("PUE", "H"): 1.0})
        out = apply_local_unitary(s, np.array([[0, 1], [1, 0]]), "pol", "PUE")
        assert out.amplitude(ket("PUE", "V")) == pytest.approx(1.0)

    def test_hadamard_like_rotation(self):
        s = StateVector.from_amplitudes(TWO_SITES, {ket("PUE", "H"): 1.0})
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        out = apply_local_unitary(s, h, "pol", "PUE")
        assert out.amplitude(ket("PUE", "H")) == pytest.approx(SQ2)
        assert out.amplitude(ket("PUE", "V")) == pytest.approx(SQ2)

    def test_other_sites_untouched(self):
        out = apply_local_unitary(eq1_state(), np.array([[0, 1], [1, 0]]), "pol", "PUE")
        assert out.amplitude(ket("NY", "V")) == pytest.approx(SQ2)

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitary):
            apply_local_unitary(eq1_state(), np.array([[1, 0], [0, 2]]), "pol", "NY")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_local_unitary(eq1_state(), np.eye(3), "pol", "NY")

    def test_unknown_register(self):
        with pytest.raises(UnknownSubsystem, match="unknown register 'path'"):
            apply_local_unitary(eq1_state(), np.eye(2), "path", "NY")

    def test_norm_preserved_on_random_states(self, rng):
        decl = BasisDecl(("a", "b"), oam=(-2, 0, 2))
        for _ in range(25):
            s = random_state(decl, rng)
            u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
            out = apply_local_unitary(s, u, "oam", "a")
            assert out.norm() == pytest.approx(1.0, abs=1e-10)


NON_FINITE = (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 0.0))


def unitary_cases(dim: int, seed: int = 5) -> list:
    """Seeded unitaries moved just inside and just outside the allclose bound, and
    (2x2 only, the closed form) every entry made NaN or inf in turn.

    Diagonal: row 0 scaled so (u u^H)[0,0] - 1 = ±(1e-10 + 1e-5)·(1 ∓ 1e-3).
    Off-diagonal: row 1 shifted by eps·(row 0), so (u u^H)[1,0] = eps with
    |eps| = 1e-10·(1 ∓ 1e-3) and a seeded phase.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(8):
        q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        for factor in (1 - 1e-3, 1 + 1e-3):
            for sign in (1, -1):
                u = q.copy()
                u[0] *= np.sqrt(1 + sign * (1e-10 + 1e-5) * factor)
                cases.append(u)
            u = q.copy()
            u[1] += 1e-10 * factor * np.exp(2j * np.pi * rng.random()) * q[0]
            cases.append(u)
    for (i, j) in np.ndindex(dim, dim) if dim == 2 else ():
        for bad in NON_FINITE:
            u = np.eye(dim, dtype=complex)
            u[i, j] = bad
            cases.append(u)
    return cases


def allclose_unitary(u: np.ndarray) -> bool:
    with np.errstate(all="ignore"):
        return bool(np.allclose(u @ u.conj().T, np.eye(len(u)), atol=1e-10))


def accepts(apply, u) -> bool:
    try:
        apply(u)
    except NonUnitary:
        return False
    return True


class TestUnitarityBound:
    """The unitarity test accepts and rejects exactly what np.allclose(u u^H, I) does."""

    @pytest.mark.parametrize("register, decl", [
        ("pol", TWO_SITES),
        ("oam", BasisDecl(("a", "b"), oam=(0, 2))),
        ("oam", BasisDecl(("a", "b"), oam=(-2, 0, 2))),
    ])
    def test_apply_local_unitary_matches_allclose(self, register, decl):
        state = StateVector.from_amplitudes(decl, {ket(decl.sites[0], "H", decl.oam[0]): 1.0})
        dim = 2 if register == "pol" else len(decl.oam)
        verdicts = []
        for u in unitary_cases(dim):
            got = accepts(lambda m: apply_local_unitary(state, m, register, decl.sites[0]), u)
            assert got == allclose_unitary(u), u
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("kind", ["hwp", "qwp"])
    def test_waveplate_matches_allclose(self, monkeypatch, kind):
        state = eq1_state()
        verdicts = []
        for u in unitary_cases(2, seed=11):
            monkeypatch.setattr(elements, "_jones", lambda k, theta, u=u: tuple(u.ravel().tolist()))
            got = accepts(lambda m: waveplate(state, "NY", kind, 0.0), u)
            assert got == allclose_unitary(u), u
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_oam_matrix_raises_non_unitary(self, bad):
        # Rejected before u @ u^H, whose numpy warning the suite turns into an error.
        decl = BasisDecl(("a", "b"), oam=(-2, 0, 2))
        u = np.eye(3, dtype=complex)
        u[1, 2] = bad
        with pytest.raises(NonUnitary):
            apply_local_unitary(StateVector.vacuum(decl), u, "oam")

    def test_wave_plates_at_every_angle_pass(self):
        for theta in np.linspace(-720.0, 720.0, 1441):
            for kind in ("hwp", "qwp"):
                waveplate(eq1_state(), "NY", kind, float(theta))


class TestExpectationValue:
    def test_identity_gives_trace(self):
        rho = to_density(eq1_state())
        assert expectation_value(rho, np.eye(rho.dim)) == pytest.approx(1.0)

    def test_pauli_z_on_balanced_mixture(self):
        rho = DensityOperator(("0", "1"), np.diag([0.5, 0.5]))
        assert expectation_value(rho, np.diag([1.0, -1.0])) == pytest.approx(0.0)

    def test_zz_on_entangled_two_qubit_form(self):
        # Path qubit |a> -> 0, |b> -> 1; pol qubit H -> 0, V -> 1. The
        # benchmark state is then (|00> + |11>)/sqrt(2); contract directly.
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = SQ2
        rho = DensityOperator(("a,H", "a,V", "b,H", "b,V"), np.outer(psi, psi.conj()))
        zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
        assert expectation_value(rho, zz) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        rho = DensityOperator(("0", "1"), np.diag([0.5, 0.5]))
        with pytest.raises(DimensionMismatch):
            expectation_value(rho, np.eye(3))

    def test_non_hermitian_rejected(self):
        rho = DensityOperator(("0", "1"), np.diag([0.5, 0.5]))
        with pytest.raises(ValueError, match="Hermitian"):
            expectation_value(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestFidelity:
    def test_global_phase_invisible(self):
        s = eq1_state()
        t = StateVector(s.decl, s.amps * np.exp(0.7j))
        assert fidelity(s, t) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        a = StateVector.from_amplitudes(TWO_SITES, {ket("PUE", "H"): 1.0})
        b = StateVector.from_amplitudes(TWO_SITES, {ket("NY", "V"): 1.0})
        assert fidelity(a, b) == 0

    def test_single_branch_overlap(self):
        branch = StateVector.from_amplitudes(TWO_SITES, {ket("PUE", "H"): 1.0})
        assert fidelity(eq1_state(), branch) == pytest.approx(0.5)

    def test_unnormalized_state_rejected(self):
        doubled = StateVector(TWO_SITES, 2.0 * eq1_state().amps)
        with pytest.raises(ValueError, match=r"second state is not normalized \(norm 2\)"):
            fidelity(eq1_state(), doubled)


class TestDensityOperatorInvariants:
    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityOperator(("0", "1"), np.array([[0.5, 0.6], [0.6, 0.5]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(("0", "1"), np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_purity_bounds_on_random_states(self, rng):
        decl = BasisDecl(("a", "b"))
        for _ in range(25):
            rho = to_density(random_state(decl, rng))
            assert rho.purity() <= 1.0 + 1e-10
            assert rho.purity() <= rho.trace_value ** 2 + 1e-10

    def test_subnormalized_member_allowed(self):
        rho = DensityOperator(("0", "1"), np.diag([0.25, 0.25]))
        assert rho.trace_value == pytest.approx(0.5)

    def test_rejects_trace_above_one(self):
        with pytest.raises(ValueError, match=r"trace 1.5 outside \(0, 1\]"):
            DensityOperator(("0", "1"), np.diag([0.75, 0.75]))

    def test_rejects_a_shape_that_is_not_its_labels(self):
        with pytest.raises(DimensionMismatch, match=r"matrix shape \(2, 2\) does not match 3"):
            DensityOperator(("0", "1", "2"), np.eye(2) / 2.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.inf)])
    def test_rejects_an_infinite_conjugate_pair(self, bad):
        # np.allclose counts inf == inf as close; the Hermitian test does not.
        with pytest.raises(ValueError, match="non-finite entry"):
            DensityOperator(("0", "1"), np.array([[0.5, bad], [np.conj(bad), 0.5]]))

    @pytest.mark.parametrize("big", [1e308, complex(1e308, 1e308)])
    def test_rejects_an_antihermitian_pair_near_the_float_limit(self, big):
        # m - m^H overflows to inf; under filterwarnings = error that must not warn.
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityOperator(("a", "b"), np.array([[0, big], [-np.conj(big), 0]]))

    @pytest.mark.parametrize("matrix", [[[np.inf, 0.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]]])
    def test_names_a_non_finite_diagonal(self, matrix):
        with pytest.raises(ValueError, match="non-finite entry"):
            DensityOperator(("0", "1"), np.array(matrix))


def hermitian_cases(seed: int = 7) -> list:
    """Seeded full-rank 4x4 states moved just inside and just outside the allclose
    bound, and entries made NaN or inf alone and in conjugate pairs.

    Off-diagonal: m[i,j] shifted by (1e-10 + 1e-5·|m[j,i]|)·(1 ∓ 1e-3) with a
    seeded phase. Diagonal: m[i,i] given an imaginary part t with
    2|t| = (1e-10 + 1e-5·|m[i,i]|)·(1 ∓ 1e-3).
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(8):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T + np.eye(4)
        rho *= 0.8 / np.trace(rho).real
        i, j = rng.choice(4, 2, replace=False)
        for factor in (1 - 1e-3, 1 + 1e-3):
            m = rho.copy()
            m[i, j] += (1e-10 + 1e-5 * abs(rho[j, i])) * factor * np.exp(2j * np.pi * rng.random())
            cases.append(m)
            m = rho.copy()
            m[i, i] += 0.5j * (1e-10 + 1e-5 * abs(rho[i, i])) * factor
            cases.append(m)
    for bad in NON_FINITE:
        for (i, j) in ((0, 0), (0, 1)):
            m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
            m[i, j] = bad
            cases.append(m.copy())
            m[j, i] = np.conj(bad)
            cases.append(m)
    return cases


class TestHermitianBound:
    """The Hermitian test accepts exactly the finite matrices np.allclose(m, m^H) accepts."""

    def test_predicate_matches_allclose(self):
        verdicts = []
        for m in hermitian_cases():
            with np.errstate(all="ignore"):
                want = bool(np.isfinite(m).all() and np.allclose(m, m.conj().T, atol=1e-10))
            assert _is_hermitian(m) == want, m
            verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_density_operator_matches_allclose(self):
        for m in hermitian_cases(seed=13):
            with np.errstate(all="ignore"):
                want = bool(np.isfinite(m).all() and np.allclose(m, m.conj().T, atol=1e-10))
            try:
                DensityOperator(("0", "1", "2", "3"), m)
                hermitian = True
            except ValueError as exc:  # a later check (eigenvalues, trace) may still fail
                hermitian = "not Hermitian" not in str(exc) and "non-finite" not in str(exc)
            assert hermitian == want, m


class TestWithDeclaration:
    def test_embeds_into_larger_basis(self):
        big = BasisDecl(("in", "NY", "PUE"))
        s = eq1_state().with_declaration(big)
        assert s.norm() == pytest.approx(1.0)
        assert s.amplitude(ket("NY", "V")) == pytest.approx(SQ2)

    def test_rejects_lossy_restriction(self):
        small = BasisDecl(("NY",))
        with pytest.raises(BasisMismatch):
            eq1_state().with_declaration(small)

    def test_amplitudes_equal_a_per_ket_placement(self, rng):
        small = BasisDecl(("b", "a"), (0, 2))
        big = BasisDecl(("c", "a", "b"), (-2, 0, 2))
        state = random_state(small, rng)
        moved = state.with_declaration(big)
        want = np.zeros(big.dim, dtype=complex)
        for k, amp in zip(small.kets, state.amps):
            want[big.index[k]] = amp
        assert moved.amps.tobytes() == want.tobytes()
