"""Unit tests for the optical-element actions."""

import math
import warnings

import numpy as np
import pytest

from photonsteer.circuit import Circuit, ElementSpec, run_circuit
from photonsteer.core import BasisDecl, BasisKet, StateVector, apply_local_unitary, fidelity
from photonsteer.elements import (
    apply_source,
    beamsplitter_5050,
    heralded_source,
    hwp_matrix,
    pbs_route,
    phase_shift,
    qplate,
    waveplate,
)
from photonsteer.errors import (
    DoubleExcitation,
    NonUnitary,
    OamOverflow,
    SiteCollision,
    UnknownSite,
)

from conftest import qplate_oracle, random_state

DECL = BasisDecl(("in", "NY", "PUE"))
OAM_DECL = BasisDecl(("in", "NY", "PUE"), oam=(-2, 0, 2))
SQ2 = 1.0 / np.sqrt(2.0)


def ket(site, pol, oam=0):
    return BasisKet.photon(site, pol, oam)


class TestHeraldedSource:
    def test_horizontal_photon(self):
        s = heralded_source(DECL, "in", "H")
        assert s.amplitude(ket("in", "H")) == pytest.approx(1.0)
        assert s.norm() == pytest.approx(1.0)

    def test_vertical_photon(self):
        s = heralded_source(DECL, "in", "V")
        assert s.amplitude(ket("in", "V")) == pytest.approx(1.0)

    def test_double_excitation(self):
        s = heralded_source(DECL, "in", "H")
        with pytest.raises(DoubleExcitation):
            apply_source(s, "in", "H")

    def test_unknown_site(self):
        with pytest.raises(UnknownSite):
            heralded_source(DECL, "ghost", "H")

    def test_source_needs_oam_zero(self):
        decl = BasisDecl(("a",), oam=(-2, 2))
        with pytest.raises(OamOverflow, match=r"source emits oam=0 but declared set is \(-2, 2\)"):
            apply_source(StateVector.vacuum(decl), "a", "H")


class TestOperandErrors:
    @pytest.mark.parametrize("apply, error, message", [
        (lambda s: waveplate(s, "in", "xwp", 10.0), ValueError,
         "waveplate kind must be 'hwp' or 'qwp', got 'xwp'"),
        (lambda s: pbs_route(s, "in", "NY", "NY"), SiteCollision,
         "PBS outputs must be two distinct sites"),
        (lambda s: beamsplitter_5050(s, "in", "in"), UnknownSite,
         "beam splitter needs two distinct sites"),
    ], ids=["waveplate-kind", "pbs-outputs", "bs-one-site"])
    def test_rejected_with_its_message(self, apply, error, message):
        with pytest.raises(error, match=message):
            apply(heralded_source(DECL, "in", "H"))


class TestWaveplate:
    def test_hwp_22_5_makes_diagonal_polarization(self):
        s = waveplate(heralded_source(DECL, "in", "H"), "in", "hwp", 22.5)
        assert s.amplitude(ket("in", "H")) == pytest.approx(SQ2)
        assert s.amplitude(ket("in", "V")) == pytest.approx(SQ2)

    def test_hwp_0_is_fast_axis_aligned(self):
        s = waveplate(heralded_source(DECL, "in", "H"), "in", "hwp", 0.0)
        assert s.amplitude(ket("in", "H")) == pytest.approx(1.0)

    def test_hwp_45_swaps_h_and_v(self):
        # Jones matrix at 45 degrees is the off-diagonal exchange.
        np.testing.assert_allclose(hwp_matrix(45.0), [[0, 1], [1, 0]], atol=1e-12)
        s = waveplate(heralded_source(DECL, "in", "H"), "in", "hwp", 45.0)
        assert s.amplitude(ket("in", "V")) == pytest.approx(1.0)

    def test_hwp_is_involution_for_any_angle(self, rng):
        for theta in rng.uniform(0.0, 360.0, size=20):
            s = random_state(DECL, rng)
            out = waveplate(waveplate(s, "NY", "hwp", theta), "NY", "hwp", theta)
            np.testing.assert_allclose(out.amps, s.amps, atol=1e-10)

    def test_qwp_keeps_axis_state(self):
        s = waveplate(heralded_source(DECL, "in", "H"), "in", "qwp", 0.0)
        assert abs(s.amplitude(ket("in", "H"))) == pytest.approx(1.0)

    def test_qwp_at_45_makes_circular(self):
        # R(45) diag(1, i) R(-45) on |H> gives the H - iV handedness.
        s = waveplate(heralded_source(DECL, "in", "H"), "in", "qwp", 45.0)
        h, v = s.amplitude(ket("in", "H")), s.amplitude(ket("in", "V"))
        assert abs(h) == pytest.approx(SQ2)
        assert v / h == pytest.approx(-1.0j)


class TestPbs:
    def test_diagonal_input_splits_into_entangled_state(self):
        s = waveplate(heralded_source(DECL, "in", "H"), "in", "hwp", 22.5)
        out = pbs_route(s, "in", "PUE", "NY")
        assert out.amplitude(ket("PUE", "H")) == pytest.approx(SQ2)
        assert out.amplitude(ket("NY", "V")) == pytest.approx(SQ2)

    def test_pure_transmission(self):
        out = pbs_route(heralded_source(DECL, "in", "H"), "in", "PUE", "NY")
        assert out.amplitude(ket("PUE", "H")) == pytest.approx(1.0)

    def test_vacuum_component_unchanged(self):
        out = pbs_route(StateVector.vacuum(DECL), "in", "PUE", "NY")
        assert out.amplitude(BasisKet.vacuum()) == pytest.approx(1.0)

    def test_collision_detected(self):
        s = StateVector.from_amplitudes(
            DECL, {ket("in", "H"): SQ2, ket("PUE", "H"): SQ2}
        )
        with pytest.raises(SiteCollision):
            pbs_route(s, "in", "PUE", "NY")


class TestBeamsplitter:
    def test_single_photon_splits_with_i_phase(self):
        decl = BasisDecl(("b1", "b2"))
        s = heralded_source(decl, "b1", "H")
        out = beamsplitter_5050(s, "b1", "b2")
        assert out.amplitude(BasisKet.photon("b1", "H")) == pytest.approx(SQ2)
        assert out.amplitude(BasisKet.photon("b2", "H")) == pytest.approx(1j * SQ2)

    def test_applying_twice_moves_photon_across(self):
        decl = BasisDecl(("b1", "b2"))
        s = heralded_source(decl, "b1", "H")
        out = beamsplitter_5050(beamsplitter_5050(s, "b1", "b2"), "b1", "b2")
        target = heralded_source(decl, "b2", "H")
        assert fidelity(out, target) == pytest.approx(1.0)

    def test_vacuum_untouched(self):
        decl = BasisDecl(("b1", "b2"))
        out = beamsplitter_5050(StateVector.vacuum(decl), "b1", "b2")
        assert out.amplitude(BasisKet.vacuum()) == pytest.approx(1.0)

    def test_unitary_on_random_states(self, rng):
        decl = BasisDecl(("b1", "b2"))
        for _ in range(20):
            s = random_state(decl, rng)
            assert beamsplitter_5050(s, "b1", "b2").norm() == pytest.approx(1.0, abs=1e-10)


class TestQplate:
    def test_h_photon_becomes_circular_oam_pair(self):
        s = qplate(heralded_source(OAM_DECL, "in", "H"), "in", 1)
        # (|L,-2> + |R,+2>)/sqrt(2) written back in the H/V basis.
        target = StateVector.from_amplitudes(
            OAM_DECL,
            {
                ket("in", "H", 2): 0.5,
                ket("in", "H", -2): 0.5,
                ket("in", "V", 2): 0.5j,
                ket("in", "V", -2): -0.5j,
            },
        )
        assert fidelity(s, target) == pytest.approx(1.0)

    def test_left_circular_input_single_branch(self):
        s = StateVector.from_amplitudes(
            OAM_DECL, {ket("in", "H"): SQ2, ket("in", "V"): -1j * SQ2}
        )  # |L> = (|H> - i|V>)/sqrt(2)
        out = qplate(s, "in", 1)
        target = StateVector.from_amplitudes(
            OAM_DECL, {ket("in", "H", 2): SQ2, ket("in", "V", 2): 1j * SQ2}
        )  # |R, +2>
        assert fidelity(out, target) == pytest.approx(1.0)

    def test_involution(self, rng):
        for _ in range(10):
            s = random_state(OAM_DECL, rng)
            # Restrict support to oam=0 so both applications stay in range.
            amps = np.array(s.amps)
            for i, k in enumerate(OAM_DECL.kets):
                if not k.is_vacuum and k.oam != 0:
                    amps[i] = 0.0
            amps /= np.linalg.norm(amps)
            s = StateVector(OAM_DECL, amps)
            out = qplate(qplate(s, "NY", 1), "NY", 1)
            np.testing.assert_allclose(out.amps, s.amps, atol=1e-10)

    def test_overflow(self):
        s = StateVector.from_amplitudes(OAM_DECL, {ket("in", "H", 2): 1.0})
        with pytest.raises(OamOverflow):
            qplate(s, "in", 1)

    def test_unitary_within_range(self, rng):
        for _ in range(10):
            s = random_state(OAM_DECL, rng)
            amps = np.array(s.amps)
            for i, k in enumerate(OAM_DECL.kets):
                if not k.is_vacuum and k.oam != 0:
                    amps[i] = 0.0
            amps /= np.linalg.norm(amps)
            out = qplate(StateVector(OAM_DECL, amps), "in", 1)
            assert out.norm() == pytest.approx(1.0, abs=1e-10)


class TestQplateOamAxis:
    """``_qplate`` finds each shifted OAM value's position in ``BasisDecl.oam_axis``, in
    Python integers, so the shift of any declared value is exact."""

    NARROW = BasisDecl(("a", "b"), oam=(-2, 0, 2))
    WIDE = BasisDecl(("a", "b"), oam=(-4, -2, 0, 2, 4))

    @pytest.mark.parametrize("first, second", [("WIDE", "NARROW"), ("NARROW", "WIDE")])
    def test_the_same_q_shifts_within_each_oam_set(self, first, second):
        # |L, 2> at q = 1 moves to |R, 4>: in range on WIDE, an overflow on NARROW.
        for name in (first, second, first, second):
            decl = getattr(self, name)
            s = StateVector.from_amplitudes(
                decl, {ket("a", "H", 2): SQ2, ket("a", "V", 2): -1j * SQ2})
            if 4 in decl.oam:
                np.testing.assert_allclose(
                    qplate(s, "a", 1).amps, qplate_oracle(s, "a", 1), atol=1e-12)
            else:
                with pytest.raises(OamOverflow) as caught:
                    qplate(s, "a", 1)
                assert str(caught.value) == "|L,2> would shift to oam=4, outside (-2, 0, 2)"

    def test_overflow_names_its_element_after_repeated_plates(self):
        # H -> (|L,-2> + |R,2>)/sqrt(2); the HWP swaps L and R, so the second plate sends
        # |L,2> to oam 4.
        head = (ElementSpec("source", ("a",), pol="H"), ElementSpec("qplate", ("a",), q=1),
                ElementSpec("hwp", ("a",), angle=30.0))
        for extra in ((), (ElementSpec("phase", ("a",), angle=10.0),)) * 2:
            circuit = Circuit(("a",), (-2, 0, 2),
                              (*head, *extra, ElementSpec("qplate", ("a",), q=1)))
            with pytest.raises(OamOverflow) as caught:
                run_circuit(circuit)
            assert str(caught.value) == (f"element {len(circuit.elements) - 1} (qplate): "
                                         "|L,2> would shift to oam=4, outside (-2, 0, 2)")

    @pytest.mark.parametrize("q", [10**20, 2**62])
    def test_a_shift_past_int64_overflows(self, q):
        circuit = Circuit(("a",), (-2, 0, 2), (ElementSpec("source", ("a",), pol="H"),
                                               ElementSpec("qplate", ("a",), q=q)))
        with pytest.raises(OamOverflow) as caught:
            run_circuit(circuit)
        assert str(caught.value) == (f"element 1 (qplate): |L,0> would shift to oam={2 * q}, "
                                     "outside (-2, 0, 2)")

    def test_shifts_past_int64_that_land_on_declared_values(self):
        # 2q = 2^62 and then 2^63: every target is ±2^62, declared.
        decl = BasisDecl(("a",), oam=(-2**62, 0, 2**62))
        circuit = Circuit(decl.sites, decl.oam, (ElementSpec("source", ("a",), pol="H"),
                                                 ElementSpec("qplate", ("a",), q=2**61),
                                                 ElementSpec("qplate", ("a",), q=2**62)))
        want = heralded_source(decl, "a", "H")
        for q in (2**61, 2**62):
            want = StateVector(decl, qplate_oracle(want, "a", q))
        np.testing.assert_allclose(run_circuit(circuit).amps, want.amps, atol=1e-12)
        assert abs(want.amplitude(ket("a", "H", 2**62))) == pytest.approx(0.5, abs=1e-12)

    def test_a_target_past_int64_overflows_and_does_not_wrap(self):
        # 2q = 2^63 - 2 puts |L> at -(2^63 - 2) and |R> at 2^63 - 2; the HWP swaps them,
        # and the last plate sends |L, 2^63 - 2> to 2^63 + 2, which int64 wraps to a
        # declared value.
        top = 2**63 - 2
        circuit = Circuit(("a",), (-top, 0, top), (ElementSpec("source", ("a",), pol="H"),
                                                   ElementSpec("qplate", ("a",), q=top // 2),
                                                   ElementSpec("hwp", ("a",), angle=45.0),
                                                   ElementSpec("qplate", ("a",), q=2)))
        with pytest.raises(OamOverflow) as caught:
            run_circuit(circuit)
        assert str(caught.value) == (f"element 3 (qplate): |L,{top}> would shift to "
                                     f"oam={top + 4}, outside ({-top}, 0, {top})")


class TestPhaseShift:
    def test_zero_is_identity(self):
        s = heralded_source(DECL, "in", "H")
        np.testing.assert_allclose(phase_shift(s, "in", 0.0).amps, s.amps)

    def test_180_flips_branch_sign(self):
        s = StateVector.from_amplitudes(
            DECL, {ket("PUE", "H"): SQ2, ket("NY", "V"): SQ2}
        )
        out = phase_shift(s, "NY", 180.0)
        assert out.amplitude(ket("NY", "V")) == pytest.approx(-SQ2)
        assert out.amplitude(ket("PUE", "H")) == pytest.approx(SQ2)

    def test_full_turn_is_identity(self):
        s = heralded_source(DECL, "in", "H")
        np.testing.assert_allclose(phase_shift(s, "in", 360.0).amps, s.amps, atol=1e-12)


class TestElementProperties:
    def test_norm_preserved_through_pipelines(self, rng):
        for _ in range(20):
            s = random_state(OAM_DECL, rng)
            s = waveplate(s, "in", "hwp", float(rng.uniform(0, 360)))
            s = waveplate(s, "NY", "qwp", float(rng.uniform(0, 360)))
            s = beamsplitter_5050(s, "NY", "PUE")
            s = phase_shift(s, "PUE", float(rng.uniform(0, 360)))
            assert abs(s.norm() - 1.0) < 1e-9

    def test_disjoint_site_actions_commute(self, rng):
        for _ in range(10):
            s = random_state(DECL, rng)
            theta = float(rng.uniform(0, 360))
            phi = float(rng.uniform(0, 360))
            a = phase_shift(waveplate(s, "NY", "hwp", theta), "PUE", phi)
            b = waveplate(phase_shift(s, "PUE", phi), "NY", "hwp", theta)
            np.testing.assert_allclose(a.amps, b.amps, atol=1e-10)


class TestNonFiniteAngles:
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("apply", [
        lambda s, a: waveplate(s, "in", "hwp", a),
        lambda s, a: waveplate(s, "in", "qwp", a),
        lambda s, a: phase_shift(s, "in", a),
    ], ids=["hwp", "qwp", "phase"])
    def test_rejected_before_any_trigonometry(self, apply, angle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonUnitary, match="not finite"):
                apply(heralded_source(DECL, "in", "H"), angle)

    def test_undeclared_site_is_reported_first(self):
        with pytest.raises(UnknownSite):
            waveplate(heralded_source(DECL, "in", "H"), "ghost", "hwp", math.inf)
        with pytest.raises(UnknownSite):
            phase_shift(heralded_source(DECL, "in", "H"), "ghost", math.nan)

    @pytest.mark.parametrize("kind", ["hwp", "qwp", "phase"])
    def test_hand_built_circuit_rejects_a_nan_angle(self, kind):
        circuit = Circuit(("in", "out"), (0,), (
            ElementSpec("source", ("in",), pol="H"),
            ElementSpec("bs", ("in", "out")),
            ElementSpec(kind, ("out",), angle=math.nan),
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonUnitary, match=rf"^element 2 \({kind}\): .*not finite"):
                run_circuit(circuit)


# Every public element function with arguments valid on OAM_DECL.
PUBLIC_ACTIONS = {
    "apply_source": lambda s: apply_source(StateVector.vacuum(s.decl), "NY", "V"),
    "waveplate": lambda s: waveplate(s, "NY", "qwp", 12.5),
    "pbs_route": lambda s: pbs_route(s, "in", "in", "PUE"),
    "beamsplitter_5050": lambda s: beamsplitter_5050(s, "PUE", "in"),
    "qplate": lambda s: qplate(s, "in", 1),
    "phase_shift": lambda s: phase_shift(s, "PUE", 33.0),
    "apply_local_unitary": lambda s: apply_local_unitary(s, np.eye(3)[[2, 0, 1]], "oam"),
}


def oam0_state(rng) -> StateVector:
    """Random state with oam=0 support only, so a q=1 plate stays in range."""
    amps = np.array(random_state(OAM_DECL, rng).amps)
    amps[1:].reshape(OAM_DECL.shape)[:, :, [0, 2]] = 0.0
    amps[1:].reshape(OAM_DECL.shape)[OAM_DECL.site_axis["PUE"], 1] = 0.0  # PBS V output
    return StateVector(OAM_DECL, amps / np.linalg.norm(amps))


class TestNoAliasing:
    @pytest.mark.parametrize("name", PUBLIC_ACTIONS)
    def test_returns_new_amplitudes_and_leaves_the_input_alone(self, name, rng):
        state = oam0_state(rng)
        before = state.amps.copy()
        out = PUBLIC_ACTIONS[name](state)
        assert np.array_equal(state.amps, before)
        assert not np.shares_memory(out.amps, state.amps)
        assert not out.amps.flags.writeable
        assert not np.array_equal(out.amps, before)  # the action did something

    def test_heralded_source_returns_a_new_array_each_call(self):
        first, second = heralded_source(DECL, "in", "H"), heralded_source(DECL, "in", "H")
        assert not np.shares_memory(first.amps, second.amps)
        assert not first.amps.flags.writeable
