"""The (site, pol, oam) tensor layout against per-ket oracles.

The declaration lists its sites out of sorted order and its OAM values with
gaps, so code that assumed declared site order or contiguous OAM values
would address the wrong amplitudes.
"""

import numpy as np
import pytest

from photonsteer.core import (
    POLS,
    BasisDecl,
    BasisKet,
    StateVector,
    apply_local_unitary,
    normalize,
)
from photonsteer.elements import (
    beamsplitter_5050,
    hwp_matrix,
    pbs_route,
    phase_shift,
    qplate,
    qwp_matrix,
    waveplate,
)
from photonsteer.errors import OamOverflow
from photonsteer.measurement import (
    born_probabilities,
    occupation_setting,
    oam_setting,
    polarization_setting,
    reduced_state,
)
from photonsteer.steering import pol_path_qubits, two_qubit_frame

from conftest import (
    beamsplitter_oracle,
    born_oracle,
    local_unitary_oracle,
    occupation_oracle,
    pbs_oracle,
    phase_oracle,
    pol_path_oracle,
    qplate_oracle,
    random_state,
    register_oracle,
)

DECL = BasisDecl(("z", "a", "m"), oam=(-7, -2, 0, 2, 9))
# 16 sites × 21 OAM values, dim 673: the largest table shape of the optical_table benchmark.
WIDE_DECL = BasisDecl(
    ("z", "a", "m", "q", "c", "x", "b", "k", "e", "w", "f", "p", "g", "t", "h", "n"),
    oam=(-7, -2, 0, 2, 9, -20, -16, -13, -11, -9, -5, -4, -1, 1, 3, 5, 6, 12, 14, 17, 20),
)
TOL = 1e-12


def restricted(state: StateVector, keep) -> StateVector:
    """``state`` with the photon kets failing ``keep(ket)`` zeroed, renormalized."""
    amps = np.array(state.amps)
    for i, k in enumerate(state.decl.kets):
        if not k.is_vacuum and not keep(k):
            amps[i] = 0.0
    return normalize(StateVector(state.decl, amps))


def random_unitary(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTensorView:
    def test_axes_follow_sorted_sites_and_sorted_oam(self):
        assert DECL.site_axis == {"a": 0, "m": 1, "z": 2}
        view = DECL.tensor(np.arange(DECL.dim))
        assert view.shape == (3, 2, 5)
        for i, k in enumerate(DECL.kets[1:], start=1):
            assert view[DECL.site_axis[k.site], POLS.index(k.pol), DECL.oam.index(k.oam)] == i

    def test_view_writes_through(self):
        amps = np.zeros(DECL.dim, dtype=complex)
        DECL.tensor(amps)[DECL.site_axis["z"], 1, DECL.oam.index(9)] = 1.0
        assert amps[DECL.index[BasisKet.photon("z", "V", 9)]] == 1.0
        assert np.count_nonzero(amps) == 1


class TestElements:
    decl = DECL

    def test_waveplates_and_local_unitaries(self, rng):
        for _ in range(5):
            s = random_state(self.decl, rng)
            for site, kind, u in (("m", "hwp", hwp_matrix(31.0)), ("z", "qwp", qwp_matrix(31.0))):
                np.testing.assert_allclose(
                    waveplate(s, site, kind, 31.0).amps,
                    local_unitary_oracle(s, u, "pol", site), atol=TOL,
                )
            u_pol = random_unitary(2, rng)
            np.testing.assert_allclose(
                apply_local_unitary(s, u_pol, "pol").amps,
                local_unitary_oracle(s, u_pol, "pol"), atol=TOL,
            )
            u_oam = random_unitary(len(self.decl.oam), rng)
            for site in (None, "a"):
                np.testing.assert_allclose(
                    apply_local_unitary(s, u_oam, "oam", site).amps,
                    local_unitary_oracle(s, u_oam, "oam", site), atol=TOL,
                )

    @pytest.mark.parametrize("outputs", [("a", "m"), ("m", "a"), ("a", "z"), ("z", "m")])
    def test_pbs_route(self, rng, outputs):
        out_h, out_v = outputs
        for _ in range(5):
            # Photon at the input only, so no output already holds amplitude.
            s = restricted(random_state(self.decl, rng), lambda k: k.site == "z")
            np.testing.assert_allclose(
                pbs_route(s, "z", out_h, out_v).amps, pbs_oracle(s, "z", out_h, out_v), atol=TOL
            )

    @pytest.mark.parametrize("pair", [("z", "m"), ("m", "a"), ("a", "z")])
    def test_beamsplitter(self, rng, pair):
        s = random_state(self.decl, rng)
        np.testing.assert_allclose(
            beamsplitter_5050(s, *pair).amps, beamsplitter_oracle(s, *pair), atol=TOL
        )

    @pytest.mark.parametrize("site", ["z", "a", "m"])
    def test_phase_shift(self, rng, site):
        s = random_state(self.decl, rng)
        np.testing.assert_allclose(
            phase_shift(s, site, 71.0).amps, phase_oracle(s, site, 71.0), atol=TOL
        )

    @pytest.mark.parametrize("q", [1, -1])
    def test_qplate_in_range(self, rng, q):
        # At the plate site only L at m with m + 2q declared and R at m with
        # m - 2q declared; the other sites are unrestricted.
        for site in ("z", "a"):
            s = random_state(self.decl, rng)
            amps = np.array(s.amps)
            block = self.decl.tensor(amps)[self.decl.site_axis[site]]
            lr = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / np.sqrt(2.0) @ block
            for row, step in ((0, 2 * q), (1, -2 * q)):
                for j, m in enumerate(self.decl.oam):
                    if m + step not in self.decl.oam:
                        lr[row, j] = 0.0
            block[...] = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0) @ lr
            s = normalize(StateVector(self.decl, amps))
            np.testing.assert_allclose(qplate(s, site, q).amps, qplate_oracle(s, site, q), atol=TOL)

    @pytest.mark.parametrize("q", [1, 2, -1])
    def test_qplate_overflows_exactly_where_shift_undeclared(self, q):
        circular = {"L": (1.0, -1.0j), "R": (1.0, 1.0j)}  # (H, V) components of |L>, |R>
        for name, (ch, cv) in circular.items():
            for m in self.decl.oam:
                s = StateVector.from_amplitudes(self.decl, {
                    BasisKet.photon("m", "H", m): ch / np.sqrt(2.0),
                    BasisKet.photon("m", "V", m): cv / np.sqrt(2.0),
                })
                target = m + 2 * q if name == "L" else m - 2 * q
                if target in self.decl.oam:
                    np.testing.assert_allclose(
                        qplate(s, "m", q).amps, qplate_oracle(s, "m", q), atol=TOL
                    )
                else:
                    with pytest.raises(OamOverflow):
                        qplate(s, "m", q)
                    with pytest.raises(OamOverflow):
                        qplate_oracle(s, "m", q)

    def test_qplate_drops_sub_tolerance_amplitudes(self):
        # An L amplitude below the tolerance at m = 9 would overflow; it is dropped.
        s = StateVector.from_amplitudes(self.decl, {
            BasisKet.photon("m", "H", 0): 1.0,
            BasisKet.photon("m", "H", 9): 1e-14,
        })
        np.testing.assert_allclose(qplate(s, "m", 1).amps, qplate_oracle(s, "m", 1), atol=TOL)


class TestElementsAtWorkloadScale(TestElements):
    """The same oracle checks on the largest generated optical-table shape."""

    decl = WIDE_DECL


class TestReductions:
    def test_partial_trace_all_registers(self, rng):
        for _ in range(5):
            s = random_state(DECL, rng)
            for site in DECL.sites:
                got = reduced_state(s, "occupation", site).matrix
                np.testing.assert_allclose(got, occupation_oracle(s, site), atol=TOL)
            photon = random_state(DECL, rng, photon_only=True)
            for register in ("pol", "oam"):
                reduced = reduced_state(photon, register)
                np.testing.assert_allclose(
                    reduced.matrix, register_oracle(photon, register), atol=TOL
                )
            assert reduced.labels == DECL.oam


def _settings(site):
    return [
        *(polarization_setting(site, b) for b in ("ZHV", "Xdiag", "Ycirc")),
        oam_setting(site, "number", DECL.oam),
        oam_setting(site, "pm", DECL.oam),
        occupation_setting(site),
    ]


class TestBorn:
    def _check(self, state, setting):
        got = born_probabilities(state, setting)
        want = born_oracle(state, setting)
        assert [r.label for r in got] == [label for label, _, _ in want]
        for record, (_, p, cond) in zip(got, want):
            assert record.probability == pytest.approx(p, abs=TOL)
            if cond is None:
                assert record.conditional_state is None
            else:
                np.testing.assert_allclose(record.conditional_state.amps, cond, atol=TOL)

    @pytest.mark.parametrize("site", ["z", "a", "m"])
    def test_random_states(self, rng, site):
        for _ in range(3):
            state = random_state(DECL, rng)
            for setting in _settings(site):
                self._check(state, setting)

    def test_invisible_outcomes_fold_into_no_click(self, rng):
        # Site "a" only ever holds H at oam 0: V and the other OAM outcomes
        # never reach the detector there.
        state = restricted(
            random_state(DECL, rng),
            lambda k: k.site != "a" or (k.pol == "H" and k.oam == 0),
        )
        for setting in _settings("a"):
            self._check(state, setting)


class TestFrames:
    @pytest.mark.parametrize("alice,bob", [("z", "a"), ("a", "z"), ("m", "z")])
    def test_pol_path_qubits(self, rng, alice, bob):
        for _ in range(3):
            state = restricted(
                random_state(DECL, rng, photon_only=True), lambda k: k.site in (alice, bob)
            )
            np.testing.assert_allclose(
                pol_path_qubits(state, bob).matrix, pol_path_oracle(state, alice, bob), atol=TOL
            )

    def test_occupation_frame_on_product_state(self, rng):
        internal = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        internal /= np.linalg.norm(internal)
        path = {"z": 0.6, "m": 0.8j}
        amps = np.zeros(DECL.dim, dtype=complex)
        for i, k in enumerate(DECL.kets[1:], start=1):
            amps[i] = path.get(k.site, 0.0) * internal[POLS.index(k.pol), DECL.oam.index(k.oam)]
        psi = np.array([0.0, path["m"], path["z"], 0.0])  # |n_A n_B>: 00, 01, 10, 11
        got = two_qubit_frame(StateVector(DECL, amps), "m")[0].matrix
        np.testing.assert_allclose(got, np.outer(psi, psi.conj()), atol=TOL)
