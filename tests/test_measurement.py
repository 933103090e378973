"""Measurement-layer tests: Born tables, collapse, sampling, reductions."""

import tracemalloc

import numpy as np
import pytest

from photonsteer import measurement
from photonsteer.core import BasisDecl, BasisKet, StateVector, fidelity
from photonsteer.errors import BasisMismatch, OutOfRange, UnknownSite, ZeroProbabilityOutcome
from photonsteer.measurement import (
    MAX_SHOTS,
    NO_CLICK,
    MeasurementSetting,
    OutcomeRecord,
    born_probabilities,
    collapse,
    oam_setting,
    occupation_setting,
    polarization_setting,
    reduced_state,
    sample_outcome,
    sample_outcomes,
)
from photonsteer.scenarios import eq1_state, hardy_state, qplate_tripartite_state

from conftest import random_state

DECL = BasisDecl(("NY", "PUE"))
SQ2 = 1.0 / np.sqrt(2.0)


def ket(site, pol, oam=0):
    return BasisKet.photon(site, pol, oam)


def table(state, setting):
    return {r.label: r for r in born_probabilities(state, setting)}


def _sample(records, u):
    """Inverse-CDF oracle for one draw u: the first record whose running sum exceeds u."""
    acc = 0.0
    for record in records:
        acc += record.probability
        if u < acc:
            return record
    return records[-1]  # u landed in the rounding gap below 1


class TestSettings:
    def test_zhv_outcome_labels(self):
        setting = polarization_setting("NY", "ZHV")
        assert setting.labels == ("H-click", "V-click", NO_CLICK)

    def test_xdiag_outcome_labels(self):
        assert polarization_setting("NY", "Xdiag").labels == ("+", "-", NO_CLICK)

    def test_ycirc_outcome_labels(self):
        assert polarization_setting("NY", "Ycirc").labels == ("L", "R", NO_CLICK)

    @pytest.mark.parametrize("basis", ["ZHV", "Xdiag", "Ycirc"])
    def test_projector_vectors_orthonormal(self, basis):
        setting = polarization_setting("NY", basis)
        vectors = [v for _, v in setting.outcomes]
        gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
        np.testing.assert_allclose(gram, np.eye(len(vectors)), atol=1e-10)

    def test_unknown_site_surfaces_at_measurement(self):
        setting = polarization_setting("Boston", "ZHV")
        with pytest.raises(UnknownSite):
            born_probabilities(eq1_state(), setting)


class TestScenarioListOne:
    """Vertical-polarization detection at New York on the entangled state."""

    def test_born_table(self):
        t = table(eq1_state(), polarization_setting("NY", "ZHV"))
        assert t["V-click"].probability == pytest.approx(0.5, abs=1e-12)
        assert t[NO_CLICK].probability == pytest.approx(0.5, abs=1e-12)
        assert t["H-click"].probability == 0.0

    def test_v_click_collapses_to_new_york(self):
        out = collapse(eq1_state(), polarization_setting("NY", "ZHV"), "V-click")
        target = StateVector.from_amplitudes(DECL, {ket("NY", "V"): 1.0})
        assert fidelity(out, target) >= 1 - 1e-10

    def test_no_click_collapses_to_puebla(self):
        out = collapse(eq1_state(), polarization_setting("NY", "ZHV"), NO_CLICK)
        target = StateVector.from_amplitudes(DECL, {ket("PUE", "H"): 1.0})
        assert fidelity(out, target) >= 1 - 1e-10

    def test_h_click_impossible(self):
        with pytest.raises(ZeroProbabilityOutcome):
            collapse(eq1_state(), polarization_setting("NY", "ZHV"), "H-click")


class TestScenarioListTwo:
    """Diagonal-basis measurement: collapse onto path superpositions."""

    def test_born_table(self):
        t = table(eq1_state(), polarization_setting("NY", "Xdiag"))
        assert t["+"].probability == pytest.approx(0.5, abs=1e-12)
        assert t["-"].probability == pytest.approx(0.5, abs=1e-12)
        assert t[NO_CLICK].probability == 0.0

    @pytest.mark.parametrize("label,sign", [("+", 1.0), ("-", -1.0)])
    def test_conditional_is_path_superposition_with_pol_factor(self, label, sign):
        out = collapse(eq1_state(), polarization_setting("NY", "Xdiag"), label)
        pol = {"H": sign * SQ2 * sign, "V": SQ2 * sign}  # (|V> ± |H>)/sqrt(2) up to phase
        target = StateVector.from_amplitudes(
            DECL,
            {
                ket("PUE", "H"): 0.5,
                ket("PUE", "V"): 0.5 * sign,
                ket("NY", "H"): 0.5 * sign,
                ket("NY", "V"): 0.5,
            },
        )
        assert fidelity(out, target) >= 1 - 1e-10

    def test_path_marginal_is_balanced_superposition(self):
        # Explicit 2x2 path reduction oracle: sum over the constant pol factor.
        for label, sign in (("+", 1.0), ("-", -1.0)):
            out = collapse(eq1_state(), polarization_setting("NY", "Xdiag"), label)
            path = np.zeros((2, 2), dtype=complex)  # basis (PUE, NY)
            for p in ("H", "V"):
                vec = np.array([out.amplitude(ket("PUE", p)), out.amplitude(ket("NY", p))])
                path += np.outer(vec, vec.conj())
            expected = 0.5 * np.array([[1.0, sign], [sign, 1.0]])
            np.testing.assert_allclose(path, expected, atol=1e-10)

    def test_bob_reduced_balanced_in_both_branches(self):
        for label in ("+", "-"):
            out = collapse(eq1_state(), polarization_setting("NY", "Xdiag"), label)
            rho = reduced_state(out, "occupation", "PUE")
            np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-10)

    def test_circular_basis_differs_only_in_phases(self):
        # L outcome with |L> = (|H> - i|V>)/sqrt(2) collapses the path onto
        # (|a> + i|b>)/sqrt(2): same weights as the diagonal case, new phase.
        t = table(eq1_state(), polarization_setting("NY", "Ycirc"))
        assert t["L"].probability == pytest.approx(0.5, abs=1e-12)
        assert t["R"].probability == pytest.approx(0.5, abs=1e-12)
        cond = t["L"].conditional_state
        path = np.zeros((2, 2), dtype=complex)  # basis (PUE, NY)
        for p in ("H", "V"):
            vec = np.array([cond.amplitude(ket("PUE", p)), cond.amplitude(ket("NY", p))])
            path += np.outer(vec, vec.conj())
        expected = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
        np.testing.assert_allclose(path, expected, atol=1e-10)


class TestDetectorVisibility:
    def test_photon_at_other_site_reports_no_click(self):
        s = StateVector.from_amplitudes(DECL, {ket("PUE", "H"): 1.0})
        t = table(s, polarization_setting("NY", "ZHV"))
        assert t[NO_CLICK].probability == pytest.approx(1.0)
        assert fidelity(t[NO_CLICK].conditional_state, s) >= 1 - 1e-10
        assert t["H-click"].probability == 0.0

    def test_invisible_branches_fold_coherently(self):
        decl = BasisDecl(("u1", "u2"))
        s = StateVector.from_amplitudes(
            decl, {BasisKet.vacuum(): 0.6, BasisKet.photon("u2", "H"): 0.8}
        )
        t = table(s, polarization_setting("u1", "ZHV"))
        assert t[NO_CLICK].probability == pytest.approx(1.0)
        assert fidelity(t[NO_CLICK].conditional_state, s) >= 1 - 1e-10

    def test_occupation_click_splits_hardy_state(self):
        s = hardy_state(0.6, 0.8)
        t = table(s, occupation_setting("u1"))
        assert t["click"].probability == pytest.approx(0.32)
        assert t[NO_CLICK].probability == pytest.approx(0.68)
        # No-click branch keeps the vacuum-photon coherence.
        cond = t[NO_CLICK].conditional_state
        expect = StateVector.from_amplitudes(
            s.decl,
            {BasisKet.vacuum(): 0.6, BasisKet.photon("u2", "H"): 0.8 / np.sqrt(2)},
        )
        assert fidelity(cond, StateVector(s.decl, expect.amps / expect.norm())) >= 1 - 1e-10


class TestOamMeasurement:
    def test_pm_basis_on_tripartite_state(self):
        s = qplate_tripartite_state()
        setting = oam_setting("PUE", "pm", s.decl.oam)
        t = table(s, setting)
        assert t["+"].probability == pytest.approx(0.5, abs=1e-12)
        target_plus = StateVector.from_amplitudes(
            s.decl, {ket("PUE", "H", 2): SQ2, ket("PUE", "H", -2): SQ2}
        )
        assert fidelity(t["+"].conditional_state, target_plus) >= 1 - 1e-10
        # The minus branch sits at New York, invisible to Bob's detector.
        assert t["-"].probability == 0.0
        assert t[NO_CLICK].probability == pytest.approx(0.5, abs=1e-12)
        target_minus = StateVector.from_amplitudes(
            s.decl, {ket("NY", "V", 2): SQ2, ket("NY", "V", -2): -SQ2}
        )
        assert fidelity(t[NO_CLICK].conditional_state, target_minus) >= 1 - 1e-10


class TestOamSettingValues:
    """An OAM setting is written over sorted values, and only measures a declaration
    with the same values."""

    DECL = BasisDecl(("a",), (2, 0, -2))

    def test_unsorted_values_label_the_measured_value(self):
        s = StateVector.from_amplitudes(self.DECL, {ket("a", "H", 2): 1.0})
        setting = oam_setting("a", "number", (2, 0, -2))
        assert setting.labels == ("-2", "0", "2", NO_CLICK)
        assert setting.oam == (-2, 0, 2)
        t = table(s, setting)
        assert t["2"].probability == 1.0
        assert t["-2"].probability == t["0"].probability == 0.0

    def test_unsorted_values_in_the_pm_basis(self):
        s = StateVector.from_amplitudes(self.DECL, {ket("a", "H", 2): SQ2, ket("a", "H", -2): SQ2})
        t = table(s, oam_setting("a", "pm", (0, 2, -2)))
        assert t["+"].probability == pytest.approx(1.0, abs=1e-12)
        assert t["-"].probability == 0.0

    def test_number_vectors_are_identity_rows(self):
        setting = oam_setting("a", "number", (3, -1, 0, 7))
        vectors = np.array([vec for _, vec in setting.outcomes])
        assert vectors.dtype == complex
        assert np.array_equal(vectors, np.eye(4))

    @pytest.mark.parametrize("values", [(5, 6, 7), (-2, 0), (-2, 0, 2, 4)])
    def test_foreign_values_raise_basis_mismatch(self, values):
        s = StateVector.from_amplitudes(self.DECL, {ket("a", "H", 2): 1.0})
        setting = oam_setting("a", "number", values)
        with pytest.raises(BasisMismatch, match="OAM setting"):
            born_probabilities(s, setting)
        with pytest.raises(BasisMismatch):
            sample_outcomes(s, setting, 10, seed=1)
        with pytest.raises(BasisMismatch):
            collapse(s, setting, "5")

    def test_hand_built_oam_setting_must_name_its_values(self):
        s = StateVector.from_amplitudes(self.DECL, {ket("a", "H", 2): 1.0})
        outcomes = oam_setting("a", "number", self.DECL.oam).outcomes
        with pytest.raises(BasisMismatch, match="OAM setting"):
            born_probabilities(s, MeasurementSetting("a", "oam", outcomes))


class TestRegisterLength:
    DECL = BasisDecl(("a", "b"), (-2, 0, 2))

    def _state(self):
        return StateVector.from_amplitudes(self.DECL, {ket("a", "H", 0): 1.0})

    @pytest.mark.parametrize("n", [1, 3])
    def test_pol_vectors_of_the_wrong_length(self, n):
        vec = np.ones(n, dtype=complex) / np.sqrt(n)
        setting = MeasurementSetting("a", "pol", (("x", vec),))
        with pytest.raises(BasisMismatch, match="pol projector has dimension"):
            born_probabilities(self._state(), setting)

    @pytest.mark.parametrize("n", [2, 4])
    def test_oam_vectors_of_the_wrong_length(self, n):
        good = oam_setting("a", "number", self.DECL.oam)
        outcomes = good.outcomes[:1] + (("x", np.eye(n, dtype=complex)[0]),)
        setting = MeasurementSetting("a", "oam", outcomes, self.DECL.oam)
        with pytest.raises(BasisMismatch, match="oam projector has dimension"):
            born_probabilities(self._state(), setting)


class TestBornBlocks:
    """Blocks of outcomes give the records of one block, bit for bit, in O(dim) memory."""

    @staticmethod
    def _bits(records):
        return [(r.label, r.probability.hex(),
                 None if r.conditional_state is None else r.conditional_state.amps.tobytes())
                for r in records]

    def test_one_outcome_per_block_changes_no_bit(self, rng, monkeypatch):
        decl = BasisDecl(("a", "b", "c"), oam=(-4, -2, 0, 2, 4))
        states = [random_state(decl, rng) for _ in range(4)]
        # the q-plate state has invisible outcomes to fold into no-click across blocks
        states.append(qplate_tripartite_state())
        for s in states:
            for site in s.decl.sites:
                settings = [polarization_setting(site, "Xdiag"),
                            oam_setting(site, "number", s.decl.oam),
                            oam_setting(site, "pm", s.decl.oam)]
                whole = [self._bits(born_probabilities(s, x)) for x in settings]
                monkeypatch.setattr(measurement, "_BLOCK_ENTRIES", 1)
                split = [self._bits(born_probabilities(s, x)) for x in settings]
                monkeypatch.undo()
                assert split == whole

    def test_sampling_table_has_the_born_probabilities(self, rng):
        decl = BasisDecl(("a", "b"), oam=(-2, 0, 2))
        for s in (random_state(decl, rng), qplate_tripartite_state()):
            for setting in (polarization_setting(s.decl.sites[0], "Ycirc"),
                            oam_setting(s.decl.sites[1], "pm", s.decl.oam),
                            occupation_setting(s.decl.sites[0])):
                full = born_probabilities(s, setting)
                bare = measurement._born(s, setting, with_states=False)
                assert [(r.label, r.probability) for r in bare] == \
                    [(r.label, r.probability) for r in full]
                assert all(r.conditional_state is None for r in bare)

    def test_many_outcome_table_peak_memory(self):
        decl = BasisDecl(tuple(f"s{i}" for i in range(8)), oam=tuple(range(-256, 256)))
        s = StateVector.from_amplitudes(decl, {ket("s3", "V", 7): 1.0})
        setting = oam_setting("s3", "number", decl.oam)
        tracemalloc.start()
        try:
            records = born_probabilities(s, setting)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 8193-ket state is 131 KB; a 512 x 8193 block would be 67 MB
        assert peak < 3 * 2**20
        assert [r.label for r in records if r.probability > 0] == ["7"]
        assert table(s, setting)["7"].conditional_state.amps.tobytes() == s.amps.tobytes()


class TestCompleteness:
    @pytest.mark.parametrize("maker", [
        lambda site: polarization_setting(site, "ZHV"),
        lambda site: polarization_setting(site, "Xdiag"),
        lambda site: polarization_setting(site, "Ycirc"),
        lambda site: occupation_setting(site),
    ], ids=["ZHV", "Xdiag", "Ycirc", "occupation"])
    def test_probabilities_sum_to_one(self, maker, rng):
        decl = BasisDecl(("a", "b"), oam=(-2, 0, 2))
        for _ in range(20):
            s = random_state(decl, rng)
            records = born_probabilities(s, maker("a"))
            assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-10)

    def test_repeatability(self, rng):
        decl = BasisDecl(("a", "b"))
        for _ in range(20):
            s = random_state(decl, rng)
            setting = polarization_setting("a", "Xdiag")
            for record in born_probabilities(s, setting):
                if record.probability < 1e-9:
                    continue
                once = collapse(s, setting, record.label)
                t = table(once, setting)
                assert t[record.label].probability == pytest.approx(1.0, abs=1e-10)
                again = collapse(once, setting, record.label)
                assert fidelity(once, again) >= 1 - 1e-10


class TestNoSignaling:
    @pytest.mark.parametrize("basis", ["ZHV", "Xdiag", "Ycirc"])
    def test_bob_marginal_equals_outcome_mixture(self, basis, rng):
        decl = BasisDecl(("a", "b"))
        for _ in range(15):
            s = random_state(decl, rng)
            before = reduced_state(s, "occupation", "b").matrix
            mixture = np.zeros((2, 2), dtype=complex)
            for record in born_probabilities(s, polarization_setting("a", basis)):
                if record.probability < 1e-14:
                    continue
                mixture += record.probability * reduced_state(
                    record.conditional_state, "occupation", "b"
                ).matrix
            np.testing.assert_allclose(mixture, before, atol=1e-10)


class TestSampling:
    def test_frequencies_match_born_rule(self):
        labels = sample_outcomes(eq1_state(), polarization_setting("NY", "ZHV"), 100_000, seed=7)
        freq = labels.count("V-click") / len(labels)
        assert abs(freq - 0.5) < 0.01  # three sigma for n = 1e5

    def test_fixed_seed_reproduces_sequence(self):
        setting = polarization_setting("NY", "ZHV")
        first = sample_outcomes(eq1_state(), setting, 500, seed=42)
        second = sample_outcomes(eq1_state(), setting, 500, seed=42)
        assert first == second

    def test_deterministic_state_always_clicks(self):
        s = StateVector.from_amplitudes(DECL, {ket("NY", "V"): 1.0})
        labels = sample_outcomes(s, polarization_setting("NY", "ZHV"), 200, seed=3)
        assert set(labels) == {"V-click"}

    @pytest.mark.parametrize("n", [-1, MAX_SHOTS + 1])
    def test_shot_count_out_of_range_raises_before_drawing(self, monkeypatch, n):
        class NoDraws:
            def random(self, size=None):
                raise AssertionError("shots were drawn")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        with pytest.raises(OutOfRange, match=f"0 to {MAX_SHOTS}") as err:
            sample_outcomes(eq1_state(), polarization_setting("NY", "ZHV"), n, seed=1)
        assert "\n" not in str(err.value)

    def test_zero_shots(self):
        assert sample_outcomes(eq1_state(), polarization_setting("NY", "ZHV"), 0, seed=1) == []

    def test_single_sample_api(self):
        record = sample_outcome(eq1_state(), polarization_setting("NY", "ZHV"), seed=5)
        assert record.label in ("V-click", NO_CLICK)
        assert record.probability == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2026])
    def test_labels_equal_the_per_draw_loop(self, seed):
        decl = BasisDecl(("a", "b", "c"), (-2, 0, 2))
        state = random_state(decl, np.random.default_rng(seed))
        for setting in (polarization_setting("a", "Xdiag"), oam_setting("b", "number", decl.oam),
                        occupation_setting("c")):
            records = born_probabilities(state, setting)
            draws = np.random.default_rng(seed).random(3000)
            assert sample_outcomes(state, setting, 3000, seed) == [
                _sample(records, u).label for u in draws]

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2026])
    def test_single_sample_equals_the_loop(self, seed):
        decl = BasisDecl(("a", "b", "c"), (-2, 0, 2))
        state = random_state(decl, np.random.default_rng(seed))
        for setting in (polarization_setting("a", "Xdiag"), oam_setting("b", "number", decl.oam),
                        occupation_setting("c")):
            records = born_probabilities(state, setting)
            for draw_seed in range(20):
                want = _sample(records, np.random.default_rng(draw_seed).random())
                got = sample_outcome(state, setting, draw_seed)
                assert (got.label, got.probability) == (want.label, want.probability)
                got_amps, want_amps = (r.conditional_state and r.conditional_state.amps.tobytes()
                                       for r in (got, want))
                assert got_amps == want_amps

    def test_draws_on_a_sum_and_in_the_rounding_gap(self, monkeypatch):
        records = [OutcomeRecord("a", 0.1, None), OutcomeRecord("b", 0.2, None),
                   OutcomeRecord("c", 0.7 - 1e-9, None)]
        sums = np.cumsum([0.1, 0.2, 0.7 - 1e-9])
        draws = np.array([0.0, 0.05, sums[0], np.nextafter(sums[1], 0), sums[1], 0.5,
                          sums[2], 1 - 2**-53])

        class FixedDraws:
            def random(self, size=None):
                assert size == draws.size
                return draws

        monkeypatch.setattr(measurement, "_born", lambda state, setting, with_states: records)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedDraws())
        labels = sample_outcomes(None, None, draws.size, seed=0)
        assert labels == [_sample(records, u).label for u in draws]
        assert labels == ["a", "a", "b", "b", "c", "c", "c", "c"]

    def test_chi_square_at_99_percent(self):
        labels = sample_outcomes(eq1_state(), polarization_setting("NY", "ZHV"), 100_000, seed=11)
        counts = {"V-click": labels.count("V-click"), NO_CLICK: labels.count(NO_CLICK)}
        assert sum(counts.values()) == 100_000
        chi2 = sum((n - 50_000.0) ** 2 / 50_000.0 for n in counts.values())
        assert chi2 < 6.635  # chi-square 99th percentile, one degree of freedom


class TestReducedState:
    def test_entangled_state_bob_marginal(self):
        rho = reduced_state(eq1_state(), "occupation", "PUE")
        np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_after_v_click_bob_holds_empty_box(self):
        out = collapse(eq1_state(), polarization_setting("NY", "ZHV"), "V-click")
        rho = reduced_state(out, "occupation", "PUE")
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)
