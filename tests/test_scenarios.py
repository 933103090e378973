"""Preset construction and scenario-report content."""

import json

import numpy as np
import pytest

from photonsteer import measurement
from photonsteer.core import BasisDecl, BasisKet, StateVector, fidelity
from photonsteer.errors import BadParameters, NonQubitBobMarginal, UnknownSite
from photonsteer.scenarios import (
    eq1_state,
    fig1_state,
    hardy_state,
    noisy_state,
    preset,
    qplate_tripartite_state,
    scenario_report,
    twc_state,
)
from photonsteer.steering import cjwr_value, frame_sites, path_amplitudes, two_qubit_frame

SQ2 = 1.0 / np.sqrt(2.0)


class TestPresets:
    def test_eq1_matches_preparation_circuit(self):
        target = eq1_state()
        out = fig1_state().with_declaration(target.decl)
        assert fidelity(out, target) >= 1 - 1e-10

    def test_twc_amplitudes(self):
        s = twc_state()
        assert s.amplitude(BasisKet.photon("b1", "H")) == pytest.approx(SQ2)
        assert s.amplitude(BasisKet.photon("b2", "H")) == pytest.approx(1j * SQ2)

    def test_hardy_amplitudes(self):
        s = hardy_state(0.6, 0.8)
        assert s.amplitude(BasisKet.vacuum()) == pytest.approx(0.6)
        assert s.amplitude(BasisKet.photon("u1", "H")) == pytest.approx(0.565685j, abs=1e-6)
        assert s.amplitude(BasisKet.photon("u2", "H")) == pytest.approx(0.565685, abs=1e-6)
        assert s.norm() == pytest.approx(1.0, abs=1e-10)

    def test_hardy_requires_normalized_parameters(self):
        with pytest.raises(BadParameters):
            hardy_state(0.9, 0.9)

    @pytest.mark.parametrize("q, r", [(np.nan, np.nan), (np.nan, 1.0), (0.6, np.inf),
                                      (-np.inf, 0.0)])
    def test_hardy_rejects_non_finite_parameters(self, q, r):
        with pytest.raises(BadParameters):
            hardy_state(q, r)

    def test_tripartite_coefficients(self):
        s = qplate_tripartite_state()
        mags = [abs(a) for _, a in s.items()]
        np.testing.assert_allclose(mags, [0.5] * 4, atol=1e-12)
        # Relative phase i on the New York branch.
        ratio = s.amplitude(BasisKet.photon("NY", "V", 2)) / s.amplitude(
            BasisKet.photon("PUE", "H", 2)
        )
        assert ratio == pytest.approx(1j)

    def test_every_preset_normalized(self):
        for s in (eq1_state(), twc_state(), hardy_state(), qplate_tripartite_state()):
            assert s.norm() == pytest.approx(1.0, abs=1e-10)
        for v in (0.0, 0.3, 1.0):
            rho = noisy_state(v)
            assert rho.trace_value == pytest.approx(1.0, abs=1e-10)

    def test_noisy_range_checked(self):
        with pytest.raises(BadParameters):
            noisy_state(1.5)

    def test_preset_string_dispatch(self):
        assert preset("eq1").decl.sites == ("NY", "PUE")
        assert preset("noisy:0.4").trace_value == pytest.approx(1.0)
        assert preset("hardy:0.6,0.8").amplitude(BasisKet.vacuum()) == pytest.approx(0.6)
        with pytest.raises(BadParameters):
            preset("bellpair")
        with pytest.raises(BadParameters):
            preset("noisy:oops")
        assert preset("hardy").decl.sites == preset("hardy:").decl.sites
        for spec in ("eq1:junk", "eq1:", "twc:1,2", "qplate_tripartite:x"):
            with pytest.raises(BadParameters, match="takes no parameters"):
                preset(spec)


class TestScenarioReport:
    def test_eq1_zhv_reproduces_first_scenario_list(self):
        report = scenario_report("eq1", site="NY", basis="ZHV")
        outcomes = {o["label"]: o for o in report["detector"]["outcomes"]}
        assert outcomes["V-click"]["probability"] == pytest.approx(0.5, abs=1e-12)
        assert outcomes["no-click"]["probability"] == pytest.approx(0.5, abs=1e-12)
        assert outcomes["H-click"]["probability"] == 0.0
        v_reduced = np.array(outcomes["V-click"]["bob_occupation_reduced"])
        np.testing.assert_allclose(v_reduced[:, :, 0], np.diag([1.0, 0.0]), atol=1e-10)
        nc_reduced = np.array(outcomes["no-click"]["bob_occupation_reduced"])
        np.testing.assert_allclose(nc_reduced[:, :, 0], np.diag([0.0, 1.0]), atol=1e-10)

    def test_eq1_xdiag_reproduces_second_scenario_list(self):
        report = scenario_report("eq1", site="NY", basis="Xdiag")
        outcomes = {o["label"]: o for o in report["detector"]["outcomes"]}
        for label in ("+", "-"):
            assert outcomes[label]["probability"] == pytest.approx(0.5, abs=1e-12)
            reduced = np.array(outcomes[label]["bob_occupation_reduced"])
            np.testing.assert_allclose(reduced[:, :, 0], np.diag([0.5, 0.5]), atol=1e-10)

    def test_eq1_carries_violation_summary(self):
        report = scenario_report("eq1")
        assert report["assemblage"]["cjwr_zx"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert report["assemblage"]["chsh_standard_angles"]["value"] == pytest.approx(
            2.0 * np.sqrt(2.0), abs=1e-9
        )

    def test_tripartite_oam_measurement(self):
        report = scenario_report("qplate_tripartite", site="PUE", basis="OAMpm")
        outcomes = {o["label"]: o for o in report["detector"]["outcomes"]}
        assert outcomes["+"]["probability"] == pytest.approx(0.5, abs=1e-12)
        assert outcomes["no-click"]["probability"] == pytest.approx(0.5, abs=1e-12)
        plus_kets = {k for k, _ in outcomes["+"]["conditional_amplitudes"]}
        assert plus_kets == {"PUE:H:2", "PUE:H:-2"}
        dark_kets = {k for k, _ in outcomes["no-click"]["conditional_amplitudes"]}
        assert dark_kets == {"NY:V:2", "NY:V:-2"}

    def test_full_visibility_matches_entangled_preset(self):
        a = scenario_report("eq1")["assemblage"]
        b = scenario_report("noisy:1.0")["assemblage"]
        for key in a["members"]:
            np.testing.assert_allclose(
                np.array(a["members"][key]["member"]),
                np.array(b["members"][key]["member"]),
                atol=1e-10,
            )
        assert b["cjwr_zx"] == pytest.approx(a["cjwr_zx"], abs=1e-10)

    def test_zero_visibility_constant_across_settings(self):
        members = scenario_report("noisy:0.0")["assemblage"]["members"]
        reference = np.array(members["Z+"]["member"])
        for key, entry in members.items():
            np.testing.assert_allclose(np.array(entry["member"]), reference, atol=1e-10)

    def test_reports_are_json_serializable(self):
        for spec in ("eq1", "twc", "hardy", "qplate_tripartite", "noisy:0.5"):
            json.dumps(scenario_report(spec))


def diagonal_split_state() -> StateVector:
    """A D-polarized photon split over two paths: (|a,D> + i|b,D>)/sqrt(2)."""
    decl = BasisDecl(("a", "b"))
    return StateVector.from_amplitudes(decl, {
        BasisKet.photon("a", "H"): 0.5, BasisKet.photon("a", "V"): 0.5,
        BasisKet.photon("b", "H"): 0.5j, BasisKet.photon("b", "V"): 0.5j,
    })


class TestSteeringFrame:
    def test_path_amplitudes_of_a_path_only_state(self):
        np.testing.assert_allclose(path_amplitudes(twc_state()), [SQ2, 1j * SQ2], atol=1e-12)
        occ = path_amplitudes(diagonal_split_state())
        np.testing.assert_allclose(np.abs(occ), [SQ2, SQ2], atol=1e-12)
        assert occ[1] / occ[0] == pytest.approx(1j, abs=1e-12)

    def test_pol_path_entangled_states_are_not_path_only(self):
        assert path_amplitudes(eq1_state()) is None
        assert path_amplitudes(qplate_tripartite_state()) is None

    def test_labels_and_bob_default(self):
        assert two_qubit_frame(eq1_state())[1] == "pol-path(bob=PUE)"
        assert two_qubit_frame(eq1_state(), "NY")[1] == "pol-path(bob=NY)"
        assert two_qubit_frame(hardy_state())[1] == "occ-occ(u1,u2)"
        assert two_qubit_frame(noisy_state(0.5))[1] == "two-qubit"

    def test_library_calls_on_a_state_vector_use_the_same_frame(self):
        for state, bob in ((twc_state(), "b2"), (twc_state(), "b1"), (eq1_state(), "PUE")):
            rho, _ = two_qubit_frame(state, bob)
            assert cjwr_value(two_qubit_frame(state, bob)[0], ("Z", "X")) == pytest.approx(
                cjwr_value(rho, ("Z", "X")), abs=1e-12)
        twc_frame = two_qubit_frame(twc_state(), "b2")[0]
        assert cjwr_value(twc_frame, ("Z", "X")) == pytest.approx(SQ2, abs=1e-12)


def readme_frame(sites, occupied, vacuum, path_only, bob):
    """The frame rule as the README states it: (alice, bob, label), or the error type.

    Bob is the named site, else PUE if declared (or nothing is), else the
    later-declared of the two sites the photon occupies if it occupies exactly
    two, else the last declared site. Alice is the one occupied site other than
    Bob's, else the first other declared site; a photon on two sites besides
    Bob's is an error. A state with vacuum weight or a path-only one reads as
    occ-occ, which needs it path-only; any other reads as pol-path.
    """
    at = [s for s in sites if s in occupied]  # declaration order
    if bob is None:
        bob = "PUE" if "PUE" in sites or not sites else (at[-1] if len(at) == 2 else sites[-1])
    if not any(s != bob for s in sites):
        return NonQubitBobMarginal  # no site left for Alice
    if bob not in sites:
        return UnknownSite
    besides = [s for s in at if s != bob]
    if len(besides) > 1:
        return NonQubitBobMarginal
    alice = besides[0] if besides else next(s for s in sites if s != bob)
    if not (vacuum or path_only):
        return alice, bob, f"pol-path(bob={bob})"
    if not path_only:
        return alice, bob, NonQubitBobMarginal  # the internal factor depends on the site
    return alice, bob, f"occ-occ({alice},{bob})"


def random_frame_case(rng):
    """A seeded one-photon state over 0-4 declared sites in random order, with its
    occupied sites, whether it has vacuum weight and whether it is path-only."""
    n_sites = int(rng.integers(0, 5))
    sites = tuple(rng.permutation(["PUE", "NY", "a", "b", "z"])[:n_sites].tolist())
    decl = BasisDecl(sites, oam=(0,) if rng.random() < 0.5 else (-2, 0, 2))
    occupied = {s for s in sites if rng.random() < 0.5}
    shared = rng.random() < 0.5 or len(occupied) < 2  # one internal state for every site
    vacuum = rng.random() < 0.4 or not occupied
    t = np.zeros(decl.shape, dtype=complex)
    internal = rng.normal(size=decl.shape[1:]) + 1j * rng.normal(size=decl.shape[1:])
    for s in occupied:
        if not shared:
            internal = rng.normal(size=decl.shape[1:]) + 1j * rng.normal(size=decl.shape[1:])
        path = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.random())
        t[decl.site_axis[s]] = path * internal / np.linalg.norm(internal)
    amps = np.concatenate([[rng.uniform(0.3, 1.0) if vacuum else 0.0], t.ravel()])
    state = StateVector(decl, amps / np.linalg.norm(amps))
    return state, occupied, vacuum, shared


class TestFrameRuleOracle:
    """``frame_sites`` and ``two_qubit_frame`` against the README rule on seeded states."""

    def test_sites_and_labels_follow_the_readme_rule(self, rng):
        outcomes = set()
        for _ in range(300):
            state, occupied, vacuum, path_only = random_frame_case(rng)
            sites = state.decl.sites
            for bob in (None, *sites, "elsewhere"):
                want = readme_frame(sites, occupied, vacuum, path_only, bob)
                if isinstance(want, type):
                    with pytest.raises(want):
                        frame_sites(state, bob)
                    with pytest.raises(want):
                        two_qubit_frame(state, bob)
                    outcomes.add(want.__name__)
                    continue
                alice, bob_site, label = want
                assert frame_sites(state, bob) == (alice, bob_site)
                if isinstance(label, type):
                    with pytest.raises(label):
                        two_qubit_frame(state, bob)
                    outcomes.add("entangled vacuum")
                else:
                    assert two_qubit_frame(state, bob)[1] == label
                    outcomes.add(label.partition("(")[0])
        assert outcomes == {"NonQubitBobMarginal", "UnknownSite", "entangled vacuum",
                            "pol-path", "occ-occ"}

    def test_two_qubit_preset_has_no_bob_site(self):
        rho = noisy_state(0.5)
        assert two_qubit_frame(rho) == (rho, "two-qubit")
        with pytest.raises(BadParameters, match="no Bob site 'PUE'"):
            two_qubit_frame(rho, "PUE")

    @pytest.mark.parametrize("spec", ["eq1", "twc", "hardy", "hardy:0.6,0.8",
                                      "qplate_tripartite"])
    def test_report_detector_defaults_to_the_frame_alice(self, spec):
        alice = frame_sites(preset(spec))[0]
        assert scenario_report(spec)["detector"]["site"] == alice
        assert scenario_report(spec) == scenario_report(spec, site=alice, basis="ZHV")

    @pytest.mark.parametrize("spec", ["eq1", "twc", "hardy", "hardy:0.6,0.8",
                                      "qplate_tripartite"])
    def test_report_reads_the_frame_bob(self, spec):
        # The sites whose occupation readout matches every bob_occupation_* entry of
        # every report of the preset: exactly the frame's Bob.
        state = preset(spec)
        bob = frame_sites(state)[1]
        matches = set(state.decl.sites)
        bases = ["ZHV", "Xdiag", "Ycirc", "occupation"] + (["OAMpm"] if 2 in state.decl.oam else [])
        for site in state.decl.sites:
            for basis in bases:
                report = scenario_report(spec, site=site, basis=basis)
                assert report["assemblage"]["frame"] == two_qubit_frame(state)[1]
                detector = report["detector"]
                readouts = [(state, detector["bob_occupation_premeasurement"])]
                setting = detector_setting(state, site, basis)
                records = measurement.born_probabilities(state, setting)
                for record, entry in zip(records, detector["outcomes"]):
                    if record.conditional_state is not None:
                        readouts.append((record.conditional_state, entry["bob_occupation_reduced"]))
                for candidate in state.decl.sites:
                    if any(not np.array_equal(complex_matrix(got), measurement.reduced_state(
                            s, "occupation", candidate).matrix) for s, got in readouts):
                        matches.discard(candidate)
        assert matches == {bob}


def complex_matrix(pairs) -> np.ndarray:
    """Inverse of ``scenarios.complex_pairs``."""
    pairs = np.array(pairs)
    return pairs[..., 0] + 1j * pairs[..., 1]


def detector_setting(state, site, basis):
    if basis == "occupation":
        return measurement.occupation_setting(site)
    if basis == "OAMpm":
        return measurement.oam_setting(site, "pm", state.decl.oam)
    return measurement.polarization_setting(site, basis)
