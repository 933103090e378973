"""Executable presets for each prepared state, plus machine-checkable reports.

Site naming: the photon travels toward Puebla ("PUE", Bob) on the path that
keeps horizontal polarization and toward New York ("NY", Alice) on the
vertical one, so the entangled preset reads (|PUE,H> + |NY,V>)/sqrt(2).
"""

from __future__ import annotations

import numpy as np

from . import measurement, steering
from .circuit import parse_circuit, run_circuit
from .core import BasisDecl, BasisKet, DensityOperator, StateVector
from .errors import BadParameters
from .steering import BOB_SITE

ALICE_SITE = "NY"

# Preparation chain of the main experiment: heralded H photon, half-wave
# plate to 45 degrees, polarizing beam splitter fanning out to the two cities.
FIG1_CIRCUIT = """\
sites in NY PUE
source in H
hwp in 22.5
pbs in -> PUE NY
"""

# Same chain with the wave plate swapped for a q-plate.
QPLATE_CIRCUIT = """\
sites in NY PUE
oam -2 0 2
source in H
qplate in q=1
pbs in -> PUE NY
"""

PRESET_NAMES = ("eq1", "twc", "hardy", "qplate_tripartite", "noisy")


def eq1_state() -> StateVector:
    """(|PUE,H> + |NY,V>)/sqrt(2): internal-external entangled benchmark."""
    decl = BasisDecl((ALICE_SITE, BOB_SITE))
    s = 1.0 / np.sqrt(2.0)
    return StateVector.from_amplitudes(
        decl,
        {BasisKet.photon(BOB_SITE, "H"): s, BasisKet.photon(ALICE_SITE, "V"): s},
    )


def twc_state() -> StateVector:
    """One photon split over two paths, (|b1> + i|b2>)/sqrt(2), polarization H."""
    decl = BasisDecl(("b1", "b2"))
    s = 1.0 / np.sqrt(2.0)
    return StateVector.from_amplitudes(
        decl,
        {BasisKet.photon("b1", "H"): s, BasisKet.photon("b2", "H"): 1j * s},
    )


def hardy_state(q: float = 1.0 / np.sqrt(2.0), r: float = 1.0 / np.sqrt(2.0)) -> StateVector:
    """q|vac> + (i r/sqrt(2))|u1> + (r/sqrt(2))|u2> with q^2 + r^2 = 1."""
    if not abs(q * q + r * r - 1.0) <= 1e-10:  # also rejects a nan or infinite q or r
        raise BadParameters(f"need q^2 + r^2 = 1, got {q * q + r * r}")
    decl = BasisDecl(("u1", "u2"))
    s = r / np.sqrt(2.0)
    return StateVector.from_amplitudes(
        decl,
        {
            BasisKet.vacuum(): q,
            BasisKet.photon("u1", "H"): 1j * s,
            BasisKet.photon("u2", "H"): s,
        },
    )


def qplate_tripartite_state() -> StateVector:
    """(1/2)[|PUE,H>(|+2>+|-2>) + i|NY,V>(|+2>-|-2>)]: three entangled registers."""
    decl = BasisDecl((ALICE_SITE, BOB_SITE), oam=(-2, 0, 2))
    return StateVector.from_amplitudes(
        decl,
        {
            BasisKet.photon(BOB_SITE, "H", 2): 0.5,
            BasisKet.photon(BOB_SITE, "H", -2): 0.5,
            BasisKet.photon(ALICE_SITE, "V", 2): 0.5j,
            BasisKet.photon(ALICE_SITE, "V", -2): -0.5j,
        },
    )


def noisy_state(v: float) -> DensityOperator:
    """Visibility-v mixture of the benchmark two-qubit projector with white noise.

    Lives directly in the steering frame (polarization ⊗ Bob occupation);
    v = 1 reproduces the entangled preset, v = 0 is maximally mixed.
    """
    if not 0.0 <= v <= 1.0:
        raise BadParameters(f"visibility must be in [0, 1], got {v}")
    psi = np.zeros(4, dtype=complex)
    psi[0b01] = 1.0 / np.sqrt(2.0)  # |H> ⊗ occupied
    psi[0b10] = 1.0 / np.sqrt(2.0)  # |V> ⊗ empty
    rho = v * np.outer(psi, psi.conj()) + (1.0 - v) * np.eye(4) / 4.0
    return DensityOperator(steering.QUBIT_PAIR_LABELS, rho)


def preset(spec: str) -> StateVector | DensityOperator:
    """Resolve a preset id like ``eq1``, ``noisy:0.4`` or ``hardy:0.6,0.8``."""
    name, colon, args = spec.partition(":")
    fixed = {"eq1": eq1_state, "twc": twc_state, "qplate_tripartite": qplate_tripartite_state}
    if name in fixed:
        if colon:
            raise BadParameters(f"preset {name!r} takes no parameters, got {spec!r}")
        return fixed[name]()
    try:
        if name == "hardy":
            if not args:
                return hardy_state()
            parts = [float(x) for x in args.split(",")]
            if len(parts) != 2:
                raise BadParameters(f"hardy takes q,r, got {args!r}")
            return hardy_state(*parts)
        if name == "noisy":
            if not args:
                raise BadParameters("noisy needs a visibility, e.g. noisy:0.4")
            return noisy_state(float(args))
    except ValueError as exc:
        raise BadParameters(f"bad preset parameters {spec!r}: {exc}") from exc
    raise BadParameters(f"unknown preset {name!r} (have {PRESET_NAMES})")


def complex_pairs(matrix: np.ndarray) -> list:
    """A complex matrix as nested [re, im] pairs for JSON output."""
    return [[[z.real, z.imag] for z in row] for row in np.asarray(matrix, dtype=complex).tolist()]


def member_key(setting: str, outcome: int) -> str:
    """JSON key of the assemblage member for a setting and a ±1 outcome, like ``Z+``."""
    return f"{setting}{'+' if outcome > 0 else '-'}"


def chsh_json(chsh: steering.ChshResult) -> dict:
    """JSON form of a CHSH result: value, angles in degrees, the four correlators."""
    return {"value": chsh.value, "angles_deg": list(chsh.angles),
            "correlators": list(chsh.correlators)}


def scenario_report(preset_spec: str, site: str | None = None, basis: str | None = None) -> dict:
    """Render one measurement narrative as comparable data.

    The ``detector`` section is the Born table of the analyzer at ``site``, by
    default the frame's Alice (photon-space presets only; ``noisy:v`` takes no
    ``site`` or ``basis``): click labels, conditional states, and the photon-number
    readout of Bob's site for each branch. The ``assemblage`` section gives the
    conditional Bob-qubit states for Alice settings Z and X together with the
    CJWR and CHSH values of the preset's two-qubit frame.
    """
    prepared = preset(preset_spec)
    report: dict = {"preset": preset_spec}
    bob_site = None

    if isinstance(prepared, StateVector):
        alice_site, bob_site = steering.frame_sites(prepared)
        site = alice_site if site is None else site
        basis = "ZHV" if basis is None else basis
        if basis in ("ZHV", "Xdiag", "Ycirc"):
            setting = measurement.polarization_setting(site, basis)
        elif basis == "OAMpm":
            try:
                setting = measurement.oam_setting(site, "pm", prepared.decl.oam)
            except ValueError as exc:
                raise BadParameters(f"basis OAMpm on preset {preset_spec!r}: {exc}") from exc
        elif basis == "occupation":
            setting = measurement.occupation_setting(site)
        else:
            raise BadParameters(f"unknown basis {basis!r}")

        outcomes = []
        for record in measurement.born_probabilities(prepared, setting):
            entry: dict = {"label": record.label, "probability": record.probability}
            if record.conditional_state is not None:
                entry["conditional_amplitudes"] = [
                    [ket.label(), [float(a.real), float(a.imag)]]
                    for ket, a in record.conditional_state.items(tol=1e-12)
                ]
                entry["bob_occupation_reduced"] = complex_pairs(
                    measurement.reduced_state(record.conditional_state, "occupation", bob_site).matrix
                )
            outcomes.append(entry)
        report["detector"] = {
            "site": site,
            "basis": basis,
            "outcomes": outcomes,
            "bob_occupation_premeasurement": complex_pairs(
                measurement.reduced_state(prepared, "occupation", bob_site).matrix
            ),
        }
    elif site is not None or basis is not None:
        raise BadParameters(f"preset {preset_spec!r} is two-qubit: it takes no site or basis")

    rho, frame = steering.two_qubit_frame(prepared, bob_site)
    assemblage = steering.compute_assemblage(rho, ("Z", "X"))
    members = {}
    for key, member in assemblage.members.items():
        p = float(np.real(np.trace(member)))
        entry = {"probability": p, "member": complex_pairs(member)}
        if p > 1e-12:
            entry["bob_conditional"] = complex_pairs(member / p)
        members[member_key(*key)] = entry
    report["assemblage"] = {
        "frame": frame,
        "settings": list(assemblage.settings),
        "members": members,
        "no_signaling_residual": assemblage.no_signaling_residual(),
        "cjwr_zx": steering.cjwr_value(rho, ("Z", "X")),
        "chsh_standard_angles": chsh_json(steering.chsh_value(rho, *steering.STANDARD_CHSH_ANGLES)),
    }
    return report


def fig1_state() -> StateVector:
    """Run the preparation-chain circuit (independent route to the benchmark)."""
    return run_circuit(parse_circuit(FIG1_CIRCUIT))
