"""Shared helpers: seeded random states and independent oracles.

The state oracles address amplitudes one ``BasisKet`` at a time, so they check
the package's (site, pol, oam) tensor code without relying on its layout. The
CHSH oracles are the brute-force grid scan and the closed-form optimum.
``lhs_program`` captures the factored LHS program the solver is handed.
"""

import numpy as np
import pytest

from photonsteer import steering
from photonsteer.core import POLS, BasisDecl, BasisKet, StateVector
from photonsteer.errors import OamOverflow
from photonsteer.measurement import NO_CLICK, PROB_FLOOR
from photonsteer.simplex import solve_feasibility
from photonsteer.steering import (
    ALICE_OBSERVABLES,
    BOB_OBSERVABLES,
    _correlation_matrix,
    chsh_value,
    lhs_feasibility,
)

SQ2 = np.sqrt(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_state(decl: BasisDecl, rng, photon_only: bool = False) -> StateVector:
    """Haar-ish normalized state over the declared basis."""
    amps = rng.normal(size=decl.dim) + 1j * rng.normal(size=decl.dim)
    if photon_only:
        amps[0] = 0.0
    amps /= np.linalg.norm(amps)
    return StateVector(decl, amps)


def occupation_oracle(state: StateVector, site: str) -> np.ndarray:
    """Photon-number readout at one site by direct |amplitude|^2 summation."""
    out = np.zeros((2, 2), dtype=complex)
    for ket, amp in state.items():
        n = 0 if ket.is_vacuum or ket.site != site else 1
        out[n, n] += abs(amp) ** 2
    return out


def register_oracle(state: StateVector, register: str) -> np.ndarray:
    """Polarization/OAM reduction by explicit double loop with delta conditions."""
    if register == "pol":
        axis = ("H", "V")
        value = lambda k: k.pol
    else:
        axis = state.decl.oam
        value = lambda k: k.oam
    out = np.zeros((len(axis), len(axis)), dtype=complex)
    items = [(k, a) for k, a in state.items() if not k.is_vacuum]
    for k1, a1 in items:
        for k2, a2 in items:
            same_rest = (
                k1.site == k2.site
                and (register == "pol" or k1.pol == k2.pol)
                and (register == "oam" or k1.oam == k2.oam)
            )
            if same_rest:
                out[axis.index(value(k1)), axis.index(value(k2))] += a1 * np.conj(a2)
    return out


def linear_oracle(state: StateVector, image) -> np.ndarray:
    """Apply a linear map given on basis kets: ``image(ket) -> {ket: coefficient}``."""
    decl = state.decl
    out = np.zeros(decl.dim, dtype=complex)
    for ket, amp in state.items():
        for target, coefficient in image(ket).items():
            out[decl.index[target]] += coefficient * amp
    return out


def local_unitary_oracle(state, u, register, site=None) -> np.ndarray:
    """``u`` on the pol or OAM value of every photon ket at ``site`` (all sites if None)."""
    oam = state.decl.oam

    def image(k):
        if k.is_vacuum or (site is not None and k.site != site):
            return {k: 1.0}
        if register == "pol":
            j = POLS.index(k.pol)
            return {BasisKet.photon(k.site, p, k.oam): u[i, j] for i, p in enumerate(POLS)}
        j = oam.index(k.oam)
        return {BasisKet.photon(k.site, k.pol, m): u[i, j] for i, m in enumerate(oam)}

    return linear_oracle(state, image)


def pbs_oracle(state, input, out_h, out_v) -> np.ndarray:
    """H at ``input`` moves to ``out_h`` and V to ``out_v``, ket by ket."""
    def image(k):
        if k.is_vacuum or k.site != input:
            return {k: 1.0}
        out = out_h if k.pol == "H" else out_v
        return {BasisKet.photon(out, k.pol, k.oam): 1.0}

    return linear_oracle(state, image)


def beamsplitter_oracle(state, site1, site2) -> np.ndarray:
    """|s1> -> (|s1> + i|s2>)/sqrt(2) and |s2> -> (i|s1> + |s2>)/sqrt(2), ket by ket."""
    def image(k):
        if k.is_vacuum or k.site not in (site1, site2):
            return {k: 1.0}
        partner = site2 if k.site == site1 else site1
        return {k: 1.0 / SQ2, BasisKet.photon(partner, k.pol, k.oam): 1j / SQ2}

    return linear_oracle(state, image)


def phase_oracle(state, site, phi_deg) -> np.ndarray:
    factor = np.exp(1j * np.deg2rad(phi_deg))
    return linear_oracle(state, lambda k: {k: factor if k.site == site else 1.0})


def qplate_oracle(state, site, q) -> np.ndarray:
    """|L,m> -> |R,m+2q> and |R,m> -> |L,m-2q> at ``site``, one OAM value at a time.

    Circular amplitudes above 1e-12 whose target value is undeclared raise
    ``OamOverflow``; smaller ones are dropped.
    """
    decl = state.decl
    out = np.array(state.amps)
    for m in decl.oam:
        for p in POLS:
            out[decl.index[BasisKet.photon(site, p, m)]] = 0.0
    for m in decl.oam:
        h = state.amplitude(BasisKet.photon(site, "H", m))
        v = state.amplitude(BasisKet.photon(site, "V", m))
        # <L|psi>, the target value and the (H, V) components of the target
        # circular ket: L -> R = (H + iV)/sqrt(2), R -> L = (H - iV)/sqrt(2).
        for amp, target, (ch, cv) in (
            ((h + 1j * v) / SQ2, m + 2 * q, (1.0, 1j)),
            ((h - 1j * v) / SQ2, m - 2 * q, (1.0, -1j)),
        ):
            if abs(amp) <= 1e-12:
                continue
            if target not in decl.oam:
                raise OamOverflow(f"oam {m} shifts to undeclared {target}")
            out[decl.index[BasisKet.photon(site, "H", target)]] += amp * ch / SQ2
            out[decl.index[BasisKet.photon(site, "V", target)]] += amp * cv / SQ2
    return out


def born_oracle(state: StateVector, setting) -> list:
    """(label, probability, conditional amplitudes or None) by per-ket sums.

    Register outcomes whose projected state carries no weight at the detector
    site are folded coherently into the no-click branch with the vacuum.
    """
    decl = state.decl
    amp = dict(zip(decl.kets, state.amps))

    def at(f):
        return np.array([f(k) for k in decl.kets], dtype=complex)

    def record(label, amps, visible=True):
        p = float(np.sum(np.abs(amps) ** 2))
        if p < PROB_FLOOR or not visible:
            return (label, 0.0, None)
        return (label, p, amps / np.sqrt(p))

    if setting.register == "occupation":
        click = at(lambda k: amp[k] if k.site == setting.site else 0.0)
        other = at(lambda k: amp[k] if k.site != setting.site else 0.0)
        return [record("click", click), record(NO_CLICK, other)]

    if setting.register == "pol":
        axis, value = POLS, (lambda k: k.pol)
        moved = lambda k, x: BasisKet.photon(k.site, x, k.oam)
    else:
        axis, value = decl.oam, (lambda k: k.oam)
        moved = lambda k, x: BasisKet.photon(k.site, k.pol, x)
    dark = at(lambda k: amp[k] if k.is_vacuum else 0.0)
    records = []
    for label, vec in setting.outcomes:
        proj = at(lambda k: 0.0 if k.is_vacuum else vec[axis.index(value(k))] * sum(
            np.conj(vec[j]) * amp[moved(k, x)] for j, x in enumerate(axis)
        ))
        p = float(np.sum(np.abs(proj) ** 2))
        site_mass = sum(abs(a) ** 2 for k, a in zip(decl.kets, proj) if k.site == setting.site)
        visible = p < PROB_FLOOR or site_mass >= PROB_FLOOR * p
        if not visible:
            dark = dark + proj
        records.append(record(label, proj, visible))
    return records + [record(NO_CLICK, dark)]


def pol_path_oracle(state: StateVector, alice_site: str, bob_site: str) -> np.ndarray:
    """(pol x Bob occupation) matrix summed over OAM one amplitude pair at a time."""
    site_of = {0: alice_site, 1: bob_site}
    rho = np.zeros((4, 4), dtype=complex)
    for p1, pol1 in enumerate(POLS):
        for n1 in (0, 1):
            for p2, pol2 in enumerate(POLS):
                for n2 in (0, 1):
                    for m in state.decl.oam:
                        a1 = state.amplitude(BasisKet.photon(site_of[n1], pol1, m))
                        a2 = state.amplitude(BasisKet.photon(site_of[n2], pol2, m))
                        rho[2 * p1 + n1, 2 * p2 + n2] += a1 * np.conj(a2)
    return rho


def brute_chsh_grid(rho, grid_step_deg):
    """CHSH grid optimum by scanning every a0 and a1 for every Bob pair (k³ work).

    Per pair (b0, b1) the a0 term E(a0,b0) - E(a0,b1) and the a1 term
    E(a1,b0) + E(a1,b1) are maximized over all k angles (first index among
    ties), then the pair with the highest sum wins (first flat index among
    ties). One b0 row at a time, so memory stays k². ``rho`` is a two-qubit frame.
    """
    T = _correlation_matrix(np.asarray(rho.matrix))
    angles = np.arange(0.0, 360.0, grid_step_deg)
    radians = np.deg2rad(angles)
    u = np.stack([np.cos(radians), np.sin(radians)])
    E = u.T @ T @ u  # E[i, j] = E(angle_i, angle_j)
    k = len(angles)
    best0, best1 = np.empty((k, k)), np.empty((k, k))
    best0_idx, best1_idx = np.empty((k, k), dtype=int), np.empty((k, k), dtype=int)
    for b0 in range(k):
        d0 = E[:, b0, None] - E  # [a0, b1]
        d1 = E[:, b0, None] + E  # [a1, b1]
        best0[b0], best0_idx[b0] = d0.max(axis=0), d0.argmax(axis=0)
        best1[b0], best1_idx[b0] = d1.max(axis=0), d1.argmax(axis=0)
    i_b0, i_b1 = np.unravel_index(int(np.argmax(best0 + best1)), (k, k))
    return chsh_value(rho, float(angles[best0_idx[i_b0, i_b1]]),
                      float(angles[best1_idx[i_b0, i_b1]]), float(angles[i_b0]),
                      float(angles[i_b1]))


def horodecki_chsh_bound(rho2q: np.ndarray) -> float:
    """Closed-form CHSH optimum over the Z-X plane: 2 sqrt(s1² + s2²), s the singular
    values of T[i, j] = <A_i ⊗ B_j> for i, j in (Z, X) (Horodecki, Horodecki and
    Horodecki, Phys. Lett. A 200, 340 (1995))."""
    T = np.array([[np.trace(rho2q @ np.kron(ALICE_OBSERVABLES[i], BOB_OBSERVABLES[j])).real
                   for j in ("Z", "X")] for i in ("Z", "X")])
    return float(2.0 * np.linalg.norm(np.linalg.svd(T, compute_uv=False)))


def lhs_program(asm, grid_n: int):
    """The factored program (solved, comps, b) that ``lhs_feasibility`` hands the solver."""
    seen = {}

    def capture(solved, comps, b):
        seen["program"] = (solved, comps, b)
        return solve_feasibility(solved, comps, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steering, "solve_feasibility", capture)
        lhs_feasibility(asm, grid_n)
    return seen["program"]


def dense_matrix(solved, comps) -> np.ndarray:
    """A[(r, c), (s, g)] = solved[r, s] · comps[g, c], rows r-major, columns s-major."""
    return np.einsum("rs,gc->rcsg", solved, comps).reshape(
        solved.shape[0] * comps.shape[1], -1)
