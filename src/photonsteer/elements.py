"""Unitary and routing actions of the optical components.

Phase conventions, fixed once so golden values stay stable:

* HWP(theta) Jones matrix [[cos 2t, sin 2t], [sin 2t, -cos 2t]] in the (H, V)
  basis, determinant -1 kept as is (no extra global i).
* QWP(theta) = R(theta) diag(1, i) R(-theta).
* 50/50 beam splitter mixes occupation amplitudes symmetrically:
  |s1> -> (|s1> + i|s2>)/sqrt(2), |s2> -> (i|s1> + |s2>)/sqrt(2).
* Circular polarization |L> = (|H> - i|V>)/sqrt(2), |R> = (|H> + i|V>)/sqrt(2);
  the q-plate maps |L, m> -> |R, m+2q> and |R, m> -> |L, m-2q>, the unique
  sign choice that sends an H photon through a q=1 plate to
  (|L,-2> + |R,+2>)/sqrt(2). A q-plate is its own inverse.

All element actions are pure functions, preserve the norm, and act as the
identity on registers they do not name.
"""

from __future__ import annotations

import numpy as np

from .core import POLS, BasisDecl, BasisKet, StateVector, apply_local_unitary
from .errors import DoubleExcitation, OamOverflow, SiteCollision, UnknownSite

_AMP_TOL = 1e-12

# (H, V) -> (L, R) change of basis: rows are <L|, <R|.
_TO_CIRC = np.array([[1.0, 1.0j], [1.0, -1.0j]], dtype=complex) / np.sqrt(2.0)


def hwp_matrix(theta_deg: float) -> np.ndarray:
    t = np.deg2rad(theta_deg)
    return np.array(
        [[np.cos(2 * t), np.sin(2 * t)], [np.sin(2 * t), -np.cos(2 * t)]], dtype=complex
    )


def qwp_matrix(theta_deg: float) -> np.ndarray:
    t = np.deg2rad(theta_deg)
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)
    return rot @ np.diag([1.0, 1.0j]).astype(complex) @ rot.T


def heralded_source(decl: BasisDecl, site: str, pol: str) -> StateVector:
    """Ideal heralded single photon |site, pol, oam=0>.

    Models the trigger postselection of a down-conversion pair source: once
    the trigger fires, exactly one photon of known polarization exists.
    """
    decl.require_site(site)
    if 0 not in decl.oam:
        raise OamOverflow(f"source emits oam=0 but declared set is {decl.oam}")
    return StateVector.from_amplitudes(decl, {BasisKet.photon(site, pol, 0): 1.0})


def apply_source(state: StateVector, site: str, pol: str) -> StateVector:
    """Fire the heralded source on a running state (must still be vacuum)."""
    if state.one_photon_mass() > _AMP_TOL:
        raise DoubleExcitation("source fired on a state that already holds a photon")
    return heralded_source(state.decl, site, pol)


def waveplate(state: StateVector, site: str, kind: str, theta_deg: float) -> StateVector:
    """Apply an HWP or QWP Jones matrix to the polarization at one site."""
    if kind == "hwp":
        u = hwp_matrix(theta_deg)
    elif kind == "qwp":
        u = qwp_matrix(theta_deg)
    else:
        raise ValueError(f"waveplate kind must be 'hwp' or 'qwp', got {kind!r}")
    return apply_local_unitary(state, u, "pol", site)


def pbs_route(state: StateVector, input: str, out_h: str, out_v: str) -> StateVector:
    """Polarizing beam splitter: H at ``input`` exits at ``out_h``, V at ``out_v``.

    No reflection phase is applied (compensable by a linear element, so the
    preparation narrative leaves it out). Vacuum passes through unchanged.
    """
    decl = state.decl
    for s in (input, out_h, out_v):
        decl.require_site(s)
    if out_h == out_v:
        raise SiteCollision("PBS outputs must be two distinct sites")

    amps = np.array(state.amps)
    t = decl.tensor(amps)
    src = t[decl.site_axis[input]]
    for p, (pol, out) in enumerate(zip(POLS, (out_h, out_v))):
        if out == input:
            continue
        dst = t[decl.site_axis[out], p]
        if np.any((np.abs(dst) > _AMP_TOL) & (np.abs(src[p]) > _AMP_TOL)):
            raise SiteCollision(
                f"output {out!r} already carries {pol} amplitude; merging paths "
                "without a two-port unitary would need a second photon"
            )
        dst += src[p]
        src[p] = 0.0
    return StateVector(decl, amps)


def beamsplitter_5050(state: StateVector, site1: str, site2: str) -> StateVector:
    """Symmetric 50/50 beam splitter on the occupation amplitudes of two sites."""
    decl = state.decl
    decl.require_site(site1)
    decl.require_site(site2)
    if site1 == site2:
        raise UnknownSite("beam splitter needs two distinct sites")
    bs = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)
    amps = np.array(state.amps)
    t = decl.tensor(amps)
    pair = [decl.site_axis[site1], decl.site_axis[site2]]
    t[pair] = np.einsum("ab,bpm->apm", bs, t[pair])
    return StateVector(decl, amps)


def qplate(state: StateVector, site: str, q: int) -> StateVector:
    """Couple circular polarization to OAM at one site: |L,m> <-> |R,m+2q>."""
    decl = state.decl
    decl.require_site(site)
    shift = 2 * int(q)
    oam = np.array(decl.oam)

    amps = np.array(state.amps)
    block = decl.tensor(amps)[decl.site_axis[site]]  # (pol, oam) view
    circ = _TO_CIRC @ block  # rows: (L, R)
    shifted = np.zeros_like(circ)
    # L at m moves to R at m + 2q; R at m moves to L at m - 2q. Amplitudes at
    # or below _AMP_TOL are dropped rather than checked against the OAM set.
    for src, dst, step in ((0, 1, shift), (1, 0, -shift)):
        target = oam + step
        pos = np.searchsorted(oam, target).clip(max=len(oam) - 1)
        live = np.abs(circ[src]) > _AMP_TOL
        overflow = live & (oam[pos] != target)
        if overflow.any():
            m = int(oam[overflow][0])
            raise OamOverflow(
                f"|{'LR'[src]},{m}> would shift to oam={m + step}, outside {decl.oam}"
            )
        shifted[dst, pos[live]] = circ[src, live]
    block[...] = _TO_CIRC.conj().T @ shifted
    return StateVector(decl, amps)


def phase_shift(state: StateVector, site: str, phi_deg: float) -> StateVector:
    """Multiply all amplitudes at ``site`` by exp(i phi)."""
    decl = state.decl
    decl.require_site(site)
    amps = np.array(state.amps)
    decl.tensor(amps)[decl.site_axis[site]] *= np.exp(1j * np.deg2rad(phi_deg))
    return StateVector(decl, amps)
