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

All element actions preserve the norm and act as the identity on registers
they do not name. Each element has one implementation: a private in-place
kernel ``_name(decl, amps, ...)`` that works on the writable (site, pol, oam)
view ``decl.tensor(amps)``, checks its operands and raises the element's
errors. ``circuit.run_circuit`` applies the kernels to one amplitude buffer.
The public functions are pure: ``core._on_copy`` runs the kernel on a copy of
the input state's amplitudes and wraps the copy in a new ``StateVector``.
A non-finite wave-plate or phase angle raises ``NonUnitary`` before any
trigonometry.
"""

from __future__ import annotations

import math

import numpy as np

from .core import POLS, BasisDecl, BasisKet, StateVector, _local_unitary, _on_copy
from .errors import DoubleExcitation, NonUnitary, OamOverflow, SiteCollision, UnknownSite

_AMP_TOL = 1e-12

# (H, V) -> (L, R) change of basis: rows are <L|, <R|.
_TO_CIRC = np.array([[1.0, 1.0j], [1.0, -1.0j]], dtype=complex) / np.sqrt(2.0)

# QWP retardance diag(1, i) in its own fast/slow axes.
_QUARTER_WAVE = np.diag([1.0, 1.0j])

# 50/50 beam splitter on the occupation amplitudes of (site1, site2).
_BS = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


def hwp_matrix(theta_deg: float) -> np.ndarray:
    t = np.deg2rad(theta_deg)
    c, s = np.cos(2 * t), np.sin(2 * t)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_matrix(theta_deg: float) -> np.ndarray:
    t = np.deg2rad(theta_deg)
    c, s = np.cos(t), np.sin(t)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    return rot @ _QUARTER_WAVE @ rot.T


def heralded_source(decl: BasisDecl, site: str, pol: str) -> StateVector:
    """Ideal heralded single photon |site, pol, oam=0>.

    Models the trigger postselection of a down-conversion pair source: once
    the trigger fires, exactly one photon of known polarization exists.
    """
    return apply_source(StateVector.vacuum(decl), site, pol)


def apply_source(state: StateVector, site: str, pol: str) -> StateVector:
    """Fire the heralded source on a running state (must still be vacuum)."""
    return _on_copy(_source, state, site, pol)


def waveplate(state: StateVector, site: str, kind: str, theta_deg: float) -> StateVector:
    """Apply an HWP or QWP Jones matrix to the polarization at one site."""
    return _on_copy(_waveplate, state, site, kind, theta_deg)


def pbs_route(state: StateVector, input: str, out_h: str, out_v: str) -> StateVector:
    """Polarizing beam splitter: H at ``input`` exits at ``out_h``, V at ``out_v``.

    No reflection phase is applied (compensable by a linear element, so the
    preparation narrative leaves it out). Vacuum passes through unchanged.
    """
    return _on_copy(_pbs, state, input, out_h, out_v)


def beamsplitter_5050(state: StateVector, site1: str, site2: str) -> StateVector:
    """Symmetric 50/50 beam splitter on the occupation amplitudes of two sites."""
    return _on_copy(_beamsplitter, state, site1, site2)


def qplate(state: StateVector, site: str, q: int) -> StateVector:
    """Couple circular polarization to OAM at one site: |L,m> <-> |R,m+2q>."""
    return _on_copy(_qplate, state, site, q)


def phase_shift(state: StateVector, site: str, phi_deg: float) -> StateVector:
    """Multiply all amplitudes at ``site`` by exp(i phi)."""
    return _on_copy(_phase, state, site, phi_deg)


# --- in-place kernels on a writable amplitude vector of ``decl`` -------------


def _require_finite(angle_deg: float, what: str) -> None:
    if not math.isfinite(angle_deg):
        raise NonUnitary(f"{what} angle {angle_deg!r} is not finite")


def _source(decl: BasisDecl, amps: np.ndarray, site: str, pol: str) -> None:
    if np.sum(np.abs(amps[1:]) ** 2) > _AMP_TOL:
        raise DoubleExcitation("source fired on a state that already holds a photon")
    decl.require_site(site)
    if 0 not in decl.oam:
        raise OamOverflow(f"source emits oam=0 but declared set is {decl.oam}")
    BasisKet.photon(site, pol)  # rejects a polarization other than H or V
    amps[...] = 0.0
    decl.tensor(amps)[decl.site_axis[site], POLS.index(pol), decl.oam.index(0)] = 1.0


def _waveplate(decl: BasisDecl, amps: np.ndarray, site: str, kind: str, theta_deg: float) -> None:
    if kind == "hwp":
        jones = hwp_matrix
    elif kind == "qwp":
        jones = qwp_matrix
    else:
        raise ValueError(f"waveplate kind must be 'hwp' or 'qwp', got {kind!r}")
    decl.require_site(site)
    _require_finite(theta_deg, kind)
    _local_unitary(decl, amps, jones(theta_deg), "pol", site)


def _pbs(decl: BasisDecl, amps: np.ndarray, input: str, out_h: str, out_v: str) -> None:
    for s in (input, out_h, out_v):
        decl.require_site(s)
    if out_h == out_v:
        raise SiteCollision("PBS outputs must be two distinct sites")

    t = decl.tensor(amps)
    src = t[decl.site_axis[input]]
    for p, (pol, out) in enumerate(zip(POLS, (out_h, out_v))):
        if out == input:
            continue
        dst = t[decl.site_axis[out], p]
        if ((np.abs(dst) > _AMP_TOL) & (np.abs(src[p]) > _AMP_TOL)).any():
            raise SiteCollision(
                f"output {out!r} already carries {pol} amplitude; merging paths "
                "without a two-port unitary would need a second photon"
            )
        dst += src[p]
        src[p] = 0.0


def _beamsplitter(decl: BasisDecl, amps: np.ndarray, site1: str, site2: str) -> None:
    decl.require_site(site1)
    decl.require_site(site2)
    if site1 == site2:
        raise UnknownSite("beam splitter needs two distinct sites")
    t = decl.tensor(amps)
    pair = [decl.site_axis[site1], decl.site_axis[site2]]
    t[pair] = np.einsum("ab,bpm->apm", _BS, t[pair])


def _qplate(decl: BasisDecl, amps: np.ndarray, site: str, q: int) -> None:
    decl.require_site(site)
    shift = 2 * int(q)
    oam = decl.oam_array

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


def _phase(decl: BasisDecl, amps: np.ndarray, site: str, phi_deg: float) -> None:
    decl.require_site(site)
    _require_finite(phi_deg, "phase")
    decl.tensor(amps)[decl.site_axis[site]] *= np.exp(1j * np.deg2rad(phi_deg))
