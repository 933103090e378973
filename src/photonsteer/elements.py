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

The kernels do only the arithmetic of their element, on the (site, pol, oam)
rows it touches. ``_jones`` gives the four wave-plate Jones entries as Python
scalars (floats for the HWP, complex for the QWP), the unitarity test runs on
those entries, and the kernel updates the site's H and V row views in place
with them; ``hwp_matrix`` and ``qwp_matrix`` are arrays of the same entries.
The beam splitter makes the same in-place update on the blocks of its two
sites, and the phase shifter scales its site's block by one complex number.
The q-plate moves only its live circular amplitudes and finds each target's
position in ``BasisDecl.oam_axis``, in Python integers, so no shift wraps. A
non-finite wave-plate or phase angle raises ``NonUnitary`` before any
trigonometry.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import POLS, BasisDecl, BasisKet, StateVector, _is_unitary_2x2, _on_copy
from .errors import DoubleExcitation, NonUnitary, OamOverflow, SiteCollision, UnknownSite

_AMP_TOL = 1e-12

# (H, V) -> (L, R) change of basis: rows are <L|, <R|; _FROM_CIRC is its inverse.
_TO_CIRC = np.array([[1.0, 1.0j], [1.0, -1.0j]], dtype=complex) / np.sqrt(2.0)
_FROM_CIRC = _TO_CIRC.conj().T

# 50/50 beam splitter [[r, i r], [i r, r]] on the (site1, site2) blocks.
_BS_R = 1.0 / math.sqrt(2.0)
_BS_IR = 1j * _BS_R


def _jones(kind: str, theta_deg: float) -> tuple:
    """Entries (a, b, c, d) of the Jones matrix [[a, b], [c, d]] of a ``kind`` = "hwp"
    or "qwp" plate at a finite angle: floats for the HWP, complex for the QWP, whose
    R(t) diag(1, i) R(-t) is [[c² + i s², cs - i cs], [cs - i cs, s² + i c²]] with
    c = cos t and s = sin t."""
    _require_finite(theta_deg, kind)
    t = math.radians(theta_deg)
    if kind == "hwp":
        c, s = math.cos(2 * t), math.sin(2 * t)
        return c, s, s, -c
    c, s = math.cos(t), math.sin(t)
    cs = c * s
    return complex(c * c, s * s), complex(cs, -cs), complex(cs, -cs), complex(s * s, c * c)


def hwp_matrix(theta_deg: float) -> np.ndarray:
    """HWP Jones matrix at a finite fast-axis angle; ``NonUnitary`` otherwise."""
    return np.array(_jones("hwp", theta_deg), dtype=complex).reshape(2, 2)


def qwp_matrix(theta_deg: float) -> np.ndarray:
    """QWP Jones matrix at a finite fast-axis angle; ``NonUnitary`` otherwise."""
    return np.array(_jones("qwp", theta_deg), dtype=complex).reshape(2, 2)


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
    at_site = decl.site_position(site)
    if 0 not in decl.oam_axis:
        raise OamOverflow(f"source emits oam=0 but declared set is {decl.oam}")
    BasisKet.photon(site, pol)  # rejects a polarization other than H or V
    amps[...] = 0.0
    decl.tensor(amps)[at_site, POLS.index(pol), decl.oam_axis[0]] = 1.0


def _waveplate(decl: BasisDecl, amps: np.ndarray, site: str, kind: str, theta_deg: float) -> None:
    if kind not in ("hwp", "qwp"):
        raise ValueError(f"waveplate kind must be 'hwp' or 'qwp', got {kind!r}")
    block = decl.tensor(amps)[decl.site_position(site)]
    a, b, c, d = _jones(kind, theta_deg)
    if not _is_unitary_2x2(a, b, c, d):
        raise NonUnitary("matrix is not unitary within 1e-10")
    _mix_rows(block[0], block[1], a, b, c, d)


def _mix_rows(x: np.ndarray, y: np.ndarray, a, b, c, d) -> None:
    """[x, y] <- [[a, b], [c, d]] [x, y] in place on two views of one shape. Each is
    contiguous: one strided view of both would go through numpy's slower iterator."""
    c_x = x * c  # before x changes
    x *= a
    x += y * b
    y *= d
    y += c_x


def _pbs(decl: BasisDecl, amps: np.ndarray, input: str, out_h: str, out_v: str) -> None:
    at_input, *at_outs = [decl.site_position(s) for s in (input, out_h, out_v)]
    if out_h == out_v:
        raise SiteCollision("PBS outputs must be two distinct sites")

    t = decl.tensor(amps)
    src = t[at_input]
    for p, (pol, out, at_out) in enumerate(zip(POLS, (out_h, out_v), at_outs)):
        if out == input:
            continue
        dst = t[at_out, p]
        if ((np.abs(dst) > _AMP_TOL) & (np.abs(src[p]) > _AMP_TOL)).any():
            raise SiteCollision(
                f"output {out!r} already carries {pol} amplitude; merging paths "
                "without a two-port unitary would need a second photon"
            )
        dst += src[p]
        src[p] = 0.0


def _beamsplitter(decl: BasisDecl, amps: np.ndarray, site1: str, site2: str) -> None:
    t = decl.tensor(amps)
    row1 = t[decl.site_position(site1)]
    row2 = t[decl.site_position(site2)]
    if site1 == site2:
        raise UnknownSite("beam splitter needs two distinct sites")
    _mix_rows(row1, row2, _BS_R, _BS_IR, _BS_IR, _BS_R)


def _qplate(decl: BasisDecl, amps: np.ndarray, site: str, q: int) -> None:
    block = decl.tensor(amps)[decl.site_position(site)]  # (pol, oam) view
    circ = _TO_CIRC @ block  # rows: (L, R)
    shifted = np.zeros_like(circ)
    # L at m moves to R at m + 2q; R at m moves to L at m - 2q. Amplitudes at
    # or below _AMP_TOL are dropped rather than checked against the OAM set.
    oam, oam_axis, step = decl.oam, decl.oam_axis, 2 * int(q)
    for src, row in enumerate(circ):
        live = np.flatnonzero(np.abs(row) > _AMP_TOL)
        targets = [oam_axis.get(oam[i] + step) for i in live.tolist()]
        if None in targets:
            m = oam[live[targets.index(None)]]
            raise OamOverflow(
                f"|{'LR'[src]},{m}> would shift to oam={m + step}, outside {oam}"
            )
        shifted[1 - src, targets] = row[live]
        step = -step
    block[...] = _FROM_CIRC @ shifted


def _phase(decl: BasisDecl, amps: np.ndarray, site: str, phi_deg: float) -> None:
    block = decl.tensor(amps)[decl.site_position(site)]
    _require_finite(phi_deg, "phase")
    block *= cmath.exp(1j * math.radians(phi_deg))
