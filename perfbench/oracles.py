"""Independent answers the benchmark checks the program against.

Nothing here imports photonsteer. The physics is rewritten from the
conventions documented in the package README: the two-qubit frame is
(polarization, H -> +1) x (Bob-site occupation, photon present -> +1), the
photon amplitudes after the vacuum form a C-ordered (site, pol, oam) tensor
over the sorted sites and sorted OAM values, and the CHSH functional is
E(a0,b0) - E(a0,b1) + E(a1,b0) + E(a1,b1) in the Z-X plane.

Every check raises ``OracleMismatch`` with a short reason; the runner counts
such an op as failed and marks the run incorrect.
"""

from __future__ import annotations

import math

import numpy as np

EXACT_TOL = 1e-9  # closed forms against a few float operations
CERT_TOL = 1e-7  # certificate replay, the program's documented residual bound

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

ALICE_OBS = {"Z": _Z, "X": _X, "Y": _Y}
BOB_OBS = {"Z": -_Z, "X": _X, "Y": _Y}  # basis (empty, occupied); present -> +1


def _projector(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


_S2 = 1.0 / math.sqrt(2.0)
ALICE_PROJECTORS = {
    "Z": {+1: _projector([1, 0]), -1: _projector([0, 1])},
    "X": {+1: _projector([_S2, _S2]), -1: _projector([_S2, -_S2])},
    "Y": {+1: _projector([_S2, 1j * _S2]), -1: _projector([_S2, -1j * _S2])},
}

CERTIFIED = "UnsteerableCertified"
NOT_FOUND = "NoLHSFoundAtResolution"


class OracleMismatch(Exception):
    """The program's answer disagrees with the benchmark's oracle."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise OracleMismatch(reason)


def close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    require(err <= tol, f"{what}: off by {err:.3e} (tol {tol:.0e})")


# --- two-qubit frame -----------------------------------------------------------

def noisy_frame(v: float) -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[0b01] = psi[0b10] = _S2  # |H, occupied> + |V, empty>
    return v * np.outer(psi, psi.conj()) + (1.0 - v) * np.eye(4) / 4.0


def photon_tensor(amps, n_sites: int, n_oam: int) -> np.ndarray:
    """Photon amplitudes as a (site, pol, oam) tensor over the sorted sites."""
    return np.asarray(amps, dtype=complex)[1:].reshape(n_sites, 2, n_oam)


def pol_path_frame(psi: np.ndarray, alice: int, bob: int) -> np.ndarray:
    """rho[(p1,n1),(p2,n2)] = sum_m psi[site n1, p1, m] conj(psi[site n2, p2, m])."""
    x = psi[[alice, bob]].transpose(1, 0, 2).reshape(4, -1)  # (pol, occupation) x oam
    return x @ x.conj().T


def occ_occ_frame(vacuum: complex, alice: complex, bob: complex) -> np.ndarray:
    amp = np.array([vacuum, bob, alice, 0.0], dtype=complex)  # |n_A n_B>
    return np.outer(amp, amp.conj())


def correlator(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ np.kron(a, b))))


def cjwr(rho: np.ndarray, axes) -> float:
    total = sum(correlator(rho, ALICE_OBS[x], BOB_OBS[x]) for x in axes)
    return abs(total) / math.sqrt(len(axes))


def chsh_standard(rho: np.ndarray) -> float:
    """CHSH at (a0, a1, b0, b1) = (0, 90, 45, 135) degrees."""
    t = np.array([[correlator(rho, ALICE_OBS[i], BOB_OBS[j]) for j in "ZX"] for i in "ZX"])

    def e(a: float, b: float) -> float:
        ua = np.array([math.cos(math.radians(a)), math.sin(math.radians(a))])
        ub = np.array([math.cos(math.radians(b)), math.sin(math.radians(b))])
        return float(ua @ t @ ub)

    return e(0, 45) - e(0, 135) + e(90, 45) + e(90, 135)


def assemblage(rho: np.ndarray, settings) -> dict:
    """sigma(a|x)[b, d] = sum_{a', c} Pi[a', c] rho[(c, b), (a', d)]."""
    r = rho.reshape(2, 2, 2, 2)
    return {
        (x, a): np.einsum("ac,cbad->bd", ALICE_PROJECTORS[x][a], r)
        for x in settings
        for a in (+1, -1)
    }


def bloch_state(n) -> np.ndarray:
    return 0.5 * (_I2 + n[0] * _X + n[1] * _Y + n[2] * _Z)


def replay(certificate, settings) -> dict:
    """Rebuild sigma(a|x) from (strategy, Bloch vector, weight) triples."""
    out = {(x, a): np.zeros((2, 2), dtype=complex) for x in settings for a in (+1, -1)}
    for entry in certificate:
        state = entry["weight"] * bloch_state(entry["bloch"])
        for ix, x in enumerate(settings):
            out[(x, entry["strategy"][ix])] += state
    return out


# --- photon presets, written out from their documented definitions -----------

def preset_state(name: str, q: float = _S2, r: float = _S2):
    """(sorted sites, oam values, amplitude vector in basis order) of a photon preset."""
    if name == "eq1":
        sites, oam, amps = ("NY", "PUE"), (0,), {("PUE", "H", 0): _S2, ("NY", "V", 0): _S2}
        vac = 0.0
    elif name == "twc":
        sites, oam, amps = ("b1", "b2"), (0,), {("b1", "H", 0): _S2, ("b2", "H", 0): 1j * _S2}
        vac = 0.0
    elif name == "hardy":
        s = r * _S2
        sites, oam, amps = ("u1", "u2"), (0,), {("u1", "H", 0): 1j * s, ("u2", "H", 0): s}
        vac = q
    elif name == "qplate_tripartite":
        sites, oam = ("NY", "PUE"), (-2, 0, 2)
        amps = {("PUE", "H", 2): 0.5, ("PUE", "H", -2): 0.5,
                ("NY", "V", 2): 0.5j, ("NY", "V", -2): -0.5j}
        vac = 0.0
    else:
        raise ValueError(name)
    psi = np.zeros((len(sites), 2, len(oam)), dtype=complex)
    for (site, pol, m), a in amps.items():
        psi[sites.index(site), "HV".index(pol), oam.index(m)] = a
    return sites, oam, np.concatenate([[vac], psi.reshape(-1)])


def preset_bob(sites) -> str:
    return "PUE" if "PUE" in sites else sites[-1]


def preset_frame(name: str, q: float = _S2, r: float = _S2) -> np.ndarray:
    """Two-qubit frame the program documents for each photon preset."""
    sites, oam, amps = preset_state(name, q, r)
    psi = photon_tensor(amps, len(sites), len(oam))
    bob = sites.index(preset_bob(sites))
    alice = 1 - bob
    if name in ("twc", "hardy"):  # path-only states use the occupation-occupation frame
        return occ_occ_frame(amps[0], psi[alice, 0, 0], psi[bob, 0, 0])
    return pol_path_frame(psi, alice, bob)


def site_mass(amps, n_sites: int, n_oam: int, site: int) -> float:
    return float(np.sum(np.abs(photon_tensor(amps, n_sites, n_oam)[site]) ** 2))


# --- JSON helpers --------------------------------------------------------------

def complex_matrix(pairs) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def member_key(x: str, a: int) -> str:
    return f"{x}{'+' if a > 0 else '-'}"
