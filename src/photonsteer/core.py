"""State space and operator algebra for the vacuum ⊕ one-photon sector.

A basis declaration fixes a finite set of spatial modes (sites) and a finite
set of orbital-angular-momentum values. The Hilbert space is spanned by one
vacuum ket plus one ket per (site, polarization, oam) triple; multi-photon
configurations are unrepresentable by construction. Basis order is the vacuum
first, then one-photon kets sorted lexicographically by (site, pol, oam), so
matrix layouts are deterministic for golden tests.

Tensor contract. Because of that order, the amplitudes after the vacuum,
``amps[1:]``, are a C-ordered array of shape ``(n_sites, 2, n_oam)``:
axis 0 runs over the sites in *sorted* order (``BasisDecl.site_axis`` maps a
site name to its position, which can differ from the declared order, and
``BasisDecl.site_position`` is the one site check: it returns that position or
raises ``UnknownSite``), axis 1
over (H, V) and axis 2 over the sorted OAM values (``BasisDecl.oam_axis`` maps
an OAM value to its position). ``BasisDecl.tensor`` returns that view, and
element actions, projections and register reductions are axis operations on it
rather than per-ket index lookups. Element actions are in-place kernels on a
writable view; the public functions run them through ``_on_copy``, on a copy of
the amplitudes wrapped in a new ``StateVector``.

Conventions fixed here and relied on everywhere else:

* Global phase is never stripped implicitly; ``fidelity`` is the
  phase-insensitive comparator.
* Polarization labels are "H" and "V", with H ordered before V.
* Register reductions (``measurement.reduced_state``) keep one physical
  register: a site's occupation, the polarization register, or the OAM
  register. Occupation reduction is the nondemolition photon-number readout
  and is therefore diagonal; the polarization and OAM registers exist only
  inside the one-photon sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .errors import (
    BasisMismatch,
    DimensionMismatch,
    NonUnitary,
    OutOfRange,
    UnknownSite,
    UnknownSubsystem,
    ZeroState,
)

ATOL = 1e-10  # algebraic invariants
NORM_ATOL = 1e-9  # pipeline accumulation headroom

POLS = ("H", "V")

DEFAULT_OAM = (0,)

# Kets of the largest basis a declaration may ask for: 2·2¹⁵ photon kets plus the vacuum.
# A file of a few KB can declare any size, and every state, table and output grows with
# it; 'run' of a one-photon circuit at this bound takes about 1 s and prints ~5 MB.
MAX_DIM = 65_537


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BasisKet:
    """One basis element: the vacuum, or a photon at (site, pol, oam)."""

    site: str | None = None
    pol: str | None = None
    oam: int | None = None

    @classmethod
    def vacuum(cls) -> "BasisKet":
        return cls()

    @classmethod
    def photon(cls, site: str, pol: str, oam: int = 0) -> "BasisKet":
        if pol not in POLS:
            raise ValueError(f"polarization must be one of {POLS}, got {pol!r}")
        return cls(site=site, pol=pol, oam=int(oam))

    @property
    def is_vacuum(self) -> bool:
        return self.site is None

    def label(self) -> str:
        if self.is_vacuum:
            return "vac"
        return f"{self.site}:{self.pol}:{self.oam}"

    def __repr__(self) -> str:  # |vac> or |NY,H,0>
        if self.is_vacuum:
            return "|vac>"
        return f"|{self.site},{self.pol},{self.oam}>"


@dataclass(frozen=True)
class BasisDecl:
    """Declared site list and OAM value set; fixes the basis order."""

    sites: tuple[str, ...]
    oam: tuple[int, ...] = DEFAULT_OAM

    def __post_init__(self):
        if len(set(self.sites)) != len(self.sites):
            raise ValueError(f"duplicate site in declaration: {self.sites}")
        if len(self.oam) == 0 or len(set(self.oam)) != len(self.oam):
            raise ValueError(f"OAM set must be non-empty and duplicate-free: {self.oam}")
        if self.dim > MAX_DIM:
            raise OutOfRange(f"the declared basis has {self.dim} kets, more than MAX_DIM = "
                             f"{MAX_DIM} (sites × OAM values at most {(MAX_DIM - 1) // 2})")
        object.__setattr__(self, "oam", tuple(sorted(int(m) for m in self.oam)))

    @cached_property
    def site_axis(self) -> dict[str, int]:
        """Position of each site along axis 0 of ``tensor`` (sorted site order)."""
        return {site: i for i, site in enumerate(sorted(self.sites))}

    @cached_property
    def oam_axis(self) -> dict[int, int]:
        """Position of each OAM value along axis 2 of ``tensor`` (sorted OAM order)."""
        return {m: i for i, m in enumerate(self.oam)}

    @cached_property
    def kets(self) -> tuple[BasisKet, ...]:
        photons = (BasisKet.photon(s, p, m) for s in self.site_axis for p in POLS for m in self.oam)
        return (BasisKet.vacuum(), *photons)

    @cached_property
    def index(self) -> dict[BasisKet, int]:
        return {ket: i for i, ket in enumerate(self.kets)}

    @cached_property
    def shape(self) -> tuple[int, int, int]:
        """Shape (n_sites, 2, n_oam) of the one-photon amplitude tensor."""
        return (len(self.sites), len(POLS), len(self.oam))

    @property
    def dim(self) -> int:
        return 1 + 2 * len(self.sites) * len(self.oam)

    def tensor(self, amps: np.ndarray) -> np.ndarray:
        """The (site, pol, oam) view of ``amps[1:]``; writable when ``amps`` is."""
        return amps[1:].reshape(self.shape)

    def site_position(self, site: str) -> int:
        """Position of ``site`` along axis 0 of ``tensor``; ``UnknownSite`` if it is not declared."""
        try:
            return self.site_axis[site]
        except (KeyError, TypeError):  # TypeError: an unhashable name is not declared either
            raise UnknownSite(f"site {site!r} not declared (have {self.sites})") from None


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the declared basis.

    Not forcibly normalized at construction (``normalize`` exists for that);
    operations that require unit norm check it themselves.
    """

    decl: BasisDecl
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=complex).reshape(-1)
        if arr.shape != (self.decl.dim,):
            raise BasisMismatch(
                f"amplitude vector has length {arr.shape[0]}, basis has {self.decl.dim}"
            )
        object.__setattr__(self, "amps", _frozen(arr))

    @classmethod
    def vacuum(cls, decl: BasisDecl) -> "StateVector":
        amps = np.zeros(decl.dim, dtype=complex)
        amps[0] = 1.0
        return cls(decl, amps)

    @classmethod
    def from_amplitudes(cls, decl: BasisDecl, amplitudes: Mapping[BasisKet, complex]) -> "StateVector":
        amps = np.zeros(decl.dim, dtype=complex)
        for ket, amp in amplitudes.items():
            idx = decl.index.get(ket)
            if idx is None:
                raise BasisMismatch(f"ket {ket!r} not in declared basis")
            amps[idx] = amp
        return cls(decl, amps)

    def amplitude(self, ket: BasisKet) -> complex:
        idx = self.decl.index.get(ket)
        if idx is None:
            raise BasisMismatch(f"ket {ket!r} not in declared basis")
        return complex(self.amps[idx])

    def items(self, tol: float = 0.0) -> Iterator[tuple[BasisKet, complex]]:
        """Nonzero (ket, amplitude) pairs in basis order."""
        for ket, amp in zip(self.decl.kets, self.amps):
            if abs(amp) > tol:
                yield ket, complex(amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= NORM_ATOL

    def with_declaration(self, decl: BasisDecl) -> "StateVector":
        """Re-express this state over another declaration.

        Every ket carrying nonzero amplitude must exist in the target basis;
        kets only present in the target get amplitude zero.
        """
        return StateVector.from_amplitudes(decl, dict(self.items()))

    def __repr__(self) -> str:
        terms = ", ".join(f"{ket!r}: {amp:.4g}" for ket, amp in self.items(tol=1e-12))
        return f"StateVector({terms or '0'})"


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian positive-semidefinite operator with trace in (0, 1].

    ``labels`` names the basis the matrix is written in; for photon-space
    operators these are ``BasisKet`` objects, for register-level reductions
    they are plain strings ("0"/"1", "H"/"V", OAM values). Zero trace is
    tolerated so that degenerate assemblage members remain representable.
    """

    labels: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        n = len(self.labels)
        if mat.shape != (n, n):
            raise DimensionMismatch(f"matrix shape {mat.shape} does not match {n} labels")
        if not _is_hermitian(mat):
            raise ValueError("density matrix has a non-finite entry" if not np.isfinite(mat).all()
                             else "density matrix is not Hermitian within 1e-10")
        eigs = np.linalg.eigvalsh(mat)
        if eigs.size and not eigs.min() >= -ATOL:  # NaN fails too
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
        tr = float(np.real(np.trace(mat)))
        if not -ATOL < tr <= 1.0 + ATOL:
            raise ValueError(f"trace {tr} outside (0, 1]")
        object.__setattr__(self, "matrix", _frozen(mat))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def trace_value(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def normalize(state: StateVector) -> StateVector:
    """Scale amplitudes by a positive real factor to unit norm (phase untouched)."""
    n = state.norm()
    if n <= 1e-14:
        raise ZeroState(f"cannot normalize state with norm {n:.3e}")
    return StateVector(state.decl, state.amps / n)


def inner_product(s1: StateVector, s2: StateVector) -> complex:
    """<s1|s2>, conjugate-linear in the first argument."""
    if s1.decl != s2.decl:
        raise BasisMismatch("states carry different basis declarations")
    return complex(np.vdot(s1.amps, s2.amps))


def fidelity(s: StateVector, t: StateVector) -> float:
    """|<s|t>|^2 for normalized inputs; 1 iff equal up to global phase."""
    for name, state in (("first", s), ("second", t)):
        if not state.is_normalized():
            raise ValueError(f"{name} state is not normalized (norm {state.norm():.6g})")
    return float(abs(inner_product(s, t)) ** 2)


def to_density(state: StateVector) -> DensityOperator:
    """Rank-1 projector |s><s| of a normalized state."""
    if not state.is_normalized():
        raise ValueError(f"to_density requires a normalized state (norm {state.norm():.6g})")
    return DensityOperator(state.decl.kets, np.outer(state.amps, state.amps.conj()))


def expectation_value(rho: DensityOperator, obs: np.ndarray) -> float:
    """Tr(rho · obs) for a Hermitian observable."""
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != (rho.dim, rho.dim):
        raise DimensionMismatch(f"observable shape {obs.shape} vs operator dim {rho.dim}")
    if not _is_hermitian(obs):
        raise ValueError("observable is not Hermitian within 1e-10")
    value = complex(np.trace(rho.matrix @ obs))
    if abs(value.imag) > ATOL:
        raise ValueError(f"expectation value has imaginary residue {value.imag:.3e}")
    return float(value.real)


def apply_local_unitary(
    state: StateVector, u: np.ndarray, register: str, site: str | None = None
) -> StateVector:
    """Apply ``u`` to one register, identity everywhere else.

    ``register`` is "pol" (2x2) or "oam" (n_oam x n_oam); with ``site`` given
    the action is restricted to amplitudes at that site, otherwise it acts on
    the register across all sites. The vacuum amplitude is never touched.
    """
    return _on_copy(_local_unitary, state, u, register, site)


def _on_copy(kernel, state: StateVector, *args) -> StateVector:
    """Run the in-place ``kernel(decl, amps, *args)`` on a copy of ``state``'s amplitudes."""
    amps = np.array(state.amps)
    kernel(state.decl, amps, *args)
    return StateVector(state.decl, amps)


def _local_unitary(
    decl: BasisDecl, amps: np.ndarray, u: np.ndarray, register: str, site: str | None
) -> None:
    """In-place kernel of ``apply_local_unitary`` on a writable amplitude vector."""
    if register not in ("pol", "oam"):
        raise UnknownSubsystem(f"unknown register {register!r}")
    block = decl.tensor(amps)
    if site is not None:
        block = block[decl.site_position(site)]
    dim = 2 if register == "pol" else len(decl.oam)
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise DimensionMismatch(f"matrix shape {u.shape}, register dimension {dim}")
    if not _is_unitary(u):
        raise NonUnitary("matrix is not unitary within 1e-10")

    block[...] = u @ block if register == "pol" else block @ u.T


def _is_hermitian(mat: np.ndarray) -> bool:
    """np.allclose(mat, mat^H, atol=ATOL) on a finite matrix without its per-call overhead:
    the same |a - b| <= atol + rtol * |b| test. NaN or inf fails before it, which would warn;
    a finite difference past the float limit overflows to inf and fails the bound."""
    if not np.isfinite(mat).all():
        return False
    adj = mat.conj().T
    with np.errstate(over="ignore"):
        return bool((np.abs(mat - adj) <= ATOL + 1e-5 * np.abs(adj)).all())


def _is_unitary(u: np.ndarray) -> bool:
    """np.allclose(u @ u^H, I, atol=ATOL) without its per-call overhead: the same
    |a - b| <= atol + rtol * |b| test. NaN or inf fails before the product, which
    would warn."""
    if not np.isfinite(u).all():
        return False
    eye = np.eye(len(u))
    return bool((np.abs(u @ u.conj().T - eye) <= ATOL + 1e-5 * eye).all())


def _is_unitary_2x2(a: complex, b: complex, c: complex, d: complex) -> bool:
    """``_is_unitary`` for u = [[a, b], [c, d]] written out on the entries of u u^H - I,
    given as Python floats or complex numbers.

    |a|² + |b|² - 1 and |c|² + |d|² - 1 get the diagonal bound ATOL + 1e-5, and
    a c̄ + b d̄ the off-diagonal bound ATOL. NaN fails every comparison, and an
    inf entry makes a diagonal term inf or NaN.
    """
    diag_a = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag - 1.0
    diag_c = c.real * c.real + c.imag * c.imag + d.real * d.real + d.imag * d.imag - 1.0
    off = a * c.conjugate() + b * d.conjugate()
    return (abs(diag_a) <= ATOL + 1e-5 and abs(diag_c) <= ATOL + 1e-5
            and math.hypot(off.real, off.imag) <= ATOL)
