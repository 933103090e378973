"""Projective measurements, Born probabilities, conditional collapse, sampling.

Model. A polarization (or OAM) measurement projects that register across the
one-photon sector; the analyzer is nondestructive, so the photon keeps its
path. The detector sits at one site, which only affects how outcomes are
*reported*: a register outcome whose conditional state carries no amplitude
at the detector site produces no click, so its probability weight is folded
into the "no-click" record together with the vacuum. The fold is a
coarse-grained Lueders update (one combined projector), so superpositions of
the invisible branches survive collapse. This is what makes "detect nothing"
a first-class outcome: finding the box empty still collapses the state.

Occupation measurements are the destructive presence test at a site: click
means the photon is there, no-click aggregates photon-elsewhere and vacuum.

Computation. A register table is one contraction: the setting's basis vectors,
stacked, meet the (site, pol, oam) amplitude tensor in one ``einsum``, and the
projected amplitudes of every outcome are the rows of one (outcome, dim)
array. Every probability and every detector-site mass is a row sum of that
array. ``born_probabilities`` scales every visible row to a unit state, and
``collapse`` and ``sample_outcome`` only the row they return. The rows are filled
in blocks of at most ``_BLOCK_ENTRIES`` amplitudes, so a table of many outcomes
holds O(dim) memory at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ATOL, POLS, DensityOperator, StateVector
from .errors import BasisMismatch, OutOfRange, UnknownSubsystem, ZeroProbabilityOutcome

PROB_FLOOR = 1e-14

NO_CLICK = "no-click"

MAX_SHOTS = 10**6  # sample_outcomes returns one label per shot in a list: ~0.04 s at the bound

# Projected amplitudes per block of a Born table (256 KiB): every table of up to
# 24 outcomes at 673 kets is one block, and a table of many outcomes over a large
# basis never holds more than one block, besides its records.
_BLOCK_ENTRIES = 2**14

# Register-level analyzer bases. Circular convention matches the q-plate:
# |L> = (|H> - i|V>)/sqrt(2), |R> = (|H> + i|V>)/sqrt(2).
_POL_BASES: dict[str, tuple[tuple[str, np.ndarray], ...]] = {
    "ZHV": (
        ("H-click", np.array([1.0, 0.0], dtype=complex)),
        ("V-click", np.array([0.0, 1.0], dtype=complex)),
    ),
    "Xdiag": (
        ("+", np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)),
        ("-", np.array([-1.0, 1.0], dtype=complex) / np.sqrt(2.0)),
    ),
    "Ycirc": (
        ("L", np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)),
        ("R", np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)),
    ),
}


@dataclass(frozen=True)
class MeasurementSetting:
    """A detector site plus an orthonormal, labelled register basis.

    ``register`` is "pol", "oam" or "occupation". ``outcomes`` holds
    (label, register-level basis vector) pairs; occupation settings encode
    presence directly and carry no vectors. The projectors plus the no-click
    complement resolve the identity, so ``labels`` ends with no-click.
    ``oam`` holds the sorted OAM values an "oam" setting's vectors are written
    over; measuring a state whose declaration has other values raises
    ``BasisMismatch``.
    """

    site: str
    register: str
    outcomes: tuple[tuple[str, np.ndarray], ...]
    oam: tuple[int, ...] = ()

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes) + (NO_CLICK,)


@dataclass(frozen=True)
class OutcomeRecord:
    """One outcome: label, Born probability, normalized conditional state.

    ``conditional_state`` is ``None`` when the probability is below the
    representability floor (1e-14).
    """

    label: str
    probability: float
    conditional_state: StateVector | None


def polarization_setting(site: str, basis: str) -> MeasurementSetting:
    """Polarization analyzer at ``site``; basis one of ZHV, Xdiag, Ycirc."""
    if basis not in _POL_BASES:
        raise ValueError(f"basis must be one of {tuple(_POL_BASES)}, got {basis!r}")
    return MeasurementSetting(site, "pol", _POL_BASES[basis])


def oam_setting(site: str, basis: str, oam_values: tuple[int, ...]) -> MeasurementSetting:
    """OAM analyzer. ``number`` projects each value; ``pm`` uses (|+2>±|-2>)/sqrt(2).

    The values are taken in sorted order, the order ``BasisDecl`` gives them.
    """
    oam_values = tuple(sorted(int(m) for m in oam_values))
    eye = np.eye(len(oam_values), dtype=complex)
    outcomes = tuple((str(m), eye[i]) for i, m in enumerate(oam_values))
    if basis == "pm":
        if 2 not in oam_values or -2 not in oam_values:
            raise ValueError(f"pm basis needs OAM values +2 and -2, have {oam_values}")
        up, down = eye[oam_values.index(2)], eye[oam_values.index(-2)]
        outcomes = (("+", (up + down) / np.sqrt(2.0)), ("-", (up - down) / np.sqrt(2.0)),
                    *(o for o in outcomes if o[0] not in ("2", "-2")))
    elif basis != "number":
        raise ValueError(f"basis must be 'number' or 'pm', got {basis!r}")
    return MeasurementSetting(site, "oam", outcomes, oam_values)


def occupation_setting(site: str) -> MeasurementSetting:
    """Presence detector at ``site``: click iff the photon is found there."""
    return MeasurementSetting(site, "occupation", (("click", np.array([1.0])),))


def born_probabilities(state: StateVector, setting: MeasurementSetting) -> list[OutcomeRecord]:
    """Outcome records for ``setting`` on ``state``; probabilities sum to 1."""
    return [_record(state.decl, *row) for row in _rows(state, setting)]


def _rows(state: StateVector, setting: MeasurementSetting):
    """(label, probability, projected amplitudes) per outcome, no-click last; the amplitudes
    are ``None`` where ``_floored`` zeroes the probability and where no-click absorbs them."""
    decl = state.decl
    at_site = decl.site_position(setting.site)
    if not state.is_normalized():
        raise ValueError(f"measurement requires a normalized state (norm {state.norm():.6g})")

    if setting.register == "occupation":
        click = np.zeros(decl.dim, dtype=complex)
        decl.tensor(click)[at_site] = decl.tensor(state.amps)[at_site]
        yield _floored("click", click)
        yield _floored(NO_CLICK, state.amps - click)
        return

    _check_register(decl, setting)
    t = decl.tensor(state.amps)
    dark = np.zeros(decl.dim, dtype=complex)
    dark[0] = state.amps[0]  # the vacuum never reaches the analyzer
    step = max(1, _BLOCK_ENTRIES // decl.dim)
    for lo in range(0, len(setting.outcomes), step):
        block = setting.outcomes[lo:lo + step]
        rows = _projected(decl, setting.register, t, np.array([vec for _, vec in block]))
        weights = np.abs(rows)
        weights *= weights  # |rows|**2 without a second temporary
        probs = np.sum(weights, axis=1).tolist()
        masses = np.sum(weights[:, 1:].reshape(len(block), *decl.shape)[:, at_site], axis=(1, 2))
        for (label, _), p, mass, row in zip(block, probs, masses.tolist(), rows):
            if p >= PROB_FLOOR and mass < PROB_FLOOR * p:
                # Invisible to the detector at this site: merge into no-click
                # coherently (the apparatus cannot distinguish these branches).
                dark += row
                yield label, 0.0, None
            else:
                yield _floored(label, row, p)
    yield _floored(NO_CLICK, dark)


def _check_register(decl, setting: MeasurementSetting) -> None:
    if setting.register == "oam" and setting.oam != decl.oam:
        raise BasisMismatch(
            f"OAM setting is written over the values {setting.oam}, the basis declares {decl.oam}"
        )
    n = len(POLS) if setting.register == "pol" else len(decl.oam)
    for _, vec in setting.outcomes:
        if len(vec) != n:
            raise BasisMismatch(
                f"{setting.register} projector has dimension {len(vec)}, register has {n}"
            )


def _projected(decl, register: str, t: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Rows |vec><vec| applied across the one-photon sector of ``t``, one per vector."""
    rows = np.zeros((len(vecs), decl.dim), dtype=complex)
    out = rows[:, 1:].reshape(len(vecs), *decl.shape)
    if register == "pol":
        coef = np.einsum("kp,spm->ksm", vecs.conj(), t)
        np.multiply(vecs[:, None, :, None], coef[:, :, None, :], out=out)
    else:
        coef = np.einsum("km,spm->ksp", vecs.conj(), t)
        np.multiply(coef[..., None], vecs[:, None, None, :], out=out)
    return rows


def _floored(label: str, amps: np.ndarray, p: float | None = None):
    """A row of ``_rows`` with probability p = ||amps||^2; (label, 0.0, None) below PROB_FLOOR."""
    if p is None:
        p = float(np.sum(np.abs(amps) ** 2))
    return (label, 0.0, None) if p < PROB_FLOOR else (label, p, amps)


def _record(decl, label: str, p: float, amps: np.ndarray | None) -> OutcomeRecord:
    """The record of one row of ``_rows``, its amplitudes scaled to a unit state."""
    cond = None if amps is None else StateVector(decl, amps / np.linalg.norm(amps))
    return OutcomeRecord(label, p, cond)


def collapse(state: StateVector, setting: MeasurementSetting, outcome_label: str) -> StateVector:
    """Normalized post-measurement state for one outcome."""
    for label, p, amps in _rows(state, setting):
        if label == outcome_label:
            if amps is None:
                raise ZeroProbabilityOutcome(f"outcome {outcome_label!r} has probability {p:.3e}")
            return _record(state.decl, label, p, amps).conditional_state
    raise ValueError(f"setting has no outcome {outcome_label!r} (labels: {setting.labels})")


def sample_outcome(state: StateVector, setting: MeasurementSetting, seed: int) -> OutcomeRecord:
    """Draw one outcome with a seed-reproducible generator (inverse CDF)."""
    rows = list(_rows(state, setting))
    return _record(state.decl, *rows[_pick(rows, np.random.default_rng(seed).random(1))[0]])


def sample_outcomes(
    state: StateVector, setting: MeasurementSetting, n: int, seed: int
) -> list[str]:
    """Draw ``n`` outcome labels; identical seeds give identical sequences."""
    if not 0 <= n <= MAX_SHOTS:
        raise OutOfRange(f"bad shot count {n}: need 0 to {MAX_SHOTS}")
    rows = [(label, p, None) for label, p, _ in _rows(state, setting)]
    picks = _pick(rows, np.random.default_rng(seed).random(n))
    return np.array([label for label, _, _ in rows], dtype=object)[picks].tolist()


def _pick(rows: list, draws: np.ndarray) -> np.ndarray:
    """Inverse CDF over the probabilities of ``_rows``: per draw u, the index of the first
    row whose running sum exceeds u, or of the last row for u in the rounding gap below 1."""
    picks = np.searchsorted(np.cumsum([p for _, p, _ in rows]), draws, side="right")
    return np.minimum(picks, len(rows) - 1)


def reduced_state(state: StateVector, keep: str, site: str | None = None) -> DensityOperator:
    """Reduce |state><state| to one register, read from the amplitude tensor.

    ``keep`` selects the kept register:

    * ``"occupation"`` (requires ``site``): the photon-number readout of that
      site, a diagonal qubit in the {empty, occupied} basis. Coherence between
      occupancy sectors involves which-mode information and is traced away.
    * ``"pol"``: the 2x2 polarization register (one-photon states only).
    * ``"oam"``: the OAM register (one-photon states only).

    ``state`` must be normalized; the result has unit trace and is checked
    Hermitian PSD by ``DensityOperator``. The d x d projector is never formed.
    """
    if not state.is_normalized():
        raise ValueError(f"reduced_state requires a normalized state (norm {state.norm():.6g})")
    decl = state.decl
    if keep == "occupation":
        if site is None:
            raise UnknownSubsystem("occupation selector needs a site")
        position = decl.site_position(site)
        weights = state.amps * state.amps.conj()  # the diagonal of |state><state|
        at_site = np.zeros(decl.dim, dtype=bool)
        decl.tensor(at_site)[position] = True
        diag = [weights[~at_site].sum(), weights[at_site].sum()]
        return DensityOperator(("0", "1"), np.diag(diag))

    if keep not in ("pol", "oam"):
        raise UnknownSubsystem(f"unknown selector {keep!r}")
    vac_mass = float(abs(state.amps[0]) ** 2)
    if vac_mass > ATOL:
        register = "polarization" if keep == "pol" else "OAM"
        raise UnknownSubsystem(
            f"the {register} register is undefined for states with vacuum weight {vac_mass:.3e}"
        )
    t = decl.tensor(state.amps)
    if keep == "pol":
        return DensityOperator(POLS, np.einsum("spm,sqm->pq", t, t.conj()))
    return DensityOperator(decl.oam, np.einsum("spm,spn->mn", t, t.conj()))
