"""Exception hierarchy.

Three families matter for callers: ``PhysicsError`` (invalid quantum operation,
CLI exit code 3), ``CircuitSyntaxError`` (malformed circuit text, CLI exit
code 2, always carries a line number) and ``OutOfRange`` (a size or step past
the bound that caps its cost, CLI exit code 4).
"""

from __future__ import annotations


class PhotonSteerError(Exception):
    """Base class for all package errors."""


class PhysicsError(PhotonSteerError):
    """An operation was asked to do something physically or algebraically invalid."""


class ZeroState(PhysicsError):
    """Normalization of a (numerically) zero state vector."""


class BasisMismatch(PhysicsError):
    """Two states or operators do not share a basis declaration."""


class UnknownSubsystem(PhysicsError):
    """Register selector names no register the state has."""


class NonUnitary(PhysicsError):
    """Matrix handed to a unitary-application routine is not unitary."""


class DimensionMismatch(PhysicsError):
    """Operator dimensions do not match the target register or state."""


class UnknownSite(PhysicsError):
    """Site label not present in the basis declaration."""


class DoubleExcitation(PhysicsError):
    """A photon source fired on a state that already contains a photon."""


class SiteCollision(PhysicsError):
    """Routing would merge two occupied modes of equal polarization."""


class OamOverflow(PhysicsError):
    """An OAM shift would leave the declared OAM value set."""


class ZeroProbabilityOutcome(PhysicsError):
    """Conditioning on an outcome whose Born probability is (numerically) zero."""


class NonQubitBobMarginal(PhysicsError):
    """State cannot be read as a two-qubit system for the steering analysis."""


class NonDichotomicObservable(PhysicsError):
    """Observable eigenvalues are not {+1, -1}."""


class TooManySettings(PhysicsError):
    """More measurement settings than the LHS strategy enumeration supports."""


class BadParameters(PhysicsError):
    """Preset parameters violate their constraint (normalization, range)."""


class SolverBreakdown(PhysicsError, ArithmeticError):
    """The LHS simplex met a singular basis, a failed ratio test or its pivot cap."""


class OutOfRange(PhotonSteerError, ValueError):
    """A size or step outside the bound that caps the cost of what it sizes; raised
    before the allocation it guards."""


class CircuitSyntaxError(PhotonSteerError):
    """Malformed circuit text. Carries ``line`` (1-based), ``column`` and ``expected``."""

    def __init__(self, message: str, line: int, column: int = 1, expected: str | None = None):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"line {line}, column {column}: {message}"
        if expected is not None:
            detail += f" (expected {expected})"
        super().__init__(detail)


class UnknownElement(CircuitSyntaxError):
    """Statement does not start with a known element or declaration keyword."""


class UndeclaredSite(CircuitSyntaxError):
    """Statement refers to a site missing from the ``sites`` declaration."""


class ArityError(CircuitSyntaxError):
    """Statement has the wrong number or type of operands."""


class OamRangeError(CircuitSyntaxError):
    """OAM declaration unusable for the elements that need it."""
