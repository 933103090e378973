"""Line-oriented optical-table description language.

One statement per line, ``#`` starts a comment, blank lines are ignored,
LF and CRLF both accepted::

    sites <id>...            declare spatial modes (order preserved)
    oam <int>...             declare OAM values (at most once; must contain 0)
    source <site> <H|V>      heralded single-photon source
    hwp <site> <deg>         half-wave plate at fast-axis angle
    qwp <site> <deg>         quarter-wave plate
    pbs <site> -> <siteH> <siteV>   polarizing beam splitter
    bs <site> <site>         50/50 beam splitter
    qplate <site> q=<int>    polarization-OAM coupler (needs an oam line)
    phase <site> <deg>       phase shifter

Angles are finite numbers of degrees. Sites must be declared before use.
``parse_circuit`` never raises anything but ``CircuitSyntaxError`` (or a
subclass), each carrying the offending line number. It splits each line with
``str.split()`` and works out token columns only when it reports an error.

``run_circuit`` starts one amplitude buffer at the vacuum, applies the
in-place kernel of each element to it (the same kernels the public functions
of ``elements`` run on a copy), and wraps it in a ``StateVector`` once, at
the end. An element error is re-raised with its type as
``element <i> (<kind>): <message>``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import elements
from .core import DEFAULT_OAM, BasisDecl, StateVector
from .errors import (
    ArityError,
    CircuitSyntaxError,
    OamRangeError,
    OutOfRange,
    PhysicsError,
    UndeclaredSite,
    UnknownElement,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT = re.compile(r"[+-]?\d+\Z")

ELEMENT_KINDS = ("source", "hwp", "qwp", "pbs", "bs", "qplate", "phase")

# Elements × kets of the largest circuit run_circuit applies, as each element costs O(kets):
# 511 elements at MAX_DIM. At the bound a circuit runs in ~0.03 s (phase shifters), ~0.07 s
# (wave plates), ~0.09 s (beam splitters) and ~0.4 s (q-plates on a one-site basis), or
# ~0.85 s once quarter-wave plates have spread the photon over 8192 OAM values, the most a
# one-site circuit can reach; best of three on a 2-vCPU Xeon.
MAX_ELEMENT_KETS = 2**25


@dataclass(frozen=True)
class ElementSpec:
    """One optical element application with its operand sites and parameters."""

    kind: str
    operands: tuple[str, ...]
    angle: float | None = None
    q: int | None = None
    pol: str | None = None


@dataclass(frozen=True)
class Circuit:
    """Ordered declarations plus elements in optical propagation order."""

    sites: tuple[str, ...]
    oam: tuple[int, ...]
    elements: tuple[ElementSpec, ...]

    @property
    def declaration(self) -> BasisDecl:
        return BasisDecl(self.sites, self.oam)


class _Line:
    def __init__(self, number: int, text: str):
        self.number = number
        self.code = text.split("#", 1)[0]
        self.tokens = self.code.split()

    def column(self, token_index: int) -> int:
        """1-based column of a token, or of the end of the last one; error path only.

        ``str.split()`` and ``\\S+`` split on the same whitespace code points, so
        the regex finds the tokens of ``self.tokens`` in order.
        """
        starts = [match.start() + 1 for match in re.finditer(r"\S+", self.code)]
        if token_index < len(starts):
            return starts[token_index]
        return (starts[-1] + len(self.tokens[-1])) if starts else 1


def _arity(line: _Line, n: int, usage: str) -> None:
    if len(line.tokens) - 1 != n:
        raise ArityError(
            f"{line.tokens[0]!r} takes {n} operand(s), got {len(line.tokens) - 1}",
            line.number,
            line.column(min(n + 1, len(line.tokens))),
            expected=usage,
        )


def _site(line: _Line, idx: int, declared: dict[str, None]) -> str:
    token = line.tokens[idx]
    if not _IDENT.match(token):
        raise CircuitSyntaxError(
            f"invalid site identifier {token!r}", line.number, line.column(idx),
            expected="identifier",
        )
    if token not in declared:
        raise UndeclaredSite(f"site {token!r} not declared", line.number, line.column(idx))
    return token


def _angle(line: _Line, idx: int) -> float:
    token = line.tokens[idx]
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise CircuitSyntaxError(
            f"invalid angle {token!r}", line.number, line.column(idx), expected="number in degrees"
        )
    return value


def parse_circuit(text: str | bytes) -> Circuit:
    """Parse circuit text into a validated :class:`Circuit`."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    text = text.removeprefix("\ufeff")  # a UTF-8 byte-order mark, as some editors save

    sites: dict[str, None] = {}  # declared order; a dict for one-lookup membership
    oam: tuple[int, ...] | None = None
    parsed: list[ElementSpec] = []

    for number, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        line = _Line(number, raw)
        if not line.tokens:
            continue
        head = line.tokens[0]

        if head == "sites":
            for idx, token in enumerate(line.tokens[1:], start=1):
                if not _IDENT.match(token):
                    raise CircuitSyntaxError(
                        f"invalid site identifier {token!r}", number, line.column(idx),
                        expected="identifier",
                    )
                if token in sites:
                    raise CircuitSyntaxError(
                        f"duplicate site {token!r}", number, line.column(idx),
                        expected="unique site identifier",
                    )
                sites[token] = None

        elif head == "oam":
            if len(line.tokens) == 1:
                raise ArityError("oam declaration needs at least one value", number,
                                 line.column(1), expected="oam <int>...")
            values = []
            for idx, token in enumerate(line.tokens[1:], start=1):
                if not _INT.match(token):
                    raise CircuitSyntaxError(
                        f"invalid OAM value {token!r}", number, line.column(idx),
                        expected="integer",
                    )
                values.append(int(token))
            if len(set(values)) != len(values):
                raise OamRangeError("duplicate OAM value", number, line.column(1))
            if 0 not in values:
                raise OamRangeError("OAM set must contain 0 (sources emit oam=0)",
                                    number, line.column(1))
            if oam is not None:
                raise OamRangeError("second oam declaration (at most one per circuit)",
                                    number, line.column(0))
            oam = tuple(sorted(values))

        elif head == "source":
            _arity(line, 2, "source <site> <H|V>")
            site = _site(line, 1, sites)
            pol = line.tokens[2]
            if pol not in ("H", "V"):
                raise CircuitSyntaxError(f"invalid polarization {pol!r}", number,
                                         line.column(2), expected="H or V")
            parsed.append(ElementSpec("source", (site,), pol=pol))

        elif head in ("hwp", "qwp", "phase"):
            _arity(line, 2, f"{head} <site> <deg>")
            site = _site(line, 1, sites)
            parsed.append(ElementSpec(head, (site,), angle=_angle(line, 2)))

        elif head == "pbs":
            _arity(line, 4, "pbs <site> -> <siteH> <siteV>")
            if line.tokens[2] != "->":
                raise CircuitSyntaxError(f"expected '->', got {line.tokens[2]!r}", number,
                                         line.column(2), expected="->")
            src = _site(line, 1, sites)
            out_h = _site(line, 3, sites)
            out_v = _site(line, 4, sites)
            if out_h == out_v:
                raise ArityError("PBS outputs must be distinct sites", number, line.column(4),
                                 expected="two distinct sites")
            parsed.append(ElementSpec("pbs", (src, out_h, out_v)))

        elif head == "bs":
            _arity(line, 2, "bs <site> <site>")
            s1 = _site(line, 1, sites)
            s2 = _site(line, 2, sites)
            if s1 == s2:
                raise ArityError("beam splitter needs two distinct sites", number,
                                 line.column(2), expected="two distinct sites")
            parsed.append(ElementSpec("bs", (s1, s2)))

        elif head == "qplate":
            _arity(line, 2, "qplate <site> q=<int>")
            site = _site(line, 1, sites)
            token = line.tokens[2]
            if not token.startswith("q=") or not _INT.match(token[2:]):
                raise CircuitSyntaxError(f"invalid q-plate charge {token!r}", number,
                                         line.column(2), expected="q=<int>")
            if oam is None:
                raise OamRangeError(
                    "qplate needs an explicit oam declaration (default set {0} "
                    "cannot hold shifted values)", number, line.column(0))
            parsed.append(ElementSpec("qplate", (site,), q=int(token[2:])))

        else:
            raise UnknownElement(f"unknown statement {head!r}", number, line.column(0),
                                 expected="one of: sites, oam, " + ", ".join(ELEMENT_KINDS))

    return Circuit(tuple(sites), oam if oam is not None else DEFAULT_OAM, tuple(parsed))


def format_circuit(circuit: Circuit) -> str:
    """Canonical text form; ``parse_circuit(format_circuit(c))`` equals ``c``."""
    lines = ["sites" + ("" if not circuit.sites else " " + " ".join(circuit.sites))]
    if circuit.oam != DEFAULT_OAM or any(el.kind == "qplate" for el in circuit.elements):
        lines.append("oam " + " ".join(str(m) for m in circuit.oam))
    for el in circuit.elements:
        if el.kind == "source":
            lines.append(f"source {el.operands[0]} {el.pol}")
        elif el.kind in ("hwp", "qwp", "phase"):
            lines.append(f"{el.kind} {el.operands[0]} {el.angle!r}")
        elif el.kind == "pbs":
            src, out_h, out_v = el.operands
            lines.append(f"pbs {src} -> {out_h} {out_v}")
        elif el.kind == "bs":
            lines.append(f"bs {el.operands[0]} {el.operands[1]}")
        elif el.kind == "qplate":
            lines.append(f"qplate {el.operands[0]} q={el.q}")
        else:
            raise ValueError(f"unknown element kind {el.kind!r}")
    return "\n".join(lines) + "\n"


def run_circuit(circuit: Circuit) -> StateVector:
    """Apply the element kernels in order to one buffer that starts at the vacuum.

    A circuit whose elements × kets exceed ``MAX_ELEMENT_KETS`` raises ``OutOfRange``
    before the buffer is built."""
    decl = circuit.declaration
    work = len(circuit.elements) * decl.dim
    if work > MAX_ELEMENT_KETS:
        raise OutOfRange(f"the circuit has {len(circuit.elements)} elements over {decl.dim} "
                         f"kets: {work} element-kets, more than MAX_ELEMENT_KETS = "
                         f"{MAX_ELEMENT_KETS}")
    amps = np.array(StateVector.vacuum(decl).amps)
    for index, el in enumerate(circuit.elements):
        try:
            if el.kind == "source":
                elements._source(decl, amps, el.operands[0], el.pol)
            elif el.kind in ("hwp", "qwp"):
                elements._waveplate(decl, amps, el.operands[0], el.kind, el.angle)
            elif el.kind == "pbs":
                elements._pbs(decl, amps, *el.operands)
            elif el.kind == "bs":
                elements._beamsplitter(decl, amps, *el.operands)
            elif el.kind == "qplate":
                elements._qplate(decl, amps, el.operands[0], el.q)
            elif el.kind == "phase":
                elements._phase(decl, amps, el.operands[0], el.angle)
            else:
                raise ValueError(f"unknown element kind {el.kind!r}")
        except PhysicsError as exc:
            raise type(exc)(f"element {index} ({el.kind}): {exc}") from exc
    return StateVector(decl, amps)
