"""Batch command-line front end.

Subcommands::

    run    circuit-file        simulate a circuit, emit the state as JSON
    steer  --preset/--input    assemblage + CJWR + CHSH + LHS verdict as JSON
    sweep  --range/--step      visibility sweep of noisy:v as CSV (v,cjwr,chsh_opt,lhs_verdict)
    report --preset            scenario report (Born table + assemblage) as JSON

``steer`` and ``report`` take their two-qubit frame from ``steering.two_qubit_frame``
(occ-occ for a path-only state, else pol-path, which allows no vacuum weight).
The LHS verdict of ``steer`` and ``sweep`` comes from ``steering.lhs_feasibility``.
Two settings are exact wherever Bob's marginal allows (``lhs_residual`` of an unfound
model is then the joint-measurability margin). Everything else goes to column generation
over the whole Bloch sphere, whose certificate may come in closed form before any solve
(at most 2^m hidden states, possibly mixed, from the canonical parent POVM of Bob's
steering-equivalent effects): ``NoLHSFoundAtResolution`` is then a proof unless the search
ran past its round cap, ``lhs_residual`` is the steering-witness margin, and ``steer``
writes the witness, a vector y over the solved rows (the assemblage's own linear steering
witness or a round's phase-1 duals), as ``witness`` (``steering.replay_witness``); past
the cap it has no ``witness`` and ``lhs_residual`` is the last phase-1 optimum. A certificate's
``lhs_residual`` is its worst error over the full program's 8m rows on every path,
exactly what ``steering.replay_certificate`` returns. --grid is not read: any integer
is taken, and ``steer`` echoes it as ``grid_n``.

Exit codes: 0 success, 2 circuit parse error (line/column diagnostic on stderr), 3 physics
error (also an undeclared --site or unknown --basis, even "", and --bob-site, --site or
--basis on noisy:v), 4 usage error (also a sweep loop past 10 000 steps, a --chsh-step
that is not finite, is below 1 degree or is not a divisor of 360, a circuit or --input
file whose declared basis has more than 65 537 kets, a circuit whose elements × kets
exceed 2^25, a --input file that is not a finite unit state with identifier sites,
integer OAM values and one numeric amplitude per declared basis entry, and an --out path
that cannot be written). Output is deterministic: identical arguments produce
byte-identical files. JSON output is exactly ``json.dumps(doc, indent=2)`` and a newline,
written by ``_json_text``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import scenarios, steering
from .circuit import _IDENT, parse_circuit, run_circuit
from .core import NORM_ATOL, POLS, BasisDecl, BasisKet, StateVector
from .errors import CircuitSyntaxError, OutOfRange, PhysicsError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PHYSICS = 3
EXIT_USAGE = 4

MAX_SWEEP_POINTS = 10_000  # sweep loop steps; each point kept is an LHS program and a CHSH search


class _Parser(argparse.ArgumentParser):
    """argparse maps its own failures to exit code 2; we reserve 2 for circuit
    diagnostics, so usage problems leave with 4 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(Exception):
    pass


def _write(path: str | None, payload: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(payload)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc}") from exc


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling


def _render(value, out: list, indent: str) -> None:
    """Append the text of ``json.dumps(value, indent=2)`` to ``out`` in chunks, ``indent``
    being the newline and spaces that open a line at the value's depth. It dispatches on
    the exact type; anything else, such as a numpy scalar or a dict with a key that is not
    a str, goes to ``json.dumps`` itself, reindented, so it reads or fails as there."""
    kind = type(value)
    if kind is float:
        text = float.__repr__(value)
        out.append(_NONFINITE.get(text, text))
    elif kind is str:
        out.append(_quote(value))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            separator = "," + inner
            _render(item, out, inner)
        out.append(indent + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        start, inner = len(out), indent + "  "
        separator = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                del out[start:]
                out.append(json.dumps(value, indent=2).replace("\n", indent))
                return
            out.append(separator + _quote(key) + ": ")
            separator = "," + inner
            _render(item, out, inner)
        out.append(indent + "}")
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    else:
        out.append(json.dumps(value, indent=2).replace("\n", indent))


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, in about half the time: the
    standard encoder falls back to pure Python whenever it indents."""
    out: list = []
    _render(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def state_to_json_dict(state: StateVector) -> dict:
    return {
        "sites": list(state.decl.sites),
        "oam": list(state.decl.oam),
        "basis": ["vac"] + [
            [k.site, k.pol, k.oam] for k in state.decl.kets[1:]
        ],
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amps],
        "norm": state.norm(),
    }


def _oam_value(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"OAM value {value!r} is not an integer")
    return value


def _basis_ket(entry) -> BasisKet:
    if entry == "vac":
        return BasisKet.vacuum()
    if not isinstance(entry, list) or len(entry) != 3:
        raise ValueError(f'basis entry {entry!r} is not "vac" or [site, pol, oam]')
    return BasisKet.photon(entry[0], entry[1], _oam_value(entry[2]))


def _basis_position(decl: BasisDecl, entry) -> int:
    """Where a basis entry sits in the amplitudes of ``decl``, read from the C-ordered
    (site, pol, oam) layout: 0 for "vac", else 1 + (site_axis[site]·2 + pol)·n_oam +
    oam_axis[oam]. A malformed entry raises as ``_basis_ket`` does, an undeclared one
    ValueError."""
    if entry == "vac":
        return 0
    if type(entry) is list and len(entry) == 3 and entry[1] in POLS and type(entry[2]) is int:
        site, oam = decl.site_axis.get(entry[0]), decl.oam_axis.get(entry[2])
        if site is not None and oam is not None:
            return 1 + (2 * site + POLS.index(entry[1])) * len(decl.oam) + oam
    _basis_ket(entry)
    raise ValueError(f"basis entry {entry!r} is outside the declared sites and OAM values")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def state_from_json_dict(doc: dict) -> StateVector:
    """Inverse of ``state_to_json_dict``; ValueError unless the file holds a unit state
    with a list of identifier sites, integer OAM values 0 among them, numeric amplitudes
    and basis entries "vac" or [site, pol, oam], naming each ket at most once, all declared."""
    if len(doc["basis"]) != len(doc["amplitudes"]):
        raise ValueError(f"{len(doc['basis'])} basis entries but "
                         f"{len(doc['amplitudes'])} amplitudes")
    if not isinstance(doc["sites"], list):
        raise ValueError(f"sites {doc['sites']!r} is not a list")
    for site in doc["sites"]:
        if not isinstance(site, str) or not _IDENT.match(site):
            raise ValueError(f"site {site!r} is not an identifier")
    decl = BasisDecl(tuple(doc["sites"]), tuple(_oam_value(m) for m in doc["oam"]))
    if 0 not in decl.oam:  # as in the circuit grammar: sources emit oam=0
        raise ValueError(f"OAM set {list(decl.oam)} does not contain 0")
    amps = np.zeros(decl.dim, dtype=complex)
    named = set()
    for entry, (re, im) in zip(doc["basis"], doc["amplitudes"]):
        if not (_is_number(re) and _is_number(im)):
            raise ValueError(f"amplitude [{re!r}, {im!r}] has a part that is not a number")
        i = _basis_position(decl, entry)
        if i in named:
            raise ValueError(f"basis entry {entry!r} names the ket {_basis_ket(entry)!r} again")
        named.add(i)
        amps[i] = complex(re, im)
    state = StateVector(decl, amps)
    if not np.isfinite(state.amps).all():
        raise ValueError("an amplitude is not finite")
    with np.errstate(over="ignore"):  # a huge finite amplitude gives norm inf, reported here
        if not state.is_normalized():
            raise ValueError(f"norm {state.norm()!r} is not 1 within {NORM_ATOL}")
    return state


def cmd_run(args) -> int:
    try:
        # Undecodable bytes become U+FFFD, as in parse_circuit, so they get a diagnostic.
        with open(args.input, "r", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.input!r}: {exc}") from exc
    try:
        state = run_circuit(parse_circuit(text))
    except CircuitSyntaxError as exc:
        print(f"{args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PhysicsError as exc:
        print(f"{args.input}: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    if args.format == "csv":
        lines = ["ket,re,im"]
        for ket, amp in zip(state.decl.kets, state.amps):
            lines.append(f"{ket.label()},{float(amp.real)!r},{float(amp.imag)!r}")
        _write(args.out, "\n".join(lines) + "\n")
    else:
        _write(args.out, _json_text(state_to_json_dict(state)))
    return EXIT_OK


def _load_steer_input(args):
    """The prepared state to analyse: a preset, or a state file written by 'run'."""
    if (args.preset is None) == (args.input is None):
        raise UsageError("give exactly one of --preset or --input")
    if args.preset is not None:
        return scenarios.preset(args.preset)
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            return state_from_json_dict(json.load(handle))
    except (OSError, ValueError, LookupError, TypeError, OverflowError, RecursionError) as exc:
        raise UsageError(
            f"cannot read a 'run' state from {args.input!r}: {type(exc).__name__}: {exc}"
        ) from exc


def cmd_steer(args) -> int:
    settings = tuple(s.strip() for s in args.settings.split(",") if s.strip())
    if len(settings) < 2:
        raise UsageError("need at least two settings, e.g. --settings Z,X")
    if len(set(settings)) != len(settings):
        raise UsageError(f"repeated setting in --settings {args.settings!r}")
    rho, frame = steering.two_qubit_frame(_load_steer_input(args), args.bob_site)
    assemblage = steering.compute_assemblage(rho, settings)
    verdict = steering.lhs_feasibility(assemblage, args.grid)
    cjwr = steering.cjwr_value(rho, settings)
    chsh = steering.chsh_value(rho, *steering.STANDARD_CHSH_ANGLES)

    doc = {
        "frame": frame,
        "settings": list(assemblage.settings),
        "assemblage": {scenarios.member_key(*key): scenarios.complex_pairs(member)
                       for key, member in assemblage.members.items()},
        "no_signaling_residual": assemblage.no_signaling_residual(),
        "cjwr": cjwr,
        "chsh": scenarios.chsh_json(chsh),
        "lhs_verdict": verdict.status,
        "grid_n": args.grid,
        "lhs_residual": verdict.residual,
    }
    if verdict.certificate is not None:
        doc["certificate"] = [
            {"strategy": list(strategy), "bloch": list(bloch), "weight": weight}
            for strategy, bloch, weight in verdict.certificate
        ]
    if verdict.witness is not None:
        doc["witness"] = list(verdict.witness)
    _write(args.out, _json_text(doc))
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        lo_text, _, hi_text = args.range.partition("..")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise UsageError(f"bad --range {args.range!r}, expected like 0..1") from None
    if not (math.isfinite(args.step) and args.step > 0) or not 0.0 <= lo <= hi <= 1.0:
        raise UsageError(
            f"bad sweep: range [{lo}, {hi}] must sit inside [0, 1] with a finite step > 0")
    # v runs to hi + 1e-12, so that a sum that lands just past hi still makes its point;
    # each rounded point is kept once, and none above hi rounded alike.
    values = []
    v, steps, last = lo, 0, round(hi, 12)
    while v <= hi + 1e-12:
        if steps == MAX_SWEEP_POINTS:
            raise UsageError(f"bad sweep: step {args.step} gives more than {MAX_SWEEP_POINTS} points")
        steps += 1
        point = round(v, 12)
        if point <= last and (not values or point != values[-1]):
            values.append(point)
        v += args.step
    steering.check_chsh_step(args.chsh_step)

    rows = []
    for v in values:
        rho = scenarios.noisy_state(v)
        cjwr = steering.cjwr_value(rho, ("Z", "X"))
        chsh = steering.chsh_optimize(rho, args.chsh_step)
        verdict = steering.lhs_feasibility(steering.compute_assemblage(rho, ("Z", "X")), args.grid)
        rows.append((v, cjwr, chsh.value, verdict.status))
    if args.format == "json":
        doc = [
            {"v": v, "cjwr": cjwr, "chsh_opt": chsh_opt, "lhs_verdict": status}
            for v, cjwr, chsh_opt, status in rows
        ]
        _write(args.out, _json_text(doc))
    else:
        lines = ["v,cjwr,chsh_opt,lhs_verdict"]
        lines += [f"{v!r},{cjwr!r},{chsh_opt!r},{status}" for v, cjwr, chsh_opt, status in rows]
        _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_report(args) -> int:
    report = scenarios.scenario_report(args.preset, site=args.site, basis=args.basis)
    _write(args.out, _json_text(report))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process (about 1 ms) and shared by every ``main``
    call; parsing keeps no state in it."""
    parser = _Parser(prog="photonsteer", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    grid_help = "any integer; not read"

    p_run = sub.add_parser("run", help="simulate a circuit file")
    p_run.add_argument("input", help="circuit text file")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--out", default=None, help="output path (default stdout)")

    p_steer = sub.add_parser("steer", help="steering / Bell analysis")
    p_steer.add_argument("--preset", default=None,
                         help="eq1 | twc | hardy[:q,r] | qplate_tripartite | noisy:v")
    p_steer.add_argument("--input", default=None, help="state JSON emitted by 'run'")
    p_steer.add_argument("--settings", default="Z,X", help="comma list from Z,X,Y")
    p_steer.add_argument("--grid", type=int, default=20, help=f"{grid_help}; echoed as grid_n")
    p_steer.add_argument("--bob-site", default=None, help="override Bob's site")
    p_steer.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="visibility sweep of the noisy preset")
    p_sweep.add_argument("--range", default="0..1", help="like 0..1")
    p_sweep.add_argument("--step", type=float, default=0.1)
    p_sweep.add_argument("--grid", type=int, default=20, help=grid_help)
    p_sweep.add_argument("--chsh-step", type=float, default=5.0,
                         help="CHSH angle step in degrees, at least "
                              f"{steering.MIN_CHSH_STEP:g}, dividing 360")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None)

    p_report = sub.add_parser("report", help="scenario report for a preset")
    p_report.add_argument("--preset", required=True)
    p_report.add_argument("--site", default=None, help="detector site (photon presets)")
    p_report.add_argument("--basis", default=None,
                          help="ZHV | Xdiag | Ycirc | OAMpm | occupation")
    p_report.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "steer": cmd_steer, "sweep": cmd_sweep, "report": cmd_report}
    try:
        return handlers[args.command](args)
    except (UsageError, OutOfRange) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except PhysicsError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PHYSICS

