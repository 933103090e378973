"""Batch command-line front end.

Subcommands::

    run    circuit-file        simulate a circuit, emit the state as JSON
    steer  --preset/--input    assemblage + CJWR + CHSH + LHS verdict as JSON
    sweep  --range/--step      visibility sweep of noisy:v as CSV (v,cjwr,chsh_opt,lhs_verdict)
    report --preset            scenario report (Born table + assemblage) as JSON

``steer`` and ``report`` take their two-qubit frame from ``steering.two_qubit_frame``
(occ-occ for a path-only state, else pol-path, which allows no vacuum weight).

Exit codes: 0 success, 2 circuit parse error (diagnostic with line/column on
stderr), 3 physics error (also --bob-site, --site or --basis on noisy:v),
4 usage error (also --grid outside 6 to 100, a --chsh-step that is not finite,
is below 1 degree or is not a divisor of 360, a circuit or --input file whose
declared basis has more than 65 537 kets, a circuit whose elements × kets exceed
2^25, a --input file that is not a finite unit state with integer OAM values and
one amplitude per basis entry, and an --out path that cannot be written).
Output is deterministic: identical arguments produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import scenarios, steering
from .circuit import parse_circuit, run_circuit
from .core import NORM_ATOL, BasisDecl, BasisKet, StateVector
from .errors import CircuitSyntaxError, OutOfRange, PhysicsError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PHYSICS = 3
EXIT_USAGE = 4

MAX_SWEEP_POINTS = 10_000  # each point solves one LHS program and one CHSH search


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


def state_from_json_dict(doc: dict) -> StateVector:
    """Inverse of ``state_to_json_dict``; ValueError unless the file holds a unit state
    with integer OAM values and names each ket at most once."""
    if len(doc["basis"]) != len(doc["amplitudes"]):
        raise ValueError(f"{len(doc['basis'])} basis entries but "
                         f"{len(doc['amplitudes'])} amplitudes")
    decl = BasisDecl(tuple(doc["sites"]), tuple(_oam_value(m) for m in doc["oam"]))
    amplitudes = {}
    for entry, (re, im) in zip(doc["basis"], doc["amplitudes"]):
        ket = (BasisKet.vacuum() if entry == "vac"
               else BasisKet.photon(entry[0], entry[1], _oam_value(entry[2])))
        if ket in amplitudes:
            raise ValueError(f"basis entry {entry!r} names the ket {ket!r} again")
        amplitudes[ket] = complex(re, im)
    state = StateVector.from_amplitudes(decl, amplitudes)
    if not np.isfinite(state.amps).all():
        raise ValueError("an amplitude is not finite")
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
        _write(args.out, json.dumps(state_to_json_dict(state), indent=2) + "\n")
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
    steering.check_grid(args.grid)
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
        "grid_n": verdict.grid_n,
        "lhs_residual": verdict.residual,
    }
    if verdict.certificate is not None:
        doc["certificate"] = [
            {"strategy": list(strategy), "bloch": list(bloch), "weight": weight}
            for strategy, bloch, weight in verdict.certificate
        ]
    _write(args.out, json.dumps(doc, indent=2) + "\n")
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
    if (hi - lo + 1e-12) / args.step >= MAX_SWEEP_POINTS:
        raise UsageError(f"bad sweep: step {args.step} gives more than {MAX_SWEEP_POINTS} points")
    steering.check_chsh_step(args.chsh_step)
    steering.check_grid(args.grid)

    values = []
    v = lo
    while v <= hi + 1e-12:
        values.append(round(v, 12))
        v += args.step

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
        _write(args.out, json.dumps(doc, indent=2) + "\n")
    else:
        lines = ["v,cjwr,chsh_opt,lhs_verdict"]
        lines += [f"{v!r},{cjwr!r},{chsh_opt!r},{status}" for v, cjwr, chsh_opt, status in rows]
        _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_report(args) -> int:
    report = scenarios.scenario_report(args.preset, site=args.site, basis=args.basis)
    _write(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process (about 1 ms) and shared by every ``main``
    call; parsing keeps no state in it."""
    parser = _Parser(prog="photonsteer", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    grid_help = f"LHS Bloch grid parameter, {steering.MIN_GRID} to {steering.MAX_GRID}"

    p_run = sub.add_parser("run", help="simulate a circuit file")
    p_run.add_argument("input", help="circuit text file")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--out", default=None, help="output path (default stdout)")

    p_steer = sub.add_parser("steer", help="steering / Bell analysis")
    p_steer.add_argument("--preset", default=None,
                         help="eq1 | twc | hardy[:q,r] | qplate_tripartite | noisy:v")
    p_steer.add_argument("--input", default=None, help="state JSON emitted by 'run'")
    p_steer.add_argument("--settings", default="Z,X", help="comma list from Z,X,Y")
    p_steer.add_argument("--grid", type=int, default=20, help=grid_help)
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


if __name__ == "__main__":
    sys.exit(main())
