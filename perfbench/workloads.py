"""The three seeded workloads: how their inputs are made, run and checked.

Each workload is an endless stream of *cycles*. A cycle is a fixed list of
slots (request kind, settings, grid, size class); the seed only draws the
values inside each slot and the order of the slots. So every whole cycle
asks the program for the same mix of work, and ratios taken over whole
cycles do not depend on where the time limit cut the last one.

Ops reach the program through its public entry points only:
``photonsteer.cli.main(argv)`` in-process for ``steer``/``sweep``/``report``,
and the package-level library functions for the optical-table pipeline.
Names are looked up on the module at call time, so a tracer that rebinds
them sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import photonsteer as ps
from photonsteer import cli

import oracles as orc
from oracles import require

SQRT2_INV = 1.0 / math.sqrt(2.0)
SQRT3_INV = 1.0 / math.sqrt(3.0)
SHOTS = 64  # sample_outcomes draws per table


@dataclass
class Op:
    kind: str  # steer | sweep | report | table
    cycle: int
    argv: list | None = None
    spec: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What the oracle learnt from one answer."""

    verdicts: list  # (lhs status, cjwr) pairs, for the backed/inconclusive ratio
    out_bytes: int = 0  # bytes the CLI wrote, 0 for library ops


class ProgramFailure(Exception):
    """The program exited non-zero."""


# --- running one op --------------------------------------------------------------

def run_cli(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    if rc != 0:
        raise ProgramFailure(f"exit {rc}: {err.getvalue().strip()[-200:]}")
    return out.getvalue()


def run_table(spec: dict) -> dict:
    """parse -> run -> Born tables at two sites -> samples -> reductions (-> frame)."""
    state = ps.run_circuit(ps.parse_circuit(spec["text"]))
    born, samples = {}, {}
    for site in spec["probe_sites"]:
        for basis in spec["bases"]:
            born[(site, basis)] = ps.born_probabilities(state, _setting(site, basis, spec["oam"]))
        samples[site] = ps.sample_outcomes(
            state, ps.polarization_setting(site, "ZHV"), SHOTS, spec["sample_seed"]
        )
    out = {
        "state": state,
        "born": born,
        "samples": samples,
        "pol": ps.reduced_state(state, "pol"),
        "oam": ps.reduced_state(state, "oam"),
        "occ": {site: ps.reduced_state(state, "occupation", site) for site in spec["probe_sites"]},
    }
    if len(spec["sites"]) == 2:
        rho = ps.pol_path_qubits(state, spec["sites"][1])
        out["frame"] = rho
        out["assemblage"] = ps.compute_assemblage(rho, ("Z", "X"))
        out["cjwr"] = ps.cjwr_value(rho, ("Z", "X"))
    return out


def _setting(site: str, basis: str, oam: tuple):
    if basis in ("ZHV", "Xdiag", "Ycirc"):
        return ps.polarization_setting(site, basis)
    if basis == "occupation":
        return ps.occupation_setting(site)
    return ps.oam_setting(site, basis, oam)


def execute(op: Op):
    if op.kind == "table":
        return run_table(op.spec)
    return run_cli(op.argv)


# --- checking one answer ---------------------------------------------------------

def check(op: Op, result) -> Outcome:
    if op.kind == "steer":
        return Outcome(_check_steer(op.spec, json.loads(result)), len(result))
    if op.kind == "sweep":
        return Outcome(_check_sweep(op.spec, result), len(result))
    if op.kind == "report":
        _check_report(op.spec, json.loads(result))
        return Outcome([], len(result))
    _check_table(op.spec, result)
    return Outcome([])


def _frame(spec: dict) -> np.ndarray:
    if spec["preset"] == "noisy":
        return orc.noisy_frame(spec["v"])
    return orc.preset_frame(spec["preset"], *spec.get("qr", (SQRT2_INV, SQRT2_INV)))


def _check_steer(spec: dict, doc: dict) -> list:
    settings = spec["settings"]
    rho = _frame(spec)
    require(doc["settings"] == list(settings), f"settings {doc['settings']}")
    require(doc["grid_n"] == spec["grid"], f"grid_n {doc['grid_n']}")
    reported = {
        (x, a): orc.complex_matrix(doc["assemblage"][orc.member_key(x, a)])
        for x in settings for a in (+1, -1)
    }
    for key, want in orc.assemblage(rho, settings).items():
        orc.close(reported[key], want, orc.EXACT_TOL, f"assemblage {key}")
    if spec["preset"] == "noisy":
        want_cjwr = math.sqrt(len(settings)) * spec["v"]
        want_chsh = 2.0 * math.sqrt(2.0) * spec["v"]
    else:
        want_cjwr, want_chsh = orc.cjwr(rho, settings), orc.chsh_standard(rho)
    orc.close(doc["cjwr"], want_cjwr, orc.EXACT_TOL, "cjwr")
    orc.close(doc["chsh"]["value"], want_chsh, orc.EXACT_TOL, "chsh at standard angles")

    status = doc["lhs_verdict"]
    require(status in (orc.CERTIFIED, orc.NOT_FOUND), f"verdict {status!r}")
    if status == orc.CERTIFIED:
        # An LHS model bounds the CJWR value by 1; for the noisy family that
        # is v <= 1/sqrt(2) (Z,X) or v <= 1/sqrt(3) (Z,X,Y).
        require(want_cjwr <= 1.0 + orc.EXACT_TOL, f"LHS certified at cjwr {want_cjwr:.6f}")
        require("certificate" in doc, "certified verdict without certificate")
    if "certificate" in doc:
        for key, rebuilt in orc.replay(doc["certificate"], settings).items():
            orc.close(rebuilt, reported[key], orc.CERT_TOL, f"certificate replay {key}")
    return [(status, want_cjwr)]


def _sweep_points(lo: float, hi: float, step: float) -> list:
    """The visibility list ``sweep --range lo..hi --step step`` documents."""
    values, v = [], lo
    while v <= hi + 1e-12:
        values.append(round(v, 12))
        v += step
    return values


def _check_sweep(spec: dict, text: str) -> list:
    if spec["format"] == "json":
        rows = [(r["v"], r["cjwr"], r["chsh_opt"], r["lhs_verdict"]) for r in json.loads(text)]
    else:
        reader = csv.reader(io.StringIO(text))
        require(next(reader) == ["v", "cjwr", "chsh_opt", "lhs_verdict"], "csv header")
        rows = [(float(v), float(c), float(s), st) for v, c, s, st in reader]
    want_v = _sweep_points(spec["lo"], spec["hi"], spec["step"])
    require([r[0] for r in rows] == want_v, f"sweep points {[r[0] for r in rows]} != {want_v}")
    # The grid optimum reaches 2*sqrt(2)*v when the angle step divides 45 degrees.
    exact_chsh = abs(45.0 / spec["chsh_step"] - round(45.0 / spec["chsh_step"])) < 1e-9
    verdicts = []
    for v, cjwr, chsh_opt, status in rows:
        tsirelson = 2.0 * math.sqrt(2.0) * v
        orc.close(cjwr, math.sqrt(2.0) * v, orc.EXACT_TOL, f"sweep cjwr at v={v}")
        if exact_chsh:
            orc.close(chsh_opt, tsirelson, orc.EXACT_TOL, f"chsh_opt at v={v}")
        else:
            require(chsh_opt <= tsirelson + orc.EXACT_TOL, f"chsh_opt {chsh_opt} above 2*sqrt(2)*v")
        require(status in (orc.CERTIFIED, orc.NOT_FOUND), f"verdict {status!r}")
        require(status != orc.CERTIFIED or v <= SQRT2_INV, f"LHS certified at v={v}")
        verdicts.append((status, math.sqrt(2.0) * v))
    return verdicts


def _check_report(spec: dict, doc: dict) -> None:
    name = spec["preset"]
    sites, oam, amps = orc.preset_state(name)
    n_s, n_m = len(sites), len(oam)
    bob = orc.preset_bob(sites)
    det = doc["detector"]
    require(det["site"] == spec["site"] and det["basis"] == spec["basis"], "detector header")
    probs = [o["probability"] for o in det["outcomes"]]
    require(min(probs) >= 0.0, "negative probability")
    orc.close(sum(probs), 1.0, orc.EXACT_TOL, "Born table sum")

    n_bob = orc.site_mass(amps, n_s, n_m, sites.index(bob))
    premeasured = orc.complex_matrix(det["bob_occupation_premeasurement"])
    orc.close(premeasured, np.diag([1.0 - n_bob, n_bob]), orc.EXACT_TOL, "Bob occupation")
    averaged = np.zeros((2, 2), dtype=complex)
    for o in det["outcomes"]:
        if "conditional_amplitudes" in o:
            norm = sum(abs(complex(*a)) ** 2 for _, a in o["conditional_amplitudes"])
            orc.close(norm, 1.0, orc.EXACT_TOL, f"conditional state {o['label']} norm")
            averaged += o["probability"] * orc.complex_matrix(o["bob_occupation_reduced"])
    orc.close(averaged, premeasured, orc.EXACT_TOL, "no signalling at Bob's site")

    rho = orc.preset_frame(name)
    asm = doc["assemblage"]
    orc.close(asm["cjwr_zx"], orc.cjwr(rho, "ZX"), orc.EXACT_TOL, "report cjwr")
    orc.close(asm["chsh_standard_angles"]["value"], orc.chsh_standard(rho), orc.EXACT_TOL,
              "report chsh")
    for (x, a), want in orc.assemblage(rho, "ZX").items():
        got = orc.complex_matrix(asm["members"][orc.member_key(x, a)]["member"])
        orc.close(got, want, orc.EXACT_TOL, f"report member {x}{a}")


def _check_table(spec: dict, out: dict) -> None:
    state = out["state"]
    n_s, n_m = len(spec["sites"]), len(spec["oam"])
    require(state.decl.dim == 1 + 2 * n_s * n_m, f"dim {state.decl.dim}")
    amps = np.asarray(state.amps)
    orc.close(np.vdot(amps, amps).real, 1.0, orc.EXACT_TOL, "state norm")
    psi = orc.photon_tensor(amps, n_s, n_m)
    # Support bookkeeping from the generator: sites never reached and OAM
    # values no element can populate hold exactly zero amplitude.
    empty_sites = [i for i in range(n_s) if i not in spec["support"]]
    require(not np.any(psi[empty_sites]), "amplitude at a site the photon cannot reach")
    dark_oam = [j for j, m in enumerate(spec["oam"]) if m not in spec["oam_support"]]
    require(not np.any(psi[:, :, dark_oam]), "amplitude at an unreachable OAM value")
    index = {s: i for i, s in enumerate(spec["sites"])}

    a_site, b_site = spec["probe_sites"]
    for (site, basis), records in out["born"].items():
        probs = [r.probability for r in records]
        require(min(probs) >= 0.0, f"negative probability ({site}, {basis})")
        orc.close(sum(probs), 1.0, orc.EXACT_TOL, f"Born table sum ({site}, {basis})")
        bob = b_site if site == a_site else a_site
        want = orc.site_mass(amps, n_s, n_m, index[bob])
        got = sum(
            r.probability * orc.site_mass(r.conditional_state.amps, n_s, n_m, index[bob])
            for r in records if r.conditional_state is not None
        )
        orc.close(got, want, orc.EXACT_TOL, f"no signalling to {bob} ({site}, {basis})")
    for site, labels in out["samples"].items():
        possible = {r.label for r in out["born"][(site, "ZHV")] if r.probability > 0.0}
        require(len(labels) == SHOTS and set(labels) <= possible, f"samples at {site}")

    orc.close(out["pol"].matrix, np.einsum("spm,sqm->pq", psi, psi.conj()), orc.EXACT_TOL,
              "pol reduction")
    orc.close(out["oam"].matrix, np.einsum("spm,spn->mn", psi, psi.conj()), orc.EXACT_TOL,
              "oam reduction")
    for site, rho in out["occ"].items():
        n = orc.site_mass(amps, n_s, n_m, index[site])
        orc.close(rho.matrix, np.diag([1.0 - n, n]), orc.EXACT_TOL, f"occupation of {site}")
    if n_s == 2:
        frame = orc.pol_path_frame(psi, 0, 1)
        orc.close(out["frame"].matrix, frame, orc.EXACT_TOL, "pol-path frame")
        for key, want in orc.assemblage(frame, "ZX").items():
            orc.close(out["assemblage"].members[key], want, orc.EXACT_TOL, f"assemblage {key}")
        orc.close(out["cjwr"], orc.cjwr(frame, "ZX"), orc.EXACT_TOL, "table cjwr")


# --- generating inputs -----------------------------------------------------------

def _v(rng, band: str) -> float:
    lo, hi = {"wide": (0.3, 1.0), "sqrt2": (SQRT2_INV - 0.04, SQRT2_INV + 0.04),
              "sqrt3": (SQRT3_INV - 0.04, SQRT3_INV + 0.04)}[band]
    return float(f"{rng.uniform(lo, hi):.6f}")


def _steer(cycle, preset, settings, grid, **spec) -> Op:
    label = preset
    if preset == "noisy":
        label = f"noisy:{spec['v']!r}"
    elif "qr" in spec:
        label = "hardy:{!r},{!r}".format(*spec["qr"])
    argv = ["steer", "--preset", label, "--settings", ",".join(settings), "--grid", str(grid)]
    return Op("steer", cycle, argv, dict(spec, preset=preset, settings=tuple(settings), grid=grid))


def _sweep(cycle, rng, points, chsh_step, grid=None, fmt="csv") -> Op:
    step = 0.05
    lo = float(f"{rng.uniform(0.3, 1.0 - (points - 0.5) * step):.4f}")
    hi = float(f"{lo + (points - 0.5) * step:.4f}")
    argv = ["sweep", "--range", f"{lo!r}..{hi!r}", "--step", repr(step),
            "--chsh-step", repr(chsh_step)]
    if grid is not None:
        argv += ["--grid", str(grid)]
    if fmt != "csv":
        argv += ["--format", fmt]
    return Op("sweep", cycle, argv,
              {"lo": lo, "hi": hi, "step": step, "chsh_step": chsh_step, "format": fmt})


# steer_lhs slots. Noisy-state visibility bands are denser near the CJWR
# thresholds 1/sqrt(2) and 1/sqrt(3), where the LP verdict flips. The mix
# is sized by today's latencies so that the median falls inside the ten
# Z,X grid-15 requests (ranks 20-29 of 49) and p90 inside the five Z,X,Y
# grid-20 ones (ranks 42-46), not on the edge between two kinds of request.
# Requests that hit the simplex's 20 000-pivot cap (Z,X at grid 60, Z,X,Y
# at grid 40) are left out: every op of a workload must succeed, so that
# runs of the same code report the same failures, none.
_STEER_SLOTS = (
    [("eq1", "ZX"), ("eq1", "ZXY"), ("twc", "ZXY"), ("hardy", "ZX"), ("hardy:qr", "ZXY"),
     ("qplate_tripartite", "ZX")]
    + [("noisy", "ZX", 10, band) for band in ("wide",) * 6 + ("sqrt2",) * 4 + ("sqrt3",) * 4]
    + [("noisy", "ZX", 15, band) for band in ("wide",) * 4 + ("sqrt2",) * 3 + ("sqrt3",) * 3]
    + [("noisy", "ZXY", 10, band) for band in ("wide", "wide", "sqrt3", "sqrt3", "sqrt2", "sqrt2")]
    + [("sweep", 1), ("noisy", "ZX", 20, "sqrt2"), ("sweep", 2), ("noisy", "ZXY", 15, "sqrt3"),
       ("noisy", "ZX", 30, "wide"), ("sweep", 3)]
    + [("noisy", "ZXY", 20, "sqrt3")] * 5
    + [("noisy", "ZX", 40, "sqrt2"), ("noisy", "ZX", 40, "sqrt3")]
)


def steer_lhs_cycle(rng, cycle: int) -> list:
    ops = []
    for slot in _STEER_SLOTS:
        if slot[0] == "noisy":
            _, settings, grid, band = slot
            ops.append(_steer(cycle, "noisy", settings, grid, v=_v(rng, band)))
        elif slot[0] == "sweep":
            ops.append(_sweep(cycle, rng, slot[1], 5.0))
        elif slot[0] == "hardy:qr":
            theta = rng.uniform(0.2, 1.3)
            ops.append(_steer(cycle, "hardy", slot[1], int(rng.integers(10, 21)),
                              qr=(math.cos(theta), math.sin(theta))))
        else:
            ops.append(_steer(cycle, slot[0], slot[1], int(rng.integers(10, 21))))
    return ops


# chsh_sweep slots: (chsh step, points). Shares 30/52.5/15/2.5 for the steps
# 3, 2, 1.5 and 1 degree put the median inside the 2-degree requests and p90
# in the middle of the 1.5-degree ones (ranks 34-39 of 40), by today's
# latencies. The 1.5-degree requests vary by a fifth among themselves, so a
# p90 near either end of their group would move with the host.
_CHSH_SLOTS = ([(3.0, 1)] * 6 + [(3.0, 2)] * 6 + [(2.0, 1)] * 21 + [(1.5, 1)] * 6
               + [(1.0, 1)])


def chsh_sweep_cycle(rng, cycle: int) -> list:
    return [_sweep(cycle, rng, points, step, grid=6, fmt="json" if points > 1 else "csv")
            for step, points in _CHSH_SLOTS]


_REPORT_BASES = {
    "eq1": ("ZHV", "Xdiag", "Ycirc", "occupation"),
    "twc": ("ZHV", "occupation"),
    "hardy": ("ZHV", "Xdiag", "occupation"),
    "qplate_tripartite": ("ZHV", "Xdiag", "Ycirc", "OAMpm", "occupation"),
}


def _report(cycle: int, rng) -> Op:
    preset = list(_REPORT_BASES)[int(rng.integers(len(_REPORT_BASES)))]
    sites = orc.preset_state(preset)[0]
    site = sites[int(rng.integers(2))]
    bases = _REPORT_BASES[preset]
    basis = bases[int(rng.integers(len(bases)))]
    argv = ["report", "--preset", preset, "--site", site, "--basis", basis]
    return Op("report", cycle, argv, {"preset": preset, "site": site, "basis": basis})


def make_table(rng, n_sites: int, n_oam: int, n_elements: int) -> dict:
    """A circuit table that is valid by construction.

    Bookkeeping instead of trial runs: ``support`` is a superset of the sites
    that can carry amplitude. A PBS only routes into sites outside it, so it
    never merges two occupied modes; the single q-plate sits right after the
    source, when the photon has OAM 0, so its shift to +-2q stays declared.
    """
    sites = [f"s{i:02d}" for i in range(n_sites)]  # names sort in index order
    q = int(rng.integers(1, 6)) if n_oam >= 3 and rng.random() < 0.5 else 0
    oam = {0} | ({2 * q, -2 * q} if q else set())
    while len(oam) < n_oam:
        oam.add(int(rng.integers(-20, 21)))
    oam = tuple(sorted(oam))
    src = int(rng.integers(n_sites))
    declared = [sites[i] for i in rng.permutation(n_sites)]
    lines = ["sites " + " ".join(declared)]
    if oam != (0,):
        lines.append("oam " + " ".join(str(m) for m in rng.permutation(oam)))
    lines.append(f"source {sites[src]} {'HV'[int(rng.integers(2))]}")
    if q:
        lines.append(f"qplate {sites[src]} q={q}")
    support = {src}
    kinds, weights = ("hwp", "qwp", "phase", "bs", "pbs"), (0.25, 0.15, 0.15, 0.25, 0.2)
    while len(lines) - (2 if oam != (0,) else 1) < n_elements:
        kind = kinds[int(rng.choice(5, p=weights))]
        empty = [i for i in range(n_sites) if i not in support]
        if kind == "pbs" and not empty:
            kind = "bs"
        if kind in ("hwp", "qwp", "phase"):
            pool = sorted(support) if rng.random() < 0.8 else range(n_sites)
            site = sites[int(rng.choice(pool))]
            limit = 360.0 if kind == "phase" else 180.0
            lines.append(f"{kind} {site} {float(f'{rng.uniform(0.0, limit):.3f}')!r}")
        elif kind == "bs":
            a = int(rng.choice(sorted(support)))
            b = int(rng.choice([i for i in range(n_sites) if i != a]))
            support |= {a, b}
            lines.append(f"bs {sites[a]} {sites[b]}" if rng.random() < 0.5
                         else f"bs {sites[b]} {sites[a]}")
        else:
            src_site = int(rng.choice(sorted(support)))
            pick = rng.permutation(empty)
            outs = [src_site, int(pick[0])] if len(pick) == 1 or rng.random() < 0.5 \
                else [int(pick[0]), int(pick[1])]
            if rng.random() < 0.5:
                outs.reverse()
            support = (support - {src_site}) | set(outs)
            lines.append(f"pbs {sites[src_site]} -> {sites[outs[0]]} {sites[outs[1]]}")

    occupied = sorted(support)
    if len(occupied) >= 2:
        probe = [int(i) for i in rng.choice(occupied, 2, replace=False)]
    else:
        probe = [occupied[0], int(rng.choice([i for i in range(n_sites) if i != occupied[0]]))]
    bases = ["ZHV", "Xdiag", "Ycirc", "number", "occupation"]
    if 2 in oam and -2 in oam:
        bases.insert(4, "pm")
    return {
        "text": "\n".join(lines) + "\n",
        "sites": tuple(sites),
        "oam": oam,
        "support": frozenset(support),
        "oam_support": {2 * q, -2 * q} if q else {0},
        "probe_sites": tuple(sites[i] for i in probe),
        "bases": tuple(bases),
        "sample_seed": int(rng.integers(2**31)),
    }


# optical_table slots: (sites, OAM values, elements) for the tables, then
# the report requests. Sizes are fixed per slot and the seed draws the
# circuit, so every cycle has the same size mix: five two-site tables
# (dim <= 85), eight with 3-8 sites (dim <= 200) and four with 13-16 sites
# (dim 513-673). Today's latencies put the median inside four tables of
# about 18 ms and p90 inside three large tables of about 300 ms, so neither
# falls on the edge between two size classes; the median belongs to
# preparation and measurement, p90 to the O(d^2) and O(d^3) reductions.
_TABLE_SLOTS = [
    "report", "report", "report",
    (2, 1, 20), (3, 1, 40), (2, 3, 60), (6, 3, 100), (2, 7, 120),
    (6, 4, 150), (4, 5, 150), (3, 9, 80), (5, 5, 150),
    (2, 13, 200), (5, 9, 300), (8, 12, 180), (2, 21, 300),
    (14, 18, 150), (16, 16, 150), (13, 20, 100), (16, 21, 300),
]


def optical_table_cycle(rng, cycle: int) -> list:
    ops = []
    for slot in _TABLE_SLOTS:
        if slot == "report":
            ops.append(_report(cycle, rng))
        else:
            ops.append(Op("table", cycle, spec=make_table(rng, *slot)))
    return ops


WORKLOADS = {
    "steer_lhs": steer_lhs_cycle,
    "chsh_sweep": chsh_sweep_cycle,
    "optical_table": optical_table_cycle,
}

# Fixed, tiny requests that fill lazy state (numpy.linalg, argparse, the
# basis caches) before timing; part of what ``setup_s`` measures.
_WARM_UP_ARGV = {
    "steer_lhs": (["steer", "--preset", "noisy:0.5", "--grid", "6"],
                  ["sweep", "--range", "0.5..0.5", "--grid", "6"]),
    "chsh_sweep": (["sweep", "--range", "0.5..0.5", "--grid", "6", "--format", "json"],),
    "optical_table": (["report", "--preset", "eq1"],),
}


def warm_up(name: str) -> None:
    for argv in _WARM_UP_ARGV[name]:
        run_cli(argv)
    if name == "optical_table":
        run_table(make_table(np.random.default_rng(0), 3, 3, 12))


def stream(name: str, seed: int):
    """Endless op sequence for one workload; the same seed gives the same ops."""
    cycle = 0
    while True:
        rng = np.random.default_rng([seed, cycle])
        ops = WORKLOADS[name](rng, cycle)
        for i in rng.permutation(len(ops)):
            yield ops[i]
        cycle += 1


def cycle_length(name: str) -> int:
    return len(WORKLOADS[name](np.random.default_rng(0), 0))
