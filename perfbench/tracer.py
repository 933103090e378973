"""Span tracer that wraps photonsteer's public functions from the outside.

``Tracer.install`` wraps every public function defined in the package's
modules and rebinds the wrapper at *every* name that refers to the
original: the defining module, each module that imported it by name (for
example ``steering.solve_feasibility``, ``measurement.to_density``,
``elements.apply_local_unitary``, ``cli.parse_circuit``) and the package
namespace. Calls inside a module go through its globals, so they are seen
too. No file of the package changes.

A span is ``[name, start, end, parent index, op id, info]``; spans stay in
memory and are written out once, after the run. ``layer_metrics`` turns
them into the per-layer metrics, normalised per traced op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import tracemalloc
from time import perf_counter

MODULES = ("core", "elements", "circuit", "measurement", "steering", "simplex", "scenarios", "cli")


def _dim(args, kwargs, result, exc):
    first = args[0] if args else None
    decl = getattr(first, "decl", None)
    if decl is not None:
        return {"dim": decl.dim}
    dim = getattr(first, "dim", None)
    return {"dim": dim} if isinstance(dim, int) else None


def _simplex(args, kwargs, result, exc):
    a = args[0] if args else kwargs["A"]
    info = {"columns": int(a.shape[1])}
    if exc is not None:
        info["failed"] = isinstance(exc, ArithmeticError)
    else:
        info.update(pivots=result.iterations, feasible=bool(result.feasible))
    return info


def _lhs(args, kwargs, result, exc):
    assemblage = args[0] if args else kwargs["assemblage"]
    grid_n = args[1] if len(args) > 1 else kwargs["grid_n"]
    return {"key": (grid_n, len(assemblage.settings))}


def _chsh_k(args, kwargs):
    step = args[1] if len(args) > 1 else kwargs["grid_step_deg"]
    return round(360.0 / step)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.op_id = None
        self._stack: list = []
        self._patches: list = []

    def install(self) -> None:
        if not self._patches:
            self._patches = self._bindings()
        for namespace, name, _, wrapper in self._patches:
            setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        for namespace, name, original, _ in self._patches:
            setattr(namespace, name, original)

    def _bindings(self) -> list:
        """(namespace, name, original, wrapper) for every name bound to a public function."""
        modules = [importlib.import_module(f"{self.package.__name__}.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        return [
            (namespace, name, obj, wrappers[obj])
            for namespace in (self.package, *modules)
            for name, obj in vars(namespace).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        if name.startswith("core."):
            hook = _dim
        else:
            hook = {"simplex.solve_feasibility": _simplex, "steering.lhs_feasibility": _lhs}.get(name)
        chsh = name == "steering.chsh_optimize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            if chsh:
                tracemalloc.start()
            result = exc = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if chsh:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    span[5] = {"k": _chsh_k(args, kwargs), "peak": peak}
                elif hook is not None:
                    span[5] = hook(args, kwargs, result, exc)

        return wrapper

    def begin_op(self, op_id: int, kind: str) -> list:
        """Open the root span of one op; its self time is the uncovered remainder."""
        self.op_id = op_id
        span = [f"op.{kind}", 0.0, 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def end_op(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()
        self.op_id = None

    def write(self, path) -> None:
        """Spans as tab-separated lines; times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\top\tparent\tname\tstart_us\tend_us\n")
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                handle.write(f"{i}\t{op}\t{parent}\t{name}\t{(start - t0) * 1e6:.1f}"
                             f"\t{(end - t0) * 1e6:.1f}\n")


MB = 1e6


def layer_metrics(spans: list, cli_bytes: list) -> dict:
    """Per-layer metrics of the traced ops.

    ``*_ms`` and counts are per traced op, ``share.*`` are self-time shares of
    the total op time. A function's time is the duration of its outermost
    spans; a span's self time is its duration minus its children's.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    module = [s[0].split(".", 1)[0] for s in spans]
    child = [0.0] * n
    simplex_child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
            if module[i] == "simplex":
                simplex_child[s[3]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]
    traced = [i for i in range(n) if spans[i][4] is not None]
    ops = [i for i in traced if spans[i][3] == -1]
    n_ops = len(ops) or 1
    op_time = sum(dur[i] for i in ops) or 1.0

    def parent_name(i):
        return spans[spans[i][3]][0] if spans[i][3] >= 0 else ""

    def named(*names):
        return [i for i in traced if spans[i][0] in names and parent_name(i) not in names]

    def ms(idx):
        return 1e3 * sum(dur[i] for i in idx) / n_ops

    lps = named("simplex.solve_feasibility")
    solved = [spans[i][5] for i in lps if "pivots" in spans[i][5]]
    pivots = sum(x["pivots"] for x in solved)
    lhs = named("steering.lhs_feasibility")
    seen, repeats = set(), 0
    for i in lhs:
        key = spans[i][5]["key"]
        repeats += key in seen
        seen.add(key)
    chsh = [spans[i][5] for i in named("steering.chsh_optimize")]
    elements = [i for i in traced if module[i] == "elements"
                and (spans[i][3] < 0 or module[spans[i][3]] != "elements")]
    dims = [spans[i][5]["dim"] for i in traced if module[i] == "core" and spans[i][5]]
    born = named("measurement.born_probabilities")

    out = {
        "simplex.busy_ms": ms(lps),
        "simplex.lps": len(lps) / n_ops,
        "simplex.pivots": pivots / n_ops,
        "simplex.columns": sum(spans[i][5]["columns"] for i in lps) / len(lps) if lps else 0.0,
        "simplex.us_per_pivot": 1e6 * sum(dur[i] for i in lps if "pivots" in spans[i][5])
        / pivots if pivots else 0.0,
        "simplex.feasible_ratio": sum(x["feasible"] for x in solved) / len(solved) if solved else 0.0,
        "simplex.failed": sum(spans[i][5].get("failed", False) for i in lps) / n_ops,
        "steering.lhs_calls": len(lhs) / n_ops,
        "steering.lhs_build_ms": 1e3 * sum(dur[i] - simplex_child[i] for i in lhs) / n_ops,
        "steering.lhs_repeat_ratio": repeats / len(lhs) if lhs else 0.0,
        "steering.chsh_opt_ms": ms(named("steering.chsh_optimize")),
        "steering.chsh_opt_calls": len(chsh) / n_ops,
        "steering.chsh_opt_computed_mb": sum(2 * x["k"] ** 3 * 8 for x in chsh) / len(chsh) / MB
        if chsh else 0.0,
        "steering.chsh_opt_peak_mb": max((x["peak"] for x in chsh), default=0) / MB,
        "steering.frame_ms": ms(named("steering.pol_path_qubits", "steering.occupation_qubits")),
        "steering.assemblage_ms": ms(named("steering.compute_assemblage")),
        "steering.cjwr_ms": ms(named("steering.cjwr_value")),
        "circuit.parse_ms": ms(named("circuit.parse_circuit")),
        "circuit.run_self_ms": 1e3 * sum(self_time[i] for i in named("circuit.run_circuit")) / n_ops,
        "elements.calls": len(elements) / n_ops,
        "elements.busy_ms": ms(elements),
        "core.to_density_ms": ms(named("core.to_density")),
        "core.partial_trace_ms": ms(named("core.partial_trace")),
        "core.apply_local_unitary_ms": ms(named("core.apply_local_unitary")),
        "core.max_dim": float(max(dims, default=0)),
        "measurement.born_ms": ms(born),
        "measurement.born_calls": len(born) / n_ops,
        "measurement.reduced_state_ms": ms(named("measurement.reduced_state")),
        "measurement.sample_ms": ms(named("measurement.sample_outcomes", "measurement.sample_outcome")),
        "scenarios.preset_ms": ms(named("scenarios.preset")),
        "scenarios.frame_ms": ms(named("scenarios.steering_frame")),
        "scenarios.report_ms": ms(named("scenarios.scenario_report")),
        "cli.self_ms": 1e3 * sum(self_time[i] for i in traced if module[i] == "cli") / n_ops,
        "cli.out_bytes": sum(cli_bytes) / len(cli_bytes) if cli_bytes else 0.0,
    }
    for mod in MODULES:
        out[f"share.{mod}"] = sum(self_time[i] for i in traced if module[i] == mod) / op_time
    out["share.uncovered"] = sum(self_time[i] for i in ops) / op_time
    return out


UNITS = {
    "_ms": "ms/op", "_mb": "MB", "_ratio": "ratio", "us_per_pivot": "us", "max_dim": "count",
    "out_bytes": "B/op", "columns": "count/LP",
}


def unit(name: str) -> str:
    if name.startswith("share.") or name.startswith("trace."):
        return "ratio"
    for suffix, u in UNITS.items():
        if name.endswith(suffix):
            return u
    return "1/op"
