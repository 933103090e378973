"""Run one photonsteer benchmark workload and print its metrics.

    python3 perfbench/run.py --workload steer_lhs --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``. One closed-loop client in this process sends each op only after
the previous one returned. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs every op twice, once untraced and once with every
public photonsteer function wrapped (alternating which goes first), reports
the per-layer metrics and the tracing overhead, and writes the spans to
``perfbench/out/``.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 9  # fresh processes per run; setup_s is their median

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import photonsteer.cli
import workloads
workloads.warm_up({name!r})
print(time.perf_counter() - t0)
"""

# A fixed fresh-process import of numpy and a few standard modules. Set-up
# is import work, which slows down less than hostspeed.py's kernel when the
# host is busy, so set-up probes are scaled by this reference instead: it
# runs before the first probe and after each one, and each probe's time is
# divided by the mean of its two neighbours over REFERENCE_IMPORT_S.
REFERENCE_CODE = """\
import time
t0 = time.perf_counter()
import argparse, csv, json, numpy, numpy.linalg
numpy.linalg.eigh(numpy.eye(4))
print(time.perf_counter() - t0)
"""
REFERENCE_IMPORT_S = 0.1


def _clamp_blas_threads() -> int:
    """Keep OpenBLAS at most one thread per usable CPU; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        wanted = nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(wanted, nproc)))
    return nproc


def _blas_threads():
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(nproc: int) -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": nproc,
        "cpu": "unknown",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in cpuinfo
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env[f"l{level}"] = size
    return env


def _child_seconds(code: str) -> float:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def setup_probes(name: str, runs: int) -> tuple[list, list]:
    """Import photonsteer and run the warm-up ops in ``runs`` fresh interpreters.

    Returns (raw, adjusted) seconds per probe, and the reference times.
    """
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), name=name)
    refs, probes = [_child_seconds(REFERENCE_CODE)], []
    for _ in range(runs):
        elapsed = _child_seconds(code)
        refs.append(_child_seconds(REFERENCE_CODE))
        probes.append((elapsed, elapsed * REFERENCE_IMPORT_S * 2.0 / (refs[-2] + refs[-1])))
    return probes, refs


@dataclass
class Record:
    op: object
    latency: float
    error: str | None  # the program raised or exited non-zero
    mismatch: str | None  # the answer failed an oracle
    outcome: object
    slowdown: float = 1.0  # host slowdown around this op (hostspeed.py)

    @property
    def ok(self) -> bool:
        return self.error is None and self.mismatch is None


def run_one(workloads, op, tracer=None, op_id=None) -> Record:
    """Send one op, time it, then check the answer outside the timed region."""
    if tracer:
        tracer.install()
        span = tracer.begin_op(op_id, op.kind)
    t0 = time.perf_counter()
    try:
        result, error = workloads.execute(op), None
    except Exception as exc:  # a failed op is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer:
        tracer.end_op(span)
        tracer.uninstall()
    outcome = mismatch = None
    if error is None:
        try:
            outcome = workloads.check(op, result)
        except Exception as exc:  # malformed output is a wrong answer too
            mismatch = f"{type(exc).__name__}: {exc}"
    return Record(op, latency, error, mismatch, outcome)


def measure(workloads, ops, seconds: float) -> list:
    """Closed loop for ``seconds``, timing the calibration kernel between ops."""
    import hostspeed

    records, kernel = [], [hostspeed.kernel_seconds()]
    start = time.perf_counter()
    for op in ops:
        if time.perf_counter() - start >= seconds:
            break
        records.append(run_one(workloads, op))
        kernel.append(hostspeed.kernel_seconds())
    for record, slowdown in zip(records, hostspeed.slowdowns(kernel)):
        record.slowdown = slowdown
    return records


def measure_paired(workloads, ops, seconds: float, tracer) -> tuple[list, list]:
    """Run every op untraced and traced, alternating which goes first."""
    plain, traced = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if time.perf_counter() - start >= seconds:
            break
        if i % 2:
            traced.append(run_one(workloads, op, tracer, i))
            plain.append(run_one(workloads, op))
        else:
            plain.append(run_one(workloads, op))
            traced.append(run_one(workloads, op, tracer, i))
    return plain, traced


def end_to_end(workloads, oracles, name: str, records: list, setup: list, refs: list) -> dict:
    """Metric name -> (value, unit, samples). Times are host-speed adjusted."""
    import resource

    import numpy as np

    # Throughput and ratios over whole cycles, so every run weighs the same mix.
    per_cycle = Counter(r.op.cycle for r in records)
    size = workloads.cycle_length(name)
    basis = [r for r in records if per_cycle[r.op.cycle] == size] or records
    ok = sum(r.ok for r in basis)
    verdicts = [v for r in basis if r.outcome for v in r.outcome.verdicts]
    inconclusive = sum(status == oracles.NOT_FOUND and cjwr <= 1.0 + oracles.EXACT_TOL
                       for status, cjwr in verdicts)
    raw = np.array([r.latency for r in records])
    adjusted = np.array([r.latency / r.slowdown for r in records])
    p50, p90 = np.percentile(adjusted, [50, 90])
    raw50, raw90 = np.percentile(raw, [50, 90])
    beyond = int(np.sum(adjusted > p90))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ops_per_s": (ok / sum(r.latency / r.slowdown for r in basis), "1/s", len(basis)),
        "latency_p50_ms": (1e3 * p50, "ms", len(adjusted)),
        "latency_p90_ms": (1e3 * p90, "ms", f"{len(adjusted)} ({beyond} beyond p90)"),
        "backed_ratio": (1.0 - inconclusive / len(verdicts) if verdicts else 1.0, "ratio",
                         len(verdicts)),
        "peak_rss_mb": (rss, "MB", 1),
        "setup_s": (statistics.median(adj for _, adj in setup), "s", len(setup)),
        # Printed for reading only. Every op must succeed, so failed_ratio is
        # 0; inconclusive_ratio is 0 on some workloads and is gated through
        # its complement, backed_ratio.
        "failed_ratio": (1.0 - ok / len(basis), "ratio", len(basis)),
        "inconclusive_ratio": (inconclusive / len(verdicts) if verdicts else 0.0, "ratio",
                               len(verdicts)),
        "raw_ops_per_s": (ok / sum(r.latency for r in basis), "1/s", len(basis)),
        "raw_latency_p50_ms": (1e3 * raw50, "ms", len(raw)),
        "raw_latency_p90_ms": (1e3 * raw90, "ms", len(raw)),
        "raw_setup_s": (statistics.median(r for r, _ in setup), "s", len(setup)),
        "setup_reference_s": (statistics.median(refs), "s", len(refs)),
        "host_slowdown": (statistics.median(r.slowdown for r in records), "ratio", len(records)),
    }


GATED = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "backed_ratio", "peak_rss_mb",
         "setup_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("steer_lhs", "chsh_sweep", "optical_table"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "photonsteer" / "__init__.py").is_file():
        print(f"error: no photonsteer sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = _clamp_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import photonsteer

    if Path(photonsteer.__file__).resolve().parent != (SRC / "photonsteer").resolve():
        print(f"error: imported photonsteer from {photonsteer.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import oracles
    import tracer as tracing
    import workloads

    env = environment(nproc)
    setup, refs = ([], []) if args.trace else setup_probes(args.workload, SETUP_RUNS)
    workloads.warm_up(args.workload)
    ops = workloads.stream(args.workload, args.seed)

    print(f"photonsteer benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        tracer = tracing.Tracer(photonsteer)
        plain, traced = measure_paired(workloads, ops, args.seconds, tracer)
        records = plain + traced
        cli_bytes = [r.outcome.out_bytes for r in traced if r.outcome and r.op.kind != "table"]
        metrics = tracing.layer_metrics(tracer.spans, cli_bytes)
        # Geometric mean of per-op ratios: the op run second is often faster,
        # and alternating the order cancels that only when each op counts once.
        log_ratio = [math.log(p.latency / t.latency) for p, t in zip(plain, traced)]
        metrics["trace.ops_per_s_ratio"] = math.exp(statistics.fmean(log_ratio))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.tsv")
        print(f"ops: {len(traced)}, each run untraced and traced; "
              f"{len(tracer.spans)} spans in {out_dir / f'spans-{args.workload}.tsv'}")
        print(f"{'metric':34} {'value':>14}  unit")
        for name, value in metrics.items():
            print(f"{name:34} {value:14.6g}  {tracing.unit(name)}")
        result = {name: {"value": value, "unit": tracing.unit(name)}
                  for name, value in metrics.items()}
    else:
        records = measure(workloads, ops, args.seconds)
        metrics = end_to_end(workloads, oracles, args.workload, records, setup, refs)
        cycles = len({r.op.cycle for r in records})
        print(f"ops: {len(records)} in {cycles} cycles of {workloads.cycle_length(args.workload)}; "
              "throughput and ratios over whole cycles, latency over every op")
        print(f"{'metric':20} {'value':>14}  {'unit':6} samples")
        for name, (value, unit, samples) in metrics.items():
            print(f"{name:20} {value:14.6g}  {unit:6} {samples}")
        result = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in GATED}

    failures = [r for r in records if not r.ok]
    for r in failures[:5]:
        print(f"FAILED {r.op.kind} {r.op.argv or r.op.spec.get('text', '')[:60]!r}: "
              f"{r.mismatch or r.error}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
