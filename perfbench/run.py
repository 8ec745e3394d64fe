#!/usr/bin/env python3
"""Benchmark of ascart: streams of curves, timed one curve at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_prime --seed 1 --seconds 20 --trace 0

At set-up the workload's curves are drawn from --seed (workloads.py).  A
single client then sends them in a closed loop: each curve is one timed item,
and the next starts when the previous one has finished.  The loop runs
in-process and single-threaded, like the package.  It makes whole passes over
the curves until --seconds have gone by, so every curve is timed equally
often.  Every result goes through the workload's independent check.  A failed
check, an exception, or a result that changes between passes counts as a
failed run and does not stop the loop.

The machines this runs on share their cores with other tenants, and their
speed swings by up to 1.8x within seconds and for minutes at a time.  So
every time is scaled to a fixed host speed: a fixed pure-Python kernel
(reference_ns) runs between curves, and each curve's wall time is multiplied
by REFERENCE_NS over the mean of the kernel's times just before and just
after it.  The kernel is the benchmark's own code and never calls into
ascart, so a change to the package moves the scaled times as it moves the
wall times.  The wall-time figures are printed too, for information.

The latency metrics pool every timed run of every curve; whole passes give
each curve the same weight however many passes fit.  setup_s is the median
over SETUP_PROBES fresh interpreters, spread over the run and scaled the same
way.  Each one imports the package, finds the field's modulus and draws the
curves.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics instead.  It runs a fixed amount of work, so its counts repeat
exactly.  First it times untraced field-op loops.  Then it runs each of the
first TRACE_CURVES curves untraced and then under the tracer (tracing.py),
which is removed again after each curve.  Per-layer times are wall times.

Human-readable lines come first.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when a
result was printed and 2 when the package could not be loaded from <root>/src.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

REFERENCE_STEPS = 1500
REFERENCE_NS = 1_500_000  # the kernel's time on the tuning machine when it runs fast
SETUP_PROBES = 9
IMPORT_PROBES = 3
TRACE_CURVES = 20
FIELD_OP_ELEMENTS = 256
FIELD_OP_REPEATS = 5
CHILD_TIMEOUT_S = 60

E2E_UNITS = {
    "curves_per_s": "1/s",
    "curve_ms_p50": "ms",
    "curve_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

FIELD_OPS = ("mul", "add", "inv", "pth_root", "trace", "is_zero")

LAYER_UNITS = {
    **{f"finite_field.{op}_per_curve": "count" for op in FIELD_OPS},
    **{f"finite_field.{op}_ns": "ns" for op in ("mul", "inv", "pth_root", "trace")},
    "ratfunc.pf_mul_ms": "ms",
    "ratfunc.pf_mul_per_curve": "count",
    "ratfunc.poly_mul_ms": "ms",
    "ratfunc.poly_mul_per_curve": "count",
    "ratfunc.partial_fractions_ms": "ms",
    "ratfunc.partial_fractions_per_curve": "count",
    "cartier.matrix_ms": "ms",
    "cartier.ms_per_column": "ms",
    "invariants.rank_ms": "ms",
    "invariants.p_rank_ms": "ms",
    "curve.validate_per_curve": "count",
    "curve.validate_ms": "ms",
    "curve.basis_ms": "ms",
    "zeta.count_points_ms": "ms",
    "zeta.count_points_per_curve": "count",
    "zeta.elements_per_curve": "count",
    "zeta.ns_per_element": "ns",
    "zeta.l_from_counts_ms": "ms",
    "zeta.polygons_ms": "ms",
    "sweep.random_curve_ms": "ms",
    "cli.import_ms": "ms",
    "bench.trace_overhead_ms": "ms",
}

# Run in a fresh interpreter: argv = src dir, perfbench dir, workload, seed, curves.
_SETUP_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.make_curves(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]), int(sys.argv[5]))
print("ready", flush=True)
"""

# argv = src dir.  Prints the milliseconds `import ascart.cli` took.
_IMPORT_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import ascart.cli
print((time.perf_counter() - t) * 1e3, flush=True)
"""


def _child_ready(code: str, *args: str) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter to its first line, and the line."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            status = proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if status != 0 or not line.strip():
        raise RuntimeError(f"child interpreter exited with {status}")
    return elapsed, line.strip()


class _Cell:
    """A small object with arithmetic operators, like a field element."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def __mul__(self, other: "_Cell") -> "_Cell":
        return _Cell(self.v * other.v % 1_000_003)

    def __add__(self, other: "_Cell") -> "_Cell":
        return _Cell((self.v + other.v) % 1_000_003)


def reference_ns() -> int:
    """Wall time in ns of one run of a fixed pure-Python kernel.

    The kernel makes and drops small objects through operator methods, as
    ascart's field arithmetic does.  Of the kernels tried (integer loops,
    large lists and dicts, objects), this one followed the host's swings in
    curve time most closely.  The collector is off while it runs, so a heap
    that the package has grown cannot slow it.
    """
    cells = [_Cell(i) for i in range(32)]
    a, b = _Cell(3), _Cell(7)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        for i in range(REFERENCE_STEPS):
            a = a * b + cells[i & 31]
            b = b + a
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(wall: float, before_ns: int, after_ns: int) -> float:
    """`wall` scaled to a host on which reference_ns() reads REFERENCE_NS.

    `before_ns` and `after_ns` are the kernel's times just before and just
    after the timed work.
    """
    return wall * 2 * REFERENCE_NS / (before_ns + after_ns)


def setup_once(workload: str, seed: int, curves: int) -> float:
    """Seconds from a fresh interpreter to a workload's curves in memory, scaled."""
    args = (str(SRC), str(HERE), workload, str(seed), str(curves))
    before = reference_ns()
    seconds = _child_ready(_SETUP_CHILD, *args)[0]
    return at_reference_speed(seconds, before, reference_ns())


def import_ms(probes: int = IMPORT_PROBES) -> float:
    return statistics.median(
        float(_child_ready(_IMPORT_CHILD, str(SRC))[1]) for _ in range(probes)
    )


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class Loop:
    """Closed loop over one workload's curves: times, checks and records each run."""

    def __init__(self, workload, curves):
        self.w = workload
        self.curves = curves
        self.wall_ns: list[int] = []
        self.scaled_ns: list[float] = []  # wall_ns at reference speed
        self.reference: int | None = None  # reference_ns() after the last curve
        self.passes = 0
        self.first: dict[int, bytes] = {}  # curve index -> sha256 of its canonical result
        self.failed = 0
        self.problems: list[str] = []

    def one(self, j: int) -> None:
        before = self.reference or reference_ns()
        start = time.perf_counter_ns()
        try:
            raw = self.w.compute(self.curves[j])
            error = None
        except Exception as exc:  # counted as a failed curve; the run goes on
            raw, error = None, exc
        ns = time.perf_counter_ns() - start
        self.reference = reference_ns()
        self.wall_ns.append(ns)
        self.scaled_ns.append(at_reference_speed(ns, before, self.reference))
        try:
            if error is not None:
                raise error
            result = self.w.canonical(raw)
            problems = self.w.check(self.w, result)
        except Exception as exc:
            result = {"error": type(exc).__name__}
            problems = ["".join(traceback.format_exception_only(exc)).strip()]
        # Only a digest is kept: stored results would make garbage collection
        # slower as the run goes on.
        digest = hashlib.sha256(_canonical_json(result)).digest()
        if self.first.setdefault(j, digest) != digest:
            problems.append("result differs from the first pass over this curve")
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"curve {j}: " + "; ".join(problems))

    def one_pass(self, between=lambda: None) -> None:
        """Run every curve once, in order; `between()` is called before each, untimed."""
        for j in range(len(self.curves)):
            between()
            self.one(j)
        self.passes += 1

    def run(self, seconds: float, between=lambda elapsed: None) -> "Loop":
        """Make whole passes over the curves until `seconds` have gone by.

        `between(elapsed)` is called before each curve, outside its timing.
        """
        start = time.perf_counter()
        while True:
            self.one_pass(lambda: between(time.perf_counter() - start))
            if time.perf_counter() - start >= seconds:
                return self

    @property
    def attempted(self) -> int:
        return len(self.wall_ns)

    def digest(self) -> str:
        """sha256 over the digests of every curve's canonical result, in curve order."""
        return hashlib.sha256(b"".join(self.first[j] for j in sorted(self.first))).hexdigest()


def e2e_metrics(loop: Loop, setup_s: float) -> dict[str, float]:
    """The gated metrics, over every run of every curve at reference speed."""
    ns = loop.scaled_ns
    return {
        "curves_per_s": len(ns) / (sum(ns) / 1e9),
        "curve_ms_p50": statistics.median(ns) / 1e6,
        "curve_ms_p90": statistics.quantiles(ns, n=10)[-1] / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def field_op_ns(field, seed: int) -> dict[str, float]:
    """Untraced ns per operation over random nonzero elements of `field`."""
    rng = random.Random(seed)
    xs = [field.random_element(rng, nonzero=True) for _ in range(FIELD_OP_ELEMENTS)]
    ys = xs[1:] + xs[:1]
    ops = {
        "mul": lambda: [a * b for a, b in zip(xs, ys)],
        "inv": lambda: [a.inverse() for a in xs],
        "pth_root": lambda: [a.pth_root() for a in xs],
        "trace": lambda: [a.trace_to_prime() for a in xs],
    }
    out = {}
    for name, op in ops.items():
        times = []
        for _ in range(FIELD_OP_REPEATS):
            start = time.perf_counter_ns()
            op()
            times.append((time.perf_counter_ns() - start) / len(xs))
        out[f"finite_field.{name}_ns"] = statistics.median(times)
    return out


COUNTED_SPANS = ("ratfunc.pf_mul", "ratfunc.poly_mul", "ratfunc.partial_fractions",
                 "curve.validate", "zeta.count_points")
TIMED_SPANS = COUNTED_SPANS + ("cartier.matrix", "invariants.rank", "invariants.p_rank",
                               "curve.basis", "zeta.l_from_counts", "zeta.polygons")


def layer_metrics(w, tracer, curves: int) -> dict[str, float]:
    totals = tracer.span_totals()

    def total(span, key):
        return totals.get(span, {}).get(key, 0)

    out = {f"finite_field.{op}_per_curve": tracer.counts[op] / curves for op in FIELD_OPS}
    out.update({f"{span}_per_curve": total(span, "calls") / curves for span in COUNTED_SPANS})
    out.update({f"{span}_ms": total(span, "self_ns") / 1e6 / curves for span in TIMED_SPANS})
    columns = total("cartier.matrix", "calls") * w.g
    elements = tracer.counts["zeta.elements"]
    out["cartier.ms_per_column"] = (
        total("cartier.matrix", "total_ns") / 1e6 / columns if columns else 0.0
    )
    out["zeta.elements_per_curve"] = elements / curves
    out["zeta.ns_per_element"] = (
        total("zeta.count_points", "total_ns") / elements if elements else 0.0
    )
    return out


def run(name: str, seed: int, seconds: float, trace: bool, *,
        curves: int | None = None, trace_curves: int = TRACE_CURVES,
        setup_probes: int = SETUP_PROBES, import_probes: int = IMPORT_PROBES) -> dict:
    """One benchmark run.

    Returns the fields of the JSON result line plus the number of distinct
    curves and of passes, wall-time figures, the digest and the first few
    problems.
    """
    import tracing
    import workloads
    from ascart import GF

    w = workloads.WORKLOADS[name]
    curves = w.curves if curves is None else curves
    start = time.perf_counter()
    specs = workloads.make_curves(w, seed, curves)
    gen_ms = (time.perf_counter() - start) * 1e3 / curves
    if not trace:
        setup_times: list[float] = []

        def probe_on_schedule(elapsed):
            # spread the probes over the run, so they see the machine as the curves do
            if len(setup_times) < setup_probes and elapsed >= seconds * len(setup_times) / setup_probes:
                setup_times.append(setup_once(name, seed, curves))

        loop = Loop(w, specs).run(seconds, probe_on_schedule)
        while len(setup_times) < setup_probes:
            setup_times.append(setup_once(name, seed, curves))
        metrics = e2e_metrics(loop, statistics.median(setup_times))
        loops = (loop,)
    else:
        metrics = field_op_ns(GF(w.p, w.top_k), seed)
        metrics["sweep.random_curve_ms"] = gen_ms
        metrics["cli.import_ms"] = import_ms(import_probes)
        # Each curve runs untraced, then traced, so drift in machine speed
        # affects both sides of the overhead alike.
        untraced, loop, tracer = Loop(w, specs), Loop(w, specs), tracing.Tracer()
        for j in range(trace_curves):
            untraced.one(j)
            with tracer:
                loop.one(j)
        metrics.update(layer_metrics(w, tracer, trace_curves))
        metrics["bench.trace_overhead_ms"] = (
            (sum(loop.wall_ns) - sum(untraced.wall_ns)) / 1e6 / trace_curves
        )
        loops = (untraced, loop)
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "correct": all(lp.failed == 0 for lp in loops),
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "curves": len(loop.first),
        "passes": loop.passes,
        "wall_runs_per_s": loop.attempted / (sum(loop.wall_ns) / 1e9),
        "wall_ms_p50": statistics.median(loop.wall_ns) / 1e6,
        "host_slowdown": statistics.median(
            wall / scaled for wall, scaled in zip(loop.wall_ns, loop.scaled_ns)),
        "digest": loop.digest(),
        "problems": [p for lp in loops for p in lp.problems],
    }


def _load_package() -> str | None:
    """Put <root>/src first on the path; return an error if ascart is not there."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import ascart
    except ImportError as exc:
        return f"cannot import ascart from {SRC}: {exc}"
    location = Path(ascart.__file__).resolve()
    if SRC.resolve() not in location.parents:
        return f"ascart was imported from {location}, not from {SRC}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    error = _load_package()
    if error:
        print(error, file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {w.name}: {w.field_name} orders {w.orders} D={w.D} g={w.g} "
          f"a={w.a} s={w.s}, seed {args.seed}, trace {args.trace}")
    print(f"{result['curves']} curves, {result['passes']} passes, {result['attempted']} runs, "
          f"{result['failed']} failed, fail_frac {result['failed'] / result['attempted']}, "
          f"digest {result['digest']}")
    print(f"wall time: {result['wall_runs_per_s']:.4g} runs/s, p50 {result['wall_ms_p50']:.4g} ms, "
          f"host {result['host_slowdown']:.3g}x slower than reference speed")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
