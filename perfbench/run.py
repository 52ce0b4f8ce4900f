"""Benchmark of the dunkl_appell operator library.

Run from the repository root:

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 10 --trace 0

One process, one thread, one caller in a closed loop: the next operation
starts when the previous one returns.  ``DUNKL_APPROX_THREADS`` is removed
from the environment.  A run

1. times ``setup_s``: the median wall time of five fresh interpreters that
   import the library from ``src/`` and build the workload's inputs;
2. computes every distinct point once (this warms lazy state) and checks
   those reference outputs against independent references (``checks.py``);
3. runs the timed loop for ``--seconds``; an operation fails if it raises,
   if its output differs from the checked reference, or if its point failed
   its check, and a failed operation counts as infinitely slow;
4. probes how far ``apply`` reaches in n*x on the workload's families.

Times are reported on a machine-speed scale.  On a shared two-vCPU
machine the speed of one core drifted by up to 1.5x between runs minutes
apart (ten-run spreads of raw wall throughput: 14-39%), and a fixed
pure-Python kernel (``_kernel``) slows with it.  Between cycles of the
timed loop (every ``PROBE_EVERY_S``) the run times that kernel, and the
operations of each stretch between two probes are scaled by
``REF_KERNEL_S`` over the mean of those two kernel times, i.e. expressed
on a machine where the kernel takes exactly 1 ms.  ``setup_s`` is bound by
start-up and imports, tracks the kernel less well and is reported as
measured.  The raw wall figures and the kernel time are printed and kept
in the run record.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of ``BENCHMARK.json``.  With ``--trace 1`` the
loop runs half the time untraced and half traced (``spans.py``), the check
pass is traced as well, and the JSON carries every per-layer metric
(``setup_s`` is not measured then).  The run record (machine, settings,
metrics) and, when traced, the spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
REF_KERNEL_S = 1e-3  # the speed scale: the kernel's time on the reference machine
PROBE_EVERY_S = 0.25  # least timed-loop seconds between speed probes
PROBE_CALLS = 5


def _kernel():
    """Fixed pure-Python work like the library's: a float recurrence,
    small-object allocation and a short convolution (about 1 ms)."""
    u, acc = 1.0, 0.0
    for i in range(1, 1500):
        u = u * 0.999 + 1.0 / i
        acc += u * (i & 1)
    rows = [(float(i), i * 0.5, str(i)) for i in range(300)]
    table = {r[2]: r for r in rows}
    coeffs = [(k, 0.5 ** k) for k in range(0, 48, 2)]
    u, out = [1.0], []
    for i in range(200):
        w = 0.0
        for k, c in coeffs:
            if k > i:
                break
            w += c * u[i - k]
        out.append(w)
        u.append(u[i] * 150.0 / (i + 1 + ((i + 1) & 1)))
    return acc + len(table) + sum(out)


def _kernel_seconds():
    """Mean time of one kernel call over ``PROBE_CALLS`` calls."""
    start = time.perf_counter()
    for _ in range(PROBE_CALLS):
        _kernel()
    return (time.perf_counter() - start) / PROBE_CALLS


def _use_checkout_library():
    if not (SRC / "dunkl_appell" / "__init__.py").is_file():
        sys.exit(f"error: no library sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _setup_seconds(args):
    """Median wall time of fresh interpreters that only import and build."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    walls = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def _timed_loop(wl, refs, point_ok, seconds, tracer=None, probe=False):
    """Closed loop over ``wl.order`` for ``seconds``, in whole cycles.

    With ``probe``, the loop is cut into segments of at least
    ``PROBE_EVERY_S`` at cycle boundaries, and the kernel is timed before
    the first segment and after each one.  Returns per-operation latencies
    in ns (inf for a failed operation), the segments as (first operation,
    end operation, wall seconds, kernel seconds before and after), and the
    first error seen."""
    latencies = []
    first_error = None
    order = wl.order
    segments = []
    kernel = _kernel_seconds() if probe else None
    i = seg_i = 0
    seg_t = time.perf_counter()
    deadline = seg_t + seconds
    while i % wl.count or time.perf_counter() < deadline:
        if probe and i % wl.count == 0 and i > seg_i and time.perf_counter() - seg_t >= PROBE_EVERY_S:
            wall = time.perf_counter() - seg_t
            after = _kernel_seconds()
            segments.append((seg_i, i, wall, kernel, after))
            kernel, seg_i, seg_t = after, i, time.perf_counter()
        k = order[i % len(order)]
        if tracer is not None:
            tracer.point = i
        t0 = time.perf_counter_ns()
        try:
            out = wl.op(k)
        except Exception as exc:  # a failed operation; the loop goes on
            out = exc
        t1 = time.perf_counter_ns()
        if point_ok[k] and out == refs[k]:
            latencies.append(t1 - t0)
        else:
            latencies.append(math.inf)
            if first_error is None:
                first_error = f"point {k}: {out!r}" if isinstance(out, Exception) else f"point {k}: failed check"
        i += 1
    wall = time.perf_counter() - seg_t
    segments.append((seg_i, i, wall, kernel, _kernel_seconds() if probe else None))
    if tracer is not None:
        tracer.point = -1
    return latencies, segments, first_error


def _latency_ms(latencies, q):
    from spans import nearest_rank

    value = nearest_rank(sorted(latencies), q) / 1e6
    return value if math.isfinite(value) else None


def _set_walls(wl, latencies):
    """Wall time of each complete command set, in seconds."""
    n = wl.count
    return [sum(latencies[j:j + n]) / 1e9 for j in range(0, len(latencies) - n + 1, n)]


def _machine():
    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "threads": "DUNKL_APPROX_THREADS unset: one thread",
    }


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None):
    args = _parse(argv)
    os.environ.pop("DUNKL_APPROX_THREADS", None)
    _use_checkout_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        workloads.build(args.workload, args.seed, OUT)
        return 0

    from checks import Accuracy, apply_reach
    from spans import Tracer

    declared = _declared_metrics(args.trace)
    wl = workloads.build(args.workload, args.seed, OUT)
    refs = [wl.op(k) for k in range(wl.count)]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    acc = Accuracy()
    try:
        point_ok = wl.check(refs, acc)
    finally:
        if tracer:
            tracer.uninstall()

    if args.trace:
        plain, _, error = _timed_loop(wl, refs, point_ok, args.seconds / 2)
        tracer.install()
        try:
            traced, _, traced_error = _timed_loop(wl, refs, point_ok, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        latencies = plain + traced
        error = error or traced_error
        labels = getattr(wl, "labels", None)
        metrics = tracer.layer_metrics(
            lambda i: labels[wl.order[i % len(wl.order)]] if labels else None
        )
        # The same operations, in the same order, with and without tracing.
        pairs = [(p, t) for p, t in zip(plain, traced) if math.isfinite(p + t)]
        metrics["trace.overhead_frac"] = (
            sum(t for _, t in pairs) / sum(p for p, _ in pairs) - 1.0 if pairs else 0.0
        )
        walls = _set_walls(wl, plain) if labels else []
        metrics["cli.set_wall_s"] = statistics.median(walls) if walls else 0.0
        metrics["cli.rows_per_s"] = (
            statistics.median([wl.rows_per_set / w for w in walls]) if walls else 0.0
        )
    else:
        latencies, segments, error = _timed_loop(wl, refs, point_ok, args.seconds, probe=True)
        done = sum(1 for v in latencies if math.isfinite(v))
        # Each segment is scaled by the mean of the kernel times around it.
        scales = [2.0 * REF_KERNEL_S / (before + after) for *_, before, after in segments]
        scaled = [
            v * scale for (lo, hi, *_), scale in zip(segments, scales) for v in latencies[lo:hi]
        ]
        raw = {
            "points_per_s": done / sum(wall for _, _, wall, _, _ in segments),
            "point_p50_ms": _latency_ms(latencies, 0.50),
            "point_p99_ms": _latency_ms(latencies, 0.99),
            "kernel_s": statistics.mean(k for seg in segments for k in seg[3:]),
        }
        metrics = {
            "setup_s": _setup_seconds(args),
            "points_per_s": done / sum(seg[2] * scale for seg, scale in zip(segments, scales)),
            "point_p50_ms": _latency_ms(scaled, 0.50),
            "point_p99_ms": _latency_ms(scaled, 0.99),
            **acc.metrics(),
        }
    failed = sum(1 for v in latencies if not math.isfinite(v))
    if args.trace:
        metrics["failed_frac"] = failed / len(latencies)
    else:
        metrics["apply_reach_nx"] = apply_reach(wl.reach_families())

    if set(metrics) != set(declared):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
    correct = failed == 0 and all(point_ok)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "points": wl.count,
        "points_failing_check": point_ok.count(False),
        "first_error": error,
        "metrics": metrics,
    }
    if not args.trace:
        record["raw_wall"] = raw
    if tracer:
        record["spans"] = str(OUT / f"{stem}-spans.csv.gz")
        tracer.dump(record["spans"])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    if error:
        print(f"first failure: {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value} {declared[name]}")
    if not args.trace:
        print("raw wall figures: " + json.dumps(raw))
    result = {
        "correct": correct,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": declared[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
