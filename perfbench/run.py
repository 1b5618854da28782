"""quadsketch benchmark: one workload, one process, one client.

    python3 perfbench/run.py --workload cut-build --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory. The untraced run (--trace 0) prints the end-to-end
metrics; the traced run (--trace 1) runs the same loop untraced, then again
with every public layer function wrapped, and prints per-layer metrics. The
last line of standard output is the JSON result; the line before it is a
record with the detailed per-workload metrics and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"  # one worker process on a 2-core machine: no BLAS threads
SETUP_BUDGET_S = 3.0  # set up again while all set-ups so far took less than this
SETUP_MAX_REPS = 200
GAUGE_ITERATIONS = 100_000  # one gauge slice
GAUGE_NOMINAL_MS = 8.0  # slice time of the nominal host that timings are scaled to
GAUGE_EVERY_S = 0.25  # least time between two slices
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# end-to-end metric units, in BENCHMARK.json order
GATED_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "sketch_bytes": "B",
    "within_eps_frac": "ratio",
}


def _set_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("QUADSKETCH_THREADS", None)


def _import_library() -> None:
    """Import quadsketch from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import quadsketch

    if Path(quadsketch.__file__).resolve().parent != SRC / "quadsketch":
        raise ImportError(f"quadsketch imported from {quadsketch.__file__}, not {SRC}")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class HostGauge:
    """Times slices of a fixed pure-Python loop between operations.

    The benchmark shares its cores with other machines' work, and the host's
    speed swings by up to about 1.8x over seconds to minutes. Gated timings
    are scaled to a nominal host: a time measured in a phase (the set-ups,
    the timed loop) is multiplied by ``scale()``, GAUGE_NOMINAL_MS over the
    median slice time of that phase. A poll runs one slice per
    GAUGE_EVERY_S elapsed since the last, so the slices sample the phase
    evenly in time however long the operations are."""

    def __init__(self):
        self.slices_ms: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(GAUGE_ITERATIONS):
            total += i * i
        self.last = time.perf_counter()
        self.slices_ms.append(1e3 * (self.last - t0))

    def poll(self) -> None:
        for _ in range(int((time.perf_counter() - self.last) / GAUGE_EVERY_S)):
            self.sample()

    def median_ms(self) -> float:
        return statistics.median(self.slices_ms)

    def scale(self) -> float:
        return GAUGE_NOMINAL_MS / self.median_ms()


def environment() -> dict:
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": _git_commit(),
    }


def attempt(stats, op, tracer=None, root="bench.op") -> None:
    """Run one operation; an exception or a failed gate counts it as failed."""
    before = stats.gate_failures
    stats.attempted += 1
    try:
        if tracer is None:
            op(stats)
        else:
            with tracer.span(root):
                op(stats)
    except Exception:
        traceback.print_exc()
        stats.failed += 1
    else:
        stats.failed += stats.gate_failures > before


def timed_loop(workload, stats, seconds: float, gauge: HostGauge, tracer=None) -> int:
    """Run two whole passes (``workload.period`` operations each), so that
    every determinism gate runs, then further operations until the next one
    would end past `seconds` (by the mean operation time so far), polling
    the gauge between operations. Returns the number of operations."""
    least = 2 * workload.period
    ops = 0
    start = time.perf_counter()
    gauge.sample()
    while True:
        elapsed = time.perf_counter() - start
        if ops >= least and elapsed * (ops + 1) / ops > seconds:
            return ops
        attempt(stats, workload.op, tracer)
        gauge.poll()
        ops += 1


def with_once(per_pass: dict, once: dict) -> dict:
    """Per-pass layer metrics of the loop plus those of a once-per-run set;
    the one ratio (found sparse cuts per call) is the loop's."""
    return {k: (v if unit == "ratio" else v + once[k][0], unit) for k, (v, unit) in per_pass.items()}


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None, workdir=None, spans_path=None) -> dict:
    """Set up, run the timed loop(s) and return the result dict; the
    ``record`` entry holds the detailed per-workload metrics and the environment."""
    # imported here: workloads imports quadsketch, which must come from SRC
    from tracer import Tracer
    from workloads import FULL, WORKLOADS, Query, Stats

    sizes = sizes or FULL
    cls = WORKLOADS[name]
    workload = cls(seed, sizes, workdir) if cls is Query else cls(seed, sizes)
    stats = Stats()
    setup_gauge, loop_gauge = HostGauge(), HostGauge()
    setup_times = []
    # at least setup_reps set-ups, more while they take under SETUP_BUDGET_S
    setup_wall = 0.0
    while len(setup_times) < sizes.setup_reps or (setup_wall < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX_REPS):
        setup_gauge.poll()
        before = stats.gate_failures
        t0 = time.perf_counter()
        setup_times.append(workload.setup(stats))  # an exception here ends the run without a result
        setup_wall += time.perf_counter() - t0
        stats.attempted += 1
        stats.failed += stats.gate_failures > before
    setup_gauge.poll()
    setup_gauge.sample()
    setup_s = statistics.median(setup_times)
    cold_ops = workload.cold_ops() if cls is Query else []
    for op in cold_ops:
        attempt(stats, op)
    timed_loop(workload, stats, seconds, loop_gauge)
    attempted, failed = stats.attempted, stats.failed
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(trace),
        "setups": len(setup_times),
        "gauge_ms": {"setup": setup_gauge.median_ms(), "loop": loop_gauge.median_ms(), "nominal": GAUGE_NOMINAL_MS},
    }
    if not trace:
        gated = workload.gated(stats)
        metrics = {
            **gated,
            "setup_s": setup_s * setup_gauge.scale(),
            "work_per_s": gated["work_per_s"] / loop_gauge.scale(),
        }
        record["metrics"] = {
            "setup_s": (setup_s, "s"),
            **workload.report(stats),
            "failed_frac": (failed / attempted, "ratio"),
        }
        units = GATED_UNITS
    else:
        untraced = workload.headline(stats) / loop_gauge.scale()
        stats = Stats()
        traced_gauge = HostGauge()
        tracer, once = Tracer(), Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            ops = timed_loop(workload, stats, seconds, traced_gauge, tracer)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        once.install()
        try:
            for op in cold_ops:
                attempt(stats, op, once, "bench.cold")
        finally:
            once.uninstall()
        passes = ops / workload.period
        attempted += stats.attempted
        failed += stats.failed
        layers = with_once(tracer.layer_metrics(passes), once.layer_metrics(1))
        layers["trace.overhead_frac"] = (1.0 - workload.headline(stats) / traced_gauge.scale() / untraced, "ratio")
        metrics = {k: v for k, (v, _) in layers.items()}
        units = {k: u for k, (_, u) in layers.items()}
        record["metrics"] = layers
        record["trace"] = {
            "ops": ops,
            "passes": passes,
            "wall_s": wall,
            "spans": len(tracer.spans) + len(once.spans),
            "untraced_headline": untraced,
        }
        if spans_path is not None:
            base = len(tracer.spans)  # the once-per-run set follows the loop's spans
            tracer.spans.extend([n, t0, t1, p + base if p >= 0 else p] for n, t0, t1, p in once.spans)
            tracer.write(spans_path)
    record["env"] = environment()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        "record": record,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("cut-build", "spectral-build", "query", "mincut"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _set_threads()
    try:
        _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import quadsketch from {SRC}: {exc}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    spans_path = None
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}.json.gz"  # the latest traced run
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir=workdir, spans_path=spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = result.pop("record")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
