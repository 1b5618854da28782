"""Where one pass of the mincut workload spends its time.

    python3 tools/mincut_profile.py

Sets up the mincut workload of perfbench.workloads (FULL sizes, seed
SEED = 1) with one BLAS thread, runs its first pass once to warm up, then
runs that pass PASSES (5) more times with the protocol's stages wrapped: every
graph with k = 2, then with k = 4, at the protocol seeds `Mincut.op` uses.
Prints, per (graph, k) and per call (mean of PASSES): the seconds of the whole
`run_protocol` call; of the servers' builds (sketches, sparsifiers and
their encodings: what the other stages leave); of Stoer-Wagner
(`min_cut_exact`); of the Karger rounds' draws, singleton test and Prim
fallback, and of the rest of `karger_cut`; of the candidate filter (the rest
of `near_min_cut_candidates`: the side rows' dedup and the cut weights); and
of scoring the candidates (`ServerShare.estimate`); then the Karger rounds
and the share of them that the singleton test certifies.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as perfbench/run.py sets it
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from quadsketch import distmincut  # noqa: E402

SEED = 1
PASSES = 5
COLUMNS = ["protocol s", "builds s", "Stoer-Wagner s", "draws s", "test s", "Prim s", "karger rest s",
           "filter s", "scoring s", "rounds", "certified %"]


class TimedDraws:
    """A generator whose standard_exponential draws are timed into row."""

    def __init__(self, rng, row):
        self.rng, self.row = rng, row

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_exponential(self, *args, **kw):
        t0 = time.perf_counter()
        out = self.rng.standard_exponential(*args, **kw)
        self.row["draws s"] += time.perf_counter() - t0
        return out


def timed(module, name, row, column, count=None):
    """Wrap module.name so that its seconds add to row[column] and, if
    given, count(result) runs on each result. Returns what restores it:
    (module, name, original)."""
    original = getattr(module, name)

    def wrapper(*args, **kw):
        t0 = time.perf_counter()
        out = original(*args, **kw)
        row[column] += time.perf_counter() - t0
        if count:
            count(out)
        return out

    setattr(module, name, wrapper)
    return module, name, original


def profile_call(wl, j: int) -> dict[str, float]:
    """The COLUMNS of operation j of the first pass, summed over PASSES calls."""
    g = wl.graphs[j % len(wl.graphs)]
    k = (2, 4)[(j // len(wl.graphs)) % 2]
    row = dict.fromkeys(COLUMNS + ["karger s", "candidates s", "certified"], 0.0)

    def count_rounds(single):
        row["rounds"] += single.size
        row["certified"] += int((single >= 0).sum())

    rng_for = distmincut.rng_for
    distmincut.rng_for = lambda *a: TimedDraws(rng_for(*a), row)
    originals = [
        timed(distmincut, "min_cut_exact", row, "Stoer-Wagner s"),
        timed(distmincut, "karger_cut", row, "karger s"),
        timed(distmincut, "_certified_singletons", row, "test s", count_rounds),
        timed(distmincut, "_prim_sides", row, "Prim s"),
        timed(distmincut, "near_min_cut_candidates", row, "candidates s"),
        timed(distmincut.ServerShare, "estimate", row, "scoring s"),
    ]
    try:
        for _ in range(PASSES):
            t0 = time.perf_counter()
            distmincut.run_protocol(g, k, workloads.EPS_MINCUT, workloads.REPS_MINCUT, wl.protocol_seed + j)
            row["protocol s"] += time.perf_counter() - t0
    finally:
        distmincut.rng_for = rng_for
        for module, name, original in originals:
            setattr(module, name, original)
    row["karger rest s"] = row["karger s"] - row["draws s"] - row["test s"] - row["Prim s"]
    row["filter s"] = row["candidates s"] - row["karger s"] - row["Stoer-Wagner s"]
    row["builds s"] = row["protocol s"] - row["candidates s"] - row["scoring s"]
    row["certified %"] = 100.0 * row["certified"] / max(row["rounds"], 1)
    return row


def main() -> None:
    wl = workloads.Mincut(SEED, workloads.FULL)
    wl.setup(workloads.Stats())
    for j in range(wl.period):
        wl.op(workloads.Stats())
    print(f"mincut, seed {SEED}: per run_protocol call (mean of {PASSES})")
    print("| graph | k | " + " | ".join(COLUMNS) + " |")
    print("|---|---|" + "---|" * len(COLUMNS))
    for j in range(wl.period):
        row = profile_call(wl, j)
        cells = [f"{row[c] / PASSES:.4f}" for c in COLUMNS if c.endswith(" s")]
        cells += [f"{row['rounds'] / PASSES:,.0f}", f"{row['certified %']:.1f}"]
        print(f"| {j % len(wl.graphs)} | {(2, 4)[(j // len(wl.graphs)) % 2]} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
