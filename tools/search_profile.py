"""Piece-size profile of the sparse-cut searches of one spectral-build pass.

    python3 tools/search_profile.py

Sets up the spectral-build workload of perfbench.workloads (FULL sizes, seed
SEED = 1) with one BLAS thread, builds its four families once to warm up,
then times PASSES (3) passes with partition.find_sparse_cuts and
partition._partition_by_cuts wrapped; find_sparse_cut searches through the
former too. Prints the pass time and, per piece size, per pass: the pieces
searched ("calls"), the seconds spent in the searches, the microseconds per
piece and the pieces that reach the exhaustive scan ("scans"). A batch's
time is split among its pieces evenly. Last, the seconds per pass that the
partitions spend outside their searches: their own bookkeeping.
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
from quadsketch import partition  # noqa: E402

SEED = 1
PASSES = 3
BINS = [("2", 2, 2), ("3", 3, 3), ("4-20", 4, 20), ("21-128", 21, 128), ("> 128", 129, None)]


def profile() -> tuple[float, float, dict[int, list[float]]]:
    """Seconds per pass, seconds per pass in the partitions and, per piece
    size, [pieces, seconds, scans] over all passes."""
    wl = workloads.SpectralBuild(SEED, workloads.FULL)
    wl.setup(workloads.Stats())
    for fam in wl.families:
        fam.build()
    by_size: dict[int, list[float]] = {}
    search, scan, split = partition.find_sparse_cuts, partition._exhaustive_cuts, partition._partition_by_cuts
    split_s = 0.0

    def timed_search(pieces, mode, threshold):
        t0 = time.perf_counter()
        found = search(pieces, mode, threshold)
        row = by_size.setdefault(pieces[0].n, [0, 0.0, 0])
        row[0] += len(pieces)
        row[1] += time.perf_counter() - t0
        return found

    def counted_scan(eu, ev, ew, vw, *args):
        by_size.setdefault(vw.shape[1], [0, 0.0, 0])[2] += vw.shape[0]
        return scan(eu, ev, ew, vw, *args)

    def timed_split(*args):
        nonlocal split_s
        t0 = time.perf_counter()
        part = split(*args)
        split_s += time.perf_counter() - t0
        return part

    partition.find_sparse_cuts, partition._exhaustive_cuts, partition._partition_by_cuts = (
        timed_search,
        counted_scan,
        timed_split,
    )
    try:
        t0 = time.perf_counter()
        for _ in range(PASSES):
            for fam in wl.families:
                fam.build()
        pass_s = (time.perf_counter() - t0) / PASSES
    finally:
        partition.find_sparse_cuts, partition._exhaustive_cuts, partition._partition_by_cuts = search, scan, split
    return pass_s, split_s / PASSES, by_size


def main() -> None:
    pass_s, split_s, by_size = profile()
    print(f"spectral-build pass, seed {SEED}: {pass_s:.3f} s (mean of {PASSES})")
    print("| piece size | calls / pass | s / pass | µs / call | scans / pass |")
    print("|---|---|---|---|---|")
    searched = 0.0
    for name, lo, hi in BINS:
        rows = [r for n, r in by_size.items() if n >= lo and (hi is None or n <= hi)]
        calls, secs, scans = (sum(r[j] for r in rows) / PASSES for j in range(3))
        searched += secs
        per_call = 1e6 * secs / calls if calls else 0.0
        print(f"| {name} | {calls:,.0f} | {secs:.3f} | {per_call:,.0f} | {scans:,.0f} |")
    print(f"searches: {searched:.3f} s / pass")
    print(f"partition bookkeeping (outside find_sparse_cuts): {split_s - searched:.3f} s / pass")


if __name__ == "__main__":
    main()
