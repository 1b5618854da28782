"""Piece-size profile of the sparse-cut searches of one spectral-build pass.

    python3 tools/search_profile.py

Sets up the spectral-build workload of perfbench.workloads (FULL sizes, seed
SEED = 1) with one BLAS thread, builds and encodes its four families once to
warm up, then times PASSES (3) passes, each of which builds and encodes
every family as the workload's operations do, with
partition.find_sparse_cuts, partition._partition_by_cuts,
partition._power_vector, partition.fiedler_pair, spectral.sketch_pieces and
spectral.draw_counts wrapped; find_sparse_cut searches through the first
too. Prints the pass time and, per piece size, per pass: the pieces searched
("calls"), the seconds spent in the searches, the microseconds per piece,
the pieces that reach the exhaustive scan ("scans"), the pieces swept along
the power-iteration vector ("power") and the seconds spent computing it,
and the dense eigensolves ("fiedler_pair", on pieces above
POWER_SWEEP_MIN vertices only where the power sweep found no cut) and
their seconds. A batch's time is split among its pieces evenly.
Then the seconds per pass that the partitions spend outside their searches:
their own bookkeeping. Last, per family, per pass: the components that
S2/S3 sketched (through sketch_pieces), the draw_counts calls, the
components that hold samples, and the seconds in sketch_pieces and in
to_bytes.
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
from quadsketch import partition, spectral  # noqa: E402

SEED = 1
PASSES = 3
BINS = [("2", 2, 2), ("3", 3, 3), ("4-20", 4, 20), ("21-64", 21, 64), ("65-128", 65, 128), ("> 128", 129, None)]


FAMILY_COLUMNS = ["components", "draw_counts calls", "holding samples", "sketch_pieces s", "to_bytes s"]


def profile() -> tuple[float, float, dict[int, list[float]], dict[str, list[float]]]:
    """Seconds per pass, seconds per pass in the partitions, per piece size
    [pieces, seconds, scans, power sweeps, their seconds, fiedler_pair
    calls, their seconds] and per family the FAMILY_COLUMNS, both over all
    passes."""
    wl = workloads.SpectralBuild(SEED, workloads.FULL)
    wl.setup(workloads.Stats())
    for fam in wl.families:
        fam.build().to_bytes()
    by_size: dict[int, list[float]] = {}
    by_family = {fam.name: [0, 0, 0, 0.0, 0.0] for fam in wl.families}
    family = by_family[wl.families[0].name]
    search, scan, split = partition.find_sparse_cuts, partition._exhaustive_cuts, partition._partition_by_cuts
    power, dense = partition._power_vector, partition.fiedler_pair
    pieces, draw = spectral.sketch_pieces, spectral.draw_counts
    split_s = 0.0

    def row_of(n: int) -> list:
        return by_size.setdefault(n, [0, 0.0, 0, 0, 0.0, 0, 0.0])

    def timed_search(pieces, mode, threshold):
        t0 = time.perf_counter()
        found = search(pieces, mode, threshold)
        row = row_of(pieces[0].n)
        row[0] += len(pieces)
        row[1] += time.perf_counter() - t0
        return found

    def counted_scan(eu, ev, ew, vw, *args):
        row_of(vw.shape[1])[2] += vw.shape[0]
        return scan(eu, ev, ew, vw, *args)

    def timed(row, inner, size_of):
        """inner, counting its calls and seconds in columns row and row + 1."""

        def wrapped(first, *args):
            t0 = time.perf_counter()
            out = inner(first, *args)
            size = row_of(size_of(first))
            size[row] += 1
            size[row + 1] += time.perf_counter() - t0
            return out

        return wrapped

    def timed_split(*args):
        nonlocal split_s
        t0 = time.perf_counter()
        part = split(*args)
        split_s += time.perf_counter() - t0
        return part

    def timed_pieces(*args):
        t0 = time.perf_counter()
        out = pieces(*args)
        family[3] += time.perf_counter() - t0
        comps = out[3]
        family[0] += len(comps)
        family[2] += sum(sk.owner.size > 0 for _, sk in comps)
        return out

    def counted_draw(*args):
        family[1] += 1
        return draw(*args)

    partition.find_sparse_cuts, partition._exhaustive_cuts, partition._partition_by_cuts = (
        timed_search,
        counted_scan,
        timed_split,
    )
    spectral.sketch_pieces, spectral.draw_counts = timed_pieces, counted_draw
    partition._power_vector = timed(3, power, lambda g: g.n)
    partition.fiedler_pair = timed(5, dense, lambda mat: mat.shape[0])
    try:
        t0 = time.perf_counter()
        for _ in range(PASSES):
            for fam in wl.families:
                family = by_family[fam.name]
                sketch = fam.build()
                t1 = time.perf_counter()
                sketch.to_bytes()
                family[4] += time.perf_counter() - t1
        pass_s = (time.perf_counter() - t0) / PASSES
    finally:
        partition.find_sparse_cuts, partition._exhaustive_cuts, partition._partition_by_cuts = search, scan, split
        spectral.sketch_pieces, spectral.draw_counts = pieces, draw
        partition._power_vector, partition.fiedler_pair = power, dense
    return pass_s, split_s / PASSES, by_size, by_family


def main() -> None:
    pass_s, split_s, by_size, by_family = profile()
    print(f"spectral-build pass, seed {SEED}: {pass_s:.3f} s (mean of {PASSES})")
    print(
        "| piece size | calls / pass | s / pass | µs / call | scans / pass "
        "| power / pass | power s / pass | fiedler_pair / pass | fiedler_pair s / pass |"
    )
    print("|---" * 9 + "|")
    searched = 0.0
    for name, lo, hi in BINS:
        rows = [r for n, r in by_size.items() if n >= lo and (hi is None or n <= hi)]
        calls, secs, scans, power, power_s, dense, dense_s = (sum(r[j] for r in rows) / PASSES for j in range(7))
        searched += secs
        per_call = 1e6 * secs / calls if calls else 0.0
        print(
            f"| {name} | {calls:,.0f} | {secs:.3f} | {per_call:,.0f} | {scans:,.0f} "
            f"| {power:,.0f} | {power_s:.3f} | {dense:,.0f} | {dense_s:.3f} |"
        )
    print(f"searches: {searched:.3f} s / pass")
    print(f"partition bookkeeping (outside find_sparse_cuts): {split_s - searched:.3f} s / pass")
    print(f"| family | {' / pass | '.join(FAMILY_COLUMNS)} / pass |")
    print("|---" * (len(FAMILY_COLUMNS) + 1) + "|")
    for name, row in by_family.items():
        counts = [f"{c / PASSES:,.0f}" for c in row[:3]]
        secs = [f"{s / PASSES:.3f}" for s in row[3:]]
        print(f"| {name} | {' | '.join(counts + secs)} |")


if __name__ == "__main__":
    main()
