"""Where the cut ladder of one cut-build pass spends its time.

    python3 tools/ladder_profile.py

Sets up the cut-build workload of perfbench.workloads (FULL sizes, seed
SEED = 1) with one BLAS thread, builds and encodes each family once to warm
up, then times PASSES (3) builds of each with the ladder's stages wrapped.
Prints, per family and per build: the build seconds (build and encode, as a
benchmark operation times them), the ladder scales (cut_preprocessing calls)
and their weight classes, the partitions run (the others are memo hits),
the dissolved classes among them (partitions that return before labelling
anything: the 1/eps-core is empty), the adjacency tables built, the
seconds in cut_preprocessing, in S1 builds and in encode, and the bytes of
the build's S1 records and of its Q edge tables (each table's edge list and
weights), the two largest parts of a cut envelope.
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
from quadsketch import cutsketch, partition, serialize  # noqa: E402
from quadsketch.graph import WeightedGraph  # noqa: E402

SEED = 1
PASSES = 3
COLUMNS = ["build s", "scales", "classes", "partitions", "memo hits", "dissolved", "adjacency builds",
           "prep s", "S1 s", "encode s", "S1 B", "Q table B"]
Q_TABLE = serialize.edges("table_u", "table_v", "table_w")


def layout_bytes(sketch) -> dict[str, int]:
    """The bytes of the S1 records and of the Q edge tables of a cut sketch."""
    polys = [p for gs in sketch.stored for _, p in gs.comps if not p.is_verbatim]
    pieces = [s1 for p in polys for sc in p.scales for cls in sc.classes for _, s1 in cls.comps]
    return {
        "S1 B": sum(len(serialize.to_payload(cutsketch.S1_LAYOUT, s1)) for s1 in pieces),
        "Q table B": sum(len(serialize.to_payload(Q_TABLE, p)) for p in polys),
    }


def profile_family(fam) -> dict[str, float]:
    """The COLUMNS of one family, summed over PASSES builds."""
    row = dict.fromkeys(COLUMNS, 0.0)
    prep, s1, split, label = (cutsketch.cut_preprocessing, cutsketch.cut_s1_build,
                              partition._partition_by_cuts, partition.label_components)
    adjacency = WeightedGraph._adjacency
    tables: list = []  # every adjacency table seen, kept so ids stay unique
    labelled = [0]

    def timed_prep(*args, **kw):
        t0 = time.perf_counter()
        out = prep(*args, **kw)
        row["prep s"] += time.perf_counter() - t0
        row["scales"] += 1
        row["classes"] += len(out.classes)
        return out

    def timed_s1(*args, **kw):
        t0 = time.perf_counter()
        out = s1(*args, **kw)
        row["S1 s"] += time.perf_counter() - t0
        return out

    def counted_split(*args, **kw):
        before = labelled[0]
        out = split(*args, **kw)
        row["partitions"] += 1
        row["dissolved"] += labelled[0] == before
        return out

    def counted_label(*args, **kw):
        labelled[0] += 1
        return label(*args, **kw)

    def counted_adjacency(g):
        table = adjacency(g)
        if not any(table is t for t in tables):
            tables.append(table)
            row["adjacency builds"] += 1
        return table

    cutsketch.cut_preprocessing, cutsketch.cut_s1_build = timed_prep, timed_s1
    partition._partition_by_cuts, partition.label_components = counted_split, counted_label
    WeightedGraph._adjacency = counted_adjacency
    try:
        for _ in range(PASSES):
            t0 = time.perf_counter()
            sketch = fam.build()
            t1 = time.perf_counter()
            sketch.to_bytes()
            t2 = time.perf_counter()
            row["build s"] += t2 - t0
            row["encode s"] += t2 - t1
            for name, size in layout_bytes(sketch).items():
                row[name] += size
    finally:
        cutsketch.cut_preprocessing, cutsketch.cut_s1_build = prep, s1
        partition._partition_by_cuts, partition.label_components = split, label
        WeightedGraph._adjacency = adjacency
    row["memo hits"] = row["classes"] - row["partitions"]
    return row


def main() -> None:
    wl = workloads.CutBuild(SEED, workloads.FULL)
    wl.setup(workloads.Stats())
    for fam in wl.families:
        fam.build().to_bytes()
    print(f"cut-build, seed {SEED}: per build (mean of {PASSES})")
    print("| family | " + " | ".join(COLUMNS) + " |")
    print("|---|" + "---|" * len(COLUMNS))
    for fam in wl.families:
        row = profile_family(fam)
        cells = [f"{row[c] / PASSES:.4f}" if c.endswith(" s") else f"{row[c] / PASSES:,.0f}" for c in COLUMNS]
        print(f"| {fam.name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
