"""Build seconds and envelope bytes of two builds whose sparse-cut searches
meet pieces of hundreds to thousands of vertices.

    python3 tools/build_scaling.py [n ...]

For each n (default 512, 1024 and 2048) draws G(n, 100/n) with weights
uniform in [1, 4) (numpy generator seeded with SEED = 1) and, with one BLAS
thread, times one cut_sketch_build(g, 0.03, SEED, mode="pipeline") and one
spectral_basic_build(g, 0.3, SEED), each with its to_bytes. Prints one line
per build: n, the graph's edge count, the build, its seconds and its
envelope bytes and SHA-256, so two checkouts can be compared line by line.
Single runs on a shared host: repeat a line before reading much into a
difference of a few percent.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as perfbench/run.py sets it
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

from quadsketch.cutsketch import cut_sketch_build  # noqa: E402
from quadsketch.graph import WeightedGraph  # noqa: E402
from quadsketch.spectral import spectral_basic_build  # noqa: E402

SEED = 1
SIZES = [512, 1024, 2048]
BUILDS = {
    "cut_sketch_build(0.03, pipeline)": lambda g: cut_sketch_build(g, 0.03, SEED, mode="pipeline"),
    "spectral_basic_build(0.3)": lambda g: spectral_basic_build(g, 0.3, SEED),
}


def random_graph(n: int) -> WeightedGraph:
    rng = np.random.default_rng(SEED)
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < 100.0 / n
    return WeightedGraph(n, _arrays=(iu[keep], ju[keep], rng.uniform(1.0, 4.0, int(keep.sum()))))


def main(argv: list[str]) -> None:
    for n in [int(a) for a in argv] or SIZES:
        g = random_graph(n)
        for name, build in BUILDS.items():
            t0 = time.perf_counter()
            data = build(g).to_bytes()
            secs = time.perf_counter() - t0
            digest = hashlib.sha256(data).hexdigest()[:16]
            print(f"n={n:<5} m={g.m:<7} {name:<34} {secs:7.2f} s {len(data):>9,} B {digest}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
