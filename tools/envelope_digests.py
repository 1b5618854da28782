"""SHA-256 of every envelope that the benchmark's workloads build, and of the
answers its decoded sketch gives.

    python3 tools/envelope_digests.py

For seeds 1..10, sets up the cut-build, spectral-build and query workloads
of perfbench.workloads (FULL sizes) with one BLAS thread and prints one line
per envelope: workload, seed, family, the SHA-256 of its bytes and the
SHA-256 of the answers of the sketch decoded from them to the family's
verified queries (their ``float.hex`` strings, one per line). The build
workloads' families are built once each (2 cut, 4 spectral); the query
workload's set-up builds its five. Two checkouts build the same sketches iff
they print the same 110 envelope digests, so a change that must keep the
bytes is checked by diffing this tool's output against its parent's; a
change of format that must lose nothing keeps the 110 answer digests.

Then, per seed, one line of the mincut workload's first pass (every graph
with k = 2, then with k = 4, as ``workloads.Mincut.op`` runs them): the
transcript bytes of the pass and the SHA-256 of each run's ``best_members``
bytes and ``best_estimate.hex()``, so a change of format shows whether it
moves the protocol's transcripts or its answers.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as perfbench/run.py sets it
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

SEEDS = range(1, 11)


def envelopes(seed: int, workdir: Path):
    """(workload, family, bytes, decoded answers) of every envelope of one
    seed."""
    for cls in (workloads.CutBuild, workloads.SpectralBuild):
        wl = cls(seed, workloads.FULL)
        wl.setup(workloads.Stats())
        for fam in wl.families:
            data = fam.build().to_bytes()
            decoded = fam.decode(data)
            yield wl.name, fam.name, data, [decoded.estimate(q) for q in fam.queries]
    wl = workloads.Query(seed, workloads.FULL, workdir)
    wl.setup(workloads.Stats())
    for fam in wl.families:
        yield wl.name, fam.name, wl.first_bytes[fam.name], [fam.sketch.estimate(q) for q in fam.queries]


def mincut_line(seed: int) -> str:
    """The first-pass transcript bytes and answer digest of one seed."""
    wl = workloads.Mincut(seed, workloads.FULL)
    wl.setup(workloads.Stats())
    total, digest = 0, hashlib.sha256()
    for j in range(wl.period):
        g = wl.graphs[j % len(wl.graphs)]
        k = (2, 4)[(j // len(wl.graphs)) % 2]
        t = workloads.qs.run_protocol(g, k, workloads.EPS_MINCUT, workloads.REPS_MINCUT, wl.protocol_seed + j)
        total += t.total_bytes
        digest.update(t.best_members.tobytes())
        digest.update(float(t.best_estimate).hex().encode())
    return f"{wl.name:<15} {seed:>2} {'transcripts':<18} {total:>10} B {digest.hexdigest()}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload, family, data, answers in envelopes(seed, Path(tmp)):
                hexes = "\n".join(float(a).hex() for a in answers)
                print(
                    f"{workload:<15} {seed:>2} {family:<18} {hashlib.sha256(data).hexdigest()} "
                    f"{hashlib.sha256(hexes.encode()).hexdigest()}",
                    flush=True,
                )
        for seed in SEEDS:
            print(mincut_line(seed), flush=True)


if __name__ == "__main__":
    main()
