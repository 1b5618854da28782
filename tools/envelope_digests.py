"""SHA-256 of every envelope that the benchmark's workloads build.

    python3 tools/envelope_digests.py

For seeds 1..10, sets up the cut-build, spectral-build and query workloads
of perfbench.workloads (FULL sizes) with one BLAS thread and prints one line
per envelope: workload, seed, family and the SHA-256 of its bytes. The
build workloads' families are built once each (2 cut, 4 spectral); the
query workload's set-up builds its five. Two checkouts build the same
sketches iff they print the same 110 lines, so a change that must keep the
bytes is checked by diffing this tool's output against its parent's.
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
    """(workload, family, bytes) of every envelope of one seed."""
    for cls in (workloads.CutBuild, workloads.SpectralBuild):
        wl = cls(seed, workloads.FULL)
        wl.setup(workloads.Stats())
        for fam in wl.families:
            yield wl.name, fam.name, fam.build().to_bytes()
    wl = workloads.Query(seed, workloads.FULL, workdir)
    wl.setup(workloads.Stats())
    for name, data in wl.first_bytes.items():
        yield wl.name, name, data


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload, family, data in envelopes(seed, Path(tmp)):
                print(f"{workload:<15} {seed:>2} {family:<18} {hashlib.sha256(data).hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
