"""Where the time of a warm query goes, per sketch family and query kind.

    python3 tools/query_profile.py

Sets up the query workload of perfbench.workloads (FULL sizes, seed SEED =
1) with one BLAS thread and decodes every family's envelope afresh. It asks
each query of the pool once on that decode, then PASSES (5) more times
warm, with the query path's stages wrapped. Prints, per family and query
kind (the cut pool alternates balanced halves and random-size sets, the
spectral pools are normal vectors), the median warm µs per query and the
mean µs per query spent in each stage:

* validate: ``as_cut_query`` and ``as_spectral_query``;
* forest walk: ``CutSketchGeneral._slice``, the first cut forest edge and
  its stored slice;
* c~: ``CutSketchPoly._route``, the sparsifier's cut and its scale;
* estimator: ``EdgeSampleEstimator.estimate``;
* rest: the remainder of the query (contraction, scale choice, the SDD
  embedding and diagonal, the JL product);

then the one-time µs that the first pass spent beyond the warm ones (the
flat estimators and their query plans, built on first use), and the term
sizes a query reads: exact edges and product terms of the estimators it
used (for the cut family, the mean over its queries of the scale that
answered) and the sparsifier edges that c~ sums. A stage's time is its
self time: the stages nested in it are taken out. The wrappers add about
a microsecond per call, which lands in the stage they wrap.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as perfbench/run.py sets it
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from quadsketch import cutsketch, estimator, psdsdd, spectral  # noqa: E402

SEED = 1
PASSES = 5
STAGES = ["validate", "forest walk", "c~", "estimator"]
WRAPPED = [
    (cutsketch, "as_cut_query", "validate"),
    (spectral, "as_spectral_query", "validate"),
    (psdsdd, "as_spectral_query", "validate"),
    (cutsketch.CutSketchGeneral, "_slice", "forest walk"),
    (cutsketch.CutSketchPoly, "_route", "c~"),
    (estimator.EdgeSampleEstimator, "estimate", "estimator"),
]


class StageClock:
    """Self time per stage of the wrapped calls, summed until reset."""

    def __init__(self):
        self.self_s = dict.fromkeys(STAGES, 0.0)
        self.children: list[float] = []
        self.sizes: list[tuple[int, int]] = []  # (exact, product) terms per estimate call

    def wrap(self, stage: str, fn):
        def timed(*args, **kwargs):
            self.children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[stage] += dt - self.children.pop()
                if self.children:
                    self.children[-1] += dt
                if stage == "estimator":
                    est = args[0]
                    self.sizes.append((int(est.eu.size), int(est.su.size + est.pu.size)))

        return timed


def kinds(fam) -> dict[str, list[int]]:
    """Query positions of the pool per query kind."""
    if fam.queries[0].dtype != bool:
        return {"normal vector": list(range(len(fam.queries)))}
    return {"balanced half": list(range(0, len(fam.queries), 2)), "random-size set": list(range(1, len(fam.queries), 2))}


def sparsifier_edges(sk, queries) -> float:
    """Mean over the queries of the sparsifier edges c~ sums (cut only)."""
    if not isinstance(sk, cutsketch.CutSketchGeneral) or sk.is_verbatim:
        return 0.0
    total = 0
    for q in queries:
        route = sk.route(q)
        if route is not None:
            total += sum(poly.sparsifier.m for _, poly in route[1].comps if not poly.is_verbatim)
    return total / len(queries)


def profile_family(wl, fam, clock: StageClock) -> list[list]:
    sketch = type(fam.sketch).from_bytes(wl.first_bytes[fam.name])
    rows = []
    for kind, picks in kinds(fam).items():
        queries = [fam.queries[j] for j in picks]
        first = []
        for q in queries:
            t0 = time.perf_counter()
            sketch.estimate(q)
            first.append(time.perf_counter() - t0)
        warm = [[] for _ in queries]
        clock.self_s = dict.fromkeys(STAGES, 0.0)
        clock.sizes = []
        originals = []
        for owner, name, stage in WRAPPED:
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            originals.append((owner, name, original))
            setattr(owner, name, clock.wrap(stage, original))
        try:
            for _ in range(PASSES):
                for i, q in enumerate(queries):
                    t0 = time.perf_counter()
                    sketch.estimate(q)
                    warm[i].append(time.perf_counter() - t0)
        finally:
            for owner, name, original in reversed(originals):
                setattr(owner, name, original)
        calls = PASSES * len(queries)
        total = sum(sum(w) for w in warm) / calls
        stages = [clock.self_s[s] / calls for s in STAGES]
        once = sum(f - statistics.median(w) for f, w in zip(first, warm))
        per_query = max(1, len(clock.sizes)) / calls  # estimate calls per query
        exact = sum(e for e, _ in clock.sizes) / max(1, len(clock.sizes)) * per_query
        products = sum(p for _, p in clock.sizes) / max(1, len(clock.sizes)) * per_query
        rows.append(
            [
                fam.name,
                kind,
                len(queries),
                statistics.median(t for w in warm for t in w),
                *stages,
                total - sum(stages),
                once,
                exact,
                products,
                sparsifier_edges(sketch, queries),
            ]
        )
    return rows


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.Query(SEED, workloads.FULL, Path(tmp))
        wl.setup(workloads.Stats())
        clock = StageClock()
        rows = [row for fam in wl.families for row in profile_family(wl, fam, clock)]
    print(f"query workload, seed {SEED}, {PASSES} warm passes; µs per query")
    head = ["family", "kind", "queries", "median µs", *STAGES, "rest", "plan build µs (once)"]
    head += ["exact terms", "product terms", "c~ edges"]
    print("| " + " | ".join(head) + " |")
    print("|---" * len(head) + "|")
    for name, kind, count, median, *rest in rows:
        times = [f"{1e6 * t:.1f}" for t in (median, *rest[:6])]
        sizes = [f"{v:,.0f}" for v in rest[6:]]
        print(f"| {name} | {kind} | {count} | " + " | ".join(times + sizes) + " |")


if __name__ == "__main__":
    main()
