"""The four benchmark workloads, driven through the public quadsketch API.

Every library call goes through an attribute of the ``quadsketch`` package or
of one of its modules at call time, never through a name bound at import
time, so the traced mode's wrappers see the calls.

Each workload has ``setup()`` (inputs, exact answers and, for ``query``, the
sketch builds), which returns the seconds it spent inside library calls, and
``op()`` (one operation of the timed loop). Correctness gates report through
``Stats.check``; an operation with a failed gate counts as failed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import quadsketch as qs
import quadsketch.cli

EPS_CUT = 0.03
EPS_IMPROVED = 0.2
EPS_BASIC = 0.3
EPS_SDD = 0.2
EPS_JL, DELTA_JL = 0.2, 0.1
EPS_MINCUT, REPS_MINCUT = 0.1, 9
COLD_PER_FAMILY = 4  # CLI queries per family, run once after the set-ups


@dataclass(frozen=True)
class Sizes:
    cut_n: int = 256
    clusters: int = 4
    cluster_size: int = 32
    spectral_n: int = 512
    matrix_n: int = 192
    mincut_n: int = 64
    mincut_graphs: int = 4
    queries: int = 32  # verified queries per sketch on the build workloads
    query_pool: int = 64  # distinct queries per family on the query workload
    setup_reps: int = 3


FULL = Sizes()
TINY = Sizes(
    cut_n=40,
    cluster_size=10,
    spectral_n=48,
    matrix_n=16,
    mincut_n=16,
    mincut_graphs=2,
    queries=4,
    query_pool=6,
    setup_reps=2,
)


@dataclass
class Stats:
    """What the timed loop measured; a new one is made for each loop."""

    attempted: int = 0
    failed: int = 0
    gate_failures: int = 0
    samples: dict = field(default_factory=dict)

    def add(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def get(self, key: str) -> list:
        return self.samples.get(key, [])

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.gate_failures += 1
            print(f"perfbench: gate failed: {what}", file=sys.stderr)


class LibClock:
    """Calls a library function and adds its run time to ``s``; set-up time
    counts only these calls, not the benchmark's own input generation."""

    def __init__(self):
        self.s = 0.0

    def __call__(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.s += time.perf_counter() - t0
        return out


# ---------------------------------------------------------------------------
# Inputs


def input_rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, *label.encode()])


def log_uniform(rng, lo: float, hi: float, size: int) -> np.ndarray:
    if lo == hi:
        return np.full(size, float(lo))
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def make_graph(lib: LibClock, n: int, u, v, w):
    rows = list(zip(u.tolist(), v.tolist(), w.tolist()))
    return lib(qs.WeightedGraph, n, rows)


def gnp(lib: LibClock, rng, n: int, p: float, w_lo: float = 1.0, w_hi: float = 1.0):
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    return make_graph(lib, n, iu[keep], ju[keep], log_uniform(rng, w_lo, w_hi, int(keep.sum())))


def gnp_connected(lib: LibClock, rng, n: int, p: float, w_lo: float, w_hi: float):
    while True:
        g = gnp(lib, rng, n, p, w_lo, w_hi)
        if int(lib(qs.connected_components, g).max()) == 0:
            return g


def clustered(lib: LibClock, rng, clusters: int, size: int):
    """Dense heavy clusters joined by sparse edges about 1000x lighter."""
    n = clusters * size
    label = np.repeat(np.arange(clusters), size)
    iu, ju = np.triu_indices(n, 1)
    inside = label[iu] == label[ju]
    keep = rng.random(iu.size) < np.where(inside, 0.6, 0.02)
    w = np.where(
        inside, log_uniform(rng, 1.0, 8.0, iu.size), log_uniform(rng, 1e-3, 1e-2, iu.size)
    )
    return make_graph(lib, n, iu[keep], ju[keep], w[keep]), label


def sdd_matrix(rng, n: int) -> np.ndarray:
    off = rng.choice((-1.0, 1.0), size=(n, n)) * rng.uniform(0.1, 1.0, size=(n, n))
    off = np.triu(off, 1)
    a = off + off.T
    a[np.diag_indices(n)] = np.abs(a).sum(axis=1) * rng.uniform(1.0, 1.1, n)
    return a


def psd_matrix(rng, n: int) -> np.ndarray:
    b = rng.normal(size=(n, n))
    return b.T @ b / n


def cut_queries(rng, n: int, count: int, label=None) -> list[np.ndarray]:
    """Random halves, alternating with random-size sets, or with unions of
    whole clusters when cluster labels are given."""
    out = []
    for i in range(count):
        s = np.zeros(n, dtype=bool)
        if i % 2 == 0:
            s[rng.permutation(n)[: n // 2]] = True
        elif label is None:
            s[rng.permutation(n)[: int(rng.integers(1, n // 2 + 1))]] = True
        else:
            k = int(label.max()) + 1
            picked = rng.permutation(k)[: int(rng.integers(1, k))]
            s = np.isin(label, picked)
        out.append(s)
    return out


def exact_cut(g, s: np.ndarray) -> float:
    return float(g.edge_w[s[g.edge_u] != s[g.edge_v]].sum())


def exact_form_graph(g, x: np.ndarray) -> float:
    d = x[g.edge_u] - x[g.edge_v]
    return float(np.dot(g.edge_w, d * d))


def exact_form_matrix(a: np.ndarray, x: np.ndarray) -> float:
    return float(x @ a @ x)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def record_accuracy(stats: Stats, estimate: float, exact: float, eps: float) -> None:
    err = abs(estimate - exact) / exact
    stats.add("rel_err", err)
    stats.add("within", err <= eps)


def verify(stats: Stats, sketch, decoded, queries, exact, eps: float) -> None:
    """Decoded answers must equal in-memory answers bit for bit; a verbatim
    sketch must answer exactly; everything feeds the accuracy tallies."""
    for q, ex in zip(queries, exact):
        a = sketch.estimate(q)
        b = decoded.estimate(q)
        stats.check(a == b, f"{type(sketch).__name__}: decoded answer {b!r} != in-memory {a!r}")
        if getattr(sketch, "is_verbatim", False):
            stats.check(math.isclose(a, ex, rel_tol=1e-12), f"verbatim answer {a!r} != exact {ex!r}")
        record_accuracy(stats, b, ex, eps)


@dataclass
class Family:
    """One sketch family of a build workload: build thunk, decoder, queries."""

    name: str
    build: object  # () -> sketch
    decode: object  # bytes -> sketch
    edges: int  # input edges this build sketches
    eps: float
    queries: list
    exact: list


# ---------------------------------------------------------------------------
# Workloads


class BuildWorkload:
    """One operation builds and encodes one family; operations cycle through
    the families. Every build of a family uses the same seed, so each build
    after the first is a determinism gate on the bytes; the first is also
    decoded and verified."""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.families: list[Family] = []
        self.first_bytes: dict[str, bytes] = {}
        self.i = 0

    @property
    def period(self) -> int:
        return len(self.families)

    def op(self, stats: Stats) -> None:
        fam = self.families[self.i % len(self.families)]
        self.i += 1
        t0 = time.perf_counter()
        sketch = fam.build()
        data = sketch.to_bytes()
        stats.add(f"build_s.{fam.name}", time.perf_counter() - t0)
        first = self.first_bytes.get(fam.name)
        if first is None:
            self.first_bytes[fam.name] = data
            verify(stats, sketch, fam.decode(data), fam.queries, fam.exact, fam.eps)
        else:
            stats.check(data == first, f"{fam.name}: same-seed rebuild changed the bytes")

    def headline(self, stats: Stats) -> float:
        """Input edges of one pass over the time of a pass at each family's
        median build time."""
        pass_s = sum(statistics.median(stats.get(f"build_s.{f.name}")) for f in self.families)
        return sum(f.edges for f in self.families) / pass_s

    def sketch_bytes(self) -> float:
        return float(sum(len(b) for b in self.first_bytes.values()))

    def gated(self, stats: Stats) -> dict:
        return {
            "work_per_s": self.headline(stats),
            "sketch_bytes": self.sketch_bytes(),
            "within_eps_frac": float(np.mean(stats.get("within"))),
        }

    def report(self, stats: Stats) -> dict:
        return {
            "build_edges_per_s": (self.headline(stats), "edges/s"),
            "sketch_bytes": (self.sketch_bytes(), "B"),
            "within_eps_frac": (float(np.mean(stats.get("within"))), "ratio"),
            "rel_err.mean": (float(np.mean(stats.get("rel_err"))), "ratio"),
            **{
                f"build_s.{f.name}.p50": (statistics.median(stats.get(f"build_s.{f.name}")), "s")
                for f in self.families
            },
            "builds": (self.i, "count"),
        }


class CutBuild(BuildWorkload):
    """cut_sketch_build at eps 0.03 (auto mode runs the full pipeline) on the
    ROADMAP's unit-weight G(256, 0.35) and on a clustered multi-scale graph
    whose spanning-forest reduction stores two slices."""

    name = "cut-build"

    def setup(self, stats: Stats) -> float:
        z = self.sizes
        lib = LibClock()
        rng = input_rng(self.seed, self.name)
        ga = gnp(lib, rng, z.cut_n, 0.35)
        gb, label = clustered(lib, rng, z.clusters, z.cluster_size)
        build_seed = int(rng.integers(2**32))
        self.families = []
        for name, g, lab in (("uniform", ga, None), ("clustered", gb, label)):
            queries = cut_queries(rng, g.n, z.queries, lab)
            self.families.append(
                Family(
                    name,
                    lambda g=g: qs.cut_sketch_build(g, EPS_CUT, build_seed),
                    lambda data: qs.CutSketchGeneral.from_bytes(data),
                    g.m,
                    EPS_CUT,
                    queries,
                    [exact_cut(g, q) for q in queries],
                )
            )
        return lib.s


def spectral_families(lib: LibClock, rng, sizes: Sizes, queries: int) -> list[Family]:
    """spectral_improved and spectral_basic on G(n, 0.3) with weights in
    [1, 4], the SDD sketch of a dense SDD matrix and the JL sketch of a PSD
    matrix. SDD input edges are the reduced graph's edges, JL input edges
    the upper triangle with the diagonal."""
    g = gnp(lib, rng, sizes.spectral_n, 0.3, 1.0, 4.0)
    a_sdd = sdd_matrix(rng, sizes.matrix_n)
    a_psd = psd_matrix(rng, sizes.matrix_n)
    build_seed = int(rng.integers(2**32))
    m = sizes.matrix_n
    sdd_edges = 2 * int(np.count_nonzero(np.triu(a_sdd, 1)))
    xg = [rng.normal(size=g.n) for _ in range(queries)]
    xm = [rng.normal(size=m) for _ in range(queries)]
    graph_exact = [exact_form_graph(g, x) for x in xg]
    return [
        Family(
            "spectral_improved",
            lambda: qs.spectral_improved_build(g, EPS_IMPROVED, build_seed),
            lambda data: qs.SpectralImprovedSketch.from_bytes(data),
            g.m,
            EPS_IMPROVED,
            xg,
            graph_exact,
        ),
        Family(
            "spectral_basic",
            lambda: qs.spectral_basic_build(g, EPS_BASIC, build_seed),
            lambda data: qs.SpectralBasicSketch.from_bytes(data),
            g.m,
            EPS_BASIC,
            xg,
            graph_exact,
        ),
        Family(
            "sdd",
            lambda: qs.sdd_sketch_build(a_sdd, EPS_SDD, build_seed),
            lambda data: qs.SddSketch.from_bytes(data),
            sdd_edges,
            EPS_SDD,
            xm,
            [exact_form_matrix(a_sdd, x) for x in xm],
        ),
        Family(
            "jl",
            lambda: qs.jl_build(a_psd, EPS_JL, DELTA_JL, build_seed),
            lambda data: qs.JlSketch.from_bytes(data),
            m * (m + 1) // 2,
            EPS_JL,
            xm,
            [exact_form_matrix(a_psd, x) for x in xm],
        ),
    ]


class SpectralBuild(BuildWorkload):
    """The spectral, SDD and JL builds; never calls the cut sketch."""

    name = "spectral-build"

    def setup(self, stats: Stats) -> float:
        lib = LibClock()
        rng = input_rng(self.seed, self.name)
        self.families = spectral_families(lib, rng, self.sizes, self.sizes.queries)
        return lib.s


@dataclass
class QueryFamily:
    name: str
    sketch: object  # decoded from bytes
    queries: list
    exact: list
    answers: list  # in-memory sketch's answers
    argv: list  # per-query CLI arguments
    eps: float
    nbytes: int


class Query:
    """Warm queries, round-robin across the five families, on sketches
    decoded from bytes: one client, closed loop. A pass asks every query of
    every family's pool once. The cold queries, in-process CLI calls, are a
    fixed set (the first COLD_PER_FAMILY queries of each family) run outside
    the timed loop. Accuracy is taken over one pass, in the first set-up."""

    name = "query"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.families: list[QueryFamily] = []
        self.first_bytes: dict[str, bytes] = {}
        self.i = 0

    @property
    def period(self) -> int:
        return sum(len(f.queries) for f in self.families)

    def setup(self, stats: Stats) -> float:
        z = self.sizes
        lib = LibClock()
        rng = input_rng(self.seed, self.name)
        g = gnp(lib, rng, z.cut_n, 0.35)
        build_seed = int(rng.integers(2**32))
        cut_q = cut_queries(rng, g.n, z.query_pool)
        built = [
            Family(
                "cut_general",
                lambda: qs.cut_sketch_build(g, EPS_CUT, build_seed),
                lambda data: qs.CutSketchGeneral.from_bytes(data),
                g.m,
                EPS_CUT,
                cut_q,
                [exact_cut(g, q) for q in cut_q],
            )
        ] + spectral_families(lib, rng, z, z.query_pool)
        cli_cmd = {
            "cut_general": ["cut-sketch", "query"],
            "spectral_improved": ["spectral-sketch", "query"],
            "spectral_basic": ["spectral-sketch", "query"],
            "sdd": ["sdd", "query"],
            "jl": ["psd", "jl-query"],
        }
        first_setup = not self.first_bytes
        self.families = []
        for fam in built:
            sketch = lib(fam.build)
            data = lib(sketch.to_bytes)
            first = self.first_bytes.setdefault(fam.name, data)
            stats.check(data == first, f"{fam.name}: same-seed rebuild changed the bytes")
            path = self.workdir / f"{fam.name}.qsk"
            path.write_bytes(data)
            argv = []
            for j, q in enumerate(fam.queries):
                if q.dtype == bool:
                    arg = ",".join(str(v) for v in np.flatnonzero(q))
                else:
                    qpath = self.workdir / f"{fam.name}-{j}.txt"
                    qpath.write_text(" ".join(repr(float(v)) for v in q))
                    arg = f"@{qpath}"
                argv.append([*cli_cmd[fam.name], str(path), arg])
            decoded = lib(fam.decode, data)
            answers = [sketch.estimate(q) for q in fam.queries]
            if first_setup:
                verify(stats, sketch, decoded, fam.queries, fam.exact, fam.eps)
            self.families.append(
                QueryFamily(fam.name, decoded, fam.queries, fam.exact, answers, argv, fam.eps, len(data))
            )
        return lib.s

    def op(self, stats: Stats) -> None:
        fam = self.families[self.i % len(self.families)]
        j = (self.i // len(self.families)) % len(fam.queries)
        self.i += 1
        t0 = time.perf_counter()
        value = fam.sketch.estimate(fam.queries[j])
        stats.add(f"warm_s.{fam.name}", time.perf_counter() - t0)
        stats.check(value == fam.answers[j], f"{fam.name}: decoded answer {value!r} != in-memory {fam.answers[j]!r}")

    def cold_ops(self) -> list:
        """The fixed cold set, as operations taking ``stats``."""
        return [
            functools.partial(self._cold, fam, j)
            for fam in self.families
            for j in range(min(COLD_PER_FAMILY, len(fam.queries)))
        ]

    def _cold(self, fam: QueryFamily, j: int, stats: Stats) -> None:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = quadsketch.cli.main(fam.argv[j])
        stats.add("cold_s", time.perf_counter() - t0)
        stats.check(code == 0, f"{fam.name}: CLI query exited {code}")
        text = out.getvalue().split()
        value = float(text[0]) if text else math.nan
        stats.check(value == fam.answers[j], f"{fam.name}: CLI answer {value!r} != in-memory {fam.answers[j]!r}")

    def warm_s(self, stats: Stats) -> list:
        return [t for f in self.families for t in stats.get(f"warm_s.{f.name}")]

    def headline(self, stats: Stats) -> float:
        """Queries of one pass over the time of a pass at each family's
        median query time."""
        pass_s = sum(len(f.queries) * statistics.median(stats.get(f"warm_s.{f.name}")) for f in self.families)
        return self.period / pass_s

    def gated(self, stats: Stats) -> dict:
        return {
            "work_per_s": self.headline(stats),
            "sketch_bytes": float(sum(f.nbytes for f in self.families)),
            "within_eps_frac": float(np.mean(stats.get("within"))),
        }

    def report(self, stats: Stats) -> dict:
        warm = self.warm_s(stats)
        return {
            "query_us.p50": (1e6 * percentile(warm, 50), "us"),
            "query_us.p99": (1e6 * percentile(warm, 99), "us"),
            "queries_per_s": (self.headline(stats), "1/s"),
            "cold_query_ms.p50": (1e3 * percentile(stats.get("cold_s"), 50), "ms"),
            "within_eps_frac": (float(np.mean(stats.get("within"))), "ratio"),
            "rel_err.mean": (float(np.mean(stats.get("rel_err"))), "ratio"),
            "warm_queries": (len(warm), "count"),
            "cold_queries": (len(stats.get("cold_s")), "count"),
        }


class Mincut:
    """run_protocol on connected G(64, 0.35), weights in [1, 4], eps 0.1,
    reps 9. A pass runs every graph with k = 2, then every graph with k = 4.
    The protocol seed changes with every operation, except that the first
    operation of the second pass repeats the first call, as a determinism
    gate. Transcript bytes and the share of good cuts are taken over the
    first pass, so they depend only on the seed."""

    name = "mincut"

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.period = 2 * sizes.mincut_graphs
        self.i = 0
        self.first = None

    def setup(self, stats: Stats) -> float:
        z = self.sizes
        lib = LibClock()
        rng = input_rng(self.seed, self.name)
        self.graphs = [gnp_connected(lib, rng, z.mincut_n, 0.35, 1.0, 4.0) for _ in range(z.mincut_graphs)]
        self.optimum = [lib(qs.min_cut_exact, g)[0] for g in self.graphs]
        self.protocol_seed = int(rng.integers(2**32))
        return lib.s

    def op(self, stats: Stats) -> None:
        i = self.i
        self.i += 1
        j = 0 if i == self.period else i
        gi = j % len(self.graphs)
        g, opt = self.graphs[gi], self.optimum[gi]
        k = (2, 4)[(j // len(self.graphs)) % 2]
        t0 = time.perf_counter()
        t = qs.run_protocol(g, k, EPS_MINCUT, REPS_MINCUT, self.protocol_seed + j)
        stats.add(f"protocol_s.{j % self.period}", time.perf_counter() - t0)
        returned = exact_cut(g, t.best_members)
        stats.check(returned >= opt * (1 - 1e-9), f"returned cut {returned!r} below the minimum {opt!r}")
        if t.info["reps_transmitted"] == 1:  # verbatim shares answer exactly
            stats.check(math.isclose(t.best_estimate, returned, rel_tol=1e-9), "verbatim score != exact cut")
        if i < self.period:
            stats.add("bytes", t.total_bytes)
            stats.add("ok", returned <= (1 + 3 * EPS_MINCUT) * opt + 1e-9)
        key = (t.best_members.tobytes(), t.total_bytes, t.best_estimate)
        if j == 0:
            if self.first is None:
                self.first = key
            stats.check(key == self.first, "same-seed protocol run changed its result")

    def protocol_s(self, stats: Stats) -> list:
        return [t for j in range(self.period) for t in stats.get(f"protocol_s.{j}")]

    def headline(self, stats: Stats) -> float:
        """Calls of one pass over the time of a pass at each (graph, k)
        pair's median call time."""
        return self.period / sum(statistics.median(stats.get(f"protocol_s.{j}")) for j in range(self.period))

    def gated(self, stats: Stats) -> dict:
        return {
            "work_per_s": self.headline(stats),
            "sketch_bytes": float(sum(stats.get("bytes"))),
            "within_eps_frac": float(np.mean(stats.get("ok"))),
        }

    def report(self, stats: Stats) -> dict:
        return {
            "protocol_s.p50": (statistics.median(self.protocol_s(stats)), "s"),
            "transcript_bytes": (float(sum(stats.get("bytes"))), "B"),
            "mincut_ok_frac": (float(np.mean(stats.get("ok"))), "ratio"),
            "protocol_runs": (len(self.protocol_s(stats)), "count"),
        }


WORKLOADS = {w.name: w for w in (CutBuild, SpectralBuild, Query, Mincut)}
