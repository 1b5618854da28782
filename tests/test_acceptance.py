"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np

from quadsketch.cutsketch import (
    CutSketchGeneral,
    CutSketchPoly,
    cut_basic_build,
    cut_s1_build,
    cut_sketch_build,
)
from quadsketch.distmincut import run_protocol
from quadsketch.graph import (
    WeightedGraph,
    cheeger_exact,
    cut_weight,
    members_from_vertices,
    quadratic_form,
)
from quadsketch.oracle import expansion_exact, lambda1_normalized, min_cut_exact
from quadsketch.partition import (
    arc_ends,
    assign_direction,
    degree_class_partition,
    importance_sample,
    spectral_preprocessing,
)
from quadsketch.psdsdd import (
    JlSketch,
    SddSketch,
    embed_query,
    jl_build,
    sdd_sketch_build,
    sdd_to_laplacian,
)
from quadsketch.rng import derive_seed, rng_for
from quadsketch.spectral import (
    SpectralBasicSketch,
    SpectralImprovedSketch,
    spectral_basic_build,
    spectral_improved_build,
    spectral_s2_build,
)

from conftest import (
    estimator_expectation_exhaustive,
    gnp_connected,
    out_degrees_unweighted,
    outcome_sketch,
    outcome_space,
    random_members,
    raw_edge_list_bytes,
    recursion_depth_bound,
)


def _report(cid: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


# ---------------------------------------------------------------------------
# S1 corpus shared by criteria 1-2: near-complete graphs with factor-2
# weights, expansion verified exhaustively to be >= 1/eps = 8.

S1_EPS = 0.125
S1_GAMMA = 0.04


def _s1_corpus():
    corpus = []
    seed = 0
    while len(corpus) < 20:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 20))
        drop = int(rng.integers(0, 3)) if n >= 18 else 0
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if drop:
            drop_idx = set(rng.choice(len(edges), size=drop, replace=False).tolist())
            edges = [e for k, e in enumerate(edges) if k not in drop_idx]
        w = S1_GAMMA * (1.0 + 0.999 * rng.random(len(edges)))
        g = WeightedGraph(n, [(u, v, float(x)) for (u, v), x in zip(edges, w)])
        if expansion_exact(g) >= 1.0 / S1_EPS:
            queries = []
            while len(queries) < 5:
                size = int(rng.integers(1, 4))
                s = members_from_vertices(n, rng.choice(n, size=size, replace=False).tolist())
                if cut_weight(g, s) <= 5.0:
                    queries.append(s)
            corpus.append((g, queries))
    return corpus


def test_c01_s1_guarantee():
    t0 = time.time()
    corpus = _s1_corpus()
    fails = 0
    trials = 0
    for gi, (g, queries) in enumerate(corpus):
        for rep in range(50):
            sk = cut_s1_build(g, S1_EPS, seed=derive_seed(101, gi, rep))
            s = queries[rep % len(queries)]
            w = cut_weight(g, s)
            trials += 1
            fails += abs(sk.estimate(s) - w) > 21 * S1_EPS * w
    frac = fails / trials
    elapsed = time.time() - t0
    _report(
        "C01",
        trials == 1000 and frac <= 1.0 / 9.0 + 0.03 and elapsed < 120,
        f"failure fraction {frac:.4f} <= {1/9 + 0.03:.4f} over {trials} builds "
        f"({elapsed:.1f}s < 120s)",
    )


def test_c02_s1_variance():
    corpus = _s1_corpus()[:4]
    worst = 0.0
    for gi, (g, queries) in enumerate(corpus):
        s = queries[0]
        w = cut_weight(g, s)
        vals = [
            cut_s1_build(g, S1_EPS, seed=derive_seed(202, gi, t)).estimate(s)
            for t in range(2500)
        ]
        ratio = float(np.var(vals)) / (44.0 * S1_EPS**2 * w**2)
        worst = max(worst, ratio)
    _report("C02", worst <= 1.2, f"max Var[I] / (44 eps^2 w^2) = {worst:.3f} <= 1.2")


def test_c03_exact_unbiasedness():
    t0 = time.time()
    worst = 0.0
    # S1 instance: 6 vertices, degrees <= 3, s = 2
    g = WeightedGraph(
        6, [(0, 1, 0.7), (0, 2, 1.1), (1, 2, 0.9), (2, 3, 1.3), (3, 4, 0.8), (4, 5, 1.2)]
    )
    build = lambda: cut_s1_build(g, 0.5, 0, s=2)
    spaces = outcome_space(build)
    for s_set in ([0, 1], [0, 2, 4], [2, 3], [1, 5]):
        s = members_from_vertices(6, s_set)
        val = estimator_expectation_exhaustive(spaces, lambda a: outcome_sketch(build, a).estimate(s))
        worst = max(worst, abs(val - cut_weight(g, s)))
    # S2 instance: forced heavy triangle, alpha = 2
    g2 = WeightedGraph(
        6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)]
    )
    build2 = lambda: spectral_s2_build(g2, 0.3, 0, alpha=2.0)
    spaces2 = outcome_space(build2)
    rng = np.random.default_rng(3)
    for x in (np.eye(6)[0], rng.normal(size=6), np.array([1.0, -1, 2, 0.5, 1, -2])):
        val = estimator_expectation_exhaustive(spaces2, lambda a: outcome_sketch(build2, a).estimate(x))
        worst = max(worst, abs(val - quadratic_form(g2, x)))
    elapsed = time.time() - t0
    _report(
        "C03",
        worst <= 1e-12 and elapsed < 60,
        f"max |E[I] - exact| = {worst:.2e} <= 1e-12 ({elapsed:.1f}s < 60s)",
    )


def test_c04_importance_sampling():
    eps = 0.1
    g = gnp_connected(32, 0.3, seed=11, w_lo=0.02, w_hi=0.2)
    rng_q = np.random.default_rng(1)
    queries = []
    while len(queries) < 40:
        s = random_members(32, rng_q)
        if 1.0 <= cut_weight(g, s) <= 4.0:
            queries.append(s)
    ok = 0
    trials = 0
    for t in range(50):
        rng = rng_for(404, t)
        kept, w_tilde = importance_sample(g.edge_w, eps, rng)
        ku, kv = g.edge_u[kept], g.edge_v[kept]
        for s in queries:
            w = cut_weight(g, s)
            est = float(w_tilde[s[ku] != s[kv]].sum())
            trials += 1
            ok += abs(est - w) <= 3 * eps * w
    frac = ok / trials
    _report(
        "C04",
        trials == 2000 and frac >= 8.0 / 9.0 - 0.03,
        f"success fraction {frac:.4f} >= {8/9 - 0.03:.4f} over {trials} trials",
    )


def test_c05_poly_weight_cut_sketch():
    eps = 0.1
    ok = 0
    trials = 0
    for gseed in range(5):
        g = gnp_connected(32, 0.4, seed=500 + gseed)
        rng = np.random.default_rng(gseed)
        for rep in range(10):
            sk = cut_basic_build(g, eps, seed=derive_seed(505, gseed, rep), mode="pipeline")
            for _ in range(10):
                s = random_members(32, rng)
                w = cut_weight(g, s)
                trials += 1
                ok += abs(sk.estimate(s) - w) <= 27 * eps * w
    frac = ok / trials
    _report(
        "C05",
        trials == 500 and frac >= 7.0 / 9.0 - 0.05,
        f"success fraction {frac:.4f} >= {7/9 - 0.05:.4f} over {trials} trials",
    )


def test_c06_general_weight_reduction():
    eps = 0.1
    ok = 0
    trials = 0
    scale_ok = True
    for gseed in range(5):
        base = gnp_connected(24, 0.35, seed=600 + gseed)
        rng = np.random.default_rng(gseed)
        w = rng.choice([1.0, 1e3, 1e6], size=base.m)
        g = WeightedGraph(24, _arrays=(base.edge_u, base.edge_v, w))
        for rep in range(10):
            sk = cut_sketch_build(g, eps, seed=derive_seed(606, gseed, rep), mode="pipeline")
            for _ in range(10):
                s = random_members(24, rng)
                wt = cut_weight(g, s)
                if wt == 0:
                    continue
                value = sk.estimate(s)  # raises on straddle
                trials += 1
                ok += abs(value - wt) <= 30 * eps * wt
                _, gs = sk.route(s)
                ratio = wt / sk.tree[gs.j][2]
                if not (0.5 < ratio <= 24 * 24):
                    scale_ok = False
    frac = ok / trials
    _report(
        "C06",
        scale_ok and frac >= 7.0 / 9.0 - 0.05,
        f"success fraction {frac:.4f} >= {7/9 - 0.05:.4f}; scale ratio in (1/2, n^2] "
        f"and no contraction class straddled on {trials} trials",
    )


def test_c07_size_scaling():
    g = gnp_connected(256, 0.35, seed=77)
    eps_list = [1 / 4, 1 / 8, 1 / 16, 1 / 32]
    sizes = []
    for eps in eps_list:
        sk = cut_sketch_build(g, eps, seed=707, mode="pipeline")
        sizes.append(len(sk.to_bytes()))
    slope = float(np.polyfit(np.log([1 / e for e in eps_list]), np.log(sizes), 1)[0])
    _report(
        "C07",
        0.65 <= slope <= 1.35,
        f"log-log slope of bytes vs 1/eps = {slope:.3f} in [0.65, 1.35]; sizes {sizes}",
    )


def _factor2_cluster_graph(seed: int) -> WeightedGraph:
    """Blocks of dense factor-2-weight clusters joined by sparse bridges, so
    the conductance partition genuinely removes cut edges."""
    rng = np.random.default_rng(seed)
    blocks = int(rng.integers(2, 5))
    sizes = rng.integers(4, 8, size=blocks)
    offs = np.concatenate(([0], np.cumsum(sizes)))
    n = int(offs[-1])
    edges = []
    for b in range(blocks):
        lo, hi = int(offs[b]), int(offs[b + 1])
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                if rng.random() < 0.8:
                    edges.append((i, j, float(1.0 + 0.999 * rng.random())))
    for b in range(blocks - 1):
        u = int(rng.integers(offs[b], offs[b + 1]))
        v = int(rng.integers(offs[b + 1], offs[b + 2]))
        edges.append((u, v, float(1.0 + 0.999 * rng.random())))
    return WeightedGraph(n, edges)


def test_c08_q_bound():
    worst = 0.0
    total_q = 0
    for seed in range(100):
        if seed % 2:
            g = gnp_connected(8 + seed % 10, 0.5, seed=seed, w_lo=1.0, w_hi=1.999)
        else:
            g = _factor2_cluster_graph(seed)
        h = (0.05, 0.1, 0.2, 0.3)[seed % 4]
        part = spectral_preprocessing(g, h)
        total_q += part.cross_count
        bound = 16.0 * h * g.m * math.log2(g.m + 1)
        worst = max(worst, part.cross_count / bound if bound else 0.0)
    _report(
        "C08",
        worst <= 1.0 and total_q > 0,
        f"max |Q| / (16 h m log2(m+1)) = {worst:.3f} <= 1 "
        f"({total_q} cut edges stored across the corpus)",
    )


def test_c09_cheeger_inequality():
    ok = True
    for seed in range(100):
        n = 4 + seed % 9
        g = gnp_connected(n, 0.5, seed=seed)
        h_exact = cheeger_exact(g)
        if lambda1_normalized(g) < h_exact**2 / 2.0 - 1e-12:
            ok = False
        h = (0.1, 0.25, 0.4)[seed % 3]
        part = spectral_preprocessing(g, h)
        for comp in part.components:
            if comp.graph.n >= 2 and comp.certified:
                if lambda1_normalized(comp.graph) < h * h / 2.0 - 1e-12:
                    ok = False
    _report("C09", ok, "lambda_1(normalized L) >= h^2/2 on all 100 graphs and components")


def test_c10_direction_and_recursion():
    pred_ok = True
    depth_ok = True
    for seed in range(100):
        n = 8 + seed % 57
        g = gnp_connected(n, 0.3, seed=seed)
        t = (2.0, 4.0, 8.0)[seed % 3]
        d = assign_direction(g, t)
        out = out_degrees_unweighted(g, d)
        arc_u, arc_v = arc_ends(g, d)
        if not bool(np.all((out[arc_u] < t) | (out[arc_v] >= t - 1))):
            pred_ok = False
        dcp = degree_class_partition(g, 0.25, seed=seed)
        s_top = dcp.levels[0].s if dcp.levels else 4.0
        if dcp.recursion_depth > recursion_depth_bound(n, s_top):
            depth_ok = False
    _report(
        "C10",
        pred_ok and depth_ok,
        "orientation postcondition and recursion depth bound hold on 100 graphs",
    )


def test_c11_spectral_sketches():
    results = []
    for variant, build, n, p, eps in (
        ("basic", spectral_basic_build, 32, 0.5, 0.2),
        ("improved", spectral_improved_build, 64, 0.6, 0.25),
    ):
        ok = 0
        trials = 0
        rng = np.random.default_rng(11)
        for gseed in range(4):
            g = gnp_connected(n, p, seed=1100 + gseed)
            for rep in range(5):
                sk = build(g, eps, seed=derive_seed(1111, variant, gseed, rep))
                for _ in range(20):
                    x = rng.normal(size=n)
                    exact = quadratic_form(g, x)
                    trials += 1
                    ok += abs(sk.estimate(x) - exact) <= eps * exact
        results.append((variant, ok / trials, trials))
    ok_all = all(frac >= 0.9 and trials == 400 for _, frac, trials in results)
    _report(
        "C11",
        ok_all,
        "; ".join(f"{v}: success {f:.4f} >= 0.9 ({t} trials)" for v, f, t in results),
    )


def test_c12_sdd_reduction_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for t in range(500):
        n = int(rng.integers(2, 65))
        b = rng.normal(size=(n, n))
        a = (b + b.T) / 2.0
        slack = rng.random(n) if t % 2 else np.zeros(n)
        np.fill_diagonal(a, np.abs(a).sum(axis=1) - np.abs(np.diag(a)) + slack)
        diag, lap = sdd_to_laplacian(a)
        x = rng.normal(size=n)
        lhs = float(x @ a @ x)
        rhs = float(np.dot(diag, x * x)) + 0.5 * quadratic_form(lap, embed_query(x))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    _report("C12", worst <= 1e-9, f"max relative identity error {worst:.2e} <= 1e-9 (500 matrices)")


def test_c13_jl_sketch():
    eps, delta = 0.5, 0.1
    r_expected = math.ceil(8.0 * eps**-2 * math.log(1.0 / delta))
    rng = np.random.default_rng(13)
    fails = 0
    trials = 0
    r_ok = True
    x = np.zeros(16)
    x[0] = 1.0
    for t in range(1000):
        sk = jl_build(np.eye(16), eps, delta, seed=derive_seed(1313, t))
        if sk.r != r_expected:
            r_ok = False
        trials += 1
        fails += not (0.5 <= sk.estimate(x) <= 1.5)
    for mi in range(10):
        b = rng.normal(size=(16, 16))
        a = b.T @ b
        xq = rng.normal(size=16)
        exact = float(xq @ a @ xq)
        for t in range(100):
            sk = jl_build(a, eps, delta, seed=derive_seed(1414, mi, t))
            trials += 1
            fails += abs(sk.estimate(xq) - exact) > eps * exact
    frac = fails / trials
    _report(
        "C13",
        trials == 2000 and frac <= delta + 0.02 and r_ok,
        f"failure fraction {frac:.4f} <= {delta + 0.02:.2f}; r = {r_expected} matches formula",
    )


def test_c14_distributed_min_cut():
    eps = 0.1
    ok = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(14, 41))
        g = gnp_connected(n, 0.35, seed=1400 + seed)
        k = 2 if seed % 2 else 4
        t = run_protocol(g, k, eps, reps=9, seed=seed)
        exact, _ = min_cut_exact(g)
        returned = cut_weight(g, t.best_members)
        ok += returned <= (1 + 3 * eps) * exact + 1e-9
    g48 = gnp_connected(48, 0.8, seed=4848)
    t48 = run_protocol(g48, 2, 0.25, reps=9, seed=48)
    raw = raw_edge_list_bytes(g48)
    bytes_ok = t48.total_bytes < raw
    _report(
        "C14",
        ok >= 95 and bytes_ok,
        f"returned cut within (1+3eps) on {ok}/100 seeds (>= 95); "
        f"transcript {t48.total_bytes} B < raw edge list {raw} B",
    )


def test_c15_determinism_and_roundtrip():
    rng = np.random.default_rng(15)
    g = gnp_connected(24, 0.45, seed=1500, w_lo=0.5, w_hi=40.0)
    checks = []

    def check(name, build, from_bytes, queries, estimate):
        a = build()
        b = build()
        identical = a.to_bytes() == b.to_bytes()
        back = from_bytes(a.to_bytes())
        equal = all(estimate(back, q) == estimate(a, q) for q in queries)
        checks.append((name, identical and equal))

    cut_queries = [random_members(24, rng) for _ in range(10)]
    vec_queries = [rng.normal(size=24) for _ in range(10)]
    check(
        "cut_poly",
        lambda: cut_basic_build(g, 0.15, seed=1, mode="pipeline"),
        CutSketchPoly.from_bytes,
        cut_queries,
        lambda sk, q: sk.estimate(q),
    )
    check(
        "cut_general",
        lambda: cut_sketch_build(g, 0.15, seed=2, mode="pipeline"),
        CutSketchGeneral.from_bytes,
        cut_queries,
        lambda sk, q: sk.estimate(q),
    )
    check(
        "spectral_basic",
        lambda: spectral_basic_build(g, 0.2, seed=3),
        SpectralBasicSketch.from_bytes,
        vec_queries,
        lambda sk, q: sk.estimate(q),
    )
    check(
        "spectral_improved",
        lambda: spectral_improved_build(g, 0.25, seed=4),
        SpectralImprovedSketch.from_bytes,
        vec_queries,
        lambda sk, q: sk.estimate(q),
    )
    b = np.random.default_rng(2).normal(size=(12, 12))
    a_sdd = (b + b.T) / 2
    np.fill_diagonal(a_sdd, np.abs(a_sdd).sum(axis=1))
    mat_queries = [rng.normal(size=12) for _ in range(5)]
    check(
        "sdd",
        lambda: sdd_sketch_build(a_sdd, 0.25, seed=5),
        SddSketch.from_bytes,
        mat_queries,
        lambda sk, q: sk.estimate(q),
    )
    a_psd = b.T @ b
    check(
        "jl",
        lambda: jl_build(a_psd, 0.4, 0.1, seed=6),
        JlSketch.from_bytes,
        mat_queries,
        lambda sk, q: sk.estimate(q),
    )
    bad = [name for name, ok in checks if not ok]
    _report(
        "C15",
        not bad,
        "byte-identical rebuilds and exact deserialized query equality for "
        + ", ".join(name for name, _ in checks)
        + (f"; FAILED: {bad}" if bad else ""),
    )
