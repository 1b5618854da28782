import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadsketch import cutsketch
from quadsketch.cutsketch import (
    CutSketchGeneral,
    CutSketchPoly,
    amplified_estimate,
    build_ladder,
    cut_basic_build,
    cut_s1_build,
    cut_sketch_build,
    mst_max,
    reachable_scales,
    scale_of,
)
from quadsketch.graph import (
    WeightedGraph,
    cut_weight,
    members_from_vertices,
)
from quadsketch.errors import QuadsketchError
from quadsketch.oracle import enumerate_cut_values, expansion_exact
from quadsketch.rng import derive_seed, rng_for

from conftest import (
    UnionFind,
    complete_graph,
    cut_basic_reference,
    cut_general_reference,
    estimator_expectation_exhaustive,
    gnp,
    gnp_connected,
    outcome_sketch,
    outcome_space,
    random_members,
    repeated_slices,
    trimmed,
    without_slices,
)


def s1_test_graph(n=16, gamma=0.05, seed=0):
    """Complete graph with weights in [gamma, 2 gamma): an S1-graph for
    eps = 1/8 (expansion n/2 >= 8 for n >= 16)."""
    rng = np.random.default_rng(seed)
    edges = [
        (i, j, float(gamma * (1.0 + 0.999 * rng.random())))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return WeightedGraph(n, edges)


def assert_same_s1(a, b):
    assert a.s == b.s
    for name in ("delta", "deg", "owner", "nbr", "w", "y"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)


def s1_tables_by_vertex(p: WeightedGraph, s: int, seed: int):
    """Reference S1 sampling: one rng.integers call per vertex, in order."""
    rng = rng_for(seed, "s1")
    indptr, others, eids = p._adjacency()
    owners, nbrs, ws, ys = [], [], [], []
    for u in range(p.n):
        nv, ne = others[indptr[u] : indptr[u + 1]], eids[indptr[u] : indptr[u + 1]]
        if nv.size == 0:
            continue
        counts = np.bincount(rng.integers(0, nv.size, size=s), minlength=nv.size)
        for slot in np.flatnonzero(counts):
            owners.append(u)
            nbrs.append(int(nv[slot]))
            ws.append(float(p.edge_w[ne[slot]]))
            ys.append(int(counts[slot]))
    return (
        np.array(owners, dtype=np.int64),
        np.array(nbrs, dtype=np.int64),
        np.array(ws, dtype=np.float64),
        np.array(ys, dtype=np.int64),
    )


class TestS1:
    def test_degree_one_vertex_all_samples_same(self):
        g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 3.0)])
        sk = cut_s1_build(g, 0.25, seed=1)  # s = 4
        rows = np.flatnonzero(sk.owner == 0)
        assert rows.size == 1 and sk.y[rows[0]] == 4 and sk.nbr[rows[0]] == 1

    def test_isolated_vertex(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        sk = cut_s1_build(g, 0.5, seed=2)
        assert sk.delta[2] == 0.0
        assert not np.any(sk.owner == 2)

    def test_singleton_estimate_is_degree(self):
        g = s1_test_graph()
        sk = cut_s1_build(g, 0.125, seed=3)
        s = members_from_vertices(g.n, [5])
        assert sk.estimate(s) == pytest.approx(float(sk.delta[5]), rel=1e-12)

    def test_no_internal_edges_is_exact(self):
        g = WeightedGraph(4, [(0, 2, 1.5), (0, 3, 2.0), (1, 2, 0.5)])
        sk = cut_s1_build(g, 0.5, seed=4)
        s = members_from_vertices(4, [0, 1])  # S has no internal edge
        assert sk.estimate(s) == pytest.approx(cut_weight(g, s), rel=1e-12)

    def test_sample_multiplicities_sum_to_s(self):
        g = s1_test_graph(12)
        sk = cut_s1_build(g, 0.125, seed=5)
        for u in range(g.n):
            rows = sk.owner == u
            if sk.deg[u] > 0:
                assert int(sk.y[rows].sum()) == sk.s

    @given(st.integers(1, 20), st.floats(0.0, 1.0), st.integers(1, 9), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_vertex_loop(self, n, p, s, seed):
        g = gnp(n, p, seed, w_lo=0.5, w_hi=2.0)
        sk = cut_s1_build(g, 0.5, seed, s=s)
        ref = s1_tables_by_vertex(g, s, seed)
        for got, want in zip((sk.owner, sk.nbr, sk.w, sk.y), ref):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(st.integers(2, 20), st.floats(0.1, 1.0), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_reweighted_graph_draws_the_tables_of_a_fresh_graph(self, n, p, seed):
        # the re-weighted graph reads the adjacency built for the original
        g = gnp(n, p, seed, w_lo=0.5, w_hi=2.0)
        cut_s1_build(g, 0.25, seed)
        w = np.random.default_rng(seed).uniform(0.1, 9.0, g.m)
        again = g.with_weights(w)
        assert again._adjacency() is g._adjacency()
        fresh = WeightedGraph(g.n, zip(g.edge_u.tolist(), g.edge_v.tolist(), w.tolist()))
        assert_same_s1(cut_s1_build(again, 0.25, seed + 1), cut_s1_build(fresh, 0.25, seed + 1))

    def test_sampling_law_monte_carlo(self):
        # E[Y_u^v] = s / d_u within 4 standard errors over 10^4 builds
        g = WeightedGraph(
            6,
            [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)],
        )
        s = 2
        builds = 10_000
        u, v = 0, 2
        total = 0
        for t in range(builds):
            sk = cut_s1_build(g, 0.5, seed=derive_seed(99, t), s=s)
            rows = (sk.owner == u) & (sk.nbr == v)
            total += int(sk.y[rows].sum())
        d_u = 3
        mean = total / builds
        var_y = s * (1 - 1 / d_u) * (1 / d_u)
        se = math.sqrt(var_y / builds)
        assert abs(mean - s / d_u) <= 4 * se

    def test_exhaustive_unbiasedness(self):
        g = WeightedGraph(
            6,
            [(0, 1, 0.7), (0, 2, 1.1), (1, 2, 0.9), (2, 3, 1.3), (3, 4, 0.8), (4, 5, 1.2)],
        )
        build = lambda: cut_s1_build(g, 0.5, 0, s=2)
        spaces = outcome_space(build)
        for s_set in ([0, 1], [0, 2, 4], [1, 3]):
            members = members_from_vertices(6, s_set)
            val = estimator_expectation_exhaustive(spaces, lambda a: outcome_sketch(build, a).estimate(members))
            assert val == pytest.approx(cut_weight(g, members), abs=1e-12)

    def test_variance_bound(self):
        # empirical Var[I] <= 1.2 * 44 eps^2 w^2 on an S1 graph, query w <= 5
        eps = 0.125
        g = s1_test_graph(16, gamma=0.05, seed=7)
        assert expansion_exact(g) >= 1.0 / eps
        members = members_from_vertices(16, [0, 3, 11])
        w = cut_weight(g, members)
        assert w <= 5.0
        vals = [
            cut_s1_build(g, eps, seed=derive_seed(7, t)).estimate(members)
            for t in range(10_000)
        ]
        var = float(np.var(vals))
        assert var <= 1.2 * 44.0 * eps**2 * w**2
        assert np.mean(vals) == pytest.approx(w, rel=0.05)


class TestCutBasic:
    def test_single_edge_exact(self):
        g = WeightedGraph(2, [(0, 1, 7.0)])
        sk = cut_basic_build(g, 0.25, seed=1)
        assert sk.estimate(members_from_vertices(2, [0])) == 7.0

    def test_empty_query_zero(self):
        g = gnp_connected(12, 0.5, seed=2)
        sk = cut_basic_build(g, 0.2, seed=3, mode="pipeline")
        assert sk.estimate(np.zeros(12, dtype=bool)) == 0.0
        assert sk.estimate(np.ones(12, dtype=bool)) == 0.0

    def test_auto_mode_verbatim_outside_window(self):
        g = gnp_connected(12, 0.5, seed=2)
        assert cut_basic_build(g, 0.2, seed=3).is_verbatim
        assert cut_basic_build(g, 1.0 / 64, seed=3).is_verbatim  # below 1/n

    def test_pipeline_sketches_at_exactly_one_over_n(self):
        # verbatim only strictly below 1/n
        g = gnp_connected(16, 0.5, seed=2)
        assert not cut_basic_build(g, 1.0 / 16, seed=3, mode="pipeline").is_verbatim
        assert cut_basic_build(g, float(np.nextafter(1.0 / 16, 0.0)), seed=3, mode="pipeline").is_verbatim

    def test_ladder_covers_cut_range(self):
        g = gnp_connected(16, 0.4, seed=5, w_lo=0.5, w_hi=300.0)
        ladder = build_ladder(g)
        assert ladder[0] <= g.edge_w.min() / 1.4
        assert ladder[-1] >= g.total_weight

    def test_scale_selection_brackets_true_weight(self):
        g = gnp_connected(24, 0.4, seed=6)
        sk = cut_basic_build(g, 0.15, seed=7, mode="pipeline")
        rng = np.random.default_rng(0)
        for _ in range(25):
            s = random_members(24, rng)
            route = sk.route(s)
            w = cut_weight(g, s)
            if w > 0 and route is not None and route[1] is not None:
                c = sk.scales[route[1]].c
                assert c <= w <= 4.4 * c

    def test_monte_carlo_failure_rate(self):
        # light version of the acceptance run: 27 eps w error at eps = 0.1
        eps = 0.1
        fails = 0
        trials = 0
        for gseed in range(4):
            g = gnp_connected(32, 0.4, seed=100 + gseed)
            rng = np.random.default_rng(gseed)
            for rep in range(5):
                sk = cut_basic_build(g, eps, seed=derive_seed(gseed, rep), mode="pipeline")
                for _ in range(5):
                    s = random_members(32, rng)
                    w = cut_weight(g, s)
                    trials += 1
                    fails += abs(sk.estimate(s) - w) > 27 * eps * w
        assert trials == 100
        assert fails / trials <= 2.0 / 9.0 + 0.05

    def test_monotone_structure(self):
        # Q edges map to real input edges; sample tables are well formed and
        # component vertex maps are injective and disjoint within a class
        g = gnp_connected(20, 0.45, seed=8)
        input_edges = {(int(u), int(v)) for u, v in zip(g.edge_u, g.edge_v)}
        sk = cut_basic_build(g, 0.2, seed=9, mode="pipeline")
        for sc in sk.scales:
            for cls in sc.classes:
                for u, v in zip(cls.q_u.tolist(), cls.q_v.tolist()):
                    assert (min(u, v), max(u, v)) in input_edges
                seen_vertices = set()
                for vmap, s1 in cls.comps:
                    verts = vmap.tolist()
                    assert len(set(verts)) == len(verts)
                    assert not (set(verts) & seen_vertices)
                    seen_vertices |= set(verts)
                    for o, nb, y in zip(s1.owner.tolist(), s1.nbr.tolist(), s1.y.tolist()):
                        assert o != nb and y >= 1
                    for u in range(s1.n):
                        rows = s1.owner == u
                        if s1.deg[u] > 0:
                            assert int(s1.y[rows].sum()) == s1.s

    def test_ladder_builds_one_adjacency_per_class_edge_set(self):
        # unit weights: most scales keep every edge in one class, and each
        # scale's S1 build reads the adjacency that the first one built
        g = gnp(60, 0.9, 7)
        preps, s1_builds, built = [], [], []
        adjacency, prepare = WeightedGraph._adjacency, cutsketch.cut_preprocessing

        def counted(p):
            if p._adj[0] is None:
                built.append(p)
            return adjacency(p)

        def recorded_prep(*args, **kw):
            preps.append(prepare(*args, **kw))
            return preps[-1]

        def recorded_s1(p, epsilon, seed):
            s1_builds.append((p, epsilon, seed, cut_s1_build(p, epsilon, seed)))
            return s1_builds[-1][-1]

        with (
            mock.patch.object(WeightedGraph, "_adjacency", counted),
            mock.patch.object(cutsketch, "cut_preprocessing", recorded_prep),
            mock.patch.object(cutsketch, "cut_s1_build", recorded_s1),
        ):
            cut_basic_build(g, 0.05, 3, mode="pipeline")
        classes = [cl.result for prep in preps for cl in prep.classes]
        class_sets = {
            np.sort(np.concatenate([res.cross_idx, *[cp.edge_idx for cp in res.components]])).tobytes()
            for res in classes
        }
        comp_sets = {cp.edge_idx.tobytes() for res in classes for cp in res.components}
        assert len(s1_builds) > len(built) == len(comp_sets) and len(built) <= len(class_sets)
        # every S1 build draws what it would draw on a graph built afresh
        for p, epsilon, seed, sketch in s1_builds:
            fresh = WeightedGraph(p.n, _arrays=(p.edge_u.copy(), p.edge_v.copy(), p.edge_w.copy()))
            assert_same_s1(sketch, cut_s1_build(fresh, epsilon, seed))

    def test_word_count_scaling(self):
        # log-log slope of stored words vs 1/eps within 1.0 +/- 0.35
        g = gnp_connected(96, 0.5, seed=10)
        words = []
        eps_list = [1 / 4, 1 / 8, 1 / 16, 1 / 32]
        for eps in eps_list:
            sk = cut_basic_build(g, eps, seed=11, mode="pipeline")
            words.append(sk.word_count())
        xs = np.log([1 / e for e in eps_list])
        ys = np.log(words)
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert 0.65 <= slope <= 1.35


class TestMst:
    def test_triangle_weights(self):
        g = WeightedGraph(3, [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 1.0)])
        t = mst_max(g)
        assert [w for _, _, w in t] == [3.0, 2.0]

    def test_ties_by_canonical_index(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)])
        t = mst_max(g)
        assert t == [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]

    def test_star_heaviest_first(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 5.0), (0, 3, 3.0)])
        t = mst_max(g)
        assert [w for _, _, w in t] == [5.0, 3.0, 1.0]

    def test_forest_on_disconnected(self):
        g = WeightedGraph(4, [(0, 1, 2.0), (2, 3, 1.0)])
        assert len(mst_max(g)) == 2


class TestCutGeneral:
    def test_three_edge_path_wide_weights(self):
        g = WeightedGraph(4, [(0, 1, 1e9), (1, 2, 1.0), (2, 3, 1e9)])
        sk = cut_sketch_build(g, 0.3, seed=1)
        q = members_from_vertices(4, [0])
        assert sk.estimate(q) == pytest.approx(1e9, rel=1e-9)
        q2 = members_from_vertices(4, [0, 1])
        assert sk.estimate(q2) == pytest.approx(1.0, rel=1e-9)

    def test_equal_weights_single_stored_slice(self):
        g = complete_graph(10)
        sk = cut_sketch_build(g, 0.2, seed=2, mode="pipeline")
        assert len(sk.stored) == 1

    def test_halving_rule(self):
        g = gnp_connected(24, 0.3, seed=3, w_lo=1.0, w_hi=10**6)
        sk = cut_sketch_build(g, 0.2, seed=4, mode="pipeline")
        ws = [sk.tree[gs.j][2] for gs in sk.stored]
        for a, b in zip(ws, ws[1:]):
            assert a / b >= 2.0

    def test_no_crossing_tree_edge_returns_zero(self):
        g = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        sk = cut_sketch_build(g, 0.4, seed=5, mode="pipeline")
        s = members_from_vertices(5, [3, 4])  # a whole component
        assert sk.estimate(s) == 0.0

    def test_three_scale_weights_monte_carlo(self):
        eps = 0.1
        ok = 0
        trials = 0
        rng = np.random.default_rng(1)
        for gseed in range(4):
            g = gnp_connected(18, 0.35, seed=50 + gseed)
            w = rng.choice([1.0, 1e3, 1e6], size=g.m)
            g = WeightedGraph(18, _arrays=(g.edge_u, g.edge_v, w))
            for rep in range(3):
                sk = cut_sketch_build(g, eps, seed=derive_seed(gseed, rep), mode="pipeline")
                for _ in range(5):
                    s = random_members(18, rng)
                    wt = cut_weight(g, s)
                    if wt == 0:
                        continue
                    value = sk.estimate(s)
                    trials += 1
                    ok += abs(value - wt) <= 30 * eps * wt
                    _, gs = sk.route(s)
                    ratio = wt / sk.tree[gs.j][2]
                    assert 0.5 < ratio <= 18 * 18
        assert ok / trials >= 7.0 / 9.0 - 0.05


class TestAmplification:
    def test_median_of_three_reduces_failures(self):
        # at a threshold tight enough that single copies fail visibly, the
        # median of 3 fails only when >= 2 copies do: rate <~ 3 f^2
        eps = 0.125
        g = s1_test_graph(16, gamma=0.05, seed=21)
        members = members_from_vertices(16, [0, 3, 11])
        w = cut_weight(g, members)
        tight = None
        singles = np.array(
            [
                cut_s1_build(g, eps, seed=derive_seed(600, t)).estimate(members)
                for t in range(1800)
            ]
        )
        # pick the empirical ~30% failure threshold, then check amplification
        tight = float(np.quantile(np.abs(singles - w), 0.70))
        f1 = float(np.mean(np.abs(singles - w) > tight))
        grouped = np.abs(singles.reshape(600, 3) - w)
        meds = np.abs(np.median(singles.reshape(600, 3), axis=1) - w)
        f3 = float(np.mean(meds > tight))
        se = math.sqrt(f1 * (1 - f1) / 600)
        assert f3 <= 3 * f1**2 + 4 * se

    def test_r1_identity(self):
        g = gnp_connected(16, 0.4, seed=6)
        s = members_from_vertices(16, [0, 1, 2])
        one = amplified_estimate(
            lambda gg, e, sd: cut_basic_build(gg, e, sd, mode="pipeline"), g, s, 0.2, 1, 77
        )
        sk = cut_basic_build(g, 0.2, derive_seed(77, "rep", 0), mode="pipeline")
        assert one == sk.estimate(s)

    def test_reps_must_be_odd(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            amplified_estimate(cut_basic_build, g, [True, False, False, False], 0.2, 2, 1)

    def test_deterministic_query_same_for_any_r(self):
        g = WeightedGraph(2, [(0, 1, 4.0)])
        s = members_from_vertices(2, [0])
        for r in (1, 3, 5):
            assert amplified_estimate(cut_sketch_build, g, s, 0.3, r, 5) == 4.0


class TestSerialization:
    def test_poly_roundtrip_and_determinism(self):
        g = gnp_connected(20, 0.4, seed=7, w_lo=0.5, w_hi=2.0)
        a = cut_basic_build(g, 0.15, seed=8, mode="pipeline")
        b = cut_basic_build(g, 0.15, seed=8, mode="pipeline")
        assert a.to_bytes() == b.to_bytes()
        back = CutSketchPoly.from_bytes(a.to_bytes())
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = random_members(20, rng)
            assert back.estimate(s) == a.estimate(s)

    def test_general_roundtrip(self):
        g = gnp_connected(15, 0.4, seed=9, w_lo=1.0, w_hi=1e5)
        a = cut_sketch_build(g, 0.15, seed=10, mode="pipeline")
        back = CutSketchGeneral.from_bytes(a.to_bytes())
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_members(15, rng)
            assert back.estimate(s) == a.estimate(s)
        assert back.to_bytes() == a.to_bytes()


def clusters(sizes, weights, p, seed):
    """Dense clusters with per-cluster weights, joined by light edges."""
    rng = np.random.default_rng(seed)
    label = np.repeat(np.arange(len(sizes)), sizes)
    iu, ju = np.triu_indices(label.size, 1)
    inside = label[iu] == label[ju]
    keep = rng.random(iu.size) < np.where(inside, p, 0.05)
    w = np.where(inside, np.asarray(weights)[label[iu]], 0.01) * rng.uniform(1.0, 1.5, iu.size)
    return WeightedGraph(label.size, _arrays=(iu[keep], ju[keep], w[keep]))


# SHA-256 of same-seed pipeline-mode envelopes, re-recorded at version 3
# (no ladder copy, no S1 eps, no nested envelope headers; the values are
# those version 1 wrote), at version 4 (the edge lists' new codec; the
# decoded arrays are those version 3 decoded), at version 5 (one form
# rule per edge list, one vertex count per piece; the same arrays), at
# version 6 (one Q edge table per poly sketch, q_w recomputed from it, and
# one-valued f64 arrays without indices; the same arrays) and at version 7
# (each S1 sample table as per-row draw gaps; the same arrays). The first
# digest is the
# full-ladder build as the per-vertex loop build wrote it, which
# cut_general_reference must still reproduce; it stores every slice the
# halving rule selects. The second is the production build, which keeps
# only the reachable scales of every slice and leaves out each slice equal
# to the one before it. The reference stores j = 0 and 62 of two-clusters
# and j = 0, 27, 62 and 91 of multi-scale; 62 of the first and 27 and 62 of
# the second repeat j = 0, so those two production digests were recorded
# anew when repeated slices stopped being stored (the envelopes equal the
# reference without those slices, trimmed). Every case stores S1 pieces,
# and the two-cluster case has weight classes with two pieces each.
GOLDEN = [
    (
        lambda: gnp_connected(40, 0.9, seed=1),
        0.1,
        7,
        "836e817397d473f4ea9477a2c609dcda79a700c10aa1976faed1d422700f0cee",
        "db72c0b744c05930274ffb75a4473178f32cca64b21c501ca047c360864b2a53",
    ),
    (
        lambda: clusters([32, 32], [1.0, 1.0], 0.9, 2),
        0.1,
        8,
        "c24ff685b9cc7ba9c126750eb7caa70a5c96207be7135e3ec5491209a1853220",
        "a016b28d7110422bdd7b0eb219acb34f8351783fdbd45750d619c16bd021c95c",
    ),
    (
        lambda: clusters([30, 36, 28], [1.0, 30.0, 1000.0], 0.95, 3),
        0.1,
        9,
        "2ccc1d0ab71f26dcd8f857ad30875a8a8292db8c09f24e3d565e00005aabd184",
        "84efca1aaee6333c02d30a3661541056054f17c0025404d3a83c555a81536ce5",
    ),
    (
        lambda: gnp_connected(48, 0.8, seed=4, w_lo=1.0, w_hi=4.0),
        0.15,
        10,
        "6c92f650b4b7792d4f0cc7125eb5e74d836d65b7b1fdd91c5ec0bfcf02dd38ec",
        "b9bf3307df99ca597c670037aaf889ac161376f9a1414be4e1f511940c2a4335",
    ),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "make, eps, seed, full_digest, digest", GOLDEN, ids=["gnp", "two-clusters", "multi-scale", "gnp-weighted"]
)
def test_golden_bytes(make, eps, seed, full_digest, digest):
    g = make()
    ref = cut_general_reference(g, eps, seed, mode="pipeline")
    assert sha256(ref.to_bytes()) == full_digest
    data = cut_sketch_build(g, eps, seed, mode="pipeline").to_bytes()
    assert sha256(data) == digest
    assert data == trimmed(without_slices(ref, repeated_slices(g, ref))).to_bytes()


def test_golden_bytes_empty_cores():
    # four multi-scale clusters whose degrees stay below 1/eps: every class
    # edge set the build partitions peels to an empty core. The first SHA-1
    # is the envelope as the piece-at-a-time peel wrote it (re-recorded at
    # versions 3, 4, 5, 6 and 7, which store the same values),
    # with all five selected slices j = 0, 11, 22, 33, 44; 11, 22 and 33
    # repeat j = 0, and the production envelope, recorded anew when repeated
    # slices stopped being stored, is that one without them.
    g = clusters([12, 12, 12, 12], [1.0, 3.0, 10.0, 30.0], 0.6, 5)
    ref = cut_general_reference(g, 0.03, 11, mode="pipeline", basic=cut_basic_build)
    assert hashlib.sha1(ref.to_bytes()).hexdigest() == "a43a16771c38b755aad2ebb87658e545ea1128bd"
    assert repeated_slices(g, ref) == [11, 22, 33]
    data = cut_sketch_build(g, 0.03, 11, mode="pipeline").to_bytes()
    assert hashlib.sha1(data).hexdigest() == "a17a35cbc887a6cff41f5cc6a5aacb7d83cb6f13"
    assert data == without_slices(ref, [11, 22, 33]).to_bytes()


def poly_sketches(sk) -> list:
    """The ladder sketches of a cut sketch: itself, or its slices' pieces."""
    if isinstance(sk, CutSketchGeneral):
        return [p for gs in sk.stored for _, p in gs.comps if not p.is_verbatim]
    return [sk]


Q_TABLE_CASES = {
    "uniform": lambda: cut_basic_build(gnp_connected(40, 0.9, seed=1), 0.1, 7, mode="pipeline"),
    "clustered": lambda: cut_basic_build(clusters([16, 16, 16], [1.0, 3.0, 9.0], 0.8, 1), 0.1, 2, mode="pipeline"),
    "general-slices": lambda: cut_sketch_build(
        clusters([30, 36, 28], [1.0, 30.0, 1000.0], 0.95, 3), 0.1, 9, mode="pipeline"
    ),
}


@pytest.mark.parametrize("case", list(Q_TABLE_CASES))
def test_decoded_scale_classes_equal_built_bit_for_bit(case):
    """A class's cut edges are rows of its sketch's Q edge table, and its
    weights are recomputed from them at decode: the decoded arrays hold the
    built ones' bits."""
    sk = Q_TABLE_CASES[case]()
    built, decoded = poly_sketches(sk), poly_sketches(type(sk).from_bytes(sk.to_bytes()))
    assert len(built) == len(decoded) >= (2 if case == "general-slices" else 1)
    for a, b in zip(built, decoded):
        assert a.table_u.size and all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("table_u", "table_v"))
        assert np.array_equal(a.table_w.view(np.uint64), b.table_w.view(np.uint64))
        for sa, sb in zip(a.scales, b.scales, strict=True):
            for ca, cb in zip(sa.classes, sb.classes, strict=True):
                for name in ("q_pos", "q_u", "q_v", "q_w"):
                    x, y = getattr(ca, name), getattr(cb, name)
                    assert x.dtype == y.dtype and np.array_equal(x.view(np.uint64), y.view(np.uint64)), name


@pytest.mark.parametrize("case", ["uniform", "clustered"])
def test_q_edges_are_the_partition_cut_edges_bit_for_bit(case):
    """Each class holds the cut edges and reweighted weights of its scale's
    cut_preprocessing; its rows list exactly the table's edges that some
    class keeps. Both builds reweight some edges (p < 1) at their higher
    scales."""
    sk = Q_TABLE_CASES[case]()
    g, eps, seed = {"uniform": (gnp_connected(40, 0.9, seed=1), 0.1, 7),
                    "clustered": (clusters([16, 16, 16], [1.0, 3.0, 9.0], 0.8, 1), 0.1, 2)}[case]
    k0, _ = reachable_scales(sk.sparsifier, build_ladder(g))
    rows, reweighted = [], False
    for i, sc in enumerate(sk.scales, start=k0):
        prep = cutsketch.cut_preprocessing(g, sc.c, eps, derive_seed(seed, "scale", i))
        for cl, cls in zip(prep.classes, sc.classes, strict=True):
            cut = cl.result
            assert np.array_equal(cls.q_u, cut.cross_u) and np.array_equal(cls.q_v, cut.cross_v)
            assert np.array_equal(cls.q_w.view(np.uint64), cut.cross_w.view(np.uint64))
            assert np.array_equal(sk.table_w[cls.q_pos], g.edge_w[cut.cross_idx])
            reweighted |= bool(np.any(cls.q_w != g.edge_w[cut.cross_idx] / sc.c))
            rows.append(cut.cross_idx)
    kept = np.unique(np.concatenate(rows))
    assert np.array_equal(sk.table_u, g.edge_u[kept]) and np.array_equal(sk.table_v, g.edge_v[kept])
    assert reweighted


def prefix_component_queries(tree, n, j, rng, count):
    """Member sets whose first crossed forest edge is tree[j]: unions of the
    components of the forest edges before j that hold tree[j]'s first
    endpoint and not its second."""
    uf = UnionFind(n)
    for u, v, _ in tree[:j]:
        uf.union(u, v)
    root = np.array([uf.find(x) for x in range(n)])
    u, v, _ = tree[j]
    others = np.setdiff1d(np.unique(root), [root[u], root[v]])
    return [np.isin(root, [root[u], *others[rng.random(others.size) < 0.5]]) for _ in range(count)]


@pytest.mark.parametrize("light", [False, True])
def test_slice_is_skipped_only_when_its_contracted_graph_repeats(light):
    # both forest edges pass the halving rule (1 / 0.4 >= 2), and neither
    # slice contracts anything; an edge of weight 0.02 lies between
    # 0.4 / n^3 and 1 / n^3, so only slice j = 1 keeps it
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 0.4)] + [(0, 2, 0.02)] * light)
    sk = cut_sketch_build(g, 0.5, 3, mode="pipeline")
    ref = cut_general_reference(g, 0.5, 3, mode="pipeline", basic=cut_basic_build)
    assert [gs.j for gs in ref.stored] == [0, 1]
    assert [gs.j for gs in sk.stored] == ([0, 1] if light else [0])
    assert sk.to_bytes() == without_slices(ref, repeated_slices(g, ref)).to_bytes()
    s = np.array([False, False, True])  # crosses forest edge j = 1 only
    assert sk.route(s)[1].j == (1 if light else 0)
    assert sk.estimate(s) == without_slices(ref, repeated_slices(g, ref)).estimate(s)


@pytest.mark.parametrize("case", [1, 2], ids=["two-clusters", "multi-scale"])
def test_query_past_a_repeated_slice_answers_from_the_kept_slice(case):
    make, eps, seed, _, _ = GOLDEN[case]
    g = make()
    sk = cut_sketch_build(g, eps, seed, mode="pipeline")
    ref = cut_general_reference(g, eps, seed, mode="pipeline", basic=cut_basic_build)
    dropped = repeated_slices(g, ref)
    kept = [gs.j for gs in sk.stored]
    assert dropped and kept == [gs.j for gs in ref.stored if gs.j not in dropped]
    rng = np.random.default_rng(case)
    for j in dropped:
        home = sk.stored[int(np.searchsorted(kept, j)) - 1]
        for s in prefix_component_queries(sk.tree, g.n, j, rng, 5):
            assert sk.route(s) == (j, home)
            value = sk.estimate(s)
            contracted = np.bincount(home.labels, weights=s, minlength=g.n) == np.bincount(home.labels, minlength=g.n)
            assert value == sum(poly.estimate(contracted[vmap]) for vmap, poly in home.comps)
            assert value == without_slices(ref, dropped).estimate(s)


# graphs of the hypothesis tests: unit weights, U[1, 4], or C06's mix of
# 1, 1e3 and 1e6
def weighted_graph(n, p, seed, weights):
    g = gnp_connected(n, p, seed=seed)
    if weights == "uniform":
        w = np.random.default_rng(seed).uniform(1.0, 4.0, g.m)
    elif weights == "c06":
        w = np.random.default_rng(seed).choice([1.0, 1e3, 1e6], size=g.m)
    else:
        return g
    return WeightedGraph(n, _arrays=(g.edge_u, g.edge_v, w))


weight_kinds = st.sampled_from(["unit", "uniform", "c06"])


class TestReachableScales:
    @given(
        st.integers(8, 40),
        st.floats(0.2, 1.0),
        st.integers(0, 10**6),
        weight_kinds,
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_answers_equal_full_ladder(self, n, p, gseed, weights, t, seed):
        g = weighted_graph(n, p, gseed, weights)
        eps = 1.0 / n + t * (0.2 - 1.0 / n)
        sk = cut_basic_build(g, eps, seed, mode="pipeline")
        ref = cut_basic_reference(g, eps, seed, mode="pipeline")
        assert sk.to_bytes() == trimmed(ref).to_bytes()
        rng = np.random.default_rng(seed)
        queries = [random_members(n, rng) for _ in range(10)]
        queries += [np.arange(n) == v for v in range(n)]  # the lightest cuts
        for s in queries:
            assert sk.estimate(s) == ref.estimate(s)

    @given(st.integers(2, 14), st.floats(0.1, 1.0), st.integers(0, 10**6), weight_kinds)
    @settings(max_examples=40, deadline=None)
    def test_every_cut_of_sparsifier_selects_a_kept_scale(self, n, p, gseed, weights):
        g = weighted_graph(n, p, gseed, weights)
        sk = cut_basic_build(g, 0.5, gseed, mode="pipeline")
        if sk.is_verbatim:  # n < 2 only
            return
        ladder = build_ladder(g)
        k0, k1 = reachable_scales(sk.sparsifier, ladder)
        assert np.array_equal(sk.ladder, ladder[k0 : k1 + 1])
        _, values = enumerate_cut_values(sk.sparsifier)
        picked = {scale_of(ladder, float(c)) for c in values if c > 0}
        assert picked and k0 <= min(picked) and max(picked) <= k1

    def test_disconnected_sparsifier_keeps_first_scale(self):
        g = WeightedGraph(8, [(u, v, 1.0) for a in (0, 4) for u in range(a, a + 4) for v in range(u + 1, a + 4)])
        sk = cut_basic_build(g, 0.2, 3, mode="pipeline")
        ladder = build_ladder(g)
        assert reachable_scales(sk.sparsifier, ladder)[0] == 0
        assert sk.ladder[0] == ladder[0]
        ref = cut_basic_reference(g, 0.2, 3, mode="pipeline")
        for s in (np.arange(8) < 4, np.arange(8) < 2, np.arange(8) % 3 == 0):
            assert sk.estimate(s) == ref.estimate(s)

    def test_edgeless_sparsifier(self):
        h = WeightedGraph(5)
        assert reachable_scales(h, np.geomspace(1.0, 10.0, 6)) == (0, 1)

    def test_dense_graph_drops_scales(self):
        g = gnp_connected(40, 0.9, seed=1)
        sk = cut_basic_build(g, 0.1, 7, mode="pipeline")
        assert 0 < len(sk.ladder) < len(build_ladder(g)) // 2
        assert len(sk.to_bytes()) < len(cut_basic_reference(g, 0.1, 7, mode="pipeline").to_bytes()) // 2

    def test_full_ladder_envelope_decodes_and_answers(self):
        g = gnp_connected(30, 0.8, seed=12, w_lo=1.0, w_hi=4.0)
        ref = cut_basic_reference(g, 0.1, 13, mode="pipeline")
        back = CutSketchPoly.from_bytes(ref.to_bytes())
        assert len(back.ladder) == len(build_ladder(g))
        sk = cut_basic_build(g, 0.1, 13, mode="pipeline")
        k0, _ = reachable_scales(sk.sparsifier, build_ladder(g))
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = random_members(30, rng)
            assert back.estimate(s) == ref.estimate(s) == sk.estimate(s)
            _, full = back.route(s)
            _, pruned = sk.route(s)
            assert back.scales[full].c == sk.scales[pruned].c
            assert full - pruned == k0
        general = cut_general_reference(g, 0.1, 13, mode="pipeline")
        data = general.to_bytes()
        assert CutSketchGeneral.from_bytes(data).to_bytes() == data
        s = np.arange(30) < 11
        assert CutSketchGeneral.from_bytes(data).estimate(s) == cut_sketch_build(g, 0.1, 13, mode="pipeline").estimate(s)


@pytest.mark.parametrize("build", [cut_basic_build, cut_sketch_build])
def test_total_weight_that_is_not_finite_is_rejected(build):
    # each weight is finite, but the ladder's top (1.5 times the total) is not
    with pytest.raises(QuadsketchError, match="total edge weight"):
        build(complete_graph(40, 1e307), 0.05, 1, mode="pipeline")


@pytest.mark.parametrize("build", [cut_basic_build, cut_sketch_build])
def test_total_weight_whose_double_is_not_finite_is_rejected(build):
    # the total, 1.68e308, is finite, but the ladder's top, 1.5 times it,
    # overflowed (OverflowError in build_ladder)
    with pytest.raises(QuadsketchError, match="twice the total edge weight"):
        build(complete_graph(7, 8e306), 0.15, 1, mode="pipeline")
    sk = build(complete_graph(7, 4e306), 0.15, 1, mode="pipeline")
    assert sk.estimate(np.arange(7) < 3) == pytest.approx(12 * 4e306, rel=1e-9)


@pytest.mark.parametrize("build", [cut_basic_build, cut_sketch_build])
def test_weights_whose_keep_score_overflows_build_without_warnings(build):
    # target * w overflows to inf in the sparsifier's keep probabilities;
    # inf means p = 1, so the sparsifier keeps every edge at its weight
    g = complete_graph(7, 3e306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sk = build(g, 0.15, 1, mode="pipeline")
        assert sk.estimate(np.arange(7) < 3) == pytest.approx(12 * 3e306, rel=1e-9)
    poly = sk if build is cut_basic_build else sk.stored[0].comps[0][1]
    assert poly.sparsifier == g
