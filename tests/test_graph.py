import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadsketch.errors import GraphFormatError, QuadsketchError, QueryError, TooLargeError
from quadsketch.graph import (
    WeightedGraph,
    as_cut_query,
    check_total_weight,
    cheeger_exact,
    conductance,
    connected_components,
    cut_weight,
    degrees,
    format_graph,
    members_from_vertices,
    parse_graph,
    quadratic_form,
)
from quadsketch.oracle import expansion_exact, lambda1_normalized

from conftest import UnionFind, complete_graph, gnp, gnp_connected, mask_scores_reference, random_members, relabel


def triangle(w=1.0):
    return WeightedGraph(3, [(0, 1, w), (1, 2, w), (0, 2, w)])


def test_quadratic_form_single_edge():
    g = WeightedGraph(2, [(0, 1, 3.0)])
    assert quadratic_form(g, [1.0, -1.0]) == 12.0


def test_quadratic_form_constant_vector_is_zero():
    g = gnp_connected(10, 0.4, seed=3)
    assert quadratic_form(g, np.ones(10)) == 0.0


def test_quadratic_form_triangle_indicator_matches_cut():
    g = triangle()
    assert quadratic_form(g, [1.0, 0.0, 0.0]) == 2.0


def test_quadratic_form_dimension_mismatch():
    with pytest.raises(ValueError):
        quadratic_form(triangle(), [1.0, 0.0])


def test_cut_weight_examples():
    g = triangle()
    assert cut_weight(g, members_from_vertices(3, [0])) == 2.0
    assert cut_weight(g, np.zeros(3, dtype=bool)) == 0.0
    assert cut_weight(g, np.ones(3, dtype=bool)) == 0.0
    path = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert cut_weight(path, members_from_vertices(3, [1])) == 2.0


@given(st.integers(2, 30), st.floats(0.1, 1.0), st.sampled_from(["random", "empty", "full"]), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_cut_weight_is_the_bits_of_the_masked_sum(n, p, kind, seed):
    # weights over many magnitudes, so another summation order would show
    rng = np.random.default_rng(seed)
    if kind == "full":
        # complete bipartite graph split along its sides: every edge crosses
        half = n // 2
        g = WeightedGraph(n, [(i, j, 1.0) for i in range(half) for j in range(half, n)])
        s = np.arange(n) < half
    else:
        g = gnp(n, p, seed)
        s = rng.random(n) < 0.5 if kind == "random" else np.zeros(n, dtype=bool)
    g = g.with_weights(np.exp(rng.uniform(-20.0, 20.0, g.m)))
    mask = s[g.edge_u] != s[g.edge_v]
    assert mask.all() if kind == "full" else kind == "random" or not mask.any()
    assert np.float64(cut_weight(g, s)).tobytes() == np.float64(g.edge_w[mask].sum()).tobytes()


def test_cut_query_accepts_bits_only():
    assert as_cut_query(3, np.array([1, 0, 1])).tolist() == [True, False, True]
    assert as_cut_query(3, np.array([1, 0, 1], dtype=np.uint8)).tolist() == [True, False, True]
    path = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    for bad in ([-1, 0, 1], [0, 2, 1], [0, 1]):
        with pytest.raises(QueryError):
            as_cut_query(3, np.array(bad))
    with pytest.raises(QueryError):
        cut_weight(path, [-5, 0, 1])


def test_degrees():
    delta, d = degrees(triangle())
    assert np.allclose(delta, 2.0) and np.array_equal(d, [2, 2, 2])
    iso = WeightedGraph(3, [(0, 1, 1.0)])
    delta, d = degrees(iso)
    assert delta[2] == 0.0 and d[2] == 0
    star = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    delta, _ = degrees(star)
    assert delta[0] == 3.0 and delta[1] == 1.0


def test_parallel_edges_merged():
    g = WeightedGraph(2, [(0, 1, 1.0), (1, 0, 2.5)])
    assert g.m == 1 and g.edge_w[0] == 3.5


def test_invalid_edges_rejected():
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 2, 1.0)])


def test_conductance():
    assert conductance(WeightedGraph(2, [(0, 1, 1.0)]), [True, False]) == 1.0
    with pytest.raises(QuadsketchError):
        conductance(WeightedGraph(3, [(0, 1, 1.0)]), members_from_vertices(3, [2]))


def test_cheeger_exact_path4():
    # path 0-1-2-3: best split is the middle edge, phi = 1/min(2, 2)... vol
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    vals = []
    for mask in range(1, 8):
        s = np.array([(mask >> b) & 1 for b in range(3)] + [0], dtype=bool)
        vals.append(conductance(g, s))
    assert cheeger_exact(g) == pytest.approx(min(vals))
    assert cheeger_exact(g) == pytest.approx(1.0 / 3.0)


def test_expansion_exact_k4():
    assert expansion_exact(complete_graph(4)) == 2.0


def test_exhaustive_caps():
    with pytest.raises(TooLargeError):
        cheeger_exact(complete_graph(25))


def test_connected_components():
    assert int(connected_components(WeightedGraph(3)).max()) == 2
    assert int(connected_components(triangle()).max()) == 0
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    labels = connected_components(g)
    assert labels[3] != labels[0] and int(labels.max()) == 1


def union_find_labels(g):
    """Reference labelling: a union-find scan, labels by smallest member."""
    uf = UnionFind(g.n)
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        uf.union(u, v)
    seen: dict[int, int] = {}
    return np.array([seen.setdefault(uf.find(v), len(seen)) for v in range(g.n)], dtype=np.int64)


@given(st.integers(0, 40), st.floats(0.0, 0.3), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_connected_components_matches_union_find(n, p, seed):
    perm = np.random.default_rng(seed).permutation(n)
    g = relabel(gnp(n, p, seed), perm, n)  # no vertex order follows edge order
    labels = connected_components(g)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, union_find_labels(g))


@given(st.integers(2, 12), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_cut_equals_indicator_form(n, seed):
    rng = np.random.default_rng(seed)
    g = gnp_connected(n, 0.5, seed=seed % 1000)
    s = random_members(n, rng)
    cw = cut_weight(g, s)
    qf = quadratic_form(g, s.astype(float))
    assert cw == pytest.approx(qf, rel=1e-9)


@given(st.integers(2, 12), st.floats(-5, 5, allow_nan=False), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_constant_shift_invariance(n, c, seed):
    rng = np.random.default_rng(seed)
    g = gnp_connected(n, 0.5, seed=seed % 1000)
    x = rng.normal(size=n)
    a = quadratic_form(g, x)
    b = quadratic_form(g, x + c)
    assert b == pytest.approx(a, rel=1e-9, abs=1e-9)


def test_cheeger_inequality_on_random_corpus():
    # lambda_1(normalized L) >= h^2 / 2 on 100 random connected graphs
    checked = 0
    for seed in range(100):
        n = 4 + seed % 9
        g = gnp_connected(n, 0.5, seed=seed)
        h = cheeger_exact(g)
        lam1 = lambda1_normalized(g)
        assert lam1 >= h * h / 2.0 - 1e-12
        checked += 1
    assert checked == 100


@given(st.integers(2, 16), st.floats(0.2, 1.0), st.booleans(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_exhaustive_oracles_match_mask_by_mask_scan(n, p, weighted, seed):
    g = gnp_connected(n, p, seed=seed, w_lo=1.0, w_hi=4.0 if weighted else 1.0)
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
    h = float(mask_scores_reference(g, "conductance", masks).min())
    assert cheeger_exact(g) == pytest.approx(h, rel=1e-12, abs=0)
    # unit weights: counts are exact, so the minimum is too
    assert expansion_exact(g) == float(mask_scores_reference(g, "edge_expansion", masks).min())


@given(st.integers(2, 30), st.floats(0.05, 1.0), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_sorted_and_shuffled_edges_give_one_graph(n, p, seed):
    g = gnp(n, p, seed, w_lo=0.5, w_hi=2.0)
    rng = np.random.default_rng(seed)
    order = rng.permutation(g.m)
    flip = rng.random(g.m) < 0.5
    u = np.where(flip, g.edge_v, g.edge_u)[order]
    v = np.where(flip, g.edge_u, g.edge_v)[order]
    shuffled = WeightedGraph(n, _arrays=(u, v, g.edge_w[order]))
    w = g.edge_w.copy()
    resorted = WeightedGraph(n, _arrays=(g.edge_u, g.edge_v, w))
    assert shuffled == g and resorted == g
    # a graph holds its own weights: the caller's array stays writable
    w[:] = 1.0
    assert np.array_equal(resorted.edge_w, g.edge_w)


def test_sorted_input_still_validated_and_merged():
    # every input below is in ascending (lo, hi) order
    with pytest.raises(ValueError):
        WeightedGraph(3, _arrays=([0, 1], [1, 1], [1.0, 1.0]))
    with pytest.raises(ValueError):
        WeightedGraph(3, _arrays=([0, 1], [1, 3], [1.0, 1.0]))
    with pytest.raises(ValueError):
        WeightedGraph(3, _arrays=([0, 1], [1, 2], [1.0, -2.0]))
    g = WeightedGraph(3, _arrays=([0, 0, 1], [1, 1, 2], [1.0, 2.0, 4.0]))
    assert g.edge_u.tolist() == [0, 1] and g.edge_w.tolist() == [3.0, 4.0]


def test_parse_format_roundtrip():
    g = gnp_connected(8, 0.5, seed=1, w_lo=0.25, w_hi=3.0)
    assert parse_graph(format_graph(g)) == g


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as ei:
        parse_graph("2 1\n0 0 1.0\n")
    assert ei.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_graph("2 1\n0 1 -3\n")
    with pytest.raises(GraphFormatError):
        parse_graph("")
    with pytest.raises(GraphFormatError):
        parse_graph("2 2\n0 1 1.0\n")


@pytest.mark.parametrize("w", ["inf", "-inf", "nan", "1e400"])
def test_parse_rejects_non_finite_weight(w):
    with pytest.raises(GraphFormatError) as ei:
        parse_graph(f"3 2\n0 1 1.0\n1 2 {w}\n")
    assert ei.value.line == 3


def test_parse_rejects_a_total_weight_that_is_not_finite():
    # each weight is finite, but 780 of them sum past the largest double
    text = format_graph(complete_graph(40, 1e307))
    with pytest.raises(GraphFormatError, match="total edge weight") as ei:
        parse_graph(text)
    assert ei.value.line == 1
    with pytest.raises(QuadsketchError, match="total edge weight"):
        check_total_weight(complete_graph(40, 1e307))
    check_total_weight(complete_graph(40, 1e305))
    assert parse_graph(format_graph(complete_graph(40, 1e305))).m == 780


def test_parse_rejects_a_total_weight_whose_double_is_not_finite():
    # 21 weights of 8e306 sum to a finite 1.68e308, but twice that is not;
    # the cut ladder reaches 1.5 times the total and the degrees add up to twice it
    with pytest.raises(GraphFormatError, match="twice the total edge weight") as ei:
        parse_graph(format_graph(complete_graph(7, 8e306)))
    assert ei.value.line == 1
    assert parse_graph(format_graph(complete_graph(7, 4e306))).m == 21


def test_with_weights_shares_the_edges_and_the_adjacency():
    g = gnp_connected(12, 0.5, seed=4)
    table, labels = g._adjacency(), connected_components(g)
    w = np.linspace(0.5, 2.0, g.m)
    h = g.with_weights(w)
    assert h.edge_u is g.edge_u and h.edge_v is g.edge_v and np.array_equal(h.edge_w, w)
    assert h._adjacency() is table and connected_components(h) is labels
    assert h == WeightedGraph(12, zip(g.edge_u.tolist(), g.edge_v.tolist(), w.tolist()))
    # the new weights are a read-only copy; g keeps its own
    w[0] = 9.0
    assert h.edge_w[0] == 0.5 and not h.edge_w.flags.writeable and np.all(g.edge_w == 1.0)
    # an adjacency first built on the re-weighted graph serves the original
    k = gnp_connected(9, 0.6, seed=5)
    assert k.with_weights(np.full(k.m, 3.0))._adjacency() is k._adjacency()


@pytest.mark.parametrize("bad", [[0.0], [-1.0], [np.nan], [np.inf], [1.0, 1.0]])
def test_with_weights_rejects_bad_weights(bad):
    g = WeightedGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        g.with_weights(bad)


def test_subgraph_maps():
    g = gnp_connected(10, 0.4, seed=2)
    sub, vmap = g.induced_subgraph(members_from_vertices(10, [1, 3, 4, 7]))
    assert sorted(vmap.tolist()) == [1, 3, 4, 7]
    for u, v, w in sub.edges():
        assert w > 0 and vmap[u] < 10 and vmap[v] < 10
