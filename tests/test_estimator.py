"""The flat EdgeSampleEstimator against per-piece reference sums.

The references below are the per-piece estimators the composites used to
loop over: each piece evaluated on its own slice of the query, the pieces
summed with math.fsum. The flat estimator adds the same terms in another
order, so the two agree to rounding: 1e-12 relative, plus 1e-12 of the
largest possible term (total weight times max x^2) for answers near 0.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import quadsketch
from quadsketch.cli import main
from quadsketch.cutsketch import CutSketchGeneral, CutSketchPoly, GeneralScale, cut_basic_build, cut_sketch_build, scale_of
from quadsketch.errors import QuadsketchError, SketchConsistencyError
from quadsketch.estimator import flatten, piece_estimator
from quadsketch.graph import WeightedGraph, cut_weight, quadratic_form
from quadsketch.psdsdd import SddSketch, embed_query, sdd_sketch_build
from quadsketch.spectral import (
    BasicClass,
    S2Sketch,
    SpectralBasicSketch,
    SpectralImprovedSketch,
    spectral_basic_build,
    spectral_improved_build,
)

from conftest import gnp_connected

# ---------------------------------------------------------------------------
# Per-piece references


def xlx_ref(x, u, v, w):
    d = x[u] - x[v]
    return float(np.dot(w, d * d))


def s1_ref(sk, s):
    base = float(sk.delta[s].sum())
    mask = s[sk.owner] & s[sk.nbr]
    corr = (sk.deg[sk.owner[mask]] / sk.s) * sk.y[mask] * sk.w[mask]
    return base - float(corr.sum())


def s2_ref(sk, x):
    """S2 pieces and S3 components alike (an S3 scale is 2 * in_deg)."""
    t1 = float(np.dot(sk.diag, x * x))
    t2 = 2.0 * float(np.dot(sk.sw, x[sk.su] * x[sk.sv]))
    t3 = float(np.dot(sk.scale[sk.owner] / sk.draws, sk.y * x[sk.owner] * x[sk.nbr]))
    return math.fsum((t1, -t2, -t3))


def s3_ref(sk, x):
    terms = [xlx_ref(x, sk.q_u, sk.q_v, sk.q_w)]
    terms.extend(s2_ref(comp, x[vmap]) for vmap, comp in sk.comps)
    return math.fsum(terms)


def basic_ref(sk, x):
    if sk.is_verbatim:
        return quadratic_form(sk.verbatim, x)
    terms = []
    for cls in sk.classes:
        terms.append(xlx_ref(x, cls.q_u, cls.q_v, cls.q_w))
        terms.extend(s2_ref(s2, x[vmap]) for vmap, s2 in cls.comps)
    return math.fsum(terms)


def improved_ref(sk, x):
    if sk.is_verbatim:
        return quadratic_form(sk.verbatim, x)
    return math.fsum(s3_ref(s3, x[vmap]) for vmap, s3 in sk.classes)


def sdd_ref(sk, x):
    return float(np.dot(sk.diag, x * x)) + 0.5 * improved_ref(sk.lap_sketch, embed_query(x))


def cut_poly_ref(sk, s):
    """The per-class loop at the scale the sketch itself selects."""
    route = sk.route(s)
    if route is None or route[1] is None:
        return sk.estimate(s)
    scale = sk.scales[route[1]]
    total = 0.0
    for cls in scale.classes:
        total += float(cls.q_w[s[cls.q_u] != s[cls.q_v]].sum())
        total += sum(s1_ref(s1, s[vmap]) for vmap, s1 in cls.comps)
    return scale.c * total


def close(flat, ref, magnitude):
    return flat == pytest.approx(ref, rel=1e-12, abs=1e-12 * magnitude)


# ---------------------------------------------------------------------------
# Small random inputs

graphs = st.builds(
    lambda n, p, seed: gnp_connected(n, p, seed=seed, w_lo=1.0, w_hi=4.0),
    st.integers(8, 22),
    st.floats(0.3, 0.8),
    st.integers(0, 10**6),
)
# the cut ladder keeps S1 pieces (rather than storing every edge) only on
# dense graphs
dense_graphs = st.builds(
    lambda n, p, seed: gnp_connected(n, p, seed=seed, w_lo=1.0, w_hi=4.0),
    st.integers(14, 30),
    st.floats(0.75, 1.0),
    st.integers(0, 10**6),
)
build_seeds = st.integers(0, 2**32 - 1)


def queries(n, seed, count=3):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n) for _ in range(count)]


EXAMPLE_GRAPH = gnp_connected(22, 0.8, seed=5, w_lo=1.0, w_hi=4.0)


@given(graphs, st.floats(0.15, 0.45), st.floats(0.1, 1.0), build_seeds)
@example(EXAMPLE_GRAPH, 0.3, 0.2, 3)  # 81 S2 samples
@settings(max_examples=25, deadline=None)
def test_spectral_basic_flat_matches_pieces(g, eps, c_alpha, seed):
    sk = spectral_basic_build(g, eps, seed, c_alpha=c_alpha)
    back = SpectralBasicSketch.from_bytes(sk.to_bytes())
    for x in queries(g.n, seed):
        flat = sk.estimate(x)
        assert close(flat, basic_ref(sk, x), 4 * g.total_weight * float(np.max(x * x)))
        assert back.estimate(x) == flat  # decoded == in-memory, bit for bit


@given(graphs, st.floats(0.1, 0.45), st.floats(0.05, 1.0), build_seeds)
@example(EXAMPLE_GRAPH, 0.2, 0.1, 3)  # 78 S3 samples
@settings(max_examples=25, deadline=None)
def test_spectral_improved_flat_matches_pieces(g, eps, c_beta, seed):
    sk = spectral_improved_build(g, eps, seed, c_beta=c_beta)
    back = SpectralImprovedSketch.from_bytes(sk.to_bytes())
    for x in queries(g.n, seed):
        flat = sk.estimate(x)
        assert close(flat, improved_ref(sk, x), 4 * g.total_weight * float(np.max(x * x)))
        assert back.estimate(x) == flat


def sdd_matrix(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.9)
    a = (b + b.T) / 2
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.random(n))
    return a


@given(st.integers(4, 32), st.floats(0.3, 0.45), build_seeds)
@example(32, 0.45, 1)  # 67 S3 samples
@settings(max_examples=15, deadline=None)
def test_sdd_flat_matches_pieces(n, eps, seed):
    a = sdd_matrix(n, seed)
    sk = sdd_sketch_build(a, eps, seed)
    back = SddSketch.from_bytes(sk.to_bytes())
    for x in queries(n, seed):
        flat = sk.estimate(x)
        assert close(flat, sdd_ref(sk, x), 4 * float(np.abs(a).sum()) * float(np.max(x * x)))
        assert back.estimate(x) == flat


@given(dense_graphs, st.floats(0.2, 0.45), build_seeds)
@example(gnp_connected(30, 0.8, seed=1, w_lo=1.0, w_hi=4.0), 0.3, 3)  # 2,214 S1 samples
@settings(max_examples=15, deadline=None)
def test_cut_poly_flat_matches_pieces(g, eps, seed):
    sk = cut_basic_build(g, eps, seed, mode="pipeline")
    back = CutSketchPoly.from_bytes(sk.to_bytes())
    rng = np.random.default_rng(seed)
    for k in (1, 2, 3, g.n // 2):  # small cuts select the scales that hold S1 pieces
        s = np.zeros(g.n, dtype=bool)
        s[rng.choice(g.n, size=k, replace=False)] = True
        flat = sk.estimate(s)
        assert close(flat, cut_poly_ref(sk, s), 4 * g.total_weight)
        assert back.estimate(s) == flat


@given(graphs, st.floats(0.15, 0.45), st.floats(0.1, 1.0), build_seeds, st.floats(-3.0, 3.0))
@settings(max_examples=20, deadline=None)
def test_constant_vector_gives_zero(g, eps, c_alpha, seed, c):
    """Degree term, stored edges and S2 samples cancel exactly on constants;
    a cut sketch answers 0 for the empty and the full member set."""
    basic = spectral_basic_build(g, eps, seed, c_alpha=c_alpha)
    assert abs(basic.estimate(np.full(g.n, c))) <= 1e-9 * g.total_weight * max(1.0, c * c)
    cut = cut_basic_build(g, max(eps, 1.0 / g.n), seed, mode="pipeline")
    assert cut.estimate(np.ones(g.n, dtype=bool)) == 0.0
    assert cut.estimate(np.zeros(g.n, dtype=bool)) == 0.0


def test_exact_edges_keep_difference_form():
    # w (x_u - x_v)^2 needs no cancellation: constants give exactly 0, and a
    # unit step on top of 1e8 stays exact (x_u^2 + x_v^2 - 2 x_u x_v would not)
    est = flatten(3, [(None, piece_estimator(3, exact=(np.array([0, 1]), np.array([1, 2]), np.array([1.0, 3.0]))))])
    assert est.estimate(np.full(3, 7.25)) == 0.0
    assert est.estimate(np.array([1e8 + 1, 1e8, 1e8])) == 1.0


# ---------------------------------------------------------------------------
# Query plans: an estimator orders its terms by first endpoint on its first
# query, a cut_general sketch routes with array comparisons


def terms_ref(est, x):
    """The four terms of an estimator, each summed on its own."""
    return math.fsum(
        (
            float(np.dot(est.diag, x * x)),
            xlx_ref(x, est.eu, est.ev, est.ew),
            -2.0 * float(np.dot(est.sw, x[est.su] * x[est.sv])),
            -float(np.dot(est.coef, x[est.pu] * x[est.pv])),
        )
    )


@pytest.mark.parametrize("terms", ["exact", "stored", "samples", "stored+samples", "none"])
def test_plan_with_empty_terms(terms):
    """Pieces with no exact edges, or no products (an empty P), or neither."""
    rng = np.random.default_rng(7)
    n = 9
    u, v = np.triu_indices(n, 1)
    pick = rng.random(u.size) < 0.5
    edges = (u[pick], v[pick], rng.uniform(1.0, 4.0, int(pick.sum())))
    owner = rng.integers(0, n, 20)
    samples = (owner, (owner + rng.integers(1, n, 20)) % n, rng.uniform(0.5, 2.0, n), rng.integers(1, 4, 20))
    parts = {
        "exact": {"exact": edges},
        "stored": {"stored": edges},
        "samples": {"samples": samples},
        "stored+samples": {"stored": edges, "samples": samples},
        "none": {},
    }[terms]
    est = flatten(n, [(None, piece_estimator(n, diag=rng.uniform(0.0, 5.0, n), **parts))])
    for x in queries(n, 1):
        assert close(est.estimate(x), terms_ref(est, x), 100.0 * float(np.max(x * x)))


@pytest.mark.parametrize(
    "build, cls, ref",
    [(spectral_basic_build, SpectralBasicSketch, basic_ref), (spectral_improved_build, SpectralImprovedSketch, improved_ref)],
)
def test_verbatim_plan_matches_quadratic_form(build, cls, ref):
    g = gnp_connected(20, 0.6, seed=2, w_lo=1.0, w_hi=4.0)
    sk = build(g, 0.04, 1)  # eps <= 1/n: every edge is stored, as exact terms
    assert sk.is_verbatim
    back = cls.from_bytes(sk.to_bytes())
    for x in queries(g.n, 1):
        flat = sk.estimate(x)
        assert close(flat, ref(sk, x), 4 * g.total_weight * float(np.max(x * x)))
        assert back.estimate(x) == flat


def forest_walk_ref(sk, s):
    """route as a Python walk over the forest: the first cut edge j and the
    j of the last stored slice at or before it."""
    for j, (u, v, _) in enumerate(sk.tree):
        if s[u] != s[v]:
            return j, [gs.j for gs in sk.stored if gs.j <= j][-1]
    return None


def route_js(sk, s):
    route = sk.route(s)
    return None if route is None else (route[0], route[1].j)


@given(st.integers(6, 14), st.sampled_from(["uniform", "c06"]), build_seeds)
@settings(max_examples=15, deadline=None)
def test_general_route_matches_forest_walk(n, weights, seed):
    rng = np.random.default_rng(seed)
    g = gnp_connected(n, 0.6, seed=seed % 1000)
    w = rng.uniform(1.0, 4.0, g.m) if weights == "uniform" else rng.choice([1.0, 1e3, 1e6], size=g.m)
    g = WeightedGraph(n, _arrays=(g.edge_u, g.edge_v, w))
    sk = cut_sketch_build(g, 0.3, seed, mode="pipeline")
    back = CutSketchGeneral.from_bytes(sk.to_bytes())
    for k in range(8):
        s = rng.random(n) < 0.5
        if k == 0:
            s[:] = True  # cuts no forest edge
        want = forest_walk_ref(sk, s)
        assert route_js(sk, s) == want and route_js(back, s) == want
        if want is None:
            assert sk.estimate(s) == 0.0
        assert back.estimate(s) == sk.estimate(s)


def test_straddling_class_raises():
    # slice j = 1 (weight 1) contracts the edge of weight 1e6, {0, 1}; a
    # slice whose classes cut across the forest's order is corrupt
    g = WeightedGraph(3, [(0, 1, 1e6), (1, 2, 1.0)])
    sk = cut_sketch_build(g, 0.5, 3, mode="pipeline")
    assert [gs.j for gs in sk.stored] == [0, 1] and sk.stored[1].labels.tolist() == [0, 0, 1]
    s = np.array([False, False, True])  # cuts forest edge j = 1 only
    assert sk.route(s)[0] == 1 and sk.estimate(s) == pytest.approx(1.0, rel=0.5)
    bad = GeneralScale(1, np.array([0, 1, 1]), sk.stored[1].comps)
    corrupt = CutSketchGeneral(sk.epsilon, sk.n, tree=sk.tree, stored=[sk.stored[0], bad])
    with pytest.raises(SketchConsistencyError, match="straddles"):
        corrupt.estimate(s)


@given(dense_graphs, st.floats(0.2, 0.45), build_seeds)
@settings(max_examples=15, deadline=None)
def test_scale_index_matches_cut_weight(g, eps, seed):
    """c~ is the sparsifier's cut, summed in another order than cut_weight
    sums it, and selects the same scale."""
    sk = cut_basic_build(g, eps, seed, mode="pipeline")
    rng = np.random.default_rng(seed)
    for k in (1, 2, 3, g.n // 2):
        s = np.zeros(g.n, dtype=bool)
        s[rng.choice(g.n, size=k, replace=False)] = True
        c_ref = cut_weight(sk.sparsifier, s)
        c_tilde, idx = sk.route(s)
        assert c_tilde == pytest.approx(c_ref, rel=1e-12)
        assert idx == scale_of(sk.ladder, c_ref)


QUERY_THREADS_SCRIPT = """
import numpy as np
from quadsketch.graph import WeightedGraph, quadratic_form
from quadsketch.spectral import SpectralBasicSketch, spectral_basic_build

rng = np.random.default_rng(1)
n = 200
iu, ju = np.triu_indices(n, 1)
keep = rng.random(iu.size) < 0.6
g = WeightedGraph(n, _arrays=(iu[keep], ju[keep], rng.uniform(1.0, 4.0, int(keep.sum()))))
# eps below 1/n: the sketch stores every edge, as exact terms
sk = SpectralBasicSketch.from_bytes(spectral_basic_build(g, 0.004, 1).to_bytes())
assert sk.is_verbatim and sk.estimator.eu.size > 10_000
for k in range(3):
    x = np.random.default_rng(k).normal(size=n)
    print(sk.estimate(x).hex(), quadratic_form(g, x).hex())
"""


def test_answers_do_not_depend_on_blas_threads():
    # OpenBLAS runs a dot product of more than 10,000 entries on several
    # threads, which rounds differently; the answers sum in blocks below that
    src = str(Path(quadsketch.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        out = subprocess.run(
            [sys.executable, "-c", QUERY_THREADS_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(out.stdout.split())
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


def query_detail(path, members, capsys):
    """The answer and the --detail JSON of `cut-sketch query` on a file."""
    code = main(["cut-sketch", "query", str(path), ",".join(map(str, members)), "--detail"])
    out = capsys.readouterr()
    assert code == 0
    return float(out.out.strip()), json.loads(out.err)


def test_detail_reports_classes_and_cached_size(tmp_path, capsys, monkeypatch):
    g = gnp_connected(20, 0.5, seed=4, w_lo=1.0, w_hi=4.0)
    sk = cut_basic_build(g, 0.15, 2, mode="pipeline")
    data = sk.to_bytes()
    path = tmp_path / "poly.qsk"
    path.write_bytes(data)
    members = list(range(0, 20, 3))
    value, diag = query_detail(path, members, capsys)
    assert int(diag["bytes_touched"]) == len(data)
    parts = [v for _, v in ast.literal_eval(diag["per_class"])]
    assert value == pytest.approx(float(diag["c"]) * math.fsum(parts), rel=1e-12, abs=1e-12 * g.total_weight)
    # the route the report reads is the one the in-memory sketch takes
    c_tilde, idx = sk.route(np.isin(np.arange(20), members))
    assert float(diag["c_tilde"]) == c_tilde and int(diag["scale_index"]) == idx
    # later detailed queries do not serialize again
    monkeypatch.setattr(CutSketchPoly, "to_bytes", lambda self: pytest.fail("re-serialized"))
    assert int(query_detail(path, members, capsys)[1]["bytes_touched"]) == len(data)


def test_decoded_cut_poly_knows_its_size(tmp_path, capsys, monkeypatch):
    g = gnp_connected(20, 0.5, seed=5)
    sk = cut_basic_build(g, 0.15, 3, mode="pipeline")
    data = sk.to_bytes()
    back = CutSketchPoly.from_bytes(data)
    s = np.arange(20) < 7
    assert back.route(s) == sk.route(s)
    path = tmp_path / "poly.qsk"
    path.write_bytes(data)
    monkeypatch.setattr(CutSketchPoly, "to_bytes", lambda self: pytest.fail("re-serialized"))
    value, diag = query_detail(path, range(7), capsys)
    assert value == back.estimate(s)
    assert int(diag["bytes_touched"]) == len(data)


# ---------------------------------------------------------------------------
# Structural validation at decode: flatten and piece_estimator trust their
# input, so every index and count they read is checked when a record is read


_NO_IDX = np.empty(0, dtype=np.int64)


def s2_piece(n, **fields):
    """An S2 record on n vertices with unit degrees and scales, one draw
    and no edges or samples, but for the given fields."""
    empty = dict(su=_NO_IDX, sv=_NO_IDX, sw=np.empty(0), owner=_NO_IDX, nbr=_NO_IDX, y=_NO_IDX)
    return S2Sketch(**{"draws": 1, "diag": np.ones(n), "scale": np.ones(n), **empty, **fields})


def basic_holding(n, vmap, piece) -> bytes:
    """The envelope of a basic sketch on n vertices with one class: no cut
    edge, and the S2 piece under vmap."""
    cls = BasicClass(_NO_IDX, _NO_IDX, np.empty(0), [(vmap, piece)])
    return SpectralBasicSketch(0.3, n, classes=[cls]).to_bytes()


def corrupt_basic():
    g = gnp_connected(30, 0.6, seed=11, w_lo=1.0, w_hi=4.0)
    sk = spectral_basic_build(g, 0.3, 7, c_alpha=0.2)
    for cls in sk.classes:
        for _, s2 in cls.comps:
            if s2.owner.size:
                s2.owner = s2.owner.copy()
                s2.owner[0] = s2.n  # one past the piece's last vertex
                return sk.to_bytes()
    raise AssertionError("no S2 piece with samples")


def test_corrupt_owner_index_raises_domain_error():
    with pytest.raises(QuadsketchError, match="outside"):
        SpectralBasicSketch.from_bytes(corrupt_basic())


def test_corrupt_owner_index_cli_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.qsk"
    path.write_bytes(corrupt_basic())
    q = ",".join(str(float(i % 3)) for i in range(30))
    code = main(["spectral-sketch", "query", str(path), "--", q])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith("quadsketch: error:") and "Traceback" not in out.err


@pytest.mark.parametrize(
    "n, kwargs, match",
    [
        (3, {"diag": np.ones(2)}, "degrees"),
        # an edge list stores its length once: its weights can be short, its endpoint columns cannot
        (3, {"su": np.array([0, 1]), "sv": np.array([1, 2]), "sw": np.ones(1)}, "lengths"),
        (3, {"owner": np.array([0]), "nbr": np.array([1]), "y": np.array([1, 1])}, "lengths"),
        (3, {"scale": np.ones(2), "owner": np.array([0]), "nbr": np.array([1]), "y": np.array([1])}, "scales"),
        (0, {"scale": np.ones(1), "owner": np.array([0]), "nbr": np.array([0]), "y": np.array([1])}, "scales"),
    ],
)
def test_piece_length_mismatch(n, kwargs, match):
    data = basic_holding(n, np.arange(n), s2_piece(n, **kwargs))
    with pytest.raises(QuadsketchError, match=match):
        SpectralBasicSketch.from_bytes(data)


def test_zero_draws_rejected():
    g = gnp_connected(30, 0.6, seed=11, w_lo=1.0, w_hi=4.0)
    sk = spectral_basic_build(g, 0.3, 7, c_alpha=0.2)
    sk.classes[0].comps[0][1].draws = 0
    with pytest.raises(QuadsketchError, match="sample count"):
        SpectralBasicSketch.from_bytes(sk.to_bytes())


def test_cut_poly_missing_scale_rejected():
    """A cut_poly with a sparsifier but no scales at all."""
    g = gnp_connected(20, 0.9, seed=2)
    sk = cut_basic_build(g, 0.3, 1, mode="pipeline")
    assert CutSketchPoly.from_bytes(sk.to_bytes()).estimate(np.arange(20) < 3) > 0
    bare = CutSketchPoly(sk.epsilon, sk.n, sparsifier=sk.sparsifier, scales=[])
    with pytest.raises(QuadsketchError, match="no scale"):
        CutSketchPoly.from_bytes(bare.to_bytes())


def test_sdd_side_mismatch_rejected():
    sk = sdd_sketch_build(sdd_matrix(6, 1), 0.3, 1)
    bad = SddSketch(sk.diag[:-1], sk.lap_sketch)
    with pytest.raises(QuadsketchError, match="side"):
        SddSketch.from_bytes(bad.to_bytes())


@pytest.mark.parametrize(
    "vmap, piece, match",
    [
        # a piece whose vertex count is one above its map's length: the map
        # (which has no count of its own) runs past the end of the payload
        (np.array([0, 1]), s2_piece(3), "truncated"),
        (np.array([0, 1, 5]), s2_piece(3), "vertex map"),
        (np.array([0, 1, 2]), s2_piece(3, su=np.array([0]), sv=np.array([3]), sw=np.ones(1)), "outside"),
        (np.array([0, 1, 2]), s2_piece(3, owner=np.array([4]), nbr=np.array([0]), y=np.array([1])), "outside"),
    ],
)
def test_flatten_rejects_out_of_range(vmap, piece, match):
    """Every index that flatten maps lies in its piece, and every vertex
    map in the sketch, or the envelope does not decode."""
    with pytest.raises(QuadsketchError, match=match):
        SpectralBasicSketch.from_bytes(basic_holding(5, vmap, piece))


def test_flatten_maps_pieces_to_global_ids():
    a = piece_estimator(2, diag=np.array([1.0, 2.0]), exact=(np.array([0]), np.array([1]), np.array([3.0])))
    b = piece_estimator(
        2, diag=np.array([4.0, 8.0]), samples=(np.array([1]), np.array([0]), np.array([0.0, 0.5]), np.array([6.0]))
    )
    est = flatten(4, [(np.array([0, 3]), a), (np.array([3, 1]), b)])
    assert est.diag.tolist() == [1.0, 8.0, 0.0, 6.0]
    assert (est.eu.tolist(), est.ev.tolist()) == ([0], [3])
    assert (est.pu.tolist(), est.pv.tolist(), est.coef.tolist()) == ([1], [3], [3.0])
    x = np.array([1.0, 2.0, 5.0, -1.0])
    expected = 1 + 8 * 4 + 6 * 1 + 3.0 * (1 - -1) ** 2 - 3.0 * 2 * -1
    assert est.estimate(x) == expected
