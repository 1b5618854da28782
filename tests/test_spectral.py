import hashlib
from unittest import mock

import numpy as np
import pytest

from quadsketch.graph import (
    WeightedGraph,
    degrees,
    quadratic_form,
)
from quadsketch.errors import QuadsketchError
from quadsketch.oracle import lambda1_normalized
from quadsketch.partition import degree_class_partition, spectral_preprocessing
from quadsketch import spectral
from quadsketch.rng import derive_seed
from quadsketch.spectral import (
    SpectralBasicSketch,
    SpectralImprovedSketch,
    spectral_basic_build,
    spectral_improved_build,
    spectral_s2_build,
    spectral_s3_build,
)

from test_serialize import PINNED_ANSWERS, sampled_pieces

from conftest import (
    clique_and_path,
    complete_graph,
    estimator_expectation_exhaustive,
    gnp_connected,
    light_classes_stored_exactly,
    orient,
    outcome_sketch,
    outcome_space,
)


def heavy_vertices(g: WeightedGraph, epsilon: float, *, alpha=None) -> list[int]:
    """The vertices S2 samples at: weighted degree above min weight * alpha,
    where alpha defaults to eps^(-5/3)."""
    if alpha is None:
        alpha = epsilon ** (-5.0 / 3.0)
    delta, _ = degrees(g)
    return np.flatnonzero(delta > float(g.edge_w.min()) * alpha).tolist()


def pendant_triangle():
    """Three mutually adjacent hubs with one pendant each: with alpha = 2
    exactly the hubs are heavy."""
    return WeightedGraph(
        6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0)]
    )


class TestS2:
    def test_all_light_exact(self, rng):
        g = gnp_connected(10, 0.3, seed=1)
        sk = spectral_s2_build(g, 0.3, seed=2)  # alpha ~ 7.4 exceeds degrees
        assert heavy_vertices(g, 0.3) == []
        assert sk.owner.size == 0 and sk.su.size == g.m
        for _ in range(20):
            x = rng.normal(size=10)
            assert sk.estimate(x) == pytest.approx(quadratic_form(g, x), rel=1e-9, abs=1e-9)

    def test_all_ones_zero_when_light(self):
        g = gnp_connected(8, 0.4, seed=3)
        sk = spectral_s2_build(g, 0.3, seed=4)
        assert sk.estimate(np.ones(8)) == pytest.approx(0.0, abs=1e-9)

    def test_forced_heavy_unbiased_exhaustive(self, rng):
        g = pendant_triangle()
        build = lambda: spectral_s2_build(g, 0.3, seed=5, alpha=2.0)
        assert heavy_vertices(g, 0.3, alpha=2.0) == [0, 1, 2]
        assert np.flatnonzero(build().scale).tolist() == [0, 1, 2]
        spaces = outcome_space(build)
        for x in (np.eye(6)[0], rng.normal(size=6), np.array([1.0, -1, 2, 0, 1, -2])):
            val = estimator_expectation_exhaustive(spaces, lambda a: outcome_sketch(build, a).estimate(x))
            assert val == pytest.approx(quadratic_form(g, x), abs=1e-12)

    def test_forced_heavy_unbiased_dense_eight_vertices(self, rng):
        # denser 8-vertex instance, alpha = 2, query e_0
        g = WeightedGraph(
            8,
            [
                (0, 1, 1.0), (1, 2, 1.1), (0, 2, 0.9),
                (0, 3, 1.0), (0, 4, 1.0), (1, 5, 1.0), (1, 6, 1.0), (2, 7, 1.0),
                (3, 4, 0.8),
            ],
        )
        build = lambda: spectral_s2_build(g, 0.3, seed=6, alpha=2.0)
        assert 0 in heavy_vertices(g, 0.3, alpha=2.0) and build().scale[0] > 0
        spaces = outcome_space(build)
        x = np.eye(8)[0]
        val = estimator_expectation_exhaustive(spaces, lambda a: outcome_sketch(build, a).estimate(x))
        assert val == pytest.approx(quadratic_form(g, x), abs=1e-12)

    def test_sample_counts(self):
        g = pendant_triangle()
        sk = spectral_s2_build(g, 0.3, seed=6, alpha=2.0)
        for u in heavy_vertices(g, 0.3, alpha=2.0):
            if sk.scale[u] > 0:
                assert int(sk.y[sk.owner == u].sum()) == sk.draws

    def test_dimension_mismatch(self):
        sk = spectral_s2_build(pendant_triangle(), 0.3, seed=7)
        with pytest.raises(ValueError):
            sk.estimate(np.ones(5))

    def test_variance_ratio_bound(self, rng):
        # Var[I] / (x^T L x)^2 <= (2/alpha^2) ||D^(1/2) x||^4 / (x^T L x)^2
        g = complete_graph(8, w=1.0)
        alpha = 3.0
        x = rng.normal(size=8)
        exact = quadratic_form(g, x)
        delta, _ = degrees(g)
        rhs = (2.0 / alpha**2) * float(np.dot(delta, x * x)) ** 2
        vals = [
            spectral_s2_build(g, 0.3, seed=derive_seed(8, t), alpha=alpha).estimate(x)
            for t in range(4000)
        ]
        assert float(np.var(vals)) <= rhs
        assert float(np.mean(vals)) == pytest.approx(exact, rel=0.1)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestSpectralBasic:
    def test_single_class_high_cheeger_single_component(self):
        # K10 has Cheeger constant 5/9 > h = 0.15^(1/3) ~ 0.53: the composite
        # collapses to a single S2 sketch with no stored cut edges
        g = complete_graph(10)
        sk = spectral_basic_build(g, 0.15, seed=1)
        assert len(sk.classes) == 1
        cls = sk.classes[0]
        assert cls.q_u.size == 0 and len(cls.comps) == 1
        x = np.linspace(-1, 1, 10)
        assert sk.estimate(x) == pytest.approx(quadratic_form(g, x), rel=0.25)

    def test_constant_vector_exactly_zero(self):
        g = gnp_connected(20, 0.4, seed=2)
        sk = spectral_basic_build(g, 0.3, seed=3)
        assert sk.estimate(np.ones(20)) == pytest.approx(0.0, abs=1e-9)

    def test_monte_carlo_success_rate(self, rng):
        eps = 0.2
        ok = 0
        trials = 0
        for gseed in range(3):
            g = gnp_connected(32, 0.5, seed=40 + gseed)
            for rep in range(4):
                sk = spectral_basic_build(g, eps, seed=derive_seed(gseed, rep))
                for _ in range(8):
                    x = rng.normal(size=32)
                    exact = quadratic_form(g, x)
                    trials += 1
                    ok += abs(sk.estimate(x) - exact) <= eps * exact
        assert ok / trials >= 0.9

    def test_linearity_on_disjoint_union(self, rng):
        g1 = gnp_connected(8, 0.5, seed=4)
        g2 = gnp_connected(7, 0.5, seed=5)
        edges = list(g1.edges()) + [(u + 8, v + 8, w) for u, v, w in g2.edges()]
        g = WeightedGraph(15, edges)
        sk = spectral_basic_build(g, 0.25, seed=6)
        x = rng.normal(size=15)
        x1 = x.copy()
        x1[8:] = 0.0
        x2 = x.copy()
        x2[:8] = 0.0
        assert sk.estimate(x) == pytest.approx(sk.estimate(x1) + sk.estimate(x2), rel=1e-9, abs=1e-9)

    def test_cheeger_certificate_on_components(self):
        g = gnp_connected(12, 0.5, seed=7)
        h = 0.3
        part = spectral_preprocessing(g, h)
        for comp in part.components:
            if comp.graph.n >= 2:
                assert lambda1_normalized(comp.graph) >= h * h / 2.0 - 1e-12

    def test_exact_path_identity_random_corpus(self, rng):
        # whenever no sampled term exists, estimates equal the exact form
        checked = 0
        for seed in range(120):
            n = int(rng.integers(4, 12))
            g = gnp_connected(n, 0.4, seed=seed)
            sk = spectral_basic_build(g, 0.3, seed=seed)
            if sk.is_verbatim:
                continue
            has_samples = any(
                s2.owner.size for cls in sk.classes for _, s2 in cls.comps
            )
            if has_samples:
                continue
            for _ in range(10):
                x = rng.normal(size=n)
                assert sk.estimate(x) == pytest.approx(
                    quadratic_form(g, x), rel=1e-9, abs=1e-9
                )
                checked += 1
        assert checked >= 1000

    def test_gamma_below_eps_squared_class_stored_verbatim(self, rng):
        # a weight class violating gamma > eps^2 is stored exactly: a class
        # with no components whose cut edges are all of its edges
        g = gnp_connected(12, 0.5, seed=31, w_lo=1e-8, w_hi=1.9e-8)
        sk = spectral_basic_build(g, 0.3, seed=32)
        assert light_classes_stored_exactly(sk, g, 0.3, 32)
        for _ in range(10):
            x = rng.normal(size=12)
            assert sk.estimate(x) == pytest.approx(quadratic_form(g, x), rel=1e-9, abs=1e-12)

    def test_improved_not_larger_than_basic_at_small_eps(self):
        # 8/5 vs 5/3 exponent: at eps = 1/16 the improved sketch should not
        # exceed the basic one (trend-level comparison on one family)
        sizes_b = []
        sizes_i = []
        for seed in range(3):
            g = gnp_connected(64, 0.6, seed=700 + seed)
            sizes_b.append(len(spectral_basic_build(g, 1 / 16, seed=seed).to_bytes()))
            sizes_i.append(len(spectral_improved_build(g, 1 / 16, seed=seed).to_bytes()))
        assert sum(sizes_i) <= 1.05 * sum(sizes_b)

    @pytest.mark.parametrize(
        "n, seed, c_alpha, digest",
        [
            (16, 1, 0.3, "8e7bd5fa10b8f84ce4f691e782c7ad2b76545ca7eca78d6a9af741ca8f6864e5"),
            (20, 5, 0.25, "f1f2f02a5466c5dd4f74576eeada0c2206d77d975c98552c8238f4061cf45b37"),
        ],
        ids=["16-1-0.3", "20-5-0.25"],
    )
    def test_golden_s2_samples(self, n, seed, c_alpha, digest):
        # pins the S2 sample bytes; the second graph also has a heavy vertex
        # without heavy neighbours. Re-recorded at format versions 4, 5,
        # 6 and 7, which decode the same arrays (7 moved only the version
        # byte of a spectral envelope)
        g = gnp_connected(n, 0.5, seed=seed, w_lo=1.0, w_hi=4.0)
        sk = spectral_basic_build(g, 0.3, seed + 1, c_alpha=c_alpha)
        assert all(s2.owner.size for cls in sk.classes for _, s2 in cls.comps if (s2.scale > 0).any())
        assert sha256(sk.to_bytes()) == digest

    def test_serialization_roundtrip(self, rng):
        g = gnp_connected(24, 0.5, seed=8, w_lo=0.5, w_hi=7.0)
        a = spectral_basic_build(g, 0.2, seed=9)
        b = spectral_basic_build(g, 0.2, seed=9)
        assert a.to_bytes() == b.to_bytes()
        back = SpectralBasicSketch.from_bytes(a.to_bytes())
        for _ in range(5):
            x = rng.normal(size=24)
            assert back.estimate(x) == a.estimate(x)


class TestS3:
    def test_all_stored_is_exact(self, rng):
        # low out-degrees everywhere: every arc lands in the stored set
        arcs = [(i, i + 1, 1.0) for i in range(9)]
        g, flip = orient(10, arcs)
        sk = spectral_s3_build(g, flip, 0.3, kappa=3, seed=1, beta=4.0)
        for _ in range(10):
            x = rng.normal(size=10)
            assert sk.estimate(x) == pytest.approx(quadratic_form(g, x), rel=1e-9, abs=1e-9)

    def test_single_vertex_indicator(self):
        arcs = [(1, 0, 2.0), (2, 0, 3.0), (1, 2, 1.0)]
        d, flip = orient(3, arcs)
        sk = spectral_s3_build(d, flip, 0.4, kappa=2, seed=2, beta=4.0)
        x = np.array([1.0, 0.0, 0.0])
        assert sk.estimate(x) == pytest.approx(5.0, rel=1e-9)

    def test_forced_heavy_unbiased_exhaustive(self, rng):
        arcs = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (4, 1, 1.0), (4, 2, 1.0), (1, 2, 1.3)]
        exact_graph, flip = orient(5, arcs)
        build = lambda: spectral_s3_build(exact_graph, flip, 0.3, kappa=1, seed=0, beta=2.0)
        spaces = outcome_space(build)
        for x in (rng.normal(size=5), np.array([1.0, -1, 0.5, 2, -2])):
            val = estimator_expectation_exhaustive(spaces, lambda a: outcome_sketch(build, a).estimate(x))
            assert val == pytest.approx(quadratic_form(exact_graph, x), abs=1e-12)

    def test_constant_vector_zero_with_mixed_heads(self):
        # some heads have stored and sampled in-arcs; a head's sample
        # coefficients must sum to its sampled in-weight. The digest was
        # re-recorded at format versions 4, 5, 6 and 7, which decode the
        # same arrays
        g = gnp_connected(20, 0.5, seed=8, w_lo=1, w_hi=4)
        sk = spectral_improved_build(g, 0.2, 8, c_beta=0.3)
        comps = [comp for _, s3 in sk.classes for _, comp in s3.comps]
        assert any(np.intersect1d(comp.sv, comp.owner).size for comp in comps)
        assert abs(sk.estimate(np.ones(20))) <= 1e-9 * g.total_weight
        assert sha256(sk.to_bytes()) == "8d67e88382a77b9ddc64091747f3e2ddffcc198fdddedb60d2243a10fbff0d69"

    def test_golden_with_leftover_recursion(self):
        # pins the bytes of a build whose degree-class partition recurses on
        # left-over arcs (re-recorded at format versions 4, 5, 6 and 7,
        # which decode the same arrays)
        g = clique_and_path(80, 200)
        sk = spectral_improved_build(g, 0.25, 1)
        assert degree_class_partition(g, 0.25, derive_seed(1, "partition")).recursion_depth == 2
        assert sha256(sk.to_bytes()) == "7694a213b1eaf60f00ec5211cb0060f0f84806c54bff8b4e8f88d8d2bbcec6ad"

    @pytest.mark.parametrize("k, tail, c_beta", [(80, 200, 8.0), (120, 600, 7.6)])
    def test_large_c_beta_counts_each_arc_once(self, k, tail, c_beta):
        # beta > 4s leaves level 0 without bands; low arcs must not also be
        # deferred to the next level, which would count them twice
        g = clique_and_path(k, tail)
        xs = np.random.default_rng(0).normal(size=(4, g.n))
        for seed in range(3):
            sk = spectral_improved_build(g, 0.25, seed, c_beta=c_beta)
            for x in xs:
                assert sk.estimate(x) == pytest.approx(quadratic_form(g, x), rel=0.05)

    def test_h_is_two_to_minus_kappa(self):
        # the conductance partition of the piece runs at h = 2^-kappa
        arcs = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
        d, flip = orient(3, arcs)
        for kappa in (1, 3):
            with mock.patch.object(spectral, "spectral_preprocessing", wraps=spectral_preprocessing) as prep:
                spectral_s3_build(d, flip, 0.3, kappa=kappa, seed=3)
            (_, h), _ = prep.call_args
            assert h == 2.0**-kappa

    def test_serialization_via_improved(self, rng):
        g = gnp_connected(40, 0.5, seed=4)
        a = spectral_improved_build(g, 0.25, seed=5)
        back = SpectralImprovedSketch.from_bytes(a.to_bytes())
        for _ in range(5):
            x = rng.normal(size=40)
            assert back.estimate(x) == a.estimate(x)


class TestSpectralImproved:
    def test_sparse_graph_everything_exact(self, rng):
        g = WeightedGraph(12, [(i, i + 1, 1.0) for i in range(11)])
        sk = spectral_improved_build(g, 0.25, seed=1)
        for _ in range(10):
            x = rng.normal(size=12)
            assert sk.estimate(x) == pytest.approx(quadratic_form(g, x), rel=1e-9, abs=1e-9)

    def test_constant_zero(self):
        g = gnp_connected(30, 0.5, seed=2)
        sk = spectral_improved_build(g, 0.25, seed=3)
        assert sk.estimate(np.ones(30)) == pytest.approx(0.0, abs=1e-9)

    def test_monte_carlo_success_rate(self, rng):
        eps = 0.25
        ok = 0
        trials = 0
        for gseed in range(3):
            g = gnp_connected(64, 0.6, seed=60 + gseed)
            for rep in range(3):
                sk = spectral_improved_build(g, eps, seed=derive_seed(gseed, rep))
                for _ in range(8):
                    x = rng.normal(size=64)
                    exact = quadratic_form(g, x)
                    trials += 1
                    ok += abs(sk.estimate(x) - exact) <= eps * exact
        assert ok / trials >= 0.9

    def test_linearity(self, rng):
        g1 = gnp_connected(9, 0.5, seed=6)
        g2 = gnp_connected(8, 0.5, seed=7)
        edges = list(g1.edges()) + [(u + 9, v + 9, w) for u, v, w in g2.edges()]
        g = WeightedGraph(17, edges)
        sk = spectral_improved_build(g, 0.25, seed=8)
        x = rng.normal(size=17)
        x1 = x.copy()
        x1[9:] = 0.0
        x2 = x.copy()
        x2[:9] = 0.0
        assert sk.estimate(x) == pytest.approx(sk.estimate(x1) + sk.estimate(x2), rel=1e-9, abs=1e-9)

    def test_verbatim_below_window(self):
        g = gnp_connected(16, 0.5, seed=9)
        sk = spectral_improved_build(g, 1.0 / 32, seed=10)
        assert sk.is_verbatim

    @pytest.mark.parametrize("build", [spectral_basic_build, spectral_improved_build])
    def test_verbatim_at_exactly_one_over_n(self, build):
        # the spectral rule is eps <= 1/n; the cut builders' is eps < 1/n
        g = gnp_connected(16, 0.5, seed=9)
        assert build(g, 1.0 / 16, seed=10).is_verbatim
        assert not build(g, float(np.nextafter(1.0 / 16, 1.0)), seed=10).is_verbatim


@pytest.mark.parametrize("build", [spectral_basic_build, spectral_improved_build])
def test_total_weight_that_is_not_finite_is_rejected(build):
    # each weight is finite, but the total is not: sparsified, the graph
    # would keep no edge and every answer would be 0.0
    with pytest.raises(QuadsketchError, match="total edge weight"):
        build(complete_graph(40, 1e307), 0.2, 1)


@pytest.mark.parametrize("build", [spectral_basic_build, spectral_improved_build])
def test_total_weight_whose_double_is_not_finite_is_rejected(build):
    # the total, 1.68e308, is finite, but the degrees add up to twice it:
    # a query answered "-inf + inf in fsum" (ValueError)
    with pytest.raises(QuadsketchError, match="twice the total edge weight"):
        build(complete_graph(7, 8e306), 0.2, 1)
    sk = build(complete_graph(7, 4e306), 0.2, 1)
    assert sk.estimate((np.arange(7) < 3).astype(float)) == pytest.approx(12 * 4e306, rel=1e-9)


def count_sampling_calls(monkeypatch) -> dict[str, int]:
    """Calls of spectral.rng_for, spectral.draw_counts and
    WeightedGraph._adjacency from here on, counted in the returned dict."""
    calls = {"rng_for": 0, "draw_counts": 0, "_adjacency": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(spectral, "rng_for")
    counted(spectral, "draw_counts")
    counted(WeightedGraph, "_adjacency")
    return calls


# Builds whose every S2 piece or S3 component samples nothing: (build, number
# of pieces, SHA-256 of the envelope). The digests were recorded when every
# piece still derived a stream and made an empty draw, and re-recorded at
# format versions 4, 5, 6 and 7, which decode the same arrays.
SAMPLE_FREE = {
    "spectral_basic": (
        lambda: spectral_basic_build(gnp_connected(40, 0.5, seed=4, w_lo=1.0, w_hi=4.0), 0.25, 5),
        33,
        "51799288dcf4f3200837b235dd04f4e04a40b2f3acd5eae639dbaa1e5e329242",
    ),
    "spectral_improved": (
        lambda: spectral_improved_build(gnp_connected(40, 0.5, seed=6), 0.3, 7),
        12,
        "098ef3252f1dbf55d7d9a382c69f8eb388c73b7526413d4e1cc1f5bf6ff8b88a",
    ),
}


@pytest.mark.parametrize("case", list(SAMPLE_FREE))
def test_sample_free_pieces_derive_no_stream(case, monkeypatch):
    make, pieces, digest = SAMPLE_FREE[case]
    calls = count_sampling_calls(monkeypatch)
    sk = make()
    records = sampled_pieces(sk)
    assert len(records) == pieces
    assert not any(rec.scale.any() for rec in records)
    assert calls == {"rng_for": 0, "draw_counts": 0, "_adjacency": 0}
    for rec in records:
        # flatten concatenates the sample arrays as vertex indices
        assert rec.owner.size == 0
        assert rec.owner.dtype == rec.nbr.dtype == rec.y.dtype == np.int64
    assert sha256(sk.to_bytes()) == digest


@pytest.mark.parametrize("case", list(PINNED_ANSWERS))
def test_pieces_with_candidates_still_draw(case, monkeypatch):
    # a piece has sampling candidates iff some vertex has a sample scale;
    # each such piece derives one stream and makes one draw
    calls = count_sampling_calls(monkeypatch)
    records = sampled_pieces(PINNED_ANSWERS[case][0]())
    drawing = sum(bool(rec.scale.any()) for rec in records)
    assert drawing > 0
    assert calls["rng_for"] == calls["draw_counts"] == drawing
