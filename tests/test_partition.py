import math
from collections import deque
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import conftest
from quadsketch import graph, partition
from quadsketch.errors import QuadsketchError
from quadsketch.graph import (
    WeightedGraph,
    cheeger_exact,
    conductance,
    connected_components,
    cut_weight,
    label_components,
)
from quadsketch.graph import degrees
from quadsketch.oracle import expansion_exact
from quadsketch.partition import (
    EXHAUSTIVE_CUT_CAP,
    _partition_by_cuts,
    arc_ends,
    assign_direction,
    cut_preprocessing,
    degree_class_partition,
    find_sparse_cut,
    find_sparse_cuts,
    importance_sample,
    reweight,
    spectral_preprocessing,
    weight_class_of,
)
from quadsketch.rng import rng_for

from conftest import (
    assign_direction_reference,
    clique_and_path,
    complete_graph,
    exhaustive_cut_reference,
    find_sparse_cut_reference,
    gnp,
    gnp_connected,
    mask_scores_reference,
    out_degrees_unweighted,
    partition_by_cuts_reference,
    random_members,
    ratio_weights,
    sparse_cut_thresholds,
    recursion_depth_bound,
    threshold_core_reference,
)


def two_triangles_bridge():
    return WeightedGraph(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1.0)],
    )


class TestFindSparseCut:
    def test_two_triangles_conductance(self):
        res = find_sparse_cut(two_triangles_bridge(), "conductance", 0.2)
        assert res.members is not None
        side = set(np.flatnonzero(res.members).tolist())
        assert side in ({0, 1, 2}, {3, 4, 5})
        assert conductance(two_triangles_bridge(), res.members) <= 0.2

    def test_k6_edge_mode_none(self):
        res = find_sparse_cut(complete_graph(6), "edge_expansion", 1.0)
        assert res.members is None and res.certified

    def test_single_edge_conductance(self):
        res = find_sparse_cut(WeightedGraph(2, [(0, 1, 1.0)]), "conductance", 1.0)
        assert res.members is not None and res.members.sum() == 1

    def test_found_cut_always_qualifies(self):
        for seed in range(20):
            g = gnp_connected(14, 0.35, seed=seed)
            thr = 3.0
            res = find_sparse_cut(g, "edge_expansion", thr)
            if res.members is not None:
                s = res.members
                count = int(np.sum(s[g.edge_u] != s[g.edge_v]))
                assert s.sum() <= g.n // 2
                assert count / s.sum() < thr

    def test_exhaustive_absence_is_exact(self):
        # on small graphs a None answer must really mean no qualifying cut
        for seed in range(10):
            g = gnp_connected(9, 0.6, seed=seed)
            thr = 2.0
            res = find_sparse_cut(g, "edge_expansion", thr)
            if res.members is None:
                assert res.certified
                assert expansion_exact(g) >= thr

    @pytest.mark.parametrize("mode", ["edge_expansion", "conductance"])
    def test_nan_threshold_rejected(self, mode):
        with pytest.raises(QuadsketchError, match="NaN"):
            find_sparse_cut(two_triangles_bridge(), mode, float("nan"))

    @pytest.mark.parametrize("mode", ["edge_expansion", "conductance"])
    @pytest.mark.parametrize("threshold", [0.05, 0.5, 1.0 - 1e-12, 1.0, 1.5])
    @pytest.mark.parametrize("w", [0.3, 1.0, 7.0])
    def test_single_edge_needs_no_eigensolve(self, mode, threshold, w):
        # the only cut of a single edge is a singleton, whose expansion and
        # conductance are both 1: the first vertex when it qualifies, else a
        # certified None
        g = WeightedGraph(2, [(0, 1, w)])
        with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh:
            res = find_sparse_cut(g, mode, threshold)
        eigh.assert_not_called()
        qualifies = threshold > 1.0 if mode == "edge_expansion" else threshold >= 1.0
        assert res.certified
        if qualifies:
            assert res.members.tolist() == [True, False]
        else:
            assert res.members is None

    def test_deterministic(self):
        g = gnp_connected(26, 0.2, seed=5)
        a = find_sparse_cut(g, "conductance", 0.3)
        b = find_sparse_cut(g, "conductance", 0.3)
        if a.members is None:
            assert b.members is None
        else:
            assert np.array_equal(a.members, b.members)


class TestOneRatioSearch:
    """find_sparse_cut scores both modes with one ratio; it must answer as
    the search that wrote each step once per mode did."""

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 10, 14, 20, 21, 24, 30, 40, 60])
    @pytest.mark.parametrize("w_hi", [1.0, 4.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_answer_as_two_branch_search(self, n, w_hi, seed):
        rng = np.random.default_rng([n, seed])
        g = gnp_connected(n, min(1.0, float(rng.uniform(2.5, 8.0)) / n), seed, w_lo=1.0, w_hi=w_hi)
        for mode in ("edge_expansion", "conductance"):
            near = sparse_cut_thresholds(g, mode)
            # random thresholds up to twice the sweep's best prefix
            far = rng.uniform(0.0, 2.0 * near[7], size=3).tolist()
            for threshold in near + far:
                res = find_sparse_cut(g, mode, threshold)
                want, certified = find_sparse_cut_reference(g, mode, threshold)
                assert res.certified == certified, (mode, threshold)
                assert (res.members is None) == (want is None), (mode, threshold)
                assert want is None or np.array_equal(res.members, want), (mode, threshold)


def mode_matrix(g, mode):
    """The certificate matrix diag(deg / vw) - V^-1/2 A V^-1/2 of the mode,
    D - A for edge_expansion and I - D^-1/2 A D^-1/2 for conductance."""
    ew, vw = ratio_weights(g, mode)
    deg = np.bincount(g.edge_u, ew, g.n) + np.bincount(g.edge_v, ew, g.n)
    inv_sqrt = 1.0 / np.sqrt(vw)
    return np.diag(deg / vw) - (inv_sqrt[:, None] * g.adjacency_matrix(ew)) * inv_sqrt[None, :]


class TestFiedlerPair:
    @pytest.mark.parametrize("n", [21, 24, 40, 64, 100, 150, 200])
    @pytest.mark.parametrize("mode", ["edge_expansion", "conductance"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_full_eigh(self, n, mode, seed):
        rng = np.random.default_rng([n, seed])
        g = gnp_connected(n, min(1.0, float(rng.uniform(3.0, 12.0)) / n), seed, w_lo=1.0, w_hi=4.0)
        mat = mode_matrix(g, mode)
        vals, vecs = np.linalg.eigh(mat)
        lam1, vec = partition.fiedler_pair(mat.copy())
        assert abs(lam1 - vals[1]) <= 1e-12 * np.abs(vals).max()
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        # the first entry of largest magnitude is positive
        assert vec[np.argmax(np.abs(vec))] > 0
        if vals[2] - vals[1] > 1e-6:
            ref = vecs[:, 1]
            assert min(np.abs(vec - ref).max(), np.abs(vec + ref).max()) <= 1e-8

    @pytest.mark.parametrize("mode", ["edge_expansion", "conductance"])
    def test_sign_rule_gives_v_and_minus_v_the_same_bits(self, mode, monkeypatch):
        # LAPACK cannot be made to return the other sign, so a wrapped
        # eigh negates every vector it returns
        eigh = scipy.linalg.eigh

        def negated(*args, **kwargs):
            vals, vecs = eigh(*args, **kwargs)
            return vals, -vecs

        mat = mode_matrix(gnp_connected(60, 0.15, 2, w_lo=1.0, w_hi=4.0), mode)
        want = partition.fiedler_pair(mat.copy())
        monkeypatch.setattr(scipy.linalg, "eigh", negated)
        got = partition.fiedler_pair(mat.copy())
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sign_rule_reads_the_first_largest_entry(self, sign, monkeypatch):
        # |entries| tie at 0.5: the first of them, entry 0, decides
        pair = (np.array([0.0, 1.0]), np.stack([np.full(4, 0.5), sign * np.array([0.5, -0.5, 0.5, -0.5])], 1))
        monkeypatch.setattr(scipy.linalg, "eigh", lambda *args, **kwargs: pair)
        lam1, got = partition.fiedler_pair(np.eye(4))
        assert lam1 == 1.0
        assert got.tolist() == [0.5, -0.5, 0.5, -0.5]


def connected_with_repeated_weights(n, p, seed):
    """A random spanning tree plus G(n, p) edges, weights drawn from a
    few values, so that many masks score the same."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    tree = [(int(perm[i]), int(perm[rng.integers(0, i)])) for i in range(1, n)]
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    pairs = tree + list(zip(iu[keep].tolist(), ju[keep].tolist()))
    weights = rng.choice([0.1, 0.3, 1.0, 1.7, 2.0], size=len(pairs))
    # repeated pairs are merged, which sums their weights
    return WeightedGraph(n, [(u, v, float(w)) for (u, v), w in zip(pairs, weights)])


def exhaustive_cut(g, mode, threshold):
    """The exhaustive scan of partition on g alone, as a stack of one."""
    ew, vw = ratio_weights(g, mode)
    return partition._exhaustive_cuts(g.edge_u[None], g.edge_v[None], ew[None], vw[None], mode, threshold)[0]


class TestExhaustiveCut:
    @given(
        st.sampled_from(["conductance", "edge_expansion"]),
        st.integers(2, 20),
        st.floats(0.1, 0.9),
        st.integers(0, 10**6),
        st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_members_as_mask_by_mask_scan(self, mode, n, p, seed, nudge):
        # the threshold is a mask's own score, one ulp off at most: the
        # near-tie case, where any other summation order could flip a mask
        g = connected_with_repeated_weights(n, p if n <= 14 else p / 3, seed)
        rng = np.random.default_rng(seed)
        mask = np.array([rng.integers(1, 1 << (n - 1))])
        threshold = float(mask_scores_reference(g, mode, mask)[0])
        if nudge:
            threshold = float(np.nextafter(threshold, np.inf * nudge))
        got = exhaustive_cut(g, mode, threshold)
        want = exhaustive_cut_reference(g, mode, threshold)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(12))
    def test_threshold_at_the_minimum(self, seed):
        # the first qualifying mask is the first minimiser, and the product's
        # rounding of its score must not drop it
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        g = connected_with_repeated_weights(n, float(rng.uniform(0.2, 0.9)), seed)
        for mode in ("conductance", "edge_expansion"):
            least = float(mask_scores_reference(g, mode, np.arange(1, 1 << (n - 1))).min())
            for threshold in (least, float(np.nextafter(least, np.inf))):
                got = exhaustive_cut(g, mode, threshold)
                want = exhaustive_cut_reference(g, mode, threshold)
                assert (got is None) == (want is None)
                assert want is None or np.array_equal(got, want)

    def test_no_qualifying_mask(self):
        g = complete_graph(7)
        assert exhaustive_cut(g, "conductance", 0.1) is None
        assert exhaustive_cut_reference(g, "conductance", 0.1) is None


def pieces_of_each_kind(n, seed=0):
    """Connected weighted graphs on n vertices that moderate thresholds send
    down every path of the search: a path (degree-1 vertices: expansion
    singletons), a clique (cleared by the certificate), two cliques joined
    by one edge (a sparse cut that the exhaustive scan finds) and two
    random graphs."""
    rng = np.random.default_rng([n, seed])

    def w():
        return float(rng.uniform(1.0, 3.0))

    k = n // 2
    halves = [(i, j, w()) for lo, hi in ((0, k), (k, n)) for i in range(lo, hi) for j in range(i + 1, hi)]
    return [
        WeightedGraph(n, [(i, i + 1, w()) for i in range(n - 1)]),
        WeightedGraph(n, [(i, j, w()) for i in range(n) for j in range(i + 1, n)]),
        WeightedGraph(n, halves + [(k - 1, k, w())]),
        *(gnp_connected(n, p, seed + n, w_lo=1.0, w_hi=4.0) for p in (0.3, 0.6)),
    ]


def dense_certificate(g, mode):
    """The certificate matrix as the search built it densely, in C order:
    diag(deg / vw) - (V^-1/2 A) V^-1/2 with the degrees of weighted_degrees."""
    ew, vw = graph.ratio_weights(g, mode)
    deg = graph.weighted_degrees(g.n, g.edge_u, g.edge_v, ew)
    inv_sqrt = 1.0 / np.sqrt(vw)
    return np.diag(deg / vw) - (inv_sqrt[:, None] * g.adjacency_matrix(ew)) * inv_sqrt[None, :]


SEARCH_THRESHOLDS = {
    "edge_expansion": [0.5, 1.5, 2.5, 4.0],
    "conductance": [0.1, 0.3, 0.6, float(np.nextafter(1.0, 0.0)), 1.0],
}


class TestBatchedSearch:
    """find_sparse_cuts searches a batch of pieces of one size together; each
    piece must get the answer of the search that wrote every step once per
    mode, whatever else is in its batch."""

    @staticmethod
    def search_paths(monkeypatch):
        """Counts of the pieces that reach the certificate and the exhaustive
        scan, added up until the caller resets them."""
        reached = {"certificate": 0, "scan": 0}
        certificate, scan = partition._certificate_matrices, partition._exhaustive_cuts

        def spy_certificate(eu, ev, w, deg, vw):
            reached["certificate"] += vw.shape[0]
            return certificate(eu, ev, w, deg, vw)

        def spy_scan(eu, *args):
            reached["scan"] += eu.shape[0]
            return scan(eu, *args)

        monkeypatch.setattr(partition, "_certificate_matrices", spy_certificate)
        monkeypatch.setattr(partition, "_exhaustive_cuts", spy_scan)
        return reached

    @pytest.mark.parametrize("mode", ["edge_expansion", "conductance"])
    @pytest.mark.parametrize("n", [*range(2, EXHAUSTIVE_CUT_CAP + 1), 24, 40])
    def test_same_answer_as_reference_piece_by_piece(self, n, mode, monkeypatch):
        pieces = pieces_of_each_kind(n)
        # the random pieces' own decision points, where the last bit decides
        near = sparse_cut_thresholds(pieces[3], mode)[3:6] if n > 2 else []
        reached = self.search_paths(monkeypatch)
        mixed = []
        for threshold in SEARCH_THRESHOLDS[mode] + near:
            found = find_sparse_cuts(pieces, mode, threshold)
            assert len(found) == len(pieces)
            singles = 0
            for piece, res in zip(pieces, found):
                want, certified = find_sparse_cut_reference(piece, mode, threshold)
                assert res.certified == certified, (threshold, piece)
                assert (res.members is None) == (want is None), (threshold, piece)
                assert want is None or np.array_equal(res.members, want), (threshold, piece)
                singles += res.members is not None and res.members.sum() == 1
            certificate, scanned = reached["certificate"], reached["scan"]
            reached.update(certificate=0, scan=0)
            mixed.append((len(pieces) - certificate, certificate - scanned, scanned))
        if 6 <= n <= EXHAUSTIVE_CUT_CAP:
            # one batch holds singleton hits (expansion only: a conductance
            # singleton scores exactly 1), cleared pieces and scanned pieces
            need = 0 if mode == "conductance" else 1
            assert any(hit >= need and cleared and scanned for hit, cleared, scanned in mixed), mixed

    def test_three_vertex_complement_found_by_the_scan(self):
        # every singleton of this path scores exactly 1, just above h; the
        # scan scores the complement of {2} as cut / (total - (vw_0 + vw_1)),
        # which rounds to h, so the scan must run after the singleton test
        g = WeightedGraph(3, [(0, 1, 0.1), (1, 2, 0.2)])
        h = float(np.nextafter(1.0, 0.0))
        want, _ = find_sparse_cut_reference(g, "conductance", h)
        assert want.tolist() == [False, False, True]
        batch = [g, WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]), g]
        for res in find_sparse_cuts(batch, "conductance", h)[::2]:
            assert res.certified and res.members.tolist() == [False, False, True]

    @pytest.mark.parametrize("w", [1.0, 1.7, 3.0, 0.1, 1.3, 2.5])
    def test_three_vertex_path_lambda_one_decides_the_scan(self, w, monkeypatch):
        # lambda_1 of a 3-vertex path's normalized Laplacian is 1: at h = 0.5
        # the last bit of the eigensolve decides whether the scan runs, and
        # the stack must decide as one matrix alone would
        pieces = [WeightedGraph(3, [(0, 1, 1.0), (1, 2, v)]) for v in (1.0, 1.7, 3.0, w)]
        lam1 = [float(np.linalg.eigvalsh(dense_certificate(p, "conductance"))[1]) for p in pieces]
        reached = self.search_paths(monkeypatch)
        for res in find_sparse_cuts(pieces, "conductance", 0.5):
            assert res.members is None and res.certified
        assert reached["scan"] == sum(lam / 2.0 <= 0.5 for lam in lam1)

    def test_three_vertex_path_lambda_one_takes_both_sides(self):
        # the weights of the test above put lambda_1 on both sides of 1
        paths = [WeightedGraph(3, [(0, 1, 1.0), (1, 2, w)]) for w in (1.0, 1.7, 3.0)]
        lam1 = [float(np.linalg.eigvalsh(dense_certificate(p, "conductance"))[1]) for p in paths]
        assert lam1[1] < lam1[0] == 1.0 < lam1[2]

    @pytest.mark.parametrize("first, most", [(1, 1), (4, 64), (1 << 20, 1 << 20)])
    def test_scan_answer_does_not_depend_on_block_sizes(self, first, most, monkeypatch):
        monkeypatch.setattr(graph, "FIRST_MASK_BLOCK", first)
        monkeypatch.setattr(graph, "MASK_BLOCK", most)
        for n in (4, 9, 14):
            g = pieces_of_each_kind(n)[3]
            masks = [(f, cut.size) for f, cut, _ in graph.subset_cut_blocks(g, g.edge_w, np.ones(n))]
            # every nonempty mask over bits 0..n-2 once, in ascending order
            assert [f for f, _ in masks] == np.cumsum([1] + [k for _, k in masks[:-1]]).tolist()
            assert sum(k for _, k in masks) == (1 << (n - 1)) - 1
            for mode in ("edge_expansion", "conductance"):
                pieces = pieces_of_each_kind(n, seed=1)
                for threshold in SEARCH_THRESHOLDS[mode] + sparse_cut_thresholds(pieces[4], mode)[3:6]:
                    for piece, res in zip(pieces, find_sparse_cuts(pieces, mode, threshold)):
                        want, _ = find_sparse_cut_reference(piece, mode, threshold)
                        assert (res.members is None) == (want is None)
                        assert want is None or np.array_equal(res.members, want)

    @pytest.mark.parametrize("mode", ["edge_expansion", "conductance"])
    def test_fiedler_pair_gets_the_fortran_ordered_certificate_matrix(self, mode, monkeypatch):
        g = gnp_connected(40, 0.3, 7, w_lo=1.0, w_hi=4.0)
        pair = partition.fiedler_pair
        seen = []

        def spy(mat):
            seen.append((mat.flags.f_contiguous, mat.copy(order="C")))
            got = pair(mat)
            seen.append(got)
            return got

        monkeypatch.setattr(partition, "fiedler_pair", spy)
        find_sparse_cut(g, mode, 0.3 if mode == "conductance" else 2.0)
        (f_contiguous, mat), (lam1, vec) = seen
        want = dense_certificate(g, mode)
        # the dense expression's bits, signed zeros included
        assert f_contiguous and mat.tobytes() == want.tobytes()
        want_lam1, want_vec = pair(want)
        assert lam1 == want_lam1 and vec.tobytes() == want_vec.tobytes()


def planted_blocks(small: int, large: int, crossing: int, seed: int) -> tuple[WeightedGraph, np.ndarray]:
    """Two dense random blocks joined by a few edges, vertex ids shuffled,
    and the mask of the smaller block."""
    rng = np.random.default_rng(seed)
    n = small + large
    iu, ju = np.triu_indices(n, 1)
    inner = (iu < small) == (ju < small)
    keep = inner & (rng.random(iu.size) < 0.5)
    keep[rng.choice(np.flatnonzero(~inner), crossing, replace=False)] = True
    label = rng.permutation(n)
    g = WeightedGraph(n, _arrays=(label[iu[keep]], label[ju[keep]], rng.uniform(1.0, 2.0, int(keep.sum()))))
    members = np.zeros(n, dtype=bool)
    members[label[:small]] = True
    return g, members


class TestPowerSweep:
    """Pieces above POWER_SWEEP_MIN vertices first sweep along a vector of
    POWER_STEPS power-iteration steps; only where that finds no cut does the
    dense fiedler_pair run, and it alone answers "no cut"."""

    THRESHOLDS = {"edge_expansion": 1.0, "conductance": 0.05}

    @staticmethod
    def spy(monkeypatch):
        """Sizes of the pieces that reach _power_vector and fiedler_pair."""
        calls = {"power": [], "dense": []}
        power, dense = partition._power_vector, partition.fiedler_pair

        def spy_power(g, *args):
            calls["power"].append(g.n)
            return power(g, *args)

        def spy_dense(mat):
            calls["dense"].append(mat.shape[0])
            return dense(mat)

        monkeypatch.setattr(partition, "_power_vector", spy_power)
        monkeypatch.setattr(partition, "fiedler_pair", spy_dense)
        return calls

    @pytest.mark.parametrize("mode", ["edge_expansion", "conductance"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_side_found_without_eigensolve(self, mode, seed, monkeypatch):
        g, small = planted_blocks(40, 60, 5, seed)
        assert g.n > partition.POWER_SWEEP_MIN and graph.is_connected(g)
        calls = self.spy(monkeypatch)
        res = find_sparse_cuts([g], mode, self.THRESHOLDS[mode])[0]
        assert calls == {"power": [g.n], "dense": []}
        assert res.certified and np.array_equal(res.members, small)

    @pytest.mark.parametrize("mode, threshold", [("edge_expansion", 20.0), ("conductance", 0.25)])
    def test_expander_falls_back_and_is_certified(self, mode, threshold, monkeypatch):
        # every cut of K_80 has expansion >= 40 and conductance >= 40/79
        g = complete_graph(80)
        calls = self.spy(monkeypatch)
        res = find_sparse_cuts([g], mode, threshold)[0]
        assert calls == {"power": [80], "dense": [80]}
        assert res.members is None and res.certified

    @pytest.mark.parametrize("mode", ["edge_expansion", "conductance"])
    def test_lambda_one_qualifies_but_no_sweep_stays_uncertified(self, mode, monkeypatch):
        # lambda_1/2 of the cycle C_100 is about 0.002 in both modes, but
        # every cut crosses two edges: expansion >= 0.04, conductance >= 0.02
        n = 100
        g = WeightedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
        calls = self.spy(monkeypatch)
        res = find_sparse_cuts([g], mode, 0.01)[0]
        assert calls == {"power": [n], "dense": [n]}
        assert res.members is None and not res.certified

    @pytest.mark.parametrize("mode", ["edge_expansion", "conductance"])
    @pytest.mark.parametrize("n", [partition.POWER_SWEEP_MIN, partition.POWER_SWEEP_MIN + 1])
    def test_size_constant_decides_the_vector(self, mode, n, monkeypatch):
        g, _ = planted_blocks(n // 2, n - n // 2, 3, 4)
        calls = self.spy(monkeypatch)
        res = find_sparse_cuts([g], mode, self.THRESHOLDS[mode])[0]
        above = n > partition.POWER_SWEEP_MIN
        assert calls == {"power": [n] if above else [], "dense": [] if above else [n]}
        assert res.certified and res.members is not None

    @pytest.mark.parametrize("mode", ["edge_expansion", "conductance"])
    @pytest.mark.parametrize("seed", range(6))
    def test_answers_qualify_and_no_cut_comes_from_the_dense_search(self, mode, seed):
        # random pieces above the size constant, at the dense search's own
        # decision points: a cut is returned only with a qualifying exact
        # ratio, and every answer without a cut is the dense search's
        g = gnp_connected(70 + 10 * seed, 0.12, seed, w_lo=1.0, w_hi=4.0)
        for threshold in sparse_cut_thresholds(g, mode) + SEARCH_THRESHOLDS[mode]:
            res = find_sparse_cuts([g], mode, threshold)[0]
            want, certified = find_sparse_cut_reference(g, mode, threshold)
            if res.members is None:
                assert want is None and res.certified == certified
                continue
            s = res.members
            assert res.certified and s.sum() <= g.n // 2
            if mode == "edge_expansion":
                assert np.sum(s[g.edge_u] != s[g.edge_v]) / s.sum() < threshold
            else:
                assert conductance(g, s) <= threshold * (1 + 1e-12)

    def test_power_vector_stays_orthogonal_to_the_null_vector(self):
        # projected out of the start vector only: the rounding that the
        # steps feed back into the null direction stays negligible
        for mode in ("edge_expansion", "conductance"):
            g, _ = planted_blocks(40, 60, 5, 3)
            ew, vw = graph.ratio_weights(g, mode)
            deg = graph.weighted_degrees(g.n, g.edge_u, g.edge_v, ew)
            x = partition._power_vector(g, ew, vw, deg)
            assert abs(np.sum(x * np.sqrt(vw))) <= 1e-9 * np.sqrt(np.sum(x * x) * np.sum(vw))
            assert x.tobytes() == partition._power_vector(g, ew, vw, deg).tobytes()


class TestSpectralPreprocessing:
    def test_no_split_when_h_below_cheeger(self):
        g = complete_graph(8)
        h = cheeger_exact(g) * 0.5
        part = spectral_preprocessing(g, h)
        assert len(part.components) == 1 and part.cross_count == 0

    def test_barbell_splits_at_bridge(self):
        k5a = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
        k5b = [(i + 5, j + 5, 1.0) for i in range(5) for j in range(i + 1, 5)]
        g = WeightedGraph(10, k5a + k5b + [(4, 5, 1.0)])
        part = spectral_preprocessing(g, 0.1)
        assert sorted(c.graph.n for c in part.components) == [5, 5]
        assert part.cross_count == 1

    def test_h_at_least_one_dissolves_everything(self):
        g = gnp_connected(9, 0.5, seed=2)
        part = spectral_preprocessing(g, 1.0)
        assert part.cross_count == g.m
        assert not part.components

    def test_nan_h_rejected(self):
        with pytest.raises(QuadsketchError, match="NaN"):
            spectral_preprocessing(two_triangles_bridge(), float("nan"))

    def test_components_certified_cheeger_above_h(self):
        for seed in range(15):
            g = gnp_connected(11, 0.45, seed=seed)
            h = 0.25
            part = spectral_preprocessing(g, h)
            for comp in part.components:
                if comp.graph.n >= 2 and comp.certified:
                    assert cheeger_exact(comp.graph) > h

    def test_edge_conservation(self):
        g = gnp_connected(16, 0.4, seed=9, w_lo=1.0, w_hi=1.9)
        part = spectral_preprocessing(g, 0.3)
        seen = sorted(
            np.concatenate([c.edge_idx for c in part.components] + [part.cross_idx]).tolist()
        )
        assert seen == list(range(g.m))

    def test_q_bound_constant(self):
        # |Q| <= 16 h m log2(m+1) across a factor-2-weight corpus
        for seed in range(100):
            n = 8 + seed % 10
            g = gnp_connected(n, 0.5, seed=seed, w_lo=1.0, w_hi=1.999)
            h = (0.05, 0.1, 0.2, 0.3)[seed % 4]
            part = spectral_preprocessing(g, h)
            bound = 16.0 * h * g.m * math.log2(g.m + 1)
            assert part.cross_count <= bound


def partition_one_cut_at_a_time(g, threshold):
    """Reference edge_expansion partition: every split, each low-degree
    singleton included, is one find_sparse_cut call on a FIFO queue.

    Returns (vmap, edge_idx, certified) per piece and the sorted cross edges.
    """
    labels = connected_components(g)
    work = deque(
        (np.flatnonzero(labels == lab), np.flatnonzero(labels[g.edge_u] == lab))
        for lab in range(int(labels.max()) + 1 if g.n else 0)
    )
    comps, cross = [], [np.empty(0, dtype=np.int64)]
    while work:
        vmap, eidx = work.popleft()
        if eidx.size == 0:
            continue
        inv = np.full(g.n, -1, dtype=np.int64)
        inv[vmap] = np.arange(vmap.size)
        piece = WeightedGraph(
            vmap.size, _arrays=(inv[g.edge_u[eidx]], inv[g.edge_v[eidx]], g.edge_w[eidx])
        )
        res = find_sparse_cut(piece, "edge_expansion", threshold)
        if res.members is None:
            comps.append((vmap, eidx, res.certified))
            continue
        s = res.members
        cross.append(eidx[s[piece.edge_u] != s[piece.edge_v]])
        for side in (s, ~s):
            sub_e = eidx[side[piece.edge_u] & side[piece.edge_v]]
            if sub_e.size:
                work.append((vmap[side], sub_e))
    return comps, np.sort(np.concatenate(cross))


PEEL_KINDS = ["empty", "whole", "disconnected", "cut"]


def peel_case(kind, seed):
    """A graph and an expansion threshold whose threshold core is empty, the
    whole graph, disconnected, or connected with a sparse cut left for
    find_sparse_cut after the peel. Vertex ids are shuffled."""
    rng = np.random.default_rng(seed)
    if kind == "empty":
        g = gnp(int(rng.integers(2, 24)), float(rng.uniform(0.05, 0.6)), seed, 1.0, 4.0)
        return g, float(degrees(g)[1].max(initial=0)) + 0.5
    # complete blocks of 4..7 vertices: every block vertex has degree >= 3
    sizes = rng.integers(4, 8, size=int(rng.integers(2, 4))).tolist()
    first = np.concatenate(([0], np.cumsum(sizes))).tolist()
    edges = [(i, j) for a, b in zip(first, first[1:]) for i in range(a, b) for j in range(i + 1, b)]
    n = first[-1]
    ends = [(int(rng.integers(a, b)), int(rng.integers(c, d))) for a, b, c, d in zip(first, first[1:], first[1:], first[2:])]
    if kind == "disconnected":
        # blocks joined only through degree-2 path vertices
        for x, y in ends:
            edges += [(x, n), (n, y)]
            n += 1
    else:
        edges += ends  # one bridge between consecutive blocks
    if kind in ("disconnected", "cut"):
        for _ in range(int(rng.integers(1, 5))):  # pendant vertices
            edges.append((int(rng.integers(0, n)), n))
            n += 1
    perm = rng.permutation(n)
    w = rng.uniform(1.0, 4.0, len(edges))
    return WeightedGraph(n, [(int(perm[a]), int(perm[b]), float(x)) for (a, b), x in zip(edges, w)]), 2.5


def stranding_case(seed):
    """Two dense blocks of 5..18 vertices with degree-1 and degree-2
    vertices hung on them; vertex ids shuffled. A cut through or between the
    blocks can leave a hung vertex on the side away from all its neighbours,
    stranded without an edge in its side. The whole graph often has more
    than EXHAUSTIVE_CUT_CAP vertices (a Fiedler sweep makes the first cut)
    and its pieces fewer (the exhaustive scan cuts them)."""
    rng = np.random.default_rng(seed)
    block = np.repeat([0, 1], rng.integers(5, 19, size=2))
    iu, ju = np.triu_indices(block.size, 1)
    keep = rng.random(iu.size) < np.where(block[iu] == block[ju], 0.7, 0.4)
    edges = list(zip(iu[keep].tolist(), ju[keep].tolist()))
    n = block.size
    for _ in range(int(rng.integers(2, 10))):
        edges += [(t, n) for t in rng.choice(block.size, size=int(rng.integers(1, 3)), replace=False).tolist()]
        n += 1
    perm = rng.permutation(n)
    w = rng.uniform(1.0, 4.0, len(edges))
    return WeightedGraph(n, [(int(perm[a]), int(perm[b]), float(x)) for (a, b), x in zip(edges, w)])


def stranded_sides(g, members):
    """Number of sides of the cut that keep an edge and a vertex with none."""
    count = 0
    for side in (members, ~members):
        inner = side[g.edge_u] & side[g.edge_v]
        linked = np.zeros(g.n, dtype=bool)
        linked[g.edge_u[inner]] = linked[g.edge_v[inner]] = True
        count += bool(inner.any() and (side & ~linked).any())
    return count


def two_cliques_with_stranded(k):
    """K7 on 0..6 and K7 on 7..13 joined by the edge (6, 7), plus k vertices
    14.. adjacent to 0 and 1. At h = 0.15 and k <= 3 the first qualifying
    mask is {0, ..., 6}, of conductance (1 + 2k) / (43 + 2k) <= 1/7 (every
    smaller mask has conductance >= 1/6). It leaves the k hung vertices on
    the other side, with no edge there."""
    k7 = [(a + i, a + j, 1.0) for a in (0, 7) for i in range(7) for j in range(i + 1, 7)]
    hung = [(x, 14 + i, 1.0) for i in range(k) for x in (0, 1)]
    return WeightedGraph(14 + k, k7 + [(6, 7, 1.0)] + hung)


def pieces_searched(search) -> int:
    """Pieces searched through a mock that wraps partition.find_sparse_cuts,
    which find_sparse_cut calls with a batch of one."""
    return sum(len(call.args[0]) for call in search.call_args_list)


def assert_same_partition(part, ref):
    """Same pieces in the same order, with the same ids and dtypes, and the
    same cross edges."""
    assert len(part.components) == len(ref.components)
    for got, want in zip(part.components, ref.components):
        assert got.vmap.dtype == want.vmap.dtype and np.array_equal(got.vmap, want.vmap)
        assert got.edge_idx.dtype == want.edge_idx.dtype and np.array_equal(got.edge_idx, want.edge_idx)
        assert got.certified == want.certified
    assert np.array_equal(part.cross_idx, ref.cross_idx)


class TestPartitionByCuts:
    @given(
        st.integers(2, 16),
        st.integers(1, 3),
        st.floats(0.3, 1.0),
        st.sampled_from([1.5, 2.5, 3.0, 4.5]),
        st.integers(0, 10**6),
    )
    @settings(max_examples=120, deadline=None)
    def test_core_peel_matches_one_cut_at_a_time(self, n, blocks, p, threshold, seed):
        # dense blocks joined by sparse edges, so pieces often come in several
        rng = np.random.default_rng(seed)
        block = rng.integers(0, blocks, n)
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < np.where(block[iu] == block[ju], p, p / 8)
        g = WeightedGraph(n, _arrays=(iu[keep], ju[keep], np.ones(int(keep.sum()))))
        part = _partition_by_cuts(g, "edge_expansion", threshold)
        ref, ref_cross = partition_one_cut_at_a_time(g, threshold)

        def pieces(rows):
            return sorted((v.tolist(), e.tolist(), c) for v, e, c in rows)

        got = [(c.vmap, c.edge_idx, c.certified) for c in part.components]
        assert pieces(got) == pieces(ref)
        assert np.array_equal(part.cross_idx, ref_cross)

    @given(st.sampled_from(PEEL_KINDS), st.integers(0, 10**6))
    @settings(max_examples=160, deadline=None)
    def test_generation_peel_matches_piece_at_a_time_in_order(self, kind, seed):
        g, threshold = peel_case(kind, seed)
        core, core_e = threshold_core_reference(g, np.arange(g.n), np.arange(g.m), threshold)
        parts = int(connected_components(g.edge_subgraph(np.flatnonzero(core_e))[0]).max(initial=-1)) + 1
        touched = np.unique(np.concatenate((g.edge_u, g.edge_v))).size
        # the generator makes the core it names
        if kind == "empty":
            assert parts == 0
        elif kind == "whole":
            assert core.size == touched
        elif kind == "disconnected":
            assert parts > 1 and core.size < touched
        else:
            assert parts == 1 and core.size < touched
        assert_same_partition(
            _partition_by_cuts(g, "edge_expansion", threshold),
            partition_by_cuts_reference(g, "edge_expansion", threshold),
        )

    @given(
        st.sampled_from(PEEL_KINDS + ["stranding"]),
        st.sampled_from([0.05, 0.2, 0.4, 0.7, 1.0, 1.5]),
        st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_conductance_matches_piece_at_a_time_in_order(self, kind, h, seed):
        g = stranding_case(seed) if kind == "stranding" else peel_case(kind, seed)[0]
        assert_same_partition(_partition_by_cuts(g, "conductance", h), partition_by_cuts_reference(g, "conductance", h))

    def test_stranding_cases_strand_sweep_and_exhaustive_sides(self):
        # the stranding generator makes both kinds of search strand vertices
        stranded = {"sweep": 0, "exhaustive": 0}

        def search(pieces, mode, threshold):
            found = find_sparse_cuts(pieces, mode, threshold)
            for piece, res in zip(pieces, found):
                if res.members is not None:
                    kind = "sweep" if piece.n > EXHAUSTIVE_CUT_CAP else "exhaustive"
                    stranded[kind] += stranded_sides(piece, res.members)
            return found

        for seed in range(40):
            g = stranding_case(seed)
            for h in (0.4, 0.7):
                with mock.patch.object(partition, "find_sparse_cuts", side_effect=search):
                    part = _partition_by_cuts(g, "conductance", h)
                assert_same_partition(part, partition_by_cuts_reference(g, "conductance", h))
        assert stranded["sweep"] > 0 and stranded["exhaustive"] > 0

    @pytest.mark.parametrize("h", [1.0, 1.5])
    def test_h_at_least_one_searches_and_labels_nothing(self, h):
        g = gnp_connected(24, 0.4, seed=4, w_lo=1.0, w_hi=3.0)
        with (
            mock.patch.object(partition, "find_sparse_cuts", wraps=find_sparse_cuts) as search,
            mock.patch.object(partition, "label_components", wraps=label_components) as label,
            mock.patch.object(graph, "label_components", wraps=label_components) as graph_label,
        ):
            part = _partition_by_cuts(g, "conductance", h)
        assert search.call_count == label.call_count == graph_label.call_count == 0
        assert not part.components and np.array_equal(part.cross_idx, np.arange(g.m))
        assert_same_partition(part, partition_by_cuts_reference(g, "conductance", h))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_stranded_vertices_add_no_search(self, k):
        g = two_cliques_with_stranded(k)
        with mock.patch.object(partition, "find_sparse_cuts", wraps=find_sparse_cuts) as search:
            part = _partition_by_cuts(g, "conductance", 0.15)
        with mock.patch.object(conftest, "find_sparse_cut", wraps=find_sparse_cut) as ref_search:
            ref = partition_by_cuts_reference(g, "conductance", 0.15)
        # one cut, then one search per clique; one search call per peeled
        # stranded vertex in the piece-at-a-time partition
        assert pieces_searched(search) == 3 and ref_search.call_count == 3 + k
        assert [c.vmap.tolist() for c in part.components] == [list(range(7)), list(range(7, 14))]
        assert_same_partition(part, ref)

    def test_one_labelling_per_generation(self):
        # four barbells (two K5 joined by one edge): one generation of four
        # pieces split at their bridges, then one of eight K5 pieces
        edges = [
            (b + a + i, b + a + j, 1.0)
            for b in range(0, 40, 10)
            for a in (0, 5)
            for i in range(5)
            for j in range(i + 1, 5)
        ]
        g = WeightedGraph(40, edges + [(b + 4, b + 5, 1.0) for b in range(0, 40, 10)])
        with (
            mock.patch.object(partition, "find_sparse_cuts", wraps=find_sparse_cuts) as search,
            mock.patch.object(partition, "label_components", wraps=label_components) as label,
            mock.patch.object(graph, "label_components", wraps=label_components) as graph_label,
        ):
            part = _partition_by_cuts(g, "conductance", 0.1)
        assert pieces_searched(search) == 12 and len(part.components) == 8
        # the input's components, then each of the two generations
        assert label.call_count == 3 and graph_label.call_count == 0
        assert_same_partition(part, partition_by_cuts_reference(g, "conductance", 0.1))

    @pytest.mark.parametrize("mode, threshold", [("conductance", 0.25), ("edge_expansion", 1.5)])
    def test_tied_smallest_components_split_first_in_label_order(self, mode, threshold):
        # a K4 hub bridged to a K6 and two K5s: the first cut takes the hub,
        # so the second generation holds a piece of three components, the
        # K6 first in label order and the two K5s tied at the smallest size
        hub, k6, k5a, k5b = range(0, 4), range(4, 10), range(10, 15), range(15, 20)
        edges = [(i, j, 1.0) for c in (hub, k6, k5a, k5b) for i in c for j in c if i < j]
        g = WeightedGraph(20, edges + [(0, 4, 1.0), (1, 10, 1.0), (2, 15, 1.0)])
        part = _partition_by_cuts(g, mode, threshold)
        # the first K5 splits off first, then the second off the K6
        assert [c.vmap.tolist() for c in part.components] == [list(c) for c in (hub, k5a, k5b, k6)]
        assert list(zip(part.cross_u.tolist(), part.cross_v.tolist())) == [(0, 4), (1, 10), (2, 15)]
        assert_same_partition(part, partition_by_cuts_reference(g, mode, threshold))

    def test_empty_core_labels_no_components(self):
        # every degree of G(30, 0.2) is below 33: the whole edge set is Q
        g = gnp(30, 0.2, 3)
        assert degrees(g)[1].max() < 33
        with (
            mock.patch.object(partition, "connected_components", wraps=connected_components) as cc,
            mock.patch.object(partition, "label_components", wraps=label_components) as label,
        ):
            part = _partition_by_cuts(g, "edge_expansion", 33.0)
        assert cc.call_count == 0 and label.call_count == 0
        assert not part.components
        assert np.array_equal(part.cross_idx, np.arange(g.m))
        assert_same_partition(part, partition_by_cuts_reference(g, "edge_expansion", 33.0))
        # a non-empty core is labelled
        with mock.patch.object(partition, "label_components", wraps=label_components) as label:
            part = _partition_by_cuts(g, "edge_expansion", 1.5)
        assert label.call_count > 0 and part.components

    @given(st.integers(1, 40), st.floats(0.0, 0.3), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_seeded_with_each_component_in_label_order(self, n, p, seed):
        # below every expansion nothing splits, so the pieces are the seeds:
        # the components with edges, in label order, ids ascending
        g = gnp(n, p, seed)
        part = _partition_by_cuts(g, "edge_expansion", 1e-9)
        labels = connected_components(g)
        edge_label = labels[g.edge_u]
        want = [(np.flatnonzero(labels == lab), np.flatnonzero(edge_label == lab)) for lab in np.unique(edge_label)]
        assert len(part.components) == len(want)
        for comp, (vmap, eidx) in zip(part.components, want):
            assert comp.vmap.dtype == vmap.dtype and np.array_equal(comp.vmap, vmap)
            assert comp.edge_idx.dtype == eidx.dtype and np.array_equal(comp.edge_idx, eidx)
        assert part.cross_idx.size == 0

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_edge_count_bound_decides_the_empty_core(self, k):
        # K_{k+1} has k (k + 1) / 2 edges and is its own k-core; without one
        # edge, or at a threshold above k, it has too few edges for a core
        # and dissolves without the peel
        whole = complete_graph(k + 1)
        less = WeightedGraph(k + 1, _arrays=(whole.edge_u[1:], whole.edge_v[1:], whole.edge_w[1:]))
        for g, threshold, dissolves in ((whole, k, False), (whole, k + 0.5, True), (less, k, True)):
            with (
                mock.patch.object(partition, "_core_members", wraps=partition._core_members) as peel,
                mock.patch.object(partition, "label_components", wraps=label_components) as label,
            ):
                part = _partition_by_cuts(g, "edge_expansion", threshold)
            # a core is labelled and searched; dissolved edges are not peeled
            assert (peel.call_count == 0) == (label.call_count == 0) == dissolves
            assert_same_partition(part, partition_by_cuts_reference(g, "edge_expansion", threshold))

    @given(st.sampled_from(["edge_expansion", "conductance"]), st.integers(2, 30), st.floats(0.1, 0.9),
           st.floats(0.05, 0.5), st.sampled_from([0.2, 1.5, 4.0]), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_edge_ids_give_the_partition_of_their_subgraph(self, mode, n, p, keep, threshold, seed):
        # the class of edges eid of g is split as the subgraph on g's
        # vertices with those edges would be, with g's edge ids
        rng = np.random.default_rng(seed)
        g = gnp(n, p, seed, 1.0, 3.0)
        eid = np.flatnonzero(rng.random(g.m) >= keep)
        sub = WeightedGraph(g.n, _arrays=(g.edge_u[eid], g.edge_v[eid], g.edge_w[eid]))
        threshold = threshold / 8 if mode == "conductance" else threshold
        got, want = _partition_by_cuts(g, mode, threshold, eid), _partition_by_cuts(sub, mode, threshold)
        assert len(got.components) == len(want.components)
        for a, b in zip(got.components, want.components):
            assert np.array_equal(a.vmap, b.vmap) and np.array_equal(a.edge_idx, eid[b.edge_idx])
            assert a.certified == b.certified and a.graph == b.graph
        assert np.array_equal(got.cross_idx, eid[want.cross_idx])
        for x, y in ((got.cross_u, want.cross_u), (got.cross_v, want.cross_v), (got.cross_w, want.cross_w)):
            assert np.array_equal(x, y)

    def test_core_peel_finish_order(self):
        # two 16-cliques: five pendants hang off the first, one off the second
        edges = [
            (i, j, 1.0)
            for base in (0, 40)
            for i in range(base, base + 16)
            for j in range(i + 1, base + 16)
        ]
        pendants = [(0, 16 + k) for k in range(5)] + [(40, 56)]
        g = WeightedGraph(60, edges + [(u, v, 1.0) for u, v in pendants])
        part = _partition_by_cuts(g, "edge_expansion", 5.0)
        # both seeds are peeled in one generation, so their cores finish in
        # seed order
        assert [c.vmap.tolist() for c in part.components] == [
            list(range(16)),
            list(range(40, 56)),
        ]
        assert list(zip(part.cross_u.tolist(), part.cross_v.tolist())) == pendants
        # one singleton per call needs five passes on the first piece, one on
        # the second, so the second finishes first: seeds of later stages
        # (per-piece S1 streams) follow this order
        ref, _ = partition_one_cut_at_a_time(g, 5.0)
        assert [v.tolist() for v, _, _ in ref] == [list(range(40, 56)), list(range(16))]


class TestCutPreprocessing:
    def test_epsilon_range_guard(self):
        g = gnp_connected(8, 0.5, seed=0)
        with pytest.raises(QuadsketchError):
            cut_preprocessing(g, 1.0, 0.01, seed=1)  # below 1/n

    @pytest.mark.parametrize("c, epsilon", [(float("nan"), 0.3), (1.0, float("nan")), (math.inf, 0.3)])
    def test_nan_scale_or_epsilon_rejected(self, c, epsilon):
        # an infinite scale would keep no edge: every keep probability is 0
        error, message = (ValueError, "scale c must be positive and finite") if c == math.inf else (QuadsketchError, "NaN")
        with pytest.raises(error, match=message):
            cut_preprocessing(gnp_connected(8, 0.5, seed=0), c, epsilon, seed=1)

    def test_heavy_edges_discarded(self):
        g = WeightedGraph(4, [(0, 1, 100.0), (1, 2, 200.0), (0, 2, 150.0), (2, 3, 400.0)])
        prep = cut_preprocessing(g, 1.0, 0.3, seed=1)
        assert prep.discarded_heavy.size == 4
        assert not prep.classes

    def test_probability_clamped_keeps_edge(self):
        # rescaled weight >= eps^2 -> p = 1, kept deterministically with w~ = w
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
        prep = cut_preprocessing(g, 1.0, 0.25, seed=5)
        kept = sum(c.edge_idx.size for cl in prep.classes for c in cl.result.components)
        kept += sum(cl.result.cross_count for cl in prep.classes)
        assert kept == 3 and prep.dropped_unsampled.size == 0

    def test_components_have_required_expansion(self):
        g = gnp_connected(16, 0.5, seed=4)
        prep = cut_preprocessing(g, 1.0, 0.25, seed=7)
        for cl in prep.classes:
            for comp in cl.result.components:
                if comp.certified and 2 <= comp.graph.n <= 20:
                    assert expansion_exact(comp.graph) >= 4.0

    def test_edge_conservation_multiset(self):
        g = gnp_connected(20, 0.4, seed=8, w_lo=0.2, w_hi=8.0)
        prep = cut_preprocessing(g, 2.0, 0.25, seed=9)
        seen = [prep.discarded_heavy, prep.dropped_unsampled]
        for cl in prep.classes:
            seen.append(cl.result.cross_idx)
            for comp in cl.result.components:
                seen.append(comp.edge_idx)
        flat = sorted(np.concatenate(seen).tolist())
        assert flat == list(range(g.m))

    def test_shared_partitions_give_the_same_result(self):
        # uniform weights: many scales keep every edge in one class, so the
        # expansion partition of that edge set is reused with new weights
        g = gnp_connected(40, 0.9, seed=3, w_lo=1.0, w_hi=1.3)
        memo: dict = {}
        classes = 0
        for c in np.geomspace(0.05, 40.0, 12):
            plain = cut_preprocessing(g, c, 0.2, seed=5)
            shared = cut_preprocessing(g, c, 0.2, seed=5, _partitions=memo)
            classes += len(plain.classes)
            assert [cl.index for cl in shared.classes] == [cl.index for cl in plain.classes]
            for a, b in zip(shared.classes, plain.classes):
                ra, rb = a.result, b.result
                for x, y in ((ra.cross_u, rb.cross_u), (ra.cross_v, rb.cross_v), (ra.cross_w, rb.cross_w), (ra.cross_idx, rb.cross_idx)):
                    assert np.array_equal(x, y)
                assert len(ra.components) == len(rb.components)
                for ca, cb in zip(ra.components, rb.components):
                    assert ca.certified == cb.certified
                    assert np.array_equal(ca.vmap, cb.vmap) and np.array_equal(ca.edge_idx, cb.edge_idx)
                    ga, gb = ca.graph, cb.graph
                    assert ga.n == gb.n
                    for x, y in ((ga.edge_u, gb.edge_u), (ga.edge_v, gb.edge_v), (ga.edge_w, gb.edge_w)):
                        assert np.array_equal(x, y)
        assert 0 < len(memo) < classes

    @pytest.mark.parametrize("shared", [False, True])
    def test_empty_core_classes_build_and_search_nothing(self, shared):
        # every degree of G(30, 0.3) is below 1/eps = 20: each class dissolves
        g = gnp(30, 0.3, 4, w_lo=0.01, w_hi=2.0)
        assert degrees(g)[1].max() < 20
        memo: dict | None = {} if shared else None
        with (
            mock.patch.object(graph, "_canonicalize", wraps=graph._canonicalize) as built,
            mock.patch.object(WeightedGraph, "_canonical", wraps=WeightedGraph._canonical) as canonical,
            mock.patch.object(partition, "label_components", wraps=label_components) as label,
            mock.patch.object(partition, "find_sparse_cuts", wraps=find_sparse_cuts) as search,
        ):
            preps = [cut_preprocessing(g, c, 0.05, seed=2, _partitions=memo) for c in (0.05, 0.2, 1.0)]
        assert built.call_count == canonical.call_count == label.call_count == search.call_count == 0
        classes = [cl for prep in preps for cl in prep.classes]
        assert len(classes) > 3
        for cl in classes:
            res = cl.result
            own = _partition_by_cuts(g, "edge_expansion", 20.0, res.cross_idx)
            assert not res.components and not own.components
            for x, y in ((res.cross_u, own.cross_u), (res.cross_v, own.cross_v), (res.cross_idx, own.cross_idx)):
                assert np.array_equal(x, y)
            # the cut edges carry the class's reweighted values
            assert np.all((res.cross_w > 5.0 * 2.0**-cl.index) & (res.cross_w <= 5.0 * 2.0 ** (1 - cl.index)))

    def test_reweighted_components_share_the_memo_graphs(self):
        g = gnp_connected(40, 0.9, seed=3, w_lo=1.0, w_hi=1.3)
        memo: dict = {}
        comps = [
            comp
            for c in np.geomspace(0.05, 40.0, 12)
            for cl in cut_preprocessing(g, c, 0.2, seed=5, _partitions=memo).classes
            for comp in cl.result.components
        ]
        firsts = {id(cp.graph._adj): cp.graph for part in memo.values() for cp in part.components}
        assert len(comps) > len(firsts) > 0
        for comp in comps:
            memo_graph = firsts[id(comp.graph._adj)]
            assert comp.graph.edge_u is memo_graph.edge_u and comp.graph.edge_v is memo_graph.edge_v
            assert not comp.graph.edge_w.flags.writeable

    def test_weight_class_bands(self):
        w = np.array([5.0, 2.6, 2.5, 1.26, 0.1, 0.01])
        cls = weight_class_of(w)
        for wi, ci in zip(w, cls):
            assert 5.0 * 2.0**-ci < wi <= 5.0 * 2.0 ** (1 - ci)

    def test_importance_sampling_concentration(self):
        # |w~(S) - w(S)| <= 3 eps w(S) with empirical rate >= 8/9 - 0.03
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
            rng = rng_for(1000 + t, "imp")
            kept, w_tilde = importance_sample(g.edge_w, eps, rng)
            ku, kv = g.edge_u[kept], g.edge_v[kept]
            for s in queries:
                w_true = cut_weight(g, s)
                w_est = float(w_tilde[s[ku] != s[kv]].sum())
                trials += 1
                ok += abs(w_est - w_true) <= 3 * eps * w_true
        assert ok / trials >= 8.0 / 9.0 - 0.03


def test_reweight_is_the_importance_sample_weight_bit_for_bit():
    """The cut sketch's decoder recomputes its cut edges' weights with
    reweight; a kept edge's weight from importance_sample has the same
    bits, at p < 1 and at w/c = eps^2 (p = 1) alike."""
    eps = 0.1
    w = eps**2 * np.random.default_rng(5).uniform(0.05, 3.0, 2000)  # p < 1 for two thirds
    w[:3] = [eps**2, np.nextafter(eps**2, 0), 5.0]
    kept, w_tilde = importance_sample(w, eps, rng_for(3, "imp"))
    p, w_all = reweight(w, eps)
    assert p[0] == 1.0 and w_all[0] == w[0]
    assert np.count_nonzero(kept & (p < 1)) > 100 and kept[w >= eps**2].all()
    assert np.array_equal(w_tilde.view(np.uint64), w_all[kept].view(np.uint64))
    assert np.array_equal(w_all.view(np.uint64), (w / np.minimum(w / eps**2, 1.0)).view(np.uint64))


class TestAssignDirection:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        d = assign_direction(g, 2.0)
        assert d.size == 1

    def test_star_center_bounded(self):
        g = WeightedGraph(6, [(0, i, 1.0) for i in range(1, 6)])
        d = assign_direction(g, 3.0, check_potential=True)
        assert out_degrees_unweighted(g, d)[0] < 3

    def test_postcondition_on_random_corpus(self):
        for seed in range(100):
            n = 6 + seed % 27
            t = (2.0, 4.0, 8.0)[seed % 3]
            g = gnp(n, 0.4, seed=seed)
            d = assign_direction(g, t)
            out = out_degrees_unweighted(g, d)
            arc_u, arc_v = arc_ends(g, d)
            ok = (out[arc_u] < t) | (out[arc_v] >= t - 1)
            assert bool(np.all(ok))

    @given(st.integers(1, 40), st.floats(0.05, 1.0), st.floats(1.01, 12.0), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_same_arcs_as_numpy_fixpoint(self, n, p, t, seed):
        g = gnp(n, p, seed)
        d = assign_direction(g, t)
        tail, head = assign_direction_reference(g, t)
        arc_u, arc_v = arc_ends(g, d)
        assert np.array_equal(arc_u, tail) and np.array_equal(arc_v, head)

    def test_potential_decreases_by_two(self):
        # check_potential asserts a drop of >= 2 on every flip
        for seed in range(10):
            g = gnp(10, 0.5, seed=seed)
            assign_direction(g, 3.0, check_potential=True)


class TestDegreeClassPartition:
    def test_tiny_graph_verbatim(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        dcp = degree_class_partition(g, 0.25, seed=1)
        assert len(dcp.classes) == 1 and dcp.classes[0].kind == "verbatim"

    def test_all_low_when_sparse(self):
        g = WeightedGraph(8, [(i, i + 1, 1.0) for i in range(7)])
        dcp = degree_class_partition(g, 0.25, seed=2)
        assert all(c.kind in ("low", "verbatim") for c in dcp.classes)

    def test_band_invariant_and_depth(self):
        for seed in range(12):
            n = 24 + 8 * (seed % 4)
            g = gnp_connected(n, 0.4, seed=seed)
            dcp = degree_class_partition(g, 0.25, seed=seed)
            s_top = dcp.levels[0].s if dcp.levels else 4.0
            assert dcp.recursion_depth <= recursion_depth_bound(n, s_top)
            beta = 0.25 ** (-8.0 / 5.0)
            for cls in dcp.classes:
                if cls.kind != "band":
                    continue
                tails = arc_ends(cls.piece, cls.flip)[0]
                out = np.zeros(cls.piece.n, dtype=np.int64)
                np.add.at(out, tails, 1)
                lo = 2.0**cls.band * beta
                hi = 2.0 ** (cls.band + 1) * beta
                assert np.all(out[tails] >= lo) and np.all(out[tails] < hi)

    def test_arc_conservation_per_level(self):
        # at every level: classified arcs + deferred arcs = sparsified arcs
        cases = [
            (gnp_connected(40, 0.5, seed=6), 1.0, None),
            # defers clique arcs to a second level
            (clique_and_path(80, 200), 1.0, 2),
            # beta > 4s (no band at level 0): every arc is low, none deferred
            (clique_and_path(80, 200), 8.0, 1),
            # beta > 4s, and arcs with tail degree >= beta are deferred
            (clique_and_path(120, 600), 7.6, 2),
        ]
        for g, c_beta, depth in cases:
            dcp = degree_class_partition(g, 0.25, seed=3, c_beta=c_beta)
            for lv in dcp.levels:
                classified = sum(
                    c.piece.m for c in dcp.classes if c.depth == lv.depth and c.kind != "verbatim"
                )
                assert classified + lv.m_leftover == lv.m_sparsified
            if depth is not None:
                assert dcp.recursion_depth == depth
                assert (dcp.levels[0].m_leftover > 0) == (depth > 1)
            if c_beta > 4:
                assert c_beta * 0.25 ** (-8.0 / 5.0) > 4.0 * dcp.levels[0].s

    def test_epsilon_validation(self):
        g = gnp_connected(8, 0.5, seed=0)
        with pytest.raises(ValueError):
            degree_class_partition(g, 0.7, seed=1)
