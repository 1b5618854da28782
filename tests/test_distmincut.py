import hashlib
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadsketch import distmincut
from quadsketch.distmincut import (
    karger_cut,
    near_min_cut_candidates,
    partition_edges,
    run_protocol,
)
from quadsketch.errors import QuadsketchError
from quadsketch.graph import WeightedGraph, cut_weight
from quadsketch.oracle import enumerate_cut_values, min_cut_exact
from quadsketch.rng import rng_for

from conftest import UnionFind, exact_protocol_score, gnp, gnp_connected, random_members, raw_edge_list_bytes


def karger_reference(g, rng, rounds):
    """One union-find contraction per round, stopped at two super-vertices;
    each row is the side without vertex 0."""
    sides = np.zeros((rounds, g.n), dtype=bool)
    for r in range(rounds):
        keys = rng.exponential(1.0, size=g.m) / g.edge_w
        uf = UnionFind(g.n)
        for e in np.argsort(keys, kind="stable").tolist():
            if uf.n_components <= 2:
                break
            uf.union(int(g.edge_u[e]), int(g.edge_v[e]))
        root0 = uf.find(0)
        sides[r] = [uf.find(v) != root0 for v in range(g.n)]
    return sides


class StubDraws:
    """A generator that hands out the rows of a fixed draw table in order:
    as many rows as karger_cut asks for per chunk, one per
    karger_reference round."""

    def __init__(self, rows):
        self.rows, self.at = np.array(rows, dtype=np.float64), 0

    def standard_exponential(self, size):
        out = self.rows[self.at : self.at + size[0]].copy()
        self.at += size[0]
        return out

    def exponential(self, scale, size):
        return scale * self.standard_exponential((1, size))[0]


def prim_only(g, rng, rounds):
    """karger_cut with the singleton test off: lockstep Prim on every round."""
    with mock.patch.object(distmincut, "_singleton_tables", lambda g: None):
        return karger_cut(g, rng, rounds)


def certified(g, rows):
    """The singleton test's v* per round of the given draws, or -1."""
    keys = np.asarray(rows, dtype=np.float64) / g.edge_w
    return distmincut._certified_singletons(keys, distmincut._singleton_tables(g))


def candidates_reference(merged, seed, karger_rounds=None):
    """Candidate cuts collected one at a time, keyed by their bytes."""
    n = merged.n
    best_val, best_members = min_cut_exact(merged)
    limit = distmincut.NEAR_MIN_FACTOR * best_val
    seen = {}

    def add(members):
        mem = ~members if members[0] else members
        if mem.any() and cut_weight(merged, mem) <= limit + 1e-12:
            seen.setdefault(mem.tobytes(), mem)

    if n <= distmincut.EXHAUSTIVE_CANDIDATE_CAP:
        masks, vals = enumerate_cut_values(merged)
        for mask in masks[vals <= limit + 1e-12].tolist():
            add(np.array([b < n - 1 and bool(mask >> b & 1) for b in range(n)]))
    else:
        add(best_members)
        for v in range(n):
            add(np.arange(n) == v)
        if karger_rounds is None:
            karger_rounds = max(256, 2 * n * math.ceil(math.log2(max(n, 2))))
        for side in karger_reference(merged, rng_for(seed, "karger"), karger_rounds):
            add(side)
    return [seen[k] for k in sorted(seen)], best_val


def transcript_digest(t):
    h = hashlib.sha256()
    h.update(np.asarray(t.best_members, dtype=bool).tobytes())
    h.update(struct.pack("<qdq", t.total_bytes, t.best_estimate, t.candidate_count))
    return h.hexdigest()


def cycle(n):
    return WeightedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


class TestPartitionEdges:
    def test_whole_graph_for_k1(self):
        g = gnp_connected(10, 0.5, seed=1)
        parts = partition_edges(g, 1)
        assert parts[0].size == g.m

    def test_round_robin_sizes(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, 1.0), (1, 3, 1.0)])
        parts = partition_edges(g, 3, "round_robin")
        assert [p.size for p in parts] == [2, 2, 2]

    def test_partition_property(self):
        g = gnp_connected(14, 0.4, seed=2)
        for strategy in ("round_robin", "random", "by_vertex_hash"):
            parts = partition_edges(g, 4, strategy, seed=5)
            merged = sorted(np.concatenate(parts).tolist())
            assert merged == list(range(g.m))

    def test_random_reproducible(self):
        g = gnp_connected(14, 0.4, seed=3)
        a = partition_edges(g, 3, "random", seed=9)
        b = partition_edges(g, 3, "random", seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_bad_strategy(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            partition_edges(g, 2, "nope")


class TestCandidates:
    def test_exhaustive_soundness_small(self):
        # candidate set contains every cut within 1.5x of the minimum
        for seed in range(10):
            g = gnp_connected(9, 0.45, seed=seed, w_lo=0.5, w_hi=2.0)
            cands, best = near_min_cut_candidates(g, seed=seed)
            masks, vals = enumerate_cut_values(g)
            want = int(np.sum(vals <= 1.5 * best + 1e-12))
            assert len(cands) == want
            for members in cands:
                assert cut_weight(g, members) <= 1.5 * best + 1e-9

    def test_contains_minimum_above_exhaustive_cap(self):
        g = gnp_connected(30, 0.3, seed=4)
        cands, best = near_min_cut_candidates(g, seed=1)
        vals = [cut_weight(g, c) for c in cands]
        exact, _ = min_cut_exact(g)
        assert min(vals) == pytest.approx(exact, rel=1e-12)


class TestKarger:
    @given(
        n=st.integers(2, 64),
        p=st.floats(0.0, 0.5),
        connected=st.booleans(),
        graph_seed=st.integers(0, 10**6),
        rounds=st.integers(0, 40),
        chunk=st.integers(1, 7),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=80, deadline=None)
    def test_batched_matches_contraction_loop(self, n, p, connected, graph_seed, rounds, chunk, seed):
        make = gnp_connected if connected else gnp
        g = make(n, p, seed=graph_seed, w_lo=0.2, w_hi=5.0)
        # a budget of `chunk` rounds, so most round counts end in a partial chunk
        with mock.patch.object(distmincut, "KARGER_CHUNK_BYTES", chunk * 8 * n * n):
            got = karger_cut(g, np.random.default_rng(seed), rounds)
        want = karger_reference(g, np.random.default_rng(seed), rounds)
        assert got.shape == (rounds, n)
        assert np.array_equal(got, want)

    def test_default_chunk_with_partial_last_chunk(self):
        g = gnp_connected(64, 0.35, seed=21, w_lo=1.0, w_hi=4.0)
        rounds = distmincut.KARGER_CHUNK_BYTES // (8 * 64 * 64) + 45
        got = karger_cut(g, np.random.default_rng(3), rounds)
        assert np.array_equal(got, karger_reference(g, np.random.default_rng(3), rounds))

    def test_disconnected_side_is_complement_of_vertex_0_component(self):
        g = WeightedGraph(6, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 2.0)])
        sides = karger_cut(g, np.random.default_rng(0), 5)
        assert (sides == [False, False, True, True, True, True]).all()

    @pytest.mark.parametrize("n", range(64, 81))
    def test_matches_contraction_loop_across_mask_limit(self, n):
        # above MASK_BITS vertices no round is tested: all run Prim
        g = gnp_connected(n, 0.15, seed=n, w_lo=0.2, w_hi=5.0)
        assert (distmincut._singleton_tables(g) is None) == (n > distmincut.MASK_BITS)
        got = karger_cut(g, np.random.default_rng(n), 20)
        assert np.array_equal(got, karger_reference(g, np.random.default_rng(n), 20))

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_graph_certifies_most_rounds(self, seed):
        g = gnp_connected(64, 0.35, seed=seed, w_lo=1.0, w_hi=4.0)
        star = certified(g, np.random.default_rng(seed).standard_exponential(size=(256, g.m)))
        assert np.mean(star >= 0) >= 0.8

    @pytest.mark.parametrize("n", [8, 16, 40])
    def test_cycle_falls_back_to_prim(self, n):
        # a cycle's side is a singleton only if its two largest keys meet
        g = cycle(n)
        star = certified(g, np.random.default_rng(n).standard_exponential(size=(200, g.m)))
        assert np.mean(star < 0) > 0.5
        got = karger_cut(g, np.random.default_rng(n), 200)
        assert np.array_equal(got, karger_reference(g, np.random.default_rng(n), 200))

    def test_tied_top_key_at_the_singleton_is_certified(self):
        # triangle 0-1-2 below key 5; vertex 3's two edges tie at t* = 5
        g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        keys = [[1, 2, 1, 5, 5]]
        assert certified(g, keys).tolist() == [3]
        assert karger_cut(g, StubDraws(keys), 1).tolist() == [[False, False, False, True]]
        assert np.array_equal(prim_only(g, StubDraws(keys), 1), karger_cut(g, StubDraws(keys), 1))

    def test_vertex_0_singleton_is_certified(self):
        # vertex 0 holds t* = 5; the triangle 1-2-3 is below it
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        keys = [[5, 1, 2, 1]]
        assert certified(g, keys).tolist() == [0]
        assert karger_cut(g, StubDraws(keys), 1).tolist() == [[False, True, True, True]]

    def test_tie_that_decides_the_side_is_not_certified(self):
        # v* = 2; below t* = 5 only 0-1 and 3-4, so V∖{2} needs the tied
        # edge 1-3, and Kruskal's tie order (1-2 first) leaves {3, 4}
        # where Prim leaves {2, 3, 4}
        g = WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)])
        keys = [[1, 5, 5, 9, 1]]
        assert certified(g, keys).tolist() == [-1]
        assert karger_reference(g, StubDraws(keys), 1).tolist() == [[False, False, False, True, True]]
        assert karger_cut(g, StubDraws(keys), 1).tolist() == [[False, False, True, True, True]]

    @given(n=st.integers(2, 12), graph_seed=st.integers(0, 10**6), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_certified_rounds_equal_prim_with_tied_keys(self, n, graph_seed, seed):
        g = gnp_connected(n, 0.5, seed=graph_seed)
        # keys 1, 2 or 3 (unit weights): most rounds hold ties, many at t*
        rows = np.random.default_rng(seed).integers(1, 4, size=(30, g.m))
        star = certified(g, rows)
        got = karger_cut(g, StubDraws(rows), 30)
        assert np.array_equal(got, prim_only(g, StubDraws(rows), 30))
        hit = star > 0
        assert np.array_equal(got[hit], np.arange(n) == star[hit, None])
        assert got[star == 0, 1:].all()

    @pytest.mark.parametrize("n, p, seed", [(12, 0.5, 1), (21, 0.3, 2), (30, 0.25, 3), (48, 0.2, 4), (64, 0.35, 5)])
    def test_candidates_match_reference(self, n, p, seed):
        g = gnp_connected(n, p, seed=seed, w_lo=0.5, w_hi=3.0)
        got, best = near_min_cut_candidates(g, seed=seed)
        want, want_best = candidates_reference(g, seed=seed)
        assert best == want_best
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestProtocol:
    def test_transcripts_golden(self):
        # digests of (best_members, total_bytes, best_estimate,
        # candidate_count) recorded with one contraction loop per round;
        # re-recorded at format version 4, whose smaller envelopes lower
        # total_bytes (2448 -> 2366, 5182 -> 5094, 416 -> 410) while the
        # members, estimates and candidate counts stay the same, and at
        # version 6, whose one-valued weight arrays store no indices (the
        # unit-weight third graph: 410 -> 306)
        triples = [((24, 0.4, 11, 0.5, 3.0), 2, 5), ((40, 0.3, 12, 1.0, 4.0), 3, 6), ((16, 0.5, 13, 1.0, 1.0), 2, 7)]
        h = hashlib.sha256()
        for (n, p, graph_seed, lo, hi), k, seed in triples:
            g = gnp_connected(n, p, seed=graph_seed, w_lo=lo, w_hi=hi)
            h.update(transcript_digest(run_protocol(g, k, 0.25, reps=3, seed=seed)).encode())
        assert h.hexdigest() == "7ad247d497fa50eb0ceef7d6412b898224dc448b1f867402265610a6cf31981a"

    def test_c6_cycle(self):
        t = run_protocol(cycle(6), 2, 0.1, reps=3, seed=1)
        assert cut_weight(cycle(6), t.best_members) == 2.0
        assert 1.4 <= t.best_estimate <= 2.6

    def test_k1_degenerates_to_single_sketch(self):
        g = gnp_connected(16, 0.4, seed=5)
        t = run_protocol(g, 1, 0.1, reps=3, seed=2)
        exact, _ = min_cut_exact(g)
        assert cut_weight(g, t.best_members) <= (1 + 0.3) * exact + 1e-9

    def test_disconnected_rejected_before_messaging(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(QuadsketchError):
            run_protocol(g, 2, 0.1, reps=3, seed=1)

    def test_guard_rejects_large(self):
        g = gnp_connected(70, 0.2, seed=6)
        with pytest.raises(QuadsketchError):
            run_protocol(g, 2, 0.1, reps=3, seed=1)

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            run_protocol(cycle(5), 2, 0.1, reps=4, seed=1)

    def test_estimate_additivity_with_exact_oracles(self):
        # sum over servers of exact share cut weights equals the cut weight
        g = gnp_connected(18, 0.4, seed=7, w_lo=0.3, w_hi=3.0)
        rng = np.random.default_rng(0)
        for k in (2, 3, 5):
            for _ in range(20):
                s = random_members(18, rng)
                total = exact_protocol_score(g, k, s)
                assert total == pytest.approx(cut_weight(g, s), rel=1e-9)

    def test_transcript_byte_accounting(self):
        g = gnp_connected(20, 0.5, seed=8)
        t = run_protocol(g, 3, 0.25, reps=3, seed=3)
        assert t.total_bytes == sum(t.sketch_bytes) + sum(t.sparsifier_bytes)
        assert len(t.sketch_bytes) == 3

    def test_transcript_smaller_than_raw_on_dense(self):
        g = gnp_connected(48, 0.8, seed=9)
        t = run_protocol(g, 2, 0.25, reps=9, seed=4)
        assert t.total_bytes < raw_edge_list_bytes(g)

    def test_accuracy_sample(self):
        ok = 0
        for seed in range(10):
            n = 14 + 2 * (seed % 7)
            g = gnp_connected(n, 0.35, seed=100 + seed)
            t = run_protocol(g, 2 if seed % 2 else 4, 0.1, reps=3, seed=seed)
            exact, _ = min_cut_exact(g)
            ok += cut_weight(g, t.best_members) <= (1 + 0.3) * exact + 1e-9
        assert ok >= 9
