import math

import numpy as np
import pytest

from quadsketch.errors import QuadsketchError, TooLargeError
from quadsketch.graph import WeightedGraph, cut_weight
from quadsketch.oracle import enumerate_cut_values, lambda1_normalized, min_cut_exact

from conftest import (
    complete_graph,
    estimator_expectation_exhaustive,
    fingerprint,
    gnp,
    gnp_connected,
    min_cut_exhaustive,
    multiset_outcomes,
)


def stoer_wagner_reference(g):
    """Stoer-Wagner with a Python scan of the open vertices in every step."""
    adj = g.adjacency_matrix()
    groups = [[i] for i in range(g.n)]
    active = list(range(g.n))
    best_val, best_side = math.inf, []
    while len(active) > 1:
        in_a = np.zeros(g.n, dtype=bool)
        in_a[active[0]] = True
        wsum = adj[active[0]].copy()
        added = [active[0]]
        for _ in range(len(active) - 1):
            cand = [v for v in active if not in_a[v]]
            nxt = cand[int(np.argmax(wsum[cand]))]
            added.append(nxt)
            in_a[nxt] = True
            wsum += adj[nxt]
        s, t = added[-2], added[-1]
        cut_of_phase = float(wsum[t] - adj[t, t])
        if cut_of_phase < best_val:
            best_val, best_side = cut_of_phase, list(groups[t])
        adj[s] += adj[t]
        adj[:, s] += adj[:, t]
        adj[t] = 0.0
        adj[:, t] = 0.0
        adj[s, s] = 0.0
        groups[s].extend(groups[t])
        active.remove(t)
    members = np.zeros(g.n, dtype=bool)
    members[best_side] = True
    return best_val, members


def test_min_cut_k4():
    val, members = min_cut_exact(complete_graph(4))
    assert val == 3.0
    assert members.sum() in (1, 3)


def test_min_cut_path_lightest_edge():
    g = WeightedGraph(4, [(0, 1, 5.0), (1, 2, 0.5), (2, 3, 7.0)])
    val, members = min_cut_exact(g)
    assert val == 0.5
    assert cut_weight(g, members) == 0.5


def test_min_cut_matches_exhaustive_corpus():
    for seed in range(30):
        g = gnp_connected(5 + seed % 8, 0.5, seed=seed, w_lo=0.5, w_hi=2.0)
        v1, m1 = min_cut_exact(g)
        v2, _ = min_cut_exhaustive(g)
        assert v1 == pytest.approx(v2, rel=1e-12)
        assert cut_weight(g, m1) == pytest.approx(v1, rel=1e-12)


def test_min_cut_disconnected_witness():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    val, members = min_cut_exact(g)
    assert val == 0.0
    assert cut_weight(g, members) == 0.0
    assert 0 < members.sum() < 4


def test_lambda1_k2():
    assert lambda1_normalized(WeightedGraph(2, [(0, 1, 1.0)])) == pytest.approx(2.0)


def test_lambda1_complete_closed_form():
    for n in (3, 5, 9, 16):
        assert lambda1_normalized(complete_graph(n)) == pytest.approx(n / (n - 1), rel=1e-9)


def test_lambda1_rejects_disconnected_and_isolated():
    with pytest.raises(QuadsketchError):
        lambda1_normalized(WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)]))
    with pytest.raises(QuadsketchError):
        lambda1_normalized(WeightedGraph(3, [(0, 1, 1.0)]))


def test_oracle_determinism():
    g = gnp_connected(12, 0.4, seed=7, w_lo=0.5, w_hi=2.0)
    assert min_cut_exact(g)[0] == min_cut_exact(g)[0]
    assert lambda1_normalized(g) == lambda1_normalized(g)
    assert fingerprint(g) == fingerprint(g)
    g2 = WeightedGraph(g.n, list(g.edges()))
    assert fingerprint(g2) == fingerprint(g)


def test_multiset_outcomes_probabilities_sum_to_one():
    options = [(0.5, "a"), (0.3, "b"), (0.2, "c")]
    outcomes = multiset_outcomes(options, 3)
    assert math.fsum(p for p, _ in outcomes) == pytest.approx(1.0, abs=1e-12)
    # number of multisets of size 3 over 3 options
    assert len(outcomes) == 10


def test_expectation_driver_point_value():
    # no random terms: expectation equals the point value
    assert estimator_expectation_exhaustive([], lambda a: 42.0) == 42.0
    assert estimator_expectation_exhaustive([[]], lambda a: 7.0) == 7.0


def test_expectation_driver_simple_dice():
    spaces = [[(1 / 6, i) for i in range(1, 7)]]
    val = estimator_expectation_exhaustive(spaces, lambda a: float(a[0]))
    assert val == pytest.approx(3.5, abs=1e-12)


def test_expectation_driver_cap():
    big = [[(0.5, 0), (0.5, 1)]] * 21
    with pytest.raises(TooLargeError):
        estimator_expectation_exhaustive(big, lambda a: 0.0)


@pytest.mark.parametrize("seed", range(40))
def test_min_cut_exact_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 70))
    # unit weights make ties common, so the first-maximum rule is exercised
    lo, hi = (1.0, 1.0) if seed % 3 == 0 else (0.1, 5.0)
    g = gnp_connected(n, float(rng.uniform(0.1, 0.6)), seed=seed, w_lo=lo, w_hi=hi)
    val, members = min_cut_exact(g)
    want_val, want_members = stoer_wagner_reference(g)
    assert val == want_val
    assert np.array_equal(members, want_members)


@pytest.mark.parametrize("seed", range(10))
def test_min_cut_exhaustive_members(seed):
    g = gnp(int(3 + seed), 0.5, seed=seed, w_lo=0.5, w_hi=2.0)
    val, members = min_cut_exhaustive(g)
    masks, vals = enumerate_cut_values(g)
    i = int(np.argmin(vals))
    assert val == vals[i]
    assert members.tolist() == [bool(int(masks[i]) >> b & 1) for b in range(g.n - 1)] + [False]
