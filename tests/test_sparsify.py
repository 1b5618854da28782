import importlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quadsketch
from quadsketch import partition, spectral
from quadsketch.errors import QuadsketchError
from quadsketch.graph import WeightedGraph, cut_weight
from quadsketch.oracle import enumerate_cut_values
from quadsketch.sparsify import (
    SparsifierConfig,
    _forest_indices,
    effective_resistances,
    factor2_class,
    keep_probabilities,
    sparsify,
)

from conftest import UnionFind, complete_graph, edge_budget, gnp, gnp_connected, random_members
from test_serialize import GOLDEN, PINNED_ANSWERS

# the package exports the function sparsify under the module's name
sparsify_module = importlib.import_module("quadsketch.sparsify")


def edge_set(g):
    return {(int(u), int(v)) for u, v in zip(g.edge_u, g.edge_v)}


def test_config_validation():
    with pytest.raises(ValueError):
        SparsifierConfig(0.0, "cut")
    with pytest.raises(ValueError):
        SparsifierConfig(0.5, "nope")


def test_deterministic_given_seed():
    g = gnp_connected(30, 0.5, seed=3)
    cfg = SparsifierConfig(0.25, "spectral", seed=11)
    assert sparsify(g, cfg) == sparsify(g, cfg)


def test_output_is_reweighted_subgraph():
    g = gnp_connected(40, 0.4, seed=5, w_lo=0.5, w_hi=4.0)
    for kind in ("cut", "spectral"):
        h = sparsify(g, SparsifierConfig(0.3, kind, seed=9))
        assert edge_set(h) <= edge_set(g)
        assert h.n == g.n


def test_bridges_always_kept():
    # path graph: every edge is a bridge, sampling probability is forced to 1
    n = 30
    g = WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    for kind in ("cut", "spectral"):
        h = sparsify(g, SparsifierConfig(0.4, kind, seed=17))
        assert edge_set(h) == edge_set(g)
        assert np.allclose(h.edge_w, g.edge_w)


def test_k8_cut_error_within_epsilon():
    g = complete_graph(8)
    h = sparsify(g, SparsifierConfig(0.2, "cut", seed=23))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        s = random_members(8, rng)
        true = cut_weight(g, s)
        worst = max(worst, abs(cut_weight(h, s) - true) / true)
    assert worst <= 0.2


def test_all_cuts_small_graphs_failure_rate():
    # n <= 12: all 2^(n-1) cuts within (1 +/- eps), failure fraction <= 0.05
    # over 50 seeds
    failures = 0
    trials = 0
    for seed in range(50):
        g = gnp_connected(10, 0.5, seed=seed)
        h = sparsify(g, SparsifierConfig(0.25, "cut", seed=seed))
        _, exact = enumerate_cut_values(g)
        _, approx = enumerate_cut_values(h)
        trials += exact.size
        failures += int(np.sum(np.abs(approx - exact) > 0.25 * exact))
    assert failures / trials <= 0.05


def test_edge_budget_respected():
    g = gnp_connected(64, 0.6, seed=31)
    for eps in (0.1, 0.3):
        for kind in ("cut", "spectral"):
            h = sparsify(g, SparsifierConfig(eps, kind, seed=41))
            assert h.m <= min(g.m, edge_budget(g.n, eps))


def test_effective_resistance_path():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    r = effective_resistances(g)
    assert r[0] == pytest.approx(1.0, rel=1e-9)
    assert r[1] == pytest.approx(0.5, rel=1e-9)


def resistances_pinv(g):
    """Reference: effective resistances from the Laplacian's pseudoinverse."""
    lp = np.linalg.pinv(g.laplacian())
    u, v = g.edge_u, g.edge_v
    return lp[u, u] + lp[v, v] - 2.0 * lp[u, v]


def disjoint(*graphs, isolated=0):
    """Disjoint union of the graphs, followed by `isolated` edgeless vertices."""
    shifts = np.cumsum([0] + [g.n for g in graphs])
    u = np.concatenate([g.edge_u + s for g, s in zip(graphs, shifts)])
    v = np.concatenate([g.edge_v + s for g, s in zip(graphs, shifts)])
    w = np.concatenate([g.edge_w for g in graphs])
    return WeightedGraph(int(shifts[-1]) + isolated, _arrays=(u, v, w))


RESISTANCE_CASES = {
    "single-edge": lambda: WeightedGraph(2, [(0, 1, 1.5)]),
    "gnp-30": lambda: gnp_connected(30, 0.3, seed=1, w_lo=0.5, w_hi=2.0),
    "gnp-90-dense": lambda: gnp_connected(90, 0.6, seed=2, w_lo=0.5, w_hi=2.0),
    "gnp-40-weights-1e-3-1e3": lambda: gnp_connected(40, 0.4, seed=3, w_lo=1e-3, w_hi=1e3),
    "path-and-cycle": lambda: WeightedGraph(
        12, [(i, i + 1, 1.0 + i) for i in range(5)] + [(6 + i, 6 + (i + 1) % 6, 2.0) for i in range(6)]
    ),
    "two-gnp-and-isolated": lambda: disjoint(
        gnp_connected(20, 0.3, seed=4, w_lo=0.5, w_hi=2.0), gnp_connected(15, 0.5, seed=5), isolated=3
    ),
    "isolated-first": lambda: disjoint(WeightedGraph(4), gnp_connected(25, 0.3, seed=6, w_lo=1.0, w_hi=3.0)),
    "sparse-gnp-disconnected": lambda: gnp(60, 0.03, seed=7, w_lo=0.5, w_hi=2.0),
}


def scaled(g, scale):
    return WeightedGraph(g.n, _arrays=(g.edge_u, g.edge_v, g.edge_w * scale))


def component_count(g):
    uf = UnionFind(g.n)
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        uf.union(u, v)
    return uf.n_components


@pytest.mark.parametrize("scale", [1e-15, 1e-5, 1.0, 1e5, 1e15])
@pytest.mark.parametrize("case", list(RESISTANCE_CASES))
def test_effective_resistances_match_pinv(case, scale):
    g = scaled(RESISTANCE_CASES[case](), scale)
    np.testing.assert_allclose(effective_resistances(g), resistances_pinv(g), rtol=1e-10, atol=0)


@pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
@pytest.mark.parametrize("case", list(RESISTANCE_CASES))
def test_foster_theorem(case, scale):
    # sum_e w_e R_e = rank(L) = n - (number of components)
    g = scaled(RESISTANCE_CASES[case](), scale)
    total = float(np.sum(g.edge_w * effective_resistances(g)))
    assert abs(total - (g.n - component_count(g))) <= 1e-9 * g.n


def test_effective_resistances_of_an_edgeless_graph():
    assert effective_resistances(WeightedGraph(3)).size == 0


def test_numerically_indefinite_grounded_laplacian_is_a_domain_error():
    # grounding vertex 0 leaves [[1e20, -1e20], [-1e20, 1e20]] after rounding
    # the 1e-20 terms away, whose second Cholesky pivot is 0
    g = WeightedGraph(3, [(0, 1, 1e-20), (1, 2, 1e20), (0, 2, 1e-20)])
    with pytest.raises(QuadsketchError, match="positive definite"):
        effective_resistances(g)
    with pytest.raises(QuadsketchError, match="positive definite"):
        sparsify(g, SparsifierConfig(0.5, "spectral", seed=1))


# the spectral_basic and SDD inputs whose envelopes and estimator arrays the
# serialization tests pin
PINNED_SPECTRAL_INPUTS = {
    name: entry[0]
    for name, entry in {**GOLDEN, **PINNED_ANSWERS}.items()
    if name.startswith(("spectral_basic", "sdd")) and not name.endswith("-verbatim")
}


@pytest.mark.parametrize("case", list(PINNED_SPECTRAL_INPUTS))
def test_kept_edges_match_pinv_reference(case, monkeypatch):
    calls = []

    def recording(g, cfg):
        h = sparsify(g, cfg)
        calls.append((g, cfg, h))
        return h

    monkeypatch.setattr(spectral, "sparsify", recording)
    monkeypatch.setattr(partition, "sparsify", recording)
    PINNED_SPECTRAL_INPUTS[case]()
    assert any(cfg.kind == "spectral" and g.m > 0 for g, cfg, _ in calls)
    monkeypatch.setattr(sparsify_module, "effective_resistances", resistances_pinv)
    for g, cfg, h in calls:
        assert edge_set(sparsify(g, cfg)) == edge_set(h)


def test_bridge_between_dense_halves_kept_above_512_vertices():
    # a bridge has w R = 1, so p = 1; uniform sampling per weight class, the
    # fallback above the resistance cap, can drop it
    half = np.arange(600) < 300
    for seed in range(20):
        g = disjoint(gnp(300, 0.5, seed), gnp(300, 0.5, seed + 1000))
        g = WeightedGraph(600, _arrays=(np.append(g.edge_u, 0), np.append(g.edge_v, 300), np.append(g.edge_w, 1.0)))
        h = sparsify(g, SparsifierConfig(0.5, "spectral", seed=seed))
        assert cut_weight(h, half) == pytest.approx(1.0, rel=1e-12)


def test_weight_ratio_clipping():
    # one absurdly light edge must be dropped after reweighting
    n = 12
    edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    edges.append((0, 1, 1e-30))  # merges into (0,1): weight 1 + 1e-30
    g = WeightedGraph(n, edges)
    g2 = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1e-9)])
    h = sparsify(g2, SparsifierConfig(0.3, "cut", seed=1))
    if h.m:
        assert float(h.edge_w.max() / h.edge_w.min()) <= 3.0**6


def forest_indices_by_rounds(n, u, v, max_rounds):
    """Reference: one union-find scan of the remaining edges per round."""
    idx = np.zeros(u.size, dtype=np.int64)
    remaining = list(range(u.size))
    rnd = 0
    while remaining and rnd < max_rounds:
        rnd += 1
        uf = UnionFind(n)
        leftover = []
        for e in remaining:
            if uf.union(int(u[e]), int(v[e])):
                idx[e] = rnd
            else:
                leftover.append(e)
        remaining = leftover
    for e in remaining:
        idx[e] = max_rounds + 1
    return idx


@given(st.integers(1, 24), st.floats(0.0, 1.0), st.integers(0, 6), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_forest_indices_match_round_loop(n, p, max_rounds, seed):
    g = gnp(n, p, seed)
    rng = np.random.default_rng(seed)
    order = rng.permutation(g.m)  # any scan order, not just canonical
    u, v = g.edge_u[order], g.edge_v[order]
    flip = rng.random(u.size) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    assert np.array_equal(
        _forest_indices(n, u, v, max_rounds), forest_indices_by_rounds(n, u, v, max_rounds)
    )


@given(st.integers(1, 24), st.floats(0.0, 1.0), st.integers(0, 6), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_forest_index_at_most_smaller_endpoint_degree(n, p, max_rounds, seed):
    # the bound behind the keep-all certificate, also for the cap
    # max_rounds + 1 of the edges no forest took
    g = gnp(n, p, seed)
    order = np.random.default_rng(seed).permutation(g.m)
    u, v = g.edge_u[order], g.edge_v[order]
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    assert np.all(_forest_indices(n, u, v, max_rounds) <= np.minimum(deg[u], deg[v]))


def cut_probabilities_by_forests(g, cfg):
    """Reference cut-kind keep_probabilities: every weight class runs the
    forest rounds, with no degree certificate."""
    target = sparsify_module.OVERSAMPLE * math.log(g.n + 2) / cfg.epsilon**2
    cls = factor2_class(g.edge_w, g.edge_w.min())
    p = np.ones(g.m)
    for c in np.unique(cls):
        sel = np.flatnonzero(cls == c)
        gamma = g.edge_w[sel].min()
        k = _forest_indices(g.n, g.edge_u[sel], g.edge_v[sel], int(math.ceil(target)) + 1)
        p[sel] = np.minimum(1.0, target * g.edge_w[sel] / (gamma * k))
    return p


def forest_calls(monkeypatch) -> list:
    """Patch _forest_indices to record the classes it is called on."""
    calls = []

    def recording(n, u, v, max_rounds):
        calls.append(u.size)
        return _forest_indices(n, u, v, max_rounds)

    monkeypatch.setattr(sparsify_module, "_forest_indices", recording)
    return calls


# (graph, eps, weight classes, classes the degree certificate leaves to the
# forest rounds, edges with p < 1). In K_n, scanned in canonical order,
# forest r is the star at vertex r - 1 over r - 1, ..., n - 1, so edge
# (n - 2, n - 1) has forest index n - 1, its degree: the bound is tight, and
# K40 sits on either side of it at target = 40.4 (eps 0.43) and 36.9 (eps
# 0.45), where the six edges of forests 37-39 are sampled.
CERTIFICATE_CASES = {
    "K40-all-certified": (lambda: complete_graph(40), 0.2, 1, 0, 0),
    "K40-just-certified": (lambda: complete_graph(40), 0.43, 1, 0, 0),
    "K40-just-uncertified": (lambda: complete_graph(40), 0.45, 1, 1, 6),
    "K40-eps-0.9-uncertified": (lambda: complete_graph(40), 0.9, 1, 1, 465),
    "path-all-certified": (lambda: WeightedGraph(30, [(i, i + 1, 1.0) for i in range(29)]), 0.4, 1, 0, 0),
    "G128-all-certified": (lambda: gnp(128, 0.35, seed=1), 0.2, 1, 0, 0),
    "weights-1-1e3": (lambda: gnp_connected(60, 0.6, seed=3, w_lo=1.0, w_hi=1e3), 0.9, 10, 2, 0),
    "weights-1-8-mixed": (lambda: gnp_connected(80, 0.9, seed=3, w_lo=1.0, w_hi=8.0), 0.7, 3, 2, 45),
}


@pytest.mark.parametrize("case", list(CERTIFICATE_CASES))
def test_cut_probabilities_match_forest_reference(case, monkeypatch):
    make, eps, classes, uncertified, sampled = CERTIFICATE_CASES[case]
    g = make()
    cfg = SparsifierConfig(eps, "cut", seed=5)
    ref = cut_probabilities_by_forests(g, cfg)
    calls = forest_calls(monkeypatch)
    p = keep_probabilities(g, cfg)
    assert p.tobytes() == ref.tobytes()
    assert np.unique(factor2_class(g.edge_w, g.edge_w.min())).size == classes
    assert len(calls) == uncertified and int(np.count_nonzero(p < 1.0)) == sampled


@given(
    st.integers(2, 40),
    st.floats(0.05, 1.0),
    st.sampled_from([(1.0, 1.0), (1.0, 4.0), (1.0, 1e4)]),
    st.floats(0.05, 0.95),
    st.integers(0, 10**6),
)
@settings(max_examples=100, deadline=None)
def test_cut_probabilities_match_forest_reference_on_random_graphs(n, density, weights, eps, seed):
    g = gnp(n, density, seed, *weights)
    if not g.m:
        return
    cfg = SparsifierConfig(eps, "cut", seed=seed)
    assert keep_probabilities(g, cfg).tobytes() == cut_probabilities_by_forests(g, cfg).tobytes()


def factor2_class_reference(x: float, base: float) -> int:
    """Largest k with base * 2^k <= x, decided in exact rationals."""
    q = Fraction(x) / Fraction(base)
    k = q.numerator.bit_length() - q.denominator.bit_length()
    while Fraction(2) ** k > q:
        k -= 1
    while Fraction(2) ** (k + 1) <= q:
        k += 1
    return k


def ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else 0.0)
    return x


bases = st.one_of(
    st.floats(1e-6, 1e6),
    # out-degree band base beta = c_beta * eps^(-8/5), not a power of two
    st.builds(lambda eps, c: c * eps ** (-8.0 / 5.0), st.floats(0.01, 0.49), st.sampled_from([0.3, 1.0, 2.5])),
)


@given(bases, st.integers(-40, 40), st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_factor2_class_at_class_boundaries(base, k, steps):
    # values within a few ulps on either side of base * 2^k
    x = ulps_from(math.ldexp(base, k), steps)
    assert int(factor2_class(x, base)) == factor2_class_reference(x, base)


@given(bases, st.lists(st.integers(1, 10**6), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_factor2_class_of_integer_degrees(base, degrees):
    x = np.array(degrees, dtype=np.int64)
    assert factor2_class(x, base).tolist() == [factor2_class_reference(d, base) for d in degrees]


@given(st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_factor2_class_of_weights_over_their_minimum(w):
    w = np.array(w)
    wmin = float(w.min())
    cls = factor2_class(w, wmin)
    assert cls.tolist() == [factor2_class_reference(float(x), wmin) for x in w]
    assert cls.min() == 0


SPECTRAL_BYTES_SCRIPT = """
import hashlib
import numpy as np
from quadsketch.graph import WeightedGraph
from quadsketch.psdsdd import sdd_sketch_build
from quadsketch.spectral import spectral_basic_build

rng = np.random.default_rng(1)
n, k = 200, 100
iu, ju = np.triu_indices(n, 1)
keep = rng.random(iu.size) < 0.3
g = WeightedGraph(n, _arrays=(iu[keep], ju[keep], rng.uniform(1.0, 4.0, int(keep.sum()))))
off = np.triu(rng.choice((-1.0, 1.0), size=(k, k)) * rng.uniform(0.1, 1.0, size=(k, k)), 1)
a = off + off.T
a[np.diag_indices(k)] = np.abs(a).sum(axis=1) * rng.uniform(1.0, 1.1, k)
for sk in (spectral_basic_build(g, 0.45, 1), sdd_sketch_build(a, 0.2, 1)):
    print(hashlib.sha256(sk.to_bytes()).hexdigest())
"""


def test_spectral_bytes_do_not_depend_on_blas_threads():
    # On a 200-vertex graph (and the 200-vertex reduced graph of a 100-row
    # SDD matrix) the resistances round differently with 1 and 2 OpenBLAS
    # threads; the keep probabilities' grid keeps that out of the bytes.
    src = str(Path(quadsketch.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        out = subprocess.run(
            [sys.executable, "-c", SPECTRAL_BYTES_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        digests.append(out.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]


SWEEP_BYTES_SCRIPT = """
import hashlib
import numpy as np
from quadsketch import partition
from quadsketch.cutsketch import cut_sketch_build
from quadsketch.graph import WeightedGraph
from quadsketch.spectral import spectral_improved_build

dense, power = [], []
pair, vector = partition.fiedler_pair, partition._power_vector


def counted_pair(mat):
    dense.append(mat.shape[0])
    return pair(mat)


def counted_vector(g, *args):
    power.append(g.n)
    return vector(g, *args)


partition.fiedler_pair, partition._power_vector = counted_pair, counted_vector
rng = np.random.default_rng(1)
n = 200
iu, ju = np.triu_indices(n, 1)
keep = rng.random(iu.size) < 0.3
g = WeightedGraph(n, _arrays=(iu[keep], ju[keep], rng.uniform(1.0, 4.0, int(keep.sum()))))
for build in (lambda: spectral_improved_build(g, 0.2, 1), lambda: cut_sketch_build(g, 0.05, 1, mode="pipeline")):
    data = build().to_bytes()
    # pieces above POWER_SWEEP_MIN whose power-iteration sweep found the cut
    swept = len(power) - sum(k > partition.POWER_SWEEP_MIN for k in dense)
    print(hashlib.sha256(data).hexdigest(), max(dense, default=0), swept)
    dense.clear()
    power.clear()
"""


def test_sweep_bytes_do_not_depend_on_blas_threads():
    # Both builds search pieces above EXHAUSTIVE_CUT_CAP vertices: those
    # above POWER_SWEEP_MIN sweep along a power-iteration vector first, and
    # the others, and those where that sweep finds no cut, sort the vector
    # of fiedler_pair. Both run with 1 and 2 OpenBLAS threads, and neither
    # the bytes nor which pieces took which vector may move.
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
            [sys.executable, "-c", SWEEP_BYTES_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        outputs.append([line.split() for line in out.stdout.splitlines()])
    assert len(outputs[0]) == 2
    assert all(int(largest) > partition.EXHAUSTIVE_CUT_CAP for _, largest, _ in outputs[0])
    assert sum(int(swept) for _, _, swept in outputs[0]) >= 1
    assert outputs[0] == outputs[1]
