import numpy as np
import pytest

from quadsketch.graph import WeightedGraph, is_connected


class UnionFind:
    """Array-based union-find with path compression and union by rank: the
    reference that vectorized labelling, forest indices and Karger sides are
    checked against."""

    __slots__ = ("parent", "rank", "n_components")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.n_components = n

    def find(self, i: int) -> int:
        p = self.parent
        root = i
        while p[root] != root:
            root = p[root]
        while p[i] != root:
            p[i], i = root, p[i]
        return root

    def union(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        if self.rank[ri] < self.rank[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        if self.rank[ri] == self.rank[rj]:
            self.rank[ri] += 1
        self.n_components -= 1
        return True


def gnp(n: int, p: float, seed: int, w_lo: float = 1.0, w_hi: float = 1.0) -> WeightedGraph:
    """Erdos-Renyi graph with optional uniform random weights."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    m = int(keep.sum())
    if w_lo == w_hi:
        w = np.full(m, w_lo)
    else:
        w = rng.uniform(w_lo, w_hi, size=m)
    return WeightedGraph(n, _arrays=(iu[keep], ju[keep], w))


def gnp_connected(n: int, p: float, seed: int, **kw) -> WeightedGraph:
    """Connected G(n, p); retries with fresh seeds, then adds a random cycle."""
    for t in range(20):
        g = gnp(n, p, seed + 1000 * t, **kw)
        if is_connected(g):
            return g
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    extra = [(int(order[i]), int(order[(i + 1) % n]), kw.get("w_lo", 1.0)) for i in range(n)]
    edges = list(g.edges()) + extra
    return WeightedGraph(n, edges)


def random_members(n: int, rng, nontrivial: bool = True) -> np.ndarray:
    while True:
        s = rng.random(n) < rng.uniform(0.2, 0.8)
        if not nontrivial or (s.any() and not s.all()):
            return s


def complete_graph(n: int, w: float = 1.0) -> WeightedGraph:
    return WeightedGraph(n, [(i, j, w) for i in range(n) for j in range(i + 1, n)])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
