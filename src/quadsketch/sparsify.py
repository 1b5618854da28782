"""Sampling-based cut/spectral sparsifier behind a stable interface.

Each edge is kept with probability proportional to an upper bound on its
importance and reweighted by 1/p (Horvitz-Thompson), so all cut and spectral
expectations are preserved:

* cut kind: a connectivity lower bound from Nagamochi-Ibaraki style iterated
  spanning forests inside each factor-2 weight class; a class whose edges
  all keep p = 1 under the degree bound on that index skips the forests;
* spectral kind: exact effective resistances from one Cholesky factor of the
  grounded Laplacian for n <= 2048, with a uniform-by-weight-class fallback
  above.

Deterministic given the seed. After reweighting, edges lighter than
w_max / n^6 are dropped, which caps the output weight ratio at poly(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadsketchError
from .graph import WeightedGraph, connected_components, spanning_forest
from .rng import rng_for

OVERSAMPLE = 2.0
RESISTANCE_VERTEX_CAP = 2048
WEIGHT_RATIO_POWER = 6


@dataclass(frozen=True)
class SparsifierConfig:
    epsilon: float
    kind: str = "cut"  # "cut" or "spectral"
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if self.kind not in ("cut", "spectral"):
            raise ValueError("kind must be 'cut' or 'spectral'")


def factor2_class(x, base: float):
    """Factor-2 class of x over base > 0: the largest integer k with
    base * 2^k <= x, elementwise (x > 0). Weight classes anchor base at the
    minimum weight; out-degree bands at beta, where a degree below beta gets
    a negative class."""
    k = np.floor(np.log2(x / base)).astype(np.int64)
    # x / base may round up onto 2^k, and its log2 onto k, with x < base * 2^k
    return k - (x < np.ldexp(base, k))


def _forest_indices(n: int, u: np.ndarray, v: np.ndarray, max_rounds: int) -> np.ndarray:
    """Nagamochi-Ibaraki forest index per edge, capped at max_rounds.

    An edge in forest k has k edge-disjoint paths between its endpoints in
    the scanned subgraph, so k lower-bounds its (unweighted) connectivity.
    Round k keeps the greedy forest of the edges left, scanned in input
    order; the (u, v) pairs must be distinct.
    """
    idx = np.full(u.size, max_rounds + 1, dtype=np.int64)
    remaining = np.arange(u.size)
    for rnd in range(1, max_rounds + 1):
        if not remaining.size:
            break
        forest = spanning_forest(n, u[remaining], v[remaining])
        idx[remaining[forest]] = rnd
        remaining = remaining[~forest]
    return idx


def effective_resistances(g: WeightedGraph) -> np.ndarray:
    """Exact effective resistance of every edge.

    Grounding one root per component (its smallest vertex) leaves a positive
    definite block U^T U of the Laplacian (LAPACK potrf, then trtri for
    U^-1). Its inverse X = U^-1 U^-T, with zero root rows and columns, gives
    R_uv = X_uu + X_vv - 2 X_uv.
    """
    # imported here, like scipy.sparse in graph.spanning_forest: only builds
    # need it
    from scipy.linalg.lapack import dpotrf, dtrtri

    if not g.m:
        return np.zeros(0)
    labels = connected_components(g)
    root = np.zeros(g.n, dtype=bool)
    root[np.unique(labels, return_index=True)[1]] = True
    inner = np.flatnonzero(~root)
    # the Laplacian is symmetric, so its transpose is the same matrix in the
    # Fortran order LAPACK overwrites in place
    grounded = g.laplacian()[np.ix_(inner, inner)].T
    factor, info = dpotrf(grounded, overwrite_a=1)
    if info == 0:
        inv_factor, info = dtrtri(factor, overwrite_c=1)
    if info != 0:
        raise QuadsketchError(f"grounded Laplacian is not numerically positive definite (LAPACK info {info})")
    # one product forms X with zero root rows and columns; potri would form
    # it with a step that rounds differently with 1 and 2 OpenBLAS threads
    # even on a 16-vertex graph
    t = np.zeros((g.n, inner.size))
    t[inner] = inv_factor
    x = t @ t.T
    u, v = g.edge_u, g.edge_v
    return x[u, u] + x[v, v] - 2.0 * x[u, v]


def keep_probabilities(g: WeightedGraph, cfg: SparsifierConfig) -> np.ndarray:
    """Per-edge sampling probability; 1.0 means the edge is always kept."""
    n, m = g.n, g.m
    eps2 = cfg.epsilon**2
    logn = math.log(n + 2)
    target = OVERSAMPLE * logn / eps2
    if cfg.kind == "spectral" and n <= RESISTANCE_VERTEX_CAP:
        score = g.edge_w * effective_resistances(g)
        p = target * np.clip(score, 0.0, 1.0)
        # round up onto the grid 2^(k/8): p stays an upper bound, and the
        # last bits in which the resistances differ between BLAS thread
        # counts no longer reach the sketch (unless p lies within about
        # 1e-15 of a grid point)
        with np.errstate(divide="ignore"):
            return np.minimum(1.0, np.exp2(np.ceil(8.0 * np.log2(p)) / 8.0))
    cls = factor2_class(g.edge_w, g.edge_w.min())
    p = np.ones(m)
    for c in np.unique(cls):
        sel = np.flatnonzero(cls == c)
        gamma = g.edge_w[sel].min()
        if cfg.kind == "cut":
            u, v = g.edge_u[sel], g.edge_v[sel]
            # A forest index k_e never exceeds min(d_u, d_v), the degrees in
            # the class: each earlier forest joins u and v, so it holds an
            # edge at u other than e, and the forests are edge-disjoint. The
            # cap (rounds + 1) of an edge that no round took is bounded the
            # same way. p only grows as k shrinks (also in floating point),
            # so when it reaches 1 at min(d_u, d_v) for every edge, every p
            # is exactly 1.0 and the forest rounds cannot change any of them.
            deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
            # target * w overflows for some weights whose total is finite;
            # inf then gives p = 1, still an upper bound (gamma * k is at
            # most a weighted degree, so finite)
            with np.errstate(over="ignore"):
                scaled = target * g.edge_w[sel]
            if np.all(scaled / (gamma * np.minimum(deg[u], deg[v])) >= 1.0):
                continue
            k = _forest_indices(n, u, v, int(math.ceil(target)) + 1)
            p[sel] = np.minimum(1.0, scaled / (gamma * k))
        else:
            # uniform fallback per class for instances too big to invert
            budget = OVERSAMPLE * n * logn / eps2
            p[sel] = min(1.0, budget / sel.size)
    return p


def sparsify(g: WeightedGraph, cfg: SparsifierConfig) -> WeightedGraph:
    """Reweighted subgraph approximating cuts (or all quadratic forms); an
    edgeless graph is returned as is."""
    if g.m == 0:
        return g
    p = keep_probabilities(g, cfg)
    rng = rng_for(cfg.seed, "sparsify", cfg.kind)
    kept = rng.random(g.m) < p
    if not np.any(kept):
        return WeightedGraph(g.n)
    new_w = g.edge_w[kept] / p[kept]
    u, v = g.edge_u[kept], g.edge_v[kept]
    # weight-ratio clipping: drop reweighted edges below w_max / n^6
    if g.n >= 2:
        floor = new_w.max() / float(g.n) ** WEIGHT_RATIO_POWER
        keep2 = new_w >= floor
        u, v, new_w = u[keep2], v[keep2], new_w[keep2]
    return WeightedGraph(g.n, _arrays=(u, v, new_w))
