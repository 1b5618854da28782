"""Independent brute-force ground truth used by the test suite and CLI.

Everything here is deterministic: Stoer-Wagner for global minimum cut, dense
symmetric eigensolves for spectra, and exhaustive enumeration of cuts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadsketchError, TooLargeError
from .graph import (
    WeightedGraph,
    _least_ratio,
    connected_components,
    degrees,
    is_connected,
)

MIN_CUT_VERTEX_CAP = 256
EIG_VERTEX_CAP = 512


def min_cut_exact(g: WeightedGraph) -> tuple[float, np.ndarray]:
    """Deterministic global minimum cut (value, member bit vector).

    Stoer-Wagner on a dense adjacency matrix; capped at n <= 256. For a
    disconnected input returns 0 with one connected component as witness.
    """
    if g.n > MIN_CUT_VERTEX_CAP:
        raise TooLargeError("instance too large for the Stoer-Wagner oracle")
    if g.n < 2:
        raise QuadsketchError("minimum cut needs at least two vertices")
    if not is_connected(g):
        labels = connected_components(g)
        return 0.0, labels == labels[0]
    adj = g.adjacency_matrix()
    groups: list[list[int]] = [[i] for i in range(g.n)]
    active = list(range(g.n))
    merged = np.zeros(g.n, dtype=bool)
    best_val = math.inf
    best_side: list[int] = []
    while len(active) > 1:
        # maximum adjacency order from active[0]; added and merged vertices
        # hold -inf, so argmax's first maximum is the first open vertex in
        # ascending order (the method skips np.argmax's Python wrapper)
        s = t = active[0]
        wsum = adj[t].copy()
        wsum[merged] = -np.inf
        for _ in range(len(active) - 1):
            wsum[t] = -np.inf
            s, t = t, int(wsum.argmax())
            wsum += adj[t]
        cut_of_phase = float(wsum[t])  # the diagonal is 0, so this is w(t, added)
        if cut_of_phase < best_val:
            best_val = cut_of_phase
            best_side = list(groups[t])
        # merge t into s
        adj[s] += adj[t]
        adj[:, s] += adj[:, t]
        adj[t] = 0.0
        adj[:, t] = 0.0
        adj[s, s] = 0.0
        groups[s].extend(groups[t])
        active.remove(t)
        merged[t] = True
    members = np.zeros(g.n, dtype=bool)
    members[best_side] = True
    return best_val, members


def enumerate_cut_values(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """All 2^(n-1)-1 distinct cuts (masks over bits 0..n-2) and their weights."""
    if g.n > 21:
        raise TooLargeError("too many subsets to enumerate")
    if g.n < 2:
        raise QuadsketchError("no nontrivial cuts")
    masks = np.arange(1, 1 << (g.n - 1), dtype=np.int64)
    vals = np.zeros(masks.size)
    for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_w.tolist()):
        vals += (((masks >> u) ^ (masks >> v)) & 1) * w
    return masks, vals


def expansion_exact(g: WeightedGraph) -> float:
    """Expansion constant min_{|S| <= n/2} |∂(S, S̄)| / |S| by exhaustive
    enumeration; capped at n <= 24."""
    if g.n == 1:
        raise QuadsketchError("expansion undefined for a single vertex")
    return _least_ratio(g, "edge_expansion")


def mask_members(masks: np.ndarray, n: int) -> np.ndarray:
    """(len(masks), n) member bit vectors of cut masks over bits 0..n-2."""
    members = np.zeros((masks.size, n), dtype=bool)
    members[:, : n - 1] = (masks[:, None] >> np.arange(n - 1)) & 1
    return members


def normalized_laplacian(g: WeightedGraph) -> np.ndarray:
    delta, _ = degrees(g)
    if np.any(delta <= 0):
        raise QuadsketchError("normalized Laplacian undefined with isolated vertex")
    inv_sqrt = 1.0 / np.sqrt(delta)
    a = g.adjacency_matrix()
    return np.eye(g.n) - (inv_sqrt[:, None] * a) * inv_sqrt[None, :]


def lambda1_normalized(g: WeightedGraph) -> float:
    """Second-smallest eigenvalue of D^{-1/2} L D^{-1/2} (dense solve)."""
    if g.n > EIG_VERTEX_CAP:
        raise TooLargeError("instance too large for the dense eigensolve")
    if g.n < 2:
        raise QuadsketchError("lambda_1 needs at least two vertices")
    if not is_connected(g):
        raise QuadsketchError("lambda_1 oracle requires a connected graph")
    vals = np.linalg.eigvalsh(normalized_laplacian(g))
    if abs(vals[0]) > 1e-8:
        raise QuadsketchError(f"lambda_0 = {vals[0]:.3e} not within 1e-8 of zero")
    return float(vals[1])
