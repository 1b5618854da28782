"""Graph substrate: weighted graphs, exact cut and quadratic forms, and the
sparse-cut ratio w(∂S) / min(μ(S), μ(S̄)) with its exhaustive oracles.

All graphs are immutable after construction; every operation here is pure, so
concurrent callers are safe. Edge lists are canonicalized (u < v, sorted,
parallel edges merged by summing weights), which also makes serialization and
fingerprinting deterministic.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphFormatError, QuadsketchError, QueryError, TooLargeError

EXHAUSTIVE_VERTEX_CAP = 24
MASK_BLOCK = 1 << 16  # most masks per block of subset_cut_blocks
FIRST_MASK_BLOCK = 1 << 8  # masks in its first block


def _canonicalize(n: int, u, v, w):
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if not (u.shape == v.shape == w.shape):
        raise ValueError("edge arrays must have equal length")
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    if u.size:
        if lo.min() < 0 or hi.max() >= n:
            raise ValueError("vertex id out of range")
        if np.any(lo == hi):
            raise ValueError("self-loops are not allowed")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("edge weights must be positive and finite")
    if np.all((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))):
        # already sorted and free of parallel edges (pieces, subgraphs)
        return lo, hi, w.copy()
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    if lo.size:
        same = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if np.any(same):
            # merge parallel edges by summing their weights
            grp = np.concatenate(([0], np.cumsum(~same)))
            k = grp[-1] + 1
            ws = np.zeros(k)
            np.add.at(ws, grp, w)
            keep = np.concatenate(([True], ~same))
            lo, hi, w = lo[keep], hi[keep], ws
    return lo, hi, w


class WeightedGraph:
    """Undirected positively weighted simple graph on vertices 0..n-1.

    Parallel edges in the input are merged by summing weights; this preserves
    every cut and quadratic form.
    """

    __slots__ = ("n", "edge_u", "edge_v", "edge_w", "_adj", "_labels")

    def __init__(self, n: int, edges: Iterable | None = None, *, _arrays=None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = int(n)
        if _arrays is not None:
            u, v, w = _arrays
        elif edges is None:
            u = v = np.empty(0, dtype=np.int64)
            w = np.empty(0, dtype=np.float64)
        else:
            rows = list(edges)
            if rows:
                u = np.array([r[0] for r in rows], dtype=np.int64)
                v = np.array([r[1] for r in rows], dtype=np.int64)
                w = np.array([r[2] for r in rows], dtype=np.float64)
            else:
                u = v = np.empty(0, dtype=np.int64)
                w = np.empty(0, dtype=np.float64)
        self.edge_u, self.edge_v, self.edge_w = _canonicalize(self.n, u, v, w)
        self.edge_u.setflags(write=False)
        self.edge_v.setflags(write=False)
        self.edge_w.setflags(write=False)
        self._adj = [None]
        self._labels = None

    @classmethod
    def _canonical(cls, n: int, u, v, w, labels) -> "WeightedGraph":
        """A graph on edge arrays that are canonical already (u < v, sorted
        by (u, v), no repeated pair, weights positive and finite), such as
        the edges of a canonical graph selected in ascending order and
        relabelled monotonically, with its known component labels. The
        arrays are made read-only and kept, not copied."""
        g = cls.__new__(cls)
        g.n = int(n)
        g.edge_u, g.edge_v, g.edge_w, g._labels = u, v, w, labels
        for a in (u, v, w, labels):
            a.setflags(write=False)
        g._adj = [None]
        return g

    def with_weights(self, w) -> "WeightedGraph":
        """This graph's edges with the weights w, one per edge id, positive
        and finite. The edge arrays, the component labels (if known) and the
        lazily built adjacency are shared with this graph, not rebuilt, so an
        edge set re-weighted many times builds its adjacency once."""
        w = np.array(w, dtype=np.float64)
        if w.shape != self.edge_w.shape:
            raise ValueError("one weight per edge is needed")
        if w.size and (not np.all(np.isfinite(w)) or np.any(w <= 0)):
            raise ValueError("edge weights must be positive and finite")
        w.setflags(write=False)
        g = WeightedGraph.__new__(WeightedGraph)
        g.n, g.edge_u, g.edge_v, g.edge_w = self.n, self.edge_u, self.edge_v, w
        g._labels, g._adj = self._labels, self._adj
        return g

    @property
    def m(self) -> int:
        return int(self.edge_u.size)

    @property
    def total_weight(self) -> float:
        return float(self.edge_w.sum())

    def edges(self):
        return zip(self.edge_u.tolist(), self.edge_v.tolist(), self.edge_w.tolist())

    def _adjacency(self):
        """CSR-style (indptr, nbr vertex, incident edge id), read-only; built
        lazily, once for a graph and all its re-weightings."""
        if self._adj[0] is None:
            ends = np.concatenate([self.edge_u, self.edge_v])
            others = np.concatenate([self.edge_v, self.edge_u])
            eids = np.concatenate([np.arange(self.m), np.arange(self.m)])
            order = np.argsort(ends, kind="stable")
            ends, others, eids = ends[order], others[order], eids[order]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.add.at(indptr, ends + 1, 1)
            indptr = np.cumsum(indptr)
            for a in (indptr, others, eids):
                a.setflags(write=False)
            self._adj[0] = (indptr, others, eids)
        return self._adj[0]

    def adjacency_matrix(self, edge_w: np.ndarray | None = None) -> np.ndarray:
        """Dense symmetric adjacency matrix with the weights edge_w (indexed
        by edge id; the graph's own weights by default)."""
        w = self.edge_w if edge_w is None else edge_w
        a = np.zeros((self.n, self.n))
        a[self.edge_u, self.edge_v] = w
        a[self.edge_v, self.edge_u] = w
        return a

    def laplacian(self) -> np.ndarray:
        a = self.adjacency_matrix()
        return np.diag(a.sum(axis=1)) - a

    def edge_subgraph(self, edge_idx) -> tuple["WeightedGraph", np.ndarray]:
        """Edge-induced subgraph on the support of the selected edges.

        Returns the piece and a vertex map (new id -> id in this graph).
        """
        edge_idx = np.asarray(edge_idx, dtype=np.int64)
        u, v, w = self.edge_u[edge_idx], self.edge_v[edge_idx], self.edge_w[edge_idx]
        vmap = np.flatnonzero(np.bincount(np.concatenate([u, v])))
        inv = inverse_map(vmap, self.n)
        g = WeightedGraph(int(vmap.size), _arrays=(inv[u], inv[v], w))
        return g, vmap

    def induced_subgraph(self, members) -> tuple["WeightedGraph", np.ndarray]:
        """Vertex-induced subgraph. Returns the piece and new->old vertex map."""
        members = as_cut_query(self.n, members)
        vmap = np.flatnonzero(members)
        inv = inverse_map(vmap, self.n)
        keep = members[self.edge_u] & members[self.edge_v]
        g = WeightedGraph(
            int(vmap.size),
            _arrays=(inv[self.edge_u[keep]], inv[self.edge_v[keep]], self.edge_w[keep]),
        )
        return g, vmap

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and np.array_equal(self.edge_u, other.edge_u)
            and np.array_equal(self.edge_v, other.edge_v)
            and np.array_equal(self.edge_w, other.edge_w)
        )

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


def check_total_weight(g: WeightedGraph) -> None:
    """QuadsketchError unless twice g's total weight is finite. Each weight
    may be finite and the sum still overflow; the sketches scale their
    ladders (up to 1.5 times the total) and samplers by the total, and the
    degrees of a quadratic form add up to twice it."""
    with np.errstate(over="ignore"):
        total = 2.0 * g.edge_w.sum()
    if not np.isfinite(total):
        raise QuadsketchError("twice the total edge weight is not finite")


def inverse_map(vmap: np.ndarray, n: int) -> np.ndarray:
    """Position of each of the n vertices in vmap, -1 for those not in it."""
    inv = np.full(n, -1, dtype=np.int64)
    inv[vmap] = np.arange(vmap.size)
    return inv


def as_cut_query(n: int, members) -> np.ndarray:
    """Validate a cut query (bit vector of length n) into a bool array."""
    s = np.asarray(members)
    if s.dtype != bool:
        if s.dtype.kind in "iu" and s.size and s.min() >= 0 and s.max() <= 1:
            s = s.astype(bool)
        else:
            raise QueryError("cut query must be a 0/1 vector")
    if s.shape != (n,):
        raise QueryError(f"cut query has length {s.shape}, expected ({n},)")
    return s


def members_from_vertices(n: int, vertices: Sequence[int]) -> np.ndarray:
    s = np.zeros(n, dtype=bool)
    for v in vertices:
        if not 0 <= v < n:
            raise QueryError(f"vertex {v} out of range")
        s[v] = True
    return s


def as_spectral_query(n: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise QueryError(f"spectral query has length {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)):
        raise QueryError("spectral query entries must be finite")
    return x


def quadratic_form(g: WeightedGraph, x) -> float:
    """Exact x^T L(G) x = sum over edges of w(u,v) (x_u - x_v)^2."""
    x = as_spectral_query(g.n, x)
    d = x[g.edge_u] - x[g.edge_v]
    return float(np.dot(g.edge_w, d * d))


def cut_weight(g: WeightedGraph, members) -> float:
    """Exact weight of the cut (S, V\\S) given by the member bit vector."""
    s = as_cut_query(g.n, members)
    crossing = s[g.edge_u] != s[g.edge_v]
    # compress selects the same array as a mask index, in fewer steps
    return float(g.edge_w.compress(crossing).sum())


def weighted_degrees(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of w over the edges (u, v) at each of the n vertices, added in one
    fixed order (the u ends in edge order, then the v ends), so equal inputs
    give equal bits. Float64 also without edges, where bincount gives ints."""
    delta = np.bincount(np.concatenate([u, v]), weights=np.concatenate([w, w]), minlength=n)
    return delta.astype(np.float64, copy=False)


def degrees(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Weighted degrees delta_u and unweighted degrees d_u."""
    delta = weighted_degrees(g.n, g.edge_u, g.edge_v, g.edge_w)
    return delta, np.bincount(np.concatenate([g.edge_u, g.edge_v]), minlength=g.n)


def conductance(g: WeightedGraph, members) -> float:
    """Phi(S) = w(S, S̄) / min(vol S, vol S̄)."""
    s = as_cut_query(g.n, members)
    delta, _ = degrees(g)
    vol_s = float(delta[s].sum())
    vol_t = float(delta[~s].sum())
    denom = min(vol_s, vol_t)
    if denom <= 0:
        raise QuadsketchError("conductance undefined: one side has zero volume")
    return cut_weight(g, s) / denom


def connected_components(g: WeightedGraph) -> np.ndarray:
    """Component labels 0..k-1 in order of smallest member vertex
    (label_components of g's edges). The labels are computed once per graph
    and returned read-only.

    The partitions' searches skip this: each generation of pieces is
    labelled with one label_components call over the union of its pieces'
    edges, and its connected pieces are searched in batches that take
    their connectivity as known.
    """
    if g._labels is None:
        labels = label_components(g.n, g.edge_u, g.edge_v)
        labels.setflags(write=False)
        g._labels = labels
    return g._labels


def label_components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component labels 0..k-1 of the graph on vertices 0..n-1 with edges
    (u, v), in order of smallest member vertex.

    Hook-and-jump labelling: every root hooks onto the smallest root across
    its edges, then pointers jump until each vertex points at a root. A root
    that does not hook has only larger neighbouring roots, all of which hook,
    so the trees of a component at least halve per round. At the fixpoint
    each component has one root, its smallest vertex, which fixes the label
    order independently of the edge order.
    """
    parent = np.arange(n, dtype=np.int64)
    while True:
        pu, pv = parent[u], parent[v]
        if not np.count_nonzero(pu != pv):
            break
        np.minimum.at(parent, pu, pv)
        np.minimum.at(parent, pv, pu)
        while True:
            up = parent[parent]
            if not np.count_nonzero(up != parent):
                break
            parent = up
    roots = parent == np.arange(n)
    return (np.cumsum(roots) - 1)[parent]


def spanning_forest(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mask of the edges kept by a greedy forest scan in the given order.

    Under weight = position + 1 the greedy (Kruskal) forest is the unique
    minimum spanning forest, so one scipy call finds it. The (u, v) pairs
    must be distinct, because the sparse matrix sums repeated pairs.
    """
    # imported here: scipy.sparse.csgraph costs more to import than the CLI's
    # query path takes to run, and only builds need it
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import minimum_spanning_tree

    keep = np.zeros(u.size, dtype=bool)
    if u.size:
        pos = np.arange(1, u.size + 1, dtype=np.float64)
        tree = minimum_spanning_tree(csr_array((pos, (u, v)), shape=(n, n)))
        keep[tree.data.astype(np.int64) - 1] = True
    return keep


def is_connected(g: WeightedGraph) -> bool:
    return g.n <= 1 or int(connected_components(g).max()) == 0


@functools.cache
def _bit_rows(k: int) -> np.ndarray:
    """(2^k, k) 0/1 matrix whose row j holds the bits of j."""
    j = np.arange(1 << k)
    bits = ((j[:, None] >> np.arange(k)) & 1).astype(np.float64)
    bits.setflags(write=False)
    return bits


def subset_cut_blocks(g: WeightedGraph, edge_w: np.ndarray, vertex_w: np.ndarray):
    """Cut weight and side weight of every nonempty S ⊆ {0, ..., n-2}.

    S is the mask Σ_{v∈S} 2^v, and masks come in ascending order: yields
    (first, cut, side), flat arrays for masks first, first + 1, ..., one
    block at a time, so a scan can stop early and memory stays bounded. The
    first block holds about FIRST_MASK_BLOCK masks and each later one four
    times as many as the one before, up to MASK_BLOCK: a scan that stops at
    an early mask scores few masks past it. cut sums edge_w over the
    crossing edges and side sums vertex_w over S. stacked_cut_blocks scores
    a stack of graphs at once.
    """
    for first, cut, side in stacked_cut_blocks(g.adjacency_matrix(edge_w)[None], vertex_w[None]):
        yield first, cut[0], side[0]


def stacked_cut_blocks(a: np.ndarray, vertex_w: np.ndarray):
    """subset_cut_blocks for a stack of graphs on n vertices each: a holds
    their (B, n, n) adjacency matrices with the edge weights, vertex_w their
    (B, n) vertex weights, and cut and side are (B, count) arrays. Sending a
    bool mask over the stack of the last block keeps only those graphs for
    the next blocks. A block's masks per graph follow subset_cut_blocks'
    schedule, but the whole block holds at most about MASK_BLOCK of them
    (and at least one row of the high bits per graph).

    Meet in the middle: split the mask into its low L bits and its high bits.
    With A the adjacency matrix and x = x_hi + x_lo the indicator of S,
    cut(S) = x^T L x = cut(S_hi) + cut(S_lo) - 2 x_hi^T A x_lo, so one block
    of masks is a half table of the low bits, the rows of the high bits in
    the block and one product of bit matrices. The products are summed in
    another order than edge by edge: integer weights give exact counts,
    other weights carry rounding errors of order n ulps of the total degree.
    """
    k = a.shape[1] - 1
    n_lo = k // 2
    lo, hi = slice(0, n_lo), slice(n_lo, k)
    b_lo, b_hi = _bit_rows(n_lo), _bit_rows(k - n_lo)

    def half(bits, part):
        # cut and side of the subsets of part given by the rows of bits
        inside = np.einsum("brj,rj->br", bits @ a[:, part, part], bits)
        return deg[:, part] @ bits.T - inside, vertex_w[:, part] @ bits.T

    deg = a.sum(axis=2)
    cut_lo, side_lo = half(b_lo, lo)
    r0, size = 0, FIRST_MASK_BLOCK
    while r0 < b_hi.shape[0]:
        rows = max(1, min(size, MASK_BLOCK // a.shape[0]) >> n_lo)
        bits = b_hi[r0 : r0 + rows]
        cut_hi, side_hi = half(bits, hi)
        cut = cut_hi[:, :, None] + cut_lo[:, None, :] - 2.0 * ((bits @ a[:, hi, lo]) @ b_lo.T)
        side = side_hi[:, :, None] + side_lo[:, None, :]
        # row-major order is ascending mask order; mask 0 is the empty set
        skip = 1 if r0 == 0 else 0
        shape = (a.shape[0], -1)
        keep = yield (r0 << n_lo) + skip, cut.reshape(shape)[:, skip:], side.reshape(shape)[:, skip:]
        if keep is not None:
            a, vertex_w, deg, cut_lo, side_lo = a[keep], vertex_w[keep], deg[keep], cut_lo[keep], side_lo[keep]
        r0, size = r0 + bits.shape[0], size * 4


def ratio_weights(g: WeightedGraph, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Edge and vertex weights of the sparse-cut ratio
    w(∂S) / min(μ(S), μ(S̄)) in mode: ones for "edge_expansion" (edges and
    vertices counted), edge weights and weighted degrees for "conductance"."""
    if mode == "conductance":
        return g.edge_w, weighted_degrees(g.n, g.edge_u, g.edge_v, g.edge_w)
    return np.ones(g.m), np.ones(g.n)


def cut_ratio(cut, side, total):
    """cut / min(side, total - side), elementwise; inf where that minimum is 0."""
    denom = np.minimum(side, total - side)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, cut / denom, np.inf)


def _least_ratio(g: WeightedGraph, mode: str) -> float:
    """Least ratio over every cut of g, by exhaustive enumeration."""
    if g.n == 0 or g.n > EXHAUSTIVE_VERTEX_CAP:
        raise TooLargeError("instance too large for exhaustive oracle")
    ew, vw = ratio_weights(g, mode)
    total = vw.sum()
    return min(float(cut_ratio(cut, side, total).min()) for _, cut, side in subset_cut_blocks(g, ew, vw))


def cheeger_exact(g: WeightedGraph) -> float:
    """Cheeger's constant min_S w(∂S) / min(vol S, vol S̄) by exhaustive
    enumeration; capped at n <= 24."""
    if g.n <= EXHAUSTIVE_VERTEX_CAP and not is_connected(g):
        raise QuadsketchError("cheeger_exact requires a connected graph")
    if g.n == 1:
        raise QuadsketchError("cheeger_exact undefined for a single vertex")
    return _least_ratio(g, "conductance")


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v w" (0-indexed).


def parse_graph(text: str) -> WeightedGraph:
    lines = text.splitlines()
    idx = 0

    def next_line():
        nonlocal idx
        while idx < len(lines):
            raw = lines[idx]
            idx += 1
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                return idx, stripped
        return None

    first = next_line()
    if first is None:
        raise GraphFormatError(1, "empty graph file")
    lineno, header = first
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(lineno, "expected header 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(lineno, "header entries must be integers") from None
    if n < 0 or m < 0:
        raise GraphFormatError(lineno, "n and m must be non-negative")
    edges = []
    for _ in range(m):
        row = next_line()
        if row is None:
            raise GraphFormatError(len(lines), f"expected {m} edges, found {len(edges)}")
        lineno, body = row
        parts = body.split()
        if len(parts) != 3:
            raise GraphFormatError(lineno, "expected 'u v w'")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise GraphFormatError(lineno, "bad edge entry") from None
        if not 0 <= u < n or not 0 <= v < n:
            raise GraphFormatError(lineno, f"vertex id out of range [0, {n})")
        if u == v:
            raise GraphFormatError(lineno, "self-loops are rejected")
        if not (w > 0 and math.isfinite(w)):
            raise GraphFormatError(lineno, "edge weight must be positive and finite")
        edges.append((u, v, w))
    g = WeightedGraph(n, edges)
    try:
        check_total_weight(g)
    except QuadsketchError as exc:
        raise GraphFormatError(first[0], str(exc)) from None
    return g


def format_graph(g: WeightedGraph) -> str:
    out = [f"{g.n} {g.m}"]
    for u, v, w in g.edges():
        out.append(f"{u} {v} {w!r}")
    return "\n".join(out) + "\n"


def load_graph(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as f:
        return parse_graph(f.read())


def save_graph(g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_graph(g))
