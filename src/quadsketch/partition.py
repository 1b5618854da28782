"""Recursive sparse-cut partitioning and edge-direction machinery.

Shared by the cut and spectral sketches:

* ``find_sparse_cuts``: one ratio w(∂S) / min(μ(S), μ(S̄)) for both modes
  (edge expansion: unit edge and vertex weights; conductance: edge weights
  and weighted degrees; ``graph.ratio_weights`` and ``graph.cut_ratio``,
  which the exhaustive oracles of ``graph`` share), searched for a batch of
  connected pieces of one size at once by a singleton test, a Cheeger-type
  λ₁/2 certificate, exact subset enumeration up to 20 vertices (λ₁ alone
  from ``eigvalsh``) and sweeps above. A piece above 64 vertices first
  sweeps along a vector of a few power-iteration steps, which needs no
  eigensolve; where that sweep finds no qualifying cut, and on every piece
  of 21 to 64 vertices, λ₁ and the sign-fixed Fiedler vector of
  ``fiedler_pair`` certify that no cut qualifies or give the Fiedler sweep,
  so every "no cut" answer comes from the dense eigensolve.
  ``find_sparse_cut`` is its batch of one;
* ``cut_preprocessing``: rescale / discard / importance-sample / weight-class
  split / expansion partition, producing expander pieces plus stored cut
  edges Q;
* ``spectral_preprocessing``: conductance partition at threshold h;
* ``assign_direction``: the out-degree balancing fixpoint;
* ``degree_class_partition``: the recursive out-degree-band partition that
  feeds the improved spectral sketch.

An orientation of a graph's edges is a bool mask over its edges: flip[e]
means the arc runs edge_v[e] -> edge_u[e], otherwise edge_u[e] -> edge_v[e].
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import QuadsketchError
from .graph import (
    WeightedGraph,
    connected_components,
    cut_ratio,
    label_components,
    ratio_weights,
    stacked_cut_blocks,
    weighted_degrees,
)
from .oracle import mask_members
from .rng import derive_seed, rng_for
from .sparsify import SparsifierConfig, factor2_class, sparsify

EXHAUSTIVE_CUT_CAP = 20


# ---------------------------------------------------------------------------
# Sparse cut finding


@dataclass
class SparseCutResult:
    members: np.ndarray | None  # bool mask, smaller side, or None if not found
    certified: bool  # True when absence/presence was decided exactly


def _qualifies(value, mode: str, threshold: float):
    """Elementwise on arrays."""
    return value < threshold if mode == "edge_expansion" else value <= threshold


def _reject_nan(name: str, value: float) -> None:
    # every comparison with NaN is False, so range checks alone let it through
    if math.isnan(value):
        raise QuadsketchError(f"{name} is NaN")


def _check_search(mode: str, threshold: float) -> None:
    if mode not in ("edge_expansion", "conductance"):
        raise ValueError(f"unknown mode {mode!r}")
    _reject_nan("threshold", threshold)


def find_sparse_cut(g: WeightedGraph, mode: str, threshold: float) -> SparseCutResult:
    """Search for a cut below the threshold (smaller side returned).

    Both modes score the ratio w(∂S) / min(μ(S), μ(S̄)):
    edge_expansion counts edges and vertices and qualifies below the
    threshold (|∂(S, S̄)| / |S| < threshold); conductance sums edge weights
    and weighted degrees and qualifies at or below it (Φ(S) <= threshold).

    A graph of fewer than 2 vertices has no cut and a disconnected g
    returns its smallest component; a connected g is searched as the batch
    of one of find_sparse_cuts. A NaN threshold raises QuadsketchError.
    """
    _check_search(mode, threshold)
    if g.n < 2:
        return SparseCutResult(None, True)
    labels = connected_components(g)
    if labels.max() > 0:
        # a disconnected input has a zero cut: return the smallest piece
        return SparseCutResult(_smallest_components(labels, np.zeros(g.n, dtype=np.int64)), True)
    return find_sparse_cuts([g], mode, threshold)[0]


def find_sparse_cuts(pieces: list[WeightedGraph], mode: str, threshold: float) -> list[SparseCutResult]:
    """find_sparse_cut of each of a batch of connected graphs that share one
    vertex count n >= 2, in batch order.

    Each piece is searched on its own terms, deterministically: singletons
    are tried in vertex order; then lambda_1/2 of the mode's matrix
    certifies that no cut qualifies, or subsets are tried in a fixed
    canonical enumeration (up to EXHAUSTIVE_CUT_CAP vertices, lambda_1 from
    eigvalsh), or, one larger piece at a time, the best prefix of a sweep
    is taken when its exact ratio qualifies (_sweep_cut): a piece above
    POWER_SWEEP_MIN vertices first sweeps along a power-iteration vector,
    with no eigensolve; where that finds nothing, and on every piece up to
    POWER_SWEEP_MIN, lambda_1 and the sign-fixed vector from fiedler_pair
    certify that no cut qualifies or give the Fiedler sweep, and a piece
    where neither sweep qualifies is returned uncertified (heuristic). The
    batch shares the work with the bits of one piece at a time: one
    singleton test over the union of the pieces' edges, then, up to the
    cap, one eigvalsh over the stack of the certificate matrices of the
    pieces with no qualifying singleton and one exhaustive scan of the
    pieces that the certificate does not clear. A NaN threshold raises
    QuadsketchError.
    """
    _check_search(mode, threshold)
    if not pieces:
        return []
    b, n = len(pieces), pieces[0].n
    if any(g.n != n for g in pieces):
        raise ValueError("a batch holds pieces of one vertex count")
    # the union of the pieces, piece i on vertices i*n .. i*n + n-1: its
    # edges are canonical, and each vertex sums its degree over its own
    # piece's edges in their order, so every weight has the piece's bits
    m = np.array([g.m for g in pieces])
    at = np.repeat(np.arange(b), m)
    whole = WeightedGraph._canonical(
        b * n,
        np.concatenate([g.edge_u for g in pieces]) + at * n,
        np.concatenate([g.edge_v for g in pieces]) + at * n,
        np.concatenate([g.edge_w for g in pieces]),
        np.repeat(np.arange(b), n),
    )
    # edge weights ew and vertex weights vw of the ratio, and the degrees
    # under ew (equal to vw for conductance)
    ew, vw = ratio_weights(whole, mode)
    deg = weighted_degrees(b * n, whole.edge_u, whole.edge_v, ew).reshape(b, n)
    vw = vw.reshape(b, n)
    total = vw.sum(axis=1)

    # cheap qualifying singleton, in vertex order
    results = [SparseCutResult(None, True) for _ in pieces]
    hit = _qualifies(cut_ratio(deg, vw, total[:, None]), mode, threshold)
    single = hit.any(axis=1)
    for i in np.flatnonzero(single).tolist():
        members = np.zeros(n, dtype=bool)
        members[hit[i].argmax()] = True
        results[i] = SparseCutResult(members, True)
    rest = np.flatnonzero(~single)
    if n == 2:
        # a single edge has one cut, the singleton just tested
        return results
    if n > EXHAUSTIVE_CUT_CAP:
        ends = np.cumsum(m).tolist()
        for i in rest.tolist():
            e = slice(ends[i] - m[i], ends[i])
            results[i] = _sweep_cut(pieces[i], ew[e], vw[i], deg[i], total[i], mode, threshold)
        return results

    # each piece's edges, padded to the longest piece with zero-weight
    # loops at vertex 0, which cross no cut and add +0.0 to every sum
    pos = np.arange(at.size) - np.repeat(np.cumsum(m) - m, m)
    eu, ev = np.zeros((2, b, m.max()), dtype=np.int64)
    w = np.zeros((b, m.max()))
    eu[at, pos] = whole.edge_u - at * n
    ev[at, pos] = whole.edge_v - at * n
    w[at, pos] = ew
    eu, ev, w, vw = eu[rest], ev[rest], w[rest], vw[rest]
    # the exact scan reads lambda_1 alone
    lam1 = np.linalg.eigvalsh(_certificate_matrices(eu, ev, w, deg[rest], vw))[:, 1]
    scan = np.flatnonzero(_qualifies(lam1 / 2.0, mode, threshold))
    found = _exhaustive_cuts(eu[scan], ev[scan], w[scan], vw[scan], mode, threshold)
    for i, members in zip(rest[scan].tolist(), found):
        results[i] = SparseCutResult(members, True)
    return results


def _certificate_matrices(eu, ev, w, deg, vw) -> np.ndarray:
    """The (B, n, n) stack of diag(deg / vw) - V^-1/2 A V^-1/2 of B graphs
    on n vertices with (B, M) edges eu, ev, w (zero-weight loops allowed)
    and (B, n) degrees deg and vertex weights vw; each matrix is in Fortran
    order, as LAPACK reads it, so fiedler_pair does not copy it.

    Every cut ratio is at least lambda_1/2 of this matrix, which is D - A
    for edge_expansion and the normalized Laplacian I - D^-1/2 A D^-1/2 for
    conductance (deg / vw is exactly 1.0 when vw = deg). It is filled from
    the edges with the bits of the dense expression: an edge's entry is
    0.0 - (vw_u^-1/2 w) vw_v^-1/2, any other entry off the diagonal 0.0 - 0.0,
    and each diagonal entry deg / vw - 0.0.
    """
    b, n = vw.shape
    inv_sqrt = 1.0 / np.sqrt(vw)
    ids = np.arange(b)[:, None]
    mat = np.zeros((b, n, n)).swapaxes(1, 2)
    mat[ids, eu, ev] = np.subtract(0.0, (inv_sqrt[ids, eu] * w) * inv_sqrt[ids, ev])
    mat[ids, ev, eu] = np.subtract(0.0, (inv_sqrt[ids, ev] * w) * inv_sqrt[ids, eu])
    mat[:, np.arange(n), np.arange(n)] = deg / vw
    return mat


def _sweep_cut(g, ew, vw, deg, total, mode, threshold) -> SparseCutResult:
    """Search of a connected g of more than EXHAUSTIVE_CUT_CAP vertices with
    no qualifying singleton: the smaller side of the best prefix of a sweep
    whose exact ratio qualifies, certified, or no cut.

    A g above POWER_SWEEP_MIN vertices first sweeps along _power_vector,
    which costs no eigensolve; a qualifying prefix there is the answer. Any
    other g takes lambda_1 and the Fiedler vector from fiedler_pair: no cut,
    certified, when lambda_1/2 does not qualify, else the Fiedler sweep's
    best prefix if it qualifies, and otherwise no cut, uncertified. So
    every answer without a cut comes from the dense eigensolve.
    """
    if g.n > POWER_SWEEP_MIN:
        members = _best_prefix(g, ew, vw, total, _power_vector(g, ew, vw, deg), mode, threshold)
        if members is not None:
            return SparseCutResult(members, True)
    lam1, fiedler = fiedler_pair(_certificate_matrices(g.edge_u[None], g.edge_v[None], ew[None], deg[None], vw[None])[0])
    if not _qualifies(lam1 / 2.0, mode, threshold):
        return SparseCutResult(None, True)
    members = _best_prefix(g, ew, vw, total, fiedler, mode, threshold)
    return SparseCutResult(members, members is not None)


def _best_prefix(g, ew, vw, total, vec, mode, threshold) -> np.ndarray | None:
    """The smaller side of the best prefix of g's vertices sorted by vec
    scaled by vw^-1/2 (ties in vertex order), if its exact ratio qualifies,
    else None."""
    n = g.n
    order = np.lexsort((np.arange(n), vec * (1.0 / np.sqrt(vw))))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    pu, pv = pos[g.edge_u], pos[g.edge_v]
    # an edge crosses the prefix of length k iff min(pu, pv) < k <= max(pu, pv)
    diff = np.zeros(n + 1)
    np.add.at(diff, np.minimum(pu, pv) + 1, ew)
    np.add.at(diff, np.maximum(pu, pv) + 1, -ew)
    prefix = cut_ratio(np.cumsum(diff)[1:n], np.cumsum(vw[order])[: n - 1], total)
    best = int(np.argmin(prefix))
    if not _qualifies(float(prefix[best]), mode, threshold):
        return None
    members = np.zeros(n, dtype=bool)
    members[order[: best + 1]] = True
    return _smaller_side(members)


# pieces above POWER_SWEEP_MIN vertices sweep _power_vector first; near
# that size, on pieces of average degree 20, fiedler_pair and the
# POWER_STEPS steps plus their sweep each take about 0.15-0.2 ms
POWER_SWEEP_MIN = 64
POWER_STEPS = 20


def _power_vector(g, ew, vw, deg) -> np.ndarray:
    """POWER_STEPS steps of the power iteration on B = c I - M, where M is
    the certificate matrix of g (as _certificate_matrices builds it) and
    c = 2 max(deg / vw) bounds M's spectrum, so B is positive semidefinite.
    M's null vector vw^1/2 (all ones for edge_expansion) is projected out
    of the start vector, so the iterate turns toward the eigenvectors of
    M's smallest nontrivial eigenvalues: its Rayleigh quotient is low, and
    a Cheeger sweep along it finds the sparse cuts of most pieces without
    an eigensolve.

    The projection runs once: rounding feeds the null direction a few ulps
    per step, which grow at most c / (c - lambda_1) times faster than the
    Fiedler direction, so at most twice as fast on any piece with a cut of
    ratio up to max(deg / vw) / 2 (Cheeger: lambda_1 / 2 is at most that
    ratio), and a null component only shifts every sweep key x / vw^1/2 by
    the same amount. The iterate grows by at most c per step and is not
    normalized.

    The start vector is fixed (the fractional parts of i times the golden
    ratio, centred) and nothing is drawn at random. Each step is one
    product with B in coordinate form (both arcs of every edge, then the
    diagonal), which scipy sums entry by entry in that order, and the
    projection's sums are numpy's pairwise sums, so the bits depend on
    neither BLAS nor its thread count.
    """
    # imported here, like scipy.linalg in fiedler_pair: only builds need it
    from scipy.sparse import coo_array

    n = g.n
    root = np.sqrt(vw)
    inv_sqrt = 1.0 / root
    diag = deg / vw
    rows = np.concatenate([g.edge_u, g.edge_v, np.arange(n)])
    cols = np.concatenate([g.edge_v, g.edge_u, np.arange(n)])
    off = inv_sqrt[g.edge_u] * ew * inv_sqrt[g.edge_v]
    b = coo_array((np.concatenate([off, off, 2.0 * diag.max() - diag]), (rows, cols)), shape=(n, n))
    x = np.modf(np.arange(n) * ((1.0 + math.sqrt(5.0)) / 2.0))[0] - 0.5
    x -= (x * root).sum() * (root / (root * root).sum())
    for _ in range(POWER_STEPS):
        x = b @ x
    return x


def fiedler_pair(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """The second-smallest eigenvalue lambda_1 of the symmetric matrix mat
    and its unit eigenvector; mat's contents may be overwritten, and a
    Fortran-ordered mat is not copied.

    LAPACK's MRRR driver computes the two smallest eigenpairs only. The
    vector's sign is fixed: its first entry of largest magnitude is
    positive, so v and -v give the same bits and the sweep does not depend
    on the sign LAPACK returns.
    """
    # imported here, like scipy.linalg.lapack in sparsify: only builds need it
    from scipy.linalg import eigh

    vals, vecs = eigh(mat, subset_by_index=[0, 1], driver="evr", check_finite=False, overwrite_a=True)
    vec = vecs[:, 1]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return float(vals[1]), vec


CONFIRM_BATCH = 256  # most filtered masks re-scored at once


def _exhaustive_cuts(eu, ev, ew, vw, mode, threshold) -> list[np.ndarray | None]:
    """First qualifying subset of each of a stack of B graphs on n vertices,
    in mask-ascending order over bits 0..n-2, or None where none qualifies:
    eu, ev and ew are their (B, M) edges with the ratio's edge weights
    (zero-weight loops allowed), vw their (B, n) vertex weights.

    Every mask is scored by the meet-in-the-middle product of
    stacked_cut_blocks, which sums in another order than edge by edge, so
    its scores only filter: widened by an absolute slack of 1e-9 of the
    total vertex weight (far above the product's rounding error), every
    mask that qualifies passes. The passing masks of each graph, in
    ascending order, are re-scored with the crossing weights summed in edge
    order and the side weight in bit order, which decides exactly as a
    sequential scan of all masks would, whatever the block sizes. (Unit
    weights give exact integer sums in either order.) A graph leaves the
    scan at its first qualifying mask.
    """
    b, n = vw.shape
    found: list[np.ndarray | None] = [None] * b
    total = vw.sum(axis=1)
    slack = 1e-9 * total
    a = np.zeros((b, n, n))
    stack = np.arange(b)[:, None]
    a[stack, eu, ev] = ew
    a[stack, ev, eu] = ew
    active = np.arange(b)  # the graphs still scanned, in stack order
    blocks = stacked_cut_blocks(a, vw)
    keep = None
    while active.size:
        try:
            first, cut, side = blocks.send(keep)
        except StopIteration:
            break
        t, s = total[active, None], slack[active, None]
        row, cand = np.nonzero(cut - s <= threshold * (np.minimum(side, t - side) + s))
        done = np.zeros(active.size, dtype=bool)
        # candidates come grouped by row, ascending: rank them within it
        rank = np.arange(row.size) - np.searchsorted(row, row)
        # the first candidate of a row mostly qualifies: re-score 1, then
        # 4, 16, ... candidates per row, and at most about CONFIRM_BATCH in all
        c0, per = 0, 1
        while True:
            sel = np.flatnonzero((rank >= c0) & (rank < c0 + per) & ~done[row])
            if not sel.size:
                break
            r, of = row[sel], active[row[sel]]
            bits = mask_members(first + cand[sel], n)
            each = np.arange(sel.size)[:, None]
            crossing = bits[each, eu[of]] != bits[each, ev[of]]
            cut_e = np.cumsum(np.where(crossing, ew[of], 0.0), axis=1)[:, -1]
            side_b = np.cumsum(bits[:, :-1] * vw[of, :-1], axis=1)[:, -1]
            ok = _qualifies(cut_ratio(cut_e, side_b, total[of]), mode, threshold)
            # the first qualifying candidate of each row
            for k, j in zip(np.flatnonzero(ok).tolist(), r[ok].tolist()):
                if not done[j]:
                    found[active[j]] = _smaller_side(bits[k])
                    done[j] = True
            c0, per = c0 + per, max(1, min(4 * per, CONFIRM_BATCH // active.size))
        keep = ~done
        active = active[keep]
    return found


def _smallest_components(labels: np.ndarray, piece: np.ndarray) -> np.ndarray:
    """Mask of the vertices in the smallest component of their piece, the
    first in label order among equals: labels[i] and piece[i] are the
    component label and the piece of vertex i, and no component spans two
    pieces."""
    size = np.bincount(labels)
    key = size[labels] * size.size + labels
    best = np.full(piece.max(initial=-1) + 1, np.iinfo(np.int64).max)
    np.minimum.at(best, piece, key)
    return key == best[piece]


def _smaller_side(members: np.ndarray) -> np.ndarray:
    return ~members if members.sum() > members.size // 2 else members


# ---------------------------------------------------------------------------
# Partition results


@dataclass
class Component:
    graph: WeightedGraph
    vmap: np.ndarray  # component vertex id -> parent vertex id
    edge_idx: np.ndarray  # component edge id -> parent edge id
    certified: bool = True


@dataclass
class PartitionResult:
    components: list[Component]
    cross_u: np.ndarray
    cross_v: np.ndarray
    cross_w: np.ndarray
    cross_idx: np.ndarray  # parent edge indices of the cross edges

    @property
    def cross_count(self) -> int:
        return int(self.cross_u.size)


def _core_members(g: WeightedGraph, eidx: np.ndarray, threshold: float) -> np.ndarray:
    """Vertex mask of the threshold core of the edges eidx of g: drop every
    vertex of degree < threshold, repeat. An edge survives the peel iff both
    its ends are in the core.

    Each round recounts degrees from the dropped edges only and scans only
    the edges still alive.
    """
    u, v = g.edge_u[eidx], g.edge_v[eidx]
    deg = np.bincount(u, minlength=g.n) + np.bincount(v, minlength=g.n)
    low = deg < threshold
    while True:
        drop = low[u] | low[v]
        if not drop.any():
            return ~low
        deg -= np.bincount(u[drop], minlength=g.n) + np.bincount(v[drop], minlength=g.n)
        low = deg < threshold
        u, v = u[~drop], v[~drop]


def _partition_by_cuts(g: WeightedGraph, mode: str, threshold: float, eid: np.ndarray | None = None) -> PartitionResult:
    """Recursively split the graph of g's edges eid (ascending edge ids; all
    of g's edges by default) on g's vertices along qualifying cuts; pieces
    keep g's vertex and edge ids and weights.

    Pieces are split one generation at a time. A generation is three
    arrays: piece[v], the rank of vertex v's piece (-1 once v is in no
    piece), wait[p], the generations that piece p still waits, and the
    generation's edge ids, ascending. The first generation is the connected
    components that have edges, in label order. Each piece of a generation
    is split, and each side with edges joins the next generation, in order:
    the same order as a FIFO queue of pieces that calls find_sparse_cut once
    per popped piece. Which piece finishes when matters, because later
    stages seed per-piece streams in finish order.

    The pieces are vertex-disjoint, so one label_components call over the
    edges of the ready pieces (not waiting, and not peeled) labels all of
    them. A disconnected piece splits off its smallest component, the first
    in label order among equals, as find_sparse_cut would, with no search.
    The connected pieces are searched together, all those of one size in
    one find_sparse_cuts batch, each as a graph built from its edges
    without re-canonicalization (the edges of a canonical graph, taken in
    ascending order and relabelled monotonically, are canonical). A piece
    whose search finds no cut becomes a Component, in rank order. One rule
    then splits every other piece: with key = 2 piece + side, where side 0
    is the side split off (all of a waiting or peeled piece), an edge is
    inner iff both its ends stay and share a key, and the piece's other
    edges are cut edges, stored in Q. The keys that keep an inner edge
    become the next generation, in key order: the queue's order.

    In edge_expansion mode a vertex of degree < threshold is a qualifying
    singleton cut, so every generation is first peeled to its threshold core
    in one vectorized pass over its edges. Only the core of a piece that
    loses vertices stays, so its peeled edges go to Q and its core, if any,
    to the next generation. The k-core does not depend on the order in which
    vertices are removed (Batagelj-Zaversnik 2003), so this gives the same
    pieces and Q as splitting off one singleton per find_sparse_cut call;
    only the order in which pieces finish can differ. The first generation
    is peeled before anything is labelled or built: when its core is empty,
    the edges dissolve, every one returned as Q. (A core of vertices of
    degree >= k = ceil(threshold) >= 1 holds at least k (k + 1) / 2 edges,
    so fewer edges dissolve without the peel.)

    In conductance mode a threshold h >= 1 dissolves the edges with no
    search: every piece with an edge has a vertex of degree at most half its
    volume, whose singleton conductance is exactly 1 <= h, so every piece is
    peeled to nothing. A side vertex whose edges all cross the cut has no
    inner edge. A search would split off one such stranded vertex per call
    and send the rest of the piece to the next generation, so a key drops
    its vertices with no inner edge at once and waits one generation for
    each before it is split. (The expansion peel drops them instead: their
    degree is 0.)
    """
    every = np.arange(g.m) if eid is None else eid
    core = None
    if mode == "edge_expansion":
        # a nonempty core holds k + 1 vertices of degree >= k = ceil(threshold),
        # so k >= 1 needs k (k + 1) / 2 edges: with fewer, skip the peel
        k = float(np.ceil(threshold))
        few = k > 0 and every.size < k * (k + 1) / 2
        core = np.zeros(g.n, dtype=bool) if few else _core_members(g, every, threshold)
        dissolved = not core.any()
    else:
        dissolved = threshold >= 1.0
    if dissolved:
        return PartitionResult([], g.edge_u[every], g.edge_v[every], g.edge_w[every], every)
    # the keys of the first generation are the input's components
    key = label_components(g.n, g.edge_u[every], g.edge_v[every])
    stay, wait, eid = np.ones(g.n, dtype=bool), np.zeros(g.n, dtype=np.int64), every
    comps: list[Component] = []
    cross = [np.empty(0, dtype=np.int64)]
    while eid.size:
        u, v = g.edge_u[eid], g.edge_v[eid]
        # the keys with an inner edge are the pieces, in key order; a vertex
        # in no piece has a negative piece and key, and what arrays indexed
        # by them read there is masked by stay or never used
        kept = np.zeros(wait.size, dtype=bool)
        kept[key[u]] = True
        if mode == "conductance":
            # a key drops its vertices with no inner edge, and waits one
            # generation for each
            member = np.zeros(g.n, dtype=bool)
            member[u] = member[v] = True
            wait += np.bincount(key[stay & kept[key] & ~member], minlength=wait.size)
        else:
            member = stay & kept[key]
        piece = np.where(member, np.cumsum(kept)[key] - 1, -1)
        wait, pe = wait[kept], piece[u]
        ready, stay = wait == 0, member
        if mode == "edge_expansion":
            core = _core_members(g, eid, threshold) if core is None else core
            # a piece that loses vertices to the peel keeps its core, on side 0
            ready[piece[stay & ~core]] = False
            stay, core = stay & core, None
        # one labelling of the ready pieces; side 1 is all but a piece's
        # smallest component, so only the connected pieces are searched
        rv = np.flatnonzero(stay & ready[piece])
        on = ready[pe]
        small = _smallest_components(label_components(g.n, u[on], v[on])[rv], piece[rv])
        side = np.zeros(g.n, dtype=bool)
        side[rv] = ~small
        search = np.flatnonzero(ready & (np.bincount(piece[rv[~small]], minlength=wait.size) == 0))
        # each piece's vertices and edges, ascending, and vertex ids within it
        vs, es = np.argsort(piece, kind="stable"), np.argsort(pe, kind="stable")
        v_at = np.searchsorted(piece[vs], np.arange(wait.size + 1))
        e_at = np.searchsorted(pe[es], np.arange(wait.size + 1))
        local = np.empty(g.n, dtype=np.int64)
        local[vs] = np.arange(g.n) - v_at[piece[vs]]
        lu, lv, lw = local[u], local[v], g.edge_w[eid]
        sizes = np.diff(v_at)[search]
        done: dict[int, Component] = {}
        for size in np.flatnonzero(np.bincount(sizes)).tolist():
            batch = search[sizes == size].tolist()
            ids = [(vs[v_at[p] : v_at[p + 1]], es[e_at[p] : e_at[p + 1]]) for p in batch]
            graphs = [WeightedGraph._canonical(size, lu[e], lv[e], lw[e], np.zeros(size, dtype=np.int64)) for _, e in ids]
            for p, (vmap, e), sub, res in zip(batch, ids, graphs, find_sparse_cuts(graphs, mode, threshold)):
                if res.members is None:
                    done[p] = Component(sub, vmap, eid[e], res.certified)
                else:
                    side[vmap] = ~res.members
        comps += [done[p] for p in sorted(done)]
        finished = np.zeros(wait.size, dtype=bool)
        finished[list(done)] = True
        stay &= ~finished[piece]
        key = 2 * piece + side
        inner = stay[u] & stay[v] & (key[u] == key[v])
        cross.append(eid[~inner & ~finished[pe]])
        eid, wait = eid[inner], np.repeat(np.maximum(wait - 1, 0), 2)
    cross_idx = np.sort(np.concatenate(cross))
    return PartitionResult(
        comps,
        g.edge_u[cross_idx],
        g.edge_v[cross_idx],
        g.edge_w[cross_idx],
        cross_idx,
    )


def spectral_preprocessing(g: WeightedGraph, h: float) -> PartitionResult:
    """Split along conductance-<=h cuts until every piece has Cheeger > h.

    Pieces of size <= 20 are certified exactly; larger ones by the spectral
    certificate or heuristic sweep failure (flagged per component). Cross
    edges Q are stored exactly; |Q| = O(h m log m) for factor-2 weights. At
    h >= 1 no piece survives (a vertex of at most half the volume is a
    conductance-1 singleton), so every edge is Q and nothing is searched.
    Pieces finish in the order of a queue that splits one piece per
    find_sparse_cut call, which fixes the per-component seeds of the
    spectral sketches. A NaN h raises QuadsketchError.
    """
    _reject_nan("threshold h", h)
    if h <= 0:
        raise ValueError("threshold h must be positive")
    return _partition_by_cuts(g, "conductance", h)


# ---------------------------------------------------------------------------
# Cut preprocessing (importance sampling + expansion partition)


def reweight(w_scaled: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The keep probability p = min(w/eps^2, 1) of each rescaled weight w,
    and w/p, the weight an edge carries once kept. The cut sketch's decoder
    recomputes its stored cut edges' weights with it, bit for bit. Where p
    underflows to 0, w/p is inf; such an edge is never kept."""
    p = np.minimum(w_scaled / epsilon**2, 1.0)
    return p, np.divide(w_scaled, p, out=np.full(p.shape, np.inf), where=p > 0)


def importance_sample(w_scaled: np.ndarray, epsilon: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Keep each edge with p = min(w/eps^2, 1); reweight kept edges by 1/p.

    Returns (kept mask, reweighted weights for kept edges).
    """
    p, w_tilde = reweight(w_scaled, epsilon)
    kept = rng.random(w_scaled.size) < p
    return kept, w_tilde[kept]


def weight_class_of(w_tilde: np.ndarray) -> np.ndarray:
    """Class index i >= 1 with w in (5 * 2^-i, 5 * 2^(1-i)]."""
    i = np.floor(np.log2(5.0 / w_tilde)).astype(np.int64) + 1
    # fix float rounding at the class boundaries
    i = np.maximum(i, 1)
    too_low = w_tilde <= 5.0 * np.exp2(-i.astype(float))
    i[too_low] += 1
    too_high = w_tilde > 5.0 * np.exp2(1.0 - i.astype(float))
    i[too_high] -= 1
    return np.maximum(i, 1)


@dataclass
class CutClass:
    index: int
    result: PartitionResult  # component graphs carry reweighted (w~) weights


@dataclass
class CutPreprocessing:
    classes: list[CutClass]
    discarded_heavy: np.ndarray  # edge indices of the input graph
    dropped_unsampled: np.ndarray


def cut_preprocessing(
    g: WeightedGraph, c: float, epsilon: float, seed: int, *, _partitions: dict | None = None
) -> CutPreprocessing:
    """Rescale by 1/c, discard w > 5, importance-sample, split into factor-2
    reweighted classes, and partition each along expansion-< 1/eps cuts.

    Every returned component has (unweighted) expansion >= 1/eps, certified
    exactly for pieces of <= 20 vertices. A NaN c or epsilon raises
    QuadsketchError, a c that is not positive and finite ValueError (at an
    infinite c every keep probability would be 0).

    A class is partitioned as a set of g's edge ids, with no subgraph of its
    own. A class whose 1/eps-core is empty dissolves: all its edges are cut
    edges, and nothing is labelled, built or searched. The expansion
    partition counts edges and ignores weights, so calls on the same g may
    share one _partitions dict, keyed by class edge set: a class met before
    is not partitioned again, and its components are the memo's graphs
    re-weighted (WeightedGraph.with_weights), which share their adjacency
    across the calls. The result is the same either way.
    """
    _reject_nan("scale c", c)
    _reject_nan("epsilon", epsilon)
    if not 0 < c < math.inf:
        raise ValueError("scale c must be positive and finite")
    if epsilon < 1.0 / max(g.n, 2) or epsilon >= 1.0:
        # caller should fall back to storing the component verbatim
        raise QuadsketchError(
            "epsilon outside the sketchable range; store the graph exactly instead"
        )
    w_scaled = g.edge_w / c
    heavy = w_scaled > 5.0
    light_idx = np.flatnonzero(~heavy)
    rng = rng_for(seed, "cut-preprocess")
    kept_mask, w_tilde = importance_sample(w_scaled[light_idx], epsilon, rng)
    kept_idx = light_idx[kept_mask]
    dropped_idx = light_idx[~kept_mask]
    classes: list[CutClass] = []
    if kept_idx.size:
        cls = weight_class_of(w_tilde)
        w_of = np.zeros(g.m)  # reweighted value by input edge id
        w_of[kept_idx] = w_tilde
        # the class ids are small positive ints: bincount lists them in order
        for i in np.flatnonzero(np.bincount(cls)).tolist():
            eidx = kept_idx[cls == i]
            key = (eidx.tobytes(), 1.0 / epsilon)
            part = None if _partitions is None else _partitions.get(key)
            if part is None:
                part = _partition_by_cuts(g, "edge_expansion", 1.0 / epsilon, eidx)
                if _partitions is not None:
                    _partitions[key] = part
            comps = [
                Component(cp.graph.with_weights(w_of[cp.edge_idx]), cp.vmap, cp.edge_idx, cp.certified)
                for cp in part.components
            ]
            part = PartitionResult(comps, part.cross_u, part.cross_v, w_of[part.cross_idx], part.cross_idx)
            classes.append(CutClass(i, part))
    return CutPreprocessing(classes, np.flatnonzero(heavy), dropped_idx)


# ---------------------------------------------------------------------------
# Buddy orientation


def assign_direction(g: WeightedGraph, t: float, *, check_potential: bool = False) -> np.ndarray:
    """Orientation mask of g's edges: starting from edge_u -> edge_v, flip
    arcs (u, v) with outdeg(u) >= t and outdeg(v) < t-1 to a fixpoint.

    Postcondition: every arc satisfies outdeg(tail) < t or outdeg(head) >= t-1.
    The potential over violating arcs drops by at least 2 per flip, which is
    asserted when check_potential is set.
    """
    if t <= 1:
        raise ValueError("t must exceed 1")
    # the fixpoint touches one arc at a time: Python lists index faster
    # than numpy arrays do
    tail = g.edge_u.tolist()
    head = g.edge_v.tolist()
    m = g.m
    out = np.bincount(g.edge_u, minlength=g.n).tolist()
    arcs_at: list[list[int]] = [[] for _ in range(g.n)]
    for e, (a, b) in enumerate(zip(tail, head)):
        arcs_at[a].append(e)
        arcs_at[b].append(e)

    def potential() -> int:
        o, tl, hd = np.array(out), np.array(tail), np.array(head)
        viol = (o[tl] >= t) & (o[hd] < t - 1)
        return int(np.sum(o[tl[viol]] - o[hd[viol]]))

    queue = deque(range(m))
    in_queue = [True] * m
    while queue:
        e = queue.popleft()
        in_queue[e] = False
        a, b = tail[e], head[e]
        if out[a] >= t and out[b] < t - 1:
            before = potential() if check_potential else 0
            tail[e], head[e] = b, a
            out[a] -= 1
            out[b] += 1
            if check_potential:
                after = potential()
                assert after <= before - 2, f"potential fell only {before - after}"
            for x in (a, b):
                for e2 in arcs_at[x]:
                    if not in_queue[e2]:
                        in_queue[e2] = True
                        queue.append(e2)
    return np.array(tail) != g.edge_u


def arc_ends(g: WeightedGraph, flip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of g's edges under the orientation mask flip."""
    return np.where(flip, g.edge_v, g.edge_u), np.where(flip, g.edge_u, g.edge_v)


# ---------------------------------------------------------------------------
# Degree-class partition (improved spectral pipeline)


@dataclass
class DegreeClass:
    piece: WeightedGraph
    flip: np.ndarray  # orientation mask of the piece's edges
    vmap: np.ndarray  # piece vertex -> original vertex id
    kind: str  # "verbatim" | "low" | "band"
    band: int | None = None  # kappa for band classes
    weight_class: int | None = None
    depth: int = 0


@dataclass
class LevelInfo:
    depth: int
    n: int
    m_sparsified: int
    eta: float
    s: float
    m_leftover: int = 0  # arcs deferred to the next recursion level


@dataclass
class DegreeClassPartition:
    classes: list[DegreeClass]
    recursion_depth: int
    levels: list[LevelInfo]


def degree_class_partition(
    g: WeightedGraph,
    epsilon: float,
    seed: int,
    *,
    c_beta: float = 1.0,
) -> DegreeClassPartition:
    """Partition into out-degree-band oriented pieces plus low/verbatim rest.

    Implements: sparsify; eta measured from the sparsifier (clamped >= 1);
    assign directions at 2s; split arcs into factor-2 weight classes; within
    each, peel the low class (tail out-degree < beta) and bands
    [2^i beta, 2^{i+1} beta), the factor-2 classes of the tail degree over
    beta; recurse on the remaining heavy arcs.

    Bands are emitted while 2^i beta <= 2s, so every arc with tail degree
    below 2s is classified and the recursion shrinks the vertex support by
    the guaranteed factor (depth <= ceil(log_{2-1/s} n) + 1).
    """
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must be in (0, 1/2)")
    beta = c_beta * epsilon ** (-8.0 / 5.0)
    classes: list[DegreeClass] = []
    levels: list[LevelInfo] = []

    def recurse(gl: WeightedGraph, vmap: np.ndarray, depth: int):
        if gl.n < 3:
            if gl.n > 0:
                classes.append(DegreeClass(gl, np.zeros(gl.m, dtype=bool), vmap, "verbatim", depth=depth))
            return depth
        g2 = sparsify(
            gl,
            SparsifierConfig(epsilon, "spectral", derive_seed(seed, "sparsify", depth)),
        )
        eta = max(1.0, g2.m * epsilon**2 / gl.n)
        s = eta / epsilon**2  # = 1 / eps_tilde^2 with eps_tilde = eps / sqrt(eta)
        levels.append(LevelInfo(depth, gl.n, g2.m, eta, s))
        if g2.m == 0:
            return depth
        flip = assign_direction(g2, 2.0 * s)
        tails = arc_ends(g2, flip)[0]
        wcls = factor2_class(g2.edge_w, g2.edge_w.min())
        top_band = factor2_class(2.0 * s, beta)
        leftover: list[np.ndarray] = []

        def emit(ids, kind, band, j):
            piece, pmap = g2.edge_subgraph(ids)
            classes.append(DegreeClass(piece, flip[ids], vmap[pmap], kind, band, j, depth))

        for j in np.flatnonzero(np.bincount(wcls)).tolist():
            arc_ids = np.flatnonzero(wcls == j)
            t = tails[arc_ids]
            band = factor2_class(np.bincount(t, minlength=g2.n)[t], beta)
            low = arc_ids[band < 0]
            if low.size:
                emit(low, "low", None, j)
            for i in np.flatnonzero(np.bincount(band[(band >= 0) & (band <= top_band)])).tolist():
                emit(arc_ids[band == i], "band", i, j)
            rest = arc_ids[band > max(top_band, -1)]  # low arcs (band < 0) are emitted
            if rest.size:
                leftover.append(rest)
        if not leftover:
            return depth
        rest_ids = np.concatenate(leftover)
        levels[-1].m_leftover = int(rest_ids.size)
        sub, pmap = g2.edge_subgraph(rest_ids)
        return recurse(sub, vmap[pmap], depth + 1)

    max_depth = recurse(g, np.arange(g.n, dtype=np.int64), 0)
    return DegreeClassPartition(classes, max_depth + 1, levels)
