import math
from collections import deque
from unittest import mock

import numpy as np
import pytest

from quadsketch import cutsketch
from quadsketch.cutsketch import CutSketchGeneral, CutSketchPoly, GeneralScale, S1Sketch, ScaleClass, ScaleSketch
from quadsketch.graph import DirectedGraph, WeightedGraph, connected_components, degrees, is_connected
from quadsketch.oracle import multiset_outcomes, sample_table
from quadsketch.partition import Component, PartitionResult, cut_preprocessing, find_sparse_cut, spectral_preprocessing
from quadsketch.rng import derive_seed
from quadsketch.sparsify import SparsifierConfig, sparsify
from quadsketch.spectral import (
    S2Sketch,
    S3Component,
    S3Sketch,
    _arc_order_as_undirected,
    _s2_heavy_structure,
    _s2_sketch,
    _s3_component_structure,
)


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


def mask_scores_reference(g, mode, masks):
    """Conductance (weighted) or expansion (unit weights) of each mask over
    bits 0..n-2, with the arithmetic of the mask scan that the
    meet-in-the-middle product replaced: crossing weights summed edge by
    edge, side weights bit by bit."""
    w = g.edge_w if mode == "conductance" else np.ones(g.m)
    vw = degrees(g)[0] if mode == "conductance" else np.ones(g.n)
    cw = np.zeros(masks.size)
    for u, v, ww in zip(g.edge_u.tolist(), g.edge_v.tolist(), w.tolist()):
        cw += (((masks >> u) ^ (masks >> v)) & 1) * ww
    side = np.zeros(masks.size)
    for b in range(g.n - 1):
        side += ((masks >> b) & 1) * vw[b]
    denom = np.minimum(side, vw.sum() - side)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, cw / denom, np.inf)


def exhaustive_cut_reference(g, mode, threshold):
    """What partition._exhaustive_cut must return: the smaller side of the
    first mask over bits 0..n-2, in ascending order, whose legacy score
    qualifies."""
    n = g.n
    scores = mask_scores_reference(g, mode, np.arange(1, 1 << (n - 1), dtype=np.int64))
    hit = np.flatnonzero(scores < threshold if mode == "edge_expansion" else scores <= threshold)
    if not hit.size:
        return None
    members = np.array([((int(hit[0]) + 1) >> b) & 1 for b in range(n)], dtype=bool)
    return ~members if members.sum() > n // 2 else members


def threshold_core_reference(g, vmap, eidx, threshold):
    """Core of one piece: drop every vertex of degree < threshold, repeat,
    recounting every degree each round. Returns the core's vertices
    (ascending) and a mask over eidx of the edges among them."""
    u, v = g.edge_u[eidx], g.edge_v[eidx]
    alive = np.ones(eidx.size, dtype=bool)
    while True:
        deg = np.bincount(u[alive], minlength=g.n) + np.bincount(v[alive], minlength=g.n)
        low = deg < threshold
        drop = alive & (low[u] | low[v])
        if not drop.any():
            return vmap[~low[vmap]], alive
        alive &= ~drop


def partition_by_cuts_reference(g, mode, threshold):
    """The piece-at-a-time partition that the generation peel replaced: a
    FIFO queue seeded with the components that have edges, and in
    edge_expansion mode a peel of its own for every popped piece.
    partition._partition_by_cuts must give the same pieces in the same
    order, and the same cross edges."""
    labels = connected_components(g)
    work = deque(
        (np.flatnonzero(labels == lab), np.flatnonzero(labels[g.edge_u] == lab))
        for lab in np.unique(labels[g.edge_u]).tolist()
    )
    comps, cross = [], [np.empty(0, dtype=np.int64)]
    while work:
        vmap, eidx = work.popleft()
        if mode == "edge_expansion":
            core_v, core_e = threshold_core_reference(g, vmap, eidx, threshold)
            if core_v.size < vmap.size:
                cross.append(eidx[~core_e])
                if core_v.size:
                    work.append((core_v, eidx[core_e]))
                continue
        inv = np.full(g.n, -1, dtype=np.int64)
        inv[vmap] = np.arange(vmap.size)
        piece = WeightedGraph(vmap.size, _arrays=(inv[g.edge_u[eidx]], inv[g.edge_v[eidx]], g.edge_w[eidx]))
        res = find_sparse_cut(piece, mode, threshold)
        if res.members is None:
            comps.append(Component(piece, vmap, eidx, res.certified))
            continue
        s = res.members
        cross.append(eidx[s[piece.edge_u] != s[piece.edge_v]])
        for side in (s, ~s):
            sub_e = eidx[side[piece.edge_u] & side[piece.edge_v]]
            if sub_e.size:
                work.append((vmap[side], sub_e))
    cross_idx = np.sort(np.concatenate(cross))
    return PartitionResult(comps, g.edge_u[cross_idx], g.edge_v[cross_idx], g.edge_w[cross_idx], cross_idx)


def assign_direction_reference(g, t):
    """The orientation fixpoint on numpy arrays indexed one element at a
    time: arcs (tail, head) after flipping to a fixpoint in FIFO order."""
    tail = g.edge_u.copy()
    head = g.edge_v.copy()
    out = np.zeros(g.n, dtype=np.int64)
    np.add.at(out, tail, 1)
    arcs_at = [[] for _ in range(g.n)]
    for e in range(g.m):
        arcs_at[tail[e]].append(e)
        arcs_at[head[e]].append(e)
    queue = deque(range(g.m))
    in_queue = [True] * g.m
    while queue:
        e = queue.popleft()
        in_queue[e] = False
        a, b = tail[e], head[e]
        if out[a] >= t and out[b] < t - 1:
            tail[e], head[e] = b, a
            out[a] -= 1
            out[b] += 1
            for x in (a, b):
                for e2 in arcs_at[x]:
                    if not in_queue[e2]:
                        in_queue[e2] = True
                        queue.append(e2)
    return tail, head


def s1_outcome_space(p: WeightedGraph, s: int):
    """Per-vertex sample-multiset outcome spaces of an S1 build, for the
    exhaustive expectation."""
    spaces = []
    for u in range(p.n):
        nv, ne = p.neighbors(u)
        if nv.size == 0:
            spaces.append([])
            continue
        options = [
            (1.0 / nv.size, (int(nv[i]), float(p.edge_w[ne[i]]))) for i in range(nv.size)
        ]
        spaces.append(multiset_outcomes(options, s))
    return spaces


def s1_from_assignment(p: WeightedGraph, epsilon: float, s: int, assignment) -> S1Sketch:
    """The S1 sketch of one enumerated sampling outcome."""
    delta, deg = degrees(p)
    return S1Sketch(float(epsilon), int(s), delta, deg, *sample_table(enumerate(assignment)))


def s2_outcome_space(p: WeightedGraph, alpha: float):
    """Per-heavy-vertex sample spaces for exhaustive expectation."""
    draws = math.ceil(alpha)
    delta, gamma, light, _, delta_l, _ = _s2_heavy_structure(p, alpha)
    spaces = []
    for u in range(p.n):
        if light[u] or delta_l[u] <= 0:
            spaces.append([])
            continue
        nv, ne = p.neighbors(u)
        keep = ~(light[nv])
        nv, ne = nv[keep], ne[keep]
        options = [
            (float(p.edge_w[e]) / float(delta_l[u]), (int(v), float(p.edge_w[e])))
            for v, e in zip(nv.tolist(), ne.tolist())
        ]
        spaces.append(multiset_outcomes(options, draws))
    return spaces


def s2_from_assignment(p: WeightedGraph, epsilon: float, alpha: float, assignment) -> S2Sketch:
    """The S2 sketch of one enumerated sampling outcome."""
    return _s2_sketch(epsilon, alpha, _s2_heavy_structure(p, alpha), enumerate(assignment))


def s3_outcome_space(p: DirectedGraph, kappa: int, beta: float):
    """Sample spaces per (component, head vertex) at the lemma threshold.

    Returns (spaces, context) where context rebuilds sketches via
    s3_from_assignment.
    """
    draws = math.ceil(beta)
    und = p.undirected()
    part = spectral_preprocessing(und, 2.0 ** (-kappa))
    arc_of_edge = _arc_order_as_undirected(p)
    threshold = (2.0 ** (kappa - 1)) * beta
    spaces = []
    meta = []
    for ci, comp in enumerate(part.components):
        comp_arcs = arc_of_edge[comp.edge_idx]
        tails, heads, ws, out_deg, in_deg, deg, stored_mask = _s3_component_structure(
            p, comp_arcs, comp.vmap, threshold
        )
        heavy_idx = np.flatnonzero(~stored_mask)
        by_head: dict[int, list[int]] = {}
        for a in heavy_idx.tolist():
            by_head.setdefault(int(heads[a]), []).append(a)
        for u in sorted(by_head):
            arcs = by_head[u]
            total_in = in_deg[u]
            options = [
                (float(ws[a]) / total_in, (int(tails[a]), float(ws[a]))) for a in arcs
            ]
            slack = max(0.0, 1.0 - sum(pr for pr, _ in options))
            if slack > 0:
                options.append((slack, None))
            spaces.append(multiset_outcomes(options, draws))
            meta.append((ci, u))
    return spaces, (part, arc_of_edge, threshold, meta, draws)


def s3_from_assignment(
    p: DirectedGraph, epsilon: float, kappa: int, beta: float, context, assignment
) -> S3Sketch:
    """The S3 sketch of one enumerated sampling outcome."""
    part, arc_of_edge, threshold, meta, draws = context
    comps = []
    tables: dict[int, dict[int, list]] = {}
    for (ci, u), table in zip(meta, assignment):
        if table:
            tables.setdefault(ci, {})[u] = table
    for ci, comp in enumerate(part.components):
        comp_arcs = arc_of_edge[comp.edge_idx]
        tails, heads, ws, out_deg, in_deg, deg, stored_mask = _s3_component_structure(
            p, comp_arcs, comp.vmap, threshold
        )
        su, sv, sw = tails[stored_mask], heads[stored_mask], ws[stored_mask]
        samples = sample_table(sorted(tables.get(ci, {}).items()))
        comps.append(S3Component(comp.vmap, in_deg, deg, su, sv, sw, *samples))
    h = 2.0 ** (-kappa)
    return S3Sketch(
        float(epsilon),
        float(beta),
        draws,
        int(kappa),
        h,
        p.n,
        comps,
        part.cross_u.copy(),
        part.cross_v.copy(),
        part.cross_w.copy(),
    )


def recursion_depth_bound(n: int, s: float) -> int:
    """ceil(log_{2 - 1/s} n) + 1 (the guaranteed shrink rate per level)."""
    if n <= 1:
        return 1
    return math.ceil(math.log(n) / math.log(2.0 - 1.0 / s)) + 1


EDGE_BUDGET_CONSTANT = 48.0  # documented constant C in the m <= C n log n / eps^2 bound


def edge_budget(n: int, epsilon: float) -> float:
    """The documented C n log n / eps^2 bound on the output edge count."""
    return EDGE_BUDGET_CONSTANT * n * math.log(n + 2) / epsilon**2


def cut_basic_reference(g, epsilon, seed, *, mode="auto"):
    """The full-ladder cut_basic_build: every scale of build_ladder, each
    partitioned on its own. A production sketch must equal this one with
    its ladder sliced to reachable_scales."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if cutsketch._use_verbatim(g.n, g.m, epsilon, mode):
        return CutSketchPoly(epsilon, g.n, verbatim=g)
    h = sparsify(g, SparsifierConfig(cutsketch.SPARSIFIER_ACCURACY, "cut", derive_seed(seed, "H")))
    ladder = cutsketch.build_ladder(g)
    scales = []
    for i, c in enumerate(ladder.tolist()):
        prep = cut_preprocessing(g, c, epsilon, derive_seed(seed, "scale", i))
        classes = []
        for cl in prep.classes:
            comps = [
                (
                    comp.vmap,
                    cutsketch.cut_s1_build(
                        comp.graph, epsilon, derive_seed(seed, "scale", i, "cls", cl.index, "comp", k)
                    ),
                )
                for k, comp in enumerate(cl.result.components)
            ]
            cross = cl.result
            classes.append(
                ScaleClass(cl.index, cross.cross_u.copy(), cross.cross_v.copy(), cross.cross_w.copy(), comps)
            )
        scales.append(ScaleSketch(c, classes))
    return CutSketchPoly(epsilon, g.n, sparsifier=h, ladder=ladder, scales=scales)


def cut_general_reference(g, epsilon, seed, *, mode="auto"):
    """cut_sketch_build with every slice built by cut_basic_reference."""
    with mock.patch.object(cutsketch, "cut_basic_build", cut_basic_reference):
        return cutsketch.cut_sketch_build(g, epsilon, seed, mode=mode)


def trimmed(ref):
    """A full-ladder poly or general sketch cut down to the scales that
    reachable_scales keeps."""
    if ref.is_verbatim:
        return ref
    if isinstance(ref, CutSketchGeneral):
        stored = [GeneralScale(gs.j, gs.labels, [(v, trimmed(p)) for v, p in gs.comps]) for gs in ref.stored]
        return CutSketchGeneral(ref.epsilon, ref.n, tree=ref.tree, stored=stored)
    k0, k1 = cutsketch.reachable_scales(ref.sparsifier, ref.ladder)
    return CutSketchPoly(
        ref.epsilon, ref.n, sparsifier=ref.sparsifier, ladder=ref.ladder[k0 : k1 + 1], scales=ref.scales[k0 : k1 + 1]
    )


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
