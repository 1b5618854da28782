import hashlib
import math
from collections import deque
from contextlib import contextmanager
from itertools import combinations_with_replacement
from typing import Callable, Sequence
from unittest import mock

import numpy as np
import pytest

from quadsketch import cutsketch, spectral
from quadsketch.cutsketch import CutSketchGeneral, CutSketchPoly, GeneralScale, ScaleClass, ScaleSketch
from quadsketch.distmincut import partition_edges
from quadsketch.errors import TooLargeError
from quadsketch.graph import (
    WeightedGraph,
    connected_components,
    cut_weight,
    degrees,
    format_graph,
    is_connected,
    subset_cut_blocks,
)
from quadsketch.oracle import enumerate_cut_values, mask_members
from quadsketch.partition import (
    EXHAUSTIVE_CUT_CAP,
    Component,
    PartitionResult,
    arc_ends,
    cut_preprocessing,
    fiedler_pair,
    find_sparse_cut,
)
from quadsketch.rng import derive_seed, draw_counts
from quadsketch.sparsify import SparsifierConfig, factor2_class, sparsify

OUTCOME_SPACE_CAP = 10**6


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


def ratio_weights(g, mode):
    """Edge and vertex weights of the mode's ratio w(∂S) / min(μ(S), μ(S̄)):
    edge weights and weighted degrees for conductance, ones for expansion."""
    if mode == "conductance":
        return g.edge_w, degrees(g)[0]
    return np.ones(g.m), np.ones(g.n)


def mask_scores_reference(g, mode, masks):
    """Conductance (weighted) or expansion (unit weights) of each mask over
    bits 0..n-2, with the arithmetic of the mask scan that the
    meet-in-the-middle product replaced: crossing weights summed edge by
    edge, side weights bit by bit."""
    w, vw = ratio_weights(g, mode)
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


def _legacy_qualifies(value, mode, threshold):
    return value < threshold if mode == "edge_expansion" else value <= threshold


def _legacy_spectrum(g, mode, delta):
    """(lambda_1, Fiedler vector) of D - A (edge_expansion, unit weights) or
    of I - D^-1/2 A D^-1/2 (conductance), each built as the two-branch
    search built it. Only the eigensolve is the search's own: lambda_1 from
    eigvalsh up to EXHAUSTIVE_CUT_CAP vertices, where the search reads no
    vector, and from partition.fiedler_pair above; the vector, which only
    sweeps read, always comes from fiedler_pair."""
    n = g.n
    if mode == "edge_expansion":
        a = np.zeros((n, n))
        a[g.edge_u, g.edge_v] = 1.0
        a[g.edge_v, g.edge_u] = 1.0
        mat = np.diag(a.sum(axis=1)) - a
        scale = np.ones(n)
    else:
        scale = 1.0 / np.sqrt(delta)
        a = g.adjacency_matrix()
        mat = np.eye(n) - (scale[:, None] * a) * scale[None, :]
    lam1, vec = fiedler_pair(mat.copy())
    if n <= EXHAUSTIVE_CUT_CAP:
        lam1 = float(np.linalg.eigvalsh(mat)[1])
    return lam1, vec * scale


def _legacy_prefix_sweep(g, order, mode, delta):
    """Cut metric of every prefix of order, normalized by the smaller side."""
    n = g.n
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    pu, pv = pos[g.edge_u], pos[g.edge_v]
    lo = np.minimum(pu, pv)
    hi = np.maximum(pu, pv)
    w = g.edge_w if mode == "conductance" else np.ones(g.m)
    diff = np.zeros(n + 1)
    np.add.at(diff, lo + 1, w)
    np.add.at(diff, hi + 1, -w)
    cut_at = np.cumsum(diff)[1:n]
    if mode == "conductance":
        vol = np.cumsum(delta[order])[: n - 1]
        denom = np.minimum(vol, delta.sum() - vol)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom > 0, cut_at / denom, np.inf)
    sizes = np.arange(1, n)
    return cut_at / np.minimum(sizes, n - sizes)


def _legacy_exhaustive_cut(g, mode, threshold, delta):
    """Integer test per mask in edge_expansion mode; slack filter plus an
    edge-order re-check in conductance mode."""
    n = g.n
    if mode == "edge_expansion":
        for first, cnt, pc in subset_cut_blocks(g, np.ones(g.m), np.ones(n)):
            hit = np.flatnonzero(cnt / np.minimum(pc, n - pc) < threshold)
            if hit.size:
                return _legacy_smaller_side(mask_members(first + hit[:1], n)[0])
        return None
    total_vol = delta.sum()
    slack = 1e-9 * total_vol
    for first, cut, vol in subset_cut_blocks(g, g.edge_w, delta):
        denom = np.minimum(vol, total_vol - vol)
        cand = first + np.flatnonzero(cut - slack <= threshold * (denom + slack))
        for c0 in range(0, cand.size, 256):
            bits = mask_members(cand[c0 : c0 + 256], n)
            crossing = bits[:, g.edge_u] != bits[:, g.edge_v]
            cw = np.cumsum(np.where(crossing, g.edge_w, 0.0), axis=1)[:, -1]
            side_vol = np.cumsum(bits[:, :-1] * delta[:-1], axis=1)[:, -1]
            denom_b = np.minimum(side_vol, total_vol - side_vol)
            with np.errstate(divide="ignore", invalid="ignore"):
                ok = np.where(denom_b > 0, cw / denom_b, np.inf) <= threshold
            if ok.any():
                return _legacy_smaller_side(bits[ok.argmax()])
    return None


def _legacy_smaller_side(members):
    return ~members if members.sum() > members.size // 2 else members


def find_sparse_cut_reference(g, mode, threshold):
    """(members, certified) of the search that wrote every step once per
    mode: its own singleton formulas, eigen-matrices, certificate
    comparisons (>= for edge_expansion, > for conductance), exhaustive scans
    and sweep denominators. For connected g with at least 2 vertices;
    partition.find_sparse_cut must agree with it."""
    n = g.n
    delta, udeg = degrees(g)
    if mode == "edge_expansion":
        single = udeg.astype(float)
    else:
        vol = delta.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            single = np.where(np.minimum(delta, vol - delta) > 0, delta / np.minimum(delta, vol - delta), np.inf)
    hit = np.flatnonzero(_legacy_qualifies(single, mode, threshold))
    if hit.size:
        members = np.zeros(n, dtype=bool)
        members[hit[0]] = True
        return members, True
    if n == 2:
        return None, True
    lam1, fiedler = _legacy_spectrum(g, mode, delta)
    if (lam1 / 2.0 >= threshold) if mode == "edge_expansion" else (lam1 / 2.0 > threshold):
        return None, True
    if n <= EXHAUSTIVE_CUT_CAP:
        return _legacy_exhaustive_cut(g, mode, threshold, delta), True
    order = np.lexsort((np.arange(n), fiedler))
    vals = _legacy_prefix_sweep(g, order, mode, delta)
    best = int(np.argmin(vals))
    if _legacy_qualifies(float(vals[best]), mode, threshold):
        members = np.zeros(n, dtype=bool)
        members[order[: best + 1]] = True
        return _legacy_smaller_side(members), True
    return None, False


def sparse_cut_thresholds(g, mode):
    """The thresholds where a search decides by a hair: the least singleton
    ratio, lambda_1/2 of the mode's matrix and the best sweep prefix of the
    reference search, each with its two neighbouring floats."""
    delta, udeg = degrees(g)
    if mode == "edge_expansion":
        single = float(udeg.min())
    else:
        single = float((delta / np.minimum(delta, delta.sum() - delta)).min())
    lam1, fiedler = _legacy_spectrum(g, mode, delta)
    sweep = float(_legacy_prefix_sweep(g, np.lexsort((np.arange(g.n), fiedler)), mode, delta).min())
    return [float(t) for x in (single, lam1 / 2.0, sweep) for t in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


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


def draw_counts_reference(rng, indptr, draws, p=None):
    """rng.draw_counts as one rng.integers or rng.choice call per non-empty
    row, in row order."""
    counts = np.zeros(int(indptr[-1]), dtype=np.int64)
    for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        if hi > lo:
            picks = rng.integers(0, hi - lo, size=draws) if p is None else rng.choice(hi - lo, size=draws, p=p[lo:hi])
            counts[lo:hi] = np.bincount(picks, minlength=hi - lo)
    return counts


@contextmanager
def sampler(fn):
    """Every S1, S2 and S3 build draws its samples through fn."""
    with mock.patch.object(cutsketch, "draw_counts", fn), mock.patch.object(spectral, "draw_counts", fn):
        yield


def outcome_space(build: Callable):
    """The sample spaces of a build for the exhaustive expectation: one unit
    per non-empty row of every draw_counts call the build makes, holding the
    multisets of the row's picks. A payload is a tuple of ((call, candidate),
    count) pairs."""
    calls = []

    def record(rng, indptr, draws, p=None):
        calls.append((indptr, draws, p))
        return draw_counts(rng, indptr, draws, p)

    with sampler(record):
        build()
    spaces = []
    for i, (indptr, draws, p) in enumerate(calls):
        for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
            if hi > lo:
                probs = [1.0 / (hi - lo)] * (hi - lo) if p is None else p[lo:hi].tolist()
                spaces.append(multiset_outcomes([(q, (i, k)) for k, q in enumerate(probs, lo)], draws))
    return spaces


def outcome_sketch(build: Callable, assignment):
    """What the build returns when its draws come out as one assignment of
    outcome_space: the build's own code runs, with the sampled counts
    replaced."""
    picks = [pick for payload in assignment for pick in payload]
    calls = []

    def replay(rng, indptr, draws, p=None):
        counts = np.zeros(int(indptr[-1]), dtype=np.int64)
        for (i, k), c in picks:
            if i == len(calls):
                counts[k] += c
        calls.append(indptr)
        return counts

    with sampler(replay):
        return build()


def multiset_outcomes(options: Sequence[tuple[float, object]], draws: int) -> list[tuple[float, tuple]]:
    """All multisets of `draws` i.i.d. picks with multinomial probabilities.

    Each returned payload is a tuple of (option payload, multiplicity) pairs
    restricted to options that were picked at least once.
    """
    if draws == 0 or not options:
        return [(1.0, ())]
    out = []
    fact = math.factorial(draws)
    for combo in combinations_with_replacement(range(len(options)), draws):
        counts: dict[int, int] = {}
        for i in combo:
            counts[i] = counts.get(i, 0) + 1
        coeff = fact
        prob = 1.0
        for i, c in counts.items():
            coeff //= math.factorial(c)
            prob *= options[i][0] ** c
        payload = tuple((options[i][1], c) for i, c in sorted(counts.items()))
        out.append((coeff * prob, payload))
    return out


def estimator_expectation_exhaustive(
    spaces: Sequence[Sequence[tuple[float, object]]],
    evaluate: Callable[[tuple], float],
) -> float:
    """Exact expectation by enumerating every joint sampling outcome. Each
    unit of spaces is a list of (probability, payload) pairs summing to 1;
    an empty unit contributes a None payload."""
    total = 1
    for unit in spaces:
        total *= max(1, len(unit))
        if total > OUTCOME_SPACE_CAP:
            raise TooLargeError("sample-outcome space exceeds the enumeration cap")
    terms: list[float] = []

    def rec(i: int, prob: float, acc: list):
        if i == len(spaces):
            terms.append(prob * evaluate(tuple(acc)))
            return
        unit = spaces[i]
        if not unit:
            acc.append(None)
            rec(i + 1, prob, acc)
            acc.pop()
            return
        for p, payload in unit:
            if p == 0.0:
                continue
            acc.append(payload)
            rec(i + 1, prob * p, acc)
            acc.pop()

    rec(0, 1.0, [])
    return math.fsum(terms)


def min_cut_exhaustive(g: WeightedGraph) -> tuple[float, np.ndarray]:
    masks, vals = enumerate_cut_values(g)
    i = int(np.argmin(vals))
    return float(vals[i]), mask_members(masks[i : i + 1], g.n)[0]


def fingerprint(g: WeightedGraph) -> str:
    """Stable hash of the canonical edge list."""
    h = hashlib.blake2b(digest_size=16)
    h.update(str(g.n).encode())
    h.update(g.edge_u.astype("<i8").tobytes())
    h.update(g.edge_v.astype("<i8").tobytes())
    h.update(g.edge_w.astype("<f8").tobytes())
    return h.hexdigest()


def raw_edge_list_bytes(g: WeightedGraph) -> int:
    """Size of the plain text edge-list interchange format for g."""
    return len(format_graph(g).encode())


def exact_protocol_score(g: WeightedGraph, k: int, members, *, strategy="round_robin", seed=0) -> float:
    """Sum of exact share cut weights (the additivity baseline for tests)."""
    total = 0.0
    for eidx in partition_edges(g, k, strategy, seed):
        share = WeightedGraph(g.n, _arrays=(g.edge_u[eidx], g.edge_v[eidx], g.edge_w[eidx]))
        total += cut_weight(share, members)
    return total


def format_matrix(a: np.ndarray) -> str:
    out = [str(a.shape[0])]
    for row in a:
        out.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(out) + "\n"


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
            classes.append(ScaleClass(cl.index, comps, cl.result.cross_idx))
        scales.append(ScaleSketch(c, classes))
    table = {"table_u": g.edge_u, "table_v": g.edge_v, "table_w": g.edge_w}
    return CutSketchPoly(epsilon, g.n, sparsifier=h, scales=scales, **table)


def cut_general_reference(g, epsilon, seed, *, mode="auto", basic=cut_basic_reference):
    """cut_sketch_build with every slice built by basic (the full-ladder
    reference unless given), and with every slice the halving rule selects
    stored, even one equal to the slice before it."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if cutsketch._use_verbatim(g.n, g.m, epsilon, mode):
        return CutSketchGeneral(epsilon, g.n, verbatim=g)
    tree = cutsketch.mst_max(g)
    stored = []
    last_w = None
    for j, (_, _, wj) in enumerate(tree):
        if last_w is not None and last_w / wj < 2.0:
            continue
        last_w = wj
        labels, gp = cutsketch._contract(g, wj, g.n)
        comp_labels = connected_components(gp)
        comps = []
        for lab in range(int(comp_labels.max()) + 1 if gp.n else 0):
            vmask = comp_labels == lab
            if vmask.sum() < 2:
                continue
            sub, vmap = gp.induced_subgraph(vmask)
            comps.append((vmap, basic(sub, epsilon, derive_seed(seed, "slice", j, "comp", lab), mode=mode)))
        stored.append(GeneralScale(j, labels, comps))
    return CutSketchGeneral(epsilon, g.n, tree=tree, stored=stored)


def repeated_slices(g, ref) -> list[int]:
    """The stored j of a general sketch of g whose contraction labels and
    contracted graph equal those of the stored slice before it."""
    if ref.is_verbatim:
        return []
    slices = [cutsketch._contract(g, ref.tree[gs.j][2], g.n) for gs in ref.stored]
    return [
        gs.j
        for gs, (la, ga), (lb, gb) in zip(ref.stored[1:], slices, slices[1:])
        if np.array_equal(la, lb) and ga == gb
    ]


def without_slices(ref, js) -> CutSketchGeneral:
    """A general sketch with the stored slices of the given j left out."""
    stored = [gs for gs in ref.stored if gs.j not in set(js)]
    return CutSketchGeneral(ref.epsilon, ref.n, tree=ref.tree, stored=stored)


def trimmed(ref):
    """A full-ladder poly or general sketch cut down to the scales that
    reachable_scales keeps."""
    if ref.is_verbatim:
        return ref
    if isinstance(ref, CutSketchGeneral):
        stored = [GeneralScale(gs.j, gs.labels, [(v, trimmed(p)) for v, p in gs.comps]) for gs in ref.stored]
        return CutSketchGeneral(ref.epsilon, ref.n, tree=ref.tree, stored=stored)
    k0, k1 = cutsketch.reachable_scales(ref.sparsifier, ref.ladder)
    table = {"table_u": ref.table_u, "table_v": ref.table_v, "table_w": ref.table_w}
    return CutSketchPoly(ref.epsilon, ref.n, sparsifier=ref.sparsifier, scales=ref.scales[k0 : k1 + 1], **table)


def light_classes_stored_exactly(sk, g: WeightedGraph, epsilon: float, seed: int) -> bool:
    """Whether sk, spectral_basic_build(g, epsilon, seed), holds every
    factor-2 weight class of its sparsifier whose lightest edge is at most
    eps^2 (outside the S2 analysis) as a class with no components whose cut
    edges are all of the class's edges. False when there is no such class."""
    g2 = sparsify(g, SparsifierConfig(epsilon, "spectral", derive_seed(seed, "sparsify")))
    wcls = factor2_class(g2.edge_w, g2.edge_w.min())
    light = [e for e in (np.flatnonzero(wcls == j) for j in np.unique(wcls)) if g2.edge_w[e].min() <= epsilon**2]

    def stored(cls, e) -> bool:
        edges = zip((cls.q_u, cls.q_v, cls.q_w), (g2.edge_u, g2.edge_v, g2.edge_w))
        return not cls.comps and all(np.array_equal(q, a[e]) for q, a in edges)

    return bool(light) and all(any(stored(cls, e) for cls in sk.classes) for e in light)


def relabel(g: WeightedGraph, vmap: np.ndarray, n_new: int) -> WeightedGraph:
    """Image of g under a vertex map (old id -> vmap[old])."""
    return WeightedGraph(n_new, _arrays=(vmap[g.edge_u], vmap[g.edge_v], g.edge_w))


def orient(n: int, arcs) -> tuple[WeightedGraph, np.ndarray]:
    """The graph of the arcs (tail, head, w) on n vertices and the
    orientation mask of its edges (True: the arc runs edge_v -> edge_u)."""
    g = WeightedGraph(n, arcs)
    tail_of = {(min(a, b), max(a, b)): a for a, b, _ in arcs}
    assert len(tail_of) == g.m == len(arcs), "at most one arc per vertex pair"
    flip = np.array([tail_of[e] == e[1] for e in zip(g.edge_u.tolist(), g.edge_v.tolist())], dtype=bool)
    return g, flip


def out_degrees_unweighted(g: WeightedGraph, flip: np.ndarray) -> np.ndarray:
    """Number of arcs leaving each vertex of g under the orientation flip."""
    return np.bincount(arc_ends(g, flip)[0], minlength=g.n)


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


def clique_and_path(k: int, tail: int, w_hi: float = 1.5) -> WeightedGraph:
    """K_k with weights U[1, w_hi] (one weight class) and a unit path of
    `tail` edges hung on vertex k-1. The path keeps the average degree, and
    with it the degree-class cap 2s, low, so clique arcs are left over for
    a second level of the degree-class partition."""
    rng = np.random.default_rng(1)
    edges = [(i, j, float(rng.uniform(1, w_hi))) for i in range(k) for j in range(i + 1, k)]
    edges += [(k - 1 + i, k + i, 1.0) for i in range(tail)]
    return WeightedGraph(k + tail, edges)


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
