"""The "for each" cut-sketch pipeline.

Three tiers, each built on the previous one:

* ``S1Sketch``: degrees plus s = ceil(1/eps) uniform incident-edge samples
  per vertex; difference estimator for cuts of bounded rescaled weight;
* ``CutSketchPoly``: a 0.2-accuracy sparsifier to locate the cut value on a
  base-1.4 scale ladder, plus importance-sampled expander pieces with S1
  sketches and exactly stored cut edges on every ladder scale that a query
  can select; each scale stores its value c once, and the ladder is read
  off the scales. The cut edges of all scales are rows of one Q edge table
  (the input edges some class keeps), stored once; a class lists its rows,
  and its weights at its scale are recomputed from the table (``q_table``);
* ``CutSketchGeneral``: maximum-spanning-forest reduction that snaps an
  arbitrary weight range onto polynomially bounded slices, storing each
  distinct slice once (a slice equal to the last stored one is skipped, and
  its queries route to that one). Its slices' polynomial sketches are
  sections of the ``CUT_POLY_LAYOUT`` payload, not envelopes.

Sketches are immutable after build. Each composite names the decision
behind an answer in one ``route`` method (the ladder scale, or the forest
edge and stored slice, that a query selects); ``estimate`` follows it and
returns a float, and ``route`` is also what explains an answer (the CLI's
``query --detail``). Estimates go through the shared flat
``EdgeSampleEstimator``; ``CutSketchPoly`` builds one per ladder scale on
the first query that selects it and caches it.

A query runs no Python loop over the data. It is validated once, at the
public ``estimate``. ``CutSketchPoly`` sums c~ over its sparsifier's edges
ordered by first endpoint (one ``np.repeat`` and one gather of the member
vector); ``CutSketchGeneral`` finds the first cut forest edge with one
comparison over the forest's endpoint arrays, and computes its stored j's
and each stored slice's contraction class sizes once, on its first query.
A verbatim sketch answers with ``graph.cut_weight``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from statistics import median

import numpy as np

from .errors import SketchConsistencyError
from .estimator import CutPieces, EdgeSampleEstimator, by_first_endpoint, flatten, piece_estimator, sketch_pieces
from .graph import (
    WeightedGraph,
    as_cut_query,
    check_total_weight,
    connected_components,
    cut_weight,
    label_components,
    spanning_forest,
    sum_products,
    weighted_degrees,
)
from .partition import cut_preprocessing, reweight
from .rng import derive_seed, draw_counts, rng_for
from . import serialize
from .serialize import Composite, ascending, composite, draw_table, edge_problem, edges, f64, fields, graph
from .serialize import int_array, pairs, pairs_problem, piece_problem, record, section, seq, tuple_of, varint
from .sparsify import SparsifierConfig, sparsify

LADDER_BASE = 1.4
SPARSIFIER_ACCURACY = 0.2
_NO_IDS = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Tier 1: S1 sampling sketch


@dataclass
class S1Sketch:
    """Weighted degrees + per-vertex uniform edge samples of an S1 piece.

    Each vertex of positive degree draws s samples; the table holds its
    distinct draws, in the order of the piece's adjacency (the neighbours
    above the vertex, then those below it, each ascending), with their
    multiplicities y, which sum to s. The wire holds only the draws
    (``serialize.draw_table``), so a table that breaks this order does not
    encode."""

    s: int
    delta: np.ndarray  # weighted degree per vertex (in the piece)
    deg: np.ndarray  # unweighted degree per vertex
    owner: np.ndarray  # flattened sample table: sampling vertex
    nbr: np.ndarray  # sampled neighbor
    w: np.ndarray  # weight of the sampled edge
    y: np.ndarray  # multiplicity

    @property
    def n(self) -> int:
        return int(self.delta.size)

    def estimator_piece(self) -> EdgeSampleEstimator:
        """Sample coefficient deg[owner] / s * y * w; on a 0/1 vector the
        degree term is the volume of the member set."""
        samples = (self.owner, self.nbr, self.deg / self.s, self.y, self.w)
        return piece_estimator(self.n, diag=self.delta, samples=samples)

    def estimate(self, members) -> float:
        est = flatten(self.n, [(None, self.estimator_piece())])
        return est.estimate(as_cut_query(self.n, members).astype(np.float64))


S1_LAYOUT = record(
    S1Sketch,
    draw_table,
    # each sample is an edge of the piece, of positive and finite weight
    check=lambda sk: piece_problem(
        sk.s, sk.delta, sk.deg, (sk.owner, sk.nbr, sk.w), "sample", (sk.owner, sk.nbr, sk.y)
    ),
)


def cut_s1_build(p: WeightedGraph, epsilon: float, seed: int, *, s: int | None = None) -> S1Sketch:
    """Sample s = ceil(1/eps) incident edges per vertex, uniformly with
    replacement (p_e = 1/d_u), and store all weighted degrees."""
    if s is None:
        s = math.ceil(1.0 / epsilon)
    if s < 1:
        raise ValueError("sample count must be positive")
    indptr, others, eids = p._adjacency()
    deg = np.diff(indptr)
    counts = draw_counts(rng_for(seed, "s1"), indptr, s)
    hit = np.flatnonzero(counts)
    return S1Sketch(
        int(s),
        weighted_degrees(p.n, p.edge_u, p.edge_v, p.edge_w),
        deg,
        np.repeat(np.arange(p.n), deg)[hit],
        others[hit],
        p.edge_w[eids[hit]],
        counts[hit],
    )


# ---------------------------------------------------------------------------
# Tier 2: polynomial-weight composite sketch


@dataclass
class ScaleClass(CutPieces):
    """A weight class of one ladder scale. It lists its cut edges as rows of
    its sketch's Q edge table, and ``CutSketchPoly`` fills q_u, q_v and q_w
    from them."""

    index: int  # weight class i: reweighted w in (5*2^-i, 5*2^(1-i)]
    comps: list[tuple[np.ndarray, S1Sketch]]  # (vertex map, piece sketch)
    q_pos: np.ndarray  # ascending rows of the Q edge table
    q_u: np.ndarray | None = None  # stored cut edges, sketch-graph vertex ids
    q_v: np.ndarray | None = None
    q_w: np.ndarray | None = None  # reweighted (w~) values at this scale


@dataclass
class ScaleSketch:
    c: float
    classes: list[ScaleClass]


def q_table(table: tuple, scales: list[ScaleSketch], epsilon: float) -> tuple[tuple, list[ScaleSketch]]:
    """The Q edge table of a cut sketch and its scales, from a table (u, v,
    w) of input edges and scales whose classes list rows of it (q_pos): the
    table cut down to the rows that some class lists, in order, and new
    scales whose classes list rows of that table and hold their cut edges
    (q_u, q_v) and reweighted weights q_w = reweight(w / c, eps) at their
    scale's value c, as the build computed them. One pass serves all the
    classes."""
    classes = [(sc.c, cls) for sc in scales for cls in sc.classes]
    sizes = [cls.q_pos.size for _, cls in classes]
    rows = np.concatenate([_NO_IDS, *(cls.q_pos for _, cls in classes)])
    used = np.bincount(rows, minlength=table[0].size) > 0
    u, v, w = (a[used] for a in table)
    pos = (np.cumsum(used) - 1)[rows]  # each row's position among the used ones
    scale_c = np.repeat([c for c, _ in classes], sizes)
    # a build's eps lies in (0, 1); a corrupt c or eps gives weights that the
    # decoder rejects (a NaN eps, as the square of a large one overflows)
    with np.errstate(all="ignore"):
        _, q_w = reweight(w[pos] / scale_c, epsilon if 0 < epsilon < 1 else math.nan)
    columns = (pos, u[pos], v[pos], q_w)
    bounds = np.cumsum([0, *sizes]).tolist()
    made = iter(
        ScaleClass(cls.index, cls.comps, *(a[lo:hi] for a in columns))
        for (_, cls), lo, hi in zip(classes, bounds, bounds[1:])
    )
    return (u, v, w), [ScaleSketch(sc.c, [next(made) for _ in sc.classes]) for sc in scales]


class CutSketchPoly(Composite):
    """Cut sketch for graphs whose weight ratio is polynomially bounded. Its
    classes' cut edges are rows of one Q edge table (table_u, table_v,
    table_w), which holds exactly the input edges that some class keeps; a
    table given with more rows is cut down to those (``q_table``)."""

    kind = "cut_poly"

    def __init__(
        self, epsilon, n, verbatim=None, sparsifier=None, table_u=None, table_v=None, table_w=None, scales=None
    ):
        super().__init__(epsilon, n, verbatim)
        self.sparsifier = sparsifier
        table = (table_u, table_v, table_w) if table_u is not None else (_NO_IDS, _NO_IDS, np.empty(0))
        (self.table_u, self.table_v, self.table_w), self.scales = q_table(table, scales or [], self.epsilon)
        self.ladder = np.array([sc.c for sc in self.scales], dtype=np.float64)  # the stored scales' values
        self._flat: dict[int, EdgeSampleEstimator] = {}  # scale index -> estimator

    def _scale_estimator(self, idx: int) -> EdgeSampleEstimator:
        """All cut edges and S1 pieces of one ladder scale, built on first use."""
        est = self._flat.get(idx)
        if est is None:
            parts = [p for cls in self.scales[idx].classes for p in cls.parts(self.n)]
            est = self._flat[idx] = flatten(self.n, parts)
        return est

    @cached_property
    def _sparsifier_edges(self) -> tuple:
        """The sparsifier's edges by first endpoint, for c~."""
        h = self.sparsifier
        return by_first_endpoint(self.n, h.edge_u, h.edge_v, h.edge_w)

    def route(self, members) -> tuple[float, int | None] | None:
        """How the sketch answers the member set: None where the cut is
        trivial (an empty or full set, or a verbatim sketch, which answers
        from its graph), else the sparsifier's cut value c~ and the index
        into the stored ladder of the scale that answers it (scale_of), or
        None in its place where c~ <= 0 and the answer is 0. A build trims
        the ladder to the scales that queries can reach."""
        return self._route(as_cut_query(self.n, members))

    def _route(self, s: np.ndarray) -> tuple[float, int | None] | None:
        """``route`` of an already validated member vector."""
        if self.is_verbatim or not s.any() or s.all():
            return None
        count, second, w = self._sparsifier_edges
        c_tilde = sum_products(w, np.repeat(s, count) != s.take(second))
        return c_tilde, (scale_of(self.ladder, c_tilde) if c_tilde > 0.0 else None)

    def estimate(self, members) -> float:
        """Cut weight of the member set: the value c of the scale that route
        selects times that scale's estimate."""
        return self._answer(as_cut_query(self.n, members))

    def _answer(self, s: np.ndarray) -> float:
        """``estimate`` of an already validated member vector."""
        if self.is_verbatim:
            return cut_weight(self.verbatim, s)
        route = self._route(s)
        if route is None or route[1] is None:
            return 0.0
        idx = route[1]
        return self.scales[idx].c * self._scale_estimator(idx).estimate(s.astype(np.float64))


def _check_poly(sk: CutSketchPoly) -> str | None:
    """A query reads the sparsifier, the ladder of scale values (which
    scale_of searches, so it must increase) and the classes of one scale on
    n vertices; every cut value selects a scale."""
    if sk.sparsifier.n != sk.n:
        return f"{sk.sparsifier.n}-vertex sparsifier, n = {sk.n}"
    if not sk.scales:
        return "a sparsifier but no scale sketches"
    if not (sk.ladder[0] > 0 and sk.ladder[-1] < np.inf and np.all(np.diff(sk.ladder) > 0)):
        return "scale values must be positive, finite and increasing"
    u, v = sk.table_u, sk.table_v
    problem = edge_problem(u, v, sk.table_w, sk.n, "Q table")
    if problem:
        return problem
    if not (u < v).all() or not ((u[1:] > u[:-1]) | (u[1:] == u[:-1]) & (v[1:] > v[:-1])).all():
        return "Q table edges must have u < v and strictly increase"
    # the classes' cut edges are rows of the table; their weights, which a
    # corrupt c or eps spoils, are checked in one pass
    classes = [cls for sc in sk.scales for cls in sc.classes]
    q_w = np.concatenate([np.empty(0), *(cls.q_w for cls in classes)])
    if q_w.size and not (q_w.min() > 0 and q_w.max() < np.inf):  # a NaN fails both
        return "cut edge weights must be positive and finite"
    return pairs_problem([pair for cls in classes for pair in cls.comps], sk.n)


def _rows_problem(ladder: dict) -> str | None:
    """Why the classes of a decoded ladder do not list rows of its Q edge
    table, strictly increasing, or None; checked before the sketch reads
    the rows."""
    m = ladder["table_u"].size
    if ladder["table_w"].size != m:
        return f"{m} Q table edges but {ladder['table_w'].size} weights"
    lists = [cls.q_pos for sc in ladder["scales"] for cls in sc.classes]
    pos = np.concatenate([_NO_IDS, *lists])
    if pos.size and pos.max() >= m:
        return f"Q table row {pos.max()} outside [0, {m})"
    owner = np.repeat(np.arange(len(lists)), [a.size for a in lists])
    # a negative row is a sum of gaps past 2**63
    if pos.min(initial=0) < 0 or not ((pos[1:] > pos[:-1]) | (owner[1:] != owner[:-1])).all():
        return "Q table rows of a class do not strictly increase"
    return None


def cut_ladder(**attributes) -> dict:
    """The Q edge table and the scales of a cut_poly body, read back as
    attributes of the sketch."""
    return attributes


SCALE_CLASS_LAYOUT = record(ScaleClass, index=varint, q_pos=ascending, comps=pairs(S1_LAYOUT))
CUT_POLY_LAYOUT = composite(
    CutSketchPoly,
    fields(sparsifier=section(graph)),
    section(
        record(
            cut_ladder,
            edges("table_u", "table_v", "table_w"),
            check=_rows_problem,
            scales=seq(record(ScaleSketch, c=f64, classes=seq(SCALE_CLASS_LAYOUT))),
        )
    ),
    check=_check_poly,
)
serialize.register(2, CUT_POLY_LAYOUT)


def build_ladder(g: WeightedGraph) -> np.ndarray:
    """Base-1.4 value ladder anchored four steps below w_min, covering every
    possible 1.2-approximate cut value of g."""
    wmin = float(g.edge_w.min())
    lo = wmin / LADDER_BASE**4
    top = 1.5 * g.total_weight
    count = max(1, math.ceil(math.log(top / lo) / math.log(LADDER_BASE)) + 1)
    return lo * LADDER_BASE ** np.arange(count)


def scale_of(ladder: np.ndarray, c_tilde: float) -> int:
    """Index of the ladder scale that answers a query whose sparsifier cut
    value is c_tilde: the last scale at or below c_tilde / 1.4^2, clamped to
    the ladder."""
    idx = int(np.searchsorted(ladder, c_tilde / LADDER_BASE**2, side="right")) - 1
    return min(max(idx, 0), len(ladder) - 1)


def reachable_scales(h: WeightedGraph, ladder: np.ndarray) -> tuple[int, int]:
    """First and last index of the ladder scales that a query on a sketch
    with sparsifier h can select, with one spare scale on each side.

    A nontrivial cut S of h has x = 1_S - |S|/n orthogonal to the all-ones
    vector and |x|^2 = |S|(n - |S|)/n, so lambda_2 (n-1)/n <= cut(S) <=
    min(W(h), lambda_n floor(n/2) ceil(n/2)/n). The eigenvalues come from
    one dense eigvalsh, and lambda_2 gives up n ulps of lambda_n for its
    rounding; the spare scales absorb the rest. A disconnected h has
    lambda_2 = 0 and keeps the ladder from its first scale. h has at least
    two vertices.
    """
    last = len(ladder) - 1
    n = h.n
    lam = np.linalg.eigvalsh(h.laplacian())
    top = min(h.total_weight, float(lam[-1]) * (n // 2) * ((n + 1) // 2) / n)
    k1 = min(scale_of(ladder, top) + 1, last)
    low = (float(lam[1]) - n * np.finfo(float).eps * float(lam[-1])) * (n - 1) / n
    k0 = max(scale_of(ladder, low) - 1, 0) if low > 0 else 0
    return k0, k1


EPSILON_WINDOW_TOP = 1.0 / 30.0


def _use_verbatim(n: int, m: int, epsilon: float, mode: str) -> bool:
    if mode not in ("auto", "pipeline"):
        raise ValueError("mode must be 'auto' or 'pipeline'")
    if n < 2 or m == 0 or epsilon < 1.0 / n:
        return True  # below 1/n the whole graph is the smaller sketch
    if mode == "auto" and epsilon > EPSILON_WINDOW_TOP:
        return True  # outside the analysed window: store the graph
    return False


def cut_basic_build(
    g: WeightedGraph,
    epsilon: float,
    seed: int,
    *,
    mode: str = "auto",
) -> CutSketchPoly:
    """Composite sketch for the polynomial-weight regime.

    mode "auto" stores the graph verbatim whenever eps falls outside
    [1/n, 1/30] (below 1/n the graph is smaller than the sketch; above 1/30
    the constants of the analysis no longer apply). mode "pipeline" runs the
    ladder construction for any eps >= 1/n, which the size-scaling and
    failure-rate experiments rely on.

    Only the scales in reachable_scales are built and stored; each keeps
    the seed of its index on the full ladder, so its bytes do not depend on
    where the trimmed ladder starts. The scales of one build share one memo
    of expansion partitions, keyed by class edge set, since many of them
    keep the same edge set in a weight class (a uniform graph keeps all of
    its edges in one class over most of the ladder): such a class is
    partitioned once, and each scale takes the memo's components re-weighted
    with its own values, so each component builds the adjacency that its S1
    samples are drawn from once per build. A class whose 1/eps-core is empty
    dissolves into stored cut edges with no search (cut_preprocessing).
    Nothing is shared between builds. A graph whose total weight, doubled,
    is not finite raises QuadsketchError.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if _use_verbatim(g.n, g.m, epsilon, mode):
        return CutSketchPoly(epsilon, g.n, verbatim=g)
    check_total_weight(g)
    h = sparsify(g, SparsifierConfig(SPARSIFIER_ACCURACY, "cut", derive_seed(seed, "H")))
    ladder = build_ladder(g)
    k0, k1 = reachable_scales(h, ladder)
    partitions: dict = {}
    scales = []
    for i in range(k0, k1 + 1):
        c = float(ladder[i])
        prep = cut_preprocessing(g, c, epsilon, derive_seed(seed, "scale", i), _partitions=partitions)
        classes = []
        for cl in prep.classes:
            *_, comps = sketch_pieces(
                cl.result,
                lambda k, comp: cut_s1_build(
                    comp.graph, epsilon, derive_seed(seed, "scale", i, "cls", cl.index, "comp", k)
                ),
            )
            # its cut edges are rows of g: the sketch cuts g's edges down to its Q edge table
            classes.append(ScaleClass(cl.index, comps, cl.result.cross_idx))
        scales.append(ScaleSketch(c, classes))
    table = {"table_u": g.edge_u, "table_v": g.edge_v, "table_w": g.edge_w}
    return CutSketchPoly(epsilon, g.n, sparsifier=h, scales=scales, **table)


# ---------------------------------------------------------------------------
# Tier 3: general weights via a maximum spanning forest


def mst_max(g: WeightedGraph) -> list[tuple[int, int, float]]:
    """Maximum-weight spanning forest, Kruskal order (ties by edge index)."""
    order = np.lexsort((np.arange(g.m), -g.edge_w))
    u, v, w = g.edge_u[order], g.edge_v[order], g.edge_w[order]
    keep = spanning_forest(g.n, u, v)
    return list(zip(u[keep].tolist(), v[keep].tolist(), w[keep].tolist()))


@dataclass
class GeneralScale:
    j: int  # tree-edge index this slice was built for
    labels: np.ndarray  # original vertex -> contracted vertex id
    comps: list[tuple[np.ndarray, CutSketchPoly]]  # (contracted-id map, sketch)


class CutSketchGeneral(Composite):
    """Cut sketch for arbitrary positive weights."""

    kind = "cut_general"

    def __init__(self, epsilon, n, verbatim=None, tree=None, stored=None):
        super().__init__(epsilon, n, verbatim)
        self.tree = tree if tree is not None else []  # ordered (u, v, w)
        self.stored: list[GeneralScale] = stored if stored is not None else []

    @cached_property
    def _plan(self) -> tuple:
        """The forest's endpoint arrays, the stored slices' j and, per stored
        slice, its contraction class sizes, or None where every class is
        one vertex."""
        ends = np.array([(u, v) for u, v, _ in self.tree], dtype=np.int64).reshape(-1, 2)
        sizes = [np.bincount(gs.labels) for gs in self.stored]
        sizes = [None if size.size == self.n and (size == 1).all() else size for size in sizes]
        return ends[:, 0], ends[:, 1], [gs.j for gs in self.stored], sizes

    def _slice(self, s: np.ndarray) -> tuple[int, int] | None:
        """``route`` of a validated member vector, with the stored slice as
        its position in ``stored``."""
        tree_u, tree_v, stored_j, _ = self._plan
        cut = s[tree_u] != s[tree_v]
        if not cut.any():
            return None
        j = int(cut.argmax())
        # the first stored j is 0
        return j, bisect.bisect_right(stored_j, j) - 1

    def route(self, members) -> tuple[int, GeneralScale] | None:
        """How the sketch answers the member set: None where the answer is
        0 (it cuts no forest edge; a verbatim sketch has no forest and
        answers from its graph), else the index j of the first forest edge
        it cuts and the stored slice that answers it, the last one at or
        before j."""
        found = self._slice(as_cut_query(self.n, members))
        return None if found is None else (found[0], self.stored[found[1]])

    def estimate(self, members) -> float:
        s = as_cut_query(self.n, members)
        if self.is_verbatim:
            return cut_weight(self.verbatim, s)
        found = self._slice(s)
        if found is None:
            return 0.0
        gs, sizes = self.stored[found[1]], self._plan[3][found[1]]
        if sizes is None:  # nothing contracted: no class can straddle
            contracted = np.empty(self.n, dtype=bool)
            contracted[gs.labels] = s
        else:
            # contraction classes must not straddle the query
            inside = np.bincount(gs.labels[s], minlength=sizes.size)
            if np.any((inside > 0) & (inside < sizes)):
                raise SketchConsistencyError(
                    "a contracted vertex class straddles the query; this query is "
                    "outside the model (or the sketch is corrupt)"
                )
            contracted = inside == sizes
        return sum(poly._answer(contracted[vmap]) for vmap, poly in gs.comps)


def _check_general(sk: CutSketchGeneral) -> str | None:
    """Everything the estimate indexes with must be in range, and every
    query slice j has a stored slice at or before it: a build stores j = 0."""
    top = max((max(u, v) for u, v, _ in sk.tree), default=-1)
    if top >= sk.n:
        return f"forest endpoint {top} outside [0, {sk.n})"
    js = [gs.j for gs in sk.stored]
    if js != sorted(set(js)) or js and js[-1] >= len(sk.tree):
        return f"slice indices {js} not increasing below {len(sk.tree)}"
    if sk.tree and js[:1] != [0]:
        return f"slice indices {js} do not start at 0"
    for gs in sk.stored:
        classes = int(gs.labels.max()) + 1 if gs.labels.size else 0
        if gs.labels.size != sk.n or classes > sk.n:
            return f"contraction labels of slice {gs.j} do not label {sk.n} vertices"
        problem = pairs_problem(gs.comps, classes)
        if problem:
            return f"component map of slice {gs.j}: {problem}"
    return None


serialize.register(
    3,
    composite(
        CutSketchGeneral,
        check=_check_general,
        tree=section(seq(tuple_of(varint, varint, f64))),
        stored=section(
            seq(record(GeneralScale, j=varint, labels=int_array, comps=pairs(section(CUT_POLY_LAYOUT))))
        ),
    ),
)


def _contract(g: WeightedGraph, j_weight: float, n_global: int):
    """Contraction labels and the contracted finite-weight graph for scale j."""
    keep = g.edge_w >= j_weight / n_global**3
    infinite = g.edge_w >= n_global**2 * j_weight
    labels = label_components(g.n, g.edge_u[infinite], g.edge_v[infinite])
    finite = keep & ~infinite
    cu, cv, cw = labels[g.edge_u[finite]], labels[g.edge_v[finite]], g.edge_w[finite]
    loop = cu == cv  # finite edges swallowed by a contraction class
    gp = WeightedGraph(int(labels.max()) + 1, _arrays=(cu[~loop], cv[~loop], cw[~loop]))
    return labels, gp


def cut_sketch_build(
    g: WeightedGraph, epsilon: float, seed: int, *, mode: str = "auto"
) -> CutSketchGeneral:
    """General-weight cut sketch: spanning forest plus basic sketches of the
    polynomially-sliced graphs G'_j selected by the factor-2 halving rule.

    A selected slice whose contraction labels and contracted graph (bit
    for bit) equal those of the last stored slice is not built again: a
    query routes to the last stored j at or below its own, which is that
    equal slice.

    The mode knob mirrors cut_basic_build, and so does the check of the
    total weight.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if _use_verbatim(g.n, g.m, epsilon, mode):
        return CutSketchGeneral(epsilon, g.n, verbatim=g)
    check_total_weight(g)
    tree = mst_max(g)
    stored: list[GeneralScale] = []
    last_w = last = None
    for j, (_, _, wj) in enumerate(tree):
        if last_w is not None and last_w / wj < 2.0:
            continue
        last_w = wj
        labels, gp = _contract(g, wj, g.n)
        if last is not None and last[1] == gp and np.array_equal(last[0], labels):
            continue
        last = labels, gp
        comp_labels = connected_components(gp)
        comps = []
        for lab in range(int(comp_labels.max()) + 1 if gp.n else 0):
            vmask = comp_labels == lab
            if vmask.sum() < 2:
                continue
            sub, vmap = gp.induced_subgraph(vmask)
            poly = cut_basic_build(
                sub, epsilon, derive_seed(seed, "slice", j, "comp", lab), mode=mode
            )
            comps.append((vmap, poly))
        stored.append(GeneralScale(j, labels, comps))
    return CutSketchGeneral(epsilon, g.n, tree=tree, stored=stored)


# ---------------------------------------------------------------------------
# Median amplification


def amplified_estimate(builder, g: WeightedGraph, query, epsilon: float, reps: int, seed: int) -> float:
    """Median of `reps` independent sketch builds' estimates (reps odd)."""
    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be odd and positive")
    vals = []
    for i in range(reps):
        sk = builder(g, epsilon, derive_seed(seed, "rep", i))
        vals.append(sk.estimate(query))
    return float(median(vals))
