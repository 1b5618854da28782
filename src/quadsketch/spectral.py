"""The "for each" spectral sketches.

* ``S2Sketch``: the one sampled-piece record of the spectral side: degrees,
  stored edges and samples whose coefficient is scale[owner] / draws * y.
  An S2 piece stores every edge at a light vertex; heavy vertices draw about
  eps^{-5/3} weight-proportional samples of their heavy-heavy edges, with
  scale delta_l, the heavy-heavy degree.
* ``SpectralBasicSketch``: sparsify, split into factor-2 weight classes,
  partition each at conductance c_alpha * eps^{1/3}, S2-sketch the pieces and
  store the cut edges exactly. A class with gamma <= eps^2 is all cut
  edges: it stores every edge exactly and sketches no piece.
* ``S3Sketch``: a degree-banded oriented piece: cut edges stored exactly
  plus one S2-shaped record per component. Arcs from low out-degree tails
  are stored, the rest sampled at each head with about eps^{-8/5} draws in
  proportion to weight; the scale is 2 * in_deg, the head's sampled
  in-weight doubled.
* ``SpectralImprovedSketch``: degree-class partition; every class is a
  (vertex map, ``S3Sketch``) pair. Banded classes are S3-sketched; a low or
  verbatim class is an S3 record whose cut edges are all its edges, with no
  components.

S2 and S3 draw their samples with ``rng.draw_counts``, as S1 does, in one
sampling tail (``_sampled_piece``); a piece with no sampling candidate
derives no stream and draws nothing. Every
sketch answers through one flat ``EdgeSampleEstimator``: the
composites map all their pieces to global vertex ids on the first query and
cache the result, and the estimator caches its query plan, so a query is a
few array passes: at most three sums of products, added with math.fsum (see
``estimator``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .estimator import CutPieces, EdgeSampleEstimator, flatten, piece_estimator, sketch_pieces
from .graph import WeightedGraph, as_spectral_query, check_total_weight, weighted_degrees
from .partition import arc_ends, degree_class_partition, spectral_preprocessing
from .rng import derive_seed, draw_counts, rng_for
from . import serialize
from .serialize import Composite, composite, cut_pieces_layout, cut_pieces_problem, edges, f64_array, fields, int_array
from .serialize import first_problem, pairs, pairs_problem, piece_problem, record, section, seq, varint
from .sparsify import SparsifierConfig, factor2_class, sparsify


def _exact(g: WeightedGraph) -> EdgeSampleEstimator:
    return piece_estimator(g.n, exact=(g.edge_u, g.edge_v, g.edge_w))


# ---------------------------------------------------------------------------
# S2: light/heavy split with heavy-heavy sampling


@dataclass
class S2Sketch:
    """One sampled piece: degrees, stored edges and weighted samples. A
    sample's coefficient is scale[owner] / draws * y."""

    draws: int  # picks at each sampling vertex, the normalization
    diag: np.ndarray  # weighted degrees
    su: np.ndarray  # stored edges
    sv: np.ndarray
    sw: np.ndarray
    scale: np.ndarray  # per vertex: delta_l in S2, 2 * in_deg in S3 (0 where nothing is sampled)
    owner: np.ndarray  # flattened samples: sampling vertex
    nbr: np.ndarray  # sampled neighbour
    y: np.ndarray  # multiplicity

    @property
    def n(self) -> int:
        return int(self.diag.size)

    def estimator_piece(self) -> EdgeSampleEstimator:
        return piece_estimator(
            self.n,
            diag=self.diag,
            stored=(self.su, self.sv, self.sw),
            samples=(self.owner, self.nbr, self.scale / self.draws, self.y),
        )

    def estimate(self, x) -> float:
        return flatten(self.n, [(None, self.estimator_piece())]).estimate(as_spectral_query(self.n, x))


S2_LAYOUT = record(
    S2Sketch,
    fields(draws=varint, diag=f64_array),
    edges("su", "sv", "sw"),
    check=lambda sk: piece_problem(
        sk.draws, sk.diag, sk.scale, (sk.su, sk.sv, sk.sw), "stored", (sk.owner, sk.nbr, sk.y)
    ),
    scale=f64_array, owner=int_array, nbr=int_array, y=int_array,
)
S2_PIECES = cut_pieces_layout(S2_LAYOUT)


def _sampled_piece(draws, diag, stored, scale, candidates, seed, *labels) -> S2Sketch:
    """The S2Sketch of degrees diag, stored edges (u, v, w) and sample
    scales scale. candidates is (owner, nbr, p): each candidate's sampling
    vertex, ascending, its neighbour and its probability within its owner's
    row; every owner draws ``draws`` of them from rng_for(seed, *labels).
    With candidates None no vertex samples: no stream is derived and nothing
    is drawn."""
    if candidates is None:
        owner = nbr = y = np.empty(0, dtype=np.int64)
    else:
        owner, nbr, p = candidates
        rows = np.searchsorted(owner, np.arange(diag.size + 1))
        counts = draw_counts(rng_for(seed, *labels), rows, draws, p)
        hit = np.flatnonzero(counts)
        owner, nbr, y = owner[hit], nbr[hit], counts[hit]
    return S2Sketch(draws, diag, *stored, scale, owner, nbr, y)


def spectral_s2_build(p: WeightedGraph, epsilon: float, seed: int, *, alpha: float | None = None) -> S2Sketch:
    """Store every edge at a light vertex (delta <= min weight * alpha);
    draw ceil(alpha) heavy-heavy edges at each heavy vertex u with
    probability w / delta_l[u]. alpha defaults to eps^{-5/3}."""
    if alpha is None:
        alpha = epsilon ** (-5.0 / 3.0)
    draws = math.ceil(alpha)
    delta = weighted_degrees(p.n, p.edge_u, p.edge_v, p.edge_w)
    gamma = float(p.edge_w.min()) if p.m else 0.0
    light = delta <= gamma * alpha
    hh = ~(light[p.edge_u] | light[p.edge_v])
    delta_l = weighted_degrees(p.n, p.edge_u[hh], p.edge_v[hh], p.edge_w[hh])
    candidates = None
    if hh.any():
        # each heavy vertex's heavy neighbours, in adjacency order
        indptr, others, eids = p._adjacency()
        keep = hh[eids]
        owner = np.repeat(np.arange(p.n), np.diff(indptr))[keep]
        candidates = (owner, others[keep], p.edge_w[eids[keep]] / delta_l[owner])
    stored = (p.edge_u[~hh], p.edge_v[~hh], p.edge_w[~hh])
    return _sampled_piece(draws, delta, stored, delta_l, candidates, seed, "s2")


# ---------------------------------------------------------------------------
# Basic composite: weight classes + conductance partition + S2 pieces


@dataclass
class BasicClass(CutPieces):
    q_u: np.ndarray  # cut edges, global ids; every edge of a gamma <= eps^2 class
    q_v: np.ndarray
    q_w: np.ndarray
    comps: list[tuple[np.ndarray, S2Sketch]]  # (component vertex -> global id, S2 piece)


class SpectralBasicSketch(Composite):
    kind = "spectral_basic"

    def __init__(self, epsilon, n, verbatim=None, classes=None):
        super().__init__(epsilon, n, verbatim)
        self.classes: list[BasicClass] = classes if classes is not None else []

    @cached_property
    def estimator(self) -> EdgeSampleEstimator:
        """Every class, cut edge and S2 piece in one flat estimator."""
        if self.is_verbatim:
            return flatten(self.n, [(None, _exact(self.verbatim))])
        return flatten(self.n, [p for cls in self.classes for p in cls.parts(self.n)])

    def estimate(self, x) -> float:
        x = as_spectral_query(self.n, x)  # before the estimator allocates n entries
        return self.estimator.estimate(x)


serialize.register(
    6,
    composite(
        SpectralBasicSketch,
        check=lambda sk: first_problem(cut_pieces_problem(cls, sk.n) for cls in sk.classes),
        classes=section(seq(record(BasicClass, S2_PIECES))),
    ),
)


def spectral_basic_build(
    g: WeightedGraph, epsilon: float, seed: int, *, c_alpha: float = 1.0
) -> SpectralBasicSketch:
    """Sparsify, then per factor-2 weight class partition at conductance
    h = c_alpha * eps^{1/3} and S2-sketch every piece. A graph whose total
    weight, doubled, is not finite raises QuadsketchError."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if g.n < 2 or g.m == 0 or epsilon <= 1.0 / g.n:
        return SpectralBasicSketch(epsilon, g.n, verbatim=g)
    check_total_weight(g)
    g2 = sparsify(g, SparsifierConfig(epsilon, "spectral", derive_seed(seed, "sparsify")))
    if g2.m == 0:
        return SpectralBasicSketch(epsilon, g.n, verbatim=g2)
    h = c_alpha * epsilon ** (1.0 / 3.0)
    alpha = c_alpha * epsilon ** (-5.0 / 3.0)
    wcls = factor2_class(g2.edge_w, g2.edge_w.min())
    classes = []
    for j in np.flatnonzero(np.bincount(wcls)):
        eidx = np.flatnonzero(wcls == j)
        sub, vmap = g2.edge_subgraph(eidx)
        gamma = float(sub.edge_w.min())
        if gamma <= epsilon**2:
            # the S1/S2 analysis needs gamma > eps^2; store the class exactly
            classes.append(BasicClass(vmap[sub.edge_u], vmap[sub.edge_v], sub.edge_w, []))
            continue
        pieces = sketch_pieces(
            spectral_preprocessing(sub, h),
            lambda k, comp: spectral_s2_build(
                comp.graph, epsilon, derive_seed(seed, "cls", int(j), "comp", k), alpha=alpha
            ),
            vmap,
        )
        classes.append(BasicClass(*pieces))
    return SpectralBasicSketch(epsilon, g.n, classes=classes)


# ---------------------------------------------------------------------------
# S3: degree-banded oriented pieces


@dataclass
class S3Sketch(CutPieces):
    n: int
    q_u: np.ndarray  # cut edges of the conductance partition, stored exactly
    q_v: np.ndarray
    q_w: np.ndarray
    comps: list[tuple[np.ndarray, S2Sketch]]  # (component vertex -> piece vertex, component)

    def estimator_piece(self) -> EdgeSampleEstimator:
        """Cut edges and components on the piece's vertices."""
        return flatten(self.n, self.parts(self.n))

    def estimate(self, x) -> float:
        return self.estimator_piece().estimate(as_spectral_query(self.n, x))


S3_LAYOUT = record(S3Sketch, fields(n=varint), S2_PIECES, check=lambda sk: cut_pieces_problem(sk, sk.n))


def spectral_s3_build(
    p: WeightedGraph,
    flip: np.ndarray,
    epsilon: float,
    kappa: int,
    seed: int,
    *,
    beta: float | None = None,
) -> S3Sketch:
    """Sketch one degree-band piece p, whose buddy orientation is the mask
    flip (flip[e]: the arc runs p.edge_v[e] -> p.edge_u[e]).

    The conductance partition runs at h = 2^-kappa. In each component an arc
    is stored when its tail's out-degree is below 2^(kappa-1) * beta and
    sampled otherwise; each head u of sampled arcs draws ceil(beta) of its
    sampled in-arcs with probability w / in_deg[u], where in_deg is the
    weight of the head's sampled in-arcs (0 at vertices that head none).
    A component is stored as an S2Sketch: undirected degrees, the stored
    arcs, and scale 2 * in_deg. beta defaults to eps^{-8/5}.
    """
    if beta is None:
        beta = epsilon ** (-8.0 / 5.0)
    draws = math.ceil(beta)
    threshold = (2.0 ** (kappa - 1)) * beta

    def component(k: int, comp) -> S2Sketch:
        size, ws = comp.graph.n, comp.graph.edge_w
        tails, heads = arc_ends(comp.graph, flip[comp.edge_idx])
        sampled = np.bincount(tails, minlength=size)[tails] >= threshold
        in_deg = np.bincount(heads[sampled], weights=ws[sampled], minlength=size)
        candidates = None
        if sampled.any():
            # each head's sampled in-arcs, in arc order
            order = np.flatnonzero(sampled)[np.argsort(heads[sampled], kind="stable")]
            owner = heads[order]
            candidates = (owner, tails[order], ws[order] / in_deg[owner])
        stored = ~sampled
        return _sampled_piece(
            draws, weighted_degrees(size, tails, heads, ws), (tails[stored], heads[stored], ws[stored]),
            2.0 * in_deg, candidates, seed, "s3", k,
        )

    return S3Sketch(p.n, *sketch_pieces(spectral_preprocessing(p, 2.0 ** (-kappa)), component))


# ---------------------------------------------------------------------------
# Improved composite: degree-class partition + S3 pieces


class SpectralImprovedSketch(Composite):
    kind = "spectral_improved"

    def __init__(self, epsilon, n, verbatim=None, classes=None):
        super().__init__(epsilon, n, verbatim)
        # (piece vertex -> original vertex, S3 record) per degree class
        self.classes: list[tuple[np.ndarray, S3Sketch]] = classes if classes is not None else []

    @cached_property
    def estimator(self) -> EdgeSampleEstimator:
        """Every class's cut edges and S3 components in one flat estimator."""
        if self.is_verbatim:
            return flatten(self.n, [(None, _exact(self.verbatim))])
        return flatten(self.n, [(vmap, s3.estimator_piece()) for vmap, s3 in self.classes])

    def estimate(self, x) -> float:
        x = as_spectral_query(self.n, x)  # before the estimator allocates n entries
        return self.estimator.estimate(x)


IMPROVED_LAYOUT = composite(
    SpectralImprovedSketch, check=lambda sk: pairs_problem(sk.classes, sk.n), classes=section(pairs(S3_LAYOUT))
)
serialize.register(7, IMPROVED_LAYOUT)


def spectral_improved_build(
    g: WeightedGraph,
    epsilon: float,
    seed: int,
    *,
    c_beta: float = 1.0,
) -> SpectralImprovedSketch:
    """Degree-class partition; banded pieces get S3 sketches, the rest is
    stored exactly as S3 records of cut edges only. A graph whose total
    weight, doubled, is not finite raises QuadsketchError."""
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must be in (0, 1/2)")
    if g.n < 2 or g.m == 0 or epsilon <= 1.0 / g.n:
        return SpectralImprovedSketch(epsilon, g.n, verbatim=g)
    check_total_weight(g)
    dcp = degree_class_partition(g, epsilon, derive_seed(seed, "partition"), c_beta=c_beta)
    beta = c_beta * epsilon ** (-8.0 / 5.0)
    classes = []
    for ci, dc in enumerate(dcp.classes):
        p = dc.piece
        if dc.kind in ("verbatim", "low"):
            s3 = S3Sketch(p.n, p.edge_u, p.edge_v, p.edge_w, [])
        else:
            s3 = spectral_s3_build(p, dc.flip, epsilon, dc.band, derive_seed(seed, "class", ci), beta=beta)
        classes.append((dc.vmap, s3))
    return SpectralImprovedSketch(epsilon, g.n, classes=classes)
