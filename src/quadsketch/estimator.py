"""One estimator shape shared by every "for each" sketch.

S1 (cut), S2 and S3 (spectral) pieces and the exactly stored edges of the
composites all answer x^T L x (a cut query is its 0/1 member vector) as

    sum_v diag_v x_v^2 + sum_exact w (x_u - x_v)^2
        - 2 sum_stored w x_u x_v - sum_samples coef x_o x_n.

``piece_estimator`` derives one piece's terms from its stored arrays;
``flatten`` maps them to global ids once and concatenates the pieces, so a
composite answers with a few gathers and dot products instead of a loop
over pieces. Each term is one numpy dot product; the four are added with
math.fsum. Exact edges keep the difference form, so a constant vector gives
exactly 0 on them. Neither checks its input: a decoded sketch was checked
record by record when it was read (``serialize.piece_problem`` and
``serialize.cut_pieces_problem``), and a built one is consistent.

``CutPieces`` is the one shape of a partitioned piece (the cut ladder's
weight classes, the basic spectral classes, S3): cut edges stored exactly
plus a sketch per component; ``sketch_pieces`` fills it from a partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

_NO_IDX = np.empty(0, dtype=np.int64)
_NO_VAL = np.empty(0, dtype=np.float64)
_INDEX_FIELDS = ("eu", "ev", "su", "sv", "pu", "pv")


@dataclass(frozen=True)
class EdgeSampleEstimator:
    n: int
    diag: np.ndarray  # coefficient of x_v^2, one per vertex
    eu: np.ndarray  # exact edges: + ew (x_u - x_v)^2
    ev: np.ndarray
    ew: np.ndarray
    su: np.ndarray  # stored product edges: - 2 sw x_u x_v
    sv: np.ndarray
    sw: np.ndarray
    pu: np.ndarray  # samples: - coef x_o x_n
    pv: np.ndarray
    coef: np.ndarray

    def estimate(self, x: np.ndarray) -> float:
        """x is an already validated float64 vector of length n."""
        d = x[self.eu]
        d -= x[self.ev]
        d *= d
        stored = x[self.su]
        stored *= x[self.sv]
        sampled = x[self.pu]
        sampled *= x[self.pv]
        return math.fsum(
            (
                float(np.dot(self.diag, x * x)),
                float(np.dot(self.ew, d)),
                -2.0 * float(np.dot(self.sw, stored)),
                -float(np.dot(self.coef, sampled)),
            )
        )


def piece_estimator(n: int, *, diag=None, exact=None, stored=None, samples=None) -> EdgeSampleEstimator:
    """Terms of one piece on vertices 0..n-1, for ``flatten``.

    ``exact`` and ``stored`` are (u, v, w) edge arrays. ``samples`` is
    (owner, nbr, scale, *factors): a sample's coefficient is scale[owner]
    times its factors, where scale has one value per vertex.
    """
    if diag is None:
        diag = np.zeros(n)
    edges = []
    for arrays in (exact, stored):
        edges.extend(arrays or (_NO_IDX, _NO_IDX, _NO_VAL))
    pu, pv, coef = _NO_IDX, _NO_IDX, _NO_VAL
    if samples is not None:
        pu, pv, scale, *factors = samples
        coef = scale[pu]
        for f in factors:
            coef = coef * f
    return EdgeSampleEstimator(n, diag, *edges, pu, pv, coef)


class CutPieces:
    """A piece that stores its cut edges (q_u, q_v, q_w) exactly and
    sketches each component: comps is a list of (vertex map, sketch) pairs,
    each sketch with ``estimator_piece()`` and ``word_count()``. The
    dataclasses that inherit it hold these fields."""

    def parts(self, n: int) -> list:
        """``flatten`` parts of the cut edges and components on n vertices."""
        parts = [(None, piece_estimator(n, exact=(self.q_u, self.q_v, self.q_w)))]
        parts.extend((vmap, sk.estimator_piece()) for vmap, sk in self.comps)
        return parts

    def word_count(self) -> int:
        return 3 * int(self.q_u.size) + sum(sk.word_count() for _, sk in self.comps)


def sketch_pieces(part, sketch, vmap=None) -> tuple:
    """(q_u, q_v, q_w, comps) of a ``CutPieces`` record from a partition:
    its cut edges, and (vertex map, sketch(k, component)) for its k-th
    component. With vmap, vertex ids are mapped through it."""
    ids = np.copy if vmap is None else vmap.__getitem__
    comps = [(ids(comp.vmap), sketch(k, comp)) for k, comp in enumerate(part.components)]
    return ids(part.cross_u), ids(part.cross_v), part.cross_w.copy(), comps


def flatten(n: int, parts) -> EdgeSampleEstimator:
    """One estimator on vertices 0..n-1 from (vmap, piece estimator) parts;
    vmap maps piece vertex i to vmap[i], None means the identity."""
    ests = [est for _, est in parts]
    vmaps = [np.arange(n) if vmap is None else vmap for vmap, _ in parts]
    sizes = np.array([est.n for est in ests], dtype=np.int64)
    allmap = np.concatenate([_NO_IDX, *vmaps])
    starts = np.cumsum(sizes) - sizes
    flat = {}
    for field in fields(EdgeSampleEstimator)[1:]:
        name = field.name
        arrays = [getattr(est, name) for est in ests]
        values = np.concatenate([_NO_IDX if name in _INDEX_FIELDS else _NO_VAL, *arrays])
        if name in _INDEX_FIELDS:
            values = allmap[values + np.repeat(starts, [a.size for a in arrays])]
        flat[name] = values
    flat["diag"] = np.bincount(allmap, weights=flat["diag"], minlength=n)
    return EdgeSampleEstimator(n, **flat)
