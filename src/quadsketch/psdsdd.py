"""SDD-to-Laplacian reduction and the JL sketch for general PSD matrices.

Dense matrices only (n <= 4096): the point here is the reduction and the
random-projection baseline, not sparse linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadsketchError
from .graph import WeightedGraph, as_spectral_query
from .rng import rng_for
from . import serialize
from .serialize import f64, f64_array, matrix, record, section
from .spectral import IMPROVED_LAYOUT, SpectralImprovedSketch, spectral_improved_build

MATRIX_VERTEX_CAP = 4096
SYMMETRY_TOL = 1e-12
PSD_EIG_TOL = 1e-9
JL_CONSTANT = 8.0  # r = ceil(C_JL * eps^-2 * ln(1/delta))


def check_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] > MATRIX_VERTEX_CAP:
        raise ValueError(f"matrix side exceeds the {MATRIX_VERTEX_CAP} guard")
    if not np.isfinite(a).all():
        # every comparison with NaN is False, so the symmetry, SDD and PSD
        # checks alone let it through
        raise QuadsketchError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.T).max(initial=0.0) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return a


def check_sdd(a: np.ndarray) -> None:
    """Raise naming the first row violating diagonal dominance."""
    off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    slack = np.diag(a) - off
    bad = np.flatnonzero(slack < -1e-9 * max(1.0, float(np.abs(a).max(initial=0.0))))
    if bad.size:
        i = int(bad[0])
        raise QuadsketchError(
            f"matrix is not SDD: row {i} has diagonal {a[i, i]!r} < off-diagonal sum {off[i]!r}"
        )


def check_psd(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, validated against the -1e-9 * ||A|| tolerance."""
    vals, vecs = np.linalg.eigh(a)
    norm = max(float(np.abs(vals).max(initial=0.0)), 1e-300)
    if float(vals.min(initial=0.0)) < -PSD_EIG_TOL * norm:
        raise QuadsketchError(
            f"matrix is not PSD: smallest eigenvalue {vals.min():.3e} "
            f"below tolerance {-PSD_EIG_TOL * norm:.3e}"
        )
    return vals, vecs


def sdd_to_laplacian(a) -> tuple[np.ndarray, WeightedGraph]:
    """Split A = D + B (D diagonal slack, B with row sums of |off-diag| on
    the diagonal) and build the 2n-vertex Laplacian of B's doubled graph.

    Then x^T A x = x^T D x + 0.5 * y^T L y with y = (x, -x): negative entries
    B_ij < 0 become edges (i, j) and (i+n, j+n) of weight -B_ij, positive
    entries become edges (i, j+n) and (j, i+n) of weight B_ij.
    """
    a = check_matrix(a)
    check_sdd(a)
    n = a.shape[0]
    off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    diag_slack = np.diag(a) - off
    iu, ju = np.triu_indices(n, k=1)
    b = a[iu, ju]
    neg, pos = b < 0, b > 0
    # the four groups share no (u, v) pair, so nothing is merged
    u = np.concatenate([iu[neg], iu[neg] + n, iu[pos], ju[pos]])
    v = np.concatenate([ju[neg], ju[neg] + n, ju[pos] + n, iu[pos] + n])
    w = np.concatenate([-b[neg], -b[neg], b[pos], b[pos]])
    return diag_slack, WeightedGraph(2 * n, _arrays=(u, v, w))


def embed_query(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, -x])


# ---------------------------------------------------------------------------
# SDD sketch: reduction composed with the improved spectral sketch


class SddSketch:
    kind = "sdd"

    def __init__(self, diag: np.ndarray, lap_sketch: SpectralImprovedSketch):
        self.diag = diag
        self.lap_sketch = lap_sketch

    @property
    def n(self) -> int:
        return int(self.diag.size)

    def estimate(self, x) -> float:
        x = as_spectral_query(self.n, x)
        exact = float(np.dot(self.diag, x * x))
        return exact + 0.5 * self.lap_sketch.estimator.estimate(embed_query(x))


def _check_sdd(sk: SddSketch) -> str | None:
    """The diagonal slack may be slightly negative (check_sdd's tolerance),
    but not infinite or NaN."""
    if sk.lap_sketch.n != 2 * sk.n:
        return f"side {sk.n} holds a {sk.lap_sketch.n}-vertex sketch"
    return None if np.isfinite(sk.diag).all() else "diagonal slack entries must be finite"


serialize.register(9, record(SddSketch, check=_check_sdd, diag=f64_array, lap_sketch=section(IMPROVED_LAYOUT)))


def sdd_sketch_build(a, epsilon: float, seed: int) -> SddSketch:
    diag, lap = sdd_to_laplacian(a)
    return SddSketch(diag, spectral_improved_build(lap, epsilon, seed))


# ---------------------------------------------------------------------------
# JL sketch for PSD matrices


@dataclass
class JlSketch:
    kind = "jl"

    sb: np.ndarray  # r x n projected factor
    epsilon: float
    delta: float

    @property
    def r(self) -> int:
        return int(self.sb.shape[0])

    @property
    def n(self) -> int:
        return int(self.sb.shape[1])

    def estimate(self, x) -> float:
        x = as_spectral_query(self.n, x)
        v = self.sb @ x
        return float(np.dot(v, v))


def _check_jl(sk: JlSketch) -> str | None:
    if not (0 < sk.epsilon < 1 and 0 < sk.delta < 1):
        return f"epsilon {sk.epsilon!r} and delta {sk.delta!r} must be in (0, 1)"
    # an entry near 1e300 is finite but answers inf: its square overflows
    with np.errstate(over="ignore"):
        norm = float(np.sum(sk.sb * sk.sb))  # NaN or inf where an entry is
    return None if np.isfinite(norm) else "projected factor entries must be finite with a finite squared Frobenius norm"


serialize.register(8, record(JlSketch, check=_check_jl, epsilon=f64, delta=f64, sb=matrix))


def jl_rows(epsilon: float, delta: float) -> int:
    return math.ceil(JL_CONSTANT * epsilon**-2 * math.log(1.0 / delta))


def jl_build(a, epsilon: float, delta: float, seed: int) -> JlSketch:
    """Factor A = B^T B by eigendecomposition (negative eigenvalues clamped
    to 0) and store S B for a Rademacher/sqrt(r) projection S."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must be in (0, 1)")
    a = check_matrix(a)
    vals, vecs = check_psd(a)
    b = (np.sqrt(np.clip(vals, 0.0, None))[:, None]) * vecs.T  # B^T B = A
    r = jl_rows(epsilon, delta)
    rng = rng_for(seed, "jl")
    s = rng.choice((-1.0, 1.0), size=(r, a.shape[0])) / math.sqrt(r)
    return JlSketch(s @ b, float(epsilon), float(delta))


# ---------------------------------------------------------------------------
# Matrix file format: first line "n", then n rows of n decimals.


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise QuadsketchError("empty matrix file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise QuadsketchError("first line of a matrix file must be n") from None
    if len(lines) != n + 1:
        raise QuadsketchError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = [float(tok) for tok in ln.split()]
        if len(row) != n:
            raise QuadsketchError(f"expected {n} entries per row")
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        return parse_matrix(f.read())
