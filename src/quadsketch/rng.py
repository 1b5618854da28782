"""Deterministic seed derivation and the one sample draw.

Every randomized operation takes a 64-bit seed. Child streams (per scale,
per component, per repetition) are derived by hashing the parent seed with a
tuple of labels, so results do not depend on build order and parallel
branches stay reproducible. ``draw_counts`` draws the incident-edge samples
of every S1, S2 and S3 piece; an S2 piece or S3 component with no sampling
candidate draws nothing and derives no stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *labels: int | str) -> int:
    """Hash ``seed`` and the label path into a fresh 64-bit seed."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed) & _MASK64).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return int.from_bytes(h.digest(), "little")


def rng_for(seed: int, *labels: int | str) -> np.random.Generator:
    """A PCG64 generator keyed by ``seed`` and a label path."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *labels)))


def draw_counts(rng: np.random.Generator, indptr: np.ndarray, draws: int, p: np.ndarray | None = None) -> np.ndarray:
    """How often each candidate of a CSR table is picked when every non-empty
    row, in row order, draws ``draws`` picks with replacement.

    Row r holds candidates indptr[r]:indptr[r + 1]. With p None the picks are
    uniform, the stream of one rng.integers(0, width, size=draws) call per
    row. Otherwise p[k] is candidate k's probability within its row, and the
    stream is that of one rng.choice(width, size=draws, p=row's p) call per
    row: draws uniforms per row, the row's cdf its sequential cumsum divided
    by its last entry, and a pick the number of cdf entries <= its uniform.
    """
    width = np.diff(indptr)
    rows = np.flatnonzero(width)
    if p is None:
        pick = np.repeat(indptr[rows], draws) + rng.integers(0, np.repeat(width[rows], draws))
    else:
        cdf = np.array(p, dtype=np.float64)
        # every row's cumsum added in sequence, one column at a time, so its
        # bits are those of p[row].cumsum()
        for j in range(1, int(width.max(initial=0))):
            at = indptr[:-1][width > j] + j
            cdf[at] += cdf[at - 1]
        cdf /= np.repeat(cdf[indptr[rows + 1] - 1], width[rows])
        u = rng.random(rows.size * draws)
        # merge cdf entries and uniforms by row, then value, a cdf entry before
        # an equal uniform: the cdf entries ahead of a uniform are its row's
        # offset plus its pick
        row = np.concatenate([np.repeat(np.arange(width.size), width), np.repeat(rows, draws)])
        value = np.concatenate([cdf, u])
        is_u = np.arange(value.size) >= cdf.size
        merged = is_u[np.lexsort((is_u, value, row))]
        pick = np.cumsum(~merged)[merged]
    return np.bincount(pick, minlength=int(indptr[-1]))
