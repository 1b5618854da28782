"""Simulated multi-server minimum-cut protocol.

Edges are partitioned across k servers. Each server sends serialized
messages to an in-process coordinator: an amplified "for each" cut sketch of
its share (accuracy eps) and a classical cut sparsifier at fixed accuracy
0.2. The coordinator merges the sparsifiers (cut sparsifiers compose
additively under graph union), enumerates every cut within factor 1.5 of the
merged minimum (exhaustively for n <= 20, by repeated random contraction
above), scores each candidate as the sum of the servers' median sketch
estimates, and returns the argmin. Message bytes are what the experiment
measures; there is no real networking.

Random contraction draws an exponential key per edge (rate = weight) and
contracts edges in increasing key order until two super-vertices remain.
That is Kruskal's algorithm stopped one edge early, so the two sides are
those of the minimum spanning tree under the keys with its largest-key edge
removed (Karger & Stein, JACM 1996). In most rounds one side is a single
vertex (about 94 % on a dense G(64, 0.35)), and `karger_cut` proves that
first. Let t* be the largest of the vertices' lightest incident keys and v*
the first vertex that has it. If the edges with key below t* connect
V∖{v*}, the side is {v*}, written as V∖{0} when v* = 0. The test is
exact, also with tied keys: v* has no edge below t*, so Kruskal has merged
V∖{v*} into one super-vertex, with v* alone, before it reaches any key of
t* or more; and Prim from vertex 0 reaches every other vertex by steps
below t*, adding v* last (or first, when v* = 0) by the one step of key t*.
The test holds each vertex's neighbours below t* as one 64-bit mask, made
for a chunk of rounds by one float32 GEMM of the rounds' below-t* edge
flags against 2^u weights in groups of 22 bits, so every sum is exact. A
BFS over the masks then tests V∖{v*}. Graphs of more than 64 vertices and
disconnected graphs skip the test.

The rounds the test leaves run Prim's algorithm from vertex 0 in lockstep:
Prim adds the largest tree edge only after every vertex on vertex 0's side,
since until then a lighter tree edge leaves the grown part, so the other
side is exactly the vertices added from the largest-key step on. The keys
are the same draws in the same order as one contraction per round, so the
sides, the candidate list and the protocol transcript are the same as
well. (Only tied keys, which continuous draws almost never give, can let
Prim and a contraction loop's tie order split a round differently.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cutsketch import CutSketchGeneral, cut_sketch_build
from .errors import QuadsketchError
from .graph import WeightedGraph, is_connected
from .oracle import enumerate_cut_values, mask_members, min_cut_exact
from .rng import derive_seed, rng_for
from .serialize import encode
from .sparsify import SparsifierConfig, sparsify

SPARSIFIER_ACCURACY = 0.2
NEAR_MIN_FACTOR = 1.5
EXHAUSTIVE_CANDIDATE_CAP = 20
DEFAULT_VERTEX_GUARD = 64
STRATEGIES = ("round_robin", "random", "by_vertex_hash")


def partition_edges(g: WeightedGraph, k: int, strategy: str = "round_robin", seed: int = 0):
    """Partition edge indices into k subsets; deterministic given seed."""
    if k < 1:
        raise ValueError("need at least one server")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    m = g.m
    if strategy == "round_robin":
        owner = np.arange(m, dtype=np.int64) % k
    elif strategy == "random":
        owner = rng_for(seed, "edge-partition").integers(0, k, size=m)
    else:
        owner = np.array(
            [derive_seed(seed, "vh", int(u), int(v)) % k for u, v in zip(g.edge_u, g.edge_v)],
            dtype=np.int64,
        )
    return [np.flatnonzero(owner == i) for i in range(k)]


@dataclass
class ServerShare:
    server_id: int
    graph: WeightedGraph  # the share, on the full vertex set
    sketches: list[CutSketchGeneral]  # reps independent builds
    sparsifier: WeightedGraph

    def estimate(self, members) -> float:
        vals = sorted(sk.estimate(members) for sk in self.sketches)
        return vals[len(vals) // 2]


@dataclass
class ProtocolTranscript:
    n: int
    m: int
    k: int
    epsilon: float
    reps: int
    seed: int
    sketch_bytes: list[int]
    sparsifier_bytes: list[int]
    candidate_count: int
    best_members: np.ndarray
    best_estimate: float
    merged_min_cut: float
    info: dict = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.sketch_bytes) + sum(self.sparsifier_bytes)


KARGER_CHUNK_BYTES = 1 << 23  # key buffers of one chunk of rounds
NON_EDGE_KEY = np.finfo(np.float64).max  # above every drawn key, below the done mark
MASK_BITS = 64  # the singleton test holds each vertex's neighbours in one uint64
GROUP_BITS = 22  # neighbour bits per float32 GEMM sum, which is exact below 2^24


def _singleton_tables(g: WeightedGraph):
    """The singleton test's tables for g: each vertex's incident edge ids,
    padded by repeating its last one, and an (n * groups, m) float32 matrix
    whose row (v, j) holds 2^(u - j * GROUP_BITS) at each edge (u, v) with u
    in bit group j. None where no round can pass: n > MASK_BITS or g
    disconnected."""
    n, m = g.n, g.m
    if n > MASK_BITS or not is_connected(g):
        return None
    ends = np.concatenate([g.edge_u, g.edge_v])
    other = np.concatenate([g.edge_v, g.edge_u])
    deg = np.bincount(ends, minlength=n)
    # vertex v's edge ends in edge order, then its last one again
    at = (np.cumsum(deg) - deg)[:, None] + np.minimum(np.arange(deg.max()), deg[:, None] - 1)
    pos = np.argsort(ends, kind="stable")[at]
    groups = -(-n // GROUP_BITS)
    bits = np.zeros((n * groups, m), dtype=np.float32)
    bits[ends * groups + other // GROUP_BITS, np.arange(2 * m) % m] = np.ldexp(1.0, other % GROUP_BITS)
    return pos % m, bits


def _certified_singletons(keys: np.ndarray, tables) -> np.ndarray:
    """Per round (row of keys), the vertex v* whose singleton the test
    proves to be the side, or -1 (see the module docstring)."""
    incident, bits = tables
    n, c = incident.shape[0], keys.shape[0]
    by_edge = keys.T.copy()  # (m, c): the gather below copies whole rows
    nearest = by_edge[incident].min(axis=1)  # (n, c)
    star = nearest.argmax(axis=0)  # v*
    below = (by_edge < nearest[star, np.arange(c)]).astype(np.float32)
    # each sum is of distinct powers of two below 2^GROUP_BITS, so exact
    sums = (bits @ below).reshape(n, -1, c)
    nbr = sums[:, 0].astype(np.uint64)  # (n, c) neighbour masks below t*
    for j in range(1, sums.shape[1]):
        nbr |= sums[:, j].astype(np.uint64) << np.uint64(j * GROUP_BITS)
    one = np.uint64(1)
    shift = np.arange(n, dtype=np.uint64)[:, None]
    reach = np.where(star == 0, np.uint64(2), one)  # BFS from vertex 0, or 1 if v* = 0
    frontier = reach.copy()
    while frontier.any():
        grown = np.bitwise_or.reduce(nbr * ((frontier >> shift) & one), axis=0)
        frontier = grown & ~reach
        reach |= grown
    rest = np.uint64((1 << n) - 1) ^ (one << star.astype(np.uint64))
    return np.where(reach == rest, star, -1)


def _prim_sides(keys: np.ndarray, slot: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Lockstep Prim from vertex 0 over the rounds of keys (see the module
    docstring); slot maps each (u, v) of the n x n key matrix to its edge
    id, or to m for non-edges and the diagonal; dense is a buffer of at
    least keys.shape[0] * n rows."""
    c, m = keys.shape
    n = dense.shape[1]
    padded = np.empty((c, m + 1))
    padded[:, :m] = keys
    padded[:, m] = NON_EDGE_KEY
    dense = dense[: c * n]
    np.take(padded, slot, axis=1, out=dense.reshape(c, n * n), mode="clip")
    base = np.arange(c) * n  # row of (round, vertex 0) in dense
    done = np.zeros((c, n))  # 0 while open, inf once in the tree
    done[:, 0] = np.inf
    dist = np.maximum(dense[base], done)
    order = np.empty((c, n - 1), dtype=np.int64)
    step_key = np.empty((c, n - 1))
    for step in range(n - 1):
        v = dist.argmin(axis=1)
        order[:, step] = v
        at = base + v  # flat (round, v) index into dist and done
        step_key[:, step] = dist.reshape(-1)[at]
        done.reshape(-1)[at] = np.inf
        np.minimum(dist, dense[at], out=dist)
        np.maximum(dist, done, out=dist)
    sides = np.zeros((c, n), dtype=bool)
    sides[np.arange(c)[:, None], order] = np.arange(n - 1) >= step_key.argmax(axis=1)[:, None]
    return sides


def karger_cut(g: WeightedGraph, rng, rounds: int) -> np.ndarray:
    """`rounds` weighted random-contraction runs as a (rounds, n) bool array;
    row r is run r's side without vertex 0 (see the module docstring): {v*}
    where the singleton test proves it, else the vertices that lockstep Prim
    adds from the largest-key step on. Prim runs on the rounds the test
    leaves, a chunk of them at a time. Non-edges hold NON_EDGE_KEY, so on a
    disconnected graph the side is the complement of vertex 0's
    component."""
    n, m = g.n, g.m
    sides = np.zeros((rounds, n), dtype=bool)
    if n < 2:
        return sides
    chunk = max(1, min(rounds, KARGER_CHUNK_BYTES // (8 * n * n)))
    tables = _singleton_tables(g)
    slot = np.full((n, n), m)
    slot[g.edge_u, g.edge_v] = slot[g.edge_v, g.edge_u] = np.arange(m)
    slot = slot.reshape(-1)
    dense = np.empty((chunk * n, n))
    rows, held = [], []  # the rounds left to Prim and their keys
    for lo in range(0, rounds, chunk):
        c = min(chunk, rounds - lo)
        # chunk by chunk, the draws are the same stream as one draw per round
        keys = rng.standard_exponential(size=(c, m))
        keys /= g.edge_w
        single = np.full(c, -1) if tables is None else _certified_singletons(keys, tables)
        sides[lo + np.flatnonzero(single == 0), 1:] = True
        hit = np.flatnonzero(single > 0)
        sides[lo + hit, single[hit]] = True
        rows.append(lo + np.flatnonzero(single < 0))
        held.append(keys[single < 0])
        last = lo + c == rounds
        if last or sum(map(len, rows)) >= chunk:
            r, k = np.concatenate(rows), np.concatenate(held)
            cut = r.size if last else r.size - r.size % chunk
            for s in range(0, cut, chunk):
                sides[r[s : s + chunk]] = _prim_sides(k[s : s + chunk], slot, dense)
            rows, held = [r[cut:]], [k[cut:]]  # fewer than chunk
    return sides


def near_min_cut_candidates(
    merged: WeightedGraph, seed: int, karger_rounds: int | None = None
) -> tuple[list[np.ndarray], float]:
    """All cuts within NEAR_MIN_FACTOR of the merged minimum (n <= 20), or a
    sampled superset built from Stoer-Wagner, singletons and Karger runs.

    Each cut is given by its side without vertex 0; the list is sorted by
    that side's bytes."""
    n = merged.n
    best_val, best_members = min_cut_exact(merged)
    limit = NEAR_MIN_FACTOR * best_val
    if n <= EXHAUSTIVE_CANDIDATE_CAP:
        masks, vals = enumerate_cut_values(merged)
        sides = mask_members(masks[vals <= limit + 1e-12], n)
    else:
        if karger_rounds is None:
            karger_rounds = max(256, 2 * n * math.ceil(math.log2(max(n, 2))))
        karger = karger_cut(merged, rng_for(seed, "karger"), karger_rounds)
        sides = np.vstack([best_members, np.eye(n, dtype=bool), karger])
    sides = sides ^ sides[:, :1]  # flip rows that hold vertex 0
    sides = sides[sides.any(axis=1)]
    # unique packed rows come out in lexicographic order, which is the bool
    # rows' byte order
    packed = np.packbits(sides, axis=1)
    if n <= 64:
        # rows of at most 8 bytes, zero-padded, are big-endian uint64 keys
        # that sort in that same order
        keys = np.zeros((packed.shape[0], 8), dtype=np.uint8)
        keys[:, : packed.shape[1]] = packed
        keys = np.unique(keys.view(">u8").ravel().astype(np.uint64))
        packed = keys.astype(">u8").view(np.uint8).reshape(-1, 8)
    else:
        packed = np.unique(packed, axis=0)
    unique = np.unpackbits(packed, axis=1, count=n).astype(bool)
    # each row's crossing weights summed as cut_weight sums them, bit for bit
    crossing = unique[:, merged.edge_u] != unique[:, merged.edge_v]
    cut = np.array([merged.edge_w.compress(row).sum() for row in crossing])
    return list(unique[cut <= limit + 1e-12]), best_val


def run_protocol(
    g: WeightedGraph,
    k: int,
    epsilon: float,
    reps: int = 9,
    seed: int = 0,
    *,
    strategy: str = "round_robin",
    vertex_guard: int = DEFAULT_VERTEX_GUARD,
    karger_rounds: int | None = None,
) -> ProtocolTranscript:
    """Run the full protocol and account every transmitted byte."""
    if g.n > vertex_guard:
        raise QuadsketchError(f"protocol guard: n={g.n} exceeds {vertex_guard}")
    if not is_connected(g):
        raise QuadsketchError("protocol requires a connected input graph")
    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be odd and positive")
    shares = []
    sketch_bytes = []
    sparsifier_bytes = []
    reps_transmitted = reps
    for i, eidx in enumerate(partition_edges(g, k, strategy, seed)):
        share_graph = WeightedGraph(
            g.n, _arrays=(g.edge_u[eidx], g.edge_v[eidx], g.edge_w[eidx])
        )
        first = cut_sketch_build(share_graph, epsilon, derive_seed(seed, "server", i, "rep", 0))
        if first.is_verbatim:
            # deterministic sketch: all repetitions are byte-identical, so a
            # single copy is transmitted and the median is a no-op
            sketches = [first]
            reps_transmitted = 1
        else:
            sketches = [first] + [
                cut_sketch_build(share_graph, epsilon, derive_seed(seed, "server", i, "rep", r))
                for r in range(1, reps)
            ]
        sparsifier = sparsify(
            share_graph,
            SparsifierConfig(
                SPARSIFIER_ACCURACY, "cut", derive_seed(seed, "server", i, "sparsifier")
            ),
        )
        shares.append(ServerShare(i, share_graph, sketches, sparsifier))
        sketch_bytes.append(sum(len(sk.to_bytes()) for sk in sketches))
        sparsifier_bytes.append(len(encode("graph", sparsifier)))
    merged = WeightedGraph(
        g.n,
        _arrays=(
            np.concatenate([s.sparsifier.edge_u for s in shares]),
            np.concatenate([s.sparsifier.edge_v for s in shares]),
            np.concatenate([s.sparsifier.edge_w for s in shares]),
        ),
    )
    candidates, merged_min = near_min_cut_candidates(merged, seed, karger_rounds)
    if not candidates:
        raise QuadsketchError("no candidate cuts found (degenerate input)")
    best_members = None
    best_score = math.inf
    for members in candidates:
        score = sum(share.estimate(members) for share in shares)
        if score < best_score:
            best_score = score
            best_members = members
    return ProtocolTranscript(
        g.n,
        g.m,
        k,
        float(epsilon),
        reps,
        seed,
        sketch_bytes,
        sparsifier_bytes,
        len(candidates),
        best_members,
        float(best_score),
        float(merged_min),
        info={"strategy": strategy, "reps_transmitted": reps_transmitted},
    )

