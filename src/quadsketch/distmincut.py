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
removed (Karger & Stein, JACM 1996). `karger_cut` finds that split for all
rounds at once with Prim's algorithm from vertex 0 run in lockstep: Prim
adds the largest tree edge only after every vertex on vertex 0's side, since
until then a lighter tree edge leaves the grown part, so the other side is
exactly the vertices added from the largest-key step on. The keys are the
same draws in the same order as one contraction per round, so the sides, the
candidate list and the protocol transcript are the same as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cutsketch import CutSketchGeneral, cut_sketch_build
from .errors import QuadsketchError
from .graph import WeightedGraph, cut_weight, is_connected
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


KARGER_CHUNK_BYTES = 1 << 23  # dense key buffer for one chunk of rounds
NON_EDGE_KEY = np.finfo(np.float64).max  # above every drawn key, below the done mark


def karger_cut(g: WeightedGraph, rng, rounds: int) -> np.ndarray:
    """`rounds` weighted random-contraction runs as a (rounds, n) bool array;
    row r is run r's side without vertex 0: the vertices Prim adds from the
    largest-key step on (see the module docstring). Non-edges hold
    NON_EDGE_KEY, so on a disconnected graph the side is the complement of
    vertex 0's component."""
    n = g.n
    sides = np.zeros((rounds, n), dtype=bool)
    if n < 2:
        return sides
    chunk = max(1, min(rounds, KARGER_CHUNK_BYTES // (8 * n * n)))
    # every round has the same edge slots, so one buffer serves all chunks
    dense = np.full((chunk * n, n), NON_EDGE_KEY)
    base = np.arange(chunk) * n  # row of (round, vertex 0) in dense
    slots = [(base * n)[:, None] + pos for pos in (g.edge_u * n + g.edge_v, g.edge_v * n + g.edge_u)]
    for lo in range(0, rounds, chunk):
        c = min(chunk, rounds - lo)
        # chunk by chunk, the draws are the same stream as one draw per round
        keys = rng.exponential(1.0, size=(c, g.m))
        keys /= g.edge_w
        for slot in slots:
            dense.reshape(-1)[slot[:c]] = keys
        done = np.zeros((c, n))  # 0 while open, inf once in the tree
        done[:, 0] = np.inf
        dist = np.maximum(dense[base[:c]], done)
        order = np.empty((c, n - 1), dtype=np.int64)
        step_key = np.empty((c, n - 1))
        for step in range(n - 1):
            v = dist.argmin(axis=1)
            order[:, step] = v
            at = base[:c] + v  # flat (round, v) index into dist and done
            step_key[:, step] = dist.reshape(-1)[at]
            done.reshape(-1)[at] = np.inf
            np.minimum(dist, dense[at], out=dist)
            np.maximum(dist, done, out=dist)
        after = np.arange(n - 1) >= step_key.argmax(axis=1)[:, None]
        sides[lo + np.arange(c)[:, None], order] = after
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
    packed = np.unique(np.packbits(sides, axis=1), axis=0)
    unique = np.unpackbits(packed, axis=1, count=n).astype(bool)
    candidates = [s for s in unique if cut_weight(merged, s) <= limit + 1e-12]
    return candidates, best_val


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

