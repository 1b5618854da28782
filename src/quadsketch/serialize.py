"""Binary sketch envelope.

Layout: magic ``QSK1``, one version byte, one kind byte, then length-prefixed
sections. Integers are unsigned LEB128 varints, floats are little-endian
IEEE-754 doubles (weights are kept exact; byte length of the envelope is the
official size metric of a sketch).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import QuadsketchError
from .graph import DirectedGraph, WeightedGraph

MAGIC = b"QSK1"
VERSION = 1

KINDS = {
    "graph": 0,
    "s1": 1,
    "cut_poly": 2,
    "cut_general": 3,
    "s2": 4,
    "s3": 5,
    "spectral_basic": 6,
    "spectral_improved": 7,
    "jl": 8,
    "sdd": 9,
}
_KIND_NAMES = {v: k for k, v in KINDS.items()}

MAX_VARINT_BYTES = 10  # ceil(64 / 7): a 64-bit value's LEB128 length
_SHIFTS = np.arange(0, 7 * MAX_VARINT_BYTES, 7, dtype=np.uint64)


class Writer:
    def __init__(self):
        self.buf = bytearray()

    def varint(self, x: int) -> None:
        x = int(x)
        if x < 0 or x >> 64:
            raise ValueError("varint must be in [0, 2**64)")
        while True:
            b = x & 0x7F
            x >>= 7
            if x:
                self.buf.append(b | 0x80)
            else:
                self.buf.append(b)
                return

    def f64(self, x: float) -> None:
        self.buf += struct.pack("<d", x)

    def int_array(self, a) -> None:
        """Length, then one varint per entry; entries lie in [0, 2**63)."""
        a = np.asarray(a)
        if a.size and a.min() < 0:
            raise ValueError("varint must be non-negative")
        self.varint(a.size)
        if a.size == 0:
            return
        x = a.astype(np.uint64).reshape(-1, 1)
        # an entry has byte j when j == 0 or any bit at 7j or above is set
        shifts = _SHIFTS[: max(1, (int(x.max()).bit_length() + 6) // 7)]
        groups = ((x >> shifts) & 0x7F).astype(np.uint8)
        size = 1 + np.count_nonzero(x >> shifts[1:], axis=1).reshape(-1, 1)
        j = np.arange(shifts.size)
        groups[j < size - 1] |= 0x80
        self.buf += groups[j < size].tobytes()

    def f64_array(self, a) -> None:
        """Length, then either raw doubles or a small-dictionary encoding.

        Arrays with few distinct values (unit weights, reweighted classes)
        shrink to one byte per entry; the round-trip is bit-exact either way.
        """
        a = np.asarray(a, dtype=np.float64)
        self.varint(a.size)
        if a.size == 0:
            return
        distinct = np.unique(a)
        if distinct.size <= 255 and distinct.size < a.size:
            self.buf.append(1)
            self.buf.append(distinct.size)
            self.buf += distinct.astype("<f8").tobytes()
            idx = np.searchsorted(distinct, a).astype(np.uint8)
            self.buf += idx.tobytes()
        else:
            self.buf.append(0)
            self.buf += a.astype("<f8").tobytes()

    def section(self, payload: bytes) -> None:
        self.varint(len(payload))
        self.buf += payload

    def getvalue(self) -> bytes:
        return bytes(self.buf)


class Reader:
    """Bounds-checked reads: running past the end raises QuadsketchError."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, k: int) -> int:
        """Claim the next k bytes and return their offset."""
        start = self.pos
        if k > len(self.data) - start:
            raise QuadsketchError("truncated sketch data")
        self.pos = start + k
        return start

    def varint(self) -> int:
        data, pos = self.data, self.pos
        x = 0
        for shift in range(0, 7 * MAX_VARINT_BYTES, 7):
            if pos >= len(data):
                raise QuadsketchError("truncated sketch data")
            b = data[pos]
            pos += 1
            x |= (b & 0x7F) << shift
            if not b & 0x80:
                self.pos = pos
                return x
        raise QuadsketchError(f"varint longer than {MAX_VARINT_BYTES} bytes")

    def f64(self) -> float:
        (x,) = struct.unpack_from("<d", self.data, self._take(8))
        return x

    def int_array(self) -> np.ndarray:
        k = self.varint()
        if k == 0:
            return np.empty(0, dtype=np.int64)
        # a varint ends at its first byte below 0x80, so k of them lie in the
        # next 10k bytes; scanning only those keeps a call O(k)
        window = np.frombuffer(
            self.data,
            dtype=np.uint8,
            count=min(MAX_VARINT_BYTES * k, len(self.data) - self.pos),
            offset=self.pos,
        )
        ends = np.flatnonzero(window < 0x80)[:k]
        if ends.size < k:
            raise QuadsketchError("truncated sketch data")
        starts = np.concatenate(([0], ends[:-1] + 1))
        sizes = ends - starts + 1
        if sizes.max() > MAX_VARINT_BYTES:
            raise QuadsketchError(f"varint longer than {MAX_VARINT_BYTES} bytes")
        body = window[: ends[-1] + 1]
        j = np.arange(body.size) - np.repeat(starts, sizes)
        # the tenth byte holds bits 63 and up, which an int64 cannot take
        if np.any(body[j == MAX_VARINT_BYTES - 1]):
            raise QuadsketchError("varint value does not fit in 63 bits")
        groups = (body & 0x7F).astype(np.uint64) << _SHIFTS[j]
        self.pos += body.size
        return np.bitwise_or.reduceat(groups, starts).astype(np.int64)

    def f64_array(self) -> np.ndarray:
        k = self.varint()
        if k == 0:
            return np.empty(0, dtype=np.float64)
        tag = self.data[self._take(1)]
        if tag == 1:
            d = self.data[self._take(1)]
            table = np.frombuffer(self.data, dtype="<f8", count=d, offset=self._take(8 * d))
            idx = np.frombuffer(self.data, dtype=np.uint8, count=k, offset=self._take(k))
            if idx.max() >= d:
                raise QuadsketchError(f"dictionary index {idx.max()} outside a {d}-value table")
            return table.astype(np.float64)[idx]
        if tag != 0:
            raise QuadsketchError(f"unknown f64 array encoding tag {tag}")
        return np.frombuffer(
            self.data, dtype="<f8", count=k, offset=self._take(8 * k)
        ).astype(np.float64)

    def section(self) -> "Reader":
        k = self.varint()
        start = self._take(k)
        return Reader(self.data[start : start + k])


def write_graph(w: Writer, g: WeightedGraph) -> None:
    w.varint(g.n)
    w.varint(g.m)
    w.int_array(g.edge_u)
    w.int_array(g.edge_v)
    w.f64_array(g.edge_w)


def read_graph(r: Reader) -> WeightedGraph:
    n = r.varint()
    m = r.varint()
    u = r.int_array()
    v = r.int_array()
    wts = r.f64_array()
    if u.size != m or v.size != m or wts.size != m:
        raise QuadsketchError("inconsistent graph payload")
    return WeightedGraph(n, _arrays=(u, v, wts))


def write_digraph(w: Writer, g: DirectedGraph) -> None:
    w.varint(g.n)
    w.varint(g.m)
    w.int_array(g.arc_u)
    w.int_array(g.arc_v)
    w.f64_array(g.arc_w)


def read_digraph(r: Reader) -> DirectedGraph:
    n = r.varint()
    r.varint()
    u = r.int_array()
    v = r.int_array()
    wts = r.f64_array()
    return DirectedGraph(n, _arrays=(u, v, wts))


def envelope(kind: str, payload: bytes) -> bytes:
    return MAGIC + bytes([VERSION, KINDS[kind]]) + payload


def open_envelope(data: bytes) -> tuple[str, Reader]:
    if data[:4] != MAGIC:
        raise QuadsketchError("not a quadsketch file (bad magic)")
    if len(data) < 6:
        raise QuadsketchError("truncated sketch header")
    if data[4] != VERSION:
        raise QuadsketchError(f"unsupported format version {data[4]}")
    kind = _KIND_NAMES.get(data[5])
    if kind is None:
        raise QuadsketchError(f"unknown sketch kind byte {data[5]}")
    return kind, Reader(data[6:])


def graph_bytes(g: WeightedGraph) -> bytes:
    w = Writer()
    write_graph(w, g)
    return envelope("graph", w.getvalue())


def graph_from_bytes(data: bytes) -> WeightedGraph:
    kind, r = open_envelope(data)
    if kind != "graph":
        raise QuadsketchError(f"expected a graph payload, found {kind}")
    return read_graph(r)
