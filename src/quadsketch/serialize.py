"""Binary sketch envelope and the one codec that writes and reads it.

Envelope: magic ``QSK1``, one version byte (``VERSION``; other versions are
rejected), one kind byte, then the payload. Integers are unsigned LEB128
varints, floats little-endian IEEE-754 doubles (weights are kept exact; the
byte length of the envelope is the official size metric of a sketch, so a
layout holds, in the shape the estimator reads, only what a query or a
decoder check reads). Version 2 stored S2 pieces and S3 components as one
record; version 3 makes every class of a composite the record it decodes
to (one ``S3Sketch`` per improved class, one cut-pieces record per basic
class) and drops what version 2 stored twice or no query read: the copy of
the cut-ladder scale values, class kind tags, the envelopes inside
envelopes, the S1 eps and the JL seed.

Version 4 writes every edge list (a graph record, a cut-pieces record's
q_u/q_v/q_w, an S2 record's su/sv/sw) with one order-preserving codec,
``edges``: m once, then (m > 0) a form byte. PLAIN is two varint columns.
CANONICAL, for pairs (u, v) with u <= v that strictly increase, stores the
rows that hold an edge (the distinct u, as gaps) with their edge counts,
then per edge the gap of its v to the v before it in its row (to the row
itself for the row's first edge). Weights stay an f64 array. Nothing is
sorted, so a list decodes to the arrays it was written from. An f64 array's
dictionary holds IEEE bit patterns, so every f64 round-trip is bit-exact.

Version 5 gives each form one rule: a list of at most ``SHORT_ARRAY`` edges,
or with an entry where u > v, is PLAIN; a longer list is CANONICAL when its
pairs strictly increase and that form is shorter. It also stores each
piece's vertex count once: a (vertex map, piece) pair is the piece, then
``piece.n`` map entries with no count of their own.

Version 6 stores each cut edge of a cut_poly sketch once. The sketch writes
one Q edge table, the input edges (u, v, w) that some stored class keeps
exactly, in edge order, and each class lists its cut edges as strictly
increasing rows of it (``ascending``: the first row, then the gaps). The
decoder takes a class's q_u and q_v from the table and recomputes its q_w
from the table weight, the scale value c and eps with the build's own
expression (``partition.reweight``), so the decoded arrays are those version
5 decoded. An f64 array of one value writes its pattern and no index bytes.

Version 7 writes an S1 sample table as draws (``draw_table``): s, delta and
deg, then, for each vertex v with deg[v] > 0 in order, its s draws t = (nbr
- v - 1) mod n with their repeats (the first t, then the gap to each next
one, 0 for a repeat), then w, one weight per distinct draw. Every such
vertex draws exactly s samples, so the owners and the stream's length are
implicit. A canonical piece's adjacency lists the neighbours above v, then
those below it, each ascending, so the built t strictly increase along a
row: the decoder rebuilds owner, nbr and y (the run lengths) with one
cumsum, and they equal the arrays version 6 decoded.

Each sketch class states its layout once, in wire order, as a ``Codec``
built from the vocabulary below; ``register`` gives it a kind byte and its
``to_bytes``/``from_bytes`` methods, and ``encode``/``decode`` walk that one
layout both ways.

* Fields: ``f64``, ``varint``, ``int_array``/``f64_array`` (a count, then
  the entries), ``graph`` (n, then its edge list) and ``mapped(codec,
  to_wire, from_wire)`` conversions such as ``matrix`` (rows, columns,
  entries) and ``ascending`` (increasing ints as gaps).
* ``seq(item)``: a count, then the items; ``tuple_of(a, b, ...)``;
  ``pairs(item)``: (vertex map, piece) lists; ``cut_pieces_layout(piece)``:
  cut edges, then such a list; ``section(inner)``: a byte length, then
  exactly that many bytes of ``inner``.
* ``edges(u, v, w)``: the edge list of three attributes; ``draw_table``:
  an S1 record's fields, its sample table as draws; ``group(*groups)``
  joins groups into one.
* ``record(cls, *groups, name=codec, ...)``: attributes of one value, read
  back as ``cls(**attributes)``, rejected when ``check(value)`` returns a
  message; its groups are ``fields(...)``, ``edges(...)``, ``draw_table``
  or ``group(...)``.
  ``composite(cls, *groups, ...)``: eps, n, a verbatim flag (a varint, 1 or
  0), then the whole graph or the body (its groups, then its named fields).

A sketch inside a sketch is a section holding its layout's payload: the
envelope header is written once, by the outermost sketch.

Reads are bounds-checked, and every record a query reads checks itself
once, at decode: ``piece_problem`` for S1 and S2 records (draw counts,
degrees, scales, edges, sample lengths and vertex ids),
``cut_pieces_problem`` for cut edges plus (vertex map, piece) pairs on n
vertices, and each sketch's own ``check``. Bytes no layout writes
(truncation, unknown tags, trailing bytes, invalid graphs, values outside a
field's domain, malformed edge lists, broken cross-field invariants) raise
QuadsketchError, so the estimator that answers from a decoded sketch checks
nothing.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import QuadsketchError
from .graph import WeightedGraph

MAGIC = b"QSK1"
VERSION = 7

MAX_VARINT_BYTES = 10  # ceil(64 / 7): a 64-bit value's LEB128 length
# arrays up to this long are coded with Python values, not numpy calls, and
# edge lists up to this long are always PLAIN: CANONICAL starts above it
SHORT_ARRAY = 16
PLAIN, CANONICAL = 0, 1  # the forms of an edge list
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
        """Length, then one varint per entry (``varints``)."""
        a = np.asarray(a)
        self.varint(a.size)
        self.varints(a)

    def varints(self, a) -> None:
        """One varint per entry of a, no length; entries lie in [0, 2**63).

        Up to SHORT_ARRAY entries are coded one Python int at a time. Longer
        arrays whose entries are all below 128 are their own bytes; others
        fill a (k, B) byte matrix, B the longest varint, from B - 1 shifts
        (on uint32 unless an entry needs 64 bits); one boolean selection
        keeps byte j of an entry when j == 0 or the entry has bits at 7j or
        above.
        """
        a = np.asarray(a)
        if a.size <= SHORT_ARRAY and a.dtype.kind in "biu":
            # a few entries: numpy's per-call cost would outweigh the work
            _leb128(self.buf, a.ravel().tolist())
            return
        if a.size and a.min() < 0:
            raise ValueError("varint must be non-negative")
        self._packed(a, int(a.max()) if a.size else 0)

    def _packed(self, a: np.ndarray, top: int) -> None:
        """``varints`` of an array of non-negative entries, top the largest."""
        if top >> 63:
            raise ValueError("int array entry does not fit in 63 bits")
        if top < 0x80:
            self.buf += a.astype(np.uint8).tobytes()
            return
        col = a.ravel().astype(np.uint64 if top >> 32 else np.uint32)
        width = (top.bit_length() + 6) // 7
        groups = np.empty((col.size, width), dtype=np.uint8)
        keep = np.empty((col.size, width), dtype=bool)
        keep[:, 0] = True
        for j in range(1, width):
            groups[:, j - 1] = col  # low byte; its bit 7 is set only when keep[:, j] is
            col = col >> 7
            np.not_equal(col, 0, out=keep[:, j])
        groups[:, -1] = col
        groups[:, :-1] |= keep[:, 1:].view(np.uint8) << 7
        # compress walks the mask faster than groups[keep] does
        self.buf += groups.ravel().compress(keep.ravel()).tobytes()

    def f64_array(self, a) -> None:
        """Length, then a tag byte and either the raw doubles (tag 0) or a
        dictionary (tag 1): the count d of distinct IEEE bit patterns, the
        patterns in ascending unsigned order, then, when d > 1, one index
        byte per entry. The dictionary is written when d <= 255 and d is
        below the length, so arrays with few distinct values (reweighted
        classes) shrink to one byte per entry, and arrays of one value (unit
        weights) to its pattern. Both round-trips are bit-exact, signed
        zeros and NaN payloads included.

        Up to SHORT_ARRAY entries find their patterns with a set. Longer
        arrays sort their patterns (np.unique is slower on uint64); an
        array that holds one value needs no index search, and one whose
        first 256 entries differ needs no full sort.
        """
        a = np.asarray(a, dtype=np.float64)
        self.varint(a.size)
        if a.size == 0:
            return
        bits = a.ravel().view(np.uint64)
        if a.size <= SHORT_ARRAY:
            vals = bits.tolist()
            table = sorted(set(vals))
            if len(table) < len(vals):
                index = {v: i for i, v in enumerate(table)}
                self.buf += bytes((1, len(table)))
                self.buf += struct.pack(f"<{len(table)}Q", *table)
                if len(table) > 1:
                    self.buf += bytes([index[v] for v in vals])
            else:
                self.buf.append(0)
                self.buf += struct.pack(f"<{len(vals)}Q", *vals)
            return
        ascending = np.sort(bits[:256])
        # 256 distinct values in the first 256 entries rule a dictionary out
        if bits.size <= 256 or np.count_nonzero(ascending[1:] == ascending[:-1]):
            if bits.size > 256:
                ascending = np.sort(bits)
            fresh = np.concatenate(([True], ascending[1:] != ascending[:-1]))
            d = int(np.count_nonzero(fresh))
            if d <= 255 and d < bits.size:
                distinct = ascending[fresh]
                self.buf += bytes((1, d))
                self.buf += distinct.astype("<u8").tobytes()
                if d > 1:
                    self.buf += np.searchsorted(distinct, bits).astype(np.uint8).tobytes()
                return
        self.buf.append(0)
        self.buf += bits.astype("<u8").tobytes()

    def edges(self, u, v) -> None:
        """An edge list's endpoint columns u, v (int64 ids in [0, 2**63)):
        m, then, when m > 0, a form byte and the columns.

        PLAIN is u, then v, one varint per entry. A list of more than
        SHORT_ARRAY edges with u <= v everywhere whose pairs strictly
        increase is written CANONICAL when that is shorter: r, the number of
        distinct u (rows), then 2r + m varints: the rows, each as its gap to
        the row before (the first as is), the per-row counts, and per edge
        the gap from its v to the v before it in its row (to the row itself
        for the row's first edge).
        """
        u, v = np.asarray(u, dtype=np.int64).ravel(), np.asarray(v, dtype=np.int64).ravel()
        if u.size != v.size:
            raise ValueError(f"edge columns of lengths {u.size} and {v.size}")
        m = u.size
        self.varint(m)
        if m == 0:
            return
        if m <= SHORT_ARRAY:
            self.buf.append(PLAIN)
            _leb128(self.buf, u.tolist() + v.tolist())
            return
        if not (u > v).any():
            step = u[1:] - u[:-1]
            r = int(np.count_nonzero(step)) + 1  # rows, if the list is canonical
            top = int(v.max())
            plain = 1 + _varint_bytes(u, top) + _varint_bytes(v, top)
            head = 1 + _varint_len(r)  # form byte and r
            # a canonical body takes at least one byte per entry
            body = _canonical_body(u, v, step, r) if head + 2 * r + m < plain and u[0] >= 0 else None
            if body is not None:
                top = int(body.max())
                if head + _varint_bytes(body, top) < plain:
                    self.buf.append(CANONICAL)
                    self.varint(r)
                    self._packed(body, top)
                    return
        self.buf.append(PLAIN)
        self.varints(u)
        self.varints(v)

    def draws(self, s: int, n: int, deg, owner, nbr, y) -> None:
        """The sample table (owner, nbr, y) of an n-vertex piece in which
        each vertex v with deg[v] > 0 draws s samples: per such v, in order,
        its s draws t = (nbr - v - 1) mod n with their repeats, as the first
        t and then the gap to each next one (0 for a repeat). No count: the
        reader knows s and deg.

        Raises ValueError unless that is lossless: deg has n entries, the
        samples lie on the piece, each row's t strictly increase (a row is
        the entries of one owner, the owners ascend), and the y, each at
        least 1, of each vertex sum to s if its degree is positive, else
        to 0.
        """
        owner, nbr, y = (np.asarray(a, dtype=np.int64).ravel() for a in (owner, nbr, y))
        if not owner.size == nbr.size == y.size or np.size(deg) != n:
            raise ValueError("sample table and degrees of different lengths")
        if owner.size and (min(owner.min(), nbr.min()) < 0 or max(owner.max(), nbr.max()) >= n):
            raise ValueError(f"sample vertex outside [0, {n})")
        t = nbr - owner - 1
        t[t < 0] += n  # a self-loop is n - 1, which the decoder rejects
        same = owner[1:] == owner[:-1]
        if (owner[1:] < owner[:-1]).any() or (same & (t[1:] <= t[:-1])).any():
            raise ValueError("sampled neighbours of a row do not strictly increase")
        if y.min(initial=1) < 1:
            raise ValueError("sample multiplicity below 1")
        if not np.array_equal(np.bincount(owner, y, n), s * (np.asarray(deg) > 0)):
            raise ValueError(f"sample multiplicities of a row do not sum to s = {s}")
        gaps = np.zeros(int(y.sum()), dtype=np.int64)
        gaps[np.cumsum(y) - y] = np.where(np.concatenate(([False], same)), t - np.roll(t, 1), t)
        self.varints(gaps)

    def section(self, payload: bytes) -> None:
        self.varint(len(payload))
        self.buf += payload

    def getvalue(self) -> bytes:
        return bytes(self.buf)


def _leb128(buf: bytearray, vals: list) -> None:
    """Append one varint per Python int of vals; entries lie in [0, 2**63)."""
    if vals and min(vals) < 0:
        raise ValueError("varint must be non-negative")
    if vals and max(vals) >> 63:
        raise ValueError("int array entry does not fit in 63 bits")
    for x in vals:
        while x > 0x7F:
            buf.append((x & 0x7F) | 0x80)
            x >>= 7
        buf.append(x)


def _canonical_body(lo: np.ndarray, hi: np.ndarray, step: np.ndarray, r: int) -> np.ndarray | None:
    """The 2r + m varints of the CANONICAL form of the pairs (lo, hi) in r
    rows, step the differences of lo, or None when the pairs do not
    strictly increase."""
    rise = hi[1:] - hi[:-1]
    # each row lies above the last, each max above the one before it in its row
    if np.where(step, step, rise).min(initial=1) <= 0:
        return None
    m = lo.size
    ends = np.flatnonzero(step)  # the last edge of every row but the last
    # row gaps, row counts, then max gaps (to the row at a row's first edge)
    body = np.empty(2 * r + m, dtype=np.int64)
    body[0] = lo[0]
    body[1:r] = step[ends]
    counts = body[r : 2 * r]
    counts[:-1] = ends
    counts[-1] = m - 1
    counts[1:] -= ends
    counts[0] += 1
    body[2 * r] = hi[0] - lo[0]
    body[2 * r + 1 :] = np.where(step, hi[1:] - lo[1:], rise)
    return body


def _varint_len(x: int) -> int:
    return max(1, (x.bit_length() + 6) // 7)


def _varint_bytes(a: np.ndarray, top: int) -> int:
    """The length of the varints of a's entries, non-negative, top the
    largest."""
    if top < 0x80:
        return a.size
    return a.size + sum(int(np.count_nonzero(a >> 7 * j)) for j in range(1, _varint_len(top)))


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
        return self.varints(self.varint())

    def varints(self, k: int) -> np.ndarray:
        """k varints as an int64 array."""
        if k <= SHORT_ARRAY:
            vals = [self.varint() for _ in range(k)]
            if vals and max(vals) >> 63:
                raise QuadsketchError("varint value does not fit in 63 bits")
            return np.array(vals, dtype=np.int64)
        # a varint ends at its first byte below 0x80, so k of them lie in the
        # next 10k bytes; scanning only those keeps a call O(k)
        window = np.frombuffer(
            self.data,
            dtype=np.uint8,
            count=min(MAX_VARINT_BYTES * k, len(self.data) - self.pos),
            offset=self.pos,
        )
        if window.size >= k and window[:k].max() < 0x80:  # k one-byte varints
            self.pos += k
            return window[:k].astype(np.int64)
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
            if d == 1:
                return np.full(k, table[0], dtype=np.float64)
            idx = np.frombuffer(self.data, dtype=np.uint8, count=k, offset=self._take(k))
            if idx.max() >= d:
                raise QuadsketchError(f"dictionary index {idx.max()} outside a {d}-value table")
            return table.astype(np.float64)[idx]
        if tag != 0:
            raise QuadsketchError(f"unknown f64 array encoding tag {tag}")
        return np.frombuffer(
            self.data, dtype="<f8", count=k, offset=self._take(8 * k)
        ).astype(np.float64)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The endpoint columns (u, v) that ``Writer.edges`` wrote, as
        int64 arrays. Row counts that do not sum to m, rows or larger
        endpoints that stop increasing, an id past int64 and an unknown
        form raise QuadsketchError."""
        m = self.varint()
        if m == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        form = self.data[self._take(1)]
        if form == PLAIN:
            return self.varints(m), self.varints(m)
        if form != CANONICAL:
            raise QuadsketchError(f"unknown edge list form {form}")
        r = self.varint()
        if not 1 <= r <= m:
            raise QuadsketchError(f"{r} rows for {m} edges")
        return self._rows(r, m)

    def _rows(self, r: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The (u, v) columns of a canonical list of m edges in r rows. The
        v are running sums modulo 2**64 from each row. A row's first v is
        below 2**64 and so exact, and a later one that wrapped would lie
        below the one before it; so v that lie below 2**63 and rise within
        each row are exact."""
        vals = self.varints(2 * r + m)
        rows, counts, gaps = np.cumsum(vals[:r]), vals[r : 2 * r], vals[2 * r :].view(np.uint64)
        # counts are at most m each and r <= m, where m varints were read and
        # so m is below the payload length: the sum does not overflow
        if counts.min() < 1 or counts.max() > m or int(counts.sum()) != m:
            raise QuadsketchError(f"row counts do not sum to {m} edges")
        if not (rows[1:] > rows[:-1]).all():
            raise QuadsketchError("edge rows stop increasing")
        starts = np.cumsum(counts) - counts
        total = np.cumsum(gaps)
        hi = (total + np.repeat(rows.view(np.uint64) - total[starts] + gaps[starts], counts)).view(np.int64)
        if hi.min() < 0:
            raise QuadsketchError("edge id does not fit in 63 bits")
        rising = hi[1:] > hi[:-1]
        rising[starts[1:] - 1] = True
        if not rising.all():
            raise QuadsketchError("edge ids stop increasing")
        return np.repeat(rows, counts), hi

    def draws(self, s: int, n: int, deg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sample table (owner, nbr, y) that ``Writer.draws`` wrote for
        an n-vertex piece with degrees deg and s draws per vertex of positive
        degree, as int64 arrays. A count s below 1 and a draw t past n - 1
        (a neighbour past the piece) raise QuadsketchError, and so does a
        stream longer than the bytes left; t = n - 1 is a self-loop, which
        the record's check rejects."""
        if s < 1:
            raise QuadsketchError(f"sample count {s} is not positive")
        rows = np.flatnonzero(deg)
        if not rows.size:
            return tuple(np.empty(0, dtype=np.int64) for _ in range(3))
        gaps = self.varints(s * rows.size).reshape(rows.size, s)
        # gaps clipped to n: the sums cannot overflow, and a gap past n - 1 still shows
        t = np.cumsum(np.minimum(gaps, n), axis=1)
        if t[:, -1].max() > n - 1:
            raise QuadsketchError(f"sample neighbour outside [0, {n})")
        fresh = gaps > 0  # a draw that starts a run: a gap, or a row's first
        fresh[:, 0] = True
        at = np.flatnonzero(fresh)
        owner = rows[at // s]
        nbr = owner + 1 + t.ravel()[at]
        nbr[nbr >= n] -= n
        return owner, nbr, np.diff(at, append=gaps.size)

    def section(self) -> bytes:
        k = self.varint()
        start = self._take(k)
        return self.data[start : start + k]


# ---------------------------------------------------------------------------
# Layout vocabulary


class Codec(NamedTuple):
    write: Callable[[Writer, Any], None]
    read: Callable[[Reader], Any]
    cls: Any = None  # what a record decodes to


def mapped(codec: Codec, to_wire: Callable, from_wire: Callable) -> Codec:
    return Codec(lambda w, v: codec.write(w, to_wire(v)), lambda r: from_wire(codec.read(r)))


def seq(item: Codec) -> Codec:
    def write(w: Writer, values) -> None:
        w.varint(len(values))
        for v in values:
            item.write(w, v)

    return Codec(write, lambda r: [item.read(r) for _ in range(r.varint())])


def tuple_of(*items: Codec) -> Codec:
    def write(w: Writer, values) -> None:
        for c, v in zip(items, values):
            c.write(w, v)

    return Codec(write, lambda r: tuple(c.read(r) for c in items))


def _reshape(shape_and_entries) -> np.ndarray:
    rows, cols, a = shape_and_entries
    if rows * cols != a.size:
        raise QuadsketchError(f"{a.size} entries for a {rows} x {cols} matrix")
    return a.reshape(rows, cols)


def _gaps(a) -> np.ndarray:
    """Each entry of a less the one before it (the first as is)."""
    a = np.asarray(a, dtype=np.int64)
    gaps = a.copy()
    gaps[1:] -= a[:-1]
    return gaps


f64 = Codec(Writer.f64, Reader.f64)
varint = Codec(Writer.varint, Reader.varint)
int_array = Codec(Writer.int_array, Reader.int_array)
f64_array = Codec(Writer.f64_array, Reader.f64_array)
blob = Codec(Writer.section, Reader.section)
matrix = mapped(tuple_of(varint, varint, f64_array), lambda a: (*a.shape, a), _reshape)
# non-negative ints, increasing as written: a count, the first, then the gaps
ascending = mapped(int_array, _gaps, np.cumsum)


def pairs(item: Codec) -> Codec:
    """(vertex map, piece) pairs: a count, then per pair the piece and its
    map, piece.n varints with no length of their own."""

    def write(w: Writer, pair) -> None:
        vmap, piece = pair
        item.write(w, piece)
        w.varints(vmap)

    def read(r: Reader) -> tuple:
        piece = item.read(r)
        return r.varints(piece.n), piece

    return seq(Codec(write, read))


def _outside(n: int, *ids: np.ndarray, what: str = "vertex") -> str | None:
    """Why the vertex ids are not all in [0, n), or None; decoded int arrays
    hold no negative entry."""
    top = max((int(a.max()) for a in ids if a.size), default=-1)
    return f"{what} {top} outside [0, {n})" if top >= n else None


def edge_problem(u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int, kind: str) -> str | None:
    """Why the arrays (u, v, w) are not the edges of a graph on n vertices
    (unequal lengths, a self-loop, a weight that is not positive and finite,
    or a vertex outside [0, n)), or None when they are. The message names
    the edges' kind."""
    if not u.size == v.size == w.size:
        return f"{kind} edge arrays of lengths {u.size}, {v.size}, {w.size}"
    if (u == v).any():
        return f"{kind} edges hold a self-loop"
    if w.size and not (w.min() > 0 and w.max() < np.inf):  # a NaN fails both
        return f"{kind} edge weights must be positive and finite"
    return _outside(n, u, v, what=f"{kind} edge vertex")


def first_problem(problems) -> str | None:
    """The first of the messages that is not None, or None."""
    return next((p for p in problems if p), None)


def piece_problem(count: int, diag, scale, edges: tuple, kind: str, samples: tuple) -> str | None:
    """Why a sampled piece (an S1 or S2 record) cannot be answered from, or
    None. Its n = diag.size vertices each have a degree in diag and a sample
    scale in scale, both non-negative and finite; edges (u, v, w) of the
    given kind are graph edges on them; the samples (owner, nbr, *factors)
    have one length, lie on them and are normalized by count >= 1 draws."""
    n = diag.size
    if count < 1:
        return f"sample count {count} is not positive"
    if scale.size != n:
        return f"{n} degrees but {scale.size} sample scales"
    for name, a in (("degrees", diag), ("sample scales", scale)):
        if a.size and not (a.min() >= 0 and a.max() < np.inf):  # a NaN fails both
            return f"{name} must be non-negative and finite"
    if len({a.size for a in samples}) > 1:
        return f"sample arrays of lengths {', '.join(str(a.size) for a in samples)}"
    return edge_problem(*edges, n, kind) or _outside(n, *samples[:2])


def pairs_problem(comps, n: int) -> str | None:
    """Why (vertex map, piece) pairs do not map their pieces into [0, n), or
    None: each map entry is below n."""
    return _outside(n, *(vmap for vmap, _ in comps), what="vertex map entry")


def cut_pieces_problem(rec, n: int) -> str | None:
    """Why a ``CutPieces`` record on n vertices cannot be answered from, or
    None: its cut edges are graph edges on [0, n) and its (vertex map,
    piece) pairs map into [0, n)."""
    return edge_problem(rec.q_u, rec.q_v, rec.q_w, n, "cut") or pairs_problem(rec.comps, n)


def cut_pieces_layout(piece: Codec) -> Codec:
    """A group: the cut edges q_u, q_v, q_w, then (vertex map, piece) pairs
    as comps (``estimator.CutPieces``); the record that holds it checks it
    with ``cut_pieces_problem``."""
    return group(edges("q_u", "q_v", "q_w"), fields(comps=pairs(piece)))


def to_payload(codec: Codec, value) -> bytes:
    w = Writer()
    codec.write(w, value)
    return w.getvalue()


def from_payload(codec: Codec, data: bytes):
    """The value codec reads from data, which it must use exactly."""
    r = Reader(data)
    value = codec.read(r)
    if r.pos != len(data):
        raise QuadsketchError(f"{len(data) - r.pos} trailing bytes after the payload")
    return value


def section(inner: Codec) -> Codec:
    return mapped(blob, lambda v: to_payload(inner, v), lambda data: from_payload(inner, data))


def fields(**named: Codec) -> Codec:
    """A group of attributes, read back as a dict."""

    def write(w: Writer, obj) -> None:
        for name, c in named.items():
            c.write(w, getattr(obj, name))

    return Codec(write, lambda r: {name: c.read(r) for name, c in named.items()})


def group(*groups: Codec) -> Codec:
    """Groups one after another, read back as one dict."""

    def write(w: Writer, obj) -> None:
        for g in groups:
            g.write(w, obj)

    return Codec(write, lambda r: {k: v for g in groups for k, v in g.read(r).items()})


def edges(u: str, v: str, w: str) -> Codec:
    """A group: the edge list of the attributes u and v (``Writer.edges``),
    then the weights w as an f64_array."""

    def write(wr: Writer, obj) -> None:
        wr.edges(getattr(obj, u), getattr(obj, v))
        wr.f64_array(getattr(obj, w))

    def read(r: Reader) -> dict:
        tails, heads = r.edges()
        return {u: tails, v: heads, w: r.f64_array()}

    return Codec(write, read)


def _draw_table() -> Codec:
    """A group: the sample count s, the per-vertex delta and deg (n =
    delta's length), then the sample table owner, nbr, y as draws
    (``Writer.draws``) and its weights w as an f64_array."""
    head = fields(s=varint, delta=f64_array, deg=int_array)

    def write(wr: Writer, obj) -> None:
        head.write(wr, obj)
        wr.draws(obj.s, np.size(obj.delta), obj.deg, obj.owner, obj.nbr, obj.y)
        wr.f64_array(obj.w)

    def read(r: Reader) -> dict:
        got = head.read(r)
        owner, nbr, y = r.draws(got["s"], got["delta"].size, got["deg"])
        return {**got, "owner": owner, "nbr": nbr, "y": y, "w": r.f64_array()}

    return Codec(write, read)


draw_table = _draw_table()


def record(cls, *groups: Codec, check: Callable | None = None, **named: Codec) -> Codec:
    """The groups, then the named fields, of one value; read back as
    cls(**attributes), then rejected if check(value) returns a message."""
    body = group(*groups, fields(**named))

    def read(r: Reader):
        obj = cls(**body.read(r))
        problem = check and check(obj)
        if problem:
            raise QuadsketchError(f"corrupt {getattr(cls, 'kind', cls.__name__)}: {problem}")
        return obj

    return Codec(body.write, read, cls)


def _graph(n, edge_u, edge_v, edge_w) -> WeightedGraph:
    if edge_w.size != edge_u.size:
        raise QuadsketchError("inconsistent graph payload")
    try:
        return WeightedGraph(n, _arrays=(edge_u, edge_v, edge_w))
    except ValueError as exc:
        raise QuadsketchError(f"invalid graph payload: {exc}") from None


graph = record(_graph, fields(n=varint), edges("edge_u", "edge_v", "edge_w"))


class Composite:
    """What every composite sketch starts with: eps, n and, when it stores
    its graph verbatim instead of sketching it, that graph."""

    def __init__(self, epsilon, n, verbatim=None):
        self.epsilon = float(epsilon)
        self.n = int(n)
        self.verbatim = verbatim

    @property
    def is_verbatim(self) -> bool:
        return self.verbatim is not None


def composite(cls: type[Composite], *groups: Codec, check: Callable | None = None, **named: Codec) -> Codec:
    """eps, n and a verbatim flag (a varint), then the whole graph (flag 1),
    which must have n vertices, or the body (flag 0): the groups, then the
    named fields. Any other flag is rejected."""

    def check_all(sk):
        if sk.is_verbatim:
            return sk.verbatim.n != sk.n and f"{sk.verbatim.n}-vertex graph in a {sk.n}-vertex sketch"
        return check and check(sk)

    body = group(*groups, fields(**named))

    def write(w: Writer, sk) -> None:
        w.varint(int(sk.is_verbatim))
        if sk.is_verbatim:
            graph.write(w, sk.verbatim)
        else:
            body.write(w, sk)

    def read(r: Reader) -> dict:
        flag = r.varint()
        if flag > 1:
            raise QuadsketchError(f"verbatim flag {flag}, expected 0 or 1")
        return {"verbatim": graph.read(r)} if flag else body.read(r)

    return record(cls, fields(epsilon=f64, n=varint), Codec(write, read), check=check_all)


# ---------------------------------------------------------------------------
# Kinds and envelopes

KINDS: dict[str, tuple[int, Codec]] = {"graph": (0, graph)}  # kind -> (byte, layout)


def register(byte: int, layout: Codec) -> None:
    """Give the sketch class layout decodes to (named by its kind) a kind
    byte and its envelope methods: ``to_bytes`` and the classmethod
    ``from_bytes``. They are set on the class itself, so each sketch class
    owns them."""
    cls, kind = layout.cls, layout.cls.kind
    KINDS[kind] = (byte, layout)

    def to_bytes(self) -> bytes:
        return encode(kind, self)

    def from_bytes(cls, data: bytes):
        return decode(kind, data)

    cls.to_bytes = to_bytes
    cls.from_bytes = classmethod(from_bytes)


def envelope(kind: str, payload: bytes) -> bytes:
    return MAGIC + bytes([VERSION, KINDS[kind][0]]) + payload


def open_envelope(data: bytes) -> tuple[str, bytes]:
    """The kind and the payload of an envelope."""
    if data[:4] != MAGIC:
        raise QuadsketchError("not a quadsketch file (bad magic)")
    if len(data) < 6:
        raise QuadsketchError("truncated sketch header")
    if data[4] != VERSION:
        raise QuadsketchError(f"unsupported format version {data[4]}")
    kind = next((name for name, (byte, _) in KINDS.items() if byte == data[5]), None)
    if kind is None:
        raise QuadsketchError(f"unknown sketch kind byte {data[5]}")
    return kind, data[6:]


def encode(kind: str, value) -> bytes:
    return envelope(kind, to_payload(KINDS[kind][1], value))


def decode(kind: str, data: bytes):
    found, payload = open_envelope(data)
    if found != kind:
        raise QuadsketchError(f"expected {kind}, found {found}")
    return from_payload(KINDS[kind][1], payload)


def sketch_class(data: bytes) -> type:
    """The registered sketch class whose envelope data holds."""
    kind, _ = open_envelope(data)
    if kind == "graph":
        raise QuadsketchError("file holds a graph payload, not a sketch")
    return KINDS[kind][1].cls
