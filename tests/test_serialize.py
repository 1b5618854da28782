import copy
import dataclasses
import functools
import hashlib
import importlib.util
import math
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadsketch.cutsketch import (
    CutSketchGeneral,
    CutSketchPoly,
    S1_LAYOUT,
    S1Sketch,
    cut_basic_build,
    cut_s1_build,
    cut_sketch_build,
    reachable_scales,
)
from quadsketch import serialize
from quadsketch.errors import QuadsketchError
from quadsketch.graph import WeightedGraph
from quadsketch.psdsdd import JlSketch, jl_build, sdd_sketch_build
from quadsketch.spectral import (
    SpectralBasicSketch,
    SpectralImprovedSketch,
    spectral_basic_build,
    spectral_improved_build,
)
from quadsketch.serialize import KINDS, SHORT_ARRAY, Reader, Writer, decode, encode, envelope, open_envelope, sketch_class

from conftest import complete_graph, cut_basic_reference, gnp_connected, light_classes_stored_exactly


def test_varint_roundtrip():
    w = Writer()
    vals = [0, 1, 127, 128, 300, 2**32, 2**63]
    for v in vals:
        w.varint(v)
    r = Reader(w.getvalue())
    assert [r.varint() for _ in vals] == vals


def test_f64_array_raw_and_dictionary():
    w = Writer()
    unit = np.ones(300)
    spread = np.linspace(0.0, 1.0, 300)
    w.f64_array(unit)
    w.f64_array(spread)
    w.f64_array(np.empty(0))
    r = Reader(w.getvalue())
    assert np.array_equal(r.f64_array(), unit)
    assert np.array_equal(r.f64_array(), spread)
    assert r.f64_array().size == 0
    # dictionary case is materially smaller
    w1 = Writer()
    w1.f64_array(unit)
    w2 = Writer()
    w2.f64_array(spread)
    assert len(w1.getvalue()) < len(w2.getvalue()) / 4


# doubles a set and np.unique might tell apart differently: both zeros, a
# NaN, both infinities, subnormals and the normal numbers next to them
F64_EDGE_CASES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]
short_f64_arrays = st.lists(
    st.one_of(st.sampled_from(F64_EDGE_CASES), st.floats(allow_subnormal=True)), min_size=1, max_size=SHORT_ARRAY
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=SHORT_ARRAY))


@settings(max_examples=300, deadline=None)
@given(short_f64_arrays)
@example([1.0, 1.0, 0.0, -0.0])
@example([math.nan, math.nan])
def test_short_f64_array_bytes_match_the_long_path(vals):
    a = np.array(vals, dtype=np.float64)
    for arr in (a, a.reshape(2, -1)) if a.size % 2 == 0 else (a,):
        w = Writer()
        w.f64_array(arr)
        with mock.patch.object(serialize, "SHORT_ARRAY", 0):
            ref = Writer()
            ref.f64_array(arr)
        assert w.getvalue() == ref.getvalue()
    assert Reader(w.getvalue()).f64_array().tobytes() == a.tobytes()


# IEEE bit patterns that compare equal to another or to nothing: both zeros,
# both infinities, quiet and signalling NaNs of either sign with payloads
F64_SPECIAL_BITS = [
    0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
    0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF, 0x3FF0000000000000,
]


@st.composite
def f64_bit_arrays(draw):
    """uint64 bit patterns, drawn from a pool of special and arbitrary
    patterns so that values repeat; up to 600 entries, which crosses the
    short path, the 256-entry prefix and the 255-entry dictionary."""
    pool = draw(
        st.lists(st.one_of(st.sampled_from(F64_SPECIAL_BITS), st.integers(0, 2**64 - 1)), min_size=1, max_size=300)
    )
    length = draw(st.one_of(st.integers(0, 40), st.integers(0, 600)))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    return np.array([rnd.choice(pool) for _ in range(length)], dtype=np.uint64)


@settings(max_examples=200, deadline=None)
@given(f64_bit_arrays())
@example(np.array([0.0, -0.0, 0.0, 2.0] * 8).view(np.uint64))
@example(np.array([1.0, 1.0, 0.0, -0.0]).view(np.uint64))
@example(np.full(40, 0x7FF8000000000001, dtype=np.uint64))
@example(np.full(5, 0x8000000000000000, dtype=np.uint64))
def test_f64_array_round_trip_is_bit_exact(bits):
    """Signed zeros, infinities and NaN payloads come back with their bits,
    in the raw and in the dictionary encoding alike."""
    w = Writer()
    w.f64_array(bits.view(np.float64))
    back = Reader(w.getvalue()).f64_array()
    assert back.dtype == np.float64
    assert np.array_equal(back.view(np.uint64), bits)
    # the dictionary (tag, d, d patterns, then one index per entry when
    # d > 1) when it is shorter
    k, d = bits.size, np.unique(bits).size
    length = Writer()
    length.varint(k)
    body = 0 if k == 0 else 2 + 8 * d + k * (d > 1) if d <= 255 and d < k else 1 + 8 * k
    assert len(w.getvalue()) == len(length.getvalue()) + body


def test_graph_envelope_roundtrip():
    g = gnp_connected(17, 0.4, seed=1, w_lo=0.25, w_hi=4.0)
    assert decode("graph", encode("graph", g)) == g


def f64_array_bytes(tag: int, body: bytes, k: int = 2) -> bytes:
    w = Writer()
    w.varint(k)
    w.buf.append(tag)
    w.buf += body
    return w.getvalue()


def test_unknown_f64_array_tag_rejected():
    raw = np.array([1.0, 2.0]).astype("<f8").tobytes()
    assert Reader(f64_array_bytes(0, raw)).f64_array().tolist() == [1.0, 2.0]
    for tag in (2, 7, 255):
        with pytest.raises(QuadsketchError, match="tag"):
            Reader(f64_array_bytes(tag, raw)).f64_array()


def test_dictionary_index_outside_table_rejected():
    table = np.array([0.5, 4.0]).astype("<f8").tobytes()
    ok = f64_array_bytes(1, bytes([2]) + table + bytes([1, 0]))
    assert Reader(ok).f64_array().tolist() == [4.0, 0.5]
    for bad in (bytes([1, 2]), bytes([255, 0])):
        with pytest.raises(QuadsketchError, match="dictionary index"):
            Reader(f64_array_bytes(1, bytes([2]) + table + bad)).f64_array()
    # an empty table admits no index at all
    with pytest.raises(QuadsketchError, match="dictionary index"):
        Reader(f64_array_bytes(1, bytes([0, 0, 0]))).f64_array()


def test_bad_magic_rejected():
    with pytest.raises(QuadsketchError):
        open_envelope(b"NOPE\x01\x00junk")


def test_truncated_data_rejected():
    g = WeightedGraph(3, [(0, 1, 1.0)])
    data = encode("graph", g)
    with pytest.raises(QuadsketchError):
        decode("graph", data[:8] + b"")


def scalar_int_array(values) -> bytes:
    """Reference encoding: the length, then one scalar varint per entry."""
    w = Writer()
    w.varint(len(values))
    for x in values:
        w.varint(x)
    return w.getvalue()


def test_int_array_boundaries():
    vals = [0, 127, 128, 2**63 - 1]
    w = Writer()
    w.int_array(np.array(vals, dtype=np.int64))
    assert w.getvalue() == scalar_int_array(vals)
    back = Reader(w.getvalue()).int_array()
    assert back.dtype == np.int64 and back.tolist() == vals
    with pytest.raises(ValueError):
        Writer().int_array(np.array([3, -1]))


@given(st.lists(st.integers(0, 2**63 - 1), max_size=40), st.binary(max_size=4))
@settings(max_examples=200, deadline=None)
def test_int_array_matches_scalar_varints(vals, tail):
    w = Writer()
    w.int_array(np.array(vals, dtype=np.int64))
    assert w.getvalue() == scalar_int_array(vals)
    r = Reader(w.getvalue() + tail)
    assert r.int_array().tolist() == vals
    assert r.pos == len(w.getvalue())


def test_overlong_varints_rejected():
    eleven = b"\x80" * 10 + b"\x01"
    with pytest.raises(QuadsketchError):
        Reader(eleven).varint()
    with pytest.raises(QuadsketchError):
        Reader(b"\x01" + eleven).int_array()
    # 2**63 is a valid varint but no int64 entry
    with pytest.raises(QuadsketchError):
        Reader(scalar_int_array([5, 2**63])).int_array()
    with pytest.raises(ValueError):
        Writer().varint(2**64)


# every LEB128 width from 1 to 9 bytes: 0, then 2^(7j) - 1 and 2^(7j) up to 2^63 - 1
VARINT_WIDTHS = sorted({0, 2**63 - 1} | {x for j in range(1, 10) for x in (2 ** (7 * j) - 1, 2 ** (7 * j))} - {2**63})


@pytest.mark.parametrize("length", range(41))
def test_int_array_short_and_long_paths_agree(length):
    # lengths 0-40 straddle the cut-over between the scalar and the numpy path
    rng = np.random.default_rng(length)
    for vals in (
        [VARINT_WIDTHS[i % len(VARINT_WIDTHS)] for i in range(length)],
        rng.choice(VARINT_WIDTHS, size=length).tolist(),
        [length] * length,
    ):
        for a in (np.array(vals, dtype=np.int64), np.array(vals, dtype=np.uint64)):
            w = Writer()
            w.int_array(a)
            assert w.getvalue() == scalar_int_array(vals)
            back = Reader(w.getvalue()).int_array()
            assert back.dtype == np.int64 and back.tolist() == vals
    # 0/1 masks are written as bool arrays
    bits = rng.random(length) < 0.5
    w = Writer()
    w.int_array(bits)
    assert w.getvalue() == scalar_int_array(bits.astype(int).tolist())


@pytest.mark.parametrize("length", [1, 2, 15, 16, 17, 40])
def test_int_array_errors_agree_across_paths(length):
    ones = [1] * length
    for at in {0, length - 1}:
        neg = np.array(ones, dtype=np.int64)
        neg[at] = -1
        with pytest.raises(ValueError):
            Writer().int_array(neg)
        # 2^63 is no int64 entry: the writer refuses it, and the reader
        # rejects the bytes that scalar varints give for it
        big = np.array(ones, dtype=np.uint64)
        big[at] = 2**63
        with pytest.raises(ValueError, match="63 bits"):
            Writer().int_array(big)
        data = scalar_int_array([2**63 if i == at else 1 for i in range(length)])
        with pytest.raises(QuadsketchError, match="63 bits"):
            Reader(data).int_array()
        # an 11-byte varint
        w = Writer()
        w.varint(length)
        body = [scalar_int_array([1])[1:]] * length
        body[at] = b"\x80" * 10 + b"\x01"
        with pytest.raises(QuadsketchError):
            Reader(w.getvalue() + b"".join(body)).int_array()
    data = scalar_int_array([300] * length)
    for cut in range(1, len(data)):
        with pytest.raises(QuadsketchError, match="truncated"):
            Reader(data[:cut]).int_array()


def leb128(values) -> bytes:
    """Reference: the length, then each entry as unsigned LEB128, one Python
    int at a time."""
    out = bytearray()
    for x in [len(values), *values]:
        while x > 0x7F:
            out.append(x & 0x7F | 0x80)
            x >>= 7
        out.append(x)
    return bytes(out)


# entries of each LEB128 length: [2^(7(b-1)), 2^(7b)), or [0, 128) for one
# byte; ten-byte entries (2^63 and up) fit no int64 and must be refused
LEB128_RANGES = {1: (0, 2**7), 2: (2**7, 2**14), 5: (2**28, 2**35), 9: (2**56, 2**63), 10: (2**63, 2**64)}
INT_DTYPES = {"bool": 1, "int32": 5, "int64": 9, "uint64": 10}  # dtype -> longest entry it holds


@st.composite
def int_array_inputs(draw):
    dtype = draw(st.sampled_from(list(INT_DTYPES)))
    ranges = {b: r for b, r in LEB128_RANGES.items() if b <= INT_DTYPES[dtype]}
    if dtype == "bool":
        ranges[1] = (0, 2)
    if dtype == "int32":
        ranges[5] = (2**28, 2**31)  # int32 tops out inside 5 bytes
    widths = draw(st.lists(st.sampled_from(sorted(ranges)), min_size=1, max_size=3, unique=True))
    length = draw(st.one_of(st.integers(0, 40), st.integers(0, 3000)))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    vals = [rnd.randrange(*ranges[rnd.choice(widths)]) for _ in range(length)]
    a = np.array(vals, dtype=dtype)
    if draw(st.booleans()) and length % 2 == 0:
        a = a.reshape(2, -1)  # 2-D: written in row-major order
    return a, vals


@given(int_array_inputs(), st.sampled_from([None, "negative", "2^63"]))
@settings(max_examples=150, deadline=None)
def test_int_array_matches_leb128_reference(case, poison):
    a, vals = case
    if poison and vals:
        at = len(vals) // 2
        if poison == "negative" and a.dtype.kind == "i":
            a.flat[at] = -1
            with pytest.raises(ValueError, match="non-negative"):
                Writer().int_array(a)
            return
        if poison == "2^63" and a.dtype == np.uint64:
            a.flat[at] = 2**63
            with pytest.raises(ValueError, match="63 bits"):
                Writer().int_array(a)
            return
    if max(vals, default=0) >> 63:
        with pytest.raises(ValueError, match="63 bits"):
            Writer().int_array(a)
        return
    w = Writer()
    w.int_array(a)
    data = w.getvalue()
    assert data == leb128(vals)
    r = Reader(data + b"\x05")
    back = r.int_array()
    assert back.dtype == np.int64 and back.tolist() == vals
    assert r.pos == len(data)


@pytest.mark.parametrize("length", [17, 5500])
@pytest.mark.parametrize("top", [127, 128, 255, 256, 2**14 - 1, 2**14, 2**32 - 1, 2**32, 2**63 - 1])
def test_int_array_at_each_kernel_cut_over(length, top):
    # the one-byte path ends at 127, uint32 shifts at 2^32 - 1; entries
    # spread over every byte length up to the largest
    vals = [(top >> (7 * (i % 10))) for i in range(length - 1)] + [top]
    for dtype in ("int64", "uint64"):
        w = Writer()
        w.int_array(np.array(vals, dtype=dtype))
        assert w.getvalue() == leb128(vals)
        assert Reader(w.getvalue()).int_array().tolist() == vals


def test_truncated_fields_rejected():
    w = Writer()
    w.f64(1.5)
    w.f64_array(np.linspace(0.0, 1.0, 5))
    w.section(b"abcdef")
    data = w.getvalue()
    for cut in range(len(data)):
        r = Reader(data[:cut])
        with pytest.raises(QuadsketchError):
            r.f64()
            r.f64_array()
            r.section()


@pytest.mark.parametrize(
    "build, decode",
    [
        (
            lambda: cut_sketch_build(complete_graph(5), 0.4, 3, mode="pipeline"),
            CutSketchGeneral.from_bytes,
        ),
        (
            lambda: spectral_improved_build(
                gnp_connected(12, 0.5, seed=1, w_lo=1.0, w_hi=4.0), 0.3, 3
            ),
            SpectralImprovedSketch.from_bytes,
        ),
    ],
    ids=["cut_general", "spectral_improved"],
)
def test_every_strict_prefix_rejected(build, decode):
    data = build().to_bytes()
    decode(data)
    for cut in range(len(data)):
        with pytest.raises(QuadsketchError):
            decode(data[:cut])


def psd_matrix(n: int, seed: int) -> np.ndarray:
    f = np.random.default_rng(seed).normal(size=(n, n - 2))
    return f @ f.T


def sdd_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = np.triu(rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
    b = b + b.T
    return b + np.diag(np.abs(b).sum(axis=1) + rng.uniform(0.0, 0.5, n))


def weighted(n: int, seed: int):
    return gnp_connected(n, 0.5, seed=seed, w_lo=0.5, w_hi=2.0)


# SHA-256 of same-seed envelopes. The cut_poly, cut_general, jl and verbatim
# spectral digests are of the bytes the per-class hand-written encoders wrote,
# with the version byte raised to 2; the other spectral digests are of the
# version-2 layouts, which keep what version 1 held minus the fields no query
# read (S3 scales as 2 * in_deg). spectral_basic-s2-and-verbatim-class was
# re-recorded when effective resistances moved from a pseudoinverse to a
# Cholesky factor: the same 58 edges are kept, and five of their 1/p weights
# differ in the last bits. It was re-recorded again when the spectral keep
# probabilities were rounded up onto the grid 2^(k/8). Every digest was
# re-recorded at version 3, whose layouts hold the same values with no kind
# tags, nested envelope headers, ladder copy, S1 eps or JL seed; no envelope
# grew. Every digest was re-recorded again at version 4, whose edge lists
# use the edges codec and whose f64 dictionaries hold bit patterns; the
# decoded arrays are those version 3 decoded, and no envelope grew. Every
# digest was re-recorded at version 5, which stores each piece's vertex count
# once and writes short lists and lists with an entry u > v plain: the
# decoded arrays are the same; spectral_improved-band-and-low grew by 2 B
# (1,177 -> 1,179), spectral_basic-s2-and-verbatim-class and sdd shrank.
# Every digest was re-recorded at version 6, which gives each cut_poly
# sketch one Q edge table and writes one-valued f64 arrays without index
# bytes: the decoded arrays are the same, and no envelope grew. Every
# digest was re-recorded at version 7, which writes each S1 sample table as
# per-row draw gaps; no case here holds S1 samples, so only the version
# byte moved. The spectral_basic builds are partials, whose arguments the
# test reads.
GOLDEN = {
    "spectral_basic-s2-and-verbatim-class": (
        functools.partial(spectral_basic_build, gnp_connected(16, 0.5, seed=21, w_lo=1e-3, w_hi=4.0), 0.3, 22),
        "8044a4cff3f09d99310e894339cf27ed53e1a8745e966856d7e9c243c6568429",
    ),
    "spectral_basic-verbatim-class-only": (
        functools.partial(spectral_basic_build, gnp_connected(12, 0.5, seed=31, w_lo=1e-8, w_hi=1.9e-8), 0.3, 32),
        "c441389a0937fcfe399aed51439598da132912916d730fe752bdfd740f81541d",
    ),
    "spectral_improved-band-and-low": (
        lambda: spectral_improved_build(gnp_connected(40, 0.5, seed=4), 0.25, 5),
        "7732def626b1fe86786f9bdb201d800377c9eef639c9b7089b44456b54e6f0d0",
    ),
    "sdd": (
        lambda: sdd_sketch_build(sdd_matrix(8, 1), 0.2, 2),
        "3d1cd537c06e20877513c59c64cc010e1cb62468c9ef78f0f1c6fa8adfd02554",
    ),
    "jl": (
        lambda: jl_build(psd_matrix(6, 3), 0.5, 0.2, 4),
        "fde5225a6c88fa053d983d5c867c0e301a788a649505d518cab4fedc54af4824",
    ),
    # the full-ladder build that the declarative layouts first reproduced;
    # the production build keeps only the scales a query can reach
    "cut_poly-pipeline": (
        lambda: cut_basic_reference(gnp_connected(20, 0.5, seed=5), 0.15, 3, mode="pipeline"),
        "747fdcee3a8632492f7a8987b11ac06c055fd1b8a2235e58ff70ad3e6e1a50bc",
    ),
    "cut_poly-pipeline-reachable": (
        lambda: cut_basic_build(gnp_connected(20, 0.5, seed=5), 0.15, 3, mode="pipeline"),
        "afdd4bd4e5b8c630d970337abb6195aa11686267101582573ecdbf41e37f8e6f",
    ),
    "cut_poly-verbatim": (
        lambda: cut_basic_build(weighted(12, 6), 0.2, 1),
        "d86c9888aa9211888d2b73812faf66c4b285ed7e5e53d01427db4babfbf0d6b2",
    ),
    "cut_general-verbatim": (
        lambda: cut_sketch_build(weighted(12, 7), 0.2, 1),
        "82c3a32e65f294fabd7099675d3254e006867541212491a379cfd820f766b1c8",
    ),
    "spectral_basic-verbatim": (
        lambda: spectral_basic_build(weighted(12, 8), 0.05, 1),
        "0ffac92168c3b0f298f4d8768b261aa3531de1dcca85a454696340d575fd9128",
    ),
    "spectral_improved-verbatim": (
        lambda: spectral_improved_build(weighted(12, 9), 0.05, 1),
        "d93ae0a1bf65071552680f72ca9620cf1e46e162538b0aae97ed99721f09505e",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_envelopes(case):
    make, digest = GOLDEN[case]
    sk = make()
    if case.endswith("-verbatim"):
        assert sk.is_verbatim
    if case.startswith("spectral_basic-") and not sk.is_verbatim:
        assert light_classes_stored_exactly(sk, *make.args)
    data = sk.to_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert type(sk).from_bytes(data).to_bytes() == data


@functools.cache
def envelope_fields_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "envelope_fields.py"
    spec = importlib.util.spec_from_file_location("envelope_fields", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case", list(GOLDEN))
def test_envelope_fields_charge_every_byte_to_a_field(case):
    sk = GOLDEN[case][0]()
    data, charged = envelope_fields_tool().field_bytes(sk)
    assert data == sk.to_bytes()
    assert sum(charged.values()) == len(data) and "" not in charged
    assert charged["(envelope header)"] == 6
    if case.endswith("-verbatim"):
        assert charged["verbatim.edge_w"] > 0

@pytest.mark.parametrize("family", ["cut_general", "cut_poly", "spectral_basic", "spectral_improved", "sdd", "jl"])
def test_version_1_envelope_rejected(family):
    """Versions 1 to 6 alike: a version-7 decoder reads none of them."""
    cls, blob, _ = fuzz_case(family)
    assert blob[4] == 7
    for version in (1, 2, 3, 4, 5, 6):
        with pytest.raises(QuadsketchError, match=f"unsupported format version {version}"):
            cls.from_bytes(blob[:4] + bytes([version]) + blob[5:])


# float.hex answers on fixed sketches, and the SHA-256 of their flat
# estimator's arrays (which pins every coefficient bit, where an answer can
# round a last-bit drift away), recorded with the version-1 layouts before S2
# pieces and S3 components became one record. Every case holds samples, and
# the improved and SDD cases hold S3 components. Queries: three seeded normal
# vectors, then the all-ones vector. The sdd-32 and sdd-48 array digests were
# re-recorded with the Cholesky resistances (same kept edges, last-bit 1/p
# drift); their answers did not change. Both cases, answers included, were
# re-recorded when the spectral keep probabilities were rounded up onto the
# grid 2^(k/8).
PINNED_ANSWERS = {
    "spectral_basic-s2-samples": (
        lambda: spectral_basic_build(gnp_connected(16, 0.5, seed=1, w_lo=1.0, w_hi=4.0), 0.3, 2, c_alpha=0.3),
        ["0x1.c852286f8b40ap+7", "0x1.9d46da5798526p+6", "0x1.df910413e5613p+7", "0x0.0p+0"],
        "9d8c23e0c39413564f73909ca2e4ba5003c4085aee3784e9efd1e8797314e840",
    ),
    "spectral_basic-heavy-without-heavy-neighbours": (
        lambda: spectral_basic_build(gnp_connected(20, 0.5, seed=5, w_lo=1.0, w_hi=4.0), 0.3, 6, c_alpha=0.25),
        ["0x1.60de570486e48p+8", "0x1.761aabe53b27dp+7", "0x1.136ebcf1a1524p+8", "0x0.0p+0"],
        "9378fb3d7e78feebec6c4d61e803ca48df07a15fe9f76ef2a1c6515c7a215814",
    ),
    "spectral_improved-band-and-low": (
        lambda: spectral_improved_build(gnp_connected(40, 0.5, seed=4), 0.25, 5),
        ["0x1.f2831927f45c3p+8", "0x1.484f894f78a58p+9", "0x1.30e41496ac51cp+9", "0x0.0p+0"],
        "0f5f53ea04f79cc18b52828bd302e939127060c1f878effe6e25832cd173f4da",
    ),
    "spectral_improved-mixed-heads": (
        lambda: spectral_improved_build(gnp_connected(20, 0.5, seed=8, w_lo=1, w_hi=4), 0.2, 8, c_beta=0.3),
        ["0x1.5b32792d26d54p+8", "0x1.8fd29c68ce34cp+7", "0x1.cc1f6122190cdp+8", "-0x1.0000000000000p-46"],
        "6da02b25ac9479a6c327c20340fc7aa8afc4dda3cf1b02a0926c880e1bd5c5b6",
    ),
    "sdd-32": (
        lambda: sdd_sketch_build(sdd_matrix(32, 1), 0.4, 2),
        ["0x1.9135946f8183dp+7", "0x1.c3847c0229eb2p+7", "0x1.167b58b4599b3p+8", "0x1.3688bdac51701p+8"],
        "bb469c0e923ec6bbf5131df9c46d3b2f8fcf6ca09e38ac0bdb0fa3f6460694d6",
    ),
    "sdd-48": (
        lambda: sdd_sketch_build(sdd_matrix(48, 1), 0.3, 3),
        ["0x1.31e0216d02de2p+9", "0x1.07820fbef1ae2p+9", "0x1.3027cfe9fcd87p+9", "0x1.633bd20362563p+9"],
        "b6584d26f5668bd4d12032d64ac473d343e7bdbddd006c20573a99f9f3d5aa40",
    ),
}


def sampled_pieces(sk) -> list:
    """The S2 records of a spectral sketch: S2 pieces or S3 components."""
    sk = getattr(sk, "lap_sketch", sk)
    records = [s3 for _, s3 in sk.classes] if isinstance(sk, SpectralImprovedSketch) else sk.classes
    return [piece for rec in records for _, piece in rec.comps]


@pytest.mark.parametrize("case", list(PINNED_ANSWERS))
def test_pinned_answers(case):
    make, want, digest = PINNED_ANSWERS[case]
    sk = make()
    assert sum(piece.owner.size for piece in sampled_pieces(sk)) > 0
    queries = [np.random.default_rng(k).normal(size=sk.n) for k in range(3)] + [np.ones(sk.n)]
    back = type(sk).from_bytes(sk.to_bytes())
    for s in (sk, back):
        assert [float(s.estimate(x)).hex() for x in queries] == want
        est = getattr(s, "lap_sketch", s).estimator
        h = hashlib.sha256()
        for f in dataclasses.fields(est)[1:]:
            h.update(getattr(est, f.name).tobytes())
        assert h.hexdigest() == digest


def test_kind_table():
    assert {kind: byte for kind, (byte, _) in KINDS.items()} == {
        "graph": 0,
        "cut_poly": 2,
        "cut_general": 3,
        "spectral_basic": 6,
        "spectral_improved": 7,
        "jl": 8,
        "sdd": 9,
    }
    for kind, (_, layout) in KINDS.items():
        assert kind == "graph" or layout.cls.kind == kind
    with pytest.raises(QuadsketchError, match="not a sketch"):
        sketch_class(encode("graph", WeightedGraph(2, [(0, 1, 1.0)])))


def test_trailing_bytes_rejected():
    data = encode("graph", WeightedGraph(3, [(0, 1, 1.0)]))
    with pytest.raises(QuadsketchError, match="trailing"):
        decode("graph", data + b"\x00")


def graph_payload(n, u, v, w) -> bytes:
    wr = Writer()
    wr.varint(n)
    wr.edges(np.array(u), np.array(v))
    wr.f64_array(np.array(w, dtype=float))
    return envelope("graph", wr.getvalue())


@pytest.mark.parametrize(
    "u, v, w", [([0], [5], [1.0]), ([1], [1], [1.0]), ([0], [1], [0.0]), ([0, 1], [1, 2], [1.0, np.nan])]
)
def test_invalid_graph_payload_is_a_domain_error(u, v, w):
    assert decode("graph", graph_payload(3, [0], [1], [2.0])).m == 1
    with pytest.raises(QuadsketchError, match="invalid graph payload"):
        decode("graph", graph_payload(3, u, v, w))


# ---------------------------------------------------------------------------
# Edge lists


def edge_bytes(u, v) -> bytes:
    w = Writer()
    w.edges(np.array(u, dtype=np.int64), np.array(v, dtype=np.int64))
    return w.getvalue()


def read_edges(data: bytes):
    r = Reader(data)
    u, v = r.edges()
    assert r.pos == len(data)
    return u, v


def plain_list(u, v) -> bytes:
    """Reference PLAIN list: m, then (m > 0) the form byte, u and v."""
    w = Writer()
    w.varint(len(u))
    if u:
        w.buf.append(serialize.PLAIN)
        for x in u + v:
            w.varint(x)
    return w.getvalue()


@st.composite
def edge_lists(draw):
    """(u, v, kind): an edge list whose pairs (min, max) strictly increase
    ("canonical"), the same with some pairs stored as (max, min)
    ("flipped"), or arbitrary ids, repeats and self-loops included; ids up
    to 3, 200, 2^20, 2^40 or 2^63 - 1, and 0 to 400 edges."""
    kind = draw(st.sampled_from(["canonical", "flipped", "arbitrary"]))
    top = draw(st.sampled_from([3, 200, 2**20, 2**40, 2**63 - 1]))
    length = draw(st.one_of(st.integers(0, 20), st.integers(0, 400)))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    # ids near both ends of the range, so that gaps are both small and large
    ids = [rnd.randrange(top + 1) for _ in range(length)] + [rnd.randrange(min(top, 40) + 1) for _ in range(length)]
    u, v = ids[:length], ids[length:]
    if kind != "arbitrary":
        pairs = sorted({(min(a, b), max(a, b)) for a, b in zip(u, v)})
        if kind == "flipped":
            pairs = [(b, a) if rnd.random() < 0.5 else (a, b) for a, b in pairs]
        u, v = [a for a, _ in pairs], [b for _, b in pairs]
    return u, v, kind


@settings(max_examples=200, deadline=None)
@given(edge_lists())
@example(([], [], "canonical"))
@example(([5], [2**40], "flipped"))
@example(([2**40 + 3], [1], "flipped"))
@example(([3, 1, 2] * 7, [0, 1, 9] * 7, "arbitrary"))
@example(([2**20 + i * (i in (3, 7)) for i in range(1, 21)], [2**20 + i * (i not in (3, 7)) for i in range(1, 21)], "flipped"))
def test_edges_round_trip(case):
    """Every list decodes to the int64 columns it was written from; the
    canonical form is written only when it is shorter than the plain one,
    and never for a list of at most SHORT_ARRAY edges or with an entry
    where u > v. Whichever path writes or reads a list, it decodes to the
    same columns."""
    u, v, kind = case
    data = edge_bytes(u, v)
    back_u, back_v = read_edges(data)
    assert back_u.dtype == back_v.dtype == np.int64
    assert back_u.tolist() == u and back_v.tolist() == v
    plain = plain_list(u, v)
    assert len(data) <= len(plain)
    rising = all(p < q for p, q in zip(zip(u, v), zip(u[1:], v[1:])))
    if len(u) <= SHORT_ARRAY or any(a > b for a, b in zip(u, v)) or not rising:
        assert data == plain
    with mock.patch.object(serialize, "SHORT_ARRAY", 0):
        # the writer's form depends on SHORT_ARRAY, the decoded columns do not
        assert [a.tolist() for a in read_edges(edge_bytes(u, v))] == [u, v]
        assert [a.tolist() for a in read_edges(data)] == [u, v]


def test_edges_take_the_canonical_forms_when_shorter():
    # 40 edges in two rows, ids >= 128: gaps of one byte against ids of two
    u, v = [200] * 20 + [300] * 20, list(range(301, 321)) + list(range(400, 420))
    data = edge_bytes(u, v)
    assert data[1] == serialize.CANONICAL
    # m, form, r = 2, rows 200 and 100, counts 20 and 20, gaps 101 and 1..., 100 and 1...
    assert len(data) == 1 + 1 + 1 + 2 + 1 + 1 + 1 + 40
    assert [a.tolist() for a in read_edges(data)] == [u, v]
    # one entry stored as (v, u) makes the list plain
    u[3], v[3] = v[3], u[3]
    assert edge_bytes(u, v) == plain_list(u, v)
    # a single edge: the plain form is never longer
    assert edge_bytes([7], [9]) == bytes([1, serialize.PLAIN, 7, 9])


def test_edges_reject_unequal_columns():
    with pytest.raises(ValueError, match="edge columns of lengths 2 and 1"):
        Writer().edges(np.array([0, 1]), np.array([1]))


def canonical_list(m: int, rows, counts, gaps) -> bytes:
    """A canonical edge list written field by field: m, the form byte, the
    row count, then the row gaps, per-row counts and max gaps."""
    w = Writer()
    w.varint(m)
    w.buf.append(serialize.CANONICAL)
    w.varint(len(rows))
    for x in [*rows, *counts, *gaps]:
        w.varint(x)
    return w.getvalue()


def one_row(m: int, **change) -> dict:
    """Fields of the list (0, 1), (0, 2), ..., (0, m) in one row."""
    return {"rows": [0], "counts": [m], "gaps": [1] * m, **change}


def edge_weights(m: int) -> bytes:
    w = Writer()
    w.f64_array(np.ones(m))
    return w.getvalue()


# a list of 3 edges is never written CANONICAL, but reads as one: its 2r + m
# varints are read as Python ints, those of 20 edges with numpy
@pytest.mark.parametrize("m", [3, 20], ids=["python", "numpy"])
@pytest.mark.parametrize(
    "fields, message",
    [
        (lambda m: one_row(m, counts=[m - 1]), "row counts"),
        (lambda m: one_row(m, rows=[0, 5], counts=[m - 1, 2], gaps=[1] * (m + 1)), "row counts"),
        (lambda m: one_row(m, counts=[0]), "row counts|rows for"),
        (lambda m: one_row(m, gaps=[1] * (m - 1) + [0]), "edge ids stop increasing"),
        (lambda m: one_row(m, rows=[4, 0], counts=[1, m - 1]), "edge rows stop increasing"),
        (lambda m: one_row(m, gaps=[2**62, 2**62] + [1] * (m - 2)), "63 bits"),
        (lambda m: one_row(m, rows=[2**62 + 2**61], gaps=[2**62] + [1] * (m - 1)), "63 bits"),
        (lambda m: one_row(m, rows=[2**62, 2**62], counts=[1, m - 1]), "stop increasing|63 bits"),
    ],
    ids=["short-count", "long-count", "zero-count", "repeated-max", "repeated-row", "max-past-int64",
         "first-max-past-int64", "row-past-int64"],
)
def test_malformed_canonical_list_is_a_domain_error(m, fields, message):
    assert [a.tolist() for a in read_edges(canonical_list(m, **one_row(m)))] == [[0] * m, list(range(1, m + 1))]
    with pytest.raises(QuadsketchError, match=message):
        read_edges(canonical_list(m, **fields(m)))


def verbatim_with_edge_form(form: int) -> bytes:
    """A verbatim spectral_basic envelope on 12 vertices whose graph's edge
    list has the given form byte."""
    sk = GOLDEN["spectral_basic-verbatim"][0]()
    w = Writer()
    w.f64(sk.epsilon)
    for x in (sk.n, 1, sk.verbatim.n, sk.verbatim.m):  # n, the verbatim flag, the graph's n and m
        w.varint(x)
    data, at = sk.to_bytes(), 6 + len(w.getvalue())
    assert data[at] == serialize.CANONICAL
    return data[:at] + bytes([form]) + data[at + 1 :]


@pytest.mark.parametrize("form", [2, 3, 7, 255])
def test_unknown_edge_list_form_is_a_domain_error(form):
    with pytest.raises(QuadsketchError, match=f"unknown edge list form {form}"):
        read_edges(bytes([2, form, 0, 1, 1, 2]))
    with pytest.raises(QuadsketchError, match=f"unknown edge list form {form}"):
        SpectralBasicSketch.from_bytes(verbatim_with_edge_form(form))


@pytest.mark.parametrize("m", [3, 20], ids=["python", "numpy"])
def test_edge_id_at_n_is_a_domain_error(m):
    """A gap that carries a graph's max to n: the graph rejects it."""
    payload = canonical_list(m, **one_row(m)) + edge_weights(m)
    assert decode("graph", envelope("graph", bytes([m + 1]) + payload)).m == m
    with pytest.raises(QuadsketchError, match="invalid graph payload"):
        decode("graph", envelope("graph", bytes([m]) + payload))


def test_jl_matrix_shape_checked():
    w = Writer()
    for x in (0.5, 0.1):
        w.f64(x)
    for k in (2, 2):  # rows, cols
        w.varint(k)
    w.f64_array(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(QuadsketchError, match="3 entries for a 2 x 2 matrix"):
        JlSketch.from_bytes(envelope("jl", w.getvalue()))


def improved_with_class_map(n: int, vmap=(0, 1)) -> bytes:
    """A one-class improved sketch on 4 vertices: an S3 record on n
    vertices holding the edge (0, 1) as a cut edge, then the entries of its
    vertex map (which has no count of its own)."""
    w = Writer()
    w.f64(0.3)
    w.varint(4)
    w.varint(0)  # not verbatim
    body = Writer()
    body.varint(1)  # one class
    body.varint(n)  # S3 record: n, cut edges, no components
    body.edges(np.array([0]), np.array([1]))
    body.f64_array(np.array([1.0]))
    body.varint(0)
    body.varints(np.array(vmap))
    w.section(body.getvalue())
    return envelope("spectral_improved", w.getvalue())


def test_improved_class_map_shorter_than_its_piece_rejected():
    sk = SpectralImprovedSketch.from_bytes(improved_with_class_map(2))
    assert sk.estimate(np.array([1.0, 0.0, 0.0, 0.0])) == 1.0
    # a vertex count too large: the map runs past the end of its section
    for n in (3, 2**62):
        with pytest.raises(QuadsketchError, match="truncated"):
            SpectralImprovedSketch.from_bytes(improved_with_class_map(n))
    with pytest.raises(QuadsketchError, match="vertex map entry 4 outside"):
        SpectralImprovedSketch.from_bytes(improved_with_class_map(2, (0, 4)))


def exact_class(sk):
    """The first class of a spectral sketch whose edges are all stored
    exactly: a low degree class of an improved sketch, a gamma <= eps^2
    class of a basic one."""
    records = [s3 for _, s3 in sk.classes] if isinstance(sk, SpectralImprovedSketch) else sk.classes
    return next(rec for rec in records if rec.q_u.size and not rec.comps)


def with_entry(a: np.ndarray, value) -> np.ndarray:
    a = a.copy()
    a[0] = value
    return a


@pytest.mark.parametrize("case", ["spectral_improved-band-and-low", "spectral_basic-verbatim-class-only"])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda rec: setattr(rec, "q_w", with_entry(rec.q_w, np.nan)), "positive and finite"),
        (lambda rec: setattr(rec, "q_w", with_entry(rec.q_w, np.inf)), "positive and finite"),
        (lambda rec: setattr(rec, "q_w", with_entry(rec.q_w, -1.0)), "positive and finite"),
        (lambda rec: setattr(rec, "q_w", with_entry(rec.q_w, 0.0)), "positive and finite"),
        (lambda rec: setattr(rec, "q_v", with_entry(rec.q_v, rec.q_u[0])), "self-loop"),
        (lambda rec: setattr(rec, "q_w", rec.q_w[:-1]), "cut edge arrays of lengths"),
    ],
    ids=["nan", "inf", "negative", "zero", "self-loop", "short-weights"],
)
def test_corrupt_exact_class_edge_rejected_at_decode(case, corrupt, message):
    sk = GOLDEN[case][0]()
    cls = type(sk)
    corrupt(exact_class(sk))
    with pytest.raises(QuadsketchError, match=message):
        cls.from_bytes(sk.to_bytes())


def first_s2_record(sk, name):
    """The first S2-shaped record of a spectral sketch (an S2 piece of a
    basic class, a component of an improved class) whose array name is not
    empty."""
    records = [s3 for _, s3 in sk.classes] if isinstance(sk, SpectralImprovedSketch) else sk.classes
    return next(piece for rec in records for _, piece in rec.comps if getattr(piece, name).size)


BASIC_S2 = "spectral_basic-s2-and-verbatim-class"  # S2 pieces with stored edges
IMPROVED_S3 = "spectral_improved-band-and-low"  # components with samples


@pytest.mark.parametrize(
    "case, name, corrupt, message",
    [
        (BASIC_S2, "sw", lambda p: with_entry(p.sw, np.nan), "stored edge weights must be positive and finite"),
        (BASIC_S2, "sw", lambda p: with_entry(p.sw, np.inf), "stored edge weights must be positive and finite"),
        (BASIC_S2, "sw", lambda p: with_entry(p.sw, 0.0), "stored edge weights must be positive and finite"),
        (BASIC_S2, "sv", lambda p: with_entry(p.sv, p.su[0]), "stored edges hold a self-loop"),
        (BASIC_S2, "sw", lambda p: p.sw[:-1], "stored edge arrays of lengths"),
        (BASIC_S2, "diag", lambda p: with_entry(p.diag, np.nan), "degrees must be non-negative and finite"),
        (BASIC_S2, "diag", lambda p: with_entry(p.diag, -1.0), "degrees must be non-negative and finite"),
        (IMPROVED_S3, "scale", lambda p: with_entry(p.scale, np.inf), "sample scales must be non-negative and finite"),
        (IMPROVED_S3, "scale", lambda p: with_entry(p.scale, -2.0), "sample scales must be non-negative and finite"),
        (IMPROVED_S3, "y", lambda p: p.y[:-1], "sample arrays of lengths"),
        (IMPROVED_S3, "nbr", lambda p: p.nbr[:-1], "sample arrays of lengths"),
    ],
    ids=[
        "weight-nan", "weight-inf", "weight-zero", "self-loop", "short-weights",
        "degree-nan", "degree-negative", "scale-inf", "scale-negative", "short-draws", "short-neighbours",
    ],
)
def test_corrupt_s2_field_rejected_at_decode(case, name, corrupt, message):
    # each corrupted field used to decode and answer (NaN for a NaN weight)
    sk = GOLDEN[case][0]()
    piece = first_s2_record(sk, name)
    setattr(piece, name, corrupt(piece))
    with pytest.raises(QuadsketchError, match=message):
        type(sk).from_bytes(sk.to_bytes())


def s1_pieces(sk):
    """(scale index, S1 piece) of every S1 piece of a cut_poly sketch."""
    return [(i, s1) for i, sc in enumerate(sk.scales) for cls in sc.classes for _, s1 in cls.comps]


def first_sampled_s1(sk, scales=None):
    """The first S1 piece with samples, in one of the given scales."""
    return next(s1 for i, s1 in s1_pieces(sk) if s1.owner.size and (scales is None or i in scales))


def unreachable_scales(sk):
    """Scales of a full-ladder sketch that no query selects."""
    k0, k1 = reachable_scales(sk.sparsifier, sk.ladder)
    return set(range(len(sk.scales))) - set(range(k0, k1 + 1))


def s1_ladder_piece(ladder: str):
    """A K_12 cut_poly sketch (s = 4) and its first sampled S1 piece: in a
    reachable scale, or, on the full ladder, in a scale no query selects."""
    g = complete_graph(12)
    if ladder == "reachable":
        sk = cut_basic_build(g, 0.3, 3, mode="pipeline")
        return sk, first_sampled_s1(sk)
    sk = cut_basic_reference(g, 0.3, 3, mode="pipeline")
    return sk, first_sampled_s1(sk, unreachable_scales(sk))


def draw_gaps(piece) -> np.ndarray:
    """The draws of an S1 piece as the wire holds them, one vertex at a
    time: per vertex v of positive degree, its s draws t = (nbr - v - 1)
    mod n with their repeats, the first as is, then the gaps."""
    gaps = []
    for v in np.flatnonzero(piece.deg).tolist():
        row = piece.owner == v
        t = [(b - v - 1) % piece.n for b, k in zip(piece.nbr[row].tolist(), piece.y[row].tolist()) for _ in range(k)]
        gaps += t[:1] + [b - a for a, b in zip(t, t[1:])]
    return np.array(gaps, dtype=np.int64)


def s1_record(piece, **fields) -> bytes:
    """The S1 record of piece (s, delta, deg, the draw gaps, w), with the
    given fields in place of its own."""
    f = {"s": piece.s, "delta": piece.delta, "deg": piece.deg, "gaps": draw_gaps(piece), "w": piece.w, **fields}
    w = Writer()
    w.varint(f["s"])
    w.f64_array(f["delta"])
    w.int_array(f["deg"])
    w.varints(f["gaps"])
    w.f64_array(f["w"])
    return w.getvalue()


def with_s1_record(sk, piece, record: bytes) -> bytes:
    """The envelope of the cut_poly sketch sk with the S1 record of piece
    replaced by record."""
    data = sk.to_bytes()
    r = Reader(data)
    r.pos = 6  # magic, version and kind
    r.f64()  # eps
    r.varint()  # n
    r.varint()  # verbatim flag
    r.section()  # sparsifier
    start = r.pos
    ladder = r.section()
    old = serialize.to_payload(S1_LAYOUT, piece)
    assert ladder.count(old) == 1
    w = Writer()
    w.section(ladder.replace(old, record))
    return data[:start] + w.getvalue()


def set_field(name, corrupt):
    """The envelope of a sketch whose piece has corrupt(piece) as its
    attribute name."""

    def envelope(sk, piece):
        setattr(piece, name, corrupt(piece))
        return sk.to_bytes()

    return envelope


def wire(corrupt):
    """The envelope of a sketch whose piece is written as the record
    corrupt(piece)."""
    return lambda sk, piece: with_s1_record(sk, piece, corrupt(piece))


def first_row_end(piece) -> int:
    """The index of the last entry of the piece's first sampling row."""
    return int(np.flatnonzero(piece.owner == piece.owner[0])[-1])


def with_gap(k: int, value: int):
    """The record of a piece whose k-th draw gap is value."""

    def record(piece):
        gaps = draw_gaps(piece)
        gaps[k] = value
        return s1_record(piece, gaps=gaps)

    return record


def last_vertex_dropped(piece) -> bytes:
    """deg one entry short, with the draws and weights of the vertices it
    still covers: the last vertex samples, so its row goes too."""
    assert piece.deg[-1] > 0
    kept = piece.owner < piece.n - 1
    return s1_record(piece, deg=piece.deg[:-1], gaps=draw_gaps(piece)[: -piece.s], w=piece.w[kept])


@pytest.mark.parametrize("ladder", ["reachable", "full"])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (set_field("w", lambda p: with_entry(p.w, np.nan)), "sample edge weights must be positive and finite"),
        (set_field("w", lambda p: with_entry(p.w, 0.0)), "sample edge weights must be positive and finite"),
        (set_field("delta", lambda p: with_entry(p.delta, -1e300)), "degrees must be non-negative and finite"),
        (set_field("delta", lambda p: with_entry(p.delta, np.inf)), "degrees must be non-negative and finite"),
        (wire(lambda p: s1_record(p, s=0)), "sample count 0 is not positive"),
        (wire(with_gap(0, 12)), r"sample neighbour outside \[0, 12\)"),
        # the last draw of a row has the largest t, so the row still encodes
        (
            set_field("nbr", lambda p: np.where(np.arange(p.nbr.size) == first_row_end(p), p.owner[0], p.nbr)),
            "sample edges hold a self-loop",
        ),
        (set_field("w", lambda p: p.w[:-1]), "sample edge arrays of lengths"),
        (wire(last_vertex_dropped), "12 degrees but 11 sample scales"),
    ],
    ids=[
        "weight-nan", "weight-zero", "degree-negative", "degree-inf", "zero-count", "neighbour-n", "self-loop",
        "short-weights", "short-degrees",
    ],
)
def test_corrupt_s1_field_rejected_at_decode(ladder, corrupt, message):
    """Each corrupted field used to decode; a NaN weight answered NaN. On
    the full ladder the corrupt piece lies in a scale that no query
    selects, so no query used to see it. The wire holds no owner or
    neighbour column: a count of 0 and a draw past the piece are written
    into the record itself, as are degrees one short (with the draws of
    the vertices they cover)."""
    sk, piece = s1_ladder_piece(ladder)
    with pytest.raises(QuadsketchError, match=message):
        CutSketchPoly.from_bytes(corrupt(sk, piece))


def swapped_first_draws(piece) -> dict:
    """The first two entries of the first sampling row swapped: a whole
    table, but out of the adjacency's order."""
    order = np.arange(piece.owner.size)
    order[:2] = [1, 0]
    assert piece.owner[1] == piece.owner[0]
    return {name: getattr(piece, name)[order] for name in ("owner", "nbr", "w", "y")}


@pytest.mark.parametrize("ladder", ["reachable", "full"])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda p: {"owner": with_entry(p.owner, p.n)}, r"sample vertex outside \[0, 12\)"),
        (lambda p: {"nbr": with_entry(p.nbr, p.n)}, r"sample vertex outside \[0, 12\)"),
        (lambda p: {"y": p.y[:-1]}, "different lengths"),
        (lambda p: {"deg": p.deg[:-1]}, "different lengths"),
        (lambda p: {"s": 0}, "do not sum to s = 0"),
        (lambda p: {"y": p.y + (np.arange(p.y.size) == 0)}, "do not sum to s = 4"),
        (lambda p: {"y": np.concatenate(([0, p.y[0] + p.y[1]], p.y[2:]))}, "multiplicity below 1"),
        (swapped_first_draws, "do not strictly increase"),
    ],
    ids=[
        "owner-n", "neighbour-n", "short-draws", "short-degrees", "zero-count", "row-sum", "zero-multiplicity",
        "permuted",
    ],
)
def test_unwritable_s1_table_rejected_at_encode(ladder, corrupt, message):
    """A table the draws cannot hold losslessly raises ValueError at
    encode: owners and multiplicities are implicit on the wire and a draw
    is taken mod n, so an owner, a neighbour outside the piece or
    multiplicities that break the table have no bytes of their own."""
    sk, piece = s1_ladder_piece(ladder)
    for name, value in corrupt(piece).items():
        setattr(piece, name, value)
    with pytest.raises(ValueError, match=message):
        sk.to_bytes()


def k12_piece():
    return s1_ladder_piece("reachable")[1]


def to_self_loop(piece) -> bytes:
    """The first row's last draw moved to t = n - 1, its owner."""
    gaps = draw_gaps(piece)
    gaps[piece.s - 1] += piece.n - 1 - gaps[: piece.s].sum()
    return s1_record(piece, gaps=gaps)


def head_bytes(piece) -> int:
    """The length of an S1 record up to its draws."""
    return len(s1_record(piece, gaps=np.empty(0, dtype=np.int64), w=np.empty(0))) - 1


@pytest.mark.parametrize(
    "record, message",
    [
        (lambda p: s1_record(p)[: head_bytes(p) + 5], "truncated sketch data"),
        (to_self_loop, "sample edges hold a self-loop"),
        (with_gap(0, 12), r"sample neighbour outside \[0, 12\)"),
        (with_gap(1, 2**63 - 1), r"sample neighbour outside \[0, 12\)"),
        (lambda p: s1_record(p, w=p.w[:-1]), "sample edge arrays of lengths"),
        (lambda p: s1_record(p, w=np.append(p.w, 1.0)), "sample edge arrays of lengths"),
        (lambda p: s1_record(p, s=2**62), "truncated sketch data"),
        # the stream is read s + 1 draws per row, past the record's end
        (lambda p: s1_record(p, s=p.s + 1), "truncated sketch data"),
        # the draws left over are read as w, whose count then differs from the runs
        (lambda p: s1_record(p, s=p.s - 1), "sample edge arrays of lengths"),
        (lambda p: s1_record(p, deg=with_entry(p.deg, 0)), "sample edge arrays of lengths"),
    ],
    ids=[
        "truncated-draws", "self-loop", "draw-n", "gap-overflows", "short-weights", "long-weights", "huge-count",
        "count-up", "count-down", "degree-zeroed",
    ],
)
def test_corrupt_draw_table_rejected_at_decode(record, message):
    """A draw stream cut short, a draw past n - 2 (a self-loop or a
    neighbour past the piece), a weight count that is not the number of
    runs, and an s or deg that makes the stream another length all raise
    QuadsketchError. A longer stream runs past the record, which the
    Reader finds before it allocates (s = 2^62 reads no draw); a shorter
    one leaves draws that are read as w, whose count then is not the
    number of runs."""
    with pytest.raises(QuadsketchError, match=message):
        serialize.from_payload(S1_LAYOUT, record(k12_piece()))


@st.composite
def s1_inputs(draw):
    """(n, edges, s, seed) of an S1 build: any canonical graph on 2 to 12
    vertices, isolated and degree-1 vertices included, with weights that
    differ, and s from 1 to 9 (above a vertex's degree, y > 1)."""
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(chosen), max_size=len(chosen)))
    edges = [(u, v, w) for (u, v), w in zip(chosen, weights)]
    return n, edges, draw(st.integers(1, 9)), draw(st.integers(0, 2**32))


@given(case=s1_inputs())
@example(case=(2, [(0, 1, 2.5)], 5, 1))  # n = 2, y = s > deg
@example(case=(5, [(0, 3, 1.0), (3, 4, 2.0)], 3, 2))  # isolated vertices 1 and 2, degree-1 vertices 0 and 4
@example(case=(3, [], 2, 3))  # no draws at all
@settings(max_examples=150, deadline=None)
def test_draw_table_round_trip_is_bit_exact(case):
    n, edges, s, seed = case
    sk = cut_s1_build(WeightedGraph(n, edges), 0.5, seed, s=s)
    data = serialize.to_payload(S1_LAYOUT, sk)
    assert data == s1_record(sk)  # the layout, as the per-vertex reference writes it
    back = serialize.from_payload(S1_LAYOUT, data)
    assert back.s == sk.s
    for name in ("delta", "deg", "owner", "nbr", "y", "w"):
        got, want = getattr(back, name), getattr(sk, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    for members in (np.arange(n) % 2 == 0, np.arange(n) < n // 2):
        assert back.estimate(members) == sk.estimate(members)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda scales: setattr(scales[0], "c", np.nan),
        lambda scales: setattr(scales[-1], "c", np.inf),
        lambda scales: setattr(scales[0], "c", -scales[0].c),
        lambda scales: setattr(scales[1], "c", scales[0].c),
        lambda scales: scales.reverse(),
    ],
    ids=["nan", "inf", "negative", "repeated", "decreasing"],
)
def test_corrupt_scale_value_rejected_at_decode(corrupt):
    """A query searches the ladder of scale values for its scale, so they
    must increase: decoded in reverse order, the ladder used to answer the
    one-vertex cut of K_12 with 13.02 in place of 11.0."""
    sk = cut_basic_build(complete_graph(12), 0.3, 3, mode="pipeline")
    assert len(sk.scales) >= 2
    corrupt(sk.scales)
    with pytest.raises(QuadsketchError, match="scale values must be positive, finite and increasing"):
        CutSketchPoly.from_bytes(sk.to_bytes())


def cut_pieces_records(sk):
    """The cut-pieces records of a sketch, with the vertex count their ids
    lie below: cut_poly classes and basic classes on the sketch's n, S3
    records on their own n."""
    if isinstance(sk, CutSketchPoly):
        return [(cls, sk.n) for sc in sk.scales for cls in sc.classes]
    if isinstance(sk, SpectralImprovedSketch):
        return [(s3, s3.n) for _, s3 in sk.classes]
    return [(cls, sk.n) for cls in sk.classes]


def with_first_map(rec, change, change_piece=lambda piece: piece):
    vmap, piece = rec.comps[0]
    rec.comps[0] = (change(vmap), change_piece(piece))


def grown(piece):
    """piece with one vertex more than its vertex map has entries: its
    vertex count on the wire is one too large, so its map is read short."""
    if isinstance(piece, CutSketchPoly):
        piece = copy.copy(piece)
        piece.n += 1
        return piece
    per_vertex = ("delta", "deg") if isinstance(piece, S1Sketch) else ("diag", "scale")
    return dataclasses.replace(piece, **{k: np.append(getattr(piece, k), 0) for k in per_vertex})


CUT_PIECES = {
    "cut_poly": lambda: cut_basic_build(complete_graph(12), 0.3, 3, mode="pipeline"),
    "spectral_basic": GOLDEN[BASIC_S2][0],
    "spectral_improved-s3": GOLDEN[IMPROVED_S3][0],
}


CUT_PIECES_CORRUPTIONS = {
    "cut-u": ("q_u", lambda rec, n: setattr(rec, "q_u", with_entry(rec.q_u, n)), "cut edge vertex .* outside"),
    "cut-v": ("q_v", lambda rec, n: setattr(rec, "q_v", with_entry(rec.q_v, n)), "cut edge vertex .* outside"),
    "short-map": ("comps", lambda rec, n: with_first_map(rec, lambda vm: vm, grown), None),
    "map-entry": ("comps", lambda rec, n: with_first_map(rec, lambda vm: with_entry(vm, n)), "vertex map entry .* outside"),
}


@pytest.mark.parametrize(
    "family, needs, corrupt, message",
    [
        pytest.param(family, *corruption, id=f"{name}-{family}")
        for family in CUT_PIECES
        for name, corruption in CUT_PIECES_CORRUPTIONS.items()
        # a cut_poly class writes rows of its Q edge table, not its cut
        # edges: test_corrupt_q_ladder_rejected_at_decode corrupts those
        if family != "cut_poly" or corruption[0] == "comps"
    ],
)
def test_corrupt_cut_pieces_rejected_at_decode(family, needs, corrupt, message):
    """A cut edge endpoint or a component's vertex map that leaves the
    record's vertices, or a component whose vertex count is one above its
    map's length; flatten used to find the first two at the first query."""
    sk = CUT_PIECES[family]()
    rec, n = next((rec, n) for rec, n in cut_pieces_records(sk) if len(getattr(rec, needs)))
    corrupt(rec, n)
    with pytest.raises(QuadsketchError, match=message):
        type(sk).from_bytes(sk.to_bytes())


def q_ladder_sketch():
    """The fuzz cut_poly sketch (n = 10, a 24-edge Q table) and its first
    class with at least three Q edges."""
    sk = FUZZ["cut_poly"][0]()
    return sk, next(cls for sc in sk.scales for cls in sc.classes if cls.q_pos.size >= 3)


def with_table_row(sk, k, u, v, w):
    for name, value in (("table_u", u), ("table_v", v), ("table_w", w)):
        a = getattr(sk, name).copy()
        a[k] = value
        setattr(sk, name, a)


def swapped_table_rows(sk, cls):
    row = (sk.table_u[0], sk.table_v[0], sk.table_w[0])
    with_table_row(sk, 0, sk.table_u[1], sk.table_v[1], sk.table_w[1])
    with_table_row(sk, 1, *row)


# Corruptions of the Q edge table and of a class's rows, made on a built
# sketch after construction: the writer writes the table and each class's
# rows as they are, so each envelope holds the corruption on the wire.
Q_LADDER_CORRUPTIONS = {
    "row-past-table": (
        lambda sk, cls: setattr(cls, "q_pos", np.append(cls.q_pos[:-1], sk.table_u.size)),
        r"Q table row 24 outside \[0, 24\)",
    ),
    "row-repeated": (lambda sk, cls: setattr(cls, "q_pos", np.array([3, 3, 5])), "do not strictly increase"),
    # gaps 5 and 2**63 - 1: their sum wraps to a row below 5
    "row-decreasing": (lambda sk, cls: setattr(cls, "q_pos", np.array([5, -(2**63) + 4])), "do not strictly increase"),
    "weight-zero": (lambda sk, cls: with_table_row(sk, 0, 0, 1, 0.0), "weights must be positive and finite"),
    "weight-inf": (lambda sk, cls: with_table_row(sk, 0, 0, 1, np.inf), "weights must be positive and finite"),
    "weight-nan": (lambda sk, cls: with_table_row(sk, 0, 0, 1, np.nan), "weights must be positive and finite"),
    "weights-short": (lambda sk, cls: setattr(sk, "table_w", sk.table_w[:-1]), "24 Q table edges but 23 weights"),
    "edge-reversed": (lambda sk, cls: with_table_row(sk, 0, 1, 0, 1.0), "u < v"),
    "edge-loop": (lambda sk, cls: with_table_row(sk, 0, 0, 0, 1.0), "self-loop"),
    "vertex-past-n": (lambda sk, cls: with_table_row(sk, -1, 7, 10, 1.0), r"Q table edge vertex 10 outside \[0, 10\)"),
    "rows-unordered": (swapped_table_rows, "strictly increase"),
    "row-twice": (lambda sk, cls: with_table_row(sk, 1, 0, 1, 1.0), "strictly increase"),
}


def q_ladder_corrupted(name: str) -> bytes:
    sk, cls = q_ladder_sketch()
    corrupt, _ = Q_LADDER_CORRUPTIONS[name]
    corrupt(sk, cls)
    return sk.to_bytes()


@pytest.mark.parametrize("name", list(Q_LADDER_CORRUPTIONS))
def test_corrupt_q_ladder_rejected_at_decode(name):
    """A class row outside its Q edge table or out of order, and a table
    whose weights, endpoints or order no build writes: each is rejected
    before a query reads the rows. The table's first rows are (0, 1) and
    (0, 2), its last (7, 9)."""
    sk, _ = q_ladder_sketch()
    assert (sk.table_u[:2].tolist(), sk.table_v[:2].tolist()) == ([0, 0], [1, 2])
    assert (sk.n, sk.table_u.size, sk.table_u[-1], sk.table_v[-1]) == (10, 24, 7, 9)
    CutSketchPoly.from_bytes(sk.to_bytes())
    with pytest.raises(QuadsketchError, match=Q_LADDER_CORRUPTIONS[name][1]):
        CutSketchPoly.from_bytes(q_ladder_corrupted(name))


def test_corrupt_q_ladder_rejected_inside_general_sketch():
    """A cut_general sketch reads its slices' poly sketches with the same
    layout."""
    sk = cut_sketch_build(gnp_connected(10, 0.6, seed=2), 0.3, 3, mode="pipeline")
    poly = next(p for gs in sk.stored for _, p in gs.comps if p.table_u.size)
    poly.table_w = np.full(poly.table_w.size, np.nan)
    with pytest.raises(QuadsketchError, match="weights must be positive and finite"):
        CutSketchGeneral.from_bytes(sk.to_bytes())


def basic_with_nan_stored_weight() -> bytes:
    sk = GOLDEN[BASIC_S2][0]()
    piece = first_s2_record(sk, "sw")
    piece.sw = with_entry(piece.sw, np.nan)
    return sk.to_bytes()


def general_sketch():
    """Tree weights 4^i: every forest edge starts a stored slice."""
    g = WeightedGraph(6, [(i, i + 1, 4.0**i) for i in range(5)] + [(0, 3, 1.0), (1, 4, 2.0)])
    sk = cut_sketch_build(g, 0.2, 4, mode="pipeline")
    assert len(sk.stored) >= 2
    return sk


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda sk: sk.tree.__setitem__(0, (0, 99, sk.tree[0][2])), "forest endpoint 99 outside"),
        (lambda sk: setattr(sk.stored[0], "labels", sk.stored[0].labels[:-1]), "contraction labels"),
        (lambda sk: setattr(sk.stored[0], "labels", sk.stored[0].labels + 10), "contraction labels"),
        (lambda sk: setattr(sk.stored[1], "j", sk.stored[0].j), "slice indices"),
        (lambda sk: setattr(sk.stored[-1], "j", len(sk.tree)), "slice indices"),
        (lambda sk: sk.stored.pop(0), "start at 0"),
        (lambda sk: sk.stored.clear(), "start at 0"),
        (lambda sk: setattr(sk.stored[0], "comps", [(vm, grown(p)) for vm, p in sk.stored[0].comps]), "vertex"),
    ],
    ids=[
        "endpoint", "label-count", "label-value", "slice-order", "slice-range", "slice-start", "no-slice",
        "component-map",
    ],
)
def test_corrupt_general_sketch_rejected_at_decode(corrupt, message):
    sk = general_sketch()
    CutSketchGeneral.from_bytes(sk.to_bytes())
    corrupt(sk)
    with pytest.raises(QuadsketchError, match=message):
        CutSketchGeneral.from_bytes(sk.to_bytes())


# Small envelopes of all six families and one query each; "cut_poly_s1"
# (K_8 at eps 0.4) stores four sampled S1 pieces, which "cut_poly" lacks.
# New cases go last: tools/fuzz_envelopes.py seeds each family by its index.
FUZZ = {
    "cut_general": (lambda: cut_sketch_build(complete_graph(6), 0.4, 3, mode="pipeline"), "cut"),
    "cut_poly": (lambda: cut_basic_build(gnp_connected(10, 0.6, seed=2), 0.3, 3, mode="pipeline"), "cut"),
    "spectral_basic": (GOLDEN["spectral_basic-s2-and-verbatim-class"][0], "spectral"),
    "spectral_improved": (lambda: spectral_improved_build(gnp_connected(16, 0.5, seed=4), 0.25, 5), "spectral"),
    "sdd": (lambda: sdd_sketch_build(sdd_matrix(5, 1), 0.3, 4), "spectral"),
    "jl": (lambda: jl_build(psd_matrix(6, 3), 0.5, 0.2, 4), "spectral"),
    "cut_poly_s1": (lambda: cut_basic_build(complete_graph(8), 0.4, 3, mode="pipeline"), "cut"),
}


def test_fuzz_corpus_holds_sampled_s1_pieces():
    sk = FUZZ["cut_poly_s1"][0]()
    assert sum(len(cls.comps) for sc in sk.scales for cls in sc.classes) == 4


@functools.cache
def fuzz_case(family):
    make, query_kind = FUZZ[family]
    sk = make()
    query = np.arange(sk.n) % 2 == 0 if query_kind == "cut" else np.linspace(-1.0, 1.0, sk.n)
    return type(sk), sk.to_bytes(), query


@pytest.mark.parametrize("family", list(FUZZ))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_corrupt_envelope_answers_or_raises_domain_error(family, data):
    """Silent answers stay possible: nothing checksums the payload."""
    cls, blob, query = fuzz_case(family)
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        buf = bytearray(blob)
        edits = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255))
        for pos, byte in data.draw(st.lists(edits, min_size=1, max_size=3), label="overwrites"):
            buf[pos] = byte
        blob = bytes(buf)
    try:
        with np.errstate(all="ignore"):  # corrupt doubles may overflow
            cls.from_bytes(blob).estimate(query)
    except QuadsketchError:
        pass


@pytest.mark.parametrize("family", ["cut_general", "cut_poly", "spectral_basic", "spectral_improved"])
def test_composite_verbatim_flag_outside_0_and_1_rejected(family):
    cls, blob, _ = fuzz_case(family)
    flag = 6 + 8 + 1  # header, eps, then n (one varint byte below 128)
    assert blob[flag] == 0
    with pytest.raises(QuadsketchError, match="verbatim flag 2"):
        cls.from_bytes(blob[:flag] + bytes([2]) + blob[flag + 1 :])


def plain(value) -> bool:
    return isinstance(value, (int, float, str, dict)) or (
        isinstance(value, list) and all(isinstance(x, str) for x in value)
    )


def assert_same_state(built, decoded):
    """The two sketches hold the same attribute names, equal values where
    a value is a number, str, dict or list of str, and nested sketches that
    compare the same way."""
    assert vars(built).keys() == vars(decoded).keys()
    for name, value in vars(built).items():
        other = getattr(decoded, name)
        if plain(value) or plain(other):
            assert value == other, name
        elif hasattr(value, "to_bytes"):
            assert_same_state(value, other)


@pytest.mark.parametrize("family", list(FUZZ))
def test_decoded_sketch_holds_what_the_built_one_holds(family):
    """A sketch is its stored data: nothing the build knew is lost or kept
    apart in memory, and every family answers with a Python float."""
    sk = FUZZ[family][0]()
    cls, blob, query = fuzz_case(family)
    back = cls.from_bytes(blob)
    assert_same_state(sk, back)  # before a query fills any cache
    assert type(sk.estimate(query)) is float
    assert type(back.estimate(query)) is float
