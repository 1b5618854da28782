import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadsketch.cutsketch import CutSketchGeneral, cut_sketch_build
from quadsketch.errors import QuadsketchError
from quadsketch.graph import DirectedGraph, WeightedGraph
from quadsketch.spectral import SpectralImprovedSketch, spectral_improved_build
from quadsketch.serialize import (
    Reader,
    Writer,
    graph_bytes,
    graph_from_bytes,
    open_envelope,
    read_digraph,
    write_digraph,
)

from conftest import complete_graph, gnp_connected


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


def test_graph_envelope_roundtrip():
    g = gnp_connected(17, 0.4, seed=1, w_lo=0.25, w_hi=4.0)
    assert graph_from_bytes(graph_bytes(g)) == g


def test_digraph_roundtrip():
    d = DirectedGraph(5, [(1, 0, 2.0), (2, 3, 1.0), (4, 2, 0.5)])
    w = Writer()
    write_digraph(w, d)
    back = read_digraph(Reader(w.getvalue()))
    assert np.array_equal(back.arc_u, d.arc_u)
    assert np.array_equal(back.arc_v, d.arc_v)
    assert np.array_equal(back.arc_w, d.arc_w)


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
    data = graph_bytes(g)
    with pytest.raises(QuadsketchError):
        graph_from_bytes(data[:8] + b"")


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
