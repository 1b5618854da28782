"""Where the bytes of an envelope are: its bytes per record field.

    python3 tools/envelope_fields.py [--seed SEED]

Sets up the cut-build and spectral-build workloads of perfbench.workloads
(FULL sizes, seed 1 unless --seed says otherwise) with one BLAS thread and
builds each of their six families once. It encodes each sketch under a
``sys.setprofile`` hook over the ``serialize.Writer`` methods and gives
every byte to the record field that wrote it; nothing in ``src/`` changes.

A top-level ``Writer`` call (one made while no other ``Writer`` method
runs) is charged to the path of the ``fields`` names on its stack, the
outermost first, so one path sums a field over every class, piece and
component that holds it. Calls made by the other groups of the layout
vocabulary end the path with what they write: an ``edges`` group its
endpoint columns (``u/v``) or weights, ``draw_table`` its draws
(``owner/nbr/y``) or weights, ``seq`` a ``(count)``, ``pairs`` a
``(vertex map)``, ``composite`` its ``(verbatim flag)`` (a verbatim graph
adds ``verbatim`` to the path), ``tuple_of`` the ``Writer`` method name.
A section is charged only its ``(length)`` prefix: its payload was charged
by the calls that wrote it. The six bytes before the payload are the
``(envelope header)``.

Per family it prints the envelope's length and then one line per path,
largest first: its bytes and share of the envelope. It asserts that the
charged bytes sum to ``len(sketch.to_bytes())``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as perfbench/run.py sets it
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from quadsketch import serialize  # noqa: E402

WRITES = {
    getattr(serialize.Writer, name).__code__: name
    for name in ("varint", "f64", "int_array", "varints", "f64_array", "edges", "draws", "section")
}


def _direct(qualname: str, frame, method: str) -> str | None:
    """What a call of the Writer method, made straight from frame, writes
    there; None when the frame is no group of the layout vocabulary."""
    group = qualname.split(".<locals>.")[0]
    if group == "edges":
        loc = frame.f_locals
        return f"{loc['u']}/{loc['v']}" if method == "edges" else loc["w"]
    if group == "_draw_table":
        return "owner/nbr/y" if method == "draws" else "w"
    return {
        "seq": "(count)",
        "pairs": "(vertex map)",
        "composite": "(verbatim flag)",
        "tuple_of": method,
    }.get(group)


def field_path(frame, method: str) -> str:
    """The path of the field that a top-level call of the Writer method,
    made from frame, writes."""
    path = []
    direct = True
    while frame is not None:
        qualname = frame.f_code.co_qualname
        if qualname == "fields.<locals>.write":
            path.append(frame.f_locals["name"])
        elif direct and method == "section":
            path.append("(length)")
        elif direct:
            last = _direct(qualname, frame, method)
            if last is not None:
                path.append(last)
        elif qualname == "composite.<locals>.write" and frame.f_locals["sk"].is_verbatim:
            path.append("verbatim")
        direct = False
        frame = frame.f_back
    return ".".join(reversed(path))


def field_bytes(sketch) -> tuple[bytes, Counter]:
    """The envelope of sketch and the bytes each field path wrote of it."""
    charged = Counter()
    open_calls = []  # (frame, writer, length before the call, path)

    def hook(frame, event, arg):
        method = WRITES.get(frame.f_code)
        if method is None or event not in ("call", "return"):
            return
        if event == "call":
            if not open_calls:
                writer = frame.f_locals["self"]
                open_calls.append((frame, writer, len(writer.buf), field_path(frame.f_back, method)))
            else:
                open_calls.append((frame, None, 0, None))
            return
        top, writer, before, path = open_calls.pop()
        assert top is frame
        if writer is not None:
            grown = len(writer.buf) - before
            if method == "section":
                grown -= len(frame.f_locals["payload"])
            charged[path] += grown

    sys.setprofile(hook)
    try:
        data = sketch.to_bytes()
    finally:
        sys.setprofile(None)
    charged["(envelope header)"] = len(serialize.envelope(sketch.kind, b""))
    total = sum(charged.values())
    if total != len(data):
        raise AssertionError(f"{type(sketch).__name__}: charged {total} B of a {len(data)} B envelope")
    return data, charged


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    for cls in (workloads.CutBuild, workloads.SpectralBuild):
        wl = cls(args.seed, workloads.FULL)
        wl.setup(workloads.Stats())
        for fam in wl.families:
            data, charged = field_bytes(fam.build())
            print(f"{wl.name} {fam.name}: {len(data):,} B")
            for path, n in sorted(charged.items(), key=lambda kv: (-kv[1], kv[0])):
                print(f"  {n:>10,}  {100 * n / len(data):5.1f} %  {path}")
            print()


if __name__ == "__main__":
    main()
