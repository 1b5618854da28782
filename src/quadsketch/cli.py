"""quadsketch command line interface.

Subcommands: cut-sketch, spectral-sketch, psd, sdd, sparsify, partition,
oracle, mincut, bench. All randomness derives from --seed; identical flags,
seed and input produce byte-identical outputs. CSV output starts with the
versioned header comment "# quadsketch v1".

Exit codes: 0 success, 2 usage error, 1 runtime error (bad files, caps).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .cutsketch import CutSketchGeneral, cut_sketch_build
from .distmincut import run_protocol
from .errors import QuadsketchError
from .estimator import flatten
from .graph import (
    WeightedGraph,
    cut_weight,
    format_graph,
    load_graph,
    members_from_vertices,
)
from .oracle import lambda1_normalized, min_cut_exact
from .partition import cut_preprocessing, degree_class_partition, spectral_preprocessing
from .psdsdd import (
    jl_build,
    load_matrix,
    sdd_sketch_build,
    sdd_to_laplacian,
)
from .rng import derive_seed, rng_for
from .serialize import sketch_class
from .spectral import spectral_basic_build, spectral_improved_build
from .sparsify import SparsifierConfig, sparsify

CSV_HEADER = "# quadsketch v1"


def _load_sketch(path, kinds: tuple[str, ...]):
    """Decode the sketch in path; a sketch of another kind is a domain error."""
    with open(path, "rb") as f:
        data = f.read()
    cls = sketch_class(data)
    if cls.kind not in kinds:
        raise QuadsketchError(f"{path} holds a {cls.kind} sketch, expected {' or '.join(kinds)}")
    return cls.from_bytes(data)


def _write_out(args, data: bytes | str):
    if getattr(args, "output", None):
        mode = "wb" if isinstance(data, bytes) else "w"
        with open(args.output, mode) as f:
            f.write(data)
    else:
        if isinstance(data, bytes):
            sys.stdout.buffer.write(data)
        else:
            sys.stdout.write(data)


def _parse_members(n: int, text: str) -> np.ndarray:
    if text.strip() == "":
        raise QuadsketchError("empty cut query")
    vertices = [int(tok) for tok in text.replace(",", " ").split()]
    return members_from_vertices(n, vertices)


def _parse_vector(n: int, text: str) -> np.ndarray:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as f:
            text = f.read()
    vals = [float(tok) for tok in text.replace(",", " ").split()]
    if len(vals) != n:
        raise QuadsketchError(f"query has {len(vals)} entries, sketch expects {n}")
    return np.array(vals)


def _emit_rows(args, header: list[str], rows: list[list]):
    if args.format == "json":
        out = [dict(zip(header, row)) for row in rows]
        _write_out(args, json.dumps(out, indent=2) + "\n")
        return
    lines = [CSV_HEADER, ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _write_out(args, "\n".join(lines) + "\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        return np.format_float_positional(x, trim="-")
    return str(x)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_build(args) -> int:
    _write_out(args, args.build(args).to_bytes())
    return 0


def _cmd_query(args) -> int:
    sk = _load_sketch(args.sketch, args.kinds)
    if args.command != "cut-sketch":
        print(_fmt(sk.estimate(_parse_vector(sk.n, args.query))))
        return 0
    s = _parse_members(sk.n, args.query)
    print(_fmt(sk.estimate(s)))
    if args.detail:
        detail = _route_detail(sk, s, os.path.getsize(args.sketch))
        print(json.dumps({k: _fmt(v) if isinstance(v, float) else str(v) for k, v in detail.items()}, indent=2), file=sys.stderr)
    return 0


def _route_detail(sk, s, size: int) -> dict:
    """How a cut sketch answered s, read off its route. For a ladder
    (cut_poly) sketch: the sparsifier's cut value c_tilde, the scale value c
    and its index into the stored ladder, each weight class's unscaled
    share of the answer, and the file's size as an upper bound on the bytes
    the answer read. For a general sketch: the first forest edge j that s
    cuts, the stored slice k that answers, their forest weights and the
    slice's component count."""
    if sk.is_verbatim:
        return {"mode": "verbatim"}
    detail = {"mode": "sketch"}
    route = sk.route(s)
    if route is None:
        return detail
    if isinstance(sk, CutSketchGeneral):
        j, gs = route
        detail.update(j=j, k=gs.j, w_ej=sk.tree[j][2], w_ek=sk.tree[gs.j][2], n_components=len(gs.comps))
        return detail
    detail["c_tilde"], idx = route
    if idx is not None:
        scale, x = sk.scales[idx], s.astype(np.float64)
        per_class = [(cls.index, flatten(sk.n, cls.parts(sk.n)).estimate(x)) for cls in scale.classes]
        detail.update(c=scale.c, scale_index=idx, per_class=per_class, bytes_touched=size)
    return detail


def _cmd_size(args) -> int:
    _load_sketch(args.sketch, args.kinds)  # a corrupt file or another kind is an error
    _emit_rows(args, ["bytes"], [[os.path.getsize(args.sketch)]])
    return 0


def _cmd_sdd_reduce(args) -> int:
    diag, lap = sdd_to_laplacian(load_matrix(args.matrix))
    _write_out(args, "# diag " + " ".join(repr(float(d)) for d in diag) + "\n" + format_graph(lap))
    return 0


def _cmd_sparsify(args) -> int:
    g = load_graph(args.graph)
    cfg = SparsifierConfig(args.epsilon, args.kind, args.seed)
    h = sparsify(g, cfg)
    _write_out(args, format_graph(h))
    return 0


def _cmd_partition(args) -> int:
    g = load_graph(args.graph)
    rows = []
    if args.mode == "cut":
        prep = cut_preprocessing(g, args.scale, args.epsilon, args.seed)
        for cl in prep.classes:
            for ci, comp in enumerate(cl.result.components):
                rows.append(
                    ["cut", cl.index, ci, comp.graph.n, comp.graph.m, int(comp.certified)]
                )
            rows.append(["cut-cross", cl.index, -1, 0, cl.result.cross_count, 1])
        header = ["mode", "class", "component", "n", "m", "certified"]
    elif args.mode == "spectral":
        part = spectral_preprocessing(g, args.h)
        for ci, comp in enumerate(part.components):
            rows.append(["spectral", 0, ci, comp.graph.n, comp.graph.m, int(comp.certified)])
        rows.append(["spectral-cross", 0, -1, 0, part.cross_count, 1])
        header = ["mode", "class", "component", "n", "m", "certified"]
    else:
        dcp = degree_class_partition(g, args.epsilon, args.seed)
        for ci, dc in enumerate(dcp.classes):
            rows.append(
                [dc.kind, dc.weight_class if dc.weight_class is not None else -1, ci,
                 dc.piece.n, dc.piece.m, dc.depth]
            )
        header = ["kind", "weight_class", "component", "n", "m", "depth"]
    _emit_rows(args, header, rows)
    return 0


def _cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    if args.action == "mincut":
        val, members = min_cut_exact(g)
        print(_fmt(float(val)))
        print(",".join(str(v) for v in np.flatnonzero(members)), file=sys.stderr)
    elif args.action == "lambda1":
        print(_fmt(lambda1_normalized(g)))
    else:
        members = _parse_members(g.n, args.query)
        print(_fmt(cut_weight(g, members)))
    return 0


def _cmd_mincut(args) -> int:
    g = load_graph(args.graph)
    t = run_protocol(g, args.servers, args.epsilon, args.reps, args.seed)
    true_val, _ = min_cut_exact(g)
    returned_true = cut_weight(g, t.best_members)
    rel_err = abs(returned_true - true_val) / true_val if true_val > 0 else 0.0
    header = [
        "n", "m", "k", "epsilon", "bytes_total", "bytes_per_server",
        "est_cut", "true_cut", "rel_err",
    ]
    per_server = ";".join(
        str(sk + sp) for sk, sp in zip(t.sketch_bytes, t.sparsifier_bytes)
    )
    rows = [[g.n, g.m, args.servers, args.epsilon, t.total_bytes, per_server,
             t.best_estimate, float(true_val), rel_err]]
    _emit_rows(args, header, rows)
    return 0


SIZE_SUITES = {
    "cut-size": lambda g, eps, seed: cut_sketch_build(g, eps, seed, mode="pipeline"),
    "spectral-size": spectral_improved_build,
}


def _bench_point(g, suite: str, eps: float, seed: int, queries: int):
    if suite in SIZE_SUITES:
        return [g.n, g.m, eps, len(SIZE_SUITES[suite](g, eps, seed).to_bytes())]
    sk = cut_sketch_build(g, eps, seed, mode="pipeline")
    rng = rng_for(seed, "queries")
    errs = []
    for _ in range(queries):
        members = rng.random(g.n) < 0.5
        if not members.any() or members.all():
            continue
        true = cut_weight(g, members)
        if true <= 0:
            continue
        errs.append(abs(sk.estimate(members) - true) / true)
    worst = max(errs) if errs else 0.0
    mean = sum(errs) / len(errs) if errs else 0.0
    return [g.n, g.m, eps, mean, worst]


def _cmd_bench(args) -> int:
    eps_list = [float(tok) for tok in args.eps.split(",")]
    if args.graph:
        g = load_graph(args.graph)
    else:
        rng = rng_for(args.seed, "bench-graph")
        n, p = args.n, args.p
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < p
        g = WeightedGraph(n, _arrays=(iu[keep], ju[keep], np.ones(int(keep.sum()))))
    # every grid point derives its own seed
    rows = [
        _bench_point(g, args.suite, eps, derive_seed(args.seed, "bench", repr(eps)), args.queries)
        for eps in eps_list
    ]
    if args.suite in SIZE_SUITES:
        header = ["n", "m", "epsilon", "bytes"]
        rows.sort(key=lambda r: -r[2])
    else:
        header = ["n", "m", "epsilon", "mean_rel_err", "max_rel_err"]
    _emit_rows(args, header, rows)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p, *, epsilon=True, seed=True, fmt=False, output=False):
    if epsilon:
        p.add_argument("--epsilon", "-e", type=float, default=0.1)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    if output:
        p.add_argument("-o", "--output", default=None)


def _add_query(ps, name: str, kinds: tuple[str, ...], **query_help):
    q = ps.add_parser(name)
    q.add_argument("sketch")
    q.add_argument("query", **query_help)
    q.set_defaults(func=_cmd_query, kinds=kinds)
    return q


def _add_size(ps, kinds: tuple[str, ...]):
    s = ps.add_parser("size")
    s.add_argument("sketch")
    _add_common(s, epsilon=False, seed=False, fmt=True, output=True)
    s.set_defaults(func=_cmd_size, kinds=kinds)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadsketch",
        description="Randomized cut and spectral sketches for graph Laplacians",
    )
    ap.add_argument("--version", action="version", version=f"quadsketch {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cut-sketch", help="build or query a cut sketch")
    ps = p.add_subparsers(dest="action", required=True)
    b = ps.add_parser("build")
    b.add_argument("graph")
    b.add_argument("--mode", choices=("auto", "pipeline"), default="auto")
    _add_common(b, output=True)
    b.set_defaults(
        func=_cmd_build, build=lambda a: cut_sketch_build(load_graph(a.graph), a.epsilon, a.seed, mode=a.mode)
    )
    cut_kinds = ("cut_poly", "cut_general")
    _add_query(ps, "query", cut_kinds, help="comma separated vertex ids of S").add_argument(
        "--detail", action="store_true"
    )
    _add_size(ps, cut_kinds)

    p = sub.add_parser("spectral-sketch", help="build or query a spectral sketch")
    ps = p.add_subparsers(dest="action", required=True)
    b = ps.add_parser("build")
    b.add_argument("graph")
    b.add_argument("--variant", choices=("basic", "improved"), default="improved")
    _add_common(b, output=True)
    b.set_defaults(
        func=_cmd_build,
        build=lambda a: (spectral_basic_build if a.variant == "basic" else spectral_improved_build)(
            load_graph(a.graph), a.epsilon, a.seed
        ),
    )
    spectral_kinds = ("spectral_basic", "spectral_improved")
    _add_query(ps, "query", spectral_kinds, help="comma separated reals, or @file; use -- before negative values")
    _add_size(ps, spectral_kinds)

    p = sub.add_parser("psd", help="JL sketch of a PSD matrix")
    ps = p.add_subparsers(dest="action", required=True)
    b = ps.add_parser("jl-build")
    b.add_argument("matrix")
    b.add_argument("--delta", type=float, default=0.1)
    _add_common(b, output=True)
    b.set_defaults(func=_cmd_build, build=lambda a: jl_build(load_matrix(a.matrix), a.epsilon, a.delta, a.seed))
    _add_query(ps, "jl-query", ("jl",))

    p = sub.add_parser("sdd", help="SDD matrix sketch via the Laplacian reduction")
    ps = p.add_subparsers(dest="action", required=True)
    b = ps.add_parser("build")
    b.add_argument("matrix")
    _add_common(b, output=True)
    b.set_defaults(func=_cmd_build, build=lambda a: sdd_sketch_build(load_matrix(a.matrix), a.epsilon, a.seed))
    r = ps.add_parser("reduce")
    r.add_argument("matrix")
    _add_common(r, epsilon=False, seed=False, output=True)
    r.set_defaults(func=_cmd_sdd_reduce)
    _add_query(ps, "query", ("sdd",))

    p = sub.add_parser("sparsify", help="cut/spectral sparsifier")
    p.add_argument("graph")
    p.add_argument("--kind", choices=("cut", "spectral"), default="cut")
    _add_common(p, output=True)
    p.set_defaults(func=_cmd_sparsify)

    p = sub.add_parser("partition", help="inspect the partition machinery")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("cut", "spectral", "degree"), default="spectral")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--h", type=float, default=0.1)
    _add_common(p, fmt=True, output=True)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("oracle", help="exact brute-force answers")
    ps = p.add_subparsers(dest="action", required=True)
    for name in ("mincut", "lambda1"):
        b = ps.add_parser(name)
        b.add_argument("graph")
    c = ps.add_parser("cutweight")
    c.add_argument("graph")
    c.add_argument("query")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("mincut", help="simulated distributed minimum cut")
    p.add_argument("graph")
    p.add_argument("--servers", type=int, default=2)
    p.add_argument("--reps", type=int, default=9)
    _add_common(p, fmt=True, output=True)
    p.set_defaults(func=_cmd_mincut)

    p = sub.add_parser("bench", help="(n, eps) sweeps emitting CSV")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--suite", choices=(*SIZE_SUITES, "cut-error"), default="cut-size")
    p.add_argument("--eps", default="0.25,0.125,0.0625")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--queries", type=int, default=50)
    _add_common(p, epsilon=False, fmt=True, output=True)
    p.set_defaults(func=_cmd_bench)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (QuadsketchError, OSError, ValueError) as exc:
        print(f"quadsketch: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
