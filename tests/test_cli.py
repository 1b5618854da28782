import ast
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from quadsketch.cli import main
from quadsketch.cutsketch import CutSketchPoly, cut_basic_build, cut_sketch_build
from quadsketch.graph import load_graph, save_graph
from quadsketch.psdsdd import jl_build
from quadsketch.rng import derive_seed
from quadsketch.serialize import Writer, envelope, sketch_class
from quadsketch.spectral import spectral_improved_build

from conftest import complete_graph, format_matrix, gnp_connected
from test_serialize import Q_LADDER_CORRUPTIONS, basic_with_nan_stored_weight, general_sketch, improved_with_class_map
from test_serialize import q_ladder_corrupted, verbatim_with_edge_form


@pytest.fixture
def tri(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text("3 3\n0 1 1.0\n1 2 1.0\n0 2 1.0\n")
    return str(p)


@pytest.fixture
def rand_graph(tmp_path):
    g = gnp_connected(20, 0.4, seed=3)
    p = tmp_path / "g.txt"
    save_graph(g, p)
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_oracle_cutweight_triangle(tri, capsys):
    code, out, _ = run_cli(["oracle", "cutweight", tri, "0"], capsys)
    assert code == 0 and out.strip() == "2"


def test_oracle_mincut_and_lambda1(tri, capsys):
    code, out, _ = run_cli(["oracle", "mincut", tri], capsys)
    assert code == 0 and float(out.strip()) == 2.0
    code, out, _ = run_cli(["oracle", "lambda1", tri], capsys)
    assert code == 0 and float(out.strip()) == pytest.approx(1.5)


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["definitely-not-a-command"])
    assert e.value.code == 2


def test_missing_file_exit_1(capsys):
    code, _, err = run_cli(["oracle", "mincut", "/nonexistent/g.txt"], capsys)
    assert code == 1 and "error" in err


def test_malformed_graph_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("2 1\n0 0 1.0\n")
    code, _, err = run_cli(["oracle", "mincut", str(p)], capsys)
    assert code == 1 and "line 2" in err


def test_non_finite_weight_reports_line(tmp_path, capsys):
    p = tmp_path / "inf.txt"
    p.write_text("3 2\n0 1 1.0\n1 2 inf\n")
    code, _, err = run_cli(["oracle", "mincut", str(p)], capsys)
    assert code == 1 and "line 3" in err


def test_total_weight_that_is_not_finite_exits_1(tmp_path, capsys):
    p = tmp_path / "heavy.txt"
    save_graph(complete_graph(40, 1e307), p)
    code, out, err = run_cli(["cut-sketch", "build", str(p), "--mode", "pipeline", "-e", "0.05",
                              "-o", str(tmp_path / "sk.bin")], capsys)
    assert code == 1 and not out and "total edge weight is not finite" in err and "Traceback" not in err


def test_build_is_deterministic(rand_graph, tmp_path, capsys):
    out1 = tmp_path / "a.qsk"
    out2 = tmp_path / "b.qsk"
    for out in (out1, out2):
        code, _, _ = run_cli(
            ["cut-sketch", "build", rand_graph, "--epsilon", "0.1", "--seed", "7",
             "--mode", "pipeline", "-o", str(out)],
            capsys,
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_build_query_roundtrip_matches_library(rand_graph, tmp_path, capsys):
    out = tmp_path / "g.qsk"
    run_cli(["cut-sketch", "build", rand_graph, "-e", "0.15", "--seed", "3",
             "--mode", "pipeline", "-o", str(out)], capsys)
    code, text, _ = run_cli(["cut-sketch", "query", str(out), "0,1,2"], capsys)
    assert code == 0
    from quadsketch.cutsketch import cut_sketch_build
    from quadsketch.graph import load_graph, members_from_vertices

    g = load_graph(rand_graph)
    sk = cut_sketch_build(g, 0.15, 3, mode="pipeline")
    expected = sk.estimate(members_from_vertices(20, [0, 1, 2]))
    assert float(text.strip()) == pytest.approx(expected, rel=1e-15)


def test_cut_sketch_size(rand_graph, tmp_path, capsys):
    out = tmp_path / "g.qsk"
    run_cli(["cut-sketch", "build", rand_graph, "-e", "0.2", "-o", str(out)], capsys)
    code, text, _ = run_cli(["cut-sketch", "size", str(out)], capsys)
    assert code == 0
    assert text.startswith("# quadsketch v1")
    assert text.strip().splitlines()[1:] == ["bytes", str(out.stat().st_size)]


def test_spectral_roundtrip(rand_graph, tmp_path, capsys):
    out = tmp_path / "s.qsk"
    code, _, _ = run_cli(
        ["spectral-sketch", "build", rand_graph, "--variant", "improved",
         "-e", "0.25", "--seed", "5", "-o", str(out)],
        capsys,
    )
    assert code == 0
    q = ",".join(str(float(i % 3 - 1)) for i in range(20))
    code, text, _ = run_cli(["spectral-sketch", "query", str(out), "--", q], capsys)
    assert code == 0
    float(text.strip())


def test_cut_query_detail_on_a_ladder_sketch(tmp_path, capsys):
    cases = [
        (gnp_connected(20, 0.5, seed=5), 3, [0, 1, 2]),
        (gnp_connected(20, 0.5, seed=5), 3, list(range(7))),
        (gnp_connected(20, 0.5, seed=4, w_lo=1.0, w_hi=4.0), 2, list(range(0, 20, 3))),
    ]
    for g, seed, query in cases:
        sk = cut_basic_build(g, 0.15, seed, mode="pipeline")
        assert not sk.is_verbatim
        data = sk.to_bytes()
        skp = tmp_path / "poly.qsk"
        skp.write_bytes(data)
        code, out, err = run_cli(["cut-sketch", "query", str(skp), ",".join(map(str, query)), "--detail"], capsys)
        assert code == 0
        answer = float(out.strip())
        assert answer == sk.estimate(np.isin(np.arange(20), query))
        diag = json.loads(err)
        assert diag.keys() == {"mode", "c_tilde", "c", "scale_index", "per_class", "bytes_touched"}
        assert diag["mode"] == "sketch"
        # the whole file bounds the bytes an answer reads
        assert int(diag["bytes_touched"]) == len(data)
        # the classes' unscaled shares, times the scale value, are the answer
        parts = [v for _, v in ast.literal_eval(diag["per_class"])]
        assert answer == pytest.approx(float(diag["c"]) * math.fsum(parts), rel=1e-12, abs=1e-12 * g.total_weight)


def test_cut_query_detail_on_a_built_general_sketch(tmp_path, capsys):
    # eps in [1/n, 1/30]: the default mode sketches
    g = gnp_connected(40, 0.35, seed=6, w_lo=1.0, w_hi=50.0)
    save_graph(g, tmp_path / "g.txt")
    out = tmp_path / "g.qsk"
    code, _, _ = run_cli(["cut-sketch", "build", str(tmp_path / "g.txt"), "-e", "0.03", "-o", str(out)], capsys)
    assert code == 0
    assert sketch_class(out.read_bytes()).kind == "cut_general"
    for query in ("0", "0,1,2", "3,5,7,11,13"):
        code, text, err = run_cli(["cut-sketch", "query", str(out), query, "--detail"], capsys)
        assert code == 0
        float(text.strip())
        diag = json.loads(err)
        assert diag.keys() == {"mode", "j", "k", "w_ej", "w_ek", "n_components"}
        assert diag["mode"] == "sketch"
        assert int(diag["k"]) <= int(diag["j"])
        assert float(diag["w_ek"]) >= float(diag["w_ej"]) > 0


def test_cut_query_detail_on_a_verbatim_build(rand_graph, tmp_path, capsys):
    out = tmp_path / "v.qsk"
    code, _, _ = run_cli(["cut-sketch", "build", rand_graph, "-e", "0.2", "-o", str(out)], capsys)
    assert code == 0
    code, text, err = run_cli(["cut-sketch", "query", str(out), "0,1,2", "--detail"], capsys)
    assert code == 0
    assert json.loads(err) == {"mode": "verbatim"}


def test_cut_query_without_detail_skips_diagnostics(tmp_path, capsys, monkeypatch):
    g = gnp_connected(20, 0.5, seed=5)
    sk = cut_basic_build(g, 0.15, 3, mode="pipeline")
    skp = tmp_path / "poly.qsk"
    skp.write_bytes(sk.to_bytes())
    expected = sk.estimate(np.arange(20) < 3)
    calls = []
    route = CutSketchPoly._route  # what route and estimate both follow

    def spy(self, members):
        calls.append(members)
        return route(self, members)

    monkeypatch.setattr(CutSketchPoly, "_route", spy)
    code, out, err = run_cli(["cut-sketch", "query", str(skp), "0,1,2"], capsys)
    assert code == 0 and err == ""
    assert len(calls) == 1  # the one route estimate follows
    assert float(out.strip()) == expected
    code, _, err = run_cli(["cut-sketch", "query", str(skp), "0,1,2", "--detail"], capsys)
    assert code == 0 and len(calls) == 3 and json.loads(err)["mode"] == "sketch"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectral_sketch_size(rand_graph, tmp_path, capsys, fmt):
    out = tmp_path / "s.qsk"
    code, _, _ = run_cli(["spectral-sketch", "build", rand_graph, "-e", "0.25", "-o", str(out)], capsys)
    assert code == 0
    code, text, _ = run_cli(["spectral-sketch", "size", str(out), "--format", fmt], capsys)
    assert code == 0
    if fmt == "json":
        (row,) = json.loads(text)
    else:
        assert text.startswith("# quadsketch v1")
        header, line = text.strip().splitlines()[1:]
        row = dict(zip(header.split(","), (int(tok) for tok in line.split(","))))
    assert row == {"bytes": out.stat().st_size}


def test_spectral_build_basic_variant(rand_graph, tmp_path, capsys):
    out = tmp_path / "b.qsk"
    code, _, _ = run_cli(
        ["spectral-sketch", "build", rand_graph, "--variant", "basic", "-e", "0.25", "--seed", "5", "-o", str(out)],
        capsys,
    )
    assert code == 0
    assert sketch_class(out.read_bytes()).kind == "spectral_basic"


def test_sparsify_command(rand_graph, capsys):
    code, text, _ = run_cli(["sparsify", rand_graph, "-e", "0.25", "--kind", "cut"], capsys)
    assert code == 0
    assert text.splitlines()[0].split()[0] == "20"


def test_partition_csv(rand_graph, capsys):
    code, text, _ = run_cli(["partition", rand_graph, "--mode", "spectral", "--h", "0.2"], capsys)
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "# quadsketch v1"
    assert lines[1].startswith("mode,")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--mode", "spectral", "--h", "nan"], "threshold h is NaN"),
        (["--mode", "cut", "--epsilon", "nan"], "epsilon is NaN"),
        (["--mode", "cut", "--epsilon", "0.1", "--scale", "nan"], "scale c is NaN"),
        (["--mode", "cut", "--epsilon", "0.3", "--scale", "inf"], "scale c must be positive and finite"),
    ],
    ids=["spectral-h", "cut-epsilon", "cut-scale", "cut-scale-inf"],
)
def test_partition_nan_parameter_exit_1(rand_graph, capsys, args, message):
    code, out, err = run_cli(["partition", rand_graph, *args], capsys)
    assert code == 1 and out == "" and message in err


def test_partition_json_format(rand_graph, capsys):
    code, text, _ = run_cli(
        ["partition", rand_graph, "--mode", "degree", "-e", "0.25", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(text)
    assert isinstance(rows, list) and rows


def test_psd_and_sdd_commands(tmp_path, capsys):
    rng = np.random.default_rng(0)
    b = rng.normal(size=(6, 6))
    a = (b + b.T) / 2
    np.fill_diagonal(a, np.abs(a).sum(axis=1))
    mp = tmp_path / "m.txt"
    mp.write_text(format_matrix(a))
    skp = tmp_path / "m.qsk"
    code, _, _ = run_cli(["sdd", "build", str(mp), "-e", "0.3", "--seed", "2", "-o", str(skp)], capsys)
    assert code == 0
    x = rng.normal(size=6)
    q = ",".join(repr(float(v)) for v in x)
    code, text, _ = run_cli(["sdd", "query", str(skp), "--", q], capsys)
    assert code == 0
    est = float(text.strip())
    exact = float(x @ a @ x)
    assert est == pytest.approx(exact, rel=0.5)

    psd = a @ a
    mp2 = tmp_path / "p.txt"
    mp2.write_text(format_matrix(psd))
    skp2 = tmp_path / "p.qsk"
    code, _, _ = run_cli(["psd", "jl-build", str(mp2), "-e", "0.5", "--delta", "0.1",
                          "--seed", "4", "-o", str(skp2)], capsys)
    assert code == 0
    code, text, _ = run_cli(["psd", "jl-query", str(skp2), "--", q], capsys)
    assert code == 0
    float(text.strip())

    code, text, _ = run_cli(["sdd", "reduce", str(mp)], capsys)
    assert code == 0 and text.startswith("# diag")


def test_jl_build_negative_seed(tmp_path, capsys):
    # seeds are taken modulo 2**64, as every builder takes them
    b = np.random.default_rng(1).normal(size=(5, 5))
    mp = tmp_path / "p.txt"
    mp.write_text(format_matrix(b @ b.T))
    paths = []
    for seed in ("-1", str(2**64 - 1)):
        paths.append(tmp_path / f"{seed}.qsk")
        code, _, err = run_cli(["psd", "jl-build", str(mp), "-e", "0.5", "--seed", seed, "-o", str(paths[-1])], capsys)
        assert code == 0, err
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [["sdd", "build"], ["sdd", "reduce"], ["psd", "jl-build"]],
    ids=["sdd-build", "sdd-reduce", "psd-jl-build"],
)
def test_non_finite_matrix_exit_1(tmp_path, capsys, bad, command):
    mp = tmp_path / "m.txt"
    mp.write_text(f"3\n4 {bad} 0\n{bad} 4 0\n0 0 4\n")
    out_path = tmp_path / "m.qsk"
    code, out, err = run_cli([*command, str(mp), "-o", str(out_path)], capsys)
    assert code == 1 and out == "" and "finite" in err
    assert not out_path.exists()


def test_mincut_csv(tmp_path, capsys):
    g = gnp_connected(14, 0.5, seed=9)
    p = tmp_path / "g.txt"
    save_graph(g, p)
    code, text, _ = run_cli(
        ["mincut", str(p), "--servers", "2", "-e", "0.1", "--reps", "3", "--seed", "5"],
        capsys,
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[1].split(",")[0] == "n"
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert float(row["rel_err"]) <= 0.5


def test_bench_cut_size_monotone(capsys):
    code, text, _ = run_cli(
        ["bench", "--suite", "cut-size", "--eps", "0.25,0.125,0.0625",
         "--n", "24", "--p", "0.4", "--seed", "1"],
        capsys,
    )
    assert code == 0
    rows = text.strip().splitlines()[2:]
    sizes = [int(r.split(",")[3]) for r in rows]
    assert sizes == sorted(sizes)


@pytest.mark.parametrize(
    "suite, build",
    [
        ("cut-size", lambda g, eps, seed: cut_sketch_build(g, eps, seed, mode="pipeline")),
        ("spectral-size", spectral_improved_build),
    ],
    ids=["cut-size", "spectral-size"],
)
def test_bench_size_suite_reports_envelope_bytes(rand_graph, capsys, suite, build):
    code, text, _ = run_cli(["bench", rand_graph, "--suite", suite, "--eps", "0.2,0.4,0.3", "--seed", "7"], capsys)
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[:2] == ["# quadsketch v1", "n,m,epsilon,bytes"]
    rows = [line.split(",") for line in lines[2:]]
    assert [float(r[2]) for r in rows] == [0.4, 0.3, 0.2]
    g = load_graph(rand_graph)
    for n, m, eps, n_bytes in rows:
        eps = float(eps)
        assert (int(n), int(m)) == (g.n, g.m)
        assert int(n_bytes) == len(build(g, eps, derive_seed(7, "bench", repr(eps))).to_bytes())


def test_bench_deterministic(capsys):
    args = ["bench", "--suite", "cut-size", "--eps", "0.25,0.125", "--n", "16",
            "--p", "0.5", "--seed", "3"]
    _, a, _ = run_cli(args, capsys)
    _, b, _ = run_cli(args, capsys)
    assert a == b


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "quadsketch.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0 or "quadsketch" in out.stdout + out.stderr


def test_version_1_envelope_exit_1(rand_graph, tmp_path, capsys):
    out = tmp_path / "s.qsk"
    run_cli(["spectral-sketch", "build", rand_graph, "-e", "0.25", "--seed", "5", "-o", str(out)], capsys)
    data = out.read_bytes()
    q = ",".join("1.0" for _ in range(20))
    for version in (1, 5, 6):
        out.write_bytes(data[:4] + bytes([version]) + data[5:])
        code, text, err = run_cli(["spectral-sketch", "query", str(out), "--", q], capsys)
        assert code == 1 and text == ""
        assert err.startswith("quadsketch: error:") and "Traceback" not in err
        assert f"unsupported format version {version}" in err


@pytest.mark.parametrize("tag, body", [(9, bytes(16)), (1, bytes([2]) + bytes(16) + bytes([0, 3]))], ids=["tag", "index"])
def test_corrupt_f64_array_exit_1(tmp_path, capsys, tag, body):
    # a 2 x 1 JL sketch whose projected factor is corrupt
    w = Writer()
    w.f64(0.5)
    w.f64(0.1)
    w.varint(2)
    w.varint(1)
    w.varint(2)
    w.buf.append(tag)
    w.buf += body
    skp = tmp_path / "bad.qsk"
    skp.write_bytes(envelope("jl", w.getvalue()))
    code, out, err = run_cli(["psd", "jl-query", str(skp), "--", "1.0"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("quadsketch: error:") and "Traceback" not in err


def general_with_endpoint_99() -> bytes:
    sk = general_sketch()
    sk.tree[0] = (0, 99, sk.tree[0][2])
    return sk.to_bytes()


@pytest.mark.parametrize(
    "data, command, query, message",
    [
        (lambda: improved_with_class_map(3), "spectral-sketch", "1,0,0,0", "truncated"),
        (general_with_endpoint_99, "cut-sketch", "0,1", "forest endpoint 99"),
        (basic_with_nan_stored_weight, "spectral-sketch", ",".join(["1"] * 16), "positive and finite"),
        (lambda: verbatim_with_edge_form(7), "spectral-sketch", ",".join(["1"] * 12), "unknown edge list form 7"),
    ],
    ids=["improved-class-map", "general-forest-endpoint", "basic-s2-nan-weight", "verbatim-edge-form"],
)
def test_corrupt_sketch_exit_1(tmp_path, capsys, data, command, query, message):
    skp = tmp_path / "bad.qsk"
    skp.write_bytes(data())
    code, out, err = run_cli([command, "query", str(skp), "--", query], capsys)
    assert code == 1 and out == ""
    assert err.startswith("quadsketch: error:") and message in err


@pytest.mark.parametrize("name", list(Q_LADDER_CORRUPTIONS))
def test_corrupt_q_ladder_exit_1(tmp_path, capsys, name):
    skp = tmp_path / "bad.qsk"
    skp.write_bytes(q_ladder_corrupted(name))
    code, out, err = run_cli(["cut-sketch", "query", str(skp), "--", "0,1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("quadsketch: error:") and "Traceback" not in err


def test_jl_factor_whose_square_overflows_exit_1(tmp_path, capsys):
    """A finite entry of 1e300 used to answer inf."""
    sk = jl_build(np.eye(3), 0.5, 0.2, 4)
    sk.sb[0, 0] = 1e300
    skp = tmp_path / "bad.qsk"
    skp.write_bytes(sk.to_bytes())
    code, out, err = run_cli(["psd", "jl-query", str(skp), "--", "1,0,0"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("quadsketch: error:") and "squared Frobenius norm" in err


@pytest.fixture
def sketch_files(tmp_path):
    g = gnp_connected(10, 0.5, seed=4)
    files = {}
    for kind, sk in (("cut", cut_sketch_build(g, 0.3, 1)), ("spectral", spectral_improved_build(g, 0.3, 1))):
        files[kind] = tmp_path / f"{kind}.qsk"
        files[kind].write_bytes(sk.to_bytes())
    return files


@pytest.mark.parametrize(
    "command, stored",
    [
        (["cut-sketch", "query"], "spectral"),
        (["spectral-sketch", "query"], "cut"),
        (["psd", "jl-query"], "cut"),
        (["sdd", "query"], "spectral"),
    ],
    ids=["cut-sketch", "spectral-sketch", "psd", "sdd"],
)
def test_query_wrong_sketch_kind_exit_1(sketch_files, capsys, command, stored):
    path = sketch_files[stored]
    code, out, err = run_cli([*command, str(path), "--", "0,1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("quadsketch: error:") and "Traceback" not in err
    assert "sketch, expected" in err


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("cut-sketch", lambda files: files["spectral"].read_bytes(), "sketch, expected"),
        ("spectral-sketch", lambda files: files["cut"].read_bytes(), "sketch, expected"),
        ("cut-sketch", lambda files: general_with_endpoint_99(), "forest endpoint 99"),
    ],
    ids=["cut-on-spectral", "spectral-on-cut", "corrupt-envelope"],
)
def test_size_decodes_and_checks_the_sketch(sketch_files, tmp_path, capsys, command, data, message):
    """size reports the byte length only of a sketch that decodes and checks."""
    skp = tmp_path / "size.qsk"
    skp.write_bytes(data(sketch_files))
    code, out, err = run_cli([command, "size", str(skp)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("quadsketch: error:") and "Traceback" not in err
    assert message in err
