"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/tests
"""

import gzip
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import quadsketch  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RECORD_METRICS = {
    "cut-build": {"setup_s", "build_edges_per_s", "sketch_bytes", "within_eps_frac", "rel_err.mean", "failed_frac"},
    "spectral-build": {"setup_s", "build_edges_per_s", "sketch_bytes", "within_eps_frac", "rel_err.mean", "failed_frac"},
    "query": {
        "setup_s",
        "within_eps_frac",
        "rel_err.mean",
        "query_us.p50",
        "query_us.p99",
        "queries_per_s",
        "cold_query_ms.p50",
        "failed_frac",
    },
    "mincut": {"setup_s", "protocol_s.p50", "transcript_bytes", "mincut_ok_frac", "failed_frac"},
}


def tiny_run(name, trace, tmp_path):
    return run.run(name, 7, 0.5, trace, sizes=workloads.TINY, workdir=tmp_path)


def test_spec_matches_workloads():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.GATED_UNITS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_smoke_emits_every_end_to_end_metric(name, tmp_path):
    result = tiny_run(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = result["record"]
    assert not record["traced"]
    assert RECORD_METRICS[name] <= set(record["metrics"])
    assert all(isinstance(unit, str) and unit for _, unit in record["metrics"].values())
    assert record["metrics"]["failed_frac"][0] == 0.0
    assert {"nproc", "cpu", "python", "numpy", "scipy", "blas", "blas_threads", "git_commit"} <= set(record["env"])
    gauge = record["gauge_ms"]
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(
        record["metrics"]["setup_s"][0] * gauge["nominal"] / gauge["setup"]
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_smoke_emits_every_per_layer_metric(name, tmp_path):
    result = tiny_run(name, True, tmp_path)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["record"]["traced"]


@pytest.mark.parametrize("name", ["query", "mincut"])
def test_size_and_accuracy_depend_only_on_the_seed(name, tmp_path):
    short = run.run(name, 5, 0.2, False, sizes=workloads.TINY, workdir=tmp_path)
    long = run.run(name, 5, 1.5, False, sizes=workloads.TINY, workdir=tmp_path)
    assert long["record"]["metrics"]["protocol_runs" if name == "mincut" else "warm_queries"][0] > (
        short["record"]["metrics"]["protocol_runs" if name == "mincut" else "warm_queries"][0]
    )
    for key in ("sketch_bytes", "within_eps_frac"):
        assert short["metrics"][key] == long["metrics"][key]


def test_traced_query_counts_the_cold_set_once(tmp_path):
    result = tiny_run("query", True, tmp_path)
    cold = 5 * min(workloads.COLD_PER_FAMILY, workloads.TINY.query_pool)
    assert result["metrics"]["cli.main.calls"]["value"] == cold
    assert result["metrics"]["serialize.decode.calls"]["value"] >= cold
    assert result["metrics"]["spectral.estimate.calls"]["value"] >= 2 * workloads.TINY.query_pool


def test_traced_spans_nest_and_cover_the_loop(tmp_path):
    wl = workloads.CutBuild(3, workloads.TINY)
    stats = workloads.Stats()
    wl.setup(stats)
    tr = tracing.Tracer()
    gauge = run.HostGauge()
    tr.install()
    try:
        t0 = time.perf_counter()
        ops = run.timed_loop(wl, stats, 0.5, gauge, tr)
        wall = time.perf_counter() - t0 - sum(gauge.slices_ms) / 1e3
    finally:
        tr.uninstall()
    assert ops >= wl.period and stats.failed == 0
    self_times = tr.self_times()
    assert min(self_times) >= -1e-9
    roots = [end - start for name, start, end, parent in tr.spans if parent < 0]
    assert len(roots) == ops
    assert sum(self_times) == pytest.approx(sum(roots), rel=1e-9)
    assert sum(roots) == pytest.approx(wall, rel=0.05)
    names = {s[0] for s in tr.spans}
    assert {"graph.connected_components", "partition.find_sparse_cut", "cutsketch.cut_sketch_build"} <= names
    # a span's interval lies inside its parent's
    for name, start, end, parent in tr.spans:
        if parent >= 0:
            assert tr.spans[parent][1] <= start <= end <= tr.spans[parent][2]
    tr.write(tmp_path / "spans.json.gz")
    with gzip.open(tmp_path / "spans.json.gz", "rt") as f:
        assert json.load(f)["spans"] == tr.spans


def test_uninstall_restores_every_binding():
    before = {
        (mod, key): value
        for mod in [m for k, m in sys.modules.items() if k.startswith("quadsketch")]
        for key, value in vars(mod).items()
        if callable(value)
    }
    methods = quadsketch.CutSketchGeneral.__dict__["from_bytes"], quadsketch.S1Sketch.estimate
    tr = tracing.Tracer()
    tr.install()
    assert hasattr(quadsketch.partition.connected_components, "__wrapped__")
    assert quadsketch.cutsketch.connected_components is quadsketch.graph.connected_components
    tr.uninstall()
    after = {(mod, key): vars(mod)[key] for mod, key in before}
    assert after == before
    assert (quadsketch.CutSketchGeneral.__dict__["from_bytes"], quadsketch.S1Sketch.estimate) == methods


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "mincut", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
