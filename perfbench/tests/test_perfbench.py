"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They run every workload at tiny sizes, once untraced and once traced,
so they take about a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import layers, oracles, tracer, worker, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def cli():
    return worker.load_cli(ROOT)


ALL_WORKLOADS = workloads.WORKLOADS + workloads.EXTRA_WORKLOADS


def test_benchmark_json_matches_layer_map():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(layers.LAYER_MAP["workloads"]) == list(ALL_WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == layers.METRIC_NAMES
    for layer in layers.LAYER_MAP["layers"]:
        assert set(layer["workloads"]) <= set(ALL_WORKLOADS)
        # every layer is measured on a workload of BENCHMARK.json
        assert set(layer["workloads"]) & set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", str(SEED),
                     "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and entry["value"] >= 0
    assert any(line.split()[:1] == ["fail_ratio"] for line in lines)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "graph-checks":
        assert metrics["discrepancy.disc_exact.calls"] == 0
        assert metrics["discrepancy.disc_heuristic.calls"] == 0
    if trace and workload == "exact-small":
        assert metrics["discrepancy.exact.speedup_threads"] > 0
        assert metrics["suite.certificates.s"] == 0
    if not trace:
        assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_traced_self_times_fit_in_traced_wall(workload):
    work = ROOT / "perfbench" / ".work" / f"{workload}-seed{SEED}-tiny"
    spans_file = work / "spans.json"
    if not spans_file.is_file():
        run_bench("--workload", workload, "--seed", str(SEED),
                  "--seconds", "1", "--trace", "1", "--tiny")
    data = json.loads(spans_file.read_text())
    spans = [tracer.Span(*row) for row in data["spans"]]
    selfs = tracer.self_times(spans)
    assert spans and all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) <= data["traced_wall"]


def test_self_time_subtracts_the_union_of_children():
    spans = [tracer.Span(0, None, "a.outer", 0.0, 10.0),
             tracer.Span(1, 0, "a.inner", 1.0, 3.0),
             tracer.Span(2, 0, "a.inner", 2.0, 5.0),
             tracer.Span(3, 2, "b.leaf", 2.5, 3.5)]
    selfs = tracer.self_times(spans)
    assert selfs == {0: 6.0, 1: 2.0, 2: 2.0, 3: 1.0}
    summary = tracer.summarize(spans)
    assert summary["a.inner"]["calls"] == 2
    assert summary["a.inner"]["self"] == 4.0


def _corrupt(record, edit):
    op, latency, code, stdout = record
    report = json.loads(stdout)
    edit(report["results"])
    return (op, latency, code, json.dumps(report))


def test_corrupted_results_count_as_failures(cli, tmp_path):
    plan = workloads.build_plan("exact-small", SEED, tmp_path, tiny=True)
    analyze = next(op for op in plan["cycle"] if op["argv"][0] == "analyze")
    certify = next(op for op in plan["cycle"] if op["argv"][0] == "certify")
    good = [(op, *worker.execute(cli, op["argv"])) for op in (analyze, certify)]
    assert worker.tally(good)["failed"] == 0

    def wrong_value(res):
        res["disc"]["value"] *= 1.001

    def wrong_witness(res):
        res["disc"]["witness_X"] = list(range(1, res["n"] + 1))

    def wrong_certificate_value(res):
        res["certificate"]["disc"]["value"] += 0.01

    bad = [_corrupt(good[0], wrong_value), _corrupt(good[0], wrong_witness),
           _corrupt(good[1], wrong_certificate_value),
           (good[0][0], 0.1, 6, good[0][3])]
    counts = worker.tally(good + bad)
    assert counts["attempted"] == 6
    assert counts["failed"] == 4


def test_heuristic_value_above_the_spectral_bound_fails(cli, tmp_path):
    plan = workloads.build_plan("heuristic-large", SEED, tmp_path, tiny=True)
    op = plan["cycle"][0]
    record = (op, *worker.execute(cli, op["argv"]))
    assert worker.tally([record])["failed"] == 0
    report = json.loads(record[3])["results"]
    a = oracles.read_sym(op["check"]["input"])
    centred = a - a.mean()
    bad = copy.deepcopy(report)
    bad["disc"]["value"] = float(oracles.singular_values(centred)[0]) * 2
    assert oracles._check_disc(bad["disc"], op["check"], a) is not None


def test_every_exact_seed_class_has_references(tmp_path):
    for seed in range(workloads.EXACT_POOL):
        plan = workloads.build_plan("exact-small", seed, tmp_path / str(seed))
        for op in [plan["warmup"], *plan["cycle"]]:
            c = op["check"]
            a = oracles.read_sym(c["input"])
            want = oracles.expected_exact(c["input"], a - a.mean(), c["tight_k"])
            assert want is not None, c["input"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "exact-small", "--seed", "1",
                     "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
