"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
with open(os.path.join(BENCH_DIR, "layers.json")) as fh:
    LAYER_MAP = json.load(fh)["groups"]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_wrappers_go_into_every_namespace_and_come_out():
    from ualie import analysis, linalg, liecore

    original = linalg.kernel_dim_fast
    center = liecore.StructureConstantAlgebra.__dict__["center"]
    probe = tracer.Tracer()
    probe.install()
    try:
        assert {"ualie.linalg", "ualie.liecore", "ualie.analysis"} <= set(
            probe.bindings("linalg.kernel_dim_fast"))
        for mod in (linalg, liecore, analysis):
            assert mod.kernel_dim_fast is not original
        assert liecore.StructureConstantAlgebra.__dict__["center"] is not center
    finally:
        probe.remove()
    for mod in (linalg, liecore, analysis):
        assert mod.kernel_dim_fast is original
    assert liecore.StructureConstantAlgebra.__dict__["center"] is center


def test_seaweed_roots_match_the_package():
    from itertools import combinations

    from ualie.constructions import included_roots

    def compositions(n):
        for k in range(n):
            for cuts in combinations(range(1, n), k):
                edges = (0, *cuts, n)
                yield tuple(b - a for a, b in zip(edges, edges[1:]))

    for n in (4, 5):
        for top in compositions(n):
            for bottom in compositions(n):
                assert workloads.seaweed_roots(n, top, bottom) == set(included_roots(n, top, bottom))


def test_exact_rank_routine():
    from fractions import Fraction as Fr

    from checks import rank_exact

    assert rank_exact([[1, 2], [2, 4], [0, Fr(1, 3)]], 2) == 2
    assert rank_exact([[1, 2], [2, 4], [3, 6]], 2) == 1
    assert rank_exact([[0, 0, 1], [0, 0, 2]], 3) == 1


def test_quantile_estimate():
    from run import quantile

    assert quantile([0.25] * 7, 0.5) == pytest.approx(0.25)
    assert quantile(range(101), 0.5) == pytest.approx(50)
    assert quantile(range(101), 0.9) == pytest.approx(90, abs=0.5)
    # between two clusters the estimate sits between them, not on either
    assert 1 < quantile([1] * 10 + [2] * 10, 0.5) < 2


def test_end_to_end_reports_every_metric():
    out = last_json(run_bench("--workload", "cli", "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert out["correct"] and out["attempted"] >= 2 * len(workloads.CLI_MENU)
    assert sorted(out["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_layers_read_nonzero_where_the_map_says(workload):
    out = last_json(run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"))
    assert out["correct"]
    metrics = out["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    zero = [name for group in LAYER_MAP if workload in group["exercised_on"]
            for name in group["metrics"] if metrics[name]["value"] <= 0]
    assert not zero, f"{workload}: layer metrics read zero: {zero}"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
