"""Tests of the benchmark itself, on shrunk copies of the workloads.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracer import Span, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, trace: int, root: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--small"], cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def _result(workload: str, seed: int, trace: int):
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    return meta, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_digests_and_every_metric(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    meta_plain, e2e = _result(workload, 3, 0)
    meta_traced, layers = _result(workload, 3, 1)
    assert set(meta_plain["digests"]) == {op.name for op in WORKLOADS[workload]}
    # the traced run repeats the untraced one with the same seed
    assert meta_traced["digests"] == meta_plain["digests"]
    for result, kind in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= len(WORKLOADS[workload])
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {e["name"]: e["unit"] for e in spec[kind]}
    for key in ("commit", "seed", "nproc", "cpu", "python", "numpy"):
        assert key in meta_plain


def test_seed_reaches_the_samplers():
    a, _ = _result("couple", 3, 0)
    b, _ = _result("couple", 4, 0)
    assert a["digests"]["couple_d5"] != b["digests"]["couple_d5"]
    assert a["digests"]["two_sided_api"] != b["digests"]["two_sided_api"]


def test_refuses_a_checkout_without_the_package():
    bare = os.path.join(ROOT, ".bench_work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("exact", 1, 0, root=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


def test_self_time_subtracts_children_once():
    spans = [
        Span("op.exact.x", "cli", 0.0, 10.0, None),
        Span("patterns.exact_mean_density", "patterns", 1.0, 6.0, 0),
        Span("patterns.exact_mean_density_grid", "patterns", 2.0, 5.0, 1),
        Span("counting.count_saws", "counting", 3.0, 4.0, 2, {"walks": 8}),
    ]
    m = layer_metrics(spans)
    assert m["patterns.exact_s"] == 5.0
    assert m["counting.busy_s"] == 1.0
    assert m["counting.walks_per_s"] == 8.0
    assert m["trace.spans"] == 4
