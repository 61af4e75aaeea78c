"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import functools
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import record
import run
from inputs import WORKLOADS, load_expected, make_cases
from tracer import Tracer

run.import_package()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# metrics whose value is a count, or a ratio of counts, of a fixed command list
COUNTED_UNITS = {"count", "bit"}


@functools.lru_cache(maxsize=None)
def traced_pass(workload: str, seed: int, repeat: int):
    """Per-layer metrics and failure count of one traced pass; ``repeat``
    only distinguishes otherwise identical calls."""
    expected = load_expected()
    tracer = Tracer()
    with tempfile.TemporaryDirectory() as tmp:
        cases = make_cases(workload, seed, Path(tmp), expected)
        tracer.install()
        try:
            seconds, _, failed = run.run_pass(cases, expected, tracer)
        finally:
            tracer.uninstall()
    return tracer.metrics(seconds, 1.0), failed


def counted(metrics):
    return {name: value for name, (value, unit) in metrics.items()
            if unit in COUNTED_UNITS or (unit == "ratio" and name != "trace.overhead_ratio")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat(workload):
    first, failed = traced_pass(workload, 0, 0)
    second, _ = traced_pass(workload, 0, 1)
    assert failed == 0
    assert counted(first) == counted(second)


@pytest.mark.parametrize("workload", ["closed-grown", "pointed-partition"])
def test_second_seed_same_admissible_counts_and_values(workload):
    first, _ = traced_pass(workload, 0, 0)
    other, failed = traced_pass(workload, 1, 0)
    assert failed == 0  # the results equal the recorded values
    for name in ("statesum.colorings_admissible", "gauge.labelings", "gauge.orbits"):
        assert first[name] == other[name]


def test_layer_split():
    closed, _ = traced_pass("closed-grown", 0, 0)
    pointed, _ = traced_pass("pointed-partition", 0, 0)
    relative, _ = traced_pass("relative-graphs", 0, 0)

    def share(metrics, *layers):
        total = sum(v for n, (v, _) in metrics.items() if n.endswith(".self_s"))
        return sum(metrics[f"{layer}.self_s"][0] for layer in layers) / total

    assert share(pointed, "gauge") >= 0.5
    assert closed["gauge.labelings_per_orbit"][0] == 1
    assert share(closed, "exactnum", "statesum", "graphcalc") > 0.5
    assert closed["hqft.relative_invariant_calls"][0] == 0
    assert pointed["hqft.relative_invariant_calls"][0] == 0
    assert relative["hqft.relative_invariant_calls"][0] > 0
    assert relative["statesum.closed_invariant_calls"][0] == 0


def test_per_layer_metrics_match_benchmark_json():
    metrics, _ = traced_pass("pointed-partition", 0, 0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_wrong_recorded_value_is_a_failure(tmp_path):
    expected = copy.deepcopy(load_expected())
    expected["cases"]["partition vect_Z2_theta1 rp3"]["aggregate"] = "[1]"
    metrics, attempted, failed, meta = run.measure(
        "pointed-partition", 0, 0.1, 0, expected, tmp_path)
    assert failed == attempted // meta["commands_per_pass"]  # one case per pass
    assert meta["failed_ratio"] > 0
    assert metrics["passed_ratio"][0] < 1
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_pointed_aggregates_match_oracle():
    record.check_against_oracle(load_expected(), seed=random.Random(7).randrange(1000))


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "closed-grown",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
