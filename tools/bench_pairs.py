"""Compare two checkouts on the benchmark workloads in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR [--pairs N]
        [--seconds S] [--seed N] [--output FILE]

Each checkout runs its own ``perfbench/run.py``, unchanged, with
``--workload W --seed N --seconds S --trace 0``, once per pair and
workload.  Odd pairs run the parent first, even pairs the change first,
so that a drift of the host's speed over the run falls on both sides
alike.  Then each side runs one traced pass per workload (``--trace 1``,
the same seed, two seconds).

The JSON written to FILE (standard output without ``--output``) holds,
per workload and end-to-end metric of ``BENCHMARK.json``, the values of
each side by pair, their medians and inclusive quartiles, the relative
change of the median next to the parent's own spread (its interquartile
range over its median, so that a change inside it reads as such), and the
number of pairs in which the change is better (ties count for neither
side); whether every run read ``correct: true``, and the failed commands;
the traced count, bit and ratio metrics that differ between the sides, but
for the tracer's own ``trace.*`` timings; and the ``src/`` line counts of
both checkouts (``tools/src_lines.py``).  The verdict is left to the
reader.  The exit code is 1 when a run fails or reads incorrect results.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACED_UNITS = ("count", "bit", "ratio")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def summary(parent: list, change: list, better: str) -> dict:
    """The pairwise comparison of one metric: both sides' values by pair,
    medians, inclusive quartiles, ``(change - parent) / parent`` of the
    medians and the parent's spread ``(q3 - q1) / median`` (both None for a
    zero parent median), and the pairs in which the change is better in the
    direction ``better`` ('lower' or 'higher')."""
    sign = 1 if better == "lower" else -1
    median_parent, median_change = statistics.median(parent), statistics.median(change)
    quartiles_parent = statistics.quantiles(parent, n=4, method="inclusive")
    return {
        "parent": parent,
        "change": change,
        "median_parent": median_parent,
        "quartiles_parent": quartiles_parent,
        "median_change": median_change,
        "quartiles_change": statistics.quantiles(change, n=4, method="inclusive"),
        "delta_median": (median_change - median_parent) / median_parent if median_parent
        else None,
        "spread_parent": (quartiles_parent[2] - quartiles_parent[0]) / median_parent
        if median_parent else None,
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
    }


def traced_differences(parent: dict, change: dict) -> dict:
    """The traced metrics with a unit in ``TRACED_UNITS`` whose values differ,
    as ``{name: {"parent": value, "change": value}}``; the tracer's own
    ``trace.*`` metrics are timings and are left out."""
    return {name: {"parent": p["value"], "change": change[name]["value"]}
            for name, p in parent.items() if p["unit"] in TRACED_UNITS
            and not name.startswith("trace.") and change[name]["value"] != p["value"]}


def src_lines(checkout: Path) -> tuple:
    """``(physical, code)`` lines of ``checkout``'s ``src/``."""
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    totals = [module.counts(path) for path in sorted((checkout / "src").rglob("*.py"))]
    return sum(p for p, _ in totals), sum(c for _, c in totals)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--output", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error(f"--pairs must be at least 2, for the quartiles of each side, not {args.pairs}")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    workloads, ok = {}, True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {"parent": [], "change": []}
        for pair in range(1, args.pairs + 1):
            for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                runs[side].append(run_once(sides[side], workload, args.seed, args.seconds, 0))
            print(f"{workload}: pair {pair} of {args.pairs}", file=sys.stderr)
        block = {metric["name"]: summary(
            [r["metrics"][metric["name"]]["value"] for r in runs["parent"]],
            [r["metrics"][metric["name"]]["value"] for r in runs["change"]], metric["better"])
            for metric in spec["end_to_end"]}
        block["correct"] = all(r["correct"] for side in runs.values() for r in side)
        block["failed"] = sum(r["failed"] for side in runs.values() for r in side)
        traced = {side: run_once(sides[side], workload, args.seed, 2, 1) for side in sides}
        block["traced_correct"] = all(r["correct"] for r in traced.values())
        block["traced_differences"] = traced_differences(
            traced["parent"]["metrics"], traced["change"]["metrics"])
        ok = ok and block["correct"] and block["traced_correct"]
        workloads[workload] = block
    lines = {side: src_lines(path) for side, path in sides.items()}
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": f"{args.pairs} alternating pairs per workload at seed {args.seed}: odd pairs "
                  "run the parent first, even pairs the change first; quartiles by "
                  "statistics.quantiles(method='inclusive'); delta_median is (change - parent) "
                  "/ parent of the medians, spread_parent the parent's (q3 - q1) / median; "
                  "change_wins counts the pairs in which the change is better (ties "
                  "count for neither); traced_differences are the count, bit and ratio "
                  "metrics, but trace.*, that differ between one --trace 1 run per side "
                  f"(--seed {args.seed} --seconds 2)",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "src_lines": {
            "physical": {side: lines[side][0] for side in sides},
            "code": {side: lines[side][1] for side in sides},
            "how": "python3 tools/src_lines.py",
        },
        "workloads": workloads,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        args.output.write_text(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
