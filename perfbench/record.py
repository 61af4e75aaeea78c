"""Rebuild the graph pool and record the expected exact results.

Run from the repository root:

    python3 perfbench/record.py

1. Grows random planar graphs, each edge colored tau or the unit of
   fibonacci (``GRAPH_CATEGORY``), from a fixed seed, sorts them into
   classes by the largest multiplicity dimension of a vertex, and keeps in
   each class the ``POOL_SIZE`` graphs whose evaluation over all outer
   faces needs a number of field multiplications closest to the class
   median, so that runs drawing different graphs do similar work.
2. Runs every command of every workload with seed 0 and writes the
   canonical results to ``expected.json``.  All outer faces of a graph must
   give the same tensor.
3. Checks every recorded partition aggregate against the simplicial
   oracle (``oracle.dw_partition``), the evaluation path that shares no
   code with the pipeline; the paper skeleton of S1xS2 is checked against
   the ``s1xs2`` triangulation.

The oracle runs here and in the tests, never inside a timed run.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import sys

import run
from inputs import (EXPECTED, GRAPH_CATEGORY, HERE, POINTED_GROWN, WORKLOADS, Case,
                    canonical, grow, make_cases, shipped_triangulation)
from tracer import Tracer

POOL_SEED = 20120229
POOL_SIZE = 3
CLASSES = {2: "d3", 3: "d3", 5: "d5", 8: "d8", 13: "d13"}


def grow_planar(rnd: random.Random, moves: int, max_vertices: int = 6):
    """Planar multigraph with a rotation system, grown from a loop by
    parallel doubling, subdivision and loop insertion."""
    edges = [(0, 0)]
    rotations = [[(0, 0), (0, 1)]]
    for _ in range(moves):
        move = rnd.choice(["parallel", "subdivide", "loop"])
        k = len(edges)
        if move == "parallel":
            e = rnd.randrange(k)
            t, h = edges[e]
            edges.append((t, h))
            rotations[t].insert(rotations[t].index((e, 0)), (k, 0))
            rotations[h].insert(rotations[h].index((e, 1)) + 1, (k, 1))
        elif move == "subdivide" and len(rotations) < max_vertices:
            e = rnd.randrange(k)
            t, h = edges[e]
            v = len(rotations)
            edges[e] = (t, v)
            edges.append((v, h))
            rotations.append([(e, 1), (k, 0)])
            rotations[h][rotations[h].index((e, 1))] = (k, 1)
        elif move == "loop":
            v = rnd.randrange(len(rotations))
            edges.append((v, v))
            pos = rnd.randrange(len(rotations[v]) + 1)
            rotations[v][pos:pos] = [(k, 0), (k, 1)]
    return edges, rotations


def candidate_graphs(cat, count):
    from statesum3d.graphcalc import ColoredGraph, hom_dim
    rnd = random.Random(POOL_SEED)
    out = []
    while len(out) < count:
        edges, rotations = grow_planar(rnd, rnd.randrange(3, 8))
        colors = [1 if rnd.random() < 0.85 else 0 for _ in edges]
        graph = ColoredGraph(len(rotations), [(t, h, colors[k]) for k, (t, h) in enumerate(edges)],
                             rotations)
        dims = [hom_dim(cat, graph.vertex_cset(v).items) for v in range(graph.nvertices)]
        if min(dims) >= 1 and max(dims) in CLASSES:
            out.append((CLASSES[max(dims)], graph))
    return out


def multiplications(cat, graph) -> int:
    from statesum3d.graphcalc import evaluate_graph
    tracer = Tracer()
    tracer.install()
    try:
        for face in range(len(graph.faces)):
            evaluate_graph(cat, graph, outer_face=face)
    finally:
        tracer.uninstall()
    return tracer.calls["exactnum.mul"]


def build_pool(cat) -> dict:
    from statesum3d.graphcalc import save_graph
    by_class = {}
    for cls, graph in candidate_graphs(cat, 160):
        by_class.setdefault(cls, []).append(graph)
    graph_dir = HERE / "graphs"
    shutil.rmtree(graph_dir, ignore_errors=True)
    graph_dir.mkdir()
    pool = {}
    for cls in sorted(set(CLASSES.values())):
        costs = [(multiplications(cat, g), i, g) for i, g in enumerate(by_class[cls])]
        mid = statistics.median(c for c, _, _ in costs)
        chosen = sorted(costs, key=lambda x: (abs(x[0] - mid), x[1]))[:POOL_SIZE]
        for k, (cost, _, graph) in enumerate(chosen):
            name = f"{cls}_{k}"
            (graph_dir / f"{name}.graph").write_text(save_graph(graph))
            pool[name] = {"faces": len(graph.faces), "multiplications": cost}
            print(f"pool {name}: {len(graph.faces)} faces, {cost} multiplications", flush=True)
    return pool


def record(pool) -> dict:
    expected = {"graphs": pool, "cases": {}}
    work = run.ROOT / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for workload in WORKLOADS:
            # every pool graph, not only the ones seed 0 draws
            cases = make_cases(workload, 0, work / workload, expected)
            if workload == "relative-graphs":
                cases = [c for c in cases if c.argv[0] != "eval-graph"]
                for name, meta in pool.items():
                    path = work / f"{name}.graph"
                    path.write_text((HERE / "graphs" / f"{name}.graph").read_text())
                    cases += [Case(f"eval-graph {GRAPH_CATEGORY} {name}",
                                   ("eval-graph", "--graph", str(path), "--category",
                                    GRAPH_CATEGORY, "--outer-face", str(f)))
                              for f in range(meta["faces"])]
            for case in cases:
                code, report, _ = run.execute(case)
                if code != 0:
                    raise SystemExit(f"{case.argv} exited with {code}")
                value = canonical(case.argv[0], report["results"])
                known = expected["cases"].setdefault(case.key, value)
                if known != value:
                    raise SystemExit(f"{case.key}: {value} differs from {known}")
                print(f"{case.key}: ok", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return expected


def oracle_aggregate(tri, category: str) -> str:
    from statesum3d import catdata, oracle
    order = int(category.split("_")[1][1:])
    theta = int(category.rsplit("theta", 1)[1])
    try:
        ot = oracle.find_branching(tri)
    except ValueError:
        ot = oracle.subdivide(tri)
    value = oracle.dw_partition(ot, catdata.FiniteGroup.cyclic(order),
                                catdata.CocycleTable.cyclic_rep(order, theta))
    return value.to_text()


def check_against_oracle(expected, seed=0):
    """Every recorded partition aggregate equals the oracle's value."""
    cases = expected["cases"]
    for base, moves, cat in POINTED_GROWN:
        tri = grow(base, moves, random.Random(f"{seed}/{base}/{moves}"))
        got = oracle_aggregate(tri, cat)
        want = cases[f"partition {cat} {base}+{moves}"]["aggregate"]
        if got != want:
            raise SystemExit(f"oracle {got} != recorded {want} for {cat} {base}+{moves}")
    for key, value in cases.items():
        command, cat, name = key.split(" ")
        if command != "partition" or "+" in name:
            continue
        tri = shipped_triangulation("s1xs2" if name == "s1xs2_paper" else name)
        got = oracle_aggregate(tri, cat)
        if got != value["aggregate"]:
            raise SystemExit(f"oracle {got} != recorded {value['aggregate']} for {key}")
    print("partition aggregates agree with the oracle", flush=True)


def main() -> int:
    run.import_package()
    from statesum3d.catdata import builtin_category
    pool = build_pool(builtin_category(GRAPH_CATEGORY))
    expected = record(pool)
    check_against_oracle(expected)
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
