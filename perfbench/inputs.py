"""Seeded inputs, command lists and result checks of the benchmark workloads.

Each workload is a fixed list of ``statesum3d`` command lines.  The seed
picks where the 1-4 Pachner moves that grow the triangulations land and
which graphs of the recorded pool (``graphs/``) are evaluated.  The inputs
are written as files into a work directory and the commands receive only
those files, or the names of shipped inputs.

Every command has a case key that does not depend on the seed.
``expected.json`` holds, under that key, the command's results as recorded
at the commit that defined the benchmark, in a canonical form: orbit rows
lose their index, because orbit order follows region numbering, which the
seed changes.  A grown 3-sphere uses the key of ``s3_2tet``, so its closed
invariant must equal the 2-tetrahedron sphere's value.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

WORKLOADS = ("closed-grown", "pointed-partition", "relative-graphs")

SHIPPED_TRIANGULATIONS = ("l31", "l41", "rp3", "s1xs2", "s3_1vtx", "s3_2tet",
                          "s3_5tet", "t3_6tet")
SHIPPED_SKELETONS = ("s1xs2_paper",)
SURFACES = ("sphere_circle", "sphere_fine", "torus_2loop", "torus_fine")
CLOSED_CATEGORIES = ("fibonacci", "ising_like")
POINTED_CATEGORIES = ("vect_Z2_theta1", "vect_Z3_theta1", "vect_Z4_theta1")
GRAPH_CATEGORY = "fibonacci"

# (base triangulation, number of 1-4 moves, category): s3_2tet grows to
# 11, 8 and 17 tetrahedra, t3_6tet to 12.
CLOSED_GROWN = (("s3_2tet", 3, "fibonacci"), ("s3_2tet", 2, "ising_like"))
POINTED_GROWN = (("s3_2tet", 5, "vect_Z3_theta1"), ("t3_6tet", 2, "vect_Z4_theta1"))

# Graph cost grows steeply with the largest multiplicity dimension of a
# vertex (the pool class, capped at 13), so each run draws a fixed number
# of graphs from every class.
GRAPHS_PER_CLASS = {"d3": 2, "d5": 2, "d8": 1, "d13": 1}


@dataclass(frozen=True)
class Case:
    key: str     # seed-independent name of the expected result
    argv: tuple  # command line after the program name


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def shipped_triangulation(name: str):
    from statesum3d import complexes
    text = resources.files("statesum3d").joinpath(
        "data", "triangulations", f"{name}.tri").read_text()
    return complexes.parse_triangulation(text)


def grow(base: str, moves: int, rnd: random.Random):
    """``base`` after ``moves`` 1-4 moves on tetrahedra chosen by ``rnd``."""
    from statesum3d import complexes
    tri = shipped_triangulation(base)
    for _ in range(moves):
        tri = complexes.pachner(tri, "1-4", rnd.randrange(tri.ntets))
    return tri


def _write_grown(workdir: Path, base: str, moves: int, seed: int) -> str:
    from statesum3d import complexes
    tri = grow(base, moves, random.Random(f"{seed}/{base}/{moves}"))
    path = workdir / f"{base}_plus{moves}.tri"
    path.write_text(complexes.save_triangulation(tri, name=path.stem))
    return str(path)


def _closed_cases(workdir, seed):
    cases = []
    for base, moves, cat in CLOSED_GROWN:
        path = _write_grown(workdir, base, moves, seed)
        cases.append(Case(f"invariant {cat} {base}",
                          ("invariant", "--triangulation", path, "--category", cat,
                           "--all-orbits")))
    for cat in CLOSED_CATEGORIES:
        for name in SHIPPED_TRIANGULATIONS:
            cases.append(Case(f"invariant {cat} {name}",
                              ("invariant", "--triangulation", name, "--category", cat,
                               "--all-orbits")))
        for name in SHIPPED_SKELETONS:
            cases.append(Case(f"invariant {cat} {name}",
                              ("invariant", "--skeleton", name, "--category", cat,
                               "--all-orbits")))
    return cases


def _pointed_cases(workdir, seed):
    cases = []
    for base, moves, cat in POINTED_GROWN:
        path = _write_grown(workdir, base, moves, seed)
        cases.append(Case(f"partition {cat} {base}+{moves}",
                          ("partition", "--triangulation", path, "--category", cat)))
    for cat in POINTED_CATEGORIES:
        for name in SHIPPED_TRIANGULATIONS:
            if not name.startswith("s3"):
                cases.append(Case(f"partition {cat} {name}",
                                  ("partition", "--triangulation", name, "--category", cat)))
        for name in SHIPPED_SKELETONS:
            cases.append(Case(f"partition {cat} {name}",
                              ("partition", "--skeleton", name, "--category", cat)))
    return cases


def _relative_cases(workdir, seed, expected):
    cases = []
    for cat in CLOSED_CATEGORIES:
        for surf in SURFACES:
            cases.append(Case(f"hqft-rank {cat} {surf}",
                              ("hqft-rank", "--surface", surf, "--category", cat)))
    rnd = random.Random(f"{seed}/graphs")
    pool = expected["graphs"]
    for cls, count in GRAPHS_PER_CLASS.items():
        members = sorted(name for name in pool if name.split("_")[0] == cls)
        for name in rnd.sample(members, count):
            path = workdir / f"{name}.graph"
            path.write_text((HERE / "graphs" / f"{name}.graph").read_text())
            for face in range(pool[name]["faces"]):
                cases.append(Case(f"eval-graph {GRAPH_CATEGORY} {name}",
                                  ("eval-graph", "--graph", str(path), "--category",
                                   GRAPH_CATEGORY, "--outer-face", str(face))))
    return cases


def make_cases(workload: str, seed: int, workdir: Path, expected: dict) -> list:
    """Write the workload's inputs for ``seed`` into ``workdir`` and return
    its command list."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "closed-grown":
        return _closed_cases(workdir, seed)
    if workload == "pointed-partition":
        return _pointed_cases(workdir, seed)
    if workload == "relative-graphs":
        return _relative_cases(workdir, seed, expected)
    raise ValueError(f"unknown workload {workload!r}")


def canonical(command: str, results: dict):
    """Seed-independent form of a report's ``results``."""
    if command == "invariant":
        return sorted(row.split(": ", 1)[1] for row in results["invariants"])
    if command == "partition":
        return {"aggregate": results["aggregate"],
                "orbits": sorted(row.split(": ", 1)[1] for row in results["orbits"])}
    if command == "hqft-rank":
        return results["rank"]
    if command == "eval-graph":
        return {"dims": results["dims"], "entries": results["entries"]}
    raise ValueError(f"no canonical form for {command!r}")
