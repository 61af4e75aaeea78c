"""Command-line interface.

Subcommands: validate-category, eval-graph, labelings, invariant,
partition, dw, pachner, hqft-rank, cobordism-map.  Reports are structured
text (or JSON with --json) containing the exact results, input digests and
the convention version; timing lives in a separate field so repeated runs
are otherwise byte-identical.  Exit codes: 0 success, 2 validation
failure, 3 domain error, 4 I/O error, 5 internal error (a broken invariant
of the evaluator, a bug rather than bad input).

Each command imports the modules it uses when it runs, at the top of its
handler, so importing this module loads no other module of the package:
a process that runs one command compiles and loads only what that command
needs (only ``dw`` loads the oracle).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

from . import InternalError

CONVENTION_VERSION = "statesum3d-conventions-1"

__all__ = ["main", "run"]


class _Report:
    def __init__(self, command):
        self.data = {"command": command, "convention": CONVENTION_VERSION,
                     "inputs": {}, "results": {}, "counts": {}}
        self.t0 = time.perf_counter()

    def digest(self, label, text):
        self.data["inputs"][label] = hashlib.sha256(text.encode()).hexdigest()[:16]

    def done(self):
        self.data["wall_seconds"] = round(time.perf_counter() - self.t0, 3)
        return self.data

    def render(self, as_json: bool) -> str:
        data = self.done()
        if as_json:
            return json.dumps(data, indent=2, sort_keys=True) + "\n"
        lines = [f"command: {data['command']}", f"convention: {data['convention']}"]
        for k, v in sorted(data["inputs"].items()):
            lines.append(f"input {k}: {v}")
        for k, v in sorted(data["counts"].items()):
            lines.append(f"count {k}: {v}")
        for k, v in sorted(data["results"].items()):
            if isinstance(v, list):
                lines.append(f"{k}:")
                lines.extend(f"  {item}" for item in v)
            else:
                lines.append(f"{k}: {v}")
        lines.append(f"wall_seconds: {data['wall_seconds']}")
        return "\n".join(lines) + "\n"


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(4, f"cannot read {path}: {exc}") from None


def _data_text(kind: str, name: str) -> str:
    """Load an input by shipped name or by path."""
    from . import records
    if os.path.exists(name):
        return _read_file(name)
    try:
        return records.shipped_text(kind, name)
    except ValueError as exc:
        raise _CliError(4, f"{exc} and no such file") from None


def _load_category(name: str):
    from . import catdata
    if os.path.exists(name):
        return catdata.load_category(_read_file(name))
    try:
        return catdata.builtin_category(name)
    except ValueError:
        raise _CliError(4, f"unknown category {name!r}") from None


def _load_triangulation(name: str):
    from . import complexes
    return complexes.parse_triangulation(_data_text("triangulation", name))


def _skeleton_for(args):
    from . import complexes
    if bool(args.skeleton) == bool(args.triangulation):
        raise _CliError(4, "need exactly one of --triangulation and --skeleton")
    if args.skeleton:
        return complexes.parse_skeleton(_data_text("skeleton", args.skeleton))
    return complexes.dual_skeleton(_load_triangulation(args.triangulation))


def _cmd_validate_category(args, rep):
    from . import catdata
    cat = _load_category(args.category)
    rep.digest("category", catdata.save_category(cat))
    report = catdata.validate_category(cat)
    rep.data["results"]["checks"] = report.lines()
    rep.data["results"]["passed"] = report.passed()
    nd = catdata.neutral_dimension(cat)
    rep.data["results"]["neutral_dimension"] = nd.to_text()
    return 0 if report.passed() else 2


def _cmd_eval_graph(args, rep):
    from . import graphcalc
    cat = _load_category(args.category)
    text = _read_file(args.graph)
    rep.digest("graph", text)
    graph = graphcalc.parse_graph(text)
    for k, (_, _, color) in enumerate(graph.edges):
        if not 0 <= color < cat.n:
            raise ValueError(f"graph edge {k} has color {color}, not a simple 0..{cat.n - 1} "
                             f"of {cat.name}")
    if not 0 <= args.outer_face < len(graph.faces):
        raise ValueError(f"--outer-face {args.outer_face} is not a face 0..{len(graph.faces) - 1}")
    tensor = graphcalc.evaluate_graph(cat, graph, outer_face=args.outer_face)
    rep.data["counts"]["vertices"] = graph.nvertices
    rep.data["counts"]["entries"] = len(tensor.entries)
    rep.data["results"]["dims"] = list(tensor.dims())
    rep.data["results"]["entries"] = [
        f"{idx} -> {val.to_text()}" for idx, val in sorted(tensor.entries.items())]
    return 0


def _cmd_labelings(args, rep):
    from . import catdata, gauge
    sk = _skeleton_for(args)
    group = catdata.FiniteGroup.by_name(args.group)
    orbits = gauge.gauge_classes(sk, group)
    rep.data["counts"]["labelings"] = sum(size for _, size in orbits)
    rep.data["counts"]["orbits"] = len(orbits)
    rows = []
    for k, (rep_lab, size) in enumerate(orbits):
        key = " ".join(str(rep_lab[r]) for r in range(sk.nregions()))
        rows.append(f"orbit {k}: size {size} representative [{key}]")
    rep.data["results"]["orbits"] = rows
    return 0


def _cmd_invariant(args, rep):
    from . import gauge, statesum
    sk = _skeleton_for(args)
    cat = _load_category(args.category)
    orbits = gauge.gauge_classes(sk, cat.group)
    rep.data["counts"]["orbits"] = len(orbits)
    wanted = range(len(orbits)) if args.all_orbits else [args.orbit]
    rows = []
    ev = None  # one evaluator, and its link tensors, for every orbit
    for k in wanted:
        if not (0 <= k < len(orbits)):
            raise _CliError(3, f"orbit index {k} out of range")
        rep_lab, size = orbits[k]
        ev = ev or statesum._Evaluator(sk, cat)
        res = statesum.closed_invariant(sk, rep_lab, cat, _ev=ev)
        rows.append(f"orbit {k}: size {size} value {res.value.to_text()}")
        rep.data["counts"][f"colorings_orbit_{k}"] = res.colorings_admissible
    rep.data["results"]["invariants"] = rows
    return 0


def _cmd_partition(args, rep):
    from . import statesum
    sk = _skeleton_for(args)
    cat = _load_category(args.category)
    table = statesum.partition_all_classes(sk, cat)
    rows = [f"orbit {k}: size {size} value {val.to_text()}"
            for k, (_, size, val) in enumerate(table.rows)]
    rep.data["results"]["orbits"] = rows
    rep.data["results"]["aggregate"] = table.aggregate.to_text()
    rep.data["counts"]["orbits"] = len(table.rows)
    return 0


def _cmd_dw(args, rep):
    from . import catdata, oracle
    tri = _load_triangulation(args.triangulation)
    group = catdata.FiniteGroup.by_name(args.group)
    if group != catdata.FiniteGroup.cyclic(group.order):
        raise _CliError(3, "dw shipped cocycles are for cyclic groups")
    theta = catdata.CocycleTable.cyclic_rep(group.order, args.theta)
    try:
        ot = oracle.find_branching(tri)
        rep.data["results"]["branching"] = "direct"
    except ValueError:
        ot = oracle.subdivide(tri)
        rep.data["results"]["branching"] = "subdivided"
    value = oracle.dw_partition(ot, group, theta)
    rep.data["results"]["partition"] = value.to_text()
    if args.per_class:
        table = oracle.dw_class_table(ot, group, theta)
        rep.data["results"]["classes"] = [
            f"class {i}: value {v.to_text()}" for i, (_, v) in enumerate(table)]
    return 0


def _cmd_pachner(args, rep):
    from . import complexes
    tri = _load_triangulation(args.triangulation)
    try:
        if args.move == "2-3":
            t, f = args.location.split(",")
            location = (int(t), int(f))
        else:
            location = int(args.location)
    except ValueError:
        form = "'t,f'" if args.move == "2-3" else "an integer"
        raise ValueError(f"bad --location {args.location!r} for a {args.move} move: "
                         f"expected {form}") from None
    out = complexes.pachner(tri, args.move, location)
    text = complexes.save_triangulation(out, name=f"{args.triangulation}_{args.move}")
    rep.data["results"]["summary"] = str(out.summary())
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(4, f"cannot write {args.out}: {exc}") from None
        rep.data["results"]["written"] = args.out
    else:
        rep.data["results"]["triangulation"] = text.splitlines()
    return 0


def _cmd_hqft_rank(args, rep):
    from . import hqft
    cat = _load_category(args.category)
    if args.surface == "empty":
        rep.data["results"]["rank"] = 1
        return 0
    surf = hqft.parse_surface(_data_text("surface", args.surface), cat.group)
    space = hqft.cylinder_projector(surf, cat)
    rep.data["results"]["rank"] = space.rank
    rep.data["counts"]["block_space_dim"] = len(space.matrix)
    rep.data["counts"]["colorings"] = len(space.colorings)
    return 0


def _cmd_cobordism_map(args, rep):
    from . import hqft
    cat = _load_category(args.category)
    text = _read_file(args.cobordism)
    rep.digest("cobordism", text)
    cob = hqft.parse_cobordism(text, cat.group)
    matrix, bot_cols, bot_dims, top_cols, top_dims = hqft.assemble_block_matrix(cob, cat)
    rep.data["counts"]["rows"] = len(matrix)
    rep.data["counts"]["cols"] = len(matrix[0]) if matrix else 0
    rep.data["results"]["bot_colorings"] = [str(c) for c in bot_cols]
    rep.data["results"]["top_colorings"] = [str(c) for c in top_cols]
    rep.data["results"]["matrix"] = [
        "[" + ", ".join(x.to_text() for x in row) + "]" for row in matrix]
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, so in-process callers of :func:`run` do not rebuild its nine
    subparsers for every command."""
    ap = argparse.ArgumentParser(
        prog="statesum3d",
        description="Exact state-sum invariants of labeled 3-manifolds.",
        epilog="Inputs may be shipped names (see the data directory) or file "
               "paths. File formats are line-based; see README.md.")
    ap.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate-category", help="run all category checks")
    p.add_argument("--category", required=True)

    p = sub.add_parser("eval-graph", help="evaluate a colored graph on the sphere")
    p.add_argument("--graph", required=True)
    p.add_argument("--category", required=True)
    p.add_argument("--outer-face", type=int, default=0)

    p = sub.add_parser("labelings", help="enumerate labelings and gauge orbits")
    p.add_argument("--triangulation")
    p.add_argument("--skeleton")
    p.add_argument("--group", required=True)

    p = sub.add_parser("invariant", help="closed state-sum invariant per orbit")
    p.add_argument("--triangulation")
    p.add_argument("--skeleton")
    p.add_argument("--category", required=True)
    p.add_argument("--orbit", type=int, default=0)
    p.add_argument("--all-orbits", action="store_true")

    p = sub.add_parser("partition", help="per-orbit table and aggregate")
    p.add_argument("--triangulation")
    p.add_argument("--skeleton")
    p.add_argument("--category", required=True)

    p = sub.add_parser("dw", help="simplicial cocycle partition oracle")
    p.add_argument("--triangulation", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--theta", type=int, default=0)
    p.add_argument("--per-class", action="store_true")

    p = sub.add_parser("pachner", help="apply a bistellar move")
    p.add_argument("--triangulation", required=True)
    p.add_argument("--move", required=True, choices=["1-4", "2-3", "3-2", "4-1"])
    p.add_argument("--location", required=True,
                   help="tet index, 'tet,face', edge class, or vertex class")
    p.add_argument("--out")

    p = sub.add_parser("hqft-rank", help="state space rank of a surface")
    p.add_argument("--surface", required=True,
                   help="empty, a shipped skeleton name, or a file")
    p.add_argument("--category", required=True)

    p = sub.add_parser("cobordism-map", help="block matrix of a cobordism file")
    p.add_argument("--cobordism", required=True)
    p.add_argument("--category", required=True)
    return ap


_HANDLERS = {
    "validate-category": _cmd_validate_category,
    "eval-graph": _cmd_eval_graph,
    "labelings": _cmd_labelings,
    "invariant": _cmd_invariant,
    "partition": _cmd_partition,
    "dw": _cmd_dw,
    "pachner": _cmd_pachner,
    "hqft-rank": _cmd_hqft_rank,
    "cobordism-map": _cmd_cobordism_map,
}


def run(argv) -> int:
    """Dispatch a CLI invocation; returns the exit code."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    rep = _Report(" ".join(argv))
    try:
        code = _HANDLERS[args.cmd](args, rep)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except ValueError as exc:
        sys.stderr.write(f"domain error ({args.cmd}): {exc}\n")
        return 3
    except InternalError as exc:
        sys.stderr.write(f"internal error ({args.cmd}): {exc}\n")
        return 5
    sys.stdout.write(rep.render(args.json))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
