import io
import contextlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from statesum3d.catdata import FiniteGroup
from statesum3d.cli import run
from statesum3d.complexes import parse_triangulation
from statesum3d.hqft import builtin_surface, save_surface

from trifiles import load_tri

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def _run(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, buf.getvalue(), err.getvalue()


def _strip_timing(text):
    return re.sub(r"wall_seconds: .*", "wall_seconds: X", text)


def test_invariant_command():
    code, out, _ = _run(["invariant", "--triangulation", "s3_2tet",
                         "--category", "vect_Z2_theta1", "--all-orbits"])
    assert code == 0
    assert "orbit 0: size 8 value [1]" in out


def test_invariant_all_orbits_shares_one_evaluator(monkeypatch):
    # one evaluator serves the 64 orbits, and each row and coloring count is
    # what a fresh evaluator per orbit gives
    from statesum3d import complexes, gauge, statesum
    from statesum3d.catdata import builtin_category
    cat = builtin_category("vect_Z4_theta1")
    sk = complexes.dual_skeleton(load_tri("t3_6tet"))
    expected = {}
    for k, (lab, size) in enumerate(gauge.gauge_classes(sk, cat.group)):
        res = statesum.closed_invariant(sk, lab, cat)
        expected[k] = (f"orbit {k}: size {size} value {res.value.to_text()}",
                       res.colorings_admissible)
    made = []
    evaluator = statesum._Evaluator
    monkeypatch.setattr(statesum, "_Evaluator",
                        lambda *args, **kw: made.append(1) or evaluator(*args, **kw))
    code, out, _ = _run(["--json", "invariant", "--triangulation", "t3_6tet",
                         "--category", "vect_Z4_theta1", "--all-orbits"])
    assert code == 0
    assert len(made) == 1 and len(expected) == 64
    report = json.loads(out)
    assert report["results"]["invariants"] == [row for row, _ in expected.values()]
    assert {k: report["counts"][f"colorings_orbit_{k}"] for k in expected} == \
        {k: count for k, (_, count) in expected.items()}


def test_dw_command():
    code, out, _ = _run(["dw", "--triangulation", "s3_2tet", "--group", "Z2",
                         "--theta", "1"])
    assert code == 0
    assert "partition: [1/2]" in out
    code, out, _ = _run(["dw", "--triangulation", "l31", "--group", "Z3",
                         "--theta", "1", "--per-class"])
    assert code == 0
    assert "subdivided" in out and "class 2" in out


def test_dw_accepts_every_group_of_order_one():
    partitions = set()
    for group in ("Z1", "1", "trivial", "S1"):
        code, out, _ = _run(["--json", "dw", "--triangulation", "rp3", "--group", group])
        assert code == 0, group
        partitions.add(json.loads(out)["results"]["partition"])
    assert len(partitions) == 1


def test_dw_accepts_every_group_with_the_cyclic_table():
    # D1 and S2 have the multiplication table of Z2, so Z2's cocycles apply
    partitions = set()
    for group in ("Z2", "D1", "S2"):
        code, out, _ = _run(["--json", "dw", "--triangulation", "rp3", "--group", group,
                             "--theta", "1", "--per-class"])
        assert code == 0, group
        results = json.loads(out)["results"]
        partitions.add((results["partition"], tuple(results["classes"])))
    assert len(partitions) == 1


@pytest.mark.parametrize("argv", [["labelings", "--group", "Z2"],
                                  ["invariant", "--category", "vect_Z2_theta1"],
                                  ["partition", "--category", "vect_Z2_theta1"]])
@pytest.mark.parametrize("inputs", [[], ["--triangulation", "s3_2tet", "--skeleton", "s1xs2_paper"]])
def test_skeleton_commands_need_exactly_one_input(argv, inputs):
    # neither or both of --triangulation and --skeleton: an I/O error
    code, out, err = _run(argv + inputs)
    assert code == 4 and out == ""
    assert err == "error: need exactly one of --triangulation and --skeleton\n"


def test_commands_leave_only_the_six_memo_kinds(monkeypatch, tmp_path):
    # an invariant, a partition, a state-space rank and a graph evaluation:
    # every category they build keeps its link data under the six memo kinds
    from statesum3d import catdata
    made = []
    init = catdata.GFusionData.__init__
    monkeypatch.setattr(catdata.GFusionData, "__init__",
                        lambda self, *args, **kw: made.append(self) or init(self, *args, **kw))
    graph = tmp_path / "theta.graph"
    graph.write_text(_THETA_GRAPH)
    for argv in (["invariant", "--triangulation", "s3_2tet", "--category", "fibonacci"],
                 ["partition", "--triangulation", "s3_2tet", "--category", "vect_Z3_theta1"],
                 ["hqft-rank", "--surface", "torus_2loop", "--category", "vect_Z2_theta1"],
                 ["eval-graph", "--graph", str(graph), "--category", "fibonacci"]):
        code, _, err = _run(argv)
        assert code == 0, (argv, err)
    kinds = {key[0] for cat in made for key in cat._memo}
    assert {"slot", "link code"} <= kinds <= {"trees", "box", "cap", "slot", "reversal",
                                              "link code"}, kinds


def test_validate_command_and_exit_codes(tmp_path):
    code, out, _ = _run(["validate-category", "--category", "fibonacci"])
    assert code == 0 and "passed: True" in out
    # corrupt one F-symbol entry in a category file: exit code 2
    from statesum3d.catdata import builtin_category, save_category
    text = save_category(builtin_category("fibonacci"))
    bad = text.replace("fsym 1 1 1 1 1 0 [1,0]", "fsym 1 1 1 1 1 0 [-1,0]")
    assert bad != text
    path = tmp_path / "bad.cat"
    path.write_text(bad)
    code, out, _ = _run(["validate-category", "--category", str(path)])
    assert code == 2 and "FAIL" in out
    # a missing F-symbol outside the blocks the duality scalars read: exit 2
    missing = text.replace("fsym 1 1 1 0 1 1 [1,0]\n", "")
    assert missing != text
    path.write_text(missing)
    code, out, _ = _run(["validate-category", "--category", str(path)])
    assert code == 2 and "FAIL F-table domain" in out


def test_io_and_domain_errors(tmp_path):
    code, _, err = _run(["invariant", "--triangulation", "nonexistent",
                         "--category", "vect_Z2_theta0"])
    assert code == 4
    code, _, err = _run(["invariant", "--triangulation", "s3_2tet",
                         "--category", "vect_Z2_theta0", "--orbit", "7"])
    assert code == 3
    code, _, err = _run(["invariant", "--triangulation", "s3_2tet", "--category", "nosuch"])
    assert code == 4 and "nosuch" in err
    for group in ("S3", "D2"):
        code, _, err = _run(["dw", "--triangulation", "s3_2tet", "--group", group])
        assert code == 3 and "cyclic" in err
    code, _, err = _run(["eval-graph", "--category", "fibonacci", "--graph", str(tmp_path)])
    assert code == 4 and "cannot read" in err
    target = tmp_path / "missing" / "moved.tri"
    code, out, err = _run(["pachner", "--triangulation", "s3_2tet", "--move", "1-4",
                           "--location", "0", "--out", str(target)])
    assert code == 4 and out == "" and err.startswith(f"error: cannot write {target}: ")


_THETA_GRAPH = """vertices 2
edges 3
edge 0 0 1 color 1
edge 1 0 1 color 1
edge 2 0 1 color 1
rot 0 o0 o1 o2
rot 1 i2 i1 i0
"""

_FIBONACCI_HEAD = """name fibonacci
field {"minpoly": ["-1", "-1", "1"]}
group 1
simples 2
simple 0 name 1 grade 0 dual 0 dim_l [1,0] dim_r [1,0] pivotal [1,0]
"""

_S3_2TET = "tets 2\n" + "".join(f"glue 0 {f} 1 {f} 0123\n" for f in range(4))

_DATA = Path(__file__).resolve().parents[1] / "src" / "statesum3d" / "data"
_S1XS2_SKELETON = (_DATA / "skeletons" / "s1xs2_paper.skel").read_text()
# the shipped surfaces have no group line and no edge labels; saved over Z2
# they have both
_SPHERE_CIRCLE_SURFACE = save_surface(builtin_surface("sphere_circle", FiniteGroup.cyclic(2)))
_FIBONACCI_FILE = (_DATA / "categories" / "fibonacci.cat").read_text()
_TORUS_SURFACE = save_surface(builtin_surface("torus_2loop", FiniteGroup.cyclic(2)))
_VECT_Z2_FILE = (_DATA / "categories" / "vect_Z2_theta1.cat").read_text()
_SIMPLE_G1 = "simple 1 name g1 grade 1 dual 1 dim_l [1] dim_r [1] pivotal [-1]"


def _simple_g1(edit):
    line = _SIMPLE_G1.replace(*edit)
    return (["validate-category", "--category"], "bad.cat", _VECT_Z2_FILE.replace(_SIMPLE_G1, line),
            f"bad simple line {line!r}: {edit[0].split()[0]} outside 0..1")


def _skeleton_without(line, message):
    assert _S1XS2_SKELETON.count(line + "\n") == 1
    return (["labelings", "--group", "Z2", "--skeleton"], "bad.skel",
            _S1XS2_SKELETON.replace(line + "\n", ""), message)


def _move_at(move, location):
    return (["pachner", "--move", move, "--location", location, "--triangulation"],
            "s3.tri", _S3_2TET, f"{move} location")


def _bad_location(move, location, form):
    return (["pachner", "--move", move, "--location", location, "--triangulation"],
            "s3.tri", _S3_2TET, f"bad --location {location!r} for a {move} move: expected {form}")


@pytest.mark.parametrize("argv, name, text, message", [
    (["invariant", "--category", "vect_Z2_theta0", "--triangulation"], "bad.tri",
     "tets 2\nglue 0 0 1 0\n", "bad glue line"),
    (["eval-graph", "--category", "fibonacci", "--graph"], "bad.graph",
     _THETA_GRAPH.replace("rot 1 i2 i1 i0\n", ""), "missing rot line for vertex 1"),
    (["invariant", "--category", "vect_Z2_theta0", "--triangulation"], "bad.tri",
     "tets\n", "bad tets line"),
    (["eval-graph", "--category", "fibonacci", "--graph"], "bad.graph",
     _THETA_GRAPH.replace("edge 1 0 1 color 1\n", ""), "missing edge 1"),
    (["eval-graph", "--category", "fibonacci", "--graph"], "bad.graph",
     _THETA_GRAPH.replace("edge 1 0 1 color 1", "edge 1 0 1 color"),
     "bad edge line 'edge 1 0 1 color': expected 'edge K T H color C'"),
    (["hqft-rank", "--category", "vect_Z2_theta1", "--surface"], "bad.surf",
     "vertices 1\nedge 1 0 0 label 0\nrot 0 o1 i1\n", "missing edge 0"),
    (["cobordism-map", "--category", "vect_Z2_theta1", "--cobordism"], "bad.cob",
     "balls 1\nregion 1 chi 1 label 0 pin none\n", "missing region 0"),
    (["validate-category", "--category"], "bad.cat",
     _FIBONACCI_HEAD + "simple 1 name tau grade 0 dual 1 dim_l [0,1]\n",
     "bad simple line 'simple 1 name tau grade 0 dual 1 dim_l [0,1]': expected '"),
    (["validate-category", "--category"], "bad.cat",
     _FIBONACCI_HEAD.replace("group 1\n", "group table 2\n  0 1\n").split("simples")[0],
     "group table ends after 1 of 2 rows"),
    (["validate-category", "--category"], "bad.cat",
     _FIBONACCI_HEAD.replace('field {"minpoly": ["-1", "-1", "1"]}\n', ""), "no field line"),
    (["validate-category", "--category"], "bad.cat",
     _FIBONACCI_HEAD.replace('field {"minpoly": ["-1", "-1", "1"]}\n', "field\n"),
     "bad field line 'field'"),
    _move_at("1-4", "99"),
    _move_at("1-4", "-1"),
    _move_at("2-3", "0,7"),
    _move_at("2-3", "5,0"),
    _move_at("3-2", "99"),
    _move_at("4-1", "4"),
    (["invariant", "--category", "vect_Z2_theta0", "--triangulation"], "bad.tri",
     _S3_2TET.replace("glue 0 3 1 3", "glue 0 3 5 3"),
     "bad glue line 'glue 0 3 5 3 0123': tet index outside 0..1"),
    (["invariant", "--category", "vect_Z2_theta0", "--triangulation"], "bad.tri",
     _S3_2TET.replace("glue 0 3 1 3", "glue 0 3 1 4"),
     "bad glue line 'glue 0 3 1 4 0123': face outside 0..3"),
    (["invariant", "--category", "vect_Z2_theta0", "--triangulation"], "bad.tri",
     "tets 0\nglue 0 0 0 1 0123\n", "bad tets line 'tets 0': expected N >= 1"),
    _bad_location("2-3", "0", "'t,f'"),
    _bad_location("2-3", "0,1,2", "'t,f'"),
    _bad_location("1-4", "0,0", "an integer"),
    _bad_location("3-2", "x", "an integer"),
    _bad_location("4-1", "", "an integer"),
    _skeleton_without("arc 0 3 tail 0 head 1 region 1", "missing arc line (0, 3)"),
    _skeleton_without("rot 0 1 i3 i2 o1 o0", "missing rot line (0, 1)"),
    _skeleton_without("vertex 0 gvertices 2 arcs 4", "missing vertex line 0"),
    (["labelings", "--group", "Z2", "--skeleton"], "bad.skel",
     _S1XS2_SKELETON.replace("rot 0 1 i3 i2 o1 o0", "rot 0 1 i3 i2 o1 x0"),
     "bad dart 'x0': expected i<edge> or o<edge>"),
    (["eval-graph", "--category", "fibonacci", "--graph"], "bad.graph",
     _THETA_GRAPH.replace("rot 0 o0 o1 o2", "rot 0 z0 o1 o2"), "bad dart 'z0'"),
    (["hqft-rank", "--category", "vect_Z2_theta1", "--surface"], "bad.surf",
     _SPHERE_CIRCLE_SURFACE.replace("rot 0 o0 i0", "rot 0 o0 i"), "bad dart 'i'"),
    (["validate-category", "--category"], "bad.cat",
     _FIBONACCI_FILE.replace("fusion 1 1 1 1", "fusion 2 1 1 1"),
     "bad fusion line 'fusion 2 1 1 1': label outside 0..1"),
    (["invariant", "--triangulation", "l31", "--category"], "bad.cat",
     _FIBONACCI_FILE.replace("fusion 1 1 1 1", "fusion 2 1 1 1"),
     "bad fusion line 'fusion 2 1 1 1'"),
    (["labelings", "--group", "Z2", "--skeleton"], "bad.skel",
     _S1XS2_SKELETON.replace("vertices 1", "vertices 0"), "edge 0 end (0, 0) is not a link vertex"),
    (["hqft-rank", "--category", "vect_Z2_theta1", "--surface"], "bad.surf",
     _SPHERE_CIRCLE_SURFACE.replace("rot 0 o0 i0", "rot 0 o0"),
     "bad rot line 'rot 0 o0': expected each edge end at vertex 0 once"),
    (["hqft-rank", "--category", "vect_Z2_theta1", "--surface"], "bad.surf",
     _SPHERE_CIRCLE_SURFACE.replace("edge 0 0 0 label 0", "edge 0 0 1 label 0"),
     "bad edge line 'edge 0 0 1 label 0': endpoint outside 0..0"),
    (["hqft-rank", "--category", "vect_Z2_theta1", "--surface"], "bad.surf",
     _SPHERE_CIRCLE_SURFACE.replace("edge 0 0 0 label 0", "edge 0 -1 0 label 0"),
     "bad edge line 'edge 0 -1 0 label 0': endpoint outside 0..0"),
    (["hqft-rank", "--category", "vect_Z2_theta1", "--surface"], "bad.surf",
     _TORUS_SURFACE.replace("edge 1 0 0 label 0", "edge 1 0 0 label 2"),
     "bad edge line 'edge 1 0 0 label 2': label outside 0..1"),
    _simple_g1(("dual 1", "dual 2")),
    _simple_g1(("dual 1", "dual -1")),
    _simple_g1(("grade 1", "grade 3")),
    (["eval-graph", "--category", "fibonacci", "--graph"], "bad.graph",
     _THETA_GRAPH.replace("edge 1 0 1 color 1", "edge 1 0 1 color 2"),
     "graph edge 1 has color 2, not a simple 0..1 of fibonacci"),
    (["eval-graph", "--category", "fibonacci", "--graph"], "bad.graph",
     _THETA_GRAPH.replace("edge 2 0 1 color 1", "edge 2 0 1 color -1"),
     "graph edge 2 has color -1, not a simple 0..1 of fibonacci"),
    (["eval-graph", "--category", "fibonacci", "--outer-face", "3", "--graph"], "theta.graph",
     _THETA_GRAPH, "--outer-face 3 is not a face 0..2"),
    (["labelings", "--group", "Z2", "--skeleton"], "bad.skel",
     _S1XS2_SKELETON.replace("region 1 chi 0 balls 0 1\n", "region 1 chi 0 balls 0 1\n" * 2),
     "bad region line 'region 1 chi 0 balls 0 1': repeats an earlier region line"),
    (["labelings", "--group", "Z2", "--skeleton"], "bad.skel",
     _S1XS2_SKELETON.replace("region 1 chi 0 balls 0 1", "region 1 chi 0 ball 0 1"),
     "bad region line 'region 1 chi 0 ball 0 1': expected 'region I chi X balls B0 B1'"),
    (["eval-graph", "--category", "fibonacci", "--graph"], "bad.graph",
     _THETA_GRAPH.replace("edge 1 0 1 color 1", "edge 1 0 x color 1"),
     "bad edge line 'edge 1 0 x color 1': expected 'edge K T H color C'"),
    (["invariant", "--category", "vect_Z2_theta0", "--triangulation"], "bad.tri",
     _S3_2TET.replace("tets 2", "tets 2 3"), "bad tets line 'tets 2 3': expected 'tets N'"),
    (["invariant", "--category", "vect_Z2_theta0", "--triangulation"], "bad.tri",
     _S3_2TET.replace("glue 0 3", "glu 0 3"),
     "unknown triangulation key 'glu' in line 'glu 0 3 1 3 0123'"),
    (["eval-graph", "--category", "fibonacci", "--graph"], "bad.graph",
     _THETA_GRAPH.replace("rot 0 o0 o1 o2", "rot 0 o0 o1 o2 o5"),
     "rotation system lists a dart of no edge"),
    (["validate-category", "--category"], "bad.cat",
     _FIBONACCI_FILE.replace("group 1\n", "group table 2\n  0 1\n  1 2\n"),
     "bad group table row '1 2': expected 2 rows of 2 elements of 0..1"),
], ids=["glue-without-permutation", "graph-without-rot-line", "tets-without-count",
        "graph-edge-gap", "graph-short-edge-line", "surface-edge-gap", "cobordism-region-gap",
        "category-cut-in-simple-line", "category-cut-in-group-table",
        "category-without-field-line", "category-bare-field-line",
        "pachner-1-4-past-the-end", "pachner-1-4-negative", "pachner-2-3-face-7",
        "pachner-2-3-tet-5", "pachner-3-2-past-the-end", "pachner-4-1-past-the-end",
        "glue-tet-out-of-range", "glue-face-out-of-range", "no-tets",
        "pachner-2-3-integer-location", "pachner-2-3-three-fields",
        "pachner-1-4-pair-location", "pachner-3-2-word-location", "pachner-4-1-empty-location",
        "skeleton-without-arc-line", "skeleton-without-rot-line",
        "skeleton-without-vertex-line", "skeleton-bad-dart", "graph-bad-dart",
        "surface-bad-dart", "category-fusion-label-out-of-range",
        "invariant-with-fusion-label-out-of-range", "skeleton-edge-end-without-link-vertex",
        "surface-missing-dart", "surface-endpoint-past-the-end", "surface-negative-endpoint",
        "surface-label-out-of-range", "category-dual-past-the-end", "category-negative-dual",
        "category-grade-outside-the-group", "graph-color-past-the-end", "graph-negative-color",
        "graph-outer-face-past-the-end", "skeleton-repeated-region",
        "skeleton-keyword-out-of-place", "graph-bad-integer", "triangulation-long-line",
        "triangulation-unknown-key", "graph-dart-of-no-edge",
        "category-group-table-element-out-of-range"])
def test_malformed_input_is_a_domain_error(tmp_path, argv, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = _run(argv + [str(path)])
    assert code == 3
    assert message in err and len(err.splitlines()) == 1 and out == ""


_SKELETON_ARGV = ["labelings", "--group", "Z2", "--skeleton"]
_SURFACE_ARGV = ["hqft-rank", "--category", "vect_Z2_theta1", "--surface"]


@pytest.mark.parametrize("argv, text, line, short", [
    (_SKELETON_ARGV, _S1XS2_SKELETON, "name s1xs2_paper", "name"),
    (_SKELETON_ARGV, _S1XS2_SKELETON, "balls 2", "balls"),
    (_SKELETON_ARGV, _S1XS2_SKELETON, "region 1 chi 0 balls 0 1",
     "region 1 chi 0 balls 0"),
    (_SKELETON_ARGV, _S1XS2_SKELETON, "vertices 1", "vertices"),
    (_SKELETON_ARGV, _S1XS2_SKELETON, "vertex 0 gvertices 2 arcs 4",
     "vertex 0 gvertices 2"),
    (_SKELETON_ARGV, _S1XS2_SKELETON, "arc 0 2 tail 0 head 1 region 2",
     "arc 0 2 tail 0 head 1"),
    (_SKELETON_ARGV, _S1XS2_SKELETON, "rot 0 1 i3 i2 o1 o0", "rot 0"),
    (_SKELETON_ARGV, _S1XS2_SKELETON, "edge 0 ends 0 0 0 1", "edge 0 ends 0"),
    (_SURFACE_ARGV, _SPHERE_CIRCLE_SURFACE, "name sphere_circle", "name"),
    (_SURFACE_ARGV, _SPHERE_CIRCLE_SURFACE, "group Z2", "group"),
    (_SURFACE_ARGV, _SPHERE_CIRCLE_SURFACE, "vertices 1", "vertices"),
    (_SURFACE_ARGV, _SPHERE_CIRCLE_SURFACE, "edge 0 0 0 label 0", "edge 0 0 0 label"),
    (_SURFACE_ARGV, _SPHERE_CIRCLE_SURFACE, "rot 0 o0 i0", "rot 0"),
], ids=["skeleton-name", "skeleton-balls", "skeleton-region", "skeleton-vertices",
        "skeleton-vertex", "skeleton-arc", "skeleton-rot", "skeleton-edge", "surface-name",
        "surface-group", "surface-vertices", "surface-edge", "surface-rot"])
def test_short_line_is_a_domain_error_naming_it(tmp_path, argv, text, line, short):
    lines = text.splitlines()
    assert lines.count(line) == 1
    path = tmp_path / "input"
    path.write_text("\n".join(short if ln == line else ln for ln in lines) + "\n")
    code, out, err = _run(argv + [str(path)])
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    assert f"bad {line.split()[0]} line {short!r}: expected '" in err


@pytest.mark.parametrize("name", ["sphere_circle", "sphere_fine", "torus_2loop", "torus_fine"],
                         ids=lambda name: f"{name}_Z2")
def test_hqft_rank_reads_a_shipped_surface_by_name(name):
    # each read by name and by path, for the Z2 category vect_Z2_theta1
    by_name = _run(_SURFACE_ARGV + [name])
    by_path = _run(_SURFACE_ARGV + [str(_DATA / "surfaces" / f"{name}.surf")])

    def results(out):
        return [ln for ln in out.splitlines() if ln.startswith(("rank", "count"))]
    assert by_name[0] == by_path[0] == 0 and by_name[2] == ""
    assert results(by_name[1]) == results(by_path[1]) and "rank: 1" in by_name[1]


@pytest.mark.parametrize("category, rank", [("fibonacci", 25), ("ising_like", 100)])
def test_hqft_rank_of_the_shipped_genus2_surface(category, rank):
    # the sum over the simples X of Z(C) of (dim C / dim X)^(2g - 2) at
    # g = 2: the squares of the Verlinde numbers 5 and 10; the file has no
    # group line, so it reads for the trivial group of both categories
    code, out, err = _run(["hqft-rank", "--surface", "genus2_k33", "--category", category])
    assert code == 0 and err == ""
    assert f"rank: {rank}\n" in out


def test_hqft_rank_of_an_unknown_surface_is_an_io_error():
    code, out, err = _run(_SURFACE_ARGV + ["no_such_surface"])
    assert code == 4 and out == "" and "no_such_surface" in err


@pytest.mark.parametrize("name", ["fibonacci", "ising_like", "vect_Z2_theta1"])
def test_truncated_category_file_is_not_a_traceback(tmp_path, name):
    from statesum3d.catdata import builtin_category, save_category
    text = save_category(builtin_category(name))
    path = tmp_path / "cut.cat"
    cuts = [k for k, ch in enumerate(text) if ch in " \n"]
    for cut in cuts:
        path.write_text(text[:cut])
        code, out, err = _run(["validate-category", "--category", str(path)])
        assert code in (0, 2, 3), (text[:cut].splitlines()[-1:], code, err)
        if code == 3:
            assert len(err.splitlines()) == 1 and out == "", err


_TAU = "simple 1 name tau grade 0 dual 1 dim_l [0,1] dim_r [0,1]"
_UNIT = "simple 0 name 1 grade 0 dual 0 dim_l [1,0]"


@pytest.mark.parametrize("line, edited, simple", [
    (_TAU, "simple 1 name tau grade 0 dual 1 dim_l [0] dim_r [0]", "tau"),
    (_TAU, "simple 1 name tau grade 0 dual 1 dim_l [0] dim_r [0,1]", "tau"),
    (_UNIT, "simple 0 name 1 grade 0 dual 0 dim_l [0]", "1"),
], ids=["tau", "tau-left", "unit-left"])
def test_zero_dimension_is_refused_by_the_state_sum(tmp_path, line, edited, simple):
    # the state sum divides by dimensions: every command that runs it exits
    # 3 naming the simple, and validation still reports the failed check
    from statesum3d.hqft import build_product_cylinder, save_cobordism
    assert _FIBONACCI_FILE.count(line) == 1
    cat = tmp_path / "zero.cat"
    cat.write_text(_FIBONACCI_FILE.replace(line, edited))
    cob = tmp_path / "torus.cob"
    cob.write_text(save_cobordism(build_product_cylinder(
        builtin_surface("torus_2loop", FiniteGroup.cyclic(1)))))
    for argv in (["invariant", "--triangulation", "s3_2tet"],
                 ["partition", "--triangulation", "rp3"],
                 ["hqft-rank", "--surface", "torus_2loop"],
                 ["cobordism-map", "--cobordism", str(cob)]):
        code, out, err = _run(argv + ["--category", str(cat)])
        assert (code, out) == (3, ""), (argv, err)
        assert err == f"domain error ({argv[0]}): simple {simple} has dimension zero\n"
    code, out, _ = _run(["validate-category", "--category", str(cat)])
    assert code == 2 and "FAIL dims invertible" in out


def test_internal_error_has_its_own_exit_code(tmp_path, monkeypatch):
    from statesum3d import graphcalc

    def broken(*args, **kwargs):
        raise graphcalc.InternalError("sweep ends on the tree (1,), not the empty one")

    monkeypatch.setattr(graphcalc, "evaluate_graph", broken)
    path = tmp_path / "theta.graph"
    path.write_text(_THETA_GRAPH)
    code, out, err = _run(["eval-graph", "--category", "fibonacci", "--graph", str(path)])
    assert code == 5 and out == ""
    assert err.startswith("internal error (eval-graph):") and len(err.splitlines()) == 1


def test_labelings_partition_pachner_hqft(tmp_path):
    code, out, _ = _run(["labelings", "--skeleton", "s1xs2_paper", "--group", "Z2"])
    assert code == 0 and "count orbits: 2" in out
    code, out, _ = _run(["partition", "--triangulation", "rp3",
                         "--category", "vect_Z2_theta1"])
    assert code == 0 and "aggregate:" in out
    out_path = tmp_path / "moved.tri"
    code, out, _ = _run(["pachner", "--triangulation", "s3_2tet", "--move", "2-3",
                         "--location", "0,0", "--out", str(out_path)])
    assert code == 0 and out_path.exists()
    code, out, _ = _run(["hqft-rank", "--surface", "torus_2loop",
                         "--category", "vect_Z2_theta1"])
    assert code == 0 and "rank: 1" in out
    code, out, _ = _run(["hqft-rank", "--surface", "empty", "--category", "fibonacci"])
    assert code == 0 and "rank: 1" in out
    # without --out the moved triangulation is listed in the report
    code, out, _ = _run(["--json", "pachner", "--triangulation", "s3_2tet", "--move", "1-4",
                         "--location", "0"])
    assert code == 0
    moved = parse_triangulation("\n".join(json.loads(out)["results"]["triangulation"]))
    assert moved.ntets == 5


def test_eval_graph_command(tmp_path):
    from statesum3d.graphcalc import ColoredGraph, save_graph
    g = ColoredGraph(2, [(0, 1, 1), (0, 1, 1), (0, 1, 1)],
                     [[(0, 0), (1, 0), (2, 0)], [(2, 1), (1, 1), (0, 1)]])
    path = tmp_path / "theta.graph"
    path.write_text(save_graph(g))
    code, out, _ = _run(["eval-graph", "--graph", str(path),
                         "--category", "fibonacci"])
    assert code == 0 and "entries" in out


def test_eval_graph_of_a_long_cycle(tmp_path):
    # a 1,000-vertex cycle needs one box and one cap per vertex, far more
    # steps than the recursion limit; the sweep plan is built by one loop
    from statesum3d.graphcalc import ColoredGraph, save_graph
    n = 1000
    g = ColoredGraph(n, [(v, (v + 1) % n, 1) for v in range(n)],
                     [[((v - 1) % n, 1), (v, 0)] for v in range(n)])
    path = tmp_path / "cycle.graph"
    path.write_text(save_graph(g))
    code, out, err = _run(["--json", "eval-graph", "--graph", str(path),
                           "--category", "fibonacci"])
    assert code == 0, err
    assert json.loads(out)["results"]["dims"] == [1] * n


def test_eval_graph_of_an_unrealizable_certificate(tmp_path):
    # the faces certificate merges two faces of a theta graph and none of a
    # loop's: the Euler count holds, but no sphere holds both components
    path = tmp_path / "split.graph"
    path.write_text("vertices 3\nedges 4\n"
                    + "".join(f"edge {k} {t} {h} color 0\n"
                              for k, (t, h) in enumerate([(0, 1), (0, 1), (0, 1), (2, 2)]))
                    + "rot 0 o0 o1 o2\nrot 1 i2 i1 i0\nrot 2 o3 i3\n"
                    + "face 0.0 0.1 1.0 1.1\nface 0.2 1.2\nface 2.0\nface 2.1\n")
    code, _, err = _run(["eval-graph", "--graph", str(path), "--category", "fibonacci"])
    assert code == 3 and "embedding certificate inconsistent" in err, err


def test_cobordism_map_command(tmp_path):
    from statesum3d.catdata import FiniteGroup
    from statesum3d.hqft import build_product_cylinder, builtin_surface, save_cobordism
    cob = build_product_cylinder(builtin_surface("sphere_circle", FiniteGroup.cyclic(2)))
    path = tmp_path / "cyl.cob"
    path.write_text(save_cobordism(cob))
    code, out, _ = _run(["cobordism-map", "--cobordism", str(path),
                         "--category", "vect_Z2_theta1"])
    assert code == 0 and "matrix" in out


def _cylinder_text():
    from statesum3d.catdata import FiniteGroup
    from statesum3d.hqft import build_product_cylinder, builtin_surface, save_cobordism
    return save_cobordism(build_product_cylinder(builtin_surface("sphere_circle",
                                                                 FiniteGroup.cyclic(2))))


@pytest.mark.parametrize("line, edited, message", [
    ("name cyl(sphere_circle->sphere_circle)", "name",
     "bad name line 'name': expected 'name NAME'"),
    ("balls 4", "balls", "bad balls line 'balls': expected 'balls N'"),
    ("balls 4", None, "cobordism file missing balls"),
    ("region 2 chi 1 label 0 pin none", "region 2 chi 1 label 0 pin",
     "bad region line 'region 2 chi 1 label 0 pin': expected"),
    ("region 0 chi 1 label 0 pin bot:0", "region 0 chi 1 label 0 pin side:0",
     "bad region line 'region 0 chi 1 label 0 pin side:0': expected pin none"),
    ("region 0 chi 1 label 0 pin bot:0", "region 0 chi 1 label 0 pin bot:1",
     "region 0 pinned to bot edge 1, outside 0..0"),
    ("region 2 chi 1 label 0 pin none", "region 2 chi 1 label 2 pin none",
     "region 2 label 2 outside 0..1"),
    ("arc 0 4 tail 2 head 3 region 2", "arc 0 4 tail 2 head 3",
     "bad arc line 'arc 0 4 tail 2 head 3': expected"),
    ("arc 0 4 tail 2 head 3 region 2", "arc 0 4 tail 2 head 3 region 4",
     "arc 4 of vertex 0 has region 4, outside 0..3"),
    ("edge 0 ends 0 2 0 3", "edge 0 ends 0 2 0 4", "edge 0 end (0, 4) is not a link vertex"),
    ("vertices 1", None, "edge 0 end (0, 2) is not a link vertex"),
    ("top_ends 0.1", "top_ends 0", "top end 0 (0,) is not a link vertex"),
    ("region 0 chi 1 label 0 pin bot:0", "region 0 chi 1 label 0 pin none",
     "bot end 0 meets region 0, which has no pin"),
    ("region 0 chi 1 label 0 pin bot:0", "region 0 chi 1 label 0 pin top:0",
     "region 0 is pinned to top edge 0, but does not meet top ends alone"),
    ("region 0 chi 1 label 0 pin bot:0", "region 0 chi 1 label 1 pin bot:0",
     "region 0 label 1 differs from the label 0 of its pin bot edge 0"),
    ("region 2 chi 1 label 0 pin none", "region 2 chi 1 label 0 pin bot:0",
     "region 2 is pinned to bot edge 0, but does not meet bot ends alone"),
], ids=["short-name", "short-balls", "missing-balls", "short-region", "bad-pin-side",
        "pin-past-the-end", "label-out-of-range", "short-arc", "arc-region-past-the-end",
        "edge-end-without-link-vertex", "missing-vertices-line", "end-without-gvertex",
        "boundary-region-without-pin", "boundary-region-pinned-to-the-other-side",
        "pinned-label-differs-from-the-edge-label", "interior-region-pinned"])
def test_malformed_cobordism_is_a_domain_error(tmp_path, line, edited, message):
    lines = _cylinder_text().splitlines()
    assert lines.count(line) == 1
    path = tmp_path / "cyl.cob"
    path.write_text("".join(f"{edited if ln == line else ln}\n" for ln in lines
                            if ln != line or edited is not None))
    code, out, err = _run(["cobordism-map", "--category", "vect_Z2_theta1",
                           "--cobordism", str(path)])
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("argv, text, group", [
    (["labelings", "--triangulation", "s3_2tet", "--group", "Z0"], None, "Z0"),
    (["labelings", "--triangulation", "s3_2tet", "--group", "Z-1"], None, "Z-1"),
    (["labelings", "--triangulation", "s3_2tet", "--group", "D-2"], None, "D-2"),
    (["labelings", "--triangulation", "s3_2tet", "--group", "Z"], None, "Z"),
    (["labelings", "--triangulation", "s3_2tet", "--group", "S"], None, "S"),
    (["labelings", "--triangulation", "s3_2tet", "--group", "Z100000"], None, "Z100000"),
    (["dw", "--triangulation", "s3_2tet", "--group", "Z100000"], None, "Z100000"),
    (["validate-category", "--category"], _VECT_Z2_FILE, "Z0"),
    (_SURFACE_ARGV, _SPHERE_CIRCLE_SURFACE, "Z100000"),
], ids=["cli-Z0", "cli-Z-1", "cli-D-2", "cli-Z", "cli-S", "cli-Z100000", "dw-Z100000",
        "category-Z0", "surface-Z100000"])
def test_bad_group_name_is_a_domain_error(tmp_path, monkeypatch, argv, text, group):
    # the --group option and the group line of a file: exit 3 naming the
    # group, and no table of a group outside orders 1..MAX_GROUP_ORDER is
    # built (the category's own group still is)
    from statesum3d.catdata import MAX_GROUP_ORDER

    if text is not None:
        lines = text.splitlines()
        assert lines.count("group Z2") == 1
        path = tmp_path / "input"
        path.write_text("\n".join(f"group {group}" if ln == "group Z2" else ln
                                  for ln in lines) + "\n")
        argv = argv + [str(path)]

    build = FiniteGroup.__init__

    def checked(self, table, *args, **kwargs):
        if not 1 <= len(table) <= MAX_GROUP_ORDER:
            raise AssertionError(f"{group} built a group table of order {len(table)}")
        build(self, table, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", checked)
    code, out, err = _run(argv)
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    assert repr(group) in err


@pytest.mark.parametrize("category", ["vect_Z3_theta1", "fibonacci"])
def test_cobordism_of_another_group_is_a_domain_error(tmp_path, category):
    # a closed Z2 skeleton saved as a cobordism with empty boundary: its
    # group line must match the backend's, as a surface file's must
    from statesum3d.catdata import FiniteGroup
    from statesum3d.complexes import dual_skeleton
    from statesum3d.hqft import CobordismSkeleton, _EmptySurface, save_cobordism
    sk = dual_skeleton(load_tri("s3_2tet"))
    z2 = FiniteGroup.cyclic(2)
    empty = _EmptySurface()
    cob = CobordismSkeleton(z2, [(chi, 0, None) for chi, _, _ in sk.regions], sk.links,
                            sk.edges, [], [], sk.ball_count, empty, empty)
    path = tmp_path / "closed.cob"
    path.write_text(save_cobordism(cob))
    argv = ["cobordism-map", "--cobordism", str(path), "--category"]
    assert _run(argv + ["vect_Z2_theta1"])[0] == 0
    code, out, err = _run(argv + [category])
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    assert "cobordism file group does not match the backend group" in err


@pytest.mark.parametrize("group, code", [("D2", 3), ("Z4", 0)])
def test_surface_group_must_equal_the_backend_group(tmp_path, group, code):
    # the Klein four-group D2 has the order of Z4 but another table: a torus
    # file over D2 is refused for a Z4 category, its labels 1 and 2 being
    # no Z4 elements, and the same file over Z4 runs
    text = _TORUS_SURFACE
    for line, new in [("group Z2", f"group {group}"), ("edge 0 0 0 label 0", "edge 0 0 0 label 1"),
                      ("edge 1 0 0 label 0", "edge 1 0 0 label 2")]:
        assert text.splitlines().count(line) == 1
        text = text.replace(line, new)
    path = tmp_path / "torus.surf"
    path.write_text(text)
    got, out, err = _run(["hqft-rank", "--category", "vect_Z4_theta1", "--surface", str(path)])
    assert got == code
    if code:
        assert out == "" and len(err.splitlines()) == 1
        assert "surface file group does not match the backend group" in err
    else:
        assert err == "" and "rank:" in out


def test_json_flag_and_reproducibility():
    argv = ["--json", "partition", "--triangulation", "l31",
            "--category", "vect_Z3_theta1"]
    code1, out1, _ = _run(argv)
    code2, out2, _ = _run(argv)
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_seconds")
    d2.pop("wall_seconds")
    assert d1 == d2


GOLDEN_COMMANDS = {
    "invariant_s3_z2t1.txt": ["invariant", "--triangulation", "s3_2tet",
                              "--category", "vect_Z2_theta1", "--all-orbits"],
    "dw_s3_z2t1.txt": ["dw", "--triangulation", "s3_2tet", "--group", "Z2",
                       "--theta", "1"],
    "partition_rp3_z2t1.txt": ["partition", "--triangulation", "rp3",
                               "--category", "vect_Z2_theta1"],
    "labelings_s1xs2paper_z2.txt": ["labelings", "--skeleton", "s1xs2_paper",
                                    "--group", "Z2"],
    "hqft_rank_torus_fib.txt": ["hqft-rank", "--surface", "torus_2loop",
                                "--category", "fibonacci"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_files_regenerate(name):
    code, out, _ = _run(GOLDEN_COMMANDS[name])
    assert code == 0
    expected = (GOLDEN / name).read_text()
    assert _strip_timing(out) == _strip_timing(expected)


def _src_env():
    src = str(GOLDEN.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_module_entry_point():
    name = "invariant_s3_z2t1.txt"
    proc = subprocess.run([sys.executable, "-m", "statesum3d.cli", *GOLDEN_COMMANDS[name]],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _strip_timing(proc.stdout) == _strip_timing((GOLDEN / name).read_text())


# the statesum3d modules each subcommand loads in a fresh process, beside
# exactnum, linalg, records and catdata, which every command loads
_OWN_MODULES = {
    "validate-category": [],
    "eval-graph": ["graphcalc"],
    "pachner": ["complexes", "graphcalc"],
    "labelings": ["complexes", "gauge", "graphcalc"],
    "dw": ["complexes", "graphcalc", "oracle"],
    "invariant": ["complexes", "gauge", "graphcalc", "statesum"],
    "partition": ["complexes", "gauge", "graphcalc", "statesum"],
    "hqft-rank": ["complexes", "gauge", "graphcalc", "hqft", "statesum"],
    "cobordism-map": ["complexes", "gauge", "graphcalc", "hqft", "statesum"],
}


@pytest.mark.parametrize("cmd", sorted(_OWN_MODULES))
def test_each_command_runs_in_a_fresh_interpreter(cmd, tmp_path):
    """``python -m statesum3d.cli`` gives the in-process results and loads
    only the command's modules; in-process runs share ``sys.modules``, so
    only a fresh process sees a handler that lost one of its imports."""
    (tmp_path / "theta.graph").write_text(_THETA_GRAPH)
    (tmp_path / "cyl.cob").write_text(_cylinder_text())
    argv = {
        "validate-category": ["--category", "vect_Z2_theta1"],
        "eval-graph": ["--graph", str(tmp_path / "theta.graph"), "--category", "fibonacci"],
        "pachner": ["--triangulation", "s3_2tet", "--move", "1-4", "--location", "0",
                    "--out", str(tmp_path / "moved.tri")],
        "labelings": ["--skeleton", "s1xs2_paper", "--group", "Z2"],
        "dw": ["--triangulation", "rp3", "--group", "Z2"],
        "invariant": ["--triangulation", "s3_2tet", "--category", "fibonacci"],
        "partition": ["--triangulation", "rp3", "--category", "vect_Z2_theta1"],
        "hqft-rank": ["--surface", "torus_2loop", "--category", "vect_Z2_theta1"],
        "cobordism-map": ["--cobordism", str(tmp_path / "cyl.cob"),
                          "--category", "vect_Z2_theta1"],
    }[cmd]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "statesum3d.cli",
                           "--json", cmd, *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = _run(["--json", cmd, *argv])
    assert code == 0
    assert json.loads(proc.stdout)["results"] == json.loads(out)["results"]
    # -X importtime writes one line per module a process imports
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    ours = sorted(name.split(".", 1)[1] for name in loaded if name.startswith("statesum3d."))
    assert ours == sorted(["catdata", "exactnum", "linalg", "records", *_OWN_MODULES[cmd]])
