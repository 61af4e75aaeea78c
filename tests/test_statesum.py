import contextlib
import io
import json
import random

import pytest

from statesum3d.catdata import builtin_category, builtin_category_names, neutral_dimension
from statesum3d.cli import run
from statesum3d.complexes import LinkGraph, Skeleton, dual_skeleton
from statesum3d.exactnum import FieldElement
from statesum3d.gauge import gauge_classes
from statesum3d.graphcalc import (
    ColoredGraph,
    CyclicCSet,
    PairingData,
    _canonical_rotation_system,
    _LinkProgram,
    evaluate_graph,
)
from statesum3d.statesum import (
    _Evaluator,
    closed_invariant,
    partition_all_classes,
    unnormalized_invariant,
)

import refgauge
import refmodular
import refstatesum
import refsweep
from graphutil import color_graph, grow_random_planar
from trifiles import load_skeleton, load_tri, shipped_names


def test_s3_normalization_small():
    sk = dual_skeleton(load_tri("s3_2tet"))
    for name in ["vect_Z2_theta1", "fibonacci", "ising_like"]:
        cat = builtin_category(name)
        rep = gauge_classes(sk, cat.group)[0][0]
        res = closed_invariant(sk, rep, cat)
        assert res.value == neutral_dimension(cat).inv()
        assert res.colorings_admissible >= 1


def test_s1xs2_paper_skeleton_values():
    sk = load_skeleton("s1xs2_paper")
    for name in ["vect_Z2_theta0", "vect_Z2_theta1", "vect_Z3_theta2"]:
        cat = builtin_category(name)
        for rep, _ in gauge_classes(sk, cat.group):
            assert closed_invariant(sk, rep, cat).value.is_one()


# one-tetrahedron lens spaces: the permutation of the second face pairing
_ONE_TET = {"one_tet_l41": "1230", "one_tet_l52": "2031"}


def _lens_space_value(tmp_path, name, category):
    """The ``invariant`` command's value on a shipped triangulation or a
    one-tetrahedron lens space, as text."""
    if name in _ONE_TET:
        path = tmp_path / f"{name}.tri"
        path.write_text(f"tets 1\nglue 0 0 0 1 1230\nglue 0 2 0 3 {_ONE_TET[name]}\n")
        name = str(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["--json", "invariant", "--triangulation", name, "--category", category])
    assert code == 0
    (row,) = json.loads(out.getvalue())["results"]["invariants"]
    return row.split(" value ")[1]


@pytest.mark.parametrize("name, p, q, value", [
    ("s3_2tet", 1, 1, None),
    ("rp3", 2, 1, None),
    ("l31", 3, 1, None),
    ("l41", 8, 3, None),   # the shipped l41 is L(8,3): its H_1 is Z/8
    ("s1xs2", 0, 1, "[1, 0]"),
    ("one_tet_l41", 4, 1, "[3/5, -1/5]"),
    ("one_tet_l52", 5, 2, "[0, 0]"),
])
def test_fibonacci_lens_spaces_match_modular_data(tmp_path, name, p, q, value):
    # TV(L(p, q)) = |RT(L(p, q))|^2 from the S and T matrices alone, against
    # the invariant command's value
    text = _lens_space_value(tmp_path, name, "fibonacci")
    assert value is None or text == value
    got = FieldElement.from_text(builtin_category("fibonacci").field, text)
    assert refmodular.FIBONACCI.embed(got) == refmodular.FIBONACCI.lens_tv(p, q)


@pytest.mark.parametrize("name, p, q, value", [
    ("s3_2tet", 1, 1, "[1/4, 0]"),
    ("rp3", 2, 1, "[1/2, 1/4]"),
    ("l31", 3, 1, "[1/4, 0]"),
    ("l41", 8, 3, "[1, 0]"),
    ("s1xs2", 0, 1, "[1, 0]"),
    ("one_tet_l41", 4, 1, "[1/2, 0]"),
    ("one_tet_l52", 5, 2, "[1/4, 0]"),
])
def test_ising_lens_spaces_match_modular_data(tmp_path, name, p, q, value):
    # as for Fibonacci, with ising_like's sqrt 2 sent to zeta_16^2 - zeta_16^6
    text = _lens_space_value(tmp_path, name, "ising_like")
    assert text == value
    got = FieldElement.from_text(builtin_category("ising_like").field, text)
    assert refmodular.ISING.embed(got) == refmodular.ISING.lens_tv(p, q)


def test_pointed_values_are_roots_of_unity():
    for mname in ["rp3", "l31", "t3_6tet"]:
        sk = dual_skeleton(load_tri(mname))
        for cname in ["vect_Z2_theta1", "vect_Z3_theta1"]:
            cat = builtin_category(cname)
            for rep, _ in gauge_classes(sk, cat.group):
                v = closed_invariant(sk, rep, cat).value
                acc = v
                for _ in range(12):
                    if acc.is_one():
                        break
                    acc = acc * v
                assert acc.is_one(), (mname, cname, v.to_text())


def test_region_order_independence():
    sk = dual_skeleton(load_tri("rp3"))
    cat = builtin_category("vect_Z3_theta1")
    rep = gauge_classes(sk, cat.group)[-1][0]
    base = closed_invariant(sk, rep, cat).value
    # permute region indices and relabel all references
    perm = list(range(sk.nregions()))
    perm = perm[1:] + perm[:1]
    inv = {old: new for new, old in enumerate(perm)}
    from statesum3d.complexes import LinkGraph
    regions2 = [sk.regions[perm[i]] for i in range(sk.nregions())]
    links2 = [LinkGraph([(t, h, inv[r]) for (t, h, r) in lk.arcs], lk.rotations)
              for lk in sk.links]
    sk2 = Skeleton(regions2, sk.ball_count, links2, sk.edges, name="permuted")
    rep2 = {inv[r]: rep[r] for r in range(sk.nregions())}
    assert closed_invariant(sk2, rep2, cat).value == base


def test_unnormalized_requires_spine():
    sk = dual_skeleton(load_tri("s3_2tet"))
    cat = builtin_category("vect_Z2_theta0")
    rep = gauge_classes(sk, cat.group)[0][0]
    with pytest.raises(ValueError, match="spine"):
        unnormalized_invariant(sk, rep, cat)


def test_unnormalized_equals_dim_times_invariant():
    spine = dual_skeleton(load_tri("s3_1vtx"))
    assert spine.is_spine()
    for name in ["fibonacci", "vect_Z2_theta1", "ising_like"]:
        cat = builtin_category(name)
        rep = gauge_classes(spine, cat.group)[0][0]
        sigma = unnormalized_invariant(spine, rep, cat)
        value = closed_invariant(spine, rep, cat).value
        assert sigma == neutral_dimension(cat) * value
        if name == "fibonacci":
            assert sigma.is_one()


def test_partition_aggregates():
    sk = dual_skeleton(load_tri("s3_2tet"))
    for q in (0, 1):
        cat = builtin_category(f"vect_Z2_theta{q}")
        table = partition_all_classes(sk, cat)
        half = cat.field.rational(1) / cat.field.rational(2)
        assert table.aggregate == half
    triv = builtin_category("vect_1_trivial")
    table = partition_all_classes(sk, triv)
    assert len(table.rows) == 1
    assert table.aggregate == table.rows[0][2]


def test_gauge_invariance_within_orbits():
    for mname in ["rp3", "s1xs2"]:
        sk = dual_skeleton(load_tri(mname))
        for cname in ["vect_Z2_theta1", "vect_Z4_theta1"]:
            cat = builtin_category(cname)
            labs = refgauge.enumerate_labelings(sk, cat.group)
            for rep, members in refgauge.gauge_orbits(sk, cat.group, labs):
                vals = {closed_invariant(sk, lab, cat).value.to_text()
                        for lab in members}
                assert len(vals) == 1, (mname, cname)


def test_pointed_gauge_change_of_tree_bases():
    # coboundary shift of the cocycle = change of fusion-tree basis gauge;
    # all per-orbit invariants must be unchanged (spot check on pointed data)
    import random
    from itertools import product as iproduct
    from statesum3d.catdata import CocycleTable, build_vec_g_theta
    from statesum3d.exactnum import root_of_unity
    rnd = random.Random(12)
    for n, q in [(2, 1), (3, 1)]:
        theta = CocycleTable.cyclic_rep(n, q)
        g = theta.group
        field = theta.field
        eta = {}
        for a, b in iproduct(g.elements(), repeat=2):
            if a == g.identity or b == g.identity:
                eta[(a, b)] = field.one()
            else:
                eta[(a, b)] = root_of_unity(field, rnd.randrange(n))
        vals = {}
        for a, b, c in iproduct(g.elements(), repeat=3):
            shift = eta[(b, c)] * eta[(g.mul(a, b), c)].inv() \
                * eta[(a, g.mul(b, c))] * eta[(a, b)].inv()
            vals[(a, b, c)] = theta(a, b, c) * shift
        shifted = CocycleTable(g, field, vals)
        cat1 = build_vec_g_theta(g, theta)
        cat2 = build_vec_g_theta(g, shifted)
        for mname in ["rp3", "l31"]:
            sk = dual_skeleton(load_tri(mname))
            t1 = partition_all_classes(sk, cat1)
            t2 = partition_all_classes(sk, cat2)
            assert [v.to_text() for (_, _, v) in t1.rows] == \
                [v.to_text() for (_, _, v) in t2.rows]
            assert t1.aggregate == t2.aggregate


def test_evaluations_leave_no_reference_cycles():
    # an evaluation must free its caches when it returns; a recursive closure
    # would keep them alive in a cycle until the cyclic collector runs.  Each
    # call builds its category and drops it, so a memo entry that refers back
    # to its category shows up as a cycle too.
    import gc
    from statesum3d.graphcalc import ColoredGraph, evaluate_graph
    from statesum3d.hqft import assemble_block_matrix, build_product_cylinder, builtin_surface
    sk = dual_skeleton(load_tri("l31"))
    rep = gauge_classes(sk, builtin_category("fibonacci").group)[0][0]
    surf = builtin_surface("torus_fine", builtin_category("ising_like").group)
    cob = build_product_cylinder(surf)
    sphere = build_product_cylinder(builtin_surface("sphere_circle",
                                                    builtin_category("ising_like").group))
    theta = ColoredGraph(2, [(0, 1, 1), (0, 1, 1), (0, 1, 1)],
                         [[(0, 0), (1, 0), (2, 0)], [(2, 1), (1, 1), (0, 1)]])
    calls = [lambda: closed_invariant(sk, rep, builtin_category("fibonacci")),
             lambda: assemble_block_matrix(cob, builtin_category("ising_like")),
             lambda: evaluate_graph(builtin_category("fibonacci"), theta),
             # one evaluator shared by every orbit, and by every block
             lambda: partition_all_classes(sk, builtin_category("vect_Z3_theta1")),
             lambda: assemble_block_matrix(sphere, builtin_category("ising_like"))]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def _grown(name, moves):
    from statesum3d.complexes import pachner
    rnd = random.Random(f"grown/{name}/{moves}")
    tri = load_tri(name)
    for _ in range(moves):
        tri = pachner(tri, "1-4", rnd.randrange(tri.ntets))
    sk = dual_skeleton(tri)
    sk.name = f"{name}+{moves}"
    return sk


@pytest.mark.parametrize("category, moves, admissible", [
    ("fibonacci", 5, 10_032), ("fibonacci", 6, 38_152), ("fibonacci", 7, 144_529),
    ("ising_like", 5, 29_920)])
def test_grown_spheres_keep_the_sphere_value_at_scale(category, moves, admissible):
    # S3 after 1-4 moves seeded "re-anchor/<moves>" (17 to 23 tetrahedra):
    # the value of s3_2tet, with the admissible counts the depth-first
    # coloring search gave
    from statesum3d.complexes import pachner
    rnd = random.Random(f"re-anchor/{moves}")
    tri = load_tri("s3_2tet")
    for _ in range(moves):
        tri = pachner(tri, "1-4", rnd.randrange(tri.ntets))
    cat = builtin_category(category)
    sk = dual_skeleton(tri)
    base = dual_skeleton(load_tri("s3_2tet"))
    res = closed_invariant(sk, [0] * sk.nregions(), cat)
    assert res.value == closed_invariant(base, [0] * base.nregions(), cat).value
    assert res.colorings_admissible == admissible


# The least extension count of a vertex elimination of the grown skeletons
# over all orders of their vertices (11 and 12), found by a dynamic
# programme over the sets of eliminated vertices.  The search visits 6,046
# and 30,332 nodes on s3_2tet+3, 2,176 and 9,476 on t3_6tet+2.
LEAST_EXTENSIONS = {("s3_2tet+3", "fibonacci"): 468, ("s3_2tet+3", "ising_like"): 1_272,
                    ("t3_6tet+2", "fibonacci"): 390, ("t3_6tet+2", "ising_like"): 1_024}


@pytest.mark.parametrize("category", ["fibonacci", "ising_like", "vect_Z2_theta1",
                                      "vect_Z3_theta1", "vect_Z4_theta1"])
def test_contraction_along_the_enumeration_matches_per_coloring_reference(category):
    # total() eliminates the skeleton's vertices over sparse frontier
    # tensors; the reference rebuilds the whole product for every coloring.
    # One evaluator serves every orbit of a skeleton, as in
    # partition_all_classes.
    cat = builtin_category(category)
    grown = [_grown("s3_2tet", 3), _grown("t3_6tet", 2)]
    skeletons = [dual_skeleton(load_tri(name)) for name in shipped_names()]
    # regions that no vertex link meets, on a skeleton without vertices
    bare = Skeleton([(2, 0, 0), (0, 0, 0), (-1, 0, 0)], 1, [], [], name="no vertices")
    skeletons += [load_skeleton("s1xs2_paper"), bare] + grown
    singletons = all(len(cat.sector(g)) == 1 for g in range(cat.group.order))
    for sk in skeletons:
        ev = _Evaluator(sk, cat)
        for rep, _ in gauge_classes(sk, cat.group):
            sectors = [cat.sector(rep[r]) for r in range(sk.nregions())]
            out, admissible = ev.total(sectors)
            want, visited, want_admissible = refstatesum.total(sk, cat, sectors)
            assert {k: v for k, v in out.items() if not v.is_zero()} == want, sk.name
            assert admissible == want_admissible, sk.name
            # the elimination's work (one extension per frontier key and
            # admissible coloring of a vertex's new regions) against the
            # search nodes of the reference
            assert ev.visited < visited, (sk.name, ev.visited, visited)
            if sk in grown and singletons:
                # one key per step and one coloring of its new regions
                assert not admissible or ev.visited == len(sk.links), sk.name
            elif sk in grown:
                # the least count over all vertex orders, as a dynamic
                # programme over the sets of eliminated vertices finds it
                assert ev.visited == LEAST_EXTENSIONS[sk.name, category], \
                    (sk.name, ev.visited, visited)


def _ungraded_aggregate(sk, cat):
    """dim(C)^(-balls) times the state sum with every simple in every
    region, dim(C) the sum of the squared dimensions of all simples."""
    field = cat.field
    dim = field.zero()
    for c in range(cat.n):
        dim = dim + cat.dim(c) * cat.dim(c)
    out, _ = _Evaluator(sk, cat).total([list(range(cat.n))] * sk.nregions())
    total = field.zero()
    for val in out.values():
        total = total + val
    return total * dim.inv() ** sk.ball_count


@pytest.mark.parametrize("category", ["vect_Z2_theta1", "vect_Z3_theta1", "vect_Z4_theta1",
                                      "fibonacci", "ising_like"])
def test_partition_aggregate_is_the_ungraded_state_sum(category):
    # summing the graded state sum over all flat labelings (orbit
    # representatives weighted by orbit size) gives the state sum of the
    # whole category, with no gauge code on the right-hand side
    cat = builtin_category(category)
    for name in shipped_names():
        sk = dual_skeleton(load_tri(name))
        assert partition_all_classes(sk, cat).aggregate == _ungraded_aggregate(sk, cat), name


@pytest.mark.parametrize("category, orbits", [("vect_Z3_theta1", 27), ("vect_Z4_theta1", 64)])
def test_partition_aggregate_is_the_ungraded_state_sum_with_many_orbits(category, orbits):
    cat = builtin_category(category)
    sk = _grown("t3_6tet", 2)
    table = partition_all_classes(sk, cat)
    assert len(table.rows) == orbits
    assert table.aggregate == _ungraded_aggregate(sk, cat)


@pytest.mark.parametrize("category", ["fibonacci", "ising_like", "vect_Z2_theta1"])
def test_relative_invariant_matches_per_coloring_reference(category):
    # open ends: every boundary coloring pair of the product cylinder over
    # each shipped surface, through one evaluator shared by the blocks, as
    # in assemble_block_matrix, but with the top ends left unpaired
    from statesum3d.hqft import build_product_cylinder, builtin_surface
    cat = builtin_category(category)
    blocks = 0
    for name in ["sphere_circle", "sphere_fine", "torus_2loop", "torus_fine"]:
        surf = builtin_surface(name, cat.group)
        cob = build_product_cylinder(surf)
        ends = cob.bot_ends + cob.top_ends
        ev = _Evaluator(cob, cat, ends)
        cols = surf.colorings(cat)
        for c_bot in cols:
            for c_top in cols:
                sectors = [cat.sector(label) if pin is None
                           else [(c_bot if pin[0] == "bot" else c_top)[pin[1]]]
                           for _, label, pin in cob.regions]
                got = {k: v for k, v in ev.total(sectors)[0].items() if not v.is_zero()}
                want, _, _ = refstatesum.total(cob, cat, sectors, ends)
                assert got == want, (name, c_bot, c_top)
                blocks += 1
    assert blocks >= 4


def _colored_links(sk, cat):
    """Each ``(v, arc colors, coloring)`` of ``sk`` once per vertex and arc
    colors, over the admissible colorings of every gauge class."""
    seen = set()
    for rep, _ in gauge_classes(sk, cat.group):
        sectors = [cat.sector(rep[r]) for r in range(sk.nregions())]
        for coloring in refstatesum.Enumerator(sk, cat).colorings(sectors):
            for v, lk in enumerate(sk.links):
                colors = tuple(coloring[r] for (_, _, r) in lk.arcs)
                if (v, colors) not in seen:
                    seen.add((v, colors))
                    yield v, colors, coloring


@pytest.mark.parametrize("category", ["fibonacci", "ising_like", "vect_Z3_theta1",
                                      "vect_Z4_theta1"])
def test_memoized_link_tensors_match_direct_evaluation(category):
    # link tensors come from the per-category memo of isomorphism classes;
    # each one, with no pairing folded in, must equal the evaluation of the
    # vertex's own link graph on a separately built category, whose memo
    # holds no link classes
    cat = builtin_category(category)
    direct = builtin_category(category)
    skeletons = [dual_skeleton(load_tri(name)) for name in shipped_names()]
    skeletons.append(load_skeleton("s1xs2_paper"))
    for sk in skeletons:
        checked = 0
        for v, colors, _ in _colored_links(sk, cat):
            lk = sk.links[v]
            graph = ColoredGraph(len(lk.rotations),
                                 [(t, h, c) for (t, h, _), c in zip(lk.arcs, colors)],
                                 lk.rotations)
            want = evaluate_graph(direct, graph).entries
            assert _LinkProgram(cat, lk.rotations, ()).tensor(colors) == want, (sk.name, v, colors)
            checked += 1
        assert checked


@pytest.mark.parametrize("category", ["fibonacci", "ising_like", "vect_Z3_theta1",
                                      "vect_Z4_theta1"])
def test_folded_link_tensors_contract_through_the_gram_inverse(category):
    # the evaluator's link tensor folds in, at end 1 of each edge, the
    # pairing of the edge's end-0 branch list E: it must equal the unfolded
    # tensor contracted there with the dense inverse Gram matrix of E, whose
    # entry [t][u] takes the end-1 index u to the end-0 index t
    cat = builtin_category(category)
    skeletons = [dual_skeleton(load_tri(name)) for name in ("s3_2tet", "rp3", "s1xs2")]
    skeletons.append(load_skeleton("s1xs2_paper"))
    for sk in skeletons:
        ev = _Evaluator(sk, cat)
        folded = 0
        for v, colors, coloring in _colored_links(sk, cat):
            want = _LinkProgram(cat, sk.links[v].rotations, ()).tensor(colors)
            for (v0, g0), (v1, g) in sk.edges:
                if v1 != v:
                    continue
                branches = [(coloring[r], s) for r, s in sk.links[v0].items_at(g0)]
                ginv = PairingData(cat, CyclicCSet(branches)).gram_inverse()
                nxt = {}
                for idx, val in want.items():
                    for t, row in enumerate(ginv):
                        if not row[idx[g]].is_zero():
                            key = idx[:g] + (t,) + idx[g + 1:]
                            nxt[key] = nxt.get(key, cat.field.zero()) + val * row[idx[g]]
                want = {k: x for k, x in nxt.items() if not x.is_zero()}
                folded += 1
            assert ev._link(v, colors) == want, (sk.name, v, colors)
        assert folded, sk.name


def test_link_tensors_are_evaluated_once_per_class(monkeypatch):
    from statesum3d import graphcalc
    calls = []
    sweep = graphcalc._sweep

    def counted(cat, plan, edge_colors):
        calls.append(edge_colors)
        return sweep(cat, plan, edge_colors)

    monkeypatch.setattr(graphcalc, "_sweep", counted)
    sk = dual_skeleton(load_tri("t3_6tet"))
    cat = builtin_category("vect_Z4_theta1")
    ev = _Evaluator(sk, cat)
    for rep, _ in gauge_classes(sk, cat.group):
        closed_invariant(sk, rep, cat, _ev=ev)
    assert 0 < len(calls) < len(ev.link_cache), (len(calls), len(ev.link_cache))


# _sweep calls on s3_2tet+3 when classes were keyed by the directed
# canonical code, which told a link from its copy with strands reversed
DIRECTED_CLASS_SWEEPS = {"fibonacci": 30, "ising_like": 72}


@pytest.mark.parametrize("category", ["fibonacci", "ising_like"])
def test_link_classes_are_swept_once_up_to_strand_reversal(monkeypatch, category):
    # one sweep per undirected canonical code (the reference walks every
    # root) and class colours, each arc's colour read in its canonical
    # edge's direction
    from statesum3d import graphcalc
    calls = []
    sweep = graphcalc._sweep

    def counted(cat, plan, edge_colors):
        calls.append(edge_colors)
        return sweep(cat, plan, edge_colors)

    monkeypatch.setattr(graphcalc, "_sweep", counted)
    sk = _grown("s3_2tet", 3)
    cat = builtin_category(category)
    ev = _Evaluator(sk, cat)
    for rep, _ in gauge_classes(sk, cat.group):
        closed_invariant(sk, rep, cat, _ev=ev)
    keys = set()
    for v, colors in ev.link_cache:
        code, _, _, tails = refsweep.canonical_rotation_system(sk.links[v].rotations)
        keys.add((code, tuple(cat.dual[colors[a]] if end else colors[a] for a, end in tails)))
    assert len(calls) == len(keys) < DIRECTED_CLASS_SWEEPS[category], (len(calls), len(keys))


def test_sweep_plans_are_built_once_per_canonical_code(monkeypatch):
    # each plan is built once, and memoized on the category in the one
    # "link code" entry of its code
    from statesum3d import graphcalc
    built = []
    sweep_plan = graphcalc._sweep_plan

    def counted(graph, outer_face):
        built.append(graph.rotations)
        return sweep_plan(graph, outer_face)

    monkeypatch.setattr(graphcalc, "_sweep_plan", counted)
    sk = dual_skeleton(load_tri("t3_6tet"))
    cat = builtin_category("vect_Z4_theta1")
    ev = _Evaluator(sk, cat)
    for rep, _ in gauge_classes(sk, cat.group):
        closed_invariant(sk, rep, cat, _ev=ev)
    entries = [key[1] for key in cat._memo if key[0] == "link code"]
    codes = {_canonical_rotation_system(tuple(map(tuple, lk.rotations)))[0] for lk in sk.links}
    assert len(built) == len(entries) == len(codes) and set(entries) == codes, \
        (len(built), len(entries), len(codes))


def test_links_of_one_code_share_its_entry_and_class_sweeps(monkeypatch):
    # the two K4 links of s3_2tet have different rotation systems and one
    # canonical code: one "link code" entry holds their class sweeps, and
    # each class is swept once for both
    from statesum3d import graphcalc
    calls = []
    sweep = graphcalc._sweep

    def counted(cat, plan, edge_colors):
        calls.append(edge_colors)
        return sweep(cat, plan, edge_colors)

    monkeypatch.setattr(graphcalc, "_sweep", counted)
    sk = dual_skeleton(load_tri("s3_2tet"))
    rotations = [tuple(map(tuple, lk.rotations)) for lk in sk.links]
    assert len(rotations) == 2 and rotations[0] != rotations[1]
    assert len({_canonical_rotation_system(r)[0] for r in rotations}) == 1
    cat = builtin_category("fibonacci")
    ev = _Evaluator(sk, cat)
    assert [key[0] for key in cat._memo].count("link code") == 1
    assert ev.programs[0].sweeps is ev.programs[1].sweeps
    for rep, _ in gauge_classes(sk, cat.group):
        closed_invariant(sk, rep, cat, _ev=ev)
    assert len({v for v, _ in ev.link_cache}) == 2
    assert calls and len(set(calls)) == len(calls) == len(ev.programs[0].sweeps), calls


def _relabeled(rnd, edges, rotations, colors):
    """The same colored rotation system with its vertices and edges
    renumbered and every rotation list re-anchored."""
    nv = len(rotations)
    vperm = rnd.sample(range(nv), nv)
    eperm = rnd.sample(range(len(edges)), len(edges))
    edges2, colors2 = [None] * len(edges), [None] * len(edges)
    for e, (t, h) in enumerate(edges):
        edges2[eperm[e]] = (vperm[t], vperm[h])
        colors2[eperm[e]] = colors[e]
    rotations2 = [None] * nv
    for v, rot in enumerate(rotations):
        shift = rnd.randrange(len(rot))
        rotations2[vperm[v]] = [(eperm[e], end) for e, end in rot[shift:] + rot[:shift]]
    return edges2, rotations2, colors2


def _reversed(edges, rotations, colors, reverse, dual):
    """The same rotation system with the edges in ``reverse`` running the
    other way, their colours dualized."""
    return ([(h, t) if k in reverse else (t, h) for k, (t, h) in enumerate(edges)],
            [[(k, 1 - end if k in reverse else end) for k, end in rot] for rot in rotations],
            [dual[c] if k in reverse else c for k, c in enumerate(colors)])


@pytest.mark.parametrize("category", ["vect_Z2_theta1", "vect_Z3_theta1", "vect_Z4_theta1",
                                      "fibonacci", "ising_like"])
def test_link_classes_of_relabeled_and_reversed_random_graphs(category):
    # random sphere graphs, each with relabeled copies, a copy with one
    # self-dual strand reversed (same words, other graph), one with a strand
    # that is not self-dual reversed and its colour dualized (same words,
    # other colours: vect_Z4_theta1 has 1 <-> 3) and one with every strand
    # reversed and dualized, through one category's class memo against
    # direct evaluation on a fresh category
    rnd = random.Random(f"link-classes/{category}")
    cat, direct = builtin_category(category), builtin_category(category)
    graphs = dualized = 0
    for _ in range(30):
        nv, edges, rotations = grow_random_planar(rnd, max_vertices=4)
        colors = color_graph(rnd, cat, nv, edges, rotations)
        if colors is None:
            continue
        variants = [(edges, rotations, colors),
                    _reversed(edges, rotations, colors, set(range(len(edges))), cat.dual)]
        for selfdual in (True, False):
            strands = [e for e, c in enumerate(colors) if (cat.dual[c] == c) == selfdual]
            if strands:
                variants.append(_reversed(edges, rotations, colors, {rnd.choice(strands)},
                                          cat.dual))
                dualized += not selfdual
        for edges1, rotations1, colors1 in variants:
            for _ in range(2):
                edges2, rotations2, colors2 = _relabeled(rnd, edges1, rotations1, colors1)
                graph = ColoredGraph(nv, [(t, h, c) for (t, h), c in zip(edges2, colors2)],
                                     rotations2)
                want = evaluate_graph(direct, graph).entries
                assert _LinkProgram(cat, rotations2, ()).tensor(tuple(colors2)) == want, \
                    (edges2, colors2)
                graphs += 1
    assert graphs >= 90
    assert dualized >= 10 or all(cat.dual[c] == c for c in range(cat.n)), dualized
