"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single `ACCEPTANCE <n> <name>: pass` line when its
criterion holds (run pytest with -s to see them); any failure is an exact
inequality, never a tolerance miss.
"""

import random
from itertools import product

import pytest

from statesum3d.catdata import (
    CocycleTable,
    FiniteGroup,
    GFusionData,
    GroupHom,
    builtin_category,
    builtin_category_names,
    load_category,
    neutral_dimension,
    push_forward,
    save_category,
    validate_category,
)
from statesum3d.complexes import (
    MoveSpec,
    apply_move,
    dual_skeleton,
    pachner,
    parse_skeleton,
)
from statesum3d.gauge import gauge_classes
from statesum3d.graphcalc import (
    ColoredGraph,
    CyclicCSet,
    MultiplicityBasis,
    PairingData,
    VertexTensorSlot,
    evaluate_graph,
    rotation_matrix,
)
from statesum3d.hqft import (
    assemble_block_matrix,
    build_sheet_cylinder,
    builtin_surface,
    cylinder_projector,
    hqft_space_rank,
    refinement_parent,
)
from statesum3d.linalg import identity_matrix, matrix_mul
from statesum3d.oracle import dw_partition, find_branching, subdivide
from statesum3d.statesum import (
    closed_invariant,
    partition_all_classes,
    unnormalized_invariant,
)

import refgauge
from graphutil import random_admissible_graph
from trifiles import load_skeleton, load_tri

ALL_BACKENDS = builtin_category_names()
POINTED = [n for n in ALL_BACKENDS if n.startswith("vect_Z")]
MANIFOLDS = ["s3_2tet", "s3_1vtx", "rp3", "l31", "l41", "s1xs2", "t3_6tet"]


def _orbits(sk, group):
    """Every orbit with all its members, from the reference lister."""
    return refgauge.gauge_orbits(sk, group, refgauge.enumerate_labelings(sk, group))


def _report(n, name):
    print(f"ACCEPTANCE {n} {name}: pass")


def test_criterion_1_s3_normalization():
    sk = dual_skeleton(load_tri("s3_2tet"))
    for name in ALL_BACKENDS:
        cat = builtin_category(name)
        expect = neutral_dimension(cat).inv()
        for rep, _ in gauge_classes(sk, cat.group):
            value = closed_invariant(sk, rep, cat).value
            assert value == expect, (name, value.to_text())
        if name == "fibonacci":
            phi = cat.field.gen()
            assert expect == (cat.field.rational(2) + phi).inv()
        if name.startswith("vect_"):
            assert expect.is_one()
    _report(1, "S3 normalization")


def test_criterion_2_s1xs2_theorem():
    backends = ["vect_Z2_theta0", "vect_Z2_theta1",
                "vect_Z3_theta0", "vect_Z3_theta1", "vect_Z3_theta2"]
    paper = load_skeleton("s1xs2_paper")
    dual = dual_skeleton(load_tri("s1xs2"))
    for name in backends:
        cat = builtin_category(name)
        for sk in (paper, dual):
            for rep, _ in gauge_classes(sk, cat.group):
                assert closed_invariant(sk, rep, cat).value.is_one(), (name,)
    _report(2, "S1xS2 theorem")


def _value_multiset(sk, cat):
    table = partition_all_classes(sk, cat)
    return sorted(v.to_text() for (_, _, v) in table.rows), table.aggregate


def test_criterion_3_move_invariance():
    backends = ["vect_Z2_theta0", "vect_Z2_theta1", "vect_Z3_theta0", "vect_Z3_theta1"]
    for mname in ["s3_2tet", "rp3", "l31", "s1xs2", "t3_6tet"]:
        tri = load_tri(mname)
        loc23 = next((t, f) for (t, f), (t2, _, _) in tri.gluings.items() if t2 != t)
        tri14 = pachner(tri, "1-4", 0)
        tri23 = pachner(tri, "2-3", loc23)
        sk = dual_skeleton(tri)
        sk14 = dual_skeleton(tri14)
        sk23 = dual_skeleton(tri23)
        for bname in backends:
            cat = builtin_category(bname)
            group = cat.group
            vals, agg = _value_multiset(sk, cat)
            for other in (sk14, sk23):
                vals2, agg2 = _value_multiset(other, cat)
                assert vals == vals2 and agg == agg2, (mname, bname)
            # skeleton moves on a nontrivial orbit representative
            rep = gauge_classes(sk, group)[-1][0]
            base = closed_invariant(sk, rep, cat).value
            arcs0 = [(v, a) for v, lk in enumerate(sk.links)
                     for a, (_, _, r) in enumerate(lk.arcs) if r == 0]
            v1, a1 = arcs0[0]
            v2, a2 = next((v, a) for (v, a) in arcs0 if v != v1)
            sk_t1, lab_t1 = apply_move(sk, rep, MoveSpec(
                "T1", vertex1=v1, arc1=a1, vertex2=v2, arc2=a2), group)
            assert closed_invariant(sk_t1, lab_t1, cat).value == base, (mname, bname, "T1")
            eid = next(e for e, ((x, _), (y, _)) in enumerate(sk.edges) if x != y)
            sk_t2, lab_t2 = apply_move(sk, rep, MoveSpec("T2", edge=eid), group)
            assert closed_invariant(sk_t2, lab_t2, cat).value == base, (mname, bname, "T2")
            for g in group.elements():
                for side in "+-":
                    sk_t4, lab_t4 = apply_move(sk, rep, MoveSpec(
                        "T4", region=0, side=side, label=g), group)
                    assert closed_invariant(sk_t4, lab_t4, cat).value == base, \
                        (mname, bname, "T4", side, g)
    _report(3, "move invariance (Pachner 1-4/2-3, T1, T2, T4 all g)")


def test_criterion_4_gauge_invariance():
    from statesum3d.statesum import _Evaluator
    for mname in MANIFOLDS + ["s3_5tet"]:
        sk = dual_skeleton(load_tri(mname))
        for n in (2, 3, 4):
            cat = builtin_category(f"vect_Z{n}_theta1")
            ev = _Evaluator(sk, cat)
            for rep, members in _orbits(sk, cat.group):
                base = closed_invariant(sk, rep, cat, _ev=ev).value
                for lab in members:
                    assert closed_invariant(sk, lab, cat, _ev=ev).value == base, \
                        (mname, n)
    _report(4, "gauge invariance over full enumerations")


def test_criterion_5_oracle_equivalence():
    combos = 0
    for mname in MANIFOLDS:
        tri = load_tri(mname)
        try:
            ot = find_branching(tri)
        except ValueError:
            ot = subdivide(tri)
        sk = dual_skeleton(tri)
        for name in POINTED:
            cat = builtin_category(name)
            nq = cat.group.order
            q = int(name.rsplit("theta", 1)[1])
            theta = CocycleTable.cyclic_rep(nq, q)
            agg = partition_all_classes(sk, cat).aggregate
            assert dw_partition(ot, theta.group, theta) == agg, (mname, name)
            combos += 1
    assert combos >= 20
    _report(5, f"oracle equivalence ({combos} combinations)")


def test_criterion_6_sector_dimension_identity():
    for name in ALL_BACKENDS:
        cat = builtin_category(name)
        dim1 = neutral_dimension(cat)
        for g in cat.group.elements():
            sec = cat.sector(g)
            if not sec:
                continue
            total = cat.field.zero()
            for i in sec:
                total = total + cat.dim_l[i] * cat.dim_r[i]
            assert total == dim1, (name, g)
    _report(6, "sector dimension identity")


def test_criterion_7_validation_and_corruptions():
    from pathlib import Path
    data = Path(__file__).resolve().parents[1] / "src/statesum3d/data/categories"
    files = sorted(data.glob("*.cat"))
    assert len(files) >= 11
    for path in files:
        cat = load_category(path.read_text())
        assert validate_category(cat).passed(), path.name
    fib = builtin_category("fibonacci")
    rnd = random.Random(2024)
    keys = sorted(fib.fsym)
    detected = 0
    for trial in range(10):
        key = keys[rnd.randrange(len(keys))]
        fsym = dict(fib.fsym)
        scale = fib.field.rational(rnd.choice([-1, 2, -2, 3]))
        fsym[key] = fsym[key] * scale
        try:
            bad = GFusionData(fib.field, fib.group, fib.names, fib.grade, fib.dual,
                              fib.fusion_set, fsym, fib.dim_l, fib.dim_r,
                              fib.pivotal, name="corrupt")
            report = validate_category(bad)
            assert not report.passed(), (trial, key)
        except ValueError:
            pass  # degenerate duality data rejected at construction
        detected += 1
    assert detected == 10
    _report(7, "validation suite and 10 corruption detections")


def test_criterion_8_push_forward():
    z4 = FiniteGroup.cyclic(4)
    z2 = FiniteGroup.cyclic(2)
    phi = GroupHom(z4, z2, [0, 1, 0, 1])
    gamma = len(phi.kernel())
    assert gamma == 2
    for mname in ["s3_2tet", "rp3", "s1xs2"]:
        sk = dual_skeleton(load_tri(mname))
        for q in range(4):
            cat = builtin_category(f"vect_Z4_theta{q}")
            pushed = push_forward(cat, phi)
            assert validate_category(pushed).passed()
            assert neutral_dimension(pushed) == \
                cat.field.rational(gamma) * neutral_dimension(cat)
            lhs = cat.field.zero()
            for (_, _, v) in partition_all_classes(sk, pushed).rows:
                lhs = lhs + v
            rhs = cat.field.zero()
            for (_, _, v) in partition_all_classes(sk, cat).rows:
                rhs = rhs + v
            rhs = rhs * cat.field.rational(gamma).inv()
            assert lhs == rhs, (mname, q)
    _report(8, "push-forward lift-sum identity")


def test_criterion_9_spine_relation():
    spine = dual_skeleton(load_tri("s3_1vtx"))
    assert spine.is_spine()
    for name in ["fibonacci"] + POINTED[:4]:
        cat = builtin_category(name)
        rep = gauge_classes(spine, cat.group)[0][0]
        sigma = unnormalized_invariant(spine, rep, cat)
        assert sigma == neutral_dimension(cat) * closed_invariant(spine, rep, cat).value
        if name == "fibonacci":
            assert sigma.is_one()
    _report(9, "spine relation ||M|| = dim(C1)|M|")


def test_criterion_10_hqft_suite():
    triv = FiniteGroup.trivial()
    z2 = FiniteGroup.cyclic(2)
    z3 = FiniteGroup.cyclic(3)
    # idempotence for sphere and torus skeletons over pointed and trivial
    for sname in ["sphere_circle", "sphere_fine", "torus_2loop", "torus_fine"]:
        for cname, grp in [("vect_Z2_theta0", z2), ("vect_Z2_theta1", z2),
                           ("vect_Z3_theta1", z3), ("vect_1_trivial", triv)]:
            cat = builtin_category(cname)
            cylinder_projector(builtin_surface(sname, grp), cat)  # raises unless p*p=p
    # transitivity on both shipped pairs
    for cname, grp in [("vect_Z2_theta1", z2), ("vect_1_trivial", triv)]:
        cat = builtin_category(cname)
        for coarse, fine in [("sphere_circle", "sphere_fine"),
                             ("torus_2loop", "torus_fine")]:
            A0 = builtin_surface(coarse, grp)
            A1 = builtin_surface(fine, grp)
            parent = refinement_parent(fine)
            up = build_sheet_cylinder(A0, A1, parent, ambient_is_top=True)
            dn = build_sheet_cylinder(A1, A0, parent, ambient_is_top=False)
            m_up, *_ = assemble_block_matrix(up, cat)
            m_dn, *_ = assemble_block_matrix(dn, cat)
            assert matrix_mul(m_dn, m_up, cat.field) == cylinder_projector(A0, cat).matrix
            assert matrix_mul(m_up, m_dn, cat.field) == cylinder_projector(A1, cat).matrix
    # ranks
    for cname in ["vect_Z2_theta0", "vect_Z2_theta1", "vect_Z3_theta1"]:
        cat = builtin_category(cname)
        assert hqft_space_rank("sphere_circle", cat) == 1
    assert hqft_space_rank("empty", builtin_category("vect_Z2_theta0")) == 1
    for cname, grp in [("vect_Z2_theta1", z2), ("fibonacci", triv)]:
        cat = builtin_category(cname)
        assert hqft_space_rank("sphere_circle", cat) == hqft_space_rank("sphere_fine", cat)
        assert hqft_space_rank("torus_2loop", cat) == hqft_space_rank("torus_fine", cat)
    _report(10, "hqft structural suite")


def test_criterion_11_graphcalc_property_suite():
    names = ["vect_Z2_theta1", "vect_Z3_theta1", "fibonacci", "ising_like"]
    for name in names:
        cat = builtin_category(name)
        rnd = random.Random(1000 + len(name))
        # outer-face independence, 20 instances
        for _ in range(20):
            g = random_admissible_graph(rnd, cat, max_vertices=5)
            base = evaluate_graph(cat, g, outer_face=0)
            for f in range(1, len(g.faces)):
                assert evaluate_graph(cat, g, outer_face=f) == base
        # full rotation identity and gram invertibility, 20 cyclic sets
        done = 0
        while done < 20:
            sz = rnd.randrange(2, 6)
            cs = CyclicCSet([(rnd.randrange(cat.n), rnd.choice([1, -1]))
                             for _ in range(sz)])
            basis = MultiplicityBasis(cat, cs)
            if basis.dim() == 0:
                continue
            assert rotation_matrix(cat, basis, sz) == \
                identity_matrix(basis.dim(), cat.field)
            PairingData(cat, cs).gram_inverse()  # raises when singular
            done += 1
        # disjoint union multiplicativity, 20 instances
        for _ in range(20):
            g1 = random_admissible_graph(rnd, cat, max_vertices=3)
            g2 = random_admissible_graph(rnd, cat, max_vertices=3)
            n1, e1 = g1.nvertices, len(g1.edges)
            edges = list(g1.edges) + [(t + n1, h + n1, c) for (t, h, c) in g2.edges]
            rotations = [list(r) for r in g1.rotations] + \
                [[(e + e1, end) for (e, end) in r] for r in g2.rotations]
            faces2 = [tuple((v + n1, i) for v, i in f) for f in g2.faces]
            merged = [tuple(g1.faces[0]) + faces2[0]] + list(g1.faces[1:]) + faces2[1:]
            g = ColoredGraph(n1 + g2.nvertices, edges, rotations, faces=merged)
            t = evaluate_graph(cat, g)
            t1 = evaluate_graph(cat, g1)
            t2 = evaluate_graph(cat, g2)
            for i1, v1 in t1.entries.items():
                for i2, v2 in t2.entries.items():
                    assert t.value(i1 + i2) == v1 * v2
        # unit edge deletion, 20 instances
        done = 0
        while done < 20:
            g = random_admissible_graph(rnd, cat, max_vertices=5)
            cands = [k for k, (t, h, c) in enumerate(g.edges)
                     if c == cat.unit and t != h
                     and len(g.rotations[t]) > 1 and len(g.rotations[h]) > 1]
            if not cands:
                continue
            k = cands[0]
            tail, head, _ = g.edges[k]
            slots = []
            for v in range(g.nvertices):
                anchor = 0
                if v in (tail, head):
                    anchor = next(i for i, d in enumerate(g.rotations[v])
                                  if d[0] != k)
                slots.append(VertexTensorSlot(v, anchor))
            t_big = evaluate_graph(cat, g, slots=slots)
            edges2 = [e for i, e in enumerate(g.edges) if i != k]
            remap = {i: (i if i < k else i - 1)
                     for i in range(len(g.edges)) if i != k}
            rotations2 = [[(remap[e], end) for (e, end) in rot if e != k]
                          for rot in g.rotations]
            g2 = ColoredGraph(g.nvertices, edges2, rotations2)
            slots2 = []
            for v in range(g.nvertices):
                old = slots[v].anchor
                drop = sum(1 for i, d in enumerate(g.rotations[v])
                           if d[0] == k and i < old)
                slots2.append(VertexTensorSlot(v, old - drop))
            t_small = evaluate_graph(cat, g2, slots=slots2)
            for idx, val in t_big.entries.items():
                small_idx = []
                for v in range(g.nvertices):
                    tree = t_big.bases[v].trees[idx[v]]
                    rot = g.rotations[v]
                    anch = [rot[(slots[v].anchor + j) % len(rot)]
                            for j in range(len(rot))]
                    target = tuple(m for j, m in enumerate(tree)
                                   if anch[j][0] != k)
                    small_idx.append(t_small.bases[v].trees.index(target))
                assert t_small.value(tuple(small_idx)) == val
            done += 1
    _report(11, "graphcalc property suite (>= 20 instances per backend)")
