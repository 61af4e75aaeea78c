from itertools import product

import pytest

from statesum3d.catdata import (CocycleTable, FiniteGroup, GroupHom, build_vec_g_theta,
                                builtin_category)
from statesum3d.complexes import pachner, dual_skeleton
from statesum3d.exactnum import make_field, root_of_unity
from statesum3d.oracle import (
    dw_class_table,
    dw_class_value,
    dw_partition,
    find_branching,
    flat_colorings,
    subdivide,
)
from statesum3d.statesum import partition_all_classes

from trifiles import load_tri


def _ordered(name):
    tri = load_tri(name)
    try:
        return find_branching(tri)
    except ValueError:
        return subdivide(tri)


def test_branching_found_or_subdivided():
    direct = 0
    for name in ["s3_2tet", "s3_1vtx", "rp3", "l31", "l41", "s1xs2", "t3_6tet"]:
        tri = load_tri(name)
        try:
            find_branching(tri)
            direct += 1
        except ValueError:
            ot = subdivide(tri)
            assert ot.tri.ntets == 24 * tri.ntets
    assert direct >= 2


def test_trivial_cocycle_values():
    ot = _ordered("s3_2tet")
    z2 = FiniteGroup.cyclic(2)
    theta = CocycleTable.cyclic_rep(2, 0)
    for col in flat_colorings(ot, z2):
        assert dw_class_value(ot, col, theta).is_one()


def test_s3_class_values_trivial():
    for n in (2, 3):
        for q in range(n):
            ot = _ordered("s3_2tet")
            theta = CocycleTable.cyclic_rep(n, q)
            group = theta.group
            for col in flat_colorings(ot, group):
                assert dw_class_value(ot, col, theta).is_one()


def test_s3_partition_value():
    for n in (2, 3, 4):
        ot = _ordered("s3_2tet")
        theta = CocycleTable.cyclic_rep(n, 1)
        group = theta.group
        val = dw_partition(ot, group, theta)
        assert val == theta.field.rational(1) / theta.field.rational(n)


def test_nonflat_coloring_rejected():
    ot = _ordered("s3_2tet")
    theta = CocycleTable.cyclic_rep(2, 0)
    z2 = FiniteGroup.cyclic(2)
    col = flat_colorings(ot, z2)[0]
    bad = list(col)
    bad[0] = 1 - bad[0]
    if not any(tuple(bad) == c for c in flat_colorings(ot, z2, tree_trivial=False)):
        with pytest.raises(ValueError, match="flat"):
            dw_class_value(ot, tuple(bad), theta)


def _coboundary_shift(theta: CocycleTable, eta):
    """theta' = theta * d(eta) for a normalized 2-cochain eta: G^2 -> k*."""
    g = theta.group
    field = theta.field
    vals = {}
    for a, b, c in product(g.elements(), repeat=3):
        shift = eta[(b, c)] * eta[(g.mul(a, b), c)].inv() \
            * eta[(a, g.mul(b, c))] * eta[(a, b)].inv()
        vals[(a, b, c)] = theta(a, b, c) * shift
    return CocycleTable(g, field, vals)


def test_coboundary_invariance():
    import random
    rnd = random.Random(3)
    for n, q in [(2, 1), (3, 1)]:
        theta = CocycleTable.cyclic_rep(n, q)
        g = theta.group
        field = theta.field
        for trial in range(3):
            eta = {}
            for a, b in product(g.elements(), repeat=2):
                if a == g.identity or b == g.identity:
                    eta[(a, b)] = field.one()
                else:
                    eta[(a, b)] = root_of_unity(field, rnd.randrange(n))
            shifted = _coboundary_shift(theta, eta)
            for name in ["s3_1vtx", "rp3", "l31"]:
                ot = _ordered(name)
                for col in flat_colorings(ot, g):
                    assert dw_class_value(ot, col, theta) == \
                        dw_class_value(ot, col, shifted)


def test_pachner_invariance_of_partition():
    for name in ["s3_2tet", "rp3", "s1xs2"]:
        tri = load_tri(name)
        loc = next((t, f) for (t, f), (t2, _, _) in tri.gluings.items() if t2 != t)
        moved = [pachner(tri, "1-4", 0), pachner(tri, "2-3", loc)]
        for n, q in [(2, 1), (3, 2)]:
            theta = CocycleTable.cyclic_rep(n, q)
            group = theta.group

            def value(t):
                try:
                    ot = find_branching(t)
                except ValueError:
                    ot = subdivide(t)
                return dw_partition(ot, group, theta)

            base = value(tri)
            for t2 in moved:
                assert value(t2) == base, (name, n, q)


def test_direct_vs_subdivided_agree():
    tri = load_tri("s3_2tet")
    ot1 = find_branching(tri)
    ot2 = subdivide(tri)
    for n, q in [(2, 1), (3, 1)]:
        theta = CocycleTable.cyclic_rep(n, q)
        group = theta.group
        assert dw_partition(ot1, group, theta) == dw_partition(ot2, group, theta)


def test_oracle_matches_pipeline_sample():
    for mname in ["rp3", "l31", "s1xs2"]:
        ot = _ordered(mname)
        sk = dual_skeleton(load_tri(mname))
        for n in (2, 3):
            for q in range(n):
                theta = CocycleTable.cyclic_rep(n, q)
                cat = builtin_category(f"vect_Z{n}_theta{q}")
                assert dw_partition(ot, theta.group, theta) == \
                    partition_all_classes(sk, cat).aggregate


def _sign_pullback():
    """The Z2 cocycle ``cyclic_rep(2, 1)`` pulled back to S3 along the one
    surjective homomorphism S3 -> Z2, the sign map."""
    s3, z2 = FiniteGroup.symmetric(3), FiniteGroup.cyclic(2)
    homs = []
    for values in product(z2.elements(), repeat=s3.order):
        try:
            hom = GroupHom(s3, z2, values)
        except ValueError:
            continue
        if hom.is_surjective():
            homs.append(hom)
    assert len(homs) == 1
    sign, theta = homs[0], CocycleTable.cyclic_rep(2, 1)
    return CocycleTable(s3, theta.field, {
        (a, b, c): theta(sign(a), sign(b), sign(c))
        for a, b, c in product(s3.elements(), repeat=3)})


def test_oracle_matches_pipeline_for_s3():
    # a non-abelian group: the partition aggregate of Vect_S3^theta against
    # the simplicial oracle, for theta trivial and the sign pull-back
    s3 = FiniteGroup.symmetric(3)
    thetas = [CocycleTable.trivial(s3), _sign_pullback()]
    want = {"rp3": ["[2/3]", "[-1/3]"], "s1xs2": ["[1]"] * 2, "s3_1vtx": ["[1/6]"] * 2,
            "s3_2tet": ["[1/6]"] * 2, "s3_5tet": ["[1/6]"] * 2, "t3_6tet": ["[8]"] * 2}
    for mname, values in want.items():
        ot = _ordered(mname)
        sk = dual_skeleton(load_tri(mname))
        for theta, text in zip(thetas, values):
            value = dw_partition(ot, s3, theta)
            assert value == partition_all_classes(sk, build_vec_g_theta(s3, theta)).aggregate, \
                (mname, text)
            assert value.to_text() == text, mname


def test_class_table_multiset_matches_pipeline():
    # value multisets agree between oracle classes and pipeline orbits
    for mname in ["rp3", "l31"]:
        ot = _ordered(mname)
        sk = dual_skeleton(load_tri(mname))
        for n, q in [(2, 1), (3, 1)]:
            theta = CocycleTable.cyclic_rep(n, q)
            cat = builtin_category(f"vect_Z{n}_theta{q}")
            oracle_vals = sorted(v.to_text() for _, v in
                                 dw_class_table(ot, theta.group, theta))
            pipeline_vals = sorted(v.to_text() for (_, _, v) in
                                   partition_all_classes(sk, cat).rows)
            assert oracle_vals == pipeline_vals, (mname, n, q)


def test_trivial_group_partition():
    tri = load_tri("s3_2tet")
    ot = find_branching(tri)
    group = FiniteGroup.trivial()
    theta = CocycleTable.trivial(group)
    assert dw_partition(ot, group, theta).is_one()
