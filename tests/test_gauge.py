import random

import pytest
from hypothesis import given, settings, strategies as st

from statesum3d.catdata import FiniteGroup
from statesum3d.complexes import LinkGraph, Skeleton, dual_skeleton, pachner
from statesum3d.gauge import _backtrack, _ball_forest, gauge_classes

import refgauge
from trifiles import load_skeleton, load_tri, shipped_names


def test_labeling_counts():
    sk = dual_skeleton(load_tri("s3_2tet"))
    z2 = FiniteGroup.cyclic(2)
    rows = gauge_classes(sk, z2)
    assert sum(size for _, size in rows) == 8
    assert all(refgauge.labeling_valid(sk, z2, rep) for rep, _ in rows)
    triv = FiniteGroup.trivial()
    assert sum(size for _, size in gauge_classes(sk, triv)) == 1


def test_orbit_counts():
    z2 = FiniteGroup.cyclic(2)
    z3 = FiniteGroup.cyclic(3)
    sk = dual_skeleton(load_tri("s3_2tet"))
    rows = gauge_classes(sk, z2)
    assert len(rows) == 1 and rows[0][1] == 8

    paper = load_skeleton("s1xs2_paper")
    rows = gauge_classes(paper, z2)
    assert sum(size for _, size in rows) == 4
    assert len(rows) == 2
    # the paper family: annulus labeled 1, both disks a common g
    reps = {tuple(rep[r] for r in range(3)) for rep, _ in rows}
    assert (0, 0, 0) in reps and (1, 0, 1) in reps

    rp3 = dual_skeleton(load_tri("rp3"))
    assert len(gauge_classes(rp3, z3)) == 1


def test_gauge_action_properties():
    # the action the reference orbits are closed under
    sk = dual_skeleton(load_tri("rp3"))
    group = FiniteGroup.symmetric(3)
    labs = refgauge.enumerate_labelings(sk, group)
    rnd = random.Random(4)
    ident = [group.identity] * sk.ball_count
    for _ in range(30):
        lab = rnd.choice(labs)
        assert refgauge.gauge_act(sk, group, ident, lab) == lab
        lam = [rnd.randrange(group.order) for _ in range(sk.ball_count)]
        mu = [rnd.randrange(group.order) for _ in range(sk.ball_count)]
        moved = refgauge.gauge_act(sk, group, lam, lab)
        assert refgauge.labeling_valid(sk, group, moved)
        lammu = [group.mul(lam[b], mu[b]) for b in range(sk.ball_count)]
        assert refgauge.gauge_act(sk, group, lammu, lab) == \
            refgauge.gauge_act(sk, group, lam, refgauge.gauge_act(sk, group, mu, lab))


def test_constant_gauge_is_conjugation():
    sk = dual_skeleton(load_tri("l31"))
    group = FiniteGroup.symmetric(3)
    labs = refgauge.enumerate_labelings(sk, group)
    g = 3
    lam = [g] * sk.ball_count
    lab = labs[-1]
    moved = refgauge.gauge_act(sk, group, lam, lab)
    for r in range(sk.nregions()):
        assert moved[r] == group.mul(group.mul(g, lab[r]), group.inv(g))


@given(st.integers(min_value=2, max_value=4))
@settings(max_examples=3, deadline=None)
def test_orbit_sizes_partition_labelings(n):
    sk = dual_skeleton(load_tri("rp3"))
    group = FiniteGroup.cyclic(n)
    labs = refgauge.enumerate_labelings(sk, group)
    assert sum(size for _, size in gauge_classes(sk, group)) == len(labs)


def _check_backtrack(sk, group):
    """The enumerator under ``gauge_classes`` lists the reference's
    labelings, in its order: all of them, and those that are the identity
    on the regions of the ball forest."""
    keys = [tuple(lab[r] for r in range(len(sk.regions)))
            for lab in refgauge.enumerate_labelings(sk, group)]
    assert _backtrack(sk, group, frozenset()) == keys
    tree = _ball_forest(sk)[0]
    assert _backtrack(sk, group, tree) == \
        [key for key in keys if all(key[r] == group.identity for r in tree)]


_GROUPS = [FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.cyclic(4),
           FiniteGroup.symmetric(3)]


@pytest.mark.parametrize("group", _GROUPS, ids=lambda g: g.name)
@pytest.mark.parametrize("name", shipped_names() + ["s1xs2_paper"])
def test_matches_reference(name, group):
    sk = load_skeleton(name) if name == "s1xs2_paper" else dual_skeleton(load_tri(name))
    _check_backtrack(sk, group)


def test_matches_reference_on_grown_sphere():
    tri = load_tri("s3_2tet")
    rnd = random.Random(5)
    for _ in range(3):
        tri = pachner(tri, "1-4", rnd.randrange(tri.ntets))
    _check_backtrack(dual_skeleton(tri), FiniteGroup.cyclic(3))


@pytest.mark.parametrize("name, group", [("t3_6tet", FiniteGroup.symmetric(3)),
                                         ("s1xs2", FiniteGroup.cyclic(4))],
                         ids=["t3_6tet-S3", "s1xs2-Z4"])
def test_shuffled_list_matches_reference(name, group):
    # the reference partition of a shuffled list gives the same classes
    sk = dual_skeleton(load_tri(name))
    labs = refgauge.enumerate_labelings(sk, group)
    random.Random(11).shuffle(labs)
    assert gauge_classes(sk, group) == \
        [(rep, len(members)) for rep, members in refgauge.gauge_orbits(sk, group, labs)]


@pytest.mark.parametrize("name, group", [("s3_2tet", FiniteGroup.cyclic(3)),
                                         ("t3_6tet", FiniteGroup.symmetric(3))],
                         ids=["s3_2tet-Z3", "t3_6tet-S3"])
def test_list_missing_an_orbit_member_is_rejected(name, group):
    # the reference's member lists, which the gauge invariance tests run
    # over, are checked to be whole orbits
    sk = dual_skeleton(load_tri(name))
    labs = refgauge.enumerate_labelings(sk, group)
    _, members = max(refgauge.gauge_orbits(sk, group, labs), key=lambda row: len(row[1]))
    assert len(members) > 1
    labs.remove(members[-1])
    with pytest.raises(ValueError, match="not closed under the gauge action"):
        refgauge.gauge_orbits(sk, group, labs)


def _grown(base, moves, seed):
    tri = load_tri(base)
    rnd = random.Random(seed)
    for _ in range(moves):
        tri = pachner(tri, "1-4", rnd.randrange(tri.ntets))
    return dual_skeleton(tri)


def _renumbered(sk, order):
    """``sk`` with region ``order[k]`` renumbered k."""
    new = {r: k for k, r in enumerate(order)}
    links = [LinkGraph([(t, h, new[r]) for t, h, r in lk.arcs], lk.rotations)
             for lk in sk.links]
    return Skeleton([sk.regions[r] for r in order], sk.ball_count, links, sk.edges)


def _disjoint_union(a, b):
    """The skeleton of the disjoint union; the parts of ``b`` follow those of ``a``."""
    nr, nb, nv = len(a.regions), a.ball_count, len(a.links)
    regions = a.regions + [(chi, bn + nb, bp + nb) for chi, bn, bp in b.regions]
    links = a.links + [LinkGraph([(t, h, r + nr) for t, h, r in lk.arcs], lk.rotations)
                       for lk in b.links]
    edges = a.edges + [tuple((v + nv, g) for v, g in e) for e in b.edges]
    return Skeleton(regions, nb + b.ball_count, links, edges)


def _relabelled(group, perm):
    """``group`` with element x renamed perm[x]."""
    back = {p: x for x, p in enumerate(perm)}
    n = group.order
    return FiniteGroup([[perm[group.table[back[a]][back[b]]] for b in range(n)]
                        for a in range(n)], name=group.name)


def _skeleton(name):
    """A shipped skeleton; ``base+N`` is ``base`` after N seeded 1-4 moves,
    ``union`` is rp3 beside the paper S1xS2, and ``shuffled X`` is X with
    its regions in a seeded random order."""
    if name.startswith("shuffled "):
        sk = _skeleton(name[len("shuffled "):])
        order = list(range(len(sk.regions)))
        random.Random(name).shuffle(order)
        return _renumbered(sk, order)
    if name == "union":
        return _disjoint_union(dual_skeleton(load_tri("rp3")), load_skeleton("s1xs2_paper"))
    if name == "s1xs2_paper":
        return load_skeleton(name)
    if "+" in name:
        base, moves = name.split("+")
        return _grown(base, int(moves), f"gauge-classes/{name}")
    return dual_skeleton(load_tri(name))


def _reference_classes(sk, group):
    labs = refgauge.enumerate_labelings(sk, group)
    return [(rep, len(members)) for rep, members in refgauge.gauge_orbits(sk, group, labs)]


_S3 = FiniteGroup.symmetric(3)
# cases whose reference lists at most about 2,000 labelings
_CLASS_CASES = [(name, group) for name in shipped_names() + ["s1xs2_paper"] for group in _GROUPS]
_CLASS_CASES += [("s3_2tet+3", FiniteGroup.cyclic(2)), ("s3_2tet+3", FiniteGroup.cyclic(3)),
                 ("t3_6tet+2", FiniteGroup.cyclic(2)), ("t3_6tet+2", FiniteGroup.cyclic(3)),
                 ("t3_6tet+2", FiniteGroup.cyclic(4)), ("t3_6tet+2", _S3),
                 ("shuffled union", _S3), ("shuffled union", FiniteGroup.cyclic(4)),
                 ("shuffled s3_2tet+2", FiniteGroup.cyclic(4)),
                 ("shuffled t3_6tet+2", FiniteGroup.cyclic(4)),
                 ("shuffled l41+2", FiniteGroup.cyclic(4)), ("shuffled l41+2", _S3)]


@pytest.mark.parametrize("name, group", _CLASS_CASES,
                         ids=[f"{name}-{group.name}" for name, group in _CLASS_CASES])
def test_gauge_classes_match_reference(name, group):
    sk = _skeleton(name)
    assert gauge_classes(sk, group) == _reference_classes(sk, group)


@pytest.mark.parametrize("name, group", [
    ("t3_6tet", _S3), ("s3_2tet", _S3), ("shuffled union", _S3),
    ("shuffled t3_6tet+2", FiniteGroup.cyclic(4)), ("shuffled l41+2", _S3)])
def test_gauge_classes_with_identity_not_first(name, group):
    # the elements renamed so that the identity is not element 0
    group = _relabelled(group, [3, 0, 2, 1, 5, 4][:group.order])
    assert group.identity != 0
    sk = _skeleton(name)
    assert gauge_classes(sk, group) == _reference_classes(sk, group)


@pytest.mark.parametrize("moves, group, classes", [
    (8, FiniteGroup.cyclic(3), 1), (5, _S3, 1), (3, FiniteGroup.cyclic(4), 1)])
def test_gauge_classes_of_grown_spheres(moves, group, classes):
    # far past what listing every labeling allows: one class, whose
    # stabiliser is the constant gauges
    sk = _grown("s3_2tet", moves, f"gauge-classes/{moves}")
    rows = gauge_classes(sk, group)
    assert len(rows) == classes
    assert rows[0] == ({r: group.identity for r in range(sk.nregions())},
                       group.order ** (sk.ball_count - 1))
