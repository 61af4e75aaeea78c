import hashlib
import random
from itertools import permutations

import pytest

from statesum3d.catdata import FiniteGroup, builtin_category
from statesum3d.complexes import (
    MoveSpec,
    Skeleton,
    Triangulation,
    apply_move,
    dual_skeleton,
    pachner,
    parse_skeleton,
    parse_triangulation,
    region_boundary_walks,
    save_skeleton,
    save_triangulation,
    triangulations_isomorphic,
)
from statesum3d.complexes import _CLOCKWISE, _dual_arc
from statesum3d.graphcalc import InternalError
from statesum3d.statesum import partition_all_classes

import refskeleton
from homology import elementary_divisors, first_homology
from trifiles import load_tri, shipped_names


S3_TEXT = "tets 2\n" + "\n".join(f"glue 0 {f} 1 {f} 0123" for f in range(4))


def test_parse_s3_2tet_counts():
    tri = parse_triangulation(S3_TEXT)
    assert tri.summary() == {"tets": 2, "triangles": 4, "edges": 6, "vertices": 4}


def test_parse_rejects_open_and_bad_involution():
    with pytest.raises(ValueError, match="not closed"):
        parse_triangulation("tets 2\nglue 0 0 1 0 0123")
    bad = "tets 2\n" + "\n".join(f"glue 0 {f} 1 {f} 0123" for f in range(3)) \
        + "\nglue 0 3 0 3 0123"
    with pytest.raises(ValueError):
        parse_triangulation(bad)


def test_parse_all_shipped_counts():
    expected = {
        "s3_2tet": {"tets": 2, "triangles": 4, "edges": 6, "vertices": 4},
        "s3_1vtx": {"tets": 2, "triangles": 4, "edges": 3, "vertices": 1},
        "rp3": {"tets": 2, "triangles": 4, "edges": 3, "vertices": 1},
        "l31": {"tets": 2, "triangles": 4, "edges": 3, "vertices": 1},
        "l41": {"tets": 2, "triangles": 4, "edges": 3, "vertices": 1},
        "s1xs2": {"tets": 2, "triangles": 4, "edges": 3, "vertices": 1},
        "t3_6tet": {"tets": 6, "triangles": 12, "edges": 7, "vertices": 1},
        "s3_5tet": {"tets": 5, "triangles": 10, "edges": 10, "vertices": 5},
    }
    for name in shipped_names():
        tri = load_tri(name)
        assert tri.summary() == expected[name], name
        # header counts written by the saver match the parsed cells
        text = save_triangulation(tri, name=name)
        again = parse_triangulation(text)
        assert again.summary() == tri.summary()


# (free rank, torsion) of H_1 of each shipped closed triangulation; l41 has
# H_1 = Z/8, so it is not L(4,1) as its name says (its invariants are those
# of L(8,3))
FIRST_HOMOLOGY = {
    "s3_1vtx": (0, ()), "s3_2tet": (0, ()), "s3_5tet": (0, ()), "rp3": (0, (2,)),
    "l31": (0, (3,)), "l41": (0, (8,)), "s1xs2": (1, ()), "t3_6tet": (3, ()),
}


def test_first_homology_of_shipped_triangulations():
    assert elementary_divisors([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert sorted(FIRST_HOMOLOGY) == shipped_names()
    for name in shipped_names():
        assert first_homology(load_tri(name)) == FIRST_HOMOLOGY[name], name


def test_pachner_counts_and_errors():
    tri = parse_triangulation(S3_TEXT)
    t14 = pachner(tri, "1-4", 0)
    assert t14.ntets == 5
    t23 = pachner(tri, "2-3", (0, 0))
    assert t23.ntets == 3
    # a 2-3 where both sides are the same tetrahedron must be rejected
    rp3 = load_tri("rp3")
    self_faces = [(t, f) for (t, f), (t2, _, _) in rp3.gluings.items() if t == t2]
    if self_faces:
        with pytest.raises(ValueError, match="distinct"):
            pachner(rp3, "2-3", self_faces[0])


def test_pachner_roundtrips_isomorphic():
    tri = parse_triangulation(S3_TEXT)
    t14 = pachner(tri, "1-4", 0)
    from collections import Counter
    counts = Counter(t14.vertex_class.values())
    ok = False
    for c, k in counts.items():
        if k == 4:
            try:
                back = pachner(t14, "4-1", c)
            except ValueError:
                continue
            if triangulations_isomorphic(back, tri):
                ok = True
                break
    assert ok
    t23 = pachner(tri, "2-3", (0, 0))
    ok = False
    for e in range(t23.nedges):
        if len(t23.edge_members[e]) == 3:
            try:
                back = pachner(t23, "3-2", e)
            except ValueError:
                continue
            if triangulations_isomorphic(back, tri):
                ok = True
                break
    assert ok


def _relabeled(tri, sigma):
    """The triangulation with vertex v of every tetrahedron renamed sigma[v];
    an odd sigma gives the mirror image."""
    inv = [sigma.index(v) for v in range(4)]
    gluings = {(t, sigma[f]): (t2, sigma[f2], tuple(sigma[perm[inv[v]]] for v in range(4)))
               for (t, f), (t2, f2, perm) in tri.gluings.items()}
    return Triangulation(tri.ntets, gluings)


@pytest.mark.parametrize("name", ["l31", "l41"])
def test_isomorphism_respects_orientation(name):
    # lens spaces are chiral, so a mirror image is not orientedly isomorphic
    tri = load_tri(name)
    mirror = _relabeled(tri, (1, 0, 2, 3))
    assert triangulations_isomorphic(tri, _relabeled(tri, (1, 2, 0, 3)))
    assert not triangulations_isomorphic(tri, mirror)
    assert triangulations_isomorphic(mirror, _relabeled(tri, (0, 1, 3, 2)))


def _partition(tri, cat):
    table = partition_all_classes(dual_skeleton(tri), cat)
    return sorted(v.to_text() for (_, _, v) in table.rows), table.aggregate.to_text()


@pytest.mark.parametrize("name, category", [("l31", "vect_Z3_theta1"),
                                            ("l41", "vect_Z4_theta1")])
def test_bistellar_moves_keep_the_orientation(name, category):
    # Lens spaces are chiral: a move that returns the mirror image conjugates
    # these values.  Every 1-4 and 2-3, and every 4-1 or 3-2 on their
    # results, must keep them; one of the latter must undo the move.
    cat = builtin_category(category)
    tri = load_tri(name)
    want = _partition(tri, cat)
    moves = [("1-4", t, "4-1") for t in range(tri.ntets)]
    moves += [("2-3", tf, "3-2") for tf, (t2, _, _) in sorted(tri.gluings.items())
              if t2 != tf[0]]
    for move, location, inverse in moves:
        moved = pachner(tri, move, location)
        assert _partition(moved, cat) == want, (move, location)
        undone = False
        for k in range(moved.nvertices if inverse == "4-1" else moved.nedges):
            try:
                back = pachner(moved, inverse, k)
            except ValueError:
                continue
            assert _partition(back, cat) == want, (move, location, inverse, k)
            undone = undone or triangulations_isomorphic(back, tri)
        assert undone, (move, location)


# sha256 of save_triangulation after seeded 1-4 moves, drawn as the
# benchmark grows its inputs
_GROWN_DIGESTS = {
    ("s3_2tet", 5, 0): "13cb576418e858f7e5ea3f06e60654ad1168165c45150e1f777f2310b2bf1ba6",
    ("s3_2tet", 5, 1): "9b53304b895bad1d65c2188e256e3f0c64988e4dbafc10b0c5158f420076124c",
    ("s3_2tet", 5, 7): "c6373da446fa8132335fa16ec69ac3cdfccfd5e317ab68fe6cca0f00c5af00c6",
    ("t3_6tet", 2, 0): "2fdb454d1076bfea68d3b134e3a7d30dae78480ef901f57e7b39c622ee36675d",
    ("t3_6tet", 2, 1): "c8ed89750c55d1887d5b4a71d671c1aeefbc1a6d2f8e5f5bac0f67b7aeee4685",
    ("t3_6tet", 2, 7): "fbe4ee7dffee29325329a60996eabd85cd0f94a389aa33438282771253c86739",
}


def test_grown_triangulations_are_pinned():
    for (base, moves, seed), digest in _GROWN_DIGESTS.items():
        tri = load_tri(base)
        rnd = random.Random(f"{seed}/{base}/{moves}")
        for _ in range(moves):
            tri = pachner(tri, "1-4", rnd.randrange(tri.ntets))
        text = save_triangulation(tri, name=f"{base}_plus{moves}")
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (base, moves, seed)


def test_sign_tables_match_the_barycentric_model():
    for sign in (1, -1):
        for aa in range(4):
            for bb in range(4):
                if aa != bb:
                    c, d = (x for x in range(4) if x not in (aa, bb))
                    want = (c, d) if refskeleton.arc_runs_c_to_d(aa, bb, sign) else (d, c)
                    assert _dual_arc(aa, bb, sign) == want, (aa, bb, sign)
        for k in range(4):
            assert _CLOCKWISE[sign][k] == refskeleton.clockwise(k, sign), (k, sign)


# sha256 of save_skeleton(dual_skeleton(tri)) as the barycentric
# construction wrote it, for the shipped triangulations and the grown ones of
# _GROWN_DIGESTS
_DUAL_DIGESTS = {
    "l31": "b7cf0ece6ab35d29a618bdc9c222e73480569c7f4a95fdea5fb4b663a69072e5",
    "l41": "fdd0c72a84e1c56d284b8f5148a10fed223cb0000be424b1ff591109a2b7ccbc",
    "rp3": "76ed331364222ac01e5de16144295d50562a16573071ea6d01d89c51c958b590",
    "s1xs2": "065702082f6986e11fc4d1b4c7fb777a52f352c000b42744e88661d033fb04ab",
    "s3_1vtx": "34e5b005a6f82e910b285b1fa29a02b204061123effc55eba667dbef2d21baa9",
    "s3_2tet": "6c0a78514f58a195c5bf895a86108e0616fa0fb3a34db071ee725b4679f0be04",
    "s3_5tet": "f6131e7fdebf2ff0783b857ff4253f7f6411b6f935fc3145ce2767d86cf5bf41",
    "t3_6tet": "2bf2d0a83f128a91483b72cda12c1e85e610f34832bb545f9db44f7f9d8d4996",
    ("s3_2tet", 5, 0): "aaa5b1ece05046a030a4a1c301f724357e16f39ea274cb0d387800367ff0e684",
    ("s3_2tet", 5, 1): "425e807367927ef300991c7b3e0b84daa3a21efa56c5c28b9a00c1f1696f4992",
    ("s3_2tet", 5, 7): "0e8d61a745288c87bd68c8dc857df450f47f411039c34cb1c6618140ae6850ff",
    ("t3_6tet", 2, 0): "6c5d0a6ca5069324b42a4fe860f584d34a27d98d9c028af790bdb5804a6e81d7",
    ("t3_6tet", 2, 1): "47770270cd336a5825651742c57f7c8a609d863463fe0185d3e792b6876398c5",
    ("t3_6tet", 2, 7): "988c1acc8c183f84427484bb93e4fff68f9385ddee16f76629fc6b6fde6b494e",
}


def test_dual_skeletons_are_pinned():
    assert set(shipped_names()) | set(_GROWN_DIGESTS) == set(_DUAL_DIGESTS)
    for key, digest in _DUAL_DIGESTS.items():
        if isinstance(key, str):
            tri = load_tri(key)
        else:
            base, moves, seed = key
            tri = load_tri(base)
            rnd = random.Random(f"{seed}/{base}/{moves}")
            for _ in range(moves):
                tri = pachner(tri, "1-4", rnd.randrange(tri.ntets))
        text = save_skeleton(dual_skeleton(tri))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, key


def test_misaligned_gluing_is_an_internal_error(monkeypatch):
    # one clockwise table for both orientations breaks the invariant that
    # the two link vertices of a glued triangle carry reversed rotations
    from statesum3d import complexes
    monkeypatch.setattr(complexes, "_CLOCKWISE", {1: _CLOCKWISE[1], -1: _CLOCKWISE[1]})
    with pytest.raises(InternalError, match=r"triangle gluing \(0,0\) -> \(1,0\)"):
        dual_skeleton(load_tri("s3_2tet"))


def test_dual_skeleton_structure():
    tri = parse_triangulation(S3_TEXT)
    sk = dual_skeleton(tri)
    assert sk.summary() == {"regions": 6, "edges": 4, "vertices": 2, "balls": 4}
    assert all(chi == 1 for (chi, _, _) in sk.regions)
    assert sk.ball_count == tri.nvertices
    for name in shipped_names():
        sk = dual_skeleton(load_tri(name))  # validates internally
        for eid in range(len(sk.edges)):
            (v0, g0), (v1, g1) = sk.edges[eid]
            items0 = sk.links[v0].items_at(g0)
            items1 = sk.links[v1].items_at(g1)
            assert items1 == [(r, -s) for (r, s) in reversed(items0)]


def test_spine_detection():
    assert dual_skeleton(load_tri("s3_1vtx")).is_spine()
    assert not dual_skeleton(load_tri("s3_2tet")).is_spine()


def test_skeleton_file_roundtrip():
    from pathlib import Path
    text = (Path(__file__).resolve().parents[1] /
            "src/statesum3d/data/skeletons/s1xs2_paper.skel").read_text()
    sk = parse_skeleton(text)
    assert sk.summary() == {"regions": 3, "edges": 1, "vertices": 1, "balls": 2}
    assert save_skeleton(sk) == text


def test_region_boundary_walks_cover_all_germs():
    sk = dual_skeleton(load_tri("rp3"))
    for r in range(sk.nregions()):
        cycles = region_boundary_walks(sk, r)
        germs = [s for c in cycles for s in c if s[0] == "edge"]
        expect = sum(1 for eid in range(len(sk.edges))
                     for (rr, _) in sk.edge_branches(eid) if rr == r)
        assert len(germs) == expect


def _rep_labeling(sk, group):
    from statesum3d.gauge import gauge_classes
    return gauge_classes(sk, group)[0][0]


def test_move_applicability_errors():
    z2 = FiniteGroup.cyclic(2)
    sk = dual_skeleton(parse_triangulation(S3_TEXT))
    lab = _rep_labeling(sk, z2)
    with pytest.raises(ValueError, match="distinct"):
        apply_move(sk, lab, MoveSpec("T1", vertex1=0, arc1=0, vertex2=0, arc2=1), z2)
    # T2 on a loop edge is rejected: the paper-style skeleton has one
    from pathlib import Path
    text = (Path(__file__).resolve().parents[1] /
            "src/statesum3d/data/skeletons/s1xs2_paper.skel").read_text()
    loop_sk = parse_skeleton(text)
    lab2 = _rep_labeling(loop_sk, z2)
    with pytest.raises(ValueError, match="distinct"):
        apply_move(loop_sk, lab2, MoveSpec("T2", edge=0), z2)
    with pytest.raises(ValueError, match="theta"):
        apply_move(sk, lab, MoveSpec("T4inv", vertex=0), z2)


@pytest.mark.parametrize("kind, params, name", [
    ("T1", {"vertex1": 0, "arc1": None, "vertex2": 1, "arc2": 0}, "arc1"),
    ("T1inv", {"edge": None}, "edge"),
    ("T2", {"edge": None}, "edge"),
    ("T2inv", {"vertex": 0, "circle": [0, None]}, "circle"),
    ("T4", {"region": None, "side": "+", "label": 1}, "region"),
    ("T4inv", {"vertex": None}, "vertex"),
], ids=["T1", "T1inv", "T2", "T2inv", "T4", "T4inv"])
def test_moves_refuse_out_of_range_indices(kind, params, name):
    # one past the end and -1 (which Python indexing would read from the
    # end) are refused, naming the parameter, before the move runs
    z2 = FiniteGroup.cyclic(2)
    sk = dual_skeleton(parse_triangulation(S3_TEXT))
    lab = _rep_labeling(sk, z2)
    sizes = {"arc1": len(sk.links[0].arcs), "circle": len(sk.links[0].arcs),
             "edge": len(sk.edges), "region": len(sk.regions), "vertex": len(sk.links)}
    for bad in (-1, sizes[name]):
        filled = {k: [bad if a is None else a for a in v] if isinstance(v, list)
                  else bad if v is None else v for k, v in params.items()}
        message = f"^{kind}: {name} {bad} is outside 0..{sizes[name] - 1}$"
        with pytest.raises(ValueError, match=message):
            apply_move(sk, lab, MoveSpec(kind, **filled), z2)


def _skeleton_signature(sk):
    regions = sorted((chi,) for (chi, _, _) in sk.regions)
    edges = sorted(tuple(sorted((s for _, s in sk.edge_branches(e))))
                   for e in range(len(sk.edges)))
    return (sk.summary()["regions"], sk.summary()["edges"],
            sk.summary()["vertices"], sk.ball_count, regions, edges)


def test_t1_then_inverse_restores_structure():
    z2 = FiniteGroup.cyclic(2)
    sk = dual_skeleton(parse_triangulation(S3_TEXT))
    lab = _rep_labeling(sk, z2)
    arcs0 = [(v, a) for v, lk in enumerate(sk.links)
             for a, (_, _, r) in enumerate(lk.arcs) if r == 0]
    v1, a1 = arcs0[0]
    v2, a2 = next((v, a) for (v, a) in arcs0 if v != v1)
    sk1, lab1 = apply_move(sk, lab, MoveSpec("T1", vertex1=v1, arc1=a1,
                                             vertex2=v2, arc2=a2), z2)
    assert sk1.nregions() == sk.nregions() + 1
    sk2, lab2 = apply_move(sk1, lab1, MoveSpec("T1inv", edge=len(sk1.edges) - 1), z2)
    assert _skeleton_signature(sk2) == _skeleton_signature(sk)


def test_t4_structure_and_labels():
    z3 = FiniteGroup.cyclic(3)
    sk = dual_skeleton(load_tri("l31"))
    lab = _rep_labeling(sk, z3)
    for g in z3.elements():
        sk4, lab4 = apply_move(sk, lab, MoveSpec("T4", region=0, side="+", label=g), z3)
        assert sk4.ball_count == sk.ball_count + 1
        assert sk4.nregions() == sk.nregions() + 2
        assert len(sk4.edges) == len(sk.edges) + 1
        assert lab4[sk4.nregions() - 1] == g
        # big-region labels preserved bit-exactly
        for r in range(sk.nregions()):
            assert lab4[r] == lab[r]


def test_t2inv_roundtrip():
    z2 = FiniteGroup.cyclic(2)
    sk = dual_skeleton(parse_triangulation(S3_TEXT))
    lab = _rep_labeling(sk, z2)
    eid = next(e for e, ((v0, _), (v1, _)) in enumerate(sk.edges) if v0 != v1)
    merged, lab1 = apply_move(sk, lab, MoveSpec("T2", edge=eid), z2)
    assert merged.nvertices() == sk.nvertices() - 1
    # split the merged vertex back along some valid circle: use the arcs
    # that cross between the two halves of the old link; find any circle of
    # three arcs bounding a face triple
    v = merged.nvertices() - 1
    lk = merged.links[v]
    found = False
    from itertools import combinations
    for k in (2, 3):
        for circle in combinations(range(len(lk.arcs)), k):
            try:
                back, lab2 = apply_move(merged, lab1,
                                        MoveSpec("T2inv", vertex=v, circle=list(circle)),
                                        z2)
            except ValueError:
                continue
            found = True
            assert back.nvertices() == merged.nvertices() + 1
            break
        if found:
            break
    assert found


def _moves_and_inverses(sk, group):
    """(move, inverses) pairs: T1 on three arc pairs of region 0, T4 on
    region 0 for both sides and every label, T2 on the first edge that is
    not a loop.  ``inverses`` maps the moved skeleton to the inverse moves
    to try: T1inv on the new edge, T4inv on the new vertex, T2inv along
    each three-arc circle of the merged vertex."""
    arcs0 = [(v, a) for v, lk in enumerate(sk.links)
             for a, (_, _, r) in enumerate(lk.arcs) if r == 0]
    for (v1, a1), (v2, a2) in [(p, q) for p in arcs0 for q in arcs0 if p[0] < q[0]][:3]:
        yield (MoveSpec("T1", vertex1=v1, arc1=a1, vertex2=v2, arc2=a2),
               lambda moved: [MoveSpec("T1inv", edge=len(moved.edges) - 1)])
    for side in "+-":
        for g in group.elements():
            yield (MoveSpec("T4", region=0, side=side, label=g),
                   lambda moved: [MoveSpec("T4inv", vertex=len(moved.links) - 1)])
    eid = next(e for e, ((x, _), (y, _)) in enumerate(sk.edges) if x != y)
    yield (MoveSpec("T2", edge=eid),
           lambda moved: [MoveSpec("T2inv", vertex=len(moved.links) - 1, circle=list(c))
                          for c in permutations(range(len(moved.links[-1].arcs)), 3)])


@pytest.mark.parametrize("name", ["s3_2tet", "rp3", "l31", "t3_6tet"])
def test_every_move_keeps_the_state_sum_and_inverses_round_trip(name):
    """Every move and its inverse keep the closed invariant of the last
    orbit representative; T1 then T1inv, and T4 then T4inv, give back the
    skeleton file and the labeling exactly.  T2inv appends the two halves
    last, so T2 is undone only up to numbering, along two circles."""
    from statesum3d.gauge import gauge_classes
    from statesum3d.statesum import closed_invariant
    sk = dual_skeleton(load_tri(name))
    text = save_skeleton(sk)
    for cname in ("vect_Z2_theta1", "vect_Z3_theta1", "fibonacci"):
        cat = builtin_category(cname)
        group = cat.group
        lab = gauge_classes(sk, group)[-1][0]
        base = closed_invariant(sk, lab, cat).value
        kinds = set()
        for spec, inverses in _moves_and_inverses(sk, group):
            kinds.add(spec.kind)
            moved, lab1 = apply_move(sk, lab, spec, group)
            assert closed_invariant(moved, lab1, cat).value == base, (cname, spec)
            undone = 0
            for inv in inverses(moved):
                try:
                    back, lab2 = apply_move(moved, lab1, inv, group)
                except ValueError:
                    continue
                assert closed_invariant(back, lab2, cat).value == base, (cname, spec, inv)
                undone += 1
                if spec.kind != "T2":
                    assert save_skeleton(back) == text and lab2 == lab, (cname, spec)
                elif undone == 2:
                    break
            assert undone == (2 if spec.kind == "T2" else 1), (cname, spec)
        assert kinds == {"T1", "T2", "T4"}, cname
