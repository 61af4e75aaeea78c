import hashlib

import pytest

from statesum3d.catdata import CocycleTable, FiniteGroup, build_vec_g_theta, builtin_category
from statesum3d.complexes import dual_skeleton
from statesum3d.gauge import gauge_classes
from statesum3d.hqft import (
    CobordismSkeleton,
    SurfaceSkeleton,
    assemble_block_matrix,
    build_product_cylinder,
    build_sheet_cylinder,
    builtin_surface,
    cobordism_from_closed,
    cylinder_projector,
    hqft_space_rank,
    parse_cobordism,
    parse_surface,
    refinement_parent,
    relative_invariant,
    save_cobordism,
    save_surface,
    subdivide_edge,
)
from statesum3d.linalg import matrix_mul
from statesum3d.statesum import closed_invariant

import refcobordism
from trifiles import DATA, load_tri

TRIV = FiniteGroup.trivial()
Z2 = FiniteGroup.cyclic(2)
Z3 = FiniteGroup.cyclic(3)


def test_surface_validation():
    with pytest.raises(ValueError, match="Euler"):
        builtin_surface("torus_2loop", Z2).__class__(
            Z2, [(0, 0), (0, 0)], [[(0, 0), (1, 0), (0, 1), (1, 1)]],
            {0: 0, 1: 0}, [(0, 0)])
    s3 = FiniteGroup.symmetric(3)
    noncommuting = None
    for a in s3.elements():
        for b in s3.elements():
            if s3.mul(a, b) != s3.mul(b, a):
                noncommuting = (a, b)
                break
        if noncommuting:
            break
    with pytest.raises(ValueError, match="product condition"):
        builtin_surface("torus_2loop", s3,
                        labels={0: noncommuting[0], 1: noncommuting[1]})
    # commuting-pair torus labels pass
    surf = builtin_surface("torus_2loop", Z2, labels={0: 1, 1: 1})
    assert len(surf.faces) == 1


def test_subdivide_edge_structure():
    surf = builtin_surface("torus_2loop", Z2)
    fine = subdivide_edge(surf, 0)
    assert fine.nvertices == 2 and len(fine.edges) == 3
    assert len(fine.faces) == len(surf.faces)
    assert fine.labels[2] == surf.labels[0]


IDEMPOTENCE_CASES = [
    ("sphere_circle", "vect_Z2_theta0", Z2),
    ("sphere_circle", "vect_Z2_theta1", Z2),
    ("sphere_fine", "vect_Z2_theta1", Z2),
    ("sphere_circle", "vect_Z3_theta1", Z3),
    ("torus_2loop", "vect_Z2_theta0", Z2),
    ("torus_2loop", "vect_Z2_theta1", Z2),
    ("torus_fine", "vect_Z2_theta1", Z2),
    ("torus_2loop", "vect_1_trivial", TRIV),
    ("sphere_circle", "vect_1_trivial", TRIV),
]


@pytest.mark.parametrize("sname,cname,grp", IDEMPOTENCE_CASES)
def test_projectors_idempotent(sname, cname, grp):
    cat = builtin_category(cname)
    sp = cylinder_projector(builtin_surface(sname, grp), cat)
    # cylinder_projector itself verifies p*p == p exactly
    assert sp.rank >= 0


def test_ranks():
    assert hqft_space_rank("empty", builtin_category("fibonacci")) == 1
    for cname, grp in [("vect_Z2_theta0", Z2), ("vect_Z2_theta1", Z2),
                       ("vect_Z3_theta2", Z3)]:
        cat = builtin_category(cname)
        assert hqft_space_rank("sphere_circle", cat) == 1
        assert hqft_space_rank("torus_2loop", cat) == 1
    assert hqft_space_rank("torus_2loop", builtin_category("vect_1_trivial")) == 1
    # derived golden values: rank of the double for the modular backends
    assert hqft_space_rank("torus_2loop", builtin_category("fibonacci")) == 4
    assert hqft_space_rank("torus_2loop", builtin_category("ising_like")) == 9


def test_rank_agreement_across_skeletons():
    for cname, grp in [("vect_Z2_theta1", Z2), ("fibonacci", TRIV)]:
        cat = builtin_category(cname)
        for coarse, fine in [("sphere_circle", "sphere_fine"),
                             ("torus_2loop", "torus_fine")]:
            r0 = hqft_space_rank(coarse, cat)
            r1 = hqft_space_rank(fine, cat)
            assert r0 == r1, (cname, coarse)


def test_transitivity_and_gluing():
    for cname, grp in [("vect_Z2_theta1", Z2), ("fibonacci", TRIV)]:
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
            p0 = cylinder_projector(A0, cat).matrix
            p1 = cylinder_projector(A1, cat).matrix
            assert matrix_mul(m_dn, m_up, cat.field) == p0
            assert matrix_mul(m_up, m_dn, cat.field) == p1
            # the gluing law on the same skeleton is idempotence, checked in
            # cylinder_projector; also check p1 . up == up . p0 (functoriality)
            assert matrix_mul(p1, m_up, cat.field) == matrix_mul(m_up, p0, cat.field)


@pytest.mark.parametrize("cname, mname", [
    ("vect_Z3_theta1", "l31"),
    ("fibonacci", "s3_2tet"),
    ("ising_like", "s3_2tet"),
])
def test_relative_invariant_closed_case(cname, mname):
    sk = dual_skeleton(load_tri(mname))
    cat = builtin_category(cname)
    for rep, _ in gauge_classes(sk, cat.group):
        cob = cobordism_from_closed(sk, rep, cat.group)
        rel = relative_invariant(cob, cat, {}, {})
        assert rel[()] == closed_invariant(sk, rep, cat).value
        mat, *_ = assemble_block_matrix(cob, cat)
        assert mat == [[closed_invariant(sk, rep, cat).value]]


def test_sphere_cylinder_blocks():
    cat = builtin_category("vect_Z3_theta1")
    surf = builtin_surface("sphere_circle", Z3, labels={0: 1})
    cob = build_product_cylinder(surf)
    # boundary colorings are the grade-1 simples; equal colors give a
    # nonzero 1x1 block
    c = surf.colorings(cat)[0]
    rel = relative_invariant(cob, cat, c, c)
    assert rel and not list(rel.values())[0].is_zero()
    # a mismatched-grade pinned coloring is rejected as a zero block
    other = (cat.sector(2)[0],)
    assert relative_invariant(cob, cat, c, other) is None


def test_torus_cylinder_grading_diagonal():
    cat = builtin_category("vect_Z2_theta0")
    surf = builtin_surface("torus_2loop", Z2, labels={0: 1, 1: 0})
    cob = build_product_cylinder(surf)
    cols = surf.colorings(cat)
    assert len(cols) == 1  # pointed: one simple per grade
    matrix, *_ = assemble_block_matrix(cob, cat)
    assert matrix == cylinder_projector(surf, cat).matrix


def test_genus2_rank_agrees_across_skeletons():
    # the shipped genus-2 skeleton gives 25 (test_cli); so must its
    # refinement by a degree-2 vertex on edge 0
    cat = builtin_category("fibonacci")
    surf = parse_surface((DATA / "surfaces" / "genus2_k33.surf").read_text(), cat.group)
    assert cylinder_projector(subdivide_edge(surf, 0), cat).rank == 25


def test_nonabelian_labels_meet_the_south_type_product_condition():
    # a block is indexed by the tree bases of the south-type sets, so the
    # product condition is their grade condition: outgoing labels and
    # inverted incoming ones, in dart order.  The first labeling below meets
    # it only with the factors inverted in place (incoming labels, inverted
    # outgoing ones), which for S3 is another condition; each of its blocks
    # would have dimension 0.
    s3 = FiniteGroup.symmetric(3)
    cat = build_vec_g_theta(s3, CocycleTable.trivial(s3))
    base = parse_surface((DATA / "surfaces" / "genus2_k33.surf").read_text(), s3)

    def labeled(labels):
        return SurfaceSkeleton(s3, base.edges, base.rotations, dict(enumerate(labels)),
                               base.components)

    with pytest.raises(ValueError, match="product condition at vertex 4"):
        labeled((0, 1, 1, 0, 2, 2, 0, 3, 4))
    # an untwisted pointed category: one coloring, one tree per vertex, and
    # the state space of a flat G-bundle is a line
    surf = labeled((0, 3, 4, 0, 2, 2, 0, 1, 1))
    for s in (surf, subdivide_edge(surf, 0)):
        space = cylinder_projector(s, cat)
        assert (space.block_dims, space.rank) == ([1], 1), s.name


@pytest.mark.parametrize("cname", ["fibonacci", "ising_like", "vect_Z2_theta1"])
def test_block_assembly_matches_per_pair_reference(cname):
    # the assembly builds each boundary coloring's data once and writes the
    # nonzero entries of each pair straight into the matrix; the reference
    # builds and normalizes a dense block for every pair
    cat = builtin_category(cname)
    cylinders = []
    for coarse, fine in [("sphere_circle", "sphere_fine"), ("torus_2loop", "torus_fine")]:
        a0, a1 = builtin_surface(coarse, cat.group), builtin_surface(fine, cat.group)
        parent = refinement_parent(fine)
        cylinders += [build_product_cylinder(a0), build_product_cylinder(a1),
                      build_sheet_cylinder(a0, a1, parent, ambient_is_top=True),
                      build_sheet_cylinder(a1, a0, parent, ambient_is_top=False)]
    nonzero = 0
    for cob in cylinders:
        got = assemble_block_matrix(cob, cat)
        assert got == refcobordism.assemble_block_matrix(cob, cat), cob.name
        nonzero += sum(not x.is_zero() for row in got[0] for x in row)
    assert nonzero


def test_boundary_ends_must_read_their_surface():
    # each end's link cyclic set must be its surface vertex's south-type set
    # (bottom) or its dual (top), anchored alike: the block of a coloring
    # pair is written at the offsets of the surfaces' colorings.  Here one
    # side's vertex lists the same rotation from another dart, which the
    # constructor rejects.
    cat = builtin_category("fibonacci")
    surf = builtin_surface("torus_2loop", cat.group)
    cob = build_product_cylinder(surf)
    rot = surf.rotations[0]
    turned = SurfaceSkeleton(cat.group, surf.edges, [rot[1:] + rot[:1]], surf.labels,
                             surf.components)
    for bot, top, what in [(turned, surf, "bottom vertex 0"), (surf, turned, "top vertex 0")]:
        with pytest.raises(ValueError, match=what):
            CobordismSkeleton(cob.group, cob.regions, cob.links, cob.edges, cob.bot_ends,
                              cob.top_ends, cob.ball_count, bot, top)
    # one end per surface vertex: a bottom surface with a second circle that
    # no end reads would give the matrix columns for colorings of that circle
    circle = builtin_surface("sphere_circle", cat.group)
    e = cat.group.identity
    two = SurfaceSkeleton(cat.group, [(0, 0), (1, 1)], [[(0, 0), (0, 1)], [(1, 0), (1, 1)]],
                          {0: e, 1: e}, [(0, 0), (0, 1)])
    cyl = build_product_cylinder(circle)
    with pytest.raises(ValueError, match="1 bot ends for 2 surface vertices"):
        CobordismSkeleton(cyl.group, cyl.regions, cyl.links, cyl.edges, cyl.bot_ends,
                          cyl.top_ends, cyl.ball_count, two, circle)


_SURFACE_FILES = sorted((DATA / "surfaces").iterdir())


@pytest.mark.parametrize("path", _SURFACE_FILES, ids=lambda p: p.stem)
def test_surface_file_roundtrip(path):
    # a file without a group line reads for any group; saving writes one
    text = path.read_text()
    saved = save_surface(parse_surface(text, Z2)).splitlines(keepends=True)
    if "\ngroup " not in text:
        saved.remove("group Z2\n")
    assert "".join(saved) == text


def _cylinders():
    """Product cylinders of the shipped surfaces and the sheet cylinders of
    their shipped refinements, both ways."""
    surf = {p.stem.removesuffix("_Z2"): parse_surface(p.read_text(), Z2) for p in _SURFACE_FILES}
    out = {f"product-{name}": build_product_cylinder(s) for name, s in surf.items()}
    for coarse, fine in [("sphere_circle", "sphere_fine"), ("torus_2loop", "torus_fine")]:
        parent = refinement_parent(fine)
        out[f"up-{fine}"] = build_sheet_cylinder(surf[coarse], surf[fine], parent, True)
        out[f"down-{fine}"] = build_sheet_cylinder(surf[fine], surf[coarse], parent, False)
    return out


_CYLINDERS = _cylinders()

# sha256 of save_cobordism for each _CYLINDERS entry, as the builder wrote
# it with one block of code per pole
_CYLINDER_DIGESTS = {
    "down-sphere_fine": "060e7c6621fab581f1ca18670f523d5c02346c5eaae0112270322bfff55858a2",
    "down-torus_fine": "c316512488afe8e65a2a5e862e88abf7b356327ba5c07afd3f3831fc15dc9ac7",
    "product-genus2_k33": "6a51dd9e5efd5844830ec4608fbca6bce491e3e3373120de452502ef0100a480",
    "product-sphere_circle": "ec6fc754afd615360f5aa2e25144dfd4078c485cc3d44fb3afa52264a15f83fb",
    "product-sphere_fine": "6f831c7c13f324ebfb083467f69caf82024c38bd16a134a774f108b94b5e58fd",
    "product-torus_2loop": "f987995b2c8f7f6beb36eab24a42fd50f8f5dc62566b79a65bef57be5cc245eb",
    "product-torus_fine": "7e70f5e7a37bdb3a75de4b5da55019290850f4a5b8d30ed109bcc645d35d4899",
    "up-sphere_fine": "432383ddb3518b7bfd923a4195d9fecd2c67a2c1eb06f6f617fbcf148c0051fd",
    "up-torus_fine": "4e6f8d2d0431df3e40833c0eb23199596b48c0ae3afb2d15327b0281ccaa1c75",
}


@pytest.mark.parametrize("name", sorted(_CYLINDERS))
def test_cobordism_file_roundtrip(name):
    text = save_cobordism(_CYLINDERS[name])
    assert save_cobordism(parse_cobordism(text, Z2)) == text


def test_cylinders_are_pinned():
    assert set(_CYLINDERS) == set(_CYLINDER_DIGESTS)
    for name, digest in _CYLINDER_DIGESTS.items():
        text = save_cobordism(_CYLINDERS[name])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_file_roundtrips():
    surf = builtin_surface("torus_fine", Z2)
    text = save_surface(surf)
    back = parse_surface(text, Z2)
    assert back.edges == surf.edges and back.labels == surf.labels
    cob = build_product_cylinder(builtin_surface("sphere_circle", Z2))
    text = save_cobordism(cob)
    back = parse_cobordism(text, Z2)
    assert back.regions == cob.regions
    assert back.edges == cob.edges
    cat = builtin_category("vect_Z2_theta1")
    m1, *_ = assemble_block_matrix(cob, cat)
    m2, *_ = assemble_block_matrix(back, cat)
    assert m1 == m2
