import random
import time
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import pytest

from statesum3d import graphcalc
from statesum3d.catdata import (
    GFusionData,
    builtin_category,
    builtin_category_names,
    load_category,
)
from statesum3d.exactnum import QQ, FieldElement, make_field
from statesum3d.graphcalc import (
    ColoredGraph,
    CyclicCSet,
    InternalError,
    MultiplicityBasis,
    PairingData,
    VertexTensorSlot,
    _bend_scalar,
    _box,
    _canonical_graph,
    _canonical_rotation_system,
    _cap,
    _composed,
    _mapped,
    _rebase_rows,
    _reversal_scalar,
    _slot_map,
    _sweep,
    _sweep_plan,
    evaluate_graph,
    hom_dim,
    parse_graph,
    rotation_matrix,
    save_graph,
    trace_rotation_faces,
    tree_paths,
)
from statesum3d.linalg import identity_matrix, matrix_inverse, matrix_mul

import refrotation
import refsweep
from refsweep import HomState
from graphutil import color_graph, cycle_graph, grow_random_planar, random_admissible_graph

ROOT = Path(__file__).resolve().parents[1]

BACKENDS = ["vect_Z2_theta1", "vect_Z3_theta1", "fibonacci", "ising_like"]

DATA = ROOT / "src" / "statesum3d" / "data"
SHIPPED = sorted(path.stem for path in (DATA / "categories").glob("*.cat"))


def _cat(name):
    return builtin_category(name)


def test_hom_dim_examples():
    fib = builtin_category("fibonacci")
    for cat in (fib, _cat("vect_Z4_theta2")):
        for i in range(cat.n):
            assert hom_dim(cat, [(i, 1), (cat.dual[i], 1)]) == 1
    # pointed categories: 1 iff the signed grade product is the identity
    cat = _cat("vect_Z4_theta1")
    rnd = random.Random(0)
    g = cat.group
    for _ in range(40):
        seq = [(rnd.randrange(cat.n), rnd.choice([1, -1])) for _ in range(4)]
        prod_g = g.identity
        for c, s in seq:
            prod_g = g.mul(prod_g, cat.grade[c] if s > 0 else g.inv(cat.grade[c]))
        assert hom_dim(cat, seq) == (1 if prod_g == g.identity else 0)
    assert hom_dim(fib, [(1, 1), (1, 1), (1, 1)]) == 1
    with pytest.raises(ValueError):
        hom_dim(fib, [(7, 1)])


def _fold_hom_dim(data, seq):
    """Rank of Hom(1, X1^e1 (x) ... (x) Xn^en) by folding the fusion
    multiplicities, independent of the tree enumeration."""
    counts = {data.unit: 1}
    for c, s in seq:
        obj = c if s > 0 else data.dual[c]
        nxt = {}
        for m, mult in counts.items():
            for m2 in data.fuse(m, obj):
                nxt[m2] = nxt.get(m2, 0) + mult
        counts = nxt
    return counts.get(data.unit, 0)


@pytest.mark.parametrize("name", SHIPPED)
def test_hom_dim_counts_the_trees_as_the_fusion_fold(name):
    cat = _cat(name)
    rnd = random.Random(f"hom-dim/{name}")
    words = [()] + [tuple((rnd.randrange(cat.n), rnd.choice([1, -1]))
                          for _ in range(rnd.randrange(1, 7))) for _ in range(60)]
    for word in words:
        assert hom_dim(cat, word) == _fold_hom_dim(cat, word), word
        assert hom_dim(cat, iter(word)) == _fold_hom_dim(cat, word), word
    assert hom_dim(cat, []) == 1
    for c in (-1, cat.n):
        with pytest.raises(ValueError, match="unknown simple index"):
            hom_dim(cat, ((0, 1), (c, 1)))


def test_rotation_identity_and_pointed_scalar():
    rnd = random.Random(11)
    for name in BACKENDS:
        cat = _cat(name)
        for _ in range(12):
            n = rnd.randrange(2, 7)
            cs = CyclicCSet([(rnd.randrange(cat.n), rnd.choice([1, -1]))
                             for _ in range(n)])
            basis = MultiplicityBasis(cat, cs)
            if basis.dim() == 0:
                continue
            assert rotation_matrix(cat, basis, 0) == identity_matrix(basis.dim(), cat.field)
            assert rotation_matrix(cat, basis, n) == identity_matrix(basis.dim(), cat.field)
    # pointed: one-step rotation is a 1x1 root of unity
    cat = _cat("vect_Z4_theta3")
    cs = CyclicCSet([(1, 1), (1, 1), (2, -1)])
    basis = MultiplicityBasis(cat, cs)
    assert basis.dim() == 1
    mat = rotation_matrix(cat, basis, 1)
    val = mat[0][0]
    order = None
    acc = val
    for k in range(1, 9):
        if acc.is_one():
            order = k
            break
        acc = acc * val
    assert order is not None


def test_rotation_matrix_and_trees_are_fresh_per_call():
    cat = builtin_category("fibonacci")
    basis = MultiplicityBasis(cat, CyclicCSet([(1, 1)] * 4), 1)
    mat = rotation_matrix(cat, basis, 1)
    expected = [row[:] for row in mat]
    mat[0][0] = mat[0][0] + cat.field.one()
    mat.append([])
    assert rotation_matrix(cat, basis, 1) == expected
    trees = list(basis.trees)
    basis.trees.append((0, 0, 0, 0))
    assert MultiplicityBasis(cat, CyclicCSet([(1, 1)] * 4), 1).trees == trees


def test_rotation_matrix_matches_round_trip():
    # seeded random cyclic sets of 1-7 items on every built-in category, at
    # every anchor and step count, against the cup / insert / cap round trip
    rnd = random.Random("rotation/round-trip")
    for name in builtin_category_names():
        cat = builtin_category(name)
        nonzero = 0
        while nonzero < 10:
            n = rnd.randrange(1, 8)
            cs = CyclicCSet([(rnd.randrange(cat.n), rnd.choice([1, -1]))
                             for _ in range(n)])
            for anchor in range(n):
                basis = MultiplicityBasis(cat, cs, anchor)
                for steps in range(n + 1):
                    assert rotation_matrix(cat, basis, steps) == \
                        refrotation.rotation_matrix(cat, basis, steps), (name, cs, anchor, steps)
            nonzero += MultiplicityBasis(cat, cs).dim() > 0


def test_rebasing_rows_match_round_trip():
    # the re-basing slot maps that evaluate_graph applies through _mapped,
    # read off unit tensors, against the rows of the cup / insert / cap
    # round trip, on seeded random admissible cyclic sets of 2-5 items at
    # every anchor and step count
    rnd = random.Random("rebase/round-trip")
    for name in ("fibonacci", "ising_like", "vect_Z3_theta1", "vect_Z4_theta1"):
        cat = builtin_category(name)
        one = cat.field.one()
        for n in range(2, 6):
            found = 0
            while found < 6:
                items = tuple((rnd.randrange(cat.n), rnd.choice([1, -1])) for _ in range(n))
                if hom_dim(cat, items) == 0:
                    continue
                found += 1
                for anchor in range(n):
                    basis = MultiplicityBasis(cat, CyclicCSet(items), anchor)
                    for steps in range(n):
                        ref = refrotation.rotation_matrix(cat, basis, steps)
                        for t, row in enumerate(ref):
                            want = {(s,): x for s, x in enumerate(row) if not x.is_zero()}
                            slot = _slot_map(cat, items[anchor:] + items[:anchor], steps, False)
                            got = _mapped({(t,): one}, [0], [slot], one)
                            assert got == want, (name, items, anchor, steps, t)


def test_rotation_matrix_matches_round_trip_on_graph_pool():
    # every vertex cyclic set of the benchmark's graph pool (read only), at
    # every anchor and step count; the reference for k steps is the product
    # of k reference one-step matrices, since the round trip is linear
    pool = sorted((ROOT / "perfbench" / "graphs").glob("*.graph"))
    assert pool
    csets = {}
    for path in pool:
        graph = parse_graph(path.read_text())
        for v in range(graph.nvertices):
            cs = graph.vertex_cset(v)
            csets[cs.items] = cs
    for name in ("fibonacci", "ising_like"):
        cat = builtin_category(name)
        for cs in csets.values():
            n = len(cs)
            one_step = [refrotation.rotation_matrix(cat, MultiplicityBasis(cat, cs, a), 1)
                        for a in range(n)]
            for anchor in range(n):
                basis = MultiplicityBasis(cat, cs, anchor)
                expected = identity_matrix(basis.dim(), cat.field)
                for steps in range(n + 1):
                    assert rotation_matrix(cat, basis, steps) == expected, \
                        (name, cs, anchor, steps)
                    expected = matrix_mul(one_step[(anchor + steps) % n], expected, cat.field)


def test_rotation_cost_does_not_grow_with_steps():
    # F-entry reads of one block bend per tree, on the graph pool's largest
    # vertex cyclic set with a fresh fibonacci for each step count; k
    # one-step bends read 4.4 times as many at k = 5 as at k = 1
    graphs = [parse_graph(path.read_text())
              for path in sorted((ROOT / "perfbench" / "graphs").glob("*.graph"))]
    fib = builtin_category("fibonacci")
    largest = max((g.vertex_cset(v) for g in graphs for v in range(g.nvertices)),
                  key=lambda cs: (len(cs), MultiplicityBasis(fib, cs).dim()))
    assert (len(largest), MultiplicityBasis(fib, largest).dim()) == (10, 13)
    items = largest.items
    reads = []
    for k in range(1, len(items)):
        cat = builtin_category("fibonacci")
        calls = []
        f_entry, finv_entry = cat.f_entry, cat.finv_entry
        cat.f_entry = lambda *args: calls.append(args) or f_entry(*args)
        cat.finv_entry = lambda *args: calls.append(args) or finv_entry(*args)
        _rebase_rows(cat, items, k)
        reads.append(len(calls))
    assert max(reads) <= 1.25 * reads[0], reads


def test_bend_scalar_matches_two_letter_round_trip():
    # lambda(c, s) of the closed form against the round trip on the one tree
    # of the word (x, x*), for every colour and sign, on every shipped
    # category; one step of the reversed word divides
    for cat in map(builtin_category, builtin_category_names()):
        for c in range(cat.n):
            for s in (1, -1):
                x = c if s > 0 else cat.dual[c]
                xd = cat.dual[x]
                items = ((c, s), (c, -s))
                if s > 0:
                    duality = cat.rcoev_scalar(c) * cat.lev_scalar(c)
                else:
                    duality = cat.lcoev_scalar(c) * cat.rev_scalar(c)
                lam = duality * cat.f_entry(xd, x, xd, xd, cat.unit, cat.unit)
                rotated, st = refrotation.rotate_state_once(
                    cat, items, HomState.basis_tree(cat, (x, xd), (x, cat.unit)))
                assert rotated == items[::-1]
                assert st.word == (xd, x) and st.paths == {(xd, cat.unit): lam}, (cat, c, s)
                assert _rebase_rows(cat, items, 1) == (((0, lam),),)
                assert _rebase_rows(cat, items[::-1], 1) == (((0, lam.inv()),),)


def test_bend_scalar_of_a_dual_colour_is_that_of_the_dual_label():
    # lambda(c, -1) = lambda(c*, +1) on every simple of every shipped
    # category: the block bend reads one lambda per channel, also at k = 1
    for cat in map(builtin_category, builtin_category_names()):
        for c in range(cat.n):
            x = cat.dual[c]
            minus = cat.lcoev_scalar(c) * cat.rev_scalar(c) * cat.f_entry(
                c, x, c, c, cat.unit, cat.unit)
            assert _bend_scalar(cat, x) == minus, (cat, c)


def test_categories_do_not_share_memoized_data():
    # the same uncoloured graph under two categories in turn, each category
    # evaluating it twice, against evaluations on freshly built categories
    theta = ColoredGraph(2, [(0, 1, 1), (0, 1, 1), (0, 1, 1)],
                         [[(0, 0), (1, 0), (2, 0)], [(2, 1), (1, 1), (0, 1)]])
    slot_sets = [None] + [[VertexTensorSlot(0, a), VertexTensorSlot(1, b)]
                          for a in range(3) for b in range(3)]
    names = ["fibonacci", "vect_Z3_theta1"]
    cats = {name: builtin_category(name) for name in names}
    for _ in range(2):
        for name in names:
            for slots in slot_sets:
                got = evaluate_graph(cats[name], theta, slots=slots)
                fresh = evaluate_graph(builtin_category(name), theta, slots=slots)
                assert got == fresh and got.entries == fresh.entries, (name, slots)
    assert all(cat._memo for cat in cats.values())


def test_evaluate_graph_stores_no_sweep_plan():
    # the plan of a graph is built at each evaluation; the category memo
    # keeps only the tree bases, transfer tables and slot maps it reads
    cat = builtin_category("fibonacci")
    graph = random_admissible_graph(random.Random("no-plan-memo"), cat)
    for face in range(len(graph.faces)):
        evaluate_graph(cat, graph, outer_face=face)
    assert cat._memo and {key[0] for key in cat._memo} <= {"trees", "box", "cap", "slot"}


def test_broken_invariant_is_an_internal_error():
    assert not issubclass(InternalError, (ValueError, AssertionError))
    fib = builtin_category("fibonacci")
    st = HomState.basis_tree(fib, (1, 1), (1, 0))
    with pytest.raises(InternalError):
        st.scalar()
    with pytest.raises(InternalError):
        st.delete_unit(0)
    with pytest.raises(InternalError):
        HomState.empty(fib).insert_tree(0, (0, 1), (1, 0))


def test_rotation_outside_the_target_basis_is_an_internal_error(monkeypatch):
    # a block bend that reaches a tree the rotated word's basis lacks
    fib = builtin_category("fibonacci")
    trees = graphcalc._trees
    monkeypatch.setattr(graphcalc, "_trees",
                        lambda data, word: () if word == (0, 1, 1) else trees(data, word))
    with pytest.raises(InternalError, match="reaches no tree"):
        _rebase_rows(fib, ((1, 1), (0, 1), (1, 1)), 1)


def test_sweep_checks_raise_per_action(monkeypatch):
    # the table-driven sweep keeps the per-entry sweep's checks, also on an
    # empty state: a tree off its first letter, an inadmissible split (both
    # from a basis that offers the tree (1, 0) for a word it does not fit),
    # cap letters that do not match
    fib = builtin_category("fibonacci")
    trees = graphcalc._trees
    monkeypatch.setattr(graphcalc, "_trees", lambda data, word:
                        ((1, 0),) if word in ((0, 1), (1, 0)) else trees(data, word))
    one = {((), ()): fib.field.one()}
    with pytest.raises(InternalError, match="does not start at letter"):
        _box(fib, one, 0, (0, 1))
    with pytest.raises(ValueError, match="inadmissible split"):
        _box(fib, {}, 0, (1, 0))
    with pytest.raises(InternalError, match="meets letters"):
        _cap(fib, {}, (1, 0), 0, 1, "l")
    states = _box(fib, one, 0, (1, 1))
    assert states == {((1, 0), (0,)): fib.field.one()}
    assert _cap(fib, states, (1, 1), 0, 1, "r") == {((), (0,)): fib.rev_scalar(1)}


def test_cap_drops_a_key_whose_terms_cancel():
    # two paths close to one key: where their terms cancel the key is
    # dropped, where they do not it is kept, as is a key with one term
    fib = builtin_category("fibonacci")
    word, one = (1, 1, 1, 1), fib.field.one()

    def cap(states):
        return _cap(fib, states, word, 1, 1, "r")

    c0 = cap({((1, 0, 1, 0), ()): one})[((1, 0), ())]
    c1 = cap({((1, 1, 1, 0), ()): one})[((1, 0), ())]
    states = {((1, 0, 1, 0), (0,)): one, ((1, 1, 1, 0), (0,)): -c0 / c1,
              ((1, 0, 1, 0), (1,)): one, ((1, 1, 1, 0), (1,)): one,
              ((1, 1, 1, 0), (2,)): one}
    assert not (c0 + c1).is_zero()
    assert cap(states) == {((1, 0), (1,)): c0 + c1, ((1, 0), (2,)): c1}


def test_mapped_drops_a_key_whose_terms_cancel():
    # index 0 and 1 meet on 0, where they cancel, and index 1 and 2 on 1,
    # where they do not; index 2 alone reaches 2
    one = QQ.one()
    slot = (((0, one),), ((0, -one), (1, one)), ((1, one), (2, one)))
    raw = {(0,): one, (1,): one, (2,): one}
    assert _mapped(raw, [0], [slot], one) == {(1,): one + one, (2,): one}


def _random_slot_map(rnd, field, dim, kind):
    """Rows over ``range(dim)`` of one of three kinds: one pair each
    ('monomial'), up to dim pairs each ('sparse'), or None, the
    identity."""
    if kind is None:
        return None
    rows = []
    for _ in range(dim):
        targets = rnd.sample(range(dim), 1 if kind == "monomial" else rnd.randrange(dim + 1))
        rows.append(tuple((t, _nonzero(rnd, field)) for t in sorted(targets)))
    return tuple(rows)


def _nonzero(rnd, field):
    return field.rational(Fraction(rnd.choice([-3, -2, -1, 1, 2, 3]), rnd.randrange(1, 4)))


def test_one_pass_composition_matches_the_per_slot_passes(monkeypatch):
    # random sparse tensors of one or several entries through random slot
    # maps whose rows are one pair, sparse, or the identity: the composition
    # equals the per-slot passes scaled by the factors' product, and takes
    # the one pass exactly when the tensor has one entry and every row it
    # reads is one pair (or an identity)
    calls = []
    monkeypatch.setattr(graphcalc, "_mapped", lambda *args: calls.append(1) or _mapped(*args))
    rnd = random.Random("composed/one-pass")
    cat = builtin_category("fibonacci")  # only its field is read
    field, one = cat.field, cat.field.one()
    paths = {True: 0, False: 0}
    for _ in range(400):
        n = rnd.randrange(1, 5)
        dims = [rnd.randrange(1, 4) for _ in range(n)]
        kinds = [None, "monomial", "monomial", "sparse"]
        maps = [_random_slot_map(rnd, field, d, rnd.choice(kinds)) for d in dims]
        positions = rnd.sample(range(n), n)
        raw = {}
        for _ in range(rnd.choice([1, 1, 2, 3])):
            key = [None] * n
            for v, p in enumerate(positions):
                key[p] = rnd.randrange(dims[v])
            raw[tuple(key)] = _nonzero(rnd, field)
        factors = [_nonzero(rnd, field) for _ in range(rnd.randrange(3))]
        factors = [x for x in factors if not x.is_one()]
        want = _mapped(raw, positions, maps, prod(factors, start=one))
        calls.clear()
        assert _composed(cat, raw, positions, maps, list(factors)) == want, (raw, maps)
        (key, _), = list(raw.items())[:1]
        one_pass = len(raw) == 1 and all(
            slot is None or len(slot[key[p]]) == 1 for slot, p in zip(maps, positions))
        assert len(calls) == (not one_pass)
        paths[one_pass] += 1
    assert min(paths.values()) >= 50, paths
    # two entries meet on index 0 and cancel there, so only the per-slot
    # passes can see it
    slot = (((0, one),), ((0, -one), (1, one)))
    assert _composed(cat, {(0,): one, (1,): one}, [0], [slot], []) == {(1,): one}


def _sweep_graphs(cat, rnd):
    """The benchmark's graph pool (read only), with its own colours where
    they are labels of ``cat`` and recoloured admissibly, and random sphere
    graphs."""
    out = []
    for path in sorted((ROOT / "perfbench" / "graphs").glob("*.graph")):
        graph = parse_graph(path.read_text())
        if all(c < cat.n for _, _, c in graph.edges):
            out.append(graph)
        colors = color_graph(rnd, cat, graph.nvertices, [e[:2] for e in graph.edges],
                             graph.rotations)
        if colors is not None:
            out.append(ColoredGraph(graph.nvertices,
                                    [(t, h, c) for (t, h, _), c in zip(graph.edges, colors)],
                                    graph.rotations))
    out += [random_admissible_graph(rnd, cat, max_vertices=5) for _ in range(4)]
    return out


def test_graph_file_roundtrip_reaches_a_fixed_point():
    # parsing re-sorts face corners, so a file written by hand need not come
    # back byte for byte; what the writer writes must
    rnd = random.Random("graph-file-roundtrip")
    cat = builtin_category("fibonacci")
    texts = [path.read_text() for path in sorted((ROOT / "perfbench" / "graphs").glob("*.graph"))]
    texts += [save_graph(random_admissible_graph(rnd, cat)) for _ in range(8)]
    for text in texts:
        once = save_graph(parse_graph(text))
        assert save_graph(parse_graph(once)) == once


@pytest.mark.parametrize("name", SHIPPED)
def test_table_sweep_matches_per_entry_sweep(name):
    # every shipped category, every outer face, slot anchors 0 and random
    # ones: the transfer-table sweep and the per-vertex re-basing against the
    # per-entry HomState sweep and the dense re-basing loop
    cat = load_category((DATA / "categories" / f"{name}.cat").read_text())
    rnd = random.Random(f"table-sweep/{name}")
    nonzero = 0
    for graph in _sweep_graphs(cat, rnd):
        anchored = [VertexTensorSlot(v, rnd.randrange(len(rot)))
                    for v, rot in enumerate(graph.rotations)]
        for face in range(len(graph.faces)):
            for slots in (None, anchored):
                got = evaluate_graph(cat, graph, slots=slots, outer_face=face)
                want = refsweep.evaluate_graph(cat, graph, slots=slots, outer_face=face)
                assert got.dims() == want.dims(), (name, graph.edges, face)
                assert got.entries == want.entries, (name, graph.edges, face, slots)
                nonzero += bool(got.entries)
    assert nonzero


def _branch_patterns():
    """Signed branch lists ``(id, sign)`` of every edge of ``s1xs2_paper``,
    of every interior edge of the product cylinder over each shipped surface
    and of every boundary vertex of those surfaces."""
    from statesum3d.catdata import FiniteGroup
    from statesum3d.complexes import parse_skeleton
    from statesum3d.hqft import build_product_cylinder, parse_surface

    sk = parse_skeleton((DATA / "skeletons" / "s1xs2_paper.skel").read_text())
    patterns = {tuple(sk.edge_branches(eid)) for eid in range(len(sk.edges))}
    for path in sorted((DATA / "surfaces").glob("*.surf")):
        surf = parse_surface(path.read_text(), FiniteGroup.cyclic(2))
        cob = build_product_cylinder(surf)
        patterns |= {tuple(cob.links[v0].items_at(g0)) for (v0, g0), _ in cob.edges}
        patterns |= {tuple((e, -1 if end == 1 else 1) for e, end in rot)
                     for rot in surf.rotations}
    return sorted(patterns)


def _pairing_csets(cat, name):
    """Every colouring of every edge cyclic set of the shipped surfaces and
    of s1xs2_paper by the labels of ``cat``, and 40 random cyclic sets of
    lengths 1 to 6 with a nonzero multiplicity module, sorted."""
    csets = set()
    for pattern in _branch_patterns():
        ids = sorted({r for r, _ in pattern})
        for colors in product(range(cat.n), repeat=len(ids)):
            color = dict(zip(ids, colors))
            csets.add(tuple((color[r], s) for r, s in pattern))
    rnd = random.Random(f"pairing/{name}")
    drawn = 0
    while drawn < 40:
        items = tuple((rnd.randrange(cat.n), rnd.choice([1, -1]))
                      for _ in range(rnd.randint(1, 6)))
        if hom_dim(cat, items):
            csets.add(items)
            drawn += 1
    return sorted(csets)


@pytest.mark.parametrize("name", SHIPPED)
def test_pairing_gram_matches_per_entry_sweep(name):
    # the cyclic sets of _pairing_csets under each shipped category: the
    # closed-form Gram against the sweep of every entry, and its monomial
    # inverse against Gauss-Jordan elimination
    cat = load_category((DATA / "categories" / f"{name}.cat").read_text())
    nonzero = 0
    for items in _pairing_csets(cat, name):
        cs = CyclicCSet(items)
        pd = PairingData(cat, cs)
        assert pd.gram == refsweep.pairing_gram(cat, cs), (name, items)
        assert pd.gram_inverse() == matrix_inverse(pd.gram, cat.field), (name, items)
        nonzero += bool(pd.gram) and bool(pd.gram[0])
    assert nonzero


@pytest.mark.parametrize("name", SHIPPED)
def test_slot_maps_match_the_references(name):
    # the cyclic sets of _pairing_csets under each shipped category (all are
    # multiplicity-free), at every step count: the unpaired map against the
    # round-trip rotation; one entry per word, so the darts (c, +1) and
    # (c*, -1) read the same object; and the paired map against the inverse
    # of the per-entry sweep's Gram matrix of the reversed dual, read as one
    # (tree, value) pair per column, composed with those re-basing rows
    cat = load_category((DATA / "categories" / f"{name}.cat").read_text())
    zero, one = cat.field.zero(), cat.field.one()
    shared = 0
    for items in _pairing_csets(cat, name):
        cs = CyclicCSet(items)
        dim = MultiplicityBasis(cat, cs).dim()
        ginv = matrix_inverse(refsweep.pairing_gram(cat, cs.opp()), cat.field)
        pairs = [next((t, row[u]) for t, row in enumerate(ginv) if not row[u].is_zero())
                 for u in range(dim)]
        flipped = tuple((cat.dual[c], -s) for c, s in items)
        for steps in range(len(items)):
            ref = refrotation.rotation_matrix(cat, MultiplicityBasis(cat, cs), steps)
            rows = _slot_map(cat, items, steps, False)
            if rows is None:
                assert steps == 0
                rows = tuple(((s, one),) for s in range(dim))
            else:
                assert _slot_map(cat, flipped, steps, False) is rows, (name, items, steps)
                shared += dim > 0
            assert [[dict(row).get(s, zero) for s in range(dim)] for row in rows] == ref, \
                (name, items, steps)
            want = tuple(tuple((pairs[s][0], x * pairs[s][1]) for s, x in row) for row in rows)
            assert _slot_map(cat, items, steps, True) == want, (name, items, steps)
    assert shared


def test_vanishing_pairing_column_is_singular(monkeypatch):
    # with every cap coefficient zero each column vanishes, and the inverse
    # raises as Gauss-Jordan elimination does
    from statesum3d import graphcalc
    monkeypatch.setattr(graphcalc, "_cap_coeff", lambda *args: None)
    cat = builtin_category("vect_Z3_theta1")
    pd = PairingData(cat, CyclicCSet([(1, 1), (2, 1)]))
    assert pd.gram == [[cat.field.zero()]]
    with pytest.raises(ValueError, match="singular matrix"):
        matrix_inverse(pd.gram, cat.field)
    with pytest.raises(ValueError, match="singular matrix"):
        pd.gram_inverse()


def test_gram_examples():
    fib = builtin_category("fibonacci")
    # inadmissible set: 0x0 gram
    cs = CyclicCSet([(1, 1)])
    assert PairingData(fib, cs).gram == []
    # pointed: 1x1 invertible
    cat = _cat("vect_Z3_theta2")
    cs = CyclicCSet([(1, 1), (2, 1)])
    pd = PairingData(cat, cs)
    assert len(pd.gram) == 1 and not pd.gram[0][0].is_zero()
    pd.gram_inverse()


def test_circle_normalization():
    # clockwise unknot colored U with the single vertex on it; basis anchored
    # at the outgoing dart gives Hom(1, U* (x) U) and the value lev_U
    for name in BACKENDS:
        cat = _cat(name)
        for u in range(cat.n):
            g = ColoredGraph(1, [(0, 0, u)], [[(0, 0), (0, 1)]])
            t = evaluate_graph(cat, g)
            assert t.dims() == (1,)
            assert t.value((0,)) == cat.lev_scalar(u)
            # with the right coevaluation as input vector the value is dim_l:
            # rcoev = pivotal * basis tree, and lev_scalar * pivotal = dim_l
            assert t.value((0,)) * cat.rcoev_scalar(u) == cat.dim_l[u]


def test_theta_graph_matches_gram():
    for name in BACKENDS:
        cat = _cat(name)
        found = 0
        for colors in product(range(cat.n), repeat=3):
            edges = [(0, 1, colors[0]), (0, 1, colors[1]), (0, 1, colors[2])]
            rot_u = [(0, 0), (1, 0), (2, 0)]
            rot_w = [(2, 1), (1, 1), (0, 1)]
            g = ColoredGraph(2, edges, [rot_u, rot_w])
            cs = g.vertex_cset(0)
            if hom_dim(cat, cs.items) != 1:
                continue
            found += 1
            t = evaluate_graph(cat, g)
            pd = PairingData(cat, cs)
            assert g.vertex_cset(1).items == cs.opp().items
            assert t.value((0, 0)) == pd.gram[0][0]
            if found >= 4:
                break
        assert found


@pytest.mark.parametrize("name", BACKENDS)
def test_outer_face_independence(name):
    cat = _cat(name)
    rnd = random.Random(f"outer-face/{name}")
    checked = 0
    while checked < 20:
        g = random_admissible_graph(rnd, cat)
        base = evaluate_graph(cat, g, outer_face=0)
        for f in range(1, len(g.faces)):
            assert evaluate_graph(cat, g, outer_face=f) == base, (name, g.edges)
        checked += 1


@pytest.mark.parametrize("name", ["vect_Z2_theta1", "fibonacci"])
def test_disjoint_union_multiplicative(name):
    cat = _cat(name)
    rnd = random.Random(f"disjoint-union/{name}")
    for _ in range(6):
        g1 = random_admissible_graph(rnd, cat, max_vertices=3)
        g2 = random_admissible_graph(rnd, cat, max_vertices=3)
        n1, e1 = g1.nvertices, len(g1.edges)
        edges = list(g1.edges) + [(t + n1, h + n1, c) for (t, h, c) in g2.edges]
        rotations = [list(r) for r in g1.rotations] + \
            [[(e + e1, end) for (e, end) in r] for r in g2.rotations]
        faces1 = list(g1.faces)
        faces2 = [tuple((v + n1, i) for v, i in f) for f in g2.faces]
        merged = [tuple(faces1[0]) + faces2[0]] + faces1[1:] + faces2[1:]
        g = ColoredGraph(n1 + g2.nvertices, edges, rotations, faces=merged)
        t = evaluate_graph(cat, g)
        t1 = evaluate_graph(cat, g1)
        t2 = evaluate_graph(cat, g2)
        for idx, val in t.entries.items():
            assert val == t1.value(idx[:n1]) * t2.value(idx[n1:])
        for i1, v1 in t1.entries.items():
            for i2, v2 in t2.entries.items():
                assert t.value(i1 + i2) == v1 * v2


@pytest.mark.parametrize("name", BACKENDS)
def test_unit_edge_deletion(name):
    cat = _cat(name)
    rnd = random.Random(23 + len(name))
    done = 0
    while done < 8:
        g = random_admissible_graph(rnd, cat)
        candidates = [k for k, (t, h, c) in enumerate(g.edges)
                      if c == cat.unit and t != h
                      and len(g.rotations[t]) > 1 and len(g.rotations[h]) > 1]
        if not candidates:
            continue
        k = candidates[0]
        tail, head, _ = g.edges[k]
        # anchor both endpoint slots away from the deleted darts
        slots = []
        for v in range(g.nvertices):
            anchor = 0
            if v in (tail, head):
                anchor = next(i for i, d in enumerate(g.rotations[v]) if d[0] != k)
            slots.append(VertexTensorSlot(v, anchor))
        t_big = evaluate_graph(cat, g, slots=slots)

        edges2 = [e for i, e in enumerate(g.edges) if i != k]
        remap = {i: (i if i < k else i - 1) for i in range(len(g.edges)) if i != k}
        rotations2 = [[(remap[e], end) for (e, end) in rot if e != k]
                      for rot in g.rotations]
        g2 = ColoredGraph(g.nvertices, edges2, rotations2)
        slots2 = []
        for v in range(g.nvertices):
            old = slots[v].anchor
            deleted_before = sum(1 for i, d in enumerate(g.rotations[v])
                                 if d[0] == k and i < old)
            slots2.append(VertexTensorSlot(v, old - deleted_before))
        t_small = evaluate_graph(cat, g2, slots=slots2)

        # index bijection: drop the repeated intermediate at the unit letter
        def project(v, tree):
            rot = g.rotations[v]
            anchored = [rot[(slots[v].anchor + j) % len(rot)] for j in range(len(rot))]
            out = tuple(m for j, m in enumerate(tree) if anchored[j][0] != k)
            return out

        for idx, val in t_big.entries.items():
            small_idx = []
            for v in range(g.nvertices):
                tree = t_big.bases[v].trees[idx[v]]
                target = project(v, tree)
                small_idx.append(t_small.bases[v].trees.index(target))
            assert t_small.value(tuple(small_idx)) == val
        done += 1


@pytest.mark.parametrize("name", BACKENDS)
def test_edge_reversal_dualization(name):
    # replacing a color U by U* with reversed orientation rescales the
    # tensor by the pivotal coefficient of U (bases are literally shared)
    cat = _cat(name)
    rnd = random.Random(77 + len(name))
    for _ in range(6):
        g = random_admissible_graph(rnd, cat)
        k = rnd.randrange(len(g.edges))
        t0 = evaluate_graph(cat, g)
        tail, head, c = g.edges[k]
        edges2 = list(g.edges)
        edges2[k] = (head, tail, cat.dual[c])
        rotations2 = [[((e, 1 - end) if e == k else (e, end)) for (e, end) in rot]
                      for rot in g.rotations]
        g2 = ColoredGraph(g.nvertices, edges2, rotations2)
        t1 = evaluate_graph(cat, g2)
        factor = cat.pivotal[c]
        assert t1.dims() == t0.dims()
        for idx, val in t0.entries.items():
            assert t1.value(idx) == val * factor


def _skewed(cat):
    """``cat`` with ``dim_r``, hence rev, doubled off the unit, so that
    ``rev_c / lev_(c*)`` and ``lev_c / rev_(c*)`` differ (the data is no
    longer a pivotal category, but a sweep reads only its F-symbols and
    duality scalars)."""
    two = cat.field.one() + cat.field.one()
    dim_r = [d if c == cat.unit else d * two for c, d in enumerate(cat.dim_r)]
    return GFusionData(cat.field, cat.group, cat.names, cat.grade, cat.dual, cat.fusion_set,
                       cat.fsym, cat.dim_l, dim_r, cat.pivotal, name=f"skewed {cat.name}")


@pytest.mark.parametrize("name", ["vect_Z4_theta1", "fibonacci", "ising_like"])
def test_reversed_strand_changes_only_the_cap_scalar(name):
    # a graph and its copy with one strand reversed and its colour dualized
    # have one sweep layout, and every box and cap reads the same letters:
    # the raw entries differ by the reversal scalar of the cap that closes
    # the strand, lev or rev, whichever the layout takes
    cat = _skewed(_cat(name))
    rnd = random.Random(f"reversal/{name}")
    kinds = set()
    for _ in range(16):
        g = random_admissible_graph(rnd, cat)
        strands = [e for e, (_, _, c) in enumerate(g.edges) if c != cat.unit]
        if not strands:
            continue
        k = rnd.choice(strands)
        tail, head, c = g.edges[k]
        g2 = ColoredGraph(g.nvertices,
                          [(head, tail, cat.dual[c]) if e == k else edge
                           for e, edge in enumerate(g.edges)],
                          [[(e, 1 - end if e == k else end) for e, end in rot]
                           for rot in g.rotations])
        plan, plan2 = _sweep_plan(g, 0), _sweep_plan(g2, 0)
        kind = next(op[3] for op in plan[0] if op[0] == "cap" and op[2] == k)
        x = _reversal_scalar(cat, cat.dual[c], kind)
        assert x != _reversal_scalar(cat, cat.dual[c], "r" if kind == "l" else "l")
        raw = _sweep(cat, plan, [color for _, _, color in g.edges])
        raw2 = _sweep(cat, plan2, [color for _, _, color in g2.edges])
        assert raw2 == {key: val * x for key, val in raw.items()}, (name, g.edges, k)
        kinds.add(kind)
    assert kinds == {"l", "r"}


@pytest.mark.parametrize("name", SHIPPED)
def test_reversal_scalar_is_a_field_element_one_included(name):
    # rev_c / lev_(c*) for a lev cap and lev_c / rev_(c*) for a rev cap,
    # returned as a field element for every colour, also where it is one
    cat = _cat(name)
    ones = 0
    for c in range(cat.n):
        dual = cat.dual[c]
        want = {"l": cat.rev_scalar(c) / cat.lev_scalar(dual),
                "r": cat.lev_scalar(c) / cat.rev_scalar(dual)}
        for kind, x in want.items():
            got = _reversal_scalar(cat, c, kind)
            assert isinstance(got, FieldElement) and got == x, (name, c, kind)
            ones += x.is_one()
    assert ones  # the unit's scalars are one


def test_slot_anchor_change_is_rotation():
    cat = builtin_category("fibonacci")
    g = ColoredGraph(2, [(0, 1, 1), (0, 1, 1), (0, 1, 1)],
                     [[(0, 0), (1, 0), (2, 0)], [(2, 1), (1, 1), (0, 1)]])
    t0 = evaluate_graph(cat, g, slots=[VertexTensorSlot(0, 0), VertexTensorSlot(1, 0)])
    t1 = evaluate_graph(cat, g, slots=[VertexTensorSlot(0, 1), VertexTensorSlot(1, 0)])
    basis1 = MultiplicityBasis(cat, g.vertex_cset(0), 1)
    rot = rotation_matrix(cat, basis1, 2)  # anchored 1 -> anchored 0 (size 3)
    for s in range(basis1.dim()):
        lhs = t1.value((s, 0))
        rhs = cat.field.zero()
        for t in range(basis1.dim()):
            rhs = rhs + rot[t][s] * t0.value((t, 0))
        assert lhs == rhs


def test_embedding_certificate_errors():
    with pytest.raises(ValueError, match="sphere"):
        # torus rotation system: one vertex, two loops interleaved a b a b
        ColoredGraph(1, [(0, 0, 0), (0, 0, 0)],
                     [[(0, 0), (1, 0), (0, 1), (1, 1)]])
    with pytest.raises(ValueError, match="valence"):
        ColoredGraph(2, [(0, 0, 0)], [[(0, 0), (0, 1)], []])
    g = ColoredGraph(1, [(0, 0, 0)], [[(0, 0), (0, 1)]])
    with pytest.raises(ValueError, match="certificate"):
        ColoredGraph(1, [(0, 0, 0)], [[(0, 0), (0, 1)]],
                     faces=[((0, 0), (0, 1))])
    # a theta graph and a loop whose certificate merges two faces of the
    # theta and none of the loop: the Euler count holds, but no sphere
    # holds both components, and no sweep reaches the loop
    edges = [(0, 1, 0)] * 3 + [(2, 2, 0)]
    rotations = [[(0, 0), (1, 0), (2, 0)], [(2, 1), (1, 1), (0, 1)], [(3, 0), (3, 1)]]
    t0, t1, t2, l0, l1 = trace_rotation_faces(rotations)[0]
    ColoredGraph(3, edges, rotations, faces=[t0 + l0, t1, t2, l1])
    with pytest.raises(ValueError, match="certificate"):
        ColoredGraph(3, edges, rotations, faces=[t0 + t1, t2, l0, l1])


def _in_canonical_numbering(rotations, form):
    """The darts of ``rotations`` renamed as ``form`` numbers them: edge j
    directed from the tail dart ``form[3][j]``."""
    _, order, starts, tails = form
    number = {e: (j, tail_end) for j, (e, tail_end) in enumerate(tails)}
    return [[(number[e][0], end ^ number[e][1])
             for e, end in rotations[v][starts[v]:] + rotations[v][:starts[v]]]
            for v in order]


def test_canonical_form_is_invariant_under_relabeling():
    # renumbering vertices and edges, reversing edges and re-anchoring every
    # rotation list keeps the code, and both forms map their graph onto the
    # same canonically numbered rotation system, which is the one the code
    # builds
    rnd = random.Random("canonical-form")
    for _ in range(80):
        nv, edges, rotations = grow_random_planar(rnd)
        vperm = rnd.sample(range(nv), nv)
        eperm = rnd.sample(range(len(edges)), len(edges))
        flip = [rnd.randrange(2) for _ in edges]
        relabeled = [None] * nv
        for v, rot in enumerate(rotations):
            rot = [(eperm[e], end ^ flip[e]) for e, end in rot]
            shift = rnd.randrange(len(rot))
            relabeled[vperm[v]] = rot[shift:] + rot[:shift]
        form = _canonical_rotation_system(rotations)
        form2 = _canonical_rotation_system(relabeled)
        assert form2[0] == form[0]
        assert sorted(form[1]) == list(range(nv))
        assert sorted(e for e, _ in form[3]) == list(range(len(edges)))
        numbered = _in_canonical_numbering(rotations, form)
        assert numbered == _in_canonical_numbering(relabeled, form2)
        assert numbered == [list(rot) for rot in _canonical_graph(form[0]).rotations]


def _sweep_rotation_systems():
    """The link rotation systems of the shipped and two grown dual
    skeletons, of s1xs2_paper and of the product cylinders over the four
    shipped Z2 surfaces."""
    from statesum3d.catdata import FiniteGroup
    from statesum3d.complexes import dual_skeleton, pachner
    from statesum3d.hqft import build_product_cylinder, builtin_surface
    from trifiles import load_skeleton, load_tri, shipped_names

    skeletons = [dual_skeleton(load_tri(name)) for name in shipped_names()]
    skeletons.append(load_skeleton("s1xs2_paper"))
    for name, moves in [("s3_2tet", 3), ("t3_6tet", 2)]:
        rnd = random.Random(f"grown/{name}/{moves}")
        tri = load_tri(name)
        for _ in range(moves):
            tri = pachner(tri, "1-4", rnd.randrange(tri.ntets))
        skeletons.append(dual_skeleton(tri))
    for name in ["sphere_circle", "sphere_fine", "torus_2loop", "torus_fine"]:
        skeletons.append(build_product_cylinder(builtin_surface(name, FiniteGroup.cyclic(2))))
    return sorted({tuple(map(tuple, lk.rotations)) for sk in skeletons for lk in sk.links})


def test_canonical_form_matches_full_walk():
    # abandoning a root once its code exceeds the least one changes nothing
    rnd = random.Random("canonical-walk")
    systems = _sweep_rotation_systems()
    systems += [grow_random_planar(rnd)[2] for _ in range(60)]
    for rotations in systems:
        assert _canonical_rotation_system(rotations) == \
            refsweep.canonical_rotation_system(rotations), rotations


def test_canonical_walk_skips_only_roots_of_walked_codes(monkeypatch):
    # a root is skipped only when it lies in the automorphism orbit of a
    # walked root, so its code is a walked root's code; every dart of the
    # tetrahedral links of s3_2tet is a least root (their rotation group is
    # transitive on the 12 darts), and the automorphisms found from the
    # first ties leave fewer than 12 roots to walk
    from statesum3d.complexes import dual_skeleton
    from trifiles import load_tri

    walked = []
    root_walk = graphcalc._root_walk

    def recorded(other, v0, i0, least):
        walked.append((other, v0, i0))
        return root_walk(other, v0, i0, least)

    monkeypatch.setattr(graphcalc, "_root_walk", recorded)
    rnd = random.Random("canonical-walk/orbits")
    tetrahedral = [tuple(map(tuple, lk.rotations))
                   for lk in dual_skeleton(load_tri("s3_2tet")).links]
    systems = tetrahedral + _sweep_rotation_systems()
    systems += [grow_random_planar(rnd)[2] for _ in range(60)]
    # an n-cycle with a pendant edge at each vertex: its automorphisms
    # rotate the cycle, with four dart orbits; each rotation list starts
    # at a random dart, so an automorphism must match darts by position
    # after each walk's start
    for n in range(3, 7):
        for _ in range(4):
            rotations = [[(k, 0), ((k - 1) % n, 1), (n + k, 0)] for k in range(n)]
            rotations += [[(n + k, 1)] for k in range(n)]
            for rot in rotations:
                shift = rnd.randrange(len(rot))
                rot[:] = rot[shift:] + rot[:shift]
            systems.append(rotations)
    skipped = 0
    for rotations in systems:
        walked.clear()
        _canonical_rotation_system(rotations)
        other = walked[0][0]
        codes = {root_walk(other, v0, i0, None)[0] for _, v0, i0 in walked}
        roots = {(v, i) for v, rot in enumerate(rotations) for i in range(len(rot))}
        for v0, i0 in roots - {(v0, i0) for _, v0, i0 in walked}:
            assert root_walk(other, v0, i0, None)[0] in codes, (rotations, v0, i0)
            skipped += 1
        if rotations in tetrahedral:
            assert len(roots) == 12 and len(walked) < 12, len(walked)
    assert skipped


def _checked_width(graph, plan, outer_face):
    """The largest strand count of ``plan`` (``_sweep_plan``) from
    ``outer_face``, after checking that each box starts after a corner on
    the face of its gap, that each cap closes two adjacent darts of one edge
    with the face right of the left one between them and one face outside
    them, and that the plan boxes every vertex once, at its offset and
    choice position, and closes every strand."""
    ops, offsets, positions = plan
    strands, gaps, order, width = [], [outer_face], [], 0
    for op in ops:
        if op[0] == "box":
            _, p, darts = op
            v, r = graph.dart_pos[darts[0]]
            rot = graph.rotations[v]
            assert v not in order and offsets[v] == r and darts == rot[r:] + rot[:r]
            assert graph.corner_face[(v, (r - 1) % len(rot))] == gaps[p]
            order.append(v)
            strands[p:p] = darts
            gaps[p + 1:p + 1] = [graph.corner_face[(v, (r + j) % len(rot))]
                                 for j in range(len(rot) - 1)] + [gaps[p]]
        else:
            _, q, e, kind = op
            assert {strands[q], strands[q + 1]} == {(e, 0), (e, 1)}
            assert kind == ("l" if strands[q][1] == 0 else "r")
            assert gaps[q + 1] == graph.right_face_of_dart(strands[q])
            assert gaps[q] == gaps[q + 2]
            del strands[q:q + 2], gaps[q + 1:q + 3]
        width = max(width, len(strands))
    assert not strands and gaps == [outer_face]
    assert sorted(order) == list(range(graph.nvertices))
    assert list(positions) == [order.index(v) for v in range(graph.nvertices)]
    return width


def _search_width(graph, outer_face):
    """The largest strand count of ``refsweep.find_layout``'s layout."""
    width = strands = 0
    for act in refsweep.find_layout(graph, outer_face):
        strands += len(graph.rotations[act[1]]) if act[0] == "box" else -2
        width = max(width, strands)
    return width


def test_sweep_plans_are_valid_and_no_wider_than_the_search():
    # every face of every link code, pool graph, 300 random sphere graphs
    # and the n-cycles for n = 3..7 (from face 0 the search is exponential
    # on them): the built plan is valid, and its largest strand count is at
    # most that of the backtracking search's layout from the same face
    rnd = random.Random("sweep-plan/width")
    graphs = [_canonical_graph(code) for code in
              sorted({_canonical_rotation_system(r)[0] for r in _sweep_rotation_systems()})]
    graphs += [parse_graph(path.read_text())
               for path in sorted((ROOT / "perfbench" / "graphs").glob("*.graph"))]
    for _ in range(300):
        nv, edges, rotations = grow_random_planar(rnd, 10, 14)
        graphs.append(ColoredGraph(nv, [(t, h, 0) for t, h in edges], rotations))
    graphs += [cycle_graph(n, 0) for n in range(3, 8)]
    cat = builtin_category("fibonacci")
    for graph in graphs:
        for face in range(len(graph.faces)):
            width = _checked_width(graph, _sweep_plan(graph, face), face)
            assert width <= _search_width(graph, face), (graph.rotations, face)


def _nested_graph(rnd, parts):
    """A disconnected graph on the sphere: ``parts`` random planar
    components, each after the first drawn inside a random face of those
    before it.  Its faces certificate merges that face with a random face
    of the new component."""
    nv, edges, rotations, faces = 0, [], [], []
    for _ in range(parts):
        n, es, rots = grow_random_planar(rnd, 4, 6)
        orbits = [[(v + nv, i) for v, i in f] for f in trace_rotation_faces(rots)[0]]
        if faces:
            faces[rnd.randrange(len(faces))] += orbits.pop(rnd.randrange(len(orbits)))
        faces += orbits
        rotations += [[(e + len(edges), end) for e, end in rot] for rot in rots]
        edges += [(t + nv, h + nv) for t, h in es]
        nv += n
    return nv, edges, rotations, faces


def test_nested_disconnected_graphs_get_valid_plans():
    # seeded random graphs of 2-4 components nested in each other's faces:
    # a valid plan from every face, and, coloured admissibly under
    # fibonacci, one tensor from every face
    rnd = random.Random("sweep-plan/nested")
    cat = builtin_category("fibonacci")
    evaluated = 0
    for k in range(120):
        nv, edges, rotations, faces = _nested_graph(rnd, rnd.randint(2, 4))
        colors = color_graph(rnd, cat, nv, edges, rotations) if k % 12 == 0 else None
        colored = [(t, h, c) for (t, h), c in zip(edges, colors or [0] * len(edges))]
        graph = ColoredGraph(nv, colored, rotations, faces=faces)
        for face in range(len(graph.faces)):
            _checked_width(graph, _sweep_plan(graph, face), face)
        if colors is not None:
            base = evaluate_graph(cat, graph, outer_face=0)
            for face in range(1, len(graph.faces)):
                assert evaluate_graph(cat, graph, outer_face=face) == base, (edges, face)
            evaluated += bool(base.entries)
    assert evaluated


def test_graph_nested_in_two_faces_of_a_loop():
    # a theta graph in one face of a loop and a second loop in the other,
    # all coloured tau: the faces certificate merges trace orbits, and the
    # one entry is the same from all five outer faces, equal to the
    # per-entry sweep and to the product of the three components' values
    cat = builtin_category("fibonacci")
    tau = 1
    loop = ColoredGraph(1, [(0, 0, tau)], [[(0, 0), (0, 1)]])
    theta = ColoredGraph(2, [(0, 1, tau)] * 3, [[(0, 0), (1, 0), (2, 0)], [(2, 1), (1, 1), (0, 1)]])
    edges = [(0, 0, tau), (1, 2, tau), (1, 2, tau), (1, 2, tau), (3, 3, tau)]
    rotations = [[(0, 0), (0, 1)], [(1, 0), (2, 0), (3, 0)], [(3, 1), (2, 1), (1, 1)],
                 [(4, 0), (4, 1)]]
    orbits = trace_rotation_faces(rotations)[0]
    assert len(orbits) == 7
    outer, inner = [f for f in orbits if f[0][0] == 0]
    theta_faces = [f for f in orbits if f[0][0] in (1, 2)]
    loop_faces = [f for f in orbits if f[0][0] == 3]
    faces = [outer + theta_faces[0], inner + loop_faces[0]] + theta_faces[1:] + loop_faces[1:]
    graph = parse_graph(save_graph(ColoredGraph(4, edges, rotations, faces=faces)))
    assert len(graph.faces) == 5
    want = evaluate_graph(cat, loop).value((0,)) ** 2 * evaluate_graph(cat, theta).value((0, 0))
    for face in range(5):
        got = evaluate_graph(cat, graph, outer_face=face)
        assert got.entries == {(0, 0, 0, 0): want}, face
        assert refsweep.evaluate_graph(cat, graph, outer_face=face).entries == got.entries, face


def test_long_cycles_get_plans_fast_from_both_faces():
    # the backtracking search took 14.8 s on an 8-cycle from face 0
    cat = builtin_category("fibonacci")
    graph = cycle_graph(1000, 1)
    tensors = []
    for face in (0, 1):
        start = time.perf_counter()
        plan = _sweep_plan(graph, face)
        assert time.perf_counter() - start < 1.0, face
        assert _checked_width(graph, plan, face) <= 4
        tensors.append(evaluate_graph(cat, graph, outer_face=face))
    assert tensors[0].entries == tensors[1].entries and len(tensors[0].entries) == 1
