import random
import re
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from statesum3d.catdata import (
    MAX_GROUP_ORDER,
    CocycleTable,
    FiniteGroup,
    GFusionData,
    GroupHom,
    backtrack,
    build_vec_g_theta,
    builtin_category,
    builtin_category_names,
    graduator,
    load_category,
    neutral_dimension,
    push_forward,
    save_category,
    validate_category,
)
from statesum3d.exactnum import make_field, root_of_unity
from statesum3d.graphcalc import (
    CyclicCSet,
    MultiplicityBasis,
    evaluate_graph,
    parse_graph,
    rotation_matrix,
)
from statesum3d.linalg import identity_matrix, matrix_inverse, matrix_mul

import refvalidate
from trifiles import DATA


def test_group_builtins():
    z4 = FiniteGroup.cyclic(4)
    assert z4.order == 4 and z4.identity == 0 and z4.inv(1) == 3
    d3 = FiniteGroup.dihedral(3)
    s3 = FiniteGroup.symmetric(3)
    for g in (d3, s3):
        assert g.order == 6
        assert any(g.mul(a, b) != g.mul(b, a) for a in g.elements() for b in g.elements())


@pytest.mark.parametrize("name", ["Z0", "Z-1", "D-2", "D0", "S0", "Z", "S", "Z03", "Z2x", "z2",
                                  "Z100000", "D13", "S5", "Z" + "9" * 40, "Z" + "9" * 5000,
                                  "Z\u0663", "D\u00b2", "Z 3", "Z+3"])
def test_bad_group_names_are_refused_before_any_table(monkeypatch, name):
    # Zn, Dn and Sn with 1 <= n and order at most MAX_GROUP_ORDER; anything
    # else is a ValueError naming the name, raised before a table is built
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{name} built a group table")

    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        FiniteGroup.by_name(name)


@pytest.mark.parametrize("name, order", [("1", 1), ("trivial", 1), ("Z1", 1), ("S1", 1),
                                         ("D1", 2), ("Z6", 6), ("D3", 6), ("S3", 6),
                                         ("Z24", MAX_GROUP_ORDER), ("D12", MAX_GROUP_ORDER),
                                         ("S4", MAX_GROUP_ORDER)])
def test_group_names_up_to_the_bound(name, order):
    assert FiniteGroup.by_name(name).order == order


def test_cyclic_cocycle_values_are_the_stated_powers():
    # theta_q(a, b, c) = zeta_n^(q a floor((b + c) / n)), each value built
    # on its own
    for n in (2, 3, 4):
        field = make_field("cyclotomic", n)
        for q in range(n):
            theta = CocycleTable.cyclic_rep(n, q)
            for (a, b, c), value in theta.values.items():
                assert value == root_of_unity(field, q * a * ((b + c) // n)), (n, q, a, b, c)


# per slot: candidate values, and checks as (slots read, modulus, forbidden residue)
_SLOTS = st.integers(0, 5).flatmap(lambda n: st.tuples(*[st.tuples(
    st.lists(st.integers(-2, 3), max_size=3),
    st.lists(st.tuples(st.sets(st.integers(0, i)), st.integers(1, 4), st.integers(0, 3)),
             max_size=2)) for i in range(n)]))


@settings(max_examples=200, deadline=None)
@given(_SLOTS)
@example(())
@example((([0, 1], []), ([], []), ([2], [])))
def test_backtrack_is_the_filtered_product(slots):
    # each check reads only slots at or before its own, the order the
    # search fills them in
    def check(reads, modulus, residue):
        return lambda values: sum(values[j] for j in reads) % modulus != residue

    candidates = [cands for cands, _ in slots]
    checks = [[check(*c) for c in cs] for _, cs in slots]
    want = [t for t in product(*candidates)
            if all(f(list(t)) for fs in checks for f in fs)]
    assert backtrack(candidates, checks) == want


def test_group_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])


def test_cocycle_reps():
    for n in (2, 3, 4):
        for q in range(n):
            CocycleTable.cyclic_rep(n, q)  # constructor validates
    # corrupting one value must be rejected with the quadruple named
    z2 = FiniteGroup.cyclic(2)
    f4 = make_field("cyclotomic", 4)
    vals = {(a, b, c): f4.one() for a in range(2) for b in range(2) for c in range(2)}
    vals[(1, 1, 1)] = root_of_unity(f4, 1)
    with pytest.raises(ValueError, match="quadruple"):
        CocycleTable(z2, f4, vals)


def test_vec_g_theta_accepts_nontrivial_z2():
    z2 = FiniteGroup.cyclic(2)
    f2 = make_field("cyclotomic", 2)
    vals = {(a, b, c): f2.one() for a in range(2) for b in range(2) for c in range(2)}
    vals[(1, 1, 1)] = -f2.one()
    theta = CocycleTable(z2, f2, vals)
    cat = build_vec_g_theta(z2, theta)
    rep = validate_category(cat)
    assert rep.passed(), rep.failures()
    assert neutral_dimension(cat).is_one()


@pytest.mark.parametrize("name", builtin_category_names())
def test_builtin_categories_validate(name):
    cat = builtin_category(name)
    rep = validate_category(cat)
    assert rep.passed(), (name, rep.failures())


def test_neutral_dimension_values():
    fib = builtin_category("fibonacci")
    nd = neutral_dimension(fib)
    phi = fib.field.gen()
    assert nd == fib.field.rational(2) + phi  # 1 + phi^2
    isg = builtin_category("ising_like")
    assert neutral_dimension(isg) == isg.field.rational(4)
    assert neutral_dimension(builtin_category("vect_Z3_theta1")).is_one()


def _variant(cat, fusion_set=None, fsym=None):
    """``cat`` with its fusion triples or F-symbols replaced."""
    return GFusionData(cat.field, cat.group, cat.names, cat.grade, cat.dual,
                       cat.fusion_set if fusion_set is None else fusion_set,
                       cat.fsym if fsym is None else fsym,
                       cat.dim_l, cat.dim_r, cat.pivotal, name=cat.name)


def test_corrupted_fibonacci_detected():
    fib = builtin_category("fibonacci")
    fsym = dict(fib.fsym)
    key = (1, 1, 1, 1, 0, 0)
    fsym[key] = -fsym[key]
    bad = _variant(fib, fsym=fsym)
    rep = validate_category(bad)
    assert not rep.passed()
    failing = [c for c, _ in rep.failures()]
    assert any(c in ("pentagon", "snake consistency", "duality scalars") for c in failing)
    # the witness is the least failing tuple in the order (a,b,c,d,u,e,k,f,g)
    assert ("pentagon", "violated at (a,b,c,d,u,e,f,g,k) = (1, 1, 1, 1, 0, 0, 1, 1, 1)") \
        in rep.failures()


def test_missing_f_symbol_raises_on_every_read():
    # the memo keeps no missing F-symbol, so the second read raises as the
    # first does, while admissible and inadmissible reads are kept
    fib = builtin_category("fibonacci")
    key = (1, 1, 1, 0, 1, 1)
    dropped = _variant(fib, fsym={k: v for k, v in fib.fsym.items() if k != key})
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(f"missing F-symbol {key}")):
            dropped.f_entry(*key)
    assert key not in dropped._f_memo
    assert dropped.f_entry(1, 1, 1, 1, 0, 0) == fib.fsym[(1, 1, 1, 1, 0, 0)]
    assert dropped.f_entry(1, 1, 1, 0, 0, 0) is None
    assert dropped._f_memo[(1, 1, 1, 0, 0, 0)] is None


@pytest.mark.parametrize("name", builtin_category_names())
def test_finv_tables_are_the_inverse_blocks(name):
    # every F-block of every shipped category: the table that finv_entry
    # keeps, reciprocals for the 1x1 blocks, against Gauss-Jordan elimination
    cat = builtin_category(name)
    singles = 0
    for a, b, c in product(range(cat.n), repeat=3):
        for d in sorted({d for e in cat.fuse(a, b) for d in cat.fuse(e, c)}):
            es, fs, rows = cat.f_block(a, b, c, d)
            inv = matrix_inverse(rows, cat.field)
            cat.finv_entry(a, b, c, d, fs[0], es[0])
            assert cat._finv_cache[(a, b, c, d)] == {
                (f, e): inv[i][j] for i, f in enumerate(fs) for j, e in enumerate(es)}, \
                (name, (a, b, c, d))
            singles += len(es) == 1
    assert singles


def test_zero_one_by_one_f_block_is_singular(tmp_path, capsys):
    # F[g,g,g,g]_(1,1) of vect_Z2_theta1 set to zero: construction reads it
    # for lev_g, and the reciprocal refuses it with the error of Gauss-Jordan
    # elimination, which validate-category reports as a domain error
    from statesum3d.cli import run
    text = (DATA / "categories" / "vect_Z2_theta1.cat").read_text()
    bad = text.replace("fsym 1 1 1 1 0 0 [-1]", "fsym 1 1 1 1 0 0 [0]")
    assert bad != text
    with pytest.raises(ValueError, match="^singular matrix$"):
        load_category(bad)
    path = tmp_path / "bad.cat"
    path.write_text(bad)
    assert run(["validate-category", "--category", str(path)]) == 3
    assert "singular matrix" in capsys.readouterr().err


def _corrupted(cat):
    """Three seeded F-symbol scalings of ``cat`` and every single fusion-triple
    toggle that still builds (has a unit and non-degenerate duality data)."""
    rng = random.Random(cat.name)
    keys = sorted(cat.fsym)
    for _ in range(3 if keys else 0):
        fsym = dict(cat.fsym)
        key = rng.choice(keys)
        fsym[key] = fsym[key] * cat.field.rational(rng.choice((2, -1, 3)))
        yield _variant(cat, fsym=fsym)
    for triple in product(range(cat.n), repeat=3):
        try:
            yield _variant(cat, fusion_set=cat.fusion_set ^ {triple})
        except ValueError:
            pass


def test_validation_matches_exhaustive_reference():
    # the admissible walk reports what the loops over every index tuple
    # report, witnesses and early stops included
    fib = builtin_category("fibonacci")
    dropped = _variant(fib, fsym={k: v for k, v in fib.fsym.items() if k != (1, 1, 1, 0, 1, 1)})
    failed = set()
    cats = [builtin_category(name) for name in builtin_category_names()]
    for cat in cats + [dropped] + [bad for cat in cats for bad in _corrupted(cat)]:
        rep = validate_category(cat)
        assert rep.lines() == refvalidate.report_lines(cat), cat
        failed.update(check for check, _ in rep.failures())
    assert {"F-table domain", "F-blocks invertible", "pentagon"} <= failed


def test_validation_walks_only_admissible_paths(monkeypatch):
    # about 6,900 F-entry reads for vect_S3; a loop over every index tuple
    # makes about 5.6 million
    s3 = FiniteGroup.symmetric(3)
    cat = build_vec_g_theta(s3, CocycleTable.trivial(s3))
    calls = 0
    f_entry = GFusionData.f_entry

    def counted(self, *key):
        nonlocal calls
        calls += 1
        return f_entry(self, *key)

    monkeypatch.setattr(GFusionData, "f_entry", counted)
    assert validate_category(cat).passed()
    assert calls <= 20_000


def _sign_flipped(name, signs):
    """The shipped category ``name`` with its pivotal coefficients and both
    dimensions multiplied by ``signs``: the snake, duality-scalar and
    dimension identities still hold."""
    cat = builtin_category(name)
    sc = [cat.field.rational(s) for s in signs]
    dim = [d * s for d, s in zip(cat.dim_l, sc)]
    return GFusionData(cat.field, cat.group, cat.names, cat.grade, cat.dual,
                       cat.fusion_set, cat.fsym, dim, dim,
                       [p * s for p, s in zip(cat.pivotal, sc)], name=f"{name}_flipped")


def _full_turn_is_identity(cat, items):
    cs = CyclicCSet(items)
    turn = identity_matrix(MultiplicityBasis(cat, cs).dim(), cat.field)
    for anchor in range(len(items)):
        turn = matrix_mul(rotation_matrix(cat, MultiplicityBasis(cat, cs, anchor), 1),
                          turn, cat.field)
    return turn == identity_matrix(len(turn), cat.field)


@pytest.mark.parametrize("name, signs, failures", [
    ("vect_Z3_theta0", (1, -1, -1), 16),
    ("vect_Z3_theta1", (1, -1, -1), 16),
    ("fibonacci", (1, -1), 8),
])
def test_non_monoidal_pivotal_coefficients_are_rejected(name, signs, failures):
    # every other check passes, and the full turns of the admissible signed
    # three-letter words that the rotations compute disagree with the identity
    # on exactly the words whose labels the pivotal check names
    cat = _sign_flipped(name, signs)
    rep = validate_category(cat)
    assert [c for c, _ in rep.failures()] == ["pivotal monoidal"]
    named = set(re.findall(r"\((\d+), (\d+), (\d+)\)", rep.failures()[0][1]))
    signed = [(c, s) for c in range(cat.n) for s in (1, -1)]
    bad = [items for items in product(signed, repeat=3)
           if MultiplicityBasis(cat, CyclicCSet(items)).dim()
           and not _full_turn_is_identity(cat, items)]
    assert len(bad) == failures
    labels = {tuple(str(c if s > 0 else cat.dual[c]) for c, s in items) for items in bad}
    assert labels == named


def test_shipped_pivotal_coefficients_are_monoidal():
    s3 = FiniteGroup.symmetric(3)
    cats = [builtin_category(name) for name in builtin_category_names()]
    for cat in cats + [build_vec_g_theta(s3, CocycleTable.trivial(s3))]:
        entries = {check: ok for check, ok, _ in validate_category(cat).entries}
        assert entries["pivotal monoidal"], cat


def test_graduator():
    catz3 = builtin_category("vect_Z3_theta0")
    grp, proj = graduator(catz3)
    assert grp.order == 3
    assert sorted(set(proj)) == [0, 1, 2]

    fib = builtin_category("fibonacci")
    grp, proj = graduator(fib)
    assert grp.order == 1 and proj == [0, 0]

    isg = builtin_category("ising_like")
    grp, proj = graduator(isg)
    assert grp.order == 2
    assert proj[0] == proj[1] != proj[2]


def test_push_forward():
    z4 = FiniteGroup.cyclic(4)
    z2 = FiniteGroup.cyclic(2)
    cat = builtin_category("vect_Z4_theta0")
    phi = GroupHom(z4, z2, [0, 1, 0, 1])
    pushed = push_forward(cat, phi)
    rep = validate_category(pushed)
    assert rep.passed(), rep.failures()
    assert len(pushed.sector(0)) == 2
    nd = neutral_dimension(pushed)
    assert nd == pushed.field.rational(2)  # gamma * dim(C_1) with gamma = 2
    for i in range(cat.n):
        assert pushed.dim_l[i] == cat.dim_l[i]

    ident = GroupHom(z4, z4, list(z4.elements()))
    same = push_forward(cat, ident)
    assert same.grade == cat.grade

    to_triv = GroupHom(z4, FiniteGroup.trivial(), [0, 0, 0, 0])
    plain = push_forward(cat, to_triv)
    assert all(g == 0 for g in plain.grade)

    with pytest.raises(ValueError, match="surjective"):
        push_forward(cat, GroupHom(z4, z2, [0, 0, 0, 0]))
    with pytest.raises(ValueError, match="homomorphism"):
        GroupHom(z4, z2, [0, 1, 1, 0])


@pytest.mark.parametrize("name", ["vect_Z4_theta3", "fibonacci", "ising_like"])
def test_file_roundtrip(name):
    cat = builtin_category(name)
    text = save_category(cat)
    back = load_category(text)
    assert back.names == cat.names
    assert back.fusion_set == cat.fusion_set
    assert back.fsym == cat.fsym
    assert back.dim_l == cat.dim_l
    assert back.pivotal == cat.pivotal
    assert validate_category(back).passed()


@pytest.mark.parametrize("name", ["fibonacci", "ising_like"])
def test_file_truncated_in_simple_lines_is_rejected(name):
    text = save_category(builtin_category(name))
    start = text.index("\nsimple ") + 1
    end = text.index("\nfusion ")  # the newline that ends the last simple line
    cuts = [k for k in range(start, end) if text[k] in " \n"]
    assert cuts
    for cut in cuts:
        with pytest.raises(ValueError, match="simple line"):
            load_category(text[:cut])


def test_builtin_categories_are_the_shipped_files():
    # a name reaches exactly the files, and a file's parse writes it back
    files = sorted(path.stem for path in (DATA / "categories").glob("*.cat"))
    assert builtin_category_names() == files and len(files) == 12
    for name in files:
        text = (DATA / "categories" / f"{name}.cat").read_text()
        assert save_category(builtin_category(name)) == text, name


@pytest.mark.parametrize("name, n, q", [("vect_1_trivial", 1, 0)] + [
    (f"vect_Z{n}_theta{q}", n, q) for n in (2, 3, 4) for q in range(n)])
def test_pointed_files_are_the_cyclic_representatives(name, n, q):
    # each shipped pointed category is build_vec_g_theta of the standard
    # representative of its class in H^3(Z/n; k*), byte for byte
    if n == 1:
        group = FiniteGroup.trivial()
        theta = CocycleTable.trivial(group)
    else:
        group, theta = FiniteGroup.cyclic(n), CocycleTable.cyclic_rep(n, q)
    text = (DATA / "categories" / f"{name}.cat").read_text()
    assert save_category(build_vec_g_theta(group, theta, name=name)) == text


_THETA = parse_graph("vertices 2\nedges 3\n" + "".join(f"edge {k} 0 1 color 1\n" for k in range(3))
                     + "rot 0 o0 o1 o2\nrot 1 i2 i1 i0\n")


def test_builtin_category_builds_a_new_object_each_call():
    # only the parse is kept between calls: evaluating a link with one
    # object fills its memos and leaves another's as construction left them
    first, second = builtin_category("fibonacci"), builtin_category("fibonacci")
    assert first is not second
    assert evaluate_graph(first, _THETA).entries
    fresh = builtin_category("fibonacci")
    assert len(first._memo) > len(fresh._memo)
    assert len(first._finv_cache) > len(fresh._finv_cache)
    assert len(first._f_memo) > len(fresh._f_memo)
    assert second._memo.keys() == fresh._memo.keys()
    assert second._finv_cache == fresh._finv_cache
    # the F-symbol memo is a new dict in each object, holding only the reads
    # of the duality scalars' F-blocks that construction makes
    assert second._f_memo == fresh._f_memo
    assert second._f_memo is not first._f_memo and second._f_memo is not fresh._f_memo
    assert {key[:4] for key in fresh._f_memo} <= {(i, fresh.dual[i], i, i) for i in range(fresh.n)}


def test_sector_dimension_identity_all_builtins():
    for name in builtin_category_names():
        cat = builtin_category(name)
        nd = neutral_dimension(cat)
        for g in cat.group.elements():
            sec = cat.sector(g)
            if not sec:
                continue
            total = cat.field.zero()
            for i in sec:
                total = total + cat.dim_l[i] * cat.dim_r[i]
            assert total == nd, (name, g)
