"""Skeletal spherical group-graded fusion data.

A category backend is a finite package of exact scalars:

* a finite group ``G`` given by its multiplication table,
* a finite list of simple labels, each with a grade in G, a dual label,
  left/right dimensions and a pivotal coefficient in the ground field,
* a multiplicity-free fusion table ``N[i][j][k] in {0, 1}``,
* an F-symbol table for the change between the two parenthesizations of a
  triple product, stored in blocks.

Conventions fixed by this module (every consumer relies on them):

* splitting basis vectors ``B(a,b;c): c -> a (x) b`` are chosen once per
  admissible triple; the fusion vectors ``Y(a,b;c)`` are normalized by
  ``Y o B = id``;
* the F-table means
  ``(id_a (x) B(b,c;f)) B(a,f;d) = sum_e F[a,b,c,d]_{e,f} (B(a,b;e) (x) id_c) B(e,c;d)``;
* blocks with the unit among the first three labels are identity blocks and
  are not stored;
* duality scalars are derived, not stored:
  ``lcoev_i = B(i, i*; 1)``,
  ``lev_i   = A_i  Y(i*, i; 1)`` with ``A_i = 1 / Finv[i, i*, i, i][1, 1]``,
  ``rcoev_i = p_i  B(i*, i; 1)`` with ``p_i`` the stored pivotal coefficient,
  ``rev_i   = dim_r(i) Y(i, i*; 1)``.

Validation recomputes the snake and dimension identities these choices must
satisfy, and checks that the pivotal coefficients are monoidal (a full turn
of every admissible three-letter word is the identity), so inconsistent
files are rejected with named witnesses.  Its F-table, block and pentagon
checks walk admissible fusion paths through :meth:`GFusionData.fuse`, so
their cost follows the admissible blocks and pentagons, not ``n**9``.

The shipped categories exist only as files, ``data/categories/<name>.cat``:
:func:`builtin_category` reads one by name and :func:`build_vec_g_theta`
builds a pointed category in memory from a group and a 3-cocycle.
"""

from __future__ import annotations

import functools
from itertools import permutations, product
from math import factorial

from . import records
from .exactnum import FieldElement, FieldSpec, make_field, root_of_unity
from .linalg import matrix_inverse

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "CocycleTable",
    "GFusionData",
    "ValidationReport",
    "build_vec_g_theta",
    "validate_category",
    "neutral_dimension",
    "graduator",
    "push_forward",
    "builtin_category",
    "builtin_category_names",
    "save_category",
    "load_category",
]


_UNREAD = object()  # a 6-tuple not yet in GFusionData._f_memo

MAX_GROUP_ORDER = 24  # of S4, for FiniteGroup.by_name; groups in use have order <= 6


class FiniteGroup:
    """Finite group as a multiplication table over indices 0..n-1.

    Associativity, identity and inverses are verified on construction, so a
    FiniteGroup instance is always an actual group.
    """

    def __init__(self, table, name: str = "G"):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name
        n = self.order
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table is not square")
        ident = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("multiplication table has no identity")
        self.identity = ident
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == ident:
                    inv[a] = b
        if any(v is None for v in inv):
            raise ValueError("multiplication table has a non-invertible element")
        self.inverse_table = tuple(inv)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse_table[a]

    def elements(self):
        return range(self.order)

    def prod(self, items) -> int:
        out = self.identity
        for x in items:
            out = self.table[out][x]
        return out

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"

    # -- built-in families ------------------------------------------------

    @staticmethod
    def cyclic(n: int) -> FiniteGroup:
        return FiniteGroup([[(a + b) % n for b in range(n)] for a in range(n)],
                           name=f"Z{n}")

    @staticmethod
    def trivial() -> FiniteGroup:
        return FiniteGroup([[0]], name="1")

    @staticmethod
    def dihedral(n: int) -> FiniteGroup:
        """Dihedral group of order 2n; element 2k = rotation r^k, 2k+1 = r^k s."""
        def enc(rot, flip):
            return 2 * (rot % n) + flip

        def mul(x, y):
            rx, fx = divmod(x, 2)
            ry, fy = divmod(y, 2)
            if fx == 0:
                return enc(rx + ry, fy)
            return enc(rx - ry, 1 - fy)

        return FiniteGroup([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)],
                           name=f"D{n}")

    @staticmethod
    def symmetric(n: int) -> FiniteGroup:
        perms = list(permutations(range(n)))  # in lexicographic order
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
        return FiniteGroup(table, name=f"S{n}")

    @staticmethod
    def by_name(name: str) -> FiniteGroup:
        """``1``, ``trivial``, or ``Zn``, ``Dn`` (order 2n), ``Sn`` of order 1..MAX_GROUP_ORDER."""
        if name in ("1", "trivial"):
            return FiniteGroup.trivial()
        kind, digits = name[:1], name[1:]
        plain = digits.isascii() and digits.isdigit() and digits[0] != "0" and len(digits) < 10
        n = int(digits) if plain else 0
        order = {"Z": n, "D": 2 * n, "S": factorial(min(n, 5)) if n else 0}.get(kind, 0)
        if not 1 <= order <= MAX_GROUP_ORDER:
            raise ValueError(f"bad group name {name!r}: expected Zn, Dn or Sn with n >= 1 "
                             f"and order at most {MAX_GROUP_ORDER}")
        build = {"Z": FiniteGroup.cyclic, "D": FiniteGroup.dihedral, "S": FiniteGroup.symmetric}
        return build[kind](n)


class GroupHom:
    """Homomorphism between FiniteGroups given by its value list."""

    def __init__(self, src: FiniteGroup, dst: FiniteGroup, values):
        self.src = src
        self.dst = dst
        self.values = tuple(values)
        if len(self.values) != src.order:
            raise ValueError("homomorphism value list has wrong length")
        for a in range(src.order):
            for b in range(src.order):
                if self.values[src.mul(a, b)] != dst.mul(self.values[a], self.values[b]):
                    raise ValueError(f"not a homomorphism at ({a},{b})")

    def __call__(self, a: int) -> int:
        return self.values[a]

    def is_surjective(self) -> bool:
        return len(set(self.values)) == self.dst.order

    def kernel(self):
        return [a for a in self.src.elements() if self.values[a] == self.dst.identity]


class CocycleTable:
    """Normalized 3-cocycle on a finite group with values in roots of unity.

    ``values[(a, b, c)]`` is a FieldElement.  Construction checks
    normalization (value 1 whenever an argument is the identity) and the
    cocycle identity
    ``t(b,c,d) t(a,bc,d) t(a,b,c) = t(ab,c,d) t(a,b,cd)``
    for all quadruples, reporting the first violated quadruple.
    """

    def __init__(self, group: FiniteGroup, field: FieldSpec, values: dict):
        self.group = group
        self.field = field
        self.values = dict(values)
        e = group.identity
        one = field.one()
        for a, b, c in product(group.elements(), repeat=3):
            if (a, b, c) not in self.values:
                raise ValueError(f"cocycle table missing value at ({a},{b},{c})")
            if (a == e or b == e or c == e) and self.values[(a, b, c)] != one:
                raise ValueError(f"cocycle not normalized at ({a},{b},{c})")
        for a, b, c, d in product(group.elements(), repeat=4):
            lhs = self.values[(b, c, d)] * self.values[(a, group.mul(b, c), d)] \
                * self.values[(a, b, c)]
            rhs = self.values[(group.mul(a, b), c, d)] * self.values[(a, b, group.mul(c, d))]
            if lhs != rhs:
                raise ValueError(f"cocycle condition violated at quadruple ({a},{b},{c},{d})")

    def __call__(self, a: int, b: int, c: int) -> FieldElement:
        return self.values[(a, b, c)]

    @staticmethod
    def trivial(group: FiniteGroup) -> CocycleTable:
        field = make_field("rational")
        one = field.one()
        vals = {(a, b, c): one for a, b, c in product(group.elements(), repeat=3)}
        return CocycleTable(group, field, vals)

    @staticmethod
    def cyclic_rep(n: int, q: int) -> CocycleTable:
        """Standard representative of the class q in H^3(Z/n; k*):
        theta_q(a,b,c) = zeta_n^(q a floor((b+c)/n)) with least residues."""
        group = FiniteGroup.cyclic(n)
        field = make_field("cyclotomic", n)
        powers = [root_of_unity(field, k) for k in range(n)]
        vals = {}
        for a, b, c in product(range(n), repeat=3):
            vals[(a, b, c)] = powers[q * a * ((b + c) // n) % n]
        return CocycleTable(group, field, vals)


class GFusionData:
    """Skeletal spherical G-graded fusion data; immutable after validation.

    F-symbols are stored sparsely as ``fsym[(a,b,c,d,e,f)]`` for blocks with
    no unit among (a, b, c).  Lookup goes through :meth:`f_entry`, which
    supplies the identity blocks and admissibility filtering, once per
    6-tuple.
    """

    def __init__(self, field: FieldSpec, group: FiniteGroup, names, grade, dual,
                 fusion_triples, fsym, dim_l, dim_r, pivotal, name: str = "category"):
        self.field = field
        self.group = group
        self.names = tuple(names)
        self.n = len(self.names)
        self.grade = tuple(grade)
        self.dual = tuple(dual)
        self.dim_l = tuple(dim_l)
        self.dim_r = tuple(dim_r)
        self.pivotal = tuple(pivotal)
        self.name = name
        # the unit is the label that fuses trivially on both sides
        self.fusion_set = frozenset(fusion_triples)
        unit = None
        for i in range(self.n):
            if all(((i, j, j) in self.fusion_set) and ((j, i, j) in self.fusion_set)
                   for j in range(self.n)):
                unit = i
                break
        if unit is None:
            raise ValueError("fusion table has no unit label")
        self.unit = unit
        self._products = {}
        for i in range(self.n):
            for j in range(self.n):
                self._products[(i, j)] = tuple(sorted(
                    k for k in range(self.n) if (i, j, k) in self.fusion_set))
        self.fsym = dict(fsym)
        self._f_memo: dict = {}  # f_entry by 6-tuple, see there
        self._finv_cache: dict = {}
        # link-evaluation data of graphcalc (tree bases, box and cap
        # transfer tables, slot maps, reversal scalars, and per canonical
        # link code its sweep plan and class sweeps), built once per key;
        # values are tuples, dicts and scalars that hold no reference back
        # to this object
        self._memo: dict = {}
        # lev_i, the one derived duality scalar, see module docstring
        lev = []
        for i in range(self.n):
            finv_11 = self.finv_entry(i, self.dual[i], i, i, self.unit, self.unit)
            if finv_11 is None or finv_11.is_zero():
                raise ValueError(f"degenerate duality data for simple {self.names[i]}")
            lev.append(finv_11.inv())
        self._lev = tuple(lev)

    # -- basic table access ----------------------------------------------

    def fuse(self, i: int, j: int) -> tuple:
        """Labels occurring in i (x) j."""
        return self._products[(i, j)]

    def nmat(self, i: int, j: int, k: int) -> int:
        return 1 if (i, j, k) in self.fusion_set else 0

    def sector(self, g: int):
        return [i for i in range(self.n) if self.grade[i] == g]

    def _fadm(self, a, b, c, d, e, f) -> bool:
        return (self.nmat(a, b, e) and self.nmat(e, c, d)
                and self.nmat(b, c, f) and self.nmat(a, f, d)) == 1

    def f_entry(self, a, b, c, d, e, f) -> FieldElement | None:
        """F[a,b,c,d]_{e,f}, or None when the index pair is inadmissible.

        Each 6-tuple is read once through ``_f_memo``, which also keeps the
        None of an inadmissible one.  A missing F-symbol is not kept, so
        every read of it raises the ``ValueError`` that names it."""
        key = (a, b, c, d, e, f)
        value = self._f_memo.get(key, _UNREAD)
        if value is _UNREAD:
            if not self._fadm(a, b, c, d, e, f):
                value = None
            elif a == self.unit or b == self.unit or c == self.unit:
                value = self.field.one()
            else:
                value = self.fsym.get(key)
                if value is None:
                    raise ValueError(f"missing F-symbol {key}")
            self._f_memo[key] = value
        return value

    def f_block(self, a, b, c, d):
        """(e_list, f_list, rows) of the F-block at (a,b,c,d)."""
        es = [e for e in self.fuse(a, b) if self.nmat(e, c, d)]
        fs = [f for f in self.fuse(b, c) if self.nmat(a, f, d)]
        rows = [[self.f_entry(a, b, c, d, e, f) or self.field.zero() for f in fs]
                for e in es]
        return es, fs, rows

    def finv_entry(self, a, b, c, d, f, e) -> FieldElement | None:
        """Entry (f, e) of the inverse F-block at (a,b,c,d), or None off the
        block.  The inverse of each block is kept in ``_finv_cache``.  A 1x1
        block, which most are, is inverted as the reciprocal of its entry,
        any other by Gauss-Jordan elimination; a singular block raises the
        ``ValueError("singular matrix")`` of ``linalg.matrix_inverse`` either
        way."""
        key = (a, b, c, d)
        table = self._finv_cache.get(key)
        if table is None:
            es, fs, rows = self.f_block(a, b, c, d)
            if len(es) != len(fs):
                raise ValueError(f"non-square F-block at {key}")
            if len(es) == 1:
                if rows[0][0].is_zero():
                    raise ValueError("singular matrix")
                table = {(fs[0], es[0]): rows[0][0].inv()}
            else:
                inv = matrix_inverse(rows, self.field)
                table = {(fv, ev): inv[fi][ei]
                         for fi, fv in enumerate(fs) for ei, ev in enumerate(es)}
            self._finv_cache[key] = table
        return table.get((f, e))

    # -- duality scalars ---------------------------------------------------

    def lev_scalar(self, i: int) -> FieldElement:
        return self._lev[i]

    def rev_scalar(self, i: int) -> FieldElement:
        return self.dim_r[i]

    def lcoev_scalar(self, i: int) -> FieldElement:
        return self.field.one()

    def rcoev_scalar(self, i: int) -> FieldElement:
        return self.pivotal[i]

    def dim(self, i: int) -> FieldElement:
        return self.dim_l[i]

    def __repr__(self):
        return f"GFusionData({self.name}: {self.n} simples over {self.group!r})"


# ---------------------------------------------------------------------------
# builders


def build_vec_g_theta(group: FiniteGroup, theta: CocycleTable,
                      name: str | None = None) -> GFusionData:
    """Pointed category: one invertible simple per group element, F-symbols
    given by the cocycle, all dimensions 1, pivotal coefficients chosen so
    the skeletal duality identities hold (p_g = theta(g, g^-1, g)^-1)."""
    if theta.group != group:
        raise ValueError("cocycle is over a different group")
    field = theta.field
    n = group.order
    names = [f"g{a}" for a in group.elements()]
    grade = list(group.elements())
    dual = [group.inv(a) for a in group.elements()]
    triples = {(a, b, group.mul(a, b)) for a in range(n) for b in range(n)}
    one = field.one()
    fsym = {}
    e = group.identity
    for a, b, c in product(group.elements(), repeat=3):
        if a == e or b == e or c == e:
            continue
        d = group.prod((a, b, c))
        fsym[(a, b, c, d, group.mul(a, b), group.mul(b, c))] = theta(a, b, c)
    dims = [one] * n
    pivotal = [theta(a, group.inv(a), a).inv() for a in group.elements()]
    return GFusionData(field, group, names, grade, dual, triples, fsym,
                       dims, dims, pivotal, name=name or f"vect_{group.name}^theta")


# ---------------------------------------------------------------------------
# validation


class ValidationReport:
    """Ordered list of (check, ok, detail) entries; never raises."""

    def __init__(self):
        self.entries = []

    def add(self, check: str, ok: bool, detail: str = ""):
        self.entries.append((check, bool(ok), detail))

    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def failures(self):
        return [(c, d) for c, ok, d in self.entries if not ok]

    def __repr__(self):
        status = "pass" if self.passed() else "FAIL"
        return f"ValidationReport({status}, {len(self.entries)} checks)"

    def lines(self):
        out = []
        for check, ok, detail in self.entries:
            mark = "ok  " if ok else "FAIL"
            out.append(f"{mark} {check}" + (f": {detail}" if detail else ""))
        return out


def validate_category(data: GFusionData) -> ValidationReport:
    """Structural, pentagon, duality, pivotal and dimension checks; see
    spec of conventions in the module docstring."""
    rep = ValidationReport()
    n = data.n
    g = data.group
    unit = data.unit

    ok = data.grade[unit] == g.identity
    rep.add("unit grade", ok, "" if ok else "unit label has nontrivial grade")

    bad = [(i, j, k) for (i, j, k) in data.fusion_set
           if g.mul(data.grade[i], data.grade[j]) != data.grade[k]]
    rep.add("grading compatibility", not bad, f"violations: {bad[:3]}" if bad else "")

    bad = []
    for i in range(n):
        if data.fuse(unit, i) != (i,) or data.fuse(i, unit) != (i,):
            bad.append(i)
    rep.add("unit constraints", not bad, f"labels {bad}" if bad else "")

    bad = []
    for i in range(n):
        for j in range(n):
            expect = 1 if j == data.dual[i] else 0
            if data.nmat(i, j, unit) != expect:
                bad.append((i, j))
    rep.add("duality pairing", not bad, f"pairs {bad[:3]}" if bad else "")

    bad = [i for i in range(n)
           if data.dual[data.dual[i]] != i
           or data.grade[data.dual[i]] != g.inv(data.grade[i])]
    rep.add("dual involution and grade", not bad, f"labels {bad}" if bad else "")

    empty = [h for h in g.elements() if not data.sector(h)]
    rep.add("sectors non-empty", not empty, f"grades {empty}" if empty else "")

    bad = [i for i in range(n) if data.dim_l[i].is_zero() or data.dim_r[i].is_zero()]
    rep.add("dims invertible", not bad, f"labels {bad}" if bad else "")

    # F-table domain: stored keys exactly the admissible non-unit blocks
    expected = {(a, b, c, d, e, f)
                for a, b, c in product(range(n), repeat=3) if unit not in (a, b, c)
                for e in data.fuse(a, b) for f in data.fuse(b, c)
                for d in data.fuse(e, c) if data.nmat(a, f, d)}
    missing = expected - set(data.fsym)
    extra = set(data.fsym) - expected
    rep.add("F-table domain", not missing and not extra,
            f"missing {sorted(missing)[:2]} extra {sorted(extra)[:2]}"
            if missing or extra else "")
    if missing:
        # the remaining checks read the missing entries
        return rep

    # block invertibility, at every block with a left basis
    bad = []
    for a, b, c in product(range(n), repeat=3):
        for d in sorted({d for e in data.fuse(a, b) for d in data.fuse(e, c)}):
            es, fs, rows = data.f_block(a, b, c, d)
            if len(es) != len(fs):
                bad.append((a, b, c, d))
                continue
            try:
                matrix_inverse(rows, data.field)
            except ValueError:
                bad.append((a, b, c, d))
    rep.add("F-blocks invertible", not bad, f"blocks {bad[:3]}" if bad else "")
    if bad:
        return rep

    # pentagon, at every index tuple that one of its two sides reaches; the
    # witness is the least failing tuple in the order (a,b,c,d,u,e,k,f,g)
    witness = None
    for a, b, c, d in product(range(n), repeat=4):
        fails = [(u, e, k, f, gg) for e in data.fuse(a, b) for f in data.fuse(e, c)
                 for u in data.fuse(f, d) for gg in data.fuse(c, d) for k in data.fuse(b, gg)
                 if data.nmat(a, k, u) and not _pentagon_holds(data, a, b, c, d, u, e, f, gg, k)]
        if fails:
            u, e, k, f, gg = min(fails)
            witness = (a, b, c, d, u, e, f, gg, k)
            break
    rep.add("pentagon", witness is None,
            f"violated at (a,b,c,d,u,e,f,g,k) = {witness}" if witness else "")

    # snake consistency and dimension identities
    bad = []
    for i in range(n):
        idu = data.dual[i]
        lhs = data.finv_entry(i, idu, i, i, unit, unit)
        rhs = data.f_entry(idu, i, idu, idu, unit, unit)
        if lhs is None or rhs is None or lhs != rhs:
            bad.append(i)
    rep.add("snake consistency", not bad, f"labels {bad}" if bad else "")

    bad = []
    for i in range(n):
        idu = data.dual[i]
        a_i = data.lev_scalar(i)
        if data.dim_l[i] != a_i * data.pivotal[i]:
            bad.append((i, "dim_l != A*pivotal"))
        f11 = data.f_entry(i, idu, i, i, unit, unit)
        if f11 is None or not (data.dim_r[i] * data.pivotal[i] * f11).is_one():
            bad.append((i, "dim_r * pivotal * F11 != 1"))
    rep.add("duality scalars", not bad, f"{bad[:3]}" if bad else "")

    # the pivotal coefficients are monoidal when a full turn of every
    # admissible word (a, b, c), one cone-isomorphism step at each anchor in
    # the closed form of graphcalc.rotation_matrix, is the identity: the
    # step from the anchor x, with letters (x, y, z), scales the one tree
    # by lambda(x) Finv[x, y, z, 1]_(x*, z*), where lambda(x) = rcoev_x
    # lev_x F[x*, x, x*, x*]_(1, 1); rotations by k steps rely on it
    bad = []
    for a, b in product(range(n), repeat=2):
        for c in (data.dual[e] for e in data.fuse(a, b)):
            turn = data.field.one()
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                xd = data.dual[x]
                f11 = data.f_entry(xd, x, xd, xd, unit, unit)
                f = data.finv_entry(x, y, z, unit, xd, data.dual[z])
                if f11 is None or f is None:
                    turn = data.field.zero()
                    break
                turn = turn * data.rcoev_scalar(x) * data.lev_scalar(x) * f11 * f
            if not turn.is_one():
                bad.append((a, b, c))
    rep.add("pivotal monoidal", not bad,
            f"full turn of (a,b,c) is not the identity at {bad[:3]}" if bad else "")

    bad = [i for i in range(n) if data.dim_l[i] != data.dim_r[i]]
    rep.add("spherical", not bad, f"labels {bad}" if bad else "")

    dim1 = neutral_dimension(data)
    rep.add("neutral dimension invertible", not dim1.is_zero(),
            "" if not dim1.is_zero() else "dim(C_1) = 0")
    bad = []
    for h in g.elements():
        sec = data.sector(h)
        if not sec:
            continue
        total = data.field.zero()
        for i in sec:
            total = total + data.dim_l[i] * data.dim_r[i]
        if total != dim1:
            bad.append(h)
    rep.add("sector dimension identity", not bad, f"grades {bad}" if bad else "")
    return rep


def _pentagon_holds(data: GFusionData, a, b, c, d, u, e, f, g, k) -> bool:
    """The pentagon at one index tuple: sum_h F[b,c,d,k]_(h,g) F[a,h,d,u]_(f,k)
    F[a,b,c,f]_(e,h) = F[a,b,g,u]_(e,k) F[e,c,d,u]_(f,g).  Only the fusion
    triples that the walk of :func:`validate_category` leaves open are
    tested; an inadmissible side is zero."""
    fe = data.f_entry
    lhs = rhs = data.field.zero()
    for h in data.fuse(b, c):
        if data.nmat(h, d, k) and data.nmat(a, h, f):
            lhs = lhs + fe(b, c, d, k, h, g) * fe(a, h, d, u, f, k) * fe(a, b, c, f, e, h)
    if data.nmat(e, g, u):
        rhs = fe(a, b, g, u, e, k) * fe(e, c, d, u, f, g)
    return lhs == rhs


def neutral_dimension(data: GFusionData) -> FieldElement:
    total = data.field.zero()
    for i in data.sector(data.group.identity):
        total = total + data.dim_l[i] * data.dim_r[i]
    return total


# ---------------------------------------------------------------------------
# universal grading


class UnionFind:
    """Disjoint classes of 0..n-1; each class is rooted at its least member."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the classes of x and y; False when they were one already."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[max(rx, ry)] = min(rx, ry)
        return True


def backtrack(candidates, checks) -> list:
    """Every tuple whose value i comes from ``candidates[i]`` and passes each
    function in ``checks[i]``, called on the list of values with slots
    0..i set.  Slots are filled in index order, so the tuples come in the
    order of the product of the candidate lists; zero slots give ``[()]``."""
    n = len(candidates)
    out, values, pos = [], [None] * n, [0] * n   # pos[i]: next candidate to try
    i = 0
    while i >= 0:
        if i == n:
            out.append(tuple(values))
            i -= 1
        elif pos[i] < len(candidates[i]):
            values[i] = candidates[i][pos[i]]
            pos[i] += 1
            for check in checks[i]:
                if not check(values):
                    break
            else:
                i += 1
        else:
            pos[i] = 0
            i -= 1
    return out


def graduator(data: GFusionData):
    """Universal grading of the fusion ring: classes of simples under the
    congruence generated by 'co-summands of a product are equivalent',
    iterated until multiplication of classes is well defined.  Returns
    (FiniteGroup, projection list simple -> class index)."""
    n = data.n
    classes = UnionFind(n)
    find, union = classes.find, classes.union
    for i in range(n):
        for j in range(n):
            ks = data.fuse(i, j)
            for k in ks[1:]:
                union(ks[0], k)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if find(i) == find(j):
                    for c in range(n):
                        for x in data.fuse(i, c):
                            for y in data.fuse(j, c):
                                if union(x, y):
                                    changed = True
                        for x in data.fuse(c, i):
                            for y in data.fuse(c, j):
                                if union(x, y):
                                    changed = True
    reps = sorted({find(i) for i in range(n)})
    index = {r: k for k, r in enumerate(reps)}
    proj = [index[find(i)] for i in range(n)]
    m = len(reps)
    table = [[None] * m for _ in range(m)]
    for i in range(n):
        for j in range(n):
            ks = data.fuse(i, j)
            if not ks:
                continue
            ci, cj, ck = proj[i], proj[j], proj[ks[0]]
            if table[ci][cj] is None:
                table[ci][cj] = ck
            elif table[ci][cj] != ck:
                raise ValueError("fusion table admits no universal grading")
    for ci in range(m):
        for cj in range(m):
            if table[ci][cj] is None:
                raise ValueError("fusion table admits no universal grading")
    group = FiniteGroup(table, name=f"graduator({data.name})")
    return group, proj


# ---------------------------------------------------------------------------
# push-forward


def push_forward(data: GFusionData, phi: GroupHom) -> GFusionData:
    """Regrade along a surjective homomorphism with finite kernel: same
    simples, F-symbols and dimensions, grade composed with phi."""
    if phi.src != data.group:
        raise ValueError("homomorphism source does not match the grading group")
    if not phi.is_surjective():
        raise ValueError("push-forward needs a surjective homomorphism")
    grade = [phi(h) for h in data.grade]
    return GFusionData(data.field, phi.dst, data.names, grade, data.dual,
                       data.fusion_set, data.fsym, data.dim_l, data.dim_r,
                       data.pivotal, name=f"pushforward({data.name})")


# ---------------------------------------------------------------------------
# file format


def _compact(elem_text: str) -> str:
    return elem_text.replace(" ", "")


def save_category(data: GFusionData) -> str:
    """Serialize to the category file format (structured text, one datum
    per line; fusion triples carry a multiplicity column, 1 in v1)."""
    lines = [f"# statesum3d category v1", f"name {data.name}",
             f"field {data.field.to_text()}"]
    gname = data.group.name
    if gname and gname[0] in "ZDS1" and gname != "G":
        lines.append(f"group {gname}")
    else:
        lines.append(f"group table {data.group.order}")
        for row in data.group.table:
            lines.append("  " + " ".join(str(x) for x in row))
    lines.append(f"simples {data.n}")
    for i in range(data.n):
        lines.append(
            f"simple {i} name {data.names[i]} grade {data.grade[i]} dual {data.dual[i]} "
            f"dim_l {_compact(data.dim_l[i].to_text())} dim_r {_compact(data.dim_r[i].to_text())} "
            f"pivotal {_compact(data.pivotal[i].to_text())}")
    for (i, j, k) in sorted(data.fusion_set):
        lines.append(f"fusion {i} {j} {k} 1")
    for key in sorted(data.fsym):
        a, b, c, d, e, f = key
        lines.append(f"fsym {a} {b} {c} {d} {e} {f} {_compact(data.fsym[key].to_text())}")
    return "\n".join(lines) + "\n"


_CATEGORY = records.Format(
    "category", ("name NAME", "field JSON...", "group table N:", "group GROUP", "simples N",
                 "simple I name NAME grade G dual D dim_l VALUE dim_r VALUE pivotal VALUE",
                 "fusion I J K M", "fsym A B C D E F VALUE"),
    numbered={"simple": 1, "fusion": 3, "fsym": 6})


def _group_table(n: int, rows) -> FiniteGroup:
    """The group of a ``group table N`` block: N rows of N elements 0..N-1."""
    if len(rows) < n:
        raise ValueError(f"group table ends after {len(rows)} of {n} rows")
    table = []
    for row in rows:
        cells = row.split()
        if len(table) == n or len(cells) != n or not all(c.isdecimal() and int(c) < n
                                                         for c in cells):
            raise ValueError(f"bad group table row {row!r}: expected {n} rows "
                             f"of {n} elements of 0..{n - 1}")
        table.append([int(c) for c in cells])
    return FiniteGroup(table)


def _category_args(text: str) -> tuple:
    """The arguments of :class:`GFusionData` that a category file gives,
    in order; the constructor copies what it keeps, so they can be reused."""
    recs = _CATEGORY.read(text)
    spec = recs.one("field")
    try:
        field = FieldSpec.from_text(spec)
    except ValueError as exc:
        raise recs.bad("field", (), exc) from None

    def element(key, number, value):
        try:
            return FieldElement.from_text(field, value)
        except (ValueError, ZeroDivisionError) as exc:
            raise recs.bad(key, number, exc) from None

    group = recs.one("group")
    group = _group_table(*group) if isinstance(group, tuple) else FiniteGroup.by_name(group)
    n = recs.one("simples")
    simples = recs.numbered("simple", range(n), "simple line for simple")
    for i, (_, grade, dual, *_) in enumerate(simples):
        if not 0 <= grade < group.order:
            raise recs.bad("simple", i, f"grade outside 0..{group.order - 1}")
        if not 0 <= dual < n:
            raise recs.bad("simple", i, f"dual outside 0..{n - 1}")
    for triple, mult in recs.items("fusion"):
        if any(x not in range(n) for x in triple):
            raise recs.bad("fusion", triple, f"label outside 0..{n - 1}")
        if mult != 1:
            raise recs.bad("fusion", triple, "fusion multiplicities > 1 are not supported in v1")
    fsym = {key: element("fsym", key, value) for key, value in recs.items("fsym")}
    dims = [[element("simple", i, value) for value in values[3:]]
            for i, values in enumerate(simples)]
    return (field, group, [s[0] for s in simples], [s[1] for s in simples],
            [s[2] for s in simples], [triple for triple, _ in recs.items("fusion")],
            fsym, [d[0] for d in dims], [d[1] for d in dims], [d[2] for d in dims],
            recs.get("name", "category"))


def load_category(text: str) -> GFusionData:
    return GFusionData(*_category_args(text))


@functools.cache
def _shipped_category_args(name: str) -> tuple:
    """The parse of a shipped category file, made once per process."""
    return _category_args(records.shipped_text("category", name))


def builtin_category_names() -> list:
    """The names of the shipped categories: the files ``data/categories/<name>.cat``."""
    return records.shipped_names("category")


def builtin_category(name: str) -> GFusionData:
    """The shipped category ``data/categories/<name>.cat``; an unknown name
    is a ``ValueError``.  Only the parse is kept between calls: each call
    builds a new object, whose F-inverse and link-evaluation memos start
    empty, so one command's work is not carried into the next."""
    return GFusionData(*_shipped_category_args(name))
