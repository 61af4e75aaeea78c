"""Multiplicity modules and evaluation of colored graphs on the 2-sphere.

The computational model is the strictified word category of a skeletal
backend: objects are words of simple labels, and a vector in
``Hom(1, w_1 (x) ... (x) w_n)`` is stored in the left-combed tree basis.  A
tree is the tuple of intermediate labels ``(m_1, ..., m_n)`` with
``m_j in m_(j-1) (x) w_j`` (``m_0`` the unit) and ``m_n`` the unit.  All
operations are insertions of ``id (x) elementary (x) id`` and are realized
on tree coordinates by single F-moves; see the convention block in
:mod:`statesum3d.catdata`.  The trees of a word are enumerated once per
category (:func:`_trees`), and the rank of its multiplicity module
(:func:`hom_dim`) is their number.

A colored graph is evaluated by a planar sweep (:func:`evaluate_graph`):
its plan of box and cap actions, built from the uncoloured graph and outer
face by one pass with no search (:func:`_sweep_plan`), runs with the edge
colours (:func:`_sweep`) on a flat state ``{(path, choice): value}``:
``path`` is a tree of the current word and ``choice`` lists the basis tree
taken at each vertex inserted so far.  Both sweep actions read transfer tables
memoized in the category's ``_memo``, each checked once, when it is made:

* box tables ``("box", letters)``, one per basis tree ``tree`` of
  ``Hom(1, letters)`` (:func:`_box`), looked up by the intermediate
  ``mb`` before the insertion point: the (inserted intermediates,
  coefficient) pairs of ``tree`` inserted after ``mb`` (:func:`_box_rows`,
  k - 1 F-moves); the rest of the path is unchanged;
* cap table ``("cap", color, kind)``, which holds the table, the two
  letters and the lev or rev scalar (:func:`_cap_table`), its table looked
  up by the intermediates ``(path[q-1], path[q], path[q+1])`` around the
  capped letters: the inverse F-entry that fuses them into the unit times
  the scalar (:func:`_cap_coeff`), or None where that vanishes.

Every state value and table coefficient is nonzero, and in a number field
so is their product; a cap tests for zero only the keys on which it summed
two or more terms.

The sweep's result is re-based to the slot anchors one vertex at a time,
through the same slot maps as a link tensor's (:func:`_slot_map`,
:func:`_mapped`).

The Gram matrix of the duality pairing is read off the same cap table in
closed form (:func:`_gram_support`): both trees are boxed in after the
unit, where no F-move applies, and the caps from the middle out keep only
the tree of H(E^opp) with the reversed intermediates, so column t holds
one product of n cap coefficients.  The matrix is monomial, and its
inverse holds the reciprocals at the transposed positions; no elimination
runs.  The paired slot map at steps 0 (:func:`_slot_map`) keeps that
inverse as one pair ``(t, Ginv[t][u])`` per tree u of H(E^opp), read off
the memoized trees of the two words and the cap tables with no basis
object; :class:`PairingData` is the dense view of the same entries.

The link tensors of a skeleton's vertices come from link programs
(:class:`_LinkProgram`), one per link, which read off its uncoloured
rotation system, once, all that does not depend on colour.  A program's
tensor is one sweep per isomorphism class of colored link, kept in the
category's one memo entry per canonical code of the uncoloured link,
re-based to the link's own anchors, with the pairing of every edge folded
into the tensor at the edge's end 1, and that of every top end of a
cobordism at the end.
An edge of the state sum then contracts by equal indices, and a top index
comes out in the tree basis of the top surface.
The classes forget edge directions: in a pivotal category a strand
coloured c is the reversed strand coloured c* (Turaev and Virelizier,
"Monoidal Categories and Topological Field Theory"), which every box and
cap reads as the same letters, so only the cap's scalar changes, by
``rev_c / lev_(c*)`` or ``lev_c / rev_(c*)`` (:func:`_reversal_scalar`),
multiplied in only where it is not one.  Most class sweeps have one entry,
whose every index the re-basing and pairing take to one tree; such a
tensor is one product, made in one pass (:func:`_composed`).  Any other
is mapped one slot at a time (:func:`_mapped`), so that dense rows do not
multiply out.

The cone isomorphism that re-anchors a multiplicity module k steps on
(moving the first k legs to the end) is applied in closed form, as one
block bend of the simple channel ``M = m_k`` that those legs fuse to in a
tree ``(m_1, ..., m_n)``: n - k - 1 inverse F-moves pull M out of the comb
of the later letters, ``B(M, M*; 1)`` is bent to ``lambda B(M*, M; 1)``
with

    lambda(M) = rcoev_M lev_M F[M*, M, M*, M*]_(1, 1)

(:func:`_bend_scalar` derives it from the cup and cap of the round trip it
replaces), and k - 1 F-moves re-attach the comb of the first k letters
after M*, by the comb F-moves of a box table (:func:`_box_rows`).  The
two partial sums read different intermediates, so each column of the
rotation is their product, at n - 2 F-moves per tree for every k.  One
lambda per channel suffices: the pivotal structure is monoidal, so k
one-step rotations are one rotation of the block, and the step of a
signed colour ``(c, -1)`` is that of the label ``c*``.  The result is
read off as sparse rows (:func:`_rebase_rows`), which depend on
the word alone; the slot maps memoize them once per word and step count
(:func:`_slot_map`), and a paired map composes them with its pairing.

Cyclic sets follow the surface convention that the half-edge order at a
vertex is taken clockwise (opposite surface orientation), a half-edge
pointing at the vertex carries sign +, and the object of a signed color
``(c, -)`` is the dual label.  A cap closing an edge is a left evaluation
when the tail-side strand is on the left and a right evaluation otherwise;
this matches the circle normalization where the invariant of a clockwise
unknot against a basis vector of Hom(1, U* (x) U) is the left evaluation.
"""

from __future__ import annotations

from itertools import accumulate, product as iproduct
from math import prod
from operator import itemgetter

from . import InternalError, records
from .catdata import GFusionData, UnionFind
from .exactnum import FieldElement

__all__ = [
    "InternalError",
    "CyclicCSet",
    "MultiplicityBasis",
    "VertexTensorSlot",
    "ColoredGraph",
    "GraphTensor",
    "hom_dim",
    "tree_paths",
    "rotation_matrix",
    "PairingData",
    "evaluate_graph",
    "trace_rotation_faces",
    "save_graph",
    "parse_graph",
]


class CyclicCSet:
    """Cyclically ordered sequence of signed colors; the stored tuple fixes
    a base order, rotation picks another anchor."""

    def __init__(self, items):
        self.items = tuple((int(c), int(s)) for c, s in items)
        if not self.items:
            raise ValueError("cyclic set must be non-empty")
        if any(s not in (1, -1) for _, s in self.items):
            raise ValueError("signs must be +1 or -1")

    def __len__(self):
        return len(self.items)

    def rotate(self, k: int) -> "CyclicCSet":
        k %= len(self.items)
        return CyclicCSet(self.items[k:] + self.items[:k])

    def opp(self) -> "CyclicCSet":
        """Dual cyclic set anchored so its word is the reversed dual word."""
        return CyclicCSet(tuple((c, -s) for c, s in reversed(self.items)))

    def word(self, data: GFusionData) -> tuple:
        return _word(data, self.items)

    def __eq__(self, other):
        return isinstance(other, CyclicCSet) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __repr__(self):
        body = " ".join(f"{c}{'+' if s > 0 else '-'}" for c, s in self.items)
        return f"CyclicCSet({body})"


def _word(data: GFusionData, items) -> tuple:
    """The word of the signed colours ``items``: ``c`` for ``(c, +1)``, the
    dual label for ``(c, -1)``."""
    dual = data.dual
    return tuple([c if s > 0 else dual[c] for c, s in items])


def tree_paths(data: GFusionData, word) -> list:
    """Left-combed basis trees of Hom(1, word), each a tuple of
    intermediates ending at the unit."""
    unit = data.unit
    paths = [()]
    for j, w in enumerate(word):
        nxt = []
        last = len(word) - 1 == j
        for p in paths:
            m = p[-1] if p else unit
            for m2 in data.fuse(m, w):
                if last and m2 != unit:
                    continue
                nxt.append(p + (m2,))
        paths = nxt
    return paths


def hom_dim(data: GFusionData, seq) -> int:
    """Rank of Hom(1, X1^e1 (x) ... (x) Xn^en): the number of its basis
    trees (:func:`_trees`)."""
    items = tuple(seq)
    for c, _ in items:
        if not 0 <= c < data.n:
            raise ValueError(f"unknown simple index {c}")
    return len(_trees(data, _word(data, items)))


def _trees(data: GFusionData, word: tuple) -> tuple:
    """``tree_paths`` of ``word``, built once per category."""
    key = ("trees", word)
    trees = data._memo.get(key)
    if trees is None:
        trees = data._memo[key] = tuple(tree_paths(data, word))
    return trees


class MultiplicityBasis:
    """Tree basis of the multiplicity module of a cyclic set, anchored at a
    chosen element."""

    def __init__(self, data: GFusionData, cset: CyclicCSet, anchor: int = 0):
        self.data = data
        self.cset = cset
        self.anchor = anchor % len(cset)
        self.anchored = cset.rotate(self.anchor)
        self.word = self.anchored.word(data)
        self.trees = list(_trees(data, self.word))

    def dim(self) -> int:
        return len(self.trees)

    def __repr__(self):
        return f"MultiplicityBasis({self.anchored!r}, dim {self.dim()})"


class VertexTensorSlot:
    """Requested reporting basis for one graph vertex."""

    def __init__(self, vertex: int, anchor: int = 0):
        self.vertex = vertex
        self.anchor = anchor


def _bend_scalar(data: GFusionData, x: int) -> FieldElement:
    """The scalar lambda with which one cone-isomorphism step turns the
    two-letter tree ``B(x, x*; 1)`` into ``lambda B(x*, x; 1)``, for the
    label ``x`` read as the signed colour ``(x, +1)``.

    The step is the round trip ``(lev_x (x) id) (id_x* (x) T (x) id_x)
    rcoev_x``.  On ``T = B(x, x*; 1)``: the cup puts the tree ``(x*, 1)``
    times ``rcoev_x``; inserting T after its first letter splits the unit
    between them into ``(x, x*)`` by ``F[x*, x, x*, x*]_(mu, 1)``, towards
    the intermediates ``(x*, mu, x*, 1)``; the cap fuses the first two
    letters into the unit, which keeps only ``mu = 1`` (an inverse unit
    block, 1), and scales by ``lev_x``.  Hence

        lambda(x) = rcoev_x lev_x F[x*, x, x*, x*]_(1, 1).

    The step of a signed colour ``(c, -1)``, the round trip through
    ``lcoev_c`` and ``rev_c``, bends the same letters by
    ``lcoev_c rev_c F[x*, x, x*, x*]_(1, 1)`` with ``x = c*``, which is
    ``lambda(c*)`` since ``dim_l(c*) = dim_r(c)`` in a pivotal category
    (with the duality-scalar checks, the full turn of the word
    ``(c, c*, 1)`` that ``validate_category`` checks implies it).
    """
    xd = data.dual[x]
    lam = data.rcoev_scalar(x) * data.lev_scalar(x)
    return lam * data.f_entry(xd, x, xd, xd, data.unit, data.unit)


def rotation_matrix(data: GFusionData, basis: MultiplicityBasis, steps: int):
    """Matrix R of the iterated cone isomorphism from ``basis`` to the basis
    anchored ``steps`` further on: image of basis vector s is
    ``sum_t R[t][s] (target tree t)``.

    A rotation by k steps moves the first k legs of a left-comb tree to the
    end as one block, in closed form by F-moves and one bending scalar (the
    A/B move of Kitaev, "Anyons in an exactly solved model and beyond",
    App. E; Bonderson, "Non-Abelian anyons and interferometry", sec. 2).
    The pivotal structure of a spherical category is monoidal (Turaev and
    Virelizier, "Monoidal Categories and Topological Field Theory"), so k
    one-step rotations of the letters ``x_1, ..., x_k`` are one rotation of
    their product, and by naturality one of the simple channel
    ``M = m_k`` they fuse to in the tree ``(m_1, ..., m_n)``:

    1. n - k - 1 inverse F-moves pull M out of the comb of
       ``x_(k+1), ..., x_n``, for j = k+2..n:

           (B(M, y_(j-1); m_(j-1)) (x) id) B(m_(j-1), x_j; m_j)
               = sum_(y_j) Finv[M, y_(j-1), x_j, m_j]_(y_j, m_(j-1))
                 (id (x) B(y_(j-1), x_j; y_j)) B(M, y_j; m_j),

       from ``y_(k+1) = x_(k+1)`` to ``y_n = M*``;
    2. ``B(M, M*; 1)`` is bent to ``lambda(M) B(M*, M; 1)``
       (:func:`_bend_scalar`);
    3. k - 1 F-moves re-attach the comb of ``x_1, ..., x_k`` after M*,
       for j = k down to 2:

           (id (x) B(m_(j-1), x_j; m_j)) B(M*, m_j; z_j)
               = sum_(z_(j-1)) F[M*, m_(j-1), x_j, z_j]_(z_(j-1), m_j)
                 (B(M*, m_(j-1); z_(j-1)) (x) id) B(z_(j-1), x_j; z_j),

       from ``z_k = 1`` to ``z_1`` in ``M* (x) x_1``: the comb F-moves
       of the sweep's box tables (:func:`_box_rows`), started from the
       unit, where a box starts from the intermediate it goes in after.

    The two partial sums depend on different intermediates of the tree, so
    its image is their product ``(y_(k+1), ..., y_n, z_1, ..., z_k)``, and
    every k costs n - 2 F-moves per tree.  One lambda per channel suffices
    because the step of a signed colour ``(c, -1)`` is that of the label
    ``c*`` (:func:`_bend_scalar`); :func:`~statesum3d.catdata.validate_category`
    checks that the pivotal coefficients are monoidal, by a full turn of
    every admissible three-letter word.  The matrix is the dense view of the
    sparse rows of :func:`_rebase_rows`.
    """
    rows = _rebase_rows(data, basis.anchored.items, steps % len(basis.cset))
    return [[row.get(s, data.field.zero()) for s in range(basis.dim())] for row in map(dict, rows)]


def _rebase_rows(data: GFusionData, items: tuple, steps: int) -> tuple:
    """Sparse rows of :func:`rotation_matrix` for the basis anchored at the
    first of ``items`` and ``0 <= steps < n``: row t lists the pairs
    ``(s, R[t][s])`` with a nonzero value, s ascending.  Column s is the
    block bend of source tree s, the product of its two partial sums; the
    second is the comb of the first k letters after M* (:func:`_box_rows`).
    The rows read only the word of ``items``."""
    word = _word(data, items)
    trees = _trees(data, word)
    one = data.field.one()
    if not steps:
        return tuple(((s, one),) for s in range(len(trees)))
    index = {t: i for i, t in enumerate(_trees(data, word[steps:] + word[:steps]))}
    out = [[] for _ in index]
    lams = {}
    for s, path in enumerate(trees):
        m = path[steps - 1]
        if m not in lams:
            lams[m] = _bend_scalar(data, m)
        # steps 1 and 2 of rotation_matrix: pull M out of the later comb, bend
        heads = {(word[steps],): lams[m]}
        for j in range(steps + 1, len(word)):
            nxt = {}
            for ys, v in heads.items():
                for y in data.fuse(ys[-1], word[j]):
                    f = data.finv_entry(m, ys[-1], word[j], path[j], y, path[j - 1])
                    if f is not None and not f.is_zero():
                        nxt[ys + (y,)] = v * f
            heads = nxt
        # step 3: re-attach the first k letters after M*
        tails = _box_rows(data, word[:steps], path, data.dual[m], data.unit)
        for ys, u in heads.items():
            for zs, v in tails:
                t = index.get(ys + zs)
                if t is None:
                    raise InternalError(f"rotating {items} by {steps} reaches no tree {ys + zs}")
                out[t].append((s, u * v))
    return tuple(map(tuple, out))


# ---------------------------------------------------------------------------
# the planar sweep on tree coordinates


def _box_rows(data: GFusionData, letters: tuple, tree: tuple, mb: int, top: int) -> tuple:
    """The comb F-moves: the pairs (inserted intermediates, coefficient)
    with which the comb of the k letters ``letters`` through the
    intermediates ``tree``, inserted after the intermediate ``mb`` and
    fused with it into ``top``, expands in the comb after ``mb``.

    Row ``mb`` of the box table of a basis tree ``tree`` of Hom(1, letters)
    has ``top = mb``: the unit goes in after ``mb``.  Step 3 of
    :func:`rotation_matrix` has ``mb = M*`` and ``top`` the unit: the first
    k letters, which fuse to M in ``tree``, are re-attached after M*.
    Either way ``top`` is split k - 1 times at the insertion point, for
    j = k-1 down to 1, by ``B(tree[j-1], letters[j]; tree[j])``:

        (id (x) B(a, b; x)) B(mb, x; ma)
            = sum_mu F[mb, a, b, ma]_(mu, x) (B(mb, a; mu) (x) id) B(mu, b; ma),

    where ``ma`` is the first intermediate inserted so far."""
    rows = {(top,): data.field.one()}
    for j in range(len(letters) - 1, 0, -1):
        a, b, x = tree[j - 1], letters[j], tree[j]
        nxt = {}
        for ins, v in rows.items():
            for mu in data.fuse(mb, a):
                f = data.f_entry(mb, a, b, ins[0], mu, x)
                if f is not None and not f.is_zero():
                    nxt[(mu,) + ins] = v * f
        rows = nxt
    return tuple(rows.items())


def _box(data: GFusionData, states: dict, p: int, letters: tuple) -> dict:
    """Insert every basis tree of Hom(1, letters) at word position p into the
    sweep states ``{(path, choice): value}``; the i-th tree appends i to
    the choice.  Each image is one path, so nothing sums or cancels.

    The box tables of the word are memoized as one tuple ``("box",
    letters)``, a pair (tree, table) per basis tree, the table mapping
    ``mb`` to the rows of :func:`_box_rows`; the trees are checked when it
    is made."""
    key = ("box", letters)
    tables = data._memo.get(key)
    if tables is None:
        trees = _trees(data, letters)
        for tree in trees:
            for j in range(len(letters) - 1, 0, -1):
                if not data.nmat(tree[j - 1], letters[j], tree[j]):
                    raise ValueError("inadmissible split")
            if letters and tree[0] != letters[0]:
                raise InternalError(f"tree {tree} does not start at letter {letters[0]}")
        tables = data._memo[key] = tuple((tree, {}) for tree in trees)
    unit = data.unit
    out = {}
    for (path, choice), val in states.items():
        mb = path[p - 1] if p else unit
        head, tail = path[:p], path[p:]
        for i, (tree, table) in enumerate(tables):
            rows = table.get(mb)
            if rows is None:
                rows = table[mb] = _box_rows(data, letters, tree, mb, mb)
            chosen = choice + (i,)
            for ins, c in rows:
                out[(head + ins + tail, chosen)] = val * c
    return out


def _cap_coeff(data: GFusionData, corner: tuple, a: int, b: int, scalar: FieldElement):
    """Coefficient of the cap on the letters (a, b) at the intermediates
    ``corner = (mb, mu, ma)`` around them: fusing a and b into the unit
    takes ``Finv[mb, a, b, ma]_(1, mu)``, which needs ``ma = mb``, and the
    evaluation scales by ``scalar``.  None when it vanishes."""
    mb, mu, ma = corner
    if not data.nmat(mb, data.unit, ma):
        return None
    f = data.finv_entry(mb, a, b, ma, data.unit, mu)
    if f is None or f.is_zero():
        return None
    c = f * scalar
    return None if c.is_zero() else c


def _cap_table(data: GFusionData, color: int, kind: str) -> tuple:
    """``(table, left, right, scalar)`` of the cap that closes ``color`` by
    lev (kind 'l': letters (c*, c)) or rev ('r': (c, c*)): the letters, the
    evaluation scalar and the table of :func:`_cap_coeff` by corner,
    memoized whole as ``("cap", color, kind)`` once the letters are found
    to fuse to the unit."""
    key = ("cap", color, kind)
    cap = data._memo.get(key)
    if cap is None:
        dual = data.dual[color]
        if kind == "l":
            left, right, scalar = dual, color, data.lev_scalar(color)
        else:
            left, right, scalar = color, dual, data.rev_scalar(color)
        if not data.nmat(left, right, data.unit):
            raise ValueError("inadmissible fuse")
        cap = data._memo[key] = ({}, left, right, scalar)
    return cap


def _cap(data: GFusionData, states: dict, word: tuple, q: int, color: int,
         kind: str) -> dict:
    """Close the strands at word positions q and q + 1 of the sweep states by
    lev (kind 'l': letters (c*, c)) or rev ('r': (c, c*)) of ``color``.
    States and cap coefficients are nonzero, so only a key on which terms
    were summed can vanish, and only those are tested."""
    table, left, right, scalar = _cap_table(data, color, kind)
    if word[q] != left or word[q + 1] != right:
        raise InternalError(f"cap {kind} of {color} at {q} meets letters {word[q:q + 2]}")
    unit = data.unit
    out: dict = {}
    summed = set()
    for (path, choice), val in states.items():
        corner = (path[q - 1] if q else unit, path[q], path[q + 1])
        c = table.get(corner, False)
        if c is False:
            c = table[corner] = _cap_coeff(data, corner, left, right, scalar)
        if c is None:
            continue
        key = (path[:q] + path[q + 2:], choice)
        term = val * c
        cur = out.get(key)
        if cur is None:
            out[key] = term
        else:
            out[key] = cur + term
            summed.add(key)
    for key in summed:
        if out[key].is_zero():
            del out[key]
    return out


class PairingData:
    """Gram data of the duality pairing of a cyclic set E: rows are indexed
    by the trees of H(E^opp) (anchored per :meth:`CyclicCSet.opp`), columns
    by the trees of H(E).  Entry [u][t] is the sweep that inserts tree t of
    H(E) and then tree u of H(E^opp) after it, and caps the n strand pairs
    from the middle out; ``tests/refsweep.py`` runs that sweep.

    Here it is read off in closed form.  Both trees go in after the unit,
    where a box takes no F-move, so the sweep starts on the path ``t + u``.
    A cap keeps only equal intermediates on its two sides, so from the
    middle out the caps match ``u`` with the reversed intermediates of
    ``t = (m_1, ..., m_n = 1)``: column t is nonzero at most at the tree
    ``u = (m_(n-1), ..., m_1, 1)``, with the value

        prod_(k=1..n) cap(c_k, s_k) at the corner (m_(k-1), m_k, m_(k-1)),

    ``m_0`` the unit and ``cap`` the memoized coefficient of the sweep's cap
    table (:func:`_cap_coeff`).  The Gram matrix is therefore monomial, and
    so is its inverse.  The entries come from :func:`_gram_support`, which
    the paired slot maps call directly; this class is their dense view, and
    link evaluation builds none."""

    def __init__(self, data: GFusionData, cset: CyclicCSet):
        self.data = data
        self._gram = _gram_support(data, cset.items)

    @property
    def gram(self):
        """Gram matrix, entry [u][t]: the dense view of the nonzero
        entries."""
        support, rows, columns = self._gram
        zero = self.data.field.zero()
        gram = [[zero] * columns for _ in range(rows)]
        for row, col, value in support:
            gram[row][col] = value
        return gram

    def gram_inverse(self):
        """Inverse Gram; entry [t][u] pairs an H(E)-tree with an
        H(E^opp)-tree in the contraction of dual vectors: the dense view of
        :func:`_inverse_pairs`."""
        pairs = _inverse_pairs(*self._gram)
        inv = [[self.data.field.zero()] * len(pairs) for _ in pairs]
        for u, (t, value) in enumerate(pairs):
            inv[t][u] = value
        return inv


def _gram_support(data: GFusionData, items: tuple) -> tuple:
    """``(support, rows, columns)`` of the Gram matrix of
    :class:`PairingData` for the cyclic set E of the signed colours
    ``items``: its nonzero entries ``(row, column, value)`` and its shape.
    They are read off the memoized trees of the word of E and of E^opp
    (the reversed dual word) and the memoized cap tables, with no basis
    object: column t, a tree ``(m_1, ..., m_n)`` of H(E), meets the row of
    the tree ``(m_(n-1), ..., m_1, 1)`` of H(E^opp) in the product of its n
    cap coefficients."""
    unit = data.unit
    row_of = {u: i for i, u in enumerate(
        _trees(data, _word(data, [(c, -s) for c, s in reversed(items)])))}
    caps = [_cap_table(data, c, "r" if s > 0 else "l") for c, s in items]
    trees = _trees(data, _word(data, items))
    support = []
    for col, tree in enumerate(trees):
        row = row_of.get(tree[-2::-1] + (unit,))
        value, prev = data.field.one(), unit
        for (table, left, right, scalar), m in zip(caps, tree):
            corner = (prev, m, prev)
            c = table.get(corner, False)
            if c is False:
                c = table[corner] = _cap_coeff(data, corner, left, right, scalar)
            if c is None:
                break
            value = value * c
            prev = m
        else:
            if row is not None:
                support.append((row, col, value))
    return support, len(row_of), len(trees)


def _inverse_pairs(support: list, rows: int, columns: int) -> tuple:
    """The inverse of the monomial Gram matrix ``(support, rows, columns)``
    of :func:`_gram_support`, which holds the reciprocals at the transposed
    positions, by rows of the Gram matrix: entry u, a tree of H(E^opp), is
    ``(t, Ginv[t][u])`` for the one tree t of H(E) it pairs with."""
    if rows != columns:
        raise ValueError("matrix is not square")
    if len(support) < rows:
        raise ValueError("singular matrix")
    pairs = [None] * rows
    for row, col, value in support:
        pairs[row] = (col, value.inv())
    return tuple(pairs)


# ---------------------------------------------------------------------------
# colored graphs on the sphere


def trace_rotation_faces(rotations):
    """Face orbits of a rotation system on any closed oriented surface.
    Returns (faces, dart_pos); corners (v, i) sit between rotations[v][i]
    and its cyclic successor."""
    dart_pos = {}
    for v, rot in enumerate(rotations):
        for i, d in enumerate(rot):
            dart_pos[tuple(d)] = (v, i)
    return _walk_faces(rotations, dart_pos), dart_pos


def _walk_faces(rotations, dart_pos):
    """Face orbits of the corners, each walked from its least corner."""
    corners = {(v, i) for v, rot in enumerate(rotations) for i in range(len(rot))}
    faces = []
    while corners:
        start = min(corners)
        walk = []
        cur = start
        while True:
            walk.append(cur)
            corners.discard(cur)
            v, i = cur
            rot = rotations[v]
            e, end = rot[(i + 1) % len(rot)]
            cur = dart_pos[(e, 1 - end)]
            if cur == start:
                break
        faces.append(tuple(walk))
    return faces


def _canonical_rotation_system(rotations) -> tuple:
    """Rooted canonical form of a connected rotation system, edge directions
    forgotten (``rotations[v]`` the darts ``(edge, end)`` at v, as in
    :class:`ColoredGraph`).

    From a root dart, a breadth-first walk numbers the vertices in the order
    it reaches them, starts each vertex's rotation at the dart it arrived
    by (the root's at the root dart), and numbers the edges in the order it
    meets them.  Its code lists, per vertex in that order, the darts from
    the start on as (number of the vertex at the other end, position of the
    other dart after that vertex's start).  Two rotation systems have the
    same least code over all root darts exactly when an
    orientation-preserving isomorphism of the undirected graphs maps one
    onto the other, and then it maps vertex ``order[k]`` with rotation start
    ``starts[order[k]]`` and the dart ``tails[j]``, where the walk meets
    edge j first, to their counterparts: the tail of the canonical edge j.

    The roots are taken in order, and a walk stops at the first row of its
    code that compares greater than the same row of the least code so far
    (:func:`_root_walk`); among equal codes the first root is kept.  A
    root whose code ties the least one is the image of the first least
    root under an automorphism, the dart permutation that matches the two
    walks; each dart is merged with its image in a union-find, so the
    classes are orbits of automorphisms, and a root is skipped when the
    least dart of its class, walked or skipped before it, is not itself:
    an automorphism keeps the code of every root.  Returns ``(code, order,
    starts, tails)``."""
    base = [0, *accumulate(map(len, rotations))]  # dart (v, i) is number base[v] + i
    dart_pos = {d: (v, i) for v, rot in enumerate(rotations) for i, d in enumerate(rot)}
    other = [[dart_pos[(e, 1 - end)] for e, end in rot] for rot in rotations]
    orbits = UnionFind(base[-1])
    best = None
    for v0, rot in enumerate(other):
        for i0 in range(len(rot)):
            root = base[v0] + i0
            if orbits.find(root) != root:
                continue
            walk = _root_walk(other, v0, i0, best and best[0])
            if walk is None:
                continue
            if best is None or walk[0] != best[0]:
                best = walk
                continue
            for v, w in zip(best[1], walk[1]):
                n = len(other[v])
                for j in range(n):
                    orbits.union(base[v] + (best[2][v] + j) % n, base[w] + (walk[2][w] + j) % n)
    code, order, starts = best
    tails = {}
    for v in order:
        for e, end in rotations[v][starts[v]:] + rotations[v][:starts[v]]:
            tails.setdefault(e, end)
    return code, order, starts, tuple(tails.items())


def _root_walk(other, v0: int, i0: int, least):
    """``(code, order, starts)`` of the walk of
    :func:`_canonical_rotation_system` from the root dart ``(v0, i0)``,
    ``other[v][i]`` being the position of the other dart of the i-th dart
    at v; None once a row of its code compares greater than the same row of
    ``least`` (None: no code yet)."""
    number, starts, order = [None] * len(other), [None] * len(other), [v0]
    number[v0], starts[v0] = 0, i0
    code, less = [], least is None
    for v in order:
        row = []
        for w, i in other[v][starts[v]:] + other[v][:starts[v]]:
            if number[w] is None:
                number[w], starts[w] = len(order), i
                order.append(w)
            row.append((number[w], (i - starts[w]) % len(other[w])))
        row = tuple(row)
        if not less:
            if row > least[len(code)]:
                return None
            less = row < least[len(code)]
        code.append(row)
    return tuple(code), tuple(order), tuple(starts)


def _canonical_graph(code) -> "ColoredGraph":
    """The rotation system of ``code`` (:func:`_canonical_rotation_system`),
    numbered as the code numbers it, each edge from its first listed dart."""
    rotations = [[None] * len(row) for row in code]
    edges = []
    for k, row in enumerate(code):
        for j, (w, i) in enumerate(row):
            if rotations[k][j] is None:
                rotations[k][j], rotations[w][i] = (len(edges), 0), (len(edges), 1)
                edges.append((k, w, 0))
    return ColoredGraph(len(code), edges, rotations)


class ColoredGraph:
    """Oriented colored graph with a rotation system certified to embed in
    the 2-sphere.

    ``edges[k] = (tail, head, color)``; a dart is ``(edge, end)`` with end 0
    at the tail and 1 at the head.  ``rotations[v]`` lists the darts at v in
    the clockwise cyclic order.  Faces are traced from the rotation system;
    a supplied face list is checked against the traced one, and the Euler
    relation V - E + F = 2 is enforced.
    """

    def __init__(self, nvertices: int, edges, rotations, faces=None):
        self.nvertices = nvertices
        self.edges = [tuple(e) for e in edges]
        self.rotations = [tuple(tuple(d) for d in r) for r in rotations]
        if len(self.rotations) != nvertices:
            raise ValueError("rotation system must cover every vertex")
        seen = {}
        for v, rot in enumerate(self.rotations):
            if not rot:
                raise ValueError(f"vertex {v} has valence 0")
            for i, d in enumerate(rot):
                if d in seen:
                    raise ValueError(f"dart {d} listed twice")
                seen[d] = (v, i)
        for k, (t, h, _) in enumerate(self.edges):
            if (k, 0) not in seen or (k, 1) not in seen:
                raise ValueError(f"edge {k} missing darts in the rotation system")
            if seen[(k, 0)][0] != t or seen[(k, 1)][0] != h:
                raise ValueError(f"edge {k} endpoints disagree with the rotation system")
        if len(seen) != 2 * len(self.edges):
            raise ValueError("rotation system lists a dart of no edge")
        self.dart_pos = seen
        orbits = _walk_faces(self.rotations, seen)
        if faces is None:
            self.faces = orbits
        else:
            # a supplied certificate may merge trace orbits (needed for
            # disconnected graphs, where the sphere embedding chooses a host
            # face per extra component)
            given = [frozenset(f) for f in faces]
            for orbit in orbits:
                hosts = [i for i, f in enumerate(given) if set(orbit) <= f]
                if len(hosts) != 1:
                    raise ValueError("embedding certificate inconsistent with rotation system")
            covered = set()
            for f in given:
                covered |= f
            if covered != {c for orbit in orbits for c in orbit}:
                raise ValueError("embedding certificate inconsistent with rotation system")
            self.faces = [tuple(sorted(f)) for f in given]
        classes = UnionFind(nvertices + len(self.faces))
        for t, h, _ in self.edges:
            classes.union(t, h)
        # each vertex's component, named by its least vertex
        self.component = [classes.find(v) for v in range(nvertices)]
        if len(self.faces) != 1 + len(set(self.component)) - nvertices + len(self.edges):
            msg = ("embedding certificate inconsistent with rotation system"
                   if faces is not None else
                   "rotation system does not embed in the sphere "
                   f"(V-E+F = {nvertices}-{len(self.edges)}-{len(self.faces)})")
            raise ValueError(msg)
        self.corner_face = {}
        for fi, corners in enumerate(self.faces):
            for c in corners:
                self.corner_face[c] = fi
                classes.union(c[0], nvertices + fi)
        # on the sphere the components and faces, joined where a face holds
        # a corner, form a tree; with the Euler count, connected suffices
        if len({classes.find(x) for x in range(nvertices + len(self.faces))}) != 1:
            raise ValueError("embedding certificate inconsistent with rotation system")

    def vertex_cset(self, v: int) -> CyclicCSet:
        items = []
        for e, end in self.rotations[v]:
            color = self.edges[e][2]
            items.append((color, 1 if end == 1 else -1))
        return CyclicCSet(items)

    def right_face_of_dart(self, dart) -> int:
        v, i = self.dart_pos[dart]
        return self.corner_face[(v, i)]


class GraphTensor:
    """Evaluation result: one index per vertex over the slot bases."""

    def __init__(self, data, vertices, bases, entries):
        self.data = data
        self.vertices = tuple(vertices)
        self.bases = list(bases)
        self.entries = dict(entries)

    def dims(self):
        return tuple(b.dim() for b in self.bases)

    def value(self, idx) -> FieldElement:
        return self.entries.get(tuple(idx), self.data.field.zero())

    def __eq__(self, other):
        return (isinstance(other, GraphTensor) and self.dims() == other.dims()
                and _dense(self) == _dense(other))

    def __repr__(self):
        return f"GraphTensor(dims {self.dims()}, {len(self.entries)} entries)"


def _dense(t: GraphTensor):
    return {idx: t.value(idx) for idx in iproduct(*(range(d) for d in t.dims()))}


def _sweep_plan(graph: ColoredGraph, outer_face: int) -> tuple:
    """Sweep plan ``(ops, offsets, positions)`` of the uncoloured ``graph``
    from ``outer_face``: ops ``("box", p, darts)``
    insert a vertex's darts from its offset on at word position p, ops
    ``("cap", q, edge, 'l' (lev) or 'r' (rev))`` close an edge, and vertex
    v's index sits at choice position ``positions[v]``, anchored at
    ``offsets[v]``.

    The plan is built bottom up on a row of strands (the darts of edges not
    yet closed) with a gap between each two and at both ends; a gap holds
    a face, the outer face at both ends.  Boxing vertex v at gap p from
    dart r needs the corner (v, r - 1) on the face of gap p, and the new
    gaps between v's strands take the faces of the corners between them.
    Each step makes the first of these moves that applies:

    1. a component with no vertex boxed yet has a corner on a face that is
       now a gap: box the lowest vertex with a corner on the first such
       gap, from the dart after its first such corner (this also makes the
       first box);
    2. two adjacent strands are the two darts of one edge: cap the leftmost
       such pair;
    3. take the lowest unboxed vertex w that a strand leads to, and its
       leftmost such strand q: box w at the gap left of q, from the dart
       after the edge's dart at w, which comes out last, next to q, and
       caps at once.

    No cap can block: a strand's two gaps are always the faces on the two
    sides of its edge, so two adjacent darts of one edge meet both cap
    conditions (the gap between them is the face right of the left dart,
    and the gaps outside them hold one face), and in move 3 the corner
    right of the edge's dart at w lies on the face left of q.  The loop
    never gets stuck: each move slides the drawing of what remains without
    changing its embedding (a box slides w down its edge, a cap pulls an
    arc down), so the strands that lead to boxed vertices pair off without
    crossing, and two of them are adjacent unless a strand leads to an
    unboxed vertex.  Every face of a boxed component is a gap right after
    some box, and components and faces form a tree on the sphere, so move
    1 reaches every component.  A stuck loop is an :class:`InternalError`.
    """
    rotations, component = graph.rotations, graph.component
    waiting = set(component)
    strands, gaps, ops, offsets = [], [outer_face], [], {}
    while strands or waiting:
        starts = []
        if waiting:
            starts = [(p, v, (i + 1) % len(rotations[v])) for p, face in enumerate(gaps)
                      for v, i in graph.faces[face] if component[v] in waiting]
        q = next((q for q in range(len(strands) - 1) if strands[q][0] == strands[q + 1][0]), None)
        if starts:
            p, v, r = min(starts)
            waiting.discard(component[v])
        elif q is not None:
            e, end = strands[q]
            ops.append(("cap", q, e, "l" if end == 0 else "r"))
            del strands[q:q + 2], gaps[q + 1:q + 3]
            continue
        else:
            leads = [(graph.dart_pos[(e, 1 - end)], q) for q, (e, end) in enumerate(strands)]
            leads = [(w, q, j) for (w, j), q in leads if w not in offsets]
            if not leads:
                raise InternalError(f"sweep from face {outer_face} stuck at strands {strands}")
            v, p, j = min(leads)
            r = (j + 1) % len(rotations[v])
        rot = rotations[v]
        ops.append(("box", p, rot[r:] + rot[:r]))
        offsets[v] = r
        strands[p:p] = rot[r:] + rot[:r]
        gaps[p + 1:p + 1] = [graph.corner_face[(v, (r + j) % len(rot))]
                             for j in range(len(rot) - 1)] + [gaps[p]]
    position = {v: k for k, v in enumerate(offsets)}
    return (tuple(ops), tuple(map(offsets.get, range(len(rotations)))),
            tuple(map(position.get, range(len(rotations)))))


def _sweep(data: GFusionData, plan: tuple, edge_colors) -> dict:
    """Run the ops of ``plan`` (:func:`_sweep_plan`) with the colours
    ``edge_colors`` on the flat state ``{(path, choice): value}``; returns
    the raw entries ``{choice: value}``."""
    dual = data.dual
    word: tuple = ()
    states: dict = {((), ()): data.field.one()}
    for op in plan[0]:
        if op[0] == "box":
            _, p, darts = op
            letters = tuple([edge_colors[e] if end else dual[edge_colors[e]] for e, end in darts])
            states = _box(data, states, p, letters)
            word = word[:p] + letters + word[p:]
        else:
            _, q, e, kind = op
            states = _cap(data, states, word, q, edge_colors[e], kind)
            word = word[:q] + word[q + 2:]
    for path, _ in states:
        if path != ():
            raise InternalError(f"sweep ends on the tree {path}, not the empty one")
    return {choice: coeff for (_, choice), coeff in states.items()}


def evaluate_graph(data: GFusionData, graph: ColoredGraph, slots=None,
                   outer_face: int | None = None) -> GraphTensor:
    """Invariant of a colored graph on the sphere as a tensor over the slot
    bases (one index per vertex).  The result does not depend on the outer
    face; passing one is useful for the sphericality tests."""
    if slots is None:
        slots = [VertexTensorSlot(v, 0) for v in range(graph.nvertices)]
    slot_by_vertex = {s.vertex: s for s in slots}
    if sorted(slot_by_vertex) != list(range(graph.nvertices)):
        raise ValueError("slots must cover each vertex exactly once")
    plan = _sweep_plan(graph, 0 if outer_face is None else outer_face)
    raw = _sweep(data, plan, [c for _, _, c in graph.edges])
    bases = [MultiplicityBasis(data, graph.vertex_cset(v), slot_by_vertex[v].anchor)
             for v in range(graph.nvertices)]
    maps = [_slot_map(data, b.anchored.items, (source - b.anchor) % len(b.cset), False)
            for b, source in zip(bases, plan[1])]
    return GraphTensor(data, range(graph.nvertices), bases,
                       _mapped(raw, plan[2], maps, data.field.one()))


def _mapped(raw: dict, positions, maps, scale: FieldElement) -> dict:
    """The entries of ``raw`` with the index at key position ``positions[v]``
    mapped by ``maps[v]`` (entry i lists the pairs ``(t, coefficient)``
    that index i maps to; None for the identity) and multiplied by
    ``scale``, keyed in slot order.  One pass per slot, so images meeting
    on one key are summed before the next slot.  The entries of a sweep,
    the reversal scalars and the re-basing and pairing coefficients are
    nonzero, so, as in :func:`_cap`, only a key on which terms were summed
    is tested for zero."""
    entries = {tuple([key[p] for p in positions]): val * scale for key, val in raw.items()}
    for v, slot in enumerate(maps):
        if slot is None:
            continue
        nxt: dict = {}
        summed = set()
        for idx, val in entries.items():
            head, tail = idx[:v], idx[v + 1:]
            for t, y in slot[idx[v]]:
                k = head + (t,) + tail
                term = val * y
                cur = nxt.get(k)
                if cur is None:
                    nxt[k] = term
                else:
                    nxt[k] = cur + term
                    summed.add(k)
        for k in summed:
            if nxt[k].is_zero():
                del nxt[k]
        entries = nxt
    return entries


class _LinkProgram:
    """The link tensor of one link as a function of its arc colours: what
    :meth:`tensor` needs of the uncoloured rotation system ``rotations``
    (darts ``(arc, end)`` per link vertex) and the paired link vertices
    ``paired``, read off once.  The tensor's entries are in the tree bases
    anchored at each vertex's first dart, as ``evaluate_graph`` gives them,
    with the pairing of each link vertex in ``paired`` folded in.

    The sweep runs once per class: the canonical code of the undirected
    rotation system (:func:`_canonical_rotation_system`) with each arc's
    colour read in its canonical edge's direction, dualized where the arc
    runs the other way.  Such a reversed arc of colour c reads the same
    letters in every box and cap, and multiplies the class sweep by
    ``rev_c / lev_(c*)`` where its plan caps the edge by lev and by
    ``lev_c / rev_(c*)`` where it caps it by rev.  Each index is then
    re-based and, at a link vertex in ``paired``, paired by one memoized map
    per slot (:func:`_slot_map`).  The category memo holds one entry
    ``("link code", code)`` per code: the sweep plan of the code's graph
    from its last face, the kind of the cap that closes each canonical edge
    in it, and the class sweeps keyed by the class colours.  The program
    holds:

    * that plan and that dict of class sweeps, and each link vertex's key
      position in the plan;
    * the class arcs ``(arc, end)``, one per canonical edge, end 1 where
      the arc runs against it;
    * per link vertex, its slot: the picker of its darts' arc colours, the
      ``(arc, sign)`` of each dart, the re-basing steps from the plan's
      anchor to the first dart, whether it is paired, the reversed arcs
      whose head is here, each with the kind of the cap that closes it,
      and, by its darts' colours, the slot's map and the reversal scalars
      of those arcs that are not one.
    """

    __slots__ = ("data", "plan", "sweeps", "positions", "arcs", "slots")

    def __init__(self, data: GFusionData, rotations, paired):
        rotations = tuple(map(tuple, rotations))
        code, order, starts, tails = _canonical_rotation_system(rotations)
        link = data._memo.get(("link code", code))
        if link is None:
            # the plan depends on the code alone, as the code's links share its
            # class sweeps; a sweep costs exponentially in its width, and over
            # 41 link and random sphere codes the plans from face 0 are wider
            # than from the last face on 14 and narrower on 3, while from the
            # last face none is wider than the backtracking search's layout
            graph = _canonical_graph(code)
            plan = _sweep_plan(graph, len(graph.faces) - 1)
            link = data._memo[("link code", code)] = (
                plan, dict(op[2:] for op in plan[0] if op[0] == "cap"), {})
        plan, kinds, self.sweeps = link
        rank = [order.index(v) for v in range(len(rotations))]
        self.data, self.plan, self.arcs = data, plan, tails
        self.positions = tuple([plan[2][k] for k in rank])
        sources = [starts[v] + plan[1][k] for v, k in enumerate(rank)]
        # the reversed arcs' cap kinds
        flips = {a: kinds[j] for j, (a, end) in enumerate(tails) if end}
        self.slots = tuple([(itemgetter(*[a for a, _ in rot]),
                             tuple([(a, 1 if end else -1) for a, end in rot]),
                             source % len(rot), g in paired,
                             tuple([(a, flips[a]) for a, end in rot if end and a in flips]), {})
                            for g, (rot, source) in enumerate(zip(rotations, sources))])

    def tensor(self, colors) -> dict:
        """The link tensor's entries for the arc colours ``colors``: the
        class sweep, memoized per code, through the slot maps and
        times the reversal scalars that are not one (:func:`_composed`),
        both kept per slot by its darts' colours."""
        data = self.data
        dual = data.dual
        class_colors = tuple([dual[colors[a]] if end else colors[a] for a, end in self.arcs])
        raw = self.sweeps.get(class_colors)
        if raw is None:
            raw = self.sweeps[class_colors] = _sweep(data, self.plan, class_colors)
        maps, factors = [], []
        for pick, darts, steps, paired, reversals, known in self.slots:
            key = pick(colors)
            entry = known.get(key)
            if entry is None:
                entry = known[key] = (
                    _slot_map(data, tuple([(colors[a], s) for a, s in darts]), steps, paired),
                    tuple([x for x in [_reversal_scalar(data, colors[a], kind)
                                       for a, kind in reversals] if not x.is_one()]))
            maps.append(entry[0])
            if entry[1]:
                factors += entry[1]
        return _composed(data, raw, self.positions, maps, factors)


def _composed(data: GFusionData, raw: dict, positions, maps, factors: list) -> dict:
    """:func:`_mapped` of ``raw`` scaled by the product of ``factors``.

    When ``raw`` has one entry and the row of each slot map at its index is
    one pair (or the map is the identity), the result is that one entry
    with each index replaced and its value times the factors and the rows'
    coefficients: one product, made in one pass, with no sum and so no
    zero test.  Any other tensor takes the per-slot passes of
    :func:`_mapped`, which keep dense rows from multiplying out."""
    if len(raw) == 1:
        (key, val), = raw.items()
        index, coeffs = [], factors[:]
        for slot, p in zip(maps, positions):
            i = key[p]
            if slot is None:
                index.append(i)
                continue
            row = slot[i]
            if len(row) != 1:
                break
            t, y = row[0]
            index.append(t)
            coeffs.append(y)
        else:
            return {tuple(index): prod(coeffs, start=val)}
    scale = prod(factors[1:], start=factors[0]) if factors else data.field.one()
    return _mapped(raw, positions, maps, scale)


def _reversal_scalar(data: GFusionData, color: int, kind: str) -> FieldElement:
    """``rev_c / lev_(c*)`` for kind 'l', ``lev_c / rev_(c*)`` for 'r' (c =
    ``color``), one included: what turns a sweep whose plan caps a strand
    coloured c* by ``kind`` into that of the reversed strand coloured c."""
    key = ("reversal", color, kind)
    if key not in data._memo:
        dual = data.dual[color]
        data._memo[key] = (data.rev_scalar(color) / data.lev_scalar(dual) if kind == "l"
                           else data.lev_scalar(color) / data.rev_scalar(dual))
    return data._memo[key]


def _slot_map(data: GFusionData, items: tuple, steps: int, paired: bool):
    """The map (see :func:`_mapped`) of a link tensor slot over the trees of
    ``items``, memoized on the category: the re-basing rows from the anchor
    ``steps`` to the first item (:func:`_rebase_rows`), then, if
    ``paired``, the pairing.  The identity, at steps 0 unpaired, is None.

    The re-basing rows depend only on the word of ``items``, so an unpaired
    map is kept as ``("slot", word, steps, False)``, one entry that the
    darts ``(c, +1)`` and ``(c*, -1)`` share.  A paired slot is end 1 of a
    skeleton edge, whose end-0 branch list E is the reversed dual of
    ``items``, or a cobordism's top end, whose top surface south-type set E
    is: its index u, a tree of H(E^opp), becomes the one tree t of H(E) it
    pairs with, times ``Ginv[t][u]`` (:func:`_gram_support`,
    :func:`_inverse_pairs`).  The cap scalars read the signs, so a paired
    map is kept as ``("slot", items, steps, True)``: at steps 0 the
    pairing, at other steps the word's re-basing rows composed with it."""
    if not paired:
        if not steps:
            return None
        key = ("slot", _word(data, items), steps, False)
        rows = data._memo.get(key)
        if rows is None:
            rows = data._memo[key] = _rebase_rows(data, items, steps)
        return rows
    key = ("slot", items, steps, True)
    rows = data._memo.get(key)
    if rows is None:
        if steps:
            pairing = [row[0] for row in _slot_map(data, items, 0, True)]
            rows = tuple(tuple((pairing[s][0], x * pairing[s][1]) for s, x in row)
                         for row in _slot_map(data, items, steps, False))
        else:
            opp = tuple((c, -s) for c, s in reversed(items))
            rows = tuple((pair,) for pair in _inverse_pairs(*_gram_support(data, opp)))
        data._memo[key] = rows
    return rows


# ---------------------------------------------------------------------------
# graph files


def save_graph(graph: ColoredGraph) -> str:
    lines = ["# statesum3d graph v1", f"vertices {graph.nvertices}",
             f"edges {len(graph.edges)}"]
    for k, (t, h, c) in enumerate(graph.edges):
        lines.append(f"edge {k} {t} {h} color {c}")
    for v, rot in enumerate(graph.rotations):
        lines.append(f"rot {v} {records.dart_tokens(rot)}")
    for f in graph.faces:
        lines.append("face " + " ".join(f"{v}.{i}" for (v, i) in f))
    return "\n".join(lines) + "\n"


_GRAPH = records.Format(
    "graph", ("vertices N", "edges N", "edge K T H color C", "rot V DART...", "face V.I..."),
    numbered={"edge": 1, "rot": 1}, repeated=("face",))


def parse_graph(text: str) -> ColoredGraph:
    recs = _GRAPH.read(text)
    edges = recs.numbered("edge", range(recs.count("edge")), "edge")
    nv = recs.get("vertices", 0)
    rots = recs.numbered("rot", range(nv), "rot line for vertex")
    faces = [face for _, face in recs.items("face")]
    return ColoredGraph(nv, edges, rots, faces=faces or None)
