"""Reference for the planar sweep of ``statesum3d.graphcalc``: the original
per-entry sweep, kept unchanged so that the tests can check the
table-driven ``evaluate_graph`` and ``PairingData`` and the re-basing maps
against an independent computation.

``HomState`` is a vector of Hom(1, word) as a map from tree paths to
scalars.  The sweep builds one for every state entry and every inserted
tree, runs ``insert_unit``, k - 1 ``split``s, ``fuse`` and ``delete_unit``
on it, and re-bases the result by summing, for every target index tuple,
over every raw entry.  ``find_layout`` is the backtracking layout search
that ``graphcalc`` used before it built its sweep plans, and
``canonical_rotation_system`` the canonical form that walks every root to
the end.  The sweep here shares no layout code with ``src/``, and nothing
in ``src/`` imports this module.
"""

from __future__ import annotations

from itertools import product as iproduct

from statesum3d.catdata import GFusionData
from statesum3d.exactnum import FieldElement
from statesum3d.graphcalc import (ColoredGraph, CyclicCSet, GraphTensor, InternalError,
                                  MultiplicityBasis, VertexTensorSlot, rotation_matrix)


class HomState:
    """Vector in Hom(1, word) as a map from tree paths to scalars."""

    __slots__ = ("data", "word", "paths")

    def __init__(self, data: GFusionData, word: tuple, paths: dict):
        self.data = data
        self.word = word
        self.paths = paths

    @staticmethod
    def empty(data: GFusionData) -> "HomState":
        return HomState(data, (), {(): data.field.one()})

    @staticmethod
    def basis_tree(data: GFusionData, word, path) -> "HomState":
        return HomState(data, tuple(word), {tuple(path): data.field.one()})

    def scale(self, c: FieldElement) -> "HomState":
        if c.is_one():
            return self
        return HomState(self.data, self.word,
                        {p: v * c for p, v in self.paths.items()})

    def _add(self, store: dict, path: tuple, val: FieldElement):
        if path in store:
            s = store[path] + val
            if s.is_zero():
                del store[path]
            else:
                store[path] = s
        elif not val.is_zero():
            store[path] = val

    def insert_unit(self, p: int) -> "HomState":
        unit = self.data.unit
        word = self.word[:p] + (unit,) + self.word[p:]
        out: dict = {}
        for path, v in self.paths.items():
            prev = path[p - 1] if p > 0 else unit
            self._add(out, path[:p] + (prev,) + path[p:], v)
        return HomState(self.data, word, out)

    def delete_unit(self, p: int) -> "HomState":
        if self.word[p] != self.data.unit:
            raise InternalError(f"delete_unit at {p}: letter {self.word[p]} is not the unit")
        word = self.word[:p] + self.word[p + 1:]
        out: dict = {}
        for path, v in self.paths.items():
            self._add(out, path[:p] + path[p + 1:], v)
        return HomState(self.data, word, out)

    def split(self, p: int, a: int, b: int) -> "HomState":
        """Compose with id (x) B(a,b; word[p]) (x) id."""
        data = self.data
        unit = data.unit
        x = self.word[p]
        if not data.nmat(a, b, x):
            raise ValueError("inadmissible split")
        word = self.word[:p] + (a, b) + self.word[p + 1:]
        out: dict = {}
        for path, v in self.paths.items():
            mb = path[p - 1] if p > 0 else unit
            ma = path[p]
            for mu in data.fuse(mb, a):
                coeff = data.f_entry(mb, a, b, ma, mu, x)
                if coeff is None or coeff.is_zero():
                    continue
                self._add(out, path[:p] + (mu,) + path[p:], v * coeff)
        return HomState(data, word, out)

    def fuse(self, p: int, c: int) -> "HomState":
        """Compose with id (x) Y(word[p], word[p+1]; c) (x) id."""
        data = self.data
        unit = data.unit
        a, b = self.word[p], self.word[p + 1]
        if not data.nmat(a, b, c):
            raise ValueError("inadmissible fuse")
        word = self.word[:p] + (c,) + self.word[p + 2:]
        out: dict = {}
        for path, v in self.paths.items():
            mb = path[p - 1] if p > 0 else unit
            mu = path[p]
            ma = path[p + 1]
            if not data.nmat(mb, c, ma):
                continue
            coeff = data.finv_entry(mb, a, b, ma, c, mu)
            if coeff is None or coeff.is_zero():
                continue
            self._add(out, path[:p] + path[p + 1:], v * coeff)
        return HomState(data, word, out)

    def cap(self, p: int, color: int, kind: str) -> "HomState":
        """Apply lev (kind 'l': letters (c*, c)) or rev ('r': (c, c*))."""
        data = self.data
        dual = data.dual[color]
        if kind == "l":
            left, right, scalar = dual, color, data.lev_scalar(color)
        elif kind == "r":
            left, right, scalar = color, dual, data.rev_scalar(color)
        else:
            raise ValueError("cap kind must be 'l' or 'r'")
        if self.word[p] != left or self.word[p + 1] != right:
            raise InternalError(f"cap {kind} of {color} at {p} meets letters {self.word[p:p + 2]}")
        st = self.fuse(p, data.unit).scale(scalar)
        return st.delete_unit(p)

    def insert_tree(self, p: int, letters, path) -> "HomState":
        """Insert the basis tree of Hom(1, letters) with the given
        intermediate tuple at word position p."""
        k = len(letters)
        st = self.insert_unit(p)
        for j in range(k - 1, 0, -1):
            st = st.split(p, path[j - 1], letters[j])
        if k and path[0] != letters[0]:
            raise InternalError(f"tree {tuple(path)} does not start at letter {letters[0]}")
        return st

    def scalar(self) -> FieldElement:
        if self.word:
            raise InternalError(f"scalar of a state on the word {self.word}")
        return self.paths.get((), self.data.field.zero())


def find_layout(graph: ColoredGraph, outer_face: int):
    """A bottom-up planar sweep realizing the embedding of ``graph`` with
    ``outer_face`` outside, found by a depth-first search with backtracking
    over (strands, gaps, placed vertices) states, one frame per action:
    caps first, then each unplaced vertex boxed at each gap from each dart
    whose preceding corner lies in that gap.  Returns a list of actions
    ``('box', vertex, offset, gap_index)`` and ``('cap', strand_index)``,
    or None when there is none."""
    return _layout_search(graph, (), (outer_face,), frozenset(), set())


def _layout_search(graph, frontier, gaps, placed, seen):
    if len(placed) == graph.nvertices and not frontier:
        return []
    key = (frontier, gaps, placed)
    if key in seen:
        return None
    seen.add(key)
    for q in range(len(frontier) - 1):
        (e1, a1), (e2, a2) = frontier[q], frontier[q + 1]
        if e1 == e2 and a1 != a2:
            if gaps[q + 1] != graph.right_face_of_dart(frontier[q]):
                continue
            if gaps[q] != gaps[q + 2]:
                continue
            nf = frontier[:q] + frontier[q + 2:]
            ng = gaps[:q] + (gaps[q],) + gaps[q + 3:]
            rest = _layout_search(graph, nf, ng, placed, seen)
            if rest is not None:
                return [("cap", q)] + rest
    for v in range(graph.nvertices):
        if v in placed:
            continue
        rot = graph.rotations[v]
        k = len(rot)
        for p in range(len(gaps)):
            for r in range(k):
                if graph.corner_face[(v, (r - 1) % k)] != gaps[p]:
                    continue
                emitted = tuple(rot[(r + j) % k] for j in range(k))
                corner_gaps = tuple(graph.corner_face[(v, (r + j) % k)]
                                    for j in range(k - 1))
                nf = frontier[:p] + emitted + frontier[p:]
                ng = gaps[:p] + (gaps[p],) + corner_gaps + (gaps[p],) + gaps[p + 1:]
                rest = _layout_search(graph, nf, ng, placed | {v}, seen)
                if rest is not None:
                    return [("box", v, r, p)] + rest
    return None


def canonical_rotation_system(rotations) -> tuple:
    """``graphcalc._canonical_rotation_system``, walking every root dart to
    the end and keeping the first least code.  Edge directions are
    forgotten: a code row lists (vertex number, dart position) per dart,
    and each edge is recorded by the dart the walk meets it at first."""
    dart_pos = {d: (v, i) for v, rot in enumerate(rotations) for i, d in enumerate(rot)}
    best = None
    for v0, i0 in sorted(dart_pos.values()):
        number, starts, order, tails = {v0: 0}, {v0: i0}, [v0], []
        met = set()
        code = []
        for v in order:
            rot = rotations[v]
            row = []
            for j in range(len(rot)):
                e, end = rot[(starts[v] + j) % len(rot)]
                w, i = dart_pos[(e, 1 - end)]
                if w not in number:
                    number[w], starts[w] = len(order), i
                    order.append(w)
                if e not in met:
                    met.add(e)
                    tails.append((e, end))
                row.append((number[w], (i - starts[w]) % len(rotations[w])))
            code.append(tuple(row))
        code = tuple(code)
        if best is None or code < best[0]:
            best = (code, tuple(order), tuple(starts[v] for v in range(len(rotations))),
                    tuple(tails))
    return best


def pairing_gram(data: GFusionData, cset: CyclicCSet):
    """Gram matrix of the duality pairing (rows: opp trees, cols: trees),
    one ``HomState`` per entry."""
    basis = MultiplicityBasis(data, cset, 0)
    basis_opp = MultiplicityBasis(data, cset.opp(), 0)
    n = len(cset)
    rows = []
    for u in range(basis_opp.dim()):
        row = []
        for t in range(basis.dim()):
            st = HomState.empty(data)
            st = st.insert_tree(0, basis.word, basis.trees[t])
            st = st.insert_tree(n, basis_opp.word, basis_opp.trees[u])
            for k in range(n - 1, -1, -1):
                color, sign = cset.items[k]
                st = st.cap(k, color, "r" if sign > 0 else "l")
            row.append(st.scalar())
        rows.append(row)
    return rows


def rebased(data: GFusionData, raw: dict, csets, positions, sources, anchors):
    """Entries of ``raw`` re-expressed in the bases anchored at ``anchors``
    (as ``graphcalc.evaluate_graph`` re-bases its sweep), summing for every target index tuple over
    every raw entry; returns (bases, entries)."""
    field = data.field
    bases, mats = [], []
    for cset, source, anchor in zip(csets, sources, anchors):
        basis = MultiplicityBasis(data, cset, anchor)
        bases.append(basis)
        mats.append(rotation_matrix(data, basis, (source - basis.anchor) % len(cset)))
    entries: dict = {}
    for sidx in iproduct(*(range(b.dim()) for b in bases)):
        total = field.zero()
        for choice, coeff in raw.items():
            term = coeff
            for mat, pos, s in zip(mats, positions, sidx):
                factor = mat[choice[pos]][s]
                if factor.is_zero():
                    break
                term = term * factor
            else:
                total = total + term
        if not total.is_zero():
            entries[sidx] = total
    return bases, entries


def evaluate_graph(data: GFusionData, graph: ColoredGraph, slots=None,
                   outer_face: int | None = None) -> GraphTensor:
    """``graphcalc.evaluate_graph`` by the per-entry sweep."""
    if slots is None:
        slots = [VertexTensorSlot(v, 0) for v in range(graph.nvertices)]
    slot_by_vertex = {s.vertex: s for s in slots}
    if sorted(slot_by_vertex) != list(range(graph.nvertices)):
        raise ValueError("slots must cover each vertex exactly once")
    actions = find_layout(graph, 0 if outer_face is None else outer_face)
    if actions is None:
        raise InternalError("no planar sweep found")

    csets = [graph.vertex_cset(v) for v in range(graph.nvertices)]
    insert_offset = {act[1]: act[2] for act in actions if act[0] == "box"}
    insert_bases = {v: MultiplicityBasis(data, csets[v], insert_offset[v])
                    for v in range(graph.nvertices)}

    word: tuple = ()
    states: dict = {((), ()): data.field.one()}
    vertex_order = []
    strand_darts: list = []
    for act in actions:
        if act[0] == "box":
            _, v, r, p = act
            vertex_order.append(v)
            basis = insert_bases[v]
            letters = basis.word
            nxt: dict = {}
            for (path, choice), coeff in states.items():
                base = HomState(data, word, {path: coeff})
                for ti, tree in enumerate(basis.trees):
                    st = base.insert_tree(p, letters, tree)
                    for q, u in st.paths.items():
                        key = (q, choice + (ti,))
                        cur = nxt.get(key)
                        nxt[key] = u if cur is None else cur + u
            states = {k: v2 for k, v2 in nxt.items() if not v2.is_zero()}
            word = word[:p] + letters + word[p:]
            strand_darts[p:p] = [graph.rotations[v][(r + j) % len(graph.rotations[v])]
                                 for j in range(len(letters))]
        else:
            _, q = act
            e, end = strand_darts[q]
            color = graph.edges[e][2]
            kind = "l" if end == 0 else "r"
            nxt = {}
            for (path, choice), coeff in states.items():
                st = HomState(data, word, {path: coeff}).cap(q, color, kind)
                for pth, u in st.paths.items():
                    key = (pth, choice)
                    cur = nxt.get(key)
                    nxt[key] = u if cur is None else cur + u
            states = {k: v2 for k, v2 in nxt.items() if not v2.is_zero()}
            word = word[:q] + word[q + 2:]
            del strand_darts[q:q + 2]

    raw: dict = {}
    for (path, choice), coeff in states.items():
        if path != ():
            raise InternalError(f"sweep ends on the tree {path}, not the empty one")
        raw[choice] = coeff

    nver = graph.nvertices
    out_bases, entries = rebased(
        data, raw, csets, [vertex_order.index(v) for v in range(nver)],
        [insert_offset[v] for v in range(nver)],
        [slot_by_vertex[v].anchor for v in range(nver)])
    return GraphTensor(data, range(nver), out_bases, entries)
