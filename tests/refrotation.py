"""Reference for ``statesum3d.graphcalc.rotation_matrix``: the original
cone-isomorphism step as a round trip through the word category (a cup in
front, the state inserted after it, a cap on the first two letters), kept
unchanged so that the tests can check the closed-form bending step against
an independent computation.  ``cup`` and ``insert_state`` were methods of
``HomState`` (now in ``refsweep``) that nothing else used.  Nothing in
``src/`` imports it.
"""

from __future__ import annotations

from statesum3d.catdata import GFusionData
from statesum3d.graphcalc import InternalError, MultiplicityBasis

from refsweep import HomState


def cup(state: HomState, p: int, color: int, kind: str) -> HomState:
    """Insert lcoev (kind 'l': letters (c, c*)) or rcoev ('r': (c*, c))."""
    data = state.data
    dual = data.dual[color]
    st = state.insert_unit(p)
    if kind == "l":
        return st.split(p, color, dual).scale(data.lcoev_scalar(color))
    if kind == "r":
        return st.split(p, dual, color).scale(data.rcoev_scalar(color))
    raise ValueError("cup kind must be 'l' or 'r'")


def insert_state(state: HomState, p: int, other: HomState) -> HomState:
    out: dict = {}
    word = None
    for path, v in other.paths.items():
        st = state.scale(v).insert_tree(p, other.word, path)
        word = st.word
        for q, u in st.paths.items():
            if q in out:
                s = out[q] + u
                if s.is_zero():
                    del out[q]
                else:
                    out[q] = s
            elif not u.is_zero():
                out[q] = u
    if word is None:
        word = state.word[:p] + tuple(other.word) + state.word[p:]
    return HomState(state.data, word, out)


def rotate_state_once(data: GFusionData, items, state: HomState):
    """One cone-isomorphism step H_(e1) -> H_(e2) on the anchored signed
    items; returns (rotated items, new state)."""
    color, sign = items[0]
    if sign > 0:
        st = cup(HomState.empty(data), 0, color, "r")
        st = insert_state(st, 1, state)
        st = st.cap(0, color, "l")
    else:
        st = cup(HomState.empty(data), 0, color, "l")
        st = insert_state(st, 1, state)
        st = st.cap(0, color, "r")
    return items[1:] + items[:1], st


def rotation_matrix(data: GFusionData, basis: MultiplicityBasis, steps: int):
    """Matrix R of the iterated cone isomorphism from ``basis`` to the basis
    anchored ``steps`` further on: image of basis vector s is
    ``sum_t R[t][s] (target tree t)``."""
    steps %= max(len(basis.cset), 1)
    target = MultiplicityBasis(data, basis.cset, basis.anchor + steps)
    index = {tuple(t): i for i, t in enumerate(target.trees)}
    cols = []
    for s in range(basis.dim()):
        st = HomState.basis_tree(data, basis.word, basis.trees[s])
        items = basis.anchored.items
        for _ in range(steps):
            items, st = rotate_state_once(data, items, st)
        col = [data.field.zero()] * target.dim()
        if st.word != target.word:
            raise InternalError(f"rotation ends on the word {st.word}, not {target.word}")
        for path, v in st.paths.items():
            col[index[path]] = v
        cols.append(col)
    return [[cols[s][t] for s in range(basis.dim())] for t in range(target.dim())]
