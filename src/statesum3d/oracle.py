"""Independent simplicial evaluation of the cocycle partition function.

This module deliberately shares no evaluation code with the graph/state-sum
pipeline.  A triangulation is given a branching (an orientation of its edge
classes restricting to a total vertex order on each tetrahedron); a flat
coloring assigns group elements to edge classes subject to the triangle
condition in the branching order; a tetrahedron with ordered vertices
w0<w1<w2<w3 contributes theta(g01, g12, g23)^(+-1), the sign comparing the
branching order with the orientation.  The partition aggregate is

    |G|^(-V) * sum over flat colorings of the product of weights,

computed by tree-gauge fixing: colorings trivial on a spanning tree of the
vertex graph are enumerated with propagation and weighted by |G|^(V-1).
"""

from __future__ import annotations

from itertools import permutations

from .catdata import CocycleTable, FiniteGroup
from .complexes import Triangulation, _perm_sign
from .exactnum import FieldElement

__all__ = [
    "OrderedTriangulation",
    "find_branching",
    "subdivide",
    "dw_class_value",
    "dw_partition",
    "dw_class_table",
]


class OrderedTriangulation:
    """Triangulation plus a branching: direction per edge class such that
    each tetrahedron's six edge directions order its four vertices."""

    def __init__(self, tri: Triangulation, edge_dirs):
        self.tri = tri
        self.edge_dirs = tuple(edge_dirs)  # +1 keeps class direction, -1 flips
        self.local_orders = []
        for t in range(tri.ntets):
            order = self._order_tet(t)
            if order is None:
                raise ValueError(f"branching is cyclic on tetrahedron {t}")
            self.local_orders.append(order)

    def directed(self, t, a, b) -> bool:
        """True when the branching directs the edge a -> b inside tet t."""
        eid, sgn = self.tri.edge_class_of(t, a, b)
        return sgn * self.edge_dirs[eid] > 0

    def _order_tet(self, t):
        above = {v: 0 for v in range(4)}
        for a in range(4):
            for b in range(4):
                if a < b:
                    if self.directed(t, a, b):
                        above[b] += 1
                    else:
                        above[a] += 1
        order = sorted(range(4), key=lambda v: above[v])
        for i in range(3):
            if not self.directed(t, order[i], order[i + 1]):
                return None
        return tuple(order)

    def tet_sign(self, t) -> int:
        """Orientation of the tetrahedron relative to its branching order.

        The global sign is chosen so that the simplicial evaluation agrees
        with the skeleton pipeline on oriented inputs (the two conventions
        are mirror images; lens spaces with chiral cocycles pin the choice).
        """
        perm = self.local_orders[t]
        return -self.tri.orientations[t] * _perm_sign(perm)


def find_branching(tri: Triangulation) -> OrderedTriangulation:
    """Backtracking search for a branching; raises when none exists."""
    n = tri.nedges
    dirs = [0] * n

    # per tet, the list of (eid, sign) for its six edges
    tet_edges = []
    for t in range(tri.ntets):
        entries = []
        for a in range(4):
            for b in range(a + 1, 4):
                eid, sgn = tri.edge_class_of(t, a, b)
                entries.append((a, b, eid, sgn))
        tet_edges.append(entries)

    def tet_ok(t):
        # reject directed cycles among the assigned edges of tet t
        adj = {v: set() for v in range(4)}
        for (a, b, eid, sgn) in tet_edges[t]:
            if dirs[eid] == 0:
                continue
            if sgn * dirs[eid] > 0:
                adj[a].add(b)
            else:
                adj[b].add(a)
        color = {}

        def dfs(v):
            color[v] = 1
            for w in adj[v]:
                if color.get(w) == 1:
                    return False
                if w not in color and not dfs(w):
                    return False
            color[v] = 2
            return True

        return all(dfs(v) for v in range(4) if v not in color)

    def assign(i):
        if i == n:
            return True
        for d in (1, -1):
            dirs[i] = d
            if all(tet_ok(t) for t in range(tri.ntets)) and assign(i + 1):
                return True
        dirs[i] = 0
        return False

    if not assign(0):
        raise ValueError("triangulation admits no branching; subdivide first")
    return OrderedTriangulation(tri, dirs)


def subdivide(tri: Triangulation) -> OrderedTriangulation:
    """Barycentric-style subdivision (24 flag tetrahedra per tetrahedron)
    with its canonical branching by cell dimension."""
    flags = []
    flag_id = {}
    for t in range(tri.ntets):
        for v in range(4):
            for e in (frozenset((v, w)) for w in range(4) if w != v):
                for f in (frozenset(fv for fv in range(4) if fv != k)
                          for k in range(4)):
                    if e <= f:
                        flag_id[(t, v, e, f)] = len(flags)
                        flags.append((t, v, e, f))
    gl = {}

    def add_glue(src, dst, perm=(0, 1, 2, 3)):
        gl[src] = (dst[0], dst[1], perm)

    for idx, (t, v, e, f) in enumerate(flags):
        # slot 0 face (opposite the vertex center): partner flag (v', e, f)
        v2 = next(x for x in e if x != v)
        add_glue((idx, 0), (flag_id[(t, v2, e, f)], 0))
        # slot 1 face: partner (v, e', f) with e' the other edge of f at v
        e2 = next(frozenset((v, w)) for w in f
                  if w != v and frozenset((v, w)) != e)
        add_glue((idx, 1), (flag_id[(t, v, e2, f)], 1))
        # slot 2 face: partner (v, e, f') with f' the other face containing e
        f2 = next(frozenset(x for x in range(4) if x != k) for k in range(4)
                  if e <= frozenset(x for x in range(4) if x != k)
                  and frozenset(x for x in range(4) if x != k) != f)
        add_glue((idx, 2), (flag_id[(t, v, e, f2)], 2))
        # slot 3 face (opposite the tet center): across the old gluing
        k = next(x for x in range(4) if x not in f)
        t2, k2, perm = tri.gluings[(t, k)]
        vv = perm[v]
        ee = frozenset(perm[x] for x in e)
        ff = frozenset(perm[x] for x in f)
        add_glue((idx, 3), (flag_id[(t2, vv, ee, ff)], 3))
    sub = Triangulation(len(flags), gl)
    # canonical branching: orient each edge class from the lower-dimensional
    # center; in flag coordinates slot i is the center of an i-cell, so each
    # edge (i, j) with i < j is directed i -> j
    dirs = [0] * sub.nedges
    for eid in range(sub.nedges):
        t, a, b = sub.edge_members[eid][0]
        dirs[eid] = 1 if a < b else -1
    return OrderedTriangulation(sub, dirs)


def _flat_ok(ot: OrderedTriangulation, group: FiniteGroup, coloring):
    """Check the triangle condition on faces whose edges are all colored."""
    tri = ot.tri
    done = set()
    for t in range(tri.ntets):
        for k in range(4):
            tc = tri.triangle_class[(t, k)]
            if tc in done:
                continue
            done.add(tc)
            vs = sorted((v for v in range(4) if v != k),
                        key=lambda v: ot.local_orders[t].index(v))
            x, y, z = vs
            vals = []
            missing = False
            for (p, q) in ((x, y), (y, z), (x, z)):
                eid, sgn = tri.edge_class_of(t, p, q)
                g = coloring[eid]
                if g is None:
                    missing = True
                    break
                if sgn * ot.edge_dirs[eid] < 0:
                    g = group.inv(g)
                vals.append(g)
            if missing:
                continue
            if group.mul(vals[0], vals[1]) != vals[2]:
                return False
    return True


def _find(parent: list, x: int) -> int:
    """The root of ``x`` in the union-find forest ``parent``, halving the
    path on the way (the oracle keeps its own union-find, independent of
    ``catdata.UnionFind``)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def flat_colorings(ot: OrderedTriangulation, group: FiniteGroup,
                   tree_trivial: bool = True):
    """Flat edge colorings (values stored in the branching direction).

    With ``tree_trivial`` the colorings are gauge-fixed to be the identity
    on a spanning tree of the vertex graph; every flat coloring is gauge
    equivalent to exactly |G| of the full set per tree-trivial one.
    """
    tri = ot.tri
    n = tri.nedges
    fixed = [None] * n
    if tree_trivial:
        parent = list(range(tri.nvertices))
        for eid in range(n):
            t, a, b = tri.edge_members[eid][0]
            va, vb = tri.vertex_class[(t, a)], tri.vertex_class[(t, b)]
            ra, rb = _find(parent, va), _find(parent, vb)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
                fixed[eid] = group.identity
    out = []
    coloring = [None] * n

    def go(i):
        if i == n:
            out.append(tuple(coloring))
            return
        options = (fixed[i],) if fixed[i] is not None else tuple(group.elements())
        for g in options:
            coloring[i] = g
            if _flat_ok(ot, group, coloring):
                go(i + 1)
            coloring[i] = None

    go(0)
    return out


def dw_class_value(ot: OrderedTriangulation, coloring, theta: CocycleTable) -> FieldElement:
    """Product over tetrahedra of the cocycle evaluated on the branching-
    ordered edge values, to the power of the relative orientation sign."""
    group = theta.group
    if not _flat_ok(ot, group, list(coloring)):
        raise ValueError("coloring is not flat")
    field = theta.field
    total = field.one()
    for t in range(ot.tri.ntets):
        w0, w1, w2, w3 = ot.local_orders[t]
        args = []
        for (p, q) in ((w0, w1), (w1, w2), (w2, w3)):
            eid, sgn = ot.tri.edge_class_of(t, p, q)
            g = coloring[eid]
            if sgn * ot.edge_dirs[eid] < 0:
                g = group.inv(g)
            args.append(g)
        val = theta(*args)
        if ot.tet_sign(t) > 0:
            total = total * val
        else:
            total = total * val.inv()
    return total


def dw_partition(ot: OrderedTriangulation, group: FiniteGroup,
                 theta: CocycleTable) -> FieldElement:
    """|G|^(-V) times the sum of class values over all flat colorings."""
    if theta.group != group:
        raise ValueError("cocycle group mismatch")
    field = theta.field
    total = field.zero()
    for coloring in flat_colorings(ot, group, tree_trivial=True):
        total = total + dw_class_value(ot, coloring, theta)
    return total * field.rational(group.order).inv()


def dw_class_table(ot: OrderedTriangulation, group: FiniteGroup,
                   theta: CocycleTable):
    """Per gauge class: (representative coloring, class value).  Classes of
    tree-trivial colorings under the residual constant-gauge action."""
    cols = flat_colorings(ot, group, tree_trivial=True)
    index = {c: i for i, c in enumerate(cols)}
    parent = list(range(len(cols)))
    for i, col in enumerate(cols):
        for lam in group.elements():
            moved = tuple(group.mul(group.mul(lam, g), group.inv(lam)) for g in col)
            j = index.get(moved)
            if j is not None:
                ra, rb = _find(parent, i), _find(parent, j)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    classes = {}
    for i in range(len(cols)):
        classes.setdefault(_find(parent, i), []).append(i)
    out = []
    for root, members in sorted(classes.items()):
        rep = cols[min(members)]
        out.append((rep, dw_class_value(ot, rep, theta)))
    return out
