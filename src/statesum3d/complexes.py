"""Closed oriented 3-manifold triangulations, Pachner moves, dual skeletons
and local skeleton moves.

Triangulations are face-gluing complexes: ``glue[(tet, face)] = (tet',
face', perm)`` with ``perm`` in S4 sending ``face`` to ``face'`` and the
other three vertex slots to vertex slots.  Orientability requires signs
``s(t)`` with ``s(t') = -s(t) sign(perm)`` across every gluing.

The dual skeleton places one 2-polyhedron vertex per tetrahedron, one edge
per triangle class, one disk region per edge class.  All cyclic orders,
edge orientations, branch signs and vertex-link rotation systems come from
one model of the standard simplex (vertices at the origin and the unit
vectors of Q^3, link vertex k at the barycentre of face k), reduced to two
sign tables: the direction of the arc dual to a directed edge is a
permutation sign, and the clockwise order of the arcs at link vertex k is
``_CLOCKWISE``, per orientation sign of the tetrahedron.  The conventions
are:

* an edge class is directed by its lexicographically least representative;
* the dual region of a directed edge class is oriented so that the edge
  crosses it with intersection number +1;
* link spheres are oriented towards the enclosed vertex, and link rotation
  lists are taken in the opposite (clockwise) direction, matching the
  colored-graph convention of :mod:`statesum3d.graphcalc`;
* for a skeleton edge, the branch list stored at end 0 and the rotation at
  the end-1 link vertex are positionally reversed copies of each other, so
  the end-1 cyclic set is the dual of the end-0 cyclic set.

The local skeleton moves (T1, T2, T4 and their inverses) each write only
their local change, in the numbering of the skeleton they are given: added
regions, balls and vertex links come last and a removed link is None.
``_assemble`` drops what a move removed and numbers the rest densely, in
order, and ``_splice`` joins the arcs through the link vertices a move
removes (the two-valent ends of T1inv, the two ends of the edge T2
contracts).  No move changes the skeleton it is given.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations

from . import records
from .catdata import UnionFind
from .graphcalc import ColoredGraph, InternalError

__all__ = [
    "Triangulation",
    "parse_triangulation",
    "save_triangulation",
    "pachner",
    "Skeleton",
    "dual_skeleton",
    "MoveSpec",
    "apply_move",
    "parse_skeleton",
    "save_skeleton",
    "triangulations_isomorphic",
]


def _perm_sign(p) -> int:
    s = 1
    for i in range(4):
        for j in range(i + 1, 4):
            if p[i] > p[j]:
                s = -s
    return s


def _perm_inv(p):
    out = [0] * 4
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


class Triangulation:
    """Closed oriented face-gluing complex with derived cell classes."""

    def __init__(self, ntets: int, gluings: dict):
        self.ntets = ntets
        self.gluings = {}
        for (t, f), (t2, f2, perm) in gluings.items():
            self.gluings[(t, f)] = (t2, f2, tuple(perm))
        self._validate_gluings()
        self._orient()
        self._build_classes()

    # -- structure ----------------------------------------------------------

    def _validate_gluings(self):
        for t in range(self.ntets):
            for f in range(4):
                if (t, f) not in self.gluings:
                    raise ValueError(f"not closed: face ({t},{f}) unglued")
        for (t, f), (t2, f2, perm) in self.gluings.items():
            if perm[f] != f2:
                raise ValueError(f"gluing perm at ({t},{f}) does not map the face")
            back = self.gluings.get((t2, f2))
            if back != (t, f, _perm_inv(perm)):
                raise ValueError(f"gluing involution fails at ({t},{f})")
            if t == t2 and f == f2:
                raise ValueError(f"face ({t},{f}) glued to itself")

    def _orient(self):
        sign = [0] * self.ntets
        for start in range(self.ntets):
            if sign[start]:
                continue
            sign[start] = 1
            stack = [start]
            while stack:
                t = stack.pop()
                for f in range(4):
                    t2, f2, perm = self.gluings[(t, f)]
                    want = -sign[t] * _perm_sign(perm)
                    if sign[t2] == 0:
                        sign[t2] = want
                        stack.append(t2)
                    elif sign[t2] != want:
                        raise ValueError("unorientable: no consistent tetrahedron signs")
        self.orientations = tuple(sign)

    def _build_classes(self):
        # vertex classes
        verts = {(t, v) for t in range(self.ntets) for v in range(4)}
        self.vertex_class = self._orbits(
            verts,
            lambda tv: [self._map_vertex(tv, f) for f in range(4) if f != tv[1]])
        self.nvertices = max(self.vertex_class.values()) + 1

        # directed edge classes
        dedges = {(t, a, b) for t in range(self.ntets)
                  for a in range(4) for b in range(4) if a != b}
        dclass = self._orbits(
            dedges,
            lambda e: [self._map_dedge(e, f) for f in range(4) if f not in e[1:]])
        # pair directed classes under reversal
        rev_of = {}
        for (t, a, b), c in dclass.items():
            rev_of[c] = dclass[(t, b, a)]
        for c, cr in rev_of.items():
            if c == cr:
                raise ValueError("edge class identified with its own reversal")
        chosen = {}
        eid = 0
        members = {}
        for e in sorted(dedges):
            c = dclass[e]
            if c in chosen or rev_of[c] in chosen:
                continue
            chosen[c] = eid
            eid += 1
        self.edge_class = {}
        for e, c in dclass.items():
            if c in chosen:
                self.edge_class[e] = chosen[c]
        self.nedges = eid
        self.edge_members = {}
        for e, c in sorted(self.edge_class.items()):
            self.edge_members.setdefault(c, []).append(e)

        # triangle classes
        self.triangle_class = {}
        tid = 0
        for t in range(self.ntets):
            for f in range(4):
                if (t, f) in self.triangle_class:
                    continue
                t2, f2, _ = self.gluings[(t, f)]
                self.triangle_class[(t, f)] = tid
                self.triangle_class[(t2, f2)] = tid
                tid += 1
        self.ntriangles = tid
        if 2 * self.ntriangles != 4 * self.ntets:
            raise ValueError("inconsistent triangle pairing")

    def _map_vertex(self, tv, f):
        t, v = tv
        if v == f:
            return tv
        t2, _, perm = self.gluings[(t, f)]
        return (t2, perm[v])

    def _map_dedge(self, e, f):
        t, a, b = e
        t2, _, perm = self.gluings[(t, f)]
        return (t2, perm[a], perm[b])

    @staticmethod
    def _orbits(items, neighbors):
        index = {}
        for start in sorted(items):
            if start in index:
                continue
            cls = len(set(index.values()))
            stack = [start]
            index[start] = cls
            while stack:
                x = stack.pop()
                for y in neighbors(x):
                    if y not in index:
                        index[y] = cls
                        stack.append(y)
                    elif index[y] != cls:
                        # the neighbour relation is symmetric (the gluings
                        # are checked to be involutions), so a closed orbit
                        # never reaches another one
                        raise InternalError(f"orbit closure conflict at {y}")
            # renumber densely below
        # compact class ids in first-seen order
        remap = {}
        out = {}
        for x in sorted(items):
            c = index[x]
            if c not in remap:
                remap[c] = len(remap)
            out[x] = remap[c]
        return out

    # -- derived data ---------------------------------------------------------

    def edge_class_of(self, t, a, b):
        """Class id and direction sign of the directed edge (a -> b) of t."""
        if (t, a, b) in self.edge_class:
            return self.edge_class[(t, a, b)], 1
        return self.edge_class[(t, b, a)], -1

    def edge_class_ends(self, eid):
        t, a, b = self.edge_members[eid][0]
        return self.vertex_class[(t, a)], self.vertex_class[(t, b)]

    def summary(self):
        return {"tets": self.ntets, "triangles": self.ntriangles,
                "edges": self.nedges, "vertices": self.nvertices}


def _dual_arc(aa: int, bb: int, sign: int) -> tuple:
    """Tail and head link vertices of the arc dual to the directed edge
    aa -> bb of a tetrahedron of orientation ``sign``: from c to d (c < d
    the other two corners) when the permutation (aa, bb, c, d) and the
    tetrahedron differ in sign."""
    c, d = (x for x in range(4) if x not in (aa, bb))
    return (c, d) if _perm_sign((aa, bb, c, d)) != sign else (d, c)


# clockwise order (against the link-sphere orientation), at link vertex k,
# of the arcs dual to the edges of face k, per orientation sign of the
# tetrahedron
_CLOCKWISE = {
    1: (((2, 3), (1, 3), (1, 2)), ((0, 3), (2, 3), (0, 2)),
        ((1, 3), (0, 3), (0, 1)), ((0, 2), (1, 2), (0, 1))),
    -1: (((1, 3), (2, 3), (1, 2)), ((2, 3), (0, 3), (0, 2)),
         ((0, 3), (1, 3), (0, 1)), ((1, 2), (0, 2), (0, 1))),
}


_TRIANGULATION = records.Format("triangulation", ("tets N", "glue T F T2 F2 PPPP"),
                                numbered={"glue": 2})


def parse_triangulation(text: str) -> Triangulation:
    """Parse the triangulation file format: ``tets N`` then lines
    ``glue T F T2 F2 PPPP`` with PPPP the images of vertices 0..3."""
    recs = _TRIANGULATION.read(text)
    ntets = recs.one("tets")
    if ntets < 1:
        raise recs.bad("tets", (), "expected N >= 1")
    gluings = {}
    for (t, f), (t2, f2, perm) in recs.items("glue"):
        if t not in range(ntets) or t2 not in range(ntets):
            raise recs.bad("glue", (t, f), f"tet index outside 0..{ntets - 1}")
        if f not in range(4) or f2 not in range(4):
            raise recs.bad("glue", (t, f), "face outside 0..3")
        if sorted(perm) != ["0", "1", "2", "3"]:
            raise recs.bad("glue", (t, f), f"{perm} is not a permutation of 0123")
        perm = tuple(int(c) for c in perm)
        gluings[(t, f)] = (t2, f2, perm)
        gluings.setdefault((t2, f2), (t, f, _perm_inv(perm)))
    return Triangulation(ntets, gluings)


def save_triangulation(tri: Triangulation, name: str = "") -> str:
    lines = []
    if name:
        lines.append(f"# {name}")
    s = tri.summary()
    lines.append(f"# cells: tets {s['tets']} triangles {s['triangles']} "
                 f"edges {s['edges']} vertices {s['vertices']}")
    lines.append(f"tets {tri.ntets}")
    done = set()
    for (t, f), (t2, f2, perm) in sorted(tri.gluings.items()):
        if (t, f) in done:
            continue
        done.add((t, f))
        done.add((t2, f2))
        lines.append(f"glue {t} {f} {t2} {f2} " + "".join(str(x) for x in perm))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pachner moves
#
# A Pachner move swaps the tetrahedra of the boundary of the 4-simplex on the
# vertex labels 0..4 that contain a simplex sigma for those that contain its
# complement.  The star of sigma is labelled by walking across the faces that
# contain sigma; a labelled tetrahedron lacks exactly one label.

# the error when the star of sigma is not as on the 4-simplex
_STAR_ERRORS = {
    "1-4": None,    # the star of a tetrahedron is itself
    "2-3": "2-3 move needs two distinct tetrahedra",
    "3-2": "3-2 move needs an edge of valence three with three distinct tetrahedra",
    "4-1": "4-1 move needs a vertex with cone star of four tetrahedra",
}


def pachner(tri: Triangulation, move: str, location) -> Triangulation:
    """Bistellar move; ``move`` is one of '1-4', '2-3', '3-2', '4-1'.

    Locations: '1-4' takes a tetrahedron index; '2-3' a (tet, face) pair
    whose partner tetrahedron is distinct; '3-2' an edge class id of
    valence three with three distinct tetrahedra; '4-1' a vertex class id
    whose star is the cone pattern of four distinct tetrahedra.

    The new tetrahedra, one per vertex of sigma in ascending order, take the
    indices of the removed ones in ascending order; extra ones are appended
    and unused indices compacted.  Each copies the vertex order of the
    removed tetrahedron whose index it takes (the last one, if appended), so
    orientation signs and the orientation of the manifold are kept.
    """
    if move not in _STAR_ERRORS:
        raise ValueError(f"unknown Pachner move {move!r}")
    seed, sigma = _move_simplex(tri, move, location)
    star = _star_labels(tri, seed, sigma)
    if star is None or len(star) != 5 - len(sigma):
        raise ValueError(_STAR_ERRORS[move])
    return _replace_star(tri, star, sigma)


def _move_simplex(tri: Triangulation, move: str, location):
    """Seed tetrahedron and the local vertices of the simplex a move names."""
    if move == "2-3":
        t, f = location
        if t in range(tri.ntets) and f in range(4):
            return t, tuple(v for v in range(4) if v != f)
    else:
        k = int(location)
        if move == "1-4" and k in range(tri.ntets):
            return k, (0, 1, 2, 3)
        if move == "3-2" and k in range(tri.nedges):
            t, a, b = tri.edge_members[k][0]
            return t, (a, b)
        if move == "4-1" and k in range(tri.nvertices):
            t, v = min(tv for tv, c in tri.vertex_class.items() if c == k)
            return t, (v,)
    raise ValueError(f"{move} location {location!r} out of range")


def _missing(lab):
    """The label of 0..4 that a labelled tetrahedron lacks."""
    return 10 - sum(lab)


def _match(lab, lab2):
    """Vertex map between tetrahedra labelled ``lab`` and ``lab2``: equal
    labels correspond, and the label only ``lab`` has goes to the one only
    ``lab2`` has."""
    return tuple(lab2.index(_missing(lab) if x == _missing(lab2) else x) for x in lab)


def _star_labels(tri: Triangulation, seed: int, sigma):
    """{tet: labels of its vertices 0..3} over the star of sigma, with the
    seed labelled 0..3; None when a tetrahedron is reached with two
    labellings or two tetrahedra lack the same label."""
    star = {seed: (0, 1, 2, 3)}
    stack = [seed]
    while stack:
        t = stack.pop()
        lab = star[t]
        for f in range(4):
            if lab[f] in sigma:
                continue
            t2, f2, perm = tri.gluings[(t, f)]
            # the far vertex takes the label this tetrahedron lacks
            lab2 = [_missing(lab)] * 4
            for v in range(4):
                if v != f:
                    lab2[perm[v]] = lab[v]
            lab2 = tuple(lab2)
            if t2 not in star:
                star[t2] = lab2
                stack.append(t2)
            elif star[t2] != lab2:
                return None
    if len({_missing(lab) for lab in star.values()}) != len(star):
        return None
    return star


def _replace_star(tri: Triangulation, star: dict, sigma) -> Triangulation:
    """Swap the labelled star of sigma for one tetrahedron per vertex of
    sigma, the one lacking that label."""
    removed = sorted(star)
    slots = removed + list(range(tri.ntets, tri.ntets + len(sigma) - len(removed)))
    new = {}    # slot -> vertex labels of the new tetrahedron there
    for s, slot in zip(sigma, slots):
        lab = star[slot if slot in star else removed[-1]]
        new[slot] = tuple(_missing(lab) if x == s else x for x in lab)
    dead = set(removed[len(sigma):])
    alive = [t for t in range(tri.ntets) if t not in dead] + slots[len(removed):]
    index = {t: i for i, t in enumerate(alive)}
    slot_of = {_missing(lab): slot for slot, lab in new.items()}

    # where each surviving face goes: (new tet, new face, vertex map)
    where = {}
    for t in range(tri.ntets):
        for f in range(4):
            if t not in star:
                where[(t, f)] = (index[t], f, (0, 1, 2, 3))
            elif star[t][f] in sigma:
                slot = slot_of[star[t][f]]
                m = _match(star[t], new[slot])
                where[(t, f)] = (index[slot], m[f], m)
    # a face that contains sigma is glued only to another such face, or the
    # walk would have labelled a tetrahedron twice
    gl = {}
    for (t, f), (t2, f2, perm) in tri.gluings.items():
        if (t, f) in where:
            a, fa, ma = where[(t, f)]
            b, fb, mb = where[(t2, f2)]
            p = [0] * 4
            for v in range(4):
                p[ma[v]] = mb[perm[v]]
            gl[(a, fa)] = (b, fb, tuple(p))
    for slot, lab in new.items():
        for f in range(4):
            if lab[f] in sigma:
                other = slot_of[lab[f]]
                m = _match(lab, new[other])
                gl[(index[slot], f)] = (index[other], m[f], m)
    return Triangulation(len(alive), gl)


def triangulations_isomorphic(t1: Triangulation, t2: Triangulation) -> bool:
    """True when a relabeling of tetrahedra and vertices that respects
    orientation carries t1 onto t2.  Each triangulation is oriented by its
    tetrahedron signs (``Triangulation.orientations``), so a mirror image
    is not isomorphic unless the complex also has an orientation-reversing
    self-map."""
    if t1.ntets != t2.ntets:
        return False
    return _canonical_signature(t1) == _canonical_signature(t2)


def _canonical_signature(tri: Triangulation):
    """Least signature over the start labelings that are positively
    oriented: the sign of the vertex relabeling of the start tetrahedron
    matches its orientation sign."""
    best = None
    for start in range(tri.ntets):
        for perm0 in permutations(range(4)):
            if _perm_sign(perm0) != tri.orientations[start]:
                continue
            sig = _signature_from(tri, start, perm0)
            if best is None or sig < best:
                best = sig
    return best


def _signature_from(tri: Triangulation, start, perm0):
    label = {start: tuple(perm0)}   # tet -> relabeling old vertex -> new vertex
    order = [start]
    queue = [start]
    sig = []
    while queue:
        t = queue.pop(0)
        lab = label[t]
        inv = _perm_inv(lab)
        for fnew in range(4):
            f = inv[fnew]
            t2, f2, perm = tri.gluings[(t, f)]
            if t2 not in label:
                # transported labeling: new = old composed to keep this
                # gluing the identity on the face and minimal overall
                fresh = [None] * 4
                for v in range(4):
                    if v != f:
                        fresh[perm[v]] = lab[v]
                fresh[f2] = next(x for x in range(4) if x not in fresh)
                label[t2] = tuple(fresh)
                order.append(t2)
                queue.append(t2)
            idx = order.index(t2)
            lab2 = label[t2]
            pimg = tuple(lab2[perm[inv[v]]] for v in range(4))
            sig.append((order.index(t), fnew, idx, pimg))
    return tuple(sorted(sig))


# ---------------------------------------------------------------------------
# skeletons


class LinkGraph:
    """Vertex link: graph on the link sphere; arcs are region germs and
    link vertices (gvertices) are skeleton-edge ends."""

    def __init__(self, arcs, rotations):
        # arcs: list of (tail_gv, head_gv, region); rotations: per gvertex,
        # list of darts (arc, end) with end 0 = tail, 1 = head
        self.arcs = [tuple(a) for a in arcs]
        self.rotations = [list(r) for r in rotations]

    def items_at(self, gv):
        """Cyclic set [(region, sign)] at a gvertex; incoming arc = +1."""
        out = []
        for arc, end in self.rotations[gv]:
            tail, head, region = self.arcs[arc]
            out.append((region, 1 if end == 1 else -1))
        return out


def validate_links(links, edges, nregions: int, open_ends=()):
    """Check the vertex links of a skeleton and the edges that join them.

    Each link is a graph on the sphere whose vertices have valence at least
    2 and whose arcs name regions ``0..nregions-1``.  Each link vertex is
    the end of exactly one edge ``((v0, gv0), (v1, gv1))``, or one of the
    ``open_ends``: ``(what, (v, gv))`` pairs for the ends left open on a
    boundary, ``what`` naming the end in messages.  The two ends of an edge
    carry positionally dual branch lists.
    """
    owner = set()
    ends = [(f"edge {eid} end", key) for eid, edge in enumerate(edges) for key in edge]
    for what, key in ends + list(open_ends):
        if not (len(key) == 2 and 0 <= key[0] < len(links)
                and 0 <= key[1] < len(links[key[0]].rotations)):
            raise ValueError(f"{what} {key} is not a link vertex")
        if key in owner:
            raise ValueError(f"link vertex {key} used twice")
        owner.add(key)
    for v, lk in enumerate(links):
        for g, rot in enumerate(lk.rotations):
            if (v, g) not in owner:
                raise ValueError(f"link vertex ({v},{g}) is not an edge end")
            if len(rot) < 2:
                raise ValueError(f"link vertex ({v},{g}) has fewer than 2 half-edges")
        for a, (_, _, r) in enumerate(lk.arcs):
            if not 0 <= r < nregions:
                raise ValueError(f"arc {a} of vertex {v} has region {r}, "
                                 f"outside 0..{nregions - 1}")
        try:
            ColoredGraph(len(lk.rotations), lk.arcs, lk.rotations)
        except ValueError as exc:
            raise ValueError(f"vertex {v} link is not a sphere graph: {exc}") from None
    for eid, ((v0, g0), (v1, g1)) in enumerate(edges):
        want = [(r, -s) for (r, s) in reversed(links[v0].items_at(g0))]
        if links[v1].items_at(g1) != want:
            raise ValueError(f"edge {eid} ends are not positionally dual")


class Skeleton:
    """Oriented stratified 2-polyhedron of a closed manifold.

    regions: list of (chi, ball_neg, ball_pos); vertices: LinkGraph per
    skeleton vertex; edges: ((v0, gv0), (v1, gv1)).  The branch data of an
    edge is the rotation list at its end-0 gvertex; validation enforces the
    positional duality with the end-1 list.
    """

    def __init__(self, regions, ball_count, links, edges, name="skeleton"):
        self.regions = [tuple(r) for r in regions]
        self.ball_count = ball_count
        self.links = links
        self.edges = [tuple(map(tuple, e)) for e in edges]
        self.name = name
        self.validate()

    # -- validation ---------------------------------------------------------

    def validate(self):
        validate_links(self.links, self.edges, len(self.regions))
        for chi, bn, bp in self.regions:
            if not (0 <= bn < self.ball_count and 0 <= bp < self.ball_count):
                raise ValueError("region adjacent to unknown ball")

    # -- views ---------------------------------------------------------------

    def edge_branches(self, eid):
        """Branch list [(region, sign)] of an edge, end-0 anchored."""
        (v0, g0), _ = self.edges[eid]
        return self.links[v0].items_at(g0)

    def nvertices(self):
        return len(self.links)

    def nregions(self):
        return len(self.regions)

    def region_balls(self, r):
        return self.regions[r][1], self.regions[r][2]

    def is_spine(self):
        """Matveev-special check: one ball, at least two vertices, every
        link the tetrahedral graph."""
        if self.ball_count != 1 or len(self.links) < 2:
            return False
        for lk in self.links:
            if len(lk.rotations) != 4 or len(lk.arcs) != 6:
                return False
            if any(len(r) != 3 for r in lk.rotations):
                return False
            pairs = {frozenset((t, h)) for (t, h, _) in lk.arcs}
            if len(pairs) != 6:
                return False
        return True

    def summary(self):
        return {"regions": len(self.regions), "edges": len(self.edges),
                "vertices": len(self.links), "balls": self.ball_count}


def dual_skeleton(tri: Triangulation) -> Skeleton:
    """Dual skeleton of a closed oriented triangulation: regions are edge
    classes (disks), edges are triangle classes, vertices are tetrahedra
    with tetrahedral-graph links, balls are vertex classes."""
    regions = []
    for eid in range(tri.nedges):
        tail, head = tri.edge_class_ends(eid)
        regions.append((1, tail, head))

    links = []
    arc_index = {}   # (tet, frozenset edge) -> arc id
    for t in range(tri.ntets):
        sign = tri.orientations[t]
        arcs = []
        rotations = [[] for _ in range(4)]
        arc_of_edge = {}
        for a in range(4):
            for b in range(a + 1, 4):
                eid, dirsign = tri.edge_class_of(t, a, b)
                # direction of the class inside this tet
                aa, bb = (a, b) if dirsign > 0 else (b, a)
                tail_gv, head_gv = _dual_arc(aa, bb, sign)
                arc_id = len(arcs)
                arcs.append((tail_gv, head_gv, eid))
                arc_of_edge[frozenset((a, b))] = arc_id
                arc_index[(t, frozenset((a, b)))] = arc_id
        for k in range(4):
            for (x, y) in _CLOCKWISE[sign][k]:
                arc_id = arc_of_edge[frozenset((x, y))]
                rotations[k].append((arc_id, 1 if arcs[arc_id][1] == k else 0))
        links.append(LinkGraph(arcs, rotations))

    # edges: one per triangle class; align the end-1 rotation positionally
    edges = []
    done = set()
    for t in range(tri.ntets):
        for f in range(4):
            if (t, f) in done:
                continue
            t2, f2, perm = tri.gluings[(t, f)]
            done.add((t, f))
            done.add((t2, f2))
            # match branches across the gluing and re-anchor the end-1 list
            rot0 = links[t].rotations[f]
            part0 = [_pair_of_arc(t, arc_id, arc_index, f) for arc_id, _ in rot0]
            want_pairs = [tuple(sorted((perm[x], perm[y]))) for (x, y) in reversed(part0)]
            rot1 = links[t2].rotations[f2]
            pairs1 = [_pair_of_arc(t2, arc_id, arc_index, f2) for arc_id, _ in rot1]
            shift = None
            m = len(rot1)
            for s in range(m):
                if [pairs1[(s + i) % m] for i in range(m)] == want_pairs:
                    shift = s
                    break
            if shift is None:
                raise InternalError(f"triangle gluing ({t},{f}) -> ({t2},{f2}) does not "
                                    "align link rotations")
            links[t2].rotations[f2] = [rot1[(shift + i) % m] for i in range(m)]
            edges.append(((t, f), (t2, f2)))

    # renumber edge ends as (vertex, gvertex) = (tet, face)
    sk = Skeleton(regions, tri.nvertices, links,
                  [((t, f), (t2, f2)) for ((t, f), (t2, f2)) in edges],
                  name="dual")
    return sk


def _pair_of_arc(t, arc_id, arc_index, f):
    vs = [x for x in range(4) if x != f]
    for i, x in enumerate(vs):
        for y in vs[i + 1:]:
            if arc_index[(t, frozenset((x, y)))] == arc_id:
                return (x, y)
    raise KeyError((t, arc_id))


# ---------------------------------------------------------------------------
# region boundary walks (used by the local moves)


def region_boundary_walks(sk: Skeleton, region: int):
    """Boundary circles of a region as cyclic slot lists.

    Slots alternate ('edge', eid, branch, from_end) and ('arc', vertex,
    arc_id).  The walk follows the region's boundary orientation: link arcs
    are always traversed tail to head; an edge germ is traversed away from
    the end where its arc-dart points into the link vertex.
    """
    edge_at = {end: (eid, k) for eid, ends in enumerate(sk.edges) for k, end in enumerate(ends)}
    remaining = {(eid, j) for eid in range(len(sk.edges))
                 for j, (r, _) in enumerate(sk.edge_branches(eid)) if r == region}
    cycles = []
    while remaining:
        start = eid, j = min(remaining)
        cycle = []
        while True:
            from_end = 0 if sk.edge_branches(eid)[j][1] > 0 else 1
            cycle.append(("edge", eid, j, from_end))
            remaining.discard((eid, j))
            # branch j of an edge is position j at end 0, reversed at end 1
            v, g = sk.edges[eid][1 - from_end]
            rot = sk.links[v].rotations[g]
            arc_id, arc_end = rot[j if from_end == 1 else len(rot) - 1 - j]
            if arc_end != 0:
                raise InternalError(f"region walk of region {region} does not enter "
                                    f"arc {arc_id} of vertex {v} at its tail")
            _, head, r = sk.links[v].arcs[arc_id]
            if r != region:
                raise InternalError(f"region walk of region {region} meets arc {arc_id} "
                                    f"of vertex {v} of another region")
            cycle.append(("arc", v, arc_id))
            rot = sk.links[v].rotations[head]
            pos = rot.index((arc_id, 1))
            eid, end = edge_at[v, head]
            j = pos if end == 0 else len(rot) - 1 - pos
            if (eid, j) == start:
                break
        cycles.append(cycle)
    return cycles


# ---------------------------------------------------------------------------
# local moves on labeled skeletons (written in the old numbering; see the
# module docstring)


class MoveSpec:
    """Local move description.

    kinds and parameters:
      T1:    vertex1, arc1, vertex2, arc2   (arcs colored by one region)
      T1inv: edge
      T2:    edge
      T2inv: vertex, circle (list of arc ids crossed in cyclic order)
      T4:    region, side ('+' or '-'), label (group element for D+)
      T4inv: vertex
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.params = params

    def __repr__(self):
        return f"MoveSpec({self.kind}, {self.params})"


def apply_move(sk: Skeleton, labeling: dict, spec: MoveSpec, group):
    """Apply a labeled local move; returns (skeleton, labeling).  Labels of
    surviving regions are preserved bit-exactly; small-region labels follow
    the product condition."""
    if spec.kind not in _MOVES:
        raise ValueError(f"unknown move kind {spec.kind!r}")
    params = spec.params
    nlinks = len(sk.links)
    for name, size in (("vertex", nlinks), ("vertex1", nlinks), ("vertex2", nlinks),
                       ("edge", len(sk.edges)), ("region", len(sk.regions))):
        if name in params:
            _check_index(spec.kind, name, params[name], size)
    for name, vertex in (("arc1", "vertex1"), ("arc2", "vertex2"), ("circle", "vertex")):
        if name in params and vertex in params:
            arcs = len(sk.links[params[vertex]].arcs)
            for a in params[name] if name == "circle" else [params[name]]:
                _check_index(spec.kind, name, a, arcs)
    return _MOVES[spec.kind](sk, labeling, group, **params)


def _check_index(kind, name, value, size):
    """Refuse a move parameter that is not an index in ``range(size)``."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < size:
        raise ValueError(f"{kind}: {name} {value!r} is outside 0..{size - 1}")


def _assemble(sk: Skeleton, labeling, regions, ball_count, links, edges,
              dead_regions=(), into=None, dead_ball=None):
    """The labeled skeleton a move wrote in the numbering of ``sk``.

    The regions ``dead_regions`` and the ball ``dead_ball`` are dropped, as
    are the links that are None; an arc still on a dropped region moves to
    region ``into``.  What is left is numbered densely, in order."""
    rmap = {r: i for i, r in enumerate(r for r in range(len(regions)) if r not in dead_regions)}
    if into is not None:
        rmap.update(dict.fromkeys(dead_regions, rmap[into]))
    bmap = {b: i for i, b in enumerate(b for b in range(ball_count) if b != dead_ball)}
    vmap = {v: i for i, v in enumerate(v for v, lk in enumerate(links) if lk is not None)}
    out = Skeleton([(chi, bmap[bn], bmap[bp]) for r, (chi, bn, bp) in enumerate(regions)
                    if r not in dead_regions],
                   len(bmap),
                   [LinkGraph([(t, h, rmap[r]) for t, h, r in lk.arcs], lk.rotations)
                    for lk in links if lk is not None],
                   [((vmap[v0], g0), (vmap[v1], g1)) for (v0, g0), (v1, g1) in edges],
                   name=sk.name)
    return out, {rmap[r]: x for r, x in labeling.items() if r not in dead_regions}


def _splice(arcs, rotations, partner, what):
    """Remove the link vertices whose darts ``partner`` pairs, and join the
    arcs through them.

    An arc whose head dart is paired goes on as the arc of the partner dart,
    which must be a tail.  Each chain of arcs so joined becomes one arc, with
    the region of its first arc; chains are numbered in the order of their
    first arcs, and the link vertices left densely, in order.  Returns the
    link, the chains (lists of old arc ids) and the map of the link vertices
    left; ``what`` is the error when arcs close up through removed vertices
    alone."""
    gone = {arcs[a][end] for a, end in partner}
    gmap = {g: i for i, g in enumerate(g for g in range(len(rotations)) if g not in gone)}
    chains = []
    for a, (tail, _, _) in enumerate(arcs):
        if tail in gone:
            continue
        chain = [a]
        while arcs[chain[-1]][1] in gone:
            b, end = partner[chain[-1], 1]
            if end != 0:
                raise InternalError(f"splice joins the head of arc {chain[-1]} to a head")
            chain.append(b)
        chains.append(chain)
    if sum(map(len, chains)) != len(arcs):
        raise ValueError(what)
    dart = {}
    for c, chain in enumerate(chains):
        dart[chain[0], 0] = (c, 0)
        dart[chain[-1], 1] = (c, 1)
    link = LinkGraph([(gmap[arcs[c[0]][0]], gmap[arcs[c[-1]][1]], arcs[c[0]][2]) for c in chains],
                     [[dart[d] for d in rotations[g]] for g in gmap])
    return link, chains, gmap


def _move_t4(sk: Skeleton, labeling, group, region: int, side: str, label: int):
    chi, bn, bp = sk.regions[region]
    if side not in ("+", "-"):
        raise ValueError("T4 side must be '+' or '-'")
    # a bubble: a new ball b bounded by the disks D- = n and D+ = n + 1, on a
    # theta link whose branch order at the outgoing end is
    #   side '+': (r out-, D- in+, D+ in+)   side '-': (r out-, D+ in+, D- in+)
    n, b = len(sk.regions), sk.ball_count
    regions = list(sk.regions)
    regions[region] = (chi - 1, bn, bp)
    if side == "+":
        regions += [(1, bn, b), (1, b, bp)]
        arcs = [(0, 1, region), (1, 0, n), (1, 0, n + 1)]
        # product around the new edge: l(r)^-1 l(D-) l(D+) = 1
        small = group.mul(labeling[region], group.inv(label))
    else:
        regions += [(1, b, bp), (1, bn, b)]
        arcs = [(0, 1, region), (1, 0, n + 1), (1, 0, n)]
        # l(r)^-1 l(D+) l(D-) = 1
        small = group.mul(group.inv(label), labeling[region])
    theta = LinkGraph(arcs, [[(0, 0), (1, 1), (2, 1)], [(2, 0), (1, 0), (0, 1)]])
    w = len(sk.links)
    return _assemble(sk, {**labeling, n: small, n + 1: label}, regions, b + 1,
                     [*sk.links, theta], sk.edges + [((w, 0), (w, 1))])


def _move_t4_inv(sk: Skeleton, labeling, group, vertex: int):
    lk = sk.links[vertex]
    if len(lk.rotations) != 2 or len(lk.arcs) != 3:
        raise ValueError("T4inv: vertex link is not a three-arc theta graph")
    eid = {end: e for e, ends in enumerate(sk.edges) for end in ends}[vertex, 0]
    (va, _), (vb, _) = sk.edges[eid]
    if va != vertex or vb != vertex:
        raise ValueError("T4inv: the vertex edge is not a loop")
    # find the bubble pair: two disk regions incident only to this bubble
    counts = Counter(r for lk2 in sk.links for (_, _, r) in lk2.arcs)
    regs = {r for (_, _, r) in lk.arcs}
    disks = [r for r in regs if sk.regions[r][0] == 1 and counts[r] == 1]
    if len(disks) < 2:
        raise ValueError("T4inv: no bubble pair at this vertex")
    ball_usage = {}
    for r, (chi, x, y) in enumerate(sk.regions):
        for bball in (x, y):
            ball_usage.setdefault(bball, set()).add(r)
    pair = None
    for dm in disks:
        for dp in disks:
            if dm == dp:
                continue
            shared = set(sk.regions[dm][1:]) & set(sk.regions[dp][1:])
            for bb in shared:
                if ball_usage.get(bb, set()) <= {dm, dp}:
                    pair = (dm, dp, bb)
        if pair:
            break
    if pair is None:
        raise ValueError("T4inv: no bubble ball found")
    dm, dp, bub = pair
    r = next(x for x in regs if x not in (dm, dp))
    regions = list(sk.regions)
    chi, bn, bp = regions[r]
    regions[r] = (chi + 1, bn, bp)
    links = list(sk.links)
    links[vertex] = None
    return _assemble(sk, labeling, regions, sk.ball_count, links,
                     [ends for e, ends in enumerate(sk.edges) if e != eid],
                     dead_regions=(dm, dp), dead_ball=bub)


def _move_t1(sk: Skeleton, labeling, group, vertex1: int, arc1: int,
             vertex2: int, arc2: int):
    if vertex1 == vertex2:
        raise ValueError("T1 endpoints must be distinct vertices")
    region = sk.links[vertex1].arcs[arc1][2]
    if sk.links[vertex2].arcs[arc2][2] != region:
        raise ValueError("T1 arcs must bound the same region")
    cycles = region_boundary_walks(sk, region)
    at = {slot[1:]: (c, pos) for c, cyc in enumerate(cycles)
          for pos, slot in enumerate(cyc) if slot[0] == "arc"}
    try:
        (c1, p1), (c2, p2) = at[vertex1, arc1], at[vertex2, arc2]
    except KeyError:
        raise ValueError("arc is not on the region boundary") from None
    chi, bn, bp = sk.regions[region]
    regions = list(sk.regions)
    if c1 != c2:
        # the new edge joins two boundary circles of the region
        r1 = r2 = region
        regions[region] = (chi + 1, bn, bp)
        side2 = set()
    else:
        if chi != 1 or len(cycles) != 1:
            raise ValueError("ambiguous T1 on a non-disk region; rejected")
        # the new edge cuts the disk in two; the arcs strictly between arc2
        # and arc1 along the walk go to the new region r2
        r1, r2 = region, len(regions)
        regions.append((1, bn, bp))
        cyc = cycles[c1]
        side2 = {cyc[(p2 + k) % len(cyc)][1:] for k in range(1, (p1 - p2) % len(cyc))}
    links = [LinkGraph([(t, h, r2 if (v, a) in side2 else r)
                        for a, (t, h, r) in enumerate(lk.arcs)], lk.rotations)
             for v, lk in enumerate(sk.links)]
    # each arc is cut at a new link vertex x: it now ends at x, in region
    # ``pre``, and a new arc b goes on from x to its old head, in region ``post``
    x1, x2 = len(sk.links[vertex1].rotations), len(sk.links[vertex2].rotations)
    for v, a, x, pre, post in ((vertex1, arc1, x1, r2, r1), (vertex2, arc2, x2, r1, r2)):
        lk = links[v]
        tail, head, _ = lk.arcs[a]
        b = len(lk.arcs)
        lk.arcs[a] = (tail, x, pre)
        lk.arcs.append((x, head, post))
        lk.rotations = ([[(b, 1) if d == (a, 1) else d for d in rot] for rot in lk.rotations]
                        + [[(a, 1), (b, 0)]])
    return _assemble(sk, {**labeling, r2: labeling[region]}, regions, sk.ball_count, links,
                     sk.edges + [((vertex1, x1), (vertex2, x2))])


def _move_t1_inv(sk: Skeleton, labeling, group, edge: int):
    (v0, g0), (v1, g1) = sk.edges[edge]
    items = sk.edge_branches(edge)
    if len(items) != 2:
        raise ValueError("T1inv needs a valence-2 edge")
    if v0 == v1:
        raise ValueError("T1inv needs distinct endpoints")
    if len(sk.links[v0].rotations) < 2 or len(sk.links[v1].rotations) < 2:
        raise ValueError("T1inv endpoints must meet other edges")
    (ra, sa), (rb, sb) = items
    if sa == sb:
        raise ValueError("T1inv: adjacent region orientations are incompatible")
    if labeling[ra] != labeling[rb]:
        raise ValueError("T1inv: labels disagree across the edge")
    # the regions on the two sides become one, numbered as the lesser
    keep = min(ra, rb)
    _, bn, bp = sk.regions[keep]
    regions = list(sk.regions)
    regions[keep] = (sum(sk.regions[r][0] for r in {ra, rb}) - 1, bn, bp)
    # each end is a two-valent link vertex, whose two arcs become one
    links = list(sk.links)
    gmaps = {}
    for v, g in ((v0, g0), (v1, g1)):
        d, e = sk.links[v].rotations[g]
        links[v], _, gmaps[v] = _splice(sk.links[v].arcs, sk.links[v].rotations, {d: e, e: d},
                                        "T1inv would close a vertexless circle; rejected")
    edges = [tuple((v, gmaps[v][g]) if v in gmaps else (v, g) for v, g in ends)
             for eid, ends in enumerate(sk.edges) if eid != edge]
    return _assemble(sk, labeling, regions, sk.ball_count, links, edges,
                     dead_regions={ra, rb} - {keep}, into=keep)


def _move_t2(sk: Skeleton, labeling, group, edge: int):
    (v0, g0), (v1, g1) = sk.edges[edge]
    if v0 == v1:
        raise ValueError("T2 is allowed only when the endpoints of the edge are distinct")
    if len(sk.links[v0].rotations) < 2 and len(sk.links[v1].rotations) < 2:
        raise ValueError("T2 needs an endpoint meeting another edge")
    # the two links as one, the arcs and link vertices of v1 after those of
    # v0; the ends of the edge meet positionally reversed
    lk0, lk1 = sk.links[v0], sk.links[v1]
    na, ng = len(lk0.arcs), len(lk0.rotations)
    arcs = lk0.arcs + [(t + ng, h + ng, r) for t, h, r in lk1.arcs]
    rotations = lk0.rotations + [[(a + na, e) for a, e in rot] for rot in lk1.rotations]
    pairs = list(zip(rotations[g0], reversed(rotations[ng + g1])))
    merged, chains, gmap = _splice(arcs, rotations, dict(pairs + [(e, d) for d, e in pairs]),
                                   "T2 would create a closed region circle in the link")
    for chain in chains:
        if len({arcs[a][2] for a in chain}) != 1:
            raise InternalError(f"T2 chain across edge {edge} changes region")
    w = len(sk.links)
    links = [*sk.links, merged]
    links[v0] = links[v1] = None
    first = {v0: 0, v1: ng}
    edges = [tuple((w, gmap[first[v] + g]) if v in first else (v, g) for v, g in ends)
             for eid, ends in enumerate(sk.edges) if eid != edge]
    return _assemble(sk, labeling, sk.regions, sk.ball_count, links, edges)


def _move_t2_inv(sk: Skeleton, labeling, group, vertex: int, circle):
    lk = sk.links[vertex]
    crossed = list(circle)
    if len(set(crossed)) != len(crossed) or not crossed:
        raise ValueError("T2inv circle must cross distinct arcs")
    # the sides of the circle: classes of link vertices joined by arcs it
    # does not cross
    classes = UnionFind(len(lk.rotations))
    for a, (tail, head, _) in enumerate(lk.arcs):
        if a not in crossed:
            classes.union(tail, head)
    comp = [classes.find(g) for g in range(len(lk.rotations))]
    if len(set(comp)) != 2:
        raise ValueError("T2inv circle does not split the link into two sides")
    for a in crossed:
        tail, head, _ = lk.arcs[a]
        if comp[tail] == comp[head]:
            raise ValueError("T2inv circle must cross arcs joining the two sides")
    side_a = comp[lk.arcs[crossed[0]][0]]

    # product condition for the transported labeling
    total = group.identity
    for a in crossed:
        tail, head, r = lk.arcs[a]
        val = labeling[r] if comp[tail] == side_a else group.inv(labeling[r])
        total = group.mul(total, val)
    if total != group.identity:
        raise ValueError("T2inv circle violates the product condition")

    # each side becomes a link (vertices w and w + 1) whose new last link
    # vertex x ends the halves of the crossed arcs, in the circle's order on
    # side A and in reverse on side B
    w = len(sk.links)
    sides = [[g for g, s in enumerate(comp) if (s == side_a) == on_a] for on_a in (True, False)]
    at = {g: (w + k, i) for k, gs in enumerate(sides) for i, g in enumerate(gs)}
    links = list(sk.links)
    links[vertex] = None
    for gs, order in zip(sides, (crossed, crossed[::-1])):
        s, x = comp[gs[0]], len(gs)
        kept = [a for a, (t, _, _) in enumerate(lk.arcs) if a not in crossed and comp[t] == s]
        ids = {a: i for i, a in enumerate(kept + order)}
        arcs = [(at[t][1], at[h][1], r) for t, h, r in (lk.arcs[a] for a in kept)]
        arcs += [(at[t][1], x, r) if comp[t] == s else (x, at[h][1], r)
                 for t, h, r in (lk.arcs[a] for a in order)]
        rotations = [[(ids[a], e) for a, e in lk.rotations[g]] for g in gs]
        rotations.append([(ids[a], int(comp[lk.arcs[a][0]] == s)) for a in order])
        links.append(LinkGraph(arcs, rotations))
    edges = [tuple(at[g] if v == vertex else (v, g) for v, g in ends) for ends in sk.edges]
    edges.append(((w, len(sides[0])), (w + 1, len(sides[1]))))
    return _assemble(sk, labeling, sk.regions, sk.ball_count, links, edges)


_MOVES = {"T1": _move_t1, "T1inv": _move_t1_inv, "T2": _move_t2, "T2inv": _move_t2_inv,
          "T4": _move_t4, "T4inv": _move_t4_inv}


# ---------------------------------------------------------------------------
# skeleton files


# the vertex, arc, rot and edge lines of skeleton and cobordism files, and
# the fields that number them
LINK_FORMS = ("vertices N", "vertex V gvertices G arcs A", "arc V A tail T head H region R",
              "rot V G DART...", "edges N", "edge E ends V0 G0 V1 G1")
LINK_NUMBERS = {"vertex": 1, "arc": 2, "rot": 2, "edge": 1}


def link_lines(links, edges) -> list:
    """The ``LINK_FORMS`` lines of vertex links and of the edges joining them."""
    lines = [f"vertices {len(links)}"]
    for v, lk in enumerate(links):
        lines.append(f"vertex {v} gvertices {len(lk.rotations)} arcs {len(lk.arcs)}")
        for a, (tail, head, r) in enumerate(lk.arcs):
            lines.append(f"arc {v} {a} tail {tail} head {head} region {r}")
        for g, rot in enumerate(lk.rotations):
            lines.append(f"rot {v} {g} {records.dart_tokens(rot)}")
    lines.append(f"edges {len(edges)}")
    for eid, ((v0, g0), (v1, g1)) in enumerate(edges):
        lines.append(f"edge {eid} ends {v0} {g0} {v1} {g1}")
    return lines


def read_links(recs: records.Records):
    """The vertex links and the edges of the ``LINK_FORMS`` lines of a file."""
    links = []
    sizes = recs.numbered("vertex", range(recs.get("vertices", 0)), "vertex line")
    for v, (ng, na) in enumerate(sizes):
        links.append(LinkGraph(recs.numbered("arc", ((v, a) for a in range(na)), "arc line"),
                               recs.numbered("rot", ((v, g) for g in range(ng)), "rot line")))
    edges = [((v0, g0), (v1, g1)) for v0, g0, v1, g1
             in recs.numbered("edge", range(recs.count("edge")), "edge")]
    return links, edges


def save_skeleton(sk: Skeleton) -> str:
    lines = ["# statesum3d skeleton v1", f"name {sk.name}", f"balls {sk.ball_count}",
             f"regions {len(sk.regions)}"]
    for i, (chi, bn, bp) in enumerate(sk.regions):
        lines.append(f"region {i} chi {chi} balls {bn} {bp}")
    return "\n".join(lines + link_lines(sk.links, sk.edges)) + "\n"


_SKELETON = records.Format(
    "skeleton", ("name NAME", "balls N", "regions N", "region I chi X balls B0 B1") + LINK_FORMS,
    numbered={"region": 1, **LINK_NUMBERS})


def parse_skeleton(text: str) -> Skeleton:
    recs = _SKELETON.read(text)
    balls = recs.one("balls")
    links, edges = read_links(recs)
    regions = recs.numbered("region", range(recs.count("region")), "region")
    return Skeleton(regions, balls, links, edges, name=recs.get("name", "skeleton"))
