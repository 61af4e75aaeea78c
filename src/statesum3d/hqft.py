"""Cobordism matrices, cylinder projectors, and state-space ranks.

Surface skeletons are labeled rotation-system graphs whose complement
faces are disks.  Cobordisms enter through cobordism skeletons: stratified
2-polyhedra with boundary, all of whose interior vertex links are sphere
graphs.  Two programmatic builders cover the cylinder over a surface:

* the cylinder over one skeleton: strips over each edge below and above a
  full copy of the surface at mid level (one interior vertex per graph
  vertex, plus the equator structure on the sheet);
* the cylinder between a skeleton and a refinement of it (obtained by
  subdividing edges): bottom strips run over the coarse edges.

A strip-only product without the mid-level sheet is not a skeleton in the
required sense (its complement prisms meet both boundary components) and
evaluates to the identity instead of the cylinder projector; the sheet
versions reproduce the expected projector ranks.

Link rotation systems, arc directions and branch signs follow one local
model of the product neighborhood (surface orientation times the interval):
south-pole rotation is the stored clockwise dart order with the surface
signs negated, north-pole rotation is the reversed order with the surface
signs (one pole writer makes both: the top pole is the bottom one with its
arcs and its rotation reversed, a chord included), a level edge reads (top
strip +, right face -, bottom strip -, left face +) at its tail end, and
sheet arcs run in the stored rotation direction.  The boundary index space
at a vertex is the tree basis of the south-type cyclic set.  A top end
reads the dual of that set, and the duality pairing, which realizes the
canonical isomorphism of the functoriality normalization, takes its index
to the south-type basis.  The state-sum engine applies that pairing itself,
as it does at every edge's end 1 (the ``paired`` ends of
:class:`statesum3d.statesum._Evaluator`).  The product condition of a
labeling is the grade condition of the south-type sets: at each vertex, the
product in dart order of the outgoing labels and the inverted incoming ones
is the identity.

The matrix of a cobordism (:func:`assemble_block_matrix`) has one block per
pair of bottom and top boundary colorings.  What depends on one coloring is
built once for it: the tree count of each vertex's south-type set, the
candidate lists of the regions pinned to its edges and, for a top
coloring, the normalization.  Each pair then runs one state sum, with the
boundary regions pinned, through an evaluator shared by all pairs, and its
nonzero entries are written straight into the matrix, so a pair whose block
is zero costs only its state sum.
"""

from __future__ import annotations

from math import prod

from . import records
from .catdata import FiniteGroup, GFusionData, backtrack, neutral_dimension
from .complexes import (LINK_FORMS, LINK_NUMBERS, LinkGraph, link_lines, read_links,
                        validate_links)
from .exactnum import FieldElement
from .graphcalc import hom_dim, trace_rotation_faces
from .linalg import matrix_mul, matrix_rank
from .statesum import _Evaluator

__all__ = [
    "SurfaceSkeleton",
    "subdivide_edge",
    "CobordismSkeleton",
    "build_product_cylinder",
    "build_sheet_cylinder",
    "cylinder_projector",
    "hqft_space_rank",
    "HqftSpace",
    "builtin_surface",
    "save_surface",
    "parse_surface",
]


class SurfaceSkeleton:
    """Labeled skeleton of a closed oriented pointed surface.

    edges: (tail, head); rotations: clockwise dart lists per vertex;
    labels: edge -> group element, such that at each vertex the product
    in dart order of the labels of the outgoing edges and the inverses of
    those of the incoming ones is the identity (the grade condition of the
    south-type set, see :meth:`_south_items`);
    component descriptors: list of (genus, base_face) checked against the
    traced Euler characteristic, base faces pairwise distinct per component.
    """

    def __init__(self, group: FiniteGroup, edges, rotations, labels,
                 components, name: str = "surface"):
        self.group = group
        self.edges = [tuple(e) for e in edges]
        self.rotations = [list(map(tuple, r)) for r in rotations]
        self.labels = dict(labels)
        self.components = list(components)
        self.name = name
        self.nvertices = len(rotations)
        if not self.edges:
            raise ValueError("surface skeleton needs at least one edge")
        self.faces, self.dart_pos = trace_rotation_faces(self.rotations)
        self.corner_face = {}
        for fi, corners in enumerate(self.faces):
            for c in corners:
                self.corner_face[c] = fi
        # Euler check per declared component set (connected skeleton per component)
        chi = self.nvertices - len(self.edges) + len(self.faces)
        want = sum(2 - 2 * g for (g, _) in self.components)
        if chi != want:
            raise ValueError(f"surface Euler characteristic {chi} does not match "
                             f"declared genus data {self.components}")
        for (_, base) in self.components:
            if not (0 <= base < len(self.faces)):
                raise ValueError("base point face out of range")
        for v in range(self.nvertices):
            if len(self.rotations[v]) < 2:
                raise ValueError(f"surface vertex {v} has valence < 2")
            total = group.identity
            for (e, end) in self.rotations[v]:
                g = self.labels[e]
                total = group.mul(total, group.inv(g) if end == 1 else g)
            if total != group.identity:
                raise ValueError(f"labeling violates the product condition at vertex {v}")

    def colorings(self, cat: GFusionData):
        """Admissible simple colorings: grade matches the label on every
        edge and all vertex south-type sets have positive rank.  Each vertex
        is checked as soon as its last edge is colored; the colorings come
        in the order of the product of the edges' sectors."""
        checks = [[] for _ in self.edges]
        for v, rot in enumerate(self.rotations):
            checks[max(e for e, _ in rot)].append(
                lambda combo, v=v: hom_dim(cat, self._south_items(v, combo)) > 0)
        return backtrack([cat.sector(self.labels[e]) for e in range(len(self.edges))], checks)

    def _south_items(self, v, coloring):
        """South-type cyclic set at a vertex, as (color, sign) items: stored
        dart order, negated surface signs."""
        return [(coloring[e], -1 if end == 1 else 1) for (e, end) in self.rotations[v]]

    def block_dim(self, cat, coloring) -> int:
        d = 1
        for v in range(self.nvertices):
            d *= hom_dim(cat, self._south_items(v, coloring))
        return d


def subdivide_edge(surf: SurfaceSkeleton, edge: int) -> SurfaceSkeleton:
    """Refine a surface skeleton by one degree-2 vertex on an edge; both
    pieces keep the edge's label and direction."""
    t, h = surf.edges[edge]
    w = surf.nvertices
    e2 = len(surf.edges)
    edges = list(surf.edges)
    edges[edge] = (t, w)
    edges.append((w, h))
    rotations = [list(r) for r in surf.rotations]
    rotations.append([(edge, 1), (e2, 0)])
    for v in range(surf.nvertices):
        rotations[v] = [((e2, 1) if (e, end) == (edge, 1) else (e, end))
                        for (e, end) in rotations[v]]
    labels = dict(surf.labels)
    labels[e2] = labels[edge]
    return SurfaceSkeleton(surf.group, edges, rotations, labels,
                           surf.components, name=surf.name + "_fine")


class CobordismSkeleton:
    """Interior data of a cobordism presented by a skeleton.

    regions: (chi, label, pin) where pin is None or ('bot'|'top', edge id)
    marking the boundary-adjacent disks whose colors are pinned by the
    boundary colorings; links: interior vertex links (arcs carry region
    ids); edges: interior edges ((v,gv),(v,gv)); boundary: per side, the
    list over surface vertices of (interior vertex, gvertex) where the
    transversal edge meets its interior link.  ball complement certified by
    the builders.  The constructor checks, once and for every coloring,
    that end ``v`` of a side reads surface vertex ``v``: its pin edges and
    signs are the south-type set (bottom) or its dual (top).
    """

    def __init__(self, group, regions, links, edges, bot_ends, top_ends,
                 ball_count, bot_surface, top_surface, name="cobordism"):
        self.group = group
        self.regions = list(regions)
        self.links = links
        self.edges = [tuple(map(tuple, e)) for e in edges]
        self.bot_ends = list(map(tuple, bot_ends))
        self.top_ends = list(map(tuple, top_ends))
        self.ball_count = ball_count
        self.bot_surface = bot_surface
        self.top_surface = top_surface
        self.name = name
        self._validate()

    def _validate(self):
        sides = (("bot", self.bot_ends), ("top", self.top_ends))
        ends = [(f"{side} end {i}", key) for side, keys in sides for i, key in enumerate(keys)]
        validate_links(self.links, self.edges, len(self.regions), ends)
        # the boundary colorings of a side color exactly the regions at its ends
        met = {side: {r for v, g in keys for r, _ in self.links[v].items_at(g)}
               for side, keys in sides}
        for what, (v, g) in ends:
            for r, _ in self.links[v].items_at(g):
                if self.regions[r][2] is None:
                    raise ValueError(f"{what} meets region {r}, which has no pin")
        for r, (_, label, pin) in enumerate(self.regions):
            if not 0 <= label < self.group.order:
                raise ValueError(f"region {r} label {label} outside 0..{self.group.order - 1}")
            if pin is None:
                continue
            side, e = pin
            surf = self.bot_surface if side == "bot" else self.top_surface
            if not 0 <= e < len(surf.edges):
                raise ValueError(f"region {r} pinned to {side} edge {e}, "
                                 f"outside 0..{len(surf.edges) - 1}")
            if surf.labels[e] != label:
                raise ValueError(f"region {r} label {label} differs from the label "
                                 f"{surf.labels[e]} of its pin {side} edge {e}")
            if r not in met[side] or r in met["top" if side == "bot" else "bot"]:
                raise ValueError(f"region {r} is pinned to {side} edge {e}, "
                                 f"but does not meet {side} ends alone")
        # blocks are written at the offsets of the surfaces' colorings, so
        # end v must read surface vertex v
        for side, keys in sides:
            surf = self.bot_surface if side == "bot" else self.top_surface
            if len(keys) != surf.nvertices:
                raise ValueError(f"{len(keys)} {side} ends for {surf.nvertices} surface vertices")
            for v, (lv, g) in enumerate(keys):
                items = surf._south_items(v, range(len(surf.edges)))
                if side == "top":
                    items = [(e, -s) for e, s in reversed(items)]
                if [(self.regions[r][2][1], s) for r, s in self.links[lv].items_at(g)] != items:
                    raise ValueError(
                        f"bottom vertex {v}: the link's cyclic set is not the bottom surface's"
                        if side == "bot" else f"top vertex {v}: the link's cyclic set is not "
                        "the dual of the top surface's")


def build_sheet_cylinder(bot: SurfaceSkeleton, top: SurfaceSkeleton,
                         parent, ambient_is_top: bool = True) -> CobordismSkeleton:
    """Cylinder with a full surface sheet at mid level.

    One side is the ambient (finer) skeleton, the other is obtained from it
    by forgetting subdivision vertices; ``parent`` maps ambient edges to
    coarse-side edges.  With ``ambient_is_top`` the top is ambient and the
    bottom coarse, otherwise the reverse.  Coarse-side strips run over
    chains of co-directed ambient edges; at subdivision vertices they pass
    the sheet as chords.  Sheet regions are ambient faces with identity
    labels, so the cylinder represents the identity homotopy class.
    """
    ambient = top if ambient_is_top else bot
    coarse = bot if ambient_is_top else top
    group = bot.group
    if coarse.nvertices > ambient.nvertices:
        raise ValueError("the coarse side must be a sub-skeleton of the ambient side")
    for e in range(len(ambient.edges)):
        if coarse.labels[parent[e]] != ambient.labels[e]:
            raise ValueError("refinement labels disagree with the coarse labels")
    surfs = (bot, top)
    regions, strip = [], []   # strip[i][e]: side i's strip region over ambient edge e
    for i, side in enumerate(("bot", "top")):
        first = len(regions)
        regions += [(1, surfs[i].labels[e], (side, e)) for e in range(len(surfs[i].edges))]
        is_coarse = (i == 0) == ambient_is_top
        strip.append([first + (parent[e] if is_coarse else e) for e in range(len(ambient.edges))])
    sheet_region = {}
    for f in range(len(ambient.faces)):
        sheet_region[f] = len(regions)
        regions.append((1, group.identity, None))

    links = []
    ends = ([], [])
    equator0 = []    # gvertex of the first equator vertex, per ambient vertex
    for v in range(ambient.nvertices):
        rot = ambient.rotations[v]
        k = len(rot)
        # gvertices: the poles of the sides that have v, bottom first, then the equator
        poles = [i for i in (0, 1) if v < surfs[i].nvertices]
        q_of = [len(poles) + j for j in range(k)]
        equator0.append(len(poles))
        arcs = []
        rotations = [None] * (len(poles) + k)
        darts = []
        for i in (0, 1):
            gv = poles.index(i) if i in poles else None
            side_darts, pole_rotation = _pole(arcs, rot, q_of, gv, strip[i], i == 1)
            darts.append(side_darts)
            if gv is not None:
                rotations[gv] = pole_rotation
                ends[i].append((v, gv))
        sheet_dart_out = {}
        sheet_dart_in = {}
        for i in range(k):
            f = ambient.corner_face[(v, i)]
            a = len(arcs)
            arcs.append((q_of[i], q_of[(i + 1) % k], sheet_region[f]))
            sheet_dart_out[i] = (a, 0)
            sheet_dart_in[(i + 1) % k] = (a, 1)
        for j, (e, end) in enumerate(rot):
            left_in = sheet_dart_in[j]
            right_out = sheet_dart_out[j]
            bot_dart = darts[0][j]
            top_dart = darts[1][j]
            if end == 0:
                rotations[q_of[j]] = [top_dart, right_out, bot_dart, left_in]
            else:
                rotations[q_of[j]] = [right_out, bot_dart, left_in, top_dart]
        links.append(LinkGraph(arcs, rotations))

    edges = []
    for e, (t, h) in enumerate(ambient.edges):
        jt = next(j for j, d in enumerate(ambient.rotations[t]) if d == (e, 0))
        jh = next(j for j, d in enumerate(ambient.rotations[h]) if d == (e, 1))
        edges.append(((t, equator0[t] + jt), (h, equator0[h] + jh)))
    bot_ends, top_ends = ends
    return CobordismSkeleton(group, regions, links, edges, bot_ends, top_ends,
                             len(bot.faces) + len(top.faces), bot, top,
                             name=f"cyl({bot.name}->{top.name})")


def _pole(arcs, rot, q_of, gv, strip, top):
    """Append the arcs of one pole of a sheet vertex with darts ``rot`` and
    equator gvertices ``q_of``; return the dart of each equator gvertex on
    them and the rotation at the pole gvertex ``gv``.

    The bottom pole has one arc per dart, from the equator to ``gv`` for an
    outgoing edge and back for an incoming one, listed at ``gv`` in dart
    order.  The top pole reverses the arcs and their order.  A side that
    lacks the vertex (``gv`` None) passes the sheet as one chord between
    the equator gvertices of the outgoing and incoming darts, reversed
    alike at the top, and has no rotation.
    """
    if gv is None:
        down = next(j for j, (_, end) in enumerate(rot) if end == 0)
        up = next(j for j, (_, end) in enumerate(rot) if end == 1)
        tail, head = (up, down) if top else (down, up)
        arcs.append((q_of[tail], q_of[head], strip[rot[down][0]]))
        return {tail: (len(arcs) - 1, 0), head: (len(arcs) - 1, 1)}, None
    darts = []
    for j, (e, end) in enumerate(rot):
        at_q = end ^ top   # the end of the arc at the equator: 0 tail, 1 head
        darts.append((len(arcs), at_q))
        arcs.append((gv, q_of[j], strip[e]) if at_q else (q_of[j], gv, strip[e]))
    rotation = [(a, 1 - at_q) for a, at_q in darts]
    return darts, rotation[::-1] if top else rotation


# ---------------------------------------------------------------------------
# evaluation


def _neutral_power(cat, k):
    """dim(C_1)^k, which is defined only when dim(C_1) is nonzero."""
    nd = neutral_dimension(cat)
    if nd.is_zero():
        raise ValueError("neutral dimension is zero")
    return nd ** k


def _pins(cob, side, coloring):
    """``(region, [color])`` for each region pinned to an edge of ``side``,
    the color being that of the edge in ``coloring``."""
    return [(r, [coloring[pin[1]]]) for r, (_, _, pin) in enumerate(cob.regions)
            if pin is not None and pin[0] == side]


def _scatter(raw, bot_dims, top_dims, norm, matrix, row0, col0):
    """Add the block of one coloring pair, from its unnormalized tensor
    ``raw`` times ``norm``, into ``matrix`` at row ``row0`` and column
    ``col0``: the bottom indices flatten to the column and the top ones,
    already in the south-type tree bases, to the row."""
    nb = len(bot_dims)
    for idx, val in raw.items():
        if val.is_zero():
            continue
        col = 0
        for i, d in zip(idx, bot_dims):
            col = col * d + i
        row = 0
        for i, d in zip(idx[nb:], top_dims):
            row = row * d + i
        matrix[row0 + row][col0 + col] = matrix[row0 + row][col0 + col] + val * norm


class HqftSpace:
    """Block projector over all colorings of a surface skeleton."""

    def __init__(self, surf, cat, colorings, block_dims, matrix, rank):
        self.surface = surf
        self.cat = cat
        self.colorings = colorings
        self.block_dims = block_dims
        self.matrix = matrix
        self.rank = rank

    def __repr__(self):
        return (f"HqftSpace({self.surface.name}, {self.cat.name}: "
                f"dim {len(self.matrix)}, rank {self.rank})")


def assemble_block_matrix(cob: CobordismSkeleton, cat: GFusionData):
    """Full matrix of the cobordism over all boundary coloring pairs: one
    pinned state sum per pair, scattered into the matrix, with what depends
    on one coloring built once for it (see the module docstring)."""
    bot_cols, bot_trees = _colorings(cob.bot_surface, cat)
    if cob.top_surface is cob.bot_surface:
        top_cols, top_trees = bot_cols, bot_trees
    else:
        top_cols, top_trees = _colorings(cob.top_surface, cat)
    bot_dims = [prod(trees) for trees in bot_trees]
    top_dims = [prod(trees) for trees in top_trees]
    zero = cat.field.zero()
    full = [[zero] * sum(bot_dims) for _ in range(sum(top_dims))]
    ev = _Evaluator(cob, cat, cob.bot_ends + cob.top_ends, paired=cob.top_ends)
    free = [cat.sector(label) for _, label, _ in cob.regions]
    bottoms = [_pins(cob, "bot", c_bot) for c_bot in bot_cols]
    # dim(C_1)^(#top faces - |P|), divided per top coloring by its dimension
    top_norm = _neutral_power(cat, len(cob.top_surface.faces) - cob.ball_count)
    row0 = 0
    for c_top, top_counts, top_dim in zip(top_cols, top_trees, top_dims):
        norm = top_norm
        for c in c_top:
            norm = norm / cat.dim(c)
        top_pins = _pins(cob, "top", c_top)
        col0 = 0
        for bot_pins, trees, bot_dim in zip(bottoms, bot_trees, bot_dims):
            sectors = list(free)
            for r, candidates in bot_pins + top_pins:
                sectors[r] = candidates
            raw = ev.total(sectors)[0]
            if raw:
                _scatter(raw, trees, top_counts, norm, full, row0, col0)
            col0 += bot_dim
        row0 += top_dim
    return full, bot_cols, bot_dims, top_cols, top_dims


def _colorings(surf, cat):
    """The colorings of a surface skeleton, each with the tree count of
    every vertex's south-type set; a block's dimension is their product."""
    cols = surf.colorings(cat)
    return cols, [[hom_dim(cat, surf._south_items(v, c)) for v in range(surf.nvertices)]
                  for c in cols]


def build_product_cylinder(surf: SurfaceSkeleton) -> CobordismSkeleton:
    """Cylinder skeleton over one surface skeleton (same ends)."""
    parent = {e: e for e in range(len(surf.edges))}
    return build_sheet_cylinder(surf, surf, parent)


def cylinder_projector(surf: SurfaceSkeleton, cat: GFusionData) -> HqftSpace:
    """Projector of the cylinder over a surface skeleton; verifies exact
    idempotence and returns the exact rank."""
    cob = build_product_cylinder(surf)
    matrix, cols, dims, _, _ = assemble_block_matrix(cob, cat)
    sq = matrix_mul(matrix, matrix, cat.field)
    if sq != matrix:
        raise ValueError("cylinder evaluation is not idempotent; convention bug")
    return HqftSpace(surf, cat, cols, dims, matrix, matrix_rank(matrix, cat.field))


def hqft_space_rank(descriptor, cat: GFusionData) -> int:
    """Rank of the state space of a shipped surface skeleton via its
    projector; the empty surface has rank 1 by convention."""
    if descriptor == "empty":
        return 1
    return cylinder_projector(builtin_surface(descriptor, cat.group), cat).rank


# ---------------------------------------------------------------------------
# shipped surface skeletons and files


def builtin_surface(name: str, group: FiniteGroup, labels=None) -> SurfaceSkeleton:
    """The shipped skeleton ``data/surfaces/<name>.surf`` over ``group``:
    ``sphere_circle`` (one-vertex great circle), ``sphere_fine`` (its circle
    subdivided), ``torus_2loop`` (one vertex, two loops), ``torus_fine``
    (first loop subdivided) and ``genus2_k33`` (K3,3 on the genus-2 surface).
    The files have no group line and no edge labels, so every edge carries
    the identity; ``labels`` (edge -> element) overrides them edge by edge,
    for twisted classes."""
    surf = parse_surface(records.shipped_text("surface", name), group)
    if labels is None:
        return surf
    return SurfaceSkeleton(group, surf.edges, surf.rotations, {**surf.labels, **labels},
                           surf.components, name=surf.name)


def refinement_parent(name: str):
    """Parent map for the shipped refinements (fine edge -> coarse edge)."""
    if name == "sphere_fine":
        return {0: 0, 1: 0}
    if name == "torus_fine":
        return {0: 0, 1: 1, 2: 0}
    raise ValueError(f"{name!r} is not a shipped refinement")


def save_surface(surf: SurfaceSkeleton) -> str:
    lines = ["# statesum3d surface skeleton v1", f"name {surf.name}",
             f"group {surf.group.name}",
             f"components {' '.join(f'{g}:{b}' for g, b in surf.components)}",
             f"vertices {surf.nvertices}", f"edges {len(surf.edges)}"]
    for k, (t, h) in enumerate(surf.edges):
        lines.append(f"edge {k} {t} {h} label {surf.labels[k]}")
    for v, rot in enumerate(surf.rotations):
        lines.append(f"rot {v} {records.dart_tokens(rot)}")
    return "\n".join(lines) + "\n"


_SURFACE = records.Format(
    "surface", ("name NAME", "group GROUP", "components G:B...", "vertices N", "edges N",
                "edge K T H label L", "edge K T H", "rot V DART..."),
    numbered={"edge": 1, "rot": 1})


def _check_group(recs, group: FiniteGroup, kind: str):
    """Refuse a file whose ``group`` line names another group than the
    backend's, one of the same order with another table included."""
    gname = recs.get("group")
    if gname is not None and FiniteGroup.by_name(gname) != group:
        raise ValueError(f"{kind} file group does not match the backend group")


def parse_surface(text: str, group: FiniteGroup) -> SurfaceSkeleton:
    recs = _SURFACE.read(text)
    _check_group(recs, group, "surface")
    nv = recs.get("vertices", 0)
    edges = recs.numbered("edge", range(recs.count("edge")), "edge")
    rots = recs.numbered("rot", range(nv), "rot line for vertex")
    labels = {}
    for k, (t, h, *label) in enumerate(edges):
        if not (0 <= t < nv and 0 <= h < nv):
            raise recs.bad("edge", k, f"endpoint outside 0..{nv - 1}")
        labels[k] = label[0] if label else group.identity
        if not 0 <= labels[k] < group.order:
            raise recs.bad("edge", k, f"label outside 0..{group.order - 1}")
    for v, rot in enumerate(rots):
        at_v = [(e, end) for e, ends in enumerate(edges) for end in (0, 1) if ends[end] == v]
        if sorted(rot) != at_v:
            raise recs.bad("rot", v, f"expected each edge end at vertex {v} once")
    return SurfaceSkeleton(group, [edge[:2] for edge in edges], rots, labels,
                           recs.get("components", []), name=recs.get("name", "surface"))


class _EmptySurface:
    """Stand-in for the empty surface: no vertices, edges, or faces."""

    nvertices = 0
    edges = faces = ()

    def colorings(self, cat):
        return [()]


# ---------------------------------------------------------------------------
# cobordism files


def save_cobordism(cob: CobordismSkeleton) -> str:
    lines = ["# statesum3d cobordism skeleton v1", f"name {cob.name}",
             f"balls {cob.ball_count}", f"group {cob.group.name}"]
    for side, surf in (("bot", cob.bot_surface), ("top", cob.top_surface)):
        body = save_surface(surf) if surf.edges else "name empty\n"
        lines.append(f"begin {side}_surface")
        lines.extend("  " + ln for ln in body.strip().splitlines())
        lines.append(f"end {side}_surface")
    lines.append(f"regions {len(cob.regions)}")
    for i, (chi, label, pin) in enumerate(cob.regions):
        pin_s = "none" if pin is None else f"{pin[0]}:{pin[1]}"
        lines.append(f"region {i} chi {chi} label {label} pin {pin_s}")
    lines += link_lines(cob.links, cob.edges)
    lines.append("bot_ends " + " ".join(f"{v}.{g}" for (v, g) in cob.bot_ends))
    lines.append("top_ends " + " ".join(f"{v}.{g}" for (v, g) in cob.top_ends))
    return "\n".join(lines) + "\n"


_COBORDISM = records.Format(
    "cobordism", ("name NAME", "balls N", "group GROUP", "begin SIDE:", "end SIDE", "regions N",
                  "region I chi X label L pin PIN") + LINK_FORMS
    + ("bot_ends [V.G...]", "top_ends [V.G...]"),
    numbered={"begin": 1, "end": 1, "region": 1, **LINK_NUMBERS})


def parse_cobordism(text: str, group: FiniteGroup) -> CobordismSkeleton:
    recs = _COBORDISM.read(text)
    _check_group(recs, group, "cobordism")
    balls = recs.one("balls")
    links, edges = read_links(recs)
    regions = []
    for r, (chi, label, pin) in enumerate(
            recs.numbered("region", range(recs.count("region")), "region")):
        side, _, e = pin.partition(":")
        if pin != "none" and (side not in ("bot", "top") or not e.isdecimal()):
            raise recs.bad("region", r, "expected pin none, bot:E or top:E")
        regions.append((chi, label, None if pin == "none" else (side, int(e))))
    blocks = recs.numbered("begin", ("bot_surface", "top_surface"), "surface block")
    bot, top = (_EmptySurface() if body == ["name empty"]
                else parse_surface("\n".join(body), group) for body in blocks)
    return CobordismSkeleton(group, regions, links, edges, recs.get("bot_ends", []),
                             recs.get("top_ends", []), balls, bot, top,
                             name=recs.get("name", "cobordism"))
