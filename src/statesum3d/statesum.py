"""State-sum invariants of labeled closed skeletons.

The invariant of a closed labeled skeleton P with backend data C is

    dim(C_1)^(-|P|) * sum over admissible colorings c of
        prod_r dim(c(r))^chi(r) * full contraction of the link tensors,

where a coloring assigns to each region a simple of the grade given by the
labeling, each vertex link evaluated as a colored graph on its sphere
contributes a tensor, and every edge contracts the two end tensors through
the inverse Gram matrix of the duality pairing of its branch cyclic set.

The same engine evaluates cobordism skeletons for :mod:`statesum3d.hqft`:
boundary regions get pinned colors and boundary link vertices stay open.

The contraction runs along the enumeration of the colorings, not once per
coloring.  Regions are colored depth first in index order; a plan made once
per skeleton applies each factor at the first depth where its colors are
known: ``dim^chi`` of a region at its own depth (into a scalar folded in at
the leaf), a vertex's link tensor at the depth of the last region of its
link, and an edge's inverse Gram matrix as soon as both its end vertices
have joined.  A coloring shares with its siblings every factor of their
common prefix.

Link tensors are swept once per isomorphism class of colored link and
category, the class being the canonical code of the link's rotation
system (:func:`graphcalc._canonical_rotation_system`) with its arc colors
in canonical edge order.  The sweep runs on the canonical system rebuilt
from the code, through one sweep plan per code, and its raw result is
stored on the category; every link of the class, the first included,
re-bases it to its own first darts (:func:`graphcalc._rebased`).  This
assumes that the evaluation of a colored graph does not depend on its
outer face or on how its vertices and edges are numbered, which holds for
spherical data: the ``spherical`` line of ``validate-category`` checks
the data, and ``test_outer_face_independence`` checks the evaluation.
"""

from __future__ import annotations
import time

from .catdata import GFusionData, neutral_dimension
from .complexes import Skeleton
from .exactnum import FieldElement
from .gauge import gauge_classes
from .graphcalc import (_canonical_graph, _canonical_rotation_system, _gram_inverse,
                        _rebased, _sweep, _sweep_plan, hom_dim)

__all__ = [
    "StateSumResult",
    "closed_invariant",
    "unnormalized_invariant",
    "partition_all_classes",
    "PartitionTable",
]


class StateSumResult:
    def __init__(self, value: FieldElement, visited: int, admissible: int,
                 seconds: float):
        self.value = value
        self.colorings_visited = visited
        self.colorings_admissible = admissible
        self.seconds = seconds

    def __repr__(self):
        return (f"StateSumResult({self.value.to_text()}, admissible "
                f"{self.colorings_admissible}/{self.colorings_visited})")


class _Evaluator:
    """The state-sum engine for closed skeletons and cobordism skeletons.

    It reads only ``regions`` (chi first), ``links`` and ``edges``.  The
    link vertices in ``ends`` stay open: a cobordism leaves its boundary
    ends open, a closed skeleton none.

    :meth:`total` colors the regions depth first in index order, pruned by
    edge admissibility, and carries the partial contraction down the search,
    so colorings that share a prefix share the factors the prefix fixes.
    The plan, built here once, says which factor is applied at which depth
    (the depth of region r is r; depth -1 comes before any region):

    * ``dim(c)**chi`` of region r multiplies a prefix scalar at depth r,
      which is folded into the entries at the leaf (a unit weight, and the
      scalar while it is one, are not multiplied: they are None);
    * the link tensor of a vertex joins the state, as an outer product, at
      the depth of the last region its link meets (-1 if none);
    * an edge is contracted through the inverse Gram matrix of its branch
      colors right after the later of its two end vertices joins (vertices
      join in order of depth, then index).  Its branch regions lie in both
      end links, so its admissibility was checked by then, and the branch
      tuple built for that check is kept for the Gram lookup.

    The state is a dict ``{open slot indices: value}``, None before the
    first link tensor joins (the first one becomes the state as it is, not
    multiplied by one).  ``plan[d + 1]``
    lists the vertices joining at depth d, each with the edges it completes
    as (edge, the positions of its two slots, the positions kept), and
    ``end_positions`` places ``ends`` in the final layout.

    Link tensors, edge admissibility per signed colour tuple and
    ``dim(c)**chi`` per (label, chi) are memoized here; link tensors per
    isomorphism class (:func:`_link_tensor`) and Gram inverses are memoized
    on the category.
    """

    def __init__(self, sk, cat: GFusionData, ends=()):
        self.sk = sk
        self.cat = cat
        self.ends = tuple(ends)
        self.link_cache: dict = {}
        self.admissible_cache: dict = {}
        self.weight_cache: dict = {}
        self.visited = 0
        # branch list of each edge (end-0 anchored); edges_done_at[r] holds
        # the edges whose highest region is r, checked once r is colored;
        # branch[eid] keeps the colors of the last check
        self.edge_regions = [sk.links[v0].items_at(g0) for (v0, g0), _ in sk.edges]
        self.edges_done_at = [[] for _ in sk.regions]
        for eid, branches in enumerate(self.edge_regions):
            self.edges_done_at[max(r for r, _ in branches)].append(eid)
        self.branch = [None] * len(sk.edges)
        joins = [max((r for (_, _, r) in lk.arcs), default=-1) for lk in sk.links]
        order = sorted(range(len(sk.links)), key=lambda v: (joins[v], v))
        rank = {v: k for k, v in enumerate(order)}
        due = [[] for _ in order]
        for eid, (a, b) in enumerate(sk.edges):
            due[max(rank[a[0]], rank[b[0]])].append(eid)
        self.plan = [[] for _ in range(len(sk.regions) + 1)]
        layout = []
        for v, edges in zip(order, due):
            layout.extend((v, g) for g in range(len(sk.links[v].rotations)))
            contractions = []
            for eid in edges:
                p0, p1 = (layout.index(end) for end in sk.edges[eid])
                kept = tuple(i for i in range(len(layout)) if i not in (p0, p1))
                contractions.append((eid, p0, p1, kept))
                layout = [layout[i] for i in kept]
            self.plan[joins[v] + 1].append((v, tuple(contractions)))
        self.end_positions = tuple(layout.index(end) for end in self.ends)

    def total(self, sectors):
        """The state sum over the admissible colorings, one candidate list
        per region (a pinned region gets a singleton), as
        ``({open end index tuple: value}, admissible colorings)``."""
        self.visited = 0
        coloring = [None] * len(sectors)
        out = {}
        state = self._step(-1, coloring, None)
        admissible = self._descend(0, sectors, coloring, state, None, out)
        return out, admissible

    def _descend(self, r, sectors, coloring, state, scalar, out):
        if r == len(sectors):
            self.visited += 1
            if state is None:
                state = {(): self.cat.field.one()}
            for key, val in state.items():
                key = tuple(key[p] for p in self.end_positions)
                add = _times(scalar, val)
                cur = out.get(key)
                out[key] = add if cur is None else cur + add
            return 1
        admissible = 0
        chi = self.sk.regions[r][0]
        for c in sectors[r]:
            coloring[r] = c
            self.visited += 1
            for e in self.edges_done_at[r]:
                if not self._admissible(e, coloring):
                    break
            else:
                admissible += self._descend(r + 1, sectors, coloring,
                                            self._step(r, coloring, state),
                                            _times(scalar, self._weight(c, chi)), out)
        coloring[r] = None
        return admissible

    def _admissible(self, eid, coloring):
        items = self.branch[eid] = tuple([(coloring[r], s) for r, s in self.edge_regions[eid]])
        ok = self.admissible_cache.get(items)
        if ok is None:
            ok = self.admissible_cache[items] = hom_dim(self.cat, items) >= 1
        return ok

    def _weight(self, c, chi):
        """``dim(c)**chi``, or None when it is one."""
        key = (c, chi)
        if key not in self.weight_cache:
            power = self.cat.dim(c) ** chi
            self.weight_cache[key] = None if power.is_one() else power
        return self.weight_cache[key]

    def _step(self, depth, coloring, state):
        """``state`` with the link tensors joining at ``depth`` multiplied in,
        each followed by the edges it completes, contracted."""
        for v, contractions in self.plan[depth + 1]:
            tensor = self.link_tensor(v, coloring)
            state = tensor if state is None else \
                {key + idx: val * t for key, val in state.items() for idx, t in tensor.items()}
            for eid, p0, p1, kept in contractions:
                ginv = _gram_inverse(self.cat, self.branch[eid])
                nxt = {}
                for key, val in state.items():
                    factor = ginv[key[p0]][key[p1]]
                    if factor.is_zero():
                        continue
                    key = tuple([key[i] for i in kept])
                    add = val * factor
                    cur = nxt.get(key)
                    nxt[key] = add if cur is None else cur + add
                state = nxt
        return state

    def link_tensor(self, v, coloring) -> dict:
        lk = self.sk.links[v]
        colors = tuple([coloring[r] for _, _, r in lk.arcs])
        entries = self.link_cache.get((v, colors))
        if entries is None:
            entries = self.link_cache[(v, colors)] = _link_tensor(self.cat, lk, colors)
        return entries


def _times(a, b):
    """``a * b``, where None stands for one."""
    return b if a is None else a if b is None else a * b


def _link_tensor(cat: GFusionData, lk, colors: tuple) -> dict:
    """Entries of the link tensor of ``lk`` with arc colors ``colors``, in
    the tree bases anchored at each vertex's first dart, as
    ``evaluate_graph`` gives them."""
    memo = cat._memo
    rotations = tuple(map(tuple, lk.rotations))
    form = memo.get(("link form", rotations))
    if form is None:
        code, order, starts, arc_order = _canonical_rotation_system(rotations)
        rank = [order.index(v) for v in range(len(rotations))]
        # the plan depends on the code alone, as the code's links share its
        # class sweeps; from the last face, layout searches on 130 link and
        # random sphere codes took 1,560 steps in all, from face 0 6,072
        graph = _canonical_graph(code)
        plan = _sweep_plan(cat, graph, len(graph.faces) - 1)
        form = memo[("link form", rotations)] = (
            code, arc_order, plan, tuple(plan[2][k] for k in rank),
            tuple(starts[v] + plan[1][k] for v, k in enumerate(rank)))
    code, arc_order, plan, positions, sources = form
    class_colors = tuple([colors[a] for a in arc_order])
    raw = memo.get(("link class", code, class_colors))
    if raw is None:
        raw = memo[("link class", code, class_colors)] = _sweep(cat, plan, class_colors)
    items = [tuple([(colors[a], 1 if end == 1 else -1) for a, end in rot]) for rot in rotations]
    return _rebased(cat, raw, items, positions, sources, [0] * len(rotations))


def _sigma(sk: Skeleton, labeling, cat: GFusionData, ev: _Evaluator | None = None):
    ev = ev or _Evaluator(sk, cat)
    total = cat.field.zero()
    sectors = [cat.sector(labeling[r]) for r in range(len(sk.regions))]
    out, admissible = ev.total(sectors)
    for val in out.values():
        total = total + val
    return total, ev.visited, admissible


def closed_invariant(sk: Skeleton, labeling, cat: GFusionData,
                     _ev: _Evaluator | None = None) -> StateSumResult:
    """Normalized invariant of a closed labeled skeleton."""
    nd = neutral_dimension(cat)
    if nd.is_zero():
        raise ValueError("neutral dimension is zero; normalized invariant undefined")
    t0 = time.perf_counter()
    total, visited, admissible = _sigma(sk, labeling, cat, _ev)
    value = total * nd.inv() ** sk.ball_count
    return StateSumResult(value, visited, admissible, time.perf_counter() - t0)


def unnormalized_invariant(sk: Skeleton, labeling, cat: GFusionData) -> FieldElement:
    """Spine state sum without the neutral-dimension normalization; requires
    a special spine (one ball, at least two vertices, tetrahedral links)."""
    if not sk.is_spine():
        raise ValueError("unnormalized invariant needs a special spine "
                         "(one ball, >= 2 vertices, tetrahedral links)")
    total, _, _ = _sigma(sk, labeling, cat)
    return total


class PartitionTable:
    def __init__(self, rows, aggregate, group_order, ball_count):
        self.rows = rows            # list of (representative labeling, orbit size, value)
        self.aggregate = aggregate
        self.group_order = group_order
        self.ball_count = ball_count

    def __repr__(self):
        return f"PartitionTable({len(self.rows)} orbits, aggregate {self.aggregate.to_text()})"


def partition_all_classes(sk: Skeleton, cat: GFusionData) -> PartitionTable:
    """Per-orbit invariant table plus the aggregate
    |G|^(-|P|) * sum over all labelings of the invariant."""
    group = cat.group
    ev = _Evaluator(sk, cat)
    field = cat.field
    rows = []
    total = field.zero()
    for rep, size in gauge_classes(sk, group):
        value = closed_invariant(sk, rep, cat, _ev=ev).value
        rows.append((rep, size, value))
        total = total + value * field.rational(size)
    aggregate = total * field.rational(group.order).inv() ** sk.ball_count
    return PartitionTable(rows, aggregate, group.order, sk.ball_count)
