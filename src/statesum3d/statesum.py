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

Link tensors are evaluated once per isomorphism class of colored link and
category: a link whose colored rotation system has the canonical form of
one already evaluated (:func:`graphcalc._canonical_rotation_system`) takes
that tensor, re-anchored vertex by vertex.  This assumes that the
evaluation of a colored graph does not depend on its outer face or on how
its vertices and edges are numbered, which holds for spherical data: the
``spherical`` line of ``validate-category`` checks the data, and
``test_outer_face_independence`` checks the evaluation.
"""

from __future__ import annotations
import time
from itertools import product as iproduct

from .catdata import GFusionData, neutral_dimension
from .complexes import Skeleton
from .exactnum import FieldElement
from .gauge import enumerate_labelings, gauge_orbits
from .graphcalc import (ColoredGraph, _canonical_rotation_system,
                        _gram_inverse, _rebased, evaluate_graph, hom_dim)

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
    ends open, a closed skeleton none.  Colorings are enumerated with
    edge-admissibility pruning.  Link tensors, edge admissibility per signed
    colour tuple and ``dim(c)**chi`` per (label, chi) are memoized here;
    link tensors per isomorphism class (:func:`_link_tensor`) and Gram
    inverses are memoized on the category.
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
        # the edges whose highest region is r, checked once r is colored
        self.edge_regions = [sk.links[v0].items_at(g0) for (v0, g0), _ in sk.edges]
        self.edges_done_at = [[] for _ in sk.regions]
        for eid, branches in enumerate(self.edge_regions):
            self.edges_done_at[max(r for r, _ in branches)].append(eid)

    def colorings(self, sectors):
        """Admissible colorings, one candidate list per region (a pinned
        region gets a singleton), pruned edge by edge; yields dicts."""
        self.visited = 0
        return self._extend(0, sectors, [None] * len(sectors))

    def _extend(self, r, sectors, coloring):
        if r == len(sectors):
            self.visited += 1
            yield dict(enumerate(coloring))
            return
        for c in sectors[r]:
            coloring[r] = c
            self.visited += 1
            if all(self._admissible(e, coloring) for e in self.edges_done_at[r]):
                yield from self._extend(r + 1, sectors, coloring)
        coloring[r] = None

    def _branch_colors(self, eid, coloring):
        return tuple((coloring[r], s) for (r, s) in self.edge_regions[eid])

    def _admissible(self, eid, coloring):
        items = self._branch_colors(eid, coloring)
        ok = self.admissible_cache.get(items)
        if ok is None:
            ok = self.admissible_cache[items] = hom_dim(self.cat, items) >= 1
        return ok

    def link_tensor(self, v, coloring) -> dict:
        lk = self.sk.links[v]
        colors = tuple(coloring[r] for (_, _, r) in lk.arcs)
        entries = self.link_cache.get((v, colors))
        if entries is None:
            entries = self.link_cache[(v, colors)] = _link_tensor(self.cat, lk, colors)
        return entries

    def contribution(self, coloring) -> dict:
        """prod_r dim^chi times the contraction of the link tensors over the
        edges, for one coloring, as {open end index tuple: value}."""
        sk, cat = self.sk, self.cat
        weight = cat.field.one()
        for r, region in enumerate(sk.regions):
            key = (coloring[r], region[0])
            power = self.weight_cache.get(key)
            if power is None:
                power = self.weight_cache[key] = cat.dim(key[0]) ** key[1]
            weight = weight * power
        tensors = [self.link_tensor(v, coloring) for v in range(len(sk.links))]
        # state: a tuple of per-vertex index tuples, contracted slots None
        entries = {}
        for combo in iproduct(*tensors):
            val = weight
            for t, idx in zip(tensors, combo):
                val = val * t[idx]
            entries[combo] = val
        for eid, ((v0, g0), (v1, g1)) in enumerate(sk.edges):
            ginv = _gram_inverse(cat, self._branch_colors(eid, coloring))
            nxt = {}
            for combo, val in entries.items():
                factor = ginv[combo[v0][g0]][combo[v1][g1]]
                if factor.is_zero():
                    continue
                newcombo = list(combo)
                for v, g in ((v0, g0), (v1, g1)):
                    newcombo[v] = newcombo[v][:g] + (None,) + newcombo[v][g + 1:]
                newcombo = tuple(newcombo)
                cur = nxt.get(newcombo)
                add = val * factor
                nxt[newcombo] = add if cur is None else cur + add
            entries = nxt
        out = {}
        for combo, val in entries.items():
            key = tuple(combo[v][g] for (v, g) in self.ends)
            cur = out.get(key)
            out[key] = val if cur is None else cur + val
        return out


def _link_tensor(cat: GFusionData, lk, colors: tuple) -> dict:
    """Entries of the link tensor of ``lk`` with arc colors ``colors``, in
    the tree bases anchored at each vertex's first dart, as
    ``evaluate_graph`` gives them.

    The first link of an isomorphism class is evaluated on its own graph;
    its entries are stored on the category with the index of canonical
    vertex k at position k, next to the rotation starts its vertices had.
    A later link of the class re-anchors each vertex from the start the
    stored one had to its own first dart."""
    memo = cat._memo
    rotations = tuple(map(tuple, lk.rotations))
    form = memo.get(("link form", rotations))
    if form is None:
        form = memo[("link form", rotations)] = _canonical_rotation_system(rotations)
    code, order, starts, arc_order = form
    key = ("link class", code, tuple(colors[a] for a in arc_order))
    stored = memo.get(key)
    if stored is None:
        graph = ColoredGraph(len(rotations),
                             [(t, h, c) for (t, h, _), c in zip(lk.arcs, colors)],
                             rotations)
        entries = evaluate_graph(cat, graph).entries
        memo[key] = (tuple(starts[v] for v in order),
                      {tuple(idx[v] for v in order): val for idx, val in entries.items()})
        return entries
    class_starts, class_entries = stored
    n = len(rotations)
    position = [order.index(v) for v in range(n)]
    items = [tuple((colors[a], 1 if end == 1 else -1) for a, end in rot) for rot in rotations]
    return _rebased(cat, class_entries, items, position,
                    [starts[v] - class_starts[position[v]] for v in range(n)], [0] * n)


def _sigma(sk: Skeleton, labeling, cat: GFusionData, ev: _Evaluator | None = None):
    ev = ev or _Evaluator(sk, cat)
    total = cat.field.zero()
    admissible = 0
    sectors = [cat.sector(labeling[r]) for r in range(len(sk.regions))]
    for coloring in ev.colorings(sectors):
        admissible += 1
        for val in ev.contribution(coloring).values():
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
    labelings = enumerate_labelings(sk, group)
    orbits = gauge_orbits(sk, group, labelings)
    ev = _Evaluator(sk, cat)
    field = cat.field
    rows = []
    total = field.zero()
    for rep, members in orbits:
        value = closed_invariant(sk, rep, cat, _ev=ev).value
        rows.append((rep, len(members), value))
        total = total + value * field.rational(len(members))
    aggregate = total * field.rational(group.order).inv() ** sk.ball_count
    return PartitionTable(rows, aggregate, group.order, sk.ball_count)
