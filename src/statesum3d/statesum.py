"""State-sum invariants of labeled closed skeletons.

The invariant of a closed labeled skeleton P with backend data C is

    dim(C_1)^(-|P|) * sum over admissible colorings c of
        prod_r dim(c(r))^chi(r) * full contraction of the link tensors,

where a coloring assigns to each region a simple of the grade given by the
labeling, each vertex link evaluated as a colored graph on its sphere
contributes a tensor, and every edge contracts the two end tensors through
the inverse Gram matrix of the duality pairing of its branch cyclic set.
That inverse is monomial, and the link program of the edge's end-1 vertex
(:class:`graphcalc._LinkProgram`) folds it into that tensor, so an edge
contracts by equal indices.

The same engine evaluates cobordism skeletons for :mod:`statesum3d.hqft`:
boundary regions get pinned colors and boundary link vertices stay open.
A top end is paired as an edge's end 1 is, so its index comes out in the
tree basis of the top surface's south-type set.

The sum is not enumerated coloring by coloring: it is contracted by
eliminating the skeleton's vertices one at a time, in a greedy order, as in
the treewidth algorithm of Burton, Maria and Spreer ("Algorithms and
complexity for Turaev-Viro invariants") and the greedy path search of
opt_einsum (Smith and Gray, 2018).  A dynamic programme keeps, for each
coloring of the frontier (the regions already colored that a later
vertex's link still meets), a sparse tensor over the open link slots and
the number of admissible partial colorings.  The step of a vertex colors
its new regions, multiplies in its link tensor, contracts the edges it
closes, weighs and drops the regions no later link meets, and adds up what
then falls on one key.  Its cost grows with the number of frontier
colorings, not with the number of colorings.

Link tensors are swept once per isomorphism class of colored link and
category (:class:`graphcalc._LinkProgram`).  This assumes that the
evaluation of a colored graph does not depend on its outer face or on how
its vertices and edges are numbered, which holds for spherical data: the
``spherical`` line of ``validate-category`` checks the data, and
``test_outer_face_independence`` checks the evaluation.  The classes
forget edge directions, exactly: a strand coloured c reversed and coloured
c* reads the same letters, and only multiplies the class sweep by
``rev_c / lev_(c*)`` or ``lev_c / rev_(c*)``, as its plan caps it by lev or rev.
"""

from __future__ import annotations
from collections import Counter, namedtuple
from itertools import product
from math import prod
from operator import itemgetter

from .catdata import GFusionData, neutral_dimension
from .complexes import Skeleton
from .exactnum import FieldElement
from .gauge import gauge_classes
from .graphcalc import _LinkProgram, hom_dim

__all__ = [
    "StateSumResult",
    "closed_invariant",
    "unnormalized_invariant",
    "partition_all_classes",
    "PartitionTable",
]


class StateSumResult:
    def __init__(self, value: FieldElement, visited: int, admissible: int):
        self.value = value
        self.colorings_visited = visited  # extensions of the vertex elimination
        self.colorings_admissible = admissible

    def __repr__(self):
        return (f"StateSumResult({self.value.to_text()}, admissible "
                f"{self.colorings_admissible}, extensions {self.colorings_visited})")


# One vertex of the elimination order: the regions its step reads and
# colors, and what it fixes.  A picker (_picker) takes the items at fixed
# positions; the local colors are those of the old regions followed by
# those of the new.
#   vertex        None in the one step of a skeleton without vertices
#   old           picks the frontier regions it reads from the key
#   new           picks the regions it colors from the candidate lists
#   checks        (picker, signs) of the edges it checks, on local colors
#   arcs          picks its link's arc colors from local colors
#   contractions  (end-0 slot, end-1 slot) of the edges it closes
#   weights       (local position, dim(c)**chi by color) of the regions it drops
#   keep          picks the next key from the key followed by the new colors
#   slots         picks the open slots left from the slots with the link's appended
_Step = namedtuple("_Step", "vertex old new checks arcs contractions weights keep slots")


class _Evaluator:
    """The state-sum engine for closed skeletons and cobordism skeletons.

    It reads only ``regions`` (chi first), ``links`` and ``edges``.  The
    link vertices in ``ends`` stay open: a cobordism leaves its boundary
    ends open, a closed skeleton none.  Those also in ``paired`` get their
    pairing folded in as an edge's end 1 does: a cobordism's top end reads
    the reversed dual of the top surface's south-type set E
    (:class:`statesum3d.hqft.CobordismSkeleton` checks it), so its index,
    a tree of H(E^opp), becomes the tree of H(E) it pairs with, times the
    inverse Gram entry.

    :meth:`total` eliminates the vertices in the order :func:`_vertex_order`
    picks.  Its state maps the colors of the frontier (the regions already
    colored that a later vertex's link still meets) to a pair: a sparse
    tensor ``{open slot indices: value}``, the unit tensor ``{(): one}``
    before the first step, and the number of admissible partial colorings.
    For each key, the step of vertex v

    * extends the key by each coloring of the regions v colors (those of
      its link not yet colored; at the first step also the regions no link
      meets) under which every edge whose branch regions are now all
      colored is admissible;
    * multiplies in v's link tensor (a step without a vertex, the unit
      tensor) and contracts every edge whose ends are now both eliminated:
      the pairing of its branch colors is folded into the link tensor at
      its end 1 (a slot in ``self.paired``), so the two ends' indices must
      be equal;
    * multiplies in ``dim(c)**chi`` of each region no later link meets
      (their product once per tensor entry, before the link's entries),
      drops those regions from the key, and adds the result, and the
      count, to the new key's.

    All of this but the products depends only on the colors of the regions
    the step reads, so it is computed once per their coloring and step
    (:meth:`_extensions`).  The plan, one :class:`_Step` per vertex, is built
    here once; ``end_positions`` picks ``ends`` from the final slots.
    :attr:`visited` counts the extensions of the last :meth:`total`, one
    per key and admissible coloring of a step's new regions.

    Each vertex's link is evaluated by one link program
    (:class:`graphcalc._LinkProgram`), built here with the vertex's paired
    slots, so that a link evaluation does only the work that depends on
    its colors.  Link tensors per vertex and arc colors, and edge
    admissibility per colored branch list, are memoized here; the
    admissibility cache is keyed by the colors followed by the signs
    (:func:`_branch_items`), which hash faster than the pairs ``graphcalc``
    takes.  Class sweeps, one dict per canonical link code, and slot maps
    are memoized on the category, and each program slot keeps its maps by
    the colors of its darts.
    """

    def __init__(self, sk, cat: GFusionData, ends=(), paired=()):
        self.sk = sk
        self.cat = cat
        self.ends = tuple(ends)
        self.link_cache: dict = {}
        self.admissible_cache: dict = {}
        self.visited = 0
        # dim(c)**chi per chi and color
        powers = {chi: [cat.dim(c) ** chi for c in range(cat.n)]
                  for chi in {region[0] for region in sk.regions}}
        link_regions = [{r for _, _, r in lk.arcs} for lk in sk.links]
        order = _vertex_order(link_regions, max(Counter(cat.grade).values()))
        rank = {v: k for k, v in enumerate(order)}
        # the step that colors each region (the first, for a region no link
        # meets), and how many links still meet it
        start = [0] * len(sk.regions)
        left = [0] * len(sk.regions)
        for v in reversed(order):
            for r in link_regions[v]:
                start[r] = rank[v]
                left[r] += 1
        order = order or [None]  # without vertices, one step colors every region
        fresh = [[] for _ in order]
        for r, k in enumerate(start):
            fresh[k].append(r)
        # an edge is checked once its branch regions are colored and
        # contracted at the later of its ends; its pairing is folded in at
        # end 1, as it is at the ends in ``paired``
        checked = [[] for _ in order]
        joined = [[] for _ in order]
        self.paired = [[] for _ in sk.links]
        for v, g in paired:
            self.paired[v].append(g)
        for edge in sk.edges:
            (v0, g0), (v1, g1) = edge
            branches = sk.links[v0].items_at(g0)
            checked[max(start[r] for r, _ in branches)].append(branches)
            joined[max(rank[v0], rank[v1])].append(edge)
            self.paired[v1].append(g1)
        frontier, layout, self.steps = [], [], []
        for v, new, checks, joins in zip(order, fresh, checked, joined):
            regions = link_regions[v] if v is not None else set()
            read = regions.union(*[[r for r, _ in branches] for branches in checks])
            old = [i for i, r in enumerate(frontier) if r in read]
            local = {r: i for i, r in enumerate([frontier[i] for i in old] + new)}
            if v is not None:
                layout += [(v, g) for g in range(len(sk.links[v].rotations))]
            contractions = tuple([(layout.index(end0), layout.index(end1))
                                  for end0, end1 in joins])
            closed = {p for pair in contractions for p in pair}
            slots = [i for i in range(len(layout)) if i not in closed]
            layout = [layout[i] for i in slots]
            for r in regions:
                left[r] -= 1
            colored = frontier + new
            self.steps.append(_Step(
                v, _picker(old), _picker(new),
                tuple([_branch(branches, local) for branches in checks]),
                v is not None and _picker([local[r] for _, _, r in sk.links[v].arcs]),
                contractions,
                tuple([(local[r], powers[sk.regions[r][0]]) for r in colored if not left[r]]),
                _picker([i for i, r in enumerate(colored) if left[r]]), _picker(slots)))
            frontier = [r for r in colored if left[r]]
        self.end_positions = _picker([layout.index(end) for end in self.ends])
        self.programs = [_LinkProgram(cat, lk.rotations, self.paired[v])
                         for v, lk in enumerate(sk.links)]

    def total(self, sectors):
        """The state sum over the admissible colorings, one candidate list
        per region (a pinned region gets a singleton), as
        ``({open end index tuple: value}, admissible colorings)``."""
        visited = 0
        state = {(): ({(): self.cat.field.one()}, 1)}
        for step in self.steps:
            old, contractions, keep, slots = step.old, step.contractions, step.keep, step.slots
            extensions, nxt = {}, {}
            for key, (tensor, count) in state.items():
                local = old(key)
                exts = extensions.get(local)
                if exts is None:
                    exts = extensions[local] = self._extensions(step, local, sectors)
                visited += len(exts)
                for ext, link, scalar in exts:
                    out = {}
                    for k, val in tensor.items():
                        weighted = val * scalar
                        for idx, x in link.items():
                            k2 = k + idx
                            for p0, p1 in contractions:
                                if k2[p0] != k2[p1]:
                                    break
                            else:
                                x = weighted * x
                                k2 = slots(k2)
                                cur = out.get(k2)
                                out[k2] = x if cur is None else cur + x
                    nk = keep(key + ext)
                    entry = nxt.get(nk)
                    nxt[nk] = (out, count) if entry is None else \
                        (_sum(entry[0], out), entry[1] + count)
            state = nxt
        self.visited = visited
        if () not in state:
            return {}, 0
        tensor, count = state[()]
        return {self.end_positions(k): val for k, val in tensor.items()}, count

    def _extensions(self, step, local, sectors):
        """The admissible colorings of the new regions of ``step`` after
        ``local``, the colors of the old regions it reads, each with what it
        fixes: the link tensor (the unit tensor ``{(): one}`` in a step
        without a vertex) and the product of the weights."""
        v, _, new, checks, arcs, _, weights, _, _ = step
        cat, admissible = self.cat, self.admissible_cache
        one = cat.field.one()
        out = []
        for ext in product(*new(sectors)):
            colors = local + ext
            for pick, signs in checks:
                items = pick(colors) + signs
                ok = admissible.get(items)
                if ok is None:
                    ok = admissible[items] = hom_dim(cat, _branch_items(items)) >= 1
                if not ok:
                    break
            else:
                scalar = prod([powers[colors[i]] for i, powers in weights], start=one)
                out.append((ext, {(): one} if v is None else self._link(v, arcs(colors)), scalar))
        return out

    def _link(self, v, colors) -> dict:
        """The link tensor of vertex ``v`` with arc colors ``colors``, the
        pairings of its end-1 slots folded in."""
        entries = self.link_cache.get((v, colors))
        if entries is None:
            entries = self.link_cache[(v, colors)] = self.programs[v].tensor(colors)
        return entries


def _vertex_order(link_regions, width):
    """The elimination order of the vertices whose links meet the region
    sets ``link_regions``.

    From each start vertex a greedy order takes next the vertex that colors
    the fewest regions, then the one that leaves the fewest colored after
    it, then the lowest.  The order of least cost wins, the cost being the
    sum over its steps of ``width ** colored regions``.  The search stops at
    the first order that reaches the lower bound, the sum over the vertices
    of ``width ** len(regions)``; with ``width`` one every order does, and
    the index order is taken."""
    n = len(link_regions)
    if width == 1:
        return list(range(n))
    owners = Counter(r for regions in link_regions for r in regions)
    bound = sum(width ** len(regions) for regions in link_regions)
    best, best_cost = [], None
    for start in range(n):
        left = dict(owners)
        last = {r for r, k in left.items() if k == 1}  # met by one vertex to come
        todo = set(range(n))
        frontier, order, cost, v = set(), [], 0, start
        while best_cost is None or cost < best_cost:
            todo.discard(v)
            order.append(v)
            frontier |= link_regions[v]
            cost += width ** len(frontier)
            for r in link_regions[v]:
                left[r] -= 1
                if left[r] == 1:
                    last.add(r)
                elif not left[r]:
                    last.discard(r)
                    frontier.discard(r)
            if not todo:
                best, best_cost = order, cost
                break
            v = min(todo, key=lambda u: (len(link_regions[u] - frontier),
                                         -len(link_regions[u] & last), u))
        if best_cost == bound:
            break
    return best


def _picker(positions):
    """``operator.itemgetter(*positions)``, always returning a tuple (or a
    list, from a list)."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


def _branch(branches, local):
    """A branch list ``[(region, sign)]`` as the picker of its regions'
    positions in ``local`` and its signs."""
    return _picker([local[r] for r, _ in branches]), tuple([s for _, s in branches])


def _branch_items(key):
    """The signed colour tuple of a branch list from its colors followed by
    its signs, the flat key of the evaluator's admissibility cache."""
    n = len(key) // 2
    return tuple(zip(key[:n], key[n:]))


def _sum(a, b):
    """The entrywise sum of two tensors."""
    out = dict(a)
    for key, val in b.items():
        cur = out.get(key)
        out[key] = val if cur is None else cur + val
    return out


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
    total, visited, admissible = _sigma(sk, labeling, cat, _ev)
    return StateSumResult(total * nd.inv() ** sk.ball_count, visited, admissible)


def unnormalized_invariant(sk: Skeleton, labeling, cat: GFusionData) -> FieldElement:
    """Spine state sum without the neutral-dimension normalization; requires
    a special spine (one ball, at least two vertices, tetrahedral links)."""
    if not sk.is_spine():
        raise ValueError("unnormalized invariant needs a special spine "
                         "(one ball, >= 2 vertices, tetrahedral links)")
    total, _, _ = _sigma(sk, labeling, cat)
    return total


class PartitionTable:
    def __init__(self, rows, aggregate):
        self.rows = rows            # list of (representative labeling, orbit size, value)
        self.aggregate = aggregate

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
    return PartitionTable(rows, aggregate)
