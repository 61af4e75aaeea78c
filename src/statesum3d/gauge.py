"""Group labelings of skeletons, the gauge action, and orbits.

A labeling assigns a group element to each region so that around every
edge the cyclic signed product of branch labels is the identity.  The
gauge group (one group element per complement ball) acts by
``l(r) -> lam(ball-) l(r) lam(ball+)^{-1}``; orbits are the homotopy
classes of maps to the aspherical target.

Orbits are found by gauge fixing.  In the ball graph (balls as vertices,
each region an edge from its ``ball-`` to its ``ball+``) a spanning forest
is fixed once; transporting a labeling along it makes every tree region the
identity, and what is left of the gauge group is one constant per forest
component, acting by conjugation on that component's other regions.  The
normal form of a labeling is, per component, the least conjugate of those
labels, so two labelings share an orbit exactly when their normal forms are
equal.  The stabiliser of a labeling is the product over components of the
centralisers of the fixed labels, which gives the orbit size
``|G|^balls / prod_c |C_G(f_c)|``.
"""

from __future__ import annotations

from .catdata import FiniteGroup
from .complexes import Skeleton

__all__ = [
    "labeling_valid",
    "enumerate_labelings",
    "gauge_act",
    "gauge_orbits",
]


def _edge_condition(sk: Skeleton, group: FiniteGroup, values, eid) -> bool:
    total = group.identity
    for region, sign in sk.edge_branches(eid):
        v = values[region]
        if v is None:
            return True  # incomplete, cannot falsify yet
        total = group.mul(total, v if sign > 0 else group.inv(v))
    return total == group.identity


def labeling_valid(sk: Skeleton, group: FiniteGroup, labeling) -> bool:
    values = [labeling[r] for r in range(len(sk.regions))]
    return all(_edge_condition(sk, group, values, e) for e in range(len(sk.edges)))


def _times_inverse(group: FiniteGroup):
    """Table of ``a b^{-1}``, indexed ``[a][b]``."""
    return tuple(tuple(row[b] for b in group.inverse_table) for row in group.table)


def enumerate_labelings(sk: Skeleton, group: FiniteGroup):
    """All labelings, found by backtracking over regions in index order with
    the edge conditions checked as soon as they complete.  Deterministic."""
    nreg = len(sk.regions)
    if nreg == 0:
        return [{}]
    table, over_inv, ident, n = group.table, _times_inverse(group), group.identity, group.order
    # checks[r]: per edge completed by region r, its branches as
    # (region, table to multiply by that region's label or its inverse)
    checks = [[] for _ in range(nreg)]
    for eid in range(len(sk.edges)):
        branches = tuple((r, table if sign > 0 else over_inv)
                         for r, sign in sk.edge_branches(eid))
        if branches:
            checks[max(r for r, _ in branches)].append(branches)
    out = []
    values = [-1] * nreg
    last = nreg - 1
    r = 0
    while r >= 0:
        g = values[r] + 1
        while g < n:
            values[r] = g
            for branches in checks[r]:
                total = ident
                for reg, tab in branches:
                    total = tab[total][values[reg]]
                if total != ident:
                    break
            else:
                break
            g += 1
        if g == n:
            values[r] = -1
            r -= 1
        elif r == last:
            out.append(dict(enumerate(values)))
        else:
            r += 1
    return out


def gauge_act(sk: Skeleton, group: FiniteGroup, lam, labeling):
    """Left action of a gauge element (map ball -> group element)."""
    out = {}
    for r in range(len(sk.regions)):
        bn, bp = sk.region_balls(r)
        out[r] = group.mul(group.mul(lam[bn], labeling[r]), group.inv(lam[bp]))
    return out


def _ball_forest(sk: Skeleton):
    """Spanning forest of the ball graph, grown breadth-first from the least
    unreached ball.  Returns the tree steps ``(region, ball, new ball,
    new ball is ball+)`` in the order they reach each ball, and per
    component the ``(region, ball-, ball+)`` of its non-tree regions in
    region order."""
    adjacent = [[] for _ in range(sk.ball_count)]
    for r, (_, bn, bp) in enumerate(sk.regions):
        adjacent[bn].append((r, bp, True))
        adjacent[bp].append((r, bn, False))
    component = [None] * sk.ball_count
    steps = []
    tree = set()
    ncomp = 0
    for root in range(sk.ball_count):
        if component[root] is not None:
            continue
        component[root] = ncomp
        queue = [root]
        for ball in queue:
            for r, other, forward in adjacent[ball]:
                if component[other] is None:
                    component[other] = ncomp
                    tree.add(r)
                    steps.append((r, ball, other, forward))
                    queue.append(other)
        ncomp += 1
    residual = [[] for _ in range(ncomp)]
    for r, (_, bn, bp) in enumerate(sk.regions):
        if r not in tree:
            residual[component[bn]].append((r, bn, bp))
    return steps, residual


def gauge_orbits(sk: Skeleton, group: FiniteGroup, labelings):
    """Partition a complete labeling list into gauge orbits.

    Labelings are grouped by their gauge-fixed normal form (see the module
    docstring); each group must hold exactly the orbit size of distinct
    labelings, or the list is not closed under the gauge action.  The
    representative of an orbit is its lexicographically least member, its
    members keep their input order, and the output is sorted by
    representative, so the partition is independent of input order.
    """
    table, over_inv, n = group.table, _times_inverse(group), group.order
    steps, residual = _ball_forest(sk)
    conjugations = [tuple(over_inv[table[g][x]][g] for x in range(n)) for g in range(n)]
    least_conjugate = {}   # fixed labels -> (least conjugate, centraliser order)
    lam = [group.identity] * sk.ball_count
    regions = range(len(sk.regions))
    classes = {}           # normal form -> (member keys, members, stabiliser order)
    for lab in labelings:
        key = tuple(map(lab.__getitem__, regions))
        for r, ball, other, forward in steps:
            lam[other] = (table if forward else over_inv)[lam[ball]][key[r]]
        form = []
        stabiliser = 1
        for res in residual:
            fixed = tuple(over_inv[table[lam[bn]][key[r]]][lam[bp]] for r, bn, bp in res)
            hit = least_conjugate.get(fixed)
            if hit is None:
                conjugates = [tuple(map(c.__getitem__, fixed)) for c in conjugations]
                hit = least_conjugate[fixed] = (min(conjugates), conjugates.count(fixed))
            form.append(hit[0])
            stabiliser *= hit[1]
        form = tuple(form)
        cls = classes.get(form)
        if cls is None:
            cls = classes[form] = (set(), [], stabiliser)
        cls[0].add(key)
        cls[1].append(lab)
    size = n ** sk.ball_count
    rows = []
    for keys, members, stabiliser in classes.values():
        if len(keys) != size // stabiliser:
            raise ValueError("labeling list is not closed under the gauge action")
        rows.append((min(keys), members))
    rows.sort(key=lambda row: row[0])
    return [(dict(enumerate(rep)), members) for rep, members in rows]
