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

:func:`gauge_classes` never lists all labelings.  It enumerates only those
that are already the identity on the tree regions, ``|G|^(balls -
components)`` times fewer, and keeps one per orbit: the labeling whose
fixed labels are, per component, their own least conjugate.  The orbit's
representative, its lexicographically least member, comes from a search
over partial gauges (:func:`_least_member`), not from the orbit's members.
"""

from __future__ import annotations

from .catdata import FiniteGroup, backtrack
from .complexes import Skeleton

__all__ = ["gauge_classes"]


def _times_inverse(group: FiniteGroup):
    """Table of ``a b^{-1}``, indexed ``[a][b]``."""
    return tuple(tuple(row[b] for b in group.inverse_table) for row in group.table)


def _backtrack(sk: Skeleton, group: FiniteGroup, pinned):
    """Label tuples of all labelings whose ``pinned`` regions are the
    identity, in product order: each edge condition is checked as soon as
    its last region is labeled."""
    table, over_inv, ident = group.table, _times_inverse(group), group.identity

    def edge_product_is_identity(branches):
        def check(values):
            total = ident
            for reg, tab in branches:
                total = tab[total][values[reg]]
            return total == ident
        return check

    checks = [[] for _ in sk.regions]
    for eid in range(len(sk.edges)):
        # each branch as (region, table to multiply by its label or the inverse)
        branches = tuple((r, table if sign > 0 else over_inv)
                         for r, sign in sk.edge_branches(eid))
        if branches:
            checks[max(r for r, _ in branches)].append(edge_product_is_identity(branches))
    return backtrack([(ident,) if r in pinned else group.elements()
                      for r in range(len(sk.regions))], checks)


def _ball_forest(sk: Skeleton):
    """Spanning forest of the ball graph, grown breadth-first from the least
    unreached ball.  Returns the set of its regions, per component the
    regions not in it in region order, and the component of each ball."""
    adjacent = [[] for _ in range(sk.ball_count)]
    for r, (_, bn, bp) in enumerate(sk.regions):
        adjacent[bn].append((r, bp))
        adjacent[bp].append((r, bn))
    component = [None] * sk.ball_count
    tree = set()
    ncomp = 0
    for root in range(sk.ball_count):
        if component[root] is not None:
            continue
        component[root] = ncomp
        queue = [root]
        for ball in queue:
            for r, other in adjacent[ball]:
                if component[other] is None:
                    component[other] = ncomp
                    tree.add(r)
                    queue.append(other)
        ncomp += 1
    residual = [[] for _ in range(ncomp)]
    for r, (_, bn, _) in enumerate(sk.regions):
        if r not in tree:
            residual[component[bn]].append(r)
    return frozenset(tree), residual, component


def _conjugations(group: FiniteGroup):
    """Per group element g, the table of ``x -> g x g^{-1}``."""
    table, over_inv = group.table, _times_inverse(group)
    return [tuple(over_inv[table[g][x]][g] for x in group.elements())
            for g in group.elements()]


def _normal_form(conjugations, memo: dict, fixed: tuple):
    """``(least conjugate, centraliser order, transversal)`` of the label
    tuple ``fixed`` under simultaneous conjugation: the least of its
    conjugates, the number of elements fixing it, and one conjugating
    element per distinct conjugate (the least), a transversal of the left
    cosets of the centraliser.  Memoized in ``memo``."""
    hit = memo.get(fixed)
    if hit is None:
        by_conjugate = {}
        for g, c in enumerate(conjugations):
            by_conjugate.setdefault(tuple(map(c.__getitem__, fixed)), g)
        hit = memo[fixed] = (min(by_conjugate), len(conjugations) // len(by_conjugate),
                             tuple(by_conjugate.values()))
    return hit


def _search_plan(sk: Skeleton, component):
    """Per region in index order, what the least-member search does there:
    ``(region, free ball, free component, kind, ball-, ball+)``.  A region
    whose balls are both still unset first sets ``ball-`` to every allowed
    element (the free ball; the free component is its forest component when
    no ball of that component is set yet, else None); then the region either
    fixes its other ball (``kind`` 1: ball+ is set from ball-, 2: ball- from
    ball+) or, with both balls set, is checked (``kind`` 0)."""
    assigned = [False] * sk.ball_count
    seen = set()
    plan = []
    for r, (_, bn, bp) in enumerate(sk.regions):
        free = free_component = None
        if not (assigned[bn] or assigned[bp]):
            free = bn
            if component[bn] not in seen:
                free_component = component[bn]
                seen.add(free_component)
            assigned[bn] = True
        kind = 0 if assigned[bn] and assigned[bp] else 1 if assigned[bn] else 2
        assigned[bn] = assigned[bp] = True
        plan.append((r, free, free_component, kind, bn, bp))
    return plan


def _least_member(group: FiniteGroup, over_inv, plan, ball_count, key, transversals):
    """The lexicographically least member of the gauge orbit of the labeling
    ``key``, which is the identity on the forest regions.

    The search runs over regions in index order and keeps every partial
    gauge (a group element for each ball set so far) that gives the least
    prefix.  A region with one ball unset takes the least element, which
    fixes that ball; a region with both balls set keeps the gauges that
    give its least value.  A gauge and its product with a stabiliser
    element give the same labeling, so the first ball set in each forest
    component takes only the transversal of that component's centraliser
    cosets; all other free balls take every element."""
    table = group.table
    # a region with one ball unset takes the least element, 0:
    # ball+ = 0^{-1} ball- x, or ball- = 0 ball+ x^{-1}
    to_plus, to_minus = table[group.inverse_table[0]], table[0]
    gauges = [[None] * ball_count]
    rep = []
    for r, free, free_component, kind, bn, bp in plan:
        x = key[r]
        if free is not None:
            options = group.elements() if free_component is None else transversals[free_component]
            if len(options) == 1:
                for lam in gauges:
                    lam[free] = options[0]
            else:
                gauges = [lam[:free] + [g] + lam[free + 1:] for lam in gauges for g in options]
        if kind == 1:
            for lam in gauges:
                lam[bp] = to_plus[table[lam[bn]][x]]
            rep.append(0)
        elif kind == 2:
            for lam in gauges:
                lam[bn] = to_minus[over_inv[lam[bp]][x]]
            rep.append(0)
        elif len(gauges) == 1:
            lam = gauges[0]
            rep.append(over_inv[table[lam[bn]][x]][lam[bp]])
        else:
            values = [over_inv[table[lam[bn]][x]][lam[bp]] for lam in gauges]
            least = min(values)
            gauges = [lam for lam, v in zip(gauges, values) if v == least]
            rep.append(least)
    return tuple(rep)


def gauge_classes(sk: Skeleton, group: FiniteGroup):
    """The gauge orbits of all labelings of ``sk``, as ``[(representative,
    orbit size)]`` sorted by representative, found without listing them.

    Only the labelings that are the identity on the forest regions of
    :func:`_ball_forest` are enumerated; every orbit meets them, in one
    orbit of the residual conjugation (one constant per component).  The
    labeling whose fixed labels are, per component, their least conjugate
    stands for the orbit; its size is ``|G|^balls`` over the stabiliser
    order.  The representative is the orbit's lexicographically least
    member (:func:`_least_member`).
    """
    tree, fixed_regions, component = _ball_forest(sk)
    conjugations = _conjugations(group)
    over_inv = _times_inverse(group)
    forms = {}
    plan = _search_plan(sk, component)
    size = group.order ** sk.ball_count
    rows = []
    for key in _backtrack(sk, group, tree):
        stabiliser = 1
        transversals = []
        for regions in fixed_regions:
            fixed = tuple([key[r] for r in regions])
            least, centraliser, transversal = _normal_form(conjugations, forms, fixed)
            if fixed != least:
                break
            stabiliser *= centraliser
            transversals.append(transversal)
        else:
            # an orbit of one labeling is its own least member
            rep = key if stabiliser == size else \
                _least_member(group, over_inv, plan, sk.ball_count, key, transversals)
            rows.append((rep, size // stabiliser))
    rows.sort()
    return [(dict(enumerate(rep)), n) for rep, n in rows]
