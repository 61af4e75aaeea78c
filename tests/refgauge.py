"""Reference for ``statesum3d.gauge``: the original labeling enumerator,
gauge action and orbit partition (closure under the single-ball gauge
generators, merged by union-find).  The tests check ``gauge_classes`` and
its table-indexed enumerator against it, and take from it the full member
lists of orbits, which ``src/`` never lists.  Nothing in ``src/`` imports
it.
"""

from __future__ import annotations

from statesum3d.catdata import FiniteGroup
from statesum3d.complexes import Skeleton


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


def enumerate_labelings(sk: Skeleton, group: FiniteGroup):
    """All labelings, found by backtracking over regions in index order with
    the edge conditions checked as soon as they complete.  Deterministic."""
    nreg = len(sk.regions)
    edges_by_last_region = [[] for _ in range(nreg)]
    for eid in range(len(sk.edges)):
        regions = [r for r, _ in sk.edge_branches(eid)]
        if regions:
            edges_by_last_region[max(regions)].append(eid)
    out = []
    values = [None] * nreg

    def assign(r):
        if r == nreg:
            out.append({i: values[i] for i in range(nreg)})
            return
        for g in group.elements():
            values[r] = g
            if all(_edge_condition(sk, group, values, e)
                   for e in edges_by_last_region[r]):
                assign(r + 1)
            values[r] = None

    assign(0)
    return out


def gauge_act(sk: Skeleton, group: FiniteGroup, lam, labeling):
    """Left action of a gauge element (map ball -> group element)."""
    out = {}
    for r in range(len(sk.regions)):
        bn, bp = sk.region_balls(r)
        out[r] = group.mul(group.mul(lam[bn], labeling[r]), group.inv(lam[bp]))
    return out


def gauge_orbits(sk: Skeleton, group: FiniteGroup, labelings):
    """Partition a complete labeling list into gauge orbits.

    Closure under the single-ball generators; the representative of an
    orbit is its lexicographically least member.  Output is sorted by
    representative, so the partition is independent of input order.
    """
    key_of = {tuple(l[r] for r in range(len(sk.regions))): i
              for i, l in enumerate(labelings)}
    parent = list(range(len(labelings)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i, lab in enumerate(labelings):
        for ball in range(sk.ball_count):
            for g in group.elements():
                lam = [group.identity] * sk.ball_count
                lam[ball] = g
                moved = gauge_act(sk, group, lam, lab)
                key = tuple(moved[r] for r in range(len(sk.regions)))
                j = key_of.get(key)
                if j is None:
                    raise ValueError("labeling list is not closed under the gauge action")
                union(i, j)

    orbits = {}
    for i in range(len(labelings)):
        orbits.setdefault(find(i), []).append(i)
    result = []
    for root, members in orbits.items():
        keys = sorted(tuple(labelings[i][r] for r in range(len(sk.regions)))
                      for i in members)
        rep = {r: keys[0][r] for r in range(len(sk.regions))}
        result.append((rep, [labelings[i] for i in members]))
    result.sort(key=lambda pair: tuple(pair[0][r] for r in range(len(sk.regions))))
    return result
