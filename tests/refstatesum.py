"""Reference for ``statesum3d.statesum._Evaluator.total``: the original
coloring enumerator and the per-coloring contraction, so that the tests can
check the contraction that runs along the enumeration against one that
rebuilds the whole product for every coloring.  Unlike the engine, it
evaluates each link tensor directly on the vertex's own link graph, without
the per-category class memo, contracts each edge through the dense inverse
Gram matrix (``PairingData.gram_inverse``) rather than by equal indices,
and computes ``dim**chi`` afresh for every region.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

from itertools import product as iproduct

from statesum3d.graphcalc import ColoredGraph, CyclicCSet, PairingData, evaluate_graph, hom_dim


class Enumerator:
    """Colorings with edge-admissibility pruning, and the contribution of
    each; ``ends`` are the link vertices left open."""

    def __init__(self, sk, cat, ends=()):
        self.sk = sk
        self.cat = cat
        self.ends = tuple(ends)
        self.link_cache: dict = {}
        self.admissible_cache: dict = {}
        self.gram_inverses: dict = {}
        self.visited = 0
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
            graph = ColoredGraph(len(lk.rotations),
                                 [(t, h, c) for (t, h, _), c in zip(lk.arcs, colors)],
                                 lk.rotations)
            entries = self.link_cache[(v, colors)] = evaluate_graph(self.cat, graph).entries
        return entries

    def gram_inverse(self, items):
        """The dense inverse Gram matrix of the pairing of ``items``."""
        ginv = self.gram_inverses.get(items)
        if ginv is None:
            ginv = self.gram_inverses[items] = PairingData(self.cat, CyclicCSet(items)).gram_inverse()
        return ginv

    def contribution(self, coloring) -> dict:
        """prod_r dim^chi times the contraction of the link tensors over the
        edges, for one coloring, as {open end index tuple: value}."""
        sk, cat = self.sk, self.cat
        weight = cat.field.one()
        for r, region in enumerate(sk.regions):
            weight = weight * cat.dim(coloring[r]) ** region[0]
        tensors = [self.link_tensor(v, coloring) for v in range(len(sk.links))]
        # state: a tuple of per-vertex index tuples, contracted slots None
        entries = {}
        for combo in iproduct(*tensors):
            val = weight
            for t, idx in zip(tensors, combo):
                val = val * t[idx]
            entries[combo] = val
        for eid, ((v0, g0), (v1, g1)) in enumerate(sk.edges):
            ginv = self.gram_inverse(self._branch_colors(eid, coloring))
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


def total(sk, cat, sectors, ends=()):
    """The sum of ``contribution`` over ``colorings``, with zero entries
    dropped, as ``(entries, visited, admissible)``."""
    ref = Enumerator(sk, cat, ends)
    out = {}
    admissible = 0
    for coloring in ref.colorings(sectors):
        admissible += 1
        for key, val in ref.contribution(coloring).items():
            cur = out.get(key)
            out[key] = val if cur is None else cur + val
    return {k: v for k, v in out.items() if not v.is_zero()}, ref.visited, admissible
