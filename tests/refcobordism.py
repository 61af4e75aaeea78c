"""Reference for ``statesum3d.hqft.assemble_block_matrix``: the original
per-pair assembly, kept so that the tests can check the assembly that builds
each boundary coloring's data once against one that builds a dense block for
every (bottom, top) coloring pair.  For each pair it runs the state sum with
the pinned sectors, normalizes by dim(C_1)^(-balls), builds the tree counts,
south cyclic sets and inverse Gram matrices afresh, fills a dense block, and
multiplies every entry by dim(C_1)^(#top faces) / dim(top coloring).  It
shares only the engine (``_Evaluator.total``) and the surface colorings
with ``hqft``.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import prod

from statesum3d.catdata import neutral_dimension
from statesum3d.graphcalc import CyclicCSet, PairingData, hom_dim, tree_paths
from statesum3d.statesum import _Evaluator


def relative_invariant(cob, cat, c_bot, c_top, ev):
    """The normalized tensor of one coloring pair, or None for a grading
    obstruction."""
    nd = neutral_dimension(cat)
    sectors = []
    for _, label, pin in cob.regions:
        if pin is None:
            sectors.append(cat.sector(label))
            continue
        side, e = pin
        c = (c_bot if side == "bot" else c_top)[e]
        if cat.grade[c] != label:
            return None
        sectors.append([c])
    out, _ = ev.total(sectors)
    norm = nd.inv() ** cob.ball_count
    return {k: v * norm for k, v in out.items() if not v.is_zero()}


def cobordism_map(cob, cat, c_bot, c_top, ev):
    """The dense block of one coloring pair."""
    field = cat.field
    raw = relative_invariant(cob, cat, c_bot, c_top, ev)
    top_surf = cob.top_surface
    coloring = {}
    for r, (_, _, pin) in enumerate(cob.regions):
        if pin is not None:
            side, e = pin
            coloring[r] = (c_bot if side == "bot" else c_top)[e]
    bot_sets = [CyclicCSet([(coloring[r], s) for (r, s) in cob.links[v].items_at(g)])
                for (v, g) in cob.bot_ends]
    top_sets = [CyclicCSet([(coloring[r], s) for (r, s) in cob.links[v].items_at(g)])
                for (v, g) in cob.top_ends]
    bot_dims = [len(tree_paths(cat, s.word(cat))) for s in bot_sets]
    souths = [CyclicCSet(top_surf._south_items(v, c_top)) for v in range(top_surf.nvertices)]
    south_dims = [hom_dim(cat, south.items) for south in souths]
    rows = [[field.zero() for _ in range(prod(bot_dims))] for _ in range(prod(south_dims))]
    if raw is None:
        return rows
    convs = []
    for v, south in enumerate(souths):
        if south.opp().items != top_sets[v].items:
            raise ValueError(f"top vertex {v}: the link's cyclic set is not the dual "
                             "of the top surface's")
        convs.append(PairingData(cat, south).gram_inverse())
    norm = neutral_dimension(cat) ** len(top_surf.faces)
    for e in range(len(top_surf.edges)):
        norm = norm / cat.dim(c_top[e])
    nb = len(cob.bot_ends)

    def flatten(idx, dims):
        out = 0
        for i, d in zip(idx, dims):
            out = out * d + i
        return out

    for bidx, val in raw.items():
        col = flatten(bidx[:nb], bot_dims)
        top_idx = bidx[nb:]
        for srow in iproduct(*(range(d) for d in south_dims)):
            f = val
            for v in range(top_surf.nvertices):
                c = convs[v][srow[v]][top_idx[v]]
                if c.is_zero():
                    break
                f = f * c
            else:
                r = flatten(srow, south_dims)
                rows[r][col] = rows[r][col] + f
    return [[x * norm for x in row] for row in rows]


def assemble_block_matrix(cob, cat):
    """The full matrix, one ``cobordism_map`` block per coloring pair."""
    bot_cols = cob.bot_surface.colorings(cat)
    top_cols = cob.top_surface.colorings(cat)
    bot_dims = [cob.bot_surface.block_dim(cat, c) for c in bot_cols]
    top_dims = [cob.top_surface.block_dim(cat, c) for c in top_cols]
    full = [[cat.field.zero() for _ in range(sum(bot_dims))] for _ in range(sum(top_dims))]
    ev = _Evaluator(cob, cat, cob.bot_ends + cob.top_ends)
    row0 = 0
    for c_top, top_dim in zip(top_cols, top_dims):
        col0 = 0
        for c_bot, bot_dim in zip(bot_cols, bot_dims):
            block = cobordism_map(cob, cat, c_bot, c_top, ev)
            for i in range(top_dim):
                for j in range(bot_dim):
                    full[row0 + i][col0 + j] = block[i][j]
            col0 += bot_dim
        row0 += top_dim
    return full, bot_cols, bot_dims, top_cols, top_dims
