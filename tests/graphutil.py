"""Shared test helpers: random admissible colored graphs on the sphere."""

from __future__ import annotations

import random

from statesum3d.graphcalc import ColoredGraph, hom_dim


def grow_random_planar(rnd: random.Random, max_vertices: int = 6,
                       max_edges: int = 8):
    """Random planar multigraph with rotation system, grown from a circle by
    planarity-preserving moves: parallel doubling, subdivision, loop
    insertion.  Returns (nvertices, edges, rotations) with colors unset."""
    edges = [(0, 0)]
    rotations = [[(0, 0), (0, 1)]]

    def vertex_count():
        return len(rotations)

    for _ in range(rnd.randrange(2, 7)):
        move = rnd.choice(["parallel", "subdivide", "loop"])
        if move == "parallel" and len(edges) < max_edges:
            e = rnd.randrange(len(edges))
            t, h = edges[e]
            k = len(edges)
            edges.append((t, h))
            rt = rotations[t]
            rt.insert(rt.index((e, 0)), (k, 0))
            rh = rotations[h]
            rh.insert(rh.index((e, 1)) + 1, (k, 1))
        elif move == "subdivide" and vertex_count() < max_vertices and len(edges) < max_edges:
            e = rnd.randrange(len(edges))
            t, h = edges[e]
            v = vertex_count()
            k = len(edges)
            edges[e] = (t, v)
            edges.append((v, h))
            rotations.append([(e, 1), (k, 0)])
            rh = rotations[h]
            rh[rh.index((e, 1))] = (k, 1)
        elif move == "loop" and len(edges) < max_edges:
            v = rnd.randrange(vertex_count())
            k = len(edges)
            edges.append((v, v))
            pos = rnd.randrange(len(rotations[v]) + 1)
            rotations[v][pos:pos] = [(k, 0), (k, 1)]
    return vertex_count(), edges, rotations


def color_graph(rnd: random.Random, data, nv, edges, rotations, attempts=4000):
    """Backtracking edge coloring making every vertex cyclic set admissible
    (hom_dim >= 1); None when no coloring is found."""
    order = list(range(len(edges)))

    def vertex_items(v, colors):
        items = []
        for e, end in rotations[v]:
            if colors[e] is None:
                return None
            items.append((colors[e], 1 if end == 1 else -1))
        return items

    budget = [attempts]

    def assign(idx, colors):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        if idx == len(order):
            return list(colors)
        e = order[idx]
        cs = list(range(data.n))
        rnd.shuffle(cs)
        for c in cs:
            colors[e] = c
            ok = True
            for v in set(edges[e]):
                items = vertex_items(v, colors)
                if items is not None and hom_dim(data, items) == 0:
                    ok = False
                    break
            if ok:
                res = assign(idx + 1, colors)
                if res is not None:
                    return res
            colors[e] = None
        return None

    return assign(0, [None] * len(edges))


def random_admissible_graph(rnd: random.Random, data, max_vertices=6):
    for _ in range(50):
        nv, edges, rotations = grow_random_planar(rnd, max_vertices=max_vertices)
        colors = color_graph(rnd, data, nv, edges, rotations)
        if colors is None:
            continue
        colored = [(t, h, colors[k]) for k, (t, h) in enumerate(edges)]
        return ColoredGraph(nv, colored, rotations)
    raise RuntimeError("failed to sample an admissible colored graph")


def cycle_graph(n: int, color: int) -> ColoredGraph:
    """The n-cycle with every edge coloured ``color``: edge v runs from
    vertex v to v + 1, and each vertex lists its outgoing dart first."""
    return ColoredGraph(n, [(v, (v + 1) % n, color) for v in range(n)],
                        [[(v, 0), ((v - 1) % n, 1)] for v in range(n)])
