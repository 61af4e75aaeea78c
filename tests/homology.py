"""First homology of a closed triangulation, from the integer elementary
divisors of its triangle relations.

The cellular chain complex has one generator per vertex, edge and triangle
class of ``complexes.Triangulation``.  The boundary of the triangle (a, b,
c) of a tetrahedron, a < b < c, is the signed sum of its edge classes
[b c] - [a c] + [a b].  The image of the triangle boundaries lies in the
kernel of the edge boundaries, which is a direct summand of the edge
chains, so H_1 is Z^(edges - rank d_1 - rank d_2) plus Z/d for every
elementary divisor d > 1 of d_2.  On a connected complex rank d_1 is one
less than the number of vertices.
"""

from __future__ import annotations


def first_homology(tri) -> tuple:
    """``(free rank, torsion)`` of H_1, the torsion as the elementary
    divisors above 1 in increasing order."""
    rows = []
    for tri_class in range(tri.ntriangles):
        t, f = next(key for key, c in tri.triangle_class.items() if c == tri_class)
        a, b, c = (x for x in range(4) if x != f)
        row = [0] * tri.nedges
        for (p, q), sign in (((b, c), 1), ((a, c), -1), ((a, b), 1)):
            e, direction = tri.edge_class_of(t, p, q)
            row[e] += sign * direction
        rows.append(row)
    divisors = elementary_divisors(rows)
    betti = tri.nedges - (tri.nvertices - 1) - len(divisors)
    return betti, tuple(d for d in divisors if d > 1)


def elementary_divisors(matrix) -> list:
    """The nonzero diagonal of the Smith normal form of an integer matrix,
    each dividing the next."""
    m = [list(row) for row in matrix if any(row)]
    out = []
    while m:
        # the least nonzero entry is the pivot; a remainder left by the
        # division below is a smaller one for the next round
        _, i, j = min((abs(x), i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x)
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        p = m[0][0]
        for row in m[1:]:
            q = row[0] // p
            row[:] = [x - q * y for x, y in zip(row, m[0])]
        for k in range(1, len(m[0])):
            q = m[0][k] // p
            for row in m:
                row[k] -= q * row[0]
        if any(row[0] for row in m[1:]) or any(m[0][1:]):
            continue
        bad = next((row for row in m[1:] if any(x % p for x in row)), None)
        if bad is not None:  # p must divide every entry left: add its row in
            m[0] = [x + y for x, y in zip(m[0], bad)]
            continue
        out.append(abs(p))
        m = [row[1:] for row in m[1:] if any(row)]
    return out
