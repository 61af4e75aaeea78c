"""Test-only reference: the barycentric model of the standard simplex that
the sign tables of ``complexes.dual_skeleton`` encode.

The simplex has vertices at the origin and the unit vectors of Q^3, and
link vertex k sits at the barycentre of face k.  The side of an arc and the
cyclic order of the arcs at a link vertex are read off from signs of 3x3
determinants in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

SIMPLEX = {
    0: (Fraction(0), Fraction(0), Fraction(0)),
    1: (Fraction(1), Fraction(0), Fraction(0)),
    2: (Fraction(0), Fraction(1), Fraction(0)),
    3: (Fraction(0), Fraction(0), Fraction(1)),
}
BARY = tuple(sum(SIMPLEX[v][i] for v in range(4)) / 4 for i in range(3))


def _vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vavg(*pts):
    n = len(pts)
    return tuple(sum(p[i] for p in pts) / n for i in range(3))


def _det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _face_bary(k):
    return _vavg(*(p for v, p in SIMPLEX.items() if v != k))


def arc_runs_c_to_d(aa: int, bb: int, sign: int) -> bool:
    """Whether the arc dual to the directed edge aa -> bb of a tetrahedron
    of orientation ``sign`` runs from link vertex c to d (c < d the other
    two corners)."""
    c, d = (x for x in range(4) if x not in (aa, bb))
    mc, md = _face_bary(c), _face_bary(d)
    nu = _vsub(BARY, _vavg(mc, md))
    s = _det3(_vsub(SIMPLEX[bb], SIMPLEX[aa]), nu, _vsub(md, mc))
    return s * sign > 0


def clockwise(k: int, sign: int) -> tuple:
    """Clockwise order (against the link-sphere orientation) of the edges of
    face k, as sorted vertex pairs, at link vertex k of a tetrahedron of
    orientation ``sign``."""
    face_vs = [x for x in range(4) if x != k]
    mk = _face_bary(k)
    naxis = _vsub(BARY, mk)
    pairs = [(face_vs[0], face_vs[1]), (face_vs[0], face_vs[2]), (face_vs[1], face_vs[2])]
    us = [_vsub(_vavg(SIMPLEX[x], SIMPLEX[y]), mk) for (x, y) in pairs]
    dets = (_det3(naxis, us[0], us[1]), _det3(naxis, us[1], us[2]),
            _det3(naxis, us[2], us[0]))
    positive = sum(1 for dd in dets if dd * sign > 0)
    ccw = pairs if positive >= 2 else [pairs[0], pairs[2], pairs[1]]
    return tuple(reversed(ccw))
