"""Turaev-Viro invariants of lens spaces from the modular data of the
Fibonacci category, with no graph calculus: a reference for the state sum.

For a modular category the state sum at the trivial group is the
Turaev-Viro invariant, and TV(M) = |RT(M)|^2 (Turaev and Virelizier, "On
two approaches to 3-dimensional TQFTs").  The lens space L(p, q) is surgery
on a chain of unknots framed by the continued fraction

    p/q = a_1 - 1/(a_2 - 1/(... - 1/a_n)),

each a_i the ceiling of what is left, and its RT invariant is the entry
(0, 0) of S T^(a_n) S ... T^(a_1) S up to a phase, which |.|^2 removes:

    TV(L(p, q)) = (2 + phi)^-(n + 1) |(S~ T^(a_n) S~ ... T^(a_1) S~)_00|^2

with the unnormalized S~ = [[1, phi], [phi, -1]] (S~^2 = (2 + phi) I, so
S = S~ / sqrt(2 + phi)), T = diag(1, zeta^2), zeta = exp(2 pi i / 5), and
phi = 1 + zeta + zeta^4 the golden ratio (Rowell, Stong and Wang, "On
classification of modular tensor categories").  All of it is exact in
Q(zeta), where |z|^2 = z z-bar and the bar sends zeta to zeta^-1.

L(0, 1) is S^1 x S^2 (n = 1, a_1 = 0) and L(1, 1) the 3-sphere.
"""

from __future__ import annotations

from statesum3d.exactnum import FieldElement, make_field, root_of_unity

FIELD = make_field("cyclotomic", 5)
ZETA = [root_of_unity(FIELD, k) for k in range(5)]
PHI = FIELD.one() + ZETA[1] + ZETA[4]


def golden(value: FieldElement) -> FieldElement:
    """An element ``a + b phi`` of Q(phi) (power basis of x^2 - x - 1, as
    the fibonacci backend stores it), embedded in Q(zeta)."""
    a, b = value.coeffs
    return FIELD.rational(a) + FIELD.rational(b) * PHI


def conjugate(z: FieldElement) -> FieldElement:
    """The complex conjugate: zeta^k goes to zeta^-k."""
    out = FIELD.zero()
    for k, c in enumerate(z.coeffs):
        out = out + FIELD.rational(c) * ZETA[-k % 5]
    return out


def continued_fraction(p: int, q: int) -> list:
    """``[a_1, ..., a_n]`` with p/q = a_1 - 1/(a_2 - ...), each a_i the
    ceiling of what is left; q >= 1."""
    out = []
    while q:
        a = -(-p // q)
        out.append(a)
        p, q = q, a * q - p
    return out


def lens_tv(p: int, q: int) -> FieldElement:
    """TV(L(p, q)) for the Fibonacci category, in Q(zeta)."""
    one = FIELD.one()
    s = [[one, PHI], [PHI, -one]]
    t = ZETA[2]
    # the row (1, 0) S~, then T^a S~ for each a: the first row of the product
    row = [s[0][0], s[0][1]]
    terms = continued_fraction(p, q)
    for a in terms:
        row = [row[0], row[1] * t ** (a % 5)]
        row = [row[0] * s[0][j] + row[1] * s[1][j] for j in (0, 1)]
    entry = row[0]
    return entry * conjugate(entry) * ((FIELD.rational(2) + PHI) ** (len(terms) + 1)).inv()
