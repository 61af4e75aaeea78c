"""Turaev-Viro invariants of lens spaces from the modular data of the
Fibonacci and Ising categories, with no graph calculus: a reference for the
state sum.

For a modular category the state sum at the trivial group is the
Turaev-Viro invariant, and TV(M) = |RT(M)|^2 (Turaev and Virelizier, "On
two approaches to 3-dimensional TQFTs").  The lens space L(p, q) is surgery
on a chain of unknots framed by the continued fraction

    p/q = a_1 - 1/(a_2 - 1/(... - 1/a_n)),

each a_i the ceiling of what is left, and its RT invariant is the entry
(0, 0) of S T^(a_n) S ... T^(a_1) S up to a phase, which |.|^2 removes:

    TV(L(p, q)) = D^-2(n + 1) |(S~ T^(a_n) S~ ... T^(a_1) S~)_00|^2

with the unnormalized S~ (S~^2 = D^2 I, so S = S~ / D) and T diagonal, its
entries powers of zeta = exp(2 pi i / N) (Rowell, Stong and Wang, "On
classification of modular tensor categories"):

* Fibonacci, simples (1, tau), N = 5: S~ = [[1, phi], [phi, -1]],
  T = diag(1, zeta^2), D^2 = 2 + phi, with phi = 1 + zeta + zeta^4 the
  golden ratio;
* Ising, simples (1, sigma, psi), N = 16: S~ = [[1, r, 1], [r, 0, -r],
  [1, -r, 1]], T = diag(1, zeta, -1), D^2 = 4, with r = zeta^2 - zeta^6
  the square root of 2.

All of it is exact in Q(zeta), where |z|^2 = z z-bar and the bar sends zeta
to zeta^-1.  L(0, 1) is S^1 x S^2 (n = 1, a_1 = 0) and L(1, 1) the
3-sphere.
"""

from __future__ import annotations

from statesum3d.exactnum import FieldElement, make_field, root_of_unity


class Modular:
    """S~, T and D^2 of a modular category over Q(zeta_N).

    ``t_powers[i]`` is the exponent k of T_ii = zeta^k, and ``generator`` is
    the image in Q(zeta) of the generator of the category backend's field
    (phi for Fibonacci, sqrt 2 for Ising)."""

    def __init__(self, order: int, build):
        self.field = make_field("cyclotomic", order)
        self.zeta = [root_of_unity(self.field, k) for k in range(order)]
        self.s, self.t_powers, self.dim2, self.generator = build(self.field, self.zeta)

    def embed(self, value: FieldElement) -> FieldElement:
        """An element of the backend's field, in its power basis, as an
        element of Q(zeta)."""
        out = self.field.zero()
        for k, c in enumerate(value.coeffs):
            out = out + self.field.rational(c) * self.generator ** k
        return out

    def conjugate(self, z: FieldElement) -> FieldElement:
        """The complex conjugate: zeta^k goes to zeta^-k."""
        out = self.field.zero()
        for k, c in enumerate(z.coeffs):
            out = out + self.field.rational(c) * self.zeta[-k % len(self.zeta)]
        return out

    def lens_tv(self, p: int, q: int) -> FieldElement:
        """TV(L(p, q)), in Q(zeta)."""
        s, n = self.s, len(self.zeta)
        # the row (1, 0, ...) S~, then T^a S~ for each a: the first row of
        # the product
        row = list(s[0])
        terms = continued_fraction(p, q)
        for a in terms:
            row = [x * self.zeta[k * a % n] for x, k in zip(row, self.t_powers)]
            row = [sum((row[i] * s[i][j] for i in range(len(s))), self.field.zero())
                   for j in range(len(s))]
        entry = row[0]
        return entry * self.conjugate(entry) * (self.dim2 ** (len(terms) + 1)).inv()


def continued_fraction(p: int, q: int) -> list:
    """``[a_1, ..., a_n]`` with p/q = a_1 - 1/(a_2 - ...), each a_i the
    ceiling of what is left; q >= 1."""
    out = []
    while q:
        a = -(-p // q)
        out.append(a)
        p, q = q, a * q - p
    return out


def _fibonacci(field, zeta):
    one = field.one()
    phi = one + zeta[1] + zeta[4]
    return [[one, phi], [phi, -one]], [0, 2], field.rational(2) + phi, phi


def _ising(field, zeta):
    one = field.one()
    r = zeta[2] - zeta[6]
    return [[one, r, one], [r, field.zero(), -r], [one, -r, one]], [0, 1, 8], field.rational(4), r


FIBONACCI = Modular(5, _fibonacci)
ISING = Modular(16, _ising)
