"""Exact arithmetic in small number fields.

Every scalar produced by this package lives in a field of one of three kinds:

* ``rational``      -- plain rationals,
* ``cyclotomic N``  -- Q(zeta_N), the generator being a primitive N-th root
  of unity with minimal polynomial Phi_N,
* ``algebraic``     -- Q[x]/(m(x)) for a monic irreducible m over Q, e.g.
  x^2 - x - 1 for the golden ratio or x^2 - 2 for sqrt(2).

Elements are stored densely as coordinate vectors in the power basis
``1, g, g^2, ..., g^(d-1)``, reduced modulo the minimal polynomial, as a
tuple of integer numerators over one positive common denominator with no
factor shared by all of them (Cohen, *A Course in Computational Algebraic
Number Theory*, 4.2).  That form is canonical, so equality and hashing are
exact.  The field alone picks how products and inverses are computed:

* degree 1: integer arithmetic on the single numerator,
* degree 2 with an integral minimal polynomial x^2 + p x + q: the closed-form
  product, and the inverse as conjugate over norm,
* any other field: polynomial arithmetic over ``fractions.Fraction``.

A product with one as a factor returns the other factor, with no
arithmetic: one's canonical form is unique (numerators ``(1, 0, ...)`` over
1), so the test is exact.  Operands of different fields still raise.  Call
sites therefore pass one as a value, as the start of a running product or
the scale of a tensor, and do not stand in for it with None.

Text forms used by the file formats and the CLI:

* element:  ``[1/2, -3]``  (power-basis coordinates, low degree first),
* spec:     ``{"cyclotomic": 4}`` or ``{"minpoly": [-1, -1, 1]}`` or
  ``{"rational": true}``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "FieldSpec",
    "FieldElement",
    "make_field",
    "root_of_unity",
    "QQ",
]


def _cyclotomic_poly(n: int) -> list[Fraction]:
    """Coefficients of Phi_n, low degree first, computed by exact division
    of x^n - 1 by the Phi_d for proper divisors d."""
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, _cyclotomic_poly(d))
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return poly


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1) if n > 1 else 1


class FieldSpec:
    """Description of a ground field; hashable and comparable.

    ``minpoly`` is stored monic with low-degree-first Fraction coefficients.
    For the cyclotomic kind it is Phi_N.  Degree-1 specs behave exactly like
    the rationals.
    """

    def __init__(self, kind: str, n: int = 0, minpoly: Sequence[Fraction] | None = None):
        self.kind = kind
        self.n = n
        if kind == "rational":
            minpoly = [Fraction(0), Fraction(1)]
        if minpoly is None:
            raise ValueError(f"{kind} field needs a minimal polynomial")
        self.minpoly = tuple(Fraction(c) for c in minpoly)
        self.degree = len(self.minpoly) - 1
        if self.minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        if self.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        self._hash = hash((self.kind, self.n, self.minpoly))
        # arithmetic path: 1 and 2 are the closed forms, 0 the polynomial code
        self._path = 0
        if self.degree == 1:
            self._path = 1
        elif self.degree == 2 and all(c.denominator == 1 for c in self.minpoly):
            self._path = 2
            self._q, self._p = int(self.minpoly[0]), int(self.minpoly[1])
        self._zero = None
        self._one = None
        # numerators of one, whose denominator is 1 (see FieldElement.__mul__)
        self._one_nums = (1,) + (0,) * (self.degree - 1)

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, FieldSpec) \
            and self.minpoly == other.minpoly and self.kind == other.kind \
            and self.n == other.n

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.kind == "cyclotomic":
            return f"FieldSpec(cyclotomic {self.n})"
        if self.kind == "rational":
            return "FieldSpec(rational)"
        return f"FieldSpec(minpoly {list(self.minpoly)})"

    # -- constructors for elements -------------------------------------

    def element(self, coeffs: Iterable[Fraction | int | str]) -> FieldElement:
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            cs = _poly_mod(cs, self.minpoly)
        cs += [Fraction(0)] * (self.degree - len(cs))
        # the lcm of reduced denominators shares no factor with all numerators
        den = lcm(*(c.denominator for c in cs))
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def zero(self) -> FieldElement:
        if self._zero is None:
            self._zero = self.element([])
        return self._zero

    def one(self) -> FieldElement:
        if self._one is None:
            self._one = self.element([1])
        return self._one

    def rational(self, q: Fraction | int | str) -> FieldElement:
        return self.element([Fraction(q)])

    def gen(self) -> FieldElement:
        if self.degree == 1:
            # degenerate case: the generator is a rational root of the minpoly
            return self.element([-self.minpoly[0]])
        return self.element([0, 1])

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"rational": True}
        if self.kind == "cyclotomic":
            return {"cyclotomic": self.n}
        return {"minpoly": [str(c) for c in self.minpoly]}

    @staticmethod
    def from_json(obj: dict) -> FieldSpec:
        if "rational" in obj:
            return make_field("rational")
        if "cyclotomic" in obj:
            return make_field("cyclotomic", int(obj["cyclotomic"]))
        return make_field("algebraic", minpoly=[Fraction(c) for c in obj["minpoly"]])

    def to_text(self) -> str:
        return json.dumps(self.to_json())

    @staticmethod
    def from_text(text: str) -> FieldSpec:
        return FieldSpec.from_json(json.loads(text))


def _poly_mod(poly: list[Fraction], mod: Sequence[Fraction]) -> list[Fraction]:
    poly = list(poly)
    d = len(mod) - 1
    for k in range(len(poly) - 1, d - 1, -1):
        c = poly[k]
        if c:
            for j in range(d + 1):
                poly[k - d + j] -= c * mod[j]
    while len(poly) > d:
        poly.pop()
    return poly


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _reduced(spec: FieldSpec, nums: tuple[int, ...], den: int) -> FieldElement:
    """The element nums / den, with den != 0, in canonical form."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = tuple([a // g for a in nums])
        den //= g
    return FieldElement(spec, nums, den)


class FieldElement:
    """Immutable element of a :class:`FieldSpec` in canonical form: the
    power-basis coordinates are ``nums[k] / den`` with ``den > 0`` and
    ``gcd(den, *nums) == 1``."""

    __slots__ = ("spec", "nums", "den", "_hash")

    def __init__(self, spec: FieldSpec, nums: tuple[int, ...], den: int):
        self.spec = spec
        self.nums = nums
        self.den = den
        self._hash = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates, low degree first."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.nums)

    # -- ring operations -------------------------------------------------

    def _check(self, other: FieldElement) -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError("field elements live in different fields")

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            nums = tuple([a + b for a, b in zip(self.nums, other.nums)])
            return FieldElement(self.spec, nums, 1) if da == 1 else _reduced(self.spec, nums, da)
        return _reduced(self.spec, tuple([a * db + b * da for a, b in zip(self.nums, other.nums)]),
                        da * db)

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            nums = tuple([a - b for a, b in zip(self.nums, other.nums)])
            return FieldElement(self.spec, nums, 1) if da == 1 else _reduced(self.spec, nums, da)
        return _reduced(self.spec, tuple([a * db - b * da for a, b in zip(self.nums, other.nums)]),
                        da * db)

    def __neg__(self) -> FieldElement:
        return FieldElement(self.spec, tuple([-a for a in self.nums]), self.den)

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        spec = self.spec
        one = spec._one_nums
        if self.nums == one and self.den == 1:
            return other
        if other.nums == one and other.den == 1:
            return self
        path = spec._path
        if path == 2:
            a0, a1 = self.nums
            b0, b1 = other.nums
            t = a1 * b1
            nums = (a0 * b0 - spec._q * t, a0 * b1 + a1 * b0 - spec._p * t)
        elif path == 1:
            nums = (self.nums[0] * other.nums[0],)
        else:
            return spec.element(_poly_mod(_poly_mul(self.coeffs, other.coeffs), spec.minpoly))
        den = self.den * other.den
        return FieldElement(spec, nums, 1) if den == 1 else _reduced(spec, nums, den)

    def inv(self) -> FieldElement:
        """Multiplicative inverse; exact, raises ZeroDivisionError on zero.
        Degree 2 with an integral minimal polynomial x^2 + p x + q uses
        1/a = conj(a) / N(a) with N(a0 + a1 x) = a0^2 - p a0 a1 + q a1^2;
        other fields of degree > 1 use the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        spec = self.spec
        path = spec._path
        if path == 2:
            a0, a1 = self.nums
            d = self.den
            norm = a0 * a0 - spec._p * a0 * a1 + spec._q * a1 * a1
            return _reduced(spec, (d * (a0 - spec._p * a1), -d * a1), norm)
        if path == 1:
            return _reduced(spec, (self.den,), self.nums[0])
        # extended gcd of self (as poly) and the minimal polynomial
        r0 = list(spec.minpoly)
        r1 = list(self.coeffs)
        s0: list[Fraction] = [Fraction(0)]
        s1: list[Fraction] = [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                c = r1[0]
                return spec.element([x / c for x in s1])
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))

    def __truediv__(self, other: FieldElement) -> FieldElement:
        return self * other.inv()

    def __pow__(self, k: int) -> FieldElement:
        if k < 0:
            return self.inv() ** (-k)
        out = self.spec.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and hashing ------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums == self.spec._one_nums

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldElement) and self.nums == other.nums \
            and self.den == other.den and self.spec == other.spec

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.spec, self.nums, self.den))
        return self._hash

    def __repr__(self) -> str:
        return f"FieldElement({self.to_text()})"

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    @staticmethod
    def from_text(spec: FieldSpec, text: str) -> FieldElement:
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"bad field element literal: {text!r}")
        inner = body[1:-1].strip()
        parts = [p.strip() for p in inner.split(",")] if inner else []
        return spec.element(parts)


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dn = len(den) - 1
    q = [Fraction(0)] * max(len(num) - dn, 1)
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn] / den[-1]
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


_FIELD_CACHE: dict = {}


def make_field(kind: str, n: int = 0, minpoly: Sequence[Fraction] | None = None) -> FieldSpec:
    """Build a FieldSpec.

    ``make_field("rational")``, ``make_field("cyclotomic", N)`` with N >= 1,
    or ``make_field("algebraic", minpoly=[c0, ..., 1])`` of degree <= 3.
    Cyclotomic specs precompute Phi_N; N = 1 and N = 2 degenerate to
    degree-1 fields.  An algebraic polynomial is checked for irreducibility
    over Q by rational root search, which is complete in degree <= 3; a
    higher degree is refused, as no such check runs for it.
    """
    key = (kind, n, tuple(Fraction(c) for c in minpoly) if minpoly else None)
    if key in _FIELD_CACHE:
        return _FIELD_CACHE[key]
    if kind == "rational":
        spec = FieldSpec("rational")
    elif kind == "cyclotomic":
        if n < 1:
            raise ValueError("cyclotomic index must be >= 1")
        poly = _cyclotomic_poly(n)
        spec = FieldSpec("cyclotomic", n=n, minpoly=poly)
        if spec.degree != _euler_phi(n):
            raise ArithmeticError(f"Phi_{n} has degree {spec.degree}, expected {_euler_phi(n)}")
    elif kind == "algebraic":
        if minpoly is None:
            raise ValueError("algebraic kind needs a minimal polynomial")
        poly = [Fraction(c) for c in minpoly]
        if poly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        if len(poly) - 1 < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        deg = len(poly) - 1
        if deg > 3:
            raise ValueError("algebraic minimal polynomials of degree > 3 are not "
                             "supported (their irreducibility is not checked)")
        if deg > 1 and _has_rational_root(poly):
            raise ValueError("reducible polynomial (rational root found)")
        spec = FieldSpec("algebraic", minpoly=poly)
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    _FIELD_CACHE[key] = spec
    return spec


def _has_rational_root(poly: list[Fraction]) -> bool:
    # clear denominators, then rational root theorem
    den = 1
    for c in poly:
        den = den * c.denominator // gcd(den, c.denominator)
    ip = [int(c * den) for c in poly]
    a0, an = ip[0], ip[-1]
    if a0 == 0:
        return True

    def divisors(m):
        m = abs(m)
        return [d for d in range(1, m + 1) if m % d == 0]

    for p in divisors(a0):
        for q in divisors(an):
            for s in (1, -1):
                r = Fraction(s * p, q)
                v = sum(c * r ** k for k, c in enumerate(poly))
                if v == 0:
                    return True
    return False


def root_of_unity(spec: FieldSpec, k: int) -> FieldElement:
    """zeta_N^k in a cyclotomic field, exponent reduced mod N."""
    if spec.kind != "cyclotomic":
        raise ValueError("root_of_unity needs a cyclotomic field")
    k %= spec.n
    mono = [Fraction(0)] * k + [Fraction(1)]
    return spec.element(mono)


QQ = make_field("rational")
