import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import refkernel
from statesum3d import exactnum
from statesum3d.exactnum import FieldElement, FieldSpec, make_field, root_of_unity


Q = make_field("rational")
Z4 = make_field("cyclotomic", 4)
Z6 = make_field("cyclotomic", 6)
GOLD = make_field("algebraic", minpoly=[-1, -1, 1])

BUILTIN_FIELDS = [
    Q,
    make_field("cyclotomic", 2),
    make_field("cyclotomic", 3),
    Z4,
    make_field("cyclotomic", 5),
    Z6,
    GOLD,
    make_field("algebraic", minpoly=[-2, 0, 1]),
]


def test_make_field_degenerate_cyclotomic():
    f1 = make_field("cyclotomic", 1)
    assert f1.degree == 1
    # the generator of Q(zeta_1) is 1 itself
    assert f1.gen() == f1.one()


def test_make_field_z4():
    assert Z4.degree == 2
    z = Z4.gen()
    assert z * z == -Z4.one()


def test_make_field_golden():
    assert GOLD.degree == 2
    phi = GOLD.gen()
    assert phi * (phi - GOLD.one()) == GOLD.one()


def test_make_field_rejects_bad_polynomials():
    with pytest.raises(ValueError):
        make_field("algebraic", minpoly=[2, 3])  # not monic
    with pytest.raises(ValueError):
        make_field("algebraic", minpoly=[1])  # degree 0
    with pytest.raises(ValueError):
        make_field("algebraic", minpoly=[-1, 0, 1])  # x^2 - 1 reducible
    with pytest.raises(ValueError, match="degree > 3 are not supported"):
        make_field("algebraic", minpoly=[1, 0, 0, 0, 1])  # x^4 + 1, unchecked degree


def test_arith_examples():
    z = Z4.gen()
    one = Z4.one()
    assert (one + z) * (one - z) == Z4.rational(2)
    # in Q(zeta_6), zeta^2 = zeta - 1 since Phi_6 = x^2 - x + 1
    z6 = Z6.gen()
    assert z6 * z6 == z6 - Z6.one()
    # 1/zeta = zeta^(N-1)
    for spec in (Z4, Z6):
        zz = spec.gen()
        assert zz.inv() == root_of_unity(spec, spec.n - 1)


def test_arith_mismatched_specs():
    with pytest.raises(ValueError):
        Z4.one() + Z6.one()
    with pytest.raises(ZeroDivisionError):
        Z4.one() / Z4.zero()


def test_root_of_unity():
    m1 = root_of_unity(make_field("cyclotomic", 2), 1)
    assert m1 == -make_field("cyclotomic", 2).one()
    assert root_of_unity(Z4, 2) == -Z4.one()
    Z3 = make_field("cyclotomic", 3)
    assert root_of_unity(Z3, 4) == root_of_unity(Z3, 1)
    assert root_of_unity(Z4, 0) == Z4.one()
    with pytest.raises(ValueError):
        root_of_unity(Q, 1)


def test_serialization_roundtrip():
    x = GOLD.element([Fraction(1, 2), -3])
    assert x.to_text() == "[1/2, -3]"
    assert FieldElement.from_text(GOLD, x.to_text()) == x
    for spec in BUILTIN_FIELDS:
        spec2 = spec.from_text(spec.to_text())
        assert spec2 == spec


def _random_element(spec, rnd):
    return spec.element([Fraction(rnd.randrange(-6, 7), rnd.randrange(1, 5))
                         for _ in range(spec.degree)])


@pytest.mark.parametrize("spec", BUILTIN_FIELDS)
def test_ring_axioms_random(spec):
    import random
    rnd = random.Random(7)
    for _ in range(50):
        a, b, c = (_random_element(spec, rnd) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


@pytest.mark.parametrize("spec", BUILTIN_FIELDS)
def test_inverses_random(spec):
    import random
    rnd = random.Random(13)
    count = 0
    while count < 200:
        a = _random_element(spec, rnd)
        if a.is_zero():
            continue
        count += 1
        assert a * (spec.one() / a) == spec.one()


@given(st.lists(st.fractions(max_denominator=12), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_canonicalization_idempotent(coeffs):
    x = GOLD.element(coeffs)
    y = GOLD.element(x.coeffs)
    assert x.coeffs == y.coeffs


def test_power():
    phi = GOLD.gen()
    assert phi ** 2 == phi + GOLD.one()


def _floating_point(tree) -> list:
    """The float and complex literals, ``complex(...)`` calls and ``cmath``
    imports of a parsed module, as (line, what)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "complex":
            found.append((node.lineno, "complex(...)"))
        elif isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            found.append((node.lineno, "import cmath"))
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            found.append((node.lineno, "from cmath import"))
    return found


def test_source_has_no_floating_point():
    # every scalar of the package is exact: no module holds a float or
    # complex literal, builds a complex number or imports cmath
    package = Path(exactnum.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    found = {path.name: _floating_point(ast.parse(path.read_text(), str(path)))
             for path in modules}
    assert not {name: hits for name, hits in found.items() if hits}


def test_fieldspec_requires_minpoly():
    for kind in ("algebraic", "cyclotomic"):
        with pytest.raises(ValueError):
            FieldSpec(kind)


def test_cyclotomic_degree_is_checked(monkeypatch):
    monkeypatch.setattr(exactnum, "_FIELD_CACHE", {})
    monkeypatch.setattr(exactnum, "_cyclotomic_poly",
                        lambda n: [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)])
    with pytest.raises(ArithmeticError):
        make_field("cyclotomic", 3)


# Every shipped field, Phi_5 (degree 4) and a degree-2 field whose minimal
# polynomial is not integral cover the three arithmetic paths.
AGREEMENT_FIELDS = BUILTIN_FIELDS + [make_field("algebraic", minpoly=[Fraction(-1, 2), 0, 1])]

COEFFS = st.lists(st.fractions(min_value=-60, max_value=60, max_denominator=30), max_size=8)


def _agree(x, rx):
    assert x.coeffs == rx.coeffs
    assert x.to_text() == rx.to_text()
    assert x.is_zero() == rx.is_zero()
    assert x.is_one() == rx.is_one()


@pytest.mark.parametrize("spec", AGREEMENT_FIELDS)
@given(a=COEFFS, b=COEFFS, k=st.integers(-4, 4))
@settings(max_examples=40, deadline=None)
def test_kernel_agrees_with_reference(spec, a, b, k):
    ref = refkernel.FieldSpec.from_json(spec.to_json())
    x, y = spec.element(a), spec.element(b)
    rx, ry = ref.element(a), ref.element(b)
    for u, ru in ((x, rx), (y, ry), (x + y, rx + ry), (x - y, rx - ry), (-x, -rx),
                  (x * y, rx * ry)):
        _agree(u, ru)
    if ry.is_zero():
        with pytest.raises(ZeroDivisionError):
            y.inv()
    else:
        _agree(y.inv(), ry.inv())
        _agree(x / y, rx / ry)
    if k < 0 and rx.is_zero():
        with pytest.raises(ZeroDivisionError):
            x ** k
    else:
        _agree(x ** k, rx ** k)


@pytest.mark.parametrize("spec", AGREEMENT_FIELDS)
@given(a=COEFFS)
@settings(max_examples=40, deadline=None)
def test_product_with_one_agrees_with_reference(spec, a):
    # a factor of one on either side returns the other factor as it is (the
    # right one when both are one), also for a one that arithmetic produced,
    # and that is the reference product
    ref = refkernel.FieldSpec.from_json(spec.to_json())
    x, rx, rone = spec.element(a), ref.element(a), ref.one()
    two, y = spec.rational(2), spec.gen() + spec.rational(7)
    for one in (spec.one(), spec.element([1]), two * two.inv(), y / y):
        assert one.is_one()
        assert one * x is x
        assert x * one is (one if x.is_one() else x)
        _agree(x * one, rx * rone)
        _agree(one * x, rone * rx)
        _agree(one * one, rone * rone)


def test_product_with_one_checks_the_field():
    for x, y in ((Z4.one(), Z6.one()), (Z4.one(), Z6.gen()), (Z4.gen(), Z6.one())):
        with pytest.raises(ValueError, match="different fields"):
            x * y
        with pytest.raises(ValueError, match="different fields"):
            y * x


@pytest.mark.parametrize("spec", AGREEMENT_FIELDS)
@given(a=COEFFS, b=COEFFS)
@settings(max_examples=40, deadline=None)
def test_equality_and_hash_consistent(spec, a, b):
    ref = refkernel.FieldSpec.from_json(spec.to_json())
    x, y = spec.element(a), spec.element(b)
    assert (x == y) == (ref.element(a) == ref.element(b))
    for same in ((x + y) - y, spec.element(x.coeffs), spec.element(list(a) + [0] * spec.degree)):
        assert same == x
        assert hash(same) == hash(x)
    if x == y:
        assert hash(x) == hash(y)
