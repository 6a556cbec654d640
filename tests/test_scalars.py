import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.rings import ring

import spbw.scalars
from spbw.scalars import (
    _STRIP_THRESHOLD,
    Scalar,
    _strip,
    poly_add,
    poly_const,
    poly_mul,
    poly_neg,
    poly_one,
    poly_scale,
    render_scalar,
    small_const,
)


def s(value, nparams=1):
    return Scalar.const(nparams, value)


Q = Scalar.param(1, 0)


def test_additive_cancellation():
    one = s(1)
    assert (Q - one) + one == Q


def test_cross_multiplication_equality():
    # (q^2 - 1)/(q - 1) equals (q + 1)/1 without any gcd reduction
    lhs = (Q * Q - s(1)) / (Q - s(1))
    rhs = Q + s(1)
    assert lhs == rhs
    assert not lhs == Q


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        s(0).inverse()


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Scalar({}, {}, 1)


def test_equality_is_equivalence(rng):
    vals = [s(2), (Q * s(2)) / Q, (Q * Q * s(2)) / (Q * Q)]
    for a in vals:
        assert a == a
    assert vals[0] == vals[1] and vals[1] == vals[2] and vals[0] == vals[2]


def test_addition_associative_samples(rng):
    pool = [s(rng.randint(-5, 5)) for _ in range(10)] + [Q, Q * Q, s(1) / (Q - s(1))]
    for _ in range(100):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a + b) + c == a + (b + c)


def test_constant_denominator_folds():
    half = s(1) / s(2)
    assert half.num == {(0,): Fraction(1, 2)}
    assert half.den == {(0,): Fraction(1)}


def test_strip_keeps_value():
    # build something with many redundant terms, then compare cross-multiplied
    big = s(0)
    for k in range(8):
        big = big + (Q + s(k)) * (Q - s(k)) / (Q + s(1))
    other = sum(((Q * Q - s(k * k)) for k in range(8)), start=s(0)) / (Q + s(1))
    assert big == other


def test_render():
    assert render_scalar(Q * Q - s(1), ("q",)) == "q^2 - 1"
    assert render_scalar((Q - s(1)).inverse(), ("q",)) == "(1)/(q - 1)"
    assert render_scalar(s(0), ("q",)) == "0"


# -- fast paths keep the representation --------------------------------------
#
# A test-only copy of the generic arithmetic (no fast paths), on (num, den)
# pairs: every Scalar operation must give exactly its num and den, dict for
# dict.  Values are checked against sympy's rational-function field, whose
# elements are reduced by `cancel` as they are made.


def _generic_poly_mul(a, b):
    if not a or not b:
        return {}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _generic_make(num, den, n):
    if not den:
        raise ZeroDivisionError
    if not num:
        den = {(0,) * n: Fraction(1)}
    elif len(num) + len(den) > _STRIP_THRESHOLD:
        num, den = _strip(num, den)
    if len(den) == 1:
        e, c = next(iter(den.items()))
        if not any(e) and c != 1:
            num = poly_scale(num, Fraction(1) / c)
            den = {(0,) * n: Fraction(1)}
    return num, den


def _generic_mul(x, y, n):
    return _generic_make(_generic_poly_mul(x[0], y[0]), _generic_poly_mul(x[1], y[1]), n)


def _generic_add(x, y, n):
    if x[1] == y[1]:
        return _generic_make(poly_add(x[0], y[0]), x[1], n)
    return _generic_make(
        poly_add(_generic_poly_mul(x[0], y[1]), _generic_poly_mul(y[0], x[1])),
        _generic_poly_mul(x[1], y[1]),
        n,
    )


def _generic_neg(x, n):
    return _generic_make(poly_neg(x[0]), x[1], n)


def _generic_inverse(x, n):
    return _generic_make(x[1], x[0], n)


def _generic_eq(x, y):
    """Equality by cross-multiplication, for every pair of denominators."""
    return _generic_poly_mul(x[0], y[1]) == _generic_poly_mul(y[0], x[1])


# op -> (Scalar operation, generic copy, sympy field operation)
_OPS = {
    "mul": (operator.mul, _generic_mul, operator.mul),
    "add": (operator.add, _generic_add, operator.add),
    "sub": (operator.sub, lambda x, y, n: _generic_add(x, _generic_neg(y, n), n), operator.sub),
    "div": (operator.truediv, lambda x, y, n: _generic_mul(x, _generic_inverse(y, n), n), operator.truediv),
}


def _canonical_values(s):
    """Every stored value is an ``int`` when it is integral and otherwise a
    ``Fraction`` with denominator > 1: never a float, a bool, or a
    ``Fraction`` with denominator 1."""
    for c in (*s.num.values(), *s.den.values()):
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def _same_representation(s, pair):
    num, den = pair
    assert s.num == num and s.den == den
    assert list(s.num) == list(num) and list(s.den) == list(den)
    _canonical_values(s)


def _atoms(n):
    """Literal units, zero, one-term values, values of one that are not the
    literal unit, and a sum above the strip threshold."""
    one = Scalar.const(n, 1)
    atoms = [one, Scalar.const(n, 0), Scalar.const(n, 3), Scalar.const(n, Fraction(-2, 5)),
             Scalar.const(n, 2) * Scalar.const(n, Fraction(1, 2))]
    for j in range(n):
        q = Scalar.param(n, j)
        atoms += [q, q / q, Scalar.const(n, 3) * q * q, q + one, one / (q - one)]
    if n:
        q = Scalar.param(n, n - 1)
        big = Scalar.const(n, 0)
        for k in range(6):
            big = big + (q + Scalar.const(n, k)) / (q + one)
        atoms.append(big)
    return atoms


def _field(n):
    """sympy's Q(q0, ..., q_{n-1}) and the map of a Scalar into it."""
    R = ring(",".join(f"q{j}" for j in range(n)), QQ)[0]
    K = R.to_field()

    def poly(p):
        return R.from_dict({e: QQ(c.numerator, c.denominator) for e, c in p.items()})

    return K, lambda s: K.new(poly(s.num), poly(s.den))


@pytest.mark.parametrize("nparams", [0, 1, 2])
def test_fast_paths_keep_generic_representation(nparams):
    rng = random.Random(8000 + nparams)
    K, value = _field(nparams)
    atoms = [(a, (a.num, a.den), value(a)) for a in _atoms(nparams)]
    pool = list(atoms)
    crossed = False
    for _ in range(400):
        name = rng.choice(sorted(_OPS))
        scalar_op, generic_op, field_op = _OPS[name]
        a = rng.choice(pool)
        b = rng.choice(atoms if rng.random() < 0.5 else pool)
        if name == "div" and b[0].is_zero():
            continue
        s = scalar_op(a[0], b[0])
        pair = generic_op(a[1], b[1], nparams)
        _same_representation(s, pair)
        v = field_op(a[2], b[2])
        assert value(s) == v
        _same_representation(-a[0], _generic_neg(a[1], nparams))
        assert (a[0] == b[0]) == _generic_eq(a[1], b[1]) == (a[2] == b[2])
        if len(s.num) + len(s.den) <= 30:
            pool.append((s, pair, v))
        crossed |= len(s.num) + len(s.den) > _STRIP_THRESHOLD
    assert crossed or nparams == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), st.data())
def test_values_stay_canonical_and_exact(nparams, data):
    """Random chains of + - * /, inverse() and sums above the strip
    threshold keep every value canonical, and agree with sympy's field."""
    draw = data.draw
    K, value = _field(nparams)

    def atom():
        kind = draw(st.sampled_from(("int", "fraction", "param")[: 3 if nparams else 2]))
        if kind == "int":
            c = draw(st.integers(-4, 4))
            return Scalar.const(nparams, c), K(c)
        if kind == "fraction":
            p, q = draw(st.integers(-4, 4)), draw(st.integers(2, 5))
            return Scalar.const(nparams, Fraction(p, q)), K(QQ(p, q))
        j = draw(st.integers(0, nparams - 1))
        return Scalar.param(nparams, j), K.gens[j]

    x, v = atom()
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(["add", "sub", "mul", "div", "inverse", "wide"]))
        if op == "inverse":
            if v == 0:
                continue
            x, v = x.inverse(), 1 / v
        elif op == "wide":
            # one more term than the threshold, so a nonconstant sum is stripped
            p, pv = atom()
            power, pw = Scalar.const(nparams, 1), K(1)
            for _ in range(_STRIP_THRESHOLD + 1):
                a, av = atom()
                x, v = x + a * power, v + av * pw
                power, pw = power * p, pw * pv
        else:
            y, w = atom()
            if op == "div" and w == 0:
                continue
            scalar_op, _, field_op = _OPS[op]
            x, v = scalar_op(x, y), field_op(v, w)
        _canonical_values(x)
        assert value(x) == v


def test_no_float_enters_a_scalar():
    with pytest.raises(TypeError):
        Scalar.const(1, 0.5)
    # the small-constant cache checks the type before it looks up the value,
    # which a float equal to a cached int would otherwise find
    two = small_const(1, 2)
    assert small_const(1, 2) is two and two.num == {(0,): 2} and two.den is poly_one(1)
    for value in (2.0, 0.5, Fraction(2)):
        with pytest.raises(TypeError):
            small_const(1, value)
    assert small_const(1, True).num == {(0,): 1} and small_const(1, False).is_zero()
    assert small_const(1, 10**6) is not small_const(1, 10**6)  # bounded
    assert type(next(iter(Scalar.const(0, True).num.values()))) is int
    assert poly_const(1, Fraction(6, 3)) == {(0,): 2} and type(poly_const(1, Fraction(6, 3))[(0,)]) is int


# -- work counts ---------------------------------------------------------------


@pytest.fixture
def fraction_muls(monkeypatch):
    count = [0]
    mul = Fraction.__mul__

    def counting(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Fraction, "__mul__", counting)
    return count


@pytest.mark.parametrize("nparams", [0, 1, 2])
def test_unit_operand_makes_no_fraction_product(nparams, fraction_muls):
    one, zero = Scalar.const(nparams, 1), Scalar.const(nparams, 0)
    values = [Scalar.const(nparams, Fraction(3, 7))]
    if nparams:
        q = Scalar.param(nparams, 0)
        values.append((q + Scalar.const(nparams, 2)) / (q - one))
    before = fraction_muls[0]
    for x in values:
        for r in (x * one, one * x, x + zero, zero + x):
            assert r.num is x.num and r.den is x.den
    assert fraction_muls[0] == before


def test_one_term_product_makes_one_fraction_product(fraction_muls):
    a, b = {(1, 0): Fraction(2)}, {(0, 3): Fraction(-3, 4)}
    before = fraction_muls[0]
    assert poly_mul(a, b) == {(1, 3): Fraction(-3, 2)}
    assert fraction_muls[0] == before + 1
    assert poly_mul(poly_one(2), b) is b and poly_mul(a, poly_one(2)) is a
    assert fraction_muls[0] == before + 1


@pytest.fixture
def poly_muls(monkeypatch):
    count = [0]
    mul = spbw.scalars.poly_mul

    def counting(a, b):
        count[0] += 1
        return mul(a, b)

    monkeypatch.setattr(spbw.scalars, "poly_mul", counting)
    return count


@pytest.mark.parametrize("nparams", [0, 1, 2])
def test_a_constant_product_makes_one_fraction_product_and_no_poly_mul(nparams, poly_muls, fraction_muls):
    a, b = Scalar.const(nparams, Fraction(3, 7)), Scalar.const(nparams, Fraction(-7, 3))
    before = fraction_muls[0]
    r = a * b
    assert fraction_muls[0] == before + 1 and poly_muls[0] == 0
    assert r.num == {(0,) * nparams: -1} and r.num is not poly_one(nparams) and r.den is poly_one(nparams)
    assert type(r.num[(0,) * nparams]) is int
    if nparams:
        q = Scalar.param(nparams, 0)
        for x, y in ((q, a), (a, q), (q + a, a), (a.inverse() / q, a)):
            before = poly_muls[0]
            x * y
            assert poly_muls[0] == before + 2


@pytest.mark.parametrize("nparams", [0, 1, 3])
def test_unit_polynomial_is_shared(nparams):
    unit = poly_const(nparams, 1)
    assert unit is poly_const(nparams, 1) is poly_const(nparams, Fraction(1)) is poly_one(nparams)
    assert unit == {(0,) * nparams: Fraction(1)}
    assert Scalar.const(nparams, 0).den is unit
    assert Scalar.const(nparams, 5).den is unit
    assert Scalar({(0,) * nparams: Fraction(1)}, {(0,) * nparams: Fraction(4)}, nparams).den is unit


@pytest.mark.parametrize("nparams", [0, 1, 2])
def test_a_one_that_is_not_the_shared_unit_multiplies_to_the_same_form(nparams):
    other_one = Scalar.const(nparams, 2) * Scalar.const(nparams, Fraction(1, 2))
    assert other_one.num is not poly_one(nparams) and other_one.num == poly_one(nparams)
    values = [Scalar.const(nparams, Fraction(3, 7)), Scalar.const(nparams, 1), other_one]
    if nparams:
        q = Scalar.param(nparams, 0)
        values += [(q + Scalar.const(nparams, 2)) / (q - Scalar.const(nparams, 1)), q / q]
    for x in values:
        for r in (x * other_one, other_one * x):
            assert r.num == x.num and r.den == x.den


@pytest.fixture
def fraction_eqs(monkeypatch):
    count = [0]
    eq = Fraction.__eq__

    def counting(a, b):
        count[0] += 1
        return eq(a, b)

    monkeypatch.setattr(Fraction, "__eq__", counting)
    return count


@pytest.mark.parametrize("nparams", [0, 1, 2])
def test_the_shared_unit_is_recognized_by_identity(nparams, fraction_eqs):
    unit = poly_one(nparams)
    expo = tuple(1 if j == 0 else 0 for j in range(nparams))
    b = {expo: Fraction(-3, 4)}
    one, two = Scalar.const(nparams, 1), Scalar.const(nparams, 2)
    before = fraction_eqs[0]
    assert poly_mul(unit, b) is b and poly_mul(b, unit) is b
    assert one.is_unit() and not two.is_unit()
    assert fraction_eqs[0] == before
    # a one with a numerator of its own is multiplied out, to the same keys
    # and values, and is not the literal unit
    other = {(0,) * nparams: Fraction(1)}
    for r in (poly_mul(other, b), poly_mul(b, other)):
        assert r == b and r is not b
    other_one = Scalar(other, unit, nparams)
    assert other_one.is_one() and not other_one.is_unit()
