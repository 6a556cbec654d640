import sys
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spbw.coefficients
import spbw.pipeline
from spbw.coefficients import (
    CoeffEndo,
    CoeffPoly,
    CoeffRing,
    CoeffSigmaDerivation,
    _variable,
    apply_endo,
    apply_sder,
    commutation_audit,
    derivative,
)
from spbw.corpus import CORPUS_NAMES, corpus_doc, corpus_source
from spbw.dsl import build_presentation, parse_expression, parse_presentation
from spbw.lincomb import add_terms
from spbw.pipeline import run_smooth
from spbw.scalars import Scalar, poly_one

from conftest import divmod_univariate, identity_endo


@pytest.fixture
def ring_qt():
    return CoeffRing(params=("q",), coeff_vars=("t",))


def random_coeff(ring, rng, degree=3):
    out = ring.zero()
    for _ in range(rng.randint(1, 3)):
        e = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            if ring.nvars:
                e[rng.randrange(ring.nvars)] += 1
        out = out + ring.monomial(e, rng.choice([-2, -1, 1, 2, 3]))
    return out


def test_ring_scalars_are_made_once_per_value_and_ring(ring_qt):
    three = ring_qt.scalar(3)
    assert ring_qt.scalar(3) is three and ring_qt.scalar(Fraction(3)) is three
    assert three.num == {(0,): Fraction(3)} and three.den is poly_one(1)
    half = ring_qt.scalar(Fraction(1, 2))
    assert ring_qt.scalar(Fraction(1, 2)) is half and half == Scalar.const(1, Fraction(1, 2))
    assert ring_qt.scalar(1).is_unit() and ring_qt.scalar(0).is_zero()
    q = ring_qt.param("q")
    assert ring_qt.scalar(q) is q
    other = CoeffRing(params=("a", "b"))
    assert other.scalar(3) is not three and other.scalar(3).num == {(0, 0): Fraction(3)}


def test_a_float_is_refused_before_the_ring_cache_is_read():
    """0.5 hashes and compares equal to a cached 1/2, so the type is checked
    before the lookup; a bool is still an int."""
    ring = CoeffRing((), ("t",))
    ring.scalar(Fraction(1, 2)), ring.scalar(3)
    for value in (0.5, 3.0, 1.0):
        with pytest.raises(TypeError):
            ring.scalar(value)
    assert ring.scalar(True).is_unit() and ring.scalar(False) is ring.szero()


def test_ring_arithmetic_basics(ring_qt):
    t = ring_qt.var(0)
    assert t * (t + ring_qt.one()) == t * t + t
    assert (t - t).is_zero()
    five = ring_qt.const(5)
    assert five * ring_qt.one() == five


def test_apply_endo_scaling(ring_qt):
    q = ring_qt.param("q")
    sigma = CoeffEndo((ring_qt.var(0).scale(q),))
    t2 = ring_qt.var(0) * ring_qt.var(0)
    expected = t2.scale(q * q)
    assert apply_endo(sigma, t2) == expected


def test_apply_endo_fixes_scalars(ring_qt):
    sigma = CoeffEndo((ring_qt.var(0).scale(ring_qt.param("q")),))
    assert apply_endo(sigma, ring_qt.const(5)) == ring_qt.const(5)


def test_apply_endo_shift(ring_qt):
    # t -> t + 1 applied to t^2 gives t^2 + 2t + 1
    sigma = CoeffEndo((ring_qt.var(0) + ring_qt.one(),))
    t = ring_qt.var(0)
    assert apply_endo(sigma, t * t) == t * t + t.scale(ring_qt.scalar(2)) + ring_qt.one()


def test_apply_sder_jordan(ring_qt):
    t = ring_qt.var(0)
    sigma = identity_endo(ring_qt)
    delta = CoeffSigmaDerivation((t * t,), sigma)
    assert apply_sder(delta, t * t) == (t * t * t).scale(ring_qt.scalar(2))
    assert apply_sder(delta, ring_qt.const(7)).is_zero()


def test_apply_sder_weyl_powers(ring_qt):
    t = ring_qt.var(0)
    delta = CoeffSigmaDerivation((ring_qt.one(),), identity_endo(ring_qt))
    assert apply_sder(delta, t * t * t) == (t * t).scale(ring_qt.scalar(3))


def _stored(p):
    return {e: (c.num, c.den) for e, c in p.terms.items()}


@pytest.mark.parametrize("twist", ["q*t", "q^-1*t + 1", "(q/q)*t"])
def test_sder_powers_read_the_stored_twist_image(ring_qt, twist):
    # delta(t^n) = sigma(t) delta(t^(n-1)) + delta(t) t^(n-1), with sigma(t)
    # taken as the twist applied to the variable: the same fractions, term
    # for term, as reading the twist's stored image
    q, t = ring_qt.param("q"), ring_qt.var(0)
    image = {
        "q*t": t.scale(q),
        "q^-1*t + 1": t.scale(q.inverse()) + ring_qt.one(),
        "(q/q)*t": t.scale(q * q.inverse()),
    }[twist]
    sigma = CoeffEndo((image,))
    delta = CoeffSigmaDerivation((t * t + ring_qt.const(q),), sigma)
    expected = ring_qt.zero()
    for n in range(1, 7):
        expected = apply_endo(sigma, t) * expected + delta.images[0] * t ** (n - 1)
        assert _stored(apply_sder(delta, t ** n)) == _stored(expected)


def test_endo_multiplicative_on_random_pairs(ring_qt, rng):
    q = ring_qt.param("q")
    sigma = CoeffEndo((ring_qt.var(0).scale(q) + ring_qt.one(),))
    for _ in range(100):
        p, g = random_coeff(ring_qt, rng), random_coeff(ring_qt, rng)
        assert apply_endo(sigma, p * g) == apply_endo(sigma, p) * apply_endo(sigma, g)


def test_sder_twisted_leibniz_on_random_pairs(ring_qt, rng):
    q = ring_qt.param("q")
    sigma = CoeffEndo((ring_qt.var(0).scale(q),))
    delta = CoeffSigmaDerivation((ring_qt.one(),), sigma)
    for _ in range(100):
        p, g = random_coeff(ring_qt, rng), random_coeff(ring_qt, rng)
        lhs = apply_sder(delta, p * g)
        rhs = apply_endo(sigma, p) * apply_sder(delta, g) + apply_sder(delta, p) * g
        assert lhs == rhs


def test_inverse_round_trip(ring_qt, rng):
    q = ring_qt.param("q")
    sigma = CoeffEndo((ring_qt.var(0).scale(q),), (ring_qt.var(0).scale(q.inverse()),))
    inv = CoeffEndo(sigma.inverse_images, sigma.images)
    for _ in range(50):
        p = random_coeff(ring_qt, rng)
        assert apply_endo(inv, apply_endo(sigma, p)) == p


def test_bad_inverse_rejected(ring_qt):
    q = ring_qt.param("q")
    with pytest.raises(ValueError):
        CoeffEndo((ring_qt.var(0).scale(q),), (ring_qt.var(0),))


def test_commutation_audit_scaling_vs_scaled_delta(ring_qt):
    # sigma(t) = q t with delta(t) = t commutes; with delta(t) = 1 it does not
    q = ring_qt.param("q")
    sigma = CoeffEndo((ring_qt.var(0).scale(q),))
    good = CoeffSigmaDerivation((ring_qt.var(0),), sigma)
    bad = CoeffSigmaDerivation((ring_qt.one(),), sigma)
    assert commutation_audit([sigma], [good]) == []
    assert commutation_audit([sigma], [bad]) == [("sigma-delta", 0)]


def test_commutation_audit_identity_always_commutes(ring_qt):
    sigma = identity_endo(ring_qt)
    delta = CoeffSigmaDerivation((ring_qt.var(0) * ring_qt.var(0),), sigma)
    assert commutation_audit([sigma, sigma], [delta, delta]) == []


def test_derivative_and_divmod(ring_qt):
    t = ring_qt.var(0)
    p = t * t * t + t.scale(ring_qt.scalar(2))
    assert derivative(p) == (t * t).scale(ring_qt.scalar(3)) + ring_qt.const(2)
    q, r = divmod_univariate(t * t - ring_qt.one(), t - ring_qt.one())
    assert r.is_zero()
    assert q == t + ring_qt.one()


# -- constants, against the term-by-term definitions -----------------------------------


def _endo_by_terms(sigma, p):
    """sigma(p) by its definition: each term ``c * t^e`` goes to
    ``c * prod sigma(t_j)^e_j``."""
    out = p._make({})
    for e, c in p.terms.items():
        term = p._make({(0,) * p.nvars: c})
        for j, k in enumerate(e):
            term = term * sigma.images[j] ** k
        out = out + term
    return out


def _sder_by_terms(delta, p):
    """delta(p) by the twisted product rule on each term:
    ``delta(t_j * m) = sigma(t_j) * delta(m) + delta(t_j) * m``, and
    ``delta(1) = 0``."""

    def on_monomial(e):
        j = next((i for i, k in enumerate(e) if k), None)
        if j is None:
            return p._make({})
        rest = tuple(k - (i == j) for i, k in enumerate(e))
        return delta.twist.images[j] * on_monomial(rest) + delta.images[j] * p._make({rest: one})

    one = Scalar.const(p.nparams, 1)
    out = p._make({})
    for e, c in p.terms.items():
        out = out + on_monomial(e).scale(c)
    return out


def _draw_scalar(draw, ring):
    """A quotient of random parameter polynomials, zero included."""

    def param_poly(min_terms):
        out = ring.szero()
        for _ in range(draw(st.integers(min_terms, 2))):
            term = ring.scalar(draw(st.integers(-3, 3)))
            for i in range(ring.nparams):
                for _ in range(draw(st.integers(0, 2))):
                    term = term * ring.param(f"q{i}")
            out = out + term
        return out

    den = param_poly(1)
    return param_poly(0) * (ring.sone() if den.is_zero() else den.inverse())


@st.composite
def _maps_and_polys(draw):
    """A ring with 1-2 parameters and 1-2 variables, a random endomorphism
    and twisted derivation of it, a constant (zero included) and a
    polynomial of low degree, all with quotients of parameter polynomials
    as scalars."""
    nparams, nvars = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    ring = CoeffRing([f"q{i}" for i in range(nparams)], [f"t{j}" for j in range(nvars)])

    def scalar():
        return _draw_scalar(draw, ring)

    def poly():
        out = ring.zero()
        for _ in range(draw(st.integers(0, 2))):
            out = out + ring.monomial([draw(st.integers(0, 2)) for _ in range(nvars)], scalar())
        return out

    sigma = CoeffEndo([poly() for _ in range(nvars)])
    delta = CoeffSigmaDerivation([poly() for _ in range(nvars)], sigma)
    return ring, sigma, delta, ring.const(scalar()), poly()


@settings(max_examples=150, deadline=None)
@given(_maps_and_polys())
def test_constants_against_the_term_by_term_definitions(case):
    ring, sigma, delta, constant, p = case
    assert apply_endo(sigma, constant) == _endo_by_terms(sigma, constant)
    assert ring.render(apply_endo(sigma, constant)) == ring.render(constant)  # fixed as it is
    assert apply_sder(delta, constant) == _sder_by_terms(delta, constant)
    assert apply_sder(delta, constant).is_zero()
    assert apply_endo(sigma, p) == _endo_by_terms(sigma, p)
    assert apply_sder(delta, p) == _sder_by_terms(delta, p)


# -- the constant path ------------------------------------------------------------


def _representation(p):
    return {e: (c.num, c.den) for e, c in p.terms.items()}


def _product_by_terms(a, b):
    """``a * b`` by its definition: the sum over every pair of terms of
    ``ca * cb * t^(ea + eb)``."""
    out = a._make({})
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            out = out + a._make({tuple(x + y for x, y in zip(ea, eb)): ca * cb})
    return out


@st.composite
def _one_term_pairs(draw):
    """Two one-term polynomials over a ring with 1-2 parameters and 0-2
    variables.  Each coefficient is the shared unit, a one that is not the
    shared unit scalar, or a random nonzero quotient of parameter
    polynomials."""
    nparams, nvars = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    ring = CoeffRing([f"q{i}" for i in range(nparams)], [f"t{j}" for j in range(nvars)])

    def one_term():
        kind = draw(st.sampled_from(["unit", "other one", "random"]))
        if kind == "unit":
            s = ring.sone()
        elif kind == "other one":
            s = ring.scalar(2) * ring.scalar(Fraction(1, 2))
        else:
            s = _draw_scalar(draw, ring)
            s = ring.sone() if s.is_zero() else s
        return ring.monomial([draw(st.integers(0, 2)) for _ in range(nvars)], s)

    return ring, one_term(), one_term()


@settings(max_examples=200, deadline=None)
@given(_one_term_pairs())
def test_one_term_products_against_the_definition(case):
    ring, a, b = case
    for x, y in ((a, b), (b, a)):
        got, want = x * y, _product_by_terms(x, y)
        assert _representation(got) == _representation(want)
        assert ring.render(got) == ring.render(want)


def _generic_product(a, b):
    """``a * b`` by the generic double loop, one term by one term included."""
    out: dict = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out[e] + ca * cb if e in out else ca * cb
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return CoeffPoly(out, a.nvars, a.nparams)


def _generic_scale(p, s):
    return CoeffPoly({} if s.is_zero() else {e: c * s for e, c in p.terms.items()}, p.nvars, p.nparams)


def _generic_sder(delta, p):
    """``delta(p)`` by the memoized twisted product rule, first variable
    first, on the generic product and scale, summed term by term."""
    memo: dict = {}
    one = Scalar.one(p.nparams)

    def on_monomial(e):
        if e not in memo:
            j = next((i for i, k in enumerate(e) if k), None)
            if j is None:
                memo[e] = {}
            else:
                rest = tuple(k - (i == j) for i, k in enumerate(e))
                lower = CoeffPoly(on_monomial(rest), p.nvars, p.nparams)
                memo[e] = add_terms(dict(_generic_product(delta.twist.images[j], lower).terms),
                                    _generic_product(delta.images[j], CoeffPoly({rest: one}, p.nvars, p.nparams)).terms)
        return memo[e]

    acc: dict = {}
    for e, c in p.terms.items():
        add_terms(acc, _generic_scale(CoeffPoly(on_monomial(e), p.nvars, p.nparams), c).terms)
    return CoeffPoly(acc, p.nvars, p.nparams)


def _layout(p):
    """Keys in order, and each scalar's numerator and denominator items in
    order; every stored value is a canonical ``int`` or ``Fraction``."""
    for c in p.terms.values():
        for v in (*c.num.values(), *c.den.values()):
            assert type(v) is int or (type(v) is Fraction and v.denominator > 1), repr(v)
    return [(e, list(c.num.items()), list(c.den.items())) for e, c in p.terms.items()]


def _lane_cases(nparams):
    """(delta, its ring) for the Jordan plane's delta, the one-variable Ore
    ring of the Weyl pair and a two-variable Leibniz delta, each over a ring
    with ``nparams`` parameters, and scalars: the literal unit, zero,
    constants, a one that is not the literal unit and, with a parameter,
    parametric values."""
    params = [f"q{i}" for i in range(nparams)]

    def presentation(name):
        declared = "".join(f"params {q}\n" for q in params)
        return build_presentation(parse_presentation(declared + corpus_source(name)))

    ring = CoeffRing(params, ("t1", "t2"))
    scalars = [ring.sone(), ring.szero(), ring.scalar(3), ring.scalar(Fraction(-2, 5)),
               ring.scalar(2) * ring.scalar(Fraction(1, 2))]
    if nparams:
        q = ring.param("q0")
        scalars += [q, q * q.inverse(), (q + ring.scalar(1)).inverse(), ring.scalar(3) * q]
    t1, t2 = ring.var(0), ring.var(1)
    two_var = CoeffSigmaDerivation(
        ((t1 * t2).scale(scalars[-1]) + ring.const(Fraction(1, 2)), (t1 * t1).scale(ring.scalar(-1))),
        CoeffEndo((t1, t2)))
    jordan = presentation("jordan")
    weyl_ring, _, weyl, _ = presentation("weyl")._ore_maps(0, 1)
    return [(jordan.delta[0], jordan.ring), (weyl, weyl_ring), (two_var, ring)], scalars


def _lane_polys(ring, scalars):
    """One-term polynomials at the zero exponent and above it with every
    nonzero scalar, and three of several terms."""
    n = ring.nvars
    one_term = [ring.monomial(e, c) for e in ((0,) * n, (1,) * n, (3,) + (2,) * (n - 1))
                for c in scalars if not c.is_zero()]
    first, last = ring.var(0), ring.var(n - 1)
    return one_term + [one_term[1] + one_term[-1], first * last + ring.one().scale(scalars[3]),
                       (first + ring.const(2)) ** 3]


@pytest.mark.parametrize("nparams", [0, 1])
def test_constant_lanes_keep_the_generic_representation(nparams):
    """Products of one or more terms, scale and apply_sder store the keys,
    their order and each scalar's numerator and denominator that the
    generic code stores."""
    cases, scalars = _lane_cases(nparams)
    for delta, ring in cases:
        assert delta.leibniz and ring.nparams == nparams
        polys = _lane_polys(ring, scalars)
        for a in polys:
            for b in polys:
                assert _layout(a * b) == _layout(_generic_product(a, b))
            for s in scalars:
                assert _layout(a.scale(s)) == _layout(_generic_scale(a, s))
            assert _layout(apply_sder(delta, a)) == _layout(_generic_sder(delta, a))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_the_ring_unit_is_shared_and_left_intact(monkeypatch, name):
    built = []
    build = spbw.pipeline.build_presentation

    def capture(doc):
        built.append(build(doc))
        return built[-1]

    monkeypatch.setattr(spbw.pipeline, "build_presentation", capture)
    run_smooth(corpus_doc(name))
    (P,) = built
    ring = P.ring
    assert ring.one() is ring.one()
    unit = poly_one(ring.nparams)
    assert unit == {(0,) * ring.nparams: 1}
    ((e, s),) = ring.one().terms.items()
    assert e == (0,) * ring.nvars and s.num is unit and s.den is unit


# -- the identity, recognized by structure ------------------------------------------


def test_the_identity_sigma_of_jordan_substitutes_nothing(monkeypatch):
    P = build_presentation(corpus_doc("jordan"))
    sigma = P.sigma[0]
    assert sigma.is_identity
    t = P.ring.var(0)
    p = t * t * t + t.scale(P.ring.scalar(2))
    calls = []
    mul = CoeffPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(CoeffPoly, "__mul__", counted)
    assert apply_endo(sigma, p) is p
    assert not calls


def test_a_scale_of_one_that_is_not_the_literal_unit_is_substituted(ring_qt):
    # q/q has the value one, but its numerator and denominator are q
    q = ring_qt.param("q")
    sigma = CoeffEndo((ring_qt.var(0).scale(q * q.inverse()),))
    assert not sigma.is_identity
    t = ring_qt.var(0)
    image = apply_endo(sigma, (t * t).scale(ring_qt.scalar(3)))
    ((e, s),) = image.terms.items()
    assert e == (2,) and s.num == {(2,): Fraction(3)} and s.den == {(2,): Fraction(1)}
    assert not CoeffEndo((t + ring_qt.one(),)).is_identity
    assert CoeffEndo((t,)).is_identity


def test_a_value_equals_itself_without_comparing_its_terms(ring_qt, monkeypatch):
    p = ring_qt.var(0).scale(ring_qt.param("q")) + ring_qt.one()

    def refuse(a, b):
        raise AssertionError("compared a scalar")

    monkeypatch.setattr(Scalar, "__eq__", refuse)
    assert p == p


# -- delta(t^e) under an identity sigma ----------------------------------------------


def _sder_by_product_rule(delta, p):
    """delta(p) by the memoized twisted product rule, one variable of a
    monomial at a time from its first variable, as for a twist that is not
    the identity: ``delta(t_j * rest) = sigma(t_j) * delta(rest) +
    delta(t_j) * rest``."""
    memo = {}

    def on_monomial(e):
        if e not in memo:
            j = next((i for i, k in enumerate(e) if k), None)
            if j is None:
                memo[e] = p._make({})
            else:
                rest = tuple(k - (i == j) for i, k in enumerate(e))
                rest_poly = p._make({rest: Scalar.one(p.nparams)})
                memo[e] = delta.twist.images[j] * on_monomial(rest) + delta.images[j] * rest_poly
        return memo[e]

    acc = p._make({})
    for e, c in p.terms.items():
        acc = acc + on_monomial(e).scale(c)
    return acc


@st.composite
def _derivation_type_maps(draw):
    """A ring with 1-3 variables and 0-1 parameters, a twisted derivation
    with polynomial scalars (integers, halves, the parameter) and a
    polynomial of degree at most 4.  The twist is the identity, or one of
    a scaling, a swap of the first two variables and a shift, none of
    which is."""
    nparams, nvars = draw(st.integers(0, 1)), draw(st.integers(1, 3))
    ring = CoeffRing([f"q{i}" for i in range(nparams)], [f"t{j}" for j in range(nvars)])
    scalars = [ring.scalar(c) for c in (1, -1, 2, 3, Fraction(1, 2))]
    if nparams:
        q = ring.param("q0")
        scalars += [q, q * q + ring.scalar(1)]

    def poly(degree, max_terms):
        out = ring.zero()
        for _ in range(draw(st.integers(0, max_terms))):
            e = [draw(st.integers(0, degree)) for _ in range(nvars)]
            out = out + ring.monomial(e, draw(st.sampled_from(scalars)))
        return out

    variables = [ring.var(j) for j in range(nvars)]
    kind = draw(st.sampled_from(["identity"] * 3 + ["scaling", "swap", "shift"]))
    if kind == "scaling":
        variables[0] = variables[0].scale(ring.scalar(2))
    elif kind == "swap" and nvars > 1:
        variables[0], variables[1] = variables[1], variables[0]
    elif kind != "identity":
        variables[0] = variables[0] + ring.one()
    sigma = CoeffEndo(variables)
    delta = CoeffSigmaDerivation([poly(2, 2) for _ in range(nvars)], sigma)
    return ring, delta, poly(4, 3)


@settings(max_examples=200, deadline=None)
@given(_derivation_type_maps())
def test_the_closed_form_under_an_identity_sigma_matches_the_product_rule(case):
    """Under an identity sigma with polynomial scalars, ``delta(t^e) =
    sum_j e_j t^(e - e_j) delta(t_j)``, read without building a lower
    power, stores the fractions and renders as the product rule does; any
    other sigma keeps the product rule."""
    ring, delta, p = case
    assert delta.leibniz == delta.twist.is_identity
    got = apply_sder(delta, p)
    for want in (_sder_by_product_rule(delta, p), _sder_by_terms(delta, p)):
        assert _stored(got) == _stored(want)
        assert list(got.terms) == list(want.terms)  # the order later sums read
        assert ring.render(got) == ring.render(want)
    if delta.leibniz and not p.is_constant():
        # one memo entry per monomial of p: no lower power was built
        assert set(delta._memo) == set(p.terms)


def test_a_parameter_in_a_denominator_keeps_the_product_rule(ring_qt):
    """With ``delta(t1) = t1/q`` and ``delta(t2) = t2/(q + 1)`` the closed
    form would sum ``1/(q + 1) + 2/q``; the product rule sums ``(1/(q + 1) +
    1/q) + 1/q`` and keeps that unreduced fraction."""
    ring = CoeffRing(params=("q",), coeff_vars=("t1", "t2"))
    q, t1, t2 = ring.param("q"), ring.var(0), ring.var(1)
    delta = CoeffSigmaDerivation((t1.scale(q.inverse()), t2.scale((q + ring.sone()).inverse())), CoeffEndo((t1, t2)))
    assert delta.twist.is_identity and not delta.leibniz
    got = apply_sder(delta, t1 * t1 * t2)
    assert ring.render(got) == "(3*q^2 + 2*q)/(q^3 + q^2)*t1^2*t2"
    assert _stored(got) == {(2, 1): ({(2,): 3, (1,): 2}, {(3,): 1, (2,): 1})}
    assert _stored(got) == _stored(_sder_by_product_rule(delta, t1 * t1 * t2))


def test_a_sum_through_zero_keeps_the_order_of_the_product_rule():
    """``delta(t1) = t1*t2`` and ``delta(t2) = -t2^2`` give ``delta(t1^2 t2)
    = -t1^2 t2^2 + 2 t1^2 t2^2``: the product rule's sum at ``t1^2 t2^2``
    passes through zero and comes back after ``t1 t2^2``, and the closed
    form keeps that order."""
    ring = CoeffRing(coeff_vars=("t1", "t2"))
    t1, t2 = ring.var(0), ring.var(1)
    delta = CoeffSigmaDerivation((t1 * t2 + t2, -(t2 * t2)), CoeffEndo((t1, t2)))
    assert delta.leibniz
    p = t1 * t1 * t2
    got, want = apply_sder(delta, p), _sder_by_product_rule(delta, p)
    assert _stored(got) == _stored(want) and list(got.terms) == list(want.terms)


def test_the_jordan_delta_reads_each_power_alone(monkeypatch):
    """``delta(t^n) = n t^(n-1) delta(t)`` in the Jordan plane: no product of
    polynomials, and no memo entry for any power not asked for."""
    P = build_presentation(corpus_doc("jordan"))
    delta, t = P.delta[0], P.ring.var(0)
    assert delta.leibniz
    calls = []
    mul = CoeffPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(CoeffPoly, "__mul__", counted)
    power = t ** 12
    calls.clear()
    got = apply_sder(delta, power)
    assert not calls and list(delta._memo) == [(12,)]
    assert _stored(got) == _stored(P.ring.monomial((13,), 12))


def _audit_oracle(sigmas, deltas, endo=apply_endo, sder=apply_sder, skip_identity=False):
    """commutation_audit applying both maps of every pair to every
    variable, or, with ``skip_identity``, of every pair without an identity
    sigma."""
    variables = [_variable(img, j) for j, img in enumerate(sigmas[0].images)]

    def commute(f, a, g, b):
        if skip_identity and any(getattr(m, "is_identity", False) for m in (a, b)):
            return True
        return all(f(a, g(b, v)) == g(b, f(a, v)) for v in variables)

    n = len(sigmas)
    out = [("sigma-sigma", (i, j)) for i, j in combinations(range(n), 2)
           if not commute(endo, sigmas[i], endo, sigmas[j])]
    out += [("delta-delta", (i, j)) for i, j in combinations(range(n), 2)
            if not commute(sder, deltas[i], sder, deltas[j])]
    out += [("delta-sigma", (i, j)) for i, j in permutations(range(n), 2)
            if not commute(sder, deltas[i], endo, sigmas[j])]
    out += [("sigma-delta", i) for i in range(n) if not commute(endo, sigmas[i], sder, deltas[i])]
    return out


@st.composite
def _map_systems(draw):
    """1-3 (sigma, delta) pairs over the ring of :func:`_maps_and_polys`,
    each sigma the identity or random."""
    ring, _, _, _, _ = draw(_maps_and_polys())
    n = draw(st.integers(1, 3))

    def poly():
        out = ring.zero()
        for _ in range(draw(st.integers(0, 2))):
            out = out + ring.monomial([draw(st.integers(0, 2)) for _ in range(ring.nvars)],
                                      _draw_scalar(draw, ring))
        return out

    sigmas = [identity_endo(ring) if draw(st.booleans()) else CoeffEndo([poly() for _ in range(ring.nvars)])
              for _ in range(n)]
    deltas = [CoeffSigmaDerivation([poly() for _ in range(ring.nvars)], sigma) for sigma in sigmas]
    return sigmas, deltas


def _counting(counts, name, fn):
    """fn, counting its calls in ``counts[name]``; an identity map fails."""

    def counted(m, p):
        assert not getattr(m, "is_identity", False)
        counts[name] = counts.get(name, 0) + 1
        return fn(m, p)

    return counted


@settings(max_examples=100, deadline=None)
@given(_map_systems())
def test_commutation_audit_passes_an_identity_without_applying_it(case):
    """The audit lists what the oracle lists, and applies the maps of
    exactly the pairs without an identity sigma."""
    sigmas, deltas = case
    assert commutation_audit(sigmas, deltas) == _audit_oracle(sigmas, deltas)
    expected, counts = {}, {}
    _audit_oracle(sigmas, deltas, _counting(expected, "endo", apply_endo), _counting(expected, "sder", apply_sder),
                  skip_identity=True)
    spbw.coefficients.apply_endo = _counting(counts, "endo", apply_endo)
    spbw.coefficients.apply_sder = _counting(counts, "sder", apply_sder)
    try:
        commutation_audit(sigmas, deltas)
    finally:
        spbw.coefficients.apply_endo, spbw.coefficients.apply_sder = apply_endo, apply_sder
    assert counts == expected


def test_the_ring_zero_scalar_is_shared(ring_qt):
    zero = ring_qt.szero()
    assert ring_qt.szero() is zero and zero.is_zero() and zero == Scalar.const(1, 0)


# -- powers of a coefficient map past the recursion limit --------------------------

_DOUBLING = "name p\ncoeffs t\ngens x\nsigma x: t -> 2*t\n"


@pytest.mark.parametrize("with_delta", [False, True], ids=["sigma", "sigma-and-delta"])
def test_a_coefficient_map_power_past_the_recursion_limit(with_delta):
    # x t^k = sigma(t)^k x + delta(t^k) with sigma(t) = 2t; with delta(t) = 1,
    # delta(t^k) = 2t delta(t^(k-1)) + t^(k-1) = (2^k - 1) t^(k-1)
    doc = parse_presentation(_DOUBLING + ("delta x: t -> 1\n" if with_delta else ""))
    P = build_presentation(doc)
    assert P.render(parse_expression(doc, "x*t^3", P)) == ("8*t^3*x + 7*t^2" if with_delta else "8*t^3*x")
    k = 1500
    assert k > sys.getrecursionlimit()
    want = f"2^{k}*t^{k}*x" + (f" + (2^{k} - 1)*t^{k - 1}" if with_delta else "")
    assert parse_expression(doc, f"x*t^{k}", P) == parse_expression(doc, want, P)


def _endo_power_by_recursion(sigma, j, k, memo):
    if (j, k) not in memo:
        memo[(j, k)] = sigma.images[j] if k == 1 else _endo_power_by_recursion(sigma, j, k - 1, memo) * sigma.images[j]
    return memo[(j, k)]


def _sder_by_recursion(delta, e, ref, memo):
    if e not in memo:
        j = next((i for i, k in enumerate(e) if k), None)
        if j is None:
            memo[e] = ref._make({})
        else:
            rest = tuple(k - (i == j) for i, k in enumerate(e))
            rest_poly = ref._make({rest: Scalar.one(ref.nparams)})
            memo[e] = delta.twist.images[j] * _sder_by_recursion(delta, rest, ref, memo) + delta.images[j] * rest_poly
    return memo[e]


def test_the_power_memos_hold_what_the_recursion_held():
    """Filled upward in a loop, the memos of sigma powers and of the product
    rule hold the recursion's keys, in its order, with its stored fractions."""
    ring = CoeffRing(params=("q",), coeff_vars=("t1", "t2"))
    q, t1, t2 = ring.param("q"), ring.var(0), ring.var(1)
    sigma = CoeffEndo((t1.scale(q), t1 + t2.scale(q.inverse())))
    delta = CoeffSigmaDerivation((ring.one(), t1 * t1.scale(q)), sigma)
    assert not delta.leibniz
    endo_memo, sder_memo = {}, {}
    for e in ((2, 3), (4, 1), (0, 5), (4, 3)):
        p = ring.monomial(e)
        apply_endo(sigma, p)
        apply_sder(delta, p)
        for j, k in enumerate(e):
            if k:
                _endo_power_by_recursion(sigma, j, k, endo_memo)
        _sder_by_recursion(delta, e, p, sder_memo)
    assert list(sigma._memo) == list(endo_memo)
    assert list(delta._memo) == list(sder_memo)
    assert all(_stored(sigma._memo[key]) == _stored(endo_memo[key]) for key in endo_memo)
    assert all(_stored(delta._memo[key]) == _stored(sder_memo[key]) for key in sder_memo)
