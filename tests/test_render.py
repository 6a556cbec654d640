"""Exact rendered text: the canonical document form of every corpus entry,
and the human renderers of scalars, coefficients, elements and forms on
values with fractions, negative leading terms, monomial and multi-term
denominators, and coefficients that need parentheses."""

import pytest

from spbw.calculus import build_calculus
from spbw.coefficients import render_coeff
from spbw.corpus import CORPUS_NAMES, corpus_doc
from spbw.dsl import build_presentation, parse_presentation, render_presentation
from spbw.pipeline import calculus_spec_from_doc
from spbw.scalars import render_scalar

CORPUS_TEXT = {
    "poly2": "name poly2\ngens x1 x2\nrel x2 x1 = x1 x2\ncalculus mode=theorem\n",
    "poly3": (
        "name poly3\ngens x1 x2 x3\nrel x2 x1 = x1 x2\nrel x3 x1 = x1 x3\n"
        "rel x3 x2 = x2 x3\ncalculus mode=theorem\n"
    ),
    "weyl": "name weyl\ngens x1 x2\nrel x2 x1 = x1 x2 + (-1)\ncalculus mode=theorem\n",
    "un2": (
        "name un2\ngens x1 x2\nrel x2 x1 = x1 x2 + x1\ncalculus mode=flat\ndgens x1 x2\n"
        "twist x1: x2 -> x2 + 1\n"
    ),
    "qplane": (
        "name qplane\nparams q\ngens x1 x2\nrel x2 x1 = q * x1 x2\ncalculus mode=flat\n"
        "dgens x1 x2\ntwist x1: x2 -> q*x2\ntwist x2: x1 -> (1)*q^-1*x1\nwedge x1 x2 = q\n"
    ),
    "jordan": (
        "name jordan\ncoeffs t\ngens x\ndelta x: t -> t^2\ncalculus mode=flat\ndgens t x\n"
        "twist t: x -> x + 2*t\n"
    ),
    "qaffine3": (
        "name qaffine3\nparams q12 q13 q23\ngens x1 x2 x3\nrel x2 x1 = q12 * x1 x2\n"
        "rel x3 x1 = q13 * x1 x3\nrel x3 x2 = q23 * x2 x3\ncalculus mode=flat\n"
        "dgens x1 x2 x3\ntwist x1: x2 -> q12*x2, x3 -> q13*x3\n"
        "twist x2: x1 -> (1)*q12^-1*x1, x3 -> q23*x3\n"
        "twist x3: x1 -> (1)*q13^-1*x1, x2 -> (1)*q23^-1*x2\n"
        "wedge x1 x2 = q12\nwedge x1 x3 = q13\nwedge x2 x3 = q23\n"
    ),
    "aq": (
        "name aq\nparams s\ncoeffs x y\ngens z\nsigma z: x -> y, y -> s^2*x\ncalculus mode=flat\n"
        "dgens u v z\ndgen u = s*x + y\ndgen v = -s*x + y\ntwist u: z -> s*z\n"
        "twist v: z -> -s*z\ntwist z: x -> (1)*s^-2*y, y -> x\nwedge u z = s\nwedge v z = -s\n"
    ),
    "broken": (
        "name broken\ngens x1 x2 x3\nrel x2 x1 = x1 x2 + x3\nrel x3 x1 = x1 x3 + x1\n"
        "rel x3 x2 = x2 x3\n"
    ),
}

MIXED_SOURCE = """name mixed
params q
coeffs t u
gens x y
sigma x: t -> q^-1*t + 2^-1
delta y: u -> (q - 1)*t - 3*u
rel y x = (q + 1) * x y - 2^-1*t * y + (1 - t)
calculus mode=flat
dgens t u x y
twist x: y -> -2^-1*y
options conn_degree=7
"""

MIXED_TEXT = (
    "name mixed\nparams q\ncoeffs t u\ngens x y\nsigma x: t -> (1)*q^-1*t + 1*2^-1\n"
    "delta y: u -> (q - 1)*t - 3*u\nrel y x = (q + 1) * x y + -1*2^-1*t * y + (-t + 1)\n"
    "calculus mode=flat\ndgens t u x y\ntwist x: y -> -1*2^-1*y\noptions conn_degree=7\n"
)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_render_presentation_corpus(name):
    assert render_presentation(corpus_doc(name)) == CORPUS_TEXT[name]


def test_render_presentation_fractions_and_parameters():
    assert render_presentation(parse_presentation(MIXED_SOURCE)) == MIXED_TEXT


@pytest.fixture
def mixed():
    P = build_presentation(parse_presentation(MIXED_SOURCE))
    ring = P.ring
    q, one = ring.param("q"), ring.sone()
    half = one / ring.scalar(2)
    return P, q, one, half


def test_render_scalar(mixed):
    P, q, one, half = mixed
    params = P.ring.params
    assert render_scalar(half, params) == "1/2"
    assert render_scalar(-q + P.ring.scalar(3), params) == "-q + 3"
    assert render_scalar(q.inverse(), params) == "(1)/(q)"
    assert render_scalar((q - one).inverse(), params) == "(1)/(q - 1)"
    assert render_scalar((q + one) / (q - one), params) == "(q + 1)/(q - 1)"
    assert render_scalar((q * half - one) / (q * q), params) == "(1/2*q - 1)/(q^2)"
    assert render_scalar(P.ring.szero(), params) == "0"


def test_render_coeff(mixed):
    P, q, one, half = mixed
    ring = P.ring
    t, u = ring.var(0), ring.var(1)
    qm1 = q - one

    def r(c):
        return render_coeff(c, ring.params, ring.coeff_vars)

    assert r(t.scale(half) + ring.one()) == "1/2*t + 1"
    assert r(-(t * t) + u.scale(q)) == "-t^2 + q*u"
    assert r(t.scale(q.inverse()) - u) == "(1)/(q)*t - u"
    assert r(t.scale(qm1.inverse()) + ring.const(qm1.inverse())) == "(1)/(q - 1)*t + (1)/(q - 1)"
    assert r(t.scale(q + one) - (u * u).scale(qm1)) == "(-q + 1)*u^2 + (q + 1)*t"
    assert r(u.scale((q + one) / qm1)) == "(q + 1)/(q - 1)*u"
    assert r(ring.zero()) == "0"


def test_presentation_render(mixed):
    P, q, one, half = mixed
    ring = P.ring
    t, u = ring.var(0), ring.var(1)
    x, y = P.gen(0), P.gen(1)
    qm1 = q - one
    paren = t.scale(q + one) - (u * u).scale(qm1)
    ratio = u.scale((q + one) / qm1)
    assert P.render(x.scale(half) + P.one()) == "1/2*x + 1"
    assert P.render(-P.multiply(y, y) + P.multiply(x, y).scale(q)) == "q*x*y - y^2"
    assert P.render(P.from_coeff(t).scale(q.inverse()) - y) == "-y + (1)/(q)*t"
    assert P.render(P.multiply(P.from_coeff(t), x).scale(qm1.inverse())) == "((1)/(q - 1)*t)*x"
    assert P.render(P.multiply(P.from_coeff(paren), y)) == "((-q + 1)*u^2 + (q + 1)*t)*y"
    neg = -(t * t) + u.scale(q)
    assert (
        P.render(P.multiply(P.from_coeff(ratio), x) - P.from_coeff(neg))
        == "((q + 1)/(q - 1)*u)*x + t^2 - q*u"
    )
    assert P.render(P.multiply(y, P.multiply(x, P.from_coeff(t)))) == (
        "((q + 1)/(q)*t + 1/2*q + 1/2)*x*y + ((-1/2)/(q)*t^2 - 1/4*t)*y"
        " + (-1)/(q)*t^2 + (-1/2*q + 1)/(q)*t + 1/2"
    )
    assert P.render(P.zero()) == "0"


def test_render_form():
    doc = corpus_doc("aq")
    A = build_presentation(doc)
    calc = build_calculus(A, calculus_spec_from_doc(doc, A))
    s, one = A.ring.param("s"), A.ring.sone()
    half = one / A.ring.scalar(2)
    x, y = A.ring.var(0), A.ring.var(1)
    z = A.gen(0)
    f1 = A.multiply(A.from_coeff(x.scale(half) - y), z)
    f2 = A.multiply(z, A.from_coeff(x)).scale((s - one).inverse())
    f3 = -A.multiply(z, z) + A.from_coeff(y.scale(s.inverse()))
    assert calc.render_form(calc.d0(f1)) == (
        "d(u)*(((-2*s^5 + s^4)/(4*s^5))*z) + d(v)*(((-2*s^3 - s^2)/(4*s^3))*z)"
        " + d(z)*(-x + (1/2)/(s^2)*y)"
    )
    assert calc.render_form(calc.d0(f2)) == (
        "d(u)*(((s^2)/(2*s^3 - 2*s^2))*z) + d(v)*(((s)/(2*s^2 - 2*s))*z)"
        " + d(z)*((1)/(s - 1)*x)"
    )
    mixed = calc.form((0, 2), f3) + calc.form((1,), f2) - calc.form((), f1)
    assert calc.render_form(mixed) == (
        "1*((-1/2*x + y)*z) + d(v)*(((1)/(s - 1)*y)*z) + d(u)d(z)*(-z^2 + (1)/(s)*y)"
    )
    wedge = calc.wedge(calc.form((0,), f1), calc.form((2,), z))
    assert calc.render_form(wedge) == "d(u)d(z)*((-x + (1/2)/(s^2)*y)*z^2)"
    assert calc.render_form(calc.zero_form()) == "0"
