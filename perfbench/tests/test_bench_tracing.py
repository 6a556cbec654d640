"""The tracer patches every binding, restores it, and leaves outputs alone."""

import sys

import pytest

import spbw
from spbw import build_presentation, corpus_source, parse_presentation
from tracing import HOT, SPANS, Tracer


def _originals():
    out = {}
    for _, modname, clsname, attr in HOT + SPANS:
        owner = sys.modules[modname]
        if clsname is not None:
            owner = getattr(owner, clsname)
        out[(modname, clsname, attr)] = owner.__dict__[attr]
    return out


def _weyl_product():
    P = spbw.build_presentation(spbw.parse_presentation(corpus_source("weyl")))
    return P, P.multiply(P.monomial((0, 3)), P.monomial((3, 0)))


def test_tracing_counts_and_restores():
    before = _originals()
    P, plain = _weyl_product()
    tracer = Tracer()
    with tracer:
        assert spbw.core.apply_endo is not before[("spbw.coefficients", None, "apply_endo")]
        assert spbw.apply_endo is spbw.core.apply_endo is spbw.extended.apply_endo
        P2, traced = _weyl_product()
    assert _originals() == before
    assert spbw.core.apply_endo is spbw.apply_endo is before[("spbw.coefficients", None, "apply_endo")]
    assert P.render(plain) == P2.render(traced)
    m = tracer.metrics()
    assert m["core.multiply.calls"] >= 1 and m["dsl.parse_presentation.calls"] == 1
    assert m["coefficients.apply_endo.calls"] > 0 and m["scalars.mul.calls"] > 0
    assert m["core.multiply.terms_out"] >= len(traced.terms)
    assert m["scalars.mul.rational_share"] == 1.0  # weyl has no parameters
    assert m["calculus.d0.calls"] == 0
    assert all(m[f"{name}.self_s"] >= 0 for name, *_ in HOT)


def test_rational_share_counts_parametric_multiplies():
    P = spbw.build_presentation(spbw.parse_presentation(corpus_source("qplane")))
    tracer = Tracer()
    with tracer:
        P.multiply(P.monomial((0, 3)), P.monomial((3, 0)))
    assert 0.0 < tracer.metrics()["scalars.mul.rational_share"] < 1.0


def test_spans_nest_under_their_callers():
    tracer = Tracer()
    doc = parse_presentation(corpus_source("weyl"))
    calc_P = build_presentation(doc)
    with tracer:
        tracer.op = "weyl"
        spec = spbw.calculus.theorem_spec(calc_P)
        tracer.span("operation", spbw.build_calculus)(calc_P, spec).connectedness_check(2)
    names = {s["id"]: s for s in tracer.spans}
    conn = next(s for s in tracer.spans if s["name"] == "calculus.connectedness_check")
    kernels = [s for s in tracer.spans if s["name"] == "linalg.kernel_basis"]
    assert kernels and all(names[s["parent"]] is conn for s in kernels)
    assert all(s["op"] == "weyl" and s["end"] >= s["start"] for s in tracer.spans)
    build = next(s for s in tracer.spans if s["name"] == "calculus.build_calculus")
    assert names[build["parent"]]["name"] == "operation"


def test_a_binding_left_unpatched_fails_loudly():
    original = spbw.coefficients.apply_endo
    spbw.core.Presentation._stray = original  # a binding the patcher does not rewrite
    try:
        with pytest.raises(RuntimeError, match="Presentation._stray"):
            with Tracer():
                pass
        assert spbw.core.apply_endo is original  # restored after the failure
    finally:
        del spbw.core.Presentation._stray
