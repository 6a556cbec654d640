import pytest

from spbw.corpus import CORPUS_NAMES, corpus_doc, corpus_source
from spbw.dsl import (
    ParseError,
    build_presentation,
    parse_expression,
    parse_presentation,
    render_presentation,
)


def test_weyl_golden_parse():
    doc = corpus_doc("weyl")
    assert doc.name == "weyl"
    assert doc.gens == ("x1", "x2")
    rel = doc.relations[(0, 1)]
    ring = doc.ring()
    assert rel.d == ring.one()
    assert rel.r0 == ring.const(-1)
    assert all(rk.is_zero() for rk in rel.rk)
    assert doc.calculus.mode == "theorem"


def test_relation_order_diagnostic():
    src = "name bad\ngens x1 x2\nrel x1 x2 = x2 x1\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(src)
    assert err.value.code == "relation-order"
    assert err.value.line == 3


def test_undeclared_parameter_diagnostic():
    src = "name bad\ngens x1 x2\nrel x2 x1 = q * x1 x2\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(src)
    assert err.value.code == "undeclared-symbol"


def test_zero_d_diagnostic():
    src = "name bad\ngens x1 x2\nrel x2 x1 = 0 * x1 x2 + 1\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(src)
    assert err.value.code == "zero-d"


def test_missing_relation_diagnostic():
    src = "name bad\ngens x1 x2 x3\nrel x2 x1 = x1 x2\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(src)
    assert err.value.code == "missing-relation"


def test_invertible_keyword_rejected():
    src = "name bad\ngens x y\ninvertible z\nrel y x = x y\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(src)
    assert err.value.code == "laurent-unsupported"


def test_coefficient_after_generator_rejected():
    src = "name bad\ncoeffs t\ngens x1 x2\nrel x2 x1 = x1 x2 t\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(src)
    assert err.value.code == "coefficient-right-of-generator"


def test_negative_power_of_variable_rejected():
    src = "name bad\ncoeffs t\ngens x\nsigma x: t -> t^-1\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(src)
    assert err.value.code == "bad-inverse"


def test_multi_term_scalar_inverse_round_trip():
    src = "name inv\nparams q\ngens x1 x2\nrel x2 x1 = (q - 1)^-1 * x1 x2\n"
    doc = parse_presentation(src)
    ring = doc.ring()
    assert doc.relations[(0, 1)].d == ring.const((ring.param("q") - ring.sone()).inverse())
    assert parse_presentation(render_presentation(doc)) == doc


def test_unknown_option_diagnostic():
    src = "name bad\ngens x1 x2\nrel x2 x1 = x1 x2\noptions bogus=3\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(src)
    assert err.value.code == "unknown-option"


def test_theorem_mode_rejects_twist_lines():
    src = (
        "name bad\ngens x1 x2\nrel x2 x1 = x1 x2\n"
        "calculus mode=theorem\ndgens x1 x2\n"
    )
    with pytest.raises(ParseError) as err:
        parse_presentation(src)
    assert err.value.code == "theorem-mode-fixed"


def test_round_trip_all_corpus():
    for name in CORPUS_NAMES:
        doc = corpus_doc(name)
        text = render_presentation(doc)
        again = parse_presentation(text)
        assert again == doc, f"round trip failed for {name}"


def test_parse_expression_normalizes():
    doc = corpus_doc("weyl")
    P = build_presentation(doc)
    got = parse_expression(doc, "x2*x1*x1", P)
    assert P.render(got) == "x1^2*x2 - 2*x1"


def test_parse_expression_juxtaposition_and_powers():
    doc = corpus_doc("qplane")
    P = build_presentation(doc)
    got = parse_expression(doc, "x2^2 x1", P)
    assert P.render(got) == "q^2*x1*x2^2"


def test_sigma_images_parsed(capfd):
    doc = corpus_doc("aq")
    ring = doc.ring()
    s = ring.param("s")
    assert doc.sigma_images[0][0] == ring.var(1)               # x -> y
    assert doc.sigma_images[0][1] == ring.var(0).scale(s * s)  # y -> s^2 x


def test_corpus_sources_have_unix_endings():
    for name in CORPUS_NAMES:
        src = corpus_source(name)
        assert "\r" not in src
        assert src.endswith("\n")


def test_options_parsed():
    src = (
        "name opts\ngens x1 x2\nrel x2 x1 = x1 x2\n"
        "options seed=7 samples=10 gk_degree=9\n"
    )
    doc = parse_presentation(src)
    assert doc.options["seed"] == 7
    assert doc.options["samples"] == 10
    assert doc.options["gk_degree"] == 9
    assert doc.options["dsq_degree"] == 6  # default


def test_option_below_minimum_rejected():
    # with words of length 2 only, the overlap check could not see that
    # broken is inconsistent
    src = corpus_source("broken") + "options pbw_degree=2\n"
    with pytest.raises(ParseError) as info:
        parse_presentation(src)
    assert info.value.code == "option-range"
    assert info.value.line == len(src.splitlines())
