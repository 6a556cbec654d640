import pytest

from spbw.corpus import CORPUS_NAMES, corpus_doc, corpus_source
from spbw.dsl import (
    ParseError,
    build_presentation,
    parse_expression,
    parse_presentation,
    render_presentation,
)
from spbw.pipeline import run_smooth


def test_weyl_golden_parse():
    doc = corpus_doc("weyl")
    assert doc.name == "weyl"
    assert doc.gens == ("x1", "x2")
    ring = doc.ring()
    assert build_presentation(doc).tails == {(0, 1): ((ring.one(), (0, 1)), (ring.const(-1), ()))}
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
    assert build_presentation(doc).tails[(0, 1)] == ((ring.const((ring.param("q") - ring.sone()).inverse()), (0, 1)),)
    assert parse_presentation(render_presentation(doc)) == doc


@pytest.mark.parametrize("isigma", ["t -> t", "t -> 3*t", "t -> 2^-1*t"])
def test_claimed_inverse_of_diagonal_sigma_round_trip(isigma):
    # a claimed inverse survives rendering, whether or not it equals the
    # mechanical one (t -> 2^-1*t); a wrong one must not reparse to a
    # document that builds
    doc = parse_presentation(f"name bad\ncoeffs t\ngens x\nsigma x: t -> 2*t\nisigma x: {isigma}\n")
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


JORDAN_ITWIST = corpus_source("jordan") + "itwist t: x -> x - 2*t\n"


def test_claimed_twist_inverse_renders_and_round_trips():
    doc = parse_presentation(JORDAN_ITWIST)
    text = render_presentation(doc)
    assert "twist t: x -> x + 2*t\nitwist t: x -> x - 2*t\n" in text
    assert parse_presentation(text) == doc


@pytest.mark.parametrize("images", ["x -> x", "t -> t, x -> x"])
def test_a_claimed_twist_inverse_at_its_defaults_round_trips(images):
    # an itwist line claims the inverse even when every image is the
    # identity, so the writer keeps the line
    doc = parse_presentation(f"name d\ncoeffs t\ngens x\ncalculus mode=flat\ndgens t x\nitwist x: {images}\n")
    text = render_presentation(doc)
    assert "itwist x: t -> t\n" in text
    assert parse_presentation(text) == doc


def test_claimed_twist_inverse_gives_the_derived_report():
    derived = run_smooth(corpus_doc("jordan")).to_json(zero_timing=True)
    assert run_smooth(parse_presentation(JORDAN_ITWIST)).to_json(zero_timing=True) == derived


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


def test_negative_option_values():
    src = "name opts\ngens x\noptions seed=-3\n"
    doc = parse_presentation(src)
    assert doc.options["seed"] == -3
    assert render_presentation(doc) == src
    assert parse_presentation(render_presentation(doc)) == doc
    with pytest.raises(ParseError) as info:
        parse_presentation("name opts\ngens x\noptions conn_degree=-1\n")
    assert info.value.code == "option-range"


def test_option_below_minimum_rejected():
    # the overlap check walks its words at length 3 whatever pbw_degree
    # says; the floor stays so that the documents accepted today still are
    src = corpus_source("broken") + "options pbw_degree=2\n"
    with pytest.raises(ParseError) as info:
        parse_presentation(src)
    assert info.value.code == "option-range"
    assert info.value.line == len(src.splitlines())


# -- every diagnostic, pinned ----------------------------------------------------
#
# One single-fault document per ParseError code (and per distinct way of
# raising it), with the code, line and column the parser reports.

_POLY = "name d\nparams q\ncoeffs t\ngens x1 x2\nrel x2 x1 = x1 x2\n"  # 5 lines
_ORE = "name d\ncoeffs t\ngens x\n"  # 3 lines
_FLAT = "name d\nparams q\ngens x1 x2\nrel x2 x1 = q * x1 x2\ncalculus mode=flat\ndgens x1 x2\n"  # 6 lines

DIAGNOSTICS = [
    pytest.param(_ORE + "sigma x: t -> t $\n", ("bad-token", 4, 17), id="bad-token"),
    pytest.param(_ORE + "sigmas x: t -> t\n", ("unknown-keyword", 4, 1), id="unknown-keyword"),
    pytest.param(_ORE + "sigma x: t ->\n", ("unexpected-eol", 4, 0), id="unexpected-eol"),
    pytest.param("name\ngens x\n", ("expected-ident", 1, 0), id="expected-ident"),
    pytest.param(_ORE + "sigma x: t -> t^ t\n", ("expected-int", 4, 18), id="expected-int"),
    pytest.param(_ORE + "sigma x: t t\n", ("expected-arrow", 4, 12), id="expected-arrow"),
    pytest.param(_ORE + "sigma x: t -> (t + 1\n", ("expected-)", 4, 0), id="expected-paren"),
    pytest.param(_ORE + "sigma x: t -> t = 1\n", ("expected-,", 4, 17), id="expected-comma"),
    pytest.param(_ORE + "sigma x t -> t\n", ("expected-:", 4, 9), id="expected-colon"),
    pytest.param("name d\ngens x1 x2\nrel x2 x1 x1 x2\n", ("expected-=", 3, 11), id="expected-equals"),
    pytest.param(_POLY + "calculus kind=flat\n", ("expected-mode", 6, 10), id="expected-mode"),
    pytest.param("name d\ngens x 3\n", ("expected-name", 2, 8), id="expected-name"),
    pytest.param("name d\ngens\n", ("expected-name", 2, 0), id="expected-name-empty"),
    pytest.param(_ORE + "sigma x: t -> t + )\n", ("bad-expression", 4, 19), id="bad-expression"),
    pytest.param(_ORE + "sigma x: t -> t^-1\n", ("bad-inverse", 4, 18), id="bad-inverse"),
    pytest.param(
        _ORE + "sigma x: t -> 2*t\nisigma x: t -> t\ncalculus mode=flat\ndgens t x\n",
        ("bad-inverse", 0, 0), id="bad-inverse-isigma",
    ),
    pytest.param(_POLY + "calculus mode=smooth\n", ("bad-mode", 6, 15), id="bad-mode"),
    pytest.param(_FLAT + "wedge x1 x2 = q - q\n", ("bad-wedge", 7, 0), id="bad-wedge"),
    pytest.param(
        "name d\ncoeffs t\ngens x1 x2\nrel x2 x1 = x1 t x2\n",
        ("coefficient-right-of-generator", 4, 0), id="coefficient-right-of-generator",
    ),
    pytest.param(_ORE + "sigma x: t -> (1 - 1)^-1 t\n", ("division-by-zero", 4, 24), id="division-by-zero"),
    pytest.param(_ORE + "sigma x: t -> (t - t)^-1\n", ("division-by-zero", 4, 24), id="zero-inverse"),
    pytest.param(_POLY + "name e\n", ("duplicate-block", 6, 0), id="duplicate-block-name"),
    pytest.param(_FLAT + "calculus mode=flat\n", ("duplicate-block", 7, 0), id="duplicate-block-calculus"),
    pytest.param(_ORE + "sigma x: t -> t, t -> 2*t\n", ("duplicate-image", 4, 18), id="duplicate-image"),
    pytest.param(_FLAT + "dgen x1 = x1\n", ("duplicate-image", 7, 0), id="duplicate-image-dgen"),
    pytest.param(
        _FLAT + "twist x1: x2 -> q*x2\ntwist x1: x2 -> x2\n",
        ("duplicate-image", 8, 11), id="duplicate-image-twist",
    ),
    pytest.param(_POLY + "rel x2 x1 = x1 x2\n", ("duplicate-relation", 6, 0), id="duplicate-relation"),
    pytest.param(
        _FLAT[:-len("x1 x2\n")] + "u x2\ndgen u = x1\ndgen u = y\n",
        ("duplicate-dgen", 8, 0), id="duplicate-dgen",
    ),
    pytest.param(_FLAT + "wedge x1 x2 = q\nwedge x1 x2 = y\n", ("duplicate-wedge", 8, 0), id="duplicate-wedge"),
    pytest.param(_POLY + "coeffs q\n", ("duplicate-symbol", 6, 0), id="duplicate-symbol"),
    pytest.param(_FLAT + "dgens x1\n", ("duplicate-symbol", 7, 0), id="duplicate-symbol-dgens"),
    pytest.param(_FLAT[:-len("x1 x2\n")] + "q x2\ndgen q = x1\n", ("duplicate-symbol", 6, 0),
                 id="duplicate-symbol-param-dgen"),
    pytest.param("name d\ndgens u x2\ngens x1 x2\nrel x2 x1 = x1 x2\ncalculus mode=flat\nparams u\n",
                 ("duplicate-symbol", 6, 0), id="duplicate-symbol-dgen-param"),
    pytest.param(_ORE + "sigma x: t -> x\n", ("generator-in-coefficient", 4, 0), id="generator-in-coefficient"),
    pytest.param(_POLY + "invertible x1\n", ("laurent-unsupported", 6, 1), id="laurent-unsupported"),
    pytest.param("name d\ngens x invertible\n", ("laurent-unsupported", 2, 8), id="laurent-unsupported-name"),
    pytest.param(_POLY + "dgens x1 x2\n", ("missing-block", 0, 0), id="missing-block"),
    pytest.param(_FLAT[:-len("x1 x2\n")] + "u x2\n", ("missing-dgen", 0, 0), id="missing-dgen"),
    pytest.param(_POLY + "calculus mode=flat\n", ("missing-dgens", 0, 0), id="missing-dgens"),
    pytest.param("name d\n", ("missing-gens", 0, 0), id="missing-gens"),
    pytest.param("gens x\n", ("missing-name", 0, 0), id="missing-name"),
    pytest.param("name d\ngens x1 x2 x3\nrel x2 x1 = x1 x2\nrel x3 x1 = x1 x3\n",
                 ("missing-relation", 0, 0), id="missing-relation"),
    pytest.param(_POLY + "options samples=0\n", ("option-range", 6, 9), id="option-range"),
    pytest.param("name d\ngens x1 x2\nrel x1 x2 = x1 x2\n", ("relation-order", 3, 5), id="relation-order"),
    pytest.param("name d\ngens x1 x2\nrel x2 x1 = x2 x1\n", ("tail-shape", 3, 0), id="tail-shape-pair"),
    pytest.param("name d\ngens x1 x2\nrel x2 x1 = x1 x2 + x1^3\n", ("tail-shape", 3, 0), id="tail-shape-degree"),
    pytest.param(_POLY + "calculus mode=theorem\ndgens x1 x2\n", ("theorem-mode-fixed", 0, 0),
                 id="theorem-mode-fixed"),
    pytest.param(_ORE + "sigma x: t -> t )\n", ("expected-,", 4, 17), id="trailing-map"),
    pytest.param("name d\ngens x1 x2\nrel x2 x1 = x1 x2 )\n", ("trailing-input", 3, 19), id="trailing-input"),
    pytest.param("name d\ngens x1 x2\nrel x2 x1 = q x1 x2\n", ("undeclared-symbol", 3, 13),
                 id="undeclared-symbol"),
    pytest.param("name d\ngens x1 x2\nrel x3 x1 = x1 x2\n", ("undeclared-symbol", 3, 5), id="undeclared-rel-gen"),
    pytest.param(_ORE + "sigma y: t -> t\n", ("undeclared-symbol", 4, 7), id="undeclared-owner"),
    pytest.param(_ORE + "sigma x: s -> t\n", ("undeclared-symbol", 4, 10), id="undeclared-image-var"),
    pytest.param(_FLAT + "dgen u = x1\n", ("undeclared-symbol", 7, 6), id="undeclared-dgen"),
    pytest.param(_FLAT + "wedge x1 x2 = x1\n", ("undeclared-symbol", 7, 15), id="undeclared-in-wedge"),
    pytest.param(_FLAT + "twist x1: y -> x2\n", ("undeclared-symbol", 7, 11), id="undeclared-twist-var"),
    pytest.param(_POLY + "options bogus=1\n", ("unknown-option", 6, 9), id="unknown-option"),
    pytest.param(_FLAT + "wedge x2 x1 = q\n", ("wedge-order", 7, 0), id="wedge-order"),
    pytest.param("name d\ngens x1 x2\nrel x2 x1 = 0 * x1 x2 + 1\n", ("zero-d", 3, 0), id="zero-d"),
    pytest.param(_POLY + "options seed=1 seed=2\n", ("duplicate-option", 6, 16), id="duplicate-option"),
    pytest.param(_ORE + "sigma x: t -> " + "(" * 2000 + "t" + ")" * 2000 + "\n", ("too-deep", 4, 0),
                 id="too-deep"),
]


@pytest.mark.parametrize("source, want", DIAGNOSTICS)
def test_every_diagnostic_pinned(source, want):
    with pytest.raises(ParseError) as err:
        parse_presentation(source)
    assert (err.value.code, err.value.line, err.value.col) == want


@pytest.mark.parametrize("source, kind, where", [
    pytest.param("name d\ncoeffs t\ngens x\ncalculus mode=flat\ndgens t x\nwedge t x = t\n",
                 "'t' is a coefficient variable", (6, 13), id="coefficient-variable"),
    pytest.param(_FLAT + "wedge x1 x2 = x1\n", "'x1' is a generator", (7, 15), id="generator"),
    pytest.param(_FLAT[:-len("x1 x2\n")] + "u x2\ndgen u = x1\nwedge u x2 = u\n", "'u' is a dgen", (8, 14),
                 id="dgen"),
])
def test_a_wedge_constant_naming_a_declared_symbol_names_its_kind(source, kind, where):
    with pytest.raises(ParseError) as err:
        parse_presentation(source)
    assert (err.value.code, err.value.line, err.value.col) == ("undeclared-symbol",) + where
    assert str(err.value) == (
        f"line {where[0]}, column {where[1]}: a wedge constant is a scalar in the parameters, and {kind}"
        " [undeclared-symbol]"
    )


def test_an_undeclared_name_in_a_wedge_constant_is_undeclared():
    with pytest.raises(ParseError) as err:
        parse_presentation(_FLAT + "wedge x1 x2 = y\n")
    assert str(err.value) == "line 7, column 15: undeclared symbol 'y' [undeclared-symbol]"


_AQ_TRAILING = corpus_source("aq").replace("wedge u z = s\n", "wedge u z = s ) ) x\n")


@pytest.mark.parametrize("source, want", [
    pytest.param("name d extra\ngens x\n", ("trailing-input", 1, 8), id="name"),
    pytest.param(_POLY + "calculus mode=theorem extra\n", ("trailing-input", 6, 23), id="calculus"),
    pytest.param(_FLAT[:-len("x1 x2\n")] + "u x2\ndgen u = x1 )\n", ("trailing-input", 7, 13), id="dgen"),
    pytest.param(_AQ_TRAILING, ("trailing-input", 21, 15), id="wedge"),
])
def test_trailing_input_rejected_on_every_directive(source, want):
    with pytest.raises(ParseError) as err:
        parse_presentation(source)
    assert (err.value.code, err.value.line, err.value.col) == want


def test_declarations_may_follow_their_use():
    # The scalars of a relation's tails once took the parameter count of the
    # lines above them, which turned this document's verdict into a false
    # not-certified.
    early = "name late\nparams q\ngens x1 x2\nrel x2 x1 = x1 x2\ncalculus mode=theorem\n"
    late = "name late\ngens x1 x2\nrel x2 x1 = x1 x2\nparams q\ncalculus mode=theorem\n"
    docs = [parse_presentation(early), parse_presentation(late)]
    assert docs[0] == docs[1]
    assert [run_smooth(doc).verdict for doc in docs] == ["certified-smooth"] * 2


def test_symbol_used_before_its_declaration():
    doc = parse_presentation("name d\nsigma x: t -> q*t\nrel x2 x = q x x2\ngens x x2\ncoeffs t\nparams q\n")
    ring = doc.ring()
    assert doc.sigma_images[0] == (ring.var(0).scale(ring.param("q")),)
    assert build_presentation(doc).tails[(0, 1)] == ((ring.const(ring.param("q")), (0, 1)),)


def test_render_does_not_build_claimed_inverses():
    # the relation lines are rendered from the document's tails, with no
    # presentation built, so a wrong claimed inverse, which only fails when
    # the algebra is built, does not stop them
    doc = parse_presentation(
        "name bad\ncoeffs t\ngens x1 x2\nsigma x1: t -> 2*t\nisigma x1: t -> t\nrel x2 x1 = x1 x2 + t\n"
    )
    assert "rel x2 x1 = x1 x2 + t\n" in render_presentation(doc)


# -- the kind table ------------------------------------------------------------------
#
# Every declared name has one kind: parameter, coefficient variable,
# generator, or dgen (a name listed on a ``dgens`` line and declared nowhere
# else).  Each expression resolves its names through that table.

_U = "name d\ncoeffs t\ngens x1 x2\nrel x2 x1 = x1 x2\ncalculus mode=flat\ndgens u t x2\ndgen u = x1\n"  # 7 lines
_IN_A_COEFFICIENT = "a coefficient is a polynomial in the coefficient variables, and 'u' is a dgen"
_IN_AN_ELEMENT = "an element of the algebra is written in its symbols, and 'u' is a dgen"


@pytest.mark.parametrize("line, where, message", [
    pytest.param("sigma x1: t -> 2*u", (8, 18), _IN_A_COEFFICIENT, id="sigma"),
    pytest.param("delta x1: t -> u", (8, 16), _IN_A_COEFFICIENT, id="delta"),
    pytest.param("isigma x1: t -> u", (8, 17), _IN_A_COEFFICIENT, id="isigma"),
    pytest.param("twist x2: x1 -> u", (8, 17), _IN_AN_ELEMENT, id="twist"),
    pytest.param("itwist x2: x1 -> u", (8, 18), _IN_AN_ELEMENT, id="itwist"),
    pytest.param("rel x2 x1 = x1 x2 + u", (4, 21), _IN_AN_ELEMENT, id="rel"),
])
def test_a_dgen_in_an_image_is_named_as_a_dgen(line, where, message):
    source = _U.replace("rel x2 x1 = x1 x2\n", line + "\n") if line.startswith("rel") else _U + line + "\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(source)
    assert str(err.value) == f"line {where[0]}, column {where[1]}: {message} [undeclared-symbol]"


def test_a_dgen_in_a_dgen_line_or_an_expression_is_named_as_a_dgen():
    with pytest.raises(ParseError) as err:
        parse_presentation(_U.replace("dgens u t x2", "dgens u v t x2") + "dgen v = x1 + u\n")
    assert str(err.value) == f"line 8, column 15: {_IN_AN_ELEMENT} [undeclared-symbol]"
    with pytest.raises(ParseError) as err:
        parse_expression(parse_presentation(_U), "x1*u")
    assert str(err.value) == f"line 1, column 4: {_IN_AN_ELEMENT} [undeclared-symbol]"


@pytest.mark.parametrize("name", [n for n in CORPUS_NAMES if "\ndgens " in corpus_source(n)])
def test_a_dgens_line_may_come_before_the_symbols_it_names(name):
    lines = corpus_source(name).splitlines(keepends=True)
    dgens = next(line for line in lines if line.startswith("dgens "))
    first = [dgens] + [line for line in lines if line is not dgens]
    assert parse_presentation("".join(first)) == parse_presentation(corpus_source(name))


@pytest.mark.parametrize("dgens", ["x1 x2", "x2 x1"])
def test_dgens_above_gens_certifies_like_gens_above_dgens(dgens):
    # the generators keep the order of the gens line whatever the dgens line says
    below = f"name o\ngens x1 x2\nrel x2 x1 = x1 x2\ncalculus mode=flat\ndgens {dgens}\n"
    above = f"name o\ndgens {dgens}\nrel x2 x1 = x1 x2\ncalculus mode=flat\ngens x1 x2\n"
    docs = [parse_presentation(below), parse_presentation(above)]
    assert docs[0] == docs[1]
    assert render_presentation(docs[1]) == below
    assert [run_smooth(doc).verdict for doc in docs] == ["certified-smooth"] * 2


def test_a_name_repeated_on_one_dgens_line_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_presentation("name d\ngens x\ncalculus mode=flat\ndgens x x\n")
    assert str(err.value) == "line 4, column 0: dgen 'x' repeated [duplicate-symbol]"


# -- input nested past the interpreter's stack ---------------------------------------


_WEYL = corpus_doc("weyl")


@pytest.mark.parametrize("expr", [
    pytest.param("(" * 3000 + "x1" + ")" * 3000, id="parentheses"),
    pytest.param("-" * 5000 + "x1", id="unary-minus"),
])
def test_an_expression_nested_too_deeply_is_a_parse_error(expr):
    with pytest.raises(ParseError) as err:
        parse_expression(_WEYL, expr)
    assert str(err.value) == "line 1, column 0: expression nested too deeply [too-deep]"


def test_a_twist_nested_too_deeply_is_a_parse_error():
    source = "name d\ngens x\ncalculus mode=flat\ndgens x\ntwist x: x -> " + "(" * 2000 + "x" + ")" * 2000 + "\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(source)
    assert str(err.value) == "line 5, column 0: expression nested too deeply [too-deep]"


def test_a_hundred_nested_parentheses_still_parse():
    assert parse_expression(_WEYL, "(" * 100 + "x1" + ")" * 100) == parse_expression(_WEYL, "x1")
    assert parse_expression(_WEYL, "-" * 100 + "x1") == parse_expression(_WEYL, "x1")


# -- options ------------------------------------------------------------------------


def test_an_option_set_twice_is_rejected_on_one_line_or_two():
    with pytest.raises(ParseError) as err:
        parse_presentation(_POLY + "options seed=1 samples=3 seed=2\n")
    assert str(err.value) == "line 6, column 26: option 'seed' set twice [duplicate-option]"
    with pytest.raises(ParseError) as err:
        parse_presentation(_POLY + "options seed=1\noptions samples=3 seed=1\n")
    assert str(err.value) == "line 7, column 19: option 'seed' set twice [duplicate-option]"
