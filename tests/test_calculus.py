import random
import sys
import time
import tracemalloc
from dataclasses import replace
from itertools import combinations, product

import pytest
import sympy

import spbw.calculus
import spbw.pipeline
from spbw.calculus import (
    THEOREM_MODE,
    Calculus,
    CalculusSpec,
    DGen,
    DiffForm,
    build_calculus,
    theorem_spec,
)
from spbw.coefficients import CoeffRing, commutation_audit
from spbw.core import exponents_upto
from spbw.corpus import CORPUS_NAMES, corpus_doc, corpus_source
from spbw.dsl import build_presentation, parse_presentation
from spbw.errors import CompatibilityError, ConfigError, MapError, NotAVolumeFormError
from spbw.extended import AlgebraEndo, auto_inverse, extend_sigma, hypothesis_check
from spbw.ore import ore_document
from spbw.pipeline import calculus_spec_from_doc, run_calculus_check, run_smooth
from spbw.scalars import Scalar

from conftest import (
    UN2_PRODUCT_DOCS,
    WIDE_DOCS,
    IntegralForm,
    Transport,
    algebra_identity,
    compose,
    d_respects_relations,
    d_word_by_positions,
    grid,
    grid_member,
    random_skew,
    right_multiply,
    sweep_texts,
    without_wedge,
)

CERTIFIED = tuple(n for n in CORPUS_NAMES if n != "broken")


def make_twist(P, images):
    inv = auto_inverse(P, images)
    assert inv is not None, "test twist should invert mechanically"
    return AlgebraEndo(P, images, inverse=AlgebraEndo(P, inv, check=False))


def jordan_flat_spec(P):
    t_sk = P.from_coeff(P.ring.var(0))
    two_t = t_sk.scale(P.ring.scalar(2))
    nu_t = make_twist(P, (t_sk, P.gen(0) + two_t))
    nu_x = algebra_identity(P)
    return CalculusSpec(
        dgens=[DGen("t", t_sk, nu_t), DGen("x", P.gen(0), nu_x)],
        wedge_signs={},
    )


def qplane_flat_spec(P):
    q = P.ring.param("q")
    nu1 = make_twist(P, (P.gen(0), P.gen(1).scale(q)))
    nu2 = make_twist(P, (P.gen(0).scale(q.inverse()), P.gen(1)))
    return CalculusSpec(
        dgens=[DGen("x1", P.gen(0), nu1), DGen("x2", P.gen(1), nu2)],
        wedge_signs={(0, 1): q},
    )


def _counting(obj, calls):
    """Shadow the methods of one object named by the keys of ``calls`` with
    wrappers that count their calls there."""
    for attr in calls:
        def counted(*args, _method=getattr(obj, attr), _attr=attr):
            calls[_attr] += 1
            return _method(*args)
        setattr(obj, attr, counted)


@pytest.fixture
def weyl_calc(weyl):
    return build_calculus(weyl, theorem_spec(weyl))


@pytest.fixture
def poly2_calc(poly2):
    return build_calculus(poly2, theorem_spec(poly2))


@pytest.fixture
def jordan_calc(jordan):
    return build_calculus(jordan, jordan_flat_spec(jordan))


@pytest.fixture
def qplane_calc(qplane):
    return build_calculus(qplane, qplane_flat_spec(qplane))


# -- construction and compatibility ------------------------------------------


def test_weyl_theorem_mode_compatible(weyl_calc):
    assert d_respects_relations(weyl_calc)


def test_jordan_flat_mode_compatible(jordan_calc):
    assert d_respects_relations(jordan_calc)


def test_qplane_flat_mode_compatible(qplane_calc):
    assert d_respects_relations(qplane_calc)


def _residual_by_forms(P, spec):
    """``(label, text)`` of the first relation d breaks, or None: the
    residual ``form(step) - d0(normal)`` by DiffForm arithmetic, the word
    side the one product-rule step of the relation word, rendered by
    ``render_form``."""
    calc = Calculus(P, spec)
    calc._build_dcoords()
    for label, (a, b), normal in P.defining_relations():
        rest = tuple(int(k == b) for k in range(calc.nsyms))
        residual = calc._form(calc._d_step(a, rest, calc._d_monomial(rest))) - calc.d0(normal)
        if not residual.is_zero():
            return label, calc.render_form(residual)
    return None


def _assert_residual_is_the_forms(P, spec):
    """``build_calculus`` fails with the relation and the residual text of
    :func:`_residual_by_forms`; returns the error."""
    with pytest.raises(CompatibilityError) as err:
        build_calculus(P, spec)
    label, text = _residual_by_forms(P, spec)
    assert (err.value.relation, err.value.residual) == (label, text)
    assert str(err.value) == f"differential is incompatible with relation {label}; residual {text}"
    return err.value


def test_wrong_twist_reported_with_relation(qplane):
    # identity twists cannot absorb the q in x2 x1 = q x1 x2
    spec = CalculusSpec(
        dgens=[
            DGen("x1", qplane.gen(0), algebra_identity(qplane)),
            DGen("x2", qplane.gen(1), algebra_identity(qplane)),
        ]
    )
    assert "x2*x1" in str(_assert_residual_is_the_forms(qplane, spec))


@pytest.mark.parametrize("dgen, symbol, relation, residual", [
    (2, 3, "x2*x1", "d(x1)*(x2)"),
    (2, 0, "x1*t1", "d(x1)*(-t1)"),
    (0, 1, "t2*t1", "d(t1)*(t2)"),
], ids=["generator-pair", "generator-variable", "variable-pair"])
def test_differential_breaking_one_relation_names_it(dgen, symbol, relation, residual):
    """Identity twists give the de Rham calculus of F[t1, t2][x1, x2]; the
    twist of d(a) that doubles the symbol b breaks exactly the relation
    between a and b, with residual d(word) - d(normal form)."""
    P = build_presentation(parse_presentation("name p\ncoeffs t1 t2\ngens x1 x2\nrel x2 x1 = x1 x2\n"))
    dgens = []
    for k, potential in enumerate(P.frame()):
        images = list(P.frame())
        if k == dgen:
            images[symbol] = images[symbol] + images[symbol]
        dgens.append(DGen(P.symbol_name(k), potential, make_twist(P, images)))
    err = _assert_residual_is_the_forms(P, CalculusSpec(dgens=dgens))
    assert str(err) == f"differential is incompatible with relation {relation}; residual {residual}"
    assert (err.relation, err.residual) == (relation, residual)


QPLANE_PROBE = """name qprobe
params q
gens x1 x2
rel x2 x1 = q * x1 x2
calculus mode=flat
dgens x1 x2
twist x1: x2 -> q^-1*x2
"""


def test_parametric_residual_keeps_its_unreduced_fraction():
    # The x2 twist is left the identity, so d(x2 x1) = d(x2) x1 + d(x1) x2/q
    # misses d(q x1 x2) on both coordinates.  The word side is one step of
    # the product rule from d(x1), and the residual renders its fractions as
    # they were summed, unreduced.
    doc = parse_presentation(QPLANE_PROBE)
    P = build_presentation(doc)
    err = _assert_residual_is_the_forms(P, calculus_spec_from_doc(doc, P))
    residual = "d(x1)*(((-q^2 + 1)/(q))*x2) + d(x2)*((-q + 1)*x1)"
    assert (err.relation, err.residual) == ("x2*x1", residual)


def _sweep_specs():
    """``(P, spec)`` for each sweep text: its own calculus block when its
    twists respect the relations (72 texts), and always its potentials
    with identity twists in flat mode, a candidate most of them fail."""
    for _, text in sweep_texts():
        doc = parse_presentation(text)
        P = build_presentation(doc)
        try:
            yield P, calculus_spec_from_doc(doc, P)
        except MapError:
            pass
        if doc.calculus.mode == THEOREM_MODE:
            potentials = [(name, P.gen(i)) for i, name in enumerate(P.names)]
        else:
            potentials = [(name, doc.calculus.potentials[name]) for name in doc.calculus.dgen_names]
        yield P, CalculusSpec(dgens=[DGen(name, f, algebra_identity(P)) for name, f in potentials])


def test_compatibility_residual_is_the_form_difference_on_the_sweep():
    """On every sweep calculus, and on the sweep's potentials with identity
    twists, d either respects every relation or names the relation and
    residual that the form difference gives first.  No sweep text fails
    compatibility in d: the 136 that fail do so on a twist that breaks a
    relation (``MapError``), before d is tried.  The 84 compatible specs
    are the 72 sweep calculi and 12 identity-twist candidates."""
    outcomes = {"compatible": 0, "incompatible": 0}
    for P, spec in _sweep_specs():
        if _residual_by_forms(P, spec) is None:
            build_calculus(P, spec)
            outcomes["compatible"] += 1
        else:
            _assert_residual_is_the_forms(P, spec)
            outcomes["incompatible"] += 1
    assert outcomes == {"compatible": 84, "incompatible": 196}


def test_theorem_mode_requires_trivial_relations(qplane):
    with pytest.raises(ConfigError):
        build_calculus(qplane, theorem_spec(qplane))


def test_theorem_mode_differentiates_exactly_the_generators():
    # jordan passes the plain-twist hypotheses, so the guard that follows
    # them sees dt beside dx
    P = build_presentation(corpus_doc("jordan"))
    identity = algebra_identity(P)
    spec = CalculusSpec(dgens=[DGen("t", P.symbol(0), identity), DGen("x", P.symbol(1), identity)],
                        mode=THEOREM_MODE)
    with pytest.raises(ConfigError, match="^plain-twist mode differentiates exactly the generators$"):
        build_calculus(P, spec)


def test_missing_inverse_rejected(poly2):
    naked = AlgebraEndo(poly2, (poly2.gen(0), poly2.gen(1)))
    spec = CalculusSpec(dgens=[DGen("x1", poly2.gen(0), naked), DGen("x2", poly2.gen(1), naked)])
    with pytest.raises(ConfigError):
        build_calculus(poly2, spec)


@pytest.mark.parametrize("source, message", [
    pytest.param("name m\ncoeffs t\ngens x\ncalculus mode=flat\ndgens x\n",
                 "every symbol needs a differential in flat mode", id="flat-missing-differential"),
    pytest.param("name m\ncoeffs t\ngens x\nsigma x: t -> t^2\ncalculus mode=theorem\n",
                 "sigma of generator x carries no inverse; plain-twist mode needs a bijective extension",
                 id="theorem-without-inverse"),
    pytest.param(corpus_source("jordan") + "itwist t: x -> x + 2*t\n", "inverse does not undo x",
                 id="wrong-itwist"),
])
def test_calculus_construction_errors_are_error_records(source, message):
    report = run_smooth(parse_presentation(source))
    assert (report.verdict, report.failed_check) == ("failed", "compatibility")
    rec = report.check("compatibility")
    assert (rec.status, rec.witnesses) == ("error", [message])


def _potentials_spec(P, potentials):
    return CalculusSpec(dgens=[DGen(f"u{k}", f, algebra_identity(P)) for k, f in enumerate(potentials)])


@pytest.mark.parametrize("shape", ["constant", "quadratic"])
def test_potential_must_be_frame_linear(poly2, shape):
    x1, x2 = poly2.gen(0), poly2.gen(1)
    bad = x1 + poly2.one() if shape == "constant" else poly2.multiply(x1, x1)
    with pytest.raises(ConfigError, match=r"potential of d\(u0\) must be frame-linear"):
        build_calculus(poly2, _potentials_spec(poly2, [bad, x2]))


def test_potentials_must_span_as_many_symbols(poly2):
    x1 = poly2.gen(0)
    with pytest.raises(ConfigError, match=r"span as many symbols .* \(got 1 symbols for 2 generators\)"):
        build_calculus(poly2, _potentials_spec(poly2, [x1, x1.scale(poly2.ring.scalar(2))]))


def test_potentials_must_be_independent(poly2):
    s = poly2.gen(0) + poly2.gen(1)
    with pytest.raises(ConfigError, match="linearly dependent"):
        build_calculus(poly2, _potentials_spec(poly2, [s, s.scale(poly2.ring.scalar(2))]))


# -- push_left ------------------------------------------------------------------


def _push_left(calc, f, S):
    """``f * du_S`` with the coefficient on the right."""
    return calc.form(S, calc.twist_apply_set(S, f))


def test_push_left_theorem_fixes_generators(weyl_calc, weyl):
    got = _push_left(weyl_calc, weyl.gen(1), (0,))
    assert got == weyl_calc.form((0,), weyl.gen(1))


def test_push_left_qplane_twist(qplane_calc, qplane):
    q = qplane.ring.param("q")
    got = _push_left(qplane_calc, qplane.gen(1), (0,))
    assert got == qplane_calc.form((0,), qplane.gen(1).scale(q))


def test_push_left_unit(weyl_calc, weyl):
    got = _push_left(weyl_calc, weyl.one(), (0, 1))
    assert got == weyl_calc.form((0, 1), weyl.one())


# -- wedge -------------------------------------------------------------------------


def test_wedge_antisymmetry(weyl_calc, weyl):
    dx1 = weyl_calc.form((0,), weyl.one())
    dx2 = weyl_calc.form((1,), weyl.one())
    assert weyl_calc.wedge(dx2, dx1) == -weyl_calc.wedge(dx1, dx2)


def test_wedge_repeated_index_dies(weyl_calc, weyl):
    dx1 = weyl_calc.form((0,), weyl.one())
    assert weyl_calc.wedge(dx1, dx1).is_zero()


def test_wedge_pushes_coefficient(weyl_calc, weyl):
    a = weyl_calc.form((0,), weyl.gen(1))
    b = weyl_calc.form((1,), weyl.one())
    assert weyl_calc.wedge(a, b) == weyl_calc.form((0, 1), weyl.gen(1))


def test_wedge_associative_random(weyl_calc, qplane_calc, rng):
    for calc in (weyl_calc, qplane_calc):
        P = calc.P
        for _ in range(40):
            forms = []
            for _ in range(3):
                S = tuple(sorted(rng.sample(range(calc.N), rng.randint(0, calc.N))))
                forms.append(calc.form(S, random_skew(P, rng, 2, max_terms=2)))
            a, b, c = forms
            lhs = calc.wedge(calc.wedge(a, b), c)
            rhs = calc.wedge(a, calc.wedge(b, c))
            assert lhs == rhs


# -- differential ------------------------------------------------------------------


def test_differential_theorem_partial_formula(weyl_calc, weyl):
    f = weyl.monomial((2, 1))
    got = weyl_calc.d0(f)
    expected = weyl_calc.form((0,), weyl.monomial((1, 1)).scale(weyl.ring.scalar(2))) + weyl_calc.form(
        (1,), weyl.monomial((2, 0))
    )
    assert got == expected


def test_differential_kills_constants(weyl_calc, weyl):
    assert weyl_calc.d0(weyl.const(9)).is_zero()


def test_differential_jordan_t2(jordan_calc, jordan):
    t = jordan.ring.var(0)
    got = jordan_calc.d0(jordan.from_coeff(t * t))
    expected = jordan_calc.form((0,), jordan.from_coeff(t.scale(jordan.ring.scalar(2))))
    assert got == expected


def test_partial_coefficients_match_exponents(poly2_calc, poly2):
    # in plain-twist mode the du_i coefficient of d(x^a) is a_i x^(a - e_i)
    for a1 in range(4):
        for a2 in range(4 - a1):
            if a1 + a2 == 0:
                continue
            f = poly2.monomial((a1, a2))
            df = poly2_calc.d0(f)
            if a1:
                assert df.terms[(0,)] == poly2.monomial((a1 - 1, a2)).scale(poly2.ring.scalar(a1))
            if a2:
                assert df.terms[(1,)] == poly2.monomial((a1, a2 - 1)).scale(poly2.ring.scalar(a2))


def test_graded_leibniz_random(weyl_calc, jordan_calc, qplane_calc, rng):
    for calc in (weyl_calc, jordan_calc, qplane_calc):
        P = calc.P
        for _ in range(30):
            Sa = tuple(sorted(rng.sample(range(calc.N), rng.randint(0, 1))))
            Sb = tuple(sorted(rng.sample(range(calc.N), rng.randint(0, 1))))
            a = calc.form(Sa, random_skew(P, rng, 3, max_terms=2))
            b = calc.form(Sb, random_skew(P, rng, 3, max_terms=2))
            lhs = calc.differential(calc.wedge(a, b))
            rhs = calc.wedge(calc.differential(a), b)
            part = calc.wedge(a, calc.differential(b))
            if len(Sa) % 2:
                part = -part
            rhs = rhs + part
            assert lhs == rhs


# -- d squared ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["poly3", "aq", "jordan"])
def test_d0_work_is_linear_in_word_length(name):
    calc = run_calculus_check(corpus_doc(name))
    P = calc.P
    calls = {"multiply": 0, "normalize": 0}
    _counting(P, calls)
    # degree 4 in every symbol: a word of length 4 * nsyms
    f = P.monomial((4,) * P.n, P.ring.monomial((4,) * P.ring.nvars))
    df = calc.d0(f)
    assert calls["multiply"] <= (calc.N + 1) * 4 * calc.nsyms
    assert calls["normalize"] == 0
    calls["multiply"] = 0
    assert calc.d0(f) == df
    assert calls["multiply"] == 0


def test_d_squared_weyl(weyl_calc):
    assert weyl_calc.d_squared_check(6).ok


def test_d_squared_jordan(jordan_calc):
    assert jordan_calc.d_squared_check(6).ok


def test_d_squared_qplane_needs_wedge_constant(qplane):
    good = build_calculus(qplane, qplane_flat_spec(qplane))
    assert good.d_squared_check(5).ok
    bad_spec = qplane_flat_spec(qplane)
    bad_spec.wedge_signs = {}
    bad = build_calculus(qplane, bad_spec)
    outcome = bad.d_squared_check(4)
    assert not outcome.ok


# The generator certificate of d_squared_check against the degree-6 loop,
# which stays the oracle: the certificate is only sufficient, but on every
# document here the two agree.


@pytest.mark.parametrize("name", CERTIFIED)
def test_generator_certificate_agrees_with_degree_six_on_corpus(name):
    doc = corpus_doc(name)
    P = build_presentation(doc)
    spec = calculus_spec_from_doc(doc, P)
    variants = {
        "as shipped": spec,
        "wedge (0,1) = 7": _wedge_seven(P, spec),
        "no wedge constants": replace(spec, wedge_signs={}),
    }
    outcomes = {}
    for label, variant in variants.items():
        calc = build_calculus(P, variant)
        outcomes[label] = calc._d_squared_upto(6).ok
        assert (calc._failure("ab") is None) == outcomes[label], label
    assert outcomes["as shipped"] and not outcomes["wedge (0,1) = 7"]
    assert outcomes["no wedge constants"] == (not spec.wedge_signs)


def test_generator_certificate_agrees_with_degree_six_on_ore_grid():
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    outcomes = {True: 0, False: 0}
    for qs, r, ps in grid():
        source = ore_document(ring, *grid_member(ring, qs, r, ps))
        for text in (source, without_wedge(source)):
            try:
                calc = run_calculus_check(parse_presentation(text))
            except (MapError, CompatibilityError):
                continue  # case none: no calculus to decide d^2 on
            ok = calc._d_squared_upto(6).ok
            assert (calc._failure("ab") is None) == ok, f"q={qs} r={r} p={ps}\n{text}"
            outcomes[ok] += 1
    # 28 members with a calculus, each with and without its wedge line; the
    # 14 case-c members with q != 1 need the line
    assert outcomes == {True: 42, False: 14}


NON_COMMUTING_TWISTS = """name probe
gens x1 x2
rel x2 x1 = x1 x2
calculus mode=flat
dgens x1 x2
twist x1: x1 -> 2*x1 + x2
twist x2: x2 -> x2 + x1
"""


RESCALE_BESIDE_SHEAR = """name shear
gens x1 x2
rel x2 x1 = x1 x2
calculus mode=flat
dgens x1 x2
twist x1: x1 -> 2*x1
twist x2: x2 -> x2 + x1
"""


def test_a_rescaling_twist_beside_a_shear_fails_a():
    """(a) skips a pair only when both twists rescale: x1 -> 2*x1 and the
    shear x2 -> x2 + x1 send x2 to x2 + 2*x1 and x2 + x1 in the two
    orders."""
    calc = run_calculus_check(parse_presentation(RESCALE_BESIDE_SHEAR))
    rescaling, shear = (dg.twist for dg in calc.spec.dgens)
    assert rescaling._scales is not None and shear._scales is None
    assert calc._noncommuting_twists() == "the twists of d(x1) and d(x2) do not commute on x2"
    assert calc._failure("ab") is not None


def test_rescaling_twists_commute_without_being_applied(monkeypatch):
    calc = run_calculus_check(corpus_doc("qaffine3"))
    assert all(dg.twist._scales is not None and not dg.twist._identity for dg in calc.spec.dgens)
    applied = []
    monkeypatch.setattr(AlgebraEndo, "apply", lambda self, f: applied.append(f))
    assert calc._noncommuting_twists() is None
    assert not applied


def test_a_stored_rescaling_inverse_fails_c_by_its_weights(monkeypatch):
    """(c) on a rescaling inverse compares weights: the stored inverse x1 ->
    2*x1 of the Weyl twist gives the term x1 x2 of x1 x2 - 1 the weight 2,
    which the relation word x2 x1 has, and the constant the weight 1."""
    doc = corpus_doc("weyl")
    P = build_presentation(doc)
    spec = calculus_spec_from_doc(doc, P)
    dg = spec.dgens[0]
    inverse = AlgebraEndo(P, (P.gen(0).scale(P.ring.scalar(2)), P.gen(1)), check=False)
    twist = AlgebraEndo(P, dg.twist.images, inverse=inverse, check=False)
    calc = build_calculus(P, replace(spec, dgens=[replace(dg, twist=twist)] + spec.dgens[1:]))
    assert calc._failure("ab") is None
    assert inverse.broken_relation() == "x2*x1"
    multiplied = []
    monkeypatch.setattr(P, "multiply", lambda f, g: multiplied.append((f, g)))
    assert calc._inverse_breaking_a_relation() == (
        "the stored inverse of the twist of d(x1) does not respect relation x2*x1"
    )
    assert not multiplied
    assert calc._failure("abcd") is not None


def test_non_commuting_twists_fail_the_certificate_and_d_squared():
    calc = run_calculus_check(parse_presentation(NON_COMMUTING_TWISTS))
    assert calc._noncommuting_twists() is not None
    report = run_smooth(parse_presentation(NON_COMMUTING_TWISTS))
    assert report.verdict == "not-certified"
    assert report.failing[0] == "d-squared"
    assert report.check("d-squared").witnesses[0] == "d^2 of x2^2 = d(x1)d(x2)*(1)"
    # a negative control for integrability: (a) fails, the stage names the
    # pair of twists and the symbol, and the divergence stages have no
    # certificate to run on
    integrability = report.check("integrability")
    assert integrability.status == "fail"
    assert integrability.witnesses == ["the twists of d(x1) and d(x2) do not commute on x1"]
    _assert_divergence_stages_need_integrability(report)
    # the sampled oracle finds the same failure
    assert not Transport(calc).integrability_sampled(50, 4, random.Random(1729)).ok


NO_INTEGRABILITY = "divergence transport requested without an integrability certificate"


def _assert_divergence_stages_need_integrability(report):
    for stage in ("divergence-leibniz", "flatness"):
        rec = report.check(stage)
        assert (rec.status, rec.witnesses) == ("error", [NO_INTEGRABILITY]), stage


@pytest.mark.parametrize("name", ["qaffine3", "poly3"])
def test_passing_d_squared_differentiates_only_one_forms(name):
    """(b) is d applied to both sides of ``s du_i = du_i nu_i(s)``: per frame
    symbol and twist one ``left_multiply`` and one ``differential`` of a
    one-form, and two wedges.  No form of degree two or more is
    differentiated."""
    calc = run_calculus_check(corpus_doc(name))
    calls = {"differential": [], "left_multiply": [], "wedge": []}
    for attr, seen in calls.items():
        _recording(calc, attr, seen)
    assert calc.d_squared_check(6).ok
    n = calc.N * calc.nsyms
    assert len(calls["differential"]) == len(calls["left_multiply"]) == n
    forms = [args[-1] for args in calls["differential"] + calls["left_multiply"]]
    assert all({len(S) for S in form.terms} == {1} for form in forms)
    assert len(calls["wedge"]) <= 2 * n


def _b_against_minus_differential(calc):
    """(b) with its right side negated: ``d0(s) ^ du_i == -d(du_i
    nu_i(s))``; None when it holds, else the first failing pair."""
    units = [calc._unit_form((i,)) for i in range(calc.N)]
    for sym in calc.P.frame():
        for i, du in enumerate(units):
            if calc.wedge(calc.d0(sym), du) != -calc.differential(calc.left_multiply(sym, du)):
                return f"sign-flipped (b) fails at {calc.P.render(sym)}, {i}"
    return None


@pytest.mark.parametrize("name", CERTIFIED + tuple(WIDE_DOCS))
def test_a_sign_flipped_b_fails_the_d_squared_certificate(name, monkeypatch):
    """A (b) that compares ``d0(s) ^ du_i`` with ``-d(du_i nu_i(s))``
    rejects every corpus and wide calculus, so ``d_squared_check`` is left
    to its search and the transport certificate fails with it."""
    assert run_calculus_check(_doc(name))._twisting_failure() is None
    monkeypatch.setattr(Calculus, "_twisting_failure", _b_against_minus_differential)
    mutant = run_calculus_check(_doc(name))
    searched = []
    _recording(mutant, "_d_squared_upto", searched)
    assert mutant.d_squared_check(2).ok
    assert [bound for _, bound in searched] == [2]
    assert mutant._failure("abcd") is not None


# -- each part of the certificate decided once, and the d^2 search -----------------------
#
# ``_failure`` decides each part at most once per calculus, whichever stages
# read it, and the d^2 search that runs when (a) or (b) fails stops at its
# fifth witness, the last one the record keeps.

# input -> (failing stages, calls of each part in one run_smooth)
PART_RUNS = {
    "certified-aq": ([], {"a": 1, "b": 1, "c": 1, "d": 1}),
    "wedge-less-aq": (["d-squared", "divergence-leibniz", "flatness"], {"a": 1, "b": 1, "c": 1, "d": 1}),
    "non-commuting-probe": (["d-squared", "integrability", "divergence-leibniz", "flatness"],
                            {"a": 1, "b": 0, "c": 0, "d": 0}),
}


def _part_run_text(name):
    aq = corpus_source("aq")
    return {"certified-aq": aq, "wedge-less-aq": without_wedge(aq), "non-commuting-probe": NON_COMMUTING_TWISTS}[name]


@pytest.mark.parametrize("name", PART_RUNS)
def test_each_part_runs_at_most_once_per_run(name, monkeypatch):
    """d-squared reads (a) and (b), integrability (a), (c) and (d), and both
    divergence stages all four, yet one run decides each part once.  On the
    wedge-less aq (b) fails, and is read three times; on the probe (a)
    fails, so (b), (c) and (d) are never decided."""
    calls = dict.fromkeys(spbw.calculus._PARTS, 0)
    for part, attr in spbw.calculus._PARTS.items():
        def counted(self, _method=getattr(Calculus, attr), _part=part):
            calls[_part] += 1
            return _method(self)
        monkeypatch.setattr(Calculus, attr, counted)
    failing, want = PART_RUNS[name]
    report = run_smooth(parse_presentation(_part_run_text(name)))
    assert report.failing == failing
    assert calls == want


def _full_d_squared_search(calc, bound):
    """``(column, witness)`` for every nonzero d^2 up to the bound, over the
    whole basis in the order of ``_d_squared_upto``: the search that kept
    only its first five witnesses."""
    found = []
    for col, expo in enumerate(exponents_upto(calc.nsyms, bound)):
        f = calc._monomial(expo)
        dd = calc.differential(calc.d0(f))
        if not dd.is_zero():
            found.append((col, f"d^2 of {calc.P.render(f)} = {calc.render_form(dd)}"))
        for i in range(calc.N):
            form = calc.form((i,), f)
            dd1 = calc.differential(calc.differential(form))
            if not dd1.is_zero():
                found.append((col, f"d^2 of {calc.render_form(form)} = {calc.render_form(dd1)}"))
    return found


def _searched_columns(calc, bound):
    """The outcome of ``_d_squared_upto(bound)`` on calc, and the basis
    columns whose monomials the search took."""
    taken = []
    _recording(calc, "_monomial", taken)
    outcome = calc._d_squared_upto(bound)
    index = {expo: col for col, expo in enumerate(exponents_upto(calc.nsyms, bound))}
    return outcome, [index[expo] for caller, expo in taken if caller == "_d_squared_witnesses"]


def _wedge_less_calc(name):
    """The calculus of ``SHEARS``, a wide document or a corpus entry, with
    no wedge line."""
    text = SHEARS if name == "shears" else WIDE_DOCS.get(name) or corpus_source(name)
    return run_calculus_check(parse_presentation(without_wedge(text)))


@pytest.mark.parametrize("name", ["aq", "qaffine3", "qplane", "qaffine4"])
def test_d_squared_search_stops_at_its_fifth_witness(name):
    """Without its wedge lines each calculus has d^2 != 0 far beyond five
    times; the search takes no monomial after the one that gave its fifth
    witness, and keeps the five the full search finds first."""
    calc = _wedge_less_calc(name)
    full = _full_d_squared_search(calc, 6)
    assert len(full) > 5
    outcome, columns = _searched_columns(_wedge_less_calc(name), 6)
    assert not outcome.ok
    assert outcome.witnesses == [witness for _, witness in full[:5]]
    fifth = full[4][0]
    assert columns == list(range(fifth + 1))
    assert fifth + 1 < len(list(exponents_upto(calc.nsyms, 6)))


def test_d_squared_search_at_a_large_bound_builds_only_what_it_reads(monkeypatch):
    """The basis is drawn lazily, so a search that stops at its fifth
    witness builds only the exponents it read.  On the wedge-less ``aq`` at
    bound 250, the 251 powers of z come first in lexicographic order and
    the fifth witness three exponents later, of 2,667,126: the search
    draws at most 254, keeps the witnesses it finds at bound 6, and
    allocates a few megabytes, where the whole basis would take some
    hundred and fifty."""
    drawn = []
    enumerate_basis = spbw.calculus.exponents_upto

    def counted(nvars, total):
        for expo in enumerate_basis(nvars, total):
            drawn.append(expo)
            yield expo

    monkeypatch.setattr(spbw.calculus, "exponents_upto", counted)
    want = _wedge_less_calc("aq")._d_squared_upto(6).witnesses
    assert len(want) == 5
    calc = _wedge_less_calc("aq")
    drawn.clear()
    tracemalloc.start()
    try:
        outcome = calc._d_squared_upto(250)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.witnesses == want
    assert len(drawn) <= 254
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("name, bound, count", [("shears", 2, 1), ("shears", 3, 3), ("qplane", 2, 1), ("qplane", 3, 3)])
def test_d_squared_search_with_fewer_than_five_witnesses_takes_the_whole_basis(name, bound, count):
    """No calculus of the sweep has fewer than five witnesses at degree 6,
    so the searches here are cut lower: ``SHEARS`` and the wedge-less
    quantum plane have one witness up to degree 2 and three up to degree
    3."""
    calc = _wedge_less_calc(name)
    full = _full_d_squared_search(calc, bound)
    outcome, columns = _searched_columns(_wedge_less_calc(name), bound)
    assert outcome.witnesses == [witness for _, witness in full]
    assert len(outcome.witnesses) == count
    assert columns == list(range(len(list(exponents_upto(calc.nsyms, bound)))))


def _sweep_calculi():
    """The compatible calculi of the corpus, ``WIDE_DOCS``,
    ``UN2_PRODUCT_DOCS`` and the Ore grid, each also without its wedge
    lines where that changes the text."""
    texts = [corpus_source(name) for name in CERTIFIED] + list(WIDE_DOCS.values()) + list(UN2_PRODUCT_DOCS.values())
    for text in texts:
        yield run_calculus_check(parse_presentation(text))
        if without_wedge(text) != text:
            yield run_calculus_check(parse_presentation(without_wedge(text)))
    yield from _grid_calculi()


def test_where_only_b_fails_d_squared_of_two_frame_symbols_is_not_zero():
    """Evidence toward (a) and (b) being necessary, not a proof.  On every
    calculus of the sweep and every pair of frame symbols s, t, ``d^2(s t)
    = -sum_i D(s, i) d_i(t)``, with ``D(s, i) = d0(s) ^ du_i - d(du_i
    nu_i(s))`` the two-form whose vanishing is (b) and ``d_i(t)`` the
    scalar du_i coordinate of d0(t).  So on every calculus where (a) holds
    and (b) fails, all 18 of them wedge-less, d^2 of some product ``s*t``
    is nonzero (ROADMAP item 4 sketches why)."""
    only_b = 0
    for calc in _sweep_calculi():
        P, units = calc.P, [calc._unit_form((i,)) for i in range(calc.N)]
        for s, sym in enumerate(P.frame()):
            D = [calc.wedge(calc.d0(sym), du) - calc.differential(calc.left_multiply(sym, du)) for du in units]
            for t, tym in enumerate(P.frame()):
                read = calc.zero_form()
                for i, b in calc._dterms[t]:
                    read = read - D[i].scale(b)
                assert calc.differential(calc.d0(P.multiply(sym, tym))) == read
        if calc._failure("a") is None and calc._failure("b") is not None:
            only_b += 1
            assert any(
                not calc.differential(calc.d0(P.multiply(s, t))).is_zero() for s in P.frame() for t in P.frame()
            )
    assert only_b == 18

# -- connectedness ------------------------------------------------------------------


def test_connectedness_poly2(poly2_calc):
    out = poly2_calc.connectedness_check(4)
    assert out.ok and out.data["kernel_dimension"] == 1


def test_connectedness_weyl(weyl_calc):
    out = weyl_calc.connectedness_check(4)
    assert out.ok


def test_connectedness_misuse_reports_honestly(jordan):
    # plain-twist mode over F[t] never differentiates t, so the kernel blows up
    calc = build_calculus(jordan, theorem_spec(jordan))
    out = calc.connectedness_check(4)
    assert not out.ok
    assert out.data["kernel_dimension"] == 5
    # the first four kernel vectors, one per free column in increasing order
    assert out.witnesses == ["[1]", "[t]", "[t^2]", "[t^3]"]


POLY4_DOC = """name poly4
gens x1 x2 x3 x4
rel x2 x1 = x1 x2
rel x3 x1 = x1 x3
rel x4 x1 = x1 x4
rel x3 x2 = x2 x3
rel x4 x2 = x2 x4
rel x4 x3 = x3 x4

calculus mode=theorem
"""


def test_connectedness_at_stress_size():
    # 210 monomials of degree at most 6 in 4 variables: a 504 x 210 matrix
    calc = run_calculus_check(parse_presentation(POLY4_DOC))
    out = calc.connectedness_check(6)
    assert out.ok
    assert out.data["kernel_dimension"] == 1
    assert out.witnesses == ["[1]"]


# The connectedness matrix and d0 read d of each monomial from one memo,
# filled by the twisted product rule; the rows are checked against d of each
# basis monomial by the position expansion of ``d_word_by_positions``, which
# shares no code with it.  The tests keep their names from when d0 was the
# oracle.


def _rescales(calc):
    return all(dg.twist._scales is not None for dg in calc.spec.dgens)


def _rows_by_positions(calc, basis):
    """The connectedness rows built by differentiating each basis monomial
    position by position."""
    rows = {}
    for col, expo in enumerate(basis):
        word = [j for j, k in enumerate(expo) for _ in range(k)]
        df = d_word_by_positions(calc, word, calc.P.ring.sone())
        for S, f in df.terms.items():
            for ev, c in f.terms.items():
                for tv, s in c.terms.items():
                    rows.setdefault((S[0], tv + ev), {})[col] = s
    return rows


def _assert_rows_match_oracle(make_calc, bound=6):
    calc = make_calc()
    basis = list(exponents_upto(calc.nsyms, bound))
    assert calc._connectedness_rows(basis) == _rows_by_positions(make_calc(), basis)


RESCALING = ("poly2", "poly3", "weyl", "qplane", "qaffine3") + tuple(WIDE_DOCS)


@pytest.mark.parametrize("name", RESCALING)
def test_rescaled_connectedness_rows_match_d0(name):
    assert _rescales(run_calculus_check(_doc(name)))
    _assert_rows_match_oracle(lambda: run_calculus_check(_doc(name)))


@pytest.mark.parametrize("name", ("un2", "jordan", "aq") + tuple(UN2_PRODUCT_DOCS))
def test_twisted_connectedness_rows_match_d0(name):
    # un2 and its products shift (x2 -> x2 + 1), jordan shears (x -> x + 2t)
    # and aq swaps its coefficient variables.  Here the shifted and sheared
    # images only meet zero coordinates: SHEARS, AFFINE_TWIST and the Ore
    # grid reach a generator term times t and a constant term.
    assert not _rescales(run_calculus_check(_doc(name)))
    _assert_rows_match_oracle(lambda: run_calculus_check(_doc(name)))


def test_rescaled_connectedness_rows_match_d0_with_a_larger_kernel(jordan):
    # plain-twist mode over F[t]: t has no differential, so d kills every t^k
    _assert_rows_match_oracle(lambda: build_calculus(jordan, theorem_spec(jordan)))
    assert build_calculus(jordan, theorem_spec(jordan)).connectedness_check(6).data["kernel_dimension"] == 7


def _ore_grid_calculi():
    """A maker for each of the 56 compatible calculi of the Ore grid (28
    members, with and without the wedge line)."""
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    makers = []
    for qs, r, ps in grid():
        source = ore_document(ring, *grid_member(ring, qs, r, ps))
        for text in (source, without_wedge(source)):
            try:
                run_calculus_check(parse_presentation(text))
            except (MapError, CompatibilityError):
                continue
            makers.append(lambda text=text: run_calculus_check(parse_presentation(text)))
    return makers


def test_rescaled_connectedness_rows_match_d0_on_ore_grid():
    rescaling = [make for make in _ore_grid_calculi() if _rescales(make())]
    for make in rescaling:
        _assert_rows_match_oracle(make)
    assert len(rescaling) == 12


def test_twisted_connectedness_rows_match_d0_on_ore_grid():
    # the other 44 of the 56, where some twist does not rescale
    twisted = [make for make in _ore_grid_calculi() if not _rescales(make())]
    for make in twisted:
        _assert_rows_match_oracle(make)
    assert len(twisted) == 44


@pytest.mark.parametrize("name", ["poly5", "qaffine4", "un2", "jordan", "aq"])
def test_connectedness_makes_no_d0_call(name):
    calc = run_calculus_check(_doc(name))
    calls = {"d0": 0}
    _counting(calc, calls)
    products = {"multiply": 0}
    _counting(calc.P, products)
    assert calc.connectedness_check(6).ok
    # every product with a twist term is a shift here, SHEARS below is not
    assert calls == {"d0": 0} and products == {"multiply": 0}


SHEARS = """name shears
coeffs t
gens x
delta x: t -> t^2
calculus mode=flat
dgens t x
twist t: x -> x + 2*t
twist x: x -> x + 2*t
"""


def test_sheared_connectedness_rows_match_d0():
    # The Jordan plane with the shear on du_x as well.  d_x of a power of x
    # then holds t, and nu_x(x) = x + 2t meets it: x * t needs the relation.
    # The calculus is compatible but fails d-squared, which connectedness
    # does not need.
    _assert_rows_match_oracle(lambda: run_calculus_check(parse_presentation(SHEARS)))
    calc = run_calculus_check(parse_presentation(SHEARS))
    products = {"multiply": 0}
    _counting(calc.P, products)
    assert calc.connectedness_check(6).data["kernel_dimension"] == 1
    # one reduction for each product that is not a shift
    assert products == {"multiply": 10}


# connectedness_check reads d of its basis in one sweep over the memo; it
# must leave the memo and hand kernel_basis exactly what the per-monomial
# path gives.


def _sweep_calc(name):
    return run_calculus_check(parse_presentation(SHEARS) if name == "shears" else _doc(name))


def _memo_snapshot(calc):
    return [
        (expo, [(key, v.num, v.den) for key, v in coords.items()])
        for expo, coords in calc._d_memo.items()
    ]


@pytest.mark.parametrize("name", RESCALING + ("un2", "jordan", "aq", "shears"))
def test_connectedness_fills_the_memo_as_d_monomial_does(name):
    calc = _sweep_calc(name)
    calc.connectedness_check(6)
    fresh = _sweep_calc(name)
    for expo in exponents_upto(fresh.nsyms, 6):
        fresh._d_monomial(expo)
    assert _memo_snapshot(calc) == _memo_snapshot(fresh)


@pytest.mark.parametrize("name", ("poly5", "qaffine4", "un2", "aq", "shears"))
def test_connectedness_passes_every_row_to_kernel_basis(name, monkeypatch):
    calls = []
    kernel_basis = spbw.calculus.kernel_basis

    def spy(*args):
        calls.append(args)
        return kernel_basis(*args)

    monkeypatch.setattr(spbw.calculus, "kernel_basis", spy)
    calc = _sweep_calc(name)
    calc.connectedness_check(6)
    basis = list(exponents_upto(calc.nsyms, 6))
    rows = list(_sweep_calc(name)._connectedness_rows(basis).values())
    assert calls == [(rows, len(basis), calc.P.ring.nparams)]
    # the same entries in the same order, not only equal values
    assert [list(row.items()) for row in calls[0][0]] == [list(row.items()) for row in rows]


def _exponents_upto_by_recursion(nvars, total):
    """The lexicographic enumeration by recursion on the first entry."""
    if nvars == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _exponents_upto_by_recursion(nvars - 1, total - first):
            yield (first,) + rest


def test_basis_enumeration_keeps_the_recursive_order():
    for nvars in range(7):
        for total in range(8):
            assert list(exponents_upto(nvars, total)) == list(_exponents_upto_by_recursion(nvars, total))


SIGN_TWIST = """name sign
gens x
calculus mode=flat
dgens x
twist x: x -> -1*x
"""


def test_rescaled_connectedness_drops_terms_that_cancel():
    # d(x^k) = du (1 - 1 + 1 ...) x^(k-1): the two terms of d(x * x^(k-1))
    # meet on x^(k-1) and cancel for every even k
    rec = run_smooth(parse_presentation(SIGN_TWIST)).check("connectedness")
    assert (rec.status, rec.data) == ("fail", {"kernel_dimension": 4, "bound": 6})
    assert rec.witnesses == ["[1]", "[x^2]", "[x^4]", "[x^6]"]


def test_d0_of_a_power_past_the_recursion_limit():
    # the memo is filled one first symbol at a time, with no recursion:
    # d(x^k) = du x^(k-1) for odd k and 0 for even k under x -> -x
    calc = run_calculus_check(parse_presentation(SIGN_TWIST))
    k = 2 * sys.getrecursionlimit() + 1
    assert calc.d0(calc.P.monomial((k,))) == calc.form((0,), calc.P.monomial((k - 1,)))
    assert calc.d0(calc.P.monomial((k - 1,))).is_zero()


@pytest.mark.parametrize("bound", (2, 6, 10, 20))
def test_sign_twist_kernel_grows_with_the_bound(bound):
    # ker d is spanned by the even powers of x, so the bounded kernel holds
    # the bound // 2 + 1 of them up to the bound
    doc = parse_presentation(SIGN_TWIST + f"options conn_degree={bound}\n")
    rec = run_smooth(doc).check("connectedness")
    assert rec.data == {"kernel_dimension": bound // 2 + 1, "bound": bound}


AFFINE_TWIST = """name affine
gens x
calculus mode=flat
dgens x
twist x: x -> -1*x + 1
"""


def test_affine_twist_connectedness_record():
    # nu(x) = 1 - x does not rescale: its constant term copies d(x^(k-1))
    # unshifted, so the kernel vectors mix degrees
    rec = run_smooth(parse_presentation(AFFINE_TWIST)).check("connectedness")
    assert (rec.status, rec.data) == ("fail", {"kernel_dimension": 4, "bound": 6})
    assert rec.witnesses == ["[1]", "[x] + [x^2]", "[x] + [x^3] + [x^4]", "[x] + [x^3] + [x^5] + [x^6]"]


MIXED_SCALES = """name mixed
gens x1 x2
rel x2 x1 = x1 x2
calculus mode=flat
dgens x1 x2
twist x1: x1 -> -1*x1
twist x2: x2 -> 2*x2
"""


def _closed_form_kernel(calc, bound):
    """The dimension of ker d up to the bound that the closed form predicts
    for a calculus whose twists all rescale and whose potentials are each a
    scalar times one frame symbol.

    Then ``d(x^a) = sum_i du_i k_i(a) x^(a - e_i)``, where ``k_i(a)`` is a
    product of scales times the q-integer ``[a_s]_c = 1 + c + ... +
    c^(a_s - 1)``, s the potential's symbol and c the scale of twist i on
    s.  Different exponents a meet different coordinates, so the kernel is
    spanned by the monomials whose q-integers all vanish.  Over Q(params)
    ``[a]_c = 0`` only when c = -1 and a is even; a symbol with no
    potential lies in the kernel outright.  So the count is that of the
    exponents up to the bound supported on the symbols with no potential
    or with own scale -1, with every exponent of the latter even."""
    scales = _own_scales(calc)
    free = [s for s, c in scales.items() if c is None]
    even = [s for s, c in scales.items() if c is not None and c == calc.P.ring.scalar(-1)]
    steps = [range(bound + 1)] * len(free) + [range(0, bound + 1, 2)] * len(even)
    return sum(1 for a in product(*steps) if sum(a) <= bound)


def _own_scales(calc):
    """symbol -> the scale of twist i on the symbol, i the generator whose
    potential is a scalar times the symbol; None for a symbol with no
    potential.  Every twist must rescale."""
    scales = {}
    for s, row in enumerate(calc._dcoords):
        if row is None:
            scales[s] = None
            continue
        (i,) = [i for i, b in enumerate(row) if not b.is_zero()]
        twist_scales = calc.spec.dgens[i].twist._scales
        assert twist_scales is not None
        scales[s] = twist_scales[s]
    return scales


def _sympy_scalar(c, names):
    """The scalar c as a sympy expression in the parameter symbols."""
    params = [sympy.Symbol(name) for name in names]

    def poly(p):
        return sympy.Add(*(
            sympy.Rational(v.numerator, v.denominator) * sympy.Mul(*(x**k for x, k in zip(params, e)))
            for e, v in p.items()
        ))

    return poly(c.num) / poly(c.den)


def _assert_closed_form_kernel(calc):
    for bound in (6, 10, 14):
        assert calc.connectedness_check(bound).data["kernel_dimension"] == _closed_form_kernel(calc, bound)


@pytest.mark.parametrize("name", RESCALING)
def test_closed_form_kernel_on_rescaling_calculi(name):
    _assert_closed_form_kernel(run_calculus_check(_doc(name)))


@pytest.mark.parametrize("text", (SIGN_TWIST, MIXED_SCALES), ids=("sign", "mixed"))
def test_closed_form_kernel_with_a_scale_of_minus_one(text):
    calc = run_calculus_check(parse_presentation(text))
    assert [_closed_form_kernel(calc, bound) for bound in (6, 10, 14)] == [4, 6, 8]
    _assert_closed_form_kernel(calc)


# an own scale in Q(params): q on x, then q on x1 beside -1 on x2
Q_SCALE = """name qscale
params q
gens x
calculus mode=flat
dgens x
twist x: x -> q*x
"""

MIXED_Q_SCALES = """name mixedq
params q
gens x1 x2
rel x2 x1 = x1 x2
calculus mode=flat
dgens x1 x2
twist x1: x1 -> q*x1
twist x2: x2 -> -1*x2
"""


@pytest.mark.parametrize("text, dims", [(Q_SCALE, [1, 1, 1]), (MIXED_Q_SCALES, [4, 6, 8])], ids=("q", "mixed-q"))
def test_closed_form_kernel_with_a_parametric_scale(text, dims):
    calc = run_calculus_check(parse_presentation(text))
    assert [_closed_form_kernel(calc, bound) for bound in (6, 10, 14)] == dims
    _assert_closed_form_kernel(calc)


def test_closed_form_kernel_without_a_potential(jordan):
    # plain-twist mode over F[t]: t has no differential
    calc = build_calculus(jordan, theorem_spec(jordan))
    assert [_closed_form_kernel(calc, bound) for bound in (6, 10, 14)] == [7, 11, 15]
    _assert_closed_form_kernel(calc)


def test_closed_form_kernel_on_ore_grid():
    rescaling = [calc for calc in (make() for make in _ore_grid_calculi()) if _rescales(calc)]
    assert len(rescaling) == 12
    for calc in rescaling:
        _assert_closed_form_kernel(calc)


DOUBLING = """name doubling
gens x
calculus mode=flat
dgens x
twist x: x -> 2*x
"""

DOUBLING_SHIFT = DOUBLING.replace("2*x\n", "2*x + 1\n")

MIXED_AFFINE = MIXED_SCALES.replace("-1*x1\n", "-1*x1 + 1\n").replace("2*x2\n", "2*x2 + 3\n")

# a diagonal-affine document, its linear part, and its kernel dimension at
# the bounds 6, 10 and 14
DIAGONAL_AFFINE = {
    "affine": (AFFINE_TWIST, SIGN_TWIST, [4, 6, 8]),
    "doubling": (DOUBLING_SHIFT, DOUBLING, [1, 1, 1]),
    "mixed": (MIXED_AFFINE, MIXED_SCALES, [4, 6, 8]),
}


@pytest.mark.parametrize("affine, linear, dims", DIAGONAL_AFFINE.values(), ids=DIAGONAL_AFFINE)
def test_closed_form_kernel_of_the_linear_part_on_diagonal_affine_calculi(affine, linear, dims):
    # With nu_i(s) = c s + r the constant r adds only terms of lower degree
    # to d(x^a), so the leading part of d is the d of the linear part, whose
    # kernel the closed form counts.  A map that lowers a filtration has no
    # larger kernel than its leading part, so the count is an upper bound;
    # on these documents it is the kernel dimension.
    assert "+" in affine and "+" not in linear
    calc = run_calculus_check(parse_presentation(affine))
    assert all(dg.twist._scales is None for dg in calc.spec.dgens)
    lin = run_calculus_check(parse_presentation(linear))
    assert [_closed_form_kernel(lin, bound) for bound in (6, 10, 14)] == dims
    assert [calc.connectedness_check(bound).data["kernel_dimension"] for bound in (6, 10, 14)] == dims


# the flat documents beside RESCALING whose own scales the closed form
# reads: -1, then -1 and 2, then 2, then q, then q and -1
OWN_SCALE_DOCS = {
    "sign": SIGN_TWIST, "mixed": MIXED_SCALES, "doubling": DOUBLING, "q": Q_SCALE, "mixed-q": MIXED_Q_SCALES,
}


@pytest.mark.parametrize("name", RESCALING + tuple(OWN_SCALE_DOCS))
def test_q_integers_vanish_only_at_minus_one_and_even_exponents(name):
    # The closed form's assumption, checked by sympy on every own scale it
    # reads: [a]_c = 1 + c + ... + c^(a-1) is 0 in Q(params) iff c = -1 and
    # a is even.
    text = OWN_SCALE_DOCS.get(name)
    calc = run_calculus_check(parse_presentation(text) if text else _doc(name))
    scales = [c for c in _own_scales(calc).values() if c is not None]
    assert scales
    for c in scales:
        x = _sympy_scalar(c, calc.P.ring.params)
        minus_one = sympy.cancel(x + 1) == 0
        for a in range(1, 15):
            vanishes = sympy.cancel(sum(x**k for k in range(a))) == 0
            assert vanishes == (minus_one and a % 2 == 0), (name, c, a)


def test_mixed_scales_connectedness_record():
    # only x1's own scale is -1, so the kernel holds the even powers of x1
    rec = run_smooth(parse_presentation(MIXED_SCALES)).check("connectedness")
    assert (rec.status, rec.data) == ("fail", {"kernel_dimension": 4, "bound": 6})
    assert rec.witnesses == ["[1]", "[x1^2]", "[x1^4]", "[x1^6]"]


@pytest.mark.parametrize("name", tuple(UN2_PRODUCT_DOCS))
def test_un2_products_certify_within_budget(name):
    start = time.perf_counter()
    report = run_smooth(parse_presentation(UN2_PRODUCT_DOCS[name]))
    elapsed = time.perf_counter() - start
    assert report.verdict == "certified-smooth", report.failing
    # about 0.01 s (4 symbols) and 0.03 s (6 symbols) on 2 CPUs with CPython 3.11
    assert elapsed < 3.0


# -- volume ---------------------------------------------------------------------------


def test_volume_theorem_matches_sigma_composition(weyl_calc, weyl):
    nu = weyl_calc.volume()
    composite = compose(extend_sigma(weyl, 0), extend_sigma(weyl, 1))
    assert all(nu.apply(a) == composite.apply(a) for a in weyl.frame())
    assert spbw.pipeline._is_sigma_composite(weyl, nu)


def test_volume_pi_extraction(weyl_calc, weyl, rng):
    f = random_skew(weyl, rng)
    omega = weyl_calc.form(tuple(range(weyl_calc.N)), weyl_calc.P.one())
    form = right_multiply(weyl_calc, omega, f)
    assert Transport(weyl_calc).pi_omega(form) == f


def test_volume_qplane_twist_images(qplane_calc, qplane):
    q = qplane.ring.param("q")
    nu = qplane_calc.volume()
    assert nu.images[0] == qplane.gen(0).scale(q.inverse())
    assert nu.images[1] == qplane.gen(1).scale(q)


def test_volume_commutes_symbols(jordan_calc, jordan):
    nu = jordan_calc.volume()
    t_sk = jordan.from_coeff(jordan.ring.var(0))
    omega = jordan_calc.form(tuple(range(jordan_calc.N)), jordan_calc.P.one())
    lhs = jordan_calc.left_multiply(t_sk, omega)
    rhs = right_multiply(jordan_calc, omega, nu.apply(t_sk))
    assert lhs == rhs


# -- integrability -----------------------------------------------------------------------


# Each stage is decided by its certificate; the sampled check of the
# transport oracle agrees with it.


def test_integrability_weyl(weyl_calc):
    assert weyl_calc.integrability_check().ok
    assert Transport(weyl_calc).integrability_sampled(20, 3, random.Random(5)).ok


def test_integrability_poly2(poly2_calc):
    assert poly2_calc.integrability_check().ok
    assert Transport(poly2_calc).integrability_sampled(20, 3, random.Random(5)).ok


def test_integrability_jordan(jordan_calc):
    assert jordan_calc.integrability_check().ok
    assert Transport(jordan_calc).integrability_sampled(50, 4, random.Random(5)).ok


def test_integrability_qplane(qplane_calc):
    assert qplane_calc.integrability_check().ok
    assert Transport(qplane_calc).integrability_sampled(30, 3, random.Random(5)).ok


# -- transport and divergences ------------------------------------------------------------


def test_theta_round_trip(weyl_calc, weyl, rng):
    transport = Transport(weyl_calc)
    for k in range(weyl_calc.N + 1):
        for S in combinations(range(weyl_calc.N), k):
            form = weyl_calc.form(S, random_skew(weyl, rng, 3))
            phi = transport.theta(k, form)
            assert transport.theta_inv(k, phi) == form


def test_theta_rejects_a_form_of_another_degree(weyl_calc, weyl):
    with pytest.raises(ConfigError, match="form degree does not match the transport"):
        Transport(weyl_calc).theta(1, weyl_calc.form((0, 1), weyl.one()))


def test_divergence_requires_certificate():
    """Without a transport certificate the divergence checks are errors
    that name their missing prerequisite; with one, they pass."""
    calc = run_calculus_check(parse_presentation(NON_COMMUTING_TWISTS))
    for check in (calc.divergence_leibniz_check, calc.flatness_check):
        with pytest.raises(ConfigError, match=NO_INTEGRABILITY):
            check()
    weyl = run_calculus_check(corpus_doc("weyl"))
    assert weyl.divergence_leibniz_check().ok
    assert weyl.flatness_check().ok


def test_divergence_leibniz_weyl(weyl_calc):
    assert weyl_calc.divergence_leibniz_check().ok
    assert Transport(weyl_calc).divergence_leibniz_sampled(50, 3, random.Random(11)).ok


def test_divergence_leibniz_jordan(jordan_calc):
    assert jordan_calc.divergence_leibniz_check().ok
    assert Transport(jordan_calc).divergence_leibniz_sampled(30, 3, random.Random(11)).ok


def test_flatness_weyl_and_poly(weyl_calc, poly2_calc):
    for calc in (weyl_calc, poly2_calc):
        assert calc.flatness_check().ok
        assert Transport(calc).flatness_on_basis().ok


def test_flatness_vacuous_in_dimension_one(weyl_ore):
    """Below dimension two flatness is vacuous: it reads no certificate."""
    calc = build_calculus(weyl_ore, theorem_spec(weyl_ore))
    calc._require_transport_certificate = None  # calling it would raise
    out = calc.flatness_check()
    assert out.ok and out.data.get("vacuous")


def test_divergence_unit_case(weyl_calc, weyl):
    transport = Transport(weyl_calc)
    nabla = transport.bottom_divergence
    phi = transport.dual_basis((0,))
    lhs = nabla(transport.right_action(phi, weyl.one()))
    assert lhs == nabla(phi)


# -- work counts of the memoized divergence and twists ---------------------------------------


def _basis_key(k, phi):
    """``(k, S, tvec, e)`` when phi is a basis functional ``xi_S *
    t^tvec x^e``, else None."""
    if len(phi.terms) != 1:
        return None
    ((S, v),) = phi.terms.items()
    if len(v.terms) != 1:
        return None
    ((e, c),) = v.terms.items()
    if len(c.terms) != 1:
        return None
    ((tvec, s),) = c.terms.items()
    return (k, S, tvec, e) if s.is_unit() else None


@pytest.mark.parametrize("name", ["poly3", "aq", "jordan"])
def test_divergence_transports_each_basis_functional_once(name, monkeypatch):
    calc = run_calculus_check(corpus_doc(name))
    rng = random.Random(1729)
    keys = []
    original = Transport.theta_inv

    def recorded(self, k, phi):
        keys.append(_basis_key(k, phi))
        return original(self, k, phi)

    monkeypatch.setattr(Transport, "theta_inv", recorded)
    assert Transport(calc).divergence_leibniz_sampled(20, 3, rng).ok
    assert keys and None not in keys
    assert len(keys) == len(set(keys))


def test_repeated_divergence_is_not_transported_again(jordan_calc):
    rng = random.Random(7)
    transport = Transport(jordan_calc)
    phi = transport.theta(0, jordan_calc.form((), random_skew(jordan_calc.P, rng, 3)))
    first = transport.nabla(0, phi)
    transported, differentiated = {"theta_inv": 0}, {"differential": 0}
    _counting(transport, transported)
    _counting(jordan_calc, differentiated)
    assert transport.nabla(0, phi) == first
    assert (transported, differentiated) == ({"theta_inv": 0}, {"differential": 0})


def test_repeated_twist_makes_no_product(jordan_calc):
    P = jordan_calc.P
    f = random_skew(P, random.Random(8), 4)
    twist = jordan_calc.spec.dgens[0].twist
    first = twist.apply(f)
    calls = {"multiply": 0}
    _counting(P, calls)
    assert twist.apply(f) == first
    assert calls["multiply"] == 0


def test_unit_product_makes_no_reduction(jordan):
    f = random_skew(jordan, random.Random(9), 4)
    calls = {"push_coeff_left": 0, "_mul_monomials": 0}
    _counting(jordan, calls)
    assert jordan.multiply(jordan.one(), f) is f
    assert jordan.multiply(f, jordan.one()) is f
    assert calls == {"push_coeff_left": 0, "_mul_monomials": 0}


# -- negative controls: a wrong calculus fails the stage meant to catch it ---------------------


def _status(report, stage):
    return report.check(stage).status


def _negated_component(theta_inv):
    """``theta_inv`` with the ``du_(0..k-1)`` component of its output negated."""

    def negated(self, k, phi):
        out = theta_inv(self, k, phi)
        S = tuple(range(k))
        return DiffForm({T: -f if T == S else f for T, f in out.terms.items()})

    return negated


def _wedge_seven(P, spec):
    return replace(spec, wedge_signs={**spec.wedge_signs, (0, 1): P.ring.scalar(7)})


def _doubled_inverse(P, spec):
    """The first twist with its stored inverse's images doubled."""
    dg = spec.dgens[0]
    bad = AlgebraEndo(P, [img.scale(P.ring.scalar(2)) for img in dg.twist.inverse.images], check=False)
    twist = AlgebraEndo(P, dg.twist.images, inverse=bad, check=False)
    return replace(spec, dgens=[replace(dg, twist=twist)] + spec.dgens[1:])


def _product_rule_on_generators(transport):
    """The product rule of the bottom divergence on ``xi_i . s`` for every
    i and every frame symbol s."""
    calc = transport.calc
    return all(
        transport.product_rule_holds(xi, s, transport.bottom_divergence(xi), calc.d0(s))
        for xi in transport.integral_basis(1)
        for s in calc.P.frame()
    )


@pytest.mark.parametrize("name", CERTIFIED + tuple(WIDE_DOCS))
def test_negated_transport_component_fails_divergence_leibniz(name, monkeypatch):
    """What the transport certificate derives and does not evaluate, on the
    frame generators of every certified calculus: the expansion identity of
    ``expands`` on ``du_S s`` for every S of size N-1 (none when N = 1) and
    every frame symbol s, and the product rule of the bottom divergence on
    ``xi_i . s``.  These run the transport oracle's theta and theta_inv and
    the calculus's ``left_multiply`` and volume twist, so a ``theta_inv``
    that negates the ``du_(0..k-1)`` component of its output fails the
    product rule here.

    Dropping the alternating sign from ``theta`` alone is an equivalent
    mutant, not a blind spot: it multiplies the k-th divergence by
    ``(-1)^((N-1)(k+1))``, which is 1 for the bottom divergence (k + 1 = N,
    and N(N-1) is even), and flatness only tests that the composite of the
    two bottom divergences vanishes, which no sign changes."""
    calc = run_calculus_check(_doc(name))
    assert calc._failure("abcd") is None
    transport = Transport(calc)
    N = calc.N
    sets = combinations(range(N), N - 1) if N > 1 else ()
    assert all(transport.expands(S, s) for S in sets for s in calc.P.frame())
    assert _product_rule_on_generators(transport)
    monkeypatch.setattr(Transport, "theta_inv", _negated_component(Transport.theta_inv))
    assert not _product_rule_on_generators(Transport(run_calculus_check(_doc(name))))


@pytest.mark.parametrize("name", ["qplane", "qaffine3", "aq"])
def test_a_missing_d_squared_certificate_is_an_error_in_both_divergence_stages(name):
    """Without its wedge lines the document has d^2 != 0: (b) fails, and so
    does ``d-squared``, with the witnesses of its search.  Integrability
    needs only (a), (c) and (d), and passes.  The two divergence stages
    need (b) too; each is an error naming the first frame symbol s and
    index i at which (b) fails, and the two-form by which it does.  A (b)
    forced to hold would let both stages pass."""
    text = without_wedge(corpus_source(name))
    report = run_smooth(parse_presentation(text))
    assert (report.verdict, report.failing) == ("not-certified", ["d-squared", "divergence-leibniz", "flatness"])
    assert _status(report, "integrability") == "pass"
    calc = run_calculus_check(parse_presentation(text))
    witness = calc._twisting_failure()
    assert witness.startswith("d0(s) ^ du_i != d(du_i nu_i(s)) at s = ")
    for stage in ("divergence-leibniz", "flatness"):
        rec = report.check(stage)
        want = [f"divergence transport requested without a d^2 certificate: {witness}"]
        assert (rec.status, rec.witnesses, rec.data) == ("error", want, {}), stage
    # the transported curvature is nonzero on some ``xi_S * a b``, a and b
    # frame symbols
    transport = Transport(calc)
    P = calc.P
    assert any(
        not transport.bottom_divergence(transport.nabla(calc.N - 2, IntegralForm(2, {S: P.multiply(a, b)}))).is_zero()
        for S in combinations(range(calc.N), 2)
        for a in P.frame()
        for b in P.frame()
    )


def test_wedge_less_witnesses_name_the_pair():
    """The (b) witness of the wedge-less quantum plane, in full."""
    report = run_smooth(parse_presentation(without_wedge(corpus_source("qplane"))))
    assert report.check("flatness").witnesses == [
        "divergence transport requested without a d^2 certificate: d0(s) ^ du_i != d(du_i nu_i(s)) "
        "at s = x1, du_i = d(x2), difference d(x1)d(x2)*((q - 1)/(q))"
    ]


def _mutated_spec(monkeypatch, mutate):
    original = spbw.pipeline.calculus_spec_from_doc
    monkeypatch.setattr(
        spbw.pipeline, "calculus_spec_from_doc", lambda doc, P, *rest: mutate(P, original(doc, P, *rest))
    )


@pytest.mark.parametrize("name", ["aq", "qaffine3", "poly3", "jordan"])
def test_wrong_wedge_constant_fails_d_squared(name, monkeypatch):
    _mutated_spec(monkeypatch, _wedge_seven)
    report = run_smooth(corpus_doc(name))
    assert [_status(report, s) for s in ("compatibility", "d-squared")] == ["pass", "fail"]
    assert report.check("d-squared").witnesses[0].startswith("d^2 of ")


@pytest.mark.parametrize("name", CERTIFIED)
def test_wrong_twist_inverse_is_a_volume_error(name, monkeypatch):
    """The doubled inverse is rejected with the volume twist it builds, and
    it fails (c) or (d) of the transport certificate, so integrability
    fails naming the stored inverse of the first twist, and the divergence
    stages run without a passed integrability check."""
    _mutated_spec(monkeypatch, _doubled_inverse)
    report = run_smooth(corpus_doc(name))
    assert [_status(report, s) for s in ("d-squared", "connectedness", "volume")] == ["pass", "pass", "error"]
    assert "inverse does not undo" in report.check("volume").witnesses[0]
    integrability = report.check("integrability")
    assert integrability.status == "fail"
    dg = run_calculus_check(corpus_doc(name)).spec.dgens[0]
    (witness,) = integrability.witnesses
    assert witness.startswith(f"the stored inverse of the twist of d({dg.name}) does not ")
    _assert_divergence_stages_need_integrability(report)


def _doubled_first_image(P, spec):
    """The first twist with its image of the first generator doubled and
    its stored inverse's image of it halved, unchecked."""
    dg = spec.dgens[0]
    k = P.ring.nvars
    two = P.ring.scalar(2)

    def scaled(images, c):
        images = list(images)
        images[k] = images[k].scale(c)
        return images

    inv = AlgebraEndo(P, scaled(dg.twist.inverse.images, two.inverse()), check=False)
    twist = AlgebraEndo(P, scaled(dg.twist.images, two), inverse=inv, check=False)
    return replace(spec, dgens=[replace(dg, twist=twist)] + spec.dgens[1:])


def test_volume_twist_off_the_sigma_composite_fails_volume(monkeypatch):
    """A twist that scales x1 gives a volume twist that is an invertible
    algebra map but not the composite of the (identity) sigma maps."""
    _mutated_spec(monkeypatch, _doubled_first_image)
    rec = run_smooth(corpus_doc("poly2")).check("volume")
    assert (rec.status, rec.data) == ("fail", {"matches_sigma_composition": False})


SIGN_SIGMA = """name signsigma
coeffs t
gens x1
sigma x1: t -> -1*t
calculus mode=theorem
"""


def test_volume_follows_a_sigma_that_moves_a_coefficient_variable():
    """Compatibility asks ``nu_1(sigma_1(t)) = t`` of the plain twist, the
    lift of sigma_1, so a sigma that moves t reaches the volume stage when
    it is an involution.  nu then sends t to -t, as the composite does."""
    doc = parse_presentation(SIGN_SIGMA)
    rec = run_smooth(doc).check("volume")
    assert (rec.status, rec.data) == ("pass", {"matches_sigma_composition": True})
    calc = run_calculus_check(doc)
    t = calc.P.from_coeff(calc.P.ring.var(0))
    assert calc.volume().images[0] == -t


def _inverse_sigma_on_t(P, spec):
    """The first twist with t sent to sigma_1^-1(t) = t/2 and its stored
    inverse with t sent to 2t, unchecked: compatibility then holds for
    ``sigma x1: t -> 2*t``, which the lift of sigma_1 fails."""
    dg = spec.dgens[0]
    t = P.from_coeff(P.ring.var(0))

    def at_t(images, c):
        return [t.scale(c)] + list(images[1:])

    two = P.ring.scalar(2)
    inv = AlgebraEndo(P, at_t(dg.twist.inverse.images, two), check=False)
    twist = AlgebraEndo(P, at_t(dg.twist.images, two.inverse()), inverse=inv, check=False)
    return replace(spec, dgens=[replace(dg, twist=twist)] + spec.dgens[1:])


def test_volume_twist_off_the_sigma_composite_on_t_fails_volume(monkeypatch):
    _mutated_spec(monkeypatch, _inverse_sigma_on_t)
    doc = parse_presentation(SIGN_SIGMA.replace("-1*t", "2*t"))
    report = run_smooth(doc)
    assert _status(report, "compatibility") == "pass"
    rec = report.check("volume")
    assert (rec.status, rec.data) == ("fail", {"matches_sigma_composition": False})


def _count_calls(monkeypatch, fn):
    """Rebind ``fn`` at every spbw module that binds it, as the benchmark's
    tracer does, to a wrapper that counts its calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "spbw" or name.startswith("spbw."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("name", ["weyl", "poly3", "weyl2", "poly5"])
def test_plain_twist_calculus_is_built_once(name, monkeypatch):
    """A theorem-mode run evaluates the hypotheses once: the hypotheses
    stage, each ``extend_sigma`` of ``theorem_spec`` and ``build_calculus``
    read the one report kept on the presentation, so the commutation system
    is audited once.  The run builds each lift, its inverse, the volume
    twist and its inverse once: 2n + 2 maps."""
    doc = parse_presentation(WIDE_DOCS[name]) if name in WIDE_DOCS else corpus_doc(name)
    checks = _count_calls(monkeypatch, commutation_audit)
    maps = []
    init = AlgebraEndo.__init__

    def counted_init(self, *args, **kwargs):
        maps.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraEndo, "__init__", counted_init)
    report = run_smooth(doc)
    assert report.verdict == "certified-smooth"
    n = len(doc.gens)
    assert (len(checks), len(maps)) == (1, 2 * n + 2)


@pytest.mark.parametrize("name", ["weyl", "jordan", "aq"])
def test_hypotheses_are_evaluated_once_per_presentation(name, monkeypatch):
    """``hypothesis_check`` keeps its report on the presentation: a second
    call returns the same report with no second audit, and a presentation
    built afresh from the same document gets a report of its own.  A flat
    mode run audits once as well."""
    doc = corpus_doc(name)
    audits = _count_calls(monkeypatch, commutation_audit)
    P = build_presentation(doc)
    report = hypothesis_check(P)
    assert hypothesis_check(P) is report
    assert len(audits) == 1
    fresh = hypothesis_check(build_presentation(doc))
    assert fresh is not report and fresh == report
    assert len(audits) == 2
    run_smooth(doc)
    assert len(audits) == 3


# -- the transport certificate against the sampled checks ---------------------------------------
#
# The sampled integrability and product-rule checks and the unit-basis walk
# of flatness stay the oracle, as the degree-6 loop does for d^2.  On every
# calculus here the certificate holds exactly when d^2 is certified from the
# generators and the three sampled stages pass.


def _sampled_stages_pass(calc):
    """The three stages by the sampled checks of the transport oracle, at
    the budget and seed the pipeline used to sample with."""
    rng = random.Random(1729)
    transport = Transport(calc)
    try:
        ok = transport.integrability_sampled(50, 4, rng).ok
    except NotAVolumeFormError:
        return False
    if not (ok and transport.divergence_leibniz_sampled(50, 4, rng).ok):
        return False
    return calc.N < 2 or transport.flatness_on_basis().ok


def _certificate_agrees(calc):
    sampled = _sampled_stages_pass(calc)
    certified = calc._failure("abcd") is None
    assert certified == (calc._failure("ab") is None and sampled)
    return certified


def _doc(name):
    for docs in (WIDE_DOCS, UN2_PRODUCT_DOCS):
        if name in docs:
            return parse_presentation(docs[name])
    return corpus_doc(name)


@pytest.mark.parametrize("name", CERTIFIED + tuple(WIDE_DOCS))
def test_transport_certificate_agrees_with_the_sampled_stages(name):
    doc = _doc(name)
    P = build_presentation(doc)
    spec = calculus_spec_from_doc(doc, P)
    assert _certificate_agrees(build_calculus(P, spec))
    for mutate in (_wedge_seven, _doubled_inverse):
        assert not _certificate_agrees(build_calculus(P, mutate(P, spec)))


def _grid_calculi():
    """The compatible calculi of the Ore grid, each member with and without
    its wedge line."""
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    for qs, r, ps in grid():
        source = ore_document(ring, *grid_member(ring, qs, r, ps))
        for text in (source, without_wedge(source)):
            try:
                calc = run_calculus_check(parse_presentation(text))
            except (MapError, CompatibilityError):
                continue
            yield calc


def test_transport_certificate_agrees_with_the_sampled_stages_on_ore_grid():
    outcomes = {True: 0, False: 0}
    for calc in _grid_calculi():
        outcomes[_certificate_agrees(calc)] += 1
    # the 14 members whose d^2 needs the wedge line fail without it
    assert outcomes == {True: 42, False: 14}
    probe = run_calculus_check(parse_presentation(NON_COMMUTING_TWISTS))
    assert not _certificate_agrees(probe)


@pytest.mark.parametrize("name", CERTIFIED + tuple(WIDE_DOCS))
def test_passing_transport_certificate_draws_nothing(name):
    """No stage samples: no module of the package imports ``random``, and a
    run's report is the same whatever ``seed`` says, apart from the echoed
    value itself."""
    assert not [m for m in sys.modules if m.startswith("spbw") and "random" in vars(sys.modules[m])]
    doc = _doc(name)
    report = run_smooth(doc)
    assert report.verdict == "certified-smooth"
    echoed = run_smooth(replace(doc, options={**doc.options, "seed": 7})).to_dict()
    assert echoed["config"] == {**report.config, "seed": 7}
    echoed["config"] = report.config
    for rec, want in zip(echoed["checks"], report.to_dict()["checks"]):
        rec["seconds"] = want["seconds"]
    assert echoed == report.to_dict()


def test_certificate_fails_where_the_curvature_is_not_zero():
    """Without its wedge constant the quantum plane has d^2 != 0, so the
    certificate fails.  The curvature is then nonzero on a functional that
    carries a coefficient, ``nabla0(nabla1(xi_01 x1 x2)) = d^2(x1 x2)``,
    although the unit dual basis that the old fallback walked sees none.
    Integrability holds, since it needs no (b), and the flatness stage is an
    error naming the (b) failure."""
    doc = corpus_doc("qplane")
    P = build_presentation(doc)
    calc = build_calculus(P, replace(calculus_spec_from_doc(doc, P), wedge_signs={}))
    assert calc._failure("abcd") is not None
    assert calc.integrability_check().ok
    with pytest.raises(ConfigError, match="without a d\\^2 certificate: d0\\(s\\) \\^ du_i"):
        calc.flatness_check()
    transport = Transport(calc)
    assert transport.flatness_on_basis().ok
    x1x2 = P.multiply(P.gen(0), P.gen(1))
    curvature = transport.bottom_divergence(transport.nabla(0, IntegralForm(2, {(0, 1): x1x2})))
    assert P.render(curvature) == "(-q + 1)/(q)"
    assert calc.render_form(calc.differential(calc.d0(x1x2))) == "d(x1)d(x2)*((-q + 1)/(q))"
    assert not calc.d_squared_check(4).ok


def test_a_stored_inverse_that_breaks_a_relation_fails_the_certificate(qplane):
    """(c) of the certificate on its own: the stored inverse of the x1 twist
    sends x2 to x2 + 1, which does not respect x2 x1 = q x1 x2."""
    spec = qplane_flat_spec(qplane)
    dg = spec.dgens[0]
    images = (qplane.gen(0), dg.twist.inverse.images[1] + qplane.one())
    inverse = AlgebraEndo(qplane, images, check=False)
    twist = AlgebraEndo(qplane, dg.twist.images, inverse=inverse, check=False)
    calc = build_calculus(qplane, replace(spec, dgens=[replace(dg, twist=twist)] + spec.dgens[1:]))
    assert calc._failure("ab") is None
    witness = "the stored inverse of the twist of d(x1) does not respect relation x2*x1"
    assert calc._inverse_breaking_a_relation() == witness
    assert calc._failure("abcd") is not None
    assert calc.integrability_check().witnesses == [witness]
    assert build_calculus(qplane, qplane_flat_spec(qplane))._inverse_breaking_a_relation() is None


def test_a_stored_inverse_that_does_not_undo_its_twist_fails_the_certificate(qplane):
    """(d) of the certificate on its own: the stored inverse of the x1 twist
    is the identity, an algebra map that leaves ``nu_1(x2) = q x2`` as it
    is."""
    spec = qplane_flat_spec(qplane)
    dg = spec.dgens[0]
    identity = AlgebraEndo(qplane, qplane.frame(), check=False)
    twist = AlgebraEndo(qplane, dg.twist.images, inverse=identity, check=False)
    calc = build_calculus(qplane, replace(spec, dgens=[replace(dg, twist=twist)] + spec.dgens[1:]))
    assert calc._failure("ab") is None
    assert calc._inverse_breaking_a_relation() is None
    witness = "the stored inverse of the twist of d(x1) does not undo it on x2"
    assert calc._inverse_not_undoing_its_twist() == witness
    assert calc._failure("abcd") is not None
    assert calc.integrability_check().witnesses == [witness]
    assert build_calculus(qplane, qplane_flat_spec(qplane))._inverse_not_undoing_its_twist() is None


def test_round_trips_skip_only_the_side_the_construction_verified(qplane):
    """A checked twist verified ``nu^-1(nu(s)) = s`` for the inverse it was
    built with, so (d) does not apply that inverse again; an inverse stored
    afterwards, even with the same images, is applied on every symbol."""
    spec = qplane_flat_spec(qplane)
    assert all(dg.twist._verified_inverse is dg.twist.inverse for dg in spec.dgens)
    calc = build_calculus(qplane, spec)
    calls = {"apply": 0}
    for dg in spec.dgens:
        _counting(dg.twist.inverse, calls)
    assert calc._inverse_not_undoing_its_twist() is None
    assert calls == {"apply": 0}
    twist = spec.dgens[0].twist
    twist.inverse = AlgebraEndo(qplane, twist.inverse.images, check=False)
    _counting(twist.inverse, calls)
    assert calc._inverse_not_undoing_its_twist() is None
    assert calls == {"apply": len(qplane.frame())}


# -- what the certificate derives instead of checking ----------------------------------------------
#
# The certificate computes no transport: (d) inverts the twists on the
# frame.  That the transports undo each other in every degree follows from
# the per-degree signs and crossing factors of ``theta`` and ``theta_inv``,
# the formulas of the certificate's argument; these tests pin the transport
# oracle that computes them in every degree on every calculus that passes.


def _transport_holds_in_every_degree(calc):
    """In every degree k: the two round trips on ``du_S f``, ``xi_C f`` and
    ``xi_C . f`` for f the unit and each frame symbol; ``theta_inv(k)`` right
    linear on ``xi_C . s``; and the expansion identity on ``du_S s`` for
    0 < k < N."""
    P, N = calc.P, calc.N
    transport = Transport(calc)
    coeffs = (P.one(),) + P.frame()
    for k in range(N + 1):
        for S in combinations(range(N), k):
            for f in coeffs:
                form = calc.form(S, f)
                assert transport.theta_inv(k, transport.theta(k, form)) == form
            if 0 < k < N:
                assert all(transport.expands(S, s) for s in P.frame())
        for C in combinations(range(N), N - k):
            xi = transport.dual_basis(C)
            base = transport.theta_inv(k, xi)
            for f in coeffs:
                acted = transport.right_action(xi, f)
                for phi in (IntegralForm(N - k, {C: f}), acted):
                    assert transport.theta(k, transport.theta_inv(k, phi)) == phi
                assert transport.theta_inv(k, acted) == right_multiply(calc, base, f)


@pytest.mark.parametrize("name", CERTIFIED + tuple(WIDE_DOCS))
def test_transport_inverts_in_every_degree(name):
    calc = run_calculus_check(_doc(name))
    assert calc._failure("abcd") is None
    _transport_holds_in_every_degree(calc)


def test_transport_inverts_in_every_degree_on_ore_grid():
    certified = [calc for calc in _grid_calculi() if calc._failure("abcd") is None]
    assert len(certified) == 42
    for calc in certified:
        _transport_holds_in_every_degree(calc)


@pytest.mark.parametrize("name", ["poly5", "qaffine4"])
def test_certificate_transports_only_inside_the_bottom_divergence(name):
    """A passing certificate transports nothing and expands no form; it
    multiplies forms on the left and differentiates them in (b).  The
    product rule it derives transports only inside the bottom divergence:
    ``theta`` in degree N and ``theta_inv`` in degree N-1."""
    calc = run_calculus_check(_doc(name))
    transport = Transport(calc)
    N = calc.N
    calls = {"left_multiply": 0, "differential": 0}
    _counting(calc, calls)
    seen = {"theta": set(), "theta_inv": set(), "expands": set()}
    for attr, degrees in seen.items():
        def recorded(first, second, _method=getattr(transport, attr), _degrees=degrees):
            _degrees.add(first if isinstance(first, int) else len(first))
            return _method(first, second)
        setattr(transport, attr, recorded)
    assert calc._failure("abcd") is None
    assert seen == {"theta": set(), "theta_inv": set(), "expands": set()}
    assert calls["left_multiply"] > 0 and calls["differential"] > 0
    assert _product_rule_on_generators(transport)
    assert seen == {"theta": {N}, "theta_inv": {N - 1}, "expands": set()}


def _theta_by_definition(transport, k, w):
    """``theta(k)(w)(du_T) = e_k pi(w ^ du_T)`` on every set T of size N-k,
    in increasing order."""
    calc = transport.calc
    values = {}
    for T in combinations(range(calc.N), calc.N - k):
        val = transport.pi_omega(calc.wedge(w, calc.form(T, calc.P.one())))
        if ((calc.N - 1) * k) % 2:
            val = -val
        if not val.is_zero():
            values[T] = val
    return IntegralForm(calc.N - k, values)


def _action_by_definition(transport, phi, a):
    """``(phi . a)(du_T) = phi(a du_T)`` on every set T of phi's degree, in
    increasing order."""
    calc = transport.calc
    values = {}
    for T in combinations(range(calc.N), phi.degree):
        val = transport.evaluate(phi, calc.wedge(calc.form((), a), calc.form(T, calc.P.one())))
        if not val.is_zero():
            values[T] = val
    return IntegralForm(phi.degree, values)


def _same_functional(transport, got, want):
    assert got == want
    assert list(got.terms) == list(want.terms)
    assert transport.render_functional(got) == transport.render_functional(want)


def _formulas_match_their_definitions(calc, rng):
    """``theta(k)`` on every ``du_S f`` and on forms of random support, and
    ``phi . a`` on every ``xi_C`` and on functionals of random support, in
    every degree, for f and a the unit, each frame symbol and random
    elements."""
    P, N = calc.P, calc.N
    transport = Transport(calc)
    coeffs = (P.one(),) + P.frame() + tuple(random_skew(P, rng, 2, max_terms=2) for _ in range(2))

    def random_support(degree, coeff):
        sets = list(combinations(range(N), degree))
        chosen = rng.sample(sets, rng.randint(1, len(sets)))
        return {S: coeff() for S in sorted(chosen)}

    for k in range(N + 1):
        forms = [calc.form(S, f) for S in combinations(range(N), k) for f in coeffs]
        forms += [DiffForm(random_support(k, lambda: random_skew(P, rng, 1, max_terms=2))) for _ in range(3)]
        for w in forms:
            _same_functional(transport, transport.theta(k, w), _theta_by_definition(transport, k, w))
        functionals = transport.integral_basis(k)
        functionals += [
            IntegralForm(k, random_support(k, lambda: random_skew(P, rng, 2, max_terms=2))) for _ in range(3)
        ]
        for phi in functionals:
            for a in coeffs:
                _same_functional(transport, transport.right_action(phi, a), _action_by_definition(transport, phi, a))


@pytest.mark.parametrize("name", CERTIFIED + tuple(WIDE_DOCS))
def test_dual_action_visits_only_the_sets_that_meet_the_support(name):
    """``theta(k)(w)`` is the dual action ``(phi . w)(w') = phi(w ^ w')`` of
    w on the top functional pi, up to the sign e_k, and ``phi . a`` that of
    a 0-form.  The transport oracle computes both by formula on the sets the
    support names; here they match the definitions swept over every basis
    set."""
    _formulas_match_their_definitions(run_calculus_check(_doc(name)), random.Random(4242))


def test_dual_action_visits_only_the_sets_that_meet_the_support_on_ore_grid():
    certified = [calc for calc in _grid_calculi() if calc._failure("abcd") is None]
    assert len(certified) == 42
    rng = random.Random(4242)
    for calc in certified:
        _formulas_match_their_definitions(calc, rng)


# -- frame-level objects are built once ------------------------------------------------------
#
# The d^2 certificate's loops rebuild nothing that does not change inside
# them, and the product rule on the frame generators transports each basis
# functional once; each check still runs on every frame symbol and every
# twist.

ONCE = ["poly5", "qaffine4", "aq", "jordan"]


def _recording(calc, attr, seen):
    """Shadow one method of ``calc`` with a wrapper that records its
    arguments in ``seen``, after the name of the calling function."""
    method = getattr(calc, attr)

    def recorded(*args):
        seen.append((sys._getframe(1).f_code.co_name,) + args)
        return method(*args)

    setattr(calc, attr, recorded)


@pytest.mark.parametrize("name", ONCE)
def test_product_rule_takes_each_frame_invariant_once(name):
    """The product rule on every ``xi_i . s`` gets d0 of each frame symbol
    as the one one-form stored in ``_d0_forms``, and transports the
    divergence of each basis functional once, into ``nabla_memo``, the
    unit functionals ``xi_i`` in order: a second sweep transports
    nothing."""
    calc = run_calculus_check(_doc(name))
    frame = calc.P.frame()
    d0_forms = []
    d0 = calc.d0

    def recorded_d0(f):
        form = d0(f)
        d0_forms.append((f, form))
        return form

    calc.d0 = recorded_d0
    transport = Transport(calc)
    transported = []
    _recording(transport, "theta_inv", transported)
    assert _product_rule_on_generators(transport)
    first = list(transported)
    assert _product_rule_on_generators(transport)
    assert transported == first
    assert len(first) == len(transport.nabla_memo)
    units = transport.integral_basis(1)
    assert [phi for _, _, phi in first if phi in units] == units
    for s in frame:
        forms = [form for f, form in d0_forms if f == s]
        assert len(forms) >= 2 * calc.N
        assert all(form is forms[0] for form in forms)


@pytest.mark.parametrize("name", ONCE)
def test_d_respects_twisting_builds_each_unit_form_once(name):
    """(b) takes the N unit forms ``du_i`` from ``_unit_forms``, and so does
    each of its N * nsyms ``differential`` calls: each unit form is built
    once.  Its other one-forms are the products ``du_i nu_i(s)`` of
    ``left_multiply``, one per frame symbol and twist, and its wedges of
    one-forms make two-forms."""
    calc = run_calculus_check(_doc(name))
    made = []
    _recording(calc, "form", made)
    assert calc._twisting_failure() is None
    ones = [(caller, S) for caller, S, f in made if len(S) == 1]
    assert [S for caller, S in ones if caller == "_unit_form"] == [(i,) for i in range(calc.N)]
    assert len(ones) == calc.N + calc.N * calc.nsyms


def _form_representation(form):
    """Every key of a form and every stored fraction of its coefficients."""
    return {
        S: {e: {t: (s.num, s.den) for t, s in c.terms.items()} for e, c in f.terms.items()}
        for S, f in form.terms.items()
    }


@pytest.mark.parametrize("name", ONCE)
def test_d0_of_a_monomial_is_its_memoized_form(name):
    """d0 of a normal monomial with a weight of value one, the literal unit
    or ``q/q``, is the form of its memoized coordinates, built once; any
    other weight is multiplied into every coordinate."""
    calc = run_calculus_check(_doc(name))
    ring = calc.P.ring
    ones, others = [ring.sone()], [ring.scalar(3)]
    if ring.nparams:
        q = Scalar.param(ring.nparams, 0)
        ones.append(q * q.inverse())
        others.append(q + ring.sone())
    for expo in exponents_upto(calc.nsyms, 3):
        monomial = calc._monomial(expo)
        want = _form_representation(calc._form(calc._d_monomial(expo)))
        first = calc.d0(monomial)
        for w in ones:
            got = calc.d0(monomial.scale(w))
            assert got is first
            assert _form_representation(got) == want
        for c in others:
            scaled = {key: v * c for key, v in calc._d_monomial(expo).items()}
            got = calc.d0(monomial.scale(c))
            assert _form_representation(got) == _form_representation(calc._form(scaled))
