import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spbw.calculus import build_calculus
from spbw.coefficients import CoeffEndo, CoeffRing, CoeffSigmaDerivation, apply_endo
from spbw.core import Presentation, exponents_upto
from spbw.corpus import CORPUS_NAMES, corpus_doc
from spbw.dsl import build_presentation, parse_presentation
from spbw.gkdim import check_filtration_compatible
from spbw.errors import HypothesisError, MapError, SpbwError, UnsupportedPresentationError
from spbw.extended import AlgebraEndo, _rescaling, auto_inverse, extend_sigma, frame_affine_inverse, hypothesis_check
from spbw.ore import ore_document
from spbw.pipeline import calculus_spec_from_doc, run_calculus_check

from conftest import (
    GRID_P,
    WIDE_DOCS,
    compose,
    grid,
    grid_member,
    is_identity,
    lift_delta,
    product_chain,
    random_skew,
    relation_broken_by_products,
    rescaling_by_frame_coordinates,
    sweep_texts,
    twisted_leibniz_witness,
)


def test_hypothesis_weyl_all_pass(weyl):
    rep = hypothesis_check(weyl)
    assert rep.proposition_ok and rep.theorem_ok and not rep.failures


def test_hypothesis_jordan_h_block(jordan):
    rep = hypothesis_check(jordan)
    assert rep.proposition_ok
    assert rep.theorem_ok  # one generator: no pair relations at all


def test_hypothesis_qplane_t1_fails(qplane):
    rep = hypothesis_check(qplane)
    assert rep.proposition_ok
    assert not rep.t1_relations_trivial
    assert not rep.theorem_ok
    assert any("is not 1" in f for f in rep.failures)


def test_extend_sigma_fixes_scalars_and_generators(qplane_ore):
    lift = extend_sigma(qplane_ore, 0)
    f = qplane_ore.monomial((2,), qplane_ore.ring.const(3))
    assert lift.apply(f) == f


def test_extend_sigma_identity_on_jordan(jordan):
    lift = extend_sigma(jordan, 0)
    assert is_identity(lift)


def test_extend_sigma_coefficientwise(qplane_ore):
    q = qplane_ore.ring.param("q")
    t = qplane_ore.ring.var(0)
    lift = extend_sigma(qplane_ore, 0)
    f = qplane_ore.monomial((1,), t)
    assert lift.apply(f) == qplane_ore.monomial((1,), t.scale(q))


def test_extend_delta_kills_generators(jordan):
    lift = lift_delta(jordan, 0)
    assert lift(jordan.monomial((3,))).is_zero()
    assert lift(jordan.const(5)).is_zero()


def test_extend_delta_coefficientwise(jordan):
    t = jordan.ring.var(0)
    lift = lift_delta(jordan, 0)
    assert lift(jordan.monomial((1,), t)) == jordan.monomial((1,), t * t)


def test_extended_maps_restrict_to_base(jordan, qplane_ore):
    for P in (jordan, qplane_ore):
        from spbw.coefficients import apply_endo, apply_sder

        sig, dele = extend_sigma(P, 0), lift_delta(P, 0)
        for j in range(P.ring.nvars):
            v = P.ring.var(j)
            assert sig.apply(P.from_coeff(v)) == P.from_coeff(apply_endo(P.sigma[0], v))
            assert dele(P.from_coeff(v)) == P.from_coeff(apply_sder(P.delta[0], v))


def test_verify_twisted_leibniz_zero_delta(qplane_ore):
    rng = random.Random(7)
    sig = extend_sigma(qplane_ore, 0)
    assert twisted_leibniz_witness(qplane_ore, sig.apply, lift_delta(qplane_ore, 0), 20, 3, rng) is None


def test_verify_twisted_leibniz_jordan(jordan):
    rng = random.Random(7)
    sig = extend_sigma(jordan, 0)
    assert twisted_leibniz_witness(jordan, sig.apply, lift_delta(jordan, 0), 100, 4, rng) is None


def test_verify_twisted_leibniz_detects_corruption(weyl_ore):
    # a buggy lift: the generator image 1 spliced in without the
    # product-rule corrections
    P = weyl_ore
    lift = lift_delta(P, 0)

    def corrupt(f):
        out = lift(f)
        for e, c in f.terms.items():
            if e[0]:
                out = out + P.monomial((e[0] - 1,), c)
        return out

    rng = random.Random(7)
    assert twisted_leibniz_witness(P, extend_sigma(P, 0).apply, corrupt, 100, 4, rng) is not None


def test_algebra_endo_rejects_relation_breaker(weyl):
    # swapping the two generators does not respect x2 x1 = x1 x2 - 1
    with pytest.raises(ValueError):
        AlgebraEndo(weyl, (weyl.gen(1), weyl.gen(0)))


# The second Weyl algebra over F[t1, t2]: x_i t_i = t_i x_i + 1 and every
# other pair commutes.  Each row changes one frame image so that exactly one
# defining relation, of each kind in turn, is no longer respected.
WEYL_A2 = "name a2\ncoeffs t1 t2\ngens x1 x2\ndelta x1: t1 -> 1\ndelta x2: t2 -> 1\nrel x2 x1 = x1 x2\n"


@pytest.mark.parametrize("symbol, image, message", [
    (2, lambda t1, t2, x1, x2: x1 + t2, "relation x2*x1 not respected"),
    (3, lambda t1, t2, x1, x2: x2 + x2, "relation x2*t2 not respected"),
    (0, lambda t1, t2, x1, x2: t1 + x2, "relation t2*t1 not respected"),
], ids=["generator-pair", "generator-variable", "variable-pair"])
def test_twist_breaking_one_relation_names_it(symbol, image, message):
    P = build_presentation(parse_presentation(WEYL_A2))
    images = list(P.frame())
    images[symbol] = image(*images)
    with pytest.raises(MapError) as err:
        AlgebraEndo(P, images)
    assert str(err.value) == message


def test_algebra_endo_compose_images(qplane):
    q = qplane.ring.param("q")
    nu1 = AlgebraEndo(qplane, (qplane.gen(0), qplane.gen(1).scale(q)))
    nu2 = AlgebraEndo(qplane, (qplane.gen(0).scale(q.inverse()), qplane.gen(1)))
    both = compose(nu1, nu2)
    assert both.images[0] == qplane.gen(0).scale(q.inverse())
    assert both.images[1] == qplane.gen(1).scale(q)


def test_lifted_sigmas_commute_under_t2(qplane):
    lifts = [extend_sigma(qplane, i) for i in range(qplane.n)]
    assert compose(lifts[0], lifts[1]).images == compose(lifts[1], lifts[0]).images


def test_frame_affine_inverse_shear(jordan):
    t_sk = jordan.from_coeff(jordan.ring.var(0))
    two_t = t_sk.scale(jordan.ring.scalar(2))
    images = (t_sk, jordan.gen(0) + two_t)
    inv = frame_affine_inverse(jordan, images)
    assert inv is not None
    endo = AlgebraEndo(jordan, images, inverse=AlgebraEndo(jordan, inv, check=False))
    assert endo.inverse.images[1] == jordan.gen(0) - two_t


def test_frame_affine_inverse_swap():
    # x <-> y swap with a parameter weight inverts exactly
    ring = CoeffRing(params=("s",), coeff_vars=("x", "y"))
    s = ring.param("s")
    sigma = CoeffEndo((ring.var(1), ring.var(0).scale(s * s)), (ring.var(1).scale((s * s).inverse()), ring.var(0)))
    delta = CoeffSigmaDerivation((ring.zero(), ring.zero()), sigma)
    P = Presentation(ring, ("z",), (sigma,), (delta,), {})
    x, y = P.from_coeff(ring.var(0)), P.from_coeff(ring.var(1))
    images = (y.scale((s * s).inverse()), x, P.gen(0))
    inv = frame_affine_inverse(P, images)
    assert inv is not None
    AlgebraEndo(P, images, inverse=AlgebraEndo(P, inv, check=False))


def test_frame_affine_inverse_rejects_square(jordan):
    t = jordan.ring.var(0)
    assert frame_affine_inverse(jordan, (jordan.from_coeff(t * t), jordan.gen(0))) is None


def test_frame_affine_inverse_rejects_singular(jordan):
    t_sk = jordan.symbol(0)
    assert frame_affine_inverse(jordan, (t_sk, t_sk + jordan.one())) is None


def test_triangular_inverse_nonlinear_shear(jordan):
    # x -> x + 3 t^2 is not frame-affine but inverts triangularly
    t = jordan.ring.var(0)
    img = jordan.gen(0) + jordan.from_coeff((t * t).scale(jordan.ring.scalar(3)))
    inv = auto_inverse(jordan, jordan.frame()[:1] + (img,))
    assert inv is not None
    assert inv[1] == jordan.gen(0) - jordan.from_coeff((t * t).scale(jordan.ring.scalar(3)))


def test_extend_sigma_requires_h_block():
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    q = ring.param("q")
    sigma = CoeffEndo((ring.var(0).scale(q),))
    delta = CoeffSigmaDerivation((ring.one(),), sigma)  # sigma delta != delta sigma
    P = Presentation(ring, ("x",), (sigma,), (delta,), {})
    with pytest.raises(HypothesisError):
        extend_sigma(P, 0)


def test_commutation_failures_keep_their_order_across_all_four_families():
    source = (
        "name order\ncoeffs t\ngens x1 x2\nsigma x1: t -> t + 1\ndelta x1: t -> 1\n"
        "sigma x2: t -> 2*t\ndelta x2: t -> t^2\nrel x2 x1 = x1 x2\n"
    )
    rep = hypothesis_check(build_presentation(parse_presentation(source)))
    assert rep.failures == [
        "sigma-sigma pair (0, 1)",
        "delta-delta pair (0, 1)",
        "delta-sigma pair (0, 1)",
        "delta-sigma pair (1, 0)",
        "sigma-delta pair 1",
    ]
    assert not (rep.h1_sigma_delta_diag or rep.h2_delta_delta or rep.h3_delta_sigma or rep.t2_sigma_sigma)
    assert rep.h4_delta_kills_constants and rep.t1_relations_trivial


# Each row: a document, the hypothesis failures in the order reported, and
# the filtration refusal (None when the relations are filtration compatible).
# Every relation piece the checks name is pinned: d, r0 and a linear tail rk.
_SHAPE = "name h\ncoeffs t\n"
SHAPE_ROWS = [
    pytest.param(
        _SHAPE + "gens x1 x2\ndelta x1: t -> 1\nrel x2 x1 = t*x1 x2\n",
        ["delta_x1 does not kill d of relation (x2,x1)", "d of relation (x2,x1) is not 1"],
        "leading coefficient of relation (x2,x1) has positive degree",
        id="d"),
    pytest.param(
        _SHAPE + "gens x1 x2\ndelta x1: t -> 1\nrel x2 x1 = x1 x2 + t^3\n",
        ["delta_x1 does not kill r0 of relation (x2,x1)"],
        "constant tail of relation (x2,x1) too large",
        id="r0"),
    pytest.param(
        _SHAPE + "gens x1 x2\ndelta x2: t -> 1\nrel x2 x1 = x1 x2 + t^2*x1\n",
        ["delta_x2 does not kill r1 of relation (x2,x1)", "linear tail r1 of relation (x2,x1) is nonzero"],
        "linear tail r1 of relation (x2,x1) too large",
        id="rk"),
    pytest.param(
        _SHAPE + "gens x1 x2 x3\ndelta x3: t -> 1\nrel x2 x1 = 2*x1 x2 + t*x3 + t\n"
        "rel x3 x1 = x1 x3 + x2\nrel x3 x2 = (t + 1)*x2 x3 + t^2*x1 + x3\n",
        ["delta_x3 does not kill r0 of relation (x2,x1)",
         "delta_x3 does not kill r3 of relation (x2,x1)",
         "delta_x3 does not kill d of relation (x3,x2)",
         "delta_x3 does not kill r1 of relation (x3,x2)",
         "d of relation (x2,x1) is not 1",
         "linear tail r3 of relation (x2,x1) is nonzero",
         "linear tail r2 of relation (x3,x1) is nonzero",
         "d of relation (x3,x2) is not 1",
         "linear tail r1 of relation (x3,x2) is nonzero",
         "linear tail r3 of relation (x3,x2) is nonzero"],
        "leading coefficient of relation (x3,x2) has positive degree",
        id="three-generators"),
    pytest.param(
        _SHAPE + "gens x1 x2\nrel x2 x1 = 3*x1 x2 + t^2 + t*x2\n",
        ["d of relation (x2,x1) is not 1", "linear tail r2 of relation (x2,x1) is nonzero"],
        None,
        id="compatible"),
    pytest.param(
        _SHAPE + "gens x1\nsigma x1: t -> t^2\n", [], "sigma of x1 raises the degree of t", id="sigma"),
    pytest.param(
        _SHAPE + "gens x1\ndelta x1: t -> t^3\n", [],
        "delta of x1 overshoots the degree of the pair x1*t", id="delta"),
]


@pytest.mark.parametrize("source, failures, filtration", SHAPE_ROWS)
def test_relation_shape_failure_texts(source, failures, filtration):
    P = build_presentation(parse_presentation(source))
    assert hypothesis_check(P).failures == failures
    if filtration is None:
        check_filtration_compatible(P)
    else:
        with pytest.raises(UnsupportedPresentationError) as err:
            check_filtration_compatible(P)
        assert str(err.value) == filtration


# -- rescaling twists -----------------------------------------------------------------


# the members x t = q t x + p with a constant p whose twists respect the relations
DIAGONAL_ORE = [("1", "0"), ("1", "1"), ("1", "5"), ("2", "0"), ("-1", "0"), ("q", "0")]
ALL_RESCALE = ("poly2", "poly3", "weyl", "qplane", "qaffine3")
RESCALING_CASES = (
    [("corpus", name) for name in CORPUS_NAMES if name != "broken"]
    + [("wide", name) for name in WIDE_DOCS]
    + [pytest.param("ore", (q, p), id=f"ore-q={q}-p={p}") for q, p in DIAGONAL_ORE]
)


def _case_doc(kind, key):
    if kind == "corpus":
        return corpus_doc(key)
    if kind == "wide":
        return parse_presentation(WIDE_DOCS[key])
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    return parse_presentation(ore_document(ring, *grid_member(ring, key[0], 0, key[1])))


def _calculus_maps(doc):
    """The presentation and every twist, twist inverse, volume twist and
    volume twist inverse of the calculus of ``doc``."""
    calc = run_calculus_check(doc)
    nu = calc.volume()
    maps = [m for dg in calc.spec.dgens for m in (dg.twist, dg.twist.inverse)]
    return calc.P, maps + [nu, nu.inverse]


@pytest.mark.parametrize("kind, key", RESCALING_CASES)
def test_rescaling_fast_path_matches_the_product_chain(kind, key):
    P, maps = _calculus_maps(_case_doc(kind, key))
    rescaling = [m for m in maps if m._scales is not None]
    assert rescaling
    if kind != "corpus" or key in ALL_RESCALE:
        assert len(rescaling) == len(maps)
    m = P.ring.nvars
    for endo in rescaling:
        for expo in exponents_upto(m + P.n, 4):
            tvec, e = expo[:m], expo[m:]
            image = endo.apply(P.monomial(e, P.ring.monomial(tvec)))
            assert image == product_chain(P, endo, tvec, e), (expo, [P.render(f) for f in endo.images])


@pytest.mark.parametrize("name, dgen", [("un2", "x1"), ("jordan", "t"), ("aq", "z")])
def test_twists_that_do_more_than_rescale_keep_the_product_chain(name, dgen):
    calc = run_calculus_check(corpus_doc(name))
    twist = next(dg.twist for dg in calc.spec.dgens if dg.name == dgen)
    assert twist._scales is None


def _count_multiplies(monkeypatch, P):
    calls = []
    multiply = P.multiply

    def counted(f, g):
        calls.append(1)
        return multiply(f, g)

    monkeypatch.setattr(P, "multiply", counted)
    return calls


def test_rescaling_twist_applies_without_products(monkeypatch):
    calc = run_calculus_check(corpus_doc("qaffine3"))
    P = calc.P
    twist = AlgebraEndo(P, calc.spec.dgens[0].twist.images, check=False)  # empty memo tables
    calls = _count_multiplies(monkeypatch, P)
    image = twist.apply(P.monomial((2, 3, 1)))
    assert not calls
    q12, q13 = P.ring.param("q12"), P.ring.param("q13")
    assert image == P.monomial((2, 3, 1), P.ring.const(q12 * q12 * q12 * q13))


def test_shear_twist_still_multiplies(monkeypatch):
    calc = run_calculus_check(corpus_doc("jordan"))
    P = calc.P
    twist = AlgebraEndo(P, calc.spec.dgens[0].twist.images, check=False)
    calls = _count_multiplies(monkeypatch, P)
    twist.apply(P.monomial((3,), P.ring.var(0)))
    assert calls


# -- the identity and rescaling paths against the product chain -------------------


def _representation(f):
    """Every key of f, in order, with the stored ``num``/``den`` of its
    scalar: equal values with different unreduced fractions differ here."""
    return [(e, [(tvec, s.num, s.den) for tvec, s in c.terms.items()]) for e, c in f.terms.items()]


def _chain_copy(endo):
    """``endo`` applied by the product chain of its images, with fresh memo
    tables, whatever its images are."""
    chain = copy.copy(endo)
    chain._scales, chain._identity = None, False
    chain._power_memo, chain._monomial_memo = {}, {}
    return chain


def _substitution_copy(sigma):
    """``sigma`` applied by substitution, even when it is the identity."""
    sub = CoeffEndo(sigma.images)
    sub.is_identity = False
    return sub


def _every_map(doc):
    """The presentation of ``doc`` and every extension map it yields: each
    twist and stored inverse of its calculus block, the volume twist and its
    inverse when d is compatible, and each sigma lift when the lifting
    hypotheses hold."""
    P = build_presentation(doc)
    maps = []
    try:
        spec = calculus_spec_from_doc(doc, P)
    except SpbwError:
        spec = None
    if spec is not None:
        maps += [m for dg in spec.dgens for m in (dg.twist, dg.twist.inverse)]
        try:
            nu = build_calculus(P, spec).volume()
            maps += [nu, nu.inverse]
        except SpbwError:
            pass
    try:
        maps += [extend_sigma(P, i) for i in range(P.n)]
    except HypothesisError:
        pass
    return P, maps


def _assert_fast_paths_match_the_chain(doc, rng):
    """On random elements: each rescaling map against its product chain, and
    each identity sigma against substitution.  Returns the number of
    rescaling maps and of identity sigmas met."""
    P, maps = _every_map(doc)
    elements = [random_skew(P, rng, degree=4, max_terms=4) for _ in range(6)] + list(P.frame())
    rescaling = [endo for endo in maps if endo._scales is not None]
    for endo in rescaling:
        chain = _chain_copy(endo)
        for f in elements:
            assert _representation(endo.apply(f)) == _representation(chain.apply(f)), P.render(f)
    coefficients = [c for f in elements for c in f.terms.values()]
    coefficients += [a * b for a, b in zip(coefficients, coefficients[1:])]
    identities = [sigma for sigma in P.sigma if sigma.is_identity]
    for sigma in identities:
        sub = _substitution_copy(sigma)
        for c in coefficients:
            assert _representation(P.from_coeff(apply_endo(sigma, c))) == _representation(
                P.from_coeff(apply_endo(sub, c))
            )
    return len(rescaling), len(identities)


@pytest.mark.parametrize("name", [name for name in CORPUS_NAMES if name != "broken"])
def test_fast_paths_keep_the_representation_on_the_corpus(name):
    rescaling, _ = _assert_fast_paths_match_the_chain(corpus_doc(name), random.Random(1729))
    assert rescaling


@pytest.mark.parametrize("name", WIDE_DOCS)
def test_fast_paths_keep_the_representation_on_wide_documents(name):
    rescaling, _ = _assert_fast_paths_match_the_chain(parse_presentation(WIDE_DOCS[name]), random.Random(3))
    assert rescaling


def test_fast_paths_keep_the_representation_on_the_ore_grid():
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    rng = random.Random(7)
    rescaling = identities = 0
    for qs, r, ps in grid():
        counts = _assert_fast_paths_match_the_chain(
            parse_presentation(ore_document(ring, *grid_member(ring, qs, r, ps))), rng
        )
        rescaling += counts[0]
        identities += counts[1]
    # every member with q = 1 and r = 0 has sigma the identity
    assert rescaling and identities >= len(GRID_P)


def test_theorem_mode_twists_of_poly5_return_their_argument():
    calc = run_calculus_check(parse_presentation(WIDE_DOCS["poly5"]))
    rng = random.Random(5)
    elements = [random_skew(calc.P, rng) for _ in range(5)]
    for endo in [dg.twist for dg in calc.spec.dgens] + [calc.volume()]:
        assert endo._identity
        assert all(endo.apply(f) is f for f in elements)


def test_a_scale_of_one_that_is_not_the_literal_unit_is_multiplied_in():
    # q/q has the value one, but its numerator and denominator are q
    P = build_presentation(parse_presentation("name one\nparams q\ngens x\n"))
    q = P.ring.param("q")
    twist = AlgebraEndo(P, (P.gen(0).scale(q * q.inverse()),))
    assert twist._scales is not None and not twist._identity
    f = P.monomial((2,), P.ring.const(3))
    assert _representation(twist.apply(f)) == [((2,), [((), {(2,): Fraction(3)}, {(2,): Fraction(1)})])]
    assert twist.apply(f) == f


# -- the relation predicate against the product oracle ----------------------------


def _scale_doubled(endo, s):
    """``endo`` with the image of frame symbol s doubled, unchecked."""
    images = list(endo.images)
    images[s] = images[s].scale(endo.P.ring.scalar(2))
    return AlgebraEndo(endo.P, images, check=False)


def _assert_predicate_matches_the_oracle(doc):
    """The relation predicate and the product oracle name the same first
    broken relation, or both none, on every map of ``doc`` and on each of
    its rescaling maps with one scale doubled.  Returns the number of
    rescaling maps compared and how many of them break a relation."""
    P, maps = _every_map(doc)
    mutants = [_scale_doubled(endo, s) for endo in maps if endo._scales is not None for s in range(len(endo.images))]
    compared = broken = 0
    for endo in maps + mutants:
        label = endo.broken_relation()
        assert label == relation_broken_by_products(endo), [P.render(f) for f in endo.images]
        if endo._scales is not None:
            compared += 1
            broken += label is not None
    return compared, broken


@pytest.mark.parametrize("name", [name for name in CORPUS_NAMES if name != "broken"])
def test_relation_predicate_matches_the_product_oracle_on_the_corpus(name):
    compared, _ = _assert_predicate_matches_the_oracle(corpus_doc(name))
    assert compared


@pytest.mark.parametrize("name", WIDE_DOCS)
def test_relation_predicate_matches_the_product_oracle_on_wide_documents(name):
    compared, broken = _assert_predicate_matches_the_oracle(parse_presentation(WIDE_DOCS[name]))
    assert compared
    if name == "weyl2":
        assert broken  # doubling x1 alone breaks x2 x1 = x1 x2 - 1


def test_relation_predicate_matches_the_product_oracle_on_the_ore_grid():
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    compared = broken = 0
    for qs, r, ps in grid():
        counts = _assert_predicate_matches_the_oracle(parse_presentation(ore_document(ring, *grid_member(ring, qs, r, ps))))
        compared += counts[0]
        broken += counts[1]
    assert 0 < broken < compared


TAILED_QPLANE = "name tail\nparams q\ngens x1 x2\nrel x2 x1 = q * x1 x2 + x1\n"
JORDAN = "name jordan\ncoeffs t\ngens x\ndelta x: t -> t^2\n"


@pytest.mark.parametrize("source, scales, label", [
    # x2 x1 = q x1 x2 + x1: the tail x1 has weight c_x1, so c_x2 must be 1
    (TAILED_QPLANE, (1, 2), "x2*x1"),
    (TAILED_QPLANE, (1, "q^-1"), "x2*x1"),
    (TAILED_QPLANE, (2, 1), None),
    # x t = t x + t^2: the tail t^2 has weight c_t^2, so c_t must be c_x
    (JORDAN, (2, 2), None),
    (JORDAN, (3, 2), "x*t"),
    (JORDAN, (1, 2), "x*t"),
], ids=["tail-x2", "tail-qinv", "tail-x1", "jordan-equal", "jordan-t", "jordan-t-fixed"])
def test_rescaling_maps_that_weigh_a_tail_wrongly_break_the_relation(source, scales, label):
    P = build_presentation(parse_presentation(source))
    images = [
        sym.scale(P.ring.param("q").inverse() if c == "q^-1" else P.ring.scalar(c)) for sym, c in zip(P.frame(), scales)
    ]
    endo = AlgebraEndo(P, images, check=False)
    assert endo._scales is not None
    assert endo.broken_relation() == relation_broken_by_products(endo) == label
    if label is None:
        AlgebraEndo(P, images)
    else:
        with pytest.raises(MapError) as err:
            AlgebraEndo(P, images)
        assert str(err.value) == f"relation {label} not respected"


def test_rescaling_maps_check_their_relations_without_products(monkeypatch):
    P = build_presentation(corpus_doc("qaffine3"))
    P.defining_relations()
    calls = _count_multiplies(monkeypatch, P)
    q12 = P.ring.param("q12")
    x1, x2, x3 = P.frame()
    assert AlgebraEndo(P, (x1, x2.scale(q12), x3)).broken_relation() is None
    assert AlgebraEndo(P, (x1, x2, x3.scale(q12)), check=False).broken_relation() is None
    assert not calls


def test_a_rescaling_inverse_is_checked_by_its_scales(qplane, monkeypatch):
    """``c_s * c'_s`` is compared with one by value: ``q^-1 * q`` is the
    fraction q/q, which is one but not the literal unit."""
    q = qplane.ring.param("q")
    assert not (q.inverse() * q).is_unit()
    x1, x2 = qplane.frame()
    inverse = AlgebraEndo(qplane, (x1, x2.scale(q)), check=False)
    twist = AlgebraEndo(qplane, (x1, x2.scale(q.inverse())), inverse=inverse)
    assert twist._verified_inverse is inverse
    applied = []
    monkeypatch.setattr(AlgebraEndo, "apply", lambda self, f: applied.append(f))
    wrong = AlgebraEndo(qplane, (x1, x2.scale(q * q)), check=False)
    with pytest.raises(MapError) as err:
        AlgebraEndo(qplane, twist.images, inverse=wrong)
    assert str(err.value) == "inverse does not undo x2"
    assert not applied


# -- inverses read from the scales -------------------------------------------------------


def _images_representation(images):
    """Each image's terms in order, every scalar by its stored fraction and
    whether it is the literal unit."""
    return [
        [(e, [(tvec, s.num, s.den, s.is_unit()) for tvec, s in c.terms.items()]) for e, c in f.terms.items()]
        for f in images
    ]


def _scale_choices(ring):
    """Scales with the literal unit, rationals, ``q/q`` (one, but not the
    literal unit), inverses and sums."""
    choices = [ring.sone(), ring.scalar(-1), ring.scalar(Fraction(1, 2)), ring.scalar(3)]
    for j in range(ring.nparams):
        q = ring.param(f"q{j}")
        choices += [q * q.inverse(), q.inverse(), q + ring.sone(), q.inverse() + ring.scalar(2), -q]
    if ring.nparams == 2:
        choices.append(ring.param("q0") * ring.param("q1").inverse())
    return choices


@st.composite
def _rescaling_maps(draw):
    """A presentation with 0-2 parameters, 0-1 coefficient variables and
    1-2 commuting generators, and the images of a map that rescales every
    symbol."""
    nparams, nvars, ngens = draw(st.integers(0, 2)), draw(st.integers(0, 1)), draw(st.integers(1, 2))
    lines = ["name rescale"]
    if nparams:
        lines.append("params " + " ".join(f"q{j}" for j in range(nparams)))
    if nvars:
        lines.append("coeffs t")
    lines.append("gens " + " ".join(f"x{i}" for i in range(1, ngens + 1)))
    if ngens == 2:
        lines.append("rel x2 x1 = x1 x2")
    P = build_presentation(parse_presentation("\n".join(lines) + "\n"))
    choices = _scale_choices(P.ring)
    return P, tuple(sym.scale(draw(st.sampled_from(choices))) for sym in P.frame())


@settings(max_examples=200, deadline=None)
@given(_rescaling_maps())
def test_a_rescaling_inverse_is_read_from_the_scales(case):
    """The images ``c_s^-1 s`` are the ones the matrix inverse gives for a
    diagonal matrix, fraction by fraction, and the twist's round-trip
    check accepts them."""
    P, images = case
    got = auto_inverse(P, images)
    assert _images_representation(got) == _images_representation(frame_affine_inverse(P, images))
    twist = AlgebraEndo(P, images, inverse=AlgebraEndo(P, got, check=False))
    assert twist._verified_inverse is twist.inverse


@pytest.mark.parametrize("name, dgen, inverse", [
    ("jordan", "t", ["t", "x - 2*t"]),
    ("aq", "z", ["y", "s^2*x", "z"]),
    ("aq", "u", ["x", "y", "(1)/(s)*z"]),
    ("qplane", "x1", ["x1", "(1)/(q)*x2"]),
], ids=["jordan-shear", "aq-swap", "aq-rescale", "qplane-rescale"])
def test_mechanical_inverses_keep_their_images(name, dgen, inverse):
    calc = run_calculus_check(corpus_doc(name))
    P = calc.P
    images = next(dg.twist for dg in calc.spec.dgens if dg.name == dgen).images
    got = auto_inverse(P, images)
    assert [P.render(f) for f in got] == inverse
    assert _images_representation(got) == _images_representation(frame_affine_inverse(P, images))


@pytest.mark.parametrize("name", ["jordan", "aq", "qaffine3"])
def test_the_frame_is_built_once(name):
    P = build_presentation(corpus_doc(name))
    frame = P.frame()
    assert P.frame() is frame
    assert isinstance(frame, tuple) and len(frame) == P.ring.nvars + P.n
    assert all(sym == P.symbol(k) for k, sym in enumerate(frame))


def test_the_power_memo_holds_what_the_recursion_held():
    # the shear twist's powers of x, filled upward in a loop: the keys, in
    # the order the recursion stored them, and the same products
    calc = run_calculus_check(corpus_doc("jordan"))
    P = calc.P
    twist = AlgebraEndo(P, calc.spec.dgens[0].twist.images, check=False)
    want = {}

    def power(s, k):
        if (s, k) not in want:
            want[(s, k)] = twist.images[s] if k == 1 else P.multiply(power(s, k - 1), twist.images[s])
        return want[(s, k)]

    for tvec, e in (((1,), (3,)), ((2,), (1,)), ((0,), (6,))):
        twist.apply(P.monomial(e, P.ring.monomial(tvec)))
        for s, k in enumerate(tvec + e):
            if k:
                power(s, k)
    assert list(twist._power_memo) == list(want)
    assert all(twist._power_memo[key] == want[key] for key in want)


# -- the scales read from the image terms -----------------------------------------


def _assert_scales_are_the_oracles(P, images, scales):
    """``scales`` are the oracle's, the same Scalar objects, or both None."""
    want = rescaling_by_frame_coordinates(P, images)
    assert (scales is None) == (want is None), [P.render(f) for f in images]
    if want is not None:
        assert len(scales) == len(want) and all(a is b for a, b in zip(scales, want))


def test_scales_read_from_the_image_terms_are_the_frame_coordinates_on_the_sweep():
    """Every twist, stored inverse, volume twist with its inverse and sigma
    lift that the sweep builds gets the scales the full frame coordinates
    give, compared by identity: 333 maps rescale and 230 do not."""
    counts = {True: 0, False: 0}
    for _, text in sweep_texts():
        P, maps = _every_map(parse_presentation(text))
        for endo in maps:
            _assert_scales_are_the_oracles(P, endo.images, endo._scales)
            counts[endo._scales is not None] += 1
    assert counts == {True: 333, False: 230}


def test_images_that_do_not_rescale_have_no_scales(jordan):
    """One hand-built image of each shape that is not a scalar times its
    own symbol, beside the rescaling frame (t, x) -> (2t, 3x)."""
    P = jordan
    t, x = P.frame()
    rescaling = (t.scale(P.ring.scalar(2)), x.scale(P.ring.scalar(3)))
    assert _rescaling(rescaling) is not None
    _assert_scales_are_the_oracles(P, rescaling, _rescaling(rescaling))
    shapes = {
        "a constant term": P.const(2),
        "two terms": x + t,
        "a term at another symbol": t,
        "a term of degree two": P.multiply(x, x),
        "two coefficient terms": P.multiply(t + P.one(), x),
        "a product with another symbol": P.multiply(t, x),
        "zero": P.zero(),
    }
    for shape, image in shapes.items():
        images = (t, image)
        assert _rescaling(images) is None, shape
        assert AlgebraEndo(P, images, check=False)._scales is None, shape
        _assert_scales_are_the_oracles(P, images, None)
