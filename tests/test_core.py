import copy
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spbw.core
from spbw.coefficients import CoeffEndo, CoeffRing, CoeffSigmaDerivation
from spbw.core import Presentation, SkewPoly, _expand, _inversions, _pack
from spbw.corpus import CORPUS_NAMES, corpus_doc
from spbw.dsl import build_presentation, parse_presentation
from spbw.errors import HypothesisError
from spbw.lincomb import add_term, add_terms
from spbw.pipeline import run_smooth
from spbw.scalars import Scalar

from conftest import WIDE_DOCS, commuting_relation, identity_endo, random_skew, trivial_maps


@pytest.fixture
def qaffine3():
    ring = CoeffRing(params=("q12", "q13", "q23"))
    sigma, delta = trivial_maps(ring, 3)
    rels = {
        (i, j): ((ring.const(ring.param(f"q{i + 1}{j + 1}")), (i, j)),)
        for i in range(3)
        for j in range(i + 1, 3)
    }
    return Presentation(ring, ("x1", "x2", "x3"), sigma, delta, rels)


@pytest.fixture
def weyl_poly3():
    """Weyl pair plus a third generator commuting with everything."""
    ring = CoeffRing()
    sigma, delta = trivial_maps(ring, 3)
    rels = {
        (0, 1): ((ring.one(), (0, 1)), (ring.const(-1), ())),
        (0, 2): commuting_relation(ring, 3, 0, 2),
        (1, 2): commuting_relation(ring, 3, 1, 2),
    }
    return Presentation(ring, ("x1", "x2", "x3"), sigma, delta, rels)


@pytest.fixture
def un2():
    """Enveloping algebra of the non-abelian 2-dimensional Lie algebra:
    x2 x1 = x1 x2 + x1."""
    ring = CoeffRing()
    sigma, delta = trivial_maps(ring, 2)
    rel = ((ring.one(), (0, 1)), (ring.one(), (0,)))
    return Presentation(ring, ("x1", "x2"), sigma, delta, {(0, 1): rel})


@pytest.fixture
def aq():
    return build_presentation(corpus_doc("aq"))


@pytest.fixture
def broken3():
    """Genuinely non-confluent triple: the two reduction orders of x3 x2 x1
    differ by x3."""
    ring = CoeffRing()
    sigma, delta = trivial_maps(ring, 3)
    rels = {
        (0, 1): ((ring.one(), (0, 1)), (ring.one(), (2,))),   # x2 x1 = x1 x2 + x3
        (0, 2): ((ring.one(), (0, 2)), (ring.one(), (0,))),   # x3 x1 = x1 x3 + x1
        (1, 2): commuting_relation(ring, 3, 1, 2),             # x3 x2 = x2 x3
    }
    return Presentation(ring, ("x1", "x2", "x3"), sigma, delta, rels)


# -- construction --------------------------------------------------------------


def _two_generators(tails):
    ring = CoeffRing()
    sigma, delta = trivial_maps(ring, 2)
    return Presentation(ring, ("x1", "x2"), sigma, delta, tails(ring))


def test_presentation_rejects_a_pair_out_of_order():
    with pytest.raises(ValueError, match=r"relation indices out of order: \(1, 0\)"):
        _two_generators(lambda ring: {(1, 0): ((ring.one(), (1, 0)),)})


@pytest.mark.parametrize("tails, message", [
    pytest.param(lambda ring: {(0, 1): ((ring.const(-1), ()), (ring.one(), (0, 1)))},
                 "does not start with its ordered pair", id="constant-first"),
    pytest.param(lambda ring: {(0, 1): ((ring.one(), (0, 1)), (ring.zero(), ()))},
                 "has a zero coefficient", id="zero-coefficient"),
])
def test_presentation_rejects_malformed_tails(tails, message):
    with pytest.raises(ValueError, match=r"relation \(x2, x1\) " + message):
        _two_generators(tails)


def _three_generators(tails01):
    """x1, x2, x3 over the rationals, with the given (x2, x1) tails and
    commuting pairs otherwise."""
    ring = CoeffRing()
    sigma, delta = trivial_maps(ring, 3)
    tails = {(0, 1): tails01(ring), (0, 2): commuting_relation(ring, 3, 0, 2), (1, 2): commuting_relation(ring, 3, 1, 2)}
    return Presentation(ring, ("x1", "x2", "x3"), sigma, delta, tails)


@pytest.mark.parametrize("later", [
    pytest.param(((1, 2),), id="quadratic"),
    pytest.param(((), ()), id="repeated-constant"),
    pytest.param(((0,), ()), id="constant-after-linear"),
    pytest.param(((2,), (0,)), id="decreasing"),
    pytest.param(((1,), (1,)), id="repeated-linear"),
    pytest.param(((3,),), id="no-such-generator"),
])
def test_presentation_rejects_a_later_tail_that_is_not_constant_or_linear(later):
    with pytest.raises(ValueError, match=r"relation \(x2, x1\) has a tail that is not a constant or a linear word"):
        _three_generators(lambda ring: ((ring.one(), (0, 1)),) + tuple((ring.one(), w) for w in later))


def test_presentation_takes_constant_and_linear_tails_in_order():
    P = _three_generators(lambda ring: ((ring.one(), (0, 1)), (ring.one(), ()), (ring.one(), (0,)), (ring.one(), (2,))))
    assert P.render(P.relation_rhs(0, 1)) == "x1*x2 + x1 + x3 + 1"


def test_presentation_rejects_a_missing_pair():
    with pytest.raises(ValueError, match=r"missing relation for pair \(x2, x1\)"):
        _two_generators(lambda ring: {})


# -- normalize ---------------------------------------------------------------


def test_normalize_weyl_swap(weyl):
    got = weyl.normalize([(1, [1, 0])])
    expected = weyl.monomial((1, 1)) + weyl.const(-1)
    assert got == expected


def test_normalize_ordered_word_is_identity(weyl):
    assert weyl.normalize([(1, [0, 1])]) == weyl.monomial((1, 1))


def test_normalize_jordan_coefficient_push(jordan):
    t = jordan.ring.var(0)
    got = jordan.normalize([(1, [0, t * t])])
    expected = jordan.monomial((1,), t * t) + jordan.from_coeff((t * t * t).scale(jordan.ring.scalar(2)))
    assert got == expected


def test_normalize_matches_small_step_oracle(weyl, jordan, qplane):
    t = jordan.ring.var(0)
    cases = [
        (weyl, [1, 0, 0]),
        (weyl, [1, 1, 0]),
        (jordan, [0, t, 0, t]),
        (qplane, [1, 1, 0]),
    ]
    for P, word in cases:
        assert P.normalize([(1, word)]) == P.normalize_atoms(word)


# -- multiply -----------------------------------------------------------------


def test_multiply_unital(weyl, rng):
    f = random_skew(weyl, rng)
    assert weyl.multiply(f, weyl.one()) == f
    assert weyl.multiply(weyl.one(), f) == f


def test_multiply_weyl_example(weyl):
    x1, x2 = weyl.gen(0), weyl.gen(1)
    got = weyl.multiply(x2, weyl.multiply(x1, x1))
    expected = weyl.monomial((2, 1)) + weyl.monomial((1, 0), weyl.ring.const(-2))
    assert got == expected


def test_multiply_qplane_example(qplane):
    q = qplane.ring.param("q")
    got = qplane.multiply(qplane.monomial((0, 2)), qplane.gen(0))
    assert got == qplane.monomial((1, 2), qplane.ring.const(q * q))


def test_multiply_matches_oracle_on_random_words(weyl, un2, jordan, qplane, qaffine3, aq, rng):
    for P in (weyl, un2, jordan, qplane, qaffine3, aq):
        for _ in range(60):
            length = rng.randint(1, 7)
            word = []
            for _ in range(length):
                if rng.random() < 0.3:
                    word.append(_coefficient_atom(P, rng))
                else:
                    word.append(rng.randrange(P.n))
            assert P.normalize([(1, word)]) == P.normalize_atoms(word)


def _coefficient_atom(P, rng):
    """A coefficient variable, or a nonzero constant (which every sigma
    fixes and every delta kills)."""
    if P.ring.nvars and rng.random() < 0.7:
        return P.ring.var(rng.randrange(P.ring.nvars))
    return P.ring.const(rng.choice((-1, 2, 3)))


# High-degree products against closed forms.  Each merges many equal words
# on the way; a reduction that followed every rewrite path separately would
# take hours on them.


def _rational_terms(f) -> dict:
    """Exponent -> Fraction, for an element whose coefficients are all
    parameter-free constants."""
    assert all(c.is_constant() for c in f.terms.values())
    return {e: _fraction(c.constant_value()) for e, c in f.terms.items()}


def _fraction(s: Scalar) -> Fraction:
    """The exact value of a nonzero parameter-free scalar."""
    assert s.is_rational()
    (num,) = s.num.values()
    (den,) = s.den.values()
    return Fraction(num) / den


def test_weyl_high_power_closed_form(weyl):
    k = 10
    got = weyl.multiply(weyl.monomial((0, k)), weyl.monomial((k, 0)))
    want = {(k - j, k - j): Fraction((-1) ** j * comb(k, j) ** 2 * factorial(j)) for j in range(k + 1)}
    assert _rational_terms(got) == want


def test_un2_high_power_closed_form(un2):
    # x2 x1^k = x1^k (x2 + k), so x2^k x1^k = x1^k (x2 + k)^k
    k = 8
    got = un2.multiply(un2.monomial((0, k)), un2.monomial((k, 0)))
    want = {(k, j): Fraction(comb(k, j) * k ** (k - j)) for j in range(k + 1)}
    assert _rational_terms(got) == want


def test_qplane_high_power_closed_form(qplane):
    k = 20
    got = qplane.multiply(qplane.monomial((0, k)), qplane.monomial((k, 0)))
    assert list(got.terms) == [(k, k)]
    q_pow = Scalar({(k * k,): Fraction(1)}, {(0,): Fraction(1)}, 1)
    assert got.terms[(k, k)].constant_value() == q_pow


def test_jordan_high_power_closed_form(jordan):
    k = 16
    tk = jordan.ring.var(0) ** k
    got = jordan.multiply(jordan.monomial((k,)), jordan.from_coeff(tk))
    assert got == jordan.power_commute_closed(0, k, tk)


def test_push_coeff_left_merges_equal_subwords(jordan):
    k = 16
    pairs = jordan.push_coeff_left((0,) * k, jordan.ring.var(0) ** k)
    words = [w for _, w in pairs]
    assert len(pairs) <= k + 1
    assert len(set(words)) == len(words)


def test_multiply_associative(weyl, qplane, jordan, rng):
    for P in (weyl, qplane, jordan):
        for _ in range(30):
            f, g, h = (random_skew(P, rng, degree=3, max_terms=2) for _ in range(3))
            assert P.multiply(P.multiply(f, g), h) == P.multiply(f, P.multiply(g, h))


def test_normalize_idempotent(weyl, jordan, rng):
    for P in (weyl, jordan):
        f = random_skew(P, rng)
        terms = [(c, list(_expand_expo(e))) for e, c in f.terms.items()]
        assert P.normalize(terms) == f


def _expand_expo(e):
    out = []
    for i, k in enumerate(e):
        out.extend([i] * k)
    return out


# -- power commutation ---------------------------------------------------------


def test_power_commute_m0_identity(jordan):
    t = jordan.ring.var(0)
    assert jordan.power_commute_closed(0, 0, t) == jordan.from_coeff(t)


def test_power_commute_weyl_ore(weyl_ore):
    t = weyl_ore.ring.var(0)
    got = weyl_ore.power_commute_closed(0, 2, t)
    expected = weyl_ore.monomial((2,), t) + weyl_ore.monomial((1,), weyl_ore.ring.const(2))
    assert got == expected


def test_power_commute_jordan(jordan):
    t = jordan.ring.var(0)
    two = jordan.ring.scalar(2)
    got = jordan.power_commute_closed(0, 2, t)
    expected = (
        jordan.monomial((2,), t)
        + jordan.monomial((1,), (t * t).scale(two))
        + jordan.from_coeff((t * t * t).scale(two))
    )
    assert got == expected


def test_power_commute_closed_matches_normalize(jordan, weyl_ore, qplane_ore):
    for P in (jordan, weyl_ore, qplane_ore):
        t = P.ring.var(0)
        for m in range(9):
            for d in range(4):
                r = t ** d
                assert P.power_commute_closed(0, m, r) == P.normalize([(1, [0] * m + [r])])


def test_power_commute_closed_hypothesis_error():
    from spbw.coefficients import CoeffEndo, CoeffSigmaDerivation

    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    sigma = CoeffEndo((ring.var(0).scale(ring.param("q")),))
    delta = CoeffSigmaDerivation((ring.one(),), sigma)  # does not commute with sigma
    P = Presentation(ring, ("x",), (sigma,), (delta,), {})
    with pytest.raises(HypothesisError):
        P.power_commute_closed(0, 2, ring.var(0))


# The generic case: x^m * r with no commutation hypothesis, expanded by the
# structured reduction.


def test_power_commute_generic_m1(qplane_ore):
    t = qplane_ore.ring.var(0)
    q = qplane_ore.ring.param("q")
    got = qplane_ore.normalize([(1, [0, t])])
    assert got == qplane_ore.monomial((1,), t.scale(q))


def test_power_commute_generic_delta_zero(qplane_ore):
    t = qplane_ore.ring.var(0)
    q = qplane_ore.ring.param("q")
    got = qplane_ore.normalize([(1, [0, 0, 0, t])])
    assert got == qplane_ore.monomial((3,), t.scale(q * q * q))


def test_power_commute_generic_shift_case():
    # sigma(t) = q t, delta(t) = 1: the four length-2 compositions
    from spbw.coefficients import CoeffEndo, CoeffSigmaDerivation

    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    q = ring.param("q")
    sigma = CoeffEndo((ring.var(0).scale(q),))
    delta = CoeffSigmaDerivation((ring.one(),), sigma)
    P = Presentation(ring, ("x",), (sigma,), (delta,), {})
    t = ring.var(0)
    got = P.normalize([(1, [0, 0, t])])
    expected = P.monomial((2,), t.scale(q * q)) + P.monomial((1,), ring.const(q + ring.sone()))
    assert got == expected


# -- consistency check -----------------------------------------------------------


def test_pbw_check_passes_qaffine3(qaffine3):
    assert qaffine3.pbw_consistency_check().ok


def test_pbw_check_passes_weyl_poly3(weyl_poly3):
    assert weyl_poly3.pbw_consistency_check().ok


def test_pbw_check_fails_broken(broken3):
    audit = broken3.pbw_consistency_check()
    assert not audit.ok
    assert audit.rendered == "x3*x2*x1"
    diff = audit.left - audit.right
    assert diff == broken3.gen(2) or diff == -broken3.gen(2)


def test_pbw_check_pair_coefficient_words(jordan, qplane_ore):
    assert jordan.pbw_consistency_check().ok
    assert qplane_ore.pbw_consistency_check().ok


BADSDER = "name badsder\ncoeffs t1 t2\ngens x\nsigma x: t1 -> 2*t1\ndelta x: t2 -> 1\n"


def test_pbw_check_fails_a_delta_that_is_no_sigma_derivation():
    # (sigma(t1) - t1) delta(t2) = t1 while (sigma(t2) - t2) delta(t1) = 0,
    # so the leftmost and rightmost reductions of x*t2*t1 differ
    P = build_presentation(parse_presentation(BADSDER))
    audit = P.pbw_consistency_check()
    assert not audit.ok
    assert audit.rendered == "x*(t2)*(t1)"
    assert P.render(audit.left) == "2*t1*t2*x + t1"
    assert P.render(audit.right) == "2*t1*t2*x + 2*t1"
    rep = run_smooth(parse_presentation(BADSDER))
    assert (rep.verdict, rep.failed_check) == ("failed", "pbw-consistency")
    assert rep.checks[0].witnesses[0] == "word x*(t2)*(t1) reduces two ways"


@st.composite
def _one_generator_over_two_variables(draw):
    """sigma and delta of one generator on F[t1, t2].  Each image is drawn
    from a few shapes (sigma: the variable itself, a multiple, or any
    polynomial of degree at most 2; delta: zero or any such polynomial), so
    both sides of the condition vanish, or match, often enough to test the
    passing side."""
    ring = CoeffRing(coeff_vars=("t1", "t2"))
    exps = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def poly():
        out = ring.zero()
        for e in draw(st.lists(st.sampled_from(exps), min_size=1, max_size=3, unique=True)):
            out = out + ring.monomial(e, draw(st.sampled_from([-2, -1, 1, 2, 3])))
        return out

    sigma_images, delta_images = [], []
    for v in range(2):
        shape = draw(st.sampled_from(["own", "scaled", "any"]))
        if shape == "own":
            sigma_images.append(ring.var(v))
        elif shape == "scaled":
            sigma_images.append(ring.var(v).scale(ring.scalar(draw(st.sampled_from([-1, 2, 3])))))
        else:
            sigma_images.append(poly())
        delta_images.append(poly() if draw(st.booleans()) else ring.zero())
    sigma = CoeffEndo(sigma_images)
    P = Presentation(ring, ("x",), (sigma,), (CoeffSigmaDerivation(delta_images, sigma),), {})
    return P, sigma_images, delta_images


@settings(max_examples=200, deadline=None)
@given(_one_generator_over_two_variables())
def test_pbw_check_decides_the_sigma_derivation_condition(case):
    # the one overlap is x*t2*t1; it resolves iff delta extends to a
    # sigma-derivation of F[t1, t2]
    P, (s1, s2), (d1, d2) = case
    t1, t2 = P.ring.var(0), P.ring.var(1)
    assert P.pbw_consistency_check().ok == ((s2 - t2) * d1 == (s1 - t1) * d2)


def test_strategy_independence_on_random_words(weyl, qplane, rng):
    for P in (weyl, qplane):
        for _ in range(60):
            word = [rng.randrange(P.n) for _ in range(rng.randint(1, 5))]
            left = P.normalize_atoms(word, "leftmost")
            right = P.normalize_atoms(word, "rightmost")
            assert left == right


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_defining_relations_oracle(name):
    """Every pair of distinct frame symbols has one relation, written as the
    descending word; its normal form is what the small-step oracle makes of
    that word.  Generator pairs come first, then generator-variable pairs,
    then variable pairs."""
    P = build_presentation(corpus_doc(name))
    n, m = P.n, P.ring.nvars
    rels = P.defining_relations()
    assert len(rels) == comb(n, 2) + n * m + comb(m, 2)
    words = [word for _, word, _ in rels]
    assert sorted(words) == sorted((b, a) for b in range(m + n) for a in range(b))
    kinds = [sum(s < m for s in word) for word in words]
    assert kinds == sorted(kinds)
    for label, word, normal in rels:
        assert label == f"{P.symbol_name(word[0])}*{P.symbol_name(word[1])}"
        atoms = [P.ring.var(s) if s < m else s - m for s in word]
        assert normal == P.normalize_atoms(atoms)


def test_defining_relations_are_built_once(monkeypatch):
    P = build_presentation(corpus_doc("jordan"))
    rels = P.defining_relations()
    multiplied = []
    monkeypatch.setattr(P, "multiply", lambda f, g: multiplied.append((f, g)))
    assert P.defining_relations() is rels
    assert not multiplied
    assert isinstance(rels, tuple)
    with pytest.raises(AttributeError):
        rels.append(rels[0])


def test_render(weyl, jordan):
    f = weyl.monomial((1, 1)) + weyl.const(-1)
    assert weyl.render(f) == "x1*x2 - 1"
    t = jordan.ring.var(0)
    g = jordan.monomial((1,), t * t) + jordan.from_coeff(t)
    assert jordan.render(g) == "t^2*x + t"


# -- the constant path of multiply ---------------------------------------------


def _walked_product(P, f, g):
    """``f * g`` with every coefficient of g walked past the word of f by
    ``push_coeff_left``, and every product scaled term by term: the loop
    that every term took before constants had a short path."""
    acc: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            for h, w in P.push_coeff_left(_expand(e1), c2):
                c = c1 * h
                for e, r in P._mul_monomials(_pack(w, P.n), e2).terms.items():
                    add_term(acc, e, c * r)
    return SkewPoly(acc, P.n)


def _representation(f):
    """Every key and ``Fraction`` value of an element, down to the scalars."""
    return {e: {t: (s.num, s.den) for t, s in c.terms.items()} for e, c in f.terms.items()}


PRODUCT_PRESENTATIONS = {
    **{name: build_presentation(corpus_doc(name)) for name in CORPUS_NAMES},
    **{name: build_presentation(parse_presentation(text)) for name, text in WIDE_DOCS.items()},
}


def _coefficient(draw, ring):
    """The unit, a rational, a one that is not the shared unit scalar, a
    parameter or its inverse, or a polynomial in a coefficient variable."""
    kind = draw(st.sampled_from(["unit", "rational", "other one", "param", "variable"]))
    if kind == "unit":
        return ring.one()
    if kind == "other one":
        return ring.const(ring.scalar(2) * ring.scalar(Fraction(1, 2)))
    if kind == "param" and ring.nparams:
        s = ring.param(draw(st.sampled_from(ring.params)))
        return ring.const(s.inverse() if draw(st.booleans()) else s)
    if kind == "variable" and ring.nvars:
        t = ring.var(draw(st.integers(0, ring.nvars - 1)))
        return t * t + ring.const(draw(st.integers(-2, 2)))
    return ring.const(draw(st.sampled_from([-3, -1, 2, Fraction(1, 2), Fraction(-2, 3)])))


@st.composite
def _element(draw, P):
    """Zero, the unit element, or up to three terms of degree at most 3."""
    kind = draw(st.sampled_from(["zero", "unit", "sum"]))
    if kind == "zero":
        return P.zero()
    if kind == "unit":
        return P.one()
    f = P.zero()
    for _ in range(draw(st.integers(1, 3))):
        word = draw(st.lists(st.integers(0, P.n - 1), max_size=3))
        f = f + P.monomial(_pack(tuple(word), P.n), _coefficient(draw, P.ring))
    return f


@st.composite
def _products(draw):
    P = PRODUCT_PRESENTATIONS[draw(st.sampled_from(sorted(PRODUCT_PRESENTATIONS)))]
    return P, draw(_element(P)), draw(_element(P))


@settings(max_examples=300, deadline=None)
@given(_products())
def test_multiply_matches_the_walked_product(case):
    P, f, g = case
    got, walked = P.multiply(f, g), _walked_product(P, f, g)
    assert _representation(got) == _representation(walked)
    assert P.render(got) == P.render(walked)


def _count_walks(monkeypatch, P):
    """The name of the caller of every ``push_coeff_left`` call on P."""
    callers = []
    walk = P.push_coeff_left

    def counted(word, r):
        callers.append(sys._getframe(1).f_code.co_name)
        return walk(word, r)

    monkeypatch.setattr(P, "push_coeff_left", counted)
    return callers


def test_scalar_coefficients_skip_the_walk_in_multiply(monkeypatch):
    P = build_presentation(corpus_doc("qaffine3"))
    q12, q23 = P.ring.param("q12"), P.ring.param("q23")
    f = P.monomial((0, 2, 1), P.ring.const(q12)) + P.monomial((1, 0, 0))
    g = P.monomial((2, 1, 0), P.ring.const(q23.inverse())) + P.const(3)
    callers = _count_walks(monkeypatch, P)
    product = P.multiply(f, g)
    assert "multiply" not in callers
    assert "_mul_monomials" in callers  # the monomial products still walk their tails
    assert P.render(product) == P.render(_walked_product(P, f, g))


def test_variable_coefficients_still_walk(monkeypatch):
    P = build_presentation(corpus_doc("jordan"))
    t = P.ring.var(0)
    callers = _count_walks(monkeypatch, P)
    P.multiply(P.monomial((2,)), P.monomial((1,), t))
    assert "multiply" in callers


def test_weyl_monomial_product_still_calls_apply_endo(monkeypatch):
    P = build_presentation(corpus_doc("weyl"))
    calls = []
    apply_endo = spbw.core.apply_endo

    def counted(sigma, p):
        calls.append(1)
        return apply_endo(sigma, p)

    monkeypatch.setattr(spbw.core, "apply_endo", counted)
    P.multiply(P.monomial((0, 3)), P.monomial((3, 0)))
    assert calls


# -- block rewrites of skew-commuting pairs -------------------------------------------


@st.composite
def _skew_presentations(draw):
    """A presentation on 2 to 4 generators whose pairs skew-commute by a
    constant, except for some disjoint adjacent pairs (i, i+1) that carry
    constant tails, ``x_(i+1) x_i = d x_i x_(i+1) + r0 + r1 x_i`` with r0
    or r1 absent, as in weyl2 and un2.

    Each tailed pair is a block with signs +1, -1 on its two members; every
    other generator is a block of its own with sign +1.  A pair across two
    blocks gets ``c ** (sign * sign)`` for one constant c per pair of
    blocks, so that ``d(k, i) * d(k, i + 1) = 1`` for every generator k
    outside a tailed pair (i, i + 1): that is what makes the overlaps
    x_(i+1) x_i x_k resolve, and the presentation a PBW extension.  An r1
    tail also needs ``d(k, i) = 1``, so a block with one commutes with
    every other block."""
    n = draw(st.integers(2, 4))
    ring = CoeffRing(params=("q", "q12", "q13"))
    q = ring.param("q")
    values = (ring.scalar(1), ring.scalar(-1), ring.scalar(Fraction(2, 3)), q, q.inverse(),
              ring.param("q12") * ring.param("q13"))
    tail_values = (-1, 1, Fraction(2, 3))
    block, sign, rels, linear = [], [], {}, set()
    i = 0
    while i < n:
        if i + 1 < n and draw(st.booleans()):
            d = draw(st.sampled_from(values))
            r0 = draw(st.sampled_from((None,) + tail_values))
            r1 = draw(st.sampled_from(tail_values if r0 is None else (None,) + tail_values))
            tails = ((d, (i, i + 1)), (r0, ()), (r1, (i,)))
            rels[(i, i + 1)] = tuple((ring.const(c), w) for c, w in tails if c is not None)
            block += [i + n, i + n]
            sign += [1, -1]
            if r1 is not None:
                linear.add(i + n)
            i += 2
        else:
            block.append(i)
            sign.append(1)
            i += 1
    across = {}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in rels:
                continue
            if block[i] in linear or block[j] in linear:
                c = ring.scalar(1)
            else:
                c = across.setdefault((block[i], block[j]), draw(st.sampled_from(values)))
            rels[(i, j)] = ((ring.const(c if sign[i] * sign[j] == 1 else c.inverse()), (i, j)),)
    sigma, delta = trivial_maps(ring, n)
    P = Presentation(ring, tuple(f"x{k + 1}" for k in range(n)), sigma, delta, rels)
    return P, {k for pair, tails in rels.items() if len(tails) > 1 for k in pair}


@st.composite
def _skew_products(draw):
    """A presentation and two ordered monomials.  The exponents are distinct
    and above one, so a block x_j^a x_i^b has a != b and a wrong power of d
    (such as a + b or max(a, b) in place of ab) shows; a member of a tailed
    pair has exponent at most 3, because the oracle does not merge the
    branches its tail opens, and the word has length at most 50."""
    P, tailed = draw(_skew_presentations())
    exps = draw(st.lists(st.integers(2, 25), min_size=2, max_size=4, unique=True).filter(lambda xs: sum(xs) <= 50))
    slots = draw(st.permutations([(k, side) for k in range(P.n) for side in (0, 1)]))
    e = [[0] * P.n, [0] * P.n]
    for x, (k, side) in zip(exps, slots):
        e[side][k] = min(x, 3) if k in tailed else x
    return P, tuple(e[0]), tuple(e[1])


@settings(max_examples=150, deadline=None)
@given(_skew_products())
def test_block_rewrites_match_the_small_step_oracle(case):
    P, e1, e2 = case
    assert P.pbw_consistency_check().ok
    got = P.multiply(P.monomial(e1), P.monomial(e2))
    oracle = P.normalize_atoms(_expand(e1) + _expand(e2))
    assert got == oracle
    if len(P._skew) == len(P.tails):  # every product of monomials is one term
        assert P.render(got) == P.render(oracle)
    if P._polynomial_scalars():
        # every tailed pair passes whole runs, and no fraction depends on
        # the order of summation
        assert set(P._passing) == {pair for pair, tails in P.tails.items() if len(tails) > 1}
        assert _representation(got) == _representation(oracle)
    else:
        assert not P._passing
    # the same stored fractions as one inversion at a time
    assert _representation(got) == _representation(_single_steps(P)._mul_monomials(e1, e2))


def _single_steps(P):
    """A copy of P that rewrites one inversion and walks one letter at a
    time."""
    single = copy.copy(P)
    single._skew, single._passing, single._runs, single._mono_cache = {}, {}, frozenset(), {}
    return single


def test_skew_commuting_block_is_one_rewrite(monkeypatch):
    P = build_presentation(corpus_doc("qplane"))
    callers = _count_walks(monkeypatch, P)
    product = P.multiply(P.monomial((0, 20)), P.monomial((20, 0)))
    assert callers == ["_mul_monomials"]
    assert P.render(product) == "q^400*x1^20*x2^20"


def test_pure_pairs_of_a_tailed_presentation_move_in_blocks(monkeypatch):
    P = build_presentation(parse_presentation(WIDE_DOCS["weyl2"]))
    callers = _count_walks(monkeypatch, P)
    product = P.multiply(P.monomial((0, 0, 5, 0)), P.monomial((0, 4, 0, 0)))
    assert callers == ["_mul_monomials"]
    assert P.render(product) == "x2^4*x3^5"


def test_skew_commuting_blocks_one_rewrite_per_pair(monkeypatch):
    P = build_presentation(corpus_doc("qaffine3"))
    callers = _count_walks(monkeypatch, P)
    product = P.multiply(P.monomial((0, 0, 5)), P.multiply(P.monomial((0, 4, 0)), P.monomial((3, 0, 0))))
    assert callers == ["_mul_monomials"] * 3  # x2^4 x1^3, then x3^5 x1^3, then x3^5 x2^4
    assert P.render(product) == "q12^12*q13^15*q23^20*x1^3*x2^4*x3^5"


def test_a_sign_pair_passes_whole_runs():
    """``x2 x1 = -x1 x2 + 1``: the x2 passes x1^b as ``(-1)^b x1^b x2 +
    [b]_(-1) x1^(b-1)``, and [b]_(-1) is 0 for even b, so the constant
    tail drops out there."""
    ring = CoeffRing()
    sigma, delta = trivial_maps(ring, 2)
    P = Presentation(ring, ("x1", "x2"), sigma, delta, {(0, 1): ((ring.const(-1), (0, 1)), (ring.one(), ()))})
    assert set(P._passing) == {(0, 1)}
    for b in range(1, 6):
        for a in range(1, 4):
            got = P.multiply(P.monomial((0, a)), P.monomial((b, 0)))
            oracle = P.normalize_atoms((1,) * a + (0,) * b)
            assert got == oracle
            assert _representation(got) == _representation(oracle)
        tails = P._passing_tails(0, 1, b)
        assert [w for _, w in tails] == [(0,) * b + (1,)] + ([] if b % 2 == 0 else [(0,) * (b - 1)])
        assert tails[0][0] == ring.const((-1) ** b)
    assert P.render(P.multiply(P.gen(1), P.monomial((4, 0)))) == "x1^4*x2"
    assert P.render(P.multiply(P.gen(1), P.monomial((5, 0)))) == "-x1^5*x2 + x1^4"


@pytest.mark.parametrize("text", [
    pytest.param("name heis\ngens x1 x2 x3\nrel x2 x1 = x1 x2 + x3\nrel x3 x1 = x1 x3\nrel x3 x2 = x2 x3\n",
                 id="tail-on-a-third-generator"),
    pytest.param("name lie\ngens x1 x2\nrel x2 x1 = x1 x2 + x2\n", id="tail-on-the-left-generator"),
])
def test_a_linear_tail_on_another_generator_keeps_single_steps(text):
    P = build_presentation(parse_presentation(text))
    assert (0, 1) not in P._passing
    e1, e2 = (0, 3) + (0,) * (P.n - 2), (3,) + (0,) * (P.n - 1)
    assert P.multiply(P.monomial(e1), P.monomial(e2)) == P.normalize_atoms(_expand(e1) + _expand(e2))


@pytest.mark.parametrize("name", ["weyl", "un2"])
def test_high_powers_walk_polynomially_often(name, monkeypatch):
    """The block ``x2^k x1^k`` is one rewrite into k + 1 tails, each walked
    once past the empty prefix.  One x2 past a run of x1 at a time took
    k(k + 1) = 156 walks at k = 12, and one inversion at a time 1,300 on
    weyl and 1,872 on un2."""
    P = build_presentation(corpus_doc(name))
    k = 12
    callers = _count_walks(monkeypatch, P)
    product = P.multiply(P.monomial((0, k)), P.monomial((k, 0)))
    assert len(product.terms) == k + 1
    assert len(callers) <= k + 1


def _weyl_block(a, b) -> dict:
    """``x2^a x1^b = sum_k (-1)^k k! C(a, k) C(b, k) x1^(b-k) x2^(a-k)`` in
    the Weyl algebra."""
    return {(b - k, a - k): Fraction((-1) ** k * factorial(k) * comb(a, k) * comb(b, k)) for k in range(min(a, b) + 1)}


def _un2_block(a, b) -> dict:
    """``x2^a x1^b = x1^b (x2 + b)^a`` in ``un2``, since ``x2 x1^b = x1^b
    (x2 + b)``."""
    return {(b, j): Fraction(comb(a, j) * b ** (a - j)) for j in range(a + 1)}


@pytest.mark.parametrize("name, closed", [("weyl", _weyl_block), ("un2", _un2_block)], ids=["weyl", "un2"])
@pytest.mark.parametrize("a, b", [(300, 300), (7, 4), (4, 7), (1, 5), (5, 1)], ids=str)
def test_tailed_blocks_match_the_closed_forms(name, closed, a, b):
    P = build_presentation(corpus_doc(name))
    got = P.multiply(P.monomial((0, a)), P.monomial((b, 0)))
    assert _rational_terms(got) == closed(a, b)


# -- Ore blocks of tailed pairs --------------------------------------------------------


# Each tailed pair x2 x1 = c x1 x2 + r0 + r1 x1 is the Ore extension
# F[x1][x2; sigma, delta], sigma(x1) = c x1 and delta(x1) = r0 + r1 x1,
# whose maps commute exactly where r0 (1 - c) = 0.
TAILED_DOCS = {
    "weyl": corpus_doc("weyl"),
    "un2": corpus_doc("un2"),
    "weyl2": parse_presentation(WIDE_DOCS["weyl2"]),
    "unit-c": parse_presentation("name unitc\ngens x1 x2\nrel x2 x1 = x1 x2 + 2 - x1\n"),
    "scaled": parse_presentation("name scaled\ngens x1 x2\nrel x2 x1 = 2 * x1 x2 + x1\n"),
    "param-c": parse_presentation("name paramc\nparams q\ngens x1 x2\nrel x2 x1 = q * x1 x2 + x1\n"),
    "noncommuting": parse_presentation("name nc\ngens x1 x2\nrel x2 x1 = 2 * x1 x2 + 1\n"),
}


def _block_cases(n):
    """Pairs of ordered monomials on 2 generators, ``x1^p x2^a * x1^b
    x2^s``: blocks with no prefix or suffix, with a prefix x1^p and a
    suffix x2^s, and a single x2; on 4 generators, two such products side
    by side, one per pair."""
    two = [((0, a), (b, 0)) for a in (1, 2, 3) for b in (1, 2, 3)]
    two += [((2, 3), (3, 1)), ((1, 2), (2, 2)), ((2, 2), (1, 3)), ((1, 1), (3, 1))]
    if n == 2:
        return two
    return [(e1 + f1, e2 + f2) for (e1, e2), (f1, f2) in zip(two, reversed(two))]


@pytest.mark.parametrize("name", sorted(TAILED_DOCS))
def test_tailed_pair_blocks_match_the_small_step_oracle(name):
    """Every product equals the small-step oracle and keeps the stored
    fractions of one inversion at a time; a pair takes blocks exactly where
    its maps commute."""
    P = build_presentation(TAILED_DOCS[name])
    single = _single_steps(P)
    for e1, e2 in _block_cases(P.n):
        got = P.multiply(P.monomial(e1), P.monomial(e2))
        oracle = P.normalize_atoms(_expand(e1) + _expand(e2))
        assert got == oracle
        assert _representation(got) == _representation(oracle)
        assert _representation(got) == _representation(single._mul_monomials(e1, e2))
        assert P.render(got) == P.render(oracle)
    tailed = {pair for pair, tails in P.tails.items() if len(tails) > 1}
    assert set(P._passing) == set(P._ore) == tailed
    for maps in P._ore.values():
        if name == "noncommuting":
            assert maps is None
        else:
            assert any(a > 1 for a, _ in maps[3])  # a block of two or more x_j was taken


@pytest.mark.parametrize("name", sorted(set(TAILED_DOCS) - {"noncommuting"}))
def test_the_first_terms_of_a_block_are_the_passing_tails(name):
    """The k = 0 and k = 1 terms of ``x_j^a x_i^b`` are ``c^(ab) x_i^b
    x_j^a`` and ``a sigma^(a-1)`` of the tails past one x_j, ``c^b x_i^b x_j
    + [b]_c (r0 x_i^(b-1) + r1 x_i^b)``: the ``k = 1`` term scales the term
    at x_i^e by ``a c^((a-1)e)``.  For a = 1 those are all the terms."""
    P = build_presentation(TAILED_DOCS[name])
    for i, j in P._passing:
        c = P.tails[(i, j)][0][0]
        assert P._ore_maps(i, j) is not None
        for b in range(1, 5):
            (lead, lead_word), *rest = P._passing_tails(i, j, b)
            for a in range(1, 5):
                block = {w: r for r, w in P._block_tails(i, j, a, b)}
                assert block.pop((i,) * b + (j,) * a) == lead ** a
                for r, w in rest:
                    e = len(w)
                    assert block.pop((i,) * e + (j,) * (a - 1)) == P.ring.const(a) * c ** ((a - 1) * e) * r
                assert all(w.count(j) < a - 1 for w in block)
                if a == 1:
                    assert block == {}


# -- the coefficient walk by runs ------------------------------------------------------


@st.composite
def _ore_walks(draw):
    """A one-generator Ore extension of F[t] over Q(q) whose sigma and delta
    commute (sigma the identity with any delta, or ``sigma(t) = c t`` with
    ``delta(t) = a t``), a run length and a coefficient.  Some maps and
    some coefficients have q in a denominator; those must keep single
    steps."""
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    q, t = ring.param("q"), ring.var(0)
    scalars = (ring.scalar(2), ring.scalar(-1), ring.scalar(Fraction(2, 3)), q, q.inverse())
    if draw(st.booleans()):
        sigma = identity_endo(ring)
        image = draw(st.sampled_from((ring.one(), t, t * t, t * t + ring.const(3), (t * t * t).scale(q),
                                      t.scale(q.inverse()) + ring.one())))
    else:
        sigma = CoeffEndo((t.scale(draw(st.sampled_from(scalars))),))
        image = t.scale(draw(st.sampled_from(scalars)))
    P = Presentation(ring, ("x",), (sigma,), (CoeffSigmaDerivation((image,), sigma),), {})
    r = ring.zero()
    for _ in range(draw(st.integers(1, 3))):
        r = r + (t ** draw(st.integers(0, 3))).scale(draw(st.sampled_from(scalars)))
    return P, draw(st.integers(1, 6)), r


def _walk_representation(pairs) -> dict:
    return {w: {e: (s.num, s.den) for e, s in c.terms.items()} for c, w in pairs}


def _sder_calls(P, word, r) -> int:
    calls = []
    apply_sder = spbw.core.apply_sder

    def counted(delta, p):
        calls.append(1)
        return apply_sder(delta, p)

    spbw.core.apply_sder = counted
    try:
        P.push_coeff_left(word, r)
    finally:
        spbw.core.apply_sder = apply_sder
    return len(calls)


@settings(max_examples=150, deadline=None)
@given(_ore_walks())
def test_the_run_walk_matches_the_small_step_oracle(case):
    P, m, r = case
    assert P.commutation_failures() == []
    word = (0,) * m
    got = P.multiply(P.monomial((m,)), P.from_coeff(r))
    assert got == P.normalize_atoms(word + (r,))
    # the same stored fractions as one letter at a time
    single = copy.copy(P)
    single._runs = frozenset()
    assert _walk_representation(P.push_coeff_left(word, r)) == _walk_representation(single.push_coeff_left(word, r))
    if P._polynomial_scalars() and spbw.core._polynomial(r):
        assert P._run_letters() == {0}
        assert _sder_calls(P, word, r) <= m  # one chain of delta^k(c)
    else:
        assert _sder_calls(P, word, r) == _sder_calls(single, word, r)


# -- a unit exponent -------------------------------------------------------------------


def _jordan_power_product(P, k):
    """``x^k t^k`` in the Jordan plane by its closed form: sigma is the
    identity and ``delta^j(t^k) = k(k+1)...(k+j-1) t^(k+j)``, so the term
    ``t^(k+j) x^(k-j)`` has the coefficient ``C(k, j) k(k+1)...(k+j-1)``."""
    terms = {}
    for j in range(k + 1):
        rising = 1
        for i in range(j):
            rising *= k + i
        terms[(k - j,)] = P.ring.monomial((k + j,), comb(k, j) * rising)
    return SkewPoly(terms, P.n)


@pytest.mark.parametrize("k", range(17))
def test_a_coefficient_past_a_power_matches_the_closed_form(k):
    """Each walked term of ``x^k t^k`` meets ``_mul_monomials`` with a unit
    exponent, which returns it with no heap pass and caches nothing; the
    product keeps the rendering and the stored fractions of the closed
    form."""
    P = build_presentation(corpus_doc("jordan"))
    got = P.multiply(P.monomial((k,)), P.from_coeff(P.ring.var(0) ** k))
    want = _jordan_power_product(P, k)
    assert P.render(got) == P.render(want)
    assert _representation(got) == _representation(want)
    assert P._mono_cache == {}


@settings(max_examples=150, deadline=None)
@given(_ore_walks())
def test_a_unit_exponent_returns_the_other_monomial(case):
    """A unit exponent gives the other monomial with the ring's unit
    coefficient, the dict the heap pass builds for an ordered word, and the
    products through it keep the values of the small-step oracle."""
    P, m, r = case
    one = P.ring.one()
    for e1, e2, e in (((m,), (0,), (m,)), ((0,), (m,), (m,)), ((0,), (0,), (0,))):
        got = P._mul_monomials(e1, e2)
        assert list(got.terms) == [e] and got.terms[e] is one
    assert P._mono_cache == {}
    x, c = P.monomial((m,)), P.from_coeff(r)
    assert P.multiply(x, c) == P.normalize_atoms((0,) * m + (r,))
    assert P.multiply(c, x) == P.normalize_atoms((r,) + (0,) * m)


# -- a right factor with the unit exponent ---------------------------------------------


def _multiply_through_the_unit_exponent(P, f, g):
    """``f * g`` with each walked term of a non-constant coefficient of g sent
    through ``_mul_monomials`` and ``scale_left``, as for any exponent."""
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            if c2.is_constant():
                add_terms(acc, P._mul_monomials(e1, e2).scale_left(c1 * c2).terms)
                continue
            for h, w in P.push_coeff_left(_expand(e1), c2):
                add_terms(acc, P._mul_monomials(_pack(w, P.n), e2).scale_left(c1 * h).terms)
    return SkewPoly(acc, P.n)


@settings(max_examples=150, deadline=None)
@given(_ore_walks(), st.integers(0, 3))
def test_a_coefficient_right_factor_is_added_at_its_walked_word(case, shift):
    """A term of g with the zero exponent and a non-constant coefficient adds
    ``c1 * h`` at each walked word: the values of the small-step oracle, and
    the stored fractions of the path through ``_mul_monomials``."""
    P, m, r = case
    c1 = P.ring.monomial((shift,), P.ring.param("q") if shift % 2 else 3)
    f = P.monomial((m,), c1) + P.monomial((shift,))
    g = P.from_coeff(r)
    got = P.multiply(f, g)
    want = P.normalize_atoms((c1,) + (0,) * m + (r,)) + P.normalize_atoms((0,) * shift + (r,))
    assert got == want
    old = _multiply_through_the_unit_exponent(P, f, g)
    assert _representation(got) == _representation(old) and P.render(got) == P.render(old)


# -- associativity, the oracle of the diamond lemma ------------------------------------


def _overlap_words(P):
    """The overlap ambiguities of the reduction system, listed here apart
    from the check: x_k x_j x_i (k > j > i), x_j x_i t_v and x_i t_b t_a
    (b > a)."""
    n, nvars, var = P.n, P.ring.nvars, P.ring.var
    words = [(k, j, i) for k in range(n) for j in range(k) for i in range(j)]
    words += [(j, i, var(v)) for j in range(n) for i in range(j) for v in range(nvars)]
    words += [(i, var(b), var(a)) for i in range(n) for b in range(nvars) for a in range(b)]
    return words


@st.composite
def _small_element(draw, P):
    """One or two terms, each a word of at most two generators under a
    rational, times a parameter or its inverse and up to two coefficient
    variables where the ring has them."""
    ring = P.ring
    f = P.zero()
    for _ in range(draw(st.integers(1, 2))):
        word = draw(st.lists(st.integers(0, P.n - 1), max_size=2))
        c = ring.const(draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])))
        if ring.nparams and draw(st.booleans()):
            s = ring.param(draw(st.sampled_from(ring.params)))
            c = c.scale(s.inverse() if draw(st.booleans()) else s)
        for _ in range(draw(st.integers(0, 2)) if ring.nvars else 0):
            c = c * ring.var(draw(st.integers(0, ring.nvars - 1)))
        f = f + P.monomial(_pack(tuple(word), P.n), c)
    return f


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multiply_is_associative_exactly_where_the_pbw_check_passes(data):
    """The skew presentations and the Ore walks of the run oracles always
    pass; one generator over F[t1, t2] fails about half the time."""
    source = data.draw(st.sampled_from([_skew_presentations(), _ore_walks(), _one_generator_over_two_variables()]))
    P = data.draw(source)[0]
    audit = P.pbw_consistency_check()
    if audit.ok:
        mul = P.multiply
        for f, g, h in permutations([data.draw(_small_element(P)) for _ in range(3)]):
            assert mul(mul(f, g), h) == mul(f, mul(g, h))
    else:
        word = next(w for w in _overlap_words(P) if P.render_word(w) == audit.rendered)
        left, right = P.normalize_atoms(word, "leftmost"), P.normalize_atoms(word, "rightmost")
        assert left != right
        assert (left, right) == (audit.left, audit.right)


def _pure_constant(P, i, j):
    """d when the normal form of x_j x_i is ``d x_i x_j`` with d a constant,
    read from the element, else None."""
    rhs = P.relation_rhs(i, j).terms
    c = rhs.get(_pack((i, j), P.n))
    return c if len(rhs) == 1 and c is not None and c.is_constant() else None


def _pure_triple(P, word):
    """Whether the overlap is ``x_k x_j x_i`` with all three pairs pure."""
    if not all(isinstance(a, int) for a in word):
        return False
    k, j, i = word
    return all(_pure_constant(P, a, b) is not None for a, b in ((i, j), (i, k), (j, k)))


@settings(max_examples=150, deadline=None)
@given(_skew_presentations())
def test_pure_overlaps_resolve_to_the_product_of_their_constants(case):
    """The overlaps that pbw_consistency_check skips: both strategies of the
    small-step oracle end at ``d_jk d_ik d_ij x_i x_j x_k``."""
    P, _ = case
    for k, j, i in (w for w in _overlap_words(P) if _pure_triple(P, w)):
        d = _pure_constant(P, j, k) * _pure_constant(P, i, k) * _pure_constant(P, i, j)
        expected = P.monomial(_pack((i, j, k), P.n), d)
        assert P.normalize_atoms((k, j, i), "leftmost") == expected
        assert P.normalize_atoms((k, j, i), "rightmost") == expected


def _reduced_words(monkeypatch, P):
    """The audit of P and the ``(word, strategy)`` of every
    normalize_atoms call it makes, in order."""
    calls = []
    normalize_atoms = Presentation.normalize_atoms

    def spy(self, atoms, strategy="leftmost"):
        calls.append((tuple(atoms), strategy))
        return normalize_atoms(self, atoms, strategy)

    monkeypatch.setattr(Presentation, "normalize_atoms", spy)
    audit = P.pbw_consistency_check()
    monkeypatch.undo()
    return audit, calls


# the probe of the CI packaging step: x1 commutes with every generator,
# x4 x3 x1 is a pure triple, and x4 x3 x2 does not resolve
MIXED_TRIPLES = """name mixedtriples
gens x1 x2 x3 x4
rel x2 x1 = x1 x2
rel x3 x1 = x1 x3
rel x4 x1 = x1 x4
rel x3 x2 = x2 x3 + x4
rel x4 x2 = x2 x4 + x2
rel x4 x3 = x3 x4
"""


@pytest.mark.parametrize("name, reductions", [
    ("poly5", 0), ("qaffine4", 0), ("weyl2", 8), ("broken", 2), ("mixed-triples", 6),
] + [(name, None) for name in CORPUS_NAMES if name != "broken"])
def test_pbw_check_reduces_exactly_the_overlaps_that_are_not_pure(name, reductions, monkeypatch):
    """Each overlap but the pure triples is reduced both ways, in the order
    of the overlap list, up to the first that does not resolve."""
    text = WIDE_DOCS.get(name) or (MIXED_TRIPLES if name == "mixed-triples" else None)
    P = build_presentation(parse_presentation(text) if text else corpus_doc(name))
    audit, calls = _reduced_words(monkeypatch, P)
    # the check lists x_k x_j x_i by (i, j, k), then the other overlaps
    triples = sorted((w for w in _overlap_words(P) if all(isinstance(a, int) for a in w)), key=lambda w: w[::-1])
    others = [w for w in _overlap_words(P) if not all(isinstance(a, int) for a in w)]
    words = [w for w in triples + others if not _pure_triple(P, w)]
    if not audit.ok:
        words = words[:[P.render_word(w) for w in words].index(audit.rendered) + 1]
    assert [word for word, _ in calls] == [w for w in words for _ in range(2)]
    assert [strategy for _, strategy in calls] == ["leftmost", "rightmost"] * len(words)
    if reductions is not None:
        assert len(calls) == reductions
    if name == "mixed-triples":
        assert _pure_triple(P, (3, 2, 0))
        assert (audit.ok, audit.rendered) == (False, "x4*x3*x2")


def _pair_inversions(w):
    """The inversions of a word by brute force over every pair of positions."""
    return sum(1 for p, q in combinations(range(len(w)), 2) if w[p] > w[q])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_inversions_match_the_pair_count(data):
    """The run-wise count on the expanded words the reduction heap starts
    from, and on random words with runs and single letters alike."""
    n = data.draw(st.integers(1, 5))
    letter = st.integers(0, n - 1)
    e1, e2 = (tuple(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))) for _ in range(2))
    runs = data.draw(st.lists(st.tuples(letter, st.integers(1, 4)), max_size=12))
    for w in (_expand(e1) + _expand(e2), tuple(data.draw(st.lists(letter, max_size=30))),
              tuple(a for a, k in runs for _ in range(k))):
        assert _inversions(w, n) == _pair_inversions(w)
