"""Corpus-wide invariants: every shipped presentation is pushed through the
algebraic laws the engine relies on, with seeded sampling and exact equality.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, combinations

import pytest

from spbw.calculus import DiffForm, build_calculus
from spbw.coefficients import CoeffEndo, apply_endo, apply_sder
from spbw.core import SkewPoly, _expand, _pack, exponents_upto
from spbw.corpus import CORPUS_NAMES, corpus_doc
from spbw.dsl import build_presentation
from spbw.extended import extend_sigma, hypothesis_check
from spbw.gkdim import filtration_dims
from spbw.lincomb import add_terms
from spbw.pipeline import calculus_spec_from_doc
from conftest import (
    IntegralForm,
    Transport,
    compose,
    d_word_by_positions,
    lift_delta,
    random_expo,
    random_skew,
    right_multiply,
    word_element,
)

SMOOTH_NAMES = tuple(n for n in CORPUS_NAMES if n != "broken")


@pytest.fixture(scope="module")
def presentations():
    return {name: build_presentation(corpus_doc(name)) for name in CORPUS_NAMES}


@pytest.fixture(scope="module")
def calculi(presentations):
    out = {}
    for name in SMOOTH_NAMES:
        doc = corpus_doc(name)
        out[name] = build_calculus(presentations[name], calculus_spec_from_doc(doc, presentations[name]))
    return out


def random_coeff(P, rng, degree=3):
    out = P.ring.zero()
    for _ in range(rng.randint(1, 3)):
        e = random_expo(rng, P.ring.nvars, rng.randint(0, degree))
        out = out + P.ring.monomial(e, rng.choice([-2, -1, 1, 2, 3]))
    return out


def test_endo_multiplicative_per_corpus(presentations):
    for name, P in presentations.items():
        rng = random.Random(42)
        for i in range(P.n):
            for _ in range(100 // max(P.n, 1)):
                p, g = random_coeff(P, rng), random_coeff(P, rng)
                lhs = apply_endo(P.sigma[i], p * g)
                rhs = apply_endo(P.sigma[i], p) * apply_endo(P.sigma[i], g)
                assert lhs == rhs, name


def test_sder_twisted_product_rule_per_corpus(presentations):
    for name, P in presentations.items():
        rng = random.Random(43)
        for i in range(P.n):
            for _ in range(100 // max(P.n, 1)):
                p, g = random_coeff(P, rng), random_coeff(P, rng)
                lhs = apply_sder(P.delta[i], p * g)
                rhs = apply_endo(P.sigma[i], p) * apply_sder(P.delta[i], g) + apply_sder(P.delta[i], p) * g
                assert lhs == rhs, name


def test_sigma_inverse_round_trip_per_corpus(presentations):
    for name, P in presentations.items():
        rng = random.Random(44)
        for i in range(P.n):
            if P.sigma[i].inverse_images is None:
                continue
            inv = CoeffEndo(P.sigma[i].inverse_images, P.sigma[i].images)
            for _ in range(20):
                p = random_coeff(P, rng)
                assert apply_endo(inv, apply_endo(P.sigma[i], p)) == p, name


def test_strategy_independence_per_corpus(presentations):
    for name, P in presentations.items():
        if not P.pbw_consistency_check().ok:
            continue  # conditional on the diamond property
        rng = random.Random(45)
        for _ in range(200):
            word = []
            for _ in range(rng.randint(1, 5)):
                if P.ring.nvars and rng.random() < 0.25:
                    word.append(P.ring.monomial(random_expo(rng, P.ring.nvars, rng.randint(0, 2))))
                else:
                    word.append(rng.randrange(P.n))
            left = P.normalize_atoms(word, "leftmost")
            right = P.normalize_atoms(word, "rightmost")
            assert left == right, f"{name}: {P.render_word(word)}"


def test_multiply_associative_per_corpus(presentations):
    # associativity presumes the ordered monomials form a basis, so the
    # deliberately inconsistent entry is out
    for name in SMOOTH_NAMES:
        P = presentations[name]
        rng = random.Random(46)
        for _ in range(100):
            f, g, h = (random_skew(P, rng, 3, max_terms=2) for _ in range(3))
            assert P.multiply(P.multiply(f, g), h) == P.multiply(f, P.multiply(g, h)), name


def test_normalize_idempotent_per_corpus(presentations):
    for name, P in presentations.items():
        rng = random.Random(47)
        for _ in range(20):
            f = random_skew(P, rng)
            terms = []
            for e, c in f.terms.items():
                word = []
                for i, k in enumerate(e):
                    word.extend([i] * k)
                terms.append((c, word))
            assert P.normalize(terms) == f, name


def test_extended_maps_restrict_to_base(presentations):
    for name, P in presentations.items():
        if not hypothesis_check(P).proposition_ok:
            continue
        for i in range(P.n):
            sig, dele = extend_sigma(P, i), lift_delta(P, i)
            for j in range(P.ring.nvars):
                v = P.ring.var(j)
                assert sig.apply(P.from_coeff(v)) == P.from_coeff(apply_endo(P.sigma[i], v)), name
                assert dele(P.from_coeff(v)) == P.from_coeff(apply_sder(P.delta[i], v)), name


def test_lifted_sigmas_commute_under_t2(presentations):
    for name, P in presentations.items():
        rep = hypothesis_check(P)
        if not (rep.proposition_ok and rep.t2_sigma_sigma) or P.n < 2:
            continue
        lifts = [extend_sigma(P, i) for i in range(P.n)]
        for i in range(P.n):
            for j in range(i + 1, P.n):
                assert compose(lifts[i], lifts[j]).images == compose(lifts[j], lifts[i]).images, name


def test_wedge_associativity_per_corpus(calculi):
    for name, calc in calculi.items():
        P = calc.P
        rng = random.Random(48)
        for _ in range(100):
            forms = []
            for _ in range(3):
                S = tuple(sorted(rng.sample(range(calc.N), rng.randint(0, min(calc.N, 2)))))
                forms.append(calc.form(S, random_skew(P, rng, 2, max_terms=2)))
            a, b, c = forms
            assert calc.wedge(calc.wedge(a, b), c) == calc.wedge(a, calc.wedge(b, c)), name


def test_density_basis_forms_are_wedges_of_differentials(calculi):
    from itertools import combinations

    for name, calc in calculi.items():
        # d of each bound potential is the matching basis one-form
        for i, dg in enumerate(calc.spec.dgens):
            assert calc.d0(dg.potential) == calc.form((i,), calc.P.one()), name
        for k in range(1, min(calc.N, 3) + 1):
            for S in combinations(range(calc.N), k):
                built = calc.form((), calc.P.one())
                for i in S:
                    built = calc.wedge(built, calc.d0(calc.spec.dgens[i].potential))
                assert built == calc.form(S, calc.P.one()), name


def test_partial_formula_matches_exponents_to_degree_six(calculi):
    for name in ("poly2", "weyl", "poly3"):
        calc = calculi[name]
        P = calc.P
        from itertools import product
        for alpha in product(range(7), repeat=P.n):
            if not 0 < sum(alpha) <= 6:
                continue
            df = calc.d0(P.monomial(alpha))
            for i in range(P.n):
                if alpha[i]:
                    lower = list(alpha)
                    lower[i] -= 1
                    expected = P.monomial(lower).scale(P.ring.scalar(alpha[i]))
                    assert df.terms[(i,)] == expected, name


def test_filtration_matches_closed_form_per_corpus(presentations):
    # the oracle counts the normal monomials of each degree by enumeration
    for name, P in presentations.items():
        counts = [0] * 10
        for e in exponents_upto(P.ring.nvars + P.n, 9):
            counts[sum(e)] += 1
        assert filtration_dims(P, 9) == list(accumulate(counts)), name


def test_volume_and_pi_identities_per_corpus(calculi):
    for name, calc in calculi.items():
        nu = calc.volume()
        rng = random.Random(49)
        f = random_skew(calc.P, rng, 3)
        omega = calc.form(tuple(range(calc.N)), calc.P.one())
        assert Transport(calc).pi_omega(right_multiply(calc, omega, f)) == f, name
        for s in range(calc.nsyms):
            a = calc.P.symbol(s)
            lhs = calc.left_multiply(a, omega)
            rhs = right_multiply(calc, omega, nu.apply(a))
            assert lhs == rhs, name


def _weights(P):
    out = [P.ring.sone(), P.ring.scalar(Fraction(-3, 2))]
    for name in P.ring.params:
        q = P.ring.param(name)
        out.append(q * (q + P.ring.sone()).inverse())
    return out


def test_d0_of_each_word_matches_position_expansion_per_corpus(calculi):
    for name, calc in calculi.items():
        P = calc.P
        rng = random.Random(50)
        weights = _weights(P)
        for _ in range(40):
            word = [rng.randrange(calc.nsyms) for _ in range(rng.randint(0, 5))]
            for w in (word, sorted(word)):  # as drawn, and in normal order
                weight = rng.choice(weights)
                f = word_element(P, w).scale(weight)
                assert calc.d0(f) == d_word_by_positions(calc, w, weight), (name, w)


def test_d0_matches_position_expansion_per_corpus(calculi):
    for name, calc in calculi.items():
        P = calc.P
        rng = random.Random(51)
        m = P.ring.nvars
        for _ in range(20):
            f = random_skew(P, rng, 4)
            acc: dict = {}
            for e, c in f.terms.items():
                for tvec, s in c.terms.items():
                    word = [j for j, k in enumerate(tvec) for _ in range(k)]
                    word += [m + i for i, k in enumerate(e) for _ in range(k)]
                    add_terms(acc, d_word_by_positions(calc, word, s).terms)
            assert calc.d0(f) == DiffForm(acc), (name, P.render(f))


# -- the calculus by linearity against per-call oracles ------------------------------------


def representation(f):
    """Every stored ``num``/``den`` of an element, as plain nested dicts."""
    return {e: {t: (s.num, s.den) for t, s in c.terms.items()} for e, c in f.terms.items()}


def weighted_skew(P, rng, degree):
    """A random element with one term scaled by a rational or parametric
    weight, or left alone."""
    f = random_skew(P, rng, degree, max_terms=2)
    return f + random_skew(P, rng, degree, max_terms=1).scale(rng.choice(_weights(P)))


def nabla_by_transport(transport, k, phi):
    """The transported divergence computed per call, on the whole functional."""
    return transport.theta(k + 1, transport.calc.differential(transport.theta_inv(k, phi)))


def test_memoized_divergence_matches_transport_per_corpus(calculi):
    for name, calc in calculi.items():
        rng = random.Random(52)
        transport = Transport(calc)
        for k in range(calc.N):
            for _ in range(8):
                values = {}
                for S in combinations(range(calc.N), calc.N - k):
                    f = weighted_skew(calc.P, rng, 3)
                    if not f.is_zero():
                        values[S] = f
                phi = IntegralForm(calc.N - k, values)
                assert transport.nabla(k, phi) == nabla_by_transport(transport, k, phi), (name, k)


def apply_by_substitution(endo, f):
    """An endomorphism applied term by term: each coefficient monomial is
    substituted from its scalar up, then multiplied by the generator powers."""
    P = endo.P
    m = P.ring.nvars
    acc: dict = {}
    for e, c in f.terms.items():
        coeff: dict = {}
        for tvec, s in c.terms.items():
            term = P.const(s)
            for j, k in enumerate(tvec):
                if k:
                    term = P.multiply(term, endo._power(j, k))
            add_terms(coeff, term.terms)
        term = SkewPoly(coeff, P.n)
        for i, k in enumerate(e):
            if k:
                term = P.multiply(term, endo._power(m + i, k))
        add_terms(acc, term.terms)
    return SkewPoly(acc, P.n)


def test_memoized_twists_match_substitution_per_corpus(calculi):
    for name, calc in calculi.items():
        rng = random.Random(53)
        for dg in calc.spec.dgens:
            for endo in (dg.twist, dg.twist.inverse):
                for _ in range(10):
                    f = weighted_skew(calc.P, rng, 4)
                    expected = representation(apply_by_substitution(endo, f))
                    assert representation(endo.apply(f)) == expected, (name, dg.name)


def multiply_generic(P, f, g):
    """The general product loop, without the unit fast path."""
    acc: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            for h, w in P.push_coeff_left(_expand(e1), c2):
                add_terms(acc, P._mul_monomials(_pack(w, P.n), e2).scale_left(c1 * h).terms)
    return SkewPoly(acc, P.n)


def test_unit_products_match_generic_path_per_corpus(presentations):
    for name, P in presentations.items():
        rng = random.Random(54)
        # the literal unit, and constants that are not: a value of one such
        # as q/q is multiplied out like any other
        units = [P.one()] + [P.const(w) for w in _weights(P)[1:]]
        units += [P.const(q * q.inverse()) for q in map(P.ring.param, P.ring.params)]
        for _ in range(20):
            f = weighted_skew(P, rng, 4)
            for u in units:
                assert representation(P.multiply(u, f)) == representation(multiply_generic(P, u, f)), name
                assert representation(P.multiply(f, u)) == representation(multiply_generic(P, f, u)), name
