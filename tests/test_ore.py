"""The affine Ore family x t = (q t + r) x + delta_p(t), built only from the
text ``ore_document`` writes: the parsed derivation against its closed form,
the parsed twists against their formulas, and the pipeline verdict against
the case classification on a grid of members."""

import pytest

from spbw.coefficients import CoeffRing, apply_endo, apply_sder, derivative
from spbw.dsl import build_presentation, parse_presentation, render_presentation
from spbw.errors import SpbwError
from spbw.ore import (
    CASE_CONSTANT_P,
    CASE_FREE_P,
    CASE_LINEAR_P,
    CASE_NONE,
    ore_case_classify,
    ore_document,
)
from spbw.pipeline import run_smooth

from conftest import divmod_univariate, grid, grid_member, without_wedge


@pytest.fixture
def ring():
    return CoeffRing(params=("q",), coeff_vars=("t",))


def t_poly(ring):
    return ring.var(0)


def parsed(ring, q, r, p):
    doc = parse_presentation(ore_document(ring, q, r, p))
    return doc, build_presentation(doc)


def ore_delta_closed_form(P, p, f):
    """The derivation of the one-generator extension P applied to f, by its
    difference quotient ``(sigma(f) - f) / (sigma(t) - t) * p`` in exact
    univariate division; with the identity twist it differentiates."""
    t = P.ring.var(0)
    step = apply_endo(P.sigma[0], t) - t
    if step.is_zero():
        return p * derivative(f)
    quot, rem = divmod_univariate(apply_endo(P.sigma[0], f) - f, step)
    assert rem.is_zero(), "the difference quotient left a remainder"
    return quot * p


def test_delta_of_t_is_p(ring):
    q, r = ring.param("q"), ring.scalar(3)
    t = t_poly(ring)
    p = t * t + ring.one()
    _, P = parsed(ring, q, r, p)
    assert apply_sder(P.delta[0], t) == p
    assert ore_delta_closed_form(P, p, t) == p


def test_delta_of_t_squared(ring):
    q, r = ring.param("q"), ring.scalar(1)
    t = t_poly(ring)
    p = ring.const(5)
    _, P = parsed(ring, q, r, p)
    sigma_t = t.scale(q) + ring.const(r)
    expected = (sigma_t + t) * p
    assert apply_sder(P.delta[0], t * t) == expected
    assert ore_delta_closed_form(P, p, t * t) == expected


def test_limit_case_is_p_times_derivative(ring):
    one, zero = ring.sone(), ring.szero()
    t = t_poly(ring)
    p = t * t
    _, P = parsed(ring, one, zero, p)
    got = apply_sder(P.delta[0], t * t * t)
    assert got == (t ** 4).scale(ring.scalar(3))
    assert ore_delta_closed_form(P, p, t * t * t) == got


def test_closed_form_matches_power_sum_oracle(ring):
    # delta(t^k) = (sum_{a+b=k-1} sigma(t)^a t^b) * p for k <= 6
    t = t_poly(ring)
    cases = [
        (ring.param("q"), ring.szero(), t.scale(ring.scalar(2))),
        (ring.param("q"), ring.scalar(2), ring.const(1)),
        (ring.sone(), ring.szero(), t * t),
    ]
    for q, r, p in cases:
        _, P = parsed(ring, q, r, p)
        sigma_t = t.scale(q) + ring.const(r)
        for k in range(1, 7):
            oracle = ring.zero()
            for a in range(k):
                oracle = oracle + (sigma_t ** a) * (t ** (k - 1 - a))
            oracle = oracle * p
            assert apply_sder(P.delta[0], t ** k) == oracle
            assert ore_delta_closed_form(P, p, t ** k) == oracle


@pytest.mark.parametrize("label", grid(), ids=str)
def test_ore_document_is_canonical_text(ring, label):
    text = ore_document(ring, *grid_member(ring, *label))
    assert render_presentation(parse_presentation(text)) == text


def test_zero_q_rejected(ring):
    with pytest.raises(SpbwError):
        ore_document(ring, ring.szero(), ring.szero(), ring.one())
    with pytest.raises(SpbwError):
        ore_case_classify(ring, ring.szero(), ring.szero(), ring.one())


def test_case_classification(ring):
    t = t_poly(ring)
    one, zero = ring.sone(), ring.szero()
    q = ring.param("q")
    assert ore_case_classify(ring, one, zero, t * t) == CASE_FREE_P
    assert ore_case_classify(ring, one, one, ring.const(5)) == CASE_CONSTANT_P
    assert ore_case_classify(ring, ring.scalar(2), zero, t * t) == CASE_NONE
    assert ore_case_classify(ring, one, one, t) == CASE_NONE
    assert ore_case_classify(ring, q, zero, ring.zero()) == CASE_LINEAR_P
    # p = c (t + r/(q-1)) with c = 2, r = q - 1
    p = (t + ring.one()).scale(ring.scalar(2))
    assert ore_case_classify(ring, q, q - one, p) == CASE_LINEAR_P
    assert ore_case_classify(ring, q, q - one, p + ring.one()) == CASE_NONE


def test_symbolic_parameter_never_equals_one(ring):
    q = ring.param("q")
    assert ore_case_classify(ring, q, ring.szero(), t_poly(ring)) in (CASE_LINEAR_P, CASE_NONE)
    # q symbolic with p = t: t = c(t + 0) forces c = 1, fine
    assert ore_case_classify(ring, q, ring.szero(), t_poly(ring)) == CASE_LINEAR_P


def twists(ring, q, r, p):
    """The presentation and the frame images (t, x) of nu_t and nu_x, as the
    parser reads them from the calculus block."""
    doc, P = parsed(ring, q, r, p)
    return P, doc.calculus.twist["t"], doc.calculus.twist["x"]


def test_nu_maps_jordan(ring):
    one, zero = ring.sone(), ring.szero()
    t = t_poly(ring)
    assert ore_case_classify(ring, one, zero, t * t) == CASE_FREE_P
    P, nu_t, nu_x = twists(ring, one, zero, t * t)
    assert nu_t[1] == P.gen(0) + P.from_coeff(t.scale(ring.scalar(2)))
    assert nu_x[0] == P.from_coeff(t)


def test_nu_maps_un2(ring):
    one, zero = ring.sone(), ring.szero()
    P, nu_t, _ = twists(ring, one, zero, t_poly(ring))
    assert nu_t[1] == P.gen(0) + P.one()


def test_nu_maps_qplane(ring):
    q, zero = ring.param("q"), ring.szero()
    P, nu_t, nu_x = twists(ring, q, zero, ring.zero())
    assert nu_x[0] == P.from_coeff(t_poly(ring).scale(q.inverse()))
    assert nu_t[1] == P.gen(0).scale(q)


def test_nu_maps_weyl(ring):
    one, zero = ring.sone(), ring.szero()
    P, nu_t, _ = twists(ring, one, zero, ring.one())
    assert nu_t[1] == P.gen(0)


def test_nu_maps_case_b(ring):
    one = ring.sone()
    P, _, nu_x = twists(ring, one, ring.scalar(2), ring.const(7))
    assert nu_x[0] == P.from_coeff(t_poly(ring) - ring.const(2))


def test_nu_maps_unsupported(ring):
    # outside the three cases nu_t does not respect x t = 2 t x + t^2, and
    # the pipeline says so in the compatibility record
    t = t_poly(ring)
    assert ore_case_classify(ring, ring.scalar(2), ring.szero(), t * t) == CASE_NONE
    report = run_smooth(parse_presentation(ore_document(ring, ring.scalar(2), ring.szero(), t * t)))
    assert report.verdict == "failed" and report.failed_check == "compatibility"
    record = report.check("compatibility")
    assert record.status == "error"
    assert record.witnesses == ["relation x*t not respected"]


# -- the grid of members ----------------------------------------------------------


def test_grid_verdict_follows_the_case_table(ring):
    certified = 0
    for qs, r, ps in grid():
        q, rv, p = grid_member(ring, qs, r, ps)
        tag = ore_case_classify(ring, q, rv, p)
        report = run_smooth(parse_presentation(ore_document(ring, q, rv, p)))
        member = f"q={qs} r={r} p={ps}"
        assert (report.verdict == "certified-smooth") == (tag != CASE_NONE), member
        if tag == CASE_NONE:
            assert report.verdict == "failed" and report.failed_check == "compatibility", member
            assert report.check("compatibility").status == "error", member
        certified += tag != CASE_NONE
    assert len(grid()) == 96 and certified == 28


def test_grid_without_the_wedge_constant_fails_d_squared(ring):
    # the wedge constant q is what makes d^2 vanish once q != 1; the two
    # divergence stages need the d^2 certificate and name its failure
    checked = 0
    for qs, r, ps in grid():
        q, rv, p = grid_member(ring, qs, r, ps)
        if qs == "1" or ore_case_classify(ring, q, rv, p) != CASE_LINEAR_P:
            continue
        report = run_smooth(parse_presentation(without_wedge(ore_document(ring, q, rv, p))))
        assert report.verdict == "not-certified", f"q={qs} r={r} p={ps}"
        assert report.failing == ["d-squared", "divergence-leibniz", "flatness"], f"q={qs} r={r} p={ps}"
        checked += 1
    assert checked == 14
