import pytest

from spbw.coefficients import CoeffRing, apply_sder, apply_endo, derivative
from spbw.errors import SpbwError, UnsupportedCaseError
from spbw.ore import (
    CASE_CONSTANT_P,
    CASE_FREE_P,
    CASE_LINEAR_P,
    CASE_NONE,
    ore_case_classify,
    ore_delta_closed_form,
    ore_delta_from_p,
    ore_nu_maps,
    sigma_affine,
)


@pytest.fixture
def ring():
    return CoeffRing(params=("q",), coeff_vars=("t",))


def t_poly(ring):
    return ring.var(0)


def test_delta_of_t_is_p(ring):
    q, r = ring.param("q"), ring.scalar(3)
    t = t_poly(ring)
    p = t * t + ring.one()
    delta = ore_delta_from_p(ring, q, r, p)
    assert apply_sder(delta, t) == p
    assert ore_delta_closed_form(ring, q, r, p, t) == p


def test_delta_of_t_squared(ring):
    q, r = ring.param("q"), ring.scalar(1)
    t = t_poly(ring)
    p = ring.const(5)
    delta = ore_delta_from_p(ring, q, r, p)
    sigma_t = t.scale(q) + ring.const(r)
    expected = (sigma_t + t) * p
    assert apply_sder(delta, t * t) == expected
    assert ore_delta_closed_form(ring, q, r, p, t * t) == expected


def test_limit_case_is_p_times_derivative(ring):
    one, zero = ring.sone(), ring.szero()
    t = t_poly(ring)
    p = t * t
    delta = ore_delta_from_p(ring, one, zero, p)
    got = apply_sder(delta, t * t * t)
    assert got == (t ** 4).scale(ring.scalar(3))
    assert ore_delta_closed_form(ring, one, zero, p, t * t * t) == got


def test_closed_form_matches_power_sum_oracle(ring):
    # delta(t^k) = (sum_{a+b=k-1} sigma(t)^a t^b) * p for k <= 6
    cases = [
        (ring.param("q"), ring.szero(), t_poly(ring).scale(ring.scalar(2))),
        (ring.param("q"), ring.scalar(2), ring.const(1)),
        (ring.sone(), ring.szero(), t_poly(ring) * t_poly(ring)),
    ]
    t = t_poly(ring)
    for q, r, p in cases:
        delta = ore_delta_from_p(ring, q, r, p)
        sigma_t = apply_endo(sigma_affine(ring, q, r), t)
        for k in range(1, 7):
            oracle = ring.zero()
            for a in range(k):
                oracle = oracle + (sigma_t ** a) * (t ** (k - 1 - a))
            oracle = oracle * p
            assert apply_sder(delta, t ** k) == oracle
            assert ore_delta_closed_form(ring, q, r, p, t ** k) == oracle


def test_zero_q_rejected(ring):
    with pytest.raises(SpbwError):
        ore_delta_from_p(ring, ring.szero(), ring.szero(), ring.one())


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


def test_nu_maps_jordan(ring):
    one, zero = ring.sone(), ring.szero()
    t = t_poly(ring)
    data = ore_nu_maps(ring, one, zero, t * t)
    assert data.case_tag == CASE_FREE_P
    P = data.presentation
    expected = P.gen(0) + P.from_coeff(t.scale(ring.scalar(2)))
    assert data.nu_t.images[1] == expected
    assert data.nu_x.images[0] == P.from_coeff(t)


def test_nu_maps_un2(ring):
    one, zero = ring.sone(), ring.szero()
    data = ore_nu_maps(ring, one, zero, t_poly(ring))
    P = data.presentation
    assert data.nu_t.images[1] == P.gen(0) + P.one()


def test_nu_maps_qplane(ring):
    q, zero = ring.param("q"), ring.szero()
    data = ore_nu_maps(ring, q, zero, ring.zero())
    P = data.presentation
    assert data.nu_x.images[0] == P.from_coeff(t_poly(ring).scale(q.inverse()))
    assert data.nu_t.images[1] == P.gen(0).scale(q)


def test_nu_maps_weyl(ring):
    one, zero = ring.sone(), ring.szero()
    data = ore_nu_maps(ring, one, zero, ring.one())
    assert data.nu_t.images[1] == data.presentation.gen(0)


def test_nu_maps_case_b(ring):
    one = ring.sone()
    data = ore_nu_maps(ring, one, ring.scalar(2), ring.const(7))
    P = data.presentation
    assert data.nu_x.images[0] == P.from_coeff(t_poly(ring) - ring.const(2))


def test_nu_maps_unsupported(ring):
    with pytest.raises(UnsupportedCaseError):
        ore_nu_maps(ring, ring.scalar(2), ring.szero(), t_poly(ring) * t_poly(ring))
