from math import comb

import pytest

from spbw.coefficients import CoeffRing, CoeffSigmaDerivation
from spbw.core import Presentation
from spbw.corpus import CORPUS_NAMES, corpus_doc
from spbw.dsl import build_presentation, parse_presentation
from spbw.errors import UnsupportedPresentationError
from spbw.gkdim import (
    CERTIFIED,
    FAILED,
    NOT_CERTIFIED,
    CheckRecord,
    filtration_dims,
    gk_estimate,
    smoothness_verdict,
)

from conftest import identity_endo


def test_filtration_dims_weyl(weyl):
    assert filtration_dims(weyl, 8)[:4] == [1, 3, 6, 10]


def test_filtration_dims_match_closed_form(weyl, jordan, qplane):
    for P in (weyl, jordan, qplane):
        M = P.ring.nvars + P.n
        assert filtration_dims(P, 10) == [comb(m + M, M) for m in range(11)]


def test_filtration_dims_scalars_only():
    ring = CoeffRing()
    P = Presentation(ring, (), (), (), {})
    assert filtration_dims(P, 9) == [1] * 10


def test_filtration_jordan_v3(jordan):
    assert filtration_dims(jordan, 8)[3] == 10


def test_filtration_incompatible_rejected():
    # delta(t) = t^3 overshoots the degree of x*t
    ring = CoeffRing(coeff_vars=("t",))
    t = ring.var(0)
    sigma = identity_endo(ring)
    delta = CoeffSigmaDerivation((t * t * t,), sigma)
    P = Presentation(ring, ("x",), (sigma,), (delta,), {})
    with pytest.raises(UnsupportedPresentationError):
        filtration_dims(P, 8)


def test_gk_estimate_weyl(weyl):
    assert gk_estimate(filtration_dims(weyl, 12)) == 2


def test_gk_estimate_three_symbols():
    assert gk_estimate([comb(m + 3, 3) for m in range(13)]) == 3


@pytest.mark.parametrize("k", range(1, 9))
def test_gk_estimate_closed_form_tables(k):
    assert gk_estimate([comb(m + k, k) for m in range(13)]) == k


def _poly_doc(n):
    gens = [f"x{i}" for i in range(1, n + 1)]
    rels = [f"rel {b} {a} = {a} {b}" for i, a in enumerate(gens) for b in gens[i + 1:]]
    return parse_presentation("\n".join([f"name poly{n}", "gens " + " ".join(gens)] + rels) + "\n")


def _gkdim(doc, depth=12):
    """The table and estimate that ``spbw gkdim`` prints; its
    ``--max-degree`` is 12 by default."""
    dims = filtration_dims(build_presentation(doc), depth)
    return dims, gk_estimate(dims)


@pytest.mark.parametrize("n", [4, 5])
def test_run_gkdim_wide_polynomial_rings(n):
    dims, est = _gkdim(_poly_doc(n))
    assert dims == [comb(m + n, n) for m in range(13)]
    assert est == n


def test_run_gkdim_as_many_symbols_as_gk_degree():
    # a table of depth + 1 entries would run out after 8 differences, so
    # the table goes one deeper than the symbol count
    dims, est = _gkdim(_poly_doc(8), depth=8)
    assert len(dims) == 10
    assert est == 8


def test_gk_estimate_more_symbols_than_gk_degree():
    assert gk_estimate(filtration_dims(build_presentation(_poly_doc(13)), 12)) == 13


def test_gk_estimate_constant_table():
    assert gk_estimate([1] * 12) == 0


def _finite_difference_estimate(dims):
    """Reference for gk_estimate that reads nothing from the closed form:
    the order at which the finite differences of the table settle at a
    nonzero constant, or None when none does."""
    seq = list(dims)
    for k in range(len(dims)):
        if len(seq) < 2 or all(v == seq[0] for v in seq):
            return k if len(seq) >= 2 and seq[0] != 0 else None
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return None


def _assert_matches_finite_differences(P, depth):
    dims = filtration_dims(P, depth)
    expected = _finite_difference_estimate(dims)
    assert expected is not None
    assert gk_estimate(dims) == expected


@pytest.mark.parametrize("depth", [8, 12, 20])
@pytest.mark.parametrize("s", range(1, 15))
def test_gk_estimate_matches_finite_differences_on_polynomial_rings(s, depth):
    _assert_matches_finite_differences(build_presentation(_poly_doc(s)), depth)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_gk_estimate_matches_finite_differences_on_the_corpus(name):
    # depth 1 is what the pipeline asks for
    P = build_presentation(corpus_doc(name))
    for depth in (1, 8, 20):
        _assert_matches_finite_differences(P, depth)


def _records(**statuses):
    return [CheckRecord(name=k, status=v) for k, v in statuses.items()]


def test_verdict_certified():
    checks = _records(**{"pbw-consistency": "pass", "compatibility": "pass", "connectedness": "pass"})
    verdict, _, failing = smoothness_verdict(checks, 2, 2)
    assert verdict == CERTIFIED and not failing


def test_verdict_dimension_mismatch():
    checks = _records(**{"pbw-consistency": "pass", "compatibility": "pass", "connectedness": "fail"})
    verdict, _, failing = smoothness_verdict(checks, 1, 2)
    assert verdict == NOT_CERTIFIED
    assert "gk-dimension-match" in failing and "connectedness" in failing


def test_verdict_hard_failure():
    checks = _records(**{"pbw-consistency": "fail", "compatibility": "skipped"})
    verdict, failed_check, _ = smoothness_verdict(checks, None, None)
    assert verdict == FAILED and failed_check == "pbw-consistency"


def test_verdict_monotone():
    base = {"pbw-consistency": "pass", "compatibility": "pass", "d-squared": "pass",
            "connectedness": "pass", "integrability": "pass"}
    assert smoothness_verdict(_records(**base), 2, 2)[0] == CERTIFIED
    for name in base:
        flipped = dict(base)
        flipped[name] = "fail"
        verdict, _, _ = smoothness_verdict(_records(**flipped), 2, 2)
        assert verdict != CERTIFIED
