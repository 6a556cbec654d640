from math import comb, log

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
    est, diag = gk_estimate(filtration_dims(weyl, 12))
    assert est == 2 and not diag["ambiguous"]


def test_gk_estimate_three_symbols():
    est, diag = gk_estimate([comb(m + 3, 3) for m in range(13)])
    assert est == 3
    assert diag["difference_degree"] == 3 and diag["slope_estimate"] == 3


@pytest.mark.parametrize("k", range(1, 9))
def test_gk_estimate_closed_form_tables(k):
    # the slope reads low from k = 4 on; the difference degree decides
    est, diag = gk_estimate([comb(m + k, k) for m in range(13)])
    assert est == k and diag["difference_degree"] == k and not diag["ambiguous"]


def _poly_doc(n, options=""):
    gens = [f"x{i}" for i in range(1, n + 1)]
    rels = [f"rel {b} {a} = {a} {b}" for i, a in enumerate(gens) for b in gens[i + 1:]]
    lines = [f"name poly{n}", "gens " + " ".join(gens)] + rels + ([options] if options else [])
    return parse_presentation("\n".join(lines) + "\n")


def _gkdim(doc):
    dims = filtration_dims(build_presentation(doc), doc.options["gk_degree"])
    return dims, gk_estimate(dims)


@pytest.mark.parametrize("n", [4, 5])
def test_run_gkdim_wide_polynomial_rings(n):
    """The table and estimate of ``spbw gkdim`` at the document's
    ``gk_degree``."""
    dims, (est, diag) = _gkdim(_poly_doc(n))
    assert dims == [comb(m + n, n) for m in range(13)]
    assert est == n and not diag["ambiguous"]


def test_run_gkdim_as_many_symbols_as_gk_degree():
    # a table of gk_degree + 1 entries would run out after 8 differences
    dims, (est, diag) = _gkdim(_poly_doc(8, "options gk_degree=8"))
    assert len(dims) == 10
    assert est == 8 and diag["difference_degree"] == 8 and not diag["ambiguous"]


def test_gk_estimate_more_symbols_than_gk_degree():
    est, diag = gk_estimate(filtration_dims(build_presentation(_poly_doc(13)), 12))
    assert est == 13 and not diag["ambiguous"]


def test_gk_estimate_constant_table():
    est, diag = gk_estimate([1] * 12)
    assert est == 0 and not diag["ambiguous"]


def test_gk_estimate_needs_depth(weyl):
    with pytest.raises(ValueError):
        gk_estimate([1, 3, 6, 10])


def _finite_difference_estimate(dims):
    """Reference for gk_estimate that reads nothing from the closed form:
    the order at which the finite differences of the table settle at a
    nonzero constant (None when none does), and the log-log tail slope."""
    order, seq = None, list(dims)
    for k in range(len(dims)):
        if len(seq) < 2 or all(v == seq[0] for v in seq):
            order = k if len(seq) >= 2 and seq[0] != 0 else None
            break
        seq = [b - a for a, b in zip(seq, seq[1:])]
    m = len(dims) - 1
    slope = 0 if dims[m] == dims[m - 1] else round((log(dims[m]) - log(dims[m - 1])) / (log(m) - log(m - 1)))
    return order, {"difference_degree": order, "slope_estimate": slope,
                   "ambiguous": order is None, "note": "desk-scale estimate"}


def test_exact_slope_agrees_with_the_float_slope():
    # every closed-form table of s = 0..29 symbols at gk_degree 8..59, with
    # the reference's float log-log slope
    for s in range(30):
        for gk_degree in range(8, 60):
            dims = [comb(s + m, m) for m in range(max(gk_degree, s + 1) + 1)]
            got = gk_estimate(dims)[1]["slope_estimate"]
            assert got == _finite_difference_estimate(dims)[1]["slope_estimate"], (s, gk_degree)


def _assert_matches_finite_differences(P, gk_degree):
    dims = filtration_dims(P, gk_degree)
    expected = _finite_difference_estimate(dims)
    assert expected[0] is not None
    assert gk_estimate(dims) == expected


@pytest.mark.parametrize("gk_degree", [8, 12, 20])
@pytest.mark.parametrize("s", range(1, 15))
def test_gk_estimate_matches_finite_differences_on_polynomial_rings(s, gk_degree):
    _assert_matches_finite_differences(build_presentation(_poly_doc(s)), gk_degree)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_gk_estimate_matches_finite_differences_on_the_corpus(name):
    doc = corpus_doc(name)
    P = build_presentation(doc)
    for gk_degree in (doc.options["gk_degree"], 8, 20):
        _assert_matches_finite_differences(P, gk_degree)


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
