from math import comb

import pytest

from spbw.coefficients import CoeffRing, CoeffSigmaDerivation
from spbw.core import Presentation
from spbw.dsl import build_presentation, parse_presentation
from spbw.errors import UnsupportedPresentationError
from spbw.gkdim import (
    CERTIFIED,
    FAILED,
    NOT_CERTIFIED,
    CheckRecord,
    FiltrationTable,
    filtration_dims,
    gk_estimate,
    smoothness_verdict,
)

from conftest import identity_endo


def test_filtration_dims_weyl(weyl):
    table = filtration_dims(weyl, 8)
    assert table.dims[:4] == [1, 3, 6, 10]


def test_filtration_dims_match_closed_form(weyl, jordan, qplane):
    for P in (weyl, jordan, qplane):
        M = P.ring.nvars + P.n
        table = filtration_dims(P, 10)
        assert table.dims == [comb(m + M, M) for m in range(11)]


def test_filtration_dims_scalars_only():
    ring = CoeffRing()
    P = Presentation(ring, (), (), (), {})
    table = filtration_dims(P, 9)
    assert table.dims == [1] * 10


def test_filtration_jordan_v3(jordan):
    assert filtration_dims(jordan, 8).dims[3] == 10


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
    table = FiltrationTable([comb(m + 3, 3) for m in range(13)])
    est, diag = gk_estimate(table)
    assert est == 3
    assert diag["difference_degree"] == 3 and diag["slope_estimate"] == 3


@pytest.mark.parametrize("k", range(1, 9))
def test_gk_estimate_closed_form_tables(k):
    # the slope reads low from k = 4 on; the difference degree decides
    est, diag = gk_estimate(FiltrationTable([comb(m + k, k) for m in range(13)]))
    assert est == k and diag["difference_degree"] == k and not diag["ambiguous"]


def _poly_doc(n, options=""):
    gens = [f"x{i}" for i in range(1, n + 1)]
    rels = [f"rel {b} {a} = {a} {b}" for i, a in enumerate(gens) for b in gens[i + 1:]]
    lines = [f"name poly{n}", "gens " + " ".join(gens)] + rels + ([options] if options else [])
    return parse_presentation("\n".join(lines) + "\n")


def _gkdim(doc):
    table = filtration_dims(build_presentation(doc), doc.options["gk_degree"])
    return table, gk_estimate(table)


@pytest.mark.parametrize("n", [4, 5])
def test_run_gkdim_wide_polynomial_rings(n):
    """The table and estimate of ``spbw gkdim`` at the document's
    ``gk_degree``."""
    table, (est, diag) = _gkdim(_poly_doc(n))
    assert table.dims == [comb(m + n, n) for m in range(13)]
    assert est == n and not diag["ambiguous"]


def test_run_gkdim_as_many_symbols_as_gk_degree():
    # a table of gk_degree + 1 entries would run out after 8 differences
    table, (est, diag) = _gkdim(_poly_doc(8, "options gk_degree=8"))
    assert len(table.dims) == 10
    assert est == 8 and diag["difference_degree"] == 8 and not diag["ambiguous"]


def test_gk_estimate_more_symbols_than_gk_degree():
    est, diag = gk_estimate(filtration_dims(build_presentation(_poly_doc(13)), 12))
    assert est == 13 and not diag["ambiguous"]


def test_gk_estimate_constant_table():
    est, diag = gk_estimate(FiltrationTable([1] * 12))
    assert est == 0 and not diag["ambiguous"]


def test_gk_estimate_needs_depth(weyl):
    with pytest.raises(ValueError):
        gk_estimate(FiltrationTable([1, 3, 6, 10]))


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
