"""Each oracle accepts the program's answer and rejects a wrong one."""

import copy

import pytest

from oracles import KNOWN_DEFECT, OK, WRONG, check_product, check_report
from spbw import Report, SkewPoly, build_presentation, parse_presentation
from workloads import CERTIFIED, DocInput, ProductInput, corpus_pass, corpus_source


def _product(family, k, i, j):
    inp = ProductInput(family, corpus_source(family), k, i, j)
    P = build_presentation(parse_presentation(inp.text))
    left = [0] * P.n
    left[j] = k
    if i is None:
        right = P.from_coeff(P.ring.var(0) ** k)
    else:
        e = [0] * P.n
        e[i] = k
        right = P.monomial(e)
    return inp, P, P.multiply(P.monomial(left), right)


def _flip_one(f):
    """`f` with the sign of one coefficient flipped."""
    terms = dict(f.terms)
    e = min(terms)
    terms[e] = -terms[e]
    return SkewPoly(terms, f.ngens)


CASES = [("weyl", 4, 0, 1), ("un2", 3, 0, 1), ("jordan", 6, None, 0),
         ("qplane", 5, 0, 1), ("qaffine3", 3, 0, 2), ("qaffine3", 2, 1, 2)]


@pytest.mark.parametrize("family,k,i,j", CASES)
def test_product_oracle_accepts_the_product(family, k, i, j):
    inp, P, f = _product(family, k, i, j)
    assert check_product(inp, P, f) == (OK, "")


@pytest.mark.parametrize("family,k,i,j", CASES)
def test_product_oracle_rejects_a_flipped_coefficient(family, k, i, j):
    inp, P, f = _product(family, k, i, j)
    assert check_product(inp, P, _flip_one(f))[0] == WRONG


def test_product_oracle_rejects_a_wrong_parameter_power():
    inp, P, f = _product("qplane", 3, 0, 1)
    assert check_product(inp, P, f.scale(P.ring.param("q")))[0] == WRONG


def test_product_oracle_rejects_a_wrong_pair():
    inp, P, f = _product("qaffine3", 2, 0, 1)
    other = ProductInput(inp.family, inp.text, inp.k, 0, 2)
    assert check_product(other, P, f)[0] == WRONG


def _golden(name):
    inp = next(i for i in corpus_pass(1, 0) if i.name == name and i.golden)
    return inp, Report.from_json(inp.golden)


def test_golden_reports_pass_the_corpus_oracle():
    for inp in corpus_pass(1, 0)[:9]:
        assert check_report(inp, Report.from_json(inp.golden)) == (OK, "")


def test_corpus_oracle_rejects_a_drifted_report():
    inp, rep = _golden("weyl")
    rep.checks[0].witnesses.append("extra")
    assert check_report(inp, rep)[0] == WRONG


def test_corpus_oracle_rejects_a_wrong_verdict_without_golden():
    inp, rep = _golden("poly3")
    inp = DocInput(inp.name, inp.text, 5, inp.symbols, inp.expect)
    assert check_report(inp, rep) == (OK, "")
    rep.verdict = "not-certified"
    assert check_report(inp, rep)[0] == WRONG
    rep.verdict, rep.gk_estimate = CERTIFIED, 2
    assert check_report(inp, rep)[0] == WRONG


def test_broken_must_fail_at_pbw_consistency():
    inp, rep = _golden("broken")
    inp = DocInput(inp.name, inp.text, 5, inp.symbols, inp.expect)
    assert check_report(inp, rep) == (OK, "")
    rep.check("pbw-consistency").status = "pass"
    assert check_report(inp, rep)[0] == WRONG


def _growth_defect(rep, symbols):
    """The report the growth-estimate defect gives on a smooth algebra."""
    rep = copy.deepcopy(rep)
    gk = rep.check("gk-estimate")
    gk.status = "fail"
    gk.data.update(difference_degree=symbols, slope_estimate=symbols - 1, ambiguous=True)
    rep.verdict, rep.gk_estimate = "not-certified", None
    rep.failing = ["gk-estimate", "gk-dimension-match"]
    return rep


def test_growth_defect_is_known_but_only_with_its_exact_signature():
    inp, rep = _golden("poly3")
    inp = DocInput(inp.name, inp.text, 5, inp.symbols, inp.expect)
    defect = _growth_defect(rep, 3)
    assert check_report(inp, defect)[0] == KNOWN_DEFECT

    other_stage = copy.deepcopy(defect)
    other_stage.check("d-squared").status = "fail"
    assert check_report(inp, other_stage)[0] == WRONG

    wrong_slope = copy.deepcopy(defect)
    wrong_slope.check("gk-estimate").data["slope_estimate"] = 1
    assert check_report(inp, wrong_slope)[0] == WRONG

    wrong_dimension = copy.deepcopy(defect)
    wrong_dimension.calculus_dimension = 2
    assert check_report(inp, wrong_dimension)[0] == WRONG
