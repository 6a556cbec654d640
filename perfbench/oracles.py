"""Known answers for every benchmark operation, checked outside the timed part.

Each check returns ``(status, detail)`` with status ``ok``, ``known-defect``
or ``wrong``.  ``known-defect`` is the growth-estimate defect on 4- and
5-symbol documents (the log-log slope detector reads one low, so the two
detectors disagree and the verdict is `not-certified`): the operation counts
as failed, but the run is still correct, because that is today's answer.
Any other difference from the known answer is ``wrong``.

The reduce oracles compare products term by term in a canonical form built
here from plain dicts of Fractions, so the check does not rest on the
program's own scalar arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from workloads import CERTIFIED, FAILED, DocInput, ProductInput

OK = "ok"
KNOWN_DEFECT = "known-defect"
WRONG = "wrong"

GROWTH_FAILURES = ["gk-estimate", "gk-dimension-match"]


# -- documents ------------------------------------------------------------------------


def check_report(inp: DocInput, report) -> tuple:
    if inp.golden is not None and report.to_json(zero_timing=True) != inp.golden:
        return WRONG, f"report differs from tests/golden/{inp.name}.json"
    if inp.expect == FAILED:
        pbw = report.check("pbw-consistency")
        if report.verdict != FAILED or pbw is None or pbw.status != "fail":
            return WRONG, f"expected failed at pbw-consistency, got {report.verdict} {report.failing}"
        return OK, ""
    got = (report.verdict, report.gk_estimate, report.calculus_dimension)
    if got == (CERTIFIED, inp.symbols, inp.symbols):
        return OK, ""
    if _is_growth_defect(inp, report):
        return KNOWN_DEFECT, "growth detectors disagree (slope one low)"
    return WRONG, f"expected ({CERTIFIED}, {inp.symbols}, {inp.symbols}), got {got} {report.failing}"


def _is_growth_defect(inp: DocInput, report) -> bool:
    gk = report.check("gk-estimate")
    others_pass = all(rec.status == "pass" for rec in report.checks if rec.name != "gk-estimate")
    return (
        report.verdict == "not-certified"
        and report.failing == GROWTH_FAILURES
        and report.calculus_dimension == inp.symbols
        and others_pass
        and gk is not None
        and gk.data.get("difference_degree") == inp.symbols
        and gk.data.get("slope_estimate") == inp.symbols - 1
    )


# -- products ---------------------------------------------------------------------------


def canonical(f) -> dict:
    """``{(generator exponent, coefficient exponent): (num, den)}`` with the
    scalar's numerator and denominator as dicts of Fractions."""
    out = {}
    for ge, cp in f.terms.items():
        for ce, s in cp.terms.items():
            out[(ge, ce)] = (dict(s.num), dict(s.den))
    return out


def _pmul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _same_value(x: tuple, y: tuple) -> bool:
    return _pmul(x[0], y[1]) == _pmul(y[0], x[1])


def equal_canonical(got: dict, want: dict) -> bool:
    got = {k: v for k, v in got.items() if v[0]}
    want = {k: v for k, v in want.items() if v[0]}
    return got.keys() == want.keys() and all(_same_value(got[k], want[k]) for k in got)


def _rational(value) -> tuple:
    """A parameter-free scalar as (num, den)."""
    return {(): Fraction(value)}, {(): Fraction(1)}


def closed_form(inp: ProductInput, P) -> dict:
    """Canonical form of the known product for `inp` on presentation `P`."""
    k = inp.k
    if inp.family == "weyl":  # sum_j (-1)^j C(k,j)^2 j! x1^(k-j) x2^(k-j)
        return {((k - j, k - j), ()): _rational((-1) ** j * comb(k, j) ** 2 * factorial(j))
                for j in range(k + 1)}
    if inp.family == "un2":  # x1^k (x2 + k)^k
        return {((k, j), ()): _rational(comb(k, j) * k ** (k - j)) for j in range(k + 1)}
    if inp.family in ("qplane", "qaffine3"):  # q_ij^(k^2) x_i^k x_j^k
        pairs = sorted((a, b) for b in range(P.n) for a in range(b))  # params q12 q13 q23 ...
        q = [0] * len(pairs)
        q[pairs.index((inp.i, inp.j))] = k * k
        e = [0] * P.n
        e[inp.i] = e[inp.j] = k
        return {(tuple(e), ()): ({tuple(q): Fraction(1)}, {(0,) * len(pairs): Fraction(1)})}
    if inp.family == "jordan":  # x^k t^k by the closed power-commutation formula
        return canonical(P.power_commute_closed(0, k, P.ring.var(0) ** k))
    raise ValueError(f"no closed form for {inp.family!r}")


def check_product(inp: ProductInput, P, product) -> tuple:
    if equal_canonical(canonical(product), closed_form(inp, P)):
        return OK, ""
    return WRONG, f"{inp.family} k={inp.k}: {P.render(product)} is not the closed form"
