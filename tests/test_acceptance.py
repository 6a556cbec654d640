"""Acceptance gate: the ten shipping criteria, one test each.

Every test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts exactly what the criterion states, including its runtime budget.
All arithmetic is exact; there are no tolerances.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

from spbw.calculus import build_calculus
from spbw.coefficients import CoeffRing
from spbw.corpus import CORPUS_NAMES, corpus_doc
from spbw.dsl import build_presentation, parse_presentation
from spbw.extended import extend_sigma, hypothesis_check
from spbw.ore import (
    CASE_CONSTANT_P,
    CASE_FREE_P,
    CASE_LINEAR_P,
    CASE_NONE,
    ore_case_classify,
    ore_document,
)
from spbw.pipeline import calculus_spec_from_doc, run_smooth
from spbw.report import Report

from conftest import Transport, d_respects_relations, lift_delta, random_skew, twisted_leibniz_witness

SMOOTH_NAMES = tuple(n for n in CORPUS_NAMES if n != "broken")
GOLDEN = Path(__file__).parent / "golden"

# Seven commuting generators: d^2 = 0 must be decided without differentiating
# the C(13, 6) * 8 = 13,728 monomial and one-form pairs up to degree 6.
POLY7_SOURCE = "name poly7\ngens x1 x2 x3 x4 x5 x6 x7\n" + "".join(
    f"rel x{j} x{i} = x{i} x{j}\n" for i in range(1, 8) for j in range(i + 1, 8)
) + "\ncalculus mode=theorem\n"

MISUSE_SOURCE = """
name jordan_theorem_misuse
coeffs t
gens x
delta x: t -> t^2
calculus mode=theorem
"""


def _line(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def docs():
    return {name: corpus_doc(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="module")
def presentations(docs):
    return {name: build_presentation(doc) for name, doc in docs.items()}


@pytest.fixture(scope="module")
def calculi(docs, presentations):
    out = {}
    for name in SMOOTH_NAMES:
        P = presentations[name]
        out[name] = build_calculus(P, calculus_spec_from_doc(docs[name], P))
    return out


@pytest.fixture(scope="module")
def smooth_runs(docs):
    start = time.perf_counter()
    reports = {name: run_smooth(docs[name]) for name in CORPUS_NAMES}
    return reports, time.perf_counter() - start


def test_01_pbw_consistency(docs):
    start = time.perf_counter()
    for name in SMOOTH_NAMES:
        doc = docs[name]
        assert build_presentation(doc).pbw_consistency_check().ok, (
            f"{name} should be consistent"
        )
    doc = docs["broken"]
    P = build_presentation(doc)
    audit = P.pbw_consistency_check()
    assert not audit.ok
    assert audit.rendered == "x3*x2*x1", "stored witness triple is x3 x2 x1"
    diff = audit.left - audit.right
    assert diff == P.gen(2) or diff == -P.gen(2)
    elapsed = time.perf_counter() - start
    _line(1, elapsed < 5.0, f"pbw passes on 8 entries, broken fails with x3*x2*x1 ({elapsed:.2f}s)")


def test_02_power_commutation(presentations):
    start = time.perf_counter()
    checked = 0
    for name in CORPUS_NAMES:
        P = presentations[name]
        monomials = [(0,) * P.ring.nvars]
        if P.ring.nvars:
            monomials = [e for d in range(4) for e in _expos(P.ring.nvars, d)]
        for i in range(P.n):
            for m in range(9):
                for e in monomials:
                    r = P.ring.monomial(e)
                    closed = P.power_commute_closed(i, m, r)
                    oracle = P.normalize([(1, [i] * m + [r])])
                    assert closed == oracle, f"{name}: x_{i}^{m} * t^{e}"
                    checked += 1
    elapsed = time.perf_counter() - start
    _line(2, elapsed < 10.0, f"closed power commutation = rewriting oracle on {checked} cases ({elapsed:.2f}s)")


def _expos(nvars, total):
    if nvars == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first,) + rest for rest in _expos(nvars - 1, total - first))
    return out


def test_03_extended_maps_leibniz(presentations):
    start = time.perf_counter()
    for name in CORPUS_NAMES:
        P = presentations[name]
        if not hypothesis_check(P).proposition_ok:
            continue
        for i in range(P.n):
            rng = random.Random(1729 + i)
            witness = twisted_leibniz_witness(P, extend_sigma(P, i).apply, lift_delta(P, i), 100, 4, rng)
            assert witness is None, f"{name} generator {i}: witness {witness}"
    elapsed = time.perf_counter() - start
    _line(3, elapsed < 30.0, f"twisted product rule holds on 100 samples per lift ({elapsed:.2f}s)")


def test_04_ore_case_table():
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    one, zero, q = ring.sone(), ring.szero(), ring.param("q")
    t = ring.var(0)
    table = [
        (one, zero, t * t, CASE_FREE_P),        # Jordan data
        (one, zero, t, CASE_FREE_P),            # enveloping-algebra data
        (one, zero, ring.one(), CASE_FREE_P),   # Weyl data
        (one, one, ring.const(5), CASE_CONSTANT_P),
        (q, zero, ring.zero(), CASE_LINEAR_P),  # quantum-plane data
        (ring.scalar(2), zero, t * t, CASE_NONE),
    ]
    for qv, rv, p, expected in table:
        assert ore_case_classify(ring, qv, rv, p) == expected
        doc = parse_presentation(ore_document(ring, qv, rv, p))
        report = run_smooth(doc)
        if expected == CASE_NONE:
            assert report.verdict == "failed" and report.failed_check == "compatibility"
            continue
        assert report.verdict == "certified-smooth"
        # the constructor verifies relation respect; the pair also commutes
        P = build_presentation(doc)
        nt, nx = (dgen.twist for dgen in calculus_spec_from_doc(doc, P).dgens)
        assert nx.apply(nt.images[1]) == nt.apply(nx.images[1])
        assert nx.apply(nt.images[0]) == nt.apply(nx.images[0])
    _line(4, True, "case table reproduced on 6 instantiations; verdicts follow it; twist pairs commute")


def test_05_calculus_soundness(calculi):
    start = time.perf_counter()
    for name, calc in calculi.items():
        assert d_respects_relations(calc), f"{name}: incompatible"
        assert calc._d_squared_upto(6).ok, f"{name}: d squared"
        rng = random.Random(1729)
        for _ in range(100):
            Sa = tuple(sorted(rng.sample(range(calc.N), rng.randint(0, 1))))
            Sb = tuple(sorted(rng.sample(range(calc.N), rng.randint(0, 1))))
            a = calc.form(Sa, random_skew(calc.P, rng, 3, max_terms=2))
            b = calc.form(Sb, random_skew(calc.P, rng, 3, max_terms=2))
            lhs = calc.differential(calc.wedge(a, b))
            rhs = calc.wedge(calc.differential(a), b)
            part = calc.wedge(a, calc.differential(b))
            if len(Sa) % 2:
                part = -part
            assert lhs == rhs + part, f"{name}: graded product rule"
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    poly7 = run_smooth(parse_presentation(POLY7_SOURCE))
    poly7_elapsed = time.perf_counter() - start
    assert poly7.verdict == "certified-smooth", f"poly7: {poly7.failing}"
    _line(
        5,
        elapsed < 60.0 and poly7_elapsed < 4.0,
        f"compatibility, d2=0 to degree 6, graded product rule x100 ({elapsed:.2f}s); "
        f"poly7 certified ({poly7_elapsed:.2f}s)",
    )


def test_06_connectedness(calculi):
    for name, calc in calculi.items():
        out = calc.connectedness_check(6)
        assert out.ok and out.data["kernel_dimension"] == 1, f"{name}: kernel {out.data}"
    _line(6, True, "kernel of d on degree zero is one-dimensional up to degree 6")


def test_07_integrability(calculi):
    # the certificate decides the stage; the sampled expansion identity of
    # the transport oracle agrees with it
    start = time.perf_counter()
    for name, calc in calculi.items():
        out = calc.integrability_check()
        assert out.ok, f"{name}: {out.witnesses}"
        rng = random.Random(1729)
        assert Transport(calc).integrability_sampled(50, 4, rng).ok, name
    elapsed = time.perf_counter() - start
    _line(7, elapsed < 60.0, f"expansion identities exact on basis and 50 samples per degree ({elapsed:.2f}s)")


def test_08_divergence(calculi):
    for name, calc in calculi.items():
        assert calc.divergence_leibniz_check().ok, f"{name}: product rule"
        assert calc.flatness_check().ok, f"{name}: curvature"
        transport = Transport(calc)
        assert transport.divergence_leibniz_sampled(50, 3, random.Random(1729)).ok, f"{name}: sampled product rule"
        assert calc.N < 2 or transport.flatness_on_basis().ok, f"{name}: curvature on the dual basis"
    _line(8, True, "divergence product rule on 50 pairs and zero curvature on the dual basis")


def test_09_verdicts(smooth_runs):
    reports, _ = smooth_runs
    for name in SMOOTH_NAMES:
        rep = reports[name]
        assert rep.verdict == "certified-smooth", f"{name}: {rep.verdict} {rep.failing}"
        P_doc = corpus_doc(name)
        total_symbols = len(P_doc.coeff_vars) + len(P_doc.gens)
        assert rep.gk_estimate == total_symbols, f"{name}: growth {rep.gk_estimate}"
        assert rep.calculus_dimension == total_symbols
    misuse = run_smooth(parse_presentation(MISUSE_SOURCE))
    assert misuse.verdict == "not-certified"
    assert "gk-dimension-match" in misuse.failing
    assert misuse.calculus_dimension == 1 and misuse.gk_estimate == 2
    _line(9, True, "8 entries certified, misuse case not-certified via dimension mismatch")


def test_10_end_to_end(smooth_runs):
    reports, elapsed = smooth_runs
    for name in CORPUS_NAMES:
        golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert reports[name].to_json(zero_timing=True) == golden, f"{name}: report drifted"
        assert Report.from_json(golden).algebra == name
    _line(10, elapsed < 120.0, f"full corpus pipeline in {elapsed:.1f}s; reports byte-match goldens")
