"""Stage orchestration: from a parsed document to a full report.

The smoothness pipeline runs the checks in dependency order and
short-circuits on the two hard failures (an inconsistent presentation, an
incompatible differential); everything downstream is then reported as
skipped.

``d-squared``, ``integrability``, ``divergence-leibniz`` and ``flatness`` are
decided by the parts (a) to (d) of one certificate on the frame generators,
each part decided at most once per calculus.  ``d-squared`` reads (a) and
(b), which differentiates the one-forms ``s du_i``; when either fails, the
stage searches the monomials up to ``dsq_degree`` in order and stops at its
fifth witness.  ``integrability`` reads (a), (c) and (d), and fails with
the witness of the first that does not hold.  The two divergence stages
need all four; without them they are ``error`` records that name the
missing prerequisite.  No stage samples, so the ``seed`` option decides
nothing; the report echoes it in ``config``.  ``gk-estimate`` reads the
growth exponent from the closed-form table (:mod:`spbw.gkdim`).
``hypotheses`` and theorem-mode ``compatibility`` read the one report that
:func:`hypothesis_check` keeps on the presentation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .calculus import THEOREM_MODE, Calculus, CalculusSpec, CheckOutcome, DGen, build_calculus, theorem_spec
from .coefficients import apply_endo
from .core import Presentation
from .dsl import PresentationDoc, build_presentation
from .errors import ConfigError, SpbwError
from .extended import AlgebraEndo, auto_inverse, hypothesis_check
from .gkdim import HARD_CHECKS, CheckRecord, filtration_dims, gk_estimate, smoothness_verdict
from .report import Report


def calculus_spec_from_doc(doc: PresentationDoc, P) -> CalculusSpec:
    """Materialize the calculus block: construct every twist (verifying it
    respects the relations), fill missing inverses mechanically.  A theorem
    mode block is :func:`theorem_spec` of P."""
    cal = doc.calculus
    if cal is None:
        raise ConfigError("document has no calculus block")
    if cal.mode == "theorem":
        return theorem_spec(P)
    dgens = []
    for name in cal.dgen_names:
        images = cal.twist[name]
        inv_images = cal.itwist[name] if name in cal.itwist else auto_inverse(P, images)
        if inv_images is None:
            raise ConfigError(
                f"twist for d({name}) is not mechanically invertible; add an itwist line"
            )
        twist = AlgebraEndo(P, images, inverse=AlgebraEndo(P, inv_images, check=False))
        dgens.append(DGen(name, cal.potentials[name], twist))
    return CalculusSpec(dgens=dgens, wedge_signs=dict(cal.wedge), mode="flat")


@dataclass
class _Run:
    """What the stages of one run share: the document, its presentation,
    and the results later stages read."""

    doc: PresentationDoc
    P: Presentation
    calculus: Calculus | None = None
    gk: int | None = None

    @property
    def opts(self) -> dict:
        return self.doc.options


# Each stage function returns a CheckOutcome.  They look up the checks they
# call as module globals at call time, so rebinding a name here (as a tracer
# does) reaches every run.


def _stage_pbw(run: _Run) -> CheckOutcome:
    audit = run.P.pbw_consistency_check()
    if audit.ok:
        return CheckOutcome(True)
    return CheckOutcome(False, [f"word {audit.rendered} reduces two ways",
                                f"leftmost: {run.P.render(audit.left)}",
                                f"rightmost: {run.P.render(audit.right)}"])


def _stage_hypotheses(run: _Run) -> CheckOutcome:
    """Informational unless the calculus mode requires the blocks."""
    rep = hypothesis_check(run.P)
    mode = run.doc.calculus.mode if run.doc.calculus else None
    ok = rep.theorem_ok if mode == "theorem" else True
    data = {"lift_block": rep.proposition_ok, "plain_twist_block": rep.theorem_ok}
    return CheckOutcome(ok, [] if ok else rep.failures[:4], data)


def _stage_compatibility(run: _Run) -> CheckOutcome:
    spec = calculus_spec_from_doc(run.doc, run.P)
    run.calculus = build_calculus(run.P, spec)
    return CheckOutcome(True, data={"dimension": run.calculus.N})


def _stage_d_squared(run: _Run) -> CheckOutcome:
    bound = run.opts["dsq_degree"]
    return replace(run.calculus.d_squared_check(bound), data={"bound": bound})


def _stage_connectedness(run: _Run) -> CheckOutcome:
    return run.calculus.connectedness_check(run.opts["conn_degree"])


def _stage_volume(run: _Run) -> CheckOutcome:
    """The volume twist must be an invertible algebra map; in theorem mode
    it must also be the paper's composite of the sigma maps."""
    nu = run.calculus.volume()
    if run.calculus.spec.mode != THEOREM_MODE:
        return CheckOutcome(True)
    matches = _is_sigma_composite(run.P, nu)
    return CheckOutcome(matches, data={"matches_sigma_composition": matches})


def _is_sigma_composite(P: Presentation, nu: AlgebraEndo) -> bool:
    """Whether nu is sigma_0 o sigma_1 o ... o sigma_(n-1) on every
    coefficient variable, sigma_(n-1) applied first, and fixes every
    generator.  Compatibility asks ``nu_i(sigma_i(c)) = c`` of the lift
    nu_i, so a sigma that moves a coefficient variable reaches here when it
    is an involution."""
    m = P.ring.nvars
    for j in range(m):
        image = P.ring.var(j)
        for sigma in reversed(P.sigma):
            image = apply_endo(sigma, image)
        if nu.images[j] != P.from_coeff(image):
            return False
    return all(nu.images[m + i] == P.gen(i) for i in range(P.n))


def _stage_integrability(run: _Run) -> CheckOutcome:
    return run.calculus.integrability_check()


def _stage_divergence(run: _Run) -> CheckOutcome:
    return run.calculus.divergence_leibniz_check()


def _stage_flatness(run: _Run) -> CheckOutcome:
    return run.calculus.flatness_check()


def _stage_gk(run: _Run) -> CheckOutcome:
    run.gk = gk_estimate(filtration_dims(run.P, 1))
    return CheckOutcome(True)


# (name, stage function, hard failure): the stages in dependency order.  A
# hard stage that does not pass skips every stage after it.
_STAGE_TABLE = tuple((name, fn, name in HARD_CHECKS) for name, fn in (
    ("pbw-consistency", _stage_pbw),
    ("hypotheses", _stage_hypotheses),
    ("compatibility", _stage_compatibility),
    ("d-squared", _stage_d_squared),
    ("connectedness", _stage_connectedness),
    ("volume", _stage_volume),
    ("integrability", _stage_integrability),
    ("divergence-leibniz", _stage_divergence),
    ("flatness", _stage_flatness),
    ("gk-estimate", _stage_gk),
))
STAGES = tuple(name for name, _, _ in _STAGE_TABLE)


def _run_stage(name, fn, run: _Run) -> CheckRecord:
    """Run one stage, timed; a package error becomes an ``error`` record."""
    start = time.perf_counter()
    try:
        out = fn(run)
        rec = CheckRecord(name, "pass" if out.ok else "fail", out.witnesses, out.data)
    except SpbwError as exc:
        rec = CheckRecord(name, "error", [str(exc)])
    rec.seconds = time.perf_counter() - start
    return rec


def run_smooth(doc: PresentationDoc) -> Report:
    """The full pipeline over one document."""
    run = _Run(doc, build_presentation(doc))
    checks = []
    skipping = False
    for name, fn, hard in _STAGE_TABLE:
        if skipping:
            checks.append(CheckRecord(name, "skipped"))
            continue
        rec = _run_stage(name, fn, run)
        checks.append(rec)
        skipping = hard and not rec.passed
    N = run.calculus.N if run.calculus is not None else None
    verdict, failed_check, failing = smoothness_verdict(checks, N, run.gk)
    return Report(
        algebra=doc.name,
        mode=doc.calculus.mode if doc.calculus else None,
        config=dict(doc.options),
        calculus_dimension=N,
        gk_estimate=run.gk,
        checks=checks,
        verdict=verdict,
        failed_check=failed_check,
        failing=failing,
    )


# -- single commands --------------------------------------------------------------


def run_calculus_check(doc: PresentationDoc):
    P = build_presentation(doc)
    spec = calculus_spec_from_doc(doc, P)
    return build_calculus(P, spec)
