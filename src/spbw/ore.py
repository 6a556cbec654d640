"""The paper's one-generator family: the affine Ore extensions
``x t = (q t + r) x + delta_p(t)`` of F[t], where delta_p is the twisted
derivation with ``delta_p(t) = p(t)``.

:func:`ore_document` builds a member as a document, with the flat calculus
on dt, dx whose twists are ``nu_t: x -> q x + p'`` and
``nu_x: t -> (t - r)/q`` and whose wedge constant is q, and writes it as
``.spbw`` text with :func:`spbw.dsl.render_presentation`; the parser builds
the algebra and the calculus, and the pipeline decides the member.
:func:`ore_case_classify` names the three parameter shapes for which that
twist pair respects the defining relation.
"""

from __future__ import annotations

from .coefficients import CoeffPoly, CoeffRing, derivative
from .core import SkewPoly
from .dsl import DEFAULT_OPTIONS, CalculusDoc, PresentationDoc, render_presentation
from .errors import SpbwError
from .scalars import Scalar

CASE_FREE_P = "a"        # q = 1, r = 0: any p
CASE_CONSTANT_P = "b"    # q = 1, r != 0: p constant
CASE_LINEAR_P = "c"      # q != 1: p a scalar multiple of t + r/(q-1)
CASE_NONE = "none"


def ore_case_classify(ring: CoeffRing, q: Scalar, r: Scalar, p: CoeffPoly) -> str:
    """Which of the three extendable parameter shapes (q, r, p) falls in.

    Parameters compare symbolically, so a declared parameter q is never
    equal to 1.
    """
    if q.is_zero():
        raise SpbwError("invalid parameter: q must be nonzero")
    one = ring.sone()
    if q == one:
        if r.is_zero():
            return CASE_FREE_P
        return CASE_CONSTANT_P if p.total_degree() <= 0 else CASE_NONE
    if p.total_degree() > 1:
        return CASE_NONE
    c1 = p.terms.get((1,), ring.szero())
    c0 = p.constant_value()
    if c1.is_zero():
        return CASE_LINEAR_P if p.is_zero() else CASE_NONE
    # p = c1 * (t + r / (q - 1)) demands c0 = c1 * r / (q - 1)
    return CASE_LINEAR_P if c0 == c1 * r / (q - one) else CASE_NONE


def ore_document(ring: CoeffRing, q: Scalar, r: Scalar, p: CoeffPoly) -> str:
    """The member (q, r, p) as canonical ``.spbw`` text over ``ring``, whose
    one coefficient variable plays t; the generator is x.  Like every
    rendered document, it leaves out a sigma, delta or twist line that is
    at its default."""
    if q.is_zero():
        raise SpbwError("invalid parameter: q must be nonzero")
    (t_name,) = ring.coeff_vars
    t = ring.var(0)
    t_form, x_form = SkewPoly({(0,): t}, 1), SkewPoly({(1,): ring.one()}, 1)
    nu_t = SkewPoly({e: c for e, c in (((1,), ring.const(q)), ((0,), derivative(p))) if not c.is_zero()}, 1)
    nu_x = SkewPoly({(0,): (t - ring.const(r)).scale(q.inverse())}, 1)
    calculus = CalculusDoc(
        mode="flat",
        dgen_names=(t_name, "x"),
        potentials={t_name: t_form, "x": x_form},
        twist={t_name: (t_form, nu_t), "x": (nu_x, x_form)},
        wedge={(0, 1): q},
    )
    return render_presentation(PresentationDoc(
        name="ore",
        params=ring.params,
        coeff_vars=ring.coeff_vars,
        gens=("x",),
        sigma_images={0: (t.scale(q) + ring.const(r),)},
        sigma_inverses={},
        delta_images={0: (p,)},
        relations={},
        calculus=calculus,
        options=dict(DEFAULT_OPTIONS),
    ))
