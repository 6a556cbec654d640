"""The paper's one-generator family: the affine Ore extensions
``x t = (q t + r) x + delta_p(t)`` of F[t], where delta_p is the twisted
derivation with ``delta_p(t) = p(t)``.

:func:`ore_document` writes a member as ``.spbw`` text, with the flat
calculus on dt, dx whose twists are ``nu_t: x -> q x + p'`` and
``nu_x: t -> (t - r)/q`` and whose wedge constant is q; the parser builds the
algebra and the calculus, and the pipeline decides the member.
:func:`ore_case_classify` names the three parameter shapes for which that
twist pair respects the defining relation.
"""

from __future__ import annotations

from .coefficients import CoeffPoly, CoeffRing, derivative
from .dsl import _render_coeff_dsl, _render_scalar_dsl
from .errors import SpbwError
from .lincomb import render_sum
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
    """The member (q, r, p) as a ``.spbw`` document over ``ring``, whose one
    coefficient variable plays t; the generator is x."""
    if q.is_zero():
        raise SpbwError("invalid parameter: q must be nonzero")
    (t_name,) = ring.coeff_vars
    t = ring.var(0)

    def coeff(f: CoeffPoly) -> str:
        return _render_coeff_dsl(f, ring.params, ring.coeff_vars)

    nu_t = {e: c for e, c in (((1,), ring.const(q)), ((0,), derivative(p))) if not c.is_zero()}
    lines = ["name ore"]
    if ring.params:
        lines.append("params " + " ".join(ring.params))
    lines += [
        f"coeffs {t_name}",
        "gens x",
        f"sigma x: {t_name} -> {coeff(t.scale(q) + ring.const(r))}",
        f"delta x: {t_name} -> {coeff(p)}",
        "calculus mode=flat",
        f"dgens {t_name} x",
        f"twist {t_name}: x -> {render_sum(nu_t, ('x',), coeff)}",
        f"twist x: {t_name} -> {coeff((t - ring.const(r)).scale(q.inverse()))}",
        f"wedge {t_name} x = {_render_scalar_dsl(q, ring.params)}",
    ]
    return "\n".join(lines) + "\n"
