"""Helpers for one-generator extensions of F[t] with an affine twist:
``sigma(t) = q t + r`` and the derivation induced by a polynomial p(t).

These build the concrete twist pairs (nu_t, nu_x) that make such extensions
carry a two-dimensional calculus, and classify for which (q, r, p) that is
possible at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import (
    CoeffEndo,
    CoeffPoly,
    CoeffRing,
    CoeffSigmaDerivation,
    apply_endo,
    derivative,
    divmod_univariate,
)
from .core import Presentation
from .errors import SpbwError, UnsupportedCaseError
from .extended import AlgebraEndo
from .scalars import Scalar

CASE_FREE_P = "a"        # q = 1, r = 0: any p
CASE_CONSTANT_P = "b"    # q = 1, r != 0: p constant
CASE_LINEAR_P = "c"      # q != 1: p a scalar multiple of t + r/(q-1)
CASE_NONE = "none"


def sigma_affine(ring: CoeffRing, q: Scalar, r: Scalar) -> CoeffEndo:
    """The coefficient endomorphism t -> q t + r with its exact inverse."""
    if q.is_zero():
        raise SpbwError("affine twist needs q != 0")
    t = ring.var(0)
    fwd = t.scale(q) + ring.const(r)
    bwd = (t - ring.const(r)).scale(q.inverse())
    return CoeffEndo((fwd,), (bwd,))


def ore_presentation(ring: CoeffRing, q: Scalar, r: Scalar, p: CoeffPoly) -> Presentation:
    """One generator x over F[t] with x t = (q t + r) x + delta_p(t)."""
    sigma = sigma_affine(ring, q, r)
    delta = ore_delta_from_p(ring, q, r, p)
    return Presentation(ring, ("x",), (sigma,), (delta,), {})


def ore_delta_from_p(ring: CoeffRing, q: Scalar, r: Scalar, p: CoeffPoly) -> CoeffSigmaDerivation:
    """The twisted derivation with delta(t) = p(t) over the affine twist.

    Its action on any f agrees with the difference-quotient formula
    ``(f(q t + r) - f(t)) / ((q - 1) t + r) * p(t)`` (and with ``p * f'``
    in the q = 1, r = 0 limit); see :func:`ore_delta_closed_form`.
    """
    if q.is_zero():
        raise SpbwError("invalid parameter: q must be nonzero")
    return CoeffSigmaDerivation((p,), sigma_affine(ring, q, r))


def ore_delta_closed_form(ring: CoeffRing, q: Scalar, r: Scalar, p: CoeffPoly, f: CoeffPoly) -> CoeffPoly:
    """Difference-quotient form of the derivation applied to f, by exact
    univariate division; the identity-twist limit differentiates."""
    if q.is_zero():
        raise SpbwError("invalid parameter: q must be nonzero")
    one = ring.sone()
    if q == one and r.is_zero():
        return p * derivative(f)
    sigma = sigma_affine(ring, q, r)
    numerator = apply_endo(sigma, f) - f
    denominator = ring.var(0).scale(q - one) + ring.const(r)
    quot, rem = divmod_univariate(numerator, denominator)
    if not rem.is_zero():
        raise AssertionError("difference quotient left a remainder")  # mathematically impossible
    return quot * p


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


@dataclass
class OreCaseData:
    q: Scalar
    r: Scalar
    p: CoeffPoly
    case_tag: str
    nu_t: AlgebraEndo
    nu_x: AlgebraEndo
    presentation: Presentation


def ore_nu_maps(ring: CoeffRing, q: Scalar, r: Scalar, p: CoeffPoly) -> OreCaseData:
    """Build the twist pair nu_t (t -> t, x -> q x + p') and
    nu_x (t -> (t - r)/q, x -> x) on the extension, verify they respect the
    defining relation and commute with each other."""
    tag = ore_case_classify(ring, q, r, p)
    if tag == CASE_NONE:
        raise UnsupportedCaseError(
            "the twist pair does not extend to algebra maps for this (q, r, p)"
        )
    P = ore_presentation(ring, q, r, p)
    t_sk, x_sk = P.frame()
    nu_t = AlgebraEndo(P, (t_sk, x_sk.scale(q) + P.from_coeff(derivative(p))))
    nu_x = AlgebraEndo(P, ((t_sk - P.const(r)).scale(q.inverse()), x_sk))
    for label, a, b in zip("tx", map(nu_x.apply, nu_t.images), map(nu_t.apply, nu_x.images)):
        if a != b:
            raise UnsupportedCaseError(f"nu_x and nu_t fail to commute on {label}")
    return OreCaseData(q, r, p, tag, nu_t, nu_x, P)
