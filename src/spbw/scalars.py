"""Exact scalars for the base field: fractions of polynomials in the
declared parameters, with rational coefficients.

A parameter polynomial is a dict mapping exponent tuples (one entry per
parameter) to nonzero ``Fraction`` values; the zero polynomial is the empty
dict.  A :class:`Scalar` is an unreduced fraction ``num/den`` of two such
polynomials.  Equality is decided by cross-multiplication, so no multivariate
gcd is ever needed; a cheap content strip keeps term sizes in check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .lincomb import render_sum

Expo = tuple  # exponent tuple, one non-negative int per parameter

# Number of stored terms (num + den) above which a Scalar gets its numeric
# and monomial content stripped.
_STRIP_THRESHOLD = 10


def poly_zero() -> dict:
    return {}


def poly_const(nparams: int, value) -> dict:
    c = Fraction(value)
    if c == 0:
        return {}
    return {(0,) * nparams: c}


def poly_var(nparams: int, j: int) -> dict:
    e = [0] * nparams
    e[j] = 1
    return {tuple(e): Fraction(1)}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def poly_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_scale(a: dict, c: Fraction) -> dict:
    if c == 0:
        return {}
    return {e: v * c for e, v in a.items()}


def _content(polys) -> Fraction:
    """gcd of all coefficients: gcd of numerators over lcm of denominators."""
    num_g = 0
    den_l = 1
    for p in polys:
        for c in p.values():
            num_g = gcd(num_g, abs(c.numerator))
            den_l = den_l * c.denominator // gcd(den_l, c.denominator)
    return Fraction(num_g, den_l) if num_g else Fraction(1)


def _common_monomial(polys) -> Expo | None:
    mins = None
    for p in polys:
        for e in p:
            mins = e if mins is None else tuple(map(min, mins, e))
            if not any(mins):
                return None
    return mins if mins and any(mins) else None


class Scalar:
    """Element of the field of rational functions in the parameters.

    Stored as an unreduced fraction of parameter polynomials; ``den`` is
    never the zero polynomial.  Instances are immutable by convention and
    must not be mutated after construction.
    """

    __slots__ = ("num", "den", "nparams")

    def __init__(self, num: dict, den: dict, nparams: int):
        if not den:
            raise ZeroDivisionError("scalar denominator is zero")
        if not num:
            den = poly_const(nparams, 1)
        elif len(num) + len(den) > _STRIP_THRESHOLD:
            num, den = _strip(num, den)
        # a constant denominator is always folded away
        if len(den) == 1:
            e, c = next(iter(den.items()))
            if not any(e) and c != 1:
                num = poly_scale(num, 1 / c)
                den = poly_const(nparams, 1)
        self.num = num
        self.den = den
        self.nparams = nparams

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(nparams: int, value) -> "Scalar":
        return Scalar(poly_const(nparams, value), poly_const(nparams, 1), nparams)

    @staticmethod
    def param(nparams: int, j: int) -> "Scalar":
        return Scalar(poly_var(nparams, j), poly_const(nparams, 1), nparams)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == self.den

    def is_rational(self) -> bool:
        return all(not any(e) for e in self.num) and all(not any(e) for e in self.den)

    def as_fraction(self) -> Fraction:
        """Value of a parameter-free scalar; raises if parameters occur."""
        if not self.is_rational():
            raise ValueError("scalar involves parameters")
        if not self.num:
            return Fraction(0)
        return next(iter(self.num.values())) / next(iter(self.den.values()))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.den == other.den:
            return Scalar(poly_add(self.num, other.num), self.den, self.nparams)
        return Scalar(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den),
            self.nparams,
        )

    def __neg__(self) -> "Scalar":
        return Scalar(poly_neg(self.num), self.den, self.nparams)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(
            poly_mul(self.num, other.num), poly_mul(self.den, other.den), self.nparams
        )

    def inverse(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverse of the zero scalar")
        return Scalar(self.den, self.num, self.nparams)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        return poly_mul(self.num, other.den) == poly_mul(other.num, self.den)

    __hash__ = None  # unreduced representation: not hashable

    def __repr__(self):
        return f"Scalar({render_scalar(self, tuple(f'p{i}' for i in range(self.nparams)))})"


def _strip(num: dict, den: dict) -> tuple:
    c = _content((num, den))
    if c != 1:
        num = poly_scale(num, 1 / c)
        den = poly_scale(den, 1 / c)
    m = _common_monomial((num, den))
    if m is not None:
        num = {tuple(x - y for x, y in zip(e, m)): v for e, v in num.items()}
        den = {tuple(x - y for x, y in zip(e, m)): v for e, v in den.items()}
    return num, den


# -- rendering ------------------------------------------------------------


def render_scalar(s: Scalar, names) -> str:
    """Human-readable form, highest parameter terms first; a non-constant
    denominator shows as ``(num)/(den)``."""
    num = render_sum(s.num, names, str)
    if s.den == poly_const(s.nparams, 1):
        return num
    return f"({num})/({render_sum(s.den, names, str)})"
