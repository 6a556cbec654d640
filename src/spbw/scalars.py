"""Exact scalars for the base field: fractions of polynomials in the
declared parameters, with rational coefficients.

A parameter polynomial is a dict mapping exponent tuples (one entry per
parameter) to nonzero rational values; the zero polynomial is the empty
dict.  Each value is in one canonical form: an ``int`` when it is integral,
and a ``Fraction`` with denominator > 1 otherwise; never a ``float``, a
``bool`` or a ``Fraction`` with denominator 1 (:func:`_canonical`).  Most
values are integers, and ``int`` arithmetic takes no gcd.  A
:class:`Scalar` is an unreduced fraction ``num/den`` of two such
polynomials.  Equality is decided by cross-multiplication, so no
multivariate gcd is ever needed; a cheap content strip keeps term sizes in
check.

Fast paths.  Most products the layers above ask for are trivial, so:

* there is one shared unit polynomial per ``nparams`` (:func:`poly_one`);
  ``poly_const(n, 1)``, every zero scalar's denominator and every folded
  constant denominator are that object, which must never be mutated;
* :func:`poly_mul` multiplies one term by one term with a single
  coefficient product, and returns the other factor itself when one factor
  is the shared unit polynomial, tested by identity;
* ``Scalar.__mul__`` returns the other operand when one operand is the
  shared unit (numerator and denominator both the shared unit polynomial,
  tested by identity, as ``Scalar.is_unit`` tests it), and
  ``Scalar.__add__`` returns the other operand when one addend is zero.  A
  polynomial or scalar whose value is one but whose numerator is a separate
  ``{(0, ...): 1}`` dict, such as ``2 * 1/2``, takes the generic product,
  which gives the same keys and values.

Every fast path returns exactly the ``num``/``den`` the generic code would:
the same keys and the same values.  Rendered witnesses show the unreduced
form, so a value of one that is not the literal unit, such as ``q/q``, is
multiplied out like any other.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add

from .lincomb import render_sum

Expo = tuple  # exponent tuple, one non-negative int per parameter

# Number of stored terms (num + den) above which a Scalar gets its numeric
# and monomial content stripped.
_STRIP_THRESHOLD = 10


class _Units(dict):
    """nparams -> the shared unit polynomial, made on first use."""

    def __missing__(self, nparams: int) -> dict:
        unit = self[nparams] = {(0,) * nparams: 1}
        return unit


_UNIT = _Units()
_ONE: dict = {}  # nparams -> the shared unit Scalar


def poly_one(nparams: int) -> dict:
    """The shared unit polynomial; never mutate it."""
    return _UNIT[nparams]


def _canonical(c):
    """A rational value in canonical form: an ``int`` when it is integral,
    else the ``Fraction`` itself.  A ``bool`` becomes an ``int``."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _reciprocal(c):
    """The exact inverse of a nonzero ``int`` or ``Fraction``, canonical."""
    return _canonical(Fraction(c.denominator, c.numerator))


def poly_const(nparams: int, value) -> dict:
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"a scalar constant is an int or a Fraction, not {type(value).__name__}")
    c = _canonical(value)
    if c == 0:
        return {}
    if c == 1:
        return _UNIT[nparams]
    return {(0,) * nparams: c}


def poly_var(nparams: int, j: int) -> dict:
    e = [0] * nparams
    e[j] = 1
    return {tuple(e): 1}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        if e in out:
            s = out[e] + c
            if s:
                out[e] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del out[e]
        else:
            out[e] = c
    return out


def poly_neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def poly_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) == 1 and len(b) == 1:
        ((ea, ca),) = a.items()
        unit = _UNIT[len(ea)]
        if a is unit:
            return b
        if b is unit:
            return a
        ((eb, cb),) = b.items()
        c = ca * cb
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        if not any(ea):
            return {eb: c}
        if not any(eb):
            return {ea: c}
        return {tuple(map(add, ea, eb)): c}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            if e in out:
                s = out[e] + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = ca * cb
    for e, c in out.items():
        if type(c) is not int and c.denominator == 1:
            out[e] = c.numerator
    return out


def poly_scale(a: dict, c) -> dict:
    if c == 0:
        return {}
    return {e: _canonical(v * c) for e, v in a.items()}


def _content(polys):
    """gcd of all coefficients: gcd of numerators over lcm of denominators,
    canonical."""
    num_g = 0
    den_l = 1
    for p in polys:
        for c in p.values():
            num_g = gcd(num_g, abs(c.numerator))
            den_l = den_l * c.denominator // gcd(den_l, c.denominator)
    return _canonical(Fraction(num_g, den_l)) if num_g else 1


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
        unit = _UNIT[nparams]
        if not num:
            den = unit
        elif len(num) + len(den) > _STRIP_THRESHOLD:
            num, den = _strip(num, den)
        # a constant denominator is always folded away, into the shared unit
        if len(den) == 1 and den is not unit:
            ((e, c),) = den.items()
            if not any(e):
                if c != 1:
                    num = poly_scale(num, _reciprocal(c))
                den = unit
        self.num = num
        self.den = den
        self.nparams = nparams

    # -- constructors ----------------------------------------------------

    @staticmethod
    def const(nparams: int, value) -> "Scalar":
        return Scalar(poly_const(nparams, value), _UNIT[nparams], nparams)

    @staticmethod
    def one(nparams: int) -> "Scalar":
        """The shared unit scalar, whose numerator and denominator are both
        the shared unit polynomial; made on first use, never mutate it."""
        one = _ONE.get(nparams)
        if one is None:
            unit = _UNIT[nparams]
            one = _ONE[nparams] = Scalar(unit, unit, nparams)
        return one

    @staticmethod
    def param(nparams: int, j: int) -> "Scalar":
        return Scalar(poly_var(nparams, j), _UNIT[nparams], nparams)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == self.den

    def is_unit(self) -> bool:
        """Whether this is the literal unit: numerator and denominator both
        the shared unit polynomial, tested by identity.  A value of one such
        as ``q/q``, or ``2 * 1/2`` with a numerator of its own, is not."""
        unit = _UNIT[self.nparams]
        return self.num is unit and self.den is unit

    def is_rational(self) -> bool:
        return all(not any(e) for e in self.num) and all(not any(e) for e in self.den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if not other.num:
            return self
        if not self.num:
            return other
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
        unit = _UNIT[self.nparams]
        if other.num is unit and other.den is unit:
            return self
        if self.num is unit and self.den is unit:
            return other
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
        r = _reciprocal(c)
        num = poly_scale(num, r)
        den = poly_scale(den, r)
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
    if s.den == _UNIT[s.nparams]:
        return num
    return f"({num})/({render_sum(s.den, names, str)})"
