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
  ``{(0, ...): 1}`` dict, such as ``2 * 1/2``, is multiplied out, which
  gives the same keys and values;
* the constant lane serves parameter-free one-term values: the shared unit
  as denominator and one numerator term, at the zero exponent (``_ZERO``).
  ``Scalar.__mul__`` of two of them multiplies the two numbers and builds
  the result with no ``poly_mul`` and no ``__init__``; its numerator is a
  fresh ``{zero: c}`` even when c is 1, never the shared unit.  A
  parametric operand leaves the lane at its first test, the zero exponent
  in both numerators.  ``__eq__`` compares the numerators when both
  denominators are the shared unit, which is what cross-multiplying by it
  gives, and ``__neg__`` skips ``__init__`` at or under the strip
  threshold, where it would change nothing.  Sums take no lane: one
  measured no faster;
* :func:`small_const` shares the constant scalar of each small ``int``.

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


# Absolute value up to which small_const shares its int constants.
_SMALL_MAX = 256


class _Units(dict):
    """nparams -> the shared unit polynomial, made on first use; its one
    key, the zero exponent, goes to ``_ZERO``."""

    def __missing__(self, nparams: int) -> dict:
        zero = _ZERO[nparams] = (0,) * nparams
        unit = self[nparams] = {zero: 1}
        return unit


_UNIT = _Units()
_ZERO: dict = {}  # nparams -> the zero exponent, filled with _UNIT
_ONE: dict = {}  # nparams -> the shared unit Scalar
_SMALL: dict = {}  # (nparams, int) -> its shared constant Scalar
_new = object.__new__


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


def check_rational(value) -> None:
    """Reject a value that is neither an ``int`` (a ``bool`` included) nor a
    ``Fraction``; a caller that caches by value checks first, since a
    ``float`` hashes and compares equal to the rational it rounds to."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"a scalar constant is an int or a Fraction, not {type(value).__name__}")


def poly_const(nparams: int, value) -> dict:
    check_rational(value)
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
        num, den = poly_neg(self.num), self.den
        if len(num) + len(den) > _STRIP_THRESHOLD:
            return Scalar(num, den, self.nparams)
        # den is already folded, and a zero keeps the shared unit as den
        out = _new(Scalar)
        out.num, out.den, out.nparams = num, den, self.nparams
        return out

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        n = self.nparams
        unit = _UNIT[n]
        a, b = self.num, other.num
        if b is unit and other.den is unit:
            return self
        if a is unit and self.den is unit:
            return other
        zero = _ZERO[n]
        if zero in a and zero in b and self.den is unit is other.den and len(a) == 1 == len(b):
            # the constant lane: a fresh numerator, even for a product of one,
            # and _canonical inlined
            c = a[zero] * b[zero]
            out = _new(Scalar)
            out.num = {zero: c if type(c) is int or c.denominator != 1 else c.numerator}
            out.den, out.nparams = unit, n
            return out
        return Scalar(poly_mul(a, b), poly_mul(self.den, other.den), n)

    def inverse(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverse of the zero scalar")
        return Scalar(self.den, self.num, self.nparams)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        unit = _UNIT[self.nparams]
        if self.den is unit and other.den is unit:
            return self.num == other.num
        if self.num == other.num and self.den == other.den:
            return True
        return poly_mul(self.num, other.den) == poly_mul(other.num, self.den)

    __hash__ = None  # unreduced representation: not hashable

    def __repr__(self):
        return f"Scalar({render_scalar(self, tuple(f'p{i}' for i in range(self.nparams)))})"


def small_const(nparams: int, value: int) -> Scalar:
    """The constant ``value``, an ``int`` (a ``bool`` included), as a Scalar;
    shared per ``nparams`` when its absolute value is at most ``_SMALL_MAX``,
    so never mutate it."""
    if not isinstance(value, int):
        raise TypeError(f"a small constant is an int, not {type(value).__name__}")
    key = (nparams, value)
    s = _SMALL.get(key)
    if s is None:
        s = Scalar.const(nparams, value)
        if -_SMALL_MAX <= value <= _SMALL_MAX:
            _SMALL[key] = s
    return s


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
