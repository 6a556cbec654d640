"""Exact arithmetic for the coefficient ring: commutative polynomials in the
declared coefficient variables over the scalar field, together with the
endomorphisms and twisted derivations that act on them.

A :class:`CoeffPoly` maps exponent tuples (one entry per coefficient
variable) to nonzero :class:`~spbw.scalars.Scalar` values.  Endomorphisms and
twisted derivations are determined by their images on the variables; a
derivation is extended by the twisted product rule
``delta(f*g) = sigma(f)*delta(g) + delta(f)*g``.

Scalars are fixed by every endomorphism and killed by every twisted
derivation, and most coefficients the reduction pushes past a generator are
scalars.  So :func:`apply_endo` returns a constant polynomial, zero
included, as it is, and :func:`apply_sder` returns zero for it, without
walking its terms.  Most endomorphisms are the identity (every sigma of a
polynomial ring, a Weyl algebra, an enveloping algebra or the Jordan plane);
:class:`CoeffEndo` recognizes one at construction, by the structure of its
images, and :func:`apply_endo` returns its argument under it.  Under it,
and with constant denominators, ``delta(t^e)`` is read from the Leibniz rule
(:func:`_sder_monomial`); :func:`commutation_audit` passes a pair with it
without applying a map.

Constant path.  Most coefficients the layers above multiply are constants,
so ``CoeffPoly.__mul__`` multiplies one term by one term with a single
``Scalar`` product, ``CoeffPoly.scale`` scales one term with no
comprehension, and ``_make`` builds a result without ``__init__``.
:func:`apply_sder` of one term scales the memoized ``delta(t^e)`` with no
sum, and the Leibniz closed form takes its factor e_j from the shared small
constants (:func:`~spbw.scalars.small_const`).  Each ring has one shared
unit polynomial (:meth:`CoeffRing.one`), whose scalar is the shared unit
of :mod:`spbw.scalars` (:meth:`Scalar.one`); like that scalar, it must
never be mutated.  Every path returns exactly the keys and values the
generic code would, and the scalar values keep the canonical
``int``-or-``Fraction`` form of :mod:`spbw.scalars`.  The paths make each
step cheaper and remove none: every coefficient product is still one
``Scalar`` product.
"""

from __future__ import annotations

from itertools import combinations, permutations
from operator import add

from .errors import MapError
from .lincomb import LinComb, add_terms, is_spaced_sum, render_sum, sum_terms
from .scalars import Scalar, check_rational, poly_one, render_scalar, small_const

_new = object.__new__


class CoeffRing:
    """Construction context: parameter names and coefficient-variable names.

    Values do not hold a reference to the ring; it is only needed to build
    and render them.  :meth:`one` returns the same unit polynomial, and
    :meth:`szero` the same zero scalar, on every call; never mutate them.
    """

    def __init__(self, params=(), coeff_vars=()):
        self.params = tuple(params)
        self.coeff_vars = tuple(coeff_vars)
        self.nparams = len(self.params)
        self.nvars = len(self.coeff_vars)
        self._scalars: dict = {}  # value -> its constant Scalar
        self._one = CoeffPoly({(0,) * self.nvars: self.sone()}, self.nvars, self.nparams)

    # -- scalar constructors ----------------------------------------------

    def scalar(self, value) -> Scalar:
        """The constant ``value`` as a Scalar, made once per value and ring
        and shared after that (scalars are never mutated).  A float is
        refused before the cache is read, where it would find an equal
        rational."""
        if isinstance(value, Scalar):
            return value
        check_rational(value)
        s = self._scalars.get(value)
        if s is None:
            s = self._scalars[value] = Scalar.const(self.nparams, value)
        return s

    def param(self, name: str) -> Scalar:
        return Scalar.param(self.nparams, self.params.index(name))

    def szero(self) -> Scalar:
        """The ring's shared zero scalar."""
        return self.scalar(0)

    def sone(self) -> Scalar:
        return Scalar.one(self.nparams)

    # -- polynomial constructors --------------------------------------------

    def zero(self) -> "CoeffPoly":
        return CoeffPoly({}, self.nvars, self.nparams)

    def one(self) -> "CoeffPoly":
        """The ring's shared unit polynomial."""
        return self._one

    def const(self, value) -> "CoeffPoly":
        s = self.scalar(value)
        if s.is_zero():
            return self.zero()
        return CoeffPoly({(0,) * self.nvars: s}, self.nvars, self.nparams)

    def var(self, j: int) -> "CoeffPoly":
        e = [0] * self.nvars
        e[j] = 1
        return CoeffPoly({tuple(e): self.sone()}, self.nvars, self.nparams)

    def monomial(self, expo, coeff=1) -> "CoeffPoly":
        s = self.scalar(coeff)
        if s.is_zero():
            return self.zero()
        return CoeffPoly({tuple(expo): s}, self.nvars, self.nparams)

    def render(self, p: "CoeffPoly") -> str:
        return render_coeff(p, self.params, self.coeff_vars)


class CoeffPoly(LinComb):
    """Polynomial in the coefficient variables with Scalar coefficients.

    ``terms`` never stores a zero Scalar; the zero polynomial is the empty
    map.  Immutable by convention.
    """

    __slots__ = ("nvars", "nparams")

    def __init__(self, terms: dict, nvars: int, nparams: int):
        self.terms = terms
        self.nvars = nvars
        self.nparams = nparams

    def _make(self, terms: dict) -> "CoeffPoly":
        out = _new(CoeffPoly)
        out.terms, out.nvars, out.nparams = terms, self.nvars, self.nparams
        return out

    def is_constant(self) -> bool:
        # the exponents are distinct, so a constant has at most one term
        return len(self.terms) < 2 and not any(next(iter(self.terms), ()))

    def constant_value(self) -> Scalar:
        """The degree-zero coefficient (the whole value if constant)."""
        for e, c in self.terms.items():
            if not any(e):
                return c
        return Scalar.const(self.nparams, 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_unit(self) -> bool:
        """Whether this is the literal unit: one term, at the zero exponent,
        whose coefficient is the literal unit scalar."""
        if len(self.terms) != 1:
            return False
        ((e, c),) = self.terms.items()
        return not any(e) and c.is_unit()

    def __mul__(self, other: "CoeffPoly") -> "CoeffPoly":
        a, b = self.terms, other.terms
        if len(a) == 1 and len(b) == 1:
            # a product of nonzero scalars is nonzero, so nothing cancels
            ((ea, ca),) = a.items()
            ((eb, cb),) = b.items()
            return self._make({tuple(map(add, ea, eb)): ca * cb})
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out[e] + ca * cb if e in out else ca * cb
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return self._make(out)

    def scale(self, s: Scalar) -> "CoeffPoly":
        if not s.num:
            return self._make({})
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return self._make({e: c * s})
        return self._make({e: c * s for e, c in self.terms.items()})

    def __pow__(self, k: int) -> "CoeffPoly":
        """The k-th power, k >= 0, by repeated squaring."""
        out = CoeffPoly({(0,) * self.nvars: Scalar.one(self.nparams)}, self.nvars, self.nparams)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __repr__(self):
        return f"CoeffPoly({render_coeff(self, tuple(f'p{i}' for i in range(self.nparams)), tuple(f't{j}' for j in range(self.nvars)))})"


def derivative(p: CoeffPoly, j: int = 0) -> CoeffPoly:
    """Formal derivative with respect to the j-th coefficient variable."""
    out: dict = {}
    for e, c in p.terms.items():
        if e[j]:
            e2 = list(e)
            e2[j] -= 1
            out[tuple(e2)] = c * Scalar.const(p.nparams, e[j])
    return CoeffPoly(out, p.nvars, p.nparams)


class CoeffEndo:
    """Algebra endomorphism of the coefficient ring, given by variable images.

    Applying it substitutes each variable by its image; scalars are fixed.
    ``inverse_images`` is optional and, when present, is verified to undo the
    substitution on every variable.

    ``is_identity`` records, at construction, whether every image is its own
    variable: one term at that variable's exponent whose coefficient is the
    literal unit scalar (:meth:`Scalar.is_unit`).  It reads the structure,
    not the value, so an image such as ``(q/q)*t`` is not the identity and
    keeps its unreduced fraction under substitution.
    """

    __slots__ = ("images", "inverse_images", "is_identity", "_memo")

    def __init__(self, images, inverse_images=None):
        self.images = tuple(images)
        self.inverse_images = tuple(inverse_images) if inverse_images is not None else None
        self.is_identity = all(_is_own_variable(img, j) for j, img in enumerate(self.images))
        self._memo = {}
        if self.inverse_images is not None:
            back = CoeffEndo(self.inverse_images)
            for j, img in enumerate(self.images):
                if apply_endo(back, img) != _variable(img, j):
                    raise MapError(f"claimed inverse does not undo image of variable {j}")


def _polynomial(p: CoeffPoly) -> bool:
    """Whether every scalar of p has a constant denominator."""
    return all(s.den is poly_one(s.nparams) for s in p.terms.values())


def _is_own_variable(p: CoeffPoly, j: int) -> bool:
    """Whether p is the literal j-th variable: one term, at e_j, whose
    coefficient is the literal unit scalar."""
    if len(p.terms) != 1:
        return False
    ((e, c),) = p.terms.items()
    return e[j] == 1 and sum(e) == 1 and c.is_unit()


def _variable(ref: CoeffPoly, j: int) -> CoeffPoly:
    """The j-th coefficient variable, over the same ring as ``ref``."""
    e = [0] * ref.nvars
    e[j] = 1
    return ref._make({tuple(e): Scalar.one(ref.nparams)})


def apply_endo(sigma: CoeffEndo, p: CoeffPoly) -> CoeffPoly:
    """Substitution homomorphism: each variable replaced by its image.  A
    constant, zero included, is returned as it is, since scalars are fixed,
    and so is every p under the identity (``sigma.is_identity``)."""
    if sigma.is_identity or p.is_constant():
        return p
    const = (0,) * p.nvars
    acc: dict = {}
    for e, c in p.terms.items():
        term = p._make({const: c})
        for j, k in enumerate(e):
            if k:
                term = term * _endo_power(sigma, j, k)
        add_terms(acc, term.terms)
    return p._make(acc)


def _endo_power(sigma: CoeffEndo, j: int, k: int) -> CoeffPoly:
    """sigma(t_j)^k, memoized with every lower power: each power is the one
    below times sigma(t_j), filled upward from the highest one kept."""
    memo = sigma._memo
    key = (j, k)
    if key not in memo:
        m = k - 1
        while m and (j, m) not in memo:
            m -= 1
        for i in range(m + 1, k + 1):
            memo[(j, i)] = memo[(j, i - 1)] * sigma.images[j] if i > 1 else sigma.images[j]
    return memo[key]


class CoeffSigmaDerivation:
    """Twisted derivation of the coefficient ring, determined by variable
    images and the endomorphism it twists against.  ``leibniz`` records, at
    construction, whether the twist is the identity and every scalar of the
    images has a constant denominator (:func:`_sder_monomial`)."""

    __slots__ = ("images", "twist", "leibniz", "_memo")

    def __init__(self, images, twist: CoeffEndo):
        self.images = tuple(images)
        self.twist = twist
        self.leibniz = twist.is_identity and all(_polynomial(img) for img in self.images)
        self._memo = {}


def apply_sder(delta: CoeffSigmaDerivation, p: CoeffPoly) -> CoeffPoly:
    """Extend ``delta`` from variable images to all of R by the twisted
    product rule; scalars map to zero, so a constant gives zero at once."""
    if p.is_constant():
        return p._make({})
    if len(p.terms) == 1:
        ((e, c),) = p.terms.items()
        return _sder_monomial(delta, e, p).scale(c)
    return p._make(sum_terms(_sder_monomial(delta, e, p).scale(c) for e, c in p.terms.items()))


def _sder_monomial(delta: CoeffSigmaDerivation, e: tuple, ref: CoeffPoly) -> CoeffPoly:
    """delta(t^e), memoized per monomial in ``delta._memo``.  Under
    ``delta.leibniz`` it is ``sum_j e_j t^(e - e_j) delta(t_j)``, with no
    lower power built.  The product rule adds the terms of each variable e_j
    times, last variable first; here they are added once, scaled by e_j,
    unless one meets a term already summed (that sum could pass through
    zero), so the keys, their order and the values are the product rule's.
    Otherwise the product rule splits off ``t_j * rest``, j the first
    variable, down to a memoized or constant monomial, and fills the memo
    back upward; it keeps the unreduced fractions of its order of summation."""
    memo = delta._memo
    if e in memo:
        return memo[e]
    if delta.leibniz:
        acc: dict = {}
        for j in reversed(range(len(e))):
            m = e[j]
            if m:
                rest = e[:j] + (m - 1,) + e[j + 1:]
                part = {tuple(map(add, rest, k)): c for k, c in delta.images[j].terms.items()}
                if m > 1 and acc.keys().isdisjoint(part):
                    scale = small_const(ref.nparams, m)
                    part, m = {k: c * scale for k, c in part.items()}, 1
                for _ in range(m):
                    add_terms(acc, part)
        memo[e] = ref._make(acc)
    steps, m = [], e  # (monomial, j, rest) from e down; none when the closed form stored e
    while m not in memo:
        j = next((i for i, k in enumerate(m) if k), None)
        if j is None:
            memo[m] = ref._make({})
        else:
            steps.append((m, j, m[:j] + (m[j] - 1,) + m[j + 1:]))
            m = steps[-1][2]
    for m, j, rest in reversed(steps):
        rest_poly = ref._make({rest: Scalar.one(ref.nparams)})
        memo[m] = delta.twist.images[j] * memo[rest] + delta.images[j] * rest_poly
    return memo[e]


# -- commutation audit ------------------------------------------------------


def commutation_audit(sigmas, deltas) -> list:
    """The pairs of coefficient-level maps that do not commute, as
    ``(label, key)`` in the order sigma-sigma (i < j), delta-delta (i < j),
    delta-sigma (i != j), then sigma-delta (i); empty when every pair
    commutes.

    Sufficient on variable images because every map is determined by them.
    A pair in which one map is an identity endomorphism commutes, and is
    passed without applying either map.  Failures are returned, not raised.
    """
    variables = [_variable(img, j) for j, img in enumerate(sigmas[0].images)] if sigmas else []

    def commute(f, a, g, b) -> bool:
        return all(f(a, g(b, v)) == g(b, f(a, v)) for v in variables)

    n = len(sigmas)
    identity = [sigma.is_identity for sigma in sigmas]
    pairs = list(combinations(range(n), 2))
    failures = [("sigma-sigma", (i, j)) for i, j in pairs
                if not (identity[i] or identity[j] or commute(apply_endo, sigmas[i], apply_endo, sigmas[j]))]
    failures += [("delta-delta", (i, j)) for i, j in pairs if not commute(apply_sder, deltas[i], apply_sder, deltas[j])]
    failures += [("delta-sigma", (i, j)) for i, j in permutations(range(n), 2)
                 if not (identity[j] or commute(apply_sder, deltas[i], apply_endo, sigmas[j]))]
    failures += [("sigma-delta", i) for i in range(n)
                 if not (identity[i] or commute(apply_endo, sigmas[i], apply_sder, deltas[i]))]
    return failures


# -- rendering ----------------------------------------------------------------


def render_coeff(p: CoeffPoly, param_names, var_names) -> str:
    return render_sum(p.terms, var_names, lambda c: render_scalar(c, param_names), _bare_sum)


def _bare_sum(cs: str) -> bool:
    """A rendered quotient ``(a)/(b)`` binds tighter than ``*``; only a bare
    sum needs parentheses."""
    return not cs.startswith("(") and is_spaced_sum(cs)
