"""Lifts of coefficient maps to the whole extension, and the hypothesis
package they require.

An :class:`AlgebraEndo` is given by the images of the symbol frame, in frame
order: the coefficient variables first, then the generators.  Construction
verifies that every defining relation of the presentation is respected, so
the same type serves coefficientwise lifts, volume twists and user-supplied
calculus twists uniformly.

Most twists only rescale: every symbol s goes to a nonzero scalar ``c_s``
times s.  Such a map is recognized at construction, from the single term
of each image, and it sends each term ``s t^beta x^alpha`` of an element
to the same monomial with the coefficient ``w(beta, alpha) * s``, where the
weight ``w = prod c_s^k`` is memoized per exponent; no product in the
extension is formed.  The weight is multiplied out in the order of the
product chain that every other map uses, and a weight or coefficient that
is the literal unit is not multiplied in, so both give the same
representation.  When every ``c_s`` is the literal unit, as for the
coefficientwise lift of a sigma that fixes the coefficient variables, the
map is the identity and returns its argument.

The same scales decide the construction checks with no product in the
extension.  The identity respects every relation.  A rescaling map respects
the relation with word ``x_a x_b`` iff every term of its normal form has the
weight ``c_a c_b``, and a rescaling inverse undoes its rescaling map iff
``c_s c'_s = 1`` for every symbol s.  Any other map multiplies out the
relation words and applies its inverse to the images.  :func:`auto_inverse`
reads a rescaling map's inverse from its scales: s goes to ``c_s^-1 s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coefficients import apply_endo, apply_sder
from .core import Presentation, SkewPoly, tail_name
from .errors import HypothesisError, MapError
from .lincomb import add_terms, sum_terms
from .linalg import inverse


class AlgebraEndo:
    """Endomorphism of the extension, determined by the images of the symbol
    frame.

    ``images`` holds one SkewPoly per symbol in frame order: the coefficient
    variables first, then the generators (the order of
    :meth:`Presentation.symbol`).  Unless ``check=False``, the constructor
    verifies that the images respect every defining relation listed by
    :meth:`Presentation.defining_relations` (:meth:`broken_relation`); when
    an inverse is supplied the round trip on every symbol is verified as
    well, by the scales when both maps rescale.

    ``_scales`` holds ``c_s`` for every frame symbol when each image is
    ``c_s`` times its own symbol, and is None otherwise; ``_identity`` says
    that every ``c_s`` is the literal unit scalar, read by structure, so a
    scale such as ``q/q`` keeps the rescaling path.  ``_verified_inverse``
    is the inverse whose round trip the constructor verified, or None.
    """

    def __init__(self, P: Presentation, images, inverse=None, check=True):
        self.P = P
        self.images = tuple(images)
        self.inverse = inverse
        self._verified_inverse = None
        self._power_memo: dict = {}
        self._monomial_memo: dict = {}  # (tvec, e) -> image of t^tvec x^e, product-chain maps only
        self._weights: dict = {}  # frame exponent -> prod c_s^k, rescaling maps only
        self._scales = _rescaling(self.images)
        self._identity = self._scales is not None and all(c.is_unit() for c in self._scales)
        if check:
            self._check_relations()
            if inverse is not None:
                self._check_inverse()
                self._verified_inverse = inverse

    # -- construction checks -------------------------------------------------

    def _check_relations(self):
        label = self.broken_relation()
        if label is not None:
            raise MapError(f"relation {label} not respected")

    def _check_inverse(self):
        P = self.P
        inverse = self.inverse
        if self._scales is not None and inverse._scales is not None:
            one = P.ring.sone()
            for k, (c, c_inv) in enumerate(zip(self._scales, inverse._scales)):
                if c * c_inv != one:
                    raise MapError(f"inverse does not undo {P.symbol_name(k)}")
            return
        for k, img in enumerate(self.images):
            if inverse.apply(img) != P.symbol(k):
                raise MapError(f"inverse does not undo {P.symbol_name(k)}")

    def broken_relation(self):
        """The label of the first defining relation, in the order of
        :meth:`Presentation.defining_relations`, that the images do not
        respect; None when they respect every one.

        The identity respects every relation.  A rescaling map sends the
        word ``x_a x_b`` to ``c_a c_b`` times its normal form N, since
        scalars are central, and N to the sum of its terms ``t^beta x^alpha``
        each times its weight; the terms of N are distinct normal monomials
        with nonzero coefficients, so the relation holds iff every term has
        the weight ``c_a c_b``, compared by value.  Any other map multiplies
        the images of the word and compares with the image of N."""
        if self._identity:
            return None
        P = self.P
        scales = self._scales
        for label, (a, b), normal in P.defining_relations():
            if scales is not None:
                target = scales[a] * scales[b]
                if any(self._weight(tvec + e) != target for e, c in normal.terms.items() for tvec in c.terms):
                    return label
            elif P.multiply(self.images[a], self.images[b]) != self.apply(normal):
                return label
        return None

    # -- action ------------------------------------------------------------

    def apply(self, f: SkewPoly) -> SkewPoly:
        """The image of f.  The map is linear over the base field and fixes
        scalars, so the image is the scalar-weighted sum of the memoized
        images of the unit-coefficient monomials ``t^beta x^alpha`` of f.  A
        rescaling map instead weights each term where it stands, and the
        identity returns f itself."""
        if self._identity:
            return f
        if self._scales is not None:
            return self._rescale(f)
        acc: dict = {}
        for e, c in f.terms.items():
            for tvec, s in c.terms.items():
                add_terms(acc, self._monomial(tvec, e).scale(s).terms)
        return SkewPoly(acc, self.P.n)

    def _rescale(self, f: SkewPoly) -> SkewPoly:
        """f with the coefficient s of each ``t^tvec x^e`` replaced by
        ``w * s``, w the weight of ``tvec + e``.  The monomials are distinct
        and w is nonzero, so no terms merge or vanish.  A literal unit
        factor is not multiplied in, as ``SkewPoly.scale`` and
        ``Scalar.__mul__`` leave it out."""
        terms = {}
        for e, c in f.terms.items():
            coeff = {}
            for tvec, s in c.terms.items():
                w = self._weight(tvec + e)
                coeff[tvec] = s if w.is_unit() else w if s.is_unit() else w * s
            terms[e] = c._make(coeff)
        return SkewPoly(terms, self.P.n)

    def _weight(self, a):
        """``prod c_s^(a_s)`` over the frame exponent a, memoized.  Each power
        is multiplied out from the left and the powers are folded in frame
        order, as the product chain does; a unit ``c_s`` is skipped, since
        a product with the literal unit is the other factor."""
        w = self._weights.get(a)
        if w is None:
            for c, k in zip(self._scales, a):
                if k and not c.is_unit():
                    power = c
                    for _ in range(k - 1):
                        power = power * c
                    w = power if w is None else w * power
            if w is None:
                w = self.P.ring.sone()
            self._weights[a] = w
        return w

    def _monomial(self, tvec, e) -> SkewPoly:
        """The image of ``t^tvec x^e`` under a map that does not rescale,
        memoized: the product of the images of the symbol powers in frame
        order."""
        key = (tvec, e)
        image = self._monomial_memo.get(key)
        if image is None:
            image = self._chain(tvec, e)
            self._monomial_memo[key] = image
        return image

    def _chain(self, tvec, e) -> SkewPoly:
        P = self.P
        image = P.one()
        for s, k in enumerate(tvec + e):
            if k:
                image = P.multiply(image, self._power(s, k))
        return image

    def _power(self, s, k):
        """The image of the k-th power of frame symbol s, memoized with every
        lower power: each is the one below times the image of s, filled
        upward from the highest one kept."""
        memo = self._power_memo
        key = (s, k)
        if key not in memo:
            m = k - 1
            while m and (s, m) not in memo:
                m -= 1
            for i in range(m + 1, k + 1):
                memo[(s, i)] = self.P.multiply(memo[(s, i - 1)], self.images[s]) if i > 1 else self.images[s]
        return memo[key]


def _rescaling(images):
    """``c_s`` for every frame symbol s when each image is a nonzero scalar
    ``c_s`` times s, read from its terms: a single term, at the frame
    exponent of s alone; None for any other map."""
    scales = []
    for s, img in enumerate(images):
        terms = [(tvec + e, c) for e, coeff in img.terms.items() for tvec, c in coeff.terms.items()]
        if len(terms) != 1:
            return None
        (a, c), = terms
        if a[s] != 1 or sum(a) != 1 or c.is_zero():
            return None
        scales.append(c)
    return tuple(scales)


def frame_affine_inverse(P: Presentation, images):
    """Invert a map whose symbol images are affine in the symbol frame
    (constant plus linear combination of the variables and generators).

    Returns the frame images of the inverse, or None when an image is not
    frame-affine or the linear part is singular.
    """
    consts, rows = [], []
    for img in images:
        coords = P.frame_coordinates(img)
        if coords is None:
            return None
        consts.append(coords[0])
        rows.append(coords[1])
    inv = inverse(rows, P.ring.nparams)
    if inv is None:
        return None
    # the map sends symbol k to c_k + sum_l A[k][l] symbol_l, so the inverse
    # sends symbol k to sum_l B[k][l] (symbol_l - c_l) with B = A^{-1}
    return tuple(
        SkewPoly(sum_terms(
            (P.symbol(l) - P.const(consts[l])).scale(b) for l, b in enumerate(row) if not b.is_zero()
        ), P.n)
        for row in inv
    )


def triangular_inverse(P: Presentation, images):
    """Invert a map that fixes every coefficient variable and sends each
    generator to ``a*x_i + lower`` with ``lower`` free of x_i and of later
    generators.  Covers shear twists whose lower part is not frame-affine."""
    m = P.ring.nvars
    frame = P.frame()
    if tuple(images[:m]) != frame[:m]:
        return None
    inv = list(frame)
    for i in range(P.n):
        img = images[m + i]
        key = tuple(1 if k == i else 0 for k in range(P.n))
        lin = img.terms.get(key)
        if lin is None or not lin.is_constant():
            return None
        a = lin.constant_value()
        rest = img - P.gen(i).scale_left(lin)
        if any(e[i] or any(e[i + 1:]) for e in rest.terms):
            return None
        inv[m + i] = (P.gen(i) - rest).scale(a.inverse())
    return tuple(inv)


def auto_inverse(P: Presentation, images):
    """A rescaling map's inverse read from its scales, ``c_s^-1 s`` as
    :func:`frame_affine_inverse` gives it for a diagonal matrix; otherwise
    the two mechanical inversion schemes, and None when both fail."""
    scales = _rescaling(images)
    if scales is not None:
        return tuple(sym.scale(c.inverse()) for sym, c in zip(P.frame(), scales))
    got = frame_affine_inverse(P, images)
    if got is None:
        got = triangular_inverse(P, images)
    return got


# -- hypothesis package --------------------------------------------------------


@dataclass
class HypothesisReport:
    """Outcome of every commutation and shape condition, split into the
    block required by the coefficientwise lifts (H) and the extra block
    required by the plain-twist calculus construction (T)."""

    h1_sigma_delta_diag: bool
    h2_delta_delta: bool
    h3_delta_sigma: bool
    h4_delta_kills_constants: bool
    t1_relations_trivial: bool
    t2_sigma_sigma: bool
    failures: list = field(default_factory=list)

    @property
    def proposition_ok(self) -> bool:
        return (
            self.h1_sigma_delta_diag
            and self.h2_delta_delta
            and self.h3_delta_sigma
            and self.h4_delta_kills_constants
        )

    @property
    def theorem_ok(self) -> bool:
        return self.proposition_ok and self.t1_relations_trivial and self.t2_sigma_sigma


def hypothesis_check(P: Presentation) -> HypothesisReport:
    """Evaluate the commutation system and relation-shape conditions, once
    per presentation: the report is kept on P, returned by every later
    call, and must not be changed.  The commutation system is read from
    P's one audit (:meth:`Presentation.commutation_failures`), which the
    reduction may already have made.  All findings are data; nothing is
    raised."""
    if P._hypotheses is not None:
        return P._hypotheses
    audit = P.commutation_failures()
    failures = [f"{label} pair {key}" for label, key in audit]
    failed = {label for label, _ in audit}

    h4 = True
    for (i, j), tails in P.tails.items():
        for k in range(P.n):
            for c, w in tails:
                if not apply_sder(P.delta[k], c).is_zero():
                    h4 = False
                    failures.append(
                        f"delta_{P.names[k]} does not kill {tail_name(w)} of relation "
                        f"({P.names[j]},{P.names[i]})"
                    )

    t1 = True
    one = P.ring.one()
    for (i, j), tails in P.tails.items():
        for c, w in tails:
            if len(w) == 2 and c != one:
                t1 = False
                failures.append(f"d of relation ({P.names[j]},{P.names[i]}) is not 1")
            elif len(w) == 1:
                t1 = False
                failures.append(
                    f"linear tail {tail_name(w)} of relation ({P.names[j]},{P.names[i]}) is nonzero"
                )

    P._hypotheses = HypothesisReport(
        h1_sigma_delta_diag="sigma-delta" not in failed,
        h2_delta_delta="delta-delta" not in failed,
        h3_delta_sigma="delta-sigma" not in failed,
        h4_delta_kills_constants=h4,
        t1_relations_trivial=t1,
        t2_sigma_sigma="sigma-sigma" not in failed,
        failures=failures,
    )
    return P._hypotheses


# -- lifts ---------------------------------------------------------------------


def extend_sigma(P: Presentation, i: int) -> AlgebraEndo:
    """Lift sigma_i to the extension: coefficientwise on normal forms,
    fixing every generator.  Carries an inverse when sigma_i does.  Raises
    unless the coefficient maps satisfy the lifting hypotheses, as
    :func:`hypothesis_check` of P records them."""
    report = hypothesis_check(P)
    if not report.proposition_ok:
        raise HypothesisError(
            "coefficient maps do not satisfy the lifting hypotheses: " + "; ".join(report.failures)
        )
    gens = P.frame()[P.ring.nvars:]
    images = tuple(P.from_coeff(apply_endo(P.sigma[i], P.ring.var(j))) for j in range(P.ring.nvars))
    inv = None
    if P.sigma[i].inverse_images is not None:
        inv = AlgebraEndo(P, tuple(P.from_coeff(img) for img in P.sigma[i].inverse_images) + gens, check=False)
    return AlgebraEndo(P, images + gens, inverse=inv)
