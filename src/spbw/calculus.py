"""The differential graded algebra over a presentation, and every smoothness
check that runs on it.

Forms are stored with right coefficients over a basis of wedges of the
differential generators; the left module structure is carried by one
invertible twist per generator: ``f du_i = du_i nu_i(f)``.  Two modes exist:

* ``theorem``: differentials for the algebra generators only, twists forced
  to the coefficientwise lifts of the sigma maps, plain antisymmetry;
* ``flat``: differentials for the coefficient variables too, user-supplied
  twists, and optional wedge constants generalizing plain antisymmetry.

A differential generator is usually the differential of a single symbol but
may be bound to any invertible frame-linear combination of symbols, which is
what makes diagonalizable mixing twists reachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice
from operator import add

from .coefficients import CoeffPoly
from .core import Presentation, SkewPoly, exponents_upto
from .errors import CompatibilityError, ConfigError, MapError, NotAVolumeFormError
from .extended import AlgebraEndo, extend_sigma, hypothesis_check
from .lincomb import LinComb, add_term, add_terms, sum_terms
from .linalg import inverse, kernel_basis
from .scalars import Scalar

THEOREM_MODE = "theorem"
FLAT_MODE = "flat"
NO_INTEGRABILITY = "divergence transport requested without an integrability certificate"

# The parts (a) to (d) of the certificate on the frame generators
# (:meth:`Calculus._failure`), each the name of the Calculus method that
# returns None when the part holds and else a witness of its failure.
_PARTS = {
    "a": "_noncommuting_twists",
    "b": "_twisting_failure",
    "c": "_inverse_breaking_a_relation",
    "d": "_inverse_not_undoing_its_twist",
}


@dataclass
class DGen:
    """One differential generator: a display name, the frame-linear algebra
    element it differentiates, and the invertible twist carrying the left
    module structure of its differential."""

    name: str
    potential: SkewPoly
    twist: AlgebraEndo


@dataclass
class CalculusSpec:
    """Differential generator list, twists, wedge constants and mode."""

    dgens: list
    wedge_signs: dict = field(default_factory=dict)  # (i, j) i<j -> Scalar
    mode: str = FLAT_MODE


class DiffForm(LinComb):
    """Element of the graded algebra: map from sorted index subsets to right
    coefficients, meaning ``sum du_S * f_S``."""

    __slots__ = ()

    def __init__(self, terms: dict):
        self.terms = terms

    def _make(self, terms) -> "DiffForm":
        return DiffForm(terms)


@dataclass
class CheckOutcome:
    ok: bool
    witnesses: list = field(default_factory=list)
    data: dict = field(default_factory=dict)


def _peel(expo):
    """The first symbol s of the monomial with frame exponent ``expo`` (not
    all zero), and the exponent of the rest: ``expo`` is ``s`` times it."""
    s = 0
    while not expo[s]:
        s += 1
    return s, expo[:s] + (expo[s] - 1,) + expo[s + 1:]


def _image_terms(twist: AlgebraEndo, s: int) -> list:
    """``(c, a, top, k)`` for each term ``c t^a`` of ``twist.images[s]`` (a
    over the whole frame, None for the constant term), read by
    :meth:`Calculus._d_step`: its product with a monomial that has no symbol
    below ``top`` is a shift.  ``top`` is the highest symbol of a term with a
    generator under a twist that does not rescale, and 0 otherwise; ``k`` is
    the symbol of a term that is one symbol to the first power, else None.
    A coefficient that is the literal unit is None, so no product by it is
    made."""
    out = []
    for e, coeff in twist.images[s].terms.items():
        for tvec, c in coeff.terms.items():
            a = tvec + e
            support = [j for j, x in enumerate(a) if x]
            top = support[-1] if twist._scales is None and any(e) else 0
            k = support[0] if len(support) == 1 and a[support[0]] == 1 else None
            out.append((None if c.is_unit() else c, a if support else None, top, k))
    return out


class Calculus:
    """Built and compatibility-checked context: :func:`build_calculus`
    returns one only when d respects every defining relation.

    The checks return new values and leave the presentation's data alone,
    but the calculus records what it learns: ``volume()`` keeps the volume
    twist nu in ``_volume`` (in any mode; the pipeline's volume stage
    compares it with the composite of the sigma maps in theorem mode),
    ``_d_monomial`` memoizes the coordinates of d of every normal monomial
    it meets in ``_d_memo``, keyed by its frame exponent (``d0`` and
    compatibility read d from there, and the connectedness sweep reads and
    fills it in the same order; the nonzero dcoords of each symbol and the
    terms of the twist images each step reads are taken once, into
    ``_dterms`` and ``_twist_terms``), ``_basis_product`` memoizes the
    merged set and crossing factor of every pair of wedge basis sets in
    ``_basis_memo``, ``_unit_form`` builds each unit form ``du_S`` once,
    into ``_unit_forms``, ``d0`` builds the form of each single monomial
    once, into ``_d0_forms``, and ``_failure`` decides each part of the
    certificate once, keeping its witness (None when it holds) in
    ``_witnesses``, which the four certified stages read.  These and the
    memo tables of the presentation (``_mono_cache``) and the twists and
    their stored inverses (``_power_memo`` and ``_monomial_memo`` for a map
    that does not rescale; a map that rescales each symbol fills only
    ``_weights``, one scalar per frame exponent, and one whose scales are
    all the literal unit is the identity and fills nothing; (d) applies
    each twist to its inverse's images, and each inverse to its twist's
    images unless the twist's construction verified that inverse) fill as
    it runs, so one calculus belongs to one thread at a time.  A product
    with the literal unit element, in ``Presentation.multiply``, returns
    the other factor itself."""

    def __init__(self, P: Presentation, spec: CalculusSpec):
        self.P = P
        self.spec = spec
        self.N = len(spec.dgens)
        self.nsyms = P.ring.nvars + P.n
        self._dcoords = None  # per symbol: tuple of N Scalars, or None row
        self._dterms = None  # per symbol: the (i, Scalar) of its nonzero dcoords
        self._d_memo = {(0,) * self.nsyms: {}}  # frame exponent -> coordinates of d
        self._twist_terms = [[_image_terms(dg.twist, s) for s in range(self.nsyms)] for dg in spec.dgens]
        self._basis_memo: dict = {}  # (S, T) -> du_S ^ du_T as (merged set, factor), or None
        self._unit_forms: dict = {}  # S -> du_S with the unit coefficient
        self._d0_forms: dict = {}  # frame exponent -> d0 of its monomial
        self._one = P.ring.sone()
        self._volume = None
        self._witnesses: dict = {}  # part of _PARTS -> its witness, or None when it holds

    # -- setup ----------------------------------------------------------------

    def _build_dcoords(self):
        """Invert the frame matrix of the potentials so each covered symbol
        gets its differential as a combination of the du basis."""
        P = self.P
        rows = []
        for dg in self.spec.dgens:
            coords = P.frame_coordinates(dg.potential)
            if coords is None or not coords[0].is_zero():
                raise ConfigError(f"potential of d({dg.name}) must be frame-linear")
            rows.append(coords[1])
        cols = [k for k in range(self.nsyms) if any(not row[k].is_zero() for row in rows)]
        if len(cols) != self.N:
            raise ConfigError(
                "differential generators must span as many symbols as there are "
                f"of them (got {len(cols)} symbols for {self.N} generators)"
            )
        inv = inverse([[row[c] for c in cols] for row in rows], P.ring.nparams)
        if inv is None:
            raise ConfigError("differential generator potentials are linearly dependent")
        dcoords = [None] * self.nsyms
        for pos, c in enumerate(cols):
            # symbol c = sum_i B[pos][i] * u_i with B the matrix inverse
            dcoords[c] = tuple(inv[pos])
        self._dcoords = dcoords
        self._dterms = [[(i, b) for i, b in enumerate(row or ()) if not b.is_zero()] for row in dcoords]

    # -- twists ------------------------------------------------------------------

    def twist_apply_set(self, S, f: SkewPoly) -> SkewPoly:
        """nu_S(f): push f through du_S, applying the twists in stored
        (ascending) order."""
        for i in S:
            f = self.spec.dgens[i].twist.apply(f)
        return f

    def twist_inv_apply_set(self, S, f: SkewPoly) -> SkewPoly:
        for i in reversed(tuple(S)):
            f = self.spec.dgens[i].twist.inverse.apply(f)
        return f

    def lam(self, i: int, j: int) -> Scalar:
        return self.spec.wedge_signs.get((i, j), self._one)

    # -- form constructors ----------------------------------------------------------

    def zero_form(self) -> DiffForm:
        return DiffForm({})

    def form(self, S, f: SkewPoly) -> DiffForm:
        if f.is_zero():
            return self.zero_form()
        return DiffForm({tuple(S): f})

    def _unit_form(self, S) -> DiffForm:
        """``du_S`` with the unit coefficient, memoized in ``_unit_forms``."""
        form = self._unit_forms.get(S)
        if form is None:
            form = self._unit_forms[S] = self.form(S, self.P.one())
        return form

    # -- operations ------------------------------------------------------------------

    def left_multiply(self, a: SkewPoly, form: DiffForm) -> DiffForm:
        return self._sum(
            self.form(S, self.P.multiply(self.twist_apply_set(S, a), f)) for S, f in form.terms.items()
        )

    def _sum(self, forms) -> DiffForm:
        return DiffForm(sum_terms(forms))

    def _basis_product(self, S, T):
        """Merge two sorted index sets: None on repeats, else the merged set
        and the scalar factor from the crossings; memoized by ``(S, T)``."""
        memo = self._basis_memo
        if (S, T) not in memo:
            if set(S) & set(T):
                memo[S, T] = None
            else:
                factor = self._one
                for s in S:
                    for t in T:
                        if s > t:
                            factor = factor * (-self.lam(t, s))
                memo[S, T] = tuple(sorted(S + T)), factor
        return memo[S, T]

    def wedge(self, a: DiffForm, b: DiffForm) -> DiffForm:
        """Graded product: repeated generators annihilate, crossings pick up
        the sign and wedge constants, coefficients pass through twists."""
        acc: dict = {}
        P = self.P
        for S, f in a.terms.items():
            for T, g in b.terms.items():
                merged = self._basis_product(S, T)
                if merged is None:
                    continue
                U, factor = merged
                coeff = P.multiply(self.twist_apply_set(T, f), g).scale(factor)
                add_terms(acc, self.form(U, coeff).terms)
        return DiffForm(acc)

    def d0(self, f: SkewPoly) -> DiffForm:
        """Differential of a degree-zero element: the scalar-weighted sum of
        the memoized differentials of its normal monomials.  A weight of
        value one, literal or not (such as ``q/q``), is not multiplied in,
        and a single monomial with such a weight gets its one-form built
        once, into ``_d0_forms``."""
        acc: dict = {}
        for e, c in f.terms.items():
            for tvec, s in c.terms.items():
                expo = tvec + e
                if s.is_one() and len(f.terms) == len(c.terms) == 1:
                    form = self._d0_forms.get(expo)
                    if form is None:
                        form = self._d0_forms[expo] = self._form(self._d_monomial(expo))
                    return form
                coords = self._d_monomial(expo)
                if s.is_one():
                    add_terms(acc, coords)
                else:
                    for key, v in coords.items():
                        add_term(acc, key, v * s)
        return self._form(acc)

    def _form(self, coords: dict) -> DiffForm:
        """The one-form with coordinates ``coords``: ``(i, expo)`` maps to
        the coefficient of ``du_i`` times the normal monomial with frame
        exponent ``expo`` (coefficient variables first)."""
        P = self.P
        m = P.ring.nvars
        terms: dict = {}
        for (i, expo), v in coords.items():
            terms.setdefault(i, {}).setdefault(expo[m:], {})[expo[:m]] = v
        return DiffForm({
            (i,): SkewPoly({e: CoeffPoly(c, m, P.ring.nparams) for e, c in poly.items()}, P.n)
            for i, poly in terms.items()
        })

    def _d_monomial(self, expo) -> dict:
        """The coordinates of d of the normal monomial with frame exponent
        ``expo``, memoized in ``_d_memo``: peeled one first symbol at a time
        down to the longest memoized suffix, then built back up by
        :meth:`_d_step`, with no recursion."""
        memo = self._d_memo
        pending = []
        target = expo
        while expo not in memo:
            s, rest = _peel(expo)
            pending.append((expo, s, rest))
            expo = rest
        for e, s, rest in reversed(pending):
            memo[e] = self._d_step(s, rest, memo[rest])
        return memo[target]

    def _d_step(self, s: int, rest, coords: dict) -> dict:
        """The coordinates of ``d(s m')``, m' the normal monomial with
        exponent ``rest`` and coordinates ``coords``, by the twisted product
        rule ``d(s m') = sum_i du_i (B[s][i] m' + nu_i(s) d_i(m'))``, with
        ``B[s]`` the dcoords row of s and ``d_i`` the du_i component.

        A term ``c t^a`` of ``nu_i(s)`` times a monomial mu of ``d_i(m')`` is
        c times the word ``t^a mu``, an exponent shift exactly when that word
        is normal: when the term has no generator (coefficient variables
        commute and stand left of every generator), or mu has no coefficient
        variable and no generator below the term's.  When twist i rescales,
        ``nu_i(s) = c_(i,s) s``, and if s is the first symbol of s m', every
        monomial of ``d_i(m')`` is m' with one symbol removed, at or above s,
        so every product is a shift.  Any other product, such as ``x t``
        under a shear ``x -> x + 2t``, is reduced by ``Presentation.multiply``.
        Terms that land on one coordinate are added, and a zero sum dropped."""
        P = self.P
        out = {(i, rest): b for i, b in self._dterms[s]}
        for (i, ex), v in coords.items():
            for c, a, top, k in self._twist_terms[i][s]:
                if top and any(ex[:top]):
                    product = P.multiply(self._monomial(a), self._monomial(ex))
                    for ev, coeff in product.terms.items():
                        for tv, w in coeff.terms.items():
                            add_term(out, (i, tv + ev), w * v if c is None else c * w * v)
                elif k is not None:
                    add_term(out, (i, ex[:k] + (ex[k] + 1,) + ex[k + 1:]), v if c is None else c * v)
                else:
                    add_term(out, (i, ex if a is None else tuple(map(add, a, ex))), v if c is None else c * v)
        return out

    def differential(self, a: DiffForm) -> DiffForm:
        """Degree-one map: ``d(du_S f) = (-1)^{|S|} du_S ^ d(f)``."""
        acc: dict = {}
        for S, f in a.terms.items():
            part = self.wedge(self._unit_form(S), self.d0(f))
            add_terms(acc, (-part if len(S) % 2 else part).terms)
        return DiffForm(acc)

    # -- compatibility -----------------------------------------------------------------

    def _check_compatibility(self):
        """d applied along both sides of every defining relation must agree;
        otherwise no product-rule extension of d exists.

        The word side of relation ``a*b`` is one :meth:`_d_step` with s = a
        and m' the symbol b, exact although ``a b`` is out of order because
        each ``d_i(b)`` is a constant: ``nu_i(a) d_i(b)`` is a scalar times
        ``nu_i(a)``."""
        P = self.P
        for label, (a, b), normal in P.defining_relations():
            rest = tuple(int(k == b) for k in range(self.nsyms))
            residual = self._form(self._d_step(a, rest, self._d_monomial(rest))) - self.d0(normal)
            if not residual.is_zero():
                text = self.render_form(residual)
                raise CompatibilityError(
                    f"differential is incompatible with relation {label}; residual {text}",
                    relation=label,
                    residual=text,
                )

    # -- checks --------------------------------------------------------------------------

    def d_squared_check(self, degree_bound: int) -> CheckOutcome:
        """d^2 = 0 on all of Omega, decided from the frame generators;
        searched to ``degree_bound`` for witnesses when that fails.

        Omega is generated by the algebra A and the ``du_i``, subject to the
        relations of A, ``f du_i = du_i nu_i(f)``, ``du_i du_i = 0`` and
        ``du_j du_i = -lambda_ij du_i du_j`` for i < j.  The certificate is:

        (a) the twists commute on the frame, ``nu_i(nu_j(s)) ==
            nu_j(nu_i(s))`` for every pair i < j and every frame symbol s,
            compared only for pairs in which some twist does not rescale;
        (b) ``d0(s) ^ du_i == d(du_i nu_i(s))`` for every frame symbol s and
            every i, with ``du_i nu_i(s)`` the product ``s du_i`` of
            :meth:`left_multiply` and d the :meth:`differential` of Omega.

        Why it suffices.  Compatibility has passed (:func:`build_calculus`
        checks it, and it is a hard stage that runs earlier), so ``d0`` is a
        well-defined twisted derivation of A; every twist is an algebra
        endomorphism, which ``AlgebraEndo`` verifies on every defining
        relation, and is Q(params)-linear.  Both composites in (a) are then
        algebra maps, so they agree on all of A.  Two rescaling twists need
        no comparison: both composites send s to ``c_i c_j s``, because
        scalars are central and fixed by every twist.  Pushing f through
        ``du_j du_i`` in either order gives ``nu_i nu_j(f)`` and ``nu_j
        nu_i(f)`` times the same scalar, so (a) makes the forms ``du_S f`` a
        basis on which ``wedge`` is the associative product of Omega.  (b) is d
        applied to both sides of ``s du_i = du_i nu_i(s)``: the left side is
        the product rule's ``d0(s) ^ du_i``, since ``d(du_i) = 0``, and the
        right side is what ``differential`` makes of ``du_i nu_i(s)``, that
        is ``-du_i ^ d0(nu_i(s))``; since d0 and
        nu_i obey the product rule and the wedge is associative, it extends
        from the frame symbols to every f, so d respects the relation ``f
        du_i = du_i nu_i(f)``.  It respects the relations among the ``du``
        because ``d(du_i) = 0`` and the wedge constants are central.  That is
        also why the constants need no check of their own: they are nonzero
        (the parser refuses 0), they are scalars of Q(params), and the twists
        are Q(params)-linear, so each constant commutes with every form.  So
        d, which ``differential`` computes on the basis as ``d(du_S f) =
        (-1)^|S| du_S ^ d0(f)``, is a graded derivation of Omega.  Then d^2 =
        (1/2)[d, d] is a derivation too, and it vanishes on the generators of
        Omega: on each ``du_i``, and on each frame symbol s, because
        ``d0(s)`` has scalar coefficients (its dcoords row, or none).  Hence
        d^2 = 0 in every degree, which includes every monomial up to the
        bound.

        (a) and (b) are sufficient, not necessary: when either fails,
        :meth:`_d_squared_upto` decides, and stops at its fifth witness."""
        if self._failure("ab") is None:
            return CheckOutcome(True)
        return self._d_squared_upto(degree_bound)

    def _noncommuting_twists(self) -> str | None:
        """Condition (a) of :meth:`d_squared_check`: None when it holds,
        else the first pair of twists and frame symbol on which the two
        composites differ, as a witness.  Two rescaling twists commute,
        since scalars are central, so only a pair with some other map is
        compared on the frame."""
        twists = [dg.twist for dg in self.spec.dgens]
        for (i, ti), (j, tj) in combinations(enumerate(twists), 2):
            if ti._scales is not None and tj._scales is not None:
                continue
            for s in range(self.nsyms):
                if ti.apply(tj.images[s]) != tj.apply(ti.images[s]):
                    return (f"the twists of {self._render_basis((i,))} and {self._render_basis((j,))} "
                            f"do not commute on {self.P.render(self.P.frame()[s])}")
        return None

    def _twisting_failure(self) -> str | None:
        """(b) of :meth:`d_squared_check`: None when it holds, else the
        first frame symbol s and index i at which it fails, with the
        nonzero two-form ``d0(s) ^ du_i - d(du_i nu_i(s))``, as a witness.
        Per frame symbol and twist, one :meth:`left_multiply` and one
        :meth:`differential` of a one-form, and two wedges."""
        units = [self._unit_form((i,)) for i in range(self.N)]
        for sym in self.P.frame():
            ds = self.d0(sym)
            for i, du in enumerate(units):
                left, right = self.wedge(ds, du), self.differential(self.left_multiply(sym, du))
                if left != right:
                    return (f"d0(s) ^ du_i != d(du_i nu_i(s)) at s = {self.P.render(sym)}, "
                            f"du_i = {self._render_basis((i,))}, difference {self.render_form(left - right)}")
        return None

    def _d_squared_upto(self, degree_bound: int) -> CheckOutcome:
        """d(d(m)) = 0 for every normal monomial up to the bound and for the
        basis one-forms carrying those monomials; the search stops at its
        fifth witness, so it covers the whole basis only when it finds
        fewer."""
        witnesses = list(islice(self._d_squared_witnesses(degree_bound), 5))
        return CheckOutcome(not witnesses, witnesses)

    def _d_squared_witnesses(self, degree_bound: int):
        """Each nonzero d^2 up to the bound as a witness, in basis order: of
        the monomial m, then of ``du_i m`` for each i."""
        for expo in exponents_upto(self.nsyms, degree_bound):
            f = self._monomial(expo)
            dd = self.differential(self.d0(f))
            if not dd.is_zero():
                yield f"d^2 of {self.P.render(f)} = {self.render_form(dd)}"
            for i in range(self.N):
                form = self.form((i,), f)
                dd1 = self.differential(self.differential(form))
                if not dd1.is_zero():
                    yield f"d^2 of {self.render_form(form)} = {self.render_form(dd1)}"

    def _monomial(self, expo) -> SkewPoly:
        """The normal monomial with frame exponent ``expo``."""
        m = self.P.ring.nvars
        return self.P.monomial(expo[m:], self.P.ring.monomial(expo[:m]))

    def connectedness_check(self, degree_bound: int) -> CheckOutcome:
        """Exact kernel of d on the span of normal monomials up to the bound;
        connected means dimension one (the constants).

        The basis is every frame exponent up to the bound in lexicographic
        order (:func:`exponents_upto`), and column m of the matrix holds the
        coordinates of d(m), built in one sweep by
        :meth:`_connectedness_rows`.  Every row goes to :func:`kernel_basis`,
        which peels the rows with a single entry (on a polynomial ring, all
        of them) before any elimination."""
        basis = list(exponents_upto(self.nsyms, degree_bound))
        rows = self._connectedness_rows(basis)
        kernel = kernel_basis(list(rows.values()), len(basis), self.P.ring.nparams)
        dim = len(kernel)
        witnesses = []
        for vec in kernel[:4]:
            terms = [self.P.render(self._monomial(basis[c])) for c, v in enumerate(vec) if not v.is_zero()]
            witnesses.append(" + ".join(f"[{t}]" for t in terms))
        return CheckOutcome(dim == 1, witnesses, {"kernel_dimension": dim, "bound": degree_bound})

    def _connectedness_rows(self, basis) -> dict:
        """One sparse row per coordinate ``(i, expo)`` of d, the coefficient
        of ``du_i`` times the monomial with exponent ``expo`` (coefficient
        variables first), mapping each basis column to a nonzero Scalar.

        One sweep over the basis, which must be in lexicographic order,
        with no call of :meth:`d0`: each column's coordinates are read from
        ``_d_memo``.  In that order the
        rest m' of m = s m' (s its first symbol) comes before m, so a column
        not memoized yet costs the one :meth:`_d_step` that
        :meth:`_d_monomial` would make, and enters the memo in the same
        order."""
        memo = self._d_memo
        rows: dict = {}
        for col, expo in enumerate(basis):
            coords = memo.get(expo)
            if coords is None:
                s, rest = _peel(expo)
                coords = memo[expo] = self._d_step(s, rest, memo[rest])
            for key, v in coords.items():
                row = rows.get(key)
                if row is None:
                    rows[key] = {col: v}
                else:
                    row[col] = v
        return rows

    # -- volume -------------------------------------------------------------------------

    def volume(self) -> AlgebraEndo:
        """The volume twist nu, computed by pushing each symbol through the
        top form, so ``a * omega = omega * nu(a)`` holds by construction;
        verified to respect every defining relation and to be undone by its
        inverse, and memoized in ``_volume``."""
        if self._volume is None:
            P = self.P
            full = tuple(range(self.N))
            images = [self.twist_apply_set(full, a) for a in P.frame()]
            inv_images = [self.twist_inv_apply_set(full, a) for a in P.frame()]
            try:
                self._volume = AlgebraEndo(P, images, inverse=AlgebraEndo(P, inv_images, check=False))
            except MapError as exc:
                raise NotAVolumeFormError(f"volume twist rejected: {exc}") from exc
        return self._volume

    # -- the certificate on the frame generators ----------------------------------------------

    def _failure(self, parts: str) -> str | None:
        """The witness of the first part among ``parts`` that fails, or None
        when they all hold.  The parts are letters of ``_PARTS``, each
        decided at most once per calculus, into ``_witnesses``, and a part
        after a failing one is not decided.

        (a) and (b) are the d^2 certificate of :meth:`d_squared_check`, and
        the transport stages add

        (c) every stored twist inverse respects every defining relation
            (:meth:`AlgebraEndo.broken_relation`, by the weights when the
            inverse rescales);
        (d) ``nu_j^-1(nu_j(s)) == s`` and ``nu_j(nu_j^-1(s)) == s`` for every
            j and every frame symbol s, applying the stored maps to the
            twist images.

        Integrability is decided by (a), (c) and (d), and the product rule
        of the bottom divergence and flatness by all four.  A part that
        fails is reported, never sampled: integrability fails with its
        witness, and each divergence stage is an error that names its
        missing prerequisite (:meth:`_require_transport_certificate`).

        Notation.  ``nu_S`` is the twist of ``du_S`` (``a du_S = du_S
        nu_S(a)``, :meth:`twist_apply_set`) and ``nu_S^-1`` the stored
        inverses applied in the opposite order (:meth:`twist_inv_apply_set`);
        ``du_S ^ du_T = w(S, T) du_(S+T)``; for a set S of size k, C is its
        complement and ``e_k = (-1)^((N-1)k)`` the sign of the transport;
        ``xi_C g`` is the functional with value g on ``du_C``.  The
        transport, its inverse and the right action are, for every k and
        every a in A,

            theta(k)(du_S f) = xi_C e_k w(S, C) nu_C(f),
            theta_inv(k)(xi_C g) = du_S nu_C^-1(e_k w(S, C)^-1 g),
            (phi . a)_T = phi_T nu_T(a).

        On ``du_T g`` both sides of each vanish unless T is the set the
        formula names, and then agree: ``du_S f ^ du_C g = w(S, C) du_full
        nu_C(f) g`` and ``a du_T g = du_T nu_T(a) g``.  No stage computes
        them: ``Transport`` in ``tests/conftest.py`` does, as the oracle of
        the tier-1 tests, which pin the formulas against their definitions
        ``theta(k)(w)(w') = e_k pi(w ^ w')`` and ``(phi . a)(w') = phi(a
        w')`` in every degree, the round trips, the expansion identity and
        the product rule on every corpus calculus and every wide document.

        Why it suffices.  The twists are algebra maps (``AlgebraEndo``
        verifies them on every relation) and by (c) so are the stored
        inverses.  On a rescaling inverse (c) is a comparison of weights: a
        rescaling map respects a relation iff every term of the normal form
        has the weight of the relation word.  When the twist rescales too,
        the reciprocal scales meet the same equalities as the twist's, so
        there (c) fails only where (d) fails as well.  ``AlgebraEndo.apply``
        multiplies the images in frame order, which is what any algebra map
        does to a normal monomial.  The two composites of (d) are then
        algebra maps, which (d) makes the identity on the frame and hence on
        all of A: every stored ``nu_j^-1`` is a two-sided inverse of nu_j,
        and ``nu_C^-1``, applied in the opposite order, inverts ``nu_C`` for
        every C.  The scalars ``e_k`` and ``w`` are nonzero, central and
        fixed by every map, so by the formulas above ``theta(k)`` and
        ``theta_inv(k)`` are mutually inverse for every k, whatever the
        coefficients.

        theta is right A-linear, ``theta(k)(w a) = theta(k)(w) . a``,
        because nu_C is multiplicative: ``theta(k)(du_S f a) = xi_C e_k w(S,
        C) nu_C(f) nu_C(a)``, which is ``theta(k)(du_S f) . a``.  Then so is
        theta_inv: ``theta_inv(phi . a) = theta_inv(theta(theta_inv phi) .
        a) = theta_inv(phi) a``.

        Integrability.  The expansion identity over the wedge generators
        for ``du_S f`` sums ``complement(Q) * nu^-1(pi(du_S f ^ du_Q))``
        over the sets Q of size N - |S|, nu the volume twist and
        ``complement(Q)`` the form ``du_S`` times the inverse of the crossing
        factor of ``du_S ^ du_Q``.  Only Q = C contributes (every other Q
        repeats an index of S), and the sum is ``du_S T(f)`` with ``T = nu_S
        o nu^-1 o nu_C``: the factors ``w(S, C)`` and its inverse cancel.
        The stored ``nu^-1`` has the images of ``nu_full^-1``, an algebra
        map by (c), so by (d) it is the inverse of nu; the twists commute by
        (a), so T is the identity for every S and every f.  No step uses
        (b).  The basis counterpart, ``sum_S du_S * pi(complement(S) ^
        du_S0) = du_S0``, holds by construction: the term for S = S0 is
        ``du_S0``, for S != S0 an index of S0 lies in the complement of S
        and the wedge is zero, and the twists fix scalars.

        The product rule.  Let phi have degree one, ``w = theta_inv(N-1)
        (phi)`` and a in A.  Then ``theta_inv(phi . a) = w a``.  The d^2
        certificate makes d a graded derivation of Omega, so ``d(w a) = dw a
        + (-1)^(N-1) w ^ da``.  By right linearity ``theta(N)(dw a) =
        nabla(phi) a``.  On N-forms ``theta(N) = e_N pi``, and ``phi(da) =
        theta(N-1)(w)(da) = e_(N-1) pi(w ^ da)``, so ``nabla(phi . a) =
        nabla(phi) a + (-1)^(N-1) e_N e_(N-1) phi(da)``.  The factor is
        ``(-1)^((N-1)(1 + N + N-1)) = 1``.  The potentials are independent,
        so ``xi_i(ds) != 0`` for some s, where the opposite sign would give
        ``-xi_i(ds)``: the tier-1 product rule on ``xi_i . s`` pins it.

        Flatness.  ``nabla_(N-1) o nabla_(N-2) = theta(N) d theta_inv(N-1)
        theta(N-1) d theta_inv(N-2) = theta(N) d^2 theta_inv(N-2) = 0``.

        Both divergence arguments use d^2 = 0, which is why they need (b)."""
        witnesses = self._witnesses
        for part in parts:
            if part not in witnesses:
                witnesses[part] = getattr(self, _PARTS[part])()
            if witnesses[part] is not None:
                return witnesses[part]
        return None

    def _inverse_breaking_a_relation(self) -> str | None:
        """(c) of :meth:`_failure`, decided by
        :meth:`AlgebraEndo.broken_relation` (by the weights when the stored
        inverse rescales): None when it holds, else the first stored inverse
        and the relation it breaks, as a witness."""
        for dg in self.spec.dgens:
            label = dg.twist.inverse.broken_relation()
            if label is not None:
                return f"the stored inverse of the twist of d({dg.name}) does not respect relation {label}"
        return None

    def _inverse_not_undoing_its_twist(self) -> str | None:
        """(d) of :meth:`_failure`: None when each stored inverse undoes its
        twist on every frame symbol, from both sides, else the first twist
        and symbol where it does not, as a witness.
        The side ``nu^-1(nu(s)) = s`` is what a checked :class:`AlgebraEndo`
        verifies at construction, so it is skipped while the stored inverse
        is the one that check verified."""
        frame = self.P.frame()
        for dg in self.spec.dgens:
            twist = dg.twist
            for s, sym in enumerate(frame):
                if not (
                    (twist._verified_inverse is twist.inverse or twist.inverse.apply(twist.images[s]) == sym)
                    and twist.apply(twist.inverse.images[s]) == sym
                ):
                    return f"the stored inverse of the twist of d({dg.name}) does not undo it on {self.P.render(sym)}"
        return None

    def _require_transport_certificate(self):
        """Raise the missing prerequisite of the divergence stages as a
        :class:`ConfigError`, unless (a) to (d) all hold: integrability's
        when (a), (c) or (d) fails, and otherwise the witness of (b)."""
        if self._failure("acd") is not None:
            raise ConfigError(NO_INTEGRABILITY)
        failure = self._failure("b")
        if failure is not None:
            raise ConfigError(f"divergence transport requested without a d^2 certificate: {failure}")

    # -- the three transport stages ---------------------------------------------------------

    def integrability_check(self) -> CheckOutcome:
        """The expansion identity on every coefficient-carrying form,
        decided by (a), (c) and (d) of :meth:`_failure`; a failed part is
        the witness."""
        failure = self._failure("acd")
        return CheckOutcome(failure is None, [failure] if failure else [])

    def divergence_leibniz_check(self) -> CheckOutcome:
        """The product rule of the bottom divergence, decided by (a) to (d)
        of :meth:`_failure`; an error names the part that is missing."""
        self._require_transport_certificate()
        return CheckOutcome(True)

    def flatness_check(self) -> CheckOutcome:
        """Curvature of the two bottom divergences, decided by (a) to (d) of
        :meth:`_failure`; an error names the part that is missing.  Vacuous
        below dimension two."""
        if self.N < 2:
            return CheckOutcome(True, [], {"vacuous": True})
        self._require_transport_certificate()
        return CheckOutcome(True)

    # -- rendering --------------------------------------------------------------------------

    def _render_basis(self, S) -> str:
        return "".join(f"d({self.spec.dgens[i].name})" for i in S) or "1"

    def render_form(self, form: DiffForm) -> str:
        if form.is_zero():
            return "0"
        parts = []
        for S in sorted(form.terms, key=lambda s: (len(s), s)):
            parts.append(f"{self._render_basis(S)}*({self.P.render(form.terms[S])})")
        return " + ".join(parts)


def build_calculus(P: Presentation, spec: CalculusSpec) -> Calculus:
    """Validate the spec, solve the frame coordinates, and verify that the
    differential is compatible with every defining relation.  Theorem mode
    needs the plain-twist hypotheses (:func:`hypothesis_check`) to hold."""
    if spec.mode == THEOREM_MODE:
        rep = hypothesis_check(P)
        if not rep.theorem_ok:
            raise ConfigError(
                "plain-twist mode requires trivial pair relations and a fully "
                "commuting system: " + "; ".join(rep.failures)
            )
    for dg in spec.dgens:
        if dg.twist.inverse is None:
            raise ConfigError(f"twist for d({dg.name}) has no inverse")
    calc = Calculus(P, spec)
    calc._build_dcoords()
    if spec.mode == THEOREM_MODE:
        m = P.ring.nvars
        covered = {i for i, row in enumerate(calc._dcoords) if row is not None}
        if covered != set(range(m, m + P.n)):
            raise ConfigError("plain-twist mode differentiates exactly the generators")
    else:
        if any(row is None for row in calc._dcoords):
            raise ConfigError("every symbol needs a differential in flat mode")
    calc._check_compatibility()
    return calc


def theorem_spec(P: Presentation) -> CalculusSpec:
    """The plain-twist calculus: one differential per generator, twists the
    coefficientwise lifts of :func:`extend_sigma`, which raises unless the
    lifting hypotheses hold, all wedge constants one."""
    dgens = [DGen(P.names[i], P.gen(i), extend_sigma(P, i)) for i in range(P.n)]
    for dg in dgens:
        if dg.twist.inverse is None:
            raise ConfigError(
                f"sigma of generator {dg.name} carries no inverse; plain-twist "
                "mode needs a bijective extension"
            )
    return CalculusSpec(dgens=dgens, wedge_signs={}, mode=THEOREM_MODE)
