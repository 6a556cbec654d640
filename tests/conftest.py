"""Shared fixtures: hand-built presentations used across the test suite,
seeded random elements, seven oracles (exact univariate division, the sampled
twisted product rule for the lifted derivations, d of a word position by
position, d on both sides of every defining relation, the relations an
extension map breaks, found by multiplying, the scales of a rescaling map
read from full frame coordinates, and the transport of forms to integral
forms with its divergences and sampled stages), composition and the
identity of extension endomorphisms, the wide documents, the grid of affine
Ore members, and the texts of the sweep over all three."""

from __future__ import annotations

import random

import pytest

from itertools import combinations

from spbw.calculus import CheckOutcome, DiffForm
from spbw.coefficients import CoeffEndo, CoeffPoly, CoeffRing, CoeffSigmaDerivation, apply_sder
from spbw.core import Presentation, SkewPoly
from spbw.corpus import CORPUS_NAMES, corpus_source
from spbw.errors import ConfigError
from spbw.extended import AlgebraEndo
from spbw.lincomb import LinComb, add_terms
from spbw.ore import ore_document


def random_skew(P: Presentation, rng, degree: int = 4, max_terms: int = 3) -> SkewPoly:
    """Random normal-form element: a few terms of bounded total degree with
    small integer scalars, sprinkled with parameter factors when available."""
    acc: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        total = rng.randint(0, degree)
        tdeg = rng.randint(0, total) if P.ring.nvars else 0
        xdeg = total - tdeg
        beta = random_expo(rng, P.ring.nvars, tdeg)
        alpha = random_expo(rng, P.n, xdeg)
        s = P.ring.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
        if P.ring.nparams:
            j = rng.randrange(P.ring.nparams)
            if rng.randint(0, 1):
                s = s * P.ring.param(P.ring.params[j])
        add_terms(acc, P.monomial(alpha, P.ring.monomial(beta, s)).terms)
    return SkewPoly(acc, P.n)


def random_expo(rng, nvars: int, total: int) -> tuple:
    e = [0] * nvars
    if nvars:
        for _ in range(total):
            e[rng.randrange(nvars)] += 1
    return tuple(e)


def commuting_relation(ring, n, i, j):
    return ((ring.one(), (i, j)),)


def identity_endo(ring):
    images = tuple(ring.var(j) for j in range(ring.nvars))
    return CoeffEndo(images, images)


def trivial_maps(ring, n):
    sig = identity_endo(ring)
    zero = CoeffSigmaDerivation(tuple(ring.zero() for _ in range(ring.nvars)), sig)
    return tuple(sig for _ in range(n)), tuple(zero for _ in range(n))


def is_identity(endo):
    """Whether an algebra endomorphism sends every frame symbol to itself."""
    return endo.images == endo.P.frame()


def compose(outer, inner):
    """``outer`` after ``inner``, unchecked; carries the inverses composed
    in the opposite order when both maps have one."""
    inv = None
    if outer.inverse is not None and inner.inverse is not None:
        inv = AlgebraEndo(outer.P, [inner.inverse.apply(img) for img in outer.inverse.images], check=False)
    return AlgebraEndo(outer.P, [outer.apply(img) for img in inner.images], inverse=inv, check=False)


def algebra_identity(P):
    """The identity of the extension, with itself as its inverse."""
    frame = P.frame()
    return AlgebraEndo(P, frame, inverse=AlgebraEndo(P, frame, check=False), check=False)


def product_chain(P, endo, tvec, e):
    """The image of ``t^tvec x^e`` under ``endo`` as the product of the
    symbol images, one factor at a time in frame order."""
    image = P.one()
    for s, k in enumerate(tvec + e):
        for _ in range(k):
            image = P.multiply(image, endo.images[s])
    return image


def relation_broken_by_products(endo):
    """The label of the first defining relation that ``endo`` does not
    respect, or None: the product of the images of each relation word is
    compared with the image of its normal form, taken term by term through
    :func:`product_chain`.  It shares no code with the map's own check."""
    P = endo.P
    for label, (a, b), normal in P.defining_relations():
        acc: dict = {}
        for e, c in normal.terms.items():
            for tvec, s in c.terms.items():
                add_terms(acc, product_chain(P, endo, tvec, e).scale(s).terms)
        if P.multiply(endo.images[a], endo.images[b]) != SkewPoly(acc, P.n):
            return label
    return None


def rescaling_by_frame_coordinates(P, images):
    """``c_s`` for every frame symbol s when each image is a nonzero scalar
    ``c_s`` times s, else None: read from the full
    :meth:`Presentation.frame_coordinates` row of every image, a constant
    and one scalar per frame symbol, so it shares no code with the map's
    own reading of the image terms."""
    scales = []
    for s, img in enumerate(images):
        coords = P.frame_coordinates(img)
        if coords is None:
            return None
        constant, row = coords
        c = row[s]
        if not constant.is_zero() or c.is_zero() or any(not b.is_zero() for b in row[:s] + row[s + 1:]):
            return None
        scales.append(c)
    return tuple(scales)


def word_element(P, word):
    """The element of a word of frame symbols, normalized from its atoms."""
    m = P.ring.nvars
    return P.normalize([(1, [s - m if s >= m else P.ring.var(s) for s in word])])


def d_word_by_positions(calc, word, weight):
    """``weight * d(word)`` by the product rule position by position: the
    prefix and suffix of each symbol are normalized from their atoms, and
    the prefix is pushed through the twist of each du_i it meets.  It
    shares no code with the calculus's own differential."""
    P = calc.P
    acc: dict = {}
    for p, sym in enumerate(word):
        row = calc._dcoords[sym]
        if row is None:
            continue
        pre, post = word_element(P, word[:p]), word_element(P, word[p + 1:])
        for i, coeff in enumerate(row):
            if not coeff.is_zero():
                moved = P.multiply(calc.spec.dgens[i].twist.apply(pre), post).scale(coeff * weight)
                add_terms(acc, calc.form((i,), moved).terms)
    return DiffForm(acc)


def d_respects_relations(calc):
    """Whether d of the two sides of every defining relation agrees: the
    word side by positions, the normal form by ``d0``."""
    P = calc.P
    return all(
        d_word_by_positions(calc, word, P.ring.sone()) == calc.d0(normal) for _, word, normal in P.defining_relations()
    )


def right_multiply(calc, form, a):
    """``form * a``: every right coefficient of the form times a."""
    return calc._sum(calc.form(S, calc.P.multiply(f, a)) for S, f in form.terms.items())


# -- the transport oracle ----------------------------------------------------------


class IntegralForm(LinComb):
    """Right-linear functional on forms of one degree, stored by its values
    on the wedge basis: ``phi(du_S * f) = terms[S] * f``."""

    __slots__ = ("degree",)

    def __init__(self, degree: int, terms: dict):
        self.degree = degree
        self.terms = terms

    def _make(self, terms) -> "IntegralForm":
        return IntegralForm(self.degree, terms)

    def __eq__(self, other) -> bool:
        if type(other) is not IntegralForm:
            return NotImplemented
        return self.degree == other.degree and LinComb.__eq__(self, other)


class Transport:
    """The transport of forms to integral forms over one calculus, by the
    formulas in the docstring of ``Calculus._failure``: theta, its
    inverse, the right action of A, the divergences, and the sampled checks
    of integrability, the product rule and flatness.  The certificate
    decides those stages without computing any of this; here it is the
    oracle.
    ``nabla`` keeps the divergence of every basis functional it transports
    in ``nabla_memo``."""

    def __init__(self, calc):
        self.calc = calc
        self.nabla_memo: dict = {}  # (k, S, tvec, e) -> divergence of xi_S * t^tvec x^e

    def pi_omega(self, form: DiffForm) -> SkewPoly:
        return form.terms.get(tuple(range(self.calc.N)), self.calc.P.zero())

    def complement(self, S) -> tuple:
        return tuple(i for i in range(self.calc.N) if i not in S)

    def expands(self, S0, f: SkewPoly) -> bool:
        """The expansion identity over the wedge generators for ``du_S0 *
        f``, through the inverse volume twist: summing ``complement(Q) *
        nu^-1(pi_omega(du_S0 f ^ du_Q))`` over the sets Q of size N - |S0|
        gives ``du_S0 f`` back.  Only the complement Q of S0 contributes,
        since every other Q of that size meets S0 and the wedge repeats an
        index; its complement form is ``du_S0`` times the inverse of the
        crossing factor of ``du_S0 ^ du_Q``."""
        calc = self.calc
        Q = self.complement(S0)
        _, factor = calc._basis_product(S0, Q)
        target = calc.form(S0, f)
        top = self.pi_omega(calc.wedge(target, calc._unit_form(Q)))
        complement = calc.form(S0, calc.P.const(factor.inverse()))
        return calc.left_multiply(calc.volume().inverse.apply(top), complement) == target

    def integral_basis(self, degree: int) -> list:
        return [self.dual_basis(S) for S in combinations(range(self.calc.N), degree)]

    def dual_basis(self, S) -> IntegralForm:
        return IntegralForm(len(S), {tuple(S): self.calc.P.one()})

    def evaluate(self, phi: IntegralForm, form: DiffForm) -> SkewPoly:
        P = self.calc.P
        acc: dict = {}
        for S, f in form.terms.items():
            if len(S) != phi.degree:
                raise ConfigError("form degree does not match the functional")
            v = phi.terms.get(S)
            if v is not None:
                add_terms(acc, P.multiply(v, f).terms)
        return SkewPoly(acc, P.n)

    def right_action(self, phi: IntegralForm, a: SkewPoly) -> IntegralForm:
        """``phi . a`` for a in A, ``(phi . a)(w) = phi(a w)``: since ``a du_T
        = du_T nu_T(a)``, ``(phi . a)_T = phi_T nu_T(a)``, keys in increasing
        order."""
        values = {}
        for T in sorted(phi.terms):
            value = self.calc.P.multiply(phi.terms[T], self.calc.twist_apply_set(T, a))
            if not value.is_zero():
                values[T] = value
        return IntegralForm(phi.degree, values)

    def theta(self, k: int, form: DiffForm) -> IntegralForm:
        """Transport a k-form to a functional of degree N-k, ``theta(k)(du_S
        f) = xi_C e_k w(S, C) nu_C(f)``, keys in increasing order; the
        alternating sign keeps the transported divergence an honest Leibniz
        map."""
        calc = self.calc
        if any(len(S) != k for S in form.terms):
            raise ConfigError("form degree does not match the transport")
        values = {}
        for C, S in sorted((self.complement(S), S) for S in form.terms):
            value = calc.twist_apply_set(C, form.terms[S]).scale(self.transport_scale(S, C))
            if not value.is_zero():
                values[C] = value
        return IntegralForm(calc.N - k, values)

    def theta_inv(self, k: int, phi: IntegralForm) -> DiffForm:
        """Explicit inverse of the transport on the wedge basis:
        ``theta_inv(k)(xi_C g) = du_S nu_C^-1(e_k w(S, C)^-1 g)``."""
        calc = self.calc
        if phi.degree != calc.N - k:
            raise ConfigError("functional degree does not match the transport")
        acc: dict = {}
        # each set S of size k whose complement phi has a value on, in
        # increasing order
        for S, comp in sorted((self.complement(C), C) for C in phi.terms):
            scale = self.transport_scale(S, comp).inverse()
            coeff = calc.twist_inv_apply_set(comp, phi.terms[comp].scale(scale))
            add_terms(acc, calc.form(S, coeff).terms)
        return DiffForm(acc)

    def transport_scale(self, S, C):
        """``e_k w(S, C)``, k the size of S: the scale of :meth:`theta`,
        which :meth:`theta_inv` inverts."""
        _, w = self.calc._basis_product(S, C)
        return -w if ((self.calc.N - 1) * len(S)) % 2 else w

    def nabla(self, k: int, phi: IntegralForm) -> IntegralForm:
        """The divergence from functionals of degree N-k to degree N-k-1,
        ``theta(k+1, d(theta_inv(k, .)))``: every factor is linear over the
        base field, so a functional's image is the scalar-weighted sum of
        the images of its basis functionals ``xi_S * t^beta x^alpha``, each
        transported once and kept in ``nabla_memo``."""
        if phi.degree != self.calc.N - k:
            raise ConfigError("functional degree does not match the transport")
        acc: dict = {}
        for S, v in phi.terms.items():
            for e, c in v.terms.items():
                for tvec, s in c.terms.items():
                    add_terms(acc, self.nabla_basis(k, S, tvec, e).scale(s).terms)
        return IntegralForm(self.calc.N - k - 1, acc)

    def nabla_basis(self, k: int, S, tvec, e) -> IntegralForm:
        """The transported divergence of ``xi_S * t^tvec x^e``, memoized."""
        key = (k, S, tvec, e)
        image = self.nabla_memo.get(key)
        if image is None:
            P = self.calc.P
            basis = IntegralForm(len(S), {S: P.monomial(e, P.ring.monomial(tvec))})
            image = self.theta(k + 1, self.calc.differential(self.theta_inv(k, basis)))
            self.nabla_memo[key] = image
        return image

    def bottom_divergence(self, phi: IntegralForm) -> SkewPoly:
        """The bottom divergence, from degree-one functionals to A."""
        return self.nabla(self.calc.N - 1, phi).terms.get((), self.calc.P.zero())

    def product_rule_holds(self, phi: IntegralForm, a: SkewPoly, nabla_phi: SkewPoly, da: DiffForm) -> bool:
        """``nabla(phi . a) == nabla(phi) a + phi(d a)``, nabla the bottom
        divergence, given ``nabla_phi = nabla(phi)`` and ``da = d0(a)``."""
        lhs = self.bottom_divergence(self.right_action(phi, a))
        return lhs == self.calc.P.multiply(nabla_phi, a) + self.evaluate(phi, da)

    def render_functional(self, phi: IntegralForm) -> str:
        """phi's value on every wedge basis form of its degree, zeros
        included, so that a sampled functional can be rebuilt from it."""
        calc = self.calc
        return ", ".join(
            f"phi({calc._render_basis(S)}) = {calc.P.render(phi.terms.get(S, calc.P.zero()))}"
            for S in combinations(range(calc.N), phi.degree)
        )

    def integrability_sampled(self, sample_count: int, degree_bound: int, rng) -> CheckOutcome:
        """The expansion identity on ``sample_count`` sampled forms per
        degree, stopping at the first failure in each degree."""
        calc = self.calc
        calc.volume()  # a rejected volume twist errors before any draw
        witnesses = []
        for k in range(1, calc.N):
            gen_sets = list(combinations(range(calc.N), k))
            for _ in range(sample_count):
                S0 = gen_sets[rng.randrange(len(gen_sets))]
                f = random_skew(calc.P, rng, degree_bound)
                if not self.expands(S0, f):
                    witnesses.append(f"coefficient expansion fails for du{list(S0)} * ({calc.P.render(f)})")
                    break
        return CheckOutcome(not witnesses, witnesses[:5])

    def divergence_leibniz_sampled(self, samples: int, degree: int, rng) -> CheckOutcome:
        """The product rule on ``samples`` sampled pairs, stopping at the
        first failure."""
        calc = self.calc
        witnesses = []
        for _ in range(samples):
            values = {}
            for i in range(calc.N):
                f = random_skew(calc.P, rng, degree, max_terms=2)
                if not f.is_zero():
                    values[(i,)] = f
            phi = IntegralForm(1, values)
            a = random_skew(calc.P, rng, degree, max_terms=2)
            if not self.product_rule_holds(phi, a, self.bottom_divergence(phi), calc.d0(a)):
                witnesses.append(
                    f"product rule fails at a = {calc.P.render(a)} with {self.render_functional(phi)}"
                )
                break
        return CheckOutcome(not witnesses, witnesses)

    def flatness_on_basis(self) -> CheckOutcome:
        """The curvature on the unit dual basis of the two-forms.  It cannot
        fail: ``theta_inv`` gives each unit functional a scalar coefficient,
        which d kills."""
        witnesses = []
        for phi in self.integral_basis(2):
            out = self.bottom_divergence(self.nabla(self.calc.N - 2, phi))
            if not out.is_zero():
                witnesses.append(f"curvature nonzero on du{list(next(iter(phi.terms)))}")
        return CheckOutcome(not witnesses, witnesses)


@pytest.fixture
def weyl():
    """Two generators over the rationals with x2 x1 = x1 x2 - 1."""
    ring = CoeffRing()
    sigma, delta = trivial_maps(ring, 2)
    rel = ((ring.one(), (0, 1)), (ring.const(-1), ()))
    return Presentation(ring, ("x1", "x2"), sigma, delta, {(0, 1): rel})


@pytest.fixture
def poly2():
    ring = CoeffRing()
    sigma, delta = trivial_maps(ring, 2)
    return Presentation(ring, ("x1", "x2"), sigma, delta, {(0, 1): commuting_relation(ring, 2, 0, 1)})


@pytest.fixture
def qplane():
    """Quantum plane: x2 x1 = q x1 x2 over the field extended by q."""
    ring = CoeffRing(params=("q",))
    sigma, delta = trivial_maps(ring, 2)
    rel = ((ring.const(ring.param("q")), (0, 1)),)
    return Presentation(ring, ("x1", "x2"), sigma, delta, {(0, 1): rel})


@pytest.fixture
def jordan():
    """Jordan plane as a one-generator extension of F[t]: x t = t x + t^2."""
    ring = CoeffRing(coeff_vars=("t",))
    sigma = identity_endo(ring)
    delta = CoeffSigmaDerivation((ring.var(0) * ring.var(0),), sigma)
    return Presentation(ring, ("x",), (sigma,), (delta,), {})


@pytest.fixture
def weyl_ore():
    """Weyl algebra as a one-generator extension of F[t]: x t = t x + 1."""
    ring = CoeffRing(coeff_vars=("t",))
    sigma = identity_endo(ring)
    delta = CoeffSigmaDerivation((ring.one(),), sigma)
    return Presentation(ring, ("x",), (sigma,), (delta,), {})


@pytest.fixture
def qplane_ore():
    """Quantum plane as a one-generator extension of F[t]: x t = q t x."""
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    q = ring.param("q")
    sigma = CoeffEndo((ring.var(0).scale(q),), (ring.var(0).scale(q.inverse()),))
    delta = CoeffSigmaDerivation((ring.zero(),), sigma)
    return Presentation(ring, ("x",), (sigma,), (delta,), {})


@pytest.fixture
def rng():
    return random.Random(1729)


def divmod_univariate(f: CoeffPoly, g: CoeffPoly) -> tuple:
    """Exact long division of univariate polynomials; returns (quot, rem)."""
    assert f.nvars == 1 and g.nvars == 1 and not g.is_zero()
    quot = CoeffPoly({}, 1, f.nparams)
    rem = f
    dg = g.total_degree()
    lead_g = g.terms[(dg,)]
    while not rem.is_zero() and rem.total_degree() >= dg:
        dr = rem.total_degree()
        mono = CoeffPoly({(dr - dg,): rem.terms[(dr,)] / lead_g}, 1, f.nparams)
        quot = quot + mono
        rem = rem - mono * g
    return quot, rem


def lift_delta(P, i):
    """The coefficientwise lift of delta_i to the extension, as a function:
    ``sum r_a x^a -> sum delta_i(r_a) x^a``, so it kills generator
    monomials."""

    def apply(f):
        images = ((e, apply_sder(P.delta[i], c)) for e, c in f.terms.items())
        return SkewPoly({e: img for e, img in images if not img.is_zero()}, P.n)

    return apply


def twisted_leibniz_witness(P, sigma, delta, samples, degree, rng):
    """The first of ``samples`` random pairs (p, s), rendered, with
    ``delta(p s) != sigma(p) delta(s) + delta(p) s``, or None when every
    pair satisfies the twisted product rule.  ``sigma`` and ``delta`` are
    functions on elements of P."""
    for _ in range(samples):
        p = random_skew(P, rng, degree)
        s = random_skew(P, rng, degree)
        if delta(P.multiply(p, s)) != P.multiply(sigma(p), delta(s)) + P.multiply(delta(p), s):
            return P.render(p), P.render(s)
    return None


# -- the wide documents ------------------------------------------------------------


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _gens(n):
    return "gens " + " ".join(f"x{i}" for i in range(1, n + 1)) + "\n"


def _poly_doc(n):
    rels = "".join(f"rel x{j} x{i} = x{i} x{j}\n" for i, j in _pairs(n))
    return f"name poly{n}\n{_gens(n)}{rels}calculus mode=theorem\n"


def _weyl2_doc():
    """Two commuting Weyl pairs (x1, x2) and (x3, x4)."""
    rels = "".join(
        f"rel x{j} x{i} = x{i} x{j}{' - 1' if (i, j) in ((1, 2), (3, 4)) else ''}\n" for i, j in _pairs(4)
    )
    return f"name weyl2\n{_gens(4)}{rels}calculus mode=theorem\n"


def _qaffine_doc(n):
    """Quantum affine n-space with the weighted twists and wedge constants of
    ``qaffine3``, one parameter per pair."""
    pairs = _pairs(n)
    lines = [f"name qaffine{n}", "params " + " ".join(f"q{i}{j}" for i, j in pairs), _gens(n).strip()]
    lines += [f"rel x{j} x{i} = q{i}{j} * x{i} x{j}" for i, j in pairs]
    lines += ["calculus mode=flat", "dgens " + " ".join(f"x{i}" for i in range(1, n + 1))]
    for k in range(1, n + 1):
        images = [f"x{m} -> q{k}{m}*x{m}" if k < m else f"x{m} -> q{m}{k}^-1*x{m}"
                  for m in range(1, n + 1) if m != k]
        lines.append(f"twist x{k}: " + ", ".join(images))
    lines += [f"wedge x{i} x{j} = q{i}{j}" for i, j in pairs]
    return "\n".join(lines) + "\n"


# the 4- and 5-symbol documents of the benchmark's `wide` workload, written inline
WIDE_DOCS = {"poly4": _poly_doc(4), "weyl2": _weyl2_doc(), "qaffine4": _qaffine_doc(4), "poly5": _poly_doc(5)}


def _un2_product_doc(k):
    """k commuting copies of ``un2``: copy c has ``x{2c} x{2c-1} = x{2c-1}
    x{2c} + x{2c-1}`` and the shifted twist ``x{2c-1}: x{2c} -> x{2c} + 1``,
    and every other pair commutes."""
    n = 2 * k
    tailed = [(c, c + 1) for c in range(1, n, 2)]
    rels = "".join(
        f"rel x{j} x{i} = x{i} x{j}{f' + x{i}' if (i, j) in tailed else ''}\n" for i, j in _pairs(n)
    )
    twists = "".join(f"twist x{i}: x{j} -> x{j} + 1\n" for i, j in tailed)
    dgens = " ".join(f"x{i}" for i in range(1, n + 1))
    return f"name un2x{k}\n{_gens(n)}{rels}calculus mode=flat\ndgens {dgens}\n{twists}"


# products of 2 and 3 copies of un2: 4 and 6 symbols whose twists shift
UN2_PRODUCT_DOCS = {"un2x2": _un2_product_doc(2), "un2x3": _un2_product_doc(3)}


# -- the affine Ore grid ----------------------------------------------------------

GRID_Q = ("1", "2", "-1", "q")
GRID_R = (0, 1, 3)
GRID_P = ("0", "1", "5", "t", "t+1", "2t-3", "t^2", "t^2+t")


def grid_member(ring, qs, r, ps):
    """``(q, r, p)`` of the grid member labelled ``(qs, r, ps)`` over the
    ring with parameter q and coefficient variable t."""
    t, one = ring.var(0), ring.one()
    q = ring.param("q") if qs == "q" else ring.scalar(int(qs))
    p = {
        "0": ring.zero(), "1": one, "5": ring.const(5), "t": t, "t+1": t + one,
        "2t-3": t.scale(ring.scalar(2)) - ring.const(3), "t^2": t * t, "t^2+t": t * t + t,
    }[ps]
    return q, ring.scalar(r), p


def grid():
    """The 96 labels of the affine Ore grid x t = (q t + r) x + delta_p(t)."""
    return [(qs, r, ps) for qs in GRID_Q for r in GRID_R for ps in GRID_P]


def without_wedge(source):
    """A document text with its wedge lines removed."""
    return "".join(line for line in source.splitlines(keepends=True) if not line.startswith("wedge"))


def sweep_texts():
    """``(label, text)`` for each text of the sweep, in a fixed order: every
    corpus entry but ``broken``, every ``WIDE_DOCS`` document and every Ore
    grid member, each followed by its text without wedge lines when that
    differs.  208 texts."""
    ring = CoeffRing(params=("q",), coeff_vars=("t",))
    sources = [(f"corpus:{name}", corpus_source(name)) for name in CORPUS_NAMES if name != "broken"]
    sources += [(f"wide:{name}", text) for name, text in WIDE_DOCS.items()]
    sources += [
        (f"grid:q={qs},r={r},p={ps}", ore_document(ring, *grid_member(ring, qs, r, ps))) for qs, r, ps in grid()
    ]
    out = []
    for label, text in sources:
        out.append((label, text))
        if without_wedge(text) != text:
            out.append((f"{label} -wedge", without_wedge(text)))
    return out
