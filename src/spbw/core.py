"""PBW normal-form arithmetic for the skew extension itself.

Elements are stored as maps from ordered generator monomials (exponent
tuples) to left coefficients in the coefficient ring.  Two reduction engines
live here:

* a structured path (:meth:`Presentation.multiply`), which keeps every term
  as ``coefficient * word`` and merges equal words, so it runs in time
  polynomial in the degree.  It takes a whole run of one generator per step
  where it can.  Coefficients migrate left one run ``x_i^m`` at a time, by
  the binomial form of ``x_i^m c`` when sigma_i and delta_i commute, with
  pending coefficients merged per subword.  Out-of-order generator pairs
  are resolved with the pending words taken in decreasing (length,
  inversions) order, which every rewrite lowers, so each word is rewritten
  once, with its coefficient complete.  A pair that only skew-commutes by a
  constant (``x_j x_i = d x_i x_j``, as in the quantum plane and quantum
  affine spaces) moves a whole block ``x_j^a x_i^b`` in one rewrite, with
  the factor ``d^(ab)``, and a pair with constant tails (``x_j x_i = c x_i
  x_j + r0 + r1 x_i``, as in the Weyl algebra and ``un2``) moves one x_j
  past a whole run ``x_i^b``.  A run step sums a word's contributions in
  another order than single steps, and scalars keep their fractions
  unreduced, so runs are taken only where no scalar has a parameter in its
  denominator (pure blocks also where every pair is pure); and
* a small-step oracle (:meth:`Presentation.normalize_atoms`) that rewrites a
  raw word of generator/coefficient atoms one redex at a time under a
  selectable strategy.  The diamond check compares the two maximal
  strategies of the oracle.

Constant path.  Most coefficients that reach :meth:`Presentation.multiply`
are scalars, which every sigma fixes and every delta kills.  So a term of
the right factor with a constant coefficient goes straight to the memoized
monomial product, scaled by the product of the two coefficients, without
walking the left word; a zero factor gives zero before any loop, and
scaling by the literal unit returns the product unchanged.  Each of these
returns the terms the general loop would.  Inside
:meth:`Presentation._mul_monomials` each rewrite still walks its
coefficients past the left word, once per block.

The presentation states its defining relations once.  The right side of
each pair relation is given and stored as its tails
(``Presentation.tails``), the ``(coefficient, word)`` pairs
``(d, (i, j))``, ``(r0, ())`` and ``(rk, (k,))`` with the zero ones left
out; both reduction engines and :meth:`Presentation.relation_rhs` read
them.  Every defining relation of the algebra, including
``x_i t_j = sigma_i(t_j) x_i + delta_i(t_j)`` and the commuting
coefficient variables, is listed by
:meth:`Presentation.defining_relations`, built once per presentation, which
the twist and differential compatibility checks walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from math import comb

from .coefficients import (
    CoeffPoly,
    CoeffRing,
    _polynomial,
    apply_endo,
    apply_sder,
    commutation_audit,
)
from .errors import HypothesisError
from .lincomb import LinComb, add_term, add_terms, render_sum, sum_terms


class SkewPoly(LinComb):
    """Element in PBW normal form: finite sum of left coefficients times
    ordered generator monomials.  No stored coefficient is zero."""

    __slots__ = ("ngens",)

    def __init__(self, terms: dict, ngens: int):
        self.terms = terms
        self.ngens = ngens

    def _make(self, terms: dict) -> "SkewPoly":
        return SkewPoly(terms, self.ngens)

    def scale_left(self, c: CoeffPoly) -> "SkewPoly":
        """Left multiplication by a coefficient (coefficients commute in R);
        the literal unit returns the element unchanged."""
        if c.is_zero():
            return self._make({})
        if c.is_unit():
            return self
        out = {}
        for e, r in self.terms.items():
            p = c * r
            if not p.is_zero():
                out[e] = p
        return self._make(out)

    def is_unit(self) -> bool:
        """Whether this is the literal unit element: one term, at the zero
        exponent, whose coefficient is the literal unit scalar."""
        if len(self.terms) != 1:
            return False
        ((e, c),) = self.terms.items()
        return not any(e) and c.is_unit()

    def __repr__(self):
        body = ", ".join(
            f"{e}: ..." for e in sorted(self.terms)
        )
        return f"SkewPoly({{{body}}})"


def tail_name(word: tuple) -> str:
    """The name of a relation tail by its word: ``d`` for the ordered pair,
    ``r0`` for the constant and ``rk`` for the linear tail on x_k."""
    if len(word) == 2:
        return "d"
    return f"r{word[0] + 1}" if word else "r0"


@dataclass
class PbwAudit:
    ok: bool
    left: "SkewPoly | None" = None
    right: "SkewPoly | None" = None
    rendered: str = ""


class Presentation:
    """Full data of a skew PBW extension: coefficient ring, one
    (endomorphism, twisted derivation) pair per generator, and the pair
    relations.  ``tails`` maps each pair ``(i, j)`` to the right side of its
    relation as ``(coefficient, word)`` pairs: the ordered pair ``(i, j)``
    first, then the constant ``()``, then each linear tail ``(k,)`` in
    generator order, with zero coefficients left out.  The constructor takes
    them in that form and only checks them; their order fixes the order of
    summation, and so the unreduced fractions.

    The defining data is not changed after construction and no operation
    changes a value it is given or has returned, but monomial products
    (``_mono_cache``), the frame (``_frame``), :meth:`defining_relations`
    (``_relations``), :meth:`commutation_failures` (``_audit``),
    :func:`spbw.extended.hypothesis_check` (``_hypotheses``) and the run
    tables (``_runs``, ``_passing``) are memoized, as are the powers of the
    coefficient maps, so a presentation is not safe to share between threads
    without a lock."""

    def __init__(self, ring: CoeffRing, names, sigma, delta, tails):
        self.ring = ring
        self.names = tuple(names)
        self.n = len(self.names)
        self.sigma = tuple(sigma)
        self.delta = tuple(delta)
        self.tails = dict(tails)
        for (i, j), pair_tails in self.tails.items():
            if not (0 <= i < j < self.n):
                raise ValueError(f"relation indices out of order: {(i, j)}")
            if not pair_tails or pair_tails[0][1] != (i, j):
                raise ValueError(f"relation ({self.names[j]}, {self.names[i]}) does not start with its ordered pair")
            if any(c.is_zero() for c, _ in pair_tails):
                raise ValueError(f"relation ({self.names[j]}, {self.names[i]}) has a zero coefficient")
            later = [w for _, w in pair_tails[1:]]
            if later != [w for w in [()] + [(k,) for k in range(self.n)] if w in later]:
                raise ValueError(
                    f"relation ({self.names[j]}, {self.names[i]}) has a tail that is not a constant or a "
                    f"linear word in increasing order: {later}"
                )
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (i, j) not in self.tails:
                    raise ValueError(f"missing relation for pair ({self.names[j]}, {self.names[i]})")
        # Which rewrites take a whole run at once, decided once per
        # presentation.  A run step sums a word's contributions in another
        # order; every unreduced fraction stays as single steps leave it only
        # when no word gets two (every pair is pure) or when no scalar has a
        # parameter in its denominator.  Otherwise single steps stay.
        #   _skew: the constant d of each pure pair x_j x_i = d x_i x_j, whose
        #     blocks x_j^a x_i^b _mul_monomials moves in one step;
        #   _passing: for each pair x_j x_i = c x_i x_j + r0 + r1 x_i with
        #     constant c, r0 and r1 (r0 or r1 may be absent), the tails of
        #     x_j x_i^b by b, which _passing_tails fills;
        #   _runs: the generators whose runs push_coeff_left passes whole,
        #     made on first use by _run_letters.
        self._skew = {pair: t[0][0] for pair, t in self.tails.items() if len(t) == 1 and t[0][0].is_constant()}
        self._passing = {
            (i, j): {1: t} for (i, j), t in self.tails.items()
            if len(t) > 1 and all(c.is_constant() and w in ((i, j), (), (i,)) for c, w in t)
        }
        if len(self._skew) < len(self.tails) and not self._polynomial_scalars():
            self._skew, self._passing = {}, {}
        self._runs = None
        self._audit = None  # commutation_failures(), made on first use
        self._mono_cache: dict = {}
        self._relations = None  # defining_relations(), built on first use
        self._frame = None  # frame(), built on first use
        self._hypotheses = None  # extended.hypothesis_check(self), made on first use

    def _polynomial_scalars(self) -> bool:
        """Whether every scalar of the tails, of the sigma images and of the
        delta images (and their twists) has a constant denominator."""
        polys = [c for tails in self.tails.values() for c, _ in tails]
        for m in self.sigma + self.delta + tuple(delta.twist for delta in self.delta):
            polys.extend(m.images)
        return all(_polynomial(p) for p in polys)

    def commutation_failures(self) -> list:
        """:func:`~spbw.coefficients.commutation_audit` of the sigma and
        delta maps, made on the first call and kept: the one audit of the
        presentation, which the run walk, :meth:`power_commute_closed` and
        :func:`spbw.extended.hypothesis_check` read.  Must not be changed."""
        if self._audit is None:
            self._audit = commutation_audit(self.sigma, self.delta)
        return self._audit

    def _run_letters(self) -> frozenset:
        """The generators whose whole runs :meth:`push_coeff_left` passes:
        sigma_i and delta_i commute, and no scalar of the presentation has a
        parameter in its denominator.  Decided on the first call."""
        if self._runs is None:
            self._runs = frozenset()
            if self._polynomial_scalars():
                failing = {key for label, key in self.commutation_failures() if label == "sigma-delta"}
                self._runs = frozenset(range(self.n)) - failing
        return self._runs

    # -- embeddings -------------------------------------------------------

    def zero(self) -> SkewPoly:
        return SkewPoly({}, self.n)

    def one(self) -> SkewPoly:
        return self.from_coeff(self.ring.one())

    def from_coeff(self, c: CoeffPoly) -> SkewPoly:
        if c.is_zero():
            return self.zero()
        return SkewPoly({(0,) * self.n: c}, self.n)

    def const(self, value) -> SkewPoly:
        return self.from_coeff(self.ring.const(value))

    def symbol(self, k: int) -> SkewPoly:
        """Symbol k of the frame as an element: the coefficient variables
        come first, then the generators."""
        m = self.ring.nvars
        return self.from_coeff(self.ring.var(k)) if k < m else self.gen(k - m)

    def symbol_name(self, k: int) -> str:
        m = self.ring.nvars
        return self.ring.coeff_vars[k] if k < m else self.names[k - m]

    def frame(self) -> tuple:
        """Every symbol of the frame, in order: the images of the identity.
        Built on the first call and kept, like :meth:`defining_relations`;
        must not be changed."""
        if self._frame is None:
            self._frame = tuple(self.symbol(k) for k in range(self.ring.nvars + self.n))
        return self._frame

    def frame_coordinates(self, f: SkewPoly):
        """``(constant, row)`` with ``f = constant + sum_k row[k] *
        symbol(k)``, or None when f has a term of degree two or more in the
        frame."""
        m = self.ring.nvars
        constant = self.ring.szero()
        row = [constant] * (m + self.n)
        for e, c in f.terms.items():
            for tvec, s in c.terms.items():
                degree = sum(e) + sum(tvec)
                if degree > 1:
                    return None
                if degree == 0:
                    constant = s
                else:
                    row[tvec.index(1) if any(tvec) else m + e.index(1)] = s
        return constant, row

    def gen(self, i: int) -> SkewPoly:
        e = [0] * self.n
        e[i] = 1
        return SkewPoly({tuple(e): self.ring.one()}, self.n)

    def monomial(self, expo, coeff=None) -> SkewPoly:
        c = self.ring.one() if coeff is None else coeff
        if c.is_zero():
            return self.zero()
        return SkewPoly({tuple(expo): c}, self.n)

    def relation_rhs(self, i: int, j: int) -> SkewPoly:
        """Normal form of x_j x_i, straight from the stored tails."""
        terms = sum_terms(self.monomial(_pack(w, self.n), c) for c, w in self.tails[(i, j)])
        return SkewPoly(terms, self.n)

    def defining_relations(self) -> tuple:
        """``(label, word, normal form)`` for every defining relation.  The
        word is the out-of-order pair of frame symbols as written, and the
        label renders it.  Generator pairs come first, then each generator
        followed by each coefficient variable, then the coefficient-variable
        pairs, which commute.  Built on the first call and kept as a tuple,
        which every later call returns."""
        if self._relations is not None:
            return self._relations
        m = self.ring.nvars
        rels = [((m + j, m + i), self.relation_rhs(i, j)) for i, j in self.tails]
        for i in range(self.n):
            for j in range(m):
                # x_i t_j = sigma_i(t_j) x_i + delta_i(t_j)
                rels.append(((m + i, j), self.multiply(self.gen(i), self.symbol(j))))
        for a in range(m):
            for b in range(a + 1, m):
                rels.append(((b, a), self.from_coeff(self.ring.var(a) * self.ring.var(b))))
        self._relations = tuple((f"{self.symbol_name(w[0])}*{self.symbol_name(w[1])}", w, f) for w, f in rels)
        return self._relations

    # -- structured reduction path -----------------------------------------

    def push_coeff_left(self, word: tuple, r: CoeffPoly):
        """Expand ``x_word * r`` as a list of ``(coefficient, subword)``
        pairs with distinct subwords.

        The word is walked from the right one run ``x_i^m`` at a time, and
        every pending coefficient c passes the whole run by the binomial form
        ``x_i^m c = sum_k C(m, k) sigma_i^(m-k)(delta_i^k(c)) x_i^(m-k)``
        (Lam and Leroy, J. Algebra 1988), with ``delta_i^k(c)`` taken down a
        chain of k applications.  The form needs sigma_i and delta_i to
        commute, and a run is one letter unless :meth:`_run_letters` lists
        x_i and no scalar of r has a parameter in its denominator (the
        fraction-order guard of ``_skew``).  A scalar r passes every run
        whole, as its own value: only the ``k = 0`` term is left.  A run of
        one letter is the step ``x_i c = sigma_i(c) x_i + delta_i(c)``.
        Pending coefficients are kept per suffix subword, so equal subwords
        merge at each step.  An ordered word with exponents ``e`` yields at
        most ``prod(e_i + 1)`` pairs, not one per branch (``k + 1`` for
        ``x^k``, not ``2**k``)."""
        if r.is_zero():
            return []
        # a scalar passes any run as it is: sigma fixes it and delta kills it
        constant, polynomial = r.is_constant(), None
        layer = {(): r}
        end = len(word)
        while end:
            letter = word[end - 1]
            start = end - 1
            # only a run of two or more letters reads _run_letters, and the
            # guard on a non-constant r is read at the first such run
            if start and word[start - 1] == letter:
                if not constant and polynomial is None:
                    polynomial = _polynomial(r)
                if constant or polynomial and letter in self._run_letters():
                    while start and word[start - 1] == letter:
                        start -= 1
            m, end = end - start, start
            sigma, delta = self.sigma[letter], self.delta[letter]
            nxt: dict = {}
            for sub, c in layer.items():
                # c runs down the chain delta^k(c); x^(m-k) gets C(m, k)
                # sigma^(m-k)(delta^k(c)), and a scalar's chain stops at k = 0
                for k in range(m):
                    img = c
                    for _ in range(m - k):
                        img = apply_endo(sigma, img)
                    if not img.is_zero():
                        add_term(nxt, (letter,) * (m - k) + sub, img.scale(self.ring.scalar(comb(m, k))) if k else img)
                    c = apply_sder(delta, c)
                    if c.is_zero():
                        break
                else:
                    add_term(nxt, sub, c)
            layer = nxt
        return [(c, sub) for sub, c in layer.items()]

    def _mul_monomials(self, e1: tuple, e2: tuple) -> SkewPoly:
        """Normal form of ``x^e1 * x^e2`` (both already ordered).

        Pending words map to their summed left coefficients, so equal words
        reached along different rewrite paths merge.  Each rewrite resolves
        the leftmost inversion ``x_j x_i`` (j > i), and takes a whole run
        where the pair allows it; this is exact because scalars are central:
        sigma fixes them and delta kills them.

        * A pure skew-commutation ``x_j x_i = d x_i x_j`` with d a constant
          (``_skew``) turns the whole block ``x_j^a x_i^b`` around the
          inversion (the run of x_j ending there, then the run of x_i
          starting there) into ``d^(ab) x_i^b x_j^a`` in one step.
        * A pair ``x_j x_i = c x_i x_j + r0 + r1 x_i`` with constant c, r0
          and r1 (``_passing``; ``weyl``, ``un2``) moves the one x_j at the
          inversion past the whole run ``x_i^b``: ``c^b x_i^b x_j + [b]_c (r0
          x_i^(b-1) + r1 x_i^b)`` (:meth:`_passing_tails`).  The x_j before
          it stay in the prefix, whose walk carries the new coefficients.
        * Any other pair rewrites the one inversion by its stored tails.

        Every word a rewrite produces either has fewer inversions at the
        same length (ab or b fewer for a block) or is shorter.  Words are
        therefore taken in decreasing (length, inversions) order from a heap,
        and a word is rewritten only after every contribution to it has
        arrived.  A unit exponent returns the other one with the unit
        coefficient at once, as that pass would."""
        if not (any(e1) and any(e2)):
            return SkewPoly({e1 if any(e1) else e2: self.ring.one()}, self.n)
        key = (e1, e2)
        cached = self._mono_cache.get(key)
        if cached is not None:
            return cached
        acc: dict = {}
        pending: dict = {}
        heap: list = []

        def add(coeff, w):
            if w not in pending:
                heappush(heap, (-len(w), -_inversions(w, self.n), w))
            add_term(pending, w, coeff)

        add(self.ring.one(), _expand(e1) + _expand(e2))
        while heap:
            w = heappop(heap)[2]
            coeff = pending.pop(w, None)
            if coeff is None:  # its contributions cancelled
                continue
            pos = _first_inversion(w)
            if pos is None:
                acc[_pack(w, self.n)] = coeff
                continue
            j, i = w[pos], w[pos + 1]
            start, end = pos, pos + 2
            d = self._skew.get((i, j))
            if d is None and (i, j) not in self._passing:
                tails = self.tails[(i, j)]
            else:
                while end < len(w) and w[end] == i:
                    end += 1
                b = end - pos - 1
                if d is None:
                    tails = self._passing_tails(i, j, b)
                else:
                    # w[:pos + 1] is ordered, so its x_j all sit right before pos
                    while start and w[start - 1] == j:
                        start -= 1
                    a = pos + 1 - start
                    tails = ((d ** (a * b), (i,) * b + (j,) * a),)
            pre, post = w[:start], w[end:]
            for r, tail in tails:
                for c, pre2 in self.push_coeff_left(pre, r):
                    add(coeff * c, pre2 + tail + post)
        product = SkewPoly(acc, self.n)
        self._mono_cache[key] = product
        return product

    def _passing_tails(self, i: int, j: int, b: int) -> tuple:
        """The tails of ``x_j x_i^b`` for a pair in ``_passing``, ``x_j x_i
        = c x_i x_j + r0 + r1 x_i``: ``c^b x_i^b x_j + [b]_c (r0 x_i^(b-1) +
        r1 x_i^b)``, where ``[b]_c = 1 + c + ... + c^(b-1)``, in the order of
        the stored tails and with the zero ones left out (``[b]_(-1)`` is 0
        for even b).  Made once per b; b = 1 gives the stored tails."""
        by_run = self._passing[(i, j)]
        tails = by_run.get(b)
        if tails is None:
            (c, _), *rest = self.tails[(i, j)]
            qint, power = self.ring.zero(), self.ring.one()
            for _ in range(b):
                qint, power = qint + power, power * c
            tails = ((power, (i,) * b + (j,)),)
            if not qint.is_zero():
                tails += tuple((qint * r, (i,) * (b - 1 + len(w))) for r, w in rest)
            by_run[b] = tails
        return tails

    def multiply(self, f: SkewPoly, g: SkewPoly) -> SkewPoly:
        """PBW normal form of the product; associative and unital.  When one
        factor is the literal unit element the other factor itself is
        returned, and when one factor is zero the result is zero at once,
        which is exactly the representation the general loop builds.

        A term of g whose coefficient c2 is a constant skips
        :meth:`push_coeff_left`: sigma fixes scalars and delta kills them,
        so the walk past ``x^e1`` would return ``[(c2, expand(e1))]``
        anyway.  A term of g with the zero exponent and a non-constant
        coefficient adds ``c1 * h`` at each walked word ``w``, which is what
        the product ``x^w * x^0``, scaled, would give.  Products of monomials
        still walk their coefficients inside :meth:`_mul_monomials`."""
        if f.is_unit():
            return g
        if g.is_unit():
            return f
        if not f.terms or not g.terms:
            return self.zero()
        acc: dict = {}
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                if c2.is_constant():
                    add_terms(acc, self._mul_monomials(e1, e2).scale_left(c1 * c2).terms)
                    continue
                for h, w in self.push_coeff_left(_expand(e1), c2):
                    if any(e2):
                        add_terms(acc, self._mul_monomials(_pack(w, self.n), e2).scale_left(c1 * h).terms)
                    else:  # x^w times the unit exponent is x^w itself
                        add_term(acc, _pack(w, self.n), c1 * h)
        return SkewPoly(acc, self.n)

    def normalize(self, terms) -> SkewPoly:
        """Normal form of a sum of words.

        ``terms`` is an iterable of ``(coeff, atoms)`` pairs where ``coeff``
        is a CoeffPoly (or int/Scalar) and ``atoms`` is a sequence mixing
        generator indices (int) and CoeffPoly factors, in word order.
        """
        acc: dict = {}
        for coeff, atoms in terms:
            if not isinstance(coeff, CoeffPoly):
                coeff = self.ring.const(coeff)
            cur = self.from_coeff(coeff)
            for atom in atoms:
                factor = self.gen(atom) if isinstance(atom, int) else self.from_coeff(atom)
                cur = self.multiply(cur, factor)
            add_terms(acc, cur.terms)
        return SkewPoly(acc, self.n)

    # -- small-step oracle ---------------------------------------------------

    def normalize_atoms(self, atoms, strategy: str = "leftmost") -> SkewPoly:
        """Reduce one word of atoms by single rewrite steps.

        The redex picked at each step is the first (``leftmost``) or last
        (``rightmost``) adjacent pair that is either two coefficients, a
        generator followed by a coefficient, or an out-of-order generator
        pair.  Used as the independent oracle and by the diamond check.
        """
        acc: dict = {}
        work = [tuple(atoms)]
        while work:
            w = work.pop()
            pos = self._find_redex(w, strategy)
            if pos is None:
                add_terms(acc, self._extract(w).terms)
                continue
            a, b = w[pos], w[pos + 1]
            pre, post = w[:pos], w[pos + 2:]
            if isinstance(a, CoeffPoly) and isinstance(b, CoeffPoly):
                prod = a * b
                if not prod.is_zero():
                    work.append(pre + (prod,) + post)
            elif isinstance(a, int) and isinstance(b, CoeffPoly):
                sig = apply_endo(self.sigma[a], b)
                if not sig.is_zero():
                    work.append(pre + (sig, a) + post)
                dele = apply_sder(self.delta[a], b)
                if not dele.is_zero():
                    work.append(pre + (dele,) + post)
            else:  # out-of-order generator pair
                for r, tail in self.tails[(b, a)]:
                    work.append(pre + (r,) + tail + post)
        return SkewPoly(acc, self.n)

    @staticmethod
    def _find_redex(w, strategy):
        rng = range(len(w) - 1)
        if strategy == "rightmost":
            rng = reversed(rng)
        elif strategy != "leftmost":
            raise ValueError(f"unknown strategy: {strategy}")
        for p in rng:
            a, b = w[p], w[p + 1]
            if isinstance(a, CoeffPoly):
                if isinstance(b, CoeffPoly):
                    return p
            elif isinstance(b, CoeffPoly) or a > b:
                return p
        return None

    def _extract(self, w) -> SkewPoly:
        coeff = self.ring.one()
        gens = []
        for atom in w:
            if isinstance(atom, CoeffPoly):
                coeff = coeff * atom
            else:
                gens.append(atom)
        return self.monomial(_pack(tuple(gens), self.n), coeff)

    # -- power commutation ---------------------------------------------------

    def power_commute_closed(self, i: int, m: int, r: CoeffPoly) -> SkewPoly:
        """Closed binomial form of ``x_i^m * r``; requires that sigma_i and
        delta_i commute."""
        if ("sigma-delta", i) in self.commutation_failures():
            raise HypothesisError(f"sigma and delta of generator {self.names[i]} do not commute")
        acc: dict = {}
        for k in range(m + 1):
            img = r
            for _ in range(k):
                img = apply_sder(self.delta[i], img)
            for _ in range(m - k):
                img = apply_endo(self.sigma[i], img)
            if img.is_zero():
                continue
            e = [0] * self.n
            e[i] = m - k
            add_terms(acc, self.monomial(e, img.scale(self.ring.scalar(comb(m, k)))).terms)
        return SkewPoly(acc, self.n)

    # -- consistency -----------------------------------------------------------

    def pbw_consistency_check(self) -> PbwAudit:
        """Compare the two maximal reduction strategies on every overlap
        ambiguity, and name the first word whose normal forms differ.

        The reduction system is ``x_j x_i -> tails`` (j > i), ``x_i t_v ->
        sigma_i(t_v) x_i + delta_i(t_v)`` and ``t_b t_a -> t_a t_b``
        (b > a).  Every rule lowers a word in a well-founded order that
        products respect: generator words by (length, inversions), then the
        multiset of how many generators stand left of each coefficient
        letter, then the inversions among the coefficient letters.  Every
        left side has length 2, so there are no inclusion ambiguities, and
        the overlap ambiguities are exactly ``x_k x_j x_i`` (k > j > i),
        ``x_j x_i t_v`` and ``x_i t_b t_a`` (b > a); a coefficient triple
        resolves in the commutative ring.  By Bergman's diamond lemma (Adv.
        Math. 29, 1978) the ordered monomials are a basis iff each of these
        words reduces to one normal form, so a pass proves the presentation
        consistent.  For ``x_i t_b t_a`` that is ``(sigma_i(t_a) - t_a)
        delta_i(t_b) = (sigma_i(t_b) - t_b) delta_i(t_a)``.
        """
        var = self.ring.var
        words = [tuple(reversed(combo)) for combo in combinations(range(self.n), 3)]
        for j in range(self.n):
            for i in range(j):
                for v in range(self.ring.nvars):
                    words.append((j, i, var(v)))
        for i in range(self.n):
            for b in range(self.ring.nvars):
                for a in range(b):
                    words.append((i, var(b), var(a)))
        for word in words:
            left = self.normalize_atoms(word, "leftmost")
            right = self.normalize_atoms(word, "rightmost")
            if left != right:
                return PbwAudit(
                    ok=False,
                    left=left,
                    right=right,
                    rendered=self.render_word(word),
                )
        return PbwAudit(ok=True)

    # -- rendering ------------------------------------------------------------

    def render(self, f: SkewPoly) -> str:
        return render_sum(f.terms, self.names, self.ring.render)

    def render_word(self, atoms) -> str:
        bits = []
        for atom in atoms:
            if isinstance(atom, int):
                bits.append(self.names[atom])
            else:
                bits.append(f"({self.ring.render(atom)})")
        return "*".join(bits)


def _expand(e: tuple) -> tuple:
    out = []
    for i, k in enumerate(e):
        out.extend([i] * k)
    return tuple(out)


def _pack(word: tuple, n: int) -> tuple:
    e = [0] * n
    for i in word:
        e[i] += 1
    return tuple(e)


def _first_inversion(w: tuple):
    for p in range(len(w) - 1):
        if w[p] > w[p + 1]:
            return p
    return None


def _inversions(w: tuple, n: int) -> int:
    """Number of pairs p < q with ``w[p] > w[q]``, from per-letter counts of
    the letters already seen, added once per run of one letter."""
    seen = [0] * n
    count = 0
    a, k = -1, 0
    for b in w + (-1,):  # the sentinel -1 closes the last run
        if b == a:
            k += 1
            continue
        if k:
            count += k * sum(seen[a + 1:])
            seen[a] += k
        a, k = b, 1
    return count


def exponents_upto(nvars: int, total: int):
    """Every exponent tuple of length ``nvars`` with entry sum at most
    ``total``, in lexicographic order: an odometer, with no recursion.  A
    generator, so a search that stops early builds only what it read."""
    e = [0] * nvars
    room = total  # total minus the entry sum of e
    while True:
        yield tuple(e)
        if room and nvars:
            e[-1] += 1
            room -= 1
            continue
        # carry: clear the last nonzero entry and raise the one before it
        j = nvars - 1
        while j > 0 and not e[j]:
            j -= 1
        if j <= 0:
            return
        room += e[j] - 1
        e[j] = 0
        e[j - 1] += 1
