"""Line-oriented presentation language.

A document declares symbols, the per-generator coefficient maps, the pair
relations, an optional calculus block and pipeline options:

    name weyl
    gens x1 x2
    rel x2 x1 = x1 x2 - 1
    calculus mode=theorem
    options seed=1729

Expressions know ``*`` (also juxtaposition), ``+``, ``-``, ``^`` with
integer (possibly negative) exponents, and parentheses; nothing else.
Parsing either succeeds completely or raises :class:`ParseError` with a
line, a column and a stable diagnostic code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .coefficients import CoeffEndo, CoeffPoly, CoeffRing, CoeffSigmaDerivation
from .core import Presentation, Relation, SkewPoly
from .errors import MapError, SpbwError
from .lincomb import add_terms, is_spaced_sum, render_sum
from .scalars import Scalar

DEFAULT_OPTIONS = {
    "seed": 1729,
    "samples": 50,
    "sample_degree": 4,
    "dsq_degree": 6,
    "conn_degree": 6,
    "gk_degree": 12,
    "pbw_degree": 3,
}

# Smallest value each bounded option accepts.  The growth estimate needs the
# table up to degree 8, the overlap check needs words of length 3, and a
# sampled check on zero samples would certify nothing.
OPTION_MINIMUMS = {
    "samples": 1,
    "sample_degree": 1,
    "dsq_degree": 1,
    "conn_degree": 1,
    "gk_degree": 8,
    "pbw_degree": 3,
}


class ParseError(SpbwError):
    """Bad document text or option value.  Line 0 marks an error with no
    place in the text (a whole-document check or a command-line override);
    its message then carries no position."""

    def __init__(self, line: int, col: int, code: str, message: str):
        where = f"line {line}, column {col}: " if line else ""
        super().__init__(f"{where}{message} [{code}]")
        self.line = line
        self.col = col
        self.code = code


def set_option(options: dict, key: str, value: int, line: int = 0, col: int = 0):
    """Store one pipeline option after checking its name and range; used by
    the ``options`` line and by command-line overrides alike."""
    if key not in DEFAULT_OPTIONS:
        raise ParseError(line, col, "unknown-option", f"unknown option {key!r}")
    minimum = OPTION_MINIMUMS.get(key)
    if minimum is not None and value < minimum:
        raise ParseError(line, col, "option-range", f"option {key} must be at least {minimum}, got {value}")
    options[key] = value


@dataclass
class CalculusDoc:
    mode: str
    dgen_names: tuple = ()
    potentials: dict = field(default_factory=dict)      # name -> SkewPoly
    twist: dict = field(default_factory=dict)           # name -> frame images, tuple[SkewPoly]
    itwist: dict = field(default_factory=dict)          # name -> frame images | absent
    wedge: dict = field(default_factory=dict)           # (i, j) -> Scalar


@dataclass
class PresentationDoc:
    """Parsed, validated document; everything stored semantically."""

    name: str
    params: tuple
    coeff_vars: tuple
    gens: tuple
    sigma_images: dict          # gen index -> tuple[CoeffPoly]
    sigma_inverses: dict        # gen index -> tuple[CoeffPoly] | None
    delta_images: dict          # gen index -> tuple[CoeffPoly]
    relations: dict             # (i, j) -> Relation
    calculus: CalculusDoc | None
    options: dict

    def ring(self) -> CoeffRing:
        return CoeffRing(self.params, self.coeff_vars)


# -- tokenizer -----------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<arrow>->)|(?P<op>[*+\-^()=:,]))"
)


def _tokenize(text: str, line_no: int):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None or m.start() != pos:
            raise ParseError(line_no, pos + 1, "bad-token", f"unreadable input at {text[pos:pos + 8]!r}")
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, pos + 1))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.line = line_no
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError(self.line, 0, "unexpected-eol", "unexpected end of line")
        self.i += 1
        return tok

    def expect(self, kind, value=None, what=""):
        tok = self.peek()
        if tok is None or tok[0] != kind or (value is not None and tok[1] != value):
            col = tok[2] if tok else 0
            raise ParseError(self.line, col, "expected-" + (value or kind), f"expected {what or value or kind}")
        return self.next()

    def done(self):
        return self.i >= len(self.tokens)


# -- expressions -----------------------------------------------------------------
#
# Parsed into a "free element": a list of (Scalar, word) terms, where the word
# is a tuple of non-parameter symbol names in multiplication order.  Parameter
# and integer factors fold into the scalar, which is central.


class _ExprContext:
    def __init__(self, ring: CoeffRing, symbols, line):
        self.ring = ring
        self.symbols = symbols  # names of coeff vars and gens in scope
        self.line = line


def _parse_expr(ts: _TokenStream, ctx: _ExprContext):
    terms = _parse_term(ts, ctx)
    while True:
        tok = ts.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            ts.next()
            rhs = _parse_term(ts, ctx)
            if tok[1] == "-":
                rhs = [(-s, w) for s, w in rhs]
            terms = terms + rhs
        else:
            return terms


def _parse_term(ts: _TokenStream, ctx):
    factors = _parse_unary(ts, ctx)
    while True:
        tok = ts.peek()
        if tok is None:
            return factors
        kind, value, _ = tok
        if kind == "op" and value == "*":
            ts.next()
            factors = _mul_free(factors, _parse_unary(ts, ctx))
        elif kind in ("ident", "int") or (kind == "op" and value == "("):
            factors = _mul_free(factors, _parse_unary(ts, ctx))
        else:
            return factors


def _parse_unary(ts: _TokenStream, ctx):
    tok = ts.peek()
    if tok and tok[0] == "op" and tok[1] == "-":
        ts.next()
        inner = _parse_unary(ts, ctx)
        return [(-s, w) for s, w in inner]
    return _parse_power(ts, ctx)


def _parse_power(ts: _TokenStream, ctx):
    base = _parse_atom(ts, ctx)
    tok = ts.peek()
    if tok and tok[0] == "op" and tok[1] == "^":
        ts.next()
        sign = 1
        tok = ts.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            ts.next()
            sign = -1
        _, digits, col = ts.expect("int", what="an integer exponent")
        k = int(digits)
        if sign < 0:
            return _invert_free(base, k, ctx, col)
        out = [(ctx.ring.sone(), ())]
        for _ in range(k):
            out = _mul_free(out, base)
        return out
    return base


def _parse_atom(ts: _TokenStream, ctx):
    kind, value, col = ts.next()
    if kind == "int":
        return [(ctx.ring.scalar(int(value)), ())]
    if kind == "ident":
        if value in ctx.ring.params:
            return [(ctx.ring.param(value), ())]
        if value in ctx.symbols:
            return [(ctx.ring.sone(), (value,))]
        raise ParseError(ctx.line, col, "undeclared-symbol", f"undeclared symbol {value!r}")
    if kind == "op" and value == "(":
        inner = _parse_expr(ts, ctx)
        ts.expect("op", ")", "a closing parenthesis")
        return inner
    raise ParseError(ctx.line, col, "bad-expression", f"unexpected token {value!r}")


def _mul_free(a, b):
    out = []
    for s1, w1 in a:
        for s2, w2 in b:
            out.append((s1 * s2, w1 + w2))
    return out


def _invert_free(base, k, ctx, col):
    if any(w for _, w in base):
        raise ParseError(
            ctx.line, col, "bad-inverse",
            "negative powers apply only to nonzero parameter/number expressions",
        )
    s = ctx.ring.szero()
    for t, _ in base:
        s = s + t
    if s.is_zero():
        raise ParseError(ctx.line, col, "division-by-zero", "negative power of zero")
    out = [(ctx.ring.sone(), ())]
    inv = s.inverse()
    for _ in range(k):
        out = [(t * inv, w) for t, w in out]
    return out


def _free_to_coeff(free, ring: CoeffRing, line):
    """Collapse a free element into a commutative coefficient polynomial;
    generator symbols are rejected."""
    acc: dict = {}
    for s, word in free:
        e = [0] * ring.nvars
        for name in word:
            if name in ring.coeff_vars:
                e[ring.coeff_vars.index(name)] += 1
            else:
                raise ParseError(line, 0, "generator-in-coefficient",
                                 f"generator {name!r} not allowed here")
        add_terms(acc, ring.monomial(e, s).terms)
    return CoeffPoly(acc, ring.nvars, ring.nparams)


# -- document parser ----------------------------------------------------------------


_KEYWORDS = {
    "name", "params", "coeffs", "gens", "sigma", "delta", "isigma",
    "rel", "calculus", "dgens", "dgen", "twist", "itwist", "wedge",
    "options", "invertible",
}


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.name = None
        self.params = []
        self.coeff_vars = []
        self.gens = []
        self.sigma_lines = {}  # gen -> list of (var, free, line)
        self.delta_lines = {}
        self.isigma_lines = {}
        self.rel_lines = []    # (j_name, i_name, rhs_free, line)
        self.calculus_mode = None
        self.dgen_names = []
        self.dgen_exprs = {}
        self.twist_lines = {}
        self.itwist_lines = {}
        self.wedge_lines = []  # (a, b, free, line)
        self.options = dict(DEFAULT_OPTIONS)
        self._ring = None

    def parse(self) -> PresentationDoc:
        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            text = raw.split("#", 1)[0].rstrip()
            if not text.strip():
                continue
            ts = _TokenStream(_tokenize(text, line_no), line_no)
            kind, keyword, col = ts.next()
            if kind != "ident" or keyword not in _KEYWORDS:
                raise ParseError(line_no, col, "unknown-keyword", f"unknown directive {keyword!r}")
            getattr(self, "_line_" + keyword)(ts, line_no)
        return self._build()

    # -- declaration lines ------------------------------------------------------

    def _idents(self, ts, line_no, at_least=0):
        names = []
        while not ts.done():
            kind, value, col = ts.next()
            if kind != "ident":
                raise ParseError(line_no, col, "expected-name", "expected a name")
            if value == "invertible":
                raise ParseError(line_no, col, "laurent-unsupported",
                                 "invertible generators are reserved and not supported")
            names.append(value)
        if len(names) < at_least:
            raise ParseError(line_no, 0, "expected-name", "expected at least one name")
        return names

    def _check_fresh(self, names, line_no):
        seen = set(self.params) | set(self.coeff_vars) | set(self.gens) | set(self.dgen_names)
        for n in names:
            if n in seen or n in _KEYWORDS:
                raise ParseError(line_no, 0, "duplicate-symbol", f"symbol {n!r} already declared")
            seen.add(n)

    def _line_name(self, ts, line_no):
        if self.name is not None:
            raise ParseError(line_no, 0, "duplicate-block", "name declared twice")
        _, value, _ = ts.expect("ident", what="a document name")
        self.name = value

    def _line_params(self, ts, line_no):
        names = self._idents(ts, line_no)
        self._check_fresh(names, line_no)
        self.params.extend(names)

    def _line_coeffs(self, ts, line_no):
        names = self._idents(ts, line_no)
        self._check_fresh(names, line_no)
        self.coeff_vars.extend(names)

    def _line_gens(self, ts, line_no):
        names = self._idents(ts, line_no, at_least=1)
        self._check_fresh(names, line_no)
        self.gens.extend(names)

    def _line_invertible(self, ts, line_no):
        raise ParseError(line_no, 1, "laurent-unsupported",
                         "invertible generators are reserved and not supported")

    # -- map lines -----------------------------------------------------------------

    def _map_line(self, ts, line_no, target_names, store, what):
        _, owner, col = ts.expect("ident", what=f"a {what} owner")
        if owner not in target_names:
            raise ParseError(line_no, col, "undeclared-symbol", f"{owner!r} is not declared")
        ts.expect("op", ":", "a colon")
        entries = store.setdefault(owner, [])
        ring = self._ring_so_far()
        while True:
            _, var, col = ts.expect("ident", what="a symbol")
            ts.expect("arrow", what="->")
            ctx = _ExprContext(ring, set(self.coeff_vars) | set(self.gens), line_no)
            free = _parse_expr(ts, ctx)
            entries.append((var, free, line_no, col))
            if ts.done():
                return
            ts.expect("op", ",", "a comma")

    def _ring_so_far(self):
        return CoeffRing(tuple(self.params), tuple(self.coeff_vars))

    def _line_sigma(self, ts, line_no):
        self._map_line(ts, line_no, self.gens, self.sigma_lines, "sigma")

    def _line_delta(self, ts, line_no):
        self._map_line(ts, line_no, self.gens, self.delta_lines, "delta")

    def _line_isigma(self, ts, line_no):
        self._map_line(ts, line_no, self.gens, self.isigma_lines, "isigma")

    def _line_twist(self, ts, line_no):
        self._map_line(ts, line_no, self.dgen_names, self.twist_lines, "twist")

    def _line_itwist(self, ts, line_no):
        self._map_line(ts, line_no, self.dgen_names, self.itwist_lines, "itwist")

    # -- relations ---------------------------------------------------------------------

    def _line_rel(self, ts, line_no):
        _, a, col_a = ts.expect("ident", what="a generator")
        _, b, col_b = ts.expect("ident", what="a generator")
        for name, col in ((a, col_a), (b, col_b)):
            if name not in self.gens:
                raise ParseError(line_no, col, "undeclared-symbol", f"{name!r} is not a generator")
        ts.expect("op", "=", "an equals sign")
        ctx = _ExprContext(self._ring_so_far(), set(self.coeff_vars) | set(self.gens), line_no)
        rhs = _parse_expr(ts, ctx)
        if not ts.done():
            raise ParseError(line_no, ts.peek()[2], "trailing-input", "unexpected trailing input")
        if self.gens.index(a) <= self.gens.index(b):
            raise ParseError(line_no, col_a, "relation-order",
                             "relation must have higher generator first")
        self.rel_lines.append((a, b, rhs, line_no))

    # -- calculus block ------------------------------------------------------------------

    def _line_calculus(self, ts, line_no):
        if self.calculus_mode is not None:
            raise ParseError(line_no, 0, "duplicate-block", "calculus block declared twice")
        _, key, col = ts.expect("ident", what="mode")
        if key != "mode":
            raise ParseError(line_no, col, "expected-mode", "expected mode=theorem|flat")
        ts.expect("op", "=", "an equals sign")
        _, mode, col = ts.expect("ident", what="theorem or flat")
        if mode not in ("theorem", "flat"):
            raise ParseError(line_no, col, "bad-mode", f"unknown mode {mode!r}")
        self.calculus_mode = mode

    def _line_dgens(self, ts, line_no):
        names = self._idents(ts, line_no, at_least=1)
        for n in names:
            if n in self.dgen_names:
                raise ParseError(line_no, 0, "duplicate-symbol", f"dgen {n!r} repeated")
        self.dgen_names.extend(names)

    def _line_dgen(self, ts, line_no):
        _, name, col = ts.expect("ident", what="a dgen name")
        if name not in self.dgen_names:
            raise ParseError(line_no, col, "undeclared-symbol", f"dgen {name!r} not listed in dgens")
        ts.expect("op", "=", "an equals sign")
        ctx = _ExprContext(self._ring_so_far(), set(self.coeff_vars) | set(self.gens), line_no)
        self.dgen_exprs[name] = (_parse_expr(ts, ctx), line_no)

    def _line_wedge(self, ts, line_no):
        _, a, col_a = ts.expect("ident", what="a dgen name")
        _, b, col_b = ts.expect("ident", what="a dgen name")
        for name, col in ((a, col_a), (b, col_b)):
            if name not in self.dgen_names:
                raise ParseError(line_no, col, "undeclared-symbol", f"dgen {name!r} not listed in dgens")
        ts.expect("op", "=", "an equals sign")
        ctx = _ExprContext(self._ring_so_far(), set(), line_no)
        self.wedge_lines.append((a, b, _parse_expr(ts, ctx), line_no))

    # -- options ------------------------------------------------------------------------------

    def _line_options(self, ts, line_no):
        while not ts.done():
            _, key, col = ts.expect("ident", what="an option name")
            ts.expect("op", "=", "an equals sign")
            sign = 1
            tok = ts.peek()
            if tok and tok[0] == "op" and tok[1] == "-":
                ts.next()
                sign = -1
            _, digits, _ = ts.expect("int", what="an integer")
            set_option(self.options, key, sign * int(digits), line_no, col)

    # -- assembly --------------------------------------------------------------------------------

    def _build(self) -> PresentationDoc:
        if self.name is None:
            raise ParseError(0, 0, "missing-name", "document has no name line")
        if not self.gens:
            raise ParseError(0, 0, "missing-gens", "document declares no generators")
        ring = self._ring_so_far()
        nvars = ring.nvars

        def image_table(lines, default):
            table = {}
            for g, entries in lines.items():
                gi = self.gens.index(g)
                images = list(default)
                seen = set()
                for var, free, line, col in entries:
                    if var not in self.coeff_vars:
                        raise ParseError(line, col, "undeclared-symbol",
                                         f"{var!r} is not a coefficient variable")
                    vi = self.coeff_vars.index(var)
                    if vi in seen:
                        raise ParseError(line, col, "duplicate-image", f"two images for {var!r}")
                    seen.add(vi)
                    images[vi] = _free_to_coeff(free, ring, line)
                table[gi] = tuple(images)
            return table

        id_images = tuple(ring.var(j) for j in range(nvars))
        zero_images = tuple(ring.zero() for _ in range(nvars))
        sigma_images = {i: id_images for i in range(len(self.gens))}
        sigma_images.update(image_table(self.sigma_lines, id_images))
        delta_images = {i: zero_images for i in range(len(self.gens))}
        delta_images.update(image_table(self.delta_lines, zero_images))
        explicit_inverses = image_table(self.isigma_lines, id_images)

        sigma_inverses = {}
        for i in range(len(self.gens)):
            if i in explicit_inverses:
                sigma_inverses[i] = explicit_inverses[i]
            else:
                sigma_inverses[i] = _diagonal_affine_inverse(ring, sigma_images[i])

        relations = self._build_relations(ring)
        calculus = self._build_calculus_doc(ring, sigma_images, delta_images, sigma_inverses, relations)

        return PresentationDoc(
            name=self.name,
            params=tuple(self.params),
            coeff_vars=tuple(self.coeff_vars),
            gens=tuple(self.gens),
            sigma_images=sigma_images,
            sigma_inverses=sigma_inverses,
            delta_images=delta_images,
            relations=relations,
            calculus=calculus,
            options=self.options,
        )

    def _build_relations(self, ring) -> dict:
        n = len(self.gens)
        relations = {}
        for a, b, rhs, line in self.rel_lines:
            j, i = self.gens.index(a), self.gens.index(b)
            key = (i, j)
            if key in relations:
                raise ParseError(line, 0, "duplicate-relation", f"relation for ({a},{b}) repeated")
            relations[key] = self._relation_shape(ring, i, j, rhs, line)
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in relations:
                    raise ParseError(0, 0, "missing-relation",
                                     f"no relation declared for pair ({self.gens[j]},{self.gens[i]})")
        return relations

    def _relation_shape(self, ring, i, j, rhs, line) -> Relation:
        n = len(self.gens)
        d = ring.zero()
        r0 = ring.zero()
        rk = [ring.zero() for _ in range(n)]
        for s, word in rhs:
            coeff_part = []
            gen_part = []
            for name in word:
                if name in self.coeff_vars:
                    if gen_part:
                        raise ParseError(line, 0, "coefficient-right-of-generator",
                                         "coefficients must be written left of generators")
                    coeff_part.append(name)
                else:
                    gen_part.append(name)
            e = [0] * ring.nvars
            for name in coeff_part:
                e[self.coeff_vars.index(name)] += 1
            coeff = ring.monomial(e, s)
            if not gen_part:
                r0 = r0 + coeff
            elif len(gen_part) == 1:
                rk[self.gens.index(gen_part[0])] = rk[self.gens.index(gen_part[0])] + coeff
            elif len(gen_part) == 2:
                gi, gj = (self.gens.index(gen_part[0]), self.gens.index(gen_part[1]))
                if (gi, gj) != (i, j):
                    raise ParseError(line, 0, "tail-shape",
                                     "the quadratic term must be the ordered pair of the left side")
                d = d + coeff
            else:
                raise ParseError(line, 0, "tail-shape", "relation tails are at most linear")
        if d.is_zero():
            raise ParseError(line, 0, "zero-d", "the ordered pair needs a nonzero coefficient")
        return Relation(d, r0, tuple(rk))

    def _build_calculus_doc(self, ring, sigma_images, delta_images, sigma_inverses, relations):
        if self.calculus_mode is None:
            if self.dgen_names or self.twist_lines or self.wedge_lines:
                raise ParseError(0, 0, "missing-block", "calculus lines without a calculus block")
            return None
        doc = CalculusDoc(mode=self.calculus_mode)
        if self.calculus_mode == "theorem":
            if self.dgen_names or self.twist_lines or self.itwist_lines or self.wedge_lines:
                raise ParseError(0, 0, "theorem-mode-fixed",
                                 "theorem mode derives its generators and twists; remove the extra lines")
            return doc
        if not self.dgen_names:
            raise ParseError(0, 0, "missing-dgens", "flat mode needs a dgens line")
        # build a presentation for normalizing twist images and potentials
        try:
            P = _presentation_from_parts(ring, tuple(self.gens), sigma_images, sigma_inverses,
                                         delta_images, relations)
        except MapError as exc:
            raise ParseError(0, 0, "bad-inverse", str(exc)) from exc
        doc.dgen_names = tuple(self.dgen_names)
        symbols = list(self.coeff_vars) + list(self.gens)
        for name in self.dgen_names:
            if name in symbols:
                if name in self.dgen_exprs:
                    raise ParseError(self.dgen_exprs[name][1], 0, "duplicate-image",
                                     f"dgen {name!r} is a symbol; no dgen line allowed")
                doc.potentials[name] = P.symbol(symbols.index(name))
            else:
                if name not in self.dgen_exprs:
                    raise ParseError(0, 0, "missing-dgen",
                                     f"dgen {name!r} is not a symbol and has no dgen line")
                free, line = self.dgen_exprs[name]
                doc.potentials[name] = _free_to_skew(P, free, line)
        for name in self.dgen_names:
            doc.twist[name] = self._twist_images(P, symbols, self.twist_lines.get(name, []))
            if name in self.itwist_lines:
                doc.itwist[name] = self._twist_images(P, symbols, self.itwist_lines[name])
        for a, b, free, line in self.wedge_lines:
            ia, ib = self.dgen_names.index(a), self.dgen_names.index(b)
            if ia >= ib:
                raise ParseError(line, 0, "wedge-order", "wedge constants are keyed earlier, later")
            value = _free_to_coeff(free, ring, line)
            if not value.is_constant():
                raise ParseError(line, 0, "bad-wedge", "wedge constants are scalars")
            s = value.constant_value()
            if s.is_zero():
                raise ParseError(line, 0, "bad-wedge", "wedge constants are nonzero")
            doc.wedge[(ia, ib)] = s
        return doc

    def _twist_images(self, P, symbols, entries):
        images = list(P.frame())
        seen = set()
        for var, free, line, col in entries:
            if var not in symbols:
                raise ParseError(line, col, "undeclared-symbol", f"{var!r} is not a symbol")
            k = symbols.index(var)
            if k in seen:
                raise ParseError(line, col, "duplicate-image", f"two images for {var!r}")
            seen.add(k)
            images[k] = _free_to_skew(P, free, line)
        return tuple(images)


def _free_to_skew(P: Presentation, free, line) -> SkewPoly:
    terms = []
    for s, word in free:
        atoms = []
        for name in word:
            if name in P.ring.coeff_vars:
                atoms.append(P.ring.var(P.ring.coeff_vars.index(name)))
            else:
                atoms.append(P.names.index(name))
        terms.append((P.ring.const(s), atoms))
    return P.normalize(terms)


def _diagonal_affine_inverse(ring: CoeffRing, images):
    """Mechanical inverse when every image is a*t_j + b on its own variable;
    None otherwise (identity is the trivial case)."""
    inverses = []
    for j, img in enumerate(images):
        a = None
        b = ring.szero()
        for e, s in img.terms.items():
            if sum(e) == 0:
                b = s
            elif sum(e) == 1 and e[j] == 1:
                a = s
            else:
                return None
        if a is None or a.is_zero():
            return None
        t = ring.var(j)
        inverses.append((t - ring.const(b)).scale(a.inverse()))
    return tuple(inverses)


def _presentation_from_parts(ring, gens, sigma_images, sigma_inverses, delta_images, relations):
    sigmas = []
    deltas = []
    for i in range(len(gens)):
        sigma = CoeffEndo(sigma_images[i], sigma_inverses.get(i))
        sigmas.append(sigma)
        deltas.append(CoeffSigmaDerivation(delta_images[i], sigma))
    return Presentation(ring, gens, sigmas, deltas, relations)


# -- public API --------------------------------------------------------------------------------


def parse_presentation(source: str) -> PresentationDoc:
    """Validated document, or ParseError with line, column and code."""
    return _Parser(source).parse()


def build_presentation(doc: PresentationDoc) -> Presentation:
    return _presentation_from_parts(
        doc.ring(), doc.gens, doc.sigma_images, doc.sigma_inverses, doc.delta_images, doc.relations
    )


def parse_expression(doc: PresentationDoc, source: str, P: Presentation | None = None) -> SkewPoly:
    """One expression over the document's symbols, reduced to normal form."""
    if P is None:
        P = build_presentation(doc)
    ts = _TokenStream(_tokenize(source, 1), 1)
    ctx = _ExprContext(doc.ring(), set(doc.coeff_vars) | set(doc.gens), 1)
    free = _parse_expr(ts, ctx)
    if not ts.done():
        raise ParseError(1, ts.peek()[2], "trailing-input", "unexpected trailing input")
    return _free_to_skew(P, free, 1)


# -- rendering (reparse-safe) ---------------------------------------------------------------------


def _render_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}*{f.denominator}^-1"


def _render_scalar_dsl(s: Scalar, params) -> str:
    num = render_sum(s.num, params, _render_fraction)
    if s.den == {(0,) * s.nparams: Fraction(1)}:
        return num
    if len(s.den) == 1:
        ((e, c),) = s.den.items()
        bits = [] if c == 1 else [f"{_render_fraction(c)}^-1" if c.denominator == 1 else f"({_render_fraction(c)})^-1"]
        for name, k in zip(params, e):
            if k:
                bits.append(f"{name}^-{k}")
        return f"({num})" + ("*" + "*".join(bits) if bits else "")
    return f"({num})*({render_sum(s.den, params, _render_fraction)})^-1"


def _render_coeff_dsl(p: CoeffPoly, params, var_names) -> str:
    return render_sum(p.terms, var_names, lambda s: _render_scalar_dsl(s, params))


def _render_skew_dsl(f: SkewPoly, doc: PresentationDoc) -> str:
    return render_sum(f.terms, doc.gens, lambda c: _render_coeff_dsl(c, doc.params, doc.coeff_vars))


def render_presentation(doc: PresentationDoc) -> str:
    """Canonical text form; reparses to an equal document."""
    ring = doc.ring()
    lines = [f"name {doc.name}"]
    if doc.params:
        lines.append("params " + " ".join(doc.params))
    if doc.coeff_vars:
        lines.append("coeffs " + " ".join(doc.coeff_vars))
    lines.append("gens " + " ".join(doc.gens))

    id_images = tuple(ring.var(j) for j in range(ring.nvars))

    def map_line(keyword, gi, images, skip):
        entries = []
        for j, img in enumerate(images):
            if img == skip[j]:
                continue
            entries.append(f"{doc.coeff_vars[j]} -> {_render_coeff_dsl(img, doc.params, doc.coeff_vars)}")
        if entries:
            lines.append(f"{keyword} {doc.gens[gi]}: " + ", ".join(entries))

    zero_images = tuple(ring.zero() for _ in range(ring.nvars))
    for gi in range(len(doc.gens)):
        map_line("sigma", gi, doc.sigma_images[gi], id_images)
        map_line("delta", gi, doc.delta_images[gi], zero_images)
        inv = doc.sigma_inverses.get(gi)
        if inv is not None and _diagonal_affine_inverse(ring, doc.sigma_images[gi]) is None:
            map_line("isigma", gi, inv, id_images)

    for (i, j), rel in sorted(doc.relations.items()):
        rhs = []
        d_str = _render_coeff_dsl(rel.d, doc.params, doc.coeff_vars)
        pair = f"{doc.gens[i]} {doc.gens[j]}"
        if d_str == "1":
            rhs.append(pair)
        else:
            if is_spaced_sum(d_str):
                d_str = f"({d_str})"
            rhs.append(f"{d_str} * {pair}")
        for k, rk in enumerate(rel.rk):
            if not rk.is_zero():
                ck = _render_coeff_dsl(rk, doc.params, doc.coeff_vars)
                if is_spaced_sum(ck):
                    ck = f"({ck})"
                rhs.append(f"{ck} * {doc.gens[k]}" if ck != "1" else doc.gens[k])
        if not rel.r0.is_zero():
            c0 = _render_coeff_dsl(rel.r0, doc.params, doc.coeff_vars)
            rhs.append(f"({c0})" if is_spaced_sum(c0) or c0.startswith("-") else c0)
        lines.append(f"rel {doc.gens[j]} {doc.gens[i]} = " + " + ".join(rhs))

    if doc.calculus is not None:
        cal = doc.calculus
        lines.append(f"calculus mode={cal.mode}")
        if cal.mode == "flat":
            lines.append("dgens " + " ".join(cal.dgen_names))
            symbols = list(doc.coeff_vars) + list(doc.gens)
            P = build_presentation(doc)
            for name in cal.dgen_names:
                if name not in symbols:
                    lines.append(f"dgen {name} = {_render_skew_dsl(cal.potentials[name], doc)}")

            def twist_line(keyword, name, images):
                entries = [f"{sym} -> {_render_skew_dsl(img, doc)}"
                           for sym, img, a in zip(symbols, images, P.frame()) if img != a]
                if entries:
                    lines.append(f"{keyword} {name}: " + ", ".join(entries))

            for name in cal.dgen_names:
                twist_line("twist", name, cal.twist[name])
                if name in cal.itwist:
                    twist_line("itwist", name, cal.itwist[name])
            for (ia, ib), s in sorted(cal.wedge.items()):
                lines.append(
                    f"wedge {cal.dgen_names[ia]} {cal.dgen_names[ib]} = "
                    + _render_scalar_dsl(s, doc.params)
                )

    opts = " ".join(f"{k}={v}" for k, v in sorted(doc.options.items()) if v != DEFAULT_OPTIONS[k])
    if opts:
        lines.append("options " + opts)
    return "\n".join(lines) + "\n"
