"""Line-oriented presentation language.

A document declares symbols, the per-generator coefficient maps, the pair
relations, an optional calculus block and pipeline options:

    name weyl
    gens x1 x2
    rel x2 x1 = x1 x2 - 1
    calculus mode=theorem
    options seed=1729

Declarations (``name``, ``params``, ``coeffs``, ``gens``, ``calculus``,
``dgens``, ``options``) may appear anywhere and are read first.  The ring
lines (``sigma``, ``delta``, ``isigma``, ``rel``) are then evaluated in the
finished coefficient ring, and the calculus lines (``dgen``, ``twist``,
``itwist``, ``wedge``) last, in the presentation those define.

Expressions know ``*`` (also juxtaposition), ``+``, ``-``, ``^`` with
integer (possibly negative) exponents, and parentheses; nothing else.  Each
is multiplied out in normal form as it is read.  Parsing either succeeds
completely or raises :class:`ParseError` with a line, a column and a stable
diagnostic code; input left over on any line is an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .coefficients import CoeffEndo, CoeffPoly, CoeffRing, CoeffSigmaDerivation
from .core import Presentation, SkewPoly
from .errors import MapError, SpbwError
from .lincomb import add_term, is_spaced_sum, render_sum
from .scalars import Scalar, poly_one

DEFAULT_OPTIONS = {
    "seed": 1729,
    "dsq_degree": 6,
    "conn_degree": 6,
}

# Smallest value each bounded option accepts.  `dsq_degree` is the witness
# budget of the searched d^2 check, which runs only when its certificate
# fails, and `conn_degree` the degree up to which connectedness computes the
# kernel of d; a search or a kernel with no budget would pass without
# looking.  `seed` decides nothing, since no stage samples; it is kept only
# because the benchmark's documents set it.
OPTION_MINIMUMS = {
    "dsq_degree": 1,
    "conn_degree": 1,
}


class ParseError(SpbwError):
    """Bad document text or option value.  Line 0 marks an error with no
    place in the text (a whole-document check); its message then carries no
    position."""

    def __init__(self, line: int, col: int, code: str, message: str):
        where = f"line {line}, column {col}: " if line else ""
        super().__init__(f"{where}{message} [{code}]")
        self.line = line
        self.col = col
        self.code = code


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
    sigma_inverses: dict        # gen index -> tuple[CoeffPoly], claimed by an isigma line
    delta_images: dict          # gen index -> tuple[CoeffPoly]
    relations: dict             # (i, j) -> tails, as Presentation takes them
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

    def finish(self):
        """Raise on input left over after a whole line or expression."""
        if not self.done():
            raise ParseError(self.line, self.peek()[2], "trailing-input", "unexpected trailing input")


# -- expressions -----------------------------------------------------------------
#
# One recursive-descent evaluator folds each expression into the algebra it
# belongs to as it reads it, so every partial result is already in normal
# form.  Values are LinComb sums, added and negated with ``+`` and ``-``.  A
# name is resolved through the document's kind table, which gives every
# declared name its kind; a parameter is a scalar everywhere.  The algebra
# supplies the rest:
#
#   one, scalar(s)   the unit and the central Scalar s;
#   kinds            the kind table;
#   scope            the kinds whose names are values here, and symbol(name)
#                    the value of such a name;
#   holds            what a value here is, said when a name of another kind
#                    appears;
#   mul(a, b)        the product;
#   scalar_of(a)     the Scalar a is, or None; it decides negative powers.


def _read_whole(ts: _TokenStream, read):
    """``read()``, with nothing left on the line after it.  An expression
    nested deeper than the interpreter's stack allows is a ParseError."""
    try:
        value = read()
    except RecursionError:
        raise ParseError(ts.line, 0, "too-deep", "expression nested too deeply") from None
    ts.finish()
    return value


def _at_op(ts: _TokenStream, ops: str) -> bool:
    tok = ts.peek()
    return tok is not None and tok[0] == "op" and tok[1] in ops


def _parse_expr(ts: _TokenStream, alg):
    value = _parse_term(ts, alg)
    while _at_op(ts, "+-"):
        _, op, _ = ts.next()
        rhs = _parse_term(ts, alg)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_term(ts: _TokenStream, alg):
    value = _parse_unary(ts, alg)
    while True:
        tok = ts.peek()
        if tok is None:
            return value
        kind, op, _ = tok
        if kind == "op" and op == "*":
            ts.next()
        elif kind not in ("ident", "int") and not (kind == "op" and op == "("):
            return value
        value = alg.mul(value, _parse_unary(ts, alg))


def _parse_unary(ts: _TokenStream, alg):
    if _at_op(ts, "-"):
        ts.next()
        return -_parse_unary(ts, alg)
    return _parse_power(ts, alg)


def _parse_power(ts: _TokenStream, alg):
    base = _parse_atom(ts, alg)
    if not _at_op(ts, "^"):
        return base
    ts.next()
    negative = _at_op(ts, "-")
    if negative:
        ts.next()
    _, digits, col = ts.expect("int", what="an integer exponent")
    if negative:
        s = alg.scalar_of(base)
        if s is None:
            raise ParseError(ts.line, col, "bad-inverse",
                             "negative powers apply only to nonzero parameter/number expressions")
        if s.is_zero():
            raise ParseError(ts.line, col, "division-by-zero", "negative power of zero")
        base = alg.scalar(s.inverse())
    # A plain loop: each step multiplies by the short base, where repeated
    # squaring would multiply two long partial results.
    out = alg.one
    for _ in range(int(digits)):
        out = alg.mul(out, base)
    return out


def _parse_atom(ts: _TokenStream, alg):
    kind, value, col = ts.next()
    if kind == "int":
        return alg.scalar(alg.ring.scalar(int(value)))
    if kind == "ident":
        what = alg.kinds.get(value)
        if what == "parameter":
            return alg.scalar(alg.ring.param(value))
        if what in alg.scope:
            return alg.symbol(value)
        if what == "generator" and alg.scope:
            # the one scope with symbols but no generator: a coefficient's
            raise ParseError(ts.line, 0, "generator-in-coefficient", f"generator {value!r} not allowed here")
        message = f"{alg.holds}, and {value!r} is a {what}" if what else f"undeclared symbol {value!r}"
        raise ParseError(ts.line, col, "undeclared-symbol", message)
    if kind == "op" and value == "(":
        inner = _parse_expr(ts, alg)
        ts.expect("op", ")", "a closing parenthesis")
        return inner
    raise ParseError(ts.line, col, "bad-expression", f"unexpected token {value!r}")


class _CoeffAlgebra:
    """CoeffPoly values: sigma, delta and isigma images, whose symbols are
    the coefficient variables, and wedge constants, scalars in the
    parameters, which have none."""

    def __init__(self, ring: CoeffRing, kinds: dict, scope=("coefficient variable",),
                 holds="a coefficient is a polynomial in the coefficient variables"):
        self.ring = ring
        self.kinds = kinds
        self.scope = scope
        self.holds = holds
        self.one = ring.one()

    def scalar(self, s: Scalar) -> CoeffPoly:
        return self.ring.const(s)

    def symbol(self, name):
        return self.ring.var(self.ring.coeff_vars.index(name))

    @staticmethod
    def mul(a: CoeffPoly, b: CoeffPoly) -> CoeffPoly:
        return a * b

    @staticmethod
    def scalar_of(p: CoeffPoly):
        return p.constant_value() if p.is_constant() else None


class _SkewTerms:
    """Values that are SkewPoly sums over the generators ``gens``; a
    coefficient variable or generator is its element of the frame."""

    scope = ("coefficient variable", "generator")
    holds = "an element of the algebra is written in its symbols"

    def __init__(self, ring: CoeffRing, gens, kinds: dict):
        self.ring = ring
        self.gens = tuple(gens)
        self.kinds = kinds
        self.n = len(self.gens)
        self.names = ring.coeff_vars + self.gens
        self.one = self.scalar(ring.sone())

    def symbol(self, name):
        if name in self.ring.coeff_vars:
            return SkewPoly({(0,) * self.n: self.ring.var(self.ring.coeff_vars.index(name))}, self.n)
        return SkewPoly({tuple(int(g == name) for g in self.gens): self.ring.one()}, self.n)

    def scalar(self, s: Scalar) -> SkewPoly:
        return SkewPoly({} if s.is_zero() else {(0,) * self.n: self.ring.const(s)}, self.n)

    def scalar_of(self, f: SkewPoly):
        zero = (0,) * self.n
        return _CoeffAlgebra.scalar_of(f.terms.get(zero, self.ring.zero())) if f.terms.keys() <= {zero} else None


class _SkewAlgebra(_SkewTerms):
    """Elements of P in normal form: potentials, twist images and
    ``parse_expression``."""

    def __init__(self, P: Presentation, kinds: dict):
        super().__init__(P.ring, P.names, kinds)
        self.P = P

    def mul(self, a: SkewPoly, b: SkewPoly) -> SkewPoly:
        return self.P.multiply(a, b)


class _TailAlgebra(_SkewTerms):
    """Right-hand side of ``rel x_j x_i = ...``, kept as SkewPoly terms keyed
    by generator exponents: ``d x_i x_j + sum_k r_k x_k + r_0``, each
    coefficient written left of its generators.  A product that forms any
    other word raises at once."""

    def __init__(self, ring: CoeffRing, gens, kinds: dict, i: int, j: int, line: int):
        super().__init__(ring, gens, kinds)
        self.line = line
        self.units = [tuple(int(k == m) for m in range(self.n)) for k in range(self.n)]
        self.pair = (self.units[i], self.units[j])
        self.word = (i, j)

    def mul(self, a: SkewPoly, b: SkewPoly) -> SkewPoly:
        acc: dict = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                if any(e1) and not c2.is_constant():
                    raise ParseError(self.line, 0, "coefficient-right-of-generator",
                                     "coefficients must be written left of generators")
                if any(e1) and any(e2) and (e1, e2) != self.pair:
                    raise ParseError(self.line, 0, "tail-shape",
                                     "relation tails are at most linear" if sum(e1) + sum(e2) > 2
                                     else "the quadratic term must be the ordered pair of the left side")
                add_term(acc, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
        return SkewPoly(acc, self.n)

    def relation(self, rhs: SkewPoly) -> tuple:
        """The tails of ``rhs`` as :class:`Presentation` takes them: the
        ordered pair, then the constant, then each linear tail."""
        pair = tuple(x + y for x, y in zip(*self.pair))
        if pair not in rhs.terms:
            raise ParseError(self.line, 0, "zero-d", "the ordered pair needs a nonzero coefficient")
        words = [(pair, self.word), ((0,) * self.n, ())] + [(u, (k,)) for k, u in enumerate(self.units)]
        return tuple((rhs.terms[e], w) for e, w in words if e in rhs.terms)


# -- document parser ----------------------------------------------------------------
#
# Declarations are read first, in document order.  The ring lines are then
# evaluated in the finished coefficient ring, and the calculus lines last,
# once the presentation exists.

# The symbol declarations and the kind each gives its names.  A name listed
# on a ``dgens`` line and declared nowhere else has the kind "dgen".
_KINDS = {"params": "parameter", "coeffs": "coefficient variable", "gens": "generator"}

# The map lines, ``keyword owner: target -> image, ...``.  Per keyword: its
# owners (the generators, or the names on the dgens line); what its targets
# are (a symbol is a coefficient variable or a generator); the field of
# PresentationDoc or CalculusDoc that keeps each owner's images; the image
# of a target no line names: itself, zero, or itself in a "claimed" map,
# which only an owner with a line has; and whether the writer leaves each
# image at its default out (an isigma line claims every image).
_MAP_LINES = {
    "sigma": ("gens", "coefficient variable", "sigma_images", "identity", True),
    "delta": ("gens", "coefficient variable", "delta_images", "zero", True),
    "isigma": ("gens", "coefficient variable", "sigma_inverses", "claimed", False),
    "twist": ("dgens", "symbol", "twist", "identity", True),
    "itwist": ("dgens", "symbol", "itwist", "claimed", True),
}

_DECLARATIONS = {*_KINDS, "name", "invertible", "calculus", "dgens", "options"}
_RING_LINES = {"sigma", "delta", "isigma", "rel"}
_KEYWORDS = _DECLARATIONS | _RING_LINES | {"dgen", "twist", "itwist", "wedge"}


def _map_keywords(owners: str) -> list:
    """The map-line keywords whose owners are ``owners``, in table order."""
    return [keyword for keyword, row in _MAP_LINES.items() if row[0] == owners]


def _default_images(default: str, identity: tuple) -> tuple:
    """A map's images of its targets where no line names them, given the
    identity's: zero for delta."""
    return tuple(img - img for img in identity) if default == "zero" else identity


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.name = None
        # name -> kind, filled by the declaration lines; the tuples params,
        # coeff_vars and gens are read from it once every declaration is read
        self.kinds = {}
        self.maps = {keyword: {} for keyword in _MAP_LINES}  # keyword -> owner -> [(target, image, line, col)]
        self.relations = {}    # (i, j) -> tails
        self.calculus_mode = None
        self.dgen_names = []
        self.dgen_exprs = {}   # dgen -> SkewPoly
        self.wedge = {}        # (i, j) -> Scalar
        self.options = {}      # the options the document sets
        self.ring = None       # CoeffRing, once every declaration is read
        self.skew = None       # _SkewAlgebra over the presentation, in flat mode

    def parse(self) -> PresentationDoc:
        later = []
        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            text = raw.split("#", 1)[0].rstrip()
            if not text.strip():
                continue
            ts = _TokenStream(_tokenize(text, line_no), line_no)
            kind, keyword, col = ts.next()
            if kind != "ident" or keyword not in _KEYWORDS:
                raise ParseError(line_no, col, "unknown-keyword", f"unknown directive {keyword!r}")
            if keyword in _DECLARATIONS:
                self._run(keyword, ts, line_no)
            else:
                later.append((keyword, ts, line_no))
        if self.name is None:
            raise ParseError(0, 0, "missing-name", "document has no name line")
        self.params, self.coeff_vars, self.gens = (
            tuple(n for n, k in self.kinds.items() if k == kind) for kind in _KINDS.values())
        if not self.gens:
            raise ParseError(0, 0, "missing-gens", "document declares no generators")
        self.ring = CoeffRing(self.params, self.coeff_vars)
        for keyword, ts, line_no in later:
            if keyword in _RING_LINES:
                self._run(keyword, ts, line_no)
        return self._build([line for line in later if line[0] not in _RING_LINES])

    def _run(self, keyword, ts, line_no):
        def read():
            if keyword in _KINDS:
                self._declare(ts, line_no, keyword)
            elif keyword in _MAP_LINES:
                self._map_line(ts, line_no, keyword)
            else:
                getattr(self, "_line_" + keyword)(ts, line_no)
        _read_whole(ts, read)

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

    def _declare(self, ts, line_no, keyword):
        """A ``params``, ``coeffs`` or ``gens`` line.  A name listed on a
        ``dgens`` line takes its place among the coefficient variables or
        generators, in either order; no parameter may share it."""
        for n in self._idents(ts, line_no, at_least=int(keyword == "gens")):
            if self.kinds.get(n, "dgen") != "dgen" or n in _KEYWORDS or keyword == "params" and n in self.kinds:
                raise ParseError(line_no, 0, "duplicate-symbol", f"symbol {n!r} already declared")
            self.kinds.pop(n, None)
            self.kinds[n] = _KINDS[keyword]

    def _line_name(self, ts, line_no):
        if self.name is not None:
            raise ParseError(line_no, 0, "duplicate-block", "name declared twice")
        _, value, _ = ts.expect("ident", what="a document name")
        self.name = value

    def _line_invertible(self, ts, line_no):
        raise ParseError(line_no, 1, "laurent-unsupported",
                         "invertible generators are reserved and not supported")

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
        for n in self._idents(ts, line_no, at_least=1):
            if n in self.dgen_names:
                raise ParseError(line_no, 0, "duplicate-symbol", f"dgen {n!r} repeated")
            if self.kinds.get(n) == "parameter":
                raise ParseError(line_no, 0, "duplicate-symbol", f"symbol {n!r} already declared")
            self.dgen_names.append(n)
            self.kinds.setdefault(n, "dgen")

    def _line_options(self, ts, line_no):
        while not ts.done():
            _, key, col = ts.expect("ident", what="an option name")
            ts.expect("op", "=", "an equals sign")
            sign = 1
            if _at_op(ts, "-"):
                ts.next()
                sign = -1
            _, digits, _ = ts.expect("int", what="an integer")
            value = sign * int(digits)
            if key in self.options:
                raise ParseError(line_no, col, "duplicate-option", f"option {key!r} set twice")
            if key not in DEFAULT_OPTIONS:
                raise ParseError(line_no, col, "unknown-option", f"unknown option {key!r}")
            minimum = OPTION_MINIMUMS.get(key)
            if minimum is not None and value < minimum:
                raise ParseError(line_no, col, "option-range",
                                 f"option {key} must be at least {minimum}, got {value}")
            self.options[key] = value

    # -- map lines and relations ------------------------------------------------------

    def _map_line(self, ts, line_no, keyword):
        """A map line, kept as written until the document is built."""
        owners, targets = _MAP_LINES[keyword][:2]
        _, owner, col = ts.expect("ident", what=f"a {keyword} owner")
        if owner not in (self.gens if owners == "gens" else self.dgen_names):
            raise ParseError(line_no, col, "undeclared-symbol", f"{owner!r} is not declared")
        ts.expect("op", ":", "a colon")
        alg = self.skew if targets == "symbol" else _CoeffAlgebra(self.ring, self.kinds)
        entries = self.maps[keyword].setdefault(owner, [])
        while True:
            _, var, col = ts.expect("ident", what="a symbol")
            ts.expect("arrow", what="->")
            entries.append((var, _parse_expr(ts, alg), line_no, col))
            if ts.done():
                return
            ts.expect("op", ",", "a comma")

    def _line_rel(self, ts, line_no):
        _, a, col_a = ts.expect("ident", what="a generator")
        _, b, col_b = ts.expect("ident", what="a generator")
        for name, col in ((a, col_a), (b, col_b)):
            if name not in self.gens:
                raise ParseError(line_no, col, "undeclared-symbol", f"{name!r} is not a generator")
        ts.expect("op", "=", "an equals sign")
        j, i = self.gens.index(a), self.gens.index(b)
        if j <= i:
            raise ParseError(line_no, col_a, "relation-order", "relation must have higher generator first")
        if (i, j) in self.relations:
            raise ParseError(line_no, 0, "duplicate-relation", f"relation for ({a},{b}) repeated")
        tail = _TailAlgebra(self.ring, self.gens, self.kinds, i, j, line_no)
        self.relations[(i, j)] = tail.relation(_parse_expr(ts, tail))

    # -- calculus lines ----------------------------------------------------------------

    def _line_dgen(self, ts, line_no):
        _, name, col = ts.expect("ident", what="a dgen name")
        if name not in self.dgen_names:
            raise ParseError(line_no, col, "undeclared-symbol", f"dgen {name!r} not listed in dgens")
        if name in self.skew.names:
            raise ParseError(line_no, 0, "duplicate-image", f"dgen {name!r} is a symbol; no dgen line allowed")
        ts.expect("op", "=", "an equals sign")
        if name in self.dgen_exprs:
            raise ParseError(line_no, 0, "duplicate-dgen", f"dgen {name!r} defined twice")
        self.dgen_exprs[name] = _parse_expr(ts, self.skew)

    def _line_wedge(self, ts, line_no):
        _, a, col_a = ts.expect("ident", what="a dgen name")
        _, b, col_b = ts.expect("ident", what="a dgen name")
        for name, col in ((a, col_a), (b, col_b)):
            if name not in self.dgen_names:
                raise ParseError(line_no, col, "undeclared-symbol", f"dgen {name!r} not listed in dgens")
        ts.expect("op", "=", "an equals sign")
        ia, ib = self.dgen_names.index(a), self.dgen_names.index(b)
        if ia >= ib:
            raise ParseError(line_no, 0, "wedge-order", "wedge constants are keyed earlier, later")
        if (ia, ib) in self.wedge:
            raise ParseError(line_no, 0, "duplicate-wedge", f"wedge constant for ({a},{b}) repeated")
        alg = _CoeffAlgebra(CoeffRing(self.params), self.kinds, (), "a wedge constant is a scalar in the parameters")
        s = _parse_expr(ts, alg).constant_value()
        if s.is_zero():
            raise ParseError(line_no, 0, "bad-wedge", "wedge constants are nonzero")
        self.wedge[(ia, ib)] = s

    # -- assembly --------------------------------------------------------------------------------

    def _resolve(self, holder, keywords, owners, names, identity):
        """Put the maps of each ``(key, owner)`` of ``owners`` on the lines of
        ``keywords`` into the fields of ``holder``: the default images of the
        targets ``names``, with each written image in its target's place."""
        for key, owner in owners:
            for keyword in keywords:
                _, targets, field_name, default, _ = _MAP_LINES[keyword]
                entries = self.maps[keyword].get(owner)
                if entries is None and default == "claimed":
                    continue
                written = {}
                for var, image, line, col in entries or ():
                    if var not in names:
                        raise ParseError(line, col, "undeclared-symbol", f"{var!r} is not a {targets}")
                    if var in written:
                        raise ParseError(line, col, "duplicate-image", f"two images for {var!r}")
                    written[var] = image
                images = zip(names, _default_images(default, identity))
                getattr(holder, field_name)[key] = tuple(written.get(var, img) for var, img in images)

    def _build(self, calculus_lines) -> PresentationDoc:
        ring = self.ring
        doc = PresentationDoc(name=self.name, params=self.params, coeff_vars=self.coeff_vars, gens=self.gens,
                              sigma_images={}, sigma_inverses={}, delta_images={}, relations=self.relations,
                              calculus=None, options={**DEFAULT_OPTIONS, **self.options})
        identity = tuple(ring.var(j) for j in range(ring.nvars))
        self._resolve(doc, _map_keywords("gens"), enumerate(self.gens), self.coeff_vars, identity)
        n = len(self.gens)
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in self.relations:
                    raise ParseError(0, 0, "missing-relation",
                                     f"no relation declared for pair ({self.gens[j]},{self.gens[i]})")
        doc.calculus = self._build_calculus_doc(doc, calculus_lines)
        return doc

    def _build_calculus_doc(self, doc, calculus_lines):
        if self.calculus_mode is None:
            if self.dgen_names or calculus_lines:
                raise ParseError(0, 0, "missing-block", "calculus lines without a calculus block")
            return None
        cal = CalculusDoc(mode=self.calculus_mode)
        if self.calculus_mode == "theorem":
            if self.dgen_names or calculus_lines:
                raise ParseError(0, 0, "theorem-mode-fixed",
                                 "theorem mode derives its generators and twists; remove the extra lines")
            return cal
        if not self.dgen_names:
            raise ParseError(0, 0, "missing-dgens", "flat mode needs a dgens line")
        try:
            P = build_presentation(doc)
        except MapError as exc:
            raise ParseError(0, 0, "bad-inverse", str(exc)) from exc
        self.skew = _SkewAlgebra(P, self.kinds)
        for keyword, ts, line_no in calculus_lines:
            self._run(keyword, ts, line_no)
        cal.dgen_names = tuple(self.dgen_names)
        symbols = self.skew.names
        for name in self.dgen_names:
            if name in symbols:
                cal.potentials[name] = P.symbol(symbols.index(name))
            elif name in self.dgen_exprs:
                cal.potentials[name] = self.dgen_exprs[name]
            else:
                raise ParseError(0, 0, "missing-dgen", f"dgen {name!r} is not a symbol and has no dgen line")
        self._resolve(cal, _map_keywords("dgens"), zip(self.dgen_names, self.dgen_names), symbols, P.frame())
        cal.wedge = self.wedge
        return cal


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


# -- public API --------------------------------------------------------------------------------


def parse_presentation(source: str) -> PresentationDoc:
    """Validated document, or ParseError with line, column and code."""
    return _Parser(source).parse()


def build_presentation(doc: PresentationDoc) -> Presentation:
    """The presentation; a sigma without a claimed inverse gets the
    mechanical one when it is diagonal-affine, else none."""
    ring = doc.ring()
    sigmas, deltas = [], []
    for i in range(len(doc.gens)):
        images = doc.sigma_images[i]
        inv = doc.sigma_inverses[i] if i in doc.sigma_inverses else _diagonal_affine_inverse(ring, images)
        sigmas.append(CoeffEndo(images, inv))
        deltas.append(CoeffSigmaDerivation(doc.delta_images[i], sigmas[-1]))
    return Presentation(ring, doc.gens, sigmas, deltas, doc.relations)


def parse_expression(doc: PresentationDoc, source: str, P: Presentation | None = None) -> SkewPoly:
    """One expression over the document's symbols, in normal form."""
    kinds = dict.fromkeys(doc.calculus.dgen_names if doc.calculus else (), "dgen")
    for kind, names in zip(_KINDS.values(), (doc.params, doc.coeff_vars, doc.gens)):
        kinds.update(dict.fromkeys(names, kind))
    alg = _SkewAlgebra(build_presentation(doc) if P is None else P, kinds)
    ts = _TokenStream(_tokenize(source, 1), 1)
    return _read_whole(ts, lambda: _parse_expr(ts, alg))


# -- rendering (reparse-safe) ---------------------------------------------------------------------


def _render_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}*{f.denominator}^-1"


def _render_scalar_dsl(s: Scalar, params) -> str:
    num = render_sum(s.num, params, _render_fraction)
    if s.den == poly_one(s.nparams):
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


def render_presentation(doc: PresentationDoc) -> str:
    """Canonical text form; reparses to an equal document.  The one writer
    of ``.spbw`` text: it reads the document alone and builds no
    presentation, and leaves out each map-line image at its default where
    ``_MAP_LINES`` says so (every one but an isigma line's), though a
    claimed map whose every image is at its default still writes its
    first."""
    ring = doc.ring()
    lines = [f"name {doc.name}"]
    if doc.params:
        lines.append("params " + " ".join(doc.params))
    if doc.coeff_vars:
        lines.append("coeffs " + " ".join(doc.coeff_vars))
    lines.append("gens " + " ".join(doc.gens))

    def map_lines(holder, keywords, owners, names, identity, render):
        for key, owner in owners:
            for keyword in keywords:
                _, _, field_name, default, sparse = _MAP_LINES[keyword]
                images = getattr(holder, field_name).get(key)
                if images is None:
                    continue
                shown = [(var, img) for var, img, at
                         in zip(names, images, _default_images(default, identity)) if not sparse or img != at]
                if default == "claimed" and not shown:
                    shown = [(names[0], images[0])]  # a claimed map needs its line, even at its defaults
                if shown:
                    lines.append(f"{keyword} {owner}: " + ", ".join(f"{var} -> {render(img)}" for var, img in shown))

    def coeff(c: CoeffPoly) -> str:
        return _render_coeff_dsl(c, doc.params, doc.coeff_vars)

    def skew(f: SkewPoly) -> str:
        return render_sum(f.terms, doc.gens, coeff)

    identity = tuple(ring.var(j) for j in range(ring.nvars))
    map_lines(doc, _map_keywords("gens"), enumerate(doc.gens), doc.coeff_vars, identity, coeff)

    for (i, j), tails in sorted(doc.relations.items()):
        rhs = []
        # the ordered pair first, then the linear tails in generator order,
        # then the constant
        for c, w in sorted(tails, key=lambda cw: (-len(cw[1]), cw[1])):
            cs = coeff(c)
            if not w:
                rhs.append(f"({cs})" if is_spaced_sum(cs) or cs.startswith("-") else cs)
                continue
            term = " ".join(doc.gens[k] for k in w)
            if cs != "1":
                term = f"({cs}) * {term}" if is_spaced_sum(cs) else f"{cs} * {term}"
            rhs.append(term)
        lines.append(f"rel {doc.gens[j]} {doc.gens[i]} = " + " + ".join(rhs))

    if doc.calculus is not None:
        cal = doc.calculus
        lines.append(f"calculus mode={cal.mode}")
        if cal.mode == "flat":
            lines.append("dgens " + " ".join(cal.dgen_names))
            terms = _SkewTerms(ring, doc.gens, {})
            for name in cal.dgen_names:
                if name not in terms.names:
                    lines.append(f"dgen {name} = {skew(cal.potentials[name])}")
            frame = tuple(map(terms.symbol, terms.names))
            map_lines(cal, _map_keywords("dgens"), zip(cal.dgen_names, cal.dgen_names), terms.names, frame, skew)
            for (ia, ib), s in sorted(cal.wedge.items()):
                lines.append(
                    f"wedge {cal.dgen_names[ia]} {cal.dgen_names[ib]} = "
                    + _render_scalar_dsl(s, doc.params)
                )

    opts = " ".join(f"{k}={v}" for k, v in sorted(doc.options.items()) if v != DEFAULT_OPTIONS[k])
    if opts:
        lines.append("options " + opts)
    return "\n".join(lines) + "\n"
