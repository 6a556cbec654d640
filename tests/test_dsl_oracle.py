"""The expression evaluator against independent references: a free-word
expansion normalized word by word, closed forms, and a bound on its work."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spbw.core import Presentation, SkewPoly
from spbw.corpus import corpus_doc
from spbw.dsl import build_presentation, parse_expression, parse_presentation

ORACLE_NAMES = ("weyl", "jordan", "aq", "qaffine3")
MAX_WORDS = 64
MAX_LENGTH = 8

# -- expression trees, their text and their free-word expansion ----------------
#
# A tree is ("sym", name), ("int", n), (op, a, b) for op in add, sub, mul and
# jux (juxtaposition), ("neg", a) or ("pow", a, k).


@st.composite
def trees(draw, names, depth=2):
    """A sum of one to three terms, each a product of one or two factors;
    a factor is a leaf or, above depth 0, a nested tree, possibly raised to
    a power and possibly negated."""

    def leaf():
        if draw(st.integers(0, 3)):
            return ("sym", draw(st.sampled_from(names)))
        return ("int", draw(st.integers(0, 3)))

    def factor(d):
        out = leaf() if d == 0 or draw(st.booleans()) else expr(d - 1)
        if draw(st.booleans()):
            out = ("pow", out, draw(st.integers(0, 3)))
        return ("neg", out) if draw(st.integers(0, 3)) == 0 else out

    def combine(parts, ops):
        out = parts[0]
        for part in parts[1:]:
            out = (draw(st.sampled_from(ops)), out, part)
        return out

    def expr(d):
        terms = [combine([factor(d) for _ in range(draw(st.integers(1, 2)))], ("mul", "jux"))
                 for _ in range(draw(st.integers(1, 3)))]
        return combine(terms, ("add", "sub"))

    return expr(depth)


# Binding strength of each form, as the grammar reads it: sums, products,
# unary minus, powers, atoms.
_LEVEL = {"add": 1, "sub": 1, "mul": 2, "jux": 2, "neg": 3, "pow": 4, "sym": 5, "int": 5}


def render(tree, at_least=0) -> str:
    """Text of the tree, parenthesized only where the grammar needs it."""
    op = tree[0]
    if op in ("sym", "int"):
        text = str(tree[1])
    elif op in ("add", "sub"):
        text = f"{render(tree[1], 1)} {'+' if op == 'add' else '-'} {render(tree[2], 2)}"
    elif op == "mul":
        text = f"{render(tree[1], 2)}*{render(tree[2], 3)}"
    elif op == "jux":
        text = f"{render(tree[1], 2)} {render(tree[2], 4)}"
    elif op == "neg":
        text = "-" + render(tree[1], 3)
    else:
        text = f"{render(tree[1], 5)}^{tree[2]}"
    return text if _LEVEL[op] >= at_least else f"({text})"


def free_words(tree, ring):
    """Expansion into (Scalar, word) pairs with no merging: the word lists
    symbol names in multiplication order, parameters fold into the scalar."""
    op = tree[0]
    if op == "int":
        return [(ring.scalar(tree[1]), ())]
    if op == "sym":
        name = tree[1]
        return [(ring.param(name), ())] if name in ring.params else [(ring.sone(), (name,))]
    if op == "neg":
        return [(-s, w) for s, w in free_words(tree[1], ring)]
    if op == "pow":
        out = [(ring.sone(), ())]
        for _ in range(tree[2]):
            out = _mul_free(out, free_words(tree[1], ring))
        return out
    a, b = free_words(tree[1], ring), free_words(tree[2], ring)
    if op == "add":
        return a + b
    if op == "sub":
        return a + [(-s, w) for s, w in b]
    return _mul_free(a, b)


def small(tree):
    """``(words, length)``: how many free words the tree expands to and how
    long the longest is, without expanding it; None when the tree or any of
    its parts exceeds MAX_WORDS words or MAX_LENGTH symbols."""
    op = tree[0]
    if op in ("sym", "int"):
        return 1, int(op == "sym")
    parts = [small(part) for part in tree[1:] if isinstance(part, tuple)]
    if None in parts:
        return None
    (n1, l1), *rest = parts
    if op == "neg":
        n, length = n1, l1
    elif op == "pow":
        n, length = n1 ** tree[2], l1 * tree[2]
    elif op in ("add", "sub"):
        n, length = n1 + rest[0][0], max(l1, rest[0][1])
    else:
        n, length = n1 * rest[0][0], l1 + rest[0][1]
    return (n, length) if n <= MAX_WORDS and length <= MAX_LENGTH else None


def _mul_free(a, b):
    return [(s1 * s2, w1 + w2) for s1, w1 in a for s2, w2 in b]


def reference(P: Presentation, words) -> SkewPoly:
    """Normalize every free word on its own and sum the results."""
    ring = P.ring
    terms = []
    for s, word in words:
        atoms = [ring.var(ring.coeff_vars.index(n)) if n in ring.coeff_vars else P.names.index(n) for n in word]
        terms.append((ring.const(s), atoms))
    return P.normalize(terms)


@pytest.fixture(scope="module")
def algebras():
    out = {}
    for name in ORACLE_NAMES:
        doc = corpus_doc(name)
        out[name] = (doc, build_presentation(doc))
    return out


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_evaluator_matches_free_word_expansion(name, algebras):
    doc, P = algebras[name]
    names = doc.params + doc.coeff_vars + doc.gens

    @settings(max_examples=40, derandomize=True, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(trees(names))
    def check(tree):
        assume(small(tree) is not None)
        text = render(tree)
        assert parse_expression(doc, text, P) == reference(P, free_words(tree, P.ring)), text

    check()


# -- closed forms ------------------------------------------------------------------


def test_weyl_power_of_sum_closed_form():
    # x2 x1 = x1 x2 - 1, so [x1, x2] = 1 and e^(x1 + x2) = e^x1 e^x2 e^(-1/2):
    # (x1 + x2)^k = sum over i + j + 2m = k of k!/(i! j! m!) (-1/2)^m x1^i x2^j.
    k = 16
    doc = corpus_doc("weyl")
    P = build_presentation(doc)
    terms = {}
    for m in range(k // 2 + 1):
        for i in range(k - 2 * m + 1):
            j = k - 2 * m - i
            c = Fraction(factorial(k), factorial(i) * factorial(j) * factorial(m)) * Fraction(-1, 2) ** m
            terms[(i, j)] = P.ring.const(c)
    assert parse_expression(doc, f"(x1 + x2)^{k}", P) == SkewPoly(terms, 2)


@pytest.mark.parametrize("source, read", [
    pytest.param("name d\ncoeffs t\ngens x\nsigma x: t -> (t + 1)^30\n",
                 lambda doc: doc.sigma_images[0][0], id="sigma"),
    pytest.param("name d\ncoeffs t\ngens x1 x2\nrel x2 x1 = x1 x2 + (t + 1)^30\n",
                 lambda doc: build_presentation(doc).relation_rhs(0, 1).terms[(0, 0)], id="rel"),
])
def test_binomial_power_in_coefficient_lines(source, read):
    doc = parse_presentation(source)
    ring = doc.ring()
    expected = ring.zero()
    for i in range(31):
        expected = expected + ring.monomial((i,), comb(30, i))
    assert read(doc) == expected


def test_power_of_sum_work_is_linear_in_the_exponent(monkeypatch):
    calls = []
    multiply = Presentation.multiply

    def counted(self, f, g):
        calls.append(1)
        return multiply(self, f, g)

    doc = corpus_doc("weyl")
    P = build_presentation(doc)
    monkeypatch.setattr(Presentation, "multiply", counted)
    parse_expression(doc, "(x1 + x2)^10", P)
    assert len(calls) <= 20
