"""`spbw.linalg` against sympy as an independent oracle, plus work bounds.

sympy is a test-only dependency.  Its ``DomainMatrix`` computes over the
exact field QQ or QQ(q0, q1): ``nullspace`` for kernels, ``lu_solve`` and
``inv`` for the solvers.
Matrices are seeded random sparse matrices over Q and over Q(q) with one or
two parameters; low-rank ones are built as products of thin factors, so
entries cancel during elimination.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

import spbw.linalg
from spbw.linalg import inverse, kernel_basis, solve
from spbw.scalars import Scalar

PARAMS = (sympy.Symbol("q0"), sympy.Symbol("q1"))


def field(nparams):
    return sympy.QQ.frac_field(*PARAMS[:nparams]) if nparams else sympy.QQ


def to_sympy(s: Scalar, K):
    """The scalar as an element of sympy's field ``K``."""
    def poly(p):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x**k for x, k in zip(PARAMS, e)))
            for e, c in p.items()
        ))

    return K.from_sympy(poly(s.num)) / K.from_sympy(poly(s.den))


def sym_matrix(rows, ncols, nparams):
    K = field(nparams)
    return DomainMatrix([[to_sympy(x, K) for x in row] for row in rows], (len(rows), ncols), K)


def assert_same(ours: Scalar, theirs, nparams) -> None:
    assert to_sympy(ours, field(nparams)) == theirs, (ours, theirs)


def random_entry(rng, nparams):
    """A nonzero small scalar: rational, or a low-degree parameter
    polynomial, sometimes over a parametric denominator."""
    c = Scalar.const(nparams, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3])))
    if nparams == 0:
        return c
    x = c
    for _ in range(rng.randrange(3)):
        x = x * Scalar.param(nparams, rng.randrange(nparams)) + Scalar.const(nparams, rng.randrange(-2, 3))
    if x.is_zero():
        x = c
    if rng.random() < 0.3:
        den = Scalar.param(nparams, rng.randrange(nparams)) + Scalar.const(nparams, rng.choice([-1, 1, 2]))
        x = x / den
    return x


def random_sparse(rng, nrows, ncols, nparams, density=0.35):
    zero = Scalar.const(nparams, 0)
    return [
        [random_entry(rng, nparams) if rng.random() < density else zero for _ in range(ncols)]
        for _ in range(nrows)
    ]


def product(a, b, nparams):
    zero = Scalar.const(nparams, 0)
    out = []
    for row in a:
        cells = []
        for j in range(len(b[0])):
            acc = zero
            for k, x in enumerate(row):
                if not x.is_zero() and not b[k][j].is_zero():
                    acc = acc + x * b[k][j]
            cells.append(acc)
        out.append(cells)
    return out


def low_rank(rng, nrows, ncols, rank, nparams):
    """A product of an nrows x rank and a rank x ncols sparse factor."""
    return product(random_sparse(rng, nrows, rank, nparams, 0.6),
                   random_sparse(rng, rank, ncols, nparams, 0.6), nparams)


def dense(row, ncols, nparams):
    """A row given as a dict or a dense list, as a dense list."""
    if not isinstance(row, dict):
        return row
    zero = Scalar.const(nparams, 0)
    return [row.get(c, zero) for c in range(ncols)]


def check_kernel(rows, ncols, nparams):
    ours = kernel_basis(rows, ncols, nparams)
    theirs = sym_matrix([dense(r, ncols, nparams) for r in rows], ncols, nparams).nullspace(divide_last=True).to_list()
    assert len(ours) == len(theirs)
    # One vector per free column, 1 there and 0 in the other free columns;
    # its other entries lie in earlier (pivot) columns, so its last nonzero
    # entry is that 1.
    for v, w in zip(ours, theirs):
        assert len(v) == ncols
        for x, y in zip(v, w):
            assert_same(x, y, nparams)
    return ours


CASES = [(nparams, seed) for nparams in (0, 1, 2) for seed in range(4)]


@pytest.mark.parametrize("nparams,seed", CASES)
def test_kernel_matches_sympy_on_random_sparse(nparams, seed):
    rng = random.Random(f"kernel:{nparams}:{seed}")
    nrows, ncols = rng.randrange(3, 8), rng.randrange(3, 8)
    check_kernel(random_sparse(rng, nrows, ncols, nparams), ncols, nparams)


@pytest.mark.parametrize("nparams,seed", CASES)
def test_kernel_matches_sympy_rank_deficient(nparams, seed):
    # Small on purpose: unreduced parametric scalars swell during
    # elimination (6 x 7 of rank 3 over Q(q0, q1) reaches 1,717 terms).
    rng = random.Random(f"lowrank:{nparams}:{seed}")
    nrows, ncols = rng.randrange(3, 6), rng.randrange(3, 6)
    rows = low_rank(rng, nrows, ncols, rng.randrange(1, 3), nparams)
    kernel = check_kernel(rows, ncols, nparams)
    assert len(kernel) >= ncols - 2


@pytest.mark.parametrize("nparams", (0, 1, 2))
def test_kernel_with_zero_rows(nparams):
    rng = random.Random(f"zero-rows:{nparams}")
    zero = Scalar.const(nparams, 0)
    rows = random_sparse(rng, 4, 6, nparams)
    rows[1:1] = [[zero] * 6, [zero] * 6]
    check_kernel(rows, 6, nparams)
    assert len(kernel_basis([[zero] * 5] * 3, 5, nparams)) == 5
    assert len(kernel_basis([], 3, nparams)) == 3


def test_kernel_entries_that_cancel_are_never_pivots():
    # Eliminating column 0 cancels row 1 at column 1 (q*q - q^2) and row 2
    # entirely (1 - 1, q - q); column 1 is then free and column 2 pivots on
    # row 1.
    nparams = 1
    q = Scalar.param(1, 0)
    one, zero = Scalar.const(1, 1), Scalar.const(1, 0)
    rows = [
        [q, q * q, zero],
        [one, q, one],
        [one, q, zero],
    ]
    kernel = check_kernel(rows, 3, nparams)
    assert len(kernel) == 1
    assert kernel[0][0] == -q and kernel[0][1] == one and kernel[0][2].is_zero()


def test_kernel_accepts_sparse_rows_and_leaves_them_alone():
    rng = random.Random("sparse-rows")
    dense = low_rank(rng, 6, 7, 3, 1)
    sparse = [{c: x for c, x in enumerate(row) if not x.is_zero()} for row in dense]
    before = [dict(row) for row in sparse]
    a = kernel_basis(dense, 7, 1)
    b = kernel_basis(sparse, 7, 1)
    assert len(a) == len(b) and all(x == y for v, w in zip(a, b) for x, y in zip(v, w))
    assert sparse == before


@pytest.mark.parametrize("nparams,seed", CASES)
def test_kernel_peels_single_entry_rows(nparams, seed):
    # Dict rows mixing single-entry and multi-entry rows: a single-entry row
    # after a multi-entry row that shares its column, two single-entry rows
    # in one column, and random rows, some of them single-entry too.
    rng = random.Random(f"peel:{nparams}:{seed}")
    ncols = rng.randrange(5, 9)
    rows = [{c: x for c, x in enumerate(row) if not x.is_zero()}
            for row in random_sparse(rng, rng.randrange(2, 6), ncols, nparams, 0.3)]
    a, b, c = rng.sample(range(ncols), 3)
    at = rng.randrange(len(rows) + 1)
    rows.insert(at, {a: random_entry(rng, nparams), b: random_entry(rng, nparams)})
    rows.insert(rng.randrange(at + 1, len(rows) + 1), {a: random_entry(rng, nparams)})
    for _ in range(2):
        rows.insert(rng.randrange(len(rows) + 1), {c: random_entry(rng, nparams)})
    before = [dict(row) for row in rows]
    kernel = check_kernel(rows, ncols, nparams)
    assert rows == before
    assert all(v[a].is_zero() and v[c].is_zero() for v in kernel)


def _entries(row):
    """A row's type, its keys when it is a dict, and its value objects."""
    if isinstance(row, dict):
        return dict, list(row), list(row.values())
    return type(row), None, list(row)


@pytest.mark.parametrize("nparams,seed", CASES)
def test_kernel_on_a_mix_of_dense_sparse_and_empty_rows(nparams, seed):
    """Dense and sparse rows, empty ones of both kinds, a dense row with a
    single entry (which forces its column like a sparse one), and
    multi-entry rows that lose all but one entry, or every entry, to the
    forced columns.  The input rows keep their entries and their order."""
    rng = random.Random(f"mix:{nparams}:{seed}")
    ncols = rng.randrange(6, 10)
    zero = Scalar.const(nparams, 0)
    a, b, c, d = rng.sample(range(ncols), 4)
    single_dense = [zero] * ncols
    single_dense[a] = random_entry(rng, nparams)
    rows = [
        {b: random_entry(rng, nparams)},
        single_dense,
        {},
        [zero] * ncols,
        {a: random_entry(rng, nparams), b: random_entry(rng, nparams), c: random_entry(rng, nparams)},
        {b: random_entry(rng, nparams), a: random_entry(rng, nparams)},
        [random_entry(rng, nparams) if k in (a, d) else zero for k in range(ncols)],
    ]
    rows += random_sparse(rng, rng.randrange(1, 4), ncols, nparams, 0.4)
    rows += [{k: x for k, x in enumerate(row) if not x.is_zero()}
             for row in random_sparse(rng, rng.randrange(1, 4), ncols, nparams, 0.4)]
    rng.shuffle(rows)
    before = [_entries(row) for row in rows]
    kernel = check_kernel(rows, ncols, nparams)
    after = [_entries(row) for row in rows]
    assert len(after) == len(before)
    for (t0, k0, v0), (t1, k1, v1) in zip(before, after):
        assert t0 is t1 and k0 == k1 and len(v0) == len(v1)
        assert all(x is y for x, y in zip(v0, v1))
    assert all(v[a].is_zero() and v[b].is_zero() for v in kernel)


def test_single_entry_rows_make_no_scalar_arithmetic(monkeypatch):
    n = 60
    rng = random.Random("all-single")
    rows = [{rng.randrange(n): random_entry(rng, 2)} for _ in range(2 * n)]
    calls = {"inverse": 0, "__mul__": 0}
    for attr in calls:
        def counted(*args, _method=getattr(Scalar, attr), _attr=attr):
            calls[_attr] += 1
            return _method(*args)
        monkeypatch.setattr(Scalar, attr, counted)
    kernel = kernel_basis(rows, n, 2)
    assert calls == {"inverse": 0, "__mul__": 0}
    free = [c for c in range(n) if all(c not in row for row in rows)]
    assert [[c for c, x in enumerate(v) if not x.is_zero()] for v in kernel] == [[c] for c in free]


@pytest.mark.parametrize("nparams,seed", CASES)
def test_solve_and_inverse_match_sympy(nparams, seed):
    rng = random.Random(f"solve:{nparams}:{seed}")
    n = rng.randrange(2, 5)  # small for the same swell as above
    one = Scalar.const(nparams, 1)
    # a random sparse matrix plus the identity, so singular draws are rare
    m = random_sparse(rng, n, n, nparams)
    for i in range(n):
        m[i][i] = m[i][i] + one
    sm = sym_matrix(m, n, nparams)
    if sm.det() == field(nparams).zero:
        assert solve(m, [[one] * n], nparams) is None and inverse(m, nparams) is None
        return
    rhs = random_sparse(rng, 2, n, nparams, 0.6)
    columns = solve(m, rhs, nparams)
    assert len(columns) == 2
    for col, b in zip(columns, rhs):
        theirs = sm.lu_solve(sym_matrix([[x] for x in b], 1, nparams)).to_list()
        for x, (y,) in zip(col, theirs):
            assert_same(x, y, nparams)
    ours = inverse(m, nparams)
    theirs = sm.inv().to_list()
    for row, srow in zip(ours, theirs):
        for x, y in zip(row, srow):
            assert_same(x, y, nparams)


@pytest.mark.parametrize("nparams", (0, 1, 2))
def test_solve_and_inverse_none_when_singular(nparams):
    rng = random.Random(f"singular:{nparams}")
    one = Scalar.const(nparams, 1)
    m = low_rank(rng, 4, 4, 2, nparams)
    assert sym_matrix(m, 4, nparams).rank() < 4
    assert solve(m, [[one] * 4], nparams) is None
    assert inverse(m, nparams) is None
    # a zero row, and a row that is the sum of two others
    q = Scalar.param(nparams, 0) if nparams else Scalar.const(0, 5)
    zero = Scalar.const(nparams, 0)
    assert inverse([[one, q], [zero, zero]], nparams) is None
    assert inverse([[one, q, zero], [zero, one, q], [one, q + one, q]], nparams) is None


# -- work -----------------------------------------------------------------------------


def count_muls(monkeypatch, fn):
    count = [0]
    mul = Scalar.__mul__

    def counted(a, b):
        count[0] += 1
        return mul(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(Scalar, "__mul__", counted)
        result = fn()
    return result, count[0]


def test_kernel_work_linear_on_lower_bidiagonal(monkeypatch):
    # Gauss-Jordan creates no fill-in here: each pivot row holds only its
    # pivot once the row above has been eliminated.
    n = 200
    zero = Scalar.const(0, 0)
    rows = []
    for i in range(n):
        row = [zero] * n
        row[i] = Scalar.const(0, Fraction(i + 2, 3))
        if i:
            row[i - 1] = Scalar.const(0, Fraction(-1, i + 1))
        rows.append(row)
    kernel, muls = count_muls(monkeypatch, lambda: kernel_basis(rows, n, 0))
    assert kernel == []
    assert muls <= 10 * n


def test_kernel_work_linear_on_one_entry_per_row(monkeypatch):
    # the shape of the connectedness matrices: 2n x n, one nonzero per row
    n = 200
    rng = random.Random("one-per-row")
    zero = Scalar.const(1, 0)
    rows = []
    for _ in range(2 * n):
        row = [zero] * n
        row[rng.randrange(n)] = random_entry(rng, 1)
        rows.append(row)
    kernel, muls = count_muls(monkeypatch, lambda: kernel_basis(rows, n, 1))
    hit = {c for row in rows for c, x in enumerate(row) if not x.is_zero()}
    assert len(kernel) == n - len(hit)
    assert muls <= 10 * n


def test_single_entry_pivots_make_no_elimination_work(monkeypatch):
    # a pivot row with no other entry only drops its column from the other
    # rows: no inverse and no elimination factor inside _gauss_jordan
    n = 60
    rng = random.Random("single-entry")
    rows = [{rng.randrange(n): random_entry(rng, 1)} for _ in range(2 * n)]
    calls = {"inverse": 0, "__mul__": 0}
    active = [False]
    for attr in calls:
        def counted(*args, _method=getattr(Scalar, attr), _attr=attr):
            if active[0]:
                calls[_attr] += 1
            return _method(*args)
        monkeypatch.setattr(Scalar, attr, counted)
    gauss_jordan = spbw.linalg._gauss_jordan

    def traced(*args):
        active[0] = True
        try:
            return gauss_jordan(*args)
        finally:
            active[0] = False

    monkeypatch.setattr(spbw.linalg, "_gauss_jordan", traced)
    kernel = kernel_basis(rows, n, 1)
    assert calls == {"inverse": 0, "__mul__": 0}
    hit = sorted({c for row in rows for c in row})
    free = [c for c in range(n) if c not in hit]
    assert len(hit) < n - 5
    # one unit vector per free column
    assert [[c for c, x in enumerate(v) if not x.is_zero()] for v in kernel] == [[c] for c in free]
    assert all(v[c].is_one() for v, c in zip(kernel, free))


@pytest.mark.parametrize("nparams", (0, 1))
def test_a_pivot_alone_in_its_column_is_not_inverted_twice(nparams, monkeypatch):
    # each column of a matrix that is diagonal up to a row order is held by
    # one row, so elimination takes no inverse and solve inverts each pivot
    # once; the solutions still match sympy
    rng = random.Random(f"alone:{nparams}")
    n = 6
    zero = Scalar.const(nparams, 0)
    order = list(range(n))
    rng.shuffle(order)
    m = [[random_entry(rng, nparams) if c == order[r] else zero for c in range(n)] for r in range(n)]
    rhs = random_sparse(rng, 2, n, nparams, 0.8)
    inverses = []
    inverse_method = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda self: inverses.append(self) or inverse_method(self))
    columns = solve(m, rhs, nparams)
    assert len(inverses) == n
    sm = sym_matrix(m, n, nparams)
    for col, b in zip(columns, rhs):
        theirs = sm.lu_solve(sym_matrix([[x] for x in b], 1, nparams)).to_list()
        for x, (y,) in zip(col, theirs):
            assert_same(x, y, nparams)
