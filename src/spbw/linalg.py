"""Exact sparse linear algebra over the scalar field, used for kernel
computation and for inverting frame-affine maps.

A row is a dict from column index to a nonzero
:class:`~spbw.scalars.Scalar`; a missing column is zero.  The entry points
also take a dense sequence of Scalars, zeros included, and drop its zeros
on the way in.  The caller's rows are never modified.  One Gauss-Jordan
elimination serves :func:`kernel_basis`, :func:`solve` and :func:`inverse`.
Its pivot rule: for each column in order, the first unused row (in the
given row order) with an entry there.  An update touches only the entries
of the pivot row, and an entry that cancels to zero is removed from its
row, so a zero is never a pivot.  A pivot alone in its column is left as
it is, and a pivot row with no other entry only removes its column from the
other rows; neither takes an inverse or an elimination factor.

:func:`kernel_basis` splits its rows in one pass: a row with a single
entry forces its column to be a pivot column, with a unit vector as its
row of the reduced row echelon form, and an empty row is dropped.  Only the
rows with more entries, without the forced columns, go through the
elimination.  That form is unique, so the kernel vectors take the same
values as if every row were eliminated.  Most connectedness matrices have
one entry per row, and there nothing is eliminated.  No floating point.
"""

from __future__ import annotations

from collections import defaultdict

from .scalars import Scalar


def _sparse(row) -> dict:
    """A fresh sparse row from a dense sequence of Scalars, without its
    zeros."""
    return {c: x for c, x in enumerate(row) if not x.is_zero()}


def _gauss_jordan(rows, ncols):
    """Gauss-Jordan elimination, in place, on the columns below ``ncols`` of
    the sparse ``rows``; entries in later columns (augmented columns) are
    carried along.  Returns the list of (pivot_col, row), in column order.

    Afterwards each pivot row is zero in every other pivot column and in
    every column before its own."""
    holders = defaultdict(set)  # column -> indices of the rows with an entry there
    for i, row in enumerate(rows):
        for c in row:
            holders[c].add(i)
    used = set()
    pivots = []
    # elimination only adds entries in columns of the pivot row, so only
    # the columns that the rows hold at the start can ever hold a pivot
    for col in sorted(c for c in holders if c < ncols):
        here = holders[col]
        p = min((i for i in here if i not in used), default=None)
        if p is None:
            continue
        used.add(p)
        pivot_row = rows[p]
        if len(pivot_row) == 1:
            # the pivot is its row's only entry: eliminating it only drops
            # the column from the other rows
            for i in here:
                if i != p:
                    del rows[i][col]
        elif len(here) > 1:  # a pivot alone in its column has nothing to eliminate
            _eliminate(rows, holders, p, col)
        holders[col] = {p}
        pivots.append((col, pivot_row))
    return pivots


def _eliminate(rows, holders, p, col):
    """Clear ``col`` from every row but the pivot row ``p`` by subtracting
    multiples of it, keeping ``holders`` in step."""
    pivot_row = rows[p]
    inv = pivot_row[col].inverse()
    for i in holders[col]:
        if i == p:
            continue
        r = rows[i]
        factor = r.pop(col) * inv
        for c, x in pivot_row.items():
            if c == col:
                continue
            old = r.get(c)
            new = -(factor * x) if old is None else old - factor * x
            if new.is_zero():
                del r[c]
                holders[c].discard(i)
            else:
                if old is None:
                    holders[c].add(i)
                r[c] = new


def kernel_basis(rows, ncols, nparams):
    """Basis of the right kernel of the matrix (column-vector solutions).

    ``rows`` is a list of rows, each a dict from column to nonzero Scalar or
    a dense sequence of Scalars; the input is not modified.  Returns one dense
    vector (a list of Scalars) per free column, in increasing order of that
    column, spanning ``{v : rows . v = 0}``: 1 in its free column, 0 in the
    other free columns and in every column of a single-entry row.  One pass
    splits the rows into forced columns and rows to eliminate.
    """
    zero = Scalar.const(nparams, 0)
    one = Scalar.const(nparams, 1)
    forced, multi = set(), []
    for r in rows:
        r = r if isinstance(r, dict) else _sparse(r)
        if len(r) == 1:
            forced.update(r)
        elif r:
            multi.append(r)
    rest = [{c: x for c, x in r.items() if c not in forced} for r in multi]
    pivots = _gauss_jordan(rest, ncols)
    pivot_cols = forced.union(col for col, _ in pivots)
    vectors = {}
    for free in range(ncols):
        if free not in pivot_cols:
            v = [zero] * ncols
            v[free] = one
            vectors[free] = v
    # after Gauss-Jordan every other entry of a pivot row lies in a free column
    for col, row in pivots:
        pivot = row[col]
        for free, x in row.items():
            if free != col:
                vectors[free][col] = -x / pivot
    return list(vectors.values())


def solve(matrix, rhs_columns, nparams):
    """Solve ``matrix . X = rhs`` for each right-hand-side column.

    ``matrix`` is square (a list of dense rows); returns the list of dense
    solution columns, or None when the matrix is singular.
    """
    n = len(matrix)
    zero = Scalar.const(nparams, 0)
    k = len(rhs_columns)
    aug = [_sparse(list(matrix[i]) + [col[i] for col in rhs_columns]) for i in range(n)]
    pivots = _gauss_jordan(aug, n)
    if len(pivots) < n:
        return None
    solutions = [[zero] * n for _ in range(k)]
    for col, row in pivots:
        inv = row[col].inverse()
        for j in range(k):
            x = row.get(n + j)
            if x is not None:
                solutions[j][col] = x * inv
    return solutions


def inverse(matrix, nparams):
    """Inverse of a square matrix as a list of rows, or None when the
    matrix is singular."""
    n = len(matrix)
    zero = Scalar.const(nparams, 0)
    one = Scalar.const(nparams, 1)
    units = [[one if r == k else zero for r in range(n)] for k in range(n)]
    columns = solve(matrix, units, nparams)
    if columns is None:
        return None
    return [list(row) for row in zip(*columns)]
