"""Exact linear algebra over the scalar field, used for kernel computation
and for inverting frame-affine maps.

Matrices are lists of rows of :class:`~spbw.scalars.Scalar`.  Everything is
plain fraction-field Gaussian elimination; no floating point.
"""

from __future__ import annotations

from .scalars import Scalar


def _row_echelon(rows, ncols):
    """Gauss-Jordan elimination on the first ``ncols`` columns; row updates
    span the full row width (so augmented columns are carried along).
    Returns the list of (pivot_col, row)."""
    pivots = []
    rows = [list(r) for r in rows]
    used = set()
    for col in range(ncols):
        pivot_row = None
        for r in rows:
            if not r[col].is_zero() and id(r) not in used:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        used.add(id(pivot_row))
        inv = pivot_row[col].inverse()
        width = len(pivot_row)
        for r in rows:
            if r is pivot_row or r[col].is_zero():
                continue
            factor = r[col] * inv
            for c in range(col, width):
                r[c] = r[c] - factor * pivot_row[c]
        pivots.append((col, pivot_row))
    return pivots


def kernel_basis(rows, ncols, nparams):
    """Basis of the right kernel of the matrix (column-vector solutions).

    Returns a list of vectors (lists of Scalars) spanning
    ``{v : rows . v = 0}``.
    """
    zero = Scalar.const(nparams, 0)
    one = Scalar.const(nparams, 1)
    pivots = _row_echelon(rows, ncols)
    pivot_cols = {col for col, _ in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        v = [zero] * ncols
        v[free] = one
        # back-substitute pivot coordinates
        for col, row in reversed(pivots):
            acc = zero
            for c in range(col + 1, ncols):
                if not row[c].is_zero() and not v[c].is_zero():
                    acc = acc + row[c] * v[c]
            v[col] = -(acc * row[col].inverse())
        basis.append(v)
    return basis


def solve(matrix, rhs_columns, nparams):
    """Solve ``matrix . X = rhs`` for each right-hand-side column.

    ``matrix`` is square (list of rows); returns the list of solution
    columns, or None when the matrix is singular.
    """
    n = len(matrix)
    zero = Scalar.const(nparams, 0)
    k = len(rhs_columns)
    aug = [list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(n)]
    pivots = _row_echelon(aug, n)
    if len(pivots) < n:
        return None
    solutions = [[zero] * n for _ in range(k)]
    for col, row in pivots:
        inv = row[col].inverse()
        for j in range(k):
            solutions[j][col] = row[n + j] * inv
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
