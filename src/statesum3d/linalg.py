"""Small dense exact linear algebra over a FieldSpec (lists of lists)."""

from __future__ import annotations

from .exactnum import FieldSpec

__all__ = ["matrix_inverse", "matrix_mul", "identity_matrix"]


def identity_matrix(n: int, field: FieldSpec):
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def matrix_mul(a, b, field: FieldSpec):
    n, m = len(a), len(b[0]) if b else 0
    k = len(b)
    out = [[field.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for t in range(k):
            ait = a[i][t]
            if ait.is_zero():
                continue
            row_b = b[t]
            row_o = out[i]
            for j in range(m):
                if not row_b[j].is_zero():
                    row_o[j] = row_o[j] + ait * row_b[j]
    return out


def _row_reduce(mat, ncols: int) -> int:
    """Gauss-Jordan elimination of ``mat`` in place over its first ``ncols``
    columns; returns the number of pivots.  A row update touches only the
    pivot row's nonzero entries."""
    n = len(mat)
    row = 0
    for col in range(ncols):
        if row == n:
            break
        piv = next((r for r in range(row, n) if not mat[r][col].is_zero()), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        scale = mat[row][col].inv()
        pivot_row = mat[row] = [x * scale for x in mat[row]]
        support = [j for j, y in enumerate(pivot_row) if not y.is_zero()]
        for r in range(n):
            if r != row and not mat[r][col].is_zero():
                target, f = mat[r], mat[r][col]
                for j in support:
                    target[j] = target[j] - f * pivot_row[j]
        row += 1
    return row


def matrix_inverse(rows, field: FieldSpec):
    n = len(rows)
    if n == 0:
        return []
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    aug = [[rows[i][j] for j in range(n)] + [field.one() if i == j else field.zero()
                                             for j in range(n)] for i in range(n)]
    if _row_reduce(aug, n) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]
