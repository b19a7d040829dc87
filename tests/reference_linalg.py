"""Reference elimination kept as a test oracle.

These are the dense row reduction and the block-wise sparse kernel that
``supervec.linalg`` used before it moved to one sparse reduction, kept
verbatim: a dense ``rref`` over lists, ``kernel_basis`` and ``solve_columns``
on top of it, and ``sparse_kernel_basis`` splitting the columns into
connected blocks with a union-find and reducing each block densely.  The
reduced row echelon form is unique, so the library must reproduce every
result here exactly.  ``mat_mul`` is the product that tested every entry of
``a`` once per output entry; the library's must give the same products.
``determinant`` is the dense forward elimination with its own pivot search
and row swaps that the library used before it read the pivots of its one
sparse elimination; the determinant is unique, so the two must agree.
"""

from __future__ import annotations

from supervec.errors import NotInvertible
from supervec.scalars import GR_ONE, GR_ZERO


def rref(matrix):
    """Reduced row echelon form (in place on a copied matrix).

    Returns (rows, pivot_cols).  Zero rows are kept at the bottom.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if not (pv == GR_ONE):
            inv = _one_like(pv) / pv
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivot_cols


def _one_like(x):
    return x / x


def rank(matrix):
    return len(rref(matrix)[1])


def kernel_basis(matrix, ncols):
    """Basis of the right null space of ``matrix`` (``ncols`` columns).

    The basis comes from the reduced row echelon form: one vector per free
    column, ordered by free-column index, with a 1 in that column.
    """
    if not matrix:
        basis = []
        for j in range(ncols):
            v = [GR_ZERO] * ncols
            v[j] = GR_ONE
            basis.append(v)
        return basis
    rows, pivot_cols = rref(matrix)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [GR_ZERO] * ncols
        v[fc] = GR_ONE
        for r, pc in enumerate(pivot_cols):
            entry = rows[r][fc]
            if entry:
                v[pc] = -entry
        basis.append(v)
    return basis


def sparse_kernel_basis(rows, ncols):
    """``kernel_basis`` of a sparse matrix, eliminated one connected block at a time.

    ``rows`` are dicts column -> ``GaussianRational``.  Columns that share a
    nonzero entry in some row form one block (union-find); each block is
    reduced with the dense ``rref`` and untouched columns give unit vectors.
    This is structured Gaussian elimination (LaMacchia & Odlyzko, CRYPTO 1990).
    Blocks share no rows, so a column is a pivot of the whole matrix exactly
    when it is one of its block, and the result is the free-column basis, in
    free-column order, that ``kernel_basis`` gives on the dense form.
    """
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    supports = [[c for c, x in row.items() if x] for row in rows]
    for cols in supports:
        root = find(cols[0]) if cols else None
        for c in cols[1:]:
            other = find(c)
            if other != root:
                parent[other] = root
    blocks = {}
    for row, cols in zip(rows, supports):
        if cols:
            blocks.setdefault(find(cols[0]), []).append((row, cols))
    vectors = {}
    for block in blocks.values():
        cols = sorted({c for _, support in block for c in support})
        local = {c: i for i, c in enumerate(cols)}
        dense = []
        for row, support in block:
            line = [GR_ZERO] * len(cols)
            for c in support:
                line[local[c]] = row[c]
            dense.append(line)
        for short in kernel_basis(dense, len(cols)):
            v = [GR_ZERO] * ncols
            for c, x in zip(cols, short):
                v[c] = x
            # the free column is the last nonzero entry: pivots lie to its left
            vectors[max(c for c, x in zip(cols, short) if x)] = v
    touched = {c for cols in supports for c in cols}
    for c in range(ncols):
        if c not in touched:
            v = [GR_ZERO] * ncols
            v[c] = GR_ONE
            vectors[c] = v
    return [vectors[c] for c in sorted(vectors)]


def solve_columns(matrix, rhs_columns):
    """Solve ``matrix @ x = b`` for every column b of ``rhs_columns``.

    The coefficient matrix must have full column rank (NotInvertible
    otherwise).  Returns one solution vector per column, with None in place
    of inconsistent columns.  One joint elimination serves every column: the
    rows from ``ncols`` on have a zero matrix part, and a column is consistent
    exactly when it vanishes on them.  A pivot in the right-hand columns only
    mixes those rows, so a consistent column's solution entries are never
    touched.
    """
    ncols = len(matrix[0]) if matrix else 0
    aug = [list(row) + [col[i] for col in rhs_columns] for i, row in enumerate(matrix)]
    rows, pivot_cols = rref(aug)
    if pivot_cols[:ncols] != list(range(ncols)):
        raise NotInvertible("coefficient matrix does not have full column rank")
    solved, rest = rows[:ncols], rows[ncols:]
    return [
        None if any(row[j] for row in rest) else [row[j] for row in solved]
        for j in range(ncols, ncols + len(rhs_columns))
    ]


def mat_mul(a, b, zero):
    """Matrix product with explicit zero element."""
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = zero
            for t in range(k):
                if a[i][t] and b[t][j]:
                    acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def determinant(matrix, zero, one):
    """Exact determinant by fraction-producing Gaussian elimination."""
    n = len(matrix)
    rows = [list(r) for r in matrix]
    det = one
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            return zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = zero - det
        pv = rows[c][c]
        det = det * pv
        inv = one / pv
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det
