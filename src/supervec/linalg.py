"""Exact linear algebra over a field.

All routines are generic over field elements supporting ``+ - * /`` (with
``1 / x`` for the inverse), truthiness (nonzero test) and equality; they are
used with both ``GaussianRational`` and ``RationalFunction`` entries.

One elimination, ``_reduce``, of sparse rows to the reduced row echelon form
serves ``rref``, ``kernel_basis``, ``sparse_kernel_basis`` and ``span_factor``;
``rank`` and ``determinant`` read the pivots of its forward phase, ``_forward``.
``coordinates`` reads a vector off a stored ``span_factor``, and
``solve_columns`` is that pair.  Determinism contract: the reduced form of a
row space is unique, so every result is independent of the row order and of
the order of elimination; kernel vectors are ordered by free column, sparse
(dicts column -> nonzero entry) from ``sparse_kernel_basis``.
"""

from __future__ import annotations

from .errors import NotInvertible
from .scalars import GR_ZERO


def _forward(rows):
    """Forward phase of ``_reduce``: ({pivot column: row}, pivot entries).

    Each new row is cleared of stored pivots, leftmost first, and pivots on
    its leading column; its entry there, before the row is scaled to a 1, is
    listed in the order in which the pivots are stored.
    """
    reduced, entries = {}, []
    for pairs in rows:
        row = {c: x for c, x in pairs if x}
        while row:
            p = min(row)
            if p not in reduced:
                pv = row[p]
                if pv != 1:
                    inv = 1 / pv
                    row = {c: x * inv for c, x in row.items()}
                reduced[p] = row
                entries.append(pv)
                break
            _subtract(row, p, reduced[p])
    return reduced, entries


def _reduce(rows):
    """Reduced row echelon form of sparse rows, as {pivot column: row}.

    Each row is an iterable of (column, entry) pairs; a reduced row is a dict
    column -> nonzero entry with a 1 in its pivot column, its leading column.
    After ``_forward``, the back phase clears each row, from the last pivot to
    the first, of the later pivots, whose rows are reduced already.
    """
    reduced = _forward(rows)[0]
    for p in sorted(reduced, reverse=True):
        row = reduced[p]
        for c in [c for c in row if c != p and c in reduced]:
            _subtract(row, c, reduced[c])
    return reduced


def _subtract(row, p, pivot_row):
    """Clear column ``p`` of ``row`` with the reduced row that pivots on ``p``."""
    f = row.pop(p)
    for c, y in pivot_row.items():
        if c == p:
            continue
        x = row[c] - f * y if c in row else -(f * y)
        if x:
            row[c] = x
        else:
            del row[c]


def rref(matrix):
    """Reduced row echelon form of a dense matrix.

    Returns (rows, pivot_cols).  Zero rows are kept at the bottom.
    """
    reduced = _reduce(enumerate(row) for row in matrix)
    ncols = len(matrix[0]) if matrix else 0
    zero = matrix[0][0] - matrix[0][0] if ncols else None
    pivots = sorted(reduced)
    rows = [[reduced[p].get(c, zero) for c in range(ncols)] for p in pivots]
    rows += [[zero] * ncols for _ in range(len(matrix) - len(rows))]
    return rows, pivots


def rank(matrix):
    return len(_forward(enumerate(row) for row in matrix)[0])


def kernel_basis(matrix, ncols):
    """Basis of the right null space of ``matrix`` (``ncols`` columns).

    The basis comes from the reduced row echelon form: one vector per free
    column, ordered by free-column index, with a 1 in that column.  Zero and
    one have the type of a matrix entry, or are ``GaussianRational`` when the
    matrix has none.
    """
    entry = next((x for row in matrix for x in row), None)
    zero = GR_ZERO if entry is None else entry - entry
    kernel = _kernel(_reduce(enumerate(row) for row in matrix), ncols, zero + 1)
    return [[vec.get(c, zero) for c in range(ncols)] for vec in kernel]


def sparse_kernel_basis(rows, ncols):
    """``kernel_basis`` of rows that are dicts column -> entry, as such dicts."""
    entry = next((x for row in rows for x in row.values()), None)
    one = (GR_ZERO if entry is None else entry - entry) + 1
    return _kernel(_reduce(row.items() for row in rows), ncols, one)


def _kernel(reduced, ncols, one):
    """Kernel basis from the reduced rows, as dicts column -> nonzero entry.

    A reduced row has entries only in its pivot and in free columns; its
    entry x in free column f puts -x at its pivot in the vector of f.
    """
    vectors = {c: {c: one} for c in range(ncols) if c not in reduced}
    for p, row in reduced.items():
        for c, x in row.items():
            if c != p:
                vectors[c][p] = -x
    return list(vectors.values())


def span_factor(vectors, width, one):
    """``_reduce`` of sparse vectors, dicts column -> entry below ``width``.

    Vector i also carries ``one`` in column ``width + i``, so each reduced row
    records which combination of the vectors it is; a pivot at or past
    ``width`` marks a dependent vector.
    """
    return _reduce(list(v.items()) + [(width + i, one)] for i, v in enumerate(vectors))


def coordinates(factor, width, count, vector, zero):
    """Coefficients of ``vector`` in the ``count`` vectors of a ``span_factor``.

    Reduced rows vanish on each other's pivots, so one pass clears every
    pivot entry; None if a residual is left, else minus the combination part.
    """
    row = {c: x for c, x in vector.items() if x}
    for p in [c for c in row if c in factor]:
        _subtract(row, p, factor[p])
    if any(c < width for c in row):
        return None
    return [-row[c] if c in row else zero for c in range(width, width + count)]


def solve_columns(matrix, rhs_columns):
    """Solve ``matrix @ x = b`` for every column b of ``rhs_columns``.

    The matrix columns are factored once and must be independent (else
    NotInvertible).  One solution vector per column, None if inconsistent.
    """
    width = len(matrix)
    columns = [dict(enumerate(col)) for col in zip(*matrix)]
    zero = matrix[0][0] - matrix[0][0] if columns else None
    factor = span_factor(columns, width, zero + 1 if columns else None)
    if any(p >= width for p in factor):
        raise NotInvertible("coefficient matrix does not have full column rank")
    count = len(columns)
    return [coordinates(factor, width, count, dict(enumerate(b)), zero) for b in rhs_columns]


def solve_square(matrix, rhs):
    """Solve a square full-rank system over any field; NotInvertible if singular."""
    return solve_columns(matrix, [rhs])[0]


def invert_matrix(matrix, zero, one):
    """Inverse of a square matrix over any field; NotInvertible if singular."""
    n = len(matrix)
    units = [[one if r == c else zero for r in range(n)] for c in range(n)]
    return [list(row) for row in zip(*solve_columns(matrix, units))]


def determinant(matrix, zero, one):
    """Product of the forward phase's pivot entries, negated once for each
    pair of rows whose pivot columns arrive out of order; zero if singular."""
    reduced, entries = _forward(enumerate(row) for row in matrix)
    if len(reduced) < len(matrix):
        return zero
    det = one
    for x in entries:
        det = det * x
    order = list(reduced)
    swaps = sum(q > p for i, p in enumerate(order) for q in order[:i])
    return zero - det if swaps % 2 else det


def mat_mul(a, b, zero):
    """Matrix product with explicit zero element; each row of ``a`` is read
    once, as its nonzero (column, entry) pairs."""
    if not a or not b:
        return []
    out = []
    for row in a:
        pairs = [(t, x) for t, x in enumerate(row) if x]
        out_row = []
        for j in range(len(b[0])):
            acc = zero
            for t, x in pairs:
                if b[t][j]:
                    acc = acc + x * b[t][j]
            out_row.append(acc)
        out.append(out_row)
    return out
