import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from supervec.errors import NotInvertible
from supervec.liealg import _vector_key
from supervec.linalg import (
    coordinates,
    determinant,
    invert_matrix,
    kernel_basis,
    mat_mul,
    rank,
    rref,
    solve_columns,
    span_factor,
    sparse_kernel_basis,
)
from supervec.scalars import GR_ONE, GR_ZERO, GaussianRational, Polynomial, RationalFunction

import reference_linalg as reference


def g(x):
    return GaussianRational(Fraction(x))


def dense(vectors, ncols):
    """Dict vectors column -> entry written out over ``ncols`` columns."""
    return [[vec.get(c, GR_ZERO) for c in range(ncols)] for vec in vectors]


def test_kernel_identity_is_empty():
    m = [[g(1), g(0), g(0)], [g(0), g(1), g(0)], [g(0), g(0), g(1)]]
    assert kernel_basis(m, 3) == []


def test_kernel_zero_matrix_is_standard_basis():
    m = [[g(0)] * 4, [g(0)] * 4]
    basis = kernel_basis(m, 4)
    assert len(basis) == 4
    for j, vec in enumerate(basis):
        assert vec[j] == GR_ONE
        assert sum(1 for c in vec if c) == 1


def test_kernel_over_rational_functions_keeps_their_zero_and_one():
    z, one, zero = RationalFunction.z(), RationalFunction.one(), RationalFunction.zero()
    # the kernel of [z, 1] is spanned by (-1/z, 1)
    assert kernel_basis([[z, one]], 2) == [[-one / z, one]]
    assert sparse_kernel_basis([{0: z, 1: one}], 2) == [{0: -one / z, 1: one}]
    # a matrix of zero entries has no pivot: the zero and one are still its own
    basis = kernel_basis([[zero, zero]], 2)
    assert basis == [[one, zero], [zero, one]]
    assert all(isinstance(x, RationalFunction) for vec in basis for x in vec)
    basis = sparse_kernel_basis([{1: zero}], 2)
    assert basis == [{0: one}, {1: one}]
    assert all(isinstance(x, RationalFunction) for vec in basis for x in vec.values())
    # with no entries at all the field is Q(i)
    assert kernel_basis([], 2) == [[GR_ONE, GR_ZERO], [GR_ZERO, GR_ONE]]
    assert sparse_kernel_basis([], 1) == [{0: GR_ONE}]


def test_kernel_small_example():
    m = [[g(1), g(1), g(0)], [g(0), g(0), g(1)]]
    basis = kernel_basis(m, 3)
    assert len(basis) == 1
    assert basis[0] == [g(-1), g(1), g(0)]


def rand_matrix(rng, rows, cols):
    return [
        [GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_kernel_vectors_annihilate_and_count_matches_rank():
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        basis = kernel_basis(m, cols)
        for vec in basis:
            assert all(not row[0] for row in mat_mul(m, [[c] for c in vec], GR_ZERO))
        # independent elimination order: reverse the columns
        reversed_m = [list(reversed(row)) for row in m]
        assert len(basis) == cols - rank(reversed_m)


def test_kernel_ordering_by_free_column():
    # columns 1 and 3 are free; basis vectors must come in that order
    m = [[g(1), g(2), g(0), g(1)], [g(0), g(0), g(1), g(1)]]
    basis = kernel_basis(m, 4)
    assert len(basis) == 2
    assert basis[0][1] == GR_ONE and basis[1][3] == GR_ONE


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
entries = st.builds(GaussianRational, small, st.sampled_from([0, 0, 1, Fraction(-1, 2)]))


@st.composite
def sparse_systems(draw):
    """Rows (dicts column -> entry) over several column blocks.

    Columns of block 3 are never used, most rows stay inside one block and
    some span all blocks; entries may be zero, and a duplicate row and a
    zero row are always present.
    """
    ncols = draw(st.integers(min_value=0, max_value=10))
    block_of = draw(st.lists(st.integers(0, 3), min_size=ncols, max_size=ncols))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        block = draw(st.integers(-1, 2))
        cols = [c for c in range(ncols) if block_of[c] != 3 and block in (-1, block_of[c])]
        chosen = draw(st.lists(st.sampled_from(cols), unique=True, max_size=4)) if cols else []
        rows.append({c: draw(entries) for c in chosen})
    if rows:
        rows.append(dict(draw(st.sampled_from(rows))))
    rows.append({})
    return draw(st.permutations(rows)), ncols


@given(sparse_systems())
def test_sparse_kernel_matches_dense_kernel(system):
    rows, ncols = system
    matrix = dense(rows, ncols)
    kernel = sparse_kernel_basis(rows, ncols)
    assert all(x for vec in kernel for x in vec.values())
    assert dense(kernel, ncols) == reference.kernel_basis(matrix, ncols)


integer_entries = st.builds(
    GaussianRational, st.sampled_from([-3, -1, 1, 2]), st.sampled_from([0, 1]))
# a non-integer part, real or imaginary: 1 + i/2 against 1 + i shows whether
# an integer entry's imaginary part is read
fractional_entries = st.one_of(
    st.builds(GaussianRational, st.sampled_from([Fraction(-3, 2), Fraction(1, 2), Fraction(2, 3)]),
              st.sampled_from([0, 1, Fraction(-1, 2)])),
    st.builds(GaussianRational, st.sampled_from([-1, 1, 2]),
              st.sampled_from([Fraction(1, 2), Fraction(-1, 2)])),
)


@given(sparse_systems(), st.tuples(integer_entries, fractional_entries).flatmap(st.permutations))
@example(([{0: g(1), 3: g(2)}, {1: g(1), 3: GaussianRational(0, 1)}, {2: g(1), 4: g(-1)}], 5),
         [g(1), g(Fraction(1, 2))])
@example(([], 0), [GaussianRational(1, 1), GaussianRational(1, Fraction(1, 2))])
def test_sparse_vector_key_sorts_like_dense_entry_keys(system, pair):
    """The solver orders sparse kernel vectors by ``_vector_key``: the order
    of their dense tuples of entry keys, negative and imaginary entries too.
    One more row, p + x f1 + y f2 over three new columns, gives two kernel
    vectors whose entries -x and -y share column p, one an integer and the
    other not."""
    rows, ncols = system
    x, y = pair
    rows, ncols = rows + [{ncols: GR_ONE, ncols + 1: x, ncols + 2: y}], ncols + 3
    kernel = sparse_kernel_basis(rows, ncols)
    signs = "one" if (x.a > 0) == (y.a > 0) else "each"
    event("integer and non-integer entries of %s sign" % signs)
    if x.re == y.re:
        event("integer and non-integer entries with one real part")
    vectors = dense(kernel, ncols)
    by_sparse = sorted(range(len(kernel)), key=lambda i: _vector_key(kernel[i]))
    by_dense = sorted(range(len(kernel)), key=lambda i: tuple(c.sort_key() for c in vectors[i]))
    assert by_sparse == by_dense


@given(sparse_systems())
def test_sparse_kernel_matches_block_reference(system):
    rows, ncols = system
    got = dense(sparse_kernel_basis(rows, ncols), ncols)
    assert got == reference.sparse_kernel_basis(rows, ncols)


@given(sparse_systems(), st.data())
def test_kernel_vanishing_on_late_columns_is_kernel_of_early_columns(system, data):
    """What the solver's single elimination at cap + 2 rests on.

    Reduction runs left to right, so the kernel vectors that vanish from
    column ``low`` on, cut to ``low``, are the kernel basis of the first
    ``low`` columns alone.
    """
    rows, ncols = system
    low = data.draw(st.integers(0, ncols))
    early = [[row.get(c, GR_ZERO) for c in range(low)] for row in rows]
    kernel = dense(sparse_kernel_basis(rows, ncols), ncols)
    cut = [vec[:low] for vec in kernel if not any(vec[low:])]
    assert cut == kernel_basis(early, low)


def test_sparse_kernel_blocks_and_empty_columns():
    # blocks {0, 2} and {3}; columns 1 and 4 are untouched
    rows = [{0: g(1), 2: g(2)}, {3: g(5)}, {2: g(0)}]
    basis = dense(sparse_kernel_basis(rows, 5), 5)
    assert basis == [
        [g(0), g(1), g(0), g(0), g(0)],
        [g(-2), g(0), g(1), g(0), g(0)],
        [g(0), g(0), g(0), g(0), g(1)],
    ]


def test_rref_is_idempotent():
    rng = random.Random(6)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        reduced, pivots = rref(m)
        again, pivots2 = rref(reduced)
        assert reduced == again and pivots == pivots2


def test_solve_columns_exact_and_inconsistent():
    m = [[g(1), g(0)], [g(1), g(1)], [g(0), g(2)]]
    good = [g(1), g(3), g(4)]  # x = (1, 2)
    bad = [g(0), g(0), g(1)]
    sols = solve_columns(m, [good, bad])
    assert sols[0] == [g(1), g(2)]
    assert sols[1] is None


def test_span_factor_marks_a_repeated_vector_dependent():
    u, v = {0: g(1), 2: g(3)}, {1: g(2)}
    factor = span_factor([u, v], 3, GR_ONE)
    assert sorted(factor) == [0, 1]
    assert coordinates(factor, 3, 2, {0: g(2), 1: g(2), 2: g(6)}, GR_ZERO) == [g(2), g(1)]
    assert coordinates(factor, 3, 2, {2: g(1)}, GR_ZERO) is None
    repeated = span_factor([u, v, u], 3, GR_ONE)
    # the pivot past the width records u - u = 0 in the combination columns
    assert [p for p in repeated if p >= 3] == [3]
    assert repeated[3] == {3: GR_ONE, 5: -GR_ONE}


def two_path_solve_columns(matrix, rhs_columns, zero=GR_ZERO):
    """Reference: one joint elimination, redone per column when any is inconsistent."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    aug = [list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(nrows)]
    rows, pivot_cols = rref(aug)
    main_pivots = [c for c in pivot_cols if c < ncols]
    if len(main_pivots) < ncols:
        raise NotInvertible("coefficient matrix does not have full column rank")
    if len(main_pivots) == len(pivot_cols):
        return [[rows[r][ncols + j] for r in range(ncols)] for j in range(len(rhs_columns))]
    solutions = []
    for col in rhs_columns:
        aug = [list(matrix[i]) + [col[i]] for i in range(nrows)]
        rows, pivot_cols = rref(aug)
        if any(c >= ncols for c in pivot_cols):
            solutions.append(None)
        else:
            solutions.append([rows[r][ncols] for r in range(ncols)])
    return solutions


@st.composite
def tall_systems(draw):
    """A tall matrix (often of full column rank) and right-hand columns, some
    of them images of the matrix and so consistent, some arbitrary."""
    ncols = draw(st.integers(0, 4))
    nrows = ncols + draw(st.integers(0, 3))
    matrix = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    rhs = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            x = [draw(entries) for _ in range(ncols)]
            rhs.append([sum((a * b for a, b in zip(row, x)), GR_ZERO) for row in matrix])
        else:
            rhs.append([draw(entries) for _ in range(nrows)])
    return matrix, rhs


@given(tall_systems())
def test_solve_columns_matches_two_path_reference(system):
    matrix, rhs = system
    try:
        expected = two_path_solve_columns(matrix, rhs)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            solve_columns(matrix, rhs)
        return
    assert solve_columns(matrix, rhs) == expected


@given(tall_systems())
def test_solve_columns_matches_reference(system):
    matrix, rhs = system
    try:
        expected = reference.solve_columns(matrix, rhs)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            solve_columns(matrix, rhs)
        return
    assert solve_columns(matrix, rhs) == expected


@st.composite
def dense_systems(draw):
    """A dense matrix whose later rows are often combinations of earlier ones,
    so that its rank varies; ``kernel_basis`` takes its column count."""
    ncols = draw(st.integers(0, 6))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f = draw(entries)
            rows.append([x + f * y for x, y in zip(a, b)])
        else:
            rows.append([draw(entries) for _ in range(ncols)])
    return draw(st.permutations(rows)), ncols


@given(dense_systems())
def test_dense_routines_match_reference(system):
    matrix, ncols = system
    assert rref(matrix) == reference.rref(matrix)
    assert rank(matrix) == reference.rank(matrix)
    assert kernel_basis(matrix, ncols) == reference.kernel_basis(matrix, ncols)


def rf_entries():
    """Small rational functions: (a + b*z) / (1 + c*z), often constant or zero."""
    coeff = st.integers(-2, 2).map(GaussianRational)
    return st.builds(
        lambda a, b, c: RationalFunction(
            Polynomial({0: a, 1: b}), Polynomial({0: GR_ONE, 1: c})
        ),
        coeff,
        coeff,
        coeff,
    )


@st.composite
def rf_systems(draw):
    """A square matrix and right-hand columns, plus a copy of the first row
    whose right-hand entries repeat the first (consistent) or are arbitrary."""
    n = draw(st.integers(1, 3))
    matrix = [[draw(rf_entries()) for _ in range(n)] for _ in range(n)]
    rhs = [[draw(rf_entries()) for _ in range(n)] for _ in range(draw(st.integers(1, 2)))]
    tall_rhs = [col + [col[0] if draw(st.booleans()) else draw(rf_entries())] for col in rhs]
    return matrix, rhs, matrix + [matrix[0]], tall_rhs


@settings(deadline=None, max_examples=40)
@given(rf_systems())
def test_rational_function_solves_match_reference(system):
    matrix, rhs, tall, tall_rhs = system
    zero, one = RationalFunction.zero(), RationalFunction.one()
    n = len(matrix)
    units = [[one if r == c else zero for r in range(n)] for c in range(n)]
    try:
        expected = reference.solve_columns(matrix, rhs)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            solve_columns(matrix, rhs)
        with pytest.raises(NotInvertible):
            invert_matrix(matrix, zero, one)
        return
    assert solve_columns(matrix, rhs) == expected
    assert solve_columns(tall, tall_rhs) == reference.solve_columns(tall, tall_rhs)
    inverse = [list(row) for row in zip(*reference.solve_columns(matrix, units))]
    assert invert_matrix(matrix, zero, one) == inverse


@st.composite
def products(draw):
    """Factors a (r x k) and b (k x c): sparse, diagonal or dense over Q(i),
    or dense over the small rational functions."""
    kind = draw(st.sampled_from(["sparse", "diagonal", "dense", "rf"]))
    if kind == "rf":
        zero, entry = RationalFunction.zero(), rf_entries()
    else:
        zero, entry = GR_ZERO, entries
    top = 3 if kind == "rf" else 5
    r, k, c = (draw(st.integers(1, top)) for _ in range(3))
    if kind == "diagonal":
        r = k
        a = [[draw(entry) if i == t else zero for t in range(k)] for i in range(r)]
    elif kind == "sparse":
        a = [[draw(entry) if draw(st.integers(0, 3)) == 0 else zero for _ in range(k)] for _ in range(r)]
    else:
        a = [[draw(entry) for _ in range(k)] for _ in range(r)]
    b = [[draw(entry) for _ in range(c)] for _ in range(k)]
    return a, b, zero


@settings(deadline=None)
@given(products())
def test_mat_mul_matches_reference(factors):
    a, b, zero = factors
    assert mat_mul(a, b, zero) == reference.mat_mul(a, b, zero)


def test_invert_matrix_over_rational_functions():
    z = RationalFunction.z()
    one = RationalFunction.one()
    m = [[z, one], [one, z]]
    inv = invert_matrix(m, RationalFunction.zero(), one)
    prod = [
        [sum((m[i][k] * inv[k][j] for k in range(2)), RationalFunction.zero()) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[one, RationalFunction.zero()], [RationalFunction.zero(), one]]
    with pytest.raises(NotInvertible):
        invert_matrix([[one, one], [one, one]], RationalFunction.zero(), one)


def test_determinant():
    z = RationalFunction.z()
    one = RationalFunction.one()
    assert determinant([[z, one], [one, z]], RationalFunction.zero(), one) == z * z - one
    assert not determinant([[one, one], [one, one]], RationalFunction.zero(), one)


@st.composite
def square_matrices(draw):
    """(kind, matrix): a square matrix over Q(i) of size 0 to 5.

    Its rows are drawn freely, or one of them repeats another or is zero, or
    they are the rows of a triangular matrix with a nonzero diagonal in a
    drawn order, whose parity the kind names.
    """
    n = draw(st.integers(0, 5))
    kinds = ["free", "triangular"] + ["zero row"] * (n > 0) + ["repeated row"] * (n > 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "triangular":
        diagonal = entries.filter(bool)
        rows = [[draw(diagonal) if c == r else draw(entries) if c > r else GR_ZERO for c in range(n)]
                for r in range(n)]
        order = draw(st.permutations(range(n)))
        swaps = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
        if n > 1 and draw(st.booleans()) != swaps % 2:
            order[:2] = order[1], order[0]
            swaps += 1
        kind = "%s pivot permutation" % ("odd" if swaps % 2 else "even")
        return kind, [rows[r] for r in order]
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if kind == "zero row":
        rows[draw(st.integers(0, n - 1))] = [GR_ZERO] * n
    elif kind == "repeated row":
        i = draw(st.integers(0, n - 1))
        rows[(i + draw(st.integers(1, n - 1))) % n] = list(rows[i])
    return kind, rows


@given(square_matrices())
def test_determinant_and_rank_match_reference(drawn):
    kind, matrix = drawn
    det = determinant(matrix, GR_ZERO, GR_ONE)
    assert det == reference.determinant(matrix, GR_ZERO, GR_ONE)
    assert rank(matrix) == reference.rank(matrix)
    event(kind)
    event("size %d, %s" % (len(matrix), "nonsingular" if det else "singular"))
    if any(x.im for row in matrix for x in row):
        event("a non-real entry")


@st.composite
def rf_square_matrices(draw):
    """A square matrix of size 0 to 3 whose entries are c + z, c in Z[i],
    its last row sometimes a repeat of its first."""
    n = draw(st.integers(0, 3))
    c = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-1, 1))
    z = RationalFunction.z()
    rows = [[z + RationalFunction.constant(draw(c)) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


@settings(deadline=None, max_examples=60)
@given(rf_square_matrices())
def test_rational_function_determinant_and_rank_match_reference(matrix):
    zero, one = RationalFunction.zero(), RationalFunction.one()
    det = determinant(matrix, zero, one)
    assert det == reference.determinant(matrix, zero, one)
    assert rank(matrix) == reference.rank(matrix)
    event("size %d, %s" % (len(matrix), "nonsingular" if det else "singular"))
