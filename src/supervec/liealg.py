"""Global super vector fields and their Lie-superalgebra structure.

The solver parametrizes unknown polynomial-coefficient derivations on both
charts up to a degree cap and imposes the transition-compatibility equations
one Laurent coefficient at a time.  The rows are the identity that the
globality check evaluates on one field, read per unknown monomial off the
transition's Laurent plan in ``geometry``; this module reads no Laurent
terms of its own.  The rows of both parities are built once, sparse, at
cap + 2, with the columns of z-power <= cap first, and eliminated once,
sparsest first, to the reduced row echelon form; its kernel vectors stay
sparse and each has one parity (``sparse_kernel_basis``).  The basis is
read off the kernel vectors that vanish on the later columns, which are
exactly the kernel at cap; the kernel dimensions at cap + 2 are the
saturation check that turns the cap heuristic into a checked result, and
the default cap rises until it passes.

On top of the basis, reduced once when it is built (``span_factor``) and read
by every expansion of a bracket or conjugated field (``coordinates``): exact
structure constants, the graded-Jacobi check, adjoint matrices and weight
decompositions, the span of odd-odd brackets, the split-model comparison,
and the conjugation action of global automorphism pullbacks.

The basis reads each field's chart-0 slot terms (component, multi-index,
z-power, coefficient) once, when it is built; the structure constants bracket
them with ``geometry``'s ``add_product`` and ``partials``, so this module
forms no Grassmann product of its own.  The Jacobi check reads the table
once and forms only its nonzero products, each added into one sorted triple.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import (
    CapNotSaturated,
    GrInequalityViolated,
    InexactRootDivision,
    NegativeCap,
    NotClosed,
    NotDiagonalizable,
    NotGlobal,
    NotInSpan,
    OddCartan,
    SystemTooLarge,
)
from .derivations import SuperDerivation, pullback_invert
from .geometry import (
    CHART0,
    CHART1,
    KIND_C01,
    GlobalVectorField,
    add_image,
    add_product,
    laurent_plan,
    laurent_terms,
    morphism_check_global,
    partials,
    term_product,
)
from .grassmann import PullbackData, SuperFunction, idx_products, idx_sort_key, idx_weight
from .linalg import coordinates, kernel_basis, mat_mul, rref, span_factor, sparse_kernel_basis
from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Polynomial,
    RationalFunction,
)


class SuperalgebraBasis:
    """Ordered basis of the global fields, split by parity."""

    __slots__ = (
        "manifold", "even_basis", "odd_basis", "cap_used", "clearing_exponent", "span", "_terms"
    )

    def __init__(self, manifold, even_basis, odd_basis, cap_used, clearing_exponent):
        self.manifold = manifold
        self.even_basis = list(even_basis)
        self.odd_basis = list(odd_basis)
        self.cap_used = cap_used
        self.clearing_exponent = clearing_exponent
        # each field read once, its slots numbered in order of first use; the
        # one reduction of the basis is read by every expansion
        self._terms = [_slot_terms(f.chart0_der) for f in self.fields]
        slots = {key: s for s, key in enumerate(dict.fromkeys(k for t in self._terms for k in t))}
        vectors = [{slots[key]: c for key, c in terms.items()} for terms in self._terms]
        factor = span_factor(vectors, len(slots), GR_ONE)
        if any(p >= len(slots) for p in factor):
            raise NotClosed("solver produced linearly dependent basis fields")
        self.span = (slots, factor)

    @property
    def fields(self):
        return self.even_basis + self.odd_basis

    @property
    def dims(self):
        return (len(self.even_basis), len(self.odd_basis))

    def __len__(self):
        return len(self.even_basis) + len(self.odd_basis)


class StructureConstants(namedtuple("StructureConstants", "basis table")):
    """Bracket table of a basis: (i, j) -> coefficient tuple of [b_i, b_j]."""

    __slots__ = ()


def default_cap(manifold):
    """Heuristic degree cap: 2 plus the pole budget of the odd transition images.

    Each odd image contributes the largest pole order of its Laurent
    coefficients, ``max(0, -min k, max k)`` over their exponents k, counting
    poles both at z = 0 and at infinity (so positive-degree images of
    negative bundle degrees are budgeted too).
    """
    budget = 0
    for img in manifold.transition.odd_images:
        exps = [k for _, k in laurent_terms(img.terms)]
        budget += max(0, -min(exps, default=0), max(exps, default=0))
    return 2 + budget


# Largest compatibility system solved, in columns.  vec is linear in the
# columns: (1|1) with eta1 = z^-k*t1 has 8(k + 5) of them, and on a 2-core
# Xeon under Python 3.11 CLI vec takes 0.45 s at k = 3000, and k = 20000 with
# the limit lifted 3.0 s (156 MB); the (1|9) split at its default cap has
# 143360 columns, 1.3 s.
MAX_COLUMNS = 150_000

# Largest |y| the rational-root search of ``weights`` tries.  Its time is linear
# in the smallest root: on the same Xeon, 0.02 s near 10^5 and 0.22 s near 10^6.
MAX_ROOT_SEARCH = 1_000_000


def _column_count(n, cap):
    """Columns of ``_compatibility_rows(manifold, cap)`` for odd dimension ``n``."""
    return 2 * (n + 1) * (1 << n) * (cap + 3)


def _point_basis(manifold):
    chart = manifold.chart0
    zero = SuperFunction.zero(chart, 1)
    xi_dxi = SuperDerivation(chart, 1, zero, [SuperFunction.odd_var(chart, 1, 0)])
    dxi = SuperDerivation(chart, 1, zero, [SuperFunction.one(chart, 1)])
    even = GlobalVectorField(manifold, xi_dxi, xi_dxi)
    odd = GlobalVectorField(manifold, dxi, dxi)
    return SuperalgebraBasis(manifold, [even], [odd], 0, 0)


def solve_global_fields(manifold, cap=None):
    """Exact basis of the global fields at ``cap``, from one elimination at ``cap + 2``.

    The reduced form pivots on each row's leading column, so its block of
    columns with e <= cap is the reduced cap system.  The clearing exponent
    is the power of z that clears every denominator of the rows touching a
    column with e <= cap.  Without ``cap`` the default cap is tried, then
    each next one until the dimensions saturate; they never fall as the cap
    grows and never pass the true ones, so the retries end.
    """
    if cap is not None and cap < 0:
        # below -2 both kernels are empty, so the saturation check would pass
        raise NegativeCap("degree cap must be non-negative, got %d" % cap)
    if manifold.kind == KIND_C01:
        return _point_basis(manifold)
    retry = cap is None
    if retry:
        cap = default_cap(manifold)
    while True:
        if (estimate := _column_count(manifold.odd_dim, cap)) > MAX_COLUMNS:
            raise SystemTooLarge(
                "compatibility system at cap %d would have %d columns, above the limit of %d"
                % (cap, estimate, MAX_COLUMNS)
            )
        columns, rows = _compatibility_rows(manifold, cap)
        low = sum(1 for key in columns if key[3] <= cap)
        clearing = max([0] + [-p for (_, _, p), row in rows.items() if min(row) < low])
        # sparsest rows first, for little fill; the reduced form is the same in any row order
        kernel = sparse_kernel_basis(sorted(rows.values(), key=len), len(columns))
        by_parity, dims_next = ([], []), [0, 0]
        for vec, field in _kernel_fields(manifold, columns, kernel):
            dims_next[field.parity] += 1
            if max(vec) < low:
                by_parity[field.parity].append(field)
        dims, dims_next = tuple(map(len, by_parity)), tuple(dims_next)
        if dims == dims_next:
            return SuperalgebraBasis(manifold, *by_parity, cap, clearing)
        if not retry:
            raise CapNotSaturated(cap, dims, dims_next)
        cap += 1


def _compatibility_rows(manifold, cap):
    """Columns and sparse rows of the compatibility equations.

    A column is an unknown (chart, component, multi-index, z-power e <= cap + 2);
    components are numbered like the coordinates: component 0 is the
    even-direction coefficient, j the direction of theta_j.  The columns with
    e <= cap come first.  A row is one Laurent coefficient (eq, mu, z-power)
    of equation eq, the equation of coordinate eq, stored as a dict
    column -> nonzero coefficient.  No row or column mixes the two parities,
    so the system is two blocks that the sparse elimination keeps apart.
    Every coefficient is read off the transition's Laurent plan in
    ``geometry``, the one the globality check of each field reads.
    """
    top = cap + 2
    n = manifold.odd_dim
    chi = manifold.transition
    derivatives, *_, products = laurent_plan(chi)
    nus = sorted(range(1 << n), key=idx_sort_key)
    columns = sorted(
        (
            (chart, comp, nu, e)
            for chart in (0, 1)
            for comp in range(n + 1)
            for nu in nus
            for e in range(top + 1)
        ),
        key=lambda key: key[3] > cap,
    )
    col_index = {key: c for c, key in enumerate(columns)}
    rows = {}

    def put(eq, terms, col, shift=0):
        for (mu, p), c in terms.items():
            row = rows.setdefault((eq, mu, p + shift), {})
            row[col] = row[col] + c if col in row else c

    # chart 0: -theta^nu d_comp chi*(y_eq) for the unknown z^e theta^nu, with
    # z^e applied as a shift of the Laurent powers
    for comp in range(n + 1):
        for nu in nus:
            for eq, partial in enumerate(derivatives):
                terms = term_product({(nu, 0): -GR_ONE}, partial[comp], products)
                for e in range(top + 1):
                    put(eq, terms, col_index[(0, comp, nu, e)], e)

    # chart 1: the transition image chi*(w^e eta^nu) of the unknown's monomial
    for nu in nus:
        for e in range(top + 1):
            terms = add_image({}, chi, nu, e, GR_ONE)
            for comp in range(n + 1):
                put(comp, terms, col_index[(1, comp, nu, e)])

    nonzero = ({c: x for c, x in row.items() if x} for row in rows.values())
    return columns, {key: row for key, row in zip(rows, nonzero) if row}


def _kernel_fields(manifold, columns, kernel):
    """(kernel vector, global field) pairs, by top weight, then ``_vector_key``."""
    n = manifold.odd_dim
    fields = []
    for vec in kernel:
        polys = [[{} for _ in range(n + 1)] for _ in (0, 1)]  # chart -> component -> nu -> {e: c}
        for c, x in vec.items():
            chart, comp, nu, e = columns[c]
            polys[chart][comp].setdefault(nu, {})[e] = x
        ders = []
        for chart_id, by_comp in zip((CHART0, CHART1), polys):
            even, *odds = (
                SuperFunction(
                    chart_id, n, {nu: RationalFunction(Polynomial(p)) for nu, p in by_nu.items()}
                )
                for by_nu in by_comp
            )
            ders.append(SuperDerivation(chart_id, n, even, odds))
        fields.append((vec, GlobalVectorField(manifold, *ders)))

    def sort_key(item):
        vec, field = item
        even_coeff = field.chart0_der.even_coeff
        top_weight = max((idx_weight(i) for i in even_coeff.terms), default=0)
        return (top_weight, _vector_key(vec))

    fields.sort(key=sort_key)
    return fields


def _vector_key(vec):
    """Key of a sparse vector {column: entry} that sorts like its dense entry keys.

    Per nonzero column c, in order: (1, -c, key) if its entry key is above
    zero's, (0, 0), else (-1, c, key), so a zero against a nonzero entry is
    decided by the nonzero entry's sign, as in the dense tuple.  No terminator
    is needed for kernel vectors: each is 1 at its own free column and 0 at
    every other, so no vector's support is a prefix of another's.
    """
    out = []
    for c in sorted(vec):
        key = vec[c].sort_key()
        out.append((1, -c, key) if key > (0, 0) else (-1, c, key))
    return tuple(out)


# ---------------------------------------------------------------------------
# expansion of chart-0 derivations in a basis


def _slot_terms(der):
    """Terms {(component, multi-index, z-power): c} of a chart-0 derivation.

    NotInSpan if a coefficient is not a polynomial.
    """
    terms = {}
    for comp, coeff in enumerate(der.coeffs):
        for nu, rf in coeff.terms.items():
            if not rf.is_polynomial():
                raise NotInSpan("derivation has non-polynomial coefficients")
            for e, c in rf.num.coeffs.items():
                terms[(comp, nu, e)] = c
    return terms


def _span_coordinates(basis, terms):
    """Coordinates of slot terms in the basis; None off its slots or its span."""
    slots, factor = basis.span
    vec = {slots.get(key): c for key, c in terms.items()}
    return None if None in vec else coordinates(factor, len(slots), len(basis), vec, GR_ZERO)


def expand_in_basis(basis, ders):
    """Coefficients of chart-0 derivations in the basis; NotInSpan on failure."""
    targets = [_slot_terms(d) for d in ders]
    out = [_span_coordinates(basis, terms) for terms in targets]
    if None in out:
        raise NotInSpan("derivation does not lie in the span of the basis")
    return [tuple(sol) for sol in out]


def _field_terms(terms, n):
    """A field's coefficients as Laurent-term maps, negated, and differentiated.

    ``terms`` is the field's ``_slot_terms``.  Returns (coeffs, negated,
    derivatives): ``coeffs[u]`` maps (multi-index, z-power) to c in
    coefficient u, ``negated[u]`` is that map negated, and ``derivatives``
    lists the nonzero (u, d, ``partials(coeffs[u], n)[d]``), d = 0 for d/dz
    and j + 1 for d/dtheta_j.
    """
    coeffs = [{} for _ in range(n + 1)]
    for (comp, nu, e), c in terms.items():
        coeffs[comp][nu, e] = c
    negated = [{key: -c for key, c in coeff.items()} for coeff in coeffs]
    return coeffs, negated, [(u, d, partial) for u, coeff in enumerate(coeffs) if coeff
                             for d, partial in enumerate(partials(coeff, n)) if partial]


def _slot_bracket(x, y, both_odd, products):
    """Nonzero slot terms {(u, nu, e): c} of [X, Y] = X(Y_u) - s Y(X_u).

    ``x`` and ``y`` are ``_field_terms`` triples and ``products`` is
    ``idx_products`` of the odd dimension.  X(Y_u) is the sum over d of X_d
    times the d-th partial of Y_u, one ``add_product`` each; s =
    (-1)^{|X||Y|}, so Y(X_u) is read off Y's coefficients when both fields
    are odd and off Y's negated ones otherwise, as in ``SuperDerivation.bracket``.
    """
    acc = {}
    for coeffs, (_, _, derivatives) in ((x[0], y), (y[0] if both_odd else y[1], x)):
        for u, d, dy in derivatives:
            if coeffs[d]:
                add_product(acc.setdefault(u, {}), coeffs[d], dy, products)
    return {(u, nu, e): c for u, terms in acc.items()
            for (nu, e), c in terms.items() if c} if acc else {}


def structure_constants(basis):
    """Exact bracket table over the basis; NotClosed if a bracket escapes.

    Each bracket is computed on the slot terms the basis read from its
    fields (``_slot_bracket``), with no ``SuperFunction`` in between, and
    read in the slots and the factor of ``basis.span``: a term in a slot no
    basis field uses, or a vector off the span, is a bracket that left the
    span.  Parity additivity is read off the slot keys (z^e theta^nu d_u has
    parity |nu| + (u > 0)); on homogeneous fields that is the coordinates' verdict.
    """
    n = basis.manifold.odd_dim
    products = idx_products(n)
    terms = [_field_terms(t, n) for t in basis._terms]
    parities = [f.parity for f in basis.fields]
    m = len(parities)
    table, violated = {}, False  # a bracket off the span is named before a parity violation
    for i in range(m):
        for j in range(m):
            bracket = _slot_bracket(terms[i], terms[j], parities[i] and parities[j], products)
            sol = _span_coordinates(basis, bracket)
            if sol is None:
                raise NotClosed(
                    "bracket left the span: derivation does not lie in the span of the basis"
                )
            table[(i, j)] = tuple(sol)
            p = parities[i] + parities[j]
            violated = violated or any((nu.bit_count() + (u > 0) + p) % 2 for u, nu, _ in bracket)
    if violated:
        raise NotClosed("bracket violates parity additivity")
    return StructureConstants(basis, table)


def jacobi_check(structure):
    """Graded antisymmetry, parity additivity and the super Jacobi identity.

    One pass over the table keeps the nonzero entries of each bracket as a
    sparse row {k: c}, and one loop over the rows checks parity additivity
    and graded antisymmetry, comparing the rows of (i, j) and (j, i).  The
    Jacobiator J(i, j, k) = (-1)^{p_i p_k} [b_i, [b_j, b_k]] + cyclic is
    cyclic by definition, and on an antisymmetric table rewriting each inner
    bracket gives J(j, i, k) = -(-1)^{p_i p_j + p_j p_k + p_k p_i} J(i, j, k),
    so the sorted triples i <= j <= k decide it.  Only the nonzero products
    are formed: for each nonzero entry l of [b_b, b_c] and each nonzero row
    [b_a, b_l], the contribution (a, b, c) goes into the first sorted triple
    among its rotations.  Two rotations of (a, b, c) are sorted only when
    a = b = c, and only those products land in (i, i, i), so J(i, i, i) is
    three times the total kept for it and the verdict is the same.  Repeated
    indices stay: [x, [x, x]] = 0 for odd x does not follow from
    antisymmetry.
    """
    par = [f.parity for f in structure.basis.fields]
    rows = {key: {k: c for k, c in enumerate(vec) if c} for key, vec in structure.table.items()}
    by_inner = {}  # l -> the nonzero rows [b_a, b_l] as (a, row)
    for (i, j), row in rows.items():
        parity = (par[i] + par[j]) % 2
        if any(par[k] != parity for k in row):
            return False
        mirror = row if par[i] and par[j] else {k: -c for k, c in row.items()}
        if rows[(j, i)] != mirror:
            return False
        if row:
            by_inner.setdefault(j, []).append((i, row))
    totals = {}
    for (b, c), inner in rows.items():
        for l, x in inner.items():
            for a, outer in by_inner.get(l, ()):
                if a <= b <= c:
                    triple = (a, b, c)
                elif b <= c <= a:
                    triple = (b, c, a)
                elif c <= a <= b:
                    triple = (c, a, b)
                else:
                    continue
                w = -x if par[a] and par[c] else x
                for t, y in outer.items():
                    key = triple + (t,)
                    totals[key] = totals.get(key, GR_ZERO) + w * y
    return not any(totals.values())


def _odd_columns(structure, i):
    """Sparse columns {r: c} of [b_i, .] on the odd part, read once from the table."""
    n_even = len(structure.basis.even_basis)
    if not 0 <= i < n_even:
        raise OddCartan("adjoint matrices are taken for even basis elements")
    columns = [{k - n_even: c for k, c in enumerate(structure.table[(i, s)]) if c}
               for s in range(n_even, n_even + len(structure.basis.odd_basis))]
    if any(min(column, default=0) < 0 for column in columns):
        raise NotClosed("even-odd bracket has even components")
    return columns


def adjoint_matrix(structure, i):
    """Matrix of [b_i, .] on the odd part, in the odd basis; i must be even."""
    columns = _odd_columns(structure, i)
    return [[column.get(r, GR_ZERO) for column in columns] for r in range(len(columns))]


def _char_poly(matrix):
    """Characteristic polynomial via the trace recursion, monic in the variable."""
    d = len(matrix)
    coeffs = {d: GR_ONE}
    m = [[GR_ONE if i == j else GR_ZERO for j in range(d)] for i in range(d)]
    c = GR_ONE
    for k in range(1, d + 1):
        if k > 1:
            for i in range(d):
                m[i][i] = m[i][i] + c
            m = mat_mul(matrix, m, GR_ZERO)
        else:
            m = [row[:] for row in matrix]
        trace = GR_ZERO
        for i in range(d):
            trace = trace + m[i][i]
        c = -trace / GaussianRational(k)
        coeffs[d - k] = c
    return Polynomial(coeffs)


def _rational_roots(poly):
    """All roots with multiplicity for a rational-coefficient polynomial.

    Returns None when some root is irrational (or the coefficients are not
    all real rational).  With the coefficients cleared to integers ``c_e``,
    every rational root is ``y / c_deg`` for an integer root ``y`` of the
    monic ``Q(y) = c_deg^(deg-1) * P(y / c_deg)`` (coefficients divided by
    their gcd first).  A linear ``Q`` has the root ``-Q(0)``.  A quadratic
    ``y^2 + b y + c`` has integer roots ``(-b +- s) / 2`` exactly when its
    discriminant ``b^2 - 4c`` is a square ``s^2``; the one of smaller
    magnitude is taken (the positive one on a tie), as the search would.
    Otherwise the smallest ``|y|`` is at most the geometric mean of the roots,
    ``|y|^deg <= |Q(0)|``, so the divisors of ``Q(0)`` are tried by increasing
    ``|y|`` up to that bound (SystemTooLarge past ``MAX_ROOT_SEARCH``).  The root
    found is divided out and the search goes on from its magnitude.
    """
    if any(c.b for c in poly.coeffs.values()):
        return None
    roots = []
    p = poly
    low = Fraction(0)  # every root below this magnitude is already found
    while int(p.degree()) > 0:
        const_exp = min(p.coeffs)
        if const_exp > 0:
            for _ in range(const_exp):
                roots.append(GR_ZERO)
            p = Polynomial({e - const_exp: c for e, c in p.coeffs.items()})
            continue
        deg = int(p.degree())
        denom_lcm = math.lcm(*(c.d for c in p.coeffs.values()))
        ints = [0] * (deg + 1)
        for e, c in p.coeffs.items():
            ints[e] = c.a * (denom_lcm // c.d)
        content = math.gcd(*ints)
        lead = ints[deg] // content
        monic = [ints[e] // content * lead ** (deg - 1 - e) for e in range(deg)] + [1]
        bound = abs(monic[0])
        found = Fraction(-monic[0], lead) if deg == 1 else None
        if deg == 2:
            b, disc = monic[1], monic[1] ** 2 - 4 * monic[0]
            s = math.isqrt(max(disc, 0))
            if s * s != disc:
                return None
            y = min((-b + s) // 2, (-b - s) // 2, key=lambda y: (abs(y), -y))
            found = Fraction(y, lead)
        k = max(1, -(-low.numerator * abs(lead) // low.denominator))
        while found is None and k**deg <= bound:
            if k > MAX_ROOT_SEARCH:
                raise SystemTooLarge(
                    "rational-root search would run to |y| = 10^%.1f, above the limit of %d"
                    % (math.log10(bound) / deg, MAX_ROOT_SEARCH)
                )
            if bound % k == 0:
                for y in (k, -k):
                    value = 0
                    for c in reversed(monic):
                        value = value * y + c
                    if not value:
                        found = Fraction(y, lead)
                        break
            k += 1
        if found is None:
            return None
        low = abs(found)
        found = GaussianRational(found)
        roots.append(found)
        linear = Polynomial({1: GR_ONE, 0: -found})
        p, rem = divmod(p, linear)
        if rem:
            raise InexactRootDivision("root %s left remainder %r" % (found, rem))
    return roots


def _strong_components(rows):
    """Strongly connected components of the graph r -> s for s in ``rows[r]``.

    Tarjan's algorithm (1972), walked with an explicit stack, since d may
    exceed the recursion limit.  Its rows and columns taken component by
    component, a matrix with that nonzero pattern is block triangular (Duff &
    Reid 1978).
    """
    index, low = {}, {}
    stack, components = [], []
    for root in range(len(rows)):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        walk = [(root, iter(rows[root]))]
        while walk:
            v, successors = walk[-1]
            for w in successors:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    walk.append((w, iter(rows[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                walk.pop()
                if walk:
                    u = walk[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    for w in component:
                        index[w] = len(rows)  # closed: it lowers no link any more
                    components.append(component)
    return components


def weight_decomposition(structure, h):
    """Exact eigenvalues (with multiplicity) of sum_i h_i ad(b_i) on the odd part.

    ``h`` is a coefficient vector over the even basis.  The operator must be
    diagonalizable with rational eigenvalues; otherwise NotDiagonalizable.
    Its sparse rows, summed from the table's sparse odd columns, split into
    strongly connected blocks, whose characteristic polynomials multiply to
    the operator's, so the roots are taken one block at a time; a repeated
    eigenvalue is checked on the kernel of the shifted sparse rows.
    """
    basis = structure.basis
    n_even = len(basis.even_basis)
    n_odd = len(basis.odd_basis)
    if len(h) != n_even:
        raise ValueError("expected %d even coefficients" % n_even)
    rows = [{} for _ in range(n_odd)]
    for i, hi in enumerate(h):
        hi = hi if isinstance(hi, GaussianRational) else GaussianRational(hi)
        if not hi:
            continue
        for s, column in enumerate(_odd_columns(structure, i)):
            for r, c in column.items():
                rows[r][s] = rows[r].get(s, GR_ZERO) + hi * c
    counts = {}
    for block in _strong_components(rows):
        matrix = [[rows[r].get(s, GR_ZERO) for s in block] for r in block]
        roots = _rational_roots(_char_poly(matrix))
        if roots is None:
            raise NotDiagonalizable("characteristic polynomial has irrational roots")
        for r in roots:
            counts[r] = counts.get(r, 0) + 1
    # by magnitude, positive first: the order the divisor search meets them in
    for value in sorted(counts, key=lambda v: (abs(v.re), v.a < 0)):
        mult = counts[value]
        if mult == 1:
            continue  # a simple eigenvalue always has a one-dimensional eigenspace
        shifted = [{**row, r: row.get(r, GR_ZERO) - value} for r, row in enumerate(rows)]
        if len(sparse_kernel_basis(shifted, n_odd)) != mult:
            raise NotDiagonalizable("eigenvalue %s is defective" % value)
    return sorted(counts.items(), key=lambda kv: kv[0].sort_key(), reverse=True)


def odd_derived_span(structure):
    """Dimension and basis of span{[odd, odd]} inside the even part."""
    basis = structure.basis
    n_even = len(basis.even_basis)
    n_odd = len(basis.odd_basis)
    vectors = []
    for r in range(n_odd):
        for s in range(r, n_odd):
            vec = structure.table[(n_even + r, n_even + s)]
            vectors.append(list(vec[:n_even]))
    reduced, pivots = rref(vectors)
    span = [tuple(reduced[r]) for r in range(len(pivots))]
    return len(pivots), span


def reduced_trivial_subspace(basis):
    """Even fields whose reduced vector field vanishes (trivial underlying map)."""
    n_even = len(basis.even_basis)
    rows = {}
    for c, field in enumerate(basis.even_basis):
        red = field.chart0_der.even_coeff.reduced_part()
        for e, coeff in red.num.coeffs.items():
            rows.setdefault(e, [GR_ZERO] * n_even)
            rows[e][c] = coeff
    matrix = [rows[e] for e in sorted(rows)]
    kern = kernel_basis(matrix, n_even)
    return len(kern), [tuple(v) for v in kern]


def conjugation_action(basis, pullback):
    """Matrix of X -> (p^-1)* o X o p* over the basis; NotGlobal / NotInSpan.

    A pullback is an algebra homomorphism, so for X = sum_v X_v d_v (d_0 =
    d/dz, d_{j+1} = d/dtheta_j) and a coordinate u,

        (p^-1)*(X(p*u)) = sum_v (p^-1)*(X_v) * J[v][u],
        J[v][u] = (p^-1)*(d_v p*u),

    and (p^-1)*(X_v) is the linear combination, over X_v's slot terms
    c z^e theta^nu, of c M[nu, e] with M[nu, e] = (p^-1)*(z)^e (p^-1)*(theta^nu).
    Each nonzero J[v][u] is pulled back once per call, and each M[nu, e] formed
    once per distinct monomial of the basis; every slot exponent e is >= 0.
    """
    manifold = basis.manifold
    if morphism_check_global(manifold, pullback) != "global":
        raise NotGlobal("conjugation requires a global automorphism pullback")
    inverse = pullback_invert(pullback)
    n = manifold.odd_dim
    chart = manifold.chart0
    # J[v][u], pulled back where d_v p*u is nonzero; p*u is the pullback's image u
    jac = [[img.d_even() for img in pullback.images]]
    jac += [[img.d_odd(j) for img in pullback.images] for j in range(n)]
    jac = [[inverse.apply(f) if f else f for f in row] for row in jac]
    # M[nu, e] by (nu, e), over the powers of (p^-1)*(z) built so far
    zero = SuperFunction.zero(chart, n)
    z_powers = [SuperFunction.one(chart, n)]
    monomials = {}
    conjugated = []
    for terms in basis._terms:
        coeffs = [zero] * (n + 1)
        for (v, nu, e), c in terms.items():
            image = monomials.get((nu, e))
            if image is None:
                while len(z_powers) <= e:
                    z_powers.append(z_powers[-1] * inverse.even_image)
                image = monomials[(nu, e)] = z_powers[e] * inverse.odd_product(nu)
            coeffs[v] = coeffs[v] + image.scale(c)
        images = [zero] * (n + 1)
        for coeff, row in zip(coeffs, jac):
            if coeff:
                images = [out + coeff * j if j else out for out, j in zip(images, row)]
        conjugated.append(SuperDerivation(chart, n, images[0], images[1:]))
    columns = expand_in_basis(basis, conjugated)
    m = len(basis.fields)
    return [[columns[c][r] for c in range(m)] for r in range(m)]


# ---------------------------------------------------------------------------
# reports


GrComparison = namedtuple("GrComparison", "gr dims gr_dims split")


def gr_comparison(manifold, cap=None):
    """Dimensions of the manifold versus its split model, with the inequality check."""
    basis = solve_global_fields(manifold, cap)
    split_model = manifold.gr()
    split = split_model is manifold
    gr_basis = basis if split else solve_global_fields(split_model, cap)
    dims = basis.dims
    gr_dims = gr_basis.dims
    if sum(dims) > sum(gr_dims):
        raise GrInequalityViolated(
            "total dimension %d exceeds the split model's %d" % (sum(dims), sum(gr_dims))
        )
    return GrComparison(split_model, dims, gr_dims, split)


class HCReport(namedtuple("HCReport", "basis structure jacobi derived_dim kernel_dim"
                          " split_supergroup comparison conjugation_identity_ok")):
    """Bundled Harish-Chandra data of a manifold: the infinitesimal side plus
    finite witnesses."""

    __slots__ = ()


def hc_pair_report(manifold, cap=None):
    basis = solve_global_fields(manifold, cap)
    structure = structure_constants(basis)
    jacobi = jacobi_check(structure)
    derived_dim, _ = odd_derived_span(structure)
    kernel_dim, _ = reduced_trivial_subspace(basis)
    comparison = gr_comparison(manifold, cap)
    identity = PullbackData.identity(manifold.chart0, manifold.odd_dim)
    conj = conjugation_action(basis, identity)
    m = len(basis.fields)
    identity_ok = all(
        conj[r][s] == (GR_ONE if r == s else GR_ZERO) for r in range(m) for s in range(m)
    )
    return HCReport(
        basis=basis,
        structure=structure,
        jacobi=jacobi,
        derived_dim=derived_dim,
        kernel_dim=kernel_dim,
        split_supergroup=(derived_dim == 0),
        comparison=comparison,
        conjugation_identity_ok=identity_ok,
    )
