"""Reference basis expansion, bracket table and Jacobi check kept as test oracles.

``expand_in_basis`` is the one that ``supervec.liealg`` used before a basis
was reduced once, at construction, kept verbatim with its three slot
helpers: every call collects the slots of the basis and of the targets,
builds the dense slot x field matrix and solves it for all targets jointly.
Its ``solve_columns`` is the dense one of ``reference_linalg``, so the oracle
shares no elimination code with the library.  The coefficients in a basis
are unique, so the library must return the same tuples, or raise
``NotInSpan`` with the same message, on every input.

``reference_structure_constants`` is the bracket table built from a
``SuperDerivation.bracket`` per pair, expanded with the library's
``expand_in_basis``, and ``sorted_triple_jacobi_check`` the Jacobi check
that evaluates the Jacobiator on every sorted triple i <= j <= k.  The
library brackets on slot terms and forms only the nonzero Jacobi products,
so it must give the same table, the same errors and the same verdict.

``dense_weight_decomposition`` is the weight decomposition that ``liealg``
used before it split the operator into strongly connected blocks: one dense
d x d operator, one characteristic polynomial of it by the trace recursion
(``dense_char_poly``, d ``mat_mul`` calls), its rational roots, and a defect
check on the dense shifted operator for each repeated eigenvalue.  It reads
the table through ``adjoint_matrix``, the dense reader that ``liealg`` used
before it read the odd columns sparse, kept verbatim, and takes the rank
with the dense ``rref`` of ``reference_linalg``, so it shares no table
reader and no elimination with the library.  The library must return the
same weights, or raise the same error with the same message, on every table
and ``h``.

``reference_conjugation_action`` is the conjugation action that ``liealg``
used before it pulled back each basis monomial and each coordinate partial
once: one full ``inverse.apply(X(p*u))`` Taylor substitution per basis field
X and coordinate u, kept verbatim (its ``expand_in_basis`` spelled as the
library's, since this module has its own).  The library must return the same
matrix, or raise the same error class, on every basis and pullback.

``searched_rational_roots`` is the ``_rational_roots`` that ``liealg`` used
before it read a quadratic factor's roots in closed form, kept verbatim: it
searches every factor of degree >= 2 by increasing magnitude.  The library
must return the same roots in the same order, or None, on every polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction

from supervec import liealg
from supervec.derivations import SuperDerivation, pullback_invert
from supervec.errors import (
    InexactRootDivision,
    NotClosed,
    NotDiagonalizable,
    NotGlobal,
    NotInSpan,
    OddCartan,
)
from supervec.geometry import morphism_check_global
from supervec.linalg import mat_mul
from supervec.scalars import GR_ONE, GR_ZERO, GaussianRational, Polynomial

from reference_linalg import rank, solve_columns


def _derivation_slots(ders):
    """Row index of every (component, multi-index, z-power) the derivations use.

    None when some coefficient is not a polynomial.
    """
    slots = set()
    for der in ders:
        for comp, coeff in [(-1, der.even_coeff)] + list(enumerate(der.odd_coeffs)):
            for nu, rf in coeff.terms.items():
                if not rf.is_polynomial():
                    return None
                for e in rf.num.coeffs:
                    slots.add((comp, nu, e))
    return {s: i for i, s in enumerate(sorted(slots))}


def _derivation_vector(der, slot_index):
    vec = [GR_ZERO] * len(slot_index)
    for comp, coeff in [(-1, der.even_coeff)] + list(enumerate(der.odd_coeffs)):
        for nu, rf in coeff.terms.items():
            for e, c in rf.num.coeffs.items():
                vec[slot_index[(comp, nu, e)]] = c
    return vec


def _coefficient_matrix(ders, slot_index):
    """One column per derivation, one row per slot."""
    vectors = [_derivation_vector(d, slot_index) for d in ders]
    return [[vec[r] for vec in vectors] for r in range(len(slot_index))]


def expand_in_basis(basis, ders):
    """Coefficients of chart-0 derivations in the basis; NotInSpan on failure."""
    base_ders = [f.chart0_der for f in basis.fields]
    slot_index = _derivation_slots(base_ders + list(ders))
    if slot_index is None:
        raise NotInSpan("derivation has non-polynomial coefficients")
    matrix = _coefficient_matrix(base_ders, slot_index)
    targets = [_derivation_vector(d, slot_index) for d in ders]
    solutions = solve_columns(matrix, targets)
    out = []
    for sol in solutions:
        if sol is None:
            raise NotInSpan("derivation does not lie in the span of the basis")
        out.append(tuple(sol))
    return out


def reference_structure_constants(basis):
    """Exact bracket table over the basis; NotClosed if a bracket escapes."""
    fields = basis.fields
    m = len(fields)
    ders = [f.chart0_der for f in fields]
    pairs = [(i, j) for i in range(m) for j in range(m)]
    brackets = [ders[i].bracket(ders[j]) for i, j in pairs]
    try:
        coeffs = liealg.expand_in_basis(basis, brackets)
    except NotInSpan as exc:
        raise NotClosed("bracket left the span: %s" % exc.message)
    table = {}
    parities = [f.parity for f in fields]
    for (i, j), vec in zip(pairs, coeffs):
        expected = (parities[i] + parities[j]) % 2
        for k, c in enumerate(vec):
            if c and parities[k] != expected:
                raise NotClosed("bracket violates parity additivity")
        table[(i, j)] = vec
    return liealg.StructureConstants(basis, table)


def sorted_triple_jacobi_check(structure):
    """Graded antisymmetry, parity additivity and the super Jacobi identity,
    with the Jacobiator evaluated on every sorted triple i <= j <= k."""
    par = [f.parity for f in structure.basis.fields]
    m = len(par)
    table = structure.table
    rows = {}
    for (i, j), vec in table.items():
        both_odd = par[i] and par[j]
        parity = (par[i] + par[j]) % 2
        for k, (a, b) in enumerate(zip(vec, table[(j, i)])):
            if (a - b if both_odd else a + b) or (a and par[k] != parity):
                return False
        rows[(i, j)] = [(k, c) for k, c in enumerate(vec) if c]
    for i in range(m):
        for j in range(i, m):
            for k in range(j, m):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    negate = par[a] and par[c]
                    for l, x in rows[(b, c)]:
                        for t, y in rows[(a, l)]:
                            cur = total.get(t, GR_ZERO)
                            total[t] = cur - x * y if negate else cur + x * y
                if any(total.values()):
                    return False
    return True


def dense_char_poly(matrix):
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


def adjoint_matrix(structure, i):
    """Matrix of [b_i, .] on the odd part, in the odd basis; i must be even."""
    basis = structure.basis
    n_even = len(basis.even_basis)
    if i >= n_even:
        raise OddCartan("adjoint matrices are taken for even basis elements")
    n_odd = len(basis.odd_basis)
    mat = [[GR_ZERO] * n_odd for _ in range(n_odd)]
    for s in range(n_odd):
        vec = structure.table[(i, n_even + s)]
        for k, c in enumerate(vec):
            if c and k < n_even:
                raise NotClosed("even-odd bracket has even components")
        for r in range(n_odd):
            mat[r][s] = vec[n_even + r]
    return mat


def dense_weight_decomposition(structure, h):
    """Exact eigenvalues (with multiplicity) of sum_i h_i ad(b_i) on the odd part."""
    basis = structure.basis
    n_even = len(basis.even_basis)
    n_odd = len(basis.odd_basis)
    if len(h) != n_even:
        raise ValueError("expected %d even coefficients" % n_even)
    matrix = [[GR_ZERO] * n_odd for _ in range(n_odd)]
    for i, hi in enumerate(h):
        hi = hi if isinstance(hi, GaussianRational) else GaussianRational(hi)
        if not hi:
            continue
        ad = adjoint_matrix(structure, i)
        for r in range(n_odd):
            for s in range(n_odd):
                if ad[r][s]:
                    matrix[r][s] = matrix[r][s] + hi * ad[r][s]
    if n_odd == 0:
        return []
    charpoly = dense_char_poly(matrix)
    roots = liealg._rational_roots(charpoly)
    if roots is None:
        raise NotDiagonalizable("characteristic polynomial has irrational roots")
    counts = {}
    for r in roots:
        counts[r] = counts.get(r, 0) + 1
    for value, mult in counts.items():
        if mult == 1:
            continue  # a simple eigenvalue always has a one-dimensional eigenspace
        shifted = [
            [matrix[r][s] - (value if r == s else GR_ZERO) for s in range(n_odd)]
            for r in range(n_odd)
        ]
        if rank(shifted) != n_odd - mult:
            raise NotDiagonalizable("eigenvalue %s is defective" % value)
    ordered = sorted(counts.items(), key=lambda kv: kv[0].sort_key(), reverse=True)
    return [(value, mult) for value, mult in ordered]


def reference_conjugation_action(basis, pullback):
    """Matrix of X -> (p^-1)* o X o p* over the basis; NotGlobal / NotInSpan."""
    manifold = basis.manifold
    if morphism_check_global(manifold, pullback) != "global":
        raise NotGlobal("conjugation requires a global automorphism pullback")
    inverse = pullback_invert(pullback)
    n = manifold.odd_dim
    chart = manifold.chart0
    # p* sends the coordinates z, t_j to the pullback's images
    coord_images = (pullback.even_image,) + pullback.odd_images
    conjugated = []
    for field in basis.fields:
        der = field.chart0_der
        images = [inverse.apply(der.apply(u)) for u in coord_images]
        conjugated.append(SuperDerivation(chart, n, images[0], images[1:]))
    columns = liealg.expand_in_basis(basis, conjugated)
    m = len(basis.fields)
    return [[columns[c][r] for c in range(m)] for r in range(m)]


def searched_rational_roots(poly):
    """All roots with multiplicity for a rational-coefficient polynomial.

    Returns None when some root is irrational (or the coefficients are not
    all real rational).  With the coefficients cleared to integers ``c_e``,
    every rational root is ``y / c_deg`` for an integer root ``y`` of the
    monic ``Q(y) = c_deg^(deg-1) * P(y / c_deg)`` (coefficients divided by
    their gcd first).  A linear ``Q`` has the root ``-Q(0)``.  Otherwise the
    smallest ``|y|`` is at most the geometric mean of the roots,
    ``|y|^deg <= |Q(0)|``, so the divisors of ``Q(0)`` are tried by increasing
    ``|y|`` up to that bound.  The root found is divided out and the search goes
    on from its magnitude.
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
        k = max(1, -(-low.numerator * abs(lead) // low.denominator))
        while found is None and k**deg <= bound:
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
