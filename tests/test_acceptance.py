"""Acceptance suite: one test per criterion, each printing a PASS line.

All comparisons are exact; the arithmetic has no tolerances anywhere.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import random
from fractions import Fraction

from conftest import matmul2, neg2, rand_sl2

from supervec.derivations import (
    SuperDerivation,
    bracket,
    pullback_invert,
    recombine,
    rothstein_decompose,
)
from supervec.geometry import CHART0, CHART1, mobius_lift, nilpotent_flow, sl2_embedding
from supervec.grassmann import PullbackData, SuperFunction, compose, idx_weight
from supervec.liealg import (
    conjugation_action,
    expand_in_basis,
    gr_comparison,
    jacobi_check,
    odd_derived_span,
    solve_global_fields,
    weight_decomposition,
)
from supervec.linalg import mat_mul, solve_square
from supervec.scalars import (
    GR_ZERO,
    GaussianRational,
    Polynomial,
    RationalFunction,
)

LINE_NAMES = {-1: "k-1", 0: "k0", 1: "k1", 2: "k2", 3: "k3", 5: "k5"}


def _passed(number, label):
    print("ACCEPTANCE %d %s: PASS" % (number, label))


def zm(k):
    return RationalFunction.monomial(k)


def sf(n, terms, chart=CHART0):
    return SuperFunction(chart, n, terms)


def test_criterion_1_line_family_dimensions(basis_cache):
    for k, name in LINE_NAMES.items():
        basis = basis_cache(name)
        assert len(basis.even_basis) == 4
        assert len(basis.odd_basis) == max(0, k + 1) + max(0, 3 - k)
    _passed(1, "line-family dimensions")


def test_criterion_2_bracket_goldens(basis_cache, structure_cache):
    # single odd coordinate, no even directions: the two-element table
    point = structure_cache("c01")
    assert point.table[(0, 1)] == (GR_ZERO, GaussianRational(-1))
    assert point.table[(1, 1)] == (GR_ZERO, GR_ZERO)

    # degree-1 line bundle: the four displayed odd-odd brackets, pushed
    # through the computed structure constants after a basis change
    basis = basis_cache("k1")
    structure = structure_cache("k1")
    one = RationalFunction.one()
    z = RationalFunction.z()
    z2 = RationalFunction(Polynomial.monomial(2))

    def der(even_terms, odd_terms):
        return SuperDerivation(CHART0, 1, sf(1, even_terms), [sf(1, odd_terms)])

    goldens = [
        (der({}, {0: one}), der({1: one}, {}), der({0: one}, {})),
        (der({}, {0: z}), der({1: one}, {}), der({0: z}, {1: one})),
        (der({}, {0: one}), der({1: z}, {}), der({0: z}, {})),
        (der({}, {0: z}), der({1: z}, {}), der({0: z2}, {1: z})),
    ]
    everything = [x for x, _, _ in goldens] + [y for _, y, _ in goldens]
    everything += [rhs for _, _, rhs in goldens]
    coeffs = expand_in_basis(basis, everything)
    lefts, rights, rhss = coeffs[0:4], coeffs[4:8], coeffs[8:12]
    m = len(basis.fields)
    for left, right, rhs in zip(lefts, rights, rhss):
        got = [GR_ZERO] * m
        for i, ci in enumerate(left):
            if not ci:
                continue
            for j, cj in enumerate(right):
                if not cj:
                    continue
                for t, d in enumerate(structure.table[(i, j)]):
                    if d:
                        got[t] = got[t] + ci * cj * d
        assert got == list(rhs)
    for x, y, rhs_der in goldens:
        assert bracket(x, y) == rhs_der
    _passed(2, "bracket goldens")


def test_criterion_3_derived_span(structure_cache):
    expected = {-1: 0, 0: 3, 1: 4, 2: 3, 3: 0, 5: 0}
    for k, dim in expected.items():
        got, _ = odd_derived_span(structure_cache(LINE_NAMES[k]))
        assert got == dim, (k, got)
    _passed(3, "odd derived span dimensions")


def test_criterion_4_weight_certification(manifolds, basis_cache, structure_cache):
    for k in (0, 1, 2):
        name = LINE_NAMES[k]
        basis = basis_cache(name)
        structure = structure_cache(name)
        h_field = sl2_embedding(manifolds[name], "diagonal", ((1, 0), (0, -1)))
        (vec,) = expand_in_basis(basis, [h_field])
        n_even = len(basis.even_basis)
        assert all(not c for c in vec[n_even:])
        weights = weight_decomposition(structure, list(vec[:n_even]))
        expected = {}
        for j in range(k + 1):
            expected[k - 2 * j] = expected.get(k - 2 * j, 0) + 1
        for j in range(3 - k):
            expected[2 - k - 2 * j] = expected.get(2 - k - 2 * j, 0) + 1
        assert {int(v.re): m for v, m in weights} == expected
    _passed(4, "adjoint weight strings")


def test_criterion_5_nonsplit_comparison(manifolds):
    comparison = gr_comparison(manifolds["nonsplit-2-2"])
    assert comparison.dims[0] == 6
    assert comparison.gr_dims[0] == 7
    # odd dimensions frozen from the first verified solver run
    assert comparison.dims[1] == 6
    assert comparison.gr_dims[1] == 6
    assert sum(comparison.dims) <= sum(comparison.gr_dims)
    _passed(5, "non-split versus split dimensions")


def test_criterion_6_group_law_suite(manifolds):
    rng = random.Random(101)
    for name, family in (("k2", "diagonal"), ("nonsplit-2-2", "nonsplit")):
        manifold = manifolds[name]
        for _ in range(5):
            A, B = rand_sl2(rng), rand_sl2(rng)
            lhs = compose(mobius_lift(manifold, family, A), mobius_lift(manifold, family, B))
            assert lhs == mobius_lift(manifold, family, matmul2(A, B))
        for _ in range(5):
            A = rand_sl2(rng)
            assert mobius_lift(manifold, family, A) == mobius_lift(manifold, family, neg2(A))
    _passed(6, "lift group laws")


def _rand_rf(rng, deg=2):
    num = Polynomial(
        {e: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
         for e in range(rng.randint(0, deg + 1))}
    )
    return RationalFunction(num)


def _rand_automorphism(rng, n):
    from supervec.linalg import determinant

    while True:
        a, b, c, d = (Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4))
        if a * d - b * c:
            break
    even_terms = {0: RationalFunction(Polynomial({0: c, 1: d}), Polynomial({0: a, 1: b}))}
    for idx in range(1 << n):
        if idx and idx_weight(idx) % 2 == 0 and rng.random() < 0.6:
            even_terms[idx] = _rand_rf(rng)
    while True:
        mat = [[_rand_rf(rng, 1) for _ in range(n)] for _ in range(n)]
        if determinant(mat, RationalFunction.zero(), RationalFunction.one()):
            break
    odds = []
    for j in range(n):
        terms = {1 << k: mat[j][k] for k in range(n) if mat[j][k]}
        for idx in range(1 << n):
            if idx_weight(idx) >= 3 and idx_weight(idx) % 2 == 1 and rng.random() < 0.5:
                terms[idx] = _rand_rf(rng)
        odds.append(SuperFunction(CHART0, n, terms))
    return PullbackData(CHART0, CHART0, SuperFunction(CHART0, n, even_terms), odds)


def test_criterion_7_rothstein_suite(manifolds):
    chi = manifolds["nonsplit-2-2"].transition
    parts = rothstein_decompose(chi)
    assert recombine(parts) == chi
    generator = parts.nilpotent_generator
    assert generator.even_coeff == SuperFunction(CHART1, 2, {3: zm(-1)})
    assert all(c.is_zero() for c in generator.odd_coeffs)
    inv = pullback_invert(chi)
    assert compose(chi, inv) == PullbackData.identity(CHART1, 2)
    assert compose(inv, chi) == PullbackData.identity(CHART0, 2)

    rng = random.Random(102)
    for _ in range(10):
        n = rng.randint(2, 3)
        p = _rand_automorphism(rng, n)
        assert recombine(rothstein_decompose(p)) == p
        p_inv = pullback_invert(p)
        assert compose(p, p_inv) == PullbackData.identity(CHART0, n)
        assert compose(p_inv, p) == PullbackData.identity(CHART0, n)
    _passed(7, "decompose/recombine and inversion")


def test_criterion_8_flow_suite(manifolds):
    manifold = manifolds["split-2-2"]
    rng = random.Random(103)
    zero2 = SuperFunction.zero(CHART0, 2)
    for _ in range(5):
        f = RationalFunction(Polynomial({e: GaussianRational(rng.randint(-3, 3)) for e in range(4)}))
        g = RationalFunction(Polynomial({e: GaussianRational(rng.randint(-3, 3)) for e in range(4)}))
        xf = SuperDerivation(CHART0, 2, sf(2, {3: f}), [zero2, zero2])
        xg = SuperDerivation(CHART0, 2, sf(2, {3: g}), [zero2, zero2])
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        t = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert compose(nilpotent_flow(manifold, xf, s), nilpotent_flow(manifold, xf, t)) == \
            nilpotent_flow(manifold, xf, s + t)
        assert compose(nilpotent_flow(manifold, xf, s), nilpotent_flow(manifold, xg, t)) == \
            compose(nilpotent_flow(manifold, xg, t), nilpotent_flow(manifold, xf, s))
    _passed(8, "flow group law and commutation")


def test_criterion_9_property_suites(manifolds, basis_cache, structure_cache):
    # graded antisymmetry + super Jacobi on every computed table
    for name in LINE_NAMES.values():
        assert jacobi_check(structure_cache(name))
    for name in ("split-2-2", "split-3-1", "nonsplit-2-2", "c01"):
        assert jacobi_check(structure_cache(name))

    # solver saturation: dimensions stable from the default cap to cap + 2
    for name in ("k2", "k5", "split-3-1", "nonsplit-2-2"):
        base = basis_cache(name)
        again = solve_global_fields(manifolds[name], base.cap_used + 2)
        assert base.dims == again.dims

    # conjugation: multiplicative and bracket-preserving
    basis = basis_cache("nonsplit-2-2")
    structure = structure_cache("nonsplit-2-2")
    manifold = manifolds["nonsplit-2-2"]
    rng = random.Random(104)
    m = len(basis.fields)
    for _ in range(3):
        A, B = rand_sl2(rng), rand_sl2(rng)
        pa, pb = mobius_lift(manifold, "nonsplit", A), mobius_lift(manifold, "nonsplit", B)
        ca, cb = conjugation_action(basis, pa), conjugation_action(basis, pb)
        assert mat_mul(ca, cb, GR_ZERO) == conjugation_action(basis, compose(pa, pb))
        for i in range(m):
            for j in range(m):
                lhs = [GR_ZERO] * m
                for r, cir in enumerate(c_col(ca, i)):
                    if not cir:
                        continue
                    for s, cjs in enumerate(c_col(ca, j)):
                        if not cjs:
                            continue
                        for t, d in enumerate(structure.table[(r, s)]):
                            if d:
                                lhs[t] = lhs[t] + cir * cjs * d
                rhs = [GR_ZERO] * m
                for t, d in enumerate(structure.table[(i, j)]):
                    if d:
                        for r in range(m):
                            rhs[r] = rhs[r] + d * ca[r][t]
                assert lhs == rhs

    # substitution is an algebra morphism: 100 random instances, n <= 3
    from test_grassmann import rand_pullback, rand_sf

    rng = random.Random(105)
    for _ in range(100):
        n = rng.randint(1, 3)
        p = rand_pullback(rng, n)
        f = rand_sf(rng, n)
        g = rand_sf(rng, n)
        assert p.apply(f * g) == p.apply(f) * p.apply(g)
        assert p.apply(f + g) == p.apply(f) + p.apply(g)
    _passed(9, "property suites")


def c_col(matrix, k):
    return [matrix[r][k] for r in range(len(matrix))]


def test_criterion_10_infinitesimal_adjoint(manifolds, basis_cache, structure_cache):
    """The t-linear coefficient of conjugation by the lifted flow equals the
    bracket action of the generating field, exactly.

    Conjugation is (flow^-1)* o Y o flow*, and pullbacks compose
    contravariantly, so the derivative realizes Y -> [Y, X]; both that
    identity and its equivalent form as minus the left-bracket action are
    asserted exactly.
    """
    manifold = manifolds["nonsplit-2-2"]
    basis = basis_cache("nonsplit-2-2")
    structure = structure_cache("nonsplit-2-2")
    m = len(basis.fields)
    for E in (((0, 1), (0, 0)), ((0, 0), (1, 0))):
        X = sl2_embedding(manifold, "nonsplit", E)
        (xvec,) = expand_in_basis(basis, [X])
        # matrix of Y -> [X, Y] over the full basis
        ad_left = [[GR_ZERO] * m for _ in range(m)]
        for i, ci in enumerate(xvec):
            if not ci:
                continue
            for j in range(m):
                for r, d in enumerate(structure.table[(i, j)]):
                    if d:
                        ad_left[r][j] = ad_left[r][j] + ci * d
        # flow of X: the one-parameter family of lifts of I + tE (E nilpotent)
        ts = list(range(5))
        mats = []
        for t in ts:
            matrix_t = (
                (1 + t * E[0][0], t * E[0][1]),
                (t * E[1][0], 1 + t * E[1][1]),
            )
            mats.append(conjugation_action(basis, mobius_lift(manifold, "nonsplit", matrix_t)))
        vandermonde = [[GaussianRational(t) ** p for p in range(5)] for t in ts]
        linear = [[GR_ZERO] * m for _ in range(m)]
        for r in range(m):
            for s in range(m):
                series = solve_square(vandermonde, [mats[i][r][s] for i in range(5)])
                linear[r][s] = series[1]
        for r in range(m):
            for s in range(m):
                assert linear[r][s] == -ad_left[r][s]
        # equivalently: the derivative is the right-bracket action Y -> [Y, X]
        ad_right = [[GR_ZERO] * m for _ in range(m)]
        for j in range(m):
            for i, ci in enumerate(xvec):
                if not ci:
                    continue
                for r, d in enumerate(structure.table[(j, i)]):
                    if d:
                        ad_right[r][j] = ad_right[r][j] + ci * d
        assert linear == ad_right
    _passed(10, "infinitesimal adjoint consistency")
