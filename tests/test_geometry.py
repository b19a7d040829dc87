import copy
import functools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

import reference_geometry as reference
from conftest import bundled_manifold_names, commutator2, idx_parity, matmul2, neg2, rand_sl2

from supervec.derivations import SuperDerivation, bracket, pullback_invert
from supervec.errors import (
    BadDeterminant,
    BadReducedMap,
    ChartMismatch,
    DegenerateOddPart,
    DivisionByZero,
    FamilyShapeMismatch,
    NotGlobal,
    NotLaurent,
    NotNilpotent,
    NotTraceless,
    ToolkitError,
)
from supervec.geometry import (
    CHART0,
    _coeffs_of,
    CHART1,
    KIND_C01,
    KIND_P1,
    POINT_CHART,
    GlobalVectorField,
    SuperManifoldData,
    laurent_terms,
    mobius_lift,
    morphism_check_global,
    nilpotent_flow,
    partials,
    sl2_embedding,
    term_product,
)
from supervec.grassmann import PullbackData, SuperFunction, compose, idx_mul, idx_products
from supervec.files import load_bundled_manifold, parse_manifold_text, parse_pullback_text
from supervec.liealg import expand_in_basis, solve_global_fields
from supervec.linalg import kernel_basis
from supervec.scalars import GaussianRational, Polynomial, RationalFunction, mobius_coefficients

from test_liealg import S1111
from test_solver_oracle import SYNTHETIC, laurent_sums


def zm(k):
    return RationalFunction.monomial(k)


def sf(n, terms, chart=CHART0):
    return SuperFunction(chart, n, terms)


def test_manifold_validation(manifolds):
    assert manifolds["k2"].odd_dim == 1
    with pytest.raises(BadReducedMap):
        SuperManifoldData.from_transition(
            "bad", 1,
            PullbackData(CHART0, CHART1, SuperFunction.coordinate(CHART0, 1),
                         [SuperFunction.odd_var(CHART0, 1, 0)]),
        )
    with pytest.raises(NotLaurent):
        SuperManifoldData.from_transition(
            "bad", 1,
            PullbackData(
                CHART0, CHART1, sf(1, {0: zm(-1)}),
                [sf(1, {1: RationalFunction.one() / (RationalFunction.z() - 1)})],
            ),
        )
    with pytest.raises(DegenerateOddPart):
        SuperManifoldData.from_transition(
            "bad", 2,
            PullbackData(
                CHART0, CHART1, sf(2, {0: zm(-1)}),
                [sf(2, {1: zm(-2)}), sf(2, {1: zm(-2)})],
            ),
        )


def _zero_field(chart, n):
    zero = SuperFunction.zero(chart, n)
    return SuperDerivation(chart, n, zero, [zero] * n)


# (call, error class, full message) of each coded check on library input
CODED_INPUT_CHECKS = {
    "transition-charts": (
        lambda: SuperManifoldData.from_transition("x", 1, PullbackData.identity(CHART0, 1)),
        ChartMismatch, "transition must map chart0 into chart1",
    ),
    "transition-odd-dim": (
        lambda: SuperManifoldData.from_transition("x", 2, load_bundled_manifold("k2").transition),
        ChartMismatch, "transition odd dimension does not match",
    ),
    "flow-chart": (
        lambda: nilpotent_flow(load_bundled_manifold("k2"), _zero_field("a", 1), 1),
        ChartMismatch, "field does not live on a chart of the manifold",
    ),
    "flow-odd-dim": (
        lambda: nilpotent_flow(load_bundled_manifold("k2"), _zero_field(CHART0, 2), 1),
        ChartMismatch, "field has the wrong odd dimension",
    ),
    "multi-index": (
        lambda: SuperFunction(CHART0, 1, {2: RationalFunction.one()}),
        ValueError, "multi-index out of range for odd dimension 1",
    ),
    "odd-index": (
        lambda: SuperFunction.odd_var(CHART0, 1, 1), ValueError, "odd index out of range",
    ),
    "combine": (
        lambda: SuperFunction.zero(CHART0, 1) + "x",
        TypeError, "cannot combine SuperFunction with <class 'str'>",
    ),
    "apply-chart": (
        lambda: PullbackData.identity(CHART0, 1).apply(SuperFunction.zero(CHART1, 1)),
        ChartMismatch, "function lives on 'chart1', pullback expects 'chart0'",
    ),
    "apply-odd-dim": (
        lambda: PullbackData.identity(CHART0, 1).apply(SuperFunction.zero(CHART0, 2)),
        ChartMismatch, "function has odd dimension 2, pullback expects 1",
    ),
    "combine-odd-dim": (
        lambda: SuperFunction.zero(CHART0, 1) + SuperFunction.zero(CHART0, 2),
        ChartMismatch, "cannot combine functions of odd dimension 1 and 2",
    ),
    "multiply-odd-dim": (
        lambda: SuperFunction.one(CHART0, 1) * SuperFunction.one(CHART0, 2),
        ChartMismatch, "cannot combine functions of odd dimension 1 and 2",
    ),
    "derivation-apply-odd-dim": (
        lambda: SuperDerivation.d_even(CHART0, 1).apply(SuperFunction.zero(CHART0, 2)),
        ChartMismatch, "function of odd dimension 2, derivation of odd dimension 1",
    ),
    "bracket-odd-dim": (
        lambda: SuperDerivation.d_even(CHART0, 1).bracket(SuperDerivation.d_even(CHART0, 2)),
        ChartMismatch, "bracket of derivations of odd dimensions 1 and 2",
    ),
    "field-charts": (
        lambda: GlobalVectorField(
            SuperManifoldData.point(), _zero_field(CHART0, 1), _zero_field(CHART1, 1)),
        ChartMismatch,
        "restrictions live on 'chart0' and 'chart1', the manifold's charts are 'c01' and 'c01'",
    ),
    "field-odd-dim": (
        lambda: GlobalVectorField(
            load_bundled_manifold("k2"), _zero_field(CHART0, 1), _zero_field(CHART1, 2)),
        ChartMismatch, "restrictions have odd dimensions 1 and 2, the manifold has 1",
    ),
    "negative-exponent": (
        lambda: Polynomial.monomial(-1), ValueError, "polynomial exponents are non-negative",
    ),
    "polynomial-division": (
        lambda: divmod(Polynomial.one(), Polynomial.zero()),
        DivisionByZero, "polynomial division by zero",
    ),
    "zero-denominator": (
        lambda: RationalFunction(Polynomial.one(), Polynomial.zero()),
        DivisionByZero, "rational function with zero denominator",
    ),
}


@pytest.mark.parametrize("case", sorted(CODED_INPUT_CHECKS))
def test_coded_input_checks_raise_their_messages(case):
    call, error, message = CODED_INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def is_split(manifold):
    return manifold.kind == KIND_C01 or manifold.gr() is manifold


def test_gr_is_idempotent_and_truncates(manifolds):
    nonsplit = manifolds["nonsplit-2-2"]
    split = nonsplit.gr()
    assert split.transition == PullbackData(
        CHART0, CHART1, sf(2, {0: zm(-1)}), [sf(2, {1: zm(-2)}), sf(2, {2: zm(-2)})]
    )
    assert split.gr() is split
    assert manifolds["split-2-2"].gr() is manifolds["split-2-2"]
    assert not is_split(nonsplit) and is_split(split)
    assert split.odd_dim == nonsplit.odd_dim


def test_morphism_check_scaling_is_global(manifolds):
    for name in ("k1", "k2", "k5"):
        m = manifolds[name]
        c = GaussianRational(Fraction(7, 3))
        p = PullbackData(
            CHART0, CHART0, SuperFunction.coordinate(CHART0, 1),
            [sf(1, {1: RationalFunction.constant(c)})],
        )
        assert morphism_check_global(m, p) == "global"


def test_morphism_check_z_scaling_is_chart0_only(manifolds):
    m = manifolds["split-2-2"]
    p = PullbackData(
        CHART0, CHART0, SuperFunction.coordinate(CHART0, 2),
        [sf(2, {1: RationalFunction.z()}), SuperFunction.odd_var(CHART0, 2, 1)],
    )
    assert morphism_check_global(m, p) == "chart0_only"


@pytest.mark.parametrize(
    "z, t1, verdict",
    [
        ("z^2", "t1", "chart0_only"),  # the reduced map is not a Mobius map
        ("z + 1", "t1/(z - 1)", "chart0_only"),  # a pole, though infinity is fixed
        ("1/(z - 2)", "t1/(z - 3)", "chart0_only"),  # a pole off the map's pole z = 2
        ("1/z", "t1", "chart0_only"),  # from chart 1, not holomorphic at w = 0
        ("z + 1", "t1", "global"),
    ],
)
def test_morphism_check_global_verdicts_on_k2(manifolds, z, t1, verdict):
    p = parse_pullback_text("[pullback]\nz = %s\nt1 = %s\n" % (z, t1))
    assert morphism_check_global(manifolds["k2"], p) == verdict


def test_mobius_lift_identity_and_determinant(manifolds):
    m = manifolds["nonsplit-2-2"]
    assert mobius_lift(m, "nonsplit", ((1, 0), (0, 1))) == PullbackData.identity(CHART0, 2)
    with pytest.raises(BadDeterminant):
        mobius_lift(m, "nonsplit", ((2, 0), (0, 1)))
    with pytest.raises(FamilyShapeMismatch):
        mobius_lift(manifolds["k2"], "nonsplit", ((1, 0), (0, 1)))
    with pytest.raises(FamilyShapeMismatch):
        mobius_lift(manifolds["nonsplit-2-2"], "diagonal", ((1, 0), (0, 1)))


def test_mobius_lift_nonsplit_display(manifolds):
    m = manifolds["nonsplit-2-2"]
    p = mobius_lift(m, "nonsplit", ((1, 1), (0, 1)))
    z = RationalFunction.z()
    one = RationalFunction.one()
    assert p.even_image == sf(2, {0: z / (one + z), 3: -(one / (one + z) ** 3)})
    sq = one / (one + z) ** 2
    assert p.odd_images[0] == sf(2, {1: sq})
    assert p.odd_images[1] == sf(2, {2: sq})


@pytest.mark.parametrize("name,family", [("k2", "diagonal"), ("split-2-2", "diagonal"), ("nonsplit-2-2", "nonsplit")])
def test_mobius_lift_group_law(manifolds, name, family):
    m = manifolds[name]
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(5):
        A, B = rand_sl2(rng), rand_sl2(rng)
        lhs = compose(mobius_lift(m, family, A), mobius_lift(m, family, B))
        assert lhs == mobius_lift(m, family, matmul2(A, B))


@pytest.mark.parametrize("name,family", [("k2", "diagonal"), ("nonsplit-2-2", "nonsplit")])
def test_mobius_lift_negation_even_degree(manifolds, name, family):
    m = manifolds[name]
    rng = random.Random(23)
    for _ in range(5):
        A = rand_sl2(rng)
        assert mobius_lift(m, family, A) == mobius_lift(m, family, neg2(A))


def test_mobius_lift_negation_differs_for_odd_degree(manifolds):
    m = manifolds["k1"]
    A = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
    assert mobius_lift(m, "diagonal", A) != mobius_lift(m, "diagonal", neg2(A))


def test_mobius_lift_always_global(manifolds):
    rng = random.Random(24)
    for name, family in (("k-1", "diagonal"), ("k3", "diagonal"), ("split-3-1", "diagonal"), ("nonsplit-2-2", "nonsplit")):
        m = manifolds[name]
        for _ in range(3):
            p = mobius_lift(m, family, rand_sl2(rng))
            assert morphism_check_global(m, p) == "global"


def test_mobius_lift_line_scaling_parameter(manifolds):
    m = manifolds["k2"]
    p = mobius_lift(m, "diagonal", ((1, 0), (0, 1)), s=Fraction(3))
    assert p.odd_images[0] == sf(1, {1: RationalFunction.constant(4)})
    assert morphism_check_global(m, p) == "global"


def test_sl2_embedding_displays(manifolds):
    mn = manifolds["nonsplit-2-2"]
    h = sl2_embedding(mn, "nonsplit", ((1, 0), (0, -1)))
    minus2z = RationalFunction(Polynomial.monomial(1, -2))
    assert h.even_coeff == sf(2, {0: minus2z})
    assert h.odd_coeffs[0] == sf(2, {1: RationalFunction.constant(-2)})
    assert h.odd_coeffs[1] == sf(2, {2: RationalFunction.constant(-2)})

    for k in (1, 2, 5):
        mk = manifolds["k%d" % k]
        e_minus = sl2_embedding(mk, "diagonal", ((0, 0), (1, 0)))
        assert e_minus.even_coeff == sf(1, {0: RationalFunction(Polynomial.monomial(2))})
        assert e_minus.odd_coeffs[0] == sf(1, {1: RationalFunction(Polynomial.monomial(1, k))})

    with pytest.raises(NotTraceless):
        sl2_embedding(mn, "nonsplit", ((1, 0), (0, 1)))


def test_sl2_embedding_line_is_bracket_homomorphism(manifolds):
    m = manifolds["k2"]
    H = ((1, 0), (0, -1))
    Ep = ((0, 1), (0, 0))
    Em = ((0, 0), (1, 0))
    for E, F in ((H, Ep), (H, Em), (Ep, Em)):
        lhs = bracket(sl2_embedding(m, "diagonal", E), sl2_embedding(m, "diagonal", F))
        assert lhs == sl2_embedding(m, "diagonal", commutator2(E, F))


S210_TEXT = (
    "[manifold]\nname = s210\nodd_dim = 3\n\n[transition]\n"
    "w = z^-1\neta1 = z^-2*t1\neta2 = z^-1*t2\neta3 = t3\n"
)


@pytest.fixture(scope="module")
def diagonal_manifolds(manifolds):
    return {"split-2-2": manifolds["split-2-2"], "s210": parse_manifold_text(S210_TEXT)}


@pytest.mark.parametrize("name", ["split-2-2", "s210"])
def test_diagonal_lifts_global_and_group_law(diagonal_manifolds, name):
    m = diagonal_manifolds[name]
    rng = random.Random(31)
    for _ in range(3):
        A, B = rand_sl2(rng), rand_sl2(rng)
        lift_a = mobius_lift(m, "diagonal", A)
        assert morphism_check_global(m, lift_a) == "global"
        lhs = compose(lift_a, mobius_lift(m, "diagonal", B))
        assert lhs == mobius_lift(m, "diagonal", matmul2(A, B))


@pytest.mark.parametrize("name", ["split-2-2", "s210"])
def test_diagonal_sl2_embedding_in_solved_basis(diagonal_manifolds, name):
    m = diagonal_manifolds[name]
    H, E, F = ((1, 0), (0, -1)), ((0, 1), (0, 0)), ((0, 0), (1, 0))
    for X, Y in ((H, E), (H, F), (E, F)):
        lhs = bracket(sl2_embedding(m, "diagonal", X), sl2_embedding(m, "diagonal", Y))
        assert lhs == sl2_embedding(m, "diagonal", commutator2(X, Y))
    fields = [sl2_embedding(m, "diagonal", X) for X in (H, E, F)]
    fields.append(sl2_embedding(m, "diagonal", ((0, 0), (0, 0)), scalar_part=1))
    basis = solve_global_fields(m)
    ders = [f.chart0_der for f in basis.fields]
    for field, coeffs in zip(fields, expand_in_basis(basis, fields)):
        total = SuperDerivation.zero(CHART0, m.odd_dim)
        for der, c in zip(ders, coeffs):
            total = total + der.scale(c)
        assert total == field


@pytest.mark.parametrize(
    "odd_images",
    [
        ["eta1 = 2*z^-1*t1"],
        ["eta1 = z^-1*t1 + z^-2*t1"],
        ["eta1 = z^-1*t1 + z^-1*t2", "eta2 = z^-1*t2"],
    ],
)
def test_diagonal_family_rejects_non_diagonal_shapes(odd_images):
    text = "[manifold]\nname = bad\nodd_dim = %d\n\n[transition]\nw = z^-1\n%s\n" % (
        len(odd_images),
        "\n".join(odd_images),
    )
    m = parse_manifold_text(text)
    with pytest.raises(FamilyShapeMismatch):
        mobius_lift(m, "diagonal", ((1, 0), (0, 1)))
    with pytest.raises(FamilyShapeMismatch):
        sl2_embedding(m, "diagonal", ((1, 0), (0, -1)))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda m: mobius_lift(m, "nonsplit", ((1, 0), (0, 1)), s=1),
         "parameter s applies to the diagonal family only"),
        (lambda m: sl2_embedding(m, "nonsplit", ((1, 0), (0, -1)), scalar_part=1),
         "scalar part applies to the diagonal family only"),
        (lambda m: mobius_lift(m, "line", ((1, 0), (0, 1))), "unknown family 'line'"),
        (lambda m: sl2_embedding(m, "line", ((1, 0), (0, -1))), "unknown family 'line'"),
    ],
)
def test_family_parameters_and_names_outside_the_families(manifolds, build, message):
    # on the non-split manifold, so only the parameter or the name is at fault
    with pytest.raises(FamilyShapeMismatch) as info:
        build(manifolds["nonsplit-2-2"])
    assert info.value.message == message


def test_diagonal_scaling_parameter_on_two_odd(manifolds):
    m = manifolds["split-2-2"]
    p = mobius_lift(m, "diagonal", ((1, 0), (0, 1)), s=3)
    four = RationalFunction.constant(4)
    assert p.odd_images == (sf(2, {1: four}), sf(2, {2: four}))
    assert morphism_check_global(m, p) == "global"


def test_sl2_embedding_nonsplit_matches_lift_orientation(manifolds):
    # the nonsplit display is the exact derivative of the lift action, so it
    # reverses bracket order relative to the matrix commutator
    m = manifolds["nonsplit-2-2"]
    H = ((1, 0), (0, -1))
    Ep = ((0, 1), (0, 0))
    Em = ((0, 0), (1, 0))
    for E, F in ((H, Ep), (H, Em), (Ep, Em)):
        lhs = bracket(sl2_embedding(m, "nonsplit", E), sl2_embedding(m, "nonsplit", F))
        assert lhs == sl2_embedding(m, "nonsplit", commutator2(F, E))


def _cauchy_interpolate_at_zero(samples):
    """Value at 0 of the rational function through exact (t, value) samples."""
    deg = (len(samples) - 2) // 2
    cols = 2 * (deg + 1)
    rows = []
    for t, value in samples:
        t = GaussianRational(t)
        row = [t**p for p in range(deg + 1)]
        row += [-(value * t**p) for p in range(deg + 1)]
        rows.append(row)
    for vec in kernel_basis(rows, cols):
        num0, den0 = vec[0], vec[deg + 1]
        if den0:
            return num0 / den0
    raise AssertionError("interpolation failed")


def _value_at(rf, point):
    """The value of a reduced quotient at a point, or None at a pole."""
    den = rf.den.eval(point)
    return rf.num.eval(point) / den if den else None


def test_lift_derivative_at_identity_matches_embedding(manifolds):
    # for nilpotent E the matrix exponential is I + tE exactly; the
    # t-derivative of each lift coefficient at a sample point must match the
    # embedding's coefficient there
    m = manifolds["nonsplit-2-2"]
    Ep = ((0, 1), (0, 0))
    Em = ((0, 0), (1, 0))
    ts = [Fraction(k) for k in range(-4, 5)]
    zs = [Fraction(k, 2) for k in range(1, 8)]
    for E in (Ep, Em):
        field = sl2_embedding(m, "nonsplit", E)
        lifts = {
            t: mobius_lift(
                m, "nonsplit",
                ((1 + t * E[0][0], t * E[0][1]), (t * E[1][0], 1 + t * E[1][1])),
            )
            for t in ts
        }
        coords = list(range(1 + 2))
        for coord in coords:
            if coord == 0:
                images = {t: lifts[t].even_image for t in ts}
                base = field.even_coeff
            else:
                images = {t: lifts[t].odd_images[coord - 1] for t in ts}
                base = field.odd_coeffs[coord - 1]
            for idx in set(base.terms) | {i for t in ts for i in images[t].terms}:
                for z0 in zs:
                    z0g = GaussianRational(z0)
                    samples = []
                    skip = False
                    for t in ts:
                        base_value = _value_at(images[t].coefficient(idx), z0g)
                        if base_value is None:
                            skip = True
                            break
                        # difference quotient against t = 0
                        ref = _value_at(images[Fraction(0)].coefficient(idx), z0g)
                        if t:
                            samples.append((t, (base_value - ref) / GaussianRational(t)))
                    if skip:
                        continue
                    derivative = _cauchy_interpolate_at_zero(samples)
                    assert derivative == _value_at(base.coefficient(idx), z0g)


def test_nilpotent_flow_group_law(manifolds):
    m = manifolds["split-2-2"]
    rng = random.Random(25)
    z = RationalFunction.z()
    for _ in range(5):
        coeffs = {e: GaussianRational(rng.randint(-3, 3)) for e in range(4)}
        f = RationalFunction(Polynomial(coeffs))
        x = SuperDerivation(CHART0, 2, sf(2, {3: f}), [SuperFunction.zero(CHART0, 2)] * 2)
        s, t = Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 2)
        lhs = compose(nilpotent_flow(m, x, s), nilpotent_flow(m, x, t))
        assert lhs == nilpotent_flow(m, x, s + t)
        assert compose(nilpotent_flow(m, x, t), nilpotent_flow(m, x, -t)) == PullbackData.identity(CHART0, 2)


def test_nilpotent_flow_single_term():
    m = SuperManifoldData.from_transition(
        "tmp", 2,
        PullbackData(CHART0, CHART1, sf(2, {0: zm(-1)}), [sf(2, {1: zm(-2)}), sf(2, {2: zm(-2)})]),
    )
    x = SuperDerivation(CHART0, 2, sf(2, {3: RationalFunction(Polynomial.monomial(3))}),
                        [SuperFunction.zero(CHART0, 2)] * 2)
    flow = nilpotent_flow(m, x, 1)
    assert flow.even_image == sf(2, {0: RationalFunction.z(), 3: RationalFunction(Polynomial.monomial(3))})
    with pytest.raises(NotNilpotent):
        nilpotent_flow(m, SuperDerivation.d_even(CHART0, 2), 1)


def test_flows_commute(manifolds):
    m = manifolds["split-2-2"]
    rng = random.Random(26)
    for _ in range(5):
        f = RationalFunction(Polynomial({e: GaussianRational(rng.randint(-2, 2)) for e in range(4)}))
        g = RationalFunction(Polynomial({e: GaussianRational(rng.randint(-2, 2)) for e in range(4)}))
        xf = SuperDerivation(CHART0, 2, sf(2, {3: f}), [SuperFunction.zero(CHART0, 2)] * 2)
        xg = SuperDerivation(CHART0, 2, sf(2, {3: g}), [SuperFunction.zero(CHART0, 2)] * 2)
        s, t = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 2)
        a = nilpotent_flow(m, xf, s)
        b = nilpotent_flow(m, xg, t)
        assert compose(a, b) == compose(b, a)


def test_invert_lift_is_lift_of_inverse_matrix(manifolds):
    rng = random.Random(31)
    for name, family in (("k2", "diagonal"), ("nonsplit-2-2", "nonsplit")):
        m = manifolds[name]
        for _ in range(3):
            A = rand_sl2(rng)
            inv_matrix = ((A[1][1], -A[0][1]), (-A[1][0], A[0][0]))
            from supervec.derivations import pullback_invert

            assert pullback_invert(mobius_lift(m, family, A)) == mobius_lift(m, family, inv_matrix)


def test_morphism_check_affine_lift_branch(manifolds):
    # b = 0 keeps infinity fixed, so the check runs through the conjugated
    # chart-1 representation at w = 0
    m = manifolds["k2"]
    A = ((Fraction(1), Fraction(0)), (Fraction(3), Fraction(1)))  # z -> z + 3
    assert morphism_check_global(m, mobius_lift(m, "diagonal", A)) == "global"
    B = ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(2)))  # z -> 4z
    assert morphism_check_global(m, mobius_lift(m, "diagonal", B)) == "global"


def test_point_scaling_automorphisms(manifolds):
    m = manifolds["c01"]
    chart = m.chart0
    scale = PullbackData(
        chart, chart, SuperFunction.coordinate(chart, 1),
        [SuperFunction(chart, 1, {1: RationalFunction.constant(3)})],
    )
    assert morphism_check_global(m, scale) == "global"
    degenerate = PullbackData(
        chart, chart, SuperFunction.coordinate(chart, 1),
        [SuperFunction(chart, 1, {1: RationalFunction.z()})],
    )
    assert morphism_check_global(m, degenerate) == "chart0_only"


def test_substitute_pole_at_constant_reduced_part():
    from supervec.errors import UndefinedComposition

    one = RationalFunction.one()
    p = PullbackData(
        CHART0, CHART0,
        SuperFunction(CHART0, 1, {0: one}),
        [SuperFunction.odd_var(CHART0, 1, 0)],
    )
    smooth = SuperFunction(CHART0, 1, {0: one / (RationalFunction.z() + one)})
    assert p.apply(smooth) == SuperFunction(CHART0, 1, {0: one * Fraction(1, 2)})
    singular = SuperFunction(CHART0, 1, {0: one / (RationalFunction.z() - one)})
    with pytest.raises(UndefinedComposition):
        p.apply(singular)


def test_morphism_check_rejects_wrong_lift_power(manifolds):
    # correct underlying map but theta scaled by the wrong power: the
    # representation into chart 1 keeps a pole at the reduced map's pole
    m = manifolds["k2"]
    a, b, c, d = Fraction(1), Fraction(1), Fraction(0), Fraction(1)
    mobius = RationalFunction(
        Polynomial({0: GaussianRational(c), 1: GaussianRational(d)}),
        Polynomial({0: GaussianRational(a), 1: GaussianRational(b)}),
    )
    base = RationalFunction(Polynomial({0: GaussianRational(a), 1: GaussianRational(b)}))
    wrong = PullbackData(
        CHART0, CHART0,
        SuperFunction.from_rf(CHART0, 1, mobius),
        [sf(1, {1: RationalFunction.one() / base**3})],
    )
    assert morphism_check_global(m, wrong) == "chart0_only"
    right = PullbackData(
        CHART0, CHART0,
        SuperFunction.from_rf(CHART0, 1, mobius),
        [sf(1, {1: RationalFunction.one() / base**2})],
    )
    assert morphism_check_global(m, right) == "global"


BUNDLED = {name: load_bundled_manifold(name) for name in bundled_manifold_names()}
P1_NAMES = sorted(name for name, m in BUNDLED.items() if m.kind != KIND_C01)
DENOMINATOR_ROOTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
SMALL = st.integers(-2, 2)


def _pullback(n, mu, even_terms, odd_terms):
    """Chart-0 pullback with reduced map ``mu`` and the given extra terms."""
    even = SuperFunction(CHART0, n, {0: mu, **even_terms})
    return PullbackData(CHART0, CHART0, even, [sf(n, terms) for terms in odd_terms])


@st.composite
def globality_cases(draw):
    """(manifold name, chart-0 pullback) on a bundled P^1 manifold.

    The start is a Mobius lift of the manifold's family, a Mobius map that
    sends each theta_j to itself, or a map whose reduced part is not Mobius;
    up to two of its nilpotent or theta-linear coefficients are then replaced
    by p(z) / (z - a)^k, with a in DENOMINATOR_ROOTS or the reduced map's pole.
    """
    name = draw(st.sampled_from(P1_NAMES))
    m = BUNDLED[name]
    n = m.odd_dim
    z = RationalFunction.z()
    start = draw(st.sampled_from(["lift", "mobius", "not mobius"]))
    pole = None
    if start == "not mobius":
        maps = [z * z, (z * z + 1) / (z - 1), z**3 / (z + 1), RationalFunction.constant(2)]
        mu = draw(st.sampled_from(maps))
        p = _pullback(n, mu, {}, [{1 << j: RationalFunction.one()} for j in range(n)])
    else:
        a = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)]))
        # b = 0 fixes infinity
        b, c = draw(st.one_of(st.just(0), SMALL)), draw(SMALL)
        matrix = ((a, b), (c, (1 + b * c) / a))
        family = "nonsplit" if name == "nonsplit-2-2" else "diagonal"
        p = mobius_lift(m, family, matrix)
        if start == "mobius":
            odds = [{1 << j: RationalFunction.one()} for j in range(n)]
            p = _pullback(n, p.even_image.reduced_part(), {}, odds)
        pole = -a / b if b else None
    even_terms = {idx: rf for idx, rf in p.even_image.terms.items() if idx}
    odd_terms = [dict(img.terms) for img in p.odd_images]
    slots = [(0, idx) for idx in range(1, 1 << n) if not idx_parity(idx)]
    slots += [(j + 1, 1 << i) for j in range(n) for i in range(n)]
    roots = st.sampled_from(DENOMINATOR_ROOTS)
    if pole is not None:
        roots = st.one_of(st.just(pole), roots)
    for coord, idx in draw(st.lists(st.sampled_from(slots), max_size=2)):
        num = Polynomial({e: draw(SMALL) for e in range(draw(st.integers(0, 3)))})
        root, k = draw(roots), draw(st.integers(0, 3))
        rf = RationalFunction(num) / (z - root) ** k
        (even_terms if coord == 0 else odd_terms[coord - 1])[idx] = rf
    return name, _pullback(n, p.even_image.reduced_part(), even_terms, odd_terms)


def _exit(manifold, p, verdict):
    """The parent check's exit that gave a P^1 verdict."""
    if verdict == "global":
        return "global"
    coeffs = mobius_coefficients(p.even_image.reduced_part())
    if coeffs is None:
        return "reduced map not Mobius"
    _, _, gamma, delta = coeffs
    dens = [rf.den for rf in _coeffs_of(p)]
    if not gamma:
        if any(den.degree() for den in dens):
            return "a denominator while infinity is fixed"
        return "a pole at fixed infinity"
    pole = -delta / gamma
    if any(reference.root_multiplicity(den, pole) < den.degree() for den in dens):
        return "a denominator root off the pole"
    if not reference._holomorphic_at(compose(manifold.transition, p), pole):
        return "a pole into chart 1 at the map's pole"
    return "a pole at moved infinity"


def _parsed(z, *odds):
    return parse_pullback_text("[pullback]\nz = %s\n" % z + "".join(
        "t%d = %s\n" % (j + 1, text) for j, text in enumerate(odds)))


def _point_case(odd_coeff, even_scale=1):
    chart = POINT_CHART
    return "c01", PullbackData(
        chart, chart, SuperFunction.coordinate(chart, 1).scale(even_scale),
        [SuperFunction(chart, 1, {1: odd_coeff})],
    )


@settings(max_examples=400, deadline=None)
@given(case=globality_cases())
@example(case=("k2", _parsed("z^2", "t1")))  # not Mobius
@example(case=("k2", _parsed("z + 1", "t1/(z - 1)")))  # a denominator, infinity fixed
@example(case=("k2", _parsed("1/(z - 2)", "t1/(z - 3)")))  # a root off the pole
@example(case=("k2", _parsed("z/(z + 1)", "t1/((z + 1)*(z + 1)*(z + 1))")))  # pole into chart 1
@example(case=("k2", _parsed("z + 1", "z^3*t1")))  # a pole at fixed infinity
@example(case=("k2", _parsed("1/z", "t1")))  # a pole at moved infinity
@example(case=("k2", _parsed("z + 1", "t1")))  # global, infinity fixed
@example(case=("split-2-2", _parsed(  # global, infinity moved
    "(z + 1)/(z + 2)", "t1/((z + 2)*(z + 2))", "t2/((z + 2)*(z + 2))")))
@example(case=_point_case(RationalFunction.constant(3)))
@example(case=_point_case(RationalFunction.z()))
@example(case=_point_case(RationalFunction.constant(3), even_scale=2))  # moves the even coordinate
@example(case=("c01", _parsed("z", "t1")))  # ChartMismatch
@example(case=("k2", PullbackData.identity(CHART1, 1)))  # ChartMismatch
def test_morphism_check_global_matches_reference(case):
    name, p = case
    m = BUNDLED[name]
    outcomes = []
    for check in (morphism_check_global, reference.morphism_check_global):
        try:
            outcomes.append(check(m, p))
        except Exception as e:
            outcomes.append(type(e))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], type):
        event("error %s" % outcomes[0].__name__)
    elif m.kind == KIND_C01:
        event("point %s" % outcomes[0])
    else:
        event(_exit(m, p, outcomes[0]))


SMALL_Q = st.fractions(min_value=-2, max_value=2, max_denominator=2)
GAUSSIAN = st.builds(GaussianRational, SMALL_Q, SMALL_Q)
FAMILY_BUILDERS = {"lift": mobius_lift, "embedding": sl2_embedding}


@st.composite
def family_cases(draw):
    """(builder, manifold name, family, matrix, extra parameter).

    The matrix has small Q(i) entries and is unit-determinant for a lift, or
    traceless for an embedding, in at least three draws of four; the manifold
    is the non-split one in six draws of fifteen; the family is the
    manifold's own in two draws of five, else ``diagonal``, ``nonsplit`` or
    an unknown one; the extra parameter ``s`` or ``scalar_part`` is zero in
    two draws of three, and may be zero in the third.
    """
    builder = draw(st.sampled_from(sorted(FAMILY_BUILDERS)))
    kind = builder if draw(st.sampled_from([True, True, True, False])) else draw(
        st.sampled_from(sorted(FAMILY_BUILDERS)))
    a, b, c = draw(GAUSSIAN), draw(GAUSSIAN), draw(GAUSSIAN)
    if kind == "lift":
        a = a or GaussianRational(1)
        d = (1 + b * c) / a
    else:
        d = -a
    name = draw(st.sampled_from(sorted(BUNDLED) + ["nonsplit-2-2"] * 5))
    own = "nonsplit" if name == "nonsplit-2-2" else "diagonal"
    family = draw(st.sampled_from([own, own, "diagonal", "nonsplit", "line"]))
    extra = draw(st.one_of(st.just(0), st.just(0), GAUSSIAN))
    return builder, name, family, ((a, b), (c, d)), extra


def _family_outcome(build, manifold, family, matrix, extra):
    """The built value with the term order of each image, or the error and its message."""
    try:
        value = build(manifold, family, matrix, extra)
    except Exception as e:
        return type(e), getattr(e, "message", str(e))
    images = value.coeffs if isinstance(value, SuperDerivation) else (
        value.even_image, *value.odd_images)
    return value, [list(img.terms) for img in images]


H2, UNIPOTENT = ((1, 0), (0, -1)), ((1, 1), (0, 1))


@settings(max_examples=300, deadline=None)
@given(case=family_cases())
@example(case=("lift", "nonsplit-2-2", "nonsplit", UNIPOTENT, 0))
@example(case=("lift", "nonsplit-2-2", "nonsplit", ((1, 0), (0, 1)), 0))  # b = 0
@example(case=("lift", "split-3-1", "diagonal", UNIPOTENT, 3))
@example(case=("lift", "k2", "diagonal", H2, 0))  # BadDeterminant
@example(case=("lift", "c01", "diagonal", UNIPOTENT, 0))  # not two-chart
@example(case=("lift", "nonsplit-2-2", "diagonal", UNIPOTENT, 0))  # not split
@example(case=("lift", "nonsplit-2-2", "nonsplit", UNIPOTENT, 1))  # s off the diagonal family
@example(case=("lift", "k2", "nonsplit", UNIPOTENT, 0))  # not the non-split manifold
@example(case=("lift", "k2", "line", UNIPOTENT, 0))  # unknown family
@example(case=("embedding", "nonsplit-2-2", "nonsplit", ((1, 2), (3, -1)), 0))
@example(case=("embedding", "k5", "diagonal", ((1, 2), (3, -1)), 2))
@example(case=("embedding", "k2", "diagonal", UNIPOTENT, 0))  # NotTraceless
@example(case=("embedding", "nonsplit-2-2", "nonsplit", H2, 1))  # scalar part off the diagonal family
@example(case=("embedding", "c01", "nonsplit", H2, 0))  # not the non-split manifold
@example(case=("embedding", "k2", "line", H2, 0))  # unknown family
def test_families_match_reference(case):
    builder, name, family, matrix, extra = case
    m = BUNDLED[name]
    got = _family_outcome(FAMILY_BUILDERS[builder], m, family, matrix, extra)
    want = _family_outcome(getattr(reference, FAMILY_BUILDERS[builder].__name__),
                           m, family, matrix, extra)
    assert got == want
    if isinstance(got[0], type):
        event("%s %s: %s" % (builder, got[0].__name__, got[1]))
    else:
        event("%s %s" % (builder, family))


def _chart1_restriction(manifold, chart0_der):
    """The chart-1 field whose value on each chart-1 coordinate is carried
    across the transition from the chart-0 field's value on its image."""
    chi = manifold.transition
    chi_inv = pullback_invert(chi)
    coeffs = [chi_inv.apply(chart0_der.apply(img)) for img in chi.images]
    return SuperDerivation(CHART1, manifold.odd_dim, coeffs[0], coeffs[1:])


def _is_polynomial(der):
    return all(
        rf.is_polynomial() for c in (der.even_coeff, *der.odd_coeffs) for rf in c.terms.values()
    )


@pytest.mark.parametrize("name", ["k2", "nonsplit-2-2"])
def test_global_field_restrictions_agree(manifolds, basis_cache, name):
    # the transported chart-1 restriction of every solved field is the solver's
    m = manifolds[name]
    for field in basis_cache(name).fields:
        chart1 = _chart1_restriction(m, field.chart0_der)
        assert chart1 == field.chart1_der
        assert GlobalVectorField(m, field.chart0_der, chart1) == field


def test_global_field_rejects_mixed_parity(manifolds):
    # d/dz + d/dt1 agrees across the transition with polynomial restrictions
    m = manifolds["k2"]
    mixed = SuperDerivation.d_even(CHART0, 1) + SuperDerivation.d_odd(CHART0, 1, 0)
    chart1 = _chart1_restriction(m, mixed)
    assert _is_polynomial(chart1)
    with pytest.raises(NotGlobal, match="parity"):
        GlobalVectorField(m, mixed, chart1)


def test_global_field_rejects_non_polynomial_coefficient(manifolds):
    # z^-5 d/dz is a field on the overlap: -w^7 d/dw - 2 w^6 eta1 d/deta1 on
    # chart 1, so only its chart-0 pole rules it out
    m = manifolds["k2"]
    zero = SuperFunction.zero(CHART0, 1)
    der = SuperDerivation(CHART0, 1, sf(1, {0: zm(-5)}), [zero])
    chart1 = _chart1_restriction(m, der)
    assert _is_polynomial(chart1)
    with pytest.raises(NotGlobal, match="polynomial"):
        GlobalVectorField(m, der, chart1)


def test_global_field_rejects_disagreeing_restrictions(manifolds, basis_cache):
    k2 = manifolds["k2"]
    with pytest.raises(NotGlobal, match="disagree"):
        GlobalVectorField(k2, SuperDerivation.d_even(CHART0, 1), SuperDerivation.d_even(CHART1, 1))
    # a solved nonsplit-2-2 field with eta2 added to its first chart-1 odd coefficient
    m = manifolds["nonsplit-2-2"]
    for field in basis_cache("nonsplit-2-2").fields:
        c1 = field.chart1_der
        odds = list(c1.odd_coeffs)
        if field.parity == 0:
            odds[0] = odds[0] + SuperFunction.odd_var(CHART1, 2, 1)
        else:
            odds[0] = odds[0] + SuperFunction.one(CHART1, 2)
        changed = SuperDerivation(CHART1, 2, c1.even_coeff, odds)
        with pytest.raises(NotGlobal, match="disagree"):
            GlobalVectorField(m, field.chart0_der, changed)


def test_global_field_checks_parity_then_polynomials_then_the_transition(manifolds):
    # each input also fails every later check
    m = manifolds["k2"]
    zero = SuperFunction.zero(CHART0, 1)
    pole = SuperDerivation(CHART0, 1, sf(1, {0: zm(-5)}), [zero])
    wrong = SuperDerivation.d_even(CHART1, 1)
    cases = [
        (pole + SuperDerivation.d_odd(CHART0, 1, 0), "global fields must be parity-homogeneous"),
        (pole, "chart restrictions must have polynomial coefficients"),
        (SuperDerivation.d_even(CHART0, 1), "chart restrictions disagree across the transition"),
    ]
    for chart0_der, message in cases:
        with pytest.raises(NotGlobal) as info:
            GlobalVectorField(m, chart0_der, wrong)
        assert info.value.message == message


def _z_dependent_k2_field(basis_cache):
    return next(f for f in basis_cache("k2").fields
                if any(rf.num.degree() > 0 for c in f.chart0_der.coeffs for rf in c.terms.values()))


@pytest.mark.parametrize("case", ["c01 with a k2 field", "c01 of odd dimension 3",
                                  "k2 with swapped charts", "k2 with a (1|2) chart-1 field"])
def test_global_field_checks_the_charts_and_odd_dimensions(manifolds, basis_cache, case):
    # each field is homogeneous with polynomial coefficients, so only the
    # chart and odd-dimension guard can reject it; on the point nothing else would
    field = _z_dependent_k2_field(basis_cache)
    cube = SuperDerivation.d_odd(POINT_CHART, 3, 0)
    name, chart0_der, chart1_der = {
        "c01 with a k2 field": ("c01", field.chart0_der, field.chart1_der),
        "c01 of odd dimension 3": ("c01", cube, cube),
        "k2 with swapped charts": ("k2", field.chart1_der, field.chart0_der),
        "k2 with a (1|2) chart-1 field": (
            "k2", SuperDerivation.d_even(CHART0, 1), SuperDerivation.d_even(CHART1, 2)),
    }[case]
    with pytest.raises(ChartMismatch):
        GlobalVectorField(manifolds[name], chart0_der, chart1_der)


def test_global_field_checks_the_charts_before_parity(manifolds):
    # a mixed-parity chart-0 field with a pole, given on the other chart
    mixed = SuperDerivation(CHART1, 1, sf(1, {0: zm(-5)}, chart=CHART1),
                            [SuperFunction.one(CHART1, 1)])
    with pytest.raises(ChartMismatch, match="restrictions live on 'chart1' and 'chart1'"):
        GlobalVectorField(manifolds["k2"], mixed, SuperDerivation.d_even(CHART1, 1))


def test_global_field_on_a_non_laurent_transition_raises_not_laurent():
    # only a hand-built record can carry a pole off z = 0 in its transition;
    # the check reads it even for the zero field, as from_transition would
    chi = PullbackData(CHART0, CHART1, sf(1, {0: zm(-1)}),
                       [sf(1, {1: RationalFunction.one() / (RationalFunction.z() - 1)})])
    m = SuperManifoldData("hand-built", 1, KIND_P1, chi)
    with pytest.raises(NotLaurent, match="poles at z = 0"):
        GlobalVectorField(m, _zero_field(CHART0, 1), _zero_field(CHART1, 1))


ORACLE_MANIFOLDS = P1_NAMES + ["ns33", "s222", "k2i", "s1111"]


@functools.cache
def _oracle_basis(name):
    if name not in BUNDLED:
        text = S1111 if name == "s1111" else SYNTHETIC[name]
        return solve_global_fields(parse_manifold_text("[manifold]\nname = %s\n%s" % (name, text)))
    return solve_global_fields(BUNDLED[name])


GLOBALITY_EDITS = ["none", "swap", "sum", "drop", "edit", "edit", "edit", "edit"]


@st.composite
def global_field_cases(draw):
    """(manifold name, field index, corruption) on a solved basis.  The
    corruption is ("none",), ("swap",) the two restrictions, ("sum", j) with
    field j of the same parity, ("drop", chart, v, nu), the term theta^nu of
    component v, or ("edit", chart, v, nu, e, c), which adds c z^e theta^nu
    there (w^e on chart 1); an edit keeps the field's parity in three draws of
    four, and its exponent may be -1."""
    name = draw(st.sampled_from(ORACLE_MANIFOLDS))
    basis = _oracle_basis(name)
    i = draw(st.integers(0, len(basis) - 1))
    field, n = basis.fields[i], basis.manifold.odd_dim
    kind = draw(st.sampled_from(GLOBALITY_EDITS))
    if kind == "sum":
        same = [j for j, f in enumerate(basis.fields) if f.parity == field.parity]
        return name, i, (kind, draw(st.sampled_from(same)))
    if kind not in ("drop", "edit"):
        return name, i, (kind,)
    chart, v = draw(st.integers(0, 1)), draw(st.integers(0, n))
    if kind == "drop":
        terms = (field.chart0_der, field.chart1_der)[chart].coeffs[v].terms
        return (name, i, (kind, chart, v, draw(st.sampled_from(sorted(terms))))) if terms else (
            name, i, ("none",))
    parity = field.parity if draw(st.sampled_from([True, True, True, False])) else draw(
        st.integers(0, 1))
    pool = [nu for nu in range(1 << n) if (idx_parity(nu) + (v > 0)) & 1 == parity]
    e = draw(st.integers(-1, 4))
    c = draw(st.sampled_from([1, -1, 2, GaussianRational(0, 1), Fraction(1, 2)]))
    return name, i, (kind, chart, v, draw(st.sampled_from(pool)), e, c)


def _corrupted(basis, i, corruption):
    """The restrictions (chart0_der, chart1_der) of field i after the corruption."""
    field = basis.fields[i]
    ders = [field.chart0_der, field.chart1_der]
    kind, *args = corruption
    if kind == "swap":
        ders.reverse()
    elif kind == "sum":
        other = basis.fields[args[0]]
        ders = [field.chart0_der + other.chart0_der, field.chart1_der + other.chart1_der]
    elif kind in ("drop", "edit"):
        chart, v, nu = args[:3]
        der = ders[chart]
        coeffs = list(der.coeffs)
        terms = dict(coeffs[v].terms)
        if kind == "drop":
            del terms[nu]
        else:
            e, c = args[3:]
            terms[nu] = terms.get(nu, RationalFunction.zero()) + RationalFunction.monomial(e, c)
        coeffs[v] = SuperFunction(der.chart, der.odd_dim, terms)
        ders[chart] = SuperDerivation(der.chart, der.odd_dim, coeffs[0], coeffs[1:])
    return ders


def _global_field_verdict(check, manifold, chart0_der, chart1_der):
    try:
        check(manifold, chart0_der, chart1_der)
    except ChartMismatch:
        return (ChartMismatch,)
    except ToolkitError as exc:
        return type(exc), exc.message
    return ("accept",)


@settings(max_examples=300, deadline=None)
@given(case=global_field_cases())
@example(case=("nonsplit-2-2", 0, ("none",)))  # w^2 d/dw: the Taylor k = 1 term
@example(case=("nonsplit-2-2", 6, ("none",)))  # w^2 d/deta1: the Taylor k = 1 term
@example(case=("nonsplit-2-2", 9, ("none",)))  # d/dt2 of z^-3 t1 t2 is -z^-3 t1
@example(case=("s1111", 0, ("edit", 1, 0, 15, 0, 1)))  # chi*(eta1 eta2 eta3 eta4)
@example(case=("k2", 0, ("edit", 1, 0, 0, 1, 1)))  # the d/dw coefficient
@example(case=("k2", 1, ("swap",)))
@example(case=("k5", 0, ("edit", 0, 0, 0, -1, 1)))  # a pole
@example(case=("split-2-2", 0, ("edit", 1, 1, 0, 0, 1)))  # mixed parity
def test_global_field_check_matches_reference(case):
    name, i, corruption = case
    basis = _oracle_basis(name)
    ders = _corrupted(basis, i, corruption)
    got, want = (_global_field_verdict(check, basis.manifold, *ders)
                 for check in (GlobalVectorField, reference.check_global_field))
    assert got == want
    event(": ".join([corruption[0], getattr(got[0], "__name__", got[0]), *got[1:]]))


@st.composite
def laurent_functions(draw, n):
    """A chart-0 function on (1|n) with one to four Laurent-sum coefficients,
    asked to be even, odd or mixed in a third of the draws each (an odd one
    on (1|0) is zero)."""
    parity = draw(st.sampled_from([0, 1, None]))
    pool = [nu for nu in range(1 << n) if parity is None or idx_parity(nu) == parity]
    nus = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=4)) if pool else []
    return SuperFunction(CHART0, n, {nu: draw(laurent_sums) for nu in nus})


def _parity_name(f):
    return {0: "even", 1: "odd", None: "mixed"}[f.parity()]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.data())
def test_term_algebra_matches_superfunction(n, data):
    """The Laurent-term product and partials are ``SuperFunction``'s product,
    ``d_even`` and ``d_odd``, read as Laurent-term maps."""
    f, g = data.draw(laurent_functions(n)), data.draw(laurent_functions(n))
    a, b = laurent_terms(f.terms), laurent_terms(g.terms)
    products = idx_products(n)
    assert products == [[idx_mul(i, j) for j in range(1 << n)] for i in range(1 << n)]
    product = term_product(a, b, products)
    assert product == laurent_terms((f * g).terms)
    derivatives = [f.d_even(), *(f.d_odd(j) for j in range(n))]
    assert partials(a, n) == [laurent_terms(d.terms) for d in derivatives]
    event("product %s" % ("nonzero" if product else "zero"))
    event("%s times %s" % (_parity_name(f), _parity_name(g)))


def test_global_field_replace_reruns_the_checks(manifolds, basis_cache):
    fields = basis_cache("k2").fields
    d_w = SuperDerivation.d_even(CHART1, 1)
    changed = [f for f in fields if f.chart1_der != d_w]
    assert changed
    for field in changed:
        with pytest.raises(NotGlobal, match="disagree"):
            field._replace(chart1_der=d_w)
    # parity is read off chart0_der whatever the replaced or made record says
    for field in fields:
        flipped = field._replace(parity=1 - field.parity)
        assert flipped == field and type(flipped) is GlobalVectorField
        assert GlobalVectorField._make(tuple(field)) == field


@pytest.mark.parametrize("name", ["k2", "c01"])
def test_global_fields_copy_and_pickle_through_the_constructor(basis_cache, name):
    fields = basis_cache(name).fields
    for field in fields:
        for twin in (copy.copy(field), copy.deepcopy(field), pickle.loads(pickle.dumps(field))):
            assert type(twin) is GlobalVectorField
            assert twin == field and hash(twin) == hash(field) and twin.parity == field.parity
    # a copy is rebuilt from the three constructor arguments, through the checks
    rebuild, (manifold, chart0_der, chart1_der) = fields[0].__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    assert rebuild(manifold, chart0_der, chart1_der) == fields[0]
    mixed = SuperDerivation.d_even(manifold.chart0, 1) + SuperDerivation.d_odd(manifold.chart0, 1, 0)
    with pytest.raises(NotGlobal, match="parity"):
        rebuild(manifold, mixed, chart1_der)


def test_manifold_records_compare_by_their_fields(manifolds):
    k2, k3 = manifolds["k2"], manifolds["k3"]
    copy = SuperManifoldData(k2.name, k2.odd_dim, k2.kind, k2.transition)
    assert copy == k2 and hash(copy) == hash(k2) and copy is not k2
    variants = [
        SuperManifoldData("other", k2.odd_dim, k2.kind, k2.transition),
        SuperManifoldData(k2.name, 2, k2.kind, k2.transition),
        SuperManifoldData(k2.name, k2.odd_dim, KIND_C01, k2.transition),
        SuperManifoldData(k2.name, k2.odd_dim, k2.kind, k3.transition),
    ]
    assert all(v != k2 for v in variants)
    assert len({k2, copy, *variants}) == 5
    with pytest.raises(AttributeError):
        k2.name = "other"
    with pytest.raises(AttributeError):
        k2.extra = 1


def test_global_field_records_compare_by_their_fields():
    # on the point every parity-homogeneous pair of polynomial fields is global
    point = SuperManifoldData.point()
    theta = SuperFunction.odd_var(POINT_CHART, 1, 0)
    zero = SuperFunction.zero(POINT_CHART, 1)
    even = SuperDerivation(POINT_CHART, 1, zero, [theta])
    even2 = SuperDerivation(POINT_CHART, 1, zero, [theta.scale(2)])
    odd = SuperDerivation(POINT_CHART, 1, zero, [SuperFunction.one(POINT_CHART, 1)])
    field = GlobalVectorField(point, even, even)
    copy = GlobalVectorField(SuperManifoldData.point(), even, even)
    assert copy == field and hash(copy) == hash(field) and copy is not field
    assert field.parity == 0 and GlobalVectorField(point, odd, even).parity == 1
    variants = [
        GlobalVectorField(SuperManifoldData.point("other"), even, even),
        GlobalVectorField(point, even2, even),
        GlobalVectorField(point, even, even2),
        GlobalVectorField(point, odd, even),
    ]
    assert all(v != field for v in variants)
    assert len({field, copy, *variants}) == 5
    with pytest.raises(AttributeError):
        field.parity = 1
    with pytest.raises(AttributeError):
        field.extra = 1
