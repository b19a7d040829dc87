import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from supervec import derivations
from supervec.derivations import (
    RothsteinParts,
    SuperDerivation,
    bracket,
    degree_zero_part,
    pullback_invert,
    recombine,
    rothstein_decompose,
)
from supervec.errors import (
    MathDomainError,
    MixedParity,
    NotInvertible,
    NotNilpotent,
    UnsupportedReducedMap,
)
from supervec.files import parse_pullback_text
from supervec.grassmann import PullbackData, SuperFunction, compose, idx_weight
from supervec.scalars import GaussianRational, Polynomial, RationalFunction

import reference_derivations as reference
from conftest import idx_parity
from test_golden import PULLBACKS

C = "chart0"
C1 = "chart1"


def zm(k):
    return RationalFunction.monomial(k)


def sf(n, terms, chart=C):
    return SuperFunction(chart, n, terms)


def rand_rf(rng, deg=2):
    num = Polynomial(
        {e: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
         for e in range(rng.randint(0, deg + 1))}
    )
    return RationalFunction(num)


def rand_sf(rng, n, parity, density=0.5):
    terms = {}
    for idx in range(1 << n):
        if idx_parity(idx) == parity and rng.random() < density:
            terms[idx] = rand_rf(rng)
    return SuperFunction(C, n, terms)


def rand_derivation(rng, n, parity):
    even = rand_sf(rng, n, parity)
    odds = [rand_sf(rng, n, (parity + 1) % 2) for _ in range(n)]
    return SuperDerivation(C, n, even, odds)


def test_apply_examples():
    # theta d/dz on z^2
    d = SuperDerivation(C, 1, SuperFunction.odd_var(C, 1, 0), [SuperFunction.zero(C, 1)])
    f = SuperFunction.from_rf(C, 1, RationalFunction.z() ** 2)
    assert d.apply(f) == sf(1, {1: RationalFunction(Polynomial.monomial(1, 2))})
    # left derivative: d/dt1 (t1 t2) = t2
    d1 = SuperDerivation.d_odd(C, 2, 0)
    t12 = sf(2, {3: RationalFunction.one()})
    assert d1.apply(t12) == SuperFunction.odd_var(C, 2, 1)
    # f(z) t1 t2 d/dz applied to z
    fz = rand_rf(random.Random(0), 3)
    x = SuperDerivation(C, 2, sf(2, {3: fz}), [SuperFunction.zero(C, 2)] * 2)
    assert x.apply(SuperFunction.coordinate(C, 2)) == sf(2, {3: fz})


def test_super_leibniz():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 3)
        pd = rng.randint(0, 1)
        pf = rng.randint(0, 1)
        d = rand_derivation(rng, n, pd)
        f = rand_sf(rng, n, pf)
        g = rand_sf(rng, n, rng.randint(0, 1))
        sign = -1 if (pd and pf) else 1
        lhs = d.apply(f * g)
        rhs = d.apply(f) * g + (f * d.apply(g)).scale(sign)
        assert lhs == rhs


def test_bracket_table_examples():
    zero1 = SuperFunction.zero(C, 1)
    d_theta = SuperDerivation.d_odd(C, 1, 0)
    theta_dz = SuperDerivation(C, 1, SuperFunction.odd_var(C, 1, 0), [zero1])
    assert bracket(d_theta, theta_dz) == SuperDerivation.d_even(C, 1)

    z = RationalFunction.z()
    z_dtheta = SuperDerivation(C, 1, zero1, [SuperFunction.from_rf(C, 1, z)])
    expected = SuperDerivation(C, 1, SuperFunction.from_rf(C, 1, z), [SuperFunction.odd_var(C, 1, 0)])
    assert bracket(z_dtheta, theta_dz) == expected

    # one odd coordinate, no even motion: [xi d/dxi, d/dxi] = -d/dxi
    x0 = SuperDerivation(C, 1, zero1, [SuperFunction.odd_var(C, 1, 0)])
    x1 = SuperDerivation(C, 1, zero1, [SuperFunction.one(C, 1)])
    assert bracket(x0, x1) == -x1
    assert bracket(x1, x1).is_zero()

    # [X_f, X_g] = 0 for f, g in the even coordinate only
    rng = random.Random(14)
    for _ in range(10):
        f, g = rand_rf(rng, 3), rand_rf(rng, 3)
        xf = SuperDerivation(C, 2, sf(2, {3: f}), [SuperFunction.zero(C, 2)] * 2)
        xg = SuperDerivation(C, 2, sf(2, {3: g}), [SuperFunction.zero(C, 2)] * 2)
        assert bracket(xf, xg).is_zero()


def test_bracket_super_antisymmetry_and_jacobi():
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randint(1, 3)
        px, py, pz_ = (rng.randint(0, 1) for _ in range(3))
        x = rand_derivation(rng, n, px)
        y = rand_derivation(rng, n, py)
        z = rand_derivation(rng, n, pz_)
        sxy = -1 if (px and py) else 1
        assert bracket(x, y) == bracket(y, x).scale(-sxy)
        jac = (
            bracket(x, bracket(y, z)).scale(-1 if (px and pz_) else 1)
            + bracket(y, bracket(z, x)).scale(-1 if (py and px) else 1)
            + bracket(z, bracket(x, y)).scale(-1 if (pz_ and py) else 1)
        )
        assert jac.is_zero()


def coordinate_bracket(x, y):
    """Reference bracket: applies both fields to the coordinates z, t_j."""
    sign = -1 if (x.parity() and y.parity()) else 1
    n = x.odd_dim
    zc = SuperFunction.coordinate(x.chart, n)
    even = x.apply(y.apply(zc)) - y.apply(x.apply(zc)).scale(sign)
    odds = []
    for j in range(n):
        tj = SuperFunction.odd_var(x.chart, n, j)
        odds.append(x.apply(y.apply(tj)) - y.apply(x.apply(tj)).scale(sign))
    return SuperDerivation(x.chart, n, even, odds)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bracket_matches_coordinate_reference(n):
    rng = random.Random(20 + n)
    for px in (0, 1):
        for py in (0, 1):
            for _ in range(4):
                x = rand_derivation(rng, n, px)
                y = rand_derivation(rng, n, py)
                assert bracket(x, y) == coordinate_bracket(x, y)


def test_bracket_requires_parity():
    mixed = SuperDerivation(
        C, 1,
        SuperFunction(C, 1, {0: RationalFunction.one(), 1: RationalFunction.one()}),
        [SuperFunction.zero(C, 1)],
    )
    with pytest.raises(MixedParity):
        bracket(mixed, SuperDerivation.d_even(C, 1))


def test_filtration_levels():
    assert SuperDerivation.d_even(C, 2).filtration_level() == 0
    assert SuperDerivation.d_odd(C, 2, 0).filtration_level() == -1
    xf = SuperDerivation(C, 2, sf(2, {3: zm(1)}), [SuperFunction.zero(C, 2)] * 2)
    assert xf.filtration_level() == 2
    assert SuperDerivation.zero(C, 2).filtration_level() == 3


grading_values = st.sampled_from(
    [RationalFunction.zero(), RationalFunction.one(), zm(-1), zm(2),
     RationalFunction.constant(GaussianRational(Fraction(-1, 2), 1))]
)


@st.composite
def graded_derivations(draw):
    """Fields with n = 0..4 whose coefficients are each zero, homogeneous of the
    parity a field of a drawn parity needs there, or drawn from any index."""
    n = draw(st.integers(0, 4))
    parity = draw(st.integers(0, 1))
    coeffs = []
    for u in range(n + 1):
        kind = draw(st.sampled_from(["zero", "homogeneous", "homogeneous", "any"]))
        pool = [i for i in range(1 << n)
                if kind == "any" or idx_parity(i) == (parity + (u > 0)) & 1]
        picked = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)) if pool else []
        coeffs.append(sf(n, {i: draw(grading_values) for i in picked} if kind != "zero" else {}))
    return SuperDerivation(C, n, coeffs[0], coeffs[1:])


@given(graded_derivations())
@example(SuperDerivation.zero(C, 0))
@example(SuperDerivation.d_odd(C, 3, 2))
@example(SuperDerivation(C, 1, sf(1, {0: zm(1)}), [sf(1, {0: zm(2)})]))
def test_gradings_match_parent_oracles(x):
    assert x.parity() == reference.parity(x)
    try:
        expected = reference.filtration_level(x)
    except MixedParity as exc:
        with pytest.raises(MixedParity) as info:
            x.filtration_level()
        assert info.value.message == exc.message
    else:
        assert x.filtration_level() == expected


@st.composite
def derivation_args(draw, n, faulty=True):
    """(chart, odd_dim, even, odds) for a constructor: a field whose
    coefficients are zero, homogeneous for a drawn parity, drawn from any index,
    or raising degree by 2 or more (an even nilpotent field when all are); and,
    if ``faulty``, up to two faults: the even or an odd coefficient on the other
    chart or of another odd dimension, or one odd coefficient too many or too
    few."""
    parity = draw(st.integers(0, 1))
    coeffs = []
    for u in range(n + 1):
        kind = draw(st.sampled_from(["zero", "homogeneous", "any", "nilpotent"]))
        pool = [i for i in range(1 << n)
                if kind == "any"
                or (kind == "homogeneous" and idx_parity(i) == (parity + (u > 0)) & 1)
                or (kind == "nilpotent" and idx_weight(i) >= 2 + (u > 0)
                    and idx_parity(i) == (u > 0))]
        picked = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)) if pool else []
        coeffs.append(sf(n, {i: draw(grading_values) for i in picked} if kind != "zero" else {}))
    faults = draw(st.one_of(st.just(set()), st.sets(
        st.sampled_from(["even chart", "odd chart", "odd dimension", "count"]), max_size=2)))
    faults = faults if faulty else set()
    if "even chart" in faults:
        coeffs[0] = sf(n, coeffs[0].terms, chart=C1)
    if "odd chart" in faults and n:
        j = draw(st.integers(1, n))
        coeffs[j] = sf(n, coeffs[j].terms, chart=C1)
    if "odd dimension" in faults:
        coeffs[draw(st.integers(0, n))] = SuperFunction.zero(C, n + 1)
    if "count" in faults:
        shorter = n and draw(st.booleans())
        coeffs = coeffs[:-1] if shorter else coeffs + [SuperFunction.zero(C, n)]
    return C, n, coeffs[0], coeffs[1:]


DERIVATION_OPERATIONS = {
    "==": lambda x, y, f, c: x == y,
    "hash": lambda x, y, f, c: hash(x) == hash(y),
    "bool": lambda x, y, f, c: bool(x),
    "parity": lambda x, y, f, c: x.parity(),
    "filtration_level": lambda x, y, f, c: x.filtration_level(),
    "+": lambda x, y, f, c: x + y,
    "-": lambda x, y, f, c: x - y,
    "unary -": lambda x, y, f, c: -x,
    "scale": lambda x, y, f, c: x.scale(c),
    "apply": lambda x, y, f, c: x.apply(f),
    "bracket": lambda x, y, f, c: x.bracket(y),
    "exp_pullback": lambda x, y, f, c: x.exp_pullback(c),
    "repr": lambda x, y, f, c: repr(x),
}


def derivation_outcome(operation, *args):
    """("value", v) with a derivation as (chart, odd_dim, coefficient tuple),
    or (error class, message)."""
    try:
        v = operation(*args)
    except (MathDomainError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(v, SuperDerivation):
        v = v.chart, v.odd_dim, v.coeffs
    elif isinstance(v, reference.SuperDerivation):
        v = v.chart, v.odd_dim, (v.even_coeff, *v.odd_coeffs)
    return "value", v


def outcome_tag(outcome):
    return "value" if outcome[0] == "value" else outcome[0].__name__


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_superderivation_matches_parent_class(data):
    """Each field is built by the library and by the parent class from the same
    coefficients; every operation must give equal values, a derivation compared
    by its coefficient tuple, or raise the same error.  The two classes hash
    different tuples, so ``hash`` is compared by whether x and y hash alike."""
    n = data.draw(st.integers(0, 4))
    x_args = data.draw(derivation_args(n))
    both = (SuperDerivation, reference.SuperDerivation)
    built = [derivation_outcome(cls, *x_args) for cls in both]
    assert built[0] == built[1]
    event("constructor: %s" % outcome_tag(built[0]))
    if built[0][0] != "value":
        return
    y_args = data.draw(st.one_of(
        st.just(x_args), derivation_args(n, faulty=False), derivation_args(n + 1, faulty=False)))
    f = sf(n, {i: data.draw(grading_values) for i in range(1 << n) if data.draw(st.booleans())})
    f = data.draw(st.sampled_from([f, f, sf(n, f.terms, chart=C1)]))
    c = data.draw(st.sampled_from([1, -1, Fraction(1, 2), GaussianRational(0, 1), 0]))
    pairs = [(cls(*x_args), cls(*y_args)) for cls in both]
    for name, operation in DERIVATION_OPERATIONS.items():
        got, expected = [derivation_outcome(operation, x, y, f, c) for x, y in pairs]
        assert got == expected, name
        event("%s: %s" % (name, outcome_tag(got)))


def test_filtration_is_a_lie_filtration():
    rng = random.Random(16)
    for _ in range(30):
        n = rng.randint(1, 3)
        x = rand_derivation(rng, n, rng.randint(0, 1))
        y = rand_derivation(rng, n, rng.randint(0, 1))
        top = n + 1
        level = bracket(x, y).filtration_level()
        assert level >= min(top, x.filtration_level() + y.filtration_level())


def test_exp_nilpotent_flow_images():
    f = zm(3)
    x = SuperDerivation(C, 2, sf(2, {3: f}), [SuperFunction.zero(C, 2)] * 2)
    t = GaussianRational(Fraction(5, 3))
    flow = x.exp_pullback(t)
    assert flow.even_image == sf(2, {0: RationalFunction.z(), 3: f * t})
    assert flow.odd_images[0] == SuperFunction.odd_var(C, 2, 0)
    assert flow.odd_images[1] == SuperFunction.odd_var(C, 2, 1)
    assert SuperDerivation.zero(C, 2).exp_pullback(1) == PullbackData.identity(C, 2)
    assert compose(flow, x.exp_pullback(-t)) == PullbackData.identity(C, 2)


def test_exp_rejects_low_filtration():
    with pytest.raises(NotNilpotent):
        SuperDerivation.d_even(C, 2).exp_pullback(1)
    odd = SuperDerivation.d_odd(C, 2, 0)
    with pytest.raises(NotNilpotent):
        odd.exp_pullback(1)


def nonsplit_chi():
    even = sf(2, {0: zm(-1), 3: zm(-3)})
    odds = [sf(2, {1: zm(-2)}), sf(2, {2: zm(-2)})]
    return PullbackData(C, C1, even, odds)


def test_rothstein_on_nonsplit_transition():
    chi = nonsplit_chi()
    parts = rothstein_decompose(chi)
    assert parts.degree_zero == PullbackData(
        C, C1, sf(2, {0: zm(-1)}), [sf(2, {1: zm(-2)}), sf(2, {2: zm(-2)})]
    )
    gen = parts.nilpotent_generator
    assert gen.even_coeff == SuperFunction(C1, 2, {3: zm(-1)})
    assert all(c.is_zero() for c in gen.odd_coeffs)
    assert recombine(parts) == chi


def test_rothstein_split_gives_zero_generator():
    split = PullbackData(C, C1, sf(2, {0: zm(-1)}), [sf(2, {1: zm(-2)}), sf(2, {2: zm(-2)})])
    parts = rothstein_decompose(split)
    assert parts.degree_zero == split
    assert parts.nilpotent_generator.is_zero()


def test_rothstein_roundtrip_on_exponentials():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 3)
        terms = {idx: rand_rf(rng) for idx in range(1 << n)
                 if idx_weight(idx) >= 2 and idx_weight(idx) % 2 == 0 and rng.random() < 0.7}
        gen = SuperDerivation(
            C, n,
            SuperFunction(C, n, terms),
            [SuperFunction(C, n,
                           {idx: rand_rf(rng) for idx in range(1 << n)
                            if idx_weight(idx) >= 3 and idx_weight(idx) % 2 == 1 and rng.random() < 0.7})
             for _ in range(n)],
        )
        p = gen.exp_pullback(1)
        parts = rothstein_decompose(p)
        assert parts.degree_zero == PullbackData.identity(C, n)
        assert parts.nilpotent_generator == gen


def rand_mobius_rf(rng):
    while True:
        a, b, c, d = (Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4))
        if a * d - b * c:
            return RationalFunction(Polynomial({0: c, 1: d}), Polynomial({0: a, 1: b}))


def rand_automorphism_pullback(rng, n):
    """Invertible pullback: Mobius reduced part, invertible odd linear part,
    plus nilpotent corrections."""
    from supervec.linalg import determinant

    even_terms = {0: rand_mobius_rf(rng)}
    for idx in range(1 << n):
        if idx and idx_weight(idx) % 2 == 0 and rng.random() < 0.6:
            even_terms[idx] = rand_rf(rng)
    while True:
        mat = [[rand_rf(rng, 1) for _ in range(n)] for _ in range(n)]
        if determinant(mat, RationalFunction.zero(), RationalFunction.one()):
            break
    odds = []
    for j in range(n):
        terms = {1 << k: mat[j][k] for k in range(n) if mat[j][k]}
        for idx in range(1 << n):
            if idx_weight(idx) >= 3 and idx_weight(idx) % 2 == 1 and rng.random() < 0.5:
                terms[idx] = rand_rf(rng)
        odds.append(SuperFunction(C, n, terms))
    return PullbackData(C, C, SuperFunction(C, n, even_terms), odds)


def test_rothstein_recombine_on_random_automorphisms():
    rng = random.Random(18)
    for _ in range(10):
        n = rng.randint(2, 3)
        p = rand_automorphism_pullback(rng, n)
        parts = rothstein_decompose(p)
        assert recombine(parts) == p
        assert parts.degree_zero == degree_zero_part(p)
        gen = parts.nilpotent_generator
        assert gen.is_zero() or gen.filtration_level() >= 2


def test_invert_identity_and_roundtrip():
    ident = PullbackData.identity(C, 2)
    assert pullback_invert(ident) == ident
    chi = nonsplit_chi()
    inv = pullback_invert(chi)
    assert compose(chi, inv) == PullbackData.identity(C1, 2)
    assert compose(inv, chi) == PullbackData.identity(C, 2)


def test_invert_random_automorphisms_both_orders():
    rng = random.Random(19)
    for _ in range(10):
        n = rng.randint(2, 3)
        p = rand_automorphism_pullback(rng, n)
        inv = pullback_invert(p)
        assert compose(p, inv) == PullbackData.identity(C, n)
        assert compose(inv, p) == PullbackData.identity(C, n)


def test_invert_rejects_singular_odd_part():
    t1 = SuperFunction.odd_var(C, 2, 0)
    p = PullbackData(C, C, SuperFunction.coordinate(C, 2), [t1, t1])
    with pytest.raises(NotInvertible):
        pullback_invert(p)


def test_unsupported_reduced_map():
    from supervec.errors import UnsupportedReducedMap

    z2 = RationalFunction(Polynomial.monomial(2))
    # degree-preserving with a quadratic reduced map: decomposes (generator 0)
    # but has no closed-form inverse
    flat = PullbackData(C, C, SuperFunction.from_rf(C, 2, z2),
                        [SuperFunction.odd_var(C, 2, 0), SuperFunction.odd_var(C, 2, 1)])
    parts = rothstein_decompose(flat)
    assert parts.nilpotent_generator.is_zero()
    with pytest.raises(UnsupportedReducedMap):
        pullback_invert(flat)
    # with a nilpotent defect the generator solve itself needs the inverse
    bent = PullbackData(C, C, SuperFunction(C, 2, {0: z2, 3: RationalFunction.one()}),
                        [SuperFunction.odd_var(C, 2, 0), SuperFunction.odd_var(C, 2, 1)])
    with pytest.raises(UnsupportedReducedMap):
        rothstein_decompose(bent)


# z^2 + z: non-constant, but not fractional linear
QUADRATIC = RationalFunction(Polynomial({1: GaussianRational(1), 2: GaussianRational(1)}))
SMALL = st.integers(-2, 2).map(GaussianRational)
DENOMINATORS = [Polynomial({0: 1}), Polynomial({0: 1, 1: 1}), Polynomial({2: 1})]
# z, 1/z, (z + 1)/(z + 2), (2*z - 1)/(z + 3) and the quadratic
REDUCED_MAPS = [
    RationalFunction(Polynomial(num), Polynomial(den))
    for num, den in [({1: 1}, {0: 1}), ({0: 1}, {1: 1}), ({0: 1, 1: 1}, {0: 2, 1: 1}),
                     ({0: -1, 1: 2}, {0: 3, 1: 1})]
] + [QUADRATIC]


def small_polys():
    """a + b*z with small integer a, b."""
    return st.builds(lambda a, b: RationalFunction(Polynomial({0: a, 1: b})), SMALL, SMALL)


def small_rfs():
    """(a + b*z) / q with q one of 1, z + 1, z^2."""
    return st.builds(lambda f, q: f / RationalFunction(q), small_polys(), st.sampled_from(DENOMINATORS))


@st.composite
def automorphisms(draw):
    """Chart-0 pullbacks with n = 1..4: a Mobius or the quadratic reduced map,
    a random odd linear part and, when drawn, nilpotent terms: at least one
    even one, and odd ones of weight 3 where n allows."""
    n = draw(st.integers(1, 4))
    reduced = draw(st.sampled_from(REDUCED_MAPS))
    nilpotent = draw(st.booleans())

    def higher(parity):
        indices = [i for i in range(1 << n) if idx_weight(i) >= 2 and idx_parity(i) == parity]
        if not (nilpotent and indices):
            return {}
        chosen = draw(st.sets(st.sampled_from(indices), min_size=1 - parity))
        return {i: draw(small_rfs()) for i in chosen}

    even = SuperFunction(C, n, {0: reduced, **higher(0)})
    # odd linear part: a + b*z on the diagonal and on a drawn set of other entries
    linear = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    linear |= {(j, j) for j in range(n)}
    odds = [
        SuperFunction(C, n, {**{1 << k: draw(small_polys()) for k in range(n) if (j, k) in linear},
                             **higher(1)})
        for j in range(n)
    ]
    return PullbackData(C, C, even, odds)


def decompose_outcome(decompose, p):
    try:
        return decompose(p)
    except MathDomainError as exc:
        return exc.code


@settings(deadline=None, max_examples=60)
@given(automorphisms())
def test_decompose_matches_reference(p):
    expected = decompose_outcome(reference.rothstein_decompose, p)
    assert decompose_outcome(rothstein_decompose, p) == expected


@settings(deadline=None, max_examples=60)
@given(automorphisms())
def test_invert_matches_reference(p):
    expected = decompose_outcome(reference.pullback_invert, p)
    assert decompose_outcome(pullback_invert, p) == expected


@settings(deadline=None, max_examples=60)
@given(automorphisms())
def test_invert_degree_zero_matches_reference(p):
    phi0 = degree_zero_part(p)
    expected = decompose_outcome(reference.invert_degree_zero, phi0)
    assert decompose_outcome(derivations.invert_degree_zero, phi0) == expected


@st.composite
def exp_cases(draw):
    """An even field of filtration level >= 2 with n = 2..4 (the even
    coefficient in weights >= 2, the odd ones in weights >= 3) and a function
    of up to four terms on its chart."""
    n = draw(st.integers(2, 4))

    def function(indices, max_size=None):
        chosen = draw(st.sets(st.sampled_from(indices), max_size=max_size)) if indices else set()
        return SuperFunction(C, n, {i: draw(small_rfs()) for i in chosen})

    def weights(parity, low):
        return [i for i in range(1 << n) if idx_weight(i) >= low and idx_parity(i) == parity]

    x = SuperDerivation(C, n, function(weights(0, 2)), [function(weights(1, 3)) for _ in range(n)])
    return x, function(list(range(1 << n)), 4)


# X = (t1*t2 + t3*t4) d/dz: the k = 2 term of the series is the only one that
# carries (t1*t2 + t3*t4)^2 on a coefficient with nonzero second derivative
PINNED_EXP_CASE = (
    SuperDerivation(C, 4, sf(4, {3: zm(0), 12: zm(0)}), [sf(4, {})] * 4),
    sf(4, {0: zm(0) / (zm(1) + zm(0))}),
)


@settings(deadline=None, max_examples=60)
@given(exp_cases(), st.sampled_from([-2, -1, Fraction(1, 2), 1, 3]))
@example(PINNED_EXP_CASE, 1)
def test_exp_series_is_the_exponential_pullback(case, s):
    x, f = case
    assert derivations._exp_series(x, f, s) == x.exp_pullback(s).apply(f)


@st.composite
def group_law_fields(draw):
    """n = 4 even fields with z-coefficient f(z)*(t1*t2 + t3*t4), f not
    constant, plus drawn higher-weight terms: t1*t2*t3*t4 in the
    z-coefficient and weight-3 terms in the odd coefficients."""
    f = draw(small_rfs().filter(lambda g: not g.is_constant()))
    top = {15: draw(small_rfs())} if draw(st.booleans()) else {}
    weight3 = st.sets(st.sampled_from([i for i in range(16) if idx_weight(i) == 3]), max_size=2)
    odds = [sf(4, {i: draw(small_rfs()) for i in draw(weight3)}) for _ in range(4)]
    return SuperDerivation(C, 4, sf(4, {3: f, 12: f, **top}), odds)


# X = z*(t1*t2 + t3*t4) d/dz: X^2 z = 2*z*(t1*t2*t3*t4) does not vanish, so the
# group law sees the k = 2 term of the series (it does not for a constant f)
GROUP_LAW_FIELD = SuperDerivation(C, 4, sf(4, {3: zm(1), 12: zm(1)}), [sf(4, {})] * 4)


@settings(deadline=None, max_examples=20)
@given(group_law_fields(), st.sampled_from([(1, 2), (Fraction(1, 2), -1), (-2, 3)]))
@example(GROUP_LAW_FIELD, (1, 2))
@example(GROUP_LAW_FIELD, (Fraction(1, 2), -1))
def test_exp_pullback_group_law(x, scales):
    s, t = scales
    assert compose(x.exp_pullback(s), x.exp_pullback(t)) == x.exp_pullback(s + t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratic_reduced_map_needs_an_inverse_only_with_a_nilpotent_part(n):
    odds = [SuperFunction.odd_var(C, n, j) for j in range(n)]
    flat = PullbackData(C, C, SuperFunction.from_rf(C, n, QUADRATIC), odds)
    parts = RothsteinParts(flat, SuperDerivation.zero(C, n))
    assert rothstein_decompose(flat) == reference.rothstein_decompose(flat) == parts
    # a nilpotent term in t1*t2, or in t1*t2*t3*t4 alone (only stage 4 solves)
    for idx in [i for i in (3, 15) if i < 1 << n]:
        bent = PullbackData(C, C, SuperFunction(C, n, {0: QUADRATIC, idx: RationalFunction.one()}), odds)
        for decompose in (rothstein_decompose, reference.rothstein_decompose):
            with pytest.raises(UnsupportedReducedMap):
                decompose(bent)


def count_recombinations(monkeypatch, module, p):
    calls = []
    original = module.recombine

    def counting(parts):
        calls.append(parts)
        return original(parts)

    monkeypatch.setattr(module, "recombine", counting)
    module.rothstein_decompose(p)
    return len(calls)


@pytest.mark.parametrize("name, once, before", [("n4", 3, 6), ("n2", 2, 4)])
def test_one_recombination_per_stage(monkeypatch, name, once, before):
    # once before the stages and once after each stage with a nonzero slice;
    # the reference also recombines at the start of each stage and at the end
    p = parse_pullback_text(PULLBACKS[name])
    assert count_recombinations(monkeypatch, derivations, p) == once
    assert count_recombinations(monkeypatch, reference, p) == before
