import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from reference_geometry import pole_order_at
from supervec import scalars
from supervec.errors import DivisionByZero, UndefinedComposition
from supervec.scalars import (
    GR_ZERO,
    GaussianRational,
    Polynomial,
    RationalFunction,
    _raw_poly,
    mobius_coefficients,
    mobius_inverse,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians)
def test_inverse(a):
    if a:
        assert a / a == GaussianRational(1)
        assert a * (GaussianRational(1) / a) == GaussianRational(1)


def test_gaussian_basics():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert (GaussianRational(1, 2) * GaussianRational(1, -2)) == GaussianRational(5)
    with pytest.raises(DivisionByZero):
        GaussianRational(1) / GaussianRational(0)
    assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))


def rand_poly(rng, deg=4):
    return Polynomial(
        {e: GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
         for e in range(rng.randint(0, deg + 1))}
    )


def test_polynomial_divmod_and_gcd():
    rng = random.Random(1)
    for _ in range(50):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if not b:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert not r or r.degree() < b.degree()
        g = a.gcd(b)
        if a:
            assert not a % g and not b % g


def test_zero_polynomial_degree_sentinel():
    assert Polynomial.zero().degree() == float("-inf")
    assert Polynomial.one().degree() == 0


def test_rf_monomial_product():
    z = RationalFunction.z()
    one = RationalFunction.one()
    assert (one / z) * (one / z**2) == one / z**3


def test_rf_gcd_cancellation():
    z = RationalFunction.z()
    one = RationalFunction.one()
    f = (z * z - one) / (z - one)
    assert f == z + one
    assert f.is_polynomial()


def test_rf_sum_by_cross_multiplication():
    z = RationalFunction.z()
    one = RationalFunction.one()
    f = one / (one + z) + one / (one - z)
    expected = RationalFunction.constant(2) / (one - z * z)
    # independent oracle: compare after clearing denominators
    assert f.num * expected.den == expected.num * f.den
    assert f == expected


def test_rf_compose_monomials_and_identity():
    z = RationalFunction.z()
    one = RationalFunction.one()
    assert (z * z).compose(one / z) == one / z**2
    rng = random.Random(2)
    for _ in range(20):
        g = RationalFunction(rand_poly(rng), rand_poly(rng, 2) + Polynomial.monomial(3))
        assert z.compose(g) == g
        assert g.compose(z) == g


def _mobius(a, b, c, d):
    return RationalFunction(Polynomial({0: c, 1: d}), Polynomial({0: a, 1: b}))


def test_rf_compose_mobius_matches_matrix_product():
    # f_A(z) = (c + d z)/(a + b z); composition must agree with the
    # matrix-product construction
    rng = random.Random(3)
    for _ in range(5):
        while True:
            a1, b1, c1, d1 = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4))
            if a1 * d1 - b1 * c1:
                break
        while True:
            a2, b2, c2, d2 = (Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4))
            if a2 * d2 - b2 * c2:
                break
        f = _mobius(a1, b1, c1, d1)
        g = _mobius(a2, b2, c2, d2)
        # (a,b;c,d) acts via matrix [[d,c],[b,a]] on (numerator, denominator)
        a3 = a1 * a2 + b1 * c2
        b3 = a1 * b2 + b1 * d2
        c3 = c1 * a2 + d1 * c2
        d3 = c1 * b2 + d1 * d2
        assert f.compose(g) == _mobius(a3, b3, c3, d3)


def test_rf_compose_pole_detection():
    z = RationalFunction.z()
    one = RationalFunction.one()
    f = one / (z - one)
    with pytest.raises(UndefinedComposition):
        f.compose(RationalFunction.constant(1))


def test_rf_derivative_rules():
    z = RationalFunction.z()
    one = RationalFunction.one()
    for k in range(1, 6):
        zk = RationalFunction(Polynomial.monomial(k))
        assert zk.derivative() == RationalFunction(Polynomial.monomial(k - 1, k))
    assert (one / z).derivative() == -(one / z**2)
    a, b = GaussianRational(3), GaussianRational(Fraction(-1, 2))
    base = RationalFunction(Polynomial({0: a, 1: b}))
    for k in range(1, 5):
        f = one / base**k
        expected = RationalFunction.constant(GaussianRational(-k) * b) / base ** (k + 1)
        assert f.derivative() == expected


def test_rf_derivative_product_rule():
    rng = random.Random(4)
    for _ in range(30):
        f = RationalFunction(rand_poly(rng), rand_poly(rng, 2) + Polynomial.monomial(3))
        g = RationalFunction(rand_poly(rng), rand_poly(rng, 2) + Polynomial.monomial(3))
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_rf_pole_orders():
    z = RationalFunction.z()
    one = RationalFunction.one()
    zero = GaussianRational(0)
    assert pole_order_at(one / z, zero) == 1
    f = (z * z - one) / (z - one)
    assert f.is_polynomial()
    assert pole_order_at(f, zero) == 0
    assert pole_order_at(f, GaussianRational(1)) == 0
    assert pole_order_at(one / z**3, zero) == 3
    assert (one / z**3).laurent() == {-3: 1}
    assert (z**3).laurent() == {3: 1}


def test_mobius_helpers():
    z = RationalFunction.z()
    one = RationalFunction.one()
    f = (one + z) / (one - z)
    inv = mobius_inverse(f)
    assert inv is not None
    assert f.compose(inv) == z
    assert inv.compose(f) == z
    assert mobius_coefficients(one / z) is not None
    assert mobius_coefficients(RationalFunction.constant(5)) is None
    assert mobius_coefficients(z * z) is None


# The parent's Polynomial.__divmod__, verbatim: each step subtracts reduced
# GaussianRational products from reduced remainder coefficients.
def reference_divmod(self, other):
    if not other:
        raise DivisionByZero("polynomial division by zero")
    q = {}
    r = dict(self.coeffs)
    dlead = other.degree()
    dcoef = other.coeffs[dlead]
    monic = dcoef == 1
    while r:
        e = max(r)
        if e < dlead:
            break
        factor = r[e] if monic else r[e] / dcoef
        q[e - dlead] = factor
        for oe, oc in other.coeffs.items():
            te = e - dlead + oe
            s = r.get(te, GR_ZERO) - factor * oc
            if s:
                r[te] = s
            else:
                r.pop(te, None)
    return _raw_poly(q), _raw_poly(r)


# The older Polynomial.gcd and RationalFunction.compose, kept as oracles:
# Euclid runs down to a zero remainder of the reference division, and compose
# reduces at every Horner step and once more for num / den.
def reference_gcd(a, b):
    while b:
        r = reference_divmod(a, b)[1]
        a, b = b, r.monic()
    return a.monic()


def reference_eval_poly_at_rf(poly, inner):
    acc = RationalFunction.zero()
    if not poly:
        return acc
    top = int(poly.degree())
    for e in range(top, -1, -1):
        acc = acc * inner
        c = poly.coeffs.get(e)
        if c is not None:
            acc = acc + RationalFunction.constant(c)
    return acc


def reference_compose(outer, inner):
    num = reference_eval_poly_at_rf(outer.num, inner)
    den = reference_eval_poly_at_rf(outer.den, inner)
    if not den:
        raise UndefinedComposition("substitution lands in a pole")
    return num / den


small_coeffs = st.builds(
    lambda re, im, d: GaussianRational(Fraction(re, d), Fraction(im, d)),
    st.integers(-4, 4), st.sampled_from([0, 0, 0, 1, -2]), st.integers(1, 3),
)
nonzero_coeffs = st.builds(
    lambda re, d: GaussianRational(Fraction(re, d)),
    st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), st.integers(1, 3),
)
polys = st.dictionaries(st.integers(0, 4), small_coeffs, max_size=4).map(Polynomial)


def _linear_product(roots, c):
    out = Polynomial.constant(c)
    for r in roots:
        out = out * Polynomial({1: 1, 0: -r})
    return out


# small integer roots make a constant inner land in a pole often
DENOMINATORS = {
    "zero": st.just(Polynomial.zero()),
    "constant": nonzero_coeffs.map(Polynomial.constant),
    "monomial": st.builds(Polynomial.monomial, st.integers(1, 4), nonzero_coeffs),
    "general": st.one_of(
        st.builds(_linear_product, st.lists(st.integers(-2, 2), min_size=1, max_size=3),
                  nonzero_coeffs),
        st.builds(
            lambda c0, middle, e, c: Polynomial({0: c0, **middle, e: c}),
            nonzero_coeffs, st.dictionaries(st.integers(1, 3), small_coeffs, max_size=2),
            st.integers(1, 4), nonzero_coeffs,
        ),
    ),
}
any_denominator = st.sampled_from(sorted(DENOMINATORS)).flatmap(DENOMINATORS.get)
nonzero_denominator = st.sampled_from(["constant", "monomial", "general"]).flatmap(
    DENOMINATORS.get
)
rational_functions = st.builds(RationalFunction, polys, nonzero_denominator)
# c*z^s and c/z^s: the closed-form substitution of compose, alpha == 1 included
monomial_inners = st.builds(
    lambda c, s: RationalFunction.monomial(s, c),
    st.one_of(
        st.just(GaussianRational(1)),
        nonzero_coeffs,
        st.sampled_from([GaussianRational(0, 1), GaussianRational(2, -1)]),
    ),
    st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
)
inners = st.one_of(
    rational_functions, st.integers(-2, 2).map(RationalFunction.constant), monomial_inners
)


def compose_path(inner):
    """The substitution ``compose`` takes for ``inner``, read off its Laurent form."""
    if inner.is_constant():
        return "constant inner"
    terms = inner.laurent()
    if terms is None or len(terms) != 1:
        return "general inner"
    (alpha,) = terms.values()
    return "closed form, alpha == 1" if alpha == 1 else "closed form, alpha != 1"


@pytest.mark.parametrize(
    "c",
    [
        0, 1, -7, Fraction(3, 4), Fraction(-5, 2), GaussianRational(0),
        GaussianRational(0, 1), GaussianRational(Fraction(-1, 2), 3),
        GaussianRational(2, Fraction(-2, 3)),
    ],
)
def test_constant_is_built_canonical(c):
    value = RationalFunction.constant(c)
    assert value == RationalFunction(Polynomial.constant(c))
    assert (value.num, value.den) == (Polynomial.constant(c), Polynomial.one())
    if not c:
        assert value is RationalFunction.zero()


P, S = scalars._P, scalars._S
I = GaussianRational(0, 1)

def test_certificate_prime_has_a_square_root_of_minus_one():
    assert P % 4 == 1 and S * S % P == P - 1


def gcd_branch(a, b, expected):
    """The path ``Polynomial.gcd`` takes for ``a`` and ``b``."""
    if not (a and b):
        return "zero operand"
    if a.degree() == 0 or b.degree() == 0:
        return "constant operand"
    sides = (len(a.coeffs) == 1) + (len(b.coeffs) == 1)
    if sides:
        return "monomial operand on %s" % ("both sides" if sides == 2 else "one side")
    if any(c.d % P == 0 for c in (*a.coeffs.values(), *b.coeffs.values())):
        return "declined: p divides a denominator"
    if any((p.leading_coeff().a + p.leading_coeff().b * S) % P == 0 for p in (a, b)):
        return "declined: a leading coefficient maps to 0"
    if scalars._coprime_mod_p(a, b):
        return "certified coprime"
    return "unlucky prime" if expected.degree() == 0 else "remainder sequence, gcd > 1"


@settings(max_examples=300)
@given(st.one_of(polys, any_denominator), any_denominator)
@example(Polynomial({3: 2}), Polynomial({1: 1, 2: 1}))
@example(Polynomial({3: 2}), Polynomial({2: I}))
@example(Polynomial({1: 1}), Polynomial({1: 1, 0: -P}))
@example(Polynomial({1: 1, 0: 1}), Polynomial({1: 1, 0: 2}))
@example(Polynomial({1: 1, 0: Fraction(1, P)}), Polynomial({1: 1, 0: 2}))
# h = (p - s + i) z + 1 maps to the constant 1: the images of h (z + 1) and
# h (z + 2) are coprime, the polynomials are not
@example(Polynomial({1: GaussianRational(P - S, 1), 0: 1}) * Polynomial({1: 1, 0: 1}),
         Polynomial({1: GaussianRational(P - S, 1), 0: 1}) * Polynomial({1: 1, 0: 2}))
@example(Polynomial({1: 1, 0: 1}), Polynomial({1: 1, 0: 1 - P}))
@example(Polynomial({2: 1, 0: -1}), Polynomial({2: 3, 1: 3}))
@example(Polynomial.zero(), Polynomial({1: 1, 0: 1}))
@example(Polynomial.zero(), Polynomial.zero())
@example(Polynomial.constant(3), Polynomial({1: 1, 0: 1}))
def test_gcd_matches_reference(a, b):
    expected = reference_gcd(a, b)
    event("gcd: " + gcd_branch(a, b, expected))
    assert a.gcd(b) == expected
    assert b.gcd(a) == reference_gcd(b, a)


@given(rational_functions, inners)
def test_compose_matches_reference(outer, inner):
    event("compose: " + compose_path(inner))
    try:
        expected = reference_compose(outer, inner)
    except UndefinedComposition:
        event("lands in a pole")
        with pytest.raises(UndefinedComposition):
            outer.compose(inner)
        return
    got = outer.compose(inner)
    assert (got.num, got.den) == (expected.num, expected.den)


def counting_products(monkeypatch):
    """A list that grows by one on every ``Polynomial`` product."""
    calls, product = [], Polynomial.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    return calls


I = GaussianRational(0, 1)
Z = RationalFunction.z()


@pytest.mark.parametrize(
    "outer, inner, path",
    [
        (Z**2 + 3 / Z, 1 / Z, "closed form, alpha == 1"),
        ((Z - 2) / (Z**2 + I), Z**3, "closed form, alpha == 1"),
        (Z**3 / (Z + 1) + 5, RationalFunction.monomial(-2, I), "closed form, alpha != 1"),
        ((Z - 1) ** 2 / Z**4, Z * Fraction(3, 2), "closed form, alpha != 1"),
        (RationalFunction.constant(Fraction(-7, 3)), 1 / Z, "closed form, alpha == 1"),
        (RationalFunction.constant(I), (Z + 1) / (Z - 1), "general inner"),
        (Z**2 + 1 / Z, 2 * Z / (Z**2 + 1), "general inner"),
        ((Z**2 + 2) / (Z - 3), RationalFunction.constant(2), "constant inner"),
    ],
)
def test_compose_paths_match_reference(monkeypatch, outer, inner, path):
    assert compose_path(inner) == path
    expected = reference_compose(outer, inner)
    products = counting_products(monkeypatch)
    got = outer.compose(inner)
    assert (got.num, got.den) == (expected.num, expected.den)
    if path.startswith("closed form"):
        assert not products
    else:
        assert len(products) >= 2 * max(outer.num.degree(), outer.den.degree())


@pytest.mark.parametrize("inner", [1 / Z, 2 * Z**3])
def test_monomial_inner_substitutes_without_products(monkeypatch, inner):
    # a degree-1000 Laurent function: the power tables cost 2 * 2000 products
    outer = 3 * Z**1000 + (1 - 2 * I) * Z**17 - Z + 4 + Z**-500 / 5 - Z**-1000
    top = max(outer.num.degree(), outer.den.degree())
    assert top == 2000
    products = counting_products(monkeypatch)
    got = outer.compose(inner)
    assert not products
    monkeypatch.undo()
    expected = reference_compose(outer, inner)
    assert (got.num, got.den) == (expected.num, expected.den)


laurent_terms = st.dictionaries(st.integers(-6, 6), small_coeffs, max_size=6)


@given(laurent_terms, small_coeffs.filter(bool))
def test_laurent_reads_sums_of_powers_of_z(terms, root):
    z = RationalFunction.z()
    f = sum((RationalFunction.constant(c) * z**k for k, c in terms.items()), RationalFunction.zero())
    assert f.laurent() == {k: c for k, c in terms.items() if c}
    # a pole away from 0 leaves a denominator that is no power of z
    assert (f + RationalFunction.one() / (z - RationalFunction.constant(root))).laurent() is None


# The parent's RationalFunction arithmetic, kept as the oracle of Henrici's
# method: every result is rebuilt through RationalFunction(num, den), which
# reduces by the gcd of the full products.
def reference_add(x, y):
    return RationalFunction(x.num * y.den + y.num * x.den, x.den * y.den)


def reference_sub(x, y):
    return RationalFunction(x.num * y.den - y.num * x.den, x.den * y.den)


def reference_mul(x, y):
    return RationalFunction(x.num * y.num, x.den * y.den)


def reference_truediv(x, y):
    if not y:
        raise DivisionByZero("division by zero rational function")
    return RationalFunction(x.num * y.den, x.den * y.num)


def reference_pow(x, exponent):
    if exponent < 0:
        if not x:
            raise DivisionByZero("negative power of zero")
        return RationalFunction(x.den**-exponent, x.num**-exponent)
    return RationalFunction(x.num**exponent, x.den**exponent)


def reference_derivative(x):
    return RationalFunction(
        x.num.derivative() * x.den - x.num * x.den.derivative(), x.den * x.den
    )


small_roots = st.lists(st.integers(-2, 2), max_size=3)


@st.composite
def related_pairs(draw):
    """a/b and a second rational function over d, where b and d share the
    linear factors of ``shared`` and no other.  Unless ``plain``, the second
    is w/d - a/b for a w made of d's own factors, with d = b when ``same``,
    so that the sum cancels against d or is zero."""
    shared = draw(small_roots)
    r, t = draw(st.lists(st.integers(3, 4), max_size=2)), draw(st.lists(st.integers(-4, -3), max_size=2))
    mode = draw(st.sampled_from(["plain", "same", "other"]))
    b = _linear_product(shared + r, draw(nonzero_coeffs))
    d = b if mode == "same" else _linear_product(shared + t, draw(nonzero_coeffs))
    x = RationalFunction(draw(polys) or Polynomial.one(), b)
    if mode == "plain":
        return x, RationalFunction(draw(polys), d)
    roots = shared + (r if mode == "same" else t)
    w = _linear_product(draw(st.lists(st.sampled_from(roots), min_size=1, max_size=2))
                        if roots else [], draw(small_coeffs))
    return x, reference_sub(RationalFunction(w, d), x)


def sum_events(x, y):
    """Record as a hypothesis event the branch of Henrici's sum that
    ``x + y`` takes, and whether the sum is zero."""
    (a, b), (c, d) = (x.num, x.den), (y.num, y.den)
    if b == d:
        event("sum: equal denominators, gcd(a + c, b) nontrivial"
              if (a + c) and reference_gcd(a + c, b).degree() > 0
              else "sum: equal denominators")
    elif b.degree() == 0 or d.degree() == 0:
        event("sum: one constant denominator")
    else:
        g = reference_gcd(b, d)
        if g.degree() == 0:
            event("sum: coprime denominators")
        else:
            num = a * (d // g) + c * (b // g)
            event("sum: shared factor, gcd(num, g) nontrivial"
                  if reference_gcd(num, g).degree() > 0 else "sum: shared factor")
    if not x + y:
        event("sum: zero result")


@settings(max_examples=300)
@given(st.one_of(st.tuples(rational_functions, rational_functions), related_pairs()),
       st.integers(-3, 3), st.integers(-2, 2))
def test_arithmetic_matches_reference(pair, exponent, k):
    x, y = pair
    constant = RationalFunction.constant(k)
    sum_events(x, y)
    if x.den.degree() > 0 and reference_gcd(x.den, x.den.derivative()).degree() > 0:
        event("derivative: repeated factor")
    cases = [
        (x + y, reference_add(x, y)), (x - y, reference_sub(x, y)),
        (y - x, reference_sub(y, x)), (x * y, reference_mul(x, y)),
        (k + x, reference_add(constant, x)), (k - x, reference_sub(constant, x)),
        (x * k, reference_mul(x, constant)),
        (x.derivative(), reference_derivative(x)), (y.derivative(), reference_derivative(y)),
    ]
    for num, den, reference_num in ((x, y, x), (y, x, y), (k, x, constant)):
        try:
            expected = reference_truediv(reference_num, den)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                num / den
        else:
            cases.append((num / den, expected))
    try:
        expected = reference_pow(x, exponent)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            x**exponent
    else:
        cases.append((x**exponent, expected))
    for got, expected in cases:
        assert (got.num, got.den) == (expected.num, expected.den)


# The parent's GaussianRational, two Fraction parts, kept as the oracle of the
# integer form (a + b*i)/d.
class ReferenceGaussian:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, ReferenceGaussian):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _as_reference(other)
        return ReferenceGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_reference(other)
        return ReferenceGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_reference(other) - self

    def __neg__(self):
        return ReferenceGaussian(-self.re, -self.im)

    def __mul__(self, other):
        other = _as_reference(other)
        return ReferenceGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_reference(other)
        if not other:
            raise DivisionByZero("division by zero Gaussian rational")
        norm = other.re * other.re + other.im * other.im
        return ReferenceGaussian(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return _as_reference(other) / self

    def __pow__(self, exponent):
        if exponent < 0:
            return (ReferenceGaussian(1) / self) ** (-exponent)
        out = ReferenceGaussian(1)
        for _ in range(exponent):
            out = out * self
        return out

    def sort_key(self):
        return (self.re, self.im)

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return "%s*i" % self.im
        return "%s%s%s*i" % (self.re, "+" if self.im > 0 else "-", abs(self.im))

    def __repr__(self):
        if not self.im:
            return "GaussianRational(%s)" % self.re
        return "GaussianRational(%s, %s)" % (self.re, self.im)


def _as_reference(value):
    return value if isinstance(value, ReferenceGaussian) else ReferenceGaussian(value)


wide_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
wide_parts = st.one_of(
    st.tuples(wide_rationals, wide_rationals),
    st.tuples(wide_rationals, st.just(0)),  # real
    st.tuples(st.just(0), wide_rationals),  # pure imaginary
    st.just((0, 0)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
plain_scalars = st.one_of(st.integers(-10**6, 10**6), wide_rationals)


def assert_matches_reference(got, ref):
    assert type(got.a) is int and type(got.b) is int and type(got.d) is int
    assert got.d > 0 and math.gcd(got.a, got.b, got.d) == 1
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (ref.re, ref.im)
    assert bool(got) == bool(ref)
    assert hash(got) == hash(ref)
    key = got.sort_key()
    assert key == ref.sort_key() and all(type(part) is Fraction for part in key)
    assert str(got) == str(ref)
    assert repr(got) == repr(ref)


@given(wide_parts, wide_parts, plain_scalars, st.integers(-3, 3))
def test_gaussian_matches_reference(x, y, k, exponent):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    rx, ry = ReferenceGaussian(*x), ReferenceGaussian(*y)
    assert_matches_reference(gx, rx)
    for got, ref in (
        (gx + gy, rx + ry), (gx - gy, rx - ry), (gx * gy, rx * ry), (-gx, -rx),
        (gx + k, rx + k), (k + gx, k + rx), (gx - k, rx - k), (k - gx, k - rx),
        (gx * k, rx * k), (k * gx, k * rx),
    ):
        assert_matches_reference(got, ref)
    for num, den, rnum, rden in ((gx, gy, rx, ry), (gx, k, rx, k), (k, gx, k, rx)):
        if den:
            assert_matches_reference(num / den, rnum / rden)
        else:
            with pytest.raises(DivisionByZero):
                rnum / rden
            with pytest.raises(DivisionByZero):
                num / den
    if gx or exponent >= 0:
        assert_matches_reference(gx**exponent, rx**exponent)
    else:
        with pytest.raises(DivisionByZero):
            rx**exponent
        with pytest.raises(DivisionByZero):
            gx**exponent
    assert (gx == gy) == (rx == ry)
    assert (gx == k) == (rx == k)
    assert (gx == x[0]) == (rx == x[0])


# The parent's Polynomial product, kept as the oracle of one normalisation
# per output coefficient: every term product and partial sum is a reduced
# GaussianRational.
def reference_poly_mul(p, q):
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            e = e1 + e2
            s = out.get(e, GaussianRational(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Polynomial(out)


# denominators 1..6 mix within one output coefficient; some parts imaginary
mixed_coeffs = st.builds(
    lambda re, im, d: GaussianRational(Fraction(re, d), Fraction(im, d)),
    st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), st.sampled_from([0, 0, 1, -3]),
    st.integers(1, 6),
)
mixed_polys = st.dictionaries(st.integers(0, 4), mixed_coeffs, max_size=5).map(Polynomial)
divisors = st.dictionaries(st.integers(0, 4), mixed_coeffs, min_size=1, max_size=5).map(Polynomial)


@st.composite
def cancelling_pairs(draw):
    """``(u + v) w`` and ``(u - v) w`` for monomials u, v and w: the
    coefficient at the sum of the exponents of u and v cancels to zero."""
    i, j, m = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    a, b, c = (draw(mixed_coeffs) for _ in range(3))
    u = Polynomial({i: a})
    v = Polynomial({j: b}) if i != j else Polynomial({j + 4: b})
    w = Polynomial({m: c})
    return (u + v) * w, (u - v) * w


def assert_canonical(p):
    for c in p.coeffs.values():
        assert type(c.a) is int and type(c.b) is int and type(c.d) is int
        assert c and c.d > 0 and math.gcd(c.a, c.b, c.d) == 1


def product_events(p, q):
    denominators, received = {}, set()
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            denominators.setdefault(e1 + e2, set()).add(c1.d * c2.d)
            if c1.b or c2.b:
                event("product: Gaussian coefficients")
    if any(len(ds) > 1 for ds in denominators.values()):
        event("product: mixed denominators in one coefficient")
    if denominators.keys() - reference_poly_mul(p, q).coeffs.keys():
        event("product: a coefficient cancels to zero")


@settings(max_examples=300)
@given(st.one_of(st.tuples(mixed_polys, mixed_polys), cancelling_pairs()))
def test_polynomial_product_matches_reference(pair):
    p, q = pair
    product_events(p, q)
    for x, y in ((p, q), (q, p)):
        got = x * y
        assert got == reference_poly_mul(x, y)
        assert_canonical(got)


def division_events(p, q, quotient):
    coeffs = (*p.coeffs.values(), *q.coeffs.values())
    if any(c.b for c in coeffs):
        event("divmod: Gaussian coefficients")
    if len({c.d for c in coeffs}) > 1:
        event("divmod: mixed denominators")
    event("divmod: monic divisor" if q.leading_coeff() == 1 else "divmod: non-monic divisor")
    # the step with quotient term z^s updates the exponents s + e below its
    # leading one; one of them absent afterwards cancelled to zero
    partial, dlead = p, q.degree()
    for s in sorted(quotient.coeffs, reverse=True):
        partial = partial - Polynomial({s: quotient.coeffs[s]}) * q
        if any(s + e not in partial.coeffs for e in q.coeffs if e != dlead):
            event("divmod: a remainder coefficient cancels part-way")
            break


exact_quotients = st.builds(lambda m, q: (m * q, q), mixed_polys, divisors)


@settings(max_examples=300)
@given(st.one_of(st.tuples(mixed_polys, divisors), exact_quotients), st.booleans())
@example((Polynomial({3: 1, 2: 1, 1: -1, 0: -1}), Polynomial({1: 2, 0: 2})), False)
def test_divmod_matches_reference(pair, make_monic):
    p, q = pair
    if make_monic:
        q = q.monic()
    quotient, remainder = divmod(p, q)
    division_events(p, q, quotient)
    if p and not remainder:
        event("divmod: exact quotient")
    assert (quotient, remainder) == reference_divmod(p, q)
    assert_canonical(quotient)
    assert_canonical(remainder)
    assert quotient * q + remainder == p


def test_division_reduces_each_output_coefficient_once(monkeypatch):
    p = Polynomial({4: Fraction(1, 2), 3: I, 2: Fraction(-2, 3), 1: 1, 0: 5})
    q = Polynomial({2: Fraction(3, 4), 1: -I, 0: Fraction(1, 2)})
    calls, reduced = [], scalars._reduced

    def counted(a, b, d):
        calls.append((a, b, d))
        return reduced(a, b, d)

    monkeypatch.setattr(scalars, "_reduced", counted)
    quotient, remainder = divmod(p, q)
    # the inverse of the leading coefficient, then each output coefficient
    assert len(calls) == 1 + len(quotient.coeffs) + len(remainder.coeffs) == 6
    assert reference_divmod(p, q) == (quotient, remainder)


def test_product_reduces_each_output_coefficient_once(monkeypatch):
    i = GaussianRational(0, 1)
    p = Polynomial({0: Fraction(1, 2), 1: i, 2: Fraction(-2, 3), 3: 1})
    q = Polynomial({0: Fraction(1, 2), 1: -i, 2: Fraction(3, 4)})
    calls, reduced = [], scalars._reduced

    def counted(a, b, d):
        calls.append((a, b, d))
        return reduced(a, b, d)

    monkeypatch.setattr(scalars, "_reduced", counted)
    got = p * q
    # the z coefficient i/2 - i/2 cancels and is never reduced
    assert 1 not in got.coeffs
    assert len(calls) == len(got.coeffs) == 5
    del calls[:]
    assert reference_poly_mul(p, q) == got
    assert len(calls) >= len(p.coeffs) * len(q.coeffs)


@pytest.mark.parametrize("parts", [(0.1,), (1, 0.5), ("1/3",), (0, "1/3")])
def test_gaussian_rejects_floats_and_strings(parts):
    with pytest.raises(TypeError):
        GaussianRational(*parts)


# one repeated-squaring loop serves both powers: each must equal the product
# of |k| factors, the reciprocal's for a negative Gaussian exponent
@given(gaussians, st.integers(-6, 6))
@example(GaussianRational(0), -2)
@example(GaussianRational(0), 0)
def test_gaussian_power_is_repeated_product(x, k):
    if k < 0 and not x:
        with pytest.raises(DivisionByZero):
            x**k
        return
    factor = x if k >= 0 else GaussianRational(1) / x
    expected = GaussianRational(1)
    for _ in range(abs(k)):
        expected = expected * factor
    got = x**k
    assert got == expected
    assert_matches_reference(got, ReferenceGaussian(expected.re, expected.im))


@given(mixed_polys, st.integers(0, 5))
def test_polynomial_power_is_repeated_product(p, k):
    expected = Polynomial.one()
    for _ in range(k):
        expected = expected * p
    got = p**k
    assert got == expected
    assert_canonical(got)
    assert p**0 == Polynomial.one()
    with pytest.raises(ValueError):
        p ** (-1 - k)


@given(mixed_polys, mixed_polys)
def test_polynomial_difference_is_sum_with_negation(p, q):
    diff = p - q
    assert_canonical(diff)
    assert diff + q == p
    assert diff == -(q - p)
    zero = p - p
    assert zero == Polynomial.zero() and zero.coeffs == {} and not zero
