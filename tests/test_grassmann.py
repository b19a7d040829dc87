import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import event, example, given, settings, strategies as st

import reference_grassmann as reference
from conftest import idx_parity
from supervec.errors import ChartMismatch, MathDomainError, MixedParity
from supervec.expressions import superfunction_text
from supervec.grassmann import (
    PullbackData,
    SuperFunction,
    compose,
    idx_mul,
    idx_positions,
    idx_sort_key,
    idx_weight,
)
from supervec.scalars import GaussianRational, Polynomial, RationalFunction

C = "chart0"


def zm(k):
    return RationalFunction.monomial(k)


def rand_rf(rng, deg=2):
    num = Polynomial(
        {e: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
         for e in range(rng.randint(0, deg + 1))}
    )
    return RationalFunction(num)


def rand_sf(rng, n, parity=None, density=0.4):
    terms = {}
    for idx in range(1 << n):
        if parity is not None and idx_parity(idx) != parity:
            continue
        if rng.random() < density:
            terms[idx] = rand_rf(rng)
    return SuperFunction(C, n, terms)


def test_index_algebra():
    assert idx_weight(0b101) == 2
    assert idx_parity(0b111) == 1
    sign, idx = idx_mul(0b10, 0b01)  # theta2 * theta1
    assert sign == -1 and idx == 0b11
    sign, idx = idx_mul(0b01, 0b10)
    assert sign == 1 and idx == 0b11
    assert idx_mul(0b01, 0b01)[0] == 0


def test_mul_examples():
    t1 = SuperFunction.odd_var(C, 2, 0)
    t2 = SuperFunction.odd_var(C, 2, 1)
    assert not t1 * t1
    assert t2 * t1 == -(t1 * t2)
    lhs = t1.scale(zm(-2)) * t2.scale(zm(-2))
    assert lhs == SuperFunction(C, 2, {3: zm(-4)})


def test_mul_supercommutative_and_associative():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(15):
            pf, pg = rng.randint(0, 1), rng.randint(0, 1)
            f = rand_sf(rng, n, pf)
            g = rand_sf(rng, n, pg)
            h = rand_sf(rng, n)
            sign = -1 if (pf and pg) else 1
            assert f * g == (g * f).scale(sign)
            assert (f * g) * h == f * (g * h)


def test_chart_mismatch():
    f = SuperFunction.one("a", 1)
    g = SuperFunction.one("b", 1)
    with pytest.raises(ChartMismatch):
        f * g


def test_degree_components():
    f = SuperFunction(C, 2, {0: zm(-1), 3: zm(-3)})
    assert f.degree_component(0) == SuperFunction(C, 2, {0: zm(-1)})
    assert f.degree_component(2) == SuperFunction(C, 2, {3: zm(-3)})
    even_pure = SuperFunction.from_rf(C, 2, zm(2))
    assert not even_pure.degree_component(1)
    rng = random.Random(8)
    for _ in range(20):
        g = rand_sf(rng, 3)
        total = SuperFunction.zero(C, 3)
        for k in range(4):
            total = total + g.degree_component(k)
        assert total == g


def nonsplit_chi():
    even = SuperFunction(C, 2, {0: zm(-1), 3: zm(-3)})
    odds = [SuperFunction(C, 2, {1: zm(-2)}), SuperFunction(C, 2, {2: zm(-2)})]
    return PullbackData(C, "chart1", even, odds)


def test_substitute_transition_examples():
    chi = nonsplit_chi()
    w = SuperFunction.coordinate("chart1", 2)
    assert chi.apply(w) == SuperFunction(C, 2, {0: zm(-1), 3: zm(-3)})
    eta12 = SuperFunction("chart1", 2, {3: RationalFunction.one()})
    assert chi.apply(eta12) == SuperFunction(C, 2, {3: zm(-4)})


def test_substitute_identity():
    rng = random.Random(9)
    for n in (1, 2, 3):
        ident = PullbackData.identity(C, n)
        for _ in range(10):
            f = rand_sf(rng, n)
            assert ident.apply(f) == f


def test_substitute_first_order_taylor():
    z = RationalFunction.z()
    fz = rand_rf(random.Random(10), 3)
    p = PullbackData(
        C, C,
        SuperFunction(C, 2, {0: z, 3: fz}),
        [SuperFunction.odd_var(C, 2, 0), SuperFunction.odd_var(C, 2, 1)],
    )
    f = SuperFunction.from_rf(C, 2, z * z)
    assert p.apply(f) == SuperFunction(C, 2, {0: z * z, 3: RationalFunction.constant(2) * z * fz})


def rand_pullback(rng, n):
    """Random algebra morphism: even image with invertible-ish reduced part."""
    red = RationalFunction(
        Polynomial({0: GaussianRational(rng.randint(-2, 2)), 1: GaussianRational(rng.randint(1, 3))})
    )
    even_terms = {0: red}
    for idx in range(1 << n):
        if idx and idx_weight(idx) % 2 == 0 and rng.random() < 0.4:
            even_terms[idx] = rand_rf(rng)
    odds = []
    for j in range(n):
        terms = {}
        for idx in range(1 << n):
            if idx_weight(idx) % 2 == 1 and rng.random() < (0.9 if idx == (1 << j) else 0.2):
                terms[idx] = rand_rf(rng)
        odds.append(SuperFunction(C, n, terms))
    return PullbackData(C, C, SuperFunction(C, n, even_terms), odds)


def test_substitute_is_algebra_morphism():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = rand_pullback(rng, n)
        f = rand_sf(rng, n)
        g = rand_sf(rng, n)
        assert p.apply(f * g) == p.apply(f) * p.apply(g)
        assert p.apply(f + g) == p.apply(f) + p.apply(g)


def test_pullback_parity_validation():
    t1 = SuperFunction.odd_var(C, 1, 0)
    mixed = SuperFunction(C, 1, {0: RationalFunction.one(), 1: RationalFunction.one()})
    with pytest.raises(MixedParity):
        PullbackData(C, C, mixed, [t1])
    with pytest.raises(MixedParity):
        PullbackData(C, C, SuperFunction.coordinate(C, 1), [SuperFunction.one(C, 1)])


def test_pullback_parity_messages_and_zero_odd_image():
    one, z = RationalFunction.one(), RationalFunction.z()
    t1, t2 = SuperFunction.odd_var(C, 2, 0), SuperFunction.odd_var(C, 2, 1)
    mixed_even = SuperFunction(C, 2, {0: z, 1: one})
    with pytest.raises(MixedParity) as info:
        PullbackData(C, C, mixed_even, [t1, t2])
    assert info.value.message == "even coordinate image must be pure even"
    mixed_odd = SuperFunction(C, 2, {1: one, 3: z})
    for odds in ([mixed_odd, t2], [t1, mixed_odd]):
        with pytest.raises(MixedParity) as info:
            PullbackData(C, C, SuperFunction.coordinate(C, 2), odds)
        assert info.value.message == "odd coordinate image must be pure odd"
    zero = SuperFunction.zero(C, 2)
    p = PullbackData(C, C, SuperFunction.coordinate(C, 2), [zero, t2])
    assert p.odd_images == (zero, t2)
    assert PullbackData(C, C, zero, [t1, t2]).even_image == zero


def test_compose_unit_and_associativity():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randint(1, 3)
        p = rand_pullback(rng, n)
        q = rand_pullback(rng, n)
        r = rand_pullback(rng, n)
        ident = PullbackData.identity(C, n)
        assert compose(p, ident) == p
        assert compose(ident, p) == p
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_flow_pullbacks_add_times():
    # z -> z + t f(z) t1 t2 composes additively in t
    f = RationalFunction(Polynomial({0: GaussianRational(2), 3: GaussianRational(1)}))
    def flow(t):
        even = SuperFunction(C, 2, {0: RationalFunction.z(), 3: f * t})
        return PullbackData(
            C, C, even,
            [SuperFunction.odd_var(C, 2, 0), SuperFunction.odd_var(C, 2, 1)],
        )
    s, t = GaussianRational(Fraction(2, 3)), GaussianRational(Fraction(-5, 7))
    assert compose(flow(s), flow(t)) == flow(s + t)


coefficients = st.builds(
    RationalFunction.monomial,
    st.integers(-2, 2),
    st.sampled_from([1, -1, 2, Fraction(-1, 3), GaussianRational(0, 1), GaussianRational(1, -2)]),
)


@st.composite
def shuffled_terms(draw):
    """Terms of one function, in the print order and in a drawn order."""
    n = draw(st.integers(1, 4))
    terms = draw(st.dictionaries(st.integers(0, (1 << n) - 1), coefficients, min_size=1))
    ordered = sorted(terms.items(), key=lambda item: idx_sort_key(item[0]))
    return n, ordered, draw(st.permutations(ordered))


@given(shuffled_terms())
@example((2, [(0, RationalFunction.one()), (3, zm(1))], [(3, zm(1)), (0, RationalFunction.one())]))
def test_term_order_is_not_part_of_the_value(case):
    # terms carry no order: a function built in any order equals, hashes and
    # prints as the one built in print order
    n, ordered, shuffled = case
    expected = SuperFunction(C, n, dict(ordered))
    summed = SuperFunction.zero(C, n)
    for idx, rf in shuffled:
        summed = summed + SuperFunction.monomial(C, n, idx, rf)
    for f in (SuperFunction(C, n, dict(shuffled)), summed):
        assert f == expected
        assert hash(f) == hash(expected)
        assert superfunction_text(f) == superfunction_text(expected)


# The parent's odd_product and apply, kept as the oracle of the Taylor plan:
# every call multiplies the odd images afresh, stopping at a zero partial
# product, and rebuilds the powers of the nilpotent part of the even image.
def reference_odd_product(p, idx):
    out = SuperFunction.one(p.source_chart, p.odd_dim)
    for j in idx_positions(idx):
        out = out * p.odd_images[j]
        if not out:
            break
    return out


def reference_apply(p, f):
    g_red = p.even_image.reduced_part()
    g_nil = p.even_image.nilpotent_part()
    nil_powers = [SuperFunction.one(p.source_chart, p.odd_dim)]
    while nil_powers[-1] and len(nil_powers) <= p.odd_dim // 2 + 1:
        nxt = nil_powers[-1] * g_nil
        if not nxt:
            break
        nil_powers.append(nxt)
    out = SuperFunction.zero(p.source_chart, p.odd_dim)
    for idx, coeff in f.terms.items():
        expanded = SuperFunction.zero(p.source_chart, p.odd_dim)
        deriv = coeff
        for k, nil_k in enumerate(nil_powers):
            if k > 0:
                deriv = deriv.derivative()
                if not deriv:
                    break
            composed = deriv.compose(g_red)
            if k > 0:
                composed = composed * RationalFunction.constant(Fraction(1, factorial(k)))
            if composed:
                expanded = expanded + nil_k.scale(composed)
        if idx:
            expanded = expanded * reference_odd_product(p, idx)
        out = out + expanded
    return out


taylor_coeffs = st.lists(
    st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), GaussianRational(0, 1)]),
    min_size=1, max_size=4,
).map(lambda cs: RationalFunction(Polynomial(dict(enumerate(cs)))))


@st.composite
def pullback_cases(draw):
    """A pullback on (1|n), n = 1..4, and a function to apply it to.  The odd
    images in ``sharing`` have every term divisible by one odd generator, so
    any two of them multiply to zero and longer products vanish part-way."""
    n = draw(st.integers(1, 4))
    weights = {parity: [idx for idx in range(1, 1 << n) if idx_parity(idx) == parity]
               for parity in (0, 1)}
    red = RationalFunction(Polynomial({0: draw(st.integers(-2, 2)), 1: draw(st.integers(1, 3))}))
    even = {0: red}
    if weights[0]:
        even.update(draw(st.dictionaries(st.sampled_from(weights[0]), taylor_coeffs, max_size=3)))
    if n == 4 and draw(st.booleans()):
        # t1*t2 and t3*t4 together give the nilpotent part a nonzero square
        even.update({0b0011: draw(taylor_coeffs), 0b1100: draw(taylor_coeffs)})
    shared = draw(st.integers(0, n - 1))
    sharing = draw(st.sets(st.integers(0, n - 1)))
    odds = []
    for j in range(n):
        allowed = [idx for idx in weights[1] if j not in sharing or idx >> shared & 1]
        terms = draw(st.dictionaries(st.sampled_from(allowed), taylor_coeffs, max_size=3))
        odds.append(SuperFunction(C, n, terms))
    p = PullbackData(C, C, SuperFunction(C, n, even), odds)
    f = SuperFunction(C, n, draw(st.dictionaries(st.integers(0, (1 << n) - 1), taylor_coeffs)))
    return p, f


@given(pullback_cases())
def test_taylor_plan_matches_reference(case):
    p, f = case
    fresh = PullbackData(p.source_chart, p.target_chart, p.even_image, p.odd_images)
    expected = reference_apply(p, f)
    first = p.apply(f)
    assert first == expected
    assert p.apply(f) == first
    g_nil = p.even_image.nilpotent_part()
    if g_nil * g_nil:
        event("second-order Taylor term")
    for idx in range(1 << p.odd_dim):
        product = p.odd_product(idx)
        assert product == reference_odd_product(p, idx)
        if idx & (idx - 1) and not reference_odd_product(p, idx ^ (1 << idx.bit_length() - 1)):
            event("odd product vanishes part-way")
    # the filled plan is no part of the value
    assert p == fresh and hash(p) == hash(fresh)
    assert fresh.apply(f) == first


def counting_odd_image_products(monkeypatch):
    """A list with one entry per ``SuperFunction`` product: True when it is
    made inside ``PullbackData.odd_product``."""
    calls, depth = [], []
    product, odd_product = SuperFunction.__mul__, PullbackData.odd_product

    def counted_product(self, other):
        calls.append(bool(depth))
        return product(self, other)

    def counted_odd_product(self, idx):
        depth.append(idx)
        try:
            return odd_product(self, idx)
        finally:
            depth.pop()

    monkeypatch.setattr(SuperFunction, "__mul__", counted_product)
    monkeypatch.setattr(PullbackData, "odd_product", counted_odd_product)
    return calls


def test_second_apply_multiplies_no_odd_images(monkeypatch):
    rng = random.Random(13)
    n = 4
    p = rand_pullback(rng, n)
    f = SuperFunction(C, n, {idx: rand_rf(rng) or RationalFunction.one() for idx in range(1 << n)})
    fresh = PullbackData(p.source_chart, p.target_chart, p.even_image, p.odd_images)
    first = p.apply(f)
    calls = counting_odd_image_products(monkeypatch)
    assert p.apply(f) == first
    # one product per term of f with odd factors, none for the plan
    assert calls == [False] * (len(f.terms) - 1)
    del calls[:]
    assert fresh.apply(f) == first
    assert any(calls)


@st.composite
def drawn_images(draw, n):
    """Even and odd coordinate images on (1|n), drawn by parity; any may be zero."""
    images = []
    for u in range(n + 1):
        pool = [idx for idx in range(1 << n) if idx_parity(idx) == (u > 0)]
        terms = draw(st.dictionaries(st.sampled_from(pool), taylor_coeffs, max_size=3)) if pool else {}
        images.append(SuperFunction(C, n, terms))
    return images[0], images[1:]


PULLBACK_FAULTS = ["even chart", "odd chart", "odd dimension", "mixed even", "mixed odd",
                   "wrong parity even", "wrong parity odd", "zero odd", "count"]


@st.composite
def pullback_args(draw):
    """Constructor arguments of a pullback from chart C to chart C on (1|n), with
    images drawn here for n = 0..4 or taken from ``pullback_cases``, and up to
    two injected faults, applied in ``PULLBACK_FAULTS`` order; a fault named
    with "odd" hits one odd image, the others the even image or the count."""
    if draw(st.booleans()):
        p, _ = draw(pullback_cases())
        n, even, odds = p.odd_dim, p.even_image, list(p.odd_images)
    else:
        n = draw(st.integers(0, 4))
        even, odds = draw(drawn_images(n))
    images = [even, *odds]
    faults = draw(st.sets(st.sampled_from(PULLBACK_FAULTS), max_size=2))
    one = RationalFunction.one()
    for fault in PULLBACK_FAULTS:
        # on (1|0) only the even image exists, and it has no odd terms
        if fault not in faults or not n and fault not in ("even chart", "count"):
            continue
        u = draw(st.integers(1, n)) if "odd" in fault else 0
        if fault == "count":
            images = images[:-1] if n and draw(st.booleans()) else images + [SuperFunction.zero(C, n)]
        elif "chart" in fault:
            images[u] = SuperFunction("chart1", n, images[u].terms)
        elif fault == "odd dimension":
            images[u] = SuperFunction(C, n + 1, images[u].terms)
        elif fault.startswith("mixed"):
            images[u] = SuperFunction(C, n, {**images[u].terms, 0: one, 1: one})
        elif fault.startswith("wrong parity"):
            images[u] = SuperFunction(C, n, {0: one} if u else {1: one})
        else:
            images[u] = SuperFunction.zero(C, n)
    return images[0], images[1:]


def pullback_outcome(operation, *args):
    """("value", v) with a pullback as (source, target, even image, odd images),
    or (error class, message)."""
    try:
        v = operation(*args)
    except (MathDomainError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(v, (PullbackData, reference.PullbackData)):
        v = v.source_chart, v.target_chart, v.even_image, tuple(v.odd_images)
    return "value", v


def pullback_tag(outcome):
    if outcome[0] == "value":
        return "value"
    return "%s: %s" % (outcome[0].__name__, re.sub(r"\b[0-9]+\b", "k", outcome[1]))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_pullback_matches_parent_class(data):
    """Each pullback is built by the library and by the parent class from the same
    images; construction must give equal images or the same error class and
    message, and every operation equal values.  Hashes are compared within each
    class: equal pullbacks must hash alike."""
    even, odds = data.draw(pullback_args())
    classes = (PullbackData, reference.PullbackData)
    built = [pullback_outcome(cls, C, C, even, odds) for cls in classes]
    assert built[0] == built[1]
    event("constructor: %s" % pullback_tag(built[0]))
    if built[0][0] != "value":
        return
    if not all(odds):
        event("zero odd image")
    p, p_ref = (cls(C, C, even, odds) for cls in classes)
    n = p.odd_dim
    assert p.images == (even, *odds)
    assert (p.even_image, p.odd_images) == (p_ref.even_image, p_ref.odd_images)
    other_even, other_odds = data.draw(st.one_of(
        st.just((even, odds)), drawn_images(n), drawn_images(n + 1)))
    target = data.draw(st.sampled_from([C, C, "chart1"]))
    q, q_ref = (cls(C, target, other_even, other_odds) for cls in classes)
    assert (p == q) == (p_ref == q_ref)
    if p == q:
        assert hash(p) == hash(q) and hash(p_ref) == hash(q_ref)
    event("==: %s" % (p == q))
    for idx in range(1 << n):
        assert p.odd_product(idx) == p_ref.odd_product(idx)
    f = SuperFunction(C, n, data.draw(st.dictionaries(st.integers(0, (1 << n) - 1), taylor_coeffs)))
    assert p.apply(f) == p_ref.apply(f)
    for name, (outer, inner), (outer_ref, inner_ref) in [
        ("compose(p, q)", (p, q), (p_ref, q_ref)),
        ("compose(q, p)", (q, p), (q_ref, p_ref)),
    ]:
        got = pullback_outcome(compose, outer, inner)
        assert got == pullback_outcome(reference.compose, outer_ref, inner_ref), name
        event("%s: %s" % (name, pullback_tag(got)))
