"""Two-chart supermanifolds over the projective line.

The model is fixed: chart 0 with coordinates (z, theta_1..theta_n), chart 1
with (w, eta_1..eta_n), glued over z != 0 by a transition pullback whose
reduced even part is exactly 1/z and whose coefficients are Laurent (poles
only at z = 0).  A second supported kind is the single-chart (0|1) point
with one odd coordinate, where there is no transition at all.

The transition identity chi*(D1 y_u) = D0(chi* y_u) is read on Laurent-term
maps {(nu, k): c}, the terms c z^k theta^nu, by this module alone, off the
Laurent plan kept on the transition: the check of a global field calls
``add_image`` once per chart-1 term of the field, and ``liealg``'s
compatibility rows once per unknown chart-1 monomial, beside the plan's
partials for chart 0.  The maps' product ``add_product``, over one
``idx_products`` table, and ``partials`` serve ``liealg``'s brackets too.

Closed-form morphism families (fractional-linear lifts, traceless-matrix
embeddings, nilpotent flows) are data-driven copies of the displayed
formulas for two families:

* ``diagonal`` -- split (1|n), transition eta_j = z^-k_j * theta_j, any n
* ``nonsplit`` -- the (1|2) manifold with w-image 1/z + z^-3 theta_1 theta_2;
  each lift and embedding is the diagonal one at k = (2, 2), the embedding
  taken at J A^T J with J = diag(1, -1), plus one theta_1 theta_2 term
"""

from __future__ import annotations

from collections import namedtuple
from math import perm

from .errors import (
    BadDeterminant,
    BadReducedMap,
    ChartMismatch,
    DegenerateOddPart,
    FamilyShapeMismatch,
    NotGlobal,
    NotLaurent,
    NotTraceless,
)
from .derivations import (
    SuperDerivation,
    degree_zero_part,
    odd_linear_matrix,
    pullback_invert,
)
from .grassmann import PullbackData, SuperFunction, compose, idx_products
from .linalg import rank
from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Polynomial,
    RationalFunction,
    mobius_coefficients,
)

CHART0 = "chart0"
CHART1 = "chart1"
POINT_CHART = "c01"

KIND_P1 = "p1"
KIND_C01 = "c01"


class SuperManifoldData(namedtuple("SuperManifoldData", "name odd_dim kind transition")):
    """Validated two-chart transition data (or the single-chart point)."""

    __slots__ = ()

    @classmethod
    def from_transition(cls, name, odd_dim, transition):
        if transition.source_chart != CHART0 or transition.target_chart != CHART1:
            raise ChartMismatch("transition must map chart0 into chart1")
        if transition.odd_dim != odd_dim:
            raise ChartMismatch("transition odd dimension does not match")
        if transition.even_image.reduced_part() != RationalFunction.monomial(-1):
            raise BadReducedMap("reduced even transition must be exactly 1/z")
        for img in transition.images:
            laurent_terms(img.terms)  # NotLaurent at a pole off z = 0
        if rank(odd_linear_matrix(transition)) < odd_dim:
            raise DegenerateOddPart("degree-1 odd transition matrix is singular")
        return cls(name, odd_dim, KIND_P1, transition)

    @classmethod
    def point(cls, name="c01"):
        """The (0|1) single-chart supermanifold."""
        return cls(name, 1, KIND_C01, None)

    @property
    def chart0(self):
        return POINT_CHART if self.kind == KIND_C01 else CHART0

    @property
    def chart1(self):
        return POINT_CHART if self.kind == KIND_C01 else CHART1

    def gr(self):
        """Associated split model: keep only the degree-preserving transition part."""
        if self.kind == KIND_C01:
            return self
        truncated = degree_zero_part(self.transition)
        if truncated == self.transition:
            return self
        return SuperManifoldData(self.name + "-gr", self.odd_dim, KIND_P1, truncated)

    def __repr__(self):
        return "SuperManifoldData(%r, odd_dim=%d, kind=%r)" % (
            self.name,
            self.odd_dim,
            self.kind,
        )


class GlobalVectorField(namedtuple("GlobalVectorField", "manifold chart0_der chart1_der parity")):
    """A super vector field defined on the whole manifold.

    Stored as its restrictions to both charts.  The constructor checks, in
    order, that they live on the manifold's charts with its odd dimension
    (ChartMismatch), that the field is parity-homogeneous, that every
    coefficient is polynomial, and that the two restrictions agree across the
    transition on every coordinate (NotGlobal), the last on Laurent terms.
    """

    __slots__ = ()

    def __new__(cls, manifold, chart0_der, chart1_der):
        return super().__new__(cls, manifold, chart0_der, chart1_der, chart0_der.parity())

    @classmethod
    def _make(cls, iterable):
        # through the constructor, so ``_replace`` re-derives parity and re-checks
        manifold, chart0_der, chart1_der, _ = iterable
        return cls(manifold, chart0_der, chart1_der)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor too, so they re-run the checks
        return type(self), self[:3]

    def __init__(self, manifold, chart0_der, chart1_der):
        if (chart0_der.chart, chart1_der.chart) != (manifold.chart0, manifold.chart1):
            raise ChartMismatch("restrictions live on %r and %r, the manifold's charts are %r and %r"
                                % (chart0_der.chart, chart1_der.chart, manifold.chart0, manifold.chart1))
        if chart0_der.odd_dim != manifold.odd_dim or chart1_der.odd_dim != manifold.odd_dim:
            raise ChartMismatch("restrictions have odd dimensions %d and %d, the manifold has %d"
                                % (chart0_der.odd_dim, chart1_der.odd_dim, manifold.odd_dim))
        if self.parity is None:
            raise NotGlobal("global fields must be parity-homogeneous")
        for der in (chart0_der, chart1_der):
            for coeff in der.coeffs:
                for rf in coeff.terms.values():
                    if not rf.is_polynomial():
                        raise NotGlobal("chart restrictions must have polynomial coefficients")
        if manifold.kind == KIND_P1:
            _check_transition(manifold.transition, chart0_der, chart1_der)

    def __repr__(self):
        return "GlobalVectorField(%r, parity=%d)" % (self.manifold.name, self.parity)


# ---------------------------------------------------------------------------
# the transition identity on Laurent-term maps {(nu, k): c}


def laurent_terms(terms):
    """The Laurent-term map of a function's ``terms``; NotLaurent at a pole off z = 0."""
    out = {}
    for nu, rf in terms.items():
        coeffs = rf.laurent()
        if coeffs is None:
            raise NotLaurent("transition coefficients may only have poles at z = 0")
        for k, c in coeffs.items():
            out[nu, k] = c
    return out


def add_product(out, a, b, products, scale=None):
    """Add ``scale * a * b`` (``a`` on the left) into the map ``out``, where
    ``products`` is ``idx_products`` of the odd dimension; zeros may stay."""
    for (ia, ka), ca in a.items():
        if scale is not None:
            ca = ca * scale
        row = products[ia]
        for (ib, kb), cb in b.items():
            sign, idx = row[ib]
            if sign:
                key, t = (idx, ka + kb), ca * cb
                s = out.get(key)
                if s is None:
                    out[key] = t if sign > 0 else -t
                else:
                    out[key] = s + t if sign > 0 else s - t
    return out


def term_product(a, b, products):
    return {key: c for key, c in add_product({}, a, b, products).items() if c}


def partials(terms, n):
    """[d/dz, d/dtheta_1, ..., d/dtheta_n] of a Laurent-term map, as ``d_odd``."""
    out = [{(nu, k - 1): c * k for (nu, k), c in terms.items() if k}]
    for j in range(n):
        bit = 1 << j
        out.append({(nu ^ bit, k): -c if (nu & (bit - 1)).bit_count() & 1 else c
                    for (nu, k), c in terms.items() if nu & bit})
    return out


def laurent_plan(chi):
    """``[partials, rho, nil, odd, products]`` of a transition, formed on first
    use and kept on it: d_v of image u as ``partials[u][v]`` (v = 0 for d/dz),
    the reduced even image's m-th power as ``rho[m]``, g_nil^k / k! as
    ``nil[k]``, ``nil[k]`` times chi*(eta^nu) as ``odd[nu][k]``, and the
    ``idx_products`` table; ``rho`` and ``odd`` grow as ``add_image`` reads them."""
    if chi._laurent is None:
        images = [laurent_terms(img.terms) for img in chi.images]
        products = idx_products(chi.odd_dim)
        nil = [{(0, 0): GR_ONE}]
        g_nil = {key: c for key, c in images[0].items() if key[0]}
        while nxt := term_product(nil[-1], g_nil, products):
            nil.append({key: c / len(nil) for key, c in nxt.items()})
        rho = [nil[0], {key: c for key, c in images[0].items() if not key[0]}]
        chi._laurent = [[partials(terms, chi.odd_dim) for terms in images], rho, nil, {}, products]
    return chi._laurent


def add_image(out, chi, nu, e, c):
    """Add c chi*(w^e eta^nu) into the map ``out``, by the Taylor route
    g(rho + N) = sum_k g^(k)(rho) N^k / k! with g^(k)(rho) = c e!/(e - k)!
    rho^(e - k), times chi*(eta^nu); zeros may stay."""
    _, rho, nil, odd, products = laurent_plan(chi)
    odd_nu = odd.get(nu)
    if odd_nu is None:
        image = laurent_terms(chi.odd_product(nu).terms)
        odd_nu = odd[nu] = [term_product(p, image, products) for p in nil]
    while len(rho) <= e:
        rho.append(term_product(rho[-1], rho[1], products))
    for k, term in enumerate(odd_nu[:e + 1]):
        add_product(out, rho[e - k], term, products, c * perm(e, k) if k else c)
    return out


def _check_transition(chi, chart0_der, chart1_der):
    """NotGlobal unless chi*(D1 y_u) = D0(chi* y_u), as Laurent-term maps, on each
    chart-1 coordinate y_u, where a field's value is its coefficient.  The left
    side is ``add_image`` of each term c w^e eta^nu of D1 y_u; the right side
    is sum_v (D0)_v d_v chi*(y_u)."""
    derivatives, *_, products = laurent_plan(chi)
    coeffs0 = [laurent_terms(c.terms) for c in chart0_der.coeffs]
    for u, coeff in enumerate(chart1_der.coeffs):
        left = {}
        for (nu, e), c in laurent_terms(coeff.terms).items():
            add_image(left, chi, nu, e, c)
        right = {}
        for a, partial in zip(coeffs0, derivatives[u]):
            if a and partial:
                add_product(right, a, partial, products)
        if {key: x for key, x in left.items() if x} != {key: x for key, x in right.items() if x}:
            raise NotGlobal("chart restrictions disagree across the transition")


# ---------------------------------------------------------------------------
# globality check


def _coeffs_of(pullback):
    for img in pullback.images:
        yield from img.terms.values()


def _holomorphic_at(pullback, point):
    # a reduced quotient has a pole exactly where its denominator vanishes
    return all(rf.den.eval(point) for rf in _coeffs_of(pullback))


def morphism_check_global(manifold, p):
    """Classify a chart-0 self-pullback as "global" or "chart0_only".

    The morphism is global when, around every point of the manifold, some
    chart representation of it has pole-free coefficients.  Away from the
    reduced map's pole that is ``p`` itself, so each monic denominator must
    be a power of (z - pole), or 1 when the reduced map fixes infinity.  At
    the pole it is the map into chart 1, ``compose(chi, p)`` for the
    transition chi.  At infinity (w = 0) it is the conjugate
    ``compose(compose(chi, p), chi^-1)`` when infinity is fixed, else the map
    from chart 1 into chart 0, ``compose(p, chi^-1)``.
    """
    if manifold.kind == KIND_C01:
        if p.source_chart != POINT_CHART or p.target_chart != POINT_CHART:
            raise ChartMismatch("pullback must be a self-map of the point chart")
        if p.even_image != SuperFunction.coordinate(POINT_CHART, 1):
            return "chart0_only"
        coeff = p.odd_images[0].coefficient(1)
        return "global" if coeff and coeff.is_constant() else "chart0_only"
    if p.source_chart != CHART0 or p.target_chart != CHART0:
        raise ChartMismatch("pullback must be a chart-0 self-map")
    coeffs = mobius_coefficients(p.even_image.reduced_part())
    if coeffs is None:
        return "chart0_only"
    _, _, gamma, delta = coeffs
    pole = -delta / gamma if gamma else None
    leave = Polynomial.one() if pole is None else Polynomial({1: 1, 0: -pole})
    if any(rf.den != leave ** rf.den.degree() for rf in _coeffs_of(p)):
        return "chart0_only"
    chi = manifold.transition
    into1 = compose(chi, p)
    if pole is not None and not _holomorphic_at(into1, pole):
        return "chart0_only"
    at_infinity = compose(into1 if pole is None else p, pullback_invert(chi))
    return "global" if _holomorphic_at(at_infinity, GR_ZERO) else "chart0_only"


# ---------------------------------------------------------------------------
# closed-form families

FAMILY_DIAGONAL = "diagonal"
FAMILY_NONSPLIT = "nonsplit"


def _as_matrix2(matrix):
    (a, b), (c, d) = matrix
    return (
        a if isinstance(a, GaussianRational) else GaussianRational(a),
        b if isinstance(b, GaussianRational) else GaussianRational(b),
        c if isinstance(c, GaussianRational) else GaussianRational(c),
        d if isinstance(d, GaussianRational) else GaussianRational(d),
    )


def _diagonal_degrees(manifold):
    """Bundle parameters k_j of a split manifold with transition eta_j = z^-k_j theta_j."""
    if manifold.kind != KIND_P1:
        raise FamilyShapeMismatch("family needs a two-chart manifold")
    if manifold.transition.even_image.nilpotent_part():
        raise FamilyShapeMismatch("family needs a split transition")
    ks = []
    for j, img in enumerate(manifold.transition.odd_images):
        if list(img.terms.keys()) != [1 << j]:
            raise FamilyShapeMismatch("odd transition must be diagonal")
        coeffs = img.coefficient(1 << j).laurent()
        if not coeffs or coeffs != {min(coeffs): 1}:
            raise FamilyShapeMismatch("odd transition must be exactly z^-k_j * theta_j")
        ks.append(-min(coeffs))
    return ks


def nonsplit_transition():
    """The bundled non-split (1|2) transition data."""
    zm = RationalFunction.monomial
    even = SuperFunction(CHART0, 2, {0: zm(-1), 3: zm(-3)})
    odds = [
        SuperFunction(CHART0, 2, {1: zm(-2)}),
        SuperFunction(CHART0, 2, {2: zm(-2)}),
    ]
    return PullbackData(CHART0, CHART1, even, odds)


def _family_degrees(manifold, family, extra, what):
    """Odd degrees k_j of the family's closed forms: (2, 2) for ``nonsplit``."""
    if family == FAMILY_DIAGONAL:
        return _diagonal_degrees(manifold)
    if extra:
        raise FamilyShapeMismatch("%s applies to the diagonal family only" % what)
    if family != FAMILY_NONSPLIT:
        raise FamilyShapeMismatch("unknown family %r" % (family,))
    if manifold.kind != KIND_P1 or manifold.transition != nonsplit_transition():
        raise FamilyShapeMismatch("family needs the bundled non-split (1|2) manifold")
    return [2, 2]


def _mobius_rf(a, b, c, d):
    """(c + d z) / (a + b z)."""
    num = Polynomial({0: c, 1: d})
    den = Polynomial({0: a, 1: b})
    return RationalFunction(num, den)


def _base_power(a, b, k):
    """(a + b z)^-k as a rational function, any integer k."""
    base = RationalFunction(Polynomial({0: a, 1: b}))
    return base ** (-k)


def mobius_lift(manifold, family, matrix, s=0):
    """Automorphism pullback lifting a unit-determinant 2x2 matrix.

    On ``diagonal`` z -> (c + d z)/(a + b z) and theta_j -> (a + b z)^-k_j
    theta_j, plus ``s * theta_j`` for the family's scaling parameter ``s``;
    ``nonsplit`` is that lift at k = (2, 2) with -b (a + b z)^-3 theta_1
    theta_2 added to the image of z.
    """
    a, b, c, d = _as_matrix2(matrix)
    if a * d - b * c != 1:
        raise BadDeterminant("lift requires determinant 1")
    if not isinstance(s, GaussianRational):
        s = GaussianRational(s)
    ks = _family_degrees(manifold, family, s, "parameter s")
    n = len(ks)
    top = {3: _base_power(a, b, 3) * (-b)} if family == FAMILY_NONSPLIT else {}
    even = SuperFunction(CHART0, n, {0: _mobius_rf(a, b, c, d), **top})
    shift = RationalFunction.constant(s)
    odds = [
        SuperFunction(CHART0, n, {1 << j: _base_power(a, b, k) + shift})
        for j, k in enumerate(ks)
    ]
    return PullbackData(CHART0, CHART0, even, odds)


def sl2_embedding(manifold, family, matrix, scalar_part=0):
    """Chart-0 vector field attached to a traceless 2x2 matrix A.

    For the ``diagonal`` family an extra scalar parameter extends the image
    by the theta-scaling direction, and the linear map sends commutators to
    super brackets.  ``nonsplit`` (the exact derivative of its lift action)
    is the diagonal field at k = (2, 2) of J A^T J, J = diag(1, -1), plus
    -b theta_1 theta_2 d/dz; A -> J A^T J is an anti-automorphism of sl2, so
    there the map reverses commutators.
    """
    a, b, c, d = _as_matrix2(matrix)
    if a + d != 0:
        raise NotTraceless("embedding requires a traceless matrix")
    if not isinstance(scalar_part, GaussianRational):
        scalar_part = GaussianRational(scalar_part)
    ks = _family_degrees(manifold, family, scalar_part, "scalar part")
    n = len(ks)
    top = {}
    if family == FAMILY_NONSPLIT:
        top = {3: RationalFunction.constant(-b)}
        b, c = -c, -b  # J A^T J, J = diag(1, -1)
    even = SuperFunction(
        CHART0, n, {0: RationalFunction(Polynomial({0: -b, 1: -2 * a, 2: c})), **top}
    )
    odds = [
        SuperFunction(
            CHART0,
            n,
            {1 << j: RationalFunction(Polynomial({0: scalar_part - k * a, 1: k * c}))},
        )
        for j, k in enumerate(ks)
    ]
    return SuperDerivation(CHART0, n, even, odds)


def nilpotent_flow(manifold, field, t):
    """Time-t flow pullback of a nilpotent even field on a chart of the manifold."""
    if field.chart not in (manifold.chart0, manifold.chart1):
        raise ChartMismatch("field does not live on a chart of the manifold")
    if field.odd_dim != manifold.odd_dim:
        raise ChartMismatch("field has the wrong odd dimension")
    return field.exp_pullback(t)
