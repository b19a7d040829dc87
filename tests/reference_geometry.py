"""Reference globality check kept as a test oracle.

``morphism_check_global`` is the check that ``supervec.geometry`` used before
it read a pole off a denominator's value, kept verbatim: it inverts the
transition before any test, finds each chart-0 coefficient's poles by
repeated division by (z - pole), and composes ``chi`` with ``p`` once for the
pole and again for the test at infinity.  ``pole_order_at`` and
``root_multiplicity`` are the ``RationalFunction`` and ``Polynomial`` methods
it called, kept verbatim as module functions.  The library must give the
same verdict, or raise the same error class, on every input.

``mobius_lift`` and ``sl2_embedding`` are the family constructors from before
the non-split family was read as the diagonal k = (2, 2) family plus its
theta_1 theta_2 term, kept verbatim with the helpers they called: each family
is written out in full, and ``_require_nonsplit`` checks the non-split
manifold.  The library must give equal values, or raise the same error class
with the same message, on every input.
"""

from __future__ import annotations

from supervec.derivations import SuperDerivation, pullback_invert
from supervec.errors import BadDeterminant, ChartMismatch, FamilyShapeMismatch, NotTraceless
from supervec.geometry import (
    CHART0,
    FAMILY_DIAGONAL,
    FAMILY_NONSPLIT,
    KIND_C01,
    KIND_P1,
    POINT_CHART,
    _coeffs_of,
    nonsplit_transition,
)
from supervec.grassmann import PullbackData, SuperFunction, compose
from supervec.scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Polynomial,
    RationalFunction,
    _as_gaussian,
    mobius_coefficients,
)


def root_multiplicity(poly, point):
    if not poly:
        raise ValueError("every point is a root of the zero polynomial")
    linear = Polynomial({1: GR_ONE, 0: -_as_gaussian(point)})
    mult = 0
    p = poly
    while True:
        q, r = divmod(p, linear)
        if not r:
            mult += 1
            p = q
        else:
            return mult


def pole_order_at(rf, point):
    den_mult = root_multiplicity(rf.den, point)
    if not rf.num:
        return 0
    num_mult = root_multiplicity(rf.num, point)
    return max(0, den_mult - num_mult)


def _holomorphic_at(pullback, point):
    return all(pole_order_at(rf, point) == 0 for rf in _coeffs_of(pullback))


def morphism_check_global(manifold, p):
    """Classify a chart-0 self-pullback as "global" or "chart0_only".

    The morphism is global when, around every point of the manifold, some
    chart representation of it has pole-free coefficients: chart 0 away from
    the reduced map's pole, the mixed representations at the pole and at
    infinity.  The chart-1 representation is obtained by conjugating with
    the transition (inverting it in closed form).
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
    mu = p.even_image.reduced_part()
    coeffs = mobius_coefficients(mu)
    if coeffs is None:
        return "chart0_only"
    _, _, gamma, delta = coeffs
    chi = manifold.transition
    chi_inv = pullback_invert(chi)
    pole = -delta / gamma if gamma else None
    # chart-0 coefficients may only blow up where the reduced map leaves chart 0
    for rf in _coeffs_of(p):
        den = rf.den
        if den.degree() > 0:
            if pole is None:
                return "chart0_only"
            root_mult = root_multiplicity(den, pole)
            if root_mult < den.degree():
                return "chart0_only"
    # where the reduced map hits infinity, the into-chart-1 representation must hold
    if pole is not None:
        into1 = compose(chi, p)
        if not _holomorphic_at(into1, pole):
            return "chart0_only"
    # behaviour at infinity: either the reduced map fixes it (conjugate view)
    # or sends it to a finite point (mixed view from chart 1)
    if pole is None:
        conj = compose(compose(chi, p), chi_inv)
        if not _holomorphic_at(conj, GR_ZERO):
            return "chart0_only"
    else:
        from1 = compose(p, chi_inv)
        if not _holomorphic_at(from1, GR_ZERO):
            return "chart0_only"
    return "global"


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


def _require_nonsplit(manifold):
    if manifold.kind != KIND_P1 or manifold.transition != nonsplit_transition():
        raise FamilyShapeMismatch("family needs the bundled non-split (1|2) manifold")


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

    Pullbacks act on chart-0 coordinates by the displayed closed forms of
    the family; ``s`` is the extra scaling parameter of the ``diagonal``
    family (the image of every theta_j gains ``+ s * theta_j``).
    """
    a, b, c, d = _as_matrix2(matrix)
    if a * d - b * c != 1:
        raise BadDeterminant("lift requires determinant 1")
    if not isinstance(s, GaussianRational):
        s = GaussianRational(s)
    if family == FAMILY_DIAGONAL:
        ks = _diagonal_degrees(manifold)
        n = len(ks)
        even = SuperFunction.from_rf(CHART0, n, _mobius_rf(a, b, c, d))
        shift = RationalFunction.constant(s)
        odds = [
            SuperFunction(CHART0, n, {1 << j: _base_power(a, b, k) + shift})
            for j, k in enumerate(ks)
        ]
        return PullbackData(CHART0, CHART0, even, odds)
    if s:
        raise FamilyShapeMismatch("parameter s applies to the diagonal family only")
    if family == FAMILY_NONSPLIT:
        _require_nonsplit(manifold)
        correction = _base_power(a, b, 3) * (-b)
        even = SuperFunction(CHART0, 2, {0: _mobius_rf(a, b, c, d), 3: correction})
        sq = _base_power(a, b, 2)
        odds = [
            SuperFunction(CHART0, 2, {1: sq}),
            SuperFunction(CHART0, 2, {2: sq}),
        ]
        return PullbackData(CHART0, CHART0, even, odds)
    raise FamilyShapeMismatch("unknown family %r" % (family,))


def sl2_embedding(manifold, family, matrix, scalar_part=0):
    """Chart-0 vector field attached to a traceless 2x2 matrix.

    For the ``diagonal`` family an extra scalar parameter extends the image
    by the theta-scaling direction.  The map is linear; for ``diagonal`` it
    sends matrix commutators to super brackets, for ``nonsplit`` (the exact
    derivative of its lift action) it reverses their order.
    """
    a, b, c, d = _as_matrix2(matrix)
    if a + d != 0:
        raise NotTraceless("embedding requires a traceless matrix")
    if not isinstance(scalar_part, GaussianRational):
        scalar_part = GaussianRational(scalar_part)
    if family == FAMILY_DIAGONAL:
        ks = _diagonal_degrees(manifold)
        n = len(ks)
        even = SuperFunction.from_rf(
            CHART0, n, RationalFunction(Polynomial({0: -b, 1: -2 * a, 2: c}))
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
    if scalar_part:
        raise FamilyShapeMismatch("scalar part applies to the diagonal family only")
    if family == FAMILY_NONSPLIT:
        _require_nonsplit(manifold)
        even = SuperFunction(
            CHART0,
            2,
            {
                0: RationalFunction(Polynomial({0: c, 1: -2 * a, 2: -b})),
                3: RationalFunction.constant(-b),
            },
        )
        scalefun = RationalFunction(Polynomial({0: -2 * a, 1: -2 * b}))
        odds = [
            SuperFunction(CHART0, 2, {1: scalefun}),
            SuperFunction(CHART0, 2, {2: scalefun}),
        ]
        return SuperDerivation(CHART0, 2, even, odds)
    raise FamilyShapeMismatch("unknown family %r" % (family,))
