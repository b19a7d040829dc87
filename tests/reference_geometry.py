"""Reference globality check kept as a test oracle.

``morphism_check_global`` is the check that ``supervec.geometry`` used before
it read a pole off a denominator's value, kept verbatim: it inverts the
transition before any test, finds each chart-0 coefficient's poles by
repeated division by (z - pole), and composes ``chi`` with ``p`` once for the
pole and again for the test at infinity.  ``pole_order_at`` and
``root_multiplicity`` are the ``RationalFunction`` and ``Polynomial`` methods
it called, kept verbatim as module functions.  The library must give the
same verdict, or raise the same error class, on every input.
"""

from __future__ import annotations

from supervec.derivations import pullback_invert
from supervec.errors import ChartMismatch
from supervec.geometry import CHART0, KIND_C01, POINT_CHART, _coeffs_of
from supervec.grassmann import SuperFunction, compose
from supervec.scalars import GR_ONE, GR_ZERO, Polynomial, _as_gaussian, mobius_coefficients


def root_multiplicity(poly, point):
    if poly.is_zero():
        raise ValueError("every point is a root of the zero polynomial")
    linear = Polynomial({1: GR_ONE, 0: -_as_gaussian(point)})
    mult = 0
    p = poly
    while True:
        q, r = divmod(p, linear)
        if r.is_zero():
            mult += 1
            p = q
        else:
            return mult


def pole_order_at(rf, point):
    den_mult = root_multiplicity(rf.den, point)
    if rf.num.is_zero():
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
