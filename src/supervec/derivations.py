"""Super vector fields on a chart.

A superderivation is determined by its coefficients: one superfunction for
the even-coordinate direction and one per odd direction.  Odd-coordinate
differentiation uses the left-derivative sign convention (the sign is the
parity of the index prefix), matching :meth:`SuperFunction.d_odd`.

This module also factors automorphism pullbacks into a degree-preserving
part composed with the exponential of a nilpotent even derivation (Rothstein
stages d = 2, 4, ...: one recombination and one elimination per slice weight
each), and inverts pullbacks whose reduced map is fractional linear: the
degree-preserving part by the weight-1 slice solve, exp(X) by its series.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, sub

from .errors import (
    ChartMismatch,
    MixedParity,
    NotInvertible,
    NotNilpotent,
    RecombinationMismatch,
    ResidualNotCleared,
    UnsupportedReducedMap,
)
from .grassmann import PullbackData, SuperFunction, compose, idx_weight, weights_parity
from .linalg import rank, solve_columns
from .scalars import GaussianRational, mobius_inverse


class SuperDerivation:
    """Super vector field on a single chart.

    ``coeffs`` holds its values on the coordinates, indexed like them: 0 for
    d/dz, j for d/dtheta_j.
    """

    __slots__ = ("chart", "odd_dim", "coeffs")

    def __init__(self, chart, odd_dim, even_coeff, odd_coeffs):
        coeffs = (even_coeff, *odd_coeffs)
        if even_coeff.chart != chart or even_coeff.odd_dim != odd_dim:
            raise ChartMismatch("even coefficient on wrong chart")
        if len(coeffs) != odd_dim + 1:
            raise ValueError("expected %d odd coefficients" % odd_dim)
        for c in coeffs[1:]:
            if c.chart != chart or c.odd_dim != odd_dim:
                raise ChartMismatch("odd coefficient on wrong chart")
        self.chart = chart
        self.odd_dim = odd_dim
        self.coeffs = coeffs

    @property
    def even_coeff(self):
        return self.coeffs[0]

    @property
    def odd_coeffs(self):
        return self.coeffs[1:]

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, chart, odd_dim):
        z = SuperFunction.zero(chart, odd_dim)
        return cls(chart, odd_dim, z, [z] * odd_dim)

    @classmethod
    def d_even(cls, chart, odd_dim):
        z = SuperFunction.zero(chart, odd_dim)
        return cls(chart, odd_dim, SuperFunction.one(chart, odd_dim), [z] * odd_dim)

    @classmethod
    def d_odd(cls, chart, odd_dim, j):
        z = SuperFunction.zero(chart, odd_dim)
        coeffs = [z] * odd_dim
        coeffs[j] = SuperFunction.one(chart, odd_dim)
        return cls(chart, odd_dim, z, coeffs)

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        return (self.chart, self.odd_dim, self.coeffs) == (other.chart, other.odd_dim, other.coeffs)

    def __hash__(self):
        return hash((self.chart, self.odd_dim, self.coeffs))

    def _shifts(self):
        """|nu| - (u > 0) for each term theta^nu d_u: the degree it raises by, and its
        parity, which is that of |nu| + (u > 0)."""
        for u, c in enumerate(self.coeffs):
            for idx in c.terms:
                yield idx.bit_count() - (u > 0)

    def parity(self):
        """0 (even), 1 (odd), or None for mixed; the zero field counts as even."""
        return weights_parity(self._shifts())

    def __add__(self, other):
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        even, *odds = (a + b for a, b in zip(self.coeffs, other.coeffs))
        return SuperDerivation(self.chart, self.odd_dim, even, odds)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        even, *odds = (-c for c in self.coeffs)
        return SuperDerivation(self.chart, self.odd_dim, even, odds)

    def scale(self, c):
        even, *odds = (x.scale(c) for x in self.coeffs)
        return SuperDerivation(self.chart, self.odd_dim, even, odds)

    # -- action -------------------------------------------------------------

    def apply(self, f):
        if f.chart != self.chart or f.odd_dim != self.odd_dim:
            raise ChartMismatch("function on %r, derivation on %r" % (f.chart, self.chart))
        out = SuperFunction.zero(self.chart, self.odd_dim)
        for u, c in enumerate(self.coeffs):
            if c:
                d = f.d_odd(u - 1) if u else f.d_even()
                if d:
                    out = out + c * d
        return out

    def bracket(self, other):
        """Super bracket [X, Y] = X Y - (-1)^{|X||Y|} Y X.

        A field is its values on the coordinates z, t_j, and those values are
        its coefficients, so the coefficients of [X, Y] are X(Y_u) - s Y(X_u)
        for each coordinate u, with s = (-1)^{|X||Y|}: a sum when both fields
        are odd, else a difference.
        """
        if other.chart != self.chart or other.odd_dim != self.odd_dim:
            raise ChartMismatch("bracket of derivations on different charts")
        px = self.parity()
        py = other.parity()
        if px is None or py is None:
            raise MixedParity("bracket requires parity-homogeneous derivations")
        combine = add if (px and py) else sub
        pairs = zip(self.coeffs, other.coeffs)
        even, *odds = (combine(self.apply(y), other.apply(x)) for x, y in pairs)
        return SuperDerivation(self.chart, self.odd_dim, even, odds)

    def filtration_level(self):
        """Largest k such that the field raises Grassmann degree by k.

        The even coefficient must have degree >= k and every odd coefficient
        degree >= k + 1; the zero derivation sits at the top level n + 1.
        """
        if self.parity() is None:
            raise MixedParity("filtration level requires parity-homogeneous derivations")
        return min(self._shifts(), default=self.odd_dim + 1)

    def exp_pullback(self, scale=1):
        """Pullback of exp(scale * X) for a nilpotent even field X.

        Requires filtration level >= 2, which makes every coordinate series
        terminate after at most odd_dim // 2 + 1 terms of :func:`_exp_series`.
        """
        if self.parity() != 0:
            raise NotNilpotent("exponential requires an even derivation")
        if self and self.filtration_level() < 2:
            raise NotNilpotent("exponential requires filtration level >= 2")
        coords = PullbackData.identity(self.chart, self.odd_dim).images
        even, *odds = (_exp_series(self, u, scale) for u in coords)
        return PullbackData(self.chart, self.chart, even, odds)

    def __repr__(self):
        return "SuperDerivation(%r, even=%r, odd=%r)" % (
            self.chart,
            self.even_coeff,
            list(self.odd_coeffs),
        )


def bracket(x, y):
    return x.bracket(y)


def _exp_series(field, f, scale=1):
    """exp(scale * X) applied to f: the sum over k of (scale * X)^k f / k!."""
    if not isinstance(scale, GaussianRational):
        scale = GaussianRational(scale)
    acc = term = f
    for k in range(1, field.odd_dim + 3):
        term = field.apply(term)
        if not term:
            return acc
        term = term.scale(scale / k)
        acc = acc + term
    raise NotNilpotent("exponential series did not terminate")


class RothsteinParts(namedtuple("RothsteinParts", "degree_zero nilpotent_generator")):
    """Factorization of an automorphism pullback.

    ``degree_zero`` preserves Grassmann degree (reduced even image plus the
    linear part of the odd images); ``nilpotent_generator`` is an even
    derivation on the target chart raising degree by at least 2.  The
    original pullback is recovered by :func:`recombine`.
    """

    __slots__ = ()


def recombine(parts):
    """Pullback equal to (degree-zero part) following exp(generator)."""
    return compose(parts.nilpotent_generator.exp_pullback(1), parts.degree_zero)


def degree_zero_part(p):
    """Truncate a pullback to its Grassmann-degree-preserving part."""
    even, *odds = (img.degree_component(u > 0) for u, img in enumerate(p.images))
    return PullbackData(p.source_chart, p.target_chart, even, odds)


def odd_linear_matrix(p):
    """Matrix m[j][k] with image(theta_j) = sum_k m[j][k] * theta_k + higher terms."""
    return [[img.coefficient(1 << k) for k in range(p.odd_dim)] for img in p.odd_images]


def _reduced_inverse(p):
    inv = mobius_inverse(p.even_image.reduced_part())
    if inv is None:
        raise UnsupportedReducedMap(
            "reduced map must be an invertible fractional-linear function"
        )
    return inv


def rothstein_decompose(p):
    """Split a pullback into degree-preserving part and nilpotent generator.

    The generator lives on the target chart and is solved degree by degree.
    The factors are recombined once before the stages and once after each
    stage with a nonzero slice; that residual p - cur is checked to vanish up
    to the stage's degree and gives the next stage its slices.  The odd linear
    part must be invertible over the rational-function field and the reduced
    even map must be non-constant; the reduced map needs a fractional-linear
    inverse only when some slice is nonzero.
    """
    n = p.odd_dim
    phi0 = degree_zero_part(p)
    rho = phi0.even_image.reduced_part()
    if not rho.derivative():
        raise NotInvertible("reduced even map has vanishing differential")
    if rank(odd_linear_matrix(phi0)) < n:
        raise NotInvertible("odd linear part is singular over the rational functions")
    target = p.target_chart
    gen = SuperDerivation.zero(target, n)
    cur = recombine(RothsteinParts(phi0, gen))
    residuals = [a - b for a, b in zip(p.images, cur.images)]
    rho_inv = None
    for d in range(2, n + 1, 2):
        even_slice = residuals[0].degree_component(d)
        odd_slices = [r.degree_component(d + 1) for r in residuals[1:]]
        if not even_slice and not any(odd_slices):
            continue
        if rho_inv is None:
            rho_inv = _reduced_inverse(p)
        [even_add] = _solve_degree_slices(phi0, [even_slice], d, rho_inv)
        odd_adds = _solve_degree_slices(phi0, odd_slices, d + 1, rho_inv)
        gen = gen + SuperDerivation(target, n, even_add, odd_adds)
        cur = recombine(RothsteinParts(phi0, gen))
        residuals = [a - b for a, b in zip(p.images, cur.images)]
        for residual, weight in zip(residuals, [d] + [d + 1] * n):
            if any(idx_weight(i) <= weight for i in residual.terms):
                raise ResidualNotCleared("degree-%d residual survives stage %d" % (weight, d))
    if cur != p:
        raise RecombinationMismatch("recombined parts differ from the pullback")
    return RothsteinParts(phi0, gen)


def _solve_degree_slices(phi0, slices, weight, rho_inv):
    """For each slice delta, the x of pure Grassmann degree ``weight`` on the
    target chart with phi0.apply(x) = delta; one elimination serves them all."""
    n = phi0.odd_dim
    target = phi0.target_chart
    if not any(slices):
        return [SuperFunction.zero(target, n)] * len(slices)
    indices = [i for i in range(1 << n) if idx_weight(i) == weight]
    images = [phi0.odd_product(nu) for nu in indices]
    # row mu, column nu: coefficient of theta^mu in phi0*(eta^nu)
    matrix = [[image.coefficient(mu) for image in images] for mu in indices]
    rhs = [[delta.coefficient(mu) for mu in indices] for delta in slices]
    return [
        SuperFunction(target, n, {nu: u.compose(rho_inv) for nu, u in zip(indices, x) if u})
        for x in solve_columns(matrix, rhs)
    ]


def invert_degree_zero(phi0):
    """Inverse of a degree-preserving automorphism pullback: the image of t_k
    is the weight-1 slice solve for the x_k with phi0.apply(x_k) = t_k."""
    n = phi0.odd_dim
    rho_inv = _reduced_inverse(phi0)
    source, target = phi0.source_chart, phi0.target_chart
    units = [SuperFunction.odd_var(source, n, k) for k in range(n)]
    odds = _solve_degree_slices(phi0, units, 1, rho_inv)
    return PullbackData(target, source, SuperFunction.from_rf(target, n, rho_inv), odds)


def pullback_invert(p):
    """Exact inverse of an automorphism pullback.

    Factors p through :func:`rothstein_decompose`; the inverse applies the
    series of exp(-generator) to each image of the degree-preserving inverse.
    Restricted to reduced maps with a closed-form inverse (fractional-linear,
    which includes 1/z).
    """
    parts = rothstein_decompose(p)
    phi0_inv = invert_degree_zero(parts.degree_zero)
    neg = -parts.nilpotent_generator
    even, *odds = (_exp_series(neg, f) for f in phi0_inv.images)
    return PullbackData(phi0_inv.source_chart, phi0_inv.target_chart, even, odds)
