"""Reference Rothstein factorisation kept as a test oracle.

This is the ``rothstein_decompose`` that ``supervec.derivations`` used before
it carried one recombination from stage to stage, kept verbatim with the two
helpers that changed with it: it recombines the factors at the start of each
stage, again after the stage and once more for the final check, returns
early when the degree-preserving part alone recombines to the pullback, and
eliminates the weight-(d+1) matrix once per odd slice.  The generator is
unique and every slice system has a unique solution, so the library must
return the same parts, or raise the same coded error, on every input.

``invert_degree_zero`` and ``pullback_invert`` are the library's versions
from before each pullback operation had one mechanism, also kept verbatim:
the degree-preserving part is inverted through its composed odd linear
matrix and ``invert_matrix``, and exp(-generator) is applied by composing
with its pullback.  The inverse is unique, so the library must return the
same pullback, or raise the same coded error, on every input.

``parity`` and ``filtration_level`` are ``SuperDerivation``'s methods from
before both gradings were read off the terms theta^nu d_u, kept verbatim with
the two ``SuperFunction`` methods they called: they combine each
coefficient's parity and least Grassmann degree, flipping the parity and
lowering the degree by one in the odd directions.

``SuperDerivation`` is the library's class from before it stored its values
on the coordinates as one tuple, kept verbatim but for its odd-dimension
messages, which name the odd dimensions as the library's do: it holds
``even_coeff`` and ``odd_coeffs`` apart and handles the two in separate
branches.  Its methods
must give equal coefficients, or raise the same error, on every input.  The
factorisation oracles above build the library's derivations, as
``derivations.SuperDerivation``, so that their parts compare with the
library's.
"""

from __future__ import annotations

from operator import add, sub

from supervec import derivations
from supervec.derivations import (
    RothsteinParts,
    _exp_series,
    degree_zero_part,
    odd_linear_matrix,
    recombine,
)
from supervec.errors import (
    ChartMismatch,
    MixedParity,
    NotInvertible,
    NotNilpotent,
    RecombinationMismatch,
    ResidualNotCleared,
    UnsupportedReducedMap,
)
from supervec.grassmann import (
    PullbackData,
    SuperFunction,
    compose,
    idx_sort_key,
    idx_weight,
    weights_parity,
)
from supervec.linalg import determinant, invert_matrix, solve_square
from supervec.scalars import RationalFunction, mobius_inverse


def _reduced_inverse(p):
    inv = mobius_inverse(p.even_image.reduced_part())
    if inv is None:
        raise UnsupportedReducedMap(
            "reduced map must be an invertible fractional-linear function"
        )
    return inv


def rothstein_decompose(p):
    """Split a pullback into degree-preserving part and nilpotent generator.

    The generator lives on the target chart and is solved degree by degree;
    after each stage the residual in that degree is checked to vanish.  The
    odd linear part must be invertible over the rational-function field and
    the reduced even map must be non-constant.
    """
    n = p.odd_dim
    phi0 = degree_zero_part(p)
    rho = phi0.even_image.reduced_part()
    if not rho.derivative():
        raise NotInvertible("reduced even map has vanishing differential")
    mat = odd_linear_matrix(phi0)
    rf_zero, rf_one = RationalFunction.zero(), RationalFunction.one()
    if not determinant(mat, rf_zero, rf_one):
        raise NotInvertible("odd linear part is singular over the rational functions")
    target = p.target_chart
    gen = derivations.SuperDerivation.zero(target, n)
    if p == recombine(RothsteinParts(phi0, gen)):
        return RothsteinParts(phi0, gen)
    rho_inv = _reduced_inverse(p)
    for d in range(2, n + 1, 2):
        cur = recombine(RothsteinParts(phi0, gen))
        delta_even = (p.even_image - cur.even_image).degree_component(d)
        delta_odds = [
            (p.odd_images[j] - cur.odd_images[j]).degree_component(d + 1)
            for j in range(n)
        ]
        if not delta_even and not any(delta_odds):
            continue
        even_add = _solve_degree_slice(phi0, delta_even, d, rho_inv)
        odd_adds = [
            _solve_degree_slice(phi0, delta_odds[j], d + 1, rho_inv) for j in range(n)
        ]
        gen = gen + derivations.SuperDerivation(target, n, even_add, odd_adds)
        cur = recombine(RothsteinParts(phi0, gen))
        residuals = [(p.even_image - cur.even_image, d)]
        residuals += [(p.odd_images[j] - cur.odd_images[j], d + 1) for j in range(n)]
        for residual, weight in residuals:
            if any(idx_weight(i) <= weight for i in residual.terms):
                raise ResidualNotCleared("degree-%d residual survives stage %d" % (weight, d))
    parts = RothsteinParts(phi0, gen)
    if recombine(parts) != p:
        raise RecombinationMismatch("recombined parts differ from the pullback")
    return parts


def _solve_degree_slice(phi0, delta, weight, rho_inv):
    """Find x of pure Grassmann degree ``weight`` on the target chart with
    phi0.apply(x) = delta."""
    n = phi0.odd_dim
    target = phi0.target_chart
    if not delta:
        return SuperFunction.zero(target, n)
    indices = [i for i in range(1 << n) if idx_weight(i) == weight]
    indices.sort(key=idx_sort_key)
    # column nu: coefficients of phi0*(eta^nu) on the source chart
    columns = []
    for nu in indices:
        image = phi0.odd_product(nu)
        columns.append([image.coefficient(mu) for mu in indices])
    matrix = [[columns[c][r] for c in range(len(indices))] for r in range(len(indices))]
    rhs = [delta.coefficient(mu) for mu in indices]
    composed = solve_square(matrix, rhs)
    terms = {}
    for nu, u in zip(indices, composed):
        if u:
            terms[nu] = u.compose(rho_inv)
    return SuperFunction(target, n, terms)


def invert_degree_zero(phi0):
    """Inverse pullback of a degree-preserving automorphism pullback."""
    n = phi0.odd_dim
    rho_inv = _reduced_inverse(phi0)
    mat = odd_linear_matrix(phi0)
    composed = [[entry.compose(rho_inv) for entry in row] for row in mat]
    rf_zero, rf_one = RationalFunction.zero(), RationalFunction.one()
    inv = invert_matrix(composed, rf_zero, rf_one)
    source, target = phi0.source_chart, phi0.target_chart
    even = SuperFunction.from_rf(target, n, rho_inv)
    odds = []
    for k in range(n):
        terms = {}
        for j in range(n):
            if inv[k][j]:
                terms[1 << j] = inv[k][j]
        odds.append(SuperFunction(target, n, terms))
    return PullbackData(target, source, even, odds)


def pullback_invert(p):
    """Exact inverse of an automorphism pullback.

    Factors p through :func:`rothstein_decompose`; the inverse is the inverse
    of the degree-preserving part composed after exp(-generator).  Restricted
    to reduced maps with a closed-form inverse (fractional-linear, which
    includes 1/z).
    """
    parts = rothstein_decompose(p)
    phi0_inv = invert_degree_zero(parts.degree_zero)
    gen = parts.nilpotent_generator
    if not gen:
        return phi0_inv
    return compose(phi0_inv, (-gen).exp_pullback(1))


def _function_parity(f):
    """0 or 1 for parity-homogeneous values (zero counts as even), None if mixed."""
    if not f.terms:
        return 0
    parities = {idx.bit_count() & 1 for idx in f.terms}
    if len(parities) == 1:
        return parities.pop()
    return None


def _min_weight(f):
    """Smallest Grassmann degree present; odd_dim + 1 for the zero function."""
    if not f.terms:
        return f.odd_dim + 1
    return min(idx.bit_count() for idx in f.terms)


def parity(x):
    """0 (even), 1 (odd), or None for mixed; the zero field counts as even."""
    seen = set()
    p = _function_parity(x.even_coeff)
    if x.even_coeff:
        if p is None:
            return None
        seen.add(p)
    for c in x.odd_coeffs:
        if c:
            p = _function_parity(c)
            if p is None:
                return None
            seen.add((p + 1) % 2)
    if not seen:
        return 0
    if len(seen) == 1:
        return seen.pop()
    return None


def filtration_level(x):
    """Largest k such that the field raises Grassmann degree by k.

    The even coefficient must have degree >= k and every odd coefficient
    degree >= k + 1; the zero derivation sits at the top level n + 1.
    """
    if parity(x) is None:
        raise MixedParity("filtration level requires parity-homogeneous derivations")
    top = x.odd_dim + 1
    level = _min_weight(x.even_coeff) if x.even_coeff else top + 1
    for c in x.odd_coeffs:
        cur = (_min_weight(c) - 1) if c else top + 1
        if cur < level:
            level = cur
    return min(level, top)


class SuperDerivation:
    """Super vector field on a single chart."""

    __slots__ = ("chart", "odd_dim", "even_coeff", "odd_coeffs")

    def __init__(self, chart, odd_dim, even_coeff, odd_coeffs):
        odd_coeffs = tuple(odd_coeffs)
        if even_coeff.chart != chart or even_coeff.odd_dim != odd_dim:
            raise ChartMismatch("even coefficient on wrong chart")
        if len(odd_coeffs) != odd_dim:
            raise ValueError("expected %d odd coefficients" % odd_dim)
        for c in odd_coeffs:
            if c.chart != chart or c.odd_dim != odd_dim:
                raise ChartMismatch("odd coefficient on wrong chart")
        self.chart = chart
        self.odd_dim = odd_dim
        self.even_coeff = even_coeff
        self.odd_coeffs = odd_coeffs

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
        return bool(self.even_coeff) or any(self.odd_coeffs)

    def __eq__(self, other):
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.odd_dim == other.odd_dim
            and self.even_coeff == other.even_coeff
            and self.odd_coeffs == other.odd_coeffs
        )

    def __hash__(self):
        return hash((self.chart, self.odd_dim, self.even_coeff, self.odd_coeffs))

    def _shifts(self):
        """|nu| - (u > 0) for each term theta^nu d_u: the degree it raises by, and its
        parity, which is that of |nu| + (u > 0)."""
        for u, c in enumerate((self.even_coeff,) + self.odd_coeffs):
            for idx in c.terms:
                yield idx.bit_count() - (u > 0)

    def parity(self):
        """0 (even), 1 (odd), or None for mixed; the zero field counts as even."""
        return weights_parity(self._shifts())

    def __add__(self, other):
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        return SuperDerivation(
            self.chart,
            self.odd_dim,
            self.even_coeff + other.even_coeff,
            [a + b for a, b in zip(self.odd_coeffs, other.odd_coeffs)],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SuperDerivation(
            self.chart, self.odd_dim, -self.even_coeff, [-c for c in self.odd_coeffs]
        )

    def scale(self, c):
        return SuperDerivation(
            self.chart,
            self.odd_dim,
            self.even_coeff.scale(c),
            [x.scale(c) for x in self.odd_coeffs],
        )

    # -- action -------------------------------------------------------------

    def apply(self, f):
        if f.chart != self.chart:
            raise ChartMismatch("function on %r, derivation on %r" % (f.chart, self.chart))
        if f.odd_dim != self.odd_dim:
            raise ChartMismatch("function of odd dimension %d, derivation of odd dimension %d"
                                % (f.odd_dim, self.odd_dim))
        out = SuperFunction.zero(self.chart, self.odd_dim)
        if self.even_coeff:
            d = f.d_even()
            if d:
                out = out + self.even_coeff * d
        for j, c in enumerate(self.odd_coeffs):
            if c:
                d = f.d_odd(j)
                if d:
                    out = out + c * d
        return out

    __call__ = apply

    def bracket(self, other):
        """Super bracket [X, Y] = X Y - (-1)^{|X||Y|} Y X.

        A field is its values on the coordinates z, t_j, and those values are
        its coefficients, so the coefficients of [X, Y] are X(Y_u) - s Y(X_u)
        for u the even coefficient and each odd one, with s = (-1)^{|X||Y|}:
        a sum when both fields are odd, else a difference.
        """
        if other.chart != self.chart:
            raise ChartMismatch("bracket of derivations on different charts")
        if other.odd_dim != self.odd_dim:
            raise ChartMismatch("bracket of derivations of odd dimensions %d and %d"
                                % (self.odd_dim, other.odd_dim))
        px = self.parity()
        py = other.parity()
        if px is None or py is None:
            raise MixedParity("bracket requires parity-homogeneous derivations")
        combine = add if (px and py) else sub
        xs = (self.even_coeff,) + self.odd_coeffs
        ys = (other.even_coeff,) + other.odd_coeffs
        coeffs = [combine(self.apply(y), other.apply(x)) for x, y in zip(xs, ys)]
        return SuperDerivation(self.chart, self.odd_dim, coeffs[0], coeffs[1:])

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
        n = self.odd_dim
        coords = [SuperFunction.coordinate(self.chart, n)]
        coords += [SuperFunction.odd_var(self.chart, n, j) for j in range(n)]
        images = [_exp_series(self, u, scale) for u in coords]
        return PullbackData(self.chart, self.chart, images[0], images[1:])

    def __repr__(self):
        return "SuperDerivation(%r, even=%r, odd=%r)" % (
            self.chart,
            self.even_coeff,
            list(self.odd_coeffs),
        )
