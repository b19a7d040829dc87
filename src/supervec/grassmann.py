"""Grassmann-valued functions on a chart and morphism pullbacks.

A chart of a (1|n) supermanifold has one even coordinate and n odd
(anticommuting) coordinates.  Functions are finite sums

    f = sum_nu  f_nu(z) theta^nu

indexed by odd multi-indices nu in {0,1}^n, with rational-function
coefficients.  Multi-indices are stored as int bitmasks (bit j set means the
ordered factor theta_{j+1} is present); ``theta^nu`` always means the product
in increasing index order, and all signs are transposition counts relative to
that order.  A function's terms carry no order: equality and hashing read
them as a map, and printing (``expressions.superfunction_text``) sorts them
by ``idx_sort_key``.

``PullbackData`` holds the coordinate images of a morphism between charts, as
one tuple numbered like the coordinates (0 for z, j for theta_j), and applies
it to functions by finite Taylor expansion in the nilpotent part g of
the even image: each power g^k is kept with its 1/k!, and the series
terminates because the powers of g eventually vanish.
"""

from __future__ import annotations

from .errors import ChartMismatch, MixedParity
from .scalars import Fraction, GaussianRational, RationalFunction

# ---------------------------------------------------------------------------
# odd multi-indices as bitmasks


def idx_weight(idx):
    """Number of odd factors in theta^idx."""
    return idx.bit_count()


def weights_parity(weights):
    """Parity shared by all the weights: 0 when there are none, None when they differ."""
    parities = {w & 1 for w in weights}
    if len(parities) > 1:
        return None
    return parities.pop() if parities else 0


def idx_positions(idx):
    """0-based positions of the factors, ascending."""
    out = []
    j = 0
    while idx:
        if idx & 1:
            out.append(j)
        idx >>= 1
        j += 1
    return out


def idx_mul(a, b):
    """Merge two ordered products: (sign, index), sign 0 when they collide."""
    if a & b:
        return 0, 0
    inversions = 0
    rest = b
    j = 0
    while rest:
        if rest & 1:
            inversions += (a >> (j + 1)).bit_count()
        rest >>= 1
        j += 1
    return (-1 if inversions & 1 else 1), a | b


def idx_products(n):
    """The table ``[a][b] == idx_mul(a, b)`` over the multi-indices a, b < 2^n;
    only the 3^n pairs that do not collide, the submasks b of ~a, are merged."""
    table = [[(0, 0)] * (1 << n) for _ in range(1 << n)]
    for a, row in enumerate(table):
        row[0] = (1, a)
        free = b = ~a & ((1 << n) - 1)
        while b:
            row[b] = idx_mul(a, b)
            b = (b - 1) & free
    return table


def idx_sort_key(idx):
    """Print order of multi-indices: by weight, then by bitmask."""
    return (idx.bit_count(), idx)


# ---------------------------------------------------------------------------


class SuperFunction:
    """Grassmann-valued function on a chart: multi-index -> coefficient map."""

    __slots__ = ("chart", "odd_dim", "terms")

    def __init__(self, chart, odd_dim, terms=None):
        clean = {}
        if terms:
            for idx, c in terms.items():
                if idx < 0 or idx >= (1 << odd_dim):
                    raise ValueError("multi-index out of range for odd dimension %d" % odd_dim)
                if not isinstance(c, RationalFunction):
                    c = RationalFunction.constant(c)
                if c:
                    clean[idx] = c
        self.chart = chart
        self.odd_dim = odd_dim
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, chart, odd_dim):
        return cls(chart, odd_dim)

    @classmethod
    def one(cls, chart, odd_dim):
        return cls(chart, odd_dim, {0: RationalFunction.one()})

    @classmethod
    def from_rf(cls, chart, odd_dim, rf):
        return cls(chart, odd_dim, {0: rf})

    @classmethod
    def coordinate(cls, chart, odd_dim):
        """The even coordinate of the chart."""
        return cls(chart, odd_dim, {0: RationalFunction.z()})

    @classmethod
    def odd_var(cls, chart, odd_dim, j):
        """The j-th odd coordinate (0-based)."""
        if not 0 <= j < odd_dim:
            raise ValueError("odd index out of range")
        return cls(chart, odd_dim, {1 << j: RationalFunction.one()})

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, idx):
        return self.terms.get(idx, RationalFunction.zero())

    def reduced_part(self):
        """Coefficient of the empty multi-index, as a rational function."""
        return self.terms.get(0, RationalFunction.zero())

    def nilpotent_part(self):
        return self._select(lambda idx: idx != 0)

    def degree_component(self, k):
        """Terms of exact Grassmann degree k."""
        return self._select(lambda idx: idx.bit_count() == k)

    def _select(self, keep):
        return _raw_sf(self.chart, self.odd_dim, {i: c for i, c in self.terms.items() if keep(i)})

    def parity(self):
        """0 or 1 for parity-homogeneous values (zero counts as even), None if mixed."""
        return weights_parity(idx.bit_count() for idx in self.terms)

    def __eq__(self, other):
        if not isinstance(other, SuperFunction):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.odd_dim == other.odd_dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.chart, self.odd_dim, frozenset(self.terms.items())))

    # -- algebra ------------------------------------------------------------

    def _check_mate(self, other):
        if self.chart != other.chart:
            raise ChartMismatch(
                "cannot combine functions on %r and %r" % (self.chart, other.chart)
            )
        if self.odd_dim != other.odd_dim:
            raise ChartMismatch("cannot combine functions of odd dimension %d and %d"
                                % (self.odd_dim, other.odd_dim))

    def __add__(self, other):
        other = self._coerce(other)
        self._check_mate(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            s = out.get(idx)
            s = c if s is None else s + c
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
        return _raw_sf(self.chart, self.odd_dim, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _raw_sf(self.chart, self.odd_dim, {i: -c for i, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (RationalFunction, GaussianRational, int, Fraction)):
            return self.scale(other)
        self._check_mate(other)
        out = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                sign, idx = idx_mul(ia, ib)
                if sign == 0:
                    continue
                term = ca * cb
                if sign < 0:
                    term = -term
                s = out.get(idx)
                s = term if s is None else s + term
                if s:
                    out[idx] = s
                else:
                    out.pop(idx, None)
        return _raw_sf(self.chart, self.odd_dim, out)

    def __rmul__(self, other):
        # scalars commute with everything
        return self.scale(other)

    def scale(self, c):
        if not isinstance(c, RationalFunction):
            c = RationalFunction.constant(c)
        if not c:
            return _raw_sf(self.chart, self.odd_dim, {})
        return _raw_sf(self.chart, self.odd_dim, {i: c0 * c for i, c0 in self.terms.items()})

    def _coerce(self, value):
        if isinstance(value, SuperFunction):
            return value
        if isinstance(value, (RationalFunction, GaussianRational, int, Fraction)):
            return SuperFunction.from_rf(self.chart, self.odd_dim, value)
        raise TypeError("cannot combine SuperFunction with %r" % type(value))

    def d_even(self):
        """Derivative along the even coordinate, term by term."""
        terms = {i: d for i, c in self.terms.items() if (d := c.derivative())}
        return _raw_sf(self.chart, self.odd_dim, terms)

    def d_odd(self, j):
        """Left derivative along the j-th odd coordinate (0-based)."""
        bit = 1 << j
        out = {}
        for idx, c in self.terms.items():
            if not idx & bit:
                continue
            before = (idx & (bit - 1)).bit_count()
            out[idx ^ bit] = -c if before & 1 else c
        return _raw_sf(self.chart, self.odd_dim, out)

    def __repr__(self):
        if not self.terms:
            return "SuperFunction(%r, 0)" % (self.chart,)
        bits = ", ".join("%d: %r" % (i, c) for i, c in self.terms.items())
        return "SuperFunction(%r, {%s})" % (self.chart, bits)


def _raw_sf(chart, odd_dim, terms):
    sf = SuperFunction.__new__(SuperFunction)
    sf.chart = chart
    sf.odd_dim = odd_dim
    sf.terms = terms
    return sf


class PullbackData:
    """Coordinate images of a morphism between charts.

    A morphism from the ``source`` chart to the ``target`` chart pulls
    functions back the other way: ``apply`` takes a function written in
    target coordinates and returns its expression in source coordinates.
    The data are the images of the target coordinates, all living on the
    source chart, kept as one tuple ``images`` numbered like the coordinates:
    0 for the even coordinate, whose image is pure even, and j for theta_j,
    whose image is pure odd.  ``even_image`` and ``odd_images`` are read-only
    views of it.  The Taylor plan (``_products``, the odd products by idx, and
    ``_taylor``, the reduced even image with the nilpotent powers
    ``g_nil^k / k!``) is filled on first use and never read by ``==`` or
    ``hash``; the images never change after ``__init__``.  So is ``_laurent``,
    where ``geometry`` keeps a transition's Laurent plan, read by both the
    compatibility rows and the globality check.
    """

    __slots__ = ("source_chart", "target_chart", "odd_dim", "images",
                 "_products", "_taylor", "_laurent")

    def __init__(self, source_chart, target_chart, even_image, odd_images):
        images = (even_image,) + tuple(odd_images)
        n = even_image.odd_dim
        if len(images) != n + 1:
            raise ValueError("expected %d odd coordinate images" % n)
        for u, img in enumerate(images):
            if img.chart != source_chart or img.odd_dim != n:
                raise ChartMismatch(
                    "odd image on wrong chart" if u else "even image must live on the source chart")
            if img and img.parity() != (u > 0):
                kind = "odd" if u else "even"
                raise MixedParity("%s coordinate image must be pure %s" % (kind, kind))
        self.source_chart = source_chart
        self.target_chart = target_chart
        self.odd_dim = n
        self.images = images
        self._products = {0: SuperFunction.one(source_chart, n)}
        self._taylor = self._laurent = None

    @property
    def even_image(self):
        return self.images[0]

    @property
    def odd_images(self):
        return self.images[1:]

    @classmethod
    def identity(cls, chart, odd_dim):
        return cls(
            chart,
            chart,
            SuperFunction.coordinate(chart, odd_dim),
            [SuperFunction.odd_var(chart, odd_dim, j) for j in range(odd_dim)],
        )

    def __eq__(self, other):
        if not isinstance(other, PullbackData):
            return NotImplemented
        return (self.source_chart, self.target_chart, self.images) == (
            other.source_chart, other.target_chart, other.images)

    def __hash__(self):
        return hash((self.source_chart, self.target_chart, self.images))

    def odd_product(self, idx):
        """Image of theta^idx: ordered product of the odd coordinate images, formed
        once per pullback as the product without the top bit times that bit's image."""
        out = self._products.get(idx)
        if out is None:
            top = idx.bit_length() - 1
            out = self.odd_product(idx ^ (1 << top))
            if out:
                out = out * self.images[top + 1]
            self._products[idx] = out
        return out

    def apply(self, f):
        """Pull a function on the target chart back to the source chart.

        Each coefficient is Taylor-expanded around the reduced part of the
        even image; the expansion in the nilpotent part is finite.
        """
        if f.chart != self.target_chart:
            raise ChartMismatch("function lives on %r, pullback expects %r" % (f.chart, self.target_chart))
        if f.odd_dim != self.odd_dim:
            raise ChartMismatch("function has odd dimension %d, pullback expects %d" % (f.odd_dim, self.odd_dim))
        if self._taylor is None:
            g_nil = self.even_image.nilpotent_part()
            powers = [self._products[0]]
            while len(powers) <= self.odd_dim // 2 + 1:
                nxt = powers[-1] * g_nil
                if not nxt:
                    break
                powers.append(nxt.scale(Fraction(1, len(powers))))
            self._taylor = (self.even_image.reduced_part(), powers)
        g_red, powers = self._taylor
        out = SuperFunction.zero(self.source_chart, self.odd_dim)
        for idx, coeff in f.terms.items():
            expanded = SuperFunction.zero(self.source_chart, self.odd_dim)
            deriv = coeff
            for k, nil_k in enumerate(powers):
                if k > 0:
                    deriv = deriv.derivative()
                    if not deriv:
                        break
                composed = deriv.compose(g_red)
                if composed:
                    expanded = expanded + nil_k.scale(composed)
            if idx:
                expanded = expanded * self.odd_product(idx)
            out = out + expanded
        return out

    def __repr__(self):
        return "PullbackData(%r -> %r)" % (self.source_chart, self.target_chart)


def compose(outer, inner):
    """Pullback of the morphism composition ``outer o inner``.

    ``inner`` maps its source chart into ``outer``'s source chart, so the
    composed pullback sends target-chart functions through ``outer``'s
    images and then substitutes via ``inner``.
    """
    if outer.odd_dim != inner.odd_dim:
        raise ChartMismatch(
            "cannot compose: outer odd dimension %d != inner %d" % (outer.odd_dim, inner.odd_dim)
        )
    if outer.source_chart != inner.target_chart:
        raise ChartMismatch(
            "cannot compose: outer source %r != inner target %r"
            % (outer.source_chart, inner.target_chart)
        )
    even, *odds = (inner.apply(img) for img in outer.images)
    return PullbackData(inner.source_chart, outer.target_chart, even, odds)
