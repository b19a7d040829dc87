"""Reference pullback class kept as a test oracle.

``PullbackData`` and ``compose`` are the library's versions from before a
pullback stored its coordinate images as one tuple numbered like the
coordinates, kept verbatim but for the odd-dimension message of ``apply``,
which names the odd dimensions as the library's does: the class holds
``even_image`` and ``odd_images`` apart, checks the even image and then each
odd image in separate branches, and compares and hashes the two fields side
by side; ``compose`` pulls the even image and the odd images back in
separate expressions.  The library
must give equal values, or raise the same error class with the same message,
on every input.
"""

from __future__ import annotations

from supervec.errors import ChartMismatch, MixedParity
from supervec.grassmann import SuperFunction
from supervec.scalars import Fraction


class PullbackData:
    """Coordinate images of a morphism between charts.

    A morphism from the ``source`` chart to the ``target`` chart pulls
    functions back the other way: ``apply`` takes a function written in
    target coordinates and returns its expression in source coordinates.
    The data are the images of the target coordinates: one pure-even image
    for the even coordinate and one pure-odd image per odd coordinate, all
    living on the source chart.  The Taylor plan (``_products``, the odd
    products by idx, and ``_taylor``, the reduced even image with the nilpotent
    powers ``g_nil^k / k!``) is filled on first use and never read by ``==``
    or ``hash``; the images never change after ``__init__``.
    """

    __slots__ = ("source_chart", "target_chart", "odd_dim", "even_image", "odd_images",
                 "_products", "_taylor")

    def __init__(self, source_chart, target_chart, even_image, odd_images):
        odd_images = tuple(odd_images)
        n = even_image.odd_dim
        if len(odd_images) != n:
            raise ValueError("expected %d odd coordinate images" % n)
        if even_image.chart != source_chart:
            raise ChartMismatch("even image must live on the source chart")
        if even_image.parity() != 0:
            raise MixedParity("even coordinate image must be pure even")
        for img in odd_images:
            if img.chart != source_chart or img.odd_dim != n:
                raise ChartMismatch("odd image on wrong chart")
            if img and img.parity() != 1:
                raise MixedParity("odd coordinate image must be pure odd")
        self.source_chart = source_chart
        self.target_chart = target_chart
        self.odd_dim = n
        self.even_image = even_image
        self.odd_images = odd_images
        self._products = {0: SuperFunction.one(source_chart, n)}
        self._taylor = None

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
        return (
            self.source_chart == other.source_chart
            and self.target_chart == other.target_chart
            and self.even_image == other.even_image
            and self.odd_images == other.odd_images
        )

    def __hash__(self):
        return hash(
            (self.source_chart, self.target_chart, self.even_image, self.odd_images)
        )

    def odd_product(self, idx):
        """Image of theta^idx: ordered product of the odd coordinate images, formed
        once per pullback as the product without the top bit times that bit's image."""
        out = self._products.get(idx)
        if out is None:
            top = idx.bit_length() - 1
            out = self.odd_product(idx ^ (1 << top))
            if out:
                out = out * self.odd_images[top]
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
    return PullbackData(
        inner.source_chart,
        outer.target_chart,
        inner.apply(outer.even_image),
        [inner.apply(img) for img in outer.odd_images],
    )
