"""Exact scalars: Gaussian rationals, sparse polynomials, rational functions.

These are the coefficients of everything else in the toolkit.  All values are
immutable and normalized on construction, so structural equality is semantic
equality:

* ``GaussianRational`` stores three integers, ``(a + b*i)/d`` with
  ``d > 0`` and ``gcd(a, b, d) = 1``: each result divides out one
  ``math.gcd``.  ``re`` and ``im`` read the parts as ``Fraction``.
* ``Polynomial`` is a sparse exponent -> coefficient map with no stored
  zeros; the zero polynomial has degree ``-inf``.  Products and division sum
  each coefficient as the integers ``(a, b, d)`` and reduce it once.  The gcd
  of two operands of degree > 0 takes one of three exact paths.  Against a
  single term ``c*z^k`` it is ``z^min(k, j)``, ``j`` the other's lowest
  exponent, since z is prime.  Else, when ``p = 998244353`` divides no
  denominator and ``i -> s`` (``s*s = -1 mod p``) keeps both leading
  coefficients nonzero, a constant gcd of the images over F_p proves it is 1:
  the true gcd divides both images and keeps its degree (Gauss's lemma over
  Z[i] localised at ``(p, i - s)``; Brown 1971).  Else, and for a zero or
  constant operand, the monic remainder sequence runs and stops at a unit.
* ``RationalFunction`` keeps ``gcd(num, den) = 1`` with a monic denominator.
  Arithmetic builds each result canonical from its reduced operands by
  Henrici's method (Knuth, TAOCP vol. 2, 4.5.1), from gcds of the factors
  only, and ``constant`` builds ``c/1`` canonical as it stands;
  ``__init__`` normalises what is built from raw polynomials (parsing,
  ``compose``).

Laurent behaviour (powers of ``1/z``) is obtained by living inside
``RationalFunction`` with a monomial denominator; ``laurent`` is the one
reader of that form, and ``mobius_coefficients`` the one reader of a
fractional-linear map.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

from .errors import DivisionByZero, UndefinedComposition

NEG_INF = -inf


class GaussianRational:
    """Element of Q(i) stored as three integers: ``(a + b*i)/d``.

    ``d > 0`` and ``gcd(a, b, d) = 1``; every result divides out one
    ``math.gcd``.  The real and imaginary parts read as the ``Fraction``
    properties ``re`` and ``im``.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(
                    "Gaussian rational parts are int or Fraction, not %s" % type(part).__name__
                )
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # both parts are in lowest terms, so a, b and d share no factor
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return not self.b and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        return _reduced(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        return _reduced(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        out = _new(GaussianRational)
        out.a, out.b, out.d = -self.a, -self.b, self.d
        return out

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if not (a2 or b2):
            raise DivisionByZero("division by zero Gaussian rational")
        # multiply by the conjugate: the denominator becomes the norm
        d2 = other.d
        return _reduced(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, (a2 * a2 + b2 * b2) * self.d
        )

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent):
        if exponent < 0:
            return _power(GR_ONE / self, -exponent, GR_ONE)
        return _power(self, exponent, GR_ONE)

    def sort_key(self):
        """Total order key (lexicographic on components), for determinism only."""
        return (self.re, self.im)

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return "%s*i" % im
        return "%s%s%s*i" % (re, "+" if im > 0 else "-", abs(im))

    def __repr__(self):
        if not self.b:
            return "GaussianRational(%s)" % self.re
        return "GaussianRational(%s, %s)" % (self.re, self.im)


_new = object.__new__


def _power(base, k, one):
    """``base**k`` for ``k >= 0`` by repeated squaring."""
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _reduced(a, b, d):
    """``(a + b*i)/d`` for ``d > 0``, with one gcd divided out."""
    g = gcd(a, b, d)
    out = _new(GaussianRational)
    if g == 1:
        out.a, out.b, out.d = a, b, d
    else:
        out.a, out.b, out.d = a // g, b // g, d // g
    return out


def _as_gaussian(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


class Polynomial:
    """Univariate polynomial over the Gaussian rationals, sparse form."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for exp, c in coeffs.items():
                if not isinstance(c, GaussianRational):
                    c = GaussianRational(c)
                if c:
                    clean[exp] = c
        self.coeffs = clean

    @classmethod
    def zero(cls):
        return _POLY_ZERO

    @classmethod
    def one(cls):
        return _POLY_ONE

    @classmethod
    def constant(cls, c):
        return cls({0: c})

    @classmethod
    def monomial(cls, exp, coeff=1):
        if exp < 0:
            raise ValueError("polynomial exponents are non-negative")
        return cls({exp: coeff})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self):
        return max(self.coeffs) if self.coeffs else NEG_INF

    def leading_coeff(self):
        if not self.coeffs:
            return GR_ZERO
        return self.coeffs[max(self.coeffs)]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = out.get(exp, GR_ZERO) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return _raw_poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _raw_poly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        """Each output coefficient is summed as the integers ``(a + b*i)/d``
        of the term products, over a common ``d`` when the terms share it,
        and reduced once; exponents whose sum is zero are dropped."""
        sums = {}
        for e1, c1 in self.coeffs.items():
            a1, b1, d1 = c1.a, c1.b, c1.d
            for e2, c2 in other.coeffs.items():
                a, b, d = a1 * c2.a - b1 * c2.b, a1 * c2.b + b1 * c2.a, d1 * c2.d
                s = sums.get(e1 + e2)
                if s is not None:
                    sa, sb, sd = s
                    if sd == d:
                        a, b = sa + a, sb + b
                    else:
                        a, b, d = sa * d + a * sd, sb * d + b * sd, sd * d
                sums[e1 + e2] = a, b, d
        return _raw_poly({e: _reduced(a, b, d) for e, (a, b, d) in sums.items() if a or b})

    def scale(self, c):
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        if not c:
            return _POLY_ZERO
        return _raw_poly({e: c0 * c for e, c0 in self.coeffs.items()})

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative polynomial power")
        return _power(self, exponent, _POLY_ONE)

    def __divmod__(self, other):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        q = {}
        r = {e: (c.a, c.b, c.d) for e, c in self.coeffs.items()}
        dlead = other.degree()
        inv = GR_ONE / other.coeffs[dlead]
        ia, ib, id_ = inv.a, inv.b, inv.d
        # remainder coefficients stay integer triples, each reduced once: when
        # it leads, or at the end; each step adds factor * (a lower term, negated)
        rest = [(oe - dlead, -c.a, -c.b, c.d) for oe, c in other.coeffs.items() if oe < dlead]
        while r:
            e = max(r)
            if e < dlead:
                break
            a, b, d = r.pop(e)
            factor = q[e - dlead] = _reduced(a * ia - b * ib, a * ib + b * ia, d * id_)
            fa, fb, fd = factor.a, factor.b, factor.d
            for shift, oa, ob, od in rest:
                te = e + shift
                a, b, d = fa * oa - fb * ob, fa * ob + fb * oa, fd * od
                s = r.get(te)
                if s is not None:
                    sa, sb, sd = s
                    if sd == d:
                        a, b = sa + a, sb + b
                    else:
                        a, b, d = sa * d + a * sd, sb * d + b * sd, sd * d
                r[te] = a, b, d
                if not (a or b):
                    del r[te]
        return _raw_poly(q), _raw_poly({e: _reduced(*t) for e, t in r.items()})

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self):
        return self.scale(GR_ONE / self.leading_coeff()) if self.coeffs else self

    def gcd(self, other):
        a, b = self, other
        if a.degree() > 0 and b.degree() > 0:
            if len(a.coeffs) == 1 or len(b.coeffs) == 1:
                # c*z^k against g: z^min(k, lowest exponent of g)
                k = min(min(a.coeffs), min(b.coeffs))
                return _raw_poly({k: GR_ONE}) if k else _POLY_ONE
            if _coprime_mod_p(a, b):
                return _POLY_ONE
        while b.degree() > 0:
            a, b = b, (a % b).monic()
        # a nonzero constant remainder is a unit: the gcd is 1
        return _POLY_ONE if b else a.monic()

    def derivative(self):
        return _raw_poly({e - 1: c * e for e, c in self.coeffs.items() if e > 0})

    def eval(self, point):
        point = point if isinstance(point, GaussianRational) else GaussianRational(point)
        acc = GR_ZERO
        for e, c in self.coeffs.items():
            acc = acc + c * point**e
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            parts.append("%r*x^%d" % (self.coeffs[e], e))
        return "Polynomial(%s)" % " + ".join(parts)


# p = 1 (mod 4) and s*s = -1 (mod p), 3 being a primitive root mod p
_P = 998244353
_S = pow(3, (_P - 1) // 4, _P)


def _coprime_mod_p(f, g):
    """True when ``(a + b*i)/d -> (a + b*s)/d mod p`` certifies ``gcd(f, g) = 1``
    for ``f`` and ``g`` of degree > 0; False when it declines or cannot."""
    images = []
    for poly in (f, g):
        u = [0] * (max(poly.coeffs) + 1)
        for e, c in poly.coeffs.items():
            if not c.d % _P:
                return False
            u[e] = (c.a + c.b * _S) * pow(c.d, -1, _P) % _P
        if not u[-1]:
            return False
        images.append(u)
    u, v = images
    while len(v) > 1:
        inv, n = pow(v[-1], -1, _P), len(v) - 1
        for k in range(len(u) - 1 - n, -1, -1):
            c = u.pop() * inv % _P
            u[k:] = [(x - c * y) % _P for x, y in zip(u[k:], v)]
        while u and not u[-1]:
            u.pop()
        u, v = v, u
    return bool(v)


def _raw_poly(coeffs):
    p = Polynomial.__new__(Polynomial)
    p.coeffs = coeffs
    return p


_POLY_ZERO = _raw_poly({})
_POLY_ONE = _raw_poly({0: GR_ONE})
_POLY_X = _raw_poly({1: GR_ONE})


class RationalFunction:
    """Quotient of polynomials in canonical form (reduced, monic denominator).

    ``__init__`` normalises raw polynomials; arithmetic on canonical operands
    builds canonical results from gcds of their factors and skips it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_POLY_ONE):
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = _POLY_ZERO, _POLY_ONE
        else:
            self.num, self.den = _monic_den(*_cancel(num, den))

    @classmethod
    def zero(cls):
        return _RF_ZERO

    @classmethod
    def one(cls):
        return _RF_ONE

    @classmethod
    def z(cls):
        return _RF_Z

    @classmethod
    def constant(cls, c):
        """``c`` over 1, or the shared zero: canonical as built."""
        num = Polynomial.constant(c)
        return _rf_raw(num, _POLY_ONE) if num else _RF_ZERO

    @classmethod
    def monomial(cls, exp, coeff=1):
        """c * z^exp for any integer exp (negative exponents give poles at 0)."""
        if exp >= 0:
            return cls(Polynomial.monomial(exp, coeff))
        return cls(Polynomial.constant(coeff), Polynomial.monomial(-exp))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_polynomial(self):
        return self.den.degree() == 0

    def is_constant(self):
        return self.num.degree() <= 0 and self.den.degree() == 0

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return _rf_sum(self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return _rf_sum(self.num, self.den, -other.num, other.den)

    def __rsub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _rf_raw(-self.num, self.den)

    def __mul__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not (a and c):
            return _RF_ZERO
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return _rf_raw(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        return self * _rf_reciprocal(other)

    def __rtruediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent):
        if exponent < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return _rf_reciprocal(self) ** -exponent
        return _rf_raw(self.num**exponent, self.den**exponent)

    def derivative(self):
        """``(a'(b/g) - a(b'/g)) / (b(b/g))``, ``g = gcd(b, b')``: reduced, each pole order +1."""
        a, b = self.num, self.den
        if b.degree() <= 0:
            return _rf_raw(a.derivative(), b)
        b_g, db_g = _cancel(b, b.derivative())
        return _rf_raw(a.derivative() * b_g - a * db_g, b * b_g)

    def compose(self, inner):
        """Substitute ``inner = a/b`` for the variable, reducing once: ``num`` and
        ``den`` become ``sum c_e a^e b^(top-e)``, ``top`` the larger degree.

        For ``a = alpha z^sa``, ``b = z^sb`` and ``sa != sb`` (every transition
        ``1/z``) that is ``c_e alpha^e z^(sa e + sb (top-e))``, distinct exponents
        in closed form; any other inner, a constant included, builds the tables
        ``a^0..a^top`` and ``b^0..b^top``."""
        a, b = inner.num, inner.den
        top = int(max(self.num.degree(), self.den.degree()))
        if len(a.coeffs) == len(b.coeffs) == 1 and a.coeffs.keys() != b.coeffs.keys():
            ((sa, alpha),), (sb,) = a.coeffs.items(), b.coeffs  # canonical: b is monic
            num, den = (
                _raw_poly({sa * e + sb * (top - e): c if alpha == 1 else c * alpha**e
                           for e, c in p.coeffs.items()})
                for p in (self.num, self.den)
            )
        else:
            a_pows, b_pows = [_POLY_ONE], [_POLY_ONE]
            for _ in range(top):
                a_pows.append(a_pows[-1] * a)
                b_pows.append(b_pows[-1] * b)
            num, den = (
                sum(((a_pows[e] * b_pows[top - e]).scale(c) for e, c in p.coeffs.items()),
                    _POLY_ZERO)
                for p in (self.num, self.den)
            )
        if den.is_zero():
            raise UndefinedComposition("substitution lands in a pole")
        return RationalFunction(num, den)

    def laurent(self):
        """``{k: c}`` with ``self = sum c*z^k`` when the denominator is a power
        of z, else None: the monic one-term denominator is ``z^shift``."""
        den = self.den.coeffs
        if len(den) != 1:
            return None
        (shift,) = den
        return {e - shift: c for e, c in self.num.coeffs.items()}

    def __repr__(self):
        if self.den == _POLY_ONE:
            return "RationalFunction(%r)" % self.num
        return "RationalFunction(%r / %r)" % (self.num, self.den)


def _as_rf(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (GaussianRational, int, Fraction)):
        return RationalFunction.constant(value)
    return None


def _rf_raw(num, den):
    """A ``RationalFunction`` from a pair already in canonical form."""
    out = _new(RationalFunction)
    out.num, out.den = num, den
    return out


def _gcd(p, q):
    """``gcd(p, q)`` of nonzero polynomials; no Euclid when either is constant."""
    return p.gcd(q) if p.degree() > 0 and q.degree() > 0 else _POLY_ONE


def _cancel(p, q):
    """``(p/g, q/g)`` for ``g = gcd(p, q)``."""
    g = _gcd(p, q)
    return (p // g, q // g) if g.degree() > 0 else (p, q)


def _rf_sum(a, b, c, d):
    """``a/b + c/d`` for canonical operands, reduced by gcds of factors only:
    by ``gcd(a + c, b)`` when ``b == d``, else by ``gcd(num, g)``, where
    ``g = gcd(b, d)`` and ``num = a(d/g) + c(b/g)`` over ``(b/g) d``."""
    if b == d:
        num = a + c
        return _rf_raw(*_cancel(num, b)) if num else _RF_ZERO
    g = _gcd(b, d)
    if g.degree() <= 0:
        # distinct canonical denominators: the sum is nonzero and reduced
        return _rf_raw(a * d + c * b, b * d)
    b_g, d_g = b // g, d // g
    num, g = _cancel(a * d_g + c * b_g, g)
    return _rf_raw(num, b_g * d_g * g)


def _monic_den(num, den):
    """``(num, den)`` divided by the leading coefficient of ``den``."""
    lead = den.leading_coeff()
    if lead == 1:
        return num, den
    inv = GR_ONE / lead
    return num.scale(inv), den.scale(inv)


def _rf_reciprocal(f):
    """``den/num`` of a nonzero ``f``, the new denominator made monic."""
    return _rf_raw(*_monic_den(f.den, f.num))


_RF_ZERO = RationalFunction(_POLY_ZERO)
_RF_ONE = RationalFunction(_POLY_ONE)
_RF_Z = RationalFunction(_POLY_X)


def mobius_coefficients(rf):
    """Return (alpha, beta, gamma, delta) with rf = (alpha*z+beta)/(gamma*z+delta),
    or None if rf is not an invertible fractional-linear map."""
    if rf.num.degree() > 1 or rf.den.degree() > 1:
        return None
    alpha = rf.num.coeffs.get(1, GR_ZERO)
    beta = rf.num.coeffs.get(0, GR_ZERO)
    gamma = rf.den.coeffs.get(1, GR_ZERO)
    delta = rf.den.coeffs.get(0, GR_ZERO)
    if not (alpha * delta - beta * gamma):
        return None
    return alpha, beta, gamma, delta


def mobius_inverse(rf):
    """Inverse of an invertible fractional-linear map, or None."""
    coeffs = mobius_coefficients(rf)
    if coeffs is None:
        return None
    alpha, beta, gamma, delta = coeffs
    num = Polynomial({1: delta, 0: -beta})
    den = Polynomial({1: -gamma, 0: alpha})
    return RationalFunction(num, den)
