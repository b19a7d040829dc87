"""Expression syntax for superfunctions, and canonical printing.

Grammar::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := coeff | 'z' ['^' signed-int] | 't' digit | '(' expr ')'
            | factor '/' evenfactor
    coeff  := rational ['*' 'i']      rational := int ['/' int]

Odd variables are ``t1 .. t9`` and must appear with strictly increasing
indices within a term, so every sign in a source file is explicit; repeated
indices are reported separately from decreasing ones.  Denominators must be
free of odd variables.  Decimal literals are rejected, not converted.  Digits
are ASCII ``0-9``; any other character is an error, and so is nesting
parentheses deeper than ``MAX_NESTING`` levels.  ``int``, ``i`` and ``z^k``
tokens, and the sums, products and quotients of them, parse as
``RationalFunction``; ``t`` tokens and whatever contains one, as ``SuperFunction``.

``superfunction_text`` renders the canonical form: reduced terms first
(descending powers), then odd terms ordered by (degree, index set); printing
then parsing is the identity on values, and parsing then printing is
idempotent on text.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import ExprSyntaxError, NumberTooLong, OddDenominator, RepeatedOddVariable
from .grassmann import SuperFunction, idx_positions, idx_sort_key
from .scalars import GaussianRational, RationalFunction

# ---------------------------------------------------------------------------
# tokenizer

MAX_ODD_DIM = 9  # one digit names an odd variable: t1 .. t9
MAX_NESTING = 100  # parenthesis levels; each costs the recursive parser four frames
MAX_DIGITS = 4300  # digits of one integer literal: Python's default int <-> str limit
_TOO_LONG = 10**MAX_DIGITS  # the least integer with more than MAX_DIGITS digits

_Token = namedtuple("_Token", "kind value pos")
# ASCII digits only: an int with a decimal point to reject, t with its
# one-digit index, a symbol, or any other non-blank character
_TOKEN = re.compile(r"([0-9]+)(\.?)|t([0-9]?)|([-+*/^()zi])|(\S)")


def _digits(match, group):
    """The int of a matched run of ASCII digits, at most MAX_DIGITS long."""
    digits = match.group(group)
    if len(digits) > MAX_DIGITS:
        raise ExprSyntaxError(
            "integer literal longer than %d digits" % MAX_DIGITS, match.start(group)
        )
    return int(digits)


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        digits, dot, odd, symbol, other = m.groups()
        pos = m.start()
        if dot:
            raise ExprSyntaxError("decimal literals are not accepted", pos)
        if odd == "":
            raise ExprSyntaxError("odd variable needs a digit index", pos)
        if other:
            raise ExprSyntaxError("unexpected character %r" % other, pos)
        if digits:
            tokens.append(_Token("int", _digits(m, 1), pos))
        elif odd:
            tokens.append(_Token("t", int(odd), pos))
        else:
            tokens.append(_Token(symbol, None, pos))
    tokens.append(_Token("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, odd_dim, chart):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        if odd_dim is None:
            odd_dim = max((t.value for t in self.tokens if t.kind == "t"), default=0)
        self.odd_dim = odd_dim
        self.chart = chart

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok.kind != kind:
            raise ExprSyntaxError("expected %r" % kind, tok.pos)
        return tok

    # expr := ['-'] term (('+'|'-') term)*; the optional leading sign makes
    # the signed rationals of the coeff rule expressible ("-1*t1*t2")
    def parse_expr(self):
        negate = False
        if self.peek().kind in "+-":
            negate = self.take().kind == "-"
        value = self.parse_term()
        if negate:
            value = -value
        while self.peek().kind in "+-":
            op = self.take()
            rhs = self.parse_term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    # term := factor ('*' factor)*, with increasing bare odd indices
    def parse_term(self):
        last_odd = 0
        value, last_odd = self.parse_factor(last_odd)
        while self.peek().kind == "*":
            self.take()
            rhs, last_odd = self.parse_factor(last_odd)
            value = value * rhs
        return value

    # factor := primary ('/' primary)*
    def parse_factor(self, last_odd):
        value, last_odd = self.parse_primary(last_odd)
        while self.peek().kind == "/":
            slash = self.take()
            divisor, _ = self.parse_primary(last_odd)
            if isinstance(divisor, SuperFunction):
                if any(idx for idx in divisor.terms):
                    raise OddDenominator("denominators must be free of odd variables")
                divisor = divisor.reduced_part()
            if not divisor:
                raise ExprSyntaxError("division by zero", slash.pos)
            value = value * (RationalFunction.one() / divisor)
        return value, last_odd

    def parse_primary(self, last_odd):
        tok = self.take()
        if tok.kind == "int":
            return RationalFunction.constant(GaussianRational(tok.value)), last_odd
        if tok.kind == "i":
            return RationalFunction.constant(GaussianRational(0, 1)), last_odd
        if tok.kind == "z":
            exponent = 1
            if self.peek().kind == "^":
                self.take()
                sign = 1
                if self.peek().kind == "-":
                    self.take()
                    sign = -1
                elif self.peek().kind == "+":
                    self.take()
                exponent = sign * self.expect("int").value
            return RationalFunction.monomial(exponent), last_odd
        if tok.kind == "t":
            index = tok.value
            if index == 0:
                raise ExprSyntaxError("odd variables start at t1, not t0", tok.pos)
            if index > self.odd_dim:
                raise ExprSyntaxError(
                    "odd variable t%d exceeds odd dimension %d" % (index, self.odd_dim),
                    tok.pos,
                )
            if index == last_odd:
                raise RepeatedOddVariable("odd variable t%d repeated" % index, tok.pos)
            if index < last_odd:
                raise ExprSyntaxError(
                    "odd variable indices must increase within a term", tok.pos
                )
            return SuperFunction.odd_var(self.chart, self.odd_dim, index - 1), index
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    "parentheses nested deeper than %d levels" % MAX_NESTING, tok.pos
                )
            self.depth += 1
            value = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return value, last_odd
        raise ExprSyntaxError("unexpected token", tok.pos)


def parse_superfunction(text, odd_dim=None, chart="chart0"):
    """Parse an expression into a canonical SuperFunction.

    When ``odd_dim`` is omitted it is inferred as the largest odd index
    mentioned in the text.
    """
    parser = _Parser(text, odd_dim, chart)
    value = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError("trailing input", tok.pos)
    if isinstance(value, SuperFunction):
        return value
    return SuperFunction.from_rf(chart, parser.odd_dim, value)


_RATIONAL = re.compile(r"[+-]?([0-9]+)(?:/([0-9]+))?")


def parse_rational(text):
    """Rational scalar for command-line parameters ('3', '-1/2').

    Only the integer and ``int/int`` forms of the grammar are accepted;
    decimals, exponents and digit separators are rejected.
    """
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise ExprSyntaxError("not a rational number: %r" % text, 0)
    num = _digits(m, 1)
    den = _digits(m, 2) if m.group(2) else 1
    if not den:
        raise ExprSyntaxError("not a rational number: %r" % text, 0)
    return GaussianRational(Fraction(-num if text[0] == "-" else num, den))


def parse_integer(text):
    """Integer for command-line options and file fields: an optional sign
    and ASCII digits, nothing else (no blanks, no digit separators)."""
    m = _RATIONAL.fullmatch(text)
    if not m or m.group(2) is not None:
        raise ExprSyntaxError("not an integer: %r" % text, 0)
    num = _digits(m, 1)
    return -num if text[0] == "-" else num


# ---------------------------------------------------------------------------
# canonical printing


def _parts(c):
    """(sign, body) pieces of a scalar (a + b*i)/d: one, or a real and an
    imaginary one, each part n/d reduced and printed as ``str(Fraction)``
    would, with integers at most MAX_DIGITS long, so that the text parses back."""
    out = []
    for n, unit in [(n, unit) for n, unit in ((c.a, ""), (c.b, "*i")) if n] or [(0, "")]:
        g = gcd(n, c.d)
        num, den = abs(n) // g, c.d // g
        if max(num, den) >= _TOO_LONG:
            raise NumberTooLong("cannot print an integer longer than %d digits" % MAX_DIGITS)
        out.append((1 if n >= 0 else -1, (str(num) if den == 1 else "%d/%d" % (num, den)) + unit))
    return out


def _join(pieces):
    if not pieces:
        return "0"
    sign, body = pieces[0]
    if sign < 0:
        out = "-" + body if body[0].isdigit() else "-1*" + body
    else:
        out = body
    for sign, body in pieces[1:]:
        out += (" + " if sign > 0 else " - ") + body
    return out


def _factor(pieces):
    """Text of a sum of pieces used as a factor: in parentheses unless one piece."""
    text = _join(pieces)
    return text if len(pieces) == 1 else "(" + text + ")"


def _times(pieces, symbol):
    """One (sign, body) piece for the sum of ``pieces`` times ``symbol``."""
    sign, body = pieces[0] if len(pieces) == 1 else (1, _factor(pieces))
    return sign, symbol if body == "1" else body + "*" + symbol


def _z_text(exponent):
    if exponent == 1:
        return "z"
    return "z^%d" % exponent


def _monomial_pieces(c, exponent):
    """(sign, body) pieces of c * z^exponent; the scalar's own when exponent is 0."""
    return _parts(c) if exponent == 0 else [_times(_parts(c), _z_text(exponent))]


def _poly_pieces(poly):
    coeffs = poly.coeffs
    return [p for e in sorted(coeffs, reverse=True) for p in _monomial_pieces(coeffs[e], e)]


def _rf_pieces(rf):
    """(sign, body) pieces of a rational function used as the head of a term.

    A non-monomial numerator is signed by its leading coefficient,
    lexicographic on (re, im), and the denominator is monic.
    """
    coeffs = rf.laurent()
    if coeffs is not None and len(coeffs) == 1:
        ((k, c),) = coeffs.items()
        return _monomial_pieces(c, k)
    sign = _parts(rf.num.leading_coeff())[0][0]
    body = _factor(_poly_pieces(rf.num if sign > 0 else -rf.num))
    if rf.den.degree():
        body += "/" + _factor(_poly_pieces(rf.den))
    return [(sign, body)]


def superfunction_text(sf):
    """Canonical expression text; parses back to an equal value."""
    pieces = []
    for idx in sorted(sf.terms, key=idx_sort_key):
        rf = sf.terms[idx]
        if idx == 0:
            pieces += _poly_pieces(rf.num) if rf.den.degree() == 0 else _rf_pieces(rf)
        else:
            odd_text = "*".join("t%d" % (j + 1) for j in idx_positions(idx))
            pieces.append(_times(_rf_pieces(rf), odd_text))
    return _join(pieces)


def derivation_text(der):
    """Report form of a derivation: coefficient times direction, summed."""
    parts = [
        "(%s)*d/%s" % (superfunction_text(c), "dt%d" % u if u else "dz")
        for u, c in enumerate(der.coeffs)
        if c
    ]
    return " + ".join(parts) if parts else "0"


def scalar_text(c):
    """Canonical text of a Gaussian rational coefficient."""
    return _factor(_parts(c))
