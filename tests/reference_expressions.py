"""Reference tokenizer and printer kept as test oracles.

``_tokenize`` is the hand-written character loop that ``supervec.expressions``
used before one compiled regex read the tokens, and ``max_odd_index`` the
separate pass over its tokens that inferred the odd dimension, both kept
verbatim.  The printer is the one from before a scalar's pieces and the
parenthesised factor had one rule each: ``_scalar_pieces``,
``_mixed_scalar_text`` and ``_poly_factor_text`` spell out "(re +- im*i)"
and the leading-sign rule in several places.  On ASCII text the library must
give the same tokens, or the same error with the same message and position,
and on every value it must print the same bytes.

``_Parser`` and ``parse_superfunction`` are the parser from before even factors
were built as rational functions: every ``int``, ``i`` and ``z`` token is a
``SuperFunction`` and every product a Grassmann product.  They are kept
verbatim on the library tokenizer, except that the deleted
``SuperFunction.constant(chart, n, c)`` is spelled
``SuperFunction.from_rf(chart, n, RationalFunction.constant(c))``.  The library
parser must give equal values, or raise the same error at the same position.
"""

from __future__ import annotations

from collections import namedtuple

from supervec.errors import ExprSyntaxError, OddDenominator, RepeatedOddVariable
from supervec.expressions import MAX_NESTING
from supervec.expressions import _tokenize as library_tokenize
from supervec.grassmann import SuperFunction, idx_positions, idx_sort_key
from supervec.scalars import GaussianRational, RationalFunction

_SYMBOLS = "+-*/^()"


_Token = namedtuple("_Token", "kind value pos")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                raise ExprSyntaxError("decimal literals are not accepted", i)
            tokens.append(_Token("int", int(text[i:j]), i))
            i = j
            continue
        if ch == "z":
            tokens.append(_Token("z", None, i))
            i += 1
            continue
        if ch == "i":
            tokens.append(_Token("i", None, i))
            i += 1
            continue
        if ch == "t":
            if i + 1 >= n or not text[i + 1].isdigit():
                raise ExprSyntaxError("odd variable needs a digit index", i)
            tokens.append(_Token("t", int(text[i + 1]), i))
            i += 2
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, None, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i)
    tokens.append(_Token("end", None, n))
    return tokens


def max_odd_index(text):
    """Largest odd-variable index mentioned (0 if none); tokenizes only."""
    return max((t.value for t in _tokenize(text) if t.kind == "t"), default=0)


def _scalar_pieces(c):
    """(sign, body) for a real or imaginary scalar; mixed handled by caller."""
    if not c.im:
        sign = 1 if c.re >= 0 else -1
        return sign, str(abs(c.re))
    if not c.re:
        sign = 1 if c.im >= 0 else -1
        return sign, str(abs(c.im)) + "*i"
    raise ValueError("mixed scalar")


def _mixed_scalar_text(c):
    s_re, re_body = _scalar_pieces(GaussianRational(c.re))
    s_im, im_body = _scalar_pieces(GaussianRational(0, c.im))
    first = re_body if s_re > 0 else "-" + re_body
    return "(%s %s %s)" % (first, "+" if s_im > 0 else "-", im_body)


def _z_text(exponent):
    if exponent == 1:
        return "z"
    return "z^%d" % exponent


def _monomial_pieces(c, exponent):
    """(sign, body) for c * z^exponent."""
    if c.im and c.re:
        body = _mixed_scalar_text(c)
        if exponent:
            body += "*" + _z_text(exponent)
        return 1, body
    sign, scalar = _scalar_pieces(c)
    if exponent == 0:
        return sign, scalar
    if scalar == "1":
        return sign, _z_text(exponent)
    return sign, scalar + "*" + _z_text(exponent)


def _poly_pieces(poly):
    pieces = []
    for e in sorted(poly.coeffs, reverse=True):
        c = poly.coeffs[e]
        if e == 0 and c.re and c.im:
            pieces.append(_monomial_pieces(GaussianRational(c.re), 0))
            pieces.append(_monomial_pieces(GaussianRational(0, c.im), 0))
        else:
            pieces.append(_monomial_pieces(c, e))
    return pieces


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


def _num_sign(poly):
    """Sign of the leading coefficient, lexicographic on (re, im)."""
    c = poly.leading_coeff()
    if c.re:
        return 1 if c.re > 0 else -1
    return 1 if c.im >= 0 else -1


def _poly_factor_text(poly):
    if len(poly.coeffs) == 1:
        sign, body = _monomial_pieces(poly.leading_coeff(), int(poly.degree()))
        return body if sign > 0 else "-" + body if body[0].isdigit() else "-1*" + body
    return "(" + _join(_poly_pieces(poly)) + ")"


def _rf_piece(rf):
    """(sign, body) for a rational function used as the head of a term."""
    coeffs = rf.laurent()
    if coeffs is not None and len(coeffs) == 1:
        ((k, c),) = coeffs.items()
        return _monomial_pieces(c, k)
    num, den = rf.num, rf.den
    sign = _num_sign(num)
    if sign < 0:
        num = -num
    if den.degree() == 0:
        # canonical form has a monic denominator, so den == 1 here
        return sign, "(" + _join(_poly_pieces(num)) + ")"
    num_text = _poly_factor_text(num)
    if coeffs is not None:
        den_text = _z_text(int(den.degree()))
    else:
        den_text = "(" + _join(_poly_pieces(den)) + ")"
    return sign, "%s/%s" % (num_text, den_text)


def superfunction_text(sf):
    """Canonical expression text; parses back to an equal value."""
    pieces = []
    for idx in sorted(sf.terms, key=idx_sort_key):
        rf = sf.terms[idx]
        if idx == 0:
            if rf.den.degree() == 0:
                pieces.extend(_poly_pieces(rf.num))
            else:
                pieces.append(_rf_piece(rf))
            continue
        odd_text = "*".join("t%d" % (j + 1) for j in idx_positions(idx))
        sign, body = _rf_piece(rf)
        pieces.append((sign, odd_text if body == "1" else body + "*" + odd_text))
    return _join(pieces)


def scalar_text(c):
    """Canonical text of a Gaussian rational coefficient."""
    if c.re and c.im:
        return _mixed_scalar_text(c)
    sign, body = _scalar_pieces(c)
    return body if sign > 0 else "-" + body


class _Parser:
    def __init__(self, text, odd_dim, chart):
        self.tokens = library_tokenize(text)
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
            if any(idx for idx in divisor.terms):
                raise OddDenominator("denominators must be free of odd variables")
            rf = divisor.reduced_part()
            if not rf:
                raise ExprSyntaxError("division by zero", slash.pos)
            value = value.scale(RationalFunction.one() / rf)
        return value, last_odd

    def parse_primary(self, last_odd):
        tok = self.take()
        if tok.kind == "int":
            return (
                SuperFunction.from_rf(
                    self.chart, self.odd_dim, RationalFunction.constant(GaussianRational(tok.value))
                ),
                last_odd,
            )
        if tok.kind == "i":
            return (
                SuperFunction.from_rf(
                    self.chart, self.odd_dim, RationalFunction.constant(GaussianRational(0, 1))
                ),
                last_odd,
            )
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
            return (
                SuperFunction.from_rf(
                    self.chart, self.odd_dim, RationalFunction.monomial(exponent)
                ),
                last_odd,
            )
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
    return value
