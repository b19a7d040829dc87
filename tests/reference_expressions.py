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
"""

from __future__ import annotations

from collections import namedtuple

from supervec.errors import ExprSyntaxError
from supervec.grassmann import idx_positions, idx_sort_key
from supervec.scalars import GaussianRational

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
