import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

import reference_expressions as reference
from supervec.errors import (
    ExprSyntaxError,
    NumberTooLong,
    OddDenominator,
    RepeatedOddVariable,
)
from supervec.expressions import (
    MAX_DIGITS,
    _Parser,
    _tokenize,
    derivation_text,
    parse_integer,
    parse_rational,
    parse_superfunction,
    scalar_text,
    superfunction_text,
)
from supervec.derivations import SuperDerivation
from supervec.grassmann import SuperFunction
from supervec.scalars import GaussianRational, Polynomial, RationalFunction
from test_files_cli import CODED_INPUT_ERRORS


def zm(k):
    return RationalFunction.monomial(k)


def test_parse_transition_examples():
    sf = parse_superfunction("1/z + z^-3*t1*t2", 2)
    assert sf == SuperFunction("chart0", 2, {0: zm(-1), 3: zm(-3)})
    sf2 = parse_superfunction("z^-2*t1", 2)
    assert sf2 == SuperFunction("chart0", 2, {1: zm(-2)})


def test_parse_signed_leading_term():
    sf = parse_superfunction("-1*t1*t2", 2)
    assert sf == SuperFunction("chart0", 2, {3: RationalFunction.constant(-1)})
    assert superfunction_text(sf) == "-1*t1*t2"


def test_parse_gaussian_coefficients():
    sf = parse_superfunction("1/2*i*z + (1 + 2*i)*t1", 1)
    half_i = RationalFunction.constant(GaussianRational(0, Fraction(1, 2)))
    onetwo = RationalFunction.constant(GaussianRational(1, 2))
    assert sf == SuperFunction("chart0", 1, {0: half_i * zm(1), 1: onetwo})


def test_parse_errors_with_positions():
    with pytest.raises(ExprSyntaxError) as e:
        parse_superfunction("t2*t1", 2)
    assert e.value.position == 3
    with pytest.raises(RepeatedOddVariable) as e:
        parse_superfunction("t1*t1", 2)
    assert e.value.position == 3
    # a syntax error with its own code
    with pytest.raises(ExprSyntaxError) as e:
        parse_superfunction("z + t1*t1")
    assert type(e.value) is RepeatedOddVariable
    assert (e.value.code, e.value.position, e.value.message) == (
        "RepeatedOddVariable", 7, "odd variable t1 repeated (at position 7)"
    )
    with pytest.raises(ExprSyntaxError):
        parse_superfunction("1.5", 1)
    with pytest.raises(OddDenominator):
        parse_superfunction("z/t1", 1)
    with pytest.raises(OddDenominator):
        parse_superfunction("1/(2*t1)", 1)
    with pytest.raises(ExprSyntaxError):
        parse_superfunction("z^^2", 1)
    with pytest.raises(ExprSyntaxError):
        parse_superfunction("(z", 1)
    with pytest.raises(ExprSyntaxError):
        parse_superfunction("z 2", 1)
    with pytest.raises(ExprSyntaxError):
        parse_superfunction("1/0", 1)
    with pytest.raises(ExprSyntaxError):
        parse_superfunction("t3", 2)


def test_odd_dim_inference():
    for text in ["z^3*t1*t2", "z + 1", "z^2*t1*t3", "t9", "(t2 + 1)*(t1 - z)", "-1*i*t4/(z + 1)"]:
        assert parse_superfunction(text).odd_dim == reference.max_odd_index(text)


def test_division_binds_one_factor():
    sf = parse_superfunction("1/2*z", 1)
    assert sf == SuperFunction("chart0", 1, {0: zm(1) * Fraction(1, 2)})
    sf2 = parse_superfunction("4/2/2", 1)
    assert sf2 == SuperFunction("chart0", 1, {0: RationalFunction.one()})


def rand_rf(rng):
    num = Polynomial(
        {e: GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                             Fraction(rng.randint(-2, 2)) if rng.random() < 0.25 else 0)
         for e in range(rng.randint(0, 4))}
    )
    if rng.random() < 0.5:
        while True:
            den = Polynomial(
                {e: GaussianRational(rng.randint(-3, 3)) for e in range(rng.randint(0, 3))}
            )
            if den:
                return RationalFunction(num, den)
    return RationalFunction(num)


def test_print_parse_roundtrip_is_identity_on_values():
    rng = random.Random(29)
    for _ in range(400):
        n = rng.randint(0, 3)
        terms = {idx: rand_rf(rng) for idx in range(1 << n) if rng.random() < 0.4}
        sf = SuperFunction("chart0", n, terms)
        text = superfunction_text(sf)
        back = parse_superfunction(text, n)
        assert back == sf
        assert superfunction_text(back) == text


I = GaussianRational(0, 1)


@pytest.mark.parametrize(
    "coeff, alone, after_z",
    [
        (RationalFunction.constant(1), "t1*t2", "z + t1*t2"),
        (RationalFunction.constant(-1), "-1*t1*t2", "z - t1*t2"),
        (RationalFunction.constant(I), "1*i*t1*t2", "z + 1*i*t1*t2"),
        (RationalFunction.constant(-I), "-1*i*t1*t2", "z - 1*i*t1*t2"),
        (RationalFunction.constant(GaussianRational(1, 1)), "(1 + 1*i)*t1*t2", "z + (1 + 1*i)*t1*t2"),
        (RationalFunction.constant(2), "2*t1*t2", "z + 2*t1*t2"),
        (zm(-1), "z^-1*t1*t2", "z + z^-1*t1*t2"),
        (-zm(2), "-1*z^2*t1*t2", "z - z^2*t1*t2"),
    ],
)
def test_odd_term_text_roundtrip(coeff, alone, after_z):
    for terms, text in (({3: coeff}, alone), ({0: zm(1), 3: coeff}, after_z)):
        sf = SuperFunction("chart0", 2, terms)
        assert superfunction_text(sf) == text
        assert parse_superfunction(text, 2) == sf


def test_parse_print_is_canonicalization():
    cases = [
        ("1/z + z^-3*t1*t2", "z^-1 + z^-3*t1*t2"),
        ("z*z*z", "z^3"),
        ("(1+z)*(1-z)", "-1*z^2 + 1"),
        ("t1*t2 + t1*t2", "2*t1*t2"),
        ("0*t1 + z", "z"),
    ]
    for source, canonical in cases:
        assert superfunction_text(parse_superfunction(source, 2)) == canonical
        assert superfunction_text(parse_superfunction(canonical, 2)) == canonical


def test_scalar_text():
    assert scalar_text(GaussianRational(Fraction(-3, 2))) == "-3/2"
    assert scalar_text(GaussianRational(0, 1)) == "1*i"
    assert scalar_text(GaussianRational(1, -2)) == "(1 - 2*i)"


def test_derivation_text():
    der = SuperDerivation(
        "chart0", 2,
        SuperFunction("chart0", 2, {3: zm(-1)}),
        [SuperFunction.zero("chart0", 2), SuperFunction.odd_var("chart0", 2, 1)],
    )
    assert derivation_text(der) == "(z^-1*t1*t2)*d/dz + (t2)*d/dt2"
    assert derivation_text(SuperDerivation.zero("chart0", 1)) == "0"


def test_parse_rational():
    assert parse_rational("3/2") == GaussianRational(Fraction(3, 2))
    assert parse_rational("-4") == GaussianRational(-4)
    with pytest.raises(ExprSyntaxError):
        parse_rational("x")


@pytest.mark.parametrize("text", ["3", "-1/2", "-3/2", "+2", "0"])
def test_parse_rational_accepts_integers_and_fractions(text):
    assert parse_rational(text) == GaussianRational(Fraction(text))


@pytest.mark.parametrize(
    "text", ["0.5", "1e3", "1_0", ".5", "2.", "1/2.0", "1/0", "1 / 2", " 3", "", "1/-2"]
)
def test_parse_rational_rejects_decimals_and_other_forms(text):
    with pytest.raises(ExprSyntaxError):
        parse_rational(text)


@pytest.mark.parametrize("text", ["0", "7", "-12", "+3", "9" * 4300])
def test_parse_integer_reads_ascii_digits(text):
    assert parse_integer(text) == int(text)


@pytest.mark.parametrize("text", ["\u0661", "1\u0663", "1_0", " 3", "", "+", "--1", "1/2", "0.5"])
def test_parse_integer_rejects_everything_else(text):
    with pytest.raises(ExprSyntaxError, match="^not an integer: "):
        parse_integer(text)


@pytest.mark.parametrize(
    "read, template, position",
    [(parse_superfunction, "z + %s*t1", 4), (parse_rational, "1/%s", 2), (parse_integer, "-%s", 1)],
    ids=["expression", "rational", "integer"],
)
def test_integer_literals_are_bounded_at_4300_digits(read, template, position):
    # the bound is a constant, so Python versions without the int <-> str
    # limit read the same texts
    assert MAX_DIGITS == 4300
    read(template % ("7" * MAX_DIGITS))
    message = "^integer literal longer than 4300 digits \\(at position %d\\)$" % position
    with pytest.raises(ExprSyntaxError, match=message):
        read(template % ("7" * (MAX_DIGITS + 1)))


@pytest.mark.parametrize("part", ["re", "re-denominator", "im", "im-denominator"])
def test_printed_integers_are_bounded_at_4300_digits(part):
    # a product of literals can be longer than any literal: the printer keeps
    # to the parser's bound, so every text it prints parses back
    def scalar(n):
        q = Fraction(1, n) if part.endswith("denominator") else Fraction(n)
        return GaussianRational(q, 1) if part.startswith("re") else GaussianRational(1, q)

    longest = scalar(10**MAX_DIGITS - 1)
    text = scalar_text(longest)
    assert parse_superfunction(text, 0) == SuperFunction.from_rf(
        "chart0", 0, RationalFunction.constant(longest)
    )
    with pytest.raises(NumberTooLong, match="^cannot print an integer longer than 4300 digits$"):
        scalar_text(scalar(10**MAX_DIGITS))


def _outcome(function, value):
    """The function's result, or the (type, message, position) of its error."""
    try:
        return function(value)
    except Exception as e:
        return type(e), str(e), getattr(e, "position", None)


ORACLE = settings(max_examples=300, deadline=None)


@ORACLE
@given(st.text(alphabet="0123456789tzi+-*/^(). #", max_size=24))
def test_tokenizer_matches_reference(text):
    got = _outcome(_tokenize, text)
    assert got == _outcome(reference._tokenize, text)
    event("tokens" if isinstance(got, list) else got[1].split(" (at")[0])


RATIONALS = st.one_of(
    st.just(0), st.fractions(min_value=-5, max_value=5, max_denominator=3)
)
# one part shares a factor p with the common denominator d and the other does
# not, as (2 + 3i)/4 does, so the two parts reduce to different denominators
SHARED_FACTOR = st.builds(
    lambda pd, k, j, swap: GaussianRational(
        *(Fraction(pd[0] * k, pd[1]), Fraction(j, pd[1]))[:: -1 if swap else 1]),
    st.sampled_from([(2, 4), (2, 6), (3, 6), (3, 9)]),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
    st.sampled_from([-7, -5, -1, 1, 5, 7]),
    st.booleans(),
)
GAUSSIANS = st.one_of(st.builds(GaussianRational, RATIONALS, RATIONALS), SHARED_FACTOR)
POLYS = st.dictionaries(st.integers(0, 3), GAUSSIANS, max_size=3).map(Polynomial)
DENOMINATORS = st.one_of(
    st.just(Polynomial.one()),
    st.integers(1, 3).map(Polynomial.monomial),
    POLYS.map(lambda p: p + Polynomial.monomial(4)),
)


@st.composite
def superfunctions(draw):
    n = draw(st.integers(0, 3))
    indices = {idx for idx in draw(st.sets(st.integers(0, 7), max_size=4)) if idx < 1 << n}
    terms = {idx: RationalFunction(draw(POLYS), draw(DENOMINATORS)) for idx in indices}
    return SuperFunction("chart0", n, terms)


@ORACLE
@given(sf=superfunctions(), c=GAUSSIANS)
def test_printer_matches_reference(sf, c):
    assert superfunction_text(sf) == reference.superfunction_text(sf)
    assert scalar_text(c) == reference.scalar_text(c)
    for rf in sf.terms.values():
        coeffs = rf.laurent()
        shape = "one" if rf.den.degree() == 0 else "z^k" if coeffs is not None else "general"
        event("denominator %s" % shape)
        if any(a.re and a.im for a in rf.num.coeffs.values()):
            event("mixed numerator coefficient")
    event("scalar %s" % ("mixed" if c.re and c.im else "zero" if not c else "one part"))
    if c.a and c.b and (math.gcd(c.a, c.d) > 1) != (math.gcd(c.b, c.d) > 1):
        event("scalar with one part sharing a factor with d")


@ORACLE
@given(
    st.one_of(
        superfunctions().map(superfunction_text),
        st.text(alphabet="0123456789tzi+-*/^() ", max_size=24),
    )
)
@example("0")
@example("i")
@example("1/(t1 - t1)")
@example("1/(z + t1)")
@example("(t2 + t3)*t1")
@example("z^-3/(z - 1)*t1*t2")
@example("t1*z")
@example("t1*t2*z^-1")
@example("t2*(1 + z)")
def test_parser_matches_reference(text):
    got = _outcome(parse_superfunction, text)
    assert got == _outcome(reference.parse_superfunction, text)
    if isinstance(got, SuperFunction):
        event("value %s" % type(_Parser(text, None, "chart0").parse_expr()).__name__)
    else:
        event("error %s" % got[0].__name__)


# an odd factor times an even one multiplies a SuperFunction by a scalar
ODD_FIRST_PRODUCTS = [("t1*z", "z*t1"), ("t1*t2*z^-1", "z^-1*t1*t2"), ("t2*(1 + z)", "(z + 1)*t2")]


@pytest.mark.parametrize("text,coefficient_first", ODD_FIRST_PRODUCTS)
def test_odd_first_products_equal_their_coefficient_first_form(text, coefficient_first):
    got = parse_superfunction(text)
    assert got == parse_superfunction(coefficient_first)
    assert superfunction_text(got) == coefficient_first


def coded_expressions():
    """(case, text) of each expression in the coded CLI errors: a --field, or the
    right-hand side of a transition or pullback line."""
    line_rule = re.compile(r"(?:w|eta[0-9]|z|t[0-9]) = (.*)")
    for case, (command, source, *_) in sorted(CODED_INPUT_ERRORS.items()):
        if command.startswith("flow"):
            yield case, source
            continue
        for line in source.splitlines():
            if m := line_rule.fullmatch(line):
                yield case, m.group(1)


CODED_EXPRESSIONS = list(coded_expressions())


@pytest.mark.parametrize(
    "text", [text for _, text in CODED_EXPRESSIONS],
    ids=["%s-%d" % (case, k) for k, (case, _) in enumerate(CODED_EXPRESSIONS)],
)
def test_parser_matches_reference_on_coded_input_errors(text):
    got = _outcome(parse_superfunction, text)
    assert got == _outcome(reference.parse_superfunction, text)
