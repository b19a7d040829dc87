"""The sparse solver against the dense reference solver it replaced.

``dense_solve`` is the original solver kept verbatim as an oracle: dense
rows built per cap from ``RationalFunction`` sums, one dense ``kernel_basis``
over the whole system, and a second full solve at cap + 2.  Its
``kernel_basis`` is the dense row reduction of ``reference_linalg``, so the
oracle shares no elimination code with the solver.  The sparse solver
must give the same basis field by field, the same cap and the same clearing
exponent.

``diagonal_dims`` shares no code with either solver: it counts the global
fields of a split diagonal (1|n) manifold in closed form, so a fault in how
the compatibility system is formed, which both solvers would share, shows
as a wrong dimension.

``test_compatibility_rows_match_reference`` compares the rows themselves
with the parent's ``compatibility_rows`` of ``reference_liealg``, on drawn
Laurent transitions with mixed odd parts and nilpotent even terms.

``test_kernel_fields_match_reference`` compares the (kernel vector, field)
pairs of one solve with the parent's ``kernel_fields`` of
``reference_liealg``, which builds every coefficient through the
normalising constructors and sorts on ``Fraction`` keys.

``test_isomorphic_copies_keep_their_dimensions`` reads no solver code
either: it glues a diagonal manifold or nonsplit-2-2 again through drawn
chart automorphisms, so the copy's dimensions are the start's, known in
closed form, while its fields have many terms.  Two invariants of the
algebra must match the start's too: the dimension of the even fields with
a trivial reduced field, and, on the smaller copies, that of the span of
the odd-odd brackets.
"""

import functools
import io
from importlib import resources

import pytest
from hypothesis import event, example, given, settings, strategies as st

from supervec import liealg
from supervec.cli import main
from supervec.derivations import SuperDerivation
from supervec.errors import CapNotSaturated, NotLaurent, SystemTooLarge
from supervec.files import load_bundled_manifold, parse_manifold_text
from supervec.geometry import (
    CHART0,
    CHART1,
    KIND_C01,
    KIND_P1,
    GlobalVectorField,
    SuperManifoldData,
    laurent_terms,
)
from supervec.grassmann import PullbackData, SuperFunction, compose, idx_sort_key, idx_weight
from supervec.liealg import (
    SuperalgebraBasis,
    _compatibility_rows,
    default_cap,
    odd_derived_span,
    reduced_trivial_subspace,
    solve_global_fields,
    structure_constants,
)
from supervec.linalg import sparse_kernel_basis
from supervec.scalars import GR_ZERO, Polynomial, RationalFunction

from reference_geometry import pole_order_at
from reference_liealg import compatibility_rows, kernel_fields
from reference_linalg import kernel_basis

SYNTHETIC = {
    "ns33": "odd_dim = 2\n\n[transition]\nw = z^-1 + z^-4*t1*t2\neta1 = z^-3*t1\neta2 = z^-3*t2\n",
    "s222": "odd_dim = 3\n\n[transition]\nw = z^-1\n"
    "eta1 = z^-2*t1\neta2 = z^-2*t2\neta3 = z^-2*t3\n",
    # a (1|1) manifold with a non-real transition coefficient, so its basis,
    # brackets and weights are over Q(i) and not over Q
    "k2i": "odd_dim = 1\n\n[transition]\nw = z^-1\neta1 = z^-2*t1 + i*z^-1*t1\n",
}

# An isomorphic copy of the split diagonal manifold k = (4, 4, -2), with mixed
# odd parts and nilpotent even terms: dims (22, 27) at cap 20, and rows whose
# elimination in the order they are built fills in.  Kept out of SYNTHETIC,
# whose every entry the dense oracle solves.
ISO = (
    "[manifold]\nname = iso\nodd_dim = 3\n\n[transition]\n"
    "w = z^-1 - (2*z^6 - 4*z^5 + 3*z^4 + z^3 - 7*z^2 + 3*z + 2)/z^4*t1*t2"
    " + (z - 2)/z^4*t1*t3 + (z^4 - 3*z^3 + 7*z^2 - 3*z - 2)/z^4*t2*t3\n"
    "eta1 = z^-4*t1 - (2*z - 2)/z^3*t2 + (4*z^2 - 4*z + 8)/z^5*t1*t2*t3\n"
    "eta2 = z^-4*t2\n"
    "eta3 = (2*z^4 - 2*z^3 - z^2)*t1 - (4*z^12 - 8*z^11 + 2*z^10 + 2*z^9 + 2*z^2 - z + 2)/z^6*t2"
    " + z^2*t3 - (z^2 - 6*z + 8)/z^9*t1*t2*t3\n"
)

# An isomorphic copy of the diagonal k = (1, 2), dims (7, 7), whose even image
# carries z^-5 in its nilpotent part, which the default cap's budget does not count.
ISO_CAP = (
    "[manifold]\nname = iso-cap\nodd_dim = 2\n\n[transition]\n"
    "w = z^-1 - (z^2 + 2)/z^5*t1*t2\n"
    "eta1 = -1*(6*z^7 - z^6 + z^5 - z^4 - 13*z^3 - z^2 - 3*z + 1)/z^4*t1"
    " + (2*z^5 - z^4 - 4*z + 1)/z^4*t2\n"
    "eta2 = -1*(3*z^2 + z + 1)/z^2*t1 + z^-2*t2\n"
)


def dense_solve(manifold, cap=None):
    if manifold.kind == KIND_C01:
        return solve_global_fields(manifold)
    if cap is None:
        cap = default_cap(manifold)
    evens, n_even = _dense_solve_parity(manifold, cap, 0)
    odds, n_odd = _dense_solve_parity(manifold, cap, 1)
    evens2, _ = _dense_solve_parity(manifold, cap + 2, 0)
    odds2, _ = _dense_solve_parity(manifold, cap + 2, 1)
    if (len(evens), len(odds)) != (len(evens2), len(odds2)):
        raise CapNotSaturated(cap, (len(evens), len(odds)), (len(evens2), len(odds2)))
    return SuperalgebraBasis(manifold, evens, odds, cap, max(n_even, n_odd))


def _indices_of_parity(n, parity):
    return [i for i in sorted(range(1 << n), key=idx_sort_key) if idx_weight(i) % 2 == parity]


def _dense_solve_parity(manifold, cap, parity):
    n = manifold.odd_dim
    chi = manifold.transition
    same = _indices_of_parity(n, parity)
    flip = _indices_of_parity(n, (parity + 1) % 2)

    columns = []
    for chart in (0, 1):
        for comp in [-1] + list(range(n)):
            for nu in (same if comp == -1 else flip):
                for e in range(cap + 1):
                    columns.append((chart, comp, nu, e))
    col_index = {key: c for c, key in enumerate(columns)}

    w_powers = [SuperFunction.one(CHART0, n)]
    for _ in range(cap):
        w_powers.append(w_powers[-1] * chi.even_image)
    odd_products = {nu: chi.odd_product(nu) for nu in set(same) | set(flip)}

    coords = [chi.even_image] + list(chi.odd_images)
    d_even = [img.d_even() for img in coords]
    d_odd = [[img.d_odd(j) for j in range(n)] for img in coords]

    rows = {}

    def put(eq, contribution, col):
        for mu, rf in contribution.terms.items():
            rows.setdefault((eq, mu), {}).setdefault(col, RationalFunction.zero())
            rows[(eq, mu)][col] = rows[(eq, mu)][col] + rf

    for (chart, comp, nu, e), col in col_index.items():
        if chart == 1:
            image = w_powers[e] * odd_products[nu]
            eq = 0 if comp == -1 else comp + 1
            put(eq, image, col)
        else:
            mono = SuperFunction(CHART0, n, {nu: RationalFunction.monomial(e)})
            for eq in range(n + 1):
                target = d_even[eq] if comp == -1 else d_odd[eq][comp]
                if target:
                    put(eq, -(mono * target), col)

    matrix = []
    clearing = 0
    for eq in range(n + 1):
        for mu in sorted({m for (e, m) in rows if e == eq}, key=idx_sort_key):
            entries = rows[(eq, mu)]
            shift = 0
            top = 0
            for rf in entries.values():
                if rf:
                    assert len(rf.den.coeffs) == 1
                    shift = max(shift, int(rf.den.degree()))
                    top = max(top, int(rf.num.degree()) if rf.num else 0)
            clearing = max(clearing, shift)
            width = shift + top + 1
            power_rows = [[GR_ZERO] * len(columns) for _ in range(width)]
            for col, rf in entries.items():
                if not rf:
                    continue
                offset = shift - int(rf.den.degree())
                for exp, c in rf.num.coeffs.items():
                    power_rows[exp + offset][col] = c
            matrix.extend(r for r in power_rows if any(r))

    kern = kernel_basis(matrix, len(columns))
    fields = []
    for vec in kern:
        ders = []
        for chart_id, chart_no in ((CHART0, 0), (CHART1, 1)):
            even_terms = {}
            odd_terms = [dict() for _ in range(n)]
            for (chart, comp, nu, e), c in zip(columns, vec):
                if chart != chart_no or not c:
                    continue
                bucket = even_terms if comp == -1 else odd_terms[comp]
                poly = bucket.setdefault(nu, {})
                poly[e] = c
            even = SuperFunction(
                chart_id,
                n,
                {nu: RationalFunction(Polynomial(p)) for nu, p in even_terms.items()},
            )
            odds = [
                SuperFunction(
                    chart_id,
                    n,
                    {nu: RationalFunction(Polynomial(p)) for nu, p in terms.items()},
                )
                for terms in odd_terms
            ]
            ders.append(SuperDerivation(chart_id, n, even, odds))
        fields.append((vec, GlobalVectorField(manifold, ders[0], ders[1])))

    def sort_key(item):
        vec, field = item
        even_coeff = field.chart0_der.even_coeff
        top_weight = max((idx_weight(i) for i in even_coeff.terms), default=0)
        return (top_weight, tuple(c.sort_key() for c in vec))

    fields.sort(key=sort_key)
    return [field for _, field in fields], clearing


def assert_same_basis(got, want):
    assert got.dims == want.dims
    assert got.even_basis == want.even_basis
    assert got.odd_basis == want.odd_basis
    assert got.cap_used == want.cap_used
    assert got.clearing_exponent == want.clearing_exponent


@pytest.mark.parametrize(
    "name",
    ["k-1", "k0", "k1", "k2", "k3", "k5", "split-2-2", "split-3-1", "nonsplit-2-2", "c01"],
)
def test_sparse_solver_matches_dense_on_bundled(manifolds, basis_cache, name):
    assert_same_basis(basis_cache(name), dense_solve(manifolds[name]))


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_sparse_solver_matches_dense_on_synthetic(name):
    manifold = parse_manifold_text("[manifold]\nname = %s\n%s" % (name, SYNTHETIC[name]))
    assert_same_basis(solve_global_fields(manifold), dense_solve(manifold))


def test_sparse_solver_matches_dense_at_explicit_caps(manifolds):
    for name, cap in (("k2", 6), ("nonsplit-2-2", 9)):
        manifold = manifolds[name]
        assert_same_basis(solve_global_fields(manifold, cap), dense_solve(manifold, cap))


def test_saturation_payload_matches_dense(manifolds):
    payloads = []
    for solve in (solve_global_fields, dense_solve):
        with pytest.raises(CapNotSaturated) as info:
            solve(manifolds["k5"], cap=3)
        payloads.append((info.value.cap, info.value.dims, info.value.dims_next, info.value.message))
    assert payloads[0] == payloads[1]


def test_default_cap_rises_until_it_saturates(tmp_path):
    path = tmp_path / "iso-cap.smf"
    path.write_text(ISO_CAP)
    out, err = io.StringIO(), io.StringIO()
    assert main(["vec", "--manifold", str(path), "--machine"], out, err) == 0
    lines = out.getvalue().splitlines()
    assert "cap=9" in lines
    assert [line for line in lines if line.startswith("dim_")] == ["dim_even=7", "dim_odd=7"]
    assert err.getvalue() == ""


def test_default_cap_retry_checks_the_column_limit_first(monkeypatch):
    """The cap-9 retry on iso-cap is refused before its rows are built."""
    manifold = parse_manifold_text(ISO_CAP)
    caps = []
    rows = liealg._compatibility_rows
    monkeypatch.setattr(liealg, "_compatibility_rows", lambda m, cap: caps.append(cap) or rows(m, cap))
    monkeypatch.setattr(liealg, "MAX_COLUMNS", liealg._column_count(2, 8))
    with pytest.raises(SystemTooLarge) as info:
        solve_global_fields(manifold)
    assert caps == [8]
    assert info.value.message.startswith("compatibility system at cap 9 would have 288 columns")


def test_non_laurent_coefficient_is_a_coded_error():
    rf = RationalFunction(Polynomial.one(), Polynomial({0: 1, 1: 1}))
    with pytest.raises(NotLaurent):
        laurent_terms(SuperFunction.from_rf(CHART0, 1, rf).terms)
    # built without from_transition's checks, so the default cap meets it first
    even = SuperFunction.from_rf(CHART0, 1, RationalFunction.monomial(-1))
    odds = [SuperFunction(CHART0, 1, {1: rf})]
    manifold = SuperManifoldData("x", 1, KIND_P1, PullbackData(CHART0, CHART1, even, odds))
    with pytest.raises(NotLaurent):
        solve_global_fields(manifold)


def reference_default_cap(manifold):
    """The cap before ``laurent()``: pole orders at 0 by repeated division, at
    infinity from the degrees."""
    budget = 0
    for img in manifold.transition.odd_images:
        worst = 0
        for rf in img.terms.values():
            at_infinity = max(0, int(rf.num.degree()) - int(rf.den.degree()))
            worst = max(worst, pole_order_at(rf, GR_ZERO), at_infinity)
        budget += worst
    return 2 + budget


laurent_sums = st.dictionaries(
    st.integers(-4, 4), st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=3
).map(lambda terms: sum((RationalFunction.monomial(k, c) for k, c in terms.items()),
                        RationalFunction.zero()))


@st.composite
def laurent_manifolds(draw):
    n = draw(st.integers(1, 3))
    odds = []
    for j in range(n):
        # a triangular degree-1 part, so the odd part is never singular
        terms = {1 << i: draw(laurent_sums) for i in range(j) if draw(st.booleans())}
        terms[1 << j] = draw(laurent_sums)
        if n == 3 and draw(st.booleans()):
            terms[7] = draw(laurent_sums)
        odds.append(SuperFunction(CHART0, n, terms))
    even = {0: RationalFunction.monomial(-1)}
    if n >= 2 and draw(st.booleans()):
        # a nilpotent even term, so w^e has Taylor terms past the first
        even[3] = draw(laurent_sums)
    even = SuperFunction(CHART0, n, even)
    return SuperManifoldData.from_transition("t", n, PullbackData(CHART0, CHART1, even, odds))


@given(laurent_manifolds())
def test_default_cap_matches_pole_orders(manifold):
    assert default_cap(manifold) == reference_default_cap(manifold)


def one_fewer(ks, nu):
    """Whether theta^nu d/dz loses its constant field: k_nu = 2 and k_j != 0 for
    some j not in nu."""
    k_nu = sum(k for j, k in enumerate(ks) if nu >> j & 1)
    return k_nu == 2 and any(k for j, k in enumerate(ks) if not nu >> j & 1)


def diagonal_dims(ks):
    """(even, odd) dimensions of the global fields of the split (1|n) manifold
    with eta_j = z^(-k_j) theta_j, in closed form.

    Write k_nu for the sum of the k_j over j in nu.  The field theta^nu f d/dz
    reads -w^(2 - k_nu) f(1/w) eta^nu d/dw on chart 1, so f may have degree up
    to 2 - k_nu: max(3 - k_nu, 0) fields of parity |nu|, since h0(O(d)) =
    max(d + 1, 0) on P^1.  It also has, for each j not in nu, the term
    -k_j w^(1 - k_nu) f(1/w) eta^nu eta_j d/deta_j, whose top coefficient must
    cancel against a theta^(nu + j) d/dtheta_j coefficient of degree 1 - k_nu;
    at k_nu = 2 there is none, so the constant f is not global when such a
    k_j is nonzero: one field fewer.  Each theta^nu g d/dtheta_j reads
    w^(k_j - k_nu) g(1/w) eta^nu d/deta_j: max(k_j - k_nu + 1, 0) fields of
    parity |nu| + 1.
    """
    dims = [0, 0]
    for nu in range(1 << len(ks)):
        k_nu = sum(k for j, k in enumerate(ks) if nu >> j & 1)
        dims[nu.bit_count() & 1] += max(3 - k_nu, 0) - one_fewer(ks, nu)
        dims[(nu.bit_count() + 1) & 1] += sum(max(k - k_nu + 1, 0) for k in ks)
    return tuple(dims)


def diagonal_text(ks):
    etas = "".join("eta%d = z^%d*t%d\n" % (j, -k, j) for j, k in enumerate(ks, 1))
    return "[manifold]\nname = diagonal\nodd_dim = %d\n\n[transition]\nw = z^-1\n%s" % (
        len(ks), etas)


# the examples are split-2-2, s1111 and every k from -3 to 7 at n = 1
@settings(deadline=None, max_examples=20)
@given(st.lists(st.integers(-4, 6), min_size=1, max_size=4))
@example([2, 2])
@example([1, 1, 1, 1])
@example([-3])
@example([-2])
@example([-1])
@example([0])
@example([1])
@example([2])
@example([3])
@example([4])
@example([5])
@example([6])
@example([7])
def test_diagonal_dims_match_the_closed_form(tmp_path_factory, ks):
    expected = diagonal_dims(ks)
    text = diagonal_text(ks)
    assert solve_global_fields(parse_manifold_text(text)).dims == expected
    path = tmp_path_factory.getbasetemp() / "diagonal.smf"
    path.write_text(text)
    out = io.StringIO()
    assert main(["vec", "--manifold", str(path), "--machine"], out, io.StringIO()) == 0
    dim_lines = [line for line in out.getvalue().splitlines() if line.startswith("dim_")]
    assert dim_lines == ["dim_even=%d" % expected[0], "dim_odd=%d" % expected[1]]
    event("n = %d" % len(ks))
    if any(one_fewer(ks, nu) for nu in range(1 << len(ks))):
        event("one fewer field for some nu")


def _at_default_caps(test):
    """Add nonsplit-2-2, ns33, s1111, k2i and iso at their default caps as examples."""
    for manifold in (
        load_bundled_manifold("nonsplit-2-2"),
        parse_manifold_text("[manifold]\nname = ns33\n" + SYNTHETIC["ns33"]),
        parse_manifold_text(diagonal_text([1, 1, 1, 1])),
        parse_manifold_text("[manifold]\nname = k2i\n" + SYNTHETIC["k2i"]),
        parse_manifold_text(ISO),
    ):
        test = example(manifold, default_cap(manifold))(test)
    return test


@settings(deadline=None)
@given(laurent_manifolds(), st.integers(0, 3))
@_at_default_caps
def test_compatibility_rows_match_reference(manifold, cap):
    """The library's rows are the reference's ``SuperFunction`` rows, column
    for column and row for row."""
    assert _compatibility_rows(manifold, cap) == compatibility_rows(manifold, cap)
    chi = manifold.transition
    event("n = %d" % manifold.odd_dim)
    if chi.even_image.nilpotent_part():
        event("nilpotent even term")
    if any(len(img.terms) > 1 for img in chi.odd_images):
        event("mixed odd image")


K100 = parse_manifold_text(diagonal_text([100]))
S222 = parse_manifold_text("[manifold]\nname = s222\n" + SYNTHETIC["s222"])


@settings(deadline=None)
@given(laurent_manifolds(), st.integers(0, 3))
@example(K100, default_cap(K100))
@example(S222, default_cap(S222))
@_at_default_caps
def test_kernel_fields_match_reference(manifold, cap):
    """The library's (kernel vector, field) pairs are the reference's, in the
    same order, with equal fields whose coefficients are polynomials with no
    zero term."""
    columns, rows = _compatibility_rows(manifold, cap)
    kernel = sparse_kernel_basis(sorted(rows.values(), key=len), len(columns))
    pairs = liealg._kernel_fields(manifold, columns, kernel)
    assert pairs == kernel_fields(manifold, columns, kernel)
    for _, field in pairs:
        for der in (field.chart0_der, field.chart1_der):
            for rf in (rf for coeff in der.coeffs for rf in coeff.terms.values()):
                assert rf.den == Polynomial.one()
                assert rf.num.coeffs and all(rf.num.coeffs.values())
    event("n = %d" % manifold.odd_dim)
    if any(x.d != 1 for vec in kernel for x in vec.values()):
        event("non-integer kernel entry")


NONSPLIT = resources.files("supervec").joinpath("manifolds").joinpath(
    "nonsplit-2-2.smf").read_text()


def elementary_pullback(chart, n, step):
    """The chart self-pullback of one elementary step, which fixes the reduced
    even coordinate x: ("shear", i, j, f) sends theta_i to theta_i + f theta_j,
    ("even", i, j, f) sends x to x + f theta_i theta_j, and ("scale", i, c)
    sends theta_i to c theta_i; f is a polynomial in x by its coefficients."""
    kind, i, *args = step
    images = [SuperFunction.coordinate(chart, n)] + [SuperFunction.odd_var(chart, n, j)
                                                    for j in range(n)]
    if kind == "scale":
        images[i + 1] = images[i + 1].scale(args[0])
    else:
        j, f = args
        u, nu = (i + 1, 1 << j) if kind == "shear" else (0, 1 << i | 1 << j)
        f = RationalFunction(Polynomial(dict(enumerate(f))))
        images[u] = images[u] + SuperFunction(chart, n, {nu: f})
    return PullbackData(chart, chart, images[0], images[1:])


@st.composite
def elementary_steps(draw, n):
    """An elementary step on (1|n): f of degree <= 3 with coefficients in -2..2,
    c in {-2, -1, 2}.  The steps' inverses are steps: f -> -f, c -> 1/c."""
    kind = draw(st.sampled_from(["scale"] + ["shear", "even"] * (n >= 2)))
    if kind == "scale":
        return kind, draw(st.integers(0, n - 1)), draw(st.sampled_from([-2, -1, 2]))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    f = tuple(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4)))
    return (kind, i, j, f) if kind == "shear" else (kind, min(i, j), max(i, j), f)


@st.composite
def isomorphic_copies(draw):
    """(manifold text, its known dimensions, rounds): a diagonal (1|n) manifold
    with n <= 3, or nonsplit-2-2, and one to four rounds (chart-0 step,
    chart-1 step) to glue it again with."""
    if draw(st.booleans()):
        text, dims, n = NONSPLIT, (6, 6), 2
    else:
        ks = draw(st.lists(st.integers(-2, 4), min_size=1, max_size=3))
        text, dims, n = diagonal_text(ks), diagonal_dims(ks), len(ks)
    step = elementary_steps(n)
    return text, dims, draw(st.lists(st.tuples(step, step), min_size=1, max_size=4))


@functools.lru_cache(maxsize=None)
def start_invariants(text):
    """The dimension of ``reduced_trivial_subspace`` of the manifold, and that
    of ``odd_derived_span`` if it has at most 20 fields, else None."""
    basis = solve_global_fields(parse_manifold_text(text))
    derived = odd_derived_span(structure_constants(basis))[0] if sum(basis.dims) <= 20 else None
    return reduced_trivial_subspace(basis)[0], derived


@settings(deadline=None, max_examples=150)
@given(isomorphic_copies())
@example((ISO, (22, 27), []))
@example((ISO_CAP, (7, 7), []))
def test_isomorphic_copies_keep_their_dimensions(case):
    """Each round is chi -> q1 o chi o p0 for a chart-0 step p0 and a chart-1
    step q1: the same manifold in new coordinates, so the default cap must
    find its known dimensions.  The steps fix the reduced coordinate, so the
    even fields with a trivial reduced field keep their dimension, and the
    odd-odd brackets span as much as the start's (checked for m <= 20)."""
    text, dims, rounds = case
    start = parse_manifold_text(text)
    n, chi = start.odd_dim, start.transition
    for p0, q1 in rounds:
        chi = compose(compose(elementary_pullback(CHART1, n, q1), chi),
                      elementary_pullback(CHART0, n, p0))
        event("%s and %s steps" % (p0[0], q1[0]))
    manifold = SuperManifoldData.from_transition("copy", n, chi)
    basis = solve_global_fields(manifold)
    assert basis.dims == dims
    if basis.cap_used > default_cap(manifold):
        event("cap retry")
    trivial, derived = start_invariants(text)
    assert reduced_trivial_subspace(basis)[0] == trivial
    event("trivial reduced part: %s" % ("none" if not trivial else "some"))
    if derived is not None:
        assert odd_derived_span(structure_constants(basis))[0] == derived
        event("odd-odd span compared, %s" % ("zero" if not derived else "nonzero"))
