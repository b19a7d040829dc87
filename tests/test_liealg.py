import functools
import math
import pathlib
import random
from collections import Counter, defaultdict
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings, strategies as st

from conftest import bundled_manifold_names, matmul2, rand_sl2
import reference_liealg
from test_solver_oracle import ISO, SYNTHETIC

from supervec.derivations import SuperDerivation, bracket
from supervec import liealg, linalg
from supervec.errors import (
    CapNotSaturated,
    InputError,
    MathDomainError,
    NegativeCap,
    NotClosed,
    NotDiagonalizable,
    NotGlobal,
    NotInSpan,
    OddCartan,
    SystemTooLarge,
)
from supervec.geometry import (
    CHART0,
    CHART1,
    SuperManifoldData,
    mobius_lift,
    sl2_embedding,
)
from supervec.files import load_bundled_manifold, parse_manifold_text
from supervec.grassmann import PullbackData, SuperFunction, compose, idx_mul
from supervec.liealg import (
    StructureConstants,
    SuperalgebraBasis,
    adjoint_matrix,
    conjugation_action,
    expand_in_basis,
    gr_comparison,
    jacobi_check,
    odd_derived_span,
    reduced_trivial_subspace,
    solve_global_fields,
    structure_constants,
    weight_decomposition,
)
from supervec.linalg import mat_mul
from supervec.scalars import GR_ONE, GR_ZERO, GaussianRational, Polynomial, RationalFunction


# the (1|4) split with every eta_j = z^-1 t_j, whose basis is (19, 16)
S1111 = "odd_dim = 4\n\n[transition]\nw = z^-1\n" + "".join(
    "eta%d = z^-1*t%d\n" % (j, j) for j in range(1, 5)
)


@functools.cache
def synthetic_basis(name):
    text = S1111 if name == "s1111" else SYNTHETIC[name]
    return solve_global_fields(parse_manifold_text("[manifold]\nname = %s\n%s" % (name, text)))


def zm(k):
    return RationalFunction.monomial(k)


def sf(n, terms, chart=CHART0):
    return SuperFunction(chart, n, terms)


def split_manifold(k1, k2):
    even = sf(2, {0: zm(-1)})
    odds = [sf(2, {1: zm(-k1)}), sf(2, {2: zm(-k2)})]
    return SuperManifoldData.from_transition(
        "split-%d-%d" % (k1, k2), 2, PullbackData(CHART0, CHART1, even, odds)
    )


def table_bracket(structure, u, v):
    m = len(structure.basis.fields)
    out = [GR_ZERO] * m
    for i, ci in enumerate(u):
        if not ci:
            continue
        for j, cj in enumerate(v):
            if not cj:
                continue
            for k, d in enumerate(structure.table[(i, j)]):
                if d:
                    out[k] = out[k] + ci * cj * d
    return out


# ---------------------------------------------------------------------------
# dimensions


@pytest.mark.parametrize("k", [-1, 0, 1, 2, 3, 5])
def test_line_family_dimensions(manifolds, basis_cache, k):
    name = "k%d" % k if k >= 0 else "k-1"
    basis = basis_cache(name)
    assert len(basis.even_basis) == 4
    assert len(basis.odd_basis) == max(0, k + 1) + max(0, 3 - k)


def test_point_basis(basis_cache):
    basis = basis_cache("c01")
    assert basis.dims == (1, 1)
    even = basis.even_basis[0].chart0_der
    odd = basis.odd_basis[0].chart0_der
    assert even.odd_coeffs[0] == SuperFunction.odd_var("c01", 1, 0)
    assert odd.odd_coeffs[0] == SuperFunction.one("c01", 1)
    assert not even.even_coeff and not odd.even_coeff


def test_nonsplit_dimensions(basis_cache):
    assert basis_cache("nonsplit-2-2").dims == (6, 6)


def test_split_31_dimensions(basis_cache):
    assert basis_cache("split-3-1").dims == (8, 8)


def test_compatibility_holds_for_every_basis_field(manifolds, basis_cache):
    m = manifolds["nonsplit-2-2"]
    chi = m.transition
    coords = [SuperFunction.coordinate(CHART1, 2)] + [
        SuperFunction.odd_var(CHART1, 2, j) for j in range(2)
    ]
    images = [chi.even_image, *chi.odd_images]
    for field in basis_cache("nonsplit-2-2").fields:
        for coord, image in zip(coords, images):
            assert chi.apply(field.chart1_der.apply(coord)) == field.chart0_der.apply(image)


def test_saturation_error_when_cap_too_small(manifolds):
    with pytest.raises(CapNotSaturated) as info:
        solve_global_fields(manifolds["k5"], cap=3)
    assert info.value.cap == 3
    assert info.value.dims == (4, 2)
    assert info.value.dims_next == (4, 6)


def test_negative_cap_rejected_before_any_rows(manifolds, monkeypatch):
    def no_rows(*args):
        raise AssertionError("rows built for a negative cap")

    monkeypatch.setattr(liealg, "_compatibility_rows", no_rows)
    for name in ("k2", "c01"):
        for cap in (-1, -3):
            with pytest.raises(NegativeCap) as info:
                solve_global_fields(manifolds[name], cap=cap)
            assert isinstance(info.value, InputError)
    assert solve_global_fields(manifolds["c01"], cap=0).dims == (1, 1)


def k_family(k):
    return parse_manifold_text(
        "[manifold]\nname = k%d\nodd_dim = 1\n\n[transition]\nw = z^-1\neta1 = z^-%d*t1\n"
        % (k, k)
    )


def test_column_estimate_covers_the_system(manifolds):
    synthetic = dict(SYNTHETIC, s1111=S1111)
    tested = [m for m in manifolds.values() if m.kind != "c01"]
    tested += [k_family(50), k_family(100)]
    tested += [parse_manifold_text("[manifold]\nname = %s\n%s" % kv) for kv in synthetic.items()]
    assert len(tested) == 15
    for m in tested:
        cap = liealg.default_cap(m)
        columns, _ = liealg._compatibility_rows(m, cap)
        assert liealg._column_count(m.odd_dim, cap) >= len(columns), m.name


def test_huge_system_rejected_before_any_rows(manifolds, monkeypatch):
    def no_rows(*args):
        raise AssertionError("rows built above the column limit")

    monkeypatch.setattr(liealg, "_compatibility_rows", no_rows)
    huge = k_family(99999999999999999999)
    for m, cap in ((huge, None), (manifolds["k2"], 10**9)):
        with pytest.raises(SystemTooLarge) as info:
            solve_global_fields(m, cap)
        assert isinstance(info.value, MathDomainError)
        estimate = liealg._column_count(1, cap or liealg.default_cap(m))
        assert estimate > liealg.MAX_COLUMNS
        assert "%d columns" % estimate in info.value.message
        assert str(liealg.MAX_COLUMNS) in info.value.message


def test_k3000_solves_below_the_column_limit():
    m = k_family(3000)
    assert liealg._column_count(1, liealg.default_cap(m)) == 24040 <= liealg.MAX_COLUMNS
    assert solve_global_fields(m).dims == (4, 3001)


def test_one_system_for_both_parities(manifolds, monkeypatch):
    calls = Counter()

    def counting(name):
        original = getattr(liealg, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(liealg, name, wrapper)

    counting("_compatibility_rows")
    counting("sparse_kernel_basis")
    basis = solve_global_fields(manifolds["k2"])
    assert calls == {"_compatibility_rows": 1, "sparse_kernel_basis": 1}
    assert basis.dims == (4, 4)
    assert [f.parity for f in basis.fields] == [0] * 4 + [1] * 4


def test_explicit_cap_matches_default(manifolds, basis_cache):
    default = basis_cache("k2")
    explicit = solve_global_fields(manifolds["k2"], cap=default.cap_used + 2)
    assert default.dims == explicit.dims


# ---------------------------------------------------------------------------
# structure constants and bracket goldens


def test_point_bracket_table(structure_cache):
    structure = structure_cache("c01")
    assert structure.table[(0, 1)] == (GR_ZERO, GaussianRational(-1))
    assert structure.table[(1, 1)] == (GR_ZERO, GR_ZERO)
    assert jacobi_check(structure)


def test_basis_with_repeated_field_is_not_closed(basis_cache):
    basis = basis_cache("k1")
    evens = basis.even_basis + basis.even_basis[:1]
    with pytest.raises(NotClosed, match="^solver produced linearly dependent basis fields$"):
        SuperalgebraBasis(
            basis.manifold, evens, basis.odd_basis, basis.cap_used, basis.clearing_exponent
        )


def without_field(basis, index):
    """The basis with its field ``index`` (even fields first) left out."""
    fields = basis.fields[:index] + basis.fields[index + 1:]
    n_even = len(basis.even_basis) - (index < len(basis.even_basis))
    return SuperalgebraBasis(
        basis.manifold, fields[:n_even], fields[n_even:], basis.cap_used, basis.clearing_exponent
    )


def structure_outcome(build, basis):
    try:
        return build(basis).table
    except NotClosed as exc:
        return ("NotClosed", exc.message)


def test_bracket_leaving_the_span_is_not_closed(basis_cache):
    # without field 0 of k1 a bracket has a term in a slot no field uses;
    # without field 3 every bracket term is in a used slot, one vector is off
    # the span
    basis = basis_cache("k1")
    for index in (0, 3):
        smaller = without_field(basis, index)
        with pytest.raises(NotClosed, match="left the span"):
            structure_constants(smaller)
        expected = structure_outcome(reference_liealg.reference_structure_constants, smaller)
        assert structure_outcome(structure_constants, smaller) == expected


@pytest.mark.parametrize("escape", [False, True], ids=["parity", "span-first"])
def test_parity_is_checked_on_slot_keys_after_the_span(basis_cache, monkeypatch, escape):
    # the first bracket, [b_0, b_0] of two even fields, is given the slot terms
    # of the first odd field: it lies in the span, with the wrong parity;
    # with ``escape`` the last bracket has a term in a slot no field uses
    basis = basis_cache("k1")
    m, slot_bracket, calls = len(basis), liealg._slot_bracket, []

    def patched(*args):
        calls.append(args)
        if len(calls) == 1:
            return dict(basis._terms[len(basis.even_basis)])
        if escape and len(calls) == m * m:
            return {(0, 0, -1): GR_ONE}
        return slot_bracket(*args)

    monkeypatch.setattr(liealg, "_slot_bracket", patched)
    message = "left the span" if escape else "^bracket violates parity additivity$"
    with pytest.raises(NotClosed, match=message):
        structure_constants(basis)
    assert len(calls) == m * m  # the parity verdict waits for every bracket


def test_even_self_bracket_vanishes(structure_cache):
    structure = structure_cache("k1")
    n_even = len(structure.basis.even_basis)
    for i in range(n_even):
        assert not any(structure.table[(i, i)])


def _der(n, even_terms, odd_terms_list):
    return SuperDerivation(
        CHART0, n, sf(n, even_terms), [sf(n, terms) for terms in odd_terms_list]
    )


def test_k1_bracket_goldens_after_basis_change(basis_cache, structure_cache):
    basis = basis_cache("k1")
    structure = structure_cache("k1")
    one = RationalFunction.one()
    z = RationalFunction.z()
    z2 = RationalFunction(Polynomial.monomial(2))
    # odd generators and the displayed values of their pairwise brackets
    d_theta = _der(1, {}, [{0: one}])
    z_d_theta = _der(1, {}, [{0: z}])
    theta_dz = _der(1, {1: one}, [{}])
    z_theta_dz = _der(1, {1: z}, [{}])
    goldens = [
        (d_theta, theta_dz, _der(1, {0: one}, [{}])),
        (z_d_theta, theta_dz, _der(1, {0: z}, [{1: one}])),
        (d_theta, z_theta_dz, _der(1, {0: z}, [{}])),
        (z_d_theta, z_theta_dz, _der(1, {0: z2}, [{1: z}])),
    ]
    gens = [x for x, y, _ in goldens[:2]] + [theta_dz, z_theta_dz]
    coeffs = expand_in_basis(basis, gens + [rhs for _, _, rhs in goldens])
    gen_coeffs = dict(zip(["dt", "zdt", "tdz", "ztdz"], coeffs[:4]))
    rhs_coeffs = coeffs[4:]
    pairs = [("dt", "tdz"), ("zdt", "tdz"), ("dt", "ztdz"), ("zdt", "ztdz")]
    for (left, right), rhs in zip(pairs, rhs_coeffs):
        got = table_bracket(structure, gen_coeffs[left], gen_coeffs[right])
        assert got == list(rhs)
    # and the direct oracle agrees
    for x, y, expected in goldens:
        assert bracket(x, y) == expected


SMALL_COEFFS = [GaussianRational(c) for c in (1, -1, 2, -3)] + [
    GaussianRational(0, 1),
    GaussianRational(Fraction(1, 2), -1),
]


@st.composite
def chart0_fields(draw, n, parity):
    """A polynomial chart-0 field of the given parity on (1|n), possibly zero."""
    coeff = st.sampled_from(SMALL_COEFFS)
    poly = st.dictionaries(st.integers(0, 3), coeff, min_size=1, max_size=2)
    coeffs = []
    for comp in range(n + 1):
        # theta^nu d/dz has the parity of nu, theta^nu d/dtheta_j the opposite
        nus = [nu for nu in range(1 << n) if (nu.bit_count() + (comp > 0)) % 2 == parity]
        terms = draw(st.dictionaries(st.sampled_from(nus), poly, max_size=2))
        coeffs.append(sf(n, {nu: RationalFunction(Polynomial(p)) for nu, p in terms.items()}))
    return SuperDerivation(CHART0, n, coeffs[0], coeffs[1:])


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4), st.integers(0, 1), st.integers(0, 1), st.booleans(), st.data())
def test_slot_bracket_matches_superderivation_bracket(n, px, py, same, data):
    x = data.draw(chart0_fields(n, px))
    y = x if same and px == py else data.draw(chart0_fields(n, py))
    products = [[idx_mul(a, b) for b in range(1 << n)] for a in range(1 << n)]
    both_odd = x.parity() and y.parity()
    terms = [liealg._field_terms(liealg._slot_terms(der), n) for der in (x, y)]
    got = liealg._slot_bracket(*terms, both_odd, products)
    assert got == liealg._slot_terms(x.bracket(y))
    event("parities %d%d, %s" % (x.parity(), y.parity(), "nonzero" if got else "vanishes"))


def test_slot_bracket_matches_superderivation_bracket_on_dense_fields():
    """Every ordered pair of the five iso basis fields with the most slot terms,
    where a coefficient has many more terms than ``chart0_fields`` draws."""
    basis = solve_global_fields(parse_manifold_text(ISO))
    n = basis.manifold.odd_dim
    products = [[idx_mul(a, b) for b in range(1 << n)] for a in range(1 << n)]
    dense = sorted(range(len(basis)), key=lambda i: -len(basis._terms[i]))[:5]
    assert min(len(basis._terms[i]) for i in dense) > 50
    terms = {i: liealg._field_terms(basis._terms[i], n) for i in dense}
    for i in dense:
        for j in dense:
            x, y = basis.fields[i], basis.fields[j]
            got = liealg._slot_bracket(terms[i], terms[j], x.parity and y.parity, products)
            assert got == liealg._slot_terms(x.chart0_der.bracket(y.chart0_der))


def test_structure_constants_match_reference(manifolds, basis_cache):
    bases = [basis_cache(name) for name in manifolds]
    bases += [synthetic_basis("s222"), synthetic_basis("s1111")]
    # k2 without its last odd field is a smaller basis that still closes
    bases.append(without_field(basis_cache("k2"), 7))
    for basis in bases:
        expected = reference_liealg.reference_structure_constants(basis).table
        assert structure_constants(basis).table == expected


def test_jacobi_on_all_bundled_tables(structure_cache):
    for name in ("k-1", "k0", "k1", "k2", "k3", "k5", "split-2-2", "split-3-1", "nonsplit-2-2", "c01"):
        assert jacobi_check(structure_cache(name))


def reference_jacobi_check(structure):
    """The full-triple Jacobi check that the sorted-triple loop replaced."""
    basis = structure.basis
    fields = basis.fields
    m = len(fields)
    par = [f.parity for f in fields]
    table = structure.table

    def ksign(p, q):
        return -1 if (p and q) else 1

    for i in range(m):
        for j in range(m):
            lhs = table[(i, j)]
            rhs = table[(j, i)]
            s = ksign(par[i], par[j])
            if any(a + GaussianRational(s) * b for a, b in zip(lhs, rhs)):
                return False

    def bracket_vec(vec, j):
        out = [GR_ZERO] * m
        for l, c in enumerate(vec):
            if not c:
                continue
            row = table[(j, l)]
            for k, d in enumerate(row):
                if d:
                    out[k] = out[k] + c * d
        return out

    for i in range(m):
        for j in range(m):
            for k in range(m):
                total = [GR_ZERO] * m
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = table[(b, c)]
                    term = bracket_vec(inner, a)
                    s = ksign(par[a], par[c])
                    for t in range(m):
                        if term[t]:
                            total[t] = total[t] + GaussianRational(s) * term[t]
                if any(total):
                    return False
    return True


def assert_rejected(structure):
    assert not jacobi_check(structure)
    assert not reference_jacobi_check(structure)
    assert not reference_liealg.sorted_triple_jacobi_check(structure)


def test_jacobi_matches_reference_on_bundled_and_s222(manifolds, structure_cache):
    structures = [structure_cache(name) for name in manifolds]
    structures.append(structure_constants(synthetic_basis("s222")))
    for structure in structures:
        assert jacobi_check(structure) == reference_jacobi_check(structure)
        assert jacobi_check(structure) == reference_liealg.sorted_triple_jacobi_check(structure)
    s1111 = structure_constants(synthetic_basis("s1111"))
    assert jacobi_check(s1111) and reference_liealg.sorted_triple_jacobi_check(s1111)


JACOBI_TABLES = (
    "k-1", "k0", "k1", "k2", "k3", "k5", "split-2-2", "split-3-1", "nonsplit-2-2", "c01", "xyw",
)


def corrupted_table(structure, kind, data):
    """The table with one corruption of the given kind, drawn from ``data``."""
    par = [f.parity for f in structure.basis.fields]
    m = len(par)
    table = dict(structure.table)
    delta = GaussianRational(data.draw(st.sampled_from([-2, -1, 1, 3])))

    def bump(key, k, d):
        vec = list(table[key])
        vec[k] = vec[k] + d
        table[key] = tuple(vec)

    if kind == "self":
        # odd x, even y with [x, b_y] != 0: delta b_y added to [x, x] keeps
        # antisymmetry and parity, and J(x, x, x) = -3 delta [x, b_y] != 0
        choices = [
            (x, y)
            for x in range(m)
            for y in range(m)
            if par[x] and not par[y] and any(table[(x, y)])
        ]
        x, y = data.draw(st.sampled_from(choices))
        bump((x, x), y, delta)
    elif kind != "none":
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        parity = (par[i] + par[j]) % 2
        wrong = kind == "parity"
        k = data.draw(st.sampled_from([k for k in range(m) if (par[k] != parity) == wrong]))
        bump((i, j), k, delta)
        if kind != "antisymmetry" and (i != j or par[i]):
            # the entry that graded antisymmetry pairs with it (an even
            # self-bracket pairs with itself and must stay zero)
            bump((j, i), k, delta if par[i] and par[j] else -delta)
    return StructureConstants(structure.basis, table)


@settings(deadline=None, max_examples=120)
@given(
    st.sampled_from(JACOBI_TABLES),
    st.sampled_from(["none", "pair", "antisymmetry", "parity", "self"]),
    st.data(),
)
def test_jacobi_matches_sorted_triple_reference_on_corruptions(structure_cache, name, kind, data):
    if name == "xyw":
        # even y, odd x and w with [x, y] = w central: after the "self"
        # corruption [x, x] = delta y, only the sorted triple (x, x, x) has a
        # nonzero Jacobiator, so only its multiplicity rejects the table
        structure = small_structure([0, 1, 1], {(1, 0): (0, 0, 1), (0, 1): (0, 0, -1)})
    else:
        structure = structure_cache(name)
    corrupted = corrupted_table(structure, kind, data)
    verdict = jacobi_check(corrupted)
    assert verdict == reference_liealg.sorted_triple_jacobi_check(corrupted)
    if kind in ("none", "parity", "self"):
        assert verdict == (kind == "none")
    event("%s: %s" % (kind, verdict))


def test_jacobi_rejects_antisymmetric_parity_additive_corruption(structure_cache):
    # +1 at (i, j)[k] and -s at (j, i)[k] keeps antisymmetry and parity
    # additivity, so only the triple loop can reject the table
    structure = structure_cache("nonsplit-2-2")
    par = [f.parity for f in structure.basis.fields]
    m = len(par)
    for i in range(m):
        for j in range(i + 1, m):
            k = par.index((par[i] + par[j]) % 2)
            s = -1 if (par[i] and par[j]) else 1
            table = dict(structure.table)
            for key, delta in (((i, j), 1), ((j, i), -s)):
                vec = list(table[key])
                vec[k] = vec[k] + GaussianRational(delta)
                table[key] = tuple(vec)
            assert_rejected(StructureConstants(structure.basis, table))


def small_structure(parities, entries):
    """A table on a basis of the given parities from its nonzero entries."""
    basis = SimpleNamespace(fields=[SimpleNamespace(parity=p) for p in parities])
    m = len(parities)
    table = {(i, j): (GR_ZERO,) * m for i in range(m) for j in range(m)}
    for key, vec in entries.items():
        table[key] = tuple(GaussianRational(c) for c in vec)
    return StructureConstants(basis, table)


def jacobiator(structure, i, j, k):
    """J(i, j, k) straight from the definition, as a dense vector."""
    par = [f.parity for f in structure.basis.fields]
    table = structure.table
    m = len(par)
    total = [GR_ZERO] * m
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        sign = GaussianRational(-1 if (par[a] and par[c]) else 1)
        for l, x in enumerate(table[(b, c)]):
            for t, y in enumerate(table[(a, l)]):
                total[t] = total[t] + sign * x * y
    return total


def nonzero_sorted_jacobiators(structure):
    m = len(structure.basis.fields)
    triples = [(i, j, k) for i in range(m) for j in range(i, m) for k in range(j, m)]
    return [t for t in triples if any(jacobiator(structure, *t))]


def test_jacobi_keeps_repeated_indices():
    # the c01 parities (b0 even, b1 odd); antisymmetric and parity additive,
    # and with two elements every triple repeats an index
    structure = small_structure([0, 1], {(1, 1): (1, 0), (1, 0): (0, 1), (0, 1): (0, -1)})
    assert_rejected(structure)
    # odd x, [x, x] = y, [x, y] = w: only J(x, x, x) = -3 w is nonzero
    structure = small_structure(
        [0, 1, 1], {(1, 1): (1, 0, 0), (1, 0): (0, 0, 1), (0, 1): (0, 0, -1)}
    )
    assert nonzero_sorted_jacobiators(structure) == [(1, 1, 1)]
    assert_rejected(structure)


def test_jacobi_rejects_parity_violation():
    # the c01 table plus an even component on the odd bracket [b0, b1],
    # antisymmetric
    structure = small_structure([0, 1], {(0, 1): (1, -1), (1, 0): (-1, 1)})
    assert_rejected(structure)
    # even x, y and odd z with [x, y] = z central: an antisymmetric table
    # whose Jacobiator vanishes, so only the parity check rejects it (the
    # full-triple reference, which left parity to structure_constants, does not)
    structure = small_structure([0, 0, 1], {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1)})
    assert nonzero_sorted_jacobiators(structure) == []
    assert reference_jacobi_check(structure)
    assert not jacobi_check(structure)


def test_jacobi_rejects_non_antisymmetric_table():
    # [b1, b0] = b1 and nothing else: every sorted triple's Jacobiator
    # vanishes, so only the antisymmetry check rejects it
    structure = small_structure([0, 1], {(1, 0): (0, 1)})
    assert nonzero_sorted_jacobiators(structure) == []
    assert_rejected(structure)


def test_jacobi_negative_control(structure_cache):
    structure = structure_cache("k1")
    corrupted = dict(structure.table)
    for key, vec in corrupted.items():
        if any(vec):
            flipped = tuple(-c if i == next(i for i, c in enumerate(vec) if c) else c
                            for i, c in enumerate(vec))
            corrupted[key] = flipped
            break
    assert_rejected(StructureConstants(structure.basis, corrupted))


# ---------------------------------------------------------------------------
# adjoint action and weights


def _h_vector(manifolds, basis, name):
    field = sl2_embedding(manifolds[name], "diagonal", ((1, 0), (0, -1)))
    (vec,) = expand_in_basis(basis, [field])
    n_even = len(basis.even_basis)
    assert all(not c for c in vec[n_even:])
    return list(vec[:n_even])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_weight_strings(manifolds, basis_cache, structure_cache, k):
    name = "k%d" % k
    basis = basis_cache(name)
    structure = structure_cache(name)
    weights = weight_decomposition(structure, _h_vector(manifolds, basis, name))
    expected = {}
    for j in range(k + 1):
        expected[k - 2 * j] = expected.get(k - 2 * j, 0) + 1
    for j in range(3 - k):
        expected[2 - k - 2 * j] = expected.get(2 - k - 2 * j, 0) + 1
    assert {int(value.re): mult for value, mult in weights} == expected
    values = [value for value, _ in weights]
    assert values == sorted(values, key=lambda v: v.sort_key(), reverse=True)


def test_theta_scaling_acts_by_sign_on_blocks(manifolds, basis_cache, structure_cache):
    # theta d/dtheta multiplies one polynomial block by -1 and the other by +1
    for k in (0, 1, 2):
        name = "k%d" % k
        basis = basis_cache(name)
        structure = structure_cache(name)
        scaling = _der(1, {}, [{1: RationalFunction.one()}])
        (vec,) = expand_in_basis(basis, [scaling])
        n_even = len(basis.even_basis)
        weights = weight_decomposition(structure, list(vec[:n_even]))
        got = {int(value.re): mult for value, mult in weights}
        assert got == {-1: k + 1, 1: 3 - k}


def test_weights_zero_vector(structure_cache):
    structure = structure_cache("k1")
    n_even = len(structure.basis.even_basis)
    weights = weight_decomposition(structure, [0] * n_even)
    assert weights == [(GR_ZERO, len(structure.basis.odd_basis))]


def test_weights_reject_defective_element(structure_cache):
    structure = structure_cache("k2")
    basis = structure.basis
    # a nilpotent even element: ad on the odd part is defective
    field = sl2_embedding(basis.manifold, "diagonal", ((0, 1), (0, 0)))
    (vec,) = expand_in_basis(basis, [field])
    n_even = len(basis.even_basis)
    with pytest.raises(NotDiagonalizable):
        weight_decomposition(structure, list(vec[:n_even]))


@pytest.mark.parametrize("index", ["-1", "n_even"])
def test_adjoint_matrix_requires_even_index(structure_cache, index):
    structure = structure_cache("k1")
    i = -1 if index == "-1" else len(structure.basis.even_basis)
    with pytest.raises(OddCartan, match="^adjoint matrices are taken for even basis elements$"):
        adjoint_matrix(structure, i)


@pytest.mark.parametrize("name", ["k1", "k2", "nonsplit-2-2", "split-3-1"])
def test_adjoint_matrix_matches_dense_reference(structure_cache, name):
    structure = structure_cache(name)
    for i in range(len(structure.basis.even_basis)):
        assert adjoint_matrix(structure, i) == reference_liealg.adjoint_matrix(structure, i)


I = GaussianRational(0, 1)


def one_even_two_odd(brackets, n_odd=2):
    """A table on one even and ``n_odd`` (by default two) odd fields from
    its nonzero rows [b_0, b_k]; every other entry reads as zero."""
    basis = SimpleNamespace(even_basis=[None], odd_basis=[None] * n_odd)
    table = defaultdict(lambda: (GR_ZERO,) * (1 + n_odd))
    for k, vec in brackets.items():
        table[(0, k)] = tuple(c if isinstance(c, GaussianRational) else GaussianRational(c) if c
                              else GR_ZERO for c in vec)
    return StructureConstants(basis, table)


def operator_table(matrix):
    """``one_even_two_odd`` with ad(b_0) = ``matrix`` on the odd part."""
    d = len(matrix)
    return one_even_two_odd({1 + s: (0,) + tuple(row[s] for row in matrix) for s in range(d)}, d)


def test_adjoint_matrix_rejects_even_component_of_even_odd_bracket():
    structure = one_even_two_odd({1: (1, 0, 0)})
    with pytest.raises(NotClosed, match="^even-odd bracket has even components$"):
        adjoint_matrix(structure, 0)


@pytest.mark.parametrize(
    "brackets",
    [
        {1: (0, 0, 1), 2: (0, 2, 0)},  # ad b_0 = [[0, 2], [1, 0]]: x^2 - 2
        {1: (0, I, 0), 2: (0, 1, I)},  # ad b_0 = [[i, 1], [0, i]]: (x - i)^2, not real
    ],
    ids=["x^2-2", "(x-i)^2"],
)
def test_weights_reject_characteristic_polynomial_without_rational_roots(brackets):
    with pytest.raises(
        NotDiagonalizable, match="^characteristic polynomial has irrational roots$"
    ):
        weight_decomposition(one_even_two_odd(brackets), [1])


@pytest.mark.parametrize(
    "brackets, kernels, weights",
    [
        ({1: (0, 1, 0), 2: (0, 0, 2)}, 0, [(2, 1), (1, 1)]),  # simple eigenvalues 1, 2
        ({1: (0, 1, 0), 2: (0, 0, 1)}, 1, [(1, 2)]),  # the identity: 1 twice
        ({1: (0, 1, 0), 2: (0, 1, 1)}, 1, None),  # a Jordan block: 1 twice, defective
    ],
    ids=["simple", "double", "defective"],
)
def test_weights_check_defects_of_repeated_eigenvalues_only(
    monkeypatch, brackets, kernels, weights
):
    calls = []

    def counting(rows, ncols):
        calls.append(rows)
        return linalg.sparse_kernel_basis(rows, ncols)

    monkeypatch.setattr(liealg, "sparse_kernel_basis", counting)
    structure = one_even_two_odd(brackets)
    if weights is None:
        with pytest.raises(NotDiagonalizable, match="^eigenvalue 1 is defective$"):
            weight_decomposition(structure, [1])
    else:
        expected = [(GaussianRational(value), mult) for value, mult in weights]
        assert weight_decomposition(structure, [1]) == expected
    assert len(calls) == kernels


def test_weights_reject_h_of_wrong_length():
    with pytest.raises(ValueError, match="^expected 1 even coefficients$"):
        weight_decomposition(one_even_two_odd({}), [1, 0])


def _conjugate(block, ops):
    """E block E^-1 for each E = 1 + c e_ij in turn: row i += c row j, then
    column j -= c column i; an integer block stays integer."""
    for i, j, c in ops:
        if i != j:
            block[i] = [x + c * y for x, y in zip(block[i], block[j])]
            for row in block:
                row[j] = row[j] - c * row[i]
    return block


def _block_diagonal(*blocks):
    d = sum(len(b) for b in blocks)
    matrix = [[0] * d for _ in range(d)]
    start = 0
    for block in blocks:
        for r, row in enumerate(block):
            matrix[start + r][start:start + len(row)] = row
        start += len(block)
    return matrix


def _companion(roots):
    """Companion matrix of prod (x - r): a sparse cycle, defective at a
    repeated root."""
    coeffs = [1]
    for root in roots:
        coeffs = [a - root * b for a, b in zip([0] + coeffs, coeffs + [0])]
    size = len(roots)
    return [[int(s == r - 1) for s in range(size - 1)] + [-coeffs[r]] for r in range(size)]


def _jordan(value, size):
    return [[value if r == s else int(s == r + 1) for s in range(size)] for r in range(size)]


@st.composite
def block_triangular_operators(draw):
    """A random operator that some permutation makes block upper triangular.

    Each diagonal block is conjugated by integer elementary matrices from a
    diagonal one with eigenvalues in -2..2, the companion matrix of a
    product of linear factors (a sparse cycle), a Jordan block (defective),
    [[v, 2], [1, v]] (roots v +- sqrt 2, irrational), a rotation or i + v
    (Gaussian, not real), or zero; the entries above the blocks are drawn
    sparse.
    """
    values = st.integers(-2, 2)
    kinds = st.sampled_from(["diagonal"] * 3 + ["companion", "jordan", "x^2-2", "gaussian", "zero"])
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(kinds)
        event("block: " + kind)
        value = draw(values)
        if kind == "diagonal":
            diagonal = draw(st.lists(values, min_size=1, max_size=3))
            block = _block_diagonal(*([[x]] for x in diagonal))
        elif kind == "companion":
            block = _companion(draw(st.lists(values, min_size=2, max_size=3)))
        elif kind == "jordan":
            block = _jordan(value, draw(st.integers(2, 3)))
        elif kind == "x^2-2":
            block = [[value, 2], [1, value]]
        elif kind == "gaussian":
            block = draw(st.sampled_from([[[value + I]], [[value, -1], [1, value]]]))
        else:
            block = _block_diagonal(*[[[0]]] * draw(st.integers(1, 3)))
        size = len(block)
        ops = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1), values)
        blocks.append(_conjugate(block, draw(st.lists(ops, max_size=3))))
    matrix = _block_diagonal(*blocks)
    d = len(matrix)
    end = 0
    for block in blocks:
        end += len(block)
        for r in range(end - len(block), end):
            matrix[r][end:] = [draw(st.sampled_from([0, 0, 0, 1, -1, 2])) for _ in range(end, d)]
    perm = draw(st.permutations(range(d)))
    permuted = [[None] * d for _ in range(d)]
    for r in range(d):
        for s in range(d):
            permuted[perm[r]][perm[s]] = matrix[r][s]
    return permuted


def _weights_or_message(decompose, matrix):
    try:
        return decompose(operator_table(matrix), [1])
    except NotDiagonalizable as exc:
        return exc.message


@given(block_triangular_operators())
@example([[0] * 3 for _ in range(3)])  # the zero operator: eigenvalue 0 three times
@example([[0, 2], [1, 0]])  # x^2 - 2
@example([[0, -1], [1, 0]])  # x^2 + 1: eigenvalues +-i
@example([[1 + I]])  # a non-real coefficient
@example(_companion([1, 2, 3]))  # a 3-cycle
@example(_block_diagonal(_jordan(-1, 2), _jordan(2, 2), _jordan(1, 2)))  # 1 is reported
@settings(deadline=None, max_examples=150)
def test_weights_match_dense_reference(matrix):
    got = _weights_or_message(weight_decomposition, matrix)
    expected = _weights_or_message(reference_liealg.dense_weight_decomposition, matrix)
    assert got == expected
    if isinstance(expected, str):
        event("defective" if expected.endswith("defective") else "irrational roots")
    else:
        event("weights, %s" % ("all simple" if all(m == 1 for _, m in expected) else "repeated"))


def test_weights_walk_a_cyclic_chain_past_the_recursion_limit():
    # 667 companion blocks of (x - 3j - 1)(x - 3j - 2)(x - 3j - 3), each a
    # 3-cycle whose root is closed only through a child's lowlink, chained by
    # one entry from each block to the next: the walk reaches depth d = 2001,
    # past the recursion limit, and the weights are 1..d, each once
    d = 2001
    matrix = [[0] * d for _ in range(d)]
    for start in range(0, d, 3):
        block = _companion([start + 1, start + 2, start + 3])
        for r, row in enumerate(block):
            matrix[start + r][start:start + 3] = row
        if start + 3 < d:
            matrix[start + 2][start + 3] = 1
    weights = weight_decomposition(operator_table(matrix), [1])
    assert weights == [(GaussianRational(w), 1) for w in range(d, 0, -1)]


# The parent's _rational_roots, kept as the oracle: it tries every divisor of
# the cleared constant term over every divisor of the leading coefficient.
def reference_rational_roots(poly):
    if any(c.im for c in poly.coeffs.values()):
        return None
    roots = []
    p = poly
    while int(p.degree()) > 0:
        const_exp = min(p.coeffs)
        if const_exp > 0:
            for _ in range(const_exp):
                roots.append(GR_ZERO)
            p = Polynomial({e - const_exp: c for e, c in p.coeffs.items()})
            continue
        denom_lcm = math.lcm(*(c.re.denominator for c in p.coeffs.values()))
        const = abs(int(p.coeffs[0].re * denom_lcm))
        lead = abs(int(p.coeffs[max(p.coeffs)].re * denom_lcm))
        found = None
        for pn in reference_divisors(const):
            for qn in reference_divisors(lead):
                for sign in (1, -1):
                    cand = GaussianRational(Fraction(sign * pn, qn))
                    if not p.eval(cand):
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return None
        roots.append(found)
        p, rem = divmod(p, Polynomial({1: GR_ONE, 0: -found}))
        assert not rem
    return roots


def reference_divisors(value):
    if value == 0:
        return [1]
    out = []
    d = 1
    while d * d <= value:
        if value % d == 0:
            out.append(d)
            if d != value // d:
                out.append(value // d)
        d += 1
    return sorted(out)


# factors without a rational root: the whole polynomial then has none either
IRRATIONAL_FACTORS = {
    "none": {0: 1},
    "z^2-2": {2: 1, 0: -2},
    "z^2+1": {2: 1, 0: 1},
    "z^2+z+1": {2: 1, 1: 1, 0: 1},
    "3z^2-2": {2: 3, 0: -2},
}


# the reference tries every pair of divisors, which is slow on some draws;
# the examples have roots of 7 or more digits, which a linear factor gives
# in closed form and a search by magnitude reaches only after that many steps
@settings(deadline=None)
@example([(1234567, 1)], [], "none", Fraction(1))
@example([(-9999991, 7)], [], "none", Fraction(-3, 2))
@example([(3, 1), (-12345678, 1)], [], "none", Fraction(1))
@example([(2, 1), (1234567, 3)], [2], "z^2-2", Fraction(1))
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)), max_size=5),
    st.lists(st.integers(1, 3), max_size=5),
    st.one_of(st.just("none"), st.sampled_from(sorted(IRRATIONAL_FACTORS))),
    st.builds(Fraction, st.sampled_from([-5, -3, -2, -1, 1, 2, 3, 5]), st.integers(1, 5)),
)
def test_rational_roots_match_reference(factors, repeats, extra, scale):
    poly = Polynomial({e: GaussianRational(c) for e, c in IRRATIONAL_FACTORS[extra].items()})
    poly = poly.scale(scale)
    for (p, q), times in zip(factors, repeats + [1] * len(factors)):
        for _ in range(times):
            poly = poly * Polynomial({1: q, 0: -p})
    expected = reference_rational_roots(poly)
    got = liealg._rational_roots(poly)
    event("irrational" if expected is None else "rational")
    if expected is None:
        assert got is None
    else:
        assert Counter(got) == Counter(expected)


def test_rational_roots_of_a_quadratic_with_large_roots_are_read_in_closed_form():
    # (x - r)(x - r - 1): a search by increasing magnitude meets its smaller
    # root only after r candidates
    r = 10**12
    poly = Polynomial({1: 1, 0: -r}) * Polynomial({1: 1, 0: -r - 1})
    assert liealg._rational_roots(poly) == [GaussianRational(r), GaussianRational(r + 1)]
    # the same roots over a leading coefficient, and an irreducible neighbour
    assert liealg._rational_roots(poly.scale(Fraction(-2, 3))) == liealg._rational_roots(poly)
    assert liealg._rational_roots(poly + Polynomial({0: 1})) is None


def test_cubic_root_search_stops_at_its_limit():
    # a cubic's smallest root is searched for by increasing magnitude: 10^12
    # steps here, so the search stops at MAX_ROOT_SEARCH instead
    r = 10**12
    with pytest.raises(SystemTooLarge) as info:
        weight_decomposition(operator_table(_companion([r, r + 1, r + 2])), [1])
    assert info.value.message == (
        "rational-root search would run to |y| = 10^12.0, above the limit of %d"
        % liealg.MAX_ROOT_SEARCH
    )


def test_cubic_root_search_below_its_limit_finds_every_root():
    r = 10**5
    weights = weight_decomposition(operator_table(_companion([r, r + 1, r + 2])), [1])
    assert weights == [(GaussianRational(w), 1) for w in (r + 2, r + 1, r)]


NONZERO_SMALL = st.one_of(st.integers(-12, -1), st.integers(1, 12))


@st.composite
def quadratics(draw):
    """(a, b, c) of a x^2 + b x + c: small coefficients, or a (q x - p)(s x - r)
    with small rational roots p/q and r/s."""
    if draw(st.booleans()):
        return draw(NONZERO_SMALL), draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    a, q, s = draw(NONZERO_SMALL), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    p, r = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
    return a * q * s, -a * (p * s + q * r), a * p * r


# split over Q (with distinct, repeated, opposite or zero roots), irreducible
# with a positive non-square discriminant, or with a negative one; the search
# and the closed form must agree in order too
@example((1, -3, 2))
@example((1, 0, -4))
@example((1, -2, 1))
@example((1, 0, -2))
@example((1, 1, 1))
@example((-6, 1, 2))
@given(quadratics())
def test_quadratic_roots_match_the_search(coeffs):
    a, b, c = coeffs
    poly = Polynomial({2: a, 1: b, 0: c})
    disc = b * b - 4 * a * c
    event("discriminant < 0" if disc < 0 else "square discriminant"
          if math.isqrt(disc) ** 2 == disc else "non-square discriminant")
    assert liealg._rational_roots(poly) == reference_liealg.searched_rational_roots(poly)


def test_ad_is_a_representation_on_even_pairs(structure_cache):
    structure = structure_cache("k1")
    basis = structure.basis
    n_even = len(basis.even_basis)
    for i in range(n_even):
        for j in range(n_even):
            lhs = [
                [GR_ZERO] * len(basis.odd_basis) for _ in range(len(basis.odd_basis))
            ]
            for k, c in enumerate(structure.table[(i, j)][:n_even]):
                if c:
                    adk = adjoint_matrix(structure, k)
                    for r in range(len(adk)):
                        for s in range(len(adk)):
                            lhs[r][s] = lhs[r][s] + c * adk[r][s]
            ai = adjoint_matrix(structure, i)
            aj = adjoint_matrix(structure, j)
            comm = mat_mul(ai, aj, GR_ZERO)
            ji = mat_mul(aj, ai, GR_ZERO)
            rhs = [
                [comm[r][s] - ji[r][s] for s in range(len(comm))] for r in range(len(comm))
            ]
            assert lhs == rhs


# ---------------------------------------------------------------------------
# derived span, kernel, comparisons


@pytest.mark.parametrize("k,dim", [(-1, 0), (0, 3), (1, 4), (2, 3), (3, 0), (5, 0)])
def test_odd_derived_span_dimensions(structure_cache, k, dim):
    name = "k%d" % k if k >= 0 else "k-1"
    got, span = odd_derived_span(structure_cache(name))
    assert got == dim
    assert len(span) == dim


def test_derived_span_k1_is_everything(structure_cache):
    structure = structure_cache("k1")
    dim, _ = odd_derived_span(structure)
    assert dim == len(structure.basis.even_basis)


def test_derived_span_and_trivial_subspace_of_an_empty_part():
    # hand-built, since every bundled manifold has both even and odd fields
    no_odd = SimpleNamespace(even_basis=[None, None], odd_basis=[])
    assert odd_derived_span(StructureConstants(no_odd, {})) == (0, [])
    assert reduced_trivial_subspace(SimpleNamespace(even_basis=[])) == (0, [])


@pytest.mark.parametrize("k,dim", [(0, 7), (1, 5), (2, 4), (3, 4)])
def test_kernel_dimension_split_equal_degrees(k, dim):
    basis = solve_global_fields(split_manifold(k, k))
    got, _ = reduced_trivial_subspace(basis)
    assert got == dim


def test_gr_comparison_nonsplit(manifolds):
    comparison = gr_comparison(manifolds["nonsplit-2-2"])
    assert comparison.dims[0] == 6
    assert comparison.gr_dims[0] == 7
    assert sum(comparison.dims) <= sum(comparison.gr_dims)
    assert not comparison.split


def test_gr_comparison_split_is_equal(manifolds):
    for name in ("k2", "split-2-2", "c01"):
        comparison = gr_comparison(manifolds[name])
        assert comparison.dims == comparison.gr_dims
        assert comparison.split


def test_gr_inequality_on_all_bundled(manifolds):
    for name in ("k-1", "k0", "k1", "k2", "k3", "k5", "split-2-2", "split-3-1", "nonsplit-2-2"):
        comparison = gr_comparison(manifolds[name])
        assert sum(comparison.dims) <= sum(comparison.gr_dims)


# ---------------------------------------------------------------------------
# reports


def test_hc_report_split_verdicts(report_cache):
    assert report_cache("k3").split_supergroup is True
    assert report_cache("k1").split_supergroup is False
    assert report_cache("k5").split_supergroup is True
    assert report_cache("k-1").split_supergroup is True


def test_hc_report_point(report_cache):
    report = report_cache("c01")
    assert report.basis.dims == (1, 1)
    assert report.jacobi
    assert report.derived_dim == 0
    assert report.split_supergroup
    assert report.conjugation_identity_ok


def test_hc_report_nonsplit_witnesses(manifolds, report_cache):
    report = report_cache("nonsplit-2-2")
    assert report.basis.dims == (6, 6)
    assert report.kernel_dim == 3
    assert report.jacobi
    # direct-product witness: every trivial-reduction generator commutes with
    # the embedded traceless-matrix image
    basis = report.basis
    _, kernel_vectors = reduced_trivial_subspace(basis)
    kernel_fields = []
    for vec in kernel_vectors:
        total = SuperDerivation.zero(CHART0, 2)
        for c, field in zip(vec, basis.even_basis):
            if c:
                total = total + field.chart0_der.scale(c)
        kernel_fields.append(total)
    for matrix in (((1, 0), (0, -1)), ((0, 1), (0, 0)), ((0, 0), (1, 0))):
        image = sl2_embedding(manifolds["nonsplit-2-2"], "nonsplit", matrix)
        for kernel_field in kernel_fields:
            assert not bracket(kernel_field, image)


# ---------------------------------------------------------------------------
# conjugation


def test_conjugation_identity_is_identity(basis_cache):
    basis = basis_cache("k2")
    matrix = conjugation_action(basis, PullbackData.identity(CHART0, 1))
    m = len(basis.fields)
    for r in range(m):
        for s in range(m):
            assert matrix[r][s] == (GR_ONE if r == s else GR_ZERO)


def test_conjugation_requires_global(manifolds, basis_cache):
    basis = basis_cache("split-2-2")
    p = PullbackData(
        CHART0, CHART0, SuperFunction.coordinate(CHART0, 2),
        [sf(2, {1: RationalFunction.z()}), SuperFunction.odd_var(CHART0, 2, 1)],
    )
    with pytest.raises(NotGlobal):
        conjugation_action(basis, p)


def test_conjugation_functorial_and_parity_blocks(manifolds, basis_cache):
    basis = basis_cache("nonsplit-2-2")
    m_fold = manifolds["nonsplit-2-2"]
    rng = random.Random(27)
    for _ in range(3):
        A, B = rand_sl2(rng), rand_sl2(rng)
        pa = mobius_lift(m_fold, "nonsplit", A)
        pb = mobius_lift(m_fold, "nonsplit", B)
        ca = conjugation_action(basis, pa)
        cb = conjugation_action(basis, pb)
        cab = conjugation_action(basis, compose(pa, pb))
        assert mat_mul(ca, cb, GR_ZERO) == cab
        n_even = len(basis.even_basis)
        size = len(basis.fields)
        for r in range(size):
            for s in range(size):
                if (r < n_even) != (s < n_even):
                    assert not ca[r][s]


def test_conjugation_preserves_brackets(basis_cache, structure_cache, manifolds):
    basis = basis_cache("k2")
    structure = structure_cache("k2")
    rng = random.Random(28)
    A = rand_sl2(rng)
    c = conjugation_action(basis, mobius_lift(manifolds["k2"], "diagonal", A))
    m = len(basis.fields)

    def column(k):
        return [c[r][k] for r in range(m)]

    for i in range(m):
        for j in range(m):
            lhs = table_bracket(structure, column(i), column(j))
            rhs = [GR_ZERO] * m
            for k, d in enumerate(structure.table[(i, j)]):
                if d:
                    for r in range(m):
                        rhs[r] = rhs[r] + d * c[r][k]
            assert lhs == rhs


# the lift family of each bundled manifold that has one
LIFT_FAMILIES = {
    name: "nonsplit" if name == "nonsplit-2-2" else "diagonal"
    for name in ("k-1", "k0", "k1", "k2", "k3", "k5", "split-2-2", "split-3-1", "nonsplit-2-2")
}

NONZERO_FRACTIONS = st.builds(
    Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.sampled_from([1, 2, 3])
)


@st.composite
def sl2_matrices(draw):
    a, b, c = draw(NONZERO_FRACTIONS), draw(NONZERO_FRACTIONS), draw(NONZERO_FRACTIONS)
    return ((a, b), (c, (1 + b * c) / a))


def unipotent_odd_linear(c, k):
    """t1 -> t1 + c z^k t2 on split-3-1: id + cX for the field X = z^k t2 d/dt1,
    which is global for k <= 2 and squares to zero."""
    field = SuperDerivation(
        CHART0, 2, SuperFunction.zero(CHART0, 2), [sf(2, {2: zm(k)}), SuperFunction.zero(CHART0, 2)]
    )
    coords = [SuperFunction.coordinate(CHART0, 2)]
    coords += [SuperFunction.odd_var(CHART0, 2, j) for j in range(2)]
    images = [u + field.apply(u).scale(c) for u in coords]
    return PullbackData(CHART0, CHART0, images[0], images[1:])


@st.composite
def conjugation_cases(draw):
    """(kind, manifold name, pullback) for the conjugation oracle."""
    kind = draw(st.sampled_from(
        ["mobius", "unipotent", "unipotent-mobius", "identity", "not-global", "odd-dim"]
    ))
    if kind == "mobius":
        name = draw(st.sampled_from(sorted(LIFT_FAMILIES)))
        return kind, name, mobius_lift(load_bundled_manifold(name), LIFT_FAMILIES[name],
                                       draw(sl2_matrices()))
    if kind.startswith("unipotent"):
        p = unipotent_odd_linear(draw(NONZERO_FRACTIONS), draw(st.sampled_from([0, 1, 2, 3])))
        if kind == "unipotent-mobius":
            lift = mobius_lift(load_bundled_manifold("split-3-1"), "diagonal", draw(sl2_matrices()))
            p = compose(lift, p) if draw(st.booleans()) else compose(p, lift)
        return kind, "split-3-1", p
    name = draw(st.sampled_from(bundled_manifold_names()))
    manifold = load_bundled_manifold(name)
    n = manifold.odd_dim
    if kind == "identity":
        return kind, name, PullbackData.identity(manifold.chart0, n)
    if kind == "odd-dim":
        return kind, name, PullbackData.identity(manifold.chart0, n + draw(st.sampled_from([-1, 1])))
    # a nonconstant odd scaling, global on no bundled manifold
    odds = [sf(n, {1 << j: RationalFunction.z() + 1}, manifold.chart0) for j in range(n)]
    return kind, name, PullbackData(
        manifold.chart0, manifold.chart0, SuperFunction.coordinate(manifold.chart0, n), odds
    )


def conjugation_outcome(action, basis, pullback):
    try:
        return action(basis, pullback)
    except MathDomainError as exc:
        return type(exc).__name__


@settings(deadline=None, max_examples=60)
@example(("identity", "c01", PullbackData.identity("c01", 1)))
@example(("unipotent", "split-3-1", unipotent_odd_linear(Fraction(2), 2)))
@example(("unipotent", "split-3-1", unipotent_odd_linear(Fraction(-1, 2), 3)))
@example(("odd-dim", "k2", PullbackData.identity(CHART0, 2)))
@given(conjugation_cases())
def test_conjugation_matches_reference(basis_cache, case):
    kind, name, pullback = case
    basis = basis_cache(name)
    expected = conjugation_outcome(reference_liealg.reference_conjugation_action, basis, pullback)
    got = conjugation_outcome(conjugation_action, basis, pullback)
    event("%s: %s" % (kind, expected if isinstance(expected, str) else "matrix"))
    assert got == expected


GAUSSIAN_PARTS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
GAUSSIANS = st.builds(GaussianRational, GAUSSIAN_PARTS, GAUSSIAN_PARTS)


def exp_ad(structure, field):
    """exp(ad Y) in the basis, for a field Y whose ad is nilpotent: column j of
    ad Y is sum_i y_i [b_i, b_j], read from the bracket table."""
    [y] = expand_in_basis(structure.basis, [field])
    m = len(y)
    ad = [[GR_ZERO] * m for _ in range(m)]
    for (i, j), bracket in structure.table.items():
        if y[i]:
            for k, d in enumerate(bracket):
                ad[k][j] = ad[k][j] + y[i] * d
    term = total = [[GR_ONE if r == c else GR_ZERO for c in range(m)] for r in range(m)]
    for k in range(1, m + 2):
        term = [[x / GaussianRational(k) for x in row] for row in mat_mul(ad, term, GR_ZERO)]
        if not any(map(any, term)):
            return total
        total = [[a + b for a, b in zip(r, s)] for r, s in zip(total, term)]
    raise AssertionError("ad Y is not nilpotent")


@settings(deadline=None, max_examples=40)
@given(st.one_of(st.just("nonsplit-2-2"), st.sampled_from(sorted(LIFT_FAMILIES))),
       st.lists(GAUSSIANS, min_size=6, max_size=6))
def test_lift_conjugation_is_the_exponential_of_the_embedding(
        manifolds, basis_cache, structure_cache, name, draws):
    """The paper's identity between the automorphism group and its Lie
    superalgebra of global fields, checked on closed forms.

    For a nilpotent traceless 2x2 matrix A over Q(i), exp(A) = I + A, and
    conjugation by ``mobius_lift(M, family, I + A)`` is exp(ad Y) with
    Y = ``sl2_embedding(M, family, B)``.  In ``mobius_lift``'s convention,
    where ((a, b), (c, d)) sends z to (c + d z)/(a + b z), B = -J A^T J on
    ``diagonal``, with J = diag(1, -1), and B = -A on ``nonsplit``, whose
    embedding takes J A^T J itself.  A is drawn as s [[-pq, p^2], [-q^2, pq]],
    the general nilpotent traceless matrix.  A matrix with c != 0 factors as
    U(x) L(y) U(z), x = (a - 1)/c, y = c, z = (d - 1)/c, with U and L the upper
    and lower unipotent matrices; its conjugation matrix is the product of
    the three exp(ad) matrices in that order.
    """
    manifold, family = manifolds[name], LIFT_FAMILIES[name]
    basis, structure = basis_cache(name), structure_cache(name)
    event("family: %s" % family)

    def exp_ad_of(nilpotent):
        (a, b), (c, d) = nilpotent
        B = ((-a, c), (b, -d)) if family == "diagonal" else ((-a, -b), (-c, -d))
        return exp_ad(structure, sl2_embedding(manifold, family, B))

    def lift_of(nilpotent):
        (a, b), (c, d) = nilpotent
        return ((GR_ONE + a, b), (c, GR_ONE + d))

    s, p, q, x, y, z = draws
    zero, y = GR_ZERO, y or GR_ONE
    nilpotent = ((-s * p * q, s * p * p), (-s * q * q, s * p * q))
    expected = exp_ad_of(nilpotent)
    assert conjugation_action(basis, mobius_lift(manifold, family, lift_of(nilpotent))) == expected
    factors = [((zero, x), (zero, zero)), ((zero, zero), (y, zero)), ((zero, z), (zero, zero))]
    upper, lower, upper2 = map(lift_of, factors)
    lift = mobius_lift(manifold, family, matmul2(matmul2(upper, lower), upper2))
    exps = [exp_ad_of(factor) for factor in factors]
    expected = mat_mul(mat_mul(exps[0], exps[1], GR_ZERO), exps[2], GR_ZERO)
    assert conjugation_action(basis, lift) == expected


def test_expand_rejects_outside_span(basis_cache):
    basis = basis_cache("k2")
    stray = _der(1, {0: RationalFunction(Polynomial.monomial(5))}, [{}])
    with pytest.raises(NotInSpan):
        expand_in_basis(basis, [stray])


def test_adjoint_of_central_element_is_zero(basis_cache):
    # abelian test table over the point basis: every adjoint matrix vanishes
    from supervec.liealg import StructureConstants

    basis = basis_cache("c01")
    m = len(basis.fields)
    table = {(i, j): tuple([GR_ZERO] * m) for i in range(m) for j in range(m)}
    abelian = StructureConstants(basis, table)
    assert adjoint_matrix(abelian, 0) == [[GR_ZERO]]


def test_point_conjugation_scales_odd_generator(basis_cache, manifolds):
    # the scaling automorphism acts trivially on xi d/dxi and by the scale
    # factor on d/dxi
    basis = basis_cache("c01")
    chart = manifolds["c01"].chart0
    c = GaussianRational(3)
    scale = PullbackData(
        chart, chart, SuperFunction.coordinate(chart, 1),
        [SuperFunction(chart, 1, {1: RationalFunction.constant(c)})],
    )
    matrix = conjugation_action(basis, scale)
    assert matrix == [[GR_ONE, GR_ZERO], [GR_ZERO, c]]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_line_family_general_form(basis_cache, k):
    # even fields are a(z) d/dz + (b + k*a2*z) t1 d/dt1 with deg a <= 2,
    # where a2 is the quadratic coefficient of a; odd fields are
    # p(z) d/dt1 + q(z) t1 d/dz with deg p <= k and deg q <= 2 - k
    basis = basis_cache("k%d" % k)
    for field in basis.even_basis:
        der = field.chart0_der
        even = der.even_coeff
        assert set(even.terms) <= {0}
        a = even.reduced_part()
        assert a.is_polynomial()
        assert not a or int(a.num.degree()) <= 2
        odd = der.odd_coeffs[0]
        assert set(odd.terms) <= {1}
        scaling = odd.coefficient(1)
        assert scaling.is_polynomial()
        assert not scaling or int(scaling.num.degree()) <= 1
        a2 = a.num.coeffs.get(2, GR_ZERO)
        assert scaling.num.coeffs.get(1, GR_ZERO) == GaussianRational(k) * a2
    for field in basis.odd_basis:
        der = field.chart0_der
        p = der.odd_coeffs[0].reduced_part()
        assert set(der.odd_coeffs[0].terms) <= {0}
        assert not p or int(p.num.degree()) <= k
        q_part = der.even_coeff
        assert set(q_part.terms) <= {1}
        q = q_part.coefficient(1)
        assert not q or int(q.num.degree()) <= 2 - k


def test_split_unequal_degrees_kernel_is_upper_triangular(basis_cache):
    # trivial-reduction fields of the (3,1) split manifold: constant diagonal,
    # vanishing lower corner, upper corner of degree at most k1 - k2
    basis = basis_cache("split-3-1")
    dim, vectors = reduced_trivial_subspace(basis)
    assert dim == 5
    for vec in vectors:
        total = SuperDerivation.zero(CHART0, 2)
        for c, field in zip(vec, basis.even_basis):
            if c:
                total = total + field.chart0_der.scale(c)
        assert not total.even_coeff
        b11 = total.odd_coeffs[0].coefficient(1)
        b12 = total.odd_coeffs[0].coefficient(2)
        b21 = total.odd_coeffs[1].coefficient(1)
        b22 = total.odd_coeffs[1].coefficient(2)
        assert not b21
        assert not b11 or b11.is_constant()
        assert not b22 or b22.is_constant()
        assert not b12 or int(b12.num.degree()) <= 2


# ---------------------------------------------------------------------------
# expansion against the factor stored in the basis


ORACLE_BASES = ("k2", "nonsplit-2-2", "split-3-1", "c01", "s222")


@pytest.fixture(scope="session")
def oracle_basis(basis_cache):
    """Basis, its used slots, and the used slots whose monomial is off the span."""
    cache = {}

    def get(name):
        if name not in cache:
            if name in SYNTHETIC:
                text = "[manifold]\nname = %s\n" % name + SYNTHETIC[name]
                basis = solve_global_fields(parse_manifold_text(text))
            else:
                basis = basis_cache(name)
            ders = [f.chart0_der for f in basis.fields]
            used = sorted(reference_liealg._derivation_slots(ders))
            off = []
            for slot in used:
                try:
                    reference_liealg.expand_in_basis(basis, [slot_monomial(basis, slot, GR_ONE)])
                except NotInSpan:
                    off.append(slot)
            cache[name] = (basis, used, off)
        return cache[name]

    return get


def slot_monomial(basis, slot, c):
    """The chart-0 derivation with the single coefficient c in ``slot``."""
    comp, nu, e = slot
    chart, n = basis.manifold.chart0, basis.manifold.odd_dim
    term = {nu: RationalFunction(Polynomial({e: c}))}
    even = SuperFunction(chart, n, term if comp == -1 else {})
    odds = [SuperFunction(chart, n, term if j == comp else {}) for j in range(n)]
    return SuperDerivation(chart, n, even, odds)


def expansion_outcome(expand, basis, ders):
    try:
        return expand(basis, ders)
    except NotInSpan as exc:
        return ("NotInSpan", exc.message)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(ORACLE_BASES), st.data())
def test_expand_in_basis_matches_reference(oracle_basis, name, data):
    basis, used, off = oracle_basis(name)
    chart, n = basis.manifold.chart0, basis.manifold.odd_dim
    m = len(basis)
    small = st.integers(-3, 3).map(GaussianRational)
    coeffs = data.draw(st.lists(small, min_size=m, max_size=m))
    combo = SuperDerivation.zero(chart, n)
    for c, field in zip(coeffs, basis.fields):
        combo = combo + field.chart0_der.scale(c)
    c = GaussianRational(data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
    top = max(e for _, _, e in used)
    comp = data.draw(st.integers(-1, n - 1))
    nu = data.draw(st.integers(0, (1 << n) - 1))
    unused = (comp, nu, top + data.draw(st.integers(1, 3)))
    targets = [[combo], [combo + slot_monomial(basis, unused, c)]]
    if off:
        targets.append([combo + slot_monomial(basis, data.draw(st.sampled_from(off)), c)])
    else:
        event("no used slot off the span")
    stray = targets[-1][0]
    pole_coeff = SuperFunction(chart, n, {0: RationalFunction.monomial(-1)})
    pole = SuperDerivation(chart, n, pole_coeff, [SuperFunction.zero(chart, n)] * n)
    targets.append([combo, stray, pole])
    outcomes = [expansion_outcome(expand_in_basis, basis, ders) for ders in targets]
    expected = [expansion_outcome(reference_liealg.expand_in_basis, basis, ders) for ders in targets]
    assert outcomes == expected
    assert outcomes[0] == [tuple(coeffs)]
    assert outcomes[1] == ("NotInSpan", "derivation does not lie in the span of the basis")
    assert outcomes[-2][0] == "NotInSpan"
    assert outcomes[-1] == ("NotInSpan", "derivation has non-polynomial coefficients")


def test_basis_is_reduced_once(basis_cache, monkeypatch):
    """Expansions read the factor built with the basis and reduce nothing again."""
    basis = basis_cache("nonsplit-2-2")
    ders = [f.chart0_der for f in basis.fields]
    brackets = [a.bracket(b) for a in ders for b in ders]
    expected = reference_liealg.expand_in_basis(basis, brackets)
    units = reference_liealg.expand_in_basis(basis, ders)
    m = len(ders)

    def no_reduction(*args):
        raise AssertionError("the basis was reduced again")

    monkeypatch.setattr(liealg, "span_factor", no_reduction)
    identity = PullbackData.identity(basis.manifold.chart0, basis.manifold.odd_dim)
    conjugation = conjugation_action(basis, identity)
    assert conjugation == [[units[c][r] for c in range(m)] for r in range(m)]
    # the identity's inverse is solved through linalg, so only now forbid every reduction
    monkeypatch.setattr(linalg, "_reduce", no_reduction)
    table = structure_constants(basis).table
    assert [table[(i, j)] for i in range(m) for j in range(m)] == expected
    assert expand_in_basis(basis, brackets) == expected


def test_readme_library_example_runs():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert "# dims (6, 6)" in block
    assert namespace["basis"].dims == (6, 6)
