"""The four benchmark workloads: their inputs, their cases and their output checks.

Each ``setup_*`` function builds one workload from a seed inside a scratch
directory and returns a :class:`Workload`.  A workload is a list of cases run
in order (one pass); a case is a closure around one CLI invocation or one
public library call.  The program only ever sees the generated ``.smf`` and
``.spb`` text, or objects it computed itself during set-up.

Supervec is reached through module attributes (``liealg.structure_constants``,
``cli.main``) at call time, never through names bound here, so that the
traced run can swap in wrapped functions.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from fractions import Fraction

from supervec import cli, derivations, files, geometry, grassmann, liealg, linalg
from supervec.expressions import derivation_text, parse_superfunction, superfunction_text
from supervec.scalars import GR_ZERO, GaussianRational, Polynomial, RationalFunction

HERE = os.path.dirname(os.path.abspath(__file__))

BUNDLED = [
    "c01", "k-1", "k0", "k1", "k2", "k3", "k5",
    "nonsplit-2-2", "split-2-2", "split-3-1",
]

# name: (odd_dim, w, [eta_j]); written as .smf text at set-up.  The solver
# ladder runs all but s1111, whose 5-second solve left room for one or two
# passes a run; s1111 is solved (and its dims checked) in bracket-table set-up.
MANIFOLDS = {
    "k50": (1, "z^-1", ["z^-50*t1"]),
    "k100": (1, "z^-1", ["z^-100*t1"]),
    "s222": (3, "z^-1", ["z^-2*t%d" % j for j in (1, 2, 3)]),
    "s1111": (4, "z^-1", ["z^-1*t%d" % j for j in (1, 2, 3, 4)]),
    "ns33": (2, "z^-1 + z^-4*t1*t2", ["z^-3*t1", "z^-3*t2"]),
}
LADDER = ("k50", "k100", "s222", "ns33")
DIMS = {
    "k50": (4, 51), "k100": (4, 101), "s222": (12, 9), "s1111": (19, 16), "ns33": (4, 4),
}

# even basis indices whose adjoint action is known to diagonalise
CARTANS = {"s1111": (1, 3, 8, 13, 18), "s222": (1, 3, 7, 11)}

# pullbacks: (odd_dim, instances, polynomial degree) per automorphism group;
# every term the shape allows is present, so the cost barely depends on the seed
AUTOMORPHISMS = ((2, 4, 1), (3, 2, 1), (4, 1, 0))
FLOW_DIMS = (2, 3, 4, 4)

NONZERO = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2)]


class CaseFailed(Exception):
    """A CLI case exited with a nonzero code."""


class Case:
    """One timed operation; ``run()`` returns the output the checks inspect."""

    __slots__ = ("name", "run")

    def __init__(self, name, run):
        self.name = name
        self.run = run


class Workload:
    """Cases of one pass plus ``check(outputs) -> set of failed case names``.

    ``check`` sees every output of the first pass; later passes must
    reproduce the first pass's verified digests exactly.
    """

    __slots__ = ("cases", "check")

    def __init__(self, cases, check):
        self.cases = cases
        self.check = check


def load_refs():
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as handle:
        return json.load(handle)


def render(value):
    """Deterministic text of a case output (CLI text, or a library result)."""
    if isinstance(value, str):
        return value
    if isinstance(value, liealg.StructureConstants):
        return "\n".join(
            "%d,%d=%s" % (i, j, render(vec)) for (i, j), vec in sorted(value.table.items())
        )
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(render(v) for v in value) + "]"
    return str(value)


def digest(value):
    return hashlib.sha256(render(value).encode("utf-8")).hexdigest()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    if code != 0:
        raise CaseFailed("exit %s: %s" % (code, err.getvalue().strip()))
    return out.getvalue()


def _cli_case(name, argv):
    return Case(name, lambda: run_cli(argv))


def _machine_fields(text):
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _ref_check(refs, outputs):
    return {name for name, value in outputs.items() if digest(value) != refs.get(name)}


def manifold_text(name, odd_dim, w, etas):
    lines = ["[manifold]", "name = %s" % name, "odd_dim = %d" % odd_dim, "", "[transition]"]
    lines.append("w = %s" % w)
    lines += ["eta%d = %s" % (j + 1, eta) for j, eta in enumerate(etas)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bundled-report: `report --machine` on every bundled manifold


def setup_bundled(seed, workdir):
    refs = load_refs()
    cases = [
        _cli_case("report:%s" % name, ["report", "--manifold", name, "--machine"])
        for name in BUNDLED
    ]

    def check(outputs):
        failed = _ref_check(refs, outputs)
        for name, text in outputs.items():
            fields = _machine_fields(text)
            if fields.get("jacobi") != "true" or fields.get("conjugation_identity") != "true":
                failed.add(name)
        return failed

    return Workload(cases, check)


# ---------------------------------------------------------------------------
# solver-ladder: `vec --machine` on the synthetic ladder


def setup_ladder(seed, workdir):
    refs = load_refs()
    cases = []
    for name in LADDER:
        path = os.path.join(workdir, name + ".smf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(manifold_text(name, *MANIFOLDS[name]))
        cases.append(_cli_case("vec:%s" % name, ["vec", "--manifold", path, "--machine"]))

    def check(outputs):
        failed = _ref_check(refs, outputs)
        for case, text in outputs.items():
            fields = _machine_fields(text)
            dims = (int(fields.get("dim_even", -1)), int(fields.get("dim_odd", -1)))
            if dims != DIMS[case.split(":", 1)[1]]:
                failed.add(case)
        return failed

    return Workload(cases, check)


# ---------------------------------------------------------------------------
# bracket-table: structure constants, Jacobi, derived span and weights on
# bases solved during set-up


def setup_brackets(seed, workdir):
    refs = load_refs()
    cases = []
    results = {}
    odd_dims = {}
    for name in ("s1111", "s222"):
        manifold = files.parse_manifold_text(manifold_text(name, *MANIFOLDS[name]))
        basis = liealg.solve_global_fields(manifold)
        if basis.dims != DIMS[name]:
            raise RuntimeError("%s solved to dims %s" % (name, basis.dims))
        odd_dims[name] = basis.dims[1]
        cases += _bracket_cases(name, basis, results)

    def check(outputs):
        failed = _ref_check(refs, outputs)
        for case, value in outputs.items():
            kind, name = case.split(":")[:2]
            if kind == "jacobi" and value is not True:
                failed.add(case)
            if kind == "weights" and sum(mult for _, mult in value) != odd_dims[name]:
                failed.add(case)
        return failed

    return Workload(cases, check)


def _bracket_cases(name, basis, results):
    """Cases of one basis; later ones read the table built earlier in the pass."""
    n_even = basis.dims[0]

    def structure():
        results[name] = liealg.structure_constants(basis)
        return results[name]

    def weights(index):
        h = [0] * n_even
        h[index] = 1
        return lambda: liealg.weight_decomposition(results[name], h)

    cases = [
        Case("structure:%s" % name, structure),
        Case("jacobi:%s" % name, lambda: liealg.jacobi_check(results[name])),
        Case("derived:%s" % name, lambda: liealg.odd_derived_span(results[name])),
    ]
    cases += [Case("weights:%s:h%d" % (name, i), weights(i)) for i in CARTANS[name]]
    return cases


# ---------------------------------------------------------------------------
# pullbacks: seeded automorphisms through `invert`, `decompose`, `compose`;
# seeded nilpotent fields through `flow`; seeded non-split Mobius lifts
# through conjugation_action


def _rf(rng, degree):
    return RationalFunction(
        Polynomial({e: GaussianRational(rng.choice(NONZERO)) for e in range(degree + 1)})
    )


def random_automorphism(rng, n, degree):
    """Chart-0 automorphism pullback in ``n`` odd variables.

    The reduced map is fractional-linear with nonzero determinant, the odd
    linear part is invertible over the rational functions, and every even
    nilpotent and odd cubic-or-higher term is present with a polynomial
    coefficient of the given degree.
    """
    weight = grassmann.idx_weight
    while True:
        a, b, c, d = (rng.choice(NONZERO) for _ in range(4))
        if a * d - b * c:
            break
    even = {0: RationalFunction(Polynomial({0: c, 1: d}), Polynomial({0: a, 1: b}))}
    for idx in range(1, 1 << n):
        if weight(idx) % 2 == 0:
            even[idx] = _rf(rng, degree)
    zero, one = RationalFunction.zero(), RationalFunction.one()
    while True:
        mat = [[_rf(rng, degree) for _ in range(n)] for _ in range(n)]
        if linalg.determinant(mat, zero, one):
            break
    odds = []
    for j in range(n):
        terms = {1 << k: mat[j][k] for k in range(n)}
        for idx in range(1 << n):
            if weight(idx) >= 3 and weight(idx) % 2 == 1:
                terms[idx] = _rf(rng, degree)
        odds.append(grassmann.SuperFunction(geometry.CHART0, n, terms))
    even_image = grassmann.SuperFunction(geometry.CHART0, n, even)
    return grassmann.PullbackData(geometry.CHART0, geometry.CHART0, even_image, odds)


def random_flow(rng, n):
    """(field text, time text) of a nilpotent even field along d/dz."""
    pieces = []
    for idx in range(3, 1 << n):
        if grassmann.idx_weight(idx) == 2:
            c0, c1 = rng.choice(NONZERO), rng.choice(NONZERO)
            odd = "*".join("t%d" % (j + 1) for j in grassmann.idx_positions(idx))
            sign = "+" if c1 > 0 else "-"
            pieces.append("(%s %s %s*z)*%s" % (_frac(c0), sign, _frac(abs(c1)), odd))
    return " + ".join(pieces), _frac(rng.choice(NONZERO))


def random_sl2(rng):
    """Unit-determinant rational matrix with every entry nonzero."""
    while True:
        a, b, c = (rng.choice(NONZERO) for _ in range(3))
        d = (1 + b * c) / a
        if d:
            return ((a, b), (c, d))


def _frac(value):
    return "%d/%d" % (value.numerator, value.denominator) if value.denominator != 1 else str(
        value.numerator
    )


def _matmul2(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def decompose_text(parts):
    """What `decompose --machine` prints for a Rothstein decomposition."""
    lines = ["degree_zero.z=%s" % superfunction_text(parts.degree_zero.even_image)]
    for j, img in enumerate(parts.degree_zero.odd_images):
        lines.append("degree_zero.t%d=%s" % (j + 1, superfunction_text(img)))
    lines.append("generator=%s" % derivation_text(parts.nilpotent_generator))
    return "\n".join(lines) + "\n"


def setup_pullbacks(seed, workdir):
    rng = random.Random(seed)
    chart = geometry.CHART0
    cases = []
    expected = {}
    automorphisms = {}

    for n, count, degree in AUTOMORPHISMS:
        for k in range(count):
            tag = "n%d.%d" % (n, k)
            p = random_automorphism(rng, n, degree)
            automorphisms[tag] = p
            inverse_text = files.pullback_text(derivations.pullback_invert(p))
            path = os.path.join(workdir, tag + ".spb")
            inverse_path = os.path.join(workdir, tag + ".inv.spb")
            for target, text in ((path, files.pullback_text(p)), (inverse_path, inverse_text)):
                with open(target, "w", encoding="utf-8") as handle:
                    handle.write(text)
            identity = files.pullback_text(grassmann.PullbackData.identity(chart, n))
            cases.append(_cli_case("invert:" + tag, ["invert", "--pullback", path]))
            cases.append(
                _cli_case("decompose:" + tag, ["decompose", "--pullback", path, "--machine"])
            )
            cases.append(_cli_case("compose:" + tag, ["compose", path, inverse_path]))
            expected["invert:" + tag] = inverse_text
            expected["compose:" + tag] = identity

    flows = {}
    for k, n in enumerate(FLOW_DIMS):
        tag = "flow:n%d.%d" % (n, k)
        field, time = random_flow(rng, n)
        flows[tag] = (n, field, time)
        cases.append(
            _cli_case(tag, ["flow", "--field=" + field, "--time=" + time, "--odd-dim", str(n)])
        )

    manifold = files.load_bundled_manifold("nonsplit-2-2")
    basis = liealg.solve_global_fields(manifold)
    a, b = random_sl2(rng), random_sl2(rng)
    matrices = {"conj:A": a, "conj:B": b, "conj:AB": _matmul2(a, b)}

    def conjugation(matrix):
        return lambda: liealg.conjugation_action(
            basis, geometry.mobius_lift(manifold, "nonsplit", matrix)
        )

    cases += [Case(name, conjugation(matrix)) for name, matrix in matrices.items()]

    def check(outputs):
        failed = {name for name, text in expected.items() if outputs.get(name) != text}
        for tag, p in automorphisms.items():
            parts = derivations.rothstein_decompose(p)
            text = outputs.get("decompose:" + tag)
            if derivations.recombine(parts) != p or text != decompose_text(parts):
                failed.add("decompose:" + tag)
        for tag, (n, field, time) in flows.items():
            if tag not in outputs or not _flow_inverts(outputs[tag], n, field, time):
                failed.add(tag)
        if not set(matrices) <= set(outputs) or outputs["conj:AB"] != linalg.mat_mul(
            outputs["conj:A"], outputs["conj:B"], GR_ZERO
        ):
            failed.update(matrices)
        return failed

    return Workload(cases, check)


def _flow_inverts(text, n, field, time):
    """The printed time-t flow followed by the time -t flow is the identity."""
    chart = geometry.CHART0
    coeff = parse_superfunction(field, n, chart)
    zero = grassmann.SuperFunction.zero(chart, n)
    der = derivations.SuperDerivation(chart, n, coeff, [zero] * n)
    back = der.exp_pullback(-GaussianRational(Fraction(time)))
    forward = files.parse_pullback_text(text)
    return grassmann.compose(forward, back) == grassmann.PullbackData.identity(chart, n)


WORKLOADS = {
    "bundled-report": setup_bundled,
    "solver-ladder": setup_ladder,
    "bracket-table": setup_brackets,
    "pullbacks": setup_pullbacks,
}
