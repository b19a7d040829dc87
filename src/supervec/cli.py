"""Command-line interface.

Each ``cmd_*`` command returns its output as a list of lines, and ``main``
writes them to ``out`` once, after the command has returned, so stdout is
written only on exit 0.  Exit codes: 0 on success, 2 on input errors
(argparse usage, expression or file syntax, invalid transition data), 3 on
math-domain errors (singular data, unsaturated caps, non-global morphisms).
All diagnostics go to ``err``, argparse's usage messages included; ``--help``
goes to ``out``.  The parser is built on the first ``main`` call and reused
for the rest of the process.  Reports are byte-deterministic for a given
invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from .derivations import SuperDerivation, pullback_invert, rothstein_decompose
from .errors import BadOddDim, InputError, MathDomainError, OddCartan
from .expressions import (
    MAX_ODD_DIM,
    derivation_text,
    parse_integer,
    parse_rational,
    parse_superfunction,
    scalar_text,
)
from .files import (
    image_pairs,
    load_pullback,
    manifold_text,
    pullback_text,
    resolve_manifold,
)
from .geometry import CHART0, KIND_C01
from .grassmann import SuperFunction, compose
from .liealg import (
    gr_comparison,
    hc_pair_report,
    jacobi_check,
    solve_global_fields,
    structure_constants,
    weight_decomposition,
)


def _vector_text(vec, labels):
    parts = []
    for c, label in zip(vec, labels):
        if c:
            parts.append("%s*%s" % (scalar_text(c), label))
    return " + ".join(parts) if parts else "0"


def _basis_labels(basis):
    return ["b%d" % i for i in range(len(basis.fields))]


def _manifold_header(manifold, machine):
    if machine:
        return ["name=%s" % manifold.name, "odd_dim=%d" % manifold.odd_dim, "kind=%s" % manifold.kind]
    return [
        "manifold: %s" % manifold.name,
        "odd_dim: %d" % manifold.odd_dim,
        "kind: %s" % manifold.kind,
    ]


def _basis_lines(basis, machine):
    lines = []
    labels = _basis_labels(basis)
    if machine:
        lines.append("cap=%d" % basis.cap_used)
        lines.append("clearing_exponent=%d" % basis.clearing_exponent)
        lines.append("dim_even=%d" % len(basis.even_basis))
        lines.append("dim_odd=%d" % len(basis.odd_basis))
        for i, field in enumerate(basis.fields):
            lines.append("basis.%d.parity=%d" % (i, field.parity))
            lines.append("basis.%d.chart0=%s" % (i, derivation_text(field.chart0_der)))
            lines.append("basis.%d.chart1=%s" % (i, derivation_text(field.chart1_der)))
        return lines
    lines.append("cap: %d (clearing exponent %d)" % (basis.cap_used, basis.clearing_exponent))
    lines.append("dim even: %d" % len(basis.even_basis))
    lines.append("dim odd: %d" % len(basis.odd_basis))
    lines.append("even basis:")
    for i, field in enumerate(basis.even_basis):
        lines.append("  %s = %s" % (labels[i], derivation_text(field.chart0_der)))
    lines.append("odd basis:")
    offset = len(basis.even_basis)
    for i, field in enumerate(basis.odd_basis):
        lines.append("  %s = %s" % (labels[offset + i], derivation_text(field.chart0_der)))
    return lines


def _structure_lines(basis, structure, jacobi, machine):
    """Basis, nonzero upper-triangle brackets and Jacobi verdict."""
    labels = _basis_labels(basis)
    lines = _basis_lines(basis, machine)
    if not machine:
        lines.append("brackets (nonzero, upper triangle):")
    for i in range(len(labels)):
        for j in range(i, len(labels)):
            text = _vector_text(structure.table[(i, j)], labels)
            if text == "0":
                continue
            if machine:
                lines.append("bracket.%d.%d=%s" % (i, j, text))
            else:
                lines.append("  [%s,%s] = %s" % (labels[i], labels[j], text))
    if machine:
        lines.append("jacobi=%s" % ("true" if jacobi else "false"))
    else:
        lines.append("jacobi: %s" % ("pass" if jacobi else "FAIL"))
    return lines


def cmd_vec(args):
    manifold = resolve_manifold(args.manifold)
    basis = solve_global_fields(manifold, args.cap)
    return _manifold_header(manifold, args.machine) + _basis_lines(basis, args.machine)


def cmd_brackets(args):
    manifold = resolve_manifold(args.manifold)
    basis = solve_global_fields(manifold, args.cap)
    structure = structure_constants(basis)
    ok = jacobi_check(structure)
    return _manifold_header(manifold, args.machine) + _structure_lines(
        basis, structure, ok, args.machine
    )


def cmd_gr(args):
    manifold = resolve_manifold(args.manifold)
    comparison = gr_comparison(manifold, args.cap)
    if args.machine:
        return _manifold_header(manifold, True) + [
            "dim_even=%d" % comparison.dims[0],
            "dim_odd=%d" % comparison.dims[1],
            "gr.dim_even=%d" % comparison.gr_dims[0],
            "gr.dim_odd=%d" % comparison.gr_dims[1],
            "split=%s" % ("true" if comparison.split else "false"),
            "gr.file=%s" % repr(manifold_text(comparison.gr)),
        ]
    return manifold_text(comparison.gr).splitlines() + [
        "",
        "dims %s: even %d, odd %d" % (manifold.name, comparison.dims[0], comparison.dims[1]),
        "dims %s: even %d, odd %d"
        % (comparison.gr.name, comparison.gr_dims[0], comparison.gr_dims[1]),
        "split: %s" % ("yes" if comparison.split else "no"),
        "total %d <= %d: holds" % (sum(comparison.dims), sum(comparison.gr_dims)),
    ]


def cmd_weights(args):
    manifold = resolve_manifold(args.manifold)
    basis = solve_global_fields(manifold, args.cap)
    n_even = len(basis.even_basis)
    if not 0 <= args.cartan < n_even:
        raise OddCartan("--cartan must index an even basis element (0..%d)" % (n_even - 1))
    structure = structure_constants(basis)
    h = [0] * n_even
    h[args.cartan] = 1
    weights = weight_decomposition(structure, h)
    lines = _manifold_header(manifold, args.machine)
    if args.machine:
        lines.append("cartan=%d" % args.cartan)
        for value, mult in weights:
            lines.append("weight.%s=%d" % (scalar_text(value), mult))
    else:
        lines.append("adjoint weights of b%d on the odd part:" % args.cartan)
        for value, mult in weights:
            lines.append("  weight %s multiplicity %d" % (scalar_text(value), mult))
    return lines


def cmd_check(args):
    manifold = resolve_manifold(args.manifold)
    if args.machine:
        return ["name=%s" % manifold.name, "valid=true"]
    return ["ok: %s (odd_dim %d, kind %s)" % (manifold.name, manifold.odd_dim, manifold.kind)]


def cmd_decompose(args):
    pullback = load_pullback(args.pullback)
    parts = rothstein_decompose(pullback)
    generator = derivation_text(parts.nilpotent_generator)
    if args.machine:
        pairs = image_pairs(parts.degree_zero, "z", "t")
        return ["degree_zero.%s=%s" % pair for pair in pairs] + ["generator=%s" % generator]
    return pullback_text(parts.degree_zero).splitlines() + [
        "",
        "generator (target-chart coordinates): %s" % generator,
    ]


def cmd_invert(args):
    pullback = load_pullback(args.pullback)
    return pullback_text(pullback_invert(pullback)).splitlines()


def cmd_compose(args):
    outer = load_pullback(args.pullbacks[0])
    inner = load_pullback(args.pullbacks[1])
    return pullback_text(compose(outer, inner)).splitlines()


def cmd_flow(args):
    odd_dim = args.odd_dim or 0
    if not 0 <= odd_dim <= MAX_ODD_DIM:
        raise BadOddDim(
            "--odd-dim must be 1..%d (t1..t%d), or 0 to infer it, not %d"
            % (MAX_ODD_DIM, MAX_ODD_DIM, odd_dim)
        )
    coeff = parse_superfunction(args.field, odd_dim or None, CHART0)
    odd_dim = coeff.odd_dim
    field = SuperDerivation(
        CHART0, odd_dim, coeff, [SuperFunction.zero(CHART0, odd_dim)] * odd_dim
    )
    t = parse_rational(args.time)
    return pullback_text(field.exp_pullback(t)).splitlines()


def cmd_report(args):
    manifold = resolve_manifold(args.manifold)
    report = hc_pair_report(manifold, args.cap)
    comparison = report.comparison
    machine = args.machine
    lines = _manifold_header(manifold, machine)
    if manifold.kind != KIND_C01:
        pairs = image_pairs(manifold.transition, "w", "eta")
        if machine:
            lines += ["transition.%s=%s" % pair for pair in pairs]
        else:
            lines += ["transition:"] + ["  %s = %s" % pair for pair in pairs]
    lines += _structure_lines(report.basis, report.structure, report.jacobi, machine)
    if machine:
        return lines + [
            "odd_derived_dim=%d" % report.derived_dim,
            "kernel_dim=%d" % report.kernel_dim,
            "split_supergroup=%s" % ("true" if report.split_supergroup else "false"),
            "gr.dim_even=%d" % comparison.gr_dims[0],
            "gr.dim_odd=%d" % comparison.gr_dims[1],
            "gr.split=%s" % ("true" if comparison.split else "false"),
            # gr_comparison raises GrInequalityViolated unless the inequality holds
            "gr.inequality=holds",
            "conjugation_identity=%s" % ("true" if report.conjugation_identity_ok else "false"),
        ]
    return lines + [
        "odd derived span dimension: %d" % report.derived_dim,
        "trivial-reduction kernel dimension: %d" % report.kernel_dim,
        "split supergroup: %s" % ("yes" if report.split_supergroup else "no"),
        "gr dims: even %d vs %d, odd %d vs %d"
        % (comparison.dims[0], comparison.gr_dims[0], comparison.dims[1], comparison.gr_dims[1]),
        "gr inequality (total %d <= %d): holds"
        % (sum(comparison.dims), sum(comparison.gr_dims)),
        "conjugation identity check: %s" % ("pass" if report.conjugation_identity_ok else "FAIL"),
    ]


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="supervec",
        description="Exact super vector fields on (1|n) supermanifolds over the projective line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_manifold_command(name, func, help_text, solves=True, cartan=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifold", required=True, help="manifold file path or bundled name")
        if solves:
            p.add_argument("--cap", type=parse_integer, default=None, help="override the degree cap")
        p.add_argument("--machine", action="store_true", help="line-oriented key=value output")
        if cartan:
            p.add_argument("--cartan", type=parse_integer, required=True, help="even basis index")
        p.set_defaults(func=func)
        return p

    add_manifold_command("vec", cmd_vec, "basis and dimensions of the global fields")
    add_manifold_command("brackets", cmd_brackets, "structure constants and Jacobi verdict")
    add_manifold_command("gr", cmd_gr, "split model file and dimension comparison")
    add_manifold_command("weights", cmd_weights, "adjoint eigenvalue table", cartan=True)
    add_manifold_command("check", cmd_check, "validate a manifold file", solves=False)
    add_manifold_command("report", cmd_report, "full Harish-Chandra report")

    p = sub.add_parser("decompose", help="degree-zero part and nilpotent generator of a pullback")
    p.add_argument("--pullback", required=True, help="pullback file path")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("invert", help="exact inverse of an automorphism pullback")
    p.add_argument("--pullback", required=True, help="pullback file path")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("compose", help="composition of two pullback files (first after second)")
    p.add_argument("pullbacks", nargs=2, metavar="PULLBACK", help="pullback file paths")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("flow", help="time-t flow pullback of a nilpotent even field")
    p.add_argument("--field", required=True, help="coefficient of d/dz (expression)")
    p.add_argument("--time", required=True, help="rational flow time")
    p.add_argument(
        "--odd-dim", type=parse_integer, default=None, dest="odd_dim",
        help="odd dimension 1..9; 0 or omitted infers it from --field",
    )
    p.set_defaults(func=cmd_flow)

    return parser


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = build_parser().parse_args(argv)
        lines = args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (InputError, MathDomainError) as exc:
        err.write("error: %s: %s\n" % (exc.code, exc.message))
        return 2 if isinstance(exc, InputError) else 3
    out.write("\n".join(lines) + "\n")
    return 0
