"""Span tracing for the traced benchmark run, applied from outside the program.

``install`` wraps supervec's public functions and a few hot methods.  Each
wrapped call opens a span (name, start, end, parent); the tracer keeps
per-name aggregates for every call and the spans themselves, up to a cap, in
memory, and ``write`` dumps them as JSON lines when the benchmark ends.

Modules are the layers: every wrapped name belongs to its module, which
reports ``<module>.self_s`` (span time minus child spans) and
``<module>.calls``.  Named groups collect the spans a per-layer metric is
about; a group's time counts only its outermost spans, so nested members
(``compose`` calling ``PullbackData.apply``) are not counted twice, and its
``calls`` count those outermost entries.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

MODULES = (
    "cli", "files", "expressions", "liealg", "linalg",
    "geometry", "derivations", "grassmann", "scalars",
)

# (module, attribute or Class.method, groups)
TARGETS = (
    ("cli", "main", ()),
    ("files", "resolve_manifold", ()),
    ("files", "load_manifold", ()),
    ("files", "load_bundled_manifold", ()),
    ("files", "load_pullback", ()),
    ("files", "parse_manifold_text", ("files.parse",)),
    ("files", "parse_pullback_text", ("files.parse",)),
    ("files", "manifold_text", ()),
    ("files", "pullback_text", ()),
    ("expressions", "parse_superfunction", ("expressions.parse",)),
    ("expressions", "parse_rational", ("expressions.parse",)),
    ("expressions", "superfunction_text", ("expressions.text",)),
    ("expressions", "derivation_text", ("expressions.text",)),
    ("expressions", "scalar_text", ("expressions.text",)),
    ("liealg", "hc_pair_report", ()),
    ("liealg", "solve_global_fields", ("liealg.solve",)),
    ("liealg", "structure_constants", ("liealg.structure",)),
    ("liealg", "expand_in_basis", ("liealg.expand",)),
    ("liealg", "jacobi_check", ("liealg.jacobi",)),
    ("liealg", "weight_decomposition", ("liealg.weights",)),
    ("liealg", "odd_derived_span", ()),
    ("liealg", "reduced_trivial_subspace", ()),
    ("liealg", "gr_comparison", ("liealg.gr",)),
    ("liealg", "conjugation_action", ("liealg.conjugation",)),
    ("linalg", "kernel_basis", ("linalg.kernel",)),
    ("linalg", "rref", ("linalg.rref",)),
    ("linalg", "rank", ()),
    ("linalg", "solve_columns", ()),
    ("linalg", "determinant", ("linalg.rf",)),
    ("linalg", "solve_square", ("linalg.rf",)),
    ("linalg", "invert_matrix", ("linalg.rf",)),
    ("linalg", "mat_mul", ()),
    ("geometry", "GlobalVectorField.__init__", ("geometry.global_field",)),
    ("geometry", "morphism_check_global", ("geometry.check_global",)),
    ("geometry", "mobius_lift", ("geometry.lift",)),
    ("geometry", "nilpotent_flow", ()),
    ("derivations", "SuperDerivation.bracket", ("derivations.bracket",)),
    ("derivations", "bracket", ("derivations.bracket",)),
    ("derivations", "SuperDerivation.exp_pullback", ("derivations.exp",)),
    ("derivations", "rothstein_decompose", ("derivations.decompose",)),
    ("derivations", "recombine", ()),
    ("derivations", "invert_degree_zero", ()),
    ("derivations", "pullback_invert", ("derivations.invert",)),
    ("grassmann", "PullbackData.apply", ("grassmann.apply",)),
    ("grassmann", "compose", ("grassmann.compose",)),
    ("scalars", "RationalFunction.__init__", ("scalars.rf_new",)),
    ("scalars", "Polynomial.gcd", ("scalars.poly_gcd",)),
)

# per-layer metric name -> (group, field); field is "time" or "calls"
GROUP_METRICS = {
    "linalg.kernel_basis_s": ("linalg.kernel", "time"),
    "linalg.kernel.calls": ("linalg.kernel", "calls"),
    "linalg.rref_s": ("linalg.rref", "time"),
    "linalg.rf_s": ("linalg.rf", "time"),
    "liealg.solve.calls": ("liealg.solve", "calls"),
    "liealg.solve_s": ("liealg.solve", "time"),
    "liealg.structure_s": ("liealg.structure", "time"),
    "liealg.expand_s": ("liealg.expand", "time"),
    "liealg.jacobi_s": ("liealg.jacobi", "time"),
    "liealg.weights_s": ("liealg.weights", "time"),
    "liealg.gr_s": ("liealg.gr", "time"),
    "liealg.conjugation_s": ("liealg.conjugation", "time"),
    "derivations.bracket.calls": ("derivations.bracket", "calls"),
    "derivations.bracket_s": ("derivations.bracket", "time"),
    "derivations.decompose_s": ("derivations.decompose", "time"),
    "derivations.invert_s": ("derivations.invert", "time"),
    "derivations.exp_s": ("derivations.exp", "time"),
    "grassmann.apply.calls": ("grassmann.apply", "calls"),
    "grassmann.apply_s": ("grassmann.apply", "time"),
    "grassmann.compose_s": ("grassmann.compose", "time"),
    "geometry.lift_s": ("geometry.lift", "time"),
    "geometry.check_global_s": ("geometry.check_global", "time"),
    "geometry.global_field_s": ("geometry.global_field", "time"),
    "scalars.rf_new.calls": ("scalars.rf_new", "calls"),
    "scalars.poly_gcd.calls": ("scalars.poly_gcd", "calls"),
    "expressions.text_s": ("expressions.text", "time"),
    "expressions.parse_s": ("expressions.parse", "time"),
    "files.parse_s": ("files.parse", "time"),
}

# sizes of the systems handed to kernel_basis, summed over calls
KERNEL_COUNTERS = ("linalg.kernel.rows", "linalg.kernel.cols", "linalg.kernel.nnz", "linalg.kernel.cells")

SPAN_CAP = 200_000


def _kernel_sizes(matrix, ncols, *_args, **_kwargs):
    rows = len(matrix)
    nnz = sum(1 for row in matrix for entry in row if entry)
    return rows, ncols, nnz, rows * ncols


class Tracer:
    """Span stack plus running totals; one per traced run."""

    def __init__(self):
        self.stack = []  # open spans: [span_id, name, start, child_time]
        self.group_time = {}
        self.group_calls = {}
        self.group_depth = {}
        self.module_self = dict.fromkeys(MODULES, 0.0)
        self.module_calls = dict.fromkeys(MODULES, 0)
        self.counters = dict.fromkeys(KERNEL_COUNTERS, 0)
        self.spans = []
        self.dropped = 0
        self.next_id = 0

    def wrap(self, name, module, groups, fn, sizes=None):
        stack = self.stack
        group_time, group_calls, depth = self.group_time, self.group_calls, self.group_depth
        module_self, module_calls, spans = self.module_self, self.module_calls, self.spans
        for group in groups:
            group_time.setdefault(group, 0.0)
            group_calls.setdefault(group, 0)
            depth.setdefault(group, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sizes is not None:
                begin = perf_counter()
                for key, value in zip(KERNEL_COUNTERS, sizes(*args, **kwargs)):
                    self.counters[key] += value
                if stack:
                    # sizing is tracing work: keep it out of the caller's self time
                    stack[-1][3] += perf_counter() - begin
            outer = [g for g in groups if not depth[g]]
            for group in groups:
                depth[group] += 1
            span_id = self.next_id
            self.next_id += 1
            frame = [span_id, name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                module_self[module] += duration - frame[3]
                module_calls[module] += 1
                for group in groups:
                    depth[group] -= 1
                for group in outer:
                    group_time[group] += duration
                    group_calls[group] += 1
                parent = None
                if stack:
                    stack[-1][3] += duration
                    parent = stack[-1][0]
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name, frame[2], end, parent))
                else:
                    self.dropped += 1

        return traced

    def snapshot(self):
        """Current totals as one flat dict of per-layer metric values."""
        values = {}
        for module in MODULES:
            values[module + ".self_s"] = self.module_self[module]
            values[module + ".calls"] = self.module_calls[module]
        for metric, (group, field) in GROUP_METRICS.items():
            values[metric] = (self.group_time if field == "time" else self.group_calls)[group]
        values.update(self.counters)
        return values

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                handle.write(json.dumps(record) + "\n")


def install(tracer):
    """Wrap every target in every supervec namespace that holds it; returns an undo list."""
    namespaces = [m for n, m in sorted(sys.modules.items()) if n == "supervec" or n.startswith("supervec.")]
    undo = []
    for module, attr, groups in TARGETS:
        home = sys.modules["supervec." + module]
        sizes = _kernel_sizes if attr == "kernel_basis" else None
        name = "%s.%s" % (module, attr)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, tracer.wrap(name, module, groups, original, sizes))
            continue
        original = getattr(home, attr)
        wrapped = tracer.wrap(name, module, groups, original, sizes)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    undo.append((namespace, key, original))
                    setattr(namespace, key, wrapped)
    return undo


def uninstall(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
