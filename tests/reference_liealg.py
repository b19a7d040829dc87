"""Reference basis expansion kept as a test oracle.

This is the ``expand_in_basis`` that ``supervec.liealg`` used before a basis
was reduced once, at construction, kept verbatim with its three slot
helpers: every call collects the slots of the basis and of the targets,
builds the dense slot x field matrix and solves it for all targets jointly.
Its ``solve_columns`` is the dense one of ``reference_linalg``, so the oracle
shares no elimination code with the library.  The coefficients in a basis
are unique, so the library must return the same tuples, or raise
``NotInSpan`` with the same message, on every input.
"""

from __future__ import annotations

from supervec.errors import NotInSpan
from supervec.scalars import GR_ZERO

from reference_linalg import solve_columns


def _derivation_slots(ders):
    """Row index of every (component, multi-index, z-power) the derivations use.

    None when some coefficient is not a polynomial.
    """
    slots = set()
    for der in ders:
        for comp, coeff in [(-1, der.even_coeff)] + list(enumerate(der.odd_coeffs)):
            for nu, rf in coeff.terms.items():
                if not rf.is_polynomial():
                    return None
                for e in rf.num.coeffs:
                    slots.add((comp, nu, e))
    return {s: i for i, s in enumerate(sorted(slots))}


def _derivation_vector(der, slot_index):
    vec = [GR_ZERO] * len(slot_index)
    for comp, coeff in [(-1, der.even_coeff)] + list(enumerate(der.odd_coeffs)):
        for nu, rf in coeff.terms.items():
            for e, c in rf.num.coeffs.items():
                vec[slot_index[(comp, nu, e)]] = c
    return vec


def _coefficient_matrix(ders, slot_index):
    """One column per derivation, one row per slot."""
    vectors = [_derivation_vector(d, slot_index) for d in ders]
    return [[vec[r] for vec in vectors] for r in range(len(slot_index))]


def expand_in_basis(basis, ders):
    """Coefficients of chart-0 derivations in the basis; NotInSpan on failure."""
    base_ders = [f.chart0_der for f in basis.fields]
    slot_index = _derivation_slots(base_ders + list(ders))
    if slot_index is None:
        raise NotInSpan("derivation has non-polynomial coefficients")
    matrix = _coefficient_matrix(base_ders, slot_index)
    targets = [_derivation_vector(d, slot_index) for d in ders]
    solutions = solve_columns(matrix, targets)
    out = []
    for sol in solutions:
        if sol is None:
            raise NotInSpan("derivation does not lie in the span of the basis")
        out.append(tuple(sol))
    return out
