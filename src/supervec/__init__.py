"""Exact symbolic toolkit for super vector fields on (1|n) supermanifolds
over the projective line.

Everything is computed over the Gaussian rationals: transition data between
the two standard charts, morphism pullbacks and their inverses, nilpotent
flows, global super vector fields, and the Lie-superalgebra structure
(brackets, adjoint weights, split-model comparison) that forms the
infinitesimal half of a Harish-Chandra pair.
"""

from .errors import (
    InputError,
    MathDomainError,
    ToolkitError,
)
from .scalars import GaussianRational, Polynomial, RationalFunction
from .grassmann import PullbackData, SuperFunction, compose
from .derivations import (
    RothsteinParts,
    SuperDerivation,
    bracket,
    pullback_invert,
    recombine,
    rothstein_decompose,
)
from .geometry import (
    CHART0,
    CHART1,
    GlobalVectorField,
    SuperManifoldData,
    mobius_lift,
    morphism_check_global,
    nilpotent_flow,
    nonsplit_transition,
    sl2_embedding,
)
from .liealg import (
    SuperalgebraBasis,
    StructureConstants,
    adjoint_matrix,
    conjugation_action,
    expand_in_basis,
    gr_comparison,
    hc_pair_report,
    jacobi_check,
    odd_derived_span,
    reduced_trivial_subspace,
    solve_global_fields,
    structure_constants,
    weight_decomposition,
)
from .expressions import parse_superfunction, superfunction_text
from .files import (
    load_bundled_manifold,
    load_manifold,
    load_pullback,
    manifold_text,
    pullback_text,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
