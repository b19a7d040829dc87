"""Exception hierarchy shared by all toolkit modules.

Every error carries a stable machine-readable ``code`` used by the CLI and
by golden tests.  ``InputError`` covers malformed input (expressions, files,
transition data); ``MathDomainError`` covers well-formed input on which the
requested operation is undefined.
"""


class ToolkitError(Exception):
    code = "ToolkitError"

    def __init__(self, message=""):
        super().__init__(message or self.code)
        self.message = message or self.code


class InputError(ToolkitError):
    """Bad source text or bad manifold/pullback data.  CLI exit code 2."""

    code = "InputError"


class MathDomainError(ToolkitError):
    """Operation undefined for this (valid) input.  CLI exit code 3."""

    code = "MathDomainError"


class DivisionByZero(MathDomainError, ZeroDivisionError):
    code = "DivisionByZero"


class UndefinedComposition(MathDomainError):
    code = "UndefinedComposition"


class ChartMismatch(MathDomainError):
    code = "ChartMismatch"


class MixedParity(MathDomainError):
    code = "MixedParity"


class NotNilpotent(MathDomainError):
    code = "NotNilpotent"


class NotInvertible(MathDomainError):
    code = "NotInvertible"


class UnsupportedReducedMap(MathDomainError):
    code = "UnsupportedReducedMap"


class BadDeterminant(MathDomainError):
    code = "BadDeterminant"


class FamilyShapeMismatch(MathDomainError):
    code = "FamilyShapeMismatch"


class NotTraceless(MathDomainError):
    code = "NotTraceless"


class NotClosed(MathDomainError):
    code = "NotClosed"


class OddCartan(MathDomainError):
    code = "OddCartan"


class NotDiagonalizable(MathDomainError):
    code = "NotDiagonalizable"


class NotGlobal(MathDomainError):
    code = "NotGlobal"


class NotInSpan(MathDomainError):
    code = "NotInSpan"


class CapNotSaturated(MathDomainError):
    code = "CapNotSaturated"

    def __init__(self, cap, dims, dims_next):
        super().__init__(
            "degree cap %d not saturated: dims %r grew to %r at cap %d"
            % (cap, dims, dims_next, cap + 2)
        )
        self.cap = cap
        self.dims = dims
        self.dims_next = dims_next


class SystemTooLarge(MathDomainError):
    code = "SystemTooLarge"


class GrInequalityViolated(MathDomainError):
    code = "GrInequalityViolated"


class ResidualNotCleared(MathDomainError):
    code = "ResidualNotCleared"


class RecombinationMismatch(MathDomainError):
    code = "RecombinationMismatch"


class InexactRootDivision(MathDomainError):
    code = "InexactRootDivision"


class NumberTooLong(MathDomainError):
    code = "NumberTooLong"


class BadReducedMap(InputError):
    code = "BadReducedMap"


class NotLaurent(InputError):
    code = "NotLaurent"


class DegenerateOddPart(InputError):
    code = "DegenerateOddPart"


class ExprSyntaxError(InputError):
    code = "SyntaxError"

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class RepeatedOddVariable(ExprSyntaxError):
    code = "RepeatedOddVariable"


class OddDenominator(InputError):
    code = "OddDenominator"


class BadOddDim(InputError):
    code = "BadOddDim"


class FileFormatError(InputError):
    code = "BadFile"


class NegativeCap(InputError):
    code = "NegativeCap"
