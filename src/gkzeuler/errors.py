"""Shared exception types for the toolkit.

Each error derives from one of three categories, whose exit_code and label
alone decide the CLI's exit code and stderr label (cli.main): BadInput (2,
"bad input"), Degenerate (3, "degenerate parameters") and NumericalFailure
(4, "numerical failure").  A bare GkzError exits 2 with "error".
"""


class GkzError(Exception):
    """Base class for all toolkit errors."""
    exit_code, label = 2, "error"


class BadInput(GkzError):
    label = "bad input"


class Degenerate(GkzError):
    exit_code, label = 3, "degenerate parameters"


class NumericalFailure(GkzError):
    exit_code, label = 4, "numerical failure"


class SingularMatrix(BadInput):
    pass


class LatticeNotFull(BadInput):
    pass


class BadDimensions(BadInput):
    pass


class NotATriangulation(BadInput):
    pass


class NotConvergent(BadInput):
    pass


class NotUnimodular(BadInput):
    pass


class DegenerateLifting(Degenerate):
    pass


class DegenerateParameter(Degenerate):
    pass


class NonGenericParameter(Degenerate):
    pass


class PoleAtNonpositiveInteger(Degenerate):
    pass


class SineZero(Degenerate):
    pass


class UndefinedRatio(Degenerate):
    pass


class ZeroDenominator(Degenerate):
    pass


class DivergentTail(NumericalFailure):
    pass


class ExhaustedRetries(NumericalFailure):
    pass


class ScaleTooSmall(NumericalFailure):
    pass
