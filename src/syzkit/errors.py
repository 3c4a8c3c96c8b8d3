"""Exception types shared across the package."""


class SyzkitError(Exception):
    """Base class for all errors raised by syzkit."""


class IllFormedRelation(SyzkitError):
    """A relation is not composable, not admissible, or otherwise malformed."""


class NotNilpotent(SyzkitError):
    """No nilpotency degree N <= length_cap exists; the algebra may be infinite-dimensional."""


class PathBudgetExceeded(SyzkitError):
    """The path enumeration grew past the configured limit before the build converged."""


class DimensionMismatch(SyzkitError):
    """Matrix or module dimensions are incompatible."""


class SideMismatch(SyzkitError):
    """Left module supplied where a right module was required, or vice versa."""


class AlgebraMismatch(SyzkitError):
    """Modules over different algebras were combined."""


class ZeroModuleError(SyzkitError):
    """The zero module was supplied where a nonzero one is required."""


class ExtensionFieldAmbiguity(SyzkitError):
    """End(M)/rad appears to be a division algebra of dimension > 1 over Q.

    The module is indecomposable over Q but may split after a field
    extension; rather than guess, the decomposition machinery refuses.
    """


class CatalogOpen(SyzkitError):
    """An operation required a closed syzygy catalog but the catalog is still open."""


class BadBudget(SyzkitError, ValueError):
    """A budget below the least value an operation accepts."""


class InternalConsistencyError(SyzkitError):
    """Two independent computation paths disagreed; aborting rather than guessing."""


class LoopsPresent(SyzkitError):
    """The valued quiver has loops; no algebra presentation is derived for such input."""


class NonpositiveCycle(SyzkitError):
    """The valued quiver has a directed cycle of total value 0; the derived algebra
    would be infinite-dimensional."""


class BadExponentMatrix(SyzkitError):
    """The exponent matrix violates a tiled-order invariant."""


class ParseError(SyzkitError):
    """Positioned parse error for the textual file formats."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
