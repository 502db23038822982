"""Exception types shared across the package."""


class GritError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GritError):
    """Operands have incompatible dimensions."""


class DecompositionError(GritError):
    """Eigendecomposition could not be performed (non-finite input or no convergence)."""


class SingularMatrixError(GritError):
    """Damped solve failed at every rung of the damping ladder."""

    def __init__(self, message: str, multiplier: float):
        super().__init__(message)
        self.multiplier = multiplier


class TapeError(GritError):
    """Backward called without a matching forward, or tape consumed twice."""


class PreconditionUnavailableError(GritError):
    """Natural-gradient preconditioning requested before inverses are ready."""


class ValidationError(GritError):
    """An input failed a documented precondition; index, if given, is the first bad item's position."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ConfigError(GritError):
    """Run configuration is missing a key, has an unknown key, or fails validation."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class UnderdeterminedFitError(GritError):
    """Scaling-law fit lacks spread along a required axis."""

    def __init__(self, message: str, axis: str):
        super().__init__(message)
        self.axis = axis


class UnidentifiableGammaError(GritError):
    """All geometry statistics are constant; no geometry coefficient is identifiable."""
