"""Exception types shared across the package."""


class FramedCurveError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(FramedCurveError, ValueError):
    """Vector or matrix dimensions do not match the ambient model."""


class DomainError(FramedCurveError, ValueError):
    """Input lies outside the admissible domain (wrong quadric side, null cone, ...)."""


class DegeneracyError(FramedCurveError, ValueError):
    """A vector became (numerically) dependent during orthonormalization.

    Carries the index of the offending vector in ``index``.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"degenerate vector at position {index}")


class FiniteTypeError(FramedCurveError, ValueError):
    """Rank profile failed to reach full rank within the derivative budget."""

    def __init__(self, reached_rank, r_max, message=None):
        self.reached_rank = reached_rank
        self.r_max = r_max
        super().__init__(
            message
            or f"rank stalled at {reached_rank} within derivative budget r_max={r_max}"
        )


class IntegrationError(FramedCurveError, RuntimeError):
    """Adaptive integration failed to meet the tolerance."""

    def __init__(self, s, message=None):
        self.s = s
        super().__init__(message or f"integration failed near s={s}")


class ChartError(FramedCurveError, ValueError):
    """Flag curve left the lower-triangular coordinate chart."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"flag left the coordinate chart near t={t}")


class ConfigError(FramedCurveError, ValueError):
    """Run configuration is malformed or inconsistent."""
