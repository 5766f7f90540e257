"""Exception types shared across the package."""


class GlsemiError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(GlsemiError):
    """Mismatched moduli/dimensions or an invalid instance description."""


class PreconditionError(GlsemiError):
    """An operation was called outside its stated domain."""


class CapacityError(GlsemiError):
    """An enumeration, closure, or search exceeded its configured cap."""


class InfeasibleError(GlsemiError):
    """A factorization was requested that provably does not exist."""


class InternalInconsistencyError(GlsemiError):
    """A structural fact that must hold failed to verify; indicates a bug."""


class UnsupportedComparisonError(GlsemiError):
    """Comparison requested across different ground fields."""
