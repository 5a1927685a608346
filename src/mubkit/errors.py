"""Exception types shared across the package."""


class MubkitError(Exception):
    """Base class for every error raised by mubkit."""


class DimMismatch(MubkitError):
    """Operands have incompatible dimensions."""


class NonFinite(MubkitError, ValueError):
    """Matrix has a NaN or infinite entry."""


class NotNormalized(MubkitError, ValueError):
    """A state's trace, or a distribution's total, is not 1; or a zero vector."""


class InvalidProbability(MubkitError, ValueError):
    """A computed probability is complex or outside [0, 1] beyond tolerance."""


class NotHermitian(MubkitError):
    """Matrix is not Hermitian within tolerance."""


class NotPositive(MubkitError):
    """Matrix has an eigenvalue below -tol."""


class SpectrumOutOfRange(MubkitError):
    """Effect spectrum leaves [0, 1] by more than tol."""


class NotAnEffect(MubkitError):
    """An observable entry failed effect validation."""


class SumNotIdentity(MubkitError):
    """Observable effects do not sum to the identity within tolerance."""


class DuplicateLabel(MubkitError):
    """Outcome labels are not unique."""


class LabelMismatch(MubkitError):
    """Outcome labels do not line up between two objects."""


class InvalidDim(MubkitError):
    """Dimension argument is out of range for the construction."""


class InvalidParams(MubkitError):
    """Generator parameters are inconsistent (rank, outcome count, ...), or a
    ``tol`` is not a finite positive number."""


class NotAtomic(MubkitError):
    """Predicate requires atomic observables."""


class InternalInconsistency(MubkitError):
    """Verdicts violate a proven implication by far more than tolerance."""


class BadPartition(MubkitError):
    """Partition string does not exactly cover the outcome set."""


class ParseError(MubkitError):
    """A JSON input file is malformed."""
