"""Exception types shared across the package."""


class SkewrelError(Exception):
    """Base class for all package errors."""


class ValidationError(SkewrelError):
    """An input violated one of its documented invariants.

    The message always names the failed invariant so callers (notably the
    CLI) can report it verbatim.
    """


class DimensionMismatch(ValidationError):
    """Operands have incompatible shapes."""


class NotHermitian(ValidationError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NegativeSpectrum(ValidationError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class TraceNotOne(ValidationError):
    """A density matrix trace differs from 1 beyond tolerance."""


class AlphaOutOfRange(ValidationError):
    """Skew-information order parameter outside the open interval (0, 1)."""


class BadSpec(ValidationError):
    """An ensemble or search specification is invalid."""


class MalformedDocument(ValidationError):
    """A problem/report/witness document violates its schema."""


class NonFiniteResult(ValidationError):
    """A computed result is NaN or infinite, so it cannot be reported."""


class InconsistentResult(ValidationError):
    """Two independent forms of one computed functional disagree beyond tolerance."""


class NoConvergence(SkewrelError):
    """The eigensolver did not reach its off-diagonal threshold within budget."""
