"""Exception types raised by the gotd package."""


class GotdError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(GotdError):
    """Operands do not conform (wrong matrix or vector dimensions)."""


class RankDeficient(GotdError):
    """A matrix has numerical rank below the requested rank."""


class IllConditioned(GotdError):
    """A linear system is too ill-conditioned to solve reliably.

    For constraint Gram systems this signals a loss of the full-rank
    property of the constraint differential at the current point.
    """


class NotConverged(GotdError):
    """An iterative solver exhausted its budget without reaching tolerance."""


class Diverged(GotdError):
    """A run's values became non-finite or huge, or its extra metric non-finite."""


class NotTangent(GotdError, ValueError):
    """A retraction step is not tangent at the point, or its factored
    form breaks the gauge conditions U^T Up = 0, V^T Vp = 0."""


class DegenerateStep(GotdError):
    """A sparsity retraction target has fewer nonzeros than required."""


class DegenerateProjection(GotdError):
    """A metric projection onto a constraint set is undefined or non-unique."""


class DomainViolation(GotdError):
    """An input left the domain of a function (e.g. a Lorentz product <= 0)."""


class InfeasibleSampling(GotdError):
    """Requested more samples than the population contains."""


class UsageError(GotdError):
    """Invalid command line or configuration input."""
