"""Exception hierarchy shared by all modules."""


class BischurError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(BischurError, ValueError):
    """Malformed input: wrong shape, non-finite entries, bad parameters."""


class SchemaError(InvalidInputError):
    """A JSON payload does not match the documented schema."""


class NoSolutionError(BischurError):
    """A linear system is inconsistent; carries the measured residual and
    the index of the system in the stack it was solved in (0 for one
    system)."""

    def __init__(self, message, residual, member=0):
        super().__init__(message)
        self.residual = float(residual)
        self.member = member


class IllConditionedError(BischurError):
    """Condition number above the configured ceiling; ``point`` is the point
    of a stacked solve it was refused at, else None."""

    def __init__(self, message, cond, point=None):
        super().__init__(message)
        self.cond = float(cond)
        self.point = point


class NotAnIsometryError(BischurError):
    """Gramians of domain and range vectors disagree."""

    def __init__(self, message, deviation):
        super().__init__(message)
        self.deviation = float(deviation)


class PreconditionError(BischurError):
    """An operation's stated precondition does not hold."""


class DomainError(BischurError, ValueError):
    """Argument outside the domain of analyticity of the evaluated function."""


class PoleError(DomainError):
    """Evaluation point coincides with a pole."""


class UseLimitError(DomainError):
    """The closed-form expression degenerates and a limit would be required."""


class BoundarySingularityError(BischurError):
    """The inner function's denominator is singular at a boundary point."""


class NotSlopeTypeError(BischurError):
    """Nevanlinna data violates one of the slope-type conditions (a), (b), (c)."""

    def __init__(self, message, condition):
        super().__init__(message)
        self.condition = condition


class ObstructionError(BischurError):
    """The self-adjoint representation does not exist: 1 lies in the
    spectrum of the realization, i.e. the function has boundary value 1."""


class InternalInconsistencyError(BischurError):
    """A quantity that is guaranteed by theory failed its numerical check."""


class DivergenceError(BischurError):
    """A sampled sequence grows without bound instead of converging."""


class NoLimitError(DivergenceError):
    """A sampled sequence fails to stabilize within the step budget."""
