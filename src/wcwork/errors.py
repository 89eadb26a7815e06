"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: invalid input / config -> 2,
resource limits -> 3, numeric failures -> 4.
"""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class SupportMismatchError(InvalidInputError):
    """A forward work atom has no partner atom in the reverse distribution."""


class StepSizeError(InvalidInputError):
    """A discretization step is too coarse (e.g. swap probability > 1)."""


class ResourceLimitError(RuntimeError):
    """The exact recursion's live atoms would exceed the cap; use Monte Carlo."""


class NumericError(RuntimeError):
    """An integrator or differentiation routine failed to converge."""


class ConvergenceError(NumericError):
    """A truncated series left too much unaccounted probability mass."""
