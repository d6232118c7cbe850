"""Exception types raised across the package.

One class per row of the CLI's exit-code table, plus :class:`NoConvergence`:
every refusal of an argument, a shape or a config is a :class:`ValidationError`
(exit 2), a value gone non-finite or a failed LAPACK call is a
:class:`NumericalFailure` (exit 3), and a run too large for its method is
:class:`TooLarge` (exit 4). The message names the guard that fired. All of them
subclass :class:`TnkitError`, so one except clause catches the package's
failures, and the matching builtin (``ValueError`` or ``ArithmeticError``), so
generic handling keeps working.
"""


class TnkitError(Exception):
    """Base class for all tnkit errors."""


class ValidationError(TnkitError, ValueError):
    """An argument, tensor shape or config value the called routine refuses."""


class NumericalFailure(TnkitError, ArithmeticError):
    """Underlying numerical routine failed to converge or produced garbage."""


class NoConvergence(TnkitError, ArithmeticError):
    """Iterative eigensolver did not reach tolerance within the iteration cap."""


class TooLarge(TnkitError, ValueError):
    """Problem size exceeds the guarded cap for a dense/bruteforce path."""
