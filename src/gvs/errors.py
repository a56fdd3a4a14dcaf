"""Exception types shared across the package.

The CLI maps ParameterError to exit code 2 (bad usage / violated hypothesis)
and ConvergenceError to exit code 3 (a quadrature or root solve failed to
settle), so library code should raise these rather than bare ValueError when
the distinction matters to a caller.
"""


class ParameterError(ValueError):
    """Invalid argument or a violated mathematical hypothesis."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to converge."""
