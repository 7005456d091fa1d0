"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid user-supplied data (bad measure, mismatched spaces, bad constant)."""


class SolverError(RuntimeError):
    """An exact solver failed to converge; carries diagnostic detail."""
