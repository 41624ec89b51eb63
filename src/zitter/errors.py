"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A scenario configuration failed schema or range validation."""


class NumericalInstabilityError(RuntimeError):
    """An integration cannot be stable: its one-step map has an eigenvalue |lam| >= 1."""
