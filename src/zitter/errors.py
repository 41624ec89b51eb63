"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A scenario configuration failed schema or range validation."""


class NumericalInstabilityError(RuntimeError):
    """A run cannot give finite results: an integration's one-step map has an
    eigenvalue |lam| >= 1, a drive spectrum's mode amplitudes overflow, or a
    JSON output would hold a NaN or infinity."""
