"""Exception types raised across the toolkit."""


class GeometryError(ValueError):
    """Invalid domain geometry (refuge box placement, empty regions, ...)."""


class ParameterError(ValueError):
    """Model or solver parameter outside its admissible range."""


class SingularResponseError(ArithmeticError):
    """An iterate left the admissible region: 1 + m*u at or below the safe floor, or mu < 0."""


class GuessError(ValueError):
    """Branch-form initial guess requested outside the onset regime."""


class EstimationError(ValueError):
    """Not enough data to form the requested estimate."""


class ComparisonError(ValueError):
    """Branches cannot be compared (parameter mismatch or disjoint ranges)."""


class NumericalError(RuntimeError):
    """A linear solve or iteration failed to produce a usable result."""


class StepError(RuntimeError):
    """A semi-implicit time step could not be completed."""


class ConfigError(ValueError):
    """Run configuration is malformed or carries unknown keys."""
