"""Error types shared across the library."""


class VacmomError(Exception):
    """Base class for all library-specific errors."""


class DegenerateBoost(VacmomError):
    """Boost denominator 1 + n*beta is not positive, transform undefined."""


class DegenerateGrid(VacmomError):
    """Expansion beta grid unusable: too few points, unsorted, or out of range."""


class EmptyModeSet(VacmomError):
    """No propagating modes survive the cutoff filter."""


class NonFiniteResult(VacmomError):
    """A finite input gave a result outside the float range."""


class ConfigError(VacmomError):
    """Run configuration failed validation; message carries the field path."""
