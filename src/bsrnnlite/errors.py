"""Exception types shared across the package, and the one field-type rule.

Each exception maps to one CLI exit code, so library code should raise the
most specific one that applies.
"""


class BsrnnLiteError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BsrnnLiteError):
    """Invalid model, band, resampling, pruning, or analysis configuration."""


class AudioFormatError(BsrnnLiteError):
    """Input audio violates a format precondition (channels, dtype, range)."""


class WeightsFormatError(BsrnnLiteError):
    """Weights file or tensor set does not match the expected layout."""


def typed(value, kind: type, name: str, low=None, high=None, error=ConfigError):
    """``value`` if its type is exactly ``kind`` and it lies in ``[low, high]``
    (each bound optional); otherwise ``error`` naming ``name``. So an int is
    never a bool or a numpy integer, a flag is a bool, and a name is a str."""
    if type(value) is not kind:
        raise error(f"{name} must be {kind.__name__}, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be {bounds}, got {value!r}")
    return value
