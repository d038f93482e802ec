"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and catalog problems
exit with 2, numeric/capacity/stability problems with 3, property failures
(comparison violations, premise rejections) with 1, and failed internal
invariants (``InvariantError``) with 4.
"""


class CatalogError(ValueError):
    """Unknown catalog name or wrong parameter arity."""


class ContractViolation(ValueError):
    """Declared driver metadata violates a structural requirement,
    e.g. a backward-noise coefficient whose squared z-slope is >= 1."""


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


class CapacityError(RuntimeError):
    """Requested problem size exceeds a documented hard cap."""


class StabilityError(RuntimeError):
    """Explicit-scheme step-size guard violated; use a finer grid."""


class NumericError(RuntimeError):
    """Non-finite value produced; carries the offending location."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class InversionError(RuntimeError):
    """Noise-coefficient inversion inconsistent beyond tolerance."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvariantError(AssertionError):
    """An internal invariant of a solver failed: envelope iterates not
    monotone in the slope, the lower-bound companion above an iterate, or
    the minimal side above the maximal side."""


class RegressionError(RuntimeError):
    """Normal equations unsolvable despite ridge stabilisation."""


class PremiseViolation(RuntimeError):
    """A comparison case's ordering premise failed an empirical probe."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
