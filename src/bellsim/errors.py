"""Exception types shared across the package."""


class BellsimError(Exception):
    """Base class for all package errors."""


class ValidationError(BellsimError):
    """An input failed a precondition (bad direction, config key, seed, ...)."""


class InsufficientDataError(BellsimError):
    """A correlator context has too few trial records to estimate."""


class IntegrityError(BellsimError):
    """Records and report do not belong together (hash mismatch)."""
