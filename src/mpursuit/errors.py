"""Exception types shared across the package."""


class NumericFailure(RuntimeError):
    """A numerical routine could not meet its contract (no root, divergence, ...)."""


class ConstructionError(NumericFailure):
    """The worst-case construction could not satisfy its step conditions."""


class InstanceFormatError(ValueError):
    """An instance file is malformed: a missing header key, a bad row, ..."""


class ConditionFailure(Exception):
    """The operating point fails a closed-form condition, before any solve."""
