"""Exception types shared across the package, and its one key=value rule."""


class NumericFailure(RuntimeError):
    """A numerical routine could not meet its contract (no root, divergence, ...)."""


class ConstructionError(NumericFailure):
    """The worst-case construction could not satisfy its step conditions."""


class InstanceFormatError(ValueError):
    """An instance file is malformed: a missing header key, a bad row, ..."""


class ConditionFailure(Exception):
    """The operating point fails a closed-form condition, before any solve."""


def key_values(items, what: str, error=ValueError) -> dict[str, str]:
    """{key: value} of the key=value items, both stripped; an item without
    "=" or a repeated key raises error, the message starting with what."""
    out = {}
    for item in items:
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq:
            raise error(f"{what} line {item!r} is not key=value")
        if key in out:
            raise error(f"{what} repeats {key}=")
        out[key] = value
    return out
