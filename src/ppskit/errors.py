"""Exception hierarchy shared by all ppskit modules."""


class PpskitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PpskitError):
    """An argument violates a documented precondition or invariant."""


class UndefinedCharacteristicError(PpskitError):
    """A source characteristic is undefined for the given distribution.

    Raised instead of returning NaN so that sweep statistics cannot be
    silently corrupted by propagating sentinels.
    """


class ConfigError(PpskitError):
    """A run configuration file is malformed or contains unknown keys."""


class DataModelMismatchError(PpskitError):
    """Count data and the detection model disagree (shape, settings, totals)."""


def is_whole(value) -> bool:
    """True iff ``value`` is a whole number; integral floats such as 1e12
    count, fractions, NaN and infinities do not."""
    try:
        return bool(value == int(value))
    except (TypeError, ValueError, OverflowError):
        return False


def check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int; InvalidInputError unless it is a whole number >= ``minimum``.

    Integral floats such as 1e12 pass; fractions, NaN and infinities do not.
    """
    if not (is_whole(value) and value >= minimum):
        raise InvalidInputError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


MAX_TRIALS = 2**63 - 1  # numpy's binomial draws count trials in int64


def check_trials(name: str, value, minimum: int) -> int:
    """:func:`check_count` for a trial budget, which must also be at most
    ``MAX_TRIALS``, the largest a count draw can take."""
    if check_count(name, value, minimum) > MAX_TRIALS:
        raise InvalidInputError(f"{name} must be at most 2**63 - 1, got {value!r}")
    return int(value)
