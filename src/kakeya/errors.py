"""Exception types shared across the package, and the type checks of file contents."""


class KakeyaError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(KakeyaError):
    """Two scalars (or geometric objects) from different fields were combined."""


class DivisionByZero(KakeyaError):
    """Division by the field zero (or by a value below the real tolerance)."""


class ZeroVector(KakeyaError):
    """A projective point was requested for the all-zero coordinate vector."""


class AmbientMismatch(KakeyaError):
    """Operands live in projective spaces of different dimensions."""


class UnsupportedDimension(KakeyaError):
    """The requested ambient dimension is outside the supported range."""


class UnsupportedField(KakeyaError):
    """The field kind (or its parameters) is not usable for this operation."""


class DegenerateSeed(KakeyaError):
    """A lifting step produced a flat of the wrong dimension."""


class UndefinedBasePoint(KakeyaError):
    """A base intersection point required by the lifting does not exist."""


class SeedTooSmall(KakeyaError):
    """The planar seed has too few lines for the requested dimension."""


class HypothesisViolation(KakeyaError):
    """A line family does not satisfy the counting hypothesis of a bound."""


class MalformedFile(KakeyaError):
    """A JSON document does not have the shape its loader expects."""


def need(value, kind, what: str):
    """value when it is an instance of kind, and not a bool posing as an int; MalformedFile otherwise."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedFile(f"{what} has the wrong type ({type(value).__name__})")
    return value


def positive(value, what: str) -> int:
    """value when it is an int of at least 1; MalformedFile naming what otherwise."""
    if need(value, int, what) < 1:
        raise MalformedFile(f"{what} must be at least 1, got {value}")
    return value


def records(doc: dict, key: str) -> list[dict]:
    """The list of JSON objects stored under key."""
    return [need(entry, dict, f"{key} entry") for entry in need(doc[key], list, key)]
