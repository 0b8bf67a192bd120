"""Shared exception types with CLI exit-code semantics, and the reader of
integer fields in JSON inputs."""


class ValidationError(ValueError):
    """Malformed input or violated invariant (CLI exit code 2)."""


class BoundExceeded(RuntimeError):
    """A configured size or enumeration bound was exceeded (CLI exit code 3)."""


def json_int(value, what: str) -> int:
    """An integer field of a JSON input: a JSON integer, or a string of one.

    Any other value, a JSON number with a fraction or exponent (1.5, 2.0,
    1e400) or true/false included, raises ValidationError "<what> must be an
    integer" rather than being truncated or overflowing.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValidationError(f"{what} must be an integer")
