"""arfkit: exact Arf-type invariants for quadratic forms over rings with
anti-structure, with the supporting Hochschild/cyclic/quaternionic homology
and reduced power operations."""

__version__ = "0.1.0"


class ArfkitError(ValueError):
    """Base of the errors arfkit raises on bad input or a refused computation."""


def need(data, key, error, what, kind=object):
    """data[key] of a JSON object read from outside; `error` names the
    missing key or a value that is not a `kind`, or says that `what` must
    be a JSON object."""
    if not isinstance(data, dict):
        raise error(f"{what} is not a JSON object")
    if key not in data:
        raise error(f"{what} lacks {key!r}")
    if not isinstance(data[key], kind) or kind is int and type(data[key]) is bool:
        raise error(f"{what}: {key!r} is {type(data[key]).__name__}, not {kind.__name__}")
    return data[key]
