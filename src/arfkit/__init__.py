"""arfkit: exact Arf-type invariants for quadratic forms over rings with
anti-structure, with the supporting Hochschild/cyclic/quaternionic homology
and reduced power operations."""

__version__ = "0.1.0"


class ArfkitError(ValueError):
    """Base of the errors arfkit raises on bad input or a refused computation."""
