"""Exception types shared across the library."""


class Su4Error(Exception):
    """Base class for library errors."""


class InputError(Su4Error, ValueError):
    """Malformed or out-of-domain input (parse failures, non-anti-Hermitian,
    a norm past the reference exponential's range)."""


class StructureError(Su4Error):
    """A structure precondition failed; carries the predicate and residual."""

    def __init__(self, predicate: str, residual: float, message: str | None = None):
        self.predicate = predicate
        self.residual = residual
        super().__init__(
            message or f"structure check '{predicate}' failed (residual {residual:.3e})"
        )
