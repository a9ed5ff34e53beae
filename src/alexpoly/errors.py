"""Shared exception types."""

from __future__ import annotations


class InputError(ValueError):
    """Malformed user-supplied data (files, CLI strings).

    Carries enough context for a diagnostic naming the file, line and
    field.  Decoders and parsers set only the field; ``load_json_file``
    sets the file (``source``) and line of what it cannot read, and the
    CLI sets ``source`` to the file or argument it was reading when the
    error passed through.  The CLI maps this to exit code 2.
    """

    def __init__(self, message: str, *, source: str | None = None,
                 field: str | None = None, line: int | None = None):
        self.source = source
        self.field = field
        self.line = line
        super().__init__(message)

    def __str__(self) -> str:
        parts = []
        if self.source is not None:
            parts.append(str(self.source))
        if self.line is not None:
            parts.append(f"line {self.line}")
        if self.field is not None:
            parts.append(f"field {self.field!r}")
        prefix = ": ".join(parts)
        base = super().__str__()
        return f"{prefix}: {base}" if prefix else base


class ComputationError(RuntimeError):
    """Internal invariant broke mid-computation (a bug, not bad input)."""
