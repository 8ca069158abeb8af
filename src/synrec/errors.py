"""Diagnostics for the synrec pipeline.

Every user-facing error carries a source span; internal invariant
violations raise :class:`InternalError` instead, which signals a bug in a
pass rather than a problem with the input program.
"""

from __future__ import annotations

from .ast import Span, NO_SPAN


class SynrecError(Exception):
    """Base class for user-attributable errors.

    `source` names the input the span points into: a file path, or
    `<prelude>` for the bundled library.
    """

    def __init__(self, message: str, span: Span = NO_SPAN, source: str | None = None):
        self.message = message
        self.span = span
        self.source = source
        super().__init__(self.render())

    def located(self, source: str | None) -> "SynrecError":
        """Name `source` as the input of the span, unless one is named."""
        if self.source is None and source is not None:
            self.source = source
            self.args = (self.render(),)
        return self

    def render(self) -> str:
        where = [self.source] if self.source else []
        if self.span is not NO_SPAN and self.span.line:
            where.append(str(self.span))
        return f"{':'.join(where)}: {self.message}" if where else self.message


class ParseError(SynrecError):
    pass


class ResolveError(SynrecError):
    pass


class TypeCheckError(SynrecError):
    pass


class UnifyError(SynrecError):
    pass


class ExpandError(SynrecError):
    pass


class PrintError(SynrecError):
    pass


class InternalError(Exception):
    """An invariant of a pass was violated; not a user error."""
