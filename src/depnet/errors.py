"""Exception hierarchy shared across the package."""


class DepnetError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(DepnetError):
    """Invalid graph construction or graph/partition mismatch."""


class ParseError(DepnetError):
    """Lexical or syntactic error in class-header source."""

    def __init__(self, message: str, line: int, column: int, filename: str | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename
        prefix = f"{filename}:" if filename else ""
        super().__init__(f"{prefix}{line}:{column}: {message}")

    def __reduce__(self):
        # Rebuilt from its parts: its args hold only the formatted message.
        return type(self), (self.message, self.line, self.column,
                            self.filename)


class ResolveError(DepnetError):
    """Type-reference resolution failure (ambiguous imports, duplicates)."""


class FormatError(DepnetError):
    """Malformed interchange file (edge TSV, partition TSV, export format)."""


class SizeCapError(DepnetError):
    """Input too large for the requested algorithm."""
