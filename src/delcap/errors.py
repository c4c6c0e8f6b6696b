"""Exception types shared across the library."""


class DelcapError(Exception):
    """Base class for library-specific failures."""


class ParameterError(DelcapError, ValueError):
    """An argument violates an operation's preconditions."""


class ResourceLimitError(DelcapError):
    """A construction would exceed a configured size or memory budget."""


class SolverNotConvergedError(DelcapError):
    """A capacity solve stopped before reaching the requested bracket width.

    Carries the partial result so callers can inspect the bracket that was
    reached. A stuck table cell's error also carries, as entries, the
    table entries its share solved before it (tables._solve_cells).
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class ExtrapolationRequiredError(DelcapError):
    """A coefficient was requested beyond the populated table range."""


class TableFormatError(DelcapError):
    """A persisted coefficient table could not be read back."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TableVersionError(TableFormatError):
    """The file does not start with the expected format header."""


class TableRowError(TableFormatError):
    """A data row is malformed or internally inconsistent."""


class TableChecksumError(TableFormatError):
    """The trailing checksum does not match the file contents."""
