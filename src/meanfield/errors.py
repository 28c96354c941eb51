"""Exception types shared across the package.

The CLI maps these onto process exit codes (config errors -> 2, data format
errors -> 3, numeric failures -> 4); library callers can catch them directly.
The text readers share :func:`numbered_lines`.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config error for '{field}': {message}")


class DataFormatError(ValueError):
    """An input data file does not match the expected format."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericError(ArithmeticError):
    """A fit produced a non-finite quantity or an inconsistent state."""

    def __init__(self, message, iteration=None):
        self.iteration = iteration
        if iteration is not None:
            message = f"iteration {iteration}: {message}"
        super().__init__(message)


class MonotonicityError(NumericError):
    """The objective decreased where a coordinate ascent guarantees it cannot.

    This always indicates an internal inconsistency (a wrong update or a
    wrong objective), never a property of the data, so it is raised as a
    hard error rather than a warning.
    """


def numbered_lines(handle):
    """``enumerate(handle, start=1)`` over a file opened as UTF-8 text, where
    a byte sequence that is not UTF-8 raises :class:`DataFormatError` with
    its line (found by rereading, since the decoder works on whole buffers).
    """
    try:
        yield from enumerate(handle, start=1)
    except UnicodeDecodeError:
        with open(handle.name, "rb") as raw:
            data = raw.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            head = data[: err.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise DataFormatError("file is not UTF-8 text", line=line) from None
        raise
