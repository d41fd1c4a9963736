"""Exception types shared across the pipeline.

The CLI picks the exit code from the base class:

- ``ConfigError``: configuration file, flag, option or output path; exit 1.
- ``ValidationError``: an argument or value breaks a documented contract; exit 1.
- ``DataError``: unusable input data; exit 2.
- ``ParseError``: a ``DataError`` located in a file; exit 2.
- ``TrainingDivergedError``: a network's loss turned non-finite; exit 2.
- ``PipelineError``: a run where no company succeeded; exit 3.
- ``PricedirError``: the base of them all; exit 2.
"""

import functools


class PricedirError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PricedirError):
    """Invalid configuration file, flag value, or option combination."""


class ValidationError(PricedirError):
    """Arguments or in-memory values violate a documented contract."""


class DataError(PricedirError):
    """Input data cannot be used as-is."""


class ParseError(DataError):
    """Malformed file content, located by source, line, and column."""

    def __init__(self, message, *, source="<data>", line=None, column=None):
        self.message = message
        self.source = source
        self.line = line
        self.column = column
        where = source
        if line is not None:
            where += f", line {line}"
        if column is not None:
            where += f", column {column!r}"
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        # rebuild from the bare message: the default pickles the located
        # text as the message, and unpickling would locate it a second time
        rebuild = functools.partial(
            type(self), source=self.source, line=self.line, column=self.column
        )
        return rebuild, (self.message,)


class TrainingDivergedError(PricedirError):
    """Network training produced a non-finite loss."""


class PipelineError(PricedirError):
    """The batch run finished with zero successful companies."""
