"""Exception types shared across the pipeline.

The CLI maps these onto exit codes: configuration and argument problems
exit 1, unusable input data exits 2, and a run where no company
succeeded exits 3.
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


class DataValidationError(DataError):
    """Well-formed file whose content breaks a data invariant."""


class UncoveredDateError(DataError):
    """Panel rows fall outside every membership snapshot week."""


class InsufficientHistoryError(DataError):
    """Too few consecutive usable prices to derive any direction label."""


class EmptyColumnError(DataError):
    """A column has no observed values to normalize or impute."""


class EmptyTimespanError(DataError):
    """No row has all required columns present."""


class DeficientGroupError(DataError):
    """A cohort group holds fewer members than the requested sample size."""


class InvalidSplitError(ValidationError):
    """A chronological split would leave the train or test part empty."""


class SingularDesignError(PricedirError):
    """Information matrix stayed singular even after the ridge retry."""


class TrainingDivergedError(PricedirError):
    """Network training produced a non-finite loss."""


class PipelineError(PricedirError):
    """The batch run finished with zero successful companies."""
