"""Exception types shared across the pipeline: six classes, each built
from its message alone.

The CLI picks the exit code from the class:

- ``ConfigError``: configuration file, flag, option or output path; exit 1.
- ``ValidationError``: an argument or value breaks a documented contract; exit 1.
- ``DataError``: unusable input data; exit 2.  A fault in a file's content
  names its place: ``<file>, line <n>, column <name>: <message>``, as far
  as it is known.
- ``TrainingDivergedError``: a network's loss turned non-finite; exit 2.
- ``PipelineError``: no company succeeded, or a worker process died; exit 3.
- ``PricedirError``: the base of them all; exit 2.
"""


class PricedirError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(PricedirError):
    """Invalid configuration file, flag value, or option combination."""


class ValidationError(PricedirError):
    """Arguments or in-memory values violate a documented contract."""


class DataError(PricedirError):
    """Input data cannot be used as-is."""


class TrainingDivergedError(PricedirError):
    """Network training produced a non-finite loss."""


class PipelineError(PricedirError):
    """The batch run finished with zero successful companies, or lost a worker."""
