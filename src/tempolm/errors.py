"""Exception hierarchy shared by all pipeline stages."""


class TempoError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # rebuilt without calling ``__init__``, whose signature may differ from
        # ``args``, so an error crosses a process boundary with its message
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class TimestampParseError(TempoError):
    """A timestamp string is not a valid ISO-8601 calendar date."""


class NotInLexiconError(TempoError):
    """A phrase was looked up that the signal lexicon does not contain."""


class AnnotationAlignmentError(TempoError):
    """An external annotation span lies outside the source text."""


class OutOfSpanError(TempoError):
    """A time point or label index falls outside the governing corpus span."""


class CalendarMissError(TempoError):
    """The entity calendar has no entry for a document's month."""


class ConfigError(TempoError):
    """An invalid configuration value or an unusable input set."""


class SequenceTooLongError(TempoError):
    """An input sequence exceeds the encoder's maximum length."""


class SpanBoundsError(TempoError):
    """A span index lies outside the hidden-state sequence."""


class DivergenceError(TempoError):
    """Training produced a non-finite loss or gradient norm."""

    def __init__(self, step: int, what: str, where: str):
        super().__init__(f"training diverged at step {step}: non-finite {what} in {where}")
        self.step = step
        self.where = where


class PackWorkerError(TempoError):
    """The pack worker process died during a task, or its error could not be sent back."""


class StaleOptimizerError(TempoError):
    """An optimizer was used after a later one claimed the arena that holds its buffers."""


class IncompatibleCheckpointError(TempoError):
    """A checkpoint has a format version or a header that this version cannot read."""


class ChecksumFailureError(TempoError):
    """A checkpoint file is truncated or corrupt."""


class EmptyEvalError(TempoError):
    """A metric was requested over zero instances."""


class DegenerateInputError(TempoError):
    """A correlation was requested on constant input."""


class UndefinedMetricError(TempoError):
    """A ranking metric was requested on a list with no relevant item."""


class MissingOccurrencesError(TempoError):
    """A target word does not occur in one of the period corpora."""


class ParseError(TempoError):
    """A corpus record could not be parsed; carries the offending line."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DependencyMissingError(TempoError):
    """A pipeline stage was started before its upstream artifact exists."""

    def __init__(self, stage: str, path: str):
        super().__init__(f"stage '{stage}' requires missing artifact: {path}")
        self.stage = stage
        self.path = path
