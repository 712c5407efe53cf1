"""Exception types shared across the toolkit."""


class SemoError(Exception):
    """Base class for every error raised by this package."""


class MissingField(SemoError):
    """A mandatory battery source file is absent."""

    def __init__(self, field: str, path=None):
        self.field = field
        self.path = path
        detail = f" ({path})" if path is not None else ""
        super().__init__(f"missing battery source field: {field}{detail}")


class MalformedField(SemoError):
    """A source file exists but its content does not parse or breaks an invariant."""

    def __init__(self, field: str, detail: str):
        self.field = field
        self.detail = detail
        super().__init__(f"malformed battery source field {field}: {detail}")


class NonMonotonicTimestamp(SemoError):
    """An append would not keep log timestamps strictly increasing."""


class LogParseError(SemoError):
    """A log line failed strict parsing; carries the 1-based line number."""

    def __init__(self, line: int, detail: str):
        self.line = line
        self.detail = detail
        super().__init__(f"log line {line}: {detail}")


class LogLocked(SemoError):
    """The log file is already owned by another writer."""


class TooFewSamples(SemoError):
    """The log does not contain enough usable discharge data to analyze."""


class DegenerateSystem(SemoError):
    """The regression system has no usable columns."""


class ChargeCounterUnavailable(SemoError):
    """Charge-counter drops were requested but the log lacks the counter."""


class ScenarioInvalid(SemoError):
    """A simulation scenario violates its invariants; carries the reason."""
