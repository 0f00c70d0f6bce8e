"""Exception types shared across the toolkit."""

from __future__ import annotations


class EvalkitError(Exception):
    """Base class for all toolkit errors."""


class SchemaViolationError(EvalkitError):
    """An intent label or act is not permitted by the configured intent schema."""


class CorpusFormatError(EvalkitError):
    """A corpus stream could not be parsed.

    Carries the 1-based line number of the offending record so callers can
    point users at the exact input line.
    """

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason

    def __reduce__(self):
        # Rebuilt from both arguments, so it crosses a process boundary.
        return type(self), (self.line_number, self.reason)


class AnnotationError(EvalkitError):
    """A single utterance could not be annotated."""


class AnnotationBatchError(AnnotationError):
    """Aggregate of per-utterance annotation failures across a corpus."""

    def __init__(self, failures: list[str]):
        super().__init__(
            f"{len(failures)} utterance(s) failed to annotate: "
            + "; ".join(failures[:5])
            + ("; ..." if len(failures) > 5 else "")
        )
        self.failures = tuple(failures)


class GatewayError(EvalkitError):
    """The language-model gateway failed to produce a completion.

    ``transient`` marks failures worth retrying (timeouts, connection
    resets, 5xx); client errors and exhausted scripts are permanent.
    ``raw_body`` preserves the response text of a status or body error.
    """

    def __init__(
        self, message: str, transient: bool = False, raw_body: str | None = None
    ):
        super().__init__(message)
        self.transient = transient
        self.raw_body = raw_body


class GatewayTimeout(GatewayError):
    """The gateway did not answer within the configured timeout."""

    def __init__(self, message: str):
        super().__init__(message, transient=True)


class ScriptExhaustedError(GatewayError):
    """A scripted LLM transport ran out of replies."""


class ConnectorError(EvalkitError):
    """A CRS endpoint call failed. ``raw_body`` preserves the unparsed reply."""

    def __init__(self, message: str, raw_body: str | None = None):
        super().__init__(message)
        self.raw_body = raw_body


class ConnectorTimeout(ConnectorError):
    """The CRS endpoint did not answer within the configured timeout."""


class SimulationError(EvalkitError):
    """A simulated conversation could not be run to completion."""


class UnannotatedDialogueError(EvalkitError):
    """A metric that requires dialogue acts was given a dialogue with none."""


class UndefinedCorrelationError(EvalkitError):
    """Kendall's tau-b is undefined (all scores tied in one argument)."""
