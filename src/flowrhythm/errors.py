"""Exception hierarchy shared across the pipeline.

Two branches matter to callers: ConfigError for bad configuration or usage
(CLI exit code 2) and DataError for defects in the input data themselves
(CLI exit code 3).
"""

from __future__ import annotations


class FlowRhythmError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FlowRhythmError):
    """Invalid configuration, flags, or scenario definitions."""


class InvalidConfig(ConfigError):
    """A config value is out of range or internally inconsistent."""


class DataError(FlowRhythmError):
    """The input data violate a contract the pipeline depends on."""


class MalformedRow(DataError):
    """A row could not be parsed; carries the 1-based line number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class NonMonotonicTimestamp(DataError):
    """Timestamps must strictly increase; carries the offending line number."""

    def __init__(self, row: int, message: str = "timestamp does not increase"):
        super().__init__(f"row {row}: {message}")
        self.row = row


class EmptyInput(DataError):
    """No usable rows or days were supplied."""


class TooFewReadings(DataError):
    """At least two readings are needed to form one usage interval."""


class CounterDecrease(DataError):
    """The cumulative counter dropped; carries the 0-based reading index."""

    def __init__(self, index: int, message: str = "cumulative value decreases"):
        super().__init__(f"reading {index}: {message}")
        self.index = index


class NoMatchingDays(DataError):
    """A profile group matched no retained days."""


class CalendarError(DataError):
    """An exclusion-calendar file is malformed or self-contradictory."""


class TooFewSamples(DataError):
    """Not enough samples to estimate a periodogram."""


class UnevenSpacing(DataError):
    """The classic estimator requires strictly uniform sample spacing."""


class PeriodNotOnGrid(DataError):
    """The requested period has no exactly matching grid frequency."""
