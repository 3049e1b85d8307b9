"""Exception hierarchy shared by all regeval modules."""

from __future__ import annotations


class RegevalError(Exception):
    """Base class for every error raised by this package."""


class UnrecognizedIdentifier(RegevalError):
    """Text does not match any accepted article surface form."""


class OutOfUniverse(RegevalError):
    """Canonical article id is not part of the jurisdiction's label universe."""


class InvalidPath(RegevalError):
    """Path cannot be normalized to a project-relative POSIX path."""


class EmptyCorpus(RegevalError):
    """Shaping was invoked on a corpus with no usable instances."""


class ConflictingSnippet(RegevalError):
    """One snippet pointer maps to two different snippet texts."""


class EmptyGold(RegevalError):
    """A retrieval metric was asked to score an empty gold set."""


class LengthMismatch(RegevalError):
    """Gold and predicted sample lists differ in length."""


class UniverseTooSmall(RegevalError):
    """Coverage error needs a label universe with at least two labels."""


class SingularCovariance(RegevalError):
    """Covariance matrix could not be inverted (ridge misconfigured)."""


class MissingLaw(RegevalError):
    """A per-law aggregate is missing a required jurisdiction entry."""


class LawMismatch(RegevalError):
    """A prompt template and an instance belong to different jurisdictions."""


class TransportConfigError(RegevalError):
    """The inference transport is unusable; no request was attempted."""


class InvalidSpec(RegevalError):
    """Synthetic corpus specification is malformed."""


class MalformedResponse(RegevalError):
    """A line of a raw_responses.jsonl is not JSON, or not a response record:
    a field is missing or holds a value of the wrong type."""


class MalformedPrediction(RegevalError):
    """A prediction entry, or a task-1 key or task-2 pointer read from a file,
    lacks a field or holds a value of the wrong type or shape."""
