"""Exception types shared across the toolkit, and `warn`, the one way
out for every warning the package issues, as `textprep` is for files."""

import sys
import warnings


def warn(message, category=UserWarning) -> None:
    """`warnings.warn` filed at the first frame outside the package, as by
    Python 3.12's `skip_file_prefixes`; a module run as `__main__` is outside."""
    frame, level = sys._getframe(1), 2
    while frame and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, level)


class RumourLensError(Exception):
    """Base class for all toolkit errors; reads `<path>: line N: <message>`,
    each part where given."""

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


# corpus
class MissingField(RumourLensError):
    pass


class OrphanReaction(RumourLensError):
    pass


class DuplicateId(RumourLensError):
    pass


class ParseError(RumourLensError):
    pass


# text statistics / readability
class EmptyText(RumourLensError):
    pass


# lexicon
class CycleError(RumourLensError):
    pass


class EmptyCategory(RumourLensError):
    pass


class BadPattern(RumourLensError):
    pass


# senticnet
class OutOfRange(RumourLensError):
    pass


class DuplicateConcept(RumourLensError):
    pass


# emotions
class ProviderUnavailable(RumourLensError):
    pass


class MalformedResponse(RumourLensError):
    pass


# stats
class EmptySample(RumourLensError):
    pass


class NonFiniteValue(RumourLensError):
    pass


# classify
class TooFewSamples(RumourLensError):
    pass


class SingleClass(RumourLensError):
    pass


class FeatureMismatch(RumourLensError):
    pass


# shapley
class AdditivityError(RumourLensError):
    pass


# cli
class ConfigError(RumourLensError):
    pass


class MissingArtifact(RumourLensError):
    pass


# parallel
class WorkerDied(RumourLensError):
    pass
