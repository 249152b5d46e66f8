"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigurationError -> 2, data/format
errors -> 3, numeric/training errors -> 4.
"""


class IsoembedError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(IsoembedError):
    """Invalid or contradictory configuration (e.g. colbert + sequence_wise)."""


class CorpusFormatError(IsoembedError):
    """Malformed on-disk corpus/transform/model bytes (bad magic, version, truncation)."""


class IntegrityError(IsoembedError):
    """Structurally valid bytes describing an invalid object (span overlap/overflow, duplicate ids)."""


class UnknownIdError(IsoembedError, KeyError):
    """A query or document id that the corpus does not hold; also a KeyError."""

    def __str__(self) -> str:
        # KeyError would quote the message as if it were the missing key.
        return str(self.args[0]) if self.args else ""


class ZeroNormError(IsoembedError, ValueError):
    """A token row or pooled vector with zero norm, so its cosine is undefined; also a ValueError."""


class ParseError(IsoembedError):
    """Malformed qrels/run/candidates text or eval report; message names the line or key."""


class EmptyInputError(IsoembedError):
    """Operation requires at least one (or two) rows and got fewer."""


class InsufficientDataError(IsoembedError):
    """Statistical fit requires more rows than were supplied."""


class ShapeError(IsoembedError):
    """Dimension mismatch between an input and a fitted transform/model."""


class NumericError(IsoembedError):
    """Non-finite value produced inside a numeric computation; message names the layer."""


class TrainingError(IsoembedError):
    """Training diverged; message carries the step index."""


class DegenerateVarianceError(IsoembedError):
    """Zero pooled variance with unequal means: the t statistic is undefined."""
