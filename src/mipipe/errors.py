"""Exception types shared across the pipeline."""


class ArchiveError(ValueError):
    """Malformed or unreadable trial archive."""


class ConfigError(ValueError):
    """Invalid configuration value."""


class NumericalError(ValueError):
    """A numerical step cannot be carried out on the data it was given."""


class RankDeficientError(NumericalError):
    """A covariance matrix required to be full rank is not."""


class CriterionUndefinedError(ValueError):
    """A selection criterion cannot be evaluated (e.g. flat histogram)."""
