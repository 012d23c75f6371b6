"""Exception types shared across the pipeline, and the failure codes of its
stacked fits."""


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


# why a fit failed, by failure code (0 is a fit): the exception and its message,
# which may name the fit's eigenvalue `ratio`, its CSP's `filters` and
# `channels`, its AR fit's `channel` or its bagging `round`. Codes 1-4 are
# CSP's, 5-6 its shares', 7-11 LDA's, 12-15 rho's, 16-17 AR's, 18 bagging's.
FAILURES = (
    None,
    (ValueError, "trial has zero total variance"),
    (ValueError, "2m = {filters} filters exceed {channels} channels"),
    (ValueError, "array must not contain infs or NaNs"),
    (RankDeficientError,
     "composite covariance is rank deficient (eigenvalue ratio {ratio:.2e} below 1e-10)"),
    (ValueError, "zero total variance after spatial filtering"),
    (ValueError, "feature vector contains non-finite values"),
    (ValueError, "both classes must be present"),
    (ValueError, "zero-dimension features"),
    (NumericalError, "classes have identical means: no discriminant direction"),
    (ValueError, "hyperplane normal must have a nonzero entry"),
    (ValueError, "non-finite LDA parameters"),
    (CriterionUndefinedError, "criterion undefined: all scores identical"),
    (ValueError, "bin edges must be strictly increasing, equal width"),
    (CriterionUndefinedError, "criterion undefined: train histogram is flat"),
    (CriterionUndefinedError, "criterion undefined: test histogram is flat"),
    (NumericalError, "channel {channel}: constant series: cannot fit AR model"),
    (NumericalError, "channel {channel}: singular autocovariance system: Singular matrix"),
    (NumericalError, "round {round}: 100 consecutive single-class draws; data degenerate"),
)


def failure(code: int, **values) -> ValueError:
    """The exception of failure `code`, its message filled in from `values`."""
    kind, message = FAILURES[code]
    return kind(message.format(**values))


def raise_first(codes, **values) -> None:
    """Raise the failure of the first nonzero of `codes`, if any."""
    for code in codes:
        if code:
            raise failure(code, **values)
