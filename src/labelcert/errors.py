"""Exception types shared across the package."""


class LabelCertError(Exception):
    """Base class for every error raised by labelcert."""


class DimensionMismatch(LabelCertError):
    """Vector or matrix shapes are inconsistent."""


class SingularMatrix(LabelCertError):
    """The regularized Gram matrix is numerically singular; caller must regularize."""


class NonBinaryLabel(LabelCertError):
    """An operation restricted to {0, 1} labels received something else."""


class NonPositiveScale(LabelCertError):
    """Perturbation scaling requires a strictly positive factor."""


class UnknownColumn(LabelCertError):
    """A targeting predicate names a column or group channel the dataset lacks."""


class ParseError(LabelCertError):
    """A file (CSV or config) could not be parsed; message carries location."""


class MissingColumn(LabelCertError):
    """A schema column is absent from the CSV header."""


class NonNumericValue(ParseError):
    """A cell expected to be numeric failed to parse; message carries row/column."""


class TooFewRows(LabelCertError):
    """Dataset has fewer rows than the requested split or fold count needs."""


class BadFeatureCount(LabelCertError):
    """Synthetic classification generator supports 3, 4 or 5 features only."""


class BadFraction(LabelCertError):
    """Minority fraction must lie in (0, 0.5]."""


class EmptyGrid(LabelCertError):
    """A sweep was requested over an empty parameter grid."""


class MissingGroups(LabelCertError):
    """Group rates requested but the rows carry no group labels."""


class NoAttackExists(LabelCertError):
    """No label perturbation within the bias model changes the prediction."""
