"""Exception taxonomy shared by all modules."""


class PgmError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOperator(PgmError):
    """Matrix input is not a usable operator (non-square, non-finite, ...)."""


class NotPositiveSemidefinite(PgmError):
    """Operator has an eigenvalue below the tolerated negative threshold."""


class DimMismatch(PgmError):
    """Operands have incompatible dimensions."""


class DenseBlowup(PgmError):
    """A dense operator would exceed the configured dimension limit."""


class EmptyClass(PgmError):
    """A class has no training samples."""


class InvalidAlpha(PgmError):
    """Rescaling factor must be strictly positive."""


class InvalidFeature(PgmError):
    """A feature vector contains non-finite entries."""


class LabelOutOfRange(PgmError):
    """A class label falls outside the declared label set."""


class EmptyEvaluation(PgmError):
    """A metric was requested over zero evaluated samples."""


class UndefinedAuc(PgmError):
    """AUC is undefined because one of the two groups is empty."""


class NonFiniteScore(PgmError):
    """A score is NaN or infinite where a rankable number is required."""


class ClassSetMismatch(PgmError):
    """Two reports do not cover the same classes."""


class MetricSetMismatch(PgmError):
    """Two reports do not cover the same metrics."""


class StratificationImpossible(PgmError):
    """The requested stratified split cannot be built from the data."""


class ClassSmallerThanK(PgmError):
    """Stratified k-fold needs at least k samples of every class."""


class DatasetFormatError(PgmError):
    """A dataset, split, model or report file violates its schema."""


class FingerprintMismatch(PgmError):
    """A split file was generated from a different dataset."""


class SchemaMismatch(PgmError):
    """Dataset columns do not match what a trained model expects."""
