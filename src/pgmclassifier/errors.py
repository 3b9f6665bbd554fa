"""Exception taxonomy shared by all modules."""


class PgmError(Exception):
    """Base class for all errors raised by this package."""

    def __str__(self):
        return self.args[0].format(*self.args[1:]) if len(self.args) > 1 else super().__str__()


class InvalidArgument(PgmError, ValueError):
    """An argument lies outside the values a function accepts."""


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
    """The requested stratified split cannot be built; ``args[1]`` is a class too small for it."""


class ClassSmallerThanK(PgmError):
    """Stratified k-fold needs at least k samples of every class; ``args[1]`` is one with fewer."""


class DatasetFormatError(PgmError):
    """A dataset CSV is malformed, or lacks the labels a command needs."""


class FingerprintMismatch(PgmError):
    """A split file was generated from a different dataset."""


class SchemaMismatch(PgmError):
    """A split, model or report file violates its schema.

    Also raised when dataset columns do not match what a trained model expects.
    """
