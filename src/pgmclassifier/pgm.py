"""Pretty good measurement construction and Born-rule scoring.

Training states are grouped by class into quantum centroids (uniform
mixtures of the encoded pure states), optionally lifted to n tensor copies.
The pretty good measurement for the resulting ensemble is the family

    E_i = sigma^{-1/2} p_i rho_i sigma^{-1/2},

with sigma the prior-weighted mixture and the inverse square root taken in
the Moore-Penrose sense. Completing with the kernel projector split evenly
across classes, F_i = E_i + P_ker(sigma) / l, yields a true l-outcome POVM,
and a sample scores f_i = tr(F_i rho_x). Classification picks the smallest
index among the maximizing scores.

Two engines produce identical scores. The dense engine materialises the
F_i and is only viable while (d+1)^n stays small. The gram engine never
leaves the span of the m training states: with weights w_j = p_{label_j} /
m_{label_j} and G_{jk} = sqrt(w_j w_k) (psi_j . psi_k)^n, the overlap vector
v_j = sqrt(w_j) (psi_j . psi_x)^n gives

    f_i = sum_{j: label_j = i} (G^{-1/2} v)_j^2  +  (1/l) (1 - ||G^{-1/2} v||^2),

since (G^{-1/2})^2 = G^+ on the image of G. The cost scales with m and d
regardless of the copy count, and each score row sums to one by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import EncodingConfig, NormalizerParams, check_unit_rows, encode, fit_encode
from .errors import (
    DimMismatch,
    EmptyClass,
    InvalidFeature,
    InvalidOperator,
    LabelOutOfRange,
)
from .operators import lifted_dimension, pinv_sqrt, symmetrize, tensor_power

#: Scores are rounded to this many decimal digits before any argmax or tie
#: comparison, so near-ties resolve identically across platforms.
SCORE_DECIMALS = 12

#: Magnitudes below this are flushed to zero inside stable powers.
_POWER_FLUSH = 1e-300

#: Rows scored per block: bounds scoring's temporaries at O(m * SCORE_BLOCK)
#: floats for m training states, whatever the number of input rows.
SCORE_BLOCK = 4096

PRIOR_MODES = ("uniform", "empirical")

#: Fitting engines: ``auto`` picks dense or gram by the lifted dimension.
ENGINES = ("auto", "dense", "gram")

#: Largest accepted copy count. The overlap of two unit states may exceed 1
#: in magnitude by a few ulps, and ``stable_power`` raises it as
#: ``exp(n * log|c|)``; up to this bound that exponent stays below 1e-9, far
#: from overflow.
MAX_COPIES = 10**6


def stable_power(c, n: int) -> np.ndarray:
    """Elementwise ``c ** n`` computed as ``sign(c)^n * exp(n * log|c|)``.

    Avoids the intermediate overflow/underflow drift of repeated
    multiplication for large n; magnitudes below 1e-300 flush to zero.
    Works in place on one fresh ``|c|`` buffer and never writes to ``c``.
    """
    if n < 1:
        raise ValueError(f"exponent must be a positive integer, got {n!r}")
    c = np.asarray(c, dtype=float)
    out = np.abs(c, out=np.empty_like(c))
    small = out < _POWER_FLUSH
    out[small] = 1.0
    np.log(out, out=out)
    out *= n
    np.exp(out, out=out)
    if n % 2 == 1:
        out *= np.sign(c)
    out[small] = 0.0
    return out


def round_scores(f) -> np.ndarray:
    """Round scores to :data:`SCORE_DECIMALS` digits for reproducible ties.

    A score too large to scale (an edited model's) rounds to an infinity, without a warning.
    """
    with np.errstate(over="ignore"):
        return np.round(np.asarray(f, dtype=float), SCORE_DECIMALS)


def labels_from_scores(scores) -> np.ndarray:
    """Per row, the index of the largest rounded score; the smallest index wins ties."""
    return np.argmax(round_scores(scores), axis=1).astype(np.int64)


@dataclass(frozen=True, eq=False)
class LabeledStateSet:
    """Encoded training set: unit-norm state rows with integer class labels.

    Classes are indices ``0 .. n_classes - 1`` and every class must occur at
    least once. ``class_counts[i]`` is the number of training states with
    label i.
    """

    states: np.ndarray
    labels: np.ndarray
    n_classes: int
    class_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        labels = np.asarray(self.labels)
        if states.ndim != 2 or states.shape[0] < 1:
            raise InvalidOperator(f"expected a nonempty state matrix, got shape {states.shape}")
        if labels.shape != (states.shape[0],):
            raise DimMismatch(
                f"{states.shape[0]} states but label shape {labels.shape}"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise LabelOutOfRange(f"labels must be integers, got dtype {labels.dtype}")
        if self.n_classes < 1:
            raise LabelOutOfRange(f"need at least one class, got {self.n_classes}")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise LabelOutOfRange(
                f"labels must lie in [0, {self.n_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        check_unit_rows(states, InvalidOperator, "state")
        counts = np.bincount(labels, minlength=self.n_classes)
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            raise EmptyClass(f"class {int(missing[0])} has no training states")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", labels.astype(np.int64))
        object.__setattr__(self, "class_counts", counts.astype(np.int64))

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True, eq=False)
class Priors:
    """Class prior distribution: strictly positive, sums to one."""

    mode: str
    values: np.ndarray

    def __post_init__(self):
        if self.mode not in PRIOR_MODES:
            raise InvalidOperator(f"unknown prior mode {self.mode!r}, expected one of {PRIOR_MODES}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise InvalidOperator(f"priors must be a nonempty vector, got shape {values.shape}")
        if not np.all(values > 0.0):
            raise InvalidOperator("priors must be strictly positive")
        total = float(values.sum())
        if abs(total - 1.0) > 1e-12:
            raise InvalidOperator(f"priors must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "values", values)


def uniform_priors(n_classes: int) -> Priors:
    """Equal prior 1/l for each of the l classes."""
    return Priors(mode="uniform", values=np.full(n_classes, 1.0 / n_classes))


def empirical_priors(class_counts) -> Priors:
    """Class-frequency priors m_i / m."""
    counts = np.asarray(class_counts, dtype=float)
    return Priors(mode="empirical", values=counts / counts.sum())


def make_priors(mode: str, train: LabeledStateSet) -> Priors:
    """Build priors of the requested mode from a training set."""
    if mode == "uniform":
        return uniform_priors(train.n_classes)
    if mode == "empirical":
        return empirical_priors(train.class_counts)
    raise InvalidOperator(f"unknown prior mode {mode!r}, expected one of {PRIOR_MODES}")


@dataclass(frozen=True, eq=False)
class ClassEnsemble:
    """Per-class density operators with their priors and the copy count."""

    reps: np.ndarray
    priors: Priors
    copies: int


def quantum_centroid(states) -> np.ndarray:
    """Uniform mixture of pure states: ``(1/m) sum_j psi_j psi_j^T``.

    The result has unit trace and is PSD; it is generally mixed even though
    every input is pure.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] < 1:
        raise EmptyClass("a class centroid needs at least one state")
    return symmetrize(states.T @ states / states.shape[0])


def copies_centroid(states, n: int) -> np.ndarray:
    """Centroid of the n-copy lifts ``(1/m) sum_j (psi_j^{tensor n})(...)^T``.

    This is the mean of lifted pure states, which differs from the n-fold
    tensor power of the single-copy centroid as soon as the class is mixed.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] < 1:
        raise EmptyClass("a class centroid needs at least one state")
    if n == 1:
        return quantum_centroid(states)
    lifted = np.stack([tensor_power(row, n) for row in states])
    return quantum_centroid(lifted)


def mixture(ensemble: ClassEnsemble) -> np.ndarray:
    """Prior-weighted average state ``sigma = sum_i p_i rho_i``."""
    reps = np.asarray(ensemble.reps, dtype=float)
    p = ensemble.priors.values
    if reps.ndim != 3 or reps.shape[0] != p.shape[0]:
        raise DimMismatch(
            f"{p.shape[0]} priors but representative array of shape {reps.shape}"
        )
    return symmetrize(np.einsum("i,iab->ab", p, reps))


def build_ensemble(
    train: LabeledStateSet,
    priors: Priors | None = None,
    copies: int = 1,
) -> ClassEnsemble:
    """Form the per-class (lifted) centroids and attach priors."""
    if priors is None:
        priors = uniform_priors(train.n_classes)
    if priors.values.shape[0] != train.n_classes:
        raise DimMismatch(
            f"{priors.values.shape[0]} priors for {train.n_classes} classes"
        )
    reps = np.stack(
        [
            copies_centroid(train.states[train.labels == i], copies)
            for i in range(train.n_classes)
        ]
    )
    return ClassEnsemble(reps=reps, priors=priors, copies=copies)


@dataclass(frozen=True, eq=False)
class DensePgmModel:
    """Explicit POVM ``F_i`` acting on the n-copy space of dimension dim^n.

    ``dim`` is the single-copy state dimension; test states are lifted to
    n copies before scoring. ``encoding``/``normalizer`` are None for models
    fitted directly on states rather than on raw features.
    """

    povm: np.ndarray
    priors: Priors
    copies: int
    dim: int
    encoding: EncodingConfig | None = None
    normalizer: NormalizerParams | None = None

    engine = "dense"

    @property
    def n_classes(self) -> int:
        return self.povm.shape[0]


def gram_weights(labels, priors: Priors) -> np.ndarray:
    """Per-state weights ``w_j = p_{label_j} / m_{label_j}``.

    Labels must lie in ``[0, len(priors.values))`` with every class present.
    """
    counts = np.bincount(labels, minlength=priors.values.shape[0])
    return priors.values[labels] / counts[labels]


@dataclass(frozen=True, eq=False)
class GramPgmModel:
    """Measurement held in factored form over the m training states.

    ``M`` is the inverse square root of the weighted overlap matrix G,
    restricted to its image; the kernel completion enters scoring through
    ``1 - ||M v||^2``. The weights follow from ``labels`` and ``priors``.
    """

    train_states: np.ndarray
    labels: np.ndarray
    n_classes: int
    priors: Priors
    copies: int
    M: np.ndarray
    encoding: EncodingConfig | None = None
    normalizer: NormalizerParams | None = None

    engine = "gram"

    @property
    def dim(self) -> int:
        return self.train_states.shape[1]

    @property
    def weights(self) -> np.ndarray:
        return gram_weights(self.labels, self.priors)


def build_dense_pgm(
    train: LabeledStateSet,
    priors: Priors | None = None,
    copies: int = 1,
) -> DensePgmModel:
    """Construct the POVM explicitly: ``F_i = S p_i rho_i S + P_ker / l``.

    ``S`` is the Moore-Penrose inverse square root of the mixture. The
    completeness defect ``sum_i F_i - I`` vanishes by construction because
    ``S sigma S`` is exactly the image projector.
    """
    ensemble = build_ensemble(train, priors, copies)
    sigma = mixture(ensemble)
    dec = pinv_sqrt(sigma)
    s = dec.inv_sqrt
    l = train.n_classes
    completion = dec.ker / l
    povm = np.stack(
        [
            symmetrize(s @ (ensemble.priors.values[i] * ensemble.reps[i]) @ s) + completion
            for i in range(l)
        ]
    )
    return DensePgmModel(
        povm=povm, priors=ensemble.priors, copies=copies, dim=train.dim
    )


def build_gram_pgm(
    train: LabeledStateSet,
    priors: Priors | None = None,
    copies: int = 1,
) -> GramPgmModel:
    """Construct the measurement in the span of the training states.

    Builds G_{jk} = sqrt(w_j w_k) (psi_j . psi_k)^n and its Moore-Penrose
    inverse square root ``M`` with the same rank cut as the dense engine.
    """
    if priors is None:
        priors = uniform_priors(train.n_classes)
    if priors.values.shape[0] != train.n_classes:
        raise DimMismatch(
            f"{priors.values.shape[0]} priors for {train.n_classes} classes"
        )
    sqw = np.sqrt(gram_weights(train.labels, priors))
    overlaps = train.states @ train.states.T
    gram = sqw[:, None] * stable_power(overlaps, copies) * sqw[None, :]
    return GramPgmModel(
        train_states=train.states,
        labels=train.labels,
        n_classes=train.n_classes,
        priors=priors,
        copies=copies,
        M=pinv_sqrt(gram).inv_sqrt,
    )


def attach_pipeline(model, config: EncodingConfig, params: NormalizerParams):
    """Return a copy of the model carrying the feature-to-state pipeline."""
    return replace(model, encoding=config, normalizer=params)


def score_states(model, states) -> np.ndarray:
    """Born-rule scores for already-encoded unit states, one row per sample.

    Returns an array of shape ``(k, n_classes)``; each row sums to one and
    is entrywise in [0, 1] up to round-off. Rows are scored in blocks of
    :data:`SCORE_BLOCK`, so the engines' temporaries (lifted states, or the
    m-by-block overlaps) stay bounded and memory grows only with the input
    and the score array.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise DimMismatch(f"expected a 2-d state array, got shape {states.shape}")
    _check_states(model, states)
    return _score_blocks(model, states, encoded=False, with_labels=False)[1]


def _check_states(model, states) -> None:
    _check_state_dim(model, states.shape[1])
    if not np.all(np.isfinite(states)):
        raise InvalidFeature("state entries must be finite")


def _check_state_dim(model, dim: int) -> None:
    if dim != model.dim:
        raise DimMismatch(f"state dimension {dim} does not match model dimension {model.dim}")


def _score_blocks(model, rows, *, encoded: bool, with_labels: bool):
    """``(labels or None, scores)`` of checked 2-d ``rows``, :data:`SCORE_BLOCK` rows at a time.

    Rows are unit states, or raw features that each block encodes through
    the model's pipeline first when ``encoded``; a row that overflows its
    encoding is named by its index in ``rows``. Labels, when asked for,
    come from each block's scores, so nothing but the score and label
    arrays grows with the number of rows.
    """
    scores = np.empty((rows.shape[0], model.n_classes))
    labels = np.empty(rows.shape[0], dtype=np.int64) if with_labels else None
    score_block = _score_dense_block if isinstance(model, DensePgmModel) else _score_gram_block
    for start in range(0, rows.shape[0], SCORE_BLOCK):
        stop = start + SCORE_BLOCK
        block = rows[start:stop]
        if encoded:
            block = encode(block, model.encoding, model.normalizer, first_row=start)
        score_block(model, block, scores[start:stop])
        if with_labels:
            labels[start:stop] = labels_from_scores(scores[start:stop])
    return labels, scores


def _score_dense_block(model: DensePgmModel, block, out) -> None:
    lifted = np.stack([tensor_power(row, model.copies) for row in block])
    out[:] = np.einsum("ka,iab,kb->ki", lifted, model.povm, lifted)


def _score_gram_block(model: GramPgmModel, block, out) -> None:
    v = stable_power(model.train_states @ block.T, model.copies)
    v *= np.sqrt(model.weights)[:, None]
    usq = model.M @ v
    usq *= usq
    for i in range(model.n_classes):
        out[:, i] = usq[model.labels == i].sum(axis=0)
    kernel_mass = 1.0 - usq.sum(axis=0)
    out += kernel_mass[:, None] / model.n_classes


def predict_batch(model, x_batch):
    """Classify a batch; returns ``(labels, scores)`` in input order.

    A model with a feature pipeline takes raw features and encodes them a
    block at a time inside the scoring loop, so memory grows with the
    number of rows only by the score and label arrays; :func:`encode`
    checks each block's values.
    """
    x_batch = np.asarray(x_batch, dtype=float)
    if x_batch.ndim != 2:
        raise DimMismatch(f"expected a 2-d feature array, got shape {x_batch.shape}")
    encoded = model.encoding is not None
    if encoded:
        _check_state_dim(model, x_batch.shape[1] + 1)
    else:
        _check_states(model, x_batch)
    return _score_blocks(model, x_batch, encoded=encoded, with_labels=True)


@dataclass(frozen=True)
class PgmConfig:
    """Everything needed to fit a classifier from raw features."""

    encoding: EncodingConfig = EncodingConfig()
    copies: int = 1
    prior_mode: str = "uniform"
    engine: str = "auto"

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise InvalidOperator(
                f"unknown engine {self.engine!r}, expected auto, dense or gram"
            )
        if self.prior_mode not in PRIOR_MODES:
            raise InvalidOperator(
                f"unknown prior mode {self.prior_mode!r}, expected uniform or empirical"
            )
        if type(self.copies) is not int or not 1 <= self.copies <= MAX_COPIES:
            raise ValueError(
                f"copy count must be an integer in [1, {MAX_COPIES}], got {self.copies!r}"
            )


def encode_training_set(features, labels, n_classes: int, config: PgmConfig):
    """Fit the feature pipeline and validate the encoded training set.

    Everything a fit needs except the copy count: returns ``(train, priors,
    params)``, so the measurements of several copy counts can share one
    encoding.
    """
    states, params = fit_encode(features, config.encoding)
    train = LabeledStateSet(states=states, labels=labels, n_classes=n_classes)
    return train, make_priors(config.prior_mode, train), params


def build_pgm(train: LabeledStateSet, priors: Priors, copies: int, engine: str):
    """Build the measurement for one copy count with the chosen engine.

    ``auto`` picks dense only while the lifted dimension stays within the
    dense limit, and gram otherwise.
    """
    if engine == "auto":
        engine = "gram" if lifted_dimension(train.dim, copies) is None else "dense"
    if engine == "dense":
        return build_dense_pgm(train, priors, copies)
    return build_gram_pgm(train, priors, copies)


def fit_pgm(features, labels, n_classes: int, config: PgmConfig = PgmConfig()):
    """Fit the full pipeline on raw features and return a scoring model.

    Fits the normalizer on the given features, encodes them, builds the
    measurement with the configured engine (see :func:`build_pgm`), and
    attaches the pipeline so that :func:`predict_batch` accepts raw features.
    """
    train, priors, params = encode_training_set(features, labels, n_classes, config)
    model = build_pgm(train, priors, config.copies, config.engine)
    return attach_pipeline(model, config.encoding, params)
