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
    InvalidArgument,
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
#: floats for m training states, whatever the number of input rows. 512 keeps a
#: temporary in a 2 MB L2 cache (0.6 MB at m = 143): 10^5 rows took 0.42-0.48 s
#: at 4096 and 0.24-0.32 s at 256 to 2048 rows, one BLAS thread, same scores.
SCORE_BLOCK = 512

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
        raise InvalidArgument(f"exponent must be a positive integer, got {n!r}")
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


def make_priors(mode: str, class_counts) -> Priors:
    """Priors of ``mode`` for these class sizes: 1/l (uniform) or m_i / m (empirical)."""
    counts = np.asarray(class_counts, dtype=float)
    if mode == "empirical":
        return Priors(mode=mode, values=counts / counts.sum())
    return Priors(mode=mode, values=np.full(counts.size, 1.0 / counts.size))


def quantum_centroid(states) -> np.ndarray:
    """Uniform mixture of pure states: ``(1/m) sum_j psi_j psi_j^T``.

    The result has unit trace and is PSD; it is generally mixed even though
    every input is pure.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[0] < 1:
        raise EmptyClass("a class centroid needs at least one state")
    return symmetrize(states.T @ states / states.shape[0])


def _resolve_priors(train: LabeledStateSet, priors: Priors | None) -> Priors:
    """``priors``, uniform when None, after checking it holds one value per class."""
    if priors is None:
        return make_priors("uniform", train.class_counts)
    if priors.values.shape[0] != train.n_classes:
        raise DimMismatch(
            f"{priors.values.shape[0]} priors for {train.n_classes} classes"
        )
    return priors


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

    ``rho_i`` is the centroid of the m_i lifted rows ``L_i`` of class i, and
    ``S`` the Moore-Penrose inverse square root of the mixture
    ``sigma = sum_i p_i rho_i``; priors default to uniform. Each effect is
    taken as ``(p_i / m_i) (L_i S)^T (L_i S)``. The completeness defect
    ``sum_i F_i - I`` vanishes by construction because ``S sigma S`` is
    exactly the image projector.
    """
    priors = _resolve_priors(train, priors)
    l, p = train.n_classes, priors.values
    lifted = [tensor_power(train.states[train.labels == i], copies) for i in range(l)]
    s, basis = pinv_sqrt(sum(p[i] * quantum_centroid(rows) for i, rows in enumerate(lifted)))
    completion = symmetrize(np.eye(basis.shape[0]) - basis @ basis.T) / l
    halves = [rows @ s for rows in lifted]
    povm = np.stack([symmetrize(p[i] / len(h) * (h.T @ h)) for i, h in enumerate(halves)])
    povm += completion
    return DensePgmModel(povm=povm, priors=priors, copies=copies, dim=train.dim)


def build_gram_pgm(
    train: LabeledStateSet,
    priors: Priors | None = None,
    copies: int = 1,
) -> GramPgmModel:
    """Construct the measurement in the span of the training states.

    Builds G_{jk} = sqrt(w_j w_k) (psi_j . psi_k)^n and its Moore-Penrose
    inverse square root ``M`` with the same rank cut as the dense engine.
    """
    priors = _resolve_priors(train, priors)
    sqw = np.sqrt(gram_weights(train.labels, priors))
    overlaps = train.states @ train.states.T
    gram = sqw[:, None] * stable_power(overlaps, copies) * sqw[None, :]
    return GramPgmModel(
        train_states=train.states,
        labels=train.labels,
        n_classes=train.n_classes,
        priors=priors,
        copies=copies,
        M=pinv_sqrt(gram)[0],
    )


def _score_blocks(model, rows, *, encoded: bool):
    """``(labels, scores)`` of checked 2-d ``rows``, :data:`SCORE_BLOCK` rows at a time.

    Rows are unit states, or raw features that each block encodes through
    the model's pipeline first when ``encoded``; a row that overflows its
    encoding is named by its index in ``rows``. Labels come from each
    block's scores. The engines' temporaries (lifted states, or the
    m-by-block overlaps) stay bounded, so nothing but the score and label
    arrays grows with the number of rows.
    """
    scores = np.empty((rows.shape[0], model.n_classes))
    labels = np.empty(rows.shape[0], dtype=np.int64)
    score_block = _score_dense_block if isinstance(model, DensePgmModel) else _score_gram_block
    for start in range(0, rows.shape[0], SCORE_BLOCK):
        stop = start + SCORE_BLOCK
        block = rows[start:stop]
        if encoded:
            block = encode(block, model.encoding, model.normalizer, first_row=start)
        score_block(model, block, scores[start:stop])
        labels[start:stop] = labels_from_scores(scores[start:stop])
    return labels, scores


def _score_dense_block(model: DensePgmModel, block, out) -> None:
    lifted = tensor_power(block, model.copies)
    for i, effect in enumerate(model.povm):
        out[:, i] = np.einsum("ka,ka->k", lifted @ effect, lifted)


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

    The Born-rule scores have shape ``(k, n_classes)``; each row sums to one
    and is entrywise in [0, 1] up to round-off. A model with a feature
    pipeline takes raw features and encodes them a block at a time inside
    the scoring loop, so memory grows with the number of rows only by the
    score and label arrays; :func:`encode` checks each block's values. A
    model without one takes already-encoded unit states, whose entries must
    be finite.
    """
    x_batch = np.asarray(x_batch, dtype=float)
    if x_batch.ndim != 2:
        raise DimMismatch(f"expected a 2-d feature array, got shape {x_batch.shape}")
    encoded = model.encoding is not None
    dim = x_batch.shape[1] + 1 if encoded else x_batch.shape[1]
    if dim != model.dim:
        raise DimMismatch(f"state dimension {dim} does not match model dimension {model.dim}")
    if not encoded and not np.all(np.isfinite(x_batch)):
        raise InvalidFeature("state entries must be finite")
    return _score_blocks(model, x_batch, encoded=encoded)


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
            raise InvalidArgument(
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
    return train, make_priors(config.prior_mode, train.class_counts), params


def fit_pgm(features, labels, n_classes: int, config: PgmConfig = PgmConfig()):
    """Fit the full pipeline on raw features and return a scoring model.

    Fits the normalizer on the given features, encodes them, builds the
    measurement with the configured engine (``auto``: dense within the dense
    limit, gram past it), and carries the pipeline so that
    :func:`predict_batch` accepts raw features.
    """
    train, priors, params = encode_training_set(features, labels, n_classes, config)
    dense = config.engine == "dense" or (
        config.engine == "auto" and lifted_dimension(train.dim, config.copies) is not None
    )
    model = (build_dense_pgm if dense else build_gram_pgm)(train, priors, config.copies)
    return replace(model, encoding=config.encoding, normalizer=params)
