"""Feature preprocessing and unit-vector state encodings.

A raw feature vector goes through three stages before it becomes a state:
per-column normalization fitted on training data, global rescaling by a
positive factor, and one of two maps onto the unit sphere in dimension
``d + 1``. Both encodings keep the extra coordinate so that distinct inputs
stay distinct after projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidAlpha, InvalidFeature

#: Supported encoding names, in canonical grid order.
ENCODINGS = ("stereographic", "amplitude")

#: Supported normalizer names.
NORMALIZERS = ("none", "zscore", "minmax")

#: Relative spread below which a column counts as constant and keeps scale 1.
_DEGENERATE_SCALE_TOL = 1e-12

#: Largest deviation from 1 accepted in the norm of an encoded state.
UNIT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class NormalizerParams:
    """Fitted per-column affine normalization ``(x - location) / scale``.

    ``kind`` is one of :data:`NORMALIZERS`. For ``zscore`` the location is
    the column mean and the scale its standard deviation; for ``minmax`` the
    location is the column minimum and the scale the column range; ``none``
    stores zeros and ones. Degenerate columns (constant within round-off)
    get scale 1 so they map to exactly zero instead of amplifying noise.
    """

    kind: str
    location: np.ndarray
    scale: np.ndarray


def _as_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidFeature(f"expected a 2-d feature array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidFeature("feature values must be finite")
    return x


def fit_normalizer(x, kind: str = "zscore") -> NormalizerParams:
    """Fit column statistics for the requested normalization.

    Parameters
    ----------
    x : array_like
        Training feature matrix, shape ``(m, d)`` with ``m >= 1``.
    kind : str
        One of :data:`NORMALIZERS`.
    """
    if kind not in NORMALIZERS:
        raise InvalidFeature(f"unknown normalizer {kind!r}, expected one of {NORMALIZERS}")
    x = _as_matrix(x)
    if x.shape[0] < 1:
        raise InvalidFeature("cannot fit a normalizer on an empty matrix")
    d = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "none":
            location = np.zeros(d)
            scale = np.ones(d)
        elif kind == "zscore":
            location = x.mean(axis=0)
            scale = x.std(axis=0)
        else:
            location = x.min(axis=0)
            scale = x.max(axis=0) - location
    if not np.all(np.isfinite(location) & np.isfinite(scale)):
        raise InvalidFeature(f"feature values too large for {kind} statistics, which overflow")
    floor = _DEGENERATE_SCALE_TOL * np.maximum(1.0, np.abs(location))
    scale = np.where(scale <= floor, 1.0, scale)
    return NormalizerParams(kind=kind, location=location, scale=scale)


def apply_normalizer(x, params: NormalizerParams) -> np.ndarray:
    """Apply fitted per-column normalization to a feature matrix."""
    x = _as_matrix(x)
    if x.shape[1] != params.location.shape[0]:
        raise DimMismatch(
            f"feature count {x.shape[1]} does not match fitted "
            f"normalizer width {params.location.shape[0]}"
        )
    return (x - params.location) / params.scale


def rescale(x, alpha: float) -> np.ndarray:
    """Multiply every feature vector by the positive factor ``alpha``."""
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise InvalidAlpha(f"rescaling factor must be finite and positive, got {alpha!r}")
    return _as_matrix(x) * alpha


def encode_amplitude(x) -> np.ndarray:
    """Normalized-append encoding ``(x, 1) / ||(x, 1)||``, row-wise.

    Appending the constant coordinate before normalizing makes the map
    injective and keeps the zero vector encodable.
    """
    x = _as_matrix(x)
    ext = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    return ext / np.linalg.norm(ext, axis=1, keepdims=True)


def encode_stereographic(x) -> np.ndarray:
    """Inverse stereographic projection ``(2x, ||x||^2 - 1) / (||x||^2 + 1)``, row-wise."""
    x = _as_matrix(x)
    sq = np.sum(x * x, axis=1, keepdims=True)
    ext = np.concatenate([2.0 * x, sq - 1.0], axis=1)
    return ext / (sq + 1.0)


_ENCODERS = {"amplitude": encode_amplitude, "stereographic": encode_stereographic}


def check_unit_rows(states, error, row_name: str) -> None:
    """Raise ``error`` naming the first row whose norm is not 1 within :data:`UNIT_NORM_TOL`.

    A NaN entry fails, and so does an overflowing norm, read as inf without a numpy warning.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(states, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))
    if bad.size:
        norm = float(norms[bad[0]])
        raise error(f"{row_name} {bad[0]} has norm {norm!r}, expected 1 within {UNIT_NORM_TOL:g}")


@dataclass(frozen=True)
class EncodingConfig:
    """Complete preprocessing recipe: normalizer kind, alpha, encoding name."""

    encoding: str = "stereographic"
    alpha: float = 1.0
    normalizer: str = "zscore"

    def __post_init__(self):
        if self.encoding not in ENCODINGS:
            raise InvalidFeature(
                f"unknown encoding {self.encoding!r}, expected one of {ENCODINGS}"
            )
        if self.normalizer not in NORMALIZERS:
            raise InvalidFeature(
                f"unknown normalizer {self.normalizer!r}, expected one of {NORMALIZERS}"
            )
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise InvalidAlpha(
                f"rescaling factor must be finite and positive, got {self.alpha!r}"
            )


def encode(x, config: EncodingConfig, params: NormalizerParams) -> np.ndarray:
    """Run the full pipeline: normalize, rescale by alpha, encode to states.

    Returns a matrix of shape ``(m, d + 1)`` whose rows are unit vectors; a
    row whose scaled values overflow the encoding (from about 1e154 on)
    raises :class:`InvalidFeature` instead, without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        states = _ENCODERS[config.encoding](rescale(apply_normalizer(x, params), config.alpha))
    check_unit_rows(states, InvalidFeature, f"{config.encoding} encoding overflows: row index")
    return states


def fit_encode(x, config: EncodingConfig):
    """Fit the normalizer on ``x`` and encode it; returns ``(states, params)``."""
    params = fit_normalizer(x, config.normalizer)
    return encode(x, config, params), params
