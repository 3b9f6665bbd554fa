"""Shared test utilities: random instances, reference scoring, synthetic datasets, CSV writing."""

from __future__ import annotations

import tracemalloc

import numpy as np

from pgmclassifier import DensePgmModel, LabeledStateSet, stable_power, tensor_power


def random_unit_states(rng, m, d):
    v = rng.normal(size=(m, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_labeled_states(rng, n_classes, d, m):
    """Random unit states with labels guaranteed to cover every class."""
    labels = np.concatenate(
        [np.arange(n_classes), rng.integers(0, n_classes, m - n_classes)]
    ).astype(np.int64)
    return LabeledStateSet(
        states=random_unit_states(rng, m, d), labels=labels, n_classes=n_classes
    )


def unblocked_scores(model, states):
    """Born-rule scores of all rows at once: the score formula without row blocks."""
    states = np.asarray(states, dtype=float)
    if isinstance(model, DensePgmModel):
        if states.shape[0] == 0:
            return np.zeros((0, model.n_classes))
        lifted = np.stack([tensor_power(row, model.copies) for row in states])
        return np.einsum("ka,iab,kb->ki", lifted, model.povm, lifted)
    v = np.sqrt(model.weights)[:, None] * stable_power(
        model.train_states @ states.T, model.copies
    )
    u = model.M @ v
    scores = np.zeros((states.shape[0], model.n_classes))
    usq = u * u
    for i in range(model.n_classes):
        scores[:, i] = usq[model.labels == i].sum(axis=0)
    kernel_mass = 1.0 - np.sum(v * (model.M @ (model.M @ v)), axis=0)
    return scores + kernel_mass[:, None] / model.n_classes


def random_instances(seed, count):
    """Instance family: l in 2..5, d in 2..6, n in 1..3, m in 5..40."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n_classes = int(rng.integers(2, 6))
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(max(5, n_classes), 41))
        out.append((random_labeled_states(rng, n_classes, d, m), n, rng))
    return out


def blob_features(side, per_class, d=2, seed=20240814):
    """Three Gaussian blobs (unit sigma) at pairwise distance ``side``."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((3, d))
    centers[1, 0] = side
    centers[2, 0] = side / 2
    centers[2, 1] = side * np.sqrt(3) / 2
    features = np.vstack([rng.normal(c, 1.0, (per_class, d)) for c in centers])
    labels = np.repeat(np.arange(3), per_class).astype(np.int64)
    return features, labels


def row_labels(dataset):
    """Each row's label name of a loaded dataset, or None for unlabeled data."""
    if dataset.classes is None:
        return None
    return tuple(dataset.classes[i] for i in dataset.label_indices)


def write_dataset_csv(path, features, label_names=None, feature_names=None, label_column="label"):
    features = np.asarray(features, dtype=float)
    d = features.shape[1]
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(d)]
    header = list(feature_names) + ([label_column] if label_names is not None else [])
    lines = [",".join(header)]
    for i in range(features.shape[0]):
        cells = [repr(float(v)) for v in features[i]]
        if label_names is not None:
            cells.append(str(label_names[i]))
        lines.append(",".join(cells))
    path = str(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def peak_allocation(call, *args, **kwargs) -> int:
    """Peak bytes ``tracemalloc`` traces while ``call(*args, **kwargs)`` runs.

    Counts Python objects and numpy buffers allocated during the call, its
    result included, above what was allocated when it started.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
