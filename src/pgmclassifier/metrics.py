"""Evaluation metrics: confusion statistics, rank-based AUC, win-loss tables.

All classifier quality numbers flow through a confusion matrix (rows = true
class, columns = predicted) plus per-class one-vs-rest AUC computed from the
score columns. Rates with a zero denominator are reported as 0 together with
an explicit degenerate flag, so downstream averaging stays defined and the
omission is auditable. Per-class AUC needs at least one positive and one
negative sample; undefined entries are excluded from the macro average and
flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassSetMismatch,
    DimMismatch,
    EmptyEvaluation,
    LabelOutOfRange,
    MetricSetMismatch,
    NonFiniteScore,
    UndefinedAuc,
)


def confusion(true_labels, predicted_labels, n_classes: int) -> np.ndarray:
    """Count samples by (true, predicted) class into an l-by-l matrix."""
    true_labels = np.asarray(true_labels)
    predicted_labels = np.asarray(predicted_labels)
    if true_labels.shape != predicted_labels.shape or true_labels.ndim != 1:
        raise DimMismatch(
            f"label shapes differ: {true_labels.shape} vs {predicted_labels.shape}"
        )
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    if true_labels.size == 0:
        return cm
    for name, arr in (("true", true_labels), ("predicted", predicted_labels)):
        if not np.issubdtype(arr.dtype, np.integer):
            raise LabelOutOfRange(f"{name} labels must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() >= n_classes:
            raise LabelOutOfRange(
                f"{name} labels must lie in [0, {n_classes}), "
                f"got range [{arr.min()}, {arr.max()}]"
            )
    np.add.at(cm, (true_labels, predicted_labels), 1)
    return cm


def _check_nonempty(cm: np.ndarray) -> np.ndarray:
    cm = np.asarray(cm)
    if cm.sum() <= 0:
        raise EmptyEvaluation("confusion matrix counts no samples")
    return cm


def accuracy(cm) -> float:
    """Fraction of samples on the confusion-matrix diagonal."""
    cm = _check_nonempty(cm)
    return float(np.trace(cm) / cm.sum())


def macro_accuracy(cm) -> float:
    """Mean per-class recall (balanced accuracy).

    Classes that never occur as true labels are excluded from the mean,
    since their recall is undefined.
    """
    cm = _check_nonempty(cm)
    row_sums = cm.sum(axis=1)
    present = row_sums > 0
    recalls = np.diag(cm)[present] / row_sums[present]
    return float(recalls.mean())


@dataclass(frozen=True)
class BinaryRates:
    """Precision/recall/specificity/F1 for one class against the rest.

    ``degenerate`` lists the rates whose denominator was zero and were
    therefore reported as 0.
    """

    precision: float
    recall: float
    specificity: float
    f1: float
    degenerate: tuple[str, ...] = ()


def _safe_rate(numerator: float, denominator: float, name: str, flags: list) -> float:
    if denominator == 0:
        flags.append(name)
        return 0.0
    return float(numerator / denominator)


def one_vs_rest_rates(cm, class_index: int) -> BinaryRates:
    """Binary rates for ``class_index`` treated as positive, rest as negative."""
    cm = np.asarray(cm)
    if not 0 <= class_index < cm.shape[0]:
        raise LabelOutOfRange(
            f"class index {class_index} out of range for {cm.shape[0]} classes"
        )
    total = cm.sum()
    tp = cm[class_index, class_index]
    fp = cm[:, class_index].sum() - tp
    fn = cm[class_index, :].sum() - tp
    tn = total - tp - fp - fn
    flags: list = []
    precision = _safe_rate(tp, tp + fp, "precision", flags)
    recall = _safe_rate(tp, tp + fn, "recall", flags)
    specificity = _safe_rate(tn, tn + fp, "specificity", flags)
    f1 = _safe_rate(2 * tp, 2 * tp + fp + fn, "f1", flags)
    return BinaryRates(
        precision=precision,
        recall=recall,
        specificity=specificity,
        f1=f1,
        degenerate=tuple(flags),
    )


def binary_rates(cm, positive_class: int) -> BinaryRates:
    """Two-class rates with a designated positive class.

    Specificity is the recall of the other class; true negatives are its
    correctly predicted samples.
    """
    cm = np.asarray(cm)
    if cm.shape != (2, 2):
        raise DimMismatch(f"binary rates need a 2x2 confusion matrix, got {cm.shape}")
    return one_vs_rest_rates(cm, positive_class)


def rankdata(values) -> np.ndarray:
    """1-based ranks of a 1-d array, tied values sharing their mid-rank.

    A tie group occupying sorted positions ``s .. e - 1`` gets rank
    ``(s + e + 1) / 2``, the mean of the ranks it spans.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    order = np.argsort(values)
    ordered = values[order]
    new_group = np.empty(n, dtype=bool)
    new_group[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], n)
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc_ovr(scores, membership) -> float:
    """One-vs-rest AUC from the Mann-Whitney rank statistic.

    ``scores`` are the per-sample scores of the class under test and
    ``membership`` the boolean true-membership mask. Tied scores receive
    mid-ranks, so the result equals the probability that a random positive
    outranks a random negative with ties counted one half. Non-finite
    scores are rejected, since they have no meaningful rank.
    """
    scores = np.asarray(scores, dtype=float)
    membership = np.asarray(membership, dtype=bool)
    if scores.shape != membership.shape or scores.ndim != 1:
        raise DimMismatch(
            f"scores shape {scores.shape} does not match membership {membership.shape}"
        )
    if not np.all(np.isfinite(scores)):
        raise NonFiniteScore("AUC needs finite scores")
    n_pos = int(membership.sum())
    n_neg = membership.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAuc(
            f"AUC needs positives and negatives, got {n_pos} positive of {membership.size}"
        )
    ranks = rankdata(scores)
    u = ranks[membership].sum() - n_pos * (n_pos + 1) / 2
    return float(u / (n_pos * n_neg))


@dataclass(frozen=True)
class MetricReport:
    """Full evaluation suite for one model on one labeled sample set.

    Per-class AUC entries are None when undefined (flagged and excluded
    from ``macro_auc``). ``binary`` duplicates the positive class's
    one-vs-rest rates when a positive class is designated for a two-class
    problem; ``degenerate`` collects every zero-denominator or undefined
    flag under metric names matching :meth:`flat`.
    """

    n_samples: int
    n_classes: int
    accuracy: float
    macro_accuracy: float
    per_class_auc: tuple
    macro_auc: float | None
    per_class: tuple
    positive_class: int | None
    binary: BinaryRates | None
    degenerate: tuple[str, ...]

    def flat(self) -> dict:
        """Flatten to ``{metric_name: value}`` with per-class suffixes."""
        out = {
            "accuracy": self.accuracy,
            "macro_accuracy": self.macro_accuracy,
            "macro_auc": self.macro_auc,
        }
        for i in range(self.n_classes):
            out[f"auc_class_{i}"] = self.per_class_auc[i]
            rates = self.per_class[i]
            out[f"precision_class_{i}"] = rates.precision
            out[f"recall_class_{i}"] = rates.recall
            out[f"specificity_class_{i}"] = rates.specificity
            out[f"f1_class_{i}"] = rates.f1
        if self.binary is not None:
            out["precision"] = self.binary.precision
            out["recall"] = self.binary.recall
            out["specificity"] = self.binary.specificity
            out["f1"] = self.binary.f1
        return out


def report_from_predictions(
    true_labels,
    predicted_labels,
    scores,
    n_classes: int,
    positive_class: int | None = None,
) -> MetricReport:
    """Assemble the full metric suite from predictions and score columns."""
    scores = np.asarray(scores, dtype=float)
    true_labels = np.asarray(true_labels)
    if scores.shape != (true_labels.size, n_classes):
        raise DimMismatch(
            f"expected scores of shape {(true_labels.size, n_classes)}, got {scores.shape}"
        )
    cm = confusion(true_labels, predicted_labels, n_classes)
    flags: list = []
    per_class_auc: list = []
    for i in range(n_classes):
        try:
            per_class_auc.append(auc_ovr(scores[:, i], true_labels == i))
        except UndefinedAuc:
            per_class_auc.append(None)
            flags.append(f"auc_class_{i}")
    defined = [a for a in per_class_auc if a is not None]
    if defined:
        macro_auc = float(np.mean(defined))
    else:
        macro_auc = None
        flags.append("macro_auc")
    per_class = []
    for i in range(n_classes):
        rates = one_vs_rest_rates(cm, i)
        per_class.append(rates)
        flags.extend(f"{name}_class_{i}" for name in rates.degenerate)
    binary = None
    if positive_class is not None:
        if n_classes != 2:
            raise LabelOutOfRange(
                f"a designated positive class needs 2 classes, got {n_classes}"
            )
        if not 0 <= positive_class < 2:
            raise LabelOutOfRange(f"positive class {positive_class} out of range")
        binary = per_class[positive_class]
        flags.extend(binary.degenerate)
    return MetricReport(
        n_samples=int(true_labels.size),
        n_classes=n_classes,
        accuracy=accuracy(cm),
        macro_accuracy=macro_accuracy(cm),
        per_class_auc=tuple(per_class_auc),
        macro_auc=macro_auc,
        per_class=tuple(per_class),
        positive_class=positive_class,
        binary=binary,
        degenerate=tuple(flags),
    )


@dataclass(frozen=True)
class WinLossMatrix:
    """Pairwise strict-win fractions between models on per-class AUC.

    ``matrix[a, b]`` is the fraction of classes where model ``names[a]``
    attains strictly higher AUC than ``names[b]``; exact ties (or undefined
    entries) count toward neither side, so a pair's two entries sum to 1
    only in the absence of ties.
    """

    names: tuple[str, ...]
    matrix: np.ndarray


def win_loss(per_class_auc_by_model: dict) -> WinLossMatrix:
    """Build the win-loss matrix from ``{model_name: {class: auc}}``."""
    if not per_class_auc_by_model:
        raise ClassSetMismatch("need at least one model")
    names = tuple(per_class_auc_by_model)
    class_sets = [frozenset(per_class_auc_by_model[n]) for n in names]
    if any(cs != class_sets[0] for cs in class_sets):
        raise ClassSetMismatch(
            f"models report different class sets: {[sorted(map(str, cs)) for cs in class_sets]}"
        )
    classes = sorted(class_sets[0], key=str)
    if not classes:
        raise ClassSetMismatch("models report no classes")
    k = len(names)
    matrix = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            wins = 0
            for c in classes:
                va = per_class_auc_by_model[names[a]][c]
                vb = per_class_auc_by_model[names[b]][c]
                if va is not None and vb is not None and va > vb:
                    wins += 1
            matrix[a, b] = wins / len(classes)
    return WinLossMatrix(names=names, matrix=matrix)


def metric_difference(metrics_a: dict, metrics_b: dict) -> dict:
    """Signed per-metric difference ``a - b`` over identical metric sets.

    Entries where either side is None (degenerate upstream) stay None.
    """
    if set(metrics_a) != set(metrics_b):
        only_a = sorted(set(metrics_a) - set(metrics_b))
        only_b = sorted(set(metrics_b) - set(metrics_a))
        raise MetricSetMismatch(
            f"metric sets differ: only in a {only_a}, only in b {only_b}"
        )
    return {
        name: (
            None
            if metrics_a[name] is None or metrics_b[name] is None
            else metrics_a[name] - metrics_b[name]
        )
        for name in metrics_a
    }
