"""Experiment harness: stratified splits, cross-validated grid search,
robust configuration selection, and the full repeated-holdout protocol.

The protocol mirrors a repeated-measurement design: several stratified
train/test splits of the dataset; within each split a grid search over
(encoding, alpha, copies) scored by repeated stratified k-fold
cross-validation on the training part, optimizing macro one-vs-rest AUC;
the per-split winner refitted on the whole training part and evaluated on
the held-out test part. The final configuration is the one winning most
splits, ties broken by mean test AUC and then by grid order. Each split runs
one cross-validation loop: the winner's quality metrics come from the
validation scores its grid search already produced, averaged within each
split first and across splits second.

Everything is a deterministic function of (data, config, master seed):
per-repetition seeds come from a fixed 64-bit mixing function, and parallel
grid cells are reduced in a canonical order so results do not depend on the
worker count.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .encoding import ENCODINGS, EncodingConfig, encode
from .errors import (
    ClassSmallerThanK,
    PgmError,
    StratificationImpossible,
    UndefinedAuc,
)
from .metrics import MetricReport, auc_ovr, report_from_predictions
from .operators import RANK_TOL
from .pgm import (
    PgmConfig,
    build_pgm,
    encode_training_set,
    fit_pgm,
    labels_from_scores,
    predict_batch,
    score_states,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master: int, index: int) -> int:
    """Mix a master seed with an index into an independent 64-bit seed.

    Fixed finalizer-style mixing (multiply-xorshift), so derived seeds are
    reproducible across platforms and decoupled for consecutive indices.
    """
    z = (int(master) + (int(index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """One train/test partition: disjoint, exhaustive, stratified."""

    repetition_id: int
    train_indices: np.ndarray
    test_indices: np.ndarray
    seed: int


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """k disjoint, exhaustive folds with per-class counts differing by <= 1."""

    folds: tuple
    k: int

    def splits(self):
        """Yield (train_indices, validation_indices) per fold."""
        for j in range(self.k):
            train = np.concatenate([self.folds[i] for i in range(self.k) if i != j])
            yield np.sort(train), self.folds[j]


def _class_test_counts(labels: np.ndarray, classes: np.ndarray, test_fraction: float):
    counts = {int(c): int((labels == c).sum()) for c in classes}
    total_test = int(round(labels.size * test_fraction))
    if total_test == 0:
        raise StratificationImpossible(
            f"test fraction {test_fraction} keeps no samples for testing"
        )
    quota = {c: m * test_fraction for c, m in counts.items()}
    take = {c: min(int(np.floor(q)), counts[c] - 1) for c, q in quota.items()}
    deficit = total_test - sum(take.values())
    by_remainder = sorted(quota, key=lambda c: (-(quota[c] - np.floor(quota[c])), c))
    while deficit > 0:
        progressed = False
        for c in by_remainder:
            if deficit == 0:
                break
            if take[c] < counts[c] - 1:
                take[c] += 1
                deficit -= 1
                progressed = True
        if not progressed:
            break
    return take


def stratified_holdout(labels, test_fraction: float, repetitions: int, seed: int):
    """Draw repeated stratified train/test splits.

    The test set holds round(m * test_fraction) samples, allocated to
    classes by largest remainder so each class's test share stays within
    one sample of the target ratio; every class keeps at least one training
    sample. Repetition r shuffles with the derived seed mix(seed, r), so
    the full plan list is a pure function of (labels, fraction, seed).
    """
    labels = np.asarray(labels)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must lie in (0, 1), got {test_fraction!r}")
    if repetitions < 1:
        raise ValueError(f"need at least one repetition, got {repetitions!r}")
    classes = np.unique(labels)
    small = [int(c) for c in classes if (labels == c).sum() < 2]
    if small:
        raise StratificationImpossible(
            f"every class needs at least 2 samples to stratify, class {small[0]} is smaller"
        )
    take = _class_test_counts(labels, classes, test_fraction)
    plans = []
    for r in range(repetitions):
        rep_seed = derive_seed(seed, r)
        rng = np.random.default_rng(rep_seed)
        test_parts = []
        for c in classes:
            idx = np.flatnonzero(labels == c)
            test_parts.append(rng.permutation(idx)[: take[int(c)]])
        test = np.sort(np.concatenate(test_parts))
        mask = np.ones(labels.size, dtype=bool)
        mask[test] = False
        plans.append(
            SplitPlan(
                repetition_id=r,
                train_indices=np.flatnonzero(mask),
                test_indices=test,
                seed=rep_seed,
            )
        )
    return plans


def stratified_kfold(train_labels, k: int, seed: int) -> FoldPlan:
    """Partition indices into k stratified folds.

    Each class's shuffled indices are dealt into k chunks whose sizes
    differ by at most one; the chunk-to-fold assignment is rotated by a
    random offset per class so no fold systematically collects the larger
    chunks.
    """
    train_labels = np.asarray(train_labels)
    if k < 2:
        raise ValueError(f"k-fold needs k of at least 2, got {k!r}")
    classes = np.unique(train_labels)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for c in classes:
        idx = np.flatnonzero(train_labels == c)
        if idx.size < k:
            raise ClassSmallerThanK(
                f"class {int(c)} has {idx.size} samples, fewer than k={k}"
            )
        perm = rng.permutation(idx)
        offset = int(rng.integers(k))
        for j, chunk in enumerate(np.array_split(perm, k)):
            folds[(j + offset) % k].append(chunk)
    return FoldPlan(
        folds=tuple(np.sort(np.concatenate(parts)) for parts in folds), k=k
    )


#: Rescaling factors of the default hyperparameter grid.
DEFAULT_ALPHAS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)

#: Copy counts of the default hyperparameter grid.
DEFAULT_COPIES = (1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60)


@dataclass(frozen=True)
class GridPoint:
    """One hyperparameter configuration: encoding, rescaling, copy count."""

    encoding: str
    alpha: float
    copies: int
    prior_mode: str = "uniform"

    def to_config(
        self,
        normalizer: str = "zscore",
        engine: str = "auto",
        rank_tol: float = RANK_TOL,
    ) -> PgmConfig:
        """Expand into a full fit configuration."""
        return PgmConfig(
            encoding=EncodingConfig(
                encoding=self.encoding, alpha=self.alpha, normalizer=normalizer
            ),
            copies=self.copies,
            prior_mode=self.prior_mode,
            engine=engine,
            rank_tol=rank_tol,
        )


def make_grid(
    encodings=ENCODINGS,
    alphas=DEFAULT_ALPHAS,
    copies=DEFAULT_COPIES,
    prior_mode: str = "uniform",
):
    """Enumerate grid points in canonical order: encoding, then alpha, then copies.

    List position defines the lexicographic order used for residual
    tie-breaking, so the same grid always resolves ties the same way.
    """
    return tuple(
        GridPoint(encoding=e, alpha=float(a), copies=int(n), prior_mode=prior_mode)
        for e in encodings
        for a in alphas
        for n in copies
    )


def default_grid():
    """The full 2 x 6 x 13 default grid."""
    return make_grid()


@dataclass(frozen=True, eq=False)
class GridResult:
    """Cross-validation outcome of one grid point.

    ``values[r, j]`` is the validation macro one-vs-rest AUC of repetition
    r, fold j, and ``fold_scores[r][j]`` the ``(n_val, n_classes)`` scores
    it was computed from; ``mean`` averages folds within each repetition
    first. Failed points carry the first error message, rank None and no
    values or scores.
    """

    point: GridPoint
    grid_index: int
    values: np.ndarray | None = None
    fold_scores: tuple | None = None
    mean: float | None = None
    rank: int | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _macro_validation_auc(scores: np.ndarray, truth: np.ndarray, n_classes: int):
    vals = []
    for i in range(n_classes):
        try:
            vals.append(auc_ovr(scores[:, i], truth == i))
        except UndefinedAuc:
            pass
    return float(np.mean(vals)) if vals else None


_CELL_ERRORS = (PgmError, ValueError, np.linalg.LinAlgError)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _resolve_workers(workers, n_tasks: int) -> int:
    """Thread count for ``n_tasks`` tasks: ``workers`` (default 1), at most one per task."""
    return max(1, min(int(workers or 1), n_tasks))


def _round12(x: float) -> float:
    return float(round(x, 12))


def _cv_folds(labels, k: int, cv_repetitions: int, seed: int):
    """The ``(train, validation)`` index pairs of repetition r, fold j at ``[r][j]``.

    Repetition r deals its folds with the derived seed mix(seed, r), so the
    plan depends only on (labels, k, seed).
    """
    return [
        list(stratified_kfold(labels, k, derive_seed(seed, r)).splits())
        for r in range(cv_repetitions)
    ]


def grid_search(
    features,
    labels,
    n_classes: int,
    grid,
    *,
    k: int = 5,
    cv_repetitions: int = 10,
    seed: int,
    normalizer: str = "zscore",
    engine: str = "auto",
    rank_tol: float = RANK_TOL,
    workers: int | None = None,
):
    """Rank grid points by repeated stratified k-fold validation AUC.

    Every (grid point, repetition, fold) cell fits on the other folds and
    scores the validation fold; the point's mean averages folds within a
    repetition first. Fold plans depend only on (labels, k, seed), not on
    the grid, so all points see identical folds. Points sharing encoding,
    alpha and prior mode form a group: one task per (group, repetition,
    fold) encodes the fold once and then builds and scores one measurement
    per copy count. Tasks run in parallel up to ``workers`` threads
    (default 1) and are reduced in grid order, making the ranking
    worker-count independent. Points whose any cell fails are excluded
    from the ranking and returned at the tail with the error. Ranked points
    keep their validation scores, so callers can derive further fold
    metrics without refitting.

    Returns a tuple of :class:`GridResult`, ranked entries first
    (descending mean, ties by grid order).
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    grid = tuple(grid)
    if not grid:
        raise ValueError("grid must contain at least one point")
    if cv_repetitions < 1:
        raise ValueError(f"need at least one repetition, got {cv_repetitions!r}")
    configs = [p.to_config(normalizer=normalizer, engine=engine, rank_tol=rank_tol) for p in grid]
    groups: dict = {}
    for gi, config in enumerate(configs):
        groups.setdefault((config.encoding, config.prior_mode), []).append(gi)
    fold_pairs = _cv_folds(labels, k, cv_repetitions, seed)

    def run_group(task):
        members, ri, fi = task
        train_idx, val_idx = fold_pairs[ri][fi]
        shared = configs[members[0]]
        try:
            train, priors, params = encode_training_set(
                features[train_idx], labels[train_idx], n_classes, shared
            )
            val_states = encode(features[val_idx], shared.encoding, params)
        except _CELL_ERRORS as exc:
            return [(None, None, _describe(exc))] * len(members)
        outcomes = []
        for gi in members:
            config = configs[gi]
            try:
                model = build_pgm(train, priors, config.copies, config.engine, config.rank_tol)
                scores = score_states(model, val_states)
                value = _macro_validation_auc(scores, labels[val_idx], n_classes)
                if value is None:
                    outcomes.append((None, None, "validation AUC undefined for every class"))
                else:
                    outcomes.append((value, scores, None))
            except _CELL_ERRORS as exc:
                outcomes.append((None, None, _describe(exc)))
        return outcomes

    tasks = [
        (members, ri, fi)
        for members in groups.values()
        for ri in range(cv_repetitions)
        for fi in range(k)
    ]
    n_workers = _resolve_workers(workers, len(tasks))
    if n_workers == 1:
        outcomes = [run_group(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            outcomes = list(pool.map(run_group, tasks))

    values = np.full((len(grid), cv_repetitions, k), np.nan)
    fold_scores = [[[None] * k for _ in range(cv_repetitions)] for _ in grid]
    errors: dict[int, str] = {}
    for (members, ri, fi), group_outcomes in zip(tasks, outcomes):
        for gi, (value, scores, error) in zip(members, group_outcomes):
            if error is not None:
                errors.setdefault(gi, error)
            else:
                values[gi, ri, fi] = value
                fold_scores[gi][ri][fi] = scores

    ranked_indices = [gi for gi in range(len(grid)) if gi not in errors]
    means = {gi: float(values[gi].mean(axis=1).mean()) for gi in ranked_indices}
    ranked_indices.sort(key=lambda gi: (-_round12(means[gi]), gi))
    results = [
        GridResult(
            point=grid[gi],
            grid_index=gi,
            values=values[gi].copy(),
            fold_scores=tuple(map(tuple, fold_scores[gi])),
            mean=means[gi],
            rank=rank,
        )
        for rank, gi in enumerate(ranked_indices)
    ]
    results.extend(
        GridResult(point=grid[gi], grid_index=gi, error=errors[gi]) for gi in sorted(errors)
    )
    return tuple(results)


def _mean_ignoring_none(dicts):
    keys = dicts[0].keys()
    out = {}
    for key in keys:
        defined = [d[key] for d in dicts if d[key] is not None]
        out[key] = float(np.mean(defined)) if defined else None
    return out


@dataclass(frozen=True)
class SelectionReport:
    """Audit trail of the robust-configuration choice.

    Stage 1 keeps the most frequent per-split winners; stage 2 keeps those
    with the highest mean test AUC over the splits they won; stage 3
    resolves any residual tie by grid order. ``mean_test_auc`` records the
    stage-2 statistic for every distinct winner.
    """

    winner_indices: tuple
    frequency: dict
    tied_after_frequency: tuple
    mean_test_auc: dict
    tied_after_auc: tuple
    chosen_index: int
    chosen: GridPoint


def select_robust_config(winner_indices, test_aucs, grid) -> SelectionReport:
    """Pick the configuration winning most splits; break ties by test AUC.

    ``winner_indices[s]`` is the grid index chosen by split s and
    ``test_aucs[s]`` that split's test macro AUC (None tolerated, skipped
    in means). Residual ties resolve to the smallest grid index.
    """
    winner_indices = tuple(int(w) for w in winner_indices)
    test_aucs = tuple(test_aucs)
    if not winner_indices or len(winner_indices) != len(test_aucs):
        raise ValueError(
            f"need matching nonempty winner and AUC lists, "
            f"got {len(winner_indices)} and {len(test_aucs)}"
        )
    grid = tuple(grid)
    frequency = dict(Counter(winner_indices))
    mean_test_auc = {}
    for gi in sorted(frequency):
        own = [a for w, a in zip(winner_indices, test_aucs) if w == gi and a is not None]
        mean_test_auc[gi] = float(np.mean(own)) if own else None
    top = max(frequency.values())
    stage1 = tuple(sorted(gi for gi, f in frequency.items() if f == top))
    scored = {
        gi: _round12(mean_test_auc[gi]) if mean_test_auc[gi] is not None else -np.inf
        for gi in stage1
    }
    best = max(scored.values())
    stage2 = tuple(gi for gi in stage1 if scored[gi] == best)
    chosen = min(stage2)
    return SelectionReport(
        winner_indices=winner_indices,
        frequency=frequency,
        tied_after_frequency=stage1,
        mean_test_auc=mean_test_auc,
        tied_after_auc=stage2,
        chosen_index=chosen,
        chosen=grid[chosen],
    )


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of the repeated-holdout grid-search protocol."""

    seed: int
    grid: tuple = field(default_factory=default_grid)
    k: int = 5
    cv_repetitions: int = 10
    normalizer: str = "zscore"
    engine: str = "auto"
    rank_tol: float = RANK_TOL
    positive_class: int | None = None
    workers: int | None = None


@dataclass(frozen=True)
class SplitRecord:
    """Everything the protocol learned from one train/test split."""

    repetition_id: int
    winner_index: int
    winner: GridPoint
    cv_objective: float
    cv_metrics: dict
    test_report: MetricReport


@dataclass(frozen=True)
class Aggregate:
    """Across-split mean/standard deviation per metric.

    ``count`` is the number of splits where the metric was defined; the
    standard deviation is the sample deviation (0 for a single split).
    """

    mean: dict
    std: dict
    count: dict


def _aggregate(dicts) -> Aggregate:
    keys = dicts[0].keys()
    mean: dict = {}
    std: dict = {}
    count: dict = {}
    for key in keys:
        defined = [d[key] for d in dicts if d[key] is not None]
        count[key] = len(defined)
        if defined:
            mean[key] = float(np.mean(defined))
            std[key] = float(np.std(defined, ddof=1)) if len(defined) > 1 else 0.0
        else:
            mean[key] = None
            std[key] = None
    return Aggregate(mean=mean, std=std, count=count)


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of the full protocol: per-split records plus aggregates."""

    records: tuple
    selection: SelectionReport
    test_aggregate: Aggregate
    cv_aggregate: Aggregate
    grid: tuple
    config: ProtocolConfig


def run_protocol(features, labels, n_classes: int, splits, config: ProtocolConfig) -> ProtocolResult:
    """Run grid search per split, evaluate winners, select the robust config.

    For each split: grid-search the training part (seed mixed with the
    split's repetition id), refit the winning configuration on the whole
    training part, and evaluate it on the test part. The winner's
    cross-validation metrics come from the validation scores its grid
    search already computed, with no refit: fold reports are averaged over
    folds, then over repetitions, before the final across-split
    aggregation; metrics undefined on some folds are averaged over the
    folds where they are defined. Any split whose every grid point fails
    aborts the protocol with a diagnostic naming the split.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    splits = list(splits)
    if not splits:
        raise ValueError("protocol needs at least one split")
    records = []
    for split in splits:
        cv_seed = derive_seed(config.seed, split.repetition_id)
        tr, te = split.train_indices, split.test_indices
        train_labels = labels[tr]
        ranking = grid_search(
            features[tr],
            train_labels,
            n_classes,
            config.grid,
            k=config.k,
            cv_repetitions=config.cv_repetitions,
            seed=cv_seed,
            normalizer=config.normalizer,
            engine=config.engine,
            rank_tol=config.rank_tol,
            workers=config.workers,
        )
        best = ranking[0]
        if best.failed:
            raise PgmError(
                f"split {split.repetition_id}: every grid point failed; first error: {best.error}"
            )
        fit_config = best.point.to_config(
            normalizer=config.normalizer, engine=config.engine, rank_tol=config.rank_tol
        )
        model = fit_pgm(features[tr], train_labels, n_classes, fit_config)
        predicted, scores = predict_batch(model, features[te])
        test_report = report_from_predictions(
            labels[te], predicted, scores, n_classes, config.positive_class
        )
        fold_pairs = _cv_folds(train_labels, config.k, config.cv_repetitions, cv_seed)
        rep_means = []
        for rep_pairs, rep_scores in zip(fold_pairs, best.fold_scores):
            fold_metrics = [
                report_from_predictions(
                    train_labels[val_idx],
                    labels_from_scores(val_scores),
                    val_scores,
                    n_classes,
                    config.positive_class,
                ).flat()
                for (_, val_idx), val_scores in zip(rep_pairs, rep_scores)
            ]
            rep_means.append(_mean_ignoring_none(fold_metrics))
        cv_metrics = _mean_ignoring_none(rep_means)
        records.append(
            SplitRecord(
                repetition_id=split.repetition_id,
                winner_index=best.grid_index,
                winner=best.point,
                cv_objective=best.mean,
                cv_metrics=cv_metrics,
                test_report=test_report,
            )
        )
    selection = select_robust_config(
        [rec.winner_index for rec in records],
        [rec.test_report.macro_auc for rec in records],
        config.grid,
    )
    test_aggregate = _aggregate([rec.test_report.flat() for rec in records])
    cv_aggregate = _aggregate([rec.cv_metrics for rec in records])
    return ProtocolResult(
        records=tuple(records),
        selection=selection,
        test_aggregate=test_aggregate,
        cv_aggregate=cv_aggregate,
        grid=tuple(config.grid),
        config=config,
    )
