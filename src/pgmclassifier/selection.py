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
per-repetition seeds come from a fixed 64-bit mixing function, and grid
tasks run at one BLAS thread count (:func:`one_blas_thread`) and are
reduced in task order, so results do not depend on the worker count.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .encoding import ENCODINGS, EncodingConfig, encode
from .errors import (
    ClassSmallerThanK,
    DenseBlowup,
    InvalidArgument,
    PgmError,
    StratificationImpossible,
)
from .metrics import MetricReport, ovr_aucs, report_from_predictions
from .operators import DENSE_DIM_LIMIT, lifted_dimension, one_blas_thread, resolve_workers
from .pgm import (
    SCORE_DECIMALS,
    PgmConfig,
    build_gram_pgm,
    encode_training_set,
    fit_pgm,
    labels_from_scores,
    predict_batch,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(master: int, index: int) -> int:
    """Mix a master seed with an index into an independent 64-bit seed.

    Fixed finalizer-style mixing (multiply-xorshift), so derived seeds are
    reproducible across platforms and decoupled for consecutive indices.
    """
    if type(master) is not int:
        raise InvalidArgument(f"seed must be an integer, got {master!r}")
    z = (master + (int(index) + 1) * _GOLDEN) & _MASK64
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


def _distinct(labels) -> list:
    """The distinct labels, ascending.

    Same as ``np.unique``, whose masked-array check imports ``numpy.ma``
    (about 1 MB of resident memory) into a process that needs nothing else
    from it.
    """
    return sorted(set(labels.tolist()))


def _class_test_counts(labels: np.ndarray, classes: np.ndarray, test_fraction: float):
    counts = {int(c): int((labels == c).sum()) for c in classes}
    total_test = int(round(labels.size * test_fraction))
    if total_test == 0:
        raise StratificationImpossible(
            f"test fraction {test_fraction} keeps no samples for testing"
        )
    testable = labels.size - len(counts)
    if total_test > testable:
        raise StratificationImpossible(
            f"test fraction {test_fraction} asks for {total_test} of {labels.size} samples "
            f"for testing, but keeping one training sample per class leaves at most {testable}"
        )
    quota = {c: m * test_fraction for c, m in counts.items()}
    take = {c: min(int(np.floor(q)), counts[c] - 1) for c, q in quota.items()}
    deficit = total_test - sum(take.values())
    by_remainder = sorted(quota, key=lambda c: (-(quota[c] - np.floor(quota[c])), c))
    while deficit > 0:
        for c in by_remainder:
            if deficit == 0:
                break
            if take[c] < counts[c] - 1:
                take[c] += 1
                deficit -= 1
    return take


def stratified_holdout(labels, test_fraction: float, repetitions: int, seed: int):
    """Draw repeated stratified train/test splits.

    The test set holds round(m * test_fraction) samples, allocated to
    classes by largest remainder so each class's test share stays within
    one sample of the target ratio; every class keeps at least one training
    sample, and a fraction that leaves no room for both raises
    :class:`StratificationImpossible`. Repetition r shuffles with the
    derived seed mix(seed, r), so the full plan list is a pure function of
    (labels, fraction, seed).
    """
    labels = np.asarray(labels)
    if not 0.0 < test_fraction < 1.0:
        raise InvalidArgument(f"test fraction must lie in (0, 1), got {test_fraction!r}")
    if type(repetitions) is not int or repetitions < 1:
        raise InvalidArgument(f"repetitions must be an integer of at least 1, got {repetitions!r}")
    classes = _distinct(labels)
    small = [int(c) for c in classes if (labels == c).sum() < 2]
    if small:
        raise StratificationImpossible(
            "every class needs at least 2 samples to stratify, class {} is smaller", small[0]
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


def stratified_kfold(train_labels, k: int, seed: int) -> list:
    """Partition indices into k stratified folds, as sorted ``(train, validation)`` pairs.

    The k validation folds are disjoint and exhaustive, and a class's count
    in any two of them differs by at most one; each fold trains on all the
    other indices. Each class's shuffled indices are dealt into k chunks
    whose sizes differ by at most one; the chunk-to-fold assignment is
    rotated by a random offset per class so no fold systematically collects
    the larger chunks.
    """
    train_labels = np.asarray(train_labels)
    if type(k) is not int or k < 2:
        raise InvalidArgument(f"k-fold needs an integer k of at least 2, got {k!r}")
    if type(seed) is not int or seed < 0:
        raise InvalidArgument(f"k-fold seed must be a non-negative integer, got {seed!r}")
    classes = _distinct(train_labels)
    members = [np.flatnonzero(train_labels == c) for c in classes]
    for c, idx in zip(classes, members):
        if idx.size < k:
            raise ClassSmallerThanK(
                f"class {{}} has {idx.size} sample{'s' * (idx.size > 1)}, fewer than k={k}", int(c)
            )
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for idx in members:
        perm = rng.permutation(idx)
        offset = int(rng.integers(k))
        for j, chunk in enumerate(np.array_split(perm, k)):
            folds[(j + offset) % k].append(chunk)
    folds = [np.sort(np.concatenate(parts)) for parts in folds]
    return [(np.sort(np.concatenate(folds[:j] + folds[j + 1 :])), folds[j]) for j in range(k)]


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

    def to_config(self, normalizer: str = "zscore", engine: str = "auto") -> PgmConfig:
        """Expand into a full fit configuration."""
        return PgmConfig(
            encoding=EncodingConfig(
                encoding=self.encoding, alpha=self.alpha, normalizer=normalizer
            ),
            copies=self.copies,
            prior_mode=self.prior_mode,
            engine=engine,
        )


def make_grid(
    encodings=ENCODINGS,
    alphas=DEFAULT_ALPHAS,
    copies=DEFAULT_COPIES,
    prior_mode: str = "uniform",
):
    """Enumerate grid points in canonical order: encoding, then alpha, then copies.

    List position defines the lexicographic order used for residual
    tie-breaking, so the same grid always resolves ties the same way. The
    values are kept as given: the configuration types check them.
    """
    return tuple(
        GridPoint(encoding=e, alpha=a, copies=n, prior_mode=prior_mode)
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


_CELL_ERRORS = (PgmError, np.linalg.LinAlgError)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


#: ``(features, labels)`` of the rows the grid tasks index: set by
#: :func:`_task_outcomes` before any worker is forked.
_worker_data = None


@contextmanager
def _task_outcomes(workers, features, labels, tasks):
    """Yield an iterator over the outcomes of ``tasks``, in task order.

    ``features`` and ``labels`` become :data:`_worker_data` for the block,
    which runs inside :func:`one_blas_thread`, so one grid search at a time
    owns the data and the thread count. When the BLAS is pinned, a single
    worker (from :func:`resolve_workers`) runs the tasks in this process,
    and more are forked from it, inheriting the data and the thread count,
    so their tasks carry only row indices. With a BLAS that cannot be
    pinned the tasks run in this process at its own thread count. Either
    way every task runs at one thread count, so the scores do not depend on
    the worker count. Leaving the block early drops the tasks not yet
    started. Not tested on Python 3.12 or later, which warn when a process
    with more than one thread forks; the fork context is asked for by name,
    so the ``forkserver`` default of 3.14 does not apply.
    """
    global _worker_data
    workers = resolve_workers(workers, len(tasks))
    with one_blas_thread() as pinned:
        _worker_data = (features, labels)
        try:
            if workers == 1 or not pinned:
                yield map(_evaluate_group, tasks)
            else:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context("fork")
                ) as pool:
                    try:
                        yield pool.map(_evaluate_group, tasks)
                    except BaseException:
                        pool.shutdown(cancel_futures=True)
                        raise
        finally:
            _worker_data = None


def _round_tie(x: float) -> float:
    # Python's round: np.round can differ from it in the last place.
    return float(round(x, SCORE_DECIMALS))


def _evaluate_group(task):
    """Validation outcomes of one (group, repetition, fold) task.

    ``task`` is ``(train_rows, val_rows, n_classes, config, copies)``: the
    fold's rows of the worker's data, the group's shared configuration and
    its copy counts. The fold is encoded once, then one gram measurement per
    copy count is built and scored. Returns one ``(value, scores, error)``
    per copy count. Module-level so that worker processes can unpickle it.
    """
    train_rows, val_rows, n_classes, config, copies = task
    features, labels = _worker_data
    val_y = labels[val_rows]
    try:
        train, priors, params = encode_training_set(
            features[train_rows], labels[train_rows], n_classes, config
        )
        val_states = encode(features[val_rows], config.encoding, params)
    except _CELL_ERRORS as exc:
        return [(None, None, _describe(exc))] * len(copies)
    outcomes = []
    for n in copies:
        try:
            model = build_gram_pgm(train, priors, n)
            scores = predict_batch(model, val_states)[1]
            value = ovr_aucs(scores, val_y, n_classes)[1]
            if value is None:
                outcomes.append((None, None, "validation AUC undefined for every class"))
            else:
                outcomes.append((value, scores, None))
        except _CELL_ERRORS as exc:
            outcomes.append((None, None, _describe(exc)))
    return outcomes


def _point_groups(grid, normalizer: str):
    """Grid indices grouped by shared encoding and prior mode, in grid order."""
    configs = [p.to_config(normalizer=normalizer) for p in grid]
    groups: dict = {}
    for gi, config in enumerate(configs):
        groups.setdefault((config.encoding, config.prior_mode), []).append(gi)
    return [(configs[members[0]], members) for members in groups.values()]


@dataclass(frozen=True, eq=False)
class _GridPlan:
    """One grid search: its point groups, its fold plan and its tasks.

    ``folds[r][j]`` is the ``(train, validation)`` pair of repetition r,
    fold j, as positions in the searched rows; repetition r deals its folds
    with the derived seed mix(seed, r), so the plan depends only on (labels,
    k, seed). The tasks, one per (group, repetition, fold), are in task
    order: groups, then repetitions, then folds.
    """

    grid: tuple
    groups: list
    folds: list
    tasks: list


def _plan_grid(rows, labels, n_classes, grid, *, k, cv_repetitions, seed, normalizer):
    """Plan a grid search over the data rows ``rows``, whose labels are
    ``labels``; the tasks index the data by those rows."""
    if not grid:
        raise InvalidArgument("grid must contain at least one point")
    if type(cv_repetitions) is not int or cv_repetitions < 1:
        raise InvalidArgument(f"cv_repetitions must be an integer of at least 1, got {cv_repetitions!r}")
    groups = _point_groups(grid, normalizer)
    folds = [stratified_kfold(labels, k, derive_seed(seed, r)) for r in range(cv_repetitions)]
    tasks = [
        (rows[tr], rows[val], n_classes, config, tuple(grid[gi].copies for gi in members))
        for config, members in groups
        for rep_pairs in folds
        for tr, val in rep_pairs
    ]
    return _GridPlan(grid, groups, folds, tasks)


def _rank_grid(plan: _GridPlan, outcomes):
    """Rank the points of ``plan`` from its task outcomes, taken in task
    order from the iterator ``outcomes``, which is advanced by exactly one
    item per task."""
    grid = plan.grid
    cv_repetitions, k = len(plan.folds), len(plan.folds[0])
    values = np.full((len(grid), cv_repetitions, k), np.nan)
    fold_scores = [[[None] * k for _ in range(cv_repetitions)] for _ in grid]
    errors: dict[int, str] = {}
    for _, members in plan.groups:
        for ri in range(cv_repetitions):
            for fi in range(k):
                for gi, (value, scores, error) in zip(members, next(outcomes)):
                    if error is not None:
                        errors.setdefault(gi, error)
                    else:
                        values[gi, ri, fi] = value
                        fold_scores[gi][ri][fi] = scores

    ranked_indices = [gi for gi in range(len(grid)) if gi not in errors]
    means = {gi: float(values[gi].mean(axis=1).mean()) for gi in ranked_indices}
    ranked_indices.sort(key=lambda gi: (-_round_tie(means[gi]), gi))
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
    workers: int | None = None,
):
    """Rank grid points by repeated stratified k-fold validation AUC.

    Every (grid point, repetition, fold) cell fits on the other folds and
    scores the validation fold; the point's mean averages folds within a
    repetition first. Fold plans depend only on (labels, k, seed), not on
    the grid, so all points see identical folds. Points sharing encoding,
    alpha and prior mode form a group: one task per (group, repetition,
    fold) encodes the fold once and then builds and scores one gram
    measurement per copy count. Tasks run on ``workers`` workers (default:
    one per usable core, at most one per task) under :func:`one_blas_thread`; see
    :func:`_task_outcomes`. Outcomes are reduced in task order, so the
    results do not depend on the worker count. Points whose any cell fails
    are excluded from the ranking and returned at the tail with the error.
    Ranked points keep their validation scores, so callers can derive
    further fold metrics without refitting.

    Returns a tuple of :class:`GridResult`, ranked entries first
    (descending mean, ties by grid order).
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    plan = _plan_grid(
        np.arange(labels.size), labels, n_classes, tuple(grid), k=k,
        cv_repetitions=cv_repetitions, seed=seed, normalizer=normalizer,
    )
    with _task_outcomes(workers, features, labels, plan.tasks) as outcomes:
        return _rank_grid(plan, outcomes)


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
    in means). Residual ties resolve to the smallest grid index. A winner
    index that is not an integer position of ``grid`` is refused.
    """
    winner_indices = tuple(winner_indices)
    test_aucs = tuple(test_aucs)
    if not winner_indices or len(winner_indices) != len(test_aucs):
        raise InvalidArgument(
            f"need matching nonempty winner and AUC lists, "
            f"got {len(winner_indices)} and {len(test_aucs)}"
        )
    grid = tuple(grid)
    for w in winner_indices:
        if isinstance(w, bool) or not isinstance(w, (int, np.integer)) or not 0 <= w < len(grid):
            raise InvalidArgument(f"winner index must be an integer in [0, {len(grid)}), got {w!r}")
    winner_indices = tuple(map(int, winner_indices))
    frequency = dict(Counter(winner_indices))
    mean_test_auc = {}
    for gi in sorted(frequency):
        own = [a for w, a in zip(winner_indices, test_aucs) if w == gi and a is not None]
        mean_test_auc[gi] = float(np.mean(own)) if own else None
    top = max(frequency.values())
    stage1 = tuple(sorted(gi for gi, f in frequency.items() if f == top))
    scored = {
        gi: _round_tie(mean_test_auc[gi]) if mean_test_auc[gi] is not None else -np.inf
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
    positive_class: int | None = None
    workers: int | None = None


@dataclass(frozen=True)
class SplitRecord:
    """Everything the protocol learned from one train/test split; ``excluded``
    holds ``(grid_index, first_error)`` of each point a failed cell left out."""

    repetition_id: int
    winner_index: int
    winner: GridPoint
    cv_objective: float
    cv_metrics: dict
    test_report: MetricReport
    excluded: tuple


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
    training part with ``config.engine``, and evaluate it on the test part;
    a ``dense`` engine and a grid point past the dense limit raise
    :class:`DenseBlowup` before any task runs. The winner's
    cross-validation metrics come from the validation scores its grid
    search already computed, with no refit: fold reports are averaged over
    folds, then over repetitions, before the final across-split
    aggregation; metrics undefined on some folds are averaged over the
    folds where they are defined. Any split whose every grid point fails
    aborts the protocol with a diagnostic naming the split.

    The tasks of every split's grid search run on one set of
    ``config.workers`` workers, as in :func:`grid_search`, and each split is
    ranked, refitted and evaluated as soon as its own tasks are done, so the
    parent holds about one split's validation scores at a time. The refits
    run inside the same :func:`one_blas_thread` block.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    splits = list(splits)
    if not splits:
        raise InvalidArgument("protocol needs at least one split")
    if config.engine == "dense" and features.ndim == 2:  # other shapes fail in every cell
        dim = features.shape[1] + 1
        for gi, point in enumerate(config.grid):
            if lifted_dimension(dim, point.copies) is None:
                raise DenseBlowup(
                    f"the dense engine cannot refit grid point {gi} (copies={point.copies}): "
                    f"dimension {dim}^{point.copies} exceeds the dense limit {DENSE_DIM_LIMIT}"
                )
    plans = []
    for split in splits:
        try:
            plans.append(_plan_grid(
                split.train_indices,
                labels[split.train_indices],
                n_classes,
                tuple(config.grid),
                k=config.k,
                cv_repetitions=config.cv_repetitions,
                seed=derive_seed(config.seed, split.repetition_id),
                normalizer=config.normalizer,
            ))
        except ClassSmallerThanK as exc:
            raise ClassSmallerThanK(f"split {split.repetition_id}: {exc.args[0]}", *exc.args[1:])
    tasks = [task for plan in plans for task in plan.tasks]
    records = []
    with _task_outcomes(config.workers, features, labels, tasks) as outcomes:
        for split, plan in zip(splits, plans):
            best, *rest = _rank_grid(plan, outcomes)
            if best.failed:
                raise PgmError(
                    f"split {split.repetition_id}: every grid point failed; "
                    f"first error: {best.error}"
                )
            tr, te = split.train_indices, split.test_indices
            fit_config = best.point.to_config(
                normalizer=config.normalizer, engine=config.engine
            )
            model = fit_pgm(features[tr], labels[tr], n_classes, fit_config)
            predicted, scores = predict_batch(model, features[te])
            test_report = report_from_predictions(
                labels[te], predicted, scores, n_classes, config.positive_class
            )
            rep_means = []
            for rep_pairs, rep_scores in zip(plan.folds, best.fold_scores):
                fold_metrics = [
                    report_from_predictions(
                        labels[tr[val_idx]],
                        labels_from_scores(val_scores),
                        val_scores,
                        n_classes,
                        config.positive_class,
                    ).flat()
                    for (_, val_idx), val_scores in zip(rep_pairs, rep_scores)
                ]
                rep_means.append(_aggregate(fold_metrics).mean)
            cv_metrics = _aggregate(rep_means).mean
            records.append(
                SplitRecord(
                    repetition_id=split.repetition_id,
                    winner_index=best.grid_index,
                    winner=best.point,
                    cv_objective=best.mean,
                    cv_metrics=cv_metrics,
                    test_report=test_report,
                    excluded=tuple((r.grid_index, r.error) for r in rest if r.failed),
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
