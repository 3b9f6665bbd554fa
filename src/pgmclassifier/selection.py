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
tasks, computed with one BLAS thread whatever the number of workers, are
reduced in task order so results do not depend on the worker count.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from contextlib import contextmanager
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
from .pgm import (
    SCORE_DECIMALS,
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
    classes = _distinct(labels)
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
    classes = _distinct(train_labels)
    members = [np.flatnonzero(train_labels == c) for c in classes]
    for c, idx in zip(classes, members):
        if idx.size < k:
            raise ClassSmallerThanK(
                f"class {int(c)} has {idx.size} samples, fewer than k={k}"
            )
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for idx in members:
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


#: Thread-count variables of the BLAS builds numpy may load, set to 1 in the
#: environment of spawned workers (see :func:`_spawned_outcomes`).
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The thread-count getter and setter that the OpenBLAS bundled with numpy's
#: wheels exports.
_OPENBLAS_THREAD_FUNCTIONS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_set_num_threads64_",
)


@functools.cache
def _openblas_thread_functions():
    """``(get, set)`` thread-count functions of the BLAS numpy's ``eigh``
    calls, or None when that BLAS does not export them (MKL, Accelerate, a
    system BLAS). The symbols are looked up through numpy's linear-algebra
    extension, whose library search covers the BLAS it is linked to, so the
    functions control that copy and no other. Looked up on the first call,
    so importing the package does not do it."""
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        get, set_ = (getattr(lib, name) for name in _OPENBLAS_THREAD_FUNCTIONS)
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


@contextmanager
def _blas_threads(n: int):
    """Run the block with numpy's BLAS set to ``n`` threads, restoring the
    previous count on exit. Yields whether the count could be set; when it
    cannot, nothing is changed and the block runs with False."""
    functions = _openblas_thread_functions()
    if functions is None:
        yield False
        return
    get, set_ = functions
    previous = get()
    set_(n)
    try:
        yield True
    finally:
        set_(previous)


#: cgroup v2 CPU quota of the process's cgroup: ``"<quota> <period>"`` in
#: microseconds, or ``"max <period>"`` for none. Inside a container's cgroup
#: namespace this file is the container's own.
_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _quota_cpus() -> int | None:
    """CPUs the cgroup v2 quota allows, ``ceil(quota / period)``; None when
    there is no quota or the file is missing or malformed."""
    try:
        with open(_CGROUP_CPU_MAX, encoding="ascii") as fh:
            quota, period = fh.read().split()
        if quota == "max":
            return None
        quota, period = int(quota), int(period)
    except (OSError, ValueError):
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


def _resolve_workers(workers, n_tasks: int) -> int:
    """Worker count for ``n_tasks`` tasks: ``workers``, by default one per
    usable core, and at most one per task. Usable cores are those of the CPU
    affinity mask, capped by a cgroup v2 CPU quota (:func:`_quota_cpus`)."""
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            workers = os.cpu_count() or 1
        workers = min(workers, _quota_cpus() or workers)
    return max(1, min(int(workers), n_tasks))


#: ``(features, labels)`` of the rows the grid tasks index: set by
#: :func:`_task_outcomes` before any worker is forked, or in a spawned
#: worker by the pool's initializer.
_worker_data = None


def _receive_data(features, labels):
    global _worker_data
    _worker_data = (features, labels)


@contextmanager
def _task_outcomes(workers, features, labels, tasks):
    """Yield an iterator over the outcomes of ``tasks``, in task order.

    Every score is computed with one BLAS thread, whatever the worker count,
    so the scores do not depend on it: grid tasks are serial ``eigh`` calls
    on small matrices, where more threads only contend for the cores the
    other workers use. When :func:`_blas_threads` can set numpy's OpenBLAS,
    the calling process is pinned to one thread for the whole block, and
    ``features`` and ``labels`` become :data:`_worker_data`. Then a single
    worker (from :func:`_resolve_workers`) runs the tasks in this process,
    and more workers are forked from it, so they inherit both the data and
    the pinned thread count and their tasks carry only row indices. Any
    other BLAS takes :func:`_spawned_outcomes`. The process machinery is
    imported only when a pool starts, so importing the package does not
    load it. The data and the thread count are process-wide, so two threads
    must not run grid searches at once.

    Not tested on Python 3.12 or later: those versions warn
    (``DeprecationWarning``) when a process with more than one thread
    forks, and OpenBLAS keeps its helper thread alive while pinned. The
    ``forkserver`` default start method of 3.14 does not apply, since the
    fork context is asked for by name.
    """
    global _worker_data
    workers = _resolve_workers(workers, len(tasks))
    with _blas_threads(1) as pinned:
        if not pinned:
            with _spawned_outcomes(workers, features, labels, tasks) as outcomes:
                yield outcomes
            return
        _worker_data = (features, labels)
        try:
            if workers == 1:
                yield map(_evaluate_group, tasks)
            else:
                with _pool_outcomes(workers, "fork", tasks) as outcomes:
                    yield outcomes
        finally:
            _worker_data = None


@contextmanager
def _spawned_outcomes(workers, features, labels, tasks):
    """:func:`_task_outcomes` where the BLAS thread count cannot be set from
    within the process: the tasks run in ``workers`` spawned processes, a
    single worker included, and each receives ``features`` and ``labels``
    once, at start-up. A spawned child imports numpy while it re-imports the
    parent's main module, before any initializer could run, so the thread
    variables are set in the environment it inherits, and the parent's
    values are restored once the pool is shut down. This re-import is why a
    script calling :func:`grid_search` needs a ``__main__`` guard here.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with _pool_outcomes(
            workers, "spawn", tasks, initializer=_receive_data, initargs=(features, labels)
        ) as outcomes:
            yield outcomes
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@contextmanager
def _pool_outcomes(workers, start_method, tasks, **pool_options):
    """Yield the outcomes of ``tasks`` from a pool of ``workers`` processes
    started by ``start_method``; leaving the block early drops the tasks not
    yet started."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context(start_method), **pool_options
    ) as pool:
        try:
            yield pool.map(_evaluate_group, tasks)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _round_tie(x: float) -> float:
    # Python's round: np.round can differ from it in the last place.
    return float(round(x, SCORE_DECIMALS))


def _evaluate_group(task):
    """Validation outcomes of one (group, repetition, fold) task.

    ``task`` is ``(train_rows, val_rows, n_classes, config, copies)``: the
    fold's rows of the worker's data, the group's shared configuration and
    its copy counts. The fold is encoded once, then one measurement per copy
    count is built and scored. Returns one ``(value, scores, error)`` per
    copy count. Module-level so that worker processes can unpickle it.
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
            model = build_pgm(train, priors, n, config.engine)
            scores = score_states(model, val_states)
            value = _macro_validation_auc(scores, val_y, n_classes)
            if value is None:
                outcomes.append((None, None, "validation AUC undefined for every class"))
            else:
                outcomes.append((value, scores, None))
        except _CELL_ERRORS as exc:
            outcomes.append((None, None, _describe(exc)))
    return outcomes


def _point_groups(grid, normalizer: str, engine: str):
    """Grid indices grouped by shared encoding and prior mode, in grid order."""
    configs = [p.to_config(normalizer=normalizer, engine=engine) for p in grid]
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


def _plan_grid(rows, labels, n_classes, grid, *, k, cv_repetitions, seed, normalizer, engine):
    """Plan a grid search over the data rows ``rows``, whose labels are
    ``labels``; the tasks index the data by those rows."""
    if not grid:
        raise ValueError("grid must contain at least one point")
    if cv_repetitions < 1:
        raise ValueError(f"need at least one repetition, got {cv_repetitions!r}")
    groups = _point_groups(grid, normalizer, engine)
    folds = [
        list(stratified_kfold(labels, k, derive_seed(seed, r)).splits())
        for r in range(cv_repetitions)
    ]
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
    engine: str = "auto",
    workers: int | None = None,
):
    """Rank grid points by repeated stratified k-fold validation AUC.

    Every (grid point, repetition, fold) cell fits on the other folds and
    scores the validation fold; the point's mean averages folds within a
    repetition first. Fold plans depend only on (labels, k, seed), not on
    the grid, so all points see identical folds. Points sharing encoding,
    alpha and prior mode form a group: one task per (group, repetition,
    fold) encodes the fold once and then builds and scores one measurement
    per copy count. Tasks run on ``workers`` workers (default: one per
    usable core, at most one per task), each with one BLAS thread: with
    numpy's bundled OpenBLAS, one worker runs them in this process and more
    are forked from it; with any other BLAS, every worker is a spawned
    process, and a script calling this must then guard its top level with
    ``if __name__ == "__main__":`` (see :func:`_task_outcomes`). Outcomes
    are reduced in task order, so the results do not depend on the worker
    count. Points whose any cell fails are excluded from the ranking and
    returned at the tail with the error. Ranked points keep their
    validation scores, so callers can derive further fold metrics without
    refitting.

    Returns a tuple of :class:`GridResult`, ranked entries first
    (descending mean, ties by grid order).
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    plan = _plan_grid(
        np.arange(labels.size), labels, n_classes, tuple(grid), k=k,
        cv_repetitions=cv_repetitions, seed=seed, normalizer=normalizer, engine=engine,
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

    The tasks of every split's grid search run on one set of
    ``config.workers`` workers, as in :func:`grid_search` (with the same
    ``__main__`` guard on the spawn fallback), and each split is ranked,
    refitted and evaluated as soon as its own tasks are done, so the parent
    holds about one split's validation scores at a time. The refits run
    while the workers do, so with numpy's OpenBLAS they too use one BLAS
    thread.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    splits = list(splits)
    if not splits:
        raise ValueError("protocol needs at least one split")
    plans = [
        _plan_grid(
            split.train_indices,
            labels[split.train_indices],
            n_classes,
            tuple(config.grid),
            k=config.k,
            cv_repetitions=config.cv_repetitions,
            seed=derive_seed(config.seed, split.repetition_id),
            normalizer=config.normalizer,
            engine=config.engine,
        )
        for split in splits
    ]
    tasks = [task for plan in plans for task in plan.tasks]
    records = []
    with _task_outcomes(config.workers, features, labels, tasks) as outcomes:
        for split, plan in zip(splits, plans):
            best = _rank_grid(plan, outcomes)[0]
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
