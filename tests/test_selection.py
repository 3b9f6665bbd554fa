import os

import numpy as np
import pytest
from helpers import blob_features, peak_allocation

from pgmclassifier import (
    GridPoint,
    PgmError,
    ProtocolConfig,
    auc_ovr,
    default_grid,
    fit_pgm,
    grid_search,
    make_grid,
    predict_batch,
    report_from_predictions,
    run_protocol,
    select_robust_config,
    stratified_holdout,
)
from pgmclassifier.errors import ClassSmallerThanK, StratificationImpossible
from pgmclassifier import selection
from pgmclassifier.selection import _resolve_workers, derive_seed, stratified_kfold


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_distinct_over_indices(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_over_masters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_fits_in_64_bits(self):
        for i in range(100):
            assert 0 <= derive_seed(2**63, i) < 2**64


class TestStratifiedHoldout:
    def test_balanced_counts(self):
        labels = np.array([0] * 10 + [1] * 10)
        plans = stratified_holdout(labels, 0.2, 3, seed=5)
        for plan in plans:
            assert plan.test_indices.size == 4
            assert (labels[plan.test_indices] == 0).sum() == 2
            assert (labels[plan.test_indices] == 1).sum() == 2

    def test_largest_remainder_allocation(self):
        labels = np.array([0] * 72 + [1] * 71)
        plans = stratified_holdout(labels, 0.2, 2, seed=9)
        for plan in plans:
            assert plan.test_indices.size == 29
            assert (labels[plan.test_indices] == 0).sum() == 15
            assert (labels[plan.test_indices] == 1).sum() == 14

    def test_disjoint_and_exhaustive(self):
        labels = np.array([0, 1, 2] * 9)
        for plan in stratified_holdout(labels, 0.3, 4, seed=1):
            merged = np.concatenate([plan.train_indices, plan.test_indices])
            np.testing.assert_array_equal(np.sort(merged), np.arange(labels.size))
            assert np.array_equal(plan.test_indices, np.sort(plan.test_indices))

    def test_deterministic_and_seed_sensitive(self):
        labels = np.array([0] * 15 + [1] * 15)
        a = stratified_holdout(labels, 0.2, 5, seed=3)
        b = stratified_holdout(labels, 0.2, 5, seed=3)
        c = stratified_holdout(labels, 0.2, 5, seed=4)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.test_indices, pb.test_indices)
        assert any(
            not np.array_equal(pa.test_indices, pc.test_indices)
            for pa, pc in zip(a, c)
        )

    def test_repetitions_differ(self):
        labels = np.array([0] * 20 + [1] * 20)
        plans = stratified_holdout(labels, 0.25, 10, seed=0)
        distinct = {tuple(p.test_indices) for p in plans}
        assert len(distinct) > 1

    def test_every_class_keeps_training_sample(self):
        labels = np.array([0] * 2 + [1] * 18)
        for plan in stratified_holdout(labels, 0.5, 3, seed=8):
            assert (labels[plan.train_indices] == 0).sum() >= 1
            assert (labels[plan.train_indices] == 1).sum() >= 1

    def test_single_member_class_rejected(self):
        with pytest.raises(StratificationImpossible):
            stratified_holdout(np.array([0, 1, 1, 1]), 0.25, 1, seed=0)

    def test_empty_test_set_rejected(self):
        with pytest.raises(StratificationImpossible):
            stratified_holdout(np.array([0] * 5 + [1] * 5), 0.01, 1, seed=0)

    def test_fraction_bounds(self):
        labels = np.array([0] * 5 + [1] * 5)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                stratified_holdout(labels, bad, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_holdout(labels, 0.2, 0, seed=0)


class TestStratifiedKfold:
    def test_per_fold_class_counts(self):
        labels = np.array([0] * 10 + [1] * 5)
        plan = stratified_kfold(labels, 5, seed=2)
        for fold in plan.folds:
            assert (labels[fold] == 0).sum() == 2
            assert (labels[fold] == 1).sum() == 1

    def test_partition(self):
        labels = np.array([0] * 13 + [1] * 9)
        plan = stratified_kfold(labels, 4, seed=6)
        merged = np.sort(np.concatenate(plan.folds))
        np.testing.assert_array_equal(merged, np.arange(labels.size))

    def test_fold_sizes_within_one_per_class(self):
        labels = np.array([0] * 13 + [1] * 9)
        plan = stratified_kfold(labels, 4, seed=6)
        for c in (0, 1):
            sizes = [(labels[f] == c).sum() for f in plan.folds]
            assert max(sizes) - min(sizes) <= 1

    def test_splits_complement(self):
        labels = np.array([0] * 8 + [1] * 8)
        plan = stratified_kfold(labels, 4, seed=1)
        for train, val in plan.splits():
            assert np.intersect1d(train, val).size == 0
            merged = np.sort(np.concatenate([train, val]))
            np.testing.assert_array_equal(merged, np.arange(labels.size))

    def test_deterministic(self):
        labels = np.array([0] * 9 + [1] * 6)
        a = stratified_kfold(labels, 3, seed=7)
        b = stratified_kfold(labels, 3, seed=7)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)

    def test_k_validation(self):
        labels = np.array([0] * 6 + [1] * 6)
        with pytest.raises(ValueError):
            stratified_kfold(labels, 1, seed=0)
        with pytest.raises(ClassSmallerThanK):
            stratified_kfold(np.array([0] * 10 + [1] * 3), 4, seed=0)

    def test_huge_k_refused_before_any_fold_is_allocated(self):
        labels = np.array([0] * 6 + [1] * 6)

        def refuse():
            with pytest.raises(ClassSmallerThanK, match="fewer than k=1000000"):
                stratified_kfold(labels, 10**6, seed=0)

        assert peak_allocation(refuse) < 2**20


class TestGrid:
    def test_default_grid_size(self):
        assert len(default_grid()) == 156

    def test_canonical_order(self):
        grid = default_grid()
        assert grid[0] == GridPoint("stereographic", 0.5, 1)
        assert grid[1] == GridPoint("stereographic", 0.5, 5)
        assert grid[13] == GridPoint("stereographic", 1.0, 1)
        assert grid[78] == GridPoint("amplitude", 0.5, 1)
        assert grid[155] == GridPoint("amplitude", 16.0, 60)

    def test_make_grid_respects_arguments(self):
        grid = make_grid(encodings=("amplitude",), alphas=(2.0,), copies=(1, 3))
        assert grid == (
            GridPoint("amplitude", 2.0, 1),
            GridPoint("amplitude", 2.0, 3),
        )

    def test_to_config_carries_fields(self):
        config = GridPoint("amplitude", 4.0, 3).to_config(normalizer="minmax")
        assert config.encoding.encoding == "amplitude"
        assert config.encoding.alpha == 4.0
        assert config.encoding.normalizer == "minmax"
        assert config.copies == 3


def small_blob_problem():
    features, labels = blob_features(4.0, 30, seed=77)
    return features, labels


def assert_same_fold_scores(a, b):
    """Two grid results hold bit-identical validation scores."""
    assert len(a.fold_scores) == len(b.fold_scores)
    for rep_a, rep_b in zip(a.fold_scores, b.fold_scores):
        assert len(rep_a) == len(rep_b)
        for scores_a, scores_b in zip(rep_a, rep_b):
            np.testing.assert_array_equal(scores_a, scores_b)


class TestGridSearch:
    def test_single_point_ranks_first(self):
        features, labels = small_blob_problem()
        grid = make_grid(encodings=("stereographic",), alphas=(1.0,), copies=(1,))
        results = grid_search(
            features, labels, 3, grid, k=3, cv_repetitions=2, seed=21
        )
        assert len(results) == 1
        assert results[0].rank == 0
        assert results[0].grid_index == 0
        assert not results[0].failed

    def test_duplicate_points_tie_to_first(self):
        features, labels = small_blob_problem()
        point = GridPoint("stereographic", 1.0, 1)
        results = grid_search(
            features, labels, 3, (point, point), k=3, cv_repetitions=2, seed=21
        )
        assert results[0].mean == results[1].mean
        assert results[0].grid_index == 0
        assert results[1].grid_index == 1

    def test_separated_blobs_reach_high_auc(self):
        features, labels = small_blob_problem()
        grid = make_grid(alphas=(0.5, 1.0), copies=(1, 4))
        results = grid_search(
            features, labels, 3, grid, k=3, cv_repetitions=2, seed=5
        )
        assert results[0].mean >= 0.99

    def test_mean_aggregates_folds_then_repetitions(self):
        features, labels = small_blob_problem()
        grid = make_grid(encodings=("amplitude",), alphas=(1.0,), copies=(2,))
        results = grid_search(
            features, labels, 3, grid, k=3, cv_repetitions=4, seed=13
        )
        values = results[0].values
        assert values.shape == (4, 3)
        assert results[0].mean == pytest.approx(
            values.mean(axis=1).mean(), abs=1e-12
        )

    def test_ranking_descends(self):
        features, labels = small_blob_problem()
        grid = make_grid(alphas=(0.5, 16.0), copies=(1, 8))
        results = grid_search(
            features, labels, 3, grid, k=3, cv_repetitions=2, seed=3
        )
        means = [r.mean for r in results if not r.failed]
        assert means == sorted(means, reverse=True)
        ranks = [r.rank for r in results if not r.failed]
        assert ranks == list(range(len(ranks)))

    def test_worker_count_does_not_change_results(self):
        features, labels = small_blob_problem()
        grid = make_grid(alphas=(0.5, 1.0), copies=(1, 2))
        runs = [
            grid_search(
                features, labels, 3, grid, k=3, cv_repetitions=2, seed=17, workers=w
            )
            for w in (1, 3)
        ]
        for a, b in zip(*runs):
            assert a.grid_index == b.grid_index
            assert a.mean == b.mean
            np.testing.assert_array_equal(a.values, b.values)
            assert_same_fold_scores(a, b)

    @pytest.mark.parametrize("d", [2, 4])
    def test_worker_count_does_not_change_results_at_blas_sensitive_size(self, d):
        # Fold-train m = 300. At this size OpenBLAS's eigh returns different
        # bits at one and at two threads (up to 7.6e-11 in the amplitude
        # copies-15 scores at d=2), so the scores agree across worker counts
        # only if every count computes with the same BLAS thread count.
        features, labels = blob_features(1.5, 125, d=d, seed=8)
        grid = make_grid(alphas=(0.5,), copies=(1, 5, 15))
        runs = [
            grid_search(
                features, labels, 3, grid, k=5, cv_repetitions=1, seed=4,
                engine="gram", workers=w,
            )
            for w in (1, 2, 3)
        ]
        assert runs[0][0].fold_scores[0][0].shape[0] == 75
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert (a.grid_index, a.rank) == (b.grid_index, b.rank)
                np.testing.assert_array_equal(a.values, b.values)
                assert_same_fold_scores(a, b)

    @pytest.mark.parametrize("engine", ["gram", "auto"])
    def test_matches_explicit_per_cell_loop(self, engine):
        features, labels = small_blob_problem()
        # d=2 lifts to 3^n dimensions: under auto, copies 1 and 2 fit dense
        # and copies 9 fits gram within the same (encoding, alpha) group.
        grid = make_grid(alphas=(0.5, 2.0), copies=(1, 2, 9))
        results = grid_search(
            features, labels, 3, grid, k=3, cv_repetitions=2, seed=23, engine=engine
        )
        engines = set()
        for result in results:
            config = result.point.to_config(engine=engine)
            expected = np.empty((2, 3))
            for r in range(2):
                plan = stratified_kfold(labels, 3, derive_seed(23, r))
                for j, (train_idx, val_idx) in enumerate(plan.splits()):
                    model = fit_pgm(features[train_idx], labels[train_idx], 3, config)
                    engines.add(model.engine)
                    _, scores = predict_batch(model, features[val_idx])
                    np.testing.assert_array_equal(result.fold_scores[r][j], scores)
                    expected[r, j] = np.mean(
                        [auc_ovr(scores[:, i], labels[val_idx] == i) for i in range(3)]
                    )
            np.testing.assert_array_equal(result.values, expected)
        assert engines == ({"gram"} if engine == "gram" else {"dense", "gram"})

    def check_infeasible_point_marked_failed(self, workers):
        features, labels = small_blob_problem()
        good = GridPoint("stereographic", 1.0, 1)
        bad = GridPoint("stereographic", 1.0, 8)
        results = grid_search(
            features, labels, 3, (bad, good), k=3, cv_repetitions=1, seed=11,
            engine="dense", workers=workers,
        )
        assert results[0].grid_index == 1
        assert not results[0].failed
        assert results[1].grid_index == 0
        assert results[1].failed
        assert results[1].rank is None
        assert results[1].fold_scores is None
        assert "DenseBlowup" in results[1].error

    def test_infeasible_point_marked_failed(self):
        self.check_infeasible_point_marked_failed(workers=1)

    def test_infeasible_point_marked_failed_with_two_workers(self):
        # The error is raised in one of two children and still marks only
        # its point.
        self.check_infeasible_point_marked_failed(workers=2)

    def test_spawn_fallback_matches_pinned_path(self, monkeypatch):
        # Same BLAS-sensitive problem as above: without a BLAS thread control,
        # spawned workers with one BLAS thread each must give the bits that the
        # in-process and forked workers of the pinned path give.
        features, labels = blob_features(1.5, 125, d=2, seed=8)
        grid = make_grid(alphas=(0.5,), copies=(1, 5, 15))

        def run(workers):
            return grid_search(
                features, labels, 3, grid, k=5, cv_repetitions=1, seed=4,
                engine="gram", workers=workers,
            )

        pinned = [run(w) for w in (1, 2)]
        spawned = selection._spawned_outcomes
        spawned_counts = []

        def counting(workers, *args):
            spawned_counts.append(workers)
            return spawned(workers, *args)

        monkeypatch.setattr(selection, "_openblas_thread_functions", lambda: None)
        monkeypatch.setattr(selection, "_spawned_outcomes", counting)
        fallback = [run(w) for w in (1, 2)]
        assert spawned_counts == [1, 2]
        assert selection._worker_data is None
        for other in pinned[1:] + fallback:
            for a, b in zip(pinned[0], other):
                assert (a.grid_index, a.rank) == (b.grid_index, b.rank)
                np.testing.assert_array_equal(a.values, b.values)
                assert_same_fold_scores(a, b)

    def test_validation(self):
        features, labels = small_blob_problem()
        with pytest.raises(ValueError):
            grid_search(features, labels, 3, (), seed=1)
        with pytest.raises(ValueError):
            grid_search(
                features, labels, 3, default_grid()[:1], cv_repetitions=0, seed=1
            )


class TestResolveWorkers:
    def test_default_is_usable_core_count(self, monkeypatch, tmp_path):
        monkeypatch.setattr(selection, "_CGROUP_CPU_MAX", str(tmp_path / "missing"))
        cores = len(os.sched_getaffinity(0))
        assert _resolve_workers(None, 60) == min(cores, 60)
        assert _resolve_workers(None, 1) == 1

    @pytest.mark.parametrize(
        "content, cpus",
        [
            ("150000 100000\n", 2),
            ("100000 100000\n", 1),
            ("1 100000\n", 1),
            ("800000 100000\n", 8),
            ("max 100000\n", None),
            ("", None),
            ("abc 100000\n", None),
            ("100000\n", None),
            ("100000 100000 1\n", None),
            ("0 100000\n", None),
            ("-1 100000\n", None),
            ("100000 0\n", None),
        ],
    )
    def test_cgroup_quota(self, monkeypatch, tmp_path, content, cpus):
        cpu_max = tmp_path / "cpu.max"
        cpu_max.write_text(content)
        monkeypatch.setattr(selection, "_CGROUP_CPU_MAX", str(cpu_max))
        assert selection._quota_cpus() == cpus

    def test_missing_cgroup_file_is_no_quota(self, monkeypatch, tmp_path):
        monkeypatch.setattr(selection, "_CGROUP_CPU_MAX", str(tmp_path / "missing"))
        assert selection._quota_cpus() is None

    @pytest.mark.parametrize("quota_cpus", [1, 2, 3, 64])
    def test_default_is_capped_by_cgroup_quota(self, monkeypatch, tmp_path, quota_cpus):
        cpu_max = tmp_path / "cpu.max"
        cpu_max.write_text(f"{quota_cpus * 100000} 100000\n")
        monkeypatch.setattr(selection, "_CGROUP_CPU_MAX", str(cpu_max))
        cores = len(os.sched_getaffinity(0))
        assert _resolve_workers(None, 60) == min(cores, quota_cpus)
        assert _resolve_workers(None, 1) == 1
        assert _resolve_workers(3, 60) == 3

    def test_explicit_count_kept(self):
        assert _resolve_workers(2, 60) == 2

    def test_clamped_to_task_count(self):
        assert _resolve_workers(64, 3) == 3
        assert _resolve_workers(8, 1) == 1


class TestBlasThreads:
    def test_sets_and_restores_thread_count(self):
        functions = selection._openblas_thread_functions()
        if functions is None:
            pytest.skip("numpy's BLAS exports no thread control")
        get, set_ = functions
        before = get()
        try:
            set_(2)
            with selection._blas_threads(1) as pinned:
                assert pinned
                assert get() == 1
            assert get() == 2
        finally:
            set_(before)

    def test_restores_thread_count_on_error(self):
        functions = selection._openblas_thread_functions()
        if functions is None:
            pytest.skip("numpy's BLAS exports no thread control")
        get, _ = functions
        before = get()
        with pytest.raises(KeyError):
            with selection._blas_threads(1):
                raise KeyError("x")
        assert get() == before

    def test_without_thread_control_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(selection, "_openblas_thread_functions", lambda: None)
        with selection._blas_threads(1) as pinned:
            assert pinned is False


class TestSelectRobustConfig:
    GRID = make_grid(encodings=("stereographic",), alphas=(0.5, 1.0), copies=(1,))

    def test_majority_wins(self):
        report = select_robust_config([0, 0, 1], [0.9, 0.8, 0.99], self.GRID)
        assert report.chosen_index == 0
        assert report.frequency == {0: 2, 1: 1}
        assert report.tied_after_frequency == (0,)
        assert report.chosen == self.GRID[0]

    def test_frequency_tie_breaks_on_test_auc(self):
        report = select_robust_config([0, 1], [0.7, 0.8], self.GRID)
        assert report.tied_after_frequency == (0, 1)
        assert report.chosen_index == 1
        assert report.mean_test_auc == {0: 0.7, 1: 0.8}

    def test_full_tie_takes_smallest_index(self):
        report = select_robust_config([1, 0], [0.8, 0.8], self.GRID)
        assert report.tied_after_auc == (0, 1)
        assert report.chosen_index == 0

    def test_mean_auc_over_winning_splits_only(self):
        report = select_robust_config([0, 1, 0], [0.6, 0.9, 0.8], self.GRID)
        assert report.mean_test_auc[0] == pytest.approx(0.7)
        assert report.mean_test_auc[1] == pytest.approx(0.9)
        assert report.chosen_index == 0

    def test_none_auc_loses_tiebreak(self):
        report = select_robust_config([0, 1], [None, 0.5], self.GRID)
        assert report.chosen_index == 1
        assert report.mean_test_auc[0] is None

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            select_robust_config([0, 1], [0.5], self.GRID)
        with pytest.raises(ValueError):
            select_robust_config([], [], self.GRID)


def mean_ignoring_none(dicts):
    """Per key, the mean over the dicts where the value is not None (else None)."""
    out = {}
    for key in dicts[0]:
        defined = [d[key] for d in dicts if d[key] is not None]
        out[key] = float(np.mean(defined)) if defined else None
    return out


def tiny_protocol_config(**overrides):
    base = dict(
        seed=7,
        grid=make_grid(encodings=("stereographic",), alphas=(0.5, 1.0), copies=(1,)),
        k=3,
        cv_repetitions=1,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


class TestRunProtocol:
    def test_single_split_matches_direct_evaluation(self):
        features, labels = small_blob_problem()
        splits = stratified_holdout(labels, 0.2, 1, seed=40)
        config = tiny_protocol_config(
            grid=make_grid(encodings=("stereographic",), alphas=(1.0,), copies=(2,))
        )
        result = run_protocol(features, labels, 3, splits, config)
        record = result.records[0]
        assert record.winner_index == 0
        tr, te = splits[0].train_indices, splits[0].test_indices
        model = fit_pgm(
            features[tr], labels[tr], 3, config.grid[0].to_config()
        )
        predicted, scores = predict_batch(model, features[te])
        oracle = report_from_predictions(labels[te], predicted, scores, 3)
        assert record.test_report.accuracy == oracle.accuracy
        assert record.test_report.macro_auc == oracle.macro_auc
        assert result.test_aggregate.mean["accuracy"] == oracle.accuracy
        assert result.test_aggregate.std["accuracy"] == 0.0
        assert result.test_aggregate.count["accuracy"] == 1

    def test_identical_splits_have_zero_std(self):
        features, labels = small_blob_problem()
        split = stratified_holdout(labels, 0.2, 1, seed=12)[0]
        result = run_protocol(
            features, labels, 3, [split, split], tiny_protocol_config()
        )
        for metric, value in result.test_aggregate.std.items():
            if value is not None:
                assert value == 0.0, metric

    def test_test_rows_do_not_influence_training(self):
        features, labels = small_blob_problem()
        splits = stratified_holdout(labels, 0.2, 2, seed=50)
        config = tiny_protocol_config()
        baseline = run_protocol(features, labels, 3, splits, config)
        common = np.intersect1d(splits[0].test_indices, splits[1].test_indices)
        if common.size == 0:
            pytest.skip("splits share no test rows to perturb")
        perturbed_features = features.copy()
        perturbed_features[common] += 123.456
        shifted = run_protocol(perturbed_features, labels, 3, splits, config)
        for a, b in zip(baseline.records, shifted.records):
            assert a.winner_index == b.winner_index
            assert a.cv_objective == b.cv_objective
            assert a.cv_metrics == b.cv_metrics

    def test_reproducible(self):
        features, labels = small_blob_problem()
        splits = stratified_holdout(labels, 0.25, 3, seed=2)
        config = tiny_protocol_config()
        a = run_protocol(features, labels, 3, splits, config)
        b = run_protocol(features, labels, 3, splits, config)
        assert a.selection.chosen_index == b.selection.chosen_index
        assert a.test_aggregate.mean == b.test_aggregate.mean
        assert a.cv_aggregate.mean == b.cv_aggregate.mean
        for ra, rb in zip(a.records, b.records):
            assert ra.winner_index == rb.winner_index
            assert ra.test_report.flat() == rb.test_report.flat()

    def test_selection_consistent_with_records(self):
        features, labels = small_blob_problem()
        splits = stratified_holdout(labels, 0.2, 4, seed=33)
        result = run_protocol(features, labels, 3, splits, tiny_protocol_config())
        recomputed = select_robust_config(
            [r.winner_index for r in result.records],
            [r.test_report.macro_auc for r in result.records],
            result.grid,
        )
        assert result.selection.chosen_index == recomputed.chosen_index
        assert result.selection.frequency == recomputed.frequency

    def test_all_points_failing_aborts_with_split_id(self):
        features, labels = small_blob_problem()
        splits = stratified_holdout(labels, 0.2, 1, seed=3)
        config = tiny_protocol_config(
            grid=make_grid(encodings=("stereographic",), alphas=(1.0,), copies=(8,)),
            engine="dense",
        )
        with pytest.raises(PgmError, match="split 0"):
            run_protocol(features, labels, 3, splits, config)

    @pytest.mark.parametrize("n_classes, positive_class", [(3, None), (2, 1)])
    def test_cv_metrics_match_explicit_two_stage_loop(self, n_classes, positive_class):
        features, labels = small_blob_problem()
        # Shuffled rows, so a fold's true labels depend on which rows it holds.
        order = np.random.default_rng(5).permutation(labels.size)
        order = order[labels[order] < n_classes]
        features, labels = features[order], labels[order]
        splits = stratified_holdout(labels, 0.2, 2, seed=31)
        # Under auto, copies 1 and 2 fit dense and copies 9 fits gram.
        config = tiny_protocol_config(
            grid=make_grid(alphas=(0.5, 2.0), copies=(1, 2, 9)),
            cv_repetitions=2,
            engine="auto",
            positive_class=positive_class,
        )
        result = run_protocol(features, labels, n_classes, splits, config)
        for split, record in zip(splits, result.records):
            tr = split.train_indices
            fit_config = record.winner.to_config(engine="auto")
            cv_seed = derive_seed(config.seed, split.repetition_id)
            rep_means = []
            for r in range(config.cv_repetitions):
                plan = stratified_kfold(labels[tr], config.k, derive_seed(cv_seed, r))
                folds = []
                for train_idx, val_idx in plan.splits():
                    model = fit_pgm(
                        features[tr][train_idx], labels[tr][train_idx], n_classes, fit_config
                    )
                    predicted, scores = predict_batch(model, features[tr][val_idx])
                    folds.append(
                        report_from_predictions(
                            labels[tr][val_idx], predicted, scores, n_classes, positive_class
                        ).flat()
                    )
                rep_means.append(mean_ignoring_none(folds))
            assert record.cv_metrics == mean_ignoring_none(rep_means)

    def test_one_fit_per_split(self, monkeypatch):
        features, labels = small_blob_problem()
        splits = stratified_holdout(labels, 0.2, 3, seed=8)
        calls = []
        real_fit = selection.fit_pgm

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(selection, "fit_pgm", counting_fit)
        config = tiny_protocol_config(cv_repetitions=2)
        run_protocol(features, labels, 3, splits, config)
        assert len(calls) == len(splits)

    def test_requires_splits(self):
        features, labels = small_blob_problem()
        with pytest.raises(ValueError):
            run_protocol(features, labels, 3, [], tiny_protocol_config())
