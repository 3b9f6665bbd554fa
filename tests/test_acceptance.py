"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line with the measured quantity next to its
pinned tolerance, so a verbose run doubles as a conformance report.
"""

import itertools
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner
from helpers import blob_features, random_instances, random_unit_states, write_dataset_csv

from pgmclassifier import (
    GridPoint,
    PgmConfig,
    ProtocolConfig,
    auc_ovr,
    default_grid,
    fit_pgm,
    make_grid,
    predict_batch,
    report_from_predictions,
    run_protocol,
    select_robust_config,
    stratified_holdout,
)
from pgmclassifier.cli import main
from pgmclassifier.errors import DenseBlowup
from pgmclassifier.metrics import accuracy, macro_accuracy, one_vs_rest_rates
from pgmclassifier.pgm import (
    LabeledStateSet,
    build_dense_pgm,
    build_gram_pgm,
    copies_centroid,
    quantum_centroid,
)

INSTANCES = random_instances(seed=20240814, count=100)


def test_criterion_01_povm_completeness():
    start = time.perf_counter()
    max_residual = 0.0
    min_eig = np.inf
    for train, copies, _ in INSTANCES:
        model = build_dense_pgm(train, copies=copies)
        dim = model.povm.shape[1]
        residual = np.abs(model.povm.sum(axis=0) - np.eye(dim)).max()
        max_residual = max(max_residual, residual)
        for effect in model.povm:
            min_eig = min(min_eig, np.linalg.eigvalsh(effect).min())
    elapsed = time.perf_counter() - start
    assert max_residual <= 1e-8
    assert min_eig >= -1e-8
    assert elapsed < 30.0
    print(
        f"criterion 1 PASS: {len(INSTANCES)} ensembles, completeness residual "
        f"{max_residual:.2e} <= 1e-08, min eigenvalue {min_eig:.2e} >= -1e-08, "
        f"{elapsed:.1f}s < 30s"
    )


def test_criterion_02_score_normalization():
    worst_sum = 0.0
    worst_neg = 0.0
    rng = np.random.default_rng(7)
    for train, copies, _ in INSTANCES:
        for build in (build_dense_pgm, build_gram_pgm):
            model = build(train, copies=copies)
            points = random_unit_states(rng, 50, train.dim)
            f = predict_batch(model, points)[1]
            worst_sum = max(worst_sum, np.abs(f.sum(axis=1) - 1.0).max())
            worst_neg = min(worst_neg, f.min())
    assert worst_sum <= 1e-8
    assert worst_neg >= -1e-10
    print(
        f"criterion 2 PASS: score sums within {worst_sum:.2e} of 1 (<= 1e-08), "
        f"most negative score {worst_neg:.2e} >= -1e-10"
    )


def test_criterion_03_engine_equivalence():
    rng = np.random.default_rng(8)
    worst = 0.0
    for train, copies, _ in INSTANCES:
        dense = build_dense_pgm(train, copies=copies)
        gram = build_gram_pgm(train, copies=copies)
        points = random_unit_states(rng, 20, train.dim)
        diff = np.abs(predict_batch(dense, points)[1] - predict_batch(gram, points)[1]).max()
        worst = max(worst, diff)
    assert worst <= 1e-8
    print(
        f"criterion 3 PASS: dense vs Gram max score difference {worst:.2e} <= 1e-08 "
        f"over {len(INSTANCES)} instances"
    )


def test_criterion_04_two_state_optimality():
    worked = LabeledStateSet(
        states=np.array([[1.0, 0.0], [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]]),
        labels=np.array([0, 1]),
        n_classes=2,
    )
    model = build_dense_pgm(worked)
    f = predict_batch(model, worked.states)[1]
    worked_success = 0.5 * f[0, 0] + 0.5 * f[1, 1]
    assert abs(worked_success - 0.8535533906) <= 1e-10

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        states = random_unit_states(rng, 2, d)
        train = LabeledStateSet(states=states, labels=np.array([0, 1]), n_classes=2)
        f = predict_batch(build_dense_pgm(train), states)[1]
        success = 0.5 * f[0, 0] + 0.5 * f[1, 1]
        gamma = float(states[0] @ states[1])
        optimal = 0.5 * (1.0 + np.sqrt(1.0 - gamma**2))
        worst = max(worst, abs(success - optimal))
    assert worst <= 1e-10
    print(
        f"criterion 4 PASS: worked two-state instance {worked_success:.10f} "
        f"(= 0.8535533906 +/- 1e-10); 50 random pairs within {worst:.2e} of the "
        f"closed form (<= 1e-10)"
    )


def test_criterion_05_orthogonal_perfect_discrimination():
    states = np.eye(6)
    labels = np.array([0, 0, 1, 1, 2, 2])
    train = LabeledStateSet(states=states, labels=labels, n_classes=3)
    for build in (build_dense_pgm, build_gram_pgm):
        model = build(train)
        predicted, scores = predict_batch(model, states)
        np.testing.assert_array_equal(predicted, labels)
        report = report_from_predictions(labels, predicted, scores, 3)
        assert report.accuracy == 1.0
        assert report.per_class_auc == (1.0, 1.0, 1.0)
    print(
        "criterion 5 PASS: orthogonal ensemble classified with 0 training errors "
        "and per-class AUC = 1 on both engines"
    )


def test_criterion_06_tensor_copy_inequality():
    states = np.eye(2)
    lifted = copies_centroid(states, 2)
    np.testing.assert_array_equal(lifted, np.diag([0.5, 0.0, 0.0, 0.5]))
    tensor_square = np.kron(quantum_centroid(states), quantum_centroid(states))
    np.testing.assert_array_equal(tensor_square, np.eye(4) / 4.0)
    gap = np.abs(lifted - tensor_square).max()
    assert gap == 0.25
    print(
        "criterion 6 PASS: two-copy centroid diag(1/2,0,0,1/2) differs elementwise "
        f"from the tensor-squared centroid I/4 (max gap {gap})"
    )


def test_criterion_07_gram_scalability():
    rng = np.random.default_rng(10)
    features = rng.normal(size=(300, 30))
    labels = np.repeat(np.arange(3), 100)
    config = PgmConfig(copies=60)
    start = time.perf_counter()
    model = fit_pgm(features, labels, 3, config)
    predicted, scores = predict_batch(model, rng.normal(size=(100, 30)))
    elapsed = time.perf_counter() - start
    assert model.engine == "gram"
    assert predicted.shape == (100,)
    assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-8
    assert elapsed < 10.0
    with pytest.raises(DenseBlowup):
        fit_pgm(features, labels, 3, PgmConfig(copies=60, engine="dense"))
    print(
        f"criterion 7 PASS: Gram engine fitted 300x30 at 60 copies and scored 100 "
        f"samples in {elapsed:.2f}s < 10s; dense engine refused with DenseBlowup"
    )


def test_criterion_08_protocol_determinism(tmp_path):
    features, labels = blob_features(4.0, 100, seed=55)
    names = np.array(["a", "b", "c"])[labels]
    dataset = write_dataset_csv(tmp_path / "synthetic.csv", features, names)
    runner = CliRunner()
    splits_path = tmp_path / "splits.json"
    result = runner.invoke(
        main,
        [
            "splits",
            str(dataset),
            "--test-fraction",
            "0.2",
            "--repetitions",
            "2",
            "--seed",
            "14",
            "--out",
            str(splits_path),
        ],
        catch_exceptions=False,
    )
    assert result.exit_code == 0

    outputs = {}
    for run, workers in (("w1", "1"), ("w4", "4"), ("w4_again", "4")):
        out = tmp_path / f"report_{run}.json"
        out_csv = tmp_path / f"report_{run}.csv"
        result = runner.invoke(
            main,
            [
                "gridsearch",
                str(dataset),
                str(splits_path),
                "--grid",
                "encodings=stereographic,amplitude;alphas=0.5,1;copies=1,2",
                "--k",
                "3",
                "--cv-reps",
                "1",
                "--seed",
                "21",
                "--out",
                str(out),
                "--out-csv",
                str(out_csv),
            ],
            env={"PGM_WORKERS": workers},
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output + result.stderr
        outputs[run] = (out.read_bytes(), out_csv.read_bytes())
    assert outputs["w1"] == outputs["w4"]
    assert outputs["w4"] == outputs["w4_again"]
    assert json.loads(outputs["w1"][0].decode())["kind"] == "protocol"
    print(
        "criterion 8 PASS: gridsearch reports on 300 samples are byte-identical "
        "across worker counts 1 and 4 and across reruns (JSON and CSV)"
    )


def test_criterion_09_synthetic_performance():
    config = ProtocolConfig(
        seed=7,
        grid=make_grid(alphas=(0.25, 0.5), copies=(1, 8, 16)),
        k=5,
        cv_repetitions=2,
    )

    features, labels = blob_features(4.0, 150)
    splits = stratified_holdout(labels, 0.2, 10, seed=99)
    separated = run_protocol(features, labels, 3, splits, config)
    macro_acc = separated.test_aggregate.mean["macro_accuracy"]
    macro_auc = separated.test_aggregate.mean["macro_auc"]
    assert len(separated.records) == 10
    assert macro_acc >= 0.95
    assert macro_auc >= 0.99

    collapsed_features, collapsed_labels = blob_features(0.0, 150)
    collapsed_splits = stratified_holdout(collapsed_labels, 0.2, 10, seed=99)
    collapsed = run_protocol(
        collapsed_features, collapsed_labels, 3, collapsed_splits, config
    )
    chance = collapsed.test_aggregate.mean["accuracy"]
    assert abs(chance - 0.34) <= 0.05
    print(
        f"criterion 9 PASS: separated blobs reach macro-accuracy {macro_acc:.4f} "
        f">= 0.95 and macro-AUC {macro_auc:.4f} >= 0.99 over 10 splits; collapsed "
        f"blobs score {chance:.4f} (within 0.34 +/- 0.05)"
    )


def brute_force_auc(scores, membership):
    pos = scores[membership]
    neg = scores[~membership]
    total = 0.0
    for p, q in itertools.product(pos, neg):
        if p > q:
            total += 1.0
        elif p == q:
            total += 0.5
    return total / (len(pos) * len(neg))


def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 31))
        alphabet = rng.normal(size=int(rng.integers(1, 9)))
        scores = rng.choice(alphabet, size=n)
        membership = rng.integers(0, 2, size=n).astype(bool)
        if membership.all() or not membership.any():
            continue
        assert auc_ovr(scores, membership) == brute_force_auc(scores, membership)
        checked += 1

    rates = one_vs_rest_rates(np.array([[6, 4], [2, 8]]), 0)
    assert rates.precision == 0.75
    assert rates.recall == 0.6
    assert rates.specificity == 0.8
    assert abs(rates.f1 - 2.0 / 3.0) <= 1e-15
    cm_balanced = np.array([[8, 2], [4, 6]])
    assert accuracy(cm_balanced) == 0.7
    assert macro_accuracy(cm_balanced) == 0.7
    cm_skewed = np.array([[9, 1], [5, 0]])
    assert accuracy(cm_skewed) == 0.6
    assert macro_accuracy(cm_skewed) == 0.45
    print(
        "criterion 10 PASS: rank AUC equals brute-force pair counting exactly on "
        f"{checked} random sets; binary-rate and accuracy hand fixtures match"
    )


def test_criterion_11_grid_fidelity():
    grid = default_grid()
    assert len(grid) == 156
    expected = [
        GridPoint(encoding=e, alpha=a, copies=n)
        for e in ("stereographic", "amplitude")
        for a in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        for n in (1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60)
    ]
    assert list(grid) == expected

    majority = select_robust_config([0, 0, 1], [0.9, 0.7, 0.99], grid)
    assert majority.chosen_index == 0
    tiebreak = select_robust_config([0, 1], [0.7, 0.8], grid)
    assert tiebreak.chosen_index == 1
    full_tie = select_robust_config([5, 2], [0.8, 0.8], grid)
    assert full_tie.chosen_index == 2
    print(
        "criterion 11 PASS: default grid enumerates exactly the 2x6x13 = 156 "
        "configurations in canonical order; selection fixtures follow "
        "frequency, then mean test AUC, then grid order"
    )
