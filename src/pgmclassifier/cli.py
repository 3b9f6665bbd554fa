"""Command-line interface: splits, gridsearch, train, predict, evaluate, compare.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 for data
or consistency errors (malformed or unreadable files, unwritable outputs,
fingerprint mismatches, schema violations, infeasible requests). An option
value that click's ranges or the configuration types refuse (``--k`` below
2, a NaN alpha) exits 1 before any input is read. ``auto`` fits dense
while (d+1)^copies <= 4096, gram past it. Randomness needs an explicit
--seed, so identical inputs give byte-identical outputs on one machine at
one BLAS thread count, and grid-search reports at any PGM_WORKERS
(default: one per usable core); README.md ("Command-line interface") has
the details.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from .dataio import (
    Dataset,
    check_splits,
    evaluation_csv_rows,
    evaluation_report_dict,
    features_for_model,
    load_dataset,
    load_model,
    protocol_csv_rows,
    protocol_report_dict,
    read_evaluation,
    read_splits,
    save_model,
    write_json,
    write_long_csv,
    write_predictions_csv,
    write_splits,
)
from .encoding import ENCODINGS, NORMALIZERS
from .errors import (
    ClassSetMismatch,
    DatasetFormatError,
    EmptyEvaluation,
    PgmError,
    SchemaMismatch,
)
from .metrics import metric_difference, report_from_predictions, win_loss
from .pgm import ENGINES, MAX_COPIES, PRIOR_MODES, fit_pgm, predict_batch
from .selection import (
    DEFAULT_ALPHAS,
    DEFAULT_COPIES,
    GridPoint,
    ProtocolConfig,
    make_grid,
    run_protocol,
    stratified_holdout,
)

# The exit-code contract reserves 1 for usage errors; click defaults to 2.
click.UsageError.exit_code = 1

#: Largest deviation from 1 accepted in a saved model's score row sum.
_SCORE_SUM_TOL = 1e-8


#: Parameters of the commands that name a file the command writes.
_OUTPUT_OPTIONS = ("out", "out_csv", "out_model")


def _check_output_dirs(kwargs) -> None:
    """Refuse an empty output path, or one whose directory does not exist, before any work."""
    for name in _OUTPUT_OPTIONS:
        path = kwargs.get(name)
        if path == "":
            option = "--" + name.replace("_", "-")
            raise click.BadParameter("the path is empty", param_hint=f"'{option}'")
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise PgmError(f"{path}: output directory does not exist")


def _data_errors(func):
    """Check the command's output directories, then run it, translating
    library data/consistency errors into exit code 2."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            _check_output_dirs(kwargs)
            return func(*args, **kwargs)
        except PgmError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _require_labels(dataset: Dataset, label_column: str) -> None:
    if dataset.classes is None:
        raise DatasetFormatError(f"{dataset.path}: no label column {label_column!r}")


def _require_trainable(dataset: Dataset, label_column: str) -> None:
    _require_labels(dataset, label_column)
    if dataset.n_classes < 2:
        raise DatasetFormatError(
            f"{dataset.path}: training needs at least 2 distinct labels, "
            f"got {dataset.n_classes}"
        )


def _positive_index(positive_class: str | None, classes) -> int | None:
    if positive_class is None:
        return None
    if len(classes) != 2:
        raise click.UsageError(
            f"--positive-class applies to 2-class data, got {len(classes)} classes"
        )
    if positive_class not in classes:
        raise click.UsageError(
            f"unknown positive class {positive_class!r}, expected one of {list(classes)}"
        )
    return classes.index(positive_class)


def _predict_saved(model_file, model, features):
    """``predict_batch``, refusing score rows that are not probability distributions.

    Every fitted model scores rows that are finite and sum to 1 within
    :data:`_SCORE_SUM_TOL`; a model file edited after saving may not.
    """
    predicted, scores = predict_batch(model, features)
    bad = np.flatnonzero(~(np.abs(scores.sum(axis=1) - 1.0) <= _SCORE_SUM_TOL))
    if bad.size:
        raise SchemaMismatch(
            f"{model_file}: the scores of dataset row {bad[0] + 1} sum to "
            f"{float(scores[bad[0]].sum())!r}, not 1; the model is inconsistent"
        )
    return predicted, scores


def _workers_from_env() -> int | None:
    raw = os.environ.get("PGM_WORKERS")
    if raw is None:
        return None
    try:
        workers = int(raw)
        if workers < 1:
            raise ValueError
    except ValueError:
        raise click.UsageError(f"PGM_WORKERS must be a positive integer, got {raw!r}")
    return workers


def _parse_grid(raw: str | None):
    """Parse 'encodings=a,b;alphas=...;copies=...' into value lists; None = default.

    Only the value types are checked here; the configuration types check the values.
    """
    dims = {"encodings": ENCODINGS, "alphas": DEFAULT_ALPHAS, "copies": DEFAULT_COPIES}
    types = {"encodings": str, "alphas": float, "copies": int}
    for part in filter(None, (p.strip() for p in (raw or "").split(";"))):
        key, sep, values = part.partition("=")
        key = key.strip()
        if not sep or key not in dims:
            raise click.UsageError(
                f"bad grid dimension {part!r}: expected 'encodings=...;alphas=...;copies=...'"
            )
        items = [v.strip() for v in values.split(",") if v.strip()]
        if not items:
            raise click.UsageError(f"grid dimension {key!r} is empty")
        try:
            dims[key] = [types[key](v) for v in items]
        except ValueError as exc:
            raise click.UsageError(f"bad grid dimension {key!r}: {exc}")
    return dims["encodings"], dims["alphas"], dims["copies"]


def _usage_errors(build, *args):
    """``build(*args)``, reporting a value that a configuration type refuses as a usage error."""
    try:
        return build(*args)
    except (PgmError, ValueError) as exc:
        raise click.UsageError(str(exc)) from None


@click.group()
def main():
    """Pretty-good-measurement classifier and experiment harness."""


@main.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", default="label", show_default=True)
@click.option(
    "--test-fraction",
    type=click.FloatRange(0, 1, min_open=True, max_open=True),
    default=0.2,
    show_default=True,
)
@click.option("--repetitions", type=click.IntRange(min=1), default=30, show_default=True)
@click.option("--seed", type=int, required=True, help="Master seed; mandatory.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_data_errors
def splits(dataset, label_column, test_fraction, repetitions, seed, out):
    """Draw repeated stratified train/test splits and write a split file."""
    if math.isnan(test_fraction):  # click's range comparisons let NaN through
        raise click.BadParameter("nan is not in the range 0<x<1.", param_hint="'--test-fraction'")
    data = load_dataset(dataset, label_column)
    _require_trainable(data, label_column)
    plans = stratified_holdout(data.label_indices, test_fraction, repetitions, seed)
    write_splits(
        out,
        plans,
        fingerprint=data.fingerprint,
        test_fraction=test_fraction,
        seed=seed,
    )
    click.echo(f"dataset: {data.n_samples} rows, {data.n_classes} classes")
    test_labels = data.label_indices[plans[0].test_indices]
    for i, name in enumerate(data.classes):
        total = int((data.label_indices == i).sum())
        in_test = int((test_labels == i).sum())
        click.echo(f"class {name}: {total} samples, {in_test} in each test set")
    click.echo(f"wrote {len(plans)} repetitions to {out}")


@main.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.argument("splits_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", default="label", show_default=True)
@click.option("--grid", "grid_string", default=None, help="e.g. 'encodings=amplitude;alphas=0.5,1;copies=1,5'")
@click.option("--k", type=click.IntRange(min=2), default=5, show_default=True)
@click.option("--cv-reps", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--priors", type=click.Choice(PRIOR_MODES), default="uniform", show_default=True)
@click.option("--normalizer", type=click.Choice(NORMALIZERS), default="zscore", show_default=True)
@click.option("--engine", type=click.Choice(ENGINES), default="auto", show_default=True)
@click.option("--positive-class", default=None)
@click.option("--seed", type=int, required=True, help="Master seed; mandatory.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--out-csv", type=click.Path(dir_okay=False), default=None)
@_data_errors
def gridsearch(
    dataset,
    splits_file,
    label_column,
    grid_string,
    k,
    cv_reps,
    priors,
    normalizer,
    engine,
    positive_class,
    seed,
    out,
    out_csv,
):
    """Run the full protocol: per-split grid search, evaluation, selection."""
    grid = make_grid(*_parse_grid(grid_string), prior_mode=priors)
    for point in grid:
        _usage_errors(point.to_config, normalizer, engine)
    workers = _workers_from_env()
    data = load_dataset(dataset, label_column)
    _require_trainable(data, label_column)
    splits_data = read_splits(splits_file)
    check_splits(splits_data, data)
    positive = _positive_index(positive_class, data.classes)
    config = ProtocolConfig(
        seed=seed,
        grid=grid,
        k=k,
        cv_repetitions=cv_reps,
        normalizer=normalizer,
        engine=engine,
        positive_class=positive,
        workers=workers,
    )
    result = run_protocol(
        data.features, data.label_indices, data.n_classes, splits_data.plans, config
    )
    report = protocol_report_dict(
        result,
        data.classes,
        dataset_fingerprint=data.fingerprint,
        seed=seed,
        positive_name=positive_class,
    )
    write_json(out, report)
    if out_csv is not None:
        write_long_csv(out_csv, protocol_csv_rows(result, data.classes))
    chosen = result.selection.chosen
    wins = result.selection.frequency[result.selection.chosen_index]
    click.echo(
        f"chosen configuration: encoding={chosen.encoding} alpha={chosen.alpha:g} "
        f"copies={chosen.copies} (won {wins}/{len(result.records)} splits)"
    )
    mean = result.test_aggregate.mean
    std = result.test_aggregate.std
    for metric in ("accuracy", "macro_accuracy", "macro_auc"):
        if mean.get(metric) is not None:
            click.echo(f"test {metric}: {mean[metric]:.4f} +/- {std[metric]:.4f}")
    click.echo(f"wrote report to {out}")


@main.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", default="label", show_default=True)
@click.option("--encoding", type=click.Choice(ENCODINGS), default="stereographic", show_default=True)
@click.option("--alpha", type=float, default=1.0, show_default=True)
@click.option("--copies", type=click.IntRange(1, MAX_COPIES), default=1, show_default=True)
@click.option("--normalizer", type=click.Choice(NORMALIZERS), default="zscore", show_default=True)
@click.option("--priors", type=click.Choice(PRIOR_MODES), default="uniform", show_default=True)
@click.option("--engine", type=click.Choice(ENGINES), default="auto", show_default=True)
@click.option("--out-model", type=click.Path(dir_okay=False), required=True)
@_data_errors
def train(dataset, label_column, encoding, alpha, copies, normalizer, priors, engine, out_model):
    """Fit a classifier on a labeled dataset and persist it."""
    point = GridPoint(encoding, alpha, copies, priors)
    config = _usage_errors(point.to_config, normalizer, engine)
    data = load_dataset(dataset, label_column)
    _require_trainable(data, label_column)
    model = fit_pgm(data.features, data.label_indices, data.n_classes, config)
    save_model(out_model, model, data.classes, data.feature_names)
    click.echo(
        f"trained {model.engine} model on {data.n_samples} samples "
        f"({data.n_classes} classes, {len(data.feature_names)} features)"
    )
    click.echo(f"wrote model to {out_model}")


@main.command()
@click.argument("model_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", default="label", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_data_errors
def predict(model_file, dataset, label_column, out):
    """Classify every dataset row; write labels and per-class scores."""
    loaded = load_model(model_file)
    data = load_dataset(dataset, label_column)
    features = features_for_model(data, loaded.feature_columns)
    predicted, scores = _predict_saved(model_file, loaded.model, features)
    names = [loaded.classes[i] for i in predicted]
    write_predictions_csv(out, names, scores, loaded.classes)
    click.echo(f"wrote {len(names)} predictions to {out}")


@main.command()
@click.argument("model_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
@click.option("--label-column", default="label", show_default=True)
@click.option("--positive-class", default=None)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--out-csv", type=click.Path(dir_okay=False), default=None)
@_data_errors
def evaluate(model_file, dataset, label_column, positive_class, out, out_csv):
    """Score a labeled dataset with a saved model and report all metrics."""
    loaded = load_model(model_file)
    data = load_dataset(dataset, label_column)
    _require_labels(data, label_column)
    if data.n_samples == 0:
        raise EmptyEvaluation(f"{dataset}: no rows to evaluate")
    class_index = {name: i for i, name in enumerate(loaded.classes)}
    unknown = sorted(set(data.classes) - set(loaded.classes))
    if unknown:
        raise ClassSetMismatch(
            f"{data.path}: dataset label {unknown[0]!r} is not among model classes "
            f"{list(loaded.classes)}"
        )
    positive = _positive_index(positive_class, loaded.classes)
    to_model = np.array([class_index[name] for name in data.classes], dtype=np.int64)
    true = to_model[data.label_indices]
    features = features_for_model(data, loaded.feature_columns)
    predicted, scores = _predict_saved(model_file, loaded.model, features)
    report = report_from_predictions(
        true, predicted, scores, len(loaded.classes), positive
    )
    write_json(
        out,
        evaluation_report_dict(
            report,
            loaded.classes,
            dataset_fingerprint=data.fingerprint,
            model=loaded.model,
            positive_name=positive_class,
        ),
    )
    if out_csv is not None:
        write_long_csv(out_csv, evaluation_csv_rows(report, loaded.classes))
    click.echo(f"evaluated {report.n_samples} samples")
    click.echo(f"accuracy: {report.accuracy:.4f}")
    click.echo(f"macro accuracy: {report.macro_accuracy:.4f}")
    if report.macro_auc is not None:
        click.echo(f"macro AUC: {report.macro_auc:.4f}")
    click.echo(f"wrote report to {out}")


@main.command()
@click.argument("report_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("report_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_data_errors
def compare(report_a, report_b, out):
    """Emit the win-loss matrix and metric differences of two evaluations."""
    auc_a, flat_a = read_evaluation(report_a)
    auc_b, flat_b = read_evaluation(report_b)
    name_a = Path(report_a).stem
    name_b = Path(report_b).stem
    if name_a == name_b:
        name_a, name_b = f"{name_a}_a", f"{name_b}_b"
    wl = win_loss({name_a: auc_a, name_b: auc_b})
    diff = metric_difference(flat_a, flat_b)
    rows = [
        ("win_loss", wl.names[a], wl.names[b], float(wl.matrix[a, b]))
        for a in range(len(wl.names))
        for b in range(len(wl.names))
        if a != b
    ]
    rows += [
        ("difference", metric, "", None if value is None else float(value))
        for metric, value in diff.items()
    ]
    write_long_csv(out, rows, header=("table", "row", "column", "value"))
    win_ab = wl.matrix[0, 1]
    win_ba = wl.matrix[1, 0]
    click.echo(f"{name_a} beats {name_b} on {win_ab:.0%} of classes; reverse {win_ba:.0%}")
    click.echo(f"wrote comparison to {out}")


if __name__ == "__main__":
    main()
