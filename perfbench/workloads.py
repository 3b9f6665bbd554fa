"""Benchmark workloads: seeded inputs, ``pgm`` command lines, correctness gates.

Every input is a pure function of the workload seed; the program only ever
sees the generated files. Each workload prepares its inputs once per run
(including any untimed ``pgm`` commands that make split files or models),
names the inputs its set-up probe loads, lists the timed commands, and
checks their outputs. The checks import the package under test, so they run
outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pgmclassifier.dataio import features_for_model, load_dataset, load_model, read_splits
from pgmclassifier.encoding import EncodingConfig
from pgmclassifier.pgm import PgmConfig, fit_pgm, predict_batch
from pgmclassifier.selection import GridPoint

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

#: The CLI's default grid (2 encodings x 6 alphas x 13 copy counts).
DEFAULT_GRID_POINTS = 156

#: Paper-shaped data: 143 rows, 4 features on unrelated scales, two
#: overlapping classes at about 1:2.
PAPER_CLASSES = ("control", "relapse")
PAPER_COUNTS = (95, 48)
_PAPER_OFFSET = np.array([0.0, 60.0, 1.0, 900.0])
_PAPER_SCALE = np.array([1.0, 12.0, 0.05, 150.0])
_PAPER_SHIFT = np.array([0.9, -0.6, 0.7, 0.5])

REPORT_TOL = 1e-9
SCORE_SUM_TOL = 1e-8
ENGINE_TOL = 1e-8


def _rng(seed: int, stream: int):
    return np.random.default_rng([int(seed), stream])


def write_csv(path, features, labels, classes) -> None:
    """Write a labeled dataset CSV with columns f0.. and ``label``."""
    header = [f"f{i}" for i in range(features.shape[1])] + ["label"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row, label in zip(features.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + "," + classes[label] + "\n")


def paper_data(rng, labels):
    """Features for the given 0/1 labels; class 1 is shifted on every feature."""
    z = rng.normal(size=(labels.size, 4)) + _PAPER_SHIFT * labels[:, None]
    return _PAPER_OFFSET + _PAPER_SCALE * z


def write_paper_csv(path, seed: int) -> np.ndarray:
    rng = _rng(seed, 1)
    labels = rng.permutation(np.repeat([0, 1], PAPER_COUNTS))
    write_csv(path, paper_data(rng, labels), labels, PAPER_CLASSES)
    return labels


def write_bulk_csv(path, seed: int, rows: int) -> np.ndarray:
    """Rows from the paper-shaped distribution, classes at the same ratio."""
    rng = _rng(seed, 2)
    labels = (rng.random(rows) < PAPER_COUNTS[1] / sum(PAPER_COUNTS)).astype(np.int64)
    write_csv(path, paper_data(rng, labels), labels, PAPER_CLASSES)
    return labels


def write_blobs_csv(path, seed: int, per_class: int, side: float = 4.0) -> np.ndarray:
    """Three unit-sigma Gaussian blobs in 2-d at pairwise distance ``side``."""
    rng = _rng(seed, 3)
    centers = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * math.sqrt(3) / 2]])
    features = np.vstack([rng.normal(c, 1.0, (per_class, 2)) for c in centers])
    labels = np.repeat(np.arange(3), per_class)
    write_csv(path, features, labels, ("c0", "c1", "c2"))
    return labels


@dataclass(frozen=True)
class Command:
    """One timed ``pgm`` command: a label, its arguments, the files it writes."""

    label: str
    args: tuple
    outputs: tuple


class Workload:
    """Base of the workloads; subclasses fill in inputs, commands and checks.

    ``workers`` is the ``PGM_WORKERS`` value the commands see (None: unset).
    ``min_reps`` is the least number of timed repetitions per run.
    """

    name: str
    why: str
    workers: str | None = None
    min_reps: int = 1

    def prepare(self, work: Path, seed: int, run_pgm) -> None:
        """Write the inputs into ``work``; ``run_pgm(args)`` runs untimed commands."""
        raise NotImplementedError

    def setup_inputs(self) -> list:
        """``KIND=PATH`` items for the set-up probe, relative to a rep directory.

        The probe runs after the timed repetitions, so it may load outputs of
        the first one (``../rep0/...``).
        """
        raise NotImplementedError

    def commands(self) -> list:
        raise NotImplementedError

    def rates(self, walls: dict) -> dict:
        """Throughput metrics from per-command wall seconds: name -> (value, unit)."""
        return {}

    def check(self, work: Path, rep: Path) -> dict:
        """Gate one repetition's outputs: command label -> list of failures."""
        raise NotImplementedError


def _missing(rep: Path, command: Command) -> list:
    return [f"{name} was not written" for name in command.outputs if not (rep / name).is_file()]


def _pair_auc(scores, positive) -> float:
    """AUC by counting pairs, ties worth one half."""
    p = scores[positive][:, None]
    q = scores[~positive][None, :]
    return float(((p > q).sum() + 0.5 * (p == q).sum()) / (p.size * q.size))


def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


class Protocol(Workload):
    """``pgm gridsearch`` over seeded data and split files made by ``pgm splits``."""

    def __init__(
        self,
        name,
        why,
        *,
        data,
        splits,
        grid=None,
        k=5,
        cv_reps=10,
        engine="auto",
        workers=None,
        data_size=None,
        pinned=True,
    ):
        self.name = name
        self.why = why
        self.data = data
        self.splits = splits
        self.grid = grid
        self.k = k
        self.cv_reps = cv_reps
        self.engine = engine
        self.workers = workers
        self.data_size = data_size
        self.pinned = pinned
        # Two repetitions per run, so report bytes can be compared.
        self.min_reps = 2
        if grid is None:
            self.grid_points = DEFAULT_GRID_POINTS
        else:
            self.grid_points = math.prod(
                len(part.split("=", 1)[1].split(",")) for part in grid.split(";")
            )

    def prepare(self, work, seed, run_pgm):
        self.seed = seed
        if self.data == "paper":
            write_paper_csv(work / "data.csv", seed)
        else:
            write_blobs_csv(work / "data.csv", seed, self.data_size)
        run_pgm(
            [
                "splits", "data.csv", "--test-fraction", "0.2",
                "--repetitions", str(self.splits), "--seed", str(seed),
                "--out", "splits.json",
            ]
        )

    def setup_inputs(self):
        return ["dataset=../data.csv", "splits=../splits.json"]

    def commands(self):
        args = ["gridsearch", "../data.csv", "../splits.json"]
        if self.grid is not None:
            args += ["--grid", self.grid]
        if self.k != 5:
            args += ["--k", str(self.k)]
        args += ["--cv-reps", str(self.cv_reps)]
        if self.engine != "auto":
            args += ["--engine", self.engine]
        args += ["--seed", str(self.seed), "--out", "report.json", "--out-csv", "report.csv"]
        return [Command("gridsearch", tuple(args), ("report.json", "report.csv"))]

    @property
    def cells(self) -> int:
        return self.grid_points * self.k * self.cv_reps * self.splits

    def rates(self, walls):
        return {"cells_per_s": (self.cells / walls["gridsearch"], "cells/s")}

    def check(self, work, rep):
        (command,) = self.commands()
        failures = _missing(rep, command)
        if not failures:
            failures = self._check_report(work, rep)
        return {"gridsearch": failures}

    def _check_report(self, work, rep) -> list:
        failures = []
        report = json.loads((rep / "report.json").read_text(encoding="utf-8"))
        config = report["config"]
        expected = {
            "k": self.k,
            "cv_repetitions": self.cv_reps,
            "engine": self.engine,
            "grid points": self.grid_points,
            "splits": self.splits,
        }
        actual = {
            "k": config["k"],
            "cv_repetitions": config["cv_repetitions"],
            "engine": config["engine"],
            "grid points": len(config["grid"]),
            "splits": len(report["splits"]),
        }
        for key, value in expected.items():
            if actual[key] != value:
                failures.append(f"report {key} is {actual[key]!r}, expected {value!r}")
        with open(rep / "report.csv", encoding="utf-8") as fh:
            if next(csv.reader(fh), None) != ["split", "metric", "class", "value"]:
                failures.append("report.csv header is wrong")
        if failures:
            return failures

        # Refit each split's winner and recount its test metrics independently.
        dataset = load_dataset(work / "data.csv")
        plans = {plan.repetition_id: plan for plan in read_splits(work / "splits.json").plans}
        classes = dataset.classes
        accuracies, macro_aucs = [], []
        for record in report["splits"]:
            plan = plans[record["repetition"]]
            point = GridPoint(**record["winner"])
            if config["grid"][record["winner_index"]] != record["winner"]:
                failures.append(f"split {plan.repetition_id}: winner is not its grid point")
            fit_config = point.to_config(normalizer=config["normalizer"], engine=config["engine"])
            tr, te = plan.train_indices, plan.test_indices
            model = fit_pgm(
                dataset.features[tr], dataset.label_indices[tr], len(classes), fit_config
            )
            predicted, scores = predict_batch(model, dataset.features[te])
            truth = dataset.label_indices[te]
            accuracy = float(np.mean(predicted == truth))
            aucs = [_pair_auc(scores[:, i], truth == i) for i in range(len(classes))]
            metrics = record["test_metrics"]
            if not _close(metrics["accuracy"], accuracy, REPORT_TOL):
                failures.append(
                    f"split {plan.repetition_id}: test accuracy {metrics['accuracy']!r}, "
                    f"recount {accuracy!r}"
                )
            for name, auc in zip(classes, aucs):
                reported = metrics["per_class"][name]["auc"]
                if not _close(reported, auc, REPORT_TOL):
                    failures.append(
                        f"split {plan.repetition_id}: AUC of {name} {reported!r}, recount {auc!r}"
                    )
            accuracies.append(accuracy)
            macro_aucs.append(float(np.mean(aucs)))
        mean = report["aggregate"]["test"]["mean"]
        for key, values in (("accuracy", accuracies), ("macro_auc", macro_aucs)):
            if not _close(mean[key], float(np.mean(values)), REPORT_TOL):
                failures.append(f"aggregate test {key} {mean[key]!r} is not the split mean")
        selection = report["selection"]
        if config["grid"][selection["chosen_index"]] != selection["chosen"]:
            failures.append("chosen configuration is not its grid point")
        if selection["chosen_index"] not in selection["winners_by_split"]:
            failures.append("chosen configuration won no split")

        reference = load_reference().get(self.name, {}).get(str(self.seed))
        if self.pinned and reference is not None:
            if selection["chosen"] != reference["chosen"]:
                failures.append(
                    f"chosen {selection['chosen']} differs from reference {reference['chosen']}"
                )
            for key, value in reference["test_mean"].items():
                if not _close(mean.get(key), value, REPORT_TOL):
                    failures.append(
                        f"aggregate test {key} {mean.get(key)!r} differs from reference {value!r}"
                    )
        return failures


def reference_entry(report: dict) -> dict:
    """The part of a protocol report that the reference file pins."""
    return {
        "chosen": report["selection"]["chosen"],
        "test_mean": report["aggregate"]["test"]["mean"],
    }


def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


class ScoreBulk(Workload):
    """``pgm train`` on paper-shaped data, then ``predict`` and ``evaluate`` in bulk."""

    TRAIN_ARGS = ("--encoding", "stereographic", "--alpha", "0.5", "--copies", "8")

    def __init__(self, name, why, *, rows):
        self.name = name
        self.why = why
        self.rows = rows

    def prepare(self, work, seed, run_pgm):
        write_paper_csv(work / "paper.csv", seed)
        self.labels = write_bulk_csv(work / "bulk.csv", seed, self.rows)

    def setup_inputs(self):
        return ["dataset=../paper.csv", "model=../rep0/model.json", "dataset=../bulk.csv"]

    def commands(self):
        return [
            Command(
                "train",
                ("train", "../paper.csv", *self.TRAIN_ARGS, "--out-model", "model.json"),
                ("model.json",),
            ),
            Command(
                "predict",
                ("predict", "model.json", "../bulk.csv", "--out", "predictions.csv"),
                ("predictions.csv",),
            ),
            Command(
                "evaluate",
                (
                    "evaluate", "model.json", "../bulk.csv",
                    "--positive-class", PAPER_CLASSES[1],
                    "--out", "eval.json", "--out-csv", "eval.csv",
                ),
                ("eval.json", "eval.csv"),
            ),
        ]

    def rates(self, walls):
        return {
            "predict_rows_per_s": (self.rows / walls["predict"], "rows/s"),
            "evaluate_rows_per_s": (self.rows / walls["evaluate"], "rows/s"),
        }

    def check(self, work, rep):
        train, predict, evaluate = self.commands()
        failures = {c.label: _missing(rep, c) for c in (train, predict, evaluate)}
        if not failures["train"]:
            model = json.loads((rep / "model.json").read_text(encoding="utf-8"))
            if model.get("engine") != "gram":
                failures["train"].append(f"model engine {model.get('engine')!r}, expected gram")
        predicted = None
        if not failures["predict"]:
            predicted, problems = check_predictions(rep / "predictions.csv", PAPER_CLASSES)
            failures["predict"] += problems
            if predicted is not None and predicted.size != self.rows:
                failures["predict"].append(f"{predicted.size} predictions for {self.rows} rows")
        if not failures["evaluate"]:
            report = json.loads((rep / "eval.json").read_text(encoding="utf-8"))
            metrics = report["metrics"]
            if metrics["n_samples"] != self.rows:
                failures["evaluate"].append(f"evaluated {metrics['n_samples']} rows")
            if predicted is not None and predicted.size == self.rows:
                recount = float(np.mean(predicted == self.labels))
                if not _close(metrics["accuracy"], recount, 1e-12):
                    failures["evaluate"].append(
                        f"accuracy {metrics['accuracy']!r}, recount from predictions {recount!r}"
                    )
        return failures


def check_predictions(path, classes):
    """Check a predictions CSV; returns (predicted class indices, failures).

    Every score row must be finite and sum to 1, and the predicted label
    must be the smallest argmax of the scores rounded to 12 decimals.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    expected = ["row", "predicted"] + [f"score_{name}" for name in classes]
    if header != expected:
        return None, [f"predictions header {header!r}, expected {expected!r}"]
    index = {name: i for i, name in enumerate(classes)}
    failures = []
    try:
        scores = np.array([[float(v) for v in row[2:]] for row in rows], dtype=float)
        scores = scores.reshape(len(rows), len(classes))
        order = np.array([int(row[0]) for row in rows])
        predicted = np.array([index.get(row[1], -1) for row in rows])
    except ValueError as exc:
        return None, [f"malformed predictions row ({exc})"]
    if not np.array_equal(order, np.arange(len(rows))):
        failures.append("row numbers are not 0..n-1 in order")
    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        failures.append(f"row {int(np.argmin(finite))}: non-finite score")
    defect = np.abs(scores.sum(axis=1) - 1.0)
    bad = np.flatnonzero(~(defect <= SCORE_SUM_TOL))
    if bad.size:
        failures.append(f"row {int(bad[0])}: scores sum to 1 + {defect[bad[0]]:.3g}")
    wrong = np.flatnonzero(predicted != np.argmax(np.round(scores, 12), axis=1))
    if wrong.size:
        failures.append(f"row {int(wrong[0])}: predicted label is not the rounded argmax")
    return predicted, failures


class TrainDense(Workload):
    """``pgm train`` at a copy count the default engine resolves to dense."""

    def __init__(self, name, why, *, copies):
        self.name = name
        self.why = why
        self.copies = copies

    def prepare(self, work, seed, run_pgm):
        write_paper_csv(work / "paper.csv", seed)

    def setup_inputs(self):
        return ["dataset=../paper.csv"]

    def commands(self):
        return [
            Command(
                "train",
                ("train", "../paper.csv", "--copies", str(self.copies), "--out-model", "model.json"),
                ("model.json",),
            )
        ]

    def check(self, work, rep):
        (command,) = self.commands()
        failures = _missing(rep, command)
        if failures:
            return {"train": failures}
        loaded = load_model(rep / "model.json")
        if loaded.model.engine != "dense" or loaded.model.copies != self.copies:
            failures.append(
                f"model is {loaded.model.engine} at {loaded.model.copies} copies, "
                f"expected dense at {self.copies}"
            )
        dataset = load_dataset(work / "paper.csv")
        _, dense = predict_batch(
            loaded.model, features_for_model(dataset, loaded.feature_columns)
        )
        config = PgmConfig(
            encoding=EncodingConfig(encoding="stereographic", alpha=1.0, normalizer="zscore"),
            copies=self.copies,
            engine="gram",
        )
        gram_model = fit_pgm(dataset.features, dataset.label_indices, dataset.n_classes, config)
        _, gram = predict_batch(gram_model, dataset.features)
        gap = float(np.max(np.abs(dense - gram)))
        if not gap <= ENGINE_TOL:
            failures.append(f"saved dense model scores differ from a gram fit by {gap:.3g}")
        return {"train": failures}


def workloads(tiny: bool = False) -> dict:
    """The benchmark workloads by name; ``tiny`` shrinks them for the self-check.

    Full sizes keep one repetition to a few seconds, so a run of BENCHMARK.json's
    ``run_seconds`` takes the median of several. ``BENCHMARK.json`` lists the
    workloads whose runs fit its time budget; the others run by name.
    """
    blobs_grid = "encodings=stereographic,amplitude;alphas=0.25,0.5;copies=1,8,16"
    items = [
        Protocol(
            "protocol_paper",
            "paper unit of work: full default grid on 143x4 two-class data, gram engine, "
            "default threads; per-call overhead, one fit_encode per cell and tiny AUCs dominate",
            data="paper",
            splits=1,
            grid="encodings=amplitude;alphas=0.5,1;copies=1,5" if tiny else None,
            cv_reps=1,
            engine="gram",
            pinned=not tiny,
        ),
        Protocol(
            "protocol_blobs",
            "criterion-9 protocol: 3-class 450x2 blobs, default engine (1/3 dense), one "
            "worker; eigh/BLAS-bound serial baseline where refits and the second CV loop show",
            data="blobs",
            data_size=20 if tiny else 150,
            splits=2 if tiny else 3,
            grid="encodings=amplitude;alphas=0.5;copies=1,8" if tiny else blobs_grid,
            k=3 if tiny else 5,
            cv_reps=1 if tiny else 2,
            workers="1",
            pinned=not tiny,
        ),
        ScoreBulk(
            "score_bulk",
            "few large calls: train the README config, then predict and evaluate 1e5 rows; "
            "CSV parse and write, model read, Gram scoring and AUC over 1e5 rows",
            rows=300 if tiny else 100_000,
        ),
        TrainDense(
            "train_dense",
            "the default engine's dense path: train at copies 4 (lifted dim 625) so "
            "build_dense_pgm, pinv_sqrt, tensor_power and the model write do the work",
            copies=2 if tiny else 4,
        ),
    ]
    return {w.name: w for w in items}
