import csv
import itertools
import json
import os
import subprocess
import sys
import time
import uuid
import warnings
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest
from click.testing import CliRunner
from helpers import blob_features, write_dataset_csv
from hypothesis import given, settings
from hypothesis import strategies as st

import pgmclassifier
from pgmclassifier import predict_batch
from pgmclassifier.cli import main
from pgmclassifier.dataio import load_model
from pgmclassifier.pgm import MAX_COPIES


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def blob_csv(tmp_path):
    features, labels = blob_features(8.0, 12, seed=42)
    names = np.array(["ant", "bee", "cat"])[labels]
    return write_dataset_csv(tmp_path / "blobs.csv", features, names)


@pytest.fixture
def binary_csv(tmp_path):
    rng = np.random.default_rng(6)
    features = np.vstack(
        [rng.normal(0.0, 1.0, (10, 2)), rng.normal(8.0, 1.0, (10, 2))]
    )
    names = ["lo"] * 10 + ["hi"] * 10
    return write_dataset_csv(tmp_path / "binary.csv", features, names)


def make_splits(runner, tmp_path, dataset, **kwargs):
    out = tmp_path / "splits.json"
    args = [
        str(dataset),
        "--seed",
        str(kwargs.get("seed", 11)),
        "--repetitions",
        str(kwargs.get("repetitions", 2)),
        "--test-fraction",
        str(kwargs.get("test_fraction", 0.25)),
        "--out",
        str(out),
    ]
    result = runner.invoke(main, ["splits"] + args, catch_exceptions=False)
    assert result.exit_code == 0, result.output + result.stderr
    return out


def train_model(runner, tmp_path, dataset, *extra):
    out = tmp_path / "model.json"
    result = runner.invoke(
        main,
        ["train", str(dataset), "--out-model", str(out)] + list(extra),
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output + result.stderr
    return out, result


def processes_with_env(entry: str) -> list:
    """Ids of the live processes whose environment holds ``entry``."""
    proc = Path("/proc")
    if not proc.is_dir():
        pytest.skip("needs /proc to list processes")
    found = []
    for path in proc.glob("[0-9]*/environ"):
        try:
            if entry.encode() in path.read_bytes().split(b"\0"):
                found.append(int(path.parent.name))
        except OSError:
            pass
    return found


class TestSplitsCommand:
    def test_prostate_shaped_allocation(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(143, 4))
        names = ["neg"] * 72 + ["pos"] * 71
        dataset = write_dataset_csv(tmp_path / "clinical.csv", features, names)
        out = tmp_path / "splits.json"
        result = runner.invoke(
            main,
            [
                "splits",
                str(dataset),
                "--test-fraction",
                "0.2",
                "--repetitions",
                "30",
                "--seed",
                "3",
                "--out",
                str(out),
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert "class neg: 72 samples, 15 in each test set" in result.output
        assert "class pos: 71 samples, 14 in each test set" in result.output
        obj = json.loads(out.read_text())
        assert len(obj["repetitions"]) == 30
        for rep in obj["repetitions"]:
            assert len(rep["test"]) == 29
            assert len(rep["train"]) == 114

    def test_deterministic_output(self, runner, tmp_path, blob_csv):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        a = make_splits(runner, a_dir, blob_csv, seed=5)
        b = make_splits(runner, b_dir, blob_csv, seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_required(self, runner, tmp_path, blob_csv):
        result = runner.invoke(
            main, ["splits", str(blob_csv), "--out", str(tmp_path / "s.json")]
        )
        assert result.exit_code == 1
        assert "--seed" in result.stderr

    @pytest.mark.parametrize("fraction", ["0", "1", "-0.2"])
    def test_bad_fraction_is_usage_error(self, runner, tmp_path, blob_csv, fraction):
        result = runner.invoke(
            main,
            [
                "splits",
                str(blob_csv),
                "--test-fraction",
                fraction,
                "--seed",
                "1",
                "--out",
                str(tmp_path / "s.json"),
            ],
        )
        assert result.exit_code == 1

    def test_zero_repetitions_is_usage_error(self, runner, tmp_path, blob_csv):
        result = runner.invoke(
            main,
            [
                "splits",
                str(blob_csv),
                "--repetitions",
                "0",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "s.json"),
            ],
        )
        assert result.exit_code == 1

    def test_unlabeled_dataset_is_data_error(self, runner, tmp_path):
        dataset = write_dataset_csv(tmp_path / "d.csv", np.ones((4, 2)))
        result = runner.invoke(
            main,
            ["splits", str(dataset), "--seed", "1", "--out", str(tmp_path / "s.json")],
        )
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_singleton_class_is_data_error(self, runner, tmp_path):
        dataset = write_dataset_csv(
            tmp_path / "d.csv", np.ones((3, 1)), ["a", "a", "b"]
        )
        result = runner.invoke(
            main,
            ["splits", str(dataset), "--seed", "1", "--out", str(tmp_path / "s.json")],
        )
        assert result.exit_code == 2

    def test_malformed_csv_is_data_error(self, runner, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\nnot_a_number,a\n")
        result = runner.invoke(
            main,
            ["splits", str(path), "--seed", "1", "--out", str(tmp_path / "s.json")],
        )
        assert result.exit_code == 2
        assert "row 1" in result.stderr


class TestGridsearchCommand:
    def test_end_to_end_report(self, runner, tmp_path, blob_csv):
        splits = make_splits(runner, tmp_path, blob_csv)
        out = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        result = runner.invoke(
            main,
            [
                "gridsearch",
                str(blob_csv),
                str(splits),
                "--grid",
                "encodings=stereographic;alphas=0.5,1;copies=1",
                "--k",
                "3",
                "--cv-reps",
                "1",
                "--seed",
                "9",
                "--out",
                str(out),
                "--out-csv",
                str(out_csv),
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output + result.stderr
        assert "chosen configuration" in result.output
        obj = json.loads(out.read_text())
        assert obj["format"] == "pgm-report/1"
        assert obj["kind"] == "protocol"
        assert len(obj["config"]["grid"]) == 2
        assert obj["selection"]["chosen"]["encoding"] == "stereographic"
        assert len(obj["splits"]) == 2
        assert obj["aggregate"]["test"]["mean"]["macro_auc"] >= 0.99
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "split,metric,class,value"
        assert len(lines) > 10

    def test_worker_counts_agree(self, runner, tmp_path, blob_csv):
        splits = make_splits(runner, tmp_path, blob_csv)
        outputs = []
        for workers in ("1", "3"):
            out = tmp_path / f"report_{workers}.json"
            result = runner.invoke(
                main,
                [
                    "gridsearch",
                    str(blob_csv),
                    str(splits),
                    "--grid",
                    "encodings=amplitude;alphas=1;copies=1,2",
                    "--k",
                    "3",
                    "--cv-reps",
                    "1",
                    "--seed",
                    "4",
                    "--out",
                    str(out),
                ],
                env={"PGM_WORKERS": workers},
                catch_exceptions=False,
            )
            assert result.exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("d", [2, 4])
    def test_worker_counts_agree_at_blas_sensitive_size(self, runner, tmp_path, d):
        # 471 rows: fold-train m is about 300, where OpenBLAS's eigh returns
        # different bits at one and at two threads.
        features, labels = blob_features(1.5, 157, d=d, seed=8)
        dataset = write_dataset_csv(
            tmp_path / "wide.csv", features, np.array(["ant", "bee", "cat"])[labels]
        )
        splits = make_splits(runner, tmp_path, dataset, repetitions=1, test_fraction=0.2)
        outputs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"report_{workers}.json"
            out_csv = tmp_path / f"report_{workers}.csv"
            result = runner.invoke(
                main,
                [
                    "gridsearch",
                    str(dataset),
                    str(splits),
                    "--grid",
                    "encodings=stereographic,amplitude;alphas=0.5,1;copies=1,5,15",
                    "--cv-reps",
                    "1",
                    "--engine",
                    "gram",
                    "--seed",
                    "9",
                    "--out",
                    str(out),
                    "--out-csv",
                    str(out_csv),
                ],
                env={"PGM_WORKERS": workers},
                catch_exceptions=False,
            )
            assert result.exit_code == 0, result.output + result.stderr
            outputs.append((out.read_bytes(), out_csv.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_parallel_run_leaves_clean_stderr_and_no_processes(self, tmp_path, blob_csv):
        splits = make_splits(CliRunner(), tmp_path, blob_csv)
        marker = uuid.uuid4().hex
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(pgmclassifier.__file__).parents[1]),
            PGM_WORKERS="2",
            PGM_TEST_RUN=marker,
        )
        run = subprocess.run(
            [
                sys.executable, "-m", "pgmclassifier.cli", "gridsearch", str(blob_csv),
                str(splits), "--grid", "encodings=amplitude;alphas=1;copies=1,2",
                "--k", "3", "--cv-reps", "2", "--seed", "4", "--out", "report.json",
            ],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        for text in ("resource_tracker", "leaked", "Warning"):
            assert text not in run.stderr
        # Every process the run started inherited the marker; give the last
        # ones a moment to finish exiting.
        deadline = time.monotonic() + 10.0
        while processes_with_env(f"PGM_TEST_RUN={marker}") and time.monotonic() < deadline:
            time.sleep(0.1)
        assert processes_with_env(f"PGM_TEST_RUN={marker}") == []

    def test_fingerprint_mismatch_is_data_error(self, runner, tmp_path, blob_csv, binary_csv):
        splits = make_splits(runner, tmp_path, binary_csv)
        result = runner.invoke(
            main,
            [
                "gridsearch",
                str(blob_csv),
                str(splits),
                "--seed",
                "1",
                "--out",
                str(tmp_path / "r.json"),
            ],
        )
        assert result.exit_code == 2
        assert "fingerprint" in result.stderr

    @pytest.mark.parametrize(
        "grid",
        [
            "alphas=abc",
            "encodings=fourier;alphas=1;copies=1",
            "alphas=-1",
            "copies=0",
            "copies=1000001",
            "bogus=1",
            "alphas",
        ],
    )
    def test_malformed_grid_is_usage_error(self, runner, tmp_path, blob_csv, grid):
        splits = make_splits(runner, tmp_path, blob_csv)
        result = runner.invoke(
            main,
            [
                "gridsearch",
                str(blob_csv),
                str(splits),
                "--grid",
                grid,
                "--seed",
                "1",
                "--out",
                str(tmp_path / "r.json"),
            ],
        )
        assert result.exit_code == 1, grid

    def test_bad_worker_env_is_usage_error(self, runner, tmp_path, blob_csv):
        splits = make_splits(runner, tmp_path, blob_csv)
        for bad in ("0", "-2", "many"):
            result = runner.invoke(
                main,
                [
                    "gridsearch",
                    str(blob_csv),
                    str(splits),
                    "--seed",
                    "1",
                    "--out",
                    str(tmp_path / "r.json"),
                ],
                env={"PGM_WORKERS": bad},
            )
            assert result.exit_code == 1, bad
            assert "PGM_WORKERS" in result.stderr

    def test_unknown_positive_class_is_usage_error(self, runner, tmp_path, binary_csv):
        splits = make_splits(runner, tmp_path, binary_csv)
        result = runner.invoke(
            main,
            [
                "gridsearch",
                str(binary_csv),
                str(splits),
                "--positive-class",
                "maybe",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "r.json"),
            ],
        )
        assert result.exit_code == 1
        assert "maybe" in result.stderr

    def test_positive_class_on_multiclass_is_usage_error(self, runner, tmp_path, blob_csv):
        splits = make_splits(runner, tmp_path, blob_csv)
        result = runner.invoke(
            main,
            [
                "gridsearch",
                str(blob_csv),
                str(splits),
                "--positive-class",
                "ant",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "r.json"),
            ],
        )
        assert result.exit_code == 1


class TestTrainCommand:
    def test_train_writes_loadable_model(self, runner, tmp_path, blob_csv):
        model_path, result = train_model(
            runner, tmp_path, blob_csv, "--alpha", "0.5", "--copies", "2"
        )
        assert "trained dense model on 36 samples" in result.output
        loaded = load_model(model_path)
        assert loaded.classes == ("ant", "bee", "cat")
        assert loaded.model.copies == 2
        assert loaded.model.encoding.alpha == 0.5

    def test_high_copies_use_gram_engine(self, runner, tmp_path, blob_csv):
        model_path, result = train_model(
            runner, tmp_path, blob_csv, "--copies", "60"
        )
        assert "trained gram model" in result.output
        assert load_model(model_path).model.engine == "gram"

    def test_alpha_must_be_positive(self, runner, tmp_path, blob_csv):
        result = runner.invoke(
            main,
            [
                "train",
                str(blob_csv),
                "--alpha",
                "0",
                "--out-model",
                str(tmp_path / "m.json"),
            ],
        )
        assert result.exit_code == 1

    def test_copies_above_bound_is_usage_error(self, runner, tmp_path, blob_csv):
        result = runner.invoke(
            main,
            [
                "train",
                str(blob_csv),
                "--copies",
                str(MAX_COPIES + 1),
                "--out-model",
                str(tmp_path / "m.json"),
            ],
        )
        assert result.exit_code == 1
        assert "--copies" in result.stderr
        assert not (tmp_path / "m.json").exists()

    def test_copies_must_be_positive(self, runner, tmp_path, blob_csv):
        result = runner.invoke(
            main,
            [
                "train",
                str(blob_csv),
                "--copies",
                "0",
                "--out-model",
                str(tmp_path / "m.json"),
            ],
        )
        assert result.exit_code == 1

    def test_single_class_dataset_is_data_error(self, runner, tmp_path):
        dataset = write_dataset_csv(tmp_path / "d.csv", np.ones((3, 1)), ["a"] * 3)
        result = runner.invoke(
            main, ["train", str(dataset), "--out-model", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 2

    def test_forced_dense_blowup_is_data_error(self, runner, tmp_path, blob_csv):
        result = runner.invoke(
            main,
            [
                "train",
                str(blob_csv),
                "--copies",
                "60",
                "--engine",
                "dense",
                "--out-model",
                str(tmp_path / "m.json"),
            ],
        )
        assert result.exit_code == 2
        assert "error:" in result.stderr


class TestPredictCommand:
    def test_scores_sum_to_one(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        out = tmp_path / "preds.csv"
        result = runner.invoke(
            main,
            ["predict", str(model_path), str(blob_csv), "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "row,predicted,score_ant,score_bee,score_cat"
        assert len(lines) == 37
        for line in lines[1:]:
            cells = line.split(",")
            total = sum(float(v) for v in cells[2:])
            assert abs(total - 1.0) <= 1e-8

    def test_matches_library_predictions(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        out = tmp_path / "preds.csv"
        runner.invoke(
            main,
            ["predict", str(model_path), str(blob_csv), "--out", str(out)],
            catch_exceptions=False,
        )
        loaded = load_model(model_path)
        features, labels = blob_features(8.0, 12, seed=42)
        predicted, scores = predict_batch(loaded.model, features)
        lines = out.read_text().splitlines()[1:]
        for i, line in enumerate(lines):
            cells = line.split(",")
            assert cells[1] == loaded.classes[predicted[i]]
            np.testing.assert_array_equal(
                np.array([float(v) for v in cells[2:]]), scores[i]
            )

    def test_unlabeled_input_accepted(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        features, _ = blob_features(8.0, 2, seed=1)
        unlabeled = write_dataset_csv(tmp_path / "new.csv", features)
        out = tmp_path / "preds.csv"
        result = runner.invoke(
            main,
            ["predict", str(model_path), str(unlabeled), "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 7

    def test_byte_order_mark_on_training_data_is_ignored(self, runner, tmp_path, blob_csv):
        plain_model, _ = train_model(runner, tmp_path, blob_csv)
        plain_bytes = plain_model.read_bytes()
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(blob_csv).read_bytes())
        bom_model, _ = train_model(runner, tmp_path, bom)
        assert bom_model.read_bytes() == plain_bytes
        result = runner.invoke(
            main,
            ["predict", str(bom_model), str(blob_csv), "--out", str(tmp_path / "preds.csv")],
        )
        assert result.exit_code == 0, result.stderr

    def test_empty_dataset_writes_header_only(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        empty = tmp_path / "empty.csv"
        empty.write_text("f0,f1\n")
        out = tmp_path / "preds.csv"
        result = runner.invoke(
            main,
            ["predict", str(model_path), str(empty), "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert out.read_text() == "row,predicted,score_ant,score_bee,score_cat\n"

    def test_spelling_of_the_dataset_does_not_change_results(self, runner, tmp_path):
        features, labels = blob_features(4.0, 100, d=3, seed=5)
        rows = [["f0", "f1", "f2", "label"]] + [
            [repr(v) for v in row] + [name]
            for row, name in zip(features.tolist(), np.array(["ant", "bee", "cat"])[labels])
        ]
        plain = tmp_path / "plain.csv"
        with open(plain, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        quoted = tmp_path / "quoted.csv"
        with open(quoted, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\r\n", quoting=csv.QUOTE_ALL).writerows(rows)
        assert b'"' not in plain.read_bytes() and b"\r\n" in quoted.read_bytes()
        model_path, _ = train_model(runner, tmp_path, plain, "--copies", "3")
        outputs = {}
        for name, dataset in (("plain", plain), ("quoted", quoted)):
            for command in ("predict", "evaluate"):
                out = tmp_path / f"{name}_{command}.out"
                result = runner.invoke(
                    main,
                    [command, str(model_path), str(dataset), "--out", str(out)],
                    catch_exceptions=False,
                )
                assert result.exit_code == 0, result.output + result.stderr
                outputs[name, command] = out
        predictions = outputs["plain", "predict"].read_bytes()
        assert predictions == outputs["quoted", "predict"].read_bytes()
        assert len(predictions.splitlines()) == 301
        plain_eval, quoted_eval = (
            json.loads(outputs[name, "evaluate"].read_text()) for name in ("plain", "quoted")
        )
        assert plain_eval["metrics"] == quoted_eval["metrics"]
        assert plain_eval["metrics"]["n_samples"] == 300

    @pytest.mark.parametrize("command", ["splits", "predict"])
    def test_field_over_the_csv_size_limit_is_data_error(
        self, runner, tmp_path, blob_csv, command
    ):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        bad = tmp_path / "big.csv"
        bad.write_text(f"f0,f1,label\n1.0,2.0,ant\n{'1' * 140_001},2.0,bee\n")
        out = str(tmp_path / "out")
        args = {
            "splits": ["splits", str(bad), "--seed", "1", "--out", out],
            "predict": ["predict", str(model_path), str(bad), "--out", out],
        }[command]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"error: {bad}: line 3: field larger than field limit ({csv.field_size_limit()})"
        ]

    def test_missing_feature_column_is_data_error(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        bad = tmp_path / "bad.csv"
        bad.write_text("f0\n1.0\n")
        result = runner.invoke(
            main,
            ["predict", str(model_path), str(bad), "--out", str(tmp_path / "p.csv")],
        )
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [f"error: {bad}: dataset lacks feature column 'f1'"]


def _set(*path_and_value):
    """Set the field at a key path to a value, or to ``value(old)`` if callable."""
    *path, value = path_and_value

    def mutate(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value(obj[path[-1]]) if callable(value) else value

    return mutate


def _poison_first(value):
    """Replace the first scalar of a nested list with ``value``."""

    def poison(nested):
        if not isinstance(nested, list):
            return value
        return [poison(nested[0])] + nested[1:]

    return poison


def _set_entry(i, j, value):
    """Replace entry ``[i][j]`` of a nested list with ``value``."""

    def edit(rows):
        rows = [list(row) for row in rows]
        rows[i][j] = value
        return rows

    return edit


#: One corrupted field per case, applied to a saved two-class model.
CORRUPTIONS = {
    "gram-non-unit-train-state": (
        "gram",
        _set("payload", "train_states", _set_entry(0, 0, 0.0)),
    ),
    "gram-huge-copies": ("gram", _set("copies", 1e300)),
    "dense-huge-copies": ("dense", _set("copies", 1e300)),
    "gram-copies-0": ("gram", _set("copies", 0)),
    "gram-label-7": ("gram", _set("payload", "labels", _poison_first(7))),
    "gram-fractional-label": ("gram", _set("payload", "labels", _poison_first(0.5))),
    "gram-nan-train-state": (
        "gram",
        _set("payload", "train_states", _poison_first(float("nan"))),
    ),
    "gram-huge-train-state": ("gram", _set("payload", "train_states", _poison_first(1e300))),
    "gram-one-class-labels": ("gram", _set("payload", "labels", lambda y: [0] * len(y))),
    "gram-wide-train-states": (
        "gram",
        _set("payload", "train_states", lambda rows: [r + [0.0] for r in rows]),
    ),
    "gram-short-scale": ("gram", _set("normalizer", "scale", lambda s: s[:-1])),
    "gram-negative-scale": ("gram", _set("normalizer", "scale", _poison_first(-1.0))),
    "gram-zero-scale": ("gram", _set("normalizer", "scale", _poison_first(0.0))),
    "gram-short-location": ("gram", _set("normalizer", "location", lambda s: s[:-1])),
    "gram-explicit-priors": ("gram", _set("priors", "mode", "explicit")),
    "dense-truncated-povm": ("dense", _set("payload", "povm", lambda f: [f[0][:-1]] + f[1:])),
    "dense-wrong-dim": ("dense", _set("payload", "dim", lambda dim: dim + 1)),
    "dense-inf-in-povm": ("dense", _set("payload", "povm", _poison_first(float("inf")))),
    "dense-copies-0": ("dense", _set("copies", 0)),
    "dense-short-scale": ("dense", _set("normalizer", "scale", lambda s: s[:-1])),
    "dense-shifted-effect": ("dense", _set("payload", "povm", _poison_first(0.5))),
    "gram-fractional-copies": ("gram", _set("copies", 2.5)),
    "gram-boolean-copies": ("gram", _set("copies", True)),
    "dense-fractional-dim": ("dense", _set("payload", "dim", float)),
    "gram-class-string": ("gram", _set("classes", "ab")),
    "gram-duplicate-classes": ("gram", _set("classes", lambda names: [names[0]] * 2)),
    "gram-integer-classes": ("gram", _set("classes", [1, 2])),
}


class TestCorruptedModel:
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_predict_exits_2_with_diagnostic(self, runner, tmp_path, binary_csv, case):
        engine, mutate = CORRUPTIONS[case]
        model_path, _ = train_model(
            runner, tmp_path, binary_csv, "--copies", "2", "--engine", engine
        )
        obj = json.loads(model_path.read_text())
        mutate(obj)
        model_path.write_text(json.dumps(obj))
        out = tmp_path / "preds.csv"
        result = runner.invoke(
            main, ["predict", str(model_path), str(binary_csv), "--out", str(out)]
        )
        assert result.exit_code == 2, (result.output, result.exception)
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"error: {model_path}:")
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["gram", "dense"])
    def test_huge_copy_count_is_refused_before_numpy_sees_it(
        self, runner, tmp_path, binary_csv, engine
    ):
        model_path, _ = train_model(
            runner, tmp_path, binary_csv, "--copies", "2", "--engine", engine
        )
        obj = json.loads(model_path.read_text())
        obj["copies"] = 1e300
        model_path.write_text(json.dumps(obj))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(
                main,
                ["predict", str(model_path), str(binary_csv), "--out", str(tmp_path / "p.csv")],
            )
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"error: {model_path}: copy count must lie in [1, {MAX_COPIES}], "
            f"got {int(1e300)}"
        ]
        assert caught == []

    def test_stored_factor_keys_are_ignored(self, runner, tmp_path, binary_csv):
        """Older files carry the factor ``M``, and older ones still ``P`` and
        ``weights``; edited or deleted, these keys leave predictions unchanged."""
        model_path, _ = train_model(
            runner, tmp_path, binary_csv, "--copies", "2", "--engine", "gram"
        )
        model = load_model(model_path).model
        obj = json.loads(model_path.read_text())
        out = tmp_path / "preds.csv"

        def predict(payload):
            edited = tmp_path / "edited.json"
            edited.write_text(json.dumps({**obj, "payload": payload}))
            result = runner.invoke(
                main, ["predict", str(edited), str(binary_csv), "--out", str(out)]
            )
            assert result.exit_code == 0, result.stderr
            return out.read_bytes()

        expected = predict(obj["payload"])
        older = {
            **obj["payload"],
            "M": model.M.tolist(),
            "P": (model.M @ model.M).tolist(),
            "weights": model.weights.tolist(),
        }
        assert predict(older) == expected
        for key in ("M", "P", "weights"):
            for value in (float("nan"), 1e300):
                assert predict({**older, key: _poison_first(value)(older[key])}) == expected
            assert predict({k: v for k, v in older.items() if k != key}) == expected


class TestOverflowingFeatures:
    """A row whose scaled features overflow its encoding is refused, never scored."""

    @pytest.mark.parametrize("edit", ["feature-1e200", "alpha-1e300", "alpha-16-feature-1e308"])
    @pytest.mark.parametrize("encoding", ["amplitude", "stereographic"])
    @pytest.mark.parametrize("engine", ["gram", "dense"])
    def test_predict_exits_2(self, runner, tmp_path, binary_csv, engine, encoding, edit):
        # At alpha 16 a finite 1e308 overflows in the scaling, before the encoder.
        alpha = "16" if edit == "alpha-16-feature-1e308" else "1"
        model_path, _ = train_model(
            runner, tmp_path, binary_csv, "--encoding", encoding, "--engine", engine,
            "--alpha", alpha,
        )
        data, bad_row = binary_csv, 0
        if edit == "alpha-1e300":
            obj = json.loads(model_path.read_text())
            obj["encoding"]["alpha"] = 1e300
            model_path.write_text(json.dumps(obj))
        else:
            huge = 1e308 if alpha == "16" else 1e200
            features = np.array([[0.5, 1.0], [huge, 1.0], [2.0, 3.0]])
            data = write_dataset_csv(tmp_path / "huge.csv", features, ["lo", "hi", "lo"])
            bad_row = 1
        out = tmp_path / "preds.csv"
        result = runner.invoke(main, ["predict", str(model_path), str(data), "--out", str(out)])
        assert result.exit_code == 2, (result.output, result.exception)
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"error: {encoding} encoding overflows: row index {bad_row} ")
        assert not out.exists()


#: Numeric fields of a saved model, by engine, as key paths.
MODEL_FIELDS = {
    "gram": (
        ("copies",),
        ("encoding", "alpha"),
        ("normalizer", "location"),
        ("normalizer", "scale"),
        ("priors", "values"),
        ("payload", "train_states"),
        ("payload", "labels"),
    ),
    "dense": (
        ("copies",),
        ("encoding", "alpha"),
        ("normalizer", "location"),
        ("normalizer", "scale"),
        ("priors", "values"),
        ("payload", "dim"),
        ("payload", "povm"),
    ),
}


@st.composite
def model_mutations(draw):
    """``(engine, key path, mutation, position)``: one field truncated or one entry replaced."""
    engine = draw(st.sampled_from(sorted(MODEL_FIELDS)))
    path = draw(st.sampled_from(MODEL_FIELDS[engine]))
    mutation = draw(st.sampled_from(["truncate", 0, -1, float("nan"), float("inf"), 1e300]))
    return engine, path, mutation, draw(st.integers(0, 10**6))


def _replace_entry(value, position, new):
    """Replace the scalar at flat row-major ``position`` (mod the entry count)."""
    if not isinstance(value, list):
        return new
    entries = np.array(value, dtype=object)
    entries.flat[position % entries.size] = new
    return entries.tolist()


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """A trained gram and dense model (two classes, copies 2) and their data."""
    root = tmp_path_factory.mktemp("saved-models")
    rng = np.random.default_rng(6)
    features = np.vstack([rng.normal(0.0, 1.0, (10, 2)), rng.normal(3.0, 1.0, (10, 2))])
    data = write_dataset_csv(root / "data.csv", features, ["lo"] * 10 + ["hi"] * 10)
    runner = CliRunner()
    models = {}
    for engine in MODEL_FIELDS:
        models[engine] = json.loads(
            train_model(runner, root, data, "--copies", "2", "--engine", engine)[0].read_text()
        )
    return root, data, models


class TestMutatedModel:
    @settings(max_examples=200, deadline=None)
    @given(case=model_mutations())
    def test_predict_exits_0_with_distributions_or_2(self, saved_models, case):
        root, data, models = saved_models
        engine, path, mutation, position = case
        obj = json.loads(json.dumps(models[engine]))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if mutation == "truncate":
            if isinstance(parent[path[-1]], list):
                parent[path[-1]] = parent[path[-1]][:-1]
            else:
                del parent[path[-1]]
        else:
            parent[path[-1]] = _replace_entry(parent[path[-1]], position, mutation)
        model_path = root / "mutated.json"
        model_path.write_text(json.dumps(obj))
        out = root / "preds.csv"
        out.unlink(missing_ok=True)
        result = CliRunner().invoke(
            main, ["predict", str(model_path), str(data), "--out", str(out)]
        )
        assert result.exit_code in (0, 2), (result.output, result.exception)
        if result.exit_code == 2:
            assert result.stderr.startswith("error: ")
            assert not out.exists()
            return
        rows = out.read_text().splitlines()[1:]
        scores = np.array([[float(v) for v in row.split(",")[2:]] for row in rows])
        assert scores.shape == (20, 2)
        assert np.all(np.isfinite(scores))
        assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-8


#: Replacement values for one field of a split file or report, besides deleting it.
FIELD_VALUES = (0, -1, 0.5, 10**30, float("nan"), float("inf"), "x", None, True, [], [0, [1]], {})


@st.composite
def field_mutations(draw, paths):
    """``(key path, mutation, position)``: one field deleted or replaced."""
    path = draw(st.sampled_from(paths))
    mutation = draw(st.sampled_from(("delete",) + FIELD_VALUES))
    return path, mutation, draw(st.integers(0, 10**6))


def _mutated(obj, case):
    """A copy of ``obj`` with one field deleted or replaced.

    A ``"*"`` step of the key path picks a list entry or an object key by
    the case's position.
    """
    path, mutation, position = case
    obj = json.loads(json.dumps(obj))
    parent = obj
    for i, step in enumerate(path):
        if step == "*":
            keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
            step = keys[position % len(keys)]
        if i == len(path) - 1:
            if mutation == "delete":
                del parent[step]
            else:
                parent[step] = mutation
        else:
            parent = parent[step]
    return obj


def _exit_0_or_2(result, out):
    """Exit 2 with an ``error:`` diagnostic and no output, or exit 0; True on exit 0."""
    assert result.exit_code in (0, 2), (result.output, result.exception)
    if result.exit_code == 2:
        assert result.stderr.startswith("error: "), result.stderr
        assert not out.exists()
    return result.exit_code == 0


@pytest.fixture(scope="module")
def split_inputs(tmp_path_factory):
    """A three-class dataset and a two-repetition split file for it."""
    root = tmp_path_factory.mktemp("split-inputs")
    features, labels = blob_features(8.0, 6, seed=42)
    data = write_dataset_csv(root / "data.csv", features, np.array(["a", "b", "c"])[labels])
    splits = make_splits(CliRunner(), root, data)
    return root, data, json.loads(splits.read_text())


SPLIT_FIELDS = (
    ("fingerprint",),
    ("fingerprint", "*"),
    ("seed",),
    ("test_fraction",),
    ("repetitions",),
    ("repetitions", "*"),
    ("repetitions", "*", "repetition"),
    ("repetitions", "*", "seed"),
    ("repetitions", "*", "train"),
    ("repetitions", "*", "train", "*"),
    ("repetitions", "*", "test", "*"),
)


class TestMutatedSplitFile:
    @settings(max_examples=60, deadline=None)
    @given(case=field_mutations(SPLIT_FIELDS))
    def test_gridsearch_exits_0_with_report_or_2(self, split_inputs, case):
        root, data, splits = split_inputs
        mutated = _mutated(splits, case)
        splits_path = root / "mutated.json"
        splits_path.write_text(json.dumps(mutated))
        out = root / "report.json"
        out.unlink(missing_ok=True)
        result = CliRunner().invoke(
            main,
            [
                "gridsearch",
                str(data),
                str(splits_path),
                "--grid",
                "encodings=amplitude;alphas=1;copies=1",
                "--k",
                "2",
                "--cv-reps",
                "1",
                "--seed",
                "1",
                "--out",
                str(out),
            ],
            env={"PGM_WORKERS": "1"},
        )
        if _exit_0_or_2(result, out):
            report = json.loads(out.read_text())
            assert report["kind"] == "protocol"
            assert len(report["splits"]) == len(mutated["repetitions"])

    @pytest.mark.parametrize(
        "case, message",
        [
            ((("repetitions", 1, "repetition"), 0, 0), "repetition ids must be distinct"),
            ((("repetitions", 0, "train", 0), 0.5, 0), "row indices must be integers"),
            ((("repetitions", 0, "test", 0), 10**30, 0), "OverflowError"),
            ((("repetitions", 0, "train"), [[0, 1]], 0), "row indices must be integers"),
            ((("repetitions", 0, "repetition"), "0", 0), "row indices must be integers"),
            ((("fingerprint",), "abc", 0), "fingerprint must be an object of strings"),
        ],
    )
    def test_malformed_field_names_the_file(self, split_inputs, case, message):
        root, data, splits = split_inputs
        splits_path = root / "malformed.json"
        splits_path.write_text(json.dumps(_mutated(splits, case)))
        result = CliRunner().invoke(
            main,
            ["gridsearch", str(data), str(splits_path), "--seed", "1", "--out", str(root / "r")],
        )
        assert result.exit_code == 2
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"error: {splits_path}: ")
        assert message in line


@pytest.fixture(scope="module")
def evaluation_reports(tmp_path_factory):
    """Two evaluation reports of different models on the same three-class data."""
    root = tmp_path_factory.mktemp("evaluation-reports")
    features, labels = blob_features(2.0, 8, seed=5)
    data = write_dataset_csv(root / "data.csv", features, np.array(["a", "b", "c"])[labels])
    runner = CliRunner()
    reports = []
    for name, alpha in (("a", "0.5"), ("b", "4")):
        (root / name).mkdir()
        model, _ = train_model(runner, root / name, data, "--alpha", alpha)
        out = root / f"{name}.json"
        result = runner.invoke(
            main, ["evaluate", str(model), str(data), "--out", str(out)], catch_exceptions=False
        )
        assert result.exit_code == 0
        reports.append(json.loads(out.read_text()))
    return root, reports


REPORT_FIELDS = (
    ("kind",),
    ("metrics",),
    ("metrics", "per_class"),
    ("metrics", "per_class", "*"),
    ("metrics", "per_class", "*", "auc"),
    ("flat",),
    ("flat", "*"),
)


class TestMutatedReport:
    @settings(max_examples=100, deadline=None)
    @given(case=field_mutations(REPORT_FIELDS), which=st.integers(0, 1))
    def test_compare_exits_0_with_table_or_2(self, evaluation_reports, case, which):
        root, reports = evaluation_reports
        paths = [root / "first.json", root / "second.json"]
        for i, (path, report) in enumerate(zip(paths, reports)):
            path.write_text(json.dumps(_mutated(report, case) if i == which else report))
        out = root / "cmp.csv"
        out.unlink(missing_ok=True)
        result = CliRunner().invoke(
            main, ["compare", str(paths[0]), str(paths[1]), "--out", str(out)]
        )
        if _exit_0_or_2(result, out):
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert rows
            for table, _, _, value in rows:
                assert table in ("win_loss", "difference")
                assert value == "" or abs(float(value)) <= 1.0

    @pytest.mark.parametrize(
        "case",
        [
            (("flat",), "delete", 0),
            (("metrics",), "delete", 0),
            (("metrics", "per_class", "*", "auc"), "0.9", 0),
            (("flat", "*"), "0.9", 0),
        ],
    )
    def test_malformed_report_names_the_file(self, evaluation_reports, case):
        root, reports = evaluation_reports
        bad, good = root / "bad.json", root / "good.json"
        bad.write_text(json.dumps(_mutated(reports[0], case)))
        good.write_text(json.dumps(reports[1]))
        result = CliRunner().invoke(
            main, ["compare", str(good), str(bad), "--out", str(root / "c.csv")]
        )
        assert result.exit_code == 2
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"error: {bad}: ")


class TestEvaluateCommand:
    def test_separated_data_scores_perfectly(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv, "--alpha", "0.5")
        out = tmp_path / "eval.json"
        out_csv = tmp_path / "eval.csv"
        result = runner.invoke(
            main,
            [
                "evaluate",
                str(model_path),
                str(blob_csv),
                "--out",
                str(out),
                "--out-csv",
                str(out_csv),
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert "accuracy: 1.0000" in result.output
        obj = json.loads(out.read_text())
        assert obj["kind"] == "evaluate"
        assert obj["metrics"]["accuracy"] == 1.0
        assert obj["metrics"]["macro_auc"] == 1.0
        assert obj["metrics"]["degenerate"] == []
        assert set(obj["metrics"]["per_class"]) == {"ant", "bee", "cat"}
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "split,metric,class,value"
        assert "all,accuracy,,1.0" in rows

    def test_positive_class_binary_block(self, runner, tmp_path, binary_csv):
        model_path, _ = train_model(runner, tmp_path, binary_csv)
        out = tmp_path / "eval.json"
        result = runner.invoke(
            main,
            [
                "evaluate",
                str(model_path),
                str(binary_csv),
                "--positive-class",
                "hi",
                "--out",
                str(out),
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        obj = json.loads(out.read_text())
        assert obj["positive_class"] == "hi"
        assert obj["metrics"]["binary"]["positive_class"] == "hi"
        assert "precision" in obj["flat"]
        assert obj["flat"]["recall"] == obj["flat"]["recall_class_hi"]

    def test_no_positive_class_means_no_binary_block(self, runner, tmp_path, binary_csv):
        model_path, _ = train_model(runner, tmp_path, binary_csv)
        out = tmp_path / "eval.json"
        runner.invoke(
            main,
            ["evaluate", str(model_path), str(binary_csv), "--out", str(out)],
            catch_exceptions=False,
        )
        obj = json.loads(out.read_text())
        assert obj["metrics"]["binary"] is None
        assert "precision" not in obj["flat"]

    def test_unknown_dataset_label_is_data_error(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        features, _ = blob_features(8.0, 2, seed=9)
        other = write_dataset_csv(tmp_path / "o.csv", features, ["dog"] * 6)
        result = runner.invoke(
            main,
            ["evaluate", str(model_path), str(other), "--out", str(tmp_path / "e.json")],
        )
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: {other}: dataset label 'dog' is not among model classes "
            "['ant', 'bee', 'cat']\n"
        )

    def test_unlabeled_dataset_is_data_error(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        features, _ = blob_features(8.0, 2, seed=9)
        unlabeled = write_dataset_csv(tmp_path / "u.csv", features)
        result = runner.invoke(
            main,
            ["evaluate", str(model_path), str(unlabeled), "--out", str(tmp_path / "e.json")],
        )
        assert result.exit_code == 2

    def test_positive_class_on_multiclass_is_usage_error(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        result = runner.invoke(
            main,
            [
                "evaluate",
                str(model_path),
                str(blob_csv),
                "--positive-class",
                "ant",
                "--out",
                str(tmp_path / "e.json"),
            ],
        )
        assert result.exit_code == 1


class TestLabelDiagnostics:
    """Commands that need labels name the dataset and what they lack."""

    @pytest.mark.parametrize("label_column", [None, "target"])
    @pytest.mark.parametrize("command", ["splits", "train", "gridsearch", "evaluate"])
    def test_missing_label_column_is_named(
        self, runner, tmp_path, blob_csv, command, label_column
    ):
        unlabeled = write_dataset_csv(tmp_path / "u.csv", np.ones((4, 2)))
        if command == "evaluate":
            train_model(runner, tmp_path, blob_csv)
        args = {
            "splits": ["splits", unlabeled, "--seed", "1"],
            "train": ["train", unlabeled],
            "gridsearch": ["gridsearch", unlabeled, str(blob_csv), "--seed", "1"],
            "evaluate": ["evaluate", str(tmp_path / "model.json"), unlabeled],
        }[command]
        args += ["--out-model" if command == "train" else "--out", str(tmp_path / "out.json")]
        if label_column is not None:
            args += ["--label-column", label_column]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr == f"error: {unlabeled}: no label column {label_column or 'label'!r}\n"

    def test_evaluating_a_header_only_file_names_it(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        empty = tmp_path / "empty.csv"
        empty.write_text("f0,f1,label\n")
        result = runner.invoke(
            main, ["evaluate", str(model_path), str(empty), "--out", str(tmp_path / "e.json")]
        )
        assert result.exit_code == 2
        assert result.stderr == f"error: {empty}: no rows to evaluate\n"


class TestCompareCommand:
    def evaluate_to(self, runner, tmp_path, model_path, dataset, name):
        out = tmp_path / name
        result = runner.invoke(
            main,
            ["evaluate", str(model_path), str(dataset), "--out", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        return out

    def test_self_comparison_is_zero(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        a = self.evaluate_to(runner, tmp_path, model_path, blob_csv, "a.json")
        b = self.evaluate_to(runner, tmp_path, model_path, blob_csv, "b.json")
        out = tmp_path / "cmp.csv"
        result = runner.invoke(
            main, ["compare", str(a), str(b), "--out", str(out)], catch_exceptions=False
        )
        assert result.exit_code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for table, _, _, value in rows:
            if value != "":
                assert float(value) == 0.0, table

    def test_swapped_reports_negate_differences(self, runner, tmp_path, blob_csv, binary_csv):
        model_a, _ = train_model(runner, tmp_path, blob_csv, "--alpha", "0.5")
        dir_b = tmp_path / "b"
        dir_b.mkdir()
        model_b, _ = train_model(runner, dir_b, blob_csv, "--alpha", "16", "--copies", "3")
        a = self.evaluate_to(runner, tmp_path, model_a, blob_csv, "a.json")
        b = self.evaluate_to(runner, tmp_path, model_b, blob_csv, "b.json")
        out_ab = tmp_path / "ab.csv"
        out_ba = tmp_path / "ba.csv"
        runner.invoke(main, ["compare", str(a), str(b), "--out", str(out_ab)], catch_exceptions=False)
        runner.invoke(main, ["compare", str(b), str(a), "--out", str(out_ba)], catch_exceptions=False)

        def differences(path):
            out = {}
            for line in path.read_text().splitlines()[1:]:
                table, row, col, value = line.split(",")
                if table == "difference" and value != "":
                    out[row] = float(value)
            return out

        ab = differences(out_ab)
        ba = differences(out_ba)
        assert set(ab) == set(ba)
        for key, value in ab.items():
            assert ba[key] == pytest.approx(-value, abs=1e-12)

    def test_same_stem_names_are_disambiguated(self, runner, tmp_path, blob_csv):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        a_dir = tmp_path / "run1"
        b_dir = tmp_path / "run2"
        a_dir.mkdir()
        b_dir.mkdir()
        a = self.evaluate_to(runner, a_dir, model_path, blob_csv, "eval.json")
        b = self.evaluate_to(runner, b_dir, model_path, blob_csv, "eval.json")
        out = tmp_path / "cmp.csv"
        result = runner.invoke(
            main, ["compare", str(a), str(b), "--out", str(out)], catch_exceptions=False
        )
        assert result.exit_code == 0
        text = out.read_text()
        assert "eval_a" in text
        assert "eval_b" in text

    def test_protocol_report_rejected(self, runner, tmp_path, blob_csv):
        splits = make_splits(runner, tmp_path, blob_csv)
        proto = tmp_path / "proto.json"
        runner.invoke(
            main,
            [
                "gridsearch",
                str(blob_csv),
                str(splits),
                "--grid",
                "encodings=stereographic;alphas=1;copies=1",
                "--k",
                "3",
                "--cv-reps",
                "1",
                "--seed",
                "2",
                "--out",
                str(proto),
            ],
            catch_exceptions=False,
        )
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        ev = self.evaluate_to(runner, tmp_path, model_path, blob_csv, "e.json")
        result = runner.invoke(
            main, ["compare", str(proto), str(ev), "--out", str(tmp_path / "c.csv")]
        )
        assert result.exit_code == 2
        assert "evaluation report" in result.stderr


class TestWithoutScipy:
    """The CLI neither imports nor needs scipy."""

    SCRIPT = (
        "import sys; sys.modules['scipy'] = None; "
        "from pgmclassifier.cli import main; main(sys.argv[1:], prog_name='pgm')"
    )

    def run_blocked(self, tmp_path, *args):
        env = dict(os.environ, PYTHONPATH=str(Path(pgmclassifier.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *map(str, args)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_gridsearch_and_evaluate(self, runner, tmp_path, blob_csv):
        splits = make_splits(runner, tmp_path, blob_csv)
        grid = self.run_blocked(
            tmp_path, "gridsearch", blob_csv, splits,
            "--grid", "encodings=amplitude;alphas=1;copies=1,2",
            "--k", "3", "--cv-reps", "1", "--seed", "4", "--out", "report.json",
        )
        assert grid.returncode == 0, grid.stderr
        assert json.loads((tmp_path / "report.json").read_text())["kind"] == "protocol"
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        evaluation = self.run_blocked(
            tmp_path, "evaluate", model_path, blob_csv, "--out", "eval.json"
        )
        assert evaluation.returncode == 0, evaluation.stderr
        assert json.loads((tmp_path / "eval.json").read_text())["kind"] == "evaluate"


class TestProcessMachineryIsLazy:
    """Importing the CLI, or a command without a grid search, loads no
    process pool and does not look up the BLAS thread control."""

    SCRIPT = (
        "import sys; from pgmclassifier.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:], prog_name='pgm')\n"
        "finally:\n"
        "    from pgmclassifier import selection\n"
        "    print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
        " if m in sys.modules),"
        " selection._openblas_thread_functions.cache_info().currsize)"
    )

    @pytest.mark.parametrize("command", ["--help", "train"])
    def test_command_without_grid_search(self, tmp_path, blob_csv, command):
        args = [command]
        if command == "train":
            args += [str(blob_csv), "--out-model", "model.json"]
        env = dict(os.environ, PYTHONPATH=str(Path(pgmclassifier.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        # numpy itself imports ctypes, so the check is that the BLAS library
        # was never searched for its thread control.
        assert run.stdout.splitlines()[-1] == "[] 0"


class TestMissingOutputDirectory:
    """An output path in a missing directory ends in exit 2 and one error
    line before any input is read, so the inputs here need not be valid."""

    @pytest.mark.parametrize(
        "command, before, option",
        [
            ("splits", ["D", "--seed", "1"], "--out"),
            ("gridsearch", ["D", "D", "--seed", "1"], "--out"),
            ("gridsearch", ["D", "D", "--seed", "1", "--out", "ok"], "--out-csv"),
            ("train", ["D"], "--out-model"),
            ("predict", ["D", "D"], "--out"),
            ("evaluate", ["D", "D"], "--out"),
            ("evaluate", ["D", "D", "--out", "ok"], "--out-csv"),
            ("compare", ["D", "D"], "--out"),
        ],
        ids=[
            "splits", "gridsearch", "gridsearch-csv", "train", "predict", "evaluate",
            "evaluate-csv", "compare",
        ],
    )
    def test_exit_2_naming_the_path(self, runner, tmp_path, blob_csv, command, before, option):
        missing = tmp_path / "missing" / "out.file"
        ok = tmp_path / "ok.file"
        args = [str(blob_csv) if a == "D" else str(ok) if a == "ok" else a for a in before]
        result = runner.invoke(main, [command, *args, option, str(missing)])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [f"error: {missing}: output directory does not exist"]
        assert not ok.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.csv"]


@pytest.fixture(scope="module")
def command_inputs(evaluation_reports):
    """Paths of a dataset, its split file, a model and two evaluation reports."""
    root, _ = evaluation_reports
    data = root / "data.csv"
    return {
        "D": data,
        "S": make_splits(CliRunner(), root, data),
        "M": root / "a" / "model.json",
        "E": root / "a.json",
        "F": root / "b.json",
    }


def run_pgm(args, cwd, preexec_fn=None):
    """``pgm *args`` in a fresh interpreter with one grid worker."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(pgmclassifier.__file__).parents[1]),
        PYTHONDONTWRITEBYTECODE="1",
        PGM_WORKERS="1",
    )
    return subprocess.run(
        [sys.executable, "-m", "pgmclassifier.cli", *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn,
    )


def _limit_file_size():
    resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64))


class TestFileErrors:
    """A file that cannot be read or written ends in exit 2 with one error
    line naming it, never in a traceback; outputs are written in place."""

    GRID = ["--grid", "encodings=amplitude;alphas=1;copies=1", "--k", "2", "--cv-reps", "1"]

    @pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
    @pytest.mark.parametrize(
        "args",
        [
            ["splits", "D", "--seed", "1", "--out", "OUT"],
            ["gridsearch", "D", "S", *GRID, "--seed", "1", "--out", "OUT"],
            ["gridsearch", "D", "S", *GRID, "--seed", "1", "--out", os.devnull, "--out-csv", "OUT"],
            ["train", "D", "--out-model", "OUT"],
            ["predict", "M", "D", "--out", "OUT"],
            ["evaluate", "M", "D", "--out", "OUT"],
            ["evaluate", "M", "D", "--out", os.devnull, "--out-csv", "OUT"],
            ["compare", "E", "F", "--out", "OUT"],
        ],
        ids=[
            "splits", "gridsearch", "gridsearch-csv", "train", "predict", "evaluate",
            "evaluate-csv", "compare",
        ],
    )
    def test_write_past_the_file_size_limit(self, command_inputs, tmp_path, args):
        # A file-size limit fails the write wherever the output goes, a
        # temporary file included, and cannot replace a device node.
        out = tmp_path / "out.file"
        args = [command_inputs.get(a, out if a == "OUT" else a) for a in args]
        run = run_pgm(args, tmp_path, preexec_fn=_limit_file_size)
        assert run.returncode == 2, run.stderr
        (line,) = run.stderr.splitlines()
        assert line.startswith(f"error: {out}: "), line

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc/self/mem")
    @pytest.mark.parametrize(
        "args",
        [
            ["train", "MEM", "--out-model", "OUT"],
            ["predict", "MEM", "D", "--out", "OUT"],
            ["gridsearch", "D", "MEM", "--seed", "1", "--out", "OUT"],
            ["compare", "E", "MEM", "--out", "OUT"],
        ],
        ids=["dataset", "model", "splits", "report"],
    )
    def test_unreadable_input(self, runner, command_inputs, tmp_path, args):
        # Reading /proc/self/mem from offset 0 fails with EIO.
        out = tmp_path / "out.file"
        inputs = {**command_inputs, "MEM": "/proc/self/mem", "OUT": out}
        result = runner.invoke(main, [str(inputs.get(a, a)) for a in args])
        assert result.exit_code == 2, (result.output, result.exception)
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: /proc/self/mem: "), line
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_predict_to_stdout(self, runner, command_inputs, tmp_path):
        model, data = command_inputs["M"], command_inputs["D"]
        out = tmp_path / "preds.csv"
        result = runner.invoke(main, ["predict", str(model), str(data), "--out", str(out)])
        assert result.exit_code == 0
        run = run_pgm(["predict", model, data, "--out", "/dev/stdout"], tmp_path)
        assert run.returncode == 0, run.stderr
        rows = len(out.read_text().splitlines()) - 1
        assert run.stdout == out.read_text() + f"wrote {rows} predictions to /dev/stdout\n"


class TestHelp:
    def test_group_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for command in ("splits", "gridsearch", "train", "predict", "evaluate", "compare"):
            assert command in result.output

    def test_missing_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["train", str(tmp_path / "void.csv"), "--out-model", str(tmp_path / "m.json")],
        )
        assert result.exit_code == 1


def write_quad_csv(path):
    """Two classes of 8 rows with 4 features, so an encoded state has dimension 5."""
    rng = np.random.default_rng(3)
    features = np.vstack([rng.normal(0.0, 1.0, (8, 4)), rng.normal(4.0, 1.0, (8, 4))])
    return write_dataset_csv(path, features, ["lo"] * 8 + ["hi"] * 8)


def _ends_cleanly(result, outputs=()):
    """Exit 0; exit 1 with an ``Error:`` line; or exit 2 with one ``error:``
    line. Never a traceback, and no output file after a failure."""
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )
    if result.exit_code == 1:
        assert any(line.startswith("Error: ") for line in result.stderr.splitlines()), (
            result.stderr
        )
    elif result.exit_code == 2:
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    else:
        assert result.exit_code == 0, result.stderr
    if result.exit_code:
        assert not [path for path in outputs if os.path.exists(path)]


class TestConfigurationValues:
    """The configuration types and click's ranges own every option value; a
    value they refuse ends in exit 1 before any input file is read."""

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_k_below_2_is_usage_error(self, runner, tmp_path, blob_csv, k):
        splits = make_splits(runner, tmp_path, blob_csv)
        out = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["gridsearch", str(blob_csv), str(splits), "--k", k, "--seed", "1", "--out", str(out)],
        )
        assert result.exit_code == 1
        _ends_cleanly(result, [out])

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_alpha_is_usage_error(self, runner, tmp_path, blob_csv, alpha):
        out = tmp_path / "m.json"
        result = runner.invoke(
            main, ["train", str(blob_csv), "--alpha", alpha, "--out-model", str(out)]
        )
        assert result.exit_code == 1
        assert "rescaling factor must be finite and positive" in result.stderr
        _ends_cleanly(result, [out])

    @pytest.mark.parametrize("copies", ["442", "1000000"])
    def test_copies_past_the_float_range_train_gram(self, runner, tmp_path, copies):
        dataset = write_quad_csv(tmp_path / "quad.csv")
        model_path, result = train_model(runner, tmp_path, dataset, "--copies", copies)
        assert "trained gram model" in result.output
        loaded = load_model(model_path)
        assert (loaded.model.engine, loaded.model.copies) == ("gram", int(copies))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_grid_past_the_float_range_runs(self, runner, tmp_path, workers):
        dataset = write_quad_csv(tmp_path / "quad.csv")
        splits = make_splits(runner, tmp_path, dataset, repetitions=1)
        out = tmp_path / "r.json"
        result = runner.invoke(
            main,
            [
                "gridsearch", str(dataset), str(splits),
                "--grid", "encodings=amplitude;alphas=1;copies=1,500",
                "--k", "2", "--cv-reps", "1", "--seed", "3", "--out", str(out),
            ],
            env={"PGM_WORKERS": workers},
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        assert [p["copies"] for p in json.loads(out.read_text())["config"]["grid"]] == [1, 500]

    @pytest.mark.parametrize("option", ["--out", "--out-csv"])
    def test_empty_output_path_is_usage_error(self, runner, tmp_path, blob_csv, option):
        model_path, _ = train_model(runner, tmp_path, blob_csv)
        out = tmp_path / "eval.json"
        paths = {"--out": str(out), "--out-csv": str(tmp_path / "eval.csv"), option: ""}
        result = runner.invoke(
            main, ["evaluate", str(model_path), str(blob_csv), *itertools.chain(*paths.items())]
        )
        assert result.exit_code == 1
        assert f"'{option}': the path is empty" in result.stderr
        _ends_cleanly(result, [out, tmp_path / "eval.csv"])

    @pytest.mark.parametrize(
        "command, values, env",
        [
            ("train", ["--alpha", "nan"], {}),
            ("train", ["--encoding", "amplitude", "--alpha", "inf"], {}),
            ("gridsearch", ["--grid", "alphas=-1"], {}),
            ("gridsearch", ["--grid", "copies=0"], {}),
            ("gridsearch", ["--k", "1"], {}),
            ("gridsearch", [], {"PGM_WORKERS": "0"}),
            ("splits", ["--test-fraction", "nan"], {}),
        ],
        ids=["alpha-nan", "alpha-inf", "grid-alpha", "grid-copies", "k", "workers", "fraction-nan"],
    )
    def test_checked_before_a_malformed_dataset_is_read(
        self, runner, tmp_path, command, values, env
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,label\nnot-a-number,a\n")
        out = tmp_path / "out.json"
        inputs = [str(bad)] * (2 if command == "gridsearch" else 1)
        rest = ["--seed", "1", "--out", str(out)]
        if command == "train":
            rest = ["--out-model", str(out)]
        result = runner.invoke(main, [command, *inputs, *values, *rest], env=env)
        assert result.exit_code == 1, result.stderr
        _ends_cleanly(result, [out])


#: Option values as command-line text. Each run draws one option from its
#: edge values and the others from valid values, or every option valid.
#: Edge counts and seeds are small numbers around each range's edge or far
#: outside every range: a large valid repetition count only asks for a long
#: run. Edge floats are any double, NaN and the infinities included, or text
#: that a float parse refuses or reads as an infinity.
FAR_INTS = st.sampled_from([-(2**63), 2**64])
EDGE_INTS = st.one_of(st.integers(-3, 6), FAR_INTS).map(str)
EDGE_COUNTS = st.one_of(st.integers(-3, 3), st.just(-(2**63))).map(str)
EDGE_FLOATS = st.one_of(
    st.floats().map(repr), st.sampled_from(["1e400", "-1e400", "-0", "1e-320", "x", ""])
)
#: Copy counts 4 and 5 lift 4 features to 625 and 3125 dense dimensions,
#: which valid but slow fits would spend seconds on, so they are not drawn;
#: 441 and 442 straddle the overflow of ``5.0 ** copies``.
VALID_COPIES = st.sampled_from([1, 2, 3, 6, 60, 441, 442, MAX_COPIES]).map(str)
EDGE_COPIES = st.one_of(
    st.integers(-3, 3), st.sampled_from([6, 442, MAX_COPIES + 1]), FAR_INTS
).map(str)
ENCODING_NAMES = st.sampled_from(["amplitude", "stereographic"])


def _grid_strings(alphas, copies, encodings):
    """``--grid`` values of at most 2 x 2 x 2 points."""
    dims = st.tuples(
        st.lists(alphas, min_size=1, max_size=2).map(lambda v: "alphas=" + ",".join(v)),
        st.lists(copies, min_size=1, max_size=2).map(lambda v: "copies=" + ",".join(v)),
        st.lists(encodings, min_size=1, max_size=2).map(lambda v: "encodings=" + ",".join(v)),
    )
    return dims.flatmap(st.permutations).map(";".join)


def _options(outputs, **values):
    """``(option, valid values, edge values)`` triples. An output path's edge
    values are the empty path and its directory."""
    values.update({name: (st.just(name.upper()), st.sampled_from(["", "DIR"])) for name in outputs})
    return [(f"--{name.replace('_', '-')}", *pair) for name, pair in values.items()]


#: Per command: its positional arguments and its ``(option, valid, edge)`` values.
COMMAND_OPTIONS = {
    "splits": (["DATA"], _options(
        ["out"],
        test_fraction=(st.floats(0.05, 0.95).map(repr), EDGE_FLOATS),
        repetitions=(st.integers(1, 3).map(str), EDGE_COUNTS),
        seed=(st.integers(0, 9).map(str), EDGE_INTS),
    )),
    "gridsearch": (["DATA", "SPLITS"], _options(
        ["out", "out_csv"],
        grid=(
            _grid_strings(st.floats(0.01, 100).map(repr), VALID_COPIES, ENCODING_NAMES),
            _grid_strings(EDGE_FLOATS, EDGE_COPIES, st.sampled_from(["fourier", "amplitude", ""])),
        ),
        k=(st.integers(2, 4).map(str), EDGE_INTS),
        cv_reps=(st.integers(1, 2).map(str), EDGE_COUNTS),
        engine=(st.sampled_from(["auto", "gram"]), st.just("dense")),
        seed=(st.integers(0, 9).map(str), EDGE_INTS),
    )),
    "train": (["DATA"], _options(
        ["out_model"],
        alpha=(st.floats(0.01, 100).map(repr), EDGE_FLOATS),
        copies=(VALID_COPIES, EDGE_COPIES),
        engine=(st.sampled_from(["auto", "gram"]), st.just("dense")),
        encoding=(ENCODING_NAMES, st.just("fourier")),
    )),
    "predict": (["MODEL", "DATA"], _options(
        ["out"], label_column=(st.just("label"), st.sampled_from(["f0", "missing", ""]))
    )),
    "evaluate": (["MODEL", "DATA"], _options(
        ["out", "out_csv"],
        label_column=(st.just("label"), st.sampled_from(["f0", "missing", ""])),
        positive_class=(st.sampled_from(["lo", "hi"]), st.sampled_from(["maybe", ""])),
    )),
    "compare": (["REPORT_A", "REPORT_B"], _options(["out"])),
}


@st.composite
def command_lines(draw, command):
    """The arguments of one run of ``command``, with placeholders for its files."""
    positionals, options = COMMAND_OPTIONS[command]
    edge = draw(st.sampled_from([None, *range(len(options))]))
    args = list(positionals)
    for i, (option, valid, edges) in enumerate(options):
        args += [option, draw(edges if i == edge else valid)]
    return args


@pytest.fixture(scope="module")
def option_inputs(tmp_path_factory):
    """Every input file of the six commands, made from one 4-feature dataset,
    and the output paths: ``OUT``, ``OUT_CSV`` and ``OUT_MODEL`` in a
    directory of their own, and ``DIR``, that directory itself."""
    root = tmp_path_factory.mktemp("option-inputs")
    runner = CliRunner()
    data = write_quad_csv(root / "quad.csv")
    files = {"DATA": data, "SPLITS": str(make_splits(runner, root, data, repetitions=1))}
    files["MODEL"] = str(train_model(runner, root, data)[0])
    for name in ("REPORT_A", "REPORT_B"):
        files[name] = str(root / f"eval_{name[-1].lower()}.json")
        result = runner.invoke(
            main, ["evaluate", files["MODEL"], data, "--out", files[name]], catch_exceptions=False
        )
        assert result.exit_code == 0
    files["DIR"] = str(root / "out")
    os.mkdir(files["DIR"])
    for name in ("OUT", "OUT_CSV", "OUT_MODEL"):
        files[name] = os.path.join(files["DIR"], name.lower())
    return files


class TestOptionValues:
    """Any option value ends a command in exit 0, 1 or 2 with its diagnostic,
    and never in a traceback or a partial output file."""

    @pytest.mark.parametrize(
        "command", ["splits", "gridsearch", "train", "predict", "evaluate", "compare"]
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_value_ends_cleanly(self, option_inputs, command, data):
        args = [option_inputs.get(a, a) for a in data.draw(command_lines(command))]
        for name in os.listdir(option_inputs["DIR"]):
            os.unlink(os.path.join(option_inputs["DIR"], name))
        result = CliRunner().invoke(main, [command, *args], env={"PGM_WORKERS": "1"})
        _ends_cleanly(result)
        if result.exit_code:
            assert os.listdir(option_inputs["DIR"]) == []
