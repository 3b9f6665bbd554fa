"""The package root exports the documented library API, and the README example runs."""

import os
import re
from pathlib import Path

import numpy as np
import pytest

import pgmclassifier
from pgmclassifier import dataio, encoding, errors, metrics, operators, pgm, selection

#: The names README.md documents at the package root, by defining module.
ROOT_API = {
    pgm: ("PgmConfig", "fit_pgm", "predict_batch"),
    encoding: ("EncodingConfig",),
    selection: (
        "GridPoint",
        "make_grid",
        "default_grid",
        "grid_search",
        "ProtocolConfig",
        "stratified_holdout",
        "run_protocol",
        "select_robust_config",
    ),
    metrics: ("report_from_predictions", "auc_ovr", "win_loss", "metric_difference"),
    errors: ("PgmError",),
}


def test_root_exports_exactly_the_documented_api():
    names = [name for names in ROOT_API.values() for name in names]
    assert pgmclassifier.__all__ == names + ["__version__"]
    for module, names in ROOT_API.items():
        for name in names:
            assert getattr(pgmclassifier, name) is getattr(module, name), name


def test_readme_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


_LABELS = np.array([0, 0, 1, 1])
_FEATURES = np.arange(8.0).reshape(4, 2)

#: One call per argument check of the library, each given a value it refuses.
_BAD_ARGUMENTS = {
    "PgmConfig-copies": lambda: pgm.PgmConfig(copies=0),
    "stable_power-exponent": lambda: pgm.stable_power(np.ones(2), 0),
    "tensor_power-copies": lambda: operators.tensor_power(np.ones(2), 0),
    "write_predictions_csv-lengths": lambda: dataio.write_predictions_csv(
        os.devnull, ["a"], np.ones((2, 2)), ("a", "b")
    ),
    "stratified_holdout-fraction": lambda: selection.stratified_holdout(_LABELS, 1.0, 1, 0),
    "stratified_holdout-repetitions": lambda: selection.stratified_holdout(_LABELS, 0.5, 0, 0),
    "stratified_holdout-repetitions-float": lambda: selection.stratified_holdout(
        _LABELS, 0.5, 2.5, 0
    ),
    "stratified_holdout-repetitions-bool": lambda: selection.stratified_holdout(
        _LABELS, 0.5, True, 0
    ),
    "stratified_holdout-seed-float": lambda: selection.stratified_holdout(_LABELS, 0.5, 1, 2.5),
    "stratified_holdout-seed-bool": lambda: selection.stratified_holdout(_LABELS, 0.5, 1, True),
    "stratified_kfold-k": lambda: selection.stratified_kfold(_LABELS, 1, 0),
    "stratified_kfold-k-float": lambda: selection.stratified_kfold(_LABELS, 2.5, 0),
    "stratified_kfold-seed-float": lambda: selection.stratified_kfold(_LABELS, 2, 2.5),
    "stratified_kfold-seed-bool": lambda: selection.stratified_kfold(_LABELS, 2, False),
    "stratified_kfold-seed-negative": lambda: selection.stratified_kfold(_LABELS, 2, -1),
    "grid_search-seed-float": lambda: selection.grid_search(
        _FEATURES, _LABELS, 2, selection.make_grid(), seed=1.0, k=2
    ),
    "run_protocol-seed-bool": lambda: selection.run_protocol(
        np.arange(16.0).reshape(8, 2),
        np.repeat([0, 1], 4),
        2,
        selection.stratified_holdout(np.repeat([0, 1], 4), 0.25, 1, 0),
        selection.ProtocolConfig(seed=True, grid=selection.make_grid(copies=(1,)), k=2),
    ),
    "grid_search-grid": lambda: selection.grid_search(_FEATURES, _LABELS, 2, [], seed=0),
    "grid_search-cv_repetitions": lambda: selection.grid_search(
        _FEATURES, _LABELS, 2, selection.make_grid(), seed=0, cv_repetitions=0
    ),
    "grid_search-cv_repetitions-float": lambda: selection.grid_search(
        _FEATURES, _LABELS, 2, selection.make_grid(), seed=0, k=2, cv_repetitions=1.5
    ),
    "grid_search-cv_repetitions-bool": lambda: selection.grid_search(
        _FEATURES, _LABELS, 2, selection.make_grid(), seed=0, k=2, cv_repetitions=True
    ),
    "grid_search-k-float": lambda: selection.grid_search(
        _FEATURES, _LABELS, 2, selection.make_grid(), seed=0, k=2.5
    ),
    "make_grid-copies": lambda: selection.grid_search(
        _FEATURES, _LABELS, 2, selection.make_grid(copies=(2.5,)), seed=0, k=2
    ),
    "grid_search-workers": lambda: selection.grid_search(
        _FEATURES, _LABELS, 2, selection.make_grid(), seed=0, k=2, workers=0
    ),
    "select_robust_config-lengths": lambda: selection.select_robust_config([0], [], [None]),
    "select_robust_config-index-negative": lambda: selection.select_robust_config(
        [-1], [0.9], [None, None]
    ),
    "select_robust_config-index-out-of-range": lambda: selection.select_robust_config(
        [5], [0.9], [None, None]
    ),
    "select_robust_config-index-bool": lambda: selection.select_robust_config(
        [True], [0.9], [None, None]
    ),
    "select_robust_config-index-string": lambda: selection.select_robust_config(
        ["1"], [0.9], [None, None]
    ),
    "run_protocol-splits": lambda: selection.run_protocol(
        _FEATURES, _LABELS, 2, [], selection.ProtocolConfig(seed=0)
    ),
}


@pytest.mark.parametrize("call", _BAD_ARGUMENTS.values(), ids=_BAD_ARGUMENTS.keys())
def test_argument_errors_are_pgm_errors(call):
    # InvalidArgument is also a ValueError, so callers catching that still do.
    with pytest.raises(errors.InvalidArgument) as caught:
        call()
    assert isinstance(caught.value, errors.PgmError)
    assert isinstance(caught.value, ValueError)
