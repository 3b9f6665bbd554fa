"""The package root exports the documented library API, and the README example runs."""

import re
from pathlib import Path

import pgmclassifier
from pgmclassifier import encoding, errors, metrics, pgm, selection

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
