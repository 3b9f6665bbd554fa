"""Multi-class classification via the pretty good measurement.

Feature vectors are mapped to pure quantum states, each class is summarized
by the mixture of its encoded states (optionally lifted to tensor copies),
and the pretty good measurement built from those centroids scores samples
through the Born rule. A Gram-space engine keeps the construction tractable
at high copy counts. The package also ships the evaluation metric suite and
a seeded, reproducible grid-search experiment harness with a CLI.

The package root exports the documented library API; everything else is
imported from its defining module, e.g.
``from pgmclassifier.dataio import load_dataset``.
"""

from .encoding import EncodingConfig
from .errors import PgmError
from .metrics import auc_ovr, metric_difference, report_from_predictions, win_loss
from .pgm import PgmConfig, fit_pgm, predict_batch
from .selection import (
    GridPoint,
    ProtocolConfig,
    default_grid,
    grid_search,
    make_grid,
    run_protocol,
    select_robust_config,
    stratified_holdout,
)

__version__ = "0.1.0"

__all__ = [
    "PgmConfig",
    "fit_pgm",
    "predict_batch",
    "EncodingConfig",
    "GridPoint",
    "make_grid",
    "default_grid",
    "grid_search",
    "ProtocolConfig",
    "stratified_holdout",
    "run_protocol",
    "select_robust_config",
    "report_from_predictions",
    "auc_ovr",
    "win_loss",
    "metric_difference",
    "PgmError",
    "__version__",
]
