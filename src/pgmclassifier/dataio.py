"""File formats: dataset CSV ingestion, split/model/report persistence.

Datasets are plain CSV with a header row, one string-valued label column,
and float feature columns. Splits, models and reports are JSON documents
with a format tag; all floating-point numbers are serialized as decimal
text with full round-trip precision, so saving and reloading a model
reproduces scores bit for bit and rerunning a protocol reproduces report
files byte for byte. Dataset bytes are fingerprinted (newlines normalized
to LF, then SHA-256) and the hash is embedded in split files so a split
plan cannot silently be applied to a different dataset.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .encoding import EncodingConfig, NormalizerParams
from .errors import (
    DatasetFormatError,
    FingerprintMismatch,
    PgmError,
    SchemaMismatch,
)
from .metrics import MetricReport
from .operators import DENSE_DIM_LIMIT, lifted_dimension
from .pgm import (
    MAX_COPIES,
    SCORE_BLOCK,
    DensePgmModel,
    GramPgmModel,
    LabeledStateSet,
    Priors,
    attach_pipeline,
    build_gram_pgm,
)
from .selection import GridPoint, ProtocolResult, SplitPlan

FINGERPRINT_ALGORITHM = "sha256/lf-newlines"
SPLITS_FORMAT = "pgm-splits/1"
MODEL_FORMAT = "pgm-model/1"
REPORT_FORMAT = "pgm-report/1"


@contextmanager
def _opened(path, mode: str, **kwargs):
    """``open(...)``, turning an ``OSError`` into a :class:`PgmError` naming ``path``.

    Every file a command reads or writes is opened here, in place: a device
    such as ``/dev/stdout`` works, and a failed write can leave a partial file.
    """
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise PgmError(f"{path}: {exc.strerror or exc}") from None


def canonical_bytes(raw: bytes) -> bytes:
    """Normalize CRLF and lone CR line endings to LF."""
    if b"\r" not in raw:
        return raw
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def fingerprint_bytes(raw: bytes) -> dict:
    """Content hash of canonicalized bytes, tagged with the algorithm name."""
    digest = hashlib.sha256(canonical_bytes(raw)).hexdigest()
    return {"algorithm": FINGERPRINT_ALGORITHM, "value": digest}


#: Characters of dataset text tokenised at a time: a load holds the cells
#: of one block, not of the whole file. Blocks are cut at a newline.
_BLOCK_CHARS = 1 << 18


@dataclass(frozen=True, eq=False)
class Dataset:
    """Parsed dataset: float feature matrix plus optional class labels.

    ``classes`` holds the distinct label names in sorted order and
    ``label_indices`` each row's position in that list; both are None for
    unlabeled data. No per-row label string is kept. ``path`` is the file
    the dataset was read from, and the fingerprint ties derived artifacts
    to its bytes.
    """

    path: str
    feature_names: tuple
    features: np.ndarray
    classes: tuple | None
    label_indices: np.ndarray | None
    fingerprint: dict

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        if self.classes is None:
            raise DatasetFormatError("dataset has no label column")
        return len(self.classes)


def load_dataset(path, label_column: str = "label") -> Dataset:
    """Read a CSV dataset, strictly validating shape and numeric content.

    The header is mandatory and column names must be unique. Every non-label
    cell must parse as a finite float; empty cells and malformed numbers are
    rejected with a row/column diagnostic (rows counted from 1, excluding
    the header). The label column is optional so prediction inputs may omit
    it; when present, labels are arbitrary nonempty strings.

    The text is tokenised once, in blocks of about :data:`_BLOCK_CHARS`
    characters: text with no ``"`` and no NUL by splitting on newlines and
    commas (:func:`_split_quote_free`), any other text by ``csv.reader``
    (:func:`_split_csv`). Both give the cells ``csv.reader`` gives. A block
    of rows as wide as the header goes through :func:`_parse_fast` into one
    feature matrix, sized from the line count; any other block, or one
    the fast parse refuses, through :func:`_parse_checked`, which names the
    first faulty row or cell. The first header, row or cell fault is held
    while the rest of the text is tokenised, so a line ``csv.reader``
    cannot read is reported first wherever it stands, and no diagnostic
    depends on where blocks end.
    """
    text, fingerprint = _read_text(path)
    quoted = '"' in text or "\0" in text
    blocks = (_split_csv if quoted else _split_quote_free)(path, text)
    header = next(blocks, [])
    fault = None
    if not any(header):
        fault = DatasetFormatError(f"{path}: missing header row")
    elif len(set(header)) != len(header):
        dup = sorted({name for name in header if header.count(name) > 1})
        fault = DatasetFormatError(f"{path}: duplicate column name {dup[0]!r}")
    width = len(header)
    label_pos = header.index(label_column) if label_column in header else -1
    # A valid row holds a character per column, so no file sizes the matrix past its text.
    n_rows = min(text.count("\n") - text.endswith("\n"), len(text) // max(width, 1))
    matrix = np.empty((n_rows, width - (label_pos >= 0)))
    label_codes = np.empty(n_rows if label_pos >= 0 else 0, dtype=np.int64)
    codes: dict = {}
    row = 0
    for cells, rows in blocks:
        if fault is not None:
            continue
        stop = row + (len(rows) if cells is None else len(cells) // width)
        out = matrix[row:stop]
        labels = None if cells is None else _parse_fast(cells, width, label_pos, out)
        if labels is None:
            if cells is not None:
                rows = (cells[i : i + width] for i in range(0, len(cells), width))
            try:
                labels = _parse_checked(path, header, rows, label_pos, row, out)
            except DatasetFormatError as exc:
                fault = exc
                continue
        if label_pos >= 0:
            label_codes[row:stop] = _label_codes(codes, labels)
        row = stop
    if fault is not None:
        raise fault
    classes = label_indices = None
    if label_pos >= 0:
        classes = tuple(sorted(codes))
        position = {name: i for i, name in enumerate(classes)}
        label_indices = np.array([position[name] for name in codes], dtype=np.int64)
        label_indices = label_indices[label_codes[:row]]
    return Dataset(
        path=str(path),
        feature_names=tuple(name for i, name in enumerate(header) if i != label_pos),
        features=matrix[:row],
        classes=classes,
        label_indices=label_indices,
        fingerprint=fingerprint,
    )


def _read_text(path):
    """``(text, fingerprint)`` of a UTF-8 file, both taken after line endings become LF.

    The bytes are dropped on return, so parsing the text does not hold them.
    A leading byte order mark is stripped from the text, so it does not
    become part of the first column name; the fingerprint covers it.
    """
    with _opened(path, "rb") as fh:
        canonical = canonical_bytes(fh.read())
    try:
        return canonical.decode("utf-8").removeprefix("\ufeff"), fingerprint_bytes(canonical)
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not valid UTF-8 ({exc})") from None


def _label_codes(codes: dict, labels) -> np.ndarray:
    """Each label's code in ``codes``, where a label not yet in it gets the next code."""
    for name in set(labels).difference(codes):
        codes[name] = len(codes)
    return np.fromiter(map(codes.__getitem__, labels), dtype=np.int64, count=len(labels))


def _text_blocks(text: str):
    """Runs of whole lines of LF ``text``, each about :data:`_BLOCK_CHARS` long.

    A block ends before a newline, which belongs to no block; the last
    block holds what follows the last newline, if anything does.
    """
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", min(start + _BLOCK_CHARS, end) - 1)
        if cut < 0:
            cut = end
        yield text[start:cut]
        start = cut + 1


def _lines(text: str):
    """The lines of LF ``text``, each with its newline, as ``csv.reader`` reads a file."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start) + 1 or end
        yield text[start:stop]
        start = stop


def _split_quote_free(path, text: str):
    """Header cells, then a ``(cells, rows)`` pair per block, of text free of ``"`` and NUL.

    ``csv.reader`` splits such a line exactly as ``str.split`` does on
    commas, as long as the line is not empty and not longer than
    ``csv.field_size_limit()``. A block whose lines keep these rules and
    have the header's comma count gives its flat row-major ``cells``; any
    other gives its ``rows`` by ``csv.reader``, so rows never trade cells.
    """
    limit = csv.field_size_limit()
    commas = end = 0
    for block in _text_blocks(text):
        lines = block.split("\n")
        start, end = end, end + len(lines)
        if start == 0:
            commas = lines[0].count(",")
        if (
            "" in lines
            or max(map(len, lines)) > limit
            or set(map(str.count, lines, itertools.repeat(","))) != {commas}
        ):
            rows = list(_csv_rows(path, lines, start))
            if start == 0:
                yield rows.pop(0)
            yield None, rows
            continue
        del lines
        cells = block.replace("\n", ",").split(",")
        if start == 0:
            yield cells[: commas + 1]
            del cells[: commas + 1]
        yield cells, None


def _split_csv(path, text: str):
    """Blocks by ``csv.reader`` over :func:`_lines`, as :func:`_split_quote_free` yields them.

    A block holds about :data:`_BLOCK_CHARS` characters' worth of rows of
    the average line length; one with a row not as wide as the header
    gives its ``rows``, any other its ``cells``.
    """
    rows = _csv_rows(path, _lines(text))
    per_block = max(1, _BLOCK_CHARS * (text.count("\n") + 1) // max(len(text), 1))
    header = next(rows, [])
    yield header
    while block := list(itertools.islice(rows, per_block)):
        if any(len(row) != len(header) for row in block):
            yield None, block
        else:
            yield list(itertools.chain.from_iterable(block)), None


def _csv_rows(path, lines, offset: int = 0):
    """Rows by ``csv.reader`` of ``lines``, which follow line ``offset`` of the file.

    A ``csv.Error`` becomes :class:`DatasetFormatError` naming the file's line.
    """
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetFormatError(f"{path}: line {offset + reader.line_num}: {exc}") from None


def _parse_fast(cells: list, width: int, label_pos: int, out: np.ndarray):
    """Labels of a flat row-major cell list whose features go into ``out``, or None.

    ``cells`` holds ``width`` cells for each row of ``out``, and is left
    whole for :func:`_parse_checked`. Every feature cell goes through
    ``float`` in one vectorized pass; a cell ``float`` rejects, a
    non-finite value or an empty label makes it give up.
    """
    labels, features = [], cells
    if label_pos >= 0:
        labels = cells[label_pos::width]
        if "" in labels:
            return None
        features = cells.copy()
        del features[label_pos::width]
    try:
        flat = np.fromiter(map(float, features), dtype=float, count=len(features))
    except ValueError:
        return None
    if not np.isfinite(flat).all():
        return None
    out[...] = flat.reshape(out.shape)
    return labels


def _parse_checked(path, header, rows, label_pos: int, offset: int, out: np.ndarray) -> list:
    """Labels of ``rows``, parsed cell by cell into ``out``; raises at the first bad row or cell.

    Rows are counted from 1, excluding the header; ``rows`` follow row ``offset``.
    """
    labels = []
    for r, row in enumerate(rows, start=offset + 1):
        if len(row) != len(header):
            raise DatasetFormatError(
                f"{path}: row {r} has {len(row)} fields, expected {len(header)}"
            )
        values = []
        for i, cell in enumerate(row):
            if i == label_pos:
                if cell == "":
                    raise DatasetFormatError(
                        f"{path}: row {r} column {header[i]!r}: missing label"
                    )
                labels.append(cell)
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if cell == "" or not math.isfinite(value):
                raise DatasetFormatError(
                    f"{path}: row {r} column {header[i]!r}: "
                    f"expected a finite number, got {cell!r}"
                )
            values.append(value)
        out[r - offset - 1] = values
    return labels


def features_for_model(dataset: Dataset, feature_columns) -> np.ndarray:
    """Select and order dataset columns to match a model's training schema.

    The dataset must contain exactly the model's feature columns (any label
    column aside); missing or unexpected columns name the offender and the
    dataset's file. Columns already in the model's order give the feature
    matrix itself, not a copy.
    """
    feature_columns = tuple(feature_columns)
    have = set(dataset.feature_names)
    want = set(feature_columns)
    missing = sorted(want - have)
    if missing:
        raise SchemaMismatch(f"{dataset.path}: dataset lacks feature column {missing[0]!r}")
    extra = sorted(have - want)
    if extra:
        raise SchemaMismatch(f"{dataset.path}: dataset has unexpected column {extra[0]!r}")
    order = [dataset.feature_names.index(name) for name in feature_columns]
    if order == list(range(len(dataset.feature_names))):
        return dataset.features
    return dataset.features[:, order]


def write_json(path, obj) -> None:
    """Serialize to pretty-printed JSON with a trailing newline."""
    with _opened(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def read_json(path, expected_format: str) -> dict:
    with _opened(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise SchemaMismatch(f"{path}: not valid JSON ({exc})") from None
    tag = obj.get("format") if isinstance(obj, dict) else None
    if tag != expected_format:
        raise SchemaMismatch(f"{path}: expected format {expected_format!r}, got {tag!r}")
    return obj


@dataclass(frozen=True)
class SplitsData:
    """Deserialized split file: plans plus provenance and the path it was read from."""

    fingerprint: dict
    seed: int
    test_fraction: float
    plans: tuple
    path: str


def write_splits(path, plans, *, fingerprint: dict, test_fraction: float, seed: int) -> None:
    obj = {
        "format": SPLITS_FORMAT,
        "fingerprint": fingerprint,
        "seed": int(seed),
        "test_fraction": float(test_fraction),
        "repetitions": [
            {
                "repetition": int(plan.repetition_id),
                "seed": int(plan.seed),
                "train": [int(i) for i in plan.train_indices],
                "test": [int(i) for i in plan.test_indices],
            }
            for plan in plans
        ],
    }
    write_json(path, obj)


def read_splits(path) -> SplitsData:
    """Parse a split file; a field no split writer could produce raises :class:`SchemaMismatch`.

    Seeds, repetition ids and row indices must be JSON integers (a fraction
    or a boolean is refused, not truncated) and repetition ids distinct;
    :func:`check_splits` then ties the plans to a dataset.
    """
    obj = read_json(path, SPLITS_FORMAT)

    def check(ok, message):
        if not ok:
            raise SchemaMismatch(f"{path}: {message}")

    try:
        fingerprint, seed = obj["fingerprint"], obj["seed"]
        fraction, reps = obj["test_fraction"], obj["repetitions"]
        check(type(seed) is int, "seed must be an integer")
        check(
            isinstance(fingerprint, dict) and all(type(v) is str for v in fingerprint.values()),
            "fingerprint must be an object of strings",
        )
        check(
            type(fraction) in (int, float) and 0 < fraction < 1, "test_fraction must lie in (0, 1)"
        )
        check(isinstance(reps, list) and reps, "split file contains no repetitions")
        plans = []
        for i, rep in enumerate(reps):
            fields = [rep["repetition"], rep["seed"], *rep["train"], *rep["test"]]
            check(
                all(type(v) is int for v in fields),
                f"repetitions[{i}]: ids, seeds and row indices must be integers",
            )
            plans.append(
                SplitPlan(
                    repetition_id=rep["repetition"],
                    train_indices=np.array(rep["train"], dtype=np.int64),
                    test_indices=np.array(rep["test"], dtype=np.int64),
                    seed=rep["seed"],
                )
            )
    except (KeyError, TypeError, OverflowError) as exc:
        raise SchemaMismatch(f"{path}: malformed split file ({exc!r})") from None
    ids = [plan.repetition_id for plan in plans]
    check(len(set(ids)) == len(ids), "repetition ids must be distinct")
    return SplitsData(fingerprint, seed, float(fraction), tuple(plans), str(path))


def check_splits(splits: SplitsData, dataset: Dataset) -> None:
    """Verify the split file belongs to the dataset and indexes it validly."""
    if splits.fingerprint != dataset.fingerprint:
        raise FingerprintMismatch(
            f"{splits.path}: split file fingerprint does not match the dataset "
            f"({splits.fingerprint.get('value', '?')[:12]} vs "
            f"{dataset.fingerprint['value'][:12]})"
        )
    m = dataset.n_samples
    for plan in splits.plans:
        combined = np.concatenate([plan.train_indices, plan.test_indices])
        if combined.size != m or not np.array_equal(np.sort(combined), np.arange(m)):
            raise SchemaMismatch(
                f"{splits.path}: repetition {plan.repetition_id}: train/test indices are not a "
                f"disjoint exhaustive partition of {m} rows"
            )


def _encoding_dict(config: EncodingConfig) -> dict:
    return {
        "encoding": config.encoding,
        "alpha": float(config.alpha),
        "normalizer": config.normalizer,
    }


def _normalizer_dict(params: NormalizerParams) -> dict:
    return {
        "kind": params.kind,
        "location": np.asarray(params.location, dtype=float).tolist(),
        "scale": np.asarray(params.scale, dtype=float).tolist(),
    }


def save_model(path, model, classes, feature_columns) -> None:
    """Persist a fitted model with its pipeline and label dictionary."""
    if model.encoding is None or model.normalizer is None:
        raise SchemaMismatch("only models fitted with a feature pipeline can be saved")
    obj = {
        "format": MODEL_FORMAT,
        "engine": model.engine,
        "encoding": _encoding_dict(model.encoding),
        "normalizer": _normalizer_dict(model.normalizer),
        "priors": {
            "mode": model.priors.mode,
            "values": np.asarray(model.priors.values, dtype=float).tolist(),
        },
        "copies": int(model.copies),
        "classes": list(classes),
        "feature_columns": list(feature_columns),
    }
    if isinstance(model, DensePgmModel):
        obj["payload"] = {
            "dim": int(model.dim),
            "povm": model.povm.tolist(),
        }
    elif isinstance(model, GramPgmModel):
        obj["payload"] = {
            "train_states": model.train_states.tolist(),
            "labels": model.labels.tolist(),
        }
    else:
        raise SchemaMismatch(f"cannot persist model of type {type(model).__name__}")
    write_json(path, obj)


@dataclass(frozen=True)
class LoadedModel:
    """A reloaded model plus the label dictionary and column schema."""

    model: object
    classes: tuple
    feature_columns: tuple


def load_model(path) -> LoadedModel:
    """Reload a saved model; a field no fit could produce raises :class:`SchemaMismatch`.

    The copy count and a dense model's ``dim`` must be JSON integers (a
    fraction, a string or a boolean is refused, not truncated), and
    ``classes`` and ``feature_columns`` lists of distinct strings. Counts,
    shapes and finiteness are checked before any numpy work. A Gram
    model is then rebuilt from its training states by the fit's own
    :class:`LabeledStateSet` and :func:`build_gram_pgm`; the ``M``, ``P``
    and ``weights`` keys of older files are ignored.
    """
    obj = read_json(path, MODEL_FORMAT)
    engine = obj.get("engine")
    if engine not in ("dense", "gram"):
        raise SchemaMismatch(f"{path}: unknown engine tag {engine!r}")
    try:
        encoding = EncodingConfig(**obj["encoding"])
        norm = obj["normalizer"]
        normalizer = NormalizerParams(
            kind=norm["kind"],
            location=np.array(norm["location"], dtype=float),
            scale=np.array(norm["scale"], dtype=float),
        )
        priors = Priors(
            mode=obj["priors"]["mode"],
            values=np.array(obj["priors"]["values"], dtype=float),
        )
        integers = {"copies": obj["copies"]}
        copies = int(obj["copies"])
        classes, feature_columns = obj["classes"], obj["feature_columns"]
        payload = obj["payload"]
        if engine == "dense":
            stored = {"povm": np.array(payload["povm"], dtype=float)}
            integers["dim"] = payload["dim"]
            dim = int(payload["dim"])
        else:
            stored = {"train_states": np.array(payload["train_states"], dtype=float, ndmin=1)}
            labels = np.array(payload["labels"])  # LabeledStateSet refuses a non-integer dtype
            dim = stored["train_states"].shape[-1]
    except (KeyError, TypeError, ValueError, OverflowError, PgmError) as exc:
        raise SchemaMismatch(f"{path}: malformed model file ({exc!r})") from None

    def fail(message):
        raise SchemaMismatch(f"{path}: {message}")

    if not 1 <= copies <= MAX_COPIES:  # named as out of range whatever its JSON type
        fail(f"copy count must lie in [1, {MAX_COPIES}], got {copies}")
    for key, value in integers.items():
        if type(value) is not int:
            fail(f"{key} must be an integer, got {value!r}")
    for key, names in (("classes", classes), ("feature_columns", feature_columns)):
        if type(names) is not list or len({v for v in names if type(v) is str}) != len(names):
            fail(f"{key} must be a list of distinct strings")
    classes, feature_columns = tuple(classes), tuple(feature_columns)
    n = len(classes)
    n_features = len(feature_columns)
    if dim != n_features + 1:
        fail(f"state dimension {dim} for {n_features} feature columns")
    if engine == "dense":
        side = lifted_dimension(dim, copies)
        shape = stored["povm"].shape
        if side is None:
            fail(f"lifted dimension {dim}^{copies} exceeds the dense limit {DENSE_DIM_LIMIT}")
        if shape != (n, side, side):
            fail(f"povm of shape {shape} for {n} class names, expected {(n, side, side)}")
    if priors.values.shape != (n,):
        fail(f"{priors.values.size} priors for {n} classes")
    stored.update(location=normalizer.location, scale=normalizer.scale)
    for name in ("location", "scale"):
        if stored[name].shape != (n_features,):
            fail(f"normalizer {name} of shape {stored[name].shape}, expected {(n_features,)}")
    for name, array in stored.items():
        if not np.all(np.isfinite(array)):
            fail(f"{name} has non-finite entries")
    if not np.all(normalizer.scale > 0.0):
        fail("normalizer scale must be positive")
    if engine == "dense":
        model = DensePgmModel(stored["povm"], priors, copies, dim)
    else:
        try:
            train = LabeledStateSet(stored["train_states"], labels, n)
            model = build_gram_pgm(train, priors, copies)
        except PgmError as exc:
            raise SchemaMismatch(f"{path}: {exc}") from None
    model = attach_pipeline(model, encoding, normalizer)
    return LoadedModel(model=model, classes=classes, feature_columns=feature_columns)


def _metric_and_class(key: str, classes) -> tuple:
    for i, name in enumerate(classes):
        suffix = f"_class_{i}"
        if key.endswith(suffix):
            return key[: -len(suffix)], str(name)
    return key, ""


def flat_with_names(flat: dict, classes) -> dict:
    """``flat`` with each ``_class_<i>`` key suffix naming class ``i`` instead."""
    out = {}
    for key, value in flat.items():
        metric, cls = _metric_and_class(key, classes)
        out[f"{metric}_class_{cls}" if cls else metric] = value
    return out


def report_dict(report: MetricReport, classes, positive_name: str | None) -> dict:
    """Nested JSON form of a metric report with named classes."""
    per_class = {}
    for i, name in enumerate(classes):
        rates = report.per_class[i]
        per_class[str(name)] = {
            "auc": report.per_class_auc[i],
            "precision": rates.precision,
            "recall": rates.recall,
            "specificity": rates.specificity,
            "f1": rates.f1,
        }
    binary = None
    if report.binary is not None:
        binary = {
            "positive_class": positive_name,
            "precision": report.binary.precision,
            "recall": report.binary.recall,
            "specificity": report.binary.specificity,
            "f1": report.binary.f1,
        }
    return {
        "n_samples": report.n_samples,
        "accuracy": report.accuracy,
        "macro_accuracy": report.macro_accuracy,
        "macro_auc": report.macro_auc,
        "per_class": per_class,
        "binary": binary,
        "degenerate": list(flat_with_names(dict.fromkeys(report.degenerate), classes)),
    }


def _grid_point_dict(point: GridPoint) -> dict:
    return {
        "encoding": point.encoding,
        "alpha": float(point.alpha),
        "copies": int(point.copies),
        "prior_mode": point.prior_mode,
    }


def evaluation_report_dict(
    report: MetricReport,
    classes,
    *,
    dataset_fingerprint: dict,
    model,
    positive_name: str | None,
) -> dict:
    """Nested JSON form of one evaluation, echoing ``model``'s configuration."""
    model_echo = {"engine": model.engine, **_encoding_dict(model.encoding), "copies": model.copies}
    return {
        "format": REPORT_FORMAT,
        "kind": "evaluate",
        "dataset_fingerprint": dataset_fingerprint,
        "model": model_echo,
        "classes": list(map(str, classes)),
        "positive_class": positive_name,
        "metrics": report_dict(report, classes, positive_name),
        "flat": flat_with_names(report.flat(), classes),
    }


def read_evaluation(path):
    """``(auc_by_class, flat)`` of an evaluation report, each value null or a number in [0, 1]."""
    obj = read_json(path, REPORT_FORMAT)
    if obj.get("kind") != "evaluate":
        raise SchemaMismatch(f"{path}: expected an evaluation report, got {obj.get('kind')!r}")
    try:
        aucs = {cls: entry["auc"] for cls, entry in obj["metrics"]["per_class"].items()}
        flat = obj["flat"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise SchemaMismatch(f"{path}: malformed evaluation report ({exc!r})") from None
    for name, table in (("per-class AUCs", aucs), ("flat metrics", flat)):
        if not isinstance(table, dict) or not all(
            value is None or (type(value) in (int, float) and 0.0 <= value <= 1.0)
            for value in table.values()
        ):
            raise SchemaMismatch(f"{path}: {name} must be null or numbers in [0, 1]")
    return aucs, flat


def protocol_report_dict(
    result: ProtocolResult,
    classes,
    *,
    dataset_fingerprint: dict,
    seed: int,
    positive_name: str | None,
) -> dict:
    """Nested JSON form of a full protocol run, config echo included."""
    config = result.config
    selection = result.selection
    return {
        "format": REPORT_FORMAT,
        "kind": "protocol",
        "dataset_fingerprint": dataset_fingerprint,
        "seed": int(seed),
        "config": {
            "k": config.k,
            "cv_repetitions": config.cv_repetitions,
            "normalizer": config.normalizer,
            "engine": config.engine,
            "positive_class": positive_name,
            "grid": [_grid_point_dict(p) for p in result.grid],
        },
        "classes": list(map(str, classes)),
        "selection": {
            "winners_by_split": list(selection.winner_indices),
            "frequency": {str(k): v for k, v in sorted(selection.frequency.items())},
            "tied_after_frequency": list(selection.tied_after_frequency),
            "mean_test_auc": {
                str(k): v for k, v in sorted(selection.mean_test_auc.items())
            },
            "tied_after_auc": list(selection.tied_after_auc),
            "chosen_index": selection.chosen_index,
            "chosen": _grid_point_dict(selection.chosen),
        },
        "splits": [
            {
                "repetition": rec.repetition_id,
                "winner_index": rec.winner_index,
                "winner": _grid_point_dict(rec.winner),
                "cv_objective": rec.cv_objective,
                "cv_metrics": flat_with_names(rec.cv_metrics, classes),
                "test_metrics": report_dict(rec.test_report, classes, positive_name),
            }
            for rec in result.records
        ],
        "aggregate": {
            "test": {
                "mean": flat_with_names(result.test_aggregate.mean, classes),
                "std": flat_with_names(result.test_aggregate.std, classes),
                "count": flat_with_names(result.test_aggregate.count, classes),
            },
            "cv": {
                "mean": flat_with_names(result.cv_aggregate.mean, classes),
                "std": flat_with_names(result.cv_aggregate.std, classes),
                "count": flat_with_names(result.cv_aggregate.count, classes),
            },
        },
    }


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_long_csv(path, rows, header=("split", "metric", "class", "value")) -> None:
    """Write four-field rows under ``header``; the last field is a number or None (empty)."""
    with _opened(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for *keys, value in rows:
            writer.writerow([*keys, _csv_value(value)])


def evaluation_csv_rows(report: MetricReport, classes):
    """Long-format rows for a single evaluation (split column = 'all')."""
    rows = []
    for key, value in report.flat().items():
        metric, cls = _metric_and_class(key, classes)
        rows.append(("all", metric, cls, value))
    return rows


def protocol_csv_rows(result: ProtocolResult, classes):
    """Long-format rows: per-split test metrics, then mean/std aggregates."""
    rows = []
    for rec in result.records:
        for key, value in rec.test_report.flat().items():
            metric, cls = _metric_and_class(key, classes)
            rows.append((str(rec.repetition_id), metric, cls, value))
        for key, value in rec.cv_metrics.items():
            metric, cls = _metric_and_class(key, classes)
            rows.append((str(rec.repetition_id), f"cv_{metric}", cls, value))
    for stat, table in (("mean", result.test_aggregate.mean), ("std", result.test_aggregate.std)):
        for key, value in table.items():
            metric, cls = _metric_and_class(key, classes)
            rows.append((stat, metric, cls, value))
    for stat, table in (("mean", result.cv_aggregate.mean), ("std", result.cv_aggregate.std)):
        for key, value in table.items():
            metric, cls = _metric_and_class(key, classes)
            rows.append((stat, f"cv_{metric}", cls, value))
    return rows


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it inside a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[: -len(",\n")]


def write_predictions_csv(path, predicted_names, scores, classes) -> None:
    """Write per-row predictions: row index, label, one score column per class.

    The bytes are those of ``csv.writer`` with scores as ``repr`` text; each
    distinct name is quoted once and score rows are joined directly, since
    ``repr`` of a float never needs quoting. Rows are built and written
    :data:`~pgmclassifier.pgm.SCORE_BLOCK` at a time, one string per block.
    """
    scores = np.asarray(scores, dtype=float)
    if len(predicted_names) != scores.shape[0]:
        raise ValueError(
            f"{len(predicted_names)} predicted names for {scores.shape[0]} score rows"
        )
    fields = {name: _csv_field(name) for name in dict.fromkeys(predicted_names)}
    with _opened(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "predicted"] + [f"score_{name}" for name in classes])
        for start in range(0, scores.shape[0], SCORE_BLOCK):
            stop = min(start + SCORE_BLOCK, scores.shape[0])
            columns = [map(repr, column) for column in scores[start:stop].T.tolist()]
            names = map(fields.__getitem__, predicted_names[start:stop])
            rows = zip(map(str, range(start, stop)), names, *columns)
            fh.write("".join([",".join(row) + "\n" for row in rows]))
