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

import array
import collections
import csv
import hashlib
import io
import itertools
import json
import math
import operator
from contextlib import closing, contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .encoding import EncodingConfig, NormalizerParams
from .errors import (
    DatasetFormatError,
    FingerprintMismatch,
    InvalidArgument,
    PgmError,
    SchemaMismatch,
)
from .metrics import MetricReport
from .operators import DENSE_DIM_LIMIT, lifted_dimension, one_blas_thread
from .pgm import (
    MAX_COPIES,
    SCORE_BLOCK,
    DensePgmModel,
    GramPgmModel,
    LabeledStateSet,
    Priors,
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


#: Size hint of a dataset block: whole lines, read, hashed and screened at a
#: time, until they pass this many characters.
_BLOCK_CHARS = 1 << 18

#: Characters that keep a block from numpy's reader: ``"`` and NUL, which
#: ``csv.reader`` treats apart, and ``\x1c``-``\x1f``, which ``np.loadtxt``
#: strips from a number as whitespace where ``float`` refuses them.
_UNSCREENED = ('"', "\0", "\x1c", "\x1d", "\x1e", "\x1f")


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

    One pass over any file, a pipe included, by :func:`_line_blocks`, which
    hashes it and names a byte that is not UTF-8. Blocks go to numpy's C
    reader (:func:`_loadtxt_block`) until the first one it might read
    otherwise than ``csv.reader`` and ``float`` do; that block and the rest
    go to those, row by row, into the same growing arrays of floats and
    label codes. So the datasets and diagnostics are those of ``csv.reader``
    and ``float``. The first fault in file order is named, be it a byte that
    is not UTF-8, a line ``csv.reader`` cannot read, or a header, row or
    cell fault, and nothing after it is read.
    """
    digest = hashlib.sha256()
    values, row_codes = array.array("d"), array.array("q")
    # Each new label gets the next code, with no Python call for a label seen before.
    codes = collections.defaultdict()
    codes.default_factory = codes.__len__

    def fail(message):
        raise DatasetFormatError(f"{path}: {message}")

    # A fault leaves the stream unread: close its file now, not when the caller
    # lets go of the exception.
    with closing(_line_blocks(path, digest)) as blocks:
        header, r, rest = None, 0, iter(())
        for block in blocks:
            try:
                header, features, labels = _loadtxt_block(block, header, label_column, codes)
            except ValueError:
                # numpy may have coded labels of this block already; csv.reader reads
                # the same lines, in the same order, so it gives each the same code.
                rest = itertools.chain([block], blocks)
                break
            values.frombytes(features.view(np.uint8))
            if labels is not None:
                row_codes.frombytes(labels.view(np.uint8))
            r += len(features)
        before = r + (header is not None)  # numpy takes no empty line
        # map, unlike a generator expression, holds no block read to its end.
        lines = itertools.chain.from_iterable(map(operator.itemgetter(1), rest))
        rows = _csv_rows(path, csv.reader(lines), before)
        if header is None:
            header = next(rows, [])
            if not any(header):
                fail("missing header row")
            if len(set(header)) != len(header):
                dup = min(name for name, n in collections.Counter(header).items() if n > 1)
                fail(f"duplicate column name {dup!r}")
        width = len(header)
        label_pos = header.index(label_column) if label_column in header else -1
        for r, row in enumerate(rows, start=r + 1):
            if len(row) != width:
                fail(f"row {r} has {len(row)} fields, expected {width}")
            for i, cell in enumerate(row):
                if i == label_pos:
                    if cell == "":
                        fail(f"row {r} column {header[i]!r}: missing label")
                    row_codes.append(codes[cell])
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    fail(f"row {r} column {header[i]!r}: expected a finite number, got {cell!r}")
                values.append(value)
    classes = label_indices = None
    if label_pos >= 0:
        classes = tuple(sorted(codes))
        position = {name: i for i, name in enumerate(classes)}
        label_indices = np.array([position[name] for name in codes], dtype=np.int64)
        label_indices = label_indices[np.frombuffer(row_codes, "q")]
    return Dataset(
        path=str(path),
        feature_names=tuple(name for i, name in enumerate(header) if i != label_pos),
        features=np.frombuffer(values).reshape(r, width - (label_pos >= 0)),
        classes=classes,
        label_indices=label_indices,
        fingerprint={"algorithm": FINGERPRINT_ALGORITHM, "value": digest.hexdigest()},
    )


def _line_blocks(path, digest):
    """``(text, lines)`` per block of the file ``path``: whole lines, all but a last ending LF.

    Python's io layer decodes UTF-8 with ``errors="surrogateescape"``, makes
    CR and CRLF LF and cuts the lines, :data:`_BLOCK_CHARS` characters and
    the rest of a line at a time; ``text``, their join, goes to ``digest`` as
    UTF-8, so the hash covers the canonical bytes and a byte order mark, which
    the first block's ``lines`` then drops. A byte that is not UTF-8 is a
    fault of the line holding it: the whole lines before that line come as a
    last block, then the ``not valid UTF-8`` diagnostic is raised, with
    positions in the canonical bytes.
    """
    hashed = 0
    with _opened(path, "r", encoding="utf-8", newline=None, errors="surrogateescape") as fh:
        while lines := fh.readlines(_BLOCK_CHARS):
            text, fault = "".join(lines), None
            if not hashed:
                lines[0] = lines[0].removeprefix("\ufeff")
            try:
                data = text.encode()
            except UnicodeEncodeError as exc:  # at the first escaped byte
                at = hashed + len(text[: exc.start].encode())
                # The block ends its line, so it holds the sequence and the byte after it.
                raw = text[exc.start :].encode(errors="surrogateescape")
                try:
                    raw.decode()
                except UnicodeDecodeError as error:
                    span = f"bytes in position {at}-{at + error.end - 1}"
                    if error.end == 1:
                        span = f"byte 0x{raw[0]:02x} in position {at}"
                    message = f"'utf-8' codec can't decode {span}: {error.reason}"
                    fault = DatasetFormatError(f"{path}: not valid UTF-8 ({message})")
                text = text[: text.rfind("\n", 0, exc.start) + 1]
                lines, data = lines[: text.count("\n")], text.encode()
            digest.update(data)
            hashed += len(data)
            del data  # not held while the block is parsed
            if lines:
                yield text, lines
            if fault is not None:
                raise fault


def _loadtxt_block(block, header, label_column: str, codes):
    """``(header, features, label codes or None)`` of a :func:`_line_blocks` block, by ``loadtxt``.

    ``header`` None reads the header from the block's first line. New labels
    get the next code in ``codes``. Raises ``ValueError`` wherever
    ``loadtxt`` might read a line otherwise than ``csv.reader`` and ``float``
    do: at a character of :data:`_UNSCREENED`, an empty line, a line past
    ``csv.field_size_limit()``, a header fault, a cell ``loadtxt`` refuses
    (such as ``1_0``; it reads no cell ``float`` refuses, and each cell to
    ``float``'s value), an empty label, a non-finite value, or a table not as
    wide as the header or not of one row per line.
    """
    text, lines = block
    if any(map(text.__contains__, _UNSCREENED)) or "\n" in lines:
        raise ValueError
    if max(map(len, lines)) > csv.field_size_limit():  # newline counted: errs toward csv.reader
        raise ValueError
    rows = lines
    if header is None:
        header, rows = lines[0].removesuffix("\n").split(","), lines[1:]
        if not any(header) or len(set(header)) != len(header):
            raise ValueError
    label_pos = header.index(label_column) if label_column in header else -1
    table = np.empty((0, len(header)))
    if rows:
        # encoding=None hands converters str cells; numpy 1.x defaults to Latin-1 bytes.
        table = np.loadtxt(
            rows,
            delimiter=",",
            comments=None,
            ndmin=2,
            encoding=None,
            converters={label_pos: codes.__getitem__} if label_pos >= 0 else None,
        )
    if table.shape != (len(rows), len(header)) or "" in codes:
        raise ValueError
    labels = None
    if label_pos >= 0:
        labels = table[:, label_pos].astype(np.int64)
        table = np.delete(table, label_pos, axis=1)
    if not np.isfinite(table).all():
        raise ValueError
    return header, table, labels


def _csv_rows(path, reader, before: int):
    """The rows of ``reader``, a ``csv.reader`` that starts after line
    ``before`` of the file; a ``csv.Error`` becomes :class:`DatasetFormatError`
    naming the file's line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetFormatError(f"{path}: line {before + reader.line_num}: {exc}") from None


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
    :class:`LabeledStateSet` and :func:`build_gram_pgm` at one BLAS thread
    (:func:`one_blas_thread`); the ``M``, ``P`` and ``weights`` keys of
    older files are ignored.
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

    if normalizer.kind != encoding.normalizer:
        fail(f"normalizer kind {normalizer.kind!r}, expected {encoding.normalizer!r}")
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
            with one_blas_thread():
                model = build_gram_pgm(train, priors, copies)
        except PgmError as exc:
            raise SchemaMismatch(f"{path}: {exc}") from None
    model = replace(model, encoding=encoding, normalizer=normalizer)
    return LoadedModel(model=model, classes=classes, feature_columns=feature_columns)


def _named_rows(table: dict, classes):
    """``(metric, class name or "", value)`` per entry of a flat metric table,
    where a key suffix ``_class_<i>`` names class ``i``."""
    for key, value in table.items():
        metric, cls = key, ""
        for i, name in enumerate(classes):
            if key.endswith(suffix := f"_class_{i}"):
                metric, cls = key[: -len(suffix)], str(name)
                break
        yield metric, cls, value


def flat_with_names(flat: dict, classes) -> dict:
    """``flat`` with each ``_class_<i>`` key suffix naming class ``i`` instead."""
    return {
        f"{metric}_class_{cls}" if cls else metric: value
        for metric, cls, value in _named_rows(flat, classes)
    }


def report_dict(report: MetricReport, classes, positive_name: str | None) -> dict:
    """Nested JSON form of a metric report with named classes."""
    per_class = {
        str(name): {"auc": report.per_class_auc[i], **report.per_class[i].named()}
        for i, name in enumerate(classes)
    }
    binary = None
    if report.binary is not None:
        binary = {"positive_class": positive_name, **report.binary.named()}
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
            name: {
                stat: flat_with_names(getattr(aggregate, stat), classes)
                for stat in ("mean", "std", "count")
            }
            for name, aggregate in (("test", result.test_aggregate), ("cv", result.cv_aggregate))
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
    return [("all", *row) for row in _named_rows(report.flat(), classes)]


def protocol_csv_rows(result: ProtocolResult, classes):
    """Long-format rows: per-split test metrics, then mean/std aggregates."""
    tables = []
    for rec in result.records:
        split = str(rec.repetition_id)
        tables += [(split, "", rec.test_report.flat()), (split, "cv_", rec.cv_metrics)]
    for prefix, aggregate in (("", result.test_aggregate), ("cv_", result.cv_aggregate)):
        tables += [("mean", prefix, aggregate.mean), ("std", prefix, aggregate.std)]
    return [
        (split, prefix + metric, cls, value)
        for split, prefix, table in tables
        for metric, cls, value in _named_rows(table, classes)
    ]


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
        raise InvalidArgument(
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
