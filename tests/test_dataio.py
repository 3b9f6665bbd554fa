import csv
import hashlib
import io
import itertools
import json
import math
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import blob_features, peak_allocation, row_labels, write_dataset_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from pgmclassifier import (
    EncodingConfig,
    PgmConfig,
    fit_pgm,
    predict_batch,
    report_from_predictions,
    stratified_holdout,
)
from pgmclassifier import dataio
from pgmclassifier.dataio import (
    Dataset,
    check_splits,
    evaluation_csv_rows,
    evaluation_report_dict,
    features_for_model,
    fingerprint_bytes,
    flat_with_names,
    load_dataset,
    load_model,
    protocol_csv_rows,
    protocol_report_dict,
    read_json,
    read_splits,
    report_dict,
    save_model,
    write_json,
    write_long_csv,
    write_predictions_csv,
    write_splits,
)
from pgmclassifier.errors import DatasetFormatError, FingerprintMismatch, SchemaMismatch
from pgmclassifier.pgm import SCORE_BLOCK, score_states


@pytest.fixture
def dataset_path(tmp_path):
    features, labels = blob_features(4.0, 8, seed=123)
    names = np.array(["ant", "bee", "cat"])[labels]
    return write_dataset_csv(tmp_path / "data.csv", features, names)


class TestLoadDataset:
    def test_round_trip(self, tmp_path):
        features = np.array([[1.5, -2.25], [0.0, 3.125]])
        path = write_dataset_csv(tmp_path / "d.csv", features, ["b", "a"])
        ds = load_dataset(path)
        np.testing.assert_array_equal(ds.features, features)
        assert ds.feature_names == ("f0", "f1")
        assert row_labels(ds) == ("b", "a")
        assert ds.classes == ("a", "b")
        np.testing.assert_array_equal(ds.label_indices, [1, 0])
        assert ds.n_samples == 2
        assert ds.n_classes == 2

    def test_exact_float_round_trip(self, tmp_path):
        features = np.array([[0.1 + 0.2], [1e-17], [123456.789012345678]])
        path = write_dataset_csv(tmp_path / "d.csv", features, ["x", "x", "x"])
        np.testing.assert_array_equal(load_dataset(path).features, features)

    def test_unlabeled_dataset(self, tmp_path):
        path = write_dataset_csv(tmp_path / "d.csv", np.ones((2, 2)))
        ds = load_dataset(path)
        assert row_labels(ds) is None
        assert ds.classes is None
        assert ds.feature_names == ("f0", "f1")

    def test_custom_label_column(self, tmp_path):
        path = write_dataset_csv(
            tmp_path / "d.csv", np.ones((2, 1)), ["u", "v"], label_column="target"
        )
        ds = load_dataset(path, label_column="target")
        assert row_labels(ds) == ("u", "v")
        with pytest.raises(DatasetFormatError, match="'target'"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "cell, fragment",
        [("", "row 2 column 'f1'"), ("abc", "row 2 column 'f1'"), ("inf", "row 2"), ("nan", "row 2")],
    )
    def test_bad_cell_diagnostics(self, tmp_path, cell, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,a\n3.0,{cell},b\n")
        with pytest.raises(DatasetFormatError, match=fragment):
            load_dataset(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,a\n3.0,b\n")
        with pytest.raises(DatasetFormatError, match="row 2"):
            load_dataset(path)

    def test_duplicate_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f0,label\n1.0,2.0,a\n")
        with pytest.raises(DatasetFormatError, match="duplicate"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(path)

    def test_missing_label_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,a\n2.0,\n")
        with pytest.raises(DatasetFormatError, match="missing label"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "text",
        ["f0,f1,label\n1.5,-2,b\n0.25,3,a\n", 'f0,f1,label\n"1.5",-2,b\r\n0.25,3,"a"\n'],
        ids=["quote-free", "quoted-crlf"],
    )
    def test_byte_order_mark_is_stripped(self, tmp_path, text):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        ds, ref = load_dataset(bom), load_dataset(plain)
        assert ds.feature_names == ref.feature_names == ("f0", "f1")
        np.testing.assert_array_equal(ds.features, ref.features)
        assert row_labels(ds) == row_labels(ref) == ("b", "a")
        assert ds.fingerprint == fingerprint_bytes(bom.read_bytes()) != ref.fingerprint

    def test_label_column_first_behind_byte_order_mark(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,f0\na,1\nb,2\n")
        ds = load_dataset(path)
        assert ds.feature_names == ("f0",)
        assert row_labels(ds) == ("a", "b")

    def test_decode_error_after_byte_order_mark_names_file_offset(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbff0,label\n\xff,a\n")
        with pytest.raises(DatasetFormatError, match="position 12"):
            load_dataset(path)


#: Feature cells ``float`` accepts: padded, exponent, underscore, signed, and
#: the shortest repr of arbitrary finite floats.
_CELLS = st.one_of(
    st.sampled_from([" 1.5", "1e-3", "1_0", "-0", "+4", "2.5 ", ".5", "1E5"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_LABELS = st.sampled_from(["a", "a,b", 'say "hi"', "z", " padded "])


#: Faults a file may hold, up to two of them: a cell no dataset accepts, an
#: empty label, a short or long row, or an empty line.
_FAULTS = st.lists(st.sampled_from(["cell", "label", "short", "long", "blank"]), max_size=2)


def add_faults(draw, rows, at):
    """Apply drawn faults to the body of ``rows`` (header first); returns their names.

    Empty lines go in last, so no other fault lands in one.
    """
    faults = draw(_FAULTS) if len(rows) > 1 else []
    for fault in sorted(faults, key=lambda name: name == "blank"):
        r = draw(st.integers(1, len(rows) - 1))
        c = draw(st.integers(0, len(rows[r])))
        if fault == "cell" and c != at and c < len(rows[r]):
            rows[r][c] = draw(st.sampled_from(["", "nan", "-inf", "x", "1.5.0"]))
        elif fault == "label" and at is not None and at < len(rows[r]):
            rows[r][at] = ""
        elif fault == "short" and c < len(rows[r]):
            del rows[r][c]
        elif fault == "long":
            rows[r].insert(c, draw(_CELLS))
        elif fault == "blank":
            rows.insert(r, [])
    return faults


@st.composite
def csv_datasets(draw):
    """``(raw bytes, label position or None)`` for a small dataset CSV, maybe faulty."""
    n_features = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 6))
    where = draw(st.sampled_from(["none", "first", "middle", "last"]))
    at = {"none": None, "first": 0, "middle": n_features // 2, "last": n_features}[where]
    rows = [[f"f{i}" for i in range(n_features)]]
    rows += [[draw(_CELLS) for _ in range(n_features)] for _ in range(n_rows)]
    if at is not None:
        rows[0].insert(at, "label")
        for row in rows[1:]:
            row.insert(at, draw(_LABELS))
    add_faults(draw, rows, at)
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    return buf.getvalue().encode("utf-8"), at


#: Labels a quote-free file can hold: no ``"`` and no ``,``, padded or not.
#: Line breaks other than LF and CR are plain text to ``csv.reader``.
_PLAIN_LABELS = st.sampled_from(["a", "z", " padded ", "b c", "\u00e9", "x\u2028y", "\x0c"])


@st.composite
def quote_free_datasets(draw):
    """``(raw bytes, label position or None, faults)`` for a small quote-free CSV.

    Line endings are LF, CRLF or lone CR, with or without a final one; files
    may be header-only, lack the label column or have a single column.
    """
    n_features = draw(st.integers(0, 3))
    wheres = ["first", "middle", "last"] + (["none"] if n_features else [])
    where = draw(st.sampled_from(wheres))
    at = {"none": None, "first": 0, "middle": n_features // 2, "last": n_features}[where]
    rows = [[f"f{i}" for i in range(n_features)]]
    rows += [[draw(_CELLS) for _ in range(n_features)] for _ in range(draw(st.integers(0, 5)))]
    if at is not None:
        rows[0].insert(at, "label")
        for row in rows[1:]:
            row.insert(at, draw(_PLAIN_LABELS))
    faults = add_faults(draw, rows, at)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(",".join(row) for row in rows)
    if draw(st.booleans()):
        text += newline
    return text.encode("utf-8"), at, faults


def load_outcome(path):
    """``load_dataset(path)``, or the message of the :class:`DatasetFormatError` it raises."""
    try:
        return load_dataset(path)
    except DatasetFormatError as exc:
        return str(exc)


def reference_parse(raw, at):
    """Features, labels and LF-normalized fingerprint, parsed cell by cell.

    The whole text goes through one ``csv.reader``, then the header and
    every cell are checked in order. For a faulty file the result is the
    diagnostic ``load_dataset`` gives, less its leading file name.
    """
    lf = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    reader = csv.reader(io.StringIO(lf.decode("utf-8")))
    try:
        header, *body = list(reader) or [[]]
    except csv.Error as exc:
        return f"line {reader.line_num}: {exc}"
    if not any(header):
        return "missing header row"
    duplicates = sorted(name for name, count in Counter(header).items() if count > 1)
    if duplicates:
        return f"duplicate column name {duplicates[0]!r}"
    for r, row in enumerate(body, start=1):
        if len(row) != len(header):
            return f"row {r} has {len(row)} fields, expected {len(header)}"
        for i, cell in enumerate(row):
            if i == at:
                if not cell:
                    return f"row {r} column {header[i]!r}: missing label"
                continue
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                finite = False
            if not finite:
                return f"row {r} column {header[i]!r}: expected a finite number, got {cell!r}"
    names = tuple(name for i, name in enumerate(header) if i != at)
    features = np.array(
        [[float(cell) for i, cell in enumerate(row) if i != at] for row in body], dtype=float
    ).reshape(len(body), len(names))
    labels = None if at is None else tuple(row[at] for row in body)
    return names, features, labels, hashlib.sha256(lf).hexdigest()


def assert_matches_reference(path, outcome, raw, at):
    """``outcome`` of loading ``path`` is what :func:`reference_parse` gives for ``raw``."""
    expected = reference_parse(raw, at)
    if isinstance(expected, str):
        assert outcome == f"{path}: {expected}"
        return
    names, features, labels, digest = expected
    assert isinstance(outcome, Dataset), outcome
    assert outcome.feature_names == names
    assert outcome.features.shape == features.shape
    assert outcome.features.tobytes() == features.tobytes()
    assert row_labels(outcome) == labels
    assert outcome.fingerprint["value"] == digest
    if labels is None:
        assert outcome.classes is None and outcome.label_indices is None
    else:
        assert outcome.classes == tuple(sorted(set(labels)))
        assert [outcome.classes[i] for i in outcome.label_indices] == list(labels)


@settings(max_examples=150, deadline=None)
@given(case=csv_datasets())
def matches_cell_by_cell_parse(case):
    """A file, quoted or not, gives the dataset or the diagnostic of a cell-by-cell parse."""
    raw, at = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(raw)
        assert_matches_reference(path, load_outcome(path), raw, at)


@settings(max_examples=200, deadline=None)
@given(case=quote_free_datasets())
def quote_free_files_match_the_csv_reader_route(case):
    """A quote-free file gives the outcome of the ``csv.reader`` route and of the reference."""
    raw, at, faults = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(raw)
        outcome = load_outcome(path)
        with mock.patch.object(dataio, "_split_quote_free", dataio._split_csv):
            reference = load_outcome(path)
        assert_matches_reference(path, outcome, raw, at)
        assert_matches_reference(path, reference, raw, at)
    text = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").decode("utf-8")
    header, *blocks = dataio._split_quote_free(path, text)
    split = all(rows is None for _, rows in blocks)
    assert split or faults
    if split:
        csv_header, *body = csv.reader(io.StringIO(text))
        assert all(len(row) == len(header) for row in body)
        assert header == csv_header
        assert sum((cells for cells, _ in blocks), []) == [cell for row in body for cell in row]


#: Valid rows enough to fill more than one block of the default size.
_PADDING = "1.0,a\n" * 50_000


class TestLoadDatasetEquivalence:
    def test_matches_cell_by_cell_parse(self):
        matches_cell_by_cell_parse()

    def test_quote_free_files_match_the_csv_reader_route(self):
        quote_free_files_match_the_csv_reader_route()

    def test_quoted_cells_parse_to_the_same_bits(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("f0,f1,label\n1.5,-0,a\n1e-17,0.30000000000000004,b c\n")
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(
            '"f0","f1","label"\n"1.5","-0","a"\n"1e-17","0.30000000000000004","b c"\n'
        )
        a, b = load_dataset(plain), load_dataset(quoted)
        assert a.features.tobytes() == b.features.tobytes()
        assert row_labels(a) == row_labels(b) == ("a", "b c")
        assert a.feature_names == b.feature_names

    @pytest.mark.parametrize(
        "head, quote",
        [
            pytest.param("f0,label\n1.0,a\n", "", id="unquoted"),
            pytest.param("f0,label\n1.0,a\n", '"', id="quoted"),
            pytest.param("f0,label\nx,a\n" + _PADDING, "", id="after-a-bad-cell-unquoted"),
            pytest.param("f0,label\nx,a\n" + _PADDING, '"', id="after-a-bad-cell-quoted"),
            pytest.param("f0,f0\n" + _PADDING, "", id="after-a-duplicate-header-unquoted"),
            pytest.param("f0,f0\n" + _PADDING, '"', id="after-a-duplicate-header-quoted"),
        ],
    )
    def test_field_over_the_size_limit_is_a_format_error(self, tmp_path, head, quote):
        """A malformed line is named even after a fault the cell checks name, blocks before it."""
        path = tmp_path / "big.csv"
        path.write_text(f"{head}{quote}{'1' * 140_001}{quote},b\n")
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(path)
        line = head.count("\n") + 1
        assert str(info.value) == (
            f"{path}: line {line}: field larger than field limit ({csv.field_size_limit()})"
        )

    def test_header_far_wider_than_later_rows(self, tmp_path):
        """Short rows after a valid first block do not size a matrix the text cannot fill."""
        width = 20_000
        lines = [",".join(f"c{i}" for i in range(width)), *[",".join("1" * width)] * 4]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(lines + ["1"] * 1_000_000) + "\n")
        assert load_outcome(path) == f"{path}: row 5 has 1 fields, expected {width}"

    def test_first_bad_cell_in_row_major_order_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,a\n3.0,nan,b\n,4.0,a\n")
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(path)
        assert str(info.value) == (
            f"{path}: row 2 column 'f1': expected a finite number, got 'nan'"
        )

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1.0,2.0,3.0,a\n4.0,b\n", "row 1 has 4 fields, expected 3"),
            ("3.0,nan,b\n4.0,b\n", "row 1 column 'f1': expected a finite number, got 'nan'"),
            ("1.0,a\n2.0,3.0,4.0,b\n", "row 1 has 2 fields, expected 3"),
            ("1.0,2.0,a\n\n3.0,4.0,b\n", "row 2 has 0 fields, expected 3"),
            ("1.0,2.0,a\n3.0,4.0,b\n\n", "row 3 has 0 fields, expected 3"),
        ],
    )
    def test_ragged_rows_never_shift_cells(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n" + body)
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("block_chars", [1, 64])
    def test_generated_files_in_small_blocks(self, block_chars):
        with mock.patch.object(dataio, "_BLOCK_CHARS", block_chars):
            matches_cell_by_cell_parse()
            quote_free_files_match_the_csv_reader_route()


@pytest.fixture(params=[1, 64, dataio._BLOCK_CHARS])
def block_chars(request):
    """Runs a test with one line per block, a few lines per block and the default size."""
    with mock.patch.object(dataio, "_BLOCK_CHARS", request.param):
        yield request.param


class TestLoadDatasetBlocks:
    """Faults and files that straddle the blocks ``load_dataset`` tokenises."""

    @staticmethod
    def body(block_chars):
        """Ten-character rows, enough for more than three blocks."""
        n_rows = 3 * block_chars // 10 + 3
        return [f"{i % 10}.5,{i % 7}.25,{'ab'[i % 2]}" for i in range(n_rows)]

    @staticmethod
    def block_starts(lines):
        """The row number (from 1, header excluded) that starts each block after the first."""
        sizes = [block.count("\n") + 1 for block in dataio._text_blocks("\n".join(lines))]
        return list(itertools.accumulate(sizes[:-1]))

    def load_error(self, path, lines):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(path)
        return str(info.value).removeprefix(f"{path}: ")

    def test_bad_cell_in_the_second_block(self, tmp_path, block_chars):
        lines = ["f0,f1,label", *self.body(block_chars)]
        r = self.block_starts(lines)[0] + 1
        lines[r] = "1.5,x.25,a"
        message = self.load_error(tmp_path / "bad.csv", lines)
        assert message == f"row {r} column 'f1': expected a finite number, got 'x.25'"

    def test_short_and_long_rows_straddling_a_boundary(self, tmp_path, block_chars):
        lines = ["f0,f1,label", *self.body(block_chars)]
        r = self.block_starts(lines)[1]
        lines[r - 1] = "1.5,2.25;a"
        lines[r] = "1,5,2.25,a"
        message = self.load_error(tmp_path / "bad.csv", lines)
        assert message == f"row {r - 1} has 2 fields, expected 3"

    def test_empty_line_at_a_boundary(self, tmp_path, block_chars):
        lines = ["f0,f1,label", *self.body(block_chars)]
        r = self.block_starts(lines)[1]
        lines.insert(r, "")
        message = self.load_error(tmp_path / "bad.csv", lines)
        assert message == f"row {r} has 0 fields, expected 3"

    def test_last_block_without_a_final_newline(self, tmp_path, block_chars):
        raw = "\n".join(["f0,f1,label", *self.body(block_chars)]).encode()
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        names, features, labels, digest = reference_parse(raw, 2)
        ds = load_dataset(path)
        assert ds.feature_names == names
        assert ds.features.tobytes() == features.tobytes()
        assert row_labels(ds) == labels
        assert ds.fingerprint["value"] == digest

    def test_quoted_file_over_several_reader_blocks(self, tmp_path, block_chars):
        rows = [["f0", "label", "f1"]]
        names = ["a,b", 'say "hi"', "two\nlines", "z"]
        for i, line in enumerate(self.body(block_chars)):
            f0, f1, _ = line.split(",")
            rows.append([f0, names[i % 4], f1])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)
        raw = buf.getvalue().encode()
        path = tmp_path / "quoted.csv"
        path.write_bytes(raw)
        names, features, labels, digest = reference_parse(raw, 1)
        ds = load_dataset(path)
        assert ds.feature_names == names
        assert ds.features.shape == features.shape
        assert ds.features.tobytes() == features.tobytes()
        assert row_labels(ds) == labels
        assert ds.classes == tuple(sorted(set(labels)))
        assert ds.fingerprint["value"] == digest
        r = len(rows) - 2
        rows[r][2] = "nan"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)
        path.write_text(buf.getvalue())
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(path)
        message = f"row {r} column 'f1': expected a finite number, got 'nan'"
        assert str(info.value) == f"{path}: {message}"

    def test_lines_over_the_field_limit_with_short_fields(self, tmp_path, block_chars):
        """A quote-free line past ``csv.field_size_limit()`` is valid if its fields are not."""
        rng = np.random.default_rng(51)
        features = rng.normal(size=(3, 20_000)).round(4)
        columns = [f"x{i:05}" for i in range(20_000)]
        path = write_dataset_csv(tmp_path / "wide.csv", features, ["b", "a", "b"], columns)
        raw = Path(path).read_bytes()
        assert min(map(len, raw.splitlines())) > csv.field_size_limit()
        assert_matches_reference(path, load_outcome(path), raw, 20_000)

    @pytest.mark.parametrize("bad_last_cell", [False, True], ids=["valid", "bad-last-cell"])
    def test_peak_memory_stays_under_four_times_the_file(self, tmp_path, bad_last_cell):
        """Loading, or refusing a file at its last cell, holds no copy of its rows."""
        rng = np.random.default_rng(50)
        features = rng.normal(size=(50_000, 4))
        names = np.array(["neg", "pos"])[rng.integers(0, 2, 50_000)]
        path = write_dataset_csv(tmp_path / "big.csv", features, names)
        if bad_last_cell:
            *head, last = Path(path).read_text().splitlines()
            cells = last.split(",")
            cells[1] = "x"
            Path(path).write_text("\n".join([*head, ",".join(cells)]) + "\n")
        size = Path(path).stat().st_size
        assert peak_allocation(load_outcome, path) < 4 * size
        if bad_last_cell:
            message = "row 50000 column 'f1': expected a finite number, got 'x'"
            assert load_outcome(path) == f"{path}: {message}"


class TestFingerprint:
    def test_line_ending_insensitive(self):
        lf = fingerprint_bytes(b"a,b\n1,2\n")
        crlf = fingerprint_bytes(b"a,b\r\n1,2\r\n")
        cr = fingerprint_bytes(b"a,b\r1,2\r")
        assert lf == crlf == cr
        assert lf["algorithm"] == "sha256/lf-newlines"

    def test_content_sensitive(self):
        assert fingerprint_bytes(b"a\n") != fingerprint_bytes(b"b\n")

    def test_file_matches_bytes(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"f0\n1.0\n")
        assert load_dataset(path).fingerprint == fingerprint_bytes(b"f0\n1.0\n")

    def test_dataset_keeps_raw_fingerprint(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"f0,label\r\n1.0,a\r\n2.5,a\r\n")
        ds = load_dataset(path)
        assert ds.fingerprint == fingerprint_bytes(b"f0,label\n1.0,a\n2.5,a\n")


class TestSplitsFile:
    def test_round_trip(self, tmp_path, dataset_path):
        ds = load_dataset(dataset_path)
        plans = stratified_holdout(ds.label_indices, 0.25, 3, seed=10)
        out = tmp_path / "splits.json"
        write_splits(out, plans, fingerprint=ds.fingerprint, test_fraction=0.25, seed=10)
        data = read_splits(out)
        assert data.seed == 10
        assert data.test_fraction == 0.25
        assert data.fingerprint == ds.fingerprint
        assert len(data.plans) == 3
        for original, loaded in zip(plans, data.plans):
            assert loaded.repetition_id == original.repetition_id
            assert loaded.seed == original.seed
            np.testing.assert_array_equal(loaded.train_indices, original.train_indices)
            np.testing.assert_array_equal(loaded.test_indices, original.test_indices)
        check_splits(data, ds)

    def test_fingerprint_mismatch(self, tmp_path, dataset_path):
        ds = load_dataset(dataset_path)
        plans = stratified_holdout(ds.label_indices, 0.25, 1, seed=10)
        out = tmp_path / "splits.json"
        other = fingerprint_bytes(b"other")
        write_splits(out, plans, fingerprint=other, test_fraction=0.25, seed=10)
        with pytest.raises(FingerprintMismatch) as info:
            check_splits(read_splits(out), ds)
        assert str(info.value) == (
            f"{out}: split file fingerprint does not match the dataset "
            f"({other['value'][:12]} vs {ds.fingerprint['value'][:12]})"
        )

    def test_invalid_partition(self, tmp_path, dataset_path):
        ds = load_dataset(dataset_path)
        plans = stratified_holdout(ds.label_indices, 0.25, 1, seed=10)
        out = tmp_path / "splits.json"
        write_splits(out, plans, fingerprint=ds.fingerprint, test_fraction=0.25, seed=10)
        obj = json.loads(out.read_text())
        obj["repetitions"][0]["test"] = obj["repetitions"][0]["test"][:-1]
        write_json(out, obj)
        with pytest.raises(SchemaMismatch) as info:
            check_splits(read_splits(out), ds)
        assert str(info.value) == (
            f"{out}: repetition 0: train/test indices are not a "
            f"disjoint exhaustive partition of {ds.n_samples} rows"
        )

    def test_wrong_format_tag(self, tmp_path):
        out = tmp_path / "splits.json"
        write_json(out, {"format": "pgm-model/1"})
        with pytest.raises(SchemaMismatch, match="expected format"):
            read_splits(out)

    def test_empty_plans_rejected(self, tmp_path):
        out = tmp_path / "splits.json"
        write_json(
            out,
            {
                "format": "pgm-splits/1",
                "fingerprint": {},
                "seed": 0,
                "test_fraction": 0.2,
                "repetitions": [],
            },
        )
        with pytest.raises(SchemaMismatch, match="no repetitions"):
            read_splits(out)

    def test_malformed_repetition_rejected(self, tmp_path):
        out = tmp_path / "splits.json"
        write_json(
            out,
            {
                "format": "pgm-splits/1",
                "fingerprint": {},
                "seed": 0,
                "test_fraction": 0.2,
                "repetitions": [{"repetition": 0}],
            },
        )
        with pytest.raises(SchemaMismatch, match="malformed"):
            read_splits(out)


class TestModelFile:
    def fit(self, copies, engine="auto"):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(20, 3))
        labels = np.array([0, 1] * 10)
        config = PgmConfig(
            encoding=EncodingConfig(encoding="amplitude", alpha=2.0),
            copies=copies,
            engine=engine,
        )
        return features, labels, fit_pgm(features, labels, 2, config)

    @pytest.mark.parametrize("copies, engine", [(2, "dense"), (9, "gram")])
    def test_round_trip_scores_exactly(self, tmp_path, copies, engine):
        features, labels, model = self.fit(copies)
        assert model.engine == engine
        out = tmp_path / "model.json"
        save_model(out, model, classes=("no", "yes"), feature_columns=("a", "b", "c"))
        loaded = load_model(out)
        assert loaded.classes == ("no", "yes")
        assert loaded.feature_columns == ("a", "b", "c")
        assert loaded.model.engine == engine
        before = predict_batch(model, features)
        after = predict_batch(loaded.model, features)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])

    def test_gram_payload_is_one_factor_and_older_keys_are_ignored(self, tmp_path):
        features, _, model = self.fit(9)
        out = tmp_path / "model.json"
        save_model(out, model, classes=("no", "yes"), feature_columns=("a", "b", "c"))
        obj = json.loads(out.read_text())
        assert set(obj["payload"]) == {"train_states", "labels"}
        # Older files also carry the factor M, and older ones still P and
        # weights; load rebuilds M from the training states and ignores them.
        obj["payload"]["M"] = (2.0 * model.M).tolist()
        obj["payload"]["P"] = (model.M @ model.M).tolist()
        obj["payload"]["weights"] = model.weights[:-1].tolist()
        write_json(out, obj)
        loaded = load_model(out).model
        np.testing.assert_array_equal(loaded.M, model.M)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        before = predict_batch(model, features)
        after = predict_batch(loaded, features)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])

    def test_pipeline_required(self, tmp_path):
        rng = np.random.default_rng(9)
        from helpers import random_labeled_states

        from pgmclassifier.pgm import build_dense_pgm

        bare = build_dense_pgm(random_labeled_states(rng, 2, 3, 6))
        with pytest.raises(SchemaMismatch, match="pipeline"):
            save_model(tmp_path / "m.json", bare, classes=("a", "b"), feature_columns=("x",))

    def test_unknown_engine_rejected(self, tmp_path):
        _, _, model = self.fit(1)
        out = tmp_path / "model.json"
        save_model(out, model, classes=("a", "b"), feature_columns=("a", "b", "c"))
        obj = json.loads(out.read_text())
        obj["engine"] = "sparse"
        write_json(out, obj)
        with pytest.raises(SchemaMismatch, match="unknown engine"):
            load_model(out)

    def test_missing_payload_rejected(self, tmp_path):
        _, _, model = self.fit(1)
        out = tmp_path / "model.json"
        save_model(out, model, classes=("a", "b"), feature_columns=("a", "b", "c"))
        obj = json.loads(out.read_text())
        del obj["payload"]
        write_json(out, obj)
        with pytest.raises(SchemaMismatch, match="malformed"):
            load_model(out)

    @pytest.mark.parametrize(
        "engine, key, value",
        [
            pytest.param("gram", "copies", 2.5, id="fractional-copies"),
            pytest.param("gram", "copies", True, id="boolean-copies"),
            pytest.param("gram", "copies", "2", id="string-copies"),
            pytest.param("dense", "copies", 2.0, id="float-copies"),
            pytest.param("dense", "dim", 4.0, id="float-dim"),
            pytest.param("dense", "dim", "4", id="string-dim"),
            pytest.param("gram", "classes", "ab", id="string-classes"),
            pytest.param("gram", "classes", ["a", "a"], id="repeated-class"),
            pytest.param("gram", "classes", [1, 2], id="integer-classes"),
            pytest.param("gram", "feature_columns", ["a", "b", "a"], id="repeated-column"),
            pytest.param("gram", "feature_columns", ["a", "b", None], id="null-column"),
            pytest.param("gram", "feature_columns", {"a": 0, "b": 1, "c": 2}, id="object-columns"),
        ],
    )
    def test_field_no_fit_writes_is_rejected(self, tmp_path, engine, key, value):
        _, _, model = self.fit(2, engine)
        out = tmp_path / "model.json"
        save_model(out, model, classes=("a", "b"), feature_columns=("a", "b", "c"))
        obj = json.loads(out.read_text())
        (obj["payload"] if key == "dim" else obj)[key] = value
        write_json(out, obj)
        with pytest.raises(SchemaMismatch) as info:
            load_model(out)
        assert str(info.value).startswith(f"{out}: ")
        assert f"{key} must be" in str(info.value)

    def test_class_count_mismatch_rejected(self, tmp_path):
        _, _, model = self.fit(1)
        out = tmp_path / "model.json"
        save_model(out, model, classes=("a", "b"), feature_columns=("a", "b", "c"))
        obj = json.loads(out.read_text())
        obj["classes"] = ["a", "b", "c"]
        write_json(out, obj)
        with pytest.raises(SchemaMismatch, match="class names"):
            load_model(out)


class TestFeaturesForModel:
    def test_reorders_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("b,a\n2.0,1.0\n4.0,3.0\n")
        ds = load_dataset(path)
        np.testing.assert_array_equal(
            features_for_model(ds, ("a", "b")), [[1.0, 2.0], [3.0, 4.0]]
        )

    def test_label_column_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label\n1.0,x\n")
        ds = load_dataset(path)
        np.testing.assert_array_equal(features_for_model(ds, ("a",)), [[1.0]])

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n1.0\n")
        with pytest.raises(SchemaMismatch) as info:
            features_for_model(load_dataset(path), ("a", "b"))
        assert str(info.value) == f"{path}: dataset lacks feature column 'b'"

    def test_columns_in_model_order_are_not_copied(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,label,b\n1.0,x,2.0\n3.0,y,4.0\n")
        ds = load_dataset(path)
        assert np.shares_memory(features_for_model(ds, ("a", "b")), ds.features)
        reordered = features_for_model(ds, ("b", "a"))
        assert not np.shares_memory(reordered, ds.features)
        np.testing.assert_array_equal(reordered, [[2.0, 1.0], [4.0, 3.0]])

    def test_extra_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,z\n1.0,2.0\n")
        with pytest.raises(SchemaMismatch) as info:
            features_for_model(load_dataset(path), ("a",))
        assert str(info.value) == f"{path}: dataset has unexpected column 'z'"


def toy_report(positive_class=None):
    true = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    scores = np.array([[0.9, 0.1], [0.4, 0.6], [0.2, 0.8], [0.3, 0.7]])
    return report_from_predictions(true, pred, scores, 2, positive_class)


class TestReportSerialization:
    def test_report_dict_names_classes(self):
        obj = report_dict(toy_report(1), ("neg", "pos"), "pos")
        assert set(obj["per_class"]) == {"neg", "pos"}
        assert obj["binary"]["positive_class"] == "pos"
        assert obj["n_samples"] == 4
        assert obj["accuracy"] == 0.75

    def test_report_dict_names_degenerate_flags(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        report = report_from_predictions(np.array([0, 0, 1]), np.zeros(3, int), scores, 2, 1)
        obj = report_dict(report, ("neg", "pos"), "pos")
        assert obj["degenerate"] == ["precision_class_pos", "precision"]

    def test_flat_with_names(self):
        flat = flat_with_names(toy_report().flat(), ("neg", "pos"))
        assert "recall_class_pos" in flat
        assert "recall_class_1" not in flat
        assert flat["accuracy"] == 0.75

    def test_evaluation_report_is_json_ready(self, tmp_path):
        features, labels = blob_features(4.0, 4, d=2, seed=1)
        config = PgmConfig(encoding=EncodingConfig(alpha=2), copies=3, engine="gram")
        obj = evaluation_report_dict(
            toy_report(1),
            ("neg", "pos"),
            dataset_fingerprint=fingerprint_bytes(b"x"),
            model=fit_pgm(features, labels % 2, 2, config),
            positive_name="pos",
        )
        out = tmp_path / "report.json"
        write_json(out, obj)
        loaded = read_json(out, "pgm-report/1")
        assert loaded["kind"] == "evaluate"
        assert loaded == json.loads(json.dumps(obj))
        assert json.dumps(loaded["model"]) == (
            '{"engine": "gram", "encoding": "stereographic", "alpha": 2.0, '
            '"normalizer": "zscore", "copies": 3}'
        )

    def test_evaluation_csv_rows_cover_flat(self):
        rows = evaluation_csv_rows(toy_report(), ("neg", "pos"))
        assert all(row[0] == "all" for row in rows)
        metrics = {(m, c) for _, m, c, _ in rows}
        assert ("accuracy", "") in metrics
        assert ("auc", "pos") in metrics
        assert len(rows) == len(toy_report().flat())

    def test_protocol_dict_and_csv(self, tmp_path):
        from pgmclassifier import ProtocolConfig, make_grid, run_protocol

        features, labels = blob_features(4.0, 12, seed=3)
        splits = stratified_holdout(labels, 0.25, 2, seed=4)
        config = ProtocolConfig(
            seed=5,
            grid=make_grid(encodings=("stereographic",), alphas=(1.0,), copies=(1, 2)),
            k=3,
            cv_repetitions=1,
        )
        result = run_protocol(features, labels, 3, splits, config)
        obj = protocol_report_dict(
            result,
            ("a", "b", "c"),
            dataset_fingerprint=fingerprint_bytes(b"x"),
            seed=5,
            positive_name=None,
        )
        out = tmp_path / "protocol.json"
        write_json(out, obj)
        loaded = read_json(out, "pgm-report/1")
        assert loaded["kind"] == "protocol"
        assert loaded["selection"]["chosen_index"] == result.selection.chosen_index
        assert len(loaded["splits"]) == 2
        assert len(loaded["config"]["grid"]) == 2
        rows = protocol_csv_rows(result, ("a", "b", "c"))
        split_values = {row[0] for row in rows}
        assert {"0", "1", "mean", "std"} <= split_values
        csv_path = tmp_path / "protocol.csv"
        write_long_csv(csv_path, rows)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "split,metric,class,value"
        assert len(lines) == len(rows) + 1


class TestCsvWriters:
    def test_long_csv_formats_values(self, tmp_path):
        out = tmp_path / "x.csv"
        write_long_csv(out, [("all", "accuracy", "", 0.1 + 0.2), ("all", "auc", "a", None)])
        lines = out.read_text().splitlines()
        assert lines[1] == f"all,accuracy,,{0.1 + 0.2!r}"
        assert lines[2] == "all,auc,a,"

    def test_predictions_csv(self, tmp_path):
        out = tmp_path / "preds.csv"
        write_predictions_csv(
            out, ["yes", "no"], np.array([[0.25, 0.75], [0.5, 0.5]]), ("no", "yes")
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "row,predicted,score_no,score_yes"
        assert lines[1] == "0,yes,0.25,0.75"
        assert lines[2] == "1,no,0.5,0.5"

    def test_predictions_csv_empty(self, tmp_path):
        out = tmp_path / "preds.csv"
        write_predictions_csv(out, [], np.zeros((0, 2)), ("a", "b"))
        assert out.read_text() == "row,predicted,score_a,score_b\n"

    @pytest.mark.parametrize(
        "n_rows", [0, 1, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1, 2 * SCORE_BLOCK + 3]
    )
    def test_predictions_csv_blocks_match_csv_writer(self, tmp_path, n_rows):
        classes = ("a,b", 'say "hi"', "c")
        rng = np.random.default_rng(n_rows)
        scores = rng.dirichlet(np.ones(3), size=n_rows)
        scores[::7, 0] = 0.1 + 0.2
        names = [classes[i] for i in rng.integers(0, 3, n_rows)]
        out = tmp_path / "preds.csv"
        write_predictions_csv(out, names, scores, classes)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["row", "predicted"] + [f"score_{name}" for name in classes])
        for i in range(n_rows):
            writer.writerow([i, names[i]] + [repr(float(v)) for v in scores[i]])
        assert out.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("n_names", [2, 4])
    def test_predictions_csv_row_count_mismatch_raises(self, tmp_path, n_names):
        with pytest.raises(ValueError, match=f"{n_names} predicted names for 3 score rows"):
            write_predictions_csv(tmp_path / "p.csv", ["a"] * n_names, np.zeros((3, 2)), ("a", "b"))

    def test_predictions_csv_matches_csv_writer(self, tmp_path):
        classes = ("a,b", 'say "hi"')
        names = ['say "hi"', "a,b", "a,b"]
        scores = np.array([[0.1 + 0.2, 1e-17], [1e-17, 0.1 + 0.2], [0.5, -0.0]])
        for n_rows in (len(names), 0):
            out = tmp_path / f"preds{n_rows}.csv"
            write_predictions_csv(out, names[:n_rows], scores[:n_rows], classes)
            expected = io.StringIO(newline="")
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(["row", "predicted"] + [f"score_{name}" for name in classes])
            for i in range(n_rows):
                writer.writerow([i, names[i]] + [repr(float(v)) for v in scores[i]])
            assert out.read_bytes() == expected.getvalue().encode("utf-8")

    def test_write_json_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        payload = {"format": "pgm-report/1", "value": 0.1 + 0.2, "items": [1, 2]}
        write_json(a, payload)
        write_json(b, payload)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")

    def test_write_json_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "x.json", {"format": "pgm-report/1", "v": float("nan")})


class TestScoreSerializationExactness:
    def test_model_json_floats_round_trip(self, tmp_path):
        rng = np.random.default_rng(77)
        features = rng.normal(size=(12, 2))
        labels = np.array([0, 1] * 6)
        model = fit_pgm(features, labels, 2, PgmConfig(copies=3))
        out = tmp_path / "m.json"
        save_model(out, model, classes=("a", "b"), feature_columns=("x", "y"))
        loaded = load_model(out).model
        np.testing.assert_array_equal(loaded.povm, model.povm)
        states = rng.normal(size=(5, 3))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        np.testing.assert_array_equal(
            score_states(loaded, states), score_states(model, states)
        )
