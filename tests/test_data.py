"""CSV round-trips, dataset validation, splits, arm batch sampling."""

import csv
import decimal
import math
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from dtanet import data
from dtanet.data import (GT_COLUMNS, DataError, ObservationalDataset, arm_pools,
                         load_csv, sample_arm_batch, split, write_csv, write_rows)
from dtanet.synth import SynthConfig, generate

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def toy_dataset(n=6, d=3, seed=0, gt=False):
    rng = np.random.default_rng(seed)
    kwargs = {}
    if gt:
        kwargs = {k: rng.standard_normal(n)
                  for k in ("gt_y0", "gt_y1", "gt_m0", "gt_m1")}
    return ObservationalDataset(X=rng.standard_normal((n, d)),
                                t=rng.integers(0, 2, n),
                                y=rng.standard_normal(n), **kwargs)


def reference_write_csv(path, dataset):
    """The CSV contract cell by cell: csv.writer rows of repr(float) and str(int)."""
    header = list(dataset.covariate_names) + ["t", "y"]
    gt = dataset.has_ground_truth
    if gt:
        header += list(GT_COLUMNS)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.X[i]]
            row += [str(int(dataset.t[i])), repr(float(dataset.y[i]))]
            if gt:
                row += [repr(float(getattr(dataset, c)[i])) for c in GT_COLUMNS]
            writer.writerow(row)


EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308]


@st.composite
def datasets(draw):
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    cells = st.one_of(finite, st.sampled_from(EDGE_VALUES))
    column = st.lists(cells, min_size=n, max_size=n)
    kwargs = {}
    if draw(st.booleans()):
        kwargs = {c: draw(column) for c in GT_COLUMNS}
    X = np.array(draw(st.lists(column, min_size=d, max_size=d))).T
    return ObservationalDataset(
        X=X, t=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        y=draw(column), **kwargs)


class TestDatasetValidation:
    def test_non_binary_treatment(self):
        with pytest.raises(DataError):
            ObservationalDataset(X=np.ones((2, 2)), t=[0, 2], y=[0.0, 0.0])

    def test_fractional_treatment_rejected_before_the_integer_cast(self):
        with pytest.raises(DataError, match="strictly binary"):
            ObservationalDataset(X=np.ones((3, 2)), t=[0, 0.7, 1], y=[0.0, 0.0, 0.0])

    def test_misaligned_outcome(self):
        with pytest.raises(DataError):
            ObservationalDataset(X=np.ones((3, 2)), t=[0, 1, 0], y=[0.0, 1.0])

    def test_partial_ground_truth_rejected(self):
        with pytest.raises(DataError):
            ObservationalDataset(X=np.ones((2, 2)), t=[0, 1], y=[0.0, 1.0],
                                 gt_y0=[1.0, 2.0])

    def test_default_covariate_names(self):
        ds = toy_dataset(d=3)
        assert ds.covariate_names == ["x1", "x2", "x3"]

    @pytest.mark.parametrize("names, message", [
        (["x1", "x2", "x1"], "duplicate covariate name 'x1'"),
        (["x1", "t", "x3"], "covariate name 't' is reserved"),
        (["y", "x2", "x3"], "covariate name 'y' is reserved"),
        (["x1", "x2", "gt_y0"], "covariate name 'gt_y0' is reserved"),
        (["gt_m1", "x2", "x3"], "covariate name 'gt_m1' is reserved"),
    ])
    def test_names_that_would_not_load_back_rejected(self, names, message):
        with pytest.raises(DataError, match=message):
            ObservationalDataset(X=np.ones((2, 3)), t=[0, 1], y=[0.0, 1.0],
                                 covariate_names=names)

    def test_true_ite_requires_ground_truth(self):
        with pytest.raises(DataError):
            toy_dataset().true_ite()
        ds = toy_dataset(gt=True)
        np.testing.assert_array_equal(ds.true_ite(), ds.gt_y1 - ds.gt_y0)

    def test_drop_covariates(self):
        ds = toy_dataset(d=4)
        smaller = ds.drop_covariates(["x2", "x4"])
        assert smaller.covariate_names == ["x1", "x3"]
        np.testing.assert_array_equal(smaller.X, ds.X[:, [0, 2]])
        with pytest.raises(DataError):
            ds.drop_covariates(["nope"])
        with pytest.raises(DataError):
            ds.drop_covariates(["x1", "x2", "x3", "x4"])


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds, _ = generate(SynthConfig(n=40, d=6, seed=1))
        path = tmp_path / "d.csv"
        write_csv(path, ds)
        back = load_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.t, ds.t)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.gt_y1, ds.gt_y1)
        assert back.covariate_names == ds.covariate_names

    @settings(max_examples=25, deadline=None)
    @given(rows=st.lists(st.tuples(finite, finite, st.integers(0, 1), finite),
                         min_size=1, max_size=20))
    def test_round_trip_property(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        X = np.array([[r[0], r[1]] for r in rows])
        t = np.array([r[2] for r in rows])
        y = np.array([r[3] for r in rows])
        ds = ObservationalDataset(X=X, t=t, y=y)
        write_csv(path, ds)
        back = load_csv(path)
        np.testing.assert_array_equal(back.X, X)
        np.testing.assert_array_equal(back.t, t)
        np.testing.assert_array_equal(back.y, y)

    @settings(max_examples=40, deadline=None)
    @given(ds=datasets())
    def test_bytes_match_reference_writer(self, ds, tmp_path_factory):
        folder = tmp_path_factory.mktemp("csv")
        write_csv(folder / "fast.csv", ds)
        reference_write_csv(folder / "ref.csv", ds)
        assert (folder / "fast.csv").read_bytes() == (folder / "ref.csv").read_bytes()

    @pytest.mark.parametrize("gt", [False, True])
    def test_edge_values_and_quoted_names_match_reference(self, tmp_path, gt):
        values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
        n = values.size
        kwargs = {c: np.roll(values, k) for k, c in enumerate(GT_COLUMNS)} if gt else {}
        names = ["a,b", 'say "hi"', "x3"]
        ds = ObservationalDataset(
            X=np.stack([values, values[::-1], np.roll(values, 3)], axis=1),
            t=np.arange(n) % 2, y=np.roll(values, 5), covariate_names=names, **kwargs)
        write_csv(tmp_path / "fast.csv", ds)
        reference_write_csv(tmp_path / "ref.csv", ds)
        data = (tmp_path / "fast.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        assert data.startswith(b'"a,b","say ""hi""",x3,t,y')
        back = load_csv(tmp_path / "fast.csv")
        assert back.covariate_names == names
        np.testing.assert_array_equal(back.X, ds.X)
        assert np.array_equal(np.signbit(back.X), np.signbit(ds.X))

    @pytest.mark.parametrize("cell", ['"2.5"', " 2.5 ", "\t-1e-3", "1_0", '"1_000.5"',
                                      "\u0661\u0662", "+.5"])
    def test_cells_parse_as_float_does(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"x1,t,y\n{cell},1,0.0\n", encoding="utf-8")
        assert load_csv(path).X[0, 0] == float(next(csv.reader([cell]))[0])

    def test_duplicate_header_name(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x1,t,y\n1.0,2.0,1,3.0\n")
        with pytest.raises(DataError, match="duplicate column name 'x1'"):
            load_csv(path)

    def test_blank_line_is_a_row_of_no_cells(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,t,y\n0.5,1,2.0\n\n0.5,0,3.0\n")
        with pytest.raises(DataError, match="row 3 has 0 cells, expected 3"):
            load_csv(path)

    def test_non_numeric_reported_before_earlier_non_finite(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,t,y\n0.5,1,inf\n0.5,0,oops\n")
        with pytest.raises(DataError, match="row 3, column 'y': non-numeric cell 'oops'"):
            load_csv(path)

    def test_load_peak_memory(self, tmp_path):
        ds, _ = generate(SynthConfig(n=2000, d=50, seed=2))
        path = tmp_path / "d.csv"
        write_csv(path, ds)
        tracemalloc.start()
        try:
            load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        array_bytes = ds.n * (ds.d + 2 + len(GT_COLUMNS)) * 8
        assert peak < 5 * array_bytes

    def test_write_peak_memory(self, tmp_path):
        ds, _ = generate(SynthConfig(n=4096, d=50, seed=2))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "d.csv", ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = data._WRITE_BLOCK_ROWS * (ds.d + 2 + len(GT_COLUMNS)) * 8
        # about 5x: one block's text as bytes, as str and split into rows; the
        # whole array formatted at once reads about 19x
        assert peak < 8 * block_bytes

    def test_non_binary_treatment_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,t,y\n0.5,1,2.0\n0.5,2,3.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,t,y\n0.5,1,oops\n")
        with pytest.raises(DataError, match="row 2.*'y'"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,t,y\n0.5,1.0,1,2.0\n0.5,1.0,0,3.0\n0.5,{cell},1,4.0\n")
        with pytest.raises(DataError, match="row 4, column 'x2': non-finite"):
            load_csv(path)

    @pytest.mark.parametrize("lines, row", [
        ([b"x\xff1,t,y", b"0.5,1,2.0"], 1),
        ([b"x1,t,y", b"0.5,1,2.0", b"0.5\xff,0,3.0"], 3),
        # far past the decoder's first chunk, which fails ahead of the parser
        ([b"x1,t,y"] + [b"0.5,1,2.0"] * 5000 + [b"0.5,\xe9,3.0", b"0.5,1,2.0"], 5002),
    ])
    def test_non_utf8_bytes_name_row(self, tmp_path, lines, row):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(DataError, match=f"row {row} is not UTF-8"):
            load_csv(path)

    @pytest.mark.parametrize("bad, message", [
        (b"0.5,1", "row 3 has 2 cells, expected 3"),
        (b"0.5,1,oops", "row 3, column 'y': non-numeric cell 'oops'"),
        (b"0.5\xff,1", "row 3 is not UTF-8 text")])
    def test_first_bad_row_is_named(self, tmp_path, bad, message):
        # both bad rows lie in the decoder's first chunk, so a strict decoder
        # fails on the later one before the parser reaches the earlier one
        lines = [b"x1,t,y", b"0.5,1,2.0", bad] + [b"0.5,0,1.0"] * 5 + [b"0.5,\xff,3.0"]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(DataError, match=message):
            load_csv(path)

    def test_cell_past_field_limit_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,t,y\n0.5,1,2.0\n\"0.5\n\",0,1.0\n"
                        f"{'1' * (csv.field_size_limit() + 1)},1,3.0\n")
        with pytest.raises(DataError, match="row 4: field larger than field limit"):
            load_csv(path)

    def test_header_past_field_limit_names_row_1(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"{'x' * (csv.field_size_limit() + 1)},t,y\n0.5,1,2.0\n")
        with pytest.raises(DataError, match="row 1: field larger than field limit"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,t,y\n0.5,1\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_missing_required_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n1.0,2.0\n")
        with pytest.raises(DataError, match="'t' and 'y'"):
            load_csv(path)

    def test_partial_gt_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,t,y,gt_y0\n0.5,1,2.0,1.0\n")
        with pytest.raises(DataError, match="partial"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,t,y\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)


def load_outcome(path):
    """What load_csv gives: names and the bytes of every array, or the error."""
    try:
        ds = load_csv(path)
    except DataError as exc:
        return str(exc)
    arrays = [ds.X, ds.t, ds.y] + [getattr(ds, c) for c in GT_COLUMNS]
    return ds.covariate_names, [None if a is None else (a.dtype.str, a.shape, a.tobytes())
                                for a in arrays]


def exact_outcome(path):
    """load_outcome with the orjson shortcut declined, so csv.reader parses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_fast_rows", lambda *args: None)
        return load_outcome(path)


def without_csv_reader(monkeypatch):
    """Make the csv.reader path fail, so a load must come from orjson."""
    monkeypatch.setattr(data, "_parse_rows", None)


@pytest.fixture
def orjson_parses(monkeypatch):
    """Count the chunks load_csv hands to orjson.loads; each is still parsed."""
    calls = []
    real = orjson.loads

    def spy(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(data.orjson, "loads", spy)
    return calls


# (header, index of its t column)
HEADERS = [("x1,x2,t,y", 2), ("x1,t,x2,y", 1), ('"x,1",x2,t,y', 2),
           ('"x\r\n1",x2,t,y', 2), ('"x\r1",x2,t,y', 2),
           ("x1,x2,t,y," + ",".join(GT_COLUMNS), 2)]
PADDING = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f"]
ODD_CELLS = ["1_0", '"2.5"', '"1,5"', "\u0661\u0662", "nan", "inf", "-Infinity", "",
             "oops", "1e400", "1" + "0" * 399, "0x10", "\x00", "2", "\xa01.5", "true",
             "null"]
# finite numerals on which JSON and float() may part: orjson reads -0 as the
# int 0 and rejects +.5, 1., .5 and 01; the rest both read
JSON_EDGE_CELLS = ["-0", "+.5", "1.", ".5", "01", "-0e0", "1E+5", "1e-400",
                   "123456789012345678901234567890", "0.123456789012345678901234567891",
                   "4" * 400 + "e-399"]
json_cells = st.one_of(finite.map(repr), st.sampled_from(EDGE_VALUES).map(repr),
                       st.integers(-10 ** 20, 10 ** 20).map(str))
plain_cells = st.one_of(json_cells, st.sampled_from(JSON_EDGE_CELLS))
padded_cells = st.tuples(st.sampled_from(PADDING), plain_cells,
                         st.sampled_from(PADDING)).map("".join)
t_cells = st.sampled_from(["0", "1", "1.0", "-0", " 1", "1e0"])


def one_in(n, rare, common):
    """rare in about one draw of n, common otherwise."""
    return st.integers(1, n).flatmap(lambda k: rare if k == 1 else common)


# mostly cells that orjson reads, padded with the space and tab JSON skips
json_file_cells = one_in(
    20, st.one_of(st.sampled_from(JSON_EDGE_CELLS), padded_cells),
    st.tuples(st.sampled_from(["", " ", "\t"]), json_cells,
              st.sampled_from(["", " ", "\t"])).map("".join))


@st.composite
def csv_files(draw):
    """CSV bytes from a cell grammar and a line grammar.

    A clean file has rows of the header's width, valid cells and CRLF or LF
    ends; a JSON-like file is a clean file whose cells are nearly all
    numerals orjson reads, so that most of them take the orjson path; any
    other file also draws odd cells, ragged rows, blank or whitespace lines
    and lone CRs.
    """
    header, t_col = draw(st.sampled_from(HEADERS))
    width = len(next(csv.reader([header])))
    kind = draw(st.sampled_from(["json", "json", "clean", "any"]))
    clean = kind != "any"
    ends = ["\r\n", "\n"] if clean else ["\r\n", "\n", "\r"]
    cells = {"json": json_file_cells, "clean": st.one_of(plain_cells, padded_cells),
             "any": st.one_of(plain_cells, padded_cells, st.sampled_from(ODD_CELLS))}[kind]
    treatments = one_in(10, t_cells, st.sampled_from(["0", "1"])) if kind == "json" \
        else t_cells
    lines = []
    for _ in range(draw(st.integers(0 if not clean else 1, 4))):
        shape = "row" if clean else draw(st.sampled_from(["row", "row", "ragged", "blank"]))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        n_cells = width if shape == "row" else draw(st.sampled_from([width - 1, width + 1]))
        row = [draw(cells) for _ in range(n_cells)]
        if t_col < n_cells:
            row[t_col] = draw(treatments if clean else st.one_of(t_cells, cells))
        lines.append(",".join(row))
    text = header
    for line in lines:
        text += draw(st.sampled_from(ends)) + line
    if draw(st.booleans()):
        text += draw(st.sampled_from(ends))
    return text.encode("utf-8")


class TestFastReader:
    """The orjson shortcut gives exactly what csv.reader + float() give."""

    @pytest.mark.filterwarnings("error::RuntimeWarning", "error::UserWarning")
    @settings(max_examples=300, deadline=None)
    @given(content=csv_files())
    def test_agrees_with_exact_path(self, content, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(content)
        assert load_outcome(path) == exact_outcome(path)

    def test_written_file_is_read_by_orjson_as_a_view(self, tmp_path, orjson_parses,
                                                       monkeypatch):
        ds, _ = generate(SynthConfig(n=50, d=7, seed=4))
        path = tmp_path / "d.csv"
        write_csv(path, ds)
        assert load_outcome(path) == exact_outcome(path)
        without_csv_reader(monkeypatch)
        back = load_csv(path)
        assert len(orjson_parses) == 2
        np.testing.assert_array_equal(back.X, ds.X)
        assert back.X.base is not None and back.X.base is back.y.base

    def test_body_is_parsed_in_chunks_of_whole_lines(self, tmp_path, orjson_parses,
                                                     monkeypatch):
        ds, _ = generate(SynthConfig(n=3000, d=20, seed=7))
        path = tmp_path / "d.csv"
        write_csv(path, ds)
        exact = exact_outcome(path)
        without_csv_reader(monkeypatch)
        assert load_outcome(path) == exact
        # each line end of the body is a row separator in exactly one chunk
        assert len(orjson_parses) >= 3
        assert sum(text.count(b"],[") for text in orjson_parses) == ds.n
        back = load_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.gt_m1, ds.gt_m1)

    def test_scattered_covariates_are_copied_in_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,t,x2,y\n0.5,1,-2.0,3.0\n0.25,0,4.0,5.0\n")
        back = load_csv(path)
        np.testing.assert_array_equal(back.X, [[0.5, -2.0], [0.25, 4.0]])
        assert back.covariate_names == ["x1", "x2"]

    # one test per decline rule; each file must go to csv.reader alone
    @pytest.mark.parametrize("rule, cell", [
        ("non-ASCII", "\u0661\u0662"), ("quote", '"2.5"'), ("underscore", "1_0")])
    def test_scan_declines_cells_numpy_rejects(self, tmp_path, orjson_parses, rule, cell):
        # NumPy's reader rejected these cells too; each holds a byte no JSON number has
        path = tmp_path / "d.csv"
        path.write_text(f"x1,t,y\r\n0.5,0,1.0\r\n{cell},1,0.0\r\n", encoding="utf-8")
        assert load_csv(path).X[1, 0] == float(next(csv.reader([cell]))[0])
        assert orjson_parses == []

    @pytest.mark.parametrize("cell", ["\x0b2.5", "2.5\x0c", "1.5\x00", "nan", "Infinity",
                                      "true", '"[1]"'])
    def test_scan_declines_bytes_outside_json_numbers(self, tmp_path, orjson_parses, cell):
        # float() strips \v and \f, JSON does not; letters may spell JSON literals
        path = tmp_path / "d.csv"
        path.write_text(f"x1,t,y\n0.5,0,1.0\n{cell},1,0.0\n", encoding="utf-8")
        assert load_outcome(path) == exact_outcome(path)
        assert orjson_parses == []

    @pytest.mark.parametrize("cell", ["-0", "-0\t", " -0"])
    def test_scan_declines_negative_zero_integer(self, tmp_path, orjson_parses, cell):
        # orjson reads -0 as the int 0; float() keeps the sign
        for column in ("x1", "y"):
            path = tmp_path / f"{column}.csv"
            row = {"x1": f"{cell},1,2.0", "y": f"0.5,1,{cell}"}[column]
            path.write_text(f"x1,t,y\r\n0.5,0,1.0\r\n{row}\r\n")
            assert load_outcome(path) == exact_outcome(path)
        back = load_csv(tmp_path / "y.csv")
        assert np.signbit(back.y[1])
        assert orjson_parses == []

    def test_negative_zero_float_tokens_are_parsed(self, tmp_path, orjson_parses,
                                                   monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,t,y\n-0.0,-0e0,1,-0E+1\n1e-05,-0.5,0,-1e-400\n")
        exact = exact_outcome(path)
        without_csv_reader(monkeypatch)
        assert load_outcome(path) == exact
        assert len(orjson_parses) == 1
        back = load_csv(path)
        assert np.signbit(back.X[0]).all() and np.signbit(back.y).all()

    def test_orjson_reads_float_bits(self):
        # pins the agreement the shortcut rests on, so a change in orjson's
        # parser fails here rather than in a loaded dataset
        texts = float_parse_sweep()
        assert len(texts) > 250_000
        rows = data._json_rows("\n".join(texts).encode(), 1)
        assert rows is not None
        expected = np.array([float(t) for t in texts])
        mismatches = [(t, v) for t, v, ok in zip(texts, rows[:, 0].tolist(),
                                                  rows[:, 0].view(np.uint64) ==
                                                  expected.view(np.uint64)) if not ok]
        assert mismatches == []
        # past the float range float() reads inf and orjson raises, so the chunk declines
        for text in ["1e400", "-1e309", "1.7976931348623159e308", "1" + "0" * 400]:
            assert float(text) in (np.inf, -np.inf)
            assert data._json_rows(text.encode() + b"\n", 1) is None

    @pytest.mark.parametrize("cell", ["+.5", "1.", ".5", "01", "-00", "1e400",
                                      "1" + "0" * 399],
                             ids=["+.5", "1.", ".5", "01", "-00", "1e400", "400 digits"])
    def test_numerals_json_rejects_are_read_by_float(self, tmp_path, orjson_parses, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"x1,t,y\n0.5,0,1.0\n{cell},1,0.0\n")
        assert load_outcome(path) == exact_outcome(path)
        assert len(orjson_parses) == 1

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_scan_declines_information_separators(self, tmp_path, sep):
        # NumPy strips them as whitespace; float() rejects them in ASCII text
        path = tmp_path / "d.csv"
        path.write_text(f"x1,t,y\n0.5,1,2.0\n{sep}0.5,0,3.0\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value).endswith(f"row 3, column 'x1': non-numeric cell {sep + '0.5'!r}")

    def test_scan_declines_lone_carriage_return(self, tmp_path, orjson_parses):
        # csv.reader ends a row at a lone CR, JSON skips it as whitespace
        path = tmp_path / "d.csv"
        path.write_bytes(b"x1,t,y\r\n0.5,1,2.0\r0.25,0,3.0\r\n")
        np.testing.assert_array_equal(load_csv(path).X, [[0.5], [0.25]])
        assert orjson_parses == []

    def test_lone_carriage_return_before_a_comma_ends_the_row(self, tmp_path):
        # JSON reads "1\r,2.0" as two numbers of one row
        path = tmp_path / "d.csv"
        path.write_bytes(b"x1,t,y\r\n0.5,1\r,2.0\r\n")
        with pytest.raises(DataError, match="row 2 has 2 cells, expected 3"):
            load_csv(path)

    def test_header_with_lone_carriage_return(self, tmp_path):
        # a quoted CR in the header is a line to csv.reader, not to readline
        path = tmp_path / "d.csv"
        path.write_bytes(b'x1,"a\rb",t,y\r\n0.5,0.25,1,2.0\r\n0.75,0.5,0,3.0\r\n')
        back = load_csv(path)
        assert back.covariate_names == ["x1", "a\rb"]
        np.testing.assert_array_equal(back.X, [[0.5, 0.25], [0.75, 0.5]])

    def test_scan_declines_line_past_field_limit(self, tmp_path):
        # csv.reader refuses the long cell; orjson reads it as out of range
        path = tmp_path / "d.csv"
        path.write_text(f"x1,t,y\n0.5,1,2.0\n{'1' * (csv.field_size_limit() + 1)},1,3.0\n")
        with pytest.raises(DataError, match="row 3: field larger than field limit"):
            load_csv(path)

    @pytest.mark.parametrize("cell", [" " * csv.field_size_limit() + "0.5",
                                      "0." + "0" * csv.field_size_limit() + "1"],
                             ids=["spaces", "zeros"])
    def test_scan_declines_long_cell_orjson_reads(self, tmp_path, cell):
        # orjson reads these cells as 0.5 and 0.0; csv.reader refuses them
        path = tmp_path / "d.csv"
        path.write_text(f"x1,t,y\n0.5,1,2.0\n{cell},1,3.0\n")
        with pytest.raises(DataError, match="row 3: field larger than field limit"):
            load_csv(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning", "error::UserWarning")
    @pytest.mark.parametrize("body, message", [
        ("", "no data rows"), ("\n", "row 2 has 0 cells"),
        ("\r\n\r\n", "row 2 has 0 cells"), ("0.5,1,2.0\n\n", "row 3 has 0 cells")])
    def test_blank_bodies_raise_without_warnings(self, tmp_path, body, message):
        path = tmp_path / "d.csv"
        path.write_text("x1,t,y\n" + body, newline="")
        with pytest.raises(DataError, match=message):
            load_csv(path)

    @pytest.mark.parametrize("body, message", [
        ("0.5,1,2.0\r\n\r\n0.5,0,3.0\r\n", "row 3 has 0 cells"),
        ("0.5,1,2.0\r\n \r\n", "row 3 has 1 cells"),
        ("0.5,1,2.0\n0.5,0\n", "row 3 has 2 cells"),
        ("0.5,1\n0.5,0\n", "row 2 has 2 cells"),
        ("0.5,1,2.0,3.0\n0.5,0,1.0,4.0", "row 2 has 4 cells")])
    def test_scan_declines_blank_and_ragged_lines(self, tmp_path, orjson_parses, body,
                                                  message):
        path = tmp_path / "d.csv"
        path.write_text("x1,t,y\n" + body, newline="")
        with pytest.raises(DataError, match=message):
            load_csv(path)
        assert len(orjson_parses) == 1


def random_doubles(rng, n):
    """n finite float64s: half random bit patterns, half N(0, 1) scaled to 1e-6..1e16."""
    bits = rng.integers(0, 2 ** 64, size=4 * n, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-6, 16, n // 2)
    return np.concatenate([bits[np.isfinite(bits)][:n - n // 2], scaled])


def midpoint_texts(values):
    """The exact decimal midpoint above each value and its neighbours one unit
    in its last digit above and below, where rounding is hardest."""
    texts = []
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        for v in values.tolist():
            mid = (decimal.Decimal(v) + decimal.Decimal(np.nextafter(v, np.inf).item())) / 2
            step = decimal.Decimal((0, (1,), mid.as_tuple().exponent))
            texts += [str(mid), str(mid + step), str(mid - step)]
    return texts


def float_parse_sweep():
    """About 250000 numerals: repr of random float64s, decimal midpoints
    between neighbouring doubles with their neighbours, 17-30-digit
    mantissas at exponents -330..300, the subnormal rounding edge, integers
    around 2**53, 2**63, 2**64 and 10**20, and values that round to zero or
    to the largest float."""
    rng = np.random.default_rng(10)
    texts = [repr(v) for v in random_doubles(rng, 100_000).tolist()]
    texts += midpoint_texts(random_doubles(rng, 25_000))
    for _ in range(60_000):
        digits = "".join(map(str, rng.integers(0, 10, rng.integers(17, 31))))
        texts.append(f"{'-' if rng.random() < 0.5 else ''}{digits[0]}.{digits[1:]}"
                     f"e{rng.integers(-330, 301)}")
    edge = "2.4703282292062327"   # half the smallest subnormal, 2.47032822920623272...e-324
    texts += [f"{edge[:-1]}{k}e-324" for k in range(10)] + midpoint_texts(np.array([0.0]))
    for base in (2 ** 53, 2 ** 63, 2 ** 64, 10 ** 20):
        texts += [str(sign * (base + k)) for k in range(-1000, 1001) for sign in (1, -1)]
    texts += ["0.0", "-0.0", "0e0", "-0e-5", "1e-400", "-1e-400", "1E+5", "1e+308",
              "1.7976931348623157e308", "1.7976931348623158e308", "4.9e-324", "5e-324"]
    return texts


def orjson_texts(values):
    """orjson's text of each float in a 1-D array, as write_csv's fast path gets it."""
    return orjson.dumps(np.ascontiguousarray(values, dtype=float),
                        option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")


def plain_range_sweep():
    """+-0.0, the float neighbours of 1e-4 and 1e16, non-finite, subnormal and
    huge cells, and in every power of ten from 1e-4 to 1e15 3000 random
    values, the 999 short decimals k e<exp> and both float neighbours of
    each, which need 16 or 17 digits."""
    rng = np.random.default_rng(9)
    edges = [1e-4, 1e16]
    parts = [[0.0, -0.0, np.nan, np.inf, 5e-324, 1e-05, 1e300], edges,
             [np.nextafter(e, s) for e in edges for s in (0, np.inf)]]
    for e in range(-4, 16):
        short = np.array([float(f"{k}e{e}") for k in range(1, 1000)])
        parts += [10.0 ** e * (1 + 9 * rng.random(3000)), short,
                  np.nextafter(short, 0), np.nextafter(short, np.inf)]
    values = np.concatenate(parts)
    return np.concatenate([values, -values])


def fast_vs_reference(folder, ds):
    write_csv(folder / "fast.csv", ds)
    reference_write_csv(folder / "ref.csv", ds)
    return (folder / "fast.csv").read_bytes(), (folder / "ref.csv").read_bytes()


class TestFastWriter:
    """write_csv's orjson rows are byte for byte the repr rows they replace."""

    def test_orjson_writes_repr_in_the_plain_range(self):
        values = plain_range_sweep()
        a = np.abs(values)
        plain = (a == 0) | ((a >= 1e-4) & (a < 1e16))
        assert plain.sum() > 200_000
        texts = orjson_texts(values)
        mismatches = [(repr(v), text) for v, text, p in zip(values.tolist(), texts, plain)
                      if p and text != repr(v)]
        assert mismatches == []
        np.testing.assert_array_equal(data._plain_rows(values[:, None]), plain)
        # just outside the range the two formats part, so the bounds are tight
        outside = [np.nextafter(1e-4, 0).item(), 1e-05, 1e16, -1e16]
        assert orjson_texts(outside) == ["0.00009999999999999999", "0.00001", "1e16", "-1e16"]
        assert [repr(v) for v in outside] == ["9.999999999999999e-05", "1e-05", "1e+16",
                                              "-1e+16"]

    def test_several_blocks_with_fallback_rows_inside(self, tmp_path):
        n = 2 * data._WRITE_BLOCK_ROWS + 5
        ds = toy_dataset(n=n, d=4, seed=3, gt=True)
        odd = {1: 1e-05, 500: 1e16, 1023: -5e-324, 1024: 1.7976931348623157e308,
               2047: 9.999999999999999e-05, n - 1: -1e300}
        for k, (i, v) in enumerate(odd.items()):
            ds.X[i, k % ds.d] = v
        ds.gt_m1[700] = 3e-7
        fast, ref = fast_vs_reference(tmp_path, ds)
        assert fast == ref
        assert b"1e-05" in fast and b"1e+16" in fast and b"3e-07" in fast

    def test_non_finite_and_subnormal_cells(self, tmp_path):
        specials = np.array([np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
                             2.225073858507201e-308, 1.5, -0.0])
        n = specials.size
        ds = ObservationalDataset(X=np.stack([specials, np.roll(specials, 2)], axis=1),
                                  t=np.arange(n) % 2, y=np.roll(specials, 5),
                                  gt_y0=specials, gt_y1=specials[::-1],
                                  gt_m0=np.roll(specials, 1), gt_m1=np.ones(n))
        fast, ref = fast_vs_reference(tmp_path, ds)
        assert fast == ref
        assert b"nan" in fast and b"-inf" in fast and b"null" not in fast

    def test_load_csv_view_is_written_as_the_reference(self, tmp_path):
        ds, _ = generate(SynthConfig(n=30, d=5, seed=6))
        write_csv(tmp_path / "first.csv", ds)
        back = load_csv(tmp_path / "first.csv")
        assert not back.X.flags.c_contiguous
        fast, ref = fast_vs_reference(tmp_path, back)
        assert fast == ref == (tmp_path / "first.csv").read_bytes()

    def test_scattered_columns_are_written_as_the_reference(self, tmp_path):
        ds = toy_dataset(n=40, d=7, seed=4).drop_covariates(["x2", "x5", "x6"])
        assert not ds.X.flags.c_contiguous
        fast, ref = fast_vs_reference(tmp_path, ds)
        assert fast == ref

    @pytest.mark.parametrize("n, d", [(1, 3), (5, 1), (1, 1), (data._WRITE_BLOCK_ROWS + 1, 2)])
    def test_one_row_and_one_column_blocks(self, tmp_path, n, d):
        fast, ref = fast_vs_reference(tmp_path, toy_dataset(n=n, d=d, seed=n + d, gt=True))
        assert fast == ref

    @pytest.mark.parametrize("n", [1, 3])
    def test_no_covariate_columns(self, n):
        # load_csv refuses a file without covariates, so no such dataset is written
        with pytest.raises(DataError, match="at least one covariate column"):
            ObservationalDataset(X=np.empty((n, 0)), t=np.arange(n) % 2,
                                 y=np.linspace(0.5, 2.5, n))


class TestWriteRows:
    def test_cells_are_written_as_repr_and_empty(self, tmp_path):
        cells = [0.1, np.float64(1e-05), math.nan, np.float64(1e16), None, 3,
                 np.int64(7), 'a,"b"', -0.0]
        write_rows(tmp_path / "t.csv", [f"c{k}" for k in range(len(cells))], [cells])
        # what the per-cell formatting write_rows replaced gave
        old = ["" if v is None else v if isinstance(v, (str, int, np.integer))
               else repr(float(v)) for v in cells]
        with open(tmp_path / "old.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([[f"c{k}" for k in range(len(cells))], old])
        text = (tmp_path / "t.csv").read_bytes()
        assert text == (tmp_path / "old.csv").read_bytes()
        assert text.endswith(b'\r\n0.1,1e-05,nan,1e+16,,3,7,"a,""b""",-0.0\r\n')


class TestSplit:
    def test_hundred_rows(self):
        parts = split(100, seed=0)
        assert len(parts.test) == 20
        assert len(parts.validation) == 16
        assert len(parts.train) == 64

    def test_floor_rule_minimum(self):
        parts = split(5, seed=0)
        assert len(parts.test) == 1
        assert len(parts.validation) == 0
        assert len(parts.train) == 4

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            split(4, seed=0)

    def test_deterministic(self):
        a, b = split(73, seed=5), split(73, seed=5)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)
        c = split(73, seed=6)
        assert not np.array_equal(a.test, c.test)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(5, 10_000), st.integers(0, 2 ** 31))
    def test_partition_property(self, n, seed):
        parts = split(n, seed)
        assert len(parts.test) == int(0.2 * n)
        assert len(parts.validation) == int(0.2 * (n - len(parts.test)))
        merged = np.concatenate([parts.train, parts.validation, parts.test])
        assert len(merged) == n
        np.testing.assert_array_equal(np.sort(merged), np.arange(n))


class TestSampleArmBatch:
    def test_only_requested_arm(self):
        ds = toy_dataset(n=30, seed=3)
        treated, control = arm_pools(ds, np.arange(30))
        assert np.all(ds.t[treated] == 1) and np.all(ds.t[control] == 0)
        rng = np.random.default_rng(0)
        batch = sample_arm_batch(treated, 5, rng)
        assert np.all(ds.t[batch] == 1)

    def test_respects_index_restriction(self):
        ds = toy_dataset(n=30, seed=3)
        allowed = np.arange(10)
        _, control = arm_pools(ds, allowed)
        rng = np.random.default_rng(1)
        batch = sample_arm_batch(control, 4, rng)
        assert set(batch) <= set(allowed.tolist())

    def test_pools_keep_the_given_order(self):
        ds = ObservationalDataset(X=np.ones((6, 2)), t=[1, 0, 1, 1, 0, 0], y=[0.0] * 6)
        treated, control = arm_pools(ds, [5, 3, 0, 4, 2])
        np.testing.assert_array_equal(treated, [3, 0, 2])
        np.testing.assert_array_equal(control, [5, 4])

    def test_without_replacement_when_pool_is_large(self):
        rng = np.random.default_rng(2)
        batch = sample_arm_batch(np.arange(20), 10, rng)
        assert len(set(batch.tolist())) == 10

    def test_with_replacement_fallback(self):
        ds = ObservationalDataset(X=np.ones((3, 2)), t=[1, 1, 0], y=[0.0] * 3)
        treated, _ = arm_pools(ds, np.arange(3))
        rng = np.random.default_rng(3)
        batch = sample_arm_batch(treated, 8, rng)
        assert len(batch) == 8
        assert set(batch.tolist()) <= {0, 1}

    def test_empty_arm_raises(self):
        ds = ObservationalDataset(X=np.ones((3, 2)), t=[1, 1, 1], y=[0.0] * 3)
        _, control = arm_pools(ds, np.arange(3))
        assert control.size == 0
        with pytest.raises(ValueError):
            sample_arm_batch(control, 2, np.random.default_rng(0))

    def test_replay_with_same_rng_state(self):
        ds = toy_dataset(n=40, seed=9)
        treated, _ = arm_pools(ds, np.arange(40))
        b1 = sample_arm_batch(treated, 6, np.random.default_rng(7))
        b2 = sample_arm_batch(treated, 6, np.random.default_rng(7))
        np.testing.assert_array_equal(b1, b2)
