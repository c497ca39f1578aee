"""CSV round-trips, dataset validation, splits, arm batch sampling."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtanet import data
from dtanet.data import (GT_COLUMNS, DataError, ObservationalDataset, arm_pools,
                         load_csv, sample_arm_batch, split, write_csv)
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

    def test_cell_past_field_limit_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,t,y\n0.5,1,2.0\n\"0.5\n\",0,1.0\n"
                        f"{'1' * (csv.field_size_limit() + 1)},1,3.0\n")
        with pytest.raises(DataError, match="row 4: field larger than field limit"):
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
    """load_outcome with the C-reader shortcut declined, so csv.reader parses."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_fast_rows", lambda *args: None)
        return load_outcome(path)


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """Count np.loadtxt calls; each still runs."""
    calls = []
    real = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


# (header, index of its t column)
HEADERS = [("x1,x2,t,y", 2), ("x1,t,x2,y", 1), ('"x,1",x2,t,y', 2),
           ('"x\r\n1",x2,t,y', 2), ('"x\r1",x2,t,y', 2),
           ("x1,x2,t,y," + ",".join(GT_COLUMNS), 2)]
PADDING = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f"]
ODD_CELLS = ["1_0", '"2.5"', '"1,5"', "\u0661\u0662", "nan", "inf", "-Infinity", "",
             "oops", "1e400", "0x10", "\x00", "2", "\xa01.5"]
plain_cells = st.one_of(finite.map(repr), st.sampled_from(EDGE_VALUES).map(repr),
                        st.integers(-10 ** 20, 10 ** 20).map(str), st.just("+.5"))
padded_cells = st.tuples(st.sampled_from(PADDING), plain_cells,
                         st.sampled_from(PADDING)).map("".join)
t_cells = st.sampled_from(["0", "1", "1.0", "-0", " 1", "1e0"])


@st.composite
def csv_files(draw):
    """CSV bytes from a cell grammar and a line grammar.

    A clean file has rows of the header's width, valid cells and CRLF or LF
    ends; any other file also draws odd cells, ragged rows, blank or
    whitespace lines and lone CRs.
    """
    header, t_col = draw(st.sampled_from(HEADERS))
    width = len(next(csv.reader([header])))
    clean = draw(st.booleans())
    ends = ["\r\n", "\n"] if clean else ["\r\n", "\n", "\r"]
    cells = st.one_of(plain_cells, padded_cells) if clean else \
        st.one_of(plain_cells, padded_cells, st.sampled_from(ODD_CELLS))
    lines = []
    for _ in range(draw(st.integers(0 if not clean else 1, 4))):
        kind = "row" if clean else draw(st.sampled_from(["row", "row", "ragged", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        n_cells = width if kind == "row" else draw(st.sampled_from([width - 1, width + 1]))
        row = [draw(cells) for _ in range(n_cells)]
        if t_col < n_cells:
            row[t_col] = draw(t_cells if clean else st.one_of(t_cells, cells))
        lines.append(",".join(row))
    text = header
    for line in lines:
        text += draw(st.sampled_from(ends)) + line
    if draw(st.booleans()):
        text += draw(st.sampled_from(ends))
    return text.encode("utf-8")


class TestFastReader:
    """The np.loadtxt shortcut gives exactly what csv.reader + float() give."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(content=csv_files())
    def test_agrees_with_exact_path(self, content, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(content)
        assert load_outcome(path) == exact_outcome(path)

    def test_written_file_is_read_by_numpy_as_a_view(self, tmp_path, loadtxt_calls):
        ds, _ = generate(SynthConfig(n=50, d=7, seed=4))
        path = tmp_path / "d.csv"
        write_csv(path, ds)
        assert load_outcome(path) == exact_outcome(path)
        back = load_csv(path)
        assert len(loadtxt_calls) == 2
        np.testing.assert_array_equal(back.X, ds.X)
        assert back.X.base is not None and back.X.base is back.y.base

    def test_scattered_covariates_are_copied_in_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,t,x2,y\n0.5,1,-2.0,3.0\n0.25,0,4.0,5.0\n")
        back = load_csv(path)
        np.testing.assert_array_equal(back.X, [[0.5, -2.0], [0.25, 4.0]])
        assert back.covariate_names == ["x1", "x2"]

    # one test per scan rule; each file must go to csv.reader alone
    @pytest.mark.parametrize("rule, cell", [
        ("non-ASCII", "\u0661\u0662"), ("quote", '"2.5"'), ("underscore", "1_0")])
    def test_scan_declines_cells_numpy_rejects(self, tmp_path, loadtxt_calls, rule, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"x1,t,y\r\n0.5,0,1.0\r\n{cell},1,0.0\r\n", encoding="utf-8")
        assert load_csv(path).X[1, 0] == float(next(csv.reader([cell]))[0])
        assert loadtxt_calls == []

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_scan_declines_information_separators(self, tmp_path, sep):
        # NumPy strips them as whitespace; float() rejects them in ASCII text
        path = tmp_path / "d.csv"
        path.write_text(f"x1,t,y\n0.5,1,2.0\n{sep}0.5,0,3.0\n")
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value).endswith(f"row 3, column 'x1': non-numeric cell {sep + '0.5'!r}")

    def test_scan_declines_lone_carriage_return(self, tmp_path, loadtxt_calls):
        # csv.reader ends a row at a lone CR, NumPy's line reader does not
        path = tmp_path / "d.csv"
        path.write_bytes(b"x1,t,y\r\n0.5,1,2.0\r0.25,0,3.0\r\n")
        np.testing.assert_array_equal(load_csv(path).X, [[0.5], [0.25]])
        assert loadtxt_calls == []

    def test_header_with_lone_carriage_return(self, tmp_path):
        # a quoted CR in the header is a line to csv.reader, not to readline
        path = tmp_path / "d.csv"
        path.write_bytes(b'x1,"a\rb",t,y\r\n0.5,0.25,1,2.0\r\n0.75,0.5,0,3.0\r\n')
        back = load_csv(path)
        assert back.covariate_names == ["x1", "a\rb"]
        np.testing.assert_array_equal(back.X, [[0.5, 0.25], [0.75, 0.5]])

    def test_scan_declines_line_past_field_limit(self, tmp_path):
        # NumPy would read the long cell as inf; csv.reader refuses it
        path = tmp_path / "d.csv"
        path.write_text(f"x1,t,y\n0.5,1,2.0\n{'1' * (csv.field_size_limit() + 1)},1,3.0\n")
        with pytest.raises(DataError, match="row 3: field larger than field limit"):
            load_csv(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body, message", [
        ("", "no data rows"), ("\n", "row 2 has 0 cells"),
        ("\r\n\r\n", "row 2 has 0 cells"), ("0.5,1,2.0\n\n", "row 3 has 0 cells")])
    def test_blank_bodies_raise_without_warnings(self, tmp_path, body, message):
        path = tmp_path / "d.csv"
        path.write_text("x1,t,y\n" + body, newline="")
        with pytest.raises(DataError, match=message):
            load_csv(path)


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
