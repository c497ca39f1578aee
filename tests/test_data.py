"""CSV round-trips, dataset validation, splits, arm batch sampling."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtanet.data import (GT_COLUMNS, DataError, ObservationalDataset, load_csv,
                         sample_arm_batch, split, write_csv)
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
        rng = np.random.default_rng(0)
        batch = sample_arm_batch(ds, np.arange(30), 1, 5, rng)
        assert np.all(ds.t[batch] == 1)

    def test_respects_index_restriction(self):
        ds = toy_dataset(n=30, seed=3)
        allowed = np.arange(10)
        rng = np.random.default_rng(1)
        batch = sample_arm_batch(ds, allowed, 0, 4, rng)
        assert set(batch) <= set(allowed.tolist())

    def test_without_replacement_when_pool_is_large(self):
        ds = ObservationalDataset(X=np.ones((20, 2)), t=np.ones(20, dtype=int),
                                  y=np.zeros(20))
        rng = np.random.default_rng(2)
        batch = sample_arm_batch(ds, np.arange(20), 1, 10, rng)
        assert len(set(batch.tolist())) == 10

    def test_with_replacement_fallback(self):
        ds = ObservationalDataset(X=np.ones((3, 2)), t=[1, 1, 0], y=[0.0] * 3)
        rng = np.random.default_rng(3)
        batch = sample_arm_batch(ds, np.arange(3), 1, 8, rng)
        assert len(batch) == 8
        assert set(batch.tolist()) <= {0, 1}

    def test_empty_arm_raises(self):
        ds = ObservationalDataset(X=np.ones((3, 2)), t=[1, 1, 1], y=[0.0] * 3)
        with pytest.raises(ValueError, match="control"):
            sample_arm_batch(ds, np.arange(3), 0, 2, np.random.default_rng(0))

    def test_replay_with_same_rng_state(self):
        ds = toy_dataset(n=40, seed=9)
        b1 = sample_arm_batch(ds, np.arange(40), 1, 6, np.random.default_rng(7))
        b2 = sample_arm_batch(ds, np.arange(40), 1, 6, np.random.default_rng(7))
        np.testing.assert_array_equal(b1, b2)
