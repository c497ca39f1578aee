"""Dataset model, CSV ingestion/emission, deterministic splits, batch sampling.

CSV contract: comma-separated, UTF-8, mandatory header with covariate columns
x1..xd, a binary "t" column and a real "y" column; the four ground-truth
columns gt_y0, gt_y1, gt_m0, gt_m1 are optional but must appear together.
Floats are written with shortest round-trip decimal encoding, so a
write/load cycle preserves every value bit-exactly.
"""

from __future__ import annotations

import array
import csv
from dataclasses import dataclass, field

import numpy as np

GT_COLUMNS = ("gt_y0", "gt_y1", "gt_m0", "gt_m1")


class DataError(ValueError):
    """Structured ingestion failure, naming the offending row/column."""


@dataclass
class ObservationalDataset:
    """Covariates X (n, d), binary treatment t, factual outcome y.

    Ground-truth potential outcomes/mediators are present for synthetic data
    only (all four or none).
    """

    X: np.ndarray
    t: np.ndarray
    y: np.ndarray
    gt_y0: np.ndarray | None = None
    gt_y1: np.ndarray | None = None
    gt_m0: np.ndarray | None = None
    gt_m1: np.ndarray | None = None
    covariate_names: list = field(default_factory=list)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.t = np.asarray(self.t, dtype=int)
        self.y = np.asarray(self.y, dtype=float)
        n = self.X.shape[0]
        if n < 1 or self.X.ndim != 2:
            raise DataError("dataset must have at least one complete row")
        if self.t.shape != (n,) or self.y.shape != (n,):
            raise DataError("t and y must align with X rows")
        if not np.all(np.isin(self.t, (0, 1))):
            raise DataError("treatment t must be strictly binary")
        gt = [self.gt_y0, self.gt_y1, self.gt_m0, self.gt_m1]
        if any(g is not None for g in gt) and any(g is None for g in gt):
            raise DataError("ground-truth columns must all be present or all absent")
        for name, g in zip(GT_COLUMNS, gt):
            if g is not None:
                g = np.asarray(g, dtype=float)
                if g.shape != (n,):
                    raise DataError(f"{name} must align with X rows")
                setattr(self, name, g)
        if not self.covariate_names:
            self.covariate_names = [f"x{j + 1}" for j in range(self.X.shape[1])]
        if len(self.covariate_names) != self.X.shape[1]:
            raise DataError("covariate names do not match X width")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def has_ground_truth(self) -> bool:
        return self.gt_y0 is not None

    def true_ite(self) -> np.ndarray:
        if not self.has_ground_truth:
            raise DataError("dataset carries no ground truth")
        return self.gt_y1 - self.gt_y0

    def drop_covariates(self, names) -> "ObservationalDataset":
        """New dataset without the named covariate columns (d shrinks)."""
        names = set(names)
        unknown = names - set(self.covariate_names)
        if unknown:
            raise DataError(f"unknown covariates: {sorted(unknown)}")
        keep = [j for j, c in enumerate(self.covariate_names) if c not in names]
        if not keep:
            raise DataError("cannot drop every covariate")
        return ObservationalDataset(
            X=self.X[:, keep], t=self.t, y=self.y,
            gt_y0=self.gt_y0, gt_y1=self.gt_y1,
            gt_m0=self.gt_m0, gt_m1=self.gt_m1,
            covariate_names=[self.covariate_names[j] for j in keep])


_WRITE_BLOCK_ROWS = 1024


def write_csv(path, dataset: ObservationalDataset):
    """Write the header, then one line per row in blocks of rows.

    Each float is written as repr(float), each treatment as its integer. The
    header goes through csv.writer, so a covariate name that needs quotes
    gets them; data lines end in CRLF, as csv.writer's do. Only one block of
    rows is held as Python objects at a time.
    """
    header = list(dataset.covariate_names) + ["t", "y"]
    tail = [dataset.y]
    if dataset.has_ground_truth:
        header += list(GT_COLUMNS)
        tail += [dataset.gt_y0, dataset.gt_y1, dataset.gt_m0, dataset.gt_m1]
    tail = np.stack(tail, axis=1)

    def lines():
        for lo in range(0, dataset.n, _WRITE_BLOCK_ROWS):
            hi = lo + _WRITE_BLOCK_ROWS
            for x, t, rest in zip(dataset.X[lo:hi].tolist(), dataset.t[lo:hi].tolist(),
                                  tail[lo:hi].tolist()):
                yield ",".join(map(repr, x + [t] + rest)) + "\r\n"

    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(lines())


def _parse_rows(path, reader, header) -> np.ndarray:
    """Every remaining row of reader as one (n, len(header)) float64 array.

    Cells are parsed with float(); rows stream into one growing float64
    buffer, so no row is kept as strings. The first ragged row or
    non-numeric cell raises DataError naming its row (the header is row 1).
    """
    width = len(header)
    buf = array.array("d")
    for i, row in enumerate(reader, start=2):
        if len(row) != width:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {width}")
        try:
            buf.extend(map(float, row))
        except ValueError:
            for c, cell in zip(header, row):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(f"{path}: row {i}, column '{c}': "
                                    f"non-numeric cell {cell!r}") from None
    if not buf:
        raise DataError(f"{path}: no data rows")
    return np.frombuffer(buf).reshape(-1, width)


def load_csv(path) -> ObservationalDataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        for j, c in enumerate(header):
            if c in header[:j]:
                raise DataError(f"{path}: duplicate column name '{c}' in the header")
        if "t" not in header or "y" not in header:
            raise DataError(f"{path}: header must contain 't' and 'y' columns")
        cov_names = [c for c in header if c not in ("t", "y") and c not in GT_COLUMNS]
        if not cov_names:
            raise DataError(f"{path}: no covariate columns found")
        gt_present = [c for c in GT_COLUMNS if c in header]
        if gt_present and len(gt_present) != len(GT_COLUMNS):
            raise DataError(f"{path}: partial ground-truth columns {gt_present}")
        col_index = {c: header.index(c) for c in header}
        values = _parse_rows(path, reader, header)

    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"{path}: row {i + 2}, column '{header[j]}': "
                        f"non-finite cell {values[i, j]!r}")

    t_raw = values[:, col_index["t"]]
    bad = np.nonzero(~np.isin(t_raw, (0.0, 1.0)))[0]
    if bad.size:
        raise DataError(f"{path}: row {bad[0] + 2}: non-binary treatment {t_raw[bad[0]]!r}")
    kwargs = {}
    if gt_present:
        kwargs = {c: values[:, col_index[c]] for c in GT_COLUMNS}
    return ObservationalDataset(
        X=values[:, [col_index[c] for c in cov_names]],
        t=t_raw, y=values[:, col_index["y"]],
        covariate_names=cov_names, **kwargs)


@dataclass
class SplitIndices:
    """Disjoint train/validation/test indices covering 0..n-1."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int


def split(n: int, seed: int) -> SplitIndices:
    """80/20 train/test split; 20% of the training portion is validation."""
    if n < 5:
        raise DataError("need n >= 5 to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = int(0.2 * n)
    n_val = int(0.2 * (n - n_test))
    return SplitIndices(train=perm[n_test + n_val:],
                        validation=perm[n_test:n_test + n_val],
                        test=perm[:n_test], seed=seed)


def sample_arm_batch(dataset: ObservationalDataset, indices, arm: int, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform batch of dataset indices from one treatment arm.

    Samples without replacement; falls back to with-replacement when the arm
    is smaller than the batch.
    """
    indices = np.asarray(indices)
    pool = indices[dataset.t[indices] == arm]
    if pool.size == 0:
        name = "treated" if arm == 1 else "control"
        raise ValueError(f"the {name} arm is empty within the given indices")
    return rng.choice(pool, size=size, replace=pool.size < size)
