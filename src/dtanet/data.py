"""Dataset model, CSV ingestion/emission, deterministic splits, batch sampling.

Every CSV the command line writes is written here: datasets by write_csv and
every other table by write_rows (a float is its repr, None an empty cell).

CSV contract: comma-separated, UTF-8, mandatory header with covariate columns
x1..xd, a binary "t" column and a real "y" column; the four ground-truth
columns gt_y0, gt_y1, gt_m0, gt_m1 are optional but must appear together.
A file means what csv.reader splits it into, each data cell parsed by
float(). Floats are written with shortest round-trip decimal encoding, so a
write/load cycle preserves every value bit-exactly.

load_csv reads the data rows with orjson's float parser only where a scan of
each chunk of the body shows that it must return what csv.reader + float()
return: every byte is a digit, one of + - . e E, a comma, space, tab, CR or
LF; no cell is the integer -0 (orjson reads it as the int 0, losing the sign
float() keeps); every CR comes before an LF; no line is longer than csv's
field limit; orjson raises nothing; and every physical line is one row of the
header's width. Every other file, and every error message, comes from the
csv.reader path. Cells float() accepts but JSON does not (+.5, 1., .5, 01)
take that path too. It reads with errors="surrogateescape", so one pass
names the first row that is not UTF-8 or does not parse; non-finite cells
and non-binary treatments are reported after that.

write_csv formats a row's floats with orjson's shortest round-trip formatter
only where every one of them is 0 or has a magnitude in [1e-4, 1e16): there
its text is repr's. Outside that range the two differ (orjson writes 0.00001
for 1e-05, 1e16 for 1e+16 and null for NaN and the infinities), so every
other row is joined from repr.
"""

from __future__ import annotations

import array
import csv
import numbers
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np
import orjson

GT_COLUMNS = ("gt_y0", "gt_y1", "gt_m0", "gt_m1")


class DataError(ValueError):
    """Structured ingestion failure, naming the offending row/column."""


def check_config(cfg):
    """Store NumPy scalars as Python numbers; raise ValueError where an int
    field holds no integer or a float field no finite number (an int will do,
    a bool will not)."""
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, np.generic):
            setattr(cfg, f.name, v := v.item())
        kind = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
        if kind and (isinstance(v, bool) or not isinstance(v, kind)
                     or not abs(v) <= sys.float_info.max):
            raise ValueError(f"{f.name} must be a finite {f.type}, got {v!r}")


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
        if not np.all(np.isin(self.t, (0, 1))):
            raise DataError("treatment t must be strictly binary")
        self.t = np.asarray(self.t, dtype=int)
        self.y = np.asarray(self.y, dtype=float)
        n = self.X.shape[0]
        if n < 1 or self.X.ndim != 2:
            raise DataError("dataset must have at least one complete row")
        if self.X.shape[1] < 1:
            raise DataError("dataset must have at least one covariate column")
        if self.t.shape != (n,) or self.y.shape != (n,):
            raise DataError("t and y must align with X rows")
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
        # each name must read back from write_csv's header as a covariate
        seen = set()
        for c in self.covariate_names:
            if c in ("t", "y", *GT_COLUMNS):
                raise DataError(f"covariate name {c!r} is reserved for another column")
            if c in seen:
                raise DataError(f"duplicate covariate name {c!r}")
            seen.add(c)

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

# orjson formats a float64 x with the same shortest round-trip digits as
# repr(x); the text is the same where both write positional notation, that
# is for x == 0 and for _PLAIN_MIN <= |x| < _PLAIN_MAX
_PLAIN_MIN, _PLAIN_MAX = 1e-4, 1e16


def _plain_rows(block) -> np.ndarray:
    """Whether each row of a float block holds only cells orjson writes as repr."""
    a = np.abs(block)
    return ((a < _PLAIN_MAX) & ((a >= _PLAIN_MIN) | (a == 0))).all(axis=1)


def _row_texts(block) -> list:
    """orjson's text of each row of a float block, its cells joined by commas."""
    rows = orjson.dumps(np.ascontiguousarray(block),
                        option=orjson.OPT_SERIALIZE_NUMPY).decode().split("],[")
    # strip the outer "[[" and "]]" from the first and last rows, not by
    # slicing the whole text, which would hold another copy of it
    rows[0] = rows[0][2:]
    rows[-1] = rows[-1][:-2]
    return rows


def write_csv(path, dataset: ObservationalDataset):
    """Write the header, then one line per row in blocks of rows.

    Each float is written as repr(float), each treatment as its integer. The
    header goes through csv.writer, so a covariate name that needs quotes
    gets them; data lines end in CRLF, as csv.writer's do. A row whose every
    float is 0 or has a magnitude in [1e-4, 1e16) takes orjson's text of its
    cells, which is repr's there; any other row (NaN, infinities, tiny or huge
    magnitudes) is joined from repr itself. Only one block of rows is held as
    text at a time.
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
            X, rest, ts = dataset.X[lo:hi], tail[lo:hi], dataset.t[lo:hi].tolist()
            plain = (_plain_rows(X) & _plain_rows(rest)).tolist()
            for i, (x, t, r) in enumerate(zip(_row_texts(X), ts, _row_texts(rest))):
                if plain[i]:
                    yield f"{x},{t},{r}\r\n"
                else:
                    yield ",".join(map(repr, X[i].tolist() + [t] + rest[i].tolist())) + "\r\n"

    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(lines())


def write_rows(path, header, rows):
    """Write a table: the header, then rows of plain Python or NumPy cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def _check_utf8(path, i, row):
    """Raise DataError if row i held bytes that are not UTF-8 (now surrogates)."""
    try:
        "".join(row).encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"{path}: row {i} is not UTF-8 text") from None


def _parse_rows(path, reader, header) -> np.ndarray:
    """Every remaining row of reader as one (n, len(header)) float64 array.

    Cells are parsed with float(); rows stream into one growing float64
    buffer, so no row is kept as strings. The first row that is not UTF-8,
    that csv.reader cannot split, that is ragged or that holds a non-numeric
    cell raises DataError naming it (the header is row 1). A row that parses
    holds no surrogate, which float() rejects, so only failed rows are checked.
    """
    width = len(header)
    buf = array.array("d")
    i = 1
    try:
        for i, row in enumerate(reader, start=2):
            if len(row) != width:
                _check_utf8(path, i, row)
                raise DataError(f"{path}: row {i} has {len(row)} cells, expected {width}")
            try:
                buf.extend(map(float, row))
            except ValueError:
                _check_utf8(path, i, row)
                for c, cell in zip(header, row):
                    try:
                        float(cell)
                    except ValueError:
                        raise DataError(f"{path}: row {i}, column '{c}': "
                                        f"non-numeric cell {cell!r}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: row {i + 1}: {exc}") from None
    if not buf:
        raise DataError(f"{path}: no data rows")
    return np.frombuffer(buf).reshape(-1, width)


_CHUNK_BYTES = 1 << 16

# the bytes of a body of JSON numbers, commas and whitespace; any other byte
# (a quote, '_', a letter, a separator \x1c-\x1f, non-ASCII text) is where
# csv.reader + float() and orjson may part
_JSON_NUMBER_BYTES = b"0123456789+-.eE, \t\r\n"
# a CR that ends a line for csv.reader but is whitespace to JSON
_LONE_CR = re.compile(rb"\r(?!\n)")
# the integer token -0: orjson reads it as the int 0, float() as -0.0
_NEGATIVE_ZERO_INT = re.compile(rb"-0(?![.eE0-9])")


def _json_rows(chunk, width: int) -> np.ndarray | None:
    """The rows of a chunk of whole lines as orjson reads them, or None where
    that could differ from csv.reader + float().

    A line of JSON numbers joined by commas is one row to both: csv.reader
    splits it at the commas, float() strips the spaces and tabs JSON skips,
    and orjson returns the correctly rounded float64 that float() returns,
    or an int that NumPy rounds to it. The exception is the integer -0,
    whose sign the int loses. A CR counts only before an LF. A token JSON
    rejects (+.5, 1., .5, 01, an empty cell, a value past the float range)
    makes orjson raise, and a blank or ragged line makes NumPy raise or
    gives rows of another width; each declines.
    """
    if (chunk.translate(None, _JSON_NUMBER_BYTES) or _LONE_CR.search(chunk)
            or _NEGATIVE_ZERO_INT.search(chunk)):
        return None
    try:
        # every LF closes a row and opens the next, so there is one row per
        # physical line, and after a final LF one empty row, which is dropped
        rows = orjson.loads(b"[[" + chunk.replace(b"\n", b"],[") + b"]]")
        if chunk.endswith(b"\n"):
            rows.pop()
        rows = np.array(rows, dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    return rows if rows.shape[1:] == (width,) else None


def _fast_rows(path, header_lines: int, width: int) -> np.ndarray | None:
    """The data rows as orjson parses them, or None where that could differ
    from _parse_rows (see _json_rows), which then reads the whole file.

    header_lines is csv.reader's line_num after the header. The body is read
    in chunks of whole lines, and each chunk's rows are appended to one
    float64 buffer, so only one chunk is held as text and no per-chunk
    arrays are concatenated. A line longer than csv's field limit declines
    (csv rejects a cell past it, orjson reads it); a limit below one chunk
    declines every file.
    """
    limit = csv.field_size_limit()
    if limit < _CHUNK_BYTES:
        return None
    buf = array.array("d")
    with open(path, "rb") as fh:
        for _ in range(header_lines):
            # csv.reader also ends a line at a lone '\r'; readline does not
            if b"\r" in fh.readline().removesuffix(b"\r\n"):
                return None
        while chunk := fh.read(_CHUNK_BYTES):
            if not chunk.endswith(b"\n"):
                # finish the last line; one that does not end within the limit is too long
                chunk += fh.readline(limit + 2)
            last_line = len(chunk) - chunk.rfind(b"\n", 0, len(chunk) - 1) - 1
            rows = None if last_line > limit else _json_rows(chunk, width)
            if rows is None:
                return None
            buf.frombytes(memoryview(rows).cast("B"))
    return np.frombuffer(buf).reshape(-1, width) if buf else None


def load_csv(path) -> ObservationalDataset:
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise DataError(f"{path}: row 1: {exc}") from None
        _check_utf8(path, 1, header)
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
        values = _fast_rows(path, reader.line_num, len(header))
        if values is None:
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
    cols = [col_index[c] for c in cov_names]
    # one run of columns, as write_csv lays them out, is a view, not a copy
    contiguous = cols[-1] - cols[0] + 1 == len(cols)
    return ObservationalDataset(
        X=values[:, cols[0]:cols[-1] + 1] if contiguous else values[:, cols],
        t=t_raw, y=values[:, col_index["y"]],
        covariate_names=cov_names, **kwargs)


@dataclass
class SplitIndices:
    """Disjoint train/validation/test indices covering 0..n-1."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


def split(n: int, seed: int) -> SplitIndices:
    """80/20 train/test split; 20% of the training portion is validation."""
    if n < 5:
        raise DataError("need n >= 5 to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = int(0.2 * n)
    n_val = int(0.2 * (n - n_test))
    return SplitIndices(train=perm[n_test + n_val:],
                        validation=perm[n_test:n_test + n_val],
                        test=perm[:n_test])


def arm_pools(dataset: ObservationalDataset, indices):
    """(treated, control): the entries of indices in each arm, in their given order."""
    indices = np.asarray(indices)
    arms = dataset.t[indices]
    return indices[arms == 1], indices[arms == 0]


def sample_arm_batch(pool, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform batch of dataset indices from one arm's pool (see arm_pools).

    Samples without replacement; falls back to with-replacement when the pool
    is smaller than the batch. An empty pool raises ValueError.
    """
    return rng.choice(pool, size=size, replace=pool.size < size)
