"""Dataset, query, and report file formats (CSV + JSON sidecar + JSON Lines)."""

from __future__ import annotations

import csv
import json
import re
from functools import partial
from itertools import repeat
from math import prod
from pathlib import Path
from typing import Optional

import numpy as np

from .model import MeshIndex, TrainingSet, ValidationError, validate_training_set


class ParseError(ValidationError):
    """Malformed input file; message carries the offending line number."""


_X_COL = re.compile(r"^x(\d+)$")
_Y_COL = re.compile(r"^y(\d*)$")


def _sidecar_path(path) -> Path:
    return Path(path).with_suffix(".mesh.json")


def _parse_header(cols: list, path) -> tuple[int, int]:
    """Return (n, layer_count) for a header of x1..xn then y or y1..ym."""
    n = 0
    while n < len(cols) and _X_COL.match(cols[n]):
        n += 1
    layers = len(cols) - n
    if n == 0 or layers == 0:
        raise ParseError(
            f"{path}, line 1: header must be x1..xn followed by y or y1..ym, "
            f"got {cols!r}"
        )
    expected_x = [f"x{i + 1}" for i in range(n)]
    expected_y = ["y"] if layers == 1 else [f"y{i + 1}" for i in range(layers)]
    if cols != expected_x + expected_y:
        raise ParseError(f"{path}, line 1: unexpected header {cols!r}")
    return n, layers


def _csv_reader(path):
    """The rows of a UTF-8 CSV file; a byte that is not UTF-8, or a line that
    ``csv.reader`` rejects (a field past its size limit), raises ParseError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            yield from reader
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}, line {reader.line_num}: {exc}") from exc


def _read_header(reader, path) -> list:
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}, line 1: file is empty")
    return [c.strip() for c in header]


def _numbers(fields, convert=float) -> list:
    """``convert`` each text field of plain ASCII; a '_' digit separator or a
    character that is not ASCII (digits of other scripts) is a ValueError."""
    text = "".join(fields)
    if "_" in text:
        raise ValueError(f"'_' is not allowed in a number: {fields!r}")
    if not text.isascii():
        raise ValueError(f"a number must be plain ASCII text: {fields!r}")
    return [convert(c) for c in fields]


def _read_rows(reader, path, width: int) -> tuple[np.ndarray, list]:
    """Parsed data rows after the header, and the file line number of each."""
    rows, linenos = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise ParseError(f"{path}, line {lineno}: expected {width} fields, got {len(row)}")
        try:
            rows.append(_numbers(row))
        except ValueError as exc:
            raise ParseError(f"{path}, line {lineno}: {exc}") from exc
        linenos.append(lineno)
    return np.asarray(rows, dtype=float).reshape(-1, width), linenos


# what a body of plain numbers may hold: digits, signs, points, exponents, the
# letters of nan, inf and infinity, and the field and line separators
_NUMBER_TEXT = b"0123456789+-.eE,\r\nnaifty"
_BLOCK_CHARS = 1 << 17  # text converted at a time (about 1k rows of 6 numbers)


def _fast_rows(body: str, width: int) -> Optional[np.ndarray]:
    """The rows of ``body``, a file's text after its header, or None when the
    per-row reader must judge it.

    The body is converted by ``np.loadtxt`` in blocks of whole lines, which
    bounds the strings held at once.  A block of ``_NUMBER_TEXT`` alone holds
    no quote, space, '_' or digit of another script, so each of its lines
    splits on ',' as ``csv.reader`` splits it, and ``loadtxt`` reads each
    field as ``float`` does.  Every line must hold ``width`` fields; a blank
    line (which ``loadtxt`` would skip, shifting the line numbers), an empty
    field (which ``loadtxt`` refuses) or a field longer than the csv module's
    limit sends the file to the per-row reader.
    """
    blocks, start = [], 0
    while start < len(body):
        end = body.find("\n", start + _BLOCK_CHARS) + 1 or len(body)
        block, start = body[start:end], end
        if not block.isascii() or block.encode("ascii").translate(None, _NUMBER_TEXT):
            return None
        lines = block.splitlines()
        if set(map(str.count, lines, repeat(","))) - {width - 1}:
            return None
        if max(map(len, lines)) > csv.field_size_limit():
            return None
        if not all(lines):
            return None
        try:
            values = np.loadtxt(lines, delimiter=",", ndmin=2)
        except ValueError:
            return None
        if values.shape != (len(lines), width):
            return None
        blocks.append(values)
    return np.concatenate(blocks) if blocks else np.empty((0, width))


def _read_table(path, check_header) -> tuple:
    """``check_header(cols)`` for the header's stripped cells, then the data
    rows of a CSV file of numbers and the file line number of each row.

    The header goes through ``csv.reader`` and the rest of the file is read
    whole for ``_fast_rows``.  When the text is not UTF-8, csv rejects the
    header or ``_fast_rows`` returns None, the per-row reader reads the file
    again from the start, so every error and line number is that reader's.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            cols = _read_header(reader, path)
            header = check_header(cols)
            data = _fast_rows(fh.read(), len(cols))
        if data is not None:
            return header, data, range(2, len(data) + 2)
    except (UnicodeDecodeError, csv.Error):
        pass
    reader = _csv_reader(path)
    cols = _read_header(reader, path)
    return (check_header(cols), *_read_rows(reader, path, len(cols)))


def load_dataset(path) -> tuple[TrainingSet, Optional[MeshIndex]]:
    """Load a CSV dataset, plus its mesh sidecar when one sits next to it."""
    path = Path(path)
    (n, layers), data, linenos = _read_table(path, partial(_parse_header, path=path))
    training = validate_training_set((data[:, :n], data[:, n:]), n=n, layer_count=layers)

    mesh = None
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        mesh = load_mesh_sidecar(sidecar)
        if mesh.n != n:
            raise ParseError(
                f"{sidecar}: mesh has {mesh.n} axes but dataset has {n} predictors"
            )
        _check_mesh(training, mesh, sidecar, path, linenos)
    return training, mesh


def _check_mesh(training, mesh, sidecar, path, linenos) -> None:
    """Check that every row the sidecar files under a node sits at that node.

    A complete grid files row r under the r-th node in row-major order, a
    sparse one under its ``grid`` index.  A filed row may stray from its
    node by ``jitter_fraction`` of the node's narrower adjacent cell along
    each axis, plus rounding slack.
    """
    shape, npoints = mesh.shape, training.npoints
    if mesh.grid is None:
        if npoints != prod(shape):
            raise ParseError(
                f"{sidecar}: a complete {shape} grid needs {prod(shape)} rows, "
                f"{path} has {npoints}"
            )
        rows = np.arange(npoints)
        grid = np.stack(np.unravel_index(rows, shape), axis=1)
    else:
        rows, grid = mesh.rows, mesh.grid
        if len(rows) and rows.max() >= npoints:
            raise ParseError(f"{sidecar}: index_map names row {rows.max()} of {npoints} in {path}")
    off = np.zeros(len(rows), dtype=bool)
    for a, nodes in enumerate(mesh.axes):
        gaps = np.diff(nodes)
        h = np.minimum(np.append(gaps[0], gaps), np.append(gaps, gaps[-1]))[grid[:, a]]
        dev = np.abs(training.x[rows, a] - nodes[grid[:, a]])
        off |= dev > (mesh.jitter_fraction + 1e-9) * h
    if off.any():
        i = int(np.argmax(off))
        raise ParseError(
            f"{path}, line {linenos[rows[i]]}: row is not at mesh node "
            f"{tuple(int(g) for g in grid[i])} of {sidecar}"
        )


def load_mesh_sidecar(path) -> MeshIndex:
    """The mesh of a sidecar file; a sparse grid's ``index_map`` is read into
    the mesh's ``grid`` and ``rows`` arrays."""
    try:
        with open(path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        axes = tuple(np.asarray(a, dtype=float) for a in meta["axes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: missing or malformed 'axes'") from exc
    if not all(a.ndim == 1 for a in axes):
        raise ParseError(f"{path}: each of 'axes' must be a list of numbers")
    grid = rows = None
    if meta.get("index_map") is not None:
        try:
            items = meta["index_map"].items()
            keys = [_numbers(key.split(","), int) for key, _ in items]
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: malformed 'index_map': {exc}") from exc
        for key, v in items:
            if type(v) is not int:  # bool is an int subclass, and not a row
                raise ParseError(
                    f"{path}: index_map value of key {key!r} is {v!r}, not a JSON integer"
                )
        n = len(axes)
        bad = next((key for key in keys if len(key) != n), None)
        if bad is None:
            try:
                grid = np.array(keys, dtype=int).reshape(len(keys), n)
                rows = np.fromiter((v for _, v in items), dtype=int, count=len(keys))
            except OverflowError as exc:
                raise ParseError(f"{path}: malformed 'index_map': {exc}") from exc
            outside = ((grid < 0) | (grid >= [len(a) for a in axes])).any(axis=1)
            bad = grid[np.argmax(outside)].tolist() if outside.any() else None
        if bad is not None:
            raise ParseError(f"{path}: index_map names node {tuple(bad)} outside the axes")
    try:
        jitter_fraction = float(meta.get("jitter_fraction", 0.0))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed 'jitter_fraction'") from exc
    try:
        return MeshIndex(axes=axes, jitter_fraction=jitter_fraction, grid=grid, rows=rows)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _number_columns(values: np.ndarray) -> list:
    """The columns of a 2-D array as lists of ``repr`` text, which reads back
    to the same float and is what ``csv.writer`` writes for a float."""
    return [list(map(repr, column)) for column in values.T.tolist()]


def _write_csv(path, header: list, columns: list) -> None:
    """Write ``header`` and then one row per entry of the equal-length
    ``columns`` through one ``csv.writer``, which quotes each field as it needs."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def save_dataset(path, training: TrainingSet, mesh: Optional[MeshIndex] = None) -> None:
    """Write a dataset (and mesh sidecar) that ``load_dataset`` reads back equal.

    The CSV goes through ``_write_csv``, as ``write_imputed``'s output does."""
    path = Path(path)
    header = [f"x{i + 1}" for i in range(training.n)]
    header += ["y"] if training.layer_count == 1 else [
        f"y{i + 1}" for i in range(training.layer_count)
    ]
    _write_csv(path, header, _number_columns(training.x) + _number_columns(training.y))
    if mesh is not None:
        meta = {
            "axes": [[float(v) for v in a] for a in mesh.axes],
            "jitter_fraction": mesh.jitter_fraction,
            "layout": "row-major",
        }
        if mesh.grid is not None:  # json.dump sorts the keys
            meta["index_map"] = dict(zip(map(",".join, mesh.grid.astype(str).tolist()),
                                         mesh.rows.tolist()))
        with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _check_query_header(cols: list, path) -> None:
    if not cols or cols != [f"x{i + 1}" for i in range(len(cols))]:
        raise ParseError(f"{path}, line 1: query header must be x1..xn, got {cols!r}")


def load_queries(path) -> np.ndarray:
    """Load a query CSV with header x1..xn."""
    path = Path(path)
    return _read_table(path, partial(_check_query_header, path=path))[1]


def write_imputed(path, coords: np.ndarray, y_hat: np.ndarray, method: str,
                  status, flags) -> None:
    """Write imputation output: coordinates, per-layer estimates, method,
    status, flags.

    ``coords`` is the (M, n) array of queries and ``y_hat`` the (M, L) array
    of estimates; ``status`` and ``flags`` hold one string per row.  A row
    whose status is not "ok" gets empty estimate fields.  Numbers are written
    as ``repr(float)`` text, which reads back to the same float, through the
    writer ``save_dataset`` uses (``_write_csv``).
    """
    if not len(coords):
        raise ValidationError("no output rows to write")
    n, layers = coords.shape[1], y_hat.shape[1]
    header = [f"x{i + 1}" for i in range(n)]
    header += ["y_hat"] if layers == 1 else [f"y_hat{i + 1}" for i in range(layers)]
    header += ["method", "status", "flags"]
    estimates = _number_columns(y_hat)
    failed = [i for i, s in enumerate(status) if s != "ok"]
    for column in estimates:
        for i in failed:
            column[i] = ""
    columns = _number_columns(coords) + estimates + [repeat(method), status, flags]
    _write_csv(path, header, columns)


def write_report(path, report: dict) -> None:
    """Append-style JSON Lines report: one line per scenario row.

    Each line carries the scenario row plus the run configuration echo, with
    sorted keys so identical runs produce byte-identical files.
    """
    echo = {k: report[k] for k in ("table", "scale", "seed", "workers")}
    with open(path, "w", encoding="utf-8") as fh:
        for row in report["rows"]:
            record = dict(row)
            record["config"] = echo
            if report.get("notes"):
                record["notes"] = report["notes"]
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_plot_csv(path, report: dict) -> None:
    """Plot-ready CSV: log10 of dataset size (or combination count) vs. error."""
    rows = report["rows"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if report["table"] == "averaging":
            writer.writerow(["log10_combinations", "log10_avg_abs_err"])
            for row in rows:
                writer.writerow(
                    [
                        repr(float(np.log10(row["combinations"]))),
                        repr(float(np.log10(row["avg_abs_err"]))),
                    ]
                )
            return
        writer.writerow(["log10_points", "rel_err"])
        for row in rows:
            size = row.get("points", row.get("queries", 0))
            err = row.get("rel_err", row.get("gradient_rel_err", row.get("r1")))
            writer.writerow([repr(float(np.log10(size))), repr(float(err))])
