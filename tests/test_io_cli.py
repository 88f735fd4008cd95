import csv
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradsurf import (
    DegenerateNeighborhood,
    DimensionMismatch,
    GradsurfError,
    MeshIndex,
    ParseError,
    TEST_FUNCTIONS,
    evaluate_gradient_batch,
    evaluate_layers,
    evaluate_smooth,
    evaluate_smooth_batch,
    gen_local_cell_dataset,
    gen_mesh_dataset,
    gen_queries,
    load_dataset,
    load_queries,
    run_benchmark,
    ValidationError,
    save_dataset,
    validate_query,
    validate_training_set,
    write_plot_csv,
    write_report,
)
from gradsurf import cli, io as gio, smooth
from gradsurf.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from gradsurf.model import FLAG_NAMES
from tests_oracles import oracle_flag_column, oracle_save_dataset_csv, oracle_write_imputed


def affine_files(tmp_path, with_mesh=True):
    nodes = np.linspace(0.0, 2.0, 5)
    grids = np.meshgrid(nodes, nodes, indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)
    y = 2.0 * x[:, 0] - x[:, 1] + 0.5
    ts = validate_training_set((x, y), n=2)
    mesh = MeshIndex(axes=(nodes, nodes)) if with_mesh else None
    data = tmp_path / "data.csv"
    save_dataset(data, ts, mesh)
    return data, ts


class TestDatasetIO:
    def test_round_trip_equality(self, tmp_path):
        f = TEST_FUNCTIONS["T1"]
        ts, mesh = gen_mesh_dataset(f, 5, x_jitter_fraction=0.2, seed=1)
        path = tmp_path / "ds.csv"
        save_dataset(path, ts, mesh)
        loaded, loaded_mesh = load_dataset(path)
        assert loaded == ts
        assert loaded_mesh is not None
        assert loaded_mesh.jitter_fraction == mesh.jitter_fraction
        for a, b in zip(loaded_mesh.axes, mesh.axes):
            assert np.array_equal(a, b)

    def test_sparse_index_map_round_trip(self, tmp_path):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ts = validate_training_set((x, np.zeros(3)), n=2)
        nodes = np.array([0.0, 1.0])
        mesh = MeshIndex(axes=(nodes, nodes), index_map={(0, 0): 0, (1, 0): 1, (0, 1): 2})
        path = tmp_path / "sparse.csv"
        save_dataset(path, ts, mesh)
        _, loaded = load_dataset(path)
        assert loaded.index_map == mesh.index_map

    def test_no_sidecar_gives_no_mesh(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("x1,y\n0.0,1.0\n1.0,2.0\n")
        ts, mesh = load_dataset(path)
        assert mesh is None
        assert ts.n == 1 and ts.npoints == 2

    def test_layered_header(self, tmp_path):
        path = tmp_path / "layers.csv"
        path.write_text("x1,x2,y1,y2\n0,0,1,2\n1,0,3,4\n0,1,5,6\n")
        ts, _ = load_dataset(path)
        assert ts.layer_count == 2

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n0,0,1\n1,zap,2\n0,1,3\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,0,1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_dataset(path)

    def test_query_loader(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x1,x2\n0.5,0.25\n1.5,1.75\n")
        q = load_queries(path)
        assert q.shape == (2, 2)
        bad = tmp_path / "badq.csv"
        bad.write_text("x1,y\n1,2\n")
        with pytest.raises(ParseError):
            load_queries(bad)


def write_mismatched_mesh(tmp_path, case):
    """A jittered 4^3 S1 mesh saved with a sidecar that does not match its CSV."""
    ts, mesh = gen_mesh_dataset(TEST_FUNCTIONS["S1"], 4, x_jitter_fraction=0.2, seed=3)
    sparse = {tuple(int(i) for i in np.unravel_index(r, mesh.shape)): r
              for r in range(ts.npoints)}
    if case == "shuffled rows":
        order = np.random.default_rng(0).permutation(ts.npoints)
        ts = validate_training_set((ts.x[order], ts.y[order]), n=3)
    elif case == "axis too long":
        nodes = mesh.axes[0]
        mesh = MeshIndex(axes=(np.append(nodes, 2 * nodes[-1] - nodes[-2]),) + mesh.axes[1:],
                         jitter_fraction=0.2)
    elif case == "index_map row past the end":
        sparse[(0, 0, 0)] = ts.npoints
        mesh = MeshIndex(axes=mesh.axes, jitter_fraction=0.2, index_map=sparse)
    elif case == "index_map node outside the axes":
        sparse[(0, 0, 4)] = sparse.pop((0, 0, 3))
        mesh = MeshIndex(axes=mesh.axes, jitter_fraction=0.2, index_map=sparse)
    data = tmp_path / "s1.csv"
    save_dataset(data, ts, mesh)
    return data


MISMATCHES = ["shuffled rows", "axis too long", "index_map row past the end",
              "index_map node outside the axes"]


class TestMeshSidecarCheck:
    @pytest.mark.parametrize("case", MISMATCHES)
    def test_mismatch_raises_parse_error(self, tmp_path, case):
        data = write_mismatched_mesh(tmp_path, case)
        with pytest.raises(ParseError):
            load_dataset(data)

    @pytest.mark.parametrize("case", MISMATCHES)
    def test_impute_exits_with_validation_code(self, tmp_path, case):
        data = write_mismatched_mesh(tmp_path, case)
        q = tmp_path / "q.csv"
        q.write_text("x1,x2,x3\n2.9,3.3,3.1\n3.6,2.7,4.2\n")
        out = tmp_path / "out.csv"
        for method in ("gradient", "smooth"):
            code = main(["impute", "--data", str(data), "--queries", str(q),
                         "--output", str(out), "--method", method])
            assert code == EXIT_VALIDATION
            assert not out.exists()

    def test_misplaced_row_is_named_by_line(self, tmp_path):
        data = write_mismatched_mesh(tmp_path, "shuffled rows")
        with pytest.raises(ParseError, match=r"s1\.csv, line \d+: row is not at mesh node"):
            load_dataset(data)

    def test_malformed_index_map_key_raises_parse_error(self, tmp_path):
        data, _ = affine_files(tmp_path)
        sidecar = data.with_suffix(".mesh.json")
        meta = json.loads(sidecar.read_text())
        meta["index_map"] = {"0,zap": 0}
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ParseError, match="malformed 'index_map'"):
            load_dataset(data)

    def test_sparse_index_map_of_full_mesh_loads(self, tmp_path):
        ts, mesh = gen_mesh_dataset(TEST_FUNCTIONS["S1"], 4, x_jitter_fraction=0.2, seed=3)
        # rows filed out of row-major order, but each under its own node
        sparse = {tuple(int(i) for i in np.unravel_index(r, mesh.shape)): r
                  for r in range(ts.npoints)}
        order = np.random.default_rng(0).permutation(ts.npoints)
        shuffled = validate_training_set((ts.x[order], ts.y[order]), n=3)
        index_map = {g: int(np.argsort(order)[r]) for g, r in sparse.items()}
        data = tmp_path / "s1.csv"
        save_dataset(data, shuffled, MeshIndex(axes=mesh.axes, jitter_fraction=0.2,
                                               index_map=index_map))
        loaded, loaded_mesh = load_dataset(data)
        assert loaded == shuffled and loaded_mesh.index_map == index_map


def s1_files(directory):
    """A jittered 3^3 S1 mesh CSV, its sidecar and a two-row query CSV."""
    ts, mesh = gen_mesh_dataset(TEST_FUNCTIONS["S1"], 3, x_jitter_fraction=0.2, seed=1)
    data = Path(directory) / "s1.csv"
    save_dataset(data, ts, mesh)
    queries = Path(directory) / "q.csv"
    queries.write_text("x1,x2,x3\n2.5,3.1,4.2\n3.3,2.2,4.9\n")
    return {"csv": data, "sidecar": data.with_suffix(".mesh.json"), "queries": queries}


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, where, byte in edits:
        pos = int(where * len(out))
        if op == "replace":
            out[pos] = byte
        elif op == "insert":
            out.insert(pos, byte)
        else:
            del out[pos]
    return bytes(out)


NOT_UTF8 = b"\xff\xfe"


class TestMalformedInput:
    @given(
        target=st.sampled_from(["csv", "sidecar", "queries"]),
        edits=st.lists(
            st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                      st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
            min_size=1, max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_file_loads_or_raises_typed_error(self, target, edits):
        with tempfile.TemporaryDirectory() as directory:
            files = s1_files(directory)
            path = files[target]
            path.write_bytes(mutate(path.read_bytes(), edits))
            try:
                if target == "queries":
                    load_queries(path)
                else:
                    load_dataset(files["csv"])
            except (ParseError, ValidationError):
                pass

    @pytest.mark.parametrize("target", ["csv", "sidecar", "queries"])
    def test_undecodable_byte_names_the_file(self, tmp_path, target):
        files = s1_files(tmp_path)
        path = files[target]
        path.write_bytes(path.read_bytes()[:40] + NOT_UTF8 + path.read_bytes()[40:])
        with pytest.raises(ParseError, match=re.escape(path.name)):
            if target == "queries":
                load_queries(path)
            else:
                load_dataset(files["csv"])

    @pytest.mark.parametrize("value", ["x", None, [0.1], {"a": 1}])
    def test_malformed_jitter_fraction_raises_parse_error(self, tmp_path, value):
        files = s1_files(tmp_path)
        meta = json.loads(files["sidecar"].read_text())
        meta["jitter_fraction"] = value
        files["sidecar"].write_text(json.dumps(meta))
        with pytest.raises(ParseError, match="jitter_fraction"):
            load_dataset(files["csv"])

    @pytest.mark.parametrize("axes", [[2.0, 3.5, 5.0], {"1": 0}, [[[2.0, 3.5]]] * 3])
    def test_axes_that_are_not_lists_of_numbers_raise_parse_error(self, tmp_path, axes):
        files = s1_files(tmp_path)
        meta = json.loads(files["sidecar"].read_text())
        meta["axes"] = axes
        files["sidecar"].write_text(json.dumps(meta))
        with pytest.raises(ParseError, match="axes"):
            load_dataset(files["csv"])

    @pytest.mark.parametrize("case", ["csv", "sidecar", "queries", "jitter x", "jitter null",
                                      "long csv", "long queries"])
    def test_impute_exits_with_validation_code(self, tmp_path, capsys, case):
        files = s1_files(tmp_path)
        if case.startswith("jitter"):
            path = files["sidecar"]
            meta = json.loads(path.read_text())
            meta["jitter_fraction"] = "x" if case == "jitter x" else None
            path.write_text(json.dumps(meta))
        elif case.startswith("long"):  # a field past the csv module's limit, in line 3
            path = files[case.split()[1]]
            lines = path.read_text().splitlines(keepends=True)
            lines[2] = "1" * (csv.field_size_limit() + 1) + lines[2][lines[2].index(","):]
            path.write_text("".join(lines))
        else:
            path = files[case]
            path.write_bytes(path.read_bytes() + NOT_UTF8)
        out = tmp_path / "out.csv"
        code = main(["impute", "--data", str(files["csv"]), "--queries",
                     str(files["queries"]), "--output", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert path.name in err
        if case.startswith("long"):
            assert f"{path.name}, line 3: field larger than field limit" in err
        assert not out.exists()


class TestInputErrors:
    """Each input error names its file and line or the mismatch, with its
    type, and ``gradsurf impute`` exits with the validation code."""

    def impute(self, files, capsys) -> str:
        out = files["csv"].with_name("out.csv")
        code = main(["impute", "--data", str(files["csv"]), "--queries",
                     str(files["queries"]), "--output", str(out)])
        assert code == EXIT_VALIDATION and not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("case", ["header", "empty", "sidecar"])
    def test_dataset_errors(self, tmp_path, capsys, case):
        files = s1_files(tmp_path)
        path = files["csv"]
        if case == "header":
            path.write_text("x1,x3,y\n0.0,0.0,0.0\n")
            files["sidecar"].unlink()
            message = f"{path}, line 1: unexpected header ['x1', 'x3', 'y']"
        elif case == "empty":
            path.write_text("")
            message = f"{path}, line 1: file is empty"
        else:
            path = files["sidecar"]
            meta = json.loads(path.read_text())
            meta["axes"] = meta["axes"][:2]
            path.write_text(json.dumps(meta))
            message = f"{path}: mesh has 2 axes but dataset has 3 predictors"
        with pytest.raises(ParseError) as exc:
            load_dataset(files["csv"])
        assert str(exc.value) == message
        assert self.impute(files, capsys) == f"error: {message}\n"

    def test_queries_with_too_few_coordinates(self, tmp_path, capsys):
        files = s1_files(tmp_path)
        files["queries"].write_text("x1,x2\n2.5,3.1\n")
        assert self.impute(files, capsys) == "error: queries have 2 coordinates, dataset has 3\n"

    @pytest.mark.parametrize("y, layers, message", [
        (np.zeros(4), 1, "predictor and outcome row counts differ"),
        (np.zeros((5, 2)), 1, "expected 1 outcome layer(s), got 2"),
    ])
    def test_training_arrays_that_do_not_match(self, y, layers, message):
        x = np.random.default_rng(0).uniform(0.0, 1.0, (5, 2))
        with pytest.raises(DimensionMismatch) as exc:
            validate_training_set((x, y), n=2, layer_count=layers)
        assert str(exc.value) == message


class TestDigitSeparators:
    """Python's float() and int() read "1_0" as 10; the file formats do not."""

    def test_dataset_cell(self, tmp_path):
        files = s1_files(tmp_path)
        lines = files["csv"].read_text().splitlines(keepends=True)
        lines[2] = "1_0" + lines[2][lines[2].index(","):]
        files["csv"].write_text("".join(lines))
        with pytest.raises(ParseError, match=r"s1\.csv, line 3: '_'"):
            load_dataset(files["csv"])

    def test_query_cell(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x1,x2\n0.5,0.25\n0_5,1.75\n")
        with pytest.raises(ParseError, match=r"q\.csv, line 3: '_'"):
            load_queries(path)

    def test_sidecar_index_map_key(self, tmp_path):
        data, _ = affine_files(tmp_path)
        sidecar = data.with_suffix(".mesh.json")
        meta = json.loads(sidecar.read_text())
        meta["index_map"] = {"0,0_1": 0}
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ParseError, match=r"data\.mesh\.json: malformed 'index_map': '_'"):
            load_dataset(data)

    @pytest.mark.parametrize("case", ["csv", "queries"])
    def test_impute_exits_with_validation_code(self, tmp_path, capsys, case):
        files = s1_files(tmp_path)
        path = files[case]
        path.write_text(path.read_text().replace(".", "_", 1))  # in line 2
        out = tmp_path / "out.csv"
        code = main(["impute", "--data", str(files["csv"]), "--queries",
                     str(files["queries"]), "--output", str(out)])
        assert code == EXIT_VALIDATION
        assert f"{path.name}, line 2: '_'" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_at(self, tmp_path, capsys):
        data, _ = affine_files(tmp_path)
        assert main(["eval", "--data", str(data), "--at", "1_5,0.5"]) == EXIT_VALIDATION
        assert "bad --at coordinates: '_'" in capsys.readouterr().err


class TestNonAsciiNumbers:
    """Python's float() and int() read digits of any script ("١٠" is 10);
    the file formats take plain ASCII numbers only."""

    ARABIC_INDIC_TEN = "\u0661\u0660"

    def test_dataset_cell(self, tmp_path):
        files = s1_files(tmp_path)
        lines = files["csv"].read_text().splitlines(keepends=True)
        lines[2] = self.ARABIC_INDIC_TEN + lines[2][lines[2].index(","):]
        files["csv"].write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match=r"s1\.csv, line 3: a number must be plain ASCII"):
            load_dataset(files["csv"])

    def test_query_cell(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text(f"x1,x2\n0.5,0.25\n{self.ARABIC_INDIC_TEN},1.75\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"q\.csv, line 3: a number must be plain ASCII"):
            load_queries(path)

    def test_sidecar_index_map_key(self, tmp_path):
        data, _ = affine_files(tmp_path)
        sidecar = data.with_suffix(".mesh.json")
        meta = json.loads(sidecar.read_text())
        meta["index_map"] = {"0,\u0661": 0}
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ParseError, match=r"malformed 'index_map': a number must be plain"):
            load_dataset(data)

    def test_eval_at(self, tmp_path, capsys):
        data, _ = affine_files(tmp_path)
        code = main(["eval", "--data", str(data), "--at", "\u0661,0.5"])
        assert code == EXIT_VALIDATION
        assert "bad --at coordinates: a number must be plain ASCII" in capsys.readouterr().err


class TestIndexMapValues:
    """A sidecar files each node under a row number, a JSON integer."""

    @pytest.mark.parametrize("value", ["0", 1.9, 2.0, True])
    def test_value_that_is_not_an_integer_raises_parse_error(self, tmp_path, value):
        data, ts = affine_files(tmp_path)
        sidecar = data.with_suffix(".mesh.json")
        meta = json.loads(sidecar.read_text())
        grid = np.stack(np.unravel_index(np.arange(ts.npoints), (5, 5)), axis=1)
        meta["index_map"] = {f"{i},{j}": r for r, (i, j) in enumerate(grid.tolist())}
        meta["index_map"]["1,0"] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ParseError, match=r"data\.mesh\.json: index_map value of key '1,0'"):
            load_dataset(data)


def sidecar_as_first_written(mesh) -> str:
    """A sparse sidecar's text as ``save_dataset`` first wrote it: from
    ``sorted(index_map.items())``."""
    meta = {"axes": [[float(v) for v in a] for a in mesh.axes],
            "jitter_fraction": mesh.jitter_fraction, "layout": "row-major",
            "index_map": {",".join(str(t) for t in k): int(v)
                          for k, v in sorted(mesh.index_map.items())}}
    return json.dumps(meta, sort_keys=True, indent=2) + "\n"


class TestSparseSidecarArrays:
    """A sparse sidecar is read into the mesh's grid and rows arrays and
    written from them."""

    @pytest.mark.parametrize("seed", range(4))
    def test_written_bytes_and_read_back_mesh(self, tmp_path, seed):
        from tests_oracles import random_grid

        x, y, mesh, _ = random_grid(seed, 3, 0.2, sparse=True)
        data = tmp_path / "data.csv"
        save_dataset(data, validate_training_set((x, y), n=3), mesh)
        assert data.with_suffix(".mesh.json").read_text() == sidecar_as_first_written(mesh)
        loaded = load_dataset(data)[1]
        assert loaded == mesh and loaded.grid.dtype == np.uint8

    def test_local_cell_sidecar_at_99_axes(self, tmp_path):
        rng = np.random.default_rng(5)
        ts, mesh, _, _, _ = gen_local_cell_dataset(TEST_FUNCTIONS["H1"], 99, 20, rng)
        data = tmp_path / "cell.csv"
        save_dataset(data, ts, mesh)
        assert data.with_suffix(".mesh.json").read_text() == sidecar_as_first_written(mesh)
        assert load_dataset(data) == (ts, mesh)

    @pytest.mark.parametrize("edit, match", [
        ({"0,0": 0, "00,0": 1}, r"data\.mesh\.json: node \(0, 0\) is filed twice"),
        ({"0,0": 0, "1,0": -1}, r"data\.mesh\.json: every row must be a non-negative integer"),
        ({"0,0": 0, "1,0,0": 1}, r"data\.mesh\.json: index_map names node \(1, 0, 0\) outside"),
        ({"0,0": 0, "0,-1": 1}, r"data\.mesh\.json: index_map names node \(0, -1\) outside"),
        ({"0,0": 0, "0,5": 1}, r"data\.mesh\.json: index_map names node \(0, 5\) outside"),
        ({"0,0": 0, "0,1": 2**70}, r"data\.mesh\.json: malformed 'index_map'"),
        ({"0,0": 0, "0,1": 25}, r"data\.mesh\.json: index_map names row 25 of 25 in"),
    ])
    def test_malformed_map_is_a_parse_error(self, tmp_path, edit, match):
        data, _ = affine_files(tmp_path)
        sidecar = data.with_suffix(".mesh.json")
        meta = json.loads(sidecar.read_text())
        meta["index_map"] = edit
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ParseError, match=match):
            load_dataset(data)

    def test_empty_map_loads_and_every_query_is_degenerate(self, tmp_path):
        data, ts = affine_files(tmp_path)
        sidecar = data.with_suffix(".mesh.json")
        meta = json.loads(sidecar.read_text())
        meta["index_map"] = {}
        sidecar.write_text(json.dumps(meta))
        mesh = load_dataset(data)[1]
        assert mesh.grid.shape == (0, 2) and mesh.index_map == {}
        batch = evaluate_gradient_batch(ts, [[0.5, 0.5]], mesh)
        assert isinstance(batch.errors[0], DegenerateNeighborhood)


def table_outcome(path):
    """The shape, bits and line numbers of a query file's rows, or the type
    and text of the error that reading it raises."""
    try:
        _, data, linenos = gio._read_table(path, partial(gio._check_query_header, path=path))
    except Exception as exc:  # the error is part of the outcome
        return type(exc), str(exc)
    return data.shape, data.view(np.int64).tobytes(), list(linenos)


def read_both_ways(path) -> tuple:
    """``table_outcome`` through the whole-file fast path and through the
    per-row reader alone, and whether the fast path returned the rows."""
    returned = []

    def spy(body, width):
        rows = fast_rows(body, width)
        returned.append(rows is not None)
        return rows

    fast_rows = gio._fast_rows
    with mock.patch.object(gio, "_fast_rows", spy):
        fast = table_outcome(path)
    with mock.patch.object(gio, "_fast_rows", return_value=None):
        per_row = table_outcome(path)
    return fast, per_row, returned == [True]


FIELDS = ["0.5", "-1.25e-07", "1e+16", "nan", "inf", "-inf", "infinity", "+.5", "5.", "-0.0",
          "", " 1", "1 ", '"2"', "1_0", "\u0661", "NaN", "e", ".", "1e", "--1", "\t3"]


class TestWholeFileParse:
    """``load_dataset`` and ``load_queries`` read a body of plain numbers in
    one pass; any other body goes to the per-row reader, with its errors."""

    @given(matrix=hnp.arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 5)),
                             elements=st.floats(allow_nan=True, allow_infinity=True)),
           block_chars=st.sampled_from([1, 40, gio._BLOCK_CHARS]))
    @settings(max_examples=150, deadline=None)
    def test_repr_written_matrix_reads_bit_for_bit(self, matrix, block_chars):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "q.csv"
            header = ",".join(f"x{i + 1}" for i in range(matrix.shape[1]))
            path.write_text(header + "\n" + "".join(
                ",".join(repr(float(v)) for v in row) + "\n" for row in matrix))
            with mock.patch.object(gio, "_BLOCK_CHARS", block_chars):
                fast, per_row, took_fast_path = read_both_ways(path)
        assert took_fast_path
        assert fast == per_row
        shape, bits, linenos = fast
        data = np.frombuffer(bits, dtype=np.float64).reshape(shape)
        assert linenos == list(range(2, len(matrix) + 2))
        assert np.array_equal(np.isnan(data), np.isnan(matrix))
        same = ~np.isnan(matrix)
        assert np.array_equal(data[same].view(np.int64), matrix[same].view(np.int64))

    @given(lines=st.lists(st.tuples(
               st.lists(st.sampled_from(FIELDS) | st.floats().map(repr), max_size=4),
               st.sampled_from(["\n", "\r\n", "\r", ""])), max_size=8),
           width=st.integers(1, 3), block_chars=st.sampled_from([1, 10, gio._BLOCK_CHARS]))
    @settings(max_examples=300, deadline=None)
    def test_any_body_reads_as_the_per_row_reader_reads_it(self, lines, width, block_chars):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "q.csv"
            header = ",".join(f"x{i + 1}" for i in range(width))
            body = "".join(",".join(fields) + end for fields, end in lines)
            path.write_text(header + "\n" + body, encoding="utf-8", newline="")
            with mock.patch.object(gio, "_BLOCK_CHARS", block_chars):
                fast, per_row, _ = read_both_ways(path)
        assert fast == per_row

    @pytest.mark.parametrize("body,fast", [
        ('0.5,"0.25"\n1.5,1.75\n', False),  # a quoted field
        ("0.5, 0.25\n1.5,1.75\n", False),  # a space before a number
        ("0.5,0.25 \n1.5,1.75\n", False),  # a space after a number
        ("0.5,0.25\n  \n1.5,1.75\n", False),  # a whitespace-only line
        ("0.5,0.25\n\n1.5,1.75\n", False),  # an empty line
        ("0.5,0.25\r\n1.5,1.75\r\n", True),  # \r\n endings
        ("0.5,0.25\rnan,1.75\r", True),  # \r endings and a nan row
        ("nan,nan\n1.5,1.75\n", True),  # a nan query row
        ("0.5,0.25\n1_0,1.75\n", False),  # a digit separator
        ("0.5,0.25\n\u0661\u0660,1.75\n", False),  # Arabic-Indic digits
        ("0.5,0.25\n1.5,1.75\n2.5,2.75,3.0\n", False),  # 3 fields on line 4
        ("0.5,0.25\n1.5\n", False),  # 1 field on line 3
        ("0.5,0.25\n1.5,zap\n", False),  # not a number on line 3
    ])
    def test_file_reads_as_the_per_row_reader_reads_it(self, tmp_path, body, fast):
        path = tmp_path / "q.csv"
        path.write_text("x1,x2\n" + body, encoding="utf-8", newline="")
        got, per_row, took_fast_path = read_both_ways(path)
        assert got == per_row
        assert took_fast_path == fast

    EDGE_FIELDS = ["-0.0", "1e400", "-1e400", "1e-400", "-1e-400", "4.9e-324", "+.5", "5.",
                   "nan", "+nan", "-nan", "inf", "+inf", "-inf",
                   "infinity", "+infinity", "-infinity"]
    MIXED_CASE = ["NaN", "NAN", "-NaN", "+nAn", "Inf", "INF", "-Inf", "+iNF",
                  "Infinity", "INFINITY", "-InFiNiTy", "+Infinity"]

    @pytest.mark.parametrize("width", [1, 3])
    def test_fast_path_gives_the_bits_of_float(self, width):
        fields = self.EDGE_FIELDS * width  # every field in every column
        body = "".join(",".join(fields[i:i + width]) + "\n"
                       for i in range(0, len(fields), width))
        rows = gio._fast_rows(body, width)
        want = np.array([float(f) for f in fields]).reshape(-1, width)
        assert rows is not None and rows.shape == want.shape
        assert rows.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_mixed_case_spellings_read_as_float_reads_them(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x1\n" + "".join(f"{f}\n" for f in self.MIXED_CASE))
        got, per_row, took_fast_path = read_both_ways(path)
        assert got == per_row and not took_fast_path
        want = np.array([float(f) for f in self.MIXED_CASE])
        assert np.frombuffer(got[1], dtype=np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("body", ["0.5,,1\n", ",0.5,1\n", "0.5,1,\n", "1,2,3\r\n0.5,1,\r\n",
                                      "1,2,3\r,1,2\r", "1,2,3\n,1,2"])
    def test_empty_field_goes_to_the_per_row_reader(self, tmp_path, body):
        path = tmp_path / "q.csv"
        path.write_text("x1,x2,x3\n" + body, encoding="utf-8", newline="")
        got, per_row, took_fast_path = read_both_ways(path)
        assert got == per_row and not took_fast_path
        assert got[0] is ParseError

    @pytest.mark.parametrize("body,linenos", [
        ("0.5\n\n1.5\n", [2, 4]),
        ("0.5\r\n\r\n1.5\r\n", [2, 4]),
        ("\n0.5\n", [3]),
        ("\n\n", []),
        ("0.5\n\n1.5\nzap\n", None),
    ])
    def test_blank_line_in_a_one_column_file_goes_to_the_per_row_reader(
            self, tmp_path, body, linenos):
        path = tmp_path / "q.csv"
        path.write_text("x1\n" + body, encoding="utf-8", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns of a body with no data
            got, per_row, took_fast_path = read_both_ways(path)
        assert got == per_row and not took_fast_path
        if linenos is None:
            assert got == (ParseError, f"{path}, line 5: could not convert string to float: 'zap'")
        else:
            assert got[2] == linenos

    def test_wrong_field_count_names_its_line(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x1,x2\n0.5,0.25\n1.5,1.75\n2.5,2.75,3.0\n")
        with pytest.raises(ParseError) as exc:
            load_queries(path)
        assert str(exc.value) == f"{path}, line 4: expected 2 fields, got 3"

    def test_field_past_the_csv_limit_reads_as_the_per_row_reader_reads_it(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x1\n" + "1" * (csv.field_size_limit() + 1) + "\n")
        got, per_row, took_fast_path = read_both_ways(path)
        assert got == per_row and not took_fast_path

    def test_empty_query_header_is_a_parse_error(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("\n")
        with pytest.raises(ParseError, match=r"q\.csv, line 1: query header must be x1\.\.xn"):
            load_queries(path)

    def test_dataset_rows_equal_the_per_row_reader_rows(self, tmp_path):
        data, _ = impute_inputs(tmp_path, "mesh")
        fast = load_dataset(data)
        with mock.patch.object(gio, "_fast_rows", return_value=None):
            per_row = load_dataset(data)
        assert fast[0] == per_row[0]
        assert fast[1].index_map == per_row[1].index_map


def per_row_imputation(training, mesh, queries, method, **kwargs) -> list:
    """Impute output rows as text fields, as one ``evaluate_layers`` call per
    query gives them, in the documented layout: x1..xn, one estimate per
    layer (empty in a failed row), method, status ("ok" or "error: " and the
    error), and the sorted flags of every layer plus "extrapolated", joined
    by ';' (empty in a failed row)."""
    rows = []
    for q in queries:
        try:
            result = evaluate_layers(training, validate_query(q, training.n), mesh=mesh,
                                     method=method, **kwargs)
        except GradsurfError as exc:
            y, status, flags = [""] * training.layer_count, f"error: {exc}", ""
        else:
            found = {f for comp in result.components for f in comp.flags}
            if any(comp.extrapolated for comp in result.components):
                found.add("extrapolated")
            y, status = [repr(float(v)) for v in result.y_hat], "ok"
            flags = ";".join(sorted(found))
        rows.append([repr(float(v)) for v in q] + y + [method, status, flags])
    return rows


def impute_inputs(tmp_path, layout, nodes=5, count=40):
    """A data CSV with two outcome layers and a query CSV for it.

    ``layout`` "mesh" is a jittered ``nodes``^3 mesh with holes; "scattered"
    is 60 uniform points without a mesh.  The ``count`` + 6 queries lie
    inside cells, on training points, outside the domain, at holes, and one
    is NaN.
    """
    f1, f2 = TEST_FUNCTIONS["S1"], TEST_FUNCTIONS["S2"]
    full, mesh = gen_mesh_dataset(f1, nodes, x_jitter_fraction=0.2, seed=4)
    rng = np.random.default_rng(4)
    if layout == "mesh":
        kept = np.flatnonzero(rng.random(full.npoints) < 0.85)
        grid = np.stack(np.unravel_index(kept, mesh.shape), axis=1)
        x = full.x[kept]
        mesh = MeshIndex(axes=mesh.axes, jitter_fraction=0.2,
                         index_map={tuple(g): i for i, g in enumerate(grid.tolist())})
    else:
        x, mesh = rng.uniform(1.0, 5.0, (60, 3)), None
    training = validate_training_set((x, np.stack([f1(x), f2(x)], axis=1)),
                                     n=3, layer_count=2)
    data = tmp_path / "data.csv"
    save_dataset(data, training, mesh)
    queries = np.vstack([rng.uniform(1.6, 5.4, (count, 3)), x[:5], [[np.nan, 3.0, 3.0]]])
    q_csv = tmp_path / "q.csv"
    q_csv.write_text("x1,x2,x3\n" + "".join(
        ",".join(repr(float(v)) for v in q) + "\n" for q in queries))
    return data, q_csv


def assert_impute_equals_per_row_evaluation(tmp_path, workers, method, layout="mesh",
                                            combinations=1):
    data, q_csv = impute_inputs(tmp_path, layout)
    out, expected = tmp_path / "out.csv", tmp_path / "expected.csv"
    code = main(["impute", "--data", str(data), "--queries", str(q_csv), "--output", str(out),
                 "--workers", str(workers), "--method", method,
                 "--combinations", str(combinations)])

    training, mesh = load_dataset(data)
    kwargs = {"combinations": combinations} if method == "gradient" else {}
    rows = per_row_imputation(training, mesh, load_queries(q_csv), method, **kwargs)
    header = ["x1", "x2", "x3", "y_hat1", "y_hat2", "method", "status", "flags"]
    with open(expected, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)
    # the smooth method needs a mesh, so every scattered row fails
    ok = {False} if (method, layout) == ("smooth", "scattered") else {True, False}
    assert {r[-2] == "ok" for r in rows} == ok
    assert code == EXIT_RUNTIME
    assert out.read_bytes() == expected.read_bytes()


class TestSmoothImpute:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_output_equals_per_row_evaluation(self, tmp_path, workers):
        assert_impute_equals_per_row_evaluation(tmp_path, workers, "smooth")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shape_exponent_below_one_finishes(self, tmp_path, workers):
        """For d < 1 the arc's slope is infinite at either end of the
        interval, where Newton iterates get clamped; such a lane leaves
        Newton for bisection, and every row is what ``evaluate_layers`` gives."""
        data, q_csv = impute_inputs(tmp_path, "mesh", nodes=9, count=600)
        out = tmp_path / "out.csv"
        code = main(["impute", "--data", str(data), "--queries", str(q_csv), "--output",
                     str(out), "--workers", str(workers), "--method", "smooth",
                     "--d-exponent", "0.5"])
        training, mesh = load_dataset(data)
        rows = per_row_imputation(training, mesh, load_queries(q_csv), "smooth", d=0.5)
        assert code == EXIT_RUNTIME  # the holes fail some rows
        assert list(csv.reader(out.read_text().splitlines()))[1:] == rows
        assert sum(r[-2] == "ok" for r in rows) > 200

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scattered_rows_report_the_argument_error(self, tmp_path, workers):
        assert_impute_equals_per_row_evaluation(tmp_path, workers, "smooth", "scattered")


class TestGradientImpute:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_output_equals_per_row_evaluation(self, tmp_path, workers):
        assert_impute_equals_per_row_evaluation(tmp_path, workers, "gradient")

    @pytest.mark.parametrize("layout,combinations", [("mesh", 4), ("scattered", 1),
                                                     ("scattered", 4)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_scattered_and_averaged_output_equals_per_row_evaluation(
        self, tmp_path, workers, layout, combinations
    ):
        assert_impute_equals_per_row_evaluation(tmp_path, workers, "gradient", layout,
                                                combinations)


class TestUsedMeshImpute:
    @pytest.mark.parametrize("method", ["gradient", "smooth"])
    def test_a_mesh_pickled_after_its_first_batch_gives_the_same_rows(self, tmp_path, method):
        """A holed jittered mesh, pickled after both batch kernels built its
        facts, imputes the bytes that a freshly loaded one does, in this
        process and in workers it is pickled to again."""
        data, q_csv = impute_inputs(tmp_path, "mesh")
        training, mesh = load_dataset(data)
        queries = load_queries(q_csv)
        queries = queries[np.isfinite(queries).all(axis=1)]
        evaluate_gradient_batch(training, queries, mesh)
        evaluate_smooth_batch(training, queries, mesh)
        used = pickle.loads(pickle.dumps(mesh))
        outputs = set()
        for workers in ("1", "2"):
            for loaded in (load_dataset(data), (training, used)):
                out = tmp_path / f"out{workers}.csv"
                with mock.patch.object(cli, "load_dataset", return_value=loaded):
                    main(["impute", "--data", str(data), "--queries", str(q_csv),
                          "--output", str(out), "--workers", workers, "--method", method])
                outputs.add(out.read_bytes())
        assert len(outputs) == 1


def holed_mesh_queries(nodes, jitter, seed=0):
    """A jittered ``nodes``^3 mesh of S1 and S2 without about 15% of its
    nodes, one query per interior cell (at most 60) and 6 outside the box."""
    f1, f2 = TEST_FUNCTIONS["S1"], TEST_FUNCTIONS["S2"]
    full, mesh = gen_mesh_dataset(f1, nodes, x_jitter_fraction=jitter, seed=seed)
    queries, _, _ = gen_queries(mesh, f1, full, seed=seed + 1, budget=60)
    rng = np.random.default_rng(seed)
    kept = np.flatnonzero(rng.random(full.npoints) < 0.85)
    grid = np.stack(np.unravel_index(kept, mesh.shape), axis=1)
    x = full.x[kept]
    mesh = MeshIndex(axes=mesh.axes, jitter_fraction=jitter,
                     index_map={tuple(g): i for i, g in enumerate(grid.tolist())})
    training = validate_training_set((x, np.stack([f1(x), f2(x)], axis=1)),
                                     n=3, layer_count=2)
    lo, hi = training.bounding_box
    outside = lo + (hi - lo) * rng.uniform(-0.2, 1.2, (6, 3))
    return training, mesh, np.vstack([queries, outside])


class TestFlagColumn:
    """``cli._flag_column`` reads a batch's flag codes and gives the text that
    the batch's flag strings give (``oracle_flag_column``)."""

    @staticmethod
    def assert_equals_oracle(flag_codes, extrapolated):
        column = cli._flag_column(flag_codes, extrapolated)
        assert column.tolist() == oracle_flag_column(FLAG_NAMES[flag_codes], extrapolated).tolist()

    def test_every_subset_of_the_names(self):
        # one row per nonempty subset of the 8 codes, cycled over 2 layers and
        # 4 axes in shuffled order; the empty set is a gradient batch's
        rng = np.random.default_rng(0)
        subsets = [s for r in range(1, 9) for s in itertools.combinations(range(8), r)]
        codes = np.array([rng.permutation(np.resize(s, 8)) for s in subsets], dtype=np.uint8)
        codes = codes.reshape(-1, 2, 4)
        for extrapolated in (np.zeros(len(codes), dtype=bool), np.ones(len(codes), dtype=bool),
                             rng.random(len(codes)) < 0.5):
            self.assert_equals_oracle(codes, extrapolated)
        assert cli._flag_column(codes[:0], extrapolated[:0]).shape == (0,)

    @pytest.mark.parametrize("layout,combinations", [("mesh", 1), ("mesh", 4),
                                                     ("scattered", 1)])
    def test_gradient_batches(self, tmp_path, layout, combinations):
        data, q_csv = impute_inputs(tmp_path, layout)
        training, mesh = load_dataset(data)
        queries = load_queries(q_csv)[:-1]  # the last is NaN
        batch = evaluate_gradient_batch(training, queries, mesh, combinations=combinations)
        assert batch.flag_codes.shape == (len(queries), 2, 0)
        assert batch.flag_codes.dtype == np.uint8
        assert batch.extrapolated.any() and not batch.extrapolated.all()
        self.assert_equals_oracle(batch.flag_codes, batch.extrapolated)

    @pytest.mark.parametrize("d", [1.0, 300.0])
    def test_rows_the_batch_refuses_itself(self, d):
        """The kernel fails a holed mesh's rows at holes, and at d = 300 the
        rows whose arcs overflow in cells that jitter narrowed, without
        calling ``evaluate_smooth``; ``find_root`` runs only for the lanes
        that leave Newton.  Each answered row's flags are
        ``evaluate_smooth``'s, and so is each failed row's error."""
        training, mesh, queries = holed_mesh_queries(20, 0.3)
        newton, left = smooth._newton_lanes, []  # lanes that leave Newton, per kernel call

        def newton_lanes(*args):
            found = newton(*args)
            left.append(int(np.count_nonzero(found[2])))
            return found

        with warnings.catch_warnings(), \
                mock.patch.object(smooth, "evaluate_smooth", wraps=smooth.evaluate_smooth) as spy, \
                mock.patch.object(smooth, "find_root", wraps=smooth.find_root) as root, \
                mock.patch.object(smooth, "_newton_lanes", side_effect=newton_lanes):
            warnings.simplefilter("ignore")  # d > 1 warns of inflections
            batch = evaluate_smooth_batch(training, queries, mesh, d=d)
        assert spy.call_count == 0 and not hasattr(smooth, "_smooth_estimate")
        assert root.call_count == sum(left)
        failed = np.isin(np.arange(len(queries)), list(batch.errors))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i, q in enumerate(queries):
                for layer in range(2):
                    try:
                        expected = evaluate_smooth(training, q, mesh, d=d, layer=layer)
                    except GradsurfError as exc:
                        assert (type(batch.errors[i]), str(batch.errors[i])) == \
                            (type(exc), str(exc))
                        break
                    assert tuple(batch.flags[i, layer]) == expected.flags
        overflowed = ["past the float range" in str(e) for e in batch.errors.values()]
        assert failed.any() and (~failed).any()
        assert any(overflowed) == (d == 300.0) and not all(overflowed)
        self.assert_equals_oracle(batch.flag_codes, batch.extrapolated)
        self.assert_equals_oracle(batch.flag_codes[~failed], batch.extrapolated[~failed])


EDGE_VALUES = (-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, -2.5e-310, 123456.789, 1.0 / 3.0)


class TestCsvWriters:
    """``save_dataset`` and ``write_imputed`` write the bytes of one
    ``csv.writer`` row per point or query."""

    @pytest.mark.parametrize("layers", [1, 3])
    def test_save_dataset_equals_the_per_row_writer(self, tmp_path, layers):
        rng = np.random.default_rng(layers)
        x = rng.permutation(np.resize(EDGE_VALUES, (40, 2)).ravel()).reshape(40, 2)
        x[:, 1] += np.arange(40)  # distinct rows
        y = rng.choice(EDGE_VALUES, (40, layers)) * rng.choice([-1.0, 1.0], (40, layers))
        ts = validate_training_set((x, y), n=2, layer_count=layers)
        save_dataset(tmp_path / "ours.csv", ts)
        oracle_save_dataset_csv(tmp_path / "theirs.csv", ts)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()
        assert load_dataset(tmp_path / "ours.csv")[0] == ts

    @pytest.mark.parametrize("layers", [1, 2, 4])
    def test_write_imputed_equals_the_per_row_writer(self, tmp_path, layers):
        rng = np.random.default_rng(layers)
        count = 30
        coords = rng.choice(EDGE_VALUES, (count, 3))
        y_hat = rng.choice(EDGE_VALUES + (np.inf, -np.inf), (count, layers))
        status = np.full(count, "ok", dtype=object)
        flags = np.full(count, "", dtype=object)
        status[[2, 7, 19]] = ['error: bad "x", at 1,2', "error: no point, none", 'error: "q"']
        y_hat[[2, 7, 19]] = np.nan
        flags[[0, 5, 11]] = ["corrected", "chord-fallback,+inflection", 'a "quoted", flag']
        gio.write_imputed(tmp_path / "ours.csv", coords, y_hat, "smooth", status, flags)
        oracle_write_imputed(tmp_path / "theirs.csv", coords, y_hat, "smooth", status, flags)
        ours = (tmp_path / "ours.csv").read_bytes()
        assert ours == (tmp_path / "theirs.csv").read_bytes()
        rows = list(csv.reader(ours.decode().splitlines()))
        assert rows[3][3 + layers:] == ["smooth", 'error: bad "x", at 1,2', ""]
        assert rows[6][-1] == "chord-fallback,+inflection"


class TestReports:
    def test_t1_report_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        rep = run_benchmark("T1", "small")
        write_report(p1, rep)
        write_report(p2, run_benchmark("T1", "small"))
        assert p1.read_bytes() == p2.read_bytes()
        assert len(rep["timing"]) == len(rep["rows"])
        assert all(t["wall_time"] > 0 for t in rep["timing"])

    def test_report_rows_and_determinism(self, tmp_path):
        rep = run_benchmark("averaging", seed=7)
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        write_report(p1, rep)
        write_report(p2, run_benchmark("averaging", seed=7))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert len(lines) == 4
        rec = json.loads(lines[0])
        assert rec["config"]["seed"] == 7
        assert rec["combinations"] == 1

    def test_plot_csv(self, tmp_path):
        rep = run_benchmark("averaging", seed=7)
        path = tmp_path / "plot.csv"
        write_plot_csv(path, rep)
        lines = path.read_text().splitlines()
        assert lines[0] == "log10_combinations,log10_avg_abs_err"
        assert len(lines) == 5

    @pytest.mark.parametrize("table, size, error", [
        ("T1", "points", "rel_err"),
        ("T2", "points", "gradient_rel_err"),
        ("T3", "queries", "gradient_rel_err"),
        ("T4", "queries", "rel_err"),
    ])
    def test_plot_csv_of_a_table(self, tmp_path, table, size, error):
        # each row's size and error under its table's keys, beside keys the
        # plot must not read: the smooth method's error (T2, T3) and r1 (T4)
        rows = [{size: v, error: e, "smooth_rel_err": 9.0, "r1": 9.0}
                for v, e in ((8, 0.25), (1000, 0.0125), (27000, 1e-4))]
        path = tmp_path / "plot.csv"
        write_plot_csv(path, {"table": table, "rows": rows})
        assert path.read_text().splitlines() == [
            "log10_points,rel_err", "0.9030899869919435,0.25", "3.0,0.0125",
            "4.431363764158987,0.0001"]


class TestCli:
    def test_eval_prints_estimate(self, tmp_path, capsys):
        data, _ = affine_files(tmp_path)
        code = main(["eval", "--data", str(data), "--at", "0.7,1.1"])
        assert code == EXIT_OK
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(2.0 * 0.7 - 1.1 + 0.5, abs=1e-9)

    def test_impute_affine_exact_with_flags(self, tmp_path):
        data, ts = affine_files(tmp_path)
        queries = tmp_path / "q.csv"
        # one node query, one interior query, one extrapolating query
        queries.write_text("x1,x2\n0.5,0.5\n0.7,1.1\n3.0,3.0\n")
        out = tmp_path / "out.csv"
        code = main(["impute", "--data", str(data), "--queries", str(queries),
                     "--output", str(out), "--method", "smooth"])
        assert code == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[0] == "x1,x2,y_hat,method,status,flags"
        for line in rows[1:]:
            fields = line.split(",")
            x1, x2, y_hat = float(fields[0]), float(fields[1]), float(fields[2])
            assert y_hat == pytest.approx(2.0 * x1 - x2 + 0.5, abs=1e-9)
            assert fields[4] == "ok"
        assert "extrapolated" in rows[3]

    def test_impute_node_query_returns_stored_value(self, tmp_path):
        f = TEST_FUNCTIONS["S1"]
        ts, mesh = gen_mesh_dataset(f, 5)
        data = tmp_path / "s1.csv"
        save_dataset(data, ts, mesh)
        node = ts.x[31]
        queries = tmp_path / "q.csv"
        queries.write_text("x1,x2,x3\n" + ",".join(repr(float(v)) for v in node) + "\n")
        out = tmp_path / "out.csv"
        assert main(["impute", "--data", str(data), "--queries", str(queries),
                     "--output", str(out)]) == EXIT_OK
        y_hat = float(out.read_text().splitlines()[1].split(",")[3])
        assert y_hat == pytest.approx(float(ts.y[31, 0]), abs=1e-9)

    def test_shape_exponent_past_the_float_range_is_a_typed_error(self, tmp_path, capsys):
        """Cells 3/19 wide put the arc scale 1 / B^(d+1) past the float range
        at d = 400: eval exits 2, and impute reports the error in each row."""
        ts, mesh = gen_mesh_dataset(TEST_FUNCTIONS["S1"], 20)
        data, q = tmp_path / "s1.csv", tmp_path / "q.csv"
        save_dataset(data, ts, mesh)
        q.write_text("x1,x2,x3\n3.1,3.2,3.3\n4.1,2.5,2.9\n2.3,4.4,3.7\n3.6,3.9,4.6\n")
        message = "shape exponent d=400.0 takes the arc along axis 0 past the float range"
        with pytest.warns(UserWarning, match="inflection"):
            code = main(["eval", "--data", str(data), "--at", "3.1,3.2,3.3",
                         "--d-exponent", "400"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # d > 1 warns about inflections
                code = main(["impute", "--data", str(data), "--queries", str(q),
                             "--output", str(out), "--d-exponent", "400",
                             "--workers", workers])
            assert code == EXIT_RUNTIME
            rows = list(csv.reader(out.read_text().splitlines()))[1:]
            assert [r[3:] for r in rows] == [["", "smooth", f"error: {message}", ""]] * 4

    def test_infinite_shape_exponent_is_an_argument_error(self, tmp_path, capsys):
        """d = inf used to fail every in-domain row with NonFiniteValue and
        answer the rows outside the domain."""
        ts, mesh = gen_mesh_dataset(TEST_FUNCTIONS["S1"], 8)
        data, q = tmp_path / "s1.csv", tmp_path / "q.csv"
        save_dataset(data, ts, mesh)
        message = "error: shape exponent d must be positive and finite"
        code = main(["eval", "--data", str(data), "--at", "3.1,3.2,3.3", "--d-exponent", "inf"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == message + "\n"
        q.write_text("x1,x2,x3\n3.1,3.2,3.3\n9.0,9.0,9.0\n")
        out = tmp_path / "out.csv"
        code = main(["impute", "--data", str(data), "--queries", str(q), "--output", str(out),
                     "--d-exponent", "inf"])
        assert code == EXIT_RUNTIME
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert [r[3:] for r in rows] == [["", "smooth", message, ""]] * 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_the_d_above_one_warning_is_given_once(self, tmp_path, workers):
        """gradsurf impute warns of d > 1 once, from the parent process; each
        worker used to warn as well."""
        f = TEST_FUNCTIONS["S1"]
        ts, mesh = gen_mesh_dataset(f, 8)
        queries, _, _ = gen_queries(mesh, f, ts, seed=1, budget=40)
        data, q = tmp_path / "s1.csv", tmp_path / "q.csv"
        save_dataset(data, ts, mesh)
        q.write_text("x1,x2,x3\n" + "".join(",".join(map(repr, r)) + "\n"
                                         for r in queries.tolist()))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH"))
            if p)
        proc = subprocess.run(
            [sys.executable, "-m", "gradsurf.cli", "impute", "--data", str(data), "--queries",
             str(q), "--output", str(tmp_path / "out.csv"), "--d-exponent", "2",
             "--workers", workers],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
        assert proc.stderr.count("UserWarning: shape exponent d > 1") == 1
        assert "process.py" not in proc.stderr

    def test_validation_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,y\n0,0,zap\n")
        out = tmp_path / "out.csv"
        q = tmp_path / "q.csv"
        q.write_text("x1,x2\n0.1,0.1\n")
        code = main(["impute", "--data", str(bad), "--queries", str(q),
                     "--output", str(out)])
        assert code == EXIT_VALIDATION

    def test_no_successful_row_still_writes_output(self, tmp_path):
        # the smooth method needs a mesh, so every row of a scattered set fails
        data, _ = affine_files(tmp_path, with_mesh=False)
        q = tmp_path / "q.csv"
        q.write_text("x1,x2\n0.7,1.1\n0.3,0.2\n")
        out = tmp_path / "out.csv"
        code = main(["impute", "--data", str(data), "--queries", str(q),
                     "--output", str(out)])
        assert code == EXIT_RUNTIME
        rows = out.read_text().splitlines()
        assert rows[0] == "x1,x2,y_hat,method,status,flags"
        assert len(rows) == 3
        assert all(line.split(",")[2] == "" for line in rows[1:])
        assert all(line.split(",")[4].startswith("error:") for line in rows[1:])

    @pytest.mark.parametrize("flag", ["--tolerance", "--max-iter", "--combinations",
                                      "--d-exponent"])
    def test_non_positive_option_rejected(self, tmp_path, flag):
        data, _ = affine_files(tmp_path)
        q = tmp_path / "q.csv"
        q.write_text("x1,x2\n0.7,1.1\n")
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["impute", "--data", str(data), "--queries", str(q),
                  "--output", str(out), flag, "0"])
        assert exc.value.code == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("command, option", [
        ("eval", "--seed"), ("eval", "--workers"), ("impute", "--seed"),
    ])
    def test_removed_option_rejected(self, tmp_path, command, option):
        data, _ = affine_files(tmp_path)
        q = tmp_path / "q.csv"
        q.write_text("x1,x2\n0.7,1.1\n")
        out = tmp_path / "out.csv"
        args = (["--at", "0.7,1.1"] if command == "eval"
                else ["--queries", str(q), "--output", str(out)])
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(data), *args, option, "1"])
        assert exc.value.code == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_non_positive_workers_rejected(self, tmp_path, workers):
        data, _ = affine_files(tmp_path)
        q = tmp_path / "q.csv"
        q.write_text("x1,x2\n0.7,1.1\n")
        out = tmp_path / "out.csv"
        for argv in (["impute", "--data", str(data), "--queries", str(q),
                      "--output", str(out)],
                     ["bench", "--table", "averaging", "--output", str(out)]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--workers", workers])
            assert exc.value.code == EXIT_VALIDATION
        assert not out.exists()

    def test_unknown_method_rejected(self, tmp_path):
        data, _ = affine_files(tmp_path)
        q = tmp_path / "q.csv"
        q.write_text("x1,x2\n0.7,1.1\n")
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["impute", "--data", str(data), "--queries", str(q),
                  "--output", str(out), "--method", "gradiant"])
        assert exc.value.code == EXIT_VALIDATION

    def test_missing_file_runtime_exit_code(self, tmp_path):
        out = tmp_path / "out.csv"
        q = tmp_path / "q.csv"
        q.write_text("x1,x2\n0.1,0.1\n")
        code = main(["impute", "--data", str(tmp_path / "nope.csv"),
                     "--queries", str(q), "--output", str(out)])
        assert code == EXIT_RUNTIME

    def test_bench_subcommand_writes_report(self, tmp_path):
        report = tmp_path / "rep.jsonl"
        plot = tmp_path / "plot.csv"
        code = main(["bench", "--table", "averaging", "--seed", "3",
                     "--output", str(report), "--plot-csv", str(plot)])
        assert code == EXIT_OK
        assert len(report.read_text().splitlines()) == 4
        assert plot.exists()

    def test_worker_fanout_matches_serial(self, tmp_path):
        data, _ = affine_files(tmp_path)
        rng = np.random.default_rng(0)
        q = tmp_path / "q.csv"
        lines = ["x1,x2"] + [
            f"{a},{b}" for a, b in rng.uniform(0.1, 1.9, (8, 2))
        ]
        q.write_text("\n".join(lines) + "\n")
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert main(["impute", "--data", str(data), "--queries", str(q),
                     "--output", str(out1)]) == EXIT_OK
        assert main(["impute", "--data", str(data), "--queries", str(q),
                     "--output", str(out2), "--workers", "4"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
