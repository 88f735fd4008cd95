import json

import numpy as np
import pytest

from gradsurf import (
    MeshIndex,
    ParseError,
    TEST_FUNCTIONS,
    gen_mesh_dataset,
    load_dataset,
    load_queries,
    run_benchmark,
    save_dataset,
    validate_training_set,
    write_plot_csv,
    write_report,
)
from gradsurf.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main


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
