import numpy as np
import pytest

from gradsurf import (
    DegenerateNeighborhood,
    EmptyInput,
    MeshIndex,
    NoiseSpec,
    TEST_FUNCTIONS,
    ValidationError,
    compute_noise_ratios,
    compute_stats,
    evaluate_batch,
    gen_local_cell_dataset,
    gen_mesh_dataset,
    gen_queries,
    run_benchmark,
    validate_training_set,
)
from gradsurf import bench
from gradsurf.bench import SENTINEL_RATIO, _high_dim_scenario, _mesh_scenario
from tests_oracles import (
    ScriptedGenerator,
    oracle_distinct_offsets,
    oracle_gen_queries,
    oracle_high_dim_scenario,
    oracle_local_cell_dataset,
    oracle_mesh_scenario,
)


class TestTestFunctions:
    def test_fixed_dimension_surfaces(self):
        x = np.array([1.0, 2.0, 3.0])
        t1 = TEST_FUNCTIONS["T1"](x)
        assert t1 == pytest.approx(1.0 + 0.4 * np.sin(12.0) + 0.6 * np.sin(12.5))
        s1 = TEST_FUNCTIONS["S1"](np.array([4.0, 4.0, 4.0]))
        assert s1 == pytest.approx((0.3 + 0.5 + 0.7) * 2.0)

    def test_any_dimension_surfaces(self):
        for fid in ("H1", "H2", "H3"):
            f = TEST_FUNCTIONS[fid]
            assert np.isfinite(f(np.full(9, 3.0)))
            assert np.isfinite(f(np.full(99, 3.0)))

    def test_weighted_sum_structure(self):
        # H1 over n predictors: sum of (0.3 + i/(4n)) * sqrt(x_i)
        x = np.full(4, 9.0)
        expected = sum((0.3 + i / 16.0) * 3.0 for i in range(4))
        assert TEST_FUNCTIONS["H1"](x) == pytest.approx(expected)


class TestGenMeshDataset:
    def test_twenty_nodes_gives_8000_points(self):
        ts, mesh = gen_mesh_dataset(TEST_FUNCTIONS["T1"], 20)
        assert ts.npoints == 8000
        assert mesh.shape == (20, 20, 20)

    def test_noiseless_outcomes_exact(self):
        f = TEST_FUNCTIONS["S1"]
        ts, _ = gen_mesh_dataset(f, 5)
        assert np.allclose(ts.y[:, 0], f(ts.x))

    def test_seed_determinism(self):
        f = TEST_FUNCTIONS["T1"]
        kw = dict(x_jitter_fraction=0.2, y_noise=NoiseSpec(kind="normal", sigma=0.1))
        a, _ = gen_mesh_dataset(f, 6, seed=42, **kw)
        b, _ = gen_mesh_dataset(f, 6, seed=42, **kw)
        assert a == b
        c, _ = gen_mesh_dataset(f, 6, seed=43, **kw)
        assert a != c

    def test_jitter_bounds(self):
        f = TEST_FUNCTIONS["T1"]
        ts, mesh = gen_mesh_dataset(f, 6, x_jitter_fraction=0.3, seed=1)
        nominal, _ = gen_mesh_dataset(f, 6)
        h = mesh.axes[0][1] - mesh.axes[0][0]
        assert np.abs(ts.x - nominal.x).max() < 0.3 * h
        with pytest.raises(ValidationError):
            gen_mesh_dataset(f, 6, x_jitter_fraction=0.6)

    def test_uniform_noise_magnitudes(self):
        spec = NoiseSpec(kind="uniform", low=0.05, high=0.3)
        f = TEST_FUNCTIONS["S1"]
        ts, _ = gen_mesh_dataset(f, 6, y_noise=spec, seed=0)
        clean = f(ts.x)
        mags = np.abs(ts.y[:, 0] - clean)
        assert (mags >= 0.05).all() and (mags <= 0.3).all()


class TestGenQueries:
    def test_interior_cell_count(self):
        f = TEST_FUNCTIONS["T1"]
        ts, mesh = gen_mesh_dataset(f, 20)
        q, truths, refs = gen_queries(mesh, f, ts, budget=10_000)
        assert len(q) == 17**3  # one query per interior cell
        assert len(truths) == len(refs) == len(q)

    def test_budget_cap(self):
        f = TEST_FUNCTIONS["T1"]
        ts, mesh = gen_mesh_dataset(f, 20)
        q, _, _ = gen_queries(mesh, f, ts, budget=500)
        assert len(q) == 500

    def test_offsets_within_range_and_distinct(self):
        f = TEST_FUNCTIONS["T1"]
        ts, mesh = gen_mesh_dataset(f, 8)
        q, _, _ = gen_queries(mesh, f, ts, budget=100, seed=9)
        h = mesh.axes[0][1] - mesh.axes[0][0]
        for row in q:
            cell = mesh.cell_of(row)
            off = (row - [mesh.axes[a][cell[a]] for a in range(3)]) / h
            assert ((off >= 0.3) & (off < 0.5)).all()
            assert len(np.unique(np.round(off, 12))) == 3


    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_the_per_query_oracle(self, n, sparse):
        f = TEST_FUNCTIONS["H1"]
        nodes = {1: 20, 2: 9, 3: 7, 4: 6}[n]
        interior = (nodes - 3) ** n
        for seed in range(20):
            jitter = (0.0, 0.15, 0.3, 0.45)[seed % 4]
            ts, mesh = gen_mesh_dataset(f, nodes, x_jitter_fraction=jitter, seed=seed, n=n)
            if sparse:  # file every node, in shuffled order
                order = np.random.default_rng(seed).permutation(ts.npoints)
                grid = np.stack(np.unravel_index(order, mesh.shape), axis=1)
                ts = validate_training_set((ts.x[order], ts.y[order]), n=n)
                mesh = MeshIndex(axes=mesh.axes, jitter_fraction=jitter, grid=grid,
                                 rows=np.arange(len(order)))
            for budget in (interior // 3, interior, 10_000):
                got = gen_queries(mesh, f, ts, seed=seed + 100, budget=budget)
                want = oracle_gen_queries(mesh, f, ts, seed=seed + 100, budget=budget)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_missing_reference_node_is_a_typed_error(self):
        f = TEST_FUNCTIONS["S1"]
        ts, mesh = gen_mesh_dataset(f, 6)
        grid = np.stack(np.unravel_index(np.arange(ts.npoints), mesh.shape), axis=1)
        keep = np.flatnonzero((grid != 2).any(axis=1))  # leave out node (2, 2, 2)
        holed = validate_training_set((ts.x[keep], ts.y[keep]), n=3)
        sparse = MeshIndex(axes=mesh.axes, grid=grid[keep], rows=np.arange(len(keep)))
        with pytest.raises(DegenerateNeighborhood, match=r"grid index \(2, 2, 2\)"):
            gen_queries(sparse, f, holed, budget=10_000)


class TestDistinctOffsets:
    """Rows of PCG64 draws practically never repeat a value, so the replay of
    repeated rows is checked on scripted draws."""

    def test_a_repeated_row_is_redrawn_and_later_rows_shift(self):
        script = [0.3, 0.4, 0.35, 0.35, 0.45, 0.3, 0.4, 0.41, 0.33, 0.33]
        rng = ScriptedGenerator(script)
        off = bench._distinct_offsets(rng, 3, 2)
        assert off.tolist() == [[0.3, 0.4], [0.45, 0.3], [0.4, 0.41]]
        assert rng.state == 8

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_per_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        script = rng.choice([0.3, 0.35, 0.4, 0.45, 0.49], size=5000)  # rows often repeat
        ours, theirs = ScriptedGenerator(script), ScriptedGenerator(script)
        off = bench._distinct_offsets(ours, m, n)
        assert off.tobytes() == oracle_distinct_offsets(theirs, m, n).tobytes()
        assert ours.state == theirs.state

    @pytest.mark.parametrize("seed", range(10))
    def test_a_real_generator_draws_the_per_row_stream(self, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        off = bench._distinct_offsets(ours, 300, 4)
        assert off.tobytes() == oracle_distinct_offsets(theirs, 300, 4).tobytes()
        assert ours.uniform() == theirs.uniform()  # same draws consumed


class TestLocalCellDataset:
    def test_point_budget_is_linear_in_dimension(self):
        rng = np.random.default_rng(0)
        for n in (5, 20):
            ts, mesh, q, truth, ref = gen_local_cell_dataset(
                TEST_FUNCTIONS["H1"], n, 20, rng
            )
            assert ts.npoints == 3 * n + 1
            assert truth == pytest.approx(float(TEST_FUNCTIONS["H1"](q)))
            cell = mesh.cell_of(q)
            assert mesh.point_at(cell) == 0  # query sits in the reference cell


    @pytest.mark.parametrize("n", [1, 2, 9])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_matches_the_pointwise_oracle(self, n, noisy):
        f = TEST_FUNCTIONS["H1"]
        noise = NoiseSpec(kind="normal", sigma=0.1) if noisy else None
        for seed in range(4):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            ts, mesh, q, truth, ref = gen_local_cell_dataset(f, n, 20, rng, y_noise=noise)
            x, y, index_map, q0, truth0, ref0 = oracle_local_cell_dataset(
                f, n, 20, oracle_rng, y_noise=noise
            )
            assert np.array_equal(ts.x, x) and np.array_equal(ts.y, y)
            assert mesh.index_map == index_map
            assert np.array_equal(q, q0)
            assert (truth, ref) == (truth0, ref0)
            assert rng.uniform() == oracle_rng.uniform()  # same draws consumed


class TestComputeStats:
    def test_perfect_reconstruction(self):
        s = compute_stats([1.0, 2.0], [1.0, 2.0], [0.5, 1.5])
        assert s == {"M": 2, "avg_y_differ": 0.5, "avg_abs_err": 0.0,
                     "max_abs_err": 0.0, "rel_err": 0.0}

    def test_direct_ratio(self):
        s = compute_stats([1.1], [1.0], [0.6])
        assert s["M"] == 1
        assert s["avg_y_differ"] == pytest.approx(0.4)
        assert s["rel_err"] == pytest.approx(0.1 / 0.4)
        assert s["max_abs_err"] == pytest.approx(0.1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            compute_stats([], [], [])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            compute_stats([1.0], [1.0, 2.0], [1.0])


class TestComputeNoiseRatios:
    def test_perfect_computation_flagged_sentinel(self):
        r = compute_noise_ratios([1.1, 2.1], [1.0, 2.0], [1.0, 2.0])
        assert r == {"r1": SENTINEL_RATIO, "r2": SENTINEL_RATIO, "capped": True}

    def test_hand_values(self):
        r = compute_noise_ratios([1.2, 1.8], [1.1, 1.95], [1.0, 2.0])
        assert r.keys() == {"r1", "r2", "capped"}
        assert r["r1"] == pytest.approx(0.4 / 0.15)
        assert r["r2"] == pytest.approx(0.4 / 0.05)
        assert not r["capped"]


METHODS = ("gradient", "smooth")


class TestScenarios:
    """Each scenario builds its data once and evaluates every method on it."""

    def test_mesh_scenario_equals_one_method_oracle(self):
        f = TEST_FUNCTIONS["S1"]
        results = _mesh_scenario(f, 8, 3, METHODS)
        assert len(results) == 2
        for method, (stats, wall) in zip(METHODS, results):
            assert stats == oracle_mesh_scenario(f, 8, 3, method)
            assert wall > 0

    @pytest.mark.parametrize("noisy", [False, True])
    def test_high_dim_scenario_equals_one_method_oracle(self, noisy):
        f = TEST_FUNCTIONS["H1"]
        noise = NoiseSpec(kind="normal", sigma=0.1) if noisy else None
        results = _high_dim_scenario(f, 9, 6, 5, METHODS, y_noise=noise)
        for method, (stats, wall) in zip(METHODS, results):
            oracle = oracle_high_dim_scenario(
                f, 9, 6, 5, method, y_noise=noise, collect_noise=noisy
            )
            if noisy:
                oracle = {**oracle[0], **oracle[1]}
            assert stats == oracle
            assert wall > 0

    def test_data_built_once_per_scenario(self, monkeypatch):
        calls = {}

        def counted(name):
            original = getattr(bench, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(bench, name, wrapper)

        for name in ("gen_mesh_dataset", "gen_queries", "gen_local_cell_dataset"):
            counted(name)
        _mesh_scenario(TEST_FUNCTIONS["S1"], 8, 0, METHODS)
        assert calls == {"gen_mesh_dataset": 1, "gen_queries": 1}
        _high_dim_scenario(TEST_FUNCTIONS["H1"], 9, 6, 0, METHODS)
        assert calls["gen_local_cell_dataset"] == 6


class TestRunBenchmark:
    def test_averaging_structure_and_determinism(self):
        a = run_benchmark("averaging", seed=5)
        b = run_benchmark("averaging", seed=5)
        assert a == b
        assert [r["combinations"] for r in a["rows"]] == [1, 4, 16, 64]
        assert "log_log_slope" in a["notes"]

    def test_averaging_error_shrinks_with_combinations(self):
        rep = run_benchmark("averaging", seed=2)
        errs = [r["avg_abs_err"] for r in rep["rows"]]
        assert errs[-1] < errs[0]

    def test_unknown_table_rejected(self):
        with pytest.raises(ValidationError):
            run_benchmark("T9")

    @pytest.mark.parametrize("table", ["T1", "T2", "T3", "T4", "averaging"])
    def test_unknown_scale_rejected(self, table):
        with pytest.raises(ValidationError, match="unknown scale 'huge'"):
            run_benchmark(table, scale="huge")


def test_evaluate_batch_preserves_order():
    f = TEST_FUNCTIONS["S1"]
    ts, mesh = gen_mesh_dataset(f, 8)
    q, _, _ = gen_queries(mesh, f, ts, budget=20, seed=4)
    serial = evaluate_batch(ts, q, mesh=mesh, method="gradient", workers=1)
    fanned = evaluate_batch(ts, q, mesh=mesh, method="gradient", workers=2)
    assert serial == fanned


def test_unknown_method_rejected_serial_and_fanned_out():
    f = TEST_FUNCTIONS["S1"]
    ts, mesh = gen_mesh_dataset(f, 8)
    q, _, _ = gen_queries(mesh, f, ts, budget=20, seed=4)
    for workers in (1, 2):
        with pytest.raises(ValidationError):
            evaluate_batch(ts, q, mesh=mesh, method="gradiant", workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("method,keyword", [("gradient", "layer"), ("gradient", "plan"),
                                            ("gradient", "d"), ("smooth", "combinations")])
def test_unknown_keyword_rejected_before_any_work(method, keyword, workers, monkeypatch):
    f = TEST_FUNCTIONS["S1"]
    ts, mesh = gen_mesh_dataset(f, 8)
    q, _, _ = gen_queries(mesh, f, ts, budget=20, seed=4)

    def no_work(*args, **kwargs):
        raise AssertionError("the batch ran")

    monkeypatch.setattr(bench, "_fan_out", no_work)
    with pytest.raises(ValidationError, match=f"'{keyword}'"):
        evaluate_batch(ts, q, mesh=mesh, method=method, workers=workers, **{keyword: 0})
