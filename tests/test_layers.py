import multiprocessing
import os
import signal
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradsurf import layers
from gradsurf import (
    DimensionMismatch,
    Estimate,
    GradsurfError,
    MeshIndex,
    ValidationError,
    evaluate_batch,
    evaluate_gradient,
    evaluate_gradient_batch,
    evaluate_layers,
    evaluate_smooth,
    validate_training_set,
)
from gradsurf.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from gradsurf.io import save_dataset
from tests_oracles import grid_queries, holed_local_cell, random_grid


def layered_mesh(layer_fns):
    nodes = np.linspace(0.0, 3.0, 7)
    grids = np.meshgrid(nodes, nodes, indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)
    y = np.stack([fn(x) for fn in layer_fns], axis=1)
    ts = validate_training_set((x, y), n=2, layer_count=len(layer_fns))
    return ts, MeshIndex(axes=(nodes, nodes))


def test_single_layer_matches_scalar_method():
    f = lambda x: np.sin(x[:, 0]) + x[:, 1] ** 2
    ts, mesh = layered_mesh([f])
    q = np.array([1.3, 2.1])
    out = evaluate_layers(ts, q, mesh=mesh, method="smooth")
    scalar = evaluate_smooth(ts, q, mesh)
    assert out.y_hat == (scalar.y_hat,)

    out_g = evaluate_layers(ts, q, mesh=mesh, method="gradient")
    scalar_g = evaluate_gradient(ts, q, mesh=mesh)
    assert out_g.y_hat == (scalar_g.y_hat,)


def test_doubled_layer_doubles_component():
    f = lambda x: np.sin(x[:, 0]) + x[:, 1] ** 2
    ts, mesh = layered_mesh([f, lambda x: 2.0 * f(x)])
    q = np.array([1.3, 2.1])
    # the gradient method is exactly linear in the outcomes
    out_g = evaluate_layers(ts, q, mesh=mesh, method="gradient")
    assert out_g.y_hat[1] == pytest.approx(2.0 * out_g.y_hat[0], rel=1e-12)
    # the smooth correction works through chord angles, which scale only
    # approximately, so doubling holds to within the method's own error
    out_s = evaluate_layers(ts, q, mesh=mesh, method="smooth")
    assert out_s.y_hat[1] == pytest.approx(2.0 * out_s.y_hat[0], rel=1e-2)


def test_three_layer_vector_output():
    fns = [
        lambda x: x[:, 0] + x[:, 1],
        lambda x: np.cos(x[:, 0]),
        lambda x: x[:, 1] ** 1.5,
    ]
    ts, mesh = layered_mesh(fns)
    q = np.array([0.7, 1.9])
    out = evaluate_layers(ts, q, mesh=mesh, method="smooth")
    assert len(out.y_hat) == 3
    for j in range(3):
        assert out.y_hat[j] == pytest.approx(
            evaluate_smooth(ts, q, mesh, layer=j).y_hat
        )


def test_layer_permutation_permutes_components():
    fns = [lambda x: x[:, 0] ** 2, lambda x: np.sin(x[:, 1])]
    ts, mesh = layered_mesh(fns)
    ts_swapped, _ = layered_mesh(fns[::-1])
    q = np.array([1.1, 1.7])
    out = evaluate_layers(ts, q, mesh=mesh, method="gradient")
    out_swapped = evaluate_layers(ts_swapped, q, mesh=mesh, method="gradient")
    assert out.y_hat == out_swapped.y_hat[::-1]


def test_unknown_method_rejected():
    ts, mesh = layered_mesh([lambda x: x[:, 0]])
    with pytest.raises(ValidationError):
        evaluate_layers(ts, np.array([1.0, 1.0]), mesh=mesh, method="spline")


def scattered_layers(seed=0, count=60):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (count, 3))
    y = np.stack([x @ [1.0, -2.0, 0.5], np.sin(3.0 * x[:, 0]), x[:, 1] * x[:, 2]], axis=1)
    return validate_training_set((x, y), n=3, layer_count=3), rng.uniform(0.2, 0.8, (5, 3))


@pytest.mark.parametrize("mode", ["mesh", "mesh C=4", "scattered C=4"])
def test_gradient_plan_built_once_for_all_layers(mode, monkeypatch):
    from gradsurf import gradient, neighbors

    if mode == "scattered C=4":
        ts, queries = scattered_layers()
        mesh, kwargs = None, {"combinations": 4}
    else:
        fns = [lambda x: x[:, 0] + x[:, 1], lambda x: np.cos(x[:, 0]), lambda x: x[:, 1] ** 1.5]
        ts, mesh = layered_mesh(fns)
        queries = [np.array([0.7, 1.9]), np.array([2.2, 0.4])]
        kwargs = {"combinations": 4} if mode == "mesh C=4" else {}

    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return neighbors.enumerate_combinations(*args, **kw)

    monkeypatch.setattr(gradient, "enumerate_combinations", counted)
    # a query is a batch of one: the mesh kernel (one combination) plans
    # through the mesh and builds no plan, any other query builds one
    for q in queries:
        calls.clear()
        out = evaluate_layers(ts, q, mesh=mesh, method="gradient", **kwargs)
        assert len(calls) == (0 if mode == "mesh" else 1)
        assert len(out.components) == 3
        for j, component in enumerate(out.components):
            assert component == evaluate_gradient(ts, q, mesh=mesh, layer=j, **kwargs)

    # the batch route: one plan per query that leaves the mesh kernel, and
    # the mesh kernel (one combination) builds none
    calls.clear()
    batch = evaluate_gradient_batch(ts, queries, mesh, **kwargs)
    assert len(calls) == (0 if mode == "mesh" else len(queries))
    assert not batch.errors
    for i, q in enumerate(queries):
        for j, component in enumerate(out.components):
            expected = evaluate_gradient(ts, q, mesh=mesh, layer=j, **kwargs)
            assert float(batch.y_hat[i, j]).hex() == expected.y_hat.hex()
        assert batch.reference_index[i] == expected.reference_index


def scalar_loop(ts, q, mesh, method, **kwargs):
    """What ``evaluate_layers`` answers: the single-query method on each layer
    in order, or the first failing layer's error as (type, message)."""
    single = evaluate_gradient if method == "gradient" else evaluate_smooth
    try:
        return tuple(single(ts, q, mesh=mesh, layer=l, **kwargs) for l in range(ts.layer_count))
    except GradsurfError as exc:
        return type(exc), str(exc)


def layered(ts, q, mesh, method, **kwargs):
    try:
        return evaluate_layers(ts, q, mesh=mesh, method=method, **kwargs).components
    except GradsurfError as exc:
        return type(exc), str(exc)


def assert_layers_match_the_scalar_loop(ts, queries, mesh, method, **kwargs):
    """Every component (estimate, reference, combinations, Newton counts,
    flags, extrapolation) or the error of every query is the scalar loop's."""
    failed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # d > 1 warns of inflections
        for q in queries:
            got, expected = layered(ts, q, mesh, method, **kwargs), scalar_loop(
                ts, q, mesh, method, **kwargs)
            assert got == expected
            if isinstance(expected[0], Estimate):  # bit for bit, signed zeros too
                assert [c.y_hat.hex() for c in got] == [c.y_hat.hex() for c in expected]
            else:
                failed += 1
    return failed


LAYERINGS = ("one", "three", "three, the middle one huge")


def layered_set(x, y, layering):
    """A training set over ``x`` with one layer ``y``, or three; a huge middle
    layer (values of +-1e308) gives estimates that are not finite."""
    if layering == "one":
        return validate_training_set((x, y), n=x.shape[1])
    middle = (1e308 * np.sign(np.sin(5.0 * x.sum(axis=1))) if layering.endswith("huge")
              else np.cos(x).sum(axis=1))
    return validate_training_set((x, np.stack([y, middle, x[:, 0] ** 2], axis=1)),
                                 n=x.shape[1], layer_count=3)


def holed_mesh(layering):
    """``layered_mesh``'s 7 x 7 grid without the nodes (3, 3) and (1, 5)."""
    ts, mesh = layered_mesh([lambda x: np.sin(x[:, 0]) + x[:, 1] ** 2])
    grid = np.stack(np.unravel_index(np.arange(ts.npoints), mesh.shape), axis=1)
    kept = ~np.isin(np.ravel_multi_index(grid.T, mesh.shape), [3 * 7 + 3, 1 * 7 + 5])
    index_map = {tuple(g): i for i, g in enumerate(grid[kept].tolist())}
    holed = layered_set(ts.x[kept], ts.y[kept, 0], layering)
    return holed, MeshIndex(axes=mesh.axes, index_map=index_map)


class TestLayersOracle:
    """``evaluate_layers`` answers a query as a batch of one; each component,
    or the error of a query that fails, is the per-layer scalar call's."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        grid=st.sampled_from(["full", "sparse", "jittered"]),
        layering=st.sampled_from(LAYERINGS),
    )
    def test_mesh_queries(self, seed, n, grid, layering):
        x, y, mesh, rng = random_grid(seed, n, 0.3 if grid == "jittered" else 0.0,
                                      grid == "sparse")
        assume(len(x) >= n + 1)
        ts = layered_set(x, y, layering)
        node = [nodes[rng.integers(len(nodes))] for nodes in mesh.axes]
        # a node, a training point, and coordinates inside a cell, on a node
        # (a cell face) or outside the box
        queries = np.vstack([node, x[0], grid_queries(mesh, rng, 6)])
        for d in (0.5, 1.0, 2.5):
            assert_layers_match_the_scalar_loop(ts, queries, mesh, "smooth", d=d)
        for c in (1, 4, 16):
            assert_layers_match_the_scalar_loop(ts, queries, mesh, "gradient", combinations=c)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        count=st.integers(4, 60),
        layering=st.sampled_from(LAYERINGS),
    )
    def test_scattered_queries(self, seed, n, count, layering):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (count, n))
        ts = layered_set(x, np.sin(3.0 * x).sum(axis=1), layering)
        queries = np.vstack([x[:2], rng.uniform(0.1, 0.9, (2, n)), rng.uniform(-0.5, 1.5, (2, n))])
        for c in (1, 4, 16):
            assert_layers_match_the_scalar_loop(ts, queries, None, "gradient", combinations=c)
        assert_layers_match_the_scalar_loop(ts, queries[:1], None, "smooth")  # needs a mesh

    @pytest.mark.parametrize("cell", [None, 1, 2, 9])
    @pytest.mark.parametrize("layering", LAYERINGS)
    def test_holed_mesh(self, cell, layering):
        """A 7 x 7 grid without two nodes, or a local cell at n axes without
        its reference, where every query fails."""
        if cell is None:
            ts, mesh = holed_mesh(layering)
            queries = np.vstack([[1.6, 1.6], [0.6, 2.6], [2.2, 0.4], ts.x[:3],
                                 grid_queries(mesh, np.random.default_rng(0), 20)])
        else:
            ts, mesh, query = holed_local_cell(cell)
            ts = layered_set(ts.x, ts.y[:, 0], layering)
            queries = np.vstack([query, ts.x[:3]])
        for method, kwargs in (("smooth", {}), ("smooth", {"d": 0.5}), ("gradient", {}),
                               ("gradient", {"combinations": 4})):
            failed = assert_layers_match_the_scalar_loop(ts, queries, mesh, method, **kwargs)
            assert 0 < failed <= len(queries) - (cell is None and layering != LAYERINGS[2])

    @pytest.mark.parametrize("method,kwargs", [
        ("smooth", {}), ("smooth", {"tol": 0.0}), ("smooth", {"max_iter": 0}),
        ("gradient", {}), ("gradient", {"combinations": 0}),
    ])
    @pytest.mark.parametrize("mode", ["mesh", "scattered"])
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_argument_and_shape_errors(self, method, kwargs, mode, length):
        # each method checks its arguments and the query's shape in its own order
        ts, mesh = layered_mesh([lambda x: x[:, 0] * x[:, 1], lambda x: x[:, 0] - x[:, 1]])
        mesh = mesh if mode == "mesh" else None
        assert_layers_match_the_scalar_loop(ts, [np.full(length, 1.5)], mesh, method, **kwargs)


@pytest.mark.parametrize("method", ["smooth", "gradient"])
@pytest.mark.parametrize("holed", [False, True])
def test_eval_at_prints_what_the_scalar_loop_gives(tmp_path, capsys, method, holed):
    """``gradsurf eval --at``'s output and exit code on a 3-layer mesh and a
    holed mesh, byte for byte, against the scalar loop's."""
    if holed:
        ts, mesh = holed_mesh("three")
        points = [[1.6, 1.6], [0.7, 1.9], [2.2, 0.4], [3.5, 3.5]]
    else:
        fns = [lambda x: x[:, 0] + x[:, 1], lambda x: np.cos(x[:, 0]), lambda x: x[:, 1] ** 1.5]
        ts, mesh = layered_mesh(fns)
        points = [[0.7, 1.9], [3.0, 0.0], [1.5, 1.5], [-0.5, 4.0]]
    data = tmp_path / "data.csv"
    save_dataset(data, ts, mesh)
    outcomes = set()
    for point in np.asarray(points, dtype=float):
        at = ",".join(repr(float(v)) for v in point)
        code = main(["eval", "--data", str(data), f"--at={at}", "--method", method])
        out, err = capsys.readouterr()
        expected = scalar_loop(ts, point, mesh, method)
        if isinstance(expected[0], Estimate):
            assert (code, out, err) == (EXIT_OK, " ".join(repr(e.y_hat) for e in expected) + "\n", "")
        else:
            exit_code = EXIT_VALIDATION if issubclass(expected[0], ValidationError) else EXIT_RUNTIME
            assert (code, out, err) == (exit_code, "", f"error: {expected[1]}\n")
        outcomes.add(code)
    assert outcomes == ({EXIT_OK, EXIT_RUNTIME} if holed else {EXIT_OK})


ENTRY_POINTS = {
    "evaluate_gradient": lambda ts, q, mesh, method: evaluate_gradient(ts, q, mesh=mesh),
    "evaluate_smooth": lambda ts, q, mesh, method: evaluate_smooth(ts, q, mesh),
    "evaluate_layers": lambda ts, q, mesh, method: evaluate_layers(ts, q, mesh=mesh,
                                                                   method=method),
    "evaluate_batch": lambda ts, q, mesh, method: evaluate_batch(ts, [q, q], mesh=mesh,
                                                                 method=method),
}


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize("entry,method,mode", [
    (entry, method, mode)
    for entry, method in (("evaluate_gradient", "gradient"), ("evaluate_smooth", "smooth"),
                          ("evaluate_layers", "gradient"), ("evaluate_layers", "smooth"),
                          ("evaluate_batch", "gradient"), ("evaluate_batch", "smooth"))
    for mode in ("mesh", "scattered")
    if mode == "mesh" or method == "gradient"  # the smooth method needs a mesh
])
def test_query_of_wrong_length_raises_dimension_mismatch(entry, method, mode, length):
    ts, mesh = layered_mesh([lambda x: x[:, 0] * x[:, 1]])
    with pytest.raises(DimensionMismatch):
        ENTRY_POINTS[entry](ts, np.full(length, 1.5), mesh if mode == "mesh" else None, method)


@pytest.mark.parametrize("method,keyword", [("gradient", "layer"), ("gradient", "d"),
                                            ("smooth", "combinations"), ("smooth", "layer")])
def test_evaluate_layers_rejects_a_keyword_its_method_does_not_take(method, keyword):
    ts, mesh = layered_mesh([lambda x: x[:, 0] * x[:, 1]])
    with pytest.raises(ValidationError, match=f"'{keyword}'"):
        evaluate_layers(ts, np.array([1.2, 1.7]), mesh=mesh, method=method, **{keyword: 1})


def test_keywords_are_checked_against_a_swapped_batch_function(monkeypatch):
    from gradsurf import layers

    layers._method_batch(None, "gradient", {"combinations": 2})  # the original, cached

    def traced(training, queries, mesh=None, scale=1.0):
        raise AssertionError("not called")

    monkeypatch.setattr(layers, "evaluate_gradient_batch", traced)
    assert layers._method_batch(None, "gradient", {"scale": 2.0}).func is traced
    with pytest.raises(ValidationError, match="'combinations'"):
        layers._method_batch(None, "gradient", {"combinations": 2})


@pytest.mark.parametrize("mode", ["mesh", "scattered"])
@pytest.mark.parametrize("count", [0, -2])
def test_combination_count_below_one_is_a_validation_error(mode, count):
    ts, mesh = layered_mesh([lambda x: x[:, 0] * x[:, 1], lambda x: x[:, 0] - x[:, 1]])
    mesh = mesh if mode == "mesh" else None
    queries = np.array([[1.2, 1.7], [0.4, 2.9]])
    with pytest.raises(ValidationError, match="combination count must be >= 1"):
        evaluate_gradient_batch(ts, queries, mesh, combinations=count)
    with pytest.raises(ValidationError, match="combination count must be >= 1"):
        evaluate_layers(ts, queries[0], mesh=mesh, method="gradient", combinations=count)


def _sum_or_die(chunk):
    """The chunk's sum, or the death of the worker that holds the chunk starting at 0."""
    if chunk[0] == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return float(np.sum(chunk))


class TestWarmPools:
    """``layers._fan_out`` keeps one pool per worker count for the process."""

    ITEMS = np.arange(1.0, 9.0)
    SUMS = [10.0, 26.0]

    def test_repeated_fan_outs_on_one_pool_equal_the_in_process_result(self):
        from gradsurf import TEST_FUNCTIONS, evaluate_smooth_batch, gen_mesh_dataset, gen_queries

        pool = None
        for seed, (name, nodes) in enumerate([("S1", 6), ("S2", 7), ("T1", 9)]):
            f = TEST_FUNCTIONS[name]
            ts, mesh = gen_mesh_dataset(f, nodes, seed=seed)
            queries, _, _ = gen_queries(mesh, f, ts, budget=30, seed=seed + 1)
            for batch in (evaluate_gradient_batch, evaluate_smooth_batch):
                work = partial(batch, ts, mesh=mesh)
                fanned = layers._fan_out(work, queries, 2)
                assert len(fanned) == 2
                pool = pool or layers._pools[2]
                assert layers._pools[2] is pool
                whole = work(queries)
                got = np.concatenate([part.y_hat for part in fanned])
                assert got.tobytes() == whole.y_hat.tobytes()
                assert np.concatenate([part.flags for part in fanned]).tolist() == \
                    whole.flags.tolist()

    def test_killed_worker_fails_only_its_call(self):
        assert layers._fan_out(_sum_or_die, self.ITEMS, 2) == self.SUMS
        first = layers._pools[2]
        with pytest.raises(BrokenProcessPool):
            layers._fan_out(_sum_or_die, self.ITEMS - 1.0, 2)
        assert 2 not in layers._pools
        assert layers._fan_out(_sum_or_die, self.ITEMS, 2) == self.SUMS
        assert layers._pools[2] is not first

    def test_forked_child_builds_its_own_pool(self):
        assert layers._fan_out(_sum_or_die, self.ITEMS, 2) == self.SUMS
        parent_pool = layers._pools[2]
        parent_workers = set(parent_pool._processes)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child reports through the pipe and never returns
            try:
                inherited = dict(layers._pools)
                sums = layers._fan_out(_sum_or_die, self.ITEMS, 2)
                own = set(layers._pools[2]._processes)
                ok = (not inherited and sums == self.SUMS and own
                      and not own & parent_workers
                      and all(os.waitpid(p, os.WNOHANG) == (0, 0) for p in own))
                layers._shutdown_pools()
                os.write(write, b"ok" if ok else b"bad")
            finally:
                os._exit(0)
        os.close(write)
        deadline = time.monotonic() + 60.0
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish within 60 s")
            time.sleep(0.01)
        with os.fdopen(read, "rb") as fh:
            assert fh.read() == b"ok"
        assert layers._fan_out(_sum_or_die, self.ITEMS, 2) == self.SUMS
        assert layers._pools[2] is parent_pool

    def test_shutdown_leaves_no_worker(self):
        assert layers._fan_out(_sum_or_die, self.ITEMS, 2) == self.SUMS
        assert len(layers._fan_out(_sum_or_die, self.ITEMS, 3)) == 3
        assert len(multiprocessing.active_children()) == 5
        layers._shutdown_pools()
        assert layers._pools == {}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_fanned_out_call_gives_the_d_above_one_warning_once(self, workers):
        """The workers' warnings are given by this process, once each per call."""
        from gradsurf import TEST_FUNCTIONS, gen_mesh_dataset, gen_queries

        f = TEST_FUNCTIONS["S1"]
        ts, mesh = gen_mesh_dataset(f, 6)
        queries, _, _ = gen_queries(mesh, f, ts, budget=30, seed=1)
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                evaluate_batch(ts, queries, mesh=mesh, method="smooth", workers=workers, d=2.0)
            assert [(w.category, str(w.message)) for w in caught] == [
                (UserWarning, "shape exponent d > 1 admits inflection points inside the "
                              "approximation interval")]
            assert workers == 1 or layers._pools[workers]
