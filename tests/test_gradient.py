import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradsurf import (
    DegenerateNeighborhood,
    GradsurfError,
    MeshIndex,
    Simplex,
    ValidationError,
    enumerate_combinations,
    estimate_gradients,
    evaluate_batch,
    evaluate_gradient,
    evaluate_gradient_batch,
    extrapolate,
    gradient,
    validate_training_set,
)
from gradsurf.bench import TEST_FUNCTIONS, gen_local_cell_dataset
from gradsurf.neighbors import CombinationPlan
from tests_oracles import (eliminations, grid_queries, holed_local_cell, oracle_evaluate_gradient,
                           outcome, random_grid, verdict)


class TestEstimateGradients:
    def test_affine_recovered_exactly(self):
        # y = 2 x1 + 3 x2 + 1
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, 3.0, 4.0])
        ts = validate_training_set((x, y), n=2)
        p = estimate_gradients(ts, Simplex(reference=0, auxiliaries=(1, 2)))
        assert np.allclose(p, [2.0, 3.0], atol=1e-12)

    def test_axis_aligned_reduces_to_difference_quotients(self):
        x = np.array([[1.0, 2.0], [1.5, 2.0], [1.0, 2.25]])
        y = np.array([5.0, 6.0, 4.0])
        ts = validate_training_set((x, y), n=2)
        p = estimate_gradients(ts, Simplex(reference=0, auxiliaries=(1, 2)))
        assert np.isclose(p[0], (6.0 - 5.0) / 0.5)
        assert np.isclose(p[1], (4.0 - 5.0) / 0.25)

    def test_fine_mesh_matches_analytic_derivative(self):
        # d/dx1 of the benchmark surface at (1,1,1) is 3 x1^2 = 3
        f = TEST_FUNCTIONS["T1"]
        h = 0.01
        base = np.array([1.0, 1.0, 1.0])
        x = np.array([base, base + [h, 0, 0], base + [0, h, 0], base + [0, 0, h]])
        ts = validate_training_set((x, f(x)), n=3)
        p = estimate_gradients(ts, Simplex(reference=0, auxiliaries=(1, 2, 3)))
        assert abs(p[0] - 3.0) <= 10 * h


class TestExtrapolate:
    def test_zero_gradient_returns_reference_value(self):
        assert extrapolate(np.zeros(2), 1.0, np.zeros(2), np.array([0.7, -0.2])) == 1.0

    def test_query_at_reference(self):
        assert extrapolate(np.zeros(2), 1.0, np.array([2.0, 3.0]), np.zeros(2)) == 1.0

    def test_hand_value(self):
        assert extrapolate(np.zeros(2), 1.0, np.array([2.0, 3.0]), np.array([0.5, 0.5])) == 3.5


class TestEvaluateGradient:
    def test_single_combination_equals_composition(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (12, 3))
        y = rng.uniform(0, 1, 12)
        ts = validate_training_set((x, y), n=3)
        q = np.array([0.5, 0.5, 0.5])
        est = evaluate_gradient(ts, q, combinations=1)
        from gradsurf import locate_reference, select_simplex

        ref = locate_reference(ts, q)
        simplex = select_simplex(ts, q)
        assert simplex.reference == ref
        p = estimate_gradients(ts, simplex)
        direct = extrapolate(ts.x[ref], float(ts.y[ref, 0]), p, q)
        assert est.y_hat == pytest.approx(direct, abs=1e-14)
        assert est.combinations_used == 1

    @pytest.mark.parametrize("c", [1, 4, 8])
    def test_affine_exact_for_any_combination_count(self, c):
        rng = np.random.default_rng(c)
        coeffs = np.array([1.5, -2.0, 0.5])
        x = rng.uniform(0, 1, (40, 3))
        y = x @ coeffs + 4.0
        ts = validate_training_set((x, y), n=3)
        q = rng.uniform(0.2, 0.8, 3)
        est = evaluate_gradient(ts, q, combinations=c)
        assert abs(est.y_hat - (q @ coeffs + 4.0)) <= 1e-10
        assert est.combinations_used == c

    def test_mesh_mode(self):
        nodes = np.linspace(0.0, 1.0, 4)
        grids = np.meshgrid(nodes, nodes, indexing="ij")
        x = np.stack([g.ravel() for g in grids], axis=1)
        y = 2 * x[:, 0] + x[:, 1]
        ts = validate_training_set((x, y), n=2)
        mesh = MeshIndex(axes=(nodes, nodes))
        est = evaluate_gradient(ts, np.array([0.5, 0.2]), mesh=mesh)
        assert est.y_hat == pytest.approx(1.2, abs=1e-12)
        assert not est.extrapolated

    def test_near_duplicate_neighbour_is_skipped(self):
        # (1e-13, 1e-13) is the reference and (0, 0) its nearest neighbour; a
        # difference row that short must not enter the simplex
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1e-13, 1e-13], [1.0, 1.0]])
        ts = validate_training_set((x, x.sum(axis=1)), n=2)
        est = evaluate_gradient(ts, np.array([0.5, 0.5]))
        assert est.y_hat == pytest.approx(1.0, abs=1e-12)

    def test_extrapolation_flagged(self):
        x = np.vstack([np.zeros(2), np.eye(2)])
        ts = validate_training_set((x, np.zeros(3)), n=2)
        est = evaluate_gradient(ts, np.array([2.0, 2.0]))
        assert est.extrapolated

    @pytest.mark.parametrize("c", [2.5, 1.0, float("nan"), "2"])
    def test_non_integer_combination_count_is_rejected(self, c):
        rng = np.random.default_rng(0)
        ts = validate_training_set((rng.uniform(0, 1, (20, 2)), rng.uniform(0, 1, 20)), n=2)
        with pytest.raises(ValidationError, match="combination count must be an integer"):
            evaluate_gradient(ts, np.array([0.5, 0.5]), combinations=c)
        q = np.array([0.5, 0.5])
        assert evaluate_gradient(ts, q, combinations=np.int64(3)) == evaluate_gradient(
            ts, q, combinations=3)

    @pytest.mark.parametrize("layer", [2, 5, -1, 0.5, np.float64(1.0)])
    def test_layer_out_of_range_is_rejected(self, layer):
        x = np.vstack([np.zeros(2), np.eye(2)])
        ts = validate_training_set((x, np.stack([x.sum(axis=1)] * 2, axis=1)), n=2,
                                   layer_count=2)
        with pytest.raises(ValidationError, match="layer must lie in"):
            evaluate_gradient(ts, np.array([0.3, 0.3]), layer=layer)

    def test_layer_selection(self):
        x = np.vstack([np.zeros(2), np.eye(2)])
        y = np.stack([x.sum(axis=1), 5 * x.sum(axis=1)], axis=1)
        ts = validate_training_set((x, y), n=2, layer_count=2)
        q = np.array([0.3, 0.3])
        e0 = evaluate_gradient(ts, q, layer=0)
        e1 = evaluate_gradient(ts, q, layer=1)
        assert e1.y_hat == pytest.approx(5 * e0.y_hat)

    @given(
        n=st.integers(2, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_hyperplane_exactness_property(self, n, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=n)
        intercept = rng.normal()
        x = rng.uniform(0, 1, (4 * n, n))
        y = x @ coeffs + intercept
        ts = validate_training_set((x, y), n=n)
        q = rng.uniform(0, 1, n)
        truth = q @ coeffs + intercept
        est = evaluate_gradient(ts, q)
        assert abs(est.y_hat - truth) <= 1e-9 * (1.0 + abs(truth))


def planned_once(training, queries, mesh, combinations=1):
    """The batch's result, checked to come without a call of a single-query
    gradient function (``evaluate_gradient``, ``estimate_gradients``, the
    scalar solver) and with at most one ``enumerate_combinations`` call per
    query."""
    queries = np.asarray(queries, dtype=float)
    with mock.patch.object(gradient, "evaluate_gradient", wraps=evaluate_gradient) as single, \
            mock.patch.object(gradient, "estimate_gradients", wraps=estimate_gradients) as solve, \
            mock.patch.object(gradient, "solve_linear_system") as scalar, \
            mock.patch.object(gradient, "enumerate_combinations",
                              wraps=enumerate_combinations) as plan:
        batch = evaluate_gradient_batch(training, queries, mesh, combinations=combinations)
    assert single.call_count == solve.call_count == scalar.call_count == 0
    rows = Counter(q.tobytes() for q in queries)
    assert Counter(call.args[1].tobytes() for call in plan.call_args_list) <= rows
    return batch


def assert_errors_are_the_scalar_ones(batch, raised: dict):
    """Exactly the rows of ``raised`` are in the batch's errors, in row
    order, each with the type and message that the single-query path raised."""
    assert list(batch.errors) == sorted(raised)
    assert {i: (type(e), str(e)) for i, e in batch.errors.items()} == raised


def assert_same(batch, i, layer, expected):
    assert float(batch.y_hat[i, layer]).hex() == expected.y_hat.hex()  # bit for bit
    assert batch.reference_index[i] == expected.reference_index
    assert batch.extrapolated[i] == expected.extrapolated


def signed_zero_layers(rng, y):
    """Three outcome layers with zeros of either sign: y with some entries
    zeroed, zeros only, and y with some entries minus zeros and row 0 (the
    reference of a local cell) a plus zero."""
    signs = rng.choice((-0.0, 0.0), len(y))
    layers = np.stack([np.where(rng.random(len(y)) < 0.3, signs, y), signs,
                       np.where(rng.random(len(y)) < 0.3, -0.0, y)], axis=1)
    layers[0, 2] = 0.0
    return layers


def assert_batch_matches_scalar(ts, queries, mesh, c):
    """Every query and layer of the batch is ``evaluate_gradient``'s, bit for
    bit, or that function's error type."""
    batch = evaluate_gradient_batch(ts, queries, mesh, combinations=c)
    for i, q in enumerate(queries):
        for layer in range(ts.layer_count):
            expected = outcome(evaluate_gradient, ts, q, mesh, combinations=c, layer=layer)
            if isinstance(expected, type):
                assert type(batch.errors[i]) is expected
                assert batch.reference_index[i] == -1
                break
            assert i not in batch.errors
            assert_same(batch, i, layer, expected)


class TestGradientBatch:
    """The mesh batch kernel returns what ``evaluate_gradient`` returns, bit for
    bit, and hands a query to it only where that raises, in input order."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        jitter=st.floats(0.0, 0.45),
        sparse=st.booleans(),
    )
    def test_random_grids_match_the_scalar_path(self, seed, n, jitter, sparse):
        x, y, mesh, rng = random_grid(seed, n, jitter, sparse)
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, np.stack([y, np.cos(x).sum(axis=1)], axis=1)),
                                   n=n, layer_count=2)
        queries = grid_queries(mesh, rng, 12)
        batch = planned_once(ts, queries, mesh)
        assert batch.newton_iterations.shape == batch.flags.shape == (12, 2, 0)
        raised = {}
        for i, q in enumerate(queries):
            for layer in range(2):
                expected = verdict(evaluate_gradient, ts, q, mesh, layer=layer)
                if isinstance(expected, tuple):
                    assert batch.reference_index[i] == -1
                    raised[i] = expected
                    break
                assert i not in batch.errors
                assert_same(batch, i, layer, expected)
        assert_errors_are_the_scalar_ones(batch, raised)
        scalar = [outcome(evaluate_gradient, ts, q, mesh) for q in queries]
        errors = [e for e in scalar if isinstance(e, type)]
        assert outcome(evaluate_batch, ts, queries, mesh=mesh, method="gradient") == (
            errors[0] if errors else [e.y_hat for e in scalar]
        )

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("n", [1, 2, 9, 99])
    def test_high_dimensional_local_cell(self, n, seed):
        rng = np.random.default_rng(seed)
        ts, mesh, query, _, _ = gen_local_cell_dataset(TEST_FUNCTIONS["H1"], n, 20, rng)
        batch = planned_once(ts, query[None, :], mesh)
        assert not batch.errors
        expected = evaluate_gradient(ts, query, mesh=mesh)
        assert_same(batch, 0, 0, expected)
        assert batch.combinations_used[0] == expected.combinations_used

    @pytest.mark.parametrize("n", [1, 9, 99])
    def test_local_cell_without_its_reference(self, n):
        ts, mesh, query = holed_local_cell(n)
        with pytest.raises(DegenerateNeighborhood) as scalar:
            evaluate_gradient(ts, query, mesh=mesh)
        batch = evaluate_gradient_batch(ts, query[None, :], mesh)
        assert type(batch.errors[0]) is DegenerateNeighborhood
        assert str(batch.errors[0]) == str(scalar.value)
        assert batch.reference_index[0] == -1 and np.isnan(batch.y_hat[0, 0])

    def test_singular_system_and_nan_query_are_named_by_the_batch(self):
        # node (0, 1) lies on the x1 axis, so the first cell's system is
        # singular; a NaN query gives an estimate that is not finite
        x = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0]])
        ts = validate_training_set((x, x.sum(axis=1)), n=2)
        mesh = MeshIndex(axes=(np.array([0.0, 1.0]), np.array([0.0, 1.0])))
        queries = [[0.5, 0.5], [np.nan, 0.5], [1.0, 1.0]]
        batch = planned_once(ts, queries, mesh)
        assert_errors_are_the_scalar_ones(
            batch, {i: verdict(evaluate_gradient, ts, queries[i], mesh) for i in (0, 1)})
        assert batch.errors[0].args == ("all point combinations were degenerate",)
        assert batch.errors[1].args == ("estimate is not finite",)
        assert_same(batch, 2, 0, evaluate_gradient(ts, queries[2], mesh=mesh))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        c=st.sampled_from([1, 4, 16]),
        count=st.integers(2, 30),
    )
    def test_scattered_sets_match_the_scalar_path(self, seed, n, c, count):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (count, n))
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, np.stack([np.sin(3 * x).sum(axis=1),
                                                 x.prod(axis=1)], axis=1)),
                                   n=n, layer_count=2)
        queries = rng.uniform(-0.2, 1.2, (8, n))
        assert_batch_matches_scalar(ts, queries, None, c)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        jitter=st.floats(0.0, 0.45),
        sparse=st.booleans(),
    )
    def test_mesh_averaging_matches_the_scalar_path(self, seed, n, jitter, sparse):
        x, y, mesh, rng = random_grid(seed, n, jitter, sparse)
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, np.stack([y, np.cos(x).sum(axis=1)], axis=1)),
                                   n=n, layer_count=2)
        assert_batch_matches_scalar(ts, grid_queries(mesh, rng, 8), mesh, 4)

    @pytest.mark.parametrize("n", [9, 99])
    def test_signed_zero_layers_on_a_local_cell(self, n):
        rng = np.random.default_rng(n)
        ts, mesh, query, _, _ = gen_local_cell_dataset(TEST_FUNCTIONS["H1"], n, 20, rng)
        h = mesh.axes[0][1] - mesh.axes[0][0]
        queries = query + rng.uniform(-0.1, 0.1, (4, n)) * h  # all in the query's cell
        y = signed_zero_layers(rng, ts.y[:, 0])
        # a minus-zero reference gives no minus zero in b, so the lanes take
        # the quotient; a plus-zero one gives some, so they are eliminated
        for reference in (-0.0, 0.0):
            y[0] = reference
            ts = validate_training_set((ts.x, y), n=n, layer_count=3)
            assert_batch_matches_scalar(ts, queries, mesh, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_signed_zero_layers_on_a_sparse_grid(self, seed):
        x, y, mesh, rng = random_grid(seed, 1 + seed % 3, 0.0, True)
        ts = validate_training_set((x, signed_zero_layers(rng, y)), n=mesh.n, layer_count=3)
        assert_batch_matches_scalar(ts, grid_queries(mesh, rng, 12), mesh, 1)

    def test_unjittered_cell_skips_the_elimination(self):
        ts, mesh, query, _, _ = gen_local_cell_dataset(
            TEST_FUNCTIONS["H1"], 99, 20, np.random.default_rng(5))
        with eliminations() as sent:
            batch = evaluate_gradient_batch(ts, np.stack([query, query]), mesh)
        assert sent == [] and not batch.errors

    @pytest.mark.parametrize("c", [1, 2, 4, 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_singular_lanes_are_skipped(self, seed, c):
        # axis 1 spans 1e-6; four points near each query lie on a line along
        # axis 0 that strays at most 1e-16 off it along axis 1, so their
        # simplexes pass the rank test in range-normalised coordinates while
        # their pivots fall below the solver's threshold: singular lanes
        rng = np.random.default_rng(seed)
        queries = np.stack([rng.uniform(0.3, 0.7, 6), rng.uniform(0.3e-6, 0.7e-6, 6)], axis=1)
        line = np.concatenate([q + np.stack([rng.uniform(-0.02, 0.02, 4),
                                             rng.uniform(-1e-16, 1e-16, 4)], axis=1)
                               for q in queries])
        far = np.stack([rng.uniform(0.0, 1.0, 40), rng.uniform(0.0, 1e-6, 40)], axis=1)
        x = np.vstack([line, far])
        ts = validate_training_set((x, np.stack([np.sin(3.0 * x[:, 0]), 1e6 * x[:, 1]], axis=1)),
                                   n=2, layer_count=2)
        used = [outcome(evaluate_gradient, ts, q, combinations=c) for q in queries]
        if c == 1:  # a query whose one lane is singular is handed over
            assert DegenerateNeighborhood in used
        else:  # a query averages the lanes that are not singular; at C=16
            # eight or more of them, where numpy sums pairwise
            assert any(8 * (c == 16) <= u.combinations_used < c for u in used)
        assert_batch_matches_scalar(ts, queries, None, c)

    @pytest.mark.parametrize("mesh_data,c", [(False, 1), (False, 4), (True, 4)])
    def test_planned_queries_skip_the_scalar_path(self, mesh_data, c):
        if mesh_data:
            x, y, mesh, rng = random_grid(3, 3, 0.2, False)
            queries = rng.uniform(mesh.axes[0][1], mesh.axes[0][-2], (10, 3))
        else:
            rng = np.random.default_rng(3)
            x, mesh = rng.uniform(0.0, 1.0, (300, 3)), None
            y, queries = np.sin(3.0 * x).sum(axis=1), rng.uniform(0.1, 0.9, (10, 3))
        ts = validate_training_set((x, np.stack([y, np.cos(x).sum(axis=1)], axis=1)),
                                   n=3, layer_count=2)
        with mock.patch.object(gradient, "evaluate_gradient", wraps=evaluate_gradient) as scalar, \
                mock.patch.object(gradient, "solve_linear_system") as solve:
            batch = evaluate_gradient_batch(ts, queries, mesh, combinations=c)
        assert scalar.call_count == solve.call_count == 0 and not batch.errors
        assert_batch_matches_scalar(ts, queries, mesh, c)

    def test_query_shape(self):
        nodes = np.linspace(0.0, 1.0, 3)
        x = np.stack([g.ravel() for g in np.meshgrid(nodes, nodes, indexing="ij")], axis=1)
        ts = validate_training_set((x, x.sum(axis=1)), n=2)
        mesh = MeshIndex(axes=(nodes, nodes))
        assert evaluate_gradient_batch(ts, [], mesh).y_hat.shape == (0, 1)


class TestOutcomesPastTheFloatRange:
    """Outcome differences past the float range end as the same typed errors
    on every gradient path, and no path prints a numpy warning for them."""

    @pytest.mark.parametrize("combinations", [1, 2, 4])
    @pytest.mark.parametrize("on_mesh", [True, False])
    def test_every_path_refuses_them_without_a_warning(self, combinations, on_mesh):
        # the batch kernel's subtraction, the scalar path's and the scalar
        # solver's elimination used to print overflow warnings
        nodes = np.arange(6.0)
        x = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
        y = x.sum(axis=1)
        y[[14, 15]] = 1e308, -1e308  # the nodes (2, 2) and (2, 3)
        ts = validate_training_set((x, y), n=2)
        mesh = MeshIndex(axes=(nodes, nodes)) if on_mesh else None
        queries = np.vstack([[[2.5, 2.5], [2.2, 2.7], [1.6, 2.5]],
                             np.random.default_rng(5).uniform(0.0, 5.0, (17, 2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = evaluate_gradient_batch(ts, queries, mesh, combinations)
            scalar = [outcome(evaluate_gradient, ts, q, mesh, combinations) for q in queries]
        assert batch.errors
        for i, expected in enumerate(scalar):
            if isinstance(expected, type):
                assert type(batch.errors[i]) is expected
            else:
                assert i not in batch.errors and batch.y_hat[i, 0] == expected.y_hat


class TestQueriesPastTheFloatRange:
    """A scattered query whose range-normalised distances overflow gets the
    error it got before the overflow was silenced, on the single-query path
    and in batches of one and of many (the lockstep), without a warning."""

    @pytest.mark.parametrize("combinations", [1, 4])
    @pytest.mark.parametrize("query", [[1e308, -1e308, 0.3], [0.5, 0.5, 1e200],
                                       [-1e308, 1e308, -1e308]])
    def test_overflowing_distances_give_the_same_error_without_a_warning(self, query,
                                                                          combinations):
        # every term overflows to inf, so the distance order is the index
        # order, whose first points lie on one line of the 6^3 grid
        nodes = np.linspace(0.0, 1.0, 6)
        x = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 3)
        ts = validate_training_set((x, np.sin(x).sum(axis=1)), n=3)
        message = "no nonsingular simplex among the 9 nearest candidates"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateNeighborhood, match=message):
                evaluate_gradient(ts, query, combinations=combinations)
            for count in (1, 2 * gradient.LOCKSTEP_MIN_QUERIES):
                batch = evaluate_gradient_batch(ts, np.array([query] * count),
                                                combinations=combinations)
                assert sorted(batch.errors) == list(range(count))
                assert all(type(e) is DegenerateNeighborhood and str(e) == message
                           for e in batch.errors.values())


class TestCombinationsUsed:
    """``EstimateBatch.combinations_used`` is each query's
    ``evaluate_gradient(...).combinations_used``, or 0 where that raises."""

    def check(self, ts, queries, mesh, c):
        batch = evaluate_gradient_batch(ts, queries, mesh, combinations=c)
        scalar = [outcome(evaluate_gradient, ts, q, mesh, combinations=c) for q in queries]
        assert batch.combinations_used.dtype.kind == "i"
        assert batch.combinations_used.tolist() == [
            0 if isinstance(e, type) else e.combinations_used for e in scalar]
        return batch.combinations_used

    @pytest.mark.parametrize("c", [1, 4, 16])
    @pytest.mark.parametrize("seed", range(3))
    def test_singular_lanes_count_as_unused(self, seed, c):
        # the point set of TestGradientBatch.test_singular_lanes_are_skipped:
        # four points near each query lie on a line whose simplexes are singular
        rng = np.random.default_rng(seed)
        queries = np.stack([rng.uniform(0.3, 0.7, 6), rng.uniform(0.3e-6, 0.7e-6, 6)], axis=1)
        line = np.concatenate([q + np.stack([rng.uniform(-0.02, 0.02, 4),
                                             rng.uniform(-1e-16, 1e-16, 4)], axis=1)
                               for q in queries])
        far = np.stack([rng.uniform(0.0, 1.0, 40), rng.uniform(0.0, 1e-6, 40)], axis=1)
        x = np.vstack([line, far])
        ts = validate_training_set((x, np.stack([np.sin(3.0 * x[:, 0]), 1e6 * x[:, 1]], axis=1)),
                                   n=2, layer_count=2)
        used = self.check(ts, queries, None, c)
        if c == 1:  # the singular lane's query fails
            assert 0 in used
        else:
            assert ((0 < used) & (used < c)).any()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), c=st.sampled_from([1, 4, 16]),
           count=st.integers(2, 60))
    def test_scattered_sets(self, seed, n, c, count):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (count, n))
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, np.sin(3 * x).sum(axis=1)), n=n)
        queries = rng.uniform(-0.2, 1.2, (8, n))
        queries[0, 0] = np.nan
        self.check(ts, queries, None, c)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), c=st.sampled_from([1, 4]),
           jitter=st.floats(0.0, 0.45), sparse=st.booleans())
    def test_meshes(self, seed, n, c, jitter, sparse):
        x, y, mesh, rng = random_grid(seed, n, jitter, sparse)
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, y), n=n)
        used = self.check(ts, grid_queries(mesh, rng, 8), mesh, c)
        if c == 1:
            assert set(used.tolist()) <= {0, 1}


def scalar_errors(training, queries, mesh, c):
    """The type and message of ``evaluate_gradient``'s error for each query
    that fails on its single layer, by row."""
    found = {i: verdict(evaluate_gradient, training, q, mesh, c) for i, q in enumerate(queries)}
    return {i: v for i, v in found.items() if isinstance(v, tuple)}


class TestEachQueryIsPlannedOnce:
    """The batch plans each query once and names each failure where it meets
    it, with ``evaluate_gradient``'s error: no query is planned again or
    handed to a single-query gradient function."""

    @pytest.mark.parametrize("c", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_holed_jittered_mesh(self, seed, c):
        x, y, mesh, rng = random_grid(seed, 3, 0.3, True)
        ts = validate_training_set((x, y), n=3)
        queries = grid_queries(mesh, rng, 40)
        batch = planned_once(ts, queries, mesh, c)
        raised = scalar_errors(ts, queries, mesh, c)
        assert raised
        assert_errors_are_the_scalar_ones(batch, raised)

    @pytest.mark.parametrize("count", [4, 2 * gradient.LOCKSTEP_MIN_QUERIES])
    def test_scattered_queries_short_of_points(self, count):
        # 30 points on a plane of 3-D space, and a few off it: most bases
        # are degenerate, and no query finds 16 combinations
        rng = np.random.default_rng(count)
        x = np.vstack([np.c_[rng.uniform(0.0, 1.0, (27, 2)), np.zeros(27)],
                       rng.uniform(0.0, 1.0, (3, 3))])
        ts = validate_training_set((x, x.sum(axis=1)), n=3)
        queries = rng.uniform(0.0, 1.0, (count, 3))
        for c in (1, 16):
            batch = planned_once(ts, queries, None, c)
            raised = scalar_errors(ts, queries, None, c)
            assert raised
            assert_errors_are_the_scalar_ones(batch, raised)

    def test_a_combination_count_no_query_can_meet(self):
        # 40 points at n = 3 offer at most 1 + 9 + 4000 plans; the batch
        # used to allocate (M, C) and (M, C, n) plan arrays first, a
        # MemoryError at C = 10**8
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, (40, 3))
        ts = validate_training_set((x, x.sum(axis=1)), n=3)
        queries = rng.uniform(0.0, 1.0, (8, 3))
        c = 10**5
        tracemalloc.start()
        try:
            batch = evaluate_gradient_batch(ts, queries, combinations=c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        raised = scalar_errors(ts, queries, None, c)
        assert len(raised) == len(queries)
        assert_errors_are_the_scalar_ones(batch, raised)


class TestCombinationCount:
    """A combination count that is not an integer >= 1 fails before any work."""

    @pytest.mark.parametrize("mesh_data", [False, True])
    @pytest.mark.parametrize("c", [0, -1, 2.0, True, None])
    def test_batch_raises_before_planning(self, mesh_data, c):
        x, y, mesh, rng = random_grid(1, 2, 0.0, False)
        queries = grid_queries(mesh, rng, 6)
        ts = validate_training_set((x, y), n=2)
        with mock.patch.object(gradient, "enumerate_combinations") as plan, \
                mock.patch.object(gradient, "evaluate_gradient") as scalar:
            with pytest.raises(ValidationError, match="combination count"):
                evaluate_gradient_batch(ts, queries, mesh if mesh_data else None,
                                        combinations=c)
        assert plan.call_count == scalar.call_count == 0

    def test_single_query_refuses_a_bool(self):
        x, y, mesh, rng = random_grid(1, 2, 0.0, False)
        ts = validate_training_set((x, y), n=2)
        for m in (None, mesh):
            with pytest.raises(ValidationError, match="must be an integer, got True"):
                evaluate_gradient(ts, grid_queries(mesh, rng, 1)[0], m, combinations=True)


def judged(fn, *args, **kwargs):
    """What a call gave: the estimate's bits and provenance of each Estimate,
    or the error's type and message."""
    try:
        with np.errstate(all="ignore"):  # the +-1e308 layer overflows
            found = fn(*args, **kwargs)
    except GradsurfError as exc:
        return type(exc), str(exc)
    return [(e.y_hat.hex(), e.reference_index, e.combinations_used, e.extrapolated)
            for e in (found if isinstance(found, tuple) else (found,))]


def three_layers(rng, x):
    """Three outcome layers.  None, some or all points of layer 1 are at
    +-1e308, so that the differences with them overflow and the means that
    use them are not finite."""
    huge = rng.random(len(x)) < rng.choice([0.0, 0.1, 1.0])
    return np.stack([np.sin(3.0 * x).sum(axis=1),
                     np.where(huge, rng.choice((-1e308, 1e308), len(x)), x[:, 0]),
                     x.prod(axis=1)], axis=1)


def degenerate_simplex(rng, training):
    """A simplex whose system is all zeros: its reference n times over."""
    r = int(rng.integers(training.npoints))
    return Simplex(r, (r,) * training.n)


PLAN_KINDS = ("enumerated", "duplicates", "singular members", "only singular", "single")


def caller_plan(rng, kind, training, query, c, mesh):
    """None (``enumerate_combinations``' plan), or a plan made from that one:
    with repeated simplexes, with degenerate ones mixed in, of degenerate
    ones only, or of one simplex (degenerate or not)."""
    if kind == "enumerated":
        return None
    try:
        simplexes = list(enumerate_combinations(training, query, c, mesh).simplexes)
    except GradsurfError:
        simplexes = []
    if kind == "duplicates" and simplexes:
        simplexes += [simplexes[i] for i in rng.integers(len(simplexes), size=c)]
        simplexes = [simplexes[i] for i in rng.permutation(len(simplexes))]
    elif kind == "singular members":
        for _ in range(int(rng.integers(1, c + 1))):
            simplexes.insert(int(rng.integers(len(simplexes) + 1)), degenerate_simplex(rng, training))
    elif kind == "only singular":
        simplexes = [degenerate_simplex(rng, training) for _ in range(c)]
    elif kind == "single":
        simplexes = [(simplexes + [degenerate_simplex(rng, training)])[
            int(rng.integers(len(simplexes) + 1))]]
    return CombinationPlan(tuple(simplexes))


def judged_row(batch, i):
    """``judged`` of row i of a batch: its error's type and message, or each
    layer's estimate bits and provenance."""
    if i in batch.errors:
        return type(batch.errors[i]), str(batch.errors[i])
    return [(y.hex(), int(batch.reference_index[i]), int(batch.combinations_used[i]),
             bool(batch.extrapolated[i])) for y in batch.y_hat[i].tolist()]


def assert_judged_by_the_oracle(training, queries, mesh, c, kind, rng):
    """``evaluate_gradient`` on every query and layer gives the per-simplex
    loop's results or errors; with the enumerated plans, so does each row of
    one ``evaluate_gradient_batch`` call on the queries twice over (enough
    scattered queries for the lockstep): every layer, or the first failing
    layer's error."""
    rows = []
    for q in queries:
        plan = caller_plan(rng, kind, training, q, c, mesh)
        expected = []
        for layer in range(training.layer_count):
            want = judged(oracle_evaluate_gradient, training, q, mesh, c, layer, plan)
            assert judged(evaluate_gradient, training, q, mesh, c, layer, plan) == want
            expected.append(want)
        failed = [e for e in expected if isinstance(e, tuple)]
        rows.append(failed[0] if failed else [e[0] for e in expected])
    if kind == "enumerated":
        batch = planned_once(training, np.tile(queries, (2, 1)), mesh, c)
        assert [judged_row(batch, i) for i in range(2 * len(queries))] == rows * 2


class TestEvaluateGradientOracle:
    """``evaluate_gradient`` solves a plan of several simplexes as lanes; its
    estimate bits, reference, combination count, extrapolation flag, or error
    type and message are the per-simplex loop's (``oracle_evaluate_gradient``)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           c=st.sampled_from([1, 2, 3, 4, 16]), kind=st.sampled_from(PLAN_KINDS),
           count=st.integers(2, 60))
    def test_scattered_sets(self, seed, n, c, kind, count):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (count, n))
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, three_layers(rng, x)), n=n, layer_count=3)
        assert_judged_by_the_oracle(ts, rng.uniform(-0.2, 1.2, (4, n)), None, c, kind, rng)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           c=st.sampled_from([1, 2, 3, 4, 16]), kind=st.sampled_from(PLAN_KINDS),
           jitter=st.sampled_from([0.0, 0.2, 0.45]), sparse=st.booleans())
    def test_meshes(self, seed, n, c, kind, jitter, sparse):
        x, _, mesh, rng = random_grid(seed, n, jitter, sparse)
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, three_layers(rng, x)), n=n, layer_count=3)
        assert_judged_by_the_oracle(ts, grid_queries(mesh, rng, 4), mesh, c, kind, rng)

    @pytest.mark.parametrize("kind", PLAN_KINDS)
    @pytest.mark.parametrize("c", [2, 4, 16])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_holed_local_cells(self, n, c, kind):
        holed, mesh, query = holed_local_cell(n)
        rng = np.random.default_rng(n * c)
        ts = validate_training_set((holed.x, three_layers(rng, holed.x)), n=n, layer_count=3)
        queries = np.vstack([query, grid_queries(mesh, rng, 3)])
        assert_judged_by_the_oracle(ts, queries, mesh, c, kind, rng)

    def test_a_plan_is_solved_in_one_lane_call(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, (200, 3))
        ts = validate_training_set((x, three_layers(rng, x)), n=3, layer_count=3)
        q = np.full(3, 0.5)
        for c, lane_calls in ((1, 0), (4, 1), (16, 1)):
            with mock.patch.object(gradient, "solve_lanes", wraps=gradient.solve_lanes) as lanes:
                evaluate_gradient(ts, q, combinations=c)
                assert lanes.call_count == lane_calls
                lanes.reset_mock()
                evaluate_gradient_batch(ts, q[None, :], combinations=c)
                assert lanes.call_count == 1  # for all three layers


class TestCallerPlan:
    """A caller's plan is checked before any solve: each simplex names a
    reference and exactly n auxiliaries, each an integer row of the set."""

    @staticmethod
    def training():
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, (30, 3))
        return validate_training_set((x, x.sum(axis=1)), n=3)

    @pytest.mark.parametrize("simplex,message", [
        (Simplex(0, (1, 2)), "needs 3 auxiliaries, got 2"),  # a matmul ValueError before
        (Simplex(0, (1, 2, 3, 4)), "needs 3 auxiliaries, got 4"),
        (Simplex(0, (1, 2, 99)), r"integers in \[0, 30\), got 99"),  # an IndexError before
        (Simplex(1.0, (2, 3, 4)), r"got 1\.0"),  # an IndexError before
        (Simplex(0, (1, 2, 3.0)), r"got 3\.0"),
        (Simplex(-1, (1, 2, 3)), "got -1"),  # wrapped round to the last point before
        (Simplex(0, (1, -2, 3)), "got -2"),
        (Simplex(True, (1, 2, 3)), "got True"),
        (Simplex(0, 5), "a plan holds Simplex objects"),
        ((0, 1, 2, 3), "a plan holds Simplex objects"),
    ])
    @pytest.mark.parametrize("size", [1, 3])
    def test_malformed_simplex(self, simplex, message, size):
        ts = self.training()
        good = enumerate_combinations(ts, np.full(3, 0.5), 2).simplexes
        plan = CombinationPlan((simplex,) if size == 1 else (good[0], simplex, good[1]))
        with mock.patch.object(gradient, "solve_lanes") as lanes, \
                mock.patch.object(gradient, "solve_linear_system") as scalar:
            with pytest.raises(ValidationError, match=message):
                evaluate_gradient(ts, np.full(3, 0.5), plan=plan)
        assert lanes.call_count == scalar.call_count == 0

    def test_numpy_integer_rows_are_rows(self):
        ts = self.training()
        q = np.full(3, 0.5)
        plan = enumerate_combinations(ts, q, 3)
        as_numpy = CombinationPlan(tuple(Simplex(np.int64(s.reference), tuple(np.array(s.auxiliaries)))
                                         for s in plan.simplexes))
        assert evaluate_gradient(ts, q, plan=as_numpy) == evaluate_gradient(ts, q, plan=plan)

    def test_enumerated_plans_are_not_checked(self):
        ts = self.training()
        with mock.patch.object(gradient, "_check_plan") as check:
            evaluate_gradient(ts, np.full(3, 0.5), combinations=4)
            evaluate_gradient_batch(ts, np.full((1, 3), 0.5), combinations=4)
        assert check.call_count == 0
