import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradsurf import (
    ApproxFunctionParams,
    DegenerateNeighborhood,
    Estimate,
    GradsurfError,
    MeshIndex,
    NoConvergence,
    ValidationError,
    adjust_gradient,
    approx_deriv,
    approx_eval,
    build_intersection,
    evaluate_gradient,
    evaluate_batch,
    evaluate_smooth,
    evaluate_smooth_batch,
    has_interior_inflection,
    segment_angles,
    select_simplex,
    solve_intersection,
    validate_training_set,
)
from gradsurf import smooth, solvers
from gradsurf.bench import TEST_FUNCTIONS, gen_local_cell_dataset, gen_mesh_dataset, gen_queries
from gradsurf.model import FLAG_NAMES, TooFewPoints, ZeroWidthSegment
from gradsurf.neighbors import Stencil1D, axis_stencil, locate_reference
from gradsurf.solvers import find_root
from tests_oracles import (
    grid_queries,
    holed_local_cell,
    oracle_axis_stencil,
    oracle_evaluate_smooth,
    oracle_mesh_simplex,
    outcome,
    random_grid,
)


def make_stencil(xs, ys, axis=0):
    missing_lower = xs[0] is None
    missing_upper = xs[-1] is None
    return Stencil1D(
        axis=axis,
        indices=tuple(None if x is None else i for i, x in enumerate(xs)),
        x=tuple(xs),
        y=tuple(ys),
        missing_lower=missing_lower,
        missing_upper=missing_upper,
    )


def mesh_training_1d(nodes, fn):
    x = np.asarray(nodes, dtype=float).reshape(-1, 1)
    y = fn(x[:, 0])
    ts = validate_training_set((x, y), n=1)
    return ts, MeshIndex(axes=(np.asarray(nodes, dtype=float),))


class TestApproxFunction:
    def test_zero_gradients_flat(self):
        p = ApproxFunctionParams(B=1.0, g1R=0.0, g2L=0.0)
        for x in np.linspace(0, 1, 7):
            assert approx_eval(p, x) == 0.0

    def test_antisymmetric_midpoint_zero(self):
        p = ApproxFunctionParams(B=1.0, g1R=1.0, g2L=-1.0)
        assert approx_eval(p, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        p = ApproxFunctionParams(B=2.0, g1R=0.5, g2L=0.2)
        # K = 2^-2 = 0.25; 0.25 * 1 * 1 * (0.5 + 0.2)
        assert approx_eval(p, 1.0) == pytest.approx(0.175, abs=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            ApproxFunctionParams(B=0.0, g1R=0.0, g2L=0.0)
        with pytest.raises(ValidationError):
            ApproxFunctionParams(B=1.0, g1R=0.0, g2L=0.0, d=0.0)

    @pytest.mark.parametrize("field", ["B", "d"])
    def test_nan_parameter_rejected(self, field):
        values = {"B": 1.0, "g1R": 0.0, "g2L": 0.0, "d": 1.0, field: float("nan")}
        with pytest.raises(ValidationError):
            ApproxFunctionParams(**values)

    @given(
        B=st.floats(0.1, 5.0),
        g1=st.floats(-2.0, 2.0),
        g2=st.floats(-2.0, 2.0),
        d=st.floats(0.5, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_endpoints_anchor_exactly(self, B, g1, g2, d):
        p = ApproxFunctionParams(B=B, g1R=g1, g2L=g2, d=d)
        assert approx_eval(p, 0.0) == 0.0
        assert approx_eval(p, B) == 0.0

    @given(
        B=st.floats(0.1, 5.0),
        g1=st.floats(-2.0, 2.0),
        g2=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_analytic_derivative_matches_finite_difference(self, B, g1, g2):
        p = ApproxFunctionParams(B=B, g1R=g1, g2L=g2)
        for x in (0.1 * B, 0.5 * B, 0.9 * B):
            h = 1e-7 * B
            fd = (approx_eval(p, x + h) - approx_eval(p, x - h)) / (2 * h)
            assert approx_deriv(p, x) == pytest.approx(fd, abs=1e-5 * max(1, abs(fd)))

    def test_inflection_detection(self):
        assert has_interior_inflection(ApproxFunctionParams(B=1.0, g1R=1.0, g2L=-1.0, d=2.0))
        assert not has_interior_inflection(ApproxFunctionParams(B=1.0, g1R=1.0, g2L=1.0, d=1.0))

    @pytest.mark.parametrize("B", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("d", [1.0, 1.5, 2.0, 3.0])
    def test_inflection_matches_pointwise_loop(self, B, d):
        # the sampled curvature, evaluated one scalar sample at a time
        def reference(p, samples=257):
            xs = np.linspace(0.0, p.B, samples)[1:-1]
            h = p.B / (samples * 4.0)
            ys = np.array([approx_eval(p, x) for x in xs])
            yp = np.array([approx_eval(p, x + h) for x in xs])
            ym = np.array([approx_eval(p, x - h) for x in xs])
            curv = yp - 2.0 * ys + ym
            signs = np.sign(curv[np.abs(curv) > 1e-14 * max(1.0, np.abs(curv).max())])
            return bool(len(signs) and (signs != signs[0]).any())

        gradients = (-1.0, -0.3, 0.0, 0.3, 0.8, 1.0)
        for g1R in gradients:
            for g2L in gradients:
                p = ApproxFunctionParams(B=B, g1R=g1R, g2L=g2L, d=d)
                assert has_interior_inflection(p) == reference(p), p


class TestSegmentAngles:
    def test_collinear_zero_deviation(self):
        st_ = make_stencil((0.0, 1.0, 2.0, 3.0), (0.0, 0.5, 1.0, 1.5))
        a = segment_angles(st_)
        assert a.F0 == a.F1 == a.F2
        assert a.Fg1 == 0.0 and a.Fg2 == 0.0

    def test_half_turning_angle(self):
        # flat first chord, 45-degree second chord
        st_ = make_stencil((0.0, 1.0, 2.0, 3.0), (0.0, 0.0, 1.0, 2.0))
        a = segment_angles(st_)
        assert a.F0 == 0.0
        assert a.F1 == pytest.approx(np.pi / 4)
        assert a.Fg1 == pytest.approx(-np.pi / 8)

    def test_missing_boundary_zero_deviation(self):
        st_ = make_stencil((None, 1.0, 2.0, 3.0), (None, 0.0, 1.0, 2.5))
        a = segment_angles(st_)
        assert a.Fg1 == 0.0
        assert a.Fg2 != 0.0

    def test_zero_width_segment(self):
        st_ = make_stencil((0.0, 1.0, 1.0, 3.0), (0.0, 0.5, 1.0, 1.5))
        with pytest.raises(ZeroWidthSegment):
            segment_angles(st_)


class TestBuildIntersection:
    def test_zero_rotation_is_trivial(self):
        st_ = make_stencil((0.0, 1.0, 2.0, 3.0), (0.5, 1.0, 1.0, 0.5))
        prob = build_intersection(st_, segment_angles(st_), query_x=1.5)
        assert prob.trivial
        assert prob.x_p == pytest.approx(0.5)

    def test_interval_length_scales_with_rotation(self):
        # 45-degree chord between x=0 and x=1: baseline sqrt(2)
        st_ = make_stencil((-1.0, 0.0, 1.0, 2.0), (-1.0, 0.0, 1.0, 2.0))
        prob = build_intersection(st_, segment_angles(st_), query_x=0.5)
        assert prob.params.B == pytest.approx(np.sqrt(2.0))

    def test_flat_approximant_start_at_foot(self):
        st_ = make_stencil((0.0, 1.0, 2.0, 3.0), (0.0, 0.5, 1.0, 1.5))
        prob = build_intersection(st_, segment_angles(st_), query_x=1.4)
        assert prob.params.g1R == 0.0 and prob.params.g2L == 0.0
        assert prob.x0 == pytest.approx(prob.x_p)

    def test_end_gradient_signs(self):
        # convex data (increasing slopes): the arc dips below the chord, so
        # the entry slope is negative and the exit slope positive
        st_ = make_stencil((0.0, 1.0, 2.0, 3.0), (1.0, 1.0, 1.5, 2.5))
        prob = build_intersection(st_, segment_angles(st_), query_x=1.5)
        assert prob.params.g1R < 0.0
        assert -prob.params.g2L > 0.0


class TestSolveIntersection:
    def test_trivial_case_evaluates_arc(self):
        st_ = make_stencil((0.0, 0.5, 1.5, 2.0), (1.0, 1.0, 1.0, 1.0))
        prob = build_intersection(st_, segment_angles(st_), query_x=1.0)
        assert prob.trivial
        p = ApproxFunctionParams(B=1.0, g1R=0.2, g2L=0.2)
        from gradsurf import IntersectionProblem

        manual = IntersectionProblem(params=p, x_p=0.5, k=0.0, c=0.0, x0=0.5, trivial=True)
        x_star, y_star, iters = solve_intersection(manual)
        assert (x_star, iters) == (0.5, 0)
        assert y_star == pytest.approx(0.05, abs=1e-15)

    def test_flat_arc_meets_baseline_at_foot(self):
        st_ = make_stencil((0.0, 1.0, 2.0, 3.0), (0.0, 0.5, 1.0, 1.5))
        prob = build_intersection(st_, segment_angles(st_), query_x=1.4)
        x_star, y_star, _ = solve_intersection(prob)
        assert y_star == pytest.approx(0.0, abs=1e-12)
        assert x_star == pytest.approx(prob.x_p, abs=1e-9)

    def test_randomized_against_grid_oracle(self):
        from tests_oracles import grid_bisection_root

        rng = np.random.default_rng(11)
        for _ in range(50):
            xs = np.cumsum(rng.uniform(0.3, 1.2, 4))
            ys = rng.uniform(-1.0, 1.0, 4)
            st_ = make_stencil(tuple(xs), tuple(ys))
            a = segment_angles(st_)
            if abs(np.tan(a.F1)) < 1e-6:
                continue
            q = rng.uniform(xs[1], xs[2])
            prob = build_intersection(st_, a, q)
            x_star, _, _ = solve_intersection(prob)

            def f(x):
                return approx_eval(prob.params, x) - (prob.k * x + prob.c)

            oracle = grid_bisection_root(f, 0.0, prob.params.B, nearest_to=x_star)
            assert abs(x_star - oracle) <= 1e-8


class TestAdjustGradient:
    def test_zero_intersection_keeps_chord(self):
        assert adjust_gradient(0.3, 0.2, 0.0, 1.0) == pytest.approx(np.tan(0.3))

    def test_flat_chord_positive_height_negative_correction(self):
        assert adjust_gradient(0.0, 0.4, 0.1, 1.0) < 0.0

    def test_collinear_end_to_end(self):
        st_ = make_stencil((0.0, 1.0, 2.0, 3.0), (0.0, 0.7, 1.4, 2.1))
        a = segment_angles(st_)
        prob = build_intersection(st_, a, query_x=1.3)
        x_star, y_star, _ = solve_intersection(prob)
        g = adjust_gradient(a.F1, x_star, y_star, prob.params.B)
        assert g == pytest.approx(0.7, abs=1e-12)

    def test_degenerate_endpoint_resolved_by_sign(self):
        g = adjust_gradient(0.0, 1.0, 0.5, 1.0)
        assert np.isfinite(g)


class TestEvaluateSmooth:
    def test_requires_mesh(self):
        x = np.vstack([np.zeros(2), np.eye(2)])
        ts = validate_training_set((x, np.zeros(3)), n=2)
        with pytest.raises(ValidationError):
            evaluate_smooth(ts, np.array([0.3, 0.3]), mesh=None)

    def test_newton_parameters_validated(self):
        nodes = np.linspace(2.0, 5.0, 16)
        ts, mesh = mesh_training_1d(nodes, lambda x: np.sqrt(x))
        bad = (
            {"tol": 0.0}, {"tol": -1e-9}, {"tol": np.nan}, {"max_iter": 0},
            {"d": 0.0}, {"d": -1.0}, {"d": np.nan},
        )
        # 3.33 is inside the domain; 1.5 extrapolates, where every axis takes
        # the chord fallback and never reaches the arc
        for q in (3.33, 1.5):
            for kwargs in bad:
                with pytest.raises(ValidationError):
                    evaluate_smooth(ts, np.array([q]), mesh, **kwargs)

    @pytest.mark.parametrize("max_iter", [2.5, np.nan, 20.0, "20"])
    def test_non_integer_max_iter_is_rejected(self, max_iter):
        ts, mesh = mesh_training_1d(np.linspace(2.0, 5.0, 16), np.sqrt)
        with pytest.raises(ValidationError, match="max iterations must be an integer"):
            evaluate_smooth(ts, np.array([3.33]), mesh, max_iter=max_iter)
        with pytest.raises(ValidationError, match="max iterations must be an integer"):
            evaluate_smooth_batch(ts, [[3.33]], mesh, max_iter=max_iter)
        q = np.array([3.33])
        assert evaluate_smooth(ts, q, mesh, max_iter=np.int64(3)) == evaluate_smooth(
            ts, q, mesh, max_iter=3)

    @pytest.mark.parametrize("layer", [1, 5, -1, 0.5, np.float64(0.0)])
    def test_layer_out_of_range_is_rejected(self, layer):
        ts, mesh = mesh_training_1d(np.linspace(2.0, 5.0, 16), np.sqrt)
        with pytest.raises(ValidationError, match="layer must lie in"):
            evaluate_smooth(ts, np.array([3.33]), mesh, layer=layer)

    @pytest.mark.parametrize("jitter,d", [(0.0, 400.0), (0.3, 300.0)])
    def test_arc_past_the_float_range_is_a_typed_error_on_both_paths(self, jitter, d):
        """Cells 3/19 wide and d = 400 put every arc scale 1 / B^(d+1) past
        the float range; at d = 300 only cells that jitter narrowed do."""
        f = TEST_FUNCTIONS["S1"]
        ts, mesh = gen_mesh_dataset(f, 20, x_jitter_fraction=jitter, seed=0)
        queries, _, _ = gen_queries(mesh, f, ts, seed=1, budget=60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # d > 1 warns about inflections
            batch = evaluate_smooth_batch(ts, queries, mesh, d=d)
            for i, q in enumerate(queries):
                if i in batch.errors:
                    with pytest.raises(ValidationError, match="past the float range") as exc:
                        evaluate_smooth(ts, q, mesh, d=d)
                    assert str(exc.value) == str(batch.errors[i])
                else:
                    assert evaluate_smooth(ts, q, mesh, d=d).y_hat == batch.y_hat[i, 0]
        assert 0 < len(batch.errors)
        assert (len(batch.errors) == len(queries)) == (jitter == 0.0)

    def test_jittered_reference_in_high_dimension(self):
        # the reference sits 0.2 h below its node on axis 0, so the lower
        # corner of its own coordinates' cell is the node below it; the grid
        # index must still resolve in time linear in n
        n = 50
        f = TEST_FUNCTIONS["H1"]
        ts, mesh, q, _, _ = gen_local_cell_dataset(f, n, 20, np.random.default_rng(3))
        h = mesh.axes[0][1] - mesh.axes[0][0]
        x = np.array(ts.x)
        x[0, 0] -= 0.2 * h
        jittered = validate_training_set((x, ts.y), n=n)
        mesh = MeshIndex(axes=mesh.axes, jitter_fraction=0.25, index_map=mesh.index_map)
        q = q.copy()
        q[0] = x[0, 0] + 0.5 * h
        est = evaluate_smooth(jittered, q, mesh)
        assert est.reference_index == 0
        assert len(est.flags) == n
        assert abs(est.y_hat - f(q)) < 1e-2

    def test_affine_is_exact_and_matches_gradient_method(self):
        nodes = np.linspace(0.0, 3.0, 7)
        grids = np.meshgrid(nodes, nodes, indexing="ij")
        x = np.stack([g.ravel() for g in grids], axis=1)
        y = 2.0 * x[:, 0] - 1.5 * x[:, 1] + 0.25
        ts = validate_training_set((x, y), n=2)
        mesh = MeshIndex(axes=(nodes, nodes))
        q = np.array([1.2, 2.3])
        truth = 2.0 * q[0] - 1.5 * q[1] + 0.25
        es = evaluate_smooth(ts, q, mesh)
        eg = evaluate_gradient(ts, q, mesh=mesh)
        assert es.y_hat == pytest.approx(truth, abs=1e-10)
        assert es.y_hat == pytest.approx(eg.y_hat, abs=1e-10)

    def test_query_at_node_returns_stored_value(self):
        nodes = np.linspace(0.0, 3.0, 7)
        ts, mesh = mesh_training_1d(nodes, lambda x: np.sin(x))
        q = np.array([nodes[3]])
        est = evaluate_smooth(ts, q, mesh)
        assert est.y_hat == pytest.approx(np.sin(nodes[3]), abs=1e-9)

    def test_beats_chord_interpolation_on_smooth_function(self):
        nodes = np.linspace(2.0, 5.0, 16)
        ts, mesh = mesh_training_1d(nodes, lambda x: np.sqrt(x))
        rng = np.random.default_rng(5)
        qs = rng.uniform(2.2, 4.6, 30)
        err_s = err_g = 0.0
        for q in qs:
            truth = np.sqrt(q)
            err_s += abs(evaluate_smooth(ts, np.array([q]), mesh).y_hat - truth)
            err_g += abs(evaluate_gradient(ts, np.array([q]), mesh=mesh).y_hat - truth)
        assert err_s < err_g / 20.0

    def test_boundary_cell_falls_back_gracefully(self):
        nodes = np.linspace(0.0, 1.0, 4)
        ts, mesh = mesh_training_1d(nodes, lambda x: x**2)
        est = evaluate_smooth(ts, np.array([0.1]), mesh)
        assert np.isfinite(est.y_hat)
        assert est.flags[0] in ("boundary-fallback", "corrected")

    def test_shape_exponent_warns_above_one(self):
        nodes = np.linspace(0.0, 1.0, 6)
        ts, mesh = mesh_training_1d(nodes, lambda x: x**2)
        with pytest.warns(UserWarning):
            evaluate_smooth(ts, np.array([0.45]), mesh, d=2.0)

    def test_newton_iteration_counts_recorded(self):
        nodes = np.linspace(2.0, 5.0, 16)
        ts, mesh = mesh_training_1d(nodes, lambda x: np.sqrt(x))
        est = evaluate_smooth(ts, np.array([3.33]), mesh)
        assert len(est.newton_iterations) == 1
        assert est.newton_iterations[0] <= 20


class TestMeshNeighbourhoodOracle:
    """Stencils, mesh simplexes and smooth estimates equal the oracle's: the
    neighbourhoods as first written, one grid walk per caller."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        jitter=st.floats(0.0, 0.45),
        sparse=st.booleans(),
    )
    def test_random_grids(self, seed, n, jitter, sparse):
        x, y, mesh, rng = random_grid(seed, n, jitter, sparse)
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, y), n=n)
        for q in grid_queries(mesh, rng, 12):
            cell = mesh.cell_of(q)
            for axis in range(n):
                assert outcome(axis_stencil, ts, mesh, cell, axis) == outcome(
                    oracle_axis_stencil, ts, mesh, cell, axis
                )
            assert outcome(select_simplex, ts, q, mesh) == outcome(
                oracle_mesh_simplex, mesh, q
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # d > 1 warns of inflections
                for d in (1.0, 1.5, 2.0):
                    assert outcome(evaluate_smooth, ts, q, mesh, d=d) == outcome(
                        oracle_evaluate_smooth, ts, q, mesh, d=d
                    )


def batch_estimate(batch, i, layer=0) -> Estimate:
    """Row i, layer position ``layer`` of an EstimateBatch as an Estimate."""
    return Estimate(
        y_hat=float(batch.y_hat[i, layer]),
        method="smooth",
        reference_index=int(batch.reference_index[i]),
        combinations_used=int(batch.combinations_used[i]),
        newton_iterations=tuple(int(v) for v in batch.newton_iterations[i, layer]),
        flags=tuple(batch.flags[i, layer]),
        extrapolated=bool(batch.extrapolated[i]),
    )


def assert_same(batch, i, layer, expected: Estimate):
    got = batch_estimate(batch, i, layer)
    assert got == expected
    assert got.y_hat.hex() == expected.y_hat.hex()  # bit for bit, signed zeros too


def assert_batch_matches_scalar(ts, queries, mesh, d):
    """Every query and layer of the batch at shape exponent d is
    ``evaluate_smooth``'s, bit for bit, or that function's error type; so is
    ``evaluate_batch``'s list, or its first error."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # d > 1 warns of inflections
        batch = evaluate_smooth_batch(ts, queries, mesh, d=d)
        for i, q in enumerate(queries):
            for layer in range(ts.layer_count):
                expected = outcome(evaluate_smooth, ts, q, mesh, d=d, layer=layer)
                if isinstance(expected, type):
                    assert type(batch.errors[i]) is expected
                    break
                assert i not in batch.errors
                assert_same(batch, i, layer, expected)
        scalar = [outcome(evaluate_smooth, ts, q, mesh, d=d) for q in queries]
        errors = [e for e in scalar if isinstance(e, type)]
        assert outcome(evaluate_batch, ts, queries, mesh=mesh, method="smooth",
                       d=d) == (errors[0] if errors else [e.y_hat for e in scalar])


class TestSmoothBatch:
    """The batch kernel returns what the per-axis scalar loop returns, bit for
    bit, or hands the scalar path's error over in input order."""

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
        for d in (1.0, 1.5, 2.0, 3.0):
            assert_batch_matches_scalar(ts, queries, mesh, d)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        jitter=st.floats(0.0, 0.45),
        sparse=st.booleans(),
    )
    def test_shape_exponent_below_one_matches_the_scalar_path(self, seed, n, jitter, sparse):
        # the arc's slope is infinite at either end of the interval, so an
        # iterate clamped there leaves Newton for bisection on both paths
        x, y, mesh, rng = random_grid(seed, n, jitter, sparse)
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, np.stack([y, np.cos(x).sum(axis=1)], axis=1)),
                                   n=n, layer_count=2)
        queries = grid_queries(mesh, rng, 12)
        for d in (0.3, 0.5, 0.9):
            assert_batch_matches_scalar(ts, queries, mesh, d)

    @pytest.mark.parametrize("d", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("n", [1, 2, 9, 99])
    def test_high_dimensional_local_cell(self, n, seed, d):
        rng = np.random.default_rng(seed)
        ts, mesh, query, _, _ = gen_local_cell_dataset(TEST_FUNCTIONS["H1"], n, 20, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # d > 1 warns of inflections
            batch = evaluate_smooth_batch(ts, query[None, :], mesh, d=d)
            assert_same(batch, 0, 0, evaluate_smooth(ts, query, mesh, d=d))

    @pytest.mark.parametrize("n", [1, 9, 99])
    def test_local_cell_without_its_reference(self, n):
        ts, mesh, query = holed_local_cell(n)
        with pytest.raises(DegenerateNeighborhood) as scalar:
            evaluate_smooth(ts, query, mesh)
        batch = evaluate_smooth_batch(ts, query[None, :], mesh)
        assert type(batch.errors[0]) is DegenerateNeighborhood
        assert str(batch.errors[0]) == str(scalar.value)
        assert batch.reference_index[0] == -1 and np.isnan(batch.y_hat[0, 0])

    def test_lane_leaving_newton_matches_find_root(self):
        # one Newton step cannot reach tol, so the lane reruns find_root, whose
        # bisection fallback finishes it
        ts, mesh = mesh_training_1d(np.linspace(0.0, 3.0, 7), lambda x: np.sin(2 * x) + x**2)
        q, tol, max_iter = 1.3, 1e-12, 1
        batch = evaluate_smooth_batch(ts, [[q]], mesh, tol=tol, max_iter=max_iter)

        stencil = axis_stencil(ts, mesh, mesh.cell_of([q]), 0)
        angles = segment_angles(stencil)
        problem = build_intersection(stencil, angles, q)
        params = problem.params
        root, iters = find_root(
            lambda x: approx_eval(params, x) - (problem.k * x + problem.c),
            lambda x: approx_deriv(params, x) - problem.k,
            problem.x0, tol=tol, max_iter=max_iter, bracket=(0.0, params.B),
        )
        assert iters > max_iter  # Newton's step, then bisection
        g = adjust_gradient(angles.F1, root, approx_eval(params, root), params.B)
        y_ref, (_, y1, y2, _), x2 = stencil.y[1], stencil.y, stencil.x[2]
        y_hat = y_ref + ((y1 - y_ref) + (y2 - y1) + g * (q - x2))
        assert batch.newton_iterations[0, 0, 0] == iters
        assert batch.flags[0, 0, 0] == "corrected"
        assert float(batch.y_hat[0, 0]).hex() == float(y_hat).hex()
        assert_same(batch, 0, 0, evaluate_smooth(ts, [q], mesh, tol=tol, max_iter=max_iter))

    def test_lanes_no_solver_finishes_keep_their_chord(self, monkeypatch):
        # bisection made to fail: a lane that leaves Newton (here, one that
        # needs more than two steps) takes the chord on both paths
        def no_sign_change(f, tol, bracket, newton_iters):
            raise NoConvergence("no sign change on the bracket")

        monkeypatch.setattr(solvers, "_bisect_fallback", no_sign_change)
        x, y, mesh, rng = random_grid(3, 2, 0.2, False)
        ts = validate_training_set((x, np.stack([y, np.cos(x).sum(axis=1)], axis=1)),
                                   n=2, layer_count=2)
        queries = grid_queries(mesh, rng, 16)
        batch = evaluate_smooth_batch(ts, queries, mesh, tol=1e-12, max_iter=2)
        assert {"corrected", "newton-fallback"} <= set(batch.flags.ravel())
        for i, q in enumerate(queries):
            for layer in range(2):
                assert_same(batch, i, layer,
                            evaluate_smooth(ts, q, mesh, tol=1e-12, max_iter=2, layer=layer))

    @pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("jitter,sparse", [(0.0, False), (0.3, False), (0.3, True)],
                             ids=["complete", "jittered", "holed"])
    def test_flag_counts_are_one_bincount_of_the_codes(self, jitter, sparse, d):
        """Over the rows the batch answers, ``np.bincount`` of the flag codes
        counts each of ``FLAG_NAMES`` as often as ``evaluate_smooth``'s flags
        hold it; a failed row's codes hold no result."""
        x, y, mesh, rng = random_grid(5, 3, jitter, sparse)
        ts = validate_training_set((x, np.stack([y, np.cos(x).sum(axis=1)], axis=1)),
                                   n=3, layer_count=2)
        queries = grid_queries(mesh, rng, 40)
        names = Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # d > 1 warns of inflections
            batch = evaluate_smooth_batch(ts, queries, mesh, d=d)
            for i, q in enumerate(queries):
                if i not in batch.errors:
                    for layer in range(2):
                        names.update(evaluate_smooth(ts, q, mesh, d=d, layer=layer).flags)
        answered = np.delete(batch.flag_codes, list(batch.errors), axis=0)
        counts = np.bincount(answered.ravel(), minlength=len(FLAG_NAMES))
        assert counts.tolist() == [names[name] for name in FLAG_NAMES.tolist()]
        assert set(names) <= set(FLAG_NAMES.tolist())
        assert bool(batch.errors) == sparse
        assert counts[len(smooth.FLAGS):].any() == (d > 1.0)  # "+inflection"

    @pytest.mark.parametrize("seed", range(3))
    def test_one_warning_per_call(self, seed):
        """d > 1 warns once per batch call, from the caller's line, however
        many rows and layers the batch redoes."""
        x, y, mesh, rng = random_grid(seed, 3, 0.3, True)
        ts = validate_training_set((x, np.stack([y, np.cos(x).sum(axis=1)], axis=1)),
                                   n=3, layer_count=2)
        queries = grid_queries(mesh, rng, 40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = evaluate_smooth_batch(ts, queries, mesh, d=2.0)
        assert len(batch.errors) > 1
        assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]

    def test_argument_errors_and_query_shape(self):
        ts, mesh = mesh_training_1d(np.linspace(0.0, 3.0, 7), np.sin)
        with pytest.raises(ValidationError):
            evaluate_smooth_batch(ts, [[1.0]], None)
        with pytest.raises(ValidationError):
            evaluate_smooth_batch(ts, [[1.0]], mesh, tol=0.0)
        with pytest.raises(ValidationError):
            evaluate_smooth_batch(ts, [1.0, 2.0], mesh)  # not (M, n)
        assert evaluate_smooth_batch(ts, [], mesh).y_hat.shape == (0, 1)


def holed_layered_mesh(seed, layer_count):
    """A jittered 20^3 S1 mesh without about 30% of its points, with
    ``layer_count`` of the layers S1, +-1e308 and S2 (rotated by the seed),
    and 150 queries over its box and a little past it."""
    rng = np.random.default_rng(seed)
    f1, f2 = TEST_FUNCTIONS["S1"], TEST_FUNCTIONS["S2"]
    full, mesh = gen_mesh_dataset(f1, 20, x_jitter_fraction=0.3, seed=seed)
    kept = np.flatnonzero(rng.random(full.npoints) < 0.7)
    grid = np.stack(np.unravel_index(kept, mesh.shape), axis=1)
    x = full.x[kept]
    mesh = MeshIndex(axes=mesh.axes, jitter_fraction=0.3,
                     index_map={tuple(g): i for i, g in enumerate(grid.tolist())})
    layers = [f1(x), np.where(rng.random(len(x)) < 0.5, 1e308, -1e308), f2(x)]
    layers = (layers[seed % 3:] + layers[:seed % 3])[:layer_count]
    ts = validate_training_set((x, np.stack(layers, axis=1)), n=3, layer_count=layer_count)
    lo, hi = ts.bounding_box
    return ts, mesh, lo + (hi - lo) * rng.uniform(-0.05, 1.05, (150, 3))


def tied_mesh(seed, n, layer_count):
    """``random_grid``'s sparse grid at n axes with its coordinates rounded to
    halves, so that neighbouring points can share a coordinate exactly (a
    zero-width segment); ``layer_count`` layers, the third +-1e308; and 40
    ``grid_queries``."""
    x, y, mesh, rng = random_grid(seed, n, 0.45, True)
    x = np.round(x * 2.0) / 2.0
    keep = np.sort(np.unique(x, axis=0, return_index=True)[1])  # one point per place
    node = {row: g for g, row in mesh.index_map.items()}
    mesh = MeshIndex(axes=mesh.axes, jitter_fraction=0.45,
                     index_map={node[int(r)]: i for i, r in enumerate(keep)})
    x, y = x[keep], y[keep]
    layers = [y, np.cos(x).sum(axis=1), np.where(np.sin(7.0 * x).sum(axis=1) < 0, -1e308, 1e308)]
    ts = validate_training_set((x, np.stack(layers[:layer_count], axis=1)), n=n,
                               layer_count=layer_count)
    return ts, mesh, grid_queries(mesh, rng, 40)


def refusal_kinds(ts, queries, mesh, d) -> Counter:
    """Checks one batch call's every row against ``evaluate_smooth``, layer
    by layer: bit for bit where it answers, and where it fails, the error
    type and message of the row's first failing layer.  Counts the errors
    by kind, an arc past the float range as "overflow"."""
    kinds = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # d > 1 warns of inflections
        batch = evaluate_smooth_batch(ts, queries, mesh, d=d)
        for i, q in enumerate(queries):
            try:
                expected = [evaluate_smooth(ts, q, mesh, d=d, layer=layer)
                            for layer in range(ts.layer_count)]
            except GradsurfError as exc:
                got = batch.errors[i]
                assert (type(got), str(got)) == (type(exc), str(exc))
                kinds["overflow" if "float range" in str(exc) else type(exc).__name__] += 1
                continue
            assert i not in batch.errors
            for layer, estimate in enumerate(expected):
                assert_same(batch, i, layer, estimate)
    assert len(batch.errors) == sum(kinds.values())
    return kinds


class TestSmoothBatchRefusals:
    """One batch call answers each row as ``evaluate_smooth`` does, or fails
    it with the error of its first failing layer, named by the batch."""

    @pytest.mark.parametrize("layer_count", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_holed_jittered_meshes(self, seed, layer_count):
        ts, mesh, queries = holed_layered_mesh(seed, layer_count)
        kinds = Counter()
        for d in (0.5, 1.0, 2.0, 300.0):
            kinds += refusal_kinds(ts, queries, mesh, d)
        assert kinds["DegenerateNeighborhood"] and kinds["overflow"]

    def test_tied_sparse_meshes(self):
        kinds = Counter()
        for seed in range(36):
            n, layer_count = 1 + seed % 3, 1 + seed // 3 % 3
            try:
                ts, mesh, queries = tied_mesh(seed, n, layer_count)
            except TooFewPoints:  # rounding merged nearly every point
                continue
            for d in (0.7, 1.0, 3.0, 400.0):
                kinds += refusal_kinds(ts, queries, mesh, d)
        assert set(kinds) == {"DegenerateNeighborhood", "ZeroWidthSegment", "NonFiniteValue",
                              "overflow"}

    def test_one_overflowing_query_leaves_the_others_bit_for_bit(self):
        # one cell 1e-3 wide: its arc scale 1 / B^(d+1) is past the float range
        nodes = np.array([0.0, 1.0, 2.0, 2.001, 3.0, 4.0, 5.0])
        ts, mesh = mesh_training_1d(nodes, np.sin)
        others = np.array([[0.4], [1.3], [3.5], [4.2], [2.7]])
        queries = np.insert(others, 2, [[2.0005]], axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # d > 1 warns of inflections
            batch = evaluate_smooth_batch(ts, queries, mesh, d=300.0)
            alone = evaluate_smooth_batch(ts, others, mesh, d=300.0)
            with pytest.raises(ValidationError) as scalar:
                evaluate_smooth(ts, [2.0005], mesh, d=300.0)
        assert list(batch.errors) == [2]
        assert str(batch.errors[2]) == str(scalar.value)
        assert "float range" in str(scalar.value)
        answered = np.delete(np.arange(len(queries)), 2)
        for field in ("y_hat", "newton_iterations", "flag_codes", "reference_index"):
            assert getattr(batch, field)[answered].tobytes() == getattr(alone, field).tobytes()
        assert (alone.newton_iterations > 0).all()  # the others reach the arc
        refusal_kinds(ts, queries, mesh, 300.0)


class TestArgumentsOfBothPaths:
    """Regressions: a large d prints no numpy warning, and an infinite d is
    an argument error on both entry points."""

    def test_a_power_past_the_float_range_in_the_inflection_test_is_silent(self):
        nodes = np.arange(0, 80.0, 8.0)
        ts = validate_training_set((nodes[:, None], np.sin(nodes / 20)), n=1)
        mesh = MeshIndex(axes=(nodes,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # d > 1 warns of inflections
            warnings.simplefilter("error", RuntimeWarning)
            scalar = evaluate_smooth(ts, [30.0], mesh, d=345.0)
            batch = evaluate_smooth_batch(ts, [[30.0]], mesh, d=345.0)
            stencil = axis_stencil(ts, mesh, mesh.cell_of([30.0]), 0)
            params = build_intersection(stencil, segment_angles(stencil), 30.0, 345.0).params
            assert has_interior_inflection(params) is False
        assert_same(batch, 0, 0, scalar)
        assert scalar.flags == ("corrected",)

    @pytest.mark.parametrize("d", [np.inf, float("inf"), -np.inf])
    def test_an_infinite_shape_exponent_is_rejected(self, d):
        ts, mesh = mesh_training_1d(np.linspace(2.0, 5.0, 16), np.sqrt)
        for q in (3.33, 1.5):  # inside the domain, and outside it
            with pytest.raises(ValidationError, match="must be positive"):
                evaluate_smooth(ts, [q], mesh, d=d)
            with pytest.raises(ValidationError, match="must be positive"):
                evaluate_smooth_batch(ts, [[q]], mesh, d=d)


class TestNewtonLanes:
    """``_newton_lanes``, which takes f and f' together at each iterate, is
    ``find_root``'s Newton phase lane by lane: the same root bits and
    iteration count where Newton finishes, and the same lanes, after the
    same number of steps, where it hands over to bisection."""

    @staticmethod
    def find_root_lanes(lanes, x0, d, tol, max_iter):
        """``find_root`` on each lane as ``solve_intersection`` calls it: its
        root and iterations, or the Newton steps taken before bisection."""
        left = []

        def leave(f, tol, bracket, newton_iters):
            left.append(newton_iters)
            return None, None

        found = []
        with mock.patch.object(solvers, "_bisect_fallback", leave):
            for (B, g1R, g2L, k, c), start in zip(lanes, x0):
                params = ApproxFunctionParams(B=B, g1R=g1R, g2L=g2L, d=d)
                root, iters = find_root(
                    lambda x: approx_eval(params, x) - (k * x + c),
                    lambda x: approx_deriv(params, x) - k,
                    start, tol=tol, max_iter=max_iter, bracket=(0.0, B),
                )
                found.append(("bisect", left.pop()) if root is None else (root.hex(), iters))
        return found

    @staticmethod
    def lane_results(lanes, x0, d, tol, max_iter):
        B, g1R, g2L, k, c = (np.array(v) for v in zip(*lanes))
        K = np.array([b ** -(d + 1.0) for b in B.tolist()])  # the params' K, a float power
        with np.errstate(all="ignore"):
            p = (K, B, g1R, g2L, k, c, g2L - g1R)
            root, iters, rerun = smooth._newton_lanes(p, np.array(x0), d, tol, max_iter)
        return [("bisect", int(i)) if r else (float(x).hex(), int(i))
                for x, i, r in zip(root, iters, rerun)]

    @staticmethod
    def special_lanes(B):
        """(lane, x0) pairs that stop Newton in each of its ways on [0, B]."""
        return [
            ((B, 0.0, 0.0, 0.0, 1.0), 0.3 * B),  # a flat arc and a flat line: f' = 0
            ((B, 0.0, 0.0, 1.0, -2.0 * B), 0.5 * B),  # the root lies past the bracket
            ((B, 0.0, 0.0, 1.0, -0.25 * B), 0.25 * B),  # f(x0) == 0: a root at once
            ((B, 1.5, -0.5, 2.0, -0.1), 0.0),  # starts at the end, where f' is NaN for d < 1
            ((2.0, -1e308, 1e308, 1.0, 0.0), 1.0),  # a finite f and an infinite f'
            ((B, 2.0, 1.0, 0.7, -0.3 * B), 0.9 * B),
        ]

    @pytest.mark.parametrize("d", [0.5, 1.0, 2.5])
    @settings(max_examples=60, deadline=None)
    @given(
        lanes=st.lists(st.tuples(
            st.floats(0.1, 10.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
            st.floats(-5.0, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        ), min_size=1, max_size=12),
        tol=st.sampled_from([1e-9, 1e-13, 1e-16]),
        max_iter=st.sampled_from([1, 2, 3, 20]),
    )
    def test_lanes_match_find_root(self, d, lanes, tol, max_iter):
        pairs = []
        for B, g1R, g2L, k, at, start in lanes:
            # a line through the arc at a point of the bracket, and a start
            params = ApproxFunctionParams(B=B, g1R=g1R, g2L=g2L, d=d)
            root = at * B
            pairs.append(((B, g1R, g2L, k, approx_eval(params, root) - k * root), start * B))
        pairs += self.special_lanes(lanes[0][0])
        lanes, x0 = zip(*pairs)
        expected = self.find_root_lanes(lanes, x0, d, tol, max_iter)
        assert self.lane_results(lanes, x0, d, tol, max_iter) == expected

    def test_the_lanes_stop_in_every_way(self):
        """The special lanes, and random ones, cover each way out of Newton."""
        rng = np.random.default_rng(5)
        lanes, x0 = zip(*self.special_lanes(2.0))
        ways = set()
        for d in (0.5, 1.0, 2.5):
            for max_iter in (1, 20):
                found = self.find_root_lanes(lanes, x0, d, 1e-13, max_iter)
                assert self.lane_results(lanes, x0, d, 1e-13, max_iter) == found
                ways |= {(kind == "bisect", iters) for kind, iters in found}
            B = rng.uniform(0.5, 3.0, 40)
            # Python floats, whose powers are the C library's, as in the kernel
            random = [(b, *rng.uniform(-2.0, 2.0, 2).tolist(), rng.uniform(0.5, 3.0), -0.4 * b)
                      for b in B.tolist()]
            starts = (rng.uniform(0.0, 1.0, 40) * B).tolist()
            found = self.find_root_lanes(random, starts, d, 1e-12, 20)
            assert self.lane_results(random, starts, d, 1e-12, 20) == found
            ways |= {(kind == "bisect", iters) for kind, iters in found}
        # a root at once, roots after several different counts, bisection
        # after no step (a bad derivative or start) and after the last one
        assert (False, 0) in ways and (True, 0) in ways and (True, 1) in ways
        assert len({iters for kind, iters in ways if not kind}) >= 4
