import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradsurf import (
    DegenerateNeighborhood,
    InsufficientPoints,
    MeshIndex,
    enumerate_combinations,
    evaluate_batch,
    evaluate_gradient,
    locate_reference,
    select_simplex,
    validate_training_set,
)
from gradsurf import neighbors
from gradsurf.model import GradsurfError
from gradsurf.neighbors import axis_stencil, is_extrapolation
from tests_oracles import oracle_scattered_plan


def mesh_training(nodes, n, fn):
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)
    y = fn(x)
    ts = validate_training_set((x, y.reshape(-1, 1)), n=n)
    return ts, MeshIndex(axes=tuple([nodes] * n))


class TestLocateReference:
    def test_mesh_lower_corner(self):
        nodes = np.array([0.0, 1.0, 2.0])
        ts, mesh = mesh_training(nodes, 3, lambda x: x.sum(axis=1))
        idx = locate_reference(ts, np.array([0.4, 1.7, 0.3]), mesh)
        assert tuple(ts.x[idx]) == (0.0, 1.0, 0.0)

    def test_query_on_node_is_that_node(self):
        nodes = np.array([0.0, 1.0, 2.0])
        ts, mesh = mesh_training(nodes, 1, lambda x: x.sum(axis=1))
        idx = locate_reference(ts, np.array([1.0]), mesh)
        assert ts.x[idx, 0] == 1.0

    def test_scattered_normalized_nearest(self):
        x = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0]])
        ts = validate_training_set((x, np.zeros(3)), n=2)
        idx = locate_reference(ts, np.array([4.0, 0.0]))
        assert idx == 0


class TestSelectSimplex:
    def test_mesh_axis_aligned_corners(self):
        nodes = np.array([0.0, 1.0, 2.0])
        ts, mesh = mesh_training(nodes, 3, lambda x: x.sum(axis=1))
        simplex = select_simplex(ts, np.array([0.4, 0.4, 0.4]), mesh)
        aux_coords = sorted(tuple(ts.x[a]) for a in simplex.auxiliaries)
        assert aux_coords == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_upper_boundary_steps_back(self):
        nodes = np.array([0.0, 1.0])
        ts, mesh = mesh_training(nodes, 2, lambda x: x.sum(axis=1))
        q = np.array([1.0, 1.0])
        simplex = select_simplex(ts, q, mesh)
        assert tuple(ts.x[simplex.reference]) == (1.0, 1.0)
        assert len(simplex.auxiliaries) == 2

    def test_collinear_scattered_degenerate(self):
        x = np.stack([np.linspace(0, 1, 5), np.linspace(0, 2, 5)], axis=1)
        ts = validate_training_set((x, np.zeros(5)), n=2)
        with pytest.raises(DegenerateNeighborhood):
            select_simplex(ts, np.array([0.5, 1.0]))

    def test_scattered_picks_independent_directions(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.0, 0.1]])
        ts = validate_training_set((x, np.zeros(4)), n=2)
        q = np.array([0.05, 0.01])
        simplex = select_simplex(ts, q)
        assert simplex.reference == 0
        rows = ts.x[list(simplex.auxiliaries)] - ts.x[0]
        assert np.linalg.matrix_rank(rows) == 2


class TestEnumerateCombinations:
    def quad(self):
        # four points, no three collinear: every 3-subset is a valid simplex
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.2]])
        return validate_training_set((x, np.zeros(4)), n=2)

    def test_single_combination_is_base_simplex(self):
        ts = self.quad()
        q = np.array([0.3, 0.3])
        plan = enumerate_combinations(ts, q, 1)
        assert plan.c == 1
        assert plan.simplexes[0] == select_simplex(ts, q)

    def test_four_points_four_combinations(self):
        ts = self.quad()
        plan = enumerate_combinations(ts, np.array([0.4, 0.4]), 4)
        assert plan.c == 4
        keys = {s.key() for s in plan.simplexes}
        assert len(keys) == 4
        subsets = {frozenset((s.reference, *s.auxiliaries)) for s in plan.simplexes}
        assert len(subsets) == 4  # all four 3-point subsets

    def test_exhaustion_raises(self):
        ts = self.quad()
        with pytest.raises(InsufficientPoints):
            enumerate_combinations(ts, np.array([0.4, 0.4]), 50)

    def test_invalid_count(self):
        ts = self.quad()
        with pytest.raises(InsufficientPoints):
            enumerate_combinations(ts, np.array([0.4, 0.4]), 0)

    def test_disjoint_blocks_when_points_abound(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (60, 2))
        ts = validate_training_set((x, np.zeros(60)), n=2)
        plan = enumerate_combinations(ts, np.array([0.5, 0.5]), 8)
        assert plan.c == 8
        point_sets = [frozenset((s.reference, *s.auxiliaries)) for s in plan.simplexes]
        # the first several combinations come from disjoint blocks
        assert len(point_sets[0] | point_sets[1] | point_sets[2]) == 9

    @pytest.mark.parametrize("c", [1, 4, 16])
    def test_distances_computed_once_per_query(self, monkeypatch, c):
        calls = []
        real = neighbors._normalised_d2
        monkeypatch.setattr(neighbors, "_normalised_d2",
                            lambda *args: calls.append(1) or real(*args))
        ts, queries, _ = uniform_set(3, 2, 60)
        enumerate_combinations(ts, queries[0], c)
        assert len(calls) == 1
        mesh_ts, mesh = mesh_training(np.linspace(0.0, 1.0, 4), 2, lambda x: x.sum(axis=1))
        enumerate_combinations(mesh_ts, np.array([0.4, 0.5]), 1, mesh)
        assert len(calls) == 1  # mesh mode with C=1 needs no distances


class TestAxisStencil:
    def test_interior_cell_full_stencil(self):
        nodes = np.array([0.0, 1.0, 2.0, 3.0])
        ts, mesh = mesh_training(nodes, 1, lambda x: x.sum(axis=1))
        st = axis_stencil(ts, mesh, mesh.cell_of(np.array([1.4])), axis=0)
        assert st.x == (0.0, 1.0, 2.0, 3.0)
        assert not st.missing_lower and not st.missing_upper

    def test_domain_edge_flags_missing_lower(self):
        nodes = np.array([0.0, 1.0, 2.0, 3.0])
        ts, mesh = mesh_training(nodes, 1, lambda x: x.sum(axis=1))
        st = axis_stencil(ts, mesh, mesh.cell_of(np.array([0.4])), axis=0)
        assert st.missing_lower
        assert st.x[0] is None
        assert st.x[1:] == (0.0, 1.0, 2.0)

    def test_jittered_points_sorted_by_actual_coordinate(self):
        nodes = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        rng = np.random.default_rng(3)
        x = nodes.reshape(-1, 1) + rng.uniform(-0.4, 0.4, (5, 1))
        ts = validate_training_set((x, np.zeros(5)), n=1)
        mesh = MeshIndex(axes=(nodes,), jitter_fraction=0.4)
        st = axis_stencil(ts, mesh, mesh.cell_of(np.array([1.6])), axis=0)
        xs = [v for v in st.x if v is not None]
        assert xs == sorted(xs)

    def test_layer_selects_outcome_column(self):
        nodes = np.array([0.0, 1.0, 2.0, 3.0])
        x = nodes.reshape(-1, 1)
        y = np.stack([nodes, 10 * nodes], axis=1)
        ts = validate_training_set((x, y), n=1, layer_count=2)
        mesh = MeshIndex(axes=(nodes,))
        st = axis_stencil(ts, mesh, (1,), axis=0, layer=1)
        assert st.y == (0.0, 10.0, 20.0, 30.0)


def uniform_set(seed, n, npoints):
    # continuous uniform data has no distance ties, so the nearest-point
    # order does not depend on the row order
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (npoints, n))
    y = np.sin(3.0 * x).sum(axis=1) + rng.normal(0.0, 0.05, npoints)
    return validate_training_set((x, y), n=n), rng.uniform(0.1, 0.9, (4, n)), rng


class TestScatteredProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 4), c=st.sampled_from([1, 4]))
    @settings(max_examples=25, deadline=None)
    def test_row_order_does_not_change_the_estimate(self, seed, n, c):
        ts, queries, rng = uniform_set(seed, n, 60)
        perm = rng.permutation(ts.npoints)
        shuffled = validate_training_set((ts.x[perm], ts.y[perm]), n=n)
        for q in queries:
            a = evaluate_gradient(ts, q, combinations=c)
            b = evaluate_gradient(shuffled, q, combinations=c)
            assert b.y_hat == a.y_hat
            assert perm[b.reference_index] == a.reference_index

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_batch_equals_scalar_calls(self, seed, n):
        ts, queries, _ = uniform_set(seed, n, 40)
        for c in (1, 4):
            batch = evaluate_batch(ts, queries, combinations=c)
            assert batch == [evaluate_gradient(ts, q, combinations=c).y_hat for q in queries]

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_simplex_reference_is_located_reference(self, seed, n):
        ts, queries, _ = uniform_set(seed, n, 30)
        for q in queries:
            assert select_simplex(ts, q).reference == locate_reference(ts, q)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_mesh_simplex_reference_is_located_reference(self, seed):
        nodes = np.linspace(0.0, 1.0, 5)
        ts, mesh = mesh_training(nodes, 3, lambda x: x.sum(axis=1))
        for q in np.random.default_rng(seed).uniform(-0.1, 1.1, (4, 3)):
            assert select_simplex(ts, q, mesh).reference == locate_reference(ts, q, mesh)


def _plan_or_error(build):
    try:
        return build()
    except GradsurfError as exc:
        return type(exc)


class TestScatteredPlanOracle:
    """The plan equals the one the per-use loops built, or both raise alike."""

    def check(self, x, q, c):
        x = x[np.sort(np.unique(x, axis=0, return_index=True)[1])]
        n = x.shape[1]
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, np.zeros(len(x))), n=n)
        got = _plan_or_error(lambda: [
            (s.reference, s.auxiliaries) for s in enumerate_combinations(ts, q, c).simplexes
        ])
        want = _plan_or_error(lambda: oracle_scattered_plan(ts, q, c))
        assert got == want

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4),
           c=st.sampled_from([1, 2, 4, 16]), npoints=st.integers(30, 80))
    @settings(max_examples=40, deadline=None)
    def test_uniform_sets(self, seed, n, c, npoints):
        rng = np.random.default_rng(seed)
        self.check(rng.uniform(0.0, 1.0, (npoints, n)), rng.uniform(0.0, 1.0, n), c)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4),
           c=st.sampled_from([1, 2, 4, 16]), npoints=st.integers(5, 60))
    @settings(max_examples=40, deadline=None)
    def test_rounded_sets_with_ties(self, seed, n, c, npoints):
        rng = np.random.default_rng(seed)
        x = np.round(rng.uniform(0.0, 1.0, (npoints, n)), 1)
        self.check(x, np.round(rng.uniform(0.0, 1.0, n), 1), c)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4),
           c=st.integers(1, 30), npoints=st.integers(2, 20),
           rounded=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_small_sets_reach_the_subset_fill(self, seed, n, c, npoints, rounded):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (npoints, n))
        self.check(np.round(x, 1) if rounded else x, rng.uniform(0.0, 1.0, n), c)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 4),
           c=st.sampled_from([1, 2, 4]), run=st.integers(2, 14))
    @settings(max_examples=40, deadline=None)
    def test_collinear_nearest_points(self, seed, n, c, run):
        # the nearest ``run`` points lie on one line through the query, so the
        # simplex needs candidates deep in the 3n budget or beyond it
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.4, 0.6, n)
        line = q + np.outer(rng.uniform(-0.05, 0.05, run), rng.normal(size=n))
        far = rng.uniform(0.0, 1.0, (30, n))
        far = far[np.abs(far - q).max(axis=1) > 0.3]
        self.check(np.vstack([line, far]), q, c)


def test_is_extrapolation():
    x = np.vstack([np.zeros(2), np.eye(2)])
    ts = validate_training_set((x, np.zeros(3)), n=2)
    assert not is_extrapolation(ts, np.array([0.2, 0.2]))
    assert is_extrapolation(ts, np.array([1.5, 0.0]))
