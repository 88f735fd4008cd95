import pickle
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsurf import (
    DimensionMismatch,
    DuplicatePoint,
    EmptyTrainingSet,
    Estimate,
    MeshIndex,
    NonFiniteValue,
    TooFewPoints,
    TrainingSet,
    ValidationError,
    evaluate_batch,
    evaluate_gradient,
    evaluate_gradient_batch,
    evaluate_smooth,
    evaluate_smooth_batch,
    locate_reference,
    select_simplex,
    validate_query,
    validate_training_set,
)
from gradsurf import model
from gradsurf.bench import TEST_FUNCTIONS, gen_local_cell_dataset
from gradsurf.neighbors import axis_stencil
from tests_oracles import oracle_cell_of


class TestValidateTrainingSet:
    def test_minimum_count_accepted(self):
        x = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        ts = validate_training_set((x, [1.0, 2.0, 3.0, 4.0]), n=3)
        assert ts.npoints == 4
        assert ts.n == 3
        assert ts.layer_count == 1

    def test_below_minimum_rejected(self):
        x = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        with pytest.raises(TooFewPoints):
            validate_training_set((x, [1.0, 2.0, 3.0]), n=3)

    def test_duplicate_coordinates_rejected(self):
        x = [(0, 0), (0, 0), (1, 0), (0, 1)]
        with pytest.raises(DuplicatePoint):
            validate_training_set((x, [1.0, 2.0, 3.0, 4.0]), n=2)

    @given(n=st.integers(1, 99), extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
           pool=st.integers(1, 4), copy=st.sampled_from([None, "exact", "signed zeros", "nudged"]))
    @settings(max_examples=300, deadline=None)
    def test_duplicate_verdict_equals_np_unique(self, n, extra, seed, pool, copy):
        rng = np.random.default_rng(seed)
        x = rng.choice([0.0, -0.0, 1.0, -2.5, 0.125][:pool + 1], size=(n + 1 + extra, n))
        x[rng.random(x.shape) < 0.3] = rng.uniform(-1.0, 1.0)
        if copy is not None:
            i, j = rng.choice(len(x), 2, replace=False)
            x[j] = x[i]
            if copy == "signed zeros":
                x[j][x[j] == 0.0] *= -1.0
            elif copy == "nudged":
                k = rng.integers(n)
                x[j, k] = np.nextafter(x[j, k], np.inf)
        expected = bool((np.unique(x, axis=0, return_counts=True)[1] > 1).any())
        try:
            validate_training_set((x, np.zeros(len(x))), n=n)
        except DuplicatePoint:
            assert expected
        else:
            assert not expected

    def test_signed_zeros_are_one_point(self):
        x = [(0.0, 1.0), (1.0, 0.0), (-0.0, 1.0)]
        with pytest.raises(DuplicatePoint):
            validate_training_set((x, [1.0, 2.0, 3.0]), n=2)

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            validate_training_set((np.empty((0, 2)), np.empty((0, 1))), n=2)

    def test_dimension_mismatch(self):
        x = np.zeros((4, 3))
        x[1:, :] = np.eye(3)
        with pytest.raises(DimensionMismatch):
            validate_training_set((x, np.arange(4.0)), n=2)

    def test_nonfinite_rejected(self):
        x = np.zeros((4, 3))
        x[1:, :] = np.eye(3)
        y = np.array([1.0, np.nan, 2.0, 3.0])
        with pytest.raises(NonFiniteValue):
            validate_training_set((x, y), n=3)

    def test_layered_outcomes(self):
        x = np.vstack([np.zeros(2), np.eye(2)])
        y = np.arange(6.0).reshape(3, 2)
        ts = validate_training_set((x, y), n=2, layer_count=2)
        assert ts.layer_count == 2
        assert ts.y.shape == (3, 2)

    def test_only_a_pair_of_arrays_is_accepted(self):
        x = np.vstack([np.zeros(2), np.eye(2)])
        ts = validate_training_set((x, np.arange(3.0)), n=2)
        pairs = [(row, float(v)) for row, v in zip(x, range(3))]
        for points in (ts, pairs, [x, np.arange(3.0)], (x,), (x, np.arange(3.0), x), None, 3.0):
            with pytest.raises(ValidationError, match="pair of arrays"):
                validate_training_set(points, n=2)

    @pytest.mark.parametrize("x_shape,y_shape", [((6, 2, 2), (6,)), ((6, 2), (6, 1, 1)),
                                                 ((), (6,)), ((6, 2), ())])
    def test_arrays_with_other_than_one_or_two_axes_are_rejected(self, x_shape, y_shape):
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionMismatch, match="need one or two axes"):
            validate_training_set((rng.uniform(size=x_shape), rng.uniform(size=y_shape)), n=2)

    @pytest.mark.parametrize("x,y", [
        ([[0, 0], [1, 0], [0, 1]], ["a", "b", "c"]),
        ([[0, 0], [1, 0], [0]], [1.0, 2.0, 3.0]),  # ragged
        ([[0, 0], [1, 0], [0, 1j]], [1.0, 2.0, 3.0]),
        ([[0, 0], [1, 0], [0, object()]], [1.0, 2.0, 3.0]),
    ])
    def test_values_that_are_not_floats_are_rejected(self, x, y):
        with pytest.raises(ValidationError, match="arrays of numbers"):
            validate_training_set((x, y), n=2)

    def test_arrays_are_immutable(self):
        x = np.vstack([np.zeros(2), np.eye(2)])
        ts = validate_training_set((x, np.arange(3.0)), n=2)
        with pytest.raises(ValueError):
            ts.x[0, 0] = 5.0
        with pytest.raises(ValueError):
            ts.y[0, 0] = 5.0

    def test_dataset_facts_computed_once_and_immutable(self):
        x = np.array([[0.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
        ts = validate_training_set((x, np.zeros(3)), n=2)
        assert ts.bounding_box is ts.bounding_box
        assert ts.axis_ranges is ts.axis_ranges
        lo, hi = ts.bounding_box
        assert lo.tolist() == [0.0, 1.0] and hi.tolist() == [2.0, 1.0]
        assert ts.axis_ranges.tolist() == [2.0, 1.0]  # the constant axis floors at 1
        for fact in (lo, hi, ts.axis_ranges):
            with pytest.raises(ValueError):
                fact[0] = 5.0

    @given(
        n=st.integers(1, 4),
        extra=st.integers(0, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_validated_set_invariants(self, n, extra, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, (n + 1 + extra, n))
        y = rng.uniform(0, 1, len(x))
        ts = validate_training_set((x, y), n=n)
        assert ts.npoints >= n + 1
        assert ts.x.shape == (len(x), n)
        assert ts.y.shape == (len(x), 1)
        lo, hi = ts.bounding_box
        assert (lo <= hi).all()
        assert (ts.axis_ranges > 0).all()


class TestPickledTrainingSet:
    """A pickle carries the data only, never what was derived from it."""

    def test_a_used_set_pickles_as_a_fresh_one(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(0.0, 1.0, (2000, 2)), rng.uniform(0.0, 1.0, (2000, 2))
        ts = validate_training_set((x, y), n=2, layer_count=2)
        fresh = pickle.dumps(ts)
        evaluate_gradient_batch(ts, rng.uniform(0.1, 0.9, (20, 2)))
        assert {"bounding_box", "axis_ranges", "columns", "buckets"} <= vars(ts).keys()
        assert pickle.dumps(ts) == fresh
        back = pickle.loads(fresh)
        assert back == ts and (back.n, back.layer_count) == (2, 2)
        assert not (back.x.flags.writeable or back.y.flags.writeable)
        assert not {"columns", "buckets"} & vars(back).keys()


class TestValidateQuery:
    def test_valid(self):
        q = validate_query([1.0, 2.0], n=2)
        assert q.shape == (2,)

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            validate_query([1.0, 2.0, 3.0], n=2)

    def test_nonfinite(self):
        with pytest.raises(NonFiniteValue):
            validate_query([1.0, np.inf], n=2)


class TestMeshIndex:
    def test_cell_of_interior(self):
        nodes = np.array([0.0, 1.0, 2.0])
        mesh = MeshIndex(axes=(nodes, nodes, nodes))
        assert mesh.cell_of(np.array([0.4, 1.7, 0.3])) == (0, 1, 0)

    def test_query_on_node_resolves_to_node(self):
        nodes = np.array([0.0, 1.0, 2.0])
        mesh = MeshIndex(axes=(nodes,))
        assert mesh.cell_of(np.array([1.0])) == (1,)

    def test_out_of_range_clamps(self):
        nodes = np.array([0.0, 1.0, 2.0])
        mesh = MeshIndex(axes=(nodes,))
        assert mesh.cell_of(np.array([-3.0])) == (0,)
        assert mesh.cell_of(np.array([9.0])) == (2,)

    def test_row_major_point_at(self):
        nodes = np.array([0.0, 1.0, 2.0])
        mesh = MeshIndex(axes=(nodes, nodes))
        assert mesh.point_at((0, 0)) == 0
        assert mesh.point_at((0, 2)) == 2
        assert mesh.point_at((1, 0)) == 3
        assert mesh.point_at((2, 2)) == 8
        assert mesh.point_at((3, 0)) is None

    def test_sparse_index_map(self):
        nodes = np.array([0.0, 1.0, 2.0])
        mesh = MeshIndex(axes=(nodes, nodes), index_map={(1, 1): 0, (1, 2): 1})
        assert mesh.point_at((1, 1)) == 0
        assert mesh.point_at((0, 0)) is None

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("grid_idx", [(1,), (1, 2, 3), (), [1], np.array([1, 2, 0])])
    def test_index_of_the_wrong_length_is_rejected(self, sparse, grid_idx):
        # a complete 4x4 grid used to read (1,) as row 1 and (1, 2, 3) as row 6
        nodes = np.linspace(0.0, 1.0, 4)
        index_map = {(i, j): 4 * i + j for i in range(4) for j in range(4)} if sparse else None
        mesh = MeshIndex(axes=(nodes, nodes), index_map=index_map)
        with pytest.raises(DimensionMismatch, match="grid index must have 2 entries"):
            mesh.point_at(grid_idx)
        assert mesh.point_at((1, 2)) == 6

    @staticmethod
    def cube(sparse):
        """A 4x4x4 grid, complete or filed as a sparse map in uint8 entries."""
        nodes = np.linspace(0.0, 1.0, 4)
        index_map = {g: 16 * g[0] + 4 * g[1] + g[2]
                     for g in np.ndindex(4, 4, 4)} if sparse else None
        return MeshIndex(axes=(nodes,) * 3, index_map=index_map)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("grid_idx", [(1.5, 2, 0), (1.0, 2, 0), [1, 2.0, 0],
                                          np.array([1.0, 2.0, 0.0]), (1, "2", 0)])
    def test_index_entry_that_is_not_an_integer_is_rejected(self, sparse, grid_idx):
        # a complete grid used to return 32.0 for (1.5, 2, 0) and 24.0 for
        # (1.0, 2, 0), and a sparse one to raise a bare TypeError
        mesh = self.cube(sparse)
        with pytest.raises(ValidationError, match="grid index entries must be integers"):
            mesh.point_at(grid_idx)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("grid_idx", [(1, 2, 0), [1, 2, 0], (np.int64(1), np.uint8(2), 0),
                                          np.array([1, 2, 0]), np.array([1, 2, 0], np.uint8)])
    def test_numpy_integer_entries_are_accepted(self, sparse, grid_idx):
        row = self.cube(sparse).point_at(grid_idx)
        assert row == 24 and type(row) is int

    @pytest.mark.parametrize("query", [[0.5], [0.5, 1.5, 9.0], 0.5])
    def test_query_of_the_wrong_length_is_rejected(self, query):
        # cell_of used to raise IndexError for a short query and to read a
        # long one's first entries; a one-row cells_of broadcast a short one
        nodes = np.arange(3.0)
        x = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
        ts = validate_training_set((x, x.sum(axis=1)), n=2)
        mesh = MeshIndex(axes=(nodes, nodes))
        for lookup in (mesh.cell_of, lambda q: locate_reference(ts, q, mesh),
                       lambda q: select_simplex(ts, q, mesh)):
            with pytest.raises(DimensionMismatch, match=r"queries must be an \(M, 2\) array"):
                lookup(query)

    def test_axis_validation(self):
        with pytest.raises(ValidationError):
            MeshIndex(axes=(np.array([0.0]),))
        with pytest.raises(ValidationError):
            MeshIndex(axes=(np.array([0.0, 0.0, 1.0]),))
        with pytest.raises(ValidationError):
            MeshIndex(axes=(np.array([0.0, 1.0]),), jitter_fraction=0.5)


class TestCellsOf:
    """``cells_of`` and ``cell_of``, a one-row ``cells_of``, give the cells
    that bisection of each axis gives (``oracle_cell_of``), whatever the axes
    share, and the per-mesh facts they and the batch kernels build are
    read-only."""

    @staticmethod
    def mesh(rng, n, distinct, kind):
        """A mesh whose n axes draw from ``distinct`` node arrays (equal arrays
        share one search, in slices or scattered index arrays), complete,
        sparse or jittered."""
        arrays = [np.cumsum(rng.uniform(0.5, 2.0, rng.integers(2, 7))) for _ in range(distinct)]
        axes = tuple(arrays[i] for i in rng.integers(0, distinct, n))
        if kind == "sparse":
            shape = tuple(len(a) for a in axes)
            grid = np.stack(np.unravel_index(np.arange(prod(shape)), shape), axis=1)
            filed = rng.permutation(np.flatnonzero(rng.random(len(grid)) < 0.6))
            return MeshIndex(axes, grid=grid[filed], rows=np.arange(len(filed)))
        return MeshIndex(axes, jitter_fraction=0.3 if kind == "jittered" else 0.0)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), distinct=st.integers(1, 3),
           kind=st.sampled_from(["complete", "sparse", "jittered"]), count=st.integers(0, 12))
    def test_rows_equal_cell_of(self, seed, n, distinct, kind, count):
        rng = np.random.default_rng(seed)
        mesh = self.mesh(rng, n, distinct, kind)
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0]
        queries = np.empty((count, n))
        for a, nodes in enumerate(mesh.axes):
            pick = rng.integers(0, 5, count)
            on_node = nodes[rng.integers(0, len(nodes), count)]
            inside = rng.uniform(nodes[0], nodes[-1], count)
            outside = np.where(rng.random(count) < 0.5, nodes[0] - 1.0, nodes[-1] + 1.0)
            special = rng.choice(specials, count)
            queries[:, a] = np.choose(pick, [on_node, inside, outside, special, nodes[-1]])
        cells = mesh.cells_of(queries)
        want = [oracle_cell_of(mesh, q) for q in queries]
        assert cells.shape == (count, n)
        assert [tuple(c) for c in cells.tolist()] == want
        assert [mesh.cell_of(q) for q in queries] == want

    def test_cached_facts_are_read_only(self):
        nodes, other = np.arange(4.0), np.arange(5.0)
        for mesh in (MeshIndex((nodes, other, nodes)),
                     MeshIndex((nodes, other, nodes), grid=[[0, 0, 0], [3, 4, 3]], rows=[0, 1])):
            mesh.cells_of(np.zeros((1, 3)))
            facts = [mesh._shape_array, mesh._strides, model._replaced_entries(3, 4)]
            for inner, axes in mesh._axis_groups:
                facts += [inner] + ([axes] if isinstance(axes, np.ndarray) else [])
            assert [type(axes) for _, axes in mesh._axis_groups] == [np.ndarray, slice]
            for fact in facts:
                with pytest.raises(ValueError, match="read-only"):
                    fact[0] = 1

    def test_a_used_mesh_pickles_as_a_fresh_one(self):
        ts, mesh, query, _, _ = gen_local_cell_dataset(TEST_FUNCTIONS["H1"], 9, 20,
                                                       np.random.default_rng(3))
        fresh = pickle.dumps(mesh)
        evaluate_gradient_batch(ts, query[None, :], mesh)
        evaluate_smooth_batch(ts, query[None, :], mesh)
        assert {"_axis_groups", "_shape_array"} <= vars(mesh).keys()
        assert pickle.dumps(mesh) == fresh
        back = pickle.loads(fresh)
        assert back == mesh and not {"_axis_groups", "_shape_array"} & vars(back).keys()
        assert evaluate_gradient_batch(ts, query[None, :], back).y_hat.tobytes() == (
            evaluate_gradient_batch(ts, query[None, :], mesh).y_hat.tobytes())


def three_point_set():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return validate_training_set((x, x.sum(axis=1)), n=2)


ENTRY_POINTS = {
    "evaluate_gradient": lambda ts, q, mesh: evaluate_gradient(ts, q, mesh=mesh),
    "evaluate_gradient C=2": lambda ts, q, mesh: evaluate_gradient(ts, q, mesh=mesh,
                                                                   combinations=2),
    "evaluate_gradient_batch": lambda ts, q, mesh: evaluate_gradient_batch(ts, [q], mesh),
    "evaluate_gradient_batch C=2": lambda ts, q, mesh: evaluate_gradient_batch(
        ts, [q], mesh, combinations=2),
    "evaluate_smooth": lambda ts, q, mesh: evaluate_smooth(ts, q, mesh),
    "evaluate_smooth_batch": lambda ts, q, mesh: evaluate_smooth_batch(ts, [q], mesh),
    "bench.evaluate_batch gradient": lambda ts, q, mesh: evaluate_batch(
        ts, [q], mesh=mesh, method="gradient"),
    "bench.evaluate_batch smooth": lambda ts, q, mesh: evaluate_batch(
        ts, [q], mesh=mesh, method="smooth"),
    "locate_reference": lambda ts, q, mesh: locate_reference(ts, q, mesh),
    "axis_stencil": lambda ts, q, mesh: axis_stencil(ts, mesh, (0, 0), 0),
}


class TestSparseMeshChecks:
    """A sparse map is checked once: its form at construction, its rows and
    nodes where it meets a training set, each with ValidationError."""

    nodes = np.array([0.0, 1.0])

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("index_map", [
        {(0, 0): 0, (1, 0): 1, (0, 1): 7},  # a row past the three points
        {(0, 0): 0, (1, 0): 1, (0, 2): 2},  # a node past the end of its axis
    ])
    def test_every_entry_point_refuses_a_map_that_does_not_fit(self, entry, index_map):
        mesh = MeshIndex(axes=(self.nodes, self.nodes), index_map=index_map)
        with pytest.raises(ValidationError, match="the mesh files"):
            ENTRY_POINTS[entry](three_point_set(), np.array([0.25, 0.25]), mesh)

    def test_complete_grid_of_more_nodes_than_points_is_refused(self):
        mesh = MeshIndex(axes=(self.nodes, np.array([0.0, 1.0, 2.0])))
        with pytest.raises(ValidationError, match="files row 5, but the training set has 3"):
            evaluate_gradient_batch(three_point_set(), [[0.5, 0.5]], mesh)

    @pytest.mark.parametrize("index_map, match", [
        ({(0, 0): 0, (1, 0): 1, (0, 1): -1}, "every row must be a non-negative integer"),
        ({(0, 0): 0, (1, 0): 1, (0, 1): 0.5}, "every row must be a non-negative integer"),
        ({(0, 0): 0, (1, 0): 1, (0, 1): "2"}, "every row must be a non-negative integer"),
        ({(0, 0): 0, (1, 0): 1, (1,): 2}, r"grid index \(1,\) must be a tuple of 2 entries"),
        ({(0, 0): 0, (1, 0, 0): 1}, r"grid index \(1, 0, 0\) must be a tuple of 2 entries"),
        ({(0, 0): 0, (-1, 0): 1}, "every grid index entry must be a non-negative integer"),
        ({(0, 0): 0, (0.5, 0): 1}, "every grid index entry must be a non-negative integer"),
    ])
    def test_malformed_map_is_refused_at_construction(self, index_map, match):
        with pytest.raises(ValidationError, match=match):
            MeshIndex(axes=(self.nodes, self.nodes), index_map=index_map)

    @pytest.mark.parametrize("grid, rows, match", [
        ([[0, 0], [1, 0], [0, 0]], [0, 1, 2], r"node \(0, 0\) is filed twice"),
        ([[0, 0], [1, 0]], [0, 1, 2], r"a sparse grid needs a \(K, 2\) grid and \(K,\) rows"),
        ([[0, 0, 0]], [0], r"a sparse grid needs a \(K, 2\) grid"),
        ([[0, 0], [1, 0]], [0, 1.5], "every row must be a non-negative integer"),
        ([[0, 0], [1, 0]], None, "a sparse grid needs both grid and rows"),
    ])
    def test_malformed_arrays_are_refused_at_construction(self, grid, rows, match):
        with pytest.raises(ValidationError, match=match):
            MeshIndex(axes=(self.nodes, self.nodes), grid=grid, rows=rows)

    def test_map_and_arrays_together_are_refused(self):
        with pytest.raises(ValidationError, match="as index_map or as grid and rows"):
            MeshIndex(axes=(self.nodes,), index_map={(0,): 0}, grid=[[0]], rows=[0])

    def test_grid_is_stored_in_the_narrowest_unsigned_dtype(self):
        for m, dtype in ((2, np.uint8), (256, np.uint8), (257, np.uint16)):
            mesh = MeshIndex(axes=(np.arange(float(m)),), grid=[[0], [m - 1]], rows=[0, 1])
            assert mesh.grid.dtype == dtype and mesh.rows.dtype == int
            assert mesh.point_at((m - 1,)) == 1 and mesh.point_at((m,)) is None
            assert mesh.point_at((-1,)) is None and mesh.point_at(np.array([m - 1])) == 1


class TestMeshEquality:
    nodes = np.array([0.0, 1.0, 2.0])
    index_map = {(0, 0): 2, (2, 1): 0, (1, 1): 1}

    def test_arrays_and_dict_of_one_map_are_equal(self):
        grid, rows = list(self.index_map), list(self.index_map.values())
        from_dict = MeshIndex(axes=(self.nodes, self.nodes), index_map=self.index_map)
        from_arrays = MeshIndex(axes=(self.nodes, self.nodes.copy()),
                                grid=np.array(grid[::-1]), rows=np.array(rows[::-1]))
        assert from_dict == from_arrays and not from_dict != from_arrays
        assert from_arrays.index_map == self.index_map

    def test_any_difference_is_unequal(self):
        mesh = MeshIndex(axes=(self.nodes, self.nodes), index_map=self.index_map)
        assert mesh != MeshIndex(axes=(self.nodes, self.nodes),
                                 index_map={**self.index_map, (0, 0): 3})
        assert mesh != MeshIndex(axes=(self.nodes, self.nodes), index_map={(0, 0): 2})
        assert mesh != MeshIndex(axes=(self.nodes, self.nodes), jitter_fraction=0.1,
                                 index_map=self.index_map)
        assert mesh != MeshIndex(axes=(self.nodes, self.nodes + 1.0), index_map=self.index_map)
        assert mesh != MeshIndex(axes=(self.nodes, self.nodes))
        assert mesh != "mesh"

    def test_complete_grids(self):
        assert MeshIndex(axes=(self.nodes,)) == MeshIndex(axes=(self.nodes.copy(),))
        assert MeshIndex(axes=(self.nodes,)) != MeshIndex(axes=(self.nodes, self.nodes))


class TestEstimate:
    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteValue):
            Estimate(y_hat=np.nan, method="gradient", reference_index=0)

    def test_combination_count_validated(self):
        with pytest.raises(ValidationError):
            Estimate(y_hat=1.0, method="gradient", reference_index=0,
                     combinations_used=0)
