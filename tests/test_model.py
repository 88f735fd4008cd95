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
    validate_query,
    validate_training_set,
)


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

    def test_axis_validation(self):
        with pytest.raises(ValidationError):
            MeshIndex(axes=(np.array([0.0]),))
        with pytest.raises(ValidationError):
            MeshIndex(axes=(np.array([0.0, 0.0, 1.0]),))
        with pytest.raises(ValidationError):
            MeshIndex(axes=(np.array([0.0, 1.0]),), jitter_fraction=0.5)


class TestEstimate:
    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteValue):
            Estimate(y_hat=np.nan, method="gradient", reference_index=0)

    def test_combination_count_validated(self):
        with pytest.raises(ValidationError):
            Estimate(y_hat=1.0, method="gradient", reference_index=0,
                     combinations_used=0)
