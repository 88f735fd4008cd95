"""Core domain types: training sets, mesh indexing, query validation, estimates."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Mapping, Optional, Sequence

import numpy as np


class GradsurfError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GradsurfError):
    """Invalid dataset or query input."""


class TooFewPoints(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NonFiniteValue(ValidationError):
    pass


class DuplicatePoint(ValidationError):
    pass


class EmptyTrainingSet(ValidationError):
    pass


class EmptyInput(ValidationError):
    pass


class SingularSystem(GradsurfError):
    """Pivot collapsed below the relative threshold; neighborhood is degenerate."""


class NoConvergence(GradsurfError):
    """Root finder failed: Newton diverged and no sign-changing bracket exists."""


class DegenerateNeighborhood(GradsurfError):
    """No nonsingular point combination found near the query."""


class InsufficientPoints(GradsurfError):
    """Fewer distinct point combinations available than requested."""


class ZeroWidthSegment(GradsurfError):
    """Two stencil points share the same coordinate along the stencil axis."""


@dataclass(frozen=True)
class TrainingSet:
    """Immutable collection of N-dimensional predictor points with outcomes.

    Predictors are stored as a (npoints, n) array, outcomes as
    (npoints, layer_count).  Construct through ``validate_training_set``.
    """

    x: np.ndarray
    y: np.ndarray
    n: int
    layer_count: int

    def __post_init__(self):
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def npoints(self) -> int:
        return self.x.shape[0]

    @cached_property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        box = np.stack([self.x.min(axis=0), self.x.max(axis=0)])
        box.setflags(write=False)
        return box[0], box[1]

    @cached_property
    def axis_ranges(self) -> np.ndarray:
        """Per-axis coordinate spans, floored at 1 where an axis is constant."""
        lo, hi = self.bounding_box
        spans = hi - lo
        spans[spans == 0.0] = 1.0
        spans.setflags(write=False)
        return spans

    @cached_property
    def columns(self) -> np.ndarray:
        """``x`` as a C-contiguous (n, npoints) copy, one row per axis."""
        columns = np.ascontiguousarray(self.x.T)
        columns.setflags(write=False)
        return columns

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrainingSet):
            return NotImplemented
        return (
            self.n == other.n
            and self.layer_count == other.layer_count
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
        )


def validate_training_set(points, n: int, layer_count: int = 1) -> TrainingSet:
    """Validate a pair of arrays ``(x, y)`` and return an immutable TrainingSet.

    ``x`` holds one row of n predictors per point and ``y`` one row of
    ``layer_count`` outcomes; a 1-D array is one column.  Any other input
    raises ValidationError.
    """
    if not (isinstance(points, tuple) and len(points) == 2):
        raise ValidationError("training data must be a pair of arrays (x, y)")
    try:
        x, y = (np.asarray(v, dtype=float) for v in points)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"training data must be arrays of numbers: {exc}") from exc
    if not (1 <= x.ndim <= 2 and 1 <= y.ndim <= 2):
        raise DimensionMismatch(f"x and y need one or two axes, got shapes {x.shape}, {y.shape}")
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if y.ndim == 1:
        y = y.reshape(-1, 1)

    if x.shape[0] == 0:
        raise EmptyTrainingSet("no training points supplied")
    if x.shape[1] != n:
        raise DimensionMismatch(f"expected {n} predictors, got {x.shape[1]}")
    if y.shape[1] != layer_count:
        raise DimensionMismatch(
            f"expected {layer_count} outcome layer(s), got {y.shape[1]}"
        )
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatch("predictor and outcome row counts differ")
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise NonFiniteValue("training data contains non-finite values")
    if x.shape[0] < n + 1:
        raise TooFewPoints(
            f"need at least n+1 = {n + 1} points, got {x.shape[0]}"
        )

    # exact-equality duplicate check; near-duplicates surface later as
    # solver degeneracy
    _, counts = np.unique(x, axis=0, return_counts=True)
    if (counts > 1).any():
        raise DuplicatePoint("two points share identical coordinates")

    return TrainingSet(x=x.copy(), y=y.copy(), n=n, layer_count=layer_count)


def _query_vector(query, training: TrainingSet, layer: int = 0) -> np.ndarray:
    """``query`` as a float array of exactly n coordinates, for an integer
    outcome layer of ``training``; the shape and the layer are all that the
    single-query entry points check, which keeps them cheap."""
    query = np.asarray(query, dtype=float)
    n = training.n
    if query.shape != (n,):
        raise DimensionMismatch(f"query must have {n} coordinates, got shape {query.shape}")
    if not (isinstance(layer, Integral) and 0 <= layer < training.layer_count):
        raise ValidationError(
            f"layer must lie in [0, {training.layer_count}) and be an integer, got {layer!r}"
        )
    return query


def _query_rows(queries, n: int) -> np.ndarray:
    """``queries`` as an (M, n) float array; an empty input is (0, n)."""
    queries = np.asarray(queries, dtype=float)
    if queries.size == 0:
        queries = queries.reshape(0, n)
    if queries.shape[1:] != (n,):
        raise DimensionMismatch(f"queries must be an (M, {n}) array, got shape {queries.shape}")
    return queries


def validate_query(coords, n: int) -> np.ndarray:
    q = np.atleast_1d(np.asarray(coords, dtype=float))
    if q.shape != (n,):
        raise DimensionMismatch(f"query must have {n} coordinates, got {q.shape}")
    if not np.isfinite(q).all():
        raise NonFiniteValue("query contains non-finite values")
    return q


@dataclass(frozen=True)
class MeshIndex:
    """Structured view of a TrainingSet as a rectangular (possibly jittered) grid.

    ``axes`` holds the nominal node positions per axis.  For a complete grid
    stored in row-major node order no explicit mapping is needed; sparse
    grids carry a dict from grid multi-index to point index.
    """

    axes: tuple
    jitter_fraction: float = 0.0
    index_map: Optional[Mapping[tuple, int]] = None

    def __post_init__(self):
        for nodes in self.axes:
            if len(nodes) < 2:
                raise ValidationError("each mesh axis needs at least 2 nodes")
            if not np.all(np.diff(nodes) > 0):
                raise ValidationError("mesh axis nodes must strictly increase")
        if not (0.0 <= self.jitter_fraction < 0.5):
            raise ValidationError("jitter fraction must lie in [0, 0.5)")

    @property
    def n(self) -> int:
        return len(self.axes)

    @cached_property
    def shape(self) -> tuple:
        return tuple(len(a) for a in self.axes)

    @cached_property
    def _axis_lists(self) -> tuple:
        # plain lists make scalar bisection much cheaper than array search
        return tuple([float(v) for v in a] for a in self.axes)

    def point_at(self, grid_idx: Sequence[int]) -> Optional[int]:
        """Training-point index for a grid multi-index, or None if absent
        (off the grid, or a hole of a sparse grid).  An index of other than n
        entries raises DimensionMismatch."""
        if len(grid_idx) != len(self.axes):
            raise DimensionMismatch(
                f"grid index must have {len(self.axes)} entries, got {len(grid_idx)}"
            )
        if self.index_map is not None:
            return self.index_map.get(tuple(grid_idx))
        flat = 0
        for i, m in zip(grid_idx, self.shape):
            if not (0 <= i < m):
                return None
            flat = flat * m + i
        return flat

    def cell_of(self, query: np.ndarray) -> tuple:
        """Grid multi-index of the node at the lower corner of the query's cell.

        A query sitting exactly on a node resolves to that node; out-of-range
        coordinates clamp to the boundary node.
        """
        idx = []
        for a, nodes in enumerate(self._axis_lists):
            j = bisect_right(nodes, query[a]) - 1
            idx.append(min(max(j, 0), len(nodes) - 1))
        return tuple(idx)

    def cells_of(self, queries: np.ndarray) -> np.ndarray:
        """``cell_of`` of each row of an (M, n) query array, as an (M, n) array."""
        cells = np.empty(queries.shape, dtype=int)
        for nodes, axes in self._axis_groups:
            cells[:, axes] = nodes.searchsorted(queries[:, axes], side="right") - 1
        return np.minimum(np.maximum(cells, 0), np.array(self.shape) - 1)

    @cached_property
    def _axis_groups(self) -> tuple:
        """(nodes, axes) pairs: the axes whose nodes are equal share one search."""
        groups = {}
        for a, nodes in enumerate(self.axes):
            nodes = np.asarray(nodes, dtype=float)
            groups.setdefault(nodes.tobytes(), (nodes, []))[1].append(a)
        return tuple(groups.values())


@dataclass(frozen=True)
class Estimate:
    """Per-query result with provenance and solver diagnostics."""

    y_hat: float
    method: str  # "gradient" | "smooth"
    reference_index: int
    combinations_used: int = 1
    newton_iterations: tuple = ()
    flags: tuple = ()
    extrapolated: bool = False

    def __post_init__(self):
        if not np.isfinite(self.y_hat):
            raise NonFiniteValue("estimate is not finite")
        if self.combinations_used < 1:
            raise ValidationError("combination count must be >= 1")


@dataclass(frozen=True, eq=False)
class EstimateBatch:
    """What a method's batch function found for M queries and L outcome layers.

    Row i, layer l holds what the method's single-query function returns for
    query i and layer l.  The smooth method fills one Newton iteration
    count and one flag per axis; the gradient method has neither, so those
    arrays are (M, L, 0).  ``combinations_used`` counts the point
    combinations each query's estimates average, as ``Estimate`` does.  A
    query whose single-query evaluation raised has its error in ``errors``
    (keyed by row, in input order), NaN estimates, reference -1 and 0
    combinations used.
    """

    y_hat: np.ndarray  # (M, L)
    newton_iterations: np.ndarray  # (M, L, n) or (M, L, 0)
    flags: np.ndarray  # (M, L, n) or (M, L, 0) flag strings
    reference_index: np.ndarray  # (M,)
    combinations_used: np.ndarray  # (M,)
    extrapolated: np.ndarray  # (M,)
    errors: dict


def _finish_batch(training, queries, each_layer, redo, y_hat, reference,
                  combinations_used, newton_iterations, flags) -> EstimateBatch:
    """The kernel's arrays as an EstimateBatch, with each query in ``redo``
    handed to ``each_layer(query)``, the single-query path's Estimate of every
    layer in order, so that its result or error is that path's."""
    errors = {}
    for i in np.flatnonzero(redo):
        try:
            for l, est in enumerate(each_layer(queries[i])):
                y_hat[i, l] = est.y_hat
                newton_iterations[i, l] = est.newton_iterations
                flags[i, l] = est.flags
                reference[i] = est.reference_index
                combinations_used[i] = est.combinations_used
        except GradsurfError as exc:
            errors[int(i)] = exc
            y_hat[i], reference[i], combinations_used[i] = np.nan, -1, 0
    lo, hi = training.bounding_box
    return EstimateBatch(
        y_hat=y_hat, newton_iterations=newton_iterations, flags=flags,
        reference_index=reference, combinations_used=combinations_used,
        extrapolated=((queries < lo) | (queries > hi)).any(axis=1), errors=errors,
    )
