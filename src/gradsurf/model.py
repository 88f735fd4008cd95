"""Core domain types: training sets, mesh indexing, query validation, estimates."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count
from math import gamma, pi, prod
from numbers import Integral
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

BUCKET_BALL_POINTS = 2  # times 3n + 1, the points a ball of one bucket's radius holds


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
    Facts derived from the points (``bounding_box``, ``axis_ranges``,
    ``columns``, ``buckets``) are built on first use and kept; a pickle
    holds the four fields only, so a set sent to a worker process costs
    the same before and after its first query.
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

    @cached_property
    def buckets(self) -> Buckets:
        """The points grouped by bucket of a uniform grid over the bounding
        box, ``_buckets_per_axis`` buckets along each axis (``_bucket_grid``)."""
        return _bucket_grid(self, _buckets_per_axis(self.npoints, self.n))

    def __reduce__(self):
        return type(self), (self.x, self.y, self.n, self.layer_count)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrainingSet):
            return NotImplemented
        return (
            self.n == other.n
            and self.layer_count == other.layer_count
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
        )


class Buckets(NamedTuple):
    """A training set's points grouped by bucket, in CSR form.

    Point i lies in the bucket of its ``_bucket_coordinates``, rounded down
    and capped at ``per_axis - 1``; buckets are numbered in row-major order.  Bucket b
    holds ``points[starts[b]:starts[b + 1]]``, in index order.
    """

    per_axis: int
    starts: np.ndarray  # (per_axis ** n + 1,)
    points: np.ndarray  # (npoints,)


def _ball_points(npoints: int, n: int, per_axis: int) -> float:
    """The points in a ball of one bucket's radius, were they spread evenly."""
    return npoints * pi ** (n / 2) / gamma(n / 2 + 1) / per_axis**n


def _buckets_per_axis(npoints: int, n: int) -> int:
    """The most buckets per axis, at least 1, that leave ``BUCKET_BALL_POINTS``
    times 3n + 1 points in a ball of one bucket's radius: as many as the
    nearest points a scattered query's base simplex reads."""
    least = BUCKET_BALL_POINTS * (3 * n + 1)
    per_axis = max(1, int((_ball_points(npoints, n, 1) / least) ** (1.0 / n)))
    while per_axis > 1 and _ball_points(npoints, n, per_axis) < least:
        per_axis -= 1
    while _ball_points(npoints, n, per_axis + 1) >= least:
        per_axis += 1
    return per_axis


def _bucket_coordinates(training: TrainingSet, per_axis: int, v: np.ndarray) -> np.ndarray:
    """The rows of ``v`` in range-normalised coordinates, in buckets:
    ``(v - lo) / axis_ranges * per_axis``."""
    u = v - training.bounding_box[0]
    u /= training.axis_ranges
    u *= per_axis
    return u


def _bucket_grid(training: TrainingSet, per_axis: int) -> Buckets:
    """``training``'s points grouped into ``per_axis`` buckets along each axis."""
    npoints, n = training.x.shape
    cells = _bucket_coordinates(training, per_axis, training.x).astype(np.intp)
    np.minimum(cells, per_axis - 1, out=cells)  # the top face belongs to the top bucket
    flat = cells @ per_axis ** np.arange(n - 1, -1, -1)
    starts = np.zeros(per_axis**n + 1, dtype=np.intp)
    np.cumsum(np.bincount(flat, minlength=per_axis**n), out=starts[1:])
    # by bucket, then index: the keys are distinct, so any sort is stable
    points = np.sort(flat * npoints + np.arange(npoints)) % npoints
    for v in (starts, points):
        v.setflags(write=False)
    return Buckets(per_axis, starts, points)


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

    # exact-equality duplicate check (0.0 and -0.0 are equal): with every
    # zero made +0.0, equal rows have equal bits and so equal random linear
    # keys; only where two keys are equal are the rows sorted, and equal rows
    # then sort next to each other.  Near-duplicates surface later as solver
    # degeneracy
    keys = (x + 0.0).view(np.int64) @ _node_weights(n, 0)
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        rows = x[np.lexsort(x.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
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


class MeshIndex:
    """Structured view of a TrainingSet as a rectangular (possibly jittered) grid.

    ``axes`` holds the nominal node positions per axis.  A complete grid
    files its points in row-major node order and needs no mapping.  A sparse
    grid files each point under a node: ``grid`` holds the (K, n) grid
    indices of its filed nodes, in the narrowest unsigned dtype that holds
    them and the axis lengths, and ``rows`` their (K,) training rows.  Give
    them as those two arrays, or as ``index_map``, a dict from grid
    multi-index to row.  Construction raises ValidationError for an index of
    other than n entries, an index entry or a row that is not a
    non-negative integer, and a node filed twice.  A node past the end of
    its axis, or a row past the end of a training set, is refused where the
    mesh meets that training set (``check_fit``).
    """

    def __init__(self, axes, jitter_fraction: float = 0.0,
                 index_map: Optional[Mapping[tuple, int]] = None, *,
                 grid=None, rows=None):
        self.axes = axes
        self.jitter_fraction = jitter_fraction
        for nodes in {id(nodes): nodes for nodes in axes}.values():  # each array once
            if len(nodes) < 2:
                raise ValidationError("each mesh axis needs at least 2 nodes")
            if not np.all(np.diff(nodes) > 0):
                raise ValidationError("mesh axis nodes must strictly increase")
        if not (0.0 <= jitter_fraction < 0.5):
            raise ValidationError("jitter fraction must lie in [0, 0.5)")
        if index_map is not None:
            if grid is not None or rows is not None:
                raise ValidationError("give a sparse grid as index_map or as grid and rows")
            grid, rows = _index_map_arrays(index_map, len(axes))
        elif (grid is None) != (rows is None):
            raise ValidationError("a sparse grid needs both grid and rows")
        self.grid = self.rows = None
        self._max_row = prod(self.shape) - 1
        self._past_axes = False
        if grid is not None:
            self.grid, self.rows, self._weights, self._keys = _filed_nodes(self.shape, grid, rows)
            self._max_row = int(self.rows.max(initial=-1))
            self._past_axes = bool((self.grid.max(axis=0, initial=0) >= self.shape).any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeshIndex):
            return NotImplemented
        return (
            len(self.axes) == len(other.axes)
            and all(np.array_equal(a, b) for a, b in zip(self.axes, other.axes))
            and self.jitter_fraction == other.jitter_fraction
            and self.index_map == other.index_map
        )

    __hash__ = None

    @property
    def index_map(self) -> Optional[dict]:
        """A sparse grid's dict from grid multi-index (a tuple) to row, built
        on each read; None for a complete grid."""
        if self.grid is None:
            return None
        return dict(zip(map(tuple, self.grid.tolist()), self.rows.tolist()))

    def check_fit(self, training: TrainingSet) -> None:
        """Raise ValidationError unless every filed node lies on the axes and
        names a row of ``training``."""
        if self._max_row >= training.npoints:
            raise ValidationError(
                f"the mesh files row {self._max_row}, but the training set has "
                f"{training.npoints} points"
            )
        if self._past_axes:
            raise ValidationError(f"the mesh files a node past the end of its {self.shape} axes")

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
        if self.grid is not None:
            try:
                row = self._filed.get(self._node_key(grid_idx))
            except ValueError:  # an entry that no byte holds: off the grid
                return None
            if row is None and isinstance(grid_idx, np.ndarray):  # its bytes are its buffer
                return self.point_at(grid_idx.tolist())
            return row
        flat = 0
        for i, m in zip(grid_idx, self.shape):
            if not (0 <= i < m):
                return None
            flat = flat * m + i
        return flat

    @cached_property
    def _node_key(self):
        # a byte per entry where a byte holds every index: a fifth of a tuple's memory
        return bytes if self.grid.dtype == np.uint8 else tuple

    @cached_property
    def _filed(self) -> dict:
        """Row by ``_node_key`` of each filed node, for ``point_at``; a tuple
        of numpy integers equals the tuple of the same ints."""
        return dict(zip(map(self._node_key, self.grid), self.rows.tolist()))

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
        """``cell_of`` of each row of an (M, n) query array, as an (M, n) array.

        ``cell_of``'s clamped ``bisect_right(nodes, v) - 1`` is the count of
        the nodes past the first that are at or below v, so one search of
        those nodes per group of equal axes needs no clamp; a NaN counts
        them all, as ``bisect_right`` does.
        """
        cells = np.empty(queries.shape, dtype=np.intp)
        for inner, axes in self._axis_groups:
            cells[:, axes] = inner.searchsorted(queries[:, axes], side="right")
        return cells

    @cached_property
    def _axis_groups(self) -> tuple:
        """(inner, axes) pairs, one per distinct node array: its nodes past
        the first, read-only, and the axes that share them, as a slice where
        they run in order (a view of the queries, not a copy), else as a
        read-only index array."""
        groups = {}
        for a, nodes in enumerate(self.axes):
            nodes = np.asarray(nodes, dtype=float)
            groups.setdefault(nodes.tobytes(), (nodes, []))[1].append(a)
        pairs = []
        for nodes, axes in groups.values():
            inner = np.array(nodes[1:])
            if axes == list(range(axes[0], axes[-1] + 1)):
                axes = slice(axes[0], axes[-1] + 1)
            else:
                axes = np.array(axes)
                axes.setflags(write=False)
            inner.setflags(write=False)
            pairs.append((inner, axes))
        return tuple(pairs)

    @cached_property
    def _shape_array(self) -> np.ndarray:
        """``shape`` as a read-only (n,) int array."""
        shape = np.array(self.shape, dtype=np.intp)
        shape.setflags(write=False)
        return shape

    @cached_property
    def _strides(self) -> np.ndarray:
        """The row-major step in rows of one node along each axis, read-only."""
        strides = np.append(np.cumprod(self._shape_array[:0:-1])[::-1], 1)
        strides.setflags(write=False)
        return strides

    def __getstate__(self) -> dict:
        """The instance without the facts built on first use: a pickle costs
        the same before and after a mesh's first query."""
        cached = {k for k, v in vars(type(self)).items() if isinstance(v, cached_property)}
        return {k: v for k, v in vars(self).items() if k not in cached}


def _index_map_arrays(index_map: Mapping, n: int) -> tuple:
    """The keys of ``index_map`` as a (K, n) array and its values as a (K,) one."""
    for key in index_map:
        if not isinstance(key, tuple) or len(key) != n:
            raise ValidationError(f"grid index {key!r} must be a tuple of {n} entries")
    if not index_map:
        return np.empty((0, n), dtype=np.uint8), np.empty(0, dtype=int)
    return np.array(list(index_map)), np.array(list(index_map.values()))


@lru_cache(maxsize=256)
def _node_weights(n: int, draw: int) -> np.ndarray:
    """The ``draw``-th vector of random odd int64 weights of linear keys on n
    axes (a sparse mesh's node keys, the duplicate check's row keys),
    read-only; cached, as a generator costs more than a small mesh's keys."""
    info = np.iinfo(np.int64)
    rng = np.random.default_rng([n, draw])
    weights = rng.integers(info.min, info.max, n, dtype=np.int64, endpoint=True) | 1
    weights.setflags(write=False)
    return weights


def _filed_nodes(shape: tuple, grid, rows) -> tuple:
    """A sparse grid's checked ``grid`` and ``rows``, sorted by node key, with
    the weights of the keys and the sorted keys.

    A node's key is its grid index dotted with odd random int64 weights,
    wrapping.  Where two filed nodes share a key the weights are drawn
    again, so every filed node has a key of its own; a node filed twice
    always shares its key, and raises ValidationError.
    """
    n = len(shape)
    grid, rows = np.asarray(grid), np.asarray(rows)
    if grid.ndim != 2 or grid.shape[1] != n or rows.shape != grid.shape[:1]:
        raise ValidationError(
            f"a sparse grid needs a (K, {n}) grid and (K,) rows, got shapes "
            f"{grid.shape} and {rows.shape}"
        )
    if grid.dtype.kind not in "iu" or grid.min(initial=0) < 0:
        raise ValidationError("every grid index entry must be a non-negative integer")
    if rows.dtype.kind not in "iu" or rows.min(initial=0) < 0:
        raise ValidationError("every row must be a non-negative integer")
    # no copies: the sort below gathers new arrays
    grid = grid.astype(np.min_scalar_type(max(max(shape) - 1, int(grid.max(initial=0)))),
                       copy=False)
    rows = rows.astype(int, copy=False)
    for draw in count():
        weights = _node_weights(n, draw)
        keys = grid.astype(np.int64) @ weights
        order = np.argsort(keys)
        keys, grid, rows = keys[order], grid[order], rows[order]
        tied = np.flatnonzero(keys[1:] == keys[:-1])
        if not len(tied):
            break
        twice = tied[(grid[tied] == grid[tied + 1]).all(axis=1)]
        if len(twice):
            raise ValidationError(f"node {tuple(grid[twice[0]].tolist())} is filed twice")
    for v in (grid, rows, keys):
        v.setflags(write=False)
    return grid, rows, weights, keys


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

    def estimates(self, i: int, method: str) -> tuple:
        """Row ``i`` as one Estimate per layer, in order; the row must not
        be in ``errors``."""
        return tuple(
            Estimate(y_hat=y, method=method, reference_index=int(self.reference_index[i]),
                     combinations_used=int(self.combinations_used[i]),
                     newton_iterations=tuple(its), flags=tuple(flags),
                     extrapolated=bool(self.extrapolated[i]))
            for y, its, flags in zip(self.y_hat[i].tolist(), self.newton_iterations[i].tolist(),
                                     self.flags[i].tolist())
        )


def _finish_batch(training, queries, each_layer, redo, y_hat, reference,
                  combinations_used, newton_iterations, flags) -> EstimateBatch:
    """The kernel's arrays as an EstimateBatch, with each query in ``redo``
    handed to ``each_layer(query)``, the single-query path's Estimate of every
    layer in order, so that its result or error is that path's."""
    errors = {}
    for i in redo.nonzero()[0]:
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
