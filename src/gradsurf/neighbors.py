"""Reference point, simplex, combination, and axis-stencil selection."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, comb, sqrt
from numbers import Integral
from typing import Optional

import numpy as np

from .model import (
    BUCKET_BALL_POINTS,
    Buckets,
    DegenerateNeighborhood,
    InsufficientPoints,
    MeshIndex,
    TrainingSet,
    ValidationError,
    _ball_points,
    _bucket_coordinates,
    _buckets_per_axis,
    _grid_rows,
)

RANK_RTOL = 1e-10
CANDIDATE_FACTOR = 3  # degenerate-simplex retry budget: 3n nearest candidates
SMALL_POOL_LIMIT = 4000  # max subsets to enumerate exhaustively
STENCIL_STEPS = (-1, 0, 1, 2)  # Y0..Y3, in nodes from the lower bracketing node
D2_BLOCK_BYTES = 1 << 19  # distance terms formed per block over many points
D2_MIN_BLOCK_POINTS = 8192  # fewer points per block cost more calls than the cache saves
D2_SINGLE_PASS_BYTES = 1 << 21  # up to this many bytes of terms, one pass is faster
GRID_MAX_AXES = 6  # beyond, a box of 3^n buckets holds too many points to gather
GRID_MAX_SHARE = 1 / 5  # the most of N a box may hold on average, else brute force
GRID_CAP = 4  # a box holding this many times the average is searched by brute force
GRID_TABLE_BYTES = 1 << 24  # about this many bytes of candidate terms at a time
SCREEN_MARGIN = 1e-12  # times n^2, far above the rounding of a squared projection length
WINDOW_BYTES = 1 << 21  # about this many bytes of candidate unit rows in a lockstep stage


@dataclass(frozen=True)
class Simplex:
    """Reference point plus the n auxiliary points feeding the gradient system."""

    reference: int
    auxiliaries: tuple

    def key(self):
        return (self.reference, frozenset(self.auxiliaries))


@dataclass(frozen=True)
class CombinationPlan:
    simplexes: tuple


@dataclass(frozen=True)
class Stencil1D:
    """Four axis-aligned points bracketing the query interval along one axis.

    ``indices`` holds point indices for Y0..Y3; a missing boundary neighbor
    is None with the corresponding flag set.  ``x`` and ``y`` carry the
    actual (possibly jittered) coordinates and outcomes of present points.
    """

    axis: int
    indices: tuple
    x: tuple
    y: tuple
    missing_lower: bool = False
    missing_upper: bool = False


def is_extrapolation(training: TrainingSet, query: np.ndarray) -> bool:
    lo, hi = training.bounding_box
    return bool((query < lo).any() or (query > hi).any())


def _normalised_d2(training: TrainingSet, query: np.ndarray) -> np.ndarray:
    """Squared range-normalised distance of every training point to the query.

    Equals ``(((x - query) / axis_ranges) ** 2).sum(axis=1)`` bit for bit
    but works on ``training.columns``, one axis per row, and sums down the
    rows in the order numpy's ``pairwise_sum`` sums each row of ``x``
    (``_sum_rows``), which is faster than numpy's reduction over the short
    axis.  Beyond ``D2_SINGLE_PASS_BYTES`` of terms, about a core's L2
    cache, the terms are formed and summed one block of points at a time,
    so that a block's terms stay in cache between the passes.  A block
    holds about ``D2_BLOCK_BYTES`` of terms and at least
    ``D2_MIN_BLOCK_POINTS`` points.  Below the switch the blocks' buffer and
    copy cost more than the cache saves (``tools/scatter_scale.py`` times
    both sides of each constant).
    """
    columns, query = training.columns, np.reshape(query, (-1, 1))
    scale = training.axis_ranges[:, None]
    if columns.nbytes <= D2_SINGLE_PASS_BYTES:
        terms = np.subtract(columns, query)
        terms /= scale
        with np.errstate(over="ignore"):  # a term past the float range is inf
            terms *= terms
        return _sum_rows(terms)
    n, npoints = columns.shape
    block = max(D2_MIN_BLOCK_POINTS, D2_BLOCK_BYTES // (8 * n))
    d2, buffer = np.empty(npoints), np.empty((n, block))
    for start in range(0, npoints, block):
        terms = buffer[:, : min(block, npoints - start)]
        np.subtract(columns[:, start : start + block], query, out=terms)
        terms /= scale
        with np.errstate(over="ignore"):
            terms *= terms
        d2[start : start + block] = _sum_rows(terms)
    return d2


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """The column sums of an (m, N) array in numpy's pairwise order.

    Fewer than 8 rows are added in turn.  Up to 128 rows are added into
    eight running sums, rows 0-7, which are then combined pairwise, and the
    rows past the last multiple of 8 added in turn.  More rows are split in
    two at half the rows, rounded down to a multiple of 8.  The sums are
    taken in place, so ``terms`` is overwritten and the result is a view of
    its first row.
    """
    m = len(terms)
    if m > 128:
        half = m // 2 - m // 2 % 8
        total = _sum_rows(terms[:half])
        total += _sum_rows(terms[half:])
        return total
    total, rest = terms[0], terms[1:]
    if m >= 8:
        head = m - m % 8
        sums = terms[:8]
        for block in range(8, head, 8):
            sums += terms[block : block + 8]
        sums[0::2] += sums[1::2]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        sums[0::4] += sums[2::4]
        total += sums[4]
        rest = terms[head:]
    for row in rest:
        total += row
    return total


def _mesh_reference(cells: np.ndarray, reference: np.ndarray) -> int:
    """The row filed at the first cell of ``cells``, as the lookup found it
    (``reference``); DegenerateNeighborhood where no point is filed there.

    The mesh files every point under its own node (``load_dataset`` checks
    this once per file), so the cell is also the reference's grid index.
    """
    if reference[0] < 0:
        raise _absent_point(cells[0], reference[0])
    return int(reference[0])


def _absent_point(cell: np.ndarray, reference: int, aux=None) -> DegenerateNeighborhood:
    """The error for a cell whose simplex lacks a point (``_mesh_simplexes``'
    row -1): at the cell, else its first axis's."""
    cell = tuple(cell.tolist())
    if reference < 0:
        return DegenerateNeighborhood(f"no training point at grid index {cell}")
    return DegenerateNeighborhood(
        f"missing grid neighbor along axis {int(np.argmax(aux < 0))} of cell {cell}")


def locate_reference(
    training: TrainingSet, query: np.ndarray, mesh: Optional[MeshIndex] = None
) -> int:
    """Pick the training point anchoring the local expansion.

    Mesh mode returns the lower corner of the cell containing the query,
    the reference of a one-row ``_mesh_simplexes``; scattered mode the
    nearest point under per-axis range normalization.
    """
    if mesh is not None:
        mesh.check_fit(training)
        cells = mesh.cells_of(np.asarray(query).reshape(1, -1))
        return _mesh_reference(cells, _mesh_simplexes(mesh, cells)[0])
    return int(np.argmin(_normalised_d2(training, query)))


def _nearest_prefix(d2: np.ndarray, k: int) -> np.ndarray:
    """At least the first k entries of ``np.argsort(d2, kind="stable")``.

    ``argpartition`` finds the k-th distance; every point at or below it is
    kept, so ties stay, and the kept points, in index order, are stably
    sorted.  All of the order when k reaches N or the k-th distance is NaN
    (a NaN query makes every distance NaN, and none is at or below NaN).
    """
    if k < len(d2):
        kth = d2[np.argpartition(d2, k - 1)[k - 1]]
        if not np.isnan(kth):
            near = np.flatnonzero(d2 <= kth)
            return near[np.argsort(d2[near], kind="stable")]
    return np.argsort(d2, kind="stable")


class _DistanceOrder:
    """The training points nearest first, stable on ties, as a prefix of that
    order taken from one set of distances; a consumer that reads past the
    prefix doubles it."""

    def __init__(self, d2: np.ndarray, k: int):
        self.d2 = d2
        self.prefix = _nearest_prefix(d2, k)

    def head(self, k: int) -> np.ndarray:
        """At least the first k entries, or all N if k exceeds N."""
        while len(self.prefix) < min(k, len(self.d2)):
            self.prefix = _nearest_prefix(self.d2, max(k, 2 * len(self.prefix)))
        return self.prefix

    def __iter__(self):
        start = 0
        while start < len(self.d2):
            prefix = self.head(start + 1)
            yield from prefix[start:].tolist()
            start = len(prefix)


def _nearest_prefixes(training: TrainingSet, queries: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` entries of ``np.argsort(d2, kind="stable")`` for
    each row of ``queries``, d2 its distances, as a (Q, width) array; ``width``
    is at most N.

    Where ``_grid_rings`` allows, the queries search the bucket grid
    ``training.buckets`` together (``_grid_prefixes``), in parts whose
    distance terms take about ``GRID_TABLE_BYTES`` on average.  A query that the
    search does not prove, and every query where the grid is not used, takes
    its prefix from its distances to all N points (``_nearest_prefix``).
    """
    Q, n = queries.shape
    order = np.empty((Q, width), dtype=int)
    brute = np.ones(Q, dtype=bool)
    rings = _grid_rings(training, width)
    if rings:
        grid = training.buckets
        box = training.npoints * _box_share(n, grid.per_axis, rings)  # points, on average
        parts = max(1, min(Q, ceil(Q * box * 8 * (n + 2) / GRID_TABLE_BYTES)))
        for part in np.array_split(np.arange(Q), parts):
            proven, prefixes = _grid_prefixes(training, queries[part], width, grid, rings)
            order[part[proven]], brute[part] = prefixes, ~proven
    for i in np.flatnonzero(brute):
        order[i] = _nearest_prefix(_normalised_d2(training, queries[i]), width)[:width]
    return order


def _grid_rings(training: TrainingSet, width: int) -> int:
    """How many rings of buckets around its own a query searches for its
    first ``width`` points; 0 where the distances to all N points are faster.

    A query at least r buckets from every face of its box that has buckets
    beyond it proves its prefix if a ball of radius r holds ``width``
    points.  The rings are the fewest whose ball holds ``BUCKET_BALL_POINTS``
    times ``width`` on average, were the points spread evenly, so that most
    queries prove theirs; for 3n + 1 points that is one ring, as the
    buckets are sized (``_buckets_per_axis``).  The grid is used up to
    ``GRID_MAX_AXES`` axes, on finite axis ranges, and where a box of
    ``2 * rings + 1`` buckets a side holds at most ``GRID_MAX_SHARE`` of
    the points on average.
    """
    n, npoints = training.n, training.npoints
    if n > GRID_MAX_AXES or not np.isfinite(training.axis_ranges).all():
        return 0
    per_axis = _buckets_per_axis(npoints, n)
    ball = _ball_points(npoints, n, per_axis)
    rings = max(1, ceil((BUCKET_BALL_POINTS * width / ball) ** (1 / n)))
    return rings if _box_share(n, per_axis, rings) <= GRID_MAX_SHARE else 0


def _box_share(n: int, per_axis: int, rings: int) -> float:
    """The share of an even spread of points in a box of buckets ``rings`` around one."""
    return min(1.0, (2 * rings + 1) / per_axis) ** n


@lru_cache(maxsize=64)
def _ring_steps(n: int, rings: int) -> np.ndarray:
    """Every step of up to ``rings`` buckets along each of n axes, (B, n), read-only."""
    steps = np.array(list(itertools.product(range(-rings, rings + 1), repeat=n)), dtype=np.intp)
    steps.setflags(write=False)
    return steps


def _grid_prefixes(training: TrainingSet, queries: np.ndarray, width: int, grid: Buckets,
                   rings: int) -> tuple:
    """The first ``width`` entries of the distance order of each query that
    a search of ``grid`` proves.

    A query's candidates are the points of the box of buckets within
    ``rings`` of its own bucket (one run of ``grid.points`` for each row of
    buckets along the last axis).  Their distances are formed as
    ``_normalised_d2`` forms them, term for term and summed in the same
    order, so each equals that function's bit for bit, and they are ordered
    by distance, then index, as the stable sort orders them.  A point
    outside the box lies beyond a face of the box that has buckets beyond
    it, so it is no nearer than the nearest such face; a query whose
    ``width``-th candidate is nearer than that face, by a margin for
    rounding, has all of its prefix among its candidates.  Not proved is a
    query with a coordinate that is not finite, one whose box holds fewer
    than ``width`` points or more than ``GRID_CAP`` times an average box,
    and one whose ``width``-th candidate is not that near.  Returns the (Q,)
    mask of the proved queries and their (P, width) prefixes.
    """
    per_axis, starts, points = grid
    Q, n = queries.shape
    with np.errstate(invalid="ignore", over="ignore"):
        u = _bucket_coordinates(training, per_axis, queries)
    finite = np.isfinite(u).all(axis=1)
    u[~finite] = 0.0
    cell = np.clip(np.floor(u), 0, per_axis - 1).astype(np.intp)
    low, high = np.maximum(cell - rings, 0), np.minimum(cell + rings, per_axis - 1)
    # in buckets, the nearest face with buckets beyond it; the margin covers
    # the rounding of the bucket coordinates and of the distances
    gap = np.minimum(np.where(low > 0, u - low, np.inf),
                     np.where(high < per_axis - 1, high + 1 - u, np.inf)).min(axis=1)
    gap -= 1e-9 * (per_axis + np.abs(u).max(axis=1))
    with np.errstate(over="ignore"):
        bound = (np.maximum(gap, 0.0) / per_axis) ** 2 * (1.0 - 1e-12)

    # the runs: each row of buckets along the last axis, low to high
    rows = cell[:, None, :-1] + _ring_steps(n - 1, rings)
    inside = ((rows >= 0) & (rows < per_axis)).all(axis=2)
    strides = per_axis ** np.arange(n - 1, -1, -1)
    base = np.where(inside, rows @ strides[:-1], 0)
    begin = starts[base + low[:, None, -1]]
    lengths = np.where(inside, starts[base + high[:, None, -1] + 1] - begin, 0)
    count = lengths.sum(axis=1)
    cap = GRID_CAP * max(width, len(points) * _box_share(n, per_axis, rings))
    take = finite & (count >= width) & (count <= cap)
    if not take.any():
        return take, np.empty((0, width), dtype=int)
    lengths[~take], count[~take] = 0, 0

    # every candidate's point into row q of a (Q, M) table, M the most any query has
    M, runs = count.max(), lengths.ravel()
    run_end = np.cumsum(runs)
    slot = (np.arange(Q) * M)[:, None] + np.cumsum(lengths, axis=1) - lengths
    shift = np.arange(run_end[-1]) - np.repeat(run_end - runs, runs)
    ids = np.zeros(Q * M, dtype=np.intp)  # a slot past a row's count holds point 0
    ids[np.repeat(slot.ravel(), runs) + shift] = points[np.repeat(begin.ravel(), runs) + shift]
    terms = np.take(training.columns, ids, axis=1).reshape(n, Q, M)
    terms -= queries.T[:, :, None]
    terms /= training.axis_ranges[:, None, None]
    terms *= terms
    d2 = _sum_rows(terms.reshape(n, Q * M)).reshape(Q, M)
    d2[np.arange(M) >= count[:, None]] = np.inf

    # each query's width-th distance, then its points up to it by (d2, index)
    kth = np.partition(d2, width - 1, axis=1)[:, width - 1]
    proven = take & (kth < bound)
    if not proven.any():
        return proven, np.empty((0, width), dtype=int)
    d2, ids, kth = d2[proven], ids.reshape(Q, M)[proven], kth[proven, None]
    row, col = np.nonzero(d2 <= kth)
    kept = np.bincount(row, minlength=len(d2))
    shape = len(d2), kept.max()
    near_d2, near_ids = np.full(shape, np.inf), np.zeros(shape, dtype=int)
    at = row * shape[1] + np.arange(len(row)) - np.repeat(np.cumsum(kept) - kept, kept)
    near_d2.flat[at], near_ids.flat[at] = d2[row, col], ids[row, col]
    order = np.lexsort((near_ids, near_d2), axis=1)[:, :width]  # a pad, at inf, sorts last
    return proven, np.take_along_axis(near_ids, order, axis=1)


def _build_simplex(
    training: TrainingSet, reference, candidates, min_fraction: float = RANK_RTOL
) -> Optional[Simplex]:
    """The reference plus the first n candidates whose rows stay independent.

    Each row is ``(x[cand] - x[reference]) / axis_ranges``.  A candidate is
    accepted if its row is longer than RANK_RTOL, which rejects near-duplicate
    points that the normalisation below would hide, and the row's component
    orthogonal to the accepted rows is more than ``min_fraction`` of its
    length (incremental Gram-Schmidt).  ``candidates`` is consumed only up to
    the n-th accepted one; None if it runs out first.
    """
    origin, scale = training.x[reference], training.axis_ranges
    basis = np.empty((training.n, training.n))  # the accepted rows, basis[:k]
    aux = []
    for cand in candidates:
        row = (training.x[cand] - origin) / scale
        norm = sqrt(row.dot(row))  # np.linalg.norm of a real vector
        if norm <= RANK_RTOL:
            continue
        r = row / norm
        if aux:
            accepted = basis[: len(aux)]
            r = r - accepted.T @ (accepted @ r)
            rn = sqrt(r.dot(r))
            if rn <= min_fraction:
                continue
            r = r / rn
        basis[len(aux)] = r
        aux.append(int(cand))
        if len(aux) == training.n:
            return Simplex(reference=int(reference), auxiliaries=tuple(aux))
    return None


def _nearest_simplex(training: TrainingSet, order: np.ndarray) -> Simplex:
    """The nearest point and the first independent ones among the next 3n;
    ``order`` holds at least the first 3n + 1 points of the distance order."""
    budget = min(training.npoints - 1, CANDIDATE_FACTOR * training.n)
    simplex = _build_simplex(training, order[0], order[1 : budget + 1])
    if simplex is None:
        raise DegenerateNeighborhood(
            f"no nonsingular simplex among the {budget} nearest candidates"
        )
    return simplex


def select_simplex(
    training: TrainingSet,
    query: np.ndarray,
    mesh: Optional[MeshIndex] = None,
) -> Simplex:
    """Choose the reference and the n auxiliary points around it.

    Mesh mode takes the lower corner of the query's cell and its
    edge-adjacent corners, one node up each axis (down at the top node),
    as a one-row ``_mesh_simplexes`` (or raises its error); scattered mode
    the nearest point and then the next nearest ones, greedily skipping
    candidates that leave the difference matrix rank-deficient.
    """
    if mesh is not None:
        mesh.check_fit(training)
        reference, aux, absent = _mesh_simplexes(mesh, mesh.cells_of(np.reshape(query, (1, -1))))
        if absent:
            raise absent[0]
        return Simplex(reference=int(reference[0]), auxiliaries=tuple(aux[0].tolist()))
    d2 = _normalised_d2(training, query)
    return _nearest_simplex(training, _nearest_prefix(d2, CANDIDATE_FACTOR * training.n + 1))


def _check_combination_count(c) -> None:
    """Raise ValidationError unless ``c`` is an integer >= 1 (a bool is not)."""
    if isinstance(c, bool) or not isinstance(c, Integral):
        raise ValidationError(f"combination count must be an integer, got {c!r}")
    if c < 1:
        raise ValidationError(f"combination count must be >= 1, got {c!r}")


def enumerate_combinations(
    training: TrainingSet,
    query: np.ndarray,
    c: int,
    mesh: Optional[MeshIndex] = None,
) -> CombinationPlan:
    """Build C pairwise-distinct simplexes for combination averaging.

    The base simplex (the plain ``select_simplex`` result) always comes
    first.  Further combinations prefer disjoint blocks of nearest points,
    which keeps their outcome errors independent; small datasets fall back
    to exhaustive subset enumeration ordered by aggregate distance.
    """
    _check_combination_count(c)
    if c == 1:
        return CombinationPlan(simplexes=(select_simplex(training, query, mesh),))

    n = training.n
    d2 = _normalised_d2(training, query)
    # room for c disjoint blocks of n+1 points and as many rejected points
    order = _DistanceOrder(d2, max(CANDIDATE_FACTOR * n + 1, 2 * (n + 1) * c))
    if mesh is not None:
        base = select_simplex(training, query, mesh)
    else:
        base = _nearest_simplex(training, order.head(CANDIDATE_FACTOR * n + 1))
    plans = [base]
    seen = {base.key()}

    def add(simplex: Simplex) -> None:
        if simplex.key() not in seen:
            seen.add(simplex.key())
            plans.append(simplex)

    # disjoint blocks of n+1 nearest points, each led by its nearest one; a
    # block must be well conditioned (min_fraction 0.3): a skewed simplex
    # amplifies outcome noise and defeats the purpose of averaging
    used = {base.reference, *base.auxiliaries}
    free = (i for i in order if i not in used)
    for ref in free:
        block = _build_simplex(training, ref, free, min_fraction=0.3)
        if block is not None:
            add(block)
        if len(plans) >= c:
            break

    if len(plans) < c:
        _fill_from_subsets(training, plans, add, order, c)

    if len(plans) < c:
        raise InsufficientPoints(
            f"only {len(plans)} distinct combinations available, {c} requested"
        )
    return CombinationPlan(simplexes=tuple(plans))


def _most_plans(npoints: int, n: int) -> int:
    """The most plans ``enumerate_combinations`` can build from ``npoints``:
    the base, a disjoint block per n + 1 further points, and the subsets of
    ``_fill_from_subsets``' pool, trimmed to ``SMALL_POOL_LIMIT`` or n + 2."""
    return 1 + (npoints - n - 1) // (n + 1) + max(SMALL_POOL_LIMIT, n + 2)


def _fill_from_subsets(training, plans, add, order: _DistanceOrder, c):
    """Top up the plan with overlapping subsets of the nearest points.

    Subsets are tried by their summed distance to the query.  The pool is in
    distance order, so each subset's first point is its nearest one and
    becomes the reference.
    """
    n = training.n
    size = max(n + 2, min(training.npoints, 2 * n + 8))
    pool = order.head(size)[:size].tolist()
    dist = dict(zip(pool, np.sqrt(order.d2[pool])))
    while comb(len(pool), n + 1) > SMALL_POOL_LIMIT and len(pool) > n + 2:
        pool = pool[:-1]

    subsets = sorted(
        itertools.combinations(pool, n + 1), key=lambda s: sum(dist[i] for i in s)
    )
    for ref, *aux in subsets:
        if len(plans) >= c:
            return
        simplex = _build_simplex(training, ref, aux)
        if simplex is not None:
            add(simplex)


def _scattered_plans(training: TrainingSet, queries: np.ndarray, c: int, base=None) -> tuple:
    """Every query's ``enumerate_combinations`` plan, built in lockstep.

    Each query takes the first P = max(3n + 1, 2(n + 1)C) points of its
    distance order, found for all queries at once (``_nearest_prefixes``:
    through the bucket grid where it pays, else from the distances to all
    N points).  The queries then build one simplex per step together
    (``_first_independent``).  The base simplex is ``base``, (Q,) reference
    and (Q, n) auxiliary rows (a mesh's, ``_mesh_simplexes``), else the
    nearest point and the first independent of the next 3n, read in
    windows of n + 1, as most queries take those.  The disjoint blocks then
    run over the first P - n - 1 prefix points the base leaves: each step,
    every query still building starts a block at the next of them, the
    block's reference, and reads the points after it in windows of 3n.  A
    query is handed back, to ``enumerate_combinations``, when its base
    simplex fails or its blocks run past those points, where that function
    would read further or fill from subsets.  Returns the (Q, C) reference
    and (Q, C, n) auxiliary rows of ``training`` and the (Q,) mask of the
    queries handed back, whose rows are meaningless.
    """
    n, npoints, Q = training.n, training.npoints, len(queries)
    budget = min(npoints - 1, CANDIDATE_FACTOR * n)
    width = min(npoints, max(CANDIDATE_FACTOR * n + 1, 2 * (n + 1) * c))
    order = _nearest_prefixes(training, queries, width)
    reference, aux = np.full((Q, c), -1), np.full((Q, c, n), -1)
    if base is None:  # the nearest point and the first independent of the next 3n
        reference[:, 0] = order[:, 0]
        taken, handed = _first_independent(training, order[:, 0], order[:, 1 : budget + 1],
                                           np.zeros(Q, dtype=int), RANK_RTOL, n + 1)
        aux[:, 0] = order[np.arange(Q)[:, None], 1 + taken]
    else:
        (reference[:, 0], aux[:, 0]), handed = base, np.zeros(Q, dtype=bool)
    if c == 1:
        return reference, aux, handed

    F = width - n - 1  # points each query keeps, or more where a base point is past its prefix
    h = width if base is not None else budget + 1  # the columns a base point can take
    head = order[:, :h] != reference[:, :1]
    for a in range(n):
        head &= order[:, :h] != aux[:, 0, a, None]
    left = np.concatenate([head, np.ones((Q, width - h), dtype=bool)], axis=1)
    if np.count_nonzero(left) > Q * F:
        left &= left.cumsum(axis=1) <= F
    free = order[left].reshape(Q, F)
    plans = np.where(handed, c, 1)
    start = np.zeros(Q, dtype=int)  # each query's next block reference, in free
    while True:
        live = (plans < c).nonzero()[0]
        short = live[start[live] + n >= F]  # fewer than n + 1 points left
        handed[short], plans[short] = True, c
        live = (plans < c).nonzero()[0]
        if not len(live):
            return reference, aux, handed
        at = start[live]
        taken, failed = _first_independent(training, free[live, at], free[live], at + 1, 0.3,
                                           CANDIDATE_FACTOR * n)
        done, ok = live[~failed], ~failed
        reference[done, plans[done]] = free[done, at[ok]]
        aux[done, plans[done]] = free[done[:, None], taken[ok]]
        start[done] = taken[ok, -1] + 1
        plans[done] += 1
        handed[live[failed]], plans[live[failed]] = True, c


def _first_independent(training, origin, stream, begin, min_fraction, window) -> tuple:
    """``_build_simplex`` for several references at once, each over a
    stream of candidates.

    Row i has reference ``origin[i]`` and candidates ``stream[i, begin[i]:]``,
    in order.  Each row reads its candidates in a window of ``window`` of
    them, or fewer where K windows of unit rows would pass ``WINDOW_BYTES``
    (``_window``): for each, the row ``(x[cand] - x[origin]) / axis_ranges``,
    its norm (a BLAS dot) and its unit vector u.  A row that finds nothing
    to take in its window reads the next one in its place, so the arrays
    stay K windows wide however far a row searches.  Stage s takes, in each
    row, the first candidate after the one stage s - 1 took whose norm is
    over RANK_RTOL and, from stage 1 on, whose component r orthogonal to
    the s accepted unit rows A is longer than ``min_fraction``, with
    ``_build_simplex``'s arithmetic (``_residuals``).

    From stage 1 on a stage screens the window.  With c = A u, |r|^2 is
    |u|^2 - |c|^2 + c'(AA' - I)c, so ``1 - sum(c^2)``, the sum brought up to
    date at each stage, is within ``screen`` of the |r|^2 that
    ``_residuals`` forms: ``SCREEN_MARGIN * n^2`` for rounding (|u| and the
    diagonal of AA' are 1 to within about n units of rounding), and a bound
    on the last term from the largest entry of AA' - I over all rows,
    tracked alongside.  A row's first candidate that the screen cannot
    tell goes through ``_residuals``, and the next such one while that
    fails, and the candidate a row takes goes through it for its unit row,
    so each row takes the candidates that function takes and accepts the
    same unit rows.  Besides the windows, a call holds the K (n, n)
    accepted rows and at most one gather of them.  Returns
    the (K, n) positions in ``stream`` of the accepted candidates and the
    (K,) mask of the rows that found fewer than n, whose positions are
    meaningless.
    """
    n, (K, S) = training.n, stream.shape
    width = max(1, min(window, WINDOW_BYTES // (8 * n * max(K, 1))))
    basis = np.zeros((K, n, n))  # each row's accepted unit rows
    taken = np.zeros((K, n), dtype=int)
    failed = np.zeros(K, dtype=bool)
    start = begin.copy()  # where each row's window starts in its stream
    after = begin.copy()  # each row's first candidate not yet passed
    rows, position = np.arange(K), np.arange(width)
    with np.errstate(all="ignore"):  # a rejected row may be zero
        # room: 1 - min_fraction^2 - sum(c^2), and drift: the largest |AA' - I| of any row
        unit, ok, room = _window(training, origin, stream, rows, start, width, basis[:, :0],
                                 min_fraction)
        drift = 0.0
        for s in range(n):
            if s:  # bring room and drift up to date with the row stage s - 1 accepted
                a = basis[:, s - 1, :, None]
                c = np.matmul(unit, a)[..., 0]
                room -= c * c
                if s > 1:
                    drift = max(drift, float(np.abs(np.matmul(basis[:, : s - 1], a)).max()))
                screen = (SCREEN_MARGIN * n * n + 4 * s * drift) * (1 + s * drift) ** 2
            live = rows[~failed]
            while len(live):
                at = slice(None) if len(live) == K else live  # a view where it can be
                index = rows[: len(live)]
                passing = ok[at] & (position >= (after - start)[at, None])
                if s:  # drop the surely short
                    lead = room[at]
                    passing &= lead >= -screen
                    near = passing & (lead <= screen)
                    while near.any():  # test exactly a row's first candidate the screen cannot tell
                        first = passing.argmax(axis=1)
                        k = near[index, first].nonzero()[0]
                        if not len(k):
                            break
                        w = first[k]
                        short = _residuals(unit[live[k], w], basis[live[k], :s])[1] <= min_fraction
                        passing[k[short], w[short]] = near[k, w] = False
                first = passing.argmax(axis=1)
                found = passing[index, first]
                every = found.all()
                took, w = (live, first) if every else (live[found], first[found])
                u = unit[took, w]
                if s:
                    r, length = _residuals(u, basis[:, :s] if len(took) == K else basis[took, :s])
                    u = r / length[:, None]
                basis[took, s], taken[took, s] = u, start[took] + w
                after[took] = taken[took, s] + 1
                if every:
                    break
                # the rest read their next window, or fail where their stream ends
                live = live[~found]
                failed[live[start[live] + width >= S]] = True
                live = live[start[live] + width < S]
                if len(live):
                    start[live] += width
                    after[live] = start[live]
                    unit[live], ok[live], room[live] = _window(
                        training, origin[live], stream, live, start[live], width,
                        basis[live, :s], min_fraction)
    return taken, failed


def _window(training, origin, stream, rows, start, width, accepted, min_fraction) -> tuple:
    """``_first_independent``'s window of each of several rows.

    Row i reads the ``width`` candidates from ``start[i]`` of
    ``stream[rows[i]]``, with reference ``origin[i]`` and accepted unit rows
    ``accepted[i]`` (s, n).  Returns each candidate's unit row u, (m, width,
    n), whether its norm is over RANK_RTOL and it lies in the stream, and
    its ``1 - min_fraction^2 - sum(c^2)``, c = ``accepted[i]`` u.  A zero row
    reads NaN; the caller ignores the floating-point errors.
    """
    cols = start[:, None] + np.arange(width)
    inside = cols < stream.shape[1]
    u = training.x[stream[rows[:, None], np.minimum(cols, stream.shape[1] - 1)]]
    u -= training.x[origin][:, None]
    u /= training.axis_ranges
    norm = np.sqrt(np.matmul(u[..., None, :], u[..., :, None])[..., 0, 0])
    u /= norm[..., None]
    c = np.matmul(u, accepted.transpose(0, 2, 1))
    c *= c
    return u, (norm > RANK_RTOL) & inside, 1.0 - min_fraction**2 - c.sum(axis=-1)


def _residuals(u: np.ndarray, accepted: np.ndarray) -> tuple:
    """``_build_simplex``'s component of each unit row of ``u`` (m, n)
    orthogonal to its accepted rows (m, s, n), ``r - A.T @ (A @ r)`` by BLAS
    matrix-vector products, and its length by a BLAS dot."""
    r = u - np.matmul(accepted.transpose(0, 2, 1), np.matmul(accepted, u[:, :, None]))[..., 0]
    return r, np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])


def axis_stencil(
    training: TrainingSet,
    mesh: MeshIndex,
    cell: tuple,
    axis: int,
    layer: int = 0,
) -> Stencil1D:
    """Fetch the four-point stencil Y0..Y3 along one axis of the mesh.

    Y1 is the reference at the query's ``cell``, Y2 the next node along the
    axis on the query's side; Y0 and Y3 are the outer neighbors, flagged when
    the domain edge cuts them off.  The points are ``_axis_stencils``' for
    the one cell; a cell off the grid has no core.
    """
    mesh.check_fit(training)
    lower = list(cell)
    lower[axis] = min(lower[axis], mesh.shape[axis] - 2)  # so the bracketing pair exists
    if mesh.point_at(lower) is None:  # Y1: off the grid, or a hole
        raise DegenerateNeighborhood(f"stencil core missing along axis {axis}")
    _, rows, x = _axis_stencils(training, mesh, np.array([lower], dtype=np.intp), axis)
    return _stencil(axis, rows[0, 0].tolist(), x[0, 0].tolist(),
                    training.y[rows[0, 0], layer].tolist())


def _stencil(axis: int, rows: list, x: list, y: list) -> Stencil1D:
    """One axis of ``_axis_stencils``' arrays, as lists, as a Stencil1D;
    DegenerateNeighborhood where Y1 or Y2 is absent."""
    if rows[1] < 0 or rows[2] < 0:
        raise DegenerateNeighborhood(f"stencil core missing along axis {axis}")
    if -1 in rows:  # an end that the domain edge cuts off
        x, y = ([None if r < 0 else v for r, v in zip(rows, values)] for values in (x, y))
        rows = [None if r < 0 else r for r in rows]
    # positional arguments: a frozen dataclass takes them faster than keywords
    return Stencil1D(axis, tuple(rows), tuple(x), tuple(y), rows[0] is None, rows[3] is None)


def _mesh_simplexes(mesh: MeshIndex, cells: np.ndarray):
    """``select_simplex``'s reference row, (M,), and auxiliary rows, (M, n),
    for each row of an (M, n) array of cells on the grid, and the error of
    each row whose simplex lacks a point (row -1), by row.  A step never
    leaves the grid, so a complete grid needs only its row-major strides."""
    up = cells + 1 < mesh._shape_array  # else the node below, at the top node
    if mesh.grid is None:
        reference = cells @ mesh._strides
        return reference, reference[:, None] + np.where(up, mesh._strides, -mesh._strides), {}
    reference, aux = _grid_rows(mesh, cells, (2 * up - 1)[..., None])
    aux = aux[..., 0]
    absent = ((reference < 0) | (aux < 0).any(axis=1)).nonzero()[0].tolist()
    return reference, aux, {i: _absent_point(cells[i], reference[i], aux[i]) for i in absent}


def _axis_stencils(training: TrainingSet, mesh: MeshIndex, cells: np.ndarray,
                   axis: Optional[int] = None):
    """The reference and the ``axis_stencil`` points of many cells at once,
    for one query (``axis_stencil``, ``evaluate_smooth``) or a batch.

    ``cells`` is an (M, n) array of grid indices on the grid.  Returns each
    cell's reference row, (M,), the rows of Y0..Y3 along each axis,
    (M, n, 4), and their coordinates along that axis; with ``axis``, along
    that axis only, (M, 1, 4).  Row -1 marks an absent point.  Where Y1 and
    Y2 are present, the present points are ordered by coordinate, ties in
    step order, and an absent end stays in place.
    """
    mesh.check_fit(training)
    axes = slice(None) if axis is None else slice(axis, axis + 1)
    columns = np.arange(cells.shape[1])[axes, None]
    # clamp so the bracketing pair exists
    lower = np.minimum(cells[:, axes], mesh._shape_array[axes] - 2)
    reference, rows = _grid_rows(mesh, cells, (lower - cells[:, axes])[..., None] + STENCIL_STEPS,
                                 axis)
    # a stable sort keeps tied points in step order and absent ends in place;
    # a stencil without its core is left as found
    x = training.x[rows, columns]
    key = np.where(rows >= 0, x, [-np.inf, -np.inf, np.inf, np.inf])
    if (key[..., 1:] < key[..., :-1]).any():  # jitter put nodes out of order
        key[(rows[..., 1] < 0) | (rows[..., 2] < 0)] = STENCIL_STEPS
        order = np.argsort(key, axis=-1, kind="stable")
        rows, x = (np.take_along_axis(v, order, axis=-1) for v in (rows, x))
    return reference, rows, x
