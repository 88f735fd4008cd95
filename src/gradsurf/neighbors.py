"""Reference point, simplex, combination, and axis-stencil selection."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .model import (
    DegenerateNeighborhood,
    EmptyTrainingSet,
    InsufficientPoints,
    MeshIndex,
    TrainingSet,
)

RANK_RTOL = 1e-10
CANDIDATE_FACTOR = 3  # degenerate-simplex retry budget: 3n nearest candidates
SMALL_POOL_LIMIT = 4000  # max subsets to enumerate exhaustively


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

    @property
    def c(self) -> int:
        return len(self.simplexes)


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
    """Squared range-normalised distance of every training point to the query."""
    return (((training.x - query) / training.axis_ranges) ** 2).sum(axis=1)


def _mesh_cell(mesh: MeshIndex, query: np.ndarray) -> tuple[tuple, int]:
    """The query's cell and the point at its lower corner, the reference.

    The mesh files every point under its own node (``load_dataset`` checks
    this once per file), so the cell is also the reference's grid index.
    """
    cell = mesh.cell_of(query)
    idx = mesh.point_at(cell)
    if idx is None:
        raise DegenerateNeighborhood(f"no training point at grid index {cell}")
    return cell, idx


def locate_reference(
    training: TrainingSet, query: np.ndarray, mesh: Optional[MeshIndex] = None
) -> int:
    """Pick the training point anchoring the local expansion.

    Mesh mode returns the lower corner of the cell containing the query;
    scattered mode the nearest point under per-axis range normalization.
    """
    if training.npoints == 0:
        raise EmptyTrainingSet("cannot locate a reference in an empty set")
    if mesh is not None:
        return _mesh_cell(mesh, query)[1]
    return int(np.argmin(_normalised_d2(training, query)))


class _RankTracker:
    """Incremental Gram-Schmidt rank check for candidate difference rows."""

    def __init__(self, n: int):
        self.basis = np.empty((0, n))

    def try_add(self, row: np.ndarray, min_fraction: float = RANK_RTOL) -> bool:
        """Accept the row if it is at least RANK_RTOL long and its component
        orthogonal to the current basis is at least ``min_fraction`` of its
        length.

        Rows come in axis-range-normalised units, so the length floor rejects
        near-duplicate points that the normalisation below would hide.
        """
        norm = np.linalg.norm(row)
        if norm <= RANK_RTOL:
            return False
        r = row / norm
        if len(self.basis):
            r = r - self.basis.T @ (self.basis @ r)
            rn = np.linalg.norm(r)
            if rn <= min_fraction:
                return False
            r = r / rn
        self.basis = np.vstack([self.basis, r])
        return True


def select_simplex(
    training: TrainingSet,
    query: np.ndarray,
    mesh: Optional[MeshIndex] = None,
) -> Simplex:
    """Choose the reference and the n auxiliary points around it.

    Mesh mode takes the lower corner of the query's cell and its
    edge-adjacent corners; scattered mode the nearest point and then the
    next nearest ones, greedily skipping candidates that leave the
    difference matrix rank-deficient.
    """
    if mesh is not None:
        cell, reference = _mesh_cell(mesh, query)
        aux = []
        for a in range(mesh.n):
            neighbor = list(cell)
            neighbor[a] += 1 if cell[a] + 1 < mesh.shape[a] else -1
            idx = mesh.point_at(neighbor)
            if idx is None:
                raise DegenerateNeighborhood(
                    f"missing grid neighbor {tuple(neighbor)} along axis {a}"
                )
            aux.append(idx)
        return Simplex(reference=reference, auxiliaries=tuple(aux))

    n = training.n
    scale = training.axis_ranges
    order = np.argsort(_normalised_d2(training, query), kind="stable")
    reference = int(order[0])
    budget = min(training.npoints - 1, max(CANDIDATE_FACTOR * n, n))

    tracker = _RankTracker(n)
    aux = []
    ref_x = training.x[reference] / scale
    for cand in order[1 : budget + 1]:
        row = training.x[cand] / scale - ref_x
        if tracker.try_add(row):
            aux.append(int(cand))
            if len(aux) == n:
                return Simplex(reference=reference, auxiliaries=tuple(aux))
    raise DegenerateNeighborhood(
        f"no nonsingular simplex among the {budget} nearest candidates"
    )


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
    if c < 1:
        raise InsufficientPoints("combination count must be >= 1")
    n = training.n

    base = select_simplex(training, query, mesh)
    plans = [base]
    seen = {base.key()}
    if c == 1:
        return CombinationPlan(simplexes=tuple(plans))

    scale = training.axis_ranges
    d2 = _normalised_d2(training, query)
    order = [int(i) for i in np.argsort(d2, kind="stable")]

    def add(simplex: Simplex) -> None:
        if simplex.key() not in seen:
            seen.add(simplex.key())
            plans.append(simplex)

    # disjoint blocks of n+1 nearest points
    used = set(base.auxiliaries) | {base.reference}
    block: list[int] = []
    for cand in order:
        if len(plans) >= c:
            break
        if cand in used:
            continue
        if not block:
            block = [cand]
            tracker = _RankTracker(n)
            continue
        row = (training.x[cand] - training.x[block[0]]) / scale
        # demand a well-conditioned block: a skewed simplex amplifies
        # outcome noise and defeats the purpose of averaging
        if tracker.try_add(row, min_fraction=0.3):
            block.append(cand)
        if len(block) == n + 1:
            used.update(block)
            add(Simplex(reference=block[0], auxiliaries=tuple(block[1:])))
            block = []

    if len(plans) < c:
        _fill_from_subsets(training, plans, add, order, d2, c)

    if len(plans) < c:
        raise InsufficientPoints(
            f"only {len(plans)} distinct combinations available, {c} requested"
        )
    return CombinationPlan(simplexes=tuple(plans))


def _fill_from_subsets(training, plans, add, order, d2, c):
    """Top up the plan with overlapping subsets of the nearest points.

    Subsets are tried by their summed distance to the query.  The pool is in
    distance order, so each subset's first point is its nearest one and
    becomes the reference.
    """
    n = training.n
    scale = training.axis_ranges
    dist = np.sqrt(d2)
    pool = order[: max(n + 2, min(len(order), 2 * n + 8))]
    while comb(len(pool), n + 1) > SMALL_POOL_LIMIT and len(pool) > n + 2:
        pool = pool[:-1]

    subsets = sorted(
        itertools.combinations(pool, n + 1), key=lambda s: sum(dist[i] for i in s)
    )
    for ref, *aux in subsets:
        if len(plans) >= c:
            return
        tracker = _RankTracker(n)
        if all(
            tracker.try_add((training.x[a] - training.x[ref]) / scale) for a in aux
        ):
            add(Simplex(reference=ref, auxiliaries=tuple(aux)))


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
    the domain edge cuts them off.
    """
    m = mesh.shape[axis]
    j = cell[axis]
    if j + 1 >= m:
        j = m - 2  # clamp so the bracketing pair exists

    def fetch(offset: int):
        g = list(cell)
        g[axis] = j + offset
        if not (0 <= g[axis] < m):
            return None
        return mesh.point_at(g)

    i0, i1, i2, i3 = (fetch(k) for k in (-1, 0, 1, 2))
    if i1 is None or i2 is None:
        raise DegenerateNeighborhood(f"stencil core missing along axis {axis}")

    present = [i for i in (i0, i1, i2, i3) if i is not None]
    xs = training.x[present, axis]
    # jittered nodes keep their nominal order (jitter < half a cell), but we
    # order by actual coordinate to be safe
    sort = np.argsort(xs, kind="stable")
    present = [present[k] for k in sort]
    pad_lower = i0 is None
    pad_upper = i3 is None
    seq = ([None] if pad_lower else []) + present + ([None] if pad_upper else [])

    return Stencil1D(
        axis=axis,
        indices=tuple(seq),
        x=tuple(None if i is None else float(training.x[i, axis]) for i in seq),
        y=tuple(None if i is None else float(training.y[i, layer]) for i in seq),
        missing_lower=pad_lower,
        missing_upper=pad_upper,
    )
