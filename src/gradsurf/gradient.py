"""Gradient-based reconstruction: local hyperplane through a simplex of points.

Simplexes are solved as lanes, one ``solvers.solve_lanes`` call for many
systems (``_lane_estimates``): ``evaluate_gradient_batch`` solves a batch's
(query, combination) systems so, and ``evaluate_gradient`` a query's plan of
two or more simplexes, both averaged by ``_averaged_lanes``.
``evaluate_gradient`` solves a one-simplex plan with the scalar solver
instead: at n=3 that costs about half a one-lane call, and acceptance
criterion 9a times it on unjittered n=99 cells.  Lanes and the
scalar solver do the same arithmetic, so every result agrees bit for bit.
"""

from __future__ import annotations

from numbers import Integral
from typing import Optional

import numpy as np

from .model import (
    DegenerateNeighborhood,
    Estimate,
    EstimateBatch,
    GradsurfError,
    MeshIndex,
    NonFiniteValue,
    SingularSystem,
    TrainingSet,
    ValidationError,
    _finish_batch,
    _query_rows,
    _query_vector,
)
from .neighbors import (
    CombinationPlan,
    Simplex,
    _absent_point,
    _check_combination_count,
    _mesh_simplexes,
    _most_plans,
    _scattered_plans,
    enumerate_combinations,
    is_extrapolation,
)
from .solvers import solve_lanes, solve_linear_system

LOCKSTEP_MIN_QUERIES = 8  # fewer scattered queries are planned faster one by one
LOCKSTEP_MAX_QUERIES = 128  # per lockstep call, which holds two (Q, n, n) arrays at most


def estimate_gradients(training: TrainingSet, simplex: Simplex, layer: int = 0) -> np.ndarray:
    """Solve the n-by-n difference system for the partial derivatives.

    Returns the partial derivatives p at the reference point.  Row m is
    (x_aux[m] - x_ref) with right-hand side (y_aux[m] - y_ref); axis-aligned
    neighborhoods reduce to plain difference quotients through the same
    pivoting solver.
    """
    ref = simplex.reference
    aux = list(simplex.auxiliaries)
    with np.errstate(all="ignore"):  # a difference past the float range is inf
        A = training.x[aux] - training.x[ref]
        b = training.y[aux, layer] - training.y[ref, layer]
    try:
        return solve_linear_system(A, b)
    except SingularSystem as exc:
        raise DegenerateNeighborhood(str(exc)) from exc


def extrapolate(
    ref_coords: np.ndarray,
    ref_y: float,
    p: np.ndarray,
    query: np.ndarray,
) -> float:
    """Linear expansion from the reference point along the partial derivatives p."""
    return float(ref_y + p @ (query - ref_coords))


def evaluate_gradient(
    training: TrainingSet,
    query,
    mesh: Optional[MeshIndex] = None,
    combinations: int = 1,
    layer: int = 0,
    plan: Optional[CombinationPlan] = None,
) -> Estimate:
    """Estimate the outcome at the query point, averaging over combinations.

    Each simplex in the plan (``enumerate_combinations``' or the caller's
    ``plan``) contributes one extrapolated value; degenerate combinations
    are skipped and the survivors averaged with equal weight.  A plan of two
    or more simplexes is solved as lanes, one ``solve_lanes`` call for all
    of them, and averaged as ``evaluate_gradient_batch`` averages a batch's
    plans (``_averaged_lanes``).  A one-simplex plan keeps the scalar
    solver: one scalar solve at n=3 costs about half of a one-lane call, and
    acceptance criterion 9a times this path on unjittered n=99 cells.  A
    caller's plan is checked first: each simplex must name a reference and
    exactly n auxiliaries, each an integer row of ``training``, or
    ValidationError is raised.
    """
    query = _query_vector(query, training, layer)
    if plan is None:
        plan = enumerate_combinations(training, query, combinations, mesh)
    else:
        _check_plan(training, plan)
    simplexes = plan.simplexes
    if len(simplexes) == 1:
        try:
            p = estimate_gradients(training, simplexes[0], layer)
        except DegenerateNeighborhood:
            raise DegenerateNeighborhood("all point combinations were degenerate") from None
        ref, used = simplexes[0].reference, 1
        # np.mean([value]): a sum starts at +0.0, so -0.0 reads +0.0
        value = extrapolate(training.x[ref], float(training.y[ref, layer]), p, query) + 0.0
    else:
        reference = np.array([[s.reference for s in simplexes]], dtype=int)
        aux = np.array([s.auxiliaries for s in simplexes], dtype=int).reshape(1, -1, training.n)
        y_hat, used, errors = _averaged_lanes(training, query[None, :], reference, aux,
                                              training.y[:, layer : layer + 1])
        if errors:
            raise errors[0]
        ref, value, used = int(reference[0, 0]), float(y_hat[0, 0]), int(used[0])
    return Estimate(y_hat=value, method="gradient", reference_index=ref, combinations_used=used,
                    extrapolated=is_extrapolation(training, query))


def _check_plan(training: TrainingSet, plan: CombinationPlan) -> None:
    """Raise ValidationError unless every simplex of a caller's plan names a
    reference and exactly n auxiliaries, each an integer row of ``training``
    (a bool is not)."""
    n, npoints = training.n, training.npoints
    for simplex in plan.simplexes:
        try:
            rows = (simplex.reference, *simplex.auxiliaries)
        except (AttributeError, TypeError):
            raise ValidationError(f"a plan holds Simplex objects, got {simplex!r}") from None
        if len(rows) != n + 1:
            raise ValidationError(
                f"a simplex needs {n} auxiliaries, got {len(rows) - 1} in {simplex!r}"
            )
        for row in rows:
            if isinstance(row, bool) or not isinstance(row, Integral) or not 0 <= row < npoints:
                raise ValidationError(
                    f"simplex rows must be integers in [0, {npoints}), got {row!r} in {simplex!r}"
                )


def _lane_estimates(x, y, queries, reference, aux) -> tuple:
    """The expansion of each lane's simplex at its query, for every layer.

    ``x`` (N, n) and ``y`` (N, L) are a training set's points and outcome
    layers, or some of its layers; ``queries`` is (K, n), or one (n,) query
    for every lane, and ``reference`` (K,) and ``aux`` (K, n) are rows of
    ``x``.  ``solve_lanes`` solves every
    system with one right-hand side per layer; the expansion's dot goes
    through the scalar path's BLAS dot, so each value equals
    ``extrapolate``'s.  Returns the (K, L) values and the (K,) mask of
    singular lanes, whose values are meaningless.
    """
    x_ref, y_ref = x.take(reference, axis=0), y.take(reference, axis=0)
    A, b = x.take(aux, axis=0), y.take(aux, axis=0)
    with np.errstate(all="ignore"):  # inf or NaN past the float range or in singular lanes
        A -= x_ref[:, None]
        b -= y_ref[:, None]
        p, singular = solve_lanes(A, b)
        dot = np.matmul(p[:, :, None, :], (queries - x_ref)[:, None, :, None])
        return y_ref + dot[..., 0, 0], singular


def _planned_lanes(training: TrainingSet, queries, mesh, combinations) -> tuple:
    """Each query's ``enumerate_combinations`` plan, shared by every layer,
    or the error that function raises for it.

    Scattered queries are planned in lockstep (``_scattered_plans``), in
    even parts of at most ``LOCKSTEP_MAX_QUERIES``; a query it hands back,
    every query on a mesh, a batch of fewer than ``LOCKSTEP_MIN_QUERIES``
    scattered queries (the lockstep costs less from 4 to 7 queries,
    ``lockstep_crossover`` in ``BENCH_scatter-scale.json``), and a batch
    asking for more plans than any query can have (``_most_plans``) go
    through ``enumerate_combinations`` itself.  Returns the rows of the
    queries with a plan, (P,), in order, their plans as (P, C) reference
    and (P, C, n) auxiliary rows of ``training``, and the error of each
    other query, by row; only plans found take room.
    """
    M, n = len(queries), training.n
    found = [(np.empty(0, dtype=int), np.empty((0, combinations), dtype=int),
              np.empty((0, combinations, n), dtype=int))]  # (rows, reference, aux)
    handed = np.ones(M, dtype=bool)
    if (mesh is None and M >= LOCKSTEP_MIN_QUERIES
            and combinations <= _most_plans(training.npoints, n)):
        for part in np.array_split(np.arange(M), -(-M // LOCKSTEP_MAX_QUERIES)):
            reference, aux, back = _scattered_plans(training, queries[part], combinations)
            handed[part] = back
            found.append((part[~back], reference[~back], aux[~back]))
    errors = {}
    for i in np.flatnonzero(handed).tolist():
        try:
            plan = enumerate_combinations(training, queries[i], combinations, mesh).simplexes
        except GradsurfError as exc:
            errors[i] = exc
        else:
            found.append(([i], [[s.reference for s in plan]], [[s.auxiliaries for s in plan]]))
    rows, reference, aux = (np.concatenate(v) for v in zip(*found))
    order = np.argsort(rows, kind="stable")
    return rows[order], reference[order], aux[order], errors


def _average(values: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``np.mean`` over the kept combinations of each (query, layer).

    ``values`` is (M, C, L) and ``kept`` (M, C).  The mean runs along the
    last axis of a contiguous (M, L, C) copy, which sums each row as
    ``np.mean`` sums a 1-D array, so each mean equals ``np.mean(values)``
    bit for bit; where every combination is kept, ``np.mean``'s own sum and
    division serve every row at once.  A boolean mask on the last axis
    gives a column-first array, so the kept values are copied to rows
    first.  A query that keeps no combination gets NaN.
    """
    rows = np.ascontiguousarray(values.transpose(0, 2, 1))
    if kept.all():  # also a caller's empty plan, whose 0 / 0 is NaN
        return np.add.reduce(rows, axis=-1) / kept.shape[1]
    mean = np.full(rows.shape[:2], np.nan)
    full = kept.all(axis=1)
    mean[full] = rows[full].mean(axis=-1)
    for i in np.flatnonzero(~full & kept.any(axis=1)):
        mean[i] = np.ascontiguousarray(rows[i][:, kept[i]]).mean(axis=-1)
    return mean


def _lane_errors(y_hat: np.ndarray, used: np.ndarray) -> dict:
    """``evaluate_gradient``'s error for each query whose (M, L) estimates
    it refuses, by row: DegenerateNeighborhood where none of its simplexes
    was nonsingular (``used`` is 0), else NonFiniteValue where an estimate
    is not finite."""
    if used.all() and np.isfinite(y_hat).all():
        return {}
    failed = (used == 0) | ~np.isfinite(y_hat).all(axis=1)
    return {int(i): NonFiniteValue("estimate is not finite") if used[i] else
            DegenerateNeighborhood("all point combinations were degenerate")
            for i in np.flatnonzero(failed)}


def _averaged_lanes(training: TrainingSet, queries, reference, aux, y) -> tuple:
    """The (P, L) estimates of (P, n) queries from their plans, (P, C)
    reference and (P, C, n) auxiliary rows, for each column of ``y`` (N, L),
    from one ``_lane_estimates`` call; the (P,) counts of nonsingular
    simplexes, whose values ``_average`` takes; and ``_lane_errors``'."""
    P, C = reference.shape
    values, singular = _lane_estimates(training.x, y, queries.repeat(C, axis=0),
                                       reference.ravel(), aux.reshape(-1, training.n))
    kept = ~singular.reshape(P, C)
    used = kept.sum(axis=1)
    with np.errstate(all="ignore"):  # a mean that is not finite is its query's error
        y_hat = _average(values.reshape(P, C, y.shape[1]), kept)
    return y_hat, used, _lane_errors(y_hat, used)


def evaluate_gradient_batch(
    training: TrainingSet, queries, mesh: Optional[MeshIndex] = None, combinations: int = 1
) -> EstimateBatch:
    """``evaluate_gradient`` for every query of an (M, n) array and every layer.

    On a mesh with one combination, each query's simplex is gathered as
    ``select_simplex`` picks it (``_mesh_simplexes``).  Every other query
    gets its ``enumerate_combinations`` plan, one for all layers
    (``_planned_lanes``; scattered batches are planned in lockstep, finding
    every query's nearest points at once, through the bucket grid
    ``TrainingSet.buckets`` where it pays).  One ``solve_lanes`` call
    solves every (query, combination) system with one right-hand side per
    layer; on an unjittered mesh a lane may take the diagonal quotient
    instead of the elimination (``solve_lanes``' conditions).  A singular
    system is skipped and the rest averaged as ``evaluate_gradient``
    averages them (``_averaged_lanes``), so every estimate equals that
    function's bit for bit.  Each query is planned once and none is handed
    to a single-query function: a query that fails gets, in ``errors``,
    the error that ``evaluate_gradient`` raises on its first failing layer,
    named where the batch meets it: the planner's, ``select_simplex``'s
    for a mesh simplex with an absent point (``_absent_point``), or
    ``_lane_errors``'.  ``combinations_used`` counts each query's
    nonsingular systems.  A combination count that is not an integer >= 1
    raises ValidationError before any query is planned.
    """
    _check_combination_count(combinations)
    queries = _query_rows(queries, training.n)
    if mesh is not None:
        mesh.check_fit(training)
    M, L = len(queries), training.layer_count
    if mesh is not None and combinations == 1:
        cells = mesh.cells_of(queries)
        reference, aux = _mesh_simplexes(mesh, cells)
        y_hat, singular = _lane_estimates(training.x, training.y, queries, reference, aux)
        used = (~singular).astype(int)
        errors = _lane_errors(y_hat, used)
        for i in ((reference < 0) | (aux < 0).any(axis=1)).nonzero()[0]:
            errors[int(i)] = _absent_point(cells[i], reference[i], aux[i])
    else:
        planned, plans, aux, errors = _planned_lanes(training, queries, mesh, combinations)
        y_hat, reference, used = np.full((M, L), np.nan), np.full(M, -1), np.zeros(M, dtype=int)
        y_hat[planned], used[planned], failed = _averaged_lanes(
            training, queries[planned], plans, aux, training.y)
        reference[planned] = plans[:, 0]
        errors.update((int(planned[k]), e) for k, e in failed.items())
    return _finish_batch(training, queries, errors, y_hat, reference, used,
                         np.zeros((M, L, 0), dtype=int), np.zeros((M, L, 0), dtype=np.uint8))
