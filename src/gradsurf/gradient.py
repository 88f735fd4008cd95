"""Gradient-based reconstruction: local hyperplane through a simplex of points.

Simplexes are solved as lanes, one ``solvers.solve_lanes`` call for many
systems (``_lane_estimates``): ``evaluate_gradient_batch`` solves a batch's
(query, combination) systems so, and ``evaluate_gradient`` a query's plan of
two or more simplexes.  ``evaluate_gradient`` solves a one-simplex plan with
the scalar solver instead: at n=3 that costs about half a one-lane call, and
acceptance criterion 9a times it on unjittered n=99 cells.  Lanes and the
scalar solver do the same arithmetic, so every result agrees bit for bit.
"""

from __future__ import annotations

from functools import partial
from numbers import Integral
from typing import Optional

import numpy as np

from .model import (
    DegenerateNeighborhood,
    Estimate,
    EstimateBatch,
    GradsurfError,
    MeshIndex,
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
    _check_combination_count,
    _mesh_simplexes,
    _scattered_plans,
    enumerate_combinations,
    is_extrapolation,
)
from .solvers import solve_lanes, solve_linear_system

LOCKSTEP_MIN_QUERIES = 16  # fewer scattered queries are planned faster one by one
LOCKSTEP_MAX_QUERIES = 128  # per lockstep call, which holds a (Q, n, n) basis


def estimate_gradients(training: TrainingSet, simplex: Simplex, layer: int = 0) -> np.ndarray:
    """Solve the n-by-n difference system for the partial derivatives.

    Returns the partial derivatives p at the reference point.  Row m is
    (x_aux[m] - x_ref) with right-hand side (y_aux[m] - y_ref); axis-aligned
    neighborhoods reduce to plain difference quotients through the same
    pivoting solver.
    """
    ref = simplex.reference
    aux = list(simplex.auxiliaries)
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
    of them (``_plan_estimates``), as ``evaluate_gradient_batch`` solves
    them.  A one-simplex plan keeps the scalar solver: one scalar solve at
    n=3 costs about half of a one-lane call, and acceptance criterion 9a
    times this path on unjittered n=99 cells.  A caller's plan is checked
    first: each simplex must name a reference and exactly n auxiliaries,
    each an integer row of ``training``, or ValidationError is raised.
    """
    query = _query_vector(query, training, layer)
    if plan is None:
        plan = enumerate_combinations(training, query, combinations, mesh)
    else:
        _check_plan(training, plan)
    if len(plan.simplexes) != 1:
        return _plan_estimates(training, query, plan, training.y[:, layer : layer + 1])[0]

    simplex = plan.simplexes[0]
    try:
        p = estimate_gradients(training, simplex, layer)
    except DegenerateNeighborhood:
        raise DegenerateNeighborhood("all point combinations were degenerate") from None
    ref = simplex.reference
    value = extrapolate(training.x[ref], float(training.y[ref, layer]), p, query)
    return Estimate(
        y_hat=float(np.mean([value])),  # a sum starts at +0.0, so a -0.0 value reads +0.0
        method="gradient",
        reference_index=ref,
        combinations_used=1,
        extrapolated=is_extrapolation(training, query),
    )


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


def _plan_estimates(training: TrainingSet, query: np.ndarray, plan, y: np.ndarray) -> tuple:
    """The Estimate of each outcome column of ``y`` (N, L) at the query, from
    one ``_lane_estimates`` call over every simplex of the plan.  Each
    column's nonsingular values are averaged in plan order by ``np.mean`` of
    a contiguous row, as the scalar loop averaged them.  No nonsingular
    simplex raises DegenerateNeighborhood; a mean that is not finite,
    NonFiniteValue for the first such column.  Numpy's warnings are
    silenced: a value that overflows is not finite, and the Estimate
    refuses it."""
    reference = np.array([s.reference for s in plan.simplexes], dtype=int)
    aux = np.array([s.auxiliaries for s in plan.simplexes], dtype=int).reshape(-1, training.n)
    with np.errstate(all="ignore"):
        values, singular = _lane_estimates(training.x, y, query, reference, aux)
        kept = np.ascontiguousarray(values[~singular].T)  # one row per column of y
        if not kept.shape[1]:
            raise DegenerateNeighborhood("all point combinations were degenerate")
        extrapolated = is_extrapolation(training, query)
        return tuple(
            Estimate(
                y_hat=float(np.mean(row)),
                method="gradient",
                reference_index=plan.simplexes[0].reference,
                combinations_used=kept.shape[1],
                extrapolated=extrapolated,
            )
            for row in kept
        )


def _gradient_layers(training: TrainingSet, query, mesh=None, combinations=1) -> tuple:
    """``evaluate_gradient`` on every layer of one query.  The point
    combinations do not depend on the layer, so they are built once, and
    one ``_lane_estimates`` call solves them for every layer."""
    query = _query_vector(query, training)
    plan = enumerate_combinations(training, query, combinations, mesh)
    return _plan_estimates(training, query, plan, training.y)


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
    A -= x_ref[:, None]
    b -= y_ref[:, None]
    p, singular = solve_lanes(A, b)
    with np.errstate(all="ignore"):  # singular lanes may hold inf or NaN
        dot = np.matmul(p[:, :, None, :], (queries - x_ref)[:, None, :, None])
        return y_ref + dot[..., 0, 0], singular


def _planned_lanes(training: TrainingSet, queries, mesh, combinations) -> tuple:
    """Each query's ``enumerate_combinations`` plan, shared by every layer.

    Scattered queries are planned in lockstep (``_scattered_plans``), in
    even parts of at most ``LOCKSTEP_MAX_QUERIES``; a query it hands back,
    every query on a mesh and a batch of fewer than ``LOCKSTEP_MIN_QUERIES``
    scattered queries go through ``enumerate_combinations`` itself.  Returns
    the rows of the queries that have a plan, (P,), and their plans as (P, C)
    reference and (P, C, n) auxiliary rows of ``training``.
    """
    M = len(queries)
    reference = np.empty((M, combinations), dtype=int)
    aux = np.empty((M, combinations, training.n), dtype=int)
    handed = np.ones(M, dtype=bool)
    if mesh is None and M >= LOCKSTEP_MIN_QUERIES:
        for part in np.array_split(np.arange(M), -(-M // LOCKSTEP_MAX_QUERIES)):
            reference[part], aux[part], handed[part] = _scattered_plans(
                training, queries[part], combinations
            )
    planned = ~handed
    for i in np.flatnonzero(handed):
        try:
            plan = enumerate_combinations(training, queries[i], combinations, mesh).simplexes
        except GradsurfError:
            continue
        reference[i] = [s.reference for s in plan]
        aux[i] = [s.auxiliaries for s in plan]
        planned[i] = True
    rows = np.flatnonzero(planned)
    return rows, reference[rows], aux[rows]


def _average(values: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``np.mean`` over the kept combinations of each (query, layer).

    ``values`` is (M, C, L) and ``kept`` (M, C).  The mean runs along the
    last axis of a contiguous (M, L, C) copy, which sums each row as
    ``np.mean`` sums a 1-D array, so each mean equals the scalar path's
    ``np.mean(values)`` bit for bit.  A boolean mask on the last axis gives
    a column-first array, so the kept values are copied to rows first.  A
    query that keeps no combination gets NaN.
    """
    rows = np.ascontiguousarray(values.transpose(0, 2, 1))
    mean = np.full(rows.shape[:2], np.nan)
    full = kept.all(axis=1)
    with np.errstate(all="ignore"):  # a non-finite estimate is redone
        mean[full] = rows[full].mean(axis=-1)
        for i in np.flatnonzero(~full & kept.any(axis=1)):
            mean[i] = np.ascontiguousarray(rows[i][:, kept[i]]).mean(axis=-1)
    return mean


def evaluate_gradient_batch(
    training: TrainingSet, queries, mesh: Optional[MeshIndex] = None, combinations: int = 1
) -> EstimateBatch:
    """``evaluate_gradient`` for every query of an (M, n) array and every layer.

    On a mesh with one combination, each query's simplex is gathered as
    ``select_simplex`` picks it (``_mesh_simplexes``).  Every other query
    (scattered data, several combinations) gets its ``enumerate_combinations``
    plan, one for all layers; in a batch of at least
    ``LOCKSTEP_MIN_QUERIES``, scattered plans are built in lockstep
    (``_scattered_plans``, at most ``LOCKSTEP_MAX_QUERIES`` queries a call),
    which hands a query back to that function where its base simplex fails
    or its blocks run past its nearest points.  The lockstep finds every
    query's nearest points at once, through a bucket grid over the points
    (``TrainingSet.buckets``, built on first use) at up to six axes where a
    query's box of buckets holds a small share of them, and from the
    distances to all points elsewhere; the points found are the same.  One
    ``solve_lanes`` call solves every (query, combination) system with one
    right-hand side per layer; on an unjittered mesh each system is
    diagonal, and a lane whose right-hand sides hold no ``-0.0`` takes the
    quotient instead of the elimination (the conditions are
    ``solve_lanes``'s).  A singular system is skipped, as
    ``evaluate_gradient`` skips it, and the rest averaged as it averages
    them, so every estimate equals that function's bit for bit: its plans
    of two or more simplexes take the same lanes, and its one-simplex plans
    the scalar solver, which the lanes match.  A query without a plan (an
    absent simplex point, too few points), without a nonsingular system, or
    with an estimate that is not finite is redone on its own
    (``_gradient_layers``): its plan is built again and solved once for all
    layers, so that its result, or its first failing layer's error, is
    ``evaluate_gradient``'s too.  ``combinations_used`` counts each
    query's nonsingular systems.  A combination count that is not an
    integer >= 1 raises ValidationError before any query is planned.
    """
    _check_combination_count(combinations)
    queries = _query_rows(queries, training.n)
    if mesh is not None:
        mesh.check_fit(training)
    if mesh is not None and combinations == 1:
        reference, aux = _mesh_simplexes(mesh, mesh.cells_of(queries))
        y_hat, singular = _lane_estimates(training.x, training.y, queries, reference, aux)
        redo = (reference < 0) | (aux < 0).any(axis=1) | singular
        used = np.ones(len(queries), dtype=int)
    else:
        planned, plans, aux = _planned_lanes(training, queries, mesh, combinations)
        C = plans.shape[1]
        values, singular = _lane_estimates(
            training.x, training.y, np.repeat(queries[planned], C, axis=0), plans.ravel(),
            aux.reshape(-1, training.n),
        )
        kept = ~singular.reshape(-1, C)
        y_hat = np.full((len(queries), training.layer_count), np.nan)
        y_hat[planned] = _average(values.reshape(-1, C, training.layer_count), kept)
        reference, redo = np.full(len(queries), -1), np.ones(len(queries), dtype=bool)
        reference[planned], redo[planned] = plans[:, 0], ~kept.any(axis=1)
        used = np.zeros(len(queries), dtype=int)
        used[planned] = kept.sum(axis=1)
    redo |= ~np.isfinite(y_hat).all(axis=1)

    M, L = y_hat.shape
    each_layer = partial(_gradient_layers, training, mesh=mesh, combinations=combinations)
    return _finish_batch(
        training, queries, each_layer, redo, y_hat, reference, used,
        np.zeros((M, L, 0), dtype=int), np.empty((M, L, 0), dtype=object),
    )
