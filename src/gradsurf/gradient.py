"""Gradient-based reconstruction: local hyperplane through a simplex of points.

``evaluate_gradient`` solves one query's system; ``evaluate_gradient_batch``
solves a mesh batch's as (query, layer) lanes with array expressions, with the
same arithmetic, so their results agree bit for bit.
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
    MeshIndex,
    SingularSystem,
    TrainingSet,
    _finish_batch,
    _query_rows,
    _query_vector,
)
from .neighbors import (
    CombinationPlan,
    Simplex,
    _mesh_simplexes,
    enumerate_combinations,
    is_extrapolation,
)
from .solvers import solve_lanes, solve_linear_system


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

    Each simplex in the plan contributes one extrapolated value; degenerate
    combinations are skipped and the survivors averaged with equal weight.
    """
    query = _query_vector(query, training, layer)
    if plan is None:
        plan = enumerate_combinations(training, query, combinations, mesh)

    values = []
    for simplex in plan.simplexes:
        try:
            p = estimate_gradients(training, simplex, layer)
        except DegenerateNeighborhood:
            continue
        values.append(
            extrapolate(
                training.x[simplex.reference],
                float(training.y[simplex.reference, layer]),
                p,
                query,
            )
        )
    if not values:
        raise DegenerateNeighborhood("all point combinations were degenerate")

    return Estimate(
        y_hat=float(np.mean(values)),
        method="gradient",
        reference_index=plan.simplexes[0].reference,
        combinations_used=len(values),
        extrapolated=is_extrapolation(training, query),
    )


def _gradient_layers(training: TrainingSet, query, mesh=None, combinations=1) -> tuple:
    """``evaluate_gradient`` on every layer of one query.  The point
    combinations do not depend on the layer, so they are built once."""
    query = _query_vector(query, training)
    plan = enumerate_combinations(training, query, combinations, mesh)
    layers = range(training.layer_count)
    return tuple(evaluate_gradient(training, query, mesh, layer=l, plan=plan) for l in layers)


def evaluate_gradient_batch(
    training: TrainingSet, queries, mesh: Optional[MeshIndex] = None, combinations: int = 1
) -> EstimateBatch:
    """``evaluate_gradient`` for every query of an (M, n) array and every layer.

    On a mesh with one combination, each query's simplex is gathered once for
    all layers, as ``select_simplex`` picks it (``_mesh_simplexes``).
    ``solve_lanes`` solves every system with one right-hand side per layer; on
    an unjittered mesh each system is diagonal, and a lane whose right-hand
    sides hold no ``-0.0`` takes the quotient instead of the elimination (the
    conditions are ``solve_lanes``'s).  The
    expansion's dot goes through the scalar path's BLAS dot, so every estimate
    equals that path's.  Every other query (scattered data, several
    combinations, an absent simplex point, a singular system, or an estimate
    that is not finite) goes to ``evaluate_gradient``, one plan for all layers,
    so that its result or error is the scalar path's too.
    """
    queries = _query_rows(queries, training.n)
    M, L = len(queries), training.layer_count
    y_hat, reference = np.full((M, L), np.nan), np.full(M, -1)
    redo = np.ones(M, dtype=bool)
    if mesh is not None and combinations == 1 and isinstance(combinations, Integral):
        reference, aux = _mesh_simplexes(mesh, mesh.cells_of(queries))
        x, y = training.x, training.y  # every layer is one right-hand side
        x_ref, y_ref = x[reference], y[reference]
        p, singular = solve_lanes(x[aux] - x_ref[:, None], y[aux] - y_ref[:, None])
        with np.errstate(all="ignore"):  # singular lanes may hold inf or NaN
            dot = np.matmul(p[:, :, None, :], (queries - x_ref)[:, None, :, None])
            y_hat = y_ref + dot[..., 0, 0]
        redo = (reference < 0) | (aux < 0).any(axis=1) | singular
        redo |= ~np.isfinite(y_hat).all(axis=1)

    each_layer = partial(_gradient_layers, training, mesh=mesh, combinations=combinations)
    return _finish_batch(
        training, queries, each_layer, redo, y_hat, reference,
        np.zeros((M, L, 0), dtype=int), np.empty((M, L, 0), dtype=object),
    )
