"""Gradient-based reconstruction: local hyperplane through a simplex of points."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import DegenerateNeighborhood, Estimate, MeshIndex, SingularSystem, TrainingSet
from .neighbors import CombinationPlan, Simplex, enumerate_combinations, is_extrapolation
from .solvers import solve_linear_system


def estimate_gradients(
    training: TrainingSet, simplex: Simplex, layer: int = 0
) -> tuple[np.ndarray, float]:
    """Solve the n-by-n difference system for the partial derivatives.

    Returns the partial derivatives p at the reference point and the
    infinity norm of the system's residual.

    Row m is (x_aux[m] - x_ref) with right-hand side (y_aux[m] - y_ref);
    axis-aligned neighborhoods reduce to plain difference quotients through
    the same pivoting solver.
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
    query = np.asarray(query, dtype=float)
    if plan is None:
        plan = enumerate_combinations(training, query, combinations, mesh)

    values = []
    residual = 0.0
    for simplex in plan.simplexes:
        try:
            p, res = estimate_gradients(training, simplex, layer)
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
        residual = max(residual, res)
    if not values:
        raise DegenerateNeighborhood("all point combinations were degenerate")

    return Estimate(
        y_hat=float(np.mean(values)),
        method="gradient",
        reference_index=plan.simplexes[0].reference,
        combinations_used=len(values),
        residual=residual,
        per_combination=tuple(values),
        extrapolated=is_extrapolation(training, query),
    )
