"""Smooth-approximating-surface method: per-axis cubic correction of chord gradients.

Each (x_i, y) cross-section through the reference cell is approximated by a
polynomial arc whose end tangents bisect the adjacent chord angles.  The
query's vertical line is intersected with that arc in a frame rotated so the
bracketing chord is horizontal, and the chord gradient is rotated to pass
through the intersection point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    Estimate,
    MeshIndex,
    NoConvergence,
    TrainingSet,
    ValidationError,
    ZeroWidthSegment,
)
from .neighbors import Stencil1D, _mesh_cell, axis_stencil, is_extrapolation
from .solvers import find_root

TRIVIAL_SLOPE = 1e-12  # below this the rotation is skipped entirely


@dataclass(frozen=True)
class ApproxFunctionParams:
    """Parameters of the approximating arc y = K x (B-x) (g1R (B-x)^d + g2L x^d).

    K = 1 / B^(d+1) is the unique scale that makes the end slopes equal the
    end gradients (g1R at 0, -g2L at B).
    """

    B: float
    g1R: float
    g2L: float
    d: float = 1.0

    def __post_init__(self):
        if self.B <= 0:
            raise ValidationError("interval length B must be positive")
        if self.d <= 0:
            raise ValidationError("shape exponent d must be positive")

    @property
    def K(self) -> float:
        return self.B ** -(self.d + 1.0)


def approx_eval(params: ApproxFunctionParams, x):
    """Height of the approximating arc above the rotated baseline at x."""
    B, d = params.B, params.d
    return params.K * x * (B - x) * (params.g1R * (B - x) ** d + params.g2L * x**d)


def approx_deriv(params: ApproxFunctionParams, x: float) -> float:
    B, d = params.B, params.d
    u = B - x
    inner = params.g1R * u**d + params.g2L * x**d
    d_inner = d * (params.g2L * x ** (d - 1.0) - params.g1R * u ** (d - 1.0))
    return params.K * ((B - 2.0 * x) * inner + x * u * d_inner)


def has_interior_inflection(params: ApproxFunctionParams, samples: int = 257) -> bool:
    """Whether the arc's curvature changes sign inside (0, B).

    Relevant only for d > 1, where the polynomial family acquires inflection
    points that can wander into the approximation interval.
    """
    xs = np.linspace(0.0, params.B, samples)[1:-1]
    h = params.B / (samples * 4.0)
    ys, yp, ym = (approx_eval(params, x) for x in (xs, xs + h, xs - h))
    curv = yp - 2.0 * ys + ym
    signs = np.sign(curv[np.abs(curv) > 1e-14 * max(1.0, np.abs(curv).max())])
    return bool(len(signs) and (signs != signs[0]).any())


@dataclass(frozen=True)
class StencilAngles:
    """Chord angles of the three stencil segments and the end tangent deviations."""

    F0: float
    F1: float
    F2: float
    Fg1: float
    Fg2: float
    missing_lower: bool = False
    missing_upper: bool = False


def segment_angles(stencil: Stencil1D) -> StencilAngles:
    """Chord angles F0..F2 in the raw (x_i, y) plane and deviations Fg1, Fg2.

    The tangent at each inner node bisects the turning angle between its two
    chords, which keeps the first derivative continuous across segments.  A
    missing boundary segment contributes zero deviation on its side.
    """

    def chord(i: int, j: int) -> float:
        dx = stencil.x[j] - stencil.x[i]
        if dx == 0.0:
            raise ZeroWidthSegment(f"stencil points {i},{j} share x={stencil.x[i]}")
        return float(np.arctan2(stencil.y[j] - stencil.y[i], dx))

    F1 = chord(1, 2)
    F0 = chord(0, 1) if not stencil.missing_lower else F1
    F2 = chord(2, 3) if not stencil.missing_upper else F1
    Fg1 = 0.0 if stencil.missing_lower else -(F1 - F0) / 2.0
    Fg2 = 0.0 if stencil.missing_upper else (F2 - F1) / 2.0
    return StencilAngles(
        F0=F0,
        F1=F1,
        F2=F2,
        Fg1=Fg1,
        Fg2=Fg2,
        missing_lower=stencil.missing_lower,
        missing_upper=stencil.missing_upper,
    )


@dataclass(frozen=True)
class IntersectionProblem:
    """Rotated-frame intersection of the arc with the query's vertical line."""

    params: ApproxFunctionParams
    x_p: float
    k: float
    c: float
    x0: float
    trivial: bool = False


def build_intersection(
    stencil: Stencil1D,
    angles: StencilAngles,
    query_x: float,
    d: float = 1.0,
) -> IntersectionProblem:
    """Set up the rotated-frame quantities for one axis.

    The frame is rotated by F1 so the bracketing chord becomes the baseline
    of length B = (x(Y2) - x(Y1)) / cos F1.  End gradients are the tangents
    of the deviation angles; the one at B flips sign because the arc's slope
    there runs against the segment direction.  The query line becomes
    y = k x + c with k = 1 / tan F1, and the first Newton iterate starts at
    x0 = x_p + y_p tan F1 with y_p the arc height above the foot point.
    """
    cos1 = np.cos(angles.F1)
    B = (stencil.x[2] - stencil.x[1]) / cos1
    g1R = float(np.tan(angles.Fg1))
    # the arc's end slope at B equals -g2L, so the bisector deviation Fg2
    # maps to the end gradient with its sign flipped
    g2L = float(-np.tan(angles.Fg2))
    params = ApproxFunctionParams(B=float(B), g1R=g1R, g2L=g2L, d=d)

    x_p = float((query_x - stencil.x[1]) / cos1)
    x_p = min(max(x_p, 0.0), float(B))
    tan1 = np.tan(angles.F1)
    if abs(tan1) < TRIVIAL_SLOPE:
        return IntersectionProblem(
            params=params, x_p=x_p, k=0.0, c=0.0, x0=x_p, trivial=True
        )
    k = 1.0 / tan1
    c = -k * x_p
    y_p = approx_eval(params, x_p)
    x0 = x_p + y_p * tan1
    x0 = min(max(x0, 0.0), float(B))
    return IntersectionProblem(params=params, x_p=x_p, k=float(k), c=float(c), x0=x0)


def solve_intersection(
    problem: IntersectionProblem, tol: float = 1e-9, max_iter: int = 20
) -> tuple[float, float, int]:
    """Intersection point (x*, y*) of the arc and the query line, plus iterations."""
    params = problem.params
    if problem.trivial:
        return problem.x_p, approx_eval(params, problem.x_p), 0

    def f(x: float) -> float:
        return approx_eval(params, x) - (problem.k * x + problem.c)

    def df(x: float) -> float:
        return approx_deriv(params, x) - problem.k

    root, iters = find_root(
        f, df, problem.x0, tol=tol, max_iter=max_iter, bracket=(0.0, params.B)
    )
    return float(root), approx_eval(params, float(root)), iters


def adjust_gradient(F1: float, x_star: float, y_star: float, B: float) -> float:
    """Rotate the chord gradient toward the intersection point.

    F2C is the angle subtended at the far end of the baseline by the
    intersection point; at x* -> B it degenerates to +-pi/2, which atan2
    resolves by the sign of y*.
    """
    F2C = float(np.arctan2(y_star, B - x_star))
    return float(np.tan(F1 - F2C))


def evaluate_smooth(
    training: TrainingSet,
    query,
    mesh: MeshIndex,
    d: float = 1.0,
    tol: float = 1e-9,
    max_iter: int = 20,
    layer: int = 0,
) -> Estimate:
    """Estimate the outcome at the query with per-axis smooth corrections.

    Requires mesh (or jittered-mesh) structure.  Axis-level failures fall
    back to the plain chord gradient for that axis and never abort the
    whole query.
    """
    if mesh is None:
        raise ValidationError("the smooth method requires a mesh-structured dataset")
    if not tol > 0:
        raise ValidationError("tolerance must be positive")
    if not d > 0:
        raise ValidationError("shape exponent d must be positive")
    if max_iter < 1:
        raise ValidationError("max iterations must be >= 1")
    if d > 1.0:
        warnings.warn(
            "shape exponent d > 1 admits inflection points inside the "
            "approximation interval",
            stacklevel=2,
        )
    query = np.asarray(query, dtype=float)
    cell, reference = _mesh_cell(mesh, query)
    y_ref = float(training.y[reference, layer])

    total = y_ref
    iterations = []
    flags = []
    for axis in range(training.n):
        stencil = axis_stencil(training, mesh, cell, axis, layer)
        x1, x2 = stencil.x[1], stencil.x[2]
        y1, y2 = stencil.y[1], stencil.y[2]
        q = float(query[axis])
        angles = segment_angles(stencil)
        # the chord through Y1 and Y2, extended to q: the uncorrected increment
        delta = (y1 - y_ref) + np.tan(angles.F1) * (q - x1)
        iters, flag = 0, "chord-fallback"  # extrapolation or clamped edge cell
        if min(x1, x2) <= q <= max(x1, x2):
            problem = build_intersection(stencil, angles, q, d)
            try:
                x_star, y_star, iters = solve_intersection(problem, tol, max_iter)
            except NoConvergence:
                iters, flag = max_iter, "newton-fallback"
            else:
                g_cor = adjust_gradient(angles.F1, x_star, y_star, problem.params.B)
                delta = (y1 - y_ref) + (y2 - y1) + g_cor * (q - x2)
                missing = stencil.missing_lower or stencil.missing_upper
                flag = "boundary-fallback" if missing else "corrected"
                if d > 1.0 and has_interior_inflection(problem.params):
                    flag += "+inflection"
        total += delta
        iterations.append(iters)
        flags.append(flag)

    return Estimate(
        y_hat=float(total),
        method="smooth",
        reference_index=reference,
        combinations_used=1,
        newton_iterations=tuple(iterations),
        flags=tuple(flags),
        extrapolated=is_extrapolation(training, query),
    )
