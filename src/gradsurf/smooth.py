"""Smooth-approximating-surface method: per-axis cubic correction of chord gradients.

Each (x_i, y) cross-section through the reference cell is approximated by a
polynomial arc whose end tangents bisect the adjacent chord angles.  The
query's vertical line is intersected with that arc in a frame rotated so the
bracketing chord is horizontal, and the chord gradient is rotated to pass
through the intersection point.

Both entry points gather the stencils of every axis at once
(``neighbors._axis_stencils``).  ``evaluate_smooth`` then walks the axes of
one query; ``evaluate_smooth_batch`` evaluates every (query, axis, layer)
lane of a batch with array expressions.  Both compute through the same
formula helpers, so their results agree bit for bit.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral

import numpy as np

from .model import (
    FLAGS,
    Estimate,
    EstimateBatch,
    GradsurfError,
    MeshIndex,
    NoConvergence,
    TrainingSet,
    ValidationError,
    ZeroWidthSegment,
    _finish_batch,
    _query_rows,
    _query_vector,
)
from .neighbors import Stencil1D, _axis_stencils, _mesh_reference, _stencil, is_extrapolation
from .solvers import find_root

TRIVIAL_SLOPE = 1e-12  # below this the rotation is skipped entirely
# a lane's flag code; with its inflection test, its code into model.FLAG_NAMES
# is code + len(FLAGS) * inflection
CORRECTED, BOUNDARY, CHORD, NEWTON = range(len(FLAGS))
INFLECTION_SAMPLES = 257  # grid points over [0, B] of the inflection test, ends included
INFLECTION_BLOCK = 256  # lanes per inflection test: each samples 255 points


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
        if not self.B > 0:
            raise ValidationError("interval length B must be positive")
        if not self.d > 0:
            raise ValidationError("shape exponent d must be positive")

    @property
    def K(self) -> float:
        return self.B ** -(self.d + 1.0)


def _pow(base: float, exponent: float) -> float:
    """``base ** exponent`` on floats, and ``inf`` for a zero base with a
    negative exponent, where Python raises ZeroDivisionError: for d < 1 the
    arc's slope is infinite at either end of the interval, and an infinite
    slope sends Newton to bisection."""
    try:
        return base ** exponent
    except ZeroDivisionError:
        return float("inf")


def _pow_each(base: np.ndarray, exponent: float) -> np.ndarray:
    """``_pow`` element by element, as Python floats compute it.

    numpy's vectorised power can round the last bit differently from the C
    library's ``pow`` behind a Python float's ``**``; the batch kernel uses
    this so that its arcs equal the scalar path's bit for bit.  The builtin
    ``pow`` is that ``**``; only where it meets a zero base with a negative
    exponent is the powers' pass rerun through ``_pow``.
    """
    if exponent == 1.0:
        return base
    if exponent == 0.0:  # multiplies as an array of ones does
        return 1.0
    flat = base.ravel().tolist()
    try:
        each = np.fromiter(map(pow, flat, repeat(exponent)), dtype=float, count=len(flat))
    except ZeroDivisionError:
        each = np.fromiter(map(_pow, flat, repeat(exponent)), dtype=float, count=len(flat))
    return each.reshape(base.shape)


def _arc(K, B, g1R, g2L, d, x, power=operator.pow):
    """Height of the arc above the rotated baseline at x.

    Scalars or arrays; the batch kernel passes ``power=_pow_each`` so that
    its arrays round as the scalar path's floats do.
    """
    return K * x * (B - x) * (g1R * power(B - x, d) + g2L * power(x, d))


def _arc_slope(K, B, g1R, g2L, d, x, power=_pow):
    u = B - x
    inner = g1R * power(u, d) + g2L * power(x, d)
    d_inner = d * (g2L * power(x, d - 1.0) - g1R * power(u, d - 1.0))
    return K * ((B - 2.0 * x) * inner + x * u * d_inner)


def approx_eval(params: ApproxFunctionParams, x):
    """Height of the approximating arc above the rotated baseline at x."""
    return _arc(params.K, params.B, params.g1R, params.g2L, params.d, x)


def approx_deriv(params: ApproxFunctionParams, x: float) -> float:
    return _arc_slope(params.K, params.B, params.g1R, params.g2L, params.d, x)


def _inflects(K, B, g1R, g2L, d: float) -> np.ndarray:
    """``has_interior_inflection`` for each lane of 1-D parameter arrays."""
    xs = np.linspace(0.0, B, INFLECTION_SAMPLES, axis=-1)[:, 1:-1]
    h = (B / (INFLECTION_SAMPLES * 4.0))[:, None]
    K, B, g1R, g2L = (v[:, None] for v in (K, B, g1R, g2L))
    with np.errstate(all="ignore"):  # a power past the float range reads inf
        ys, yp, ym = (_arc(K, B, g1R, g2L, d, x) for x in (xs, xs + h, xs - h))
        curv = yp - 2.0 * ys + ym
    mag = np.abs(curv)
    kept = mag > 1e-14 * np.fmax(1.0, mag.max(axis=1, keepdims=True))
    return (kept & (curv > 0)).any(axis=1) & (kept & (curv < 0)).any(axis=1)


def has_interior_inflection(params: ApproxFunctionParams) -> bool:
    """Whether the arc's curvature changes sign inside (0, B).

    Relevant only for d > 1, where the polynomial family acquires inflection
    points that can wander into the approximation interval.
    """
    lane = (np.array([v]) for v in (params.K, params.B, params.g1R, params.g2L))
    return bool(_inflects(*lane, params.d)[0])


@dataclass(frozen=True)
class StencilAngles:
    """Chord angles of the three stencil segments and the end tangent deviations."""

    F0: float
    F1: float
    F2: float
    Fg1: float
    Fg2: float


def _chord(x, y, i: int, j: int):
    """Angle of the chord from stencil point i to point j."""
    return np.arctan2(y[j] - y[i], x[j] - x[i])


def _deviations(F0, F1, F2):
    """Tangent deviations at Y1 and Y2: half the turning angle at each node."""
    return -(F1 - F0) / 2.0, (F2 - F1) / 2.0


def segment_angles(stencil: Stencil1D) -> StencilAngles:
    """Chord angles F0..F2 in the raw (x_i, y) plane and deviations Fg1, Fg2.

    The tangent at each inner node bisects the turning angle between its two
    chords, which keeps the first derivative continuous across segments.  A
    missing boundary segment contributes zero deviation on its side.
    """
    x, y = stencil.x, stencil.y

    def chord(i: int, j: int) -> float:
        if x[j] - x[i] == 0.0:
            raise ZeroWidthSegment(f"stencil points {i},{j} share x={x[i]}")
        return float(_chord(x, y, i, j))

    F1 = chord(1, 2)
    F0 = chord(0, 1) if not stencil.missing_lower else F1
    F2 = chord(2, 3) if not stencil.missing_upper else F1
    Fg1, Fg2 = _deviations(F0, F1, F2)
    return StencilAngles(
        F0=F0,
        F1=F1,
        F2=F2,
        Fg1=0.0 if stencil.missing_lower else Fg1,
        Fg2=0.0 if stencil.missing_upper else Fg2,
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


def _frame(x1, x2, q, F1, Fg1, Fg2):
    """Baseline length, end gradients and the unclamped foot of the query line.

    The end slope of the arc at B equals -g2L, so the bisector deviation Fg2
    maps to the end gradient with its sign flipped.
    """
    cos1 = np.cos(F1)
    return (x2 - x1) / cos1, np.tan(Fg1), -np.tan(Fg2), (q - x1) / cos1


def _newton_start(K, B, g1R, g2L, d, x_p, tan1, power=operator.pow):
    """Slope k and intercept c of the query line, and the unclamped first iterate."""
    k = 1.0 / tan1
    return k, -k * x_p, x_p + _arc(K, B, g1R, g2L, d, x_p, power) * tan1


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
    B, g1R, g2L, x_p = _frame(
        stencil.x[1], stencil.x[2], query_x, angles.F1, angles.Fg1, angles.Fg2
    )
    params = ApproxFunctionParams(B=float(B), g1R=float(g1R), g2L=float(g2L), d=d)
    x_p = min(max(float(x_p), 0.0), params.B)
    tan1 = np.tan(angles.F1)
    if abs(tan1) < TRIVIAL_SLOPE:
        return IntersectionProblem(
            params=params, x_p=x_p, k=0.0, c=0.0, x0=x_p, trivial=True
        )
    k, c, x0 = _newton_start(params.K, params.B, params.g1R, params.g2L, d, x_p, tan1)
    x0 = min(max(x0, 0.0), params.B)
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


def _rotated_slope(F1, x_star, y_star, B):
    return np.tan(F1 - np.arctan2(y_star, B - x_star))


def adjust_gradient(F1: float, x_star: float, y_star: float, B: float) -> float:
    """Rotate the chord gradient toward the intersection point.

    F2C, the angle subtended at the far end of the baseline by the
    intersection point, is subtracted from F1; at x* -> B it degenerates to
    +-pi/2, which atan2 resolves by the sign of y*.
    """
    return float(_rotated_slope(F1, x_star, y_star, B))


def _chord_increment(y_ref, y1, x1, q, F1):
    """The chord through Y1 and Y2, extended to q: the uncorrected increment."""
    return (y1 - y_ref) + np.tan(F1) * (q - x1)


def _corrected_increment(y_ref, y1, y2, x2, q, g_cor):
    return (y1 - y_ref) + (y2 - y1) + g_cor * (q - x2)


def _check_arguments(mesh, d, tol, max_iter) -> None:
    """The argument checks and the d > 1 warning shared by both entry points."""
    if mesh is None:
        raise ValidationError("the smooth method requires a mesh-structured dataset")
    if not tol > 0:
        raise ValidationError("tolerance must be positive")
    if not 0 < d < float("inf"):
        raise ValidationError("shape exponent d must be positive and finite")
    if not isinstance(max_iter, Integral) or max_iter < 1:
        raise ValidationError(f"max iterations must be an integer >= 1, got {max_iter!r}")
    if d > 1.0:
        warnings.warn(
            "shape exponent d > 1 admits inflection points inside the "
            "approximation interval",
            stacklevel=3,
        )


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

    Requires mesh (or jittered-mesh) structure.  An axis whose query lies
    outside its bracketing pair, or whose Newton and bisection both fail,
    keeps the plain chord gradient.  The query fails, with the first error
    met, where no point is filed at the reference's grid index; then, axis
    by axis, where a stencil core is absent, a segment has zero width, or d
    takes the arc past the float range; last, where the estimate is not finite.
    """
    _check_arguments(mesh, d, tol, max_iter)
    query = _query_vector(query, training, layer)
    cells = mesh.cells_of(query[None, :])
    reference, rows, x = _axis_stencils(training, mesh, cells)
    reference = _mesh_reference(cells, reference)
    y_ref = float(training.y[reference, layer])
    stencils = zip(rows[0].tolist(), x[0].tolist(), training.y[rows[0], layer].tolist())

    total = y_ref
    iterations = []
    flags = []
    for axis, (seq, xs, ys) in enumerate(stencils):
        stencil = _stencil(axis, seq, xs, ys)
        x1, x2 = stencil.x[1], stencil.x[2]
        y1, y2 = stencil.y[1], stencil.y[2]
        q = float(query[axis])
        angles = segment_angles(stencil)
        delta = _chord_increment(y_ref, y1, x1, q, angles.F1)
        iters, flag = 0, "chord-fallback"  # extrapolation or clamped edge cell
        if min(x1, x2) <= q <= max(x1, x2):
            try:
                problem = build_intersection(stencil, angles, q, d)
                x_star, y_star, iters = solve_intersection(problem, tol, max_iter)
            except NoConvergence:
                iters, flag = max_iter, "newton-fallback"
            except OverflowError as exc:  # from a float ``**``, such as the scale K
                raise _past_float_range(d, axis) from exc
            else:
                g_cor = adjust_gradient(angles.F1, x_star, y_star, problem.params.B)
                delta = _corrected_increment(y_ref, y1, y2, x2, q, g_cor)
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


def _past_float_range(d: float, axis: int) -> ValidationError:
    """The error of an arc along ``axis`` whose float ``**`` overflows."""
    return ValidationError(f"shape exponent d={d!r} takes the arc along axis {axis} "
                           "past the float range")


def _arc_and_slope(p, x, d):
    """f and f' of each lane's intersection at x: ``_arc`` and ``_arc_slope``
    less the lane's line, from one ``B - x``, one pair of powers and one
    inner sum, in those functions' operation order.  ``p`` is
    ``_newton_lanes``'s; at d = 1 the powers in ``_arc_slope``'s ``d_inner``
    are exactly 1.0, so it is the lane constant g2L - g1R, ``p``'s last row."""
    K, B, g1R, g2L, k, c, g2L_g1R = p
    u = B - x
    inner = g1R * _pow_each(u, d) + g2L * _pow_each(x, d)
    if d == 1.0:
        d_inner = g2L_g1R
    else:
        d_inner = d * (g2L * _pow_each(x, d - 1.0) - g1R * _pow_each(u, d - 1.0))
    fx = K * x * u * inner - (k * x + c)
    return fx, K * ((B - 2.0 * x) * inner + x * u * d_inner) - k


def _newton_lanes(p, x0, d, tol, max_iter):
    """``find_root``'s Newton phase over lanes, by its rules lane by lane.

    ``p`` holds seven (N,) arrays, each lane's K, B, g1R, g2L, k, c and
    g2L - g1R: lane j solves arc(x) = k[j] x + c[j] from x0[j] on the
    bracket [0, B[j]].  Returns the roots, the iteration counts, and the
    lanes that leave Newton for bisection: they left the bracket, met a zero
    or non-finite derivative, or ran out of iterations.  f and f' are taken
    together at each iterate (``_arc_and_slope``).  A lane's results are
    written when it stops, and the lanes still running are gathered again
    only then.
    """
    N = len(x0)
    root, iters, rerun = x0.copy(), np.zeros(N, dtype=int), np.zeros(N, dtype=bool)
    act, x = np.arange(N), x0
    fx, dfx = _arc_and_slope(p, x, d)
    moving = fx != 0.0  # f(x0) == 0 is a root after 0 iterations
    if np.count_nonzero(moving) < N:
        act = moving.nonzero()[0]
        x, fx, dfx = x[act], fx[act], dfx[act]
        p = tuple(v[act] for v in p)
    for t in range(max_iter if len(act) else 0):
        if t:
            fx, dfx = _arc_and_slope(p, x, d)
        step = fx / dfx
        xn = x - step
        go = (dfx != 0.0) & np.isfinite(dfx) & (0.0 <= xn) & (xn <= p[1])
        live = go & (np.abs(step) > tol)
        if np.count_nonzero(live) < len(act):
            stop = (~live).nonzero()[0]
            lanes, went = act[stop], go[stop]
            # a converged lane's root is its last step
            root[lanes] = np.where(went, xn[stop], x[stop])
            iters[lanes] = t + went
            rerun[lanes] = ~went
            keep = live.nonzero()[0]
            if not len(keep):
                break
            act, xn = act[keep], xn[keep]
            p = tuple(v[keep] for v in p)
        x = xn
    else:
        root[act], iters[act], rerun[act] = x, max_iter, True
    return root, iters, rerun


def _lanes(mask: np.ndarray):
    """The lanes that ``mask`` selects, as an index: every lane as a slice,
    which indexes without a copy, or their positions."""
    return slice(None) if np.count_nonzero(mask) == len(mask) else mask.nonzero()[0]


def _gather(arrays: tuple, lanes) -> tuple:
    """Each (N,) array at ``lanes`` (``_lanes``), in one gather."""
    return arrays if isinstance(lanes, slice) else tuple(np.array(arrays)[:, lanes])


def _intersect_lanes(x, y, y_ref, q, missing_lower, missing_upper, usable, d, tol, max_iter):
    """Increments, Newton iterations, flag codes and inflections of N lanes.

    ``x`` and ``y`` are (4, N): the stencil points' coordinates and outcomes.
    The other arrays are (N,); only ``usable`` lanes with q inside their
    bracket are intersected.  The formulas are ``evaluate_smooth``'s.
    """
    N = len(q)
    F0, F1, F2 = _chord(x, y, slice(0, 3), slice(1, 4))
    Fg1, Fg2 = _deviations(F0, F1, F2)
    Fg1[missing_lower] = 0.0
    Fg2[missing_upper] = 0.0
    delta = _chord_increment(y_ref, y[1], x[1], q, F1)
    iters = np.zeros(N, dtype=int)
    code = np.full(N, CHORD)
    inflection = np.zeros(N, dtype=bool)

    lanes = _lanes(usable & (x[1] <= q) & (q <= x[2]))
    boundary = (missing_lower | missing_upper)[lanes]
    F1, Fg1, Fg2, x1, x2, y1, y2, q, y_ref = _gather(
        (F1, Fg1, Fg2, x[1], x[2], y[1], y[2], q, y_ref), lanes
    )
    B, g1R, g2L, x_p = _frame(x1, x2, q, F1, Fg1, Fg2)
    x_p = np.minimum(np.maximum(x_p, 0.0), B)  # as min(max(x_p, 0.0), B) on floats
    K = _pow_each(B, -(d + 1.0))
    tan1 = np.tan(F1)

    # Newton on the lanes with a tilted chord; the rest are trivial (x* = x_p)
    s = _lanes(np.abs(tan1) >= TRIVIAL_SLOPE)
    Ks, Bs, g1Rs, g2Ls, x_ps, tan1s = _gather((K, B, g1R, g2L, x_p, tan1), s)
    k, c, x0 = _newton_start(Ks, Bs, g1Rs, g2Ls, d, x_ps, tan1s, _pow_each)
    x0 = np.minimum(np.maximum(x0, 0.0), Bs)
    p = (Ks, Bs, g1Rs, g2Ls, k, c, g2Ls - g1Rs)
    x_star, it = x_p.copy(), np.zeros(len(x_p), dtype=int)
    x_star[s], it[s], rerun = _newton_lanes(p, x0, d, tol, max_iter)
    y_star = _arc(K, B, g1R, g2L, d, x_star, _pow_each)
    failed = []  # lanes that neither Newton nor bisection solved
    for j in rerun.nonzero()[0]:
        # a lane that leaves Newton reruns find_root, bisection fallback and all
        lane = np.arange(len(x_p))[s][j]
        params = ApproxFunctionParams(B=float(Bs[j]), g1R=float(g1Rs[j]), g2L=float(g2Ls[j]), d=d)
        problem = IntersectionProblem(params=params, x_p=float(x_ps[j]),
                                      k=float(k[j]), c=float(c[j]), x0=float(x0[j]))
        try:
            x_star[lane], y_star[lane], it[lane] = solve_intersection(problem, tol, max_iter)
        except NoConvergence:
            it[lane] = max_iter
            failed.append(lane)

    g_cor = _rotated_slope(F1, x_star, y_star, B)
    corrected = _corrected_increment(y_ref, y1, y2, x2, q, g_cor)
    lane_code = np.where(boundary, BOUNDARY, CORRECTED)
    if failed:  # they keep the chord
        corrected[failed], lane_code[failed] = delta[lanes][failed], NEWTON
    delta[lanes] = corrected
    iters[lanes] = it
    code[lanes] = lane_code
    if d > 1.0:
        solved = np.ones(len(x_p), dtype=bool)
        solved[failed] = False
        bent = np.arange(N)[lanes][solved]
        params = (K[solved], B[solved], g1R[solved], g2L[solved])
        for b in range(0, len(bent), INFLECTION_BLOCK):
            block = slice(b, b + INFLECTION_BLOCK)
            inflection[bent[block]] = _inflects(*(v[block] for v in params), d)
    return delta, iters, code, inflection


def _intersect_halves(lanes: tuple, d, tol, max_iter):
    """``_intersect_lanes`` on ``lanes``, its first seven arguments, and a mask of the lanes
    whose float ``**`` overflows (their increments NaN): each lane is solved on its own, so a
    call that overflows solves each half of its lanes again, down to those lanes."""
    N = len(lanes[3])
    try:
        return (*_intersect_lanes(*lanes, d, tol, max_iter), np.zeros(N, dtype=bool))
    except OverflowError:
        if N == 1:
            return tuple(np.array([v]) for v in (np.nan, 0, CHORD, False, True))
    parts = (_intersect_halves(tuple(v[..., half] for v in lanes), d, tol, max_iter)
             for half in (slice(N // 2), slice(N // 2, None)))
    return tuple(np.concatenate(pair) for pair in zip(*parts))


def _refusal(training, cells, reference, rows, x, overflow, y_hat, d) -> GradsurfError:
    """``evaluate_smooth``'s error on one query of a batch, from the query's rows of the
    batch's arrays (``overflow`` (L, n)), raised by that function's steps in its order."""
    try:
        _mesh_reference(cells, reference)
        for layer, (over, y) in enumerate(zip(overflow.tolist(), y_hat.tolist())):
            for axis, (seq, xs) in enumerate(zip(rows.tolist(), x.tolist())):
                segment_angles(_stencil(axis, seq, xs, training.y[seq, layer].tolist()))
                if over[axis]:
                    raise _past_float_range(d, axis)
            # the Estimate that evaluate_smooth returns refuses a y that is not finite
            Estimate(y_hat=y, method="smooth", reference_index=int(reference[0]))
    except GradsurfError as exc:
        return exc


def evaluate_smooth_batch(
    training: TrainingSet,
    queries,
    mesh: MeshIndex,
    d: float = 1.0,
    tol: float = 1e-9,
    max_iter: int = 20,
) -> EstimateBatch:
    """``evaluate_smooth`` for every query of an (M, n) array and every layer.

    The stencils are gathered once per query for all layers, and every
    (query, axis, layer) lane goes through one set of array expressions.  Each
    query's increments are summed in axis order, so every estimate, iteration
    count and flag equals the scalar path's.  A lane is solved unless its
    axis has an absent core or a zero-width segment, or its query no
    reference; a query that fails gets ``evaluate_smooth``'s error at its
    first failing layer, named from these arrays.  d > 1 warns once.
    """
    _check_arguments(mesh, d, tol, max_iter)
    queries = _query_rows(queries, training.n)
    M, n, L = len(queries), training.n, training.layer_count
    cells = mesh.cells_of(queries)
    reference, rows, x = _axis_stencils(training, mesh, cells)
    present = rows >= 0
    # a zero-width segment between present points, or an absent core
    wrong = (x[..., 1:] == x[..., :-1]) & present[..., 1:] & present[..., :-1]
    wrong[..., 1] |= ~(present[..., 1] & present[..., 2])
    usable = ~wrong.any(axis=2) & (reference >= 0)[:, None]  # (M, n)

    # one lane per (query, axis, layer), in that order: a (query, axis)
    # value repeats L times, a (query, layer) value n times
    y_ref = training.y[reference]
    missing = ~present[..., ::3].reshape(-1, 2).repeat(L, axis=0).T  # Y0, Y3
    with np.errstate(all="ignore"):
        delta, iters, code, inflection, overflow = _intersect_halves(
            (x.reshape(-1, 4).repeat(L, axis=0).T,
             training.y[rows].transpose(2, 0, 1, 3).reshape(4, -1),
             y_ref.repeat(n, axis=0).ravel(), queries.repeat(L), *missing,
             usable.ravel().repeat(L)), d, tol, max_iter,
        )
        # the scalar path's running total: y_ref, then each axis in order
        total = np.concatenate([y_ref[:, None, :], delta.reshape(M, n, L)], axis=1).cumsum(axis=1)
    y_hat = total[:, -1, :].copy()

    codes, iters, overflow = (v.reshape(M, n, L).transpose(0, 2, 1) for v in (
        (code + len(FLAGS) * inflection).astype(np.uint8), iters, overflow))
    refused = ~(usable.all(axis=1) & np.isfinite(y_hat).all(axis=1))
    errors = {int(i): _refusal(training, cells[i:i + 1], reference[i:i + 1], rows[i], x[i],
                               overflow[i], y_hat[i], d)
              for i in refused.nonzero()[0]}
    return _finish_batch(training, queries, errors, y_hat, reference, np.ones(M, dtype=int),
                         iters, codes)
