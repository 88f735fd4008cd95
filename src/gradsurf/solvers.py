"""Numeric kernels: dense Gauss elimination and a safeguarded Newton root finder."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .model import NoConvergence, SingularSystem

SINGULARITY_RTOL = 1e-12


def solve_linear_system(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve Ax = b by Gauss elimination with row partial pivoting.

    ``A`` is a finite square float matrix and ``b`` a matching vector; the
    callers build both from a validated TrainingSet, so neither is checked
    here, and neither is changed.  Returns the solution.  Raises
    SingularSystem when a pivot falls below 1e-12 relative to the largest
    entry of its row block.  The gradient method then skips that point
    combination when averaging; it does not retry another one.
    """
    A, b = np.array(A, dtype=float), np.array(b, dtype=float)
    n = len(b)
    scale = np.abs(A).max(axis=1)
    scale[scale == 0.0] = 1.0
    threshold = SINGULARITY_RTOL * scale.max()

    for k in range(n - 1):
        p = int(np.argmax(np.abs(A[k:, k]))) + k
        if abs(A[p, k]) <= threshold:
            raise SingularSystem(f"pivot {A[p, k]!r} below threshold at column {k}")
        if p != k:
            A[[k, p]] = A[[p, k]]
            b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            lam = A[i, k] / A[k, k]
            A[i, k + 1 :] -= lam * A[k, k + 1 :]
            b[i] -= lam * b[k]
    if abs(A[n - 1, n - 1]) <= threshold:
        raise SingularSystem("matrix is singular")

    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - A[k, k + 1 :] @ x[k + 1 :]) / A[k, k]
    return x


def solve_lanes(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``solve_linear_system`` on many lanes: A is (M, n, n), b (M, n, L).

    Lanes fall into two groups.  A lane whose off-diagonal entries are all
    zero (of either sign), whose ``b`` holds no ``-0.0`` and whose quotient
    ``b / diag(A)`` is finite takes that quotient, and is singular where some
    ``|A[k, k]|`` is at or below the threshold.  On such a lane elimination
    changes nothing: no row is swapped, every multiplier and every
    back-substitution dot is a zero, and subtracting a zero leaves every
    nonzero and every ``+0.0`` as it is.  It can turn a ``-0.0`` in ``b`` into
    ``+0.0``, and a zero times an infinity makes a NaN, hence the other two
    conditions.  A finite quotient needs a nonzero diagonal, so each row's
    largest magnitude, which sets the threshold, is its diagonal entry's.  An
    unjittered mesh gives such lanes: each simplex row steps one node along
    one axis.  Every other lane goes through ``_eliminate``, and a stack in
    which every lane has an off-diagonal entry goes there whole, without the
    quotient.  Scattered points and jittered meshes give such stacks: every
    ``evaluate_gradient`` call on a plan of two or more simplexes, and most
    ``evaluate_gradient_batch`` calls off an unjittered mesh.  Either way a
    lane's solution for right-hand side l equals
    ``solve_linear_system(A[i], b[i, :, l])`` bit for bit.  Returns the
    (M, L, n) solutions and the (M,) mask of the lanes the scalar solver would
    call singular; their solutions are meaningless.
    """
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    M, n, L = b.shape
    # the entries off the diagonal, as an (M, n - 1, n) view of a lane's rows
    off = A.reshape(M, n * n)[:, 1:].reshape(M, n - 1, n + 1)[..., :-1]
    dense = off.any(axis=(1, 2))
    if np.count_nonzero(dense) == M:  # no lane can take the quotient
        return _eliminate(A, b, _threshold(A))
    diag = A.diagonal(axis1=1, axis2=2)
    x = np.empty((M, L, n))
    with np.errstate(all="ignore"):  # lanes with a zero diagonal entry divide by zero
        np.divide(b.transpose(0, 2, 1), diag[:, None, :], out=x)
    size = np.abs(diag)
    singular = (size <= SINGULARITY_RTOL * size.max(axis=1, keepdims=True)).any(axis=1)
    rest = dense | ~np.isfinite(x).all(axis=(1, 2))
    rest |= ((b == 0.0) & np.signbit(b)).any(axis=(1, 2))
    if rest.any():
        A = A[rest]
        x[rest], singular[rest] = _eliminate(A, b[rest], _threshold(A))
    return x, singular


def _threshold(A: np.ndarray) -> np.ndarray:
    """``solve_linear_system``'s singularity threshold of each lane of A.

    Each row's largest magnitude is reduced over a contiguous (n, M, n) copy
    whose rows are the columns of A: a maximum of whole rows is much faster
    than one of each short row, and a maximum is exact in any order.
    """
    n, M = A.shape[1], len(A)
    scale = np.abs(A.transpose(2, 0, 1), out=np.empty((n, M, n))).max(axis=0)
    scale[scale == 0.0] = 1.0
    return SINGULARITY_RTOL * scale.max(axis=1)


def _eliminate(A: np.ndarray, b: np.ndarray, threshold: np.ndarray) -> tuple:
    """The scalar solver's steps on every lane of ``(A, b)``: the same
    threshold, the first largest pivot, the same swaps, and each row update
    as one outer product per pivot column, so every element sees the same
    multiply and subtract.  Each lane is held as ``[A | b]``, one (n, n + L)
    matrix, so that one swap and one update per step serve both.  A lane is
    singular where some pivot on the diagonal of the eliminated matrix is at
    or below its threshold.  The dots of the back-substitution go through
    stacked ``np.matmul``, which calls the same BLAS dot as the scalar 1-D
    ``@``.  Returns ``solve_lanes``'s pair."""
    M, n, L = b.shape
    Ab = np.concatenate((A, b), axis=2)
    lanes = np.arange(M)
    with np.errstate(all="ignore"):  # singular lanes may divide by zero
        for k in range(n - 1):
            p = np.abs(Ab[:, k:, k]).argmax(axis=1) + k
            Ab[lanes, p], Ab[:, k] = Ab[:, k], Ab[lanes, p]  # swap rows k and p
            lam = (Ab[:, k + 1 :, k] / Ab[:, k, k, None])[..., None]
            Ab[:, k + 1 :, k + 1 :] -= lam * Ab[:, k, None, k + 1 :]
        # each pivot sits on the diagonal from its swap on, and no later step
        # touches it: these are the scalar solver's comparisons
        pivots = np.abs(Ab.diagonal(axis1=1, axis2=2))
        singular = (pivots <= threshold[:, None]).any(axis=1)

        # the last row's dot is empty, a zero, and subtracting it changes nothing
        x = np.empty((M, L, n))
        np.divide(Ab[:, n - 1, n:], Ab[:, n - 1, n - 1, None], out=x[:, :, n - 1])
        for k in range(n - 2, -1, -1):
            dot = np.matmul(Ab[:, None, None, k, k + 1 : n], x[:, :, k + 1 :, None])
            np.divide(Ab[:, k, n:] - dot[..., 0, 0], Ab[:, k, k, None], out=x[:, :, k])
    return x, singular


def find_root(
    f: Callable[[float], float],
    df: Callable[[float], float],
    x0: float,
    tol: float = 1e-9,
    max_iter: int = 20,
    *,
    bracket: tuple[float, float],
) -> tuple[float, int]:
    """Newton-Raphson from x0, falling back to bisection on the bracket.

    Convergence is declared when the step between successive iterates drops
    to tol or below.  When Newton diverges, stalls, or leaves the bracket,
    the bracket is bisected to tolerance instead if f changes sign on it;
    with no sign change NoConvergence is raised.  ``tol > 0`` and
    ``max_iter >= 1`` are the caller's to check (``evaluate_smooth`` does).
    """
    x = float(x0)
    fx = f(x)
    if fx == 0.0:
        return x, 0

    lo, hi = float(bracket[0]), float(bracket[1])

    iterations = 0
    for _ in range(max_iter):
        dfx = df(x)
        if dfx == 0.0 or not np.isfinite(dfx):
            break
        step = fx / dfx
        xn = x - step
        if not (lo <= xn <= hi):
            break
        iterations += 1
        if abs(step) <= tol:
            return xn, iterations
        x = xn
        fx = f(x)

    return _bisect_fallback(f, tol, bracket, iterations)


def _bisect_fallback(f, tol, bracket, newton_iters: int) -> tuple[float, int]:
    lo, hi = float(bracket[0]), float(bracket[1])
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo, newton_iters
    if fhi == 0.0:
        return hi, newton_iters
    if np.sign(flo) == np.sign(fhi):
        raise NoConvergence("no sign change on the bracket")
    iters = newton_iters
    while hi - lo > tol:
        iters += 1
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid, iters
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
        if iters - newton_iters > 200:
            break
    return 0.5 * (lo + hi), iters
