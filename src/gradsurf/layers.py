"""Vector-valued outcomes evaluated layer by layer, plus the method dispatch
and worker fan-out that every multi-query caller shares."""

from __future__ import annotations

import inspect
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional

import numpy as np

from .model import MeshIndex, TrainingSet, ValidationError
from .gradient import _gradient_layers, evaluate_gradient_batch
from .smooth import _smooth_layers, evaluate_smooth_batch


@cache
def _keyword_error(function: Callable, names: tuple) -> Optional[str]:
    """Why ``function(training, queries, mesh, **{name: ...})`` does not bind
    for these keyword ``names``, or None; worked out once per function object
    and tuple of names, so the check costs a lookup on the hot path."""
    try:
        inspect.signature(function).bind(None, None, None, **dict.fromkeys(names))
    except TypeError as exc:
        return str(exc)
    return None


def _method(method: str, kwargs: dict) -> tuple:
    """The named method's batch function and its single-query function over
    every layer.  An unknown name, or a keyword in ``kwargs`` that the batch
    function does not take, raises ValidationError before any work.  The
    functions are looked up by module-global name on every call, so a
    function replaced on this module (by a tracer, say) is the one that runs
    and the one whose keywords are checked."""
    if method == "gradient":
        functions = evaluate_gradient_batch, _gradient_layers
    elif method == "smooth":
        functions = evaluate_smooth_batch, _smooth_layers
    else:
        raise ValidationError(f"unknown method {method!r}")
    error = _keyword_error(functions[0], tuple(kwargs))
    if error is not None:
        raise ValidationError(f"{method} method: {error}")
    return functions


def _method_batch(mesh, method: str, kwargs: dict) -> Callable:
    """The named method's batch function, taking ``(training, queries)``, with
    ``mesh`` and ``kwargs`` bound and checked by ``_method``."""
    batch = _method(method, kwargs)[0]
    return partial(batch, mesh=mesh, **kwargs)


def _fan_out(work: Callable[[np.ndarray], object], items, workers: int) -> list:
    """``work`` over ``items`` split into one chunk per worker process.

    The results come back as a list, one per chunk, in input order.  Small
    inputs, or one worker, run in this process as one chunk.  ``work`` must
    pickle (a module-level function or a ``functools.partial`` of one), and
    so must its results.
    """
    if workers <= 1 or len(items) < 2 * workers:
        return [work(items)]
    chunks = [c for c in np.array_split(np.asarray(items), workers) if len(c)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, chunks))


@dataclass(frozen=True)
class LayeredResult:
    """One Estimate per outcome layer, assembled in layer order."""

    components: tuple

    @property
    def y_hat(self) -> tuple:
        return tuple(c.y_hat for c in self.components)


def evaluate_layers(
    training: TrainingSet,
    query,
    mesh: Optional[MeshIndex] = None,
    method: str = "smooth",
    **kwargs,
) -> LayeredResult:
    """Evaluate every outcome layer independently and assemble the vector.

    Layers never mix: component j is exactly the scalar method applied to
    layer j's outcomes.  ``kwargs`` go to the method (``combinations`` for
    gradient; ``d``, ``tol``, ``max_iter`` for smooth); any other keyword
    raises ValidationError, as in ``evaluate_batch``.  Per-layer failures
    propagate as the corresponding component's error.  The gradient method's
    point combinations do not depend on the layer, so they are built once.
    """
    each_layer = _method(method, kwargs)[1]
    return LayeredResult(components=each_layer(training, query, mesh, **kwargs))
