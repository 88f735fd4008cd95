"""Vector-valued outcomes evaluated layer by layer, plus the method dispatch
and worker fan-out that every multi-query caller shares."""

from __future__ import annotations

import inspect
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .model import MeshIndex, TrainingSet, ValidationError
from .gradient import _gradient_layers, evaluate_gradient_batch
from .smooth import _smooth_layers, evaluate_smooth_batch


def _method(method: str) -> tuple:
    """The named method's batch function and its single-query function over
    every layer; unknown names raise ValidationError.  They are looked up by
    module-global name on every call, so a function replaced on this module
    (by a tracer, say) is the one that runs."""
    if method == "gradient":
        return evaluate_gradient_batch, _gradient_layers
    if method == "smooth":
        return evaluate_smooth_batch, _smooth_layers
    raise ValidationError(f"unknown method {method!r}")


def _method_batch(mesh, method: str, kwargs: dict) -> Callable:
    """The named method's batch function, taking ``(training, queries)``, with
    ``mesh`` and ``kwargs`` bound.  A keyword the function does not take raises
    ValidationError before any work."""
    batch = _method(method)[0]
    try:
        inspect.signature(batch).bind(None, None, mesh, **kwargs)
    except TypeError as exc:
        raise ValidationError(f"{method} method: {exc}") from None
    return partial(batch, mesh=mesh, **kwargs)


def _fan_out(work: Callable[[np.ndarray], list], items, workers: int) -> list:
    """``work`` over ``items`` split into one chunk per worker process.

    Results come back flattened in input order.  Small inputs, or one worker,
    run in this process.  ``work`` must pickle (a module-level function or a
    ``functools.partial`` of one).
    """
    if workers <= 1 or len(items) < 2 * workers:
        return work(items)
    chunks = [c for c in np.array_split(np.asarray(items), workers) if len(c)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(work, chunks))
    return [r for part in parts for r in part]


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
    gradient; ``d``, ``tol``, ``max_iter`` for smooth).  Per-layer failures
    propagate as the corresponding component's error.  The gradient method's
    point combinations do not depend on the layer, so they are built once.
    """
    each_layer = _method(method)[1]
    return LayeredResult(components=each_layer(training, query, mesh, **kwargs))
