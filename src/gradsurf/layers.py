"""Vector-valued outcomes evaluated layer by layer, plus the method dispatch
and worker fan-out that every multi-query caller shares."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .model import Estimate, MeshIndex, TrainingSet, ValidationError, _query_vector
from .gradient import evaluate_gradient, evaluate_gradient_batch
from .neighbors import enumerate_combinations
from .smooth import evaluate_smooth, evaluate_smooth_batch


def _evaluate(training, query, mesh, method: str, **kwargs) -> Estimate:
    """Run the named method on one query; unknown names raise ValidationError.

    The methods are looked up by module-global name on every call, so a
    function replaced on this module (by a tracer, say) is the one that runs.
    """
    if method == "gradient":
        return evaluate_gradient(training, query, mesh=mesh, **kwargs)
    if method == "smooth":
        return evaluate_smooth(training, query, mesh=mesh, **kwargs)
    raise ValidationError(f"unknown method {method!r}")


def _batch_kernel(mesh, method: str, kwargs: dict) -> Optional[Callable]:
    """The array kernel that runs ``method`` with ``kwargs`` on a batch, or None
    where only the per-query path applies.

    The returned callable takes ``(training, queries, layers=...)`` and gives
    an ``EstimateBatch``.  Every smooth batch has one; a gradient batch has
    one on a mesh with one combination and no other option.
    """
    if method == "smooth":
        return partial(evaluate_smooth_batch, mesh=mesh, **kwargs)
    if method == "gradient" and mesh is not None and kwargs in ({}, {"combinations": 1}):
        return partial(evaluate_gradient_batch, mesh=mesh)
    return None


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
    if method == "gradient" and kwargs.get("plan") is None:
        query = _query_vector(query, training.n)
        kwargs["plan"] = enumerate_combinations(
            training, query, kwargs.get("combinations", 1), mesh
        )
    return LayeredResult(components=tuple(
        _evaluate(training, query, mesh, method, layer=layer, **kwargs)
        for layer in range(training.layer_count)
    ))
