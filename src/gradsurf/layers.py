"""Vector-valued outcomes evaluated layer by layer, plus the method dispatch
and worker fan-out that every multi-query caller shares."""

from __future__ import annotations

import inspect
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional

import numpy as np

from .model import DimensionMismatch, MeshIndex, TrainingSet, ValidationError, _query_vector
from .gradient import evaluate_gradient_batch
from .smooth import evaluate_smooth_batch


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


def _method_batch(mesh, method: str, kwargs: dict) -> Callable:
    """The named method's batch function, taking ``(training, queries)``, with
    ``mesh`` and ``kwargs`` bound.  An unknown name, or a keyword in
    ``kwargs`` that the batch function does not take, raises
    ValidationError before any work.  The function is looked up by
    module-global name on every call, so a function replaced on this module
    (by a tracer, say) is the one that runs and the one whose keywords are
    checked."""
    if method == "gradient":
        batch = evaluate_gradient_batch
    elif method == "smooth":
        batch = evaluate_smooth_batch
    else:
        raise ValidationError(f"unknown method {method!r}")
    error = _keyword_error(batch, tuple(kwargs))
    if error is not None:
        raise ValidationError(f"{method} method: {error}")
    return partial(batch, mesh=mesh, **kwargs)


_pools: dict = {}  # worker count -> the warm ProcessPoolExecutor of that size
# a forked child's copies of its parent's pools: kept alive and never used,
# since collecting one runs a callback that takes a lock the parent's pool
# thread may have held at the fork
_inherited: list = []


def _forget_inherited_pools() -> None:
    _inherited.append(dict(_pools))
    _pools.clear()


os.register_at_fork(after_in_child=_forget_inherited_pools)


def _shutdown_pools() -> None:
    """Shut down every warm pool and join its workers; the next fan-out
    starts a new one.  ``concurrent.futures`` does the same at exit."""
    while _pools:
        _pools.popitem()[1].shutdown()


def _fan_out(work: Callable[[np.ndarray], object], items, workers: int) -> list:
    """``work`` over ``items`` split into one chunk per worker process.

    The results come back as a list, one per chunk, in input order.  Small
    inputs, or one worker, run in this process as one chunk.  ``work`` must
    pickle (a module-level function or a ``functools.partial`` of one), and
    so must its results; it is pickled anew for every chunk of every call.

    A worker's warnings are given by this process instead, once each per
    call, so a d > 1 warning reads once at any worker count.

    The workers start on the first fan-out of each worker count and are
    reused for the life of the process.  They keep the module state they
    were forked with, so a function replaced on a module later (a monkeypatch,
    say) is not the one they run.  A pool whose worker died raises
    BrokenProcessPool for the call that saw it and is dropped, so the next
    call starts a new one.
    """
    if workers <= 1 or len(items) < 2 * workers:
        return [work(items)]
    chunks = [c for c in np.array_split(np.asarray(items), workers) if len(c)]
    pool = _pools.get(workers)
    if pool is None:
        pool = _pools[workers] = ProcessPoolExecutor(max_workers=workers)
    try:
        parts = list(pool.map(partial(_recorded, work), chunks))
    except BrokenProcessPool:
        del _pools[workers]
        pool.shutdown()
        raise
    for message in {(type(m), str(m)): m for _, caught in parts for m in caught}.values():
        warnings.warn(message)
    return [part for part, _ in parts]


def _recorded(work: Callable, chunk):
    """``work(chunk)`` and the warnings it gave, which are not shown."""
    with warnings.catch_warnings(record=True) as caught:
        return work(chunk), [w.message for w in caught]


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
    raises ValidationError, as in ``evaluate_batch``.  The query is answered
    by the method's batch function as a batch of one, which solves every
    layer at once and names the error of a query it cannot finish as the
    single-query path raises it; so each component, and the error of a
    query that fails (its first failing layer's), is that path's.
    """
    batch = _method_batch(mesh, method, kwargs)
    try:
        query = _query_vector(query, training)
    except DimensionMismatch:
        if method == "smooth":  # evaluate_smooth checks its arguments first
            batch(training, np.empty((0, training.n)))
        raise
    found = batch(training, query[None, :])
    if found.errors:
        raise found.errors[0]
    return LayeredResult(components=found.estimates(0, method))
