"""Benchmark harness: test functions, mesh generation, noise regimes, metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .model import (
    DegenerateNeighborhood,
    EmptyInput,
    MeshIndex,
    TrainingSet,
    ValidationError,
    _grid_rows,
    _replaced_entries,
    validate_training_set,
)
from .gradient import evaluate_gradient
from .layers import _fan_out, _method_batch
from .neighbors import STENCIL_STEPS

SENTINEL_RATIO = 1e12  # reported when a ratio's denominator vanishes
QUERY_OFFSETS = (0.3, 0.5)  # range of a query's per-axis offset into its cell, in cells


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Closed-form benchmark surface with its evaluation domain."""

    __test__ = False  # not a test case, despite the name

    id: str
    fn: Callable[[np.ndarray], np.ndarray]
    n: Optional[int]  # fixed predictor count, or None for any
    domain: tuple

    def __call__(self, x) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float))


def _t1(x):
    return x[..., 0] ** 3 + 0.4 * np.sin(6.0 * x[..., 1]) + 0.6 * np.sin(
        4.0 * x[..., 2] + 0.5
    )


def _s1(x):
    return 0.3 * x[..., 0] ** 0.5 + 0.5 * x[..., 1] ** 0.5 + 0.7 * x[..., 2] ** 0.5


def _s2(x):
    return 0.3 * x[..., 0] ** 1.3 + 0.5 * x[..., 1] ** 1.5 + 0.7 * x[..., 2] ** 1.8


def _h_weights(n: int) -> np.ndarray:
    # predictor i of n carries weight 0.3 + i / (4 n), i = 0 .. n-1
    return 0.3 + np.arange(n) / (4.0 * n)


def _h1(x):
    return (_h_weights(x.shape[-1]) * x**0.5).sum(axis=-1)


def _h2(x):
    return (_h_weights(x.shape[-1]) * x**1.5).sum(axis=-1)


def _h3(x):
    n = x.shape[-1]
    i = np.arange(1, n)
    freq = 0.4 + i / (2.0 * n)
    return x[..., 0] ** 1.5 + np.sin(x[..., 1:] * freq).sum(axis=-1)


TEST_FUNCTIONS = {
    "T1": TestFunction(id="T1", fn=_t1, n=3, domain=(0.0, 3.0)),
    "S1": TestFunction(id="S1", fn=_s1, n=3, domain=(2.0, 5.0)),
    "S2": TestFunction(id="S2", fn=_s2, n=3, domain=(2.0, 5.0)),
    "H1": TestFunction(id="H1", fn=_h1, n=None, domain=(2.0, 5.0)),
    "H2": TestFunction(id="H2", fn=_h2, n=None, domain=(2.0, 5.0)),
    "H3": TestFunction(id="H3", fn=_h3, n=None, domain=(2.0, 5.0)),
}


# ---------------------------------------------------------------------------
# noise


@dataclass(frozen=True)
class NoiseSpec:
    """Outcome-noise regime: zero-mean normal, or uniform magnitude with random sign."""

    kind: str  # "normal" | "uniform"
    sigma: float = 0.1
    low: float = 0.05
    high: float = 0.3

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "normal":
            return rng.normal(0.0, self.sigma, size)
        if self.kind == "uniform":
            mag = rng.uniform(self.low, self.high, size)
            return mag * rng.choice((-1.0, 1.0), size)
        raise ValidationError(f"unknown noise kind {self.kind!r}")


# ---------------------------------------------------------------------------
# dataset generation


def gen_mesh_dataset(
    function: TestFunction,
    nodes_per_axis: int,
    domain: Optional[tuple] = None,
    x_jitter_fraction: float = 0.0,
    y_noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    n: Optional[int] = None,
) -> tuple[TrainingSet, MeshIndex]:
    """Full rectangular mesh with optional coordinate jitter and outcome noise."""
    if not (0.0 <= x_jitter_fraction < 0.5):
        raise ValidationError("jitter fraction must lie in [0, 0.5)")
    n = n if n is not None else function.n
    if n is None:
        raise ValidationError(f"function {function.id} needs an explicit dimension")
    lo, hi = domain if domain is not None else function.domain

    nodes = np.linspace(lo, hi, nodes_per_axis)
    h = nodes[1] - nodes[0]
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)

    rng = np.random.default_rng(seed)
    if x_jitter_fraction > 0.0:
        x = x + rng.uniform(-x_jitter_fraction * h, x_jitter_fraction * h, x.shape)
    y = function(x)
    if y_noise is not None:
        y = y + y_noise.draw(rng, y.shape)

    training = validate_training_set((x, y.reshape(-1, 1)), n=n, layer_count=1)
    mesh = MeshIndex(axes=tuple([nodes] * n), jitter_fraction=x_jitter_fraction)
    return training, mesh


def _distinct_offsets(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """(m, n) offsets inside ``QUERY_OFFSETS``, pairwise distinct within each row.

    The rows are those of m calls ``rng.uniform(*QUERY_OFFSETS, n)``, each
    call repeated until its values are distinct, and ``rng`` ends where those
    calls leave it.  One draw of all m rows gives the same stream; from the
    first row holding a repeat, the saved generator state is restored and the
    draws are replayed row by row.
    """
    state = rng.bit_generator.state
    off = rng.uniform(*QUERY_OFFSETS, (m, n))
    repeated = (np.diff(np.sort(off, axis=1), axis=1) == 0).any(axis=1)
    if repeated.any():
        first = int(np.argmax(repeated))
        rng.bit_generator.state = state
        rng.uniform(*QUERY_OFFSETS, (first, n))  # the rows already kept
        for i in range(first, m):
            off[i] = rng.uniform(*QUERY_OFFSETS, n)
            while len(np.unique(off[i])) < n:
                off[i] = rng.uniform(*QUERY_OFFSETS, n)
    return off


def gen_queries(
    mesh: MeshIndex,
    function: TestFunction,
    training: TrainingSet,
    seed: int = 0,
    budget: int = 5000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One query per interior mesh cell, capped at ``budget``.

    Per-axis offsets are drawn inside ``QUERY_OFFSETS`` and kept pairwise
    distinct within each query, so no query shares a 2-D coordinate plane
    with the mesh.  Returns (queries, true values, reference y-values).

    A seed's queries are those of drawing the cells, then each query's n
    offsets in one ``rng.uniform`` call, redrawn until distinct, in cell
    order (``_distinct_offsets``).  A chosen cell with no training point at
    its lower corner raises DegenerateNeighborhood.
    """
    mesh.check_fit(training)
    interior = [np.arange(1, m - 2) for m in mesh.shape]
    counts = [len(r) for r in interior]
    total = int(np.prod(counts))
    if total == 0:
        raise ValidationError("mesh has no interior cells")

    rng = np.random.default_rng(seed)
    if total > budget:
        chosen = np.sort(rng.choice(total, size=budget, replace=False))
    else:
        chosen = np.arange(total)

    cells = np.stack(np.unravel_index(chosen, counts), axis=1)
    cells = cells + 1  # interior ranges start at 1

    off = _distinct_offsets(rng, len(cells), mesh.n)
    axes = [np.asarray(nodes) for nodes in mesh.axes]
    lower = np.stack([nodes[c] for nodes, c in zip(axes, cells.T)], axis=1)
    upper = np.stack([nodes[c + 1] for nodes, c in zip(axes, cells.T)], axis=1)
    queries = lower + off * (upper - lower)
    ref_idx, _ = _grid_rows(mesh, cells, np.zeros((*cells.shape, 0), dtype=int))
    if (ref_idx < 0).any():
        cell = cells[np.argmax(ref_idx < 0)]
        raise DegenerateNeighborhood(f"no training point at grid index {tuple(cell.tolist())}")
    ref_truths = training.y[ref_idx, 0]
    truths = function(queries)
    return queries, truths, ref_truths


def gen_local_cell_dataset(
    function: TestFunction,
    n: int,
    nodes_per_axis: int,
    rng: np.random.Generator,
    domain: Optional[tuple] = None,
    y_noise: Optional[NoiseSpec] = None,
) -> tuple[TrainingSet, MeshIndex, np.ndarray, float, float]:
    """Materialize only the points one query needs, for high-dimensional runs.

    A full mesh is intractable beyond a few dimensions; both methods touch
    just the reference, its forward neighbors, and the four-point stencils,
    i.e. 3n+1 grid points around one cell.  Returns (training, mesh, query,
    true value, reference y).
    """
    lo, hi = domain if domain is not None else function.domain
    nodes = np.linspace(lo, hi, nodes_per_axis)
    cell = rng.integers(1, nodes_per_axis - 2, size=n)

    # row 0 is the cell; row 1 + 3a + k steps axis a by the k-th nonzero
    # stencil step, (-1, 1, 2)[k]
    steps = [k for k in STENCIL_STEPS if k]
    grid = np.tile(cell, (3 * n + 1, 1))
    grid.reshape(-1)[_replaced_entries(n, 3)] = (cell[:, None] + steps).ravel()
    x = nodes[grid]
    y = function(x)
    if y_noise is not None:
        y = y + y_noise.draw(rng, y.shape)
    training = validate_training_set((x, y.reshape(-1, 1)), n=n, layer_count=1)
    mesh = MeshIndex(axes=tuple([nodes] * n), grid=grid, rows=np.arange(len(grid)))

    off = _distinct_offsets(rng, 1, n)[0]
    h = nodes[1] - nodes[0]
    query = nodes[cell] + off * h
    truth = float(function(query))
    ref_y = float(training.y[0, 0])
    return training, mesh, query, truth, ref_y


# ---------------------------------------------------------------------------
# metrics


def compute_stats(y_hat, truths, reference_truths) -> dict:
    """The table-row error metrics: M, avg_y_differ, avg_abs_err, max_abs_err, rel_err."""
    y_hat = np.asarray(y_hat, dtype=float)
    truths = np.asarray(truths, dtype=float)
    refs = np.asarray(reference_truths, dtype=float)
    if len(y_hat) == 0:
        raise EmptyInput("no estimates to aggregate")
    if not (len(y_hat) == len(truths) == len(refs)):
        raise ValidationError("estimate/truth/reference lengths differ")

    err = np.abs(y_hat - truths)
    differ = float(np.abs(refs - truths).mean())
    avg_err = float(err.mean())
    rel = avg_err / differ if differ > 0 else (0.0 if avg_err == 0 else SENTINEL_RATIO)
    return {
        "M": len(y_hat),
        "avg_y_differ": differ,
        "avg_abs_err": avg_err,
        "max_abs_err": float(err.max()),
        "rel_err": float(rel),
    }


def compute_noise_ratios(noisy_y, computed_y, original_y) -> dict:
    """Noise attenuation r1 (absolute deviations), r2 (sums); capped if one vanished."""
    noisy = np.asarray(noisy_y, dtype=float)
    comp = np.asarray(computed_y, dtype=float)
    orig = np.asarray(original_y, dtype=float)
    if len(noisy) == 0:
        raise EmptyInput("no values to compare")
    if not (len(noisy) == len(comp) == len(orig)):
        raise ValidationError("input lengths differ")

    num = float(np.abs(noisy - orig).sum())
    den1 = float(np.abs(comp - orig).sum())
    den2 = float((comp - orig).sum())
    return {
        "r1": num / den1 if den1 != 0.0 else SENTINEL_RATIO,
        "r2": num / den2 if den2 != 0.0 else SENTINEL_RATIO,
        "capped": den1 == 0.0 or den2 == 0.0,
    }


# ---------------------------------------------------------------------------
# batch evaluation (optionally parallel)


def _eval_chunk(batch, training, queries) -> list:
    result = batch(training, queries)
    if result.errors:
        raise result.errors[min(result.errors)]
    return result.y_hat[:, 0].tolist()


def evaluate_batch(
    training: TrainingSet,
    queries: np.ndarray,
    mesh: Optional[MeshIndex] = None,
    method: str = "gradient",
    workers: int = 1,
    **kwargs,
) -> list:
    """Layer 0's estimates for many queries, in input order.

    Each worker's chunk goes through one call of the method's batch function,
    ``evaluate_gradient_batch`` or ``evaluate_smooth_batch``, with ``kwargs``.
    A keyword that function does not take raises ValidationError before any
    work.  An error raised for any query is the first failing query's, as if
    the queries ran one by one.
    """
    batch = _method_batch(mesh, method, kwargs)
    parts = _fan_out(partial(_eval_chunk, batch, training), queries, workers)
    return [y for part in parts for y in part]


# ---------------------------------------------------------------------------
# benchmark scenarios


T1_SCALES = {"small": (20, 29), "medium": (20, 29, 49), "large": (20, 29, 49, 100)}
T2_SCALES = {"small": (20,), "medium": (20, 49), "large": (20, 49, 100)}
HIGH_DIMS = (10, 30, 50, 100)
HIGH_DIM_QUERIES = {"small": 150, "medium": 400, "large": 1000}


def _mesh_scenario(function, m, seed, methods, workers=1) -> list:
    """(stats, wall time) per method on one mesh and query set, each built once."""
    training, mesh = gen_mesh_dataset(function, m, seed=seed)
    queries, truths, refs = gen_queries(mesh, function, training, seed=seed + 1)
    results = []
    for method in methods:
        t0 = time.perf_counter()
        y_hat = evaluate_batch(training, queries, mesh=mesh, method=method, workers=workers)
        wall = time.perf_counter() - t0
        results.append((compute_stats(y_hat, truths, refs), wall))
    return results


def _high_dim_scenario(function, n, m_queries, seed, methods, y_noise=None) -> list:
    """(stats, wall time) per method over m_queries local cells, each built
    once and evaluated by each method as a batch of one.

    With ``y_noise`` the stats also hold the noise ratios at the queries.
    """
    rng = np.random.default_rng(seed)
    y_hat = {method: [] for method in methods}
    walls = dict.fromkeys(methods, 0.0)
    truths, refs, noisy = [], [], []
    for _ in range(m_queries):
        training, mesh, query, truth, ref_y = gen_local_cell_dataset(
            function, n, 20, rng, y_noise=y_noise
        )
        for method in methods:
            t0 = time.perf_counter()
            y_hat[method] += evaluate_batch(training, query[None, :], mesh=mesh, method=method)
            walls[method] += time.perf_counter() - t0
        truths.append(truth)
        refs.append(ref_y)
        if y_noise is not None:
            noisy.append(truth + float(y_noise.draw(rng, ())))
    results = []
    for method in methods:
        stats = compute_stats(y_hat[method], truths, refs)
        if y_noise is not None:
            stats.update(compute_noise_ratios(noisy, y_hat[method], truths))
        results.append((stats, walls[method]))
    return results


def _affine_averaging_scenario(c_values, seed, n=2, sigma=0.3, replications=48):
    """Mean error of combination-averaged estimates on a noisy affine surface.

    The point layout fixes one well-conditioned simplex shape and repeats it
    at the same distance from the query, so every combination's estimate has
    the same error distribution and the combination count is the only
    variable.  Explicit plans bypass neighborhood search for the same reason.
    """
    from .neighbors import CombinationPlan, Simplex

    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=n)
    intercept = rng.normal()
    c_max = max(c_values)
    h = 0.5

    xs = []
    simplexes = []
    for k in range(c_max):
        angle = 2.0 * np.pi * (k + rng.uniform(0.0, 0.5)) / c_max
        center = np.zeros(n)
        center[0] = np.cos(angle)
        center[1] = np.sin(angle)
        base = len(xs)
        xs.append(center)
        for a in range(n):
            offset = np.zeros(n)
            offset[a] = h
            xs.append(center + offset)
        simplexes.append(
            Simplex(reference=base, auxiliaries=tuple(range(base + 1, base + 1 + n)))
        )
    x = np.asarray(xs)
    y_true = x @ coeffs + intercept
    query = np.zeros(n)
    truth = float(intercept)

    abs_errors = {c: [] for c in c_values}
    for _ in range(replications):
        y = y_true + rng.normal(0.0, sigma, len(y_true))
        training = validate_training_set((x, y.reshape(-1, 1)), n=n, layer_count=1)
        for c in c_values:
            plan = CombinationPlan(simplexes=tuple(simplexes[:c]))
            est = evaluate_gradient(training, query, plan=plan)
            abs_errors[c].append(abs(est.y_hat - truth))
    errors = {c: float(np.mean(abs_errors[c])) for c in c_values}
    logs = np.log(np.array(c_values, dtype=float))
    loge = np.log(np.array([errors[c] for c in c_values]))
    slope = float(np.polyfit(logs, loge, 1)[0])
    return errors, slope


def run_benchmark(table_id: str, scale: str = "small", seed: int = 0,
                  workers: int = 1) -> dict:
    """Reproduce one of the accuracy/noise tables at desk scale.

    Returns a report dict with one row per scenario; the rows are
    deterministic for a fixed seed and worker count.  Wall times go to
    ``report["timing"]``, one record per row of the timed tables T1-T4.
    An unknown table id or scale raises ValidationError.
    """
    if scale not in T1_SCALES:
        raise ValidationError(f"unknown scale {scale!r}")
    report = {
        "table": table_id,
        "scale": scale,
        "seed": seed,
        "workers": workers,
        "rows": [],
        "notes": {},
        "timing": [],
    }

    if table_id == "T1":
        f = TEST_FUNCTIONS["T1"]
        report["notes"]["domain"] = f.domain
        for m in T1_SCALES[scale]:
            [(stats, wall)] = _mesh_scenario(f, m, seed, ("gradient",), workers)
            report["rows"].append({"function": f.id, "nodes_per_axis": m, "points": m**3,
                                   "method": "gradient", **stats})
            report["timing"].append({"wall_time": wall})

    elif table_id == "T2":
        for fid in ("S1", "S2", "T1"):
            f = TEST_FUNCTIONS[fid]
            report["notes"][fid + "_domain"] = f.domain
            for m in T2_SCALES[scale]:
                (grad, grad_wall), (smooth, smooth_wall) = _mesh_scenario(
                    f, m, seed, ("gradient", "smooth"), workers
                )
                report["rows"].append({
                    "function": fid,
                    "nodes_per_axis": m,
                    "points": m**3,
                    "gradient_rel_err": grad["rel_err"],
                    "smooth_rel_err": smooth["rel_err"],
                    "smooth_to_gradient_ratio": (
                        smooth["avg_abs_err"] / grad["avg_abs_err"]
                        if grad["avg_abs_err"] > 0
                        else SENTINEL_RATIO
                    ),
                    **{"smooth_" + k: v for k, v in smooth.items()},
                })
                report["timing"].append({"wall_time": grad_wall, "smooth_wall_time": smooth_wall})

    elif table_id == "T3":
        m_queries = HIGH_DIM_QUERIES[scale]
        for fid in ("H1", "H2"):
            f = TEST_FUNCTIONS[fid]
            report["notes"][fid + "_domain"] = f.domain
            for dims in HIGH_DIMS:
                n = dims - 1
                (grad, grad_wall), (smooth, smooth_wall) = _high_dim_scenario(
                    f, n, m_queries, seed, ("gradient", "smooth")
                )
                report["rows"].append({
                    "function": fid,
                    "dimensions": dims,
                    "predictors": n,
                    "queries": m_queries,
                    "gradient_rel_err": grad["rel_err"],
                    "smooth_rel_err": smooth["rel_err"],
                    "gradient_to_smooth_accuracy": (
                        grad["avg_abs_err"] / smooth["avg_abs_err"]
                        if smooth["avg_abs_err"] > 0
                        else SENTINEL_RATIO
                    ),
                    "avg_y_differ": grad["avg_y_differ"],
                })
                report["timing"].append({
                    "gradient_time_per_query": grad_wall / m_queries,
                    "smooth_time_per_query": smooth_wall / m_queries,
                })

    elif table_id == "T4":
        m_queries = HIGH_DIM_QUERIES[scale]
        noise = NoiseSpec(kind="normal", sigma=0.1)
        f = TEST_FUNCTIONS["H1"]
        report["notes"]["noise"] = {"kind": noise.kind, "sigma": noise.sigma}
        report["notes"]["H1_domain"] = f.domain
        for dims in HIGH_DIMS:
            n = dims - 1
            [(stats, wall)] = _high_dim_scenario(
                f, n, m_queries, seed, ("smooth",), y_noise=noise
            )
            report["rows"].append({
                "function": f.id,
                "dimensions": dims,
                "predictors": n,
                "queries": m_queries,
                **{k: stats[k] for k in ("r1", "r2", "capped", "rel_err")},
            })
            report["timing"].append({"wall_time": wall})

    elif table_id == "averaging":
        c_values = (1, 4, 16, 64)
        errors, slope = _affine_averaging_scenario(c_values, seed)
        for c in c_values:
            report["rows"].append({"combinations": c, "avg_abs_err": errors[c]})
        report["notes"]["log_log_slope"] = slope

    else:
        raise ValidationError(f"unknown table id {table_id!r}")

    return report


def measure_throughput(n: int = 9, m_queries: int = 400, workers: int = 1,
                       seed: int = 0) -> float:
    """Queries per second for the gradient method on one shared dataset."""
    f = TEST_FUNCTIONS["H1"]
    rng = np.random.default_rng(seed)
    training, mesh, _, _, _ = gen_local_cell_dataset(f, n, 20, rng)
    lower = training.x[0]
    h = mesh.axes[0][1] - mesh.axes[0][0]
    queries = lower + rng.uniform(0.3, 0.5, (m_queries, n)) * h
    t0 = time.perf_counter()
    evaluate_batch(training, queries, mesh=mesh, method="gradient", workers=workers)
    wall = time.perf_counter() - t0
    return m_queries / wall
