"""Independent numeric oracles, and the random inputs they are checked on,
shared across test modules."""

import csv
import itertools
from bisect import bisect_right
from contextlib import contextmanager
from math import comb, prod
from unittest import mock

import numpy as np

from gradsurf import (DegenerateNeighborhood, DimensionMismatch, InsufficientPoints, MeshIndex,
                      ValidationError, solvers, validate_training_set)


def grid_bisection_root(f, lo, hi, cells=4096, tol=1e-12, nearest_to=None):
    """Exhaustive sign scan over [lo, hi], then bisection to ``tol``.

    With ``nearest_to`` given and several sign changes present, refines the
    bracket closest to that point; otherwise the first bracket found.
    """
    xs = np.linspace(lo, hi, cells + 1)
    fs = f(xs)
    idx = np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) <= 0)[0]
    assert len(idx) > 0, "oracle found no sign change"
    if nearest_to is not None and len(idx) > 1:
        mids = 0.5 * (xs[idx] + xs[idx + 1])
        idx = idx[[int(np.argmin(np.abs(mids - nearest_to)))]]
    a, b = float(xs[idx[0]]), float(xs[idx[0] + 1])
    fa = f(a)
    if fa == 0.0:
        return a
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if np.sign(fm) == np.sign(fa):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


# -- scattered neighbourhoods: the greedy rank-test loops written out once
# per use, each with its own sort of the distances --------------------------

ORACLE_RANK_RTOL = 1e-10
ORACLE_CANDIDATE_FACTOR = 3
ORACLE_SMALL_POOL_LIMIT = 4000


class _OracleRankTracker:
    def __init__(self, n):
        self.basis = np.empty((0, n))

    def try_add(self, row, min_fraction=ORACLE_RANK_RTOL):
        norm = np.linalg.norm(row)
        if norm <= ORACLE_RANK_RTOL:
            return False
        r = row / norm
        if len(self.basis):
            r = r - self.basis.T @ (self.basis @ r)
            rn = np.linalg.norm(r)
            if rn <= min_fraction:
                return False
            r = r / rn
        self.basis = np.vstack([self.basis, r])
        return True


def _oracle_d2(training, query):
    return (((training.x - query) / training.axis_ranges) ** 2).sum(axis=1)


def oracle_scattered_simplex(training, query):
    """(reference, auxiliaries) of the scattered base simplex."""
    n = training.n
    scale = training.axis_ranges
    order = np.argsort(_oracle_d2(training, query), kind="stable")
    reference = int(order[0])
    budget = min(training.npoints - 1, max(ORACLE_CANDIDATE_FACTOR * n, n))
    tracker = _OracleRankTracker(n)
    aux = []
    for cand in order[1 : budget + 1]:
        if tracker.try_add((training.x[cand] - training.x[reference]) / scale):
            aux.append(int(cand))
            if len(aux) == n:
                return reference, tuple(aux)
    raise DegenerateNeighborhood("no nonsingular simplex among the nearest candidates")


def oracle_scattered_plan(training, query, c):
    """C distinct (reference, auxiliaries) pairs: base, disjoint blocks, subsets."""
    if c < 1:
        raise ValidationError("combination count must be >= 1")
    n = training.n
    base = oracle_scattered_simplex(training, query)
    plans = [base]
    seen = {(base[0], frozenset(base[1]))}
    if c == 1:
        return plans

    scale = training.axis_ranges
    d2 = _oracle_d2(training, query)
    order = [int(i) for i in np.argsort(d2, kind="stable")]

    def add(ref, aux):
        if (ref, frozenset(aux)) not in seen:
            seen.add((ref, frozenset(aux)))
            plans.append((ref, tuple(aux)))

    used = set(base[1]) | {base[0]}
    block = []
    for cand in order:
        if len(plans) >= c:
            break
        if cand in used:
            continue
        if not block:
            block = [cand]
            tracker = _OracleRankTracker(n)
            continue
        row = (training.x[cand] - training.x[block[0]]) / scale
        if tracker.try_add(row, min_fraction=0.3):
            block.append(cand)
        if len(block) == n + 1:
            used.update(block)
            add(block[0], block[1:])
            block = []

    if len(plans) < c:
        dist = np.sqrt(d2)
        pool = order[: max(n + 2, min(len(order), 2 * n + 8))]
        while comb(len(pool), n + 1) > ORACLE_SMALL_POOL_LIMIT and len(pool) > n + 2:
            pool = pool[:-1]
        subsets = sorted(
            itertools.combinations(pool, n + 1), key=lambda s: sum(dist[i] for i in s)
        )
        for ref, *aux in subsets:
            if len(plans) >= c:
                break
            tracker = _OracleRankTracker(n)
            if all(
                tracker.try_add((training.x[a] - training.x[ref]) / scale) for a in aux
            ):
                add(ref, aux)

    if len(plans) < c:
        raise InsufficientPoints(f"only {len(plans)} distinct combinations available")
    return plans


def oracle_local_cell_dataset(function, n, nodes_per_axis, rng, y_noise=None,
                              offset_range=(0.3, 0.5)):
    """(x, y, index_map, query, truth, reference y) of a local cell, built one
    grid point at a time, with the random draws in the library's order."""
    lo, hi = function.domain
    nodes = np.linspace(lo, hi, nodes_per_axis)
    cell = rng.integers(1, nodes_per_axis - 2, size=n)
    grid_indices = [tuple(cell)]
    for a in range(n):
        for step in (-1, 1, 2):
            g = cell.copy()
            g[a] += step
            grid_indices.append(tuple(g))
    x = np.array([[nodes[j] for j in g] for g in grid_indices])
    y = function(x)
    if y_noise is not None:
        y = y + y_noise.draw(rng, y.shape)
    index_map = {g: i for i, g in enumerate(grid_indices)}
    off = rng.uniform(offset_range[0], offset_range[1], n)
    while len(np.unique(off)) < n:
        off = rng.uniform(offset_range[0], offset_range[1], n)
    query = np.array([nodes[j] for j in cell]) + off * (nodes[1] - nodes[0])
    return x, y.reshape(-1, 1), index_map, query, float(function(query)), float(y[0])


def oracle_distinct_offsets(rng, m, n, offset_range=(0.3, 0.5)):
    """(m, n) query offsets drawn one row at a time, each row redrawn until
    its values are distinct."""
    off = np.empty((m, n))
    for i in range(m):
        off[i] = rng.uniform(offset_range[0], offset_range[1], n)
        while len(np.unique(off[i])) < n:
            off[i] = rng.uniform(offset_range[0], offset_range[1], n)
    return off


def oracle_gen_queries(mesh, function, training, seed=0, budget=5000,
                       offset_range=(0.3, 0.5)):
    """``bench.gen_queries`` as first written: per query, one draw of its
    offsets (redrawn until distinct), its cell's corners gathered axis by
    axis and its reference found by ``point_at``."""
    n = mesh.n
    counts = [m - 3 for m in mesh.shape]
    total = int(np.prod(counts))
    rng = np.random.default_rng(seed)
    if total > budget:
        chosen = np.sort(rng.choice(total, size=budget, replace=False))
    else:
        chosen = np.arange(total)
    cells = np.stack(np.unravel_index(chosen, counts), axis=1) + 1
    queries = np.empty((len(cells), n))
    ref_truths = np.empty(len(cells))
    for i, cell in enumerate(cells):
        off = rng.uniform(offset_range[0], offset_range[1], n)
        while len(np.unique(off)) < n:
            off = rng.uniform(offset_range[0], offset_range[1], n)
        lower = np.array([mesh.axes[a][cell[a]] for a in range(n)])
        upper = np.array([mesh.axes[a][cell[a] + 1] for a in range(n)])
        queries[i] = lower + off * (upper - lower)
        ref_truths[i] = training.y[oracle_point_at(mesh, cell), 0]
    return queries, function(queries), ref_truths


class ScriptedGenerator:
    """Stands in for ``np.random.Generator`` where a test needs draws that
    repeat: ``uniform`` hands out the scripted values in order, whatever its
    bounds, and ``bit_generator.state`` is the position in the script."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.state = 0

    @property
    def bit_generator(self):
        return self

    def uniform(self, low, high, size):
        count = int(np.prod(size))
        assert self.state + count <= len(self.values), "script ran out"
        out = self.values[self.state : self.state + count].reshape(size)
        self.state += count
        return out.copy()


# -- CSV files as first written: one csv.writer row per point or query -------


def oracle_save_dataset_csv(path, training):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(training.n)] + (
            ["y"] if training.layer_count == 1
            else [f"y{i + 1}" for i in range(training.layer_count)]))
        for i in range(training.npoints):
            writer.writerow([repr(float(v)) for v in training.x[i]]
                            + [repr(float(v)) for v in training.y[i]])


def oracle_write_imputed(path, coords, y_hat, method, status, flags):
    layers = y_hat.shape[1]
    header = [f"x{i + 1}" for i in range(coords.shape[1])]
    header += ["y_hat"] if layers == 1 else [f"y_hat{i + 1}" for i in range(layers)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["method", "status", "flags"])
        for x, y, s, f in zip(coords, y_hat, status, flags):
            estimates = [repr(float(v)) for v in y] if s == "ok" else [""] * layers
            writer.writerow([repr(float(v)) for v in x] + estimates + [method, s, f])


def oracle_flag_column(flags, extrapolated):
    """The impute flag column from (M, L, n) flag strings: each row's sorted
    set of flags plus "extrapolated", joined by ';', one bit per name present."""
    names = sorted(set(flags.ravel().tolist()) | {"extrapolated"})
    bit = {name: 1 << k for k, name in enumerate(names)}
    codes = np.fromiter(map(bit.get, flags.ravel().tolist()), dtype=np.int64, count=flags.size)
    codes = np.bitwise_or.reduce(codes.reshape(flags.shape), axis=(1, 2))
    codes |= np.where(extrapolated, bit["extrapolated"], 0)
    unique, inverse = np.unique(codes, return_inverse=True)
    text = [";".join(n for k, n in enumerate(names) if code >> k & 1) for code in unique.tolist()]
    return np.array(text, dtype=object)[inverse]


# -- benchmark scenarios as they were: one method per call, data built per call


def oracle_mesh_scenario(function, m, seed, method, budget=5000, workers=1, **kwargs):
    """Stats of one method on a mesh and query set that this call builds itself."""
    from gradsurf.bench import compute_stats, evaluate_batch, gen_mesh_dataset, gen_queries

    training, mesh = gen_mesh_dataset(function, m, seed=seed)
    queries, truths, refs = gen_queries(
        mesh, function, training, seed=seed + 1, budget=budget
    )
    y_hat = evaluate_batch(
        training, queries, mesh=mesh, method=method, workers=workers, **kwargs
    )
    return compute_stats(y_hat, truths, refs)


def oracle_high_dim_scenario(function, n, m_queries, seed, method, nodes_per_axis=20,
                             y_noise=None, collect_noise=False):
    """Stats (and noise ratios) of one method over local cells built for this call."""
    from gradsurf.bench import compute_noise_ratios, compute_stats, gen_local_cell_dataset
    from gradsurf import evaluate_gradient, evaluate_smooth

    evaluate = {"gradient": evaluate_gradient, "smooth": evaluate_smooth}[method]

    rng = np.random.default_rng(seed)
    y_hat, truths, refs, noisy_at_query = [], [], [], []
    for _ in range(m_queries):
        training, mesh, query, truth, ref_y = gen_local_cell_dataset(
            function, n, nodes_per_axis, rng, y_noise=y_noise
        )
        y_hat.append(evaluate(training, query, mesh=mesh).y_hat)
        truths.append(truth)
        refs.append(ref_y)
        if collect_noise:
            noisy_at_query.append(truth + float(y_noise.draw(rng, ())))
    stats = compute_stats(y_hat, truths, refs)
    if collect_noise:
        return stats, compute_noise_ratios(noisy_at_query, y_hat, truths)
    return stats


# -- mesh neighbourhoods as they were: a cell by bisection of plain lists, a
# node's row by a dict lookup or row-major arithmetic, each caller stepping
# on the grid its own way, the stencil sorting its points with an argsort,
# and the smooth method computing each axis's increment in a separate function


def oracle_cell_of(mesh, query):
    """The lower corner of the query's cell: ``bisect_right`` on each axis's
    nodes as a list of floats, clamped to the axis."""
    idx = []
    for a, nodes in enumerate(mesh.axes):
        nodes = [float(v) for v in nodes]
        j = bisect_right(nodes, query[a]) - 1
        idx.append(min(max(j, 0), len(nodes) - 1))
    return tuple(idx)


def oracle_point_at(mesh, grid_idx):
    """A node's row, or None: a sparse grid's ``index_map`` dict, a complete
    grid's row-major arithmetic, each entry bounds-checked."""
    if len(grid_idx) != mesh.n:
        raise DimensionMismatch(f"grid index must have {mesh.n} entries, got {len(grid_idx)}")
    if mesh.grid is not None:
        return mesh.index_map.get(tuple(int(i) for i in grid_idx))
    flat = 0
    for i, m in zip(grid_idx, mesh.shape):
        if not (0 <= i < m):
            return None
        flat = flat * m + int(i)
    return flat


def _oracle_reference(mesh, query):
    cell = oracle_cell_of(mesh, query)
    idx = oracle_point_at(mesh, cell)
    if idx is None:
        raise DegenerateNeighborhood(f"no training point at grid index {cell}")
    return cell, idx


def oracle_mesh_simplex(mesh, query):
    """The reference and its edge-adjacent corners, one step up (down at the
    top), looked up one node at a time."""
    from gradsurf.neighbors import Simplex

    cell, reference = _oracle_reference(mesh, query)
    aux = []
    for a in range(mesh.n):
        neighbor = list(cell)
        neighbor[a] += 1 if cell[a] + 1 < mesh.shape[a] else -1
        idx = oracle_point_at(mesh, neighbor)
        if idx is None:
            raise DegenerateNeighborhood(f"missing grid neighbor along axis {a} of cell {cell}")
        aux.append(idx)
    return Simplex(reference=reference, auxiliaries=tuple(aux))


def oracle_locate_reference(mesh, query):
    return _oracle_reference(mesh, query)[1]


def oracle_axis_stencil(training, mesh, cell, axis, layer=0):
    """Y0..Y3 along one axis, walked one node at a time with a bounds check
    per step."""
    from gradsurf.neighbors import Stencil1D

    cell = [int(i) for i in cell]
    m = mesh.shape[axis]
    j = cell[axis]
    if j + 1 >= m:
        j = m - 2

    def fetch(offset):
        g = list(cell)
        g[axis] = j + offset
        if not (0 <= g[axis] < m):
            return None
        return oracle_point_at(mesh, g)

    i0, i1, i2, i3 = (fetch(k) for k in (-1, 0, 1, 2))
    if i1 is None or i2 is None:
        raise DegenerateNeighborhood(f"stencil core missing along axis {axis}")
    present = [i for i in (i0, i1, i2, i3) if i is not None]
    sort = np.argsort(training.x[present, axis], kind="stable")
    present = [present[k] for k in sort]
    seq = ([None] if i0 is None else []) + present + ([None] if i3 is None else [])
    return Stencil1D(
        axis=axis,
        indices=tuple(seq),
        x=tuple(None if i is None else float(training.x[i, axis]) for i in seq),
        y=tuple(None if i is None else float(training.y[i, layer]) for i in seq),
        missing_lower=i0 is None,
        missing_upper=i3 is None,
    )


def _oracle_axis_delta(training, mesh, cell, query, axis, y_ref, d, tol, max_iter, layer):
    from gradsurf import (
        NoConvergence,
        adjust_gradient,
        build_intersection,
        has_interior_inflection,
        segment_angles,
        solve_intersection,
    )

    stencil = oracle_axis_stencil(training, mesh, cell, axis, layer)
    x1, x2 = stencil.x[1], stencil.x[2]
    y1, y2 = stencil.y[1], stencil.y[2]
    q = float(query[axis])
    angles = segment_angles(stencil)
    chord = np.tan(angles.F1)
    if not (min(x1, x2) <= q <= max(x1, x2)):
        return (y1 - y_ref) + chord * (q - x1), 0, "chord-fallback"
    flag = "corrected"
    if stencil.missing_lower or stencil.missing_upper:
        flag = "boundary-fallback"
    problem = build_intersection(stencil, angles, q, d)
    try:
        x_star, y_star, iters = solve_intersection(problem, tol, max_iter)
    except NoConvergence:
        return (y1 - y_ref) + chord * (q - x1), max_iter, "newton-fallback"
    g_cor = adjust_gradient(angles.F1, x_star, y_star, problem.params.B)
    if d > 1.0 and has_interior_inflection(problem.params):
        flag += "+inflection"
    return (y1 - y_ref) + (y2 - y1) + g_cor * (q - x2), iters, flag


def oracle_evaluate_smooth(training, query, mesh, d=1.0, tol=1e-9, max_iter=20, layer=0):
    """The smooth estimate summed from one increment per axis."""
    from gradsurf import Estimate
    from gradsurf.neighbors import is_extrapolation

    query = np.asarray(query, dtype=float)
    cell, reference = _oracle_reference(mesh, query)
    y_ref = float(training.y[reference, layer])
    total, iterations, flags = y_ref, [], []
    for axis in range(training.n):
        delta, iters, flag = _oracle_axis_delta(
            training, mesh, cell, query, axis, y_ref, d, tol, max_iter, layer
        )
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


def oracle_evaluate_gradient(training, query, mesh=None, combinations=1, layer=0, plan=None):
    """The gradient estimate as a loop over the plan's simplexes: each solved
    on its own (``estimate_gradients``) and extrapolated, a degenerate one
    skipped, and the rest averaged with ``np.mean``."""
    from gradsurf import Estimate, enumerate_combinations, estimate_gradients, extrapolate
    from gradsurf.neighbors import is_extrapolation

    query = np.asarray(query, dtype=float)
    if plan is None:
        plan = enumerate_combinations(training, query, combinations, mesh)
    values = []
    for simplex in plan.simplexes:
        try:
            p = estimate_gradients(training, simplex, layer)
        except DegenerateNeighborhood:
            continue
        ref = simplex.reference
        values.append(extrapolate(training.x[ref], float(training.y[ref, layer]), p, query))
    if not values:
        raise DegenerateNeighborhood("all point combinations were degenerate")
    return Estimate(
        y_hat=float(np.mean(values)),
        method="gradient",
        reference_index=plan.simplexes[0].reference,
        combinations_used=len(values),
        extrapolated=is_extrapolation(training, query),
    )


def oracle_grid_rows(mesh, cells, steps):
    """``neighbors._grid_rows`` of a sparse grid as first written: one dict
    lookup of a tuple per node, the reference's row reused at step 0."""
    get = mesh.index_map.get
    reference = np.array([get(tuple(c), -1) for c in cells.tolist()], dtype=int)
    found = []
    for cell, ref, cell_steps in zip(cells.tolist(), reference.tolist(), steps.tolist()):
        node = list(cell)
        for a, axis_steps in enumerate(cell_steps):
            for k in axis_steps:
                node[a] = cell[a] + k
                found.append(ref if k == 0 else get(tuple(node), -1))
            node[a] = cell[a]
    return reference, np.array(found, dtype=int).reshape(steps.shape)


# -- random grids and queries for the mesh properties, and a call's outcome


def random_grid(seed, n, jitter, sparse):
    """A jittered grid of 2-6 nodes per axis; sparse grids drop about a quarter
    of the nodes and file the rest in shuffled order through ``index_map``."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(m) for m in rng.integers(2, 7, size=n))
    axes = tuple(np.cumsum(rng.uniform(0.5, 2.0, m)) for m in shape)
    grid = np.stack(np.unravel_index(np.arange(prod(shape)), shape), axis=1)
    x = np.empty(grid.shape)
    for a, nodes in enumerate(axes):
        gaps = np.diff(nodes)
        h = np.minimum(np.append(gaps[0], gaps), np.append(gaps, gaps[-1]))[grid[:, a]]
        x[:, a] = nodes[grid[:, a]] + jitter * h * rng.uniform(-1.0, 1.0, len(grid))
    y = np.sin(x).sum(axis=1) + 0.3 * x[:, 0] ** 2 + rng.normal(0.0, 0.05, len(grid))
    index_map = None
    if sparse:
        rows = rng.permutation(np.flatnonzero(rng.random(len(grid)) < 0.75))
        index_map = {tuple(grid[r].tolist()): i for i, r in enumerate(rows)}
        x, y = x[rows], y[rows]
    return x, y, MeshIndex(axes=axes, jitter_fraction=jitter, index_map=index_map), rng


def holed_local_cell(n, seed=11):
    """An H1 local cell at n axes without its reference point, the node at the
    lower corner of the query's cell, and the query."""
    from gradsurf.bench import TEST_FUNCTIONS, gen_local_cell_dataset

    ts, mesh, query, _, _ = gen_local_cell_dataset(TEST_FUNCTIONS["H1"], n, 20,
                                                   np.random.default_rng(seed))
    kept = mesh.rows != 0  # row 0 is the reference
    holed = validate_training_set((ts.x[1:], ts.y[1:]), n=n)
    return holed, MeshIndex(mesh.axes, grid=mesh.grid[kept], rows=mesh.rows[kept] - 1), query


def grid_queries(mesh, rng, count):
    """Each coordinate inside a cell, on a node, on the top node, or outside."""
    queries = np.empty((count, mesh.n))
    for a, nodes in enumerate(mesh.axes):
        for i in range(count):
            kind = rng.integers(5)
            j = rng.integers(len(nodes) - 1)
            queries[i, a] = (
                nodes[j] + rng.uniform(0.01, 0.99) * (nodes[j + 1] - nodes[j]),
                nodes[rng.integers(len(nodes))],
                nodes[-1],
                nodes[0] - rng.uniform(0.1, 1.0),
                nodes[-1] + rng.uniform(0.1, 1.0),
            )[kind]
    return queries


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the error type is part of the result
        return type(exc)


def verdict(fn, *args, **kwargs):
    """``fn``'s result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@contextmanager
def eliminations():
    """Collect the ``(A, b)`` lanes that ``solve_lanes`` sends through its
    elimination loop rather than the diagonal quotient."""
    sent = []
    eliminate = solvers._eliminate

    def counted(A, b, threshold):
        sent.extend(zip(A.copy(), b.copy()))  # the loop overwrites its input
        return eliminate(A, b, threshold)

    with mock.patch.object(solvers, "_eliminate", counted):
        yield sent
