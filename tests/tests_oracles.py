"""Independent numeric oracles shared across test modules."""

import itertools
from math import comb

import numpy as np

from gradsurf import DegenerateNeighborhood, InsufficientPoints


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
    ref_x = training.x[reference] / scale
    for cand in order[1 : budget + 1]:
        if tracker.try_add(training.x[cand] / scale - ref_x):
            aux.append(int(cand))
            if len(aux) == n:
                return reference, tuple(aux)
    raise DegenerateNeighborhood("no nonsingular simplex among the nearest candidates")


def oracle_scattered_plan(training, query, c):
    """C distinct (reference, auxiliaries) pairs: base, disjoint blocks, subsets."""
    if c < 1:
        raise InsufficientPoints("combination count must be >= 1")
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
