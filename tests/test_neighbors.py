import warnings
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradsurf import (
    DegenerateNeighborhood,
    InsufficientPoints,
    MeshIndex,
    TEST_FUNCTIONS,
    ValidationError,
    enumerate_combinations,
    evaluate_batch,
    evaluate_gradient,
    evaluate_smooth,
    gen_local_cell_dataset,
    locate_reference,
    select_simplex,
    validate_training_set,
)
from gradsurf import gradient, model, neighbors
from gradsurf.model import GradsurfError, TrainingSet
from gradsurf.neighbors import axis_stencil, is_extrapolation
from tests_oracles import (
    _oracle_d2,
    oracle_axis_stencil,
    oracle_cell_of,
    oracle_evaluate_smooth,
    oracle_grid_rows,
    oracle_locate_reference,
    oracle_mesh_simplex,
    oracle_point_at,
    oracle_scattered_plan,
    verdict,
)
from tests_oracles import grid_queries as mesh_queries


def mesh_training(nodes, n, fn):
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)
    y = fn(x)
    ts = validate_training_set((x, y.reshape(-1, 1)), n=n)
    return ts, MeshIndex(axes=tuple([nodes] * n))


class TestLocateReference:
    def test_mesh_lower_corner(self):
        nodes = np.array([0.0, 1.0, 2.0])
        ts, mesh = mesh_training(nodes, 3, lambda x: x.sum(axis=1))
        idx = locate_reference(ts, np.array([0.4, 1.7, 0.3]), mesh)
        assert tuple(ts.x[idx]) == (0.0, 1.0, 0.0)

    def test_query_on_node_is_that_node(self):
        nodes = np.array([0.0, 1.0, 2.0])
        ts, mesh = mesh_training(nodes, 1, lambda x: x.sum(axis=1))
        idx = locate_reference(ts, np.array([1.0]), mesh)
        assert ts.x[idx, 0] == 1.0

    def test_scattered_normalized_nearest(self):
        x = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0]])
        ts = validate_training_set((x, np.zeros(3)), n=2)
        idx = locate_reference(ts, np.array([4.0, 0.0]))
        assert idx == 0


class TestSelectSimplex:
    def test_mesh_axis_aligned_corners(self):
        nodes = np.array([0.0, 1.0, 2.0])
        ts, mesh = mesh_training(nodes, 3, lambda x: x.sum(axis=1))
        simplex = select_simplex(ts, np.array([0.4, 0.4, 0.4]), mesh)
        aux_coords = sorted(tuple(ts.x[a]) for a in simplex.auxiliaries)
        assert aux_coords == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_upper_boundary_steps_back(self):
        nodes = np.array([0.0, 1.0])
        ts, mesh = mesh_training(nodes, 2, lambda x: x.sum(axis=1))
        q = np.array([1.0, 1.0])
        simplex = select_simplex(ts, q, mesh)
        assert tuple(ts.x[simplex.reference]) == (1.0, 1.0)
        assert len(simplex.auxiliaries) == 2

    def test_collinear_scattered_degenerate(self):
        x = np.stack([np.linspace(0, 1, 5), np.linspace(0, 2, 5)], axis=1)
        ts = validate_training_set((x, np.zeros(5)), n=2)
        with pytest.raises(DegenerateNeighborhood):
            select_simplex(ts, np.array([0.5, 1.0]))

    def test_scattered_picks_independent_directions(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.0, 0.1]])
        ts = validate_training_set((x, np.zeros(4)), n=2)
        q = np.array([0.05, 0.01])
        simplex = select_simplex(ts, q)
        assert simplex.reference == 0
        rows = ts.x[list(simplex.auxiliaries)] - ts.x[0]
        assert np.linalg.matrix_rank(rows) == 2


class TestEnumerateCombinations:
    def quad(self):
        # four points, no three collinear: every 3-subset is a valid simplex
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.2]])
        return validate_training_set((x, np.zeros(4)), n=2)

    def test_single_combination_is_base_simplex(self):
        ts = self.quad()
        q = np.array([0.3, 0.3])
        plan = enumerate_combinations(ts, q, 1)
        assert len(plan.simplexes) == 1
        assert plan.simplexes[0] == select_simplex(ts, q)

    def test_four_points_four_combinations(self):
        ts = self.quad()
        plan = enumerate_combinations(ts, np.array([0.4, 0.4]), 4)
        assert len(plan.simplexes) == 4
        keys = {s.key() for s in plan.simplexes}
        assert len(keys) == 4
        subsets = {frozenset((s.reference, *s.auxiliaries)) for s in plan.simplexes}
        assert len(subsets) == 4  # all four 3-point subsets

    def test_exhaustion_raises(self):
        ts = self.quad()
        with pytest.raises(InsufficientPoints):
            enumerate_combinations(ts, np.array([0.4, 0.4]), 50)

    def test_invalid_count(self):
        ts = self.quad()
        with pytest.raises(ValidationError, match="combination count must be >= 1"):
            enumerate_combinations(ts, np.array([0.4, 0.4]), 0)

    def test_disjoint_blocks_when_points_abound(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (60, 2))
        ts = validate_training_set((x, np.zeros(60)), n=2)
        plan = enumerate_combinations(ts, np.array([0.5, 0.5]), 8)
        assert len(plan.simplexes) == 8
        point_sets = [frozenset((s.reference, *s.auxiliaries)) for s in plan.simplexes]
        # the first several combinations come from disjoint blocks
        assert len(point_sets[0] | point_sets[1] | point_sets[2]) == 9

    @pytest.mark.parametrize("c", [1, 4, 16])
    def test_distances_computed_once_per_query(self, monkeypatch, c):
        calls = []
        real = neighbors._normalised_d2
        monkeypatch.setattr(neighbors, "_normalised_d2",
                            lambda *args: calls.append(1) or real(*args))
        ts, queries, _ = uniform_set(3, 2, 60)
        enumerate_combinations(ts, queries[0], c)
        assert len(calls) == 1
        mesh_ts, mesh = mesh_training(np.linspace(0.0, 1.0, 4), 2, lambda x: x.sum(axis=1))
        enumerate_combinations(mesh_ts, np.array([0.4, 0.5]), 1, mesh)
        assert len(calls) == 1  # mesh mode with C=1 needs no distances


class TestAxisStencil:
    def test_interior_cell_full_stencil(self):
        nodes = np.array([0.0, 1.0, 2.0, 3.0])
        ts, mesh = mesh_training(nodes, 1, lambda x: x.sum(axis=1))
        st = axis_stencil(ts, mesh, mesh.cell_of(np.array([1.4])), axis=0)
        assert st.x == (0.0, 1.0, 2.0, 3.0)
        assert not st.missing_lower and not st.missing_upper

    def test_domain_edge_flags_missing_lower(self):
        nodes = np.array([0.0, 1.0, 2.0, 3.0])
        ts, mesh = mesh_training(nodes, 1, lambda x: x.sum(axis=1))
        st = axis_stencil(ts, mesh, mesh.cell_of(np.array([0.4])), axis=0)
        assert st.missing_lower
        assert st.x[0] is None
        assert st.x[1:] == (0.0, 1.0, 2.0)

    def test_jittered_points_sorted_by_actual_coordinate(self):
        nodes = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        rng = np.random.default_rng(3)
        x = nodes.reshape(-1, 1) + rng.uniform(-0.4, 0.4, (5, 1))
        ts = validate_training_set((x, np.zeros(5)), n=1)
        mesh = MeshIndex(axes=(nodes,), jitter_fraction=0.4)
        st = axis_stencil(ts, mesh, mesh.cell_of(np.array([1.6])), axis=0)
        xs = [v for v in st.x if v is not None]
        assert xs == sorted(xs)

    def test_layer_selects_outcome_column(self):
        nodes = np.array([0.0, 1.0, 2.0, 3.0])
        x = nodes.reshape(-1, 1)
        y = np.stack([nodes, 10 * nodes], axis=1)
        ts = validate_training_set((x, y), n=1, layer_count=2)
        mesh = MeshIndex(axes=(nodes,))
        st = axis_stencil(ts, mesh, (1,), axis=0, layer=1)
        assert st.y == (0.0, 10.0, 20.0, 30.0)


def uniform_set(seed, n, npoints):
    # continuous uniform data has no distance ties, so the nearest-point
    # order does not depend on the row order
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (npoints, n))
    y = np.sin(3.0 * x).sum(axis=1) + rng.normal(0.0, 0.05, npoints)
    return validate_training_set((x, y), n=n), rng.uniform(0.1, 0.9, (4, n)), rng


class TestScatteredProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 4), c=st.sampled_from([1, 4]))
    @settings(max_examples=25, deadline=None)
    def test_row_order_does_not_change_the_estimate(self, seed, n, c):
        ts, queries, rng = uniform_set(seed, n, 60)
        perm = rng.permutation(ts.npoints)
        shuffled = validate_training_set((ts.x[perm], ts.y[perm]), n=n)
        for q in queries:
            a = evaluate_gradient(ts, q, combinations=c)
            b = evaluate_gradient(shuffled, q, combinations=c)
            assert b.y_hat == a.y_hat
            assert perm[b.reference_index] == a.reference_index

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_batch_equals_scalar_calls(self, seed, n):
        ts, queries, _ = uniform_set(seed, n, 40)
        for c in (1, 4):
            batch = evaluate_batch(ts, queries, combinations=c)
            assert batch == [evaluate_gradient(ts, q, combinations=c).y_hat for q in queries]

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_simplex_reference_is_located_reference(self, seed, n):
        ts, queries, _ = uniform_set(seed, n, 30)
        for q in queries:
            assert select_simplex(ts, q).reference == locate_reference(ts, q)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_mesh_simplex_reference_is_located_reference(self, seed):
        nodes = np.linspace(0.0, 1.0, 5)
        ts, mesh = mesh_training(nodes, 3, lambda x: x.sum(axis=1))
        for q in np.random.default_rng(seed).uniform(-0.1, 1.1, (4, 3)):
            assert select_simplex(ts, q, mesh).reference == locate_reference(ts, q, mesh)


def _plan_or_error(build):
    try:
        return build()
    except GradsurfError as exc:
        return type(exc)


class TestScatteredPlanOracle:
    """The plan equals the one the per-use loops built, or both raise alike."""

    def check(self, x, q, c):
        x = x[np.sort(np.unique(x, axis=0, return_index=True)[1])]
        n = x.shape[1]
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, np.zeros(len(x))), n=n)
        got = _plan_or_error(lambda: [
            (s.reference, s.auxiliaries) for s in enumerate_combinations(ts, q, c).simplexes
        ])
        want = _plan_or_error(lambda: oracle_scattered_plan(ts, q, c))
        assert got == want

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4),
           c=st.sampled_from([1, 2, 4, 16]), npoints=st.integers(30, 80))
    @settings(max_examples=40, deadline=None)
    def test_uniform_sets(self, seed, n, c, npoints):
        rng = np.random.default_rng(seed)
        self.check(rng.uniform(0.0, 1.0, (npoints, n)), rng.uniform(0.0, 1.0, n), c)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4),
           c=st.sampled_from([1, 2, 4, 16]), npoints=st.integers(5, 60))
    @settings(max_examples=40, deadline=None)
    def test_rounded_sets_with_ties(self, seed, n, c, npoints):
        rng = np.random.default_rng(seed)
        x = np.round(rng.uniform(0.0, 1.0, (npoints, n)), 1)
        self.check(x, np.round(rng.uniform(0.0, 1.0, n), 1), c)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4),
           c=st.integers(1, 30), npoints=st.integers(2, 20),
           rounded=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_small_sets_reach_the_subset_fill(self, seed, n, c, npoints, rounded):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (npoints, n))
        self.check(np.round(x, 1) if rounded else x, rng.uniform(0.0, 1.0, n), c)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 4),
           c=st.sampled_from([1, 2, 4]), run=st.integers(2, 14))
    @settings(max_examples=40, deadline=None)
    def test_collinear_nearest_points(self, seed, n, c, run):
        # the nearest ``run`` points lie on one line through the query, so the
        # simplex needs candidates deep in the 3n budget or beyond it
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.4, 0.6, n)
        line = q + np.outer(rng.uniform(-0.05, 0.05, run), rng.normal(size=n))
        far = rng.uniform(0.0, 1.0, (30, n))
        far = far[np.abs(far - q).max(axis=1) > 0.3]
        self.check(np.vstack([line, far]), q, c)


# distances with many ties, infinities and NaNs
DISTANCES = hnp.arrays(np.float64, st.integers(1, 50), elements=st.one_of(
    st.integers(0, 6).map(float), st.floats(0.0, 1.0), st.just(np.inf), st.just(np.nan)))


class TestNearestPrefix:
    """The distance order built from a prefix is the full stable sort's."""

    @given(d2=DISTANCES)
    @settings(max_examples=200, deadline=None)
    def test_prefix_is_the_head_of_the_stable_sort(self, d2):
        full = np.argsort(d2, kind="stable")
        for k in range(1, len(d2) + 2):
            prefix = neighbors._nearest_prefix(d2, k)
            assert len(prefix) >= min(k, len(d2))
            assert prefix.tolist() == full[: len(prefix)].tolist()

    @given(d2=DISTANCES, k=st.integers(1, 60), heads=st.lists(st.integers(1, 60), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_lazy_order_grows_into_the_stable_sort(self, d2, k, heads):
        full = np.argsort(d2, kind="stable").tolist()
        order = neighbors._DistanceOrder(d2, k)
        for h in heads:
            assert order.head(h).tolist()[:h] == full[:h]
        assert list(order) == full

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 3),
           c=st.sampled_from([1, 4, 16]), rounded=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_plans_over_many_points_match_the_oracle(self, seed, n, c, rounded):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (600, n))
        if rounded:  # many tied distances
            x = np.round(x, 2)
        x = x[np.sort(np.unique(x, axis=0, return_index=True)[1])]
        ts = validate_training_set((x, np.zeros(len(x))), n=n)
        q = rng.uniform(0.0, 1.0, n)
        got = _plan_or_error(lambda: [
            (s.reference, s.auxiliaries) for s in enumerate_combinations(ts, q, c).simplexes
        ])
        assert got == _plan_or_error(lambda: oracle_scattered_plan(ts, q, c))


class TestNormalisedDistances:
    """The per-axis distance kernel sums as numpy sums each row of ``x``."""

    @pytest.mark.parametrize("npoints", [1, 2, 7, 500])
    @pytest.mark.parametrize(
        "n", [*range(1, 10), 15, 16, 17, 127, 128, 129, 136, 255, 257, 300])
    def test_bit_identical_to_the_row_sum(self, n, npoints):
        rng = np.random.default_rng([n, npoints])
        x = rng.normal(0.0, 1.0, (npoints, n)) * rng.uniform(0.1, 100.0, n)
        x[:, 0] = 0.25  # a constant axis: its span is floored to 1
        x[0, -1] = -0.0 if n > 1 else 0.25
        ts = TrainingSet(x=x, y=np.zeros((npoints, 1)), n=n, layer_count=1)
        assert ts.axis_ranges[0] == 1.0
        queries = rng.normal(0.0, 1.0, (5, n))
        queries[1, -1] = -0.0
        queries[2, n // 2] = np.inf
        queries[3, -1] = -np.inf
        queries[4, 0] = np.nan
        for q in queries:
            got = neighbors._normalised_d2(ts, q)
            want = _oracle_d2(ts, q)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("n,npoints", [(1, 300_000), (3, 100_000), (9, 40_000)])
def test_distances_over_many_points_are_summed_in_blocks(n, npoints):
    rng = np.random.default_rng([n, npoints])
    x = rng.normal(0.0, 1.0, (npoints, n)) * rng.uniform(0.1, 100.0, n)
    ts = TrainingSet(x=x, y=np.zeros((npoints, 1)), n=n, layer_count=1)
    for q in (rng.normal(0.0, 1.0, n), np.full(n, np.nan)):
        with mock.patch.object(neighbors, "_sum_rows", wraps=neighbors._sum_rows) as blocks:
            got = neighbors._normalised_d2(ts, q)
        assert blocks.call_count > 4
        assert got.view(np.int64).tolist() == _oracle_d2(ts, q).view(np.int64).tolist()


class TestPlansAtManyAxes:
    """Plans at n >= 8, where numpy sums each row of distances pairwise."""

    @pytest.mark.parametrize("rounded", [False, True])
    @pytest.mark.parametrize("c", [1, 4])
    @pytest.mark.parametrize("n", [8, 9, 17])
    @pytest.mark.parametrize("seed", range(4))
    def test_plans_match_the_oracle(self, seed, n, c, rounded):
        rng = np.random.default_rng([seed, n, c])
        x = rng.uniform(0.0, 1.0, (40 * n, n))
        q = rng.uniform(0.0, 1.0, n)
        if rounded:  # a coarse lattice, so many distances tie
            x, q = np.round(x, 1), np.round(q, 1)
        x = x[np.sort(np.unique(x, axis=0, return_index=True)[1])]
        ts = validate_training_set((x, np.zeros(len(x))), n=n)
        if rounded:
            d2 = _oracle_d2(ts, q)
            assert len(np.unique(d2)) < len(d2)
        got = _plan_or_error(lambda: [
            (s.reference, s.auxiliaries) for s in enumerate_combinations(ts, q, c).simplexes
        ])
        assert got == _plan_or_error(lambda: oracle_scattered_plan(ts, q, c))


def _plan_rows(reference, aux):
    return list(zip(reference.tolist(), map(tuple, aux.tolist())))


class TestMostPlans:
    """``_most_plans`` bounds the plans ``enumerate_combinations`` can find,
    so a batch asking for more skips the lockstep, which would allocate its
    plan arrays first, and loses no plan."""

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 3), extra=st.integers(0, 60),
           rounded=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_the_planner_finds_no_more(self, seed, n, extra, rounded):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (n + 1 + extra, n))
        if rounded:  # ties and repeated blocks
            x = np.round(x, 1)
        x = x[np.sort(np.unique(x, axis=0, return_index=True)[1])]
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, np.zeros(len(x))), n=n)
        most = neighbors._most_plans(ts.npoints, n)
        try:
            enumerate_combinations(ts, rng.uniform(0.0, 1.0, n), most + 1)
        except InsufficientPoints as exc:
            found = int(str(exc).split()[1])  # "only K distinct combinations ..."
        except DegenerateNeighborhood:
            assume(False)
        assert found <= most

    def test_one_block_per_n_plus_1_points(self):
        # n = 1: 200 points in a row make the base and 99 disjoint blocks,
        # every block the bound counts; the pool of the 10 nearest points
        # holds 45 pairs, 5 of which are the base and blocks already found
        x = np.linspace(0.0, 1.0, 200)[:, None]
        ts = validate_training_set((x, np.zeros(200)), n=1)
        assert neighbors._most_plans(200, 1) == 1 + 99 + neighbors.SMALL_POOL_LIMIT
        with pytest.raises(InsufficientPoints, match="only 140 distinct"):
            enumerate_combinations(ts, np.array([0.5]), 200)


class TestLockstepPlans:
    """The batch's scattered plans are built in lockstep (``_scattered_plans``);
    each equals the oracle's, and only the queries the lockstep hands back
    go through ``enumerate_combinations``."""

    def check(self, x, queries, c):
        """The handed-back mask and the rows of the planned queries.  Every
        other query's error is the one its scalar plan raised."""
        n = x.shape[1]
        ts = validate_training_set((x, np.zeros(len(x))), n=n)
        want = [_plan_or_error(lambda: oracle_scattered_plan(ts, q, c)) for q in queries]
        reference, aux, handed = neighbors._scattered_plans(ts, queries, c)
        assert reference.shape == (len(queries), c) and aux.shape == (len(queries), c, n)
        for i in np.flatnonzero(~handed):
            assert _plan_rows(reference[i], aux[i]) == want[i]
        # the batch repeats its queries up to the lockstep's minimum
        tiled = -(-gradient.LOCKSTEP_MIN_QUERIES // len(queries))
        with mock.patch.object(gradient, "enumerate_combinations",
                               wraps=neighbors.enumerate_combinations) as scalar:
            rows, reference, aux, errors = gradient._planned_lanes(
                ts, np.tile(queries, (tiled, 1)), None, c)
        called = [call.args[1] for call in scalar.call_args_list]
        assert len(called) == tiled * handed.sum()
        for q, i in zip(called, np.flatnonzero(np.tile(handed, tiled))):
            assert np.array_equal(q, queries[i % len(queries)], equal_nan=True)
        want_rows = [i for i, w in enumerate(want) if not isinstance(w, type)]
        assert rows.tolist() == [i + t * len(queries) for t in range(tiled) for i in want_rows]
        assert {i: type(e) for i, e in errors.items()} == {
            i + t * len(queries): w for t in range(tiled) for i, w in enumerate(want)
            if isinstance(w, type)}
        for i, e in errors.items():
            assert verdict(neighbors.enumerate_combinations, ts, queries[i % len(queries)],
                           c) == (type(e), str(e))
        for i, r, a in zip(rows, reference, aux):
            assert _plan_rows(r, a) == want[i % len(queries)]
        return handed, rows[: len(want_rows)]

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 17), c=st.sampled_from([1, 2, 4, 16]),
           kind=st.sampled_from(["uniform", "rounded", "collinear", "small"]),
           nan_row=st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    # a candidate at the rank threshold, where the oracle's base rows once
    # rounded otherwise than the library's
    @example(seed=13, n=10, c=1, kind="collinear", nan_row=0)
    def test_mixed_batches_match_the_oracle(self, seed, n, c, kind, nan_row):
        rng = np.random.default_rng(seed)
        queries = rng.uniform(0.0, 1.0, (6, n))
        if kind == "small":  # blocks run out: the subset fill, or too few points
            x = rng.uniform(0.0, 1.0, (rng.integers(n + 1, 2 * n + 12), n))
        else:
            x = rng.uniform(0.0, 1.0, (rng.integers(30, 20 * n + 40), n))
        if kind == "rounded":  # tied distances
            x, queries = np.round(x, 1), np.round(queries, 1)
        if kind == "collinear" and n > 1:  # the nearest points of two queries on a line
            queries[:2] = rng.uniform(0.4, 0.6, (2, n))
            steps = [rng.uniform(-0.05, 0.05, rng.integers(2, 15)) for _ in range(2)]
            lines = [q + np.outer(t, rng.normal(size=n)) for q, t in zip(queries, steps)]
            x = np.vstack([*lines, x[np.abs(x - queries[0]).max(axis=1) > 0.3]])
        queries[nan_row, rng.integers(n)] = np.nan
        x = x[np.sort(np.unique(x, axis=0, return_index=True)[1])]
        assume(len(x) >= n + 1)
        self.check(x, queries, c)

    def test_query_past_its_prefix_gets_the_scalar_plan(self):
        # n = 2 and C = 2 read a prefix of 12 points.  Near the first query
        # the base simplex takes 3, and the 9 after them lie on one line,
        # which no second block can finish; enumerate_combinations reads on
        # to the far points.  Near the second, the reference and the next
        # five points lie on one line, so the base simplex takes its last
        # point from the last of the 3n candidates, and the query stays
        qa, qb = np.array([0.5, 0.5]), np.array([0.2, 0.8])
        near_a = np.vstack([qa + [[0.01, 0.0], [0.0, 0.012], [-0.011, -0.003]],
                            qa + np.outer(np.linspace(0.02, 0.1, 12), [0.6, 0.8])])
        near_b = qb + np.vstack([np.outer(np.arange(1, 7) * 1e-3, [1.0, 0.0]), [0.0, 0.0075]])
        far = np.random.default_rng(0).uniform(0.0, 1.0, (60, 2))
        far = far[(np.abs(far - qa).max(axis=1) > 0.3) & (np.abs(far - qb).max(axis=1) > 0.1)]
        handed, rows = self.check(np.vstack([near_a, near_b, far]), np.array([qa, qb]), 2)
        assert handed.tolist() == [True, False] and rows.tolist() == [0, 1]

    def test_block_that_uses_up_its_window_reads_on(self):
        # n = 2 and C = 2 read a prefix of 12 points: the base simplex takes
        # the 3 nearest, and the second block starts at the first of 7
        # points on one line.  It takes the second, rejects the other 5, and
        # finds its last point 7 candidates on, past its first window of 3n
        # = 6 but inside the prefix: it reads the next window and the query
        # keeps its lockstep plan
        qa, qb = np.array([0.5, 0.5]), np.array([0.2, 0.8])
        line = qa + np.outer(np.linspace(0.02, 0.07, 7), [0.6, 0.8])
        near_a = np.vstack([qa + [[0.01, 0.0], [0.0, 0.012], [-0.011, -0.003]], line,
                            qa + [[-0.08, 0.0]]])
        far = np.random.default_rng(1).uniform(0.0, 1.0, (80, 2))
        far = far[np.abs(far - qa).max(axis=1) > 0.3]
        x = np.vstack([near_a, far])
        handed, rows = self.check(x, np.array([qa, qb]), 2)
        assert handed.tolist() == [False, False] and rows.tolist() == [0, 1]
        ts = validate_training_set((x, np.zeros(len(x))), n=2)
        reference, aux, _ = neighbors._scattered_plans(ts, np.array([qa]), 2)
        assert reference[0, 1] == 3 and aux[0, 1].tolist() == [4, 10]

    @pytest.mark.parametrize("count", [1, gradient.LOCKSTEP_MIN_QUERIES - 1,
                                       gradient.LOCKSTEP_MIN_QUERIES,
                                       2 * gradient.LOCKSTEP_MAX_QUERIES + 1])
    def test_batches_are_planned_in_parts(self, count):
        # fewer queries than the minimum are planned one by one; more than
        # the maximum in even parts, each within both bounds
        rng = np.random.default_rng(count)
        ts = validate_training_set((rng.uniform(0.0, 1.0, (80, 2)), np.zeros(80)), n=2)
        queries = rng.uniform(0.0, 1.0, (count, 2))
        with mock.patch.object(gradient, "_scattered_plans", wraps=neighbors._scattered_plans) as lockstep, \
                mock.patch.object(gradient, "enumerate_combinations",
                                  wraps=neighbors.enumerate_combinations) as scalar:
            rows, reference, aux, errors = gradient._planned_lanes(ts, queries, None, 4)
        parts = [len(call.args[1]) for call in lockstep.call_args_list]
        if count < gradient.LOCKSTEP_MIN_QUERIES:
            assert parts == [] and scalar.call_count == count
        else:
            assert sum(parts) == count and max(parts) - min(parts) <= 1
            assert gradient.LOCKSTEP_MIN_QUERIES <= min(parts)
            assert max(parts) <= gradient.LOCKSTEP_MAX_QUERIES
        assert rows.tolist() == list(range(count)) and not errors
        for i, r, a in zip(rows, reference, aux):
            assert _plan_rows(r, a) == oracle_scattered_plan(ts, queries[i], 4)

    @pytest.mark.parametrize("n, c", [(2, 16), (3, 4), (9, 16)])
    @pytest.mark.parametrize("window_bytes", [1, 8 * 9 * 5])
    def test_plans_do_not_depend_on_the_window(self, monkeypatch, n, c, window_bytes):
        # a window capped at one candidate, or a few, is read again and
        # again, and every plan and hand-back stays as with the full window
        rng = np.random.default_rng([n, c])
        ts = validate_training_set((rng.uniform(0.0, 1.0, (400, n)), np.zeros(400)), n=n)
        queries = rng.uniform(0.0, 1.0, (12, n))
        want = neighbors._scattered_plans(ts, queries, c)
        monkeypatch.setattr(neighbors, "WINDOW_BYTES", window_bytes)
        got = neighbors._scattered_plans(ts, queries, c)
        assert np.array_equal(got[2], want[2])
        assert np.array_equal(got[0][~want[2]], want[0][~want[2]])
        assert np.array_equal(got[1][~want[2]], want[1][~want[2]])


class TestScreenBound:
    """The lockstep's screen (``_first_independent``) takes the candidates
    ``_build_simplex`` takes where a candidate's component orthogonal to the
    accepted rows is within rounding of the threshold."""

    def check(self, x, origin, streams, min_fraction):
        n = x.shape[1]
        ts = validate_training_set((x, np.zeros(len(x))), n=n)
        taken, failed = neighbors._first_independent(
            ts, origin, streams, np.zeros(len(streams), dtype=int), min_fraction, 3 * n)
        for i, stream in enumerate(streams):
            simplex = neighbors._build_simplex(ts, origin[i], stream, min_fraction)
            got = None if failed[i] else stream[taken[i]].tolist()
            assert got == (None if simplex is None else list(simplex.auxiliaries))

    @pytest.mark.parametrize("min_fraction", [0.3, neighbors.RANK_RTOL])
    def test_components_within_rounding_of_the_threshold(self, min_fraction):
        # each row: a first candidate along d0, then one whose component
        # along d1 is within a few units of rounding of min_fraction, then
        # one along d1, which passes.  The screen's running sum cannot tell
        # the second; with no margin it took or skipped some wrongly
        k = np.arange(-60, 61)
        d0, d1 = np.array([np.cos(0.7), np.sin(0.7)]), np.array([-np.sin(0.7), np.cos(0.7)])
        s = 0.3 + k * 2.0**-55 if min_fraction == 0.3 else neighbors.RANK_RTOL * (1 + k * 0.01)
        o = np.full(2, 0.5)
        near = o + np.linspace(0.2, 0.4, len(k))[:, None] * (np.sqrt(1 - s * s)[:, None] * d0
                                                              + s[:, None] * d1)
        x = np.vstack([[0.0, 0.0], [1.0, 1.0], o, o + 0.3 * d0, o + 0.3 * d1, near])
        streams = np.column_stack([np.full(len(k), 3), 5 + k + 60, np.full(len(k), 4)])
        self.check(x, np.full(len(k), 2), streams, min_fraction)

    def test_accepted_rows_that_are_not_orthogonal(self):
        # the second accepted row is 1e-6 off the first, so the accepted
        # unit rows are orthogonal only to about 1e-10; the third candidates'
        # components orthogonal to them, 1e-7 to 1e-4, are told within the
        # screen's bound from that drift, which they fell outside without it
        rng = np.random.default_rng(3)
        d0, d1, d2 = np.linalg.qr(rng.normal(size=(3, 3)))[0].T
        o = np.full(3, 0.5)
        eps = np.geomspace(1e-7, 1e-4, 60) * rng.choice([-1, 1], 60)
        a = rng.uniform(-1.0, 1.0, (60, 2))
        third = o + 0.3 * (a[:, :1] * d0 + a[:, 1:] * d1 + eps[:, None] * d2)
        x = np.vstack([np.zeros(3), np.ones(3), o, o + 0.3 * d0, o + 0.3 * (d0 + 1e-6 * d1),
                       o + 0.3 * d2, third])
        streams = np.column_stack([np.full(60, 3), np.full(60, 4), 6 + np.arange(60),
                                   np.full(60, 5)])
        self.check(x, np.full(60, 2), streams, neighbors.RANK_RTOL)



def grid_points(kind, n, rng):
    """Training points of one kind in [0, 1]^n, each axis but a constant one
    spanning it, and the grid's buckets per axis that the kind is built around."""
    npoints = 40 if kind == "sparse" else 1500
    per_axis = model._buckets_per_axis(npoints, n)
    if kind == "sparse":  # more buckets than points
        per_axis = max(2, int(np.ceil((4 * npoints) ** (1 / n))))
    if kind == "lattice":  # many tied distances
        x = np.round(rng.uniform(0.0, 1.0, (npoints, n)), 1)
    elif kind == "faces":  # every coordinate on a face between buckets
        x = rng.integers(0, per_axis + 1, (npoints, n)) / per_axis
    elif kind == "clustered":  # most points in a few buckets
        x = np.clip(rng.normal(0.3, 0.02, (npoints, n)), 0.0, 1.0)
        x[: npoints // 10] = rng.uniform(0.0, 1.0, (npoints // 10, n))
    else:
        x = rng.uniform(0.0, 1.0, (npoints, n))
    if kind == "constant":  # its range is floored at 1
        x[:, -1] = 0.5
    else:
        x[:2] = [np.zeros(n), np.ones(n)]
    return x[np.sort(np.unique(x, axis=0, return_index=True)[1])], per_axis


def grid_queries(x, rng):
    """Queries inside and outside the points' box, at points, on a lattice,
    and with a NaN and an infinite coordinate."""
    n = x.shape[1]
    queries = np.vstack([rng.uniform(-0.3, 1.3, (12, n)), rng.uniform(0.0, 1.0, (6, n)),
                         x[rng.integers(len(x), size=3)],
                         np.round(rng.uniform(0.0, 1.0, (3, n)), 1)])
    queries[0, -1], queries[1, 0] = np.nan, np.inf
    return queries


class TestGridPrefixes:
    """The bucket grid's prefixes are the first entries of the stable sort."""

    @staticmethod
    def want(ts, queries, width):
        return np.array([np.argsort(_oracle_d2(ts, q), kind="stable")[:width] for q in queries])

    @pytest.mark.parametrize("c", [1, 2, 4, 16])
    @pytest.mark.parametrize("n,kind", [
        (n, kind) for n in [*range(1, 7), neighbors.GRID_MAX_AXES + 1]
        for kind in ["uniform", "lattice", "faces", "constant", "clustered", "sparse"]
        if n > 1 or kind != "constant"])
    def test_prefixes_match_the_oracle(self, n, kind, c):
        rng = np.random.default_rng([n, c, len(kind)])
        x, per_axis = grid_points(kind, n, rng)
        queries = grid_queries(x, rng)
        # ranges other than 1, so that each difference is rounded as it is divided
        origin, scale = 0.25, np.array([0.7, 3.0, 1.3, 0.3, 2.1, 0.9, 5.0])[:n]
        x, queries = origin + x * scale, origin + queries * scale
        ts = validate_training_set((x, np.zeros(len(x))), n=n)
        width = min(len(x), max(3 * n + 1, 2 * (n + 1) * c))
        want = self.want(ts, queries, width)
        assert np.array_equal(neighbors._nearest_prefixes(ts, queries, width), want)
        if n > neighbors.GRID_MAX_AXES:
            assert neighbors._grid_rings(ts, width) == 0
        for rings in (1, 2):
            proven, prefixes = neighbors._grid_prefixes(
                ts, queries, width, model._bucket_grid(ts, per_axis), rings)
            assert not proven[:2].any()  # the NaN and the infinite query
            assert np.array_equal(prefixes, want[proven])

    @pytest.mark.parametrize("n", range(1, neighbors.GRID_MAX_AXES + 1))
    def test_most_queries_are_proven_where_the_grid_is_used(self, n):
        rng = np.random.default_rng(n)
        npoints = 120_000 if n == 6 else 20_000  # at n = 6 fewer make too few buckets
        ts = validate_training_set((rng.uniform(0.0, 1.0, (npoints, n)), np.zeros(npoints)), n=n)
        queries = rng.uniform(0.1, 0.9, (50, n))
        width = 3 * n + 1
        rings = neighbors._grid_rings(ts, width)
        assert rings > 0
        proven, prefixes = neighbors._grid_prefixes(ts, queries, width, ts.buckets, rings)
        assert proven.mean() > 0.9
        assert np.array_equal(prefixes, self.want(ts, queries[proven], width))

    def test_no_grid_beyond_its_axes(self, monkeypatch):
        # at 200k points a box of 3^7 buckets holds about 13% of them, which
        # the share alone would allow
        n = neighbors.GRID_MAX_AXES + 1
        rng = np.random.default_rng(n)
        ts = validate_training_set((rng.uniform(0.0, 1.0, (200_000, n)), np.zeros(200_000)), n=n)
        assert neighbors._grid_rings(ts, 3 * n + 1) == 0
        monkeypatch.setattr(neighbors, "GRID_MAX_AXES", n)
        assert neighbors._grid_rings(ts, 3 * n + 1) == 1

    def test_a_tie_with_a_point_on_the_far_face_is_not_proven(self):
        # dyadic coordinates, so every distance is exact: 8 buckets, the box
        # [3/8, 6/8) around the query at 9/16, whose fourth nearest candidate
        # ties with the point on the face 3/16 away, outside the box and
        # first in index order
        x = np.array([0.0, 1.0, 12 / 16, 8 / 16, 10 / 16, 9 / 16, 6 / 16])[:, None]
        ts = validate_training_set((x, np.zeros(len(x))), n=1)
        query = np.array([[9 / 16]])
        assert self.want(ts, query, 4).tolist() == [[5, 3, 4, 2]]
        proven, _ = neighbors._grid_prefixes(ts, query, 4, model._bucket_grid(ts, 8), 1)
        assert not proven.any()

    def test_unproven_query_gets_the_brute_force_prefix(self, monkeypatch):
        # 10 buckets a side, a box of 3.  The first query's box is empty but
        # for a cluster in its far corner, which points outside it beat; the
        # second query sits among evenly spread points
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, (520, 2))
        x = x[((x < 0.3) | (x >= 0.6)).any(axis=1)]
        cluster = 0.59 - rng.uniform(0.0, 0.02, (12, 2))
        x = np.vstack([[0.0, 0.0], [1.0, 1.0], x, cluster])
        ts = validate_training_set((x, np.zeros(len(x))), n=2)
        assert ts.buckets.per_axis == 10
        queries = np.array([[0.41, 0.41], [0.85, 0.15]])
        width = 7
        proven, _ = neighbors._grid_prefixes(ts, queries, width, ts.buckets, 1)
        assert proven.tolist() == [False, True]
        brute = []
        real = neighbors._normalised_d2
        monkeypatch.setattr(neighbors, "_grid_rings", lambda *args: 1)
        monkeypatch.setattr(neighbors, "_normalised_d2",
                            lambda ts, q: brute.append(q.tolist()) or real(ts, q))
        got = neighbors._nearest_prefixes(ts, queries, width)
        assert brute == [queries[0].tolist()]
        assert np.array_equal(got, self.want(ts, queries, width))


def test_is_extrapolation():
    x = np.vstack([np.zeros(2), np.eye(2)])
    ts = validate_training_set((x, np.zeros(3)), n=2)
    assert not is_extrapolation(ts, np.array([0.2, 0.2]))
    assert is_extrapolation(ts, np.array([1.5, 0.0]))


class TestSparseLookup:
    """A sparse grid finds each node's row by its key, as the dict walk of
    ``oracle_grid_rows`` found it, and a shared key never gives a wrong row."""

    @staticmethod
    def assert_walk(mesh, cells, steps):
        got, want = model._grid_rows(mesh, cells, steps), oracle_grid_rows(mesh, cells, steps)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           kept=st.sampled_from([1.0, 0.7, 0.2]), count=st.integers(1, 12))
    def test_rows_equal_the_dict_walk(self, seed, n, kept, count):
        rng = np.random.default_rng(seed)
        shape = rng.integers(2, 7, size=n)
        grid = np.stack(np.unravel_index(np.arange(np.prod(shape)), shape), axis=1)
        filed = rng.permutation(np.flatnonzero(rng.random(len(grid)) < kept))
        axes = tuple(np.arange(m, dtype=float) for m in shape)
        mesh = MeshIndex(axes, grid=grid[filed], rows=rng.permutation(len(filed)))
        cells = np.stack([rng.integers(0, m, count) for m in shape], axis=1)
        steps = rng.integers(-3, 4, size=(count, n, rng.integers(1, 5)))  # some off the grid
        self.assert_walk(mesh, cells, steps)
        if kept == 1.0:  # a complete map in row-major order is the complete grid
            row_major = MeshIndex(axes, grid=grid, rows=np.arange(len(grid)))
            assert all(np.array_equal(a, b) for a, b in zip(
                model._grid_rows(MeshIndex(axes), cells, steps),
                model._grid_rows(row_major, cells, steps)))

    @pytest.mark.parametrize("seed", range(3))
    def test_local_cells_at_99_axes(self, seed):
        rng = np.random.default_rng(seed)
        ts, mesh, q, _, _ = gen_local_cell_dataset(TEST_FUNCTIONS["H1"], 99, 20, rng)
        cell = mesh.cells_of(q[None])
        near = cell + rng.integers(-1, 2, size=(6, 99)) * (rng.random((6, 99)) < 0.02)
        cells = np.vstack([cell, near, rng.integers(0, 20, (2, 99))])
        lower = np.minimum(cells, np.array(mesh.shape) - 2)
        for steps in ((lower - cells)[..., None] + neighbors.STENCIL_STEPS,
                      np.where(cells + 1 < 20, 1, -1)[..., None],
                      rng.integers(-3, 4, size=(len(cells), 99, 3))):
            self.assert_walk(mesh, cells, steps)

    def test_absent_node_that_shares_a_filed_key_is_not_found(self):
        # under weights (1, 1) the absent node (1, 0) has the key 1 of the filed (0, 1)
        axes = (np.arange(3.0), np.arange(3.0))
        with mock.patch.object(model, "_node_weights", return_value=np.array([1, 1])):
            mesh = MeshIndex(axes, grid=[[0, 0], [0, 1], [2, 2]], rows=[0, 1, 2])
        assert mesh._weights.tolist() == [1, 1]
        cells = np.array([[0, 0], [1, 0], [0, 1]])
        reference, rows = model._grid_rows(mesh, cells, np.array([[[1], [1]]] * 3))
        assert reference.tolist() == [0, -1, 1]
        assert rows[:, :, 0].tolist() == [[-1, 1], [-1, -1], [-1, -1]]
        self.assert_walk(mesh, cells, np.array([[[-1, 0, 1, 2]] * 2] * 3))
        assert mesh.point_at((1, 0)) is None and mesh.point_at((0, 1)) == 1

    def test_filed_nodes_that_share_a_key_draw_new_weights(self):
        # under weights (1, 1) the filed nodes (0, 1) and (1, 0) share the key 1
        axes = (np.arange(3.0), np.arange(3.0))
        draws = []

        def weights(n, draw):
            draws.append(draw)
            return np.array([1, 1]) if draw == 0 else model_weights(n, draw)

        model_weights = model._node_weights
        with mock.patch.object(model, "_node_weights", side_effect=weights):
            mesh = MeshIndex(axes, grid=[[0, 1], [1, 0], [2, 2]], rows=[0, 1, 2])
        assert draws == [0, 1]
        assert mesh._weights.tolist() == model_weights(2, 1).tolist()
        assert len(set(mesh._keys.tolist())) == 3
        cells = np.array([[0, 0], [1, 0], [0, 1], [2, 2]])
        self.assert_walk(mesh, cells, np.array([[[-1, 0, 1, 2]] * 2] * 4))
        assert mesh.index_map == {(0, 1): 0, (1, 0): 1, (2, 2): 2}


def lookup_mesh(seed, n, kind, wide):
    """Points on a mesh of n axes of 2-5 nodes, and the mesh.  ``kind`` is
    complete, jittered (each coordinate moved by up to 0.6, more than half
    of the narrowest gap, so that neighbours can swap places), sparse (about
    40% of the nodes absent) or holed (all but up to three nodes filed); a
    sparse or holed grid files its nodes in shuffled order.  ``wide`` gives
    axis 0 257-299 nodes, so that a sparse grid's entries need uint16
    rather than uint8."""
    rng = np.random.default_rng(seed)
    shape = [int(m) for m in rng.integers(2, 6, size=n)]
    if wide:
        shape[0] = int(rng.integers(257, 300))
    axes = tuple(np.cumsum(rng.uniform(0.5, 2.0, m)) for m in shape)
    grid = np.stack(np.unravel_index(np.arange(prod(shape)), shape), axis=1)
    jitter = 0.3 if kind == "jittered" else 0.0
    x = np.stack([nodes[grid[:, a]] for a, nodes in enumerate(axes)], axis=1)
    x += 2.0 * jitter * rng.uniform(-1.0, 1.0, x.shape)  # every gap is at least 0.5
    y = np.sin(x).sum(axis=1) + rng.normal(0.0, 0.05, len(x))
    if kind in ("complete", "jittered"):
        return x, y, MeshIndex(axes, jitter), rng
    kept = rng.random(len(grid)) < (0.6 if kind == "sparse" else 1.0)
    kept[rng.integers(0, len(grid), 3)] = kind != "holed"
    filed = rng.permutation(np.flatnonzero(kept))
    mesh = MeshIndex(axes, grid=grid[filed], rows=np.arange(len(filed)))
    assert mesh.grid.dtype == (np.uint16 if wide else np.uint8)
    return x[filed], y[filed], mesh, rng


def grid_indices(mesh, rng, count):
    """Grid indices whose entries are on the grid, past its end or negative,
    as tuples, lists, tuples of numpy integers and integer arrays."""
    indices = []
    for _ in range(count):
        idx = [int(rng.integers(-2, m + 2)) if rng.random() < 0.2 else int(rng.integers(0, m))
               for m in mesh.shape]
        dtype = np.uint16 if min(idx) >= 0 else np.int16
        indices.append([tuple(idx), idx, tuple(np.int64(i) for i in idx), np.array(idx),
                        np.array(idx, dtype=dtype)][rng.integers(5)])
    return indices


class TestMeshLookupOracle:
    """Every single-query mesh lookup, a batch of one over the mesh's node
    lookup, gives what the oracles' walks give, one node at a time through a
    dict or row-major arithmetic: the same result, or an error of the same
    type and message."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           kind=st.sampled_from(["complete", "jittered", "sparse", "holed"]),
           wide=st.booleans())
    def test_lookups_equal_the_oracles(self, seed, n, kind, wide):
        x, y, mesh, rng = lookup_mesh(seed, n, kind, wide)
        for idx in grid_indices(mesh, rng, 16):
            got, want = mesh.point_at(idx), oracle_point_at(mesh, idx)
            assert got == want and type(got) is type(want)
        queries = mesh_queries(mesh, rng, 12)  # in a cell, on a node or outside the box
        special = rng.random(queries.shape) < 0.1
        queries[special] = rng.choice([np.inf, -np.inf, np.nan], np.count_nonzero(special))
        for q in queries:
            assert mesh.cell_of(q) == oracle_cell_of(mesh, q)
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, y), n=n)
        for q in queries:
            assert verdict(select_simplex, ts, q, mesh) == verdict(oracle_mesh_simplex, mesh, q)
            assert verdict(locate_reference, ts, q, mesh) == verdict(
                oracle_locate_reference, mesh, q)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an infinite query's chord is NaN
                assert verdict(evaluate_smooth, ts, q, mesh) == verdict(
                    oracle_evaluate_smooth, ts, q, mesh)
        for cell in grid_indices(mesh, rng, 8):
            for axis in range(n):
                assert verdict(axis_stencil, ts, mesh, cell, axis) == verdict(
                    oracle_axis_stencil, ts, mesh, cell, axis)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           kind=st.sampled_from(["complete", "jittered", "sparse", "holed"]),
           wide=st.booleans())
    def test_one_axis_stencil_equals_the_all_axes_one(self, seed, n, kind, wide):
        # axis_stencil gathers its axis only; rows and coordinates equal
        # that axis of the all-axes gather, at every cell of the grid,
        # top cells (clamped down one node) included
        x, y, mesh, rng = lookup_mesh(seed, n, kind, wide)
        assume(len(x) >= n + 1)
        ts = validate_training_set((x, y), n=n)
        cells = np.stack(np.unravel_index(np.arange(prod(mesh.shape)), mesh.shape), axis=1)
        cells = cells[rng.permutation(len(cells))[:40]]
        _, all_rows, all_x = neighbors._axis_stencils(ts, mesh, cells)
        for axis in range(n):
            _, rows, x_axis = neighbors._axis_stencils(ts, mesh, cells, axis)
            assert rows.shape == x_axis.shape == (len(cells), 1, 4)
            assert np.array_equal(rows[:, 0], all_rows[:, axis])
            assert np.array_equal(x_axis[:, 0], all_x[:, axis])
        for cell in cells[:8].tolist():
            for axis in range(n):
                got = verdict(axis_stencil, ts, mesh, tuple(cell), axis)
                _, rows, x_axis = neighbors._axis_stencils(ts, mesh, np.array([cell]))
                if isinstance(got, tuple):  # an error: the core is missing
                    assert got[0] is DegenerateNeighborhood
                    assert (rows[0, axis, 1:3] < 0).any()
                    continue
                want = [None if r < 0 else r for r in rows[0, axis].tolist()]
                assert list(got.indices) == want
                assert list(got.x) == [None if r < 0 else v
                                       for r, v in zip(rows[0, axis].tolist(), x_axis[0, axis].tolist())]
