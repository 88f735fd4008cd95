import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsurf import NoConvergence, SingularSystem
from gradsurf.solvers import SINGULARITY_RTOL, find_root, solve_lanes, solve_linear_system
from gradsurf.smooth import ApproxFunctionParams, approx_eval, approx_deriv
from tests_oracles import eliminations, grid_bisection_root


class TestSolveLinearSystem:
    def test_identity(self):
        x = solve_linear_system(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert x.tolist() == [1.0, 2.0, 3.0]

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularSystem):
            solve_linear_system(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))

    def test_two_by_two_hand_case(self):
        x = solve_linear_system(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([5.0, 10.0]))
        assert np.allclose(x, [1.0, 3.0], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 20, 100])
    def test_residual_bound_random_systems(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            # diagonally dominated -> well conditioned
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            x = solve_linear_system(A, b)
            res = np.abs(A @ x - b).max()
            assert res <= 1e-8 * (1.0 + np.abs(b).max())
            assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)

    def test_pivoting_handles_zero_leading_entry(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = solve_linear_system(A, np.array([2.0, 3.0]))
        assert np.allclose(x, [3.0, 2.0])


def lane_systems(rng, n, L):
    """Random (A, b) lanes, plus lanes built to stress each rule of the solver:
    a zero leading entry (a row swap), tied pivot candidates, an exactly zero
    column, and a first pivot just below and just above the threshold."""
    A = rng.normal(size=(8, n, n))
    b = rng.normal(size=(8, n, L))
    A[1, 0, 0] = 0.0
    A[2, :, 0] = rng.choice((-1.0, 1.0), n) * 0.75
    A[3, :, rng.integers(n)] = 0.0
    for lane, factor in ((4, 0.99), (5, 1.01)):  # the threshold is RTOL * rest
        rest = np.abs(A[lane, :, 1:]).max() if n > 1 else 1.0
        A[lane, :, 0] *= factor * SINGULARITY_RTOL * rest / np.abs(A[lane, :, 0]).max()
    A[6] = np.triu(A[6])  # nothing to eliminate
    return A, b


def assert_lanes_match(A, b):
    x, singular = solve_lanes(A, b)
    assert x.shape == (len(A), b.shape[2], A.shape[1])
    for i in range(len(A)):
        for l in range(b.shape[2]):
            try:
                expected = solve_linear_system(A[i], b[i, :, l])
            except SingularSystem:
                assert singular[i]
                break
            assert not singular[i]
            assert x[i, l].tobytes() == expected.tobytes()  # bit for bit


class TestSolveLanes:
    """Each lane's solution is ``solve_linear_system``'s, bit for bit, and a
    lane is singular exactly where that raises."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), L=st.integers(1, 3))
    def test_random_and_stressed_systems(self, seed, n, L):
        assert_lanes_match(*lane_systems(np.random.default_rng(seed), n, L))

    def test_n99(self):
        assert_lanes_match(*lane_systems(np.random.default_rng(99), 99, 2))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.sampled_from([1, 2]),
           n=st.sampled_from([1, 2, 3, 9]), L=st.integers(1, 3))
    def test_dense_stacks(self, seed, M, n, L):
        # every lane has an off-diagonal entry (at n > 1): the whole stack is eliminated
        rng = np.random.default_rng(seed)
        A, b = rng.normal(size=(M, n, n)), rng.normal(size=(M, n, L))
        b[rng.random(b.shape) < 0.2] = -0.0
        if n > 1 and rng.random() < 0.5:  # singular at the first pivot, then NaN pivots
            A[0, :, 0] = 0.0
        if rng.random() < 0.3:
            A[-1, :, -1] *= 1e-13  # a last pivot near the threshold
        assert_lanes_match(A, b)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 9]),
           L=st.integers(1, 3), dense=st.integers(1, 3))
    def test_mixed_stacks(self, seed, n, L, dense):
        rng = np.random.default_rng(seed)
        A, b = diagonal_lanes(rng, n, L, M=4)
        A = np.concatenate([A, rng.normal(size=(dense, n, n))])
        b = np.concatenate([b, rng.normal(size=(dense, n, L))])
        b[3, 0, 0] = 1e308  # with A[3, 0, 0] at 1e-10, a quotient that is not finite
        A[3, 0, 0] = 1e-10
        order = rng.permutation(len(A))
        with np.errstate(all="ignore"):  # the scalar solver overflows on lane 3
            assert_lanes_match(A[order], b[order])

    def test_singular_first_pivot_then_nan_pivots(self):
        rng = np.random.default_rng(2)
        A, b = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 4, 2))
        A[1, :, 0] = 0.0  # the multipliers of column 0 are 0 / 0
        with np.errstate(all="ignore"):
            eliminated = A[1] - (A[1, :, :1] / A[1, 0, 0]) * A[1, :1]
        assert np.isnan(eliminated[1:, 1:]).all()  # every later pivot is NaN
        _, singular = solve_lanes(A, b)
        assert singular.tolist() == [False, True, False]
        assert_lanes_match(A, b)

    def test_negative_zero_in_a_dense_stack(self):
        rng = np.random.default_rng(6)
        A, b = rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 3, 1))
        b[0, 1, 0], b[1, :, 0] = -0.0, -0.0
        x, _ = solve_lanes(A, b)
        assert np.signbit(x[1]).all()  # a zero solution keeps its sign
        assert_lanes_match(A, b)

    def test_stressed_lanes_take_their_branch(self):
        A, b = lane_systems(np.random.default_rng(4), 4, 1)
        _, singular = solve_lanes(A, b)
        assert singular.tolist() == [False, False, False, True, True, False, False, False]
        assert solve_lanes(A[:0], b[:0])[0].shape == (0, 1, 4)


def diagonal_lanes(rng, n, L, M=6, zero_share=0.3):
    """Diagonal (A, b) lanes: negative diagonal entries, zeros of either sign
    off the diagonal, and zeros of either sign mixed into b."""
    A = np.where(rng.random((M, n, n)) < 0.5, -0.0, 0.0)
    A[:, range(n), range(n)] = rng.normal(size=(M, n)) * rng.uniform(0.1, 10.0, (M, 1))
    b = rng.normal(size=(M, n, L))
    zeros = rng.random((M, n, L)) < zero_share
    b[zeros] = rng.choice((-0.0, 0.0), zeros.sum())
    return A, b


def eliminated(A, b):
    """``solve_lanes``'s result and the indices of the lanes it sent through
    the elimination loop."""
    with eliminations() as sent:
        result = solve_lanes(A, b)
    sent = {a.tobytes() + r.tobytes() for a, r in sent}
    return result, [i for i in range(len(A)) if A[i].tobytes() + b[i].tobytes() in sent]


def negative_zero(b):
    return ((b == 0.0) & np.signbit(b)).any(axis=(1, 2))


def at_threshold(rng, n, factors):
    """Diagonal lanes whose entry 0 is ``factor`` times the singularity
    threshold, one lane per factor."""
    A, b = diagonal_lanes(rng, n, 1, M=len(factors), zero_share=0.0)
    for lane, factor in enumerate(factors):
        rest = np.abs(A[lane].diagonal()[1:]).max()
        A[lane, 0, 0] = -factor * SINGULARITY_RTOL * rest
    return A, b


class TestDiagonalLanes:
    """A diagonal lane with no ``-0.0`` in b and a finite quotient skips the
    elimination, and its solution and singular flag are still
    ``solve_linear_system``'s, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), L=st.integers(1, 3),
           zero_share=st.sampled_from([0.0, 0.3, 1.0]), zero_diagonal=st.booleans())
    def test_signed_zeros(self, seed, n, L, zero_share, zero_diagonal):
        rng = np.random.default_rng(seed)
        A, b = diagonal_lanes(rng, n, L, zero_share=zero_share)
        if zero_diagonal:
            A[0, rng.integers(n), rng.integers(n)] *= 0.0  # may be off the diagonal
        assert_lanes_match(A, b)
        (_, singular), sent = eliminated(A, b)
        zero_on_diagonal = (A.diagonal(axis1=1, axis2=2) == 0.0).any(axis=1)
        assert sent == np.flatnonzero(negative_zero(b) | zero_on_diagonal).tolist()
        assert singular.tolist() == zero_on_diagonal.tolist()

    def test_threshold(self):
        A, b = at_threshold(np.random.default_rng(7), 4, (0.99, 1.01))
        (_, singular), sent = eliminated(A, b)
        assert singular.tolist() == [True, False] and sent == []
        assert_lanes_match(A, b)

    def test_one_and_ninety_nine_unknowns(self):
        rng = np.random.default_rng(99)
        for n in (1, 99):
            A, b = diagonal_lanes(rng, n, 2, M=8)
            A[1, 0, 0] = 0.0
            b[2, 0, 0], b[3, 0, 0], b[4, 0, :] = -0.0, 0.0, 0.0
            assert_lanes_match(A, b)
            _, sent = eliminated(A, b)
            assert sent == np.flatnonzero(negative_zero(b) | (np.arange(8) == 1)).tolist()

    def test_non_finite_quotient_is_eliminated(self):
        # 1e308 / 1e-10 overflows, and a zero times that infinity is NaN in
        # the back-substitution, so only the elimination gives the scalar result
        A = np.zeros((3, 2, 2))
        A[:, 0, 0], A[:, 1, 1] = 1.0, 1e-10
        b = np.array([[1.0, 1e308], [1.0, 1.0], [np.inf, 1.0]])[..., None]
        assert_lanes_match(A, b)
        assert eliminated(A, b)[1] == [0, 2]

    def test_mixed_batch(self):
        rng = np.random.default_rng(3)
        n = 5
        dense = lane_systems(rng, n, 2)
        diagonal = diagonal_lanes(rng, n, 2, zero_share=0.0)
        minus_zero = diagonal_lanes(rng, n, 2, M=2, zero_share=0.0)
        minus_zero[1][:, 1, 0] = -0.0
        threshold = at_threshold(rng, n, (0.99, 1.01))
        zero = diagonal_lanes(rng, n, 2, M=1, zero_share=0.0)
        zero[0][0, 2, 2] = 0.0
        parts = [dense, diagonal, minus_zero, (threshold[0], threshold[1].repeat(2, axis=2)),
                 zero]
        A = np.concatenate([a for a, _ in parts])
        b = np.concatenate([r for _, r in parts])
        order = rng.permutation(len(A))
        A, b = A[order], b[order]
        assert_lanes_match(A, b)
        (_, singular), sent = eliminated(A, b)
        kind = np.repeat(["dense", "diagonal", "minus zero", "threshold", "zero"],
                         [len(a) for a, _ in parts])[order]
        assert sent == np.flatnonzero(np.isin(kind, ["dense", "minus zero", "zero"])).tolist()
        assert singular[kind == "zero"].all() and singular[kind == "threshold"].sum() == 1
        assert not singular[kind == "diagonal"].any()


class TestFindRoot:
    def test_known_quadratic_root(self):
        root, iters = find_root(lambda x: x * x - 4.0, lambda x: 2.0 * x, 3.0, bracket=(0.0, 5.0))
        assert abs(root - 2.0) <= 1e-9
        assert iters >= 1

    def test_start_at_root(self):
        root, iters = find_root(lambda x: x**3, lambda x: 3.0 * x * x, 0.0, bracket=(-1.0, 1.0))
        assert root == 0.0
        assert iters <= 1

    def test_each_iterate_evaluated_once(self):
        # f runs at the start point and at each later iterate; the converged
        # root itself is not evaluated
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 4.0

        root, iters = find_root(f, lambda x: 2.0 * x, 3.0, bracket=(0.0, 5.0))
        assert abs(root - 2.0) <= 1e-9
        assert iters >= 3
        assert len(calls) == iters
        assert len(set(calls)) == len(calls)

    def test_cubic_against_grid_bisection_oracle(self):
        params = ApproxFunctionParams(B=1.0, g1R=0.5, g2L=0.3)
        k, c = 2.0, -0.5

        def f(x):
            return approx_eval(params, x) - (k * x + c)

        root, _ = find_root(
            f, lambda x: approx_deriv(params, x) - k, 0.25, bracket=(0.0, 1.0)
        )
        oracle = grid_bisection_root(f, 0.0, 1.0, cells=1_000_000)
        assert abs(root - oracle) <= 1e-8

    def test_bisection_fallback_on_flat_derivative(self):
        # derivative reported as zero forces the fallback path
        root, _ = find_root(lambda x: x - 0.3, lambda x: 0.0, 0.9, bracket=(0.0, 1.0))
        assert abs(root - 0.3) <= 1e-9

    def test_no_sign_change_raises(self):
        with pytest.raises(NoConvergence):
            find_root(lambda x: x * x + 1.0, lambda x: 0.0, 0.5, bracket=(0.0, 1.0))

    @given(
        a=st.floats(0.1, 3.0),
        b=st.floats(-2.0, 2.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_cubic_roots(self, a, b, seed):
        # x^3 + a x + b is strictly increasing, single real root
        def f(x):
            return x**3 + a * x + b

        root, _ = find_root(f, lambda x: 3 * x * x + a, 0.0, bracket=(-10.0, 10.0))
        assert abs(f(root)) <= 1e-6
