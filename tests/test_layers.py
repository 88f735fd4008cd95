import numpy as np
import pytest

from gradsurf import (
    DimensionMismatch,
    MeshIndex,
    ValidationError,
    evaluate_batch,
    evaluate_gradient,
    evaluate_gradient_batch,
    evaluate_layers,
    evaluate_smooth,
    validate_training_set,
)


def layered_mesh(layer_fns):
    nodes = np.linspace(0.0, 3.0, 7)
    grids = np.meshgrid(nodes, nodes, indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)
    y = np.stack([fn(x) for fn in layer_fns], axis=1)
    ts = validate_training_set((x, y), n=2, layer_count=len(layer_fns))
    return ts, MeshIndex(axes=(nodes, nodes))


def test_single_layer_matches_scalar_method():
    f = lambda x: np.sin(x[:, 0]) + x[:, 1] ** 2
    ts, mesh = layered_mesh([f])
    q = np.array([1.3, 2.1])
    out = evaluate_layers(ts, q, mesh=mesh, method="smooth")
    scalar = evaluate_smooth(ts, q, mesh)
    assert out.y_hat == (scalar.y_hat,)

    out_g = evaluate_layers(ts, q, mesh=mesh, method="gradient")
    scalar_g = evaluate_gradient(ts, q, mesh=mesh)
    assert out_g.y_hat == (scalar_g.y_hat,)


def test_doubled_layer_doubles_component():
    f = lambda x: np.sin(x[:, 0]) + x[:, 1] ** 2
    ts, mesh = layered_mesh([f, lambda x: 2.0 * f(x)])
    q = np.array([1.3, 2.1])
    # the gradient method is exactly linear in the outcomes
    out_g = evaluate_layers(ts, q, mesh=mesh, method="gradient")
    assert out_g.y_hat[1] == pytest.approx(2.0 * out_g.y_hat[0], rel=1e-12)
    # the smooth correction works through chord angles, which scale only
    # approximately, so doubling holds to within the method's own error
    out_s = evaluate_layers(ts, q, mesh=mesh, method="smooth")
    assert out_s.y_hat[1] == pytest.approx(2.0 * out_s.y_hat[0], rel=1e-2)


def test_three_layer_vector_output():
    fns = [
        lambda x: x[:, 0] + x[:, 1],
        lambda x: np.cos(x[:, 0]),
        lambda x: x[:, 1] ** 1.5,
    ]
    ts, mesh = layered_mesh(fns)
    q = np.array([0.7, 1.9])
    out = evaluate_layers(ts, q, mesh=mesh, method="smooth")
    assert len(out.y_hat) == 3
    for j in range(3):
        assert out.y_hat[j] == pytest.approx(
            evaluate_smooth(ts, q, mesh, layer=j).y_hat
        )


def test_layer_permutation_permutes_components():
    fns = [lambda x: x[:, 0] ** 2, lambda x: np.sin(x[:, 1])]
    ts, mesh = layered_mesh(fns)
    ts_swapped, _ = layered_mesh(fns[::-1])
    q = np.array([1.1, 1.7])
    out = evaluate_layers(ts, q, mesh=mesh, method="gradient")
    out_swapped = evaluate_layers(ts_swapped, q, mesh=mesh, method="gradient")
    assert out.y_hat == out_swapped.y_hat[::-1]


def test_unknown_method_rejected():
    ts, mesh = layered_mesh([lambda x: x[:, 0]])
    with pytest.raises(ValidationError):
        evaluate_layers(ts, np.array([1.0, 1.0]), mesh=mesh, method="spline")


def scattered_layers(seed=0, count=60):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (count, 3))
    y = np.stack([x @ [1.0, -2.0, 0.5], np.sin(3.0 * x[:, 0]), x[:, 1] * x[:, 2]], axis=1)
    return validate_training_set((x, y), n=3, layer_count=3), rng.uniform(0.2, 0.8, (5, 3))


@pytest.mark.parametrize("mode", ["mesh", "mesh C=4", "scattered C=4"])
def test_gradient_plan_built_once_for_all_layers(mode, monkeypatch):
    from gradsurf import gradient, neighbors

    if mode == "scattered C=4":
        ts, queries = scattered_layers()
        mesh, kwargs = None, {"combinations": 4}
    else:
        fns = [lambda x: x[:, 0] + x[:, 1], lambda x: np.cos(x[:, 0]), lambda x: x[:, 1] ** 1.5]
        ts, mesh = layered_mesh(fns)
        queries = [np.array([0.7, 1.9]), np.array([2.2, 0.4])]
        kwargs = {"combinations": 4} if mode == "mesh C=4" else {}

    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return neighbors.enumerate_combinations(*args, **kw)

    monkeypatch.setattr(gradient, "enumerate_combinations", counted)
    for q in queries:
        calls.clear()
        out = evaluate_layers(ts, q, mesh=mesh, method="gradient", **kwargs)
        assert len(calls) == 1
        assert len(out.components) == 3
        for j, component in enumerate(out.components):
            assert component == evaluate_gradient(ts, q, mesh=mesh, layer=j, **kwargs)

    # the batch route: one plan per query that leaves the mesh kernel, and
    # the mesh kernel (one combination) builds none
    calls.clear()
    batch = evaluate_gradient_batch(ts, queries, mesh, **kwargs)
    assert len(calls) == (0 if mode == "mesh" else len(queries))
    assert not batch.errors
    for i, q in enumerate(queries):
        for j, component in enumerate(out.components):
            expected = evaluate_gradient(ts, q, mesh=mesh, layer=j, **kwargs)
            assert float(batch.y_hat[i, j]).hex() == expected.y_hat.hex()
        assert batch.reference_index[i] == expected.reference_index


ENTRY_POINTS = {
    "evaluate_gradient": lambda ts, q, mesh, method: evaluate_gradient(ts, q, mesh=mesh),
    "evaluate_smooth": lambda ts, q, mesh, method: evaluate_smooth(ts, q, mesh),
    "evaluate_layers": lambda ts, q, mesh, method: evaluate_layers(ts, q, mesh=mesh,
                                                                   method=method),
    "evaluate_batch": lambda ts, q, mesh, method: evaluate_batch(ts, [q, q], mesh=mesh,
                                                                 method=method),
}


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize("entry,method,mode", [
    (entry, method, mode)
    for entry, method in (("evaluate_gradient", "gradient"), ("evaluate_smooth", "smooth"),
                          ("evaluate_layers", "gradient"), ("evaluate_layers", "smooth"),
                          ("evaluate_batch", "gradient"), ("evaluate_batch", "smooth"))
    for mode in ("mesh", "scattered")
    if mode == "mesh" or method == "gradient"  # the smooth method needs a mesh
])
def test_query_of_wrong_length_raises_dimension_mismatch(entry, method, mode, length):
    ts, mesh = layered_mesh([lambda x: x[:, 0] * x[:, 1]])
    with pytest.raises(DimensionMismatch):
        ENTRY_POINTS[entry](ts, np.full(length, 1.5), mesh if mode == "mesh" else None, method)


@pytest.mark.parametrize("method,keyword", [("gradient", "layer"), ("gradient", "d"),
                                            ("smooth", "combinations"), ("smooth", "layer")])
def test_evaluate_layers_rejects_a_keyword_its_method_does_not_take(method, keyword):
    ts, mesh = layered_mesh([lambda x: x[:, 0] * x[:, 1]])
    with pytest.raises(ValidationError, match=f"'{keyword}'"):
        evaluate_layers(ts, np.array([1.2, 1.7]), mesh=mesh, method=method, **{keyword: 1})


def test_keywords_are_checked_against_a_swapped_batch_function(monkeypatch):
    from gradsurf import layers

    layers._method_batch(None, "gradient", {"combinations": 2})  # the original, cached

    def traced(training, queries, mesh=None, scale=1.0):
        raise AssertionError("not called")

    monkeypatch.setattr(layers, "evaluate_gradient_batch", traced)
    assert layers._method_batch(None, "gradient", {"scale": 2.0}).func is traced
    with pytest.raises(ValidationError, match="'combinations'"):
        layers._method_batch(None, "gradient", {"combinations": 2})


@pytest.mark.parametrize("mode", ["mesh", "scattered"])
@pytest.mark.parametrize("count", [0, -2])
def test_combination_count_below_one_is_a_validation_error(mode, count):
    ts, mesh = layered_mesh([lambda x: x[:, 0] * x[:, 1], lambda x: x[:, 0] - x[:, 1]])
    mesh = mesh if mode == "mesh" else None
    queries = np.array([[1.2, 1.7], [0.4, 2.9]])
    with pytest.raises(ValidationError, match="combination count must be >= 1"):
        evaluate_gradient_batch(ts, queries, mesh, combinations=count)
    with pytest.raises(ValidationError, match="combination count must be >= 1"):
        evaluate_layers(ts, queries[0], mesh=mesh, method="gradient", combinations=count)
