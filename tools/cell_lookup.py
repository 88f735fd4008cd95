"""Time the batch kernels' fixed cost per call on two checkouts.

Compares two checkouts of the repository, for example the current tree and
an older commit unpacked elsewhere:

    python3 tools/cell_lookup.py --parent /path/to/other/checkout \
        --output BENCH_cell-h1-n99.json
    python3 tools/cell_lookup.py --parent /path/to/other/checkout --warm \
        --output BENCH_cell-h1-n99.json
    python3 tools/cell_lookup.py --parent /path/to/other/checkout --layers \
        --output BENCH_impute-csv.json
    python3 tools/cell_lookup.py --parent /path/to/other/checkout --holed \
        --output BENCH_holed-mesh.json

The default mode times local cells that are each used once, as the T3 and
T4 tables use them.  For each dimension n in ``DIMENSIONS``, ``CELLS`` local
cells of H1 (20 nodes per axis, as T3 and perfbench's cell-h1-n99 build
them) are drawn from a fixed seed.  Each cell is used once:
``gen_local_cell_dataset`` builds it, then one one-query
``evaluate_gradient_batch`` and one one-query ``evaluate_smooth_batch`` run
on it, so every per-mesh fact is built afresh.  The report replaces the
``once_per_cell`` entry of the output JSON.

``--warm`` times each query's scalar call (``evaluate_gradient``,
``evaluate_smooth``) against its batch of one (the batch function on a
(1, n) array), every call after a first untimed one on the same inputs, so
per-mesh facts are built before timing; the kinds of call take turns on
each query.  The inputs: the S1 mesh of
mesh-s1-20 (n=3) with ``WARM_QUERIES`` of its queries, ``WARM_CELLS`` local
cells of H1 at each n in ``DIMENSIONS``, and 5000 uniform noisy 3-D points
with ``WARM_QUERIES`` queries at each C in ``WARM_COMBINATIONS``
(scatter-5k's shape, whose single queries average C=16 combinations; the
smooth method needs a mesh).  The report replaces the ``warm_calls`` entry.
Write it to ``BENCH_scatter-5k.json`` or ``BENCH_cell-h1-n99.json``.

``--layers`` times ``evaluate_layers`` the same way, for both methods,
against the scalar loop it stands for (the single-query function once per
layer) and the method's batch function on a (1, n) array.  The inputs:
perfbench impute-csv's mesh (the 20^3 S1 mesh with outcome layers S1, S2
and H1), the one-layer S1 mesh of mesh-s1-20, each with ``WARM_QUERIES`` of
its queries, and ``WARM_CELLS`` local cells of H1 at n=99.  The report
replaces the ``layers_warm`` entry.

``--holed`` times whole batches where many queries fail.  On a mesh with
holes, a jittered ``HOLED_NODES``^3 S1 mesh without ``HOLED_SHARE`` of its
points (fixed seed) and ``HOLED_QUERIES`` uniform queries over its box,
``evaluate_gradient_batch`` at each C in ``HOLED_COMBINATIONS`` and
``evaluate_smooth_batch``.  On mesh-s1-20's mesh, the ``OVERFLOW_NODES``^3
S1 mesh with ``OVERFLOW_QUERIES`` of ``gen_queries``' queries,
``evaluate_gradient_batch`` at each C in ``MESH_COMBINATIONS``.
Where a shape exponent takes arcs past the float range,
``evaluate_smooth_batch`` on ``OVERFLOW_NODES``^3 S1 meshes with
``OVERFLOW_QUERIES`` of ``gen_queries``' queries: the plain mesh at d=400,
where every arc that a query reaches overflows, and the mesh jittered by
0.3 at d=300, where the arcs of the cells that jitter narrowed do.  Each
batch runs once untimed, then ``WARM_ROUNDS`` times, taking turns.  Each
run records a digest of every estimate's bits and every error's type and
message, and the count of failed rows.  The report replaces the
``holed_mesh`` entry; write it to ``BENCH_holed-mesh.json``.

Each side measures in a fresh process that imports ``src/gradsurf`` of its
checkout.  The sides alternate, ``REPEATS`` times each.  Each run records
its estimates; the report says whether every run of both sides gave the
same bits.  Other entries of the output JSON are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np

DIMENSIONS = (9, 99)
CELLS = 150
NODES_PER_AXIS = 20
REPEATS = 7
SEED = 17
STAGES = ("generate", "gradient_batch", "smooth_batch")
WARM_CELLS = 20
WARM_QUERIES = 50
WARM_ROUNDS = 5  # timed calls of each query, after one untimed
WARM_COMBINATIONS = (1, 2, 4, 16)  # on the scattered points
CALLS = ("gradient_scalar", "gradient_batch_of_one", "smooth_scalar", "smooth_batch_of_one")
LAYER_CALLS = tuple(f"{method}_{kind}" for method in ("gradient", "smooth")
                    for kind in ("scalar_loop", "batch_of_one", "evaluate_layers"))
IMPUTE_LAYERS = ("S1", "S2", "H1")  # perfbench impute-csv's outcome layers
HOLED_NODES = 12
HOLED_JITTER = 0.2
HOLED_SHARE = 0.3  # of the mesh's points removed
HOLED_QUERIES = 2000
HOLED_COMBINATIONS = (1, 4, 16)
MESH_COMBINATIONS = (4, 16)  # on mesh-s1-20's mesh
OVERFLOW_NODES = 20
OVERFLOW_CASES = ((0.0, 400.0), (0.3, 300.0))  # (jitter, d)
OVERFLOW_QUERIES = 2000
ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter


def measure() -> dict:
    """Microseconds per cell of each stage, and the estimates, per n."""
    from gradsurf import (TEST_FUNCTIONS, evaluate_gradient_batch, evaluate_smooth_batch,
                          gen_local_cell_dataset)

    f = TEST_FUNCTIONS["H1"]
    out = {}
    for n in DIMENSIONS:
        rng = np.random.default_rng([SEED, n])
        spent = dict.fromkeys(STAGES, 0.0)
        y_hat = []
        for _ in range(CELLS):
            t0 = clock()
            training, mesh, query, _, _ = gen_local_cell_dataset(f, n, NODES_PER_AXIS, rng)
            t1 = clock()
            gradient = evaluate_gradient_batch(training, query[None, :], mesh)
            t2 = clock()
            smooth = evaluate_smooth_batch(training, query[None, :], mesh)
            t3 = clock()
            for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)):
                spent[stage] += dt
            if gradient.errors or smooth.errors:
                raise SystemExit(f"n={n}: a cell's query failed")
            y_hat.append([float(gradient.y_hat[0, 0]).hex(), float(smooth.y_hat[0, 0]).hex()])
        out[f"n={n}"] = {
            **{f"{stage}_us_per_cell": s / CELLS * 1e6 for stage, s in spent.items()},
            "total_us_per_cell": sum(spent.values()) / CELLS * 1e6,
            "y_hat": y_hat,
        }
    return out


def warm_inputs() -> dict:
    """Each row of the warm table: a list of (training, mesh, query, C)."""
    from gradsurf import (TEST_FUNCTIONS, gen_local_cell_dataset, gen_mesh_dataset,
                          gen_queries, validate_training_set)

    s1, h1 = TEST_FUNCTIONS["S1"], TEST_FUNCTIONS["H1"]
    training, mesh = gen_mesh_dataset(s1, NODES_PER_AXIS, seed=SEED)
    queries = gen_queries(mesh, s1, training, seed=SEED + 1, budget=WARM_QUERIES)[0]
    rows = {"mesh-s1-20 (n=3)": [(training, mesh, q, 1) for q in queries]}
    for n in DIMENSIONS:
        rng = np.random.default_rng([SEED, n])
        cells = [gen_local_cell_dataset(h1, n, NODES_PER_AXIS, rng) for _ in range(WARM_CELLS)]
        rows[f"local cells (n={n})"] = [(t, m, q, 1) for t, m, q, _, _ in cells]
    rng = np.random.default_rng(SEED)
    x = rng.uniform(0.0, 1.0, (5000, 3))
    y = (np.sin(3.0 * x) + x**2).sum(axis=1) + rng.normal(0.0, 0.05, len(x))
    scattered = validate_training_set((x, y), n=3)
    queries = rng.uniform(0.1, 0.9, (WARM_QUERIES, 3))
    for c in WARM_COMBINATIONS:
        rows[f"scatter-5k, C={c}"] = [(scattered, None, q, c) for q in queries]
    return rows


def layers_inputs() -> dict:
    """Each row of the layers table: a list of (training, mesh, query)."""
    from gradsurf import (TEST_FUNCTIONS, gen_local_cell_dataset, gen_mesh_dataset,
                          gen_queries, validate_training_set)

    s1, h1 = TEST_FUNCTIONS["S1"], TEST_FUNCTIONS["H1"]
    base, mesh = gen_mesh_dataset(s1, NODES_PER_AXIS, seed=SEED)
    queries = gen_queries(mesh, s1, base, seed=SEED + 1, budget=WARM_QUERIES)[0]
    y = np.stack([TEST_FUNCTIONS[k](base.x) for k in IMPUTE_LAYERS], axis=1)
    layered = validate_training_set((base.x, y), n=3, layer_count=len(IMPUTE_LAYERS))
    rng = np.random.default_rng([SEED, 99])
    cells = [gen_local_cell_dataset(h1, 99, NODES_PER_AXIS, rng) for _ in range(WARM_CELLS)]
    return {
        "impute-csv mesh, 3 layers (n=3)": [(layered, mesh, q) for q in queries],
        "mesh-s1-20, 1 layer (n=3)": [(base, mesh, q) for q in queries],
        "local cells, 1 layer (n=99)": [(t, m, q) for t, m, q, _, _ in cells],
    }


def time_calls(rows: dict, calls: dict, applies=lambda name, case: True) -> dict:
    """Median microseconds per call of each kind, and the estimates' bits,
    per row.  Each case is called once untimed by every kind, then timed
    ``WARM_ROUNDS`` times, the kinds taking turns, so that a slow spell of
    the machine falls on every kind alike."""
    out = {}
    for row, cases in rows.items():
        names = [name for name in calls if applies(name, cases[0])]
        spent, y_hat = ({name: [] for name in names} for _ in range(2))
        for case in cases:
            for name in names:
                y_hat[name].append([float(v).hex() for v in np.ravel(calls[name](*case))])
            for _ in range(WARM_ROUNDS):
                for name in names:
                    t0 = clock()
                    calls[name](*case)
                    spent[name].append(clock() - t0)
        out[row] = {"y_hat": [bits for name in names for bits in y_hat[name]]}
        for name in names:
            out[row][f"{name}_us"] = statistics.median(spent[name]) * 1e6
    return out


def measure_warm() -> dict:
    """Median microseconds per call of each kind, and the estimates, per row."""
    from gradsurf import (evaluate_gradient, evaluate_gradient_batch, evaluate_smooth,
                          evaluate_smooth_batch)

    calls = dict(zip(CALLS, (
        lambda t, m, q, c: evaluate_gradient(t, q, mesh=m, combinations=c).y_hat,
        lambda t, m, q, c: evaluate_gradient_batch(t, q[None, :], m, combinations=c).y_hat[0, 0],
        lambda t, m, q, c: evaluate_smooth(t, q, m).y_hat,
        lambda t, m, q, c: evaluate_smooth_batch(t, q[None, :], m).y_hat[0, 0],
    )))
    # the smooth method needs a mesh
    return time_calls(warm_inputs(), calls,
                      lambda name, case: case[1] is not None or name.startswith("gradient"))


def measure_layers() -> dict:
    """``measure_warm`` for ``evaluate_layers`` and what it stands for."""
    from gradsurf import (evaluate_gradient, evaluate_gradient_batch, evaluate_layers,
                          evaluate_smooth, evaluate_smooth_batch)

    def scalar_loop(single):
        return lambda t, m, q: [single(t, q, m, layer=l).y_hat for l in range(t.layer_count)]

    def layers(method):
        return lambda t, m, q: evaluate_layers(t, q, mesh=m, method=method).y_hat

    calls = dict(zip(LAYER_CALLS, (
        scalar_loop(evaluate_gradient),
        lambda t, m, q: evaluate_gradient_batch(t, q[None, :], m).y_hat[0],
        layers("gradient"),
        scalar_loop(evaluate_smooth),
        lambda t, m, q: evaluate_smooth_batch(t, q[None, :], m).y_hat[0],
        layers("smooth"),
    )))
    out = time_calls(layers_inputs(), calls)
    for entry in out.values():  # each method's three kinds of call give the same bits
        k = len(entry["y_hat"]) // len(LAYER_CALLS)
        kinds = [entry["y_hat"][i:i + k] for i in range(0, len(entry["y_hat"]), k)]
        entry["calls_agree"] = kinds[0] == kinds[1] == kinds[2] and kinds[3] == kinds[4] == kinds[5]
    return out


def holed_inputs() -> tuple:
    """The ``--holed`` training set, its sparse mesh and the queries."""
    from gradsurf import TEST_FUNCTIONS, MeshIndex, gen_mesh_dataset, validate_training_set

    full, mesh = gen_mesh_dataset(TEST_FUNCTIONS["S1"], HOLED_NODES,
                                  x_jitter_fraction=HOLED_JITTER, seed=SEED)
    rng = np.random.default_rng(SEED)
    kept = np.flatnonzero(rng.random(full.npoints) >= HOLED_SHARE)
    grid = np.stack(np.unravel_index(kept, mesh.shape), axis=1)
    holed = MeshIndex(mesh.axes, HOLED_JITTER, grid=grid, rows=np.arange(len(kept)))
    training = validate_training_set((full.x[kept], full.y[kept]), n=3)
    lo, hi = training.bounding_box
    return training, holed, rng.uniform(lo, hi, (HOLED_QUERIES, 3))


def measure_holed() -> dict:
    """Median microseconds per batch of each kind, the count of its failed
    rows, and a digest of its estimates and errors."""
    import hashlib

    from gradsurf import (TEST_FUNCTIONS, evaluate_gradient_batch, evaluate_smooth_batch,
                          gen_mesh_dataset, gen_queries)

    training, mesh, queries = holed_inputs()
    calls = {f"gradient_batch C={c}": partial(evaluate_gradient_batch, training, queries, mesh,
                                               combinations=c) for c in HOLED_COMBINATIONS}
    calls["smooth_batch"] = partial(evaluate_smooth_batch, training, queries, mesh)
    f = TEST_FUNCTIONS["S1"]
    ts, grid = gen_mesh_dataset(f, OVERFLOW_NODES, seed=0)
    found, _, _ = gen_queries(grid, f, ts, seed=1, budget=OVERFLOW_QUERIES)
    for c in MESH_COMBINATIONS:
        calls[f"gradient_batch mesh-s1-20 C={c}"] = partial(evaluate_gradient_batch, ts, found,
                                                            grid, combinations=c)
    for jitter, d in OVERFLOW_CASES:
        ts, grid = gen_mesh_dataset(f, OVERFLOW_NODES, x_jitter_fraction=jitter, seed=0)
        found, _, _ = gen_queries(grid, f, ts, seed=1, budget=OVERFLOW_QUERIES)
        calls[f"smooth_batch jitter {jitter} d={d:g}"] = partial(
            evaluate_smooth_batch, ts, found, grid, d=d)
    warnings.simplefilter("ignore", UserWarning)  # d > 1 warns of inflections
    out = {}
    for name, call in calls.items():
        batch = call()
        found = hashlib.sha256(batch.y_hat.tobytes())
        found.update(repr([(i, type(e).__name__, str(e)) for i, e in batch.errors.items()]).encode())
        out[name] = {"failed_rows": len(batch.errors), "y_hat": found.hexdigest(), "spent": []}
    for _ in range(WARM_ROUNDS):
        for name, call in calls.items():
            t0 = clock()
            call()
            out[name]["spent"].append(clock() - t0)
    for entry in out.values():
        entry["batch_us"] = statistics.median(entry.pop("spent")) * 1e6
    return out


def run_side(checkout: Path, mode: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    args = [sys.executable, str(Path(__file__).resolve()), "--measure"] + mode
    done = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summarise(runs: list, key: str, field: str) -> dict:
    values = [r[key][field] for r in runs]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "quartiles": [q1, q3], "runs": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, help="the checkout to compare against")
    p.add_argument("--change", type=Path, default=ROOT, help="default: this checkout")
    p.add_argument("--output", type=Path, default=ROOT / "BENCH_cell-h1-n99.json")
    p.add_argument("--warm", action="store_true",
                   help="time warm scalar calls against batches of one")
    p.add_argument("--layers", action="store_true",
                   help="time evaluate_layers against the scalar loop and the batch of one")
    p.add_argument("--holed", action="store_true",
                   help="time whole batches on a jittered mesh with holes")
    p.add_argument("--measure", action="store_true",
                   help="time the gradsurf package on the import path and print JSON")
    args = p.parse_args(argv)
    if args.warm + args.layers + args.holed > 1:
        p.error("--warm, --layers and --holed are separate tables")
    if args.measure:
        measured = (measure_layers() if args.layers else measure_warm() if args.warm
                    else measure_holed() if args.holed else measure())
        print(json.dumps(measured))
        return 0
    if args.parent is None:
        p.error("--parent is required")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in sides}
    for r in range(REPEATS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side], ["--warm"] * args.warm
                                       + ["--layers"] * args.layers + ["--holed"] * args.holed))
            print(f"# repeat {r + 1}/{REPEATS}: {side} done", file=sys.stderr)

    results = {}
    for key, first in runs["parent"][0].items():
        entry = {"estimates_bit_identical": all(
            run[key]["y_hat"] == first["y_hat"] and run[key].get("calls_agree", True)
            for side in runs.values() for run in side)}
        if "failed_rows" in first:
            entry["failed_rows"] = {side: sorted({run[key]["failed_rows"] for run in r})
                                    for side, r in runs.items()}
        fields = [f for f in first if f.endswith("_us") or f.endswith("_us_per_cell")]
        for field in fields:
            parent, change = (summarise(runs[s], key, field) for s in sides)
            entry[field] = {"parent": parent, "change": change,
                            "speedup": parent["median"] / change["median"]}
        results[key] = entry

    report = json.loads(args.output.read_text()) if args.output.exists() else {}
    if args.holed:
        inputs = (f"a jittered {HOLED_NODES}^3 S1 mesh (jitter {HOLED_JITTER}, seed {SEED}) "
                  f"without {HOLED_SHARE:.0%} of its points, and {HOLED_QUERIES} uniform "
                  f"queries over its box, all in one batch; for the mesh-s1-20 entries, "
                  f"mesh-s1-20's {OVERFLOW_NODES}^3 S1 mesh (seed 0) and its "
                  f"{OVERFLOW_QUERIES} gen_queries queries (seed 1) in one batch; for the "
                  f"smooth_batch jitter entries, that mesh at that jitter and its "
                  f"{OVERFLOW_QUERIES} gen_queries queries in one batch at that d")
        method = (f"{REPEATS} runs per side in fresh processes, sides alternating; in each, "
                  f"every batch once untimed, then {WARM_ROUNDS} timed rounds of the "
                  "batches in turn, median microseconds per batch; medians and inclusive "
                  "quartiles over runs. y_hat is a digest of the estimates' bits and the "
                  "errors' rows, types and messages")
        key, command = "holed_mesh", "python3 tools/cell_lookup.py --parent PARENT --holed"
    elif args.layers:
        inputs = (f"perfbench impute-csv's 20^3 S1 mesh with outcome layers "
                  f"{', '.join(IMPUTE_LAYERS)} and mesh-s1-20's one-layer S1 mesh, "
                  f"{WARM_QUERIES} queries each, seed {SEED}; {WARM_CELLS} local cells of H1 "
                  f"at n=99, seed [{SEED}, 99]")
        method = (f"{REPEATS} runs per side in fresh processes, sides alternating; in each, "
                  f"{WARM_ROUNDS} timed calls per query after one untimed, median "
                  "microseconds per call; medians and inclusive quartiles over runs. "
                  "scalar_loop is the single-query function once per layer, batch_of_one "
                  "the batch function on a (1, n) array")
        key, command = "layers_warm", "python3 tools/cell_lookup.py --parent PARENT --layers"
    elif args.warm:
        inputs = (f"mesh-s1-20's S1 mesh with {WARM_QUERIES} of its queries; {WARM_CELLS} "
                  f"local cells of H1 per n in {list(DIMENSIONS)}, seed [{SEED}, n]; 5000 "
                  f"uniform noisy 3-D points with {WARM_QUERIES} queries at C in "
                  f"{list(WARM_COMBINATIONS)}")
        method = (f"{REPEATS} runs per side in fresh processes, sides alternating; in each, "
                  f"{WARM_ROUNDS} timed calls per query after one untimed, median "
                  "microseconds per call; medians and inclusive quartiles over runs")
        key, command = "warm_calls", "python3 tools/cell_lookup.py --parent PARENT --warm"
    else:
        inputs = (f"{CELLS} local cells of H1 per n, {NODES_PER_AXIS} nodes per axis, "
                  f"seed [{SEED}, n]; one query per cell")
        method = (f"{REPEATS} runs per side in fresh processes, sides alternating; "
                  "medians and inclusive quartiles of microseconds per cell")
        key, command = "once_per_cell", "python3 tools/cell_lookup.py --parent PARENT"
    report[key] = {
        "command": command,
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()}, Python {platform.python_version()}, "
                   f"numpy {np.__version__}",
        "inputs": inputs,
        "method": method,
        "results": results,
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
