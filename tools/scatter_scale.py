"""Time the gradient method on scattered data as the training set grows.

Compares two checkouts of the repository, for example the current tree and
an older commit unpacked elsewhere:

    python3 tools/scatter_scale.py --parent /path/to/other/checkout \
        --output BENCH_scatter-scale.json

For each dimension n and size N in ``SHAPES``, N uniform noisy n-D points
and ``QUERIES`` queries are drawn from a fixed seed.  At n = 9 every
distance is a sum of nine terms, which numpy adds pairwise.  At n = 17 the
batch's lockstep planner hands some queries back to the scalar planner.
At n = 6 the batch's nearest points are found through the bucket grid at
the most axes it is used on.  Each side times the first
``evaluate_gradient_batch`` call on a new training set, at C = 1, which
builds what the set derives on first use (its columns, and the bucket grid
where one is used), then one warm batch call on all queries and one
``evaluate_gradient`` call per query, at C = 1 and C = 16 combinations, in
a fresh process that imports ``src/gradsurf`` of its checkout.  The sides
alternate, ``REPEATS`` times each; the JSON holds every run and the
median microseconds per query of each side, their ratio, and ``nproc``.
Each run checks that its batch and single-query estimates agree bit for
bit, and the JSON records whether the two sides' estimates are equal.

The current tree alone also times one ``neighbors._normalised_d2`` call at
each n and N of ``DISTANCE_SHAPES``, on both sides of the constants that
choose its passes: one pass over all terms against blocks of points, and
blocks with and without their floor of points (``distance_blocks`` in the
JSON).  And it times one ``neighbors._nearest_prefixes`` call on
``QUERIES`` queries at each n, N and C of ``GRID_SHAPES``, on both sides
of the constants that choose the bucket grid: through the grid, whatever
the box's share of N and the count of axes, against the distances to all
N points, and through grids sized for other counts of points in a ball of
one bucket's radius (``grid_constants`` in the JSON).
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
from pathlib import Path

import numpy as np

SHAPES = ((3, 5_000), (3, 50_000), (3, 500_000), (6, 200_000), (9, 5_000), (9, 50_000),
          (17, 5_000))
DISTANCE_SHAPES = ((3, 5_000), (3, 45_000), (3, 87_000), (3, 130_000), (3, 500_000),
                   (9, 16_000), (9, 50_000), (17, 10_000), (17, 30_000), (99, 2_000),
                   (99, 20_000))
GRID_SHAPES = ((1, 5_000, 1), (2, 5_000, 1), (3, 5_000, 1), (3, 5_000, 2), (3, 5_000, 4),
               (3, 5_000, 16), (3, 50_000, 4), (3, 50_000, 16), (4, 50_000, 1),
               (4, 50_000, 4), (5, 50_000, 1), (5, 50_000, 2), (6, 50_000, 1),
               (6, 200_000, 1), (6, 200_000, 2), (7, 200_000, 1), (3, 500_000, 1))
BALL_POINTS = (1.5, 2, 2.5, 3)  # the grid sizes timed, as BUCKET_BALL_POINTS
COMBINATIONS = (1, 16)
QUERIES = 50
REPEATS = 5
SEED = 5
NOISE_SIGMA = 0.05
ROOT = Path(__file__).resolve().parent.parent


def inputs(n: int, npoints: int):
    """The training points, outcomes and queries for one n and N."""
    rng = np.random.default_rng([SEED, npoints, n])
    x = rng.uniform(0.0, 1.0, (npoints, n))
    y = (np.sin(3.0 * x) + x**2).sum(axis=1) + rng.normal(0.0, NOISE_SIGMA, npoints)
    return x, y, rng.uniform(0.1, 0.9, (QUERIES, n))


def measure() -> dict:
    """Microseconds per query of each path and the batch's estimates, per n, N and C."""
    from gradsurf import evaluate_gradient, evaluate_gradient_batch, validate_training_set

    clock = time.perf_counter
    out = {}
    for n, npoints in SHAPES:
        x, y, queries = inputs(n, npoints)
        training = validate_training_set((x, y), n=n)
        t0 = clock()
        first = evaluate_gradient_batch(training, queries, combinations=COMBINATIONS[0])
        first_us = (clock() - t0) / len(queries) * 1e6
        for c in COMBINATIONS:
            t0 = clock()
            batch = evaluate_gradient_batch(training, queries, combinations=c)
            t1 = clock()
            scalar = [evaluate_gradient(training, q, combinations=c).y_hat for q in queries]
            t2 = clock()
            if batch.errors or batch.y_hat[:, 0].tolist() != scalar:
                raise SystemExit(f"n={n} N={npoints} C={c}: batch and scalar estimates differ")
            out[f"n={n} N={npoints} C={c}"] = {
                "batch_us_per_query": (t1 - t0) / len(queries) * 1e6,
                "scalar_us_per_query": (t2 - t1) / len(queries) * 1e6,
                "y_hat": [float(v).hex() for v in scalar],
            }
            if c == COMBINATIONS[0]:
                if first.y_hat[:, 0].tolist() != scalar:
                    raise SystemExit(f"n={n} N={npoints}: the first batch call differs")
                out[f"n={n} N={npoints} C={c}"]["first_batch_us_per_query"] = first_us
    return out


def distance_blocks() -> dict:
    """Microseconds of one distance pass, per n and N, as each variant runs it.

    ``single_pass`` forms all terms at once, ``blocks`` forms them in blocks
    of at least ``D2_MIN_BLOCK_POINTS`` points and ``blocks_without_floor``
    in blocks of ``D2_BLOCK_BYTES`` only; ``chosen`` is the variant the
    constants pick.  Every variant's distances are checked equal.
    """
    import timeit

    from gradsurf import neighbors, validate_training_set

    shipped = neighbors.D2_SINGLE_PASS_BYTES, neighbors.D2_MIN_BLOCK_POINTS
    variants = {"single_pass": (float("inf"), shipped[1]), "blocks": (0, shipped[1]),
                "blocks_without_floor": (0, 1)}
    out = {}
    for n, npoints in DISTANCE_SHAPES:
        x, y, queries = inputs(n, npoints)
        training = validate_training_set((x, y), n=n)
        want = neighbors._normalised_d2(training, queries[0]).tobytes()
        number = max(3, 2_000_000 // (n * npoints))
        times = {name: [] for name in variants}
        try:
            for _ in range(REPEATS):
                for name, constants in variants.items():
                    neighbors.D2_SINGLE_PASS_BYTES, neighbors.D2_MIN_BLOCK_POINTS = constants
                    call = lambda: neighbors._normalised_d2(training, queries[0])  # noqa: E731
                    if call().tobytes() != want:
                        raise SystemExit(f"n={n} N={npoints}: {name} distances differ")
                    best = min(timeit.repeat(call, number=number, repeat=3))
                    times[name].append(best / number * 1e6)
        finally:
            neighbors.D2_SINGLE_PASS_BYTES, neighbors.D2_MIN_BLOCK_POINTS = shipped
        chosen = "single_pass" if 8 * n * npoints <= shipped[0] else "blocks"
        out[f"n={n} N={npoints}"] = {
            "terms_bytes": 8 * n * npoints, "chosen": chosen,
            **{f"{name}_us": statistics.median(t) for name, t in times.items()},
        }
    return out


def grid_constants() -> dict:
    """Microseconds per query of one ``_nearest_prefixes`` call, per n, N and
    C, with the bucket grid forced on and off, and on grids of other sizes.

    ``grid`` searches the grid whatever ``GRID_MAX_SHARE`` and
    ``GRID_MAX_AXES`` say, ``brute_force`` never does, and ``ball_points_B``
    searches a grid sized for B times 3n + 1 points in a ball of one
    bucket's radius; ``chosen`` is what the constants pick, ``box_share``
    the share of N that an average box of the forced grid holds, and
    ``proven`` the share of queries it proves.  Every variant's prefixes
    are checked equal.
    """
    import timeit

    from gradsurf import model, neighbors, validate_training_set

    def use(share, axes, ball_points):
        neighbors.GRID_MAX_SHARE, neighbors.GRID_MAX_AXES = share, axes
        model.BUCKET_BALL_POINTS = neighbors.BUCKET_BALL_POINTS = ball_points

    shipped = neighbors.GRID_MAX_SHARE, neighbors.GRID_MAX_AXES, model.BUCKET_BALL_POINTS
    variants = {"grid": (1.0, 99, shipped[2]), "brute_force": (-1.0, 99, shipped[2]),
                **{f"ball_points_{b}": (1.0, 99, b) for b in BALL_POINTS}}
    out = {}
    for n, npoints, c in GRID_SHAPES:
        x, y, queries = inputs(n, npoints)
        width = min(npoints, max(3 * n + 1, 2 * (n + 1) * c))
        # a set for each variant, so that each grid is built at its size
        sets = {name: validate_training_set((x, y), n=n) for name in variants}
        times, want = {name: [] for name in variants}, None
        try:
            for _ in range(REPEATS):
                for name, constants in variants.items():
                    use(*constants)
                    training = sets[name]
                    call = lambda: neighbors._nearest_prefixes(training, queries, width)  # noqa: E731
                    got = call()
                    want = got if want is None else want
                    if not (got == want).all():
                        raise SystemExit(f"n={n} N={npoints} C={c}: {name} prefixes differ")
                    number = max(1, 200_000 // (n * npoints))
                    best = min(timeit.repeat(call, number=number, repeat=3))
                    times[name].append(best / number / len(queries) * 1e6)
            use(*shipped)
            chosen = "grid" if neighbors._grid_rings(sets["grid"], width) else "brute_force"
            use(*variants["grid"])
            training, rings = sets["grid"], neighbors._grid_rings(sets["grid"], width)
            proven = neighbors._grid_prefixes(training, queries, width, training.buckets, rings)[0]
        finally:
            use(*shipped)
        out[f"n={n} N={npoints} C={c}"] = {
            "width": width, "buckets_per_axis": training.buckets.per_axis, "rings": rings,
            "box_share": neighbors._box_share(n, training.buckets.per_axis, rings),
            "proven": float(proven.mean()), "chosen": chosen,
            **{f"{name}_us": statistics.median(t) for name, t in times.items()},
        }
    return out


def run_side(checkout: Path, flag: str = "--measure") -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    args = [sys.executable, str(Path(__file__).resolve()), flag]
    done = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summarise(runs: list, key: str, field: str) -> dict:
    values = [r[key][field] for r in runs if field in r[key]]
    return {"median": statistics.median(values), "runs": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, help="the checkout to compare against")
    p.add_argument("--change", type=Path, default=ROOT, help="default: this checkout")
    p.add_argument("--output", type=Path, default=ROOT / "BENCH_scatter-scale.json")
    p.add_argument("--measure", action="store_true",
                   help="time the gradsurf package on the import path and print JSON")
    p.add_argument("--measure-distances", action="store_true",
                   help="time its distance pass's variants and print JSON")
    p.add_argument("--measure-grid", action="store_true",
                   help="time its nearest-point search's variants and print JSON")
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.measure_distances:
        print(json.dumps(distance_blocks()))
        return 0
    if args.measure_grid:
        print(json.dumps(grid_constants()))
        return 0
    if args.parent is None:
        p.error("--parent is required")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in sides}
    for r in range(REPEATS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side]))
            print(f"# repeat {r + 1}/{REPEATS}: {side} done", file=sys.stderr)

    results = {}
    for key in runs["change"][0]:
        same = all(run[key]["y_hat"] == runs["parent"][0][key]["y_hat"]
                   for side in runs.values() for run in side)
        entry = {"estimates_bit_identical": same}
        for field in ("first_batch_us_per_query", "batch_us_per_query", "scalar_us_per_query"):
            if not all(field in runs[s][0][key] for s in runs):
                continue
            parent, change = (summarise(runs[s], key, field) for s in ("parent", "change"))
            entry[field] = {"parent": parent, "change": change,
                            "speedup": parent["median"] / change["median"]}
        results[key] = entry

    report = {
        "command": "python3 tools/scatter_scale.py --parent PARENT",
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()}, Python {platform.python_version()}, "
                   f"numpy {np.__version__}",
        "inputs": f"{QUERIES} queries, seed {SEED}, N uniform points in [0, 1]^n with "
                  f"Gaussian noise {NOISE_SIGMA}; queries uniform in [0.1, 0.9]^n",
        "method": f"{REPEATS} repeats per side in fresh processes, sides "
                  "alternating; medians of microseconds per query",
        "results": results,
        "distance_method": f"the change side alone, one fresh process: {REPEATS} rounds "
                           "over the variants, each the best of 3 timeit repeats; medians",
        "distance_blocks": run_side(sides["change"], "--measure-distances"),
        "grid_method": f"the change side alone, one fresh process: {REPEATS} rounds over "
                       f"the variants, each the best of 3 timeit repeats of one call on "
                       f"{QUERIES} queries; medians of microseconds per query",
        "grid_constants": run_side(sides["change"], "--measure-grid"),
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
