"""Time local cells that are each used once, as the T3 and T4 tables use them.

Compares two checkouts of the repository, for example the current tree and
an older commit unpacked elsewhere:

    python3 tools/cell_lookup.py --parent /path/to/other/checkout \
        --output BENCH_cell-h1-n99.json

For each dimension n in ``DIMENSIONS``, ``CELLS`` local cells of H1 (20
nodes per axis, as T3 and perfbench's cell-h1-n99 build them) are drawn from
a fixed seed.  Each cell is used once: ``gen_local_cell_dataset`` builds it,
then one one-query ``evaluate_gradient_batch`` and one one-query
``evaluate_smooth_batch`` run on it, so every per-mesh fact is built afresh.
Each side times the three stages in a fresh process that imports
``src/gradsurf`` of its checkout.  The sides alternate, ``REPEATS`` times
each.  Each run records its estimates; the report says whether every run of
both sides gave the same bits.  The report replaces the ``once_per_cell``
entry of the output JSON and keeps its other entries.
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

DIMENSIONS = (9, 99)
CELLS = 150
NODES_PER_AXIS = 20
REPEATS = 7
SEED = 17
STAGES = ("generate", "gradient_batch", "smooth_batch")
ROOT = Path(__file__).resolve().parent.parent


def measure() -> dict:
    """Microseconds per cell of each stage, and the estimates, per n."""
    from gradsurf import (TEST_FUNCTIONS, evaluate_gradient_batch, evaluate_smooth_batch,
                          gen_local_cell_dataset)

    clock, f = time.perf_counter, TEST_FUNCTIONS["H1"]
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


def run_side(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    args = [sys.executable, str(Path(__file__).resolve()), "--measure"]
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
    p.add_argument("--measure", action="store_true",
                   help="time the gradsurf package on the import path and print JSON")
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
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
        first = runs["parent"][0][key]["y_hat"]
        entry = {"estimates_bit_identical": all(
            run[key]["y_hat"] == first for side in runs.values() for run in side)}
        for stage in (*STAGES, "total"):
            field = f"{stage}_us_per_cell"
            parent, change = (summarise(runs[s], key, field) for s in sides)
            entry[field] = {"parent": parent, "change": change,
                            "speedup": parent["median"] / change["median"]}
        results[key] = entry

    report = json.loads(args.output.read_text()) if args.output.exists() else {}
    report["once_per_cell"] = {
        "command": "python3 tools/cell_lookup.py --parent PARENT",
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()}, Python {platform.python_version()}, "
                   f"numpy {np.__version__}",
        "inputs": f"{CELLS} local cells of H1 per n, {NODES_PER_AXIS} nodes per axis, "
                  f"seed [{SEED}, n]; one query per cell",
        "method": f"{REPEATS} runs per side in fresh processes, sides alternating; "
                  "medians and inclusive quartiles of microseconds per cell",
        "results": results,
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
