"""Time one-shot ``gradsurf impute`` processes, CSV to CSV, on two checkouts.

A user runs one impute per process, so each run here is a fresh
``python -m gradsurf.cli impute`` that pays for its imports, its reading and
writing, and the start of its workers.  Compare the current tree with an
older commit unpacked elsewhere:

    python3 tools/impute_fresh.py --parent /path/to/other/checkout \
        --runs 10 --output fresh.json

The inputs are those of perfbench's impute-csv workload at ``--seed``: a
20^3 S1 mesh with three outcome layers (S1, S2, H1) and its sidecar, and
2000 query rows.  They are written once, by this checkout.  Every run times
both methods at ``--workers`` 1 and 2; the two sides alternate which runs
first.  The JSON holds every wall time in milliseconds, the median and
quartiles of each side, their ratio, ``nproc``, and whether every output
file of both sides was byte-identical to the first.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("gradient", "smooth")
WORKERS = (1, 2)
LAYERS = ("S1", "S2", "H1")


def write_inputs(directory: Path, seed: int) -> tuple:
    """The dataset (with its sidecar) and query CSVs of impute-csv at ``seed``."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from gradsurf import TEST_FUNCTIONS, gen_mesh_dataset, gen_queries, save_dataset
    from gradsurf import validate_training_set

    s1 = TEST_FUNCTIONS["S1"]
    base, mesh = gen_mesh_dataset(s1, 20, seed=seed)
    y = np.stack([TEST_FUNCTIONS[k](base.x) for k in LAYERS], axis=1)
    training = validate_training_set((base.x, y), n=3, layer_count=len(LAYERS))
    queries, _, _ = gen_queries(mesh, s1, base, seed=seed + 1, budget=2000)
    data, queries_csv = directory / "data.csv", directory / "queries.csv"
    save_dataset(data, training, mesh)
    with open(queries_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(queries.shape[1])])
        writer.writerows([repr(float(v)) for v in q] for q in queries)
    return data, queries_csv


def run_once(checkout: Path, data: Path, queries: Path, output: Path,
             method: str, workers: int) -> tuple:
    """Wall milliseconds of one impute process, and the SHA-256 of its output."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "gradsurf.cli", "impute", "--data", str(data),
            "--queries", str(queries), "--output", str(output),
            "--method", method, "--workers", str(workers)]
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return wall * 1e3, hashlib.sha256(output.read_bytes()).hexdigest()


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "runs_ms": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="the checkout to compare against")
    p.add_argument("--change", type=Path, default=ROOT, help="default: this checkout")
    p.add_argument("--runs", type=int, default=10, help="runs per side and configuration")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--output", type=Path, help="JSON file to write (default: stdout)")
    args = p.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    configs = [(m, w) for m in METHODS for w in WORKERS]
    times = {f"{m} --workers {w}": {side: [] for side in sides} for m, w in configs}
    digests = {}
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        data, queries = write_inputs(directory, args.seed)
        for r in range(args.runs):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                for method, workers in configs:
                    output = directory / f"out-{side}-{method}-{workers}.csv"
                    ms, digest = run_once(sides[side], data, queries, output, method, workers)
                    times[f"{method} --workers {workers}"][side].append(ms)
                    digests.setdefault(method, set()).add(digest)
            print(f"# run {r + 1}/{args.runs} done", file=sys.stderr)

    results = {}
    for key, by_side in times.items():
        parent, change = spread(by_side["parent"]), spread(by_side["change"])
        results[key] = {"parent": parent, "change": change,
                        "ratio_parent_over_change": parent["median_ms"] / change["median_ms"]}
    report = {
        "command": f"python3 tools/impute_fresh.py --parent PARENT --runs {args.runs} "
                   f"--seed {args.seed}",
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "inputs": f"perfbench impute-csv inputs at seed {args.seed}: 8000 data rows "
                  "(20^3 S1 mesh, layers S1, S2, H1) and 2000 query rows",
        "method": f"{args.runs} runs per side of each configuration, one fresh process each, "
                  "the side that runs first alternating; wall milliseconds",
        "outputs_byte_identical": all(len(d) == 1 for d in digests.values()),
        "results": results,
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.output:
        args.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
