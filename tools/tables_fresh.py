"""Time one-shot ``gradsurf bench`` processes for the mesh tables on two checkouts.

A user makes one table per process, so each run here is a fresh
``python -m gradsurf.cli bench --table TABLE --scale SCALE`` that pays for
its imports, its data and query generation, its estimates and its report.
Compare the current tree with an older commit unpacked elsewhere:

    python3 tools/tables_fresh.py --parent /path/to/other/checkout \
        --runs 10 --output BENCH_tables.json

Every run makes each table at each scale on both sides; the two sides
alternate which runs first.  The JSON holds every wall time in
milliseconds, the median and quartiles of each side, their ratio, ``nproc``,
and whether every report file of both sides was byte-identical to the first
of its table and scale.
"""

from __future__ import annotations

import argparse
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


def run_once(checkout: Path, table: str, scale: str, seed: int, output: Path) -> tuple:
    """Wall milliseconds of one bench process, and the SHA-256 of its report."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "gradsurf.cli", "bench", "--table", table,
            "--scale", scale, "--seed", str(seed), "--output", str(output)]
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
    p.add_argument("--runs", type=int, default=10, help="runs per side, table and scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tables", default="T1,T2", help="comma-separated table ids")
    p.add_argument("--scales", default="small,medium", help="comma-separated scales")
    p.add_argument("--output", type=Path, help="JSON file to write (default: stdout)")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2, for quartiles")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    configs = [(t, s) for t in args.tables.split(",") for s in args.scales.split(",")]
    times = {f"{t} {s}": {side: [] for side in sides} for t, s in configs}
    digests = {key: set() for key in times}
    with tempfile.TemporaryDirectory() as directory:
        output = Path(directory) / "report.jsonl"
        for r in range(args.runs):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for side in order:
                for table, scale in configs:
                    ms, digest = run_once(sides[side], table, scale, args.seed, output)
                    times[f"{table} {scale}"][side].append(ms)
                    digests[f"{table} {scale}"].add(digest)
            print(f"# run {r + 1}/{args.runs} done", file=sys.stderr)

    results = {}
    for key, by_side in times.items():
        parent, change = spread(by_side["parent"]), spread(by_side["change"])
        results[key] = {"parent": parent, "change": change,
                        "ratio_parent_over_change": parent["median_ms"] / change["median_ms"],
                        "change_wins": sum(c < p for p, c in zip(by_side["parent"],
                                                                 by_side["change"]))}
    report = {
        "command": f"python3 tools/tables_fresh.py --parent PARENT --runs {args.runs} "
                   f"--seed {args.seed} --tables {args.tables} --scales {args.scales}",
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "method": f"{args.runs} runs per side of each table and scale, one fresh process "
                  "each, the side that runs first alternating; wall milliseconds of the "
                  "whole process, imports included",
        "reports_byte_identical": all(len(d) == 1 for d in digests.values()),
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
