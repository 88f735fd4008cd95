"""Run perfbench on two checkouts in alternated pairs and summarise them.

Compares two checkouts of the repository, for example the current tree and
an older commit unpacked elsewhere:

    python3 tools/perfbench_pairs.py --parent /path/to/other/checkout \
        --workload scatter-5k --seeds 701-710 --output BENCH_scatter-5k-refined.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, as a fresh process from the checkout's root; the side
that runs first alternates from pair to pair.  The JSON holds every run's
record (the result line and the ``env`` and ``notes`` lines perfbench
prints), ``nproc``, and for each end-to-end metric of ``BENCHMARK.json`` each
side's median and quartiles (inclusive), the ratio of the medians, how many
pairs the change wins (its value better than the parent's in the same
pair), and whether the medians differ by more than the parent's
interquartile range.  ``unscaled_medians`` gives the same medians of
``notes.measured``, the times before perfbench divides them by its speed
probe.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNSCALED = ("setup_s", "plain_qps", "plain_p50_us", "refined_qps", "refined_p50_us")


def seeds(text: str) -> list:
    """``701-710`` or ``701,703,705``."""
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its result and the ``env`` and ``notes`` lines."""
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{checkout}: perfbench exited {done.returncode}\n{done.stderr}")
    record = {"exit_code": done.returncode, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        for key in ("env", "notes"):
            if line.startswith(f"# {key}: "):
                record[key] = json.loads(line[len(f"# {key}: "):])
    return record


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list, metrics: list) -> tuple:
    """The per-metric summary of scaled results, and the medians of the unscaled ones."""
    summary = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": parent, "change": change,
            "median_ratio_change_over_parent": (change["median"] / parent["median"]
                                                if parent["median"] else None),
            "change_wins": wins, "pairs": len(pairs),
            "medians_differ_by_more_than_parent_iqr":
                abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    unscaled = {}
    for name in UNSCALED:
        medians = [statistics.median(p[side]["notes"]["measured"][name] for p in pairs)
                   for side in ("parent", "change")]
        unscaled[name] = {"parent_median": medians[0], "change_median": medians[1],
                          "ratio": medians[1] / medians[0] if medians[0] else None}
    return summary, unscaled


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="the checkout to compare against")
    p.add_argument("--change", type=Path, default=ROOT, help="default: this checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 701-710, one pair per seed")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--output", type=Path, required=True)
    args = p.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i, seed in enumerate(seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(sides[side], args.workload, seed, args.seconds)
            print(f"# seed {seed}: {side} done", file=sys.stderr)
        pairs.append(pair)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary, unscaled = summarise(pairs, metrics)
    report = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {args.seconds:g} --trace 0, run from the root of each checkout",
        "nproc": os.cpu_count(),
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "method": f"{len(pairs)} pairs at seeds {args.seeds}, the side that runs first "
                  "alternating; each side a fresh process in its own checkout; quartiles "
                  "are inclusive; a win is the change's value better than the parent's "
                  "in the same pair",
        "summary": summary,
        "unscaled_medians": unscaled,
        "pairs": pairs,
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
