"""Benchmark of the gradsurf library: seeded workloads, timed and traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mesh-s1-20 --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from ``--seed`` and handed to the
library through its public API (``src/gradsurf`` of the same checkout).

``--trace 0`` sets the inputs up three times or more, up to a second in
all (``setup_s`` is the median), then runs rounds until every query has been evaluated once and
``--seconds`` have passed.  A round times one batch call per query kind
and a single-query call for each query of that block.  It prints the
end-to-end metrics.

``--trace 1`` runs one untraced pass, then one traced set-up and pass with
a span around every public function of the library, then a second traced
pass on freshly set-up inputs whose exact counts must equal the first.
It prints the per-layer metrics and writes the spans to ``perfbench/out``.

Outputs are checked on every run: estimates are finite, batch and
single-query results agree to 1e-12 relative, repeated passes give the
same values, the median error against the analytic surface stays under a
limit, and ``gradsurf impute`` output is read back.  The last line of
stdout is the JSON result; lines before it start with ``#`` and carry the
environment, tail latencies and the per-kind breakdown.  The exit code is
0 when every check passed, 1 when one failed, 2 when the library or the
workload cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import metrics as M
import spans
from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = (3, 15)  # fewest and most set-ups per run
SETUP_BUDGET_S = 1.0  # more than the fewest only while they took less than this
AGREE_RTOL = 1e-12
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
clock = time.perf_counter


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


@dataclass
class KindRun:
    """What one query kind produced over a run of rounds."""

    kind: object
    outputs: np.ndarray = field(init=False)  # first value of each query
    seen: np.ndarray = field(init=False)
    rates: list = field(default_factory=list)  # queries/s of each batch call
    latencies: list = field(default_factory=list)  # seconds of each single call
    batch_s: float = 0.0

    def __post_init__(self):
        shape = self.kind.truth.shape
        self.outputs = np.full(shape, np.nan)
        self.seen = np.zeros(shape[0], dtype=bool)


def run_rounds(kinds, seconds: float, tally: Tally, errors: tuple,
               scalar: bool = True, tracer=None, probe=None) -> list:
    """Rounds of one block per kind until every block ran and ``seconds`` passed.

    ``errors`` are the exceptions that count a query as failed.
    """
    runs = [KindRun(k) for k in kinds]
    n_rounds = max(len(k.blocks) for k in kinds)
    start = clock()
    r = 0
    while r < n_rounds or clock() - start < seconds:
        for k, run in enumerate(runs):
            if probe is not None:
                probe.maybe_run()
            if tracer is not None:
                tracer.kind = k
            _run_block(run, r, scalar, tally, errors)
        r += 1
    return runs


def _run_block(run: KindRun, r: int, scalar: bool, tally: Tally, errors: tuple) -> None:
    kind = run.kind
    idx = kind.blocks[r % len(kind.blocks)]
    tally.attempted += len(idx)
    t0 = clock()
    try:
        raw = kind.batch(idx)
        dt = clock() - t0
        out = kind.outputs(idx, raw)
    except errors as exc:
        tally.fail(len(idx), f"{kind.label}: {exc!r}")
        return
    seen = run.seen[idx]
    if out.shape != (len(idx), kind.truth.shape[1]) or not np.isfinite(out).all():
        tally.fail(len(idx), f"{kind.label}: batch output missing or not finite")
        return
    if seen.any() and not np.array_equal(out[seen], run.outputs[idx[seen]]):
        tally.fail(len(idx), f"{kind.label}: a repeated batch gave other values")
        return
    run.outputs[idx] = out
    run.seen[idx] = True
    run.rates.append(len(idx) / dt)
    run.batch_s += dt
    if not scalar:
        return
    for i in kind.scalar_indices(r, idx):
        tally.attempted += 1
        t0 = clock()
        try:
            y = kind.scalar(int(i))
        except errors as exc:
            tally.fail(1, f"{kind.label}: query {i} raised {exc!r}")
            continue
        run.latencies.append(clock() - t0)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        ref = run.outputs[i]
        if not (np.isfinite(y).all() and np.all(np.abs(y - ref) <= AGREE_RTOL * np.abs(ref))):
            tally.fail(1, f"{kind.label}: query {i} single {y.tolist()} vs batch {ref.tolist()}")


def accuracy(run: KindRun, limit: float, tally: Tally) -> dict:
    """Error against the analytic surface over every query evaluated."""
    kind = run.kind
    err = np.abs(run.outputs[run.seen] - kind.truth[run.seen]).ravel()
    if not len(err):  # every block failed, and was counted so
        return {"p50": 0.0, "mean": 0.0, "max": 0.0}
    stats = {"p50": float(np.median(err)), "mean": float(err.mean()), "max": float(err.max())}
    if not stats["p50"] <= limit:
        tally.fail(kind.n_queries, f"{kind.label}: median error {stats['p50']:.3g} "
                   f"above {limit:g}")
    return stats


def tail(samples: list) -> dict:
    """Highest listed percentile with at least 10 samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return {"percentile": p, "us": float(np.percentile(samples, p)) * 1e6, "samples": n}
    return {"percentile": None, "us": None, "samples": n}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_run(workload, seed, seconds, size, workdir, errors) -> tuple:
    tally = Tally()
    probe = SpeedProbe()
    setup_times, digests, inputs = [], set(), None
    fewest, most = SETUP_REPEATS
    while len(setup_times) < fewest or (
            len(setup_times) < most and sum(setup_times) < SETUP_BUDGET_S):
        inputs = None  # let the previous inputs go before building the next
        probe.run()
        t0 = clock()
        inputs = workload.setup(seed, size, workdir)
        setup_times.append(clock() - t0)
        digests.add(workload.fingerprint(inputs))
    if len(digests) != 1:
        tally.fail(1, "the same seed gave different inputs")
    runs = run_rounds(workload.kinds(inputs), seconds, tally, errors, probe=probe)

    # times are reported at the reference speed of the probe loop; the
    # measured values are kept in the notes
    slow = probe.slowdown
    raw = {"setup_s": statistics.median(setup_times)}
    notes = {"probe": {"runs": len(probe.times), "median_s": statistics.median(probe.times),
                       "slowdown": slow},
             "setup_s_each": setup_times, "measured": raw, "kinds": {}}
    metrics = {}
    for run in runs:
        role, kind = run.kind.role, run.kind
        err = accuracy(run, workload.err_limits[size][role], tally)
        raw[f"{role}_qps"] = statistics.median(run.rates) if run.rates else 0.0
        raw[f"{role}_p50_us"] = statistics.median(run.latencies) * 1e6 if run.latencies else 0.0
        metrics[f"{role}_qps"] = raw[f"{role}_qps"] * slow
        metrics[f"{role}_p50_us"] = raw[f"{role}_p50_us"] / slow
        metrics[f"{role}_abs_err_p50"] = err["p50"]
        notes["kinds"][role] = {
            "label": kind.label, "queries": kind.n_queries,
            "batch_qps_each": run.rates, "tail": tail(run.latencies),
            "abs_err": err,
        }
    metrics["ok_frac"] = 1.0 - tally.failed / max(tally.attempted, 1)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["setup_s"] = raw["setup_s"] / slow
    return tally, metrics, notes


def traced_run(workload, seed, size, workdir, errors) -> tuple:
    tally = Tally()

    def setup():
        return workload.setup(seed, size, workdir)

    def one_pass(inputs, tracer=None, workers=1):
        return run_rounds(workload.kinds(inputs, workers), 0, tally, errors,
                          scalar=False, tracer=tracer)

    reference = one_pass(setup())
    extra = {"cli.fanout_overhead_s": 0.0}
    if workload.fanout_workers:
        # wall time of impute_rows with the fan-out, against the per-row
        # evaluation time of the traced single-worker pass below
        with spans.Tracer(only={"cli.impute_rows"}) as timer:
            timer.install()
            one_pass(setup(), workers=workload.fanout_workers)
        fanout_wall = timer.summarize()["total_s"].get("cli.impute_rows", 0.0)

    with spans.Tracer() as tracer:
        tracer.install(expected=M.expected_spans())
        inputs = setup()
        pass_start = tracer.mark()
        tracer.take_counts()
        traced = one_pass(inputs, tracer)
        pass_end = tracer.mark()
        counts = tracer.take_counts()
        scope = tracer.summarize(0, pass_end)
        first = tracer.summarize(pass_start, pass_end)
        tracer.write_spans(OUT / f"{workload.name}-spans.tsv", 0, pass_end)
        del tracer.spans[:]

        inputs = setup()
        tracer.take_counts()
        repeat_start = tracer.mark()
        repeat = one_pass(inputs, tracer)
        repeat_counts = tracer.take_counts()
        repeat_calls = tracer.summarize(repeat_start)["calls"]
    leftover = spans.leftover_wrappers()
    if leftover:
        tally.fail(1, f"tracing wrappers left installed: {leftover[:5]}")

    if repeat_counts != counts or repeat_calls != first["calls"]:
        tally.fail(1, "exact counts differ between two traced passes")
    for ref, a, b in zip(reference, traced, repeat):
        if not (np.array_equal(ref.outputs, a.outputs, equal_nan=True)
                and np.array_equal(ref.outputs, b.outputs, equal_nan=True)):
            tally.fail(ref.kind.n_queries, f"{ref.kind.label}: traced outputs differ")

    if workload.fanout_workers:
        eval_s = first["total_s"].get("layers.evaluate_layers", 0.0)
        extra["cli.fanout_overhead_s"] = (fanout_wall - eval_s / workload.fanout_workers) / len(traced)
    untraced_s = sum(r.batch_s for r in reference)
    traced_s = sum(r.batch_s for r in traced)
    extra["trace.overhead_ratio"] = traced_s / untraced_s - 1.0

    values = M.layer_values(scope, first, counts, extra, tracer.absent)
    notes = {
        # spans inside worker processes are not visible, so the traced
        # passes run every kind in this process
        "traced_workers": 1,
        "absent": tracer.absent,
        "absent_metrics": [m for m, *_ in M.PER_LAYER if M.source_of(m) in tracer.absent],
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "queries": len(first["queries"]),
        "top_self_us_per_query": _top_by_kind(first, [r.kind for r in traced]),
    }
    return tally, values, notes


def _top_by_kind(summary: dict, kinds: list, top: int = 8) -> dict:
    out = {}
    for k, kind in enumerate(kinds):
        nq = sum(1 for q in summary["queries"].values() if q == k) or 1
        self_s = summary["self_s_by_kind"].get(k, {})
        ranked = sorted(self_s.items(), key=lambda kv: -kv[1])[:top]
        out[kind.label] = {name: round(s / nq * 1e6, 3) for name, s in ranked}
    return out


def git_commit(root: Path):
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT / "src"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for the benchmark's own test")
    return p.parse_args(argv)


def load_library():
    """Import gradsurf from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "gradsurf" / "__init__.py").is_file():
        return None
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import gradsurf

    if Path(gradsurf.__file__).resolve().parent != (src / "gradsurf").resolve():
        return None
    return gradsurf


def main(argv=None) -> int:
    args = parse_args(argv)
    if load_library() is None:
        print("error: the gradsurf sources (src/gradsurf) are not in this checkout",
              file=sys.stderr)
        return 2
    from gradsurf.model import GradsurfError
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    errors = (GradsurfError, CheckFailed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT))
    try:
        if args.trace:
            tally, metric_values, notes = traced_run(
                workload, args.seed, args.size, workdir, errors)
        else:
            tally, metric_values, notes = timed_run(
                workload, args.seed, args.seconds, args.size, workdir, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    table = M.PER_LAYER if args.trace else M.END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metric_values[name], "unit": unit}
                    for name, unit, *_ in table},
    }
    record = {"workload": workload.name, "trace": args.trace, "size": args.size,
              "seconds": args.seconds, "env": environment(args.seed),
              "problems": tally.problems, "notes": notes, "result": result}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for key in ("env", "problems", "notes"):
        print(f"# {key}: {json.dumps(record[key])}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
