"""The benchmark's workloads: seeded inputs and the calls each one times.

Every workload has two query kinds.  The "plain" kind is the gradient
method with one combination; the "refined" kind is the costlier estimate
that improves on it (the smooth correction, or averaging over 16
combinations on scattered data).  Each kind exposes a timed batch call on
a block of queries and a timed single-query call, so the runner can
measure throughput and latency and compare the two paths.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from gradsurf import bench, cli, gradient, io, layers, model, smooth

FUNCTIONS = bench.TEST_FUNCTIONS
IMPUTE_LAYERS = ("S1", "S2", "H1")  # three surfaces sharing the domain (2, 5)
SCATTER_NOISE_SIGMA = 0.05


class CheckFailed(Exception):
    """An output of the program is wrong: the run is not correct."""


@dataclass
class Kind:
    """One query kind of a workload.

    ``batch(idx)`` is the timed batch call for the queries ``idx``;
    ``collect(idx, raw)`` turns its return value into a (len(idx), layers)
    array outside the timed region, checking the output on the way.
    ``scalar(i)`` is the timed single-query call.
    """

    role: str  # "plain" | "refined"
    label: str
    blocks: list
    batch: Callable[[np.ndarray], Any]
    scalar: Callable[[int], np.ndarray]
    truth: np.ndarray  # (queries, layers)
    collect: Optional[Callable[[np.ndarray, Any], np.ndarray]] = None
    scalar_per_round: Optional[int] = None  # None: the scalar calls cover the block

    @property
    def n_queries(self) -> int:
        return len(self.truth)

    def outputs(self, idx: np.ndarray, raw) -> np.ndarray:
        if self.collect is not None:
            return self.collect(idx, raw)
        return np.asarray(raw, dtype=float).reshape(len(idx), -1)

    def scalar_indices(self, round_no: int, idx: np.ndarray) -> np.ndarray:
        if self.scalar_per_round is None:
            return idx
        start = round_no * self.scalar_per_round
        return np.arange(start, start + self.scalar_per_round) % self.n_queries


def _blocks(n: int, size: int) -> list:
    return [np.arange(s, min(s + size, n)) for s in range(0, n, size)]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class Workload:
    name = ""
    why = ""
    # per input size and kind role: a median |error| above this is wrong output
    err_limits: dict
    fanout_workers: Optional[int] = None  # worker count of a process fan-out

    def setup(self, seed: int, size: str, workdir: Path):
        """Generate (and write) the inputs; the runner times this as setup_s."""
        raise NotImplementedError

    def fingerprint(self, inputs) -> str:
        """Digest of the inputs, equal for equal seeds."""
        raise NotImplementedError

    def kinds(self, inputs, workers: Optional[int] = None) -> list:
        raise NotImplementedError


class MeshS1(Workload):
    name = "mesh-s1-20"
    why = (
        "S1 on a full 20^3 mesh, 2000 queries one per cell; per-dataset work "
        "redone per query dominates (plain=gradient, refined=smooth)"
    )
    err_limits = {"full": {"plain": 1e-3, "refined": 1e-5},
                  "smoke": {"plain": 5e-3, "refined": 2e-4}}

    def setup(self, seed, size, workdir):
        nodes, budget = (20, 2000) if size == "full" else (8, 40)
        f = FUNCTIONS["S1"]
        training, mesh = bench.gen_mesh_dataset(f, nodes, seed=seed)
        queries, truths, _ = bench.gen_queries(
            mesh, f, training, seed=seed + 1, budget=budget
        )
        return training, mesh, queries, truths

    def fingerprint(self, inputs):
        training, _, queries, truths = inputs
        return _digest(training.x, training.y, queries, truths)

    def kinds(self, inputs, workers=None):
        training, mesh, queries, truths = inputs
        blocks = _blocks(len(queries), 250)
        truth = truths.reshape(-1, 1)

        def batch(method):
            return lambda idx: bench.evaluate_batch(
                training, queries[idx], mesh=mesh, method=method, workers=1
            )

        return [
            Kind("plain", "gradient C=1", blocks, batch("gradient"),
                 lambda i: gradient.evaluate_gradient(training, queries[i], mesh=mesh).y_hat,
                 truth),
            Kind("refined", "smooth", blocks, batch("smooth"),
                 lambda i: smooth.evaluate_smooth(training, queries[i], mesh).y_hat,
                 truth),
        ]


class CellH1(Workload):
    name = "cell-h1-n99"
    why = (
        "H1 at n=99 (T3 row N=100): 150 local cells of 298 points, one query "
        "each; linear solve and stencil lookup dominate, the linear-in-n claim"
    )
    err_limits = {"full": {"plain": 2e-2, "refined": 2e-4},
                  "smoke": {"plain": 3e-3, "refined": 2e-5}}

    def setup(self, seed, size, workdir):
        n, count = (99, 150) if size == "full" else (9, 6)
        rng = np.random.default_rng(seed)
        f = FUNCTIONS["H1"]
        return [bench.gen_local_cell_dataset(f, n, 20, rng) for _ in range(count)]

    def fingerprint(self, inputs):
        return _digest(*(a for t, _, q, truth, _ in inputs for a in (t.x, t.y, q, [truth])))

    def kinds(self, inputs, workers=None):
        blocks = _blocks(len(inputs), 1)
        truth = np.array([[c[3]] for c in inputs])

        def batch(method):
            def call(idx):
                training, mesh, query, _, _ = inputs[idx[0]]
                return bench.evaluate_batch(
                    training, query[None, :], mesh=mesh, method=method, workers=1
                )
            return call

        def scalar(fn):
            def call(i):
                training, mesh, query, _, _ = inputs[i]
                return fn(training, query, mesh=mesh).y_hat
            return call

        return [
            Kind("plain", "gradient C=1", blocks, batch("gradient"),
                 scalar(gradient.evaluate_gradient), truth),
            Kind("refined", "smooth", blocks, batch("smooth"),
                 scalar(smooth.evaluate_smooth), truth),
        ]


def scatter_surface(x: np.ndarray) -> np.ndarray:
    return (np.sin(3.0 * x) + x**2).sum(axis=-1)


class Scatter5k(Workload):
    name = "scatter-5k"
    why = (
        "5000 uniform noisy 3-D points, no mesh, 300 queries; the only "
        "scattered neighbour path (plain=gradient C=1, refined=C=16 averaging)"
    )
    err_limits = {"full": {"plain": 0.15, "refined": 0.15},
                  "smoke": {"plain": 0.5, "refined": 0.5}}

    def setup(self, seed, size, workdir):
        npoints, nq = (5000, 300) if size == "full" else (400, 20)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (npoints, 3))
        y = scatter_surface(x) + rng.normal(0.0, SCATTER_NOISE_SIGMA, npoints)
        training = model.validate_training_set((x, y.reshape(-1, 1)), n=3)
        queries = rng.uniform(0.1, 0.9, (nq, 3))
        return training, queries, scatter_surface(queries)

    def fingerprint(self, inputs):
        training, queries, truths = inputs
        return _digest(training.x, training.y, queries, truths)

    def kinds(self, inputs, workers=None):
        training, queries, truths = inputs
        blocks = _blocks(len(queries), 50)
        truth = truths.reshape(-1, 1)

        def batch(c):
            return lambda idx: bench.evaluate_batch(
                training, queries[idx], method="gradient", workers=1, combinations=c
            )

        def scalar(c):
            return lambda i: gradient.evaluate_gradient(
                training, queries[i], combinations=c
            ).y_hat

        return [
            Kind("plain", "gradient C=1", blocks, batch(1), scalar(1), truth),
            Kind("refined", "gradient C=16", blocks, batch(16), scalar(16), truth),
        ]


@dataclass
class ImputeInputs:
    data: Path
    queries_csv: Path
    queries: np.ndarray
    truth: np.ndarray
    training: model.TrainingSet  # the data file loaded back, for single-query calls
    mesh: model.MeshIndex
    workdir: Path


class ImputeCsv(Workload):
    name = "impute-csv"
    why = (
        "gradsurf impute in-process: 20^3 S1 mesh CSV with 3 outcome layers, "
        "2000 query rows, --workers 2; covers io, layers and cli (plain=gradient)"
    )
    err_limits = {"full": {"plain": 1e-3, "refined": 1e-5},
                  "smoke": {"plain": 5e-3, "refined": 2e-4}}
    fanout_workers = 2

    def setup(self, seed, size, workdir):
        nodes, budget = (20, 2000) if size == "full" else (8, 40)
        s1 = FUNCTIONS["S1"]
        base, mesh = bench.gen_mesh_dataset(s1, nodes, seed=seed)
        y = np.stack([FUNCTIONS[k](base.x) for k in IMPUTE_LAYERS], axis=1)
        training = model.validate_training_set(
            (base.x, y), n=3, layer_count=len(IMPUTE_LAYERS)
        )
        queries, _, _ = bench.gen_queries(mesh, s1, base, seed=seed + 1, budget=budget)
        truth = np.stack([FUNCTIONS[k](queries) for k in IMPUTE_LAYERS], axis=1)

        data = workdir / "data.csv"
        io.save_dataset(data, training, mesh)
        queries_csv = workdir / "queries.csv"
        with open(queries_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i + 1}" for i in range(queries.shape[1])])
            writer.writerows([repr(float(v)) for v in q] for q in queries)
        loaded, loaded_mesh = io.load_dataset(data)
        return ImputeInputs(data, queries_csv, queries, truth, loaded, loaded_mesh, workdir)

    def fingerprint(self, inputs):
        h = hashlib.sha256()
        for path in sorted(inputs.workdir.glob("data*")) + [inputs.queries_csv]:
            h.update(path.read_bytes())
        return h.hexdigest()

    def kinds(self, inputs, workers=None):
        workers = self.fanout_workers if workers is None else workers
        queries = inputs.queries
        blocks = [np.arange(len(queries))]

        def kind(role, method):
            output = inputs.workdir / f"imputed-{method}.csv"
            argv = ["impute", "--data", str(inputs.data),
                    "--queries", str(inputs.queries_csv), "--output", str(output),
                    "--method", method, "--workers", str(workers)]

            def collect(idx, code):
                if code != 0:
                    raise CheckFailed(f"gradsurf impute --method {method} exited {code}")
                return read_imputed(output, queries)

            def scalar(i):
                return np.asarray(layers.evaluate_layers(
                    inputs.training, queries[i], mesh=inputs.mesh, method=method
                ).y_hat)

            return Kind(role, f"impute --method {method} --workers {workers}", blocks,
                        lambda idx: cli.main(argv), scalar, inputs.truth,
                        collect=collect, scalar_per_round=100)

        return [kind("plain", "gradient"), kind("refined", "smooth")]


def read_imputed(path: Path, queries: np.ndarray) -> np.ndarray:
    """Read an imputation CSV back, checking row count, order and status."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    n = queries.shape[1]
    y_cols = [i for i, c in enumerate(header) if c.startswith("y_hat")]
    status = header.index("status")
    if len(rows) != len(queries):
        raise CheckFailed(f"{path.name}: {len(rows)} rows for {len(queries)} queries")
    coords = np.array([[float(v) for v in r[:n]] for r in rows])
    if not np.array_equal(coords, queries):
        raise CheckFailed(f"{path.name}: rows do not repeat the query coordinates in order")
    bad = [r[status] for r in rows if r[status] != "ok"]
    if bad:
        raise CheckFailed(f"{path.name}: {len(bad)} rows not ok, first {bad[0]!r}")
    return np.array([[float(r[i]) for i in y_cols] for r in rows])


WORKLOADS = {w.name: w for w in (MeshS1(), CellH1(), Scatter5k(), ImputeCsv())}
