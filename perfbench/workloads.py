"""The three workloads: inputs from a seed, timed runs, output checks.

Every workload drives public entry points only — ``repro.decompose``,
``repro.partition.make_partition`` and ``repro.DecompositionService`` — and
returns an :class:`Outcome`.  Inputs are generated before any timer starts.
Untraced runs give the end-to-end metrics.  A traced run (``trace`` is the
directory the spans go to) repeats the operation once untraced and twice
with the :mod:`layers` wrappers installed, reports the per-layer metrics and
the tracing overhead, and fails if an exact count differs between the two
traced repetitions.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import layers
from arith import median, tail_percentile
from checks import check_decomposition, check_fit_matches, zero_columns
from tracing import Tracer

from repro import DecompositionService, SparseTensor, decompose
from repro.data.datasets import make_dataset
from repro.data.synthetic import power_law_sparse_tensor, random_sparse_tensor
from repro.parallel.shm import cleanup_orphans
from repro.partition import make_partition
from repro.streaming import DeltaBatch, apply_delta

SWEEPS = dict(max_iterations=3, tolerance=0)

#: Per-workload sizes (also recorded in BENCHMARK.json).
POWERLAW = dict(shape=(120, 100, 90, 80), nnz=120_000, exponents=0.7, rank=8)
DELICIOUS = dict(name="delicious", scale=2e-4, rank=10, parts=4)
SERVING = dict(
    workers=2, clients=2, jobs_per_second=34, small_shape=(40, 30, 20),
    small_nnz=2000, small_rank=4, gram_shape=(60, 50, 45, 40), gram_nnz=12_000,
    gram_rank=8, gram_jobs=2, delta_nnz=200, resubmit=0.15, delta=0.15,
)
#: Set-up repetitions per group; a run measures one group before its timed
#: work and one after each timed step, and ``setup_s`` is the median of all.
#: Spreading the groups over the run keeps a short burst of host load from
#: setting the median of a set-up that takes only milliseconds.
SETUP_GROUP = 7


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)

    def op(self, failures: List[str]) -> None:
        """Count one attempted operation and its failed checks."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.report.append(f"{name:<30} {value:>14.6g} {unit:<8} {note}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def arrays(tensor: SparseTensor):
    return np.array(tensor.indices), np.array(tensor.values), tuple(tensor.shape)


def check_result(label, indices, values, shape, result, reference=None):
    failures = check_decomposition(
        label, indices, values, shape, result.decomposition.factors,
        result.decomposition.core, result.fit,
    )
    if reference is not None:
        failures += check_fit_matches(label, result.fit, reference)
    return failures


def timed_repeats(seconds: float, fn):
    """Call ``fn`` at least twice, then while the next call fits in ``seconds``."""
    out, spent = [], []
    begin = time.perf_counter()
    while len(out) < 2 or (
        time.perf_counter() - begin + median(spent) <= seconds
    ):
        t0 = time.perf_counter()
        out.append(fn())
        spent.append(time.perf_counter() - t0)
    return out


def exact_mismatch(first: Dict[str, float], second: Dict[str, float]) -> List[str]:
    return [
        f"exact count {k} differs across two runs at one seed: "
        f"{first[k]!r} vs {second[k]!r}"
        for k in layers.EXACT if first[k] != second[k]
    ]


def traced_layers(out: Outcome, untraced_s: float, reps: List[dict]) -> None:
    """Report per-layer metrics (median over traced repetitions) + overhead."""
    out.op(exact_mismatch(reps[0], reps[1]))
    traced_s = median(r["_wall_s"] for r in reps)
    for name, unit in layers.PER_LAYER.items():
        if name == "trace.overhead_pct":
            value = 100.0 * (traced_s - untraced_s) / untraced_s
        elif name in layers.EXACT:
            value = reps[0][name]
        else:
            value = median(r[name] for r in reps)
        out.put(name, value, unit)


# --------------------------------------------------------------------------- #
# Single-node and distributed decompose() workloads
# --------------------------------------------------------------------------- #
class _SetupDone(Exception):
    """Raised from ``cancel_check`` to stop a run right before its first sweep."""


def single_node_setup(indices, values, shape, rank) -> float:
    """Tensor construction plus ``decompose()`` up to the first sweep.

    The engine calls ``cancel_check`` first at the start of sweep 0, after
    factor init, symbolic preparation and the tensor norm; raising there
    stops the run, so set-up can be repeated without paying for sweeps.
    """
    t0 = time.perf_counter()
    tensor = SparseTensor(indices, values, shape)
    marks = []

    def stop():
        marks.append(time.perf_counter())
        raise _SetupDone

    try:
        decompose(tensor, rank, cancel_check=stop, **SWEEPS)
    except _SetupDone:
        pass
    return marks[0] - t0


@dataclass
class Run:
    """One timed ``decompose()`` call and where its time went."""

    result: object
    presweep_s: float              # call to first progress callback, minus sweep_s
    decompose_s: float
    sweeps: List[float]


def untraced(_name: str, fn, *args, **kwargs):
    """Stand-in for :meth:`Tracer.span` outside traced runs."""
    return fn(*args, **kwargs)


def build_input(indices, values, shape, rank, parts, span=untraced):
    """The set-up before ``decompose()``: the tensor, and for distributed
    runs the fine-hp partition."""
    tensor = span("core.tensor_build", SparseTensor, indices, values, shape)
    if parts is None:
        return tensor, {}
    partition = make_partition(tensor, parts, "fine-hp", ranks=[rank] * len(shape))
    return tensor, {"execution": "distributed", "partition": partition}


def run_decompose(tensor, rank, kwargs, span=untraced) -> Run:
    stamps: List[float] = []
    t0 = time.perf_counter()
    result = span("engine.decompose", decompose, tensor, rank,
                  callback=lambda _i, _f: stamps.append(time.perf_counter()),
                  **SWEEPS, **kwargs)
    wall = time.perf_counter() - t0
    sweeps = list(np.diff(stamps))
    return Run(result, stamps[0] - t0 - median(sweeps), wall, sweeps)


def decompose_workload(seed: int, seconds: int, trace, *, distributed: bool):
    if distributed:
        # The four simulated ranks are threads of this process.  Spread over
        # two vCPUs, their hand-offs timed the scheduler: consecutive calls
        # differed by up to 30% on a quiet host, against 5% on one CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        spec = DELICIOUS
        tensor = make_dataset(spec["name"], scale=spec["scale"], seed=seed)
        parts = spec["parts"]
    else:
        spec = POWERLAW
        tensor = power_law_sparse_tensor(
            spec["shape"], spec["nnz"], exponents=spec["exponents"], seed=seed
        )
        parts = None
    rank = spec["rank"]
    indices, values, shape = arrays(tensor)
    out = Outcome()
    out.report.append(f"input: shape {shape}, nnz {len(values)}, rank {rank}")

    # The sequential coo × per-mode oracle, once per seed, untimed.
    oracle = decompose(tensor, rank, execution="sequential", tensor_format="coo",
                       ttmc_strategy="per-mode", **SWEEPS)
    out.op(check_result("oracle", indices, values, shape, oracle))

    def checked(run: Run) -> Run:
        out.op(check_result("decompose", indices, values, shape, run.result,
                            oracle.fit))
        return run

    if trace:
        built, kwargs = build_input(indices, values, shape, rank, parts)
        base = checked(run_decompose(built, rank, kwargs))
        reps = []
        for i in range(2):
            tracer = Tracer()
            tracer.run_id = f"rep{i}"
            layers.install(tracer)
            try:
                built, kwargs = build_input(indices, values, shape, rank, parts,
                                            tracer.span)
                run = checked(run_decompose(built, rank, kwargs, tracer.span))
            finally:
                tracer.uninstall()
            tracer.dump(f"{trace}/spans-rep{i}.json")
            m = layers.layer_metrics(tracer.spans)
            m["_wall_s"] = run.decompose_s
            m["engine.sweep_s"] = median(run.sweeps)
            add_distributed_counts(m, run.result)
            reps.append(m)
        traced_layers(out, base.decompose_s, reps)
        return out

    if distributed:
        # Partitioning costs seconds, so it repeats twice; every timed call
        # below decomposes with the last partition built.
        builds = []
        for _ in range(2):
            t0 = time.perf_counter()
            built, kwargs = build_input(indices, values, shape, rank, parts)
            builds.append(time.perf_counter() - t0)
        runs = timed_repeats(seconds, lambda: checked(
            run_decompose(built, rank, kwargs)))
        setup = median(builds) + median(r.presweep_s for r in runs)
        setup_note = "median tensor+partition build of 2, plus median pre-sweep"
    else:
        setups: List[float] = []

        def setup_group():
            setups.extend(single_node_setup(indices, values, shape, rank)
                          for _ in range(SETUP_GROUP))

        def timed_call():
            run = checked(run_decompose(SparseTensor(indices, values, shape),
                                        rank, {}))
            setup_group()
            return run

        setup_group()
        runs = timed_repeats(seconds, timed_call)
        setup = median(setups)
        setup_note = f"median of {len(setups)}, before and between calls"
    walls = [r.decompose_s for r in runs]
    n = len(runs)
    out.put("setup_s", setup, "s", setup_note)
    out.put("job_p50_ms", 1e3 * median(walls), "ms",
            f"decompose() wall time, median of {n}")
    out.put("jobs_per_s", n / sum(walls), "1/s", f"{n} decompose() calls")
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    out.report.append(f"decompose_s {median(walls):.6g} s (median of {n}); "
                      f"sweep_s {median(sum((r.sweeps for r in runs), [])):.6g} s")
    out.report.append(
        f"all-zero factor columns (rank beyond the data's span): "
        f"{zero_columns(runs[0].result.decomposition.factors)}")
    if distributed:
        sim = runs[0].result.simulated_time_per_iteration
        out.report.append(f"sim_iter_s {sim:.6g} s (simulated, deterministic)")
    return out


def add_distributed_counts(m: Dict[str, float], result) -> None:
    ranks = getattr(result, "rank_results", None)
    if not ranks:
        return
    stats = [r.comm_stats for r in ranks]
    m["simmpi.bytes"] = sum(
        s["bytes_sent"] + s["bytes_received"] + s["collective_bytes"] for s in stats
    )
    m["simmpi.messages"] = sum(
        s["messages_sent"] + s["collective_calls"] for s in stats
    )
    m["simmpi.sim_iter_s"] = result.simulated_time_per_iteration


# --------------------------------------------------------------------------- #
# serving-mixed: a closed loop of two clients against one service
# --------------------------------------------------------------------------- #
@dataclass
class Op:
    kind: str                      # fresh | gram | resubmit | delta
    tensor: Optional[SparseTensor] = None
    rank: int = 0
    options: dict = field(default_factory=dict)
    target: int = -1               # index of an earlier fresh op (same list)
    batch: Optional[DeltaBatch] = None


def client_ops(rng, count: int) -> List[Op]:
    """One client's op list, with exact shares of each kind.

    Only the order and the inputs come from ``rng``.  Targets are this
    list's own earlier fresh jobs: a client waits for each job, so a
    resubmission always finds its original finished (a cache hit) and a
    delta always finds its base's factors (a warm start), and both counts
    are exact for a seed.
    """
    s = SERVING
    n_resubmit = round(s["resubmit"] * count)
    n_delta = round(s["delta"] * count)
    grams = s["gram_jobs"]
    rest = (["resubmit"] * n_resubmit + ["delta"] * n_delta
            + ["fresh"] * (count - grams - n_resubmit - n_delta - 1))
    kinds = ["fresh"] + list(rng.permutation(rest))
    for g in range(1, grams + 1):
        kinds.insert(g * count // (grams + 1), "gram")
    ops: List[Op] = []
    fresh: List[int] = []
    for j, kind in enumerate(kinds):
        sub_seed = int(rng.integers(2**31))
        if kind == "gram":
            ops.append(Op("gram", power_law_sparse_tensor(
                s["gram_shape"], s["gram_nnz"], exponents=0.7, seed=sub_seed),
                s["gram_rank"], {"trsvd_method": "gram"}))
        elif kind == "resubmit":
            ops.append(Op("resubmit", target=int(rng.choice(fresh[-8:]))))
        elif kind == "delta":
            delta_rng = np.random.default_rng(sub_seed)
            idx = np.column_stack([
                delta_rng.integers(0, n, s["delta_nnz"]) for n in s["small_shape"]
            ])
            ops.append(Op("delta", target=int(rng.choice(fresh[-8:])),
                          batch=DeltaBatch(idx, delta_rng.standard_normal(
                              s["delta_nnz"]))))
        else:
            fresh.append(j)
            ops.append(Op("fresh", random_sparse_tensor(
                s["small_shape"], s["small_nnz"], seed=sub_seed), s["small_rank"]))
    return ops


def serving_schedule(seed: int, seconds: int) -> List[List[Op]]:
    """One op list per client; the length scales with ``seconds``."""
    s = SERVING
    rng = np.random.default_rng(seed)
    per_client = max(s["jobs_per_second"] * seconds, 120) // s["clients"]
    return [client_ops(rng, per_client) for _ in range(s["clients"])]


@dataclass
class Record:
    key: tuple                     # (client, index)
    op: Op
    handle: object = None
    result: object = None
    latency: float = 0.0
    error: str = ""


@dataclass(repr=False)
class Loop:
    """One pass over the schedule on one service.

    No generated ``repr``: when ``asyncio.run`` restores the SIGINT handler
    it formats its main task, result included, and a repr of every record's
    arrays took ten seconds after each pass.
    """

    records: List[Record]
    wall: float
    metrics: dict
    start_s: float
    leaks: List[str]


def shm_segments() -> set:
    return set(cleanup_orphans(max_age_seconds=0, dry_run=True))


def leak_failures(before: set) -> List[str]:
    failures = []
    children = multiprocessing.active_children()
    if children:
        failures.append(f"{len(children)} worker process(es) outlived the service")
    leaked = shm_segments() - before
    if leaked:
        failures.append(f"{len(leaked)} /dev/shm segment(s) outlived the service")
    return failures


async def serve(schedule, tracer: Optional[Tracer]) -> Loop:
    """Run the closed loop once on a new service, then close it."""
    before = shm_segments()
    service = DecompositionService(num_workers=SERVING["workers"])
    t0 = time.perf_counter()
    await service.start()
    start_s = time.perf_counter() - t0
    records: List[Record] = []

    async def admit(coro):
        return await (tracer.aspan("serving.admission", coro) if tracer else coro)

    async def client(c: int, ops: List[Op]):
        handles: Dict[int, object] = {}
        for j, op in enumerate(ops):
            rec = Record((c, j), op)
            t = time.perf_counter()
            try:
                if op.kind == "delta":
                    handle = await admit(service.submit_delta(handles[op.target], op.batch))
                else:
                    src = ops[op.target] if op.kind == "resubmit" else op
                    handle = await admit(service.submit(
                        src.tensor, src.rank, execution="process",
                        **SWEEPS, **src.options))
                rec.result = await handle.result()
                rec.latency = time.perf_counter() - t
                rec.handle = handles[j] = handle
            except Exception as exc:  # a refused or failed job is an error
                rec.error = f"{op.kind} job {rec.key}: {type(exc).__name__}: {exc}"
            records.append(rec)

    try:
        t = time.perf_counter()
        await asyncio.gather(*(client(c, ops) for c, ops in enumerate(schedule)))
        wall = time.perf_counter() - t
        metrics = service.metrics()
    finally:
        await service.aclose()
    return Loop(records, wall, metrics, start_s, leak_failures(before))


class References:
    """Direct ``decompose()`` fits per request, computed once per run."""

    def __init__(self):
        self.fits: Dict[tuple, float] = {}

    def fresh(self, rec: Record) -> float:
        if rec.key not in self.fits:
            op = rec.op
            self.fits[rec.key] = decompose(op.tensor, op.rank, **SWEEPS,
                                           **op.options).fit
        return self.fits[rec.key]

    def delta(self, rec: Record, base: Record) -> float:
        if rec.key not in self.fits:
            merged = apply_delta(base.op.tensor, rec.op.batch)
            self.fits[rec.key] = decompose(
                merged, base.op.rank, **SWEEPS,
                resume_factors=base.result.decomposition.factors,
            ).fit
        return self.fits[rec.key]


def check_record(rec: Record, by_key: Dict[tuple, Record], refs: References):
    if rec.error:
        return [rec.error]
    label = f"{rec.op.kind} job {rec.key}"
    op = rec.op
    target = by_key.get((rec.key[0], op.target))
    if target is not None and target.error:
        return [f"{label}: its target job failed"]
    if op.kind == "resubmit":
        mine, theirs = rec.result, target.result
        same = mine.fit == theirs.fit and all(
            np.array_equal(a, b) for a, b in zip(
                [mine.decomposition.core, *mine.decomposition.factors],
                [theirs.decomposition.core, *theirs.decomposition.factors]))
        failures = [] if rec.handle.cached else [f"{label}: not a cache hit"]
        return failures + ([] if same else [f"{label}: cached values differ"])
    if op.kind == "delta":
        base = target.op.tensor
        indices = np.vstack([base.indices, op.batch.indices])
        values = np.concatenate([base.values, op.batch.values])
        return check_result(label, indices, values, base.shape, rec.result,
                            refs.delta(rec, target))
    t = op.tensor
    return check_result(label, np.array(t.indices), np.array(t.values), t.shape,
                        rec.result, refs.fresh(rec))


def check_loop(out: Outcome, loop: Loop, refs: References) -> None:
    by_key = {r.key: r for r in loop.records}
    for rec in sorted(loop.records, key=lambda r: r.key):
        out.op(check_record(rec, by_key, refs))
    out.op(loop.leaks)


async def serving_setup() -> tuple:
    before = shm_segments()
    service = DecompositionService(num_workers=SERVING["workers"])
    t0 = time.perf_counter()
    await service.start()
    elapsed = time.perf_counter() - t0
    await service.aclose()
    return elapsed, leak_failures(before)


def serving_workload(seed: int, seconds: int, trace):
    schedule = serving_schedule(seed, seconds)
    refs = References()
    out = Outcome()
    counts = {k: sum(op.kind == k for ops in schedule for op in ops)
              for k in ("fresh", "gram", "resubmit", "delta")}
    out.report.append(f"schedule: {len(schedule)} closed-loop clients, {counts}")

    if trace:
        base = asyncio.run(serve(schedule, None))
        check_loop(out, base, refs)
        reps = []
        for i in range(2):
            tracer = Tracer()
            tracer.run_id = f"rep{i}"
            layers.install(tracer)
            try:
                loop = asyncio.run(serve(schedule, tracer))
            finally:
                tracer.uninstall()
            tracer.dump(f"{trace}/spans-rep{i}.json")
            check_loop(out, loop, refs)
            m = layers.layer_metrics(tracer.spans)
            m["_wall_s"] = loop.wall
            cache = loop.metrics["cache"]
            m["serving.cache_hit_ratio"] = cache["hits"] / (cache["hits"] + cache["misses"])
            m["streaming.warm_started"] = loop.metrics["jobs"]["warm_started"]
            m["parallel.pool_generations"] = loop.metrics["pool"]["generations"]
            tail = tail_percentile([r.latency for r in loop.records if not r.error])
            m["serving.job_p90_ms"] = 1e3 * tail[1] if tail else 0.0
            reps.append(m)
        traced_layers(out, base.wall, reps)
        return out

    setups = []

    def setup_group():
        for _ in range(SETUP_GROUP):
            elapsed, leaks = asyncio.run(serving_setup())
            setups.append(elapsed)
            out.op(leaks)

    setup_group()
    loop = asyncio.run(serve(schedule, None))
    setups.append(loop.start_s)
    setup_group()
    check_loop(out, loop, refs)
    setup_group()
    latencies = [r.latency for r in loop.records if not r.error]
    out.put("setup_s", median(setups), "s",
            f"start() until ready, median of {len(setups)}")
    out.put("job_p50_ms", 1e3 * median(latencies), "ms",
            f"submit to awaited result, median of {len(latencies)}")
    out.put("jobs_per_s", len(latencies) / loop.wall, "1/s",
            f"{len(latencies)} jobs in {loop.wall:.3f} s")
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    tail = tail_percentile(latencies)
    if tail:
        out.report.append(f"job_p{tail[0]}_ms {1e3 * tail[1]:.6g} ms (n={tail[2]})")
    cache = loop.metrics["cache"]
    out.report.append(
        f"cache hits {cache['hits']} of {cache['hits'] + cache['misses']} lookups; "
        f"warm starts {loop.metrics['jobs']['warm_started']}; "
        f"pool generations {loop.metrics['pool']['generations']}"
    )
    return out


WORKLOADS = {
    "powerlaw-default": lambda seed, seconds, trace: decompose_workload(
        seed, seconds, trace, distributed=False),
    "delicious-fine-hp": lambda seed, seconds, trace: decompose_workload(
        seed, seconds, trace, distributed=True),
    "serving-mixed": serving_workload,
}
