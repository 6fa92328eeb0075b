"""Persistent multiprocess worker pool for true-multicore HOOI.

The thread executor decomposes the TTMc exactly as the paper's Algorithm 3,
but CPython's GIL serializes the hot gather / ``batch_kron_rows`` /
``np.add.reduceat`` work, so threads measure *decomposition*, not speedup.
This module is the process executor of the three TTMc plans
(:mod:`repro.engine.backend`): the same row-disjoint chunks, run on worker
*processes* over zero-copy shared memory.

* All big operands live in a :class:`~repro.parallel.shm.ShmArena` — the
  plan's operands (the COO tensor plus every mode's symbolic update lists,
  the CSF trees' per-level ``fids``/``fptr`` arrays, or the dimension
  tree's fiber groupings), the factor matrices, and the ``Y_(n)`` output
  buffers (or tree-node payloads).  Workers attach views once per
  generation and reuse them across every mode and iteration.
* Numeric work is dispatched as tiny ``(task_id, job, item, start, stop)``
  descriptors over the same static/dynamic/guided
  :func:`~repro.parallel.parallel_for.make_chunks` schedules the thread
  executor uses.  Each job's program on the worker knows its plan's chunk
  body, and each chunk writes a row-disjoint slice of the shared output —
  no locks, and no result pickling.
* Factor refreshes are *broadcast by memory*: after each TRSVD the driver
  writes the new ``U_n`` into its shared segment (:meth:`write_factor`); the
  queue hand-off of the next task batch orders the write before any read, so
  workers always compute with current factors.  For the dimension tree the
  driver's version counters decide which nodes went stale; workers stay
  stateless and simply execute the edge chunks they are handed.

Workers have one lifecycle, :class:`PersistentWorkerCrew`.  A pool either
borrows a caller's crew (serving: attach on construction, detach on close)
or spawns a private crew and closes it with the pool (a one-shot run,
closed by the engine's ``finalize`` hook).  :meth:`HOOIProcessPool.close`
is idempotent and crash-safe — the arena unlinks its segments even on
abnormal teardown.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp

import numpy as np

from repro.core.kron import kron_row_length
from repro.core.sparse_tensor import SparseTensor
from repro.core.subset_ttmc import FiberGrouping, edge_update_groups, subset_widths
from repro.core.symbolic import ModeSymbolic
from repro.parallel.parallel_for import make_chunks
from repro.parallel.shared_ttmc import ttmc_row_chunk
from repro.parallel.shm import ShmArena, ShmView
from repro.resilience.faults import maybe_fail
from repro.sparse.csf import CSFTensor
from repro.sparse.csf_ttmc import csf_slab_chunk

__all__ = [
    "ProcessConfig",
    "WorkerCrashError",
    "HOOIProcessPool",
    "PersistentWorkerCrew",
    "BatchJobSpec",
    "default_start_method",
]

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "REPRO_PROCESS_START_METHOD"


def default_start_method() -> str:
    """``fork`` where available (cheap startup), else ``spawn``.

    Overridable via ``REPRO_PROCESS_START_METHOD`` for debugging — ``spawn``
    gives workers a pristine interpreter at the cost of re-importing NumPy.
    """
    override = os.environ.get(START_METHOD_ENV)
    if override:
        return override
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class ProcessConfig:
    """Configuration of the process pool (mirrors :class:`ParallelConfig`)."""

    num_workers: int = 1
    schedule: str = "dynamic"
    chunk_size: Optional[int] = None
    start_method: Optional[str] = None
    startup_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.schedule not in ("static", "dynamic", "guided"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 when given")


class WorkerCrashError(RuntimeError):
    """A worker process died while (or before) executing dispatched work."""


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
class _JobProgram:
    """One job's views of the shared operands and the chunk body they feed.

    ``prefix`` namespaces the job's segments inside a batched arena (empty
    for the unkeyed job of a one-job pool).  The body is the plan's own
    row-disjoint chunk function — :func:`~repro.parallel.shared_ttmc.ttmc_row_chunk`
    over COO update lists, :func:`~repro.sparse.csf_ttmc.csf_slab_chunk`
    over rooted CSF trees, or :func:`~repro.core.subset_ttmc.edge_update_groups`
    over dimension-tree edges — so :meth:`run` executes exactly what a
    thread team runs for the same ``(item, start, stop)`` chunk.
    """

    def __init__(self, view: ShmView, meta: dict, prefix: str) -> None:
        shape = tuple(meta["shape"])
        order = len(shape)
        block_nnz = meta["block_nnz"]
        # Workers JIT-compile lazily on first task (numba's cache=True makes
        # every worker after the first a disk-cache hit).
        kernel = meta.get("kernel", "numpy")
        factors = [view[f"{prefix}factor{n}"] for n in range(order)]
        strategy = meta["strategy"]
        if strategy == "per-mode":
            tensor = SparseTensor(
                view[f"{prefix}indices"], view[f"{prefix}values"], shape,
                copy=False,
            )
            symbolic = {
                n: ModeSymbolic(
                    mode=n,
                    rows=view[f"{prefix}sym-rows{n}"],
                    perm=view[f"{prefix}sym-perm{n}"],
                    rowptr=view[f"{prefix}sym-rowptr{n}"],
                )
                for n in range(order)
            }

            def run(mode: int, start: int, stop: int) -> None:
                ttmc_row_chunk(
                    tensor, factors, mode, symbolic[mode],
                    view[f"{prefix}out{mode}"], start, stop,
                    block_nnz=block_nnz, kernel=kernel,
                )
        elif strategy == "csf":
            # One rooted tree per mode, rebuilt over zero-copy views of the
            # driver's serialized level arrays — no re-sort on attach.
            trees = {
                n: CSFTensor.from_arrays(
                    shape,
                    mode_order,
                    [view[f"{prefix}csf{n}-fids{lvl}"] for lvl in range(order)],
                    [view[f"{prefix}csf{n}-fptr{lvl}"] for lvl in range(order - 1)],
                    view[f"{prefix}csf{n}-values"],
                )
                for n, mode_order in enumerate(meta["csf"])
            }

            def run(mode: int, start: int, stop: int) -> None:
                csf_slab_chunk(
                    trees[mode], factors, view[f"{prefix}out{mode}"],
                    start, stop, kernel=kernel,
                )
        else:
            edges = {e["node"]: e for e in meta["edges"]}
            groupings = {
                nid: FiberGrouping(
                    indices=view[f"grp-idx{nid}"],
                    perm=view[f"grp-perm{nid}"],
                    segptr=view[f"grp-segptr{nid}"],
                    contiguous=edge["contiguous"],
                )
                for nid, edge in edges.items()
            }
            index_cols = {meta["root_id"]: view["indices"]}
            index_cols.update({nid: g.indices for nid, g in groupings.items()})

            def run(node_id: int, start: int, stop: int) -> None:
                edge = edges[node_id]
                edge_update_groups(
                    groupings[node_id], start, stop,
                    view[f"payload{edge['parent']}"],
                    index_cols[edge["parent"]],
                    edge["sibling_cols"],
                    [factors[m] for m in edge["sibling_modes"]],
                    edge["lo_width"], edge["hi_width"],
                    view[f"payload{node_id}"][start:stop],
                    block_nnz=block_nnz,
                )
        self.run = run


def _generation_loop(worker_id: int, programs: dict, task_q, done_q) -> None:
    """Serve ``(task_id, job, item, start, stop)`` chunks for one generation.

    ``programs`` maps each job key (``None`` for the unkeyed job of a
    one-job pool) to its :class:`_JobProgram`.  Returns when the detach
    sentinel ``None`` arrives.
    """
    while True:
        task = task_q.get()
        if task is None:
            return
        task_id, job, item, start, stop = task
        try:
            programs[job].run(item, start, stop)
            error = None
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
        # Fault point "worker.ack": firing here (action="exit") kills the
        # worker after it did the work but before the driver hears back —
        # the scripted equivalent of a mid-task SIGKILL.
        maybe_fail("worker.ack")
        done_q.put((task_id, worker_id, error))


def _worker_main(worker_id: int, task_q, done_q, ctrl_q) -> None:
    """Crew worker entry point.

    The process is long-lived: it blocks on its private control queue for
    ``("__attach__", specs, meta)`` commands, serves the generation until
    the shared work queue delivers the detach sentinel, acks
    ``"__detached__"``, and loops — amortizing process spawn and
    interpreter/NumPy import across every generation it serves.
    """
    while True:
        command = ctrl_q.get()
        if command is None or command[0] == "__stop__":
            return
        if command[0] != "__attach__":  # pragma: no cover - defensive
            continue
        _, specs, meta = command
        view = None
        try:
            view = ShmView(specs)
            programs = {
                job["job"]: _JobProgram(view, job, _prefix(job["job"]))
                for job in meta["jobs"]
            }
        except BaseException as exc:
            if view is not None:
                view.close()
            done_q.put(("__ready__", worker_id, f"{type(exc).__name__}: {exc}"))
            continue
        done_q.put(("__ready__", worker_id, None))
        try:
            _generation_loop(worker_id, programs, task_q, done_q)
        finally:
            view.close()
        done_q.put(("__detached__", worker_id, None))


# --------------------------------------------------------------------------- #
# Driver side
# --------------------------------------------------------------------------- #
def _prefix(job: Optional[str]) -> str:
    """Arena namespace of a job key (``None`` is the unprefixed job)."""
    return "" if job is None else f"{job}:"


def _resolve_config(config, crew) -> ProcessConfig:
    """The pool config, defaulted (and size-checked later) against a crew."""
    if config is not None:
        return config
    if crew is not None:
        return ProcessConfig(num_workers=crew.num_workers)
    return ProcessConfig()


def _validate_per_mode_ranks(tensor, ranks: Sequence[int]) -> List[int]:
    """Widths of every mode's ``Y_(n)``, rejecting shrinking TRSVD ranks."""
    order = tensor.order
    widths = [
        kron_row_length([ranks[t] for t in range(order) if t != n])
        for n in range(order)
    ]
    for n in range(order):
        if ranks[n] > min(tensor.shape[n], widths[n]):
            raise ValueError(
                f"rank {ranks[n]} of mode {n} exceeds min(I_n, W_n) = "
                f"{min(tensor.shape[n], widths[n])}; the TRSVD would "
                "return fewer columns and the process backend needs "
                "fixed factor shapes"
            )
    return widths


def _put_job(arena: ShmArena, spec: "BatchJobSpec", dtype) -> Tuple[dict, Dict]:
    """Place one batch member's operands into the arena.

    Returns the member's meta (what :class:`_JobProgram` reads back) and
    its chunkable item counts keyed ``(job, mode)``: ``|J_n|`` rows for a
    COO member, root fibers for a CSF member.
    """
    tensor, prefix = spec.tensor, _prefix(spec.job)
    ranks = [int(r) for r in spec.ranks]
    widths = _validate_per_mode_ranks(tensor, ranks)
    meta = {
        "job": spec.job,
        "shape": tuple(int(s) for s in tensor.shape),
        "block_nnz": spec.block_nnz,
        "kernel": spec.kernel,
    }
    items: Dict = {}
    if spec.trees is not None:
        meta["strategy"], meta["csf"] = "csf", []
        for n in range(tensor.order):
            csf = spec.trees.tree_for(n)
            if csf.level_of(n) != 0:
                raise ValueError(
                    f"the process pool needs a tree rooted at its target "
                    f"mode, but mode {n}'s tree is rooted at mode "
                    f"{csf.mode_order[0]}; build the set with "
                    "CSFTensorSet.per_mode"
                )
            for lvl in range(tensor.order):
                arena.put(f"{prefix}csf{n}-fids{lvl}", csf.fids[lvl])
            for lvl in range(tensor.order - 1):
                arena.put(f"{prefix}csf{n}-fptr{lvl}", csf.fptr[lvl])
            arena.put(f"{prefix}csf{n}-values", np.asarray(csf.values, dtype=dtype))
            meta["csf"].append(tuple(int(m) for m in csf.mode_order))
            items[(spec.job, n)] = csf.num_fibers(0)
    else:
        meta["strategy"] = "per-mode"
        arena.put(f"{prefix}indices", tensor.indices)
        arena.put(f"{prefix}values", np.asarray(tensor.values, dtype=dtype))
        for n in range(tensor.order):
            sym = spec.symbolic[n]
            arena.put(f"{prefix}sym-rows{n}", sym.rows)
            arena.put(f"{prefix}sym-perm{n}", sym.perm)
            arena.put(f"{prefix}sym-rowptr{n}", sym.rowptr)
            items[(spec.job, n)] = sym.num_rows
    for n in range(tensor.order):
        arena.zeros(f"{prefix}out{n}", (tensor.shape[n], widths[n]), dtype)
        arena.put(f"{prefix}factor{n}", np.asarray(spec.factors[n], dtype=dtype))
    return meta, items


class PersistentWorkerCrew:
    """Long-lived worker processes serving many pool generations.

    The crew is the only worker lifecycle.  A :class:`HOOIProcessPool`
    built with ``crew=`` *borrows* it: the pool attaches the workers to its
    shared arena (one ``("__attach__", specs, meta)`` command per worker
    over its private control queue) and *detaches* them on close (the
    shared-queue sentinel trick: one ``None`` per worker — a worker that
    took one is back on its control queue and cannot take a second),
    leaving the processes alive for the next generation — the serving
    lifecycle, where process spawn + NumPy import costs would otherwise
    dominate small jobs.  A pool built without ``crew=`` spawns a private
    crew for its one generation and closes it with the pool — the one-shot
    ``hooi(...)`` lifecycle.

    The crew is not usable concurrently: at most one generation may be
    attached at a time (the serving layer's admission batching exists to
    pack many small jobs into one generation rather than to multiplex
    generations).  A crew whose worker died — or that timed out detaching —
    is *broken*: :attr:`alive` turns false and the owner is expected to
    :meth:`close` it and build a fresh one (the serving layer's
    crash-retry path).
    """

    def __init__(
        self,
        num_workers: int = 1,
        *,
        start_method: Optional[str] = None,
        startup_timeout: float = 120.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.startup_timeout = startup_timeout
        self.generations = 0
        self._closed = False
        self._broken = False
        ctx = mp.get_context(start_method or default_start_method())
        self.task_q = ctx.Queue()
        self.done_q = ctx.Queue()
        self.ctrl_qs = [ctx.Queue() for _ in range(num_workers)]
        self.workers: List[mp.process.BaseProcess] = []
        try:
            for worker_id in range(num_workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        worker_id, self.task_q, self.done_q,
                        self.ctrl_qs[worker_id],
                    ),
                    name=f"repro-crew-worker-{worker_id}",
                    daemon=True,
                )
                proc.start()
                self.workers.append(proc)
        except BaseException:
            self.close()
            raise

    @property
    def alive(self) -> bool:
        """Whether the crew can serve another generation."""
        return (
            not self._closed
            and not self._broken
            and all(w.is_alive() for w in self.workers)
        )

    def mark_broken(self) -> None:
        """Retire the crew (a worker died or a detach timed out)."""
        self._broken = True

    def attach(self, specs, meta: dict) -> None:
        """Broadcast a generation's attach command to every worker."""
        if not self.alive:
            raise WorkerCrashError(
                "the worker crew is closed, broken or has dead workers; "
                "build a fresh crew"
            )
        for ctrl_q in self.ctrl_qs:
            ctrl_q.put(("__attach__", specs, meta))
        self.generations += 1

    def close(self) -> None:
        """Stop and reap the worker processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for ctrl_q in self.ctrl_qs:
            try:
                ctrl_q.put(("__stop__",))
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
        # A worker mid-generation is blocked on the shared task queue, not
        # its control queue; feed it a detach sentinel so it can exit.
        for _ in self.workers:
            try:
                self.task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - defensive
                break
        for worker in self.workers:
            worker.join(timeout=2.0)
        for worker in self.workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
            if worker.is_alive():  # pragma: no cover - last resort
                worker.kill()
                worker.join(timeout=1.0)
        queues = [self.task_q, self.done_q, *self.ctrl_qs]
        for q in queues:
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass

    def __enter__(self) -> "PersistentWorkerCrew":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "closed" if self._closed
            else ("broken" if not self.alive else "live")
        )
        return (
            f"PersistentWorkerCrew(workers={self.num_workers}, "
            f"generations={self.generations}, {state})"
        )


@dataclass(frozen=True)
class BatchJobSpec:
    """One member of a batched pool generation.

    ``job`` is the key every pool call uses to address this member
    (``pool.ttmc(mode, job=...)``); it doubles as the arena namespace
    prefix, so it must be unique within the batch.  ``None`` is the
    unprefixed key of a one-job pool — the engine's own process executor
    packs its run that way.  ``tensor`` must already carry the job's value
    dtype (the engine's dtype policy is applied before the arena is built)
    and ``factors`` are the job's initial factor matrices.

    The member's layout follows its plan: ``trees`` (a
    :class:`~repro.sparse.csf.CSFTensorSet` built per-mode) packs the CSF
    level arrays for root-fiber-slab chunks; without it, the COO indices
    plus the ``symbolic`` per-mode update lists are packed for row chunks.
    Members of one batch can mix layouts.
    """

    job: Optional[str]
    tensor: object
    symbolic: Optional[Dict[int, ModeSymbolic]]
    factors: Sequence[np.ndarray]
    ranks: Sequence[int]
    block_nnz: Optional[int] = None
    kernel: str = "numpy"
    trees: object = None


class HOOIProcessPool:
    """Worker processes attached to one shared arena.

    Build one with :meth:`for_per_mode_batch` (one or more COO / CSF jobs —
    row chunks of ``J_n`` or root-fiber slabs — sharing one generation) or
    :meth:`for_dimtree` (fiber-parallel dimension-tree edge updates), drive
    it with :meth:`ttmc` / :meth:`dimtree_edge` / :meth:`write_factor`, and
    release it with :meth:`close` (or use it as a context manager).

    Workers always belong to a :class:`PersistentWorkerCrew`: a caller-owned
    one passed as ``crew=`` (attached on construction, detached — but kept
    alive — on close; the serving lifecycle) or a private one spawned here
    and closed with the pool (the one-shot ``hooi(...)`` lifecycle).  Every
    task is one ``(task_id, job, item, start, stop)`` tuple: ``item`` is a
    mode for :meth:`ttmc` and a tree node for :meth:`dimtree_edge`, and the
    job's program on the worker knows which chunk body to run.
    """

    def __init__(self, *, arena: ShmArena, meta: dict, items: Dict,
                 config: ProcessConfig,
                 crew: Optional[PersistentWorkerCrew] = None) -> None:
        self._arena = arena
        self._meta = meta
        self._items = items
        self.config = config
        self._owns_crew = crew is None
        self._closed = False
        self._broken = False
        self._detach_needed = False
        self._task_counter = 0
        self._crew = crew
        self.workers: List[mp.process.BaseProcess] = []
        try:
            if crew is None:
                self._crew = crew = PersistentWorkerCrew(
                    config.num_workers,
                    start_method=config.start_method,
                    startup_timeout=config.startup_timeout,
                )
            elif crew.num_workers != config.num_workers:
                raise ValueError(
                    f"the crew has {crew.num_workers} workers but the "
                    f"pool config asks for {config.num_workers}; size "
                    "the ProcessConfig from crew.num_workers"
                )
            self._task_q = crew.task_q
            self._done_q = crew.done_q
            self.workers = crew.workers
            crew.attach(arena.specs, meta)
            self._detach_needed = True
            try:
                self._wait_ready()
            except BaseException:
                # A partial attach leaves workers split between the control
                # and generation loops; a detach broadcast could poison a
                # later generation, so retire the crew instead.
                crew.mark_broken()
                self._detach_needed = False
                raise
        except BaseException:
            self.close()
            raise

    # -- constructors ---------------------------------------------------- #
    @classmethod
    def for_per_mode_batch(
        cls,
        specs: Sequence[BatchJobSpec],
        dtype=np.float64,
        *,
        config: Optional[ProcessConfig] = None,
        crew: Optional[PersistentWorkerCrew] = None,
    ) -> "HOOIProcessPool":
        """Pool packing one or more per-mode jobs into ONE generation.

        Every member's operands land in the same arena under its
        ``<job>:``-prefixed namespace and all workers attach them in a
        single ``__attach__`` cycle — a one-element call is the engine's
        own process executor, a many-element call on a ``crew`` is the
        admission batching the serving layer uses so a stream of small
        tensors costs one attach/detach per *batch* instead of one per job.
        Drive members independently with ``ttmc(mode, job=...)`` /
        ``write_factor(mode, U, job=...)``; the pool itself stays
        single-consumer (members run one at a time).

        ``dtype`` is the default value dtype; a member whose tensor already
        carries a (supported) different dtype keeps its own — members of one
        batch need not share a precision policy.  ``kernel`` (per member)
        selects the inner-loop tier each worker runs; it rides along in the
        metadata, so workers resolve their own dispatch table after
        attaching shared memory.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("a batch generation needs at least one job")
        keys = [spec.job for spec in specs]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate job keys in batch: {keys}")
        config = _resolve_config(config, crew)
        arena = ShmArena()
        try:
            jobs, items = [], {}
            for spec in specs:
                job_dtype = np.dtype(getattr(spec.tensor, "dtype", dtype))
                job_meta, job_items = _put_job(arena, spec, job_dtype)
                jobs.append(job_meta)
                items.update(job_items)
            return cls(
                arena=arena, meta={"jobs": jobs}, items=items,
                config=config, crew=crew,
            )
        except BaseException:
            arena.unlink()
            raise

    @classmethod
    def for_dimtree(
        cls,
        tree,
        tensor,
        factors: Sequence[np.ndarray],
        ranks: Sequence[int],
        dtype,
        *,
        config: Optional[ProcessConfig] = None,
        block_nnz: Optional[int] = None,
        crew: Optional[PersistentWorkerCrew] = None,
    ) -> "HOOIProcessPool":
        """Pool executing fiber-parallel dimension-tree edge updates.

        ``tree`` is a built :class:`~repro.engine.dimtree.DimensionTree`;
        its symbolic fiber groupings and every node payload are placed in
        shared memory, so the driver's tree and the workers operate on the
        same buffers (the driver keeps the version counters and decides
        *which* edges are stale; workers execute the chunks).  The root's
        index matrix and values are taken from the *tree* (not the raw
        tensor): a CSF-sourced tree's groupings reference the
        lexicographically sorted row order, and its contiguous groupings
        carry their flag into the workers so the sliced edge-update fast
        path applies there too.  For a COO-sourced tree those arrays are the
        tensor's own, so nothing changes.
        """
        config = _resolve_config(config, crew)
        dtype = np.dtype(dtype)
        ranks = [int(r) for r in ranks]
        _validate_per_mode_ranks(tensor, ranks)
        arena = ShmArena()
        try:
            arena.put("indices", np.ascontiguousarray(tree.root.index_cols))
            root_id = int(tree.root.node_id)
            arena.put(
                f"payload{root_id}",
                np.asarray(tree.root_values, dtype=dtype).reshape(-1, 1),
            )
            edges: List[dict] = []
            node_groups: Dict = {}
            for node in tree.nodes:
                if node is tree.root:
                    continue
                parent = node.parent
                lo_width, hi_width = subset_widths(ranks, parent.lo, parent.hi)
                sib_width = kron_row_length(
                    [ranks[m] for m in node.sibling_modes]
                )
                child_width = lo_width * hi_width * sib_width
                nid = int(node.node_id)
                arena.put(f"grp-idx{nid}", node.grouping.indices)
                arena.put(f"grp-perm{nid}", node.grouping.perm)
                arena.put(f"grp-segptr{nid}", node.grouping.segptr)
                arena.zeros(f"payload{nid}", (node.num_fibers, child_width), dtype)
                edges.append({
                    "node": nid,
                    "parent": int(parent.node_id),
                    "sibling_modes": tuple(int(m) for m in node.sibling_modes),
                    "sibling_cols": tuple(int(c) for c in node.sibling_cols),
                    "lo_width": int(lo_width),
                    "hi_width": int(hi_width),
                    "contiguous": bool(node.grouping.contiguous),
                })
                node_groups[(None, nid)] = node.num_fibers
            for n in range(tensor.order):
                arena.put(f"factor{n}", np.asarray(factors[n], dtype=dtype))
            meta = {
                "job": None,
                "strategy": "dimtree",
                "shape": tuple(int(s) for s in tensor.shape),
                "block_nnz": block_nnz,
                "root_id": root_id,
                "edges": edges,
            }
            return cls(
                arena=arena, meta={"jobs": [meta]}, items=node_groups,
                config=config, crew=crew,
            )
        except BaseException:
            arena.unlink()
            raise

    # -- dispatch -------------------------------------------------------- #
    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError("the process pool is closed")
        if self._broken:
            raise WorkerCrashError(
                "the process pool is broken (a worker died or a task failed); "
                "close() it and build a new pool"
            )
        dead = [w for w in self.workers if not w.is_alive()]
        if dead:
            self._broken = True
            raise WorkerCrashError(
                f"{len(dead)} worker process(es) died "
                f"(exit codes {[w.exitcode for w in dead]})"
            )

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + self.config.startup_timeout
        ready = 0
        while ready < len(self.workers):
            try:
                tag, worker_id, error = self._done_q.get(timeout=0.2)
            except queue_module.Empty:
                if any(not w.is_alive() for w in self.workers):
                    raise WorkerCrashError(
                        "a worker process died during startup"
                    ) from None
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        "worker processes did not report ready within "
                        f"{self.config.startup_timeout:.0f}s"
                    )
                continue
            if tag != "__ready__":  # pragma: no cover - defensive
                continue
            if error is not None:
                raise RuntimeError(
                    f"worker {worker_id} failed to attach shared memory: {error}"
                )
            ready += 1

    def _dispatch(self, tasks: List[Tuple]) -> None:
        """Enqueue a batch of chunk descriptors and wait for all acks."""
        self._check_usable()
        maybe_fail("pool.dispatch")
        pending = set()
        for task in tasks:
            task_id = self._task_counter
            self._task_counter += 1
            self._task_q.put((task_id, *task))
            pending.add(task_id)
        errors: List[str] = []
        while pending:
            try:
                task_id, _worker_id, error = self._done_q.get(timeout=0.2)
            except queue_module.Empty:
                if any(not w.is_alive() for w in self.workers):
                    self._broken = True
                    dead = [w for w in self.workers if not w.is_alive()]
                    raise WorkerCrashError(
                        f"{len(dead)} worker process(es) died mid-batch "
                        f"(exit codes {[w.exitcode for w in dead]})"
                    ) from None
                continue
            pending.discard(task_id)
            if error is not None:
                errors.append(error)
        if errors:
            self._broken = True
            raise RuntimeError(f"worker task failed: {errors[0]}")

    def _chunks(self, num_items: int):
        return make_chunks(
            num_items,
            self.config.num_workers,
            schedule=self.config.schedule,
            chunk_size=self.config.chunk_size,
        )

    # -- public operations ----------------------------------------------- #
    def _run(self, job: Optional[str], item: int) -> None:
        """Dispatch every chunk of one item (a mode or a tree node)."""
        self._check_usable()
        num_items = self._items[(job, item)]
        if num_items:
            self._dispatch(
                [(job, item, start, stop) for start, stop in self._chunks(num_items)]
            )

    def ttmc(self, mode: int, *, job: Optional[str] = None) -> np.ndarray:
        """Chunk-parallel ``Y_(mode)`` into (and returning) the shared buffer.

        ``job`` addresses one member of a batched generation
        (:meth:`for_per_mode_batch`); the unkeyed job omits it.  The chunks
        cover symbolic output rows for COO members and root-fiber slabs for
        CSF members — either way each chunk writes a disjoint row set.
        """
        self._run(job, mode)
        return self._arena[f"{_prefix(job)}out{mode}"]

    def dimtree_edge(self, node_id: int) -> np.ndarray:
        """Fiber-parallel refinement of one tree edge; returns the payload."""
        self._run(None, int(node_id))
        return self._arena[f"payload{int(node_id)}"]

    def write_factor(
        self, mode: int, array: np.ndarray, *, job: Optional[str] = None
    ) -> None:
        """Broadcast a refreshed factor by writing its shared segment.

        The write happens-before the next task dispatch (queue hand-off), so
        workers never read a half-updated factor.
        """
        if self._closed:
            raise RuntimeError("the process pool is closed")
        segment = self._arena[f"{_prefix(job)}factor{mode}"]
        array = np.asarray(array, dtype=segment.dtype)
        if array.shape != segment.shape:
            raise ValueError(
                f"factor for mode {mode} has shape {array.shape}, but the "
                f"shared segment is {segment.shape}: the process backend "
                "requires fixed factor shapes across iterations"
            )
        segment[...] = array

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """OS names of the arena's segments (for leak checks in tests)."""
        return self._arena.segment_names

    # -- lifecycle ------------------------------------------------------- #
    def _detach(self) -> None:
        """Detach the crew's workers from this arena (keep them alive).

        One ``None`` sentinel per worker ends the generation loop; each
        worker closes its views and acks ``"__detached__"``.  Waiting for
        every ack before unlinking the arena guarantees no worker still
        holds a mapping when the segments are destroyed — the no-leaked-
        ``/dev/shm`` property the service's teardown test pins down.  A
        dead or unresponsive worker makes a deterministic detach
        impossible, so the crew is retired instead (its own ``close`` reaps
        the processes).
        """
        crew = self._crew
        if not self._detach_needed:
            return
        self._detach_needed = False
        if any(not w.is_alive() for w in crew.workers):
            crew.mark_broken()
            return
        for _ in crew.workers:
            self._task_q.put(None)
        remaining = len(crew.workers)
        deadline = time.monotonic() + 10.0
        while remaining:
            try:
                tag, _worker_id, _error = self._done_q.get(timeout=0.2)
            except queue_module.Empty:
                if (
                    time.monotonic() > deadline
                    or any(not w.is_alive() for w in crew.workers)
                ):
                    crew.mark_broken()
                    return
                continue
            if tag == "__detached__":
                remaining -= 1
            # Anything else is a stale ack of a batch that died mid-flight;
            # drain and drop it so the next generation starts clean.

    def close(self) -> None:
        """End the generation and destroy the shared segments (idempotent).

        A borrowed crew is *detached* — the processes live on for the next
        generation; a private crew is closed, which reaps its workers.
        """
        if self._closed:
            self._arena.unlink()
            return
        self._closed = True
        try:
            if self._owns_crew:
                if self._crew is not None:
                    self._crew.close()
            else:
                self._detach()
        finally:
            self._arena.close()
            self._arena.unlink()

    def __enter__(self) -> "HOOIProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("broken" if self._broken else "live")
        return (
            f"HOOIProcessPool(workers={len(self.workers)}, "
            f"jobs={[j['job'] for j in self._meta['jobs']]!r}, {state})"
        )
