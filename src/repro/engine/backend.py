"""Execution backends for the unified HOOI engine: TTMc plans × executors.

The engine (:mod:`repro.engine.driver`) owns the *iteration state machine* —
init, symbolic reuse, the per-mode sweep, core formation, fit tracking and
convergence.  What varies between the sequential, shared-memory and
distributed drivers is only *how* the three heavy steps are executed:

* the numeric TTMc of a mode (``compute_ttmc``),
* the truncated SVD refreshing that mode's factor (``update_factor``),
* the core-tensor formation from the last mode's TTMc (``form_core``),

plus where the tensor norm comes from and how the initial factors are
produced.  :class:`ExecutionBackend` is that seam.  The engine calls the
hooks in a fixed order; backends may keep per-run state (symbolic data,
communicators, clocks) between calls.

Call order per run::

    prepare_tensor -> initial_factors -> prepare ->
    [ on_iteration_start ->
        ( on_mode_start -> compute_ttmc -> update_factor -> on_mode_end )*N ->
        form_core -> on_iteration_end ]* -> (fit/convergence in the engine)
    -> finalize   (always, success or failure)

The TTMc is the paper's one parallel idea (Algorithm 3): the output rows
are chunked and every chunk is written by exactly one worker, without
locks.  Each of the three *plans* here says what to compute — its
``prepare`` and its row-disjoint chunk body, defined once:

* :class:`COOPlan` — per-mode TTMc over COO update lists, chunks of ``J_n``;
* :class:`CSFPlan` — per-mode TTMc over CSF trees, root-fiber slabs;
* :class:`DimTreePlan` — memoized dimension-tree chains, edge fiber ranges.

Each takes one *executor* saying where the chunks run (see
:class:`ExecutionBackend`): inline, a thread team, or a worker-process pool
(owned, or a serving generation borrowed by job key).
:func:`resolve_ttmc_backend` looks both up from :class:`HOOIOptions`.  The
distributed per-rank backend lives in :mod:`repro.distributed.dist_hooi`
next to the plan/exchange machinery it drives, and the baselines provide
TTM-chain (MET) and dense (Gram) backends — all drivers share this one loop.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.hosvd import initialize_factors
from repro.core.sparse_tensor import SparseTensor
from repro.core.symbolic import ModeSymbolic, symbolic_ttmc
from repro.core.trsvd import TRSVDResult, truncated_svd
from repro.core.ttmc import ttmc_matricized
from repro.core.tucker import core_from_ttmc
from repro.core.kron import kron_row_length

__all__ = [
    "ExecutionBackend",
    "COOPlan",
    "CSFPlan",
    "DimTreePlan",
    "BorrowedPool",
    "ttmc_plan",
    "resolve_ttmc_backend",
    "engine_kernel",
    "trsvd_kwargs",
    "parallel_symbolic",
    "symbolic_row_positions",
    "gather_present_rows",
]


def gather_present_rows(
    sorted_rows: np.ndarray,
    payload: np.ndarray,
    wanted: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Gather ``payload`` rows for ``wanted`` global indices, zeroing absentees.

    ``sorted_rows`` maps payload row ``i`` to the global index it holds
    (sorted ascending, as every compact TTMc form produces); ``out[p]``
    receives ``payload[i]`` where ``sorted_rows[i] == wanted[p]``, and zeros
    when ``wanted[p]`` is absent — a global row with no local nonzeros
    contributes nothing.  This is the one membership-gather idiom shared by
    the compact row-block seams (dimension-tree leaves, CSF compact blocks);
    :func:`symbolic_row_positions` is its strict sibling that *raises* on
    absent rows instead.
    """
    if sorted_rows.shape[0] == 0:
        out[:] = 0
        return out
    positions = np.searchsorted(sorted_rows, wanted)
    clipped = np.minimum(positions, sorted_rows.shape[0] - 1)
    present = sorted_rows[clipped] == wanted
    out[present] = payload[positions[present]]
    if not present.all():
        out[~present] = 0
    return out


def engine_kernel(eng) -> str:
    """The engine's configured kernel tier (``"numpy"`` when unset).

    All backends route their numeric TTMc calls through this accessor, so
    the ``kernel`` axis composes with every execution model without any
    backend growing a constructor knob — validation already happened in
    :meth:`HOOIOptions.validate`.
    """
    return getattr(eng.options, "kernel", "numpy")


def trsvd_kwargs(options) -> dict:
    """Solver keyword arguments implied by :class:`HOOIOptions`.

    The Lanczos solver takes the tolerance and seed; the randomized
    (Halko-style) range finder is seeded for reproducibility; the dense and
    Gram baselines take no knobs.
    """
    if options.trsvd_method == "lanczos":
        return {"tol": options.trsvd_tol, "seed": options.seed}
    if options.trsvd_method == "randomized":
        return {"seed": options.seed}
    return {}


def symbolic_row_positions(symbolic: ModeSymbolic, rows: np.ndarray) -> np.ndarray:
    """Positions of global row indices inside a mode's sorted ``J_n``.

    ``rows`` must be sorted and every entry must be a non-empty row of the
    mode (the distributed plans guarantee it by intersecting with ``J_n``);
    a row outside ``J_n`` raises instead of silently mapping to a neighbour.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    positions = np.searchsorted(symbolic.rows, rows).astype(np.int64, copy=False)
    if symbolic.num_rows:
        clipped = np.minimum(positions, symbolic.num_rows - 1)
        valid = (positions < symbolic.num_rows) & (symbolic.rows[clipped] == rows)
    else:
        valid = np.zeros(rows.shape[0], dtype=bool)
    if not valid.all():
        missing = rows[~valid]
        raise ValueError(
            f"rows {missing[:5].tolist()} are not non-empty rows of mode "
            f"{symbolic.mode} (|J_n| = {symbolic.num_rows})"
        )
    return positions


def parallel_symbolic(tensor: SparseTensor, num_threads: int) -> Dict[int, ModeSymbolic]:
    """Build the symbolic data of every mode, one task per mode (parfor n)."""
    modes = list(range(tensor.order))
    if num_threads <= 1 or len(modes) == 1:
        return {mode: symbolic_ttmc(tensor, mode) for mode in modes}
    with ThreadPoolExecutor(max_workers=min(num_threads, len(modes))) as pool:
        futures = {mode: pool.submit(symbolic_ttmc, tensor, mode) for mode in modes}
        return {mode: fut.result() for mode, fut in futures.items()}


def _ttmc_width(eng, mode: int) -> int:
    """Column count ``∏_{t≠mode} R_t`` of the engine's ``Y_(mode)``."""
    return kron_row_length(
        [eng.factors[t].shape[1] for t in range(eng.order) if t != mode]
    )


@dataclass(frozen=True)
class BorrowedPool:
    """A pool generation lent to one member job — serving's batch executor.

    ``spec`` is the :class:`~repro.parallel.process_pool.BatchJobSpec` the
    generation packed for the job.  The backend replays its tensor, initial
    factors and plan operands into the engine, so the engine state matches
    what the workers attached; it addresses the pool by ``spec.job`` and
    never closes it — the generation outlives every member.
    """

    pool: object
    spec: object


class ExecutionBackend:
    """How one HOOI engine run executes its heavy steps.

    The base class holds what every backend shares — the dtype policy, the
    initial factors, the TRSVD factor update and the core GEMM — plus the
    executor plumbing of the three TTMc plans.  ``executor`` says where a
    plan's chunks run:

    * ``None`` — inline: each mode is one whole-mode kernel call;
    * a :class:`~repro.parallel.parallel_for.ParallelConfig` — a thread team;
    * a :class:`~repro.parallel.process_pool.ProcessConfig` — a process pool
      the backend owns (built in ``prepare``, closed in ``finalize``);
    * a :class:`BorrowedPool` — a serving generation addressed by job key.

    A team or pool of one worker is the inline executor.  After each TRSVD
    the refreshed factor is written to the pool's shared segment, if any.
    Backends outside the plan family (the distributed rank driver, the MET
    and dense baselines) override the hooks they execute differently.
    """

    name = "custom"
    executor = None
    pool = None
    job = None

    def __init__(self, executor=None) -> None:
        workers = getattr(executor, "num_threads", None) or getattr(
            executor, "num_workers", None
        )
        # The one place a team or pool of one worker resolves to inline.
        self.executor = None if workers == 1 else executor
        self.workers = workers or 1

    @property
    def team(self):
        """The thread team's :class:`ParallelConfig` (``None`` otherwise)."""
        return self.executor if hasattr(self.executor, "num_threads") else None

    def _lent(self):
        """The borrowed generation's spec for this job (``None`` otherwise)."""
        if isinstance(self.executor, BorrowedPool):
            return self.executor.spec
        return None

    # -- setup ----------------------------------------------------------- #
    def prepare_tensor(self, eng) -> None:
        """Apply the engine's dtype policy to the input tensor."""
        lent = self._lent()
        if lent is not None:
            # The dtype policy was applied when the arena was packed; hand
            # the engine the exact tensor the workers attached.
            eng.tensor = lent.tensor
        elif isinstance(eng.tensor, SparseTensor):
            eng.tensor = eng.tensor.astype(eng.dtype)

    def tensor_norm(self, eng) -> float:
        """Frobenius norm of the full input tensor."""
        return eng.tensor.norm()

    def initial_factors(self, eng) -> List[np.ndarray]:
        """Produce the initial factor matrices (cast to dtype by the engine)."""
        lent = self._lent()
        if lent is not None:
            return list(lent.factors)
        return initialize_factors(
            eng.tensor, eng.ranks, init=eng.options.init, seed=eng.options.seed
        )

    def prepare(self, eng) -> None:
        """Build per-run reusable state (symbolic data, trees, pools)."""

    def _open_pool(self, eng, **layout) -> None:
        """Join the executor's worker pool once the plan's operands exist.

        An owned pool packs the run as the one unkeyed job of a batch
        generation (``layout`` is the plan's arena layout: ``symbolic``
        update lists or CSF ``trees``); a borrowed one is addressed by the
        job key the batch runner packed it under.
        """
        from repro.parallel.process_pool import (
            BatchJobSpec,
            HOOIProcessPool,
            ProcessConfig,
        )

        if isinstance(self.executor, BorrowedPool):
            self.pool, self.job = self.executor.pool, self.executor.spec.job
        elif isinstance(self.executor, ProcessConfig):
            spec = BatchJobSpec(
                job=None,
                tensor=eng.tensor,
                factors=eng.factors,
                ranks=eng.ranks,
                block_nnz=eng.options.block_nnz,
                kernel=engine_kernel(eng),
                **layout,
            )
            self.pool = HOOIProcessPool.for_per_mode_batch(
                [spec], eng.dtype, config=self.executor
            )

    # -- the three heavy steps ------------------------------------------- #
    def _pooled_out(self, eng, mode: int) -> np.ndarray:
        """The pooled ``(I_n, ∏R_t)`` output buffer for this mode's TTMc.

        Buffers are keyed per mode and fully zeroed only on their first use
        in a run; afterwards the numeric kernels clear (or overwrite) just
        the ``|J_n|`` touched rows, so steady-state sweeps never memset the
        full ``I_n × W`` matrix — measurable on hypersparse modes.  The
        per-run set of primed buffers lives on the engine
        (``eng._primed_ttmc_out``), which :meth:`HOOIEngine.run` resets.
        """
        buffer = eng.workspace.take(
            (eng.tensor.shape[mode], _ttmc_width(eng, mode)), eng.dtype,
            tag=f"ttmc-out-{mode}",
        )
        primed = getattr(eng, "_primed_ttmc_out", None)
        if primed is None:
            primed = eng._primed_ttmc_out = set()
        key = (mode, buffer.shape, buffer.dtype)
        if key not in primed:
            buffer[...] = 0
            primed.add(key)
        return buffer

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        """Numeric TTMc of ``mode`` as a full ``(I_n, ∏R_t)`` matrix."""
        raise NotImplementedError

    def compute_ttmc_rows(self, eng, mode: int, rows: np.ndarray) -> np.ndarray:
        """Compact TTMc block: ``Y_(mode)`` restricted to the given rows.

        ``rows`` is a sorted array of global mode-``mode`` indices; the
        result has shape ``(len(rows), ∏_{t≠mode} R_t)`` with row ``p``
        holding ``Y_(mode)(rows[p], :)`` (zero for a row without local
        nonzeros).  This is the rank-scoped seam the distributed driver
        composes with: each simulated MPI rank computes only its owned/local
        rows through whatever plan and executor the options select, reusing
        the backend over the rank's local tensor.
        """
        raise NotImplementedError

    def update_factor(
        self, eng, mode: int, y_mat: np.ndarray
    ) -> Tuple[np.ndarray, Optional[TRSVDResult]]:
        """Refresh ``U_mode`` from ``Y_(mode)`` via the configured TRSVD."""
        result = truncated_svd(
            y_mat,
            eng.ranks[mode],
            method=eng.options.trsvd_method,
            **trsvd_kwargs(eng.options),
        )
        new_factor = np.asarray(result.left, dtype=eng.dtype)
        if self.pool is not None:
            self.pool.write_factor(mode, new_factor, job=self.job)
        self.notify_factor_updated(eng, mode)
        return new_factor, result

    def notify_factor_updated(self, eng, mode: int) -> None:
        """A factor was replaced.

        Backends caching state derived from the factors (the dimension
        tree's memoized partial chains) invalidate it here.  The distributed
        per-rank backend calls this after its distributed TRSVD + factor-row
        exchange replaced ``U_mode``, since the rank-local TTMc backend never
        sees that update otherwise.
        """

    def form_core(self, eng, last_ttmc: np.ndarray) -> np.ndarray:
        """Fold the last mode's TTMc into the core tensor (one small GEMM)."""
        return core_from_ttmc(last_ttmc, eng.factors[-1], eng.ranks)

    # -- hooks (no-ops by default) --------------------------------------- #
    def on_iteration_start(self, eng, iteration: int) -> None:
        pass

    def on_iteration_end(self, eng, iteration: int) -> None:
        pass

    def on_mode_start(self, eng, mode: int) -> None:
        pass

    def on_mode_end(self, eng, mode: int) -> None:
        pass

    def finalize(self, eng) -> None:
        """Release per-run resources (called exactly once, success or not).

        An owned pool is closed here; a borrowed generation is left to the
        batch runner that built it.
        """
        pool, self.pool = self.pool, None
        if pool is not None and self._lent() is None:
            pool.close()


class COOPlan(ExecutionBackend):
    """Per-mode TTMc over COO update lists — the paper's Algorithms 1 and 3.

    ``prepare`` builds every mode's symbolic data, one task per mode
    (Algorithm 3 lines 1-2); a chunk is a range of the non-empty rows
    ``J_n`` (:func:`~repro.parallel.shared_ttmc.ttmc_row_chunk`).  Inline,
    a mode is one :func:`~repro.core.ttmc.ttmc_matricized` call — the
    sequential oracle every composition is validated against.
    """

    name = "coo"

    def prepare(self, eng) -> None:
        lent = self._lent()
        self.symbolic = (
            lent.symbolic if lent is not None
            else parallel_symbolic(eng.tensor, self.workers)
        )
        self._open_pool(eng, symbolic=self.symbolic)

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        if self.pool is not None:
            return self.pool.ttmc(mode, job=self.job)
        if self.team is None:
            return ttmc_matricized(
                eng.tensor,
                eng.factors,
                mode,
                symbolic=self.symbolic[mode],
                block_nnz=eng.options.block_nnz,
                out=self._pooled_out(eng, mode),
                workspace=eng.workspace,
                # _pooled_out guarantees rows outside J_n are zero, so only
                # the touched rows need clearing between sweeps.
                zero="touched",
                kernel=engine_kernel(eng),
            )
        from repro.parallel.shared_ttmc import parallel_ttmc_matricized

        return parallel_ttmc_matricized(
            eng.tensor,
            eng.factors,
            mode,
            symbolic=self.symbolic[mode],
            config=self.team,
            block_nnz=eng.options.block_nnz,
            out=self._pooled_out(eng, mode),
            # Every J_n row is assigned and _pooled_out keeps the rest zero,
            # so no zeroing pass is needed at all.
            zero="none",
            kernel=engine_kernel(eng),
        )

    def compute_ttmc_rows(self, eng, mode: int, rows: np.ndarray) -> np.ndarray:
        """Compact TTMc block; ``rows`` must be non-empty rows (``⊆ J_mode``)."""
        from repro.parallel.parallel_for import parallel_for
        from repro.parallel.shared_ttmc import ttmc_row_block, ttmc_row_chunk

        symbolic = self.symbolic[mode]
        positions = symbolic_row_positions(symbolic, rows)
        if self.team is None:
            return ttmc_row_block(
                eng.tensor,
                eng.factors,
                mode,
                symbolic,
                positions,
                block_nnz=eng.options.block_nnz,
                kernel=engine_kernel(eng),
            )
        out = np.zeros((positions.shape[0], _ttmc_width(eng, mode)), eng.dtype)
        parallel_for(
            partial(
                ttmc_row_chunk, eng.tensor, eng.factors, mode, symbolic, out,
                positions=positions, block_nnz=eng.options.block_nnz,
                kernel=engine_kernel(eng),
            ),
            positions.shape[0],
            self.team,
        )
        return out


class CSFPlan(ExecutionBackend):
    """Per-mode TTMc over Compressed Sparse Fiber trees.

    ``prepare`` compresses the engine's tensor into CSF trees
    (:class:`repro.sparse.csf.CSFTensorSet`) instead of building per-mode
    update lists.  Inline, each mode's ``Y_(n)`` is one fiber-segment sweep
    (:func:`repro.sparse.csf_ttmc.csf_ttmc_matricized`) — factor rows
    gathered once per merged fiber, partial products reduced over fiber
    extents.  A chunk is a *root-fiber slab*
    (:func:`~repro.sparse.csf_ttmc.csf_slab_chunk`): its subtree is a
    contiguous node range at every level and its output rows are exactly
    its root fibers, so slabs of a tree rooted at its target mode never
    share a ``Y_(n)`` row — the paper's lock-free row decomposition applied
    to fibers.

    ``trees`` selects the layout policy: ``"per-mode"`` (default) builds one
    tree rooted at every mode, the fastest configuration at ``order``× the
    index memory; ``"shared"`` builds a single shortest-mode-first tree
    reused for every mode — minimal memory, with deep target modes served by
    the slower pushdown/pullup pass, and inline only (slabs need rooted
    trees).
    """

    name = "csf"

    #: Tree layout policies ``__init__`` accepts.
    TREE_POLICIES = ("per-mode", "shared")

    def __init__(self, executor=None, *, trees: str = "per-mode",
                 tensors=None) -> None:
        super().__init__(executor)
        if trees not in self.TREE_POLICIES:
            raise ValueError(
                f"unknown CSF tree policy {trees!r}: expected one of "
                f"{self.TREE_POLICIES}"
            )
        if trees == "shared" and self.executor is not None:
            raise ValueError(
                "root-fiber slabs partition the output rows only when every "
                "tree is rooted at its target mode; a thread or process "
                "executor needs trees='per-mode'"
            )
        self.trees = trees
        # A pre-built CSFTensorSet (e.g. memory-mapped trees loaded by the
        # out-of-core driver) skips the per-run compression in ``prepare``.
        self._preset_tensors = self.tensors = tensors

    def prepare(self, eng) -> None:
        from repro.sparse import CSFTensorSet

        lent = self._lent()
        if lent is not None:
            self.tensors = lent.trees
        elif self._preset_tensors is not None:
            self.tensors = self._preset_tensors
        elif self.trees == "per-mode":
            self.tensors = CSFTensorSet.per_mode(
                eng.tensor, num_threads=self.workers
            )
        else:
            self.tensors = CSFTensorSet.shared_tree(eng.tensor)
        self._open_pool(eng, symbolic=None, trees=self.tensors)

    def _slabs(self, eng, tree, out: np.ndarray, compact: bool = False) -> None:
        """Run every root-fiber slab of ``tree`` on the thread team."""
        from repro.parallel.parallel_for import parallel_for
        from repro.sparse.csf_ttmc import csf_slab_chunk

        parallel_for(
            partial(
                csf_slab_chunk, tree, eng.factors, out,
                compact=compact, kernel=engine_kernel(eng),
            ),
            tree.num_fibers(0),
            self.team,
        )

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        if self.pool is not None:
            return self.pool.ttmc(mode, job=self.job)
        tree = self.tensors.tree_for(mode)
        # Every J_n row is assigned and _pooled_out keeps the rest zero.
        out = self._pooled_out(eng, mode)
        if self.team is not None:
            self._slabs(eng, tree, out)
            return out
        from repro.sparse import csf_ttmc_matricized

        return csf_ttmc_matricized(
            tree,
            eng.factors,
            mode,
            out=out,
            workspace=eng.workspace,
            zero="none",
            kernel=engine_kernel(eng),
        )

    def compute_ttmc_rows(self, eng, mode: int, rows: np.ndarray) -> np.ndarray:
        """Compact TTMc block for a sorted set of global rows.

        The fiber sweep already produces ``Y_(n)`` in compact ``(J_n, ∏R_t)``
        form, so serving a rank's owned/local rows is one sorted gather —
        rows without local nonzeros come back zero, mirroring the dimension
        tree's ``local_rows`` contract.
        """
        tree = self.tensors.tree_for(mode)
        if self.team is not None:
            all_rows = tree.fids[0]
            block = eng.workspace.take(
                (all_rows.shape[0], _ttmc_width(eng, mode)), eng.dtype,
                tag=f"csf-compact-{mode}",
            )
            self._slabs(eng, tree, block, compact=True)
        else:
            from repro.sparse import csf_ttmc_compact

            all_rows, block = csf_ttmc_compact(
                tree,
                eng.factors,
                mode,
                workspace=eng.workspace,
                kernel=engine_kernel(eng),
            )
        rows = np.asarray(rows, dtype=np.int64)
        # The gather destination is pooled like the sweep's own buffers, so
        # steady-state rank-local sweeps stop allocating entirely.
        out = eng.workspace.take(
            (rows.shape[0], block.shape[1]), block.dtype,
            tag=f"csf-rows-out-{mode}",
        )
        return gather_present_rows(all_rows, block, rows, out)


class DimTreePlan(ExecutionBackend):
    """Dimension-tree TTMc: memoized partial chains over a binary mode tree.

    ``prepare`` builds a :class:`~repro.engine.dimtree.DimensionTree` in
    place of the per-mode symbolic step — over the CSF fiber hierarchy
    (contiguous, gather-free edge updates) when ``tensor_format="csf"``,
    per-edge keyed sorts otherwise; both serve identical ``Y_(n)``.  Each
    TRSVD bumps the refreshed factor's version so stale partial chains are
    recomputed on their next use.  A chunk is a range of one stale edge's
    child fibers (:func:`~repro.core.subset_ttmc.edge_update_groups`); with
    a process executor the groupings and node payloads live in shared
    memory while the driver keeps the version counters and decides which
    edges are stale.
    """

    name = "dimtree"
    tree = None

    def prepare(self, eng) -> None:
        from repro.engine.dimtree import DimensionTree
        from repro.parallel.process_pool import HOOIProcessPool, ProcessConfig

        fmt = getattr(eng.options, "tensor_format", "coo") or "coo"
        self.tree = DimensionTree(
            eng.tensor, source="csf" if fmt == "csf" else "coo"
        )
        if isinstance(self.executor, ProcessConfig):
            self.pool = HOOIProcessPool.for_dimtree(
                self.tree,
                eng.tensor,
                eng.factors,
                eng.ranks,
                eng.dtype,
                config=self.executor,
                block_nnz=eng.options.block_nnz,
            )

    def _leaf(self, eng, mode: int, **kwargs) -> np.ndarray:
        return self.tree.leaf_matricized(
            mode,
            eng.factors,
            dtype=eng.dtype,
            workspace=eng.workspace,
            block_nnz=eng.options.block_nnz,
            executor=self.pool if self.pool is not None else self.team,
            **kwargs,
        )

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        # _pooled_out keeps rows outside the leaf fibers zero and the leaf
        # rows are assigned, so no zeroing pass is needed.
        return self._leaf(eng, mode, out=self._pooled_out(eng, mode), zero="none")

    def compute_ttmc_rows(self, eng, mode: int, rows: np.ndarray) -> np.ndarray:
        """Serve a compact row block from the rank-local dimension tree."""
        return self._leaf(eng, mode, local_rows=np.asarray(rows, dtype=np.int64))

    def notify_factor_updated(self, eng, mode: int) -> None:
        if self.tree is not None:
            self.tree.invalidate_factor(mode)


def ttmc_plan(options) -> type:
    """The TTMc plan validated ``ttmc_strategy`` and ``tensor_format`` select."""
    if options.ttmc_strategy == "dimtree":
        return DimTreePlan
    fmt = getattr(options, "tensor_format", "coo") or "coo"
    return CSFPlan if fmt == "csf" else COOPlan


def resolve_ttmc_backend(options, config=None) -> ExecutionBackend:
    """The backend :class:`HOOIOptions` imply: a plan × an executor lookup.

    The plan comes from ``ttmc_strategy`` / ``tensor_format``
    (:func:`ttmc_plan`); the executor from ``execution`` / ``num_workers``:
    ``"sequential"`` runs inline, ``"thread"`` a team of ``num_workers``
    threads, ``"process"`` an owned pool of ``num_workers`` worker
    processes.  ``config`` (a
    :class:`~repro.parallel.parallel_for.ParallelConfig`) comes from the
    threaded driver: it is the thread team, or — under
    ``execution="process"`` — lends the pool its schedule (and its size
    when ``num_workers`` is unset).  The ``kernel`` axis needs no routing:
    every plan reads ``options.kernel`` per TTMc call
    (:func:`engine_kernel`), and the ``validate`` call here rejects
    unavailable or non-composing tiers *before* any backend is built.
    Option values and composition are checked by
    :meth:`~repro.core.hooi.HOOIOptions.validate` (single-node context —
    the distributed driver applies its stricter composition rules before
    resolving its rank-local backends).
    """
    from repro.parallel.parallel_for import ParallelConfig
    from repro.parallel.process_pool import ProcessConfig

    options.validate()
    workers = int(options.num_workers or 1)
    executor = config
    if options.execution == "process":
        if config is None:
            executor = ProcessConfig(num_workers=workers)
        else:
            executor = ProcessConfig(
                num_workers=workers if workers > 1 else config.num_threads,
                schedule=config.schedule,
                chunk_size=config.chunk_size,
            )
    elif options.execution == "thread" and config is None:
        executor = ParallelConfig(num_threads=workers)
    return ttmc_plan(options)(executor)
