"""How the service actually runs jobs: direct engine runs and pooled batches.

Two execution paths, chosen per job by the dispatcher:

* :func:`run_direct` — one ordinary :func:`repro.core.hooi.hooi` call on the
  service's worker thread.  Used for ``execution="sequential"`` /
  ``"thread"`` jobs and for the one process-execution shape the pooled path
  does not cover (the dimension-tree strategy, whose fiber-parallel arena
  layout keeps the one-shot pool-per-run lifecycle).

* :func:`run_process_batch` — the persistent-pool path.  All jobs of the
  batch are prepared up front (dtype policy, per-mode symbolic data or
  per-mode rooted CSF trees, initial factors — the same steps, in the same
  order, the engine's :class:`~repro.engine.backend.COOPlan` /
  :class:`~repro.engine.backend.CSFPlan` perform in ``prepare``), packed
  into ONE :meth:`~repro.parallel.process_pool.HOOIProcessPool.for_per_mode_batch`
  generation on the manager's crew, and then run one engine at a time, each
  on its plan with the generation as a *borrowed* executor
  (:class:`~repro.engine.backend.BorrowedPool`: addressed by job key, never
  closed by the member).  A batch costs one worker attach/detach cycle
  regardless of its size and zero process spawns — the
  attach/detach-thrash avoidance that makes a stream of small tensors cheap.

Every job's outcome is reported as a ``(job, kind, payload)`` tuple with
``kind`` in ``{"ok", "cancelled", "timeout", "crash", "error"}``; the
service applies them on the event-loop thread (crash outcomes feed the
retry path).  Nothing here touches asyncio — these functions run inside the
service's single worker thread.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hooi import hooi
from repro.core.hosvd import initialize_factors
from repro.core.sparse_tensor import SparseTensor, resolve_dtype
from repro.core.symbolic import symbolic_ttmc
from repro.engine.backend import BorrowedPool, ttmc_plan
from repro.engine.driver import HOOIEngine
from repro.engine.workspace import WorkspacePool
from repro.parallel.process_pool import (
    BatchJobSpec,
    HOOIProcessPool,
    PersistentWorkerCrew,
    ProcessConfig,
    WorkerCrashError,
)
from repro.resilience.checkpoint import CheckpointState
from repro.resilience.faults import maybe_fail
from repro.serving.jobs import Job, JobCancelledError, JobTimeoutError

__all__ = [
    "pooled_eligible",
    "run_direct",
    "run_process_batch",
]

#: Outcome kinds the service's dispatcher understands ("breaker" is
#: produced service-side when the pool's circuit is open).
OUTCOME_KINDS = ("ok", "cancelled", "timeout", "crash", "error", "breaker")

Outcome = Tuple[Job, str, object]


def pooled_eligible(job: Job) -> bool:
    """Whether a job can run on the persistent crew's batched generations.

    The batched arena layout implements the per-mode TTMc for both tensor
    formats: row-parallel chunks over COO storage and root-fiber-slab
    pullups over shared-memory CSF trees (members of one batch can mix
    formats).  Only the dimension-tree strategy falls back to
    :func:`run_direct` — it keeps its dedicated fiber-parallel arena
    layout and one-shot pool-per-run lifecycle.  Process jobs that leave
    ``ttmc_strategy`` unset resolve to ``"per-mode"``
    (:meth:`~repro.core.hooi.HOOIOptions.validate`), which is why they pool;
    an explicit ``"dimtree"`` runs direct.

    Judged on the job's *effective* options: a job the degradation ladder
    moved off the process tier routes through :func:`run_direct` from then
    on, whatever its request asked for.
    """
    opts = job.effective_options
    return opts.execution == "process" and opts.ttmc_strategy == "per-mode"


def _classify(job: Job, exc: BaseException) -> Outcome:
    if isinstance(exc, JobCancelledError):
        return (job, "cancelled", exc)
    if isinstance(exc, JobTimeoutError):
        return (job, "timeout", exc)
    if isinstance(exc, WorkerCrashError):
        return (job, "crash", exc)
    return (job, "error", exc)


def _job_resume(job: Job) -> Optional[CheckpointState]:
    """The checkpoint state a retried/degraded attempt resumes from.

    A first attempt never resumes (there is nothing to resume *from*, and a
    stale rolling file would be rejected by the integrity/compat checks
    anyway — the service keys each job's checkpoint file by its cache-key
    fingerprints).  Later attempts load the rolling file when it exists;
    one that died before its first sweep completed simply starts fresh.
    """
    if job.checkpointer is None or job.attempts <= 1:
        return None
    return job.checkpointer.load()


def _warm_options(job: Job, opts):
    """Substitute a delta job's warm-start factors as the initializer.

    A checkpoint resume outranks the warm seed — the checkpoint holds this
    very job's partial sweeps, strictly newer than the base result's
    factors — so the substitution only applies on a fresh first attempt.
    """
    if job.warm_factors is not None and _job_resume(job) is None:
        return dataclasses.replace(opts, init=list(job.warm_factors))
    return opts


def run_direct(job: Job, *, workspace: Optional[WorkspacePool] = None) -> Outcome:
    """Run one job through the ordinary driver on the calling thread."""
    request = job.request
    try:
        maybe_fail("serving.run_direct")
        result = hooi(
            request.tensor,
            list(request.ranks),
            _warm_options(job, job.effective_options),
            callback=job.progress_callback,
            workspace=workspace,
            cancel_check=job.make_cancel_check(),
            checkpoint=job.checkpointer,
            resume=_job_resume(job),
        )
    except BaseException as exc:
        return _classify(job, exc)
    return (job, "ok", result)


def _prepare_member(job: Job) -> Tuple[BatchJobSpec, Optional[CheckpointState]]:
    """Apply the dtype policy and build symbolic/tree data + initial factors.

    Mirrors the engine's own setup order (``prepare_tensor`` →
    ``initial_factors`` → ``prepare``) so a pooled run is bit-for-bit the
    computation a direct ``execution="process"`` run performs.  A COO
    member builds per-mode symbolic data; a CSF member builds the per-mode
    rooted :class:`~repro.sparse.csf.CSFTensorSet` the arena serializes
    (its TTMc needs no symbolic records — the trees carry the structure).
    A resumed attempt substitutes the checkpoint's factors here — the batch
    arena packs every member's factors at construction time, so the workers
    must see the checkpointed state, not the initializer's.
    """
    request = job.request
    opts = job.effective_options
    dtype = resolve_dtype(opts.dtype)
    tensor = request.tensor
    if isinstance(tensor, SparseTensor):
        tensor = tensor.astype(dtype)
    resume = _job_resume(job)
    if resume is not None:
        factors = [
            np.ascontiguousarray(f, dtype=dtype) for f in resume.factors
        ]
    elif job.warm_factors is not None:
        factors = [
            np.ascontiguousarray(f, dtype=dtype) for f in job.warm_factors
        ]
    else:
        factors = [
            np.asarray(f, dtype=dtype)
            for f in initialize_factors(
                tensor, list(request.ranks), init=opts.init, seed=opts.seed
            )
        ]
    symbolic, trees = None, None
    if (opts.tensor_format or "coo") == "csf":
        from repro.sparse import CSFTensorSet

        trees = CSFTensorSet.per_mode(tensor)
    else:
        symbolic = {
            mode: symbolic_ttmc(tensor, mode) for mode in range(tensor.order)
        }
    spec = BatchJobSpec(
        job=job.id,
        tensor=tensor,
        symbolic=symbolic,
        factors=factors,
        ranks=list(request.ranks),
        block_nnz=opts.block_nnz,
        kernel=opts.kernel or "numpy",
        trees=trees,
    )
    return spec, resume


def run_process_batch(
    crew: PersistentWorkerCrew, jobs: Sequence[Job]
) -> List[Outcome]:
    """Run a batch of pooled jobs on one crew generation.

    Members run one at a time (the pool is single-consumer) but share a
    single arena build + worker attach/detach cycle.  A worker crash fails
    the in-flight member with a ``"crash"`` outcome and — because the pool
    is broken from that point — every remaining member reports ``"crash"``
    too, so the service's retry path requeues the whole tail onto a fresh
    crew.  A member's cancellation or timeout aborts only that member; the
    generation stays consistent because the engine's ``cancel_check`` fires
    strictly between dispatches.
    """
    try:
        maybe_fail("serving.run_batch")
        members = [(job, *_prepare_member(job)) for job in jobs]
    except BaseException as exc:
        # Admission already validated the requests, so a preparation failure
        # is unexpected — fail the whole batch with the real error.
        return [_classify(job, exc) for job in jobs]

    try:
        pool = HOOIProcessPool.for_per_mode_batch(
            [spec for _, spec, _ in members],
            np.float64,
            config=ProcessConfig(num_workers=crew.num_workers),
            crew=crew,
        )
    except BaseException as exc:
        return [_classify(job, exc) for job in jobs]

    outcomes: List[Outcome] = []
    try:
        for job, spec, resume in members:
            opts = job.effective_options
            try:
                engine = HOOIEngine(
                    spec.tensor,
                    list(job.request.ranks),
                    opts,
                    backend=ttmc_plan(opts)(BorrowedPool(pool, spec)),
                )
                result = engine.run(
                    callback=job.progress_callback,
                    cancel_check=job.make_cancel_check(),
                    checkpoint=job.checkpointer,
                    resume=resume,
                )
            except BaseException as exc:
                outcomes.append(_classify(job, exc))
            else:
                outcomes.append((job, "ok", result))
    finally:
        try:
            pool.close()
        except Exception:
            # A failed detach already marked the crew broken; the arena was
            # still unlinked, which is all teardown must guarantee here.
            pass
    return outcomes
