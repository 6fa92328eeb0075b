"""Decomposition-as-a-service: async jobs over a persistent worker pool.

The one-shot drivers (:func:`repro.hooi`, :func:`repro.decompose`) pay
worker-process startup on every ``execution="process"`` call.  This package
keeps the workers alive between requests and fronts them with an asyncio
job engine:

* :class:`DecompositionService` — submit/await endpoint with admission
  control, FIFO dispatch, small-job batching onto single pool generations,
  an LRU result cache keyed by content fingerprints, cooperative
  cancellation, per-job timeouts, crash retry with sweep-checkpoint resume,
  a circuit-breaker-guarded degradation ladder and a metrics snapshot
  (see :mod:`repro.resilience`).
* :class:`JobHandle` / :class:`JobState` / :class:`JobRequest` — the job
  surface (see :mod:`repro.serving.jobs`).
* :class:`HOOIPoolManager` / :class:`ResultCache` — the reusable pieces
  (crew lifecycle, counted LRU) for embedders building their own loop.

See README "Serving decompositions" for a runnable walkthrough and
CONTRIBUTING for the job-state extension guidelines.
"""

from repro.serving.cache import ResultCache
from repro.serving.executor import (
    pooled_eligible,
    run_direct,
    run_process_batch,
)
from repro.serving.jobs import (
    AdmissionError,
    Job,
    JobCancelledError,
    JobHandle,
    JobRequest,
    JobState,
    JobTimeoutError,
    ServingError,
)
from repro.serving.pool_manager import HOOIPoolManager
from repro.serving.service import DecompositionService

__all__ = [
    "DecompositionService",
    "JobHandle",
    "JobRequest",
    "JobState",
    "Job",
    "ServingError",
    "AdmissionError",
    "JobCancelledError",
    "JobTimeoutError",
    "ResultCache",
    "HOOIPoolManager",
    "pooled_eligible",
    "run_direct",
    "run_process_batch",
]
