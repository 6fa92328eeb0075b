"""Shared-memory parallel HOOI (the paper's Algorithm 3) and the node model.

Two shared-memory execution substrates live here: worker *threads*
(:mod:`repro.parallel.parallel_for`, GIL-bound — faithful work decomposition)
and worker *processes* over zero-copy shared memory
(:mod:`repro.parallel.process_pool` + :mod:`repro.parallel.shm` — true
multicore execution of the same row-parallel decomposition).
"""

from repro.parallel.parallel_for import ChunkSchedule, ParallelConfig, make_chunks, parallel_for
from repro.parallel.shared_ttmc import parallel_ttmc_matricized, ttmc_row_block
from repro.parallel.shm import ShmArena, ShmArraySpec, ShmView
from repro.parallel.process_pool import (
    HOOIProcessPool,
    ProcessConfig,
    WorkerCrashError,
)
from repro.parallel.model import BGQ_NODE, NodeModel, PhaseWork
from repro.parallel.work import (
    core_phase_work,
    kron_width,
    trsvd_phase_work,
    trsvd_row_work,
    ttmc_phase_work,
)
from repro.parallel.shared_hooi import SharedHOOIReport, predict_iteration_time, shared_hooi

__all__ = [
    "ChunkSchedule",
    "ParallelConfig",
    "make_chunks",
    "parallel_for",
    "parallel_ttmc_matricized",
    "ttmc_row_block",
    "ShmArena",
    "ShmArraySpec",
    "ShmView",
    "HOOIProcessPool",
    "ProcessConfig",
    "WorkerCrashError",
    "BGQ_NODE",
    "NodeModel",
    "PhaseWork",
    "core_phase_work",
    "kron_width",
    "trsvd_phase_work",
    "trsvd_row_work",
    "ttmc_phase_work",
    "SharedHOOIReport",
    "predict_iteration_time",
    "shared_hooi",
]
