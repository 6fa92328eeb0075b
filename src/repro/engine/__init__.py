"""The unified HOOI execution engine.

One driver loop (:class:`~repro.engine.driver.HOOIEngine`), three TTMc
plans × three executors (:mod:`repro.engine.backend`), pooled workspaces
(:mod:`repro.engine.workspace`) and the ``float32``/``float64`` dtype policy
shared by the sequential, shared-memory and distributed HOOI drivers.
"""

from repro.engine.backend import (
    BorrowedPool,
    COOPlan,
    CSFPlan,
    DimTreePlan,
    ExecutionBackend,
    parallel_symbolic,
    resolve_ttmc_backend,
    trsvd_kwargs,
    ttmc_plan,
)
from repro.engine.dimtree import DimensionTree, DimTreeNode
from repro.engine.driver import HOOIEngine, hooi_fit
from repro.engine.workspace import WorkspacePool

__all__ = [
    "ExecutionBackend",
    "COOPlan",
    "CSFPlan",
    "DimTreePlan",
    "BorrowedPool",
    "ttmc_plan",
    "resolve_ttmc_backend",
    "parallel_symbolic",
    "trsvd_kwargs",
    "DimensionTree",
    "DimTreeNode",
    "HOOIEngine",
    "hooi_fit",
    "WorkspacePool",
]
