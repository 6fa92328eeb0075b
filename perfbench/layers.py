"""Where each layer is traced, and the per-layer metrics read from the spans.

``TRACE_POINTS`` names the attribute the library looks each layer up at;
:func:`layer_metrics` turns one traced run's spans into the per-layer
metrics every workload reports (0 where a layer did not run).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from tracing import Span, Tracer


def _ttmc_counts(args, kwargs, result):
    """Computed work of one TTMc call: ``ttmc_flops`` and bytes moved.

    Bytes are computed from array sizes (index + value streams, the factor
    rows read per nonzero, and the output block written), not measured.
    """
    from repro.core.ttmc import ttmc_flops

    tensor, factors, mode = args[0], args[1], int(args[2])
    ranks = [0 if f is None else int(f.shape[1]) for f in factors]
    nnz, order = int(tensor.nnz), len(ranks)
    read = nnz * (8 * order + 8) + nnz * 8 * sum(
        r for t, r in enumerate(ranks) if t != mode
    )
    return {
        "mode": mode,
        "flops": ttmc_flops(nnz, ranks, mode),
        "bytes": read + int(np.asarray(result).nbytes),
    }


def _trsvd_counts(args, kwargs, result):
    return {"matvecs": int(result.matvecs) + int(result.rmatvecs)}


def _shm_counts(args, kwargs, result):
    return {"bytes": int(np.asarray(result).nbytes)}


def _batch_counts(args, kwargs, result):
    jobs = args[1]
    waits = [job.started_at - job.submitted_at for job in jobs]
    return {"jobs": len(jobs), "queue_wait_s": sum(waits)}


def _partition_counts(args, kwargs, result):
    from repro.partition.metrics import (
        connectivity_cutsize,
        load_imbalance,
        part_weights,
    )

    hg, k = args[0], int(args[1])
    return {
        "cut": connectivity_cutsize(hg, result, k),
        "imbalance": load_imbalance(part_weights(hg, result, k)),
    }


_COMM = ("send", "recv", "sendrecv", "barrier", "bcast", "reduce",
         "allreduce", "allgather", "gather", "alltoall")

#: (module, attribute, span name, counter) for every traced boundary.
TRACE_POINTS = [
    ("repro.engine.driver", "HOOIEngine.run", "engine.run", None),
    ("repro.engine.backend", "ttmc_matricized", "core.ttmc", _ttmc_counts),
    ("repro.parallel.shared_ttmc", "ttmc_row_block", "core.ttmc", _ttmc_counts),
    ("repro.engine.backend", "symbolic_ttmc", "core.symbolic", None),
    ("repro.serving.executor", "symbolic_ttmc", "core.symbolic", None),
    ("repro.engine.backend", "truncated_svd", "core.trsvd", _trsvd_counts),
    ("repro.distributed.dist_hooi", "distributed_lanczos_svd", "core.trsvd",
     _trsvd_counts),
    ("repro.core.sparse_tensor", "SparseTensor.fingerprint", "core.fingerprint",
     None),
    ("repro.sparse", "csf_ttmc_matricized", "sparse.csf_ttmc", None),
    ("repro.sparse.csf", "CSFTensorSet.per_mode", "sparse.csf_build", None),
    ("repro.sparse.csf", "CSFTensorSet.shared_tree", "sparse.csf_build", None),
    ("repro.engine.dimtree", "DimensionTree.__init__", "engine.dimtree_build",
     None),
    ("repro.engine.dimtree", "DimensionTree.leaf_matricized",
     "engine.dimtree_ttmc", None),
    ("repro.partition.strategies", "build_fine_hypergraph",
     "partition.hypergraph_build", None),
    ("repro.partition.strategies", "build_coarse_hypergraph",
     "partition.hypergraph_build", None),
    ("repro.partition.strategies", "partition_hypergraph", "partition.partition",
     _partition_counts),
    *[("repro.simmpi.communicator", f"Communicator.{m}", "simmpi.wait", None)
      for m in _COMM],
    ("repro.parallel.process_pool", "HOOIProcessPool.ttmc", "parallel.dispatch",
     None),
    ("repro.parallel.process_pool", "HOOIProcessPool.dimtree_edge",
     "parallel.dispatch", None),
    ("repro.parallel.process_pool", "HOOIProcessPool.write_factor",
     "parallel.dispatch", None),
    ("repro.parallel.shm", "ShmArena.create", "parallel.shm", _shm_counts),
    ("repro.serving.service", "run_process_batch", "serving.run", _batch_counts),
    ("repro.streaming.delta", "apply_delta", "streaming.apply_delta", None),
]

#: Per-layer metrics (name -> unit), reported by every traced run.
PER_LAYER = {
    "core.ttmc_s": "s",
    **{f"core.ttmc_s.mode{m}": "s" for m in range(4)},
    "core.ttmc_flops": "count",
    "core.ttmc_gflops": "GFLOP/s",
    "core.ttmc_bytes": "bytes",
    "core.symbolic_s": "s",
    "core.tensor_build_s": "s",
    "sparse.csf_build_s": "s",
    "sparse.csf_ttmc_s": "s",
    "engine.dimtree_build_s": "s",
    "engine.dimtree_ttmc_s": "s",
    "engine.self_s": "s",
    "engine.sweep_s": "s",
    "core.trsvd_s": "s",
    "core.trsvd_matvecs": "count",
    "partition.hypergraph_build_s": "s",
    "partition.partition_s": "s",
    "partition.cut": "count",
    "partition.imbalance": "ratio",
    "simmpi.bytes": "bytes",
    "simmpi.messages": "count",
    "simmpi.wait_s": "s",
    "simmpi.sim_iter_s": "s",
    "parallel.dispatch_s": "s",
    "parallel.shm_bytes": "bytes",
    "parallel.pool_generations": "count",
    "serving.admission_s": "s",
    "core.fingerprint_s": "s",
    "serving.queue_wait_ms": "ms",
    "serving.run_s": "s",
    "serving.batch_jobs": "count",
    "serving.cache_hit_ratio": "ratio",
    "serving.job_p90_ms": "ms",
    "streaming.apply_delta_s": "s",
    "streaming.warm_started": "count",
    "trace.overhead_pct": "%",
}

#: Metrics that are exact counts: the same seed must reproduce them exactly.
EXACT = (
    "core.ttmc_flops", "core.trsvd_matvecs", "partition.cut",
    "simmpi.bytes", "simmpi.messages", "simmpi.sim_iter_s",
    "serving.cache_hit_ratio", "streaming.warm_started",
)


def install(tracer: Tracer) -> None:
    for module, attr, name, count in TRACE_POINTS:
        tracer.install(module, attr, name, count)


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced run."""
    busy = Tracer.layer_totals(spans)
    out = {name: 0.0 for name in PER_LAYER}
    for name in ("core.ttmc", "core.symbolic", "core.tensor_build",
                 "sparse.csf_build", "sparse.csf_ttmc", "engine.dimtree_build",
                 "engine.dimtree_ttmc", "core.trsvd", "partition.hypergraph_build",
                 "partition.partition", "simmpi.wait", "parallel.dispatch",
                 "serving.admission", "core.fingerprint", "serving.run",
                 "streaming.apply_delta"):
        out[f"{name}_s"] = busy.get(name, 0.0)
    for span in spans:
        if span.name == "core.ttmc":
            key = f"core.ttmc_s.mode{span.attrs['mode']}"
            if key in out:
                out[key] += span.duration
    out["core.ttmc_flops"] = Tracer.attr_sum(spans, "core.ttmc", "flops")
    out["core.ttmc_bytes"] = Tracer.attr_sum(spans, "core.ttmc", "bytes")
    if out["core.ttmc_s"] > 0:
        out["core.ttmc_gflops"] = out["core.ttmc_flops"] / out["core.ttmc_s"] / 1e9
    out["core.trsvd_matvecs"] = Tracer.attr_sum(spans, "core.trsvd", "matvecs")
    out["parallel.shm_bytes"] = Tracer.attr_sum(spans, "parallel.shm", "bytes")
    out["engine.self_s"] = Tracer.self_seconds(spans, "engine.run")
    parts = [s for s in spans if s.name == "partition.partition"]
    if parts:
        out["partition.cut"] = sum(s.attrs["cut"] for s in parts)
        out["partition.imbalance"] = max(s.attrs["imbalance"] for s in parts)
    batches = [s for s in spans if s.name == "serving.run"]
    if batches:
        jobs = sum(s.attrs["jobs"] for s in batches)
        out["serving.batch_jobs"] = jobs / len(batches)
        out["serving.queue_wait_ms"] = (
            1e3 * sum(s.attrs["queue_wait_s"] for s in batches) / jobs
        )
    return out
