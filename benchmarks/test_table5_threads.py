"""Benchmark / regeneration of Table V: shared-memory thread scaling.

Two complementary reproductions are run per dataset analog:

* the node roofline model evaluated for 1-32 threads (this is the curve whose
  *shape* mirrors the paper's BlueGene/Q measurements: everything speeds up,
  the latency-bound tensors more than the TRSVD-bandwidth-bound ones);
* a measured run of the actual thread-parallel HOOI (Algorithm 3) at 1-4
  Python threads, which is also what the ``benchmark`` fixture times.
"""

from __future__ import annotations

import pytest

from repro.core import HOOIOptions
from repro.experiments import (
    DEFAULT_THREAD_COUNTS,
    render_table5,
    render_table5_hybrid,
    run_table5,
    run_table5_hybrid,
)
from repro.experiments.calibration import scaled_node
from repro.parallel import ParallelConfig, shared_hooi
from benchmarks.conftest import BENCH_SCALE

DATASETS = ("delicious", "flickr", "nell", "netflix")

HYBRID_RANKS = (2, 4)
HYBRID_THREADS = (1, 4, 16)


def test_table5_modelled_scaling(context, benchmark):
    """Regenerate the modelled thread-scaling table for all four analogs."""
    result = benchmark.pedantic(
        run_table5,
        kwargs=dict(context=context, datasets=DATASETS,
                    thread_counts=DEFAULT_THREAD_COUNTS,
                    node_model=scaled_node(BENCH_SCALE), measure=False),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table5(result))

    for dataset in DATASETS:
        modelled = result[dataset]["modelled"]
        times = [modelled[t] for t in DEFAULT_THREAD_COUNTS]
        # Monotone non-increasing with threads, and a real speedup at 32.
        assert all(b <= a * 1.001 for a, b in zip(times, times[1:]))
        assert modelled[1] / modelled[32] > 3.0

    # The paper's ordering: the tensors with enormous modes (Delicious,
    # Flickr — TRSVD bandwidth-bound) scale no better than NELL / Netflix
    # (latency-bound TTMc, which threads hide well).
    speedup = {d: result[d]["modelled"][1] / result[d]["modelled"][32] for d in DATASETS}
    assert speedup["netflix"] >= speedup["flickr"] - 1e-9
    assert speedup["nell"] >= speedup["delicious"] - 1e-9


def test_table5_hybrid_rank_thread_sweep(context, benchmark):
    """The paper's headline hybrid: MPI ranks × threads per rank, run for real.

    The simulated seconds per iteration must improve monotonically with the
    per-rank thread count at every rank count (the TTMc is latency-bound, so
    threads keep helping through the SMT budget), and the fit must be
    identical across every point — execution only changes local compute.
    """
    result = benchmark.pedantic(
        run_table5_hybrid,
        kwargs=dict(context=context, datasets=("netflix",),
                    rank_counts=HYBRID_RANKS, thread_counts=HYBRID_THREADS,
                    iterations=1),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table5_hybrid(result))

    points = result["netflix"]
    for num_ranks in HYBRID_RANKS:
        times = [points[(num_ranks, t)]["simulated"] for t in HYBRID_THREADS]
        assert all(b <= a * 1.001 for a, b in zip(times, times[1:]))
        # Real thread-level speedup at the largest team.
        assert times[0] / times[-1] > 2.0
        # Execution strategy only changes local compute: at a fixed
        # partition the fit is identical across thread counts.  (Across
        # rank counts the partitions — and hence summation orders — differ,
        # so only reassociation-level agreement is guaranteed there.)
        fits = [points[(num_ranks, t)]["fit"] for t in HYBRID_THREADS]
        assert max(fits) - min(fits) < 1e-10


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("dataset", ["netflix", "nell"])
def test_table5_measured_threads(context, benchmark, dataset, threads):
    """Measured wall-clock of the thread-parallel HOOI (one iteration)."""
    tensor = context.tensor(dataset)
    ranks = context.ranks(dataset)
    # Table V measures the paper's per-mode TTMc on threads.
    options = HOOIOptions(max_iterations=1, init="random", seed=0,
                          ttmc_strategy="per-mode")

    def run_once():
        return shared_hooi(tensor, ranks, options,
                           config=ParallelConfig(num_threads=threads))

    report = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert report.result.fit_history
    assert report.measured_seconds_per_iteration > 0
