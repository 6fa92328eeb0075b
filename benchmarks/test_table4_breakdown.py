"""Benchmark / regeneration of Table IV: relative time per HOOI step.

Runs the full simulated distributed HOOI (fine-hp partition) on every dataset
analog and reports the share of simulated time spent in the TTMc, the TRSVD
(including its communication) and the core-tensor formation.  The paper's
qualitative finding asserted here: the TTMc dominates and the core-tensor step
is negligible for the large skewed tensors.
"""

from __future__ import annotations

import pytest

from repro.core import HOOIOptions
from repro.distributed import distributed_hooi
from repro.experiments import render_table4
from repro.experiments.calibration import scaled_machine
from benchmarks.conftest import BENCH_SCALE

NUM_PARTS = 8
DATASETS = ("delicious", "flickr", "nell", "netflix")


@pytest.mark.parametrize("dataset", DATASETS)
def test_table4_phase_breakdown(context, benchmark, dataset):
    tensor = context.tensor(dataset)
    ranks = context.ranks(dataset)
    partition = context.partition(dataset, "fine-hp", NUM_PARTS)
    machine = scaled_machine(BENCH_SCALE)
    # Table IV times the paper's per-mode TTMc (Algorithm 4).
    options = HOOIOptions(max_iterations=2, init="random", seed=0,
                          ttmc_strategy="per-mode")

    run = benchmark.pedantic(
        distributed_hooi,
        args=(tensor, ranks, partition, options),
        kwargs=dict(machine=machine),
        rounds=1,
        iterations=1,
    )
    fractions = run.phase_fractions()
    shares = {
        "ttmc": 100.0 * fractions.get("ttmc", 0.0),
        "trsvd+comm": 100.0 * fractions.get("trsvd", 0.0),
        "core+comm": 100.0 * fractions.get("core", 0.0),
    }
    print()
    print(render_table4({dataset: shares}))

    assert abs(sum(shares.values()) - 100.0) < 1e-6
    # Core-tensor formation is negligible (paper: 0.7% - 5.2%).
    assert shares["core+comm"] < 15.0
    # The TTMc is the dominant step for the large skewed tensors (paper:
    # 56% - 76%); Netflix is the paper's exception where TRSVD+comm can
    # dominate at scale, so it is only required to be non-trivial there.
    if dataset != "netflix":
        assert shares["ttmc"] > shares["trsvd+comm"]
    assert shares["ttmc"] > 10.0
