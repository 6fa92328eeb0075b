"""Table IV — relative time of TTMc, TRSVD and core-tensor steps.

The paper reports, for the 256-way fine-hp configuration, the percentage of
each HOOI iteration spent in the TTMc, the TRSVD (including its
communication), and the core-tensor formation.  The reproduction runs the
actual SPMD simulation with the fine-hp partition on each dataset analog and
reads the simulated per-phase time breakdown; the expected shape is that TTMc
dominates for Delicious/Flickr/NELL while TRSVD+comm dominates for Netflix
(whose large first mode makes the dense MxV/MTxV the bottleneck).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.hooi import HOOIOptions
from repro.distributed.dist_hooi import distributed_hooi
from repro.experiments.calibration import scaled_machine
from repro.experiments.harness import DATASET_ORDER, ExperimentContext, format_table
from repro.simmpi.machine import MachineModel

__all__ = ["run_table4", "render_table4"]


def run_table4(
    context: Optional[ExperimentContext] = None,
    *,
    datasets: Sequence[str] = DATASET_ORDER,
    strategy: str = "fine-hp",
    num_parts: int = 8,
    iterations: int = 2,
    machine: Optional[MachineModel] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Per-dataset percentage of simulated time per phase: ``result[dataset][phase]``."""
    context = context or ExperimentContext()
    if machine is None:
        machine = scaled_machine(context.scale)
    result: Dict[str, Dict[str, float]] = {}
    for dataset in datasets:
        tensor = context.tensor(dataset)
        ranks = context.ranks(dataset)
        partition = context.partition(dataset, strategy, num_parts)
        run = distributed_hooi(
            tensor,
            ranks,
            partition,
            # The paper's Table IV times the per-mode TTMc (Algorithm 4).
            HOOIOptions(max_iterations=iterations, init="random", seed=seed,
                        ttmc_strategy="per-mode"),
            machine=machine,
        )
        fractions = run.phase_fractions()
        result[dataset] = {
            "ttmc": 100.0 * fractions.get("ttmc", 0.0),
            "trsvd+comm": 100.0 * fractions.get("trsvd", 0.0),
            "core+comm": 100.0 * fractions.get("core", 0.0),
        }
    return result


def render_table4(result: Dict[str, Dict[str, float]]) -> str:
    datasets = list(result.keys())
    headers = ["Step"] + [d.capitalize() for d in datasets]
    steps = ["ttmc", "trsvd+comm", "core+comm"]
    rows = [
        [step.upper() if step == "ttmc" else step]
        + [result[d][step] for d in datasets]
        for step in steps
    ]
    return format_table(
        headers,
        rows,
        title="Table IV: relative timings (%) of TTMc / TRSVD / core within HOOI",
    )
