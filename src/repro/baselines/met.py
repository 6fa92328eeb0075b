"""MET-style memory-efficient Tucker baseline.

Section V of the paper compares the single-core performance of HyperTensor's
nonzero-based, symbolically-preprocessed HOOI against MET (Kolda & Sun's
Memory-Efficient Tucker from the Matlab Tensor Toolbox): on a random
10K×10K×10K tensor with 1M nonzeros and 5 iterations, MET takes 87.2 s versus
11.3 s for the paper's code.

This module implements the comparison point: a HOOI whose TTMc is evaluated
the conventional way — as a chain of sparse TTM products, one mode at a time,
materializing the semi-sparse intermediate after every multiplication and
merging duplicate fibers (the memory-saving trick MET schedules around), with
no symbolic preprocessing reused across iterations.  The numerics are
identical to :func:`repro.core.hooi.hooi` — both plug into the same
:class:`~repro.engine.driver.HOOIEngine` loop and drive the same TRSVD — so
the benchmark isolates the cost of the TTMc evaluation strategy, which is
exactly what the paper's comparison highlights.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.hooi import HOOIOptions, HOOIResult
from repro.core.sparse_tensor import SparseTensor
from repro.core.ttm import sparse_ttm_chain
from repro.engine.backend import ExecutionBackend
from repro.engine.driver import HOOIEngine

__all__ = ["met_hooi", "TTMChainBackend"]


class TTMChainBackend(ExecutionBackend):
    """TTMc evaluated as a sparse TTM chain (the MET evaluation strategy).

    No symbolic preprocessing: every mode of every iteration re-derives the
    fiber structure while materializing the semi-sparse intermediates.
    """

    name = "ttm-chain"

    def prepare(self, eng) -> None:
        # Deliberately nothing: the absence of reusable symbolic data is the
        # point of this baseline.
        pass

    def compute_ttmc(self, eng, mode: int) -> np.ndarray:
        semi = sparse_ttm_chain(eng.tensor, eng.factors, skip=mode)
        return semi.matricize_remaining(mode)


def met_hooi(
    tensor: SparseTensor,
    ranks: Sequence[int] | int,
    options: Optional[HOOIOptions] = None,
) -> HOOIResult:
    """HOOI with TTV/TTM-chain TTMc evaluation (the MET-style baseline).

    Accepts the same options as :func:`repro.core.hooi.hooi` and returns the
    same result structure, so the two can be compared (and benchmarked) on
    identical inputs.
    """
    engine = HOOIEngine(tensor, ranks, options, backend=TTMChainBackend())
    return engine.run()
