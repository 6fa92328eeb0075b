#!/usr/bin/env python3
"""Quickstart: Tucker-decompose a sparse tensor with HyperTensor-py.

This walks through the core API in five steps (mirroring Fig. 1 and
Algorithm 1 of the paper):

1. build / generate a sparse tensor in COO form;
2. run the sequential HOOI (Tucker-ALS) with chosen ranks;
3. inspect the fit, the core tensor and the factor matrices;
4. rerun with the shared-memory parallel driver (Algorithm 3);
5. evaluate the model at held-out coordinates.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import SparseTensor, decompose, tucker_fit
from repro.core import HOOIOptions
from repro.parallel import ParallelConfig, shared_hooi


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. A sparse tensor with known low-rank structure: a planted
    #    rank-(4,3,2) Tucker model plus a little noise, stored in COO form.
    # ------------------------------------------------------------------ #
    from repro.data import random_tucker_tensor   # noqa: deferred import for step 1

    rng = np.random.default_rng(42)
    truth = random_tucker_tensor(shape=(60, 50, 40), ranks=(4, 3, 2), seed=42)
    dense = truth.to_dense()
    dense += 0.01 * np.abs(dense).mean() * rng.standard_normal(dense.shape)
    observed = SparseTensor.from_dense(dense)
    print(f"observed tensor : {observed}")
    print(f"ground truth    : Tucker ranks {truth.ranks}")

    # You can also build tensors directly from coordinates:
    toy = SparseTensor(
        indices=np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0]]),
        values=np.array([1.0, -2.0, 0.5]),
        shape=(3, 3, 3),
    )
    print(f"toy tensor      : {toy}")

    # ------------------------------------------------------------------ #
    # 2. Sequential HOOI (Algorithm 1 of the paper), through the unified
    #    decompose() facade — every option is a plain keyword.
    # ------------------------------------------------------------------ #
    result = decompose(observed, (4, 3, 2),
                       max_iterations=10, init="hosvd", tolerance=1e-6, seed=0)
    print(f"\nHOOI finished after {result.iterations} iterations "
          f"(converged: {result.converged})")
    print("fit per iteration:", [round(f, 4) for f in result.fit_history])

    # ------------------------------------------------------------------ #
    # 3. Inspect the decomposition [[G; U1, U2, U3]].
    # ------------------------------------------------------------------ #
    model = result.decomposition
    print(f"\ncore tensor G shape      : {model.core.shape}")
    print(f"factor matrix shapes     : {[f.shape for f in model.factors]}")
    print(f"compression vs nonzeros  : {model.compression_ratio(observed.nnz):.1f}x")
    print(f"fit (1 - relative error) : {tucker_fit(observed, model):.4f}")
    print("per-step time breakdown  :",
          {k: f"{v:.3f}s" for k, v in result.timings.totals.items()})

    # ------------------------------------------------------------------ #
    # 4. Shared-memory parallel HOOI (Algorithm 3): same numerics, the
    #    TTMc's row-disjoint chunks on a thread team.  (The low-level driver is used
    #    here for its roofline report; `decompose(..., execution="thread")`
    #    runs the same backend.)
    # ------------------------------------------------------------------ #
    options = HOOIOptions(max_iterations=10, init="hosvd", tolerance=1e-6, seed=0)
    report = shared_hooi(
        observed, (4, 3, 2), options, config=ParallelConfig(num_threads=4)
    )
    print(f"\nthreaded HOOI fit        : {report.result.fit:.4f} "
          f"({report.num_threads} threads, "
          f"{report.measured_seconds_per_iteration * 1e3:.1f} ms/iter measured)")

    # ------------------------------------------------------------------ #
    # 4b. True multicore: the same row-parallel decomposition on worker
    #     processes with zero-copy shared memory (GIL-free numerics).
    # ------------------------------------------------------------------ #
    process_result = decompose(observed, (4, 3, 2),
                               execution="process", num_workers=4,
                               max_iterations=10, init="hosvd",
                               tolerance=1e-6, seed=0)
    print(f"process HOOI fit         : {process_result.fit:.4f} "
          "(4 worker processes, results identical to sequential)")

    # ------------------------------------------------------------------ #
    # 5. Predict held-out entries with the fitted model.
    # ------------------------------------------------------------------ #
    rng = np.random.default_rng(7)
    held_out = np.column_stack([rng.integers(0, s, 1000) for s in observed.shape])
    predicted = model.reconstruct_entries(held_out)
    actual = truth.reconstruct_entries(held_out)
    rmse = float(np.sqrt(np.mean((predicted - actual) ** 2)))
    print(f"\nheld-out RMSE vs ground truth: {rmse:.4f} "
          f"(value scale ~{np.std(actual):.3f})")


if __name__ == "__main__":
    main()
