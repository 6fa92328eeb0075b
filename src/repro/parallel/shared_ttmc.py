"""Shared-memory parallel numeric TTMc (Algorithm 3, lines 5-8).

The symbolic step guarantees that each non-empty row ``i ∈ J_n`` of ``Y_(n)``
is updated only from its own update list ``ul_n(i)``, so rows can be computed
fully independently — the paper's lock-free decomposition.  Here a chunk of
rows is one task: the worker gathers the chunk's nonzeros, performs the
batched Kronecker products and segment-sums them into the rows it owns.  No
two workers ever touch the same output row, so no locks are needed, exactly as
in the paper.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.core.kron import batch_kron_rows, kron_row_length
from repro.core.sparse_tensor import SparseTensor
from repro.core.symbolic import ModeSymbolic, symbolic_ttmc
from repro.core.ttmc import default_block_size, gather_ranges, ttmc_dtype
from repro.parallel.parallel_for import ParallelConfig, parallel_for
from repro.util.validation import check_axis, check_same_order

__all__ = ["ttmc_row_block", "ttmc_row_chunk", "parallel_ttmc_matricized"]


def ttmc_row_block(
    tensor: SparseTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    symbolic: ModeSymbolic,
    row_positions: np.ndarray,
    *,
    block_nnz: Optional[int] = None,
    kernel: str = "numpy",
) -> np.ndarray:
    """Compute a compact block of TTMc rows.

    ``row_positions`` indexes into ``symbolic.rows`` (i.e. positions of
    non-empty rows, not tensor indices); the result has shape
    ``(len(row_positions), prod R_t)`` with row ``p`` holding
    ``Y_(n)(symbolic.rows[row_positions[p]], :)``.  ``kernel`` selects the
    inner-loop tier (``"numpy"`` or the fused compiled ``"numba"`` loops of
    :mod:`repro.kernels`); either way each output row is written by exactly
    this call — the lock-free property the thread / process / distributed
    layers compose over is untouched.
    """
    from repro.kernels import kernel_table

    mode = check_axis(mode, tensor.order)
    check_same_order(tensor.order, factors, "factors")
    row_positions = np.asarray(row_positions, dtype=np.int64)
    widths = [
        np.asarray(factors[t]).shape[1] for t in range(tensor.order) if t != mode
    ]
    width = kron_row_length(widths)
    dtype = ttmc_dtype(tensor, factors, mode)
    out = np.zeros((row_positions.shape[0], width), dtype=dtype)
    if row_positions.shape[0] == 0:
        return out

    counts = symbolic.rowptr[row_positions + 1] - symbolic.rowptr[row_positions]
    positions = gather_ranges(symbolic.perm, symbolic.rowptr[row_positions], counts)

    table = kernel_table(kernel)
    if table is not None:
        from repro.core.ttmc import _compiled_factor_args

        rowptr = np.zeros(row_positions.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=rowptr[1:])
        factor_list, cols = _compiled_factor_args(
            tensor, factors, mode, dtype, table
        )
        table.coo_row_block_ttmc(
            tensor.indices,
            tensor.values,
            factor_list,
            cols,
            rowptr,
            np.ascontiguousarray(positions, dtype=np.int64),
            np.arange(row_positions.shape[0], dtype=np.int64),
            out,
        )
        return out

    # local (block-relative) output row of every gathered nonzero
    local_rows = np.repeat(np.arange(row_positions.shape[0], dtype=np.int64), counts)
    if positions.shape[0] == 0:
        return out

    if block_nnz is None:
        block_nnz = default_block_size(width, itemsize=dtype.itemsize)
    factor_arrays = [
        None if t == mode else np.asarray(factors[t], dtype=dtype)
        for t in range(tensor.order)
    ]
    for start in range(0, positions.shape[0], block_nnz):
        chunk = positions[start:start + block_nnz]
        chunk_rows = local_rows[start:start + chunk.shape[0]]
        idx = tensor.indices[chunk]
        blocks = [
            factor_arrays[t][idx[:, t]] for t in range(tensor.order) if t != mode
        ]
        kron = batch_kron_rows(blocks)
        kron *= tensor.values[chunk][:, None]
        boundaries = np.flatnonzero(
            np.concatenate(([True], chunk_rows[1:] != chunk_rows[:-1]))
        )
        sums = np.add.reduceat(kron, boundaries, axis=0)
        out[chunk_rows[boundaries]] += sums
    return out


def ttmc_row_chunk(
    tensor: SparseTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    symbolic: ModeSymbolic,
    out: np.ndarray,
    start: int,
    stop: int,
    *,
    positions: Optional[np.ndarray] = None,
    block_nnz: Optional[int] = None,
    kernel: str = "numpy",
) -> None:
    """One lock-free chunk of ``Y_(mode)`` — the COO plan's chunk body.

    Without ``positions`` the chunk is rows ``start:stop`` of ``J_n``,
    written to their global rows of a full ``(I_n, ∏R_t)`` buffer; with
    ``positions`` (sorted positions into ``symbolic.rows``) it is
    ``positions[start:stop]``, written to ``out[start:stop]`` of a compact
    block.  Every executor that splits a mode — thread team or worker
    process — runs exactly this, so each output row has one writer.
    """
    if positions is None:
        out[symbolic.rows[start:stop]] = ttmc_row_block(
            tensor, factors, mode, symbolic,
            np.arange(start, stop, dtype=np.int64),
            block_nnz=block_nnz, kernel=kernel,
        )
    else:
        out[start:stop] = ttmc_row_block(
            tensor, factors, mode, symbolic, positions[start:stop],
            block_nnz=block_nnz, kernel=kernel,
        )


def parallel_ttmc_matricized(
    tensor: SparseTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    symbolic: Optional[ModeSymbolic] = None,
    config: Optional[ParallelConfig] = None,
    out: Optional[np.ndarray] = None,
    block_nnz: Optional[int] = None,
    zero: str = "full",
    kernel: str = "numpy",
) -> np.ndarray:
    """Shared-memory parallel ``Y_(n) = (X ×_{-n} Uᵀ)_(n)``.

    The non-empty rows ``J_n`` are chunked according to ``config`` and each
    chunk is computed by :func:`ttmc_row_chunk` on a worker thread; workers
    write disjoint row slices of the shared output, so the loop is lock-free.

    ``zero`` controls how much of a caller-provided ``out`` is cleared:
    every ``J_n`` row is *assigned* (not accumulated) here, so ``"none"`` is
    sufficient whenever the caller guarantees the empty rows are already
    zero (the engine's per-mode pooled buffers are); ``"touched"`` re-zeroes
    the ``J_n`` rows, ``"full"`` (default) memsets the whole buffer.
    """
    mode = check_axis(mode, tensor.order)
    config = config or ParallelConfig()
    if zero not in ("full", "touched", "none"):
        raise ValueError(f"unknown zero policy {zero!r}")
    if symbolic is None:
        symbolic = symbolic_ttmc(tensor, mode)
    widths = [
        np.asarray(factors[t]).shape[1] for t in range(tensor.order) if t != mode
    ]
    width = kron_row_length(widths)
    n_rows = tensor.shape[mode]
    dtype = ttmc_dtype(tensor, factors, mode)
    if out is None:
        out = np.zeros((n_rows, width), dtype=dtype)
    else:
        if out.shape != (n_rows, width) or out.dtype != dtype:
            raise ValueError(
                f"out has shape {out.shape} / dtype {out.dtype}, expected "
                f"{(n_rows, width)} / {dtype}"
            )
        if zero == "full":
            out[:] = 0.0
        elif zero == "touched" and symbolic.num_rows:
            out[symbolic.rows] = 0.0
    if symbolic.num_rows == 0:
        return out

    parallel_for(
        partial(
            ttmc_row_chunk, tensor, factors, mode, symbolic, out,
            block_nnz=block_nnz, kernel=kernel,
        ),
        symbolic.num_rows,
        config,
    )
    return out
