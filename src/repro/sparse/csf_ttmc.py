"""Fiber-vectorized TTMc kernels over CSF trees.

The COO kernel (:func:`repro.core.ttmc.ttmc_matricized`) expands, for every
nonzero, the full ``(N−1)``-way Kronecker row of width ``∏_{t≠n} R_t`` before
reducing by output row — ``O(nnz · ∏R)`` multiply work no matter how much
structure the tensor has.  On a CSF tree the same sum factors over the fiber
hierarchy:

* **pullup** (towards the root): the partial product of the levels *below*
  a node is shared by everything above it, so each level is one batched
  gather + row-wise Kronecker + one segment reduction over the fiber
  extents (``np.add.reduceat(contrib, fptr[level - 1][:-1])``).  The widths
  grow level by level while the node counts shrink — the expansion to the
  full ``∏R`` width happens over *merged fibers*, not raw nonzeros;
* **pushdown** (from the root): the partial product of the levels *above*
  the target is the same for every node of a subtree, so it is built once
  per node by expanding the parent level (``np.repeat`` over child counts)
  and Kronecker-multiplying the level's own factor rows.

The target mode's level splits the tree: ``Y_(n)`` rows are the kron of each
target node's pushdown and pullup vectors, segment-summed by target index.
With the target at the root (a :func:`~repro.sparse.csf.rooted_mode_order`
tree) the pushdown vanishes and the output rows are exactly the sorted,
unique root fibers — the layout the CSF plan's executors exploit: contiguous
*root-fiber slabs* map to disjoint output rows, so workers write lock-free
(``make_chunks`` schedules over root fibers, mirroring the paper's row
decomposition).

There is no per-nonzero (or per-fiber) Python loop anywhere: every level is
a constant number of NumPy calls.  Results match ``ttmc_matricized`` in
shape, column order (mode-ascending, first mode fastest) and dtype promotion
to 1e-10 — the tree only reassociates the floating-point sums.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kron import batch_kron_rows, kron_dtype, kron_row_length
from repro.core.ttmc import _factor_widths
from repro.sparse.csf import CSFTensor
from repro.util.validation import check_axis, check_same_order

__all__ = ["csf_slab_chunk", "csf_ttmc_compact", "csf_ttmc_matricized"]


def _csf_dtype(
    csf: CSFTensor, factors: Sequence[Optional[np.ndarray]], mode: int
) -> np.dtype:
    """Promoted compute dtype — the COO kernel's rule applied to the tree."""
    operands = [csf.values] + [f for t, f in enumerate(factors) if t != mode]
    return kron_dtype(*[np.asarray(a) for a in operands if a is not None])


def _cast_factors(
    csf: CSFTensor, factors: Sequence[Optional[np.ndarray]], mode: int, dtype
) -> List[Optional[np.ndarray]]:
    return [
        None if t == mode else np.asarray(factors[t], dtype=dtype)
        for t in range(csf.order)
    ]


def _level_ranges(csf: CSFTensor, start: int, stop: int) -> List[Tuple[int, int]]:
    """Node ranges of every level covered by root fibers ``[start, stop)``.

    Children of contiguous parents are contiguous (the tree is built from a
    lexicographic sort), so a root-fiber slab owns one contiguous node range
    per level — the property that makes slab workers independent.
    """
    ranges = [(start, stop)]
    for level in range(1, csf.order):
        lo, hi = ranges[-1]
        ranges.append(
            (int(csf.fptr[level - 1][lo]), int(csf.fptr[level - 1][hi]))
        )
    return ranges


def _leaf_values(
    csf: CSFTensor, lo: int, hi: int, dtype: np.dtype, workspace
) -> np.ndarray:
    """The ``(hi - lo, 1)`` leaf-level partial products (the values).

    When the tree's values already have the compute dtype this is a zero-copy
    view; a dtype-policy cast (float32 engine over float64 values) draws its
    destination from ``workspace`` so steady-state sweeps do not reallocate
    the cast buffer every call.
    """
    values = csf.values[lo:hi]
    if values.dtype == dtype:
        return values.reshape(-1, 1)
    if workspace is None:
        return np.ascontiguousarray(values, dtype=dtype).reshape(-1, 1)
    below = workspace.take((hi - lo, 1), dtype, tag=f"{csf._token}-vals")
    below[:, 0] = values
    return below


def _pullup(
    csf: CSFTensor,
    factor_arrays: Sequence[Optional[np.ndarray]],
    dtype: np.dtype,
    target_level: int,
    ranges: Sequence[Tuple[int, int]],
    workspace,
    table=None,
) -> np.ndarray:
    """Bottom-up partial products: one row per node at ``target_level``.

    Row ``p`` holds ``Σ_{z ∈ subtree(p)} vals[z] · kron(U rows of the levels
    below ``target_level``)`` with deeper levels varying fastest.  Buffers
    draw from ``workspace`` (tagged per tree/level, so repeated sweeps reuse
    them); pass ``None`` from concurrent workers.  ``table`` (a
    :class:`repro.kernels.KernelTable`) swaps each level's
    gather/kron/``reduceat`` triple for the fused compiled walk over the
    fiber extents — same numerics, no per-level contribution temporary.
    """
    lo, hi = ranges[csf.order - 1]
    below = _leaf_values(csf, lo, hi, dtype, workspace)
    for level in range(csf.order - 1, target_level, -1):
        lo, hi = ranges[level]
        parent_lo, parent_hi = ranges[level - 1]
        mode_here = csf.mode_order[level]
        factor = factor_arrays[mode_here]
        width = below.shape[1] * factor.shape[1]
        reduced = (
            workspace.take(
                (parent_hi - parent_lo, width), dtype,
                tag=f"{csf._token}-below-{target_level}-{level}",
            )
            if workspace is not None
            else np.empty((parent_hi - parent_lo, width), dtype=dtype)
        )
        if table is not None:
            table.csf_pullup_level(
                below, factor, csf.fids[level], csf.fptr[level - 1],
                lo, parent_lo, parent_hi, reduced,
            )
        else:
            factor_rows = factor[csf.fids[level][lo:hi]]
            scratch = (
                workspace.take(
                    (hi - lo, width), dtype,
                    tag=f"{csf._token}-kron-{target_level}-{level}",
                )
                if workspace is not None
                else None
            )
            # Deeper levels stay fastest: kron_rows([below, factor_rows]).
            contrib = batch_kron_rows([below, factor_rows], out=scratch)
            segments = csf.fptr[level - 1][parent_lo:parent_hi] - lo
            np.add.reduceat(contrib, segments, axis=0, out=reduced)
        below = reduced
    return below


def _pushdown(
    csf: CSFTensor,
    factor_arrays: Sequence[Optional[np.ndarray]],
    target_level: int,
    workspace=None,
    table=None,
) -> np.ndarray:
    """Top-down ancestor products: one row per node at ``target_level``.

    Row ``p`` holds ``kron(U rows of p's ancestors at levels
    0..target_level−1)`` with deeper levels varying fastest.  ``table``
    fuses each level's parent expansion (``np.repeat``) and Kronecker
    refinement into one compiled pass; its per-level outputs draw from
    ``workspace`` like the pullup buffers do.
    """
    root_factor = factor_arrays[csf.mode_order[0]]
    dtype = root_factor.dtype
    if workspace is not None:
        above = workspace.take(
            (csf.num_fibers(0), root_factor.shape[1]), dtype,
            tag=f"{csf._token}-above-{target_level}-0",
        )
        np.take(root_factor, csf.fids[0], axis=0, out=above)
    else:
        above = root_factor[csf.fids[0]]
    for level in range(1, target_level + 1):
        if table is not None:
            refine = level < target_level
            width = above.shape[1] * (
                factor_arrays[csf.mode_order[level]].shape[1] if refine else 1
            )
            expanded = (
                workspace.take(
                    (csf.num_fibers(level), width), dtype,
                    tag=f"{csf._token}-above-{target_level}-{level}",
                )
                if workspace is not None
                else np.empty((csf.num_fibers(level), width), dtype=dtype)
            )
            if refine:
                table.csf_pushdown_level(
                    above, factor_arrays[csf.mode_order[level]],
                    csf.fids[level], csf.fptr[level - 1], expanded,
                )
            else:
                table.csf_pushdown_expand(above, csf.fptr[level - 1], expanded)
            above = expanded
        else:
            above = np.repeat(above, np.diff(csf.fptr[level - 1]), axis=0)
            if level < target_level:
                mode_here = csf.mode_order[level]
                factor_rows = factor_arrays[mode_here][csf.fids[level]]
                above = batch_kron_rows([factor_rows, above])
    return above


def _tree_axis_modes(csf: CSFTensor, target_level: int) -> List[int]:
    """Tree-layout kron axes (slowest to fastest), as tensor mode indices."""
    return [
        csf.mode_order[level]
        for level in range(csf.order)
        if level != target_level
    ]


def _columns_permuted(csf: CSFTensor, target_level: int) -> bool:
    """Whether tree layout differs from the engine's mode-ascending layout."""
    axis_modes = _tree_axis_modes(csf, target_level)
    return axis_modes != sorted(axis_modes, reverse=True)


def _to_engine_columns(
    block: np.ndarray,
    csf: CSFTensor,
    factor_arrays: Sequence[Optional[np.ndarray]],
    target_level: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Permute tree-layout columns to the engine's mode-ascending layout.

    Tree layout orders the kron axes by level (deeper fastest); the engine's
    matricization orders them by mode index (smaller modes fastest).  Both
    are fixed interleavings, so one transpose of the reshaped width axis —
    applied once to the assembled block, not per fiber — converts between
    them.  When the layouts already agree, ``block`` itself is returned and
    ``out`` is ignored; otherwise the permutation lands in ``out`` when
    given (a pooled buffer or an output slice), or in a fresh array.
    """
    axis_modes = _tree_axis_modes(csf, target_level)
    desired = sorted(axis_modes, reverse=True)  # engine: smallest mode fastest
    if axis_modes == desired:
        return block
    widths = [factor_arrays[m].shape[1] for m in axis_modes]
    reshaped = block.reshape([block.shape[0]] + widths)
    axes = [0] + [1 + axis_modes.index(m) for m in desired]
    transposed = reshaped.transpose(axes)
    if out is None or not out.flags.c_contiguous:
        result = np.ascontiguousarray(transposed).reshape(block.shape[0], -1)
        if out is None:
            return result
        out[...] = result
        return out
    # Contiguous destination: reshape is a view, so the transpose is copied
    # straight into it with no intermediate.
    np.copyto(
        out.reshape(
            [block.shape[0]] + [widths[axis_modes.index(m)] for m in desired]
        ),
        transposed,
    )
    return out


def csf_slab_chunk(
    csf: CSFTensor,
    factors: Sequence[Optional[np.ndarray]],
    out: np.ndarray,
    start: int,
    stop: int,
    *,
    compact: bool = False,
    kernel: str = "numpy",
) -> None:
    """Root-fiber slab ``[start, stop)`` of a tree rooted at its target mode.

    The CSF plan's chunk body, run by every executor that splits a mode:
    a pure pullup over the slab's contiguous node ranges, column-permuted
    into engine layout and assigned to the slab's root-fiber rows of
    ``out`` — ``out[csf.fids[0][start:stop]]`` for a full ``(I_n, ∏R_t)``
    buffer, ``out[start:stop]`` when ``compact``.  Slabs own disjoint output
    rows, so concurrent workers write lock-free.
    """
    from repro.kernels import kernel_table

    mode = csf.mode_order[0]
    factor_arrays = _cast_factors(csf, factors, mode, out.dtype)
    slab = _pullup(
        csf, factor_arrays, out.dtype, 0,
        _level_ranges(csf, start, stop), None, kernel_table(kernel),
    )
    rows = slice(start, stop) if compact else csf.fids[0][start:stop]
    out[rows] = _to_engine_columns(slab, csf, factor_arrays, 0)


def csf_ttmc_compact(
    csf: CSFTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    workspace=None,
    kernel: str = "numpy",
) -> Tuple[np.ndarray, np.ndarray]:
    """Compact mode-``n`` TTMc: ``(rows, block)`` over the non-empty rows.

    ``rows`` is the sorted array ``J_n`` of mode-``n`` indices with at least
    one nonzero and ``block[p]`` is ``Y_(n)(rows[p], :)`` — the same numbers
    :func:`repro.core.ttmc.ttmc_matricized` scatters into the full
    ``(I_n, ∏R_t)`` matrix, without materializing the empty rows (the form
    the distributed driver's row-block seam consumes).

    ``kernel`` selects the inner-loop tier: ``"numpy"`` is the vectorized
    gather/kron/``reduceat`` pipeline documented above, ``"numba"`` walks the
    same fiber extents with the fused compiled loops of
    :mod:`repro.kernels` — one pass per level, no contribution temporaries,
    identical numerics (the summation order per output entry is unchanged).
    """
    from repro.kernels import kernel_table

    mode = check_axis(mode, csf.order)
    check_same_order(csf.order, factors, "factors")
    widths = _factor_widths(factors, csf.shape, mode)
    width = kron_row_length(widths)
    target_level = csf.level_of(mode)
    dtype = _csf_dtype(csf, factors, mode)

    if csf.nnz == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, width), dtype=dtype),
        )

    factor_arrays = _cast_factors(csf, factors, mode, dtype)
    table = kernel_table(kernel)
    num_roots = csf.num_fibers(0)

    def _cols_out(num_rows: int) -> Optional[np.ndarray]:
        """Pooled destination for the column permutation (None = allocate)."""
        if workspace is None or not _columns_permuted(csf, target_level):
            return None
        return workspace.take(
            (num_rows, width), dtype, tag=f"{csf._token}-cols-{target_level}"
        )

    ranges = _level_ranges(csf, 0, num_roots)
    below = _pullup(
        csf, factor_arrays, dtype, target_level, ranges, workspace, table
    )
    if target_level == 0:
        return csf.fids[0], _to_engine_columns(
            below, csf, factor_arrays, 0, out=_cols_out(num_roots)
        )

    above = _pushdown(csf, factor_arrays, target_level, workspace, table)
    perm, rows, boundaries = csf.target_grouping(target_level)
    # Group the narrow pullup/pushdown vectors by target index *before* the
    # full-width expansion: gathering two width-R^k blocks is much cheaper
    # than gathering the expanded ∏R-wide rows.  The two full-width buffers
    # (the expanded node rows and the per-row sums) draw from the pool like
    # the pullup levels do, so deep-target sweeps also stop allocating once
    # the pool is warm.
    block = (
        workspace.take(
            (rows.shape[0], width), dtype,
            tag=f"{csf._token}-deep-out-{target_level}",
        )
        if workspace is not None
        else np.empty((rows.shape[0], width), dtype=dtype)
    )
    if table is not None:
        # Fused gather + kron + segment-sum straight into the output block:
        # the ∏R-wide per-node expansion never materializes.
        table.csf_target_accumulate(
            below, above, perm, boundaries, perm.shape[0], block
        )
    else:
        scratch = (
            workspace.take(
                (perm.shape[0], width), dtype,
                tag=f"{csf._token}-deep-kron-{target_level}",
            )
            if workspace is not None
            else None
        )
        y_nodes = batch_kron_rows([below[perm], above[perm]], out=scratch)
        np.add.reduceat(y_nodes, boundaries, axis=0, out=block)
    return rows, _to_engine_columns(
        block, csf, factor_arrays, target_level, out=_cols_out(rows.shape[0])
    )


def csf_ttmc_matricized(
    csf: CSFTensor,
    factors: Sequence[Optional[np.ndarray]],
    mode: int,
    *,
    out: Optional[np.ndarray] = None,
    workspace=None,
    zero: str = "full",
    kernel: str = "numpy",
) -> np.ndarray:
    """Mode-``n`` matricized TTMc ``Y_(n)`` served from a CSF tree.

    Matches :func:`repro.core.ttmc.ttmc_matricized` in shape, column order
    and dtype promotion (to reassociation-level rounding).  ``out``/``zero``
    follow the same contract: every ``J_n`` row is *assigned*, so
    ``zero="none"`` suffices whenever the caller keeps the empty rows zero
    (the engine's pooled per-mode buffers do); ``"touched"`` behaves the
    same here, ``"full"`` (default) memsets the whole buffer first.
    ``kernel`` is forwarded to :func:`csf_ttmc_compact`.
    """
    mode = check_axis(mode, csf.order)
    if zero not in ("full", "touched", "none"):
        raise ValueError(f"unknown zero policy {zero!r}")
    rows, block = csf_ttmc_compact(
        csf, factors, mode, workspace=workspace, kernel=kernel
    )
    n_rows = csf.shape[mode]
    width = block.shape[1]
    dtype = block.dtype
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
    if rows.shape[0]:
        out[rows] = block
    return out
