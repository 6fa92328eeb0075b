"""Subset-TTMc kernels: partial TTM chains over arbitrary mode subsets.

The per-mode TTMc (:mod:`repro.core.ttmc`) multiplies *all* modes but one in
a single pass over the nonzeros.  The dimension-tree evaluation
(:mod:`repro.engine.dimtree`) instead materializes *partial* chains — the
tensor multiplied by the factors of a subset ``M`` of the modes — and reuses
them between the modes whose TTMc shares that subset.  A partial chain is a
*semi-sparse* tensor: sparse over the free modes ``F = {0..N-1} \\ M`` and
dense over the multiplied ones, stored here as

* a :class:`FiberGrouping` — the distinct index tuples over ``F`` (the
  fibers) plus the CSR-style map from a finer grouping's fibers onto them,
  exactly the symbolic structure of the paper's update lists generalized
  from single modes to mode subsets; and
* a dense *payload* of shape ``(num_fibers, ∏_{t∈M} R_t)`` whose row for
  fiber ``(i_t)_{t∈F}`` equals ``Σ x · kron(U_t[i_t, :] for t ∈ M)`` over
  the nonzeros sharing that fiber.

Payload columns follow the same convention as :func:`repro.core.kron.kron_rows`
applied to the multiplied modes in *ascending* order with the lowest mode
varying fastest.  Because the dimension tree splits contiguous mode ranges,
a node's multiplied set is always a low block ``{0..lo-1}`` plus a high block
``{hi+1..N-1}``, and refining a chain by the sibling's (contiguous, middle)
range is the :func:`kron_insert` below — a single reshaped broadcast multiply
that keeps the ascending-mode column order intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.kron import batch_kron_rows, kron_row_length
from repro.core.symbolic import keyed_lex_order
from repro.core.ttmc import default_block_size

__all__ = [
    "EDGE_BLOCK_BYTES",
    "FiberGrouping",
    "group_fibers",
    "group_fibers_presorted",
    "subset_widths",
    "kron_insert",
    "edge_update_groups",
]

#: Scratch budget of one edge-update block: the widest per-block buffer (the
#: Kronecker-inserted rows) stays under it.  Smaller than the per-mode TTMc's
#: 64 MB because every block also gathers the parent payload and reduces
#: into a temporary of similar size, and a smaller block stays in cache —
#: 8 MB measured faster than 64 MB on the power-law bench tensor.
EDGE_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class FiberGrouping:
    """Distinct fibers of a mode subset and the map from parent fibers onto them.

    Attributes
    ----------
    indices:
        ``(num_groups, k)`` array of the distinct index tuples, in the
        lexicographic order produced by :func:`group_fibers`.
    perm:
        Permutation of parent-fiber positions such that positions mapping to
        the same group are contiguous, ordered consistently with ``indices``.
    segptr:
        Array of length ``num_groups + 1``; parent positions for group ``g``
        occupy ``perm[segptr[g]:segptr[g + 1]]``.
    contiguous:
        True when ``perm`` is the identity — group ``g``'s parent positions
        are literally the slice ``segptr[g]:segptr[g + 1]``.  Numeric passes
        may then read the parent payload through views instead of fancy
        gathers.  :func:`group_fibers_presorted` always produces contiguous
        groupings; :func:`group_fibers` never claims the flag (even when its
        sort happens to be the identity) so the flag stays a structural
        guarantee, not a data-dependent accident.
    """

    indices: np.ndarray
    perm: np.ndarray
    segptr: np.ndarray
    contiguous: bool = False

    @property
    def num_groups(self) -> int:
        return int(self.indices.shape[0])

    @property
    def num_parents(self) -> int:
        return int(self.perm.shape[0])

    def group_sizes(self) -> np.ndarray:
        """Number of parent fibers merged into each group."""
        return np.diff(self.segptr)


def group_fibers(index_columns: np.ndarray) -> FiberGrouping:
    """Group rows of an ``(m, k)`` index array by their tuple value.

    One stable sort of the rows' mixed-radix keys — done once per tree edge
    and reused by every numeric pass — generalizing
    :func:`repro.core.symbolic.symbolic_ttmc` from one mode to a mode
    subset.  The order is exactly a lexsort's (:func:`keyed_lex_order`,
    which falls back to the lexsort when the key would overflow).
    """
    cols = np.asarray(index_columns, dtype=np.int64)
    if cols.ndim != 2:
        raise ValueError("index_columns must be 2-D (fibers x modes)")
    m, k = cols.shape
    if k == 0:
        raise ValueError("cannot group fibers over an empty mode subset")
    if m == 0:
        return FiberGrouping(
            indices=np.empty((0, k), dtype=np.int64),
            perm=np.empty(0, dtype=np.int64),
            segptr=np.zeros(1, dtype=np.int64),
        )
    # The lowest mode is the most significant, so groups come out in
    # ascending tuple order.
    perm, sorted_key = keyed_lex_order(cols)
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    if sorted_key is None:
        sorted_cols = cols[perm]
        np.any(sorted_cols[1:] != sorted_cols[:-1], axis=1, out=boundary[1:])
    else:
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary).astype(np.int64)
    segptr = np.concatenate([starts, [m]]).astype(np.int64)
    return FiberGrouping(indices=cols[perm[starts]], perm=perm, segptr=segptr)


def group_fibers_presorted(index_columns: np.ndarray) -> FiberGrouping:
    """Group rows that are already in ascending lexicographic order.

    The CSF construction's change-flag walk, lifted to tree edges: when the
    parent's index tuples are lex-sorted, any *prefix* of its columns is
    non-decreasing too, so equal tuples are already contiguous and in order.
    The permutation is then the identity and the segment boundaries fall out
    of one vectorized row-change comparison — no sort.  This is how a
    CSF-sourced dimension tree derives every left-child grouping (and, since
    :func:`group_fibers` emits sorted tuples, every deeper grouping of a COO
    tree's sorted internal nodes).

    Equal-valued input rows must be adjacent; rows out of order would be
    silently split into separate groups, so callers are responsible for the
    sortedness invariant.
    """
    cols = np.asarray(index_columns, dtype=np.int64)
    if cols.ndim != 2:
        raise ValueError("index_columns must be 2-D (fibers x modes)")
    m, k = cols.shape
    if k == 0:
        raise ValueError("cannot group fibers over an empty mode subset")
    if m == 0:
        return FiberGrouping(
            indices=np.empty((0, k), dtype=np.int64),
            perm=np.empty(0, dtype=np.int64),
            segptr=np.zeros(1, dtype=np.int64),
            contiguous=True,
        )
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    np.any(cols[1:] != cols[:-1], axis=1, out=boundary[1:])
    starts = np.flatnonzero(boundary).astype(np.int64)
    segptr = np.concatenate([starts, [m]]).astype(np.int64)
    return FiberGrouping(
        indices=cols[boundary],
        perm=np.arange(m, dtype=np.int64),
        segptr=segptr,
        contiguous=True,
    )


def subset_widths(
    ranks: Sequence[Optional[int]], lo: int, hi: int
) -> Tuple[int, int]:
    """Dense widths of the low/high multiplied blocks around free range [lo, hi].

    Returns ``(∏_{t < lo} R_t, ∏_{t > hi} R_t)``.  Ranks inside the free
    range may be ``None`` (they are not multiplied and do not contribute).
    """
    lo_width = kron_row_length([int(r) for r in ranks[:lo]])
    hi_width = kron_row_length([int(r) for r in ranks[hi + 1 :]])
    return lo_width, hi_width


def kron_insert(
    payload: np.ndarray,
    middle: np.ndarray,
    lo_width: int,
    hi_width: int,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Insert a Kronecker block between a payload's low and high blocks.

    ``payload`` has shape ``(m, lo_width * hi_width)`` with the low block
    varying fastest; ``middle`` has shape ``(m, w)`` and corresponds to modes
    lying strictly *between* the low and high blocks in mode order.  The
    result, shape ``(m, lo_width * w * hi_width)``, keeps the ascending-mode
    column convention: low block fastest, then ``middle``, then the high
    block.  ``out`` must be C-contiguous when given (pool buffers are).
    """
    m, wp = payload.shape
    if wp != lo_width * hi_width:
        raise ValueError(
            f"payload width {wp} does not factor as lo {lo_width} x hi {hi_width}"
        )
    if middle.shape[0] != m:
        raise ValueError("payload and middle must have the same number of rows")
    w = middle.shape[1]
    dtype = np.result_type(payload, middle)
    if out is None:
        out = np.empty((m, wp * w), dtype=dtype)
    elif out.shape != (m, wp * w) or out.dtype != dtype:
        raise ValueError(
            f"out has shape {out.shape} / dtype {out.dtype}, expected "
            f"{(m, wp * w)} / {dtype}"
        )
    np.multiply(
        payload.reshape(m, hi_width, 1, lo_width),
        middle.reshape(m, 1, w, 1),
        out=out.reshape(m, hi_width, w, lo_width),
    )
    return out


def edge_update_groups(
    grouping: FiberGrouping,
    group_start: int,
    group_stop: int,
    parent_payload: np.ndarray,
    parent_index_cols: np.ndarray,
    sibling_cols: Sequence[int],
    sibling_factors: Sequence[np.ndarray],
    lo_width: int,
    hi_width: int,
    out: np.ndarray,
    *,
    block_nnz: Optional[int] = None,
    workspace=None,
) -> np.ndarray:
    """Numeric refinement of one tree edge for a contiguous range of groups.

    For each group ``g`` in ``[group_start, group_stop)`` this accumulates

        ``out[g - group_start] = Σ_p  payload[p] ⊗ kron(U_t[i_t(p)], t ∈ S)``

    over the parent fibers ``p`` mapping to ``g``, where ``S`` is the sibling
    mode set (``sibling_cols`` are its columns in ``parent_index_cols``,
    ``sibling_factors`` its factor matrices in the same ascending-mode order)
    and the Kronecker insertion keeps the payload column convention.

    ``out`` (zeroed here) covers only the requested group range, so disjoint
    ranges can be filled concurrently by different workers — the row-parallel,
    lock-free decomposition every dimension-tree executor shares.
    ``workspace`` supplies the per-block scratch buffers and must be ``None``
    when called from concurrent workers (the pool is not thread-safe).
    """
    out[:] = 0
    count = group_stop - group_start
    if count <= 0:
        return out
    dtype = out.dtype
    sib_width = kron_row_length([f.shape[1] for f in sibling_factors])
    child_width = out.shape[1]
    p0 = int(grouping.segptr[group_start])
    p1 = int(grouping.segptr[group_stop])
    total = p1 - p0
    if total == 0:
        return out
    # A contiguous grouping's perm is the identity: parent fibers for the
    # requested range are literally rows p0:p1, so each block below reads the
    # payload and index columns through slice views instead of fancy gathers.
    # The block order, segment boundaries and accumulation order are the same
    # either way, so both paths produce bit-identical payloads.
    positions = None if grouping.contiguous else grouping.perm[p0:p1]
    counts = np.diff(grouping.segptr[group_start : group_stop + 1])
    local_rows = np.repeat(np.arange(count, dtype=np.int64), counts)
    if block_nnz is None:
        block_nnz = default_block_size(
            child_width, budget_bytes=EDGE_BLOCK_BYTES, itemsize=dtype.itemsize
        )

    for start in range(0, total, block_nnz):
        stop = min(start + block_nnz, total)
        chunk_rows = local_rows[start:stop]
        if positions is None:
            pay = parent_payload[p0 + start : p0 + stop]
            idx_rows = parent_index_cols[p0 + start : p0 + stop]
            blocks = [
                factor[idx_rows[:, col]]
                for col, factor in zip(sibling_cols, sibling_factors)
            ]
        else:
            chunk = positions[start:stop]
            pay = parent_payload[chunk]
            blocks = [
                factor[parent_index_cols[chunk, col]]
                for col, factor in zip(sibling_cols, sibling_factors)
            ]
        kron_scratch = (
            workspace.take((stop - start, sib_width), dtype, tag="dimtree-kron")
            if workspace is not None and len(blocks) > 1
            else None
        )
        kron = batch_kron_rows(blocks, out=kron_scratch)
        insert_scratch = (
            workspace.take(
                (stop - start, child_width), dtype, tag="dimtree-insert"
            )
            if workspace is not None
            else None
        )
        combined = kron_insert(pay, kron, lo_width, hi_width, out=insert_scratch)
        # chunk_rows is non-decreasing (perm is grouped), so the accumulation
        # is a segment-sum; a group split across blocks is handled by the +=.
        boundaries = np.flatnonzero(
            np.concatenate(([True], chunk_rows[1:] != chunk_rows[:-1]))
        )
        sums = np.add.reduceat(combined, boundaries, axis=0)
        out[chunk_rows[boundaries]] += sums
    return out
