"""Symbolic TTMc (the paper's preprocessing step, Section III-A.1).

For each mode ``n`` the numeric TTMc accumulates one outer/Kronecker product
per nonzero into the row ``Y_(n)(i_n, :)`` of the matricized result.  Two
nonzeros sharing the same mode-``n`` index therefore write to the same row —
the write conflict the paper untangles by building, once and for all before
the HOOI iterations, the *update list* ``ul_n(i)``: the list of nonzeros that
contribute to row ``i``, together with the set ``J_n`` of non-empty rows.

Here the update lists are stored CSR-style: a permutation of nonzero positions
grouped by mode-``n`` index plus a row-pointer array.  This keeps the numeric
kernel fully vectorized (a gather + segment-sum) and is exactly the reusable
"symbolic data" of Algorithm 3, lines 1-2 and Algorithm 4, lines 1-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sparse_tensor import SparseTensor
from repro.util.validation import check_axis

__all__ = [
    "ModeSymbolic",
    "SymbolicTTMc",
    "keyed_lex_order",
    "symbolic_ttmc",
    "symbolic_all_modes",
]


def _narrowest_unsigned(max_value: int) -> np.dtype:
    """The narrowest unsigned integer dtype holding ``0..max_value``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if max_value <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def keyed_lex_order(
    columns: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Stable lexicographic row order of a non-empty ``(m, k)`` integer array.

    Returns ``(perm, sorted_key)``: ``perm`` is exactly the permutation
    ``np.lexsort`` gives with column 0 most significant, and ``sorted_key``
    holds one integer per row in ``perm`` order, equal exactly when the rows
    are equal.  The rows are packed into one mixed-radix key over each
    column's value span, cast to the narrowest unsigned dtype, and ordered
    by one stable ``argsort`` — NumPy radix-sorts keys of 16 bits or less,
    which covers every edge of a tensor whose mode pairs span ≤ 65536
    index values.  Equal keys keep their input order, as lexsort's do, so
    the permutation is identical.  When the key would overflow ``int64``
    the multi-key lexsort runs instead and ``sorted_key`` is ``None``.
    """
    cols = np.asarray(columns)
    lo = cols.min(axis=0)
    span = [int(s) for s in cols.max(axis=0) - lo + 1]
    total = 1
    for s in span:
        total *= s
    if total - 1 > np.iinfo(np.int64).max:
        perm = np.lexsort(cols.T[::-1])
        return perm.astype(np.int64, copy=False), None
    key = cols[:, 0] - lo[0]
    for c in range(1, cols.shape[1]):
        key = key * span[c] + (cols[:, c] - lo[c])
    key = key.astype(_narrowest_unsigned(total - 1), copy=False)
    perm = np.argsort(key, kind="stable").astype(np.int64, copy=False)
    return perm, key[perm]


@dataclass(frozen=True)
class ModeSymbolic:
    """Update lists for a single mode.

    Attributes
    ----------
    mode:
        The mode this structure describes.
    rows:
        ``J_n`` — sorted array of mode-``n`` indices owning at least one
        nonzero (only these rows of ``Y_(n)`` are ever touched).
    perm:
        Permutation of nonzero positions such that nonzeros contributing to
        the same row are contiguous, ordered consistently with ``rows``.
    rowptr:
        Array of length ``len(rows) + 1``; nonzeros for ``rows[r]`` occupy
        ``perm[rowptr[r]:rowptr[r + 1]]``.
    """

    mode: int
    rows: np.ndarray
    perm: np.ndarray
    rowptr: np.ndarray

    @property
    def num_rows(self) -> int:
        """Number of non-empty rows (``|J_n|``)."""
        return int(self.rows.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.perm.shape[0])

    def update_list(self, row_index: int) -> np.ndarray:
        """Nonzero positions contributing to the given mode-``n`` index.

        ``row_index`` is a *tensor* index (an element of ``rows``), not a
        position into ``rows``; an empty array is returned for rows with no
        nonzeros, mirroring ``ul_n(i) = ∅``.
        """
        pos = np.searchsorted(self.rows, row_index)
        if pos >= self.rows.shape[0] or self.rows[pos] != row_index:
            return np.empty(0, dtype=np.int64)
        return self.perm[self.rowptr[pos]: self.rowptr[pos + 1]]

    def row_sizes(self) -> np.ndarray:
        """Number of contributing nonzeros per non-empty row."""
        return np.diff(self.rowptr)


class SymbolicTTMc:
    """Symbolic TTMc data for every mode of a tensor (``{ul_n, J_n}`` for all n)."""

    def __init__(self, tensor: SparseTensor, modes: Optional[Sequence[int]] = None):
        self.shape = tensor.shape
        self.order = tensor.order
        self.nnz = tensor.nnz
        self._per_mode: Dict[int, ModeSymbolic] = {}
        if modes is None:
            modes = range(tensor.order)
        for mode in modes:
            self._per_mode[check_axis(mode, tensor.order)] = symbolic_ttmc(
                tensor, mode
            )

    def __contains__(self, mode: int) -> bool:
        return mode in self._per_mode

    def __getitem__(self, mode: int) -> ModeSymbolic:
        mode = check_axis(mode, self.order)
        if mode not in self._per_mode:
            raise KeyError(f"symbolic data was not built for mode {mode}")
        return self._per_mode[mode]

    def modes(self) -> List[int]:
        return sorted(self._per_mode)


def symbolic_ttmc(tensor: SparseTensor, mode: int) -> ModeSymbolic:
    """Build the mode-``n`` update lists for ``tensor``.

    The construction is a single stable sort of the nonzero positions by their
    mode-``n`` index — O(nnz log nnz) — performed once and reused by every
    numeric TTMc in every HOOI iteration.  The index is sorted as its
    narrowest unsigned key (:func:`keyed_lex_order`), a radix sort for modes
    of up to 65536 indices.
    """
    mode = check_axis(mode, tensor.order)
    idx = tensor.indices[:, mode]
    if idx.shape[0] == 0:
        return ModeSymbolic(
            mode=mode,
            rows=np.empty(0, dtype=np.int64),
            perm=np.empty(0, dtype=np.int64),
            rowptr=np.zeros(1, dtype=np.int64),
        )
    perm, _ = keyed_lex_order(idx[:, None])
    sorted_idx = idx[perm]
    boundary = np.empty(sorted_idx.shape, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=boundary[1:])
    rows = sorted_idx[boundary]
    starts = np.flatnonzero(boundary).astype(np.int64)
    rowptr = np.concatenate([starts, [sorted_idx.shape[0]]]).astype(np.int64)
    return ModeSymbolic(mode=mode, rows=rows, perm=perm, rowptr=rowptr)


def symbolic_all_modes(tensor: SparseTensor) -> SymbolicTTMc:
    """Convenience wrapper building symbolic data for every mode."""
    return SymbolicTTMc(tensor)
