"""Dimension-tree TTMc: memoized partial TTM chains over a binary mode tree.

The per-mode backend recomputes each mode's (N−1)-factor TTMc from scratch —
N chains of N−1 multiplies per HOOI sweep, O(N²) mode multiplications.  Kaya's
dimension-tree line of work observes that the chains overlap pairwise: a
binary tree over the mode set lets every internal node cache the partial
chain shared by all the leaves below it, cutting the per-sweep multiply count
to O(N log N).

Structure
---------
Each :class:`DimTreeNode` owns a contiguous *free* mode range ``[lo, hi]``
and represents the input tensor multiplied by the factors of every *other*
mode.  The root (free = all modes) is the raw tensor; a node's two children
split its range in half, each refining the parent's chain by the sibling's
modes; the leaf for mode ``n`` (free = ``{n}``) holds exactly the matricized
TTMc ``Y_(n)`` rows the factor update needs.  Values are *semi-sparse
intermediates* (:mod:`repro.core.subset_ttmc`): the distinct index tuples
over the free modes (fibers, merged once symbolically per edge) paired with
a dense payload over the multiplied ranks.

Caching and invalidation
------------------------
Every factor carries a version counter; each cached node payload records the
versions of the factors it multiplied by.  Refreshing ``U_n`` bumps version
``n``, which lazily invalidates every node whose free range *excludes* ``n``
— i.e. after an update only the root-to-leaf path of ``n`` stays fresh.
Nodes revalidate top-down on demand, so one HOOI sweep recomputes each
non-root node exactly once regardless of mode order.

Symbolic sources
----------------
The tree's groupings come either from per-edge keyed sorts over the COO index
matrix (``source="coo"``) or from a CSF fiber hierarchy with the identity
mode order (``source="csf"``): the CSF levels then coincide with the tree's
contiguous mode ranges, every left-child edge inherits contiguous,
already-sorted segments from its parent's sort order, and the numeric edge
updates run gather-free over payload slices.  The served ``Y_(n)`` is
identical either way, which is what lets ``tensor_format="csf"`` compose
with ``ttmc_strategy="dimtree"`` across all execution models.

Memory
------
Each node owns its payload buffer (allocated on its first evaluation and
refilled in place afterwards), trading ``Σ_nodes fibers × ∏ranks`` of
resident memory for the recomputation the per-mode strategy performs — the
tradeoff ``HOOIOptions.ttmc_strategy`` selects.  Only the per-block edge
scratch comes from the engine's
:class:`~repro.engine.workspace.WorkspacePool`.  Nodes refer to their parent
weakly, so the tree holds no reference cycle: dropping the tree frees its
index columns, groupings and payloads at once, without waiting for the
cyclic garbage collector.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kron import kron_dtype, kron_row_length
from repro.core.sparse_tensor import SparseTensor
from repro.core.subset_ttmc import (
    FiberGrouping,
    edge_update_groups,
    group_fibers,
    group_fibers_presorted,
    subset_widths,
)
from repro.engine.backend import gather_present_rows
from repro.util.validation import check_axis

__all__ = ["DimTreeNode", "DimensionTree"]


class DimTreeNode:
    """One node of the dimension tree: a contiguous free-mode range + cache."""

    __slots__ = (
        "node_id",
        "lo",
        "hi",
        "_parent",
        "left",
        "right",
        "sibling_modes",
        "sibling_cols",
        "grouping",
        "index_cols",
        "multiplied_modes",
        "payload",
        "cache_dtype",
        "cache_ranks",
        "dep_versions",
        "__weakref__",
    )

    def __init__(self, node_id: int, lo: int, hi: int, parent: Optional["DimTreeNode"]):
        self.node_id = node_id
        self.lo = lo
        self.hi = hi
        # Weak, so parent <-> child links form no reference cycle; the tree's
        # ``nodes`` list keeps every node alive while the tree is.
        self._parent = None if parent is None else weakref.ref(parent)
        self.left: Optional["DimTreeNode"] = None
        self.right: Optional["DimTreeNode"] = None
        self.sibling_modes: Tuple[int, ...] = ()
        self.sibling_cols: Tuple[int, ...] = ()
        self.grouping: Optional[FiberGrouping] = None
        self.index_cols: Optional[np.ndarray] = None
        self.multiplied_modes: Tuple[int, ...] = ()
        self.payload: Optional[np.ndarray] = None
        self.cache_dtype: Optional[np.dtype] = None
        self.cache_ranks: Optional[Tuple[int, ...]] = None
        self.dep_versions: Optional[Tuple[int, ...]] = None

    @property
    def parent(self) -> Optional["DimTreeNode"]:
        """The node one level up (``None`` at the root)."""
        return None if self._parent is None else self._parent()

    @property
    def modes(self) -> Tuple[int, ...]:
        """The node's free modes (its TTMc still has these modes unmultiplied)."""
        return tuple(range(self.lo, self.hi + 1))

    @property
    def is_leaf(self) -> bool:
        return self.lo == self.hi

    @property
    def num_fibers(self) -> int:
        return int(self.index_cols.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DimTreeNode(modes={self.modes}, fibers={self.num_fibers})"


class DimensionTree:
    """Symbolic dimension tree plus the per-factor-version payload cache.

    Built once per tensor (a keyed sort per edge, the analogue of the per-mode
    symbolic step); :meth:`leaf_matricized` then serves any mode's ``Y_(n)``,
    recomputing only the stale part of the root-to-leaf path, and
    :meth:`invalidate_factor` must be called whenever a factor matrix is
    replaced.  ``edge_updates`` counts numeric node recomputations — a steady
    HOOI sweep performs exactly ``len(nodes) - 1`` of them.

    ``source`` selects where the symbolic structure comes from:

    * ``"coo"`` (default) — the tree's root is the tensor's raw index matrix
      and every edge grouping is a :func:`group_fibers` keyed sort.
    * ``"csf"`` — the tree is built over a CSF fiber hierarchy
      (:class:`~repro.sparse.csf.CSFTensor` with the *identity* mode order,
      so the CSF levels coincide with the tree's contiguous mode ranges).
      The root holds the lexicographically sorted nonzeros, which makes
      every left-child grouping a prefix of a sorted parent: its segments
      are derived by the CSF change-flag walk
      (:func:`group_fibers_presorted`) with an identity permutation, and the
      numeric edge updates read the parent payload through contiguous slices
      instead of gathers.  Caching, invalidation and the served ``Y_(n)``
      are identical to the COO-sourced tree (fibers sort the same way —
      only the root row order and the grouping mechanics differ).

    Either way the sortedness of every non-root node's tuples (a
    :func:`group_fibers` postcondition) lets deeper left edges reuse the
    presorted walk too.
    """

    #: Legal values of the ``source`` constructor argument.
    SOURCES = ("coo", "csf")

    def __init__(self, tensor: SparseTensor, *, source: str = "coo") -> None:
        if tensor.order < 2:
            raise ValueError("a dimension tree requires a tensor of order >= 2")
        if source not in self.SOURCES:
            raise ValueError(
                f"unknown dimension-tree source {source!r}; expected one of "
                f"{self.SOURCES}"
            )
        self.shape = tensor.shape
        self.order = tensor.order
        self.source = source
        if source == "csf":
            from repro.sparse.csf import CSFTensor

            # Identity mode order: level ℓ of the fiber tree is mode ℓ, so
            # the CSF hierarchy *is* the left spine of the dimension tree and
            # the sorted expansion below is the root's index matrix.
            self.csf: Optional[CSFTensor] = CSFTensor(
                tensor, mode_order=tuple(range(tensor.order))
            )
            root_cols = self.csf.to_coo().indices
            self._values = self.csf.values
            root_sorted = True
        else:
            self.csf = None
            root_cols = tensor.indices
            self._values = tensor.values
            root_sorted = False
        self.nodes: List[DimTreeNode] = []
        self.leaves: List[Optional[DimTreeNode]] = [None] * self.order
        self.root = self._build(0, self.order - 1, None, root_cols, root_sorted)
        self._versions = [0] * self.order
        self.edge_updates = 0

    @property
    def root_values(self) -> np.ndarray:
        """Nonzero values aligned with the root's ``index_cols`` rows.

        For a COO-sourced tree these are the tensor's values verbatim; for a
        CSF-sourced tree they are the lexicographically sorted copy matching
        the sorted root index matrix.  The process pool serializes *these*
        (not the raw tensor's) so worker-side groupings see the same row
        order the driver's tree was built over.
        """
        return self._values

    # ------------------------------------------------------------------ #
    # Construction (symbolic)
    # ------------------------------------------------------------------ #
    def _build(
        self,
        lo: int,
        hi: int,
        parent: Optional[DimTreeNode],
        parent_index_cols: np.ndarray,
        parent_sorted: bool,
    ) -> DimTreeNode:
        node = DimTreeNode(len(self.nodes), lo, hi, parent)
        self.nodes.append(node)
        if parent is None:
            node.index_cols = np.asarray(parent_index_cols, dtype=np.int64)
        else:
            rel = [m - parent.lo for m in range(lo, hi + 1)]
            if parent_sorted and lo == parent.lo:
                # Left child of a lex-sorted parent: its grouping columns are
                # a prefix of the sort key, so the groups are already
                # contiguous and ordered — the CSF change-flag walk replaces
                # the sort (and marks the grouping contiguous, unlocking
                # the sliced edge-update fast path).
                node.grouping = group_fibers_presorted(parent_index_cols[:, rel])
            else:
                node.grouping = group_fibers(parent_index_cols[:, rel])
            node.index_cols = node.grouping.indices
            node.sibling_modes = tuple(
                m for m in parent.modes if not lo <= m <= hi
            )
            node.sibling_cols = tuple(m - parent.lo for m in node.sibling_modes)
        node.multiplied_modes = tuple(
            m for m in range(self.order) if not lo <= m <= hi
        )
        if lo == hi:
            self.leaves[lo] = node
        else:
            mid = (lo + hi) // 2
            # Children of any non-root node see sorted tuples (group_fibers
            # and the presorted walk both emit ascending order); only a COO
            # root's raw index matrix is unsorted.
            child_sorted = parent is not None or parent_sorted
            node.left = self._build(lo, mid, node, node.index_cols, child_sorted)
            node.right = self._build(
                mid + 1, hi, node, node.index_cols, child_sorted
            )
        return node

    def path(self, mode: int) -> List[DimTreeNode]:
        """Root-to-leaf node path for ``mode``."""
        mode = check_axis(mode, self.order)
        path = [self.root]
        node = self.root
        while not node.is_leaf:
            node = node.left if mode <= node.left.hi else node.right
            path.append(node)
        return path

    # ------------------------------------------------------------------ #
    # Cache state
    # ------------------------------------------------------------------ #
    def invalidate_factor(self, mode: int) -> None:
        """Mark factor ``mode`` as replaced.

        Lazily invalidates every cached node whose chain multiplied by the
        old ``U_mode`` — everything *off* the root-to-leaf path of ``mode``.
        """
        mode = check_axis(mode, self.order)
        self._versions[mode] += 1

    def node_is_fresh(self, node: DimTreeNode) -> bool:
        """Whether the node's cached payload reflects the current factors."""
        if node.payload is None:
            return False
        if node is self.root:
            return True
        return all(
            node.dep_versions[i] == self._versions[m]
            for i, m in enumerate(node.multiplied_modes)
        )

    def fresh_nodes(self) -> List[DimTreeNode]:
        """All nodes whose cache is valid under the current factor versions."""
        return [node for node in self.nodes if self.node_is_fresh(node)]

    # ------------------------------------------------------------------ #
    # Numeric evaluation
    # ------------------------------------------------------------------ #
    def leaf_matricized(
        self,
        mode: int,
        factors: Sequence[Optional[np.ndarray]],
        *,
        dtype=None,
        out: Optional[np.ndarray] = None,
        workspace=None,
        block_nnz: Optional[int] = None,
        executor=None,
        zero: str = "full",
        local_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Serve ``Y_(mode)`` from the tree, refreshing stale path nodes.

        Matches :func:`repro.core.ttmc.ttmc_matricized` in shape, column
        order and dtype promotion.  ``factors[mode]`` is never multiplied and
        may be ``None``.  ``workspace`` supplies the per-block edge scratch
        (node payloads are the tree's own).  ``executor`` says where a stale
        edge's fiber chunks run: ``None`` inline, a
        :class:`~repro.parallel.parallel_for.ParallelConfig`
        on a thread team (lock-free: each child fiber row has one writer), or
        a :class:`~repro.parallel.process_pool.HOOIProcessPool` built by
        ``for_dimtree``, which owns the shared payload buffers and refines
        them on its worker processes.  ``zero`` controls how much of a
        caller-provided ``out`` is cleared (``"full"``/``"touched"``/
        ``"none"``); the leaf rows are *assigned*, so ``"none"`` is
        sufficient when the caller keeps the empty rows zero (the engine's
        per-mode pooled buffers do).

        ``local_rows`` is the distributed driver's hook: a sorted array of
        global mode-``mode`` indices restricting the result to a compact
        ``(len(local_rows), ∏R_t)`` block whose row ``p`` holds
        ``Y_(mode)(local_rows[p], :)`` — only the rows a simulated MPI rank
        owns (coarse grain) or touches (fine grain).  Rows outside the
        tree's leaf fibers come back zero (a row with no local nonzeros
        contributes nothing), every output row is assigned exactly once, and
        ``zero`` is ignored.
        """
        mode = check_axis(mode, self.order)
        if zero not in ("full", "touched", "none"):
            raise ValueError(f"unknown zero policy {zero!r}")
        if len(factors) != self.order:
            raise ValueError(
                f"expected {self.order} factors, got {len(factors)}"
            )
        if dtype is None:
            dtype = kron_dtype(
                self._values, *[f for f in factors if f is not None]
            )
        dtype = np.dtype(dtype)
        ranks: List[Optional[int]] = []
        for t, factor in enumerate(factors):
            if factor is None:
                ranks.append(None)
                continue
            factor = np.asarray(factor)
            if factor.ndim != 2 or factor.shape[0] != self.shape[t]:
                raise ValueError(
                    f"factor for mode {t} must be 2-D with {self.shape[t]} rows"
                )
            ranks.append(int(factor.shape[1]))

        path = self.path(mode)
        for node in path:
            self._ensure_fresh(
                node, factors, ranks, dtype,
                workspace=workspace, block_nnz=block_nnz, executor=executor,
            )
        leaf = path[-1]

        width = kron_row_length(
            [ranks[t] for t in range(self.order) if t != mode]
        )
        if local_rows is not None:
            return self._leaf_local_block(leaf, local_rows, width, dtype, out)
        if out is None:
            out = np.zeros((self.shape[mode], width), dtype=dtype)
        else:
            if out.shape != (self.shape[mode], width) or out.dtype != dtype:
                raise ValueError(
                    f"out has shape {out.shape} / dtype {out.dtype}, expected "
                    f"{(self.shape[mode], width)} / {dtype}"
                )
            if zero == "full":
                out[:] = 0.0
            # "touched" degenerates to "none" here: the touched rows are the
            # leaf's fiber rows, which the assignment below overwrites anyway.
        if leaf.num_fibers:
            out[leaf.index_cols[:, 0]] = leaf.payload
        return out

    def _leaf_local_block(
        self,
        leaf: DimTreeNode,
        local_rows: np.ndarray,
        width: int,
        dtype,
        out: Optional[np.ndarray],
    ) -> np.ndarray:
        """Gather a fresh leaf's payload rows for a sorted set of global rows."""
        local_rows = np.asarray(local_rows, dtype=np.int64)
        shape = (local_rows.shape[0], width)
        if out is None:
            out = np.empty(shape, dtype=dtype)
        elif out.shape != shape or out.dtype != dtype:
            raise ValueError(
                f"out has shape {out.shape} / dtype {out.dtype}, expected "
                f"{shape} / {dtype}"
            )
        if local_rows.shape[0] == 0:
            return out
        # The leaf's fibers are its distinct mode indices in ascending order
        # (group_fibers sorts), so membership is one searchsorted.
        return gather_present_rows(
            leaf.index_cols[:, 0], leaf.payload, local_rows, out
        )

    def _ensure_fresh(
        self,
        node: DimTreeNode,
        factors,
        ranks,
        dtype,
        *,
        workspace,
        block_nnz,
        executor,
    ) -> None:
        if node is self.root:
            if node.payload is None or node.cache_dtype != dtype:
                node.payload = np.asarray(
                    self._values, dtype=dtype
                ).reshape(-1, 1)
                node.cache_dtype = dtype
            return
        sig = tuple(ranks[m] for m in node.multiplied_modes)
        if (
            node.cache_dtype == dtype
            and node.cache_ranks == sig
            and self.node_is_fresh(node)
        ):
            return

        parent = node.parent
        sibling_factors = [
            np.asarray(factors[m], dtype=dtype) for m in node.sibling_modes
        ]
        lo_width, hi_width = subset_widths(ranks, parent.lo, parent.hi)
        child_width = lo_width * hi_width * kron_row_length(
            [f.shape[1] for f in sibling_factors]
        )
        shape = (node.num_fibers, child_width)
        if hasattr(executor, "dimtree_edge"):
            # A process pool owns the payload buffer and performs the
            # refinement, fiber-parallel on its workers against
            # shared-memory views of this tree.
            payload = executor.dimtree_edge(node.node_id)
            if payload.shape != shape or payload.dtype != dtype:
                raise ValueError(
                    f"the pool returned a {payload.shape}/{payload.dtype} "
                    f"payload for node {node.node_id}, expected {shape}/{dtype}"
                )
        else:
            payload = node.payload
            if payload is None or payload.shape != shape or payload.dtype != dtype:
                payload = np.empty(shape, dtype=dtype)

            def chunk(start: int, stop: int, workspace=None) -> None:
                edge_update_groups(
                    node.grouping, start, stop,
                    parent.payload, parent.index_cols, node.sibling_cols,
                    sibling_factors, lo_width, hi_width, payload[start:stop],
                    block_nnz=block_nnz, workspace=workspace,
                )

            if executor is None:
                chunk(0, node.num_fibers, workspace)
            else:
                from repro.parallel.parallel_for import parallel_for

                # Thread workers allocate their scratch privately: the
                # workspace pool is not thread-safe.
                parallel_for(chunk, node.num_fibers, executor)
        node.payload = payload
        node.cache_dtype = dtype
        node.cache_ranks = sig
        node.dep_versions = tuple(
            self._versions[m] for m in node.multiplied_modes
        )
        self.edge_updates += 1
