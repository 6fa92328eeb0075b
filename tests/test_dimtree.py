"""Dimension-tree TTMc tests.

Covers the tentpole contract of the dimtree backend:

* tree construction for orders 3..6 — leaf/internal mode sets partition
  correctly and node fibers are exactly the distinct index tuples;
* the subset kernels (fiber grouping, Kronecker insertion) against explicit
  references;
* cache invalidation — after refreshing a factor, exactly the root-to-leaf
  path of that mode stays fresh, a steady HOOI sweep recomputes each
  non-root node once, and the pooled edge scratch stops allocating after
  warm-up and stays within two block budgets;
* memory lifetime — a finished run's tree is freed without the cyclic
  garbage collector;
* numeric equivalence of ``dimtree`` vs ``per-mode`` TTMc results and final
  HOOI fits on random and structured low-rank tensors in both dtypes
  (float64 to 1e-10; float32 to 1e-10 on exactly-representable data, where
  both strategies are bitwise-exact, and to machine-eps scale on random
  data, where summation order legitimately differs);
* the ``HOOIOptions.ttmc_strategy`` plumbing on the sequential and threaded
  drivers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    HOOIOptions,
    SparseTensor,
    group_fibers,
    hooi,
    kron_insert,
    kron_rows,
    subset_widths,
    ttmc_matricized,
)
from repro.data import planted_lowrank_tensor
from repro.engine import (
    COOPlan,
    DimensionTree,
    DimTreePlan,
    HOOIEngine,
    WorkspacePool,
    resolve_ttmc_backend,
)
from repro.parallel import ParallelConfig, shared_hooi
from repro.util.linalg import random_orthonormal


def _random_tensor(shape, nnz, seed) -> SparseTensor:
    rng = np.random.default_rng(seed)
    indices = np.column_stack(
        [rng.integers(0, s, size=nnz, dtype=np.int64) for s in shape]
    )
    values = rng.standard_normal(nnz)
    return SparseTensor(indices, values, shape, sum_duplicates=True)


def _factors(shape, ranks, seed=0):
    return [
        random_orthonormal(s, r, seed=seed + 31 * i)
        for i, (s, r) in enumerate(zip(shape, ranks))
    ]


_SHAPES = {
    3: ((12, 10, 9), (4, 3, 3)),
    4: ((10, 9, 8, 7), (3, 3, 2, 2)),
    5: ((8, 7, 6, 5, 4), (2, 2, 2, 2, 2)),
    6: ((6, 6, 5, 5, 4, 4), (2, 2, 2, 2, 2, 2)),
}


class TestTreeConstruction:
    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_mode_sets_partition(self, order):
        shape, _ = _SHAPES[order]
        tree = DimensionTree(_random_tensor(shape, 200, seed=order))
        assert tree.root.modes == tuple(range(order))
        assert [leaf.modes for leaf in tree.leaves] == [
            (n,) for n in range(order)
        ]
        for node in tree.nodes:
            if node.is_leaf:
                assert node.left is None and node.right is None
                continue
            left, right = node.left, node.right
            assert left.modes + right.modes == node.modes
            assert left.sibling_modes == right.modes
            assert right.sibling_modes == left.modes

    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_node_fibers_are_distinct_index_tuples(self, order):
        shape, _ = _SHAPES[order]
        tensor = _random_tensor(shape, 200, seed=10 + order)
        tree = DimensionTree(tensor)
        for node in tree.nodes:
            expected = np.unique(tensor.indices[:, list(node.modes)], axis=0)
            if node is tree.root:
                # The root keeps one fiber per nonzero (no merging needed).
                assert node.num_fibers == tensor.nnz
            else:
                assert np.array_equal(
                    np.unique(node.index_cols, axis=0), expected
                )
                assert node.num_fibers == expected.shape[0]

    def test_path_walks_root_to_leaf(self):
        shape, _ = _SHAPES[5]
        tree = DimensionTree(_random_tensor(shape, 150, seed=3))
        for mode in range(5):
            path = tree.path(mode)
            assert path[0] is tree.root
            assert path[-1] is tree.leaves[mode]
            for above, below in zip(path, path[1:]):
                assert below.parent is above
                assert mode in below.modes

    def test_order_one_rejected(self):
        tensor = SparseTensor(
            np.arange(5, dtype=np.int64).reshape(-1, 1), np.ones(5), (5,)
        )
        with pytest.raises(ValueError, match="order >= 2"):
            DimensionTree(tensor)


class TestSubsetKernels:
    def test_group_fibers_matches_unique(self):
        rng = np.random.default_rng(0)
        cols = rng.integers(0, 4, size=(60, 2))
        grouping = group_fibers(cols)
        uniq, counts = np.unique(cols, axis=0, return_counts=True)
        assert np.array_equal(grouping.indices, uniq)
        assert np.array_equal(grouping.group_sizes(), counts)
        for g in range(grouping.num_groups):
            members = grouping.perm[grouping.segptr[g] : grouping.segptr[g + 1]]
            assert np.array_equal(
                cols[members], np.tile(uniq[g], (len(members), 1))
            )

    def test_kron_insert_matches_explicit_kron(self):
        rng = np.random.default_rng(1)
        lo, mid, hi = 3, 4, 2
        low = rng.standard_normal((7, lo))
        middle = rng.standard_normal((7, mid))
        high = rng.standard_normal((7, hi))
        payload = np.stack([kron_rows([a, c]) for a, c in zip(low, high)])
        inserted = kron_insert(payload, middle, lo, hi)
        expected = np.stack(
            [kron_rows([a, b, c]) for a, b, c in zip(low, middle, high)]
        )
        assert np.allclose(inserted, expected, atol=1e-12)

    def test_subset_widths(self):
        assert subset_widths((2, 3, 4, 5), 1, 2) == (2, 5)
        assert subset_widths((2, 3, 4, 5), 0, 3) == (1, 1)
        assert subset_widths((2, None, None, 5), 1, 2) == (2, 5)


class TestCacheInvalidation:
    @pytest.fixture
    def tensor(self):
        shape, _ = _SHAPES[4]
        return _random_tensor(shape, 300, seed=21)

    @pytest.fixture
    def factors(self, tensor):
        _, ranks = _SHAPES[4]
        return _factors(tensor.shape, ranks)

    def test_fresh_set_is_root_to_leaf_path(self, tensor, factors):
        tree = DimensionTree(tensor)
        for mode in range(tensor.order):
            tree.leaf_matricized(mode, factors)
        assert set(map(id, tree.fresh_nodes())) == set(map(id, tree.nodes))
        for mode in range(tensor.order):
            tree.invalidate_factor(mode)
            fresh = tree.fresh_nodes()
            assert set(map(id, fresh)) == set(map(id, tree.path(mode)))
            # Recompute everything before checking the next mode.
            for m in range(tensor.order):
                tree.leaf_matricized(m, factors)

    def test_steady_sweep_recomputes_each_node_once(self, tensor, factors):
        tree = DimensionTree(tensor)
        for _ in range(3):
            before = tree.edge_updates
            for mode in range(tensor.order):
                tree.leaf_matricized(mode, factors)
                tree.invalidate_factor(mode)
            assert tree.edge_updates - before == len(tree.nodes) - 1

    def test_no_recompute_while_factors_unchanged(self, tensor, factors):
        tree = DimensionTree(tensor)
        for mode in range(tensor.order):
            tree.leaf_matricized(mode, factors)
        before = tree.edge_updates
        for mode in range(tensor.order):
            tree.leaf_matricized(mode, factors)
        assert tree.edge_updates == before

    def test_finished_run_frees_tree_without_cyclic_gc(self, monkeypatch):
        """Nodes link to their parent weakly: no cycle keeps a tree alive."""
        import gc
        import weakref

        from repro.engine import dimtree

        refs = []
        build = dimtree.DimensionTree.__init__

        def recording(self, *args, **kwargs):
            build(self, *args, **kwargs)
            refs.append(weakref.ref(self))
            refs.extend(weakref.ref(node) for node in self.nodes)

        monkeypatch.setattr(dimtree.DimensionTree, "__init__", recording)
        tensor = _random_tensor((12, 10, 8, 6), 400, seed=9)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = hooi(tensor, 2, HOOIOptions(
                max_iterations=2, ttmc_strategy="dimtree",
            ))
            assert len(refs) == 1 + 7  # the tree and its seven nodes
            assert all(ref() is None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()
        assert result.fit_history

    def test_edge_scratch_stays_within_two_blocks(self):
        """Every edge shares two capacity-keyed scratch buffers."""
        from repro.core.subset_ttmc import EDGE_BLOCK_BYTES

        shape, ranks = (60, 50, 40, 30), (8, 8, 8, 8)
        tensor = _random_tensor(shape, 60_000, seed=4)
        factors = _factors(shape, ranks)
        tree = DimensionTree(tensor)
        pool = WorkspacePool()
        for mode in range(tensor.order):
            tree.leaf_matricized(mode, factors, workspace=pool)
            tree.invalidate_factor(mode)
        # An edge's inserted rows (one per parent fiber, at the child's
        # width) exceed the budget, so the blocking is binding.
        widest = max(
            node.grouping.num_parents * node.payload[:1].nbytes
            for node in tree.nodes if node is not tree.root
        )
        assert widest > 2 * EDGE_BLOCK_BYTES
        # Node payloads are the tree's own; the pool holds only the scratch.
        assert pool.nbytes() <= 2 * EDGE_BLOCK_BYTES

    def test_pooled_node_buffers_stop_allocating(self, tensor, factors):
        tree = DimensionTree(tensor)
        pool = WorkspacePool()
        for mode in range(tensor.order):
            tree.leaf_matricized(mode, factors, workspace=pool)
            tree.invalidate_factor(mode)
        warm = pool.allocations
        for _ in range(2):
            for mode in range(tensor.order):
                tree.leaf_matricized(mode, factors, workspace=pool)
                tree.invalidate_factor(mode)
        assert pool.allocations == warm
        assert pool.reuses > 0


class TestEquivalence:
    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_ttmc_matches_per_mode_float64(self, order):
        shape, ranks = _SHAPES[order]
        tensor = _random_tensor(shape, 350, seed=40 + order)
        factors = _factors(shape, ranks)
        tree = DimensionTree(tensor)
        for mode in range(order):
            expected = ttmc_matricized(tensor, factors, mode)
            got = tree.leaf_matricized(mode, factors)
            assert got.shape == expected.shape
            assert np.allclose(got, expected, atol=1e-10)

    def test_ttmc_matches_on_structured_lowrank(self):
        tensor, _ = planted_lowrank_tensor(
            (14, 12, 10, 8), (3, 2, 2, 2), 1200, seed=9
        )
        factors = _factors(tensor.shape, (3, 3, 2, 2), seed=5)
        tree = DimensionTree(tensor)
        for mode in range(tensor.order):
            expected = ttmc_matricized(tensor, factors, mode)
            got = tree.leaf_matricized(mode, factors)
            assert np.allclose(got, expected, atol=1e-10)

    def test_ttmc_float32_exact_on_representable_data(self):
        # Values and factor entries are small dyadic rationals, so every
        # product is an integer multiple of 2^-12 far below 2^24 and every
        # partial sum is exact in float32 regardless of association: the two
        # strategies must agree to 1e-10 (in fact bitwise).
        rng = np.random.default_rng(17)
        shape = (12, 10, 9, 8)
        indices = np.column_stack(
            [rng.integers(0, s, size=300, dtype=np.int64) for s in shape]
        )
        values = rng.choice([-2.0, -1.0, 1.0, 2.0], size=300)
        tensor = SparseTensor(
            indices, values, shape, sum_duplicates=True, dtype="float32"
        )
        factors = [
            (rng.integers(-4, 5, size=(s, 3)) / 16.0).astype(np.float32)
            for s in shape
        ]
        tree = DimensionTree(tensor)
        for mode in range(tensor.order):
            expected = ttmc_matricized(tensor, factors, mode)
            got = tree.leaf_matricized(mode, factors)
            assert got.dtype == np.float32
            assert np.abs(got - expected).max() <= 1e-10

    def test_ttmc_float32_random_within_eps(self):
        shape, ranks = _SHAPES[4]
        tensor = _random_tensor(shape, 350, seed=51).astype(np.float32)
        factors = [
            f.astype(np.float32) for f in _factors(shape, ranks, seed=3)
        ]
        tree = DimensionTree(tensor)
        for mode in range(tensor.order):
            expected = ttmc_matricized(tensor, factors, mode)
            got = tree.leaf_matricized(mode, factors)
            assert got.dtype == np.float32
            # Summation order differs between the strategies; agreement is
            # bounded by float32 machine epsilon, not 1e-10.
            assert np.allclose(got, expected, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_hooi_fit_matches_per_mode(self, dtype):
        tensor, _ = planted_lowrank_tensor((24, 20, 16, 12), (3, 3, 2, 2), 2500, seed=2)
        options = dict(max_iterations=4, init="hosvd", seed=0, dtype=dtype)
        per_mode = hooi(
            tensor, (3, 3, 2, 2), HOOIOptions(ttmc_strategy="per-mode", **options)
        )
        dimtree = hooi(
            tensor, (3, 3, 2, 2),
            HOOIOptions(ttmc_strategy="dimtree", **options),
        )
        tol = 1e-10 if dtype == "float64" else 1e-4
        assert np.allclose(
            per_mode.fit_history, dimtree.fit_history, atol=tol
        )

    def test_hooi_fit_matches_on_random_tensor(self):
        tensor = _random_tensor((30, 24, 18), 2500, seed=8)
        options = dict(max_iterations=4, seed=0)
        per_mode = hooi(
            tensor, (4, 4, 3), HOOIOptions(ttmc_strategy="per-mode", **options)
        )
        dimtree = hooi(
            tensor, (4, 4, 3), HOOIOptions(ttmc_strategy="dimtree", **options)
        )
        assert np.allclose(
            per_mode.fit_history, dimtree.fit_history, atol=1e-10
        )

    def test_threaded_dimtree_matches_sequential(self):
        shape, ranks = _SHAPES[4]
        tensor = _random_tensor(shape, 400, seed=61)
        factors = _factors(shape, ranks, seed=7)
        tree = DimensionTree(tensor)
        config = ParallelConfig(num_threads=3)
        for mode in range(tensor.order):
            expected = ttmc_matricized(tensor, factors, mode)
            got = tree.leaf_matricized(mode, factors, executor=config)
            assert np.allclose(got, expected, atol=1e-10)


class TestLeafLocalRows:
    """The distributed driver's hook: compact leaf blocks over chosen rows."""

    @pytest.mark.parametrize("order", [3, 4])
    def test_block_matches_full_result_rows(self, order):
        shape, ranks = _SHAPES[order]
        tensor = _random_tensor(shape, 300, seed=17)
        factors = _factors(shape, ranks, seed=3)
        tree = DimensionTree(tensor)
        rng = np.random.default_rng(5)
        for mode in range(order):
            full = tree.leaf_matricized(mode, factors)
            # A sorted mix of non-empty and (possibly) empty rows.
            rows = np.unique(rng.integers(0, shape[mode], 6))
            block = tree.leaf_matricized(
                mode, factors, local_rows=rows
            )
            assert block.shape == (rows.shape[0], full.shape[1])
            assert np.allclose(block, full[rows], atol=1e-12)

    def test_rows_without_local_nonzeros_come_back_zero(self):
        shape, ranks = _SHAPES[3]
        tensor = _random_tensor(shape, 40, seed=2)
        factors = _factors(shape, ranks, seed=1)
        tree = DimensionTree(tensor)
        empty_rows = np.setdiff1d(
            np.arange(shape[0]), tensor.nonempty_rows(0)
        )
        if empty_rows.size:
            block = tree.leaf_matricized(
                0, factors, local_rows=empty_rows[:3]
            )
            assert not block.any()

    def test_empty_row_set(self):
        shape, ranks = _SHAPES[3]
        tensor = _random_tensor(shape, 100, seed=9)
        factors = _factors(shape, ranks, seed=0)
        tree = DimensionTree(tensor)
        block = tree.leaf_matricized(
            0, factors, local_rows=np.empty(0, dtype=np.int64)
        )
        assert block.shape[0] == 0


class TestStrategyPlumbing:
    def test_default_strategy_is_dimtree(self):
        assert HOOIOptions().validate().ttmc_strategy == "dimtree"
        backend = resolve_ttmc_backend(HOOIOptions())
        assert (type(backend), backend.executor) == (DimTreePlan, None)

    def test_resolver_selects_dimtree_backends(self):
        options = HOOIOptions(ttmc_strategy="dimtree")
        inline = resolve_ttmc_backend(options)
        assert (type(inline), inline.executor) == (DimTreePlan, None)
        threaded = resolve_ttmc_backend(options, ParallelConfig(num_threads=2))
        assert (type(threaded), threaded.executor) == (
            DimTreePlan, ParallelConfig(num_threads=2)
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="ttmc_strategy"):
            resolve_ttmc_backend(HOOIOptions(ttmc_strategy="magic"))
        tensor = _random_tensor((8, 7, 6), 100, seed=1)
        with pytest.raises(ValueError, match="ttmc_strategy"):
            hooi(tensor, 2, HOOIOptions(ttmc_strategy="magic"))

    def test_distributed_driver_runs_rank_local_dimtrees(self):
        # Since the hybrid-grain work the distributed driver composes with
        # the dimension tree: each rank builds a rank-local tree and its
        # leaves serve only the rank's rows, matching per-mode to 1e-10.
        from repro.distributed import distributed_hooi
        from repro.partition import make_partition

        tensor = _random_tensor((12, 10, 8), 300, seed=5)
        partition = make_partition(tensor, 2, "coarse-bl")
        per_mode = distributed_hooi(
            tensor, 2, partition,
            HOOIOptions(max_iterations=2, seed=0, ttmc_strategy="per-mode"),
        )
        dimtree = distributed_hooi(
            tensor, 2, partition,
            HOOIOptions(max_iterations=2, seed=0, ttmc_strategy="dimtree"),
        )
        assert np.allclose(
            dimtree.fit_history, per_mode.fit_history, atol=1e-10
        )

    def test_shared_hooi_dimtree_matches_per_mode(self, medium_tensor_3d):
        options = dict(max_iterations=3, init="hosvd", seed=0)
        config = ParallelConfig(num_threads=2)
        per_mode = shared_hooi(
            medium_tensor_3d, 5,
            HOOIOptions(ttmc_strategy="per-mode", **options), config=config,
        )
        dimtree = shared_hooi(
            medium_tensor_3d, 5,
            HOOIOptions(ttmc_strategy="dimtree", **options), config=config,
        )
        assert dimtree.result.fit_history == pytest.approx(
            per_mode.result.fit_history, abs=1e-10
        )

    def test_engine_with_dimtree_backend_directly(self, small_tensor_4d):
        options = HOOIOptions(max_iterations=3, seed=0)
        seq = HOOIEngine(
            small_tensor_4d, (3, 3, 2, 2), options, backend=COOPlan()
        ).run()
        dt = HOOIEngine(
            small_tensor_4d, (3, 3, 2, 2), options, backend=DimTreePlan()
        ).run()
        assert np.allclose(seq.fit_history, dt.fit_history, atol=1e-10)
        for a, b in zip(seq.decomposition.factors, dt.decomposition.factors):
            assert np.allclose(np.abs(a), np.abs(b), atol=1e-8)
