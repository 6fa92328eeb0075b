"""Streaming Tucker tests: ingestion equivalence, warm starts, out-of-core.

The load-bearing contracts, in the order the module stack builds them:

* **Bit-identity** — a :class:`~repro.streaming.StreamingTensor` fed any
  split of a nonzero stream (any batch sizes, duplicates landing in any
  batch) stores exactly the arrays a one-shot
  :class:`~repro.core.sparse_tensor.SparseTensor` build produces, and its
  incrementally-maintained CSF tree matches a from-scratch
  :class:`~repro.sparse.csf.CSFTensor` level by level (hypothesis-tested).
* **Incremental identity** — :func:`repro.core.sparse_tensor.
  fingerprint_with_delta` extends a fingerprint in O(batch) to exactly the
  digest a full re-hash would produce.
* **Warm starts** — ``resume_factors`` seeds a run deterministically (same
  init ⇒ same trajectory to 1e-10) and never loses a converged fit.
* **Out-of-core** — the memory-mapped CSF pipeline reproduces the
  in-memory decomposition to 1e-10 while keeping the heap-resident tree
  bytes near zero.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hooi import HOOIOptions, hooi
from repro.core.hosvd import initialize_factors
from repro.core.sparse_tensor import SparseTensor, fingerprint_with_delta
from repro.data.io import iter_tns_chunks, read_tns, write_tns
from repro.data.lowrank import planted_lowrank_tensor
from repro.sparse.csf import CSFTensor
from repro.streaming import (
    DeltaBatch,
    StreamingSession,
    StreamingTensor,
    adaptive_sweep_budget,
    apply_delta,
    build_out_of_core,
    conform_factors,
    out_of_core_hooi,
    streaming_hooi,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def entry_streams(draw, max_order=4, max_dim=9, max_nnz=48, max_batches=5):
    """A nonzero stream with duplicates, plus a random split into batches."""
    order = draw(st.integers(min_value=1, max_value=max_order))
    shape = tuple(
        draw(st.integers(min_value=2, max_value=max_dim)) for _ in range(order)
    )
    nnz = draw(st.integers(min_value=1, max_value=max_nnz))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    indices = np.column_stack(
        [rng.integers(0, s, nnz) for s in shape]
    ).astype(np.int64)
    if nnz > 4 and draw(st.booleans()):
        # Plant explicit duplicates so the same coordinate lands in
        # different batches, not only when the RNG happens to collide.
        dup = rng.integers(0, nnz, nnz // 3)
        indices[dup] = indices[rng.integers(0, nnz, nnz // 3)]
    values = rng.standard_normal(nnz)
    n_batches = draw(st.integers(min_value=1, max_value=max_batches))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=nnz),
                min_size=n_batches - 1,
                max_size=n_batches - 1,
            )
        )
    )
    bounds = [0, *cuts, nnz]
    batches = [
        (indices[a:b], values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
    ]
    return shape, indices, values, batches


class TestDeltaBatch:
    def test_merges_duplicates_like_one_shot(self):
        idx = np.array([[1, 2], [0, 1], [1, 2], [0, 1]], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        batch = DeltaBatch(idx, vals)
        ref = SparseTensor(idx, vals, (3, 3), sum_duplicates=True)
        assert np.array_equal(batch.indices, ref.indices)
        assert np.array_equal(batch.values, ref.values)

    def test_unmerged_keeps_entries_verbatim(self):
        idx = np.array([[1], [1]], dtype=np.int64)
        batch = DeltaBatch(idx, [1.0, 2.0], merge_duplicates=False)
        assert batch.nnz == 2

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError, match="negative"):
            DeltaBatch(np.array([[-1, 0]]), [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(
            ValueError, match=r"1 non-finite value\(s\).*coordinate \(3, 1\)"
        ):
            DeltaBatch(np.array([[0, 0], [3, 1]]), [1.0, bad])

    def test_extents(self):
        batch = DeltaBatch(np.array([[4, 1], [2, 6]]), [1.0, 2.0])
        assert batch.extents() == (5, 7)
        assert DeltaBatch(np.empty((0, 3)), []).extents() == (0, 0, 0)

    def test_coerce(self):
        batch = DeltaBatch(np.array([[0, 0]]), [1.0])
        assert DeltaBatch.coerce(batch) is batch
        tensor = SparseTensor(
            np.array([[1, 1]]), np.array([2.0]), (2, 2)
        )
        from_tensor = DeltaBatch.coerce(tensor)
        assert np.array_equal(from_tensor.indices, tensor.indices)
        pair = DeltaBatch.coerce((np.array([[0, 1]]), [3.0]))
        assert pair.nnz == 1
        with pytest.raises(TypeError, match="DeltaBatch"):
            DeltaBatch.coerce(42)

    def test_fingerprint_is_order_invariant(self):
        idx = np.array([[2, 0], [0, 1], [1, 2]], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0])
        a = DeltaBatch(idx, vals, merge_duplicates=False)
        perm = [2, 0, 1]
        b = DeltaBatch(idx[perm], vals[perm], merge_duplicates=False)
        assert a.fingerprint() == b.fingerprint()
        c = DeltaBatch(idx, vals + 1.0, merge_duplicates=False)
        assert a.fingerprint() != c.fingerprint()


class TestApplyDelta:
    def test_matches_one_shot_concat(self):
        rng = np.random.default_rng(0)
        base_idx = np.column_stack([rng.integers(0, 5, 30)] * 3)
        base_vals = rng.standard_normal(30)
        tensor = SparseTensor(base_idx, base_vals, (5, 5, 5), sum_duplicates=True)
        new_idx = np.column_stack([rng.integers(0, 7, 20)] * 3)
        new_vals = rng.standard_normal(20)
        grown = apply_delta(
            tensor, DeltaBatch(new_idx, new_vals, merge_duplicates=False)
        )
        ref = SparseTensor(
            np.vstack([tensor.indices, new_idx]),
            np.concatenate([tensor.values, new_vals]),
            (7, 7, 7),
            sum_duplicates=True,
        )
        assert grown.shape == (7, 7, 7)
        assert np.array_equal(grown.indices, ref.indices)
        assert np.array_equal(grown.values, ref.values)

    def test_order_mismatch_rejected(self):
        tensor = SparseTensor(np.array([[0, 0]]), np.array([1.0]), (2, 2))
        with pytest.raises(ValueError, match="mode"):
            apply_delta(tensor, DeltaBatch(np.array([[0, 0, 0]]), [1.0]))


class TestStreamingBitIdentity:
    @SETTINGS
    @given(entry_streams())
    def test_any_split_matches_one_shot(self, stream_case):
        shape, indices, values, batches = stream_case
        one_shot = SparseTensor(indices, values, shape, sum_duplicates=True)
        stream = StreamingTensor(shape=shape)
        for bidx, bvals in batches:
            stream.append(
                DeltaBatch(bidx, bvals, merge_duplicates=False, copy=False)
            )
            # Build the tree early so later appends exercise the
            # incremental CSF maintenance, not a final one-shot build.
            stream.to_csf()
        merged = stream.tensor
        assert merged.shape == one_shot.shape
        assert np.array_equal(merged.indices, one_shot.indices)
        assert np.array_equal(merged.values, one_shot.values)

        tree = stream.to_csf()
        ref = CSFTensor(one_shot, mode_order=stream.mode_order)
        assert np.array_equal(tree.values, ref.values)
        for mine, theirs in zip(tree.fids, ref.fids):
            assert np.array_equal(mine, theirs)
        for mine, theirs in zip(tree.fptr, ref.fptr):
            assert np.array_equal(mine, theirs)

    @SETTINGS
    @given(entry_streams())
    def test_shape_growth_across_batches(self, stream_case):
        _, indices, values, batches = stream_case
        extents = tuple(int(m) + 1 for m in indices.max(axis=0))
        one_shot = SparseTensor(indices, values, extents, sum_duplicates=True)
        stream = StreamingTensor()  # shape discovered batch by batch
        for bidx, bvals in batches:
            stream.append(
                DeltaBatch(bidx, bvals, merge_duplicates=False, copy=False)
            )
        merged = stream.tensor
        assert merged.shape == extents
        assert np.array_equal(merged.indices, one_shot.indices)
        assert np.array_equal(merged.values, one_shot.values)

    def test_fingerprint_matches_one_shot(self):
        rng = np.random.default_rng(3)
        idx = np.column_stack([rng.integers(0, 6, 40) for _ in range(3)])
        vals = rng.standard_normal(40)
        one_shot = SparseTensor(idx, vals, (6, 6, 6), sum_duplicates=True)
        stream = StreamingTensor(shape=(6, 6, 6))
        stream.append(DeltaBatch(idx[:25], vals[:25], merge_duplicates=False))
        stream.append(DeltaBatch(idx[25:], vals[25:], merge_duplicates=False))
        assert stream.fingerprint() == one_shot.fingerprint()


class TestCSFMaintenance:
    def _stream(self):
        rng = np.random.default_rng(7)
        idx = np.column_stack([rng.integers(0, 40, 600) for _ in range(3)])
        vals = rng.standard_normal(600)
        stream = StreamingTensor(shape=(40, 40, 40))
        stream.append(DeltaBatch(idx, vals, merge_duplicates=False))
        stream.to_csf()
        return stream

    def test_value_only_append_is_in_place(self):
        stream = self._stream()
        tree_before = stream.to_csf()
        existing = stream.to_coo().indices[:5].copy()
        stats = stream.append(DeltaBatch(existing, np.ones(5)))
        assert stats.csf_action == "in-place"
        assert stats.new_coords == 0
        assert stream.to_csf() is tree_before

    def test_small_batch_splices_slabs(self):
        stream = self._stream()
        stats = stream.append(
            DeltaBatch(np.array([[0, 1, 2], [39, 5, 5]]), [1.0, 1.0])
        )
        assert stats.csf_action == "merged"
        assert stats.touched_fraction < 0.25
        assert stream.csf_slab_merges >= 1

    def test_large_batch_rebuilds(self):
        stream = self._stream()
        rng = np.random.default_rng(8)
        idx = np.column_stack([rng.integers(0, 40, 600) for _ in range(3)])
        stats = stream.append(
            DeltaBatch(idx, rng.standard_normal(600), merge_duplicates=False)
        )
        assert stats.csf_action == "rebuilt"
        assert stream.csf_rebuilds >= 1


class TestIncrementalFingerprint:
    @SETTINGS
    @given(entry_streams())
    def test_extension_equals_full_rehash(self, stream_case):
        shape, indices, values, batches = stream_case
        head_idx, head_vals = batches[0]
        base = SparseTensor(head_idx, head_vals, shape).delta_fingerprint()
        n = len(head_vals)
        for bidx, bvals in batches[1:]:
            base = fingerprint_with_delta(base, bidx, bvals)
            n += len(bvals)
            full = SparseTensor(
                indices[:n], values[:n], shape
            ).delta_fingerprint()
            assert base == full
        assert base.count == len(values)

    @SETTINGS
    @given(entry_streams())
    def test_stream_digest_is_split_invariant(self, stream_case):
        shape, indices, values, batches = stream_case
        split = StreamingTensor(shape=shape)
        for bidx, bvals in batches:
            split.append(DeltaBatch(bidx, bvals, merge_duplicates=False))
        whole = StreamingTensor(shape=shape)
        whole.append(DeltaBatch(indices, values, merge_duplicates=False))
        assert (
            split.delta_fingerprint().hexdigest()
            == whole.delta_fingerprint().hexdigest()
        )


class TestWarmStart:
    def test_conform_factors_identity(self):
        factors = [np.eye(6)[:, :2], np.eye(4)[:, :3]]
        out = conform_factors(factors, (6, 4), (2, 3))
        for a, b in zip(out, factors):
            assert np.array_equal(a, b)
            assert a is not b  # defensive copy

    def test_conform_factors_grows_rows(self):
        old = np.arange(8.0).reshape(4, 2)
        (out,) = conform_factors([old], (7,), (2,))
        assert out.shape == (7, 2)
        assert np.array_equal(out[:4], old)
        assert np.all(np.isfinite(out[4:]))

    def test_conform_factors_truncates_ranks(self):
        old = np.random.default_rng(0).standard_normal((5, 4))
        (out,) = conform_factors([old], (5,), (2,))
        assert out.shape == (5, 2)
        assert np.array_equal(out, old[:, :2])

    def test_conform_factors_rejects_shrunk_mode(self):
        with pytest.raises(ValueError, match="grow"):
            conform_factors([np.zeros((6, 2))], (4,), (2,))

    def test_adaptive_sweep_budget(self):
        assert adaptive_sweep_budget(0, 1000, base_sweeps=20) == 1
        assert adaptive_sweep_budget(1000, 1000, base_sweeps=20) == 20
        assert adaptive_sweep_budget(10, 1000, base_sweeps=20) == 2
        assert (
            adaptive_sweep_budget(1, 10**6, base_sweeps=8, min_sweeps=3) == 3
        )
        assert adaptive_sweep_budget(5, 0, base_sweeps=4) == 4

    def test_warm_run_is_deterministic(self):
        tensor, _truth = planted_lowrank_tensor(
            (15, 12, 10), (3, 3, 3), 800, noise=0.05, seed=1
        )
        ranks = [3, 3, 3]
        opts = HOOIOptions(init="random", seed=0, max_iterations=5)
        cold = hooi(tensor, ranks, opts)
        seed_factors = initialize_factors(
            tensor, ranks, init="random", seed=0
        )
        warm = streaming_hooi(
            tensor, ranks, opts, resume_factors=seed_factors
        )
        assert abs(warm.fit - cold.fit) < 1e-10
        for a, b in zip(
            warm.decomposition.factors, cold.decomposition.factors
        ):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_warm_start_never_loses_fit(self):
        tensor, _truth = planted_lowrank_tensor(
            (15, 12, 10), (3, 3, 3), 800, noise=0.05, seed=2
        )
        ranks = [3, 3, 3]
        cold = hooi(
            tensor, ranks, HOOIOptions(init="random", seed=0, max_iterations=8)
        )
        warm = streaming_hooi(
            tensor,
            ranks,
            resume_factors=cold.decomposition.factors,
            init="random",
            seed=0,
            max_iterations=3,
        )
        assert warm.fit >= cold.fit - 1e-12

    def test_decompose_accepts_stream_and_resume_factors(self):
        from repro import decompose

        tensor, _truth = planted_lowrank_tensor(
            (12, 10, 8), (2, 2, 2), 500, noise=0.05, seed=4
        )
        stream = StreamingTensor(shape=tensor.shape)
        stream.append(DeltaBatch.from_tensor(tensor))
        cold = decompose(stream, 2, max_iterations=4, seed=0)
        warm = decompose(
            stream,
            2,
            resume_factors=cold.decomposition.factors,
            max_iterations=2,
            seed=0,
        )
        assert warm.fit >= cold.fit - 1e-12

    def test_distributed_rejects_resume_factors(self):
        from repro import decompose

        tensor, _truth = planted_lowrank_tensor(
            (8, 8, 8), (2, 2, 2), 200, noise=0.0, seed=5
        )
        with pytest.raises(ValueError, match="single-node"):
            decompose(
                tensor,
                2,
                execution="distributed",
                resume_factors=[np.zeros((8, 2))] * 3,
            )

    def test_session_accumulates_updates(self):
        tensor, _truth = planted_lowrank_tensor(
            (14, 12, 10), (3, 3, 3), 900, noise=0.05, seed=6
        )
        stream = StreamingTensor(shape=tensor.shape)
        stream.append(DeltaBatch.from_tensor(tensor))
        session = StreamingSession(
            stream, (3, 3, 3), init="random", seed=0, max_iterations=6
        )
        first = session.update()
        assert session.updates == 1
        assert session.total_sweeps == first.iterations
        rng = np.random.default_rng(9)
        bidx = np.column_stack(
            [rng.integers(0, s, 40) for s in tensor.shape]
        )
        second = session.update(DeltaBatch(bidx, rng.standard_normal(40)))
        assert session.updates == 2
        # The adaptive budget keeps the warm sweep count below the base.
        assert second.iterations < first.iterations
        assert session.total_sweeps == first.iterations + second.iterations
        assert session.last_result is second


class TestOutOfCore:
    def test_parity_with_in_memory(self, tmp_path):
        tensor, _truth = planted_lowrank_tensor(
            (18, 15, 12), (3, 3, 3), 1200, noise=0.05, seed=10
        )
        handle = build_out_of_core(tensor, tmp_path / "ooc")
        assert handle.resident_bytes() == 0  # nothing loaded yet
        in_memory = hooi(
            tensor,
            [3, 3, 3],
            HOOIOptions(
                init="random", seed=0, max_iterations=4, tensor_format="csf"
            ),
        )
        ooc = out_of_core_hooi(
            handle, [3, 3, 3], init="random", seed=0, max_iterations=4
        )
        assert abs(ooc.fit - in_memory.fit) < 1e-10
        for a, b in zip(
            ooc.decomposition.factors, in_memory.decomposition.factors
        ):
            np.testing.assert_allclose(a, b, atol=1e-10)
        np.testing.assert_allclose(
            ooc.decomposition.core, in_memory.decomposition.core, atol=1e-10
        )
        # The acceptance accounting: what the in-memory pipeline would hold
        # dwarfs what the memory-mapped run keeps on the heap.
        footprint = handle.in_memory_footprint()
        assert footprint > 0
        assert handle.resident_bytes() < footprint // 4

    def test_shared_tree_policy(self, tmp_path):
        tensor, _truth = planted_lowrank_tensor(
            (10, 8, 6), (2, 2, 2), 300, noise=0.0, seed=11
        )
        handle = build_out_of_core(tensor, tmp_path / "ooc", trees="shared")
        result = out_of_core_hooi(
            handle, [2, 2, 2], init="random", seed=0, max_iterations=2
        )
        assert np.isfinite(result.fit)

    def test_end_to_end_from_tns_under_rss_cap(self, tmp_path):
        """The acceptance shape: chunked reader → mmap CSF → decomposition,
        heap-resident tree bytes under a cap the in-memory footprint breaks."""
        tensor, _truth = planted_lowrank_tensor(
            (16, 13, 11), (2, 2, 2), 900, noise=0.02, seed=12
        )
        path = tmp_path / "t.tns"
        write_tns(tensor, path)
        handle = build_out_of_core(path, tmp_path / "ooc", chunk_nnz=128)
        assert handle.shape == tensor.shape
        assert handle.nnz == tensor.nnz
        assert abs(handle.norm() - tensor.norm()) < 1e-12
        in_memory = hooi(
            tensor,
            [2, 2, 2],
            HOOIOptions(
                init="random", seed=0, max_iterations=3, tensor_format="csf"
            ),
        )
        ooc = out_of_core_hooi(
            handle, [2, 2, 2], init="random", seed=0, max_iterations=3
        )
        assert abs(ooc.fit - in_memory.fit) < 1e-10
        rss_cap = handle.in_memory_footprint() // 4  # the configured cap
        assert handle.in_memory_footprint() > rss_cap
        assert handle.resident_bytes() < rss_cap

    def test_error_paths(self, tmp_path):
        tensor, _truth = planted_lowrank_tensor(
            (8, 6, 5), (2, 2, 2), 120, noise=0.0, seed=13
        )
        with pytest.raises(FileNotFoundError, match="build_out_of_core"):
            out_of_core_hooi(tmp_path / "missing", [2, 2, 2])
        handle = build_out_of_core(tensor, tmp_path / "ooc")
        with pytest.raises(ValueError, match="hosvd"):
            out_of_core_hooi(handle, [2, 2, 2], init="hosvd")
        with pytest.raises(ValueError, match="sequential"):
            out_of_core_hooi(handle, [2, 2, 2], execution="thread")
        with pytest.raises(ValueError, match="dtype"):
            out_of_core_hooi(handle, [2, 2, 2], dtype="float32")
        with pytest.raises(ValueError, match="csf"):
            out_of_core_hooi(handle, [2, 2, 2], tensor_format="coo")


class TestChunkedTns:
    def _write(self, tmp_path, lines):
        path = tmp_path / "t.tns"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_chunked_read_matches_eager(self, tmp_path):
        rng = np.random.default_rng(14)
        idx = np.column_stack([rng.integers(0, 9, 100) for _ in range(3)])
        vals = rng.standard_normal(100)
        tensor = SparseTensor(idx, vals, (9, 9, 9), sum_duplicates=True)
        path = tmp_path / "t.tns"
        write_tns(tensor, path)
        for chunk_nnz in (1, 7, 64, 10_000):
            back = read_tns(path, chunk_nnz=chunk_nnz)
            assert back.shape == tensor.shape
            assert np.array_equal(back.indices, tensor.indices)
            assert np.array_equal(back.values, tensor.values)

    def test_iter_tns_chunks_boundaries(self, tmp_path):
        path = self._write(
            tmp_path, [f"1 {i + 1} {float(i)}" for i in range(10)]
        )
        chunks = list(iter_tns_chunks(path, chunk_nnz=4))
        assert [len(v) for _i, v in chunks] == [4, 4, 2]
        all_idx = np.vstack([i for i, _v in chunks])
        assert np.array_equal(all_idx[:, 1], np.arange(10))

    def test_malformed_line_error(self, tmp_path):
        path = self._write(tmp_path, ["1 2 3.0", "oops"])
        with pytest.raises(ValueError, match="malformed"):
            read_tns(path)

    def test_cross_chunk_arity_error(self, tmp_path):
        path = self._write(tmp_path, ["1 2 3.0", "1 2 3 4.0"])
        with pytest.raises(ValueError, match="indices per line"):
            read_tns(path, chunk_nnz=1)

    def test_stream_from_tns(self, tmp_path):
        rng = np.random.default_rng(15)
        idx = np.column_stack([rng.integers(0, 8, 60) for _ in range(3)])
        vals = rng.standard_normal(60)
        tensor = SparseTensor(idx, vals, (8, 8, 8), sum_duplicates=True)
        path = tmp_path / "t.tns"
        write_tns(tensor, path)
        stream = StreamingTensor.from_tns(path, chunk_nnz=17)
        merged = stream.tensor
        assert merged.shape == tensor.shape
        assert np.array_equal(merged.indices, tensor.indices)
        assert np.array_equal(merged.values, tensor.values)


class TestServingDelta:
    def test_submit_delta_warm_starts_and_caches(self):
        from repro.serving import DecompositionService

        tensor, _truth = planted_lowrank_tensor(
            (12, 10, 8), (2, 2, 2), 500, noise=0.05, seed=16
        )
        rng = np.random.default_rng(17)
        bidx = np.column_stack(
            [rng.integers(0, s, 40) for s in tensor.shape]
        )
        batch = DeltaBatch(bidx, rng.standard_normal(40))

        async def main():
            async with DecompositionService(
                num_workers=1, warmup=True
            ) as svc:
                base = await svc.submit(
                    tensor, (2, 2, 2), max_iterations=4, seed=0
                )
                await base.result()
                delta = await svc.submit_delta(base, batch)
                first = await delta.result()
                again = await svc.submit_delta(base, batch)
                second = await again.result()
                return (
                    first,
                    second,
                    delta.cached,
                    again.cached,
                    svc.metrics(),
                )

        first, second, first_cached, again_cached, metrics = asyncio.run(
            main()
        )
        assert not first_cached
        assert again_cached  # same (base fp, batch fp) ⇒ same cache line
        assert second.fit == first.fit
        assert metrics["jobs"]["warm_started"] == 1

    def test_submit_delta_unknown_base(self):
        from repro.serving import DecompositionService

        async def main():
            async with DecompositionService(
                num_workers=1, warmup=False
            ) as svc:
                with pytest.raises(ValueError, match="unknown base job"):
                    await svc.submit_delta(
                        "job-999", DeltaBatch(np.array([[0, 0]]), [1.0])
                    )

        asyncio.run(main())
