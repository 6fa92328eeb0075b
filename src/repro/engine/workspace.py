"""Pooled workspaces for the HOOI engine.

Every HOOI iteration recomputes, for each mode ``n``, the matricized TTMc
result ``Y_(n)`` — an ``(I_n × ∏_{t≠n} R_t)`` dense matrix — plus a stack of
Kronecker block scratch buffers of the same width.  The shapes repeat
identically across iterations (and often across modes), so allocating them
fresh every time wastes allocator work and memory bandwidth on the hottest,
latency-bound phase.  :class:`WorkspacePool` keeps one buffer per
``(tag, dtype)`` and hands the same memory back on every request.

The pool is deliberately simple: it is *not* a checkout/return arena.  The
engine's execution order guarantees that a buffer's previous content is dead
by the time the same tag is requested again (a mode's ``Y_(n)`` is consumed
by the TRSVD before the next sweep requests it again, a block's scratch is
dead once the block is accumulated, and the last mode's ``Y_(N)`` is folded
into the core before the next iteration starts), which is exactly the reuse
pattern one buffer per tag supports.

The pool is not thread-safe; concurrent workers must either use their own
pool or allocate directly (the threaded TTMc keeps its per-worker scratch
private for this reason).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["WorkspacePool"]


class WorkspacePool:
    """A keyed pool of reusable ndarray buffers.

    Buffers are keyed by ``(tag, dtype)`` and sized by element capacity: the
    first request for a key allocates, and every later request that fits
    returns a C-contiguous view of the same memory shaped as asked — the
    pooled array itself when the shape repeats.  A request larger than the
    held capacity replaces the buffer with one of the new size.  So a
    blocked kernel's shorter tail block, or a narrower TTMc width, reuses
    the first block's buffer instead of pinning one more of its own.

    **One tag names one live buffer.**  Two requests under the same tag
    share memory, whatever their shapes, so roles that are live at the same
    time — a TTMc output and the Kronecker scratch written while
    accumulating into it, the buffers of two pullup levels — must carry
    distinct tags.  The instance counts allocations and reuses so
    benchmarks (and tests) can verify that a steady-state HOOI iteration
    performs zero pool allocations.
    """

    def __init__(self) -> None:
        # (tag, dtype) -> (flat memory, the view handed out last).
        self._buffers: Dict[
            Tuple[str, np.dtype], Tuple[np.ndarray, np.ndarray]
        ] = {}
        self.allocations = 0
        self.reuses = 0

    def take(self, shape, dtype=np.float64, *, tag: str = "") -> np.ndarray:
        """Return a C-contiguous buffer of the given shape/dtype.

        Contents are unspecified.  The returned array shares memory with
        every earlier and later request under the same ``tag`` and dtype.
        """
        shape = tuple(int(s) for s in shape)
        key = (tag, np.dtype(dtype))
        size = int(np.prod(shape, dtype=np.int64))
        held = self._buffers.get(key)
        if held is None or held[0].shape[0] < size:
            buffer = np.empty(shape, dtype=key[1])
            self._buffers[key] = (buffer.reshape(-1), buffer)
            self.allocations += 1
            return buffer
        self.reuses += 1
        flat, buffer = held
        if buffer.shape != shape:
            buffer = flat[:size].reshape(shape)
            self._buffers[key] = (flat, buffer)
        return buffer

    def zeros(self, shape, dtype=np.float64, *, tag: str = "") -> np.ndarray:
        """Like :meth:`take` but the returned buffer is zero-filled."""
        buffer = self.take(shape, dtype, tag=tag)
        buffer[...] = 0
        return buffer

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(flat.nbytes for flat, _ in self._buffers.values())

    def clear(self) -> None:
        """Drop every pooled buffer (counters are kept)."""
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkspacePool(buffers={self.num_buffers}, "
            f"bytes={self.nbytes()}, allocations={self.allocations}, "
            f"reuses={self.reuses})"
        )

