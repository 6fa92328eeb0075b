"""Out-of-core Tucker: memory-mapped CSF trees, streamed construction.

The in-memory pipeline holds the COO log plus every CSF tree on the heap —
for a tensor near (or past) RAM, that is the thing that breaks first, not
the factor matrices (which are ``shape[n] × R_n``, tiny by comparison).
This module splits storage from compute:

* :func:`build_out_of_core` compresses a tensor (a ``.tns`` path streamed
  through the chunked reader, a :class:`SparseTensor`, or a
  :class:`~repro.streaming.tensor.StreamingTensor`) into memory-mapped CSF
  trees on disk, building and releasing **one tree at a time** so the build
  itself never holds more than the COO plus a single tree.
* :class:`OutOfCoreTensor` is the duck-typed tensor handle the HOOI engine
  accepts: shape / nnz / norm come from a manifest, the level arrays are
  ``np.memmap`` views paged in on demand.
* :func:`out_of_core_hooi` runs the standard engine over the handle with a
  CSF backend whose trees are the pre-built memory-mapped set — per-mode
  TTMc streams the level arrays through the page cache, and
  ``resident_bytes()`` (which excludes memmaps) is what the acceptance gate
  holds under the configured cap.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.hooi import HOOIOptions, HOOIResult
from repro.core.sparse_tensor import SparseTensor, resolve_dtype
from repro.sparse.csf import CSFTensor, CSFTensorSet, rooted_mode_order
from repro.streaming.tensor import StreamingTensor
from repro.streaming.warmstart import _resolve_options

__all__ = ["OutOfCoreTensor", "build_out_of_core", "out_of_core_hooi"]

_OOC_MANIFEST = "ooc-manifest.json"


class OutOfCoreTensor:
    """Handle over a :func:`build_out_of_core` directory.

    Quacks like the engine's tensor (``shape``, ``order``, ``nnz``,
    ``dtype``, ``norm()``) without holding any nonzero on the heap: scalar
    metadata comes from the manifest, and :meth:`trees` lazily loads the
    memory-mapped :class:`~repro.sparse.csf.CSFTensorSet`.
    """

    def __init__(self, directory: Union[str, Path], *, mmap_mode: str = "r") -> None:
        directory = Path(directory)
        manifest_path = directory / _OOC_MANIFEST
        if not manifest_path.is_file():
            raise FileNotFoundError(
                f"{directory} holds no out-of-core tensor (missing "
                f"{_OOC_MANIFEST}) — build one with "
                "repro.streaming.build_out_of_core first"
            )
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("schema") != "repro-ooc-tensor/1":
            raise ValueError(
                f"unsupported out-of-core schema {manifest.get('schema')!r} "
                f"in {manifest_path}"
            )
        self.directory = directory
        self.mmap_mode = mmap_mode
        self.shape = tuple(int(s) for s in manifest["shape"])
        self.trees_policy = str(manifest["trees"])
        self._nnz = int(manifest["nnz"])
        self._norm = float(manifest["norm"])
        self._dtype = np.dtype(manifest["dtype"])
        self._trees: Optional[CSFTensorSet] = None

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def norm(self) -> float:
        """Frobenius norm, computed once at build time."""
        return self._norm

    def trees(self) -> CSFTensorSet:
        """The memory-mapped tree set (loaded on first call)."""
        if self._trees is None:
            self._trees = CSFTensorSet.from_mmap(
                self.directory, mmap_mode=self.mmap_mode
            )
        return self._trees

    def resident_bytes(self) -> int:
        """Heap-resident bytes of the loaded trees (0 before loading;
        memmap-backed level arrays never count)."""
        return 0 if self._trees is None else self._trees.resident_bytes()

    def in_memory_footprint(self) -> int:
        """Bytes the equivalent in-memory pipeline would hold on the heap:
        the COO arrays plus every CSF level array."""
        coo = self._nnz * (self.order * 8 + self._dtype.itemsize)
        return int(coo) + int(self.trees().memory_bytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OutOfCoreTensor(shape={self.shape}, nnz={self._nnz}, "
            f"trees={self.trees_policy!r}, dir={str(self.directory)!r})"
        )


def build_out_of_core(
    source,
    directory: Union[str, Path],
    *,
    trees: str = "per-mode",
    shape: Optional[Sequence[int]] = None,
    chunk_nnz: Optional[int] = None,
    dtype=None,
) -> OutOfCoreTensor:
    """Compress ``source`` into memory-mapped CSF trees under ``directory``.

    ``source`` is a ``.tns`` path (streamed through the chunked reader), a
    :class:`SparseTensor`, or a :class:`StreamingTensor`.  With
    ``trees="per-mode"`` one rooted tree per mode is built, written with
    :meth:`CSFTensor.to_mmap` and *released* before the next build starts —
    peak heap is the COO plus one tree, not the ``order + 1`` structures the
    in-memory pipeline keeps.  ``trees="shared"`` writes a single
    shortest-mode-first tree.
    """
    if trees not in ("per-mode", "shared"):
        raise ValueError(
            f"unknown tree policy {trees!r}: expected 'per-mode' or 'shared'"
        )
    if isinstance(source, StreamingTensor):
        tensor = source.tensor
    elif isinstance(source, SparseTensor):
        tensor = source
    else:
        from repro.data.io import DEFAULT_CHUNK_NNZ, read_tns

        tensor = read_tns(
            source,
            shape=shape,
            chunk_nnz=DEFAULT_CHUNK_NNZ if chunk_nnz is None else chunk_nnz,
        )
    if dtype is not None:
        tensor = tensor.astype(resolve_dtype(dtype))

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    modes = list(range(tensor.order))
    if trees == "per-mode":
        for mode in modes:
            tree = CSFTensor(
                tensor, mode_order=rooted_mode_order(tensor.shape, mode)
            )
            tree.to_mmap(
                CSFTensorSet.tree_directory(directory, mode, shared=False)
            )
            del tree  # one tree on the heap at a time
    else:
        tree = CSFTensor(tensor)
        tree.to_mmap(
            CSFTensorSet.tree_directory(directory, modes[0], shared=True)
        )
        del tree
    CSFTensorSet.write_mmap_manifest(
        directory, shared=(trees == "shared"), modes=modes
    )
    manifest = {
        "schema": "repro-ooc-tensor/1",
        "shape": [int(s) for s in tensor.shape],
        "nnz": tensor.nnz,
        "dtype": tensor.dtype.str,
        "norm": tensor.norm(),
        "trees": trees,
    }
    (directory / _OOC_MANIFEST).write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    return OutOfCoreTensor(directory)


def out_of_core_hooi(
    source,
    ranks,
    options=None,
    *,
    workspace=None,
    callback: Optional[Callable[[int, float], None]] = None,
    cancel_check: Optional[Callable[[], None]] = None,
    **option_kwargs,
) -> HOOIResult:
    """HOOI over an out-of-core tensor, level arrays paged from disk.

    ``source`` is an :class:`OutOfCoreTensor` or a built directory.  The
    run is the standard engine with a CSF backend whose tree set is the
    pre-built memory-mapped one; the restrictions follow from what the
    handle can serve — sequential execution (the thread/process backends
    rebuild their own trees from a COO tensor), CSF tensor format, and a
    non-HOSVD initializer (HOSVD needs a matricization of the full tensor).
    """
    from repro.engine.backend import CSFPlan
    from repro.engine.driver import HOOIEngine

    handle = source if isinstance(source, OutOfCoreTensor) else OutOfCoreTensor(source)
    base = _resolve_options(options, option_kwargs)
    base.setdefault("tensor_format", "csf")
    opts = HOOIOptions.from_dict(base)
    if opts.tensor_format != "csf":
        raise ValueError(
            f"out-of-core HOOI runs on tensor_format='csf' (the stored trees "
            f"ARE the format), got {opts.tensor_format!r}"
        )
    if opts.execution != "sequential":
        raise ValueError(
            f"out-of-core HOOI supports execution='sequential' only: the "
            f"{opts.execution!r} backend rebuilds its trees from an "
            "in-memory COO tensor, defeating the point — drop the "
            "execution override or decompose in memory"
        )
    if isinstance(opts.init, str) and opts.init == "hosvd":
        raise ValueError(
            "init='hosvd' needs a matricization of the full tensor, which "
            "an out-of-core handle cannot serve — use init='random' or "
            "pass explicit factor matrices (e.g. a warm start)"
        )
    if resolve_dtype(opts.dtype) != handle.dtype:
        raise ValueError(
            f"options request dtype={opts.dtype!r} but the stored trees "
            f"hold {handle.dtype.name} — rebuild with build_out_of_core("
            f"..., dtype={opts.dtype!r}) or match the options dtype"
        )
    tree_set = handle.trees()
    backend = CSFPlan(
        trees="shared" if tree_set.shared else "per-mode", tensors=tree_set
    )
    engine = HOOIEngine(handle, ranks, opts, backend=backend, workspace=workspace)
    return engine.run(callback=callback, cancel_check=cancel_check)
