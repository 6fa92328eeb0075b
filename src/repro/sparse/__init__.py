"""Compressed sparse tensor storage formats.

The COO container (:class:`repro.core.sparse_tensor.SparseTensor`) is the
interchange format every loader produces and every kernel accepts; this
package holds the *compressed* formats the engine can execute on instead —
currently the Compressed Sparse Fiber tree (:mod:`repro.sparse.csf`) with its
fiber-vectorized TTMc kernels (:mod:`repro.sparse.csf_ttmc`), selected via
``HOOIOptions.tensor_format = "csf"``.
"""

from repro.sparse.csf import (
    CSFTensor,
    CSFTensorSet,
    default_mode_order,
    memory_report,
    rooted_mode_order,
)
from repro.sparse.csf_ttmc import csf_slab_chunk, csf_ttmc_compact, csf_ttmc_matricized

__all__ = [
    "CSFTensor",
    "CSFTensorSet",
    "default_mode_order",
    "rooted_mode_order",
    "memory_report",
    "csf_slab_chunk",
    "csf_ttmc_compact",
    "csf_ttmc_matricized",
]
