"""Output checks that share no code with the library under test.

Each check takes plain arrays — the nonzeros the benchmark generated and the
factors and core a run returned — and returns a list of failure messages
(empty when the output is correct).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

ORTHO_TOL = 1e-8
CORE_TOL = 1e-8
FIT_TOL = 1e-8
_CHUNK = 32768


def merge_coo(indices: np.ndarray, values: np.ndarray, shape) -> tuple:
    """Sum duplicate coordinates (a plain lexicographic merge)."""
    keys = np.ravel_multi_index(indices.T, shape)
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged = np.zeros(uniq.shape[0])
    np.add.at(merged, inverse, values)
    return np.column_stack(np.unravel_index(uniq, shape)), merged


def kron_rows(factors: Sequence[np.ndarray], idx: np.ndarray, modes) -> np.ndarray:
    """Row-wise Kronecker product of the factor rows of ``modes`` (C order)."""
    out = factors[modes[0]][idx[:, modes[0]]]
    for m in modes[1:]:
        rows = factors[m][idx[:, m]]
        out = (out[:, :, None] * rows[:, None, :]).reshape(out.shape[0], -1)
    return out


def coo_core(indices: np.ndarray, values: np.ndarray, factors) -> np.ndarray:
    """``G = X ×_1 U_1ᵀ ··· ×_N U_Nᵀ`` by a plain contraction over nonzeros.

    Duplicate coordinates contribute additively, exactly like a merged
    tensor, since the contraction is linear in the values.
    """
    order = len(factors)
    ranks = tuple(int(f.shape[1]) for f in factors)
    half = max(order // 2, 1)
    left, right = list(range(half)), list(range(half, order))
    core = np.zeros((int(np.prod(ranks[:half])), int(np.prod(ranks[half:]))))
    for lo in range(0, indices.shape[0], _CHUNK):
        idx = indices[lo:lo + _CHUNK]
        a = kron_rows(factors, idx, left) * values[lo:lo + _CHUNK, None]
        core += a.T @ kron_rows(factors, idx, right)
    return core.reshape(ranks)


def orthonormality_error(u: np.ndarray, nonempty_rows: int) -> float:
    """``max |UᵀU - I|``, allowing zero columns the data cannot determine.

    A mode with fewer non-empty slices than its rank spans fewer than ``R``
    directions; the columns beyond that count are not fixed by the data.
    The sequential drivers complete them to an orthonormal basis, the
    distributed driver leaves them zero (``DistributedBackend.
    update_factor``).  Both reconstruct the same tensor, so such a column
    may be all zero; every other column must be orthonormal.
    """
    gram = u.T @ u
    expected = np.eye(u.shape[1])
    for j in range(min(u.shape[1], nonempty_rows), u.shape[1]):
        if gram[j, j] < 0.5:
            expected[j, j] = 0.0
    return float(np.max(np.abs(gram - expected))) if gram.size else 0.0


def zero_columns(factors) -> int:
    """How many factor columns are all zero (reported, not a failure)."""
    return sum(int(np.sum(~np.any(np.asarray(u), axis=0))) for u in factors)


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def check_decomposition(
    label: str,
    indices: np.ndarray,
    values: np.ndarray,
    shape,
    factors,
    core,
    fit: float,
) -> List[str]:
    """Orthonormal factors, the core re-contracted, and the fit formula."""
    failures = []
    factors = [np.asarray(f, dtype=np.float64) for f in factors]
    core = np.asarray(core, dtype=np.float64)
    merged_idx, merged = merge_coo(indices, values, shape)
    for n, u in enumerate(factors):
        nonempty = np.unique(merged_idx[:, n]).shape[0]
        err = orthonormality_error(u, nonempty)
        if not err <= ORTHO_TOL:
            failures.append(f"{label}: factor {n} not orthonormal ({err:.2e})")
    mine = coo_core(indices, values, factors)
    scale = float(np.linalg.norm(mine))
    diff = float(np.linalg.norm(mine - core))
    if not diff <= CORE_TOL * max(scale, 1e-300):
        failures.append(f"{label}: core differs from the COO contraction "
                        f"({diff / max(scale, 1e-300):.2e} relative)")
    norm_x_sq = float(merged @ merged)
    expect = 1.0 - np.sqrt(max(norm_x_sq - scale ** 2, 0.0)) / np.sqrt(norm_x_sq)
    if not rel_diff(fit, expect) <= FIT_TOL:
        failures.append(f"{label}: fit {fit!r} != 1-sqrt(|X|^2-|G|^2)/|X| "
                        f"= {expect!r}")
    return failures


def check_fit_matches(label: str, fit: float, reference: float) -> List[str]:
    if rel_diff(fit, reference) <= FIT_TOL:
        return []
    return [f"{label}: fit {fit!r} differs from the reference {reference!r}"]
