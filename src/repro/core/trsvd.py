"""Matrix-free truncated SVD (the paper's TRSVD step).

HOOI needs, for each mode ``n``, the leading ``R_n`` *left* singular vectors
of the matricized TTMc result ``Y_(n)`` — a dense, usually tall-and-skinny
matrix with up to millions of rows.  Following Section III-A.2 of the paper we
never form the Gram matrix ``Y Yᵀ`` (its side would be ``I_n``) and we never
compute a full SVD; instead we run an iterative method whose only access to
the matrix is through matrix-vector (``MxV``) and transposed matrix-vector
(``MTxV``) products.  That operator interface is exactly what the distributed
algorithm hooks into: the fine-grain variant keeps ``Y_(n)`` in sum-distributed
form and implements the two products with communication (see
:mod:`repro.distributed.dist_trsvd`).

Three solvers are provided:

* :func:`lanczos_svd` — Golub-Kahan Lanczos bidiagonalization with full
  reorthogonalization and implicit restarting; the default, mirroring the
  Krylov solvers SLEPc provides.
* :func:`randomized_svd` — a randomized range finder with power iterations,
  useful as a cross-check and for the ablation benchmarks.
* :func:`gram_svd` — ``eigh`` of the Gram matrix on the short side of
  ``Y`` (``YᵀY`` when ``I_n ≥ W = ∏_{t≠n} R_t``, ``Y Yᵀ`` otherwise) plus
  one GEMM recovering the other side; no iteration (it squares the
  spectrum, so trailing singular values lose accuracy — see its docstring).

The iterative solvers report the number of operator applications so
experiments can account for per-iteration communication exactly as the
paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.sparse_tensor import as_supported_float
from repro.resilience.faults import maybe_fail
from repro.util.linalg import orthonormalize

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "CountingOperator",
    "TRSVDResult",
    "lanczos_svd",
    "randomized_svd",
    "gram_svd",
    "truncated_svd",
]


class LinearOperator:
    """Minimal matrix-free operator: a shape plus ``matvec``/``rmatvec``.

    Subclasses implement ``matvec(x) -> A @ x`` (length ``shape[0]``) and
    ``rmatvec(y) -> A.T @ y`` (length ``shape[1]``).
    """

    shape: Tuple[int, int]

    def matvec(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def rmatvec(self, y: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def matmat(self, block: np.ndarray) -> np.ndarray:
        """Apply the operator to each column of ``block`` (default: loop)."""
        block = np.asarray(block)
        return np.column_stack([self.matvec(block[:, j]) for j in range(block.shape[1])])

    def rmatmat(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block)
        return np.column_stack([self.rmatvec(block[:, j]) for j in range(block.shape[1])])


class DenseOperator(LinearOperator):
    """Wrap a dense ndarray as a :class:`LinearOperator` (BLAS2 products).

    The matrix's floating dtype is preserved — a ``float32`` TTMc result is
    multiplied as ``float32`` (the solver's own vectors stay ``float64``, and
    mixed products promote exactly), so the dtype policy never forces an
    up-conversion copy of the big matricized operand.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = as_supported_float(matrix)
        if self.matrix.ndim != 2:
            raise ValueError("DenseOperator expects a 2-D array")
        self.shape = self.matrix.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.matrix.T @ y

    def matmat(self, block: np.ndarray) -> np.ndarray:
        return self.matrix @ block

    def rmatmat(self, block: np.ndarray) -> np.ndarray:
        return self.matrix.T @ block


class CountingOperator(LinearOperator):
    """Decorator counting operator applications (MxV / MTxV)."""

    def __init__(self, inner: LinearOperator) -> None:
        self.inner = inner
        self.shape = inner.shape
        self.matvec_count = 0
        self.rmatvec_count = 0

    def matvec(self, x: np.ndarray) -> np.ndarray:
        self.matvec_count += 1
        return self.inner.matvec(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        self.rmatvec_count += 1
        return self.inner.rmatvec(y)

    def matmat(self, block: np.ndarray) -> np.ndarray:
        self.matvec_count += block.shape[1]
        return self.inner.matmat(block)

    def rmatmat(self, block: np.ndarray) -> np.ndarray:
        self.rmatvec_count += block.shape[1]
        return self.inner.rmatmat(block)


@dataclass
class TRSVDResult:
    """Output of a truncated SVD solve."""

    left: np.ndarray          # (m, k) leading left singular vectors
    singular_values: np.ndarray  # (k,)
    right: Optional[np.ndarray]  # (n, k) or None if not requested
    iterations: int           # outer iterations (restarts for Lanczos)
    matvecs: int              # number of MxV applications
    rmatvecs: int             # number of MTxV applications
    converged: bool

    @property
    def rank(self) -> int:
        return int(self.singular_values.shape[0])


def _as_operator(matrix: Union[np.ndarray, LinearOperator]) -> LinearOperator:
    if isinstance(matrix, LinearOperator):
        return matrix
    return DenseOperator(np.asarray(matrix))


def lanczos_svd(
    matrix: Union[np.ndarray, LinearOperator],
    rank: int,
    *,
    tol: float = 1e-8,
    max_restarts: int = 20,
    subspace: Optional[int] = None,
    seed: Optional[int] = 0,
    compute_right: bool = True,
) -> TRSVDResult:
    """Leading ``rank`` singular triplets via Golub-Kahan Lanczos bidiagonalization.

    The bidiagonalization is run with full reorthogonalization up to a
    subspace of ``subspace`` vectors (default ``max(2 * rank + 4, rank + 8)``,
    capped at ``min(op.shape)``); if the top-``rank`` triplets have not
    converged the factorization is (thick-)restarted from the current Ritz
    vectors, up to ``max_restarts`` times.  Convergence of triplet ``i`` is
    declared when its residual bound ``beta * |last Ritz component|`` falls
    below ``tol * sigma_max``; the solver then restarts once more before
    returning, so the triplets do not depend on which restart first met
    ``tol``.  When the operand has at most twice the default subspace
    columns (and no fewer rows), the right vectors span every column: one
    exact pass, no restarts.
    """
    op = _as_operator(matrix)
    counter = op if isinstance(op, CountingOperator) else CountingOperator(op)
    m, n = counter.shape
    rank = int(rank)
    if rank <= 0:
        raise ValueError("rank must be positive")
    rank = min(rank, m, n)
    if subspace is None:
        subspace = max(2 * rank + 4, rank + 8)
        if n <= min(m, 2 * subspace):
            # Right vectors spanning all n columns make the bidiagonalization
            # exact in one pass, for no more matvecs than the restarts it
            # replaces.
            subspace = n
    subspace = int(min(max(subspace, rank + 1), min(m, n)))
    # Exact without restarting: the right vectors span every column, or the
    # requested rank already fills the subspace.
    full = subspace == n or rank >= subspace

    rng = np.random.default_rng(seed)
    # Right starting vector.
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)

    V = np.zeros((n, subspace + 1))
    U = np.zeros((m, subspace))
    alphas = np.zeros(subspace)
    betas = np.zeros(subspace)

    total_restarts = 0
    converged = polished = False
    left = np.zeros((m, rank))
    right = np.zeros((n, rank))
    sigma = np.zeros(rank)

    V[:, 0] = v
    start = 0          # number of locked/restart basis vectors already in place
    beta_prev = 0.0
    u_prev = np.zeros(m)

    for restart in range(max_restarts):
        total_restarts = restart + 1
        j = start
        while j < subspace:
            u = counter.matvec(V[:, j]) - beta_prev * u_prev
            # Full reorthogonalization against previous left vectors.
            if j > 0:
                u -= U[:, :j] @ (U[:, :j].T @ u)
            alpha = np.linalg.norm(u)
            if alpha < 1e-14:
                u = rng.standard_normal(m)
                u -= U[:, :j] @ (U[:, :j].T @ u)
                alpha_norm = np.linalg.norm(u)
                u = u / alpha_norm if alpha_norm > 0 else u
                alpha = 0.0
            else:
                u /= alpha
            U[:, j] = u
            alphas[j] = alpha

            w = counter.rmatvec(u) - alpha * V[:, j]
            w -= V[:, : j + 1] @ (V[:, : j + 1].T @ w)
            beta = np.linalg.norm(w)
            if beta < 1e-14:
                w = rng.standard_normal(n)
                w -= V[:, : j + 1] @ (V[:, : j + 1].T @ w)
                beta_norm = np.linalg.norm(w)
                w = w / beta_norm if beta_norm > 0 else w
                beta = 0.0
            else:
                w /= beta
            V[:, j + 1] = w
            betas[j] = beta
            beta_prev = beta
            u_prev = u
            j += 1

        # Build the (subspace x subspace) projected matrix B = Uᵀ A V.  The
        # fresh part (columns `start`..) is upper bidiagonal with the recurrence
        # coefficients; after a thick restart the first `start` columns hold
        # the locked Ritz values and couple to the first new column through
        # the saved residual coefficients (Baglama-Reichel style restart).
        B = np.zeros((subspace, subspace))
        if start > 0:
            B[:start, :start] = np.diag(locked_sigma)
            B[:start, start] = restart_coupling
        for i in range(start, subspace):
            B[i, i] = alphas[i]
            if i + 1 < subspace:
                B[i, i + 1] = betas[i]

        P, s, Qt = np.linalg.svd(B)
        k = rank
        sigma = s[:k]
        # Residual bound for each Ritz triplet: beta_last * |P[last, i]|.
        beta_last = betas[subspace - 1]
        residuals = np.abs(beta_last * P[subspace - 1, :k])
        threshold = tol * max(s[0], 1e-300)
        left = U[:, :subspace] @ P[:, :k]
        right = V[:, :subspace] @ Qt.T[:, :k]
        # Stop one restart after the residuals first meet ``tol``, on the
        # restart budget, or when the factorization is exact (``full``) and a
        # restart has nothing left to add.  The extra restart keeps the
        # result from depending on *which* restart first met ``tol``: a
        # round-off-level change to the operand (another TTMc association,
        # i.e. another composition) can move a residual lying near the
        # threshold across it, Ritz vectors of consecutive restarts differ by
        # up to ``tol``, and HOOI on a noisy tensor amplifies that into fit
        # differences of ~5e-8 relative.
        met = bool(np.all(residuals <= threshold))
        if (met and polished) or restart == max_restarts - 1 or full:
            converged = met or full
            break
        polished = met

        # Thick restart: keep the top `rank` Ritz vectors plus the residual
        # direction V[:, subspace] and continue expanding.
        keep = rank
        locked_sigma = s[:keep].copy()
        restart_coupling = beta_last * P[subspace - 1, :keep].copy()
        U[:, :keep] = left[:, :keep]
        V[:, :keep] = right[:, :keep]
        V[:, keep] = V[:, subspace]
        start = keep
        beta_prev = 0.0
        u_prev = np.zeros(m)

    return TRSVDResult(
        left=np.ascontiguousarray(left[:, :rank]),
        singular_values=np.ascontiguousarray(sigma[:rank]),
        right=np.ascontiguousarray(right[:, :rank]) if compute_right else None,
        iterations=total_restarts,
        matvecs=counter.matvec_count,
        rmatvecs=counter.rmatvec_count,
        converged=converged,
    )


def randomized_svd(
    matrix: Union[np.ndarray, LinearOperator],
    rank: int,
    *,
    oversample: int = 8,
    power_iterations: int = 2,
    seed: Optional[int] = 0,
    compute_right: bool = True,
) -> TRSVDResult:
    """Randomized truncated SVD (Halko-Martinsson-Tropp range finder).

    Uses ``rank + oversample`` random probes and ``power_iterations`` rounds of
    subspace (power) iteration with re-orthonormalization, then a dense SVD of
    the small projected matrix.  All accesses go through ``matmat``/``rmatmat``
    so the same distributed operators work here too.
    """
    op = _as_operator(matrix)
    counter = op if isinstance(op, CountingOperator) else CountingOperator(op)
    m, n = counter.shape
    rank = int(rank)
    if rank <= 0:
        raise ValueError("rank must be positive")
    rank = min(rank, m, n)
    probes = min(rank + int(oversample), n)

    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n, probes))
    sample = counter.matmat(omega)
    q, _ = np.linalg.qr(sample)
    for _ in range(int(power_iterations)):
        z = counter.rmatmat(q)
        z, _ = np.linalg.qr(z)
        sample = counter.matmat(z)
        q, _ = np.linalg.qr(sample)
    # Project: B = Qᵀ A  (n columns), computed as (Aᵀ Q)ᵀ.
    b = counter.rmatmat(q).T
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    left = q @ ub[:, :rank]
    return TRSVDResult(
        left=np.ascontiguousarray(left),
        singular_values=np.ascontiguousarray(s[:rank]),
        right=np.ascontiguousarray(vt[:rank].T) if compute_right else None,
        iterations=int(power_iterations) + 1,
        matvecs=counter.matvec_count,
        rmatvecs=counter.rmatvec_count,
        converged=True,
    )


def gram_svd(
    matrix: np.ndarray,
    rank: int,
    *,
    compute_right: bool = True,
) -> TRSVDResult:
    """Truncated SVD through the *smaller* Gram matrix of ``Y``.

    HOOI's operand ``Y_(n)`` has ``I_n`` rows and ``W = ∏_{t≠n} R_t``
    columns.  The cheapest factor update is one GEMM forming the Gram
    matrix on the short side, a dense ``eigh`` of it, and one GEMM
    recovering the other side's vectors — no Lanczos iteration, no
    MxV/MTxV passes:

    * ``I_n ≥ W`` (tall, the usual case at scale): ``G = Yᵀ Y`` is
      ``W × W``, its eigenvectors are ``V`` and ``U = Y V Σ⁻¹``;
    * ``I_n < W`` (wide — every mode of a small tensor at ranks whose
      product exceeds its dimensions): ``G = Y Yᵀ`` is ``I_n × I_n``, its
      eigenvectors are ``U`` and ``V = Yᵀ U Σ⁻¹``.

    Either way the Gram side is the short one, so this is never the
    ``Y Yᵀ`` of a long side that the paper argues against.

    Conditioning caveat: the Gram matrix squares the spectrum, so singular
    values below roughly ``√ε · σ_max`` are lost to rounding and their
    vectors are unreliable.  Numerically tiny directions of the recovered
    side are repaired by re-orthonormalization (random completion), keeping
    both ``U`` and ``V`` orthonormal; prefer ``"lanczos"`` when trailing
    singular values matter.
    """
    dense = as_supported_float(np.asarray(matrix))
    if dense.ndim != 2:
        raise ValueError("gram_svd expects a 2-D array")
    m, n = dense.shape
    rank = int(rank)
    if rank <= 0:
        raise ValueError("rank must be positive")
    rank = min(rank, m, n)
    wide = m < n
    # The Gram side is the short one: ``operand`` maps its eigenvectors to
    # the long side's (U = Y V Σ⁻¹ when tall, V = Yᵀ U Σ⁻¹ when wide).
    operand = dense.T if wide else dense
    # The big GEMM runs in the operand's dtype policy; the small eigenproblem
    # is always solved in float64 for stability.
    gram = np.asarray(operand.T @ operand, dtype=np.float64)
    eigvals, eigvecs = np.linalg.eigh(gram)
    lead = np.argsort(eigvals)[::-1][:rank]
    sigma = np.sqrt(np.clip(eigvals[lead], 0.0, None))
    short = np.ascontiguousarray(eigvecs[:, lead])
    if wide and not compute_right:
        return _gram_result(short, sigma, None)
    recovered = np.asarray(
        operand @ short.astype(dense.dtype, copy=False), dtype=np.float64
    )
    # The Gram matrix's eigenvalues carry an absolute error of order
    # eps * sigma_max^2, so singular values below ~sqrt(eps) * sigma_max are
    # pure noise — the squared-spectrum resolution limit of this method.
    tol = np.sqrt(max(m, n) * np.finfo(np.float64).eps) * (
        sigma[0] if rank else 0.0
    )
    safe = sigma > tol
    recovered[:, safe] /= sigma[safe]
    if not np.all(safe):
        # Directions squashed by the squared spectrum: zero them out and let
        # the orthonormalization complete the basis with random directions.
        recovered[:, ~safe] = 0.0
        recovered = orthonormalize(recovered)
    if wide:
        return _gram_result(short, sigma, recovered)
    return _gram_result(recovered, sigma, short if compute_right else None)


def _gram_result(left, sigma, right) -> TRSVDResult:
    return TRSVDResult(
        left=np.ascontiguousarray(left),
        singular_values=np.ascontiguousarray(sigma),
        right=None if right is None else np.ascontiguousarray(right),
        iterations=1,
        matvecs=0,
        rmatvecs=0,
        converged=True,
    )


def truncated_svd(
    matrix: Union[np.ndarray, LinearOperator],
    rank: int,
    *,
    method: str = "lanczos",
    **kwargs,
) -> TRSVDResult:
    """Dispatch to a truncated-SVD backend.

    ``method`` is one of ``"lanczos"`` (default), ``"randomized"``, ``"dense"``
    (full LAPACK SVD — only for small matrices / tests), or ``"gram"``
    (:func:`gram_svd`: ``eigh`` of the Gram matrix on the short side of
    ``Y`` plus one GEMM recovering the other side's vectors — no iteration,
    with a squared-spectrum conditioning caveat).
    """
    # Fault point "trsvd": the factor update of every mode of every sweep
    # (see repro.resilience.faults; a single module-global None check when
    # injection is disabled).
    maybe_fail("trsvd")
    if method == "lanczos":
        return lanczos_svd(matrix, rank, **kwargs)
    if method == "randomized":
        return randomized_svd(matrix, rank, **kwargs)
    if method == "dense":
        dense = matrix.matrix if isinstance(matrix, DenseOperator) else np.asarray(matrix)
        if isinstance(matrix, LinearOperator) and not isinstance(matrix, DenseOperator):
            raise TypeError("method='dense' needs an explicit matrix")
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        rank = min(int(rank), s.shape[0])
        return TRSVDResult(
            left=np.ascontiguousarray(u[:, :rank]),
            singular_values=s[:rank].copy(),
            right=np.ascontiguousarray(vt[:rank].T),
            iterations=1,
            matvecs=0,
            rmatvecs=0,
            converged=True,
        )
    if method == "gram":
        dense = matrix.matrix if isinstance(matrix, DenseOperator) else np.asarray(matrix)
        if isinstance(matrix, LinearOperator) and not isinstance(matrix, DenseOperator):
            raise TypeError("method='gram' needs an explicit matrix")
        return gram_svd(dense, rank, **kwargs)
    raise ValueError(f"unknown TRSVD method {method!r}")
