"""Constrained empirical-risk fitting of the latent-variable model.

``erm_fit`` minimizes ``sum_ij l(a_j' z_i; Y_ij)`` over ``(Z, A)`` subject
to the identification constraints

* ``Z'Z / n = I`` (orthonormal latent scores),
* ``A'A / q`` diagonal,
* all row norms of ``Z`` and ``A`` at most ``M``,

by alternating projected gradient descent: a gradient step in ``Z``
followed by a polar retraction onto the orthonormality manifold, a
gradient step in ``A`` followed by an orthogonal co-rotation of both
blocks that restores diagonality without changing the fitted product,
and finally row-norm clipping. Each projection is exact, so the
constraint set is restored at every iteration (up to clipping, which is
inactive when ``M`` is chosen above the solution's row norms).
The default start, ``spectral_warm_start``, is the rank-``r`` truncated
SVD of a transformed response matrix, computed from the top eigenpairs
of its smaller Gram rather than a full SVD.

``oracle_fit_A`` / ``oracle_fit_Z`` solve the row-separable convex
problems obtained when the opposite block is known, by damped Newton
vectorized across rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.special import logit

from .exceptions import DegenerateFitError, OracleFitError
from .model import ResponseFamily, ResponseMatrix, risk, risk_d1, risk_d2

__all__ = [
    "ParamPair",
    "FitConfig",
    "FitTrace",
    "FitResult",
    "erm_fit",
    "spectral_warm_start",
    "oracle_fit_A",
    "oracle_fit_Z",
    "row_grams",
]


@dataclass(frozen=True)
class ParamPair:
    """Latent scores ``Z`` (n x r) and representation matrix ``A`` (q x r).

    Treated as immutable; operations that transform a pair return a new
    one so fitted pairs can be shared across threads.
    """

    Z: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        A = np.asarray(self.A, dtype=float)
        if Z.ndim != 2 or A.ndim != 2 or Z.shape[1] != A.shape[1]:
            raise ValueError(f"incompatible shapes Z {Z.shape}, A {A.shape}")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def q(self) -> int:
        return self.A.shape[0]

    @property
    def r(self) -> int:
        return self.A.shape[1]

    def theta(self) -> np.ndarray:
        """Fitted natural parameters ``Z A'``."""
        return self.Z @ self.A.T

    def gram(self) -> np.ndarray:
        """Empirical latent Gram ``Z'Z / n``."""
        return self.Z.T @ self.Z / self.n

    def rotate(self, G: np.ndarray) -> "ParamPair":
        """Apply the rotation pairing ``(Z, A) -> (Z G', A G^{-1})``."""
        G = np.asarray(G, dtype=float)
        return ParamPair(self.Z @ G.T, self.A @ np.linalg.inv(G))


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings for :func:`erm_fit`.

    ``M`` caps all row norms; when None it defaults to twice the spectral
    warm start's largest row norm, which keeps the cap inactive at any
    reasonable solution.
    """

    M: float | None = None
    max_iters: int = 1000
    tol: float = 1e-9


@dataclass
class FitTrace:
    """Per-iteration objective values and final diagnostics."""

    objectives: list = field(default_factory=list)
    status: str = "converged"
    n_iters: int = 0
    gram_residual: float = math.nan
    diag_residual: float = math.nan
    max_row_norm: float = math.nan


@dataclass(frozen=True)
class FitResult:
    params: ParamPair
    trace: FitTrace


class _Cells:
    """The risk and its derivative at ``Z A'``, computed in two reused
    n x q buffers: allocating fresh ones at every line-search trial makes
    the allocator hand pages back and fault them in again each time."""

    def __init__(self, values: np.ndarray, family: ResponseFamily):
        self.values, self.family = values, family
        self.theta = np.empty(values.shape)
        self.out = np.empty(values.shape)

    def objective(self, Z, A) -> float:
        theta = np.matmul(Z, A.T, out=self.theta)
        return float(risk(self.family, theta, self.values, out=self.out).sum())

    def d1(self, Z, A) -> np.ndarray:
        theta = np.matmul(Z, A.T, out=self.theta)
        return risk_d1(self.family, theta, self.values, out=self.out)


def _polar_retract(Z: np.ndarray) -> np.ndarray:
    """Nearest matrix with ``Z'Z = n I`` (scaled polar factor)."""
    n = Z.shape[0]
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    if s[-1] < 1e-8 * math.sqrt(n):
        raise DegenerateFitError(
            f"rank collapse: smallest singular value {s[-1]:.3e} below threshold"
        )
    return math.sqrt(n) * (U @ Vt)


def _diagonalize(Z: np.ndarray, A: np.ndarray):
    """Co-rotate both blocks so ``A'A`` becomes diagonal.

    The rotation is orthogonal, leaving the fitted product, the latent
    Gram, and all row norms unchanged. Columns are ordered by decreasing
    eigenvalue with a deterministic sign convention.
    """
    w, V = np.linalg.eigh(A.T @ A)
    order = np.argsort(w)[::-1]
    V = V[:, order]
    anchor = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[anchor, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V = V * signs
    return Z @ V, A @ V


def _clip_rows(X: np.ndarray, M: float) -> tuple[np.ndarray, bool]:
    norms = np.linalg.norm(X, axis=1)
    over = norms > M
    if not np.any(over):
        return X, False
    X = X.copy()
    X[over] *= (M / norms[over])[:, None]
    return X, True


def spectral_warm_start(data: ResponseMatrix, r: int) -> ParamPair:
    """Rank-``r`` spectral initializer on a family-specific transform.

    The transform maps each cell to a rough natural-parameter scale
    (identity for gaussian, logit of clipped values for bernoulli, log of
    clipped values for poisson). Its rank-``r`` truncated SVD comes from
    the top ``r + 1`` eigenpairs of the smaller Gram (``X'X`` or ``XX'``)
    followed by one Rayleigh-Ritz step, a thin SVD of ``X`` projected on
    the top ``r`` eigenvectors (Halko, Martinsson & Tropp 2011). When the
    ``r``-th eigengap is at most ``1e-6`` of the largest eigenvalue, that
    subspace is ill-determined and the full thin SVD of ``X`` is taken
    instead. The pair already satisfies both Gram constraints; each
    column pair is signed so that the largest-magnitude entry of its
    ``A`` column is positive (first index on ties).
    """
    Y = data.values
    kind = data.family.kind
    if kind == "gaussian":
        X = Y
    elif kind == "bernoulli":
        X = logit(np.clip(Y, 0.1, 0.9))
    else:
        X = np.log(np.clip(Y, 0.25, None))
    n, q = X.shape
    k = min(n, q)
    wide = q > n
    gram = X @ X.T if wide else X.T @ X
    w, V = eigh(gram, subset_by_index=[max(k - r - 1, 0), k - 1])
    w, V = w[::-1], V[:, ::-1]
    if r < k and w[r - 1] - w[r] <= 1e-6 * w[0]:
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        U, s, Vt = U[:, :r], s[:r], Vt[:r]
    elif wide:
        W, s, Vt = np.linalg.svd(V[:, :r].T @ X, full_matrices=False)
        U = V[:, :r] @ W
    else:
        U, s, Wt = np.linalg.svd(X @ V[:, :r], full_matrices=False)
        Vt = Wt @ V[:, :r].T
    A = Vt.T * (s / math.sqrt(n))
    signs = np.sign(A[np.argmax(np.abs(A), axis=0), np.arange(r)])
    signs[signs == 0] = 1.0
    return ParamPair(math.sqrt(n) * U * signs, A * signs)


def erm_fit(
    data: ResponseMatrix,
    r: int,
    config: FitConfig | None = None,
    warm_start: ParamPair | None = None,
) -> FitResult:
    """Fit the constrained empirical risk minimizer.

    Returns the fitted pair together with a trace of objective values;
    the objective is nonincreasing along accepted steps. A warning status
    is recorded if ``max_iters`` is reached before the relative objective
    change drops below ``tol``.
    """
    config = config or FitConfig()
    Y = data.values
    n, q = Y.shape
    if n < r or q < r:
        raise ValueError(f"need n, q >= r; got n={n}, q={q}, r={r}")
    family = data.family

    if warm_start is None:
        start = spectral_warm_start(data, r)
    else:
        start = warm_start
    M = config.M
    if M is None:
        M = 2.0 * max(
            np.linalg.norm(start.Z, axis=1).max(),
            np.linalg.norm(start.A, axis=1).max(),
        )

    Z = _polar_retract(np.asarray(start.Z, dtype=float))
    A = np.asarray(start.A, dtype=float).copy()
    Z, A = _diagonalize(Z, A)
    A, _ = _clip_rows(A, M)
    Z, clipped = _clip_rows(Z, M)
    if clipped:
        Z = _polar_retract(Z)

    cells = _Cells(Y, family)
    f = cells.objective(Z, A)
    trace = FitTrace(objectives=[f])
    step_z = step_a = 1.0

    for it in range(config.max_iters):
        # Z block: Riemannian gradient step with polar retraction; the
        # tangent projection avoids Armijo stalls at manifold-stationary
        # points where the normal gradient component dominates
        grad_z = cells.d1(Z, A) @ A
        S = Z.T @ grad_z
        grad_z = grad_z - Z @ ((S + S.T) / (2.0 * n))
        gz2 = float((grad_z**2).sum())
        step_z *= 2.0
        for _ in range(60):
            Z_c = _polar_retract(Z - step_z * grad_z)
            Z_c, clipped = _clip_rows(Z_c, M)
            if clipped:
                Z_c = _polar_retract(Z_c)
            f_c = cells.objective(Z_c, A)
            if f_c <= f - 1e-4 * step_z * gz2:
                Z, f = Z_c, f_c
                break
            step_z *= 0.5

        # A block: gradient step, then co-rotation to restore diagonality
        grad_a = cells.d1(Z, A).T @ Z
        ga2 = float((grad_a**2).sum())
        step_a *= 2.0
        for _ in range(60):
            A_c, _ = _clip_rows(A - step_a * grad_a, M)
            f_c = cells.objective(Z, A_c)
            if f_c <= f - 1e-4 * step_a * ga2:
                A, f = A_c, f_c
                break
            step_a *= 0.5
        Z, A = _diagonalize(Z, A)

        trace.objectives.append(f)
        prev = trace.objectives[-2]
        if abs(prev - f) <= config.tol * (1.0 + abs(prev)):
            trace.n_iters = it + 1
            break
    else:
        trace.status = "max_iters"
        trace.n_iters = config.max_iters
        warnings.warn(
            f"erm_fit reached max_iters={config.max_iters} with relative change "
            f"above tol={config.tol}; returning last iterate",
            RuntimeWarning,
        )

    if np.linalg.svd(A, compute_uv=False)[-1] < 1e-10 * math.sqrt(q):
        raise DegenerateFitError("fitted representation matrix is rank deficient")

    params = ParamPair(Z, A)
    gram = params.gram()
    trace.gram_residual = float(np.linalg.norm(gram - np.eye(r)))
    AtA = A.T @ A / q
    trace.diag_residual = float(np.abs(AtA - np.diag(np.diag(AtA))).max())
    trace.max_row_norm = float(
        max(np.linalg.norm(Z, axis=1).max(), np.linalg.norm(A, axis=1).max())
    )
    return FitResult(params, trace)


def row_grams(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted Grams ``X' diag(w[:, k]) X`` for every column ``k`` of ``w``.

    ``X`` is (m, r) and ``w`` is (m, k); the (k, r, r) stack comes from
    one matrix product of ``w'`` with the row-wise outer products of ``X``.
    """
    m, r = X.shape
    outer = (X[:, :, None] * X[:, None, :]).reshape(m, r * r)
    return (w.T @ outer).reshape(w.shape[1], r, r)


def _separable_fit(
    X: np.ndarray,
    targets: np.ndarray,
    family: ResponseFamily,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> np.ndarray:
    """Solve ``min_b sum_m l(x_m' b; y_mk)`` for every target column ``k``.

    Damped Newton vectorized across columns; rows of the output are the
    per-column solutions. Columns whose problem has no finite minimizer
    (separable binary data) are detected by a gradient that will not
    vanish and raise :class:`OracleFitError`.
    """
    X = np.asarray(X, dtype=float)
    m, r = X.shape
    k = targets.shape[1]
    if np.linalg.matrix_rank(X) < r:
        raise DegenerateFitError("design matrix is rank deficient")
    B = np.zeros((k, r))
    f = risk(family, X @ B.T, targets).sum(axis=0)

    for _ in range(max_iter):
        theta = X @ B.T
        g1 = risk_d1(family, theta, targets)
        grad = g1.T @ X  # (k, r)
        gnorm = np.linalg.norm(grad, axis=1)
        active = gnorm > tol
        if not active.any():
            break
        w = risk_d2(family, theta)
        H = row_grams(X, w[:, active]) + 1e-12 * np.eye(r)
        d = -np.linalg.solve(H, grad[active][:, :, None])[:, :, 0]
        gd = (grad[active] * d).sum(axis=1)

        idx = np.flatnonzero(active)
        B_new = B.copy()
        # inside the quadratic basin the objective decrease falls below
        # float resolution; take pure Newton steps there instead of
        # stalling on the value-based line search
        pure = gnorm[idx] < 1e-4
        if pure.any():
            cand = B[idx[pure]] + d[pure]
            B_new[idx[pure]] = cand
            f[idx[pure]] = risk(family, X @ cand.T, targets[:, idx[pure]]).sum(axis=0)
        t = np.ones(idx.size)
        accepted = pure.copy()
        for _ in range(50):
            todo = ~accepted
            if not todo.any():
                break
            cand = B[idx[todo]] + t[todo, None] * d[todo]
            f_c = risk(family, X @ cand.T, targets[:, idx[todo]]).sum(axis=0)
            ok = f_c <= f[idx[todo]] + 1e-4 * t[todo] * gd[todo]
            sel = np.flatnonzero(todo)[ok]
            B_new[idx[sel]] = cand[ok]
            f[idx[sel]] = f_c[ok]
            accepted[sel] = True
            t[np.flatnonzero(todo)[~ok]] *= 0.5
        B = B_new

    theta = X @ B.T
    gnorm = np.linalg.norm((risk_d1(family, theta, targets).T @ X), axis=1)
    bad = np.flatnonzero((gnorm > tol) | (np.linalg.norm(B, axis=1) > 1e6))
    if bad.size:
        if r == 1:
            for j in bad:
                B[j, 0] = _bisect_scalar(X[:, 0], targets[:, j], family, tol)
        else:
            raise OracleFitError(
                f"per-row solve did not reach gradient tolerance for rows {bad.tolist()[:5]}"
            )
    if family.kind == "bernoulli":
        # the binary risk is nonnegative with zero attainable only in the
        # limit of a perfect fit, so a vanishing row risk means separation
        # and the minimizer sits at infinity
        f = risk(family, X @ B.T, targets).sum(axis=0)
        separated = np.flatnonzero(f < 1e-8)
        if separated.size:
            raise OracleFitError(
                f"rows {separated.tolist()[:5]} have no finite minimizer (separable data)"
            )
    return B


def _bisect_scalar(x: np.ndarray, y: np.ndarray, family: ResponseFamily, tol: float) -> float:
    """Bisection fallback for the one-dimensional row problem.

    The gradient ``g(b) = sum_m d1(x_m b; y_m) x_m`` is nondecreasing in
    ``b`` by convexity; a missing sign change over a huge bracket means
    the minimizer diverges (e.g. separable binary data).
    """

    def g(b):
        return float((risk_d1(family, x * b, y) * x).sum())

    lo, hi = -1.0, 1.0
    for _ in range(60):
        if g(lo) < 0 < g(hi) or g(lo) == 0 or g(hi) == 0:
            break
        lo *= 2.0
        hi *= 2.0
        if hi > 1e12:
            raise OracleFitError("row problem has no finite minimizer (separable data)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if abs(val) <= tol:
            return mid
        if val < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_fit_A(data: ResponseMatrix, Z_star: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Fit every row of ``A`` with the latent scores held fixed at ``Z_star``."""
    return _separable_fit(np.asarray(Z_star, dtype=float), data.values, data.family, tol=tol)


def oracle_fit_Z(data: ResponseMatrix, A_star: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Fit every row of ``Z`` with the representation held fixed at ``A_star``."""
    return _separable_fit(np.asarray(A_star, dtype=float), data.values.T, data.family, tol=tol)
