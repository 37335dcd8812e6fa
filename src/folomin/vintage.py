"""Classical rotation baselines: varimax (orthogonal) and promax (oblique).

Varimax ascends the variance-of-squared-loadings criterion over the
orthogonal group by projected gradient steps with a polar retraction,
keeping the best of several random restarts. Promax follows the standard
two-stage recipe: varimax first, then an oblique least-squares procrustes
fit to an elementwise power of the (row-normalized) varimax loadings,
rescaled so the implied latent variances are one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import polar, varimax_criterion
from .exceptions import DegenerateTargetError

__all__ = ["VintageConfig", "varimax_rotate", "promax_rotate", "VarimaxResult", "PromaxResult"]


@dataclass(frozen=True)
class VintageConfig:
    """Optimizer settings for the baseline rotations."""

    max_iters: int = 1000
    tol: float = 1e-10
    restarts: int = 10
    kaiser_normalize: bool = True
    seed: int = 0


@dataclass(frozen=True)
class VarimaxResult:
    G: np.ndarray
    A_rot: np.ndarray
    criterion: float
    n_iters: int
    converged: bool
    trace: tuple = ()


@dataclass(frozen=True)
class PromaxResult:
    G: np.ndarray
    A_rot: np.ndarray
    factor_correlation: np.ndarray


def _varimax_value_grad(L: np.ndarray):
    """Criterion and its gradient in the rotated loadings."""
    q = L.shape[0]
    sq = L**2
    col_means = sq.mean(axis=0)
    value = float(((L**4).sum(axis=0) - q * col_means**2).sum() / q)
    grad = 4.0 / q * L * (sq - col_means)
    return value, grad


def _ascend(A: np.ndarray, G0: np.ndarray, max_iters: int, tol: float):
    """Projected gradient ascent over the orthogonal group from ``G0``."""
    G = G0
    L = A @ G
    f, gq = _varimax_value_grad(L)
    grad = A.T @ gq
    step = 1.0
    it = 0
    converged = False
    trace = [f]
    for it in range(max_iters):
        M = G.T @ grad
        tangent = grad - G @ (M + M.T) / 2.0
        s = np.linalg.norm(tangent)
        if s < tol:
            converged = True
            break
        step *= 2.0
        for _ in range(60):
            G_new = polar(G + step * tangent)
            L = A @ G_new
            f_new, gq = _varimax_value_grad(L)
            if f_new > f + 1e-4 * step * s**2:
                break
            step *= 0.5
        else:
            converged = True
            break
        G, f = G_new, f_new
        trace.append(f)
        grad = A.T @ gq
    return G, f, it + 1, converged, trace


def _svd_polish(W: np.ndarray, G: np.ndarray, max_iters: int = 200):
    """Fixed-point polish of a varimax stationary point.

    Iterates the polar factor of the criterion's pullback gradient;
    unlike value-based backtracking this drives the stationarity residual
    to machine precision instead of stalling at its square root.
    """
    f, gq = _varimax_value_grad(W @ G)
    for _ in range(max_iters):
        G_new = polar(W.T @ gq)
        f_new, gq_new = _varimax_value_grad(W @ G_new)
        if f_new < f - 1e-14 * (1.0 + abs(f)):
            break
        delta = np.linalg.norm(G_new - G)
        G, f, gq = G_new, f_new, gq_new
        if delta < 1e-15:
            break
    return G, f


def varimax_rotate(A: np.ndarray, config: VintageConfig | None = None) -> VarimaxResult:
    """Best local maximizer of the varimax criterion over rotations.

    Runs gradient-projection ascent from the identity and from random
    orthogonal restarts, returning the rotation with the highest
    criterion value; the result is orthogonal to machine precision and
    ``A_rot = A @ G``. With ``kaiser_normalize`` (the conventional
    default) the ascent maximizes the criterion of the row-normalized
    loadings; row norms are rotation-invariant, so the normalization
    commutes with the search and only reweights rows in the objective.
    """
    config = config or VintageConfig()
    A = np.asarray(A, dtype=float)
    r = A.shape[1]
    if np.linalg.matrix_rank(A) < r:
        raise ValueError("loadings must have full column rank")
    if r == 1:
        return VarimaxResult(np.eye(1), A.copy(), varimax_criterion(A), 0, True, ())

    if config.kaiser_normalize:
        norms = np.linalg.norm(A, axis=1)
        W = A / np.where(norms > 0, norms, 1.0)[:, None]
    else:
        W = A

    rng = np.random.default_rng(config.seed)
    starts = [np.eye(r)]
    for _ in range(max(config.restarts - 1, 0)):
        starts.append(polar(rng.standard_normal((r, r))))

    best = None
    for G0 in starts:
        G, f, iters, conv, trace = _ascend(W, G0, config.max_iters, config.tol)
        G, f = _svd_polish(W, G)
        trace = trace + [f]
        if best is None or f > best[1]:
            best = (G, f, iters, conv, trace)
    G, _, iters, conv, trace = best
    G = polar(G)  # refresh orthogonality to machine precision
    A_rot = A @ G
    return VarimaxResult(
        G=G,
        A_rot=A_rot,
        criterion=varimax_criterion(A_rot),
        n_iters=iters,
        converged=conv,
        trace=tuple(trace),
    )


def promax_rotate(
    A: np.ndarray, power: int = 4, config: VintageConfig | None = None
) -> PromaxResult:
    """Oblique promax rotation.

    Varimax is run first (on row-normalized loadings when Kaiser
    normalization is enabled); the target raises the normalized varimax
    loadings elementwise to ``power`` with signs retained; an oblique
    least-squares procrustes fit maps the varimax loadings onto the
    target; finally the transformation columns are rescaled so the
    implied latent variances are one. Returned ``G`` follows the pairing
    ``A_rot = A @ G^{-1}``, and ``factor_correlation = G G'`` has unit
    diagonal.
    """
    if power < 2:
        raise ValueError("promax power must be at least 2")
    config = config or VintageConfig()
    A = np.asarray(A, dtype=float)
    r = A.shape[1]

    vres = varimax_rotate(A, config)
    R = vres.G
    B = vres.A_rot
    if config.kaiser_normalize:
        row_norms = np.linalg.norm(A, axis=1)
        B_norm = B / np.where(row_norms > 0, row_norms, 1.0)[:, None]
    else:
        B_norm = B

    target = np.sign(B_norm) * np.abs(B_norm) ** power

    BtB = B.T @ B
    if np.linalg.cond(BtB) > 1e12:
        raise DegenerateTargetError("procrustes normal matrix is numerically singular")
    L = np.linalg.solve(BtB, B.T @ target)
    if np.linalg.cond(L) > 1e12:
        raise DegenerateTargetError("procrustes transformation is numerically singular")

    LtL_inv = np.linalg.inv(L.T @ L)
    scale = np.sqrt(np.diag(LtL_inv))
    # G^{-1} = R L diag(scale) makes diag(G G') exactly one
    G_inv = R @ L * scale[None, :]
    G = np.linalg.inv(G_inv)
    A_rot = A @ G_inv
    phi = G @ G.T
    phi = (phi + phi.T) / 2.0
    np.fill_diagonal(phi, 1.0)
    return PromaxResult(G=G, A_rot=A_rot, factor_correlation=phi)
