"""Classical rotation baselines: varimax (orthogonal) and promax (oblique).

Varimax ascends the variance-of-squared-loadings criterion of the
Kaiser-normalized (unit row norm) loadings over the orthogonal group from
the identity and random starts drawn from one seed, all at once as one
stacked batch; each step takes the better of the classical fixed-point
step and a Newton step. Promax follows the standard two-stage recipe:
varimax first, then an oblique least-squares procrustes fit to an
elementwise power of the (row-normalized) varimax loadings, rescaled so
the implied latent variances are one. Both always normalize rows.

The ascent holds rotated loadings in the transposed layout ``(k, r, q)``,
with the ``q`` rows innermost, so every reduction over rows runs along
contiguous memory, and the Newton curvature is one batched matrix
product over ``(k, p, r q)``. The criterion comes from :mod:`criteria`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import _varimax_value_grad, polar, varimax_criterion
from .exceptions import DegenerateTargetError

__all__ = ["varimax_rotate", "promax_rotate", "VarimaxResult", "PromaxResult"]


MAX_ITERS = 1000
TOL = 1e-10
RESTARTS = 10
PROMAX_POWER = 4


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


def _row_norms(A: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(A, axis=1)
    return np.where(norms > 0, norms, 1.0)[:, None]


def _skew_basis(r: int):
    """The ``r (r - 1) / 2`` skew basis matrices ``E`` of the ``r x r``
    rotations' tangent space, ``(p, r, r)``, and their pairwise products
    ``E_i E_j``, ``(p, p, r, r)``."""
    a, b = np.triu_indices(r, 1)
    E = np.eye(r)[a, :, None] * np.eye(r)[b, None, :]
    E = E - np.swapaxes(E, 1, 2)
    return E, E[:, None] @ E[None]


def _candidates(W: np.ndarray, G: np.ndarray, gq: np.ndarray, E: np.ndarray, EE: np.ndarray):
    """The fixed-point and the Newton step from each rotation of a stack;
    ``gq`` is the stack's criterion gradient in the transposed layout, and
    ``E, EE`` are :func:`_skew_basis` of its size.

    The fixed-point step is ``polar(N)``, ``N = W' grad``, a
    gradient-projection step of unit length. The Newton step maximizes the
    model ``f + <G'N, K> + (<G'N, K^2> + <L K, H[L K]>) / 2`` of the
    criterion at ``G exp(K)``, ``L = W G``, over the ``r (r - 1) / 2``
    skew coordinates of ``K``, and retracts by the polar factor.
    """
    q, r = W.shape
    Lt = (np.swapaxes(G, 1, 2) @ W.T)[:, None]
    N = np.swapaxes(gq @ W, 1, 2)
    Vt = np.swapaxes(E, 1, 2) @ Lt  # (L E)' for every direction E
    sq = Lt * Lt
    cross = (Lt * Vt).sum(axis=-1, keepdims=True)
    HVt = 4.0 / q * (Vt * (3.0 * sq - sq.mean(axis=-1, keepdims=True)) - 2.0 / q * Lt * cross)
    GN = np.swapaxes(G, 1, 2) @ N
    k, p = Vt.shape[:2]
    curvature = Vt.reshape(k, p, r * q) @ np.swapaxes(HVt.reshape(k, p, r * q), 1, 2)
    curvature += np.einsum("krs,ijrs->kij", GN + np.swapaxes(GN, 1, 2), EE) / 2
    slope = np.einsum("krs,irs->ki", GN, E)
    # the curvature's absolute value keeps the step uphill near a saddle
    lam, Q = np.linalg.eigh(curvature)
    x = np.linalg.pinv((Q * np.abs(lam)[:, None, :]) @ np.swapaxes(Q, 1, 2)) @ slope[..., None]
    return np.stack([polar(N), polar(G + G @ (x[..., None] * E).sum(axis=1))])


def _ascend(W: np.ndarray, G: np.ndarray, max_iters: int):
    """Move each start to the better of its two candidates until a step
    is shorter than 1e-15 (or 1e-13 without gain), would lower the
    criterion by more than ``1e-14 (1 + |f|)`` (it is then rejected), or
    ``max_iters`` steps are done. Candidates whose criteria differ by at
    most ``8e-16 (1 + |f|)`` are tied at rounding level; a tie goes to the
    Newton step, since the fixed-point step can swing across a maximum
    near simple structure without converging. Returns the stack,
    criteria, accepted steps and criterion history (one row per step, one
    column per start).
    """
    G = G.copy()
    E, EE = _skew_basis(W.shape[1])
    f, gq = _varimax_value_grad(np.swapaxes(G, 1, 2) @ W.T)
    iters = np.zeros(len(G), dtype=int)
    live = np.arange(len(G))
    history = [f.copy()]
    for _ in range(max_iters):
        cand = _candidates(W, G[live], gq[live], E, EE)
        f_cand, gq_cand = _varimax_value_grad(np.swapaxes(cand, 2, 3) @ W.T)
        tie = np.abs(f_cand[0] - f_cand[1]) <= 8e-16 * (1.0 + np.abs(f[live]))
        pick = np.where(tie, 1, np.argmax(f_cand, axis=0)), np.arange(live.size)
        G_new, f_new, gq_new = cand[pick], f_cand[pick], gq_cand[pick]
        ok = f_new >= f[live] - 1e-14 * (1.0 + np.abs(f[live]))
        moved = live[ok]
        step = np.linalg.norm(G_new[ok] - G[moved], axis=(1, 2))
        gained = f_new[ok] > f[moved]
        G[moved], f[moved], gq[moved] = G_new[ok], f_new[ok], gq_new[ok]
        iters[moved] += 1
        history.append(f.copy())
        live = moved[(step >= 1e-15) & (gained | (step >= 1e-13))]
        if live.size == 0:
            break
    return G, f, iters, np.array(history)


def _starts(r: int, seed: int) -> np.ndarray:
    """The identity, then ``RESTARTS - 1`` random rotations from ``seed``."""
    rng = np.random.default_rng(seed)
    random_starts = polar(rng.standard_normal((RESTARTS - 1, r, r)))
    return np.concatenate([np.eye(r)[None], random_starts])


def varimax_rotate(A: np.ndarray, seed: int = 0) -> VarimaxResult:
    """Best local maximizer of the varimax criterion over rotations.

    The ascent runs from the identity and ``RESTARTS - 1`` random
    rotations drawn from ``seed``, each for at most ``MAX_ITERS`` steps.
    Returns the first start whose criterion is within
    ``1e-12 (1 + |f_max|)`` of the best; ``n_iters`` and ``trace`` (its
    criterion before and after each accepted step) are that start's.
    ``G`` is orthogonal to machine precision and ``A_rot = A @ G``. The
    criterion of the Kaiser-normalized loadings ``W`` (rows scaled to unit
    norm) is maximized; row norms are rotation-invariant, so this only
    reweights rows in the objective. ``converged`` holds when the
    stationarity residual, the norm of the skew part of ``G' W' grad``,
    is at most ``TOL``.
    """
    A = np.asarray(A, dtype=float)
    r = A.shape[1]
    if np.linalg.matrix_rank(A) < r:
        raise ValueError("loadings must have full column rank")
    if r == 1:
        return VarimaxResult(np.eye(1), A.copy(), varimax_criterion(A), 0, True, ())

    W = A / _row_norms(A)
    G, f, iters, history = _ascend(W, _starts(r, seed), MAX_ITERS)
    best = int(np.argmax(f >= f.max() - 1e-12 * (1.0 + abs(f.max()))))
    G = polar(G[best])  # refresh orthogonality to machine precision
    M = G.T @ W.T @ _varimax_value_grad(G.T @ W.T)[1].T
    converged = bool(np.linalg.norm(M - M.T) / 2.0 <= TOL)
    trace = tuple(history[: iters[best] + 1, best].tolist())
    A_rot = A @ G
    return VarimaxResult(G, A_rot, varimax_criterion(A_rot), int(iters[best]), converged, trace)


def promax_rotate(A: np.ndarray, varimax: VarimaxResult) -> PromaxResult:
    """Oblique promax rotation.

    Varimax first: ``varimax`` is :func:`varimax_rotate`'s result for
    ``A``, so ``A @ varimax.G == varimax.A_rot``; the target raises the
    Kaiser-normalized (row-normalized) varimax loadings elementwise to
    ``PROMAX_POWER`` with signs retained; an oblique least-squares
    procrustes fit maps the varimax loadings onto the target; finally the
    transformation columns are rescaled so the implied latent variances
    are one. Returned ``G`` follows the pairing ``A_rot = A @ G^{-1}``,
    and ``factor_correlation = G G'`` has unit diagonal.
    """
    A = np.asarray(A, dtype=float)
    if not np.array_equal(A @ varimax.G, varimax.A_rot):
        raise ValueError("varimax result was not computed from these loadings")
    R, B = varimax.G, varimax.A_rot
    B_norm = B / _row_norms(A)
    target = np.sign(B_norm) * np.abs(B_norm) ** PROMAX_POWER

    BtB = B.T @ B
    if np.linalg.cond(BtB) > 1e12:
        raise DegenerateTargetError("procrustes normal matrix is numerically singular")
    L = np.linalg.solve(BtB, B.T @ target)
    if np.linalg.cond(L) > 1e12:
        raise DegenerateTargetError("procrustes transformation is numerically singular")

    scale = np.sqrt(np.diag(np.linalg.inv(L.T @ L)))
    # G^{-1} = R L diag(scale) makes diag(G G') exactly one
    G_inv = R @ L * scale[None, :]
    G = np.linalg.inv(G_inv)
    A_rot = A @ G_inv
    phi = G @ G.T
    phi = (phi + phi.T) / 2.0
    np.fill_diagonal(phi, 1.0)
    return PromaxResult(G=G, A_rot=A_rot, factor_correlation=phi)
