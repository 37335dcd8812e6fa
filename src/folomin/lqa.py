"""Local quadratic approximation iterations for the folded rotation.

Each iteration majorizes the folded criterion at the current loadings by
a weighted quadratic, solves the resulting eigen-subproblem per column
under unit-column-norm and identity-proximity constraints, converts the
solution into a rotation whose transformed latent columns keep unit
empirical variances, and applies the rotation pairing. The fitted
product is preserved exactly at every step, and under a consistent
starting pair a single iteration already lands on the target rotation up
to the estimation-error scale; extra iterations only polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criteria import FoldedLoss, _feasible_project, folded_criterion
from .erm import ParamPair
from .exceptions import DegenerateSubproblemError

__all__ = ["LqaConfig", "LqaTrace", "LqaResult", "lqa_weights", "lqa_subproblem", "lqa_run"]

# bound on each step's distance from the identity in operator norm: a
# numerical guard, since any fixed value works
STEP_RADIUS = 1.0


@dataclass(frozen=True)
class LqaConfig:
    """Settings for the rotation iterations.

    ``eta`` regularizes the quadratic weights so they stay bounded near
    zero loadings and should be at least the estimation-error scale of
    the loadings (0.15 matches moderate sample sizes), and ``T`` is the
    number of iterations (one suffices for the statistical guarantee; a
    few more polish the solution). ``fit_pipeline`` and ``folomin fit``
    take their ``eta`` and ``T`` defaults from here. Each step stays
    within the constant ``STEP_RADIUS`` of the identity.
    """

    loss: FoldedLoss
    eta: float = 0.15
    T: int = 5
    mode: str = "oblique"

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be strictly positive")
        if self.T < 0:
            raise ValueError("T must be nonnegative")
        if self.mode not in ("oblique", "orthogonal"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class LqaTrace:
    """Per-iteration diagnostics."""

    criterion: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    gram_residuals: list = field(default_factory=list)


@dataclass(frozen=True)
class LqaResult:
    G_total: np.ndarray
    params: ParamPair
    trace: LqaTrace


def lqa_weights(A_t: np.ndarray, loss: FoldedLoss, eta: float) -> np.ndarray:
    """Quadratic majorization weights ``rho'(|a|) / sqrt(a^2 + eta^2)``.

    Exact zeros use the one-sided slope at zero; non-differentiable
    points (truncated l1 at ``gamma``) use derivative zero; entries on
    the plateau get weight zero.
    """
    A_t = np.asarray(A_t, dtype=float)
    return loss.weight_deriv(A_t) / np.sqrt(A_t**2 + eta**2)


def _surrogate(A_t: np.ndarray, weights: np.ndarray, H: np.ndarray) -> float:
    return float((weights * (A_t @ H) ** 2).sum())


def lqa_subproblem(A_t: np.ndarray, weights: np.ndarray, R: float) -> np.ndarray:
    """Minimize the weighted quadratic over unit-norm columns near I.

    The objective decouples across columns: column ``l`` is the unit
    eigenvector for the smallest eigenvalue of
    ``W_l = sum_j w_jl a_j a_j'``, with sign fixed so the l-th coordinate
    is nonnegative and ties within a degenerate smallest eigenspace
    resolved toward the identity (the direction maximizing the l-th
    coordinate). If the assembled matrix leaves the operator-norm ball of
    radius ``R`` around I, it is blended toward I (columns renormalized)
    with the largest feasible blend factor.
    """
    A_t = np.asarray(A_t, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    q, r = A_t.shape
    H = np.empty((r, r))
    for l in range(r):
        W_l = (A_t * weights[:, l][:, None]).T @ A_t
        evals, evecs = np.linalg.eigh(W_l)
        tol = max(1e-12, 1e-10 * max(abs(evals[0]), abs(evals[-1])))
        span = evecs[:, evals <= evals[0] + tol]
        # within the minimal eigenspace, maximize |h_l| (identity tie-break)
        h = span @ span[l]
        nh = np.linalg.norm(h)
        h = span[:, 0] if nh < 1e-12 else h / nh
        if h[l] < 0:
            h = -h
        H[:, l] = h

    if np.linalg.cond(H) > 1e8:
        raise DegenerateSubproblemError(
            "subproblem selected near-identical columns (condition number > 1e8)"
        )

    if np.linalg.norm(H - np.eye(r), 2) > R:
        H_best = np.eye(r)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            s = 0.5 * (lo + hi)
            cand = np.eye(r) + s * (H - np.eye(r))
            cand = cand / np.linalg.norm(cand, axis=0)
            if np.linalg.norm(cand - np.eye(r), 2) <= R:
                H_best, lo = cand, s
            else:
                hi = s
        H = H_best
        # never accept a blended point worse than staying at the identity
        if _surrogate(A_t, weights, H) > _surrogate(A_t, weights, np.eye(r)):
            H = np.eye(r)
    return H


def lqa_run(start: ParamPair, config: LqaConfig) -> LqaResult:
    """Run ``T`` rotation iterations from a consistent starting pair.

    Returns the composed rotation ``G_total`` (so that the output pair is
    ``(Z G_total', A G_total^{-1})`` of the input), the final pair, and a
    trace. Orthogonal mode projects each step's rotation onto the
    orthogonal group instead of rescaling against the latent Gram.
    """
    pair, loss = start, config.loss
    G_total = np.eye(start.r)
    trace = LqaTrace()
    trace.criterion.append(folded_criterion(pair.A, loss))

    for _ in range(config.T):
        H = lqa_subproblem(pair.A, lqa_weights(pair.A, loss, config.eta), STEP_RADIUS)
        G = _feasible_project(np.linalg.inv(H), pair.gram(), config.mode)
        pair = pair.rotate(G)
        G_total = G @ G_total

        crit = folded_criterion(pair.A, loss)
        if not math.isfinite(crit):
            raise DegenerateSubproblemError("criterion became non-finite during iteration")
        trace.criterion.append(crit)
        trace.step_norms.append(float(np.linalg.norm(H - np.eye(start.r), 2)))
        trace.gram_residuals.append(float(np.abs(np.diag(pair.gram()) - 1.0).max()))

    return LqaResult(G_total=G_total, params=pair, trace=trace)
