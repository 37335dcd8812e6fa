"""Plug-in standard errors, Wald intervals, and multiple testing.

Each row of the representation matrix has an asymptotic sandwich
covariance: the inverse curvature of its separable risk (bread) around
the weighted score second moment (meat), both evaluated at the fitted
parameters. A fit, ERM or oracle, returns that stack for the pair it
returns (``FitResult.sandwich_A``), and every rotation of the pair maps
it by congruence; :func:`rotated_std_errors` reads the standard errors
off it. :func:`build_report` turns the standard errors of a
representation matrix into Wald intervals and two-sided z-tests, with
Benjamini-Hochberg or Bonferroni adjustment of the resulting p-values.
Nothing here reads data. Column alignment utilities resolve the signed
permutation indeterminacy when comparing an estimate to a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .erm import FitResult
from .exceptions import DegenerateVarianceError

__all__ = [
    "InferenceReport",
    "rotated_std_errors",
    "wald_intervals",
    "two_sided_p",
    "bh_adjust",
    "bonferroni_adjust",
    "adjust_p_values",
    "align",
    "build_report",
]


def rotated_std_errors(fit: FitResult, G: np.ndarray) -> np.ndarray:
    """The ``q x r`` standard errors of ``A G^{-1}`` at the rotation
    ``fit.params.rotate(G) = (Z G', A G^{-1})`` of a fitted pair.

    The rotation keeps ``Z A'``, so the risk's derivatives at every cell
    are those of the fit; row ``j`` of ``A G^{-1}`` is ``G^{-T} a_j``,
    and its sandwich is the fit's ``S_j`` under the congruence
    ``G^{-T} S_j G^{-1}``. The standard errors are the square roots of
    its diagonal over ``n``; no kernel pass and no bread inversion is
    needed.
    """
    G_inv = np.linalg.inv(np.asarray(G, dtype=float))
    sandwich = G_inv.T @ fit.sandwich_A @ G_inv
    return np.sqrt(sandwich.diagonal(axis1=1, axis2=2) / fit.params.n)


def wald_intervals(estimates: np.ndarray, se: np.ndarray, level: float):
    """Entrywise Wald intervals ``est +- z_level * se`` and z-scores
    ``est / se``; returns ``(lower, upper, z)``.

    Every standard error must be finite and positive.
    """
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    estimates = np.asarray(estimates, dtype=float)
    se = np.asarray(se, dtype=float)
    bad = ~(np.isfinite(se) & (se > 0))
    if bad.any():
        j, l = np.argwhere(bad)[0]
        raise DegenerateVarianceError(
            f"standard error {float(se[j, l])} for entry ({j}, {l}) is not finite and positive"
        )
    mult = _wald_multiplier(level)
    return estimates - mult * se, estimates + mult * se, estimates / se


def _wald_multiplier(level: float) -> float:
    """The two-sided normal quantile ``Phi^{-1}((1 + level) / 2)``."""
    return NormalDist().inv_cdf((1.0 + level) / 2.0)


_erfc = np.frompyfunc(math.erfc, 1, 1)
# past this argument exp(-t^2) underflows, and Cephes's erfc returns 0
_ERFC_ZERO_BEYOND = math.sqrt(math.log(np.finfo(float).max))


def two_sided_p(z: np.ndarray) -> np.ndarray:
    """Two-sided normal p-values ``erfc(|z| / sqrt 2)`` for z-scores.

    As in the Cephes ``erfc``, a p-value is 0 once ``exp(-z^2 / 2)``
    underflows (``|z|`` above about 37.68); short of that it may be
    subnormal. A scalar or 0-d input gives a float.
    """
    t = np.abs(np.asarray(z, dtype=float)) * math.sqrt(0.5)
    p = np.asarray(_erfc(t), dtype=float)
    p[t > _ERFC_ZERO_BEYOND] = 0.0
    return p[()]


def bh_adjust(p_values, alpha: float):
    """Step-up false-discovery-rate adjustment.

    Returns monotone adjusted p-values (in the input order) and the
    rejection indicators at level ``alpha``.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise ValueError("p_values must be one-dimensional")
    if np.any((p < 0) | (p > 1)) or not np.all(np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    # the factor m / k rounds to at least 1, so no adjusted value rounds below its raw one
    ranked = p[order] * (m / np.arange(1, m + 1))
    adjusted_sorted = np.minimum.accumulate(ranked[::-1])[::-1]
    adjusted_sorted = np.minimum(adjusted_sorted, 1.0)
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    rejections = adjusted <= alpha
    return adjusted, rejections


def bonferroni_adjust(p_values, alpha: float):
    """Bonferroni adjustment: ``min(1, m * p)`` with rejections at alpha."""
    p = np.asarray(p_values, dtype=float)
    if np.any((p < 0) | (p > 1)) or not np.all(np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")
    adjusted = np.minimum(1.0, p * p.size)
    return adjusted, adjusted <= alpha


def adjust_p_values(p: np.ndarray, alpha: float, method: str, per_column: bool):
    """Adjust a ``q x r`` array of p-values by ``method`` (``bh`` or
    ``bonferroni``).

    With ``per_column`` each column is its own testing family (one per
    latent dimension); otherwise one family covers all entries. Returns
    the adjusted p-values and the rejections at ``alpha``, shaped like
    ``p``. ``alpha`` must lie in (0, 1).
    """
    if method not in ("bh", "bonferroni"):
        raise ValueError(f"unknown adjustment {method!r}")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    adjuster = bh_adjust if method == "bh" else bonferroni_adjust
    if not per_column:
        adjusted, rejections = adjuster(p.ravel(), alpha)
        return adjusted.reshape(p.shape), rejections.reshape(p.shape)
    adjusted = np.empty_like(p)
    rejections = np.empty_like(p, dtype=bool)
    for l in range(p.shape[1]):
        adjusted[:, l], rejections[:, l] = adjuster(p[:, l], alpha)
    return adjusted, rejections


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Row matched to each column by a minimum-cost perfect matching of
    the finite square matrix ``cost``.

    Hungarian algorithm with potentials, O(r^3): rows join the matching
    one at a time, each along a shortest augmenting path in the reduced
    costs ``cost[i, j] - u[i] - v[j]``, which the potentials keep
    nonnegative, and zero on matched pairs, so the final matching is
    optimal. Each path search starts from the sentinel column ``r``.
    """
    r = cost.shape[0]
    u, v = np.zeros(r), np.zeros(r + 1)
    row_of = np.full(r + 1, -1)
    for i in range(r):
        row_of[r] = i
        j0 = r
        dist = np.full(r, np.inf)  # shortest path length to each column
        prev = np.zeros(r, dtype=int)  # each column's predecessor on it
        used = np.zeros(r + 1, dtype=bool)
        while row_of[j0] >= 0:
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0] - u[i0] - v[:r]
            closer = ~used[:r] & (reduced < dist)
            dist[closer] = reduced[closer]
            prev[closer] = j0
            j1 = int(np.where(used[:r], np.inf, dist).argmin())
            delta = dist[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            dist[~used[:r]] -= delta
            j0 = j1
        while j0 != r:  # flip the matching along the path back to the root
            row_of[j0] = row_of[prev[j0]]
            j0 = prev[j0]
    return row_of[:r]


def align(estimate: np.ndarray, truth: np.ndarray):
    """Best signed column permutation matching ``estimate`` to ``truth``.

    Minimizes the Frobenius distance over all signed permutations. The
    objective separates across matched column pairs, so the optimum is
    found exactly by resolving the best sign per pair and solving the
    assignment problem on the residual costs.

    Returns ``(perm, signs, aligned)`` where column ``l`` of ``aligned``
    is ``signs[l] * estimate[:, perm[l]]``.
    """
    E = np.asarray(estimate, dtype=float)
    T = np.asarray(truth, dtype=float)
    if E.shape != T.shape:
        raise ValueError(f"shape mismatch {E.shape} vs {T.shape}")
    r = E.shape[1]
    e2 = (E**2).sum(axis=0)
    t2 = (T**2).sum(axis=0)
    cross = E.T @ T  # cross[k, l] = e_k . t_l
    # cost of assigning estimate column k to truth column l at the best sign
    cost = e2[:, None] + t2[None, :] - 2.0 * np.abs(cross)
    if not np.isfinite(cost).all():
        raise ValueError("estimate and truth must be finite")
    perm = _min_cost_assignment(cost)
    signs = np.sign(cross[perm, np.arange(r)])
    signs[signs == 0] = 1.0
    aligned = E[:, perm] * signs
    return perm, signs, aligned


@dataclass(frozen=True)
class InferenceReport:
    """Entrywise inference on the representation matrix ``A`` of a fitted
    pair; the latent scores get no intervals or tests.

    Every array is ``q x r``, one entry per entry of ``A``.
    """

    lower_A: np.ndarray
    upper_A: np.ndarray
    z_A: np.ndarray
    se_A: np.ndarray
    p_A: np.ndarray
    adjusted_p_A: np.ndarray
    rejections_A: np.ndarray


def build_report(
    A: np.ndarray,
    se_A: np.ndarray,
    level: float = 0.95,
    alpha: float = 0.05,
    adjust: str = "bh",
    per_column: bool = True,
) -> InferenceReport:
    """Wald intervals, z-tests and adjusted p-values for every entry of
    the representation matrix ``A``, whose standard errors are ``se_A``
    (for a pipeline's rotation, ``PipelineResult.std_errors``).

    The latent scores are not covered. ``adjust`` and ``per_column`` are
    passed to :func:`adjust_p_values`.
    """
    se_A = np.asarray(se_A, dtype=float)
    lower_A, upper_A, z_A = wald_intervals(A, se_A, level)
    p_A = two_sided_p(z_A)
    adjusted, rejections = adjust_p_values(p_A, alpha, adjust, per_column)
    return InferenceReport(lower_A, upper_A, z_A, se_A, p_A, adjusted, rejections)
