"""End-to-end fitting pipeline: constrained fit, initial rotation, folded
rotation. Shared by the Monte Carlo harness and the command line."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .criteria import FoldedLoss, folded_criterion
from .erm import FitConfig, FitResult, ParamPair, ResponseMatrix, erm_fit
from .exceptions import CollinearAxesError, InsufficientSimpleStructureError
from .inference import rotated_std_errors
from .initialization import (
    MIN_SET_SIZE,
    InitResult,
    _rotations,
    candidate_sets,
    similarity_matrix,
)
from .lqa import LqaConfig, LqaResult, lqa_run

__all__ = ["PipelineResult", "suggest_gamma", "fit_pipeline", "make_loss", "auto_init"]

AUTO_DELTA_PRIME_GRID = (0.02, 0.01, 0.005, 0.0025)
EXTRA_SETS = 2


def make_loss(kind: str, gamma: float) -> FoldedLoss:
    """Construct a folded loss by name with its conventional shape default."""
    if kind == "mcp":
        return FoldedLoss.mcp(gamma)
    if kind == "scad":
        return FoldedLoss.scad(gamma)
    if kind == "tl1":
        return FoldedLoss.truncated_l1(gamma)
    raise ValueError(f"unknown loss kind {kind!r}")


def suggest_gamma(A: np.ndarray, se_A: np.ndarray, a3: float) -> float:
    """Data-driven scale for the folded loss at the loadings ``A``, from
    their ``q x r`` standard errors ``se_A``.

    The smallest loading magnitude that clears three plug-in standard
    errors, divided by ``a3 + 1`` so the loss plateau stays below the
    weakest credible signal; entries that cannot clear the significance
    margin are noise-dominated either way, so the margin itself supplies
    the safety headroom. Falls back to three times the median standard
    error when nothing is significant.
    """
    mags = np.abs(A)
    significant = mags > 3.0 * se_A
    lam_hat = float(mags[significant].min()) if significant.any() else 3.0 * float(np.median(se_A))
    return lam_hat / (a3 + 1.0)


def auto_init(fit: FitResult, delta: float = 0.01) -> InitResult:
    """Initial rotation of a fitted pair, with cluster slack and axis sets
    chosen by the criterion.

    No single cluster slack is safe in every sample: a loose one can
    merge a bundle of merely-similar dense rows into a fake axis, a
    tight one can fragment a true cluster below a fake bundle's size.
    Candidate rotations are therefore built over a small grid of slacks
    (reusing one similarity matrix), and at every slack over all ways of
    choosing the axes among the ``r + EXTRA_SETS`` largest disjoint
    clusters, so a true cluster pushed out of the top ``r`` by a fake
    bundle stays in play. Since the estimand is the rotation minimizing
    the folded criterion, the winner among candidates is picked the same
    way: smallest criterion value at a common conservative scale, with
    grid order breaking exact ties. A candidate whose axes are nearly
    collinear (two fragments of the same cluster) is discarded; when every
    candidate is, :class:`CollinearAxesError` names the smallest condition
    number among them.
    """
    params = fit.params
    A0, r = params.A, params.r
    sims = similarity_matrix(params, delta)
    null_vectors = {}  # shared by all slacks: the same unions recur
    candidates = []  # (rotation, sets, rotated loadings), in grid order
    found_max, best_cond = 0, np.inf
    for dp in AUTO_DELTA_PRIME_GRID:
        try:
            top = candidate_sets(sims, dp, r, extra=EXTRA_SETS)
        except InsufficientSimpleStructureError as exc:
            found_max = max(found_max, exc.found)
            continue
        found_max = max(found_max, r)
        choices = [[top[i] for i in combo] for combo in combinations(range(len(top)), r)]
        kept, G0, cond = _rotations(A0, choices, null_vectors)
        best_cond = min(best_cond, cond.min())
        # the loadings of params.rotate(G0), by the same expression
        candidates += zip(G0, [choices[i] for i in kept], A0 @ np.linalg.inv(G0))
    if found_max == r and not candidates:
        raise CollinearAxesError(
            f"every choice of axes is collinear: the best has condition {best_cond:.3e} > 1e8"
        )
    if not candidates:
        raise InsufficientSimpleStructureError(
            found=found_max,
            needed=r,
            message=f"no slack in {AUTO_DELTA_PRIME_GRID} produced {r} disjoint clusters "
            f"of size >= {MIN_SET_SIZE}; best attempt found {found_max}",
        )
    G_ref, _, A_ref = candidates[0]
    gamma_cmp = suggest_gamma(A_ref, rotated_std_errors(fit, G_ref), a3=3.0)
    loss_cmp = FoldedLoss.mcp(gamma_cmp, 3.0)
    G0, sets, _ = min(candidates, key=lambda c: folded_criterion(c[2], loss_cmp))
    return InitResult(params=params.rotate(G0), rotation=G0, selected_sets=sets)


@dataclass(frozen=True)
class PipelineResult:
    fit: FitResult
    init: InitResult | None
    rotations: dict[str, LqaResult]
    gammas: dict[str, float]

    def params(self, loss_name: str) -> ParamPair:
        return self.rotations[loss_name].params

    def std_errors(self, loss_name: str) -> np.ndarray:
        """The ``q x r`` standard errors of ``params(loss_name).A``: the
        fit's sandwiches under the rotation ``G_total @ init.rotation``
        that made the pair."""
        G = self.rotations[loss_name].G_total @ self.init.rotation
        return rotated_std_errors(self.fit, G)


def fit_pipeline(
    data: ResponseMatrix,
    r: int,
    losses: dict[str, FoldedLoss | None] | None = None,
    fit_config: FitConfig | None = None,
    init_delta: float = 0.01,
    eta: float = LqaConfig.eta,
    T: int = LqaConfig.T,
    mode: str = "oblique",
) -> PipelineResult:
    """Run the full estimation pipeline.

    ``losses`` maps a loss name (``mcp``, ``scad``, ``tl1``) to a fully
    specified :class:`FoldedLoss`, or to ``None`` to let
    :func:`suggest_gamma` pick the scale after the initial rotation.
    The initial rotation is :func:`auto_init`'s, with ``init_delta`` as
    the norm floor. Without losses the pipeline stops after the fit.
    """
    losses = {"mcp": None} if losses is None else losses
    fit = erm_fit(data, r, config=fit_config)
    init = auto_init(fit, delta=init_delta) if losses else None

    rotations: dict[str, LqaResult] = {}
    gammas: dict[str, float] = {}
    se_A = rotated_std_errors(fit, init.rotation) if init else None
    for name, loss in losses.items():
        if loss is None:
            # the plateau multiple a3 does not depend on the scale
            a3 = make_loss(name, 1.0).a3
            loss = make_loss(name, suggest_gamma(init.params.A, se_A, a3))
        gammas[name] = loss.gamma
        cfg = LqaConfig(loss=loss, eta=eta, T=T, mode=mode)
        rotations[name] = lqa_run(init.params, cfg)
    return PipelineResult(fit=fit, init=init, rotations=rotations, gammas=gammas)
