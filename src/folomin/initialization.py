"""Rotation-invariant simple-row detection and the initial rotation.

The constrained fit determines the parameter pair only up to a rotation.
The similarity ``cos(Z a_j1, Z a_j2)`` is invariant under the pairing
``(Z, A) -> (Z G', A G^{-1})``, so clusters of rows with similarity near
one identify candidate simple rows regardless of the basis the fit came
back in. The initial rotation is assembled from the least-covered right
singular vector of the loading submatrix complementary to each selected
cluster and rescaled so the rotated latent columns keep unit variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .erm import ParamPair
from .exceptions import CollinearAxesError, InsufficientSimpleStructureError

__all__ = [
    "InitConfig",
    "InitResult",
    "similarity_matrix",
    "init_rotation",
    "axes_from_sets",
    "candidate_sets",
]

MIN_SET_SIZE = 2


@dataclass(frozen=True)
class InitConfig:
    """Thresholds for the simple-row search.

    ``delta`` floors the product of the two compared row images (rows
    below the floor are treated as uninformative); ``delta_prime`` is
    the cosine slack defining a cluster; clusters smaller than
    ``MIN_SET_SIZE`` are ignored to guard against singleton noise.

    The cluster slack must sit between the similarity estimation noise
    and the angular gap separating truly proportional rows from merely
    nearby ones; 0.01 balances both at moderate sample sizes, while
    loose values merge clusters and poison the axis estimates.
    """

    delta: float = 0.01
    delta_prime: float = 0.01

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be strictly positive")
        if not 0 < self.delta_prime < 1:
            raise ValueError("delta_prime must lie in (0, 1)")


@dataclass(frozen=True)
class InitResult:
    """Output of the initial rotation step."""

    params: ParamPair
    rotation: np.ndarray
    selected_sets: list[frozenset[int]]


def similarity_matrix(params: ParamPair, delta: float) -> np.ndarray:
    """All pairwise similarities ``cos(Z a_j1, Z a_j2)`` with a norm floor.

    Entry ``(j1, j2)`` is zero whenever ``||Z a_j1|| ||Z a_j2|| / n`` is
    at most ``delta``.
    """
    U = params.Z @ params.A.T  # n x q images of the rows
    norms = np.linalg.norm(U, axis=0)
    outer = np.outer(norms, norms)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = (U.T @ U) / np.where(outer > 0, outer, 1.0)
    cos = np.clip(cos, -1.0, 1.0)
    cos[outer / params.n <= delta] = 0.0
    return cos


def candidate_sets(
    sims: np.ndarray, delta_prime: float, r: int, extra: int = 0
) -> list[frozenset[int]]:
    """Greedy pick of the largest pairwise-disjoint candidate sets.

    The candidate set of row ``j`` collects the rows whose similarity to
    it exceeds ``1 - delta_prime``. Candidates of at least
    ``MIN_SET_SIZE`` rows are ordered by size descending with ties broken
    by the smallest anchor index; a candidate is accepted iff disjoint
    from all previously accepted sets. Up to ``r + extra`` sets are
    returned (the surplus lets a caller consider alternative axis
    combinations); fewer than ``r`` raises.
    """
    candidate = sims > 1.0 - delta_prime
    sets = [set(np.flatnonzero(row).tolist()) for row in candidate]
    order = sorted(
        (j for j, s in enumerate(sets) if len(s) >= MIN_SET_SIZE),
        key=lambda j: (-len(sets[j]), j),
    )
    chosen: list[frozenset[int]] = []
    used: set[int] = set()
    for j in order:
        if sets[j].isdisjoint(used):
            chosen.append(frozenset(sets[j]))
            used |= sets[j]
            if len(chosen) == r + extra:
                break
    if len(chosen) < r:
        raise InsufficientSimpleStructureError(found=len(chosen), needed=r)
    return chosen


def axes_from_sets(params: ParamPair, sets: list[frozenset[int]]) -> InitResult:
    """Build the initial rotation from given candidate simple-row sets.

    The rotation column for set ``k`` is the right singular vector of
    the loadings of all other sets for the smallest singular value,
    sign-fixed toward nonnegative column sums on its own set; a diagonal
    rescale keeps the rotated latent columns at unit empirical variance.
    """
    A0, r = params.A, params.r
    if len(sets) != r:
        raise ValueError(f"need exactly {r} sets, got {len(sets)}")
    V = np.empty((r, r))
    for k in range(r):
        rows = sorted(set().union(*(sets[l] for l in range(r) if l != k)))
        _, _, Vt = np.linalg.svd(A0[rows], full_matrices=True)
        V[:, k] = Vt[-1]
    for k in range(r):
        if float((A0[sorted(sets[k])] @ V[:, k]).sum()) < 0:
            V[:, k] = -V[:, k]

    if np.linalg.cond(V) > 1e8:
        raise CollinearAxesError(
            f"axis matrix condition number {np.linalg.cond(V):.3e} exceeds 1e8"
        )
    V_inv = np.linalg.inv(V)
    scale = np.sqrt(np.diag(V_inv @ V_inv.T))
    G0 = V_inv / scale[:, None]
    return InitResult(params=params.rotate(G0), rotation=G0, selected_sets=list(sets))


def init_rotation(params: ParamPair, config: InitConfig | None = None) -> InitResult:
    """Construct the initial rotation from detected simple-row clusters.

    For each row ``j`` the candidate set collects rows with similarity
    above ``1 - delta_prime``; the ``r`` largest disjoint candidates
    approximate the simple-row sets. The rotation column for cluster
    ``k`` is the right singular vector of the loadings of all *other*
    clusters belonging to the smallest singular value, sign-fixed so the
    rotated loadings have nonnegative column sums on their own cluster.
    The final diagonal rescale restores unit variances of the rotated
    latent columns, so the output pair satisfies
    ``diag(Z'Z / n) = I`` whenever the input does.
    """
    config = config or InitConfig()
    sims = similarity_matrix(params, config.delta)
    selected = candidate_sets(sims, config.delta_prime, params.r)
    return axes_from_sets(params, selected)
