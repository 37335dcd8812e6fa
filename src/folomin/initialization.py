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
    "InitResult",
    "similarity_matrix",
    "axes_from_sets",
    "candidate_sets",
]

MIN_SET_SIZE = 2


@dataclass(frozen=True)
class InitResult:
    """Output of the initial rotation step."""

    params: ParamPair
    rotation: np.ndarray
    selected_sets: list[frozenset[int]]


def similarity_matrix(params: ParamPair, delta: float) -> np.ndarray:
    """All pairwise similarities ``cos(Z a_j1, Z a_j2)`` with a norm floor.

    Entry ``(j1, j2)`` is zero whenever ``||Z a_j1|| ||Z a_j2|| / n`` is
    at most ``delta``. The row images enter only through their Gram
    ``A (Z'Z) A'``, so the similarities are the normalized rows of
    ``A L`` with ``L L' = Z'Z``: ``O(q^2 r)`` work and no ``n x q`` array.
    """
    w, Q = np.linalg.eigh(params.Z.T @ params.Z)
    # eigenvalues at the rounding level of Z'Z belong to a rank-deficient Z
    w[w <= w.max(initial=0.0) * max(params.Z.shape) * np.finfo(float).eps] = 0.0
    B = params.A @ (Q * np.sqrt(w))  # rows: a_j' L
    norms = np.linalg.norm(B, axis=1)
    B /= np.where(norms > 0, norms, 1.0)[:, None]
    cos = np.clip(B @ B.T, -1.0, 1.0)
    cos[np.outer(norms, norms) / params.n <= delta] = 0.0
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
    sizes = np.count_nonzero(candidate, axis=1)
    anchors = np.flatnonzero(sizes >= MIN_SET_SIZE)
    # the anchors still disjoint from every accepted set, in greedy order
    open_ = anchors[np.argsort(-sizes[anchors], kind="stable")]
    chosen: list[frozenset[int]] = []
    while open_.size and len(chosen) < r + extra:
        row = candidate[open_[0]]
        chosen.append(frozenset(np.flatnonzero(row).tolist()))
        open_ = open_[~candidate[np.ix_(open_, row)].any(axis=1)]
    if len(chosen) < r:
        raise InsufficientSimpleStructureError(found=len(chosen), needed=r)
    return chosen


MAX_AXIS_COND = 1e8


def _rotations(
    A0: np.ndarray,
    choices: list[list[frozenset[int]]],
    null_vectors: dict[frozenset[frozenset[int]], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial rotations of the loadings ``A0`` for choices of ``r`` sets.

    Returns ``(kept, G0, cond)``: the indices of the choices whose axis
    matrix has condition number at most ``MAX_AXIS_COND``, their
    rotations stacked in that order, and every choice's condition number.
    ``null_vectors`` maps a union of "other" sets to its right singular
    vector for the smallest singular value; a caller that keeps it across
    calls takes one SVD per distinct union.
    """
    r = A0.shape[1]
    V = np.empty((len(choices), r, r))
    for c, sets in enumerate(choices):
        if len(sets) != r:
            raise ValueError(f"need exactly {r} sets, got {len(sets)}")
        for k in range(r):
            others = frozenset(sets[:k] + sets[k + 1 :])
            if others not in null_vectors:
                rows = sorted(frozenset().union(*others))
                # a thin SVD of fewer than r rows has no null vector to return
                Vt = np.linalg.svd(A0[rows], full_matrices=len(rows) < r)[2]
                null_vectors[others] = Vt[-1]
            V[c, :, k] = null_vectors[others]
            if float((A0[sorted(sets[k])] @ V[c, :, k]).sum()) < 0:
                V[c, :, k] = -V[c, :, k]
    cond = np.linalg.cond(V)
    kept = np.flatnonzero(~(cond > MAX_AXIS_COND))
    V_inv = np.linalg.inv(V[kept])
    scale = np.sqrt(np.diagonal(V_inv @ np.swapaxes(V_inv, 1, 2), axis1=1, axis2=2))
    return kept, V_inv / scale[..., None], cond


def axes_from_sets(params: ParamPair, sets: list[frozenset[int]]) -> InitResult:
    """Build the initial rotation from given candidate simple-row sets.

    The rotation column for set ``k`` is the right singular vector of
    the loadings of all other sets for the smallest singular value,
    sign-fixed toward nonnegative column sums on its own set; a diagonal
    rescale keeps the rotated latent columns at unit empirical variance.
    """
    kept, G0, cond = _rotations(params.A, [list(sets)], {})
    if not kept.size:
        raise CollinearAxesError(
            f"axis matrix condition number {cond[0]:.3e} exceeds 1e8"
        )
    return InitResult(params=params.rotate(G0[0]), rotation=G0[0], selected_sets=list(sets))
