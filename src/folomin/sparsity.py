"""Simple rows, cone neighbourhoods, and sparsity verification.

A *simple* row of a ``q x r`` matrix is proportional to a standard basis
vector: it loads on exactly one latent dimension. The machinery here
classifies rows, measures how strongly the zero pattern pins down the
axes, and verifies the angular-separation sparsity condition used by the
rotation guarantees: every nonzero entry at least ``lam`` in magnitude,
simple rows of every dimension outnumbering the cone neighbourhood of
any non-simple row, and row norms bounded by ``M``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparsityProfile",
    "SparsityWitness",
    "cone_neighborhood",
    "detect_simple_rows",
    "is_sparse",
]

# entries at most this large in magnitude count as zero in :func:`is_sparse`
ZERO_TOL = 1e-10


@dataclass(frozen=True)
class SparsityProfile:
    """Row classification and strength diagnostics for a ``q x r`` matrix.

    ``simple_sets[l]`` holds the indices of rows proportional to basis
    vector ``l``; ``non_simple`` holds nonzero rows loading on more than
    one dimension; zero rows belong to neither. ``lambda_min`` is the
    smallest nonzero entry magnitude (NaN for an all-zero matrix).
    ``sigma_q_inv`` is the smallest (r-1)-th eigenvalue, over dimensions
    ``l``, of the scaled Gram of the rows with a zero in position ``l``;
    ``sigma_tilde_q_inv`` is the per-dimension simple-row signal energy
    relative to the total number of simple rows.
    """

    simple_sets: list[frozenset[int]]
    non_simple: frozenset[int]
    lambda_min: float
    row_norm_max: float
    sigma_q_inv: float
    sigma_tilde_q_inv: float

    @property
    def simple_rows(self) -> frozenset[int]:
        return frozenset().union(*self.simple_sets) if self.simple_sets else frozenset()


@dataclass(frozen=True)
class SparsityWitness:
    """Outcome of a sparsity check; ``clause`` names the first violation."""

    ok: bool
    clause: str | None = None
    index: tuple | None = None
    detail: str = ""


def cone_neighborhood(A: np.ndarray, j: int, epsilon: float, zero_tol: float = 0.0) -> set[int]:
    """Indices of nonzero rows within angular slack ``epsilon`` of row ``j``.

    Returns ``{j' : ||a_j'|| > zero_tol and |cos(a_j, a_j')| >= 1 - epsilon}``,
    and the empty set when row ``j`` itself is zero. Cosines are clamped to
    [-1, 1] to absorb rounding.
    """
    A = np.asarray(A, dtype=float)
    q = A.shape[0]
    if not 0 <= j < q:
        raise IndexError(f"row index {j} out of range for {q} rows")
    norms = np.linalg.norm(A, axis=1)
    if norms[j] <= zero_tol:
        return set()
    cos = A @ A[j] / np.where(norms > 0, norms * norms[j], 1.0)
    cos = np.clip(cos, -1.0, 1.0)
    keep = (norms > zero_tol) & (np.abs(cos) >= 1.0 - epsilon)
    return set(np.flatnonzero(keep).tolist())


def detect_simple_rows(A: np.ndarray, zero_tol: float = 1e-10) -> SparsityProfile:
    """Classify rows of ``A`` and compute the sparsity-strength diagnostics.

    An entry is treated as zero when its magnitude is at most ``zero_tol``;
    the default suits exact synthetic matrices, while estimated matrices
    need a tolerance reflecting their noise level.
    """
    A = np.asarray(A, dtype=float)
    q, r = A.shape
    if r < 2:
        raise ValueError("need at least 2 columns: the axis-strength eigenvalue is undefined for r < 2")
    big = np.abs(A) > zero_tol
    n_big = big.sum(axis=1)

    simple_sets = [set() for _ in range(r)]
    non_simple = set()
    for j in range(q):
        if n_big[j] == 0:
            continue
        if n_big[j] == 1:
            simple_sets[int(np.argmax(big[j]))].add(j)
        else:
            non_simple.add(j)

    nonzero_mags = np.abs(A)[big]
    lambda_min = float(nonzero_mags.min()) if nonzero_mags.size else math.nan
    row_norm_max = float(np.linalg.norm(A, axis=1).max()) if q else 0.0

    # sigma_q^{-1}: min over l of the (r-1)-th largest eigenvalue of
    # q^{-1} A_{T_l}' A_{T_l}, with T_l the rows whose l-th entry is zero.
    sigma_q_inv = math.inf
    for l in range(r):
        T_l = ~big[:, l]
        gram = A[T_l].T @ A[T_l] / q
        eigvals = np.linalg.eigvalsh(gram)  # ascending
        sigma_q_inv = min(sigma_q_inv, float(eigvals[1]))
    sigma_q_inv = max(sigma_q_inv, 0.0)

    n_simple = sum(len(s) for s in simple_sets)
    if n_simple == 0:
        sigma_tilde_q_inv = 0.0
    else:
        energies = [float(sum(A[j, l] ** 2 for j in simple_sets[l])) for l in range(r)]
        sigma_tilde_q_inv = min(energies) / n_simple

    return SparsityProfile(
        simple_sets=[frozenset(s) for s in simple_sets],
        non_simple=frozenset(non_simple),
        lambda_min=lambda_min,
        row_norm_max=row_norm_max,
        sigma_q_inv=sigma_q_inv,
        sigma_tilde_q_inv=sigma_tilde_q_inv,
    )


def is_sparse(A: np.ndarray, lam: float, epsilon: float, M: float) -> SparsityWitness:
    """Check the three sparsity clauses; report the first violation.

    Clause order: minimum nonzero magnitude at least ``lam``
    (``signal-strength``), every non-simple row's epsilon-cone smaller
    than the smallest simple set (``angular-separation``), and row norms
    at most ``M`` (``row-norm``).
    """
    if not (lam > 0 and epsilon > 0 and M > 0):
        raise ValueError("lam, epsilon and M must be strictly positive")
    A = np.asarray(A, dtype=float)
    profile = detect_simple_rows(A, zero_tol=ZERO_TOL)

    if not math.isnan(profile.lambda_min) and profile.lambda_min < lam:
        mags = np.abs(A)
        mask = mags > ZERO_TOL
        masked = np.where(mask, mags, np.inf)
        idx = np.unravel_index(int(np.argmin(masked)), A.shape)
        return SparsityWitness(
            False, "signal-strength", idx,
            f"|A[{idx}]| = {mags[idx]:.6g} < lam = {lam:.6g}",
        )

    min_simple = min((len(s) for s in profile.simple_sets), default=0)
    for j in sorted(set(range(A.shape[0])) - profile.simple_rows):
        size = len(cone_neighborhood(A, j, epsilon, zero_tol=ZERO_TOL))
        if size >= min_simple:
            return SparsityWitness(
                False, "angular-separation", (j,),
                f"|cone({j})| = {size} >= min simple-set size {min_simple}",
            )

    norms = np.linalg.norm(A, axis=1)
    if norms.max(initial=0.0) > M:
        j = int(np.argmax(norms))
        return SparsityWitness(
            False, "row-norm", (j,), f"||A[{j}]|| = {norms[j]:.6g} > M = {M:.6g}"
        )

    return SparsityWitness(True)
