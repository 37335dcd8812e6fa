"""Constrained empirical-risk fitting of the latent-variable model.

``erm_fit`` minimizes ``sum_ij l(a_j' z_i; Y_ij)`` over ``(Z, A)`` subject
to the identification constraints

* ``Z'Z / n = I`` (orthonormal latent scores),
* ``A'A / q`` diagonal,
* all row norms of ``Z`` and ``A`` at most ``M``, for ``A`` to rounding
  (see below),

by block-coordinate damped Newton (joint maximum likelihood by
alternating row-separable convex solves, Chen, Li & Zhang 2019). Each
sweep takes one damped Newton step for every row of ``Z`` with ``A``
fixed, restores ``Z'Z / n = I`` by an ``r x r`` co-transformation of
both blocks that keeps ``Z A'``, takes one damped Newton step for every
row of ``A`` with ``Z`` fixed, and co-rotates both blocks to make
``A'A`` diagonal. Row steps stay inside the cap ``M``. The fit stops
when every row's Newton decrement is negligible against its risk, so a
converged fit is stationary, not merely slow to change.
Since a sweep ends on the ``A`` step, every returned ``A`` row is within
``M`` to rounding. A returned ``Z`` row is not always: the normalization
after the last ``Z`` step moves the ``Z`` rows, and a capped row can end
above ``M`` by as much as that move, seen up to about ``6e-5 M`` on
stalled bernoulli fits and ``1e-7 M`` on a converged one.
``FitTrace.max_row_norm`` and ``FitTrace.cap`` report the largest row
norm of the returned pair and the cap.
The start, ``spectral_warm_start``, is the rank-``r`` truncated
SVD of a transformed response matrix, computed from the top eigenpairs
of its smaller Gram rather than a full SVD. Those come from block
subspace iteration with a Rayleigh-Ritz step, started from a fixed-seed
Gaussian test matrix and stopped once every top-``r`` Ritz residual is
at most ``1e-14`` of the largest Ritz value; the full thin SVD is taken
instead when the iteration has not converged within
``WARM_START_MAX_STEPS`` steps or the ``r``-th eigengap is a near tie.

``oracle_fit_A`` solves the row-separable convex problems obtained when
the latent scores are known, by damped Newton vectorized across rows; it
and the ERM sweeps share one Newton step.
That step evaluates each trial point once, so the risk, gradient and
curvature of an accepted row feed the next direction with no further
kernel call: the ``Z`` step's cells serve the ``A`` step
(the normalization keeps ``Z A'``), and the ``A`` step's cells serve the
next sweep's test and ``Z`` step (so does the diagonalization). Only a
halved or retaken step is evaluated again. The oracle works on an
active set: a settled row does not move again, so each step evaluates
only the rows that are still active. An evaluation writes ``Z A'`` (the
evaluated rows' part of it) into its first output by one matrix product
and runs the kernel over row blocks small enough for the L2 cache, so the
ERM fit holds three ``n x q`` buffers, the risk cells and both
derivatives, and no separate ``Z A'``.

Both fits return a :class:`FitResult` that holds the plug-in sandwiches
``B_j^{-1} M_j B_j^{-1}`` of its ``A`` rows at the returned pair, inverted
once there. An ERM fit takes the breads ``B_j`` from the rows' risk
Hessians that its last convergence test formed, and the meats ``M_j``
from the gradients it holds there; the oracle takes both from one kernel
pass at the pair it returns. No other module evaluates the risk on the
data for inference: every standard error, of a fit or of any rotation of
it, is read off its stack (:func:`inference.rotated_std_errors`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateFitError, IllConditionedCovarianceError, OracleFitError
from .model import ResponseFamily, ResponseMatrix
from .model import _cells as _risk_cells

__all__ = [
    "ParamPair",
    "FitConfig",
    "FitTrace",
    "FitResult",
    "erm_fit",
    "spectral_warm_start",
    "oracle_fit_A",
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


# a sweep may raise the objective by the retake slack 1e-12 (1 + |f|); a
# fit whose last STALL_SWEEPS objectives all lie above the least one
# recorded before them only creeps within that slack, and has stalled
STALL_SWEEPS = 10


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings for :func:`erm_fit`.

    ``M`` caps the row norms, those of the returned ``A`` to rounding and
    those of ``Z`` up to the last normalization's move (see the module
    docstring); when None it defaults to twice the spectral warm start's
    largest row norm. That default can bind: on
    ``SimDesign(n=120, q=80, r=2, lambda_signal=0.3, tau=0.5)`` drawn
    with ``np.random.default_rng(0)``, the fit ends with a row of each
    block on the cap (``FitTrace.max_row_norm`` reaches ``M``) and retakes
    most of its sweeps. ``tol`` bounds every row's Newton decrement
    ``g'H^{-1}g`` relative to that row's risk ``f``: the fit has converged
    when ``g'H^{-1}g <= tol * (1 + |f|)`` for every row of both blocks.
    ``max_iters`` caps the number of sweeps. A given ``M`` must be
    positive, and ``max_iters`` and ``tol`` nonnegative.
    """

    M: float | None = None
    max_iters: int = 1000
    tol: float = 1e-11

    def __post_init__(self):
        if not (self.M is None or self.M > 0):
            raise ValueError("the row-norm cap M must be strictly positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.tol >= 0:
            raise ValueError("tol must be nonnegative")


@dataclass
class FitTrace:
    """Per-sweep objective values and final diagnostics.

    ``status`` is ``"converged"`` when the decrement test passed,
    ``"stalled"`` when the last ``STALL_SWEEPS`` recorded objectives all
    lie above the least one recorded before them, and ``"max_iters"``
    when ``max_iters`` sweeps ended before either. ``stationarity`` is
    the largest relative row decrement ``g'H^{-1}g / (1 + |f|)`` over
    both blocks at the returned pair (over the rows of ``A`` for an
    oracle fit, whose ``n_iters`` counts its Newton passes).
    ``max_row_norm`` is the largest row norm of the returned pair (of its
    ``A`` for an oracle fit), and ``cap`` the ``M`` that the ERM fit used
    (NaN for an oracle fit, which has none).
    """

    objectives: list = field(default_factory=list)
    status: str = "converged"
    n_iters: int = 0
    stationarity: float = math.nan
    max_row_norm: float = math.nan
    cap: float = math.nan


@dataclass(frozen=True)
class FitResult:
    """A fitted pair, its trace, and the ``(q, r, r)`` stack of the
    sandwich covariances of every row of ``A`` at ``params``.

    Row ``j`` of ``A`` has sandwich ``B_j^{-1} M_j B_j^{-1}``, with bread
    ``B_j = Z' diag(l''_j) Z / n`` and meat ``M_j = Z' diag(l'_j^2) Z / n``
    and the risk's derivatives ``l'`` and ``l''`` taken at column ``j``
    of ``Z A'``.
    """

    params: ParamPair
    trace: FitTrace
    sandwich_A: np.ndarray


def _normalize(Z: np.ndarray, A: np.ndarray):
    """Co-transform ``(Z, A)`` so that ``Z'Z / n = I``, leaving ``Z A'``
    unchanged: ``Z`` is divided by the symmetric square root of its Gram,
    which ``A`` takes on instead."""
    n = Z.shape[0]
    w, V = np.linalg.eigh(Z.T @ Z / n)
    if w[0] < 1e-16:
        raise DegenerateFitError(
            f"rank collapse: smallest latent Gram eigenvalue {w[0]:.3e} below threshold"
        )
    root = np.sqrt(w)
    return Z @ ((V / root) @ V.T), A @ ((V * root) @ V.T)


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


# the warm start's subspace iteration: its columns beyond the r + 1
# eigenpairs it needs, its most steps before the full thin SVD is taken
# instead, and its stop rule's bound on every top-r Ritz residual, relative
# to the largest Ritz value
WARM_START_OVERSAMPLE = 4
WARM_START_MAX_STEPS = 60
WARM_START_RTOL = 1e-14


def _top_eigenpairs(gram: np.ndarray, r: int):
    """Ritz values (descending) and vectors of ``gram`` from block subspace
    iteration, or None when the top ``r`` have not converged in time.

    The start is a fixed-seed Gaussian test matrix: a structured one can be
    orthogonal to a top eigenvector, which the residual test cannot see.
    Each step forms ``G = gram Q``, takes the Rayleigh-Ritz pairs of
    ``Q' G``, and moves to the orthonormal basis of ``G``. When the block
    would span the whole space, ``gram``'s full eigendecomposition is
    returned instead.
    """
    k = gram.shape[0]
    b = r + 1 + WARM_START_OVERSAMPLE
    if b >= k:
        w, V = np.linalg.eigh(gram)
        return w[::-1], V[:, ::-1]
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((k, b)))
    for _ in range(WARM_START_MAX_STEPS):
        G = gram @ Q
        w, S = np.linalg.eigh(Q.T @ G)
        w, S = w[::-1], S[:, ::-1]
        V = Q @ S
        residual = np.linalg.norm(G @ S[:, :r] - V[:, :r] * w[:r], axis=0)
        if residual.max() <= WARM_START_RTOL * w[0]:
            return w, V
        Q, _ = np.linalg.qr(G)
    return None


def spectral_warm_start(data: ResponseMatrix, r: int) -> ParamPair:
    """Rank-``r`` spectral initializer on a family-specific transform.

    The transform maps each cell to a rough natural-parameter scale
    (identity for gaussian, logit of clipped values for bernoulli, log of
    clipped values for poisson). Its rank-``r`` truncated SVD comes from
    the top ``r + 1`` eigenpairs of the smaller Gram (``X'X`` or ``XX'``),
    found by block subspace iteration with a Rayleigh-Ritz step on
    ``r + 5`` columns from a fixed-seed Gaussian start, and stopped once
    every top-``r`` Ritz residual ``||gram v - w v||`` is at most
    ``1e-14`` of the largest Ritz value. A final Rayleigh-Ritz step, a
    thin SVD of ``X`` projected on the top ``r`` eigenvectors, gives the
    factors (Halko, Martinsson & Tropp 2011). The full thin SVD of ``X``
    is taken instead in two cases: when the iteration has not converged
    within ``WARM_START_MAX_STEPS`` steps, and when the ``r``-th eigengap
    is at most ``1e-6`` of the largest eigenvalue, where the subspace is
    ill-determined. The pair already satisfies both Gram constraints;
    each column pair is signed so that the largest-magnitude entry of its
    ``A`` column is positive (first index on ties).
    """
    Y = data.values
    kind = data.family.kind
    if kind == "gaussian":
        X = Y
    elif kind == "bernoulli":  # the clipped copy is transformed in place
        X = np.clip(Y, 0.1, 0.9)
        np.log(np.divide(X, 1.0 - X, out=X), out=X)
    else:
        X = np.clip(Y, 0.25, None)
        np.log(X, out=X)
    n, q = X.shape
    k = min(n, q)
    wide = q > n
    top = _top_eigenpairs(X @ X.T if wide else X.T @ X, r)
    if top is not None:
        w, V = top
    if top is None or (r < k and w[r - 1] - w[r] <= 1e-6 * w[0]):
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
) -> FitResult:
    """Fit the constrained empirical risk minimizer by the sweeps that the
    module docstring describes.

    Each sweep first tests every row of both blocks against the decrement
    bound of :class:`FitConfig` and returns once all pass, so a start that
    already passes is returned after normalization alone. Ending a sweep
    on the ``A`` step keeps every ``A`` row inside the cap at each tested
    pair. A row whose Newton point leaves the ball of radius ``M`` steps
    to the minimizer of its quadratic model on it, and the ``Z`` step
    prices the caps that bind (:class:`_CapPrice`). The objective is
    recorded at each test and never rises by more than rounding. The fit
    warns and records a status (:class:`FitTrace`) when it stalls, its
    last ``STALL_SWEEPS`` objectives all above the least one before them,
    or when ``max_iters`` sweeps end before the test passes.
    """
    config = config or FitConfig()
    Y = data.values
    n, q = Y.shape
    if not 1 <= r <= min(n, q):
        raise ValueError(f"need 1 <= r <= min(n, q); got n={n}, q={q}, r={r}")
    family = data.family

    start = spectral_warm_start(data, r)
    M = config.M
    if M is None:
        M = 2.0 * max(
            np.linalg.norm(start.Z, axis=1).max(),
            np.linalg.norm(start.A, axis=1).max(),
        )

    Z, A = _normalize(np.asarray(start.Z, dtype=float), np.asarray(start.A, dtype=float))
    Z, A = _diagonalize(Z, A)
    trace = FitTrace(cap=float(M))
    rows_A, rows_Z = np.arange(q), np.arange(n)
    nu = np.zeros(n)
    # the risk cells and both derivatives at Z A', carried from the accepted
    # trial points of each step to the next: (n, q) buffers that every
    # evaluation of all rows overwrites, the Z step's through their
    # transposes
    buffers = tuple(np.empty((n, q)) for _ in range(3))
    transposed = tuple(b.T for b in buffers)
    cells, d1, W = buffers
    _row_cells(Z, Y, family, A, rows_A, buffers)
    for sweep in range(config.max_iters + 1):
        f_A, f_Z = cells.sum(axis=0), cells.sum(axis=1)
        trace.objectives.append(float(f_A.sum()))
        # the rows' risk Hessians; at the returned pair those of A are also
        # the breads of its sandwiches
        grams_A, grams_Z = row_grams(Z, W), row_grams(A, W.T)
        _, dec_A, mu = _newton_direction(grams_A, d1.T @ Z, A, M)
        price = _CapPrice(Z, A, mu, nu)
        f_Z += price(Z, rows_Z)
        d_Z, dec_Z, nu = _newton_direction(grams_Z, d1 @ A + price.grad(Z), Z, M, price.K)
        rel_A, rel_Z = dec_A / (1.0 + np.abs(f_A)), dec_Z / (1.0 + np.abs(f_Z))
        trace.stationarity = float(max(rel_A.max(), rel_Z.max()))
        if trace.stationarity <= config.tol:
            break
        f_all = trace.objectives
        stalled = min(f_all[-STALL_SWEEPS:]) > min(f_all[:-STALL_SWEEPS], default=math.inf)
        if stalled or sweep == config.max_iters:
            trace.status = "stalled" if stalled else "max_iters"
            reason = "stalled" if stalled else f"reached max_iters={config.max_iters}"
            warnings.warn(
                f"erm_fit {reason} with relative Newton decrement "
                f"{trace.stationarity:.3e} above tol={config.tol}; returning last iterate",
                RuntimeWarning,
            )
            break
        pure_Z = _full_step(rel_Z, Z, M)
        Z_new, _ = _newton_update(
            A, Y.T, family, Z, f_Z, rows_Z, d_Z, dec_Z, pure_Z, price, transposed
        )
        # the priced Z step lowers the Lagrangian, not always the risk once
        # caps bind; a sweep that would raise the risk is retaken with the
        # Z step halved, down to the plain A step, which cannot raise it
        for retake in range(30):
            # the normalization keeps Z A', so the cells at Z_new serve the A step
            Z_s, A_s = _normalize(Z_new, A)
            f_A = cells.sum(axis=0)
            d_A, dec_A, _ = _newton_direction(row_grams(Z_s, W), d1.T @ Z_s, A_s, M)
            pure_A = _full_step(dec_A / (1.0 + np.abs(f_A)), A_s, M)
            A_s, _ = _newton_update(
                Z_s, Y, family, A_s, f_A, rows_A, d_A, dec_A, pure_A, out=buffers
            )
            f = trace.objectives[-1]
            if f_A.sum() <= f + 1e-12 * (1.0 + abs(f)) or retake == 29:
                break
            Z_new = 0.5 * (Z + Z_new)
            _row_cells(A, Y.T, family, Z_new, rows_Z, transposed)
        # an orthogonal co-rotation: Z A' and the cells stay
        Z, A = _diagonalize(Z_s, A_s)
    trace.n_iters = sweep

    if np.linalg.svd(A, compute_uv=False)[-1] < 1e-10 * math.sqrt(q):
        raise DegenerateFitError("fitted representation matrix is rank deficient")

    trace.max_row_norm = float(
        max(np.linalg.norm(Z, axis=1).max(), np.linalg.norm(A, axis=1).max())
    )
    meats = row_grams(Z, np.square(d1, out=d1)) / n
    # freed before the stack is formed: paired 500 x 500 gaussian
    # replications peaked 1-2 MB lower in resident memory this way
    del buffers, transposed, cells, d1, W
    return FitResult(ParamPair(Z, A), trace, _sandwich(grams_A / n, meats))


def _sandwich(breads: np.ndarray, meats: np.ndarray) -> np.ndarray:
    """Symmetrized sandwiches ``B^{-1} M B^{-1}`` of (k, r, r) stacks of
    breads and meats; if any bread is ill-conditioned, the error names the
    row whose bread has the largest condition number."""
    conds = np.linalg.cond(breads)
    if np.any(conds > 1e10):
        k = int(np.argmax(conds))
        raise IllConditionedCovarianceError(
            f"bread matrix for row {k} of A has condition number "
            f"{conds[k]:.3e} > 1e10"
        )
    inv = np.linalg.inv(breads)
    sands = inv @ meats @ inv
    return (sands + np.swapaxes(sands, 1, 2)) / 2.0


def _full_step(rel: np.ndarray, B: np.ndarray, M: float) -> np.ndarray:
    """Rows of an ERM block that take the full Newton step: those whose
    relative decrement is below ``1e-8``, where the value-based Armijo
    test stalls once the decrease it asks for falls below the float
    resolution of the row risk, and those the normalization left outside
    the ball, which the full step puts back on it."""
    return (rel <= 1e-8) | (np.linalg.norm(B, axis=1) > M)


def row_grams(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted Grams ``X' diag(w[:, k]) X`` for every column ``k`` of ``w``.

    ``X`` is (m, r) and ``w`` is (m, k); the (k, r, r) stack comes from
    one matrix product of ``w'`` with the row-wise outer products of ``X``.
    """
    m, r = X.shape
    outer = (X[:, :, None] * X[:, None, :]).reshape(m, r * r)
    return (w.T @ outer).reshape(w.shape[1], r, r)


def _newton_direction(grams, grad, B=None, M=None, K=None):
    """Newton directions ``d_k = -H_k^{-1} g_k``, decrements ``-g_k' d_k``
    and cap multipliers for the row problems with risk Hessians
    ``grams[k]`` (:func:`row_grams` of the design and the cell
    curvatures) and gradients ``grad[k]``.

    ``K`` is added to every row's Hessian. With a cap ``M``, a row
    ``B[k]`` whose Newton point leaves the ball moves instead to the
    minimizer of its quadratic model on the ball, so that its decrement
    also vanishes when the cap holds it on the sphere; its multiplier is
    that minimizer's ``mu`` (zero for every other row).
    """
    H = grams + 1e-12 * np.eye(grams.shape[1])
    if K is not None:
        H += K
    d = -np.linalg.solve(H, grad[:, :, None])[:, :, 0]
    mu = np.zeros(len(d))
    if M is not None:
        over = np.flatnonzero(np.linalg.norm(B + d, axis=1) > M)
        if over.size:
            x, mu[over] = _model_minimizer_on_ball(H[over], B[over] + d[over], M)
            d[over] = x - B[over]
    return d, -(grad * d).sum(axis=1), mu


class _CapPrice:
    """Terms added to the ``Z`` rows' risks so that the ``Z`` step sees
    the caps, which bind on the normalized pair: there ``a_j`` has squared
    norm ``a_j' S a_j`` and ``z_i`` has ``z_i' S^{-1} z_i``, ``S = Z'Z/n``.
    With cap multipliers ``mu`` (``A`` rows) and ``nu`` (``Z`` rows, from
    the previous sweep) the Lagrangian adds ``z' K z / 2``,
    ``K = A' diag(mu) A / n``, to every ``Z`` row and, to first order,
    ``-z' N z_i / n``, ``N = Z' diag(nu) Z``, to row ``i``. Without them
    the blocks pull against each other through the normalization.
    """

    def __init__(self, Z, A, mu, nu):
        n = Z.shape[0]
        self.K = (A.T * mu) @ A / n
        self.lin = Z @ ((Z.T * nu) @ Z) / n

    def grad(self, Z):
        return Z @ self.K - self.lin

    def __call__(self, cand, rows):
        return ((0.5 * cand @ self.K - self.lin[rows]) * cand).sum(axis=1)


def _model_minimizer_on_ball(H: np.ndarray, x0: np.ndarray, M: float):
    """Minimizers on ``||x|| <= M`` of the quadratics ``(x - x0)' H (x - x0)``
    whose unconstrained minimizers ``x0`` lie outside the ball, with their
    multipliers ``mu``.

    The minimizer is ``x(mu) = (H + mu I)^{-1} H x0`` with ``||x(mu)|| = M``;
    ``mu`` solves ``1/||x(mu)|| = 1/M`` by Newton's method from ``mu = 0``,
    which increases monotonically to the root because the left side is
    concave in ``mu`` (More & Sorensen 1983).
    """
    h, V = np.linalg.eigh(H)
    c = h * np.einsum("kji,kj->ki", V, x0)  # V' H x0
    mu = np.zeros(len(h))
    s = c / h
    norm = np.linalg.norm(s, axis=1)
    for _ in range(50):
        phi = 1.0 / norm - 1.0 / M
        if np.all(phi * M >= -1e-15):
            break
        mu -= phi * norm**3 / (s**2 / (h + mu[:, None])).sum(axis=1)
        s = c / (h + mu[:, None])
        norm = np.linalg.norm(s, axis=1)
    # from the left ||x(mu)|| >= M, so the rescaling only trims rounding
    return np.einsum("kij,kj->ki", V, s * (M / norm)[:, None]), mu


def _newton_update(X, targets, family, B, f, idx, d, dec, pure, price=None, out=None):
    """One damped Newton step for rows ``idx`` (increasing) of ``B``.

    Row ``idx[i]`` moves along ``d[i]``, whose decrement is ``dec[i]``.
    Rows flagged ``pure`` take the full step; the others halve it until
    the Armijo condition on their own risk (plus ``price(b, row)`` when
    it is given) holds, and stay put if it never does. Each trial point
    is evaluated once, and the full steps of all rows share one kernel
    call. Writes the accepted rows' values into ``f`` and returns the
    new ``B`` with the risk cells and both derivatives at its rows
    ``idx`` (each ``(m, idx.size)``, column ``i`` for row ``idx[i]``); a
    row that stays put is evaluated again where it is.
    ``out``, for a step on every row, takes the first evaluation as
    :func:`_row_cells` describes; the others are written into fresh arrays.
    """
    B_new = B.copy()
    t = np.ones(idx.size)
    todo = np.arange(idx.size)
    cells = None
    for _ in range(50):
        cand = B[idx[todo]] + t[todo, None] * d[todo]
        trial = _row_cells(X, targets, family, cand, idx[todo], out if cells is None else None)
        f_c = trial[0].sum(axis=0)
        if price is not None:
            f_c += price(cand, idx[todo])
        ok = f_c <= f[idx[todo]] - 1e-4 * t[todo] * dec[todo]
        if cells is None:
            ok |= pure
            cells = trial
        else:
            for c, c_trial in zip(cells, trial):
                c[:, todo[ok]] = c_trial[:, ok]
        B_new[idx[todo[ok]]] = cand[ok]
        f[idx[todo[ok]]] = f_c[ok]
        todo = todo[~ok]
        if not todo.size:
            return B_new, cells
        t[todo] *= 0.5
    for c, c_stay in zip(cells, _row_cells(X, targets, family, B[idx[todo]], idx[todo])):
        c[:, todo] = c_stay
    return B_new, cells


# the most cells of one row block of a risk-kernel evaluation: its scratch
# copy of X rows', its three outputs and its targets, 256 KiB each, stay
# within a 2 MiB L2 cache
ROW_BLOCK_CELLS = 2**15


def _row_cells(X, targets, family, rows, cols, out=None):
    """Risk cells and both derivatives of the row problems ``cols``
    (increasing) at the points ``rows``, against the targets' columns
    ``cols``: three ``(m, k)`` arrays, written into ``out`` when it holds
    them (C-ordered, or transposes of C-ordered ``(k, m)`` arrays) and
    fresh C-ordered ones otherwise.

    ``X rows'`` comes from one matrix product in the outputs' memory order,
    written into the first output. The kernel then runs over blocks of
    whole rows of the outputs' C-ordered views (``(m, k)``, or ``(k, m)``
    under transposed outputs), at most ``ROW_BLOCK_CELLS`` cells or one
    row each; each block of ``X rows'`` is copied into one block-sized
    scratch array before the kernel overwrites it. A product per block
    would change ``X rows'`` in the last bit, since the BLAS takes other
    kernels at the edges of smaller blocks.
    """
    if out is None:
        out = tuple(np.empty((X.shape[0], cols.size)) for _ in range(3))
    # the blocks are runs of rows of the C-ordered views of the outputs,
    # and t the targets with the same rows
    c_order = out[0].flags.c_contiguous
    if c_order:
        np.matmul(X, rows.T, out=out[0])
        views, t = out, targets
    else:
        np.matmul(rows, X.T, out=out[0].T)
        views, t = tuple(o.T for o in out), targets.T
    full = cols.size == targets.shape[1]
    theta = views[0]
    m, k = theta.shape
    step = max(1, ROW_BLOCK_CELLS // k)
    scratch = np.empty((min(step, m), k))
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        if full:
            y = t[lo:hi]
        elif c_order:
            y = t[lo:hi, cols]
        else:
            y = t[cols[lo:hi]]
        block = scratch[: hi - lo]
        np.copyto(block, theta[lo:hi])
        _risk_cells(family, block, y, tuple(v[lo:hi] for v in views))
    return out


ORACLE_TOL, ORACLE_MAX_ITER = 1e-10, 100


def _separable_fit(
    X: np.ndarray, targets: np.ndarray, family: ResponseFamily, name: str = "B"
) -> tuple[np.ndarray, int]:
    """Solve ``min_b sum_m l(x_m' b; y_mk)`` for every target column ``k``.

    Damped Newton vectorized across columns; returns the per-column
    solutions as the rows of ``B`` (named ``name`` in errors) and the
    number of passes that took a step. A column is active while its gradient
    norm exceeds ``ORACLE_TOL``, for at most ``ORACLE_MAX_ITER`` passes.
    Every column is evaluated at the start; after that, each pass's step
    evaluates only the active columns' trial points, whose risk, gradient
    and curvature feed the next pass, and a settled column keeps its last
    risk and gradient norm, since it does not move again. Columns
    whose problem has no finite minimizer (separable binary data) are
    detected by a gradient that will not vanish and raise
    :class:`OracleFitError`, which names ``name``.
    """
    X = np.asarray(X, dtype=float)
    m, r = X.shape
    k = targets.shape[1]
    if np.linalg.matrix_rank(X) < r:
        raise DegenerateFitError("design matrix is rank deficient")

    B = np.zeros((k, r))
    idx = np.arange(k)  # the active columns: all, then those not yet settled
    cells, d1, w = _row_cells(X, targets, family, B, idx)
    f = cells.sum(axis=0)  # each column's last risk, the line search's reference
    grad = d1.T @ X
    gnorm = np.empty(k)
    for it in range(ORACLE_MAX_ITER + 1):
        # the curvatures stay referenced until the next step replaces them,
        # while the other outputs are freed now: glibc then reuses the freed
        # memory below them instead of returning the heap top to the system
        # and faulting fresh pages in on every pass (under 3k instead of
        # 19-23k minor faults per 500 x 500 bernoulli fit)
        del cells, d1
        gnorm[idx] = np.linalg.norm(grad, axis=1)
        active = gnorm[idx] > ORACLE_TOL
        idx = idx[active]
        if not idx.size or it == ORACLE_MAX_ITER:
            break
        d, dec, _ = _newton_direction(row_grams(X, w[:, active]), grad[active])
        # inside the quadratic basin the objective decrease falls below
        # float resolution; take pure Newton steps there instead of
        # stalling on the value-based line search
        B, (cells, d1, w) = _newton_update(
            X, targets, family, B, f, idx, d, dec, gnorm[idx] < 1e-4
        )
        grad = d1.T @ X

    bad = np.union1d(idx, np.flatnonzero(np.linalg.norm(B, axis=1) > 1e6))
    if bad.size:
        raise OracleFitError(
            f"oracle fit of {name}: rows {bad.tolist()[:5]} did not reach gradient tolerance"
        )
    if family.kind == "bernoulli":
        # the binary risk is nonnegative with zero attainable only in the
        # limit of a perfect fit, so a vanishing row risk means separation
        # and the minimizer sits at infinity
        separated = np.flatnonzero(f < 1e-8)
        if separated.size:
            raise OracleFitError(
                f"oracle fit of {name}: rows {separated.tolist()[:5]} have no finite "
                "minimizer (separable data)"
            )
    return B, it


def oracle_fit_A(data: ResponseMatrix, Z_star: np.ndarray) -> FitResult:
    """Fit every row of ``A`` with the latent scores held fixed at ``Z_star``,
    to a gradient norm of ``ORACLE_TOL`` per row.

    The result pairs ``Z_star`` with the fitted ``A``. One kernel pass at
    that pair, after the solver's arrays are freed, gives its sandwich
    stack and its trace: the total risk, and the largest relative row
    decrement ``g'H^{-1}g / (1 + |f|)`` as ``stationarity``. A fit that
    does not converge raises :class:`OracleFitError` instead of returning.
    """
    Z = np.asarray(Z_star, dtype=float)
    A, passes = _separable_fit(Z, data.values, data.family, "A")
    n = Z.shape[0]
    cells, d1, d2 = _row_cells(Z, data.values, data.family, A, np.arange(A.shape[0]))
    f = cells.sum(axis=0)
    del cells
    breads = row_grams(Z, d2)
    _, dec, _ = _newton_direction(breads, d1.T @ Z)
    trace = FitTrace(
        objectives=[float(f.sum())],
        n_iters=passes,
        stationarity=float((dec / (1.0 + np.abs(f))).max()),
        max_row_norm=float(np.linalg.norm(A, axis=1).max()),
    )
    meats = row_grams(Z, np.square(d1, out=d1)) / n
    return FitResult(ParamPair(Z, A), trace, _sandwich(breads / n, meats))
