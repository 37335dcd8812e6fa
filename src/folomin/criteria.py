"""Rotation criteria and the feasible rotation sets.

Folded losses are even functions with a non-smooth peak at zero,
increasing and concave on the positive axis, and exactly flat beyond a
kind-specific multiple of ``gamma``. Summing one over all entries of a
representation matrix gives the folded rotation criterion; the classical
variance-of-squared-loadings criterion is included for the baseline
comparisons. Feasible rotation sets couple an operator-norm ball around
the identity with the unit-diagonal constraint on the rotated latent
Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateRotationError

__all__ = [
    "FoldedLoss",
    "FeasibleSet",
    "folded_criterion",
    "varimax_criterion",
    "sample_feasible",
    "polar",
]


@dataclass(frozen=True)
class FoldedLoss:
    """A folded concave loss ``rho_gamma`` (scad, mcp, or truncated l1).

    Parameterized so that the one-sided slope at zero is exactly
    ``gamma`` for every kind, and the loss is constant beyond
    ``plateau = a3 * gamma`` where ``a3`` is ``a`` for scad/mcp and 1
    for truncated l1.
    """

    kind: str
    gamma: float
    a: float = float("nan")

    def __post_init__(self):
        if self.kind not in ("scad", "mcp", "tl1"):
            raise ValueError(f"unknown folded loss kind {self.kind!r}")
        if not self.gamma > 0:
            raise ValueError("gamma must be strictly positive")
        if self.kind == "scad" and not self.a > 2:
            raise ValueError("scad requires a > 2")
        if self.kind == "mcp" and not self.a > 1:
            raise ValueError("mcp requires a > 1")

    @classmethod
    def scad(cls, gamma: float, a: float = 3.7) -> "FoldedLoss":
        return cls("scad", gamma, a)

    @classmethod
    def mcp(cls, gamma: float, a: float = 3.0) -> "FoldedLoss":
        return cls("mcp", gamma, a)

    @classmethod
    def truncated_l1(cls, gamma: float) -> "FoldedLoss":
        return cls("tl1", gamma, 1.0)

    @property
    def a3(self) -> float:
        """Multiple of gamma beyond which the loss is constant."""
        return 1.0 if self.kind == "tl1" else self.a

    @property
    def plateau(self) -> float:
        return self.a3 * self.gamma

    @property
    def plateau_value(self) -> float:
        g, a = self.gamma, self.a
        if self.kind == "mcp":
            return a * g * g / 2.0
        if self.kind == "scad":
            return (a + 1.0) * g * g / 2.0
        return g * g

    def deriv_zero_plus(self) -> float:
        """One-sided derivative at 0+; equals gamma for all three kinds."""
        return self.gamma

    def value(self, t):
        """Evaluate the loss elementwise."""
        t = np.abs(np.asarray(t, dtype=float))
        g, a = self.gamma, self.a
        if self.kind == "mcp":
            return np.where(t <= a * g, g * t - t * t / (2.0 * a), a * g * g / 2.0)
        if self.kind == "scad":
            mid = (2.0 * a * g * t - t * t - g * g) / (2.0 * (a - 1.0))
            out = np.where(t <= g, g * t, mid)
            return np.where(t > a * g, (a + 1.0) * g * g / 2.0, out)
        return g * np.minimum(t, g)

    def deriv(self, t):
        """Derivative on (0, inf), elementwise for ``t > 0``.

        At points where the loss is not differentiable (truncated l1 at
        ``t == gamma``) the value 0 is returned; the one-sided slope at
        zero is available via :meth:`deriv_zero_plus`.
        """
        if np.any(np.asarray(t, dtype=float) <= 0):
            raise ValueError("deriv is defined for t > 0; use deriv_zero_plus at zero")
        return self.weight_deriv(t)

    def weight_deriv(self, t):
        """Derivative with the re-weighting conventions applied.

        Exact zeros get the one-sided slope ``gamma``; non-differentiable
        points get 0; elsewhere this matches :meth:`deriv`.
        """
        t = np.abs(np.asarray(t, dtype=float))
        g, a = self.gamma, self.a
        if self.kind == "mcp":
            return np.maximum(g - t / a, 0.0) * (t <= a * g)
        if self.kind == "scad":
            tail = np.maximum(a * g - t, 0.0) / (a - 1.0)
            return np.where(t <= g, g, tail)
        return np.where(t < g, g, 0.0)


def folded_criterion(A: np.ndarray, loss: FoldedLoss) -> float:
    """Sum of the folded loss over all entries of ``A``."""
    return float(loss.value(np.asarray(A, dtype=float)).sum())


def _varimax_value_grad(Lt: np.ndarray):
    """Varimax criterion (Kaiser 1958) and its gradient in the rotated
    loadings, both transposed: ``Lt`` is ``L'``, ``(r, q)`` or a stack
    ``(k, r, q)`` giving ``k`` values, and so is the gradient. Fourth
    powers are ``sq * sq``, since numpy's ``L**4`` calls ``pow`` per cell."""
    q = Lt.shape[-1]
    sq = Lt * Lt
    col_means = sq.mean(axis=-1, keepdims=True)
    value = ((sq * sq).sum(axis=-1) - q * col_means[..., 0] ** 2).sum(axis=-1) / q
    grad = 4.0 / q * Lt * (sq - col_means)
    return value, grad


def varimax_criterion(A: np.ndarray) -> float:
    """Mean variance of squared loadings per column (the classical
    orthogonal-rotation criterion, conventionally maximized)."""
    return float(_varimax_value_grad(np.asarray(A, dtype=float).T)[0])


@dataclass(frozen=True)
class FeasibleSet:
    """Rotations near the identity keeping unit-variance latent columns.

    ``gram`` is the empirical latent Gram ``Z'Z/n``; it must be symmetric
    positive definite with unit diagonal so the identity itself is
    feasible.
    """

    radius: float
    gram: np.ndarray

    def __post_init__(self):
        if not self.radius >= 0:
            raise ValueError("radius must be nonnegative")
        gram = np.asarray(self.gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("gram must be square")
        if not np.allclose(gram, gram.T, atol=1e-10):
            raise ValueError("gram must be symmetric")
        if np.linalg.eigvalsh(gram)[0] <= 0:
            raise ValueError("gram must be positive definite")
        if not np.allclose(np.diag(gram), 1.0, atol=1e-8):
            raise ValueError("gram must have unit diagonal (unit-variance latent columns)")
        object.__setattr__(self, "gram", gram)

    @property
    def r(self) -> int:
        return self.gram.shape[0]


def polar(X: np.ndarray) -> np.ndarray:
    """Polar factor ``U V'`` of ``X``: the nearest matrix with orthonormal
    columns (thin SVD, so ``X`` may be tall)."""
    U, _, Vt = np.linalg.svd(X, full_matrices=False)
    return U @ Vt


def _feasible_project(G: np.ndarray, gram: np.ndarray, mode: str) -> np.ndarray:
    """Map a float ``G`` onto the constraint surface of ``gram`` in ``mode``.

    Oblique mode rescales the rows of ``G`` so that
    ``diag(G gram G') = I``; orthogonal mode returns the nearest
    orthogonal matrix (polar factor).
    """
    if mode == "orthogonal":
        return polar(G)
    d = np.einsum("ij,jk,ik->i", G, gram, G)
    if np.any(d <= 1e-300):
        bad = int(np.argmin(d))
        raise DegenerateRotationError(f"row {bad} of the rotation is numerically zero")
    return G / np.sqrt(d)[:, None]


def sample_feasible(fset: FeasibleSet, rng: np.random.Generator) -> np.ndarray:
    """Draw a feasible rotation within operator-norm ``2 * radius`` of the
    identity.

    A random perturbation of operator norm at most ``radius`` is added to
    the identity and projected onto the constraint surface; the
    perturbation is shrunk geometrically in the rare case the projection
    overshoots the ball.
    """
    c = fset.radius
    eye = np.eye(fset.r)
    if c == 0:
        return eye
    E = rng.standard_normal(eye.shape)
    E *= (c * rng.random()) / max(np.linalg.norm(E, 2), 1e-300)
    for _ in range(200):
        G = _feasible_project(eye + E, fset.gram, "oblique")
        if np.linalg.norm(G - eye, 2) <= 2 * c:
            return G
        E *= 0.5
    return eye
