"""Reference computations the benchmark compares folomin's outputs with.

Everything here is coded from the model's definitions with numpy alone,
so a check fails when the program drifts, not when it merely changes
how it computes the same thing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Report:
    """Outcome of each correctness check, with the measured value."""

    lines: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def true(self, label: str, ok) -> bool:
        ok = bool(ok)
        self.lines.append(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            self.failures.append(label)
        return ok

    def below(self, label: str, value: float, limit: float) -> bool:
        return self.true(f"{label}: {value:.3g} < {limit:g}", value < limit)


def sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def cell_risk(kind: str, theta, y):
    """Per-cell risk of the gaussian and bernoulli families."""
    if kind == "gaussian":
        return (theta - y) ** 2
    return -y * theta + np.log1p(np.exp(-np.abs(theta))) + np.maximum(theta, 0.0)


def cell_score(kind: str, theta, y):
    """Derivative of :func:`cell_risk` in the natural parameter."""
    if kind == "gaussian":
        return 2.0 * (theta - y)
    return sigmoid(theta) - y


def stationarity(kind: str, Y, Z, A):
    """Largest per-row gradient norm of the summed risk at ``(Z, A)``.

    The ``Z`` gradient is projected onto the tangent space of
    ``{Z : Z'Z = n I}``; ``A`` is unconstrained up to the rotation gauge.
    Returns ``(max_row_A, max_row_Z)``. For bernoulli, row ``j`` of the
    ``A`` gradient is the logistic score ``sum_i (sigmoid(z_i'a_j) - y_ij) z_i``.
    """
    n = Z.shape[0]
    D = cell_score(kind, Z @ A.T, Y)
    grad_A = D.T @ Z
    grad_Z = D @ A
    S = Z.T @ grad_Z
    grad_Z = grad_Z - Z @ ((S + S.T) / (2.0 * n))
    return (
        float(np.linalg.norm(grad_A, axis=1).max()),
        float(np.linalg.norm(grad_Z, axis=1).max()),
    )


def align_to(E, T):
    """``E``'s columns under the signed permutation closest to ``T``.

    Exhaustive over permutations; each matched column takes its better
    sign. Fine for the latent dimensions used here (at most 5! cases).
    """
    r = E.shape[1]
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(r)):
        P = E[:, perm]
        plus = ((P - T) ** 2).sum(axis=0)
        minus = ((P + T) ** 2).sum(axis=0)
        cost = np.minimum(plus, minus).sum()
        if cost < best_cost:
            best_cost = cost
            best = P * np.where(plus <= minus, 1.0, -1.0)
    return best


def hc0_std_errors(Z, A, Y):
    """Heteroskedasticity-consistent (HC0) standard errors of each row of
    ``A`` in the least-squares regression of ``Y``'s columns on ``Z``."""
    E = Y - Z @ A.T
    bread = np.linalg.inv(Z.T @ Z)
    n, r = Z.shape
    outer = (Z[:, :, None] * Z[:, None, :]).reshape(n, r * r)
    meat = ((E**2).T @ outer).reshape(-1, r, r)
    cov = bread @ meat @ bread
    return np.sqrt(np.diagonal(cov, axis1=1, axis2=2))


def truncated_svd(Y, r):
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    return (U[:, :r] * s[:r]) @ Vt[:r]


def relative_gap(X, ref):
    return float(np.linalg.norm(X - ref) / np.linalg.norm(ref))
