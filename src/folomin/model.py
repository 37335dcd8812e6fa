"""Response families and their risk functions.

Each family pairs a sampling distribution indexed by a scalar natural
parameter ``theta`` with a convex per-cell risk ``l(theta; y)`` and its
first three derivatives in ``theta``:

* gaussian:  ``(theta - y)**2``  (squared risk; ``variance`` controls
  sampling noise only, not the risk),
* bernoulli: ``-y*theta + log(1 + exp(theta))`` (negative log-likelihood
  under a logit link),
* poisson:   ``-y*theta + exp(theta)`` (negative log-likelihood under a
  log link).

All functions are pure and broadcast over numpy arrays; random draws
take an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .exceptions import DataError, DomainError

__all__ = [
    "ResponseFamily",
    "ResponseMatrix",
    "risk",
    "risk_d1",
    "risk_d2",
    "risk_d3",
    "sample_response",
]

_KINDS = ("gaussian", "bernoulli", "poisson")


@dataclass(frozen=True)
class ResponseFamily:
    """A response distribution family with its risk function.

    ``variance`` is only meaningful for the gaussian family and must be
    strictly positive there.
    """

    kind: str
    variance: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "gaussian" and not self.variance > 0:
            raise ValueError("gaussian variance must be strictly positive")

    @classmethod
    def gaussian(cls, variance: float = 1.0) -> "ResponseFamily":
        return cls("gaussian", variance)

    @classmethod
    def bernoulli(cls) -> "ResponseFamily":
        return cls("bernoulli")

    @classmethod
    def poisson(cls) -> "ResponseFamily":
        return cls("poisson")

    def validate_responses(self, y: np.ndarray) -> None:
        """Raise :class:`DomainError` if any entry is outside the support."""
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            bad = np.argwhere(~np.isfinite(y))[0]
            raise DomainError(f"non-finite response at index {tuple(bad)}")
        if self.kind == "bernoulli":
            if not np.all((y == 0) | (y == 1)):
                bad = np.argwhere((y != 0) & (y != 1))[0]
                raise DomainError(f"bernoulli responses must be 0/1; offending index {tuple(bad)}")
        elif self.kind == "poisson":
            if not np.all((y >= 0) & (y == np.floor(y))):
                bad = np.argwhere((y < 0) | (y != np.floor(y)))[0]
                raise DomainError(
                    f"poisson responses must be nonnegative integers; offending index {tuple(bad)}"
                )


def _output(theta, y, out):
    return np.empty(np.broadcast_shapes(theta.shape, y.shape)) if out is None else out


def risk(family: ResponseFamily, theta, y, out=None):
    """Per-cell risk ``l(theta; y)``; convex in ``theta`` for every family.

    The result is written into ``out`` when it is given, so that a caller
    evaluating many risks of one shape can reuse a single buffer.
    """
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    family.validate_responses(y)
    out = _output(theta, y, out)
    if family.kind == "gaussian":
        np.subtract(theta, y, out=out)
        np.square(out, out=out)
        return out[()]
    if family.kind == "bernoulli":
        # softplus, max(theta, 0) + log1p(exp(-|theta|)), by logaddexp for stability
        np.logaddexp(0.0, theta, out=out)
    else:
        np.exp(theta, out=out)
    out -= y * theta
    return out[()]


def risk_d1(family: ResponseFamily, theta, y, out=None):
    """First derivative of the risk in ``theta``, written into ``out`` when given."""
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    family.validate_responses(y)
    out = _output(theta, y, out)
    if family.kind == "gaussian":
        np.subtract(theta, y, out=out)
        out *= 2.0
        return out[()]
    if family.kind == "bernoulli":
        expit(theta, out=out)
    else:
        np.exp(theta, out=out)
    out -= y
    return out[()]


def risk_d2(family: ResponseFamily, theta, y=None):
    """Second derivative; nonnegative everywhere, and strictly positive on
    any bounded interval for the bernoulli and poisson families."""
    theta = np.asarray(theta, dtype=float)
    if family.kind == "gaussian":
        return np.full_like(theta, 2.0)
    if family.kind == "bernoulli":
        p = expit(theta)
        return p * (1.0 - p)
    return np.exp(theta)


def risk_d3(family: ResponseFamily, theta, y=None):
    """Third derivative."""
    theta = np.asarray(theta, dtype=float)
    if family.kind == "gaussian":
        return np.zeros_like(theta)
    if family.kind == "bernoulli":
        p = expit(theta)
        return p * (1.0 - p) * (1.0 - 2.0 * p)
    return np.exp(theta)


def sample_response(family: ResponseFamily, theta, rng: np.random.Generator):
    """Draw responses with natural parameter ``theta``.

    bernoulli success probability is ``expit(theta)``, gaussian mean is
    ``theta`` with the family's variance, poisson mean is ``exp(theta)``.
    """
    theta = np.asarray(theta, dtype=float)
    if family.kind == "gaussian":
        return theta + np.sqrt(family.variance) * rng.standard_normal(theta.shape)
    if family.kind == "bernoulli":
        return (rng.random(theta.shape) < expit(theta)).astype(float)
    return rng.poisson(np.exp(theta)).astype(float)


@dataclass(frozen=True)
class ResponseMatrix:
    """An ``n x q`` observed response matrix tagged with its family.

    Entry domains are checked on construction.
    """

    values: np.ndarray
    family: ResponseFamily

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or min(values.shape) < 1:
            raise DataError(
                f"response matrix must be 2-dimensional and nonempty, got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)
        self.family.validate_responses(values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]
