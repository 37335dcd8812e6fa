"""Response families and their risk functions.

Each family pairs a sampling distribution indexed by a scalar natural
parameter ``theta`` with a convex per-cell risk ``l(theta; y)`` and its
first two derivatives in ``theta``:

* gaussian:  ``(theta - y)**2``  (squared risk; ``variance`` controls
  sampling noise only, not the risk),
* bernoulli: ``-y*theta + log(1 + exp(theta))`` (negative log-likelihood
  under a logit link), evaluated as the softplus
  ``max(theta, 0) + log1p(exp(-|theta|))``,
* poisson:   ``-y*theta + exp(theta)`` (negative log-likelihood under a
  log link).

All functions are pure and broadcast over numpy arrays; random draws
take an explicit ``numpy.random.Generator``. Each family's risk and its
first two derivatives are written once, in the private kernel
``_cells``, which computes them together from one transcendental per
cell and checks nothing; the fitting and inference code reads the
second derivative from it. Responses are validated where they enter:
:class:`ResponseMatrix` on construction, and the public :func:`risk` /
:func:`risk_d1` on every call, since they take raw arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, DomainError

__all__ = [
    "ResponseFamily",
    "ResponseMatrix",
    "risk",
    "risk_d1",
    "sample_response",
]

_KINDS = ("gaussian", "bernoulli", "poisson")
_SUPPORT = {
    "gaussian": "a finite number",
    "bernoulli": "0 or 1",
    "poisson": "a nonnegative integer",
}


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
        """Raise :class:`DomainError` if any entry is outside the support,
        naming the first such entry in C order."""
        y = np.asarray(y, dtype=float)
        if self.kind == "bernoulli":
            ok = (y == 0) | (y == 1)
        else:
            ok = np.isfinite(y)
            if self.kind == "poisson":
                ok &= (y >= 0) & (y == np.floor(y))
        if not ok.all():
            index = tuple(np.argwhere(~ok)[0])
            raise DomainError(self.kind, index, y[index], _SUPPORT[self.kind])


def _cells(
    family: ResponseFamily, theta: np.ndarray, y: np.ndarray, order: int, out=None
) -> tuple:
    """Per-cell risk at ``theta`` and, for ``order`` 1 or 2, its first and
    second derivatives: a tuple of ``order + 1`` arrays of the broadcast
    shape of ``theta`` and ``y``, fresh unless ``out`` gives the three
    arrays to write them into (order 2 only).

    Unchecked: ``theta`` and ``y`` must be float arrays, with ``y`` in the
    family's support. :class:`ResponseMatrix` validates its values once,
    on construction, so the fitting and inference code calls this kernel
    on ``ResponseMatrix.values`` directly; the public :func:`risk` and
    :func:`risk_d1` validate raw arrays first.

    One exponential per cell serves every order. bernoulli takes
    ``e = exp(-|theta|)``: the risk is the softplus
    ``max(theta, 0) + log1p(e) - y theta``, which never overflows and is
    about 2.5x cheaper than ``logaddexp(0, theta)``. With
    ``s = e / (1 + e)``, the mean is ``s`` for ``theta < 0`` and
    ``1 - s = 1 / (1 + e)`` otherwise, and the curvature is
    ``s / (1 + e)``, positive wherever ``e`` does not underflow
    (``|theta| < 745``). poisson takes ``exp(theta)``. At order 2 every
    array the kernel allocates is one of its outputs, apart from
    bernoulli's boolean sign mask of ``theta``; with ``out`` given it
    allocates only that mask. The fits call it with ``out`` on row blocks
    of about 2^15 cells (``erm._row_cells``), so the mask and every array
    a call touches stay block-sized.
    """
    shape = np.broadcast_shapes(theta.shape, y.shape)

    def empty(k):
        """The array that becomes output ``k``."""
        return np.empty(shape) if out is None else out[k]

    if family.kind == "gaussian":
        diff = np.subtract(theta, y, out=empty(1))
        cells = [np.square(diff, out=empty(0))]
        if order >= 1:
            diff *= 2.0
            cells.append(diff)
        if order == 2:
            d2 = empty(2)
            d2.fill(2.0)
            cells.append(d2)
        return tuple(cells)
    if family.kind == "poisson":
        e = np.exp(theta, out=empty(2))
        f = np.multiply(y, theta, out=empty(0))
        cells = [np.subtract(e, f, out=f)]
        if order >= 1:
            cells.append(np.subtract(e, y, out=empty(1)))
        if order == 2:
            cells.append(e)
        return tuple(cells)
    e = np.abs(theta, out=empty(1))
    np.negative(e, out=e)
    np.exp(e, out=e)
    f = np.maximum(theta, 0.0, out=empty(0))
    # at order 0, e is not needed again and holds the scratch terms
    scratch = np.log1p(e, out=e if order == 0 else empty(2))
    f += scratch
    np.multiply(y, theta, out=scratch)
    f -= scratch
    if order == 0:
        return (f,)
    den = np.add(e, 1.0, out=scratch)
    s = np.divide(e, den, out=e)  # the mean e / (1 + e) where theta < 0
    d2 = np.divide(s, den, out=den) if order == 2 else None
    # the mean is s where theta < 0 and 1 / (1 + e) = 1 - s elsewhere
    d1 = np.subtract(theta >= 0.0, s, out=s)
    np.abs(d1, out=d1)
    d1 -= y
    return (f, d1) if order == 1 else (f, d1, d2)


def _checked(family: ResponseFamily, theta, y, order: int):
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    family.validate_responses(y)
    return _cells(family, theta, y, order)[order][()]


def risk(family: ResponseFamily, theta, y):
    """Per-cell risk ``l(theta; y)``; convex in ``theta`` for every family.

    The responses are validated first (:class:`DomainError`).
    """
    return _checked(family, theta, y, 0)


def risk_d1(family: ResponseFamily, theta, y):
    """First derivative of the risk in ``theta``, after the same validation."""
    return _checked(family, theta, y, 1)


def sample_response(family: ResponseFamily, theta, rng: np.random.Generator):
    """Draw responses with natural parameter ``theta``.

    bernoulli success probability is ``1 / (1 + exp(-theta))``, gaussian
    mean is ``theta`` with the family's variance, poisson mean is
    ``exp(theta)``.
    """
    theta = np.asarray(theta, dtype=float)
    if family.kind == "gaussian":
        return theta + np.sqrt(family.variance) * rng.standard_normal(theta.shape)
    if family.kind == "bernoulli":
        return (rng.random(theta.shape) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
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
