import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from folomin import (
    DataError,
    DomainError,
    ResponseFamily,
    ResponseMatrix,
    risk,
    risk_d1,
    sample_response,
)
from folomin.model import _cells, _checked

GAUSS = ResponseFamily.gaussian(1.0)
BERN = ResponseFamily.bernoulli()
POIS = ResponseFamily.poisson()
EPS = np.finfo(float).eps


def _d2(family, theta):
    """The kernel's second derivative, which does not depend on the responses."""
    return _checked(family, theta, np.zeros(()))[2][()]


def test_risk_examples():
    assert risk(GAUSS, 0.0, 0.0) == 0.0
    assert risk(BERN, 0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)
    assert risk(POIS, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_derivative_examples():
    assert risk_d1(GAUSS, 1.0, 0.0) == 2.0
    assert _d2(GAUSS, 1.0) == 2.0
    assert risk_d1(BERN, 0.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert _d2(BERN, 0.0) == pytest.approx(0.25, abs=1e-12)
    assert risk_d1(POIS, 0.0, 3.0) == pytest.approx(-2.0, abs=1e-12)
    assert _d2(POIS, 0.0) == pytest.approx(1.0, abs=1e-12)


def _grid_for(family):
    thetas = np.linspace(-4.0, 4.0, 17)
    if family.kind == "gaussian":
        ys = [-1.5, 0.0, 2.0]
    elif family.kind == "bernoulli":
        ys = [0.0, 1.0]
    else:
        ys = [0.0, 1.0, 3.0]
    return thetas, ys


def _reference_risk_and_d1(kind, theta, y):
    """The textbook formulas for the risk and its first derivative."""
    if kind == "gaussian":
        return (theta - y) ** 2, 2.0 * (theta - y)
    if kind == "bernoulli":
        return -y * theta + np.logaddexp(0.0, theta), 1.0 / (1.0 + np.exp(-theta)) - y
    return -y * theta + np.exp(theta), np.exp(theta) - y


@pytest.mark.parametrize("family", [GAUSS, BERN, POIS], ids=lambda f: f.kind)
def test_risk_kernels_write_into_a_given_buffer(family):
    rng = np.random.default_rng(5)
    thetas, ys = _grid_for(family)
    theta = rng.choice(thetas, size=(6, 4)) + rng.uniform(-0.1, 0.1, (6, 4))
    y = rng.choice(ys, size=(6, 4))
    ref_risk, ref_d1 = _reference_risk_and_d1(family.kind, theta, y)
    for kernel, ref in ((risk, ref_risk), (risk_d1, ref_d1)):
        fresh = kernel(family, theta, y)
        np.testing.assert_allclose(fresh, ref, rtol=1e-15, atol=1e-15)
        # a scalar theta broadcasts against the responses
        t00 = theta[0, 0]
        np.testing.assert_array_equal(kernel(family, t00, y), kernel(family, np.full_like(y, t00), y))
    assert kernel(family, 0.5, ys[0]) == kernel(family, np.array([0.5]), np.array([ys[0]]))[0]
    # the kernel writes into the arrays it is given, here Fortran-ordered
    # ones as in the ERM's Z step, the values that C-ordered ones get
    out = tuple(np.full((4, 6), np.nan).T for _ in range(3))
    written = _cells(family, np.asfortranarray(theta), np.asfortranarray(y), out)
    assert all(w is o for w, o in zip(written, out))
    for w, fresh in zip(written, _checked(family, theta, y)):
        np.testing.assert_array_equal(w, fresh)


@pytest.mark.parametrize("family", [GAUSS, BERN, POIS], ids=lambda f: f.kind)
def test_public_risks_equal_the_kernel(family):
    rng = np.random.default_rng(7)
    thetas, ys = _grid_for(family)
    theta = rng.choice(thetas, size=(6, 4)) + rng.uniform(-0.1, 0.1, (6, 4))
    y = rng.choice(ys, size=(6, 4))
    f, d1, d2 = _checked(family, theta, y)
    for public, ref in ((risk, f), (risk_d1, d1)):
        assert np.array_equal(public(family, theta, y), ref)
        # 0-d theta
        t, y0 = theta[1, 2], y[1, 2]
        assert public(family, t, y0) == ref[1, 2]
    assert np.array_equal(_d2(family, theta), d2)
    assert _d2(family, theta[1, 2]) == d2[1, 2]


def test_gaussian_kernel_is_the_plain_arithmetic():
    rng = np.random.default_rng(8)
    theta = 3.0 * rng.standard_normal((9, 7))
    y = rng.standard_normal((9, 7))
    f, d1, d2 = _checked(GAUSS, theta, y)
    assert np.array_equal(f, (theta - y) ** 2)
    assert np.array_equal(d1, 2 * (theta - y))
    assert np.array_equal(d2, np.full_like(theta, 2.0))


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(-700.0, 700.0), y=st.sampled_from([0.0, 1.0]))
@example(theta=0.0, y=1.0)
@example(theta=-700.0, y=0.0)
@example(theta=700.0, y=1.0)
@example(theta=-5e-324, y=0.0)
@example(theta=37.5, y=0.0)
def test_bernoulli_kernel_against_high_precision(theta, y):
    f, d1, d2 = (v[0] for v in _checked(BERN, np.array([theta]), np.array([y])))
    with mpmath.workprec(300):
        t = mpmath.mpf(theta)
        e = mpmath.exp(-abs(t))
        ref_f = max(t, 0) + mpmath.log1p(e) - y * t
        ref_d1 = 1 / (1 + mpmath.exp(-t)) - y
        ref_d2 = e / (1 + e) ** 2
        assert abs(f - ref_f) <= 4 * EPS * (1 + abs(theta))
        assert abs(d1 - ref_d1) <= 2 * EPS
        assert abs(d2 - ref_d2) <= 4 * EPS * ref_d2
    assert d2 > 0


@pytest.mark.parametrize("family", [GAUSS, BERN, POIS], ids=lambda f: f.kind)
def test_finite_difference_derivatives(family):
    h = 1e-6
    thetas, ys = _grid_for(family)
    for y in ys:
        for t in thetas:
            fd1 = (risk(family, t + h, y) - risk(family, t - h, y)) / (2 * h)
            d1 = risk_d1(family, t, y)
            assert abs(d1 - fd1) <= 1e-6 * (1 + abs(d1))
            fd2 = (risk_d1(family, t + h, y) - risk_d1(family, t - h, y)) / (2 * h)
            d2 = _d2(family, t)
            assert abs(d2 - fd2) <= 1e-6 * (1 + abs(d2))


@pytest.mark.parametrize("family", [GAUSS, BERN, POIS], ids=lambda f: f.kind)
def test_second_derivative_positive_on_compact_interval(family):
    M = 3.0
    thetas = np.linspace(-M * M, M * M, 401)
    d2 = _d2(family, thetas)
    assert np.all(d2 >= 0)
    assert d2.min() > 0
    assert d2.max() < np.inf


@pytest.mark.parametrize("family", [GAUSS, BERN, POIS], ids=lambda f: f.kind)
def test_midpoint_convexity(family):
    rng = np.random.default_rng(0)
    _, ys = _grid_for(family)
    for y in ys:
        t1 = rng.uniform(-4, 4, 200)
        t2 = rng.uniform(-4, 4, 200)
        mid = risk(family, (t1 + t2) / 2, y)
        assert np.all(mid <= (risk(family, t1, y) + risk(family, t2, y)) / 2 + 1e-12)


def test_sampling_moments():
    rng = np.random.default_rng(123)
    draws = sample_response(BERN, np.full(1000, 50.0), rng)
    assert np.all(draws == 1.0)
    gauss_draws = sample_response(GAUSS, np.zeros(100_000), rng)
    assert -0.02 <= gauss_draws.mean() <= 0.02
    pois_draws = sample_response(POIS, np.zeros(100_000), rng)
    assert 0.97 <= pois_draws.mean() <= 1.03


@pytest.mark.parametrize("scale", [1.0, 3.0, 10.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bernoulli_draws_equal_those_through_scipy_expit(scale, seed):
    # the plain logistic differs from expit in the last bit on some cells;
    # the draws, compared with uniforms, must not move
    theta = scale * np.random.default_rng(seed).standard_normal((400, 250))
    draws = sample_response(BERN, theta, np.random.default_rng(seed + 10))
    expected = np.random.default_rng(seed + 10).random(theta.shape) < expit(theta)
    assert np.array_equal(draws, expected.astype(float))


@pytest.mark.parametrize(
    "family, y, cell",
    [
        (BERN, [[0.0, 1.0], [1.0, 2.0]], "index (1, 1) is 2.0, expected 0 or 1"),
        (BERN, [[0.0, np.nan]], "index (0, 1) is nan, expected 0 or 1"),
        (POIS, [0.0, 3.0, 1.5], "index (2,) is 1.5, expected a nonnegative integer"),
        (POIS, [[np.inf]], "index (0, 0) is inf, expected a nonnegative integer"),
        (GAUSS, [[1.0, 2.0], [-np.inf, np.nan]], "index (1, 0) is -inf, expected a finite number"),
    ],
    ids=["bernoulli", "bernoulli-nan", "poisson", "poisson-inf", "gaussian"],
)
def test_domain_error_names_the_first_bad_cell(family, y, cell):
    message = f"{family.kind} response at {cell}"
    with pytest.raises(DomainError) as info:
        family.validate_responses(np.array(y))
    assert str(info.value) == message
    # the cell survives pickling, as when a worker process raises it
    copy = pickle.loads(pickle.dumps(info.value))
    assert (str(copy), copy.index, copy.kind) == (message, info.value.index, family.kind)


def test_domain_validation():
    with pytest.raises(DomainError):
        risk(BERN, 0.0, 0.5)
    with pytest.raises(DomainError):
        risk(POIS, 0.0, -1.0)
    with pytest.raises(DomainError):
        risk(POIS, 0.0, 2.5)
    with pytest.raises(DomainError):
        ResponseMatrix(np.array([[0.0, 2.0]]), BERN)
    with pytest.raises(DataError):
        ResponseMatrix(np.zeros(3), GAUSS)


def test_gaussian_variance_must_be_positive():
    with pytest.raises(ValueError):
        ResponseFamily.gaussian(0.0)
    with pytest.raises(ValueError):
        ResponseFamily("nonsense")


def test_response_matrix_shape_and_domain():
    m = ResponseMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), BERN)
    assert (m.n, m.q) == (2, 2)
