import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.special import ndtr, ndtri

from folomin import (
    DegenerateVarianceError,
    IllConditionedCovarianceError,
    ParamPair,
    ResponseFamily,
    ResponseMatrix,
    align,
    bh_adjust,
    bonferroni_adjust,
    build_report,
    erm_fit,
    oracle_fit_A,
    rotated_std_errors,
    sample_response,
    wald_intervals,
)
from folomin.erm import FitConfig, _sandwich, row_grams
from folomin.inference import (
    _min_cost_assignment,
    _wald_multiplier,
    adjust_p_values,
    two_sided_p,
)
from folomin.model import _checked
from folomin.sim import SimDesign, gen_dataset


def _orthonormal_scores(rng, n, r):
    U, _, Vt = np.linalg.svd(rng.standard_normal((n, r)), full_matrices=False)
    return np.sqrt(n) * U @ Vt


def _hc0_sandwiches(data, params):
    """The HC0 sandwiches ``B^{-1} M B^{-1}`` of the rows of ``A`` at
    ``params``, one row at a time: bread ``Z' diag(l'') Z / n`` and meat
    ``Z' diag(l'^2) Z / n``, with the risk's derivatives written out for
    each family."""
    Z, n = params.Z, params.n
    out = np.empty((params.q, params.r, params.r))
    for j, a in enumerate(params.A):
        theta, y = Z @ a, data.values[:, j]
        if data.family.kind == "gaussian":
            d1, d2 = 2.0 * (theta - y), np.full(n, 2.0)
        elif data.family.kind == "bernoulli":
            p, s = 1.0 / (1.0 + np.exp(-theta)), 1.0 / (1.0 + np.exp(theta))
            d1, d2 = np.where(y > 0, -s, p), p * s
        else:
            d1, d2 = np.exp(theta) - y, np.exp(theta)
        inv = np.linalg.inv(Z.T @ (d2[:, None] * Z) / n)
        out[j] = inv @ (Z.T @ (d1[:, None] ** 2 * Z) / n) @ inv
    return out


def _hc0_std_errors(data, params):
    """The ``q x r`` standard errors of ``A`` from :func:`_hc0_sandwiches`."""
    return np.sqrt(_hc0_sandwiches(data, params).diagonal(axis1=1, axis2=2) / params.n)


def test_normal_quantile_against_series_oracle():
    # cross-check the quantile primitive against high-precision erf inversion
    import mpmath

    for level in (0.9, 0.95, 0.99):
        expected = float(mpmath.sqrt(2) * mpmath.erfinv(level))
        assert abs(_wald_multiplier(level) - expected) <= 1e-7
    assert _wald_multiplier(0.95) == pytest.approx(1.959964, abs=1e-5)


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_wald_multiplier_matches_scipy_ndtri(level):
    expected = float(ndtri((1.0 + level) / 2.0))
    assert abs(_wald_multiplier(level) - expected) <= 4 * np.spacing(expected)


def test_gaussian_closed_form_sandwich():
    rng = np.random.default_rng(5)
    n, q, r = 2000, 60, 3
    Z_star = _orthonormal_scores(rng, n, r)
    A_star = rng.standard_normal((q, r))
    fam = ResponseFamily.gaussian(1.0)
    Y = sample_response(fam, Z_star @ A_star.T, rng)
    data = ResponseMatrix(Y, fam)
    sandwich_A = oracle_fit_A(data, Z_star).sandwich_A
    target = np.linalg.inv(Z_star.T @ Z_star / n)  # sigma^2 = 1
    mean_sandwich = np.mean(sandwich_A, axis=0)
    assert np.linalg.norm(mean_sandwich - target) / np.linalg.norm(target) <= 0.05
    for sandwich in sandwich_A:
        # each row's sandwich is a noisy but PSD estimate of the target
        assert np.linalg.eigvalsh(sandwich)[0] >= -1e-12
        assert np.linalg.norm(sandwich - target) / np.linalg.norm(target) <= 0.25


def test_bernoulli_sandwich_psd():
    rng = np.random.default_rng(6)
    n, q, r = 300, 40, 2
    Z_star = _orthonormal_scores(rng, n, r)
    A_star = 0.8 * rng.standard_normal((q, r))
    fam = ResponseFamily.bernoulli()
    Y = sample_response(fam, Z_star @ A_star.T, rng)
    data = ResponseMatrix(Y, fam)
    oracle = oracle_fit_A(data, Z_star)
    assert oracle.params.n == n
    assert np.linalg.eigvalsh(oracle.sandwich_A)[:, 0].min() >= -1e-12
    # the stack that every rotation of a fit reuses
    fit = erm_fit(data, r)
    assert fit.sandwich_A.shape == (q, r, r)
    assert np.linalg.eigvalsh(fit.sandwich_A)[:, 0].min() >= -1e-12


def test_scalar_mean_inference():
    rng = np.random.default_rng(7)
    n = 4000
    z = np.ones((n, 1))
    fam = ResponseFamily.gaussian(1.0)
    Y = sample_response(fam, np.zeros((n, 1)), rng)
    data = ResponseMatrix(Y, fam)
    oracle = oracle_fit_A(data, z)
    params = oracle.params
    assert oracle.sandwich_A[0, 0, 0] == pytest.approx(1.0, rel=0.1)
    lower, upper, zscore = wald_intervals(params.A, rotated_std_errors(oracle, np.eye(1)), 0.95)
    half = (upper - lower)[0, 0] / 2
    assert half == pytest.approx(1.959964 / np.sqrt(n), rel=0.1)
    assert lower[0, 0] <= params.A[0, 0] <= upper[0, 0]


def test_wald_rejects_zero_variance():
    zeros = ResponseMatrix(np.zeros((3, 1)), ResponseFamily.gaussian())
    oracle = oracle_fit_A(zeros, np.ones((3, 1)))
    assert np.array_equal(oracle.params.A, np.zeros((1, 1)))
    # zero residuals give a zero meat matrix -> degenerate variance
    se = rotated_std_errors(oracle, np.eye(1))
    for bad in (se, np.full((1, 1), np.nan), np.full((1, 1), np.inf)):
        with pytest.raises(DegenerateVarianceError, match=r"for entry \(0, 0\) is not finite"):
            wald_intervals(np.zeros((1, 1)), bad, 0.95)
    with pytest.raises(ValueError):
        wald_intervals(np.zeros((1, 1)), se, 1.5)


def test_bh_hand_example():
    adjusted, rejected = bh_adjust(np.array([0.005, 0.01, 0.03, 0.04]), alpha=0.05)
    np.testing.assert_allclose(adjusted, [0.02, 0.02, 0.04, 0.04])
    assert rejected.all()


def test_bh_edge_cases():
    adjusted, rejected = bh_adjust(np.ones(5), alpha=0.05)
    assert not rejected.any()
    np.testing.assert_array_equal(adjusted, np.ones(5))
    adjusted, rejected = bh_adjust(np.array([0.04]), alpha=0.05)
    assert rejected[0] and adjusted[0] == pytest.approx(0.04)
    with pytest.raises(ValueError):
        bh_adjust(np.array([0.5, 1.2]), alpha=0.05)


def test_bonferroni():
    adjusted, rejected = bonferroni_adjust(np.array([0.01, 0.2]), alpha=0.05)
    np.testing.assert_allclose(adjusted, [0.02, 0.4])
    assert rejected.tolist() == [True, False]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40)
)
# p * 3 / 3 rounds below p for the largest value here
@example([0.1, 0.8158535541215322, 0.2])
def test_bh_properties(p_values):
    p = np.asarray(p_values)
    adjusted, rejected = bh_adjust(p, alpha=0.05)
    assert np.all(adjusted >= p)
    assert np.all(adjusted <= 1.0 + 1e-15)
    # monotone: ordering of adjusted p-values follows ordering of raw ones
    order = np.argsort(p, kind="stable")
    assert np.all(np.diff(adjusted[order]) >= -1e-15)
    # rejections form a down-set of the sorted p-values
    rej_sorted = rejected[order]
    if rej_sorted.any():
        last = np.max(np.flatnonzero(rej_sorted))
        assert rej_sorted[: last + 1].all()


def test_align_examples():
    rng = np.random.default_rng(8)
    truth = rng.standard_normal((7, 3))
    estimate = truth[:, [1, 0, 2]] * np.array([1.0, -1.0, 1.0])
    perm, signs, aligned = align(estimate, truth)
    np.testing.assert_allclose(aligned, truth, atol=1e-12)
    perm, signs, aligned = align(truth, truth)
    np.testing.assert_array_equal(perm, [0, 1, 2])
    np.testing.assert_array_equal(signs, [1.0, 1.0, 1.0])


def test_align_matches_enumeration_oracle():
    rng = np.random.default_rng(9)
    truth = rng.standard_normal((5, 2))
    estimate = truth[:, [1, 0]] * np.array([-1.0, 1.0]) + 1e-3 * rng.standard_normal((5, 2))
    perm, signs, aligned = align(estimate, truth)
    # brute-force signed permutation search
    best = np.inf
    for p in itertools.permutations(range(2)):
        for s in itertools.product([-1.0, 1.0], repeat=2):
            cand = estimate[:, list(p)] * np.array(s)
            best = min(best, np.linalg.norm(cand - truth))
    assert np.linalg.norm(aligned - truth) == pytest.approx(best, abs=1e-12)


@functools.cache
def _permutations(r):
    return np.array(list(itertools.permutations(range(r))))


@settings(max_examples=200, deadline=None)
@given(r=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), levels=st.sampled_from([0, 2, 3]))
@example(r=8, seed=0, levels=0)
@example(r=8, seed=0, levels=2)
def test_min_cost_assignment_matches_scipy(r, seed, levels):
    rng = np.random.default_rng(seed)
    # levels > 0 draws a few integer costs, so that optima tie
    cost = rng.integers(0, levels, (r, r)) * 1.0 if levels else rng.uniform(-1.0, 1.0, (r, r))
    row_of = _min_cost_assignment(cost)
    rows, cols = linear_sum_assignment(cost)
    assert sorted(row_of.tolist()) == list(range(r))
    columns = np.arange(r)
    assert abs(cost[row_of, columns].sum() - cost[rows, cols].sum()) <= 1e-12
    # the same permutation wherever the optimum is unique by a clear margin
    totals = np.sort(cost[_permutations(r), columns].sum(axis=1))
    if r == 1 or totals[1] - totals[0] > 1e-9:
        expected = np.empty(r, dtype=int)
        expected[cols] = rows
        np.testing.assert_array_equal(row_of, expected)


def test_align_rejects_non_finite_input():
    truth = np.eye(3)
    with pytest.raises(ValueError, match="finite"):
        align(np.where(truth == 1, np.nan, truth), truth)


def test_two_sided_p():
    assert two_sided_p(0.0) == pytest.approx(1.0)
    assert two_sided_p(1.959963984540054) == pytest.approx(0.05, abs=1e-9)


def test_two_sided_p_matches_scipy_ndtr():
    z = np.linspace(0.0, 37.0, 20001)
    expected = 2.0 * ndtr(-z)
    np.testing.assert_allclose(two_sided_p(z), expected, rtol=1e-12, atol=0)
    np.testing.assert_allclose(two_sided_p(-z[::-1]), expected[::-1], rtol=1e-12, atol=0)
    # both become subnormal, then 0 at the same |z|
    far = np.linspace(37.0, 60.0, 100001)
    np.testing.assert_allclose(two_sided_p(far), 2.0 * ndtr(-far), rtol=1e-9, atol=0)
    grid = two_sided_p(z[:12].reshape(3, 4))
    assert grid.shape == (3, 4) and grid.dtype == float
    # a Python scalar and a 0-d array give a float, like the ufunc did
    for scalar in (1.5, np.array(1.5)):
        p = two_sided_p(scalar)
        assert np.ndim(p) == 0 and isinstance(p, float)
        assert p == pytest.approx(2.0 * ndtr(-1.5), rel=1e-12, abs=0)


def test_interval_width_scales_with_root_n():
    # width ~ 1/sqrt(n): quadrupling the sample halves the average width
    rng = np.random.default_rng(12)
    fam = ResponseFamily.bernoulli()
    widths = {}
    for n in (500, 2000):
        U, _, Vt = np.linalg.svd(rng.standard_normal((n, 2)), full_matrices=False)
        Z_star = np.sqrt(n) * U @ Vt
        A_star = np.zeros((40, 2))
        A_star[:20, 0] = 1.2
        A_star[20:, 1] = 1.2
        Y = sample_response(fam, Z_star @ A_star.T, rng)
        data = ResponseMatrix(Y, fam)
        oracle = oracle_fit_A(data, Z_star)
        se = rotated_std_errors(oracle, np.eye(2))
        lower, upper, _ = wald_intervals(oracle.params.A, se, 0.95)
        widths[n] = float((upper - lower).mean())
    ratio = widths[500] / widths[2000]
    assert abs(ratio - 2.0) <= 0.15 * 2.0


def test_build_report_structure():
    rng = np.random.default_rng(10)
    n, q, r = 200, 20, 2
    Z_star = _orthonormal_scores(rng, n, r)
    A_star = np.zeros((q, r))
    A_star[:10, 0] = 1.5
    A_star[10:, 1] = 1.5
    fam = ResponseFamily.gaussian(1.0)
    Y = sample_response(fam, Z_star @ A_star.T, rng)
    data = ResponseMatrix(Y, fam)
    oracle = oracle_fit_A(data, Z_star)
    params = oracle.params
    se = rotated_std_errors(oracle, np.eye(r))
    report = build_report(params.A, se, level=0.95, adjust="bh", per_column=True)
    assert report.lower_A.shape == (q, r)
    assert np.all(report.lower_A <= params.A) and np.all(params.A <= report.upper_A)
    assert np.all(report.adjusted_p_A >= report.p_A - 1e-15)
    # strong entries are overwhelmingly significant
    strong = np.abs(A_star) > 1
    assert report.rejections_A[strong].all()
    assert np.abs(report.z_A[strong]).min() > 5


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 40),
    r=st.integers(1, 5),
    k=st.integers(1, 8),
    log_scale=st.integers(-20, 20),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=9, r=1, k=4, log_scale=0, seed=0)
@example(m=9, r=4, k=1, log_scale=0, seed=0)
@example(m=1, r=1, k=1, log_scale=0, seed=0)
def test_row_grams_matches_column_loop(m, r, k, log_scale, seed):
    rng = np.random.default_rng(seed)
    X = 2.0**log_scale * rng.standard_normal((m, r))
    # nonnegative weights, like the risk curvatures and squared scores
    w = rng.exponential(size=(m, k))
    grams = row_grams(X, w)
    assert grams.shape == (k, r, r)
    for col in range(k):
        ref = X.T @ (w[:, col, None] * X)
        assert np.abs(grams[col] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_std_errors_at_the_identity_are_the_stacks_own():
    # the oracle reads its standard errors through the identity rotation,
    # which must leave every sandwich's bits as they are
    rng = np.random.default_rng(14)
    n, q, r = 150, 12, 3
    Z_star = _orthonormal_scores(rng, n, r)
    A_star = 0.8 * rng.standard_normal((q, r))
    fam = ResponseFamily.bernoulli()
    data = ResponseMatrix(sample_response(fam, Z_star @ A_star.T, rng), fam)
    oracle = oracle_fit_A(data, Z_star)
    assert oracle.sandwich_A.shape == (q, r, r)
    per_row = np.stack([np.sqrt(oracle.sandwich_A[k].diagonal() / n) for k in range(q)])
    assert np.array_equal(rotated_std_errors(oracle, np.eye(r)), per_row)


def _nearly_collinear(rng, m):
    z = rng.standard_normal(m)
    return np.column_stack([z, z + 1e-7 * rng.standard_normal(m), rng.standard_normal(m)])


def test_ill_conditioned_bread_names_the_requested_row():
    # two nearly collinear latent columns make every bread singular; the
    # error must name the row of A with the worst bread
    rng = np.random.default_rng(11)
    fam = ResponseFamily.bernoulli()
    Z = _nearly_collinear(rng, 400)
    params = ParamPair(Z, 0.5 * rng.standard_normal((6, 3)))
    theta = params.theta()
    data = ResponseMatrix(sample_response(fam, theta, rng), fam)
    _, d1, d2 = _checked(fam, theta, data.values)
    breads = row_grams(Z, d2) / Z.shape[0]
    worst = int(np.argmax(np.linalg.cond(breads)))
    with pytest.raises(IllConditionedCovarianceError, match=rf"row {worst} of A "):
        _sandwich(breads, row_grams(Z, d1**2) / Z.shape[0])


@functools.cache
def _fitted(kind):
    """A small r = 3 fit of each family, with its data."""
    design = SimDesign(n=80, q=50, r=3, lambda_signal=0.3, tau=0.3, family=ResponseFamily(kind))
    _, _, data = gen_dataset(design, np.random.default_rng(17))
    with warnings.catch_warnings():
        # the sandwich stack belongs to the returned pair whether or not it converged
        warnings.simplefilter("ignore", RuntimeWarning)
        return data, erm_fit(data, 3, FitConfig(max_iters=50))


def _rotation(seed, tiny):
    """A random 3 x 3 matrix with singular values 1, 1.5 and ``tiny``."""
    rng = np.random.default_rng(seed)
    U, _, Vt = np.linalg.svd(rng.standard_normal((3, 3)))
    return U @ np.diag([1.5, 1.0, tiny]) @ Vt


def _close(derived, reference):
    # entry by entry, relative to each reference standard error
    return np.all(np.abs(derived - reference) <= 1e-9 * reference)


def _exact_congruence(data, params, G):
    """``(G B G')^{-1} (G M G') (G B G')^{-1}`` for every row's float64
    bread ``B`` and meat ``M`` at ``params``, in 40-digit arithmetic."""
    import mpmath

    _, d1, d2 = _checked(data.family, params.theta(), data.values)
    breads = row_grams(params.Z, d2) / params.n
    meats = row_grams(params.Z, d1**2) / params.n
    out = np.empty_like(breads)
    with mpmath.workdps(40):
        G_mp = mpmath.matrix(G.tolist())
        for j, (B, M) in enumerate(zip(breads, meats)):
            inv = (G_mp * mpmath.matrix(B.tolist()) * G_mp.T) ** -1
            exact = inv * G_mp * mpmath.matrix(M.tolist()) * G_mp.T * inv
            out[j] = np.array(exact.tolist(), dtype=float)
    return out


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["gaussian", "bernoulli", "poisson"]), seed=st.integers(0, 2**32 - 1))
def test_rotated_std_errors_match_a_fresh_sandwich(kind, seed):
    # the sandwiches of any rotation (Z G', A G^{-1}) follow from the fit's
    # by congruence, so its standard errors match the HC0 reference formed
    # afresh at the rotated pair
    data, fit = _fitted(kind)
    G = _rotation(seed, 0.5)
    derived = rotated_std_errors(fit, G)
    assert _close(derived, _hc0_std_errors(data, fit.params.rotate(G)))


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["gaussian", "bernoulli", "poisson"]), seed=st.integers(0, 2**32 - 1))
def test_rotated_std_errors_match_exact_arithmetic_at_an_ill_conditioned_rotation(kind, seed):
    # an ill-conditioned G makes every rotated bread ill-conditioned, so a
    # float64 sandwich at the rotated pair loses digits; the congruence
    # must then still match exact arithmetic
    data, fit = _fitted(kind)
    G = _rotation(seed, 1e-5)
    exact = _exact_congruence(data, fit.params, G).diagonal(axis1=1, axis2=2)
    assert _close(rotated_std_errors(fit, G), np.sqrt(exact / fit.params.n))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_adjust_p_values_requires_alpha_inside_the_unit_interval(alpha):
    p = np.full((4, 2), 0.01)
    for method in ("bh", "bonferroni"):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            adjust_p_values(p, alpha, method, per_column=True)
