import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from folomin import (
    align,
    promax_rotate,
    varimax_criterion,
    varimax_rotate,
)
from folomin import vintage
from folomin.criteria import _varimax_value_grad, polar

A_BLOCK = np.array(
    [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.5, 0.3]]
)


def _simple_loadings(rng, q=30, r=3, per_dim=10):
    A = np.zeros((q, r))
    for l in range(r):
        A[l * per_dim : (l + 1) * per_dim, l] = rng.uniform(1, 2, per_dim)
    return A


def _signed_perm_distance(G):
    r = G.shape[0]
    best = np.inf
    for p in itertools.permutations(range(r)):
        for s in itertools.product([-1.0, 1.0], repeat=r):
            P = np.zeros((r, r))
            for l in range(r):
                P[p[l], l] = s[l]
            best = min(best, np.linalg.norm(G @ P - np.eye(r)))
    return best


def test_perfectly_simple_is_fixed_point():
    rng = np.random.default_rng(0)
    A = _simple_loadings(rng)
    res = varimax_rotate(A, seed=0)
    _, _, aligned = align(res.A_rot, A)
    assert np.abs(aligned - A).max() <= 1e-8
    assert np.linalg.norm(res.G.T @ res.G - np.eye(3)) <= 1e-10


def test_rank_one_returns_sign():
    A = np.arange(1.0, 6.0).reshape(5, 1)
    res = varimax_rotate(A)
    assert res.G.shape == (1, 1)
    assert abs(abs(res.G[0, 0]) - 1.0) <= 1e-12


def test_block_counterexample_moves_away_from_identity():
    res = varimax_rotate(A_BLOCK, seed=1)
    assert _signed_perm_distance(res.G) > 0.01


def test_local_maximality_of_returned_rotation():
    # the ascent maximizes the row-normalized criterion; verify optimality
    # against a cloud of small orthogonal perturbations
    res = varimax_rotate(A_BLOCK, seed=1)
    W = A_BLOCK / np.linalg.norm(A_BLOCK, axis=1)[:, None]
    f0 = varimax_criterion(W @ res.G)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        S = rng.standard_normal((2, 2))
        S = (S - S.T) / 2
        S *= 1e-3 / np.linalg.norm(S, 2)
        worst = max(worst, varimax_criterion(W @ res.G @ expm(S)) - f0)
    assert worst <= 1e-9


def test_varimax_requires_full_rank():
    with pytest.raises(ValueError):
        varimax_rotate(np.ones((5, 2)))


def test_ascent_trace_nondecreasing():
    rng = np.random.default_rng(9)
    A = _simple_loadings(rng) + 0.3 * rng.standard_normal((30, 3))
    res = varimax_rotate(A, seed=0)
    trace = np.asarray(res.trace)
    # the winning start's criterion before its first and after every step
    assert trace.size == res.n_iters + 1 >= 2
    assert np.all(np.diff(trace) >= -1e-12)
    W = A / np.linalg.norm(A, axis=1)[:, None]
    assert trace[-1] == pytest.approx(varimax_criterion(W @ res.G), abs=1e-12)


def test_product_preservation_through_pairing():
    rng = np.random.default_rng(2)
    A = _simple_loadings(rng) + 0.1 * rng.standard_normal((30, 3))
    Z = rng.standard_normal((50, 3))
    res = varimax_rotate(A, seed=0)
    np.testing.assert_allclose((Z @ res.G) @ res.A_rot.T, Z @ A.T, atol=1e-10)
    pres = promax_rotate(A, res)
    np.testing.assert_allclose((Z @ pres.G.T) @ pres.A_rot.T, Z @ A.T, atol=1e-9)


def test_promax_perfectly_simple():
    rng = np.random.default_rng(3)
    A = _simple_loadings(rng)
    res = promax_rotate(A, varimax_rotate(A))
    _, _, aligned = align(res.A_rot, A)
    assert np.abs(aligned - A).max() <= 1e-6
    np.testing.assert_allclose(res.factor_correlation, np.eye(3), atol=1e-6)


def test_promax_correlation_structure():
    rng = np.random.default_rng(4)
    A = _simple_loadings(rng) + 0.2 * rng.standard_normal((30, 3))
    res = promax_rotate(A, varimax_rotate(A))
    phi = res.factor_correlation
    np.testing.assert_allclose(phi, phi.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(phi), np.ones(3), atol=1e-12)


def _row_normalized(A):
    return A / np.linalg.norm(A, axis=1)[:, None]


def _stationarity(W, G):
    """Norm of the skew part of ``G' W' grad`` at ``L = W G``."""
    L = W @ G
    sq = L**2
    grad = 4.0 / len(L) * L * (sq - sq.mean(axis=0))
    M = G.T @ W.T @ grad
    return np.linalg.norm(M - M.T) / 2.0


def _noisy_simple(seed, r, per_dim, noise):
    # from exact simple structure (noise 0) to dense loadings (noise 2)
    rng = np.random.default_rng(seed)
    A = _simple_loadings(rng, q=r * per_dim, r=r, per_dim=per_dim)
    return A + noise * rng.standard_normal(A.shape)


loadings = st.builds(
    _noisy_simple,
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(3, 12),
    st.floats(0.0, 2.0),
)


@settings(max_examples=40, deadline=None)
@given(loadings)
# the identity start's two candidates tie below rounding here; taking the
# fixed-point step on such ties left it swinging across the maximum
@example(_noisy_simple(60, 2, 6, 1.192092896e-07))
def test_result_is_orthogonal_and_stationary(A):
    res = varimax_rotate(A)
    r = A.shape[1]
    assert np.abs(res.G.T @ res.G - np.eye(r)).max() <= 1e-12
    assert np.array_equal(res.A_rot, A @ res.G)
    assert _stationarity(_row_normalized(A), res.G) <= 1e-10
    assert res.converged


@settings(max_examples=25, deadline=None)
@given(loadings, st.integers(0, 2**32 - 1))
def test_criterion_is_rotation_invariant(A, seed):
    Q = polar(np.random.default_rng(seed).standard_normal((A.shape[1], A.shape[1])))
    assert varimax_rotate(A @ Q).criterion == pytest.approx(
        varimax_rotate(A).criterion, abs=1e-10
    )


@settings(max_examples=20, deadline=None)
@given(loadings)
def test_batched_starts_keep_the_best_single_start(A):
    W = _row_normalized(A)
    best = varimax_criterion(W @ varimax_rotate(A).G)
    for G0 in vintage._starts(A.shape[1], 0):
        _, f, _, _ = vintage._ascend(W, G0[None], vintage.MAX_ITERS)
        assert best >= f[0] - 1e-12 * (1.0 + abs(f[0]))


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(2, 6),
    q=st.integers(6, 300),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_value_and_gradient_match_the_fourth_power_formula(r, q, k, seed):
    # rotated Kaiser-normalized loadings, as the ascent evaluates them
    rng = np.random.default_rng(seed)
    W = _row_normalized(rng.standard_normal((q, r)))
    L = W @ polar(rng.standard_normal((k, r, r)))
    sq = L**2
    col_means = sq.mean(axis=-2, keepdims=True)
    value = ((L**4).sum(axis=-2) - q * col_means[..., 0, :] ** 2).sum(axis=-1) / q
    grad = 4.0 / q * L * (sq - col_means)
    got_value, got_grad = _varimax_value_grad(np.swapaxes(L, 1, 2))
    np.testing.assert_allclose(got_value, value, rtol=1e-13, atol=0)
    np.testing.assert_allclose([varimax_criterion(Lk) for Lk in L], value, rtol=1e-13, atol=0)
    np.testing.assert_allclose(np.swapaxes(got_grad, 1, 2), grad, rtol=0, atol=1e-15)


def test_promax_reuses_a_varimax_result():
    rng = np.random.default_rng(6)
    A = _simple_loadings(rng) + 0.2 * rng.standard_normal((30, 3))
    reused = promax_rotate(A, varimax_rotate(A, seed=2))
    again = promax_rotate(A, varimax_rotate(A, seed=2))
    for field in ("G", "A_rot", "factor_correlation"):
        assert np.array_equal(getattr(again, field), getattr(reused, field))
    other = varimax_rotate(A + 0.01 * rng.standard_normal(A.shape), seed=2)
    with pytest.raises(ValueError, match="not computed from these loadings"):
        promax_rotate(A, other)
