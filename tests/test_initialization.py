import numpy as np
import pytest

from folomin import (
    InitConfig,
    InsufficientSimpleStructureError,
    ParamPair,
    align,
    init_rotation,
    similarity_matrix,
)


def _orthonormal_scores(rng, n, r):
    U, _, Vt = np.linalg.svd(rng.standard_normal((n, r)), full_matrices=False)
    return np.sqrt(n) * U @ Vt


def _simple_construction(rng, q=30, r=3, n=200, per_dim=10):
    A_star = np.zeros((q, r))
    for l in range(r):
        A_star[l * per_dim : (l + 1) * per_dim, l] = rng.uniform(1, 2, per_dim)
    Z_star = _orthonormal_scores(rng, n, r)
    return Z_star, A_star


def _random_orthogonal(rng, r):
    return np.linalg.qr(rng.standard_normal((r, r)))[0]


def test_similarity_examples():
    rng = np.random.default_rng(0)
    Z_star, A_star = _simple_construction(rng)
    sims = similarity_matrix(ParamPair(Z_star, A_star), delta=0.01)
    assert sims.shape == (30, 30)
    assert sims[0, 0] == pytest.approx(1.0)
    # same-dimension simple rows are exactly parallel
    assert sims[0, 1] == pytest.approx(1.0, abs=1e-12)
    # rows of different dimensions are orthogonal images
    assert sims[0, 12] == pytest.approx(0.0, abs=1e-12)
    # zero row floors to zero
    A_zero = A_star.copy()
    A_zero[5] = 0.0
    sims = similarity_matrix(ParamPair(Z_star, A_zero), delta=0.01)
    assert sims[5, 0] == sims[0, 5] == 0.0


def test_similarity_rotation_invariance():
    rng = np.random.default_rng(1)
    Z_star, A_star = _simple_construction(rng)
    params = ParamPair(Z_star, A_star)
    G = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    rotated = ParamPair(Z_star @ G.T, A_star @ np.linalg.inv(G))
    sims = similarity_matrix(params, 0.01)
    assert np.abs(similarity_matrix(rotated, 0.01) - sims).max() <= 1e-10


def test_noiseless_exact_recovery():
    rng = np.random.default_rng(2)
    Z_star, A_star = _simple_construction(rng)
    R = _random_orthogonal(rng, 3)
    start = ParamPair(Z_star @ R, A_star @ R)
    res = init_rotation(start, InitConfig(delta=0.01, delta_prime=0.05))
    _, _, aligned = align(res.params.A, A_star)
    assert np.abs(aligned - A_star).max() <= 1e-8
    # selected sets recover the planted blocks exactly
    blocks = {frozenset(range(l * 10, (l + 1) * 10)) for l in range(3)}
    assert set(res.selected_sets) == blocks
    # the fitted product is untouched and the latent scores stay unit-variance
    np.testing.assert_allclose(res.params.theta(), start.theta(), atol=1e-10)
    assert np.abs(np.diag(res.params.gram()) - 1).max() <= 1e-8


def test_rotation_invariance_of_whole_procedure():
    rng = np.random.default_rng(3)
    Z_star, A_star = _simple_construction(rng)
    cfg = InitConfig(delta=0.01, delta_prime=0.05)
    base = init_rotation(ParamPair(Z_star, A_star), cfg)
    R = _random_orthogonal(rng, 3)
    other = init_rotation(ParamPair(Z_star @ R, A_star @ R), cfg)
    _, _, aligned = align(other.params.A, base.params.A)
    np.testing.assert_allclose(aligned, base.params.A, atol=1e-8)


def test_pathological_slack_errors():
    # with generic loadings every cosine clears the near-zero threshold,
    # so all candidate sets overlap and selection cannot find 3 disjoint ones
    rng = np.random.default_rng(4)
    Z_star, A_star = _simple_construction(rng)
    noisy = A_star + 0.01 * rng.standard_normal(A_star.shape)
    start = ParamPair(Z_star, noisy)
    with pytest.raises(InsufficientSimpleStructureError) as info:
        init_rotation(start, InitConfig(delta=0.01, delta_prime=0.999))
    assert info.value.found < 3


def test_insufficient_structure_reports_count():
    # two informative dimensions only: rows of the third dimension removed
    rng = np.random.default_rng(5)
    Z_star, A_star = _simple_construction(rng)
    A_flat = A_star.copy()
    A_flat[20:30] = 0.0
    with pytest.raises(InsufficientSimpleStructureError) as info:
        init_rotation(ParamPair(Z_star, A_flat), InitConfig(delta=0.01, delta_prime=0.05))
    assert info.value.found == 2


def test_init_config_validation():
    with pytest.raises(ValueError):
        InitConfig(delta=0.0)
    with pytest.raises(ValueError):
        InitConfig(delta_prime=1.0)
