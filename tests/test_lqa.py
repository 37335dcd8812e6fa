import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from folomin import (
    FoldedLoss,
    LqaConfig,
    ParamPair,
    align,
    lqa_run,
    lqa_subproblem,
    lqa_weights,
)


def _orthonormal_scores(rng, n, r):
    U, _, Vt = np.linalg.svd(rng.standard_normal((n, r)), full_matrices=False)
    return np.sqrt(n) * U @ Vt


def _simple_construction(rng, q=30, r=3, n=200, per_dim=10):
    A_star = np.zeros((q, r))
    for l in range(r):
        A_star[l * per_dim : (l + 1) * per_dim, l] = rng.uniform(1, 2, per_dim)
    return _orthonormal_scores(rng, n, r), A_star


def _small_rotation(rng, r, scale=0.03):
    S = rng.standard_normal((r, r)) * scale
    return expm(S - S.T)


def test_weight_conventions():
    mcp = FoldedLoss.mcp(0.2, 3.0)
    eta = 0.07
    w = lqa_weights(np.array([[0.0]]), mcp, eta)
    assert w[0, 0] == pytest.approx(0.2 / eta)
    # plateau entries carry no weight
    assert lqa_weights(np.array([[0.61]]), mcp, eta)[0, 0] == 0.0
    assert lqa_weights(np.array([[-5.0]]), mcp, eta)[0, 0] == 0.0
    # weights vanish as the regularizer grows
    assert lqa_weights(np.array([[0.1]]), mcp, 1e9).max() < 1e-9
    # truncated l1: derivative fixed to zero at its kink
    tl1 = FoldedLoss.truncated_l1(0.3)
    assert lqa_weights(np.array([[0.3]]), tl1, eta)[0, 0] == 0.0


def test_subproblem_zero_weights_returns_identity():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((20, 3))
    H = lqa_subproblem(A, np.zeros((20, 3)), R=1.0)
    np.testing.assert_array_equal(H, np.eye(3))


def test_subproblem_explicit_eigenvector():
    # craft loadings/weights whose weighted gram for column 0 is diag(0, 5)
    A = np.array([[0.0, 1.0], [0.0, 2.0]])
    w = np.array([[1.0, 0.0], [1.0, 0.0]])
    H = lqa_subproblem(A, w, R=2.0)
    np.testing.assert_allclose(H[:, 0], np.array([1.0, 0.0]), atol=1e-12)


def test_subproblem_recovers_small_rotation():
    rng = np.random.default_rng(1)
    _, A_star = _simple_construction(rng)
    Q = _small_rotation(rng, 3)
    A_t = A_star @ Q
    loss = FoldedLoss.mcp(0.2, 3.0)
    w = lqa_weights(A_t, loss, eta=0.05)
    H = lqa_subproblem(A_t, w, R=1.0)
    # verify against a dense eigendecomposition oracle per column
    for l in range(3):
        W_l = (A_t * w[:, l][:, None]).T @ A_t
        evals, evecs = np.linalg.eigh(W_l)
        h = evecs[:, 0] * np.sign(evecs[l, 0])
        np.testing.assert_allclose(np.abs(H[:, l]), np.abs(h), atol=1e-8)
    np.testing.assert_allclose(H, Q.T, atol=1e-6)


def test_subproblem_rejects_negative_weights():
    with pytest.raises(ValueError):
        lqa_subproblem(np.ones((3, 2)), -np.ones((3, 2)), R=1.0)


def test_run_zero_iterations_is_identity():
    rng = np.random.default_rng(2)
    Z, A = _simple_construction(rng)
    start = ParamPair(Z, A)
    res = lqa_run(start, LqaConfig(loss=FoldedLoss.mcp(0.2, 3.0), T=0))
    np.testing.assert_array_equal(res.G_total, np.eye(3))
    np.testing.assert_array_equal(res.params.A, A)


def test_one_step_exact_recovery_from_small_rotation():
    rng = np.random.default_rng(3)
    Z_star, A_star = _simple_construction(rng)
    Q = _small_rotation(rng, 3)
    start = ParamPair(Z_star @ Q, A_star @ Q)
    res = lqa_run(start, LqaConfig(loss=FoldedLoss.mcp(0.2, 3.0), T=1, eta=0.05))
    _, _, aligned = align(res.params.A, A_star)
    assert np.abs(aligned - A_star).max() <= 1e-6


def test_product_and_normalization_invariants():
    rng = np.random.default_rng(4)
    Z_star, A_star = _simple_construction(rng)
    noisy = A_star + 0.05 * rng.standard_normal(A_star.shape)
    Q = _small_rotation(rng, 3, scale=0.05)
    start = ParamPair(Z_star @ Q, noisy @ Q)
    theta0 = start.theta()
    res = lqa_run(start, LqaConfig(loss=FoldedLoss.mcp(0.1, 3.0), T=4, eta=0.1))
    rel = np.abs(res.params.theta() - theta0).max() / np.abs(theta0).max()
    assert rel <= 1e-10
    assert max(res.trace.gram_residuals) <= 1e-8
    # composed rotation reproduces the final pair from the start
    np.testing.assert_allclose(
        res.params.A, start.A @ np.linalg.inv(res.G_total), atol=1e-10
    )


def test_surrogate_descent_vs_identity():
    rng = np.random.default_rng(5)
    Z_star, A_star = _simple_construction(rng)
    noisy = A_star + 0.08 * rng.standard_normal(A_star.shape)
    Q = _small_rotation(rng, 3, scale=0.08)
    A_t = noisy @ Q
    loss = FoldedLoss.mcp(0.15, 3.0)
    w = lqa_weights(A_t, loss, eta=0.1)
    H = lqa_subproblem(A_t, w, R=1.0)
    surrogate = lambda M: float((w * (A_t @ M) ** 2).sum())
    assert surrogate(H) <= surrogate(np.eye(3)) + 1e-12


def test_orthogonal_mode_keeps_gram_identity():
    rng = np.random.default_rng(6)
    Z_star, A_star = _simple_construction(rng)
    Q = _small_rotation(rng, 3)
    start = ParamPair(Z_star @ Q, A_star @ Q)
    res = lqa_run(start, LqaConfig(loss=FoldedLoss.mcp(0.2, 3.0), T=2, mode="orthogonal"))
    np.testing.assert_allclose(res.params.gram(), np.eye(3), atol=1e-8)
    _, _, aligned = align(res.params.A, A_star)
    assert np.abs(aligned - A_star).max() <= 1e-6


def test_one_step_sufficiency_at_scale():
    # extra iterations change the estimate by far less than the estimation
    # error: the first step already carries the statistical content
    import folomin as fm
    from folomin.erm import FitConfig
    from folomin.inference import rotated_std_errors
    from folomin.pipeline import auto_init, suggest_gamma
    from folomin.sim import SimDesign, gen_dataset

    design = SimDesign(n=500, q=500, r=3, lambda_signal=0.2, tau=0.5, seed=31)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
    Z_star, A_star, data = gen_dataset(design, rng)
    M = 1.5 * max(np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max())
    fit = fm.erm_fit(data, 3, FitConfig(M=M))
    init = auto_init(fit, delta=0.002)
    # the one-step guarantee lives in the conservative loss-scale regime
    # (plateau safely below the weakest signal), hence the halved scale
    se_A = rotated_std_errors(fit, init.rotation)
    loss = FoldedLoss.mcp(0.5 * suggest_gamma(init.params.A, se_A, 3.0), 3.0)
    one = lqa_run(init.params, LqaConfig(loss=loss, T=1)).params.A
    five = lqa_run(init.params, LqaConfig(loss=loss, T=5)).params.A
    _, _, one_aligned = align(one, A_star)
    drift = np.linalg.norm(one - five, axis=1).max()
    err = np.linalg.norm(one_aligned - A_star, axis=1).max()
    assert drift <= 0.1 * err


def test_config_validation():
    loss = FoldedLoss.mcp(0.2, 3.0)
    with pytest.raises(ValueError):
        LqaConfig(loss=loss, eta=0.0)
    with pytest.raises(ValueError):
        LqaConfig(loss=loss, T=-1)
    with pytest.raises(ValueError):
        LqaConfig(loss=loss, mode="sideways")


@settings(max_examples=30, deadline=None)
@given(
    r=st.integers(2, 4),
    mode=st.sampled_from(["oblique", "orthogonal"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_invariants_from_random_starts(r, mode, seed):
    rng = np.random.default_rng(seed)
    n, q = 60, 20
    start = ParamPair(_orthonormal_scores(rng, n, r), rng.standard_normal((q, r)))
    out = lqa_run(start, LqaConfig(loss=FoldedLoss.mcp(0.3), T=3, mode=mode)).params
    theta = start.theta()
    assert np.linalg.norm(out.theta() - theta) <= 1e-10 * np.linalg.norm(theta)
    gram = out.gram()
    if mode == "oblique":
        assert np.abs(np.diag(gram) - 1.0).max() <= 1e-10
    else:
        assert np.abs(gram - np.eye(r)).max() <= 1e-10
