import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from folomin import (
    FeasibleSet,
    FoldedLoss,
    folded_criterion,
    sample_feasible,
    varimax_criterion,
)
from folomin.criteria import _feasible_project, polar
from folomin.exceptions import DegenerateRotationError
from folomin.sim import SimDesign, gen_A, gen_Z

ALL_LOSSES = [
    lambda g: FoldedLoss.scad(g, 3.7),
    lambda g: FoldedLoss.mcp(g, 3.0),
    lambda g: FoldedLoss.truncated_l1(g),
]


def test_mcp_values():
    mcp = FoldedLoss.mcp(0.2, 3.0)
    assert mcp.value(0.0) == 0.0
    assert mcp.value(0.1) == pytest.approx(0.2 * 0.1 - 0.01 / 6.0, abs=1e-15)
    assert mcp.value(1.0) == pytest.approx(0.06, abs=1e-15)
    assert mcp.deriv(0.7) == 0.0
    assert mcp.deriv_zero_plus() == pytest.approx(0.2)


def test_scad_continuity_and_plateau():
    scad = FoldedLoss.scad(0.3, 3.7)
    g, a = 0.3, 3.7
    assert scad.value(g) == pytest.approx(g * g, rel=1e-12)
    assert scad.value(a * g) == pytest.approx((a + 1) * g * g / 2, rel=1e-12)
    assert scad.value(10.0) == scad.value(a * g)
    assert scad.deriv(g / 2) == pytest.approx(g)
    assert scad.deriv(a * g + 0.1) == 0.0


def test_tl1_derivative_convention():
    tl1 = FoldedLoss.truncated_l1(0.4)
    assert tl1.value(0.2) == pytest.approx(0.4 * 0.2)
    assert tl1.value(5.0) == pytest.approx(0.16)
    # derivative fixed to zero at the non-differentiable point
    assert tl1.deriv(0.4) == 0.0
    assert tl1.deriv(0.39) == pytest.approx(0.4)


def test_invalid_loss_parameters():
    with pytest.raises(ValueError):
        FoldedLoss.mcp(-0.1)
    with pytest.raises(ValueError):
        FoldedLoss.scad(0.1, a=2.0)
    with pytest.raises(ValueError):
        FoldedLoss.mcp(0.1, a=1.0)


@pytest.mark.parametrize("make", ALL_LOSSES, ids=["scad", "mcp", "tl1"])
@pytest.mark.parametrize("gamma", [0.05, 0.2, 1.0])
def test_condition_suite(make, gamma):
    loss = make(gamma)
    t = np.linspace(-3 * loss.plateau, 3 * loss.plateau, 10_000)
    vals = loss.value(t)
    # evenness
    np.testing.assert_allclose(vals, loss.value(-t), atol=1e-14)
    # nondecreasing on [0, inf)
    pos = np.sort(np.abs(t))
    assert np.all(np.diff(loss.value(pos)) >= -1e-14)
    # midpoint concavity on (0, inf)
    rng = np.random.default_rng(5)
    x = rng.uniform(1e-9, 3 * loss.plateau, 3000)
    y = rng.uniform(1e-9, 3 * loss.plateau, 3000)
    assert np.all(loss.value((x + y) / 2) >= (loss.value(x) + loss.value(y)) / 2 - 1e-12)
    # plateau: derivative zero and value constant beyond a3 * gamma
    tail = np.linspace(loss.plateau, 5 * loss.plateau, 100)
    assert np.all(loss.deriv(tail) == 0.0)
    np.testing.assert_allclose(loss.value(tail), loss.plateau_value, rtol=1e-12)
    # slope at zero equals gamma
    assert abs(loss.deriv_zero_plus() - gamma) <= 1e-10
    h = 1e-9 * max(gamma, 1.0)
    assert loss.value(h) / h == pytest.approx(gamma, rel=1e-5)
    # derivative Lipschitz-bounded below the first kink
    s = np.linspace(1e-6, loss.a3 * gamma * 0.999, 500)
    fd = np.abs(np.diff(loss.deriv(s))) / np.diff(s)
    assert fd.max() <= 2.0 / gamma + 1.0


def test_folded_criterion_examples():
    mcp = FoldedLoss.mcp(0.2, 3.0)
    assert folded_criterion(np.zeros((4, 3)), mcp) == 0.0
    assert folded_criterion(np.eye(2), mcp) == pytest.approx(0.12)
    assert folded_criterion(10 * np.eye(2), mcp) == pytest.approx(0.12)


def test_varimax_criterion_examples():
    assert varimax_criterion(np.full((5, 3), 0.7)) == pytest.approx(0.0, abs=1e-12)
    assert varimax_criterion(np.eye(2)) == pytest.approx(0.5)
    A = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
    with_zero_col = varimax_criterion(A)
    assert with_zero_col == pytest.approx(varimax_criterion(A[:, :1].reshape(3, 1)) * 1.0)


def test_feasible_project_examples():
    gram = np.eye(2)
    np.testing.assert_allclose(_feasible_project(np.eye(2), gram, "oblique"), np.eye(2))
    np.testing.assert_allclose(_feasible_project(2 * np.eye(2), gram, "oblique"), np.eye(2))
    G = np.array([[1.0, 1.0], [0.0, 1.0]])
    expected = np.array([[1 / np.sqrt(2), 1 / np.sqrt(2)], [0.0, 1.0]])
    np.testing.assert_allclose(_feasible_project(G, gram, "oblique"), expected, atol=1e-15)


def test_feasible_project_degenerate_row():
    with pytest.raises(DegenerateRotationError):
        _feasible_project(np.array([[0.0, 0.0], [0.0, 1.0]]), np.eye(2), "oblique")


def test_feasible_project_orthogonal_mode():
    fset = FeasibleSet(radius=0.5, gram=np.eye(3), mode="orthogonal")
    rng = np.random.default_rng(3)
    G = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    P = _feasible_project(G, fset.gram, fset.mode)
    np.testing.assert_allclose(P @ P.T, np.eye(3), atol=1e-12)


def test_feasible_set_validation():
    with pytest.raises(ValueError):
        FeasibleSet(radius=0.1, gram=np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        FeasibleSet(radius=0.1, gram=np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_sample_feasible_contracts():
    rng = np.random.default_rng(11)
    gram = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    fset = FeasibleSet(radius=0.0, gram=gram)
    np.testing.assert_array_equal(sample_feasible(fset, rng), np.eye(3))
    c = 0.05
    fset = FeasibleSet(radius=c, gram=gram)
    worst_diag, worst_dist = 0.0, 0.0
    for _ in range(10_000):
        G = sample_feasible(fset, rng)
        worst_diag = max(worst_diag, np.abs(np.einsum("ij,jk,ik->i", G, gram, G) - 1).max())
        worst_dist = max(worst_dist, np.linalg.norm(G - np.eye(3), 2))
    assert worst_diag <= 1e-12
    assert worst_dist <= 2 * c


def test_local_optimality_of_sparse_loadings():
    # sampled rotations around the identity never beat the sparse point
    rng = np.random.default_rng(17)
    design = SimDesign(n=300, q=200, r=3, lambda_signal=0.5, tau=0.5, seed=0)
    A_star = gen_A(design, rng)
    Z_star = gen_Z(design, rng)
    M = np.linalg.norm(A_star, axis=1).max()
    gamma = 0.1
    loss = FoldedLoss.mcp(gamma, 3.0)
    assert gamma <= 0.5 / (loss.a3 + 1)
    c = min(gamma / M, 1.0) / 2.0
    fset = FeasibleSet(radius=c, gram=Z_star.T @ Z_star / design.n)
    q_star = folded_criterion(A_star, loss)
    for _ in range(300):
        G = sample_feasible(fset, rng)
        assert folded_criterion(A_star @ np.linalg.inv(G), loss) >= q_star - 1e-10


def test_varimax_gradient_nonzero_at_identity_for_block_matrix():
    A0 = np.array(
        [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.5, 0.3]]
    )
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    h = 1e-5
    deriv = (
        varimax_criterion(A0 @ expm(h * J)) - varimax_criterion(A0 @ expm(-h * J))
    ) / (2 * h)
    assert abs(deriv) > 1e-3


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(1, 6),
    extra_rows=st.integers(0, 8),
    log_scale=st.integers(-10, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_polar_is_orthonormal_and_matches_full_svd(r, extra_rows, log_scale, seed):
    rng = np.random.default_rng(seed)
    X = 2.0**log_scale * rng.standard_normal((r + extra_rows, r))
    Q = polar(X)
    assert Q.shape == X.shape
    assert np.abs(Q.T @ Q - np.eye(r)).max() <= 1e-12
    if extra_rows == 0:
        U, _, Vt = np.linalg.svd(X)
        assert np.array_equal(Q, U @ Vt)
