import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from folomin import (
    FitConfig,
    OracleFitError,
    ParamPair,
    ResponseFamily,
    ResponseMatrix,
    erm_fit,
    oracle_fit_A,
    risk,
    spectral_warm_start,
)
from folomin import erm
from folomin.erm import (
    _model_minimizer_on_ball,
    _newton_direction,
    _newton_update,
    _separable_fit,
    row_grams,
)
from folomin.model import _checked
from folomin.sim import SimDesign, gen_dataset
from test_inference import _hc0_sandwiches


def _orthonormal_scores(rng, n, r):
    U, _, Vt = np.linalg.svd(rng.standard_normal((n, r)), full_matrices=False)
    return np.sqrt(n) * U @ Vt


def test_noiseless_gaussian_exact():
    rng = np.random.default_rng(0)
    n, q, r = 80, 40, 3
    Z_star = _orthonormal_scores(rng, n, r)
    A_star = rng.standard_normal((q, r))
    Y = Z_star @ A_star.T
    data = ResponseMatrix(Y, ResponseFamily.gaussian())
    res = erm_fit(data, r)
    rel = np.linalg.norm(res.params.theta() - Y) / np.linalg.norm(Y)
    assert rel <= 1e-6
    assert res.trace.status == "converged"


def test_rank_one_gaussian_matches_svd():
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((50, 40))
    data = ResponseMatrix(Y, ResponseFamily.gaussian())
    res = erm_fit(data, 1)
    U, s, Vt = np.linalg.svd(Y)
    best = s[0] * np.outer(U[:, 0], Vt[0])
    assert np.linalg.norm(res.params.theta() - best) / np.linalg.norm(best) <= 1e-6


def test_constraint_residuals_and_monotonicity():
    rng = np.random.default_rng(2)
    design = SimDesign(n=120, q=80, r=2, lambda_signal=0.3, tau=0.5, seed=0)
    Z_star, A_star, data = gen_dataset(design, rng)
    M = 1.5 * max(np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max())
    res = erm_fit(data, 2, FitConfig(M=M))
    params = res.params
    n, q, r = params.n, params.q, params.r
    assert np.linalg.norm(params.gram() - np.eye(r)) <= 1e-8
    AtA = params.A.T @ params.A / q
    assert np.abs(AtA - np.diag(np.diag(AtA))).max() <= 1e-8
    assert np.linalg.norm(params.Z, axis=1).max() <= M + 1e-12
    assert np.linalg.norm(params.A, axis=1).max() <= M + 1e-12
    # objective nonincreasing along accepted iterations
    objs = np.asarray(res.trace.objectives)
    assert np.all(np.diff(objs) <= 1e-9 * (1 + np.abs(objs[:-1])))


def _alternating_oracle(data, r, iters=100):
    """Independent unconstrained alternating per-row convex solver."""
    Z = spectral_warm_start(data, r).Z
    A, _ = _separable_fit(Z, data.values, data.family)
    for _ in range(iters):
        Z, _ = _separable_fit(A, data.values.T, data.family)
        A_new, _ = _separable_fit(Z, data.values, data.family)
        drift = np.linalg.norm(Z @ (A_new - A).T) / np.sqrt(data.n * data.q)
        A = A_new
        if drift < 1e-9:
            break
    return Z, A


def test_bernoulli_fit_matches_alternating_oracle():
    # regression bound: the fitted natural parameters track the truth as
    # well as an independent alternating convex solver does; the absolute
    # ceiling is frozen from that oracle's measured error (0.445) with
    # headroom, since the binary information bound at this size already
    # exceeds sqrt(r(n+q)/(nq)/0.25) = 0.283 root-mean-square per cell
    rng = np.random.default_rng(42)
    design = SimDesign(n=200, q=200, r=2, lambda_signal=0.2, tau=0.0, seed=3)
    Z_star, A_star, data = gen_dataset(design, rng)
    theta_star = Z_star @ A_star.T
    M = 1.5 * max(np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max())
    res = erm_fit(data, 2, FitConfig(M=M))
    erm_err = np.linalg.norm(res.params.theta() - theta_star)
    assert erm_err / np.sqrt(data.n * data.q) <= 0.5

    Z_alt, A_alt = _alternating_oracle(data, 2)
    alt_err = np.linalg.norm(Z_alt @ A_alt.T - theta_star)
    assert erm_err <= 1.05 * alt_err


def _max_row_gradients(data, params):
    """Largest per-row gradient norms of the summed risk at ``params``:
    plain for ``A``, projected onto the tangent space of ``Z'Z = n I`` for
    ``Z``. Coded from the risk's definition, independently of ``model``."""
    Z, A = params.Z, params.A
    theta = Z @ A.T
    if data.family.kind == "gaussian":
        D = 2.0 * (theta - data.values)
    else:
        D = expit(theta) - data.values
    grad_A = D.T @ Z
    grad_Z = D @ A
    S = Z.T @ grad_Z
    grad_Z = grad_Z - Z @ ((S + S.T) / (2.0 * Z.shape[0]))
    return np.linalg.norm(grad_A, axis=1).max(), np.linalg.norm(grad_Z, axis=1).max()


def test_bernoulli_fit_is_stationary():
    rng = np.random.default_rng(42)
    design = SimDesign(n=200, q=200, r=2, lambda_signal=0.2, tau=0.0, seed=3)
    Z_star, A_star, data = gen_dataset(design, rng)
    M = 1.5 * max(np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max())
    res = erm_fit(data, 2, FitConfig(M=M))
    assert res.trace.status == "converged"
    assert res.trace.stationarity <= FitConfig().tol
    assert max(_max_row_gradients(data, res.params)) <= 1e-3


def test_binding_caps_converge_onto_the_ball():
    # at this size some rows of A want norms beyond the cap: the fit still
    # converges to a KKT point that holds them on the sphere
    rng = np.random.default_rng(2)
    design = SimDesign(n=120, q=80, r=2, lambda_signal=0.3, tau=0.5, seed=0)
    Z_star, A_star, data = gen_dataset(design, rng)
    M = 1.5 * max(np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max())
    res = erm_fit(data, 2, FitConfig(M=M))
    assert res.trace.status == "converged"
    objs = np.asarray(res.trace.objectives)
    assert np.all(np.diff(objs) <= 1e-12 * (1.0 + np.abs(objs[:-1])))
    Z, A = res.params.Z, res.params.A
    norms = np.linalg.norm(A, axis=1)
    capped = norms >= M * (1 - 1e-12)
    assert capped.any() and norms.max() <= M * (1 + 1e-12)
    # free rows are stationary; a capped row's gradient points straight
    # out of the ball, so the risk falls only by leaving it
    grad = (expit(Z @ A.T) - data.values).T @ Z
    assert np.linalg.norm(grad[~capped], axis=1).max() <= 1e-6
    radial = (grad * A).sum(axis=1) / norms
    tangential = grad - (radial / norms)[:, None] * A
    assert np.all(radial[capped] < 0)
    assert np.linalg.norm(tangential[capped], axis=1).max() <= 1e-6


def _random_fit_input(kind, n, q, r, rng):
    theta = rng.standard_normal((n, r)) @ (1.5 * rng.standard_normal((r, q)) / np.sqrt(r))
    if kind == "gaussian":
        Y = theta + rng.standard_normal((n, q))
        return ResponseMatrix(Y, ResponseFamily.gaussian())
    Y = (rng.random((n, q)) < expit(theta)).astype(float)
    return ResponseMatrix(Y, ResponseFamily.bernoulli())


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "bernoulli"]),
    n=st.integers(20, 60),
    q=st.integers(20, 60),
    r=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_meets_the_gauge_and_never_raises_the_objective(kind, n, q, r, seed):
    data = _random_fit_input(kind, n, q, r, np.random.default_rng(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = erm_fit(data, r, FitConfig(max_iters=100))
    Z, A = res.params.Z, res.params.A
    assert np.abs(Z.T @ Z / n - np.eye(r)).max() <= 1e-10
    AtA = A.T @ A / q
    assert np.abs(AtA - np.diag(np.diag(AtA))).max() <= 1e-10
    objs = np.asarray(res.trace.objectives)
    assert np.all(np.diff(objs) <= 1e-10 * (1.0 + np.abs(objs[:-1])))


def test_stationary_gaussian_start_is_returned_without_a_step():
    rng = np.random.default_rng(11)
    n, q, r = 90, 70, 3
    Y = _orthonormal_scores(rng, n, r) @ rng.standard_normal((q, r)).T + rng.standard_normal((n, q))
    data = ResponseMatrix(Y, ResponseFamily.gaussian())
    start = spectral_warm_start(data, r)
    res = erm_fit(data, r)
    assert res.trace.status == "converged"
    assert res.trace.n_iters == 0 and len(res.trace.objectives) == 1
    gap = np.abs(res.params.theta() - start.theta()).max()
    assert gap <= 1e-12 * np.abs(start.theta()).max()


def test_tolerance_below_reach_stops_at_max_iters():
    rng = np.random.default_rng(42)
    design = SimDesign(n=200, q=200, r=2, lambda_signal=0.2, tau=0.0, seed=3)
    _, _, data = gen_dataset(design, rng)
    with pytest.warns(RuntimeWarning, match="max_iters=20"):
        res = erm_fit(data, 2, FitConfig(tol=0.0, max_iters=20))
    assert res.trace.status == "max_iters"
    assert res.trace.n_iters == 20 and len(res.trace.objectives) == 21
    assert res.trace.stationarity > 0.0


def test_a_fit_that_creeps_up_within_the_retake_slack_ends_stalled():
    # this fit's objective rises in almost every sweep, each time by just
    # under the retake slack; without the stall test it runs all 1000 sweeps
    design = SimDesign(n=200, q=120, r=3, lambda_signal=0.3, tau=0.5, seed=1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    _, _, data = gen_dataset(design, rng)
    with pytest.warns(RuntimeWarning, match=r"^erm_fit stalled"):
        res = erm_fit(data, 3)
    assert res.trace.status == "stalled"
    assert res.trace.n_iters <= 40
    objs = res.trace.objectives
    assert min(objs[-erm.STALL_SWEEPS :]) > min(objs[: -erm.STALL_SWEEPS])


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 5), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_model_minimizer_on_ball_meets_kkt(r, k, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((k, r, r))
    H = G @ G.transpose(0, 2, 1) + 0.1 * np.eye(r)
    x0 = rng.standard_normal((k, r)) * rng.uniform(1.0, 10.0, (k, 1))
    M = 0.9 * np.linalg.norm(x0, axis=1).min()
    x, mu = _model_minimizer_on_ball(H, x0, M)
    np.testing.assert_allclose(np.linalg.norm(x, axis=1), M, rtol=1e-12)
    assert np.all(mu >= 0.0)
    # stationarity of the Lagrangian: H (x - x0) + mu x = 0
    resid = np.einsum("kij,kj->ki", H, x - x0) + mu[:, None] * x
    scale = np.einsum("kij,kj->ki", H, x0)
    assert np.abs(resid).max() <= 1e-9 * np.abs(scale).max()


def test_oracle_fit_gaussian_is_least_squares():
    rng = np.random.default_rng(5)
    n, q, r = 60, 10, 2
    Z_star = _orthonormal_scores(rng, n, r)
    Y = rng.standard_normal((n, q))
    data = ResponseMatrix(Y, ResponseFamily.gaussian())
    A_hat = oracle_fit_A(data, Z_star).params.A
    lstsq = np.linalg.lstsq(Z_star, Y, rcond=None)[0].T
    np.testing.assert_allclose(A_hat, lstsq, atol=1e-10)


def test_oracle_fit_bernoulli_symmetric_and_separable():
    z = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    sym = ResponseMatrix(np.array([[1.0], [0.0], [0.0], [1.0]]), ResponseFamily.bernoulli())
    assert oracle_fit_A(sym, z).params.A[0, 0] == pytest.approx(0.0, abs=1e-9)
    sep = ResponseMatrix(np.array([[1.0], [1.0], [0.0], [0.0]]), ResponseFamily.bernoulli())
    with pytest.raises(OracleFitError, match=r"^oracle fit of A: rows \[0\] "):
        oracle_fit_A(sep, z)


def _full_pass_fit(X, targets, family, tol=1e-10, max_iter=100):
    """The row-separable Newton solver re-evaluating every column on every
    pass, with the step rules of ``_separable_fit``."""
    B = np.zeros((targets.shape[1], X.shape[1]))
    for _ in range(max_iter + 1):
        cells, d1, d2 = _checked(family, X @ B.T, targets)
        grad = d1.T @ X
        gnorm = np.linalg.norm(grad, axis=1)
        active = np.flatnonzero(gnorm > tol)
        if not active.size:
            break
        d, dec, _ = _newton_direction(row_grams(X, d2[:, active]), grad[active])
        pure = gnorm[active] < 1e-4
        B, _ = _newton_update(X, targets, family, B, cells.sum(axis=0), active, d, dec, pure)
    return B


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "bernoulli", "poisson"]),
    m=st.integers(40, 120),
    k=st.integers(1, 30),
    r=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_active_set_solver_matches_full_passes(kind, m, k, r, seed):
    # poisson natural parameters stay within [-1.5, 1.5], where the
    # absolute gradient tolerance is reachable
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (m, r))
    theta = X @ rng.uniform(-1.5, 1.5, (r, k)) / r
    family = ResponseFamily(kind)
    if kind == "gaussian":
        Y = theta + rng.standard_normal((m, k))
    elif kind == "bernoulli":
        Y = (rng.random((m, k)) < expit(theta)).astype(float)
    else:
        Y = rng.poisson(np.exp(theta)).astype(float)
    try:
        B, _ = _separable_fit(X, Y, family)
    except OracleFitError:
        # a separable bernoulli column: the reference fails the same checks
        B_ref = _full_pass_fit(X, Y, family)
        cells, d1, _ = _checked(family, X @ B_ref.T, Y)
        grad = d1.T @ X
        cells = cells.sum(axis=0)
        unsettled = np.linalg.norm(grad, axis=1) > 1e-10
        assert np.any(unsettled | (np.linalg.norm(B_ref, axis=1) > 1e6) | (cells < 1e-8))
        return
    np.testing.assert_allclose(B, _full_pass_fit(X, Y, family), rtol=0, atol=1e-12)


def test_separable_fit_evaluates_each_trial_point_once(monkeypatch):
    rng = np.random.default_rng(6)
    design = SimDesign(n=150, q=60, r=2, lambda_signal=0.3, tau=0.0, seed=1)
    Z_star, A_star, data = gen_dataset(design, rng)
    points, outside, widths = [], [], []
    row_cells, update = erm._row_cells, erm._newton_update
    depth = [0]

    def counted_row_cells(X, targets, family, rows, cols, *args):
        outside.append(depth[0] == 0)
        widths.append(cols.size)
        points.extend((int(c), tuple(b)) for c, b in zip(cols, rows))
        return row_cells(X, targets, family, rows, cols, *args)

    def counted_update(*args, **kwargs):
        depth[0] += 1
        try:
            return update(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(erm, "_row_cells", counted_row_cells)
    monkeypatch.setattr(erm, "_newton_update", counted_update)
    fit = oracle_fit_A(data, Z_star)
    # one evaluation of every column at the start, then only the steps'
    # trial points, none of them twice, and last one evaluation of every
    # column at the returned rows, which gives the sandwiches
    assert len(outside) >= 4
    assert outside == [True] + [False] * (len(outside) - 2) + [True]
    assert points[: data.q] == [(c, (0.0, 0.0)) for c in range(data.q)]
    solver = points[: -data.q]
    assert len(set(solver)) == len(solver)
    assert points[-data.q :] == [(c, tuple(a)) for c, a in enumerate(fit.params.A)]
    # settled columns leave the active set and are not evaluated again
    assert widths[0] == widths[-1] == data.q and widths[-2] < data.q


@pytest.mark.parametrize(
    "family, n, q, tau, seed, path",
    [
        pytest.param(ResponseFamily.bernoulli(), 120, 80, 0.5, 2, "plain", id="plain"),
        pytest.param(ResponseFamily.bernoulli(), 120, 80, 0.5, 0, "retaken", id="retaken"),
        pytest.param(ResponseFamily.poisson(), 40, 30, 0.0, 1, "halved", id="halved"),
    ],
)
def test_erm_fit_evaluates_each_trial_point_once(family, n, q, tau, seed, path, monkeypatch):
    # n != q tells the Z step's kernel calls, (q, n) and (q, k < n), from
    # the A step's, (n, q) and (n, k < q)
    design = SimDesign(n=n, q=q, r=2, lambda_signal=0.3, tau=tau, family=family, seed=seed)
    _, _, data = gen_dataset(design, np.random.default_rng(seed))
    shapes, attempts = [], [0]
    kernel, normalize = erm._risk_cells, erm._normalize

    def counted_kernel(family, theta, y, out):
        shapes.append(theta.shape)
        return kernel(family, theta, y, out)

    def counted_normalize(Z, A):
        attempts[0] += 1
        return normalize(Z, A)

    monkeypatch.setattr(erm, "_risk_cells", counted_kernel)
    monkeypatch.setattr(erm, "_normalize", counted_normalize)
    res = erm_fit(data, 2)
    assert res.trace.status == "converged"
    sweeps = res.trace.n_iters
    # every A step follows a normalization, and so does the start
    retakes = attempts[0] - 1 - sweeps
    full = [shape for shape in shapes if shape in ((n, q), (q, n))]
    halvings = [shape for shape in shapes if shape not in full]
    # one call at the start, then for each sweep (and each retake) one
    # evaluation of the Z step's trial points and one of the A step's;
    # every other call evaluates the rows that a halving left to try again
    assert len(full) == 2 * sweeps + 1 + 2 * retakes
    assert all((m == n and k < q) or (m == q and k < n) for m, k in halvings)
    assert (retakes > 0, len(halvings) > 0) == (path == "retaken", path == "halved")


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["gaussian", "bernoulli", "poisson"]),
    layout=st.sampled_from(["fresh", "C", "transposed"]),
    extra=st.sampled_from([0, 1, 30]),
    transposed_targets=st.booleans(),
    r=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_cells_equal_one_kernel_call(
    data, kind, layout, extra, transposed_targets, r, seed
):
    # the blocks are runs of rows of the outputs' C-ordered views, (m, k)
    # or, under transposed outputs, (k, m): a row count that is not a
    # multiple of the block, fewer rows than one block, or rows longer than
    # one block, which then make one block each
    block = erm.ROW_BLOCK_CELLS
    if data.draw(st.booleans(), label="rows longer than a block"):
        length = data.draw(st.integers(block + 1, block + 2000))
        count = data.draw(st.integers(1, 3))
    else:
        length = data.draw(st.integers(1, 400))
        count = data.draw(st.integers(1, 3 * block // length + 3))
    m, k = (length, count) if layout == "transposed" else (count, length)
    rng = np.random.default_rng(seed)
    family = ResponseFamily(kind)
    X, rows = rng.standard_normal((m, r)), 2.0 * rng.standard_normal((k, r)) / r
    # extra > 0: a partial column set of wider targets
    cols = np.sort(rng.choice(k + extra, k, replace=False))
    if kind == "gaussian":
        targets = rng.standard_normal((m, k + extra))
    elif kind == "bernoulli":
        targets = rng.integers(0, 2, (m, k + extra)).astype(float)
    else:
        targets = rng.poisson(2.0, (m, k + extra)).astype(float)
    if transposed_targets:
        targets = np.ascontiguousarray(targets.T).T
    if layout == "fresh":
        out = None
    elif layout == "C":
        out = tuple(np.empty((m, k)) for _ in range(3))
    else:
        out = tuple(np.empty((k, m)).T for _ in range(3))
    # the one product is taken in the outputs' memory order, as the fits
    # take it: the BLAS's (rows X')' can differ from X rows' in the last bit
    theta = (rows @ X.T).T if layout == "transposed" else X @ rows.T
    got = erm._row_cells(X, targets, family, rows, cols, out)
    assert len(got) == 3
    for g, want in zip(got, _checked(family, theta, targets[:, cols])):
        assert np.array_equal(g, want)
    if out is not None:
        assert all(g is o for g, o in zip(got, out))


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_fits_hold_few_n_by_q_arrays(kind):
    # the ERM fit keeps three (n, q) buffers, and every kernel call works
    # on one block-sized copy of Z A' at a time; traced peaks in units of
    # one (n, q) float array
    n, q = 600, 400
    family = ResponseFamily(kind)
    design = SimDesign(n=n, q=q, r=3, lambda_signal=0.2, tau=0.5, family=family, seed=3)
    Z_star, _, data = gen_dataset(design, np.random.default_rng(3))
    peaks = []
    tracemalloc.start()
    try:
        for fit in (lambda: erm_fit(data, 3), lambda: oracle_fit_A(data, Z_star)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fit()
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / (8 * n * q))
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 3.6 and peaks[1] <= 5.6, peaks


def test_oracle_fit_poisson_closed_form():
    data = ResponseMatrix(np.array([[2.0], [4.0]]), ResponseFamily.poisson())
    a = oracle_fit_A(data, np.ones((2, 1))).params.A
    assert a[0, 0] == pytest.approx(np.log(3.0), abs=1e-9)


def test_oracle_fit_gradient_norms():
    rng = np.random.default_rng(6)
    design = SimDesign(n=150, q=60, r=2, lambda_signal=0.3, tau=0.0, seed=1)
    Z_star, A_star, data = gen_dataset(design, rng)
    from folomin.model import risk_d1

    A_hat = oracle_fit_A(data, Z_star).params.A
    grads = risk_d1(data.family, Z_star @ A_hat.T, data.values).T @ Z_star
    assert np.linalg.norm(grads, axis=1).max() <= 1e-10
    Z_hat, _ = _separable_fit(A_star, data.values.T, data.family)
    grads_z = risk_d1(data.family, Z_hat @ A_star.T, data.values) @ A_star
    assert np.linalg.norm(grads_z, axis=1).max() <= 1e-10


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_oracle_fit_returns_its_sandwiches_and_trace(kind):
    family = ResponseFamily(kind)
    design = SimDesign(n=150, q=60, r=2, lambda_signal=0.3, tau=0.0, family=family, seed=1)
    Z_star, _, data = gen_dataset(design, np.random.default_rng(6))
    fit = oracle_fit_A(data, Z_star)
    assert np.array_equal(fit.params.Z, Z_star)
    ref = _hc0_sandwiches(data, fit.params)
    gap = np.linalg.norm(fit.sandwich_A - ref, axis=(1, 2))
    assert np.all(gap <= 1e-12 * np.linalg.norm(ref, axis=(1, 2)))
    trace = fit.trace
    assert trace.status == "converged"
    assert trace.stationarity <= FitConfig().tol
    assert trace.n_iters >= 1
    total = risk(family, Z_star @ fit.params.A.T, data.values).sum()
    assert trace.objectives == [pytest.approx(total, rel=1e-12)]
    assert trace.max_row_norm == np.linalg.norm(fit.params.A, axis=1).max()


@pytest.mark.parametrize("family", [ResponseFamily.gaussian(), ResponseFamily.bernoulli()],
                         ids=lambda f: f.kind)
def test_fits_and_sandwiches_do_not_revalidate_responses(family, monkeypatch):
    design = SimDesign(n=150, q=60, r=2, lambda_signal=0.3, tau=0.0, family=family, seed=3)
    Z_star, _, data = gen_dataset(design, np.random.default_rng(12))
    calls = []
    validate = ResponseFamily.validate_responses

    def counted(self, y):
        calls.append(np.shape(y))
        validate(self, y)

    monkeypatch.setattr(ResponseFamily, "validate_responses", counted)
    erm_fit(data, 2)
    oracle_fit_A(data, Z_star)
    assert calls == []
    # the public kernels still check the raw arrays they are given
    risk(family, 0.0, data.values[:2])
    assert calls == [(2, 60)]


def test_erm_requires_enough_rows():
    data = ResponseMatrix(np.zeros((2, 2)), ResponseFamily.gaussian())
    with pytest.raises(ValueError):
        erm_fit(data, 3)


def test_param_pair_helpers():
    Z = np.ones((4, 2))
    A = np.ones((3, 2))
    pair = ParamPair(Z, A)
    assert pair.n == 4 and pair.q == 3 and pair.r == 2
    G = np.array([[2.0, 0.0], [0.0, 1.0]])
    rotated = pair.rotate(G)
    np.testing.assert_allclose(rotated.theta(), pair.theta(), atol=1e-12)
    with pytest.raises(ValueError):
        ParamPair(np.ones((4, 2)), np.ones((3, 3)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    q=st.integers(1, 30),
    r=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_param_pair_rotate_preserves_theta(n, q, r, seed):
    rng = np.random.default_rng(seed)
    pair = ParamPair(rng.standard_normal((n, r)), rng.standard_normal((q, r)))
    # an orthogonal factor times a column scaling keeps cond(G) <= 4
    Q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    G = Q * rng.uniform(0.5, 2.0, size=r)
    gap = np.linalg.norm(pair.rotate(G).theta() - pair.theta())
    # ||Z A'|| <= ||Z|| ||A||, so this is a relative bound that cancellation cannot dodge
    assert gap <= 1e-12 * np.linalg.norm(pair.Z) * np.linalg.norm(pair.A)


def _with_spectrum(rng, n, q, s):
    """An n x q matrix with singular values ``s`` and random singular vectors."""
    U, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    V, _ = np.linalg.qr(rng.standard_normal((q, len(s))))
    return (U * s) @ V.T


def _warm_start(X, r):
    return spectral_warm_start(ResponseMatrix(X, ResponseFamily.gaussian()), r)


def _assert_sign_convention(A):
    lead = A[np.argmax(np.abs(A), axis=0), np.arange(A.shape[1])]
    assert np.all(lead >= 0)


@pytest.mark.parametrize("n, q", [(60, 25), (25, 60), (40, 40)])
def test_warm_start_signs_do_not_depend_on_row_order(n, q):
    rng = np.random.default_rng(n + 2 * q)
    X = rng.standard_normal((n, q))
    perm = rng.permutation(n)
    base = _warm_start(X, 4)
    permuted = _warm_start(X[perm], 4)
    _assert_sign_convention(base.A)
    _assert_sign_convention(permuted.A)
    Z_back = np.empty_like(permuted.Z)
    Z_back[perm] = permuted.Z
    np.testing.assert_allclose(Z_back, base.Z, rtol=0, atol=1e-12 * np.abs(base.Z).max())
    np.testing.assert_allclose(permuted.A, base.A, rtol=0, atol=1e-12 * np.abs(base.A).max())


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    q=st.integers(1, 40),
    r_frac=st.floats(0.0, 1.0),
    low_rank=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_warm_start_is_the_truncated_svd(n, q, r_frac, low_rank, seed):
    rng = np.random.default_rng(seed)
    k = min(n, q)
    r = 1 + int(r_frac * (k - 1))
    if low_rank:
        # a strong rank-k/2 signal under small noise: large and tiny gaps
        s = np.concatenate([rng.uniform(1.0, 10.0, (k + 1) // 2), 1e-3 * rng.uniform(size=k // 2)])
        X = _with_spectrum(rng, n, q, s)
    else:
        X = rng.standard_normal((n, q))
    pair = _warm_start(X, r)

    assert np.abs(pair.Z.T @ pair.Z / n - np.eye(r)).max() <= 1e-12
    AtA = pair.A.T @ pair.A
    assert np.abs(AtA - np.diag(np.diag(AtA))).max() <= 1e-12 * np.abs(AtA).max()
    _assert_sign_convention(pair.A)

    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    w = s**2
    if r < k and w[r - 1] - w[r] <= 1e-6 * w[0]:
        return
    best = (U[:, :r] * s[:r]) @ Vt[:r]
    assert np.abs(pair.theta() - best).max() <= 1e-10 * np.abs(best).max()


def _svd_shapes(monkeypatch):
    shapes = []
    real = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


@pytest.mark.parametrize("n, q", [(50, 30), (30, 50)])
def test_warm_start_takes_the_full_svd_only_at_a_tie(n, q, monkeypatch):
    rng = np.random.default_rng(3)
    shapes = _svd_shapes(monkeypatch)
    _warm_start(_with_spectrum(rng, n, q, [9.0, 5.0, 4.0, 2.0, 1.0]), 3)
    assert (n, q) not in shapes

    tied = _with_spectrum(rng, n, q, [9.0, 5.0, 4.0, 4.0, 1.0])
    pair = _warm_start(tied, 3)
    assert (n, q) in shapes
    U, s, Vt = np.linalg.svd(tied, full_matrices=False)
    np.testing.assert_allclose(pair.theta(), (U[:, :3] * s[:3]) @ Vt[:3], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, q", [(50, 30), (30, 50)])
def test_warm_start_takes_the_full_svd_when_the_iteration_stalls(n, q, monkeypatch):
    # eigenvalue ratio 0.999 at r = 3, well clear of a tie, but a cluster
    # wider than the iterated block: the top-r residuals shrink by about
    # 0.994 a step and cannot meet the stop rule within the step cap
    rng = np.random.default_rng(3)
    s = np.array([9.0, 5.0] + [4.0 * 0.999 ** (j / 2) for j in range(12)] + [1.0])
    X = _with_spectrum(rng, n, q, s)
    w = s**2
    assert w[2] - w[3] > 1e-6 * w[0] and w[3] / w[2] == pytest.approx(0.999)
    shapes = _svd_shapes(monkeypatch)
    pair = _warm_start(X, 3)
    assert (n, q) in shapes
    U, sv, Vt = np.linalg.svd(X, full_matrices=False)
    best = (U[:, :3] * sv[:3]) @ Vt[:3]
    assert np.abs(pair.theta() - best).max() <= 1e-10 * np.abs(best).max()


@pytest.mark.parametrize("n, q", [(300, 200), (200, 300)])
def test_warm_start_is_deterministic(n, q, monkeypatch):
    # the iteration starts from its own fixed-seed test matrix
    rng = np.random.default_rng(11)
    X = _with_spectrum(rng, n, q, [200.0, 150.0, 120.0, 100.0]) + rng.standard_normal((n, q))
    shapes = _svd_shapes(monkeypatch)
    saved = np.random.get_state()
    try:
        np.random.seed(0)
        first = _warm_start(X, 4)
        np.random.seed(1)
        np.random.standard_normal(7)
        second = _warm_start(X, 4)
    finally:
        np.random.set_state(saved)
    assert (n, q) not in shapes
    assert np.array_equal(first.Z, second.Z) and np.array_equal(first.A, second.A)


@pytest.mark.parametrize("n, q, rank", [(20, 12, 0), (12, 20, 0), (20, 12, 2), (12, 20, 2), (8, 5, 3)])
def test_warm_start_is_finite_on_rank_deficient_data(n, q, rank):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, q))
    for r in range(1, min(n, q) + 1):
        pair = _warm_start(X, r)
        assert np.all(np.isfinite(pair.Z)) and np.all(np.isfinite(pair.A))
        assert np.abs(pair.Z.T @ pair.Z / n - np.eye(r)).max() <= 1e-12
        if r >= rank:
            np.testing.assert_allclose(pair.theta(), X, rtol=0, atol=1e-12 * max(1.0, np.abs(X).max()))
