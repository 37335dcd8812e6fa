from itertools import combinations

import numpy as np
import pytest
from test_initialization import _reference_candidate_sets, _reference_similarity

from folomin import (
    CollinearAxesError,
    InitResult,
    InsufficientSimpleStructureError,
    ParamPair,
    align,
    sample_response,
)
from folomin.criteria import FoldedLoss, folded_criterion
from folomin.erm import FitConfig, FitResult, FitTrace
from folomin.inference import rotated_std_errors
from folomin.initialization import axes_from_sets, similarity_matrix
from folomin.pipeline import (
    AUTO_DELTA_PRIME_GRID,
    EXTRA_SETS,
    auto_init,
    fit_pipeline,
    make_loss,
    suggest_gamma,
)
from folomin.sim import SimDesign, gen_dataset


@pytest.fixture(scope="module")
def small_case():
    design = SimDesign(n=150, q=90, r=2, lambda_signal=0.4, tau=0.5, seed=21)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
    Z_star, A_star, data = gen_dataset(design, rng)
    return design, Z_star, A_star, data


def test_make_loss():
    assert make_loss("mcp", 0.1).a == 3.0
    assert make_loss("scad", 0.1).a == 3.7
    assert make_loss("tl1", 0.1).a3 == 1.0
    with pytest.raises(ValueError):
        make_loss("lasso", 0.1)


def test_suggested_scale_uses_each_losss_plateau(small_case, monkeypatch):
    # the plateau multiple passed to suggest_gamma is the one of the loss
    # that make_loss then builds with the suggested scale
    from folomin import pipeline

    design, Z_star, A_star, data = small_case
    seen = []

    def recording(A, covariances, a3):
        gamma = suggest_gamma(A, covariances, a3)
        seen.append((a3, gamma))
        return gamma

    monkeypatch.setattr(pipeline, "suggest_gamma", recording)
    M = 1.5 * max(np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max())
    kinds = ("mcp", "scad", "tl1")
    pipe = fit_pipeline(data, design.r, losses=dict.fromkeys(kinds), fit_config=FitConfig(M=M))
    per_loss = seen[-len(kinds) :]  # auto_init's comparison call comes first
    for kind, (a3, gamma) in zip(kinds, per_loss):
        assert pipe.gammas[kind] == gamma
        assert make_loss(kind, gamma).a3 == a3
    assert [a3 for a3, _ in per_loss] == [3.0, 3.7, 1.0]


def test_pipeline_end_to_end(small_case):
    design, Z_star, A_star, data = small_case
    M = 1.5 * max(np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max())
    pipe = fit_pipeline(
        data, design.r, losses={"mcp": None, "tl1": None}, fit_config=FitConfig(M=M)
    )
    assert set(pipe.rotations) == {"mcp", "tl1"}
    assert pipe.gammas["mcp"] > 0
    _, _, aligned = align(pipe.params("mcp").A, A_star)
    rms = np.sqrt(((aligned - A_star) ** 2).mean())
    # loose sanity bound: the per-entry noise floor at this small design
    # is about 0.31 (oracle), so anything near it means a sound rotation
    assert rms < 0.5


def test_pipeline_explicit_loss_scale(small_case):
    design, Z_star, A_star, data = small_case
    M = 1.5 * max(np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max())
    pipe = fit_pipeline(
        data,
        design.r,
        losses={"mcp": make_loss("mcp", 0.05)},
        fit_config=FitConfig(M=M),
        init_delta=0.008,
    )
    assert pipe.gammas["mcp"] == 0.05


def test_pipeline_skips_init_without_losses(small_case):
    design, _, _, data = small_case
    pipe = fit_pipeline(data, design.r, losses={})
    assert pipe.init is None
    assert pipe.rotations == {}


def test_suggest_gamma_scales_with_plateau(small_case):
    design, Z_star, A_star, data = small_case
    pipe = fit_pipeline(data, design.r, losses={})
    init = auto_init(pipe.fit, delta=0.008)
    se_A = rotated_std_errors(pipe.fit, init.rotation)
    g_mcp = suggest_gamma(init.params.A, se_A, a3=3.0)
    g_tl1 = suggest_gamma(init.params.A, se_A, a3=1.0)
    assert g_tl1 == pytest.approx(2.0 * g_mcp)


@pytest.fixture(scope="module")
def hard_case():
    # replication where a dense near-parallel bundle displaces a true
    # cluster at moderate slack levels
    import folomin as fm

    design = SimDesign(n=500, q=500, r=3, lambda_signal=0.2, tau=0.5, seed=202)
    ss = np.random.SeedSequence(202).spawn(30)[9]
    rng = np.random.Generator(np.random.Philox(ss))
    Z_star, A_star, data = gen_dataset(design, rng)
    M = 1.5 * max(np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max())
    return A_star, fm.erm_fit(data, 3, FitConfig(M=M))


def test_auto_init_beats_single_slack_on_hard_case(hard_case):
    # the criterion-ranked combination search recovers a sound rotation
    A_star, fit = hard_case
    init = auto_init(fit, delta=0.002)
    _, _, aligned = align(init.params.A, A_star)
    rms = np.sqrt(((aligned - A_star) ** 2).mean())
    assert rms < 0.3


def test_auto_init_raises_without_structure(monkeypatch):
    rng = np.random.default_rng(0)
    from folomin import ResponseFamily, ResponseMatrix, erm_fit, pipeline, sample_response

    Z = np.sqrt(80) * np.linalg.qr(rng.standard_normal((80, 2)))[0]
    A = rng.standard_normal((40, 2))  # dense: no simple rows anywhere
    fam = ResponseFamily.gaussian(1.0)
    data = ResponseMatrix(sample_response(fam, Z @ A.T, rng), fam)
    monkeypatch.setattr(pipeline, "AUTO_DELTA_PRIME_GRID", (1e-6,))
    with pytest.raises(InsufficientSimpleStructureError, match=r"no slack in \(1e-06,\)"):
        auto_init(erm_fit(data, 2), delta=0.01)


def test_auto_init_names_the_condition_number_when_every_axis_choice_is_collinear():
    # three clusters in one plane: every axis is that plane's normal
    rng = np.random.default_rng(3)
    directions = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5**0.5, 0.5**0.5, 0.0]])
    A = np.repeat(directions, 6, axis=0) * rng.uniform(1.0, 2.0, (18, 1))
    Z = np.sqrt(60) * np.linalg.qr(rng.standard_normal((60, 3)))[0]
    fit = FitResult(ParamPair(Z, A), FitTrace(), np.broadcast_to(np.eye(3), (18, 3, 3)))
    with pytest.raises(CollinearAxesError, match=r"collinear: the best has condition \S+ > 1e8"):
        auto_init(fit, delta=0.01)


def _reference_axes(params, sets):
    """The rotation of ``sets``: ``r`` full SVDs, one per left-out set."""
    A0, r = params.A, params.r
    V = np.empty((r, r))
    for k in range(r):
        rows = sorted(set().union(*(sets[l] for l in range(r) if l != k)))
        _, _, Vt = np.linalg.svd(A0[rows], full_matrices=True)
        V[:, k] = Vt[-1]
    for k in range(r):
        if float((A0[sorted(sets[k])] @ V[:, k]).sum()) < 0:
            V[:, k] = -V[:, k]
    if np.linalg.cond(V) > 1e8:
        raise CollinearAxesError("collinear")
    V_inv = np.linalg.inv(V)
    G0 = V_inv / np.sqrt(np.diag(V_inv @ V_inv.T))[:, None]
    return InitResult(params=params.rotate(G0), rotation=G0, selected_sets=list(sets))


def _reference_auto_init(fit, delta):
    """The exhaustive candidate loop: every slack, every combination, a
    full result per candidate, the first smallest criterion wins; also
    returns the number of collinear candidates discarded."""
    params, r = fit.params, fit.params.r
    sims = _reference_similarity(params, delta)[0]
    candidates, collinear = [], 0
    for dp in AUTO_DELTA_PRIME_GRID:
        top, _ = _reference_candidate_sets(sims, dp, r, extra=EXTRA_SETS)
        for combo in combinations(range(len(top or ())), r):
            try:
                candidates.append(_reference_axes(params, [top[i] for i in combo]))
            except CollinearAxesError:
                collinear += 1
    ref = candidates[0]
    gamma = suggest_gamma(ref.params.A, rotated_std_errors(fit, ref.rotation), a3=3.0)
    loss = FoldedLoss.mcp(gamma, 3.0)
    return min(candidates, key=lambda c: folded_criterion(c.params.A, loss)), collinear


def _assert_same_init(init, expected):
    assert np.array_equal(init.rotation, expected.rotation)
    assert np.array_equal(init.params.A, expected.params.A)
    assert np.array_equal(init.params.Z, expected.params.Z)
    assert init.selected_sets == expected.selected_sets


def test_auto_init_equals_the_exhaustive_loop_on_hard_case(hard_case):
    _, fit = hard_case
    expected, _ = _reference_auto_init(fit, 0.002)
    _assert_same_init(auto_init(fit, delta=0.002), expected)


def test_auto_init_equals_the_exhaustive_loop_past_collinear_axes():
    # a planted block with loadings of both signs clusters into two
    # disjoint sets of exactly antiparallel rows; a combination holding
    # both has two equal axes and is discarded
    from folomin import ResponseFamily, ResponseMatrix, erm_fit

    rng = np.random.default_rng(0)
    n, q, r = 200, 60, 3
    Z = np.sqrt(n) * np.linalg.qr(rng.standard_normal((n, r)))[0]
    A = np.zeros((q, r))
    A[:20, 0] = rng.uniform(1, 2, 20) * np.repeat([1.0, -1.0], 10)
    A[20:40, 1] = rng.uniform(1, 2, 20)
    A[40:, 2] = rng.uniform(1, 2, 20)
    fit = erm_fit(ResponseMatrix(Z @ A.T, ResponseFamily.gaussian(1.0)), r)
    expected, collinear = _reference_auto_init(fit, 0.01)
    assert collinear > 0
    _assert_same_init(auto_init(fit, delta=0.01), expected)


@pytest.mark.parametrize(
    "sizes",
    [(3,), (1, 1, 1), (1, 1, 3), (2, 2, 2, 2)],
    ids=["one_factor", "singletons", "mixed", "two_per_axis"],
)
def test_axes_from_sets_equals_the_full_svds(sizes):
    # a union of "other" sets with fewer than r rows (every union at
    # r = 1, the empty one) has its null vector only in a full SVD
    rng = np.random.default_rng(len(sizes) + sum(sizes))
    r, q = len(sizes), sum(sizes) + 4
    params = ParamPair(rng.standard_normal((50, r)), rng.standard_normal((q, r)))
    bounds = np.cumsum((0,) + sizes)
    sets = [frozenset(range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    _assert_same_init(axes_from_sets(params, sets), _reference_axes(params, sets))


def test_auto_init_equals_the_exhaustive_loop_at_one_factor():
    from folomin import ResponseFamily, ResponseMatrix, erm_fit

    rng = np.random.default_rng(3)
    n, q = 120, 40
    Z = rng.standard_normal((n, 1))
    A = rng.uniform(1, 2, (q, 1)) * np.repeat([1.0, -1.0], q // 2)[:, None]
    fam = ResponseFamily.gaussian(1.0)
    fit = erm_fit(ResponseMatrix(sample_response(fam, Z @ A.T, rng), fam), 1)
    expected, _ = _reference_auto_init(fit, 0.01)
    init = auto_init(fit, delta=0.01)
    _assert_same_init(init, expected)
    assert init.rotation.shape == (1, 1)


def test_similarity_does_not_form_the_row_images():
    # Z A' would take n q doubles; the similarity needs O(q^2 + n r)
    import tracemalloc

    rng = np.random.default_rng(7)
    n, q, r = 20000, 100, 3
    params = ParamPair(rng.standard_normal((n, r)), rng.standard_normal((q, r)))
    similarity_matrix(params, 0.01)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        similarity_matrix(params, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * q * 8  # one n x q float array: 16 MB
