import numpy as np
import pytest

from folomin import InsufficientSimpleStructureError, align
from folomin.erm import FitConfig
from folomin.inference import rotated_covariances_A
from folomin.pipeline import auto_init, fit_pipeline, make_loss, suggest_gamma
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
    cov_A = rotated_covariances_A(pipe.fit, init.rotation)
    g_mcp = suggest_gamma(init.params.A, cov_A, a3=3.0)
    g_tl1 = suggest_gamma(init.params.A, cov_A, a3=1.0)
    assert g_tl1 == pytest.approx(2.0 * g_mcp)


def test_auto_init_beats_single_slack_on_hard_case():
    # replication where a dense near-parallel bundle displaces a true
    # cluster at moderate slack levels; the criterion-ranked combination
    # search recovers a sound rotation
    import folomin as fm

    design = SimDesign(n=500, q=500, r=3, lambda_signal=0.2, tau=0.5, seed=202)
    ss = np.random.SeedSequence(202).spawn(30)[9]
    rng = np.random.Generator(np.random.Philox(ss))
    Z_star, A_star, data = gen_dataset(design, rng)
    M = 1.5 * max(np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max())
    fit = fm.erm_fit(data, 3, FitConfig(M=M))
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
