"""Acceptance gate: one test per criterion, each printing a PASS line.

The two replication studies (criteria 5 and 6) dominate the runtime.
They run in parallel worker processes: as many as the FOLOMIN_THREADS
environment variable asks for, or else one per usable CPU, at most four.
Everything is seeded, so reruns with the same worker count are
bit-reproducible.
"""

import itertools
import os
import time

import numpy as np
import pytest
from scipy.linalg import expm

import folomin as fm
from folomin.cli import main as cli_main
from folomin.initialization import axes_from_sets, candidate_sets
from folomin.sim import SimDesign, gen_A, gen_Z, run_replications

LEVEL = 0.95
DESIGN = SimDesign(n=500, q=500, r=3, lambda_signal=0.2, tau=0.5, seed=7)
DESIGN_ORTH = SimDesign(n=500, q=500, r=3, lambda_signal=0.2, tau=0.0, seed=7)
N_REPS = 100
if hasattr(os, "sched_getaffinity"):
    _CPUS = len(os.sched_getaffinity(0))
else:
    _CPUS = os.cpu_count() or 1
WORKERS = int(os.environ.get("FOLOMIN_THREADS", 0)) or min(4, _CPUS)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def oblique_summary():
    t0 = time.time()
    summary = run_replications(
        DESIGN,
        methods=("oracle", "folomin_mcp", "promax"),
        n_reps=N_REPS,
        level=LEVEL,
        workers=WORKERS,
    )
    print(f"\n  [criterion 5 study: {N_REPS} reps in {time.time() - t0:.0f} s, "
          f"{summary.n_failed} failed]")
    return summary


@pytest.fixture(scope="module")
def orthogonal_summary():
    t0 = time.time()
    summary = run_replications(
        DESIGN_ORTH,
        methods=("varimax", "varimax_debiased"),
        n_reps=N_REPS,
        level=LEVEL,
        workers=WORKERS,
    )
    print(f"\n  [criterion 6 study: {N_REPS} reps in {time.time() - t0:.0f} s, "
          f"{summary.n_failed} failed]")
    return summary


def test_criterion_1_condition_suite():
    t0 = time.time()
    losses = [fm.FoldedLoss.scad, lambda g: fm.FoldedLoss.mcp(g, 3.0), fm.FoldedLoss.truncated_l1]
    for make in losses:
        for gamma in (0.05, 0.2, 1.0):
            loss = make(gamma)
            t = np.linspace(-3 * loss.plateau, 3 * loss.plateau, 10_000)
            assert np.allclose(loss.value(t), loss.value(-t), atol=1e-14)
            pos = np.sort(np.abs(t))
            assert np.all(np.diff(loss.value(pos)) >= -1e-14)
            rng = np.random.default_rng(0)
            x = rng.uniform(1e-9, 3 * loss.plateau, 2000)
            y = rng.uniform(1e-9, 3 * loss.plateau, 2000)
            assert np.all(
                loss.value((x + y) / 2) >= (loss.value(x) + loss.value(y)) / 2 - 1e-12
            )
            tail = np.linspace(loss.plateau, 6 * loss.plateau, 200)
            assert np.all(loss.deriv(tail) == 0.0)
            assert abs(loss.deriv_zero_plus() - gamma) <= 1e-10
    elapsed = time.time() - t0
    _report(
        "criterion 1 (folded loss regularity suite)",
        elapsed < 1.0,
        f"all checks passed on 1e4 grids in {elapsed:.2f} s",
    )


def test_criterion_2_local_optimality_certificate():
    t0 = time.time()
    rng = np.random.default_rng(12)
    design = SimDesign(n=300, q=200, r=3, lambda_signal=0.5, tau=0.5, seed=0)
    loss = fm.FoldedLoss.mcp(0.1, 3.0)
    assert 0.1 <= 0.5 / (loss.a3 + 1.0)
    violations = 0
    total = 0
    for _ in range(50):
        A_star = gen_A(design, rng)
        M = np.linalg.norm(A_star, axis=1).max()
        assert fm.is_sparse(A_star, lam=0.5, epsilon=1e-6, M=M + 1e-9).ok
        Z_star = gen_Z(design, rng)
        c = min(0.1 / M, 1.0) / 2.0
        fset = fm.FeasibleSet(radius=c, gram=Z_star.T @ Z_star / design.n)
        q_star = fm.folded_criterion(A_star, loss)
        for _ in range(200):
            G = fm.sample_feasible(fset, rng)
            total += 1
            if fm.folded_criterion(A_star @ np.linalg.inv(G), loss) < q_star - 1e-10:
                violations += 1
    elapsed = time.time() - t0
    _report(
        "criterion 2 (sparse point minimal over sampled local rotations)",
        violations == 0 and total == 10_000 and elapsed < 30.0,
        f"{total - violations}/{total} samples respected the bound in {elapsed:.1f} s",
    )


def test_criterion_3_rotation_bias_certificate():
    t0 = time.time()
    A0 = np.array(
        [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.5, 0.3]]
    )
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    h = 1e-5
    deriv = (
        fm.varimax_criterion(A0 @ expm(h * J)) - fm.varimax_criterion(A0 @ expm(-h * J))
    ) / (2 * h)
    res = fm.varimax_rotate(A0, seed=1)
    best = np.inf
    for p in itertools.permutations(range(2)):
        for s in itertools.product([-1.0, 1.0], repeat=2):
            P = np.zeros((2, 2))
            P[p[0], 0], P[p[1], 1] = s[0], s[1]
            best = min(best, np.linalg.norm(res.G @ P - np.eye(2)))
    elapsed = time.time() - t0
    _report(
        "criterion 3 (classical criterion biased on the block counterexample)",
        abs(deriv) > 1e-3 and best > 0.01 and elapsed < 1.0,
        f"|directional derivative| = {abs(deriv):.4f} > 1e-3, "
        f"||G - I|| = {best:.4f} > 0.01 in {elapsed:.2f} s",
    )


def test_criterion_4_noiseless_exact_recovery():
    t0 = time.time()
    rng = np.random.default_rng(4)
    q, r, n = 30, 3, 200
    A_star = np.zeros((q, r))
    for l in range(r):
        A_star[l * 10 : (l + 1) * 10, l] = rng.uniform(1, 2, 10)
    U, _, Vt = np.linalg.svd(rng.standard_normal((n, r)), full_matrices=False)
    Z_star = np.sqrt(n) * U @ Vt
    R = np.linalg.qr(rng.standard_normal((r, r)))[0]
    start = fm.ParamPair(Z_star @ R, A_star @ R)
    init = axes_from_sets(start, candidate_sets(fm.similarity_matrix(start, 0.01), 0.05, r))
    res = fm.lqa_run(init.params, fm.LqaConfig(loss=fm.FoldedLoss.mcp(0.2, 3.0), T=1))
    _, _, aligned = fm.align(res.params.A, A_star)
    err = np.abs(aligned - A_star).max()
    elapsed = time.time() - t0
    _report(
        "criterion 4 (noiseless exact recovery)",
        err <= 1e-6 and elapsed < 1.0,
        f"max abs error {err:.2e} <= 1e-6 in {elapsed:.2f} s",
    )


def test_criterion_5a_folomin_coverage(oblique_summary):
    cov = oblique_summary.mean_coverage_A["folomin_mcp"]
    _report(
        "criterion 5a (folded-loss rotation coverage)",
        0.92 <= cov <= 0.975,
        f"mean coverage {cov:.4f} in [0.92, 0.975]",
    )


def test_criterion_5b_oracle_coverage(oblique_summary):
    cov = oblique_summary.mean_coverage_A["oracle"]
    _report(
        "criterion 5b (oracle coverage)",
        0.92 <= cov <= 0.975,
        f"mean coverage {cov:.4f} in [0.92, 0.975]",
    )


def test_criterion_5c_mse_ratio(oblique_summary):
    ratio = (
        oblique_summary.mean_scaled_mse_A["folomin_mcp"]
        / oblique_summary.mean_scaled_mse_A["oracle"]
    )
    _report(
        "criterion 5c (scaled MSE within 1.3x oracle)",
        ratio <= 1.3,
        f"ratio {ratio:.3f} <= 1.3 "
        f"(folomin {oblique_summary.mean_scaled_mse_A['folomin_mcp']:.2f}, "
        f"oracle {oblique_summary.mean_scaled_mse_A['oracle']:.2f})",
    )


def test_criterion_5d_promax_undercovers(oblique_summary):
    promax = oblique_summary.mean_coverage_A["promax"]
    folomin = oblique_summary.mean_coverage_A["folomin_mcp"]
    _report(
        "criterion 5d (oblique baseline undercovers)",
        promax < folomin,
        f"promax {promax:.4f} < folomin {folomin:.4f}",
    )


def test_criterion_5_independence_proxy(oblique_summary):
    # standardized errors of entries in different rows are nearly uncorrelated
    reps = oblique_summary.rep_results
    errors = np.stack(
        [
            (r.per_method["folomin_mcp"]["aligned_A"] - r.A_star)
            / r.per_method["folomin_mcp"]["se_A"]
            for r in reps
        ]
    )
    rng = np.random.default_rng(0)
    q, r = DESIGN.q, DESIGN.r
    corrs = []
    for _ in range(200):
        j1, j2 = rng.choice(q, size=2, replace=False)
        l1, l2 = rng.integers(0, r, size=2)
        c = np.corrcoef(errors[:, j1, l1], errors[:, j2, l2])[0, 1]
        corrs.append(abs(c))
    mean_corr = float(np.mean(corrs))
    _report(
        "criterion 5 supplement (cross-row error independence proxy)",
        mean_corr < 0.1,
        f"mean |corr| {mean_corr:.4f} < 0.1 over 200 row pairs",
    )


def test_criterion_6_infeasible_debias(orthogonal_summary):
    cov = orthogonal_summary.mean_coverage_A
    debiased, raw = cov["varimax_debiased"], cov["varimax"]
    _report(
        "criterion 6 (truth-debiased classical rotation restores coverage)",
        0.90 <= debiased <= 0.98 and raw <= debiased - 0.03,
        f"debiased {debiased:.4f} in [0.90, 0.98]; raw {raw:.4f} at least 0.03 lower",
    )


def test_criterion_7_closed_form_inference():
    t0 = time.time()
    rng = np.random.default_rng(5)
    n, q, r = 2000, 60, 3
    U, _, Vt = np.linalg.svd(rng.standard_normal((n, r)), full_matrices=False)
    Z_star = np.sqrt(n) * U @ Vt
    A_star = rng.standard_normal((q, r))
    fam = fm.ResponseFamily.gaussian(1.0)
    Y = fm.sample_response(fam, Z_star @ A_star.T, rng)
    data = fm.ResponseMatrix(Y, fam)
    sandwich_A = fm.oracle_fit_A(data, Z_star).sandwich_A
    target = np.linalg.inv(Z_star.T @ Z_star / n)
    mean_sandwich = np.mean(sandwich_A, axis=0)
    rel = np.linalg.norm(mean_sandwich - target) / np.linalg.norm(target)
    elapsed = time.time() - t0
    _report(
        "criterion 7 (closed-form inference oracle)",
        rel <= 0.05 and elapsed < 5.0,
        f"plug-in sandwich within {100 * rel:.2f}% of closed form (tol 5%) in {elapsed:.2f} s",
    )


def test_criterion_8_invariant_suite(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(8)
    # product preservation and diagonal normalization through init + rotation
    q, r, n = 40, 3, 300
    A_star = np.zeros((q, r))
    for l in range(r):
        A_star[l * 8 : (l + 1) * 8, l] = rng.uniform(1, 2, 8)
    A_noisy = A_star + 0.03 * rng.standard_normal((q, r))
    U, _, Vt = np.linalg.svd(rng.standard_normal((n, r)), full_matrices=False)
    Z_star = np.sqrt(n) * U @ Vt
    R = np.linalg.qr(rng.standard_normal((r, r)))[0]
    start = fm.ParamPair(Z_star @ R, A_noisy @ R)
    theta0 = start.theta()
    init = axes_from_sets(start, candidate_sets(fm.similarity_matrix(start, 0.01), 0.05, r))
    assert np.abs(init.params.theta() - theta0).max() <= 1e-8 * np.abs(theta0).max()
    assert np.abs(np.diag(init.params.gram()) - 1).max() <= 1e-8
    res = fm.lqa_run(init.params, fm.LqaConfig(loss=fm.FoldedLoss.mcp(0.1, 3.0), T=4))
    assert np.abs(res.params.theta() - theta0).max() <= 1e-8 * np.abs(theta0).max()
    assert max(res.trace.gram_residuals) <= 1e-8

    # finite-difference derivative checks for every family
    h = 1e-6
    for fam, y in [
        (fm.ResponseFamily.gaussian(1.0), 1.5),
        (fm.ResponseFamily.bernoulli(), 1.0),
        (fm.ResponseFamily.poisson(), 2.0),
    ]:
        for t in np.linspace(-3, 3, 25):
            fd = (fm.risk(fam, t + h, y) - fm.risk(fam, t - h, y)) / (2 * h)
            d1 = fm.risk_d1(fam, t, y)
            assert abs(d1 - fd) <= 1e-6 * (1 + abs(d1))

    # multiple-testing step-up hand example
    adjusted, rejected = fm.bh_adjust(np.array([0.005, 0.01, 0.03, 0.04]), alpha=0.05)
    assert np.allclose(adjusted, [0.02, 0.02, 0.04, 0.04]) and rejected.all()

    # determinism: identical seeds give byte-identical CSV output
    args = [
        "simulate", "--n", "100", "--q", "80", "--r", "2", "--tau", "0.0",
        "--lambda", "0.4", "--reps", "2", "--seed", "3", "--methods",
        "oracle,folomin_mcp", "--out",
    ]
    assert cli_main(args + [str(tmp_path / "a")]) == 0
    assert cli_main(args + [str(tmp_path / "b")]) == 0
    same = (tmp_path / "a/replications.csv").read_bytes() == (
        tmp_path / "b/replications.csv"
    ).read_bytes()
    assert same
    elapsed = time.time() - t0
    _report(
        "criterion 8 (invariant suite)",
        elapsed < 30.0,
        f"product/normalization, derivatives, step-up example, determinism in {elapsed:.1f} s",
    )
