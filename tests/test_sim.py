import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from folomin import (
    InsufficientSimpleStructureError,
    ParamPair,
    ResponseFamily,
    SimDesign,
    gen_A,
    gen_Z,
    infeasible_debias_varimax,
    is_sparse,
    promax_rotate,
    run_replications,
    varimax_rotate,
)
from folomin.inference import align
from folomin.sim import SIM_METHODS, gen_dataset
from test_inference import _hc0_std_errors


def test_design_validation():
    with pytest.raises(ValueError):
        SimDesign(n=10, q=10, r=3, lambda_signal=0.2)  # budget < 1
    with pytest.raises(ValueError):
        SimDesign(n=100, q=100, r=3, lambda_signal=0.0)
    with pytest.raises(ValueError):
        SimDesign(n=100, q=100, r=3, tau=1.0)


def test_gen_A_budget_and_domains():
    rng = np.random.default_rng(0)
    design = SimDesign(n=100, q=100, r=5, lambda_signal=0.1, tau=0.0)
    assert design.rows_per_dim == 2
    A = gen_A(design, rng)
    # 10 simple rows, 2 per dimension, in contiguous blocks
    for l in range(5):
        block = A[2 * l : 2 * (l + 1)]
        assert np.all(block[:, l] >= 1.0) and np.all(block[:, l] <= 2.0)
        off = np.delete(block, l, axis=1)
        assert np.all(off == 0.0)
    # every nonzero entry is in [lambda, 2.5] or [1, 2] by magnitude
    mags = np.abs(A[A != 0])
    assert np.all((mags >= 0.1) & (mags <= 2.5))


def test_gen_A_zero_fraction_matches_normal_mass():
    rng = np.random.default_rng(1)
    design = SimDesign(n=100, q=2000, r=5, lambda_signal=0.1, tau=0.0)
    A = gen_A(design, rng)
    tail = A[5 * design.rows_per_dim :]
    frac = (tail == 0.0).mean()
    expected = 2 * ndtr(0.1) - 1  # P(|N(0,1)| < 0.1) = 0.0797
    assert abs(frac - expected) <= 0.02


def test_gen_A_is_sparse():
    rng = np.random.default_rng(2)
    design = SimDesign(n=100, q=200, r=3, lambda_signal=0.5, tau=0.0)
    A = gen_A(design, rng)
    M = np.linalg.norm(A, axis=1).max()
    assert is_sparse(A, lam=0.5, epsilon=1e-6, M=M + 1e-9).ok


def test_gen_Z_gram_constraints():
    rng = np.random.default_rng(3)
    design = SimDesign(n=400, q=100, r=2, lambda_signal=0.2, tau=0.5)
    Z = gen_Z(design, rng)
    gram = Z.T @ Z / design.n
    np.testing.assert_allclose(np.diag(gram), np.ones(2), atol=1e-12)
    assert abs(gram[0, 1]) > 0.2  # correlation survives the rescale
    design0 = SimDesign(n=400, q=100, r=2, lambda_signal=0.2, tau=0.0)
    Z0 = gen_Z(design0, rng)
    np.testing.assert_allclose(Z0.T @ Z0 / design0.n, np.eye(2), atol=1e-12)


def test_sigma_tau_structure():
    # tau^{|l-h|} banded correlation target
    design = SimDesign(n=100_000, q=100, r=3, lambda_signal=0.2, tau=0.5, seed=0)
    rng = np.random.default_rng(4)
    Z = gen_Z(design, rng)
    gram = Z.T @ Z / design.n
    assert gram[0, 1] == pytest.approx(0.5, abs=0.02)
    assert gram[0, 2] == pytest.approx(0.25, abs=0.02)


def test_infeasible_debias_examples():
    rng = np.random.default_rng(5)
    A = np.zeros((30, 3))
    for l in range(3):
        A[l * 10 : (l + 1) * 10, l] = rng.uniform(1, 2, 10)
    # perfectly simple: the rotation offset is numerically zero
    debiased = infeasible_debias_varimax(A, A)
    assert np.abs(debiased - A).max() <= 1e-6
    # an estimate equal to the rotation optimum debiases exactly to the truth
    A_mixed = A.copy()
    A_mixed[29] = np.array([0.5, 0.3, 0.2])
    vres = varimax_rotate(A_mixed)
    _, _, v_aligned = align(vres.A_rot, A_mixed)
    debiased = infeasible_debias_varimax(A_mixed, v_aligned)
    np.testing.assert_allclose(debiased, A_mixed, atol=1e-8)


def _tiny_design(seed=7):
    return SimDesign(n=120, q=90, r=2, lambda_signal=0.4, tau=0.0, seed=seed)


def test_aggregates_are_means_over_rep_results():
    design = _tiny_design()
    summary = run_replications(design, methods=("oracle", "folomin_mcp", "varimax"), n_reps=3)
    reps = summary.rep_results
    assert summary.n_failed == 0 and len(reps) == 3
    for m in summary.methods:
        recs = [res.per_method[m] for res in reps]
        sq_err = np.mean([rec["sq_err_A"] for rec in recs], axis=0)
        cover = np.mean([rec["cover_A"] for rec in recs], axis=0)
        bias = np.mean([rec["aligned_A"] - res.A_star for rec, res in zip(recs, reps)], axis=0)
        np.testing.assert_array_equal(summary.entry_mean_sq_err[m], sq_err)
        np.testing.assert_array_equal(summary.entry_coverage[m], cover)
        np.testing.assert_array_equal(summary.entry_mean_bias[m], bias)
        assert summary.mean_coverage_A[m] == float(np.mean(cover))
        assert summary.mean_scaled_mse_A[m] == float(design.n * np.mean(sq_err))
        # every method records the same per-entry metrics of A, and nothing else
        for rec in recs:
            assert set(rec) == {"aligned_A", "se_A", "sq_err_A", "cover_A"}, m


def test_run_replications_determinism_and_structure():
    design = _tiny_design()
    kwargs = dict(methods=("oracle", "folomin_mcp"), n_reps=2, level=0.9)
    a = run_replications(design, **kwargs)
    b = run_replications(design, **kwargs)
    assert a.n_failed == 0
    np.testing.assert_array_equal(
        a.entry_mean_sq_err["folomin_mcp"], b.entry_mean_sq_err["folomin_mcp"]
    )
    np.testing.assert_array_equal(a.entry_coverage["oracle"], b.entry_coverage["oracle"])
    assert a.mean_coverage_A == b.mean_coverage_A
    # per-replication records carry per-entry metrics for every method
    rec = a.rep_results[0].per_method["folomin_mcp"]
    assert rec["cover_A"].shape == (design.q, design.r)
    assert rec["sq_err_A"].shape == (design.q, design.r)
    assert rec["cover_A"].dtype == bool


def test_run_replications_data_independent_of_methods():
    design = _tiny_design()
    a = run_replications(design, methods=("oracle",), n_reps=2)
    b = run_replications(design, methods=("oracle", "promax"), n_reps=2)
    np.testing.assert_array_equal(
        a.rep_results[0].A_star, b.rep_results[0].A_star
    )
    np.testing.assert_array_equal(
        a.entry_mean_sq_err["oracle"], b.entry_mean_sq_err["oracle"]
    )


def test_run_replications_workers_match_serial():
    design = _tiny_design()
    a = run_replications(design, methods=("oracle",), n_reps=3, workers=1)
    b = run_replications(design, methods=("oracle",), n_reps=3, workers=3)
    np.testing.assert_array_equal(a.entry_coverage["oracle"], b.entry_coverage["oracle"])


def test_run_replications_validation():
    design = _tiny_design()
    with pytest.raises(ValueError):
        run_replications(design, n_reps=0)
    with pytest.raises(ValueError):
        run_replications(design, methods=("oracle", "mystery"), n_reps=1)
    # a repeated name would count its replications twice in every table
    with pytest.raises(ValueError, match="more than once"):
        run_replications(design, methods=("oracle", "oracle"), n_reps=1)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_replications(design, methods=("oracle",), n_reps=1, workers=workers)
    for level in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
            run_replications(design, methods=("oracle",), n_reps=1, level=level)


@pytest.mark.parametrize("workers, n_reps, opened", [(64, 2, 2), (2, 3, 2)])
def test_pool_opens_no_more_workers_than_replications(monkeypatch, workers, n_reps, opened):
    # a forking pool starts all max_workers children at the first submit,
    # so a pool wider than the study forks processes that never get work
    from folomin import sim

    sizes = []

    class RecordingPool:
        # runs the tasks in this process and starts none
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
    summary = run_replications(_tiny_design(), methods=("oracle",), n_reps=n_reps, workers=workers)
    assert sizes == [opened]
    assert summary.n_failed == 0 and len(summary.rep_results) == n_reps


def test_run_replications_rejects_unknown_options():
    # a misspelled option must fail, not be silently ignored
    with pytest.raises(TypeError):
        run_replications(_tiny_design(), n_reps=1, vintage_sed=3)


def test_failures_are_recorded_not_silent(monkeypatch):
    # an initial rotation that finds no simple structure fails every
    # replication; the failures are listed, not dropped
    from folomin import sim

    def failing(*args, **kwargs):
        raise InsufficientSimpleStructureError(found=1, needed=2)

    monkeypatch.setattr(sim, "fit_pipeline", failing)
    design = SimDesign(n=40, q=40, r=2, lambda_signal=0.2, tau=0.0, seed=1)
    assert design.rows_per_dim == 2
    summary = run_replications(design, methods=("folomin_mcp",), n_reps=2, workers=1)
    assert summary.n_failed == 2
    assert len(summary.failures) == 2
    assert all(f.keys() == {"rep", "stage", "error"} for f in summary.failures)
    assert {f["stage"] for f in summary.failures} == {"pipeline"}
    assert summary.mean_coverage_A == {}


@pytest.mark.parametrize("workers", [1, 2])
def test_oracle_failure_names_its_stage(monkeypatch, workers):
    from folomin import sim
    from folomin.exceptions import OracleFitError

    message = "oracle fit of A: rows [0] did not reach gradient tolerance"

    def failing(*args, **kwargs):
        raise OracleFitError(message)

    monkeypatch.setattr(sim, "oracle_fit_A", failing)
    summary = run_replications(
        _tiny_design(), methods=("oracle", "folomin_mcp"), n_reps=2, workers=workers
    )
    error = f"OracleFitError: {message}"
    assert summary.failures == [{"rep": k, "stage": "oracle", "error": error} for k in range(2)]


def test_failures_match_between_serial_and_pooled_runs(monkeypatch):
    # the odd replications fail; with and without workers the same ones
    # fail, in rep order, and the same ones are kept (forked workers
    # inherit the patched module)
    from folomin import sim

    design = _tiny_design()
    streams = np.random.SeedSequence(design.seed).spawn(4)
    odd = {
        gen_dataset(design, np.random.Generator(np.random.Philox(streams[k])))[2].values.tobytes()
        for k in (1, 3)
    }
    fit_pipeline = sim.fit_pipeline

    def failing_on_odd_reps(data, *args, **kwargs):
        if data.values.tobytes() in odd:
            raise InsufficientSimpleStructureError(found=1, needed=2)
        return fit_pipeline(data, *args, **kwargs)

    monkeypatch.setattr(sim, "fit_pipeline", failing_on_odd_reps)
    threads = threading.active_count()
    serial = run_replications(design, methods=("oracle", "folomin_mcp"), n_reps=4, workers=1)
    # the oracle's side thread is joined before the call returns
    assert threading.active_count() == threads
    pooled = run_replications(design, methods=("oracle", "folomin_mcp"), n_reps=4, workers=2)
    assert [f["rep"] for f in serial.failures] == [1, 3]
    assert {f["stage"] for f in serial.failures} == {"pipeline"}
    assert serial.failures == pooled.failures
    assert serial.n_failed == pooled.n_failed == 2
    assert [res.rep for res in serial.rep_results] == [0, 2]
    assert [res.rep for res in pooled.rep_results] == [0, 2]
    for a, b in zip(serial.rep_results, pooled.rep_results):
        assert np.array_equal(a.A_star, b.A_star)
        np.testing.assert_allclose(
            a.per_method["folomin_mcp"]["aligned_A"],
            b.per_method["folomin_mcp"]["aligned_A"],
            rtol=0,
            atol=1e-12,
        )


def test_side_thread_gives_the_same_estimates_as_the_calling_thread(monkeypatch):
    # workers=1 runs each oracle branch on a side thread alongside the
    # pipeline when the process may use more than one CPU, and last, on
    # the calling thread, when it may use one
    from folomin import sim

    methods = ("oracle", "folomin_mcp", "promax")
    on_main_thread = []
    oracle_record = sim._oracle_record

    def recording(*args):
        on_main_thread.append(threading.current_thread() is threading.main_thread())
        return oracle_record(*args)

    monkeypatch.setattr(sim, "_oracle_record", recording)
    runs = {}
    for cpus in (2, 1):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: cpus)
        runs[cpus] = run_replications(_tiny_design(), methods=methods, n_reps=2, workers=1)
    assert on_main_thread == [False, False, True, True]
    threaded, inline = runs[2], runs[1]
    assert threaded.n_failed == inline.n_failed == 0
    for a, b in zip(threaded.rep_results, inline.rep_results, strict=True):
        assert list(a.per_method) == list(b.per_method) == ["folomin_mcp", "oracle", "promax"]
        for m, rec in a.per_method.items():
            for key in ("aligned_A", "se_A", "cover_A"):
                assert np.array_equal(rec[key], b.per_method[m][key]), (m, key)
        assert a.gammas == b.gammas


def test_promax_uses_the_vintage_seed(monkeypatch):
    # promax reuses the replication's varimax, so it runs with the same
    # vintage seed as varimax and varimax_debiased
    from folomin import sim

    fitted = []

    def recording(A, seed=0):
        fitted.append((A, seed))
        return varimax_rotate(A, seed)

    monkeypatch.setattr(sim, "varimax_rotate", recording)
    summary = run_replications(_tiny_design(), methods=("varimax", "promax"), n_reps=1, workers=1)
    assert summary.n_failed == 0 and len(fitted) == 1
    A, seed = fitted[0]
    assert seed == 0
    rep = summary.rep_results[0]
    pres = promax_rotate(A, varimax_rotate(A))
    _, _, expected = align(pres.A_rot, rep.A_star)
    np.testing.assert_array_equal(rep.per_method["promax"]["aligned_A"], expected)


def _recorded_run(monkeypatch, kind):
    """One replication of every method but the oracle at r = 3, with the
    generated data and the pipeline it ran."""
    from folomin import sim

    captured = {}

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            captured[name] = fn(*args, **kwargs)
            return captured[name]

        monkeypatch.setattr(sim, name, wrapped)

    recording("gen_dataset", sim.gen_dataset)
    recording("fit_pipeline", sim.fit_pipeline)
    design = replace(_tiny_design(), r=3, family=ResponseFamily(kind))
    methods = tuple(m for m in SIM_METHODS if m != "oracle")
    summary = run_replications(design, methods=methods, n_reps=1, workers=1)
    assert summary.n_failed == 0
    _, _, data = captured["gen_dataset"]
    return summary.rep_results[0], data, captured["fit_pipeline"]


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_rotated_standard_errors_match_a_fresh_sandwich(monkeypatch, kind):
    # the harness takes every rotated method's covariances from the fit's
    # sandwich stack, through the rotation the pipeline composed (or the
    # vintage one) and the column permutation of the alignment; a fresh
    # sandwich at the aligned pair, which reads neither, must agree
    rep, data, pipe = _recorded_run(monkeypatch, kind)
    theta = pipe.fit.params.theta()
    for m, record in rep.per_method.items():
        # the debiased estimate is recentred; its intervals are varimax's
        A = rep.per_method["varimax" if m == "varimax_debiased" else m]["aligned_A"]
        # the latent scores of the rotation of the fit that has these loadings
        Z = theta @ A @ np.linalg.inv(A.T @ A)
        se = _hc0_std_errors(data, ParamPair(Z, A))
        np.testing.assert_allclose(record["se_A"], se, rtol=1e-8, atol=0, err_msg=m)


def test_folomin_standard_errors_are_the_pipelines_permuted(monkeypatch):
    # alignment flips signs and permutes columns; only the permutation
    # reaches the standard errors, which are the pipeline's own
    rep, _, pipe = _recorded_run(monkeypatch, "bernoulli")
    for name in ("mcp", "scad", "tl1"):
        perm, _, aligned = align(pipe.params(name).A, rep.A_star)
        record = rep.per_method[f"folomin_{name}"]
        assert np.array_equal(record["aligned_A"], aligned)
        assert np.array_equal(record["se_A"], pipe.std_errors(name)[:, perm])
