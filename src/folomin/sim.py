"""Monte Carlo harness: data generation, replication loop, and metrics.

The generating mechanism plants a fixed budget of simple rows (one
contiguous block per dimension, positive entries uniform on [1, 2]) and
fills the remaining entries with magnitude-truncated standard normals:
draws below the signal floor become exact zeros, draws above 2.5 are
capped. Latent scores come from a banded-correlation normal and are
rescaled to unit empirical column variances (fully whitened when the
correlation is zero). Responses are sampled cellwise given the natural
parameters.

Each replication regenerates parameters and data from its own derived
random stream (counter-based Philox keyed by a spawned seed sequence),
fits all requested methods, aligns estimates to the truth, and records
per-entry squared errors and interval coverage. Failures are recorded
and excluded from the aggregates, never silently dropped.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .erm import FitConfig, ParamPair, oracle_fit_A, oracle_fit_Z
from .exceptions import FolominError
from .inference import (
    align,
    align_pair,
    plugin_covariances_A_all,
    plugin_covariances_Z_all,
    row_variances,
)
from .initialization import InitConfig
from .model import ResponseFamily, ResponseMatrix, sample_response
from .pipeline import fit_pipeline, make_loss
from .vintage import VintageConfig, promax_rotate, varimax_rotate

__all__ = [
    "SimDesign",
    "RepResult",
    "SimulationSummary",
    "SIM_METHODS",
    "gen_A",
    "gen_Z",
    "gen_dataset",
    "infeasible_debias_varimax",
    "run_replications",
    "StreamingMoments",
]

SIM_METHODS = (
    "oracle",
    "folomin_mcp",
    "folomin_scad",
    "folomin_tl1",
    "varimax",
    "varimax_debiased",
    "promax",
)

RNG_NAME = "numpy Philox, one spawned SeedSequence stream per replication"


@dataclass(frozen=True)
class SimDesign:
    """Design of one simulation cell."""

    n: int = 500
    q: int = 500
    r: int = 3
    lambda_signal: float = 0.2
    tau: float = 0.5
    family: ResponseFamily = field(default_factory=ResponseFamily.bernoulli)
    simple_fraction: float = 0.1
    seed: int = 0
    randomize_simple_signs: bool = False

    def __post_init__(self):
        if min(self.n, self.q) < self.r or self.r < 2:
            raise ValueError("need n, q >= r >= 2")
        if not self.lambda_signal > 0:
            raise ValueError("lambda_signal must be strictly positive")
        if not 0 <= self.tau < 1:
            raise ValueError("tau must lie in [0, 1)")
        if self.rows_per_dim < 1:
            raise ValueError(
                f"simple-row budget too small: floor({self.simple_fraction} * {self.q} / {self.r}) < 1"
            )

    @property
    def rows_per_dim(self) -> int:
        # floor of (fraction * q) / r, guarded against float representation
        return int(self.simple_fraction * self.q / self.r + 1e-9)


def gen_A(design: SimDesign, rng: np.random.Generator) -> np.ndarray:
    """Draw a sparse representation matrix.

    The first ``r * rows_per_dim`` rows are simple, in contiguous
    per-dimension blocks; every other entry is an exact zero when the
    underlying normal draw falls below the signal floor in magnitude,
    otherwise the draw capped at 2.5 in magnitude.
    """
    q, r, lam = design.q, design.r, design.lambda_signal
    m = design.rows_per_dim
    A = np.zeros((q, r))
    for l in range(r):
        block = slice(l * m, (l + 1) * m)
        values = rng.uniform(1.0, 2.0, size=m)
        if design.randomize_simple_signs:
            values *= rng.choice([-1.0, 1.0], size=m)
        A[block, l] = values
    x = rng.standard_normal((q - r * m, r))
    A[r * m :] = np.sign(x) * np.minimum(np.abs(x), 2.5) * (np.abs(x) >= lam)
    return A


def gen_Z(design: SimDesign, rng: np.random.Generator) -> np.ndarray:
    """Draw latent scores with banded correlation ``tau^|l-h|``.

    Columns are rescaled to unit empirical variances; with ``tau == 0``
    the whole Gram is whitened to the identity.
    """
    n, r, tau = design.n, design.r, design.tau
    idx = np.arange(r)
    sigma = tau ** np.abs(idx[:, None] - idx[None, :])
    Z = rng.multivariate_normal(np.zeros(r), sigma, size=n, method="cholesky")
    if tau == 0:
        U, _, Vt = np.linalg.svd(Z, full_matrices=False)
        return math.sqrt(n) * (U @ Vt)
    scales = np.sqrt((Z**2).mean(axis=0))
    return Z / scales


def gen_dataset(design: SimDesign, rng: np.random.Generator):
    """Draw ``(Z_star, A_star, data)`` for one replication."""
    A_star = gen_A(design, rng)
    Z_star = gen_Z(design, rng)
    Y = sample_response(design.family, Z_star @ A_star.T, rng)
    return Z_star, A_star, ResponseMatrix(Y, design.family)


def infeasible_debias_varimax(
    A_star: np.ndarray, estimate: np.ndarray, seed: int = 0
) -> np.ndarray:
    """Remove the deterministic rotation offset using the known truth.

    The offset is the gap between the truth and its own best varimax
    rotation (aligned back to the truth); subtracting it from an
    estimate centers the estimate on the truth. Only available in
    simulations, where the truth is known.
    """
    vres = varimax_rotate(np.asarray(A_star, dtype=float), VintageConfig(seed=seed))
    _, _, v_aligned = align(vres.A_rot, A_star)
    delta = v_aligned - A_star
    return np.asarray(estimate, dtype=float) - delta


class StreamingMoments:
    """Welford accumulator for elementwise means and variances."""

    def __init__(self):
        self.count = 0
        self._mean = None
        self._m2 = None

    def add(self, x):
        x = np.asarray(x, dtype=float)
        if self._mean is None:
            self._mean = np.zeros_like(x)
            self._m2 = np.zeros_like(x)
        self.count += 1
        delta = x - self._mean
        self._mean = self._mean + delta / self.count
        self._m2 = self._m2 + delta * (x - self._mean)

    @property
    def mean(self):
        return None if self._mean is None else self._mean.copy()

    @property
    def variance(self):
        if self._mean is None or self.count < 2:
            return None
        return self._m2 / (self.count - 1)


@dataclass
class RepResult:
    """Metrics for one replication, keyed by method name.

    Per method: aligned estimate of the representation matrix, per-entry
    standard errors, squared errors, and coverage indicators, plus the
    mean latent-score coverage where computed.
    """

    rep: int
    A_star: np.ndarray
    per_method: dict
    timing: dict
    gammas: dict


@dataclass
class SimulationSummary:
    design: SimDesign
    methods: tuple
    level: float
    n_reps: int
    n_failed: int
    failures: list
    mean_coverage_A: dict
    mean_scaled_mse_A: dict
    mean_coverage_Z: dict
    entry_mean_sq_err: dict
    entry_coverage: dict
    entry_mean_bias: dict
    rep_results: list
    metadata: dict


def _method_metrics(aligned_A, se_A, A_star, level, n, centers=None):
    mult = float(ndtri((1.0 + level) / 2.0))
    centers = aligned_A if centers is None else centers
    err = centers - A_star
    cover = np.abs(err) <= mult * se_A
    return {
        "aligned_A": centers,
        "se_A": se_A,
        "sq_err_A": err**2,
        "cover_A": cover,
    }


def _mean_cover_Z(data, params, Z_star, level) -> float:
    se = np.sqrt(row_variances(plugin_covariances_Z_all(data, params)))
    mult = float(ndtri((1.0 + level) / 2.0))
    return float((np.abs(params.Z - Z_star) <= mult * se).mean())


def _run_one_rep(design: SimDesign, methods, rep: int, seed_seq, level: float, opts: dict):
    rng = np.random.Generator(np.random.Philox(seed_seq))
    t0 = time.perf_counter()
    Z_star, A_star, data = gen_dataset(design, rng)
    M = 1.5 * max(
        np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max()
    )
    timing = {"generate": time.perf_counter() - t0}
    per_method = {}
    gammas = {}

    folomin_methods = [m for m in methods if m.startswith("folomin_")]
    vintage_methods = [m for m in methods if m in ("varimax", "varimax_debiased", "promax")]

    pipe = None
    if folomin_methods or vintage_methods:
        t0 = time.perf_counter()
        lam = design.lambda_signal
        delta = 0.05 * lam * lam
        delta_prime = opts.get("delta_prime")
        init_cfg = None if delta_prime is None else InitConfig(delta=delta, delta_prime=delta_prime)
        losses = {}
        for m in folomin_methods:
            kind = m.split("_", 1)[1]
            gamma = opts.get("gamma")
            losses[kind] = None if gamma is None else make_loss(kind, gamma)
        pipe = fit_pipeline(
            data,
            design.r,
            losses=losses,
            fit_config=FitConfig(M=M, max_iters=opts.get("max_iters", 1000), tol=opts.get("tol", 1e-9)),
            init_config=init_cfg,
            init_delta=delta,
            eta=opts.get("eta", 0.15),
            T=opts.get("T", 5),
            mode=opts.get("mode", "oblique"),
        )
        gammas = dict(pipe.gammas)
        timing["fit"] = time.perf_counter() - t0

    for m in folomin_methods:
        kind = m.split("_", 1)[1]
        t0 = time.perf_counter()
        params = align_pair(pipe.rotations[kind].params, A_star)
        se = np.sqrt(row_variances(plugin_covariances_A_all(data, params)))
        per_method[m] = _method_metrics(params.A, se, A_star, level, design.n)
        per_method[m]["mean_cover_Z"] = _mean_cover_Z(data, params, Z_star, level)
        timing[m] = time.perf_counter() - t0

    if "oracle" in methods:
        t0 = time.perf_counter()
        A_or = oracle_fit_A(data, Z_star)
        params = ParamPair(Z_star, A_or)
        se = np.sqrt(row_variances(plugin_covariances_A_all(data, params)))
        per_method["oracle"] = _method_metrics(A_or, se, A_star, level, design.n)
        Z_or = oracle_fit_Z(data, A_star)
        per_method["oracle"]["mean_cover_Z"] = _mean_cover_Z(
            data, ParamPair(Z_or, A_star), Z_star, level
        )
        timing["oracle"] = time.perf_counter() - t0

    if "varimax" in methods or "varimax_debiased" in methods:
        t0 = time.perf_counter()
        fitted = pipe.fit.params
        vres = varimax_rotate(fitted.A, VintageConfig(seed=opts.get("vintage_seed", 0)))
        params = align_pair(ParamPair(fitted.Z @ vres.G, vres.A_rot), A_star)
        se = np.sqrt(row_variances(plugin_covariances_A_all(data, params)))
        if "varimax" in methods:
            per_method["varimax"] = _method_metrics(params.A, se, A_star, level, design.n)
        if "varimax_debiased" in methods:
            debiased = infeasible_debias_varimax(
                A_star, params.A, seed=opts.get("vintage_seed", 0)
            )
            per_method["varimax_debiased"] = _method_metrics(
                params.A, se, A_star, level, design.n, centers=debiased
            )
        timing["varimax"] = time.perf_counter() - t0

    if "promax" in methods:
        t0 = time.perf_counter()
        fitted = pipe.fit.params
        pres = promax_rotate(fitted.A, power=opts.get("promax_power", 4))
        params = align_pair(ParamPair(fitted.Z @ pres.G.T, pres.A_rot), A_star)
        se = np.sqrt(row_variances(plugin_covariances_A_all(data, params)))
        per_method["promax"] = _method_metrics(params.A, se, A_star, level, design.n)
        timing["promax"] = time.perf_counter() - t0

    return RepResult(rep=rep, A_star=A_star, per_method=per_method, timing=timing, gammas=gammas)


def _rep_task(args):
    return _run_one_rep(*args)


def _limit_worker_blas():
    # one BLAS thread per worker process, otherwise workers contend
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def run_replications(
    design: SimDesign,
    methods=("oracle", "folomin_mcp", "varimax", "varimax_debiased", "promax"),
    n_reps: int = 100,
    level: float = 0.95,
    workers: int | None = None,
    **opts,
) -> SimulationSummary:
    """Run the replication study and aggregate the metrics.

    All randomness derives from ``design.seed`` through one spawned
    stream per replication, so results are independent of the worker
    count and of which methods run. Failed replications are excluded
    from the aggregates and listed in the summary.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    unknown = [m for m in methods if m not in SIM_METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected subset of {SIM_METHODS}")
    if workers is None:
        workers = int(os.environ.get("FOLOMIN_THREADS", "1"))
    workers = max(1, workers)

    seed_seqs = np.random.SeedSequence(design.seed).spawn(n_reps)
    tasks = [(design, tuple(methods), k, seed_seqs[k], level, dict(opts)) for k in range(n_reps)]

    results: list = [None] * n_reps
    failures: list = []
    if workers == 1:
        for k, task in enumerate(tasks):
            try:
                results[k] = _rep_task(task)
            except (FolominError, np.linalg.LinAlgError) as exc:
                failures.append({"rep": k, "error": f"{type(exc).__name__}: {exc}"})
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_limit_worker_blas) as pool:
            futures = {pool.submit(_rep_task, task): k for k, task in enumerate(tasks)}
            for fut, k in futures.items():
                try:
                    results[k] = fut.result()
                except (FolominError, np.linalg.LinAlgError) as exc:
                    failures.append({"rep": k, "error": f"{type(exc).__name__}: {exc}"})
        failures.sort(key=lambda f: f["rep"])

    kept = [res for res in results if res is not None]

    cov_mom = {m: StreamingMoments() for m in methods}
    mse_mom = {m: StreamingMoments() for m in methods}
    bias_mom = {m: StreamingMoments() for m in methods}
    covz = {m: StreamingMoments() for m in methods}
    for res in kept:
        for m in methods:
            if m not in res.per_method:
                continue
            rec = res.per_method[m]
            cov_mom[m].add(rec["cover_A"].astype(float))
            mse_mom[m].add(rec["sq_err_A"])
            bias_mom[m].add(rec["aligned_A"] - res.A_star)
            if "mean_cover_Z" in rec:
                covz[m].add(np.array(rec["mean_cover_Z"]))

    mean_coverage_A = {
        m: float(cov_mom[m].mean.mean()) for m in methods if cov_mom[m].count
    }
    mean_scaled_mse_A = {
        m: float(design.n * mse_mom[m].mean.mean()) for m in methods if mse_mom[m].count
    }
    mean_coverage_Z = {
        m: float(covz[m].mean) for m in methods if covz[m].count
    }
    entry_mean_sq_err = {m: mse_mom[m].mean for m in methods if mse_mom[m].count}
    entry_coverage = {m: cov_mom[m].mean for m in methods if cov_mom[m].count}
    entry_mean_bias = {m: bias_mom[m].mean for m in methods if bias_mom[m].count}

    metadata = {
        "rng": RNG_NAME,
        "seed": design.seed,
        "level": level,
        "n_reps": n_reps,
        "methods": list(methods),
        "workers": workers,
        "opts": {k: v for k, v in opts.items()},
    }
    return SimulationSummary(
        design=design,
        methods=tuple(methods),
        level=level,
        n_reps=n_reps,
        n_failed=len(failures),
        failures=failures,
        mean_coverage_A=mean_coverage_A,
        mean_scaled_mse_A=mean_scaled_mse_A,
        mean_coverage_Z=mean_coverage_Z,
        entry_mean_sq_err=entry_mean_sq_err,
        entry_coverage=entry_coverage,
        entry_mean_bias=entry_mean_bias,
        rep_results=kept,
        metadata=metadata,
    )
