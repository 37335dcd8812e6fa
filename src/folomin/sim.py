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
with the stage that raised them (``generate``, ``pipeline``, ``oracle``
or ``vintage``) and excluded from the aggregates, never silently
dropped.

A replication's oracle fit reads only its generated data. When the
replications run in the calling process and it may use more than one
CPU, the oracle fits run on one side thread, opened for that call,
while the calling thread runs the pipeline and the vintage rotations;
numpy and a single-threaded BLAS give the same bits on either thread.
Worker processes never start one: the process pool already fills the
cores.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .criteria import polar
from .erm import FitConfig, oracle_fit_A
from .exceptions import FolominError
from .inference import _wald_multiplier, align, rotated_std_errors
from .model import ResponseFamily, ResponseMatrix, sample_response
from .pipeline import fit_pipeline
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
        A[block, l] = rng.uniform(1.0, 2.0, size=m)
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
        return math.sqrt(n) * polar(Z)
    scales = np.sqrt((Z**2).mean(axis=0))
    return Z / scales


def gen_dataset(design: SimDesign, rng: np.random.Generator):
    """Draw ``(Z_star, A_star, data)`` for one replication."""
    A_star = gen_A(design, rng)
    Z_star = gen_Z(design, rng)
    Y = sample_response(design.family, Z_star @ A_star.T, rng)
    return Z_star, A_star, ResponseMatrix(Y, design.family)


def infeasible_debias_varimax(A_star: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """Remove the deterministic rotation offset using the known truth.

    The offset is the gap between the truth and its own best varimax
    rotation (aligned back to the truth), from the varimax starts the
    harness uses; subtracting it from an estimate centers the estimate
    on the truth. Only available in simulations, where the truth is
    known.
    """
    vres = varimax_rotate(np.asarray(A_star, dtype=float), VintageConfig())
    _, _, v_aligned = align(vres.A_rot, A_star)
    delta = v_aligned - A_star
    return np.asarray(estimate, dtype=float) - delta


@dataclass
class RepResult:
    """Metrics for one replication, keyed by method name.

    Per method: aligned estimate of the representation matrix, per-entry
    standard errors, squared errors, and coverage indicators.
    """

    rep: int
    A_star: np.ndarray
    per_method: dict
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
    entry_mean_sq_err: dict
    entry_coverage: dict
    entry_mean_bias: dict
    rep_results: list


def _method_metrics(aligned_A, se_A, A_star, level, centers=None):
    mult = _wald_multiplier(level)
    centers = aligned_A if centers is None else centers
    err = centers - A_star
    cover = np.abs(err) <= mult * se_A
    return {
        "aligned_A": centers,
        "se_A": se_A,
        "sq_err_A": err**2,
        "cover_A": cover,
    }


class _StageFailure(Exception):
    """A replication's failure, tagged with the stage that raised it."""


@contextmanager
def _stage(name: str):
    try:
        yield
    except (FolominError, np.linalg.LinAlgError) as exc:
        raise _StageFailure(name, f"{type(exc).__name__}: {exc}") from exc


def _aligned(A, se, A_star):
    """``A`` aligned to the truth, and the standard errors ``se`` of ``A``
    taken along: a column's sign flip leaves its standard errors as they
    are, so alignment only permutes them."""
    perm, _, aligned = align(A, A_star)
    return aligned, se[:, perm]


def _folomin_records(pipe, methods, A_star, level) -> dict:
    records = {}
    for m in methods:
        name = m.split("_", 1)[1]
        A, se = _aligned(pipe.params(name).A, pipe.std_errors(name), A_star)
        records[m] = _method_metrics(A, se, A_star, level)
    return records


def _oracle_record(data, Z_star, A_star, level) -> dict:
    """The oracle's metrics: ``A`` fitted with the latent scores held at
    the truth.

    Reads the generated data and nothing of the pipeline's, so it can run
    on another thread while the pipeline runs.
    """
    oracle = oracle_fit_A(data, Z_star)
    se = rotated_std_errors(oracle, np.eye(oracle.params.r))
    return _method_metrics(oracle.params.A, se, A_star, level)


def _vintage_records(fit, methods, A_star, level) -> dict:
    # one varimax per replication, shared by varimax and promax
    records = {}
    vres = varimax_rotate(fit.params.A, VintageConfig())

    if "varimax" in methods or "varimax_debiased" in methods:
        # A_rot = A G with G orthogonal: the rotation G' of the fit
        se = rotated_std_errors(fit, vres.G.T)
        A, se = _aligned(vres.A_rot, se, A_star)
        if "varimax" in methods:
            records["varimax"] = _method_metrics(A, se, A_star, level)
        if "varimax_debiased" in methods:
            debiased = infeasible_debias_varimax(A_star, A)
            records["varimax_debiased"] = _method_metrics(A, se, A_star, level, centers=debiased)

    if "promax" in methods:
        pres = promax_rotate(fit.params.A, vres)
        se = rotated_std_errors(fit, pres.G)
        A, se = _aligned(pres.A_rot, se, A_star)
        records["promax"] = _method_metrics(A, se, A_star, level)
    return records


def _run_one_rep(design: SimDesign, methods, rep: int, seed_seq, level: float, side=None):
    """One replication's :class:`RepResult`.

    With an executor ``side``, the oracle branch runs on it while this
    thread runs the pipeline and the vintage rotations; otherwise it runs
    last, on this thread. A failure raises :class:`_StageFailure`; when
    the pipeline or the vintage rotations fail, theirs is the failure
    reported, whatever the oracle did.
    """
    rng = np.random.Generator(np.random.Philox(seed_seq))
    with _stage("generate"):
        Z_star, A_star, data = gen_dataset(design, rng)
    M = 1.5 * max(
        np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max()
    )
    folomin_methods = [m for m in methods if m.startswith("folomin_")]
    vintage_methods = [m for m in methods if m in ("varimax", "varimax_debiased", "promax")]
    rotated, vintage, gammas = {}, {}, {}

    pending = None
    if "oracle" in methods and side is not None:
        pending = side.submit(_oracle_record, data, Z_star, A_star, level)
    try:
        if folomin_methods or vintage_methods:
            with _stage("pipeline"):
                pipe = fit_pipeline(
                    data,
                    design.r,
                    losses={m.split("_", 1)[1]: None for m in folomin_methods},
                    fit_config=FitConfig(M=M),
                    init_delta=0.05 * design.lambda_signal * design.lambda_signal,
                )
                gammas = dict(pipe.gammas)
                rotated = _folomin_records(pipe, folomin_methods, A_star, level)
        if vintage_methods:
            with _stage("vintage"):
                vintage = _vintage_records(pipe.fit, vintage_methods, A_star, level)
    finally:
        if pending is not None:
            pending.exception()  # joined, and its outcome read, even when this thread failed
    per_method = rotated
    if "oracle" in methods:
        with _stage("oracle"):
            per_method["oracle"] = (
                pending.result() if pending else _oracle_record(data, Z_star, A_star, level)
            )
    per_method.update(vintage)
    return RepResult(rep=rep, A_star=A_star, per_method=per_method, gammas=gammas)


def _rep_task(task, side=None):
    """One replication's :class:`RepResult`, or its failure as
    ``{rep, stage, error}``."""
    try:
        return _run_one_rep(*task, side)
    except _StageFailure as exc:
        stage, error = exc.args
        return {"rep": task[2], "stage": stage, "error": error}


def _limit_worker_blas():
    """Give a forked worker process one BLAS thread.

    BLAS libraries read ``OMP_NUM_THREADS`` and ``OPENBLAS_NUM_THREADS``
    once, when they load, and a forked worker inherits the parent's
    loaded library together with its thread count; left alone, the
    workers' BLAS threads contend for the cores. The variables are set
    for libraries the worker loads later, and every OpenBLAS the process
    has mapped is told directly, under its plain names or the
    ``scipy_openblas`` prefix of the build numpy's wheels bundle. Without
    ``/proc/self/maps`` only the variables are set.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in (
            "openblas_set_num_threads",
            "scipy_openblas_set_num_threads",
            "scipy_openblas_set_num_threads64_",
        ):
            if hasattr(lib, name):
                getattr(lib, name)(1)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_replications(
    design: SimDesign,
    methods=("oracle", "folomin_mcp", "varimax", "varimax_debiased", "promax"),
    n_reps: int = 100,
    level: float = 0.95,
    workers: int = 1,
) -> SimulationSummary:
    """Run the replication study and aggregate the metrics.

    All randomness derives from ``design.seed`` through one spawned
    stream per replication, so the data are independent of the worker
    count and of which methods run. Each method name may appear once.

    With ``workers == 1`` the replications run one after another in this
    process; when it may use more than one CPU, each replication's oracle
    fit runs on a side thread, opened for this call and joined before it
    returns, while this thread runs the pipeline. With ``workers > 1``
    a process pool of at most ``n_reps`` workers runs the replications,
    each worker serially and with no side thread. Worker processes run
    one BLAS thread; when the calling process runs more, serial and
    parallel estimates can differ in the last bits. Failed replications
    are excluded from the aggregates and listed in the summary as
    ``{rep, stage, error}``; when the pipeline and the oracle both fail,
    the pipeline's error is the one listed.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    unknown = [m for m in methods if m not in SIM_METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected subset of {SIM_METHODS}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"methods {list(methods)} name a method more than once")
    if workers < 1:
        raise ValueError("workers must be at least 1")

    seed_seqs = np.random.SeedSequence(design.seed).spawn(n_reps)
    tasks = [(design, tuple(methods), k, seed_seqs[k], level) for k in range(n_reps)]

    if workers > 1:
        # each worker runs its replications serially: the pool fills the
        # cores; a forking pool starts every worker at the first submit
        workers = min(workers, n_reps)
        with ProcessPoolExecutor(max_workers=workers, initializer=_limit_worker_blas) as pool:
            results = list(pool.map(_rep_task, tasks))
    elif _usable_cpus() > 1:
        with ThreadPoolExecutor(max_workers=1) as side:
            results = [_rep_task(task, side) for task in tasks]
    else:
        results = list(map(_rep_task, tasks))
    failures = [res for res in results if isinstance(res, dict)]
    kept = [res for res in results if isinstance(res, RepResult)]

    recs = {
        m: [(res.per_method[m], res.A_star) for res in kept if m in res.per_method]
        for m in methods
    }
    recs = {m: found for m, found in recs.items() if found}
    entry_mean_sq_err = {
        m: np.mean([rec["sq_err_A"] for rec, _ in found], axis=0) for m, found in recs.items()
    }
    entry_coverage = {
        m: np.mean([rec["cover_A"] for rec, _ in found], axis=0) for m, found in recs.items()
    }
    entry_mean_bias = {
        m: np.mean([rec["aligned_A"] - A_star for rec, A_star in found], axis=0)
        for m, found in recs.items()
    }
    mean_coverage_A = {m: float(cover.mean()) for m, cover in entry_coverage.items()}
    mean_scaled_mse_A = {m: float(design.n * err.mean()) for m, err in entry_mean_sq_err.items()}
    return SimulationSummary(
        design=design,
        methods=tuple(methods),
        level=level,
        n_reps=n_reps,
        n_failed=len(failures),
        failures=failures,
        mean_coverage_A=mean_coverage_A,
        mean_scaled_mse_A=mean_scaled_mse_A,
        entry_mean_sq_err=entry_mean_sq_err,
        entry_coverage=entry_coverage,
        entry_mean_bias=entry_mean_bias,
        rep_results=kept,
    )
