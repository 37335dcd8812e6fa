"""The benchmark's three workloads.

A workload is built from the run's seed. ``setup()`` makes the inputs
(timed as set-up), ``op(k)`` runs operation ``k`` and returns how many of
its parts failed, ``after_op(k)`` does untimed bookkeeping between
operations, and ``check()`` compares everything the operations produced
with references from ``checks``; it returns ``(err_ratio, report)``.
A run makes whole rounds of ``round`` operations; operation ``k`` works
on the same inputs as operation ``k - round``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from folomin import cli
from folomin.model import ResponseFamily
from folomin.sim import SIM_METHODS, SimDesign, gen_dataset, run_replications


def _stream(seed: int, k: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, k])


class Study:
    """Operation ``k`` is one replication of ``sim.run_replications`` on
    design ``k mod pool`` of a fixed pool of designs drawn from the seed.

    A run makes whole rounds of the pool, so every run times and scores
    the same replications however fast the code is. A replication in a
    later round repeats one of the first round and must give the same
    estimates.
    """

    def __init__(self, seed, design, methods, pool, err_ratio_max, oracle_tol):
        self.seed = seed
        self.design = design
        self.methods = methods
        self.round = pool
        self.err_ratio_max = err_ratio_max
        self.oracle_tol = oracle_tol
        self.designs = []
        self.first = {}
        self.last = None
        self.report = checks.Report()

    def setup(self, work: Path) -> None:
        # the harness draws each replication's data itself, from the design seed
        self.designs = [
            replace(self.design, seed=int(_stream(self.seed, i).generate_state(1)[0]))
            for i in range(self.round)
        ]

    def op(self, k: int) -> int:
        # cleared first, so that after_op never takes an earlier result
        # for this one when run_replications raises
        self.last = None
        self.last = run_replications(
            self.designs[k % self.round], methods=self.methods, n_reps=1, workers=1
        )
        return self.last.n_failed

    def after_op(self, k: int) -> None:
        if self.last is None or not self.last.rep_results:
            return
        rep, i = self.last.rep_results[0], k % self.round
        self.last = None
        if i not in self.first:
            self.first[i] = rep
            return
        first = self.first[i].per_method
        same = first.keys() == rep.per_method.keys() and all(
            np.array_equal(rec["aligned_A"], first[m]["aligned_A"])
            for m, rec in rep.per_method.items()
        )
        self.report.true(f"op {k}: estimates equal those of op {i} on the same design", same)

    def _inputs(self, i: int):
        # the harness draws replication 0 of a design from the first
        # stream spawned by the design seed
        stream = np.random.SeedSequence(self.designs[i].seed).spawn(1)[0]
        return gen_dataset(self.designs[i], np.random.Generator(np.random.Philox(stream)))

    def _oracle_residual(self, Z_star, Y, A_or) -> tuple[str, float]:
        if self.design.family.kind == "gaussian":
            A_ls = np.linalg.lstsq(Z_star, Y, rcond=None)[0].T
            return "relative gap of oracle A to lstsq(Z*, Y)", checks.relative_gap(A_or, A_ls)
        score_A, _ = checks.stationarity("bernoulli", Y, Z_star, A_or)
        return "largest logistic score norm at the oracle rows", score_A

    def check(self):
        report = self.report
        scored = [m for m in ("oracle", "folomin_mcp", "varimax", "promax") if m in self.methods]
        sq_err = {m: [] for m in scored}
        for i, rep in sorted(self.first.items()):
            Z_star, A_star, data = self._inputs(i)
            same = np.array_equal(A_star, rep.A_star)
            if not report.true(f"design {i}: regenerated inputs equal the harness's", same):
                continue
            A_or = rep.per_method["oracle"]["aligned_A"]
            label, value = self._oracle_residual(Z_star, data.values, A_or)
            report.below(f"design {i}: {label}", value, self.oracle_tol)
            for m in scored:
                est = checks.align_to(rep.per_method[m]["aligned_A"], A_star)
                sq_err[m].append(self.design.n * float(((est - A_star) ** 2).mean()))
        if not report.true("at least one replication finished", bool(sq_err["oracle"])):
            return 0.0, report
        mse = {m: float(np.mean(v)) for m, v in sq_err.items()}
        err_ratio = mse["folomin_mcp"] / mse["oracle"]
        report.below("err_ratio (folomin_mcp / oracle scaled error)", err_ratio, self.err_ratio_max)
        for m in ("varimax", "promax"):
            if m in mse:
                ratio = mse["folomin_mcp"] / mse[m]
                report.below(f"folomin_mcp scaled error over {m}'s", ratio, 1.0)
        return err_ratio, report


CLI_OUTPUTS = ("A.csv", "Z.csv", "rotation.json", "inference.csv", "inference_summary.json")


class CliRun:
    """Operation ``k`` is ``folomin fit`` then ``folomin infer``, in-process,
    on one CSV generated from the seed."""

    round = 1

    def __init__(self, seed, design, err_ratio_max):
        self.seed = seed
        self.design = replace(design, seed=seed)
        self.err_ratio_max = err_ratio_max
        self.first_digests = None
        self.report = checks.Report()

    def setup(self, work: Path) -> None:
        rng = np.random.Generator(np.random.Philox(_stream(self.seed, 0)))
        self.Z_star, self.A_star, data = gen_dataset(self.design, rng)
        self.Y = data.values
        self.csv = work / "data.csv"
        self.model = work / "model"
        with open(self.csv, "w") as fh:
            fh.write(",".join(f"item{j + 1}" for j in range(self.design.q)) + "\n")
            for row in self.Y.tolist():
                # repr is the shortest string that reads back as the same double
                fh.write(",".join(map(repr, row)) + "\n")

    def op(self, k: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            fit = cli.main(
                ["fit", str(self.csv), "--family", "gaussian", "--r", str(self.design.r),
                 "--out", str(self.model)]
            )
            if fit != 0:
                return 1
            return int(cli.main(["infer", str(self.model)]) != 0)

    def after_op(self, k: int) -> None:
        digests = {}
        for name in CLI_OUTPUTS:
            path = self.model / name
            exists = path.exists()
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if exists else None
        if self.first_digests is None:
            self.first_digests = digests
        else:
            self.report.true(f"op {k}: outputs byte-identical to the first fit+infer",
                             digests == self.first_digests)

    def check(self):
        report = self.report
        written = self.first_digests is not None and None not in self.first_digests.values()
        if not report.true("fit+infer wrote every output", written):
            return 0.0, report
        n, r = self.design.n, self.design.r
        A = np.loadtxt(self.model / "A.csv", delimiter=",", skiprows=1, ndmin=2)
        Z = np.loadtxt(self.model / "Z.csv", delimiter=",", skiprows=1, ndmin=2)

        gap = checks.relative_gap(Z @ A.T, checks.truncated_svd(self.Y, r))
        report.below(f"relative gap of Z A' to the rank-{r} truncated SVD of Y", gap, 1e-6)
        diag = float(np.abs(np.diag(Z.T @ Z / n) - 1.0).max())
        report.below("largest |diag(Z'Z/n) - 1|", diag, 1e-8)

        table = np.genfromtxt(
            self.model / "inference.csv", delimiter=",", names=True, dtype=None, encoding="utf-8"
        )
        table = table[np.lexsort((table["col"], table["row"]))]
        est = table["estimate"].reshape(A.shape)
        se = table["std_error"].reshape(A.shape)
        report.true("inference.csv estimates equal A.csv", np.array_equal(est, A))
        se_gap = float(np.abs(se / checks.hc0_std_errors(Z, A, self.Y) - 1.0).max())
        report.below("largest relative gap of std_error to the HC0 sandwich", se_gap, 1e-8)
        p, p_adj, p_bonf = table["p"], table["p_bh"], table["p_bonferroni"]
        in_unit = all(np.all((x >= 0) & (x <= 1)) for x in (p, p_adj, p_bonf))
        report.true("p-values lie in [0, 1]", in_unit)
        report.true("adjusted p-values are at least the raw ones",
                    np.all(p_adj >= p) and np.all(p_bonf >= p))
        inside = (table["ci_lower"] < table["estimate"]) & (table["estimate"] < table["ci_upper"])
        report.true("ci_lower < estimate < ci_upper", np.all(inside))

        A_oracle = np.linalg.lstsq(self.Z_star, self.Y, rcond=None)[0].T
        err = float(((checks.align_to(A, self.A_star) - self.A_star) ** 2).mean())
        err_ratio = err / float(((A_oracle - self.A_star) ** 2).mean())
        report.below("err_ratio (A.csv / least squares given Z* error)", err_ratio,
                     self.err_ratio_max)
        return err_ratio, report


GAUSSIAN = ResponseFamily.gaussian()

WORKLOADS = {
    # the acceptance gate's criterion-5 study; time goes to the ERM loop
    # and the bernoulli risk kernels. A replication takes 4-8 s depending
    # on its data, so the pool's median moves with the seed; with eight,
    # the op_s spread over ten seeds was 0.07-0.12 (0.18 over five). Single replications range from 1.13 to 1.69 in
    # err_ratio, so the mean over the pool cannot reach the limit unless
    # one replication falls well outside that range; the acceptance gate
    # holds the 100-replication mean to 1.3.
    "bernoulli_study": lambda seed: Study(
        seed,
        SimDesign(n=500, q=500, r=3, tau=0.5, lambda_signal=0.2),
        ("oracle", "folomin_mcp", "promax"),
        pool=8,
        err_ratio_max=2.0,
        oracle_tol=1e-7,
    ),
    # the spectral start is already the gaussian ERM optimum, so time goes
    # to varimax/promax, the oracle fits and three folded rotations; r=3
    # because at r=5 varimax needs 500-900 ascent steps per restart on some
    # draws, so one replication takes 2-16 s and a run's median swings.
    # At r=3 a replication mostly takes 1.1-2.0 s, with rare slow draws
    # of up to 10 s that the median of twelve absorbs.
    "gaussian_study": lambda seed: Study(
        seed,
        SimDesign(n=500, q=500, r=3, tau=0.0, lambda_signal=0.2, family=GAUSSIAN),
        SIM_METHODS,
        pool=12,
        err_ratio_max=1.25,
        oracle_tol=1e-8,
    ),
    # the analyst's path: one large matrix through CSV parsing, the full
    # spectral SVD, the q x q similarity matrix and 2000 latent-row sandwiches
    "gaussian_cli": lambda seed: CliRun(
        seed,
        SimDesign(n=2000, q=1000, r=5, tau=0.5, lambda_signal=0.2, family=GAUSSIAN),
        err_ratio_max=1.25,
    ),
}
