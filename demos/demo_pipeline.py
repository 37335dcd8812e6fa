"""Full estimation pipeline on one synthetic binary dataset.

Generates sparse loadings and correlated latent scores, samples binary
responses, then walks the three stages: constrained fit, simple-row
initial rotation, folded-loss refinement. Compares the result to the
oracle fit (latent scores known) and prints the interval coverage of
both: by the oracle property they should be close.
"""

import numpy as np

from folomin import align, build_report, oracle_fit_A, rotated_std_errors
from folomin.erm import FitConfig
from folomin.pipeline import fit_pipeline
from folomin.sim import SimDesign, gen_dataset

design = SimDesign(n=400, q=300, r=3, lambda_signal=0.3, tau=0.5, seed=5)
rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(design.seed)))
Z_star, A_star, data = gen_dataset(design, rng)
print(f"data: {design.n} subjects x {design.q} binary items, {design.r} latent dimensions")

M = 1.5 * max(np.linalg.norm(A_star, axis=1).max(), np.linalg.norm(Z_star, axis=1).max())
pipe = fit_pipeline(data, design.r, losses={"mcp": None}, fit_config=FitConfig(M=M))
print(f"constrained fit: {pipe.fit.trace.n_iters} iterations, status {pipe.fit.trace.status}")
print(f"initial rotation: selected cluster sizes {[len(s) for s in pipe.init.selected_sets]}")
print(f"chosen loss scale: gamma = {pipe.gammas['mcp']:.4f}")

perm, _, A_hat = align(pipe.params("mcp").A, A_star)
oracle = oracle_fit_A(data, Z_star)
A_or = oracle.params.A

rms = np.sqrt(((A_hat - A_star) ** 2).mean())
rms_or = np.sqrt(((A_or - A_star) ** 2).mean())
print(f"\nper-entry RMS error:  rotated fit {rms:.4f}   oracle {rms_or:.4f}")

# alignment permutes and flips the columns of A; a sign flip leaves a
# standard error as it is, so the standard errors are only permuted
se = pipe.std_errors("mcp")[:, perm]
report = build_report(A_hat, se, level=0.95)
covered = (report.lower_A <= A_star) & (A_star <= report.upper_A)
# the oracle's own pair needs no rotation: its standard errors are read
# through the identity
report_or = build_report(A_or, rotated_std_errors(oracle, np.eye(design.r)), level=0.95)
covered_or = (report_or.lower_A <= A_star) & (A_star <= report_or.upper_A)
print(
    f"95% interval coverage of the truth: rotated fit {covered.mean():.3f}   "
    f"oracle {covered_or.mean():.3f}"
)
n_sig = int(report.rejections_A.sum())
true_nonzero = int((A_star != 0).sum())
print(f"entries flagged nonzero after step-up adjustment: {n_sig} (truth has {true_nonzero})")
