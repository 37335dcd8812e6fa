"""Run every workload of the benchmark and summarise the runs.

    python3 perfbench/suite.py                      # each workload once, seed 1
    python3 perfbench/suite.py --seeds 1-10 --trace # reference figures

Each run is a separate ``run.py`` process, one after another, over the
workloads and run length that ``BENCHMARK.json`` names. For every
end-to-end metric the summary gives the median over seeds, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median, plus operations attempted and failed. With
``--trace`` it adds one traced run per workload, on the first seed and
right after its untraced run. It prints the per-layer metrics, how much
of the traced operation time they account for, and the tracing overhead:
mean traced minus mean untraced time over the operations both runs made
on the same inputs. Raw results are
written to ``perfbench/work/suite.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    times = next(ln for ln in lines if ln.startswith("operation times (s):"))
    result["op_times"] = [float(t) for t in times.split(":")[1].split()]
    result["failed_checks"] = [ln for ln in lines if ln.startswith("FAIL")]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def summarise(workload: str, runs: list[dict]) -> None:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print(f"\n{workload}: {len(runs)} runs, {attempted} operations attempted, {failed} failed, "
          f"correct={correct}")
    for run in runs:
        for line in run["failed_checks"]:
            print(f"  seed {run['seed']}: {line}")
    names = list(runs[0]["metrics"])
    print(f"  {'metric':14s} {'unit':6s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/med':>8s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        if len(values) >= 2:
            med, q1, q3, share = spread(values)
        else:
            med = q1 = q3 = values[0]
            share = 0.0
        print(f"  {name:14s} {unit:6s} {med:10.4g} {q1:10.4g} {q3:10.4g} {share:8.3f}")


def summarise_trace(workload: str, traced: dict, plain: dict) -> None:
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    units = {k: v["unit"] for k, v in traced["metrics"].items()}
    attributed = sum(m[k] for k in layers.SELF_TIME)
    print(f"\n{workload} traced (seed {traced['seed']}, {traced['attempted']} operations):")
    for name, value in m.items():
        print(f"  {name:34s} {value:12.6g} {units[name]}")
    print(f"  self times sum to {attributed:.4f} s of {m['trace.op_s']:.4f} s per operation; "
          f"unattributed {m['trace.unattributed_s']:.4f} s "
          f"({m['trace.unattributed_s'] / m['trace.op_s']:.2%})")
    common = min(len(traced["op_times"]), len(plain["op_times"]))
    t_mean = statistics.fmean(traced["op_times"][:common])
    p_mean = statistics.fmean(plain["op_times"][:common])
    diff = t_mean - p_mean
    print(f"  tracing overhead over the first {common} operations: "
          f"{diff:+.4f} s per operation ({diff / p_mean:+.2%} of {p_mean:.4f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    raw = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, traced = [], None
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            if args.trace and traced is None:
                # right after the untraced run on the same inputs, so that
                # the machine's drift over the suite does not enter the overhead
                traced = run_once(workload, seed, seconds, 1)
                traced["seed"] = seed
        raw[workload] = {"runs": runs, "traced": traced}
        summarise(workload, runs)
        if traced:
            summarise_trace(workload, traced, runs[0])
    out = HERE / "work"
    out.mkdir(exist_ok=True)
    (out / "suite.json").write_text(json.dumps({"seconds": seconds, "workloads": raw}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
