"""Pipeline benchmark for folomin: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports folomin from its ``src/``,
in this one process with one BLAS thread. It makes the workload's inputs
from the seed, runs whole rounds of operations until ``S`` seconds have
passed (at least five operations), then checks the outputs against
independent references. Set-up (imports and input generation) is timed
several times and the medians are reported; see ``import_times``. With
``--trace 1`` it wraps folomin's module boundaries and reports per-layer
metrics instead of the end-to-end ones; spans are written to
``perfbench/work/`` at the end. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
IMPORT_PROBES = 5
MIN_OPS = 5
PROBE = "--probe-imports"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import folomin from this checkout's sources, never from elsewhere."""
    if not (SRC / "folomin" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no folomin sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import folomin

    if Path(folomin.__file__).resolve().parent != SRC / "folomin":
        raise SystemExit(f"run.py: folomin was imported from {folomin.__file__}, not {SRC}")


def import_everything() -> float:
    """Import the program and the benchmark; seconds since this process began."""
    import_program()
    import layers  # noqa: F401
    import spans  # noqa: F401
    import workloads  # noqa: F401

    return time.perf_counter() - PROCESS_T0


def import_times(own: float) -> list[float]:
    """This process's import time plus that of fresh interpreters.

    Imports happen once per process, so the repeats run in short-lived
    child interpreters, one after another, each doing exactly the imports
    above and nothing else.
    """
    times = [own]
    for _ in range(IMPORT_PROBES):
        child = subprocess.run(
            [sys.executable, __file__, PROBE],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(child.stdout))
    return times


def measure(args, work: Path, imports_s: float) -> dict:
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(work)
        setup_times.append(time.perf_counter() - t0)
    imports = import_times(imports_s)
    setup_s = statistics.median(imports) + statistics.median(setup_times)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        layers.install(tracer)

    op_times, failed = [], 0
    start = time.perf_counter()
    k = 0
    while k < MIN_OPS or time.perf_counter() - start < args.seconds or k % wl.round:
        span = contextlib.nullcontext()
        if tracer:
            tracer.op = k
            span = tracer.span("op")
        t0 = time.perf_counter()
        try:
            with span:
                ok = wl.op(k) == 0
        except Exception:
            traceback.print_exc()
            ok = False
        op_times.append(time.perf_counter() - t0)
        failed += not ok
        if tracer:
            tracer.op = None
            layers.digest_fits(tracer)
        wl.after_op(k)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.unwrap_all()
    err_ratio, report = wl.check()

    print(f"{args.workload} seed {args.seed}: {k} operations, {failed} failed")
    print("import times (s): " + " ".join(f"{t:.3f}" for t in imports))
    print("input set-up times (s): " + " ".join(f"{t:.3f}" for t in setup_times))
    print("operation times (s): " + " ".join(f"{t:.3f}" for t in op_times))
    print("\n".join(report.lines))

    if tracer:
        tracer.dump(HERE / "work" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = layers.metric_units()
        values = layers.per_layer_metrics(tracer, k)
        if tracer.missing:
            print("not wrapped (time counted as unattributed): " + ", ".join(tracer.missing))
    else:
        units = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "err_ratio": "ratio"}
        values = {
            "setup_s": setup_s,
            "op_s": statistics.median(op_times),
            "peak_rss_mb": peak_rss_mb,
            "err_ratio": err_ratio,
        }
    for name, unit in units.items():
        print(f"{name:34s} {values[name]:.6g} {unit}")
    return {
        "correct": not report.failures,
        "attempted": k,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == [PROBE]:
        print(import_everything())
        return 0
    args = parse_args(argv)
    imports_s = import_everything()
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work, imports_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
