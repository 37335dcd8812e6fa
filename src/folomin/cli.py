"""Command-line front end: simulate | fit | infer.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
Every run writes a ``manifest.json`` recording the resolved
configuration, the package version, wall-clock timing, and SHA-256
digests of inputs and outputs; numeric outputs themselves carry no
timestamps, so reruns with the same seed are byte-identical (``infer``
draws no random numbers, and ``fit`` only the spectral warm start's
test matrix, from a fixed seed of its own). Floats are written with
17 significant digits (CSV) or as their shortest ``repr`` (JSON); both
read back as the same doubles. ``simulate --workers N`` runs the
replications in ``N`` worker processes (default one, in this process).

``fit`` writes the standard errors of the rotated representation,
``se_A.csv``, next to ``A.csv``: the fit's own sandwiches under the
rotation. ``infer`` reads those two files and ``rotation.json`` and
never the data, so it works after the data file has moved or changed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import pickle
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .erm import FitConfig
from .exceptions import DataError, DomainError, FolominError, NumericalError
from .inference import adjust_p_values, build_report
from .lqa import LqaConfig
from .model import ResponseFamily, ResponseMatrix
from .pipeline import fit_pipeline, make_loss
from .sim import RNG_NAME, SimDesign, _usable_cpus, run_replications

__all__ = ["main"]

USAGE_EXIT, DATA_EXIT, NUMERICAL_EXIT = 2, 3, 4
MODEL_FILES = ("A.csv", "se_A.csv", "rotation.json")
BLOCK_BYTES = 4 << 20  # the least data a forked parse worker is given


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _column_cells(column) -> list[str]:
    """The CSV cells of one column: a float array is formatted in bulk with
    17 significant digits, which round-trips every double; any other
    column cell by cell with ``str``."""
    if isinstance(column, np.ndarray):
        values = column.tolist()
        if column.dtype.kind == "f":
            return ("%.17g," * len(values) % tuple(values)).split(",")[:-1]
        return list(map(str, values))
    return list(map(str, column))


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length ``columns`` under ``header``, quoted by the
    :mod:`csv` defaults (``\\r\\n`` line ends). Rows are formatted 1024
    at a time, which keeps the formatted cells held at once small."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(columns[0]), 1024):
            block = [column[start : start + 1024] for column in columns]
            writer.writerows(zip(*map(_column_cells, block)))


def _numpy_to_json(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys. numpy arrays
    and scalars are written as their ``tolist()``, and every float,
    ``np.float64`` included, as ``float.__repr__``."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_numpy_to_json)
    path.write_text(text + "\n")


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    inputs: dict[str, str],
    outputs: list[Path],
    t0: float,
):
    """``inputs`` maps each input file's path to its SHA-256 digest."""
    config = {k: v for k, v in config.items() if not callable(v)}
    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
        "rng": RNG_NAME,
        "duration_seconds": time.time() - t0,
        "inputs": inputs,
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    _write_json(out_dir / "manifest.json", manifest)


def _load_rows(fh) -> np.ndarray:
    with warnings.catch_warnings():
        # a header-only file is reported as "no data rows" by the caller
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)


def _parse_block(path: Path, start: int, stop: int | None) -> np.ndarray:
    """The data rows in bytes ``start:stop`` of ``path`` (to its end if None)."""
    with open(path, "rb") as fh:
        fh.seek(start)
        raw = fh if stop is None else io.BytesIO(fh.read(stop - start))
        with io.TextIOWrapper(raw, encoding="utf-8") as text:
            return _load_rows(text)


def _block_cuts(path: Path) -> list[int]:
    """Offsets that split the data rows of ``path`` into blocks of whole
    lines, from the end of the header record to the end of the file;
    empty when the file is parsed in one piece."""
    size = path.stat().st_size
    k = min(_usable_cpus(), math.ceil(size / BLOCK_BYTES))
    if k < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return []
    with open(path, "rb") as fh:
        try:  # only where the header record ends matters here
            next(csv.reader(line.decode("utf-8-sig", "replace") for line in fh))
        except (StopIteration, csv.Error):
            return []  # the serial parse reads or reports it
        start = fh.tell()
        cuts = {start, size}
        for i in range(1, k):
            fh.seek(max(start, size * i // k))
            fh.readline()
            cuts.add(fh.tell())
    return sorted(cuts) if len(cuts) > 2 else []


def _parse_blocks(path: Path, cuts: list[int]) -> np.ndarray | None:
    """The blocks between consecutive ``cuts``, stacked in row order, or
    None if any block fails. The last is parsed here, each other in a
    forked child that pickles it into a pipe, or sends nothing if it fails
    (``EOFError`` here; a child killed mid-write leaves a truncated pickle).
    Every child is reaped before this returns or raises."""
    children = []
    try:
        for start, stop in zip(cuts[:-2], cuts[1:-1]):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:  # with no read end left here, a write fails once the parent is gone
                    os.close(r)
                    for _, fh in children:
                        fh.close()
                    with open(w, "wb") as out:
                        pickle.dump(_parse_block(path, start, stop), out, protocol=5)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        last = _parse_block(path, cuts[-2], None)
        blocks = [pickle.load(fh) for _, fh in children] + [last]
        return np.vstack([b for b in blocks if len(b)] or blocks[-1:])
    except (ValueError, EOFError, pickle.UnpicklingError):
        return None
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)


def _read_numeric_csv(path: Path, raw: bytes | None = None) -> tuple[list[str], np.ndarray]:
    """Read a rectangular numeric UTF-8 CSV with a header row.

    The header is read with :mod:`csv`, less a leading byte-order mark;
    the data rows are parsed by ``np.loadtxt``. Blank lines are skipped,
    cells may be quoted, and numbers follow C syntax (no ``_`` digit
    separators, no ``#`` comments). Errors carry 1-based row/column
    coordinates of the offending cell.

    When this process runs no other thread, a file over ``BLOCK_BYTES``
    is parsed in blocks of whole lines, one per usable CPU and at most one
    per ``BLOCK_BYTES``, all but the last in forked children. If any block
    fails, for a fault or a cut inside a quoted line break, the whole file
    is parsed again in one piece, so the array or the error is always the
    serial parse's.

    ``raw``, when given, is the file's content, already read: it is parsed
    in one piece and ``path`` is opened only to name a bad cell.
    """
    if raw is None:
        _require_file(path)
        cuts = _block_cuts(path)
        fh = open(path, encoding="utf-8-sig")
    else:
        cuts = []
        fh = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig")
    with fh:
        try:
            header = next(csv.reader(fh))
            values = _parse_blocks(path, cuts) if cuts else None
            if values is None:
                values = _load_rows(fh)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except ValueError as exc:  # UnicodeDecodeError is a ValueError
            raise _csv_error(path, str(exc)) from None
    if values.shape[0] == 0 or values.shape[1] != len(header):
        raise _csv_error(path, f"expected {len(header)} columns")
    return header, values


def _require_file(path: Path) -> None:
    if not path.exists():
        raise DataError(f"data file not found: {path}")


def _is_c_float(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` as a float: what ``float``
    accepts, less ``_`` separators and non-ASCII digits."""
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _csv_error(path: Path, detail: str) -> DataError:
    """Error for a CSV that the parse rejected, naming its first bad row
    (a header with a non-UTF-8 cell, or a data row that is ragged or has a
    non-numeric or non-UTF-8 cell) as 1-based coordinates.

    ``detail`` is the message when no row is at fault."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for j, cell in enumerate(header, start=1):
            if any("\udc80" <= ch <= "\udcff" for ch in cell):  # an escaped undecodable byte
                return DataError(f"{path}: non-UTF-8 cell at row 1, column {j}: {cell!r}")
        width, n_rows = len(header), 0
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            n_rows += 1
            if len(row) != width:
                return DataError(f"{path}: ragged row {i} has {len(row)} cells, expected {width}")
            for j, cell in enumerate(row, start=1):
                if not _is_c_float(cell):
                    return DataError(f"{path}: non-numeric cell at row {i}, column {j}: {cell!r}")
    if not n_rows:
        return DataError(f"{path}: no data rows")
    return DataError(f"{path}: {detail}")


def _csv_cell(path: Path, index: tuple[int, int]) -> str:
    """Data cell ``index`` (row and column of the parsed array, 0-based)
    in the coordinates :func:`_csv_error` gives: the header is row 1,
    blank rows are counted, and columns are 1-based."""
    i, j = index
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        records = enumerate(csv.reader(fh), start=1)
        next(records)  # the header
        rows = (k for k, row in records if row)
        return f"row {next(itertools.islice(rows, i, None))}, column {j + 1}"


# --------------------------------------------------------------------- #
# simulate
# --------------------------------------------------------------------- #


def cmd_simulate(args) -> int:
    t0 = time.time()
    if args.reps < 1:
        raise ValueError("--reps must be at least 1")
    out = Path(args.out)
    design = SimDesign(
        n=args.n,
        q=args.q,
        r=args.r,
        lambda_signal=getattr(args, "lambda"),
        tau=args.tau,
        family=ResponseFamily(args.family, args.variance),
        seed=args.seed,
    )
    losses = ["mcp", "scad", "tl1"] if args.loss == "all" else [args.loss]
    if args.methods:
        methods = tuple(args.methods.split(","))
    else:
        methods = ("oracle",) + tuple(f"folomin_{k}" for k in losses) + (
            "varimax",
            "varimax_debiased",
            "promax",
        )
    summary = run_replications(
        design, methods=methods, n_reps=args.reps, level=args.level, workers=args.workers
    )
    # made once the study has validated its design, methods and level
    out.mkdir(parents=True, exist_ok=True)

    methods, metrics, tables = [], [], []
    for method in summary.methods:
        if method not in summary.entry_mean_sq_err:
            continue
        for metric, table in (
            ("mean_sq_err", summary.entry_mean_sq_err[method]),
            ("coverage", summary.entry_coverage[method]),
            ("mean_bias", summary.entry_mean_bias[method]),
        ):
            methods += [method] * table.size
            metrics += [metric] * table.size
            tables.append(table)
    j, l = np.indices((design.q, design.r)).reshape(2, -1)
    rep_csv = out / "replications.csv"
    _write_csv(
        rep_csv,
        ["method", "row", "col", "metric", "value"],
        [
            methods,
            np.tile(j, len(tables)),
            np.tile(l, len(tables)),
            metrics,
            np.array(tables, dtype=float).ravel(),
        ],
    )

    summary_payload = {
        "design": {
            "n": design.n,
            "q": design.q,
            "r": design.r,
            "lambda": design.lambda_signal,
            "tau": design.tau,
            "family": design.family.kind,
            "simple_fraction": design.simple_fraction,
            "seed": design.seed,
        },
        "level": summary.level,
        "n_reps": summary.n_reps,
        "n_failed": summary.n_failed,
        "failures": summary.failures,
        "mean_coverage_A": summary.mean_coverage_A,
        "mean_scaled_mse_A": summary.mean_scaled_mse_A,
        "methods": list(summary.methods),
        "rng": RNG_NAME,
        "manifest": "manifest.json",
    }
    summary_json = out / "summary.json"
    _write_json(summary_json, summary_payload)

    outputs = [rep_csv, summary_json]
    _write_manifest(out, "simulate", vars(args), {}, outputs, t0)
    print(f"wrote {', '.join(p.name for p in outputs)} and manifest.json to {out}")
    return 0


# --------------------------------------------------------------------- #
# fit
# --------------------------------------------------------------------- #


def cmd_fit(args) -> int:
    t0 = time.time()
    data_path = Path(args.data)
    out = Path(args.out)
    if args.center and args.family != "gaussian":
        raise ValueError(
            f"--center with --family {args.family}: centering moves the responses "
            "off the family's support; only gaussian data can be centered"
        )
    family = ResponseFamily(args.family, args.variance)

    header, values = _read_numeric_csv(data_path)
    data_sha256 = _sha256(data_path)

    column_means = np.zeros(values.shape[1])
    try:
        if args.center:
            # checked first, since centering spreads a bad cell over its column
            family.validate_responses(values)
            column_means = values.mean(axis=0)
            values -= column_means  # in place: the fit holds one copy of the data
        data = ResponseMatrix(values, family)
    except DomainError as exc:
        raise DataError(f"{data_path}: {exc.at(_csv_cell(data_path, exc.index))}") from None

    loss = None if args.gamma is None else make_loss(args.loss, args.gamma)
    pipe = fit_pipeline(
        data,
        args.r,
        losses={args.loss: loss},
        fit_config=FitConfig(M=args.cap, max_iters=args.max_iters, tol=args.tol),
        eta=args.eta,
        T=args.lqa_iters,
        mode=args.mode,
    )
    rotation = pipe.rotations[args.loss]
    params = rotation.params
    se_A = pipe.std_errors(args.loss)

    # made only now, so that a data or fit error leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    dims = [f"dim{l + 1}" for l in range(args.r)]
    a_csv, z_csv, se_csv = out / "A.csv", out / "Z.csv", out / "se_A.csv"
    _write_csv(a_csv, dims, params.A.T)
    _write_csv(z_csv, dims, params.Z.T)
    _write_csv(se_csv, dims, se_A.T)
    rotation_payload = {
        "family": args.family,
        "variance": args.variance,
        "r": args.r,
        "loss": args.loss,
        "gamma": pipe.gammas[args.loss],
        "eta": args.eta,
        "lqa_iters": args.lqa_iters,
        "mode": args.mode,
        "center": bool(args.center),
        "column_means": column_means,
        "data": str(data_path),
        "data_sha256": data_sha256,
        "columns": header,
        "initial_rotation": pipe.init.rotation,
        "total_rotation": rotation.G_total,
        "selected_sets": [sorted(s) for s in pipe.init.selected_sets],
        "criterion_trace": rotation.trace.criterion,
        "fit_status": pipe.fit.trace.status,
        "manifest": "manifest.json",
    }
    rotation_json = out / "rotation.json"
    _write_json(rotation_json, rotation_payload)

    outputs = [a_csv, z_csv, se_csv, rotation_json]
    _write_manifest(out, "fit", vars(args), {str(data_path): data_sha256}, outputs, t0)
    print(
        f"fitted {params.q} x {args.r} representation; wrote "
        f"{', '.join(p.name for p in outputs)} to {out}"
    )
    return 0


# --------------------------------------------------------------------- #
# infer
# --------------------------------------------------------------------- #


def _load_model(model_dir: Path):
    """``rotation.json``, the fitted ``A`` and its standard errors of
    ``model_dir``, and the digests of the bytes they were read from, each
    file read once; a standard error must be finite and positive, and a
    ``columns`` entry must name each row of ``A``."""
    raw = {}
    for name in MODEL_FILES:
        if not (model_dir / name).exists():
            raise DataError(f"missing model file {model_dir / name}; run `folomin fit` first")
        raw[name] = (model_dir / name).read_bytes()
    digests = {str(model_dir / name): hashlib.sha256(raw[name]).hexdigest() for name in raw}
    meta_path = model_dir / "rotation.json"
    try:
        meta = json.loads(raw["rotation.json"])
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise DataError(f"{meta_path}: not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path}: expected a JSON object, got {type(meta).__name__}")
    _, A = _read_numeric_csv(model_dir / "A.csv", raw["A.csv"])
    se_csv = model_dir / "se_A.csv"
    _, se_A = _read_numeric_csv(se_csv, raw["se_A.csv"])
    if se_A.shape != A.shape:
        raise DataError(f"{se_csv}: shape {se_A.shape} does not match A.csv's {A.shape}")
    bad = ~(np.isfinite(se_A) & (se_A > 0))
    if bad.any():
        j, l = np.argwhere(bad)[0]
        raise DataError(
            f"{se_csv}: standard error at row {j + 2}, column {l + 1} is not finite "
            f"and positive: {float(se_A[j, l])}"
        )
    columns = meta.get("columns")
    if "columns" in meta and not (
        isinstance(columns, list)
        and len(columns) == len(A)
        and all(isinstance(c, str) for c in columns)
    ):
        raise DataError(
            f"{meta_path}: columns must be a list of {len(A)} strings, one per row of A.csv"
        )
    return meta, A, se_A, digests


def cmd_infer(args) -> int:
    t0 = time.time()
    model_dir = Path(args.model_dir)
    out = Path(args.out) if args.out else model_dir
    meta, A, se_A, inputs = _load_model(model_dir)
    q, r = A.shape

    report = build_report(
        A,
        se_A,
        level=args.level,
        alpha=args.alpha,
        adjust=args.adjust,
        per_column=args.per_column,
    )
    p_bonf, _ = adjust_p_values(report.p_A, args.alpha, "bonferroni", args.per_column)
    out.mkdir(parents=True, exist_ok=True)

    columns = meta.get("columns") or [f"col{j + 1}" for j in range(q)]
    items = [column for column in columns for _ in range(r)]
    j, l = np.indices(A.shape).reshape(2, -1)
    inference_csv = out / "inference.csv"
    _write_csv(
        inference_csv,
        [
            "row",
            "col",
            "item",
            "estimate",
            "std_error",
            "z",
            "p",
            "p_bh" if args.adjust == "bh" else "p_adjusted",
            "p_bonferroni",
            "rejected",
            "ci_lower",
            "ci_upper",
        ],
        [
            j,
            l,
            items,
            A.ravel(),
            report.se_A.ravel(),
            report.z_A.ravel(),
            report.p_A.ravel(),
            report.adjusted_p_A.ravel(),
            p_bonf.ravel(),
            report.rejections_A.ravel().astype(int),
            report.lower_A.ravel(),
            report.upper_A.ravel(),
        ],
    )
    fit_status = meta.get("fit_status")
    summary_payload = {
        "entries_tested": int(q * r),
        "rejected": int(report.rejections_A.sum()),
        "level": args.level,
        "alpha": args.alpha,
        "adjust": args.adjust,
        "per_column": bool(args.per_column),
        "max_abs_z": float(np.abs(report.z_A).max()),
        "fit_status": fit_status,
        "manifest": "manifest.json",
    }
    if fit_status != "converged":
        print(
            f"warning: the model's fit_status is {fit_status!r}, not 'converged'; "
            "its standard errors come from a pair that may not be stationary",
            file=sys.stderr,
        )
    inference_json = out / "inference_summary.json"
    _write_json(inference_json, summary_payload)
    outputs = [inference_csv, inference_json]
    _write_manifest(out, "infer", vars(args), inputs, outputs, t0)
    print(f"wrote {', '.join(p.name for p in outputs)} to {out}")
    return 0


# --------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folomin",
        description="Bias-free sparse representation learning via folded-loss rotation",
    )
    parser.add_argument("--version", action="version", version=f"folomin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the Monte Carlo replication study")
    sim.add_argument("--n", type=int, required=True, help="number of subjects")
    sim.add_argument("--q", type=int, required=True, help="number of response variables")
    sim.add_argument("--r", type=int, required=True, help="latent dimension")
    sim.add_argument("--tau", type=float, default=0.5, help="latent correlation decay")
    sim.add_argument("--lambda", type=float, default=0.2, help="minimum signal magnitude")
    sim.add_argument("--reps", type=int, default=100, help="number of replications")
    sim.add_argument("--loss", choices=["mcp", "scad", "tl1", "all"], default="mcp")
    sim.add_argument("--family", choices=["gaussian", "bernoulli", "poisson"], default="bernoulli")
    sim.add_argument("--variance", type=float, default=1.0, help="gaussian noise variance")
    sim.add_argument("--level", type=float, default=0.95, help="interval confidence level")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--methods", default=None, help="comma-separated subset of methods")
    sim.add_argument("--workers", type=int, default=1, help="worker processes (1: this one)")
    sim.add_argument("--out", default=".", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit and rotate a representation from a CSV")
    fit.add_argument("data", help="CSV file with a header row, subjects in rows")
    fit.add_argument("--family", choices=["gaussian", "bernoulli", "poisson"], required=True)
    fit.add_argument("--variance", type=float, default=1.0)
    fit.add_argument("--r", type=int, required=True, help="latent dimension")
    fit.add_argument("--loss", choices=["mcp", "scad", "tl1"], default="mcp")
    fit.add_argument("--gamma", type=float, default=None, help="folded loss scale (default: data-driven)")
    fit.add_argument("--center", action="store_true", help="subtract column means before fitting")
    fit.add_argument("--cap", type=float, default=None, help="row-norm cap (default: 2x warm start)")
    fit.add_argument("--eta", type=float, default=LqaConfig.eta, help="weight regularizer")
    fit.add_argument("--lqa-iters", type=int, default=LqaConfig.T)
    fit.add_argument("--mode", choices=["oblique", "orthogonal"], default="oblique")
    fit.add_argument(
        "--max-iters", type=int, default=FitConfig.max_iters, help="cap on ERM sweeps"
    )
    fit.add_argument(
        "--tol",
        type=float,
        default=FitConfig.tol,
        help="ERM stopping tolerance: every row's Newton decrement relative to 1 + its risk",
    )
    fit.add_argument("--out", default=".", help="output directory")
    fit.set_defaults(func=cmd_fit)

    inf = sub.add_parser("infer", help="entrywise tests and intervals for a fitted model")
    inf.add_argument("model_dir", help="directory containing A.csv, se_A.csv, rotation.json")
    inf.add_argument("--level", type=float, default=0.95)
    inf.add_argument("--alpha", type=float, default=0.05)
    inf.add_argument("--adjust", choices=["bh", "bonferroni"], default="bh")
    inf.add_argument(
        "--per-column",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="adjust p-values within each latent dimension separately",
    )
    inf.add_argument("--out", default=None, help="output directory (default: model dir)")
    inf.set_defaults(func=cmd_infer)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except FolominError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
