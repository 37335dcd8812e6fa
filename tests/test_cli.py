import builtins
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from folomin import ResponseFamily, ResponseMatrix, build_report, sample_response
from folomin.cli import _write_csv, _write_json, main
from folomin.erm import ParamPair
from folomin.pipeline import fit_pipeline
from folomin.sim import SimDesign, gen_dataset
from test_inference import _hc0_std_errors


def _write_dataset(path: Path, seed=0, n=120, q=60, r=2):
    design = SimDesign(n=n, q=q, r=r, lambda_signal=0.4, tau=0.0, seed=seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    Z_star, A_star, data = gen_dataset(design, rng)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"item{j}" for j in range(q)])
        for row in data.values:
            writer.writerow([f"{v:.17g}" for v in row])
    return data


def test_simulate_writes_outputs(tmp_path):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--n", "100", "--q", "80", "--r", "2",
            "--tau", "0.0", "--lambda", "0.4",
            "--reps", "2", "--loss", "mcp", "--seed", "7",
            "--methods", "oracle,folomin_mcp",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "replications.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "manifest.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "design",
        "level",
        "n_reps",
        "n_failed",
        "failures",
        "mean_coverage_A",
        "mean_scaled_mse_A",
        "methods",
        "rng",
        "manifest",
    }
    assert summary["n_reps"] == 2
    assert "folomin_mcp" in summary["mean_coverage_A"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert "replications.csv" in manifest["outputs"]


def test_simulate_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--n", "100", "--q", "80", "--tau", "0.0"])
    assert info.value.code == 2
    assert "--r" in capsys.readouterr().err

    code = main(
        ["simulate", "--n", "100", "--q", "80", "--r", "2", "--reps", "0", "--out", str(tmp_path)]
    )
    assert code == 2

    # a level outside (0, 1) would give a nan multiplier and zero coverage
    base = ["simulate", "--n", "100", "--q", "80", "--r", "2", "--reps", "1"]
    code = main(base + ["--level", "1.5", "--out", str(tmp_path / "level")])
    assert code == 2
    assert "usage error: level must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "level" / "summary.json").exists()


@pytest.mark.parametrize(
    "option",
    [
        ["--level", "1.5"],
        ["--methods", "oracle,lasso"],
        ["--methods", "oracle,oracle"],
        ["--r", "1"],
        ["--workers", "0"],
        ["--workers", "-3"],
    ],
    ids=["level", "methods", "repeated-method", "design", "no-workers", "negative-workers"],
)
def test_simulate_usage_error_leaves_no_output_directory(tmp_path, capsys, option):
    out = tmp_path / "never"
    base = ["simulate", "--n", "100", "--q", "80", "--r", "2", "--reps", "1"]
    assert main(base + option + ["--out", str(out)]) == 2
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [None, "a,b\n1.0,x\n"], ids=["missing", "non-numeric"])
def test_fit_data_error_leaves_no_output_directory(tmp_path, capsys, content):
    data_csv = tmp_path / "data.csv"
    if content is not None:
        data_csv.write_text(content)
    out = tmp_path / "never"
    args = ["fit", str(data_csv), "--family", "gaussian", "--r", "2", "--out", str(out)]
    assert main(args) == 3
    assert "data error:" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_determinism(tmp_path):
    args = [
        "simulate", "--n", "100", "--q", "80", "--r", "2", "--tau", "0.0",
        "--lambda", "0.4", "--reps", "2", "--seed", "3",
        "--methods", "oracle", "--out",
    ]
    main(args + [str(tmp_path / "a")])
    main(args + [str(tmp_path / "b")])
    assert (tmp_path / "a/replications.csv").read_bytes() == (
        tmp_path / "b/replications.csv"
    ).read_bytes()
    assert (tmp_path / "a/summary.json").read_bytes() == (
        tmp_path / "b/summary.json"
    ).read_bytes()


def _model_digests(model):
    paths = [model / name for name in ("A.csv", "se_A.csv", "rotation.json")]
    return {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def test_fit_infer_roundtrip(tmp_path):
    data_csv = tmp_path / "data.csv"
    data = _write_dataset(data_csv, seed=1)
    model = tmp_path / "model"
    code = main(
        [
            "fit", str(data_csv),
            "--family", "bernoulli", "--r", "2", "--loss", "mcp",
            "--out", str(model),
        ]
    )
    assert code == 0
    A = np.loadtxt(model / "A.csv", delimiter=",", skiprows=1)
    Z = np.loadtxt(model / "Z.csv", delimiter=",", skiprows=1)
    se = np.loadtxt(model / "se_A.csv", delimiter=",", skiprows=1)
    assert A.shape == se.shape == (60, 2) and Z.shape == (120, 2)
    assert (model / "se_A.csv").read_text().splitlines()[0] == "dim1,dim2"
    meta = json.loads((model / "rotation.json").read_text())
    assert meta["loss"] == "mcp" and meta["r"] == 2
    # fit records the data file's digest in rotation.json and its manifest
    digest = hashlib.sha256(data_csv.read_bytes()).hexdigest()
    assert meta["data_sha256"] == digest
    assert json.loads((model / "manifest.json").read_text())["inputs"] == {str(data_csv): digest}
    # the fit's own sandwich at the final pair is the plug-in one, to rounding
    bernoulli = ResponseMatrix(data.values, ResponseFamily.bernoulli())
    plugin = _hc0_std_errors(bernoulli, ParamPair(Z, A))
    np.testing.assert_allclose(se, plugin, rtol=1e-12, atol=0)

    code = main(["infer", str(model), "--level", "0.95", "--adjust", "bh", "--per-column"])
    assert code == 0
    inference = model / "inference.csv"
    assert inference.exists()
    assert (model / "inference_summary.json").exists()
    assert json.loads((model / "manifest.json").read_text())["inputs"] == _model_digests(model)
    with open(inference) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60 * 2
    assert {"estimate", "std_error", "z", "p", "p_bh", "p_bonferroni", "ci_lower", "ci_upper"} <= set(rows[0])

    # file round-trip reproduces the in-process pipeline exactly
    pipe = fit_pipeline(bernoulli, 2, losses={"mcp": None})
    assert np.array_equal(pipe.params("mcp").A, A)
    report = build_report(A, pipe.std_errors("mcp"), level=0.95, adjust="bh", per_column=True)
    columns = ["estimate", "std_error", "z", "p", "p_bh", "ci_lower", "ci_upper"]
    got = np.array([[float(r[c]) for c in columns] for r in rows])
    expected = np.column_stack(
        [
            A.ravel(),
            report.se_A.ravel(),
            report.z_A.ravel(),
            report.p_A.ravel(),
            report.adjusted_p_A.ravel(),
            report.lower_A.ravel(),
            report.upper_A.ravel(),
        ]
    )
    np.testing.assert_array_equal(got, expected)
    # bonferroni column matches min(1, m p) per column
    p_raw = report.p_A
    bonf = np.minimum(1.0, p_raw * p_raw.shape[0])
    got_bonf = np.array([float(r["p_bonferroni"]) for r in rows]).reshape(p_raw.shape)
    np.testing.assert_allclose(got_bonf, bonf, atol=1e-15)


def test_fit_determinism(tmp_path):
    data_csv = tmp_path / "data.csv"
    _write_dataset(data_csv, seed=2)
    base = ["fit", str(data_csv), "--family", "bernoulli", "--r", "2", "--out"]
    main(base + [str(tmp_path / "m1")])
    main(base + [str(tmp_path / "m2")])
    assert (tmp_path / "m1/A.csv").read_bytes() == (tmp_path / "m2/A.csv").read_bytes()
    assert (tmp_path / "m1/Z.csv").read_bytes() == (tmp_path / "m2/Z.csv").read_bytes()


def test_fit_rejects_bad_data(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,2.0\n3.0\n")
    code = main(["fit", str(bad), "--family", "gaussian", "--r", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "row 3" in err

    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text("a,b\n1.0,x\n")
    code = main(["fit", str(nonnum), "--family", "gaussian", "--r", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "row 2" in err and "column 2" in err

    small = tmp_path / "small.csv"
    small.write_text("a,b\n1.0,0.0\n0.0,1.0\n")
    code = main(["fit", str(small), "--family", "gaussian", "--r", "3"])
    assert code == 2


def test_fit_one_factor(tmp_path):
    # SimDesign needs r >= 2, so the one-factor data are drawn here
    rng = np.random.default_rng(2)
    A = rng.uniform(1, 2, (40, 1)) * np.repeat([1.0, -1.0], 20)[:, None]
    Y = rng.standard_normal((120, 1)) @ A.T + rng.standard_normal((120, 40))
    data_csv = tmp_path / "data.csv"
    header = ",".join(f"item{j}" for j in range(40))
    np.savetxt(data_csv, Y, fmt="%.17g", delimiter=",", header=header, comments="")
    model = tmp_path / "model"
    args = ["fit", str(data_csv), "--family", "gaussian", "--r", "1", "--out", str(model)]
    assert main(args) == 0
    meta = json.loads((model / "rotation.json").read_text())
    assert meta["r"] == 1 and len(meta["selected_sets"]) == 1
    assert main(["infer", str(model), "--out", str(tmp_path / "infer")]) == 0


def test_fit_domain_violation(tmp_path, capsys):
    # the first offending cell in CSV coordinates (the header is row 1, a
    # blank row counts), with its value; with --center, the raw cell, before
    # centering spreads it over its column
    cases = [
        ("bernoulli", "0.0,1.0,2.0\n1.0,0.0,1.0\n0.5,1.0,0.0\n", "row 2, column 3 is 2.0",
         "0 or 1"),
        ("bernoulli", "0,1,1\n\n1,2,0\n", "row 4, column 2 is 2.0", "0 or 1"),
        ("poisson", "0,1,1\n1,0,1.5\n", "row 3, column 3 is 1.5", "a nonnegative integer"),
        ("gaussian", "0,1,1\n1,nan,1\n2,3,4\n", "row 3, column 2 is nan", "a finite number"),
        ("bernoulli", "0,1,1\n1,1,nan\n", "row 3, column 3 is nan", "0 or 1"),
        ("gaussian --center", "0,1,1\n1,1,inf\n2,3,4\n1,nan,0\n", "row 3, column 3 is inf",
         "a finite number"),
    ]
    for family, rows, cell, expected in cases:
        bad = tmp_path / "bad_domain.csv"
        bad.write_text("a,b,c\n" + rows)
        options = ["--family", *family.split(), "--r", "1", "--out", str(tmp_path)]
        assert main(["fit", str(bad), *options]) == 3
        err = capsys.readouterr().err
        kind = family.split()[0]
        assert err == f"data error: {bad}: {kind} response at {cell}, expected {expected}\n"
        assert not (tmp_path / "A.csv").exists()


@pytest.mark.parametrize(
    "option, message",
    [
        (["--r", "0"], "1 <= r <= min(n, q)"),
        (["--r", "61"], "1 <= r <= min(n, q)"),
        (["--r", "2", "--max-iters", "-1"], "max_iters must be nonnegative"),
        (["--r", "2", "--cap", "-1"], "cap M must be strictly positive"),
        (["--r", "2", "--cap", "0"], "cap M must be strictly positive"),
        (["--r", "2", "--tol", "-1"], "tol must be nonnegative"),
        (["--r", "2", "--center"], "--center with --family bernoulli"),
        (["--r", "2", "--family", "poisson", "--center"], "--center with --family poisson"),
    ],
    ids=[
        "r-zero", "r-above-q", "max-iters", "cap-negative", "cap-zero", "tol",
        "center-bernoulli", "center-poisson",
    ],
)
def test_fit_rejects_bad_numeric_options(tmp_path, capsys, option, message):
    data_csv = tmp_path / "data.csv"
    _write_dataset(data_csv)
    code = main(["fit", str(data_csv), "--family", "bernoulli", *option, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err
    assert not (tmp_path / "A.csv").exists()


def test_infer_requires_model(tmp_path):
    code = main(["infer", str(tmp_path / "nothing")])
    assert code == 3


def test_center_flag_gaussian(tmp_path):
    rng = np.random.default_rng(11)
    loadings = np.zeros((10, 2))
    loadings[:5, 0] = rng.uniform(1, 2, 5)
    loadings[5:, 1] = rng.uniform(1, 2, 5)
    scores = rng.standard_normal((50, 2))
    raw = scores @ loadings.T + 0.1 * rng.standard_normal((50, 10)) + 5.0
    data_csv = tmp_path / "g.csv"
    with open(data_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"v{j}" for j in range(10)])
        for row in raw:
            w.writerow([f"{v:.17g}" for v in row])
    model = tmp_path / "model"
    code = main(
        ["fit", str(data_csv), "--family", "gaussian", "--r", "2", "--center", "--out", str(model)]
    )
    assert code == 0
    meta = json.loads((model / "rotation.json").read_text())
    np.testing.assert_allclose(np.asarray(meta["column_means"]), raw.mean(axis=0), atol=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "{out}"],
        ["simulate", "--n", "100", "--q", "80", "--r", "2", "--plots", "--out", "{out}"],
        ["infer", "{out}", "--heatmap"],
        ["fit", "data.csv", "--family", "gaussian", "--r", "2", "--seed", "5", "--out", "{out}"],
        ["infer", "{out}", "--data", "x.csv"],
    ],
    ids=["report", "simulate-plots", "infer-heatmap", "fit-seed", "infer-data"],
)
def test_removed_commands_and_flags_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([a.format(out=out) for a in argv])
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err
    # argparse stops before any output directory is made
    assert not out.exists()


def _fit_model(tmp_path):
    data_csv = tmp_path / "data.csv"
    data = _write_dataset(data_csv, seed=4)
    model = tmp_path / "model"
    code = main(["fit", str(data_csv), "--family", "bernoulli", "--r", "2", "--out", str(model)])
    assert code == 0
    return data_csv, model, data


def test_infer_reports_the_fit_status(tmp_path, capsys):
    _, model, _ = _fit_model(tmp_path)
    assert main(["infer", str(model)]) == 0
    assert json.loads((model / "inference_summary.json").read_text())["fit_status"] == "converged"
    assert capsys.readouterr().err == ""

    # the design of test_inference::test_bernoulli_sandwich_psd, whose fit stalls
    rng = np.random.default_rng(6)
    n, q, r = 300, 40, 2
    U, _, Vt = np.linalg.svd(rng.standard_normal((n, r)), full_matrices=False)
    Z_star = np.sqrt(n) * U @ Vt
    A_star = 0.8 * rng.standard_normal((q, r))
    fam = ResponseFamily.bernoulli()
    Y = sample_response(fam, Z_star @ A_star.T, rng)
    data_csv = tmp_path / "stalls.csv"
    _write_csv(data_csv, [f"item{j}" for j in range(q)], list(Y.T))
    stalled = tmp_path / "stalled"
    with pytest.warns(RuntimeWarning, match="erm_fit stalled"):
        code = main(["fit", str(data_csv), "--family", "bernoulli", "--r", "2", "--out", str(stalled)])
    assert code == 0
    assert json.loads((stalled / "rotation.json").read_text())["fit_status"] == "stalled"
    capsys.readouterr()
    assert main(["infer", str(stalled)]) == 0
    assert json.loads((stalled / "inference_summary.json").read_text())["fit_status"] == "stalled"
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "fit_status is 'stalled'" in err

    # a model written before rotation.json recorded the status
    meta = model / "rotation.json"
    payload = json.loads(meta.read_text())
    del payload["fit_status"]
    meta.write_text(json.dumps(payload))
    assert main(["infer", str(model)]) == 0
    assert json.loads((model / "inference_summary.json").read_text())["fit_status"] is None
    assert "fit_status is None" in capsys.readouterr().err


def _spy_csv_reads(monkeypatch):
    from folomin import cli

    reads = []
    real = cli._read_numeric_csv

    def spy(path, *args):
        reads.append(Path(path))
        return real(path, *args)

    monkeypatch.setattr(cli, "_read_numeric_csv", spy)
    return reads


# se_A.csv is the fit's cached sandwich: infer reads it in place of the data.
def test_infer_reuses_the_data_cache(tmp_path, monkeypatch):
    data_csv, model, _ = _fit_model(tmp_path)
    assert main(["infer", str(model), "--out", str(tmp_path / "before")]) == 0
    data_csv.unlink()
    reads = _spy_csv_reads(monkeypatch)
    assert main(["infer", str(model), "--out", str(tmp_path / "after")]) == 0
    assert reads == [model / "A.csv", model / "se_A.csv"]
    manifest = json.loads((tmp_path / "after" / "manifest.json").read_text())
    assert manifest["inputs"] == _model_digests(model)
    assert (tmp_path / "after" / "inference.csv").read_bytes() == (
        tmp_path / "before" / "inference.csv"
    ).read_bytes()


def test_infer_opens_the_data_cache_once(tmp_path, monkeypatch):
    data_csv, model, _ = _fit_model(tmp_path)
    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        opened.append(Path(file) if isinstance(file, (str, Path)) else None)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    monkeypatch.setattr(io, "open", spy)
    assert main(["infer", str(model), "--out", str(tmp_path / "out")]) == 0
    for name in ("A.csv", "se_A.csv", "rotation.json"):
        assert opened.count(model / name) == 1
    assert data_csv not in opened


def test_infer_ignores_an_edited_data_file(tmp_path):
    data_csv, model, data = _fit_model(tmp_path)
    assert main(["infer", str(model), "--out", str(tmp_path / "before")]) == 0

    values = data.values.copy()
    values[0, 0] = 1.0 - values[0, 0]
    lines = data_csv.read_text().splitlines()
    lines[1] = ",".join(f"{v:.17g}" for v in values[0])
    data_csv.write_text("\n".join(lines) + "\n")

    assert main(["infer", str(model), "--out", str(tmp_path / "edited")]) == 0
    assert (tmp_path / "edited" / "inference.csv").read_bytes() == (
        tmp_path / "before" / "inference.csv"
    ).read_bytes()


def _set_cell(se_csv, value):
    rows = list(csv.reader(se_csv.read_text().splitlines()))
    rows[2][1] = value
    se_csv.write_text("\n".join(map(",".join, rows)) + "\n")


@pytest.mark.parametrize(
    "spoil, message",
    [
        (Path.unlink, "missing model file {se}; run `folomin fit` first"),
        (
            lambda se: se.write_text("\n".join(se.read_text().splitlines()[:-1]) + "\n"),
            "{se}: shape (59, 2) does not match A.csv's (60, 2)",
        ),
        (
            lambda se: _set_cell(se, "nan"),
            "{se}: standard error at row 3, column 2 is not finite and positive: nan",
        ),
        (
            lambda se: _set_cell(se, "0"),
            "{se}: standard error at row 3, column 2 is not finite and positive: 0.0",
        ),
    ],
    ids=["missing", "shape", "nan", "zero"],
)
def test_infer_rejects_a_bad_standard_error_file(tmp_path, capsys, spoil, message):
    _, model, _ = _fit_model(tmp_path)
    se_csv = model / "se_A.csv"
    spoil(se_csv)
    out = tmp_path / "out"
    assert main(["infer", str(model), "--out", str(out)]) == 3
    assert f"data error: {message.format(se=se_csv)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        ("{", "{meta}: not valid JSON: Expecting property name enclosed in double quotes"),
        ("[]", "{meta}: expected a JSON object, got list"),
        ('{"columns": 5}', "{meta}: columns must be a list of 60 strings, one per row of A.csv"),
        (
            '{"columns": ["item0", "item1"]}',
            "{meta}: columns must be a list of 60 strings, one per row of A.csv",
        ),
        (
            '{"columns": %s}' % json.dumps(list(range(60))),
            "{meta}: columns must be a list of 60 strings, one per row of A.csv",
        ),
    ],
    ids=["malformed", "not_an_object", "columns_not_a_list", "columns_too_short", "numbers"],
)
def test_infer_rejects_a_bad_rotation_file(tmp_path, capsys, content, message):
    _, model, _ = _fit_model(tmp_path)
    meta = model / "rotation.json"
    meta.write_text(content + "\n")
    out = tmp_path / "out"
    assert main(["infer", str(model), "--out", str(out)]) == 3
    assert f"data error: {message.format(meta=meta)}" in capsys.readouterr().err
    assert not out.exists()


def test_infer_names_rows_by_position_without_columns(tmp_path):
    _, model, _ = _fit_model(tmp_path)
    meta = model / "rotation.json"
    payload = json.loads(meta.read_text())
    del payload["columns"]
    meta.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["infer", str(model), "--out", str(out)]) == 0
    with open(out / "inference.csv", newline="") as fh:
        items = [row["item"] for row in csv.DictReader(fh)]
    assert items == [f"col{j + 1}" for j in range(60) for _ in range(2)]


@pytest.mark.parametrize("alpha", ["1.5", "0", "1"])
def test_infer_rejects_alpha_outside_the_unit_interval(tmp_path, capsys, alpha):
    _, model, _ = _fit_model(tmp_path)
    out = tmp_path / "alpha"
    assert main(["infer", str(model), "--alpha", alpha, "--out", str(out)]) == 2
    assert "usage error: alpha must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def test_csv_writer_matches_a_per_cell_reference(tmp_path):
    rng = np.random.default_rng(3)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300]
    values = np.concatenate([special, rng.standard_normal(12) * 10.0 ** rng.integers(-20, 20, 12)])
    m = values.size
    items = ["plain", 'say "hi"', "a,b", 'both, "x"', "", "tab\there"] * 4
    columns = [
        np.arange(m),
        items[:m],
        values,
        rng.permutation(values),
        (values > 0).astype(int),
    ]
    header = ["row", "item, name", "estimate", "std_error", "rejected"]
    _write_csv(tmp_path / "fast.csv", header, columns)
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(m):
            writer.writerow([_fmt(column[i]) for column in columns])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    # a float matrix is passed as its columns; 1100 rows span two blocks
    matrix = np.tile(values, 110).reshape(-1, 2)
    _write_csv(tmp_path / "matrix.csv", ["dim1", "dim2"], matrix.T)
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dim1", "dim2"])
        for row in matrix:
            writer.writerow([_fmt(x) for x in row])
    assert (tmp_path / "matrix.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _json_ready(obj):
    """The former JSON preparation: an explicit walk that rounds every
    float through 17 significant digits."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def test_json_writer_matches_the_explicit_walk(tmp_path):
    rng = np.random.default_rng(4)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 0.1]
    payload = {
        "f64": np.float64(0.1) + np.float64(0.2),
        "i64": np.int64(-7),
        "float": 1 / 3,
        "one_d": np.array(special),
        "two_d": rng.standard_normal((3, 2)) * 10.0 ** rng.integers(-300, 300, (3, 2)),
        "ints": np.arange(4),
        "tuple": (np.float64(-0.0), 1, "x", (np.nan, np.int64(3))),
        "nested": {"b": {"inf": -np.inf, "sub": np.float64(5e-324)}, "a": [np.array([[1.0]])]},
        "plain": [True, None, "text"],
    }
    _write_json(tmp_path / "fast.json", payload)
    reference = json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "fast.json").read_bytes() == reference.encode()
    # the walk raised on a 0-d array; the writer gives its scalar
    zero_d = {"x": np.array(-0.0), "y": np.array(5e-324), "z": np.array(7)}
    _write_json(tmp_path / "zero_d.json", zero_d)
    reference = json.dumps(_json_ready({k: v.item() for k, v in zero_d.items()}), indent=2)
    assert (tmp_path / "zero_d.json").read_text() == reference + "\n"
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        _write_json(tmp_path / "bad.json", {"s": {1}})
