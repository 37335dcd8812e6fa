"""Where the traced run hooks into folomin, and how its spans become
per-layer metrics.

Each entry wraps the name a *calling* module imported, so a call is seen
exactly where one layer enters another (``folomin.erm.risk`` is the ERM
loop's view of ``model.risk``). Time metrics ending in ``_s`` are self
times (span minus child spans) per operation, except ``cli.fit_s`` and
``cli.infer_s``, which are the commands' whole wall times. Counts are per
operation. ``trace.unattributed_s`` is the part of an operation outside
every wrapped span, so the self times plus it add up to ``trace.op_s``.
"""

from __future__ import annotations

import numpy as np

import checks
from spans import END, NAME, START

SELF_TIME = {
    "model.risk_s": ("model.risk", "model.risk_d1", "model.risk_d2"),
    "model.validate_s": ("model.validate",),
    "erm.fit_s": ("erm.fit",),
    "erm.warm_start_s": ("erm.warm_start",),
    "erm.oracle_s": ("erm.oracle",),
    "pipeline.auto_init_s": ("pipeline.auto_init",),
    "pipeline.suggest_gamma_s": ("pipeline.suggest_gamma",),
    "initialization.similarity_s": ("initialization.similarity",),
    "initialization.axes_s": ("initialization.axes",),
    "criteria.folded_criterion_s": ("criteria.folded_criterion",),
    "lqa.run_s": ("lqa.run",),
    "inference.cov_s": ("inference.cov",),
    "inference.report_s": ("inference.report",),
    "vintage.varimax_s": ("vintage.varimax",),
    "vintage.promax_s": ("vintage.promax",),
    "sim.generate_s": ("sim.generate",),
    "sim.debias_s": ("sim.debias",),
    "cli.self_s": ("cli.fit", "cli.infer"),
}
INCLUSIVE_TIME = {"cli.fit_s": "cli.fit", "cli.infer_s": "cli.infer"}
CALLS = {
    "model.risk_calls": "model.risk",
    "model.risk_d1_calls": "model.risk_d1",
    "model.risk_d2_calls": "model.risk_d2",
    "model.validate_calls": "model.validate",
    "initialization.axes_calls": "initialization.axes",
    "criteria.folded_criterion_calls": "criteria.folded_criterion",
    "pipeline.suggest_gamma_calls": "pipeline.suggest_gamma",
    "inference.cov_calls": "inference.cov",
    "vintage.varimax_calls": "vintage.varimax",
}
COUNTERS = {
    "model.cells": "count/op",
    "erm.fit_iters": "count/op",
    "erm.max_iters_hits": "count/op",
    "lqa.iters": "count/op",
    "inference.cov_rows": "count/op",
    "vintage.varimax_iters": "count/op",
    "cli.bytes_read": "B/op",
    "cli.bytes_written": "B/op",
}
FIT_METRICS = {
    "erm.risk_per_cell": "risk/cell",
    "erm.stationarity_A": "norm",
    "erm.stationarity_Z": "norm",
}
TRACE_METRICS = {
    "trace.op_s": "s/op",
    "trace.unattributed_s": "s/op",
    "trace.spans": "count/op",
    "trace.unwrapped": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s/op" for name in (*SELF_TIME, *INCLUSIVE_TIME)}
    units.update({name: "count/op" for name in CALLS})
    units.update(COUNTERS)
    units.update(FIT_METRICS)
    units.update(TRACE_METRICS)
    return units


def _add(key, measure):
    def hook(tracer, args, kwargs, result, token):
        tracer.counters[key] += measure(result)

    return hook


def _cells(tracer, args, kwargs, result, token):
    tracer.counters["model.cells"] += np.size(result)


def _erm_fit(tracer, args, kwargs, result, token):
    tracer.captured["erm.fit"].append((args[0], result))


def _io_now():
    with open("/proc/self/io") as fh:
        fields = dict(line.split(": ") for line in fh.read().splitlines())
    return int(fields["rchar"]), int(fields["wchar"])


def _io(tracer, args, kwargs, result, token):
    rchar, wchar = _io_now()
    tracer.counters["cli.bytes_read"] += rchar - token[0]
    tracer.counters["cli.bytes_written"] += wchar - token[1]


def install(tracer) -> None:
    from folomin import cli, erm, inference, initialization, lqa, model, pipeline, sim, vintage

    cov = _add("inference.cov_rows", len)
    varimax = _add("vintage.varimax_iters", lambda res: res.n_iters)
    wraps = [
        (erm, "risk", "model.risk", _cells),
        (erm, "risk_d1", "model.risk_d1", _cells),
        (erm, "risk_d2", "model.risk_d2", _cells),
        (inference, "risk_d1", "model.risk_d1", _cells),
        (inference, "risk_d2", "model.risk_d2", _cells),
        (model.ResponseFamily, "validate_responses", "model.validate", None),
        (pipeline, "erm_fit", "erm.fit", _erm_fit),
        (erm, "spectral_warm_start", "erm.warm_start", None),
        (sim, "oracle_fit_A", "erm.oracle", None),
        (sim, "oracle_fit_Z", "erm.oracle", None),
        (pipeline, "auto_init", "pipeline.auto_init", None),
        (pipeline, "suggest_gamma", "pipeline.suggest_gamma", None),
        (pipeline, "similarity_matrix", "initialization.similarity", None),
        (initialization, "axes_from_sets", "initialization.axes", None),
        (pipeline, "folded_criterion", "criteria.folded_criterion", None),
        (lqa, "folded_criterion", "criteria.folded_criterion", None),
        (pipeline, "lqa_run", "lqa.run", _add("lqa.iters", lambda res: len(res.trace.step_norms))),
        (pipeline, "plugin_covariances_A_all", "inference.cov", cov),
        (sim, "plugin_covariances_A_all", "inference.cov", cov),
        (sim, "plugin_covariances_Z_all", "inference.cov", cov),
        (inference, "plugin_covariances_A_all", "inference.cov", cov),
        (inference, "plugin_covariances_Z_all", "inference.cov", cov),
        (cli, "build_report", "inference.report", None),
        (sim, "varimax_rotate", "vintage.varimax", varimax),
        (vintage, "varimax_rotate", "vintage.varimax", varimax),
        (sim, "promax_rotate", "vintage.promax", None),
        (sim, "gen_dataset", "sim.generate", None),
        (sim, "infeasible_debias_varimax", "sim.debias", None),
    ]
    for owner, attr, name, hook in wraps:
        tracer.wrap(owner, attr, name, hook=hook)
    for attr, name in (("cmd_fit", "cli.fit"), ("cmd_infer", "cli.infer")):
        tracer.wrap(cli, attr, name, hook=_io, before=_io_now)


def digest_fits(tracer) -> None:
    """Turn the ERM fits captured during an operation into fit metrics.

    Runs between operations, outside their spans, and drops the captured
    data so memory does not grow with the run.
    """
    for data, result in tracer.captured.pop("erm.fit", []):
        Y, kind = data.values, data.family.kind
        Z, A = result.params.Z, result.params.A
        stat_A, stat_Z = checks.stationarity(kind, Y, Z, A)
        risk = float(checks.cell_risk(kind, Z @ A.T, Y).mean())
        tracer.captured["fit_metrics"].append((risk, stat_A, stat_Z))
        tracer.counters["erm.fit_iters"] += result.trace.n_iters
        tracer.counters["erm.max_iters_hits"] += result.trace.status == "max_iters"


def per_layer_metrics(tracer, n_ops: int) -> dict[str, float]:
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for idx, span in enumerate(tracer.spans):
        by_name.setdefault(span[NAME], []).append(idx)

    def self_total(names):
        return sum(own[i] for name in names for i in by_name.get(name, []))

    def wall_total(name):
        return sum(tracer.spans[i][END] - tracer.spans[i][START] for i in by_name.get(name, []))

    out = {m: self_total(names) / n_ops for m, names in SELF_TIME.items()}
    out.update({m: wall_total(name) / n_ops for m, name in INCLUSIVE_TIME.items()})
    out.update({m: len(by_name.get(name, [])) / n_ops for m, name in CALLS.items()})
    out.update({m: tracer.counters.get(m, 0.0) / n_ops for m in COUNTERS})

    fits = tracer.captured.get("fit_metrics") or [(0.0, 0.0, 0.0)]
    out["erm.risk_per_cell"] = float(np.mean([f[0] for f in fits]))
    out["erm.stationarity_A"] = max(f[1] for f in fits)
    out["erm.stationarity_Z"] = max(f[2] for f in fits)

    ops = by_name.get("op", [])
    out["trace.op_s"] = wall_total("op") / n_ops
    out["trace.unattributed_s"] = sum(own[i] for i in ops) / n_ops
    out["trace.spans"] = (len(tracer.spans) - len(ops)) / n_ops
    out["trace.unwrapped"] = float(len(tracer.missing))
    return out
