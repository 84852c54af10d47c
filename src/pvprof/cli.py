"""Command-line entry point.

Commands: ``synth`` (generate a ground-truth dataset), ``fit`` (rolling
parameter estimation), ``predict`` (day-ahead power from the dynamic model),
``benchmark`` (full model comparison with studies), ``report`` (SVG charts
from a benchmark report).  Exit codes: 0 success, 2 configuration error,
3 data error, 4 numerical failure.  Every command but ``report`` parses
its whole configuration, ``synth`` included, with ``RunConfig.from_dict``.
"""

import argparse
import math
import os
import sys

from . import charts, fitting, iotools, synth
from .benchmark import RunConfig, run_benchmark
from .exceptions import ConfigError, DataError, NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _load_config(args) -> RunConfig:
    raw = iotools.read_json_object(args.config, ConfigError, "config file")
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.models is not None:
        raw["models"] = [m.strip() for m in args.models.split(",") if m.strip()]
    return RunConfig.from_dict(raw)


def _load_series(cfg: RunConfig, base_dir, verbose):
    if cfg.telemetry_path is None:
        raise ConfigError("configuration has no data.telemetry path")
    # an absolute path is kept as it is: os.path.join drops base_dir
    path = os.path.join(base_dir, cfg.telemetry_path)
    mapping = None
    if cfg.mapping_path:
        mapping = iotools.read_mapping(os.path.join(base_dir,
                                                    cfg.mapping_path))
    series, diagnostics = iotools.read_telemetry_csv(path, mapping)
    if verbose and diagnostics:
        for line_no, msg in diagnostics:
            print(f"{path}:{line_no}: {msg}", file=sys.stderr)
    if verbose:
        print(f"loaded {len(series)} records "
              f"({len(diagnostics)} rejected)", file=sys.stderr)
    return series


def cmd_synth(args):
    cfg = _load_config(args)
    if cfg.synth is None:
        raise ConfigError("configuration has no 'synth' section")
    series, log = synth.generate_dataset(topo=cfg.topology, **cfg.synth)
    os.makedirs(args.out, exist_ok=True)
    iotools.write_telemetry_csv(os.path.join(args.out, "telemetry.csv"), series)
    iotools.write_json(os.path.join(args.out, "ground_truth.json"),
                       log.to_json_dict())
    if args.verbose:
        print(f"wrote {len(series)} records to {args.out}/telemetry.csv",
              file=sys.stderr)
    return EXIT_OK


def cmd_fit(args):
    cfg = _load_config(args)
    if cfg.datasheet is None:
        raise ConfigError("fit needs a datasheet in the configuration")
    series = _load_series(cfg, os.path.dirname(args.config), args.verbose)
    results = fitting.rolling_fit(
        series, cfg.topology, cfg.window_length,
        fitting.update_schedule(series, cfg.window_length, cfg.update_period),
        cfg.datasheet, cfg.preprocess)
    os.makedirs(args.out, exist_ok=True)
    iotools.write_trajectory_csv(os.path.join(args.out, "trajectory.csv"),
                                 results)
    if args.verbose:
        ok = sum(r.converged for r in results)
        print(f"{ok}/{len(results)} windows converged", file=sys.stderr)
    return EXIT_OK


def cmd_predict(args):
    cfg = _load_config(args)
    series = _load_series(cfg, os.path.dirname(args.config), args.verbose)
    pvpro_cfg = RunConfig.from_dict({**cfg.raw, "models": ["pvpro"],
                                     "studies": {}})
    report = run_benchmark(pvpro_cfg, series)
    os.makedirs(args.out, exist_ok=True)
    iotools.write_forecast_csv(os.path.join(args.out, "forecast.csv"),
                               report.forecasts)
    return EXIT_OK


def cmd_benchmark(args):
    cfg = _load_config(args)
    series = _load_series(cfg, os.path.dirname(args.config), args.verbose)
    report = run_benchmark(cfg, series)
    os.makedirs(args.out, exist_ok=True)
    iotools.write_json(os.path.join(args.out, "report.json"),
                       report.to_json_dict())
    iotools.write_forecast_csv(os.path.join(args.out, "forecasts.csv"),
                               report.forecasts)
    iotools.write_trajectory_csv(os.path.join(args.out, "trajectory.csv"),
                                 report.trajectory)
    _write_metric_csvs(args.out, report)
    if args.verbose:
        for name, agg in report.aggregate.items():
            if agg:
                print(f"{name}: nMAE {agg['nmae']:.4%} "
                      f"nRMSE {agg['nrmse']:.4%}", file=sys.stderr)
    return EXIT_OK


def _write_metric_csvs(out_dir, report):
    import csv
    with open(os.path.join(out_dir, "daily_metrics.csv"), "w",
              newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "model", "n_samples", "nmae", "nrmse",
                         "nbe_mean", "skipped"])
        for model, rows in report.daily.items():
            for row in rows:
                if "skipped" in row:
                    writer.writerow([row["day"], model, "", "", "", "",
                                     row["skipped"]])
                else:
                    writer.writerow([
                        row["day"], model, row["n_samples"],
                        iotools.format_float(row["nmae"]),
                        iotools.format_float(row["nrmse"]),
                        iotools.format_float(row["nbe_mean"]), ""])
    with open(os.path.join(out_dir, "aggregate_metrics.csv"), "w",
              newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "n_samples", "nmae", "nrmse", "nbe_mean"])
        for model, agg in report.aggregate.items():
            if agg is None:
                writer.writerow([model, 0, "", "", ""])
            else:
                writer.writerow([model, agg["n_samples"],
                                 iotools.format_float(agg["nmae"]),
                                 iotools.format_float(agg["nrmse"]),
                                 iotools.format_float(agg["nbe_mean"])])


def _field(value, kind, name):
    """``value`` if it is a JSON object (``dict``) or array (``list``)."""
    if not isinstance(value, kind):
        raise DataError(f"report field {name} must be a JSON "
                        f"{'object' if kind is dict else 'array'}")
    return value


def _numbers(value, name, gaps=False):
    """A report's array of finite numbers as floats.  With ``gaps`` a null
    or non-finite entry is allowed and becomes NaN, a gap in the chart."""
    out = []
    for v in _field(value, list, name):
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if not (number or (gaps and v is None)):
            raise DataError(f"report field {name} must hold numbers")
        # False for NaN, infinities and integers beyond the float range
        finite = number and abs(v) <= sys.float_info.max
        if not (finite or gaps):
            raise DataError(f"report field {name} must hold finite numbers")
        out.append(float(v) if finite else math.nan)
    return out


def cmd_report(args):
    report_path = args.report or os.path.join(args.out, "report.json")
    doc = iotools.read_json_object(report_path, DataError, "report")
    os.makedirs(args.out, exist_ok=True)

    daily_nmae = {}
    day_labels = None
    for model, rows in sorted(_field(doc.get("daily", {}), dict,
                                     "daily").items()):
        days, nmae = [], []
        for k, row in enumerate(_field(rows, list, f"daily.{model}")):
            where = f"daily.{model}[{k}]"
            row = _field(row, dict, where)
            if not isinstance(row.get("day"), str):
                raise DataError(f"report field {where}.day must be a string")
            days.append(row["day"])
            nmae.append(row.get("nmae"))  # a skipped day has none: a gap
        if day_labels is None or len(days) > len(day_labels):
            day_labels = days
        daily_nmae[model] = _numbers(nmae, f"daily.{model}[].nmae", gaps=True)
    if daily_nmae:
        svg = charts.line_chart(daily_nmae, "Daily day-ahead nMAE",
                                "nMAE (fraction of nominal)",
                                x_labels=day_labels)
        with open(os.path.join(args.out, "daily_nmae.svg"), "w",
                  encoding="utf-8") as fh:
            fh.write(svg)

    nbe = {}
    for model, agg in sorted(_field(doc.get("aggregate") or {}, dict,
                                    "aggregate").items()):
        if agg and _field(agg, dict, f"aggregate.{model}").get("nbe_series"):
            nbe[model] = _numbers(agg["nbe_series"],
                                  f"aggregate.{model}.nbe_series")
    if nbe:
        svg = charts.histogram(nbe, "Distribution of normalized bias error",
                               "nBE (fraction of nominal)")
        with open(os.path.join(args.out, "nbe_histogram.svg"), "w",
                  encoding="utf-8") as fh:
            fh.write(svg)

    studies = _field(doc.get("studies") or {}, dict, "studies")
    sweep = _field(studies.get("sweep") or {}, dict, "studies.sweep")
    if "error" in sweep:  # a sweep that failed holds only its error
        sweep = {}
    for feature, data in sorted(sweep.items()):
        where = f"studies.sweep.{feature}"
        data = _field(data, dict, where)
        grid = _numbers(data.get("grid"), f"{where}.grid")
        curves = {name: _numbers(curve, f"{where}.curves.{name}", gaps=True)
                  for name, curve in sorted(_field(
                      data.get("curves"), dict, f"{where}.curves").items())}
        if not grid or not curves \
                or any(len(ys) != len(grid) for ys in curves.values()):
            raise DataError(f"report field {where} needs a nonempty grid "
                            f"and curves of the grid's length")
        svg = charts.line_chart(curves, f"Predicted power vs {feature}",
                                "power (W)", x_values=grid)
        with open(os.path.join(args.out, f"sweep_{feature}.svg"), "w",
                  encoding="utf-8") as fh:
            fh.write(svg)
    return EXIT_OK


COMMANDS = {"synth": cmd_synth, "fit": cmd_fit, "predict": cmd_predict,
            "benchmark": cmd_benchmark, "report": cmd_report}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pvprof",
        description="Single-diode PV modeling, day-ahead power conversion "
                    "and forecast benchmarking")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to the JSON run configuration "
                                         "(every command but report)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int,
                        help="override the configured seed")
    parser.add_argument("--models", help="comma-separated roster override")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--report", help="report only: path to report.json "
                                         "(default: <out>/report.json)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # usage errors exit with code 2, as argparse's own do
    if args.config is None and args.command != "report":
        parser.error(f"{args.command} needs --config")
    if args.report is not None and args.command != "report":
        parser.error("only report takes --report")
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
