"""Day-ahead benchmark of pvprof.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``.  One
process runs one workload as a closed loop, one operation at a time: an
operation is one ``pvprof benchmark`` call through ``pvprof.cli.main`` on
telemetry that ``pvprof synth --seed N`` generated before timing starts.
Operations repeat until ``--seconds`` is spent, and every operation's
outputs are checked.

``--trace 0`` reports the end-to-end metrics of untraced operations, with
times scaled to reference machine speed (see ``reference.py``).
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (see ``tracer.py``).  The last line of
standard output is one JSON object with the result.
"""

import os

# pinned before numpy loads: the benchmark is single-threaded by design
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import EXPECTED_CALLS, REFERENCE_KERNEL, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")

# set-up and reference-kernel samples taken before each operation, spread
# over the run so that a short burst of contention cannot move their median
SETUPS_PER_OP = 5
REFERENCES_PER_OP = 3
# the model a workload is built around, whose accuracy it guards
PRIMARY_MODEL = {"dayahead_rolling": "pvpro", "roster_studies": "pvpro",
                 "regressor_grid": "kr"}
TRAINED_MODELS = ("pvpro", "nominal", "lr", "kr")

END_TO_END = {
    "wall_s": "s",
    "forecasts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "completed_share": "fraction",
    "nmae.primary": "fraction",
    "nmae.roster_mean": "fraction",
}


class BenchmarkFailure(RuntimeError):
    """The benchmark itself cannot run (not a failed operation)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "threads_env": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def os_threads():
    """Threads of this process, counted by the OS (None if unknown)."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def eval_days(cfg):
    start = np.datetime64(cfg["evaluation"]["start"], "D")
    first = np.datetime64(cfg["synth"]["start_day"], "D")
    return cfg["synth"]["days"] - int((start - first).astype(int))


def output_digest(out_dir):
    """Parsed report plus a hash of the bytes of report.json, without its
    creation time, and of forecasts.csv."""
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        raw = fh.read()
    report = json.loads(raw)
    created = report["provenance"]["created_utc"].encode()
    h = hashlib.sha256(raw.replace(created, b""))
    with open(os.path.join(out_dir, "forecasts.csv"), "rb") as fh:
        h.update(fh.read())
    return report, h.hexdigest()


def check_report(report, cfg, n_days):
    """Problems with one operation's report; empty when it is correct."""
    problems = []
    agg = report.get("aggregate") or {}
    for model in cfg["models"]:
        a = agg.get(model)
        if not a:
            problems.append(f"{model}: no aggregate metrics")
            continue
        nmae, nrmse = a.get("nmae"), a.get("nrmse")
        if not (isinstance(nmae, float) and math.isfinite(nmae)):
            problems.append(f"{model}: nMAE {nmae!r} is not finite")
        elif not (isinstance(nrmse, float) and nrmse >= nmae):
            problems.append(f"{model}: nRMSE {nrmse!r} < nMAE {nmae!r}")
        rows = report["daily"].get(model, [])
        if len(rows) != n_days:
            problems.append(f"{model}: {len(rows)} daily rows, want {n_days}")
    if "pvpro" in cfg["models"] and "nominal" in cfg["models"] \
            and not problems and agg["pvpro"]["nmae"] >= agg["nominal"]["nmae"]:
        problems.append("pvpro nMAE is not below nominal under the fault")
    return problems


class Runner:
    """Generates inputs for, runs and checks operations of one workload.

    Dataset ``k`` is the telemetry ``pvprof synth`` makes from seed
    ``1000 * seed + k``; it is generated before the operations on it and
    outside their timing.
    """

    def __init__(self, name, cfg, seed, work):
        from pvprof import cli
        self.main = cli.main
        self.name = name
        self.cfg = cfg
        self.seed = seed
        self.work = work
        self.n_days = eval_days(cfg)
        self.cells_per_op = self.n_days * len(cfg["models"])
        self.ops = []           # dicts: id, traced, wall, ok, cells_done, ...
        self.digests = {}       # dataset -> digest of its first outputs
        self.problems = []
        self.raw = {}           # unscaled medians and the speed factor
        self.nmae = {}          # dataset -> per-model aggregate nMAE

    def config_path(self, k):
        return os.path.join(self.work, f"d{k}", "config.json")

    def dataset(self, k, tracer=None):
        """Generate dataset ``k`` unless it exists; return its directory."""
        d = os.path.join(self.work, f"d{k}")
        if os.path.isdir(d):
            return d
        os.makedirs(d)
        with open(self.config_path(k), "w", encoding="utf-8") as fh:
            json.dump(self.cfg, fh, indent=1)
        argv = ["synth", "--config", self.config_path(k), "--out", d,
                "--seed", str(1000 * self.seed + k)]
        if tracer is None:
            code = self.main(argv)
        else:
            code = tracer.run(f"synth{k}", self.main, argv)
        if code != 0:
            raise BenchmarkFailure(f"pvprof synth exited with {code}")
        return d

    def operation(self, k, tracer=None):
        """One ``pvprof benchmark`` call on dataset ``k``, timed and checked."""
        op = {"id": f"op{len(self.ops)}", "traced": tracer is not None,
              "ok": False, "cells_done": 0}
        out = os.path.join(self.work, op["id"])
        argv = ["benchmark", "--config", self.config_path(k), "--out", out]
        start = perf_counter()
        try:
            if tracer is None:
                code = self.main(argv)
            else:
                code = tracer.run(op["id"], self.main, argv)
        except Exception:  # an operation that raises is a failed operation
            code = None
            self.problems.append(f"{op['id']}: raised\n"
                                 + traceback.format_exc())
        op["wall"] = perf_counter() - start
        if code == 0:
            report, digest = output_digest(out)
            found = check_report(report, self.cfg, self.n_days)
            if self.digests.setdefault(k, digest) != digest:
                found.append(f"outputs differ from the first operation "
                             f"on dataset {k}")
            if found:
                self.problems += [f"{op['id']}: {p}" for p in found]
            else:
                op["ok"] = True
                op["cells_done"] = sum(
                    1 for rows in report["daily"].values()
                    for row in rows if "skipped" not in row)
                op.update(accuracy(report, self.name, self.cfg["models"]))
                self.nmae.setdefault(k, {m: a["nmae"] for m, a in
                                         report["aggregate"].items()})
        elif code is not None:
            self.problems.append(f"{op['id']}: exit code {code}")
        shutil.rmtree(out, ignore_errors=True)
        self.ops.append(op)
        return op


def setup_once(cfg_path, csv_path):
    """Time the per-invocation set-up: config parse, CSV read, validate."""
    from pvprof import iotools
    from pvprof.benchmark import RunConfig
    start = perf_counter()
    RunConfig.from_dict(iotools.read_json(cfg_path))
    series, _ = iotools.read_telemetry_csv(csv_path)
    series.validate()
    return perf_counter() - start


def accuracy(report, workload, models):
    agg = report["aggregate"]
    trained = [agg[m]["nmae"] for m in models if m in TRAINED_MODELS]
    return {"nmae.primary": agg[PRIMARY_MODEL[workload]]["nmae"],
            "nmae.roster_mean": statistics.fmean(trained)}


def run_untraced(runner, seconds):
    """Each operation on a fresh dataset, then dataset 0 once more.

    Spreading the operations over datasets makes the run's medians pool the
    seed-to-seed variation in fit work, not just machine noise; the final
    repeat checks that outputs are byte-identical across repetitions.

    Times are reported at reference speed (see ``reference.py``): the raw
    medians, which the ``info:`` line also gives, divided by ``speed``, the
    median reference-kernel time over its nominal time.  Operation times use
    the workload's kernel and set-up times the CSV-parsing kernel.
    """
    kernels = {"op": reference.KERNELS[REFERENCE_KERNEL[runner.name]],
               "setup": reference.KERNELS["csv"]}
    refs = {name: [] for name in kernels}
    setups = []

    def sample_references():
        for name, (kernel, _) in kernels.items():
            refs[name] += [kernel() for _ in range(REFERENCES_PER_OP)]

    start = perf_counter()
    k = 0
    while True:
        d = runner.dataset(k)
        sample_references()
        setups += [setup_once(runner.config_path(k),
                              os.path.join(d, "telemetry.csv"))
                   for _ in range(SETUPS_PER_OP)]
        runner.operation(k)
        if k > 0:
            shutil.rmtree(d)
        k += 1
        typical = statistics.median(op["wall"] for op in runner.ops)
        if perf_counter() - start + 2 * typical > seconds:
            break
    runner.operation(0)
    sample_references()
    ops = runner.ops
    good = [op for op in ops if op["ok"]]
    speed = {name: statistics.median(refs[name]) / nominal
             for name, (_, nominal) in kernels.items()}
    runner.raw = {"speed": speed,
                  "wall_s": statistics.median(op["wall"] for op in ops),
                  "forecasts_per_s": statistics.median(
                      op["cells_done"] / op["wall"] for op in ops),
                  "setup_s": statistics.median(setups)}
    metrics = {
        "wall_s": runner.raw["wall_s"] / speed["op"],
        "forecasts_per_s": runner.raw["forecasts_per_s"] * speed["op"],
        "setup_s": runner.raw["setup_s"] / speed["setup"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "completed_share": (sum(op["cells_done"] for op in ops)
                            / (runner.cells_per_op * len(ops))),
    }
    for key in ("nmae.primary", "nmae.roster_mean"):
        if good:
            metrics[key] = statistics.median(op[key] for op in good)
    return metrics


def run_traced(runner, seconds, tracer):
    """Untraced and traced operations, alternating, all on dataset 0."""
    tracer.install()
    try:
        runner.dataset(0, tracer)
    finally:
        tracer.uninstall()
    start = perf_counter()
    while True:
        runner.operation(0)
        tracer.install()
        try:
            runner.operation(0, tracer)
        finally:
            tracer.uninstall()
        pair = statistics.median(a["wall"] + b["wall"] for a, b in
                                 zip(runner.ops[::2], runner.ops[1::2]))
        if perf_counter() - start + pair > seconds:
            break
    traced = [op for op in runner.ops if op["traced"]]
    untraced = [op for op in runner.ops if not op["traced"]]
    per_op = []
    for op in traced:
        metrics, calls = tr.operation_metrics(tracer, op["id"])
        missing = [n for n in EXPECTED_CALLS[runner.name] if not calls.get(n)]
        if missing:
            raise tr.TracerError(f"{op['id']}: no calls recorded for "
                                 + ", ".join(missing))
        per_op.append(metrics)
    for key in tr.COUNT_METRICS:
        values = {m[key] for m in per_op}
        if len(values) > 1:
            runner.problems.append(f"{key} differs between traced "
                                   f"operations: {sorted(values)}")
    out = {key: (per_op[0][key] if key in tr.COUNT_METRICS
                 else statistics.median(m[key] for m in per_op))
           for key in per_op[0]}
    synth = [s.duration for s in tracer.spans
             if s.op == "synth0" and s.name == "synth.generate_dataset"]
    if not synth:
        raise tr.TracerError("no calls recorded for synth.generate_dataset")
    out["synth.generate_dataset.total_s"] = sum(synth)
    out["trace.overhead_s"] = (statistics.median(op["wall"] for op in traced)
                               - statistics.median(op["wall"]
                                                   for op in untraced))
    return out


def run(args):
    if not os.path.isfile(os.path.join(SRC, "pvprof", "cli.py")):
        raise BenchmarkFailure(f"pvprof sources not found under {SRC}")
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        raise BenchmarkFailure(f"unknown workload {args.workload!r}; "
                               f"choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise BenchmarkFailure("--seconds must be positive")
    tr.resolve_targets()   # fails loudly on a renamed layer

    work = os.path.join(HERE, ".work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(args.workload, WORKLOADS[args.workload](), args.seed,
                    work)
    try:
        if args.trace:
            metrics = run_traced(runner, args.seconds, tr.Tracer())
            units = tr.LAYER_METRICS
        else:
            metrics = run_untraced(runner, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, ".work"))
        except OSError:
            pass

    failed = sum(1 for op in runner.ops if not op["ok"])
    info = {"workload": args.workload, "seed": args.seed,
            "operations": len(runner.ops),
            "traced_operations": sum(op["traced"] for op in runner.ops),
            "op_wall_s": [round(op["wall"], 4) for op in runner.ops],
            "cells_per_op": runner.cells_per_op,
            "raw": runner.raw,
            "nmae_dataset0": runner.nmae.get(0),
            "threads_at_end": {"python": threading.active_count(),
                               "os": os_threads()},
            "environment": environment()}
    print("info: " + json.dumps(info, sort_keys=True))
    for key in units:
        if key not in metrics:
            runner.problems.append(f"metric {key} not measured")
    for problem in runner.problems:
        print("problem: " + problem)
    result = {
        "correct": not runner.problems and failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    try:
        return run(args)
    except (BenchmarkFailure, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
