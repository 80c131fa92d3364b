"""Benchmark of the basinflow command line on synthetic watershed bundles.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload wide-k1 --seed 7 --seconds 50 --trace 0

The benchmark generates its own input bundle from ``--seed`` (see
``bundle.py``), then runs the real ``basinflow estimate`` and ``basinflow
report`` commands as child processes, one at a time (a closed loop with one
client), for about ``--seconds`` seconds and at least two rounds.  Every
run is checked; a check that fails counts the operation as failed.

``--trace 0`` reports the end-to-end metrics: medians of the per-run wall
time and peak RSS of both commands, and of set-up time and memory (one
generation in its own interpreter before the first round and one after
each round).  ``--trace 1`` runs the same commands in-process through
``basinflow.cli.main`` with timing wrappers on the public functions of
each module and reports per-layer self times and counts, the accuracy of
the estimate against the ground truth, and the tracing overhead against an
untraced run in the same process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
with provenance, every sample, every failure and (when traced) every span
goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bundle import TOL, WORKLOADS, Workload, make_bundle, spec_to_json  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Everything, children included, must end well inside 180 s.
BUDGET_S = 165.0
# Each round runs ``estimate`` once and then ``report`` this many times.
REPORTS_PER_ROUND = 2
IMPORT_REPEATS = 3
# Criterion-4 recovery level.  Both workloads have per-segment counties and
# small loads, so every flow is identifiable and recovery is gated.
RECOVERY_GATE = 1e-4
# The artifacts that must be byte-identical across runs of one bundle.
RESULT_FILES = ("solution.csv", "fit_report.csv", "residuals.json",
                "run_summary.json")

END_TO_END = {
    "estimate_wall_s": "s",
    "estimate_peak_rss_mb": "MB",
    "report_wall_s": "s",
    "setup_s": "s",
    "setup_peak_rss_mb": "MB",
}

# Accuracy is deterministic for a given seed, but at roundoff level it moves
# across seeds far more than any relative bound allows, so it is gated as a
# check and reported with the per-layer metrics, without a bound.
ACCURACY = {
    "recovery_max_rel_err": "ratio",
    "fit_eot_rel_err": "ratio",
}

# Per-layer metric -> unit.  Times are self times of the traced spans.
PER_LAYER = {
    **ACCURACY,
    "topology.load_network_s": "s",
    "topology.validate_routing_s": "s",
    "topology.instantiate_capabilities_s": "s",
    "measurement.read_s": "s",
    "measurement.delivery_model_s": "s",
    "measurement.rows_s": "s",
    "measurement.weights_s": "s",
    "measurement.expand_s": "s",
    "measurement.rows": "count",
    "measurement.coefficients": "count",
    "core_net.build_incidence_s": "s",
    "estimator.assemble_problem_s": "s",
    "estimator.solve_s": "s",
    "estimator.factor_s": "s",
    "estimator.factor_calls": "count",
    "estimator.kkt_nnz": "count",
    "estimator.lu_nnz": "count",
    "estimator.fill_ratio": "ratio",
    "estimator.refinement_rounds": "count",
    "estimator.residual_report_s": "s",
    "report.export_tabular_s": "s",
    "report.export_geo_s": "s",
    "report.fit_report_s": "s",
    "report.output_bytes": "bytes",
    "cli.estimate_self_s": "s",
    "report.import_tabular_s": "s",
    "report.flows_from_tabular_s": "s",
    "cli.report_self_s": "s",
    "cli.import_s": "s",
    "synthetic.generate_s": "s",
    "trace.overhead_s": "s",
}

# Self-time spans of the traced estimate and report commands, by metric.
ESTIMATE_SPANS = {
    "topology.load_network_s": "topology.load_network",
    "topology.validate_routing_s": "topology.validate_routing",
    "topology.instantiate_capabilities_s": "topology.instantiate_capabilities",
    "measurement.read_s": "measurement.read",
    "measurement.delivery_model_s": "measurement.delivery_model",
    "measurement.rows_s": "measurement.rows",
    "measurement.weights_s": "measurement.weights",
    "measurement.expand_s": "measurement.expand",
    "core_net.build_incidence_s": "core_net.build_incidence",
    "estimator.assemble_problem_s": "estimator.assemble_problem",
    "estimator.solve_s": "estimator.solve",
    "estimator.factor_s": "estimator.factor",
    "estimator.residual_report_s": "estimator.residual_report",
    "report.export_tabular_s": "report.export_tabular",
    "report.export_geo_s": "report.export_geo",
    "report.fit_report_s": "report.fit_report",
    "cli.estimate_self_s": "cli.estimate",
}
REPORT_SPANS = {
    "report.import_tabular_s": "report.import_tabular",
    "report.flows_from_tabular_s": "report.flows_from_tabular",
    "cli.report_self_s": "cli.report",
}


class Clock:
    """Seconds since the benchmark started, against its overall budget."""

    def __init__(self, budget_s: float = BUDGET_S):
        self.start = time.perf_counter()
        self.budget_s = budget_s

    def left(self) -> float:
        return self.budget_s - (time.perf_counter() - self.start)


@dataclasses.dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv: list[str], clock: Clock) -> Child:
    """Run one child to completion or until the budget is spent.

    Wall time runs from spawn to reaping; peak RSS is the child's own
    ``ru_maxrss``, read with ``wait4`` so earlier children do not mask it.
    """
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        # The watchdog only signals; reaping stays with this thread.
        watchdog = threading.Timer(max(clock.left(), 0.0), os.kill,
                                   (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024,
                 out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"))


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_flows(path: Path) -> dict[tuple[str, str, str], float]:
    flows = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["quantity_kind"] == "flow":
                key = (row["entity_kind"], row["entity_id"], row["operand"])
                flows[key] = float(row["value_lbs"])
    return flows


def accuracy(out_dir: Path, bundle: Path) -> dict[str, float]:
    """Recovery against the ground truth and the EoT fit-report error."""
    truth = read_flows(bundle / "ground_truth.csv")
    estimate = read_flows(out_dir / "solution.csv")
    missing = truth.keys() - estimate.keys()
    if missing:
        raise ValueError(f"solution.csv lacks {len(missing)} flows, e.g. "
                         f"{sorted(missing)[0]}")
    recovery = max(abs(estimate[k] - v) / abs(v) for k, v in truth.items())
    with open(out_dir / "fit_report.csv", encoding="utf-8", newline="") as fh:
        eot = [float(row["value"]) for row in csv.DictReader(fh)
               if row["data_type"] == "eot" and row["metric"] == "relative_error"]
    if not eot:
        raise ValueError("fit_report.csv has no eot relative_error row")
    return {"recovery_max_rel_err": recovery, "fit_eot_rel_err": max(eot)}


class Session:
    """One benchmark run: the bundle, its reference results and the tally."""

    def __init__(self, name: str, spec: Workload, seed: int, clock: Clock):
        self.name, self.spec, self.seed, self.clock = name, spec, seed, clock
        self.work = OUT / "work" / name
        self.bundle = self.work / "bundle"
        self.results = self.work / "results"
        self.report_out = self.work / "report"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.bundle_digests: dict[str, str] | None = None
        self.reference: dict[str, str] | None = None
        self.accuracy: dict[str, float] = {}
        self.summary: dict = {}
        self.meta: dict = {}

    def operation(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{what} #{self.attempted}: {p}" for p in problems]
        return not problems

    # -- set-up -----------------------------------------------------------
    def setup_child(self) -> dict | None:
        """Generate the bundle in a fresh child and return its report, or
        None if it failed.  The first generation is the run's bundle; each
        later one must be byte-identical to it and is then removed."""
        first = self.bundle_digests is None
        target = self.bundle if first else self.work / "setup-copy"
        child = run_child([sys.executable, str(HERE / "bundle.py"),
                           "--spec", spec_to_json(self.spec),
                           "--seed", str(self.seed), "--out", str(target)],
                          self.clock)
        problems = [] if child.code == 0 else [
            f"exit code {child.code}: {child.stderr.strip()[-500:]}"]
        if not problems:
            digests = {p.name: digest(p) for p in sorted(target.iterdir())}
            if first:
                self.bundle_digests = digests
                self.meta = json.loads((target / "bundle_meta.json").read_text())
            elif digests != self.bundle_digests:
                problems.append("bundle differs from the first generation")
        if not first:
            shutil.rmtree(target, ignore_errors=True)
        if not self.operation("setup", problems):
            return None
        return json.loads(child.stdout.strip().splitlines()[-1])

    # -- checks -----------------------------------------------------------
    def check_estimate(self, code: int, detail: str = "") -> bool:
        """Exit code, convergence, residual, determinism and accuracy."""
        if code != 0:
            return self.operation("estimate", [f"exit code {code} {detail}".strip()])
        problems = []
        try:
            digests = {name: digest(self.results / name) for name in RESULT_FILES}
            summary = json.loads((self.results / "run_summary.json").read_text())
            converged = summary["solution"]["converged"]
            residual = float(summary["solution"]["constraint_residual"])
            acc = accuracy(self.results, self.bundle)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return self.operation("estimate", [f"unreadable results: {exc!r}"])
        if converged is not True:
            problems.append("run_summary.json says converged is not true")
        limit = TOL * (1.0 + self.meta["rhs_inf_norm"])
        if not residual <= limit:
            problems.append(f"constraint_residual {residual!r}"
                            f" > tol*(1+|b|inf) = {limit!r}")
        if self.reference is None:
            self.reference, self.accuracy, self.summary = digests, acc, summary
        else:
            problems += [f"{name} differs from the first run"
                         for name in RESULT_FILES
                         if digests[name] != self.reference[name]]
        if not acc["recovery_max_rel_err"] <= RECOVERY_GATE:
            problems.append(f"recovery_max_rel_err {acc['recovery_max_rel_err']!r}"
                            f" > {RECOVERY_GATE}")
        return self.operation("estimate", problems)

    def check_report(self, code: int, detail: str = "") -> bool:
        """``report`` must reproduce the fit report ``estimate`` wrote."""
        if code != 0:
            return self.operation("report", [f"exit code {code} {detail}".strip()])
        path = self.report_out / "fit_report.csv"
        if not path.is_file():
            return self.operation("report", ["no fit_report.csv written"])
        same = digest(path) == self.reference["fit_report.csv"]
        return self.operation("report", [] if same else [
            "fit_report.csv differs from the one estimate wrote"])

    # -- the two commands as children ----------------------------------------
    def estimate_argv(self) -> list[str]:
        return ["estimate", "--config", str(self.bundle / "config.json"),
                "--output-dir", str(self.results)]

    def report_argv(self) -> list[str]:
        return ["report", "--solution", str(self.results / "solution.csv"),
                "--config", str(self.bundle / "config.json"),
                "--output-dir", str(self.report_out)]

    def cli_child(self, args: list[str]) -> Child:
        return run_child([sys.executable, "-m", "basinflow.cli", *args], self.clock)

    def estimate_child(self) -> tuple[bool, Child]:
        shutil.rmtree(self.results, ignore_errors=True)
        child = self.cli_child(self.estimate_argv())
        return self.check_estimate(child.code, child.stderr.strip()[-500:]), child

    def report_child(self) -> tuple[bool, Child]:
        shutil.rmtree(self.report_out, ignore_errors=True)
        child = self.cli_child(self.report_argv())
        return self.check_report(child.code, child.stderr.strip()[-500:]), child

    def import_child(self) -> float | None:
        """Seconds a fresh interpreter takes to import ``basinflow.cli``,
        or None if the import fails."""
        child = run_child([sys.executable, "-c",
                           "import time; t = time.perf_counter(); "
                           "import basinflow.cli; "
                           "print(repr(time.perf_counter() - t))"], self.clock)
        return float(child.stdout.strip().splitlines()[-1]) if child.code == 0 else None


def rounds(clock: Clock, seconds: float, minimum: int, body) -> int:
    """Call ``body`` for about ``seconds`` seconds and at least ``minimum``
    times; start no round the remaining budget cannot hold."""
    t0 = time.perf_counter()
    n = 0
    while True:
        body()
        n += 1
        elapsed = time.perf_counter() - t0
        per_round = elapsed / n
        if n >= minimum and elapsed + per_round > seconds:
            return n
        if clock.left() < 1.5 * per_round:
            return n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics from child processes
# ---------------------------------------------------------------------------

def run_untraced(session: Session, seconds: float) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}

    def setup() -> bool:
        run = session.setup_child()
        if run:
            samples["setup_s"].append(run["setup_s"])
            samples["setup_peak_rss_mb"].append(run["peak_rss_mb"])
        return run is not None

    if not setup():
        return {}, samples
    session.import_child()  # compiles bytecode before anything is timed

    def one_round():
        ok, child = session.estimate_child()
        samples["estimate_wall_s"].append(child.wall_s)
        samples["estimate_peak_rss_mb"].append(child.peak_rss_mb)
        for _ in range(REPORTS_PER_ROUND if ok else 0):
            _, rep = session.report_child()
            samples["report_wall_s"].append(rep.wall_s)
        # Set-up is sampled across the whole run, as the commands are, so
        # that a change in the host's speed moves all metrics alike.
        setup()

    rounds(session.clock, seconds, 2, one_round)
    if session.failures or not samples["report_wall_s"]:
        return {}, samples
    metrics = {name: metric(statistics.median(values), END_TO_END[name])
               for name, values in samples.items()}
    return metrics, samples


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from in-process traced runs
# ---------------------------------------------------------------------------

def install_probes(tracer: Tracer) -> None:
    """Wrap the public functions ``cli.cmd_estimate``/``cmd_report`` call.

    ``build_incidence`` is wrapped where ``cli`` imported it.  Per-item
    helpers such as ``report.capability_entity`` are left alone.
    """
    import scipy.sparse.linalg as spla

    from basinflow import cli, estimator, measurement, report, topology

    tracer.wrap(cli, "cmd_estimate", "cli.estimate")
    tracer.wrap(cli, "cmd_report", "cli.report")
    for name in ("load_network", "validate_routing", "instantiate_capabilities"):
        tracer.wrap(topology, name, f"topology.{name}")
    for name in ("read_applied", "read_loads", "read_delivery_factors", "read_areas"):
        tracer.wrap(measurement, name, "measurement.read")
    tracer.wrap(measurement, "compute_delivery_model", "measurement.delivery_model")
    for name in ("assemble_accept_constraints", "assemble_eos_constraints",
                 "assemble_eot_constraints", "assemble_transport_relations"):
        tracer.wrap(measurement, name, "measurement.rows")
    tracer.wrap(measurement, "compute_weights", "measurement.weights")

    def count_rows(counts, rows, *args, **kwargs):
        counts["rows"] = len(rows)
        counts["coefficients"] = sum(len(row.coefficients) for row in rows)

    tracer.wrap(measurement, "expand_constraints", "measurement.expand",
                count=count_rows)
    tracer.wrap(cli, "build_incidence", "core_net.build_incidence")
    tracer.wrap(estimator, "assemble_problem", "estimator.assemble_problem")

    def count_solve(counts, solution, *args, **kwargs):
        counts["refinement_rounds"] = solution.diagnostics.get("refinement_rounds", 0)

    tracer.wrap(estimator, "solve", "estimator.solve", count=count_solve)

    def count_factor(counts, lu, matrix, *args, **kwargs):
        counts["calls"] = 1
        counts["kkt_nnz"] = matrix.nnz
        counts["lu_nnz"] = lu.L.nnz + lu.U.nnz

    # A probe, not a layer: factorization time stays in estimator.solve_s.
    tracer.wrap(spla, "splu", "estimator.factor", layer=False, count=count_factor)
    tracer.wrap(estimator, "residual_report", "estimator.residual_report")

    def export_name(*args, **kwargs):
        fmt = args[5] if len(args) > 5 else kwargs.get("fmt", "tabular")
        return f"report.export_{fmt}"

    tracer.wrap(report, "export_results", export_name)
    tracer.wrap(report, "build_fit_report", "report.fit_report")
    tracer.wrap(report.FitReport, "write_csv", "report.fit_report")
    tracer.wrap(report, "import_tabular", "report.import_tabular")
    tracer.wrap(report, "flows_from_tabular", "report.flows_from_tabular")


def in_process_cli(args: list[str], tracer: Tracer | None) -> tuple[int, float, str]:
    """Run ``basinflow.cli.main(args)`` in this process, traced if a tracer
    is given; return the exit code, the wall time and any crash report."""
    from basinflow import cli

    with tracer or contextlib.nullcontext():
        if tracer:
            install_probes(tracer)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args)
            detail = ""
        except SystemExit as exc:  # argparse rejected the arguments
            code, detail = exc.code if isinstance(exc.code, int) else 1, ""
        except Exception:  # the program crashed: count it, keep measuring
            code, detail = -1, traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
    return code, wall, detail


def run_traced(session: Session, seconds: float) -> tuple[dict, dict, list]:
    spans: list[dict] = []
    session.work.mkdir(parents=True, exist_ok=True)
    with Tracer("setup") as tracer:
        from basinflow import synthetic
        tracer.wrap(synthetic, "generate_synthetic", "synthetic.generate")
        try:
            session.meta = {k: v for k, v in make_bundle(
                session.spec, session.seed, session.bundle).items()
                if k in ("rhs_inf_norm", "land_segments", "outlets")}
            problems = []
        except Exception:  # count the failed set-up and stop
            problems = [traceback.format_exc(limit=3)]
    spans += tracer.dump()
    generate_s = tracer.self_times().get("synthetic.generate", 0.0)
    if not session.operation("setup", problems):
        return {}, {}, spans

    imports = [session.import_child() for _ in range(IMPORT_REPEATS)]
    if None in imports:
        session.operation("import", ["a fresh interpreter cannot import basinflow.cli"])
        return {}, {}, spans
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    samples["cli.import_s"] = imports
    samples["synthetic.generate_s"] = [generate_s]

    def one_round():
        # An untraced and a traced estimate in the same process; their
        # difference is the tracing overhead.
        shutil.rmtree(session.results, ignore_errors=True)
        code, plain_wall, detail = in_process_cli(session.estimate_argv(), None)
        if not session.check_estimate(code, detail):
            return
        n = len(samples["trace.overhead_s"]) + 1
        est, rep = Tracer(f"estimate-{n}"), Tracer(f"report-{n}")
        shutil.rmtree(session.results, ignore_errors=True)
        code, wall, detail = in_process_cli(session.estimate_argv(), est)
        spans.extend(est.dump())
        if not session.check_estimate(code, detail):
            return
        shutil.rmtree(session.report_out, ignore_errors=True)
        code, _, detail = in_process_cli(session.report_argv(), rep)
        spans.extend(rep.dump())
        if not session.check_report(code, detail):
            return
        self_times, counts = est.self_times(), est.counts()
        for name, span in ESTIMATE_SPANS.items():
            samples[name].append(self_times.get(span, 0.0))
        for name, span in REPORT_SPANS.items():
            samples[name].append(rep.self_times().get(span, 0.0))
        kkt = counts.get("estimator.factor.kkt_nnz", 0)
        lu = counts.get("estimator.factor.lu_nnz", 0)
        samples["measurement.rows"].append(counts.get("measurement.expand.rows", 0))
        samples["measurement.coefficients"].append(
            counts.get("measurement.expand.coefficients", 0))
        samples["estimator.factor_calls"].append(
            counts.get("estimator.factor.calls", 0))
        samples["estimator.kkt_nnz"].append(kkt)
        samples["estimator.lu_nnz"].append(lu)
        samples["estimator.fill_ratio"].append(lu / kkt if kkt else 0.0)
        samples["estimator.refinement_rounds"].append(
            counts.get("estimator.solve.refinement_rounds", 0))
        samples["report.output_bytes"].append(
            sum(p.stat().st_size for p in session.results.iterdir()
                if p.name != "timings.json"))
        for name, value in session.accuracy.items():
            samples[name].append(value)
        samples["trace.overhead_s"].append(wall - plain_wall)

    rounds(session.clock, seconds, 1, one_round)
    if session.failures or not samples["trace.overhead_s"]:
        return {}, samples, spans
    metrics = {name: metric(statistics.median(samples[name]), unit)
               for name, unit in PER_LAYER.items()}
    return metrics, samples, spans


# ---------------------------------------------------------------------------
# Provenance and the entry point
# ---------------------------------------------------------------------------

def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(session: Session, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    summary = session.summary
    sizes = {
        "land_segments": session.meta.get("land_segments"),
        "outlets": session.meta.get("outlets"),
    }
    if summary:
        problem = summary["problem"]
        sizes.update({
            "capabilities": problem["capabilities"],
            "measurement_rows": problem["measurement_rows"],
            "kkt_variables": problem["variables"],
            "kkt_rows": problem["equality_rows"],
        })
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": {"name": session.name, **dataclasses.asdict(session.spec)},
        "seed": session.seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, one client, one command at a time",
        "sizes": sizes,
    }


def run_workload(name: str, spec: Workload, seed: int, seconds: float,
                 trace: int) -> dict:
    """Measure one workload; return the record written to the results file."""
    clock = Clock()
    session = Session(name, spec, seed, clock)
    shutil.rmtree(session.work, ignore_errors=True)
    session.work.mkdir(parents=True)
    if trace:
        metrics, samples, spans = run_traced(session, seconds)
    else:
        (metrics, samples), spans = run_untraced(session, seconds), []
    if not metrics and not session.failed:
        session.operation("run", ["ran out of time before any measurement"])
    record = {
        "result": {
            "correct": not session.failed,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": metrics,
        },
        "provenance": provenance(session, seconds, trace),
        "samples": samples,
        "accuracy": session.accuracy,
        "failures": session.failures,
        "spans": spans,
    }
    shutil.rmtree(session.work, ignore_errors=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "basinflow" / "cli.py").is_file():
        print(f"error: no basinflow sources under {SRC}; run from the root of "
              f"a basinflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # Turn SIGTERM into SystemExit, so that run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    record = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                          args.seconds, args.trace)
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, m in record["result"]["metrics"].items():
        n = len(record["samples"].get(name, [1]))
        print(f"{name:38s} {m['value']:<12.6g} {m['unit']:6s} median of {n}")
    for name, value in record["accuracy"].items():
        print(f"{name:38s} {value:<12.6g} {ACCURACY[name]:6s} no bound")
    print(f"record: {path}")
    print(json.dumps(record["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
