"""Command-line entry point.

Subcommands: ``validate`` (network, dataset and measurement-row checks),
``estimate`` (the full load -> assemble -> solve -> export pipeline),
``synth`` (write a synthetic benchmark bundle with ground truth), and
``report`` (recompute fit metrics from an exported solution without
re-solving).  ``run`` is the process entry point (``python -m
basinflow.cli`` and the ``basinflow`` script); ``main`` is the library call.

Exit codes: 0 success, 1 validation/configuration failure (a command-line
usage error included), 2 solver failure, 3 file I/O failure.  Skipped
records and data-consistency warnings print to stderr as ``warning:``
lines.  All numeric defaults are recorded in the run summary for
provenance; timings go to a separate file so repeated runs produce
byte-identical result artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import estimator, measurement, report, synthetic, topology
from .core_net import build_incidence
from .measurement import MISSING_POLICIES, DataConsistencyWarning, DatasetFormatError
from .topology import NetworkSchemaError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3

DATASET_FAMILIES = ("applied", "loads", "delivery_factors", "areas")


@dataclass
class RunConfig:
    network_path: str
    dataset_paths: dict[str, str] = field(default_factory=dict)
    k_steps: int = 1
    dt_years: float = 1.0
    alpha: float = estimator.DEFAULT_FLOW_PENALTY
    beta: float = estimator.DEFAULT_BUFFER_PENALTY
    tol: float = estimator.DEFAULT_TOL
    missing_df_policy: str = "error"
    nrmse_normalizer: str = "mean"
    output_dir: str = "."

    def validate(self) -> None:
        if self.k_steps < 1:
            raise ValueError("k_steps must be >= 1")
        for key in ("dt_years", "alpha", "beta", "tol"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be a finite number > 0, got {value!r}")
        if self.missing_df_policy not in MISSING_POLICIES:
            raise ValueError(
                f"missing_df_policy must be {' or '.join(map(repr, MISSING_POLICIES))}"
                f", got {self.missing_df_policy!r}")
        if self.nrmse_normalizer not in report.NRMSE_NORMALIZERS:
            raise ValueError(
                f"nrmse_normalizer must be one of {report.NRMSE_NORMALIZERS}, "
                f"got {self.nrmse_normalizer!r}")
        for family in self.dataset_paths:
            if family not in DATASET_FAMILIES:
                raise ValueError(
                    f"unknown dataset family {family!r}; expected one of "
                    f"{DATASET_FAMILIES}")


# The config file's keys: the two paths, then each setting, of its default's type.
_CONFIG_KEYS = {"network": str, "datasets": dict, **{
    f.name: type(f.default) for f in dataclasses.fields(RunConfig)[2:]}}


def load_config(path: Optional[str], overrides: argparse.Namespace) -> RunConfig:
    """Merge a JSON config file with command-line overrides (flags win).

    Relative paths inside the file resolve against the file's directory;
    flag paths resolve against the working directory.  A leading
    byte-order mark in the file is ignored.
    """
    doc: dict = {}
    base = Path(".")
    if path is not None:
        base = Path(path).parent
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                doc = json.load(fh)
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in doc.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            want = _CONFIG_KEYS[key]
            if want is float and type(value) is int:
                value = float(value)
            if isinstance(value, bool) or not isinstance(value, want):
                raise ValueError(
                    f"config key {key!r} must be {want.__name__}, got "
                    f"{type(value).__name__}")

    def resolve(p: str) -> str:
        return str((base / p).resolve()) if p else p

    datasets = {}
    for family, value in doc.get("datasets", {}).items():
        if not isinstance(value, str):
            raise ValueError(f"config key 'datasets' entry {family!r} must be "
                             f"a path string, got {type(value).__name__}")
        datasets[family] = resolve(value)
    for family in DATASET_FAMILIES:
        flag = getattr(overrides, family, None)
        if flag:
            datasets[family] = str(Path(flag).resolve())

    network = getattr(overrides, "network", None)
    network_path = (str(Path(network).resolve()) if network
                    else resolve(doc.get("network", "")))
    if not network_path:
        raise ValueError("no network file given (config key 'network' or --network)")

    # A setting is its flag, else its config key, else RunConfig's default.
    settings = {}
    for f in dataclasses.fields(RunConfig):
        if f.name in _CONFIG_KEYS and f.name != "output_dir":
            flag = getattr(overrides, f.name, None)
            settings[f.name] = _CONFIG_KEYS[f.name](
                doc.get(f.name, f.default) if flag is None else flag)
    config = RunConfig(
        network_path=network_path,
        dataset_paths=datasets,
        output_dir=(getattr(overrides, "output_dir", None)
                    or resolve(doc.get("output_dir", ".")) or "."),
        **settings,
    )
    config.validate()
    return config


def _read_bundle(config: RunConfig) -> tuple:
    """The network, its routing report and each dataset family's table, in
    ``DATASET_FAMILIES`` order; None where no file is given.
    ``measurement.read_<family>`` reads the file."""
    network = topology.load_network(config.network_path)
    routing = topology.validate_routing(network)
    paths = config.dataset_paths
    return network, routing, tuple(
        getattr(measurement, f"read_{family}")(paths[family])
        if family in paths else None for family in DATASET_FAMILIES)


def _check_routing(routing: topology.RoutingReport) -> None:
    """Print a failed routing check's violations on stderr, then raise the
    ``error:`` line that ends the command with exit 1."""
    if not routing.ok:
        print(str(routing), file=sys.stderr)
        raise ValueError(f"routing check failed: "
                         f"{len(routing.violations)} violation(s)")


def _measurements(config: RunConfig, network, tables) -> tuple:
    """The capabilities, the measurement system, the rows the fit report
    scores and the skipped-record notes, each printed as a warning.  Only
    delivery factors give a delivery model and the rows that need one."""
    applied, loads, dfs, areas = tables
    delivery = None
    if dfs is not None:
        delivery = measurement.compute_delivery_model(
            network, dfs, areas, missing_policy=config.missing_df_policy)
    capabilities = topology.instantiate_capabilities(network)
    system, fit_rows, skipped = measurement.assemble_system(
        network, capabilities, applied, loads, delivery)
    for line in skipped:
        print(f"warning: {line}", file=sys.stderr)
    return capabilities, system, fit_rows, skipped


def cmd_validate(config: RunConfig) -> int:
    network, routing, tables = _read_bundle(config)
    print(f"network: {len(network.land_segments)} land segments, "
          f"{len(network.outlets)} outlets, {len(network.river_links)} links, "
          f"{len(network.estuaries)} estuaries")
    for name, records in zip(DATASET_FAMILIES, tables):
        if records is not None:
            print(f"dataset {name}: {len(records)} records")
    _check_routing(routing)
    print(str(routing))
    _measurements(config, network, tables)  # what estimate builds to solve
    return EXIT_OK


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_estimate(config: RunConfig) -> int:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    network, routing, tables = _read_bundle(config)
    _check_routing(routing)
    if "delivery_factors" not in config.dataset_paths:
        raise ValueError("estimation requires a delivery_factors dataset")
    timings["load_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    capabilities, system, fit_rows, skipped = _measurements(
        config, network, tables)
    del tables  # nothing reads the dataset tables again; free them to solve
    constraints = measurement.expand_constraints(system, config.k_steps)
    problem = estimator.assemble_problem(
        build_incidence(capabilities, network.n_buffers), constraints,
        dt=config.dt_years, alpha=config.alpha, beta=config.beta)
    timings["assemble_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solution = estimator.solve(problem, tol=config.tol)
    timings["solve_s"] = time.perf_counter() - t0

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    report.export_results(solution, network, capabilities,
                          out / "solution.csv", fmt="tabular",
                          constraints=constraints)
    report.export_results(solution, network, capabilities,
                          out / "solution.geojson", fmt="geo")
    _write_json(out / "residuals.json",
                estimator.residual_report(problem, solution))

    fit = report.build_fit_report(fit_rows, solution.u.sum(axis=0),
                                  nrmse_normalizer=config.nrmse_normalizer)
    fit.write_csv(out / "fit_report.csv")

    summary = {
        "config": dataclasses.asdict(config),
        "network": {group: len(getattr(network, group))
                    for group in topology.GROUPS},
        "problem": {
            "variables": problem.n_variables + len(constraints),
            "equality_rows": problem.n_rows,
            "measurement_rows": len(constraints),
            "capabilities": len(capabilities),
        },
        "solution": {
            "objective_value": solution.objective_value,
            "constraint_residual": solution.constraint_residual,
            "kkt_residual": solution.kkt_residual,
            "converged": solution.converged,
            "max_abs_error": float(np.abs(solution.errors).max(initial=0.0)),
            "negative_flow_count": int((solution.u < 0).sum()),
        },
        "solver": {"u0": problem.u0, **solution.diagnostics},
        "skipped_records": skipped,
    }
    _write_json(out / "run_summary.json", summary)
    timings["export_s"] = time.perf_counter() - t0
    _write_json(out / "timings.json", timings)

    print(f"objective {solution.objective_value:.6e}  "
          f"constraint residual {solution.constraint_residual:.3e}  "
          f"max |error| {summary['solution']['max_abs_error']:.3e}")
    print(f"results in {out}")
    if not solution.converged:
        print("solver did not reach tolerance; see run_summary.json",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_synth(n_outlets: int, branching: int, seed: int, out_dir: str,
              land_per_outlet: tuple[int, int] = (1, 3),
              county_mode: str = "per-segment") -> int:
    network, truth, datasets = synthetic.generate_synthetic(
        n_outlets, branching=branching, seed=seed,
        land_per_outlet=land_per_outlet, county_mode=county_mode)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    network.save(out / "network.json")
    for family in DATASET_FAMILIES:
        measurement.write_table(out / f"{family}.csv", getattr(datasets, family))
    measurement.write_table(out / "ground_truth.csv",
                            report.flow_rows(truth.capabilities, network, truth.u))
    _write_json(out / "config.json", {
        "network": "network.json",
        "datasets": {family: f"{family}.csv" for family in DATASET_FAMILIES},
        "output_dir": "results",
    })
    print(f"synthetic bundle in {out}: {len(network.land_segments)} land "
          f"segments, {len(network.outlets)} outlets")
    return EXIT_OK


def cmd_report(solution_path: str, config: RunConfig) -> int:
    network, routing, tables = _read_bundle(config)
    _check_routing(routing)
    flows = report.flows_from_tabular(report.import_tabular(solution_path))
    capabilities, _, fit_rows, _ = _measurements(config, network, tables)
    fit = report.build_fit_report(
        fit_rows, report.flow_totals(flows, capabilities, network),
        nrmse_normalizer=config.nrmse_normalizer)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    fit.write_csv(out / "fit_report.csv")
    for data_type, operand, metric, value, note in fit.rows.tolist():
        note = f"  ({note})" if note else ""
        print(f"{data_type:>20}  {operand:>10}  {metric:>22}  {value:.6g}{note}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basinflow",
        description="Watershed nutrient-flow network estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--network", help="network file (overrides config)")
        for family in DATASET_FAMILIES:
            p.add_argument(f"--{family.replace('_', '-')}", dest=family,
                           help=f"{family} dataset CSV")
        p.add_argument("--k-steps", dest="k_steps", type=int)
        p.add_argument("--dt-years", dest="dt_years", type=float)
        p.add_argument("--alpha", type=float, help="flow penalty")
        p.add_argument("--beta", type=float, help="buffer penalty")
        p.add_argument("--tol", type=float, help="solver residual tolerance")
        p.add_argument("--missing-df-policy", dest="missing_df_policy",
                       choices=MISSING_POLICIES)
        p.add_argument("--nrmse-normalizer", dest="nrmse_normalizer",
                       choices=report.NRMSE_NORMALIZERS)
        p.add_argument("--output-dir", dest="output_dir")

    add_config_flags(sub.add_parser("validate", help="check inputs"))
    add_config_flags(sub.add_parser("estimate", help="run the estimation pipeline"))

    synth = sub.add_parser("synth", help="write a synthetic benchmark bundle")
    synth.add_argument("--outlets", type=int, required=True)
    synth.add_argument("--branching", type=int, default=3)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.add_argument("--land-per-outlet", type=int, nargs=2, default=(1, 3),
                       metavar=("LO", "HI"))
    synth.add_argument("--county-mode", choices=synthetic.COUNTY_MODES,
                       default="per-segment")

    rep = sub.add_parser("report", help="recompute fit metrics from an export")
    rep.add_argument("--solution", required=True, help="exported solution.csv")
    add_config_flags(rep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # The pipeline's data hold no reference cycles, so the cyclic collector
    # would only walk the many short-lived rows a command makes; it is
    # paused for the command and left as it was found.
    collecting = gc.isenabled()
    gc.disable()
    formatwarning = warnings.formatwarning

    def format_warning(message, category, *where):
        # A data-consistency warning reads like the skipped-record notes.
        if issubclass(category, DataConsistencyWarning):
            return f"warning: {message}\n"
        return formatwarning(message, category, *where)

    warnings.formatwarning = format_warning
    try:
        return _main(argv)
    finally:
        warnings.formatwarning = formatwarning
        if collecting:
            gc.enable()


def _main(argv: Optional[list[str]]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its help, or its usage and error; a usage
        # error is a configuration failure, as 2 is the solver's.
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        if args.command == "synth":
            return cmd_synth(args.outlets, args.branching, args.seed, args.out,
                             land_per_outlet=tuple(args.land_per_outlet),
                             county_mode=args.county_mode)
        config = load_config(args.config, args)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "estimate":
            return cmd_estimate(config)
        return cmd_report(args.solution, config)
    except np.linalg.LinAlgError as exc:
        # Before ValueError, which LinAlgError subclasses.
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (NetworkSchemaError, DatasetFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """Run ``main`` on ``sys.argv`` and exit the process with its code."""
    code = main()
    # Finalization runs one full collection even with the collector off; it
    # would walk every module object (43-67 ms) to free a few hundred, so the
    # heap is frozen out of it.  A normal exit still flushes the streams.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
