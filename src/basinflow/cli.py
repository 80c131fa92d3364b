"""Command-line entry point.

Subcommands: ``validate`` (network + dataset checks), ``estimate`` (the
full load -> assemble -> solve -> export pipeline), ``synth`` (write a
synthetic benchmark bundle with ground truth), and ``report`` (recompute
fit metrics from an exported solution without re-solving).

Exit codes: 0 success, 1 validation/configuration failure, 2 solver
failure, 3 file I/O failure.  All numeric defaults are recorded in the
run summary for provenance; timings go to a separate file so repeated
runs produce byte-identical result artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import estimator, measurement, report, synthetic, topology
from .core_net import build_incidence, default_operands
from .measurement import DatasetFormatError
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
        if self.dt_years <= 0:
            raise ValueError("dt_years must be positive")
        if self.missing_df_policy not in ("error", "passthrough"):
            raise ValueError(
                f"missing_df_policy must be 'error' or 'passthrough', got "
                f"{self.missing_df_policy!r}")
        if self.nrmse_normalizer not in report.NRMSE_NORMALIZERS:
            raise ValueError(
                f"nrmse_normalizer must be one of {report.NRMSE_NORMALIZERS}, "
                f"got {self.nrmse_normalizer!r}")
        for family in self.dataset_paths:
            if family not in DATASET_FAMILIES:
                raise ValueError(
                    f"unknown dataset family {family!r}; expected one of "
                    f"{DATASET_FAMILIES}")


_CONFIG_KEYS = {
    "network": str, "datasets": dict, "k_steps": int, "dt_years": float,
    "alpha": float, "beta": float, "tol": float, "missing_df_policy": str,
    "nrmse_normalizer": str, "output_dir": str,
}


def load_config(path: Optional[str], overrides: argparse.Namespace) -> RunConfig:
    """Merge a JSON config file with command-line overrides (flags win).

    Relative paths inside the file resolve against the file's directory;
    flag paths resolve against the working directory.
    """
    doc: dict = {}
    base = Path(".")
    if path is not None:
        base = Path(path).parent
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in doc.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            want = _CONFIG_KEYS[key]
            if want is float and isinstance(value, int):
                value = float(value)
            if not isinstance(value, want):
                raise ValueError(
                    f"config key {key!r} must be {want.__name__}, got "
                    f"{type(value).__name__}")

    def resolve(p: str) -> str:
        return str((base / p).resolve()) if p else p

    datasets = {k: resolve(v) for k, v in doc.get("datasets", {}).items()}
    for family in DATASET_FAMILIES:
        flag = getattr(overrides, family, None)
        if flag:
            datasets[family] = str(Path(flag).resolve())

    network = getattr(overrides, "network", None)
    network_path = (str(Path(network).resolve()) if network
                    else resolve(doc.get("network", "")))
    if not network_path:
        raise ValueError("no network file given (config key 'network' or --network)")

    def pick(flag_name: str, doc_key: str, default):
        flag = getattr(overrides, flag_name, None)
        if flag is not None:
            return flag
        return doc.get(doc_key, default)

    config = RunConfig(
        network_path=network_path,
        dataset_paths=datasets,
        k_steps=int(pick("k_steps", "k_steps", 1)),
        dt_years=float(pick("dt_years", "dt_years", 1.0)),
        alpha=float(pick("alpha", "alpha", estimator.DEFAULT_FLOW_PENALTY)),
        beta=float(pick("beta", "beta", estimator.DEFAULT_BUFFER_PENALTY)),
        tol=float(pick("tol", "tol", estimator.DEFAULT_TOL)),
        missing_df_policy=pick("missing_df_policy", "missing_df_policy", "error"),
        nrmse_normalizer=pick("nrmse_normalizer", "nrmse_normalizer", "mean"),
        output_dir=(getattr(overrides, "output_dir", None)
                    or resolve(doc.get("output_dir", ".")) or "."),
    )
    config.validate()
    return config


def _read_datasets(config: RunConfig):
    applied = loads = dfs = areas = None
    paths = config.dataset_paths
    if "applied" in paths:
        applied = measurement.read_applied(paths["applied"])
    if "loads" in paths:
        loads = measurement.read_loads(paths["loads"])
    if "delivery_factors" in paths:
        dfs = measurement.read_delivery_factors(paths["delivery_factors"])
    if "areas" in paths:
        areas = measurement.read_areas(paths["areas"])
    return applied, loads, dfs, areas


def cmd_validate(config: RunConfig) -> int:
    network = topology.load_network(config.network_path)
    routing = topology.validate_routing(network)
    print(f"network: {len(network.land_segments)} land segments, "
          f"{len(network.outlets)} outlets, {len(network.river_links)} links, "
          f"{len(network.estuaries)} estuaries")
    applied, loads, dfs, areas = _read_datasets(config)
    for name, records in (("applied", applied), ("loads", loads),
                          ("delivery_factors", dfs), ("areas", areas)):
        if records is not None:
            print(f"dataset {name}: {len(records)} records")
    print(str(routing))
    return EXIT_OK if routing.ok else EXIT_VALIDATION


def _assemble_constraints(network, capabilities, applied, loads, delivery):
    """The one-step measurement system, the rows the fit report scores (the
    system and the report-only StreamToTide rows) and the skipped-record
    notes.  Without a delivery model (``report`` given no delivery factors)
    the transport-relation and StreamToTide rows are left out."""
    blocks = []
    skipped: list[str] = []
    for assemble, records in ((measurement.assemble_accept_constraints, applied),
                              (measurement.assemble_eos_constraints, loads),
                              (measurement.assemble_eot_constraints, loads)):
        block, diag = assemble(records or (), network, capabilities)
        blocks.append(block)
        skipped += diag
    if delivery is None:
        system = measurement.stack_systems(blocks)
        return system, system, skipped
    blocks.append(measurement.assemble_transport_relations(
        network, capabilities, delivery))
    system = measurement.stack_systems(blocks)
    stream, diag = measurement.assemble_stream_to_tide(
        loads or (), network, capabilities, delivery)
    return system, measurement.stack_systems([system, stream]), skipped + diag


def cmd_estimate(config: RunConfig) -> int:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    network = topology.load_network(config.network_path)
    routing = topology.validate_routing(network)
    if not routing.ok:
        print(str(routing), file=sys.stderr)
        return EXIT_VALIDATION
    applied, loads, dfs, areas = _read_datasets(config)
    if dfs is None:
        raise ValueError("estimation requires a delivery_factors dataset")
    timings["load_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    operands = default_operands()
    capabilities = topology.instantiate_capabilities(network, operands)
    delivery = measurement.compute_delivery_model(
        network, dfs, areas, missing_policy=config.missing_df_policy)
    system, fit_rows, skipped = _assemble_constraints(
        network, capabilities, applied, loads, delivery)
    constraints = measurement.expand_constraints(
        measurement.compute_weights(system), config.k_steps)
    for line in skipped:
        print(f"warning: {line}", file=sys.stderr)
    incidence = build_incidence(capabilities, len(operands),
                                len(network.buffer_specs))
    problem = estimator.assemble_problem(
        incidence, constraints, k_steps=config.k_steps, dt=config.dt_years,
        alpha=config.alpha, beta=config.beta)
    timings["assemble_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solution = estimator.solve(problem, tol=config.tol)
    timings["solve_s"] = time.perf_counter() - t0

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    report.export_results(solution, network, capabilities, operands,
                          out / "solution.csv", fmt="tabular",
                          constraints=constraints)
    report.export_results(solution, network, capabilities, operands,
                          out / "solution.geojson", fmt="geo")
    families = estimator.residual_report(problem, solution)
    with open(out / "residuals.json", "w", encoding="utf-8") as fh:
        json.dump([f.to_dict() for f in families], fh, indent=1, sort_keys=True)
        fh.write("\n")

    fit = report.build_fit_report(fit_rows, solution.u.sum(axis=0),
                                  nrmse_normalizer=config.nrmse_normalizer)
    fit.write_csv(out / "fit_report.csv")

    summary = {
        "config": dataclasses.asdict(config),
        "network": {
            "land_segments": len(network.land_segments),
            "outlets": len(network.outlets),
            "river_links": len(network.river_links),
            "estuaries": len(network.estuaries),
        },
        "problem": {
            "variables": problem.n_variables,
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
            "negative_flow_count": solution.diagnostics["negative_flow_count"],
            "regularized": solution.diagnostics.get("regularized", False),
        },
        "skipped_records": skipped,
    }
    with open(out / "run_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    timings["export_s"] = time.perf_counter() - t0
    with open(out / "timings.json", "w", encoding="utf-8") as fh:
        json.dump(timings, fh, indent=1, sort_keys=True)
        fh.write("\n")

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
    measurement.write_applied(out / "applied.csv", datasets.applied)
    measurement.write_loads(out / "loads.csv", datasets.loads)
    measurement.write_delivery_factors(out / "delivery_factors.csv",
                                       datasets.delivery_factors)
    measurement.write_areas(out / "areas.csv", datasets.areas)

    with open(out / "ground_truth.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.TABULAR_HEADER)
        writer.writerows(report.flow_rows(truth.capabilities, network, truth.u))

    config = {
        "network": "network.json",
        "datasets": {
            "applied": "applied.csv",
            "loads": "loads.csv",
            "delivery_factors": "delivery_factors.csv",
            "areas": "areas.csv",
        },
        "output_dir": "results",
    }
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"synthetic bundle in {out}: {len(network.land_segments)} land "
          f"segments, {len(network.outlets)} outlets")
    return EXIT_OK


def cmd_report(solution_path: str, config: RunConfig) -> int:
    network = topology.load_network(config.network_path)
    applied, loads, dfs, areas = _read_datasets(config)
    flows = report.flows_from_tabular(report.import_tabular(solution_path))
    delivery = None
    if dfs is not None:
        delivery = measurement.compute_delivery_model(
            network, dfs, areas, missing_policy=config.missing_df_policy)
    capabilities = topology.instantiate_capabilities(network, default_operands())
    _, fit_rows, _ = _assemble_constraints(
        network, capabilities, applied, loads, delivery)
    fit = report.build_fit_report(
        fit_rows, report.flow_totals(flows, capabilities, network),
        nrmse_normalizer=config.nrmse_normalizer)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    fit.write_csv(out / "fit_report.csv")
    for row in fit.rows:
        note = f"  ({row.note})" if row.note else ""
        print(f"{row.data_type:>20}  {row.operand:>10}  {row.metric:>22}  "
              f"{row.value:.6g}{note}")
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
                       choices=("error", "passthrough"))
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
    synth.add_argument("--county-mode", choices=("per-segment", "grouped"),
                       default="per-segment")

    rep = sub.add_parser("report", help="recompute fit metrics from an export")
    rep.add_argument("--solution", required=True, help="exported solution.csv")
    add_config_flags(rep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
        if args.command == "report":
            return cmd_report(args.solution, config)
        parser.error(f"unknown command {args.command!r}")
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
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
