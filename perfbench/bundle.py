"""Workload definitions and synthetic input bundles for the benchmark.

A bundle is what a planner hands to ``basinflow estimate``: a network
file, the four dataset CSVs and a ``config.json``.  The benchmark also
writes the ground truth (keyed by ``report.capability_entity``, as the
``synth`` command does) and ``bundle_meta.json`` with the facts the checks
need; the program never reads either.

Run as a script it makes one bundle in a fresh interpreter, so that its
peak RSS is the generator's own, and prints one JSON line::

    python3 perfbench/bundle.py --spec '<json>' --seed 7 --out DIR

The bundle is made again, into the same directory, until ``SETUP_MIN_S``
has passed; ``setup_s`` is the mean time of one bundle over these repeats,
so that a small set-up is timed over a window as long as a large one.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# The solver tolerance the bundles ask for; the checks gate on the same value.
TOL = 1e-8
# A set-up child repeats the bundle until this much time has passed.
SETUP_MIN_S = 1.0


@dataclass(frozen=True)
class Workload:
    n_outlets: int
    land_per_outlet: tuple[int, int]
    county_mode: str
    load_scale: float
    k_steps: int
    branching: int = 3


# See README.md for why each workload has the shape it has.
WORKLOADS = {
    "wide-k1": Workload(1500, (1, 3), "per-segment", 1.0, 1),
    "horizon-k12": Workload(100, (1, 1), "per-segment", 1.0, 12, branching=1),
}


def spec_to_json(spec: Workload) -> str:
    return json.dumps(dataclasses.asdict(spec), sort_keys=True)


def spec_from_json(text: str) -> Workload:
    doc = json.loads(text)
    doc["land_per_outlet"] = tuple(doc["land_per_outlet"])
    return Workload(**doc)


def rhs_inf_norm(datasets) -> float:
    """||b||_inf of the measurement rows the datasets produce.

    Accept rows sum applied masses per (county, sector, operand), EoS rows
    sum per (county, operand), the EoT row sums every county per operand;
    relation and balance rows have a zero constant.
    """
    sums: dict[tuple, float] = {}
    for rec in datasets.applied:
        key = ("applied", rec.county, rec.sector, rec.operand)
        sums[key] = sums.get(key, 0.0) + rec.mass
    for rec in datasets.loads:
        if rec.kind == "EoS":
            key = ("eos", rec.county, rec.operand)
        elif rec.kind == "EoT":
            key = ("eot", rec.operand)
        else:
            continue
        sums[key] = sums.get(key, 0.0) + rec.mass
    return max((abs(v) for v in sums.values()), default=0.0)


def make_bundle(spec: Workload, seed: int, out: Path) -> dict:
    """Generate and write one bundle; return timings and sizes."""
    from basinflow import measurement, report, synthetic

    t0 = time.perf_counter()
    network, truth, datasets = synthetic.generate_synthetic(
        spec.n_outlets, branching=spec.branching, seed=seed,
        land_per_outlet=spec.land_per_outlet, county_mode=spec.county_mode,
        load_scale=spec.load_scale)
    generate_s = time.perf_counter() - t0

    out.mkdir(parents=True, exist_ok=True)
    network.save(out / "network.json")
    measurement.write_applied(out / "applied.csv", datasets.applied)
    measurement.write_loads(out / "loads.csv", datasets.loads)
    measurement.write_delivery_factors(out / "delivery_factors.csv",
                                       datasets.delivery_factors)
    measurement.write_areas(out / "areas.csv", datasets.areas)
    config = {
        "network": "network.json",
        "datasets": {family: f"{family}.csv" for family in
                     ("applied", "loads", "delivery_factors", "areas")},
        "k_steps": spec.k_steps,
        "tol": TOL,
        "output_dir": "results",
    }
    (out / "config.json").write_text(json.dumps(config, indent=1, sort_keys=True)
                                     + "\n", encoding="utf-8")
    setup_s = time.perf_counter() - t0

    with open(out / "ground_truth.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.TABULAR_HEADER)
        for cap in truth.capabilities:
            kind, entity = report.capability_entity(cap, network)
            writer.writerow([entity, kind, cap.capability_class.operand_name,
                             "flow", repr(float(truth.u[cap.id]))])
    meta = {
        "rhs_inf_norm": rhs_inf_norm(datasets),
        "land_segments": len(network.land_segments),
        "outlets": len(network.outlets),
    }
    (out / "bundle_meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n",
                                          encoding="utf-8")
    return {"generate_s": generate_s, "setup_s": setup_s, **meta}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec, out = spec_from_json(args.spec), Path(args.out)
    result = make_bundle(spec, args.seed, out)
    times = [result["setup_s"]]
    while sum(times) < SETUP_MIN_S:
        times.append(make_bundle(spec, args.seed, out)["setup_s"])
    result["setup_s"] = sum(times) / len(times)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
