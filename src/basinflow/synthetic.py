"""Synthetic watershed generator with exactly consistent ground truth.

Builds a random dendritic tree, draws per-load-source delivery factors and
applied loads, forward-simulates the exact flow through every capability,
and emits datasets (applied, loads, delivery factors, areas) that the
measurement pipeline reproduces bit-for-bit: the delivery coefficients are
aggregated with the same functions the estimator uses, so substituting the
ground truth into every assembled constraint leaves zero error up to
floating-point roundoff.

Everything is driven by one ``random.Random(seed)``; a fixed seed gives
byte-identical output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .core_net import OPERAND_NAMES, SECTORS, Capabilities, Operand, default_operands
from .measurement import (
    AppliedNutrientRecord,
    AreaRecord,
    DeliveryFactorRecord,
    DeliveryModel,
    LoadRecord,
    compute_delivery_model,
)
from .topology import (
    Estuary,
    LandSegment,
    Outlet,
    RiverLink,
    WatershedNetwork,
    instantiate_capabilities,
)

LOAD_SOURCE_POOL = ("row_crops", "pasture", "developed_low",
                    "developed_high", "forest")

# Base applied-load ranges in lbs/yr.  Kept small so the quadratic
# uniqueness penalty on flows (default 1e-10) biases the recovered flows
# by well under 1e-4 relative: that bias grows like alpha * constant^2.
_LOAD_RANGE = {"nitrogen": (0.5, 20.0), "phosphorus": (0.05, 2.0)}


@dataclass(frozen=True)
class SyntheticDatasets:
    applied: tuple[AppliedNutrientRecord, ...]
    loads: tuple[LoadRecord, ...]
    delivery_factors: tuple[DeliveryFactorRecord, ...]
    areas: tuple[AreaRecord, ...]


@dataclass(frozen=True)
class GroundTruth:
    operands: tuple[Operand, ...]
    capabilities: Capabilities
    u: np.ndarray
    delivery: DeliveryModel


def generate_synthetic(n_outlets: int, branching: int = 3, seed: int = 0,
                       land_per_outlet: tuple[int, int] = (1, 3),
                       county_mode: str = "per-segment",
                       load_scale: float = 1.0,
                       ) -> tuple[WatershedNetwork, GroundTruth, SyntheticDatasets]:
    """Generate a consistent (network, ground truth, datasets) triple.

    ``branching`` caps the number of upstream children per node.  With the
    default ``county_mode="per-segment"`` every land segment gets its own
    county, which makes every flow identifiable from the datasets (the
    estimator can recover the ground truth exactly); ``"grouped"`` pools
    several land segments per county, exercising aggregated rows at the
    cost of flow identifiability.  ``load_scale`` multiplies the applied
    loads; large scales trade recovery precision against realism because
    the flow penalty's pull grows with the squared constants.
    """
    if n_outlets < 1:
        raise ValueError("n_outlets must be >= 1")
    if branching < 1:
        raise ValueError("branching must be >= 1")
    if county_mode not in ("per-segment", "grouped"):
        raise ValueError(f"unknown county_mode {county_mode!r}")
    rng = random.Random(seed)

    estuary_id = "bay"
    # Parents chosen among nodes with spare child capacity; parents always
    # precede children, so descending outlet order is upstream-first.
    parent: list[int] = []  # -1 means the estuary
    child_count: dict[int, int] = {-1: 0}
    for i in range(n_outlets):
        candidates = [n for n, c in child_count.items() if c < branching]
        p = rng.choice(sorted(candidates))
        parent.append(p)
        child_count[p] += 1
        child_count[i] = 0

    def seg_number(i: int) -> int:
        return i + 1

    river_segment_ids = []
    for i in range(n_outlets):
        down = 0 if parent[i] == -1 else seg_number(parent[i])
        river_segment_ids.append(f"SYN0_{seg_number(i):04d}_{down:04d}")

    outlets = tuple(
        Outlet(f"outlet-{seg_number(i):04d}", river_segment_ids[i],
               coordinates=(round(rng.uniform(-77.5, -75.0), 6),
                            round(rng.uniform(37.0, 41.0), 6)))
        for i in range(n_outlets)
    )
    river_links = tuple(
        RiverLink(outlets[i].external_id,
                  estuary_id if parent[i] == -1
                  else outlets[parent[i]].external_id)
        for i in range(n_outlets)
    )
    estuaries = (Estuary(estuary_id, coordinates=(-76.2, 37.5)),)

    # River-to-bay targets shrink upstream so aggregated link ratios stay
    # below one (no inconsistency warnings on clean data).
    outlet_rtb_target = [0.0] * n_outlets
    for i in range(n_outlets):
        if parent[i] == -1:
            outlet_rtb_target[i] = rng.uniform(0.4, 0.9)
        else:
            outlet_rtb_target[i] = outlet_rtb_target[parent[i]] * rng.uniform(0.5, 0.8)

    lands: list[LandSegment] = []
    df_records: list[DeliveryFactorRecord] = []
    area_records: list[AreaRecord] = []
    used_land_ids: set[str] = set()
    lo, hi = land_per_outlet
    county_pool_size = max(1, (n_outlets * (lo + hi)) // 6)
    for i in range(n_outlets):
        n_land = rng.randint(lo, hi)
        for _ in range(n_land):
            idx = len(lands)
            if county_mode == "per-segment":
                county = f"county-{idx + 1:04d}"
            else:
                county = f"county-{rng.randrange(county_pool_size) + 1:04d}"
            land_id = f"{county}_{river_segment_ids[i]}"
            if land_id in used_land_ids:
                land_id = f"{land_id}_{idx}"
            used_land_ids.add(land_id)
            sources = sorted(rng.sample(LOAD_SOURCE_POOL, rng.randint(1, 3)))
            areas = tuple((src, round(rng.uniform(20.0, 2000.0), 3))
                          for src in sources)
            lands.append(LandSegment(
                land_id, county, river_segment_ids[i], areas,
                coordinates=(round(rng.uniform(-77.5, -75.0), 6),
                             round(rng.uniform(37.0, 41.0), 6))))
            for src, acres in areas:
                area_records.append(AreaRecord(land_id, src, acres))

            land_to_water = rng.uniform(0.1, 0.9)
            stream_to_river = rng.uniform(0.3, 0.9)
            river_to_bay = outlet_rtb_target[i] * rng.uniform(0.95, 1.05)
            for src, _ in areas:
                df_records.append(DeliveryFactorRecord(
                    land_id, src, "landToWater",
                    land_to_water * rng.uniform(0.9, 1.1)))
                df_records.append(DeliveryFactorRecord(
                    land_id, src, "streamToRiver",
                    stream_to_river * rng.uniform(0.9, 1.1)))
                df_records.append(DeliveryFactorRecord(
                    land_id, src, "riverToBay",
                    river_to_bay * rng.uniform(0.97, 1.03)))

    network = WatershedNetwork(tuple(lands), outlets, river_links, estuaries)
    operands = default_operands()
    capabilities = instantiate_capabilities(network, operands)
    # The exact coefficients the estimator will derive from the datasets.
    delivery = compute_delivery_model(network, df_records, area_records)

    u = np.zeros(len(capabilities))
    applied_records: list[AppliedNutrientRecord] = []
    land_transport: dict[tuple[str, str], float] = {}
    for li, land in enumerate(lands):
        for op in operands:
            o = OPERAND_NAMES.index(op.name)
            lo_m, hi_m = _LOAD_RANGE[op.name]
            total = 0.0
            for s, sector in enumerate(SECTORS):
                mass = round(rng.uniform(lo_m, hi_m) * load_scale, 9)
                applied_records.append(AppliedNutrientRecord(
                    land.county, sector, op.name, mass))
                u[capabilities.accept[li, s, o]] = mass
                total += mass
            t = delivery.land_factor[land.external_id] * total
            land_transport[(land.external_id, op.name)] = t
            u[capabilities.land_transport[li, o]] = t

    # Upstream-first accumulation down the tree: inflow at an outlet is its
    # land transports plus all upstream link flows.
    link_flow: dict[tuple[str, str, str], float] = {}
    for i in range(n_outlets - 1, -1, -1):
        outlet = outlets[i]
        link = river_links[i]
        ratio = delivery.link_ratio[(link.from_outlet, link.to_node)]
        for op in operands:
            total = sum(
                land_transport[(land.external_id, op.name)]
                for land in network.land_by_outlet[outlet.external_id]
            )
            for inbound in network.links_into.get(outlet.external_id, ()):
                total += link_flow[(inbound.from_outlet, inbound.to_node, op.name)]
            flow = ratio * total
            link_flow[(link.from_outlet, link.to_node, op.name)] = flow
            u[capabilities.river_transport[i, OPERAND_NAMES.index(op.name)]] = flow

    load_records: list[LoadRecord] = []
    county_order: dict[str, None] = {}
    for land in lands:
        county_order.setdefault(land.county)
    for county in county_order:
        county_lands = [l for l in lands if l.county == county]
        for op in operands:
            eos = sum(land_transport[(l.external_id, op.name)]
                      for l in county_lands)
            # Mass from this county that reaches the tide: telescoping
            # link ratios reduce to the outlet-level river-to-bay factor.
            tide = sum(
                land_transport[(l.external_id, op.name)]
                * delivery.outlet_river_to_bay[network.outlet_of_land(l).external_id]
                for l in county_lands
            )
            load_records.append(LoadRecord(county, op.name, "EoS", eos))
            load_records.append(LoadRecord(county, op.name, "EoT", tide))
            load_records.append(LoadRecord(county, op.name, "StreamToTide", tide))

    datasets = SyntheticDatasets(
        applied=tuple(applied_records),
        loads=tuple(load_records),
        delivery_factors=tuple(df_records),
        areas=tuple(area_records),
    )
    truth = GroundTruth(operands, capabilities, u, delivery)
    return network, truth, datasets
