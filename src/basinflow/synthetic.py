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

import bisect
import random
from dataclasses import dataclass

import numpy as np

from .core_net import OPERAND_NAMES, SECTORS, Capabilities
from .measurement import (
    APPLIED,
    AREAS,
    DELIVERY_FACTORS,
    DF_STAGES,
    LOAD_KINDS,
    LOADS,
    DeliveryModel,
    compute_delivery_model,
    table,
    table_from_columns,
)
from .topology import GROUPS, WatershedNetwork, instantiate_capabilities

LOAD_SOURCE_POOL = ("row_crops", "pasture", "developed_low",
                    "developed_high", "forest")
COUNTY_MODES = ("per-segment", "grouped")

# Base applied-load ranges in lbs/yr.  The estimator divides its penalties
# by the data's squared unit, so their bias on the recovered flows does not
# grow with these magnitudes; they stay as they are because the pinned
# bundle digests depend on them.
_LOAD_RANGE = {"nitrogen": (0.5, 20.0), "phosphorus": (0.05, 2.0)}


@dataclass(frozen=True, eq=False)
class SyntheticDatasets:
    """One table per dataset family, of the family's ``measurement`` dtype."""

    applied: np.recarray
    loads: np.recarray
    delivery_factors: np.recarray
    areas: np.recarray


@dataclass(frozen=True)
class GroundTruth:
    capabilities: Capabilities
    u: np.ndarray
    delivery: DeliveryModel


def _sum_by(group: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Column sums of ``values`` over the rows of each group, added in row
    order as the estimator's ``np.bincount`` sums are."""
    return np.stack([np.bincount(group, weights=column, minlength=n_groups)
                     for column in values.T], axis=1)


def _product(*levels) -> list[np.ndarray]:
    """The columns of the rows of ``itertools.product(*levels)``, as object
    arrays."""
    return [grid.ravel() for grid in np.meshgrid(
        *(np.array(level, dtype=object) for level in levels), indexing="ij")]


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
    loads, e.g. to reach county loads of real magnitude; the estimator's
    penalties scale with the data, so their bias on the recovered flows
    does not grow with the scale.
    """
    if n_outlets < 1:
        raise ValueError("n_outlets must be >= 1")
    if branching < 1:
        raise ValueError("branching must be >= 1")
    lo, hi = land_per_outlet
    if not 1 <= lo <= hi:
        raise ValueError(f"land_per_outlet must be (lo, hi) with "
                         f"1 <= lo <= hi, got {land_per_outlet!r}")
    if county_mode not in COUNTY_MODES:
        raise ValueError(f"unknown county_mode {county_mode!r}")
    rng = random.Random(seed)

    estuary_id = "bay"
    # Parents chosen among nodes with spare child capacity, kept sorted;
    # parents always precede children, so descending outlet order is
    # upstream-first.
    parent: list[int] = []  # -1 means the estuary
    children: list[list[int]] = [[] for _ in range(n_outlets + 1)]  # bay last
    open_nodes = [-1]
    for i in range(n_outlets):
        p = rng.choice(open_nodes)
        parent.append(p)
        children[p].append(i)
        if len(children[p]) == branching:
            del open_nodes[bisect.bisect_left(open_nodes, p)]
        open_nodes.append(i)

    def seg_number(i: int) -> int:
        return i + 1

    river_segment_ids = []
    for i in range(n_outlets):
        down = 0 if parent[i] == -1 else seg_number(parent[i])
        river_segment_ids.append(f"SYN0_{seg_number(i):04d}_{down:04d}")

    outlet_ids = [f"outlet-{seg_number(i):04d}" for i in range(n_outlets)]
    outlets = table(GROUPS["outlets"], [
        (outlet_id, segment, (round(rng.uniform(-77.5, -75.0), 6),
                              round(rng.uniform(37.0, 41.0), 6)))
        for outlet_id, segment in zip(outlet_ids, river_segment_ids)])
    river_links = table(GROUPS["river_links"], [
        (outlet_ids[i], estuary_id if parent[i] == -1 else outlet_ids[parent[i]])
        for i in range(n_outlets)])
    estuaries = table(GROUPS["estuaries"], [(estuary_id, (-76.2, 37.5))])

    # River-to-bay targets shrink upstream so aggregated link ratios stay
    # below one (no inconsistency warnings on clean data).
    outlet_rtb_target = [0.0] * n_outlets
    for i in range(n_outlets):
        if parent[i] == -1:
            outlet_rtb_target[i] = rng.uniform(0.4, 0.9)
        else:
            outlet_rtb_target[i] = outlet_rtb_target[parent[i]] * rng.uniform(0.5, 0.8)

    # Table columns are gathered per land segment as it is drawn; the rows
    # of each table are then built whole, by column.
    lands: list[tuple] = []  # land segment records, in GROUPS field order
    area_land: list[str] = []  # per (land segment, load source)
    area_source: list[str] = []
    acres: list[float] = []
    factors: list[float] = []  # per (land segment, load source, stage)
    used_land_ids: set[str] = set()
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
            lands.append((land_id, county, river_segment_ids[i], areas,
                          (round(rng.uniform(-77.5, -75.0), 6),
                           round(rng.uniform(37.0, 41.0), 6))))
            area_land += [land_id] * len(sources)
            area_source += sources
            acres += [area for _, area in areas]

            land_to_water = rng.uniform(0.1, 0.9)
            stream_to_river = rng.uniform(0.3, 0.9)
            river_to_bay = outlet_rtb_target[i] * rng.uniform(0.95, 1.05)
            for _ in sources:  # one factor per stage, in DF_STAGES order
                factors += [land_to_water * rng.uniform(0.9, 1.1),
                            stream_to_river * rng.uniform(0.9, 1.1),
                            river_to_bay * rng.uniform(0.97, 1.03)]

    network = WatershedNetwork(table(GROUPS["land_segments"], lands), outlets,
                               river_links, estuaries)
    capabilities = instantiate_capabilities(network)
    area_table = table_from_columns(AREAS, area_land, area_source, acres)
    delivery_factors = table_from_columns(
        DELIVERY_FACTORS, np.repeat(area_table.segment, len(DF_STAGES)),
        np.repeat(area_table.load_source, len(DF_STAGES)),
        np.tile(np.array(DF_STAGES, dtype=object), len(area_table)), factors)
    # The exact coefficients the estimator will derive from the datasets.
    delivery = compute_delivery_model(network, delivery_factors, area_table)

    # Applied masses by (land segment, operand, sector), drawn in that order.
    mass = np.reshape([round(rng.uniform(*_LOAD_RANGE[operand]) * load_scale, 9)
                       for _ in lands for operand in OPERAND_NAMES
                       for _ in SECTORS], (len(lands), len(OPERAND_NAMES), -1))
    county, operand, sector = _product(network.land_segments.county,
                                       OPERAND_NAMES, SECTORS)
    applied = table_from_columns(APPLIED, county, sector, operand,
                                 mass.ravel())
    u = np.zeros(len(capabilities))
    u[capabilities.accept] = mass.transpose(0, 2, 1)
    land_transport = delivery.land_factor[:, None] * mass.sum(axis=2)
    u[capabilities.land_transport] = land_transport

    # Upstream-first accumulation down the tree: inflow at an outlet is its
    # land transports plus all upstream link flows.
    link_flow = _sum_by(network.land_outlet, land_transport, n_outlets)
    for i in range(n_outlets - 1, -1, -1):
        for child in children[i]:
            link_flow[i] += link_flow[child]
        link_flow[i] *= delivery.link_ratio[i]
    u[capabilities.river_transport] = link_flow

    # Per county, in order of first appearance: its EoS load, and the part
    # of it that reaches the tide (telescoping link ratios reduce to the
    # outlet-level river-to-bay factor), reported as EoT and StreamToTide.
    counties = list(network.county_code)
    reaching = land_transport * delivery.outlet_river_to_bay[network.land_outlet, None]
    eos = _sum_by(network.land_county, land_transport, len(counties))
    tide = _sum_by(network.land_county, reaching, len(counties))
    loads = table_from_columns(
        LOADS, *_product(counties, OPERAND_NAMES, LOAD_KINDS),
        np.stack([eos, tide, tide], axis=2).ravel())

    datasets = SyntheticDatasets(
        applied=applied,
        loads=loads,
        delivery_factors=delivery_factors,
        areas=area_table,
    )
    truth = GroundTruth(capabilities, u, delivery)
    return network, truth, datasets
