"""Watershed network model: land segments, outlets, river links, estuaries.

A network is a dendritic (tree-shaped) graph: every land segment drains to
exactly one outlet point through its river segment, every outlet has exactly
one downstream river link, and all water ultimately reaches an estuary.
Loading performs schema and reference checks; :func:`validate_routing`
reports structural violations (cycles, braids, unreachable estuaries) as
data rather than raising.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .core_net import (
    CAPABILITY_CLASSES,
    OPERAND_NAMES,
    SECTORS,
    BufferKind,
    BufferSpec,
    Capabilities,
    CapabilityClass,
)

SCHEMA_VERSION = 1


class NetworkSchemaError(ValueError):
    """Raised by :func:`load_network` with the full list of violations."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        preview = "; ".join(self.violations[:5])
        more = len(self.violations) - 5
        if more > 0:
            preview += f"; ... ({more} more)"
        super().__init__(f"invalid network file: {preview}")


@dataclass(frozen=True)
class LandSegment:
    external_id: str
    county: str
    river_segment_id: str
    load_source_areas: tuple[tuple[str, float], ...]
    coordinates: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class Outlet:
    external_id: str
    river_segment_id: str
    coordinates: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class RiverLink:
    from_outlet: str
    to_node: str


@dataclass(frozen=True)
class Estuary:
    external_id: str
    coordinates: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class RoutingViolation:
    kind: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.message}"


@dataclass(frozen=True)
class RoutingReport:
    violations: tuple[RoutingViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "routing: ok"
        return "\n".join(str(v) for v in self.violations)


@dataclass
class WatershedNetwork:
    """The instantiated system form. Immutable after construction.

    Buffer ordering (used for all place vectors): land segments first in
    file order, then outlets, then estuaries.
    """

    land_segments: tuple[LandSegment, ...]
    outlets: tuple[Outlet, ...]
    river_links: tuple[RiverLink, ...]
    estuaries: tuple[Estuary, ...] = field(default_factory=tuple)

    @cached_property
    def buffer_specs(self) -> tuple[BufferSpec, ...]:
        specs = []
        for land in self.land_segments:
            specs.append(BufferSpec(len(specs), BufferKind.LAND_SEGMENT,
                                    land.external_id, land.county))
        for outlet in self.outlets:
            specs.append(BufferSpec(len(specs), BufferKind.OUTLET_POINT,
                                    outlet.external_id))
        for estuary in self.estuaries:
            specs.append(BufferSpec(len(specs), BufferKind.ESTUARY,
                                    estuary.external_id))
        return tuple(specs)

    @cached_property
    def buffer_id(self) -> dict[str, int]:
        return {spec.external_id: spec.id for spec in self.buffer_specs}

    @cached_property
    def estuary_ids(self) -> frozenset[str]:
        return frozenset(e.external_id for e in self.estuaries)

    @cached_property
    def land_outlet(self) -> np.ndarray:
        """Position in ``outlets`` of each land segment's outlet."""
        position = {o.river_segment_id: j for j, o in enumerate(self.outlets)}
        return np.array([position[land.river_segment_id]
                         for land in self.land_segments], dtype=np.intp)

    def to_dict(self) -> dict:
        def record(item) -> dict:
            doc = {key: value for key, value in vars(item).items()
                   if value is not None}  # no coordinates: no key
            if isinstance(item, LandSegment):
                doc["load_source_areas"] = dict(item.load_source_areas)
            return doc

        return {"schema": SCHEMA_VERSION,
                **{group: list(map(record, getattr(self, group))) for group in
                   ("land_segments", "outlets", "river_links", "estuaries")}}

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def _parse_coordinates(raw, where: str, problems: list[str]):
    if raw is None:
        return None
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(v, (int, float)) for v in raw)):
        problems.append(f"{where}: coordinates must be a [x, y] pair")
        return None
    if math.isfinite(raw[0]) and math.isfinite(raw[1]):
        return (float(raw[0]), float(raw[1]))
    problems.append(f"{where}: coordinates must be finite, got {raw!r}")
    return None


def network_from_dict(doc: dict) -> WatershedNetwork:
    """Build and check a network from parsed file content.

    All schema problems are collected and raised together in a
    :class:`NetworkSchemaError` so a bad file is reported in one pass.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise NetworkSchemaError(["top level must be an object"])
    if doc.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema version must be {SCHEMA_VERSION}, got {doc.get('schema')!r}"
        )
    for key in ("land_segments", "outlets", "river_links", "estuaries"):
        if not isinstance(doc.get(key), list):
            problems.append(f"missing or non-array field {key!r}")
    if problems:
        raise NetworkSchemaError(problems)

    def need(record, key: str, where: str):
        if not isinstance(record, dict):
            problems.append(f"{where}: record must be an object")
            return None
        if key not in record:
            problems.append(f"{where}: missing field {key!r}")
            return None
        return record[key]

    lands: list[LandSegment] = []
    for i, rec in enumerate(doc["land_segments"]):
        where = f"land_segments[{i}]"
        ext = need(rec, "external_id", where)
        county = need(rec, "county", where)
        rseg = need(rec, "river_segment_id", where)
        areas_raw = need(rec, "load_source_areas", where)
        if None in (ext, county, rseg, areas_raw):
            continue
        if not isinstance(areas_raw, dict):
            problems.append(f"{where}: load_source_areas must be an object")
            continue
        areas = []
        for src, acres in areas_raw.items():
            if not isinstance(acres, (int, float)) or not 0 <= acres < math.inf:
                problems.append(
                    f"{where}: area for load source {src!r} must be a "
                    f"finite non-negative number, got {acres!r}"
                )
            else:
                areas.append((str(src), float(acres)))
        lands.append(LandSegment(
            str(ext), str(county), str(rseg), tuple(areas),
            _parse_coordinates(rec.get("coordinates"), where, problems),
        ))

    outlets: list[Outlet] = []
    for i, rec in enumerate(doc["outlets"]):
        where = f"outlets[{i}]"
        ext = need(rec, "external_id", where)
        rseg = need(rec, "river_segment_id", where)
        if None in (ext, rseg):
            continue
        outlets.append(Outlet(
            str(ext), str(rseg),
            _parse_coordinates(rec.get("coordinates"), where, problems),
        ))

    links: list[RiverLink] = []
    for i, rec in enumerate(doc["river_links"]):
        where = f"river_links[{i}]"
        frm = need(rec, "from_outlet", where)
        to = need(rec, "to_node", where)
        if None in (frm, to):
            continue
        links.append(RiverLink(str(frm), str(to)))

    estuaries: list[Estuary] = []
    for i, rec in enumerate(doc["estuaries"]):
        where = f"estuaries[{i}]"
        ext = need(rec, "external_id", where)
        if ext is None:
            continue
        estuaries.append(Estuary(
            str(ext), _parse_coordinates(rec.get("coordinates"), where, problems),
        ))

    # Identifier uniqueness across the whole buffer namespace; to_node
    # references are only unambiguous when outlet and estuary ids never clash.
    seen: set[str] = set()
    for kind, items in (("land segment", lands), ("outlet", outlets),
                        ("estuary", estuaries)):
        for item in items:
            if item.external_id in seen:
                problems.append(f"duplicate external_id {item.external_id!r} ({kind})")
            seen.add(item.external_id)

    outlet_ids = {o.external_id for o in outlets}
    node_ids = outlet_ids | {e.external_id for e in estuaries}
    for link in links:
        if link.from_outlet not in outlet_ids:
            problems.append(
                f"river link references unknown outlet {link.from_outlet!r}"
            )
        if link.to_node not in node_ids:
            problems.append(
                f"river link from {link.from_outlet!r} references unknown "
                f"node {link.to_node!r}"
            )

    rseg_counts: dict[str, int] = {}
    for outlet in outlets:
        rseg_counts[outlet.river_segment_id] = rseg_counts.get(outlet.river_segment_id, 0) + 1
    for rseg, count in rseg_counts.items():
        if count > 1:
            problems.append(
                f"river segment {rseg!r} is claimed by {count} outlets; land "
                f"segments cannot be mapped unambiguously"
            )
    for land in lands:
        if land.river_segment_id not in rseg_counts:
            problems.append(
                f"land segment {land.external_id!r} references river segment "
                f"{land.river_segment_id!r} with no outlet"
            )

    if problems:
        raise NetworkSchemaError(problems)
    return WatershedNetwork(tuple(lands), tuple(outlets), tuple(links),
                            tuple(estuaries))


def load_network(path) -> WatershedNetwork:
    """Load a network file (JSON, schema version 1); a leading byte-order
    mark is ignored."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkSchemaError([f"not valid JSON: {exc}"]) from exc
    return network_from_dict(doc)


def validate_routing(network: WatershedNetwork) -> RoutingReport:
    """Check the dendritic-tree invariants, reporting violations as data.

    Flags outlets with zero or multiple downstream links, cycles among
    outlets, and outlets from which no estuary can be reached.  Cycles and
    reachability follow one downstream link per outlet: for an outlet with
    several, the first in file order.
    """
    violations: list[RoutingViolation] = []
    out_links: dict[str, list[str]] = {o.external_id: [] for o in network.outlets}
    for link in network.river_links:
        if link.from_outlet in out_links:
            out_links[link.from_outlet].append(link.to_node)

    for outlet in network.outlets:
        targets = out_links[outlet.external_id]
        if not targets:
            violations.append(RoutingViolation(
                "orphan_outlet", outlet.external_id,
                "outlet has no downstream river link"))
        elif len(targets) > 1:
            violations.append(RoutingViolation(
                "multiple_downstream", outlet.external_id,
                f"outlet has {len(targets)} downstream links "
                f"({', '.join(targets)}); the network must be dendritic"))

    # With one successor per outlet the outlet graph is functional, so a
    # walk down from each outlet either reaches an estuary, stops at an
    # orphan, or closes on itself; each cycle is reported by the walk that
    # first closes it.  Every outlet on a walk shares its end's verdict.
    estuary_ids = network.estuary_ids
    reaches: dict[str, bool] = {}
    for start in out_links:
        walk: dict[str, int] = {}
        node: Optional[str] = start
        while node in out_links and node not in reaches and node not in walk:
            walk[node] = len(walk)
            targets = out_links[node]
            node = targets[0] if targets else None
        if node in walk:
            cycle = list(walk)[walk[node]:] + [node]
            violations.append(RoutingViolation(
                "cycle", node, "river links form a cycle: " + " -> ".join(cycle)))
        ok = reaches[node] if node in reaches else node in estuary_ids
        for visited in walk:
            reaches[visited] = ok

    for outlet in network.outlets:
        if not reaches[outlet.external_id]:
            violations.append(RoutingViolation(
                "unreachable_estuary", outlet.external_id,
                "no directed path from this outlet reaches an estuary"))

    return RoutingReport(tuple(violations))


def derive_connectivity_from_names(
    segment_ids: Sequence[str],
) -> tuple[list[tuple[str, Optional[str]]], list[tuple[str, str]]]:
    """Derive river links from CAST-style segment identifiers.

    CAST river segment ids end in a 4-character pointer naming the
    downstream segment's own 4-character number; the reserved pointer
    "0000" marks a segment that drains directly to the estuary.  A
    segment's own number is the last 4 characters of its id once the
    pointer (and any separator such as "_") is stripped, left-padded with
    zeros when shorter.  Example: "EL0_4557_0000" is estuarine segment
    4557; "EL0_4830_4557" drains into it.

    Returns ``(links, unresolved)`` where each link is ``(segment,
    downstream_segment)`` with ``None`` standing for the estuary, and
    ``unresolved`` lists ``(segment, pointer)`` pairs whose pointer matched
    no known segment.
    """
    own_key: dict[str, str] = {}
    for seg in segment_ids:
        if len(seg) < 5:
            raise ValueError(
                f"segment id {seg!r} too short for a trailing 4-character "
                f"downstream pointer"
            )
        stem = seg[:-4].rstrip("_-")
        own_key[stem[-4:].rjust(4, "0")] = seg

    links: list[tuple[str, Optional[str]]] = []
    unresolved: list[tuple[str, str]] = []
    for seg in segment_ids:
        pointer = seg[-4:]
        if pointer == "0000":
            links.append((seg, None))
        elif pointer in own_key:
            links.append((seg, own_key[pointer]))
        else:
            unresolved.append((seg, pointer))
    return links, unresolved


def instantiate_capabilities(network: WatershedNetwork) -> Capabilities:
    """The capabilities of a validated network, as index arrays.

    Ids run per land segment and operand: agricultural accept, developed
    accept, and land-to-outlet transport (in that order); then per river
    link and operand: one river transport.  Operands run as in
    ``OPERAND_NAMES``, so the total count is ``3 * len(OPERAND_NAMES) *
    n_land + len(OPERAND_NAMES) * n_links``.
    """
    lands, links = network.land_segments, network.river_links
    n_land, n_links, n_ops = len(lands), len(links), len(OPERAND_NAMES)
    buffer_id = network.buffer_id
    land_buf = np.array([buffer_id[l.external_id] for l in lands], dtype=np.intp)
    outlet_buf = n_land + network.land_outlet
    link_from = np.array([buffer_id[l.from_outlet] for l in links], dtype=np.intp)
    link_to = np.array([buffer_id[l.to_node] for l in links], dtype=np.intp)
    outlet_by_id = {o.external_id: o for o in network.outlets}
    land_name = np.array([l.external_id for l in lands], dtype=object)
    link_segment = np.array([outlet_by_id[l.from_outlet].river_segment_id
                             for l in links], dtype=object)

    def code(action: str, sector: Optional[str], operand: str) -> int:
        return CAPABILITY_CLASSES.index(CapabilityClass((action, sector, operand)))

    # A land segment has three slots per operand: the two accepts, then the
    # land-to-outlet transport; a river link has one.
    land_class = np.array([[code("accept", s, op) for s in SECTORS]
                           + [code("transport_land", None, op)]
                           for op in OPERAND_NAMES], dtype=np.intp)
    link_class = np.array([code("transport_river", None, op)
                           for op in OPERAND_NAMES], dtype=np.intp)
    op_code = np.arange(n_ops)
    no_origin = np.full(n_land, -1, dtype=np.intp)

    def by_id(on_land, on_link) -> np.ndarray:
        """Land values broadcast over (land, operand, slot), then link values
        over (link, operand), flattened into id order."""
        return np.concatenate([np.broadcast_to(on_land, (n_land, n_ops, 3)).ravel(),
                               np.broadcast_to(on_link, (n_links, n_ops)).ravel()])

    land_ids = np.arange(3 * n_ops * n_land).reshape(n_land, n_ops, 3)
    link_ids = land_ids.size + np.arange(n_links * n_ops).reshape(n_links, n_ops)
    return Capabilities(
        capability_class=by_id(land_class, link_class),
        operand=by_id(op_code[:, None], op_code),
        origin=by_id(np.stack([no_origin, no_origin, land_buf], axis=1)[:, None],
                     link_from[:, None]),
        destination=by_id(np.stack([land_buf, land_buf, outlet_buf], axis=1)[:, None],
                          link_to[:, None]),
        resource=by_id(land_name[:, None, None], link_segment[:, None]),
        accept=land_ids[:, :, :2].transpose(0, 2, 1),
        land_transport=land_ids[:, :, 2], river_transport=link_ids)
