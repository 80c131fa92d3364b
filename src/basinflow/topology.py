"""Watershed network model: land segments, outlets, river links, estuaries.

A network is a dendritic (tree-shaped) graph: every land segment drains to
exactly one outlet point through its river segment, every outlet has exactly
one downstream river link, and all water ultimately reaches an estuary.
Each group of the network file is a table, an ``np.recarray`` of its
``GROUPS`` dtype, as each dataset family is, so readers take whole columns
(``network.land_segments.county``).  Loading performs schema and reference
checks; :func:`validate_routing` reports structural violations (cycles,
braids, unreachable estuaries) as data rather than raising.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Sequence

import numpy as np

from .core_net import OPERAND_NAMES, Capabilities
from .measurement import table

SCHEMA_VERSION = 1
# A buffer's kind, by where its record lies in the network.
BUFFER_KINDS = ("land_segment", "outlet_point", "estuary")


# The network file's groups, in the order they are read, each with its
# table's dtype, the group's whole schema.  Field names are the record keys,
# in the order a record's problems are reported.  Every field holds Python
# objects: text; a land segment's areas as a tuple of (load source, acres)
# pairs; coordinates as an (x, y) pair, or None.
GROUPS = {group: np.dtype([(name, object) for name in names.split()])
          for group, names in (
              ("land_segments", "external_id county river_segment_id "
                                "load_source_areas coordinates"),
              ("outlets", "external_id river_segment_id coordinates"),
              ("river_links", "from_outlet to_node"),
              ("estuaries", "external_id coordinates"))}


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

    Each group is a table of its ``GROUPS`` dtype.  Buffer ids (used for
    all place vectors) run over land segments first in file order, then
    outlets, then estuaries.  The network resolves its references once,
    into arrays by position: ``buffer_names`` and ``buffer_kinds`` (a
    ``BUFFER_KINDS`` entry) by buffer id; ``link_from`` and ``link_to``,
    the buffer ids of each river link's ends, and ``link_names``, each link
    as "from->to"; ``land_outlet`` and ``land_county``, each land segment's
    outlet position and county code; ``downstream``, the tree.
    ``buffer_id`` and ``county_code`` map names to ids and codes, counties
    coded in order of first appearance.
    """

    land_segments: np.recarray
    outlets: np.recarray
    river_links: np.recarray
    estuaries: np.recarray

    @cached_property
    def buffer_names(self) -> np.ndarray:
        return np.concatenate([self.land_segments.external_id,
                               self.outlets.external_id,
                               self.estuaries.external_id])

    @cached_property
    def buffer_kinds(self) -> np.ndarray:
        return np.repeat(np.array(BUFFER_KINDS, dtype=object), [
            len(self.land_segments), len(self.outlets), len(self.estuaries)])

    @property
    def n_buffers(self) -> int:
        return self.buffer_names.size

    @cached_property
    def buffer_id(self) -> dict[str, int]:
        return dict(zip(self.buffer_names.tolist(), range(self.n_buffers)))

    @cached_property
    def link_from(self) -> np.ndarray:
        return _lookup(self.buffer_id, self.river_links.from_outlet)

    @cached_property
    def link_to(self) -> np.ndarray:
        return _lookup(self.buffer_id, self.river_links.to_node)

    @cached_property
    def link_names(self) -> np.ndarray:
        return self.river_links.from_outlet + "->" + self.river_links.to_node

    @cached_property
    def land_outlet(self) -> np.ndarray:
        """Position in ``outlets`` of each land segment's outlet."""
        segments = self.outlets.river_segment_id.tolist()
        return _lookup(dict(zip(segments, range(len(segments)))),
                       self.land_segments.river_segment_id)

    @cached_property
    def county_code(self) -> dict[str, int]:
        counties = dict.fromkeys(self.land_segments.county.tolist())
        return dict(zip(counties, range(len(counties))))

    @cached_property
    def land_county(self) -> np.ndarray:
        return _lookup(self.county_code, self.land_segments.county)

    @cached_property
    def downstream(self) -> np.ndarray:
        """Each buffer's first downstream buffer in file order, or -1: a
        land segment's outlet, the far end of an outlet's first river link,
        and -1 at an estuary or at an outlet with no link."""
        n_land = len(self.land_segments)
        down = np.full(self.n_buffers, -1, dtype=np.intp)
        down[:n_land] = n_land + self.land_outlet
        outlets, first = np.unique(self.link_from, return_index=True)
        down[outlets] = self.link_to[first]
        return down

    def save(self, path) -> None:
        """Write the network file byte for byte as ``json.dump(doc, fh,
        indent=1, sort_keys=True)`` and a newline write it: records are
        rendered by column from their group's template and streamed, with
        no ``coordinates`` key where a record has none and each land
        segment's areas as ``dict(load_source_areas)`` in key order."""
        def json_text(field: str, values: list) -> Iterable[str]:
            """A field's values as JSON text; the numbers of coordinates
            and areas are rendered in one pass."""
            if field == "coordinates":
                numbers = iter(json_numbers([
                    value for xy in values if xy is not None for value in xy]))
                return ["" if xy is None else
                        _COORDINATES % (next(numbers), next(numbers))
                        for xy in values]
            if field == "load_source_areas":
                pairs = [sorted(dict(items).items()) for items in values]
                acres = iter(json_numbers([value for items in pairs
                                           for _, value in items]))
                return ["{\n    %s\n   }" % ",\n    ".join([
                    "%s: %s" % (_json_string(source), next(acres))
                    for source, _ in items]) if items else "{}"
                    for items in pairs]
            return map(_json_string, values)

        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n")
            for group in sorted(GROUPS):
                rows = getattr(self, group)
                records = map(_RECORDS[group].__mod__, zip(*(
                    json_text(field, rows[field].tolist())
                    for field in sorted(GROUPS[group].names))))
                first = next(records, None)
                if first is None:
                    fh.write(f' "{group}": [],\n')
                    continue
                fh.write(f' "{group}": [\n{first}')
                fh.writelines(map(",\n".__add__, records))
                fh.write("\n ],\n")
            fh.write(f' "schema": {SCHEMA_VERSION}\n}}\n')


def _lookup(codes: dict, names: np.ndarray) -> np.ndarray:
    """The code of each of ``names``, as an index array."""
    return np.fromiter(map(codes.__getitem__, names.tolist()), np.intp,
                       len(names))


# ``json.dumps`` spells these floats, and None, unlike ``repr``.
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "None": "null"}


def json_numbers(values: Iterable) -> list[str]:
    """Numbers, or None, as ``json.dumps`` writes them."""
    return [_JSON_CONSTANTS.get(text, text) for text in map(repr, values)]


# One record of each group of the network file, as ``json.dump(...,
# indent=1, sort_keys=True)`` writes it inside its group's list, its fields
# as JSON text in key order; the coordinates member, which sorts first, is
# ``_COORDINATES`` filled in, or nothing.
_COORDINATES = '\n   "coordinates": [\n    %s,\n    %s\n   ],'
_RECORDS = {
    group: "  {%s%s\n  }" % ("%s" * ("coordinates" in dtype.names), ",".join(
        f'\n   "{field}": %s' for field in sorted(dtype.names)
        if field != "coordinates"))
    for group, dtype in GROUPS.items()}


# The largest finite float.  Python compares an int with it exactly, so a
# JSON integer beyond float range fails ``<=`` where ``float()`` would raise.
_FLOAT_MAX = sys.float_info.max


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number: ``bool`` is an ``int`` to Python."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_coordinates(raw, where: str, problems: list[str]):
    if raw is None:
        return None
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(map(_is_number, raw))):
        problems.append(f"{where}: coordinates must be a [x, y] pair")
        return None
    if abs(raw[0]) <= _FLOAT_MAX and abs(raw[1]) <= _FLOAT_MAX:
        return (float(raw[0]), float(raw[1]))
    problems.append(f"{where}: coordinates must be finite, got {raw!r}")
    return None


def _parse_areas(raw: dict, where: str, problems: list[str]):
    areas = []
    for src, acres in raw.items():
        if not _is_number(acres) or not 0 <= acres <= _FLOAT_MAX:
            problems.append(f"{where}: area for load source {src!r} must be "
                            f"a finite non-negative number, got {acres!r}")
        else:
            areas.append((str(src), float(acres)))
    return tuple(areas)


# A field's JSON type (None: the field is optional) and the parser of its
# value; any other field is a required JSON string, kept as it is.
_FIELDS = {"load_source_areas": (dict, _parse_areas),
           "coordinates": (None, _parse_coordinates)}


def _read_group(group: str, raw: list, problems: list[str]) -> np.recarray:
    """The table of ``group``, read field by field through its dtype.  A
    record that is not an object, or has a missing or mistyped field, is
    noted and skipped before its areas and coordinates are parsed."""
    schema = [(name, *_FIELDS.get(name, (str, None)))
              for name in GROUPS[group].names]
    required = [(name, kind) for name, kind, _ in schema if kind is not None]
    rows = []
    for i, record in enumerate(raw):
        where = f"{group}[{i}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: record must be an object")
            continue
        known = len(problems)
        for name, kind in required:
            if name not in record:
                problems.append(f"{where}: missing field {name!r}")
            elif not isinstance(record[name], kind):
                problems.append(f"{where}: {name} must be "
                                f"{'a string' if kind is str else 'an object'}, "
                                f"got {record[name]!r}")
        if len(problems) == known:
            rows.append(tuple([record[name] if parse is None else
                               parse(record.get(name), where, problems)
                               for name, _, parse in schema]))
    return table(GROUPS[group], rows)


def network_from_dict(doc: dict) -> WatershedNetwork:
    """Build and check a network from parsed file content.

    All schema problems are collected and raised together in a
    :class:`NetworkSchemaError` so a bad file is reported in one pass.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise NetworkSchemaError(["top level must be an object"])
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION or isinstance(schema, bool):
        problems.append(f"schema version must be {SCHEMA_VERSION}, got {schema!r}")
    for key in GROUPS:
        if not isinstance(doc.get(key), list):
            problems.append(f"missing or non-array field {key!r}")
    if problems:
        raise NetworkSchemaError(problems)
    groups = {group: _read_group(group, doc[group], problems)
              for group in GROUPS}
    lands, outlets, links, estuaries = groups.values()

    # Identifier uniqueness across the whole buffer namespace; to_node
    # references are only unambiguous when outlet and estuary ids never clash.
    seen: set[str] = set()
    for kind, items in (("land segment", lands), ("outlet", outlets),
                        ("estuary", estuaries)):
        for name in items.external_id.tolist():
            if name in seen:
                problems.append(f"duplicate external_id {name!r} ({kind})")
            seen.add(name)

    outlet_ids = set(outlets.external_id.tolist())
    node_ids = outlet_ids | set(estuaries.external_id.tolist())
    for source, target in zip(links.from_outlet.tolist(),
                              links.to_node.tolist()):
        if source not in outlet_ids:
            problems.append(f"river link references unknown outlet {source!r}")
        if target not in node_ids:
            problems.append(f"river link from {source!r} references unknown "
                            f"node {target!r}")

    rseg_counts = Counter(outlets.river_segment_id.tolist())
    for rseg, count in rseg_counts.items():
        if count > 1:
            problems.append(f"river segment {rseg!r} is claimed by {count} "
                            f"outlets; land segments cannot be mapped "
                            f"unambiguously")
    for name, rseg in zip(lands.external_id.tolist(),
                          lands.river_segment_id.tolist()):
        if rseg not in rseg_counts:
            problems.append(f"land segment {name!r} references river segment "
                            f"{rseg!r} with no outlet")

    if problems:
        raise NetworkSchemaError(problems)
    return WatershedNetwork(**groups)


def load_network(path) -> WatershedNetwork:
    """Load a network file (JSON, schema version 1); a leading byte-order
    mark is ignored."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise NetworkSchemaError(
                [f"{path}: not UTF-8 text ({exc.reason})"]) from exc
        except json.JSONDecodeError as exc:
            raise NetworkSchemaError([f"{path}: not valid JSON: {exc}"]) from exc
    return network_from_dict(doc)


def validate_routing(network: WatershedNetwork) -> RoutingReport:
    """Check the dendritic-tree invariants, reporting violations as data.

    Flags outlets with zero or multiple downstream links, cycles among
    outlets, and other outlets from which no estuary can be reached.  Cycles and
    reachability follow ``network.downstream``: for an outlet with several
    links, the first in file order.  The walk relies on the reference checks
    of :func:`network_from_dict`: every river link runs from an outlet to an
    outlet or an estuary, and every land segment's river segment has an
    outlet.
    """
    violations: list[RoutingViolation] = []
    names = network.buffer_names.tolist()
    down = network.downstream.tolist()
    n_land, n_outlets = len(network.land_segments), len(network.outlets)
    estuary = n_land + n_outlets  # the first estuary's buffer id

    n_down = np.bincount(network.link_from - n_land, minlength=n_outlets)
    for outlet in (n_land + np.flatnonzero(n_down != 1)).tolist():
        targets = [names[b] for b in
                   network.link_to[network.link_from == outlet].tolist()]
        if not targets:
            violations.append(RoutingViolation(
                "orphan_outlet", names[outlet],
                "outlet has no downstream river link"))
        else:
            violations.append(RoutingViolation(
                "multiple_downstream", names[outlet],
                f"outlet has {len(targets)} downstream links "
                f"({', '.join(targets)}); the network must be dendritic"))

    # With one successor per outlet the outlet graph is functional, so a
    # walk down from each outlet either reaches an estuary, stops at an
    # orphan, or closes on itself; each cycle is reported by the walk that
    # first closes it.  Every outlet on a walk shares its end's verdict.
    reaches: dict[int, bool] = {}
    for start in range(n_land, estuary):
        walk: dict[int, int] = {}
        node = start
        while n_land <= node < estuary and node not in reaches and node not in walk:
            walk[node] = len(walk)
            node = down[node]
        if node in walk:
            cycle = [names[b] for b in list(walk)[walk[node]:]] + [names[node]]
            violations.append(RoutingViolation(
                "cycle", names[node],
                "river links form a cycle: " + " -> ".join(cycle)))
        ok = reaches[node] if node in reaches else node >= estuary
        for visited in walk:
            reaches[visited] = ok

    # An orphan is reported once, as an orphan; the outlets above it are
    # unreachable.
    for outlet in range(n_land, estuary):
        if not reaches[outlet] and down[outlet] >= 0:
            violations.append(RoutingViolation(
                "unreachable_estuary", names[outlet],
                "no directed path from this outlet reaches an estuary"))

    return RoutingReport(tuple(violations))


def instantiate_capabilities(network: WatershedNetwork) -> Capabilities:
    """The capabilities of a validated network, as index arrays.

    Ids run per land segment and operand: agricultural accept, developed
    accept, and land-to-outlet transport (in that order); then per river
    link and operand: one river transport.  Operands run as in
    ``OPERAND_NAMES``, so the total count is ``3 * len(OPERAND_NAMES) *
    n_land + len(OPERAND_NAMES) * n_links``.
    """
    n_land, n_links, n_ops = (len(network.land_segments),
                              len(network.river_links), len(OPERAND_NAMES))
    land_buf = np.arange(n_land)
    outlet_buf = n_land + network.land_outlet
    link_from, link_to = network.link_from, network.link_to
    land_name = network.buffer_names[:n_land]
    link_segment = network.outlets.river_segment_id[link_from - n_land]

    # A land segment has a slot per operand for each of the first three
    # ``CAPABILITY_KINDS``, a river link for the last; a code is kind * n_ops + op.
    op_code = np.arange(n_ops)
    land_class = np.arange(3) * n_ops + op_code[:, None]
    link_class = 3 * n_ops + op_code
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
