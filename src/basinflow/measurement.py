"""Dataset parsing and measurement-system assembly.

Behavioral datasets (applied nutrient masses, edge-of-stream and
end-of-tide loads, per-load-source delivery factors and areas) are turned
into the measurement system ``D U - error = constant``.  Every row carries
its own error variable so imperfect data never makes the estimation
infeasible; the per-row weight ``1 / max(constant^2, 2)`` normalizes each
squared error by the magnitude of the datum it checks.

``D`` is the paper's capability aggregation D_E, one sparse row per datum
or transport relation and one column per capability.  ``expand_constraints``
lifts it onto a K-step horizon with the temporal aggregation D_T.  The fit
report scores flows through the same rows, plus StreamToTide rows that
never enter the estimation, so only this module knows how a datum
aggregates flows.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .core_net import OPERAND_NAMES, SECTORS, Capabilities

if TYPE_CHECKING:
    from .topology import WatershedNetwork

LOAD_KINDS = ("EoS", "EoT", "StreamToTide")
DF_STAGES = ("landToWater", "streamToRiver", "riverToBay")

WEIGHT_FLOOR = 2.0  # lbs^2; constants below sqrt(2) share the cap weight 1/2


class DataConsistencyWarning(UserWarning):
    """Questionable but tolerated dataset content (e.g. a delivery-factor
    ratio above one)."""


class DatasetFormatError(ValueError):
    """A dataset file is missing columns or holds unparseable values."""


@dataclass(frozen=True)
class AppliedNutrientRecord:
    county: str
    sector: str
    operand: str
    mass: float

    def __post_init__(self):
        if self.sector not in SECTORS:
            raise ValueError(
                f"sector {self.sector!r} not supported; expected one of "
                f"{SECTORS} (other source sectors are out of scope)"
            )
        if self.operand not in OPERAND_NAMES:
            raise ValueError(f"unknown operand {self.operand!r}")
        if self.mass < 0:
            raise ValueError(f"applied mass must be >= 0, got {self.mass}")


@dataclass(frozen=True)
class LoadRecord:
    county: str
    operand: str
    kind: str
    mass: float

    def __post_init__(self):
        if self.kind not in LOAD_KINDS:
            raise ValueError(f"unknown load kind {self.kind!r}; expected {LOAD_KINDS}")
        if self.operand not in OPERAND_NAMES:
            raise ValueError(f"unknown operand {self.operand!r}")
        if self.mass < 0:
            raise ValueError(f"load mass must be >= 0, got {self.mass}")


@dataclass(frozen=True)
class DeliveryFactorRecord:
    land_river_segment: str
    load_source: str
    stage: str
    factor: float

    def __post_init__(self):
        if self.stage not in DF_STAGES:
            raise ValueError(f"unknown stage {self.stage!r}; expected {DF_STAGES}")
        if self.factor < 0:
            raise ValueError(f"delivery factor must be >= 0, got {self.factor}")
        if self.factor > 1.0:
            warnings.warn(
                f"delivery factor {self.factor} > 1 for segment "
                f"{self.land_river_segment!r} stage {self.stage}; retained",
                DataConsistencyWarning, stacklevel=3,
            )


@dataclass(frozen=True)
class AreaRecord:
    land_river_segment: str
    load_source: str
    acres: float

    def __post_init__(self):
        if self.acres < 0:
            raise ValueError(f"area must be >= 0, got {self.acres}")


@dataclass(frozen=True)
class MeasurementConstraint:
    """One row of a :class:`MeasurementSystem`, read-only; coefficients are
    ``((step, capability), value)`` pairs with steps 1..K."""

    coefficients: tuple[tuple[tuple[int, int], float], ...]
    constant: float
    label: str
    weight: Optional[float] = None


@dataclass(frozen=True, eq=False)
class MeasurementSystem:
    """The measurement rows ``d @ U - error = constant`` as one sparse matrix.

    ``d`` is CSR with one row per measurement and one column per (step,
    capability), step-major: column ``(k - 1) * n_caps + cap`` is step k's
    firing of ``cap``.  ``relation`` flags transport-relation rows, which
    hold at every step; the other rows are data rows, which measure horizon
    totals.  ``weight`` stays None until :func:`compute_weights`.

    ``label`` is slash-separated provenance, "family/key.../operand"; the
    leading token groups rows into the accept / eos / eot / transport
    families used by residual reporting.
    """

    d: sp.csr_matrix
    constant: np.ndarray
    label: tuple[str, ...]
    relation: np.ndarray
    weight: Optional[np.ndarray] = None
    n_steps: int = 1

    def __len__(self) -> int:
        return self.d.shape[0]

    def __getitem__(self, r: int) -> MeasurementConstraint:
        r = range(len(self))[r]
        n_caps = self.d.shape[1] // self.n_steps
        lo, hi = self.d.indptr[r], self.d.indptr[r + 1]
        coefficients = tuple(
            ((col // n_caps + 1, col % n_caps), value) for col, value in
            zip(self.d.indices[lo:hi].tolist(), self.d.data[lo:hi].tolist()))
        weight = None if self.weight is None else float(self.weight[r])
        return MeasurementConstraint(coefficients, float(self.constant[r]),
                                     self.label[r], weight)

    @property
    def family(self) -> np.ndarray:
        return np.array([label.split("/", 1)[0] for label in self.label])

    @property
    def operand(self) -> np.ndarray:
        return np.array([label.rsplit("/", 1)[-1] for label in self.label])


def stack_systems(systems: Sequence[MeasurementSystem]) -> MeasurementSystem:
    """Join row blocks over the same columns, in the given order."""
    weights = [s.weight for s in systems]
    return MeasurementSystem(
        sp.vstack([s.d for s in systems], format="csr"),
        np.concatenate([s.constant for s in systems]),
        tuple(label for s in systems for label in s.label),
        np.concatenate([s.relation for s in systems]),
        None if any(w is None for w in weights) else np.concatenate(weights),
        systems[0].n_steps)


# ---------------------------------------------------------------------------
# Dataset file parsing
# ---------------------------------------------------------------------------

def _read_records(path, required: Sequence[str], record) -> list:
    """``record(*fields)`` for each nonblank row, ``fields`` being its
    ``required`` columns in that order.  A value ``record`` rejects with a
    ValueError is reported with the file and line that hold it."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [col for col in required if col not in header]
        if missing:
            raise DatasetFormatError(
                f"{path}: missing required column(s) {', '.join(missing)}"
            )
        cols = [header.index(col) for col in required]
        records = []
        for row in reader:
            if not row:
                continue
            if len(row) < len(header):
                raise DatasetFormatError(
                    f"{path} line {reader.line_num}: {len(row)} fields, the "
                    f"header has {len(header)}")
            try:
                records.append(record(*[row[i] for i in cols]))
            except ValueError as exc:
                raise DatasetFormatError(
                    f"{path} line {reader.line_num}: {exc}") from None
        return records


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _canon_operand(raw: str) -> str:
    name = raw.strip().lower()
    if name not in OPERAND_NAMES:
        raise ValueError(
            f"unknown operand {raw!r}; expected nitrogen or phosphorus")
    return name


def read_applied(path) -> list[AppliedNutrientRecord]:
    return _read_records(
        path, ("county", "sector", "operand", "mass"),
        lambda county, sector, operand, mass: AppliedNutrientRecord(
            county.strip(), sector.strip().lower(), _canon_operand(operand),
            _parse_float(mass)))


def read_loads(path) -> list[LoadRecord]:
    return _read_records(
        path, ("county", "operand", "kind", "mass"),
        lambda county, operand, kind, mass: LoadRecord(
            county.strip(), _canon_operand(operand), kind.strip(),
            _parse_float(mass)))


def read_delivery_factors(path) -> list[DeliveryFactorRecord]:
    return _read_records(
        path, ("segment", "load_source", "stage", "factor"),
        lambda segment, load_source, stage, factor: DeliveryFactorRecord(
            segment.strip(), load_source.strip(), stage.strip(),
            _parse_float(factor)))


def read_areas(path) -> list[AreaRecord]:
    return _read_records(
        path, ("segment", "load_source", "acres"),
        lambda segment, load_source, acres: AreaRecord(
            segment.strip(), load_source.strip(), _parse_float(acres)))


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def write_applied(path, records: Sequence[AppliedNutrientRecord]) -> None:
    _write_csv(path, ("county", "sector", "operand", "mass"),
               ((r.county, r.sector, r.operand, r.mass) for r in records))


def write_loads(path, records: Sequence[LoadRecord]) -> None:
    _write_csv(path, ("county", "operand", "kind", "mass"),
               ((r.county, r.operand, r.kind, r.mass) for r in records))


def write_delivery_factors(path, records: Sequence[DeliveryFactorRecord]) -> None:
    _write_csv(path, ("segment", "load_source", "stage", "factor"),
               ((r.land_river_segment, r.load_source, r.stage, r.factor)
                for r in records))


def write_areas(path, records: Sequence[AreaRecord]) -> None:
    _write_csv(path, ("segment", "load_source", "acres"),
               ((r.land_river_segment, r.load_source, r.acres) for r in records))


# ---------------------------------------------------------------------------
# Delivery factors
# ---------------------------------------------------------------------------

def weighted_delivery_factor(factors: Mapping[str, float],
                             areas: Mapping[str, float]) -> float:
    """Area-weighted mean of per-load-source factors.

    Factors without a matching area are skipped with a warning; the shared
    key set must be nonempty with positive total area.
    """
    shared = [k for k in factors if k in areas]
    for k in factors:
        if k not in areas:
            warnings.warn(
                f"load source {k!r} has a delivery factor but no area; skipped",
                DataConsistencyWarning, stacklevel=2,
            )
    if not shared:
        raise ValueError("no load source has both a delivery factor and an area")
    total = sum(areas[k] for k in shared)
    if total <= 0:
        raise ValueError("total area over shared load sources is zero")
    return sum(factors[k] * areas[k] for k in shared) / total


def interoutlet_delivery_factor(df_up_river_to_bay: float,
                                df_down_river_to_bay: float,
                                segment: str = "") -> float:
    """Fraction of flow routed between consecutive outlets.

    The telescoping ratio of river-to-bay factors; a ratio above one is a
    dataset inconsistency, retained unclamped with a warning.
    """
    if df_down_river_to_bay == 0:
        raise ValueError(
            f"downstream river-to-bay delivery factor is zero"
            + (f" for segment {segment!r}" if segment else "")
        )
    ratio = df_up_river_to_bay / df_down_river_to_bay
    if ratio > 1.0:
        warnings.warn(
            f"inter-outlet delivery ratio {ratio:.6g} > 1"
            + (f" at segment {segment!r}" if segment else "")
            + "; retained unclamped",
            DataConsistencyWarning, stacklevel=2,
        )
    return ratio


def outlet_delivery_factor(contributing_land_factors: Sequence[float]) -> float:
    """Unweighted mean over the land segments draining to one outlet."""
    if not contributing_land_factors:
        raise ValueError("outlet has no contributing land-segment factors")
    return sum(contributing_land_factors) / len(contributing_land_factors)


@dataclass(frozen=True)
class DeliveryModel:
    """Per-entity attenuation coefficients derived from the raw factors.

    ``land_factor`` maps each land segment to its land-to-water times
    stream-to-river product; ``outlet_river_to_bay`` averages the
    contributing land segments' river-to-bay factors; ``link_ratio`` maps
    each river link to the fraction of upstream-outlet inflow it carries
    (river-to-bay ratio, or the bare upstream factor for estuary links).
    """

    land_factor: dict[str, float]
    outlet_river_to_bay: dict[str, float]
    link_ratio: dict[tuple[str, str], float]


def compute_delivery_model(network: "WatershedNetwork",
                           df_records: Sequence[DeliveryFactorRecord],
                           area_records: Optional[Sequence[AreaRecord]] = None,
                           missing_policy: str = "error") -> DeliveryModel:
    """Aggregate raw per-load-source factors into model coefficients.

    Areas come from ``area_records`` when given, else from the network's
    ``load_source_areas``.  A land segment lacking factors for a stage is
    an error by default; ``missing_policy="passthrough"`` substitutes 1.0
    with a warning per segment.
    """
    if missing_policy not in ("error", "passthrough"):
        raise ValueError(f"unknown missing_policy {missing_policy!r}")

    by_segment: dict[str, dict[str, dict[str, float]]] = {}
    for rec in df_records:
        by_segment.setdefault(rec.land_river_segment, {}).setdefault(
            rec.stage, {})[rec.load_source] = rec.factor

    areas_by_segment: dict[str, dict[str, float]] = {}
    if area_records is not None:
        for rec in area_records:
            areas_by_segment.setdefault(rec.land_river_segment, {})[
                rec.load_source] = rec.acres
    else:
        for land in network.land_segments:
            areas_by_segment[land.external_id] = land.areas

    def stage_factor(land_id: str, stage: str) -> float:
        factors = by_segment.get(land_id, {}).get(stage)
        if not factors:
            if missing_policy == "error":
                raise ValueError(
                    f"land segment {land_id!r} has no {stage} delivery "
                    f"factors; rerun with the passthrough policy to default "
                    f"them to 1.0"
                )
            warnings.warn(
                f"land segment {land_id!r}: missing {stage} delivery factor, "
                f"defaulting to 1.0",
                DataConsistencyWarning, stacklevel=3,
            )
            return 1.0
        areas = areas_by_segment.get(land_id, {})
        if not areas:
            if missing_policy == "error":
                raise ValueError(
                    f"land segment {land_id!r} has delivery factors but no "
                    f"load-source areas"
                )
            warnings.warn(
                f"land segment {land_id!r}: no areas to weight {stage} "
                f"factors, defaulting to 1.0",
                DataConsistencyWarning, stacklevel=3,
            )
            return 1.0
        return weighted_delivery_factor(factors, areas)

    land_factor: dict[str, float] = {}
    land_rtb: dict[str, float] = {}
    for land in network.land_segments:
        land_factor[land.external_id] = (
            stage_factor(land.external_id, "landToWater")
            * stage_factor(land.external_id, "streamToRiver")
        )
        land_rtb[land.external_id] = stage_factor(land.external_id, "riverToBay")

    outlet_rtb: dict[str, float] = {}
    for outlet in network.outlets:
        contributing = [
            land_rtb[land.external_id]
            for land in network.land_by_outlet[outlet.external_id]
        ]
        if contributing:
            outlet_rtb[outlet.external_id] = outlet_delivery_factor(contributing)
        elif missing_policy == "passthrough":
            warnings.warn(
                f"outlet {outlet.external_id!r} has no contributing land "
                f"segments; river-to-bay factor defaulted to 1.0",
                DataConsistencyWarning, stacklevel=2,
            )
            outlet_rtb[outlet.external_id] = 1.0
        else:
            raise ValueError(
                f"outlet {outlet.external_id!r} has no contributing land "
                f"segments to average a river-to-bay factor from"
            )

    link_ratio: dict[tuple[str, str], float] = {}
    for link in network.river_links:
        up = outlet_rtb[link.from_outlet]
        if link.to_node in network.estuary_ids:
            # Remaining attenuation from this outlet is exactly its own
            # river-to-bay factor (downstream factor is 1 at the bay).
            link_ratio[(link.from_outlet, link.to_node)] = up
        else:
            link_ratio[(link.from_outlet, link.to_node)] = (
                interoutlet_delivery_factor(up, outlet_rtb[link.to_node],
                                            segment=link.to_node)
            )
    return DeliveryModel(land_factor, outlet_rtb, link_ratio)




# ---------------------------------------------------------------------------
# Measurement-system assembly (one step; see expand_constraints)
# ---------------------------------------------------------------------------

def _groups(keys: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Group positions by key: group g is ``members[ptr[g]:ptr[g + 1]]``."""
    ptr = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n_groups))))
    return ptr, np.argsort(keys, kind="stable")


def _gather(ptr: np.ndarray, members: np.ndarray,
            groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, member) pairs listing the members of group ``groups[row]``."""
    counts = ptr[groups + 1] - ptr[groups]
    rows = np.repeat(np.arange(groups.size), counts)
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return rows, members[np.repeat(ptr[groups], counts) + offsets]


def _system(rows, cols, values, constant, label, n_caps: int,
            relation: bool) -> MeasurementSystem:
    if (np.asarray(cols) < 0).any():
        raise ValueError("capability set lacks a capability the network "
                         "implies; instantiate it from the same network")
    d = sp.csr_matrix((values, (rows, cols)), shape=(len(label), n_caps))
    return MeasurementSystem(d, np.array(constant, dtype=float), tuple(label),
                             np.full(len(label), relation))


def _county_rows(totals: dict, network, family: str, what: str):
    """Rows over the land segments of each county in ``totals`` that has any."""
    codes: dict[str, int] = {}
    land_county = np.array([codes.setdefault(land.county, len(codes))
                            for land in network.land_segments], dtype=np.intp)
    ptr, members = _groups(land_county, len(codes))
    keys = [key for key in totals if key[0] in codes]
    skipped = [f"{what} record for county {key[0]!r} matches no land segment; "
               f"constraint skipped" for key in totals if key[0] not in codes]
    rows, lands = _gather(ptr, members,
                          np.array([codes[key[0]] for key in keys], dtype=np.intp))
    labels = ["/".join((family,) + key) for key in keys]
    return keys, rows, lands, labels, skipped


def assemble_accept_constraints(
    records: Sequence[AppliedNutrientRecord],
    network: "WatershedNetwork",
    capabilities: Capabilities,
) -> tuple[MeasurementSystem, list[str]]:
    """One row per (county, sector, operand) over that county's accepts.

    Returns the rows plus diagnostics for records naming counties with no
    land segments (skipped, not fatal).
    """
    totals: dict[tuple[str, str, str], float] = {}
    for rec in records:
        key = (rec.county, rec.sector, rec.operand)
        totals[key] = totals.get(key, 0.0) + rec.mass
    keys, rows, lands, labels, skipped = _county_rows(
        totals, network, "accept", "applied")
    sector = np.array([SECTORS.index(k[1]) for k in keys], dtype=np.intp)
    op = np.array([OPERAND_NAMES.index(k[2]) for k in keys], dtype=np.intp)
    cols = capabilities.accept[lands, sector[rows], op[rows]]
    return _system(rows, cols, np.ones(cols.size), [totals[k] for k in keys],
                   labels, capabilities.n_caps, relation=False), skipped


def _county_load_rows(records: Sequence[LoadRecord], kind: str, family: str,
                      network: "WatershedNetwork", capabilities: Capabilities,
                      land_weight: np.ndarray) -> tuple[MeasurementSystem, list[str]]:
    """One row per (county, operand) of ``kind`` loads over the county's
    land-to-outlet transports, land segment i weighted ``land_weight[i]``."""
    totals: dict[tuple[str, str], float] = {}
    for rec in records:
        if rec.kind == kind:
            key = (rec.county, rec.operand)
            totals[key] = totals.get(key, 0.0) + rec.mass
    keys, rows, lands, labels, skipped = _county_rows(totals, network, family, kind)
    op = np.array([OPERAND_NAMES.index(k[1]) for k in keys], dtype=np.intp)
    cols = capabilities.land_transport[lands, op[rows]]
    return _system(rows, cols, land_weight[lands], [totals[k] for k in keys],
                   labels, capabilities.n_caps, relation=False), skipped


def assemble_eos_constraints(
    records: Sequence[LoadRecord],
    network: "WatershedNetwork",
    capabilities: Capabilities,
) -> tuple[MeasurementSystem, list[str]]:
    """One row per (county, operand) over land-to-outlet transports."""
    return _county_load_rows(records, "EoS", "eos", network, capabilities,
                             np.ones(len(network.land_segments)))


def assemble_stream_to_tide(
    records: Sequence[LoadRecord],
    network: "WatershedNetwork",
    capabilities: Capabilities,
    delivery: DeliveryModel,
) -> tuple[MeasurementSystem, list[str]]:
    """One row per (county, operand) of StreamToTide loads: the county's
    land-to-outlet transports, each times its outlet's river-to-bay factor.

    These rows score the fit only; they never enter the estimation.
    """
    rtb = np.array([
        delivery.outlet_river_to_bay[network.outlet_of_land(land).external_id]
        for land in network.land_segments])
    return _county_load_rows(records, "StreamToTide", "stream_to_tide",
                             network, capabilities, rtb)


def assemble_eot_constraints(
    records: Sequence[LoadRecord],
    network: "WatershedNetwork",
    capabilities: Capabilities,
) -> tuple[MeasurementSystem, list[str]]:
    """One row per operand: all estuary-bound river transports sum to the
    end-of-tide total (summed across reporting counties)."""
    totals: dict[str, float] = {}
    for rec in records:
        if rec.kind == "EoT":
            totals[rec.operand] = totals.get(rec.operand, 0.0) + rec.mass
    terminal = [i for i, link in enumerate(network.river_links)
                if link.to_node in network.estuary_ids]
    river = capabilities.river_transport[terminal]
    rows, cols, constants, labels, skipped = [], [], [], [], []
    for operand, mass in totals.items():
        caps = river[:, OPERAND_NAMES.index(operand)]
        caps = caps[caps >= 0]
        if not caps.size:
            skipped.append(
                f"EoT record for operand {operand!r} but the network has no "
                f"estuary-bound river transport; constraint skipped")
            continue
        rows += [len(labels)] * caps.size
        cols += caps.tolist()
        constants.append(mass)
        labels.append(f"eot/{operand}")
    return _system(rows, cols, np.ones(len(cols)), constants, labels,
                   capabilities.n_caps, relation=False), skipped


def assemble_transport_relations(
    network: "WatershedNetwork",
    capabilities: Capabilities,
    delivery: DeliveryModel,
) -> MeasurementSystem:
    """Zero-constant rows tying each transport firing to its inflow.

    Land rows: transport - land_factor * (segment accepts) = error.
    River rows: link flow - link_ratio * (inflow to the upstream outlet,
    i.e. its land transports plus upstream links) = error.  Rows run land
    by land, then link by link, operands fastest.
    """
    lands, links = network.land_segments, network.river_links
    buffer_id = network.buffer_id

    land, land_op = np.nonzero(capabilities.land_transport >= 0)
    factor = np.array([delivery.land_factor[l.external_id] for l in lands])
    r, sector = np.nonzero(capabilities.accept[land, :, land_op] >= 0)
    rows = [np.arange(land.size), r]
    cols = [capabilities.land_transport[land, land_op],
            capabilities.accept[land[r], sector, land_op[r]]]
    values = [np.ones(land.size), -factor[land[r]]]

    link, link_op = np.nonzero(capabilities.river_transport >= 0)
    ratio = np.array([delivery.link_ratio[(l.from_outlet, l.to_node)]
                      for l in links])
    up = np.array([buffer_id[l.from_outlet] for l in links], dtype=np.intp)[link]
    land_outlet = np.array([buffer_id[network.outlet_of_land(l).external_id]
                            for l in lands], dtype=np.intp)
    link_to = np.array([buffer_id[l.to_node] for l in links], dtype=np.intp)
    base = land.size
    rows.append(base + np.arange(link.size))
    cols.append(capabilities.river_transport[link, link_op])
    values.append(np.ones(link.size))
    for source, keys in ((capabilities.land_transport, land_outlet),
                         (capabilities.river_transport, link_to)):
        r, member = _gather(*_groups(keys, len(network.buffer_specs)), up)
        caps = source[member, link_op[r]]
        keep = caps >= 0
        rows.append(base + r[keep])
        cols.append(caps[keep])
        values.append(-ratio[link[r[keep]]])

    labels = [f"transport/land/{lands[i].external_id}/{OPERAND_NAMES[o]}"
              for i, o in zip(land.tolist(), land_op.tolist())]
    labels += [f"transport/river/{links[i].from_outlet}->{links[i].to_node}/"
               f"{OPERAND_NAMES[o]}" for i, o in zip(link.tolist(), link_op.tolist())]
    return _system(np.concatenate(rows), np.concatenate(cols),
                   np.concatenate(values), np.zeros(len(labels)), labels,
                   capabilities.n_caps, relation=True)


def compute_weights(system: MeasurementSystem) -> MeasurementSystem:
    """Set each row's weight to ``1 / max(constant^2, 2)``."""
    return replace(system, weight=1.0 / np.maximum(
        system.constant * system.constant, WEIGHT_FLOOR))


def expand_constraints(system: MeasurementSystem,
                       k_steps: int) -> MeasurementSystem:
    """Lift single-step rows onto a ``k_steps`` horizon (the paper's D_T).

    Data rows measure horizon totals and become ``kron(ones((1, K)),
    D_data)``; relation rows hold at every step and become ``kron(I_K,
    D_rel)``, relabelled ``head@k{k}/operand``.  Rows keep their order, each
    relation row's K copies consecutive.  With ``k_steps == 1`` the system
    passes through.
    """
    if k_steps < 1:
        raise ValueError("k_steps must be >= 1")
    if system.n_steps != 1:
        raise ValueError(f"system already spans {system.n_steps} steps")
    if k_steps == 1:
        return system
    data = np.flatnonzero(~system.relation)
    rel = np.flatnonzero(system.relation)
    d = sp.vstack([sp.kron(np.ones((1, k_steps)), system.d[data]),
                   sp.kron(sp.identity(k_steps), system.d[rel])], format="csr")
    src = np.concatenate([data, np.tile(rel, k_steps)])
    steps = np.concatenate([np.zeros(data.size, dtype=np.intp),
                            np.repeat(np.arange(1, k_steps + 1), rel.size)])
    reps = np.where(system.relation, k_steps, 1)
    start = np.cumsum(reps) - reps
    order = np.argsort(start[src] + np.maximum(steps - 1, 0))
    src, steps = src[order], steps[order]
    labels = []
    for r, k in zip(src.tolist(), steps.tolist()):
        head, _, operand = system.label[r].rpartition("/")
        labels.append(f"{head}@k{k}/{operand}" if k else system.label[r])
    return MeasurementSystem(
        d[order], system.constant[src], tuple(labels), system.relation[src],
        None if system.weight is None else system.weight[src], k_steps)
