"""Goodness-of-fit metrics and result export.

Metrics are pure functions of (predicted, observed) arrays.  NRMSE is
normalized by the observed mean unless told otherwise; the normalizer
changes the number materially, so exports label which one was used.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core_net import (
    CAPABILITY_CLASSES,
    Capabilities,
    CapabilitySpec,
    Operand,
    place_index,
)
from .estimator import Solution
from .measurement import MeasurementSystem
from .topology import WatershedNetwork

NRMSE_NORMALIZERS = ("mean", "range", "std")

METRIC_R2 = "r_squared"
METRIC_NRMSE = "nrmse"
METRIC_REL = "relative_error"
METRIC_MEDIAN_REL = "median_relative_error"


def r_squared(predicted, observed) -> float:
    """Coefficient of determination about the observed mean.

    Can be negative when the prediction fits worse than the mean.
    """
    pred = np.asarray(predicted, dtype=float)
    obs = np.asarray(observed, dtype=float)
    if pred.shape != obs.shape or pred.size == 0:
        raise ValueError("predicted and observed must be equal-length and nonempty")
    ss_tot = float(((obs - obs.mean()) ** 2).sum())
    if ss_tot == 0:
        raise ValueError("observed values have zero variance")
    ss_res = float(((obs - pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def nrmse(predicted, observed, normalizer: str = "mean") -> float:
    """Root-mean-square error over a scale of the observations."""
    pred = np.asarray(predicted, dtype=float)
    obs = np.asarray(observed, dtype=float)
    if pred.shape != obs.shape or pred.size == 0:
        raise ValueError("predicted and observed must be equal-length and nonempty")
    if normalizer == "mean":
        scale = float(obs.mean())
    elif normalizer == "range":
        scale = float(obs.max() - obs.min())
    elif normalizer == "std":
        scale = float(obs.std())
    else:
        raise ValueError(f"unknown normalizer {normalizer!r}; expected one of "
                         f"{NRMSE_NORMALIZERS}")
    if scale <= 0:
        raise ValueError(f"{normalizer} of observed values must be positive")
    rmse = math.sqrt(float(((pred - obs) ** 2).mean()))
    return rmse / scale


def relative_error(predicted_total: float, observed_total: float) -> float:
    """|predicted - observed| / |observed| on aggregate totals."""
    if observed_total == 0:
        raise ValueError("relative error undefined for a zero observed total")
    return abs(predicted_total - observed_total) / abs(observed_total)


def median_relative_error(pairs: Sequence[tuple[float, float]]) -> float:
    """Median of per-pair relative errors; even medians are midpoint means."""
    if not pairs:
        raise ValueError("no (predicted, observed) pairs")
    errors = []
    for i, (pred, obs) in enumerate(pairs):
        if obs == 0:
            raise ValueError(f"pair {i}: relative error undefined for observed 0")
        errors.append(abs(pred - obs) / abs(obs))
    return statistics.median(errors)


# ---------------------------------------------------------------------------
# Entity naming shared by exports, ground-truth files and reports
# ---------------------------------------------------------------------------

_CLASS_KIND = {
    ("accept", "agricultural"): "accept_agricultural",
    ("accept", "developed"): "accept_developed",
    ("transport_land", None): "transport_land_to_outlet",
    ("transport_river", None): "transport_river",
}
_KIND = np.array([_CLASS_KIND[(cls.action, cls.sector)]
                  for cls in CAPABILITY_CLASSES], dtype=object)
_OPERAND = np.array([cls.operand_name for cls in CAPABILITY_CLASSES], dtype=object)


def capability_entity(cap: CapabilitySpec,
                      network: WatershedNetwork) -> tuple[str, str]:
    """(entity_kind, entity_id) naming one capability in exports."""
    cls = cap.capability_class
    kind = _CLASS_KIND[(cls.action, cls.sector)]
    if cls.action == "transport_river":
        specs = network.buffer_specs
        entity = f"{specs[cap.origin].external_id}->{specs[cap.destination].external_id}"
    else:
        entity = cap.resource_id
    return kind, entity


def capability_names(capabilities: Capabilities, network: WatershedNetwork,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(entity_kind, entity_id, operand) naming every capability in exports,
    as object arrays over capability ids; see :func:`capability_entity`."""
    kind = _KIND[capabilities.capability_class]
    entity = capabilities.resource.copy()
    river = np.flatnonzero(kind == "transport_river")
    external = np.array([spec.external_id for spec in network.buffer_specs],
                        dtype=object)
    entity[river] = (external[capabilities.origin[river]] + "->"
                     + external[capabilities.destination[river]])
    return kind, entity, _OPERAND[capabilities.capability_class]


TABULAR_HEADER = ("entity_id", "entity_kind", "operand", "quantity_kind",
                  "value_lbs")


def flow_rows(capabilities: Capabilities, network: WatershedNetwork,
              values: np.ndarray) -> Iterable[tuple]:
    """One tabular row per capability, carrying its flow from ``values``."""
    kind, entity, operand = capability_names(capabilities, network)
    return zip(entity, kind, operand, itertools.repeat("flow"),
               map(repr, values.tolist()))


def export_results(solution: Solution, network: WatershedNetwork,
                   capabilities: Capabilities,
                   operands: Sequence[Operand], path,
                   fmt: str = "tabular",
                   constraints: Optional[MeasurementSystem] = None) -> None:
    """Write per-capability flows and per-buffer accumulations.

    Tabular: one CSV row per quantity.  Flow rows carry the firing rates
    summed across steps (for a single-step run, the firing itself), the
    same quantity the measurement rows constrain; accumulation rows carry
    the final buffer mass; error rows (when constraints are given) carry
    each measurement row's estimated error.

    Geo: a GeoJSON feature collection with Point features per
    (buffer, operand) accumulation and LineString features per transport
    flow.  Coordinates are optional passthrough from the network file;
    features without them get null geometry.
    """
    if fmt not in ("tabular", "geo"):
        raise ValueError(f"unknown export format {fmt!r}")
    n_operands = len(operands)
    flow_totals = solution.u.sum(axis=0)
    final_q = solution.q_b[-1]

    if fmt == "tabular":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TABULAR_HEADER)
            for spec in network.buffer_specs:
                for op in operands:
                    value = final_q[place_index(op.id, spec.id, n_operands)]
                    writer.writerow([spec.external_id, spec.kind.value,
                                     op.name, "accumulation", repr(float(value))])
            writer.writerows(flow_rows(capabilities, network, flow_totals))
            if constraints is not None:
                for label, operand, error in zip(
                        constraints.label, constraints.operand.tolist(),
                        solution.errors.tolist()):
                    writer.writerow([label, "constraint", operand, "error",
                                     repr(error)])
        return

    # Coordinates by buffer id: land segments, outlets, then estuaries.
    points = [item.coordinates for item in (*network.land_segments,
                                            *network.outlets, *network.estuaries)]
    features = []
    for spec in network.buffer_specs:
        point = points[spec.id]
        for op in operands:
            value = float(final_q[place_index(op.id, spec.id, n_operands)])
            features.append({
                "type": "Feature",
                "geometry": None if point is None else
                    {"type": "Point", "coordinates": list(point)},
                "properties": {
                    "entity_id": spec.external_id,
                    "entity_kind": spec.kind.value,
                    "operand": op.name,
                    "quantity_kind": "accumulation",
                    "value_lbs": value,
                },
            })
    kind, entity, operand = capability_names(capabilities, network)
    origin = capabilities.origin.tolist()
    destination = capabilities.destination.tolist()
    values = flow_totals.tolist()
    for cap in np.flatnonzero(capabilities.origin >= 0).tolist():
        start, end = points[origin[cap]], points[destination[cap]]
        value = values[cap]
        features.append({
            "type": "Feature",
            "geometry": None if start is None or end is None else
                {"type": "LineString", "coordinates": [list(start), list(end)]},
            "properties": {
                "entity_id": entity[cap],
                "entity_kind": kind[cap],
                "operand": operand[cap],
                "quantity_kind": "flow",
                "value_lbs": value,
                "log10_value": math.log10(value) if value > 0 else None,
            },
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def import_tabular(path) -> dict[tuple[str, str, str, str], float]:
    """Read an exported tabular file back into a lookup keyed by
    (entity_kind, entity_id, operand, quantity_kind)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in TABULAR_HEADER if c not in header]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        kind, entity, operand, quantity, value = (
            header.index(c) for c in ("entity_kind", "entity_id", "operand",
                                      "quantity_kind", "value_lbs"))
        return {(row[kind], row[entity], row[operand], row[quantity]):
                float(row[value]) for row in reader if row}


# ---------------------------------------------------------------------------
# Fit report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitRow:
    data_type: str
    operand: str
    metric: str
    value: float
    note: str = ""


@dataclass(frozen=True)
class FitReport:
    rows: tuple[FitRow, ...]
    nrmse_normalizer: str = "mean"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["data_type", "operand", "metric", "value", "note"])
            for row in self.rows:
                writer.writerow([row.data_type, row.operand, row.metric,
                                 repr(row.value), row.note])

    def lookup(self, data_type: str, operand: str, metric: str) -> float:
        for row in self.rows:
            if (row.data_type, row.operand, row.metric) == (data_type, operand, metric):
                return row.value
        raise KeyError((data_type, operand, metric))


def _safe(metric_fn, *args, **kwargs) -> tuple[float, str]:
    try:
        return metric_fn(*args, **kwargs), ""
    except ValueError as exc:
        return float("nan"), str(exc)


# Row family -> the data type the report scores it as, in report order.
_DATA_TYPES = {"accept": "applied", "eos": "eos", "eot": "eot",
               "stream_to_tide": "stream_to_tide",
               "transport": "transport_relations"}


def _relation_fit(d, totals: np.ndarray) -> list[FitRow]:
    """Median relative error of each transport (a relation row's positive
    entries) against the flow its delivery factors imply (its negative
    entries, negated); rows implying no flow are not scored."""
    transport = d.multiply(d > 0) @ totals
    implied = -(d.multiply(d < 0) @ totals)
    pairs = [(t, i) for t, i in zip(transport.tolist(), implied.tolist())
             if i != 0]
    if not pairs:
        return []
    value, note = _safe(median_relative_error, pairs)
    return [FitRow("transport_relations", "both", METRIC_MEDIAN_REL, value,
                   note or "estimated vs delivery-implied")]


def build_fit_report(system: MeasurementSystem, totals: np.ndarray,
                     nrmse_normalizer: str = "mean") -> FitReport:
    """Compare estimated flows against the rows that measure them.

    ``system`` holds one-step rows (``d`` over capabilities) and ``totals``
    each capability's flow summed over the steps, so ``d @ totals``
    predicts every row.  Data rows are scored against their constants per
    family and operand: applied and EoS by R^2 and NRMSE, EoT by the
    relative error of the total, StreamToTide by that and the median
    per-county relative error.  Rows pair up in the order of the key in
    their labels.
    """
    if system.n_steps != 1:
        raise ValueError("the fit report needs the one-step system")
    predicted = system.d @ totals
    families, operands = system.family, system.operand
    rows: list[FitRow] = []
    for family, data_type in _DATA_TYPES.items():
        in_family = np.flatnonzero(families == family)
        if family == "transport":
            rows += _relation_fit(system.d[in_family], totals)
            continue
        for op in sorted(set(operands[in_family].tolist())):
            group = in_family[operands[in_family] == op]
            paired = sorted(group.tolist(),
                            key=lambda r: system.label[r].split("/")[1:-1])
            pred, obs = predicted[paired], system.constant[paired]
            if family in ("accept", "eos"):
                value, note = _safe(r_squared, pred, obs)
                rows.append(FitRow(data_type, op, METRIC_R2, value, note))
                value, note = _safe(nrmse, pred, obs, nrmse_normalizer)
                rows.append(FitRow(data_type, op, METRIC_NRMSE, value,
                                   note or f"normalizer={nrmse_normalizer}"))
                continue
            value, note = _safe(relative_error, sum(predicted[group].tolist()),
                                sum(system.constant[group].tolist()))
            if family == "eot":
                rows.append(FitRow(data_type, op, METRIC_REL, value, note))
                continue
            rows.append(FitRow(data_type, op, METRIC_REL, value,
                               note or "on totals"))
            pairs = [(p, o) for p, o in zip(pred.tolist(), obs.tolist()) if o != 0]
            value, note = _safe(median_relative_error, pairs)
            rows.append(FitRow(data_type, op, METRIC_MEDIAN_REL, value,
                               note or "per county"))
    return FitReport(tuple(rows), nrmse_normalizer)


def flow_totals(flows: dict[tuple[str, str, str], float],
                capabilities: Capabilities,
                network: WatershedNetwork) -> np.ndarray:
    """Flows keyed (entity_kind, entity_id, operand), as the tabular export
    names them, as one vector in capability order."""
    try:
        return np.array([flows[key] for key in
                         zip(*capability_names(capabilities, network))], dtype=float)
    except KeyError as exc:
        kind, entity, operand = exc.args[0]
        raise ValueError(f"solution has no {operand} flow for {kind} "
                         f"{entity!r}") from None


def flows_from_tabular(table: dict[tuple[str, str, str, str], float],
                       ) -> dict[tuple[str, str, str], float]:
    """Extract the flow rows of an imported tabular export."""
    return {
        (kind, entity, operand): value
        for (kind, entity, operand, quantity), value in table.items()
        if quantity == "flow"
    }
