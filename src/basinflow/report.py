"""Goodness-of-fit metrics and result export.

Metrics are pure functions of (predicted, observed) arrays.  NRMSE is
normalized by the observed mean unless told otherwise; the normalizer
changes the number materially, so exports label which one was used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Optional, Sequence

import numpy as np

from .core_net import (
    CAPABILITY_CLASSES,
    CAPABILITY_KINDS,
    OPERAND_NAMES,
    Capabilities,
    CapabilitySpec,
)
from .estimator import Solution
from .measurement import (FAMILIES, MeasurementSystem, median, read_table,
                          row_labels, table, table_from_columns, write_table)
from .topology import WatershedNetwork, json_numbers

# The scale of the observations each NRMSE normalizer divides by.
_NRMSE_SCALES = {"mean": np.mean, "range": np.ptp, "std": np.std}
NRMSE_NORMALIZERS = tuple(_NRMSE_SCALES)

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
    if normalizer not in _NRMSE_SCALES:
        raise ValueError(f"unknown normalizer {normalizer!r}; expected one of "
                         f"{NRMSE_NORMALIZERS}")
    scale = float(_NRMSE_SCALES[normalizer](obs))
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
    return median(np.array(errors))


# ---------------------------------------------------------------------------
# Entity naming shared by exports, ground-truth files and reports
# ---------------------------------------------------------------------------

# Each class code's kind: a code is ``kind * len(OPERAND_NAMES) + operand``.
_KIND = np.repeat(np.array(CAPABILITY_KINDS, dtype=object), len(OPERAND_NAMES))


def capability_entity(cap: CapabilitySpec,
                      network: WatershedNetwork) -> tuple[str, str]:
    """(entity_kind, entity_id) naming one capability in exports."""
    kind = _KIND[CAPABILITY_CLASSES.index(cap.capability_class)]
    if kind == "transport_river":
        names = network.buffer_names
        entity = f"{names[cap.origin]}->{names[cap.destination]}"
    else:
        entity = cap.resource_id
    return kind, entity


def capability_names(capabilities: Capabilities, network: WatershedNetwork,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(entity_kind, entity_id, operand) naming every capability in exports,
    as object arrays over capability ids; see :func:`capability_entity`."""
    kind = _KIND[capabilities.capability_class]
    entity = capabilities.resource.copy()
    entity[capabilities.river_transport] = network.link_names[:, None]
    return kind, entity, np.array(OPERAND_NAMES, dtype=object)[capabilities.operand]


# The tabular export's rows; ``import_tabular`` reads them back.
TABULAR = np.dtype([("entity_id", object), ("entity_kind", object),
                    ("operand", object), ("quantity_kind", object),
                    ("value_lbs", float)])
TABULAR_HEADER = TABULAR.names


def flow_rows(capabilities: Capabilities, network: WatershedNetwork,
              values: np.ndarray) -> np.ndarray:
    """The ``TABULAR`` table of one flow row per capability, carrying its
    flow from ``values``."""
    kind, entity, operand = capability_names(capabilities, network)
    return table_from_columns(TABULAR, entity, kind, operand, "flow", values)


# One feature of the geo export, keys in sorted order as ``json.dumps(...,
# sort_keys=True)`` writes them; fields are JSON text.
_POINT_FEATURE = (
    '{"geometry": %s, "properties": {"entity_id": %s, "entity_kind": %s, '
    '"operand": %s, "quantity_kind": "accumulation", "value_lbs": %s}, '
    '"type": "Feature"}')
_FLOW_FEATURE = (
    '{"geometry": %s, "properties": {"entity_id": %s, "entity_kind": %s, '
    '"log10_value": %s, "operand": %s, "quantity_kind": "flow", '
    '"value_lbs": %s}, "type": "Feature"}')


def export_results(solution: Solution, network: WatershedNetwork,
                   capabilities: Capabilities, path,
                   fmt: str = "tabular",
                   constraints: Optional[MeasurementSystem] = None) -> None:
    """Write per-capability flows and per-buffer accumulations.

    Tabular: one CSV row per quantity, written by ``write_table``.
    Accumulation rows carry the final buffer mass; flow rows carry the
    firing rates summed across steps (for a single-step run, the firing
    itself), the same quantity the measurement rows constrain; error rows
    (when constraints are given) carry each measurement row's estimated
    error.

    Geo: a GeoJSON feature collection with Point features per
    (buffer, operand) accumulation and LineString features per transport
    flow, written feature by feature as the one line ``json.dumps(doc,
    sort_keys=True)`` would write.  Coordinates are optional passthrough
    from the network file; features without them get null geometry.
    """
    if fmt not in ("tabular", "geo"):
        raise ValueError(f"unknown export format {fmt!r}")
    flow_totals = solution.u.sum(axis=0)
    final_q = solution.q_b[-1]
    buffer_names = network.buffer_names.tolist()
    buffer_kinds = network.buffer_kinds.tolist()

    def by_place(column: Iterable) -> list:
        """A column over buffers, repeated for each operand, as places run."""
        return [value for value in column for _ in OPERAND_NAMES]

    if fmt == "tabular":
        blocks = [table_from_columns(
                      TABULAR, by_place(buffer_names), by_place(buffer_kinds),
                      OPERAND_NAMES * network.n_buffers, "accumulation",
                      final_q),
                  flow_rows(capabilities, network, flow_totals)]
        if constraints is not None:
            blocks.append(table_from_columns(
                TABULAR, row_labels(constraints), "constraint",
                [OPERAND_NAMES[o] for o in constraints.operand.tolist()],
                "error", solution.errors))
        write_table(path, np.concatenate(blocks))
        return

    # Each buffer's coordinates as JSON text, or None: land segments,
    # outlets, then estuaries, as buffer ids run.
    points = [None if xy is None else "[%s, %s]" % tuple(json_numbers(xy))
              for group in (network.land_segments, network.outlets,
                            network.estuaries)
              for xy in group.coordinates.tolist()]
    point_geometry = ["null" if point is None else
                      '{"coordinates": %s, "type": "Point"}' % point
                      for point in points]
    accumulations = map(_POINT_FEATURE.__mod__, zip(
        by_place(point_geometry), by_place(map(_json_string, buffer_names)),
        by_place(map(_json_string, buffer_kinds)),
        [*map(_json_string, OPERAND_NAMES)] * network.n_buffers,
        json_numbers(final_q.tolist())))

    transport = np.flatnonzero(capabilities.origin >= 0)
    kind, entity, operand = (names[transport].tolist() for names in
                             capability_names(capabilities, network))
    values = flow_totals[transport].tolist()
    line_geometry = [
        "null" if points[start] is None or points[end] is None else
        '{"coordinates": [%s, %s], "type": "LineString"}' % (points[start],
                                                            points[end])
        for start, end in zip(capabilities.origin[transport].tolist(),
                              capabilities.destination[transport].tolist())]
    flows = map(_FLOW_FEATURE.__mod__, zip(
        line_geometry, map(_json_string, entity), map(_json_string, kind),
        json_numbers([math.log10(v) if v > 0 else None for v in values]),
        map(_json_string, operand), json_numbers(values)))
    features = itertools.chain(accumulations, flows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"features": [%s' % next(features, ""))
        fh.writelines(map(", ".__add__, features))
        fh.write('], "type": "FeatureCollection"}\n')


def import_tabular(path) -> dict[tuple[str, str, str, str], float]:
    """Read an exported tabular file back into a lookup keyed by
    (entity_kind, entity_id, operand, quantity_kind).

    Rows are checked as the dataset readers check theirs: a short row, an
    unknown operand, a value that is not a finite number or a repeated key
    is a ``DatasetFormatError`` naming the file and line.
    """
    rows = read_table(path, TABULAR)
    key = ("entity_kind", "entity_id", "operand", "quantity_kind")
    values = dict(zip(zip(*(rows[name].tolist() for name in key)),
                      rows.value_lbs.tolist()))
    if len(values) < len(rows):  # read again to name the repeated key's lines
        read_table(path, TABULAR, key=key)
    return values


# ---------------------------------------------------------------------------
# Fit report
# ---------------------------------------------------------------------------

_FIT_ROWS = np.dtype([("data_type", object), ("operand", object),
                      ("metric", object), ("value", float), ("note", object)])


@dataclass(frozen=True, eq=False)
class FitReport:
    """The fit report's rows, a ``_FIT_ROWS`` table in report order."""

    rows: np.recarray

    def write_csv(self, path) -> None:
        write_table(path, self.rows)

    def lookup(self, data_type: str, operand: str, metric: str) -> float:
        rows = self.rows
        hit = np.flatnonzero((rows.data_type == data_type)
                             & (rows.operand == operand) & (rows.metric == metric))
        if not hit.size:
            raise KeyError((data_type, operand, metric))
        return float(rows.value[hit[0]])


def _safe(metric_fn, *args, **kwargs) -> tuple[float, str]:
    try:
        return metric_fn(*args, **kwargs), ""
    except ValueError as exc:
        return float("nan"), str(exc)


# Row family -> the data type the report scores it as, in report order.
_DATA_TYPES = {"accept": "applied", "eos": "eos", "eot": "eot",
               "stream_to_tide": "stream_to_tide",
               "transport": "transport_relations"}


def _relation_fit(d, totals: np.ndarray) -> list[tuple]:
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
    return [("transport_relations", "both", METRIC_MEDIAN_REL, value,
             note or "estimated vs delivery-implied")]


def build_fit_report(system: MeasurementSystem, totals: np.ndarray,
                     nrmse_normalizer: str = "mean") -> FitReport:
    """Compare estimated flows against the rows that measure them.

    ``system`` holds one-step rows (``d`` over capabilities) and ``totals``
    each capability's flow summed over the steps, so ``d @ totals``
    predicts every row.  Data rows are scored against their constants per
    family and operand: applied and EoS by R^2 and NRMSE, EoT by the
    relative error of the total, StreamToTide by that and the median
    per-county relative error.  Rows pair up in the order of their keys.
    """
    if system.n_steps != 1:
        raise ValueError("the fit report needs the one-step system")
    predicted = system.d @ totals
    families, operands = system.family, system.operand
    rows: list[tuple] = []
    for family, data_type in _DATA_TYPES.items():
        in_family = np.flatnonzero(families == FAMILIES.index(family))
        if family == "transport":
            rows += _relation_fit(system.d[in_family], totals)
            continue
        # Totals add in row order, as ``np.bincount`` does on every Python;
        # the builtin ``sum`` compensates from 3.12 on.
        codes = operands[in_family]
        total, observed = (np.bincount(codes, weights=values[in_family],
                                       minlength=len(OPERAND_NAMES)).tolist()
                           for values in (predicted, system.constant))
        for code in sorted(set(codes.tolist()), key=OPERAND_NAMES.__getitem__):
            op = OPERAND_NAMES[code]
            group = in_family[codes == code]
            paired = sorted(group.tolist(), key=system.key.__getitem__)
            pred, obs = predicted[paired], system.constant[paired]
            if family in ("accept", "eos"):
                value, note = _safe(r_squared, pred, obs)
                rows.append((data_type, op, METRIC_R2, value, note))
                value, note = _safe(nrmse, pred, obs, nrmse_normalizer)
                rows.append((data_type, op, METRIC_NRMSE, value,
                             note or f"normalizer={nrmse_normalizer}"))
                continue
            value, note = _safe(relative_error, total[code], observed[code])
            if family == "eot":
                rows.append((data_type, op, METRIC_REL, value, note))
                continue
            rows.append((data_type, op, METRIC_REL, value, note or "on totals"))
            pairs = [(p, o) for p, o in zip(pred.tolist(), obs.tolist()) if o != 0]
            value, note = _safe(median_relative_error, pairs)
            rows.append((data_type, op, METRIC_MEDIAN_REL, value,
                         note or "per county"))
    return FitReport(table(_FIT_ROWS, rows))


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
