"""Shared helpers: full constraint assembly over a synthetic bundle, a
dense oracle for the KKT solve, reference writers for the exports, and a
fresh interpreter that imports this checkout's package."""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import basinflow as bf
from basinflow import estimator, measurement, report, topology
from basinflow.core_net import (
    CAPABILITY_CLASSES,
    OPERAND_NAMES,
    Capabilities,
    build_incidence,
)


def fresh_python(*args: str,
                 **environ: str | None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this checkout's
    package, its output captured as text.  ``environ`` sets variables of
    its environment, or removes those given as None."""
    src = str(Path(bf.__file__).resolve().parents[1])
    env = dict(os.environ)
    for key, value in environ.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


DENSE_ORACLE_MAX_VARS = 2000


def make_network(land_segments=(), outlets=(), river_links=(), estuaries=()):
    """A network from each group's row tuples, fields in the order of the
    group's ``topology.GROUPS`` dtype."""
    return topology.WatershedNetwork(*(
        measurement.table(dtype, rows) for dtype, rows in zip(
            topology.GROUPS.values(),
            (land_segments, outlets, river_links, estuaries))))


def buffer_walk(network) -> list[tuple[str, str]]:
    """(external id, kind) of each buffer in buffer-id order, from a walk
    over the network's records."""
    return [(item.external_id, kind) for kind, items in (
        ("land_segment", network.land_segments),
        ("outlet_point", network.outlets), ("estuary", network.estuaries))
        for item in items]


def dense_oracle_solve(problem: estimator.EstimationProblem,
                       tol: float = estimator.DEFAULT_TOL) -> estimator.Solution:
    """Independent dense solve of the problem with the errors as variables.

    It builds the paper's full form, ``min 1/2 z^T diag([h; w]) z`` over
    ``z = [x; e]`` subject to ``[A, [0; -I]] z = b``, factors its bordered
    KKT matrix ``[[H, A^T], [A, 0]]`` with LAPACK, and reads the errors off
    ``z``, so agreement with ``estimator.solve`` checks that eliminating
    them is exact.  Guarded to ``DENSE_ORACLE_MAX_VARS`` variables.
    """
    n_x = problem.n_variables
    n_e = problem.weight.size
    n = n_x + n_e
    if n > DENSE_ORACLE_MAX_VARS:
        raise ValueError(
            f"dense oracle limited to {DENSE_ORACLE_MAX_VARS} variables, "
            f"problem has {n}"
        )
    m_rows = problem.n_rows
    a_dense = np.zeros((m_rows, n))
    a_dense[:, :n_x] = problem.constraint_matrix.toarray()
    a_dense[m_rows - n_e:, n_x:] = -np.eye(n_e)
    kkt = np.zeros((n + m_rows, n + m_rows))
    kkt[:n, :n] = np.diag(np.concatenate([problem.hessian_diag, problem.weight]))
    kkt[:n, n:] = a_dense.T
    kkt[n:, :n] = a_dense
    rhs = np.concatenate([np.zeros(n), problem.rhs])

    y = np.linalg.solve(kkt, rhs)
    residual = rhs - kkt @ y
    b_scale = 1.0 + np.abs(problem.rhs).max(initial=0.0)
    if np.abs(residual).max(initial=0.0) > tol * b_scale:
        y = y + np.linalg.solve(kkt, residual)
    return estimator._extract_solution(problem, y[:n_x], y[n_x:n], y[n:], tol,
                                       {"dense_oracle": True, "tol": tol})


def build_constraints(network, capabilities, datasets):
    """The one-step rows ``estimate`` builds, and the delivery model."""
    delivery = measurement.compute_delivery_model(
        network, datasets.delivery_factors, datasets.areas)
    system, _, _ = measurement.assemble_system(
        network, capabilities, datasets.applied, datasets.loads, delivery)
    return system, delivery


def perturb_eot_nitrogen(loads, factor=1.1):
    """A copy of a LOADS table with its nitrogen EoT masses times ``factor``."""
    loads = loads.copy()
    loads.mass[(loads.kind == "EoT") & (loads.operand == "nitrogen")] *= factor
    return loads


def fit_report(network, capabilities, totals, applied, loads, delivery=None):
    """``build_fit_report`` over the rows the ``estimate`` and ``report``
    commands score, for flow ``totals`` in capability order."""
    _, rows, _ = measurement.assemble_system(
        network, capabilities, applied, loads, delivery)
    return report.build_fit_report(rows, totals)


def capabilities_of(specs):
    """Hand-built ``CapabilitySpec``s, listed by id, as a ``Capabilities``
    object with empty by-position tables."""
    assert [spec.id for spec in specs] == list(range(len(specs)))

    def column(field, dtype=np.intp):
        return np.array([field(spec) for spec in specs], dtype=dtype)

    return Capabilities(
        capability_class=column(
            lambda spec: CAPABILITY_CLASSES.index(spec.capability_class)),
        operand=column(lambda spec: spec.operand),
        origin=column(lambda spec: -1 if spec.origin is None else spec.origin),
        destination=column(lambda spec: spec.destination),
        resource=column(lambda spec: spec.resource_id, object),
        accept=np.empty((0, 2, 2), dtype=np.intp),
        land_transport=np.empty((0, 2), dtype=np.intp),
        river_transport=np.empty((0, 2), dtype=np.intp))


def measurement_system(rows, n_caps, n_steps=1):
    """A system from ``(coefficients {(k, cap): value}, constant, label)``
    rows, each label written "family/key.../operand" as the exports render
    it."""
    d = sp.lil_matrix((len(rows), n_steps * n_caps))
    for r, (coefficients, _, _) in enumerate(rows):
        for (k, cap), value in coefficients.items():
            d[r, (k - 1) * n_caps + cap] = value
    parts = [label.split("/") for _, _, label in rows]
    return measurement.MeasurementSystem(
        d.tocsr(), np.array([c for _, c, _ in rows], dtype=float),
        np.array([measurement.FAMILIES.index(p[0]) for p in parts], dtype=np.intp),
        np.array([OPERAND_NAMES.index(p[-1]) for p in parts], dtype=np.intp),
        tuple(tuple(p[1:-1]) for p in parts), n_steps=n_steps)


def assemble_bundle(n_outlets, branching=3, seed=0, **kwargs):
    """generate -> constraints -> problem, returning every intermediate."""
    network, truth, datasets = bf.generate_synthetic(
        n_outlets, branching=branching, seed=seed, **kwargs)
    constraints, delivery = build_constraints(
        network, truth.capabilities, datasets)
    m = build_incidence(truth.capabilities, network.n_buffers)
    problem = estimator.assemble_problem(m, constraints)
    return network, truth, datasets, constraints, m, problem


# ---------------------------------------------------------------------------
# Reference writers: the files as ``csv.writer`` and ``json.dumps`` write
# them, which ``measurement.write_table``, ``report.export_results`` and
# ``WatershedNetwork.save`` must reproduce byte for byte.
# ---------------------------------------------------------------------------

def network_doc(network) -> dict:
    """The network file's content as a JSON document: each record's fields,
    without ``coordinates`` where it has none, and each land segment's
    areas as ``dict(load_source_areas)``."""
    def record(names, row) -> dict:
        doc = {key: value for key, value in zip(names, row)
               if value is not None}
        if "load_source_areas" in doc:
            doc["load_source_areas"] = dict(doc["load_source_areas"])
        return doc

    return {"schema": topology.SCHEMA_VERSION,
            **{group: [record(dtype.names, row)
                       for row in getattr(network, group).tolist()]
               for group, dtype in topology.GROUPS.items()}}


def reference_save_network(network, path):
    """The network file through ``json.dump(doc, indent=1, sort_keys=True)``
    and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_doc(network), fh, indent=1, sort_keys=True)
        fh.write("\n")


def reference_write_table(path, dataset):
    """A table through ``csv.writer``: field names, then each row with each
    number as its ``repr``."""
    names = dataset.dtype.names
    columns = [dataset[name].tolist() if dataset.dtype[name] == object
               else map(repr, dataset[name].tolist()) for name in names]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(zip(*columns))


def reference_export_tabular(solution, network, capabilities, path,
                             constraints=None):
    """``solution.csv`` row by row through ``csv.writer``: accumulations,
    flows, then errors."""
    final_q = solution.q_b[-1].reshape(network.n_buffers,
                                       len(OPERAND_NAMES)).tolist()
    kind, entity, operand = report.capability_names(capabilities, network)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.TABULAR_HEADER)
        for (buffer, buffer_kind), masses in zip(buffer_walk(network), final_q):
            for name, value in zip(OPERAND_NAMES, masses):
                writer.writerow([buffer, buffer_kind, name, "accumulation",
                                 repr(value)])
        writer.writerows(zip(entity, kind, operand, itertools.repeat("flow"),
                             map(repr, solution.u.sum(axis=0).tolist())))
        if constraints is not None:
            writer.writerows(zip(
                measurement.row_labels(constraints),
                itertools.repeat("constraint"),
                map(OPERAND_NAMES.__getitem__, constraints.operand.tolist()),
                itertools.repeat("error"), map(repr, solution.errors.tolist())))


def reference_export_geo(solution, network, capabilities, path):
    """``solution.geojson`` as one dict per feature through
    ``json.dumps(doc, sort_keys=True)``."""
    final_q = solution.q_b[-1].reshape(network.n_buffers,
                                       len(OPERAND_NAMES)).tolist()
    points = [item.coordinates for item in (*network.land_segments,
                                            *network.outlets, *network.estuaries)]
    features = []
    for (buffer, buffer_kind), point, masses in zip(buffer_walk(network),
                                                    points, final_q):
        for name, value in zip(OPERAND_NAMES, masses):
            features.append({
                "type": "Feature",
                "geometry": None if point is None else
                    {"type": "Point", "coordinates": list(point)},
                "properties": {
                    "entity_id": buffer,
                    "entity_kind": buffer_kind,
                    "operand": name,
                    "quantity_kind": "accumulation",
                    "value_lbs": value,
                },
            })
    kind, entity, operand = report.capability_names(capabilities, network)
    values = solution.u.sum(axis=0).tolist()
    for cap in np.flatnonzero(capabilities.origin >= 0).tolist():
        start = points[capabilities.origin[cap]]
        end = points[capabilities.destination[cap]]
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
        fh.write(json.dumps({"type": "FeatureCollection", "features": features},
                            sort_keys=True))
        fh.write("\n")


def reference_fit_report_csv(fit, path):
    """``fit_report.csv`` row by row through ``csv.writer``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["data_type", "operand", "metric", "value", "note"])
        for row in fit.rows:
            writer.writerow([row.data_type, row.operand, row.metric,
                             repr(float(row.value)), row.note])
