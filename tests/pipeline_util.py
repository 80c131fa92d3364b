"""Shared helpers: full constraint assembly over a synthetic bundle."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

import basinflow as bf
from basinflow import cli, estimator, measurement, report
from basinflow.core_net import CAPABILITY_CLASSES, Capabilities, build_incidence


def build_constraints(network, capabilities, datasets):
    """The weighted one-step rows ``estimate`` builds, and the delivery model."""
    delivery = measurement.compute_delivery_model(
        network, datasets.delivery_factors, datasets.areas)
    system, _, _ = cli._assemble_constraints(
        network, capabilities, datasets.applied, datasets.loads, delivery)
    return measurement.compute_weights(system), delivery


def fit_report(network, capabilities, totals, applied, loads, delivery=None):
    """``build_fit_report`` over the rows the ``estimate`` and ``report``
    commands score, for flow ``totals`` in capability order."""
    _, rows, _ = cli._assemble_constraints(
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


def measurement_system(rows, n_caps, n_steps=1, weighted=True):
    """A system from ``(coefficients {(k, cap): value}, constant, label)``
    rows; rows labelled ``transport/...`` are relation rows."""
    d = sp.lil_matrix((len(rows), n_steps * n_caps))
    for r, (coefficients, _, _) in enumerate(rows):
        for (k, cap), value in coefficients.items():
            d[r, (k - 1) * n_caps + cap] = value
    labels = tuple(label for _, _, label in rows)
    system = measurement.MeasurementSystem(
        d.tocsr(), np.array([c for _, c, _ in rows], dtype=float), labels,
        np.array([label.startswith("transport/") for label in labels],
                 dtype=bool), n_steps=n_steps)
    return measurement.compute_weights(system) if weighted else system


def assemble_bundle(n_outlets, branching=3, seed=0, **kwargs):
    """generate -> constraints -> problem, returning every intermediate."""
    network, truth, datasets = bf.generate_synthetic(
        n_outlets, branching=branching, seed=seed, **kwargs)
    constraints, delivery = build_constraints(
        network, truth.capabilities, datasets)
    incidence = build_incidence(truth.capabilities, len(truth.operands),
                                len(network.buffer_specs))
    problem = estimator.assemble_problem(incidence, constraints)
    return network, truth, datasets, constraints, incidence, problem
