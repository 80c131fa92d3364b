"""Shared helpers: full constraint assembly over a synthetic bundle."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

import basinflow as bf
from basinflow import cli, estimator, measurement, report
from basinflow.core_net import build_incidence, default_operands


def build_constraints(network, capabilities, datasets):
    delivery = measurement.compute_delivery_model(
        network, datasets.delivery_factors, datasets.areas)
    table = measurement.capability_table(network, capabilities)
    blocks = [
        measurement.assemble_accept_constraints(
            datasets.applied, network, table)[0],
        measurement.assemble_eos_constraints(datasets.loads, network, table)[0],
        measurement.assemble_eot_constraints(datasets.loads, network, table)[0],
        measurement.assemble_transport_relations(network, table, delivery),
    ]
    return (measurement.compute_weights(measurement.stack_systems(blocks)),
            delivery)


def fit_report(network, capabilities, totals, applied, loads, delivery=None):
    """``build_fit_report`` over the rows the ``estimate`` and ``report``
    commands score, for flow ``totals`` in capability order."""
    _, rows, _ = cli._assemble_constraints(
        network, capabilities, applied, loads, delivery)
    return report.build_fit_report(rows, totals)


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
