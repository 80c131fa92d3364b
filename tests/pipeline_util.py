"""Shared helpers: full constraint assembly over a synthetic bundle, and a
dense oracle for the KKT solve."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

import basinflow as bf
from basinflow import cli, estimator, measurement, report
from basinflow.core_net import (
    CAPABILITY_CLASSES,
    OPERAND_NAMES,
    Capabilities,
    build_incidence,
)


DENSE_ORACLE_MAX_VARS = 2000


def dense_oracle_solve(problem: estimator.EstimationProblem,
                       tol: float = estimator.DEFAULT_TOL) -> estimator.Solution:
    """Independent dense factorization of the same KKT system as
    ``estimator.solve``, guarded to ``DENSE_ORACLE_MAX_VARS`` variables."""
    n = problem.n_variables
    if n > DENSE_ORACLE_MAX_VARS:
        raise ValueError(
            f"dense oracle limited to {DENSE_ORACLE_MAX_VARS} variables, "
            f"problem has {n}"
        )
    m_rows = problem.n_rows
    kkt = np.zeros((n + m_rows, n + m_rows))
    kkt[:n, :n] = np.diag(problem.hessian_diag)
    a_dense = problem.constraint_matrix.toarray()
    kkt[:n, n:] = a_dense.T
    kkt[n:, :n] = a_dense
    rhs = np.concatenate([np.zeros(n), problem.rhs])
    try:
        y = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        delta = 1e-12 * max(np.abs(a_dense).sum(axis=1).max(initial=0.0), 1.0)
        kkt[n:, n:] -= delta * np.eye(m_rows)
        y = np.linalg.solve(kkt, rhs)
        return estimator._extract_solution(
            problem, y[:n], y[n:], tol,
            {"regularized": True, "dual_shift": delta, "dense_oracle": True,
             "tol": tol})
    residual = rhs - kkt @ y
    b_scale = 1.0 + np.abs(problem.rhs).max(initial=0.0)
    if np.abs(residual).max(initial=0.0) > tol * b_scale:
        y = y + np.linalg.solve(kkt, residual)
    return estimator._extract_solution(problem, y[:n], y[n:], tol,
                                       {"dense_oracle": True, "tol": tol})


def build_constraints(network, capabilities, datasets):
    """The weighted one-step rows ``estimate`` builds, and the delivery model."""
    delivery = measurement.compute_delivery_model(
        network, datasets.delivery_factors, datasets.areas)
    system, _, _ = cli._assemble_constraints(
        network, capabilities, datasets.applied, datasets.loads, delivery)
    return measurement.compute_weights(system), delivery


def perturb_eot_nitrogen(loads, factor=1.1):
    """A copy of a LOADS table with its nitrogen EoT masses times ``factor``."""
    loads = loads.copy()
    loads.mass[(loads.kind == "EoT") & (loads.operand == "nitrogen")] *= factor
    return loads


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
    rows, each label written "family/key.../operand" as the exports render
    it."""
    d = sp.lil_matrix((len(rows), n_steps * n_caps))
    for r, (coefficients, _, _) in enumerate(rows):
        for (k, cap), value in coefficients.items():
            d[r, (k - 1) * n_caps + cap] = value
    parts = [label.split("/") for _, _, label in rows]
    system = measurement.MeasurementSystem(
        d.tocsr(), np.array([c for _, c, _ in rows], dtype=float),
        np.array([measurement.FAMILIES.index(p[0]) for p in parts], dtype=np.intp),
        np.array([OPERAND_NAMES.index(p[-1]) for p in parts], dtype=np.intp),
        tuple(tuple(p[1:-1]) for p in parts), n_steps=n_steps)
    return measurement.compute_weights(system) if weighted else system


def assemble_bundle(n_outlets, branching=3, seed=0, **kwargs):
    """generate -> constraints -> problem, returning every intermediate."""
    network, truth, datasets = bf.generate_synthetic(
        n_outlets, branching=branching, seed=seed, **kwargs)
    constraints, delivery = build_constraints(
        network, truth.capabilities, datasets)
    incidence = build_incidence(truth.capabilities, len(network.buffer_specs))
    problem = estimator.assemble_problem(incidence, constraints)
    return network, truth, datasets, constraints, incidence, problem
