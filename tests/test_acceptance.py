"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timing.
"""

import math
import resource
import time
from dataclasses import replace

import numpy as np
import pytest

import basinflow as bf
from basinflow import estimator as est
from basinflow import measurement as ms
from basinflow import report as rp
from basinflow.core_net import build_incidence

from pipeline_util import (
    assemble_bundle,
    build_constraints,
    dense_oracle_solve,
    perturb_eot_nitrogen,
)

RECOVERY_CASES = [(1, 1, 42), (10, 3, 5), (100, 3, 11)]


def _elapsed_guard(t0, limit, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{label} took {elapsed:.1f}s (limit {limit}s)"
    return elapsed


def test_criterion_1_incidence_structure():
    t0 = time.perf_counter()
    violations = 0
    for seed in range(50):
        n_outlets = 1 + seed % 12
        branching = 1 + seed % 3
        network, truth, _ = bf.generate_synthetic(n_outlets, branching, seed)
        m = build_incidence(truth.capabilities, network.n_buffers)
        sums = np.asarray(m.sum(axis=0)).ravel()
        for cap in truth.capabilities:
            expected = 1 if cap.capability_class.is_accept else 0
            if sums[cap.id] != expected:
                violations += 1
    assert violations == 0
    elapsed = _elapsed_guard(t0, 5.0, "criterion 1")
    print(f"\n[acceptance 1] incidence column conservation on 50 networks: "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_2_mass_balance():
    t0 = time.perf_counter()
    for n_outlets, branching, seed in RECOVERY_CASES:
        _, truth, _, _, _, problem = assemble_bundle(n_outlets, branching, seed)
        solution = est.solve(problem)
        assert solution.converged
        residual = problem.constraint_matrix @ solution.x - problem.rhs
        tol = 1e-8 * (1.0 + np.abs(problem.rhs).max())
        assert np.abs(residual[:problem.n_balance_rows]).max() <= tol
        accept_ids = [c.id for c in truth.capabilities
                      if c.capability_class.is_accept]
        total_mass = solution.q_b[-1].sum()
        accepted = problem.dt * solution.u.sum(axis=0)[accept_ids].sum()
        assert total_mass == pytest.approx(accepted, rel=1e-8)
    elapsed = _elapsed_guard(t0, 10.0, "criterion 2")
    print(f"\n[acceptance 2] per-row mass balance and total-mass identity: "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.RandomState(2024)
    for seed in range(20):
        network, truth, datasets = bf.generate_synthetic(
            1 + seed % 5, branching=1 + seed % 3, seed=seed,
            land_per_outlet=(1, 2))
        constraints, _ = build_constraints(network, truth.capabilities,
                                           datasets)
        # knock the data rows around so the errors are genuinely nonzero
        constant = constraints.constant.copy()
        for r, c in enumerate(constant):
            if c != 0.0 and rng.rand() < 0.5:
                constant[r] = c * (1.0 + rng.uniform(-0.2, 0.2))
        noisy = replace(constraints, constant=constant)
        problem = est.assemble_problem(
            build_incidence(truth.capabilities, network.n_buffers), noisy)
        assert problem.n_variables <= 500
        sparse = est.solve(problem)
        dense = dense_oracle_solve(problem)
        x_dev = np.abs(sparse.x - dense.x).max() / (1.0 + np.abs(dense.x).max())
        assert x_dev <= 1e-6
        obj_dev = abs(sparse.objective_value - dense.objective_value) \
            / (1.0 + abs(dense.objective_value))
        assert obj_dev <= 1e-8
    elapsed = _elapsed_guard(t0, 30.0, "criterion 3")
    print(f"\n[acceptance 3] sparse vs dense oracle on 20 problems: "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_4_consistency_recovery():
    t0 = time.perf_counter()
    for n_outlets, branching, seed in RECOVERY_CASES:
        _, truth, _, constraints, _, problem = assemble_bundle(
            n_outlets, branching, seed)
        solution = est.solve(problem)
        deviation = np.abs(solution.u[0] - truth.u) / np.abs(truth.u)
        assert deviation.max() <= 1e-4, \
            f"{n_outlets}-outlet recovery deviation {deviation.max():.2e}"
        bounds = np.array([1e-6 * max(abs(c.constant), math.sqrt(2))
                           for c in constraints])
        assert (np.abs(solution.errors) <= bounds).all()
    elapsed = _elapsed_guard(t0, 20.0, "criterion 4")
    print(f"\n[acceptance 4] ground-truth recovery on chain/10/100-outlet "
          f"networks: PASS ({elapsed:.2f}s)")


def test_criterion_5_weights_and_penalties(chain_network):
    t0 = time.perf_counter()
    from basinflow.topology import instantiate_capabilities

    caps = instantiate_capabilities(chain_network)
    m = build_incidence(caps, chain_network.n_buffers)

    def eot_rows(constant):
        return ms.assemble_eot_constraints(
            ms.table(ms.LOADS, [("alpha", "nitrogen", "EoT", constant)]),
            chain_network, caps)[0]

    def weight_for(constant):
        # the weight the estimator gives the row
        [weight] = est.assemble_problem(m, eot_rows(constant)).weight
        return weight

    # a lone zero datum admits the all-zero solution, and says so
    with pytest.warns(est.AssemblyWarning, match="all-zero"):
        assert weight_for(0.0) == 0.5
    assert weight_for(1.0) == 0.5
    assert weight_for(10.0) == 0.01
    assert weight_for(1e6) == 1e-12
    # sqrt(2) squares to 2 + 1 ulp in binary64, putting the weight one ulp
    # below the floor value; exact equality holds only in real arithmetic
    assert abs(weight_for(math.sqrt(2.0)) - 0.5) <= math.ulp(0.5)

    assert est.DEFAULT_FLOW_PENALTY == 1e-10
    assert est.DEFAULT_BUFFER_PENALTY == 1e-12
    problem = est.assemble_problem(m, eot_rows(5.0))
    assert problem.alpha == 1e-10
    assert problem.beta == 1e-12
    elapsed = _elapsed_guard(t0, 1.0, "criterion 5")
    print(f"\n[acceptance 5] error weighting and penalty defaults: "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_6_metric_fixtures():
    t0 = time.perf_counter()
    tol = 1e-12
    assert abs(rp.r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) - 1.0) <= tol
    assert abs(rp.r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) - 0.0) <= tol
    # negative coefficient of determination is legitimate
    assert abs(rp.r_squared([3.0, 2.0, 1.0], [1.0, 2.0, 3.0]) - (-3.0)) <= tol
    assert abs(rp.nrmse([11.0, 9.0], [10.0, 10.0]) - 0.1) <= tol
    assert abs(rp.relative_error(108.86, 100.0) - 0.0886) <= tol
    assert abs(rp.median_relative_error(
        [(1.1, 1.0), (1.3, 1.0), (1.9, 1.0)]) - 0.3) <= tol
    assert abs(rp.median_relative_error([(1.1, 1.0), (1.3, 1.0)]) - 0.2) <= tol
    elapsed = _elapsed_guard(t0, 1.0, "criterion 6")
    print(f"\n[acceptance 6] fit-metric hand fixtures at 1e-12: "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_7_perturbation_closure():
    t0 = time.perf_counter()
    network, truth, datasets, _, incidence, _ = assemble_bundle(
        10, branching=3, seed=5)
    perturbed = replace(datasets, loads=perturb_eot_nitrogen(datasets.loads))
    constraints, _ = build_constraints(network, truth.capabilities, perturbed)
    problem = est.assemble_problem(incidence, constraints)
    sparse = est.solve(problem)
    dense = dense_oracle_solve(problem)
    x_dev = np.abs(sparse.x - dense.x).max() / (1.0 + np.abs(dense.x).max())
    assert x_dev <= 1e-6

    # capabilities whose flow can reach the estuary (all of them, in a
    # dendritic tree) restricted to the perturbed operand
    downstream = {l.from_outlet: l.to_node for l in network.river_links}
    estuaries = {e.external_id for e in network.estuaries}

    def reaches_estuary(cap):
        node = network.buffer_names[cap.destination]
        if cap.destination < len(network.land_segments):
            node = network.outlets[network.land_outlet[cap.destination]].external_id
        hops = 0
        while node not in estuaries:
            node = downstream[node]
            hops += 1
            assert hops <= len(network.outlets) + 1
        return True

    estuary_path_caps = {
        cap.id for cap in truth.capabilities
        if cap.capability_class.operand_name == "nitrogen"
        and reaches_estuary(cap)
    }
    for solution in (sparse, dense):
        sq = solution.errors ** 2
        sharing = np.array([
            bool({c for (_, c), _ in con.coefficients} & estuary_path_caps)
            for con in constraints
        ])
        assert sq.sum() > 0
        concentration = sq[sharing].sum() / sq.sum()
        assert concentration >= 0.95, f"concentration {concentration:.4f}"
    elapsed = _elapsed_guard(t0, 10.0, "criterion 7")
    print(f"\n[acceptance 7] perturbed end-of-tide error stays on the "
          f"estuary path: PASS ({elapsed:.2f}s)")


def test_criterion_8_scale():
    t0 = time.perf_counter()
    network, truth, datasets = bf.generate_synthetic(
        1000, branching=3, seed=7, land_per_outlet=(2, 4))
    assert len(network.land_segments) >= 2000
    constraints, _ = build_constraints(network, truth.capabilities, datasets)
    incidence = build_incidence(truth.capabilities, network.n_buffers)
    problem = est.assemble_problem(incidence, constraints)
    solution = est.solve(problem)
    assert solution.converged
    deviation = np.abs(solution.u[0] - truth.u) / np.abs(truth.u)
    assert deviation.max() <= 1e-4
    elapsed = _elapsed_guard(t0, 60.0, "criterion 8")
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    assert peak_gb < 2.0, f"peak RSS {peak_gb:.2f} GB"
    print(f"\n[acceptance 8] 1000-outlet solve "
          f"({len(network.land_segments)} land segments, "
          f"{problem.n_variables} variables): PASS "
          f"({elapsed:.2f}s, peak {peak_gb:.2f} GB)")


def test_criterion_9_cast_integration():
    pytest.skip("optional: public CAST 2024-Progress exports not staged in "
                "this environment")


def test_criterion_10_horizon_scale():
    t0 = time.perf_counter()
    network, truth, datasets = bf.generate_synthetic(
        300, branching=3, seed=7, land_per_outlet=(2, 4))
    constraints, _ = build_constraints(network, truth.capabilities, datasets)
    incidence = build_incidence(truth.capabilities, network.n_buffers)
    problem = est.assemble_problem(
        incidence, ms.expand_constraints(constraints, 8))
    solution = est.solve(problem)
    assert solution.converged
    # data rows measure horizon totals; the per-step split is penalty-pinned
    deviation = np.abs(solution.u.sum(axis=0) - truth.u) / np.abs(truth.u)
    assert deviation.max() <= 1e-4
    # COLAMD gives 4.7 here; MMD_AT_PLUS_A gave 29
    fill = solution.diagnostics["fill_ratio"]
    assert fill <= 8.0, f"fill ratio {fill:.1f}"
    elapsed = _elapsed_guard(t0, 10.0, "criterion 10")
    print(f"\n[acceptance 10] 300-outlet solve at K=8 "
          f"({problem.n_variables} variables, fill {fill:.2f}x): PASS "
          f"({elapsed:.2f}s)")
