import math
import sys
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import basinflow as bf
from basinflow import estimator as est
from basinflow import measurement as ms
from basinflow.cli import main
from basinflow.core_net import OPERAND_NAMES, build_incidence
from basinflow.topology import instantiate_capabilities, load_network

from pipeline_util import (
    DENSE_ORACLE_MAX_VARS,
    assemble_bundle,
    build_constraints,
    dense_oracle_solve,
    measurement_system,
    perturb_eot_nitrogen,
)
from test_cli import BUNDLE_DIGESTS

MINI_CHAIN_ROWS = [
    ({(1, 0): 1.0}, 100.0, "accept/alpha/agricultural/nitrogen"),
    ({(1, 1): 1.0}, 50.0, "eos/alpha/nitrogen"),
    ({(1, 2): 1.0}, 25.0, "eot/nitrogen"),
    ({(1, 1): 1.0, (1, 0): -0.5}, 0.0, "transport/land/land-1/nitrogen"),
    ({(1, 2): 1.0, (1, 1): -0.5}, 0.0, "transport/river/out-1->bay/nitrogen"),
    ({(1, 1): 1.0}, 48.0, "eos/alpha-recount/nitrogen"),
    ({(1, 0): 1.0}, 104.0, "accept/alpha-recount/agricultural/nitrogen"),
]


def mini_chain_constraints():
    """Seven measurement rows over the 3-capability chain."""
    return measurement_system(MINI_CHAIN_ROWS, 3)


def reference_assembly(m, constraints, k_steps, dt):
    """Entry-by-entry assembly of ``A``, ``b``, ``h`` and the row weights
    from the row views."""
    n_places, n_caps = m.shape
    n_vars = k_steps * (n_places + n_caps)

    def q_b(k, place):  # Q_B[k] for k = 2..K+1
        return (k - 2) * n_places + place

    def u(k, cap):  # U[k] for k = 1..K
        return k_steps * n_places + (k - 1) * n_caps + cap

    entries = []  # (row, column, value)
    m_coo = m.tocoo()
    for k in range(1, k_steps + 1):
        base = (k - 1) * n_places
        for p in range(n_places):
            entries.append((base + p, q_b(k + 1, p), -1.0))
            if k >= 2:
                entries.append((base + p, q_b(k, p), 1.0))
        entries += [(base + int(p), u(k, int(c)), float(v) * dt)
                    for p, c, v in zip(m_coo.row, m_coo.col, m_coo.data)]
    b = np.zeros(k_steps * n_places + len(constraints))
    squares = [con.constant ** 2 for con in constraints if con.constant != 0]
    u0_sq = max(np.median(squares), ms.WEIGHT_FLOOR)
    h = np.full(n_vars, est.DEFAULT_FLOW_PENALTY / u0_sq)
    h[: k_steps * n_places] = est.DEFAULT_BUFFER_PENALTY / u0_sq
    w = np.empty(len(constraints))
    for r, con in enumerate(constraints):
        row = k_steps * n_places + r
        entries += [(row, u(k, cap), coef)
                    for (k, cap), coef in con.coefficients]
        b[row] = con.constant
        w[r] = 1.0 / max(con.constant * con.constant, ms.WEIGHT_FLOOR)
    rows, cols, vals = zip(*entries)
    a = sp.coo_matrix((vals, (rows, cols)), shape=(b.size, n_vars)).tocsr()
    a.sum_duplicates()
    a.sort_indices()
    return a, b, h, w


def hard_problem(h, a, b, constraints=None):
    """A hand-built problem over ``x`` alone whose rows all hold exactly."""
    return est.EstimationProblem(
        n_steps=1, n_places=0, n_caps=len(h), dt=1.0,
        hessian_diag=np.asarray(h, dtype=float),
        constraint_matrix=sp.csr_matrix(a), rhs=np.asarray(b, dtype=float),
        weight=np.empty(0), alpha=1e-10, beta=1e-12, u0=1.0,
        constraints=constraints)


class TestAssembleProblem:
    def test_chain_dimension_count(self, mini_chain_incidence):
        problem = est.assemble_problem(mini_chain_incidence,
                                       mini_chain_constraints())
        assert problem.n_variables == 9  # 6 Q_B + 3 U
        assert problem.n_rows == 13  # 6 balance + 7 measurement
        assert problem.weight.size == 7  # one soft row per measurement
        assert problem.n_hard_rows == problem.n_balance_rows == 6

    def test_defaults_are_penalty_constants(self, mini_chain_incidence):
        problem = est.assemble_problem(mini_chain_incidence,
                                       mini_chain_constraints())
        assert problem.alpha == 1e-10
        assert problem.beta == 1e-12

    def test_no_constraints_warns_and_solves_to_zero(self, mini_chain_incidence):
        with pytest.warns(est.AssemblyWarning, match="all-zero"):
            problem = est.assemble_problem(mini_chain_incidence,
                                           measurement_system([], 3))
        solution = est.solve(problem)
        assert np.abs(solution.x).max() == 0.0
        assert solution.converged

    @pytest.mark.parametrize("n_caps, n_steps", [(4, 1), (2, 3)])
    def test_column_count_mismatch_rejected(self, mini_chain_incidence,
                                            n_caps, n_steps):
        # a hand-built system whose columns are not n_steps blocks of the
        # 3 capabilities of M
        rows = measurement_system(
            [({(1, 0): 1.0}, 5.0, "accept/a/agricultural/nitrogen")], n_caps,
            n_steps=n_steps)
        with pytest.raises(ValueError, match=(
                f"has {n_caps * n_steps} columns; {n_steps} step\\(s\\) of 3 "
                f"capabilities need {3 * n_steps}")):
            est.assemble_problem(mini_chain_incidence, rows)

    def test_hessian_layout(self, mini_chain_incidence):
        constraints = mini_chain_constraints()
        problem = est.assemble_problem(mini_chain_incidence, constraints)
        h = problem.hessian_diag
        # the data's unit: the median of 100^2, 50^2, 25^2, 48^2 and 104^2
        assert problem.u0 == 50.0
        assert h.size == 9
        assert (h[:6] == problem.beta / 2500.0).all()
        assert (h[6:9] == problem.alpha / 2500.0).all()
        # one weight per row, 1 / max(c^2, 2), the relations' on the floor
        assert problem.weight.tolist() == [1e-4, 4e-4, 1.6e-3, 0.5, 0.5,
                                           1 / 2304, 1 / 10816]

    @pytest.mark.parametrize("constant", [0.0, 0.5])
    def test_penalty_unit_floor(self, mini_chain_incidence, constant):
        # data below sqrt(2), or none but relations, leave the penalties at
        # alpha / 2 and beta / 2, as the weights sit on their floor
        rows = [({(1, 0): 1.0}, constant, "accept/a/agricultural/nitrogen"),
                ({(1, 1): 1.0, (1, 0): -0.5}, 0.0,
                 "transport/land/land-1/nitrogen")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            problem = est.assemble_problem(mini_chain_incidence,
                                           measurement_system(rows, 3))
        # only when every constant is 0 does the all-zero solution fit
        assert [w.category for w in caught] == \
            [est.AssemblyWarning] * (constant == 0)
        assert problem.u0 == math.sqrt(ms.WEIGHT_FLOOR)
        assert (problem.hessian_diag[6:] == problem.alpha / ms.WEIGHT_FLOOR).all()

    @pytest.mark.parametrize("k_steps", [1, 3, 12])
    def test_matches_entrywise_reference(self, k_steps):
        network, truth, datasets = bf.generate_synthetic(
            60, branching=3, seed=7, land_per_outlet=(2, 4))
        constraints = ms.expand_constraints(
            build_constraints(network, truth.capabilities, datasets)[0],
            k_steps)
        m = build_incidence(truth.capabilities, network.n_buffers)
        problem = est.assemble_problem(m, constraints, dt=0.5)
        a, b, h, w = reference_assembly(m, constraints, k_steps, 0.5)
        got = problem.constraint_matrix
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(a, name)), name
        assert np.array_equal(problem.rhs, b)
        assert np.array_equal(problem.hessian_diag, h)
        assert np.array_equal(problem.weight, w)


class TestSolveBasics:
    def test_single_variable_pin(self):
        # minimize x^2 subject to x = 3
        problem = hard_problem([2.0], [[1.0]], [3.0])
        solution = est.solve(problem)
        assert solution.x[0] == pytest.approx(3.0, rel=1e-12)
        assert solution.converged

    def test_symmetric_pair(self):
        # identity Hessian, x1 + x2 = 2 -> (1, 1) by symmetry
        problem = hard_problem(np.ones(2), [[1.0, 1.0]], [2.0])
        solution = dense_oracle_solve(problem)
        assert solution.x == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_dense_guard(self):
        n = DENSE_ORACLE_MAX_VARS + 1
        problem = hard_problem(np.ones(n), sp.csr_matrix((1, n)), np.zeros(1))
        with pytest.raises(ValueError, match="dense oracle"):
            dense_oracle_solve(problem)

    def test_objective_matches_reevaluation(self, mini_chain_incidence):
        problem = est.assemble_problem(mini_chain_incidence,
                                       mini_chain_constraints())
        solution = est.solve(problem)
        recomputed = 0.5 * (solution.x @ (problem.hessian_diag * solution.x)
                            + solution.errors @ (problem.weight * solution.errors))
        assert solution.objective_value == pytest.approx(recomputed, rel=1e-10)

    def test_zero_hessian_entry_rejected(self):
        problem = hard_problem([1.0, 0.0], [[1.0, 1.0]], [1.0])
        with pytest.raises(ValueError, match="strictly positive"):
            est.solve(problem)

    def test_singular_block_is_named(self):
        # duplicated hard rows without error variables: A is rank 1, which
        # no assembled problem is, and the factorization breaks down
        problem = hard_problem([1.0], [[1.0], [1.0]], [1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"KKT block 0 broke down"):
            est.solve(problem)

    def test_explicit_zeros_are_not_factored(self):
        # a bundle's zero delivery factors store zero coefficients in D
        a = sp.csr_matrix((np.array([1.0, 0.0, 1.0]), np.array([0, 1, 1]),
                           np.array([0, 2, 3])), shape=(2, 2))
        solution = est.solve(hard_problem([1.0, 1.0], a, [1.0, 2.0]))
        # diag(h) and the two stored nonzeros, each once in A and once in A^T
        assert solution.diagnostics["kkt_nnz"] == 2 + 2 * 2
        assert solution.x == pytest.approx([1.0, 2.0], rel=1e-12)


class TestFactorizationDiagnostics:
    def test_counts_and_residual_history(self):
        _, _, _, _, _, problem = assemble_bundle(10, branching=3, seed=2)
        solution = est.solve(problem)
        d = solution.diagnostics
        assert d["ordering"] == "COLAMD"
        kkt = est._kkt(problem.hessian_diag, problem.constraint_matrix,
                       est._dual_diagonal(problem))
        assert d["kkt_nnz"] == kkt.nnz
        assert d["fill_ratio"] == d["lu_nnz"] / d["kkt_nnz"]
        residuals = d["refinement_residuals"]
        assert len(residuals) == d["refinement_rounds"] + 1
        assert residuals[-1] <= est.DEFAULT_TOL * (1.0 + np.abs(problem.rhs).max())
        assert solution.converged

    def test_unreachable_tolerance_exhausts_refinement(self):
        _, _, _, _, _, problem = assemble_bundle(30, seed=7)
        solution = est.solve(problem, tol=1e-300)
        d = solution.diagnostics
        assert d["refinement_rounds"] == est.MAX_REFINEMENT_ROUNDS
        assert len(d["refinement_residuals"]) == est.MAX_REFINEMENT_ROUNDS + 1
        assert not solution.converged

    def test_factor_copies_are_never_read(self, monkeypatch):
        # lu.L and lu.U build CSC copies of the factor that live with it;
        # the solve and its diagnostics read neither, nor the permutation
        import scipy.sparse.linalg as spla

        _, _, _, _, _, problem = assemble_bundle(10, branching=3, seed=2)
        want = est.solve(problem)
        splu = spla.splu

        class NoCopies:
            def __init__(self, *args, **kwargs):
                self.lu = splu(*args, **kwargs)

            def __getattr__(self, name):
                if name in ("L", "U", "perm_c"):
                    raise AssertionError(f"lu.{name} read")
                return getattr(self.lu, name)

        monkeypatch.setattr(spla, "splu", NoCopies)
        got = est.solve(problem)
        assert got.converged
        assert np.array_equal(got.x, want.x)
        assert got.diagnostics == want.diagnostics


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_consistent_bundle(self, seed):
        _, truth, _, _, _, problem = assemble_bundle(4, branching=2, seed=seed)
        sparse = est.solve(problem)
        dense = dense_oracle_solve(problem)
        scale = 1.0 + np.abs(dense.x).max()
        assert np.abs(sparse.x - dense.x).max() / scale <= 1e-6
        assert abs(sparse.objective_value - dense.objective_value) \
            <= 1e-8 * (1.0 + abs(dense.objective_value))

    @pytest.mark.parametrize("k_steps", [2, 4, 8])
    def test_horizon_totals(self, k_steps):
        """Sparse and dense solves agree on horizon totals at K > 1.

        Data rows measure only horizon totals ``u.sum(0)``; the per-step
        split is pinned by the 1e-10/1e-12 penalties alone.  On these
        bundles the totals agree to 4e-15 and the objective to 2e-17, but
        the full ``x`` differs from LAPACK by 2.8e-7 under COLAMD (2.1e-7
        under MMD_AT_PLUS_A).  On noise-free 1-8 outlet bundles (seeds
        0-29, K in {2, 4, 8}) it reaches 5.7e-6 under COLAMD and 5.9e-6
        under MMD_AT_PLUS_A.  So totals and objective are gated, not ``x``.
        """
        rng = np.random.RandomState(k_steps)
        for seed in range(3):
            network, truth, datasets = bf.generate_synthetic(
                1 + seed, branching=1 + seed, seed=seed,
                land_per_outlet=(1, 2))
            constraints, _ = build_constraints(network, truth.capabilities,
                                               datasets)
            constant = constraints.constant.copy()
            for r, c in enumerate(constant):
                if c != 0.0 and rng.rand() < 0.5:
                    constant[r] = c * (1.0 + rng.uniform(-0.2, 0.2))
            noisy = replace(constraints, constant=constant)
            problem = est.assemble_problem(
                build_incidence(truth.capabilities, network.n_buffers),
                ms.expand_constraints(noisy, k_steps))
            sparse = est.solve(problem)
            dense = dense_oracle_solve(problem)
            totals = dense.u.sum(axis=0)
            total_dev = np.abs(sparse.u.sum(axis=0) - totals).max() \
                / (1.0 + np.abs(totals).max())
            assert total_dev <= 1e-10
            obj_dev = abs(sparse.objective_value - dense.objective_value) \
                / (1.0 + abs(dense.objective_value))
            assert obj_dev <= 1e-12

    @given(n_outlets=st.integers(1, 6), branching=st.integers(1, 3),
           county_mode=st.sampled_from(["per-segment", "grouped"]),
           k_steps=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_bundles(self, n_outlets, branching, county_mode, k_steps,
                            seed):
        """The sparse solve of the eliminated form agrees with the dense
        solve of the full form on random bundles, half of whose data
        constants are scaled by 1 +- 0.2.

        Flows are compared on per-segment bundles only: grouped counties
        leave some flows, and K > 1 their split across steps, to the
        penalties.  Over 300 draws the errors agreed to 5.7e-11, the
        objective to 1.7e-16, and per-segment totals to 3.2e-14.
        """
        network, truth, datasets = bf.generate_synthetic(
            n_outlets, branching=branching, seed=seed, county_mode=county_mode)
        constraints, _ = build_constraints(network, truth.capabilities,
                                           datasets)
        rng = np.random.RandomState(seed)
        constant = constraints.constant.copy()
        picked = (constant != 0) & (rng.rand(constant.size) < 0.5)
        constant[picked] *= 1.0 + rng.uniform(-0.2, 0.2, picked.sum())
        noisy = replace(constraints, constant=constant)
        problem = est.assemble_problem(
            build_incidence(truth.capabilities, network.n_buffers),
            ms.expand_constraints(noisy, k_steps))
        sparse = est.solve(problem)
        dense = dense_oracle_solve(problem)
        assert sparse.converged and dense.converged
        assert abs(sparse.objective_value - dense.objective_value) \
            <= 1e-8 * (1.0 + abs(dense.objective_value))
        assert np.abs(sparse.errors - dense.errors).max() \
            <= 1e-6 * (1.0 + np.abs(dense.errors).max())
        balance = (problem.constraint_matrix @ sparse.x
                   - problem.rhs)[:problem.n_balance_rows]
        assert np.abs(balance).max() <= 1e-8 * (1.0 + np.abs(problem.rhs).max())
        if county_mode == "per-segment":
            totals = dense.u.sum(axis=0)
            assert np.abs(sparse.u.sum(axis=0) - totals).max() \
                <= 1e-6 * np.abs(totals).max()
            if k_steps == 1:
                assert np.abs(sparse.x - dense.x).max() \
                    <= 1e-6 * np.abs(dense.x).max()

    def test_chain_identical_objective(self, mini_chain_incidence):
        problem = est.assemble_problem(mini_chain_incidence,
                                       mini_chain_constraints())
        sparse = est.solve(problem)
        dense = dense_oracle_solve(problem)
        assert sparse.objective_value == pytest.approx(
            dense.objective_value, rel=1e-8)


class TestRecovery:
    def test_chain_consistency(self):
        _, truth, _, constraints, _, problem = assemble_bundle(1, 1, seed=42)
        solution = est.solve(problem)
        deviation = np.abs(solution.u[0] - truth.u) / np.abs(truth.u)
        assert deviation.max() <= 1e-4
        for r, con in enumerate(constraints):
            bound = 1e-6 * max(abs(con.constant), math.sqrt(2))
            assert abs(solution.errors[r]) <= bound

    @pytest.mark.parametrize("load_scale", [1e4, 1e6])
    def test_recovery_independent_of_units(self, load_scale):
        # the penalties scale with the data, so large loads recover as
        # closely as small ones (1.19 and 1.01 with absolute penalties)
        _, truth, _, _, _, problem = assemble_bundle(100, 3, 11,
                                                     load_scale=load_scale)
        solution = est.solve(problem)
        assert solution.converged
        assert (np.abs(solution.u[0] - truth.u) / np.abs(truth.u)).max() <= 1e-6

    @pytest.mark.parametrize("load_scale, seed", [
        pytest.param(load_scale, seed, id=str(seed) if load_scale == 1e6
                     else f"{load_scale:g}-{seed}")
        for load_scale in (1e6, 1e7, 1e10) for seed in (3, 5, 11)])
    def test_recovery_independent_of_index_order(self, load_scale, seed):
        # At CAST magnitudes the pivot order of the factor can swap a flow
        # whose scaled diagonal is ~1e-25 with a soft row; the flows must
        # not depend on it.  Variables, hard rows and soft rows are each
        # shuffled, and the solution mapped back.
        _, truth, _, _, _, problem = assemble_bundle(100, 3, seed,
                                                     load_scale=load_scale)
        n_hard = problem.n_hard_rows
        for draw in range(4):
            rng = np.random.RandomState(draw)
            cols = rng.permutation(problem.n_variables)
            soft = rng.permutation(problem.weight.size)
            rows = np.concatenate([rng.permutation(n_hard), n_hard + soft])
            shuffled = est.solve(replace(
                problem, hessian_diag=problem.hessian_diag[cols],
                constraint_matrix=problem.constraint_matrix[rows][:, cols].tocsr(),
                rhs=problem.rhs[rows], weight=problem.weight[soft],
                constraints=None))
            x = np.empty_like(shuffled.x)
            x[cols] = shuffled.x
            u = x[problem.n_steps * problem.n_places:]
            error = float((np.abs(u - truth.u) / np.abs(truth.u)).max())
            assert error <= 1e-6, (draw, error)

    def test_perturbed_eot_matches_oracle(self):
        network, truth, datasets, _, incidence, _ = assemble_bundle(1, 1, seed=42)
        perturbed = replace(datasets, loads=perturb_eot_nitrogen(datasets.loads))
        constraints, _ = build_constraints(network, truth.capabilities, perturbed)
        problem = est.assemble_problem(incidence, constraints)
        sparse = est.solve(problem)
        dense = dense_oracle_solve(problem)
        scale = 1.0 + np.abs(dense.x).max()
        assert np.abs(sparse.x - dense.x).max() / scale <= 1e-6
        eot_rows = np.flatnonzero(
            (constraints.family == ms.EOT)
            & (constraints.operand == OPERAND_NAMES.index("nitrogen")))
        assert np.abs(sparse.errors[eot_rows]).max() > 0


class TestCastMagnitudes:
    """Above ``u0^2 = WEIGHT_FLOOR / WEIGHT_FLOOR_SHARE`` the weight floor
    grows with the data's unit, so the problem is the same in any unit:
    ``load_scale`` 1e3 already puts the 100-outlet bundles there."""

    GROUPED = dict(county_mode="grouped", land_per_outlet=(2, 4))

    @pytest.mark.parametrize("load_scale", [1e3, 1e4, 1e7, 1e10])
    def test_grouped_bundle_solves(self, load_scale):
        _, _, _, _, _, problem = assemble_bundle(100, 3, 7, load_scale=load_scale,
                                                 **self.GROUPED)
        assert problem.u0 ** 2 > ms.WEIGHT_FLOOR / ms.WEIGHT_FLOOR_SHARE
        assert est.solve(problem).converged

    @pytest.mark.parametrize("grouped", [False, True],
                             ids=["per-segment", "grouped"])
    def test_flows_scale_with_the_data(self, grouped):
        # relative to the largest flow: grouped flows the data do not
        # determine are set by the penalties, and agree to 3e-12 of it
        def flows(load_scale):
            _, _, _, _, _, problem = assemble_bundle(
                100, 3, 7, load_scale=load_scale,
                **(self.GROUPED if grouped else {}))
            solution = est.solve(problem)
            assert solution.converged
            return solution.u / load_scale

        want = flows(1e3)
        for load_scale in (1e4, 1e7, 1e10):
            assert np.abs(flows(load_scale) - want).max() \
                <= 1e-9 * np.abs(want).max(), load_scale


class TestConservation:
    @pytest.mark.parametrize("n_outlets,seed", [(1, 1), (10, 2), (30, 3)])
    def test_mass_balance_and_totals(self, n_outlets, seed):
        _, truth, _, _, incidence, problem = assemble_bundle(
            n_outlets, branching=3, seed=seed)
        solution = est.solve(problem)
        n_balance = problem.n_balance_rows
        balance_residual = (problem.constraint_matrix @ solution.x
                            - problem.rhs)[:n_balance]
        tol = 1e-8 * (1.0 + np.abs(problem.rhs).max())
        assert np.abs(balance_residual).max() <= tol

        accept_ids = [c.id for c in truth.capabilities
                      if c.capability_class.is_accept]
        total_mass = solution.q_b[-1].sum()
        accepted = problem.dt * solution.u.sum(axis=0)[accept_ids].sum()
        assert total_mass == pytest.approx(accepted, rel=1e-8)

    def test_multi_step_balance(self, mini_chain_incidence):
        constraints = ms.expand_constraints(mini_chain_constraints(), 3)
        problem = est.assemble_problem(mini_chain_incidence, constraints,
                                       dt=0.5)
        solution = est.solve(problem)
        assert solution.converged
        # states chain together: q[k+1] = q[k] + M u[k] dt
        m = mini_chain_incidence.toarray()
        q_prev = np.zeros(6)
        for k in range(3):
            expected = q_prev + m @ solution.u[k] * 0.5
            assert solution.q_b[k] == pytest.approx(expected, abs=1e-9)
            q_prev = solution.q_b[k]


class TestScaling:
    def test_data_row_scaling(self, mini_chain_incidence):
        # all constants comfortably above sqrt(2) so weights stay 1/C^2
        rows = [
            ({(1, 0): 1.0}, 20.0, "accept/a/agricultural/nitrogen"),
            ({(1, 1): 1.0}, 9.0, "eos/a/nitrogen"),
            ({(1, 2): 1.0}, 4.2, "eot/nitrogen"),
        ]
        s = 5.0

        def solve_scaled(factor):
            scaled = [(coefs, constant * factor, label)
                      for coefs, constant, label in rows]
            problem = est.assemble_problem(mini_chain_incidence,
                                           measurement_system(scaled, 3))
            return est.solve(problem).x

        x1 = solve_scaled(1.0)
        xs = solve_scaled(s)
        assert np.abs(xs - s * x1).max() <= 1e-5 * (1.0 + np.abs(s * x1).max())


def bundle_problem(k_steps):
    """A 6-outlet bundle's problem over ``k_steps`` steps."""
    _, _, _, constraints, incidence, problem = assemble_bundle(6, branching=2,
                                                               seed=5)
    if k_steps == 1:
        return problem
    return est.assemble_problem(
        incidence, ms.expand_constraints(constraints, k_steps))


def factored_matrices(monkeypatch) -> tuple[list, list]:
    """Every matrix ``splu`` is given from now on, and every factor it
    returns, in call order."""
    import scipy.sparse.linalg as spla

    factored, factors = [], []
    splu = spla.splu

    def record(matrix, *args, **kwargs):
        factored.append(matrix)
        factors.append(splu(matrix, *args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", record)
    return factored, factors


class TestReducedKKT:
    @pytest.mark.parametrize("k_steps", [1, 3])
    def test_errors_leave_the_factored_matrix(self, k_steps, monkeypatch):
        problem = bundle_problem(k_steps)
        factored, factors = factored_matrices(monkeypatch)
        solution = est.solve(problem)
        assert all(m.shape[0] == m.shape[1] for m in factored)
        assert sum(m.shape[0] for m in factored) \
            == problem.n_variables + problem.n_rows
        assert solution.diagnostics["kkt_nnz"] == sum(m.nnz for m in factored)
        assert solution.diagnostics["lu_nnz"] == sum(lu.nnz for lu in factors)
        assert solution.converged
        # the dual diagonal is -1/w on the soft rows and empty on the hard ones
        kkt = est._kkt(problem.hessian_diag, problem.constraint_matrix,
                       est._dual_diagonal(problem))
        dual = kkt.diagonal()[problem.n_variables:]
        assert np.array_equal(dual, np.concatenate(
            [np.zeros(problem.n_balance_rows), -1.0 / problem.weight]))

    @pytest.mark.parametrize("k_steps", [1, 3])
    def test_errors_are_weighted_multipliers(self, k_steps):
        problem = bundle_problem(k_steps)
        solution = est.solve(problem)
        expected = (solution.multipliers[problem.n_balance_rows:]
                    / ms.compute_weights(problem.constraints.constant))
        assert np.abs(solution.errors - expected).max() \
            <= 1e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("k_steps", [1, 3])
    def test_stationarity_on_every_column(self, k_steps):
        problem = bundle_problem(k_steps)
        solution = est.solve(problem)
        lam = solution.multipliers
        dual_term = np.concatenate([problem.constraint_matrix.T @ lam,
                                    -lam[problem.n_balance_rows:]])
        gradient = np.concatenate([problem.hessian_diag * solution.x,
                                   problem.weight * solution.errors]) + dual_term
        assert np.abs(gradient).max() <= 1e-12 * (1.0 + np.abs(dual_term).max())

    def test_perturbed_multipliers_not_converged(self):
        problem = bundle_problem(1)
        solution = est.solve(problem)
        assert solution.converged
        lam = solution.multipliers.copy()
        lam[problem.n_balance_rows] += 1e-4 * (
            1.0 + np.abs(problem.constraint_matrix.T @ lam).max())
        perturbed = est._extract_solution(problem, solution.x, solution.errors,
                                          lam, est.DEFAULT_TOL, {})
        assert perturbed.constraint_residual == solution.constraint_residual
        assert not perturbed.converged


def synth_problem(out, args, k_steps):
    """The problem ``estimate`` assembles for the bundle ``synth args``
    writes to ``out``, over ``k_steps`` steps."""
    assert main(["synth", *args, "--out", str(out)]) == 0
    network = load_network(out / "network.json")
    capabilities = instantiate_capabilities(network)
    delivery = ms.compute_delivery_model(
        network, ms.read_delivery_factors(out / "delivery_factors.csv"),
        ms.read_areas(out / "areas.csv"))
    system, _, _ = ms.assemble_system(
        network, capabilities, ms.read_applied(out / "applied.csv"),
        ms.read_loads(out / "loads.csv"), delivery)
    return est.assemble_problem(build_incidence(capabilities, network.n_buffers),
                                ms.expand_constraints(system, k_steps))


def references(held: list) -> list[int]:
    """``sys.getrefcount`` of each item of ``held``."""
    return [sys.getrefcount(item) for item in held]


class TestEquilibration:
    @staticmethod
    def reference(kkt):
        """The scaling and the scaled matrix as scipy's own operations
        compute them."""
        row_max = np.abs(kkt).max(axis=1).toarray().ravel()
        row_max[row_max == 0] = 1.0
        s = 1.0 / np.sqrt(row_max)
        return s, (sp.diags(s) @ kkt @ sp.diags(s)).tocsc()

    def assert_bit_identical(self, kkt):
        s, scaled = est._equilibrate(kkt)
        want_s, want = self.reference(kkt)
        assert np.array_equal(s, want_s)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(scaled, name), getattr(want, name))

    @pytest.mark.parametrize("k_steps", [1, 3])
    @pytest.mark.parametrize("args", list(BUNDLE_DIGESTS),
                             ids=["per-segment", "grouped"])
    def test_block_scaling_matches_scipy(self, tmp_path, monkeypatch, args,
                                         k_steps):
        problem = synth_problem(tmp_path, args, k_steps)
        kkt, blocks = est._kkt, []

        def record(*operands):
            blocks.append(kkt(*operands))
            return blocks[-1]

        monkeypatch.setattr(est, "_kkt", record)
        est.solve(problem)
        assert len(blocks) == len(OPERAND_NAMES)
        for block in blocks:
            self.assert_bit_identical(block)

    def test_unsorted_kkt_survives_its_factorization(self, monkeypatch):
        # The scaled matrix shares kkt's pattern, and splu sorts the indices
        # of a matrix it is given unsorted in place, so kkt is made
        # canonical first; else refinement reads data off a moved pattern.
        kkt, blocks = est._kkt, []

        def unsorted(*operands):
            block = kkt(*operands)
            # each column's entries in reverse: the same matrix, unsorted
            column = np.repeat(np.arange(block.shape[1]), np.diff(block.indptr))
            order = np.lexsort((-np.arange(block.nnz), column))
            block = sp.csc_matrix((block.data[order], block.indices[order],
                                   block.indptr), shape=block.shape)
            assert not block.has_sorted_indices
            blocks.append((block, block.toarray()))
            return block

        monkeypatch.setattr(est, "_kkt", unsorted)
        solution = est.solve(bundle_problem(3))
        assert len(blocks) == len(OPERAND_NAMES)
        for block, dense in blocks:
            assert np.array_equal(block.toarray(), dense)
        assert solution.converged
        assert solution.diagnostics["refinement_residuals"][-1] <= 1e-12

    def test_empty_row_keeps_unit_scale(self):
        # the second constraint row has no entries and a zero dual
        block = est._kkt(np.array([4.0]), sp.csr_matrix([[2.0], [0.0]]),
                         np.zeros(2))
        assert block.getnnz(axis=1).tolist() == [2, 1, 0]
        self.assert_bit_identical(block)
        assert est._equilibrate(block)[0][2] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e300, max_value=1e300),
                    min_size=1, max_size=12)
           | st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0]),
                      min_size=1, max_size=12))
    def test_median_matches_numpy_bit_for_bit(self, values):
        values = np.array(values)
        assert np.float64(ms.median(values)).tobytes() \
            == np.median(values).tobytes()


class TestOperandBlocks:
    @pytest.mark.parametrize("k_steps", [1, 3])
    @pytest.mark.parametrize("args", list(BUNDLE_DIGESTS),
                             ids=["per-segment", "grouped"])
    def test_one_factor_per_operand_alive_at_a_time(self, tmp_path, monkeypatch,
                                                    args, k_steps):
        # No row couples two operands, so solve factors one block per
        # operand and drops each factor before it factors the next.
        import scipy.sparse.linalg as spla

        problem = synth_problem(tmp_path, args, k_steps)
        splu = spla.splu
        # an object held by one list only, as the factors must be
        held_once = references([object()])[0]
        factored, factors = [], []

        def record(matrix, *rest, **options):
            assert references(factors) == [held_once] * len(factors)
            factored.append(matrix)
            factors.append(splu(matrix, *rest, **options))
            return factors[-1]

        monkeypatch.setattr(spla, "splu", record)
        solution = est.solve(problem)
        assert references(factors) == [held_once] * len(factors)
        assert len(factored) == len(OPERAND_NAMES)
        assert sum(m.shape[0] for m in factored) \
            == problem.n_variables + problem.n_rows
        assert sum(m.nnz for m in factored) == solution.diagnostics["kkt_nnz"]
        assert solution.converged

    def test_scaled_matrix_freed_once_factored(self, tmp_path, monkeypatch):
        # SuperLU keeps no reference to the matrix it factored, so the
        # scaled copy is gone before the factor's first solve.
        import scipy.sparse.linalg as spla

        problem = synth_problem(tmp_path, list(BUNDLE_DIGESTS)[0], 3)
        splu, alive = spla.splu, []

        class Factor:
            def __init__(self, matrix, *rest, **options):
                self.lu = splu(matrix, *rest, **options)
                self.matrix = weakref.ref(matrix)

            def __getattr__(self, name):
                return getattr(self.lu, name)

            def solve(self, rhs):
                alive.append(self.matrix() is not None)
                return self.lu.solve(rhs)

        monkeypatch.setattr(spla, "splu", Factor)
        assert est.solve(problem).converged
        assert alive and not any(alive)


class TestUniqueness:
    def test_permuted_variables_same_solution(self):
        _, _, _, _, _, problem = assemble_bundle(3, branching=2, seed=13)
        baseline = est.solve(problem)
        rng = np.random.RandomState(0)
        perm = rng.permutation(problem.n_variables)
        permuted = replace(
            problem, hessian_diag=problem.hessian_diag[perm],
            constraint_matrix=problem.constraint_matrix[:, perm].tocsr())
        shuffled = est.solve(permuted)
        scale = 1.0 + np.abs(baseline.x).max()
        assert np.abs(shuffled.x - baseline.x[perm]).max() / scale <= 1e-8


class TestResidualReport:
    def test_consistent_families_near_zero(self):
        _, _, _, _, _, problem = assemble_bundle(10, branching=3, seed=21,
                                                 load_scale=0.1)
        solution = est.solve(problem)
        report = est.residual_report(problem, solution)
        families = {f["family"] for f in report}
        assert families == {"mass_balance", "accept", "eos", "eot", "transport"}
        scale = 1.0 + np.abs(problem.rhs).max()
        for fam in report:
            for stats in (fam["row_residuals"], fam.get("errors")):
                if stats is not None:
                    assert max(abs(stats["min"]), abs(stats["max"])) \
                        <= 1e-8 * scale

    def test_perturbation_locality_across_operands(self):
        network, truth, datasets, _, incidence, _ = assemble_bundle(
            10, branching=3, seed=21)
        baseline_cons, _ = build_constraints(network, truth.capabilities,
                                             datasets)
        baseline = est.solve(est.assemble_problem(incidence, baseline_cons))

        perturbed_ds = replace(datasets,
                               loads=perturb_eot_nitrogen(datasets.loads))
        cons, _ = build_constraints(network, truth.capabilities, perturbed_ds)
        perturbed = est.solve(est.assemble_problem(incidence, cons))

        p_rows = np.flatnonzero(cons.operand == OPERAND_NAMES.index("phosphorus"))
        n_rows = np.flatnonzero(cons.operand == OPERAND_NAMES.index("nitrogen"))
        # phosphorus rows never shared a capability with the perturbed datum
        assert np.abs(perturbed.errors[p_rows]
                      - baseline.errors[p_rows]).max() <= 1e-10
        assert np.abs(perturbed.errors[n_rows]).max() > 1e-3

    def test_empty_family_omitted(self, mini_chain_incidence):
        rows = measurement_system([({(1, 2): 1.0}, 25.0, "eot/nitrogen")], 3)
        problem = est.assemble_problem(mini_chain_incidence, rows)
        report = est.residual_report(problem, est.solve(problem))
        assert {f["family"] for f in report} == {"mass_balance", "eot"}
