"""Equality-constrained quadratic program for flow estimation.

The decision vector stacks buffer masses after each step, per-capability
firings per step, and one error variable per measurement row:

    x = [ Q_B[2..K+1] | U[1..K] | errors ]

subject to the mass balance ``-Q_B[k+1] + Q_B[k] + M U[k] dt = 0`` (with
``Q_B[1] = 0`` eliminated) and the measurement rows ``D U - error = c``.
The objective is ``1/2 x^T H x`` with a strictly positive diagonal H:
measurement weights on the errors, and small uniqueness penalties on flows
and buffer masses.

The solver factorizes the bordered KKT matrix ``[[H, A^T], [A, 0]]`` in a
reduced form (never the normal equations, whose conditioning collapses
under the tiny penalties).  An error column with a single entry ``a`` in
row r is eliminated exactly, as in Hachtel's augmented matrix: its
stationarity row gives ``x_j = -a lambda_r / h_j``, so the column leaves
the primal block and row r's dual diagonal gets ``-a^2 / h_j``.  For the
rows ``assemble_problem`` builds, every error goes and ``e_r = lambda_r /
w_r``.  The reduced matrix is factorized after symmetric max-norm
equilibration, with iterative refinement when the first solve misses
tolerance.  Columns are ordered by COLAMD, whose fill-in stays near-flat in
the horizon K where minimum degree on ``A^T + A`` grows with it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .core_net import IncidenceMatrices
from .measurement import FAMILIES, MeasurementSystem, row_labels

DEFAULT_FLOW_PENALTY = 1e-10
DEFAULT_BUFFER_PENALTY = 1e-12
DEFAULT_TOL = 1e-8
MAX_REFINEMENT_ROUNDS = 2
# Fill ratio nnz(L + U) / nnz(KKT) of the reduced KKT on a 300-outlet tree
# at K=8: 4.8 with COLAMD, 30 with MMD_AT_PLUS_A; at K=1 1.6 and 1.5.
# SuperLU is called with panel_size=1: its panel workspace grows with
# n * panel_size, and on a 1500-outlet estimate whose factor holds about
# 5 MB the default of 12 raised peak RSS from 116.5 to 139.5 MB.  One-column
# panels also factored that KKT faster, 0.05 s against 0.09 s.
KKT_ORDERING = "COLAMD"


class AssemblyWarning(UserWarning):
    """Assembly produced a degenerate but solvable problem."""


@dataclass(frozen=True)
class VariableIndex:
    """Block sizes of the decision vector ``[Q_B | U | errors]``.

    Columns run step-major within each block: ``n_places`` buffer masses
    for each of the steps 2..K+1 (the zero initial state is eliminated),
    ``n_caps`` firings for each of the steps 1..K, then one error per
    measurement row.
    """

    n_steps: int
    n_places: int
    n_caps: int
    n_errors: int


@dataclass
class EstimationProblem:
    """Assembled sparse QP: min 1/2 x^T diag(h) x  s.t.  A x = b."""

    n_steps: int
    dt: float
    hessian_diag: np.ndarray
    constraint_matrix: sp.csr_matrix
    rhs: np.ndarray
    var_index: VariableIndex
    alpha: float
    beta: float
    constraints: Optional[MeasurementSystem] = None

    @property
    def n_variables(self) -> int:
        return self.hessian_diag.shape[0]

    @property
    def n_rows(self) -> int:
        return self.constraint_matrix.shape[0]

    @property
    def n_balance_rows(self) -> int:
        return self.n_steps * self.var_index.n_places

    def measurement_row_label(self, r: int) -> str:
        if self.constraints is not None and r < len(self.constraints):
            return row_labels(self.constraints, [r])[0]
        return f"row {r}"


@dataclass
class Solution:
    """Estimated trajectories with residual diagnostics.

    ``q_b[i]`` is the place-mass vector after step ``i + 1`` (the state
    labeled ``Q_B[i + 2]``); ``u[i]`` the firings of step ``i + 1``.
    Residuals are recomputed from the returned vectors, never read off
    solver internals.
    """

    q_b: np.ndarray
    u: np.ndarray
    errors: np.ndarray
    objective_value: float
    kkt_residual: float
    constraint_residual: float
    converged: bool
    x: np.ndarray
    multipliers: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def assemble_problem(incidence: IncidenceMatrices,
                     constraints: MeasurementSystem,
                     k_steps: int = 1,
                     dt: float = 1.0,
                     alpha: float = DEFAULT_FLOW_PENALTY,
                     beta: float = DEFAULT_BUFFER_PENALTY) -> EstimationProblem:
    """Build the QP from the incidence structure and measurement rows.

    ``A = [[Q_K, kron(I_K, M dt), 0], [0, D_K, -I]]``: balance rows come
    first (one block of ``n_places`` rows per step), then one row per
    measurement.  The measurement system must span ``k_steps`` steps (see
    ``measurement.expand_constraints``) and have its weights set (see
    ``measurement.compute_weights``).
    """
    if incidence.n_capabilities == 0:
        raise ValueError("cannot assemble a problem with no capabilities")
    if k_steps < 1:
        raise ValueError(f"k_steps must be >= 1, got {k_steps}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta penalties must be positive")
    n_places = incidence.n_places
    n_caps = incidence.n_capabilities
    if constraints.d.shape[1] != k_steps * n_caps:
        raise ValueError(f"measurement system spans {constraints.n_steps} "
                         f"step(s); the problem has {k_steps}")
    if constraints.weight is None:
        raise ValueError("measurement rows have no weights; run compute_weights")
    if not len(constraints):
        warnings.warn(
            "no measurement constraints: the problem admits the all-zero "
            "trivial solution", AssemblyWarning, stacklevel=2,
        )

    index = VariableIndex(k_steps, n_places, n_caps, len(constraints))
    h = np.concatenate([np.full(k_steps * n_places, beta),
                        np.full(k_steps * n_caps, alpha), constraints.weight])
    # Q_B[k + 1] - Q_B[k] with the zero initial state eliminated.
    q_k = sp.kron(sp.eye(k_steps, k=-1) - sp.identity(k_steps),
                  sp.identity(n_places))
    a = sp.bmat([[q_k, sp.kron(sp.identity(k_steps), incidence.m * dt), None],
                 [None, constraints.d, -sp.identity(len(constraints))]], format="csr")
    a.sum_duplicates()
    a.sort_indices()
    b = np.concatenate([np.zeros(k_steps * n_places), constraints.constant])
    return EstimationProblem(
        n_steps=k_steps, dt=dt, hessian_diag=h, constraint_matrix=a, rhs=b,
        var_index=index, alpha=alpha, beta=beta, constraints=constraints,
    )


# ---------------------------------------------------------------------------
# KKT solvers
# ---------------------------------------------------------------------------

def _eliminated_errors(problem: EstimationProblem,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which columns stay in the KKT matrix, as a mask over the variables;
    the others are the error-block columns of A with exactly one entry, and
    their rows and entries follow in column order."""
    a = problem.constraint_matrix.tocsc()
    first = problem.n_variables - problem.var_index.n_errors
    columns = first + np.flatnonzero(np.diff(a.indptr[first:]) == 1)
    kept = np.ones(problem.n_variables, dtype=bool)
    kept[columns] = False
    at = a.indptr[columns]
    return kept, a.indices[at], a.data[at]


def _kkt_matrix(problem: EstimationProblem, dual_shift: float = 0.0) -> sp.csc_matrix:
    """``[[H_k, A_k^T], [A_k, -D]]`` over the kept columns k, with the dual
    diagonal ``D = dual_shift + sum a^2 / h`` over each row's eliminated
    errors (see :func:`_eliminated_errors`)."""
    kept, rows, entries = _eliminated_errors(problem)
    h = problem.hessian_diag
    a = problem.constraint_matrix[:, kept]
    dual = dual_shift + np.bincount(rows, weights=entries ** 2 / h[~kept],
                                    minlength=a.shape[0])
    on = np.flatnonzero(dual)
    lower_right = sp.csc_matrix((-dual[on], (on, on)), shape=(a.shape[0],) * 2)
    kkt = sp.bmat([[sp.diags(h[kept]), a.T], [a, lower_right]], format="csc")
    kkt.sort_indices()
    return kkt


def _equilibrate(kkt: sp.csc_matrix) -> np.ndarray:
    """Symmetric max-norm scaling: s_i = 1/sqrt(max_j |K_ij|)."""
    row_max = np.abs(kkt).max(axis=1).toarray().ravel()
    row_max[row_max == 0] = 1.0
    return 1.0 / np.sqrt(row_max)


def _suspect_rows(problem: EstimationProblem, lu, n_kept: int) -> list[str]:
    """Name measurement rows whose pivots collapsed during factorization.

    SuperLU factors ``Pr A Pc = L U`` with ``Pc[j, perm_c[j]] = 1``, so
    pivot i sits in the original column j with ``perm_c[j] == i``; the
    dual columns follow the ``n_kept`` primal ones.
    """
    diag = np.abs(lu.U.diagonal())
    scale = diag.max() if diag.size else 0.0
    if scale == 0.0:
        return []
    tiny = np.nonzero(diag < 1e-10 * scale)[0]
    pivot_column = np.argsort(lu.perm_c)
    labels = []
    for i in tiny:
        col = int(pivot_column[i])
        if col >= n_kept:
            r = col - n_kept - problem.n_balance_rows
            if r >= 0:
                labels.append(problem.measurement_row_label(r))
            else:
                labels.append(f"balance row {col - n_kept}")
    return labels


def solve(problem: EstimationProblem, tol: float = DEFAULT_TOL) -> Solution:
    """Solve via sparse LU of the equilibrated, reduced bordered KKT system.

    The error columns that :func:`_kkt_matrix` eliminates are recovered
    from the multipliers after the solve, and every residual is recomputed
    from the full ``A``.  Convergence means ``||A x - b||_inf <= tol * (1 +
    ||b||_inf)`` and ``||H x + A^T lambda||_inf <= tol * (1 + ||A^T
    lambda||_inf)``.  Up to ``MAX_REFINEMENT_ROUNDS`` rounds of iterative
    refinement are applied while the reduced KKT residual misses the first
    bound; on a singular factorization the dual block is shifted by
    ``-delta I`` (delta = 1e-12 * ||A||_inf) and the shift is surfaced in
    the diagnostics together with the suspect rows.

    The diagnostics also record the factorization: ``ordering``,
    ``kkt_nnz`` (the factored matrix), ``lu_nnz`` (``L.nnz + U.nnz``),
    ``fill_ratio`` (their quotient), and ``refinement_residuals``, the
    reduced KKT residual's inf-norm after the first solve and after each
    round.
    """
    # Imported here: commands that never factorize skip its import cost.
    import scipy.sparse.linalg as spla

    if np.any(problem.hessian_diag <= 0):
        raise ValueError("hessian diagonal must be strictly positive")
    a = problem.constraint_matrix
    kept, rows, entries = _eliminated_errors(problem)
    n_kept = int(kept.sum())
    rhs = np.concatenate([np.zeros(n_kept), problem.rhs])
    diagnostics: dict = {"regularized": False, "refinement_rounds": 0,
                         "suspect_rows": [], "tol": tol,
                         "ordering": KKT_ORDERING}

    def factorize(dual_shift: float):
        kkt = _kkt_matrix(problem, dual_shift)
        s = _equilibrate(kkt)
        scaled = (sp.diags(s) @ kkt @ sp.diags(s)).tocsc()
        diagnostics["kkt_nnz"] = scaled.nnz
        try:
            lu = spla.splu(scaled, permc_spec=KKT_ORDERING, panel_size=1,
                           options=dict(SymmetricMode=True,
                                        DiagPivotThresh=0.001))
        except RuntimeError:
            return None, kkt, s
        return lu, kkt, s

    lu, kkt, s = factorize(0.0)
    if lu is None:
        norm_a = spla.norm(a, np.inf) if a.nnz else 1.0
        delta = 1e-12 * max(norm_a, 1.0)
        diagnostics["regularized"] = True
        diagnostics["dual_shift"] = delta
        lu, kkt, s = factorize(delta)
        if lu is None:
            raise np.linalg.LinAlgError(
                "KKT system is singular even after dual regularization; "
                "the constraint matrix is rank deficient"
            )

    diagnostics["lu_nnz"] = lu.L.nnz + lu.U.nnz
    diagnostics["fill_ratio"] = diagnostics["lu_nnz"] / diagnostics["kkt_nnz"]
    suspects = _suspect_rows(problem, lu, n_kept)
    if suspects and not diagnostics["regularized"]:
        diagnostics["suspect_rows"] = suspects

    def kkt_solve(vec: np.ndarray) -> np.ndarray:
        return s * lu.solve(s * vec)

    y = kkt_solve(rhs)
    b_scale = 1.0 + np.abs(problem.rhs).max(initial=0.0)
    residuals = diagnostics["refinement_residuals"] = []
    while True:
        residual = rhs - kkt @ y
        residuals.append(float(np.abs(residual).max(initial=0.0)))
        if (residuals[-1] <= tol * b_scale
                or diagnostics["refinement_rounds"] == MAX_REFINEMENT_ROUNDS):
            break
        y = y + kkt_solve(residual)
        diagnostics["refinement_rounds"] += 1

    lam = y[n_kept:]
    x = np.empty(problem.n_variables)
    x[kept] = y[:n_kept]
    x[~kept] = -entries * lam[rows] / problem.hessian_diag[~kept]
    return _extract_solution(problem, x, lam, tol, diagnostics)


def _extract_solution(problem: EstimationProblem, x: np.ndarray,
                      lam: np.ndarray, tol: float,
                      diagnostics: dict) -> Solution:
    index = problem.var_index
    a = problem.constraint_matrix
    row_residual = a @ x - problem.rhs
    dual_term = a.T @ lam
    grad_residual = problem.hessian_diag * x + dual_term
    constraint_residual = float(np.abs(row_residual).max(initial=0.0))
    stationarity_residual = float(np.abs(grad_residual).max(initial=0.0))
    kkt_residual = max(stationarity_residual, constraint_residual)
    objective = 0.5 * float(x @ (problem.hessian_diag * x))
    converged = bool(
        constraint_residual <= tol * (1.0 + np.abs(problem.rhs).max(initial=0.0))
        and stationarity_residual
        <= tol * (1.0 + np.abs(dual_term).max(initial=0.0)))

    k, n_places, n_caps = index.n_steps, index.n_places, index.n_caps
    q_b = x[: k * n_places].reshape(k, n_places).copy()
    u = x[k * n_places: k * (n_places + n_caps)].reshape(k, n_caps).copy()
    errors = x[k * (n_places + n_caps):].copy()

    diagnostics = dict(diagnostics)
    diagnostics["negative_flow_count"] = int((u < 0).sum())
    return Solution(
        q_b=q_b, u=u, errors=errors, objective_value=objective,
        kkt_residual=kkt_residual, constraint_residual=constraint_residual,
        converged=converged, x=x, multipliers=lam, diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Residual reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualStats:
    count: int
    min: float
    median: float
    max: float
    l2: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "ResidualStats":
        return cls(int(values.size), float(values.min()),
                   float(np.median(values)), float(values.max()),
                   float(np.linalg.norm(values)))

    def to_dict(self) -> dict:
        return {"count": self.count, "min": self.min, "median": self.median,
                "max": self.max, "l2": self.l2}


@dataclass(frozen=True)
class FamilyResiduals:
    family: str
    row_residuals: ResidualStats
    errors: Optional[ResidualStats] = None

    def to_dict(self) -> dict:
        out = {"family": self.family,
               "row_residuals": self.row_residuals.to_dict()}
        if self.errors is not None:
            out["errors"] = self.errors.to_dict()
        return out


def residual_report(problem: EstimationProblem,
                    solution: Solution) -> list[FamilyResiduals]:
    """Group measurement errors and row residuals by constraint family.

    The mass-balance block reports row residuals only; empty families are
    omitted.
    """
    row_residual = problem.constraint_matrix @ solution.x - problem.rhs
    report: list[FamilyResiduals] = []
    n_balance = problem.n_balance_rows
    if n_balance:
        report.append(FamilyResiduals(
            "mass_balance",
            ResidualStats.from_values(row_residual[:n_balance])))

    constraints = problem.constraints
    for family in dict.fromkeys(constraints.family.tolist() if constraints else ()):
        idx = np.flatnonzero(constraints.family == family)
        report.append(FamilyResiduals(
            FAMILIES[family],
            ResidualStats.from_values(row_residual[n_balance + idx]),
            ResidualStats.from_values(solution.errors[idx]),
        ))
    return report
