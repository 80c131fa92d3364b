"""Weighted least-squares flow estimation as an equality-constrained QP.

The decision vector stacks buffer masses after each step and
per-capability firings per step:

    x = [ Q_B[2..K+1] | U[1..K] ]

The mass balance ``-Q_B[k+1] + Q_B[k] + M U[k] dt = 0`` (with ``Q_B[1] =
0`` eliminated) holds exactly.  The measurement rows ``D U - e = c`` are
soft: their errors ``e`` carry the row weights ``w`` and are not unknowns
of the solve.  The objective is ``1/2 x^T H x + 1/2 e^T W e``, with H a
strictly positive diagonal of small uniqueness penalties on flows and
buffer masses.  ``assemble_problem`` takes the incidence matrix ``M`` and
the lifted measurement system, and reads the horizon K, the weights ``w``
and the penalties' unit off the system.

The solver factorizes Hachtel's augmented matrix ``[[H, A^T], [A,
-W^-1]]``, with ``W^-1`` zero on the balance rows (never the normal
equations, whose conditioning collapses under the tiny penalties).  It is
the bordered KKT matrix of the problem with ``e`` as variables, after
stationarity in ``e`` gives ``e = lambda_m / w`` for the measurement rows'
multipliers.  The matrix is factorized after symmetric max-norm
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

from . import measurement
from .measurement import FAMILIES, WEIGHT_FLOOR, MeasurementSystem, row_labels

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


@dataclass
class EstimationProblem:
    """Assembled sparse QP over ``x = [Q_B | U]``::

        min 1/2 x^T diag(h) x + 1/2 e^T diag(w) e  s.t.  A x - [0; e] = b

    The last ``weight.size`` rows of ``A`` are soft, with errors ``e`` and
    weights ``w = weight``; the rows before them hold exactly.  Columns run
    step-major within each block: ``n_places`` buffer masses for each of
    the steps 2..K+1 (the zero initial state is eliminated), then
    ``n_caps`` firings for each of the steps 1..K.  ``hessian_diag`` holds
    the penalties ``beta / u0^2`` and ``alpha / u0^2``, in the data's unit
    ``u0``.
    """

    n_steps: int
    n_places: int
    n_caps: int
    dt: float
    hessian_diag: np.ndarray
    constraint_matrix: sp.csr_matrix
    rhs: np.ndarray
    weight: np.ndarray
    alpha: float
    beta: float
    u0: float
    constraints: Optional[MeasurementSystem] = None

    @property
    def n_variables(self) -> int:
        return self.hessian_diag.shape[0]

    @property
    def n_rows(self) -> int:
        return self.constraint_matrix.shape[0]

    @property
    def n_hard_rows(self) -> int:
        return self.n_rows - self.weight.size

    @property
    def n_balance_rows(self) -> int:
        return self.n_steps * self.n_places

    def measurement_row_label(self, r: int) -> str:
        if self.constraints is not None and r < len(self.constraints):
            return row_labels(self.constraints, [r])[0]
        return f"row {r}"


@dataclass
class Solution:
    """Estimated trajectories with residual diagnostics.

    ``x`` is ``[Q_B | U]``: ``q_b[i]`` is the place-mass vector after step
    ``i + 1`` (the state labeled ``Q_B[i + 2]``) and ``u[i]`` the firings of
    step ``i + 1``, both views of ``x``.  ``errors`` holds one entry per
    soft row and ``multipliers`` one per row.  Residuals, objective and
    convergence are those of the problem with the errors as variables,
    recomputed from the returned vectors, never read off solver internals.
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


def assemble_problem(m: sp.spmatrix,
                     constraints: MeasurementSystem,
                     dt: float = 1.0,
                     alpha: float = DEFAULT_FLOW_PENALTY,
                     beta: float = DEFAULT_BUFFER_PENALTY) -> EstimationProblem:
    """Build the QP from the incidence matrix ``m`` (places x capabilities,
    see ``core_net.build_incidence``) and the measurement rows.

    ``A = [[Q_K, kron(I_K, M dt)], [0, D_K]]``: balance rows come first
    (one block of ``n_places`` rows per step), then one soft row per
    measurement.  The horizon K is ``constraints.n_steps`` (see
    ``measurement.expand_constraints``), and each row's weight is
    ``measurement.compute_weights`` of its constant.

    The penalties are divided by ``u0^2``, the median squared nonzero datum
    floored at ``WEIGHT_FLOOR``, so the bias they put on each flow is
    relative to the data rather than absolute.
    """
    n_places, n_caps = m.shape
    k_steps = constraints.n_steps
    if n_caps == 0:
        raise ValueError("cannot assemble a problem with no capabilities")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta penalties must be positive")
    if constraints.d.shape[1] != k_steps * n_caps:
        raise ValueError(f"measurement system has {constraints.d.shape[1]} "
                         f"columns; {k_steps} step(s) of {n_caps} "
                         f"capabilities need {k_steps * n_caps}")
    if not len(constraints):
        warnings.warn(
            "no measurement constraints: the problem admits the all-zero "
            "trivial solution", AssemblyWarning, stacklevel=2,
        )

    constant = constraints.constant
    weight = measurement.compute_weights(constant)
    data = constant[constant != 0]
    u0_sq = max(float(np.median(data * data)) if data.size else 0.0,
                WEIGHT_FLOOR)
    h = np.concatenate([np.full(k_steps * n_places, beta / u0_sq),
                        np.full(k_steps * n_caps, alpha / u0_sq)])
    # Q_B[k + 1] - Q_B[k] with the zero initial state eliminated.
    q_k = sp.kron(sp.eye(k_steps, k=-1) - sp.identity(k_steps),
                  sp.identity(n_places))
    a = sp.bmat([[q_k, sp.kron(sp.identity(k_steps), m * dt)],
                 [None, constraints.d]], format="csr")
    a.sum_duplicates()
    a.sort_indices()
    b = np.concatenate([np.zeros(k_steps * n_places), constant])
    return EstimationProblem(
        n_steps=k_steps, n_places=n_places, n_caps=n_caps, dt=dt,
        hessian_diag=h, constraint_matrix=a, rhs=b, weight=weight,
        alpha=alpha, beta=beta, u0=float(np.sqrt(u0_sq)),
        constraints=constraints,
    )


# ---------------------------------------------------------------------------
# KKT solvers
# ---------------------------------------------------------------------------

def _kkt_matrix(problem: EstimationProblem, dual_shift: float = 0.0) -> sp.csc_matrix:
    """``[[H, A^T], [A, -(W^-1 + dual_shift I)]]``, with ``W^-1`` zero on
    the hard rows."""
    a = problem.constraint_matrix
    dual = np.full(problem.n_rows, dual_shift)
    dual[problem.n_hard_rows:] += 1.0 / problem.weight
    on = np.flatnonzero(dual)
    lower_right = sp.csc_matrix((-dual[on], (on, on)),
                                shape=(problem.n_rows,) * 2)
    kkt = sp.bmat([[sp.diags(problem.hessian_diag), a.T], [a, lower_right]],
                  format="csc")
    kkt.sort_indices()
    return kkt


def _equilibrate(kkt: sp.csc_matrix) -> np.ndarray:
    """Symmetric max-norm scaling: s_i = 1/sqrt(max_j |K_ij|)."""
    row_max = np.abs(kkt).max(axis=1).toarray().ravel()
    row_max[row_max == 0] = 1.0
    return 1.0 / np.sqrt(row_max)


def _suspect_rows(problem: EstimationProblem, lu) -> list[str]:
    """Name measurement rows whose pivots collapsed during factorization.

    SuperLU factors ``Pr A Pc = L U`` with ``Pc[j, perm_c[j]] = 1``, so
    pivot i sits in the original column j with ``perm_c[j] == i``; the
    dual columns follow the primal ones.
    """
    n = problem.n_variables
    diag = np.abs(lu.U.diagonal())
    scale = diag.max() if diag.size else 0.0
    if scale == 0.0:
        return []
    tiny = np.nonzero(diag < 1e-10 * scale)[0]
    pivot_column = np.argsort(lu.perm_c)
    labels = []
    for i in tiny:
        col = int(pivot_column[i])
        if col >= n:
            r = col - n - problem.n_balance_rows
            if r >= 0:
                labels.append(problem.measurement_row_label(r))
            else:
                labels.append(f"balance row {col - n}")
    return labels


def solve(problem: EstimationProblem, tol: float = DEFAULT_TOL) -> Solution:
    """Solve via sparse LU of the equilibrated augmented KKT system.

    The errors are recovered from the soft rows' multipliers as ``e =
    lambda_m / w``.  Residuals are those of the problem with the errors as
    variables, ``r = A x - b - [0; e]`` and ``g = [H x + A^T lambda; w e -
    lambda_m]``; convergence means ``||r||_inf <= tol * (1 + ||b||_inf)``
    and ``||g||_inf <= tol * (1 + ||[A^T lambda; -lambda_m]||_inf)``.  Up to
    ``MAX_REFINEMENT_ROUNDS`` rounds of iterative refinement are applied
    while the KKT residual of the factored system misses the first bound;
    on a singular factorization the dual block is shifted by ``-delta I``
    (delta = 1e-12 * ||A||_inf) and the shift is surfaced in the
    diagnostics together with the suspect rows.

    The diagnostics also record the factorization: ``ordering``,
    ``kkt_nnz`` (the factored matrix), ``lu_nnz`` (``L.nnz + U.nnz``),
    ``fill_ratio`` (their quotient), and ``refinement_residuals``, the
    factored system's residual inf-norm after the first solve and after
    each round.
    """
    # Imported here: commands that never factorize skip its import cost.
    import scipy.sparse.linalg as spla

    if np.any(problem.hessian_diag <= 0):
        raise ValueError("hessian diagonal must be strictly positive")
    a = problem.constraint_matrix
    n = problem.n_variables
    rhs = np.concatenate([np.zeros(n), problem.rhs])
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

    # lu.L and lu.U build cached CSC copies: +190 MB at 1000 outlets, K=12.
    diagnostics["lu_nnz"] = lu.L.nnz + lu.U.nnz
    diagnostics["fill_ratio"] = diagnostics["lu_nnz"] / diagnostics["kkt_nnz"]
    suspects = _suspect_rows(problem, lu)
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

    lam = y[n:]
    return _extract_solution(problem, y[:n], lam[problem.n_hard_rows:]
                             / problem.weight, lam, tol, diagnostics)


def _row_residual(problem: EstimationProblem, x: np.ndarray,
                  errors: np.ndarray) -> np.ndarray:
    """``A x - b - [0; e]``."""
    residual = problem.constraint_matrix @ x
    residual[problem.n_hard_rows:] -= errors
    return residual - problem.rhs


def _extract_solution(problem: EstimationProblem, x: np.ndarray,
                      errors: np.ndarray, lam: np.ndarray, tol: float,
                      diagnostics: dict) -> Solution:
    row_residual = _row_residual(problem, x, errors)
    z = np.concatenate([x, errors])
    h = np.concatenate([problem.hessian_diag, problem.weight])
    dual_term = np.concatenate([problem.constraint_matrix.T @ lam,
                                -lam[problem.n_hard_rows:]])
    grad_residual = h * z + dual_term
    constraint_residual = float(np.abs(row_residual).max(initial=0.0))
    stationarity_residual = float(np.abs(grad_residual).max(initial=0.0))
    kkt_residual = max(stationarity_residual, constraint_residual)
    objective = 0.5 * float(z @ (h * z))
    converged = bool(
        constraint_residual <= tol * (1.0 + np.abs(problem.rhs).max(initial=0.0))
        and stationarity_residual
        <= tol * (1.0 + np.abs(dual_term).max(initial=0.0)))

    k, n_places = problem.n_steps, problem.n_places
    q_b = x[: k * n_places].reshape(k, n_places)
    u = x[k * n_places:].reshape(k, problem.n_caps)

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

def _stats(values: np.ndarray) -> dict:
    return {"count": int(values.size), "min": float(values.min()),
            "median": float(np.median(values)), "max": float(values.max()),
            "l2": float(np.linalg.norm(values))}


def residual_report(problem: EstimationProblem, solution: Solution) -> list[dict]:
    """Row residuals and measurement errors by constraint family, as the
    records of ``residuals.json``.

    The mass-balance block reports row residuals only; empty families are
    omitted.
    """
    row_residual = _row_residual(problem, solution.x, solution.errors)
    report = []
    n_balance = problem.n_balance_rows
    if n_balance:
        report.append({"family": "mass_balance",
                       "row_residuals": _stats(row_residual[:n_balance])})

    constraints = problem.constraints
    for family in dict.fromkeys(constraints.family.tolist() if constraints else ()):
        idx = np.flatnonzero(constraints.family == family)
        report.append({"family": FAMILIES[family],
                       "row_residuals": _stats(row_residual[n_balance + idx]),
                       "errors": _stats(solution.errors[idx])})
    return report
