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
multipliers.  No row couples two operands, so the matrix is factorized one
block at a time, a connected component of A's pattern (one per operand),
each after symmetric max-norm equilibration and freed before the next.
Iterative refinement runs until both the residual and the last correction
are negligible.  Columns are ordered by COLAMD, whose fill-in stays
near-flat in the horizon K where minimum degree on ``A^T + A`` grows with
it.
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
MAX_REFINEMENT_ROUNDS = 5
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
    u0_sq = max(_median(data * data) if data.size else 0.0, WEIGHT_FLOOR)
    h = np.concatenate([np.full(k_steps * n_places, beta / u0_sq),
                        np.full(k_steps * n_caps, alpha / u0_sq)])
    # Q_B[k + 1] - Q_B[k] with the zero initial state eliminated.
    n_b = k_steps * n_places
    i, j = np.arange(n_b), np.arange(n_places, n_b)
    q_k = sp.csr_matrix((np.r_[np.full(n_b, -1.0), np.ones(j.size)],
                         (np.r_[i, j], np.r_[i, j - n_places])), shape=(n_b, n_b))
    a = sp.bmat([[q_k, sp.kron(measurement.diagonal(np.ones(k_steps)), m * dt)],
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

def _dual_diagonal(problem: EstimationProblem, dual_shift: float) -> np.ndarray:
    """``W^-1 + dual_shift I``, with ``W^-1`` zero on the hard rows."""
    dual = np.full(problem.n_rows, dual_shift)
    dual[problem.n_hard_rows:] += 1.0 / problem.weight
    return dual


def _kkt(h: np.ndarray, a: sp.csr_matrix, dual: np.ndarray) -> sp.csc_matrix:
    """``[[diag(h), A^T], [A, -diag(dual)]]``, with no stored zeros."""
    on = np.flatnonzero(dual)
    lower_right = sp.csc_matrix((-dual[on], (on, on)), shape=(dual.size,) * 2)
    kkt = sp.bmat([[measurement.diagonal(h), a.T], [a, lower_right]],
                  format="csc")
    kkt.eliminate_zeros()  # SuperLU would order and fill around them
    kkt.sort_indices()
    return kkt


def _kkt_matrix(problem: EstimationProblem) -> sp.csc_matrix:
    """The whole KKT matrix ``[[H, A^T], [A, -W^-1]]``."""
    return _kkt(problem.hessian_diag, problem.constraint_matrix,
                _dual_diagonal(problem, 0.0))


def _equilibrate(kkt: sp.csc_matrix) -> tuple[np.ndarray, sp.csc_matrix]:
    """Symmetric max-norm scaling ``s_i = 1/sqrt(max_j |K_ij|)`` and
    ``diag(s) K diag(s)``, a new data array on ``kkt``'s own pattern, made
    canonical first: ``splu`` sorts an unsorted input's indices in place."""
    kkt.sum_duplicates()
    row_max = np.zeros(kkt.shape[0])
    np.maximum.at(row_max, kkt.indices, np.abs(kkt.data))
    row_max[row_max == 0] = 1.0
    s = 1.0 / np.sqrt(row_max)
    data = (kkt.data * s[kkt.indices]) * np.repeat(s, np.diff(kkt.indptr))
    return s, sp.csc_matrix((data, kkt.indices, kkt.indptr), shape=kkt.shape)


def _suspect_rows(problem: EstimationProblem, pivots: np.ndarray,
                  pivot_index: np.ndarray) -> list[str]:
    """Name the rows whose pivots collapsed during factorization:
    ``pivots`` is ``|diag(U)|`` over every block, ``pivot_index`` the KKT
    index each eliminated, and a pivot collapsed below ``1e-10`` times the
    largest.  Collapsed primal pivots name no row and are dropped first."""
    n, labels = problem.n_variables, []
    collapsed = pivot_index[pivots < 1e-10 * pivots.max(initial=0.0)]
    for col in collapsed[collapsed >= n].tolist():
        r = col - n - problem.n_balance_rows
        labels.append(problem.measurement_row_label(r) if r >= 0
                      else f"balance row {col - n}")
    return labels


def solve(problem: EstimationProblem, tol: float = DEFAULT_TOL) -> Solution:
    """Solve via sparse LU of the equilibrated augmented KKT system, one
    block at a time: a block is a connected component of A's pattern (one
    per operand, as no row couples two).  Its slice of A, KKT matrix and
    scaled copy are built only then; the copy is dropped once factored, the
    rest before the next block.

    The errors are recovered from the soft rows' multipliers as ``e =
    lambda_m / w``.  Residuals are those of the problem with the errors as
    variables, ``r = A x - b - [0; e]`` and ``g = [H x + A^T lambda; w e -
    lambda_m]``; convergence means ``||r||_inf <= tol * (1 + ||b||_inf)``
    and ``||g||_inf <= tol * (1 + ||[A^T lambda; -lambda_m]||_inf)``.  Up to
    ``MAX_REFINEMENT_ROUNDS`` rounds of iterative refinement are applied
    while a block's KKT residual misses the first bound or the last
    correction moved its solution ``y`` by more than ``tol * ||y||_inf``;
    if any block is singular, every dual block is shifted by ``-delta I``
    (delta = 1e-12 * ||A||_inf) and the shift is surfaced in the
    diagnostics.  ``suspect_rows`` names the rows whose pivots collapsed
    (see ``_suspect_rows``), with or without the shift.

    The diagnostics also record the factorization: ``ordering``,
    ``kkt_nnz`` (the factored matrices), ``lu_nnz`` (``L.nnz + U.nnz``),
    both summed over the blocks, ``fill_ratio`` (their quotient),
    ``refinement_rounds`` (the most of any block), and
    ``refinement_residuals``, the factored system's residual inf-norm after
    the first solve and after each round.
    """
    # Imported here: commands that never factorize skip their import cost.
    import scipy.sparse.linalg as spla
    from scipy.sparse.csgraph import connected_components

    if np.any(problem.hessian_diag <= 0):
        raise ValueError("hessian diagonal must be strictly positive")
    a = problem.constraint_matrix
    n, size = problem.n_variables, problem.n_variables + problem.n_rows
    rhs = np.concatenate([np.zeros(n), problem.rhs])
    b_scale = 1.0 + np.abs(problem.rhs).max(initial=0.0)
    diagnostics: dict = {"regularized": False, "suspect_rows": [], "tol": tol,
                         "ordering": KKT_ORDERING}

    # The bipartite graph of A's pattern: variables, then rows.
    indptr = np.concatenate([np.zeros(n, a.indptr.dtype), a.indptr])
    n_blocks, labels = connected_components(sp.csr_matrix(
        (np.ones(a.nnz), a.indices, indptr), (size, size)), directed=False)
    # Each block's variables, then its rows, as contiguous runs.
    order = np.argsort(labels, kind="stable")
    cols, rows = order[order < n], order[order >= n] - n
    col_start = np.searchsorted(labels[cols], np.arange(n_blocks + 1))
    row_start = np.searchsorted(labels[n + rows], np.arange(n_blocks + 1))

    def solve_blocks(dual: np.ndarray):
        """``y`` and each block's diagnostics; None if a block is singular."""
        y, blocks = np.empty(size), []
        for c0, c1, r0, r1 in zip(col_start, col_start[1:],
                                  row_start, row_start[1:]):
            c, r = cols[c0:c1], rows[r0:r1]
            index = np.r_[c, n + r]
            kkt = _kkt(problem.hessian_diag[c], a[r][:, c], dual[r])
            s, scaled = _equilibrate(kkt)
            try:
                lu = spla.splu(scaled, permc_spec=KKT_ORDERING, panel_size=1,
                               options=dict(SymmetricMode=True,
                                            DiagPivotThresh=0.001))
            except RuntimeError:
                return None
            # SuperLU keeps no reference to it; refinement reads kkt.
            del scaled
            y_b = correction = s * lu.solve(s * rhs[index])
            history = []
            while True:
                residual = rhs[index] - kkt @ y_b
                history.append(float(np.abs(residual).max(initial=0.0)))
                negligible = (np.abs(correction).max(initial=0.0)
                              <= tol * np.abs(y_b).max(initial=0.0))
                if (history[-1] <= tol * b_scale and negligible
                        or len(history) > MAX_REFINEMENT_ROUNDS):
                    break
                correction = s * lu.solve(s * residual)
                y_b = y_b + correction
            y[index], kkt_nnz = y_b, kkt.nnz
            # lu.L and lu.U build CSC copies that live with the factor, the
            # solve's peak, so the block's matrix and vectors go first; none
            # is left for the next block to factor around.  SuperLU factors
            # Pr K Pc = L U: pivot i eliminates column perm_c == i.
            del kkt, y_b, correction, residual
            blocks.append((kkt_nnz, lu.L.nnz + lu.U.nnz, history,
                           np.abs(lu.U.diagonal()), index[np.argsort(lu.perm_c)]))
            del lu
        return y, blocks

    delta = 1e-12 * max(spla.norm(a, np.inf) if a.nnz else 1.0, 1.0)
    result = solve_blocks(_dual_diagonal(problem, 0.0))
    if result is None:
        diagnostics.update(regularized=True, dual_shift=delta)
        result = solve_blocks(_dual_diagonal(problem, delta))
    if result is None:
        raise np.linalg.LinAlgError(
            "KKT system is singular even after dual regularization; "
            "the constraint matrix is rank deficient")
    y, blocks = result
    kkt_nnz, lu_nnz, histories, pivots, pivot_index = zip(*blocks)
    rounds = max(map(len, histories)) - 1
    diagnostics.update(
        kkt_nnz=sum(kkt_nnz), lu_nnz=sum(lu_nnz),
        fill_ratio=sum(lu_nnz) / sum(kkt_nnz), refinement_rounds=rounds,
        refinement_residuals=[max(h[min(i, len(h) - 1)] for h in histories)
                              for i in range(rounds + 1)])
    diagnostics["suspect_rows"] = _suspect_rows(
        problem, np.concatenate(pivots), np.concatenate(pivot_index))

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
    # np.sum, not a BLAS dot: threaded OpenBLAS splits a dot's sum by
    # thread, so its last digits would follow the thread count.
    objective = 0.5 * float(np.sum(z * (h * z)))
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

def _median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty array, to the bit on finite values,
    without its NaN check, which executes numpy.ma.  Its mean adds from
    +0.0, so a lone -0.0 comes out as 0.0."""
    lo, hi = (values.size - 1) // 2, values.size // 2
    part = np.partition(values, [lo, hi])
    return float((0.0 + part[lo] + part[hi]) / 2 if lo < hi else 0.0 + part[hi])


def _stats(values: np.ndarray) -> dict:
    # l2 sums with np.sum for the reason the objective does.
    return {"count": int(values.size), "min": float(values.min()),
            "median": _median(values), "max": float(values.max()),
            "l2": float(np.sqrt(np.sum(values * values)))}


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
