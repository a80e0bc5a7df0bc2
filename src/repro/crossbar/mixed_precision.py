"""Mixed-precision in-memory computing (Le Gallo et al., Nat. Electronics
2018 — the paper's reference [22]).

The crossbar computes matrix-vector products at ~5 % precision; alone
that caps the accuracy of any linear solve.  The mixed-precision scheme
wraps the noisy analog engine in an exact digital refinement loop::

    repeat:
        r = b - A x            (digital, float64 — cheap: one MVM)
        z ~= solve(A z = r)    (inexact inner solver, crossbar MVMs)
        x = x + z

Because each outer round multiplies the *error* rather than the
solution by the inner solver's accuracy, the iterate converges to
float64 accuracy even though almost all multiply-accumulate work runs
in the analog domain — the headline result of [22].

The inner solver here is damped Richardson iteration
``z_{k+1} = z_k + omega (r - A z_k)``, convergent for matrices with
spectrum in (0, 2/omega); the provided problem generator returns
diagonally dominant SPD systems that satisfy this comfortably.  Each
inner step is one analog ``matvec`` on the operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng, check_int, check_nonnegative, check_positive

__all__ = [
    "MixedPrecisionSolver",
    "SolveResult",
    "spd_test_system",
]


def spd_test_system(
    n: int,
    off_diagonal: float = 0.5,
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A diagonally dominant SPD system ``(A, b)`` for solver tests.

    ``A = I + off_diagonal * (M + M^T) / (2 n)`` with ``M`` uniform in
    [0, 1): eigenvalues cluster near 1, so Richardson with omega ~= 1
    converges quickly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= off_diagonal < 1:
        raise ValueError("off_diagonal must lie in [0, 1)")
    rng = as_rng(seed)
    m = rng.random((n, n))
    a = np.eye(n) + off_diagonal * (m + m.T) / (2 * n)
    b = rng.standard_normal(n)
    return a, b


@dataclass
class SolveResult:
    """Outcome of a mixed-precision solve."""

    solution: np.ndarray
    residual_history: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def final_residual(self) -> float:
        if not self.residual_history:
            raise ValueError("no iterations were executed")
        return self.residual_history[-1]


class MixedPrecisionSolver:
    """Iterative-refinement linear solver over an analog MVM engine.

    Parameters
    ----------
    matrix:
        The system matrix ``A`` kept in digital memory for the exact
        residual computation (as in [22]).
    operator:
        Low-precision MVM backend with ``matvec`` (e.g. a
        :class:`~repro.crossbar.CrossbarOperator` programmed with
        ``A``); defaults to exact evaluation, which makes the solver a
        plain iterative-refinement Richardson method.
    inner_iterations:
        Richardson steps per refinement round (all on the operator).
    omega:
        Richardson damping; default ``1 / max_i sum_j |A_ij|`` which is
        convergent for diagonally dominant SPD systems.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        operator=None,
        inner_iterations: int = 10,
        omega: float | None = None,
    ) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.matrix = matrix
        self.operator = operator
        self.inner_iterations = check_int("inner_iterations", inner_iterations)
        if omega is None:
            omega = 1.0 / float(np.abs(matrix).sum(axis=1).max())
        check_positive("omega", omega)
        self.omega = omega

    def _analog_matvec(self, x: np.ndarray) -> np.ndarray:
        """Low-precision ``A @ x`` on the operator."""
        if self.operator is None:
            return self.matrix @ x
        return self.operator.matvec(x)

    def _inner_solve(self, r: np.ndarray) -> np.ndarray:
        """Inexact solve of ``A z = r`` by damped Richardson iteration."""
        z = np.zeros_like(r)
        for _ in range(self.inner_iterations):
            z = z + self.omega * (r - self._analog_matvec(z))
        return z

    def solve(
        self,
        b: np.ndarray,
        outer_iterations: int = 30,
        tolerance: float = 1e-10,
    ) -> SolveResult:
        """Solve ``A x = b`` to ``tolerance`` (relative residual)."""
        b = np.asarray(b, dtype=float)
        n = self.matrix.shape[0]
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},)")
        outer_iterations = check_int("outer_iterations", outer_iterations)
        check_nonnegative("tolerance", tolerance)
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            return SolveResult(solution=np.zeros(n), converged=True)

        x = np.zeros(n)
        result = SolveResult(solution=x)
        for _ in range(outer_iterations):
            residual = b - self.matrix @ x  # exact digital residual
            rel = float(np.linalg.norm(residual)) / b_norm
            result.residual_history.append(rel)
            if rel < tolerance:
                result.converged = True
                break
            x = x + self._inner_solve(residual)
        result.solution = x
        return result

    def analog_only_solve(
        self, b: np.ndarray, iterations: int = 300
    ) -> SolveResult:
        """Richardson on the analog engine alone (no refinement).

        The baseline that stalls at the device-noise floor — the
        contrast [22] draws against the mixed-precision loop.
        """
        b = np.asarray(b, dtype=float)
        n = self.matrix.shape[0]
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},)")
        iterations = check_int("iterations", iterations)
        b_norm = float(np.linalg.norm(b)) or 1.0
        x = np.zeros(n)
        result = SolveResult(solution=x)
        for _ in range(iterations):
            x = x + self.omega * (b - self._analog_matvec(x))
            rel = float(np.linalg.norm(b - self.matrix @ x)) / b_norm
            result.residual_history.append(rel)
        result.solution = x
        return result
