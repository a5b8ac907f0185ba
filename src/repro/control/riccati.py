"""Discrete-time algebraic Riccati equation and LQR synthesis.

The DARE is solved by the structure-preserving *doubling* algorithm (SDA),
which converges quadratically and needs no Hamiltonian eigendecomposition;
a fixed-point fallback covers matrices where the doubling iteration is
ill-conditioned.  Cross-checked against ``scipy.linalg.solve_discrete_are``
in the tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ControlDesignError


def solve_dare(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    max_iter: int = 200,
    tol: float = 1e-12,
) -> np.ndarray:
    """Solve ``P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q``.

    Uses the structured doubling algorithm; raises
    :class:`ControlDesignError` on divergence (e.g. unstabilizable pairs).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or Q.shape != (n, n):
        raise ControlDesignError("A and Q must be square with matching size")
    if B.shape[0] != n or R.shape != (B.shape[1], B.shape[1]):
        raise ControlDesignError("B/R dimensions inconsistent")

    # Structured doubling: A_k, G_k, H_k with
    #   A_{k+1} = A_k (I + G_k H_k)^-1 A_k
    #   G_{k+1} = G_k + A_k (I + G_k H_k)^-1 G_k A_k'
    #   H_{k+1} = H_k + A_k' H_k (I + G_k H_k)^-1 A_k
    # converging H_k -> P.
    try:
        G = B @ np.linalg.solve(R, B.T)
    except np.linalg.LinAlgError as exc:
        raise ControlDesignError("R is singular") from exc
    Ak = A.copy()
    Gk = G
    Hk = Q.copy()
    eye = np.eye(n)
    for _ in range(max_iter):
        M = eye + Gk @ Hk
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError as exc:
            raise ControlDesignError("doubling iteration became singular") from exc
        An = Ak @ Minv @ Ak
        Gn = Gk + Ak @ Minv @ Gk @ Ak.T
        Hn = Hk + Ak.T @ Hk @ Minv @ Ak
        diff = np.linalg.norm(Hn - Hk, ord="fro")
        scale = max(1.0, np.linalg.norm(Hn, ord="fro"))
        Ak, Gk, Hk = An, Gn, Hn
        if diff / scale < tol:
            P = (Hk + Hk.T) / 2
            try:
                _check_dare_residual(A, B, Q, R, P)
            except ControlDesignError:
                # Converged to a poorly conditioned point: re-solve with
                # Newton-Kleinman from a stabilizing seed (quadratic
                # convergence, exact Lyapunov steps).
                P = _newton_from_seeds(A, B, Q, R, P)
                _check_dare_residual(A, B, Q, R, P)
            return P
        if not np.all(np.isfinite(Hk)):
            break
    raise ControlDesignError("DARE doubling iteration did not converge")


def solve_discrete_lyapunov(F: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Solve ``P = F' P F + W`` exactly via the Kronecker linear system.

    O(n^6) — intended for the small state dimensions of control design
    (the benchmark plants have n <= 4).
    """
    n = F.shape[0]
    lhs = np.eye(n * n) - np.kron(F.T, F.T)
    vec_p = np.linalg.solve(lhs, W.flatten(order="F"))
    P = vec_p.reshape((n, n), order="F")
    return (P + P.T) / 2


def _newton_from_gain(A, B, Q, R, K, max_iter: int = 100,
                      tol: float = 1e-13) -> np.ndarray:
    """Newton-Kleinman for the DARE from a stabilizing gain ``K``.

    Each step solves the discrete Lyapunov equation of the current gain's
    closed loop; converges quadratically when ``A - B K`` is Schur.
    """
    if np.max(np.abs(np.linalg.eigvals(A - B @ K))) >= 1.0:
        raise ControlDesignError(
            "Newton-Kleinman needs a stabilizing initial gain"
        )
    P = None
    for _ in range(max_iter):
        F = A - B @ K
        P_next = solve_discrete_lyapunov(F, Q + K.T @ R @ K)
        K = np.linalg.solve(R + B.T @ P_next @ B, B.T @ P_next @ A)
        if P is not None:
            delta = np.linalg.norm(P_next - P, ord="fro")
            if delta <= tol * max(1.0, np.linalg.norm(P_next, ord="fro")):
                return P_next
        P = P_next
    if P is None:
        raise ControlDesignError("Newton-Kleinman made no progress")
    return P


def _newton_from_seeds(A, B, Q, R, P_doubling) -> np.ndarray:
    """Newton-Kleinman, trying progressively better stabilizing seeds.

    Seeds: the gain from the doubling solution, then gains from value
    iteration snapshots (value iteration stabilizes the gain long before
    its cost matrix converges).
    """
    seeds = []
    try:
        seeds.append(np.linalg.solve(R + B.T @ P_doubling @ B,
                                     B.T @ P_doubling @ A))
    except np.linalg.LinAlgError:
        pass
    P = Q.copy()
    for step in range(1, 501):
        BtPB = R + B.T @ P @ B
        K = np.linalg.solve(BtPB, B.T @ P @ A)
        P = Q + A.T @ P @ (A - B @ K)
        P = (P + P.T) / 2
        if not np.all(np.isfinite(P)):
            break
        if step % 25 == 0:
            seeds.append(K)
    last_error: Exception | None = None
    for K0 in seeds:
        try:
            return _newton_from_gain(A, B, Q, R, K0)
        except (ControlDesignError, np.linalg.LinAlgError) as exc:
            last_error = exc
    raise ControlDesignError(
        f"no stabilizing Newton-Kleinman seed found: {last_error}"
    )


def _check_dare_residual(A, B, Q, R, P, tol: float = 1e-6) -> None:
    BtPB = R + B.T @ P @ B
    K = np.linalg.solve(BtPB, B.T @ P @ A)
    residual = A.T @ P @ A - P - (A.T @ P @ B) @ K + Q
    scale = max(1.0, float(np.linalg.norm(P, ord="fro")))
    if np.linalg.norm(residual, ord="fro") / scale > tol:
        raise ControlDesignError("DARE residual too large (non-stabilizable?)")


def lqr_gain(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Discrete LQR: returns ``(K, P)`` with ``u = -K x`` optimal.

    ``K = (R + B'PB)^-1 B'PA`` where P solves the DARE.
    """
    P = solve_dare(A, B, Q, R)
    K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return K, P


def kalman_gain(
    A: np.ndarray, C: np.ndarray, W: np.ndarray, V: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Steady-state Kalman predictor gain via the dual DARE.

    Process noise covariance ``W`` (on the state), measurement noise
    covariance ``V``.  Returns ``(L, S)`` with the predictor form
    ``xhat+ = A xhat + B u + L (y - C xhat)`` and state estimate
    covariance ``S``.
    """
    S = solve_dare(A.T, C.T, W, V)
    L = A @ S @ C.T @ np.linalg.inv(C @ S @ C.T + V)
    return L, S
