"""Shared analytic primitives on the unit disc.

Moebius transforms, finite Blaschke products, the quadratic that inverts
z*Phi_a(z), and Nevanlinna-Pick feasibility via a cyclic Jacobi eigensolver
for small Hermitian matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INTERIOR_MARGIN = 1e-14
PICK_FEASIBILITY_TOL = 1e-12
JACOBI_TOL = 1e-13
MAX_PICK_DIM = 8


def require_disc_point(z: complex, name: str = "z", margin: float = 0.0) -> complex:
    """Validate |z| < 1 (strictly inside by `margin` when given)."""
    z = complex(z)
    if abs(z) >= 1.0 - margin:
        raise ValueError(f"{name}={z} is not inside the unit disc (|{name}|={abs(z)})")
    return z


def moebius(alpha: complex, z: complex) -> complex:
    """Phi_alpha(z) = (alpha - z) / (1 - conj(alpha) z), a disc automorphism.

    Involution: Phi_alpha(Phi_alpha(z)) = z.  Phi_alpha(0) = alpha and
    Phi_alpha(alpha) = 0.
    """
    return (alpha - z) / (1.0 - np.conj(alpha) * z)


def moebius_apply(alpha: complex, z: complex) -> complex:
    """Checked variant of :func:`moebius` for interior points."""
    alpha = require_disc_point(alpha, "alpha")
    z = require_disc_point(z, "z")
    return complex(moebius(alpha, z))


@dataclass(frozen=True)
class BlaschkeDisc:
    """Finite Blaschke product e^{i phase} * prod_j Phi_{z_j}(z).

    Maps the closed disc to itself, unimodular on the circle.  The
    `normalized_from_zeros` constructor folds the factors conj(z_j)/|z_j|
    into the phase so that the value at 0 equals prod |z_j| (zeros at the
    origin are excluded from that normalization).
    """

    phase: float
    zeros: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        for j, zj in enumerate(self.zeros):
            require_disc_point(zj, f"zeros[{j}]")

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @classmethod
    def normalized_from_zeros(cls, zeros) -> "BlaschkeDisc":
        zeros = tuple(complex(z) for z in zeros)
        phase = -sum(np.angle(z) for z in zeros if z != 0)
        return cls(phase=float(phase), zeros=zeros)

    def eval(self, z: complex):
        z = np.asarray(z, dtype=complex)
        out = np.exp(1j * self.phase) * np.ones_like(z)
        for zj in self.zeros:
            out = out * (zj - z) / (1.0 - np.conj(zj) * z)
        return out if out.shape else complex(out)


def blaschke_eval(b: BlaschkeDisc, z: complex) -> complex:
    if abs(z) > 1.0 + 1e-12:
        raise ValueError(f"|z|={abs(z)} exceeds 1")
    return complex(b.eval(z))


def solve_node_quadratic(a: float, mu: complex) -> tuple:
    """Both roots of f_a(z) = z*Phi_a(z) = mu, i.e. of z^2 - a(1+mu)z + mu = 0.

    Returns (z_small, w_large) ordered so that |z_small| <= sqrt|mu| <= |w_large|;
    both roots lie in the open disc.  The larger-magnitude root is computed
    first and the other recovered from the constant term mu (Vieta), which
    avoids cancellation when mu is tiny.  Ties at a = 0 are broken in favor of
    nonnegative imaginary part (then nonnegative real part) for z_small.
    """
    a = float(a)
    if not 0.0 <= a < 1.0:
        raise ValueError(f"a={a} outside [0, 1)")
    mu = complex(mu)
    if abs(mu) >= 1.0:
        raise ValueError(f"|mu|={abs(mu)} not in the open disc")
    if mu == 0:
        return 0.0 + 0.0j, complex(a)
    b = a * (1.0 + mu)
    sq = np.sqrt(complex(b * b - 4.0 * mu))
    if (np.conj(b) * sq).real < 0.0:
        sq = -sq
    w = (b + sq) / 2.0
    if w == 0:  # a == 0 and sqrt branch hit zero; roots are +-i sqrt(mu)
        w = 1j * np.sqrt(mu)
    z = mu / w
    if abs(z) > abs(w):
        z, w = w, z
    elif abs(z) == abs(w):
        # deterministic tie-break
        cand = sorted((z, w), key=lambda t: (-t.imag, -t.real))
        z, w = cand[0], cand[1]
    return complex(z), complex(w)


# ---------------------------------------------------------------------------
# Pick matrices and Hermitian eigenvalues
# ---------------------------------------------------------------------------


def pick_matrix(nodes, targets) -> np.ndarray:
    """Pick matrix [(1 - w_i conj(w_j)) / (1 - lam_i conj(lam_j))]."""
    lam = np.asarray(nodes, dtype=complex)
    w = np.asarray(targets, dtype=complex)
    num = 1.0 - w[:, None] * np.conj(w)[None, :]
    den = 1.0 - lam[:, None] * np.conj(lam)[None, :]
    return num / den


def jacobi_eigenvalues(H: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Dimension is capped at MAX_PICK_DIM; the matrices this library builds are
    tiny, so quadratic convergence makes a handful of sweeps enough.
    """
    vals = jacobi_eigenvalues_batch(H[None, :, :], tol=tol, max_sweeps=max_sweeps)
    return vals[0]


def jacobi_eigenvalues_batch(H, tol: float = JACOBI_TOL, max_sweeps: int = 60) -> np.ndarray:
    """Batched cyclic Jacobi for stacks of Hermitian matrices (B, n, n).

    Each matrix follows its own rotation sequence (rotations are skipped once
    the target entry is below threshold), so results for one matrix do not
    depend on what else is in the batch.
    """
    A = np.array(H, dtype=complex)
    if A.ndim == 2:
        A = A[None, :, :]
    B, n, n2 = A.shape
    if n != n2:
        raise ValueError("matrices must be square")
    if n > MAX_PICK_DIM:
        raise ValueError(f"dimension {n} exceeds cap {MAX_PICK_DIM}")
    if n == 1:
        return A[:, 0, 0].real[:, None]
    scale = np.maximum(np.max(np.abs(A), axis=(1, 2)), 1e-300)
    thresh = tol * scale
    for _ in range(max_sweeps):
        offmax = np.zeros(B)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[:, p, q]
                absapq = np.abs(apq)
                offmax = np.maximum(offmax, absapq)
                mask = absapq > thresh
                if not mask.any():
                    continue
                safe = np.where(absapq == 0.0, 1.0, absapq)
                e = np.where(mask, apq / safe, 1.0)
                tau = (A[:, q, q].real - A[:, p, p].real) / (2.0 * safe)
                t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                t = np.where(tau == 0.0, 1.0, t)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                c = np.where(mask, c, 1.0)
                s = np.where(mask, s, 0.0)
                e = np.where(mask, e, 1.0)
                colp = A[:, :, p].copy()
                colq = A[:, :, q].copy()
                A[:, :, p] = c[:, None] * colp - (s * np.conj(e))[:, None] * colq
                A[:, :, q] = (s * e)[:, None] * colp + c[:, None] * colq
                rowp = A[:, p, :].copy()
                rowq = A[:, q, :].copy()
                A[:, p, :] = c[:, None] * rowp - (s * e)[:, None] * rowq
                A[:, q, :] = (s * np.conj(e))[:, None] * rowp + c[:, None] * rowq
        if not (offmax > thresh).any():
            break
    d = np.diagonal(A, axis1=1, axis2=2).real
    return np.sort(d, axis=1)


@dataclass(frozen=True)
class PickProblem:
    """Interpolation data: pairwise-distinct nodes containing 0, target 0 at 0."""

    nodes: tuple
    targets: tuple

    def __post_init__(self):
        nodes = tuple(complex(z) for z in self.nodes)
        targets = tuple(complex(z) for z in self.targets)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)
        if len(nodes) != len(targets):
            raise ValueError("nodes and targets must have the same length")
        if len(nodes) > MAX_PICK_DIM:
            raise ValueError(f"problem size {len(nodes)} exceeds cap {MAX_PICK_DIM}")
        for j, z in enumerate(nodes):
            require_disc_point(z, f"nodes[{j}]")
        for j, w in enumerate(targets):
            require_disc_point(w, f"targets[{j}]")


def pick_feasible(p: PickProblem) -> tuple:
    """(feasible, min_eigenvalue) of the Pick matrix of `p`.

    Feasible means an analytic self-map of the disc interpolating the data
    exists, i.e. the Pick matrix is positive semidefinite (min eigenvalue
    >= -1e-12 numerically).
    """
    nodes = np.asarray(p.nodes, dtype=complex)
    m = len(nodes)
    for i in range(m):
        for j in range(i + 1, m):
            if abs(nodes[i] - nodes[j]) < 1e-12:
                raise ValueError("coincident nodes")
    H = pick_matrix(p.nodes, p.targets)
    min_eig = float(jacobi_eigenvalues(H)[0])
    return min_eig >= -PICK_FEASIBILITY_TOL, min_eig

