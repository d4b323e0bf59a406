"""Shared analytic primitives on the unit disc.

Moebius transforms, finite Blaschke products, the quadratic that inverts
z*Phi_a(z), and a certified Nevanlinna-Pick test: a floating Cholesky of the
Pick matrix shifted by a margin that covers the rounding of its entries and
of the factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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


def equal_root_moduli(a, mu):
    """Whether the two roots of z^2 - a(1+mu)z + mu = 0 (a real, |mu| < 1)
    have equal moduli, read from the coefficients: a = 0, or mu real and
    nonzero with b^2 <= 4 mu for b = a(1+mu), where the roots are conjugate.

    |z| = |w| exactly when b^2/mu = z/w + w/z + 2 lies in [0, 4], and
    b^2/mu = a^2 (2 + mu + 1/mu) is real for a > 0 only if mu is (|mu| < 1).
    For real mu, b^2 is rounded as the root formulas round it, so the test
    holds exactly where their discriminant is <= 0 and the computed roots
    are conjugate too.  mu = 0 has the roots 0 and a, unequal for a > 0,
    although b^2 underflows to 0 below a = 1e-154.  Takes Python scalars or
    numpy arrays, which broadcast.
    """
    b = a * (1.0 + mu.real)
    return (a == 0.0) | ((mu.imag == 0.0) & (mu.real != 0.0) & (b * b <= 4.0 * mu.real))


def solve_node_quadratic(a: float, mu: complex) -> tuple:
    """Both roots of f_a(z) = z*Phi_a(z) = mu, i.e. of z^2 - a(1+mu)z + mu = 0.

    Returns (z_small, w_large) ordered so that |z_small| <= sqrt|mu| <= |w_large|;
    both roots lie in the open disc.  The larger-magnitude root is computed
    first and the other recovered from the constant term mu (Vieta), which
    avoids cancellation when mu is tiny.  Where the roots have equal moduli
    (`equal_root_moduli`: a = 0, or conjugate roots of a real mu), the tie
    is broken from that structure, not from the rounded moduli: z_small is
    the root of larger imaginary part, then of larger real part.
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
    if equal_root_moduli(a, mu):
        if (w.imag, w.real) > (z.imag, z.real):
            z, w = w, z
    elif abs(z) > abs(w):
        z, w = w, z
    return complex(z), complex(w)


# ---------------------------------------------------------------------------
# Certified Pick test
# ---------------------------------------------------------------------------

# unit roundoff, relative errors of a complex product and a complex division
# (Higham, Accuracy and Stability, Sec. 3.6; gamma_7, not gamma_4, leaves room
# for the scaled division of CPython and numpy), and slack for the rounding of
# the bounds themselves
U = 2.0 ** -53
_gamma = lambda k, u: k * u / (1.0 - k * u)
CMUL_ERR = math.sqrt(2.0) * _gamma(2, U)
CDIV_ERR = math.sqrt(2.0) * _gamma(7, U)
BOUND_SLACK = 1.0 + 1e-10


def _quotient_error(q, num, den, e_num, e_den):
    """Bound on |n/d - q| for the computed q = fl(num / den), where the exact
    n, d lie within e_num, e_den of the computed num, den."""
    aq = np.abs(q) / (1.0 - CDIV_ERR)
    return (e_num + aq * e_den) / (np.abs(den) - e_den) + aq * CDIV_ERR


def moebius_error(alpha, z):
    """Bound on |fl(moebius(alpha, z)) - Phi_alpha(z)| for float alpha, z."""
    alpha, z = np.asarray(alpha, dtype=complex), np.asarray(z, dtype=complex)
    num, den = alpha - z, 1.0 - np.conj(alpha) * z
    e_num = U / (1.0 - U) * np.abs(num)
    e_den = CMUL_ERR * np.abs(alpha) * np.abs(z) + U / (1.0 - U) * np.abs(den)
    return BOUND_SLACK * _quotient_error(num / den, num, den, e_num, e_den)


def cholesky_succeeds(A: np.ndarray) -> np.ndarray:
    """Whether the floating Cholesky of each Hermitian matrix of A (B, n, n)
    meets only positive pivots.  A is overwritten."""
    B, n, _ = A.shape
    ok = np.ones(B, dtype=bool)
    # failed rows go on with a unit pivot; their values are never read
    with np.errstate(all="ignore"):
        for k in range(n):
            pivot = A[:, k, k].real
            ok &= pivot > 0.0
            if k == n - 1 or not ok.any():
                break
            col = A[:, k + 1:, k] / np.sqrt(np.where(ok, pivot, 1.0))[:, None]
            A[:, k + 1:, k + 1:] -= col[:, :, None] * np.conj(col)[:, None, :]
    return ok


def pick_margin(nodes, targets, target_err=0.0):
    """Certified margin c of the Pick matrix H = [(1 - w_i conj(w_j)) /
    (1 - l_i conj(l_j))] per row of nodes and targets, (B,) for (n,) or (B, n)
    data; 0.0 where H is not proven positive definite.  The float nodes are exact, each target
    within target_err of its float.  E bounds |H~ - H| entrywise for the
    computed H~, and c = (gamma/(1 - gamma) (1 + u) + u) tr H~ + ||E||_F with
    the complex-arithmetic gamma_{n+1}.  If the floating Cholesky of H~ - c I
    meets only positive pivots, lambda_min(H) > 0 (Higham, Thm 10.3; S. M.
    Rump, "Verification of positive definiteness", BIT 46, 2006), so an
    analytic self-map of the disc interpolates the data.
    """
    lam = np.atleast_2d(np.asarray(nodes, dtype=complex))
    w = np.atleast_2d(np.asarray(targets, dtype=complex))
    tau = np.broadcast_to(target_err, w.shape)
    aw, al, n = np.abs(w), np.abs(lam), lam.shape[1]
    outer = lambda x, y: x[:, :, None] * y[:, None, :]
    num, den = 1.0 - outer(w, np.conj(w)), 1.0 - outer(lam, np.conj(lam))
    with np.errstate(all="ignore"):
        H = num / den
        e_num = (CMUL_ERR * outer(aw, aw) + U / (1.0 - U) * np.abs(num)
                 + outer(tau, aw + tau) + outer(aw, tau))
        e_den = CMUL_ERR * outer(al, al) + U / (1.0 - U) * np.abs(den)
        E = np.where(np.abs(den) > e_den, _quotient_error(H, num, den, e_num, e_den), np.inf)
        g = _gamma(n + 1, CMUL_ERR)
        c = BOUND_SLACK * ((g / (1.0 - g) * (1.0 + U) + U) * np.trace(H, axis1=1, axis2=2).real
                           + np.sqrt(np.sum(E * E, axis=(1, 2))))
    # nodes or targets off the open disc carry no interpolation problem
    ok = np.isfinite(c) & (al.max(axis=1) < 1.0) & (aw.max(axis=1) < 1.0)
    A = H.copy()
    A.reshape(len(A), n * n)[:, :: n + 1] -= np.where(ok, c, 0.0)[:, None]
    return np.where(ok & cholesky_succeeds(A), c, 0.0)
