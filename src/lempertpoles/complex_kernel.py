"""Shared analytic primitives on the unit disc.

Moebius transforms, finite Blaschke products, the root kernel of the
quadratic that inverts z*Phi_a(z) = mu (`_roots_grid` for both roots over
arrays of a and mu, `_nodes` for their order; Lemma 4's interpolant and the
structured starts of the bidisc node search both use it), and a certified
Nevanlinna-Pick test: a floating Cholesky of the Pick matrix shifted by a
margin that covers the rounding of its entries and of the factorization.
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


def _roots_grid(mus: np.ndarray, a: np.ndarray):
    """Both roots (small, large) of z^2 - a(1+mu)z + mu = 0, i.e. the two
    solutions of z*Phi_a(z) = mu, one row per entry of a, ordered by np.abs.

    mus is the target list shared by every row, shape (N,), or anything that
    broadcasts against a[:, None].  The larger-magnitude root is computed
    first and the other recovered from the constant term mu (Vieta), which
    avoids cancellation when mu is tiny.  `_nodes` refines the order by
    np.abs to the kernel's order.  A zero mu has the roots 0 and a, taken as
    they are: b*b underflows below a = 1e-154."""
    a = np.asarray(a)[:, None]
    b = a * (1.0 + mus)
    sq = np.sqrt(b * b - 4.0 * mus)
    flip = (np.conj(b) * sq).real < 0.0
    sq = np.where(flip, -sq, sq)
    w = np.where(mus == 0, b, (b + sq) / 2.0)
    hit = w == 0  # a == 0 and the sqrt branch hit zero; roots are +-i sqrt(mu)
    if hit.any():
        w = np.where(hit, 1j * np.sqrt(mus * np.ones_like(a)), w)
    with np.errstate(invalid="ignore"):  # 0/0 at a zero mu and a = 0
        zs = np.where(mus == 0, 0j, mus / w)
    swap = np.abs(zs) > np.abs(w)
    return np.where(swap, w, zs), np.where(swap, zs, w)


def _nodes(small: np.ndarray, big: np.ndarray, large, a: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """The roots of branch large (one bool per row) from the root pairs
    (small, big) of `_roots_grid` at the parameters a (one per row) and
    targets mus, in the kernel's order: the small root z and the large root
    w satisfy |z| <= sqrt|mu| <= |w|.

    Its moduli are the scalar abs, which np.hypot reproduces bit for bit and
    np.abs of a complex array does not (the last bit differs for about a
    third of all values).  Where `equal_root_moduli` holds, as for the
    conjugate roots of a real mu, the small root is the one of larger
    imaginary part, then of larger real part, whatever the rounded moduli
    say: they differ in the last bits between SIMD code paths, and without
    this order a node can be the conjugate of the other path's."""
    tie = equal_root_moduli(np.asarray(a)[:, None], mus)
    by_part = (big.imag > small.imag) | ((big.imag == small.imag) & (big.real > small.real))
    swap = np.where(tie, by_part,
                    np.hypot(small.real, small.imag) > np.hypot(big.real, big.imag))
    return np.where(swap == np.asarray(large)[:, None], small, big)


def one_minus_outer(X: np.ndarray) -> np.ndarray:
    """1 - X_i conj(X_j) per row of X (B, m): the Pick numerators of target
    rows, or the Pick denominators of node rows."""
    out = X[:, :, None] * np.conj(X)[:, None, :]
    return np.subtract(1.0, out, out=out)


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
    num, den = one_minus_outer(w), one_minus_outer(lam)
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
