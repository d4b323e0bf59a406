"""References and output checks of the benchmark, computed apart from the program.

Nothing here imports `lempertpoles`: the closed forms, the annulus image
series and the Pick check are written out from their textbook definitions,
so that a fault in the package cannot hide in its own reference.  Each
checker returns None for a good output and a one-line reason otherwise.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import eigvalsh

# Criterion-8 bidisc value l((A x B), (0, 0)) for A = {1/2, i/2}, B = {1/2, -1/2}:
# 0.25 + 0.02148261, the margin of the node-space grid scan.  The command
# `python scripts/grid_oracle.py` recomputes it from scratch (lattice/beam
# search with LAPACK eigenvalues only, no descent shared with the optimizer).
CRITERION8_ORACLE = 0.27148261
# Agreement with the oracle, as in criterion 8: the scan's lattice resolution.
ORACLE_TOL = 1e-3
# Pick matrices of returned nodes: smallest eigenvalue allowed, as the
# optimizer's own feasibility tolerance promises.
PICK_EIG_TOL = 1e-12
# Node-moduli product against the reported value: a few ulps of a product of
# at most eight factors.
NODE_PRODUCT_RTOL = 1e-12
# Relative rounding allowed in the benchmark's own references and in the
# program's log-sum products (up to about 200 factors of 1e-16 each, and the
# ~100 factors of the image series); certified tail bounds come on top.
REF_RTOL = 1e-12
# Image-series truncation: stop once R^(2k) is below this.
IMAGE_SERIES_TAIL = 1e-18
# Equality case of Theorem 7: agreement with |a1 a2| and the floor slack.
EQUALITY_TOL = 1e-6
EQUALITY_FLOOR_SLACK = 1e-12
# Theorem 5 certificate residuals.  First coordinate phi o f: Lemma 4's
# interpolation residual tolerance 1e-9 times the Lipschitz constant
# (1 + |z|)/(1 - |z|) <= 3 of Phi_z for |z| <= 0.5.  Second coordinate
# psi((zeta/alpha) Phi_alpha(B)): the cover psi is evaluated at the lift
# zeta with |zeta| = l_G(b, w) <= upper, where rounding is amplified like
# 1/(1 - upper); the worst seen is residual * (1 - upper) = 7.7e-12 (5250
# instances), and 2.7e-9 at upper = 0.9994.
CERT_FIRST_TOL = 3e-9
CERT_SECOND_PER_CONDITION = 5e-11
# prod |eta_j| against upper: Lemma 4 bisects the curve value to 1e-11.
CERT_PRODUCT_TOL = 1e-9
# Disc x disc instances: the sandwich closes up to the certificate slack.
DISC_DISC_GAP_TOL = 1e-9
# Proposition 10: equal products (criterion 9) and the condition-(4) margin.
PROP10_EQUAL_TOL = 1e-10
PROP10_MARGIN_MIN = 1e-6


def moebius(a: complex, z: complex) -> complex:
    """Phi_a(z) = (a - z) / (1 - conj(a) z)."""
    return (a - z) / (1.0 - a.conjugate() * z)


def disc_lempert(poles, z: complex) -> float:
    """l_D(A, z) = prod |Phi_z(a)| on the unit disc (Schwarz-Pick)."""
    return math.prod(abs(moebius(complex(z), complex(a))) for a in poles)


def annulus_green(a: complex, z: complex, R: float) -> float:
    """exp of the Green function of {R < |z| < 1} with pole a, at z.

    Reflections in the two circles put image poles at R^(2k) a and image
    zeros at R^(2k) / conj(a); with q = R^2 they collect into the prime
    function P(x) = (1 - x) prod_k (1 - q^k x)(1 - q^k / x), and the harmonic
    term log|a| log|z| / log R makes the value 1 on the inner circle:
        exp g = |a| |P(z / a)| / |P(z conj(a))| exp(-log|a| log|z| / log R).
    """
    if not 0.0 < R <= 0.8:
        raise ValueError("the image series is used for 0 < R <= 0.8 only")
    a, z = complex(a), complex(z)

    def prime(x: complex) -> complex:
        out = 1.0 - x
        qk = R * R
        while qk >= IMAGE_SERIES_TAIL:
            out *= (1.0 - qk * x) * (1.0 - qk / x)
            qk *= R * R
        return out

    harmonic = math.exp(-math.log(abs(a)) * math.log(abs(z)) / math.log(R))
    return abs(a) * abs(prime(z / a)) / abs(prime(z * a.conjugate())) * harmonic


@functools.lru_cache(maxsize=None)  # rounds repeat their inputs
def plane_green(kind: str, R: float | None, a: complex, z: complex) -> float:
    """Reference Green value on the punctured disc (the disc's Moebius
    modulus: the puncture is removable) or the annulus (image series)."""
    if kind == "punctured":
        return abs(moebius(complex(z), complex(a)))
    return annulus_green(a, z, R)


def pick_min_eig(nodes, targets) -> float:
    """Smallest eigenvalue of the Pick matrix of 0 -> 0, nodes -> targets."""
    lam = np.concatenate([[0j], np.asarray(nodes, dtype=complex)])
    w = np.concatenate([[0j], np.asarray(targets, dtype=complex)])
    num = 1.0 - w[:, None] * np.conj(w)[None, :]
    den = 1.0 - lam[:, None] * np.conj(lam)[None, :]
    return float(eigvalsh(num / den)[0])


# ---------------------------------------------------------------------------
# checkers: None when the output is right, else the reason
# ---------------------------------------------------------------------------


def check_green(kind, R, a, z, value, tail_bound):
    """The certified bracket value * [1 -+ tail_bound] holds the reference."""
    ref = plane_green(kind, R, a, z)
    if abs(value - ref) > value * tail_bound + REF_RTOL * ref:
        return f"green {kind} R={R}: {value!r} +- {tail_bound:.3g} rel misses reference {ref!r}"
    return None


def check_lempert(value, green_refs, log_value=None):
    """A Lempert value lies in (0, 1) and dominates the Green product.

    Values within 1e-16 of 1 round to 1.0 (a pole hyperbolically far from
    the base point, as on thin annuli); there the log value, which the
    evaluators also report, must be negative.
    """
    floor = math.prod(green_refs)
    below_one = value < 1.0 or (value == 1.0 and log_value is not None and log_value < 0.0)
    if not (0.0 < value and below_one):
        return f"lempert value {value!r} (log {log_value!r}) outside (0, 1)"
    if value < floor * (1.0 - REF_RTOL):
        return f"lempert value {value!r} below the Green product {floor!r}"
    return None


def check_pick_nodes(nodes, ta, tb, value):
    """Returned nodes solve both Pick problems and multiply to the value."""
    for name, targets in (("first", ta), ("second", tb)):
        e = pick_min_eig(nodes, targets)
        if e < -PICK_EIG_TOL:
            return f"{name} coordinate Pick matrix indefinite (min eigenvalue {e:.3g})"
    prod = math.prod(abs(complex(v)) for v in nodes)
    if abs(prod - value) > NODE_PRODUCT_RTOL * value:
        return f"node-moduli product {prod!r} differs from value {value!r}"
    return None


def reduced_targets(A, B, z, w, subset):
    """Targets at (0, 0) of the pole pairs in `subset`: Phi_z(a), Phi_w(b)."""
    ta = [moebius(complex(z), complex(A[k])) for k, _ in subset]
    tb = [moebius(complex(w), complex(B[l])) for _, l in subset]
    return ta, tb


def check_bidisc_failure(A, B, z, w, value, subset, nodes):
    floor = max(disc_lempert(A, z), disc_lempert(B, w))
    if abs(value - CRITERION8_ORACLE) > ORACLE_TOL:
        return f"bidisc value {value!r} off the criterion-8 oracle {CRITERION8_ORACLE}"
    if value < floor:
        return f"bidisc value {value!r} below the floor {floor!r}"
    return check_pick_nodes(nodes, *reduced_targets(A, B, z, w, subset), value)


def check_bidisc_equality(A, B, z, w, a1a2, value, subset, nodes):
    if abs(value - a1a2) > EQUALITY_TOL or value < a1a2 - EQUALITY_FLOOR_SLACK:
        return f"bidisc value {value!r} is not |a1 a2| = {a1a2!r}"
    return check_pick_nodes(nodes, *reduced_targets(A, B, z, w, subset), value)


def check_certificate(xi, eta, A, b, z, w, lower, upper, lower_disc, disc_disc):
    """Theorem 5: xi(0) = (z, w), xi(eta_j) = (a_j, b), prod |eta_j| = upper."""
    if not lower <= upper:
        return f"lower {lower!r} exceeds upper {upper!r}"
    ref = disc_lempert(A, z)
    if abs(lower_disc - ref) > REF_RTOL * max(ref, 1e-300) + 1e-300:
        return f"disc term {lower_disc!r} differs from prod |Phi_z(a)| = {ref!r}"
    if disc_disc and upper - lower > DISC_DISC_GAP_TOL:
        return f"disc x disc gap {upper - lower:.3g} above {DISC_DISC_GAP_TOL}"
    if xi is None:
        return "no certificate disc"
    eta = [complex(e) for e in eta]
    if len(eta) != len(A) or max(abs(e) for e in eta) >= 1.0:
        return "certificate nodes missing or outside the disc"
    if abs(math.prod(abs(e) for e in eta) - upper) > CERT_PRODUCT_TOL:
        return f"prod |eta_j| = {math.prod(abs(e) for e in eta)!r} is not upper = {upper!r}"
    tol2 = max(CERT_FIRST_TOL, CERT_SECOND_PER_CONDITION / (1.0 - upper))
    first, second = xi.eval(0.0)
    res1, res2 = abs(complex(first) - z), abs(complex(second) - w)
    for e, a in zip(eta, A):
        first, second = xi.eval(e)
        res1 = max(res1, abs(complex(first) - a))
        res2 = max(res2, abs(complex(second) - b))
    if res1 > CERT_FIRST_TOL or res2 > tol2:
        return f"certificate residuals {res1:.3g}, {res2:.3g} above {CERT_FIRST_TOL:.3g}, {tol2:.3g}"
    return None
