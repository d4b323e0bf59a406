"""Product-property computations: two-sided bounds with constructive
certificates, the two-point rotation test on the bidisc, level-set sampling,
and the counterexample constructions for enlarged pole sets and
non-simply-connected factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complex_kernel import moebius
from .covering_domains import (
    CoverExpr,
    PlaneDomain,
    build_cover,
    find_pole_with_value,
    green_plane,
    lempert_N_plane,
    lempert_poleset_plane,
)
from .disc_domain import (
    DiscExpr,
    EvalResult,
    MoebiusExpr,
    PairExpr,
    PoleSet,
    RotationExpr,
    lempert_disc,
)
from .interpolation import theorem5_certificates

ROTATION_TOL = 1e-12
EQUALITY_TOL = 1e-10


@dataclass(frozen=True)
class ProductInstance:
    """A product-domain instance: pole sets A x B and base point (z, w)."""

    D: PlaneDomain
    G: PlaneDomain
    A: PoleSet
    B: PoleSet
    z: complex
    w: complex

    def __post_init__(self):
        self.D.require_interior(self.z, "z")
        self.G.require_interior(self.w, "w")
        for j, a in enumerate(self.A):
            self.D.require_interior(a, f"A[{j}]")
        for j, b in enumerate(self.B):
            self.G.require_interior(b, f"B[{j}]")


@dataclass
class BoundsReport:
    lower: float
    upper: float
    certificate: DiscExpr | None
    certificate_nodes: tuple
    equality_flag: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise RuntimeError("lower bound exceeds upper bound")


def lempert_value(domain: PlaneDomain, A: PoleSet, z: complex) -> EvalResult:
    """Dispatch the pole-set Lempert evaluation by domain kind."""
    if domain.kind == "disc":
        return lempert_disc(A, z)
    return lempert_poleset_plane(domain, A, z)


def _extremal(domain: PlaneDomain, A: PoleSet, z: complex):
    """Extremal disc through z hitting A, with its nodes and value."""
    if domain.kind == "disc":
        res = lempert_disc(A, z)
        return MoebiusExpr(complex(z)), res.nodes, res.value
    res = lempert_poleset_plane(domain, A, z)
    return res.certificate, res.nodes, res.value


def theorem5_bounds(D: PlaneDomain, G: PlaneDomain, A: PoleSet, b: complex,
                    z: complex, w: complex, slack: float = 1e-6,
                    slack_floor: float = 2e-11) -> BoundsReport:
    """Two-sided estimate of l_{DxG}(A x {b}, (z, w)).

    lower = max(l_D(A,z), l_G^{#A}(b,w)); the upper bound
    max(l_D(A,z), l_G(b,w)) is certified constructively at alpha = upper +
    slack, with the slack tightened geometrically (/8, down to slack_floor)
    while the certificate construction keeps succeeding.  The whole ladder of
    slacks is built in one Lemma-4 batch.  equality_flag reports whether
    l_G(b,w) = l_G^{#A}(b,w) within 1e-10, the equality criterion for the
    product property with #A-point pole sets.
    """
    N = len(A)
    lD = lempert_value(D, A, z).value
    if G.kind == "disc":
        lG1 = lGN = abs(moebius(b, w))
    else:
        lG1 = lempert_N_plane(G, b, w, 1).value
        lGN = lempert_N_plane(G, b, w, N).value
    lower = max(lD, lGN)
    upper0 = max(lD, lG1)

    phi, lam, p = _extremal(D, A, z)
    psi, zeta_nodes, _ = _extremal(G, PoleSet(points=(b,), domain=G if G.kind != "disc" else None), w)
    zeta = complex(zeta_nodes[0])

    ladder = []
    s = slack
    while s >= slack_floor:
        cand = upper0 + s
        if cand >= 1.0 or cand <= max(p, abs(zeta)):
            break
        ladder.append(cand)
        s /= 8.0
    # every rung in one batch; the bound is the last rung before the first
    # that failed, as if the rungs were built one after another
    xi = eta = alpha = None
    for cand, cert in zip(ladder, theorem5_certificates(phi, lam, psi, zeta, ladder)):
        if isinstance(cert, Exception):
            break
        (xi, eta), alpha = cert, cand
    upper = alpha if alpha is not None else upper0
    residual = None
    if xi is not None:
        v0 = xi.eval(0.0)
        residual = max(abs(complex(v0[0]) - z), abs(complex(v0[1]) - w))
        for e, a in zip(eta, A):
            ve = xi.eval(e)
            residual = max(residual, abs(complex(ve[0]) - a), abs(complex(ve[1]) - b))
    return BoundsReport(
        lower=lower, upper=float(upper), certificate=xi,
        certificate_nodes=tuple(eta) if eta is not None else (),
        equality_flag=bool(abs(lG1 - lGN) < EQUALITY_TOL),
        meta={"l_D_A": lD, "l_G_1": lG1, "l_G_N": lGN, "N": N,
              "certificate_residual": residual},
    )


# ---------------------------------------------------------------------------
# Theorem 7: two-point pole sets on the bidisc
# ---------------------------------------------------------------------------


@dataclass
class Theorem7Result:
    rotation: float | None
    value: float | None
    certificate: DiscExpr | None
    message: str


def theorem7_decide(A: PoleSet, B: PoleSet) -> Theorem7Result:
    """Decide the rotation criterion for two-point pole sets at (0, 0).

    Requires 0 outside A and B and l(A,0) = l(B,0).  When a rotation maps A
    onto B the bidisc value equals l(A,0) = |a1 a2| and the extremal discs
    are the pairs (r, e^{i theta} r) with r a rotation; otherwise the product
    property fails (strictly larger value, evidenced numerically by the node
    optimizer).
    """
    if len(A) != 2 or len(B) != 2:
        raise ValueError("theorem7_decide needs two-point pole sets")
    a = list(A.points)
    bb = list(B.points)
    if min(abs(v) for v in a + bb) < 1e-14:
        raise ValueError("pole sets must not contain 0")
    lA = abs(a[0] * a[1])
    lB = abs(bb[0] * bb[1])
    if abs(lA - lB) > ROTATION_TOL:
        raise ValueError(f"hypothesis l(A,0) = l(B,0) violated: {lA} vs {lB}")
    for sigma in ((0, 1), (1, 0)):
        ratio = bb[sigma[0]] / a[0]
        if abs(abs(ratio) - 1.0) > ROTATION_TOL:
            continue
        theta = float(np.angle(ratio))
        rot = complex(np.exp(1j * theta))
        if (abs(rot * a[0] - bb[sigma[0]]) <= ROTATION_TOL
                and abs(rot * a[1] - bb[sigma[1]]) <= ROTATION_TOL):
            cert = PairExpr(RotationExpr(0.0), RotationExpr(theta))
            return Theorem7Result(rotation=theta, value=lA, certificate=cert,
                                  message="rotation found; product property holds")
    return Theorem7Result(rotation=None, value=None, certificate=None,
                          message="no rotation - product property fails")


# ---------------------------------------------------------------------------
# Corollary 8 sampler
# ---------------------------------------------------------------------------


@dataclass
class Cor8Sample:
    w: complex
    level_residual: float
    automorphism: bool


def _automorphism_images(A, B, z):
    """The at-most-two w: images of z under automorphisms with m(A) = B."""
    a0, a1 = A
    out = []
    for sigma in ((0, 1), (1, 0)):
        p, q = B[sigma[0]], B[sigma[1]]
        d = complex(moebius(a0, a1))
        dp = complex(moebius(p, q))
        if abs(abs(d) - abs(dp)) > 1e-13 or abs(d) < 1e-15:
            continue
        gamma = dp / d
        w_img = complex(moebius(p, gamma * moebius(a0, z)))
        out.append(w_img)
    return out


def corollary8_sample(A: PoleSet, B: PoleSet, z: complex, count: int,
                      seed: int = 0) -> list:
    """Sample points w on the level set l(B, w) = l(A, z) of the bidisc
    counterexample family.

    The at-most-two automorphism images of z (when the pairs are congruent)
    are included first and flagged; the rest are found by bisection along
    seeded random rays from the first pole of B, flagged False.  Every
    returned w satisfies the level equation within 1e-10.
    """
    if len(A) != 2 or len(B) != 2:
        raise ValueError("two-point pole sets required")
    t = lempert_disc(A, z).value
    if not 0.0 < t < 1.0:
        raise ValueError("z must not lie in A and must give a nontrivial level")
    b0 = B.points[0]

    def level(wv: complex) -> float:
        return abs(moebius(B.points[0], wv)) * abs(moebius(B.points[1], wv))

    samples = []
    for w_img in _automorphism_images(A.points, B.points, z):
        r = abs(level(w_img) - t)
        if r <= 1e-10 and len(samples) < count:
            samples.append(Cor8Sample(w=w_img, level_residual=r, automorphism=True))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    attempts = 0
    while len(samples) < count and attempts < 50 * count:
        attempts += 1
        phi = 2.0 * np.pi * rng.random()
        d = complex(np.exp(1j * phi))
        zr = np.conj(b0) * d
        s_max = float(-zr.real + math.sqrt(zr.real ** 2 + 1.0 - abs(b0) ** 2))
        lo, hi = None, None
        prev_s, prev_v = 1e-9, level(b0 + 1e-9 * d) - t
        for s in np.linspace(0.0, s_max * (1 - 1e-9), 257)[1:]:
            v = level(b0 + s * d) - t
            if prev_v * v <= 0.0:
                lo, hi = prev_s, s
                break
            prev_s, prev_v = s, v
        if lo is None:
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            v = level(b0 + mid * d) - t
            if abs(v) <= 1e-11:
                break
            if (level(b0 + lo * d) - t) * v <= 0.0:
                hi = mid
            else:
                lo = mid
        wv = b0 + 0.5 * (lo + hi) * d
        res = abs(level(wv) - t)
        if res > 1e-10:
            continue
        flag = any(abs(wv - wi) <= 1e-12 for wi in _automorphism_images(A.points, B.points, z))
        samples.append(Cor8Sample(w=complex(wv), level_residual=res, automorphism=flag))
    if len(samples) < count:
        raise RuntimeError("level-set sampler could not collect enough points")
    return samples


# ---------------------------------------------------------------------------
# Propositions 9-11
# ---------------------------------------------------------------------------


def _green_value(domain: PlaneDomain, a: complex, z: complex) -> float:
    return green_plane(domain, a, z, tol_tail=1e-9)[0]


def prop9_extend(D: PlaneDomain, G: PlaneDomain, A: PoleSet, B: PoleSet,
                 z: complex, w: complex, q: float, A1: PoleSet, B1: PoleSet) -> dict:
    """Check the enlargement condition g_D(A1,z) g_G(B1,w) > q and report the
    implied strict-gap chain for the enlarged pole sets.

    q is supplied by the caller as max(l_D(A,z), l_G(B,w)) divided by a
    certified upper bound of l_{DxG}(A x B, (z,w)); since the upper bound
    overestimates the denominator, q underestimates the true ratio and the
    reported gap is labelled accordingly in the chain fields.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    for a in A1:
        if any(abs(a - a0) < 1e-12 for a0 in A):
            raise ValueError("A1 overlaps A")
    for bp in B1:
        if any(abs(bp - b0) < 1e-12 for b0 in B):
            raise ValueError("B1 overlaps B")
    gD = float(np.prod([_green_value(D, a, z) for a in A1]))
    gG = float(np.prod([_green_value(G, bp, w) for bp in B1]))
    lA = lempert_value(D, A, z).value
    lB = lempert_value(G, B, w).value
    max_small = max(lA, lB)
    union_A = PoleSet(points=tuple(A) + tuple(A1), domain=None if D.kind == "disc" else D)
    union_B = PoleSet(points=tuple(B) + tuple(B1), domain=None if G.kind == "disc" else G)
    max_enlarged = max(lempert_value(D, union_A, z).value,
                       lempert_value(G, union_B, w).value)
    condition3 = gD * gG > q
    implied = (max_small / q) * gD * gG if condition3 else None
    return {
        "g_D_A1": gD,
        "g_G_B1": gG,
        "g_product": gD * gG,
        "q": q,
        "condition3": condition3,
        "l_D_A": lA,
        "l_G_B": lB,
        "max_small": max_small,
        "max_enlarged": max_enlarged,
        "implied_lower_enlarged": implied,
        "strict_gap": (implied - max_enlarged) if implied is not None else None,
        "verdict": ("strict inequality implied for the enlarged sets"
                    if condition3 else "condition (3) fails"),
    }


def condition4_margin(cover_D, a1: complex, a2: complex, cover_G, b: complex,
                      lifts_per_point: int = 200, modulus_tol: float = 1e-6,
                      resolve_tol: float = 1e-12) -> float:
    """Genericity margin of the lift-ratio condition over truncated lift sets.

    A rotated-cover coincidence requires xi_i = e^{i theta} eta_i with the
    SAME theta, hence both |xi_i| = |eta_i| and xi1/xi2 = eta1/eta2.  The
    margin is min |xi1/xi2 - eta1/eta2| over pairs whose moduli match within
    modulus_tol.  Lifts within resolve_tol of the unit circle are excluded:
    their float positions collapse onto the circle and carry no argument
    information (the true ratios there accumulate trivially).  When no
    modulus-matched candidate exists the condition holds vacuously over the
    truncation and the margin is reported as 1.
    """
    per_side = max(4, lifts_per_point // 2 + 2)

    def resolved(cover, point):
        ls = cover.lifts(point, per_side)
        keep = ls.delta > resolve_tol
        return np.asarray(ls.eta[keep][:lifts_per_point]), ls.moduli[keep][:lifts_per_point]

    xi1, m1 = resolved(cover_D, a1)
    xi2, m2 = resolved(cover_D, a2)
    eta, mg = resolved(cover_G, b)
    pairs1 = [(i, k) for i in range(len(xi1)) for k in range(len(eta))
              if abs(m1[i] - mg[k]) <= modulus_tol]
    pairs2 = [(j, l) for j in range(len(xi2)) for l in range(len(eta))
              if abs(m2[j] - mg[l]) <= modulus_tol]
    margin = 1.0
    for i, k in pairs1:
        for j, l in pairs2:
            margin = min(margin, abs(xi1[i] / xi2[j] - eta[k] / eta[l]))
    return float(margin)


def prop10_construct(D: PlaneDomain, G: PlaneDomain, z: complex, w: complex,
                     b: complex, N: int, seed: int = 0,
                     lifts_per_point: int = 200, margin_tol: float = 1e-6,
                     max_retries: int = 100):
    """Pole set A_N in D with l_D(A_N, z) = l_G^N(b, w) for every truncation,
    with the genericity margin of the lift-ratio condition verified.

    Each a_k is placed on a seeded random ray from z at the level
    |eta_k(b, w)| (the k-th smallest lift modulus of b), so the partial
    products match the covering formula term by term; directions are redrawn
    until the ratio clouds of (a_1, a_2) against the lifts of b stay
    margin_tol apart.
    """
    if G.is_simply_connected():
        raise ValueError("G must be non-simply connected")
    if N < 2:
        raise ValueError("N >= 2 required")
    G.require_interior(b, "b")
    if abs(b - w) < 1e-12:
        raise ValueError("b must differ from w")
    cover_G = build_cover(G, w)
    cover_D = build_cover(D, z)
    lifts_b = cover_G.lifts(b, max(8, N + 4))
    t = np.minimum(lifts_b.moduli[:N], 1.0 - 5e-12)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    margin = -1.0
    a_points = None
    for attempt in range(max_retries):
        dirs = np.exp(2j * np.pi * rng.random(N))
        try:
            cand = [find_pole_with_value(D, z, float(tk), complex(dk), tol=1e-11)
                    for tk, dk in zip(t, dirs)]
        except RuntimeError:
            continue
        if min(abs(cand[i] - cand[j]) for i in range(N) for j in range(i + 1, N)) < 1e-10:
            continue
        margin = condition4_margin(cover_D, cand[0], cand[1], cover_G, b,
                                   lifts_per_point)
        if margin > margin_tol:
            a_points = cand
            break
    if a_points is None:
        raise RuntimeError(
            f"condition (4) margin above {margin_tol} not attained in {max_retries} tries")

    A_N = PoleSet(points=tuple(a_points), domain=D if D.kind != "disc" else None)
    equal_errors = []
    for k in range(1, N + 1):
        Ak = PoleSet(points=tuple(a_points[:k]), domain=D if D.kind != "disc" else None)
        lDk = lempert_value(D, Ak, z).value
        lGk = lempert_N_plane(G, b, w, k).value
        equal_errors.append(abs(lDk - lGk))
    bounds = theorem5_bounds(D, G, A_N, b, z, w)
    lGN = lempert_N_plane(G, b, w, N).value
    report = {
        "targets": [float(v) for v in t],
        "equal_errors": equal_errors,
        "condition4_margin": margin,
        "bounds_lower": bounds.lower,
        "bounds_upper": bounds.upper,
        "l_G_N": lGN,
        "q": lGN / bounds.upper if bounds.upper > 0 else None,
        "paper_strict": margin > margin_tol,
    }
    return A_N, report


def prop11_construct(D: PlaneDomain, G: PlaneDomain, z: complex, w: complex,
                     b: complex, extra: PoleSet, seed: int = 0) -> dict:
    """Counterexample with max(l_D(A,z), g_G(b,w)) strictly below the product
    value, built on the two-point instance of prop10_construct.

    extra must satisfy l_D(extra, z) > q, where q compares l_G^2(b, w) with
    the certified upper bound of the two-point product instance.
    """
    A2, rep10 = prop10_construct(D, G, z, w, b, N=2, seed=seed)
    q = rep10["q"]
    l_extra = lempert_value(D, extra, z).value
    if l_extra <= q:
        raise ValueError(f"l_D(extra, z) = {l_extra} <= q = {q}")
    union = PoleSet(points=tuple(A2) + tuple(extra),
                    domain=D if D.kind != "disc" else None)
    l_union = lempert_value(D, union, z).value
    gG = _green_value(G, b, w)
    lG2 = rep10["l_G_N"]
    chain_floor = lG2 * l_extra  # >= l_prod(A2 x b) * l_D(extra, z) via the lower bound
    max_rhs = max(l_union, gG)
    return {
        "A2": [complex(a) for a in A2],
        "q": q,
        "l_extra": l_extra,
        "l_union": l_union,
        "g_G_b": gG,
        "l_G_2": lG2,
        "chain_floor": chain_floor,
        "max_rhs": max_rhs,
        "bounds_upper_A2": rep10["bounds_upper"],
        "condition4_margin": rep10["condition4_margin"],
        "paper_strict": rep10["paper_strict"] and l_extra > q + 1e-9,
        "verdict": ("strict (paper-backed: condition (4) margin verified and"
                    " l_D(extra,z) > q)" if l_extra > q + 1e-9 else
                    "inconclusive: l_D(extra,z) too close to q"),
    }
