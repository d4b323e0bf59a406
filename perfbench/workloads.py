"""The benchmark's workloads: seeded inputs, one operation each, and checks.

A workload turns a seed into one *round*, a fixed list of operations.  A run
repeats whole rounds, so every run checks the same inputs and the share of
failed operations does not depend on how long it ran.  Each operation calls
the package through module attributes looked up at call time, so the traced
run sees the calls its wrappers intercept.

The strata of each round (query kinds, domains, pole counts) are fixed and
the seed draws only the parameters inside them, so every seed gives the
same mix of operations.  certify's Proposition 10 instances are the same
for every seed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# Entropy of the inputs that do not follow --seed: the bound_gap panel and
# certify's Proposition 10 instances.
PANEL_ENTROPY = 20240601

# One restart count for both bidisc workloads.  On seeded criterion-8
# instances the 4-pair subset search missed the oracle on 7 of 40 at 4
# restarts, 3 of 40 at 8 and 0 of 60 at 24; 32 keeps the extrapolated miss
# rate near 5e-4 per operation at about the cost of 24 (see README).
BIDISC_RESTARTS = 32


@dataclass
class Op:
    """One operation: `run` calls the program, `check` judges its output
    (None if right), `gap` gives its contribution to bound_gap (or None).
    `stratum` names the round's stratum it belongs to (default: `kind`)."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    gap: Callable[[object], float | None] = lambda out: None
    info: Callable[[object], dict] = lambda out: {}
    stratum: str = ""

    def __post_init__(self):
        self.stratum = self.stratum or self.kind


def _point(rng, r_lo: float, r_hi: float) -> complex:
    """A point with modulus uniform in [r_lo, r_hi] and a uniform argument."""
    return (r_lo + (r_hi - r_lo) * rng.random()) * cmath.exp(2j * math.pi * rng.random())


def _disc_point(rng, r_max: float) -> complex:
    """A point uniform in area in the disc of radius r_max."""
    return r_max * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


def _apart(draw, others, min_dist: float = 0.02) -> complex:
    """Draw until the point is min_dist away from every point of `others`."""
    while True:
        p = draw()
        if all(abs(p - q) >= min_dist for q in others):
            return p


# ---------------------------------------------------------------------------
# plane_eval
# ---------------------------------------------------------------------------

# (query kind, domain kind, count per round).  Annulus lempert_N_plane
# queries come in two strata: "deep" ones, whose N-th lift deficit
# underflows to 0.0 (the N-th smallest deficit is about 2 exp(-pi^2 N / L),
# L = log(1/R), so this happens once N > 744 L / pi^2), and "shallow" ones.
# Their counts are fixed at the share the unstratified draw gives (about 7 %
# clearly deep), so the costly deep queries weigh the same in every round;
# draws within 30 % of the threshold are redrawn.  The counts are an assumed
# mix, not measured traffic: the package's own callers use N <= 11 (see
# README), and the run reports ops_per_s per stratum beside the whole mix.
PLANE_STRATA = (
    ("green_plane", "punctured", 24), ("green_plane", "annulus", 48),
    ("lempert_N_plane", "punctured", 24), ("lempert_N_plane", "annulus-shallow", 44),
    ("lempert_N_plane", "annulus-deep", 4),
    ("lempert_poleset_plane", "punctured", 16), ("lempert_poleset_plane", "annulus", 32),
)
PLANE_N_MAX = 200
PLANE_R_RANGE = (0.02, 0.8)


def underflow_threshold(R: float) -> float:
    """N beyond which the N-th annulus lift deficit underflows to 0.0."""
    return 744.0 * math.log(1.0 / R) / math.pi ** 2


def _plane_domain(lp, rng, kind):
    if kind == "punctured":
        return lp.covering_domains.PlaneDomain("punctured"), None, (0.05, 0.95)
    lo, hi = PLANE_R_RANGE
    R = lo * (hi / lo) ** rng.random()  # log-uniform inner radius
    w = 1.0 - R
    return lp.covering_domains.PlaneDomain("annulus", R=R), R, (R + 0.05 * w, 1.0 - 0.05 * w)


def _draw_N(rng, stratum: str, R: float | None) -> int | None:
    N = int(round(PLANE_N_MAX ** rng.random()))  # log-uniform in 1..200
    if R is None:
        return N
    thr = underflow_threshold(R)
    if stratum.endswith("deep") and N >= 1.3 * thr:
        return N
    if stratum.endswith("shallow") and N <= 0.7 * thr:
        return N
    return None


def plane_eval_round(lp, rng) -> list:
    cd = lp.covering_domains
    ops = []
    for query, stratum, count in PLANE_STRATA:
        kind = stratum.split("-")[0]
        for _ in range(count):
            N = None
            while True:
                dom, R, (r_lo, r_hi) = _plane_domain(lp, rng, kind)
                if query != "lempert_N_plane":
                    break
                N = _draw_N(rng, stratum, R)
                if N is not None:
                    break
            z = _point(rng, r_lo, r_hi)
            if query == "green_plane":
                a = _apart(lambda: _point(rng, r_lo, r_hi), [z])
                ops.append(Op(
                    query, stratum=f"{query}:{stratum}",
                    run=lambda dom=dom, a=a, z=z: cd.green_plane(dom, a, z),
                    check=lambda out, kind=kind, R=R, a=a, z=z: checks.check_green(
                        kind, R, a, z, out[0], out[1]),
                    gap=lambda out: 2.0 * out[0] * out[1]))
            elif query == "lempert_N_plane":
                a = _apart(lambda: _point(rng, r_lo, r_hi), [z])
                ops.append(Op(
                    query, stratum=f"{query}:{stratum}",
                    run=lambda dom=dom, a=a, z=z, N=N: cd.lempert_N_plane(dom, a, z, N),
                    check=lambda out, kind=kind, R=R, a=a, z=z: checks.check_lempert(
                        out.value, [checks.plane_green(kind, R, a, z)], out.meta["log_value"]),
                    info=lambda out, N=N: {"underflow": out.meta["deltas"][N - 1] == 0.0}))
            else:
                pts = [z]
                for _ in range(2 + int(rng.integers(0, 3))):  # 2-4 poles
                    pts.append(_apart(lambda: _point(rng, r_lo, r_hi), pts))
                poles = tuple(pts[1:])
                A = lp.disc_domain.PoleSet(points=poles, domain=dom)
                ops.append(Op(
                    query, stratum=f"{query}:{stratum}",
                    run=lambda dom=dom, A=A, z=z: cd.lempert_poleset_plane(dom, A, z),
                    check=lambda out, kind=kind, R=R, poles=poles, z=z: checks.check_lempert(
                        out.value, [checks.plane_green(kind, R, a, z) for a in poles],
                        out.meta["log_value"])))
    return ops


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# (G kind, number of poles, one pole at the base point?, count per round)
CERTIFY_STRATA = tuple(
    (g, n, zero, 2)
    for g in ("disc", "annulus", "punctured")
    for n in (1, 2, 3, 4)
    for zero in (False, True)
    if not (zero and n == 1)
)
# pole counts of the Proposition 10 instances of one round.  These instances
# are drawn from PANEL_ENTROPY, not from --seed: one costs 0.1-0.4 s
# depending on N and its parameters, and seeded ones would move ops_per_s
# from seed to seed by more than its bound.  The 42 theorem5_bounds
# instances follow the seed.
PROP10_N = (2,)


def _theorem5_op(lp, rng, g_kind, n_poles, zero_pole):
    pe, cd = lp.product_engine, lp.covering_domains
    D = cd.PlaneDomain("disc")
    z = _disc_point(rng, 0.5)
    # poles placed by their reduced nodes Phi_z(a) with moduli in [0.3, 0.9]
    nodes = []
    for _ in range(n_poles):
        nodes.append(_apart(lambda: _point(rng, 0.3, 0.9), nodes, 0.05))
    if zero_pole:
        nodes[0] = 0j
    A_pts = tuple(checks.moebius(z, u) for u in nodes)
    A = lp.disc_domain.PoleSet(points=A_pts)
    if g_kind == "disc":
        G, r_lo, r_hi = cd.PlaneDomain("disc"), 0.0, 0.9
    elif g_kind == "annulus":
        R = 0.05 + 0.2 * rng.random()
        G, r_lo, r_hi = cd.PlaneDomain("annulus", R=R), R + 0.2 * (1 - R), 1 - 0.2 * (1 - R)
    else:
        G, r_lo, r_hi = cd.PlaneDomain("punctured"), 0.1, 0.9
    w = _point(rng, r_lo, r_hi)
    b = _apart(lambda: _point(rng, r_lo, r_hi), [w], 0.05)

    def check(rep):
        return checks.check_certificate(
            rep.certificate, rep.certificate_nodes, A_pts, b, z, w, rep.lower,
            rep.upper, rep.meta["l_D_A"], disc_disc=(g_kind == "disc"))

    return Op("theorem5_bounds", run=lambda: pe.theorem5_bounds(D, G, A, b, z, w),
              check=check, gap=lambda rep: rep.upper - rep.lower)


def _prop10_op(lp, rng, N, op_seed):
    pe, cd = lp.product_engine, lp.covering_domains
    R_D = 0.2 + 0.2 * rng.random()
    R_G = 0.4 + 0.2 * rng.random()
    D = cd.PlaneDomain("annulus", R=R_D)
    G = cd.PlaneDomain("annulus", R=R_G)
    z = _point(rng, 0.5, 0.7)
    w = _point(rng, 0.6, 0.8)
    b = _apart(lambda: _point(rng, 0.6, 0.8), [w], 0.2)

    def check(out):
        A_N, rep = out
        if rep["condition4_margin"] <= checks.PROP10_MARGIN_MIN:
            return f"condition-(4) margin {rep['condition4_margin']!r} not above 1e-6"
        pts = tuple(A_N.points)
        for k in range(1, N + 1):
            Ak = lp.disc_domain.PoleSet(points=pts[:k], domain=D)
            lDk = cd.lempert_poleset_plane(D, Ak, z).value
            lGk = cd.lempert_N_plane(G, b, w, k).value
            if abs(lDk - lGk) > checks.PROP10_EQUAL_TOL:
                return f"prop10 k={k}: l_D(A_k) = {lDk!r} but l_G^k(b) = {lGk!r}"
            reason = checks.check_lempert(
                lDk, [checks.annulus_green(a, z, R_D) for a in pts[:k]])
            if reason:
                return f"prop10 k={k}: {reason}"
        if not rep["bounds_lower"] <= rep["bounds_upper"]:
            return "prop10 bounds out of order"
        return None

    return Op("prop10_construct",
              run=lambda: pe.prop10_construct(D, G, z, w, b, N, seed=op_seed),
              check=check, gap=lambda out: out[1]["bounds_upper"] - out[1]["bounds_lower"])


def certify_round(lp, rng) -> list:
    ops = [_theorem5_op(lp, rng, g, n, zero)
           for g, n, zero, count in CERTIFY_STRATA for _ in range(count)]
    fixed = np.random.default_rng(np.random.SeedSequence(entropy=PANEL_ENTROPY, spawn_key=(1, 2)))
    ops += [_prop10_op(lp, fixed, N, int(fixed.integers(0, 2 ** 31))) for N in PROP10_N]
    return ops


# ---------------------------------------------------------------------------
# bidisc workloads
# ---------------------------------------------------------------------------

CRITERION8_A = (0.5, 0.5j)
CRITERION8_B = (0.5, -0.5)
BIDISC_FAILURE_PER_ROUND = 2
BIDISC_EQUALITY_PER_ROUND = 4


def _bidisc_op(lp, kind, A0, B0, rng, move: bool, check):
    """bidisc_lempert on (rotated A0, rotated B0) moved to a seeded base point."""
    t1, t2 = 2.0 * math.pi * rng.random(2)
    z = _disc_point(rng, 0.4) if move else 0j
    w = _disc_point(rng, 0.4) if move else 0j
    A = tuple(checks.moebius(z, cmath.exp(1j * t1) * a) for a in A0)
    B = tuple(checks.moebius(w, cmath.exp(1j * t2) * b) for b in B0)
    settings = lp.node_optimizer.OptimizerSettings(
        restarts=BIDISC_RESTARTS, seed=int(rng.integers(0, 2 ** 31)))
    PoleSet = lp.disc_domain.PoleSet
    run = lambda: lp.node_optimizer.bidisc_lempert(PoleSet(points=A), PoleSet(points=B), z, w, settings)
    return Op(kind, run=run,
              check=lambda out: check(A, B, z, w, out[1], out[0].subset, out[0].nodes),
              gap=None)


def bidisc_failure_round(lp, rng) -> list:
    floor = max(checks.disc_lempert(CRITERION8_A, 0j), checks.disc_lempert(CRITERION8_B, 0j))
    ops = []
    for _ in range(BIDISC_FAILURE_PER_ROUND):
        op = _bidisc_op(lp, "bidisc_lempert", CRITERION8_A, CRITERION8_B, rng, True,
                        checks.check_bidisc_failure)
        # the floor max(l(A, z), l(B, w)) is invariant under the automorphism pair
        op.gap = lambda out: out[1] - floor
        ops.append(op)
    return ops


def bidisc_equality_round(lp, rng) -> list:
    ops = []
    for i in range(BIDISC_EQUALITY_PER_ROUND):
        A0 = tuple(_point(rng, 0.3, 0.8) for _ in range(2))
        theta = 2.0 * math.pi * rng.random()
        B0 = tuple(cmath.exp(1j * theta) * a for a in A0)
        exact = abs(A0[0] * A0[1])
        op = _bidisc_op(
            lp, "bidisc_lempert", A0, B0, rng, i % 2 == 1,
            lambda A, B, z, w, v, s, n, exact=exact: checks.check_bidisc_equality(
                A, B, z, w, exact, v, s, n))
        op.gap = lambda out, exact=exact: out[1] - exact
        ops.append(op)
    return ops


WORKLOADS = {
    "plane_eval": plane_eval_round,
    "certify": certify_round,
    "bidisc_failure": bidisc_failure_round,
    "bidisc_equality": bidisc_equality_round,
}


# bound_gap of these workloads comes from a fixed panel, one round drawn
# from PANEL_ENTROPY: their per-instance gaps spread over orders of magnitude
# (green bracket widths: sd/mean 6.6 per query), so a mean over seeded
# instances would move from seed to seed by more than any useful bound.
GAP_FROM_PANEL = ("plane_eval", "certify")


def make_round(lp, workload: str, seed: int, panel: bool = False) -> list:
    key = (list(WORKLOADS).index(workload), int(panel))
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=PANEL_ENTROPY if panel else seed, spawn_key=key))
    return WORKLOADS[workload](lp, rng)


def warm_up(lp, workload: str, ops: list) -> None:
    """Run each kind of operation once, so lazy imports and first-call costs
    are paid before timing.  The bidisc warm-up searches the single pair
    subset of A = {1/2}, B = {1/2, -1/2} with 2 restarts and 20 iterations,
    which passes through every optimizer phase in a small fraction of the
    cost of one operation."""
    if workload.startswith("bidisc"):
        PoleSet = lp.disc_domain.PoleSet
        settings = lp.node_optimizer.OptimizerSettings(restarts=2, max_iterations=20)
        lp.node_optimizer.bidisc_lempert(PoleSet(points=CRITERION8_A[:1]),
                                         PoleSet(points=CRITERION8_B), 0j, 0j, settings)
        return
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()
