"""Acceptance suite: one callable per criterion, each returning a result
record with pass/fail, margins and runtime.

The values these checks compare against are independent of the code paths
they exercise: Moebius closed forms for the punctured disc, a reflected-image
prime-function series for the annulus, endpoint identities of the
interpolation curves, and a frozen node-space grid scan for the bidisc
failure margin (scripts/grid_oracle.py).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .complex_kernel import moebius
from .covering_domains import PlaneDomain, green_plane, lempert_N_plane
from .disc_domain import PoleSet
from .interpolation import Lemma4Problem, _roots_grid, lemma4_solve
from .node_optimizer import (OptimizerSettings, _factor_coord, _pair_level, _restart_starts,
                             _screen, _subset_coords, bidisc_lempert)
from .product_engine import MARGIN_TOL, prop10_construct, theorem5_bounds, theorem7_decide

# margin of the bidisc failure case over the inequality-(2) floor, frozen from
# the pre-build node-space grid scan (scripts/grid_oracle.py, beam lattice)
GRID_ORACLE_DELTA = 0.02148261


@dataclass
class CriterionResult:
    key: str
    name: str
    passed: bool
    margin: float | None
    runtime_ms: float
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def annulus_prime_function(zeta: complex, R: float, tail_tol: float = 1e-18) -> complex:
    """P(zeta) = (1 - zeta) prod_{k>=1} (1 - R^{2k} zeta)(1 - R^{2k}/zeta)."""
    out = 1.0 - zeta
    q = R * R
    qk = q
    for _ in range(100000):
        out *= (1.0 - qk * zeta) * (1.0 - qk / zeta)
        qk *= q
        if qk < tail_tol:
            break
    return out


def annulus_green_image_series(a: complex, z: complex, R: float) -> float:
    """Green function of the annulus by the reflected-image series.

    Images of the pole under the inversion group of the two circles sit at
    R^{2k} a and R^{2k}/conj(a); collecting them into prime-function factors
    and correcting the inner boundary with the harmonic term log|z| log|a| /
    log R gives
        g = |P(z/a)| / |P(z conj(a))| * |a| * exp(-log|a| log|z| / log R).

    The series converges like R^{2k}; radii near 1 are outside its practical
    range (the covering route handles those).
    """
    if R > 0.8:
        raise ValueError("image-series oracle only supports R <= 0.8")
    val = abs(annulus_prime_function(z / a, R)) / abs(annulus_prime_function(z * np.conj(a), R))
    return float(val * abs(a) * math.exp(-math.log(abs(a)) * math.log(abs(z)) / math.log(R)))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def c1_lemma4_roundtrip(samples: int = 500, seed: int = 20240601,
                        resid_tol: float = 1e-9, prod_tol: float = 1e-9,
                        time_budget_s: float = 10.0) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_res = worst_prod = 0.0
    for _ in range(samples):
        N = int(rng.integers(1, 7))
        mu = [0j if rng.random() < 0.1
              else (0.05 + 0.90 * rng.random()) * np.exp(2j * np.pi * rng.random())
              for _ in range(N)]
        p = float(np.prod([abs(m) for m in mu]))
        q = p + (1.0 - p) * rng.uniform(1e-6, 1.0 - 1e-6)
        sol = lemma4_solve(Lemma4Problem(mu=tuple(mu), q=q))
        worst_res = max(worst_res, sol.residual)
        worst_prod = max(worst_prod, sol.product_error)
    dt = time.perf_counter() - t0
    passed = worst_res <= resid_tol and worst_prod <= prod_tol and dt < time_budget_s
    return CriterionResult(
        key="lemma4_roundtrip", name="Lemma 4 round-trip (500 random instances)",
        passed=passed, margin=resid_tol - worst_res, runtime_ms=1e3 * dt,
        details={"worst_residual": worst_res, "worst_product_error": worst_prod,
                 "runtime_s": dt})


def c2_lemma4_anchors(anchor_tol: float = 1e-12, endpoint_tol: float = 1e-3,
                      grid: int = 1024) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_anchor = worst_vieta = worst_g_end = worst_h_end = 0.0
    for _ in range(8):
        N = int(rng.integers(1, 7))
        mus = np.array([(0.05 + 0.9 * rng.random()) * np.exp(2j * np.pi * rng.random())
                        for _ in range(N)])
        p = float(np.prod(np.abs(mus)))
        a_grid = np.linspace(0.0, 1.0 - 1.0 / grid, grid)
        small, large = (np.abs(r) for r in _roots_grid(mus, a_grid))
        g = small.prod(axis=1)
        h = large.prod(axis=1)
        worst_anchor = max(worst_anchor, abs(g[0] - math.sqrt(p)), abs(h[0] - math.sqrt(p)))
        worst_vieta = max(worst_vieta, float(np.max(np.abs(g * h - p))))
        s_end, l_end = (np.abs(r) for r in _roots_grid(mus, np.asarray([1.0 - 1e-6])))
        worst_g_end = max(worst_g_end, abs(float(s_end.prod()) - p))
        worst_h_end = max(worst_h_end, abs(float(l_end.prod()) - 1.0))
    dt = time.perf_counter() - t0
    passed = (worst_anchor <= anchor_tol and worst_vieta <= anchor_tol
              and worst_g_end <= endpoint_tol and worst_h_end <= endpoint_tol)
    return CriterionResult(
        key="lemma4_anchors", name="Lemma 4 anchors g(0)=h(0)=sqrt p, g h = p, endpoints",
        passed=passed, margin=anchor_tol - max(worst_anchor, worst_vieta),
        runtime_ms=1e3 * dt,
        details={"worst_anchor": worst_anchor, "worst_vieta": worst_vieta,
                 "worst_g_endpoint": worst_g_end, "worst_h_endpoint": worst_h_end})


def c3_punctured_green(samples: int = 100, seed: int = 11,
                       tol: float = 1e-8, time_budget_s: float = 2.0) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    dom = PlaneDomain("punctured")
    worst = worst_tail = 0.0
    for _ in range(samples):
        a = (0.10 + 0.75 * rng.random()) * np.exp(2j * np.pi * rng.random())
        z = (0.10 + 0.75 * rng.random()) * np.exp(2j * np.pi * rng.random())
        value, tail = green_plane(dom, a, z, tol_tail=1e-9)
        worst = max(worst, abs(value - abs(moebius(a, z))))
        worst_tail = max(worst_tail, tail)
    dt = time.perf_counter() - t0
    passed = worst <= tol and dt < time_budget_s
    return CriterionResult(
        key="punctured_green", name="Punctured-disc Green identity vs Moebius modulus",
        passed=passed, margin=tol - worst, runtime_ms=1e3 * dt,
        details={"worst_error": worst, "worst_tail_bound": worst_tail, "runtime_s": dt})


def c4_annulus_green(rel_tol: float = 1e-6, seed: int = 5) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    cases = [0.1] * 7 + [0.3] * 7 + [0.6] * 6
    worst = 0.0
    for R in cases:
        dom = PlaneDomain("annulus", R=R)
        ra = R + (1 - R) * (0.15 + 0.7 * rng.random())
        rz = R + (1 - R) * (0.15 + 0.7 * rng.random())
        a = ra * np.exp(2j * np.pi * rng.random())
        z = rz * np.exp(2j * np.pi * rng.random())
        value, _ = green_plane(dom, a, z, tol_tail=1e-10)
        oracle = annulus_green_image_series(a, z, R)
        worst = max(worst, abs(value - oracle) / oracle)
    dt = time.perf_counter() - t0
    return CriterionResult(
        key="annulus_green_oracle", name="Annulus Green vs reflected-image series oracle",
        passed=worst <= rel_tol, margin=rel_tol - worst, runtime_ms=1e3 * dt,
        details={"worst_rel_error": worst, "cases": len(cases)})


def annulus_winding_rate(R: float) -> float:
    """Exact per-winding factor exp(-2 pi^2 / log(1/R)) of annulus lift deficits."""
    return math.exp(-2.0 * math.pi ** 2 / math.log(1.0 / R))


def winding_rate_deviation(deltas, rate: float) -> float:
    """Worst relative deviation of deltas[k+2] / deltas[k] from rate.

    Sorted deficits alternate between the two winding directions, so entries
    two places apart are consecutive windings on the same side.  Deficits
    evaluated as 1 - |eta| round to a constant near 1e-16 (or to 0) once they
    pass machine precision and fail this check.
    """
    d = np.asarray(deltas, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.abs(d[2:] / d[:-2] / rate - 1.0)
    return float(np.max(np.where(np.isfinite(dev), dev, math.inf)))


def c5_monotonicity(rate_tol: float = 1e-3, N_max: int = 10) -> CriterionResult:
    """Strict decrease of l^N on Annulus(0.3) for N = 1..N_max, resolved.

    Every decrement l^N - l^{N+1} = l^N (1 - |eta_{N+1}|) must be positive,
    and the deficits behind them must follow the closed-form decay: entries
    two places apart differ by the winding factor exp(-2 pi^2 / log(1/R))
    within rate_tol relative.  The true decrements reach ~3e-18 by N = 4, so
    an absolute floor cannot tell a resolved decrease from rounding; the rate
    check does, since deficits lost to rounding stop decaying.  The truncated
    product must also bracket the Green value within its certified tail.
    """
    t0 = time.perf_counter()
    R = 0.3
    dom = PlaneDomain("annulus", R=R)
    a = 0.55 * np.exp(1.1j)
    z = 0.45 * np.exp(-2.0j)
    res = lempert_N_plane(dom, a, z, N_max + 1)
    deltas = np.asarray(res.meta["deltas"])
    lN = np.exp(np.cumsum(np.log1p(-deltas)))
    decrements = [float(lN[k] * deltas[k + 1]) for k in range(N_max)]
    strict_ok = bool(np.all(deltas > 0.0))
    rate = annulus_winding_rate(R)
    rate_dev = winding_rate_deviation(deltas, rate)
    floor_ok = all(d > 0.0 for d in decrements) and rate_dev <= rate_tol
    l_N = float(lN[N_max - 1])
    g_value, g_tail = green_plane(dom, a, z, tol_tail=1e-10)
    sandwich_ok = bool(g_value <= l_N * (1 + g_tail + 1e-14)
                       and g_value >= l_N * (1 - g_tail - 1e-14))
    dt = time.perf_counter() - t0
    passed = strict_ok and floor_ok and sandwich_ok
    return CriterionResult(
        key="monotonicity", name="Prop 1/2 monotone strict decrease on Annulus(0.3)",
        passed=passed, margin=rate_tol - rate_dev, runtime_ms=1e3 * dt,
        details={"decrements": decrements, "deltas": deltas.tolist(),
                 "strict_decrease": strict_ok, "decrement_floor_ok": floor_ok,
                 "winding_rate": rate, "worst_rate_deviation": rate_dev,
                 "green_value": g_value, "green_tail": g_tail, f"l_{N_max}": l_N,
                 "sandwich_ok": sandwich_ok})


def c6_sandwich(seed: int = 13, strict_gap_tol: float = 1e-6,
                disc_eq_tol: float = 1e-9, order_tol: float = 1e-12) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    D = PlaneDomain("disc")
    worst_order = -math.inf
    worst_disc_eq = 0.0
    min_strict_gap = math.inf
    n_disc = n_strict = n_other = 0
    for i in range(50):
        kind = ("disc", "annulus", "punctured")[i % 3] if i < 48 else ("disc", "annulus")[i % 2]
        z = 0.3 * (rng.random() - 0.5 + 1j * (rng.random() - 0.5))
        A = PoleSet(points=tuple(z + 0.12 * np.exp(2j * np.pi * rng.random())
                                 * (0.5 + 0.5 * rng.random()) * np.exp(1j * k)
                                 for k in range(2)))
        if kind == "disc":
            G = PlaneDomain("disc")
            w = 0.4 * np.exp(2j * np.pi * rng.random())
            b = 0.5 * np.exp(2j * np.pi * rng.random())
        elif kind == "annulus":
            G = PlaneDomain("annulus", R=0.1)
            w = (0.3 + 0.3 * rng.random()) * np.exp(2j * np.pi * rng.random())
            b = (0.3 + 0.3 * rng.random()) * -w / abs(w)  # angular offset pi
        else:
            G = PlaneDomain("punctured")
            w = (0.2 + 0.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
            b = (0.2 + 0.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
        rep = theorem5_bounds(D, G, A, b, z, w)
        worst_order = max(worst_order, rep.lower - rep.upper)
        if kind == "disc":
            n_disc += 1
            worst_disc_eq = max(worst_disc_eq, rep.upper - rep.lower)
            if not rep.equality_flag:
                worst_disc_eq = math.inf
        elif kind == "annulus":
            n_strict += 1
            min_strict_gap = min(min_strict_gap, rep.upper - rep.lower)
            if rep.equality_flag:
                min_strict_gap = -math.inf
        else:
            n_other += 1
    dt = time.perf_counter() - t0
    passed = (worst_order <= order_tol and worst_disc_eq <= disc_eq_tol
              and min_strict_gap > strict_gap_tol)
    return CriterionResult(
        key="theorem5_sandwich", name="Theorem 5 sandwich on 50 mixed instances",
        passed=passed, margin=min_strict_gap - strict_gap_tol, runtime_ms=1e3 * dt,
        details={"worst_order_violation": worst_order, "worst_disc_gap": worst_disc_eq,
                 "min_annulus_strict_gap": min_strict_gap,
                 "instances": {"disc": n_disc, "annulus": n_strict, "other": n_other}})


_CASE7 = dict(A=(0.5, 0.5j), B=(0.5j, -0.5))
_CASE8 = dict(A=(0.5, 0.5j), B=(0.5, -0.5))


def c7_theorem7_equality(expected: float = 0.25, tol: float = 1e-6,
                         floor_slack: float = 1e-12, restarts: int = 200,
                         seed: int = 0, time_budget_s: float = 30.0) -> CriterionResult:
    t0 = time.perf_counter()
    A = PoleSet(points=_CASE7["A"])
    B = PoleSet(points=_CASE7["B"])
    settings = OptimizerSettings(restarts=restarts, seed=seed)
    cfg, value = bidisc_lempert(A, B, 0.0, 0.0, settings)
    t7 = theorem7_decide(A, B)
    dt = time.perf_counter() - t0
    passed = (abs(value - expected) <= tol and value >= expected - floor_slack
              and t7.rotation is not None and dt < time_budget_s)
    return CriterionResult(
        key="theorem7_equality", name="Theorem 7 equality case (rotation found, value 0.25)",
        passed=passed, margin=tol - abs(value - expected), runtime_ms=1e3 * dt,
        details={"value": value, "subset": list(cfg.subset), "rotation": t7.rotation,
                 "runtime_s": dt})


def c8_theorem7_failure(delta_oracle: float = GRID_ORACLE_DELTA,
                        agree_tol: float = 1e-3, restarts: int = 500,
                        seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    A = PoleSet(points=_CASE8["A"])
    B = PoleSet(points=_CASE8["B"])
    settings = OptimizerSettings(restarts=restarts, seed=seed)
    cfg, value = bidisc_lempert(A, B, 0.0, 0.0, settings)
    delta = value - 0.25
    dt = time.perf_counter() - t0
    passed = delta > 0.0 and abs(delta - delta_oracle) <= agree_tol
    return CriterionResult(
        key="theorem7_failure", name="Theorem 7 failure case margin vs grid oracle",
        passed=passed, margin=agree_tol - abs(delta - delta_oracle), runtime_ms=1e3 * dt,
        details={"value": value, "delta": delta, "delta_oracle": delta_oracle,
                 "subset": list(cfg.subset), "nodes": list(cfg.nodes),
                 "pick_margins": list(cfg.margins)})


_CASE9 = dict(R_D=0.3, R_G=0.5, z=0.6 * np.exp(0.5j), w=0.72 * np.exp(-1.1j),
              b=0.68 * np.exp(2.0j), N=4)


def c9_prop10(equal_tol: float = 1e-10, seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    D = PlaneDomain("annulus", R=_CASE9["R_D"])
    G = PlaneDomain("annulus", R=_CASE9["R_G"])
    A_N, rep = prop10_construct(D, G, _CASE9["z"], _CASE9["w"], _CASE9["b"],
                                N=_CASE9["N"], seed=seed)
    dt = time.perf_counter() - t0
    worst_eq = max(rep["equal_errors"])
    passed = worst_eq <= equal_tol and rep["condition4_margin"] > MARGIN_TOL
    return CriterionResult(
        key="prop10_construction", name="Prop 10 construction on Annulus(0.3) x Annulus(0.5)",
        passed=passed, margin=equal_tol - worst_eq, runtime_ms=1e3 * dt,
        details={"equal_errors": rep["equal_errors"],
                 "condition4_margin": rep["condition4_margin"],
                 "bounds": [rep["bounds_lower"], rep["bounds_upper"]],
                 "poles": [repr(complex(a)) for a in A_N]})


def c10_determinism(restarts: int = 500, prefix: int = 48, seed: int = 0) -> CriterionResult:
    """Criterion 8's size-2 pair level, screened (certified starts and the
    first barrier stages) at `restarts` and at `prefix` restarts: the rows of
    the smaller run are the first rows of the larger one, bit for bit."""
    t0 = time.perf_counter()
    disc = PlaneDomain("disc")
    ca = _factor_coord(disc, PoleSet(points=_CASE8["A"]), 0.0)
    cb = _factor_coord(disc, PoleSet(points=_CASE8["B"]), 0.0)
    steps = OptimizerSettings().max_iterations
    subsets, rows, differing = [], [], []
    for subset, _ in _pair_level(ca, cb, 2):
        coords, key = _subset_coords(ca, cb, subset)
        big, small = (_screen(_restart_starts(subset, coords, OptimizerSettings(restarts=r, seed=seed),
                                              key), coords, steps)[0]
                      for r in (restarts, prefix))
        subsets.append(list(subset))
        rows.append(len(small))
        if not np.array_equal(big[:len(small)], small):
            differing.append(list(subset))
    dt = time.perf_counter() - t0
    return CriterionResult(
        key="determinism", name="Criterion 8's size-2 level screened: a smaller run is a prefix",
        passed=not differing, margin=None, runtime_ms=1e3 * dt,
        details={"subsets": subsets, "restarts": restarts, "prefix": prefix,
                 "prefix_rows": rows, "first_differing": differing[0] if differing else None})


ALL_CRITERIA = (
    ("lemma4_roundtrip", c1_lemma4_roundtrip),
    ("lemma4_anchors", c2_lemma4_anchors),
    ("punctured_green", c3_punctured_green),
    ("annulus_green_oracle", c4_annulus_green),
    ("monotonicity", c5_monotonicity),
    ("theorem5_sandwich", c6_sandwich),
    ("theorem7_equality", c7_theorem7_equality),
    ("theorem7_failure", c8_theorem7_failure),
    ("prop10_construction", c9_prop10),
    ("determinism", c10_determinism),
)


def run_acceptance(only: str | None = None) -> list:
    """Run the acceptance criteria (optionally filtered by key substring)."""
    return [fn() for key, fn in ALL_CRITERIA if not only or only in key]
