"""Constructive interpolation: given targets mu_1..mu_N in the disc and any
q strictly between prod|mu_j| and 1, build f with f(0)=0, f(eta_j)=mu_j and
prod|eta_j| = q.

The solver works inside the family f_a(z) = z*Phi_a(z), a in [0,1).  Each
target mu_j has two preimages z_j(a), w_j(a) with |z_j| <= sqrt|mu_j| <= |w_j|;
the curves g(a) = prod|z_j(a)| and h(a) = prod|w_j(a)| run continuously from
the common value sqrt(p) at a=0 to p and 1 respectively, so one of them
crosses q and the crossing parameter is found by a grid scan plus bisection.
Zero targets are removed first by pulling every target back through one more
map z*Phi_alpha(z) (the nonzero preimage of 0 is alpha itself), solving the
reduced problem and composing.

`lemma4_solve_batch` solves several problems in one pass, and
`lemma4_solve` is a batch of one.  Theorem 5's certificate is built at a
ladder of values q that share one target list (`theorem5_certificates`),
so the batch scans the curve g or h once per distinct target list and
branch, since the curves do not depend on q, and every problem reuses that
scan.  The bisections then run in lockstep: each step is one root-kernel
call over the rows still live, and a row leaves as soon as |f - q| <=
min(1e-11, 1e-9 q), so that a small q is met to a relative 1e-9 too.
Every row gets the bits of its solo run: the scan is the same computation,
each row of a step applies the same elementwise operations to its own
targets and midpoint, and a row's product runs over its own targets in
order (numpy's product reduction is sequential; shorter target lists are
padded with exact 1.0 after their last target).  Zero-target problems find
their reduction alpha one by one, and their reduced problems are solved as
one inner batch.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .complex_kernel import BlaschkeDisc, solve_node_quadratic
from .disc_domain import (
    BlaschkeExpr,
    ComposeExpr,
    DiscExpr,
    MoebiusExpr,
    PairExpr,
    ScaleExpr,
)

MAX_TARGETS = 64
BISECT_TOL = 1e-11
# the stop is relative below q = BISECT_TOL / BISECT_RTOL = 0.01
BISECT_RTOL = 1e-9
BISECT_STEPS = 200
RESIDUAL_TOL = 1e-9
# bracket scan: uniform 1/1024 plus points accumulating at 1 so that the
# endpoint limits g -> p, h -> 1 always yield a bracket
BRACKET_GRID = np.unique(np.concatenate([
    np.arange(0, 1024) / 1024,
    1.0 - 2.0 ** (-np.arange(10, 49, dtype=float)),
]))
BRACKET_GRID.flags.writeable = False


@dataclass(frozen=True)
class Lemma4Problem:
    mu: tuple
    q: float

    def __post_init__(self):
        mu = tuple(complex(m) for m in self.mu)
        object.__setattr__(self, "mu", mu)
        if not 1 <= len(mu) <= MAX_TARGETS:
            raise ValueError(f"need 1..{MAX_TARGETS} targets, got {len(mu)}")
        for j, m in enumerate(mu):
            if abs(m) >= 1.0:
                raise ValueError(f"|mu[{j}]| = {abs(m)} not inside the disc")
        p = float(np.prod([abs(m) for m in mu]))
        if not p < self.q < 1.0:
            raise ValueError(f"q={self.q} outside (p, 1) with p={p}")

    @property
    def p(self) -> float:
        return float(np.prod([abs(m) for m in self.mu]))


@dataclass
class Lemma4Solution:
    a: float
    branch: str  # "small" or "large"
    eta: tuple
    f: DiscExpr
    residual: float
    product_error: float
    reduction_alpha: float | None = None


def _roots_grid(mus: np.ndarray, a: np.ndarray):
    """Moduli of both roots of z^2 - a(1+mu)z + mu = 0, one row per entry of a.

    mus is one target list shared by every row, shape (N,), or one list per
    row, shape (len(a), N).  Vectorized version of solve_node_quadratic (all
    mu nonzero here)."""
    a = np.asarray(a)[:, None]
    b = a * (1.0 + mus)
    sq = np.sqrt(b * b - 4.0 * mus)
    flip = (np.conj(b) * sq).real < 0.0
    sq = np.where(flip, -sq, sq)
    w = (b + sq) / 2.0
    w = np.where(w == 0, 1j * np.sqrt(mus * np.ones_like(a)), w)
    zs = mus / w
    az, aw = np.abs(zs), np.abs(w)
    small = np.minimum(az, aw)
    large = np.maximum(az, aw)
    return small, large


def curves_gh(mu, a: float) -> tuple:
    """g(a) = prod |z_j(a)|, h(a) = prod |w_j(a)| for nonzero targets."""
    mus = np.asarray([complex(m) for m in mu])
    if np.any(mus == 0):
        raise ValueError("zero entries are handled upstream by the reduction")
    small, large = _roots_grid(mus, np.asarray([float(a)]))
    return float(np.prod(small[0])), float(np.prod(large[0]))


def _bisect_lockstep(mus: np.ndarray, pad: np.ndarray, large: np.ndarray,
                     q: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     flo: np.ndarray) -> np.ndarray:
    """Bisect every row's bracket [lo, hi] of its curve minus q together.

    Row r bisects g (large[r] false) or h of the targets mus[r], whose
    padding entries pad[r] count as exact 1.0 factors; flo is the curve
    minus q at lo; lo, hi and flo are updated in place.  A row stops once
    |f - q| <= min(BISECT_TOL, BISECT_RTOL q).  Returns each row's crossing
    parameter, with the steps and the exit rule of the scalar loop, so each
    row's bits are its solo run's.
    """
    a_star = np.empty(len(q))
    live = np.arange(len(q))
    tol = np.minimum(BISECT_TOL, BISECT_RTOL * q)
    for _ in range(BISECT_STEPS):
        if not live.size:
            return a_star
        mid = 0.5 * (lo[live] + hi[live])
        small, big = _roots_grid(mus[live], mid)
        vals = np.where(pad[live], 1.0, np.where(large[live, None], big, small))
        fm = vals.prod(axis=1) - q[live]
        done = np.abs(fm) <= tol[live]
        a_star[live[done]] = mid[done]
        left = flo[live] * fm <= 0.0
        to_hi, to_lo = ~done & left, ~done & ~left
        hi[live[to_hi]] = mid[to_hi]
        lo[live[to_lo]] = mid[to_lo]
        flo[live[to_lo]] = fm[to_lo]
        live = live[~done]
    a_star[live] = 0.5 * (lo[live] + hi[live])
    return a_star


def _solve_nonzero(problems: list) -> list:
    """Crossing parameter and branch, (a_star, branch), of each problem with
    nonzero targets, or the RuntimeError raised when no bracket exists."""
    out = [None] * len(problems)
    scans = {}
    rows = []  # (problem index, targets, large branch, q, grid index of lo, f(lo))
    for k, pr in enumerate(problems):
        mus = np.asarray(pr.mu)
        p = float(np.prod(np.abs(mus)))
        branch = "small" if pr.q <= math.sqrt(p) else "large"
        idx = 0 if branch == "small" else 1
        key = (mus.tobytes(), idx)
        if key not in scans:
            scans[key] = _roots_grid(mus, BRACKET_GRID)[idx].prod(axis=1)
        vals = scans[key]
        diff = vals - pr.q
        sign_change = np.nonzero(diff[:-1] * diff[1:] <= 0.0)[0]
        if len(sign_change):
            j = int(sign_change[0])
            rows.append((k, mus, idx == 1, pr.q, j, float(vals[j] - pr.q)))
            continue
        j = int(np.argmin(np.abs(diff)))
        if abs(diff[j]) <= BISECT_TOL:
            out[k] = (float(BRACKET_GRID[j]), branch)
        else:
            out[k] = RuntimeError("no bracket found for the Lemma 4 curve; should not occur")
    if rows:
        ks, targets, large, qs, j, flo = zip(*rows)
        mus = np.full((len(rows), max(map(len, targets))), 0.5 + 0j)  # harmless padding
        pad = np.ones(mus.shape, dtype=bool)
        for r, t in enumerate(targets):
            mus[r, :len(t)] = t
            pad[r, :len(t)] = False
        j = np.asarray(j)
        a_star = _bisect_lockstep(mus, pad, np.asarray(large), np.asarray(qs),
                                  BRACKET_GRID[j], BRACKET_GRID[j + 1], np.asarray(flo))
        for k, a, big in zip(ks, a_star, large):
            out[k] = (float(a), "large" if big else "small")
    return out


def _eval_f(a: float, z: complex) -> complex:
    return z * (a - z) / (1.0 - a * z)


def _deriv_f(a: float, z: complex) -> complex:
    # d/dz [z Phi_a(z)] with a real: Phi_a(z) + z (a^2 - 1)/(1 - a z)^2
    return (a - z) / (1.0 - a * z) + z * (a * a - 1.0) / (1.0 - a * z) ** 2


def _nonzero_solution(problem: Lemma4Problem, a_star: float, branch: str) -> Lemma4Solution:
    mu, q = problem.mu, problem.q
    roots = [solve_node_quadratic(a_star, m) for m in mu]
    eta = tuple(r[0] if branch == "small" else r[1] for r in roots)
    f = BlaschkeExpr(BlaschkeDisc(phase=math.pi, zeros=(0.0, a_star)))
    residual = max(abs(_eval_f(a_star, e) - m) for e, m in zip(eta, mu))
    prod_err = abs(float(np.prod(np.abs(eta))) - q)
    return Lemma4Solution(a=a_star, branch=branch, eta=eta, f=f,
                          residual=residual, product_error=prod_err)


def _reduction_alpha(mu: tuple, q: float) -> tuple:
    """alpha and the reduced targets of the zero-value reduction.

    alpha starts at 1 - 2^-20 and decreases geometrically until the reduced
    product drops below q.  The zero replacements equal alpha, so the product
    is at most alpha and the search ends for every q; it gives up only once
    alpha leaves the normal floats, where it is no longer resolved."""
    alpha = 1.0 - 2.0 ** -20
    while True:
        mu_red = tuple(
            complex(alpha) if m == 0 else solve_node_quadratic(alpha, m)[0]
            for m in mu
        )
        p_red = float(np.prod(np.abs(np.asarray(mu_red))))
        if p_red < q * (1.0 - 1e-9):
            return alpha, mu_red
        alpha = 1.0 - min((1.0 - alpha) * 4.0, 0.5) if alpha > 0.5 else alpha * 0.5
        if alpha < sys.float_info.min:
            raise RuntimeError("zero-value reduction failed to find alpha")


def _composed_solution(problem: Lemma4Problem, alpha: float,
                       inner: Lemma4Solution) -> Lemma4Solution:
    mu, q = problem.mu, problem.q
    g_alpha = BlaschkeExpr(BlaschkeDisc(phase=math.pi, zeros=(0.0, alpha)))
    f = ComposeExpr(g_alpha, inner.f)
    # the derivative of g_alpha at the replaced-zero targets is O(1/(1-alpha^2)),
    # which amplifies the inner root error; two Newton steps on the composed
    # map bring the residual back to evaluation-noise level
    a_in = inner.a
    eta = list(inner.eta)
    for j, m in enumerate(mu):
        for _ in range(2):
            val = _eval_f(alpha, _eval_f(a_in, eta[j])) - m
            der = _deriv_f(alpha, _eval_f(a_in, eta[j])) * _deriv_f(a_in, eta[j])
            if abs(der) < 1e-8 or abs(val) < 1e-14:
                break
            eta[j] = eta[j] - val / der
    eta = tuple(eta)
    residual = max(abs(complex(f.eval(e)) - m) for e, m in zip(eta, mu))
    prod_err = abs(float(np.prod(np.abs(eta))) - q)
    return Lemma4Solution(a=a_in, branch=inner.branch, eta=eta, f=f,
                          residual=residual, product_error=prod_err,
                          reduction_alpha=alpha)


def lemma4_solve_batch(problems) -> list:
    """Solve several interpolation problems of the lemma at once.

    Entry k is problem k's Lemma4Solution, bit for bit what solving it alone
    gives, or the RuntimeError its solve raised.  Zero targets: every mu_j is
    replaced by a preimage under g_alpha(z) = z*Phi_alpha(z) (zeros become
    alpha, the nonzero preimage of 0; nonzero targets use their small-root
    preimage), the reduced problems are solved as one inner batch and each
    f = g_alpha o f' composed.
    """
    problems = list(problems)
    out = [None] * len(problems)
    plain = [k for k, pr in enumerate(problems) if all(m != 0 for m in pr.mu)]
    for k, res in zip(plain, _solve_nonzero([problems[k] for k in plain])):
        out[k] = res if isinstance(res, Exception) else _nonzero_solution(problems[k], *res)
    reduced = []  # (problem index, alpha, reduced problem)
    for k, pr in enumerate(problems):
        if out[k] is None:
            try:
                alpha, mu_red = _reduction_alpha(pr.mu, pr.q)
            except RuntimeError as exc:
                out[k] = exc
                continue
            reduced.append((k, alpha, Lemma4Problem(mu=mu_red, q=pr.q)))
    if reduced:
        inner = lemma4_solve_batch([red for _, _, red in reduced])
        for (k, alpha, _), sol in zip(reduced, inner):
            out[k] = sol if isinstance(sol, Exception) else _composed_solution(
                problems[k], alpha, sol)
    return out


def lemma4_solve(problem: Lemma4Problem) -> Lemma4Solution:
    """Solve the interpolation problem of the lemma for finite target lists
    (a batch of one; see `lemma4_solve_batch`)."""
    (sol,) = lemma4_solve_batch([problem])
    if isinstance(sol, Exception):
        raise sol
    return sol


def theorem5_certificates(phi: DiscExpr, lam, psi: DiscExpr, zeta: complex,
                          alphas) -> list:
    """Discs into the product domain certifying each upper bound of alphas.

    phi hits the poles at nodes lam with prod|lam| < alpha, psi hits the
    second-factor pole at zeta with |zeta| < alpha.  The interpolating f and
    nodes eta come from the lemma with q = alpha, one batch for all alphas;
    B is the normalized Blaschke product over eta with B(0) = alpha, and
        xi = (phi o f, psi((zeta/alpha) Phi_alpha(B(.)))).
    Then xi(0) = (z, w), xi(eta_j) = (a_j, b) and prod|eta_j| = alpha.
    Entry k is (xi, eta) for alphas[k], or the ValueError (alpha out of
    range) or RuntimeError (lemma failed) that its construction raised.
    """
    lam = tuple(complex(v) for v in lam)
    p = float(np.prod([abs(v) for v in lam]))
    slots = []
    for alpha in alphas:
        try:
            if not (alpha < 1.0 and alpha > max(p, abs(zeta))):
                raise ValueError(f"alpha={alpha} must lie in (max(prod|lam|, |zeta|), 1)"
                                 f" = ({max(p, abs(zeta))}, 1)")
            slots.append(Lemma4Problem(mu=lam, q=alpha))
        except ValueError as exc:
            slots.append(exc)
    sols = iter(lemma4_solve_batch([s for s in slots if isinstance(s, Lemma4Problem)]))
    out = []
    for alpha, slot in zip(alphas, slots):
        sol = next(sols) if isinstance(slot, Lemma4Problem) else slot
        if not isinstance(sol, Exception):
            try:
                sol = _certificate(phi, psi, zeta, alpha, sol)
            except ValueError as exc:
                sol = exc
        out.append(sol)
    return out


def _certificate(phi, psi, zeta, alpha, sol: Lemma4Solution) -> tuple:
    B = BlaschkeDisc.normalized_from_zeros(sol.eta)
    second = ComposeExpr(psi, ScaleExpr(zeta / alpha,
                                        ComposeExpr(MoebiusExpr(alpha), BlaschkeExpr(B))))
    return PairExpr(ComposeExpr(phi, sol.f), second), list(sol.eta)


def theorem5_certificate(phi: DiscExpr, lam, psi: DiscExpr, zeta: complex,
                         alpha: float) -> tuple:
    """Disc into the product domain certifying the upper bound alpha: the
    pair (xi, eta) of `theorem5_certificates` for the single value alpha."""
    (cert,) = theorem5_certificates(phi, lam, psi, zeta, [alpha])
    if isinstance(cert, Exception):
        raise cert
    return cert
