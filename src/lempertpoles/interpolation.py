"""Constructive interpolation: given targets mu_1..mu_N in the disc and any
q strictly between prod|mu_j| and 1, build f with f(0)=0, f(eta_j)=mu_j and
prod|eta_j| = q.

The solver works inside the family f_a(z) = z*Phi_a(z), a in [0,1).  Each
target mu_j has two preimages z_j(a), w_j(a) with |z_j| <= sqrt|mu_j| <= |w_j|;
the curves g(a) = prod|z_j(a)| and h(a) = prod|w_j(a)| run continuously from
the common value sqrt(p) at a=0 to p and 1 respectively, so one of them
crosses q.  The crossing is found on the log product F(a) = sum_j
log|rho_j(a)| - log q of the curve's roots rho_j: a grid scan brackets the
first sign change of F, and Newton steps, with F' from implicit
differentiation of the quadratic, run inside the bracket, which the sign of
F shrinks at every step; a step that is not finite or leaves the bracket is
replaced by the bracket midpoint (Brent, Algorithms for Minimization without
Derivatives, 1973).  Log products do not underflow, so every q > 0 that
normal floats resolve is met.  Zero targets are removed first by pulling
every target back through one more map z*Phi_alpha(z) (the nonzero preimage
of 0 is alpha itself), solving the reduced problem and composing.

`lemma4_solve_batch` solves several problems in one pass, and
`lemma4_solve` is a batch of one.  Theorem 5's certificate is built at a
ladder of values q that share one target list (`theorem5_certificates`),
so the batch scans the curve g or h once per distinct target list and
branch, since the curves do not depend on q, and every problem reuses that
scan.  The Newton iterations then run in lockstep: each step is one
root-kernel call over the rows still live, and a row leaves as soon as
|prod|rho_j| - q| <= min(1e-11, 1e-9 q), so that a small q is met to a
relative 1e-9 too.  From the scan's bracket this usually takes two steps.
Every row gets the bits of its solo run: the scan is the same computation,
each row of a step applies the same elementwise operations to its own
targets and iterate, and a row's log terms are added one target at a time
in target order (numpy's add-reduction is pairwise from 8 entries on);
shorter target lists are padded with terms that add exactly 0.0.
Zero-target problems find their reduction alpha one by one, and their
reduced problems are solved as one inner batch.
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
# stop of the crossing iteration, and its cap on steps
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
    """Both roots (small, large) of z^2 - a(1+mu)z + mu = 0, one row per entry
    of a, ordered by modulus.

    mus is one target list shared by every row, shape (N,), or one list per
    row, shape (len(a), N).  Vectorized version of solve_node_quadratic (all
    mu nonzero here)."""
    a = np.asarray(a)[:, None]
    b = a * (1.0 + mus)
    sq = np.sqrt(b * b - 4.0 * mus)
    flip = (np.conj(b) * sq).real < 0.0
    sq = np.where(flip, -sq, sq)
    w = (b + sq) / 2.0
    hit = w == 0  # a == 0 and the sqrt branch hit zero; roots are +-i sqrt(mu)
    if hit.any():
        w = np.where(hit, 1j * np.sqrt(mus * np.ones_like(a)), w)
    zs = mus / w
    swap = np.abs(zs) > np.abs(w)
    return np.where(swap, w, zs), np.where(swap, zs, w)


def curves_gh(mu, a: float) -> tuple:
    """g(a) = prod |z_j(a)|, h(a) = prod |w_j(a)| for nonzero targets."""
    mus = np.asarray([complex(m) for m in mu])
    if np.any(mus == 0):
        raise ValueError("zero entries are handled upstream by the reduction")
    small, large = _roots_grid(mus, np.asarray([float(a)]))
    return float(np.prod(np.abs(small[0]))), float(np.prod(np.abs(large[0])))


def _log_curve(mus: np.ndarray, a: np.ndarray, large, pad=False) -> tuple:
    """S(a) = sum_j log|rho_j(a)| and S'(a), one row per entry of a.

    rho_j is the large root where `large` holds, else the small one (large
    broadcasts against the rows: one bool, or one per row as shape (rows, 1)).
    Implicit differentiation of rho^2 - a(1+mu)rho + mu = 0 gives
    d log|rho| / da = Re((1+mu) / (2 rho - a(1+mu))).  Entries where pad
    holds add exactly 0.0, and the terms are added column by column in
    target order, so a padded row gets the bits of its unpadded run.  Where
    the two roots meet, the derivative is infinite or nan."""
    small, big = _roots_grid(mus, a)
    rho = np.where(large, big, small)
    one_mu = 1.0 + mus
    logs = np.where(pad, 0.0, np.log(np.abs(rho)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ders = np.where(pad, 0.0, (one_mu / (2.0 * rho - a[:, None] * one_mu)).real)
    S, dS = np.zeros(len(a)), np.zeros(len(a))
    for j in range(logs.shape[1]):
        S += logs[:, j]
        dS += ders[:, j]
    return S, dS


def _newton_step(x, F, dF, lo, hi):
    """x - F/F', or the midpoint of [lo, hi] where that step is not finite or
    leaves the open bracket."""
    with np.errstate(divide="ignore", invalid="ignore"):
        xn = x - F / dF
    return np.where((lo < xn) & (xn < hi), xn, 0.5 * (lo + hi))


def _crossing_lockstep(mus: np.ndarray, pad: np.ndarray, large: np.ndarray,
                       log_q: np.ndarray, rtol: np.ndarray, lo: np.ndarray,
                       hi: np.ndarray, sign_lo: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solve F(a) = S(a) - log q = 0 for every row together, by Newton steps
    safeguarded by each row's bracket [lo, hi].

    Row r follows the small or large root (large[r]) of the targets mus[r],
    whose padding entries pad[r] add nothing; sign_lo is the sign of F at lo
    and x the first iterate.  A row stops once |expm1(F)| <= rtol, that is
    |prod|rho_j| - q| <= rtol q; a row that has not stopped after
    BISECT_STEPS steps gets nan.  lo, hi and x are updated in place.  Each
    step is one root-kernel call over the rows still live, and applies the
    same elementwise operations to every row, so each row's bits are its
    solo run's."""
    a_star = np.empty(len(x))
    live = np.arange(len(x))
    for _ in range(BISECT_STEPS):
        if not live.size:
            return a_star
        xl = x[live]
        F, dF = _log_curve(mus[live], xl, large[live, None], pad[live])
        F -= log_q[live]
        done = np.abs(np.expm1(F)) <= rtol[live]
        a_star[live[done]] = xl[done]
        below = np.sign(F) * sign_lo[live] <= 0.0  # the crossing lies in [lo, x]
        hi[live[below]] = xl[below]
        lo[live[~below]] = xl[~below]
        step = _newton_step(xl, F, dF, lo[live], hi[live])
        live = live[~done]
        x[live] = step[~done]
    a_star[live] = np.nan
    return a_star


def _solve_nonzero(problems: list) -> list:
    """Crossing parameter and branch, (a_star, branch), of each problem with
    nonzero targets, or the RuntimeError raised when no bracket exists or the
    iteration does not meet q."""
    out = [None] * len(problems)
    scans = {}
    # (problem index, targets, large branch, log q, rtol, grid index of lo,
    #  first iterate, sign of F at lo)
    rows = []
    for k, pr in enumerate(problems):
        mus = np.asarray(pr.mu)
        p = float(np.prod(np.abs(mus)))
        large = pr.q > math.sqrt(p)
        key = (mus.tobytes(), large)
        if key not in scans:
            scans[key] = _log_curve(mus, BRACKET_GRID, large)
        S, dS = scans[key]
        log_q = math.log(pr.q)
        F = S - log_q
        rtol = min(BISECT_TOL / pr.q, BISECT_RTOL)
        # signs, not the product F[:-1] * F[1:], which underflows to 0.0
        cross = np.nonzero(np.sign(F[:-1]) * np.sign(F[1:]) <= 0.0)[0]
        if len(cross):
            j = int(cross[0])
            e = j if abs(F[j]) <= abs(F[j + 1]) else j + 1  # Newton from the nearer end
            x0 = _newton_step(BRACKET_GRID[e], F[e], dS[e], BRACKET_GRID[j], BRACKET_GRID[j + 1])
            rows.append((k, mus, large, log_q, rtol, j, float(x0), float(np.sign(F[j]))))
            continue
        j = int(np.argmin(np.abs(F)))
        if abs(math.expm1(F[j])) <= rtol:
            out[k] = (float(BRACKET_GRID[j]), "large" if large else "small")
        else:
            out[k] = RuntimeError("no bracket found for the Lemma 4 curve; should not occur")
    if rows:
        ks, targets, large, log_q, rtol, j, x0, sign_lo = zip(*rows)
        mus = np.full((len(rows), max(map(len, targets))), 0.5 + 0j)  # harmless padding
        pad = np.ones(mus.shape, dtype=bool)
        for r, t in enumerate(targets):
            mus[r, :len(t)] = t
            pad[r, :len(t)] = False
        j = np.asarray(j)
        a_star = _crossing_lockstep(mus, pad, np.asarray(large), np.asarray(log_q),
                                    np.asarray(rtol), BRACKET_GRID[j], BRACKET_GRID[j + 1],
                                    np.asarray(sign_lo), np.asarray(x0))
        for k, a, big in zip(ks, a_star, large):
            out[k] = (RuntimeError(f"the Lemma 4 iteration did not meet q in {BISECT_STEPS} steps")
                      if np.isnan(a) else (float(a), "large" if big else "small"))
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
    gives, or the RuntimeError its solve raised.  A solution whose residual
    max_j |f(eta_j) - mu_j| exceeds RESIDUAL_TOL is refused with one: near
    q = 1 the nodes crowd the circle, where the root quadratic loses
    digits.  Zero targets: every mu_j is
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
    # the reduced targets are nonzero; their residual is gated only after
    # the composition, whose Newton steps refine it
    inner = _solve_nonzero([red for _, _, red in reduced])
    for (k, alpha, red), res in zip(reduced, inner):
        out[k] = res if isinstance(res, Exception) else _composed_solution(
            problems[k], alpha, _nonzero_solution(red, *res))
    for k, sol in enumerate(out):
        if isinstance(sol, Lemma4Solution) and not sol.residual <= RESIDUAL_TOL:
            out[k] = RuntimeError(f"Lemma 4 residual {sol.residual:.3g} exceeds {RESIDUAL_TOL}")
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
