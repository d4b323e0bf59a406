"""Constructive interpolation: given targets mu_1..mu_N in the disc and any
q strictly between prod|mu_j| and 1, build f with f(0)=0, f(eta_j)=mu_j and
prod|eta_j| = q.

The solver works inside the family f_a(z) = z*Phi_a(z), a in [0,1).  Each
target mu_j has two preimages z_j(a), w_j(a) with |z_j| <= sqrt|mu_j| <= |w_j|;
the curves g(a) = prod|z_j(a)| and h(a) = prod|w_j(a)| run continuously from
the common value sqrt(p) at a=0 to p and 1 respectively, so one of them
crosses q.  A zero target's preimages are 0 and a itself: with a zero
target p = 0, h runs from 0 to 1 and meets every q in (0, 1), and the
zero's node is a.  The crossing is found on the log product F(a) = sum_j
log|rho_j(a)| - log q of the curve's roots rho_j: a grid scan brackets the
first sign change of F, and Newton steps, with F' from implicit
differentiation of the quadratic, run inside the bracket, which the sign of
F shrinks at every step; a step that is not finite or leaves the bracket is
replaced by the bracket midpoint (Brent, Algorithms for Minimization without
Derivatives, 1973), a geometric one inside the first scan cell [0, 1/1024]
so that crossings far below it are reached.  Log products do not underflow,
so every q > 0 that normal floats resolve is met.

`_solve_rows` solves one target list at several values q in one array
pass, one row per q, and `lemma4_solve` is a pass with one q.  Theorem 5's
certificate is built at a ladder of values q (`theorem5_ladder`).  The
curves g and h do not depend on q, so the pass scans each branch that some
row takes once, and every row reuses that scan: the first bracket of every
row is found at once, as arrays over rows x grid.  The Newton iterations
then run in lockstep: each step is one root-kernel call over the rows still
live, and a row leaves as soon as |prod|rho_j| - q| <= min(1e-11, 1e-9 q),
so that a small q is met to a relative 1e-9 too.  From the scan's bracket
this usually takes two steps.  The nodes are the roots of the step at which
a row left, the roots whose product passed that test, in the order
solve_node_quadratic gives them.  Residuals and product errors are arrays
over rows x targets.  Every row gets the bits of its solo run: the scan is
the same computation, each row of a step applies the same elementwise
operations to the targets and its own iterate, and a row's log terms are
added one target at a time in target order.  The ladder builds one
certificate, for the rung it reports.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .complex_kernel import BlaschkeDisc, equal_root_moduli
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
# inside the first scan cell the safeguard's midpoint is geometric, from the
# smallest normal float up: halvings of [0, 1/1024] reach only 2^-210 in
# BISECT_STEPS steps
FIRST_CELL = float(BRACKET_GRID[1])


def _checked_targets(mu) -> tuple:
    """mu as a tuple of complex numbers, 1..MAX_TARGETS of them, inside the disc."""
    mu = tuple(complex(m) for m in mu)
    if not 1 <= len(mu) <= MAX_TARGETS:
        raise ValueError(f"need 1..{MAX_TARGETS} targets, got {len(mu)}")
    for j, m in enumerate(mu):
        if abs(m) >= 1.0:
            raise ValueError(f"|mu[{j}]| = {abs(m)} not inside the disc")
    return mu


def _target_product(mu) -> float:
    return float(np.prod([abs(m) for m in mu]))


@dataclass(frozen=True)
class Lemma4Problem:
    mu: tuple
    q: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _checked_targets(self.mu))
        p = self.p
        if not p < self.q < 1.0:
            raise ValueError(f"q={self.q} outside (p, 1) with p={p}")

    @property
    def p(self) -> float:
        return _target_product(self.mu)


@dataclass
class Lemma4Solution:
    a: float
    branch: str  # "small" or "large"
    eta: tuple
    f: DiscExpr
    residual: float
    product_error: float


def _roots_grid(mus: np.ndarray, a: np.ndarray):
    """Both roots (small, large) of z^2 - a(1+mu)z + mu = 0, one row per entry
    of a, ordered by modulus.

    mus is the target list shared by every row, shape (N,), or anything that
    broadcasts against a[:, None].  Vectorized version of
    solve_node_quadratic; the moduli are np.abs's, which `_nodes` refines to
    the scalar order.  A zero mu has the roots 0 and a, taken as they are:
    b*b underflows below a = 1e-154."""
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
    """The nodes of branch large (one bool per row) from the root pairs
    (small, big) of `_roots_grid` at the parameters a (one per row) and
    targets mus, in the order of solve_node_quadratic.

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


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Row sums added column by column, in target order whatever the list
    length: numpy's add-reduction is pairwise from 8 entries on."""
    out = np.zeros(len(terms))
    for j in range(terms.shape[1]):
        out += terms[:, j]
    return out


def _log_curve(mus: np.ndarray, a: np.ndarray, large) -> tuple:
    """S(a) = sum_j log|rho_j(a)|, the roots rho_j and the root pairs
    (small, large), one row per entry of a.

    rho_j is the large root where `large` holds, else the small one (large
    is one bool, or one per row as shape (rows, 1))."""
    small, big = _roots_grid(mus, a)
    rho = np.where(large, big, small) if np.ndim(large) else (big if large else small)
    with np.errstate(divide="ignore"):  # log 0 of a zero mu's roots at a = 0
        return _row_sums(np.log(np.abs(rho))), rho, small, big


def _log_slope(mus: np.ndarray, a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """S'(a) at the roots rho of `_log_curve`.

    Implicit differentiation of rho^2 - a(1+mu)rho + mu = 0 gives
    d log|rho| / da = Re((1+mu) / (2 rho - a(1+mu))).  Where the two roots
    meet, it is infinite or nan."""
    one_mu = 1.0 + mus
    with np.errstate(divide="ignore", invalid="ignore"):
        return _row_sums((one_mu / (2.0 * rho - a[:, None] * one_mu)).real)


def _newton_step(x, F, dF, lo, hi):
    """x - F/F', or the midpoint of [lo, hi] where that step is not finite or
    leaves the open bracket; inside the first scan cell the midpoint is
    geometric, with lo taken as at least the smallest normal float."""
    with np.errstate(divide="ignore", invalid="ignore"):
        xn = x - F / dF
    inside = (lo < xn) & (xn < hi)
    if inside.all():
        return xn
    mid = np.where(hi <= FIRST_CELL,
                   np.sqrt(np.maximum(lo, sys.float_info.min)) * np.sqrt(hi), 0.5 * (lo + hi))
    return np.where(inside, xn, mid)


def _crossing_lockstep(mus: np.ndarray, large: np.ndarray, log_q: np.ndarray,
                       rtol: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                       sign_lo: np.ndarray, x: np.ndarray) -> tuple:
    """Solve F(a) = S(a) - log q = 0 for every row together, by Newton steps
    safeguarded by each row's bracket [lo, hi].

    Row r follows the small or large root (large[r]) of the targets mus;
    sign_lo is the sign of F at lo and x the first iterate.  A row stops
    once |expm1(F)| <= rtol, that is |prod|rho_j| - q| <= rtol q.  Returns
    the crossings and the nodes, the roots of the stopping step in the order
    of solve_node_quadratic; a row that has not stopped after BISECT_STEPS
    steps gets nan.  Each step is one root-kernel call over all rows, until
    every row has stopped, and applies the same elementwise operations to
    every row, so each row's bits are its solo run's; a stopped row keeps
    its iterate."""
    a_star = np.full(len(x), np.nan)
    eta = np.full((len(x), len(mus)), np.nan, dtype=complex)
    live, large_rows = np.ones(len(x), dtype=bool), large[:, None]
    for _ in range(BISECT_STEPS):
        F, rho, small, big = _log_curve(mus, x, large_rows)
        F -= log_q
        done = live & (np.abs(np.expm1(F)) <= rtol)
        if done.any():
            a_star[done] = x[done]
            eta[done] = _nodes(small[done], big[done], large[done], x[done], mus)
            live &= ~done
            if not live.any():
                break
        below = np.sign(F) * sign_lo <= 0.0  # the crossing lies in [lo, x]
        lo, hi = np.where(below, lo, x), np.where(below, x, hi)
        x = np.where(live, _newton_step(x, F, _log_slope(mus, x, rho), lo, hi), x)
    return a_star, eta


def _crossings(mus: np.ndarray, q: np.ndarray) -> tuple:
    """Crossing parameter, branch and nodes of the targets mus at every q.

    The curve is scanned on BRACKET_GRID once per branch that some q takes.
    Returns a (nan where the row failed), large (the branch), the nodes
    (rows x targets) and, per row, None or the RuntimeError raised when no
    bracket exists or the iteration does not meet q."""
    large = q > math.sqrt(float(np.prod(np.abs(mus))))
    scans = {branch: _log_curve(mus, BRACKET_GRID, branch) for branch in set(large.tolist())}
    log_q = np.array([math.log(v) for v in q])
    with np.errstate(over="ignore"):  # a subnormal q
        rtol = np.minimum(BISECT_TOL / q, BISECT_RTOL)
    # the first sign change of F on the grid, for every row at once; signs,
    # not the product F[:-1] * F[1:], which underflows to 0.0
    F = np.stack([scans[branch][0] for branch in large.tolist()]) - log_q[:, None]
    sign = np.sign(F)
    cross = sign[:, :-1] * sign[:, 1:] <= 0.0
    bracketed = cross.any(axis=1)
    a = np.full(len(q), np.nan)
    eta = np.full((len(q), len(mus)), np.nan, dtype=complex)
    errors = [None] * len(q)
    for r in np.nonzero(~bracketed)[0]:
        k = int(np.argmin(np.abs(F[r])))
        if abs(math.expm1(F[r, k])) <= rtol[r]:
            _, _, small, big = scans[bool(large[r])]
            a[r] = BRACKET_GRID[k]
            eta[r] = _nodes(small[k:k + 1], big[k:k + 1], large[r:r + 1],
                            BRACKET_GRID[k:k + 1], mus)[0]
        else:
            errors[r] = RuntimeError("no bracket found for the Lemma 4 curve; should not occur")
    rows = np.nonzero(bracketed)[0]
    if rows.size:
        j = cross[rows].argmax(axis=1)
        Fj, Fj1 = F[rows, j], F[rows, j + 1]
        e = np.where(np.abs(Fj) <= np.abs(Fj1), j, j + 1)  # Newton from the nearer end
        rho_e = np.stack([scans[bool(large[r])][1][i] for r, i in zip(rows, e)])  # the scan's roots at e
        dS = _log_slope(mus, BRACKET_GRID[e], rho_e)
        lo, hi = BRACKET_GRID[j], BRACKET_GRID[j + 1]
        x0 = _newton_step(BRACKET_GRID[e], np.where(e == j, Fj, Fj1), dS, lo, hi)
        a[rows], eta[rows] = _crossing_lockstep(mus, large[rows], log_q[rows],
                                                rtol[rows], lo, hi, np.sign(Fj), x0)
        for r in rows[np.isnan(a[rows])]:
            errors[r] = RuntimeError(f"the Lemma 4 iteration did not meet q in {BISECT_STEPS} steps")
    return a, large, eta, errors


def _eval_f(a, z):
    return z * (a - z) / (1.0 - a * z)


@dataclass
class Lemma4Rows:
    """Solutions of one target list at several q as arrays, one row per q;
    errors[k] is None or the exception of row k."""
    a: np.ndarray
    large: np.ndarray
    eta: np.ndarray
    residual: np.ndarray
    product_error: np.ndarray
    errors: list

    def solution(self, k: int):
        """Row k's Lemma4Solution, or its exception."""
        if self.errors[k] is not None:
            return self.errors[k]
        a = float(self.a[k])
        return Lemma4Solution(a=a, branch="large" if self.large[k] else "small",
                              eta=tuple(complex(e) for e in self.eta[k]),
                              f=BlaschkeExpr(BlaschkeDisc(phase=math.pi, zeros=(0.0, a))),
                              residual=float(self.residual[k]),
                              product_error=float(self.product_error[k]))


def _solve_rows(mu: tuple, q, errors=None) -> Lemma4Rows:
    """Solve the problems (mu, q[k]) in one array pass, one row per q; rows
    whose errors[k] is already set are skipped and keep it.

    A solution whose residual max_j |f(eta_j) - mu_j| exceeds RESIDUAL_TOL
    is refused with a RuntimeError: near q = 1 the nodes crowd the circle,
    where the root quadratic loses digits."""
    q = np.asarray(q, dtype=float)
    errors = [None] * len(q) if errors is None else list(errors)
    mus = np.asarray(mu)
    a = np.full(len(q), np.nan)
    large = np.zeros(len(q), dtype=bool)
    eta = np.full((len(q), len(mu)), np.nan, dtype=complex)
    live = np.array([k for k, e in enumerate(errors) if e is None], dtype=np.intp)
    if live.size:
        a[live], large[live], eta[live], errs = _crossings(mus, q[live])
        for k, e in zip(live, errs):
            errors[k] = e
    ok = np.array([e is None for e in errors], dtype=bool)
    with np.errstate(invalid="ignore"):  # rows that failed hold nan
        residual = np.abs(_eval_f(a[:, None], eta) - mus).max(axis=1)
    for k in np.nonzero(ok & ~(residual <= RESIDUAL_TOL))[0]:
        errors[k] = RuntimeError(f"Lemma 4 residual {residual[k]:.3g} exceeds {RESIDUAL_TOL}")
    return Lemma4Rows(a=a, large=large, eta=eta, residual=residual,
                      product_error=np.abs(np.abs(eta).prod(axis=1) - q), errors=errors)


def lemma4_solve(problem: Lemma4Problem) -> Lemma4Solution:
    """Solve the interpolation problem of the lemma for a finite target list
    (one row of `_solve_rows`), or raise the RuntimeError of its failure."""
    sol = _solve_rows(problem.mu, [problem.q]).solution(0)
    if isinstance(sol, Exception):
        raise sol
    return sol


def _ladder_rows(lam, zeta: complex, alphas) -> Lemma4Rows:
    """The lemma's solutions for targets lam at q = alpha, one row per alpha.

    A rung fails with a ValueError where alpha lies outside (max(prod|lam|,
    |zeta|), 1) or a node is not inside the disc, where the certificate's
    Blaschke product is undefined, and with the lemma's RuntimeError.
    Invalid targets raise their ValueError for the whole ladder."""
    lam = _checked_targets(lam)
    lo = max(_target_product(lam), abs(zeta))
    errors = [None if lo < alpha < 1.0 else
              ValueError(f"alpha={alpha} must lie in (max(prod|lam|, |zeta|), 1) = ({lo}, 1)")
              for alpha in alphas]
    rows = _solve_rows(lam, alphas, errors)
    for k in np.nonzero(np.abs(rows.eta).max(axis=1) >= 1.0)[0]:
        if rows.errors[k] is None:
            rows.errors[k] = ValueError(f"a node of {rows.eta[k].tolist()} is not inside the disc")
    return rows


def _certificate(phi, psi, zeta, alpha, sol: Lemma4Solution) -> tuple:
    B = BlaschkeDisc.normalized_from_zeros(sol.eta)
    second = ComposeExpr(psi, ScaleExpr(zeta / alpha,
                                        ComposeExpr(MoebiusExpr(alpha), BlaschkeExpr(B))))
    return PairExpr(ComposeExpr(phi, sol.f), second), list(sol.eta)


def theorem5_ladder(phi: DiscExpr, lam, psi: DiscExpr, zeta: complex, alphas) -> tuple:
    """Theorem 5's ladder of upper bounds alphas, tried in order: the number
    of rungs certified before the first that fails, and for the last of them
    the disc into the product domain that certifies it with its nodes,
    (xi, eta), or None when there is none.

    phi hits the poles at nodes lam with prod|lam| < alpha, psi hits the
    second-factor pole at zeta with |zeta| < alpha.  The interpolating f and
    nodes eta come from the lemma with q = alpha; B is the normalized
    Blaschke product over eta with B(0) = alpha, and
        xi = (phi o f, psi((zeta/alpha) Phi_alpha(B(.)))).
    Then xi(0) = (z, w), xi(eta_j) = (a_j, b) and prod|eta_j| = alpha.  A
    rung fails where alpha lies outside (max(prod|lam|, |zeta|), 1) or the
    lemma fails.  All rungs are solved in one pass of `_solve_rows`, and one
    certificate is built."""
    try:
        rows = _ladder_rows(lam, zeta, alphas)
    except ValueError:
        return 0, None
    certified = next((k for k, e in enumerate(rows.errors) if e is not None), len(alphas))
    if not certified:
        return 0, None
    k = certified - 1
    return certified, _certificate(phi, psi, zeta, alphas[k], rows.solution(k))
