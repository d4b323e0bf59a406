"""Upper bounds for product-domain Lempert functions with product pole sets.

A configuration assigns one disc node per selected pole pair; it certifies an
upper bound when, for each coordinate, the interpolation problem
(0 -> base, node -> pole data) admits an analytic self-map of the disc.  Disc
coordinates use the Pick criterion directly; plane-domain coordinates ask the
node to be sent to some lift of the pole through the normalized cover, which
again is a Pick problem once the lift assignment is chosen (a sufficient
family of maps cover o h with h(0) = 0).

The search over node space runs random-direction compass descent with an
eigenvalue penalty max(0, -lambda_min) from many seeded restarts.  Each
penalty call stacks the Pick matrices H of all its rows and coordinates into
one division, screens them with `cholesky_succeeds` on H - c I,
c = 1e-10 max_i H_ii, and gives one eigvalsh call only the matrices whose
factorization fails.  A Cholesky that succeeds has backward error below about
n gamma_{n+1} max_i H_ii ~ 1e-14 max_i H_ii for n <= 9 (Higham, Thm 10.3), and
eigvalsh errs by at most p(n) u ||H||_2 <~ 1e-13 max_i H_ii, so eigvalsh would
have returned lambda_min >= 0 there: the penalty has the same bits as with
eigvalsh alone.

Loser proof.  A compass iteration moves restart r to its first probe of least
value if that value is below thr_r = f_r - 1e-15.  Let base be a probe's value
with pen = 0: the bits of its value when all its matrices pass the screen,
and otherwise a floating lower bound of that value, every operation being
monotone in pen.  A probe with base >= thr_r gets inf before its Pick
matrices are formed.  Let cut_r = min(thr_r, base of the probes of r that
pass the screen).  A probe that fails the screen gets inf instead of an
eigvalsh when base > cut_r, or when, with t = (cut_r - base) / w, the
Cholesky of H + (t (1 + 1e-6) + 2e-10 max_i H_ii) I fails for one of its
matrices.  The factorization runs to completion on a Hermitian matrix whose
smallest eigenvalue exceeds n gamma_{n+1} ~ 1e-14 times its largest diagonal
entry (Higham, Thm 10.7), so the failure gives lambda_min(H) <=
-t (1 + 1e-6) - 2e-10 max_i H_ii + 1e-14 (max_i H_ii + t (1 + 1e-6)).  With
||H||_2 <= n max_i H_ii + (n - 1) |lambda_min|, eigvalsh errs by at most about
1e-13 (max_i H_ii + |lambda_min|), so its violation is >= t (1 + 1e-6 - 1e-12)
+ 1.9e-10 max_i H_ii, where max_i H_ii >= H_00 = 1.  The probe's value thus
exceeds cut_r by w 1.9e-10 before rounding, and the proof is used only where
that margin dominates the rounding of a value near cut_r
(w 2e-10 > 2^-46 |cut_r|).  So no dropped probe could have been accepted, or
been the least of its restart, and every decision, trajectory and reported
value has the same bits as with eigvalsh of every matrix.

Subsets.  The subsets of pole pairs are searched size by size, and a subset
whose closed-form lower bound sits within LB_SKIP_MARGIN of the best value so
far is skipped.  Per size, the first subset not skipped runs alone; the others
still not skipped then run their compass in one lockstep batch, the rows of a
penalty call spanning several subsets (plane coordinates choose their lifts on
each subset's own rows).  Their results are finished in subset order, the
skip rule checked again before each, so the outcome is that of searching them
one by one, and a subset pruned by the first one never enters the compass.
Restarts are then ranked feasibility-first: only those whose worst Pick
violation is at most NEAR_FEASIBLE_TOL are candidates, ordered by node-moduli
product.  The best are polished with SLSQP, which gets exact first
derivatives (the node-product gradient, and Magnus's eigenvalue derivative
v^H (dH) v from one batched eigh per point), then scaled outward until both
Pick problems pass the certified test `pick_margin`.  Each restart draws its
start and its probe directions from its own RNG stream, and every decision of
the descent reads only the restart's own probes, so results are bit-identical
for any batch composition, and the restarts of a smaller run are a prefix of
those of a larger one.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .complex_kernel import (
    cholesky_succeeds,
    moebius,
    moebius_error,
    pick_margin,
    solve_node_quadratic,
)
from .covering_domains import PlaneDomain, build_cover
from .disc_domain import PoleSet

NODE_COLLISION_TOL = 1e-8
# restarts whose worst Pick violation exceeds this are never polished or repaired
NEAR_FEASIBLE_TOL = 1e-6
MAX_SUBSET_SIZE = 8
# Cholesky screen margin relative to max_i H_ii, far above the rounding of
# both the factorization and eigvalsh (see the module docstring)
CHOLESKY_SCREEN_MARGIN = 1e-10
# loser proof: relative slack on the violation it proves, and margin
# relative to max_i H_ii (see the module docstring)
LOSER_SLACK = 1e-6
LOSER_MARGIN = 2e-10
# compass iterations whose probe directions a restart draws in one call
DIRECTION_BLOCK = 8
# probe rows per penalty call, which bounds its temporaries however many
# subsets and restarts run in lockstep
PENALTY_ROWS = 4096
MAX_BLASCHKE_DEGREE = 6

logger = logging.getLogger(__name__)
# subsets whose closed-form lower bound sits within this margin of the best
# value found so far cannot improve it meaningfully and are skipped
LB_SKIP_MARGIN = 1e-9


@dataclass(frozen=True)
class OptimizerSettings:
    restarts: int = 200
    seed: int = 0
    max_iterations: int = 2000
    penalty_weight: float = 1e4
    penalty_ramp_every: int = 500
    penalty_ramp_factor: float = 10.0
    tolerance: float = 1e-9
    step_init: float = 0.12
    step_decay: float = 0.6
    polish_top: int = 2

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class NodeConfig:
    """Certificate of an upper bound: pole pairs, nodes, node-moduli product,
    and per coordinate the Pick targets and certified margin (`pick_margin`;
    none for a single pair, exact by the Schwarz lemma)."""

    subset: tuple
    nodes: tuple
    value: float
    coord_targets: tuple = field(default_factory=tuple)
    margins: tuple = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# coordinate problems
# ---------------------------------------------------------------------------


def _one_minus_outer(X: np.ndarray) -> np.ndarray:
    """1 - X_i conj(X_j) per row of X (B, m), with X_0 = 0 prepended: the Pick
    numerators of target rows, or the Pick denominators of node rows."""
    X = np.concatenate([np.zeros((X.shape[0], 1), dtype=complex), X], axis=1)
    out = X[:, :, None] * np.conj(X)[:, None, :]
    return np.subtract(1.0, out, out=out)


@dataclass
class _Coord:
    """One coordinate of the product: fixed disc targets or lift candidates."""

    kind: str                      # "disc" | "plane"
    targets: np.ndarray | None     # (m,) for disc coordinates
    lift_candidates: list | None   # per node: (n_lifts,) complex arrays
    target_err: np.ndarray | float = 0.0  # Moebius rounding; lifts are exact data

    def __post_init__(self):
        # fixed targets give node-independent Pick numerators
        if self.kind == "disc":
            self._num = _one_minus_outer(self.targets[None, :])

    def batch_targets(self, lam: np.ndarray) -> np.ndarray:
        """Targets per configuration; greedy nearest-lift for plane kind."""
        B, m = lam.shape
        if self.kind == "disc":
            return np.broadcast_to(self.targets, (B, m))
        out = np.empty((B, m), dtype=complex)
        for j in range(m):
            nu = self.lift_candidates[j]
            d = np.abs((lam[:, j, None] - nu[None, :])
                       / (1.0 - np.conj(lam[:, j, None]) * nu[None, :]))
            # lifts larger than the node cannot be hit by a map fixing 0
            bad = np.abs(nu)[None, :] > np.abs(lam[:, j, None]) + 1e-12
            d = np.where(bad, d + 10.0, d)
            out[:, j] = nu[np.argmin(d, axis=1)]
        return out

    def pick_num(self, lam: np.ndarray) -> np.ndarray:
        """Pick numerators, (1, m+1, m+1) for disc kind, else one per row."""
        if self.kind == "disc":
            return self._num
        return _one_minus_outer(self.batch_targets(lam))


def _diagonal(A: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a contiguous stack A (B, n, n)."""
    n = A.shape[-1]
    return A.reshape(len(A), n * n)[:, :: n + 1]


def _shifted_cholesky_succeeds(A: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """cholesky_succeeds of A_b + shift_b I for each matrix of A (B, n, n).
    A is overwritten."""
    _diagonal(A).real += shift[:, None]
    return cholesky_succeeds(A)


def _screen_fails(H: np.ndarray) -> np.ndarray:
    """Whether the floating Cholesky of H - c I fails, c =
    CHOLESKY_SCREEN_MARGIN * max_i H_ii, for each matrix of H (B, n, n); where
    it succeeds, eigvalsh returns lambda_min(H) >= 0 (see the module
    docstring)."""
    c = CHOLESKY_SCREEN_MARGIN * _diagonal(H).real.max(axis=1)
    return ~_shifted_cholesky_succeeds(H.copy(), -c)


def _pick_violation(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """max(0, -lambda_min(H)) per Pick matrix H = num / den of a batch, bit for
    bit: matrices that pass the screen get 0, the rest go to eigvalsh.
    num is (1, n, n) or (B, n, n), den (B, n, n)."""
    H = num / den
    bad = _screen_fails(H)
    viol = np.zeros(len(H))
    if bad.any():
        viol[bad] = np.maximum(0.0, -np.linalg.eigvalsh(H[bad])[:, 0])
    return viol


def _proves_violation(A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Whether the floating Cholesky of A + (t (1 + LOSER_SLACK) +
    LOSER_MARGIN max_i A_ii) I fails for each matrix of A (B, n, n), which
    proves that eigvalsh returns lambda_min(A) <= -t (see the module
    docstring).  A is overwritten."""
    return ~_shifted_cholesky_succeeds(
        A, t * (1.0 + LOSER_SLACK) + LOSER_MARGIN * _diagonal(A).real.max(axis=1))


@dataclass
class _Rows:
    """The rows of a batch of same-size subsets, subset after subset:
    coords[s] are the coordinates of rows bounds[s]:bounds[s + 1]."""

    coords: list
    bounds: np.ndarray

    def slices(self):
        return zip(self.coords, self.bounds[:-1], self.bounds[1:])

    def take(self, rows: np.ndarray, repeat: int = 1) -> "_Rows":
        """The rows of the sorted row indices `rows`, each repeated `repeat` times."""
        return _Rows(self.coords, np.searchsorted(rows, self.bounds) * repeat)


def _pick_matrices(lam: np.ndarray, rows: _Rows) -> np.ndarray:
    """The Pick matrices of every row of lam (N, m) in every coordinate of its
    subset, coordinate after coordinate, (ncoord * N, m + 1, m + 1), from one
    division; each subset's numerators are broadcast over its rows."""
    N, n = lam.shape[0], lam.shape[1] + 1
    den = _one_minus_outer(lam)
    H = np.empty((len(rows.coords[0]), N, n, n), dtype=complex)
    for coords, lo, hi in rows.slices():
        if lo < hi:
            for c, coord in enumerate(coords):
                np.divide(coord.pick_num(lam[lo:hi]), den[lo:hi], out=H[c, lo:hi])
    return H.reshape(-1, n, n)


def _penalized(lam: np.ndarray, rows: _Rows, weight: np.ndarray, thr=None) -> np.ndarray:
    """obj + weight (pen + coll) + 1e7 outside per row of lam (N, m), pen the
    sum over the coordinates of max(0, -lambda_min) of the Pick matrices.

    All Pick matrices of the call go through one division, one Cholesky
    screen and one eigvalsh.  With thr, one threshold f_r - 1e-15 per restart
    whose probes are the rows (equally many each), a probe proved unable to
    be accepted gets inf (see the module docstring); every other row has the
    bits of the full penalty.
    """
    N, m = lam.shape
    am = np.abs(lam)
    obj = np.prod(am, axis=1)
    coll = np.zeros(N)
    for i in range(m):
        for j in range(i + 1, m):
            coll += np.maximum(0.0, NODE_COLLISION_TOL - np.abs(lam[:, i] - lam[:, j]))
    outside = np.maximum(0.0, np.max(am, axis=1) - 0.9999995)
    pen = np.zeros(N)
    base = obj + weight * (pen + coll) + 1e7 * outside
    if thr is None:
        live = np.arange(N)
    else:
        # a probe whose base reaches the threshold cannot be accepted
        probes = N // len(thr)
        live = np.nonzero(base < np.repeat(thr, probes))[0]

    nl, ncoord = len(live), len(rows.coords[0])
    H = _pick_matrices(lam[live], rows.take(live))
    bad = _screen_fails(H)
    failed = bad.reshape(ncoord, nl).any(axis=0)
    lost = np.zeros(nl, dtype=bool)
    if thr is not None and failed.any():
        # cut: the threshold, or the least value of a probe of the restart
        # whose Pick matrices all pass the screen, which is its base to the bit
        b, w = base[live], weight[live]
        passed = np.full(N, np.inf)
        passed[live[~failed]] = b[~failed]
        cut = np.minimum(thr, passed.reshape(len(thr), probes).min(axis=1))[live // probes]
        lost = failed & (b > cut)
        # the proof's margin w LOSER_MARGIN max_i H_ii, max_i H_ii >= H_00 = 1,
        # must dominate the rounding of a value near cut
        sure = w * LOSER_MARGIN > 2.0 ** -46 * np.abs(cut)
        test = np.nonzero(bad & np.tile(failed & ~lost & sure, ncoord))[0]
        r = test % nl
        lost[r[_proves_violation(H[test], (cut[r] - b[r]) / w[r])]] = True
    eig = bad & ~np.tile(lost, ncoord)
    viol = np.zeros(ncoord * nl)
    if eig.any():
        viol[eig] = np.maximum(0.0, -np.linalg.eigvalsh(H[eig])[:, 0])
    pen_live = np.zeros(nl)
    for c in range(ncoord):
        pen_live += viol[c * nl:(c + 1) * nl]
    pen[live] = pen_live
    value = obj + weight * (pen + coll) + 1e7 * outside
    if thr is not None:
        kept = np.zeros(N, dtype=bool)
        kept[live[~lost]] = True
        value[~kept] = np.inf
    return value


def _margins(nodes: np.ndarray, coords: list) -> np.ndarray:
    """Certified Pick margin per coordinate (0.0 where not proven), with the
    base pair 0 -> 0 prepended to the nodes and targets."""
    lam = np.concatenate([[0j], nodes])
    targets = [np.concatenate([[0j], c.batch_targets(nodes[None, :])[0]]) for c in coords]
    errors = [np.concatenate([[0.0], np.broadcast_to(c.target_err, nodes.shape)]) for c in coords]
    return pick_margin(np.broadcast_to(lam, (len(coords), len(lam))), np.array(targets),
                       np.array(errors))


def _repair(nodes: np.ndarray, coords: list):
    """Scale the configuration outward by 1 + t, t <= 0.05, until both Pick
    problems certify, bisecting t geometrically down to the resolution of
    1 + t (the t needed is mostly near 1e-13).  Returns the nodes and their
    margins, or None."""
    margins = _margins(nodes, coords)
    if margins.all():
        return nodes, margins
    lo, hi = 0.0, min(0.05, 0.9999999 / np.max(np.abs(nodes)) - 1.0)
    margins = _margins(nodes * (1.0 + hi), coords)
    if hi <= lo or not margins.all():
        return None
    while True:
        mid = math.sqrt(max(lo, 2.0 ** -53) * hi)
        if not 1.0 + lo < 1.0 + mid < 1.0 + hi:
            return nodes * (1.0 + hi), margins
        trial = _margins(nodes * (1.0 + mid), coords)
        if trial.all():
            hi, margins = mid, trial
        else:
            lo = mid


# ---------------------------------------------------------------------------
# starts
# ---------------------------------------------------------------------------


def _structured_starts(subset, coords, rng, n_theta=8):
    """Degree-2 Blaschke starts: nodes are preimages of the coordinate poles
    under e^{i theta} z Phi_alpha.  Available when no pole repeats more than
    twice in that coordinate.  These sit at the coordinate-extremal product
    value next to the feasible set, which is where optimal configurations
    live."""
    m = len(subset)
    starts = []
    for role, coord in enumerate(coords):
        if coord.kind == "disc":
            pole_of = coord.targets
        else:
            pole_of = np.array([c[0] if len(c) else 0j for c in coord.lift_candidates])
        labels = {}
        for j in range(m):
            labels.setdefault(complex(pole_of[j]), []).append(j)
        if any(len(v) > 2 for v in labels.values()):
            continue
        for th in np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False):
            alpha = 0.35 * complex(rng.random() - 0.5, rng.random() - 0.5)
            rootmap = {}
            ok = True
            for tv in labels:
                try:
                    r1, r2 = solve_node_quadratic(abs(alpha), tv * np.exp(-1j * th))
                except ValueError:
                    ok = False
                    break
                phase = np.exp(1j * np.angle(alpha)) if alpha != 0 else 1.0
                rootmap[tv] = (r1 * phase, r2 * phase)
            if not ok:
                continue
            for flip in (0, 1):
                lam = np.zeros(m, dtype=complex)
                for tv, idxs in labels.items():
                    for pos, j in enumerate(idxs):
                        lam[j] = rootmap[tv][(pos + flip) % 2]
                if np.max(np.abs(lam)) < 0.999:
                    starts.append(lam)
    return starts


# ---------------------------------------------------------------------------
# the search engine
# ---------------------------------------------------------------------------


def _compass_chunk(x, step, weight, gens, rows: _Rows, settings):
    """Lockstep compass descent for a batch of restarts.

    x: (n, 2m) real coordinates, restarts of the subsets of `rows`.  Each
    restart draws its probe directions from its own generator,
    DIRECTION_BLOCK iterations per call, so trajectories do not depend on
    the batch composition.  All probes of an iteration are evaluated in one
    batched penalty call; acceptance takes the best probe per restart, which
    is order-independent, and probes proved unable to be accepted are never
    given an eigvalsh.
    """
    n, d = x.shape
    lam_of = lambda xx: xx[..., 0::2] + 1j * xx[..., 1::2]
    f = _penalized(lam_of(x), rows, weight)
    ndir = 2 * d + 2
    for it in range(settings.max_iterations):
        active = np.nonzero(step >= settings.tolerance)[0]
        na = len(active)
        if na == 0:
            break
        # restarts only ever leave the active set, so all active ones hold a block
        k = it % DIRECTION_BLOCK
        if k == 0:
            drawn = active
            block = np.empty((na, DIRECTION_BLOCK * ndir, d))
            for i, r in enumerate(active):
                gens[r].standard_normal(out=block[i])
            block /= np.linalg.norm(block, axis=-1, keepdims=True)
            block = block.reshape(na, DIRECTION_BLOCK, ndir, d)
        dirs = block[np.searchsorted(drawn, active), k]
        probes = x[active, None, :] + step[active, None, None] * dirs
        shrunk = lam_of(x[active]) * (1.0 - 0.3 * step[active])[:, None]
        shrink_probe = np.stack([shrunk.real, shrunk.imag], axis=-1).reshape(na, 1, d)
        probes = np.concatenate([probes, shrink_probe], axis=1)
        nprobe = probes.shape[1]
        thr = f[active] - 1e-15
        fp = np.empty((na, nprobe))
        per_call = max(1, PENALTY_ROWS // nprobe)
        for lo in range(0, na, per_call):
            sl = slice(lo, lo + per_call)
            fp[sl] = _penalized(lam_of(probes[sl].reshape(-1, d)), rows.take(active[sl], nprobe),
                                np.repeat(weight[active[sl]], nprobe), thr[sl]).reshape(-1, nprobe)
        jbest = np.argmin(fp, axis=1)
        fbest = fp[np.arange(na), jbest]
        improved = fbest < thr
        acc = active[improved]
        x[acc] = probes[improved, jbest[improved], :]
        f[acc] = fbest[improved]
        step[active[~improved]] *= settings.step_decay
        if (it + 1) % settings.penalty_ramp_every == 0:
            weight[active] *= settings.penalty_ramp_factor
            f[active] = _penalized(lam_of(x[active]), rows.take(active), weight[active])
    return x


def _product_grad(lam: np.ndarray):
    """prod |lam_k| and its gradient in the coordinates (Re lam, Im lam)."""
    am = np.abs(lam)
    # d|lam_k| = (Re lam_k, Im lam_k) / |lam_k|, times the other moduli
    others = np.prod(np.where(np.eye(len(lam), dtype=bool), 1.0, am), axis=1)
    g = others * np.divide(lam, am, out=np.zeros_like(lam), where=am > 0)
    return float(np.prod(am)), np.concatenate([g.real, g.imag])


def _pick_min_eig_grad(lam: np.ndarray, targets: np.ndarray):
    """Min Pick eigenvalue per coordinate and its gradient in (Re lam, Im lam).

    targets: (c, m), one frozen target row per coordinate.  All c Pick
    matrices go through one batched eigh.  For the smallest eigenpair (mu, v)
    of H, dmu = v^H (dH) v (Magnus 1985); H_kj depends on L_k through its row
    and on conj(L_k) through its column, which gives dmu = 2 Re(a_k dL_k) with
    a_k = sum_j conj(v_k) v_j H_kj conj(L_j) / (1 - L_k conj(L_j)).
    """
    L = np.concatenate([[0j], lam])
    den = _one_minus_outer(lam[None, :])[0]
    H = _one_minus_outer(targets) / den
    mu, vecs = np.linalg.eigh(H)
    v = vecs[:, :, 0]
    a = np.einsum("ck,cj,ckj->ck", np.conj(v), v, H * (np.conj(L)[None, :] / den))
    return mu[:, 0], np.concatenate([2.0 * a[:, 1:].real, -2.0 * a[:, 1:].imag], axis=1)


def _polish(nodes: np.ndarray, coords: list, rounds: int = 2) -> np.ndarray:
    """SLSQP refinement of a candidate with eigenvalue inequality constraints.

    The lift assignment of plane coordinates is frozen at the incoming
    configuration so the constraints stay smooth.  Objective and constraints
    carry exact gradients; the Pick constraint value and its Jacobian share
    one eigen-decomposition per point.
    """
    m = len(nodes)
    to_lam = lambda x: x[:m] + 1j * x[m:]
    frozen = np.array([c.batch_targets(nodes[None, :])[0] for c in coords])
    cache = {}

    def pick(x):
        key = x.tobytes()
        if key not in cache:
            cache.clear()
            mu, grad = _pick_min_eig_grad(to_lam(x), frozen)
            cache[key] = (mu * 1e3, grad * 1e3)
        return cache[key]

    def cap_grad(x):
        return np.hstack([np.diag(-2.0 * x[:m]), np.diag(-2.0 * x[m:])])

    cons = [{"type": "ineq", "fun": lambda x: pick(x)[0], "jac": lambda x: pick(x)[1]},
            {"type": "ineq", "fun": lambda x: 0.9999999 ** 2 - np.abs(to_lam(x)) ** 2,
             "jac": cap_grad}]
    x0 = np.concatenate([nodes.real, nodes.imag])
    best = nodes
    for _ in range(rounds):
        res = minimize(lambda x: _product_grad(to_lam(x)), x0, jac=True,
                       method="SLSQP", constraints=cons,
                       options={"maxiter": 80, "ftol": 1e-14})
        x0 = res.x
        cand = to_lam(res.x)
        if np.max(np.abs(cand)) < 1.0:
            best = cand
    return best


def _restart_starts(subset, coords, settings: OptimizerSettings, subset_key):
    """Per-restart generators and start nodes.

    Restart r draws its start from its own stream (seed, subset, r), and even
    slots hold the structured starts in order, so the starts of R restarts
    are a prefix of those of R' > R.  The generators go on to drive the
    compass directions.
    """
    m = len(subset)
    # Schwarz floor per node: |node| >= |target| in each coordinate
    floors = np.zeros(m)
    for coord in coords:
        if coord.kind == "disc":
            floors = np.maximum(floors, np.abs(coord.targets))
        else:
            floors = np.maximum(floors,
                                np.array([np.min(np.abs(c)) if len(c) else 0.0
                                          for c in coord.lift_candidates]))
    gens = [np.random.default_rng(np.random.SeedSequence(entropy=settings.seed,
                                                         spawn_key=(*subset_key, r)))
            for r in range(settings.restarts)]
    start_rng = np.random.default_rng(np.random.SeedSequence(entropy=settings.seed,
                                                             spawn_key=(*subset_key, 1 << 20)))
    structured = _structured_starts(subset, coords, start_rng)
    lam0 = np.empty((settings.restarts, m), dtype=complex)
    for r, gen in enumerate(gens):
        r0 = floors + (0.995 - floors) * gen.random(m)
        lam0[r] = r0 * np.exp(2j * np.pi * gen.random(m))
        if r % 2 == 0 and r // 2 < len(structured):
            lam0[r] = structured[r // 2]
    return gens, lam0


def _compass(items, settings: OptimizerSettings) -> list:
    """Lockstep compass descent over the restarts of several subsets of one
    size, items being (subset, coords, key, ...).  Returns the final nodes of
    each subset, (restarts, m), which have the bits of a run of that subset
    alone: every decision of the descent reads only the restart's own probes."""
    starts = [_restart_starts(subset, coords, settings, key) for subset, coords, key, *_ in items]
    gens = [gen for subset_gens, _ in starts for gen in subset_gens]
    lam0 = np.concatenate([lam for _, lam in starts])
    total, m = lam0.shape
    x = np.empty((total, 2 * m))
    x[:, 0::2] = lam0.real
    x[:, 1::2] = lam0.imag
    step = np.full(total, settings.step_init)
    weight = np.full(total, settings.penalty_weight)
    rows = _Rows([item[1] for item in items], settings.restarts * np.arange(len(items) + 1))
    x = _compass_chunk(x, step, weight, gens, rows, settings)
    return np.split(x[:, 0::2] + 1j * x[:, 1::2], len(items))


def _finish(subset, coords, lam: np.ndarray, settings: OptimizerSettings):
    """Rank the compass restarts lam (restarts, m) of one subset, polish and
    repair the best; returns the best certified NodeConfig, or None."""
    restarts = len(lam)
    raw_vals = np.prod(np.abs(lam), axis=1)
    den = _one_minus_outer(lam)
    viol = np.zeros(restarts)
    for coord in coords:
        viol = np.maximum(viol, _pick_violation(coord.pick_num(lam), den))
    # feasibility first: a restart stalled deep in the infeasible region can
    # have the smallest raw product but cannot be polished or repaired back,
    # so only near-feasible restarts are ranked by product
    near = [r for r in range(restarts) if viol[r] <= NEAR_FEASIBLE_TOL]
    order = sorted(near, key=lambda r: (raw_vals[r], r))
    candidates = [lam[r] for r in order[: max(settings.polish_top, 1)]]
    candidates += [_polish(c, coords) for c in list(candidates)]
    repaired = [r for r in (_repair(c, coords) for c in candidates) if r is not None]
    if not repaired:
        return None
    best_nodes, margins = min(repaired, key=lambda r: np.prod(np.abs(r[0])))
    return NodeConfig(subset=tuple(subset), nodes=tuple(best_nodes),
                      value=float(np.prod(np.abs(best_nodes))),
                      coord_targets=tuple(tuple(c.batch_targets(best_nodes[None, :])[0])
                                          for c in coords),
                      margins=tuple(float(c) for c in margins))


def _search_levels(levels, best_val: float, best_cfg, settings: OptimizerSettings):
    """Search the subsets of each size level and return the best (value,
    config).  A level lists (subset, coords, key, lower bound) in subset
    order; a subset is skipped when its lower bound sits within
    LB_SKIP_MARGIN of the best value found before it.  The first subset of a
    level that is not skipped runs alone; the others still not skipped then
    run their compass in one lockstep batch and are finished in subset
    order, the skip rule checked again before each, so the result is that of
    searching them one by one."""

    def unpruned(item):
        return item[3] < best_val - LB_SKIP_MARGIN

    for level in levels:
        todo = [item for item in level if unpruned(item)]
        for batch in (todo[:1], todo[1:]):
            batch = [item for item in batch if unpruned(item)]
            if not batch:
                continue
            for item, lam in zip(batch, _compass(batch, settings)):
                if not unpruned(item):
                    continue
                cfg = _finish(item[0], item[1], lam, settings)
                if cfg is None:
                    logger.debug("subset %s: no feasible configuration found", item[0])
                elif cfg.value < best_val:
                    best_val, best_cfg = cfg.value, cfg
    return best_val, best_cfg


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _subset_lower_bound(reduced_targets) -> float:
    """max over coordinates of the disc Lempert value of the projected poles."""
    lb = 0.0
    for targets in reduced_targets:
        distinct = dict.fromkeys(complex(t) for t in targets)
        lb = max(lb, float(np.prod([abs(t) for t in distinct])))
    return lb


def _reduce_poles(A: PoleSet, B: PoleSet, z: complex, w: complex):
    """The poles moved to base point (0, 0) by (Phi_z, Phi_w), and the
    rounding bound of each moved pole: (a_red, b_red, a_err, b_err)."""
    return ([complex(moebius(z, a)) for a in A], [complex(moebius(w, b)) for b in B],
            moebius_error(z, list(A)), moebius_error(w, list(B)))


def _bidisc_level(reduced, size: int) -> list:
    """The pair subsets of one size of a bidisc instance reduced by
    `_reduce_poles`, in subset order, as (subset, coords, key, lower bound)."""
    a_red, b_red, a_err, b_err = reduced
    pairs = itertools.product(range(len(a_red)), range(len(b_red)))
    level = []
    for subset in itertools.combinations(pairs, size):
        ta = np.array([a_red[k] for k, l in subset])
        tb = np.array([b_red[l] for k, l in subset])
        coords = [_Coord("disc", ta, None, a_err[[k for k, l in subset]]),
                  _Coord("disc", tb, None, b_err[[l for k, l in subset]])]
        level.append((subset, coords, tuple(k * 64 + l for k, l in subset),
                      _subset_lower_bound((ta, tb))))
    return level


def bidisc_lempert(A: PoleSet, B: PoleSet, z: complex, w: complex,
                   settings: OptimizerSettings | None = None):
    """Upper-bound evaluation of the bidisc Lempert function with pole set
    A x B at (z, w), minimized over nonempty subsets of pole pairs.

    The instance is first reduced by the automorphism pair (Phi_z, Phi_w) to
    base point (0, 0).  Singleton subsets have the exact value
    max(|a'|, |b'|); larger subsets run the compass/polish/repair search.
    Subsets whose coordinate-projection lower bound cannot beat the current
    best are skipped.
    """
    settings = settings or OptimizerSettings()
    if len(A) > 4 or len(B) > 4:
        raise ValueError("pole sets capped at 4 points each")
    reduced = _reduce_poles(A, B, z, w)
    a_red, b_red = reduced[:2]

    best_val, best_cfg = math.inf, None
    # singletons are exact
    for (k, l) in itertools.product(range(len(A)), range(len(B))):
        val = max(abs(a_red[k]), abs(b_red[l]))
        if val < best_val:
            node = a_red[k] if abs(a_red[k]) >= abs(b_red[l]) else b_red[l]
            if abs(node) < 1e-15:
                node = 0j
            best_val = val
            best_cfg = NodeConfig(subset=((k, l),), nodes=(node,), value=val,
                                  coord_targets=((a_red[k],), (b_red[l],)))

    levels = (_bidisc_level(reduced, size)
              for size in range(2, min(len(A) * len(B), MAX_SUBSET_SIZE) + 1))
    best_val, best_cfg = _search_levels(levels, best_val, best_cfg, settings)
    return best_cfg, best_val


def mixed_product_upper(D: PlaneDomain, G: PlaneDomain, A: PoleSet, B: PoleSet,
                        z: complex, w: complex,
                        settings: OptimizerSettings | None = None,
                        degree_cap: int = MAX_BLASCHKE_DEGREE):
    """Upper bound for l_{DxG}(A x B, (z, w)) over the sufficient family of
    cover-composed disc maps.

    Plane-domain coordinates route each node to a lift of its pole (greedy
    nearest-lift assignment inside the search); disc coordinates use Pick
    feasibility after automorphism reduction.  The returned value is an upper
    bound on the Lempert function; it is not claimed minimal, but it always
    satisfies every known lower bound.
    """
    settings = settings or OptimizerSettings()
    if degree_cap > MAX_BLASCHKE_DEGREE:
        raise ValueError(f"Blaschke degree > {MAX_BLASCHKE_DEGREE}")
    if len(A) > 4 or len(B) > 4:
        raise ValueError("pole sets capped at 4 points each")

    def coord_data(domain, poles, base):
        if domain.kind == "disc":
            return ("disc", [(complex(moebius(base, p)), float(moebius_error(base, p)))
                             for p in poles])
        cover = build_cover(domain, base)
        # a node may sit at any of the 6 smallest lifts of its pole
        return ("plane", [np.asarray(cover.lifts(p, 6).eta[:6], dtype=complex) for p in poles])

    def subset_coord(kind, data, idx):
        """The coordinate of a subset and its poles projected into the disc."""
        if kind == "disc":
            targets = np.array([data[i][0] for i in idx])
            return _Coord("disc", targets, None, np.array([data[i][1] for i in idx])), targets
        lifts = [data[i] for i in idx]
        return _Coord("plane", None, lifts), np.array([c[0] for c in lifts])

    kind_a, data_a = coord_data(D, list(A), z)
    kind_b, data_b = coord_data(G, list(B), w)
    pairs = list(itertools.product(range(len(A)), range(len(B))))

    def item(subset):
        ca, proj_a = subset_coord(kind_a, data_a, [k for k, l in subset])
        cb, proj_b = subset_coord(kind_b, data_b, [l for k, l in subset])
        key = tuple(1_000_000 + k * 64 + l for k, l in subset)
        return subset, [ca, cb], key, _subset_lower_bound((proj_a, proj_b))

    levels = ([item(subset) for subset in itertools.combinations(pairs, size)]
              for size in range(1, min(len(pairs), degree_cap, MAX_SUBSET_SIZE) + 1))
    best_val, best_cfg = _search_levels(levels, math.inf, None, settings)
    if best_cfg is None:
        raise RuntimeError("no feasible configuration found")
    return best_val, best_cfg
