"""Upper bounds for product-domain Lempert functions with product pole sets.

A configuration assigns one disc node per selected pole pair; it certifies an
upper bound when, for each coordinate, the interpolation problem
(0 -> base, node -> pole data) admits an analytic self-map of the disc.  Each
coordinate asks the node to be sent to some lift of the pole through the
normalized cover, which is a Pick problem once the lift assignment is chosen
(a sufficient family of maps cover o h with h(0) = 0).  On the disc the
cover is Phi_base and each pole has the one lift Phi_base(p), so its targets
are fixed and its Pick numerators are formed once per subset that enters the
compass; a pruned subset costs only its lower bound, read from the projected
poles.

The search over node space runs random-direction compass descent with an
eigenvalue penalty max(0, -lambda_min) from many seeded restarts.  Its
penalty weight, step schedule and polish are module constants;
`OptimizerSettings` sets only the restart count, the seed and the iteration
cap.  Each
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

Subsets.  One search, `mixed_product_upper`, serves every pair of factor
domains; `bidisc_lempert` is that search on disc x disc.  Each factor's poles
are moved to base point 0 once, and each pole projected into the disc by its
smallest lift.  A single pair has the exact value
max(|t_A|, |t_B|) of its projected poles by the Schwarz lemma, which is also
its closed-form lower bound, so no single pair enters the compass.  The
subsets of 2 to MAX_SUBSET_SIZE pairs are searched size by size, and a subset
whose closed-form lower bound sits within LB_SKIP_MARGIN of the best value so
far is skipped.  Per size, the first subset not skipped runs alone; the others
still not skipped then run their compass in one lockstep batch, the rows of a
penalty call spanning several subsets (plane coordinates choose their lifts on
each subset's own rows).  Their results are finished in subset order, the
skip rule checked again before each, so the outcome is that of searching them
one by one, and a subset pruned by the first one never enters the compass.
Restarts are then ranked feasibility-first: only those whose worst Pick
violation is at most NEAR_FEASIBLE_TOL are candidates, ordered by node-moduli
product.  The best are scaled outward until both Pick problems pass the
certified test `pick_margin` (`_repair`), polished together by a Newton
iteration on a log barrier, which is smooth where two Pick eigenvalues meet
near 0 as lambda_min is not (Overton 1992), and repaired again; the least
certified product is reported.  Each restart draws its
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

from .complex_kernel import (
    cholesky_succeeds,
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
# compass: initial penalty weight, multiplied by PENALTY_RAMP_FACTOR every
# PENALTY_RAMP_EVERY iterations; initial step, multiplied by STEP_DECAY after
# an iteration without an accepted probe; a restart stops once its step is
# below TOLERANCE.  The compass only has to bring a restart near enough for
# the polish, which replaces the nodes of the candidates it keeps: at
# 1e-5 rather than 1e-9 a search makes about half the penalty calls, and the
# polished values stay within a few 1e-9 of those of the finer compass
PENALTY_WEIGHT = 1e4
PENALTY_RAMP_EVERY = 500
PENALTY_RAMP_FACTOR = 10.0
STEP_INIT = 0.12
STEP_DECAY = 0.6
TOLERANCE = 1e-5
# largest node modulus of the repair and of the polish's feasible set
NODE_CAP = 0.9999999
# candidates per subset given to the polish; its barrier weights from the
# first stage to the last, and its Newton steps per stage
POLISH_TOP = 2
BARRIER_MU = tuple(10.0 ** -k for k in range(3, 14))
NEWTON_STEPS = 40
# rotation angles e^{i theta} of the structured starts
STRUCTURED_ANGLES = 8

logger = logging.getLogger(__name__)
# subsets whose closed-form lower bound sits within this margin of the best
# value found so far cannot improve it meaningfully and are skipped
LB_SKIP_MARGIN = 1e-9


@dataclass(frozen=True)
class OptimizerSettings:
    """Restarts per subset, the seed of their RNG streams, and the cap on
    compass iterations per restart."""

    restarts: int = 200
    seed: int = 0
    max_iterations: int = 2000

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
    """One coordinate of the product: per pole its candidate targets, the
    smallest lifts through the normalized cover in ascending modulus (one on
    the disc), with a rounding bound per candidate.  Each pole is projected
    into the disc by its smallest lift."""

    lifts: np.ndarray     # (m, n) candidate targets per pole
    lift_err: np.ndarray  # (m, n) bounds on their rounding

    def __post_init__(self):
        self.proj = self.lifts[:, 0]
        # poles with one candidate each give node-independent Pick numerators
        self._num = _one_minus_outer(self.proj[None, :]) if self.lifts.shape[1] == 1 else None

    def take(self, idx: list) -> "_Coord":
        """The coordinate of the poles idx."""
        return _Coord(self.lifts[idx], self.lift_err[idx])

    def _choice(self, lam: np.ndarray):
        """Index into lifts of the target of each node of lam (B, m): the
        nearest candidate of its pole not larger than the node (greedy)."""
        B, m = lam.shape
        idx = np.zeros((B, m), dtype=np.intp)
        if self._num is None:
            for j in range(m):
                nu = self.lifts[j]
                d = np.abs((lam[:, j, None] - nu[None, :])
                           / (1.0 - np.conj(lam[:, j, None]) * nu[None, :]))
                # lifts larger than the node cannot be hit by a map fixing 0
                bad = np.abs(nu)[None, :] > np.abs(lam[:, j, None]) + 1e-12
                d = np.where(bad, d + 10.0, d)
                idx[:, j] = np.argmin(d, axis=1)
        return np.arange(m), idx

    def batch_targets(self, lam: np.ndarray) -> np.ndarray:
        """Targets per configuration of lam (B, m)."""
        return self.lifts[self._choice(lam)]

    def target_err(self, lam: np.ndarray) -> np.ndarray:
        """Rounding bounds of batch_targets(lam)."""
        return self.lift_err[self._choice(lam)]

    def pick_num(self, lam: np.ndarray) -> np.ndarray:
        """Pick numerators, (1, m+1, m+1) for fixed targets, else one per row."""
        if self._num is not None:
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
    errors = [np.concatenate([[0.0], c.target_err(nodes[None, :])[0]]) for c in coords]
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
    lo, hi = 0.0, min(0.05, NODE_CAP / np.max(np.abs(nodes)) - 1.0)
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


def _structured_starts(subset, coords, rng):
    """Degree-2 Blaschke starts: nodes are preimages of the coordinate poles
    under e^{i theta} z Phi_alpha.  Available when no pole repeats more than
    twice in that coordinate.  These sit at the coordinate-extremal product
    value next to the feasible set, which is where optimal configurations
    live."""
    m = len(subset)
    starts = []
    for coord in coords:
        labels = {}
        for j in range(m):
            labels.setdefault(complex(coord.proj[j]), []).append(j)
        if any(len(v) > 2 for v in labels.values()):
            continue
        for th in np.linspace(0.0, 2.0 * np.pi, STRUCTURED_ANGLES, endpoint=False):
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
        active = np.nonzero(step >= TOLERANCE)[0]
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
        step[active[~improved]] *= STEP_DECAY
        if (it + 1) % PENALTY_RAMP_EVERY == 0:
            weight[active] *= PENALTY_RAMP_FACTOR
            f[active] = _penalized(lam_of(x[active]), rows.take(active), weight[active])
    return x


def _barrier_value(lam: np.ndarray, nums: np.ndarray, mu: float) -> np.ndarray:
    """The barrier objective sum_k log|lam_k| - mu sum_c log det H_c -
    mu sum_k log(NODE_CAP^2 - |lam_k|^2) per row of lam (B, m), inf where
    a node reaches the cap or a Pick eigenvalue is <= 0.  nums (B, c, m+1,
    m+1) are the frozen Pick numerators of each row; one eigvalsh call gives
    the feasibility test and the log determinants."""
    am2 = lam.real ** 2 + lam.imag ** 2
    room = NODE_CAP ** 2 - am2
    f = np.full(len(lam), np.inf)
    inside = np.nonzero((room > 0.0).all(axis=1))[0]
    eig = np.linalg.eigvalsh(nums[inside] / _one_minus_outer(lam[inside])[:, None])
    pos = (eig[..., 0] > 0.0).all(axis=1)
    ok, eig = inside[pos], eig[pos]
    f[ok] = (0.5 * np.log(am2[ok]).sum(axis=1)
             - mu * (np.log(eig).sum(axis=(1, 2)) + np.log(room[ok]).sum(axis=1)))
    return f


def _barrier_derivatives(lam: np.ndarray, nums: np.ndarray, mu: float):
    """Gradient (B, 2m) and Hessian (B, 2m, 2m) of `_barrier_value` in the
    coordinates (Re lam, Im lam), at strictly feasible rows of lam (B, m).

    With L = (0, lam), G = 1 - L L^H, H = num / G and K = H^-1, the entry
    H_kj depends on L_k through its row and on conj(L_j) through its column.
    Let A_kj = H_kj conj(L_j) / G_kj, B_kj = H_kj L_k / G_kj and M = A K;
    then d log det H / dL_p = M_pp,
    d^2 / dL_p dL_r = delta_pr sum_j K_jp 2 A_pj conj(L_j) / G_pj - M_pr M_rp
    and d^2 / dL_p dconj(L_q) = K_qp (H_pq (1 + L_p conj(L_q)) / G_pq^2 - (M B)_pq).
    The real derivatives follow from the Wirtinger ones f_z, f_zz and
    f_zzbar: g = (2 Re f_z, -2 Im f_z), H_xx = 2 Re(f_zz + f_zzbar),
    H_yy = 2 Re(f_zzbar - f_zz) and H_xy = 2 Im(f_zzbar - f_zz).
    """
    B, m = lam.shape
    L = np.concatenate([np.zeros((B, 1), dtype=complex), lam], axis=1)[:, None, :, None]
    Lbar = np.conj(np.swapaxes(L, -1, -2))
    G = _one_minus_outer(lam)[:, None]
    H = nums / G
    K = np.linalg.inv(H)
    KT = np.swapaxes(K, -1, -2)
    A = H * Lbar / G
    M = A @ K
    fz = -mu * np.diagonal(M, axis1=-2, axis2=-1).sum(axis=1)[:, 1:]
    fzz = mu * (M * np.swapaxes(M, -1, -2)).sum(axis=1)
    fzb = -mu * (KT * (H * (2.0 - G) / G ** 2 - M @ (H * L / G))).sum(axis=1)
    k = np.arange(1, m + 1)
    fzz[:, k, k] -= mu * (2.0 * A * Lbar / G * KT).sum(axis=(1, 3))[:, 1:]
    # the node product and the cap barrier act on each node alone
    room = NODE_CAP ** 2 - (lam.real ** 2 + lam.imag ** 2)
    fz += 0.5 / lam + mu * np.conj(lam) / room
    fzz[:, k, k] += mu * np.conj(lam) ** 2 / room ** 2 - 0.5 / lam ** 2
    fzb[:, k, k] += mu * NODE_CAP ** 2 / room ** 2
    fzz, fzb = fzz[:, 1:, 1:], fzb[:, 1:, 1:]
    hxy = 2.0 * (fzb - fzz).imag
    hess = np.block([[2.0 * (fzz + fzb).real, hxy],
                     [np.swapaxes(hxy, -1, -2), 2.0 * (fzb - fzz).real]])
    return np.concatenate([2.0 * fz.real, -2.0 * fz.imag], axis=1), hess


def _polish(starts: np.ndarray, coords: list) -> np.ndarray:
    """Newton refinement of the strictly feasible rows of starts (B, m) on
    `_barrier_value`, mu running through BARRIER_MU; the other rows are
    dropped.  Plane lift assignments are frozen at the starts.  A step is the
    Newton direction with the Hessian's eigenvalues replaced by their moduli,
    floored at 1e-12 times the largest (the node product is harmonic and the
    common rotation flat), with Armijo backtracking from 1, at most 20
    halvings.  A row leaves a stage when its squared Newton decrement is
    below mu (1e-14 in the last stage), after NEWTON_STEPS steps, or when its
    line search fails: its bits do not depend on the batch."""
    nums = np.stack([_one_minus_outer(c.batch_targets(starts)) for c in coords], axis=1)
    feasible = np.isfinite(_barrier_value(starts, nums, BARRIER_MU[0]))
    lam, nums = starts[feasible], nums[feasible]
    m = lam.shape[1]
    for mu in BARRIER_MU:
        tol = 1e-14 if mu == BARRIER_MU[-1] else mu
        f = _barrier_value(lam, nums, mu)
        live = np.arange(len(lam))
        for _ in range(NEWTON_STEPS):
            if len(live) == 0:
                break
            g, hess = _barrier_derivatives(lam[live], nums[live], mu)
            w, V = np.linalg.eigh(hess)
            w = np.abs(w)
            w = np.maximum(w, 1e-12 * w.max(axis=1, keepdims=True))
            c = (g[:, None, :] @ V)[:, 0] / w
            decrement = (c * c * w).sum(axis=1)
            go = decrement >= tol
            live, slope = live[go], -decrement[go]
            step = (V[go] @ c[go][:, :, None])[..., 0]
            dlam = -(step[:, :m] + 1j * step[:, m:])
            t, todo = 1.0, np.arange(len(live))
            for _ in range(21):
                if len(todo) == 0:
                    break
                rows = live[todo]
                trial = lam[rows] + t * dlam[todo]
                ft = _barrier_value(trial, nums[rows], mu)
                ok = ft <= f[rows] + 1e-4 * t * slope[todo]
                lam[rows[ok]], f[rows[ok]] = trial[ok], ft[ok]
                todo, t = todo[~ok], 0.5 * t
            # rows whose line search failed leave the stage
            live = np.delete(live, todo)
    return lam


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
        floors = np.maximum(floors, np.abs(coord.proj))
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
    size, items being (subset, coords, key).  Returns the final nodes of
    each subset, (restarts, m), which have the bits of a run of that subset
    alone: every decision of the descent reads only the restart's own probes."""
    starts = [_restart_starts(subset, coords, settings, key) for subset, coords, key in items]
    gens = [gen for subset_gens, _ in starts for gen in subset_gens]
    lam0 = np.concatenate([lam for _, lam in starts])
    total, m = lam0.shape
    x = np.empty((total, 2 * m))
    x[:, 0::2] = lam0.real
    x[:, 1::2] = lam0.imag
    step = np.full(total, STEP_INIT)
    weight = np.full(total, PENALTY_WEIGHT)
    rows = _Rows([item[1] for item in items], settings.restarts * np.arange(len(items) + 1))
    x = _compass_chunk(x, step, weight, gens, rows, settings)
    return np.split(x[:, 0::2] + 1j * x[:, 1::2], len(items))


def _finish(subset, coords, lam: np.ndarray):
    """Rank the compass restarts lam (restarts, m) of one subset, repair the
    best, polish the repaired ones and repair them again; returns the best
    certified NodeConfig, or None."""
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
    repaired = [out for out in (_repair(lam[r], coords) for r in order[:POLISH_TOP])
                if out is not None]
    if not repaired:
        return None
    polished = _polish(np.array([nodes for nodes, _ in repaired]), coords)
    repaired += [out for out in (_repair(p, coords) for p in polished) if out is not None]
    best_nodes, margins = min(repaired, key=lambda r: np.prod(np.abs(r[0])))
    return NodeConfig(subset=tuple(subset), nodes=tuple(best_nodes),
                      value=float(np.prod(np.abs(best_nodes))),
                      coord_targets=tuple(tuple(c.batch_targets(best_nodes[None, :])[0])
                                          for c in coords),
                      margins=tuple(float(c) for c in margins))


def _search_levels(ca: _Coord, cb: _Coord, best_val: float, best_cfg,
                   settings: OptimizerSettings):
    """Search the pole-pair subsets of ca, cb of each size from 2 to
    MAX_SUBSET_SIZE and return the best (value, config).  A subset is skipped
    when its lower bound sits within LB_SKIP_MARGIN of the best value found
    before it.  The first subset of a level that is not skipped runs alone;
    the others still not skipped then run their compass in one lockstep
    batch and are finished in subset order, the skip rule checked again
    before each, so the result is that of searching them one by one.  Only
    subsets that enter the compass have their coordinates built."""

    def unpruned(entry):
        return entry[1] < best_val - LB_SKIP_MARGIN

    for size in range(2, min(len(ca.proj) * len(cb.proj), MAX_SUBSET_SIZE) + 1):
        todo = [entry for entry in _pair_level(ca, cb, size) if unpruned(entry)]
        for batch in (todo[:1], todo[1:]):
            batch = [entry for entry in batch if unpruned(entry)]
            if not batch:
                continue
            items = [_compass_item(ca, cb, subset) for subset, _ in batch]
            for entry, item, lam in zip(batch, items, _compass(items, settings)):
                if not unpruned(entry):
                    continue
                cfg = _finish(item[0], item[1], lam)
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


def _factor_coord(domain: PlaneDomain, poles: PoleSet, base: complex) -> _Coord:
    """The coordinate of all poles of one factor, moved to base point 0: the
    6 smallest lifts of each pole through the normalized cover, with their
    rounding bounds (the disc has one lift, Phi_base(p))."""
    cover = build_cover(domain, base)
    lifts = [cover.lifts(p, 6) for p in poles]
    return _Coord(np.array([ls.eta[:6] for ls in lifts]), np.array([ls.err[:6] for ls in lifts]))


def _pair_level(ca: _Coord, cb: _Coord, size: int):
    """The pole-pair subsets of one size of the factor coordinates ca, cb, in
    subset order, as (subset, lower bound); the bound reads only the
    projected poles, so no coordinate is built."""
    pa, pb = ca.proj.tolist(), cb.proj.tolist()
    for subset in itertools.combinations(itertools.product(range(len(pa)), range(len(pb))), size):
        yield subset, _subset_lower_bound(([pa[k] for k, _ in subset], [pb[l] for _, l in subset]))


def _compass_item(ca: _Coord, cb: _Coord, subset) -> tuple:
    """The compass item (subset, coords, key) of a pole-pair subset, the key
    naming its RNG streams."""
    ks, ls = [k for k, l in subset], [l for k, l in subset]
    return subset, [ca.take(ks), cb.take(ls)], tuple(k * 64 + l for k, l in subset)


def mixed_product_upper(D: PlaneDomain, G: PlaneDomain, A: PoleSet, B: PoleSet,
                        z: complex, w: complex, settings: OptimizerSettings | None = None):
    """Upper bound for l_{DxG}(A x B, (z, w)) over the sufficient family of
    cover-composed disc maps, minimized over nonempty subsets of pole pairs;
    returns (config, value).

    Each factor is moved to base point 0 through its normalized cover, where
    a node may go to any of the 6 smallest lifts of its pole (greedy
    nearest-lift assignment inside the search; the disc has one lift,
    Phi_z(a) or Phi_w(b)).  A single pair has the exact value
    max(|t_A|, |t_B|) of its projected poles t, by the Schwarz lemma; subsets
    of 2 to MAX_SUBSET_SIZE pairs run the compass/polish/repair search, and
    those whose closed-form lower bound cannot beat the best value so far are
    skipped.  The value is a certified upper bound on the Lempert function;
    it is not claimed minimal.
    """
    settings = settings or OptimizerSettings()
    if len(A) > 4 or len(B) > 4:
        raise ValueError("pole sets capped at 4 points each")
    D.require_interior(z, "z")
    G.require_interior(w, "w")
    ca, cb = _factor_coord(D, A, z), _factor_coord(G, B, w)

    best_val, best_cfg = math.inf, None
    # single pairs are exact
    for k, l in itertools.product(range(len(A)), range(len(B))):
        ta, tb = complex(ca.proj[k]), complex(cb.proj[l])
        val = max(abs(ta), abs(tb))
        if val < best_val:
            node = ta if abs(ta) >= abs(tb) else tb
            if abs(node) < 1e-15:
                node = 0j
            best_val = val
            best_cfg = NodeConfig(subset=((k, l),), nodes=(node,), value=val,
                                  coord_targets=((ta,), (tb,)))

    best_val, best_cfg = _search_levels(ca, cb, best_val, best_cfg, settings)
    return best_cfg, best_val


def bidisc_lempert(A: PoleSet, B: PoleSet, z: complex, w: complex,
                   settings: OptimizerSettings | None = None):
    """`mixed_product_upper` on the bidisc: an upper bound for the bidisc
    Lempert function with pole set A x B at (z, w); returns (config, value)."""
    return mixed_product_upper(PlaneDomain("disc"), PlaneDomain("disc"), A, B, z, w, settings)
