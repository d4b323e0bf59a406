"""Upper bounds for product-domain Lempert functions with product pole sets.

A configuration assigns one disc node per selected pole pair; it certifies an
upper bound when, for each coordinate, the interpolation problem
(0 -> base, node -> pole data) admits an analytic self-map of the disc.  Each
coordinate asks the node to be sent to some lift of the pole through the
normalized cover, which is a Pick problem once the lift assignment is chosen
(a sufficient family of maps cover o h with h(0) = 0).  On the disc the
cover is Phi_base and each pole has the one lift Phi_base(p), so its targets
are fixed; a pruned subset costs only its lower bound, read from the lifts.

Subsets.  One search, `mixed_product_upper`, serves every pair of factor
domains; `bidisc_lempert` is that search on disc x disc.  Each factor's poles
are moved to base point 0 once, and each pole projected into the disc by its
smallest lift.  A single pair has the exact value max(|t_A|, |t_B|) of its
projected poles by the Schwarz lemma, so no single pair is searched.  The
subsets of 2 to MAX_SUBSET_SIZE pairs are searched one size at a time, in
subset order, and a subset whose lower bound sits within LB_SKIP_MARGIN of
the best value so far is skipped.  The bound is the larger over coordinates
of the product, per pole used k times, of its k smallest lifts, since the
nodes of one pole may go to different lifts of it; on the disc it is the
product of the projected poles.  A subset not skipped first tries a closed
form: one coordinate's projected targets as the nodes (that map the
identity), scaled outward until both Pick problems certify.  Within
LB_SKIP_MARGIN of the subset's bound it closes the subset.  The subsets of
a size left open run the search below in one batch (split under
BATCH_BYTES), and are repaired in subset order, each skipped as above by
the best value before it.  Over the subsets searched, pruning forgoes
improvements of at most LB_SKIP_MARGIN.

Search.  A subset's restarts start from seeded nodes, each pushed outward,
every node's deficit 1 - |lambda| halved (at most to NODE_CAP), until both
Pick problems pass the certified test `pick_margin`; a start that does not
certify is dropped.  From there a Newton iteration on the log barrier
sum_k log|lambda_k| - mu sum_c log det H_c - mu sum_k log(NODE_CAP^2 -
|lambda_k|^2), which is smooth where two Pick eigenvalues meet near 0 as
lambda_min is not (Overton 1992), runs the first SCREEN_STAGES weights mu of
BARRIER_MU on all restarts of the batch.  The POLISH_TOP rows of least node
product of each subset continue through the remaining weights, are scaled
outward until both Pick problems certify again (`_repair`), and the least
certified product is reported.  Restart r draws its start from its own RNG
stream (seed, subset, r), each row carries the index of its subset, and
every test of the iteration reads only its own row, so a row has the same
bits in any batch, and the rows of a smaller run are a prefix of those of a
larger one.  `OptimizerSettings` sets only the restart count, the seed and
the Newton-step cap per stage.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .complex_kernel import pick_margin, solve_node_quadratic
from .covering_domains import PlaneDomain, build_cover
from .disc_domain import PoleSet

MAX_SUBSET_SIZE = 8
# largest node modulus of the starts, the repair and the barrier's feasible set
NODE_CAP = 0.9999999
# barrier weights from the first stage to the last; the first SCREEN_STAGES
# run on every restart, the rest on the POLISH_TOP rows of least node product
BARRIER_MU = tuple(10.0 ** -k for k in range(3, 14))
SCREEN_STAGES = 2
POLISH_TOP = 2
# the Pick stacks of a barrier batch, (rows, 2, m+1, m+1) complex, stay
# under these bytes: a level is split in subset order, and a subset whose
# restarts alone reach them runs alone.  From 256 KiB on, numpy reuses an
# unnamed temporary in place, which turns KT * (...) of `_barrier_derivatives`
# into (...) * KT, and a complex a*b and b*a round apart; under it a row has
# the same bits in any batch.
BATCH_BYTES = 2 ** 18
# rotation angles e^{i theta} of the structured starts
STRUCTURED_ANGLES = 8

logger = logging.getLogger(__name__)
# subsets whose lower bound (`_pair_level`) sits within this margin of the best
# value found so far cannot improve it meaningfully and are skipped
LB_SKIP_MARGIN = 1e-9


@dataclass(frozen=True)
class OptimizerSettings:
    """Restarts per subset, the seed of their RNG streams, and the cap on
    Newton steps per barrier stage."""

    restarts: int = 200
    seed: int = 0
    max_iterations: int = 40

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
    into the disc by its smallest lift.  `_stack` stacks the coordinates of
    several subsets of one size, a leading subset axis on both arrays."""

    lifts: np.ndarray     # (m, n) candidate targets per pole, or (S, m, n)
    lift_err: np.ndarray  # bounds on their rounding, the same shape

    def __post_init__(self):
        self.proj = self.lifts[..., 0]

    def take(self, idx: list) -> "_Coord":
        """The coordinate of the poles idx."""
        return _Coord(self.lifts[idx], self.lift_err[idx])

    def batch_targets(self, lam: np.ndarray, owner: np.ndarray | None = None) -> tuple:
        """Targets per configuration of lam (B, m) and the bounds on their
        rounding; on a stacked coordinate row r reads subset owner[r].  The
        target of a node is the nearest candidate of its pole not larger
        than the node (greedy)."""
        lifts, err = self.lifts, self.lift_err
        if owner is not None:
            lifts, err = lifts[owner], err[owner]
        shape = lam.shape + lifts.shape[-1:]
        lifts, err = np.broadcast_to(lifts, shape), np.broadcast_to(err, shape)
        idx = np.zeros(lam.shape + (1,), dtype=np.intp)
        if shape[-1] > 1:
            for j in range(lam.shape[1]):
                nu = lifts[:, j]
                d = np.abs((lam[:, j, None] - nu) / (1.0 - np.conj(lam[:, j, None]) * nu))
                # lifts larger than the node cannot be hit by a map fixing 0
                bad = np.abs(nu) > np.abs(lam[:, j, None]) + 1e-12
                d = np.where(bad, d + 10.0, d)
                idx[:, j, 0] = np.argmin(d, axis=1)
        return (np.take_along_axis(lifts, idx, axis=2)[..., 0],
                np.take_along_axis(err, idx, axis=2)[..., 0])


def _stack(coord_sets: list) -> list:
    """The coordinates of several subsets of one size, one stacked `_Coord`
    per factor, in the order given."""
    return [_Coord(np.stack([cs[f].lifts for cs in coord_sets]),
                   np.stack([cs[f].lift_err for cs in coord_sets])) for f in range(2)]


def _margins(nodes: np.ndarray, coords: list, owner: np.ndarray | None = None) -> np.ndarray:
    """Certified Pick margin per coordinate (0.0 where not proven) of each
    configuration of nodes (..., m), shape (..., len(coords)), with the base
    pair 0 -> 0 prepended to the nodes and targets; on stacked coordinates
    row r reads subset owner[r]."""
    lam = np.atleast_2d(nodes)
    pad = lambda X: np.concatenate([np.zeros((len(X), 1), dtype=X.dtype), X], axis=1)
    n = lam.shape[1] + 1
    pairs = [c.batch_targets(lam, owner) for c in coords]
    targets = np.stack([pad(t) for t, _ in pairs], axis=1)
    errors = np.stack([pad(e) for _, e in pairs], axis=1)
    margins = pick_margin(np.repeat(pad(lam), len(coords), axis=0), targets.reshape(-1, n),
                          errors.reshape(-1, n))
    return margins.reshape(np.shape(nodes)[:-1] + (len(coords),))


def _certified_starts(starts: np.ndarray, coords: list, owner: np.ndarray | None = None):
    """The rows of starts (R, m), in order, each pushed outward until both
    Pick problems pass `pick_margin`: every node's deficit 1 - |lambda| is
    halved, at most down to 1 - NODE_CAP, until the row certifies.  A row that
    does not certify with every node at the cap is dropped.  A float
    lambda_min > 0 alone is not enough: a Pick matrix singular to working
    precision breaks the matrix inverse of `_barrier_derivatives`.  On
    stacked coordinates row r reads subset owner[r].  Returns the pushed
    rows and the index in starts of each."""
    lam = starts.copy()
    unit = np.exp(1j * np.angle(lam))
    floor = 1.0 - NODE_CAP
    deficit = 1.0 - np.abs(lam)
    certified = np.zeros(len(lam), dtype=bool)
    todo = np.arange(len(lam))
    while len(todo):
        ok = _margins(lam[todo], coords, None if owner is None else owner[todo]).all(axis=1)
        certified[todo[ok]] = True
        todo = todo[~ok & (deficit[todo] > floor).any(axis=1)]
        deficit[todo] = np.maximum(0.5 * deficit[todo], floor)
        lam[todo] = (1.0 - deficit[todo]) * unit[todo]
    kept = np.flatnonzero(certified)
    return lam[kept], kept


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


def _polish(lam: np.ndarray, nums: np.ndarray, mus: tuple, steps: int):
    """Newton refinement of the rows of lam (B, m) on `_barrier_value`, mu
    running through mus, with the frozen Pick numerators nums (B, c, m+1,
    m+1); rows that are not strictly feasible at mus[0] are dropped.
    Returns the refined rows, their numerators and the index in lam of
    each.  A step is the Newton direction with the Hessian's eigenvalues
    replaced by their moduli, floored at 1e-12 times the largest (the node
    product is harmonic and the common rotation flat), with Armijo
    backtracking from 1, at most 20 halvings.  A row leaves a stage when its
    squared Newton decrement is below mu (1e-14 in the last stage of
    BARRIER_MU), after `steps` steps, or when its line search fails: its bits
    do not depend on a batch whose numerators stay under BATCH_BYTES."""
    f = _barrier_value(lam, nums, mus[0])
    kept = np.flatnonzero(np.isfinite(f))
    lam, nums, f = lam[kept], nums[kept], f[kept]
    m = lam.shape[1]
    for stage, mu in enumerate(mus):
        tol = 1e-14 if mu == BARRIER_MU[-1] else mu
        if stage:
            f = _barrier_value(lam, nums, mu)
        live = np.arange(len(lam))
        for _ in range(steps):
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
    return lam, nums, kept


def _restart_starts(subset, coords, settings: OptimizerSettings, subset_key) -> np.ndarray:
    """Start nodes per restart, (restarts, m).

    Even slots hold the structured starts in order; every other restart r
    draws its start from its own stream (seed, subset, r), so the starts of
    R restarts are a prefix of those of R' > R.
    """
    m = len(subset)
    # Schwarz floor per node: |node| >= |target| in each coordinate
    floors = np.zeros(m)
    for coord in coords:
        floors = np.maximum(floors, np.abs(coord.proj))
    start_rng = np.random.default_rng(np.random.SeedSequence(entropy=settings.seed,
                                                             spawn_key=(*subset_key, 1 << 20)))
    structured = _structured_starts(subset, coords, start_rng)
    lam0 = np.empty((settings.restarts, m), dtype=complex)
    for r in range(settings.restarts):
        if r % 2 == 0 and r // 2 < len(structured):
            lam0[r] = structured[r // 2]
            continue
        gen = np.random.default_rng(np.random.SeedSequence(entropy=settings.seed,
                                                           spawn_key=(*subset_key, r)))
        r0 = floors + (0.995 - floors) * gen.random(m)
        lam0[r] = r0 * np.exp(2j * np.pi * gen.random(m))
    return lam0


def _screen(starts: np.ndarray, coords: list, steps: int, owner: np.ndarray | None = None):
    """The certified starts (`_certified_starts`) after the first
    SCREEN_STAGES barrier stages, all in one batch, with their Pick
    numerators, frozen at the certified starts, and the index in starts of
    each; rows keep their order.  On stacked coordinates row r reads subset
    owner[r]."""
    lam, kept = _certified_starts(starts, coords, owner)
    owner = None if owner is None else owner[kept]
    nums = np.stack([_one_minus_outer(c.batch_targets(lam, owner)[0]) for c in coords], axis=1)
    lam, nums, screened = _polish(lam, nums, BARRIER_MU[:SCREEN_STAGES], steps)
    return lam, nums, kept[screened]


def _level_tails(batch: list, settings: OptimizerSettings) -> list:
    """The barrier search of several subsets of one size in one batch, given
    as (subset, coords, key): all their restarts are screened together, and
    the POLISH_TOP rows of least node product of each subset run the
    remaining stages together.  Each row carries the index of its subset,
    and every test reads only its own row, so under BATCH_BYTES each subset
    gets the bits it would get alone.  Returns the polished rows of each
    subset."""
    starts = np.concatenate([_restart_starts(subset, coords, settings, key)
                             for subset, coords, key in batch])
    owner = np.repeat(np.arange(len(batch)), settings.restarts)
    lam, nums, rows = _screen(starts, _stack([coords for _, coords, _ in batch]),
                              settings.max_iterations, owner)
    owner = owner[rows]
    products = np.prod(np.abs(lam), axis=1)
    top = np.concatenate([
        rows[np.argsort(products[rows], kind="stable")[:POLISH_TOP]]
        for rows in (np.flatnonzero(owner == s) for s in range(len(batch)))])
    polished, _, rows = _polish(lam[top], nums[top], BARRIER_MU[SCREEN_STAGES:],
                                settings.max_iterations)
    owner = owner[top][rows]
    return [polished[owner == s] for s in range(len(batch))]


def _node_config(subset, coords, nodes: np.ndarray, margins: np.ndarray) -> NodeConfig:
    """The NodeConfig of certified nodes of a subset and their margins."""
    return NodeConfig(subset=tuple(subset), nodes=tuple(nodes),
                      value=float(np.prod(np.abs(nodes))),
                      coord_targets=tuple(tuple(c.batch_targets(nodes[None, :])[0][0])
                                          for c in coords),
                      margins=tuple(float(c) for c in margins))


def _best_repaired(subset, coords, polished: np.ndarray):
    """The least certified product among the polished rows of a subset,
    each repaired (`_repair`), as a NodeConfig, or None."""
    repaired = [out for out in (_repair(p, coords) for p in polished) if out is not None]
    if not repaired:
        return None
    return _node_config(subset, coords, *min(repaired, key=lambda r: np.prod(np.abs(r[0]))))


def _closing_candidate(subset, coords, lower: float):
    """The closed-form candidate of a subset where it closes the subset: one
    coordinate's projected targets taken as the nodes, so that its map is
    the identity, scaled outward by `_repair` until both Pick problems
    certify.  It closes the subset when its certified product lies within
    LB_SKIP_MARGIN of the subset's lower bound, which no search can beat by
    more; returns its NodeConfig, or None.  Equal nodes cannot go to the
    different targets of the other coordinate, so those are not tried."""
    for coord in coords:
        nodes = coord.proj
        if (len(set(nodes.tolist())) < len(nodes)
                or np.prod(np.abs(nodes)) > lower + LB_SKIP_MARGIN):
            continue
        out = _repair(nodes, coords)
        if out is not None and np.prod(np.abs(out[0])) <= lower + LB_SKIP_MARGIN:
            return _node_config(subset, coords, *out)
    return None


def _search_levels(ca: _Coord, cb: _Coord, best_val: float, best_cfg,
                   settings: OptimizerSettings):
    """Search the pole-pair subsets of ca, cb one size at a time, from 2 to
    MAX_SUBSET_SIZE, and return the best (value, config).

    A size's subsets are walked in subset order.  A subset is skipped when
    its lower bound sits within LB_SKIP_MARGIN of the best value found
    before it, and otherwise tries its closing candidate
    (`_closing_candidate`), whose value counts at once.  The subsets left
    open run the barrier search together (`_level_tails`), in batches under
    BATCH_BYTES split in subset order, and are then repaired in subset
    order, each skipped as above by the best value before it.  Only the
    subsets not skipped have their coordinates built."""
    for size in range(2, min(len(ca.proj) * len(cb.proj), MAX_SUBSET_SIZE) + 1):
        level, cut = [], best_val
        for subset, lower in _pair_level(ca, cb, size):
            if lower >= cut - LB_SKIP_MARGIN:
                continue
            coords, key = _subset_coords(ca, cb, subset)
            closed = _closing_candidate(subset, coords, lower)
            if closed is not None:
                cut = min(cut, closed.value)
            level.append((subset, lower, coords, key, closed))
        searched = [(subset, coords, key) for subset, _, coords, key, closed in level
                    if closed is None]
        # two Pick matrices of size + 1 complex entries squared per row
        row_bytes = 2 * 16 * (size + 1) ** 2
        per_batch = max(1, (BATCH_BYTES - 1) // (row_bytes * settings.restarts))
        polished = iter([rows for i in range(0, len(searched), per_batch)
                         for rows in _level_tails(searched[i:i + per_batch], settings)])
        for subset, lower, coords, _, cfg in level:
            if cfg is None:
                rows = next(polished)
                if lower >= best_val - LB_SKIP_MARGIN:
                    continue
                cfg = _best_repaired(subset, coords, rows)
            if cfg is None:
                logger.debug("subset %s: no feasible configuration found", subset)
            elif cfg.value < best_val:
                best_val, best_cfg = cfg.value, cfg
    return best_val, best_cfg


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _factor_coord(domain: PlaneDomain, poles: PoleSet, base: complex) -> _Coord:
    """The coordinate of all poles of one factor, moved to base point 0: the
    6 smallest lifts of each pole through the normalized cover, with their
    rounding bounds (the disc has one lift, Phi_base(p))."""
    cover = build_cover(domain, base)
    lifts = [cover.lifts(p, 6) for p in poles]
    return _Coord(np.array([ls.eta[:6] for ls in lifts]), np.array([ls.err[:6] for ls in lifts]))


def _pair_level(ca: _Coord, cb: _Coord, size: int):
    """The pole-pair subsets of one size of the factor coordinates ca, cb, in
    subset order, as (subset, lower bound), without building a coordinate.

    The bound is the larger over coordinates of the product, per pole used k
    times, of its k smallest lifts: the nodes of one pole may go to
    different lifts of it, and the disc Lempert value of the targets hit is
    at least that product (l_G^k of Theorem 5).  On the disc it is the
    product of the projected poles."""
    moduli = [[[abs(t) for t in row] for row in c.lifts.tolist()] for c in (ca, cb)]
    for subset in itertools.combinations(itertools.product(range(len(ca.proj)),
                                                           range(len(cb.proj))), size):
        floors = []
        for mods, poles in zip(moduli, zip(*subset)):
            used = Counter(poles)  # in order of first use
            floors.append(float(np.prod([m for p, k in used.items() for m in mods[p][:k]])))
        yield subset, max(floors)


def _subset_coords(ca: _Coord, cb: _Coord, subset) -> tuple:
    """(coords, key) of a pole-pair subset, the key naming its RNG streams."""
    ks, ls = [k for k, l in subset], [l for k, l in subset]
    return [ca.take(ks), cb.take(ls)], tuple(k * 64 + l for k, l in subset)


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
    of 2 to MAX_SUBSET_SIZE pairs run the barrier search and the repair, and
    those whose lower bound cannot beat the best value so far are
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
