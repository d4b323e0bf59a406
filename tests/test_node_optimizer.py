import inspect
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lempertpoles
from lempertpoles.acceptance import GRID_ORACLE_DELTA, c8_theorem7_failure
from lempertpoles.complex_kernel import moebius, moebius_error
from lempertpoles.covering_domains import PlaneDomain, build_cover, lempert_poleset_plane
from lempertpoles.disc_domain import PoleSet
from lempertpoles import node_optimizer
from lempertpoles.node_optimizer import (
    BARRIER_MU,
    LB_SKIP_MARGIN,
    NODE_CAP,
    OptimizerSettings,
    _barrier_derivatives,
    _barrier_value,
    _certified_starts,
    _Coord,
    _finish,
    _margins,
    _one_minus_outer,
    _polish,
    _repair,
    _restart_starts,
    bidisc_lempert,
    mixed_product_upper,
)
from lempertpoles.product_engine import prop10_construct, theorem5_bounds

FAST = OptimizerSettings(restarts=48, seed=0)
FAILURE_A = PoleSet(points=(0.5, 0.5j))
FAILURE_B = PoleSet(points=(0.5, -0.5))


def _failure_case(session_cache, settings):
    # Theorem 7 failure case, computed once per session for each settings
    return session_cache(("failure", settings), bidisc_lempert, A=FAILURE_A, B=FAILURE_B,
                         z=0, w=0, settings=settings)


def _assert_exact_singleton(cfg, v):
    # a single pair: value max(|t_A|, |t_B|) of its projected poles, to the bit,
    # at the larger one, with no margins
    assert len(cfg.subset) == 1 and cfg.margins == ()
    assert v == cfg.value == max(abs(t) for (t,) in cfg.coord_targets)
    assert all(abs(cfg.nodes[0]) >= abs(t) for (t,) in cfg.coord_targets)
    assert type(v) is float


def test_singletons_exact():
    cfg, v = bidisc_lempert(PoleSet(points=(0.3,)), PoleSet(points=(0.6j,)), 0, 0, FAST)
    assert v == pytest.approx(0.6)
    _assert_exact_singleton(cfg, v)
    cfg, v = bidisc_lempert(PoleSet(points=(0.7,)), PoleSet(points=(0.2,)), 0, 0, FAST)
    assert v == pytest.approx(0.7)
    _assert_exact_singleton(cfg, v)
    # a plane coordinate: the smallest lift of b, which is l_G(b, w)
    G = PlaneDomain("annulus", R=0.1)
    b, w = 0.4 * np.exp(2.0j), 0.45
    cfg, v = mixed_product_upper(PlaneDomain("disc"), G, PoleSet(points=(0.1,)),
                                 PoleSet(points=(b,), domain=G), 0, w, FAST)
    _assert_exact_singleton(cfg, v)
    assert math.log(v) == pytest.approx(build_cover(G, w).min_lift_log_modulus(b), abs=1e-12)


def test_rotation_case_reaches_floor():
    A = PoleSet(points=(0.5, 0.5j))
    B = PoleSet(points=(0.5j, -0.5))
    cfg, v = bidisc_lempert(A, B, 0, 0, FAST)
    assert abs(v - 0.25) <= 1e-6
    assert v >= 0.25 - 1e-12


def test_failure_case_strictly_above_floor(session_cache):
    cfg, v = _failure_case(session_cache, FAST)
    assert v > 0.25 + 1e-3
    assert v == pytest.approx(0.2713, abs=2e-3)


def test_failure_case_200_restarts_reach_full_subset(session_cache):
    # restarts that stall deep in the infeasible region must not crowd the
    # feasible 4-pair optimum out of the polish slots
    cfg, v = _failure_case(session_cache, OptimizerSettings(restarts=200, seed=0))
    assert len(cfg.subset) == 4
    assert abs((v - 0.25) - GRID_ORACLE_DELTA) <= 1e-3


def test_failure_case_more_restarts_never_worse(session_cache):
    _, v200 = _failure_case(session_cache, OptimizerSettings(restarts=200, seed=0))
    # the 500-restart run is criterion 8's, shared with its acceptance test
    c8 = session_cache("c8", c8_theorem7_failure)
    assert len(c8.details["subset"]) == 4
    assert c8.details["value"] <= v200


def test_criterion8_output_is_positive_definite_at_50_digits(session_cache, pick_oracle):
    c8 = session_cache("c8", c8_theorem7_failure)
    assert len(c8.details["pick_margins"]) == 2 and min(c8.details["pick_margins"]) > 0.0
    nodes = [0j, *c8.details["nodes"]]
    for coord, poles in enumerate((FAILURE_A, FAILURE_B)):
        targets = [0j] + [pick_oracle.moebius(0, poles.points[pair[coord]])
                          for pair in c8.details["subset"]]
        assert pick_oracle.min_eig(nodes, targets) > 0.0


def test_restart_starts_are_prefix_stable():
    # the starts of R restarts are the first R starts of any larger run
    ta = np.array([0.5, 0.5, 0.5j, 0.5j])
    tb = np.array([0.5, -0.5, 0.5, -0.5])
    coords = [_fixed(ta), _fixed(tb)]
    subset = ((0, 0), (0, 1), (1, 0), (1, 1))
    key = (0, 1, 64, 65)
    small = _restart_starts(subset, coords, OptimizerSettings(restarts=20, seed=3), key)
    big = _restart_starts(subset, coords, OptimizerSettings(restarts=70, seed=3), key)
    assert np.array_equal(small, big[:20])
    assert np.all(np.abs(big) < 1.0)


def test_inequality_two_floor():
    rng = np.random.default_rng(3)
    for _ in range(3):
        A = PoleSet(points=tuple(0.6 * np.exp(2j * np.pi * rng.random()) * (0.4 + 0.6 * rng.random())
                                 for _ in range(2)))
        B = PoleSet(points=tuple(0.6 * np.exp(2j * np.pi * rng.random()) * (0.4 + 0.6 * rng.random())
                                 for _ in range(2)))
        z = 0.2 * rng.random()
        w = 0.2 * rng.random()
        _, v = bidisc_lempert(A, B, z, w, FAST)
        disc = PlaneDomain("disc")
        floor = max(lempert_poleset_plane(disc, A, z).value,
                    lempert_poleset_plane(disc, B, w).value)
        assert v >= floor - 1e-12


def test_upper_bound_soundness_reverified(pick_oracle):
    # the moved failure case: the Pick matrices of the exact targets
    # Phi_z(a), Phi_w(b) of the float poles are positive definite at 50 digits
    c = 0.3 - 0.1j
    A = PoleSet(points=tuple(moebius(c, a) for a in FAILURE_A))
    B = PoleSet(points=tuple(moebius(-c, b) for b in FAILURE_B))
    z, w = moebius(c, 0), moebius(-c, 0)
    cfg, v = bidisc_lempert(A, B, z, w, FAST)
    assert len(cfg.subset) > 1 and min(cfg.margins) > 0.0
    nodes = [0j, *cfg.nodes]
    for base, poles, coord in ((z, A, 0), (w, B, 1)):
        targets = [0j] + [pick_oracle.moebius(base, poles.points[pair[coord]])
                          for pair in cfg.subset]
        assert pick_oracle.min_eig(nodes, targets) > 0.0
    assert v == pytest.approx(float(np.prod([abs(n) for n in cfg.nodes])), abs=1e-14)


def _fixed(targets, err=0.0):
    """A coordinate whose poles have one target each, as on the disc."""
    t = np.asarray(targets, dtype=complex)
    return _Coord(t[:, None], np.broadcast_to(err, t.shape)[:, None])


def _disc_coords(ta, tb, err_a=0.0, err_b=0.0):
    return [_fixed(ta, err_a), _fixed(tb, err_b)]


def test_eight_pair_configuration_certifies_outward_only():
    # nodes s * targets: g(z) = z / s interpolates them in both coordinates
    # when s > 1; for s < 1 the Schwarz lemma |g(l)| <= |l| fails
    rng = np.random.default_rng(53)
    ta = (0.3 + 0.6 * rng.random(8)) * np.exp(2j * np.pi * (np.arange(8) + rng.random(8)) / 8)
    coords = _disc_coords(ta, np.exp(0.4j) * ta)
    for s in (1.05, 1.001):
        nodes = s * ta
        margins = _margins(nodes, coords)
        assert margins.shape == (2,) and np.all(margins > 0.0)
        repaired, _ = _repair(nodes, coords)
        assert np.array_equal(repaired, nodes)
    for s in (0.999, 0.95):
        assert not np.any(_margins(s * ta, coords))
    # the repair scales an inward configuration back out, by at most 1.05
    repaired, margins = _repair(0.999 * ta, coords)
    assert np.all(margins > 0.0)
    assert 1.0 < abs(repaired[0] / ta[0]) <= 1.05 * 0.999


def test_certified_test_rejects_slightly_negative_pick_matrix(pick_oracle):
    # a criterion-8 instance moved by an automorphism pair, and the nodes a
    # repair to lambda_min >= -5e-13 returned for it: the first coordinate's
    # Pick matrix has lambda_min = -5.0e-13 at 50 digits
    A = (-0.18535235199661007 - 0.3984783022842145j, 0.4852436977784281 - 0.36923299853283964j)
    B = (-0.2962177183175819 - 0.48169236083933936j, -0.3177995979132005 + 0.44105059288894344j)
    z, w = 0.1779011766573174 - 0.04064641788184798j, -0.24930228883577232 - 0.023076739672371244j
    nodes = np.array([0.7052217141155567 + 0.07876039419811563j,
                      -0.7320269123424106 - 0.05439266541348428j,
                      0.4813169765953918 + 0.5542165057006918j,
                      -0.4848201040093464 - 0.5181605323255084j])
    subset = ((0, 0), (0, 1), (1, 0), (1, 1))
    ta = [A[k] for k, l in subset]
    tb = [B[l] for k, l in subset]
    oracle_a = pick_oracle.min_eig([0j, *nodes], [0j] + [pick_oracle.moebius(z, a) for a in ta])
    assert -6e-13 < oracle_a < -4e-13
    coords = _disc_coords([moebius(z, a) for a in ta], [moebius(w, b) for b in tb],
                          np.array([moebius_error(z, a) for a in ta]),
                          np.array([moebius_error(w, b) for b in tb]))
    margins = _margins(nodes, coords)
    assert margins[0] == 0.0 and margins[1] > 0.0


def test_subset_monotonicity_under_pole_addition(session_cache):
    A = PoleSet(points=(0.5, 0.5j))
    B = PoleSet(points=(0.5, -0.5))
    _, v_small = _failure_case(session_cache, FAST)
    A_big = PoleSet(points=(0.5, 0.5j, -0.45))
    _, v_big = bidisc_lempert(A_big, B, 0, 0, FAST)
    assert v_big <= v_small + 1e-9


def test_determinism_same_seed():
    A = PoleSet(points=(0.5, 0.5j))
    B = PoleSet(points=(0.5, -0.5))
    _, v1 = bidisc_lempert(A, B, 0, 0, OptimizerSettings(restarts=32, seed=11))
    _, v2 = bidisc_lempert(A, B, 0, 0, OptimizerSettings(restarts=32, seed=11))
    assert repr(v1) == repr(v2)


def test_automorphism_reduction_invariance(session_cache):
    # moving the base point together with the poles leaves the value unchanged
    A = PoleSet(points=(0.5, 0.5j))
    B = PoleSet(points=(0.5, -0.5))
    _, v0 = _failure_case(session_cache, FAST)
    c = 0.3 - 0.1j
    A2 = PoleSet(points=tuple(moebius(c, a) for a in A))
    _, v1 = bidisc_lempert(A2, B, moebius(c, 0), 0, FAST)
    assert abs(v0 - v1) < 1e-6


def test_settings_validation_names_the_field():
    with pytest.raises(ValueError, match="restarts"):
        OptimizerSettings(restarts=0)
    with pytest.raises(ValueError, match="max_iterations"):
        OptimizerSettings(max_iterations=0)


def test_pole_cap():
    five = PoleSet(points=tuple(0.1 * k + 0.1j for k in range(1, 6)))
    with pytest.raises(ValueError, match="capped"):
        bidisc_lempert(five, PoleSet(points=(0.5,)), 0, 0, FAST)
    with pytest.raises(ValueError, match="capped"):
        mixed_product_upper(PlaneDomain("disc"), PlaneDomain("annulus", R=0.1),
                            five, PoleSet(points=(0.5,)), 0, 0.45, FAST)


def test_base_point_outside_its_factor_rejected():
    A, B = PoleSet(points=(0.5,)), PoleSet(points=(0.3,))
    with pytest.raises(ValueError, match="z="):
        bidisc_lempert(A, B, 1.5, 0, FAST)
    with pytest.raises(ValueError, match="w="):
        mixed_product_upper(PlaneDomain("disc"), PlaneDomain("annulus", R=0.1), A, B, 0, 0.05,
                            FAST)


def test_mixed_upper_disc_singleton_matches_theorem5():
    D = PlaneDomain("disc")
    G = PlaneDomain("disc")
    A = PoleSet(points=(0.5, 0.5j))
    b = 0.3 - 0.2j
    z, w = 0.1 + 0.05j, -0.2 + 0.1j
    rep = theorem5_bounds(D, G, A, b, z, w)
    cfg, v = mixed_product_upper(D, G, A, PoleSet(points=(b,)), z, w, FAST)
    _assert_exact_singleton(cfg, v)
    assert v <= rep.upper + 1e-6
    assert v >= rep.lower - 1e-12


def test_mixed_upper_annulus_factor():
    D = PlaneDomain("disc")
    G = PlaneDomain("annulus", R=0.1)
    A = PoleSet(points=(0.15, 0.1j))
    b = 0.4 * np.exp(2.0j)
    z, w = 0.05, 0.45
    rep = theorem5_bounds(D, G, A, b, z, w)
    cfg, v = mixed_product_upper(D, G, A, PoleSet(points=(b,), domain=G), z, w, FAST)
    _assert_exact_singleton(cfg, v)
    # sound upper bound: above the Theorem 5 lower bound, at or below the
    # Lemma 4 certificate value up to optimizer tolerance
    assert v >= rep.lower - 1e-12
    assert v <= rep.upper + 1e-4


def test_mixed_upper_plane_pair_is_pick_certified(pick_oracle):
    # two pairs beat every single pair through a lift-assignment Pick problem
    # in the annulus coordinate
    D = PlaneDomain("disc")
    G = PlaneDomain("annulus", R=0.1)
    A = PoleSet(points=(0.5, 0.5j))
    b, z, w = 0.3, 0, 0.45
    B = PoleSet(points=(b,), domain=G)
    cfg, v = mixed_product_upper(D, G, A, B, z, w, FAST)
    assert len(cfg.subset) >= 2 and len(cfg.margins) == 2 and min(cfg.margins) > 0.0
    assert v == cfg.value == pytest.approx(float(np.prod(np.abs(cfg.nodes))), abs=1e-15)
    smallest_lift = abs(build_cover(G, w).lifts(b, 6).eta[0])
    singles = [max(abs(moebius(z, a)), smallest_lift) for a in A]
    assert v < min(singles)
    assert v >= theorem5_bounds(D, G, A, b, z, w).lower - 1e-12
    # the float lifts are taken as exact data
    nodes = [0j, *cfg.nodes]
    for targets in cfg.coord_targets:
        assert pick_oracle.min_eig(nodes, [0j, *targets]) > 0.0


def test_prop10_instance_certifies_that_the_product_property_fails(pick_oracle):
    # the best subset has two pairs that share the pole b, and their nodes go
    # to two different lifts of b; a subset floor that takes b's smallest
    # lift twice over prunes it and returns the singleton l_G(b, w)
    D, G, z, w, b = PlaneDomain("disc"), PlaneDomain("annulus", R=0.05), 0.0, 0.3, -0.25 + 0.05j
    A, _ = prop10_construct(D, G, z, w, b, N=2, seed=0)
    rep = theorem5_bounds(D, G, A, b, z, w)
    cfg, v = mixed_product_upper(D, G, A, PoleSet(points=(b,), domain=G), z, w, FAST)
    assert v < max(rep.meta["l_D_A"], rep.meta["l_G_1"])
    assert rep.lower <= v <= rep.upper
    assert len(cfg.subset) == 2 and len(set(cfg.coord_targets[1])) == 2
    # the float lifts are taken as exact data
    nodes = [0j, *cfg.nodes]
    for targets in cfg.coord_targets:
        assert pick_oracle.min_eig(nodes, [0j, *targets]) > 0.0


def _plane_point(rng, domain) -> complex:
    inner = domain.R if domain.kind == "annulus" else 0.0
    return complex((inner + (1.0 - inner) * rng.uniform(0.1, 0.9)) * np.exp(2j * np.pi * rng.random()))


def _plane_domain(rng, kinds) -> PlaneDomain:
    kind = kinds[rng.integers(len(kinds))]
    return PlaneDomain(kind, R=float(rng.uniform(0.05, 0.5))) if kind == "annulus" else PlaneDomain(kind)


def _pruning_panel(count=30, seed=1):
    """Seeded D x G instances (D, G, A, b, z, w): D a disc, punctured disc or
    annulus, G a punctured disc or annulus, |A| = 2."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        D = _plane_domain(rng, ("disc", "punctured", "annulus"))
        G = _plane_domain(rng, ("punctured", "annulus"))
        z, w = _plane_point(rng, D), _plane_point(rng, G)
        A = PoleSet(points=(_plane_point(rng, D), _plane_point(rng, D)), domain=D)
        yield D, G, A, _plane_point(rng, G), z, w


def test_subset_pruning_keeps_every_improvement_on_plane_panels(monkeypatch):
    # every value lies above Theorem 5's lower bound and at most 1e-9
    # relative above the search with no subset pruned; a floor that takes a
    # pole's smallest lift in place of its k smallest keeps 5 of these 30
    # 0.4-17 % above the unpruned value
    for D, G, A, b, z, w in _pruning_panel():
        B = PoleSet(points=(b,), domain=G)
        lower = theorem5_bounds(D, G, A, b, z, w).lower
        _, v = mixed_product_upper(D, G, A, B, z, w, FAST)
        with monkeypatch.context() as m:
            m.setattr(node_optimizer, "LB_SKIP_MARGIN", -math.inf)
            _, unpruned = mixed_product_upper(D, G, A, B, z, w, FAST)
        assert lower * (1.0 - 1e-12) <= v <= unpruned * (1.0 + 1e-9), (D, G, A, b, z, w)


def _central_differences(fun, lam, h=1e-6):
    m = len(lam)
    x = np.concatenate([lam.real, lam.imag])
    cols = []
    for i in range(2 * m):
        e = np.zeros(2 * m)
        e[i] = h
        xp, xm = x + e, x - e
        cols.append((np.asarray(fun(xp[:m] + 1j * xp[m:]))
                     - np.asarray(fun(xm[:m] + 1j * xm[m:]))) / (2 * h))
    return np.stack(cols, axis=-1)


def _barrier_configs():
    # strictly feasible nodes: each coordinate's targets are g(lam) for a
    # self-map g of the disc with g(0) = 0 and sup |g| < 1.  Plane-lift
    # targets (the smallest annulus lifts of seeded poles) are reached by
    # g(z) = s z from lam = lifts / s; disc targets are lam (0.5 + 0.3 lam)
    # e^{i theta}.  Yields lam (m,) and the Pick numerators (1, 2, m+1, m+1).
    rng = np.random.default_rng(17)
    cover = build_cover(PlaneDomain("annulus", R=0.1), 0.45)
    for m in (2, 3, 4):
        for _ in range(3):
            lifts = np.ones(m)
            while np.abs(lifts).max() > 0.9:
                poles = (0.2 + 0.7 * rng.random(m)) * np.exp(2j * np.pi * rng.random(m))
                lifts = np.array([cover.lifts(p, 6).eta[0] for p in poles], dtype=complex)
            lam = lifts / max(0.6, np.abs(lifts).max() / 0.95)
            disc = lam * (0.5 + 0.3 * lam) * np.exp(2j * np.pi * rng.random())
            yield lam, _one_minus_outer(np.array([disc, lifts]))[None]


def _derivative_errors(derivatives, mu=0.05):
    """Largest error of the gradient and of the Hessian of `derivatives`
    against central differences of `_barrier_value` and of the gradient,
    relative to the largest entry, per configuration above."""
    worst = []
    for lam, nums in _barrier_configs():
        assert np.isfinite(_barrier_value(lam[None], nums, mu)[0])
        g, hess = derivatives(lam[None], nums, mu)
        g_fd = _central_differences(lambda l: _barrier_value(l[None], nums, mu)[0], lam)
        h_fd = _central_differences(lambda l: derivatives(l[None], nums, mu)[0][0], lam)
        worst.append((np.max(np.abs(g[0] - g_fd)) / np.max(np.abs(g)),
                      np.max(np.abs(hess[0] - h_fd)) / np.max(np.abs(hess))))
    return np.array(worst)


def test_barrier_derivatives_match_central_differences():
    errors = _derivative_errors(_barrier_derivatives)
    assert len(errors) == 9 and np.all(errors <= 1e-6)


def test_barrier_derivatives_check_rejects_a_dropped_conjugate():
    # negative control: A_kj = H_kj / G_kj without the factor conj(L_j)
    source = textwrap.dedent(inspect.getsource(_barrier_derivatives))
    assert source.count("A = H * Lbar / G") == 1
    namespace = dict(vars(node_optimizer))
    exec(source.replace("A = H * Lbar / G", "A = H / G"), namespace)
    errors = _derivative_errors(namespace["_barrier_derivatives"])
    assert np.all(errors.max(axis=1) > 1e-3)


def _c8_polish_calls():
    """(lam, nums, mus, polished) of every `_polish` call of criterion 8 at 48
    restarts: per searched subset, its screen, then its top rows."""
    calls = []
    polish = node_optimizer._polish

    def recording(lam, nums, mus, steps):
        out = polish(lam, nums, mus, steps)
        calls.append((lam, nums, mus, out[0]))
        return out

    node_optimizer._polish = recording
    try:
        assert c8_theorem7_failure(restarts=48).passed
    finally:
        node_optimizer._polish = polish
    return calls


def _last_stage_decrement(lam, nums):
    """The squared Newton decrement of `_polish` at the rows of lam in its
    last stage."""
    g, hess = _barrier_derivatives(lam, nums, BARRIER_MU[-1])
    w, V = np.linalg.eigh(hess)
    w = np.abs(w)
    w = np.maximum(w, 1e-12 * w.max(axis=1, keepdims=True))
    c = (g[:, None, :] @ V)[:, 0]
    return (c * c / w).sum(axis=1)


def test_polish_converges_on_criterion8(session_cache):
    # every subset screens all 48 restarts through the first two stages, and
    # its two rows of least product end the last stage on the decrement
    # test, not on the step cap or a failed line search
    calls = session_cache("c8_polish_48", _c8_polish_calls)
    assert [mus for _, _, mus, _ in calls] == [BARRIER_MU[:2], BARRIER_MU[2:]] * 7
    decrements = []
    for (lam, _, _, screened), (top, nums, _, out) in zip(calls[::2], calls[1::2]):
        assert len(lam) == len(screened) == 48 and len(top) == len(out) == 2
        products = np.prod(np.abs(screened), axis=1)
        assert np.array_equal(np.sort(products)[:2], np.prod(np.abs(top), axis=1))
        decrements.extend(_last_stage_decrement(out, nums))
    assert len(decrements) == 14 and max(decrements) < 1e-14


def test_polish_row_has_the_same_bits_alone_and_in_a_batch(session_cache):
    for lam, nums, mus, out in session_cache("c8_polish_48", _c8_polish_calls):
        assert np.array_equal(_polish(lam, nums, mus, 40)[0], out)
        swapped = _polish(lam[::-1].copy(), nums[::-1].copy(), mus, 40)[0]
        assert np.array_equal(swapped[::-1], out)
        for r in (0, len(lam) - 1):
            alone = _polish(lam[r:r + 1].copy(), nums[r:r + 1].copy(), mus, 40)[0]
            assert np.array_equal(alone[0], out[r])


def test_polish_starts_only_inside_the_feasible_set(monkeypatch, session_cache):
    # starts just outside the feasible set (a polished criterion-8 row
    # scaled inward) are pushed outward until both Pick problems certify
    # before the Newton iteration evaluates any derivative
    _, _, _, out = session_cache("c8_polish_48", _c8_polish_calls)[-1]
    disc = PlaneDomain("disc")
    ca, cb = (node_optimizer._factor_coord(disc, poles, 0.0) for poles in (FAILURE_A, FAILURE_B))
    subset = ((0, 0), (0, 1), (1, 0), (1, 1))
    coords, _ = node_optimizer._subset_coords(ca, cb, subset)
    raw = np.array([out[0] * (1.0 - e) for e in (1e-10, 1e-8, 3e-7)])
    assert not np.any(_margins(raw, coords).all(axis=1))
    nums = np.stack([_one_minus_outer(c.batch_targets(raw)[0]) for c in coords], axis=1)
    assert np.all(np.isinf(_barrier_value(raw, nums, BARRIER_MU[0])))
    pushed = _certified_starts(raw, coords)
    assert len(pushed) == 3 and np.all(_margins(pushed, coords) > 0.0)
    assert np.all(np.abs(pushed) > np.abs(raw)) and np.all(np.abs(pushed) <= NODE_CAP)

    seen, derivatives = [], node_optimizer._barrier_derivatives

    def checked(lam, nums, mu):
        seen.append(len(lam))
        assert np.all(np.isfinite(_barrier_value(lam, nums, mu)))
        return derivatives(lam, nums, mu)

    monkeypatch.setattr(node_optimizer, "_barrier_derivatives", checked)
    cfg = _finish(subset, coords, raw, 40)
    assert sum(seen) > 0 and min(cfg.margins) > 0.0
    assert cfg.value <= np.prod(np.abs(out[0])) * (1.0 + 1e-9)


def test_certified_starts_drop_a_start_that_cannot_certify():
    # two nodes at one point cannot go to two distinct targets, however far
    # out they are pushed; the other start certifies and keeps its place
    coords = [_fixed([0.3, -0.3]), _fixed([0.3j, -0.3j])]
    starts = np.array([[0.5 + 0.1j, 0.5 + 0.1j], [0.6, -0.6]])
    pushed = _certified_starts(starts, coords)
    assert len(pushed) == 1 and np.all(_margins(pushed, coords) > 0.0)
    assert np.allclose(pushed[0] / np.abs(pushed[0]), [1.0, -1.0])


def _searched_subsets(monkeypatch):
    """The subsets that reach the barrier search, recorded around `_finish`."""
    searched = []
    finish = node_optimizer._finish

    def counting_finish(subset, *args):
        searched.append(subset)
        return finish(subset, *args)

    monkeypatch.setattr(node_optimizer, "_finish", counting_finish)
    return searched


@pytest.mark.parametrize("restarts", [4, 24, 96])
def test_rotation_congruent_moved_instance_prunes_after_first_subset(monkeypatch, restarts):
    # the first pair subset must land within LB_SKIP_MARGIN of |a1 a2|, so
    # every other subset is pruned by its lower bound before its search
    A0 = np.array([-0.146574 - 0.417096j, -0.165564 + 0.601919j])
    B0 = np.exp(-3.036411j) * A0
    z, w = -0.147264 - 0.089353j, 0.284063 - 0.080081j
    A = PoleSet(points=tuple(complex(moebius(z, a)) for a in A0))
    B = PoleSet(points=tuple(complex(moebius(w, b)) for b in B0))
    searched = _searched_subsets(monkeypatch)
    _, v = bidisc_lempert(A, B, z, w, OptimizerSettings(restarts=restarts, seed=1))
    a1, a2 = (complex(moebius(z, a)) for a in A)
    exact = abs(a1 * a2)
    assert abs(v - exact) <= LB_SKIP_MARGIN
    assert v >= exact - 1e-12
    assert len(searched) == 1


def test_pruned_subsets_build_no_coordinates(monkeypatch):
    # on criterion 8's instance the singletons give 0.5, which prunes the
    # four pair subsets of size 2 that repeat a pole in one coordinate; only
    # the subsets that reach the barrier search get their two coordinates built
    built = []
    post_init = _Coord.__post_init__

    def counting_post_init(self):
        built.append(self.lifts.shape[0])
        post_init(self)

    monkeypatch.setattr(_Coord, "__post_init__", counting_post_init)
    searched = _searched_subsets(monkeypatch)
    bidisc_lempert(FAILURE_A, FAILURE_B, 0, 0, OptimizerSettings(restarts=4, seed=0))
    pruned = {((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))}
    assert len(searched) == 7 and not pruned & set(searched)
    # the two factor coordinates, then two per searched subset
    assert built == [2, 2] + [len(subset) for subset in searched for _ in range(2)]


def test_three_pole_coordinate_reaches_a_five_pair_subset(pick_oracle):
    # A = (1/2, i/2), B = (0.6, -0.6, 0.6i) at the origin: a 5-pair subset
    # reaches about 0.2834, below 0.291, where a search that ends on a 4-pair
    # subset stops
    A, B = PoleSet(points=(0.5, 0.5j)), PoleSet(points=(0.6, -0.6, 0.6j))
    cfg, v = bidisc_lempert(A, B, 0, 0, OptimizerSettings(restarts=32, seed=3))
    assert v < 0.29 and len(cfg.margins) == 2 and min(cfg.margins) > 0.0
    nodes = [0j, *cfg.nodes]
    for coord, poles in enumerate((A, B)):
        targets = [0j] + [pick_oracle.moebius(0, poles.points[pair[coord]]) for pair in cfg.subset]
        assert pick_oracle.min_eig(nodes, targets) > 0.0


C8_AT_48 = ("from lempertpoles.acceptance import c8_theorem7_failure\n"
            "print(repr(c8_theorem7_failure(restarts=48).details))")


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # criterion 8 at 48 restarts and the bidisc_failure seed-1 dump, each in
    # child processes whose environment alone sets the OpenBLAS thread count
    src = Path(lempertpoles.__file__).resolve().parents[1]
    dump = src.parent / "scripts" / "dump_outputs.py"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        outputs.append([subprocess.run(argv, env=env, capture_output=True, text=True,
                                       check=True).stdout
                        for argv in ([sys.executable, "-c", C8_AT_48],
                                     [sys.executable, str(dump), "--workload", "bidisc_failure",
                                      "--seed", "1"])])
    assert all(outputs[0]) and outputs[0] == outputs[1]


def test_dump_compare_reads_numpy_scalar_nodes(tmp_path):
    # a bidisc dump writes its nodes with numpy 2's scalar repr; a node whose
    # real part moved by 2 ulps is a last-bits move, not a different root
    dump = Path(lempertpoles.__file__).resolve().parents[2] / "scripts" / "dump_outputs.py"
    x = 0.6577377488508837
    line = ("0 bidisc_lempert [NodeConfig(subset=[[0, 0], [1, 1]], nodes=[np.complex128({!r}"
            "-0.26631177689179863j), np.complex128(-0.6697180251524897+0.3004992053129278j)], "
            "value=0.2713188796693957, coord_targets=[], margins=[2.6e-14, 3.1e-14]), "
            "0.2713188796693957]\n")
    paths = [tmp_path / "old.txt", tmp_path / "new.txt"]
    for path, real in zip(paths, (x, math.nextafter(math.nextafter(x, 1.0), 1.0))):
        path.write_text(line.format(real))
    report = subprocess.run([sys.executable, str(dump), "--compare", *map(str, paths)],
                            capture_output=True, text=True).stdout.splitlines()
    assert report[0] == "0 bidisc_lempert: nodes (2 ulps), moved 2.22e-16 = 1.41 ulps of |node|"
    assert report[1].endswith("nodes moved on 1, at most 1.41 ulps of |node|, 0 to a different root")
