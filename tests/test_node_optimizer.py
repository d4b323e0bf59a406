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
    DIRECTION_BLOCK,
    LB_SKIP_MARGIN,
    OptimizerSettings,
    _compass,
    _compass_chunk,
    _compass_item,
    _barrier_derivatives,
    _barrier_value,
    _Coord,
    _finish,
    _margins,
    _one_minus_outer,
    _pair_level,
    _penalized,
    _pick_violation,
    _polish,
    _repair,
    _restart_starts,
    _Rows,
    bidisc_lempert,
    mixed_product_upper,
)
from lempertpoles.product_engine import theorem5_bounds

FAST = OptimizerSettings(restarts=48, seed=0, max_iterations=1200)
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
    _, small = _restart_starts(subset, coords, OptimizerSettings(restarts=20, seed=3), key)
    _, big = _restart_starts(subset, coords, OptimizerSettings(restarts=70, seed=3), key)
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


def _lifted(lifts):
    """A coordinate whose poles have several lift candidates, exact data."""
    lifts = np.array(lifts, dtype=complex)
    return _Coord(lifts, np.zeros(lifts.shape))


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
    """(starts, coords, polished) of every polish call of criterion 8 at 48
    restarts, recorded around `_polish`."""
    calls = []
    polish = node_optimizer._polish

    def recording(starts, coords):
        out = polish(starts, coords)
        calls.append((starts, coords, out))
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
    # every polished row ends its last stage on the decrement test, not on
    # the step cap or a failed line search
    decrements = []
    for starts, coords, out in session_cache("c8_polish_48", _c8_polish_calls):
        nums = np.stack([_one_minus_outer(c.batch_targets(starts)) for c in coords], axis=1)
        assert len(out) == len(starts) == 2
        decrements.extend(_last_stage_decrement(out, nums))
    assert len(decrements) == 14 and max(decrements) < 1e-14


def test_polish_row_has_the_same_bits_alone_and_in_a_batch(session_cache):
    for starts, coords, out in session_cache("c8_polish_48", _c8_polish_calls):
        assert np.array_equal(_polish(starts, coords), out)
        swapped = _polish(starts[::-1].copy(), coords)
        for r in range(2):
            alone = _polish(starts[r:r + 1].copy(), coords)
            assert np.array_equal(alone[0], out[r]) and np.array_equal(swapped[1 - r], out[r])


def test_polish_starts_only_inside_the_feasible_set(monkeypatch, session_cache):
    # candidates up to NEAR_FEASIBLE_TOL = 1e-6 outside the feasible set (a
    # polished criterion-8 row scaled inward) are scaled back to strict
    # feasibility by the repair, or skipped, before the Newton iteration
    # evaluates any derivative
    starts, coords, out = session_cache("c8_polish_48", _c8_polish_calls)[-1]
    raw = np.array([out[0] * (1.0 - e) for e in (1e-10, 1e-8, 3e-7)])
    den = _one_minus_outer(raw)
    viol = np.maximum(*(_pick_violation(c.pick_num(raw), den) for c in coords))
    assert np.all((viol > 0.0) & (viol <= node_optimizer.NEAR_FEASIBLE_TOL))
    nums = np.stack([_one_minus_outer(c.batch_targets(raw)) for c in coords], axis=1)
    assert np.all(np.isinf(_barrier_value(raw, nums, BARRIER_MU[0])))
    assert _polish(raw, coords).shape == (0, 4)

    seen, derivatives = [], node_optimizer._barrier_derivatives

    def checked(lam, nums, mu):
        seen.append(len(lam))
        assert np.all(np.isfinite(_barrier_value(lam, nums, mu)))
        return derivatives(lam, nums, mu)

    monkeypatch.setattr(node_optimizer, "_barrier_derivatives", checked)
    cfg = _finish(((0, 0), (0, 1), (1, 0), (1, 1)), coords, raw)
    assert sum(seen) > 0 and min(cfg.margins) > 0.0
    assert cfg.value <= np.prod(np.abs(out[0])) * (1.0 + 1e-9)


@pytest.mark.parametrize("restarts", [4, 24, 96])
def test_rotation_congruent_moved_instance_prunes_after_first_subset(monkeypatch, restarts):
    # the first pair subset must land within LB_SKIP_MARGIN of |a1 a2|, so
    # every other subset is pruned by its lower bound before it enters the
    # compass, also where the rest of its size level would run in one batch
    A0 = np.array([-0.146574 - 0.417096j, -0.165564 + 0.601919j])
    B0 = np.exp(-3.036411j) * A0
    z, w = -0.147264 - 0.089353j, 0.284063 - 0.080081j
    A = PoleSet(points=tuple(complex(moebius(z, a)) for a in A0))
    B = PoleSet(points=tuple(complex(moebius(w, b)) for b in B0))
    compassed = []
    compass = node_optimizer._compass

    def counting_compass(items, settings):
        compassed.extend(item[0] for item in items)
        return compass(items, settings)

    monkeypatch.setattr(node_optimizer, "_compass", counting_compass)
    _, v = bidisc_lempert(A, B, z, w, OptimizerSettings(restarts=restarts, seed=1))
    a1, a2 = (complex(moebius(z, a)) for a in A)
    exact = abs(a1 * a2)
    assert abs(v - exact) <= LB_SKIP_MARGIN
    assert v >= exact - 1e-12
    assert len(compassed) == 1


def test_compass_hands_off_to_the_polish(monkeypatch):
    # the compass stops at a coarse step and leaves the last digits to the
    # polish: the result matches a compass refined to 1e-9 at a fraction of
    # its penalty calls
    calls = []
    penalized = node_optimizer._penalized

    def counting_penalized(*args, **kwargs):
        calls.append(1)
        return penalized(*args, **kwargs)

    monkeypatch.setattr(node_optimizer, "_penalized", counting_penalized)
    settings = OptimizerSettings(restarts=48, seed=0)
    cfg, v = bidisc_lempert(FAILURE_A, FAILURE_B, 0, 0, settings)
    shipped = len(calls)
    monkeypatch.setattr(node_optimizer, "TOLERANCE", 1e-9)
    ref_cfg, ref_v = bidisc_lempert(FAILURE_A, FAILURE_B, 0, 0, settings)
    reference = len(calls) - shipped
    assert cfg.subset == ref_cfg.subset and len(cfg.subset) == 4
    assert v == pytest.approx(ref_v, rel=1e-9, abs=0.0)
    assert len(cfg.margins) == len(ref_cfg.margins) == 2
    assert min(cfg.margins) > 0.0 and min(ref_cfg.margins) > 0.0
    assert shipped <= 0.6 * reference


def test_pruned_subsets_build_no_coordinates(monkeypatch):
    # on criterion 8's instance the singletons give 0.5, which prunes the
    # four pair subsets of size 2 that repeat a pole in one coordinate; only
    # the subsets that enter the compass get their two coordinates built
    built, compassed = [], []
    post_init, compass = _Coord.__post_init__, node_optimizer._compass

    def counting_post_init(self):
        built.append(self.lifts.shape[0])
        post_init(self)

    def counting_compass(items, settings):
        compassed.extend(item[0] for item in items)
        return compass(items, settings)

    monkeypatch.setattr(_Coord, "__post_init__", counting_post_init)
    monkeypatch.setattr(node_optimizer, "_compass", counting_compass)
    bidisc_lempert(FAILURE_A, FAILURE_B, 0, 0,
                   OptimizerSettings(restarts=4, seed=0, max_iterations=200))
    pruned = {((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 1))}
    assert len(compassed) == 7 and not pruned & set(compassed)
    # the two factor coordinates, then two per compassed subset
    assert built == [2, 2] + [len(subset) for subset in compassed for _ in range(2)]


def _assert_bit_identical(num, den):
    got = _pick_violation(num, den)
    want = np.maximum(0.0, -np.linalg.eigvalsh(num / den)[:, 0])
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    return got


def _kernel_coords(rng, m):
    # disc targets, and plane lifts assigned per row by nearest lift
    cover = build_cover(PlaneDomain("annulus", R=0.1), 0.45)
    disc = 0.6 * np.sqrt(rng.random(m)) * np.exp(2j * np.pi * rng.random(m))
    poles = (0.2 + 0.7 * rng.random(m)) * np.exp(2j * np.pi * rng.random(m))
    lifts = [np.asarray(cover.lifts(p, 6).eta[:6], dtype=complex) for p in poles]
    return [_fixed(disc), _lifted(lifts)]


def test_pick_violation_equals_eigvalsh_on_random_configurations():
    rng = np.random.default_rng(23)
    screened = violated = 0
    for m in range(1, 9):
        for radius in (0.7, 0.95, 1.01):
            lam = radius * np.sqrt(rng.random((300, m))) * np.exp(2j * np.pi * rng.random((300, m)))
            for coord in _kernel_coords(rng, m):
                got = _assert_bit_identical(coord.pick_num(lam), _one_minus_outer(lam))
                screened += np.count_nonzero(got == 0.0)
                violated += np.count_nonzero(got > 0.0)
    # both branches of the kernel are exercised
    assert screened > 1000 and violated > 1000


def test_pick_violation_equals_eigvalsh_at_modulus_cap():
    rng = np.random.default_rng(29)
    for m in range(1, 9):
        theta = np.sort(rng.random((200, m)), axis=1) + np.arange(m) / m
        lam = 0.9999995 * np.exp(2j * np.pi * theta)
        lam[:100, 0] *= 0.5  # one node moved inward
        for coord in _kernel_coords(rng, m):
            _assert_bit_identical(coord.pick_num(lam), _one_minus_outer(lam))


def _hermitian_with_min_eig(rng, n, rel):
    """Hermitian matrix whose smallest eigenvalue is rel * max_i H_ii."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mu = np.concatenate([[0.0], 0.5 + rng.random(n - 1)])
    scale = np.max(np.real(np.einsum("ik,k,ik->i", Q, mu, np.conj(Q))))
    mu[0] = rel * scale
    return (Q * mu) @ np.conj(Q).T


def test_pick_violation_equals_eigvalsh_near_singular():
    rng = np.random.default_rng(31)
    for n in range(2, 10):
        rel = np.concatenate([-(10.0 ** rng.uniform(-16, -9, 60)),
                              10.0 ** rng.uniform(-16, -9, 60), [0.0]])
        H = np.array([_hermitian_with_min_eig(rng, n, r) for r in rel])
        _assert_bit_identical(H, np.ones_like(H))


def test_pick_violation_never_screens_an_indefinite_matrix():
    # negative control: lambda_min = -1e-13 max H_ii lies far inside the
    # screen margin, so the factorization must fail and eigvalsh must report it
    rng = np.random.default_rng(37)
    for n in range(2, 10):
        H = np.array([_hermitian_with_min_eig(rng, n, -1e-13) for _ in range(50)])
        got = _pick_violation(H, np.ones_like(H))
        assert np.all(got > 0.0)
        assert np.allclose(got / H.diagonal(axis1=1, axis2=2).real.max(axis=1), 1e-13,
                           rtol=1e-2)


@pytest.mark.parametrize("m", [2, 5])
def test_compass_directions_are_per_iteration_draws(monkeypatch, m):
    # with x = 0 and power-of-two steps every probe is its direction times the
    # step exactly, so the directions can be read back from the penalty calls
    n = 3
    d, ndir = 2 * m, 4 * m + 2
    iterations = 3 * DIRECTION_BLOCK + 1
    step0 = np.array([1.0, 2.0 ** -20, 2.0 ** -27])  # two drop out mid-block
    monkeypatch.setattr(node_optimizer, "TOLERANCE", 2.0 ** -30)
    monkeypatch.setattr(node_optimizer, "STEP_DECAY", 0.5)
    settings = OptimizerSettings(max_iterations=iterations)
    calls = []

    def spy(lam, rows, weight, thr=None):
        calls.append(lam.copy())
        return np.zeros(len(lam))  # no probe is ever accepted

    monkeypatch.setattr(node_optimizer, "_penalized", spy)
    gens = [np.random.default_rng(100 + r) for r in range(n)]
    _compass_chunk(np.zeros((n, d)), step0.copy(), np.ones(n), gens, _Rows([[]], np.array([0, n])),
                   settings)

    ref_gens = [np.random.default_rng(100 + r) for r in range(n)]
    for it, lam in enumerate(calls[1:]):
        steps = step0 * 0.5 ** it
        active = np.nonzero(steps >= node_optimizer.TOLERANCE)[0]
        lam = lam.reshape(len(active), ndir + 1, m)[:, :ndir]
        for i, r in enumerate(active):
            got = np.empty((ndir, d))
            got[:, 0::2] = lam[i].real / steps[r]
            got[:, 1::2] = lam[i].imag / steps[r]
            v = ref_gens[r].standard_normal((ndir, d))
            assert np.array_equal(got, v / np.linalg.norm(v, axis=1, keepdims=True))
    assert len(calls) == 1 + iterations


def _level_items(kind):
    # the six pair subsets of size 2 of a 2 x 2 instance, disc x disc or
    # disc x annulus, from the level builder of the entry points
    rng = np.random.default_rng(41)
    ta = 0.6 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
    tb = 0.6 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
    cover = build_cover(PlaneDomain("annulus", R=0.1), 0.45)
    lifts = [np.asarray(cover.lifts(p, 6).eta[:6], dtype=complex) for p in (0.4j, -0.3 + 0.2j)]
    cb = _fixed(tb) if kind == "disc" else _lifted(lifts)
    ca = _fixed(ta)
    return [_compass_item(ca, cb, subset) for subset, _ in _pair_level(ca, cb, 2)]


@pytest.mark.parametrize("kind", ["disc", "annulus"])
def test_lockstep_batch_reproduces_each_solo_run(monkeypatch, kind):
    # the ramp is brought forward so that the re-evaluation after it runs too
    monkeypatch.setattr(node_optimizer, "PENALTY_RAMP_EVERY", 60)
    settings = OptimizerSettings(restarts=6, seed=5, max_iterations=160)
    items = _level_items(kind)
    batch = _compass(items, settings)
    for item, got in zip(items, batch):
        solo = _compass([item], settings)[0]
        assert got.shape == solo.shape == (6, 2)
        assert np.array_equal(got, solo)


def _penalty_by_eigvalsh(lam, slices, weight):
    # the penalized objective with every Pick matrix given to eigvalsh, its
    # value at zero penalty, and whether all Pick matrices pass the screen
    N, m = lam.shape
    am = np.abs(lam)
    obj = np.prod(am, axis=1)
    outside = np.maximum(0.0, am.max(axis=1) - 0.9999995)
    coll = np.zeros(N)
    for i in range(m):
        for j in range(i + 1, m):
            coll += np.maximum(0.0, 1e-8 - np.abs(lam[:, i] - lam[:, j]))
    pen = np.zeros(N)
    passed = np.ones(N, dtype=bool)
    den = _one_minus_outer(lam)
    for c in range(2):
        H = np.concatenate([coords[c].pick_num(lam[lo:hi]) / den[lo:hi]
                            for coords, lo, hi in slices])
        pen += np.maximum(0.0, -np.linalg.eigvalsh(H)[:, 0])
        passed &= ~node_optimizer._screen_fails(H)
    return (obj + weight * (pen + coll) + 1e7 * outside, obj + weight * coll + 1e7 * outside,
            passed)


def test_loser_proof_drops_only_rows_that_cannot_be_accepted():
    rng = np.random.default_rng(43)
    restarts, probes = 40, 9
    proved = 0
    for kind in ("disc", "annulus"):
        items = _level_items(kind)[:3]
        rows = _Rows([item[1] for item in items], np.array([0, 10, 30, 40]) * probes)
        for _ in range(4):
            # probes scattered around a centre per restart, some outside the disc
            centre = 0.8 * np.sqrt(rng.random((restarts, 1, 2))) * np.exp(
                2j * np.pi * rng.random((restarts, 1, 2)))
            spread = 10.0 ** rng.uniform(-4, -0.5, (restarts, 1, 1))
            lam = (centre + spread * (rng.standard_normal((restarts, probes, 2))
                                      + 1j * rng.standard_normal((restarts, probes, 2))))
            lam = lam.reshape(restarts * probes, 2)
            weight = np.repeat(rng.choice([0.0, 1e4, 1e6, 1e8], restarts), probes)
            want, base, passed = _penalty_by_eigvalsh(lam, list(rows.slices()), weight)
            # thresholds at random quantiles of each restart's probe values,
            # and for a few restarts below all of them
            w2 = want.reshape(restarts, probes)
            thr = np.array([np.quantile(row, u) for row, u in zip(w2, rng.random(restarts))])
            thr[:6] = w2[:6].min(axis=1) - 1e-3
            got = _penalized(lam, rows, weight, thr)
            kept = np.isfinite(got)
            assert np.array_equal(got[kept], want[kept])
            # a dropped row is beaten by the threshold, or by a probe of its
            # restart whose Pick matrices all pass the screen
            cut = np.minimum(thr, np.where(passed, want, np.inf).reshape(restarts, probes).min(1))
            thr_r, cut_r = np.repeat(thr, probes), np.repeat(cut, probes)
            assert np.all((want[~kept] >= thr_r[~kept]) | (want[~kept] > cut_r[~kept]))
            # so every restart accepts the same probe with the same value
            accept = w2.min(axis=1) < thr
            g2 = got.reshape(restarts, probes)
            assert np.array_equal(g2.min(axis=1) < thr, accept)
            assert np.array_equal(g2.argmin(axis=1)[accept], w2.argmin(axis=1)[accept])
            proved += np.count_nonzero(~kept & (base < thr_r) & (base <= cut_r))
    # the shifted-Cholesky proof, not only the comparisons of base, drops rows
    assert proved > 100


def test_loser_proof_keeps_a_probe_tied_with_the_cut():
    # probe 0 sits just inside the feasibility boundary of coordinate B
    # (lambda_min = 1.3e-11): it fails the screen, but eigvalsh gives it
    # pen = 0.  Probe 1 multiplies its first node by i, keeping every
    # modulus, and passes the screen, so the cut is probe 0's own value.
    # Probe 0 is the first least probe of its restart and must stay.
    ta = np.array([0.46307792222749516 + 0.12192229238818252j,
                   0.30996708954909524 + 0.032305113394886564j])
    tb = np.array([-0.42411312080413976 - 0.3360139087506219j,
                   -0.07364328054252924 - 0.5684792652779115j])
    row0 = np.array([-0.8022087690197053 - 0.22556620798239496j,
                     0.5929179532418191 - 0.25625823946186904j])
    lam = np.array([row0, row0 * np.array([1j, 1])])
    rows = _Rows([_disc_coords(ta, tb)], np.array([0, 2]))
    weight = np.full(2, 1e4)
    want, base, passed = _penalty_by_eigvalsh(lam, list(rows.slices()), weight)
    assert list(passed) == [False, True] and want[0] == want[1] == base[0]
    got = _penalized(lam, rows, weight, np.array([1.0]))
    assert np.array_equal(got, want)


def _spectrum_matrix(rng, n, lam_min):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mu = np.concatenate([[lam_min], 0.5 + rng.random(n - 1)])
    return (Q * mu) @ np.conj(Q).T


def _split_pair_matrix(rng, n, b):
    # I + b (e_i e_j^T + e_j e_i^T), b real: eigenvalues 1 - b, 1 + b and 1, exactly
    i, j = rng.choice(n, 2, replace=False)
    H = np.eye(n, dtype=complex)
    H[i, j] = H[j, i] = b
    return H


def test_loser_proof_never_drops_a_violation_below_its_cut():
    rng = np.random.default_rng(47)
    for n in range(2, 10):
        # lambda_min = -t (1 - 1e-9) with t from 1e-14 to 0.4 max_i H_ii
        t = 10.0 ** rng.uniform(-14, -0.4, 80)
        H = np.array([_spectrum_matrix(rng, n, -s * (1 - 1e-9)) for s in t])
        assert not np.any(node_optimizer._proves_violation(H, t))
        # a violation of t (1 + 1e-5) + 1e-9 max_i H_ii lies beyond the slack
        H = np.array([_spectrum_matrix(rng, n, -s * (1 + 1e-5) - 1e-9 * 1.5) for s in t])
        assert np.all(node_optimizer._proves_violation(H, t))
        # violations b - 1 far above max_i H_ii = 1, exact in floats, with t
        # one part in 1e9, or one ulp, above them
        b = 1.0 + 10.0 ** rng.uniform(0, 12, 80)
        H = np.array([_split_pair_matrix(rng, n, s) for s in b])
        for t in ((b - 1.0) * (1 + 1e-9), np.nextafter(b - 1.0, np.inf)):
            assert not np.any(node_optimizer._proves_violation(H.copy(), t))


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
