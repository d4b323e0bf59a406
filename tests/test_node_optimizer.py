import itertools

import numpy as np
import pytest

from lempertpoles.acceptance import GRID_ORACLE_DELTA, c8_theorem7_failure
from lempertpoles.complex_kernel import moebius, moebius_error
from lempertpoles.covering_domains import PlaneDomain, build_cover
from lempertpoles.disc_domain import PoleSet, lempert_disc
from lempertpoles import node_optimizer
from lempertpoles.node_optimizer import (
    DIRECTION_BLOCK,
    LB_SKIP_MARGIN,
    OptimizerSettings,
    _compass,
    _compass_chunk,
    _Coord,
    _margins,
    _one_minus_outer,
    _penalized,
    _pick_min_eig_grad,
    _pick_violation,
    _product_grad,
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


def test_singletons_exact():
    cfg, v = bidisc_lempert(PoleSet(points=(0.3,)), PoleSet(points=(0.6j,)), 0, 0, FAST)
    assert v == pytest.approx(0.6)
    cfg, v = bidisc_lempert(PoleSet(points=(0.7,)), PoleSet(points=(0.2,)), 0, 0, FAST)
    assert v == pytest.approx(0.7)


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
    coords = [_Coord("disc", ta, None), _Coord("disc", tb, None)]
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
        floor = max(lempert_disc(A, z).value, lempert_disc(B, w).value)
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


def _disc_coords(ta, tb, err_a=0.0, err_b=0.0):
    return [_Coord("disc", np.asarray(ta), None, err_a), _Coord("disc", np.asarray(tb), None, err_b)]


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
    with pytest.raises(ValueError):
        bidisc_lempert(PoleSet(points=tuple(0.1 * k + 0.1j for k in range(1, 6))),
                       PoleSet(points=(0.5,)), 0, 0, FAST)


def test_mixed_upper_disc_singleton_matches_theorem5():
    D = PlaneDomain("disc")
    G = PlaneDomain("disc")
    A = PoleSet(points=(0.5, 0.5j))
    b = 0.3 - 0.2j
    z, w = 0.1 + 0.05j, -0.2 + 0.1j
    rep = theorem5_bounds(D, G, A, b, z, w)
    v, cfg = mixed_product_upper(D, G, A, PoleSet(points=(b,)), z, w, FAST)
    assert len(cfg.margins) == 2 and min(cfg.margins) > 0.0
    assert v <= rep.upper + 1e-6
    assert v >= rep.lower - 1e-12


def test_mixed_upper_annulus_factor():
    D = PlaneDomain("disc")
    G = PlaneDomain("annulus", R=0.1)
    A = PoleSet(points=(0.15, 0.1j))
    b = 0.4 * np.exp(2.0j)
    z, w = 0.05, 0.45
    rep = theorem5_bounds(D, G, A, b, z, w)
    v, cfg = mixed_product_upper(D, G, A, PoleSet(points=(b,), domain=G), z, w, FAST)
    assert len(cfg.margins) == 2 and min(cfg.margins) > 0.0
    # sound upper bound: above the Theorem 5 lower bound, at or below the
    # Lemma 4 certificate value up to optimizer tolerance
    assert v >= rep.lower - 1e-12
    assert v <= rep.upper + 1e-4


def test_mixed_upper_degree_cap_monotone():
    D = PlaneDomain("disc")
    G = PlaneDomain("annulus", R=0.1)
    A = PoleSet(points=(0.15, 0.1j))
    b = 0.4 * np.exp(2.0j)
    v2, _ = mixed_product_upper(D, G, A, PoleSet(points=(b,), domain=G), 0.05, 0.45,
                                FAST, degree_cap=2)
    v1, _ = mixed_product_upper(D, G, A, PoleSet(points=(b,), domain=G), 0.05, 0.45,
                                FAST, degree_cap=1)
    assert v1 >= v2 - 1e-12


def test_mixed_upper_degree_cap_validation():
    D = PlaneDomain("disc")
    with pytest.raises(ValueError, match="degree"):
        mixed_product_upper(D, D, PoleSet(points=(0.3,)), PoleSet(points=(0.4,)),
                            0, 0, FAST, degree_cap=7)


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


def _gradient_configs():
    # seeded nodes with disc targets, and with frozen plane-lift targets
    rng = np.random.default_rng(17)
    annulus = PlaneDomain("annulus", R=0.1)
    cover = build_cover(annulus, 0.45)
    for m in (2, 3, 4):
        for _ in range(3):
            lam = 0.95 * np.sqrt(rng.random(m)) * np.exp(2j * np.pi * rng.random(m))
            disc = 0.6 * np.sqrt(rng.random(m)) * np.exp(2j * np.pi * rng.random(m))
            poles = (0.2 + 0.7 * rng.random(m)) * np.exp(2j * np.pi * rng.random(m))
            lifts = [np.asarray(cover.lifts(p, 6).eta[:6], dtype=complex) for p in poles]
            plane = _Coord("plane", None, lifts).batch_targets(lam[None, :])[0]
            yield lam, np.array([disc, plane])


def test_pick_eigenvalue_gradient_matches_central_differences():
    for lam, targets in _gradient_configs():
        _, grad = _pick_min_eig_grad(lam, targets)
        numeric = _central_differences(lambda l: _pick_min_eig_grad(l, targets)[0], lam)
        assert grad.shape == (2, 2 * len(lam))
        assert np.max(np.abs(grad - numeric)) <= 1e-6


def test_node_product_gradient_matches_central_differences():
    for lam, _ in _gradient_configs():
        f, grad = _product_grad(lam)
        assert f == pytest.approx(float(np.prod(np.abs(lam))), rel=1e-15)
        numeric = _central_differences(lambda l: _product_grad(l)[0], lam)
        assert np.max(np.abs(grad - numeric)) <= 1e-6


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
    return [_Coord("disc", disc, None), _Coord("plane", None, lifts)]


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
    settings = OptimizerSettings(max_iterations=iterations, tolerance=2.0 ** -30,
                                 step_decay=0.5)
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
        active = np.nonzero(steps >= settings.tolerance)[0]
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
    # disc x annulus, with the coordinates the entry points build
    rng = np.random.default_rng(41)
    ta = 0.6 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
    tb = 0.6 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
    cover = build_cover(PlaneDomain("annulus", R=0.1), 0.45)
    lifts = [np.asarray(cover.lifts(p, 6).eta[:6], dtype=complex) for p in (0.4j, -0.3 + 0.2j)]
    items = []
    for subset in itertools.combinations(itertools.product(range(2), range(2)), 2):
        ca = _Coord("disc", ta[[k for k, l in subset]], None)
        cb = (_Coord("disc", tb[[l for k, l in subset]], None) if kind == "disc"
              else _Coord("plane", None, [lifts[l] for k, l in subset]))
        items.append((subset, [ca, cb], tuple(k * 64 + l for k, l in subset)))
    return items


@pytest.mark.parametrize("kind", ["disc", "annulus"])
def test_lockstep_batch_reproduces_each_solo_run(kind):
    # the ramp is brought forward so that the re-evaluation after it runs too
    settings = OptimizerSettings(restarts=6, seed=5, max_iterations=160, penalty_ramp_every=60)
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
