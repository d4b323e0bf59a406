import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lempertpoles.complex_kernel import (
    BlaschkeDisc,
    equal_root_moduli,
    moebius,
    moebius_error,
    pick_margin,
    solve_node_quadratic,
)

disc_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)
radii = st.floats(min_value=0.0, max_value=0.999)


def test_moebius_trivia():
    a = 0.3 + 0.2j
    assert moebius(a, 0) == pytest.approx(a)
    assert abs(moebius(a, a)) < 1e-15
    assert moebius(0, 0.4 - 0.1j) == pytest.approx(-(0.4 - 0.1j))


@given(disc_points, disc_points)
@settings(max_examples=500)
def test_moebius_involution(alpha, z):
    assert abs(moebius(alpha, moebius(alpha, z)) - z) < 1e-13


def test_moebius_involution_bulk():
    rng = np.random.default_rng(0)
    alpha = 0.98 * np.sqrt(rng.random(10_000)) * np.exp(2j * np.pi * rng.random(10_000))
    z = 0.98 * np.sqrt(rng.random(10_000)) * np.exp(2j * np.pi * rng.random(10_000))
    back = moebius(alpha, moebius(alpha, z))
    assert np.max(np.abs(back - z)) < 1e-13


def test_blaschke_degree_zero_rotation():
    b = BlaschkeDisc(phase=0.7, zeros=(0,))
    z = 0.3 + 0.1j
    assert b.eval(z) == pytest.approx(-np.exp(0.7j) * z)


def test_blaschke_vanishing_factor():
    b = BlaschkeDisc(phase=0.0, zeros=(0, 0.4))
    assert b.eval(0) == 0


@given(st.lists(disc_points, min_size=1, max_size=4), st.floats(0, 2 * np.pi))
@settings(max_examples=200)
def test_blaschke_unimodular_on_circle(zeros, t):
    b = BlaschkeDisc(phase=0.3, zeros=tuple(zeros))
    assert abs(abs(b.eval(np.exp(1j * t))) - 1.0) < 1e-12


@given(st.lists(disc_points, min_size=0, max_size=3), disc_points)
@settings(max_examples=300)
def test_schwarz_pick_zero_at_origin(zeros, z):
    b = BlaschkeDisc(phase=1.1, zeros=(0, *zeros))
    assert abs(b.eval(z)) <= abs(z) + 1e-12


def test_normalized_blaschke_value_at_zero():
    zeros = (0.3, 0.4j, -0.2 + 0.1j)
    b = BlaschkeDisc.normalized_from_zeros(zeros)
    assert b.eval(0) == pytest.approx(np.prod([abs(z) for z in zeros]), abs=1e-14)


def test_quadratic_paper_anchor_a0():
    # a = 0, mu = -r^2: roots are +-r with common modulus sqrt|mu|
    z, w = solve_node_quadratic(0.0, -0.25)
    assert {round(z.real, 12), round(w.real, 12)} == {0.5, -0.5}
    assert z.imag == w.imag == 0


def test_quadratic_limit_a_to_1():
    mu = 0.3 + 0.2j
    z, w = solve_node_quadratic(1 - 1e-6, mu)
    assert abs(abs(z) - abs(mu)) < 1e-3
    assert abs(abs(w) - 1.0) < 1e-3


@given(radii, disc_points.filter(lambda m: abs(m) > 1e-6))
@settings(max_examples=500)
def test_quadratic_vieta_and_ordering(a, mu):
    z, w = solve_node_quadratic(a, mu)
    assert abs(abs(z) * abs(w) - abs(mu)) < 1e-13
    assert abs(z) <= np.sqrt(abs(mu)) + 1e-12 <= abs(w) + 2e-12
    # both roots solve the quadratic and lie in the disc
    for r in (z, w):
        assert abs(r * r - a * (1 + mu) * r + mu) < 1e-12
        assert abs(r) < 1.0


@given(radii, disc_points.filter(lambda m: abs(m) > 1e-3))
@settings(max_examples=200)
def test_root_moduli_continuous_in_a(a, mu):
    h = 1e-7
    a2 = min(a + h, 1 - 1e-9)
    z1, w1 = solve_node_quadratic(a, mu)
    z2, w2 = solve_node_quadratic(a2, mu)
    # finite differences stay bounded away from jumps
    assert abs(abs(z2) - abs(z1)) < 1e-3
    assert abs(abs(w2) - abs(w1)) < 1e-3


@pytest.mark.parametrize("a", [0.5, 1e-160, 1e-300])
def test_zero_target_roots_are_0_and_a_below_the_underflow(a):
    # b*b = a^2 underflows to 0 below a = 1e-154, so the discriminant test
    # b^2 <= 4 mu alone would call the roots 0 and a equal
    assert not equal_root_moduli(a, 0j) and equal_root_moduli(0.0, 0j)
    assert solve_node_quadratic(a, 0j) == (0j, complex(a))


def test_quadratic_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_node_quadratic(1.0, 0.1)
    with pytest.raises(ValueError):
        solve_node_quadratic(0.5, 1.0 + 0j)


def test_pick_trivia():
    assert pick_margin((0,), (0,)) > 0.0
    assert pick_margin((0, 0.5), (0, 0.3)) > 0.0
    # |target| > |node|: no self-map of the disc fixing 0 exists
    assert pick_margin((0, 0.5), (0, 0.9)) == 0.0
    # the identity is feasible but its Pick matrix is singular: not certified
    assert pick_margin((0, 0.5), (0, 0.5)) == 0.0
    # data off the open disc is never certified, though this H = [0.35] > 0
    assert pick_margin((1.5,), (1.2,)) == 0.0
    assert pick_margin((0.5,), (1.0,)) == 0.0


def test_pick_coincident_nodes_error():
    # a node cannot carry two targets, and a repeated pair makes the Pick
    # matrix singular: coincident nodes are never certified
    assert pick_margin((0, 0.5, 0.5), (0, 0.1, 0.2)) == 0.0
    assert pick_margin((0, 0.5, 0.5), (0, 0.1, 0.1)) == 0.0
    assert pick_margin((0, 0.5, -0.5), (0, 0.1, 0.1)) > 0.0


@given(st.floats(0, 2 * np.pi))
@settings(max_examples=100)
def test_pick_rotation_invariance(t):
    nodes = (0, 0.5, -0.3 + 0.4j)
    targets = (0, 0.2 + 0.1j, -0.25j)
    rot = np.exp(1j * t)
    c1 = pick_margin(nodes, targets)
    c2 = pick_margin(rot * np.asarray(nodes), rot * np.asarray(targets))
    assert c1 > 0.0 and c2 > 0.0
    assert abs(c1 - c2) <= 1e-9 * c1


def _near_boundary_configurations(rng, m, radius, count, perturb=True):
    """Nodes of modulus `radius` and targets g(nodes) * (1 +- eps) for a
    random degree-2 inner map g(z) = e^{it} z Phi_b(z), whose Pick matrix is
    singular for m >= 2.  eps runs log-uniform over 1e-16..1e-3, so the
    configurations lie on both sides of the feasibility boundary; without
    `perturb` the targets are the float values of g, whose exact Pick
    matrices are singular ones moved by rounding alone."""
    for _ in range(count):
        theta = (np.arange(m) + rng.random(m)) / m
        lam = radius * np.exp(2j * np.pi * theta)
        b = 0.5 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        w = np.exp(2j * np.pi * rng.random()) * lam * moebius(b, lam)
        if perturb:
            w = w * (1.0 + 10.0 ** rng.uniform(-16, -3) * rng.choice((-1.0, 1.0)))
        if np.max(np.abs(w)) < 1.0:
            yield np.concatenate([[0j], lam]), np.concatenate([[0j], w])


def test_pick_margin_certifies_only_positive_definite_matrices(pick_oracle):
    # every certified configuration has a positive smallest eigenvalue in
    # 50-digit arithmetic on the same floats
    rng = np.random.default_rng(41)
    certified = rejected = 0
    for m in range(1, 9):
        for radius in (0.7, 0.95, 0.9999995):
            for lam, w in _near_boundary_configurations(rng, m, radius, 6):
                if pick_margin(lam, w) > 0.0:
                    certified += 1
                    assert pick_oracle.min_eig(lam, w) > 0.0, (lam, w)
                else:
                    rejected += 1
    assert certified > 20 and rejected > 20


def test_pick_margin_on_rounded_singular_data(pick_oracle):
    # here float Cholesky without the margin, or a margin without the entry
    # rounding bound, certifies matrices that are indefinite at 50 digits
    rng = np.random.default_rng(59)
    certified = 0
    for m in range(1, 9):
        for radius in (0.95, 0.9999995):
            for lam, w in _near_boundary_configurations(rng, m, radius, 20, perturb=False):
                if pick_margin(lam, w) > 0.0:
                    certified += 1
                    assert pick_oracle.min_eig(lam, w) > 0.0, (lam, w)
    assert certified > 20


def test_pick_margin_batch_matches_single():
    rng = np.random.default_rng(43)
    configs = list(_near_boundary_configurations(rng, 4, 0.95, 12))
    lam = np.array([c[0] for c in configs])
    w = np.array([c[1] for c in configs])
    batch = pick_margin(lam, w)
    assert batch.shape == (len(configs),)
    assert np.array_equal(batch, np.concatenate([pick_margin(l, t) for l, t in zip(lam, w)]))


def test_moebius_error_bounds_50_digit_moebius(pick_oracle):
    rng = np.random.default_rng(47)
    for radius in (0.5, 0.99, 0.9999995):
        alpha = radius * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        z = radius * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        for a, x in zip(alpha, z):
            err = abs(pick_oracle.num(moebius(a, x)) - pick_oracle.moebius(a, x))
            assert err <= moebius_error(a, x)
