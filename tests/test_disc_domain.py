import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lempertpoles.complex_kernel import moebius
from lempertpoles.covering_domains import (
    PlaneDomain,
    build_cover,
    green_plane,
    lempert_N_plane,
    lempert_poleset_plane,
    preimage_moduli,
)
from lempertpoles.disc_domain import PoleSet

DISC = PlaneDomain("disc")
disc_points = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)


def moebius_product(points, z) -> float:
    """The closed form on the disc: prod |(z - a) / (1 - conj(a) z)|."""
    return float(np.prod([abs((z - a) / (1.0 - np.conj(a) * z)) for a in points]))


def lempert(points, z) -> float:
    return lempert_poleset_plane(DISC, PoleSet(points=tuple(points), domain=DISC), z).value


def test_single_pole_at_origin():
    assert lempert((0.3 + 0.4j,), 0) == pytest.approx(0.5)


def test_two_pole_product():
    assert lempert((0.5, 0.5j), 0) == pytest.approx(0.25)
    assert lempert((0.5, -0.5), 0) == pytest.approx(0.25)


def test_pole_hit_gives_zero():
    res = lempert_poleset_plane(DISC, PoleSet(points=(0.5, 0.2 + 0.1j)), 0.2 + 0.1j)
    assert res.value == 0.0
    assert any(n == 0 for n in res.nodes)


def test_lempert_N_independent_of_N():
    vals = {lempert_N_plane(DISC, 0.5, 0.0, N).value for N in (1, 3, 7)}
    assert vals == {0.5}


def test_lempert_N_singleton_consistency():
    a, z = 0.3 - 0.2j, 0.1 + 0.4j
    assert lempert_N_plane(DISC, a, z, 1).value == pytest.approx(lempert((a,), z))


@given(st.lists(disc_points, min_size=1, max_size=4, unique_by=lambda z: round(z.real, 6) + 1j * round(z.imag, 6)),
       disc_points)
@settings(max_examples=200)
def test_green_equals_lempert(points, z):
    # the Green product over the poles and the Lempert function both equal
    # the Moebius product
    try:
        A = PoleSet(points=tuple(points))
    except ValueError:
        return
    green = float(np.prod([green_plane(DISC, a, z)[0] for a in A]))
    if z in A.points:
        assert green == lempert(A, z) == 0.0
        return
    want = moebius_product(A, z)
    assert green == pytest.approx(want, rel=1e-14)
    assert lempert(A, z) == pytest.approx(want, rel=1e-14)


def test_pole_set_monotonicity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pts = [0.8 * (rng.random() + 1j * rng.random() - 0.5 - 0.5j) for _ in range(3)]
        z = 0.5 * (rng.random() - 0.5)
        small = lempert(pts[:2], z)
        big = lempert(pts, z)
        assert big <= small + 1e-15


@given(disc_points, disc_points, disc_points.filter(lambda a: abs(a) > 1e-3))
@example(z=-0.5 + 1e-12j, m_center=0.5 + 0j, a=0.5 + 0j)  # the image of z lands 4.8e-13 from a pole
@settings(max_examples=200)
def test_moebius_invariance(z, m_center, a):
    try:
        A = PoleSet(points=(a, -a))
    except ValueError:
        return
    v1 = lempert(A, z)
    v2 = lempert([moebius(m_center, p) for p in A], moebius(m_center, z))
    assert abs(v1 - v2) < 1e-12


def test_certificate_validity():
    rng = np.random.default_rng(9)
    for _ in range(40):
        pts = tuple(0.85 * (rng.random() + 1j * rng.random() - 0.5 - 0.5j) for _ in range(3))
        z = 0.4 * (rng.random() + 1j * rng.random() - 0.5 - 0.5j)
        try:
            A = PoleSet(points=pts)
        except ValueError:
            continue
        res = lempert_poleset_plane(DISC, A, z)
        r = res.certificate
        assert abs(complex(r.eval(0.0)) - z) < 1e-14
        for node, pole in zip(res.nodes, A):
            assert abs(complex(r.eval(node)) - pole) < 1e-11
        assert abs(np.prod([abs(n) for n in res.nodes]) - res.value) < 1e-12
        assert abs(res.value - moebius_product(A, z)) < 1e-12


def test_cover_path_gives_the_moebius_modulus_to_the_bit():
    # the one lift of the disc cover is Phi_z(a); its modulus is the value of
    # l^N for every N, without 1 - (1 - |Phi_z(a)|) or a round trip through log
    rng = np.random.default_rng(12)
    assert lempert_N_plane(DISC, 0.3 + 1e-9, 0.3, 3).value == abs(moebius(0.3 + 0j, 0.3 + 1e-9))
    for r in np.logspace(-12, np.log10(0.99), 300):
        z = complex(0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
        a = complex(moebius(z, r * np.exp(2j * np.pi * rng.random())))
        res = lempert_N_plane(DISC, a, z, int(rng.integers(1, 4)))
        want = abs(moebius(z, a))
        # only a == z is a hit; poles nearer than 1e-12 keep their modulus
        assert res.value == (0.0 if a == z else want), r
        assert preimage_moduli(build_cover(DISC, z), a, 3).tolist() == [want], r


def test_pole_set_validation():
    with pytest.raises(ValueError):
        PoleSet(points=())
    with pytest.raises(ValueError):
        PoleSet(points=(0.5, 0.5))
    with pytest.raises(ValueError):
        PoleSet(points=(1.2,))
    with pytest.raises(ValueError):
        PoleSet(points=tuple(0.001 * k + 0.5j for k in range(65)))
