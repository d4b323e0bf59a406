"""Controls for the benchmark's checkers: each accepts a right output and
rejects the same output made wrong by a small, known amount.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import cmath
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402

# A criterion-8 output of bidisc_lempert at (0, 0), 24 restarts, seed 0.
C8_A, C8_B = (0.5, 0.5j), (0.5, -0.5)
C8_VALUE = 0.2713189085435868
C8_SUBSET = ((0, 0), (0, 1), (1, 0), (1, 1))
C8_NODES = (0.228904313997083 - 0.6973789216758435j, -0.24602035771393796 + 0.6655269770537036j,
            0.6195992966437964 - 0.3460145194438255j, -0.6537956534377426 + 0.3338577763861748j)


def _c8(value, nodes):
    return checks.check_bidisc_failure(C8_A, C8_B, 0j, 0j, value, C8_SUBSET, nodes)


def test_bidisc_oracle_rejects_value_off_by_2e3():
    assert _c8(C8_VALUE, C8_NODES) is None
    assert "oracle" in _c8(C8_VALUE + 2e-3, C8_NODES)
    assert "oracle" in _c8(C8_VALUE - 2e-3, C8_NODES)


def test_pick_check_rejects_nodes_scaled_inward():
    ta, tb = checks.reduced_targets(C8_A, C8_B, 0j, 0j, C8_SUBSET)
    s = 1.0
    while min(checks.pick_min_eig([s * n for n in C8_NODES], t) for t in (ta, tb)) >= -1e-12:
        s -= 1e-6
    scaled = [s * n for n in C8_NODES]
    value = math.prod(abs(n) for n in scaled)  # consistent value: only the Pick test can fail
    assert s > 0.999
    assert "indefinite" in checks.check_pick_nodes(scaled, ta, tb, value)
    assert checks.check_pick_nodes(C8_NODES, ta, tb, C8_VALUE) is None


def test_pick_check_rejects_value_unlike_node_product():
    ta, tb = checks.reduced_targets(C8_A, C8_B, 0j, 0j, C8_SUBSET)
    assert "product" in checks.check_pick_nodes(C8_NODES, ta, tb, C8_VALUE * (1 + 1e-9))


@pytest.mark.parametrize("kind,R,a,z", [
    ("punctured", None, 0.4 + 0.2j, -0.3 + 0.1j),
    ("annulus", 0.3, 0.6 + 0.1j, 0.5 + 0j),
    ("annulus", 0.8, 0.825 * cmath.exp(1.1j), 0.855 * cmath.exp(-2j)),
])
def test_green_check_rejects_value_off_by_1e6_relative(kind, R, a, z):
    from lempertpoles.covering_domains import PlaneDomain, green_plane

    dom = PlaneDomain(kind, R=R)
    value, tail = green_plane(dom, a, z)
    assert checks.check_green(kind, R, a, z, value, tail) is None
    for sign in (+1, -1):
        assert checks.check_green(kind, R, a, z, value * (1 + sign * 1e-6), tail) is not None


def test_annulus_reference_is_one_on_both_circles_and_symmetric():
    R, a = 0.4, 0.55 * cmath.exp(0.7j)
    for r in (R, 1.0):
        for t in (0.0, 1.3, 2.9):
            assert abs(checks.annulus_green(a, r * cmath.exp(1j * t), R) - 1.0) < 1e-12
    z = 0.8 * cmath.exp(-2.2j)
    assert abs(checks.annulus_green(a, z, R) - checks.annulus_green(z, a, R)) < 1e-13


def test_certificate_check_rejects_node_moved_by_1e6():
    from lempertpoles.covering_domains import PlaneDomain
    from lempertpoles.disc_domain import PoleSet
    from lempertpoles.product_engine import theorem5_bounds

    A, b, z, w = (0.12 + 0.02j, -0.05 + 0.13j), -0.43 + 0.14j, 0.1 + 0j, 0.4 + 0j
    rep = theorem5_bounds(PlaneDomain("disc"), PlaneDomain("annulus", R=0.1), PoleSet(points=A),
                          b, z, w)
    eta = list(rep.certificate_nodes)

    def check(nodes):
        return checks.check_certificate(rep.certificate, nodes, A, b, z, w, rep.lower,
                                        rep.upper, rep.meta["l_D_A"], disc_disc=False)

    assert check(eta) is None
    for j in range(len(eta)):
        for step in (1e-6, 1e-6j):
            moved = list(eta)
            moved[j] += step * eta[j] / abs(eta[j])
            assert check(moved) is not None


def test_lempert_check_rejects_value_below_green_product():
    g = checks.annulus_green(0.6 + 0.1j, 0.5, 0.3)
    assert checks.check_lempert(g * (1 + 1e-9), [g]) is None
    assert checks.check_lempert(g * (1 - 1e-9), [g]) is not None
    assert checks.check_lempert(1.0, [g]) is not None
