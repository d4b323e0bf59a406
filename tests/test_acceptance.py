"""Acceptance criteria as pytest cases: one test per criterion, each asserting
the criterion's own pass verdict at its stated tolerance.

Criterion 5 asks for a resolved strict decrease for N = 1..10 on
Annulus(0.3): every decrement positive, and the lift deficits behind them
following the closed-form winding rate exp(-2 pi^2 / log(1/R)) within 1e-3.
An absolute decrement floor is not used: the true decrements fall to ~3e-18
by N = 4 (see the README's criterion 5 notes).
"""

import numpy as np
import pytest

from lempertpoles.acceptance import (
    annulus_winding_rate,
    c1_lemma4_roundtrip,
    c2_lemma4_anchors,
    c3_punctured_green,
    c4_annulus_green,
    c5_monotonicity,
    c6_sandwich,
    c7_theorem7_equality,
    c8_theorem7_failure,
    c9_prop10,
    c10_determinism,
    winding_rate_deviation,
)
from lempertpoles import node_optimizer
from lempertpoles.covering_domains import PlaneDomain, lempert_N_plane

def test_c1_lemma4_roundtrip():
    r = c1_lemma4_roundtrip()
    assert r.details["worst_residual"] <= 1e-9
    assert r.details["worst_product_error"] <= 1e-9
    assert r.details["runtime_s"] < 10.0
    assert r.passed


def test_c2_lemma4_anchors():
    r = c2_lemma4_anchors()
    assert r.details["worst_anchor"] <= 1e-12
    assert r.details["worst_vieta"] <= 1e-12
    assert r.details["worst_g_endpoint"] <= 1e-3
    assert r.details["worst_h_endpoint"] <= 1e-3
    assert r.passed


def test_c3_punctured_green():
    r = c3_punctured_green()
    assert r.details["worst_error"] <= 1e-8
    assert r.details["runtime_s"] < 2.0
    assert r.passed


def test_c4_annulus_green_oracle():
    r = c4_annulus_green()
    assert r.details["worst_rel_error"] <= 1e-6
    assert r.passed


def test_c5_strict_decrease_holds():
    r = c5_monotonicity()
    assert r.details["strict_decrease"]
    assert r.details["sandwich_ok"]


def test_c5_decrement_floor_as_stated():
    # every decrement for N=1..10 is positive and resolved: the deficits
    # behind the decrements decay at the closed-form winding rate within 1e-3
    # relative.  An absolute floor such as 1e-12 is unattainable at
    # Annulus(0.3), where the true decrements reach ~3e-18 by N=4.
    r = c5_monotonicity()
    assert len(r.details["decrements"]) == 10
    assert all(d > 0.0 for d in r.details["decrements"]), r.details["decrements"]
    assert r.details["worst_rate_deviation"] <= 1e-3
    assert r.details["decrement_floor_ok"], (
        f"worst rate deviation {r.details['worst_rate_deviation']:.3e}: "
        f"{r.details['deltas']}")
    assert r.passed


def test_c5_rate_check_rejects_naive_deficits():
    # deficits evaluated as 1 - |eta| lose the decay once they pass machine
    # precision; the rate check must tell them apart from the stable ones
    res = lempert_N_plane(PlaneDomain("annulus", R=0.3), 0.55 * np.exp(1.1j),
                          0.45 * np.exp(-2.0j), 11)
    naive = 1.0 - np.abs(np.asarray(res.nodes))
    assert winding_rate_deviation(naive, annulus_winding_rate(0.3)) > 1e-3
    assert winding_rate_deviation(res.meta["deltas"], annulus_winding_rate(0.3)) <= 1e-3


def test_c6_theorem5_sandwich():
    r = c6_sandwich()
    assert r.details["worst_order_violation"] <= 1e-12
    assert r.details["worst_disc_gap"] <= 1e-9
    assert r.details["min_annulus_strict_gap"] > 1e-6
    assert r.passed


def test_c7_theorem7_equality(session_cache):
    r = session_cache("c7", c7_theorem7_equality)
    assert abs(r.details["value"] - 0.25) <= 1e-6
    assert r.details["value"] >= 0.25 - 1e-12
    assert r.details["runtime_s"] < 30.0
    assert r.passed


def test_c7_negative_control():
    # tampering with the expected value must flip the verdict
    r = c7_theorem7_equality(expected=0.2499, restarts=24)
    assert not r.passed


def test_c8_theorem7_failure_margin(session_cache):
    r = session_cache("c8", c8_theorem7_failure)
    assert r.details["delta"] > 0
    assert abs(r.details["delta"] - r.details["delta_oracle"]) <= 1e-3
    # the optimum is realized on the full 4-pair subset (grid oracle)
    assert len(r.details["subset"]) == 4
    assert r.passed


def test_c9_prop10_construction(session_cache):
    r = session_cache("c9", c9_prop10)
    assert max(r.details["equal_errors"]) <= 1e-10
    assert r.details["condition4_margin"] > 1e-6
    assert r.passed


def test_c10_determinism():
    r = c10_determinism()
    assert r.details["restarts"] == 500
    assert len(r.details["subsets"]) == 6
    assert r.details["first_differing"] is None
    assert r.passed, r.details


def test_c10_negative_control_shared_generator(monkeypatch):
    # every restart drawing from one shared generator makes a trajectory
    # depend on the subsets that share its batch, which c10 must catch
    shared = np.random.default_rng(0)
    restart_starts = node_optimizer._restart_starts

    def shared_starts(*args):
        gens, lam0 = restart_starts(*args)
        return [shared] * len(gens), lam0

    monkeypatch.setattr(node_optimizer, "_restart_starts", shared_starts)
    r = c10_determinism(restarts=4)
    assert not r.passed
    assert r.details["first_differing"] in r.details["subsets"]
