"""Topological invariants of the asymptotically cylindrical 8-manifolds."""

import pytest

from spin7 import invariants
from spin7.invariants import (InvariantReport, OrbifoldConfiguration,
                              SigmaComponent, compute_report,
                              holonomy_verdict, moduli_dimension)


CFG_1 = OrbifoldConfiguration(
    chi_V=5, h31_V=0, chi_D=-296, h21_D=149, k=1, orders=(4,),
    sigma=(SigmaComponent(chi=1376, p_g=199),))

CFG_2 = OrbifoldConfiguration(
    chi_V=306, h31_V=35, chi_D=-296, h21_D=149, k=2, orders=(4, 4),
    sigma=(SigmaComponent(chi=304, p_g=35),))

CFG_2_VIA = OrbifoldConfiguration(
    chi_V=5, h31_V=0, chi_D=-296, h21_D=149, k=1, orders=(4,),
    sigma=(SigmaComponent(chi=304, p_g=35, multiplicity=2),))


def test_first_configuration_report():
    r = compute_report(CFG_1)
    assert (r.b1_Y, r.b2_Y, r.b3_Y) == (0, 0, 151)
    assert r.b_low_M == (0, 0, 0)
    assert r.b4_0 == 688
    assert r.b4 == 839
    assert (r.b4_plus, r.b4_minus) == (488, 200)
    assert r.moduli_dimension == 352
    assert r.holonomy == "Spin(7)"


def test_second_configuration_report():
    r = compute_report(CFG_2)
    assert r.b3_Y == 151
    assert r.b4_0 == 304
    assert r.b4 == 455
    assert (r.b4_plus, r.b4_minus) == (232, 72)
    assert r.moduli_dimension == 224
    assert r.holonomy == "Spin(7)"


def test_two_routes_to_the_second_manifold_agree():
    assert compute_report(CFG_2) == compute_report(CFG_2_VIA)


def test_parity_violation_is_a_hard_error():
    bad = OrbifoldConfiguration(
        chi_V=6, h31_V=0, chi_D=-296, h21_D=149, k=1, orders=(4,),
        sigma=(SigmaComponent(chi=1376, p_g=199),))
    with pytest.raises(ValueError, match="parity"):
        compute_report(bad)


def test_oversized_negative_part_is_a_hard_error():
    bad = OrbifoldConfiguration(
        chi_V=5, h31_V=10 ** 6, chi_D=-296, h21_D=149, k=1, orders=(4,),
        sigma=(SigmaComponent(chi=1376, p_g=199),))
    with pytest.raises(ValueError, match="b4_-"):
        compute_report(bad)


def test_configuration_validation():
    with pytest.raises(ValueError):
        OrbifoldConfiguration(chi_V=5, h31_V=0, chi_D=-296, h21_D=149,
                              k=0, orders=(), sigma=(SigmaComponent(1, 0),))
    with pytest.raises(ValueError):
        OrbifoldConfiguration(chi_V=5, h31_V=0, chi_D=-296, h21_D=149,
                              k=1, orders=(3,), sigma=(SigmaComponent(1, 0),))
    with pytest.raises(ValueError):
        OrbifoldConfiguration(chi_V=5, h31_V=0, chi_D=-296, h21_D=149,
                              k=1, orders=(4,), sigma=())
    with pytest.raises(ValueError):
        SigmaComponent(chi=4, p_g=0, multiplicity=0)


def test_report_internal_consistency_is_enforced():
    with pytest.raises(ValueError):
        InvariantReport(b1_Y=0, b2_Y=0, b3_Y=151, b_low_M=(0, 0, 0),
                        b4=839, b4_0=688, b4_plus=488, b4_minus=201,
                        moduli_dimension=352, holonomy="Spin(7)")
    with pytest.raises(ValueError):
        InvariantReport(b1_Y=0, b2_Y=0, b3_Y=151, b_low_M=(0, 0, 0),
                        b4=840, b4_0=688, b4_plus=488, b4_minus=200,
                        moduli_dimension=352, holonomy="Spin(7)")


def test_moduli_dimension_formula():
    assert moduli_dimension(839, 488) == 352
    assert moduli_dimension(455, 232) == 224
    assert moduli_dimension(455, 232, b1_M=1, b1_Y=1) == 224


def test_holonomy_verdict():
    assert holonomy_verdict(1, 0, True, True) == "Spin(7)"
    assert holonomy_verdict(1, 1, True, True) == "SU(4)"
    assert holonomy_verdict(1, 3, True, True) == "SU(2)xSU(2)"
    assert holonomy_verdict(1, 2, True, True) == "undetermined"
    assert holonomy_verdict(2, 0, True, True) == "undetermined"
    assert holonomy_verdict(1, 0, False, True) == "undetermined"
    assert holonomy_verdict(1, 0, True, False) == "undetermined"


def test_betti_and_signature_pipelines_directly():
    assert invariants.betti_pipeline(CFG_1) == (688, 839)
    assert invariants.signature_pipeline(CFG_1) == (488, 200)
    assert invariants.signature_pipeline(CFG_2) == (232, 72)
    assert invariants.signature_pipeline(CFG_2_VIA) == (232, 72)
    assert invariants.cross_section_betti(CFG_1) == (0, 0, 151)
