import pytest

from bunpic.family import (
    CurveFamily,
    InvalidParams,
    InvalidPreset,
    PRESET_NAMES,
    UnknownTheorem,
    family_from_preset,
    hypothesis_check,
    validate_family,
)
from bunpic.root_datum import build_group

ALL_PRESETS = [
    ("universal", (0, 0)), ("universal", (0, 3)), ("universal", (1, 0)),
    ("universal", (1, 1)), ("universal", (2, 0)), ("universal", (2, 1)),
    ("universal", (3, 0)), ("universal", (4, 0)), ("universal", (5, 0)),
    ("universal", (6, 0)),
    ("plane_curve", (1,)), ("plane_curve", (3,)), ("plane_curve", (4,)),
    ("plane_curve", (5,)),
    ("complete_intersection", (2, 3)), ("complete_intersection", (3, 3)),
    ("k3_hyperplane", (3,)), ("k3_hyperplane", (5,)),
    ("hyperelliptic", (2,)), ("hyperelliptic", (3,)), ("hyperelliptic", (4,)),
    ("hurwitz", (3, 5)), ("severi", (1, 5)),
    ("fixed_curve", (2,)), ("genus0_trivial", ()), ("genus0_nontrivial", ()),
]


def test_universal_deltas():
    assert family_from_preset("universal", 3, 0).delta == 4
    assert family_from_preset("universal", 1, 0).delta == 0
    assert family_from_preset("universal", 0, 0).delta == 2
    assert family_from_preset("universal", 2, 1).delta == 1
    for g in range(7):
        assert family_from_preset("universal", g, 0).delta == abs(2 * g - 2)


def test_universal_flags():
    f = family_from_preset("universal", 3, 0)
    assert f.end_jacobian_trivial and f.rpic_surjective
    f10 = family_from_preset("universal", 1, 0)
    assert not f10.rpic_surjective and not f10.has_section


def test_plane_curve():
    f = family_from_preset("plane_curve", 5)
    assert f.genus == 6 and f.delta == 5


def test_complete_intersection_delta_is_product():
    f = family_from_preset("complete_intersection", 2, 3)
    assert f.delta == 6
    assert f.genus == 1 + 6 * (5 - 4) // 2  # deg * (sum d_i - r - 1) / 2 + 1


def test_hyperelliptic_parity():
    assert family_from_preset("hyperelliptic", 3).delta == 4
    assert family_from_preset("hyperelliptic", 4).delta == 2


def test_hurwitz_severi():
    assert family_from_preset("hurwitz", 3, 5).delta == 1  # gcd(4, 5)
    assert family_from_preset("severi", 1, 5).delta == 5  # gcd(0, 5)
    with pytest.raises(InvalidParams):
        family_from_preset("hurwitz", 9, 5)  # rho < 2


def test_invalid_presets():
    with pytest.raises(InvalidPreset):
        family_from_preset("moduli_of_dreams")
    with pytest.raises(InvalidParams):
        family_from_preset("universal", -1, 0)
    with pytest.raises(InvalidParams):
        family_from_preset("hyperelliptic", 1)


@pytest.mark.parametrize("name,params", [
    ("universal", (2.5, 1)), ("universal", (2, 1.0)), ("plane_curve", (True,)),
    ("complete_intersection", (2, 3.0)), ("fixed_curve", ("2",)),
])
def test_preset_parameters_must_be_integers(name, params):
    # universal(2.5, 1) used to give a family of genus 2.5
    bad = next(p for p in params if type(p) is not int)
    with pytest.raises(InvalidParams, match=repr(bad)):
        family_from_preset(name, *params)


def test_every_preset_validates():
    for name, params in ALL_PRESETS:
        fam = family_from_preset(name, *params)
        assert validate_family(fam) == [], (name, params, validate_family(fam))


def test_validate_divisibility():
    f = CurveFamily(genus=3, delta=3)
    v = validate_family(f)
    assert any("divide" in str(x) for x in v)


def test_validate_genus0_dichotomy():
    f = CurveFamily(genus=0, delta=2, zariski_locally_trivial=True, has_section=True,
                    rpic_surjective=True)
    assert validate_family(f)
    ok = CurveFamily(genus=0, delta=2)
    assert validate_family(ok) == []


def test_validate_delta0():
    assert validate_family(CurveFamily(genus=2, delta=0))
    assert validate_family(CurveFamily(genus=1, delta=0)) == []


def test_flag_monotonicity():
    # setting has_section never turns rpic_surjective off in any preset
    for name, params in ALL_PRESETS:
        fam = family_from_preset(name, *params)
        if fam.has_section:
            assert fam.rpic_surjective


def test_json_roundtrip():
    for name, params in ALL_PRESETS:
        fam = family_from_preset(name, *params)
        assert CurveFamily.from_json(fam.to_json()) == fam


def test_hypothesis_thm39():
    f = family_from_preset("universal", 2, 1)
    g = build_group("GL(2)")
    assert hypothesis_check(f, g, "Thm3.9").satisfied


def test_hypothesis_thmb_fixed_curve_not_sc():
    f = family_from_preset("fixed_curve", 2)
    g = build_group("PGL(2)")  # D(G) = PGL2 is not simply connected
    res = hypothesis_check(f, g, "ThmB")
    assert not res.satisfied
    assert any("torsion-free" in m for m in res.missing)


def test_hypothesis_thmb_sc_route():
    f = family_from_preset("fixed_curve", 2)
    g = build_group("SL(2)")
    assert hypothesis_check(f, g, "ThmB").satisfied


def test_hypothesis_thm46():
    f = family_from_preset("genus0_nontrivial")
    assert hypothesis_check(f, build_group("GL(3)"), "Thm4.6").satisfied
    res = hypothesis_check(f, build_group("PGL(2)"), "Thm4.6")
    assert not res.satisfied


def test_unknown_theorem():
    f = family_from_preset("universal", 2, 0)
    with pytest.raises(UnknownTheorem):
        hypothesis_check(f, build_group("SL(2)"), "Thm9.99")


def test_preset_names_catalog():
    assert set(p for p, _ in ALL_PRESETS) <= set(PRESET_NAMES)
