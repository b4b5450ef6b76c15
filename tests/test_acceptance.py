"""Acceptance suite: every criterion runs at its stated (exact) tolerance.

A pass/fail line per criterion is printed in the terminal summary (see
conftest.py).  Criterion 7 carries a known-defective leg; the inline comment
there has the analysis.
"""

import random
from itertools import product as iproduct
from math import gcd

import pytest

from bunpic.exact_algebra import FGAbelianGroup
from bunpic.family import CurveFamily, family_from_preset, validate_family
from bunpic.gerbe import (
    evaluation_cokernel,
    evaluation_cokernel_table,
    poincare_bundle_exists,
    torus_weight_cokernel_closed_form,
    weight_cokernel,
)
from bunpic.invariant_forms import (
    basic_inner_product,
    conditional_form_lattice,
    ns_bun,
    ns_bun_p1,
    ns_rigidified,
)
from bunpic.picard import (
    reductive_picard,
    relation_3_4_check,
    torus_picard_genus0,
)
from bunpic.root_datum import (
    Pi1Element,
    SimpleType,
    build_group,
    generic_lift,
    pi1_presentation,
)


def synthetic(genus, delta):
    return CurveFamily(genus=genus, delta=delta, end_jacobian_trivial=True,
                       rpic_surjective=True, rpic0_torsion_free=True,
                       label=f"synthetic({genus},{delta})")


def Z(n):
    return FGAbelianGroup.cyclic(n)


# criterion 1 -----------------------------------------------------------------


def test_criterion_01_example_4_2_golden_table():
    # SL_n, n in 2..8, all central classes
    for n in range(2, 9):
        sc = build_group(f"SL({n})")
        for d in range(n):
            assert evaluation_cokernel_table(sc, (d,)) == Z(gcd(n, d)), ("SL", n, d)
    # Spin_{2n+1}, n in 2..5, both classes -> Z/2
    for n in range(2, 6):
        sc = build_group(f"Spin({2 * n + 1})")
        for d in range(2):
            assert evaluation_cokernel_table(sc, (d,)) == Z(2), ("Spin odd", n, d)
    # Sp_{2n}, n in 2..5: Z/2 iff delta = 0 or n even
    for n in range(2, 6):
        sc = build_group(f"Sp({2 * n})")
        for d in range(2):
            expect = Z(2) if (d == 0 or n % 2 == 0) else Z(1)
            assert evaluation_cokernel_table(sc, (d,)) == expect, ("Sp", n, d)
    # Spin_{2n}, n in 3..6: center Z/4 (n odd) or Z/2 x Z/2 (n even)
    for n in range(3, 7):
        sc = build_group(f"Spin({2 * n})")
        if n % 2:
            for d in range(4):
                order = {0: Z(4), 1: Z(1), 2: Z(2), 3: Z(1)}[d]
                assert evaluation_cokernel_table(sc, (d,)) == order, ("Spin even/odd n", n, d)
        else:
            for d in iproduct(range(2), range(2)):
                expect = FGAbelianGroup(0, (2, 2)) if d == (0, 0) else Z(2)
                assert evaluation_cokernel_table(sc, d) == expect, ("Spin even/even n", n, d)
    # exceptional types
    e6 = build_group("E6sc")
    for d in range(3):
        assert evaluation_cokernel_table(e6, (d,)) == (Z(3) if d == 0 else Z(1))
    e7 = build_group("E7sc")
    for d in range(2):
        assert evaluation_cokernel_table(e7, (d,)) == (Z(2) if d == 0 else Z(1))
    for name in ("E8", "F4", "G2"):
        g = build_group(name)
        assert evaluation_cokernel(g, Pi1Element.zero(g)).is_trivial


# criterion 2 -----------------------------------------------------------------


def _delta_range(g):
    if g == 1:
        return [0, 1, 2, 3, 4, 5, 6]
    return [d for d in range(1, 2 * g - 1) if (2 * g - 2) % d == 0]


def test_criterion_02_cor_4_5_closed_form():
    diagnostics = 0
    for g in range(1, 6):
        for delta in _delta_range(g):
            for div in range(0, 7):
                for dim in range(1, 4):
                    t = build_group(f"T({dim})")
                    d = tuple([div] + [0] * (dim - 1))
                    rep = weight_cokernel(t, Pi1Element.from_coords(t, d),
                                          synthetic(g, delta))
                    expect = torus_weight_cokernel_closed_form(g, delta, div, dim)
                    assert rep.coker_wt == expect, (g, delta, div, dim)
                    # companion printed formula for coker(gamma-bar): flagged
                    # diagnostic only (see gerbe module notes)
                    if rep.coker_gamma_bar != expect:
                        diagnostics += 1
    print(f"criterion 2: {diagnostics} flagged coker(gamma-bar) printed-formula mismatches")


# criterion 3 -----------------------------------------------------------------


def test_criterion_03_mr85_consistency():
    t = build_group("T(1)")
    points = 0
    for g in range(0, 6):
        if g == 0:
            families = [family_from_preset("genus0_trivial"),
                        family_from_preset("genus0_nontrivial")]
        else:
            families = [synthetic(g, delta) for delta in _delta_range(g) if delta <= 8]
        for fam in families:
            for d in range(-5, 6):
                rep = weight_cokernel(t, Pi1Element.from_coords(t, (d,)), fam)
                wt_trivial = (rep.coker_wt.is_trivial
                              if isinstance(rep.coker_wt, FGAbelianGroup) else False)
                assert poincare_bundle_exists(d, fam) == wt_trivial, (g, fam.delta, d)
                points += 1
    assert points >= 200
    print(f"criterion 3: {points} grid points checked")


# criterion 4 -----------------------------------------------------------------


def test_criterion_04_faltings_cor_c():
    cases = [
        ("SL(4)", SimpleType("A", 3)), ("Spin(7)", SimpleType("B", 3)),
        ("Sp(6)", SimpleType("C", 3)), ("Spin(8)", SimpleType("D", 4)),
        ("E6sc", SimpleType("E", 6)), ("E7sc", SimpleType("E", 7)),
        ("E8", SimpleType("E", 8)), ("F4", SimpleType("F", 4)),
        ("G2", SimpleType("G", 2)),
    ]
    fam = family_from_preset("universal", 2, 1)
    for name, t in cases:
        g = build_group(name)
        rep = reductive_picard(g, Pi1Element.zero(g), fam)
        assert rep.cokernel == FGAbelianGroup.free(1), name
        # the report's Z is the lattice of even invariant forms
        forms = conditional_form_lattice(g).basis_forms
        assert len(forms) == 1
        assert forms[0].gram == basic_inner_product(t).gram, name


# criterion 5 -----------------------------------------------------------------


def test_criterion_05_rank_law():
    expected = {"SL(2)": 1, "SL(2)*SL(3)": 2, "GL(4)": 1,
                "Sp(4)*T(1)": 1, "PGL(2)": 1, "SO(5)": 1}
    for name, s in expected.items():
        assert conditional_form_lattice(build_group(name)).rank == s, name


# criterion 6 -----------------------------------------------------------------


def test_criterion_06_genus0_torus():
    trivial = family_from_preset("genus0_trivial")
    nontrivial = family_from_preset("genus0_nontrivial")
    t1 = build_group("T(1)")
    for d in (1, 3, 5, -1):  # primitive in rank 1
        assert torus_picard_genus0(t1, (d,), trivial).image_index == 1
        assert torus_picard_genus0(t1, (d,), nontrivial).image_index == 2
    rng = random.Random(61)
    for _ in range(12):
        n = rng.randint(1, 3)
        t = build_group(f"T({n})")
        d = tuple(rng.randint(-4, 4) for _ in range(n))
        rep = torus_picard_genus0(t, d, nontrivial)
        for chi in iproduct(range(-4, 5), repeat=n):
            expected = sum(a * b for a, b in zip(chi, d)) % 2 == 0
            assert rep.image_lattice.contains(chi) == expected, (d, chi)


# criterion 7 -----------------------------------------------------------------


@pytest.mark.parametrize("name,coords", [("SL(2)", ()), ("GL(2)", (1,)), ("PGL(2)", (1,))])
def test_criterion_07_thm_3_20_index_two(name, coords):
    # As stated by the criterion the index must be exactly 2 for all three
    # groups.  For SL(2) the only class is delta = 0, the parity functional
    # l(delta^ab) + b(d^ss, d^ss) of (3.28) is identically even, and the map
    # is onto (Cor 3.21 with D(G) simply connected and trivial G^ab); the
    # computed index is 1 and this leg fails by design rather than loosening
    # the assertion.
    g = build_group(name)
    rep = reductive_picard(g, Pi1Element.from_coords(g, coords),
                           family_from_preset("genus0_nontrivial"))
    assert rep.image_index == 2, (
        f"{name}: image of c has index {rep.image_index}, criterion demands 2"
    )


# criterion 8 -----------------------------------------------------------------


def test_criterion_08_relation_3_4_suite():
    rng = random.Random(67)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 3)
        chi = tuple(rng.randint(-3, 3) for _ in range(n))
        mu = tuple(rng.randint(-3, 3) for _ in range(n))
        dm, dn = rng.randint(-3, 3), rng.randint(-3, 3)
        d = tuple(rng.randint(-3, 3) for _ in range(n))
        g = rng.choice([1, 2, 3])
        assert relation_3_4_check(chi, mu, dm, dn, d, g)
        assert not relation_3_4_check(chi, mu, dm, dn, d, g, corrupt=True)
        checked += 1


# criterion 9 -----------------------------------------------------------------


def test_criterion_09_lift_independence():
    rng = random.Random(71)
    pool = [
        "SL(2)", "SL(3)", "SL(4)", "GL(2)", "GL(3)", "PGL(2)", "PGL(3)",
        "PGL(4)", "Sp(4)", "Sp(6)", "PSp(4)", "SO(5)", "SO(6)", "SO(7)",
        "Spin(7)", "Spin(8)", "PSO(6)", "PSO(8)", "E6ad", "E7ad", "G2",
        "SL(2)*SL(2)", "GL(2)*T(1)", "Sp(4)*T(1)",
    ]
    done = 0
    while done < 50:
        name = pool[done % len(pool)]
        g = build_group(name)
        p = pi1_presentation(g)
        delta = Pi1Element.from_coords(
            g, tuple(rng.randint(0, 5) for _ in range(p.group.ngens))
        )
        d1 = generic_lift(g, delta)
        shift = [0] * g.cochar_rank
        for j in range(g.ss_rank):
            c = rng.randint(-2, 2)
            col = g.simple_coroots.column(j)
            shift = [a + c * b for a, b in zip(shift, col)]
        d2 = tuple(a + b for a, b in zip(d1, shift))
        assert ns_bun(g, delta, lift=d1).key == ns_bun(g, delta, lift=d2).key, name
        assert (ns_rigidified(g, delta, lift=d1).key
                == ns_rigidified(g, delta, lift=d2).key), name
        assert (ns_bun_p1(g, delta, lift=d1).key
                == ns_bun_p1(g, delta, lift=d2).key), name
        assert (evaluation_cokernel(g, delta, lift=d1)
                == evaluation_cokernel(g, delta, lift=d2)), name
        done += 1


# criterion 10 ----------------------------------------------------------------


def test_criterion_10_catalog_validation():
    presets = [
        ("universal", (0, 0)), ("universal", (0, 2)), ("universal", (1, 0)),
        ("universal", (1, 2)), ("universal", (2, 0)), ("universal", (2, 1)),
        ("universal", (3, 0)), ("universal", (4, 0)), ("universal", (5, 0)),
        ("universal", (6, 0)),
        ("plane_curve", (3,)), ("plane_curve", (4,)), ("plane_curve", (5,)),
        ("complete_intersection", (2, 2)), ("complete_intersection", (2, 3)),
        ("k3_hyperplane", (3,)), ("k3_hyperplane", (6,)),
        ("hyperelliptic", (2,)), ("hyperelliptic", (3,)), ("hyperelliptic", (5,)),
        ("hurwitz", (3, 5)), ("severi", (3, 7)),
        ("fixed_curve", (1,)), ("fixed_curve", (3,)),
        ("genus0_trivial", ()), ("genus0_nontrivial", ()),
    ]
    for name, params in presets:
        fam = family_from_preset(name, *params)
        assert validate_family(fam) == [], (name, params)
        if fam.genus >= 2 and fam.delta:
            assert (2 * fam.genus - 2) % fam.delta == 0, (name, params)
    assert family_from_preset("universal", 1, 0).delta == 0


# criterion 11 ----------------------------------------------------------------


def test_criterion_11_exactness_bookkeeping():
    # torus grid with delta > 0: |coker(gamma-bar)| * |coker(wt)| = delta^dimT
    for g in range(1, 6):
        for delta in _delta_range(g):
            if delta == 0:
                continue
            for div in range(0, 7):
                for dim in range(1, 4):
                    t = build_group(f"T({dim})")
                    d = tuple([div] + [0] * (dim - 1))
                    rep = weight_cokernel(t, Pi1Element.from_coords(t, d),
                                          synthetic(g, delta))
                    wt = rep.coker_wt.order()
                    gb = rep.coker_gamma_bar.order()
                    assert wt is not None and gb is not None
                    assert gb * wt == delta ** dim, (g, delta, div, dim)
    # GL(n) over a delta(C/S) = 1 family: coker(wt) = coker(ev)
    fam = family_from_preset("universal", 2, 1)
    for n in (2, 3, 4):
        g = build_group(f"GL({n})")
        for k in (0, 1, 2):
            delta = Pi1Element.from_coords(g, (k,))
            rep = weight_cokernel(g, delta, fam)
            assert rep.coker_wt_is_exact
            assert rep.coker_wt == evaluation_cokernel(g, delta), (n, k)
