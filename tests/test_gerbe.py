import itertools
import random
from math import gcd

import pytest

from bunpic.cli import parse_family
from bunpic.exact_algebra import FGAbelianGroup
from bunpic.family import CurveFamily, family_from_preset
from bunpic.gerbe import (
    GradedPieces,
    _extension,
    evaluation_cokernel,
    evaluation_cokernel_table,
    poincare_bundle_exists,
    rigidified_picard,
    torus_weight_cokernel_closed_form,
    weight_cokernel,
)
from bunpic.invariant_forms import ns_bun, ns_bun_p1, ns_rigidified
from bunpic.picard import HypothesisNotSatisfied, reductive_picard
from bunpic.root_datum import Pi1Element, build_group, pi1_presentation, product
from reference import det, mod_delta_cokernel, mod_delta_image, torus_partial_bar


def synthetic(genus, delta):
    return CurveFamily(genus=genus, delta=delta, end_jacobian_trivial=True,
                       rpic_surjective=True, rpic0_torsion_free=True,
                       label=f"synthetic({genus},{delta})")


# ---------------------------------------------------------------------------
# evaluation cokernel


def test_ev_sl_n_via_gl_n():
    # GL_n has D(G) = SL_n; delta in Z maps onto every class of Z/n
    for n in (2, 3, 4, 5):
        g = build_group(f"GL({n})")
        for k in range(n):
            cok = evaluation_cokernel(g, Pi1Element.from_coords(g, (k,)))
            assert cok == FGAbelianGroup.cyclic(gcd(n, k)), (n, k)


def test_ev_table_sl_n():
    sl3 = build_group("SL(3)")
    assert evaluation_cokernel_table(sl3, (1,)) == FGAbelianGroup.cyclic(1)
    assert evaluation_cokernel_table(sl3, (0,)) == FGAbelianGroup.cyclic(3)


def test_ev_table_refuses_coordinates_that_are_not_integers():
    with pytest.raises(ValueError, match=r"1\.5"):
        evaluation_cokernel_table(build_group("SL(3)"), (1.5,))


def test_ev_simply_connected_delta_zero():
    # G semisimple simply connected: delta = 0, coker = full center dual
    for name, order in [("SL(4)", 4), ("Sp(4)", 2), ("Spin(7)", 2), ("E6sc", 3)]:
        g = build_group(name)
        cok = evaluation_cokernel(g, Pi1Element.zero(g))
        assert cok.order() == order


def test_ev_exceptional_trivial():
    for name in ("E8", "F4", "G2"):
        g = build_group(name)
        assert evaluation_cokernel(g, Pi1Element.zero(g)).is_trivial


def test_ev_e7_cases():
    e7 = build_group("E7sc")
    assert evaluation_cokernel_table(e7, (0,)) == FGAbelianGroup.cyclic(2)
    assert evaluation_cokernel_table(e7, (1,)).is_trivial


def test_ev_sp_parity():
    # Z/2 if delta = 0 or n even, else 0
    for n in (2, 3, 4, 5):
        sp = build_group(f"Sp({2 * n})")
        for d in (0, 1):
            cok = evaluation_cokernel_table(sp, (d,))
            expect = FGAbelianGroup.cyclic(2) if (d == 0 or n % 2 == 0) else FGAbelianGroup.trivial()
            assert cok == expect, (n, d)


def test_ev_exceptional_isogenies_agree():
    # Spin(6) = SL(4) and Spin(5) = Sp(4): the evaluation-cokernel tables of
    # the two presentations must coincide classwise (D3 = A3 up to relabeling
    # the order-4 center, B2 = C2 exactly)
    spin6 = build_group("Spin(6)")
    sl4 = build_group("SL(4)")
    for d in range(4):
        left = evaluation_cokernel_table(spin6, (d,))
        right = evaluation_cokernel_table(sl4, (d,))
        # generators of the order-4 center may differ between the two
        # presentations, but the cokernel only depends on the class order
        assert left == right == FGAbelianGroup.cyclic(gcd(4, d))
    spin5 = build_group("Spin(5)")
    sp4 = build_group("Sp(4)")
    for d in range(2):
        assert (evaluation_cokernel_table(spin5, (d,))
                == evaluation_cokernel_table(sp4, (d,)))


def test_psg6_pgl4_isogeny_invariants():
    # PSO(6) = PGL(4): pi1 and the conditional form lattice invariants agree
    from bunpic.invariant_forms import conditional_form_lattice
    from bunpic.root_datum import fundamental_group

    pso6 = build_group("PSO(6)")
    pgl4 = build_group("PGL(4)")
    assert fundamental_group(pso6) == fundamental_group(pgl4)
    a = conditional_form_lattice(pso6)
    b = conditional_form_lattice(pgl4)
    assert a.rank == b.rank == 1
    assert abs(det(a.basis_forms[0].gram)) == abs(det(b.basis_forms[0].gram))


def test_ev_product_law():
    g1 = build_group("SL(2)")
    g2 = build_group("Sp(4)")
    prod = product(g1, g2)
    both = evaluation_cokernel_table(prod, (1, 0))
    left = evaluation_cokernel_table(g1, (1,))
    right = evaluation_cokernel_table(g2, (0,))
    assert both == FGAbelianGroup.direct_sum(left, right)


def test_ev_lift_independence():
    rng = random.Random(41)
    for name in ("GL(2)", "GL(3)", "PGL(2)", "SO(6)", "PSp(4)", "E6ad"):
        g = build_group(name)
        p = pi1_presentation(g)
        delta = Pi1Element.from_coords(g, tuple(rng.randint(0, 4) for _ in range(p.group.ngens)))
        d1 = p.lift(delta.coords)
        shift = [0] * g.cochar_rank
        for j in range(g.ss_rank):
            c = rng.randint(-2, 2)
            col = g.simple_coroots.column(j)
            shift = [a + c * b for a, b in zip(shift, col)]
        d2 = tuple(a + b for a, b in zip(d1, shift))
        assert evaluation_cokernel(g, delta, lift=d1) == evaluation_cokernel(g, delta, lift=d2)


def test_ev_torus_trivial():
    t = build_group("T(2)")
    assert evaluation_cokernel(t, Pi1Element.from_coords(t, (1, 2))).is_trivial


def test_ev_adjoint_group_has_trivial_cokernel():
    # for an adjoint group the center is trivial, so the target quotient
    # collapses: the table entry for type A3 at class 2 needs a group whose
    # derived subgroup is SL(4) (use evaluation_cokernel_table), not PGL(4)
    g = build_group("PGL(4)")
    assert evaluation_cokernel(g, Pi1Element.from_coords(g, (2,))).is_trivial
    assert evaluation_cokernel_table(build_group("SL(4)"), (2,)) == FGAbelianGroup.cyclic(2)


# ---------------------------------------------------------------------------
# Poincare criterion


def test_poincare_examples():
    assert poincare_bundle_exists(2, family_from_preset("hyperelliptic", 3)) is False
    assert poincare_bundle_exists(1, family_from_preset("plane_curve", 5)) is True
    # d = g always works: gcd(delta, 1) = 1
    for g_ in (0, 1, 2, 3):
        fam = synthetic(g_, 2 if g_ != 1 else 0)
        assert poincare_bundle_exists(g_, fam) is True


# ---------------------------------------------------------------------------
# weight cokernel, torus


def test_weight_cokernel_gm_closed_form():
    t = build_group("T(1)")
    for g_ in (1, 2, 3):
        for delta in ([0, 1, 2, 3] if g_ == 1 else [d for d in range(1, 2 * g_ - 1)
                                                    if (2 * g_ - 2) % d == 0]):
            for d in range(-4, 5):
                fam = synthetic(g_, delta)
                rep = weight_cokernel(t, Pi1Element.from_coords(t, (d,)), fam)
                assert rep.coker_wt == FGAbelianGroup.cyclic(gcd(delta, abs(d) + 1 - g_)), \
                    (g_, delta, d)
                assert rep.poincare_exists == poincare_bundle_exists(d, fam)


def test_weight_cokernel_t2_example():
    # div(d) = 2, g = 3, delta = 4 -> Z/gcd(4,0) + Z/gcd(4,2,2) = Z/4 + Z/2
    t = build_group("T(2)")
    fam = synthetic(3, 4)
    rep = weight_cokernel(t, Pi1Element.from_coords(t, (2, 0)), fam)
    assert rep.coker_wt == FGAbelianGroup(0, (2, 4))
    assert rep.coker_gamma_bar.order() * rep.coker_wt.order() == 4 ** 2


def test_weight_cokernel_torus_exactness_bookkeeping():
    rng = random.Random(43)
    t2 = build_group("T(2)")
    for _ in range(20):
        g_ = rng.randint(1, 4)
        divisors = [d for d in range(1, max(2 * g_ - 1, 2)) if (2 * g_ - 2) % d == 0] or [1]
        delta = rng.choice(divisors)
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
        rep = weight_cokernel(t2, Pi1Element.from_coords(t2, d), synthetic(g_, delta))
        assert rep.coker_gamma_bar.order() * rep.coker_wt.order() == delta ** 2
        assert rep.exact_sequence_certificate["exactness_holds"]
        # the closed form only sees div(d), whatever basis d arrives in
        div = gcd(abs(d[0]), abs(d[1]))
        assert rep.coker_wt == torus_weight_cokernel_closed_form(g_, delta, div, 2)


def test_weight_cokernel_torus_closed_form_grid_small():
    t = build_group("T(3)")
    fam = synthetic(2, 2)
    rep = weight_cokernel(t, Pi1Element.from_coords(t, (2, 0, 0)), fam)
    assert rep.coker_wt == torus_weight_cokernel_closed_form(2, 2, 2, 3)


def test_weight_cokernel_delta1_collapse():
    # delta(C/S) = 1: coker(wt) = coker(ev) for sampled reductive groups
    fam = family_from_preset("universal", 2, 1)
    for name, coords in [("GL(2)", (1,)), ("GL(3)", (2,)), ("SL(2)", ()), ("Sp(4)", ())]:
        g = build_group(name)
        delta = Pi1Element.from_coords(g, coords)
        rep = weight_cokernel(g, delta, fam)
        assert rep.coker_wt_is_exact
        assert rep.coker_wt == evaluation_cokernel(g, delta)


def test_torus_partial_matrix_agrees_with_general_connecting_map():
    # the adapted-basis matrix route (Cor 4.5 proof, tests/reference.py) and
    # the general connecting map that weight_cokernel takes for every group
    # give the same coker(wt) and coker(gamma-bar) on tori
    cases = [(1, 0)] + [(g_, d) for g_ in (1, 2, 3) for d in range(1, max(2 * g_ - 1, 2))
                        if (2 * g_ - 2) % d == 0]
    for r in (1, 2, 3):
        t = build_group(f"T({r})")
        for d in itertools.product(range(-3, 4), repeat=r):
            delta = Pi1Element.from_coords(t, d)
            for g_, delta_cs in cases:
                rep = weight_cokernel(t, delta, synthetic(g_, delta_cs))
                pb = torus_partial_bar(t, d, g_)
                assert rep.coker_wt == mod_delta_cokernel(pb, delta_cs), (r, g_, delta_cs, d)
                assert rep.coker_gamma_bar == mod_delta_image(pb, delta_cs), (r, g_, delta_cs, d)


def test_weight_cokernel_reductive_graded():
    # GL(4), delta = 0, universal:3,0 (genus 3, delta(C/S) = 4): at the
    # canonical lift both pieces are nontrivial, the one graded record of the
    # held-out sweep_small; the sub piece is not pinned, as it can depend on
    # the lift (ROADMAP item 2)
    g = build_group("GL(4)")
    delta = Pi1Element.from_coords(g, (0,))
    rep = weight_cokernel(g, delta, parse_family("universal:3,0"))
    assert isinstance(rep.coker_wt, GradedPieces)
    assert not rep.coker_wt_is_exact
    assert rep.coker_wt.quotient == evaluation_cokernel(g, delta) == FGAbelianGroup.cyclic(4)
    assert rep.coker_wt.total_order == rep.coker_wt.sub.order() * 4


@pytest.mark.parametrize("piece", [FGAbelianGroup.cyclic(6), FGAbelianGroup.free(1),
                                   FGAbelianGroup.direct_sum(FGAbelianGroup.cyclic(2),
                                                             FGAbelianGroup.cyclic(4))])
def test_extension_with_a_trivial_piece_is_the_direct_sum(piece):
    trivial = FGAbelianGroup.trivial()
    assert _extension(trivial, piece) == (FGAbelianGroup.direct_sum(trivial, piece), "sub")
    assert _extension(piece, trivial) == (FGAbelianGroup.direct_sum(piece, trivial), "quotient")
    assert _extension(trivial, trivial) == (trivial, "sub")
    assert _extension(piece, piece) == (GradedPieces(sub=piece, quotient=piece), None)


def test_weight_cokernel_hypothesis_gate():
    g = build_group("PGL(2)")
    with pytest.raises(HypothesisNotSatisfied):
        weight_cokernel(g, Pi1Element.from_coords(g, (1,)),
                        family_from_preset("fixed_curve", 2))


def test_weight_cokernel_genus0_gl2():
    g = build_group("GL(2)")
    fam = family_from_preset("genus0_nontrivial")
    rep = weight_cokernel(g, Pi1Element.from_coords(g, (1,)), fam)
    # delta^ab odd: kernel piece Z/2; coker(ev-hat) for SL2, delta^ss = 1: trivial
    assert rep.ev_cokernel == FGAbelianGroup.cyclic(1)
    assert rep.coker_wt == FGAbelianGroup.cyclic(2)


def test_weight_cokernel_genus0_t1_matches_poincare():
    t = build_group("T(1)")
    for preset in ("genus0_trivial", "genus0_nontrivial"):
        fam = family_from_preset(preset)
        for d in range(-3, 4):
            rep = weight_cokernel(t, Pi1Element.from_coords(t, (d,)), fam)
            assert rep.poincare_exists == poincare_bundle_exists(d, fam)


# ---------------------------------------------------------------------------
# rigidified Picard


def test_rigidified_torus_delta1_full():
    t = build_group("T(2)")
    rep = rigidified_picard(t, Pi1Element.from_coords(t, (1, 0)), synthetic(2, 1))
    assert rep.image_index == 1  # modulus 1: everything is in the image


def test_rigidified_sl2_spec_example():
    g = build_group("SL(2)")
    rep = rigidified_picard(g, Pi1Element.zero(g), synthetic(2, 2))
    # condition 2 | b(x, x) holds for the even generator: full image
    assert rep.image_index == 1
    assert rep.cokernel.is_trivial


def test_rigidified_e8_genus0():
    g = build_group("E8")
    rep = rigidified_picard(g, Pi1Element.zero(g), family_from_preset("genus0_nontrivial"))
    assert rep.cokernel == FGAbelianGroup.free(1)


def test_rigidified_hypothesis_gate():
    g = build_group("PGL(2)")
    with pytest.raises(HypothesisNotSatisfied):
        rigidified_picard(g, Pi1Element.from_coords(g, (1,)),
                          family_from_preset("fixed_curve", 2))


# ---------------------------------------------------------------------------
# one lift policy: every engine that takes a lift of delta checks it


LIFT_ENGINES = (
    [(fn, None) for fn in (ns_bun, ns_rigidified, ns_bun_p1, evaluation_cokernel)]
    + [(weight_cokernel, fam) for fam in ("universal:2,1", "genus0_nontrivial", "universal:3,0")]
    + [(fn, fam) for fn in (rigidified_picard, reductive_picard)
       for fam in ("universal:2,1", "genus0_nontrivial")]
)

# (group, delta, a cocharacter that does not lift delta): another class, or
# the wrong number of coordinates
FOREIGN_LIFTS = [
    pytest.param("GL(2)", (1,), (0, 0), id="GL(2)-other-class"),
    pytest.param("GL(2)", (1,), (1, 0, 0), id="GL(2)-wrong-length"),
    pytest.param("T(1)", (2,), (1,), id="T(1)-other-class"),
    pytest.param("T(1)", (2,), (2, 0), id="T(1)-wrong-length"),
]


@pytest.mark.parametrize("group,coords,lift", FOREIGN_LIFTS)
@pytest.mark.parametrize("engine,family", LIFT_ENGINES,
                         ids=[f"{fn.__name__}-{fam}" if fam else fn.__name__
                              for fn, fam in LIFT_ENGINES])
def test_engines_reject_a_lift_of_another_class(engine, family, group, coords, lift):
    g = build_group(group)
    args = (g, Pi1Element.from_coords(g, coords)) + ((parse_family(family),) if family else ())
    engine(*args)                  # the engine runs on this input without a lift
    with pytest.raises(ValueError):
        engine(*args, lift=lift)
